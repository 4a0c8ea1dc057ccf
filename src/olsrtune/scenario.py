"""VANET scenario construction and loading.

A scenario bundles vehicle mobility over time, radio parameters, and the
constant-bit-rate data flows that exercise the network. Mobility comes
either from a synthetic Manhattan-grid generator (vehicles follow street
lanes, turn uniformly at random at intersections and pause there) or from
an externally produced trace CSV with rows ``time_s,node_id,x_m,y_m``.
A MobilityTrace holds only those samples; its node set is the ids they
name, and the run length belongs to the Scenario.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .errors import ConfigurationError, InputError, TraceParseError, TraceValidationError
from .seeding import derive_rng

__all__ = [
    "MobilityTrace",
    "CbrFlow",
    "FlowTemplate",
    "LossModel",
    "Scenario",
    "GridSpec",
    "generate_grid_scenario",
    "load_trace",
    "serialize_trace",
    "position_at",
    "save_scenario",
    "load_scenario",
    "scenario_files",
]

TRACE_HEADER = "time_s,node_id,x_m,y_m"
MAX_PACKET_BYTES = 65_535  # the IPv4 maximum (RFC 791): keeps every frame's energy finite
MAX_DURATION_S = 86_400.0  # one day: bounds a run's periodic ticks and a generated walk
MAX_TRACE_SAMPLES = 10**6  # samples in a generated trace, all vehicles together
MAX_STREETS = 1_000  # street lines per axis of a generated grid
MAX_FLOW_PACKETS = 10**7  # packets one CBR flow may send, rate x duration
MAX_FLOWS = 10_000  # CBR flows in a scenario
MAX_WALK_LEGS = 10**6  # street legs of a generated trace, all vehicles together
MIN_BANDWIDTH_BPS = 1.0  # bit/s: keeps the energy and airtime of every frame finite


@dataclass(frozen=True)
class MobilityTrace:
    """Sampled vehicle positions, sorted by (time, node_id).

    `samples` is the only input: the node set is the set of ids in it, and
    the run length is `Scenario.sim_duration`. Every node needs a sample
    at t=0. Positions between samples are linearly interpolated; a node
    holds its last sampled position afterwards.
    """

    samples: tuple  # of (time_s, node_id, x_m, y_m)

    def __post_init__(self):
        prev = None
        nodes, at_zero = set(), set()
        for t, node, _x, _y in self.samples:
            key = (t, node)
            # sorted, so a duplicate is always equal to the previous key
            if prev is not None and key <= prev:
                if key < prev:
                    raise TraceValidationError("samples not sorted by (time, node_id)")
                raise TraceValidationError(f"duplicate sample for node {node} at t={t}")
            prev = key
            nodes.add(node)
            if t == 0:
                at_zero.add(node)
        for node in nodes:
            if node not in at_zero:
                raise TraceValidationError(f"node {node} has no sample at t=0")

    @cached_property
    def node_ids(self) -> tuple:
        return tuple(sorted({s[1] for s in self.samples}))

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @cached_property
    def _per_node(self) -> dict:
        """node_id -> (times, xs, ys), each a list sorted by time."""
        idx: dict = {node: ([], [], []) for node in self.node_ids}
        for t, node, x, y in self.samples:
            times, xs, ys = idx[node]
            times.append(float(t))
            xs.append(float(x))
            ys.append(float(y))
        return idx


def position_at(trace: MobilityTrace, node: int, t: float) -> tuple:
    """Position of `node` at time `t` by linear interpolation.

    Exact sample values are returned at sample times; past a node's last
    sample the position is held constant.
    """
    try:
        times, xs, ys = trace._per_node[node]
    except KeyError:
        raise ConfigurationError(f"unknown node id {node}") from None
    if t < 0:
        raise ConfigurationError(f"negative time {t}")
    # the last sample at or before t; every node has one at t=0
    k = bisect_right(times, t) - 1
    if k == len(times) - 1 or times[k] == t:
        return xs[k], ys[k]
    f = (t - times[k]) / (times[k + 1] - times[k])
    return xs[k] + f * (xs[k + 1] - xs[k]), ys[k] + f * (ys[k + 1] - ys[k])


def _require_finite(obj, *names):
    """Reject a named field, or a member of a tuple field, that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise ConfigurationError(f"{name} must be finite, got {value}")


def _packet_count(flow) -> int:
    """Packets a flow sends, one every 1/rate s from its start:
    ceil(rate * duration - 1e-9), or MAX_FLOW_PACKETS + 1 for any count
    above the bound (the product may not even be a finite float)."""
    n = flow.rate * flow.duration - 1e-9
    return math.ceil(n) if n <= MAX_FLOW_PACKETS else MAX_FLOW_PACKETS + 1


def _check_flow_params(flow):
    """The checks a CbrFlow and a FlowTemplate share."""
    _require_finite(flow, "rate", "start", "duration")
    if not 0 < flow.packet_size <= MAX_PACKET_BYTES:
        raise ConfigurationError(f"packet_size must be in 1..{MAX_PACKET_BYTES} bytes")
    if flow.rate <= 0:
        raise ConfigurationError("rate must be positive")
    if flow.start < 0:
        raise ConfigurationError("start must be >= 0")
    if flow.duration < 0:
        raise ConfigurationError("duration must be >= 0")
    if _packet_count(flow) > MAX_FLOW_PACKETS:
        raise ConfigurationError(
            f"rate {flow.rate} x duration {flow.duration} is more than {MAX_FLOW_PACKETS} packets"
        )


@dataclass(frozen=True)
class CbrFlow:
    """A constant-bit-rate unicast flow between two nodes."""

    source: int
    destination: int
    packet_size: int  # bytes
    rate: float  # packets per second
    start: float  # seconds
    duration: float  # seconds

    def __post_init__(self):
        if self.source == self.destination:
            raise ConfigurationError("flow source equals destination")
        _check_flow_params(self)

    packet_count = property(_packet_count)


@dataclass(frozen=True)
class FlowTemplate:
    """Per-flow parameters applied to every generated flow; endpoints are
    sampled separately."""

    packet_size: int = 512
    rate: float = 4.0
    start: float = 30.0
    duration: float = 60.0

    def __post_init__(self):
        _check_flow_params(self)


@dataclass(frozen=True)
class LossModel:
    """Reception model: `ideal` always delivers inside the radio range;
    `bernoulli` drops with probability scaling linearly from 0 at the
    sender up to `p_at_max_range` at the range edge."""

    kind: str = "ideal"
    p_at_max_range: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ideal", "bernoulli"):
            raise ConfigurationError(f"unknown loss model {self.kind!r}")
        if not 0.0 <= self.p_at_max_range <= 1.0:
            raise ConfigurationError("p_at_max_range must be in [0, 1]")


LOSS_IDEAL = LossModel("ideal")
# generate_grid_scenario's radio defaults, and those of `olsrtune gen`
DEFAULT_RADIO_RANGE_M = 500.0
DEFAULT_BANDWIDTH_BPS = 6e6


@dataclass(frozen=True)
class Scenario:
    """Immutable simulation input: area, mobility, flows, radio."""

    area: tuple  # (width_m, height_m)
    trace: MobilityTrace
    flows: tuple  # of CbrFlow
    radio_range: float  # meters
    bandwidth: float  # bits per second
    sim_duration: float  # seconds
    loss_model: LossModel = LOSS_IDEAL

    def __post_init__(self):
        w, h = self.area
        _require_finite(self, "area", "radio_range", "bandwidth", "sim_duration")
        if w <= 0 or h <= 0:
            raise ConfigurationError("area dimensions must be positive")
        if self.radio_range <= 0:
            raise ConfigurationError("radio_range must be positive")
        if not math.isfinite(self.radio_range * self.radio_range):
            raise ConfigurationError(f"radio_range {self.radio_range} is too large to square")
        if self.bandwidth < MIN_BANDWIDTH_BPS:
            raise ConfigurationError(f"bandwidth must be at least {MIN_BANDWIDTH_BPS:g} bit/s")
        if not 0 < self.sim_duration <= MAX_DURATION_S:
            raise ConfigurationError(f"sim_duration must be in (0, {MAX_DURATION_S:g}] s")
        if len(self.flows) > MAX_FLOWS:
            raise ConfigurationError(f"{len(self.flows)} flows is more than {MAX_FLOWS}")
        nodes = set(self.trace.node_ids)
        for flow in self.flows:
            if flow.source not in nodes or flow.destination not in nodes:
                raise ConfigurationError(
                    f"flow {flow.source}->{flow.destination} references unknown node ids"
                )
            if flow.start + flow.duration > self.sim_duration + 1e-9:
                raise ConfigurationError(
                    f"flow {flow.source}->{flow.destination} ends after sim_duration"
                )
        eps = 1e-6
        for t, node, x, y in self.trace.samples:
            if not (-eps <= x <= w + eps and -eps <= y <= h + eps):
                raise ConfigurationError(
                    f"sample for node {node} at t={t} lies outside the area"
                )


@dataclass(frozen=True)
class GridSpec:
    """Synthetic Manhattan-grid mobility parameters."""

    area: tuple  # (width_m, height_m)
    streets: tuple = (4, 4)  # (rows, cols) of street lines
    vehicle_count: int = 20
    speed: tuple = (8.0, 14.0)  # (min, max) m/s
    pause_time: float = 4.0  # seconds at intersections
    sample_step: float = 1.0  # seconds between trace samples
    duration: float = 180.0  # seconds of generated mobility

    def __post_init__(self):
        _require_finite(self, "area", "speed", "pause_time", "sample_step", "duration")
        rows, cols = self.streets
        if not (2 <= rows <= MAX_STREETS and 2 <= cols <= MAX_STREETS):
            raise ConfigurationError(f"streets must be 2 to {MAX_STREETS} lines per axis")
        if self.vehicle_count < 1:
            raise ConfigurationError("vehicle_count must be >= 1")
        lo, hi = self.speed
        if not 0 < lo <= hi:
            raise ConfigurationError("need 0 < speed_min <= speed_max")
        if self.pause_time < 0:
            raise ConfigurationError("pause_time must be >= 0")
        if self.sample_step <= 0:
            raise ConfigurationError("sample_step must be positive")
        if not 0 < self.duration <= MAX_DURATION_S:
            raise ConfigurationError(f"duration must be in (0, {MAX_DURATION_S:g}] s")
        if not (self.duration / self.sample_step < MAX_TRACE_SAMPLES  # else round() may overflow
                and self.vehicle_count * self.samples_per_vehicle <= MAX_TRACE_SAMPLES):
            raise ConfigurationError(
                f"vehicle_count x (round(duration / sample_step) + 1) must be at most "
                f"{MAX_TRACE_SAMPLES} trace samples"
            )
        # a leg takes at least the shortest block at speed_max, plus the
        # pause; an area that is not positive fails here or in Scenario
        w, h = self.area
        leg_s = min(w / (cols - 1), h / (rows - 1)) / hi + self.pause_time
        if self.vehicle_count * self.duration > MAX_WALK_LEGS * leg_s:
            raise ConfigurationError(
                f"vehicle_count x duration / (shortest block / speed_max + pause_time) "
                f"must be at most {MAX_WALK_LEGS} street legs"
            )

    @property
    def samples_per_vehicle(self) -> int:
        """Trace samples per vehicle that generate_grid_scenario makes."""
        return round(self.duration / self.sample_step) + 1


def _neighbors(r: int, c: int, rows: int, cols: int) -> list:
    """The intersections one block from (r, c), in a fixed order."""
    steps = ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
    return [(i, j) for i, j in steps if 0 <= i < rows and 0 <= j < cols]


def _walk(spec: GridSpec, xs: list, ys: list, rng):
    """One vehicle's walk on the streets at x = xs[j] and y = ys[i]: its
    breakpoints (t, x, y) in time order, between which it moves linearly,
    up to the first one after spec.duration."""
    rows, cols = len(ys), len(xs)
    # start somewhere along a uniformly chosen street segment
    r = rng.randrange(rows)
    c = rng.randrange(cols)
    target = rng.choice(_neighbors(r, c, rows, cols))
    frac = rng.random()
    x = xs[c] + frac * (xs[target[1]] - xs[c])
    y = ys[r] + frac * (ys[target[0]] - ys[r])

    t = 0.0
    yield t, x, y
    while t <= spec.duration:
        tx, ty = xs[target[1]], ys[target[0]]
        dist = math.hypot(tx - x, ty - y)
        speed = rng.uniform(*spec.speed)
        if dist > 0:
            t += dist / speed
            yield t, tx, ty
        x, y = tx, ty
        if spec.pause_time > 0:
            t += spec.pause_time
            yield t, x, y
        target = rng.choice(_neighbors(*target, rows, cols))


def _sample_walk(walk, times: list):
    """(t, x, y) at each of the sorted `times` on the path through the
    breakpoints of `walk`, by position_at's rule, holding one leg. Runs the
    walk to its end, so the next walk draws the same random numbers."""
    t0, x0, y0 = next(walk)
    leg_end = next(walk, None)
    for t in times:
        # the last breakpoint at or before t, as bisect_right finds it
        while leg_end is not None and leg_end[0] <= t:
            (t0, x0, y0), leg_end = leg_end, next(walk, None)
        if leg_end is None or t0 == t:
            yield t, x0, y0
        else:
            t1, x1, y1 = leg_end
            f = (t - t0) / (t1 - t0)
            yield t, x0 + f * (x1 - x0), y0 + f * (y1 - y0)
    deque(walk, maxlen=0)


def generate_grid_scenario(
    spec: GridSpec,
    flow_count: int,
    flow_params: FlowTemplate,
    seed: int,
    *,
    radio_range: float = DEFAULT_RADIO_RANGE_M,
    bandwidth: float = DEFAULT_BANDWIDTH_BPS,
    loss_model: LossModel = LOSS_IDEAL,
) -> Scenario:
    """Build a deterministic grid-mobility scenario.

    Vehicles are placed on street segments at t=0, follow lanes at a
    per-leg speed drawn from ``spec.speed``, turn uniformly at random at
    intersections (pausing ``pause_time`` there), and are sampled every
    ``sample_step``. The run lasts ``spec.duration``. Flow endpoints are
    uniformly random distinct ordered pairs, no pair repeated. The same
    (spec, seed) always yields the same scenario.
    """
    n = spec.vehicle_count
    if not 0 <= flow_count <= MAX_FLOWS:
        raise ConfigurationError(f"flow_count must be in 0..{MAX_FLOWS}")
    if flow_count > n * (n - 1):
        raise ConfigurationError(
            f"flow_count {flow_count} exceeds the {n * (n - 1)} distinct ordered pairs"
        )

    mob_rng = derive_rng(seed, "mobility")
    rows, cols = spec.streets
    w, h = spec.area
    xs = [j * w / (cols - 1) for j in range(cols)]
    ys = [i * h / (rows - 1) for i in range(rows)]
    times = [min(i * spec.sample_step, spec.duration) for i in range(spec.samples_per_vehicle)]
    samples = []
    for node in range(n):
        walk = _sample_walk(_walk(spec, xs, ys, mob_rng), times)
        samples.extend((t, node, x, y) for t, x, y in walk)
    samples.sort(key=lambda s: (s[0], s[1]))
    trace = MobilityTrace(samples=tuple(samples))

    flow_rng = derive_rng(seed, "flows")
    pairs = set()
    flows = []
    while len(flows) < flow_count:
        s = flow_rng.randrange(n)
        d = flow_rng.randrange(n - 1)
        if d >= s:
            d += 1
        if (s, d) in pairs:
            continue
        pairs.add((s, d))
        flows.append(
            CbrFlow(
                source=s,
                destination=d,
                packet_size=flow_params.packet_size,
                rate=flow_params.rate,
                start=flow_params.start,
                duration=flow_params.duration,
            )
        )

    return Scenario(
        area=(float(spec.area[0]), float(spec.area[1])),
        trace=trace,
        flows=tuple(flows),
        radio_range=float(radio_range),
        bandwidth=float(bandwidth),
        sim_duration=float(spec.duration),
        loss_model=loss_model,
    )


def serialize_trace(trace: MobilityTrace) -> str:
    lines = [TRACE_HEADER]
    for t, node, x, y in trace.samples:
        lines.append(f"{float(t)!r},{node},{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"


def load_trace(text) -> MobilityTrace:
    """Parse a trace CSV (string or line iterable); rows are re-sorted."""
    if isinstance(text, str):
        lines: Iterable = text.splitlines()
    else:
        lines = text
    rows = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line_no == 1 and line.replace(" ", "") == TRACE_HEADER:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise TraceParseError(line_no, f"expected 4 fields, got {len(parts)}")
        try:
            t = float(parts[0])
            node = int(parts[1])
            x = float(parts[2])
            y = float(parts[3])
        except ValueError as exc:
            raise TraceParseError(line_no, str(exc)) from None
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
            raise TraceParseError(line_no, f"time and position must be finite, got {t}, {x}, {y}")
        if t < 0:
            raise TraceParseError(line_no, f"negative time {t}")
        rows.append((t, node, x, y))
    if not rows:
        raise TraceValidationError("trace is empty")
    rows.sort(key=lambda s: (s[0], s[1]))
    return MobilityTrace(samples=tuple(rows))


def _is_number(value) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _is_whole(value) -> bool:
    """A JSON number with no fractional part: 512 and 512.0, not 100.9."""
    return _is_number(value) and float(value).is_integer()


def _is_area(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


# a check is a predicate on a JSON value and what it asks for
_FINITE = (_is_number, "a finite number")
_WHOLE = (_is_whole, "a whole number")
_STRING = (lambda v: isinstance(v, str), "a string")
# open() raises ValueError, not OSError, for a path holding a NUL
_PATH = (lambda v: isinstance(v, str) and "\0" not in v, "a string with no NUL character")

# The scenario file format. A row is (JSON key, field, check, cast): cast
# turns a checked JSON value into the field's value. load_scenario checks
# the keys in row order, every type check before the trace is read;
# save_scenario writes the same keys from the same fields.
_TRACE_FILE = ("trace_file", "trace", _PATH, Path)
SCENARIO_FORMAT = (
    _TRACE_FILE,
    ("area", "area", (_is_area, "[width, height]"), lambda v: tuple(map(float, v))),
    ("radio_range_m", "radio_range", _FINITE, float),
    ("bandwidth_bps", "bandwidth", _FINITE, float),
    ("duration_s", "sim_duration", _FINITE, float),
    ("loss_model", "loss_model", (lambda v: isinstance(v, dict), "an object"), dict),
    ("flows", "flows", (lambda v: isinstance(v, list), "a list"), list),
)
# a loss_model object: kind, then p_at_max_range, which is written for
# bernoulli only and read as LOSS_IDEAL's value when absent
LOSS_FORMAT = (
    ("kind", "kind", _STRING, str),
    ("p_at_max_range", "p_at_max_range", _FINITE, float),
)
# each entry of flows, its keys named as the CbrFlow fields
FLOW_FORMAT = tuple(
    (name, name, check, cast)
    for name, check, cast in (
        ("source", _WHOLE, int),
        ("destination", _WHOLE, int),
        ("packet_size", _WHOLE, int),
        ("rate", _FINITE, float),
        ("start", _FINITE, float),
        ("duration", _FINITE, float),
    )
)


def _read(doc: dict, table: tuple, where: str) -> dict:
    """field -> cast value for each row of `table`, checked in row order;
    InputError for a key that is missing or fails its check."""
    out = {}
    for key, field, (ok, what), cast in table:
        if key not in doc:
            raise InputError(f"{where}: missing field {key!r}")
        value = doc[key]
        if not ok(value):
            raise InputError(f"{where}: field {key!r} must be {what}, not {type(value).__name__}")
        out[field] = cast(value)
    return out


def _dump(record, table: tuple) -> dict:
    """The JSON object of `record`: one key per row of `table`."""
    return {key: getattr(record, field) for key, field, _check, _cast in table}


def _scenario_doc(json_path: Path) -> dict:
    """The JSON object of a scenario file; InputError if it is not one."""
    try:
        doc = json.loads(json_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, undecodable bytes, too many digits
        raise InputError(f"{json_path} is not valid JSON: {exc}") from None
    key = _TRACE_FILE[0]
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"{json_path} is not a scenario file (no {key} field)")
    return doc


def _trace_path(json_path: Path, doc: dict) -> Path:
    """The trace file a scenario document names, resolved against the
    directory of its JSON file (an absolute path stays as it is)."""
    return json_path.parent / _read(doc, (_TRACE_FILE,), str(json_path))["trace"]


def scenario_files(json_path) -> list:
    """The files load_scenario reads: the scenario JSON and its trace CSV."""
    json_path = Path(json_path)
    return [json_path, _trace_path(json_path, _scenario_doc(json_path))]


def save_scenario(scenario: Scenario, json_path) -> list:
    """Write scenario JSON plus its trace CSV, `<stem>_trace.csv` next to
    it; returns the written paths."""
    json_path = Path(json_path)
    trace_path = json_path.parent / (json_path.stem + "_trace.csv")
    loss = scenario.loss_model
    values = {
        "trace": trace_path.name,
        "loss_model": _dump(loss, LOSS_FORMAT if loss.kind == "bernoulli" else LOSS_FORMAT[:1]),
        "flows": [_dump(f, FLOW_FORMAT) for f in scenario.flows],
    }
    doc = {
        key: values[field] if field in values else getattr(scenario, field)
        for key, field, _check, _cast in SCENARIO_FORMAT
    }
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    trace_path.write_text(serialize_trace(scenario.trace), encoding="utf-8")
    return [json_path, trace_path]


def load_scenario(json_path) -> Scenario:
    """Read a scenario JSON; trace_file paths resolve against the JSON's directory.

    Raises InputError for a file that is not a JSON object with a
    trace_file field, a field that is missing or of the wrong type, a
    flow source, destination or packet_size that is not a whole number,
    or a trace file that is not UTF-8 text.
    """
    json_path = Path(json_path)
    doc = _scenario_doc(json_path)
    where = str(json_path)
    values = _read(doc, SCENARIO_FORMAT, where)
    if not all(isinstance(f, dict) for f in values["flows"]):
        raise InputError(f"{where}: every entry of 'flows' must be an object")
    flows = [_read(f, FLOW_FORMAT, f"{where}: flow {k}") for k, f in enumerate(values["flows"])]
    loss = _read({**_dump(LOSS_IDEAL, LOSS_FORMAT[1:]), **values["loss_model"]}, LOSS_FORMAT, where)
    trace_path = _trace_path(json_path, doc)
    try:
        with open(trace_path, encoding="utf-8") as fh:
            values["trace"] = load_trace(fh)
    except UnicodeDecodeError as exc:
        raise InputError(f"trace file {trace_path} is not UTF-8 text: {exc}") from None
    values["flows"] = tuple(CbrFlow(**f) for f in flows)
    values["loss_model"] = LossModel(**loss)
    return Scenario(**values)


def relabel_scenario(scenario: Scenario, mapping: dict) -> Scenario:
    """Apply a node-id permutation to trace samples and flow endpoints."""
    samples = sorted(
        ((t, mapping[node], x, y) for t, node, x, y in scenario.trace.samples),
        key=lambda s: (s[0], s[1]),
    )
    trace = MobilityTrace(samples=tuple(samples))
    flows = tuple(
        replace(f, source=mapping[f.source], destination=mapping[f.destination])
        for f in scenario.flows
    )
    return replace(scenario, trace=trace, flows=flows)
