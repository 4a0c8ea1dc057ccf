"""Mobility traces, scenario files, and the synthetic grid generator."""

import json
import math
import tracemalloc
from bisect import bisect_right

import pytest

from olsrtune.errors import ConfigurationError, TraceParseError, TraceValidationError
from olsrtune.seeding import derive_rng
from olsrtune.scenario import (
    MAX_FLOW_PACKETS,
    MAX_FLOWS,
    MAX_STREETS,
    MAX_TRACE_SAMPLES,
    MAX_WALK_LEGS,
    MIN_BANDWIDTH_BPS,
    CbrFlow,
    FlowTemplate,
    GridSpec,
    LossModel,
    MobilityTrace,
    Scenario,
    _neighbors,
    _sample_walk,
    generate_grid_scenario,
    load_scenario,
    load_trace,
    position_at,
    relabel_scenario,
    save_scenario,
    scenario_files,
    serialize_trace,
)


def trace_of(samples):
    return MobilityTrace(samples=tuple(samples))


class TestMobilityTrace:
    def test_valid(self):
        tr = trace_of([(0.0, 0, 0.0, 0.0), (0.0, 1, 5.0, 5.0), (1.0, 0, 1.0, 0.0)])
        assert tr.node_ids == (0, 1)

    def test_unsorted_rejected(self):
        with pytest.raises(TraceValidationError):
            trace_of([(1.0, 0, 0.0, 0.0), (0.0, 0, 0.0, 0.0)])

    def test_duplicate_rejected(self):
        with pytest.raises(TraceValidationError):
            trace_of([(0.0, 0, 0.0, 0.0), (0.0, 0, 1.0, 1.0)])

    def test_missing_t0_rejected(self):
        with pytest.raises(TraceValidationError):
            trace_of([(0.0, 0, 0.0, 0.0), (1.0, 1, 1.0, 1.0)])


class TestPositionAt:
    def setup_method(self):
        self.tr = trace_of(
            [(0.0, 0, 0.0, 0.0), (0.0, 1, 9.0, 9.0), (2.0, 0, 10.0, 0.0)]
        )

    def test_exact_sample(self):
        assert position_at(self.tr, 0, 0.0) == (0.0, 0.0)
        assert position_at(self.tr, 0, 2.0) == (10.0, 0.0)

    def test_interpolation(self):
        assert position_at(self.tr, 0, 1.0) == (5.0, 0.0)
        x, y = position_at(self.tr, 0, 0.5)
        assert x == pytest.approx(2.5) and y == 0.0

    def test_hold_after_last(self):
        assert position_at(self.tr, 0, 100.0) == (10.0, 0.0)
        assert position_at(self.tr, 1, 50.0) == (9.0, 9.0)

    def test_unknown_node(self):
        with pytest.raises(ConfigurationError):
            position_at(self.tr, 99, 0.0)

    def test_negative_time(self):
        with pytest.raises(ConfigurationError):
            position_at(self.tr, 0, -0.1)


class TestFlowAndScenarioValidation:
    def test_flow_self_loop(self):
        with pytest.raises(ConfigurationError):
            CbrFlow(source=1, destination=1, packet_size=512, rate=1.0, start=0.0, duration=1.0)

    def test_flow_bad_size(self):
        with pytest.raises(ConfigurationError):
            CbrFlow(source=0, destination=1, packet_size=0, rate=1.0, start=0.0, duration=1.0)

    def test_flow_packet_count_bound(self):
        def flow(rate, duration):
            return CbrFlow(source=0, destination=1, packet_size=64, rate=rate, start=0.0,
                           duration=duration)

        assert flow(2.0, 2.5).packet_count == 5
        assert flow(3.0, 0.0).packet_count == 0
        assert flow(1000.0, MAX_FLOW_PACKETS / 1000.0).packet_count == MAX_FLOW_PACKETS
        # just over the bound, and a rate x duration that overflows a float
        for rate, duration in ((1000.0, MAX_FLOW_PACKETS / 1000.0 + 0.01), (1e300, 1e300)):
            with pytest.raises(ConfigurationError, match="packets"):
                flow(rate, duration)

    def test_scenario_flow_unknown_node(self):
        tr = trace_of([(0.0, 0, 0.0, 0.0), (0.0, 1, 5.0, 5.0)])
        flow = CbrFlow(source=0, destination=7, packet_size=64, rate=1.0, start=0.0, duration=1.0)
        with pytest.raises(ConfigurationError):
            Scenario(
                area=(10.0, 10.0), trace=tr, flows=(flow,),
                radio_range=100.0, bandwidth=6e6, sim_duration=10.0,
            )

    def test_scenario_flow_past_end(self):
        tr = trace_of([(0.0, 0, 0.0, 0.0), (0.0, 1, 5.0, 5.0)])
        flow = CbrFlow(source=0, destination=1, packet_size=64, rate=1.0, start=8.0, duration=5.0)
        with pytest.raises(ConfigurationError):
            Scenario(
                area=(10.0, 10.0), trace=tr, flows=(flow,),
                radio_range=100.0, bandwidth=6e6, sim_duration=10.0,
            )

    def test_scenario_flow_count_bound(self):
        tr = trace_of([(0.0, 0, 0.0, 0.0), (0.0, 1, 5.0, 5.0)])
        flow = CbrFlow(source=0, destination=1, packet_size=64, rate=1.0, start=0.0, duration=1.0)

        def scenario(count):
            return Scenario(
                area=(10.0, 10.0), trace=tr, flows=(flow,) * count,
                radio_range=100.0, bandwidth=6e6, sim_duration=10.0,
            )

        assert len(scenario(MAX_FLOWS).flows) == MAX_FLOWS
        with pytest.raises(ConfigurationError, match="flows"):
            scenario(MAX_FLOWS + 1)

    def test_bandwidth_bound(self):
        # below MIN_BANDWIDTH_BPS a frame's energy could overflow to inf
        tr = trace_of([(0.0, 0, 0.0, 0.0)])

        def scenario(bandwidth):
            return Scenario(
                area=(10.0, 10.0), trace=tr, flows=(),
                radio_range=100.0, bandwidth=bandwidth, sim_duration=10.0,
            )

        assert scenario(MIN_BANDWIDTH_BPS).bandwidth == MIN_BANDWIDTH_BPS
        for bandwidth in (MIN_BANDWIDTH_BPS / 2, 1e-300, 0.0, -6e6):
            with pytest.raises(ConfigurationError, match="bandwidth"):
                scenario(bandwidth)

    def test_sample_outside_area(self):
        tr = trace_of([(0.0, 0, 50.0, 0.0)])
        with pytest.raises(ConfigurationError):
            Scenario(
                area=(10.0, 10.0), trace=tr, flows=(),
                radio_range=100.0, bandwidth=6e6, sim_duration=10.0,
            )

    def test_loss_model_validation(self):
        with pytest.raises(ConfigurationError):
            LossModel("rayleigh")
        with pytest.raises(ConfigurationError):
            LossModel("bernoulli", p_at_max_range=1.5)


class TestTraceSerialization:
    def test_round_trip(self):
        tr = trace_of([(0.0, 0, 0.25, 1.5), (0.0, 1, 3.0, 4.0), (1.5, 0, 0.5, 1.5)])
        again = load_trace(serialize_trace(tr))
        assert again.samples == tr.samples
        assert again.node_count == tr.node_count

    def test_parse_error_carries_line(self):
        text = "time_s,node_id,x_m,y_m\n0.0,0,0.0,0.0\n0.0,zebra,1.0,1.0\n"
        with pytest.raises(TraceParseError) as err:
            load_trace(text)
        assert err.value.line_no == 3

    def test_wrong_field_count(self):
        with pytest.raises(TraceParseError):
            load_trace("time_s,node_id,x_m,y_m\n0.0,0,0.0\n")

    def test_empty_rejected(self):
        with pytest.raises(TraceValidationError):
            load_trace("time_s,node_id,x_m,y_m\n")


class TestGridGenerator:
    def spec(self, **kw):
        base = dict(area=(400.0, 300.0), streets=(3, 3), vehicle_count=6,
                    speed=(8.0, 14.0), duration=40.0)
        base.update(kw)
        return GridSpec(**base)

    def test_deterministic(self):
        tmpl = FlowTemplate(start=5.0, duration=10.0)
        a = generate_grid_scenario(self.spec(), 4, tmpl, seed=9)
        b = generate_grid_scenario(self.spec(), 4, tmpl, seed=9)
        assert a.trace.samples == b.trace.samples
        assert a.flows == b.flows

    def test_trace_and_street_bounds(self):
        # 40 s at 0.5 s steps is 81 samples per vehicle
        fits = MAX_TRACE_SAMPLES // 81
        assert self.spec(vehicle_count=fits, sample_step=0.5).vehicle_count == fits
        with pytest.raises(ConfigurationError):
            self.spec(vehicle_count=fits + 1, sample_step=0.5)
        # 1.6 s at 1 s steps rounds to 3 samples per vehicle, not 2.6
        over = dict(area=(200.0, 200.0), duration=1.6, sample_step=1.0)
        assert GridSpec(vehicle_count=MAX_TRACE_SAMPLES // 3, **over).samples_per_vehicle == 3
        for kw in (dict(vehicle_count=10**400), dict(vehicle_count=384_615, **over),
                   dict(sample_step=1e-310)):
            with pytest.raises(ConfigurationError):
                self.spec(**kw)
        assert self.spec(streets=(MAX_STREETS, 2)).streets == (MAX_STREETS, 2)
        for streets in ((MAX_STREETS + 1, 2), (2, MAX_STREETS + 1), (1, 3)):
            with pytest.raises(ConfigurationError):
                self.spec(streets=streets)

    def test_walk_leg_bound(self):
        # 100 m blocks at 100 m/s with no pause make one leg a second, so
        # 1,000 vehicles over 1,000 s walk exactly MAX_WALK_LEGS legs
        legs = dict(area=(200.0, 200.0), streets=(3, 3), speed=(100.0, 100.0),
                    pause_time=0.0, sample_step=1000.0, duration=1000.0)
        fits = MAX_WALK_LEGS // 1000
        assert GridSpec(vehicle_count=fits, **legs).vehicle_count == fits
        with pytest.raises(ConfigurationError, match="legs"):
            GridSpec(vehicle_count=fits + 1, **legs)
        # a pause bounds the legs however fast the vehicles drive
        assert self.spec(speed=(1e9, 1e9), pause_time=4.0).speed == (1e9, 1e9)
        for kw in (dict(speed=(1e9, 1e9)), dict(area=(1e-6, 1e-6)), dict(area=(0.0, 10.0))):
            with pytest.raises(ConfigurationError):
                self.spec(pause_time=0.0, **kw)

    def test_seed_changes_output(self):
        tmpl = FlowTemplate(start=5.0, duration=10.0)
        a = generate_grid_scenario(self.spec(), 4, tmpl, seed=9)
        b = generate_grid_scenario(self.spec(), 4, tmpl, seed=10)
        assert a.trace.samples != b.trace.samples

    def test_shape(self):
        tmpl = FlowTemplate(start=5.0, duration=10.0)
        scn = generate_grid_scenario(self.spec(), 4, tmpl, seed=9)
        assert scn.trace.node_count == 6
        assert len(scn.flows) == 4
        assert scn.sim_duration == 40.0
        # every flow uses the template parameters with distinct endpoints
        for f in scn.flows:
            assert f.source != f.destination
            assert f.packet_size == tmpl.packet_size
        assert len({(f.source, f.destination) for f in scn.flows}) == 4

    def test_positions_stay_in_area(self):
        scn = generate_grid_scenario(self.spec(vehicle_count=10), 2,
                                     FlowTemplate(start=0.0, duration=10.0), seed=3)
        w, h = scn.area
        for _t, _node, x, y in scn.trace.samples:
            assert -1e-6 <= x <= w + 1e-6
            assert -1e-6 <= y <= h + 1e-6

    def test_too_many_flows(self):
        with pytest.raises(ConfigurationError):
            generate_grid_scenario(self.spec(vehicle_count=2), 3,
                                   FlowTemplate(start=0.0, duration=10.0), seed=1)
        # enough pairs, but more than MAX_FLOWS flows
        with pytest.raises(ConfigurationError, match=str(MAX_FLOWS)):
            generate_grid_scenario(self.spec(vehicle_count=200), MAX_FLOWS + 1,
                                   FlowTemplate(start=0.0, duration=10.0), seed=1)


def reference_interpolate(times, xs, ys, t):
    """Position at t on the path through (times[k], xs[k], ys[k]): the
    last point at or before t by bisect_right, exact at its time, held
    after the last point."""
    k = bisect_right(times, t) - 1
    if k < 0:
        return xs[0], ys[0]
    if k == len(times) - 1 or times[k] == t:
        return xs[k], ys[k]
    f = (t - times[k]) / (times[k + 1] - times[k])
    return xs[k] + f * (xs[k + 1] - xs[k]), ys[k] + f * (ys[k + 1] - ys[k])


def reference_breakpoints(spec, xs, ys, rng):
    """Every breakpoint of one vehicle's walk, transposed into (times,
    xs, ys): the two-pass generator the one-pass walk replaced."""
    rows, cols = len(ys), len(xs)
    r = rng.randrange(rows)
    c = rng.randrange(cols)
    target = rng.choice(_neighbors(r, c, rows, cols))
    frac = rng.random()
    x = xs[c] + frac * (xs[target[1]] - xs[c])
    y = ys[r] + frac * (ys[target[0]] - ys[r])
    t = 0.0
    points = [(t, x, y)]
    while t <= spec.duration:
        tx, ty = xs[target[1]], ys[target[0]]
        dist = math.hypot(tx - x, ty - y)
        speed = rng.uniform(*spec.speed)
        if dist > 0:
            t += dist / speed
            points.append((t, tx, ty))
        x, y = tx, ty
        if spec.pause_time > 0:
            t += spec.pause_time
            points.append((t, x, y))
        target = rng.choice(_neighbors(*target, rows, cols))
    return tuple(zip(*points))


def reference_samples(spec, seed):
    """The trace samples of generate_grid_scenario(spec, ..., seed) by the
    two-pass walk: all breakpoints first, then one bisection per sample."""
    rng = derive_rng(seed, "mobility")
    rows, cols = spec.streets
    w, h = spec.area
    xs = [j * w / (cols - 1) for j in range(cols)]
    ys = [i * h / (rows - 1) for i in range(rows)]
    step, duration = spec.sample_step, spec.duration
    times = [min(i * step, duration) for i in range(int(round(duration / step)) + 1)]
    samples = []
    for node in range(spec.vehicle_count):
        walk = reference_breakpoints(spec, xs, ys, rng)
        samples.extend((t, node, *reference_interpolate(*walk, t)) for t in times)
    samples.sort(key=lambda s: (s[0], s[1]))
    return tuple(samples)


class TestOnePassWalk:
    @pytest.mark.parametrize("pause", [0.0, 4.0])
    @pytest.mark.parametrize(
        "shape",
        [
            dict(area=(400.0, 300.0), streets=(3, 3), speed=(8.0, 14.0), sample_step=1.0),
            # many legs between two samples
            dict(area=(60.0, 40.0), streets=(4, 3), speed=(30.0, 90.0), sample_step=7.0),
            # many samples on one leg, and a last sample step cut short
            dict(area=(900.0, 900.0), streets=(2, 5), speed=(1.0, 3.0), sample_step=0.45),
        ],
        ids=["default", "fast", "slow"],
    )
    def test_matches_two_pass_reference(self, pause, shape):
        spec = GridSpec(vehicle_count=7, pause_time=pause, duration=61.0, **shape)
        for seed in (1, 2, 77):
            scn = generate_grid_scenario(spec, 0, FlowTemplate(start=0.0, duration=1.0), seed)
            assert scn.trace.samples == reference_samples(spec, seed)

    def test_ties_and_exact_hits_follow_bisect_right(self):
        # two breakpoints share t=1 and two share t=3; samples land on
        # breakpoint times, between them, and after the last one
        points = [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 5.0, 5.0), (2.0, 6.0, 5.0),
                  (3.0, 6.0, 5.0), (3.0, 7.0, 7.0), (4.0, 9.0, 8.0)]
        times = [0.0, 0.5, 1.0, 1.25, 2.0, 2.5, 3.0, 3.5, 4.0, 6.0]
        walk = iter(points)
        got = list(_sample_walk(walk, times))
        columns = tuple(zip(*points))
        assert got == [(t, *reference_interpolate(*columns, t)) for t in times]
        assert next(walk, None) is None
        # sampling only the start still runs the walk to its end
        walk = iter(points)
        assert list(_sample_walk(walk, [0.0])) == [(0.0, 0.0, 0.0)]
        assert next(walk, None) is None

    def test_walk_memory_is_one_leg(self):
        # 86.4 m blocks at 1,000 m/s with no pause: 100,000 legs in 8,640 s,
        # sampled twice; the two-pass walk held every breakpoint (18 MB)
        spec = GridSpec(area=(86.4, 86.4), streets=(2, 2), speed=(1000.0, 1000.0),
                        pause_time=0.0, vehicle_count=1, sample_step=8640.0, duration=8640.0)
        tracemalloc.start()
        try:
            generate_grid_scenario(spec, 0, FlowTemplate(start=0.0, duration=1.0), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        scn = generate_grid_scenario(
            GridSpec(area=(200.0, 200.0), vehicle_count=4, duration=20.0),
            2, FlowTemplate(start=2.0, duration=10.0), seed=5, radio_range=150.0,
        )
        written = save_scenario(scn, tmp_path / "s.json")
        assert [p.name for p in written] == ["s.json", "s_trace.csv"]
        again = load_scenario(tmp_path / "s.json")
        assert again == scn

    def test_trace_resolved_relative_to_json(self, tmp_path):
        scn = generate_grid_scenario(
            GridSpec(area=(200.0, 200.0), vehicle_count=4, duration=20.0),
            1, FlowTemplate(start=2.0, duration=10.0), seed=5,
        )
        sub = tmp_path / "deep"
        sub.mkdir()
        save_scenario(scn, sub / "s.json")
        # loading via a different cwd still finds the side-car trace
        assert load_scenario(sub / "s.json") == scn

    def test_absolute_trace_file_and_bernoulli_round_trip(self, tmp_path):
        scn = generate_grid_scenario(
            GridSpec(area=(200.0, 200.0), vehicle_count=4, duration=20.0),
            1, FlowTemplate(start=2.0, duration=10.0), seed=5,
            loss_model=LossModel("bernoulli", 0.25),
        )
        save_scenario(scn, tmp_path / "s.json")
        assert scenario_files(tmp_path / "s.json") == [tmp_path / "s.json", tmp_path / "s_trace.csv"]
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["loss_model"] == {"kind": "bernoulli", "p_at_max_range": 0.25}
        # an absolute trace_file is used as it is, wherever the JSON lives
        doc["trace_file"] = str(tmp_path / "s_trace.csv")
        moved = tmp_path / "elsewhere" / "s.json"
        moved.parent.mkdir()
        moved.write_text(json.dumps(doc))
        assert load_scenario(moved) == scn
        assert scenario_files(moved) == [moved, tmp_path / "s_trace.csv"]

    def test_non_scenario_json_rejected(self, tmp_path):
        from olsrtune.errors import InputError

        stray = tmp_path / "stray.json"
        stray.write_text('{"command": "gen"}')
        with pytest.raises(InputError):
            load_scenario(stray)
        stray.write_text("{broken")
        with pytest.raises(InputError):
            load_scenario(stray)

    def test_whole_float_flow_fields_load_as_ints(self, tmp_path):
        scn = generate_grid_scenario(
            GridSpec(area=(200.0, 200.0), vehicle_count=4, duration=20.0),
            1, FlowTemplate(start=2.0, duration=10.0, packet_size=512), seed=5,
        )
        save_scenario(scn, tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        flow = doc["flows"][0]
        flow["source"] = float(flow["source"])
        flow["packet_size"] = 512.0
        (tmp_path / "s.json").write_text(json.dumps(doc))
        loaded = load_scenario(tmp_path / "s.json").flows[0]
        assert loaded == scn.flows[0]
        assert type(loaded.source) is int and type(loaded.packet_size) is int
        assert loaded.packet_size == 512

    def test_json_fields(self, tmp_path):
        scn = generate_grid_scenario(
            GridSpec(area=(200.0, 200.0), vehicle_count=4, duration=20.0),
            1, FlowTemplate(start=2.0, duration=10.0), seed=5,
        )
        save_scenario(scn, tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        for key in ("area", "radio_range_m", "bandwidth_bps", "duration_s", "loss_model",
                    "trace_file", "flows"):
            assert key in doc


def test_relabel_scenario_permutes_everything():
    tr = trace_of([(0.0, 0, 0.0, 0.0), (0.0, 1, 5.0, 5.0), (1.0, 0, 1.0, 0.0)])
    scn = Scenario(
        area=(10.0, 10.0), trace=tr,
        flows=(CbrFlow(source=0, destination=1, packet_size=64, rate=1.0, start=0.0, duration=1.0),),
        radio_range=100.0, bandwidth=6e6, sim_duration=10.0,
    )
    out = relabel_scenario(scn, {0: 5, 1: 3})
    assert out.trace.node_ids == (3, 5)
    assert out.flows[0].source == 5 and out.flows[0].destination == 3
    assert position_at(out.trace, 5, 1.0) == position_at(scn.trace, 0, 1.0)
