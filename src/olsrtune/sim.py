"""Discrete-event VANET simulation with per-packet energy accounting.

Nodes run the OLSR state machine over an ideal broadcast medium (unit
disk, optional distance-scaled Bernoulli loss, no MAC contention).
Every transmission charges the sender its send energy and every in-range
node the receive energy, data or control alike. Data packets travel
hop-by-hop along the routing tables. A HELLO reaches one hop in one
pass: its receivers process it in the order the radio model returns
them. Only TCs flood, relayed under the MPR forwarding rule. Runs are
fully deterministic in (scenario, config, nic, seed) and independent of
host scheduling.

This module holds the radio model, the event queue and the energy
ledger. It reaches a node's OLSR state only through olsr's five entries
(next_hello, receive_hello, next_tc, receive_tc and routes), which hold
the protocol's processing rules.

The radio model, which every transmission goes through:

- positions come from _RadioIndex and equal scenario.position_at bit
  for bit;
- node j hears sender i when d2 <= radio_range**2, where
  d2 = (x_j - x_i)**2 + (y_j - y_i)**2 in float64;
- only i's candidates, in index order, are tested. When every node is
  sampled on one time grid, j is left off i's list for a sample
  interval only if hypot(start offset) - (|move_i| + |move_j|) is
  finite and above radio_range + margin, where a move is a node's
  displacement over the interval and the margin is 2**-30 of the
  coordinates' magnitude plus the range, far above float64 rounding.
  Two points moving linearly never come closer than their start
  distance less both moves, so a list never drops a receiver. Otherwise
  every other node is a candidate. An interval's lists are built when a
  run first reaches it and live as long as the Scenario object, so
  every run on that object shares them;
- under bernoulli loss, every in-range node other than the sender, in
  node-index order, takes exactly one draw r = loss_rng.random() from
  the run's derive_rng(seed, "loss") stream and loses the frame when
  r < p_at_max_range * sqrt(d2) / radio_range. A draw r >= cut, where
  cut = p_at_max_range * sqrt(radio_range**2) / radio_range is set once
  per run, skips the sqrt: correctly rounded sqrt, * and / are monotone,
  so no in-range node's threshold is above cut. The draw is still taken,
  so the loss stream does not change;
- frame_cost(nic, size_bits, scenario.bandwidth) prices a frame, looked
  up once per frame: the sender pays its send energy, every receiver its
  receive energy, and a data frame arrives its airtime plus the
  processing delay later. The loop that decides who hears a frame also
  charges them, so each frame takes one pass over the candidates.

Changing any of these, the draw order included, changes the metrics.

The event queue is a heap keyed by (time, sequence number); the number
breaks exact time ties in the order events were queued. It holds one
pending packet per CBR flow, not every packet of the run: popping packet
i of a flow queues packet i + 1 at start + (i + 1) / rate. Each packet
keeps the number it would have had if every packet of the run had been
queued at the start, in flow order, right after the first HELLO and TC
ticks, and later events are numbered after all of them. So the pop
order, and with it every loss draw and metric, is the same as if every
packet were queued at the start, while the heap holds O(nodes + flows +
frames in flight) entries.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cache, partial
from operator import attrgetter
from typing import ClassVar

import numpy as np

from . import olsr
from .errors import ConfigurationError
from .olsr import OlsrConfig, OlsrNodeState, Tc
from .scenario import MobilityTrace, Scenario, position_at
from .seeding import derive_rng

__all__ = [
    "NicProfile",
    "EnergyLedger",
    "SimMetrics",
    "default_nic",
    "frame_cost",
    "run_simulation",
    "routing_snapshot",
    "METRICS_COLUMNS",
    "metrics_row",
    "metrics_to_json",
    "PROCESSING_DELAY_S",
    "MAX_HOPS",
]

PROCESSING_DELAY_S = 0.002  # fixed per-relay handling time
MAX_HOPS = 64  # IP-default TTL; bounds transient routing loops


@dataclass(frozen=True)
class NicProfile:
    """Radio energy profile, fixed constants: currents in mA, supply in
    V. mA x V x s works out to millijoules."""

    i_send: ClassVar[float] = 440.0
    v_send: ClassVar[float] = 5.0
    i_recv: ClassVar[float] = 260.0
    v_recv: ClassVar[float] = 5.0


def default_nic() -> NicProfile:
    return NicProfile()


def frame_cost(nic: NicProfile, size_bits: float, bandwidth: float) -> tuple:
    """(send mJ, receive mJ, airtime s) of one frame of `size_bits` sent
    at `bandwidth` bit/s."""
    if not (size_bits >= 0 and bandwidth > 0):
        raise ConfigurationError(f"need size >= 0 and bandwidth > 0, got {size_bits}, {bandwidth}")
    return (
        (nic.i_send * nic.v_send) * size_bits / bandwidth,
        (nic.i_recv * nic.v_recv) * size_bits / bandwidth,
        size_bits / bandwidth,
    )


@dataclass(frozen=True)
class EnergyLedger:
    """Per-node and global energy accumulators, in millijoules."""

    per_node_sent: dict
    per_node_recv: dict

    @property
    def e_sent(self) -> float:
        return sum(self.per_node_sent.values())

    @property
    def e_recv(self) -> float:
        return sum(self.per_node_recv.values())

    @property
    def e_total(self) -> float:
        return self.e_sent + self.e_recv

    @property
    def e_total_per_vehicle(self) -> float:
        return self.e_total / len(self.per_node_sent)


@dataclass(frozen=True)
class SimMetrics:
    """QoS and energy results of one run. pdr/e2ed/nrl/hops are None when
    undefined (no flows, or nothing delivered)."""

    pdr: float | None
    e2ed_ms: float | None
    nrl: float | None
    hops: float | None
    energy: EnergyLedger
    data_sent: int
    data_delivered: int
    control_tx: int


# One entry per metric, in column order: (name, getter, optional). An
# optional metric is None when undefined and its CSV cell is then empty.
_METRIC_FIELDS = tuple(
    (name, attrgetter(path), optional)
    for name, path, optional in (
        ("pdr", "pdr", True),
        ("e2ed_ms", "e2ed_ms", True),
        ("nrl", "nrl", True),
        ("hops", "hops", True),
        ("e_sent_mj", "energy.e_sent", False),
        ("e_recv_mj", "energy.e_recv", False),
        ("e_total_mj", "energy.e_total", False),
        ("e_total_per_vehicle_mj", "energy.e_total_per_vehicle", False),
        ("data_sent", "data_sent", False),
        ("data_delivered", "data_delivered", False),
        ("control_tx", "control_tx", False),
    )
)

METRICS_COLUMNS = ("scenario_id", "config_id", "seed") + tuple(f[0] for f in _METRIC_FIELDS)


def _cell(value, optional: bool) -> str:
    if optional:
        return "" if value is None else repr(float(value))
    return repr(value)


def metrics_row(metrics: SimMetrics, scenario_id: str, config_id: str, seed: int) -> list:
    cells = [_cell(get(metrics), optional) for _name, get, optional in _METRIC_FIELDS]
    return [scenario_id, config_id, str(seed)] + cells


def metrics_to_json(metrics: SimMetrics) -> dict:
    return {name: get(metrics) for name, get, _optional in _METRIC_FIELDS}


# Two points moving linearly never come closer than their start distance
# less both moves. That bound is widened by this share of the coordinates'
# magnitude plus the range, many times the few float64 roundings in it.
_MARGIN_SHARE = 2.0**-30


class _RadioIndex:
    """Positions and candidate receivers of one scenario, for any time.

    On a shared time grid (every generated trace) it keeps one (2, n)
    snapshot per sample and its difference to the next (0 from the last
    sample on), so a position is xy[k] + f * dxy[k] as in position_at,
    and one candidate list per node and sample interval: j is on i's
    list unless their start distance less both moves (the hypot of each
    dxy[k] column) is above the range plus the margin, by the module
    docstring's rule. An interval's lists are built when a run first
    reaches it and kept; a row equal to the previous interval's is that
    same list object. An irregular trace falls back to per-node
    position_at, every other node a candidate.
    """

    def __init__(self, trace: MobilityTrace, radio_range: float):
        self.trace = trace
        self.node_ids = list(trace.node_ids)
        per_node = trace._per_node
        times0 = per_node[self.node_ids[0]][0]
        self.shared = all(per_node[n][0] == times0 for n in self.node_ids)
        if self.shared:
            self.times = [float(x) for x in times0]
            rows = [[per_node[n][axis] for n in self.node_ids] for axis in (1, 2)]
            xy = np.asarray(rows, dtype=float).transpose(2, 0, 1).copy()  # (samples, 2, n)
            self.xy = list(xy)
            self.dxy = list(np.diff(xy, axis=0, append=xy[-1:]))
            self.lists = [None] * len(self.times)
            mag = float(np.abs(xy).max())
            self.reach = radio_range + _MARGIN_SHARE * (mag + radio_range)
        else:
            n = len(self.node_ids)
            self.times = [0.0]
            self.lists = [[[j for j in range(n) if j != i] for i in range(n)]]
        self._t = None
        self._at = None

    def at(self, t: float) -> tuple:
        """(xs, ys, candidates) at time t: each node's position, equal to
        position_at bit for bit, and its candidate list."""
        if t != self._t:
            times = self.times
            k = max(bisect_right(times, t) - 1, 0)
            if not self.shared:
                xs, ys = zip(*[position_at(self.trace, n, t) for n in self.node_ids])
            elif k >= len(times) - 1 or times[k] == t:
                xs, ys = self.xy[k].tolist()
            else:
                f = (t - times[k]) / (times[k + 1] - times[k])
                xs, ys = (self.xy[k] + f * self.dxy[k]).tolist()
            lists = self.lists[k]
            if lists is None:
                lists = self.lists[k] = self._build(k)
            self._t, self._at = t, (xs, ys, lists)
        return self._at

    def _build(self, k: int) -> list:
        """Each node's candidates over sample interval k, in index order."""
        x, y = self.xy[k]
        # an overflow gives inf or nan, which keeps the pair
        with np.errstate(over="ignore", invalid="ignore"):
            move = np.hypot(*self.dxy[k])
            gap = np.hypot(x[None, :] - x[:, None], y[None, :] - y[:, None])
            lower = gap - (move[None, :] + move[:, None])
        near = ~(np.isfinite(lower) & (lower > self.reach))
        np.fill_diagonal(near, False)
        cols = near.nonzero()[1].tolist()
        ends = near.sum(axis=1).cumsum().tolist()
        rows = [cols[a:b] for a, b in zip([0] + ends, ends)]
        prev = self.lists[k - 1] if k > 0 else None
        if prev is not None:
            rows = [old if old == row else row for old, row in zip(prev, rows)]
        return rows


def _radio_index(scenario: Scenario) -> _RadioIndex:
    """The scenario's _RadioIndex, made on first use. It is kept in the
    scenario's own attribute dict, as functools.cached_property keeps a
    value, so every run on one Scenario object shares its lists and they
    go when the scenario goes."""
    index = scenario.__dict__.get("_radio_index")
    if index is None:
        index = scenario.__dict__["_radio_index"] = _RadioIndex(scenario.trace, scenario.radio_range)
    return index


# event kinds, dispatched by tag
_EV_HELLO = 0
_EV_TC = 1
_EV_CBR = 2
_EV_DATA = 3


class _Simulation:
    def __init__(
        self,
        scenario: Scenario,
        config: OlsrConfig,
        nic: NicProfile,
        seed: int,
        on_transmit,
    ):
        self.scenario = scenario
        self.config = config
        self.on_transmit = on_transmit

        self.nodes = list(scenario.trace.node_ids)
        self.index = {n: i for i, n in enumerate(self.nodes)}
        self.states = {n: OlsrNodeState(node_id=n) for n in self.nodes}
        self.radio = _radio_index(scenario)
        self.range2 = scenario.radio_range**2

        # jitter streams are keyed by each vehicle's initial position so
        # behaviour does not depend on how node ids were assigned
        seen_pos: dict = {}
        self.hello_rng = {}
        self.tc_rng = {}
        for n in self.nodes:
            x0, y0 = position_at(scenario.trace, n, 0.0)
            rank = seen_pos.get((x0, y0), 0)
            seen_pos[(x0, y0)] = rank + 1
            self.hello_rng[n] = derive_rng(seed, "jitter", "hello", x0, y0, rank)
            self.tc_rng[n] = derive_rng(seed, "jitter", "tc", x0, y0, rank)
        self.loss_rng = derive_rng(seed, "loss")
        self.lossy = scenario.loss_model.kind == "bernoulli"
        self.p_max = scenario.loss_model.p_at_max_range
        # no in-range node's loss threshold is above this
        self.cut = self.p_max * math.sqrt(self.range2) / scenario.radio_range
        # (send energy, receive energy, airtime) of a frame, once per size
        self._frame_cost = cache(partial(frame_cost, nic, bandwidth=scenario.bandwidth))

        self.heap: list = []
        self._seq = 0

        # per node index; _metrics keys them by node id
        self.e_sent = [0.0] * len(self.nodes)
        self.e_recv = [0.0] * len(self.nodes)
        self.control_tx = 0
        self.data_sent = 0
        self.data_delivered = 0
        self.hops_sum = 0
        self.delay_sum = 0.0

        self.hello_period = olsr.hello_emission_interval(config)
        self.tc_period = config.tc_interval

        for n in self.nodes:
            self._schedule_tick(_EV_HELLO, n, 0)
            self._schedule_tick(_EV_TC, n, 0)
        for flow in scenario.flows:  # packet i is numbered self._seq + 1 + i
            count = flow.packet_count
            if count:
                heapq.heappush(self.heap, (flow.start, self._seq + 1, _EV_CBR, (flow, 0, count)))
            self._seq += count

    def _push(self, t: float, kind: int, payload):
        self._seq += 1
        heapq.heappush(self.heap, (t, self._seq, kind, payload))

    def _schedule_tick(self, kind: int, node: int, k: int):
        """Queue periodic emission k for `node`; jitter in [0, period/4).

        The jitter draw happens per tick whether or not anything ends up
        on the air, so emission instants are a fixed function of the
        period: larger intervals can never emit more often.
        """
        if kind == _EV_HELLO:
            period, rng = self.hello_period, self.hello_rng[node]
        else:
            period, rng = self.tc_period, self.tc_rng[node]
        t = k * period + rng.random() * period / 4.0
        if t <= self.scenario.sim_duration:
            self._push(t, kind, (node, k))

    def _transmit(self, sender: int, size_bits: int, cost: tuple, t: float):
        """Put one frame of `size_bits` on the air, priced `cost` by
        frame_cost, in one pass over the sender's candidates: the sender
        pays send energy, every node that hears it receive energy.
        Returns the receiving node ids."""
        xs, ys, candidates = self.radio.at(t)
        i = self.index[sender]
        xi, yi = xs[i], ys[i]
        range2, lossy, cut, nodes = self.range2, self.lossy, self.cut, self.nodes
        p_max, radio_range, draw = self.p_max, self.scenario.radio_range, self.loss_rng.random
        sqrt = math.sqrt
        e_send, e_recv, _airtime = cost
        self.e_sent[i] += e_send
        ledger = self.e_recv
        heard = []
        # under loss, one draw per in-range node other than the sender, in
        # index order; a draw r >= cut cannot lose the frame
        for j in candidates[i]:
            dx = xs[j] - xi
            dy = ys[j] - yi
            d2 = dx * dx + dy * dy
            if d2 <= range2 and not (
                lossy and (r := draw()) < cut and r < p_max * sqrt(d2) / radio_range
            ):
                ledger[j] += e_recv
                heard.append(nodes[j])
        if self.on_transmit is not None:
            self.on_transmit(sender, size_bits, tuple(heard), t)
        return heard

    def _broadcast(self, msg, t: float):
        """Put a Hello or Tc on the air. Returns the receiving node ids."""
        self.control_tx += 1
        size_bits = msg.size * 8
        return self._transmit(msg.sender, size_bits, self._frame_cost(size_bits), t)

    def _flood(self, msg: Tc, t: float):
        """Broadcast a TC and run the synchronous flood: receptions are
        processed FIFO at the same instant, and MPR forwarders re-broadcast
        within the cascade."""
        queue = deque((r, msg) for r in self._broadcast(msg, t))
        while queue:
            node, m = queue.popleft()
            fwd = olsr.receive_tc(self.states[node], m, t, self.config)
            if fwd is not None:
                queue.extend((r, fwd) for r in self._broadcast(fwd, t))

    def _send_data(self, node: int, dest: int, size_bytes: int, origin_t: float, hops: int, t: float):
        route = olsr.routes(self.states[node], t).get(dest)
        if route is None:
            return  # no route: the packet dies here
        next_hop = route[0]
        size_bits = size_bytes * 8
        cost = self._frame_cost(size_bits)
        if next_hop not in self._transmit(node, size_bits, cost, t):
            return  # next hop moved away or lost the frame
        arrival = t + cost[2] + PROCESSING_DELAY_S
        self._push(arrival, _EV_DATA, (next_hop, dest, size_bytes, origin_t, hops + 1))

    def run(self) -> SimMetrics:
        duration = self.scenario.sim_duration
        heap = self.heap
        while heap:
            t, _seq, kind, payload = heapq.heappop(heap)
            if t > duration:
                break
            if kind == _EV_HELLO:
                node, k = payload
                hello = olsr.next_hello(self.states[node], t, self.config)
                for r in self._broadcast(hello, t):  # one hop, never forwarded
                    olsr.receive_hello(self.states[r], hello, t, self.config)
                self._schedule_tick(_EV_HELLO, node, k + 1)
            elif kind == _EV_TC:
                node, k = payload
                tc = olsr.next_tc(self.states[node], t, self.config)
                if tc is not None:
                    self._flood(tc, t)
                self._schedule_tick(_EV_TC, node, k + 1)
            elif kind == _EV_CBR:
                flow, i, count = payload
                if i + 1 < count:
                    t_next = flow.start + (i + 1) / flow.rate
                    heapq.heappush(heap, (t_next, _seq + 1, _EV_CBR, (flow, i + 1, count)))
                self.data_sent += 1
                self._send_data(flow.source, flow.destination, flow.packet_size, t, 0, t)
            else:  # _EV_DATA
                node, dest, size_bytes, origin_t, hops = payload
                if node == dest:
                    self.data_delivered += 1
                    self.hops_sum += hops
                    self.delay_sum += t - origin_t
                elif hops < MAX_HOPS:
                    self._send_data(node, dest, size_bytes, origin_t, hops, t)
        return self._metrics()

    def _metrics(self) -> SimMetrics:
        ledger = EnergyLedger(
            per_node_sent=dict(zip(self.nodes, self.e_sent)),
            per_node_recv=dict(zip(self.nodes, self.e_recv)),
        )
        pdr = None
        if self.data_sent > 0:
            pdr = 100.0 * self.data_delivered / self.data_sent
        delivered = self.data_delivered
        return SimMetrics(
            pdr=pdr,
            e2ed_ms=1000.0 * self.delay_sum / delivered if delivered else None,
            nrl=100.0 * self.control_tx / delivered if delivered else None,
            hops=self.hops_sum / delivered if delivered else None,
            energy=ledger,
            data_sent=self.data_sent,
            data_delivered=delivered,
            control_tx=self.control_tx,
        )


def run_simulation(
    scenario: Scenario,
    config: OlsrConfig,
    nic: NicProfile,
    seed: int,
    *,
    allow_no_flows: bool = False,
    on_transmit=None,
) -> SimMetrics:
    """Simulate `scenario` under `config` and return the run's metrics.

    Deterministic: the same (scenario, config, nic, seed) always yields
    the same SimMetrics. `on_transmit(sender, size_bits, receivers, t)`
    is an observation hook for tests and tracing.
    """
    if not scenario.flows and not allow_no_flows:
        raise ConfigurationError("no data flows (pass allow_no_flows to run control-only)")
    sim = _Simulation(scenario, config, nic, seed, on_transmit)
    return sim.run()


def routing_snapshot(
    scenario: Scenario,
    config: OlsrConfig,
    nic: NicProfile,
    seed: int,
) -> dict:
    """Run the control plane for the scenario's full duration and return
    every node's routing table as {node: {dest: (next_hop, hops)}}."""
    sim = _Simulation(scenario, config, nic, seed, None)
    sim.run()
    return {
        node: dict(olsr.routes(state, scenario.sim_duration)) for node, state in sim.states.items()
    }
