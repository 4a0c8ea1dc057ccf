"""Discrete-event VANET simulation with per-packet energy accounting.

Nodes run the OLSR state machine over an ideal broadcast medium (unit
disk, optional distance-scaled Bernoulli loss, no MAC contention).
Every transmission charges the sender its send energy and every in-range
node the receive energy, data or control alike. Data packets travel
hop-by-hop along the routing tables. Every control frame, HELLO or TC,
takes one path, _flood: a FIFO of frames at one instant, each counted
in control_tx, priced, put on the air and applied to the states of its
receivers in radio order, whose relays (a TC's, by the MPR rule) join
the queue, as in RFC 3626 section 3.4. That is the same as applying
each reception in turn and sending each relay at once: the frames go
on the air in the same breadth-first order, and no receive entry
touches the radio model or the loss stream, so no loss draw, ledger
addition or on_transmit call moves. Runs are fully deterministic in
(scenario, config, nic, seed) and independent of host scheduling.

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
  distance less both moves, so a list never drops a receiver. Nor do
  they get farther apart than their start distance plus both moves, so
  j goes on the list as ~j, surely in range, when hypot(start offset)
  + (|move_i| + |move_j|) is finite and below radio_range - margin: ~j
  is in i's range at every instant of the interval, so its distance is
  computed only for a loss threshold. Otherwise every other node is a
  candidate. An interval's lists are built when a run first reaches it
  and live as long as the Scenario object, so every run on that object
  shares them;
- under bernoulli loss, every in-range node other than the sender, in
  node-index order, takes exactly one draw r = loss_rng.random() from
  the run's derive_rng(seed, "loss") stream and loses the frame when
  r < p_at_max_range * sqrt(d2) / radio_range. A draw r >= cut, where
  cut = p_at_max_range * sqrt(radio_range**2) / radio_range is set once
  per run, skips the sqrt: correctly rounded sqrt, * and / are monotone,
  so no in-range node's threshold is above cut. The draw is still taken,
  so the loss stream does not change;
- frame_cost(nic, size_bits, scenario.bandwidth) prices a frame: the
  sender pays its send energy, every receiver its receive energy, and a
  data frame arrives its airtime plus the processing delay later. The
  loop that decides who hears a frame also charges them, so each frame
  takes one pass over the candidates.

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

A CBR packet and a relayed data packet take the same hop block in run:
route lookup, one transmission, and, if the next hop heard it, a data
event at the next hop. A packet is priced once, at its source; each hop
event carries that frame cost, so a relay does not price it again. A
packet that has made MAX_HOPS hops is dropped.
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
from .olsr import OlsrConfig, OlsrNodeState
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


# One entry per metric, in column order: (name, getter).
_METRIC_FIELDS = tuple(
    (name, attrgetter(path))
    for name, path in (
        ("pdr", "pdr"),
        ("e2ed_ms", "e2ed_ms"),
        ("nrl", "nrl"),
        ("hops", "hops"),
        ("e_sent_mj", "energy.e_sent"),
        ("e_recv_mj", "energy.e_recv"),
        ("e_total_mj", "energy.e_total"),
        ("e_total_per_vehicle_mj", "energy.e_total_per_vehicle"),
        ("data_sent", "data_sent"),
        ("data_delivered", "data_delivered"),
        ("control_tx", "control_tx"),
    )
)

METRICS_COLUMNS = ("scenario_id", "config_id", "seed") + tuple(f[0] for f in _METRIC_FIELDS)


def metrics_to_json(metrics: SimMetrics) -> dict:
    """Each metric by name, in METRICS_COLUMNS order; None where undefined."""
    return {name: get(metrics) for name, get in _METRIC_FIELDS}


# Two points moving linearly stay within their start distance plus or
# minus both moves. Both bounds are moved outward by this share of the
# coordinates' magnitude plus the range, many times the few float64
# roundings in them.
_MARGIN_SHARE = 2.0**-30


class _RadioIndex:
    """Positions and candidate receivers of one scenario, for any time.

    On a shared time grid (every generated trace) it keeps one (2, n)
    snapshot per sample and its difference to the next (0 from the last
    sample on), so a position is xy[k] + f * dxy[k] as in position_at,
    and one candidate list per node and sample interval, by the module
    docstring's rule: j, or ~j when surely in range, taken from one
    table of both so the lists share their int objects. A move is the
    hypot of a dxy[k] column. An interval's lists are built when a run
    first reaches it and kept; a row equal to the previous interval's is
    that same list object. An irregular trace falls back to per-node
    position_at, every other node a candidate.
    """

    def __init__(self, trace: MobilityTrace, radio_range: float):
        self.trace = trace
        self.node_ids = list(trace.node_ids)
        per_node = trace._per_node
        times0 = per_node[self.node_ids[0]][0]
        self.shared = all(per_node[n][0] == times0 for n in self.node_ids)
        n = len(self.node_ids)
        if self.shared:
            self.times = [float(x) for x in times0]
            rows = [[per_node[n][axis] for n in self.node_ids] for axis in (1, 2)]
            xy = np.asarray(rows, dtype=float).transpose(2, 0, 1).copy()  # (samples, 2, n)
            self.xy = list(xy)
            self.dxy = list(np.diff(xy, axis=0, append=xy[-1:]))
            self.lists = [None] * len(self.times)
            mag = float(np.abs(xy).max())
            margin = _MARGIN_SHARE * (mag + radio_range)
            self.reach = radio_range + margin
            self.inner = radio_range - margin
            # candidate j as it goes on a list: j, or ~j when surely in range
            self.codes = np.array([*range(n), *(~j for j in range(n))], dtype=object)
        else:
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
        # an overflow gives inf or nan, which keeps the pair and marks it
        # not surely in range
        with np.errstate(over="ignore", invalid="ignore"):
            move = np.hypot(*self.dxy[k])
            gap = np.hypot(x[None, :] - x[:, None], y[None, :] - y[:, None])
            lower = gap - (move[None, :] + move[:, None])
            upper = gap + (move[None, :] + move[:, None])
        near = ~(np.isfinite(lower) & (lower > self.reach))
        np.fill_diagonal(near, False)
        sure = np.isfinite(upper) & (upper < self.inner)
        cols = self.codes[near.nonzero()[1] + len(x) * sure[near]].tolist()
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

        self.nodes = list(scenario.trace.node_ids)
        self.index = {n: i for i, n in enumerate(self.nodes)}
        self.states = {n: OlsrNodeState(node_id=n) for n in self.nodes}
        self.radio = _radio_index(scenario)
        self.range2 = scenario.radio_range**2

        # jitter streams are keyed by each vehicle's initial position so
        # behaviour does not depend on how node ids were assigned
        seen_pos: dict = {}
        hello_rng = {}
        tc_rng = {}
        for n in self.nodes:
            x0, y0 = position_at(scenario.trace, n, 0.0)
            rank = seen_pos.get((x0, y0), 0)
            seen_pos[(x0, y0)] = rank + 1
            hello_rng[n] = derive_rng(seed, "jitter", "hello", x0, y0, rank)
            tc_rng[n] = derive_rng(seed, "jitter", "tc", x0, y0, rank)
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
        # what _transmit reads on every frame, fixed for the run
        self._air = (
            self.radio, self.index, self.range2, self.lossy, self.cut, self.nodes, self.p_max,
            scenario.radio_range, self.loss_rng.random, math.sqrt, self.e_sent, self.e_recv,
            on_transmit,
        )

        # per tick kind: period, jitter streams, make and receive entries (bound now: patches apply)
        self.ticks = {
            _EV_HELLO: (olsr.hello_emission_interval(config), hello_rng, olsr.next_hello,
                        olsr.receive_hello),
            _EV_TC: (config.tc_interval, tc_rng, olsr.next_tc, olsr.receive_tc),
        }

        for n in self.nodes:
            for kind in self.ticks:  # a HELLO tick, then a TC tick
                self._schedule_tick(kind, n, 0)
        for flow in scenario.flows:  # packet i is numbered self._seq + 1 + i
            count = flow.packet_count
            if count:
                heapq.heappush(self.heap, (flow.start, self._seq + 1, _EV_CBR, (flow, 0, count)))
            self._seq += count

    def _schedule_tick(self, kind: int, node: int, k: int):
        """Queue periodic emission k for `node`; jitter in [0, period/4).

        The jitter draw happens per tick whether or not anything ends up
        on the air, so emission instants are a fixed function of the
        period: larger intervals can never emit more often.
        """
        period, rngs, _make, _receive = self.ticks[kind]
        t = k * period + rngs[node].random() * period / 4.0
        if t <= self.scenario.sim_duration:
            self._seq += 1
            heapq.heappush(self.heap, (t, self._seq, kind, (node, k)))

    def _transmit(self, sender: int, size_bits: int, cost: tuple, t: float):
        """Put one frame of `size_bits` on the air, priced `cost` by
        frame_cost, in one pass over the sender's candidates: the sender
        pays send energy, every node that hears it receive energy.
        Returns the receiving node ids."""
        (radio, index, range2, lossy, cut, nodes, p_max, radio_range, draw, sqrt, sent, ledger,
         on_transmit) = self._air
        # flows are synchronised: most frames go out at the radio's last instant
        xs, ys, candidates = radio._at if t == radio._t else radio.at(t)
        i = index[sender]
        xi, yi = xs[i], ys[i]
        e_send, e_recv, _airtime = cost
        sent[i] += e_send
        heard = []
        # under loss, one draw per in-range node other than the sender, in
        # index order; a draw r >= cut cannot lose the frame
        for j in candidates[i]:
            if j < 0:  # ~j is surely in range: no distance unless the draw needs it
                j = ~j
                if lossy and (r := draw()) < cut:
                    dx = xs[j] - xi
                    dy = ys[j] - yi
                    if r < p_max * sqrt(dx * dx + dy * dy) / radio_range:
                        continue
            else:
                dx = xs[j] - xi
                dy = ys[j] - yi
                d2 = dx * dx + dy * dy
                # not <=, so a nan distance is out of range
                if not d2 <= range2 or (
                    lossy and (r := draw()) < cut and r < p_max * sqrt(d2) / radio_range
                ):
                    continue
            ledger[j] += e_recv
            heard.append(nodes[j])
        if on_transmit is not None:
            on_transmit(sender, size_bits, tuple(heard), t)
        return heard

    def _flood(self, msg, receive, t: float):
        """Put a HELLO or TC on the air at t and run its flood, by the module
        docstring's rule: `receive` applies each frame and returns its relays."""
        states, config, transmit, price = self.states, self.config, self._transmit, self._frame_cost
        queue = deque([msg])
        while queue:
            msg = queue.popleft()
            self.control_tx += 1
            size_bits = msg.size * 8
            heard = transmit(msg.sender, size_bits, price(size_bits), t)
            queue.extend(receive([states[r] for r in heard], msg, t, config))

    def run(self) -> SimMetrics:
        duration = self.scenario.sim_duration
        heap, states, config, ticks = self.heap, self.states, self.config, self.ticks
        heappop, heappush = heapq.heappop, heapq.heappush
        routes, transmit, price = olsr.routes, self._transmit, self._frame_cost
        while heap:
            t, seq, kind, payload = heappop(heap)
            if t > duration:
                break
            if kind == _EV_DATA:
                node, dest, size_bits, cost, origin_t, hops = payload
                if node == dest:
                    self.data_delivered += 1
                    self.hops_sum += hops
                    self.delay_sum += t - origin_t
                    continue
                if hops >= MAX_HOPS:
                    continue
            elif kind == _EV_CBR:
                flow, i, count = payload
                if i + 1 < count:
                    t_next = flow.start + (i + 1) / flow.rate
                    heappush(heap, (t_next, seq + 1, _EV_CBR, (flow, i + 1, count)))
                self.data_sent += 1
                node, dest, origin_t, hops = flow.source, flow.destination, t, 0
                size_bits = flow.packet_size * 8
                cost = price(size_bits)
            else:  # _EV_HELLO or _EV_TC
                node, k = payload
                _period, _rngs, make, receive = ticks[kind]
                msg = make(states[node], t, config)
                if msg is not None:  # next_tc gives None while no node selected this one
                    self._flood(msg, receive, t)
                self._schedule_tick(kind, node, k + 1)
                continue
            # one data hop, from a CBR source or a relay
            route = routes(states[node], t).get(dest)
            if route is None:
                continue  # no route: the packet dies here
            next_hop = route[0]
            if next_hop not in transmit(node, size_bits, cost, t):
                continue  # next hop moved away or lost the frame
            self._seq += 1
            heappush(heap, (t + cost[2] + PROCESSING_DELAY_S, self._seq, _EV_DATA,
                            (next_hop, dest, size_bits, cost, origin_t, hops + 1)))
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
