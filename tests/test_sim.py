"""End-to-end simulator behaviour on small controlled scenarios."""

import copy
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import olsrtune

from conftest import (
    assert_expiry_order,
    assert_hello_fresh,
    assert_providers_fresh,
    line_positions,
    make_static_scenario,
)
from olsrtune import olsr
from olsrtune.analysis import compare_against_reference
from olsrtune.errors import ConfigurationError
from olsrtune.olsr import GENE_NAMES, decode_genome, default_param_space, rfc_default
from olsrtune.scenario import (
    CbrFlow,
    FlowTemplate,
    GridSpec,
    LossModel,
    MobilityTrace,
    Scenario,
    generate_grid_scenario,
    position_at,
    relabel_scenario,
)
from olsrtune.seeding import derive_rng
from olsrtune.sim import (
    MAX_HOPS,
    _RadioIndex,
    _Simulation,
    default_nic,
    frame_cost,
    metrics_to_json,
    routing_snapshot,
    run_simulation,
)

NIC = default_nic()
CFG = rfc_default()


class TestBasicDelivery:
    def test_pair_delivers_everything(self, pair_flow):
        m = run_simulation(pair_flow, CFG, NIC, seed=1)
        assert m.data_sent == 10
        assert m.data_delivered == 10
        assert m.pdr == 100.0
        assert m.hops == 1.0

    def test_pair_delay_is_airtime_plus_processing(self, pair_flow):
        m = run_simulation(pair_flow, CFG, NIC, seed=1)
        expected_ms = (512 * 8 / 6e6 + 0.002) * 1000.0
        assert m.e2ed_ms == pytest.approx(expected_ms, rel=1e-9)

    def test_chain_routes_two_hops(self, chain3):
        m = run_simulation(chain3, CFG, NIC, seed=1)
        assert m.pdr == 100.0
        assert m.hops == 2.0
        assert m.data_sent == 40

    def test_partitioned_network_delivers_nothing(self):
        scn = make_static_scenario(
            {0: (0.0, 0.0), 1: (1000.0, 0.0)},
            radio_range=100.0,
            flows=(CbrFlow(source=0, destination=1, packet_size=64, rate=1.0,
                           start=10.0, duration=10.0),),
        )
        m = run_simulation(scn, CFG, NIC, seed=1)
        assert m.pdr == 0.0
        assert m.e2ed_ms is None and m.hops is None

    def test_routing_loop_ends_at_the_hop_limit(self, monkeypatch):
        # 0 and 1 hear each other and route to the unreachable 2 through
        # each other: the packet bounces until it has made MAX_HOPS hops
        scn = make_static_scenario(
            {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (1000.0, 0.0)},
            radio_range=150.0,
            flows=(CbrFlow(source=0, destination=2, packet_size=1000, rate=1.0,
                           start=10.0, duration=1.0),),
        )
        monkeypatch.setattr(olsr, "routes", lambda state, now: {2: (1 - state.node_id, 2)})
        data = []
        m = run_simulation(
            scn, CFG, NIC, seed=1,
            on_transmit=lambda s, bits, rcv, t: bits == 8000 and data.append((s, rcv)),
        )
        assert m.data_sent == 1 and m.data_delivered == 0
        assert len(data) == MAX_HOPS
        assert data[:2] == [(0, (1,)), (1, (0,))]

    def test_nrl_is_control_per_delivered(self, pair_flow):
        m = run_simulation(pair_flow, CFG, NIC, seed=1)
        assert m.nrl == pytest.approx(100.0 * m.control_tx / m.data_delivered)


class TestFlowsGuard:
    def test_no_flows_rejected(self):
        scn = make_static_scenario({0: (0.0, 0.0), 1: (50.0, 0.0)})
        with pytest.raises(ConfigurationError):
            run_simulation(scn, CFG, NIC, seed=1)

    def test_allow_no_flows(self):
        scn = make_static_scenario({0: (0.0, 0.0), 1: (50.0, 0.0)})
        m = run_simulation(scn, CFG, NIC, seed=1, allow_no_flows=True)
        assert m.pdr is None
        assert m.control_tx > 0


class TestDeterminism:
    def test_same_seed_same_metrics(self, chain3):
        a = run_simulation(chain3, CFG, NIC, seed=5)
        b = run_simulation(chain3, CFG, NIC, seed=5)
        assert a == b

    def test_different_seed_changes_jitter(self):
        spec = GridSpec(area=(300.0, 300.0), vehicle_count=8, duration=40.0)
        scn = generate_grid_scenario(
            spec, 3, FlowTemplate(start=10.0, duration=20.0), seed=2, radio_range=200.0
        )
        a = run_simulation(scn, CFG, NIC, seed=1)
        b = run_simulation(scn, CFG, NIC, seed=2)
        assert a.energy.e_total != b.energy.e_total

    def test_node_relabeling_invariance(self):
        spec = GridSpec(area=(300.0, 300.0), vehicle_count=6, duration=30.0)
        scn = generate_grid_scenario(
            spec, 2, FlowTemplate(start=8.0, duration=15.0), seed=4, radio_range=250.0
        )
        mapping = {n: n + 100 for n in scn.trace.node_ids}
        relabeled = relabel_scenario(scn, mapping)
        a = run_simulation(scn, CFG, NIC, seed=9)
        b = run_simulation(relabeled, CFG, NIC, seed=9)
        assert a.pdr == b.pdr
        assert a.energy.e_total == pytest.approx(b.energy.e_total, rel=1e-12)
        assert a.control_tx == b.control_tx
        for n in scn.trace.node_ids:
            assert a.energy.per_node_sent[n] == pytest.approx(
                b.energy.per_node_sent[mapping[n]], rel=1e-12
            )


class TestEnergyAccounting:
    def test_ledger_consistent_with_hook(self, chain3):
        # energy, like airtime, is charged at the scenario's bandwidth
        for bandwidth in (6e6, 1e6):
            scn = replace(chain3, bandwidth=bandwidth)
            observed = []
            m = run_simulation(
                scn, CFG, NIC, seed=3,
                on_transmit=lambda s, bits, rcv, t: observed.append((s, bits, rcv)),
            )
            total = 0.0
            for _s, bits, rcv in observed:
                send, recv, _airtime = frame_cost(NIC, bits, bandwidth)
                total += send + len(rcv) * recv
            assert m.energy.e_total == pytest.approx(total, rel=1e-9)

    def test_frame_cost_computed_once_per_size(self, chain3):
        sizes = set()
        sim = _Simulation(chain3, CFG, NIC, 3, lambda s, bits, rcv, t: sizes.add(bits))
        sim.run()
        info = sim._frame_cost.cache_info()
        assert info.misses == info.currsize == len(sizes) > 1
        assert info.hits > info.misses

    def test_promiscuous_reception_charges_all_in_range(self):
        # 1 transmits; both 0 and 2 are in range and pay receive energy,
        # even for unicast data addressed to only one of them
        scn = make_static_scenario(
            line_positions(3),
            radio_range=120.0,
            flows=(CbrFlow(source=1, destination=2, packet_size=256, rate=1.0,
                           start=20.0, duration=5.0),),
        )
        m = run_simulation(scn, CFG, NIC, seed=1)
        assert m.energy.per_node_recv[0] > 0
        assert m.energy.per_node_recv[2] > 0

    def test_isolated_node_only_sends(self):
        scn = make_static_scenario({0: (0.0, 0.0)})
        m = run_simulation(scn, CFG, NIC, seed=1, allow_no_flows=True)
        assert m.energy.e_sent > 0
        assert m.energy.e_recv == 0.0

    def test_per_vehicle_average(self, pair_flow):
        m = run_simulation(pair_flow, CFG, NIC, seed=1)
        assert m.energy.e_total_per_vehicle == pytest.approx(m.energy.e_total / 2)


class TestLossModel:
    def scenario_with_loss(self, p):
        return make_static_scenario(
            {0: (0.0, 0.0), 1: (100.0, 0.0)},
            radio_range=100.0,  # receiver sits exactly at the range edge
            flows=(CbrFlow(source=0, destination=1, packet_size=64, rate=1.0,
                           start=10.0, duration=10.0),),
            loss=LossModel("bernoulli", p_at_max_range=p),
        )

    def test_certain_loss_at_edge(self):
        m = run_simulation(self.scenario_with_loss(1.0), CFG, NIC, seed=1)
        assert m.pdr == 0.0
        assert m.energy.e_recv == 0.0

    def test_zero_probability_equals_ideal(self):
        lossy = run_simulation(self.scenario_with_loss(0.0), CFG, NIC, seed=1)
        ideal = run_simulation(
            make_static_scenario(
                {0: (0.0, 0.0), 1: (100.0, 0.0)},
                radio_range=100.0,
                flows=(CbrFlow(source=0, destination=1, packet_size=64, rate=1.0,
                               start=10.0, duration=10.0),),
            ),
            CFG, NIC, seed=1,
        )
        assert lossy.pdr == ideal.pdr == 100.0

    def test_intermediate_probability_loses_some(self):
        m = run_simulation(self.scenario_with_loss(0.5), CFG, NIC, seed=1)
        assert m.pdr is not None and m.pdr < 100.0


class TestRoutingSnapshot:
    def test_chain_tables_are_bfs(self):
        scn = make_static_scenario(line_positions(4), duration=30.0, radio_range=120.0)
        tables = routing_snapshot(scn, CFG, NIC, seed=1)
        assert tables[0] == {1: (1, 1), 2: (1, 2), 3: (1, 3)}
        assert tables[3] == {2: (2, 1), 1: (2, 2), 0: (2, 3)}
        assert tables[1][3] == (2, 2)

    def test_disconnected_component_unreachable(self):
        scn = make_static_scenario(
            {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (500.0, 0.0)},
            duration=30.0, radio_range=100.0,
        )
        tables = routing_snapshot(scn, CFG, NIC, seed=1)
        assert 2 not in tables[0]
        assert tables[0] == {1: (1, 1)}


def first_receivers(scn, node=0):
    """Nodes that hear `node`'s first broadcast, as the simulator charges them."""
    heard = []

    def on_transmit(sender, _size_bits, receivers, _t):
        if sender == node and not heard:
            heard.append(set(receivers))

    run_simulation(scn, CFG, NIC, seed=1, allow_no_flows=True, on_transmit=on_transmit)
    return heard[0]


class TestNeighborsInRange:
    def test_inclusive_at_edge(self):
        scn = make_static_scenario(
            {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (100.1, 50.0)}, duration=5.0, radio_range=100.0
        )
        assert first_receivers(scn) == {1}

    def test_excludes_self(self):
        scn = make_static_scenario(
            {0: (0.0, 0.0), 1: (10.0, 0.0)}, duration=5.0, radio_range=100.0
        )
        assert first_receivers(scn) == {1}


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestPositionIndex:
    """_RadioIndex(trace, r).at(t) holds positions equal to
    scenario.position_at bit for bit."""

    def check_times(self, trace, times):
        index = _RadioIndex(trace, 50.0)
        for t in times:
            snap = index.at(t)
            xs, ys, _candidates = snap
            assert len(xs) == len(ys) == trace.node_count
            for j, node in enumerate(trace.node_ids):
                assert bits([xs[j], ys[j]]) == bits(position_at(trace, node, t)), (node, t)
            again = index.at(t)
            assert again is snap  # served from the cache
        return index

    def test_shared_grid(self):
        spec = GridSpec(area=(400.0, 300.0), vehicle_count=6, speed=(3.0, 9.0), duration=12.0)
        scn = generate_grid_scenario(spec, 0, FlowTemplate(), seed=7)
        samples = sorted({t for t, _n, _x, _y in scn.trace.samples})
        mids = [a + f * (b - a) for a, b in zip(samples, samples[1:]) for f in (0.1, 1 / 3, 0.77)]
        late = [samples[-1] + 0.25, samples[-1] + 40.0]
        index = self.check_times(scn.trace, samples + mids + late)
        assert index.shared

    def test_irregular_trace(self):
        trace = MobilityTrace(
            samples=(
                (0.0, 0, 1.5, 2.25),
                (0.0, 1, 100.1, 0.3),
                (0.0, 2, 7.0, 7.0),
                (0.7, 1, 90.7, 13.9),
                (1.3, 0, 11.1, 2.25),
                (2.9, 1, 60.2, 40.03),
                (4.0, 0, 3.3, 19.6),
            ),
        )
        times = [0.0, 0.7, 1.3, 2.9, 4.0, 0.35, 1.0, 1.9, 3.3, 3.999, 4.5, 60.0]
        index = self.check_times(trace, times)
        assert not index.shared


def reference_receivers(scn, seed, transmissions):
    """Replay every transmission through the radio model written as a plain
    per-node loop over position_at, with a twin of the run's loss stream.
    Returns each transmission's receivers, the per-node receive energy and
    the number of frames lost in range."""
    loss_rng = derive_rng(seed, "loss")
    nodes = list(scn.trace.node_ids)
    p_max = scn.loss_model.p_at_max_range
    out = []
    e_recv = {n: 0.0 for n in nodes}
    lost = 0
    for sender, size_bits, _receivers, t in transmissions:
        xi, yi = position_at(scn.trace, sender, t)
        heard = []
        for node in nodes:
            x, y = position_at(scn.trace, node, t)
            dx, dy = x - xi, y - yi
            d2 = dx * dx + dy * dy
            if d2 > scn.radio_range**2 or node == sender:
                continue
            if loss_rng.random() < p_max * math.sqrt(d2) / scn.radio_range:
                lost += 1
                continue
            heard.append(node)
        out.append(tuple(heard))
        for node in heard:
            e_recv[node] += frame_cost(NIC, size_bits, scn.bandwidth)[1]
    return out, e_recv, lost


class TestRadioModelReference:
    def test_lossy_multihop_matches_per_hit_loop(self):
        spec = GridSpec(area=(900.0, 600.0), vehicle_count=14, speed=(4.0, 10.0), duration=40.0)
        template = FlowTemplate(packet_size=256, rate=4.0, start=10.0, duration=25.0)
        scn = generate_grid_scenario(
            spec, 4, template, seed=11, radio_range=260.0, loss_model=LossModel("bernoulli", 0.4)
        )
        seen = []
        m = run_simulation(scn, CFG, NIC, seed=5, on_transmit=lambda *call: seen.append(call))
        expected, e_recv, lost = reference_receivers(scn, 5, seen)
        assert [call[2] for call in seen] == expected
        assert m.energy.per_node_recv == e_recv
        # the scenario exercises what the contract covers
        assert m.hops is not None and m.hops > 1.0
        assert len(seen) > 500
        assert sum(map(len, expected)) > len(seen)
        assert lost > 100


def grid_trace_scenario(rng, scale, loss):
    """A random scenario whose trace samples every node on one time grid,
    with coordinates in units of `scale` (a power of two, so whole-unit
    offsets are exact). Node 1 keeps the offset (r, 0) from node 0 and
    node 2 the offset (3r/5, 4r/5), both exactly the range r; the others
    jump anywhere at every sample."""
    n = rng.randint(4, 9)
    r = rng.choice([150, 250, 400])
    times = [0.0]
    for _ in range(rng.randint(2, 6)):
        times.append(times[-1] + rng.choice([0.5, 1.0, rng.uniform(0.3, 3.0)]))
    samples = []
    a, b = rng.randint(0, 500), rng.randint(0, 500)
    for t in times:
        a, b = (a + rng.randint(-40, 40)) % 500, (b + rng.randint(-40, 40)) % 500
        points = [(a, b), (a + r, b), (a + 3 * r // 5, b + 4 * r // 5)]
        points += [(rng.uniform(0, 1400), rng.uniform(0, 1400)) for _ in range(n - 3)]
        samples += [(t, node, x * scale, y * scale) for node, (x, y) in enumerate(points)]
    return Scenario(area=(2000.0 * scale, 2000.0 * scale), trace=MobilityTrace(samples=tuple(samples)),
                    flows=(), radio_range=r * scale, bandwidth=6e6, sim_duration=times[-1] + 100.0,
                    loss_model=loss)


class TestCandidateLists:
    """_transmit over candidate lists hears what the per-node position_at loop hears."""

    @pytest.mark.parametrize("scale", [1.0, 2.0**490], ids=["metres", "2**490"])  # 2**490 is 3.2e147
    @pytest.mark.parametrize("loss", [LossModel("ideal"), LossModel("bernoulli", 0.5)])
    def test_equals_per_node_loop(self, scale, loss):
        rng = random.Random(f"{scale} {loss}")
        pruned = 0
        for _ in range(12):
            scn = grid_trace_scenario(rng, scale, loss)
            times = sorted({t for t, _n, _x, _y in scn.trace.samples})
            queries = times + [rng.uniform(0.0, times[-1]) for _ in range(12)]
            queries += [times[-1], times[-1] + 0.5, times[-1] + 99.0]
            calls = [(sender, 8, None, t) for t in queries for sender in scn.trace.node_ids]
            rng.shuffle(calls)  # out of time order, with intervals built out of turn
            sim = _Simulation(scn, CFG, NIC, 9, None)
            cost = sim._frame_cost(8)
            got = [tuple(sim._transmit(sender, 8, cost, t)) for sender, _bits, _r, t in calls]
            expected, _e_recv, _lost = reference_receivers(scn, 9, calls)
            assert got == expected
            lists = [row for rows in sim.radio.lists if rows is not None for row in rows]
            pruned += sum(len(scn.trace.node_ids) - 1 - len(row) for row in lists)
            # the pairs placed exactly at the range are heard, loss aside
            at_range = reference_receivers(replace(scn, loss_model=LossModel("ideal")), 9,
                                           [(0, 8, None, t) for t in times])[0]
            assert all({1, 2} <= set(heard) for heard in at_range)
        assert pruned > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("loss", [LossModel("ideal"), LossModel("bernoulli", 0.5)])
    def test_overflowing_bound_keeps_pairs(self, loss):
        # coordinates up to 1.5e308: starting offsets and moves whose hypot
        # overflows, with a co-located pair at each end of such a move
        top = 1.5e308
        far, origin = (top, top), (0.0, 0.0)
        paths = [
            [far, far, far, far],  # 0 and 1 never move and stay together
            [far, far, far, far],
            [origin, far, origin, (0.0, top)],  # 2 and 3 jump across the area together
            [origin, far, origin, (0.0, top)],
            [(0.0, top)] * 4,
            [origin] * 4,
        ]
        times = [0.0, 1.0, 2.5, 3.0]
        samples = tuple(sorted((t, node, x, y) for node, path in enumerate(paths)
                               for t, (x, y) in zip(times, path)))
        scn = Scenario(area=(1.6e308, 1.6e308), trace=MobilityTrace(samples=samples), flows=(),
                       radio_range=1e150, bandwidth=6e6, sim_duration=10.0, loss_model=loss)
        rng = random.Random(7)
        queries = times + [rng.uniform(0.0, 3.0) for _ in range(20)] + [3.5, 9.0]
        calls = [(sender, 8, None, t) for t in queries for sender in range(len(paths))]
        sim = _Simulation(scn, CFG, NIC, 9, None)
        cost = sim._frame_cost(8)
        got = [tuple(sim._transmit(sender, 8, cost, t)) for sender, _bits, _r, t in calls]
        assert got == reference_receivers(scn, 9, calls)[0]
        heard = Counter(pair for (sender, *_), receivers in zip(calls, got)
                        for pair in ((sender, r) for r in receivers))
        assert heard[(0, 1)] and heard[(2, 3)] and heard[(0, 2)] and heard[(5, 2)]
        # from the last sample on, 0 is still and 1.5e308 from 2, 3 and 4, which are
        # left off its list; its offset to 5 overflows, which keeps 5 on it
        assert sim.radio.lists[-1][0] == [1, 5]

    def test_static_pairs_at_the_range_edge(self):
        # 1 sits a hair past the range from 0, 2 exactly at it; nobody moves
        r = 250.0
        scn = make_static_scenario({0: (0.0, 0.0), 1: (r * (1 + 2.0**-40), 0.0), 2: (0.0, r)},
                                   radio_range=r)
        sim = _Simulation(scn, CFG, NIC, 9, None)
        cost = sim._frame_cost(8)
        for t in (0.0, 0.5, 7.25, 30.0):
            assert sim._transmit(0, 8, cost, t) == [2]
            assert sim._transmit(1, 8, cost, t) == []
            assert sim._transmit(2, 8, cost, t) == [0]

    def test_second_run_builds_no_list(self, monkeypatch):
        built = []
        build = _RadioIndex._build
        monkeypatch.setattr(_RadioIndex, "_build", lambda index, k: built.append(k) or build(index, k))
        # every node sends a HELLO in every 4 s sample interval, in both runs
        spec = GridSpec(area=(900.0, 600.0), vehicle_count=14, speed=(4.0, 10.0),
                        sample_step=4.0, duration=40.0)
        template = FlowTemplate(packet_size=256, rate=4.0, start=10.0, duration=25.0)
        scn = generate_grid_scenario(spec, 4, template, seed=11, radio_range=260.0)
        run_simulation(scn, CFG, NIC, seed=5)
        assert sorted(built) == list(range(10))
        run_simulation(scn, replace(CFG, hello_interval=3.0), NIC, seed=6)
        assert len(built) == 10

    def test_irregular_trace_digest(self):
        # nodes sampled at different times: every other node is a candidate
        samples = sorted((
            (0.0, 0, 10.0, 20.0), (0.0, 1, 120.0, 15.0), (0.0, 2, 230.0, 30.0),
            (0.0, 3, 330.0, 10.0), (0.0, 4, 60.0, 140.0), (0.0, 5, 400.0, 150.0),
            (3.5, 2, 250.5, 60.25), (4.0, 4, 110.0, 120.0), (7.25, 0, 40.0, 25.0),
            (9.0, 5, 350.0, 90.0), (11.0, 1, 150.0, 70.0), (12.5, 3, 300.0, 40.0),
            (14.0, 2, 210.0, 100.0), (18.0, 4, 170.0, 60.0), (21.5, 0, 90.0, 10.0),
            (25.0, 5, 420.0, 20.0), (27.0, 1, 130.0, 30.0), (31.75, 3, 360.0, 120.0),
            (34.0, 2, 240.0, 20.0),
        ))
        flows = (
            CbrFlow(source=0, destination=3, packet_size=256, rate=4.0, start=8.0, duration=30.0),
            CbrFlow(source=5, destination=4, packet_size=128, rate=2.0, start=10.0, duration=25.0),
        )
        scn = Scenario(area=(450.0, 160.0), trace=MobilityTrace(samples=tuple(samples)), flows=flows,
                       radio_range=140.0, bandwidth=6e6, sim_duration=40.0,
                       loss_model=LossModel("bernoulli", 0.3))
        m = run_simulation(scn, CFG, NIC, seed=4)
        text = json.dumps(metrics_to_json(m), sort_keys=True, separators=(",", ":"))
        # recorded with the radio model that computed every distance with NumPy
        digest = "091f38e87a322180ed3c6d472f09b9f0a0c08b6ebe912b75306136945a1e09e4"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert m.hops > 2.0 and 0 < m.data_delivered < m.data_sent


def tie_scenario():
    """A lossy 7-node chain whose flows make exact time ties:
    a rate-4 flow listed first, then three rate-2 flows with its start
    (two from one source), so every rate-2 packet ties with a rate-4
    packet that is numbered first but queued last, and a flow of
    duration 0 that sends nothing."""

    def flow(source, destination, rate, start=10.0, duration=20.0):
        return CbrFlow(source=source, destination=destination, packet_size=128,
                       rate=rate, start=start, duration=duration)

    flows = (flow(1, 4, 4.0), flow(0, 3, 2.0), flow(0, 5, 2.0), flow(6, 2, 2.0),
             flow(5, 1, 3.0, start=12.0, duration=0.0))
    return make_static_scenario(line_positions(7), duration=40.0, radio_range=120.0,
                                flows=flows, loss=LossModel("bernoulli", 0.3))


# sha256 of the tie scenario's on_transmit sequence, recorded when every
# CBR packet was put on the event queue before the run started
TIE_ORDER_DIGEST = "7a18ae52842793b9efc7d2098cbf48dedfa775a05dee756099e95dd1f562435f"


class TestEventOrder:
    def test_exact_time_ties_keep_their_order(self):
        seen = []
        m = run_simulation(tie_scenario(), CFG, NIC, seed=3,
                           on_transmit=lambda *call: seen.append(call))
        calls = [[t, sender, size_bits, list(receivers)]
                 for sender, size_bits, receivers, t in seen]
        digest = hashlib.sha256(json.dumps(calls).encode()).hexdigest()
        assert digest == TIE_ORDER_DIGEST
        # the scenario exercises what the test covers
        assert m.data_sent == 3 * 40 + 80
        assert 0 < m.data_delivered < m.data_sent
        assert m.hops > 2.0

    def test_queue_holds_one_pending_packet_per_flow(self):
        # the multihop_data benchmark's shape: 40 vehicles, 20 flows of
        # 1,800 packets each
        spec = GridSpec(area=(1000.0, 700.0), streets=(5, 5), vehicle_count=40,
                        speed=(2.0, 6.0), duration=120.0)
        template = FlowTemplate(packet_size=512, rate=20.0, start=20.0, duration=90.0)
        scn = generate_grid_scenario(spec, 20, template, seed=2, radio_range=300.0,
                                     loss_model=LossModel("bernoulli", 0.1))
        assert sum(f.packet_count for f in scn.flows) == 36_000
        sim = _Simulation(scn, CFG, NIC, 2, None)
        assert len(sim.heap) <= 2 * len(sim.nodes) + len(scn.flows)


def filter_run(k):
    """Run k of the forwarding-path checks: mobile for k % 4 < 2, else
    static; lossy for odd k; a random config (willingness above 0, so
    TCs flow) from k = 10 on; node ids relabelled for k % 3 == 0."""
    rng = random.Random(f"forwarding path {k}")
    n = rng.randint(8, 12)
    loss = LossModel("bernoulli", rng.uniform(0.1, 0.5)) if k % 2 else LossModel("ideal")
    radio_range = rng.uniform(200.0, 300.0)
    template = FlowTemplate(packet_size=128, rate=1.0, start=10.0, duration=70.0)
    if k % 4 < 2:
        spec = GridSpec(area=(700.0, 500.0), streets=(3, 3), vehicle_count=n, speed=(5.0, 15.0),
                        pause_time=1.0, duration=90.0)
        scn = generate_grid_scenario(spec, 3, template, seed=k, radio_range=radio_range,
                                     loss_model=loss)
    else:
        positions = {i: (rng.uniform(0.0, 700.0), rng.uniform(0.0, 500.0)) for i in range(n)}
        flows = [CbrFlow(source=a, destination=b, packet_size=128, rate=1.0, start=10.0, duration=70.0)
                 for a, b in (rng.sample(range(n), 2) for _ in range(3))]
        scn = make_static_scenario(positions, duration=90.0, radio_range=radio_range, flows=flows,
                                   loss=loss)
    if k % 3 == 0:
        ids = sorted(scn.trace.node_ids)
        scn = relabel_scenario(scn, dict(zip(ids, rng.sample(range(100, 200), len(ids)))))
    config = CFG
    if k >= 10:
        space = default_param_space()
        genes = [rng.uniform(lo, hi) for lo, hi in space.bounds]
        genes[GENE_NAMES.index("willingness")] = rng.uniform(0.5, 7.0)
        config = decode_genome(genes, space)
    return scn, config


class TestForwardingPath:
    """The route filter, the one-time TC processing and the loss cut
    leave every result exact."""

    @pytest.mark.parametrize("k", range(20))
    def test_clean_routes_equal_fresh_computation(self, k, monkeypatch):
        # at every routes() read, and after every receive_tc and expire
        # that leaves routes clean, the table equals compute_routes run on
        # a deep copy of the state
        checked = Counter()

        def check(name, entry, frame=False):
            def wrapper(first, *args):
                out = entry(first, *args)
                for state in first if frame else (first,):
                    if not state.routes_dirty:
                        fresh = copy.deepcopy(state)
                        olsr.compute_routes(fresh)
                        assert state.routing_table == fresh.routing_table
                        assert state.route_last_hop == fresh.route_last_hop
                        checked[name] += 1
                return out

            monkeypatch.setattr(olsr, name, wrapper)

        for name in ("routes", "expire"):
            check(name, getattr(olsr, name))
        check("receive_tc", olsr.receive_tc, frame=True)
        scn, config = filter_run(k)
        run_simulation(scn, config, NIC, seed=k)
        assert checked["routes"] > 0 and checked["receive_tc"] > 0 and checked["expire"] > 0

    @pytest.mark.parametrize("k", range(20))
    def test_runs_keep_the_entries_contract(self, k, monkeypatch):
        # the facts olsr's module docstring states as the entries' contract,
        # on the runs above: no node hears its own HELLO, every HELLO's
        # MPRs are among its symmetric neighbours, no topology record or
        # straggler dict holds the owner's id, (a) the links, each straggler
        # dict and the topology dict stay in expiry order, (d) a node
        # receives each TC key at one instant only and processes an
        # originator's seq_no only rising, and (e) every HELLO and every
        # link carries the run's willingness; and a kept MPR provider map
        # equals a fresh build
        checked = Counter()
        process_hello, process_tc = olsr.process_hello, olsr.process_tc
        receive_tc = olsr.receive_tc
        heard_at = {}  # (node, originator, seq_no) -> instant
        last_seq = {}  # (node, originator) -> seq_no

        def check_tables(state):
            me = state.node_id
            assert me not in state.topology
            assert all(me not in rec[0] for rec in state.topology.values())
            assert all(me not in nb.stragglers for nb in state.neighbors.values())
            assert_expiry_order(state)
            assert_providers_fresh(state)
            assert_hello_fresh(state)

        def checked_hello(states, msg, now, config):
            assert all(state.node_id != msg.sender for state in states)
            assert msg.mprs <= msg.adv
            assert msg.will == config.willingness
            process_hello(states, msg, now, config)
            for state in states:
                check_tables(state)
                # (e): every link stores the run's willingness
                assert all(nb.will == msg.will for nb in state.neighbors.values())
            checked["hello"] += 1

        def checked_tc(state, msg, now, config):
            pair = (state.node_id, msg.originator)
            assert msg.seq_no > last_seq.get(pair, 0)
            last_seq[pair] = msg.seq_no
            process_tc(state, msg, now, config)
            check_tables(state)
            checked["tc"] += 1

        def checked_receive(states, msg, now, config):
            for state in states:
                key = (state.node_id, msg.originator, msg.seq_no)
                assert heard_at.setdefault(key, now) == now
                checked["receive"] += 1
            return receive_tc(states, msg, now, config)

        monkeypatch.setattr(olsr, "process_hello", checked_hello)
        monkeypatch.setattr(olsr, "process_tc", checked_tc)
        monkeypatch.setattr(olsr, "receive_tc", checked_receive)
        scn, config = filter_run(k)
        run_simulation(scn, config, NIC, seed=k)
        assert checked["hello"] > 0 and checked["tc"] > 0 and checked["receive"] > 0

    def test_each_tc_processed_once_per_node(self, monkeypatch):
        processed = Counter()
        received = Counter()
        process_tc, receive_tc = olsr.process_tc, olsr.receive_tc

        def counted_process(state, msg, now, config):
            processed[state.node_id, msg.originator, msg.seq_no] += 1
            return process_tc(state, msg, now, config)

        def counted_receive(states, msg, now, config):
            for state in states:
                received[state.node_id, msg.originator, msg.seq_no] += 1
            return receive_tc(states, msg, now, config)

        monkeypatch.setattr(olsr, "process_tc", counted_process)
        monkeypatch.setattr(olsr, "receive_tc", counted_receive)
        spec = GridSpec(area=(900.0, 600.0), vehicle_count=14, speed=(4.0, 10.0), duration=40.0)
        template = FlowTemplate(packet_size=256, rate=4.0, start=10.0, duration=25.0)
        scn = generate_grid_scenario(
            spec, 4, template, seed=11, radio_range=260.0, loss_model=LossModel("bernoulli", 0.4)
        )
        run_simulation(scn, CFG, NIC, seed=5)
        assert max(processed.values()) == 1
        assert max(received.values()) > 1  # the run has repeated receptions to skip

    def test_loss_cut_bounds_every_in_range_threshold(self):
        # a draw r >= cut cannot lose a frame: for any d2 <= range2,
        # p_max * sqrt(d2) / radio_range <= cut in float64
        rng = random.Random("loss cut")
        base = make_static_scenario({0: (0.0, 0.0), 1: (1e-4, 0.0)})
        ranges = [1e-3, 1e150] + [10.0 ** rng.uniform(-3.0, 150.0) for _ in range(300)]
        for radio_range in ranges:
            p_max = rng.choice([0.0, 1.0, rng.random()])
            scn = replace(base, radio_range=radio_range, loss_model=LossModel("bernoulli", p_max))
            sim = _Simulation(scn, CFG, NIC, 0, None)
            range2 = sim.range2
            d2s = [0.0, range2, math.nextafter(range2, 0.0), range2 * rng.random() ** 8]
            d2s += [rng.uniform(0.0, range2) for _ in range(20)]
            for d2 in d2s:
                assert p_max * math.sqrt(d2) / radio_range <= sim.cut


class TestProviderUpkeep:
    def test_provider_map_built_once_per_node(self, monkeypatch):
        # the kept MPR provider map stays exact through link, willingness
        # and hood changes, so a dense mobile run builds it only when each
        # node's state is made
        built = Counter()
        build = olsr._build_providers

        def counted(state):
            built[state.node_id] += 1
            return build(state)

        monkeypatch.setattr(olsr, "_build_providers", counted)
        spec = GridSpec(area=(600.0, 400.0), vehicle_count=20, speed=(2.0, 6.0), duration=60.0)
        template = FlowTemplate(packet_size=512, rate=1.0, start=30.0, duration=20.0)
        scn = generate_grid_scenario(spec, 5, template, seed=4, radio_range=500.0)
        run_simulation(scn, CFG, NIC, seed=4)
        assert len(built) == 20 and max(built.values()) == 1


class TestHelloUpkeep:
    def test_settled_links_resend_the_kept_sets(self, monkeypatch):
        # every node hears every other and nothing moves, so once a node's
        # links are all symmetric none is added, turns symmetric or lapses:
        # each later HELLO carries the very objects of the one before
        positions = {i: (20.0 * i, 0.0) for i in range(6)}
        flow = CbrFlow(source=0, destination=5, packet_size=256, rate=1.0, start=10.0, duration=10.0)
        scn = make_static_scenario(positions, duration=40.0, flows=(flow,))
        make_hello = olsr.make_hello
        last = {}
        resent = Counter()

        def checked(state, config):
            msg = make_hello(state, config)
            prev = last.get(msg.sender)
            if prev is not None and len(prev.adv) == len(positions) - 1:
                assert msg.listed is prev.listed and msg.adv is prev.adv
                resent[msg.sender] += 1
            last[msg.sender] = msg
            return msg

        monkeypatch.setattr(olsr, "make_hello", checked)
        run_simulation(scn, CFG, NIC, seed=3)
        assert sorted(resent) == sorted(positions) and min(resent.values()) >= 10


class TestMetricsSerialization:
    def test_json_none_passthrough(self):
        scn = make_static_scenario({0: (0.0, 0.0), 1: (50.0, 0.0)})
        m = run_simulation(scn, CFG, NIC, seed=1, allow_no_flows=True)
        doc = metrics_to_json(m)
        assert doc["pdr"] is None
        assert doc["e_total_mj"] > 0


def test_compare_against_reference_self_is_zero_gap(pair_flow):
    m_cfg, m_rfc, gaps = compare_against_reference(pair_flow, CFG, NIC, seed=2)
    assert m_cfg == m_rfc
    assert gaps == (0.0, 0.0)


def test_importing_sim_does_not_load_analysis():
    # analysis builds on sim, never the other way round
    src = str(Path(olsrtune.__file__).resolve().parent.parent)
    code = "import sys, olsrtune.sim; sys.exit('olsrtune.analysis' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert out.returncode == 0
