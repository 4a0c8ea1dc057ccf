"""Shared builders and checks for the test suite: static topologies, tiny
scenarios, the expiry order of a node's OLSR tables, its kept MPR
provider map and its kept HELLO link sets."""

import pytest

from olsrtune.olsr import WILL_ALWAYS, WILL_NEVER
from olsrtune.scenario import CbrFlow, LossModel, MobilityTrace, Scenario


def make_static_scenario(
    positions,
    *,
    duration=60.0,
    radio_range=120.0,
    flows=(),
    bandwidth=6e6,
    loss=None,
):
    """Scenario whose nodes sit still at `positions` (node -> (x, y))."""
    samples = tuple(
        (0.0, node, float(x), float(y)) for node, (x, y) in sorted(positions.items())
    )
    xs = [x for x, _y in positions.values()]
    ys = [y for _x, y in positions.values()]
    area = (max(max(xs), 1.0), max(max(ys), 1.0))
    trace = MobilityTrace(samples=samples)
    return Scenario(
        area=area,
        trace=trace,
        flows=tuple(flows),
        radio_range=radio_range,
        bandwidth=bandwidth,
        sim_duration=duration,
        loss_model=loss or LossModel("ideal"),
    )


def line_positions(n, spacing=100.0):
    """n nodes on a line, each `spacing` meters apart."""
    return {i: (i * spacing, 0.0) for i in range(n)}


def assert_expiry_order(state):
    """The links, every straggler dict and the topology dict of an OLSR
    node state hold their entries in non-decreasing expiry order."""
    tables = [[nb.expiry for nb in state.neighbors.values()]]
    tables += [list(nb.stragglers.values()) for nb in state.neighbors.values()]
    tables.append([exp for _dests, exp in state.topology.values()])
    for expiries in tables:
        assert expiries == sorted(expiries)


def assert_providers_fresh(state):
    """A kept MPR provider map equals one built afresh from the neighbour
    records, each id's providers compared as a set, and lists no provider
    twice; the kept coverage counts equal a recount of the map's lists and
    hold no 0, the kept non-strict ids are our own and the symmetric
    neighbours', and the kept willingness-7 base is the symmetric
    neighbours of willingness WILL_ALWAYS."""
    nbrs = state.neighbors
    near = {n for n, nb in nbrs.items() if nb.sym} | {state.node_id}
    assert state.near == near
    assert state.always == {n for n, nb in nbrs.items() if nb.sym and nb.will == WILL_ALWAYS}
    fresh = {}
    for n, nb in nbrs.items():
        if nb.sym and nb.will != WILL_NEVER:
            for t in (nb.adv | nb.stragglers.keys()) - near:
                fresh.setdefault(t, set()).add(n)
    assert {t: set(ids) for t, ids in state.providers.items()} == fresh
    assert all(len(ids) == len(set(ids)) for ids in state.providers.values())
    recount = {}
    for ids in state.providers.values():
        for n in ids:
            recount[n] = recount.get(n, 0) + 1
    assert state.cover == recount


def assert_hello_fresh(state):
    """Kept HELLO link sets equal those built afresh: while last_listed is
    not None, it holds every neighbour and last_adv every symmetric one."""
    if state.last_listed is None:
        return
    assert state.last_listed == frozenset(state.neighbors)
    assert state.last_adv == frozenset(n for n, nb in state.neighbors.items() if nb.sym)


@pytest.fixture
def chain3():
    """0 - 1 - 2 chain: ends out of range of each other."""
    return make_static_scenario(
        line_positions(3),
        radio_range=120.0,
        flows=(CbrFlow(source=0, destination=2, packet_size=256, rate=2.0, start=20.0, duration=20.0),),
    )


@pytest.fixture
def pair_flow():
    """Two nodes in range with one flow between them."""
    return make_static_scenario(
        {0: (0.0, 0.0), 1: (50.0, 0.0)},
        radio_range=120.0,
        flows=(CbrFlow(source=0, destination=1, packet_size=512, rate=1.0, start=10.0, duration=10.0),),
    )
