"""Shared builders and checks for the test suite: static topologies, tiny
scenarios and the expiry order of a node's OLSR tables."""

import pytest

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
    """Every straggler dict and the topology dict of an OLSR node state
    hold their entries in non-decreasing expiry order."""
    tables = [list(nb.stragglers.values()) for nb in state.neighbors.values()]
    tables.append([exp for _dests, exp in state.topology.values()])
    for expiries in tables:
        assert expiries == sorted(expiries)


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
