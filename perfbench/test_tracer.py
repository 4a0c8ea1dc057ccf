"""Self-test of the benchmark's tracer.

    python3 -m pytest -q perfbench/test_tracer.py

Tracing must not change any output, its self times must fit inside the
simulation they were measured in, and every patched module attribute
must be the original function again once tracing ends.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from olsrtune import evo, olsr, scenario, sim  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PATCHED = {
    scenario: ("load_scenario",),
    sim: ("run_simulation",),
    olsr: tracing.OLSR_FUNCS,
    evo: ("run_simulation", "evolve", "calibrate_context") + tracing.EVO_OPERATORS,
}


def _small_scenario(seed=4):
    spec = scenario.GridSpec(
        area=(400.0, 300.0), streets=(3, 3), vehicle_count=10,
        speed=(2.0, 6.0), pause_time=4.0, duration=40.0,
    )
    template = scenario.FlowTemplate(packet_size=256, rate=2.0, start=15.0, duration=20.0)
    return scenario.generate_grid_scenario(
        spec, 4, template, seed=seed, radio_range=180.0,
        loss_model=scenario.LossModel("bernoulli", 0.1),
    )


@pytest.fixture
def scenario_file(tmp_path):
    return scenario.save_scenario(_small_scenario(), tmp_path / "small.json")[0]


def _originals():
    return {(m, a): getattr(m, a) for m, attrs in PATCHED.items() for a in attrs}


def _sim_pair_digests(scn):
    return workloads.DenseHello().iterate([scn], 4)["digests"]


def test_digests_identical_with_and_without_tracing(scenario_file):
    scn = workloads.load_inputs([scenario_file])[0]
    plain = _sim_pair_digests(scn)
    tracer = tracing.Tracer()
    with tracer.installed(["scenario", "sim", "olsr"]):
        traced_scn = workloads.load_inputs([scenario_file])[0]
        traced = _sim_pair_digests(traced_scn)
    assert traced == plain
    snap = tracer.snapshot()
    assert snap["sim.transmissions"] > 0
    assert snap["olsr.process_hello.calls"] > 0
    assert snap["scenario.trace_rows"] == len(scn.trace.samples)


def test_self_times_fit_inside_the_simulation(scenario_file):
    scn = workloads.load_inputs([scenario_file])[0]
    tracer = tracing.Tracer()
    with tracer.installed(["sim", "olsr"]):
        _sim_pair_digests(scn)
    snap = tracer.snapshot()
    olsr_self = sum(snap[f"olsr.{fn}.self_s"] for fn in tracing.OLSR_FUNCS)
    assert snap["olsr.self_s"] == pytest.approx(olsr_self)
    assert 0 < snap["sim.self_s"] + olsr_self <= snap["sim.run_s"] * (1 + 1e-9)
    for fn in tracing.OLSR_FUNCS:
        assert snap[f"olsr.{fn}.self_s"] >= 0


def test_evolve_unchanged_by_evo_tracing():
    scn = _small_scenario()
    settings = evo.GaSettings(pop_size=4, generations=1, workers=1, master_seed=3)
    space = olsr.default_param_space()
    plain = evo.evolve(settings, space, scn, workloads.NIC)
    tracer = tracing.Tracer()
    with tracer.installed(["evo"]):
        traced = evo.evolve(settings, space, scn, workloads.NIC)
    assert traced == plain
    snap = tracer.snapshot()
    assert snap["evo.evaluations"] == 8
    assert snap["evo.calibrate_s"] > 0
    assert 0 < snap["evo.wait_s"]


def test_every_attribute_restored():
    before = _originals()
    tracer = tracing.Tracer()
    with tracer.installed(["scenario", "sim", "olsr", "evo"]):
        patched = _originals()
        assert all(patched[k] is not before[k] for k in before)
    assert _originals() == before
    assert all(_originals()[k] is before[k] for k in before)


def test_attributes_restored_after_an_exception():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(["scenario", "sim", "olsr", "evo"]):
            raise RuntimeError("boom")
    assert all(_originals()[k] is before[k] for k in before)


def test_metric_names_match_benchmark_json():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in doc["per_layer"]}
    assert set(tracing.Tracer().snapshot()) | {"trace.overhead_share"} == per_layer
