"""Self-test of the benchmark's host-speed samplers.

    python3 -m pytest -q perfbench/test_speed.py

Sampling must not change any output, must probe while the measured call
runs, and must leave the SIGALRM handler, the interval timer and
`olsrtune.evo.run_simulation` as it found them.
"""

import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from olsrtune import evo, olsr, scenario  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402


def _busy(seconds):
    end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < end:
        n += 1
    return n


def _small_scenario():
    spec = scenario.GridSpec(
        area=(400.0, 300.0), streets=(3, 3), vehicle_count=10,
        speed=(2.0, 6.0), pause_time=4.0, duration=40.0,
    )
    template = scenario.FlowTemplate(packet_size=256, rate=2.0, start=15.0, duration=20.0)
    return scenario.generate_grid_scenario(spec, 4, template, seed=4, radio_range=180.0)


def test_sampler_probes_during_the_call_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    result, took = speed.Sampler().measure(lambda: _busy(0.5), time.process_time)
    assert result > 0
    # one probe before, one after, and about one per period in between
    assert took["probes"] >= 2 + int(0.5 / speed.PERIOD_S) - 1
    assert 0.4 < took["wall_raw"] < 0.6
    assert took["speed"] > 0
    assert took["wall"] == took["wall_raw"] * took["speed"]
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pool_sampler_probes_every_simulation_and_changes_no_output(tmp_path):
    scn = _small_scenario()
    settings = evo.GaSettings(pop_size=4, generations=1, workers=2, master_seed=3)
    space = olsr.default_param_space()
    original = evo.run_simulation
    plain = evo.evolve(settings, space, scn, workloads.NIC)
    sampled, took = speed.PoolSampler(tmp_path / "probes.txt").measure(
        lambda: evo.evolve(settings, space, scn, workloads.NIC), time.process_time
    )
    assert sampled == plain
    # calibration in this process, then 4 + 4 evaluations in the workers
    assert took["probes"] == 1 + 8
    assert took["speed"] > 0
    assert evo.run_simulation is original
