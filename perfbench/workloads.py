"""The benchmark's workloads: scenario files built from the workload seed,
one timed iteration per scenario, and the digests that check its outputs.

Every workload drives the package only through its public functions.
Module functions are looked up through their module at call time
(`sim.run_simulation`, `evo.evolve`), so the tracer's wrappers see the
calls the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from olsrtune import evo, olsr, scenario, sim
from speed import PoolSampler, Sampler

DEFAULT_SEED = 2
# digests for this seed are recorded but no workload was tuned against it
HELD_OUT_SEED = 9001

# the published best configuration, in gene order (the acceptance
# suite's BEST_GENES)
BEST_GENES = (14.890, 7.416, 28.158, 5, 20.825, 10.814, 70.959, 90.000)

NIC = sim.default_nic()
SPACE = olsr.default_param_space()


def best_config() -> olsr.OlsrConfig:
    return olsr.decode_genome(BEST_GENES, SPACE)


def sha256_json(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def metrics_digest(metrics) -> str:
    return sha256_json(sim.metrics_to_json(metrics))


class _Workload:
    name: str
    why: str
    # layers whose module attributes the traced iterations wrap
    layers: tuple
    # A workload seed stands for this many scenarios, simulated in turn,
    # one per iteration. Scenarios of one shape differ in work from seed
    # to seed (quartile distance over median 7% on dense_hello, 10% on
    # multihop_data); a run's figures average over several of them, so
    # they vary less from one workload seed to the next.
    scenarios = 3

    def scenario_seeds(self, seed: int) -> list:
        """The scenario seeds of workload seed `seed`; no two workload
        seeds share one."""
        return [self.scenarios * seed + k for k in range(self.scenarios)]

    def scenario_for(self, seed: int):
        raise NotImplementedError

    def write_inputs(self, seed: int, workdir: Path) -> list:
        """Write the scenario of scenario seed `seed`; returns its paths."""
        path = workdir / f"{self.name}-{seed}.json"
        scenario.save_scenario(self.scenario_for(seed), path)
        return [path]

    def sampler(self, workdir: Path):
        """What samples the host's speed while an iteration runs."""
        return Sampler()

    def iterate(self, scenarios: list, seed: int) -> dict:
        """Run the program once on the loaded scenario of scenario seed
        `seed`; returns its output digests."""
        raise NotImplementedError

    def claim_errors(self, outcome: dict) -> list:
        return []


class _SimPair(_Workload):
    """One iteration runs the scenario under the standard defaults, then
    under the published best configuration."""

    layers = ("scenario", "sim", "olsr")

    def iterate(self, scenarios: list, seed: int) -> dict:
        (scn,) = scenarios
        m_rfc = sim.run_simulation(scn, olsr.rfc_default(), NIC, seed)
        m_best = sim.run_simulation(scn, best_config(), NIC, seed)
        return {
            "digests": {"rfc": metrics_digest(m_rfc), "best": metrics_digest(m_best)},
            "metrics": [m_rfc, m_best],
        }


class DenseHello(_SimPair):
    name = "dense_hello"
    why = (
        "40 vehicles that all hear each other: HELLO processing and MPR "
        "selection in the olsr layer do about 90% of the work"
    )

    def scenario_for(self, seed: int):
        spec = scenario.GridSpec(
            area=(600.0, 400.0),
            streets=(4, 4),
            vehicle_count=40,
            speed=(2.0, 6.0),
            pause_time=4.0,
            duration=90.0,
        )
        template = scenario.FlowTemplate(packet_size=512, rate=1.0, start=30.0, duration=25.0)
        return scenario.generate_grid_scenario(spec, 10, template, seed=seed, radio_range=500.0)

    def claim_errors(self, outcome: dict) -> list:
        # the paper's directional claim: the tuned configuration spends
        # less energy and sends less routing load than the defaults
        m_rfc, m_best = outcome["metrics"]
        errors = []
        if not m_best.energy.e_total < m_rfc.energy.e_total:
            errors.append("best configuration does not beat RFC on e_total")
        if m_best.nrl is None or m_rfc.nrl is None or not m_best.nrl < m_rfc.nrl:
            errors.append("best configuration does not beat RFC on nrl")
        return errors


class MultihopData(_SimPair):
    name = "multihop_data"
    why = (
        "36,000 lossy data packets over about 2.8 hops: the sim layer's event "
        "loop and radio model do most of the work, OLSR HELLO cost is small"
    )
    # its scenarios differ most in work: how far packets travel depends
    # on where the vehicles drive
    scenarios = 5

    def scenario_for(self, seed: int):
        spec = scenario.GridSpec(
            area=(1000.0, 700.0),
            streets=(5, 5),
            vehicle_count=40,
            speed=(2.0, 6.0),
            pause_time=4.0,
            duration=120.0,
        )
        template = scenario.FlowTemplate(packet_size=512, rate=20.0, start=20.0, duration=90.0)
        return scenario.generate_grid_scenario(
            spec,
            20,
            template,
            seed=seed,
            radio_range=300.0,
            loss_model=scenario.LossModel("bernoulli", 0.1),
        )


class Tune(_Workload):
    """One iteration is a whole small tuning run on a 2-worker pool, on the
    acceptance suite's tuning scenario (generated with seed 3); the
    scenario seed is the GA's master seed."""

    name = "tune"
    why = (
        "a 24x6 evolve on 2 workers: the only workload through the evo "
        "layer's process pool and per-generation barrier"
    )
    layers = ("scenario", "evo")

    def sampler(self, workdir: Path):
        # the simulations run in the pool workers, on both cores
        return PoolSampler(workdir / "pool-probes.txt")

    def scenario_for(self, seed: int):
        # one scenario for every seed: how much work a tuning run does
        # then depends on the GA's path alone
        spec = scenario.GridSpec(
            area=(600.0, 400.0),
            streets=(4, 4),
            vehicle_count=20,
            speed=(2.0, 6.0),
            pause_time=4.0,
            duration=90.0,
        )
        template = scenario.FlowTemplate(packet_size=64, rate=0.2, start=45.0, duration=40.0)
        return scenario.generate_grid_scenario(spec, 20, template, seed=3, radio_range=500.0)

    def iterate(self, scenarios: list, seed: int) -> dict:
        (scn,) = scenarios
        # 2 workers: the development host has 2 cores
        settings = evo.GaSettings(pop_size=24, generations=6, workers=2, master_seed=seed)
        best, history = evo.evolve(settings, SPACE, scn, NIC)
        doc = {
            "genes": list(best.genes),
            "f": best.fitness.f,
            "history": [asdict(row) for row in history],
        }
        return {"digests": {"evolve": sha256_json(doc)}}


WORKLOADS = {w.name: w for w in (DenseHello(), MultihopData(), Tune())}


def load_inputs(paths: list) -> list:
    return [scenario.load_scenario(p) for p in paths]
