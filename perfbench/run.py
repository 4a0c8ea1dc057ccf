"""olsrtune benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload dense_hello --seed 2 --seconds 36 --trace 0

Run from the repository root. The package is imported from `src/` next
to this directory. A workload seed stands for several scenarios; their
files are generated from the seed, written under `perfbench/_work/` and
read back, and the iterations simulate them in turn, seeing only the
loaded files. Every iteration's outputs are checked against stored
reference digests for its scenario (or, for a scenario with no stored
reference, against the scenario's first iteration).

`--trace 0` times untraced iterations and reports the end-to-end
metrics. Times are taken with the host's speed sampled while they run
and scaled to nominal speed (see `speed.py`). `--trace 1` alternates
untraced and traced iterations and reports the per-layer metrics, plus
the tracing overhead. The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
`--workload all` runs every workload in turn, each in its own process,
and prints all their lines. A result file with host facts is written
under `perfbench/_results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"

# the scenario files are loaded this many times before each iteration;
# setup_s is the median over all untraced loads of the run
LOADS_PER_ITERATION = 5


def import_package():
    """Import olsrtune from this checkout's src/, never from elsewhere."""
    if not (SRC / "olsrtune" / "__init__.py").is_file():
        raise SystemExit(f"error: no olsrtune package under {SRC}")
    sys.path.insert(0, str(SRC))
    import olsrtune

    if Path(olsrtune.__file__).resolve().parent != (SRC / "olsrtune").resolve():
        raise SystemExit(f"error: olsrtune imported from {olsrtune.__file__}, not {SRC}")


# -- host facts ---------------------------------------------------------------


def _steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])  # cpu user nice system idle iowait irq softirq steal
    except (OSError, IndexError, ValueError):
        return None


def host_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


class HostWatch:
    """Load average and steal time over the run, to spot a noisy host."""

    def __init__(self):
        self.load_start = os.getloadavg()
        self.steal_start = _steal_ticks()

    def finish(self) -> dict:
        steal_end = _steal_ticks()
        steal_s = None
        if steal_end is not None and self.steal_start is not None:
            steal_s = (steal_end - self.steal_start) / os.sysconf("SC_CLK_TCK")
        return {
            "loadavg_start": list(self.load_start),
            "loadavg_end": list(os.getloadavg()),
            "steal_s": steal_s,
        }


# -- measurement --------------------------------------------------------------


def cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    kb = sum(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def load_references() -> dict:
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text(encoding="utf-8"))["digests"]
    return {}


class Checker:
    """Compares each iteration's digests with the stored reference for its
    scenario seed, or with the scenario's first iteration when no
    reference is stored."""

    def __init__(self, workload):
        self.workload = workload
        self.stored = load_references().get(workload.name, {})
        # scenario seed -> digests and where they came from
        self.expected, self.sources = {}, {}

    def errors(self, outcome: dict, scenario_seed: int) -> list:
        digests = outcome["digests"]
        key = str(scenario_seed)
        if key not in self.expected:
            stored = self.stored.get(key)
            self.sources[key] = "stored" if stored is not None else "first iteration"
            self.expected[key] = dict(stored if stored is not None else digests)
        errors = [
            f"scenario seed {key}: {name} digest {digests.get(name)} != reference {want}"
            for name, want in self.expected[key].items()
            if digests.get(name) != want
        ]
        return errors + self.workload.claim_errors(outcome)


def timed_loads(paths: list, repeats: int, sampler, times) -> list:
    """Load the scenario files `repeats` times; returns the scenarios of
    the last load. With a `sampler`, appends each load's duration at
    nominal speed to `times`."""
    from workloads import load_inputs

    for _ in range(repeats):
        if sampler is None:
            scenarios = load_inputs(paths)
            continue
        scenarios, took = sampler.measure(lambda: load_inputs(paths), cpu_s)
        times.append(took["wall"])
    return scenarios


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracer as tracing
    from speed import Sampler
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = BENCH_DIR / "_work" / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    seeds = workload.scenario_seeds(seed)
    if trace:
        # per-layer counts repeat exactly only if every traced iteration
        # simulates the same scenario
        seeds = seeds[:1]
    inputs = [workload.write_inputs(s, workdir) for s in seeds]

    checker = Checker(workload)
    tracer = tracing.Tracer()
    sampler, load_sampler = workload.sampler(workdir), Sampler()
    load_times, snapshots = [], []
    # the untraced iterations' measurements, per scenario
    untraced = [[] for _ in seeds]
    traced_walls = []
    attempted = failed = 0
    started = time.perf_counter()
    last = 0.0
    # every scenario runs at least once, and a traced run both ways
    minimum = 2 if trace else len(seeds)
    while attempted < minimum or time.perf_counter() - started + last <= seconds:
        k = attempted % len(seeds)
        traced = trace and attempted % 2 == 1
        attempted += 1
        tracer.reset()
        # every iteration simulates freshly loaded scenarios, so none
        # reuses state a previous one built
        with tracer.installed(workload.layers if traced else ()):
            scenarios = timed_loads(inputs[k], LOADS_PER_ITERATION, None if traced else load_sampler, load_times)
            t0 = time.perf_counter()
            try:
                if traced:
                    outcome, took = workload.iterate(scenarios, seeds[k]), None
                else:
                    # untraced iterations run with the host's speed sampled
                    outcome, took = sampler.measure(lambda: workload.iterate(scenarios, seeds[k]), cpu_s)
            except Exception:
                outcome = None
                failure = traceback.format_exc()
            last = time.perf_counter() - t0
        errors = checker.errors(outcome, seeds[k]) if outcome is not None else ["raised:\n" + failure]
        if errors:
            failed += 1
            for err in errors:
                print(f"iteration {attempted} failed: {err}", file=sys.stderr)
        elif traced:
            traced_walls.append(last)
            snapshots.append(tracer.snapshot())
        else:
            untraced[k].append(took)

    def per_iteration(key):
        """Mean over the scenarios of the median of `key` over each
        scenario's untraced iterations."""
        medians = [_median([took[key] for took in runs]) for runs in untraced if runs]
        return statistics.fmean(medians) if medians else None

    result = {
        "workload": name,
        "seed": seed,
        "scenario_seeds": seeds,
        "trace": int(trace),
        "reference": checker.sources,
        "digests": checker.expected,
        "attempted": attempted,
        "failed": failed,
        "untraced_samples": untraced,
        "raw_wall_s": per_iteration("wall_raw"),
        "raw_cpu_s": per_iteration("cpu_raw"),
        "end_to_end": {
            "wall_s": per_iteration("wall"),
            "cpu_s": per_iteration("cpu"),
            "setup_s": _median(load_times),
            "peak_rss_mb": peak_rss_mb(),
            "ok_share": (attempted - failed) / attempted,
        },
    }
    if trace:
        per_layer = tracing.median_snapshot(snapshots) if snapshots else {}
        if traced_walls and result["raw_wall_s"]:
            # both raw: traced iterations run without the speed probes
            per_layer["trace.overhead_share"] = _median(traced_walls) / result["raw_wall_s"] - 1.0
        result["traced_wall_samples_s"] = traced_walls
        result["per_layer"] = per_layer
    return result


def _median(values: list):
    return statistics.median(values) if values else None


# -- reporting ----------------------------------------------------------------


def load_benchmark() -> dict:
    """BENCHMARK.json: the one place run length, metric names and units
    are defined."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_spec() -> dict:
    """Metric name -> unit for the end-to-end and per-layer lists."""
    doc = load_benchmark()
    return {kind: {m["name"]: m["unit"] for m in doc[kind]} for kind in ("end_to_end", "per_layer")}


def report(result: dict, trace: bool) -> dict:
    """Print every metric with its unit; returns the final JSON result line."""
    spec = load_spec()
    print(
        f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"iterations={result['attempted']} failed={result['failed']} "
        f"untraced={sum(map(len, result['untraced_samples']))} reference={result['reference']} "
        f"raw_wall_s={result['raw_wall_s']} raw_cpu_s={result['raw_cpu_s']}"
    )
    measured = dict(result["end_to_end"], **result.get("per_layer", {}))
    units = dict(spec["end_to_end"], **spec["per_layer"])
    for name, value in measured.items():
        print(f"{name} = {value} {units.get(name, '?')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {name: {"value": measured.get(name), "unit": unit} for name, unit in wanted.items()}
    unlisted = sorted(set(measured) - set(units))
    if unlisted:
        print(f"error: metrics missing from BENCHMARK.json: {unlisted}", file=sys.stderr)
    ok = (
        result["failed"] == 0
        and not unlisted
        and all(isinstance(m["value"], (int, float)) for m in metrics.values())
    )
    return {
        "correct": ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def write_result_file(result: dict, facts: dict) -> Path:
    out_dir = BENCH_DIR / "_results"
    out_dir.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path = out_dir / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}-{stamp}.json"
    doc = dict(result, host=facts)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def run_all(args) -> int:
    """Run every workload in its own process, so peak RSS and child CPU
    are per workload."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    watch = HostWatch()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    facts = dict(host_facts(), **watch.finish())
    path = write_result_file(result, facts)
    line = report(result, bool(args.trace))
    print("# host " + json.dumps(facts, sort_keys=True))
    print(f"# result file {path.relative_to(ROOT)}")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
