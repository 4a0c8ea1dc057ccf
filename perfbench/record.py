"""Record the reference output digests the benchmark checks against.

    python3 perfbench/record.py --seeds 0-20 9001

Runs one iteration of every workload on each scenario of each workload
seed and writes the digests to perfbench/references.json, keyed by
scenario seed, keeping entries for other seeds.
A stored digest that differs from the fresh one is reported and the
script exits 1 without writing: the program's behaviour has changed,
and replacing a reference is a decision to make by hand (delete the
entry first).
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(tokens: list) -> list:
    seeds = []
    for tok in tokens:
        lo, _, hi = tok.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True, help="workload seeds or ranges like 0-20")
    args = parser.parse_args(argv)

    run.import_package()
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, load_inputs

    doc = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "digests": {}}
    if run.REFERENCES.is_file():
        doc = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    digests = doc["digests"]
    status = 0
    for name, workload in WORKLOADS.items():
        workdir = run.BENCH_DIR / "_work" / "record"
        workdir.mkdir(parents=True, exist_ok=True)
        for seed in [s for ws in parse_seeds(args.seeds) for s in workload.scenario_seeds(ws)]:
            scenarios = load_inputs(workload.write_inputs(seed, workdir))
            outcome = workload.iterate(scenarios, seed)
            for err in workload.claim_errors(outcome):
                print(f"{name} seed {seed}: {err}", file=sys.stderr)
                status = 1
            stored = digests.setdefault(name, {}).get(str(seed))
            if stored is not None and stored != outcome["digests"]:
                print(f"{name} seed {seed}: digests changed {stored} -> {outcome['digests']}", file=sys.stderr)
                status = 1
            digests[name][str(seed)] = outcome["digests"]
            print(f"{name} seed {seed}: {outcome['digests']}", flush=True)
    if status:
        return status
    run.REFERENCES.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
