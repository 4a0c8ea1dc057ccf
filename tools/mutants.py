"""Mutation check: each row of MUTANTS makes one hand-made edit to a copy
of src/ and tests/ and runs the tests that must catch it.

For each row the script copies src/, tests/ and pyproject.toml into a
temporary directory, replaces the row's old text (which must occur
exactly once in its file) by its new text, and runs the row's tests
there with pytest under a timeout. A failing test run (or a timeout)
kills the mutant; a passing one lets it survive. A row whose old and new
texts are equal is the harness's self-check: it must survive.

Run it as `python tools/mutants.py` (it finds the repository from its
own path). Exit status: 0 when every must_kill mutant is killed and
every identity row survives; 1 otherwise, or when an edit does not
apply or pytest cannot run the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 240  # per mutant; a hung run counts as killed


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in `file`
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    must_kill: bool


_LISTS = "tests/test_sim.py::TestCandidateLists"
_RADIO_REFERENCE = "tests/test_sim.py::TestRadioModelReference"
_ROUTE_FILTER = "tests/test_olsr.py::TestRouteFilter"
_FORWARDING = "tests/test_sim.py::TestForwardingPath::"
_CLEAN_ROUTES = _FORWARDING + "test_clean_routes_equal_fresh_computation"

MUTANTS = (
    Mutant("identity", "src/olsrtune/sim.py", "_MARGIN_SHARE = 2.0**-30",
           "_MARGIN_SHARE = 2.0**-30", (_LISTS,), False),
    # the radio model's candidate-list bound
    Mutant("negative-margin", "src/olsrtune/sim.py", "_MARGIN_SHARE = 2.0**-30",
           "_MARGIN_SHARE = -(2.0**-30)", (_LISTS,), True),
    Mutant("moves-not-subtracted", "src/olsrtune/sim.py",
           "lower = gap - (move[None, :] + move[:, None])", "lower = gap",
           (_LISTS, _RADIO_REFERENCE), True),
    Mutant("one-move-subtracted", "src/olsrtune/sim.py",
           "lower = gap - (move[None, :] + move[:, None])", "lower = gap - move[None, :]",
           (_LISTS, _RADIO_REFERENCE), True),
    # the forwarding path's route filter, TC duplicate skip and loss cut
    Mutant("route-tie-reversed", "src/olsrtune/olsr.py",
           "(cur[0], last_hop[dest]) > key", "(cur[0], last_hop[dest]) < key",
           (_ROUTE_FILTER, _CLEAN_ROUTES), True),
    Mutant("removed-destination-ignored", "src/olsrtune/olsr.py",
           "        if last_hop.get(dest) == orig:\n            return True\n",
           "        pass\n", (_ROUTE_FILTER, _CLEAN_ROUTES), True),
    Mutant("longer-route-by-two", "src/olsrtune/olsr.py",
           "cur[1] > hops or", "cur[1] > hops + 1 or", (_ROUTE_FILTER, _CLEAN_ROUTES), True),
    Mutant("tc-duplicate-skip-dropped", "src/olsrtune/olsr.py",
           "    if state.duplicates.get((msg.originator, msg.seq_no), -math.inf) > now:\n"
           "        return None\n    expire(state, now)\n",
           "    expire(state, now)\n",
           (_FORWARDING + "test_each_tc_processed_once_per_node",), True),
    Mutant("loss-cut-too-low", "src/olsrtune/sim.py",
           "self.cut = self.p_max * math.sqrt(self.range2) / scenario.radio_range",
           "self.cut = 0.99 * self.p_max * math.sqrt(self.range2) / scenario.radio_range",
           (_FORWARDING + "test_loss_cut_bounds_every_in_range_threshold",), True),
)


def run_mutant(mutant: Mutant) -> str:
    """'killed', 'survived' or an error message, for one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        path = work / mutant.file
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            return f"error: old text occurs {count} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:  # some test failed
        return "killed"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exited {done.returncode}: {' '.join(tail)}"


def main() -> int:
    bad = []
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        outcome = run_mutant(mutant)
        if mutant.old == mutant.new:
            ok = outcome == "survived"
        else:
            ok = outcome == "killed" or (outcome == "survived" and not mutant.must_kill)
        print(f"{mutant.name:28} {outcome:9} {time.perf_counter() - t0:6.1f} s"
              f"{'' if ok else '  <- FAILED'}", flush=True)
        if not ok:
            bad.append(mutant.name)
    if bad:
        print(f"FAILED: {', '.join(bad)}")
        return 1
    print("every must_kill mutant killed, every identity row survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
