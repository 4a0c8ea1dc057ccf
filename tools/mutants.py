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
_HOOD = "tests/test_olsr.py::TestHoodEqualsReference"
_ENTRIES = "tests/test_olsr.py::TestEntries"
_LAZY = "tests/test_olsr.py::TestLazyEqualsEager"
_DELIVERY = "tests/test_sim.py::TestBasicDelivery::"

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
    # the radio model's surely-in-range mark
    Mutant("sure-bound-without-moves", "src/olsrtune/sim.py",
           "upper = gap + (move[None, :] + move[:, None])", "upper = gap",
           (_LISTS, _RADIO_REFERENCE), True),
    Mutant("sure-margin-flipped", "src/olsrtune/sim.py",
           "self.inner = radio_range - margin", "self.inner = radio_range + margin",
           (_LISTS + "::test_static_pairs_at_the_range_edge",), True),
    Mutant("sure-skips-loss-draw", "src/olsrtune/sim.py",
           "                if lossy and (r := draw()) < cut:\n", "                if False:\n",
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
    Mutant("frontier-not-sorted", "src/olsrtune/olsr.py", "        new.sort()\n", "",
           ("tests/test_olsr.py::TestRoutes", _CLEAN_ROUTES), True),
    Mutant("tc-duplicate-skip-dropped", "src/olsrtune/olsr.py",
           "        if key == state.last_tc:\n            continue\n        expire(state, now)\n",
           "        expire(state, now)\n",
           # first: the run hangs once nothing suppresses duplicates
           (_ENTRIES + "::test_second_reception_at_same_instant",
            _FORWARDING + "test_each_tc_processed_once_per_node"), True),
    Mutant("loss-cut-too-low", "src/olsrtune/sim.py",
           "self.cut = self.p_max * math.sqrt(self.range2) / scenario.radio_range",
           "self.cut = 0.99 * self.p_max * math.sqrt(self.range2) / scenario.radio_range",
           (_FORWARDING + "test_loss_cut_bounds_every_in_range_threshold",), True),
    # the per-frame HELLO path and make_hello's kept link sets
    Mutant("hello-diff-cache-stale", "src/olsrtune/olsr.py",
           "if old is not last_old:", "if last_old is None:", (_HOOD,), True),
    Mutant("hello-selector-refresh-dropped", "src/olsrtune/olsr.py",
           "        if me in mprs:\n            nb.selector_expiry = expiry\n", "",
           (_HOOD, _ENTRIES), True),
    Mutant("hello-next-expiry-not-lowered", "src/olsrtune/olsr.py",
           "        if expiry < state.next_expiry:\n            state.next_expiry = expiry\n"
           "        nbrs = state.neighbors\n", "        nbrs = state.neighbors\n",
           (_HOOD, _ENTRIES), True),
    Mutant("hello-adv-reused-unequal", "src/olsrtune/olsr.py",
           "        if adv != state.last_adv:\n", "        if not state.last_adv:\n",
           (_HOOD,), True),
    Mutant("hello-sets-kept-at-new-link", "src/olsrtune/olsr.py",
           "            nb = Neighbor(False, expiry, own_will)\n            state.last_listed = None\n",
           "            nb = Neighbor(False, expiry, own_will)\n", (_LAZY, _HOOD), True),
    Mutant("hello-sets-kept-at-sym-turn", "src/olsrtune/olsr.py",
           "            state.routes_dirty = True\n            state.last_listed = None\n",
           "            state.routes_dirty = True\n", (_LAZY, _HOOD), True),
    Mutant("hello-sets-kept-at-lapse", "src/olsrtune/olsr.py",
           "    if lapsed:\n        state.last_listed = None\n", "", (_LAZY, _HOOD), True),
    # the entries' contract: receive_tc's one-key duplicate rule, fresh MPRs
    # in HELLOs, each link's willingness from its first HELLO
    Mutant("new-link-default-willingness", "src/olsrtune/olsr.py",
           "Neighbor(False, expiry, own_will)", "Neighbor(False, expiry, WILL_DEFAULT)",
           (_HOOD, _FORWARDING + "test_runs_keep_the_entries_contract"), True),
    Mutant("duplicate-not-recorded", "src/olsrtune/olsr.py",
           "        state.last_tc = key\n", "",
           # first: the run hangs once nothing suppresses duplicates
           (_ENTRIES + "::test_second_reception_at_same_instant",
            _FORWARDING + "test_each_tc_processed_once_per_node"), True),
    Mutant("tc-key-originator-only", "src/olsrtune/olsr.py",
           "        if key == state.last_tc:\n",
           "        if state.last_tc is not None and key[0] == state.last_tc[0]:\n",
           (_ENTRIES + "::test_receive_tc_relays_only_for_selectors",), True),
    # one TC frame, receiver by receiver: a skipped receiver leaves the
    # rest of the frame to run; and the flood's frames go FIFO
    Mutant("tc-frame-stops-at-duplicate", "src/olsrtune/olsr.py",
           "        if key == state.last_tc:\n            continue\n",
           "        if key == state.last_tc:\n            break\n",
           (_ENTRIES + "::test_one_frame_mixed_receivers",), True),
    Mutant("tc-frame-stops-at-asym", "src/olsrtune/olsr.py",
           "        if nb is None or not nb.sym:\n            continue\n",
           "        if nb is None or not nb.sym:\n            break\n",
           (_ENTRIES + "::test_one_frame_mixed_receivers",), True),
    Mutant("flood-frames-lifo", "src/olsrtune/sim.py", "queue.popleft()", "queue.pop()",
           ("tests/test_sim.py::TestEventOrder::test_exact_time_ties_keep_their_order",), True),
    Mutant("hello-mprs-not-ensured", "src/olsrtune/olsr.py",
           "ensure_mprs(state), state.last_adv", "state.mpr_set, state.last_adv",
           ("tests/test_olsr.py::TestMessages::test_hello_advertises_fresh_mprs",
            _FORWARDING + "test_runs_keep_the_entries_contract"), True),
    # each entry expires first
    Mutant("next-hello-no-expire", "src/olsrtune/olsr.py",
           "    expire(state, now)\n    return make_hello(state, config)\n",
           "    return make_hello(state, config)\n",
           (_ENTRIES + "::test_next_hello_drops_lapsed_link",), True),
    Mutant("receive-hello-no-expire", "src/olsrtune/olsr.py",
           "            expire(state, now)\n    process_hello(states, msg, now, config)\n",
           "            pass\n    process_hello(states, msg, now, config)\n",
           (_ENTRIES + "::test_receive_hello_after_lapse_starts_fresh_link",), True),
    Mutant("next-tc-no-expire", "src/olsrtune/olsr.py",
           "    expire(state, now)\n    selectors = frozenset(",
           "    selectors = frozenset(",
           (_ENTRIES + "::test_next_tc_none_once_only_selector_lapsed",), True),
    Mutant("receive-tc-no-expire", "src/olsrtune/olsr.py",
           "        expire(state, now)\n        nb = state.neighbors.get(msg.sender)\n",
           "        nb = state.neighbors.get(msg.sender)\n",
           (_ENTRIES + "::test_receive_tc_over_lapsed_link_dropped",), True),
    Mutant("routes-no-expire", "src/olsrtune/olsr.py",
           "    if now >= state.next_expiry:\n        expire(state, now)\n    if state.routes_dirty:\n",
           "    if state.routes_dirty:\n",
           (_ENTRIES + "::test_routes_skip_lapsed_neighbour",), True),
    Mutant("routes-expire-strict", "src/olsrtune/olsr.py",
           "    if now >= state.next_expiry:\n        expire(state, now)\n    if state.routes_dirty:\n",
           "    if now > state.next_expiry:\n        expire(state, now)\n    if state.routes_dirty:\n",
           (_ENTRIES + "::test_routes_skip_lapsed_neighbour",), True),
    # expiry bookkeeping: tables in expiry order, the MPR selection's lapse;
    # the mutation catalogue, the CBR queue and the radio model's errstate
    Mutant("topology-expiry-not-in-bound", "src/olsrtune/olsr.py",
           "            if exp < bound:\n                bound = exp\n", "", (_LAZY,), True),
    Mutant("tc-next-expiry-not-lowered", "src/olsrtune/olsr.py",
           "        if expiry < state.next_expiry:\n            state.next_expiry = expiry\n"
           "        topology[orig]", "        topology[orig]", (_LAZY,), True),
    Mutant("topology-record-updated-in-place", "src/olsrtune/olsr.py",
           "rec = topology.pop(orig, None)", "rec = topology.get(orig)", (_LAZY,), True),
    # the straggler batch heap: each batch pushed, stale entries dropped
    # before the bound is read
    Mutant("stale-batch-head-not-compared", "src/olsrtune/olsr.py",
           "next(iter(nb.stragglers.values()), math.inf) == exp", "nb.stragglers",
           (_LAZY,), True),
    Mutant("stale-batch-read-as-live", "src/olsrtune/olsr.py",
           "        if nb is not None and next(iter(nb.stragglers.values()), math.inf) == exp:\n",
           "        if True:\n", (_LAZY,), True),
    Mutant("straggler-batch-never-pushed", "src/olsrtune/olsr.py",
           "                heappush(state.straggler_batches, batch)\n",
           "                pass\n", (_LAZY,), True),
    Mutant("straggler-batch-shared-across-expiries", "src/olsrtune/olsr.py",
           "if batch is None or batch[0] != old_expiry:", "if batch is None:",
           (_HOOD,), True),
    Mutant("link-not-moved-to-end", "src/olsrtune/olsr.py",
           "nb = nbrs.pop(sender, None)", "nb = nbrs.get(sender)", (_LAZY,), True),
    Mutant("selector-lapse-ignored", "src/olsrtune/olsr.py",
           "selector_expiry > now\n", "selector_expiry > -math.inf\n",
           (_ENTRIES + "::test_selection_lapses_before_the_link",), True),
    Mutant("sym-link-expiry-not-dirty", "src/olsrtune/olsr.py",
           "        if nb.sym:\n            state.mprs_dirty = True\n            state.routes_dirty = True\n"
           "            state.near.discard(n)\n",
           # the map's upkeep stays: only the dirty marks go
           "        if nb.sym:\n            state.near.discard(n)\n",
           ("tests/test_olsr.py::TestExpire", _LAZY), True),
    # the kept MPR provider map, its coverage counts and its non-strict
    # ids: built with the state, kept exact where MPRs are marked dirty
    Mutant("provider-append-dropped", "src/olsrtune/olsr.py",
           "                            providers.setdefault(t, []).append(sender)\n",
           "                            pass\n", (_LAZY, _HOOD), True),
    Mutant("cover-append-uncounted", "src/olsrtune/olsr.py",
           "                            cover[sender] = cover.get(sender, 0) + 1\n", "",
           (_LAZY, _HOOD), True),
    Mutant("sym-turn-join-skipped", "src/olsrtune/olsr.py",
           "            _join(state, sender, nb)\n", "            pass\n", (_LAZY, _HOOD), True),
    Mutant("provider-sym-turn-id-not-popped", "src/olsrtune/olsr.py",
           "    for p in state.providers.pop(n, ()):\n",
           "    for p in state.providers.get(n, ()):\n", (_LAZY, _HOOD), True),
    Mutant("cover-sym-turn-uncounted", "src/olsrtune/olsr.py",
           "        if cover[p] == 1:\n            del cover[p]\n"
           "        else:\n            cover[p] -= 1\n",
           "        pass\n", (_LAZY, _HOOD), True),
    Mutant("cover-zero-kept-at-sym-turn", "src/olsrtune/olsr.py",
           "        if cover[p] == 1:\n            del cover[p]\n",
           "        if cover[p] == 1:\n            cover[p] = 0\n",
           (_LAZY, _HOOD), True),
    Mutant("near-sym-turn-not-added", "src/olsrtune/olsr.py",
           "    state.near.add(n)\n", "", (_LAZY, _HOOD), True),
    Mutant("provider-sym-turn-hood-not-provided", "src/olsrtune/olsr.py",
           "    if nb.will != WILL_NEVER:\n        _provide(",
           "    if nb.will != WILL_NEVER:\n        pass  # _provide(",
           (_LAZY, _HOOD), True),
    Mutant("near-sym-lapse-not-discarded", "src/olsrtune/olsr.py",
           "            state.near.discard(n)\n", "", (_LAZY, _HOOD), True),
    Mutant("provider-sym-lapse-not-unprovided", "src/olsrtune/olsr.py",
           "                _unprovide(state, n, _strict_hood(nb, state.near))\n",
           "                pass\n", (_LAZY, _HOOD), True),
    Mutant("provider-lapsed-id-not-strict", "src/olsrtune/olsr.py",
           "            if ids:\n                state.providers[n] = ids\n",
           "            if False:\n                state.providers[n] = ids\n",
           (_LAZY, _HOOD), True),
    Mutant("cover-lapsed-id-uncounted", "src/olsrtune/olsr.py",
           "                    cover[p] = cover.get(p, 0) + 1\n", "                    pass\n",
           (_LAZY, _HOOD), True),
    Mutant("gained-sym-id-counted-strict", "src/olsrtune/olsr.py",
           "t not in near", "t != me", (_LAZY, _HOOD), True),
    Mutant("lapsed-straggler-sym-id-counted-strict", "src/olsrtune/olsr.py",
           "                if t not in state.near:\n", "                if True:\n",
           (_LAZY, _HOOD), True),
    Mutant("constructor-ignores-records", "src/olsrtune/olsr.py",
           "        _build_providers(self)\n",
           "        self.providers, self.cover, self.near, self.always = {}, {}, {self.node_id}, set()\n",
           ("tests/test_olsr.py::TestSelectMprs",
            "tests/test_acceptance.py::test_criterion_06_mpr_coverage_property"), True),
    Mutant("provider-lapsed-straggler-kept", "src/olsrtune/olsr.py",
           "                    _unprovide(state, n, (t,))\n", "                    pass\n",
           (_LAZY, _HOOD), True),
    Mutant("cover-provide-uncounted", "src/olsrtune/olsr.py",
           "        state.cover[n] = state.cover.get(n, 0) + len(ids)\n", "        pass\n",
           (_LAZY, _HOOD), True),
    Mutant("cover-unprovide-uncounted", "src/olsrtune/olsr.py",
           "        left = cover[n] - len(ids)\n", "        left = cover[n]\n", (_LAZY, _HOOD), True),
    # the kept willingness-7 base, and the greedy's stop at a covering pick
    Mutant("always-sym-turn-not-added", "src/olsrtune/olsr.py",
           "    if nb.will == WILL_ALWAYS:\n        state.always.add(n)\n",
           "", (_LAZY, _HOOD), True),
    Mutant("always-sym-lapse-not-discarded", "src/olsrtune/olsr.py",
           "            state.always.discard(n)\n", "", (_LAZY, _HOOD), True),
    Mutant("greedy-stops-one-short", "src/olsrtune/olsr.py",
           "if key[1] == len(uncovered):", "if key[1] >= len(uncovered) - 1:",
           ("tests/test_olsr.py::TestSelectMprs", _HOOD), True),
    Mutant("cover-zero-kept", "src/olsrtune/olsr.py",
           "        if left:\n            cover[n] = left\n        else:\n            del cover[n]\n",
           "        cover[n] = left\n",
           ("tests/test_olsr.py::TestSelectMprs::test_provider_left_without_strict_ids_not_picked",),
           True),
    Mutant("mutation-moves-swapped", "src/olsrtune/evo.py",
           '    ("scale", (0,)),\n    ("scale", (2,)),\n',
           '    ("scale", (2,)),\n    ("scale", (0,)),\n',
           ("tests/test_evo.py::TestMutate::test_catalogue_digest",), True),
    Mutant("cbr-queue-eager", "src/olsrtune/sim.py",
           "            if count:\n                heapq.heappush(self.heap, (flow.start, self._seq + 1,"
           " _EV_CBR, (flow, 0, count)))\n",
           "            for i in range(count):  # every packet queued at the start\n"
           "                heapq.heappush(self.heap, (flow.start + i / flow.rate,"
           " self._seq + 1 + i, _EV_CBR, (flow, i, i + 1)))\n",
           ("tests/test_sim.py::TestEventOrder::test_queue_holds_one_pending_packet_per_flow",),
           True),
    # the data hop block: the hop limit, the arrival time, who sends a hop
    # and where its event goes
    Mutant("hop-limit-one-late", "src/olsrtune/sim.py",
           "hops >= MAX_HOPS", "hops > MAX_HOPS",
           (_DELIVERY + "test_routing_loop_ends_at_the_hop_limit",), True),
    Mutant("hop-arrival-without-processing", "src/olsrtune/sim.py",
           "t + cost[2] + PROCESSING_DELAY_S", "t + cost[2]",
           (_DELIVERY + "test_pair_delay_is_airtime_plus_processing",), True),
    Mutant("hop-sent-by-next-hop", "src/olsrtune/sim.py",
           "transmit(node, size_bits, cost, t)", "transmit(next_hop, size_bits, cost, t)",
           (_DELIVERY + "test_chain_routes_two_hops",), True),
    Mutant("hop-event-at-sender", "src/olsrtune/sim.py",
           "(next_hop, dest, size_bits, cost, origin_t, hops + 1)",
           "(node, dest, size_bits, cost, origin_t, hops + 1)",
           (_DELIVERY + "test_chain_routes_two_hops",), True),
    Mutant("radio-errstate-dropped", "src/olsrtune/sim.py",
           'with np.errstate(over="ignore", invalid="ignore"):', "if True:",
           (_LISTS + "::test_overflowing_bound_keeps_pairs",), True),
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
        print(f"{mutant.name:34} {outcome:9} {time.perf_counter() - t0:6.1f} s"
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
