"""Outside-in tracing of the package's layers.

The tracer replaces module attributes (`olsrtune.olsr.select_mprs`,
`olsrtune.sim.run_simulation`, ...) with wrappers that time each call
and count it. This reaches calls made inside the package because `sim`
calls `olsr.X` through the module and `olsr` looks its own functions up
as module globals. `evo` imports `run_simulation` by name, so that name
is patched in `evo` as well. Every attribute is restored when
`installed()` exits.

A span's self time is its duration minus the time of the wrapped spans
it called. Spans are kept as per-name sums in memory; `snapshot()` turns
them into the per-layer metrics of one iteration.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from olsrtune import evo, olsr, scenario, sim

OLSR_FUNCS = (
    "process_hello",
    "select_mprs",
    "expire",
    "compute_routes",
    "ensure_routes",
    "process_tc",
    "should_forward",
    "make_hello",
    "make_tc",
)
EVO_OPERATORS = ("diagonal_init", "tournament_select", "arithmetic_crossover", "mutate")


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        # per-span count of calls that met the span's ratio condition
        self.hits = defaultdict(int)
        # counters read from the program's public outputs and hooks
        self.counts = defaultdict(int)
        # time of wrapped child spans, one slot per open span
        self._stack = []

    def reset(self):
        """Forget everything recorded; installed wrappers keep working."""
        for table in (self.calls, self.total_s, self.self_s, self.hits, self.counts, self._stack):
            table.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        """Time and count `fn` under `name`. `before(args, kwargs)` returns
        a token; `after(token, args, kwargs, result)` may record outcomes."""
        calls, total_s, self_s, stack = self.calls, self.total_s, self.self_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(token, args, kwargs, result)
            return result

        return wrapper

    def _sim_wrappers(self):
        counts = self.counts

        def on_transmit(_sender, _size_bits, receivers, _t):
            counts["transmissions"] += 1
            counts["receptions"] += len(receivers)

        def before_run(_args, kwargs):
            if kwargs.get("on_transmit") is None:
                kwargs["on_transmit"] = on_transmit

        def after_run(_token, _args, _kwargs, metrics):
            counts["control_tx"] += metrics.control_tx
            counts["data_delivered"] += metrics.data_delivered

        run = self._wrap("sim.run_simulation", sim.run_simulation, before_run, after_run)
        return [(sim, "run_simulation", run), (evo, "run_simulation", run)]

    def _olsr_wrappers(self):
        hits = self.hits

        def before_select(args, _kwargs):
            return args[0].mpr_set

        def after_select(previous, _args, _kwargs, result):
            if result == previous:
                hits["olsr.select_mprs"] += 1

        def before_expire(args, _kwargs):
            state, now = args
            if now >= state.next_expiry:
                hits["olsr.expire"] += 1

        def before_ensure(args, _kwargs):
            if args[0].routes_dirty:
                hits["olsr.ensure_routes"] += 1

        def after_forward(_token, _args, _kwargs, result):
            if result:
                hits["olsr.should_forward"] += 1

        hooks = {
            "select_mprs": (before_select, after_select),
            "expire": (before_expire, None),
            "ensure_routes": (before_ensure, None),
            "should_forward": (None, after_forward),
        }
        out = []
        for fn in OLSR_FUNCS:
            before, after = hooks.get(fn, (None, None))
            out.append((olsr, fn, self._wrap(f"olsr.{fn}", getattr(olsr, fn), before, after)))
        return out

    def _scenario_wrappers(self):
        counts = self.counts

        def after_load(_token, _args, _kwargs, scn):
            counts["trace_rows"] += len(scn.trace.samples)

        load = self._wrap("scenario.load_scenario", scenario.load_scenario, None, after_load)
        return [(scenario, "load_scenario", load)]

    def _evo_wrappers(self):
        counts = self.counts

        def before_evolve(_args, _kwargs):
            return _children_cpu_s()

        def after_evolve(cpu0, args, _kwargs, result):
            settings = args[0]
            _best, history = result
            counts["worker_cpu_s"] += _children_cpu_s() - cpu0
            counts["workers"] = settings.workers
            counts["evaluations"] += settings.pop_size * len(history)
            counts["penalized"] += sum(row.penalized_count for row in history)

        out = [(evo, "evolve", self._wrap("evo.evolve", evo.evolve, before_evolve, after_evolve))]
        out.append((evo, "calibrate_context", self._wrap("evo.calibrate_context", evo.calibrate_context)))
        for fn in EVO_OPERATORS:
            out.append((evo, fn, self._wrap(f"evo.{fn}", getattr(evo, fn))))
        return out

    @contextmanager
    def installed(self, layers):
        """Patch the named layers' module attributes for the duration."""
        factories = {
            "scenario": self._scenario_wrappers,
            "sim": self._sim_wrappers,
            "olsr": self._olsr_wrappers,
            "evo": self._evo_wrappers,
        }
        patches = [p for layer in layers for p in factories[layer]()]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _w in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- metrics ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer metrics of everything traced since the last reset."""
        c, t, s, h, n = self.calls, self.total_s, self.self_s, self.hits, self.counts
        out = {}

        def share(num, den):
            return num / den if den else 0.0

        loads = c["scenario.load_scenario"]
        out["scenario.load_s"] = share(t["scenario.load_scenario"], loads)
        out["scenario.trace_rows"] = share(n["trace_rows"], loads)

        tx = n["transmissions"]
        out["sim.run_s"] = t["sim.run_simulation"]
        out["sim.self_s"] = s["sim.run_simulation"]
        out["sim.transmissions"] = tx
        out["sim.receptions"] = n["receptions"]
        out["sim.receptions_per_tx"] = share(n["receptions"], tx)
        out["sim.control_tx"] = n["control_tx"]
        out["sim.data_tx"] = tx - n["control_tx"]
        out["sim.data_delivered"] = n["data_delivered"]
        out["sim.self_us_per_tx"] = 1e6 * share(s["sim.run_simulation"], tx)

        olsr_self = 0.0
        for fn in OLSR_FUNCS:
            key = f"olsr.{fn}"
            out[f"{key}.calls"] = c[key]
            out[f"{key}.self_s"] = s[key]
            olsr_self += s[key]
        out["olsr.self_s"] = olsr_self
        out["olsr.share"] = share(olsr_self, t["sim.run_simulation"])
        out["olsr.process_hello.us_per_call"] = 1e6 * share(
            s["olsr.process_hello"], c["olsr.process_hello"]
        )
        out["olsr.select_mprs.unchanged_share"] = share(h["olsr.select_mprs"], c["olsr.select_mprs"])
        out["olsr.expire.slow_share"] = share(h["olsr.expire"], c["olsr.expire"])
        out["olsr.ensure_routes.recompute_share"] = share(
            h["olsr.ensure_routes"], c["olsr.ensure_routes"]
        )
        out["olsr.should_forward.forward_share"] = share(
            h["olsr.should_forward"], c["olsr.should_forward"]
        )

        wait = s["evo.evolve"]
        out["evo.calibrate_s"] = t["evo.calibrate_context"]
        out["evo.operators_s"] = sum(t[f"evo.{fn}"] for fn in EVO_OPERATORS)
        out["evo.wait_s"] = wait
        out["evo.evaluations"] = n["evaluations"]
        out["evo.worker_cpu_s"] = n["worker_cpu_s"]
        out["evo.worker_busy_share"] = share(n["worker_cpu_s"], n["workers"] * wait)
        out["evo.penalized_share"] = share(n["penalized"], n["evaluations"])
        return out


def median_snapshot(snapshots: list) -> dict:
    """Per-metric median over the snapshots of several iterations."""
    return {k: statistics.median(s[k] for s in snapshots) for k in snapshots[0]}
