"""Command-line driver: scenario generation, simulation, tuning,
validation reports, and scaling benchmarks.

Every command takes one `--seed` that feeds named sub-streams, writes
its primary outputs as CSV/JSON under `--out` (default from the
OLSRTUNE_OUT environment variable, falling back to the current
directory), and records a run manifest for reproducibility. Exit codes:
0 success, 2 usage or input error, 3 domain or validation error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, analysis, evo, olsr, sim
from .errors import DomainError, InputError
from .scenario import (
    FlowTemplate,
    GridSpec,
    LossModel,
    generate_grid_scenario,
    load_scenario,
    save_scenario,
    scenario_files,
)

__all__ = ["main", "MAX_PAD_MS"]

MAX_PAD_MS = 60_000  # bench --pad-ms, one minute per evaluation at most


def _parse_pair(text: str, sep: str, what: str, cast=float) -> tuple:
    parts = text.split(sep)
    if len(parts) != 2:
        raise InputError(f"expected {what} as A{sep}B, got {text!r}")
    try:
        return cast(parts[0]), cast(parts[1])
    except ValueError:
        raise InputError(f"non-numeric {what}: {text!r}") from None


def _parse_loss(text: str) -> LossModel:
    if text == "ideal":
        return LossModel("ideal")
    if text.startswith("bernoulli:"):
        try:
            p = float(text.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad loss model {text!r}") from None
        return LossModel("bernoulli", p)
    raise InputError(f"unknown loss model {text!r} (use ideal or bernoulli:P)")


def _parse_list(text: str, what: str, cast) -> list:
    try:
        return [cast(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise InputError(f"bad {what} list: {text!r}") from None


def _grid_flags(args) -> tuple:
    """The p_c and p_m candidate lists and the repetitions of `tune --grid`."""
    pc_values = _parse_list(args.grid_pc, "p_c", float)
    pm_values = _parse_list(args.grid_pm, "p_m", float)
    if not pc_values or not pm_values:
        raise InputError("--grid-pc and --grid-pm need at least one value each")
    if args.reps < 1:
        raise InputError("--reps must be >= 1")
    return pc_values, pm_values, args.reps


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows) -> str:
    """CSV text with the csv module's CRLF row ends, which the golden digests pin."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class _Manifest:
    """Records the command, its resolved settings, input digests, and the
    produced files; written last so it lists everything. Every output a
    command writes goes through `output`, which lists it."""

    def __init__(self, command: str, args):
        self.doc = {
            "command": command,
            "argv": args.argv,
            "version": __version__,
            "master_seed": getattr(args, "seed", None),
            "settings": {},
            "inputs": {},
            "outputs": [],
            "started_utc": _utcnow(),
        }
        self.out_dir = Path(args.out or os.environ.get("OLSRTUNE_OUT") or ".")
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            msg = f"output directory {self.out_dir} is a file or lies below one"
            raise InputError(msg) from None

    def setting(self, **kv):
        self.doc["settings"].update(kv)

    def input_file(self, path: Path):
        self.doc["inputs"][str(path)] = _digest(path)

    def output_file(self, path: Path):
        self.doc["outputs"].append(path.name)

    def output(self, name: str, text: str) -> Path:
        """Write `text` as it is (no newline translation) to the output
        file `name` and list the file."""
        path = self.out_dir / name
        path.write_text(text, encoding="utf-8", newline="")
        self.output_file(path)
        return path

    def write(self, extra: dict | None = None):
        if extra:
            self.doc.update(extra)
        self.doc["finished_utc"] = _utcnow()
        path = self.out_dir / f"{self.doc['command']}_manifest.json"
        path.write_text(_json_text(self.doc), encoding="utf-8", newline="")


def _load_scenario_arg(path_str: str, manifest: _Manifest):
    path = Path(path_str)
    if not path.is_file():
        raise InputError(f"scenario file not found: {path}")
    scenario = load_scenario(path)
    for input_path in scenario_files(path):
        manifest.input_file(input_path)
    return scenario, path.stem


def _load_config_arg(path_str: str, manifest: _Manifest):
    path = Path(path_str)
    if not path.is_file():
        raise InputError(f"config file not found: {path}")
    manifest.input_file(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, undecodable bytes, too many digits
        raise InputError(f"config file {path} is not valid JSON: {exc}") from None
    return olsr.config_from_dict(doc), path.stem


def cmd_gen(args) -> int:
    manifest = _Manifest("gen", args)
    try:
        spec = GridSpec(
            area=_parse_pair(args.area, "x", "area"),
            streets=_parse_pair(args.streets, "x", "streets", cast=int),
            vehicle_count=args.vehicles,
            speed=_parse_pair(args.speed, ":", "speed"),
            pause_time=args.pause,
            sample_step=args.sample_step,
            duration=args.duration,
        )
        flow_duration = args.flow_duration
        if flow_duration > spec.duration:
            raise InputError("flow duration exceeds the scenario duration")
        start = args.flow_start
        if start is None:
            start = max(0.0, (spec.duration - flow_duration) / 2.0)
        template = FlowTemplate(
            packet_size=args.packet_size,
            rate=args.rate,
            start=start,
            duration=flow_duration,
        )
        scenario = generate_grid_scenario(
            spec,
            args.flows,
            template,
            args.seed,
            radio_range=args.range,
            bandwidth=args.bandwidth,
            loss_model=_parse_loss(args.loss),
        )
    except DomainError as exc:
        # bad flag values are usage errors, not simulation-domain failures
        raise InputError(str(exc)) from None
    written = save_scenario(scenario, manifest.out_dir / f"{args.name}.json")
    for p in written:
        manifest.output_file(p)
    manifest.setting(
        area=list(spec.area),
        streets=list(spec.streets),
        vehicles=spec.vehicle_count,
        flows=args.flows,
        speed=list(spec.speed),
        pause=spec.pause_time,
        sample_step=spec.sample_step,
        duration=spec.duration,
        packet_size=template.packet_size,
        rate=template.rate,
        flow_start=template.start,
        flow_duration=template.duration,
        radio_range=args.range,
        bandwidth=args.bandwidth,
        loss=args.loss,
    )
    manifest.write()
    print(f"wrote {written[0]} and {written[1]}")
    return 0


def cmd_simulate(args) -> int:
    manifest = _Manifest("simulate", args)
    scenario, scenario_id = _load_scenario_arg(args.scenario, manifest)
    if args.rfc:
        config, config_id = olsr.rfc_default(), "rfc_default"
    else:
        config, config_id = _load_config_arg(args.config, manifest)
    nic = sim.default_nic()
    manifest.setting(scenario=scenario_id, config=config_id, compare_rfc=args.compare_rfc)

    rows = []
    doc: dict = {}
    if args.compare_rfc:
        m_cfg, m_rfc, gaps = analysis.compare_against_reference(scenario, config, nic, args.seed)
        rows.append(sim.metrics_row(m_cfg, scenario_id, config_id, args.seed))
        rows.append(sim.metrics_row(m_rfc, scenario_id, "rfc_default", args.seed))
        doc = {
            "config": sim.metrics_to_json(m_cfg),
            "reference": sim.metrics_to_json(m_rfc),
            "gap_energy": gaps[0],
            "gap_pdr": gaps[1],
        }
    else:
        metrics = sim.run_simulation(scenario, config, nic, args.seed)
        rows.append(sim.metrics_row(metrics, scenario_id, config_id, args.seed))
        doc = sim.metrics_to_json(metrics)

    csv_path = manifest.output("metrics.csv", _csv_text(sim.METRICS_COLUMNS, rows))
    json_path = manifest.output("metrics.json", _json_text(doc))
    manifest.write()
    print(f"wrote {csv_path} and {json_path}")
    return 0


def cmd_tune(args) -> int:
    manifest = _Manifest("tune", args)
    scenario, scenario_id = _load_scenario_arg(args.scenario, manifest)
    nic = sim.default_nic()
    space = olsr.default_param_space()
    settings = evo.GaSettings(
        pop_size=args.pop,
        p_c=args.pc,
        p_m=args.pm,
        generations=args.gens,
        workers=args.workers,
        master_seed=args.seed,
        elitism=args.elitism,
    )
    grid = _grid_flags(args) if args.grid else None
    ctx = evo.calibrate_context(scenario, nic, settings.master_seed)
    manifest.setting(
        scenario=scenario_id,
        pop_size=settings.pop_size,
        p_c=settings.p_c,
        p_m=settings.p_m,
        generations=settings.generations,
        workers=settings.workers,
        elitism=settings.elitism,
        e_rfc=ctx.e_rfc,
        pdr_rfc=ctx.pdr_rfc,
    )

    if args.grid:
        rows = evo.parameter_setting_grid(
            *grid,
            settings,
            space,
            scenario,
            nic,
            ctx,
        )
        cells = [[repr(r[c]) for c in evo.GRID_COLUMNS] for r in rows]
        grid_path = manifest.output("grid.csv", _csv_text(evo.GRID_COLUMNS, cells))
        manifest.write()
        print(f"wrote {grid_path}")
        return 0

    best, history = evo.evolve(settings, space, scenario, nic, ctx)
    config = olsr.decode_genome(best.genes, space)

    best_path = manifest.output("best_config.json", _json_text(olsr.config_to_dict(config)))
    hist_rows = [evo.history_row(h) for h in history]
    hist_path = manifest.output("history.csv", _csv_text(evo.HISTORY_COLUMNS, hist_rows))
    manifest.write(
        extra={
            "best": {
                "f": best.fitness.f,
                "energy_mj": best.fitness.energy,
                "pdr": best.fitness.pdr,
                "penalized": best.fitness.penalized,
                "id": list(best.id),
            }
        }
    )
    print(
        f"best f={best.fitness.f:.6f} energy={best.fitness.energy:.2f} mJ "
        f"pdr={best.fitness.pdr:.2f}%"
    )
    print(f"wrote {best_path} and {hist_path}")
    return 0


def cmd_validate(args) -> int:
    manifest = _Manifest("validate", args)
    scen_dir = Path(args.scenarios)
    if not scen_dir.is_dir():
        raise InputError(f"scenario directory not found: {scen_dir}")
    # gen drops its manifest next to the scenario files; don't load it
    paths = sorted(p for p in scen_dir.glob("*.json") if not p.name.endswith("_manifest.json"))
    if not paths:
        raise InputError(f"no scenario JSON files in {scen_dir}")
    scenarios = []
    for p in paths:
        scenario, _sid = _load_scenario_arg(str(p), manifest)
        w, h = scenario.area
        scenarios.append((f"{w:g}x{h:g}m", scenario))

    configs = []
    if args.rfc:
        configs.append(("rfc_default", olsr.rfc_default()))
    for c in args.config or []:
        config, name = _load_config_arg(c, manifest)
        configs.append((name, config))
    if not configs:
        raise InputError("no configurations given (use --rfc and/or --config)")

    seeds = _parse_list(args.seeds, "seeds", int)
    if not seeds:
        raise InputError("no seeds given")
    manifest.setting(
        scenario_count=len(scenarios), configs=[n for n, _c in configs], seeds=seeds
    )

    report = analysis.validation_report(configs, scenarios, sim.default_nic(), seeds)
    csv_path = manifest.output("report.csv", analysis.report_csv(report))
    txt_path = manifest.output("report.txt", analysis.report_text(report))
    manifest.write(extra={"runs": report.runs, "failures": report.failures})
    print(f"wrote {csv_path} and {txt_path} ({report.runs} runs, {report.failures} failures)")
    return 0


def cmd_bench(args) -> int:
    manifest = _Manifest("bench", args)
    scenario, scenario_id = _load_scenario_arg(args.scenario, manifest)
    nic = sim.default_nic()
    space = olsr.default_param_space()
    worker_counts = _parse_list(args.workers, "workers", int)
    if not worker_counts:
        raise InputError("no worker counts given")
    if len(set(worker_counts)) < len(worker_counts):
        raise InputError(f"--workers lists a worker count twice: {args.workers}")
    if args.reps < 1:
        raise InputError("--reps must be >= 1")
    if not 0 <= args.pad_ms <= MAX_PAD_MS:
        raise InputError(f"--pad-ms must be in [0, {MAX_PAD_MS}], got {args.pad_ms}")
    runs = [
        evo.GaSettings(pop_size=args.pop, generations=args.gens, workers=m, master_seed=args.seed)
        for m in worker_counts
    ]
    ctx = evo.calibrate_context(scenario, nic, args.seed)
    manifest.setting(
        scenario=scenario_id,
        workers=worker_counts,
        reps=args.reps,
        pop_size=args.pop,
        generations=args.gens,
        pad_ms=args.pad_ms,
    )

    times: dict = {}
    for settings in runs:
        samples = []
        for rep in range(args.reps):
            t0 = time.perf_counter()
            evo.evolve(settings, space, scenario, nic, ctx, eval_pad_s=args.pad_ms / 1000.0)
            samples.append(time.perf_counter() - t0)
        times[settings.workers] = samples

    result = analysis.bench_result(times)
    csv_path = manifest.output("bench.csv", analysis.bench_csv(result))
    # wall-clock measurements: this output is honest data, not replayable
    manifest.write(extra={"deterministic_outputs": False})
    for m, t, s, e in zip(
        result.worker_counts, result.mean_times, result.speedups, result.efficiencies
    ):
        print(f"workers={m} mean={t:.3f}s speedup={s:.2f} efficiency={e:.2f}")
    print(f"wrote {csv_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olsrtune",
        description="Energy-aware OLSR parameter tuning: simulate, evolve, analyze.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    common.add_argument(
        "--out", default=None, help="output directory (default $OLSRTUNE_OUT or .)"
    )

    p = sub.add_parser("gen", parents=[common], help="generate a grid-mobility scenario")
    p.add_argument("--area", required=True, help="area in meters, WxH (e.g. 400x300)")
    p.add_argument("--vehicles", required=True, type=int, help="number of vehicles")
    p.add_argument("--flows", required=True, type=int, help="number of CBR flows")
    p.add_argument("--streets", default="4x4", help="street grid RxC (default 4x4)")
    p.add_argument("--speed", default="8:14", help="speed range m/s MIN:MAX (default 8:14)")
    p.add_argument("--pause", type=float, default=4.0, help="intersection pause s")
    p.add_argument("--sample-step", type=float, default=1.0, help="trace sampling step s")
    p.add_argument("--duration", type=float, default=180.0, help="scenario duration s")
    p.add_argument("--packet-size", type=int, default=512, help="CBR packet bytes")
    p.add_argument("--rate", type=float, default=4.0, help="CBR packets per second")
    p.add_argument("--flow-start", type=float, default=None, help="flow start s (default centered)")
    p.add_argument("--flow-duration", type=float, default=60.0, help="flow duration s")
    p.add_argument("--range", type=float, default=500.0, help="radio range m")
    p.add_argument("--bandwidth", type=float, default=6e6, help="bandwidth bit/s")
    p.add_argument("--loss", default="ideal", help="loss model: ideal | bernoulli:P")
    p.add_argument("--name", default="scenario", help="output base name")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("simulate", parents=[common], help="run one simulation")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="OLSR config JSON path")
    group.add_argument("--rfc", action="store_true", help="use standard defaults")
    p.add_argument(
        "--compare-rfc", action="store_true", help="also run the defaults and report gaps"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tune", parents=[common], help="evolve an energy-aware config")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    for flag, field, cast, what in (
        ("--pop", "pop_size", int, "population size"),
        ("--gens", "generations", int, "generations"),
        ("--pc", "p_c", float, "crossover probability"),
        ("--pm", "p_m", float, "mutation probability"),
        ("--workers", "workers", int, "evaluation workers"),
        ("--elitism", "elitism", int, "elites kept per generation"),
    ):
        default = getattr(evo.GaSettings, field)
        p.add_argument(flag, type=cast, default=default, help=f"{what} (default %(default)s)")
    p.add_argument("--grid", action="store_true", help="run the p_c x p_m setting grid")
    p.add_argument("--grid-pc", default="0.5,0.7,0.9", help="grid p_c candidates")
    p.add_argument("--grid-pm", default="0.06125,0.125,0.25", help="grid p_m candidates")
    p.add_argument("--reps", type=int, default=1, help="repetitions per grid cell")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("validate", parents=[common], help="multi-scenario comparison report")
    p.add_argument("--scenarios", required=True, help="directory of scenario JSON files")
    p.add_argument("--config", action="append", help="config JSON (repeatable)")
    p.add_argument("--rfc", action="store_true", help="include the standard defaults")
    p.add_argument("--seeds", default="1", help="comma-separated seeds")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", parents=[common], help="worker-scaling benchmark")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--workers", default="1", help="comma-separated distinct worker counts")
    p.add_argument("--reps", type=int, default=3, help="repetitions per count")
    p.add_argument("--pop", type=int, default=8, help="population size")
    p.add_argument("--gens", type=int, default=2, help="generations")
    p.add_argument("--pad-ms", type=float, default=0.0, help="padding per evaluation, ms")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    args.argv = argv  # the manifest records the argv this call was given
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
