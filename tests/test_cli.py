"""Command-line behaviour: files written, determinism, exit codes."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import olsrtune
from olsrtune import evo
from olsrtune.cli import MAX_PAD_MS, main
from olsrtune.olsr import config_to_dict, rfc_default
from olsrtune.scenario import MAX_FLOWS

GEN_BASE = [
    "gen",
    "--area", "200x200",
    "--vehicles", "5",
    "--flows", "2",
    "--duration", "30",
    "--speed", "3:6",
    "--rate", "1",
    "--packet-size", "128",
    "--flow-duration", "10",
    "--range", "150",
]


def run_gen(out_dir, seed=1, name="scenario", extra=()):
    argv = GEN_BASE + ["--seed", str(seed), "--out", str(out_dir), "--name", name]
    argv += list(extra)
    assert main(argv) == 0
    return out_dir / f"{name}.json"


class TestGen:
    def test_writes_scenario_trace_manifest(self, tmp_path):
        run_gen(tmp_path)
        assert (tmp_path / "scenario.json").is_file()
        assert (tmp_path / "scenario_trace.csv").is_file()
        manifest = json.loads((tmp_path / "gen_manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["master_seed"] == 1
        assert set(manifest["outputs"]) == {"scenario.json", "scenario_trace.csv"}
        assert manifest["settings"]["vehicles"] == 5

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_gen(a)
        run_gen(b)
        assert (a / "scenario.json").read_bytes() == (b / "scenario.json").read_bytes()
        assert (a / "scenario_trace.csv").read_bytes() == (b / "scenario_trace.csv").read_bytes()

    # sha256 of scenario.json and of the trace CSV: test_golden pins the
    # outputs of runs on a generated scenario, not gen's own bytes
    @pytest.mark.parametrize(
        "extra,json_digest,trace_digest",
        [
            pytest.param(
                [],
                "ac71a0b5b27bcc8a07dd4be2794ac23f349b384c584554fdeb6de62c3191d2d4",
                "8dd80279e5e4a8d473db6bf9e3ca2d71806268c78b25af371777d543784db4d7",
                id="golden",
            ),
            pytest.param(
                ["--loss", "bernoulli:0.2", "--pause", "0", "--sample-step", "0.7"],
                "663597ce6d2be44388178bbc3e9473ad751726b92cb5e814597374ace7eca50f",
                "3e6ecc3b8b5530b4b3fb90dff4873637c5521c86a613b2f6c8797e12dda3004f",
                id="bernoulli-no-pause-odd-step",
            ),
        ],
    )
    def test_pinned_bytes(self, tmp_path, extra, json_digest, trace_digest):
        run_gen(tmp_path, seed=4, name="golden", extra=extra)  # test_golden's GEN argv
        for name, want in (("golden.json", json_digest), ("golden_trace.csv", trace_digest)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want

    def test_seed_changes_trace(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_gen(a, seed=1)
        run_gen(b, seed=2)
        assert (a / "scenario_trace.csv").read_bytes() != (b / "scenario_trace.csv").read_bytes()

    def test_missing_required_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--area", "100x100", "--flows", "1", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_bad_area_format_exits_2(self, tmp_path):
        argv = ["gen", "--area", "banana", "--vehicles", "3", "--flows", "1",
                "--out", str(tmp_path)]
        assert main(argv) == 2

    def test_bad_domain_values_are_usage_errors(self, tmp_path):
        argv = GEN_BASE + ["--out", str(tmp_path), "--speed", "9:3"]
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "flag,value,flows",
        [
            *(
                pytest.param(flag, value, "2", id=f"{flag}-{value}")
                for flag, value in [
                    ("--duration", "nan"),
                    ("--sample-step", "nan"),
                    ("--range", "inf"),
                    ("--range", "1e308"),  # finite, but its square is not
                    ("--bandwidth", "nan"),
                    ("--rate", "inf"),
                    ("--flow-start", "nan"),
                ]
            ),
            # with no flows, only the flow template sees the flow flags
            *(
                pytest.param(flag, value, "0", id=f"{flag}-{value}-flows0")
                for flag, value in [
                    ("--rate", "inf"),
                    ("--rate", "nan"),
                    ("--flow-start", "nan"),
                    ("--flow-start", "inf"),
                    ("--flow-duration", "nan"),
                ]
            ),
        ],
    )
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, flag, value, flows):
        self.assert_one_line_usage_error(tmp_path, capsys, flows, flag, value)

    # each bound keeps gen, or a run of the scenario it writes, finite
    @pytest.mark.parametrize(
        "flag,value,flows",
        [
            ("--duration", "1e308", "2"),  # MAX_DURATION_S
            ("--duration", "86401", "2"),
            ("--sample-step", "1e-9", "2"),  # MAX_TRACE_SAMPLES
            ("--vehicles", "100000000", "0"),
            ("--vehicles", "32259", "0"),  # 32,259 x 31 samples, just over
            ("--streets", "100000000x2", "2"),  # MAX_STREETS
            ("--streets", "2x100000000", "2"),
            ("--streets", "1001x4", "2"),
            ("--rate", "1e12", "1"),  # MAX_FLOW_PACKETS
            ("--rate", "1e12", "0"),
            ("--vehicles", "3000", "8000000"),  # MAX_FLOWS
            ("--vehicles", "3000", str(MAX_FLOWS + 1)),
            ("--bandwidth", "1e-300", "2"),  # MIN_BANDWIDTH_BPS
            ("--bandwidth", "0.5", "0"),
        ],
    )
    def test_flag_beyond_bound_exits_2(self, tmp_path, capsys, flag, value, flows):
        self.assert_one_line_usage_error(tmp_path, capsys, flows, flag, value)

    # MAX_WALK_LEGS: with no pause, legs this short would keep a walk
    # going for ever
    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param(["--speed", "1e9:1e9"], id="speed-1e9"),
            pytest.param(["--area", "1e-6x1e-6"], id="area-1e-6"),
            # 100 m blocks at 100 m/s: 33,334 vehicles x 30 one-second
            # legs, just over the bound
            pytest.param(
                ["--vehicles", "33334", "--streets", "3x3", "--speed", "100:100",
                 "--sample-step", "30"],
                id="just-over",
            ),
        ],
    )
    def test_walk_beyond_bound_exits_2(self, tmp_path, capsys, extra):
        self.assert_one_line_usage_error(tmp_path, capsys, "0", "--pause", "0", *extra)

    @staticmethod
    def assert_one_line_usage_error(tmp_path, capsys, flows, *extra):
        capsys.readouterr()
        assert main(GEN_BASE + ["--out", str(tmp_path), "--flows", flows, *extra]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "scenario.json").exists()
        assert not (tmp_path / "gen_manifest.json").exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("OLSRTUNE_OUT", str(env_dir))
        assert main(GEN_BASE + ["--seed", "1"]) == 0
        assert (env_dir / "scenario.json").is_file()


class TestSimulate:
    def test_rfc_run(self, tmp_path):
        scn = run_gen(tmp_path)
        out = tmp_path / "sim"
        argv = ["simulate", "--scenario", str(scn), "--rfc", "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + one run
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["e_total_mj"] > 0
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert len(manifest["inputs"]) == 2  # scenario json + trace digested

    def test_compare_rfc_adds_reference_row_and_gaps(self, tmp_path):
        scn = run_gen(tmp_path)
        cfg_path = tmp_path / "myconf.json"
        cfg_path.write_text(json.dumps(config_to_dict(rfc_default())))
        out = tmp_path / "sim"
        argv = ["simulate", "--scenario", str(scn), "--config", str(cfg_path),
                "--compare-rfc", "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        rows = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["gap_energy"] == 0.0  # config equals the reference
        assert "reference" in doc

    def test_manifest_records_the_argv_main_was_given(self, tmp_path, monkeypatch):
        scn = run_gen(tmp_path)
        out = tmp_path / "sim"
        monkeypatch.setattr(sys, "argv", ["pytest", "-q", "whatever"])
        argv = ["simulate", "--scenario", str(scn), "--rfc", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "simulate_manifest.json").read_text())["argv"] == argv

    def test_missing_scenario_exits_2(self, tmp_path):
        argv = ["simulate", "--scenario", str(tmp_path / "nope.json"), "--rfc",
                "--out", str(tmp_path)]
        assert main(argv) == 2

    def test_config_and_rfc_mutually_exclusive(self, tmp_path):
        scn = run_gen(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--scenario", str(scn), "--rfc", "--config", "x.json",
                  "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_out_of_range_config_exits_3(self, tmp_path):
        scn = run_gen(tmp_path)
        bad = config_to_dict(rfc_default())
        bad["hello_interval"] = 99.0
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        argv = ["simulate", "--scenario", str(scn), "--config", str(cfg_path),
                "--out", str(tmp_path)]
        assert main(argv) == 3

    def test_unparsable_config_exits_2(self, tmp_path):
        scn = run_gen(tmp_path)
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{not json")
        argv = ["simulate", "--scenario", str(scn), "--config", str(cfg_path),
                "--out", str(tmp_path)]
        assert main(argv) == 2


def _set(key, value):
    def mutate(doc):
        doc[key] = value
        return doc

    return mutate


def _drop(key):
    def mutate(doc):
        del doc[key]
        return doc

    return mutate


def _drop_flow_rate(doc):
    del doc["flows"][0]["rate"]
    return doc


def _set_flow(key, value):
    def mutate(doc):
        doc["flows"][0][key] = value
        return doc

    return mutate


# (file, mutation, exit code): 2 for malformed input, 3 for a domain error;
# a mutation returns the new document, or the file's text as a string;
# a "trace" mutation maps the scenario's trace file bytes to new bytes
MALFORMED_FILES = {
    "config-list": ("config", lambda doc: list(doc.values()), 2),
    "config-word": ("config", _set("hello_interval", "fast"), 2),
    "config-numeric-string": ("config", _set("willingness", "3"), 2),
    "config-bool": ("config", _set("willingness", True), 2),
    "config-fractional-int": ("config", _set("willingness", 3.7), 2),
    "config-nan": ("config", _set("hello_interval", float("nan")), 3),
    "config-beyond-float": ("config", _set("hello_interval", 10**400), 2),
    "config-too-many-digits": ("config", lambda doc: '{"tc_interval": 1%s}' % ("0" * 5000), 2),
    "config-missing-field": ("config", _drop("tc_interval"), 3),
    "scenario-list": ("scenario", lambda doc: [doc], 2),
    "scenario-missing-range": ("scenario", _drop("radio_range_m"), 2),
    "scenario-flows-string": ("scenario", _set("flows", "x"), 2),
    "scenario-area-string": ("scenario", _set("area", "x"), 2),
    "scenario-flow-missing-rate": ("scenario", _drop_flow_rate, 2),
    "scenario-loss-number": ("scenario", _set("loss_model", 5), 2),
    "scenario-infinite-range": ("scenario", _set("radio_range_m", float("inf")), 2),
    "scenario-range-square-overflows": ("scenario", _set("radio_range_m", 1e308), 3),
    "scenario-fractional-source": ("scenario", _set_flow("source", 1.5), 2),
    "scenario-fractional-size": ("scenario", _set_flow("packet_size", 100.9), 2),
    "scenario-size-beyond-float": ("scenario", _set_flow("packet_size", 1e308), 3),
    "scenario-size-energy-infinite": ("scenario", _set_flow("packet_size", 1e305), 3),
    "scenario-duration-beyond-bound": ("scenario", _set("duration_s", 1e308), 3),
    "scenario-flow-packets-beyond-bound": ("scenario", _set_flow("rate", 1e12), 3),
    "scenario-flows-beyond-bound": (
        "scenario", lambda doc: {**doc, "flows": doc["flows"][:1] * (MAX_FLOWS + 1)}, 3
    ),
    "scenario-bandwidth-string": ("scenario", _set("bandwidth_bps", "6e6"), 2),
    "scenario-bandwidth-below-bound": ("scenario", _set("bandwidth_bps", 1e-300), 3),
    "scenario-duration-bool": ("scenario", _set("duration_s", True), 2),
    "scenario-trace-file-number": ("scenario", _set("trace_file", 7), 2),
    "scenario-trace-file-nul": ("scenario", _set("trace_file", "a\0b"), 2),
    "scenario-fractional-destination": ("scenario", _set_flow("destination", 0.5), 2),
    "scenario-flow-start-string": ("scenario", _set_flow("start", "10"), 2),
    "scenario-loss-without-kind": ("scenario", _set("loss_model", {"p_at_max_range": 0.1}), 2),
    "scenario-loss-p-string": (
        "scenario", _set("loss_model", {"kind": "bernoulli", "p_at_max_range": "0.1"}), 2
    ),
    "scenario-loss-bare-string": ("scenario", _set("loss_model", "ideal"), 2),
    "scenario-trace-not-utf8": ("trace", lambda data: b"\xff\xfe" + data, 2),
    "trace-nan-time": ("trace", lambda data: data + b"nan,0,10.0,10.0\n", 2),
    "trace-inf-time": ("trace", lambda data: data + b"inf,0,10.0,10.0\n", 2),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_gives_one_error_line(tmp_path, capsys, case):
    which, mutate, code = MALFORMED_FILES[case]
    scn = run_gen(tmp_path)
    argv = ["simulate", "--scenario", str(scn), "--rfc"]
    if which == "config":
        path = tmp_path / "bad.json"
        doc = mutate(config_to_dict(rfc_default()))
        argv = ["simulate", "--scenario", str(scn), "--config", str(path)]
    elif which == "scenario":
        path = scn
        doc = mutate(json.loads(scn.read_text()))
    else:
        path = scn.parent / json.loads(scn.read_text())["trace_file"]
        doc = mutate(path.read_bytes())
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for written in (tmp_path / "out").rglob("*.json"):
        text = written.read_text()
        assert "NaN" not in text and "Infinity" not in text


@pytest.mark.parametrize("command", ["gen", "simulate"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, monkeypatch, command, below, via_env):
    scn = run_gen(tmp_path / "scn")
    taken = tmp_path / "taken"
    taken.write_text("a file")
    out = taken / "sub" if below else taken
    if command == "gen":
        argv = list(GEN_BASE)
    else:
        argv = ["simulate", "--scenario", str(scn), "--rfc"]
    if via_env:
        monkeypatch.setenv("OLSRTUNE_OUT", str(out))
    else:
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(taken) in lines[0]
    assert taken.read_text() == "a file"


class TestTune:
    def tune_argv(self, scn, out, **kw):
        argv = ["tune", "--scenario", str(scn), "--pop", "4", "--gens", "1",
                "--seed", "3", "--out", str(out)]
        for flag, value in kw.items():
            argv += [f"--{flag}", str(value)]
        return argv

    def test_outputs(self, tmp_path):
        scn = run_gen(tmp_path)
        out = tmp_path / "tune"
        assert main(self.tune_argv(scn, out)) == 0
        cfg = json.loads((out / "best_config.json").read_text())
        assert set(cfg) == set(config_to_dict(rfc_default()))
        hist = (out / "history.csv").read_text().strip().splitlines()
        assert hist[0] == "generation,best_f,avg_f,best_energy,best_pdr,penalized_count"
        assert len(hist) == 3  # header + generations 0..1
        manifest = json.loads((out / "tune_manifest.json").read_text())
        assert manifest["settings"]["e_rfc"] > 0
        assert "best" in manifest

    def test_worker_count_does_not_change_result(self, tmp_path):
        scn = run_gen(tmp_path)
        seq = tmp_path / "w1"
        par = tmp_path / "w2"
        assert main(self.tune_argv(scn, seq, workers=1)) == 0
        assert main(self.tune_argv(scn, par, workers=2)) == 0
        assert (seq / "best_config.json").read_bytes() == (par / "best_config.json").read_bytes()

    def test_grid_mode(self, tmp_path):
        scn = run_gen(tmp_path)
        out = tmp_path / "grid"
        argv = self.tune_argv(scn, out) + ["--grid", "--grid-pc", "0.5,0.9",
                                           "--grid-pm", "0.25", "--reps", "1"]
        assert main(argv) == 0
        rows = (out / "grid.csv").read_text().strip().splitlines()
        assert rows[0].startswith("p_c,p_m,")
        assert len(rows) == 3

    @pytest.mark.parametrize(
        "flags", [["--reps", "0"], ["--grid-pc", ""], ["--grid-pm", ","]], ids=["reps", "pc", "pm"]
    )
    def test_bad_grid_flag_exits_2_before_calibrating(self, tmp_path, capsys, monkeypatch, flags):
        scn = run_gen(tmp_path)

        def no_simulation(*_args):
            raise AssertionError("calibrated before the grid flags were checked")

        monkeypatch.setattr(evo, "calibrate_context", no_simulation)
        capsys.readouterr()
        argv = self.tune_argv(scn, tmp_path / "grid") + ["--grid", *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_odd_population_exits_3(self, tmp_path):
        scn = run_gen(tmp_path)
        argv = ["tune", "--scenario", str(scn), "--pop", "5", "--gens", "1",
                "--out", str(tmp_path)]
        assert main(argv) == 3


class TestValidate:
    def test_report_over_directory(self, tmp_path):
        scen_dir = tmp_path / "scens"
        run_gen(scen_dir, seed=1, name="u1")
        run_gen(scen_dir, seed=2, name="u2")
        out = tmp_path / "rep"
        argv = ["validate", "--scenarios", str(scen_dir), "--rfc", "--seeds", "1,2",
                "--out", str(out)]
        assert main(argv) == 0
        report = (out / "report.csv").read_text().strip().splitlines()
        assert report[0].startswith("section,config,")
        assert (out / "report.txt").read_text().startswith("== ")
        manifest = json.loads((out / "validate_manifest.json").read_text())
        assert manifest["runs"] == 4  # 2 scenarios x 1 config x 2 seeds

    def test_config_name_with_comma_stays_one_cell(self, tmp_path):
        scen_dir = tmp_path / "scens"
        run_gen(scen_dir)
        cfg_path = tmp_path / "a,b.json"
        cfg_path.write_text(json.dumps(config_to_dict(rfc_default())))
        out = tmp_path / "rep"
        argv = ["validate", "--scenarios", str(scen_dir), "--config", str(cfg_path),
                "--out", str(out)]
        assert main(argv) == 0
        text = (out / "report.csv").read_bytes().decode("utf-8")
        assert "\r" not in text
        header, *rows = list(csv.reader(text.splitlines()))
        assert rows and all(len(row) == len(header) for row in rows)
        assert {row[header.index("config")] for row in rows} == {"a,b"}

    def test_empty_directory_exits_2(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        argv = ["validate", "--scenarios", str(empty), "--rfc", "--out", str(tmp_path)]
        assert main(argv) == 2

    def test_no_configs_exits_2(self, tmp_path):
        scen_dir = tmp_path / "scens"
        run_gen(scen_dir)
        argv = ["validate", "--scenarios", str(scen_dir), "--out", str(tmp_path)]
        assert main(argv) == 2


class TestBench:
    def test_single_worker_baseline(self, tmp_path):
        scn = run_gen(tmp_path)
        out = tmp_path / "bench"
        argv = ["bench", "--scenario", str(scn), "--workers", "1", "--reps", "1",
                "--pop", "4", "--gens", "1", "--out", str(out)]
        assert main(argv) == 0
        rows = (out / "bench.csv").read_text().strip().splitlines()
        assert rows[0] == "m,mean_time_s,speedup,efficiency"
        m, _t, s, e = rows[1].split(",")
        assert m == "1" and float(s) == 1.0 and float(e) == 1.0
        manifest = json.loads((out / "bench_manifest.json").read_text())
        assert manifest["deterministic_outputs"] is False

    @pytest.mark.parametrize(
        "flag,value",
        [("--reps", "0"), ("--pad-ms", "inf"), ("--pad-ms", "nan"), ("--pad-ms", "-5"),
         ("--pad-ms", "1e300"), ("--pad-ms", str(MAX_PAD_MS + 1))],
    )
    def test_zero_reps_exits_2(self, tmp_path, capsys, monkeypatch, flag, value):
        scn = run_gen(tmp_path)

        def no_simulation(*_args):
            raise AssertionError("calibrated before the flags were checked")

        monkeypatch.setattr(evo, "calibrate_context", no_simulation)
        capsys.readouterr()
        out = tmp_path / "bench"
        argv = ["bench", "--scenario", str(scn), "--workers", "1", "--reps", "1",
                "--pop", "4", "--gens", "1", "--out", str(out), flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (out / "bench.csv").exists()


    def test_bad_worker_count_exits_3_before_calibrating(self, tmp_path, capsys, monkeypatch):
        scn = run_gen(tmp_path)

        def no_simulation(*_args):
            raise AssertionError("calibrated before every worker count was checked")

        monkeypatch.setattr(evo, "calibrate_context", no_simulation)
        capsys.readouterr()
        out = tmp_path / "bench"
        argv = ["bench", "--scenario", str(scn), "--workers", "1,0", "--reps", "2",
                "--pop", "8", "--gens", "2", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "workers" in err[0]
        assert not (out / "bench.csv").exists()

    def test_repeated_worker_count_exits_2_before_calibrating(self, tmp_path, capsys, monkeypatch):
        # timings are keyed by worker count, so a repeat would drop a group
        scn = run_gen(tmp_path)

        def no_simulation(*_args):
            raise AssertionError("calibrated before the worker counts were checked")

        monkeypatch.setattr(evo, "calibrate_context", no_simulation)
        capsys.readouterr()
        out = tmp_path / "bench"
        argv = ["bench", "--scenario", str(scn), "--workers", "1,1", "--reps", "2",
                "--pop", "4", "--gens", "1", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        err = err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "workers" in err[0]
        assert not (out / "bench.csv").exists()


def test_importing_cli_does_not_load_scipy():
    # no command runs a rank test, so only the rank tests import SciPy
    src = str(Path(olsrtune.__file__).resolve().parent.parent)
    code = "import sys, olsrtune.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert out.returncode == 0


@pytest.mark.skipif(shutil.which("olsrtune") is None, reason="console script not on PATH")
def test_console_script_version():
    out = subprocess.run(["olsrtune", "--version"], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.startswith("olsrtune ")
