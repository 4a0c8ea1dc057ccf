"""Golden digests of a small gen -> simulate -> tune -> validate chain,
and of a `tune --grid` run on the same scenario.

The digests pin every byte of the primary outputs, so a refactor that
changes behaviour, number formatting or field order shows up here. If a
change is meant to alter outputs, record the new digests in the same
change and say why.
"""

import hashlib
import json

from olsrtune.cli import main

GEN = [
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
    "--seed", "4",
    "--name", "golden",
]

# written out by hand so the test does not depend on the serialiser it guards
CONFIG = {
    "hello_interval": 3.5,
    "refresh_interval": 2.5,
    "tc_interval": 9.0,
    "willingness": 5,
    "neighb_hold_time": 12.0,
    "mid_hold_time": 20.0,
    "top_hold_time": 30.0,
    "dup_hold_time": 45.0,
}

GOLDEN = {
    "simulate/metrics.csv": "1925768d77fd60521397e50cd3ff0bd4a2a0524e4eb2dcb52626ede042f1e7b5",
    "simulate/metrics.json": "36752e4d3f2159100545aa2977ccedd1966fd4339bacf8b0eff39b53e6b44eeb",
    "tune/best_config.json": "6867cbc0f05842a68425b74d131851415fb8549ee07db6dc01423c517de238e8",
    "tune/history.csv": "af94cf090477448880fc8f9b938eb9dda46d0e463d168a203b33027be5e5dd68",
    "validate/report.csv": "73fe1ef0e5beb4102a01b2831a566bb31494aa8803a0dff837b8677db900800c",
    "validate/report.txt": "afac6962880d3a0efba847be91df50cfa9850f31eb0b090c527938f99d878e4d",
    "grid/grid.csv": "c94c2c71c97cadfd6ba6c8803ff27d539fb2d7bdd6969dbc2c92db6c22c800a0",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_chain_outputs_match_golden_digests(tmp_path):
    scen_dir = tmp_path / "scen"
    assert main(GEN + ["--out", str(scen_dir)]) == 0
    scn = scen_dir / "golden.json"
    cfg_path = tmp_path / "handmade.json"
    cfg_path.write_text(json.dumps(CONFIG))

    argv = ["simulate", "--scenario", str(scn), "--config", str(cfg_path),
            "--compare-rfc", "--seed", "5", "--out", str(tmp_path / "simulate")]
    assert main(argv) == 0
    argv = ["tune", "--scenario", str(scn), "--pop", "4", "--gens", "1",
            "--seed", "6", "--out", str(tmp_path / "tune")]
    assert main(argv) == 0
    argv = ["validate", "--scenarios", str(scen_dir), "--rfc",
            "--config", str(cfg_path), "--config", str(tmp_path / "tune" / "best_config.json"),
            "--seeds", "1,2", "--out", str(tmp_path / "validate")]
    assert main(argv) == 0
    argv = ["tune", "--scenario", str(scn), "--grid", "--grid-pc", "0.5,0.9", "--grid-pm", "0.1",
            "--reps", "2", "--pop", "4", "--gens", "1", "--seed", "6",
            "--out", str(tmp_path / "grid")]
    assert main(argv) == 0

    digests = {name: _sha256(tmp_path / name) for name in GOLDEN}
    assert digests == GOLDEN
