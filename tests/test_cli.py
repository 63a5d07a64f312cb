"""CLI config handling, exit codes, artifact writing, and determinism."""
import dataclasses
import hashlib
import json
import math
import subprocess
import sys

import pytest

from kerrcat import cli
from kerrcat.errors import ConfigInvalid
from kerrcat.experiments import REGISTRY, resolve_run, run_experiment


def write_cfg(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------- config loading

def test_load_config_defaults(tmp_path):
    cfg = cli.load_config(write_cfg(tmp_path, "experiment: filter-sweep\n"))
    assert cfg == {"experiment": "filter-sweep", "seed": 0, "rate_scale": 1.0,
                   "output_dir": "runs/filter-sweep", "parameters": {}}


def test_load_config_full(tmp_path):
    text = ("experiment: wigner\nseed: 11\nrate_scale: 2\n"
            "output_dir: out/wig\nparameters:\n  n_grid: 21\n  extent: 3.0\n")
    cfg = cli.load_config(write_cfg(tmp_path, text))
    assert cfg["seed"] == 11
    assert cfg["rate_scale"] == 2.0
    assert cfg["output_dir"] == "out/wig"
    assert cfg["parameters"] == {"n_grid": 21, "extent": 3.0}


@pytest.mark.parametrize("text,fragment", [
    ("- just\n- a list\n", "mapping"),
    ("experiment: filter-sweep\nbogus: 1\n", "unknown top-level"),
    ("seed: 1\n", "must name an experiment"),
    ("experiment: warp-drive\n", "unknown experiment"),
    ("experiment: wigner\nseed: -1\n", "seed"),
    ("experiment: wigner\nseed: true\n", "seed"),
    ("experiment: wigner\nseed: x\n", "seed"),
    ("experiment: wigner\nrate_scale: 0.5\n", "rate_scale"),
    ("experiment: wigner\nrate_scale: fast\n", "rate_scale"),
    ("experiment: wigner\nparameters: [1, 2]\n", "parameters"),
    ("experiment: wigner\nparameters:\n  bogus_knob: 1\n", "unknown parameter"),
    ("experiment: lifetime-cat\nparameters:\n  alpha_sq_list: 4\n", "a list"),
    ("experiment: wigner\nparameters:\n  extent: [1, 2]\n", "a scalar"),
    ("experiment: wigner\noutput_dir: ''\n", "output_dir"),
])
def test_load_config_rejections(tmp_path, text, fragment):
    with pytest.raises(ConfigInvalid, match=fragment):
        cli.load_config(write_cfg(tmp_path, text))


def test_load_config_missing_and_unparsable(tmp_path):
    with pytest.raises(ConfigInvalid, match="not found"):
        cli.load_config(str(tmp_path / "nope.yaml"))
    with pytest.raises(ConfigInvalid, match="valid YAML"):
        cli.load_config(write_cfg(tmp_path, "a: [unclosed\n"))


# ---------------------------------------------------------------- diagnostics

def test_diagnostics_low_dim_and_rate_scale(tmp_path):
    cfg = cli.load_config(write_cfg(
        tmp_path, "experiment: spectrum\nrate_scale: 50\n"
                  "parameters:\n  dim: 5\n"))
    notes = cli.diagnostics(cfg)
    assert any("below the recommended cutoff" in n for n in notes)
    assert any("rate_scale=50" in n for n in notes)


def test_diagnostics_strong_zeno_drive(tmp_path):
    cfg = cli.load_config(write_cfg(
        tmp_path, "experiment: rabi-phase\nparameters:\n  omega_z_MHz: 3.0\n"))
    assert any("manifold gap" in n for n in cli.diagnostics(cfg))
    quiet = cli.load_config(write_cfg(tmp_path, "experiment: rabi-phase\n",
                                      name="quiet.yaml"))
    assert cli.diagnostics(quiet) == []


def test_validate_warns_when_the_wigner_grid_misses_the_lobes(tmp_path, capsys):
    # the lobes of alpha_sq = 25 sit at |beta| = 5, past the default extent 4
    far = write_cfg(tmp_path, "experiment: wigner\nparameters:\n  alpha_sq: 25.0\n")
    assert cli.main(["validate", "--config", far]) == 0
    out = capsys.readouterr().out
    assert "warning: extent=4 does not cover the Wigner lobes" in out
    assert "use extent >= 7" in out
    near = write_cfg(tmp_path, "experiment: wigner\n", name="near.yaml")
    assert cli.diagnostics(cli.load_config(near)) == []


# ------------------------------------------------------------------ main/exit

def test_main_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path, "experiment: warp-drive\n")
    assert cli.main(["run", "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err
    ok = write_cfg(tmp_path, "experiment: filter-sweep\n", name="ok.yaml")
    assert cli.main(["validate", "--config", ok]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out and "f_notch_GHz" in out


def test_main_run_writes_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment: filter-sweep\n")
    outdir = tmp_path / "art"
    assert cli.main(["run", "--config", cfg, "--out", str(outdir)]) == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "stopband" in stdout
    record = json.loads((outdir / "record.json").read_text())
    assert record["experiment"] == "filter-sweep"
    names = {f["name"] for f in record["files"]}
    assert names == {"filter_sweep.csv", "design.json"}
    for entry in record["files"]:
        digest = hashlib.sha256((outdir / entry["name"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_main_run_seed_and_rate_scale_override(tmp_path):
    cfg = write_cfg(tmp_path, "experiment: readout-qnd\nseed: 1\n"
                              "parameters:\n  shots_csv: 50\n"
                              "  shot_pairs: 200\n")
    out = tmp_path / "r"
    assert cli.main(["run", "--config", cfg, "--seed", "9",
                     "--rate-scale", "2", "--out", str(out)]) == 0
    record = json.loads((out / "record.json").read_text())
    assert record["seed"] == 9
    assert record["rate_scale"] == 2.0
    assert cli.main(["run", "--config", cfg, "--seed", "-3",
                     "--out", str(out)]) == 2
    assert cli.main(["run", "--config", cfg, "--rate-scale", "0.2",
                     "--out", str(out)]) == 2


def test_main_run_invalid_parameter_value_is_config_error(tmp_path):
    # structurally valid config whose value fails experiment validation
    cfg = write_cfg(tmp_path, "experiment: wigner\nparameters:\n"
                              "  state: squeezed\n  n_grid: 5\n")
    assert cli.main(["run", "--config", cfg, "--out",
                     str(tmp_path / "w")]) == 2


@pytest.mark.parametrize("name,params,seed,rate_scale,fragment", [
    ("lifetime-cat", {"alpha_sq_list": 4.0}, 0, 1.0, "a list"),
    ("spectrum", {"alpha_sq": [4.0]}, 0, 1.0, "a scalar"),
    ("wigner", {"bogus_knob": 1}, 0, 1.0, "unknown parameter"),
    ("warp-drive", {}, 0, 1.0, "unknown experiment"),
    ("wigner", {}, -1, 1.0, "seed"),
    ("wigner", {}, 0, 0.5, "rate_scale"),
    ("spectrum", {"dim": "abc"}, 0, 1.0, "dim must be a scalar integer"),
    ("lifetime-cat", {"alpha_sq_list": [1.0, "x"]}, 0, 1.0, "a list of numbers"),
    ("chevron", {"n_tg": True}, 0, 1.0, "n_tg must be a scalar integer"),
    ("wigner", {"state": 3}, 0, 1.0, "state must be a scalar string"),
])
def test_run_experiment_rejects_config_errors(tmp_path, name, params, seed,
                                              rate_scale, fragment):
    # the library applies the config checks of the CLI, before any file
    with pytest.raises(ConfigInvalid, match=fragment):
        run_experiment(name, params, seed, rate_scale, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_resolve_run_accepts_the_registry_defaults():
    # every default's type has a rule, and every default passes it
    for name, exp in REGISTRY.items():
        assert resolve_run(name, dict(exp.defaults), 0, 1.0) == exp.defaults


def test_main_non_numeric_value_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment: spectrum\nparameters:\n  dim: abc\n")
    assert cli.main(["validate", "--config", cfg]) == 2
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.count("dim must be a scalar integer") == 2
    assert not (tmp_path / "s").exists()


def test_main_runtime_failure_quarantines(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, "experiment: wigner\nparameters:\n  n_grid: 9\n")
    outdir = tmp_path / "q"

    real = REGISTRY["wigner"]

    def exploding(ctx):
        real.runner(ctx)
        raise RuntimeError("synthetic failure after writing")

    monkeypatch.setitem(REGISTRY, "wigner",
                        dataclasses.replace(real, runner=exploding))
    assert cli.main(["run", "--config", cfg, "--out", str(outdir)]) == 3
    assert "synthetic failure" in capsys.readouterr().err
    assert (outdir / "failed" / "wigner.csv").is_file()
    assert not (outdir / "record.json").exists()


def test_list_experiments(capsys):
    assert cli.main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in REGISTRY:
        assert name in out
    assert len(out.strip().splitlines()) == len(REGISTRY)


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "kerrcat", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "kerrcat" in proc.stdout


# --------------------------------------------------------------- determinism

def test_rerun_is_byte_identical(tmp_path):
    params = {"n_grid": 15, "extent": 2.5, "state": "even_cat"}
    rec1 = run_experiment("wigner", params, 3, 1.0, tmp_path / "a")
    rec2 = run_experiment("wigner", params, 3, 1.0, tmp_path / "b")
    assert [f["sha256"] for f in rec1["files"]] == \
        [f["sha256"] for f in rec2["files"]]
    for entry in rec1["files"]:
        b1 = (tmp_path / "a" / entry["name"]).read_bytes()
        b2 = (tmp_path / "b" / entry["name"]).read_bytes()
        assert b1 == b2
    r1 = {k: v for k, v in rec1.items() if k != "wall_time_s"}
    r2 = {k: v for k, v in rec2.items() if k != "wall_time_s"}
    assert r1 == r2


def test_library_and_cli_write_the_same_record(tmp_path):
    run_experiment("tomography", {}, 0, 1, tmp_path / "lib")
    cfg = write_cfg(tmp_path, "experiment: tomography\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "cli")]) == 0
    texts = []
    for d in ("lib", "cli"):
        record = json.loads((tmp_path / d / "record.json").read_text())
        record.pop("wall_time_s")
        texts.append(json.dumps(record))  # text, so that 1 and 1.0 differ
    assert texts[0] == texts[1]


def test_seed_changes_shot_artifacts(tmp_path):
    params = {"shots_csv": 40, "shot_pairs": 100}
    rec1 = run_experiment("readout-qnd", params, 1, 1.0, tmp_path / "s1")
    rec2 = run_experiment("readout-qnd", params, 2, 1.0, tmp_path / "s2")
    h1 = next(f["sha256"] for f in rec1["files"] if f["name"] == "shots.csv")
    h2 = next(f["sha256"] for f in rec2["files"] if f["name"] == "shots.csv")
    assert h1 != h2


# ------------------------------------------------------------- experiments

def test_rabi_phase_rate_follows_cos_theta(tmp_path):
    # the Zeno Rabi rate is Omega(0)|cos theta|: symmetric about pi/2, where
    # only leakage noise is left and the rate reads 0
    run_experiment("rabi-phase", {}, 1, 1.0, tmp_path)
    lines = (tmp_path / "rabi_vs_phase.csv").read_text().splitlines()[1:]
    rows = [tuple(float(x) for x in line.split(",")) for line in lines]
    thetas = [r[0] for r in rows]
    rates = [r[1] for r in rows]
    assert rates[0] == pytest.approx(4.0, rel=1e-3)
    assert rates == pytest.approx(rates[::-1], rel=1e-6)
    assert rates[len(rates) // 2] == 0.0
    for th, om in zip(thetas, rates):
        assert om == pytest.approx(rates[0] * abs(math.cos(th)), abs=1e-3)
