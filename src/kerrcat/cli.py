"""Command-line interface.

Subcommands:
  run              execute one experiment from a YAML config
  validate         parse and sanity-check a config without running it
  list-experiments show the experiment registry

Exit codes: 0 success, 2 invalid config, 3 experiment failure.

Config schema (YAML)::

    experiment: lifetime-coherent     # required, one of list-experiments
    seed: 1                           # optional, default 0
    rate_scale: 100.0                 # optional, default 1.0, must be >= 1
    output_dir: runs/lc               # optional, default runs/<experiment>
    parameters:                       # optional, experiment-specific
      alpha_sq_list: [1, 2, 4, 8]

Parameter keys carry their unit in the suffix (K_MHz, f_notch_GHz, T1_us,
kappa_full_per_us, T_half_mK); frequencies are converted internally to
angular rad/us. Unknown keys anywhere are rejected, and each parameter value
must have the type of its default (a float default also takes an int).

The experiment, parameters, seed and rate_scale are checked by
:func:`kerrcat.experiments.resolve_run`, which the library's
``run_experiment`` also applies: a bad run description raises ConfigInvalid
(exit 2) there too, before any file is written. This module checks only
what belongs to the file: that it exists and parses to a mapping with known
top-level keys, names an experiment, and gives a valid output_dir.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import yaml

from . import __version__
from .errors import ConfigInvalid, ExperimentFailed
from .control import ZENO_DRIVE_WARN_FRACTION
from .experiments import REGISTRY, _kerr_params, resolve_run, run_experiment
from .fock import default_truncation
from .model import egap_estimate
from .units import MHZ

TOP_LEVEL_KEYS = {"experiment", "seed", "rate_scale", "output_dir", "parameters"}
# a Wigner grid covers a state whose lobes sit at |beta| <= alpha when its
# extent reaches alpha plus this margin (W has fallen by e^-8 there)
WIGNER_LOBE_MARGIN = 2.0


def load_config(path: str) -> dict:
    """Read and validate a YAML config; returns the run description
    {experiment, seed, rate_scale, output_dir, parameters}, with the user's
    parameters as written (resolve_run merges them into the defaults)."""
    p = Path(path)
    if not p.is_file():
        raise ConfigInvalid(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as e:
        raise ConfigInvalid(f"config is not valid YAML: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a YAML mapping")
    unknown = set(raw) - TOP_LEVEL_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown top-level keys: {sorted(unknown)}")
    if "experiment" not in raw:
        raise ConfigInvalid("config must name an experiment")
    name = raw["experiment"]
    seed = raw.get("seed", 0)
    rate_scale = raw.get("rate_scale", 1.0)
    params = raw.get("parameters", {}) or {}
    resolve_run(name, params, seed, rate_scale)
    outdir = raw.get("output_dir", f"runs/{name}")
    if not isinstance(outdir, str) or not outdir:
        raise ConfigInvalid("output_dir must be a non-empty string")
    return {"experiment": name, "seed": seed, "rate_scale": float(rate_scale),
            "output_dir": outdir, "parameters": dict(params)}


def diagnostics(cfg: dict) -> list[str]:
    """Human-readable validation notes for a loaded config, by the rules the
    run itself applies."""
    p = resolve_run(cfg["experiment"], cfg["parameters"], cfg["seed"],
                    cfg["rate_scale"])
    out = []
    if "K_MHz" in p and "alpha_sq" in p:
        try:
            params = _kerr_params(p)
        except ValueError as e:
            raise ConfigInvalid(str(e)) from e
        need = default_truncation(params.alpha).dim
        if p.get("dim") and int(p["dim"]) < need:
            out.append(f"warning: dim={int(p['dim'])} is below the "
                       f"recommended cutoff {need} for alpha_sq="
                       f"{p['alpha_sq']}; the run will stop with "
                       "TruncationTooSmall")
        gap = egap_estimate(params)
        omega_z = MHZ * float(p.get("omega_z_MHz", 0.0))
        if gap > 0 and abs(omega_z) > ZENO_DRIVE_WARN_FRACTION * gap:
            out.append(f"warning: omega_z exceeds {ZENO_DRIVE_WARN_FRACTION:.0%} "
                       "of the estimated manifold gap 4*K*alpha_sq; expect "
                       "leakage out of the cat manifold")
    if "extent" in p and "alpha_sq" in p:
        cover = math.sqrt(float(p["alpha_sq"])) + WIGNER_LOBE_MARGIN
        if float(p["extent"]) < cover:
            out.append(f"warning: extent={p['extent']:g} does not cover the "
                       f"Wigner lobes at |beta| = sqrt(alpha_sq={p['alpha_sq']:g}); "
                       f"use extent >= {cover:g}")
    if cfg["rate_scale"] > 1.0:
        out.append(f"note: rate_scale={cfg['rate_scale']:g} multiplies every "
                   "bath rate; reported lifetimes shrink by the same factor "
                   "and must be rescaled before comparison with hardware")
    return out


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    overrides = {"seed": args.seed, "rate_scale": args.rate_scale,
                 "output_dir": args.out}
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    record = run_experiment(cfg["experiment"], cfg["parameters"], cfg["seed"],
                            cfg["rate_scale"], Path(cfg["output_dir"]))
    print(f"{cfg['experiment']}: wrote {len(record['files'])} files "
          f"to {cfg['output_dir']} in {record['wall_time_s']}s")
    for key, value in sorted(record["summaries"].items()):
        print(f"  {key}: {value}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    resolved = resolve_run(cfg["experiment"], cfg["parameters"], cfg["seed"],
                           cfg["rate_scale"])
    notes = diagnostics(cfg)
    print(f"config OK: experiment={cfg['experiment']} seed={cfg['seed']} "
          f"rate_scale={cfg['rate_scale']:g} output_dir={cfg['output_dir']}")
    for key in sorted(resolved):
        print(f"  {key}: {resolved[key]}")
    for line in notes:
        print(line)
    return 0


def cmd_list(_args) -> int:
    width = max(len(n) for n in REGISTRY)
    for name in sorted(REGISTRY):
        print(f"{name:<{width}}  {REGISTRY[name].description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrcat",
        description="Kerr-cat qubit simulations: spectra, gates, lifetimes, "
                    "readout, and filter design.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one experiment from a config")
    run.add_argument("--config", required=True, help="YAML config file")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    run.add_argument("--rate-scale", type=float, default=None,
                     dest="rate_scale",
                     help="override the config rate_scale (>= 1)")
    run.add_argument("--out", default=None, help="override output_dir")
    run.set_defaults(fn=cmd_run)

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("--config", required=True, help="YAML config file")
    val.set_defaults(fn=cmd_validate)

    lst = sub.add_parser("list-experiments", help="show available experiments")
    lst.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigInvalid as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ExperimentFailed as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
