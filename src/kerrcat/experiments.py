"""Named experiment implementations: each resolves config parameters, runs
the simulation, and writes deterministic CSV/JSON artifacts plus a run record.

Artifact rules: files are written atomically (temp file + rename); numeric
formatting is fixed at 12 significant digits so identical config+seed reruns
produce byte-identical data files; failures preserve partial artifacts under
a ``failed/`` prefix inside the output directory.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .catframe import build_cat_frame
from .control import (XGateSpec, cat_size_from_rabi, chevron_map,
                      count_transfer_lobes, rabi_frequency, simulate_z_rotation)
from .dynamics import (BathSpec, DetuningNoise, JumpTerm, build_full_dissipators,
                       default_snail, detuning_lifetime_sweep, lifetime_T_C,
                       lifetime_T_alpha, standard_bath, tc_tradeoff)
from .errors import ConfigInvalid, ExperimentFailed
from .fock import (Truncation, annihilation, cat_state, coherent_state,
                   default_truncation, wigner_grid, wigner_normalization)
from .measurement import (SpamModel, cqr_steady_amplitude, default_line,
                          default_readout, discriminate, gate_fidelity,
                          misassignment_probability, ptm_identity, ptm_rotation,
                          qndness, simulate_readout, tomography_pipeline)
from .microwave import design_notch_filter, stopband_width, sweep
from .model import KerrCatParams, kerr_cat_hamiltonian, well_excitations
from .units import MHZ

FLOAT_FMT = "%.12g"
# rabi-phase fits a rate only where the y-contrast is at least this fraction
# of the sweep's largest; below it the trace is leakage noise and the rate is 0
RABI_FIT_MIN_CONTRAST = 0.01


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return FLOAT_FMT % xf


@dataclass
class RunContext:
    """Resolved inputs plus artifact bookkeeping for one experiment run."""

    params: dict
    seed: int
    rate_scale: float
    outdir: Path
    files: list = field(default_factory=list)  # (name, sha256)
    summaries: dict = field(default_factory=dict)

    def write_csv(self, name: str, header: list, rows) -> None:
        text = ",".join(header) + "\n"
        for row in rows:
            text += ",".join(_fmt(v) for v in row) + "\n"
        self._write_bytes(name, text.encode())

    def write_json(self, name: str, payload: dict) -> None:
        self._write_bytes(name, (json.dumps(payload, indent=2, sort_keys=True)
                                 + "\n").encode())

    def _write_bytes(self, name: str, data: bytes) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)
        tmp = self.outdir / (name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, self.outdir / name)
        self.files.append((name, hashlib.sha256(data).hexdigest()))


def _kerr_params(p: dict) -> KerrCatParams:
    K = MHZ * float(p["K_MHz"])
    return KerrCatParams(K=K, eps2=float(p["alpha_sq"]) * K,
                         detuning=float(p.get("detuning_over_K", 0.0)) * K)


def _truncation(p: dict, params: KerrCatParams) -> Truncation:
    """The run's "dim" parameter if set, else the default for the cat size."""
    return Truncation(int(p["dim"]) if p.get("dim")
                      else default_truncation(params.alpha).dim)


def _full_bath_jumps(p: dict, rate_scale: float, trunc: Truncation,
                     eps2: complex) -> list:
    bath = BathSpec(kappa_half=1.0 / float(p["T1_us"]),
                    T_half=float(p["T_half_mK"]),
                    kappa_full=float(p["kappa_full_per_us"]),
                    T_full=float(p["T_full_mK"]),
                    kappa_phi=MHZ * float(p["kappa_phi_MHz"])).scaled(rate_scale)
    return build_full_dissipators(bath, default_snail(), eps2, trunc)


# ----------------------------------------------------------------- experiments

def exp_spectrum(ctx: RunContext) -> None:
    p = ctx.params
    params = _kerr_params(p)
    trunc = _truncation(p, params)
    h = kerr_cat_hamiltonian(params, trunc)
    n_levels = int(p["n_levels"])
    exc = well_excitations(h, n_levels)
    rows = [(i, exc[i], exc[i] / params.K) for i in range(exc.size)]
    ctx.write_csv("spectrum.csv",
                  ["level", "excitation_rad_per_us", "excitation_over_K"], rows)
    gap = float(exc[2] - 0.5 * (exc[0] + exc[1]))
    ctx.summaries.update({
        "tunnel_splitting_over_K": float((exc[1] - exc[0]) / params.K),
        "gap_over_K": gap / params.K,
        "gap_over_4K_alpha_sq": gap / (4.0 * params.K * params.cat_size),
    })


def exp_chevron(ctx: RunContext) -> None:
    p = ctx.params
    params = _kerr_params(p)
    trunc = _truncation(p, params)
    tgs = np.linspace(float(p["tg_min_us"]), float(p["tg_max_us"]), int(p["n_tg"]))
    d0s = np.linspace(float(p["d0k_min"]), float(p["d0k_max"]), int(p["n_d0"]))
    grid = chevron_map(params, trunc, tgs, d0s, n_gates=int(p["n_gates"]))
    rows = [(tgs[j], d0s[i], grid[i, j])
            for i in range(d0s.size) for j in range(tgs.size)]
    ctx.write_csv("chevron.csv", ["Tg_us", "delta0_over_K", "transfer_prob"], rows)
    ctx.summaries.update({
        "max_transfer": float(grid.max()),
        "lobes_above_0p5": count_transfer_lobes(grid, 0.5),
    })


def exp_rabi_phase(ctx: RunContext) -> None:
    p = ctx.params
    params = _kerr_params(p)
    trunc = _truncation(p, params)
    omega_z = MHZ * float(p["omega_z_MHz"])
    duration = float(p["duration_us"])
    thetas = np.linspace(0.0, math.pi, int(p["n_theta"]))
    frame = build_cat_frame(kerr_cat_hamiltonian(params, trunc))
    runs = [simulate_z_rotation(params, omega_z, float(th), duration, trunc,
                                n_samples=int(p["n_samples"]), frame=frame)
            for th in thetas]
    contrasts = [float(np.ptp(res.observables["y"])) for res in runs]
    min_contrast = RABI_FIT_MIN_CONTRAST * max(contrasts)
    rows = []
    for th, res, contrast in zip(thetas, runs, contrasts):
        fitted = contrast >= min_contrast > 0.0
        om = rabi_frequency(res.times, res.observables["y"]) if fitted else 0.0
        rows.append((th, om, contrast))
    ctx.write_csv("rabi_vs_phase.csv",
                  ["theta_rad", "rabi_rad_per_us", "contrast"], rows)
    ctx.write_csv("bloch_theta0.csv", ["t_us", "x", "y", "z"],
                  zip(runs[0].times, runs[0].observables["x"],
                      runs[0].observables["y"], runs[0].observables["z"]))
    om0 = rows[0][1]
    ctx.summaries.update({
        "rabi_theta0_rad_per_us": om0,
        "cat_size_from_rabi": cat_size_from_rabi(om0, omega_z),
        "target_cat_size": params.cat_size,
    })


def exp_lifetime_cat(ctx: RunContext) -> None:
    p = ctx.params
    K = MHZ * float(p["K_MHz"])
    t1 = float(p["T1_us"])
    kappa = ctx.rate_scale / t1
    rows = []
    for a2 in [float(v) for v in p["alpha_sq_list"]]:
        params = KerrCatParams(K=K, eps2=a2 * K)
        trunc = default_truncation(params.alpha)
        jumps = [JumpTerm(annihilation(trunc), kappa)]
        predicted = tc_tradeoff(t1, math.sqrt(a2)) / ctx.rate_scale
        t_c, resid = lifetime_T_C(params, jumps, t_max=2.5 * predicted,
                                  trunc=trunc)
        rows.append((a2, t_c, predicted, resid))
    ctx.write_csv("lifetime_cat.csv",
                  ["alpha_sq", "T_C_us", "predicted_us", "fit_residual"], rows)
    ctx.summaries["max_relative_error"] = max(
        abs(r[1] / r[2] - 1.0) for r in rows)


def exp_lifetime_coherent(ctx: RunContext) -> None:
    p = ctx.params
    K = MHZ * float(p["K_MHz"])
    noise = DetuningNoise(mean=float(p["delta_mean_over_K"]) * K,
                          std=float(p["delta_std_over_K"]) * K,
                          trials=int(p["trials"]), seed=ctx.seed)
    rows = []
    for a2 in [float(v) for v in p["alpha_sq_list"]]:
        params = KerrCatParams(K=K, eps2=a2 * K)
        trunc = default_truncation(params.alpha)
        jumps = _full_bath_jumps(p, ctx.rate_scale, trunc, params.eps2)
        t_a, resid = lifetime_T_alpha(params, jumps, noise,
                                      t_max=float(p["t_max_us"]), trunc=trunc)
        rows.append((a2, t_a, resid))
    ctx.write_csv("lifetime_coherent.csv",
                  ["alpha_sq", "T_alpha_us", "fit_residual"], rows)
    ts = [r[1] for r in rows]
    rises = [ts[i + 1] / ts[i] for i in range(len(ts) - 1)] if len(ts) > 1 else []
    ctx.summaries.update({
        "max_consecutive_rise": max(rises) if rises else 1.0,
        "non_monotone": bool(any(r < 1.0 for r in rises)),
    })


def exp_lifetime_detuned(ctx: RunContext) -> None:
    p = ctx.params
    params = _kerr_params(p)
    trunc = _truncation(p, params)
    jumps = _full_bath_jumps(p, ctx.rate_scale, trunc, params.eps2)
    deltas_over_k = np.linspace(float(p["delta_min_over_K"]),
                                float(p["delta_max_over_K"]), int(p["n_delta"]))
    res = detuning_lifetime_sweep(params, jumps, deltas_over_k * params.K,
                                  t_max=float(p["t_max_us"]), trunc=trunc)
    rows = list(zip(deltas_over_k, res.t_alphas, res.fit_residuals))
    ctx.write_csv("lifetime_detuned.csv",
                  ["delta_over_K", "T_alpha_us", "fit_residual"], rows)
    ctx.summaries["maxima_delta_over_K"] = [float(deltas_over_k[i])
                                            for i in res.maxima_indices]


def exp_readout_qnd(ctx: RunContext) -> None:
    p = ctx.params
    alpha = math.sqrt(float(p["alpha_sq"]))
    r = default_readout(alpha=alpha, duration=float(p["duration_us"]))
    flip_rate = 1.0 / float(p["T_alpha_us"])
    line = default_line(r)
    shots = simulate_readout(+1, r, flip_rate, int(p["shots_csv"]), ctx.seed)
    shots += simulate_readout(-1, r, flip_rate, int(p["shots_csv"]), ctx.seed + 1)
    rows = [(s.i, s.q, s.label_true, discriminate(s, line)) for s in shots]
    ctx.write_csv("shots.csv", ["i", "q", "label_true", "label_assigned"], rows)
    q = qndness(r, flip_rate, int(p["shot_pairs"]), ctx.seed + 2)
    ctx.summaries.update({
        "qndness": q,
        "misassignment_probability": misassignment_probability(r),
        "pointer_amplitude": abs(cqr_steady_amplitude(r)),
    })


def exp_tomography(ctx: RunContext) -> None:
    p = ctx.params
    spam = SpamModel(prep_p=float(p["prep_p"]),
                     meas_error=float(p["meas_error"]))
    gates = {
        "identity": ptm_identity(),
        "x90": ptm_rotation("X", math.pi / 2.0),
        "z90": ptm_rotation("Z", math.pi / 2.0),
    }
    rows = []
    for name, ideal in gates.items():
        clean = tomography_pipeline(ideal)
        noisy = tomography_pipeline(ideal, spam)
        err = float(np.max(np.abs(clean.matrix - ideal.matrix)))
        f_clean = gate_fidelity(clean, ideal)
        f_spam = gate_fidelity(noisy, ideal)
        rows.append((name, err, f_clean, f_spam))
        ctx.write_json(f"ptm_{name}.json", {
            "basis": ["I", "X", "Y", "Z"],
            "ideal": ideal.matrix.tolist(),
            "recovered": clean.matrix.tolist(),
            "recovered_with_spam": noisy.matrix.tolist(),
        })
    ctx.write_csv("fidelities.csv",
                  ["gate", "recovery_error", "fidelity_clean", "fidelity_spam"],
                  rows)
    ctx.summaries["max_recovery_error"] = max(r[1] for r in rows)
    ctx.summaries["spam_fidelities"] = {r[0]: r[3] for r in rows}


def exp_filter_sweep(ctx: RunContext) -> None:
    p = ctx.params
    elements = design_notch_filter(f_notch=float(p["f_notch_GHz"]),
                                   n_stubs=int(p["n_stubs"]),
                                   z_stub=float(p["z_stub_ohm"]),
                                   z_line=float(p["z_line_ohm"]))
    f = np.linspace(float(p["f_min_GHz"]), float(p["f_max_GHz"]),
                    int(p["n_points"]))
    sw = sweep(elements, f, z0=float(p["z0_ohm"]))
    ctx.write_csv("filter_sweep.csv", ["f_GHz", "S21_dB", "S11_dB"],
                  zip(sw["f_ghz"], sw["s21_db"], sw["s11_db"]))
    ctx.write_json("design.json", {
        "z0_ohm": float(p["z0_ohm"]),
        "elements": [{"kind": e.kind,
                      "electrical_length_at_ref_rad": e.electrical_length_at_ref,
                      "impedance_ohm": e.impedance,
                      "f_ref_GHz": e.f_ref} for e in elements],
    })
    i_notch = int(np.argmin(np.abs(f - float(p["f_notch_GHz"]))))
    ctx.summaries.update({
        "notch_depth_db": float(sw["s21_db"][i_notch]),
        "stopband_30db_GHz": stopband_width(f, sw["s21_db"],
                                            float(p["f_notch_GHz"])),
        "max_unitarity_defect": float(sw["unitarity_defect"].max()),
    })


def exp_wigner(ctx: RunContext) -> None:
    p = ctx.params
    alpha = math.sqrt(float(p["alpha_sq"]))
    trunc = default_truncation(alpha)
    kind = str(p["state"])
    if kind == "even_cat":
        state = cat_state(alpha, "even", trunc)
    elif kind == "odd_cat":
        state = cat_state(alpha, "odd", trunc)
    elif kind == "coherent":
        state = coherent_state(alpha, trunc)
    else:
        raise ConfigInvalid(f"unknown state {kind!r} "
                            "(use even_cat, odd_cat, or coherent)")
    extent = float(p["extent"])
    n = int(p["n_grid"])
    grid = np.linspace(-extent, extent, n)
    W = wigner_grid(state, grid, grid)
    rows = [(grid[ix], grid[iy], W[iy, ix]) for iy in range(n) for ix in range(n)]
    ctx.write_csv("wigner.csv", ["re_beta", "im_beta", "W"], rows)
    ctx.summaries.update({
        "normalization": wigner_normalization(W, grid, grid),
        "w_at_origin_times_pi_over_2": float(W[n // 2, n // 2] * math.pi / 2.0),
    })


# ----------------------------------------------------------------- registry

@dataclass(frozen=True)
class ExperimentDef:
    runner: object
    defaults: dict
    description: str


REGISTRY: dict[str, ExperimentDef] = {
    "spectrum": ExperimentDef(exp_spectrum, {
        "K_MHz": 1.2, "alpha_sq": 4.0, "detuning_over_K": 0.0,
        "dim": 0, "n_levels": 10,
    }, "Level ladder of the double well: excitation energies below the cat pair."),
    "chevron": ExperimentDef(exp_chevron, {
        "K_MHz": 1.2, "alpha_sq": 4.0, "tg_min_us": 0.1, "tg_max_us": 0.5,
        "n_tg": 21, "d0k_min": -12.0, "d0k_max": 0.0, "n_d0": 25,
        "n_gates": 2, "dim": 0,
    }, "Two-gate pointer transfer over (Tg, delta0/K)."),
    "rabi-phase": ExperimentDef(exp_rabi_phase, {
        "K_MHz": 1.2, "alpha_sq": 4.0, "omega_z_MHz": 0.159154943092,
        "duration_us": 10.0, "n_theta": 9, "n_samples": 1001, "dim": 0,
    }, "Manifold Rabi rate and contrast versus drive phase."),
    "lifetime-cat": ExperimentDef(exp_lifetime_cat, {
        "K_MHz": 1.2, "T1_us": 38.5, "alpha_sq_list": [1.0, 2.0, 4.0],
    }, "Superposition lifetime T_C under pure loss versus the trade-off formula."),
    "lifetime-coherent": ExperimentDef(exp_lifetime_coherent, {
        "K_MHz": 1.2, "T1_us": 38.5, "T_half_mK": 73.5,
        "kappa_full_per_us": 7.0, "T_full_mK": 515.0, "kappa_phi_MHz": 1e-4,
        "alpha_sq_list": [1.0, 2.0, 4.0, 8.0], "delta_mean_over_K": 0.03,
        "delta_std_over_K": 0.002, "trials": 1, "t_max_us": 40.0,
    }, "Pointer lifetime T_alpha versus cat size under the full bath."),
    "lifetime-detuned": ExperimentDef(exp_lifetime_detuned, {
        "K_MHz": 1.2, "alpha_sq": 4.0, "T1_us": 38.5, "T_half_mK": 73.5,
        "kappa_full_per_us": 7.0, "T_full_mK": 515.0, "kappa_phi_MHz": 1e-4,
        "delta_min_over_K": 0.0, "delta_max_over_K": 6.0, "n_delta": 13,
        "t_max_us": 30.0, "dim": 0,
    }, "T_alpha versus static detuning; flags the even-multiple revival peaks."),
    "readout-qnd": ExperimentDef(exp_readout_qnd, {
        "alpha_sq": 4.0, "T_alpha_us": 600.0, "duration_us": 4.0,
        "shots_csv": 2000, "shot_pairs": 100000,
    }, "IQ shot cloud and QNDness from consecutive measurement pairs."),
    "tomography": ExperimentDef(exp_tomography, {
        "prep_p": 0.93, "meas_error": 0.0,
    }, "Process tomography of identity/X90/Z90 with and without SPAM."),
    "filter-sweep": ExperimentDef(exp_filter_sweep, {
        "f_notch_GHz": 5.9, "n_stubs": 4, "z_stub_ohm": 65.0,
        "z_line_ohm": 65.0, "z0_ohm": 50.0, "f_min_GHz": 0.5,
        "f_max_GHz": 13.0, "n_points": 4001,
    }, "Stub-filter S-parameters over frequency."),
    "wigner": ExperimentDef(exp_wigner, {
        "alpha_sq": 4.0, "state": "even_cat", "extent": 4.0, "n_grid": 81,
    }, "Wigner function of a cat/coherent state on a square grid."),
}


def run_experiment(name: str, params: dict, seed: int, rate_scale: float,
                   outdir: Path) -> dict:
    """Execute one experiment; returns the run record (also written as
    record.json). Partial artifacts from a failed run are preserved under
    outdir/failed/."""
    if name not in REGISTRY:
        raise ConfigInvalid(f"unknown experiment {name!r}")
    exp = REGISTRY[name]
    resolved = dict(exp.defaults)
    unknown = set(params) - set(exp.defaults)
    if unknown:
        raise ConfigInvalid(f"unknown parameter keys for {name}: {sorted(unknown)}")
    resolved.update(params)
    outdir = Path(outdir)
    ctx = RunContext(params=resolved, seed=seed, rate_scale=rate_scale,
                     outdir=outdir)
    t0 = time.monotonic()
    try:
        exp.runner(ctx)
    except Exception as e:
        if ctx.files:
            failed = outdir / "failed"
            failed.mkdir(parents=True, exist_ok=True)
            for fname, _ in ctx.files:
                src = outdir / fname
                if src.exists():
                    os.replace(src, failed / fname)
        if isinstance(e, ConfigInvalid):
            raise
        raise ExperimentFailed(f"experiment {name} failed: {e}") from e
    record = {
        "experiment": name,
        "version": __version__,
        "seed": seed,
        "rate_scale": rate_scale,
        "parameters": resolved,
        "files": [{"name": n, "sha256": h} for n, h in ctx.files],
        "summaries": ctx.summaries,
        "wall_time_s": round(time.monotonic() - t0, 3),
    }
    ctx.write_json("record.json", record)
    return record
