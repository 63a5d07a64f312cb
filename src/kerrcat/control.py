"""Gate protocols on the stabilized cat qubit.

X rotations come from deforming the double well with a phase-modulated drive
(an effective time-dependent detuning); Z rotations from a weak resonant
drive projected into the manifold.

Every protocol runs through the two evolution entry points of
:mod:`kerrcat.dynamics`: ``evolve_ket`` for kets (exact under a constant
Hamiltonian, CF4 on the envelope grid of a schedule) and ``evolve`` for
density matrices (CF4 in real arithmetic). The gate chevron calls the CF4
integrator directly, to advance every cell as one block of kets, a column
group per gate time on its own envelope grid.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .catframe import CatFrame, build_cat_frame
from .dynamics import EvolutionResult, Schedule, _cf4, evolve, evolve_ket
from .errors import OutOfWindow, ZeroDrive
from .fock import (DensityMatrix, Ket, Operator, Truncation, annihilation,
                   number_operator)
from .model import KerrCatParams, egap_estimate, kerr_cat_hamiltonian

SAMPLE_PERIOD = 1e-3  # us (1 ns): envelope grid of the gate
ZENO_DRIVE_WARN_FRACTION = 0.1


@dataclass(frozen=True)
class XGateSpec:
    """Phase-modulation X(pi/2) gate: duration Tg, detuning depth delta0,
    Gaussian branch width sigma (defaults to Tg/4)."""

    Tg: float
    delta0: float
    sigma: float | None = None

    def __post_init__(self):
        if self.Tg <= 0:
            raise ValueError("Tg must be positive")
        if self.sigma is None:
            object.__setattr__(self, "sigma", self.Tg / 4.0)
        elif self.sigma <= 0:
            raise ValueError("sigma must be positive")


def _pulse_arrays(spec: XGateSpec, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(delta_d(t), d delta_d/dt) with the analytic per-branch derivative."""
    Tg, sig, d0 = spec.Tg, spec.sigma, spec.delta0
    tb = Tg / 3.0
    f = np.exp(-((t - tb) ** 2) / (2.0 * sig ** 2))
    fT = math.exp(-((Tg - tb) ** 2) / (2.0 * sig ** 2))
    sine_branch = t <= tb
    delta = np.where(sine_branch,
                     -np.sin(3.0 * np.pi * t / (2.0 * Tg)),
                     -(f / (1.0 - fT)) * (f - fT)) * d0
    ddot = np.where(sine_branch,
                    -np.cos(3.0 * np.pi * t / (2.0 * Tg)) * (3.0 * np.pi / (2.0 * Tg)),
                    -(1.0 / (1.0 - fT)) * (2.0 * f - fT)
                    * (-(t - tb) / sig ** 2) * f) * d0
    return delta, ddot


def phase_modulation_pulse(spec: XGateSpec, t) -> np.ndarray | float:
    """Drive-phase detuning waveform delta_d(t): a negative sine lobe up to
    Tg/3, then a Gaussian relaxation that returns to zero at Tg.

    Raises OutOfWindow for t outside [0, Tg].
    """
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0) or np.any(tt > spec.Tg):
        raise OutOfWindow(f"t outside [0, {spec.Tg}]")
    delta, _ = _pulse_arrays(spec, np.atleast_1d(tt))
    return float(delta[0]) if np.isscalar(t) else delta.reshape(tt.shape)


def effective_detuning(spec: XGateSpec, t) -> np.ndarray | float:
    """Frame-induced detuning -(1/2)(delta_d + t * d delta_d/dt)."""
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0) or np.any(tt > spec.Tg):
        raise OutOfWindow(f"t outside [0, {spec.Tg}]")
    delta, ddot = _pulse_arrays(spec, np.atleast_1d(tt))
    val = -0.5 * (delta + np.atleast_1d(tt) * ddot)
    return float(val[0]) if np.isscalar(t) else val.reshape(tt.shape)


def x_gate_schedule(spec: XGateSpec, params: KerrCatParams,
                    trunc: Truncation) -> Schedule:
    """Schedule for one gate: H_KC + effective_detuning(t) * a†a, sampled
    every SAMPLE_PERIOD."""
    nsamp = max(3, int(math.ceil(spec.Tg / SAMPLE_PERIOD)) + 1)
    t = np.linspace(0.0, spec.Tg, nsamp)
    env = effective_detuning(spec, t).astype(np.complex128)
    h0 = kerr_cat_hamiltonian(params, trunc)
    return Schedule(h0=h0,
                    envelopes=[(env, 0.5 * number_operator(trunc))],
                    dt=t[1] - t[0], t0=0.0)


def simulate_x_gate(spec: XGateSpec, params: KerrCatParams, trunc: Truncation,
                    state0, jumps: list | None = None, n_samples: int = 2,
                    observables: dict | None = None) -> EvolutionResult:
    """Evolve a Ket (closed system) or DensityMatrix (with optional jumps)
    through one gate window [0, Tg]."""
    sched = x_gate_schedule(spec, params, trunc)
    times = np.linspace(0.0, spec.Tg, max(2, n_samples))
    if isinstance(state0, Ket):
        if jumps:
            state0 = state0.to_density_matrix()
        else:
            return evolve_ket(state0, sched, times, observables)
    if not isinstance(state0, DensityMatrix):
        raise TypeError(f"state0 must be Ket or DensityMatrix, got {type(state0)}")
    return evolve(state0, sched, jumps or [], times, observables)


def x_gate_transfer(spec: XGateSpec, params: KerrCatParams, trunc: Truncation,
                    n_gates: int = 2, frame: CatFrame | None = None) -> float:
    """Pointer-transfer probability |<w-| U^n |w+>|² for n successive gates
    (closed system). Two ideal X(pi/2) gates flip the pointer."""
    if frame is None:
        frame = build_cat_frame(kerr_cat_hamiltonian(params, trunc))
    sched = x_gate_schedule(spec, params, trunc)
    times = np.array([0.0, spec.Tg])
    psi = frame.w_plus
    for _ in range(n_gates):
        psi = evolve_ket(psi, sched, times).final_ket.normalized()
    return float(abs(frame.w_minus.overlap(psi)) ** 2)


def chevron_map(params: KerrCatParams, trunc: Truncation, tg_grid, delta0_over_k_grid,
                n_gates: int = 2) -> np.ndarray:
    """Transfer probability over (Tg, delta0/K); rows index delta0, columns Tg.

    Each cell equals x_gate_transfer. The gate envelope is linear in delta0,
    and every Tg has its own envelope grid, so each gate advances every cell
    at once, as one block of kets in one CF4 run: a column group of all
    delta0 per Tg, each on its own grid (see _cf4).
    """
    frame = build_cat_frame(kerr_cat_hamiltonian(params, trunc))
    tg_grid = np.asarray(tg_grid, float)
    d0_grid = np.asarray(delta0_over_k_grid, float)
    groups = []
    for tg in tg_grid:
        sched = x_gate_schedule(XGateSpec(Tg=float(tg), delta0=params.K), params, trunc)
        (unit_env, _), = sched.envelopes
        groups.append((sched, np.array([0.0, tg]), [np.outer(d0_grid, unit_env.real)]))
    # column j * d0_grid.size + i is the cell (delta0_i, Tg_j)
    psi = np.repeat(frame.w_plus.amp[:, None], tg_grid.size * d0_grid.size, axis=1)
    for _ in range(n_gates if psi.size else 0):
        ends = {g: state for g, state, _, _ in _cf4(groups, psi)}
        psi = np.concatenate([ends[g] for g in range(len(groups))], axis=1)
        psi = psi / np.linalg.norm(psi, axis=0)
    transfer = np.abs(frame.w_minus.amp.conj() @ psi) ** 2
    return transfer.reshape(tg_grid.size, d0_grid.size).T


def count_transfer_lobes(transfer: np.ndarray, threshold: float = 0.5) -> int:
    """Number of 4-connected regions with transfer above threshold."""
    from scipy import ndimage  # on first use: it adds ~70 ms to importing kerrcat
    return int(ndimage.label(transfer > threshold)[1])


def simulate_z_rotation(params: KerrCatParams, omega_z: float, theta_z: float,
                        duration: float, trunc: Truncation, n_samples: int = 501,
                        frame: CatFrame | None = None) -> EvolutionResult:
    """Weak resonant drive (omega_z e^{i theta_z}/2) a† + h.c. on top of H_KC,
    starting from the even cat frame.v_even; records cat-frame Bloch
    components x, y, z.

    Warns when omega_z exceeds 10% of the manifold gap estimate 4 K alpha².
    """
    gap = egap_estimate(params)
    if gap > 0 and abs(omega_z) > ZENO_DRIVE_WARN_FRACTION * gap:
        warnings.warn(f"drive {omega_z:.3g} above {ZENO_DRIVE_WARN_FRACTION:.0%} "
                      f"of the manifold gap {gap:.3g}; leakage expected",
                      stacklevel=2)
    h = kerr_cat_hamiltonian(params, trunc)
    if frame is None:
        frame = build_cat_frame(h)
    a = annihilation(trunc).mat
    drive = omega_z * np.exp(1j * theta_z)
    hd = Operator(h.mat + (drive / 2.0) * a.conj().T
                  + (np.conj(drive) / 2.0) * a, trunc, hermitian_hint=True)
    times = np.linspace(0.0, duration, n_samples)
    return evolve_ket(frame.v_even, hd, times,
                      {"x": frame.x, "y": frame.y, "z": frame.z})


def rabi_frequency(times: np.ndarray, signal: np.ndarray) -> float:
    """Angular oscillation frequency of a sampled sinusoid: frequency and
    phase seeded from the FFT peak bin, then least-squares sinusoid
    refinement with the analytic Jacobian (a finite-difference one moved
    the rate by ~4e-9 relative under round-off in the signal)."""
    from scipy.optimize import curve_fit  # on first use, as in fit_exponential
    times = np.asarray(times, float)
    signal = np.asarray(signal, float)
    y = signal - signal.mean()
    freqs = np.fft.rfftfreq(times.size, times[1] - times[0])
    spectrum = np.fft.rfft(y)
    spectrum[0] = 0.0
    peak = int(np.argmax(np.abs(spectrum)))
    om0 = 2.0 * math.pi * float(freqs[peak])
    # bin k of sin(om t + ph) sampled from t0 has phase om t0 + ph - pi/2
    ph0 = float(np.angle(spectrum[peak])) + 0.5 * math.pi - om0 * times[0]

    def model(t, amp, om, ph, c):
        return amp * np.sin(om * t + ph) + c

    def jac(t, amp, om, ph, c):  # d/d(amp, om, ph, c) of model
        s, co = np.sin(om * t + ph), amp * np.cos(om * t + ph)
        return np.stack([s, t * co, co, np.ones_like(t)], axis=1)

    try:
        p, _ = curve_fit(model, times, signal,
                         p0=[0.5 * (signal.max() - signal.min()),
                             max(om0, 1e-3), ph0, signal.mean()],
                         jac=jac, maxfev=20000)
        return float(abs(p[1]))
    except RuntimeError:
        return om0


def cat_size_from_rabi(omega_c: float, omega_z: float) -> float:
    """alpha² inferred from the manifold Rabi splitting: (omega_c/2 omega_z)²."""
    if omega_z <= 0:
        raise ZeroDrive("omega_z must be positive")
    return (omega_c / (2.0 * omega_z)) ** 2
