"""Gate protocols on the stabilized cat qubit.

X rotations come from deforming the double well with a phase-modulated drive
(an effective time-dependent detuning) or from free Kerr evolution with the
stabilization off; Z rotations from a weak resonant drive projected into the
manifold; state preparation from ramping the stabilization drive.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .catframe import CatFrame, build_cat_frame
from .dynamics import EvolutionResult, Schedule, _cf4, evolve, evolve_ket
from .errors import OutOfWindow, ZeroDrive
from .fock import (DensityMatrix, Ket, Operator, Truncation, annihilation,
                   cat_state, coherent_state, default_truncation, fock_state,
                   number_operator, parity_operator)
from .model import KerrCatParams, kerr_cat_hamiltonian

DEFAULT_SAMPLE_PERIOD = 1e-3  # us (1 ns)
RAMP_SATURATION = math.atanh(0.999)
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


def x_gate_schedule(spec: XGateSpec, params: KerrCatParams, trunc: Truncation,
                    sample_period: float = DEFAULT_SAMPLE_PERIOD) -> Schedule:
    """Schedule for one gate: H_KC + effective_detuning(t) * a†a."""
    nsamp = max(3, int(math.ceil(spec.Tg / sample_period)) + 1)
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
    so each Tg column integrates all delta0 at once as one block of kets on
    a shared envelope grid.
    """
    frame = build_cat_frame(kerr_cat_hamiltonian(params, trunc))
    tg_grid = np.asarray(tg_grid, float)
    d0_grid = np.asarray(delta0_over_k_grid, float)
    out = np.empty((d0_grid.size, tg_grid.size))
    start = np.repeat(frame.w_plus.amp[:, None], d0_grid.size, axis=1)
    for j, tg in enumerate(tg_grid):
        times = np.array([0.0, tg])
        sched = x_gate_schedule(XGateSpec(Tg=float(tg), delta0=params.K), params, trunc)
        (unit_env, _), = sched.envelopes
        envs = (d0_grid[:, None] * unit_env)[None]
        psi = start
        for _ in range(n_gates):
            psi, _ = next(_cf4(sched, times, psi, envs=envs))
            psi = psi / np.linalg.norm(psi, axis=0)
        out[:, j] = np.abs(frame.w_minus.amp.conj() @ psi) ** 2
    return out


def count_transfer_lobes(transfer: np.ndarray, threshold: float = 0.5) -> int:
    """Number of 4-connected regions with transfer above threshold."""
    from scipy import ndimage  # on first use: it adds ~70 ms to importing kerrcat
    return int(ndimage.label(transfer > threshold)[1])


def kerr_free_flight_gate(K: float, trunc: Truncation, state0,
                          n_samples: int = 2,
                          observables: dict | None = None) -> EvolutionResult:
    """Free evolution under -K a†²a² for exactly pi/(2K).

    The generator is diagonal in the number basis, so the propagator is the
    exact phase diag(exp(i K t n(n-1))); a coherent state evolves into an
    equal superposition of two rotated coherent branches. A Ket is
    normalized first, and its final state is also returned as final_ket.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    duration = math.pi / (2.0 * K)
    n = np.arange(trunc.dim, dtype=float)
    phases = n * (n - 1.0)
    times = np.linspace(0.0, duration, max(2, n_samples))
    observables = observables or {}

    if not isinstance(state0, (Ket, DensityMatrix)):
        raise TypeError(f"state0 must be Ket or DensityMatrix, got {type(state0)}")
    is_ket = isinstance(state0, Ket)
    start = state0.normalized().amp if is_ket else state0.mat
    series = {name: [] for name in observables}
    for t in times:
        u = np.exp(1j * K * float(t) * phases)
        state = u * start if is_ket else (u[:, None] * start) * u.conj()[None, :]
        for name, op in observables.items():
            value = np.vdot(state, op.mat @ state) if is_ket else np.trace(op.mat @ state)
            series[name].append(float(np.real(value)))
    final_ket = Ket(state, trunc) if is_ket else None
    final = final_ket.to_density_matrix() if is_ket else DensityMatrix(state, trunc)
    return EvolutionResult(times=times,
                           observables={k: np.asarray(v) for k, v in series.items()},
                           final_state=final, nsteps=0, trace_drift=0.0,
                           final_ket=final_ket)


def simulate_z_rotation(params: KerrCatParams, omega_z: float, theta_z: float,
                        duration: float, trunc: Truncation,
                        state0: Ket | None = None, n_samples: int = 501,
                        frame: CatFrame | None = None) -> EvolutionResult:
    """Weak resonant drive (omega_z e^{i theta_z}/2) a† + h.c. on top of H_KC;
    records cat-frame Bloch components x, y, z.

    Warns when omega_z exceeds 10% of the manifold gap estimate 4 K alpha².
    """
    gap = 4.0 * params.K * params.cat_size
    if gap > 0 and abs(omega_z) > ZENO_DRIVE_WARN_FRACTION * gap:
        warnings.warn(f"drive {omega_z:.3g} above {ZENO_DRIVE_WARN_FRACTION:.0%} "
                      f"of the manifold gap {gap:.3g}; leakage expected",
                      stacklevel=2)
    h = kerr_cat_hamiltonian(params, trunc)
    if frame is None:
        frame = build_cat_frame(h)
    if state0 is None:
        state0 = frame.v_even
    a = annihilation(trunc).mat
    drive = omega_z * np.exp(1j * theta_z)
    hd = Operator(h.mat + (drive / 2.0) * a.conj().T
                  + (np.conj(drive) / 2.0) * a, trunc, hermitian_hint=True)
    times = np.linspace(0.0, duration, n_samples)
    return evolve_ket(state0, hd, times,
                      {"x": frame.x, "y": frame.y, "z": frame.z})


def rabi_frequency(times: np.ndarray, signal: np.ndarray) -> float:
    """Angular oscillation frequency of a sampled sinusoid: frequency and
    phase seeded from the FFT peak bin, then least-squares sinusoid
    refinement."""
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

    try:
        p, _ = curve_fit(model, times, signal,
                         p0=[0.5 * (signal.max() - signal.min()),
                             max(om0, 1e-3), ph0, signal.mean()],
                         maxfev=20000)
        return float(abs(p[1]))
    except RuntimeError:
        return om0


def cat_size_from_rabi(omega_c: float, omega_z: float) -> float:
    """alpha² inferred from the manifold Rabi splitting: (omega_c/2 omega_z)²."""
    if omega_z <= 0:
        raise ZeroDrive("omega_z must be positive")
    return (omega_c / (2.0 * omega_z)) ** 2


@dataclass
class RampResult:
    """Stabilization-ramp outcome with target-state fidelities."""

    evolution: EvolutionResult
    fidelity_even_cat: float
    fidelity_plus_pointer: float
    final_ket: Ket | None = None


def _ramp_profile(t: np.ndarray, tau: float, shape: str) -> np.ndarray:
    if shape == "tanh":
        return np.tanh(RAMP_SATURATION * t / tau)
    if shape == "linear":
        return np.clip(t / tau, 0.0, 1.0)
    raise ValueError(f"unknown ramp shape {shape!r} (use 'linear' or 'tanh')")


def stabilization_ramp(eps2_target: complex, tau_ramp: float,
                       params: KerrCatParams, trunc: Truncation | None = None,
                       state0: Ket | None = None, shape: str = "tanh",
                       t_total: float | None = None,
                       sample_period: float = DEFAULT_SAMPLE_PERIOD) -> RampResult:
    """Ramp the two-photon drive 0 -> eps2_target over tau_ramp (closed
    system) and report fidelities to the even cat and +pointer states."""
    if tau_ramp <= 0:
        raise ValueError("tau_ramp must be positive")
    target = KerrCatParams(K=params.K, eps2=eps2_target, detuning=params.detuning)
    if trunc is None:
        trunc = default_truncation(target.alpha)
    if state0 is None:
        state0 = fock_state(0, trunc)
    t_end = t_total if t_total is not None else tau_ramp
    nsamp = max(3, int(math.ceil(t_end / sample_period)) + 1)
    t = np.linspace(0.0, t_end, nsamp)
    env = (_ramp_profile(t, tau_ramp, shape) * complex(eps2_target)).astype(np.complex128)
    a = annihilation(trunc).mat
    ad = a.conj().T
    h0 = Operator(-params.K * (ad @ ad @ a @ a) + params.detuning * (ad @ a),
                  trunc, hermitian_hint=True)
    sched = Schedule(h0=h0, envelopes=[(env, Operator(ad @ ad, trunc))],
                     dt=t[1] - t[0], t0=0.0)
    par = parity_operator(trunc)
    res = evolve_ket(state0, sched, np.array([0.0, t_end]), {"parity": par})
    psi = res.final_ket.normalized()
    alpha = target.alpha
    even = cat_state(alpha, "even", trunc)
    plus = coherent_state(alpha, trunc)
    return RampResult(
        evolution=res,
        fidelity_even_cat=float(abs(even.overlap(psi)) ** 2),
        fidelity_plus_pointer=float(abs(plus.overlap(psi)) ** 2),
        final_ket=psi,
    )


@dataclass
class PrepResult:
    """Pointer-state preparation outcome."""

    p_plus: float
    p_minus: float
    final_ket: Ket


def fock_to_cat_prep(phase: float, params: KerrCatParams, tau_ramp: float,
                     trunc: Truncation | None = None,
                     shape: str = "tanh") -> PrepResult:
    """Prepare (|0> + e^{i phase}|1>)/sqrt(2), ramp the stabilization on, and
    report the pointer-state populations P(±alpha); P(+alpha) is sinusoidal
    in phase."""
    if trunc is None:
        trunc = default_truncation(params.alpha)
    amp = np.zeros(trunc.dim, dtype=np.complex128)
    amp[0] = 1.0 / math.sqrt(2.0)
    amp[1] = np.exp(1j * phase) / math.sqrt(2.0)
    ramp = stabilization_ramp(params.eps2, tau_ramp, params, trunc,
                              state0=Ket(amp, trunc), shape=shape)
    frame = build_cat_frame(kerr_cat_hamiltonian(params, trunc))
    psi = ramp.final_ket
    return PrepResult(
        p_plus=float(abs(frame.w_plus.overlap(psi)) ** 2),
        p_minus=float(abs(frame.w_minus.overlap(psi)) ** 2),
        final_ket=psi,
    )
