"""The adaptive Dormand-Prince 4(5) stepper, in numpy, with no caller in the
program.

Every evolution in :mod:`kerrcat.dynamics` is an exponential route (exact
eigendecomposition, or the CF4 scheme with Chebyshev-series exponentials).
This module is kept only because the benchmark in ``perfbench/`` looks its
entry points up by name (``backend()``/``warmup()``, the traced
``lb_step``/``se_step`` and their right-hand sides, the tableau); it goes
with the next change to the benchmark.

:func:`_advance` holds the integration loop once; two entry points hand it
the right-hand side of their problem as a closure:

* :func:`lb_step` — density-matrix evolution under a Lindblad generator with
  constant Hamiltonian + jump terms plus optional time-dependent Hermitian
  envelope terms ``c(t) M + c*(t) M†`` (envelopes sampled on a uniform grid,
  linearly interpolated inside the kernel).
* :func:`se_step` — state-vector evolution under the corresponding
  Hamiltonian-only dynamics.

The loop uses the Dormand-Prince embedded 4(5) pair with FSAL, an RMS error
norm with per-element scale ``atol + rtol*max(|y0|,|y1|)`` (computed relative
to its largest ratio, so it stays finite for any tolerance), and step-size
factors clipped to ``[0.2, 2.0]`` around ``0.9 * err^(-1/5)``.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "backend", "lb_step", "se_step", "gershgorin_range", "default_max_step",
    "warmup", "RK_A", "RK_B", "RK_C", "RK_E", "NOENV",
]


def backend() -> str:
    """Kernel backend; always ``"numpy"``."""
    return "numpy"


# Dormand-Prince 4(5) tableau. RK_E is the difference between the 5th-order
# propagation weights and the embedded 4th-order weights.
RK_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
RK_A = np.zeros((7, 6))
RK_A[1, 0] = 1 / 5
RK_A[2, :2] = [3 / 40, 9 / 40]
RK_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
RK_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
RK_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
RK_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
RK_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
RK_E = RK_B - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])

# Placeholder envelope arguments for purely autonomous evolutions.
NOENV = (0, np.zeros((1, 2), dtype=np.complex128),
         np.zeros((1, 1, 1), dtype=np.complex128), 0.0, 0.0)

STATUS_OK = 0
STATUS_UNDERFLOW = 1
STATUS_NONFINITE = 2

_MIN_STEP = 1e-14


def _env_value(t, e, envs, dt_env, t0_env):
    if dt_env > 0.0:
        x = (t - t0_env) / dt_env
        i = int(x)
        if i < 0:
            i = 0
        m = envs.shape[1] - 2
        if i > m:
            i = m
        f = x - i
        return envs[e, i] * (1.0 - f) + envs[e, i + 1] * f
    return envs[e, 0]


def _lb_rhs(t, rho, G, Gd, Ls, nenv, envs, mats, dt_env, t0_env):
    # G = -i H0 - (1/2) sum_k L_k† L_k with L_k pre-scaled by sqrt(rate).
    out = G @ rho + rho @ Gd
    for k in range(Ls.shape[0]):
        L = Ls[k]
        out += L @ rho @ (np.conj(L).T)
    for e in range(nenv):
        c = _env_value(t, e, envs, dt_env, t0_env)
        M = mats[e]
        out += -1j * (c * (M @ rho) + np.conj(c) * (np.conj(M).T @ rho))
        out += 1j * (c * (rho @ M) + np.conj(c) * (rho @ np.conj(M).T))
    return out


def _se_rhs(t, psi, H0, nenv, envs, mats, dt_env, t0_env):
    out = -1j * (H0 @ psi)
    for e in range(nenv):
        c = _env_value(t, e, envs, dt_env, t0_env)
        M = mats[e]
        out += -1j * (c * (M @ psi) + np.conj(c) * (np.conj(M).T @ psi))
    return out


def _advance(rhs, y, t0, t1, rtol, atol, max_step, h0, A, B, C, E):
    """Advance y' = rhs(t, y) from t0 to t1; same return contract as lb_step."""
    t = t0
    h = min(h0, max_step, t1 - t0)
    k = np.empty((7,) + y.shape, dtype=np.complex128)
    k[0] = rhs(t, y)
    nsteps = 0
    while t < t1:
        if h > t1 - t:
            h = t1 - t
        for s in range(1, 7):
            ys = y.copy()
            for j in range(s):
                if A[s, j] != 0.0:
                    ys += (h * A[s, j]) * k[j]
            k[s] = rhs(t + C[s] * h, ys)
        y5 = y.copy()
        err = np.zeros_like(y)
        for j in range(7):
            if B[j] != 0.0:
                y5 += (h * B[j]) * k[j]
            if E[j] != 0.0:
                err += (h * E[j]) * k[j]
        ratio = np.abs(err) / (atol + rtol * np.maximum(np.abs(y), np.abs(y5)))
        # RMS scaled by the peak first, so a tiny atol cannot overflow the squares
        peak = float(np.max(ratio))
        enorm = peak * np.sqrt(np.mean((ratio / peak) ** 2)) if 0.0 < peak < np.inf else peak
        if not np.isfinite(enorm):
            return y, h, STATUS_NONFINITE, nsteps
        if enorm <= 1.0:
            t += h
            y = y5
            k[0] = k[6]
            fac = 2.0 if enorm == 0.0 else min(2.0, max(0.2, 0.9 * enorm ** -0.2))
            h = min(h * fac, max_step)
        else:
            h *= max(0.2, 0.9 * enorm ** -0.2)
            k[0] = rhs(t, y)
        nsteps += 1
        if h < _MIN_STEP:
            return y, h, STATUS_UNDERFLOW, nsteps
    return y, h, STATUS_OK, nsteps


def lb_step(rho, t0, t1, G, Gd, Ls, nenv, envs, mats, dt_env, t0_env,
            rtol, atol, max_step, h0, A, B, C, E):
    """Advance a density matrix from t0 to t1.

    Returns ``(rho, h_next, status, nsteps)`` with status 0 on success,
    1 on step-size underflow, 2 on non-finite error estimate; nsteps counts
    accepted and rejected attempts.
    """
    return _advance(
        lambda t, y: _lb_rhs(t, y, G, Gd, Ls, nenv, envs, mats, dt_env, t0_env),
        rho, t0, t1, rtol, atol, max_step, h0, A, B, C, E)


def se_step(psi, t0, t1, H0, nenv, envs, mats, dt_env, t0_env,
            rtol, atol, max_step, h0, A, B, C, E):
    """Advance a state vector from t0 to t1; same return contract as lb_step."""
    return _advance(
        lambda t, y: _se_rhs(t, y, H0, nenv, envs, mats, dt_env, t0_env),
        psi, t0, t1, rtol, atol, max_step, h0, A, B, C, E)


def gershgorin_range(H: np.ndarray) -> float:
    """Upper bound on the spectral range (max - min eigenvalue) of Hermitian H."""
    r = np.sum(np.abs(H), axis=1)
    d = np.real(np.diag(H))
    off = r - np.abs(np.diag(H))
    return float(np.max(d + off) - np.min(d - off))


def default_max_step(spectral_range: float, margin: float = 2.5) -> float:
    """Step ceiling from a Hamiltonian spectral-range bound.

    ``margin / range`` keeps h*|eigenvalue| inside the integrator's
    imaginary-axis stability region (radius ~ 3.3) with headroom; accuracy
    control then adapts below this ceiling.
    """
    return margin / (spectral_range + 1.0)


def warmup() -> str:
    """No-op (the numpy kernels compile nothing); returns the backend name."""
    return "numpy"
