"""Hamiltonian construction and closed-form parameter maps.

The central object is the stabilized-oscillator ("Kerr-cat") Hamiltonian

    H = -K a†²a² + eps2 a†² + eps2* a² + detuning a†a,

whose two highest eigenstates span a protected qubit manifold of cat size
alpha² = |eps2|/K. Circuit-level inputs (third/fourth-order nonlinearities of
a driven nonlinear oscillator coupled to a readout mode) map onto (K, eps2)
and onto the readout coupling through the closed forms implemented here.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateModes, ResonantDriveSingularity,
                     TruncationTooSmall, ZeroDrive)
from .fock import (Ket, Operator, Truncation, _check_hermitian, annihilation,
                   default_truncation)

NONLINEARITY_WARN_FRACTION = 0.05


@dataclass(frozen=True)
class SnailParams:
    """Circuit parameters of the driven nonlinear oscillator and readout mode.

    All frequencies and couplings in rad/us.

    omega_a0: bare qubit-mode frequency.
    g3, g4: third/fourth-order nonlinear couplings of (a+a†).
    g_c: qubit-readout linear coupling.
    omega_b0: bare readout-mode frequency.
    eps_s0: stabilization (squeezing) drive amplitude.
    omega_s: stabilization drive frequency (~2 omega_a0).
    eps_cqr0: quadrature-readout drive amplitude.
    omega_cqr: quadrature-readout drive frequency.
    """

    omega_a0: float
    g3: float = 0.0
    g4: float = 0.0
    g_c: float = 0.0
    omega_b0: float = 0.0
    eps_s0: float = 0.0
    omega_s: float = 0.0
    eps_cqr0: float = 0.0
    omega_cqr: float = 0.0

    def __post_init__(self):
        if self.omega_a0 <= 0:
            raise ValueError("omega_a0 must be positive")
        for name in ("g3", "g4"):
            g = getattr(self, name)
            if abs(g) > NONLINEARITY_WARN_FRACTION * self.omega_a0:
                warnings.warn(
                    f"{name} = {g:.3g} exceeds {NONLINEARITY_WARN_FRACTION:.0%} of "
                    f"omega_a0; perturbative parameter maps degrade", stacklevel=2)

    @property
    def mode_detuning(self) -> float:
        """Delta = omega_a0 - omega_b0 between qubit and readout modes."""
        return self.omega_a0 - self.omega_b0


@dataclass(frozen=True)
class KerrCatParams:
    """Effective rotating-frame parameters: Kerr K > 0, two-photon drive
    eps2, and detuning (qubit frequency minus half the drive frequency)."""

    K: float
    eps2: complex = 0.0
    detuning: float = 0.0

    def __post_init__(self):
        if not self.K > 0:
            raise ValueError(f"K must be positive, got {self.K}")
        if not np.isfinite(complex(self.eps2)):
            raise ValueError("eps2 must be finite")

    @property
    def cat_size(self) -> float:
        """alpha² = |eps2|/K."""
        return abs(self.eps2) / self.K

    @property
    def alpha(self) -> complex:
        """Pointer-state amplitude, principal square root of eps2/K."""
        return complex(np.sqrt(complex(self.eps2) / self.K))


@dataclass
class Spectrum:
    """Eigenvalues (ascending) and matching eigenvectors of a Hermitian operator."""

    eigenvalues: np.ndarray
    eigenvectors: list = field(default_factory=list)


def kerr_cat_hamiltonian(p: KerrCatParams, trunc: Truncation) -> Operator:
    """H = -K a†²a² + eps2 a†² + eps2* a² + detuning a†a.

    Raises TruncationTooSmall when trunc cannot hold pointer states of the
    implied cat size.
    """
    need = default_truncation(p.alpha).dim
    if trunc.dim < need:
        raise TruncationTooSmall(
            f"dim {trunc.dim} < {need} required for cat size {p.cat_size:.3g}")
    a = annihilation(trunc).mat
    ad = a.conj().T
    H = -p.K * (ad @ ad @ a @ a)
    H += p.eps2 * (ad @ ad) + np.conj(p.eps2) * (a @ a)
    if p.detuning:
        H = H + p.detuning * (ad @ a)
    return Operator(H, trunc, hermitian_hint=True)


def effective_squeezing_amplitude(p: SnailParams) -> complex:
    """Effective squeezing from the off-resonant drive:
    xi = -(eps_s0/(omega_s - omega_a0) - eps_s0/(omega_s + omega_a0)).
    """
    if p.eps_s0 == 0.0:
        return 0.0 + 0.0j
    if abs(p.omega_s - p.omega_a0) < 1e-12 or abs(p.omega_s + p.omega_a0) < 1e-12:
        raise ResonantDriveSingularity(
            f"drive frequency {p.omega_s} resonant with mode {p.omega_a0}")
    return complex(-(p.eps_s0 / (p.omega_s - p.omega_a0)
                     - p.eps_s0 / (p.omega_s + p.omega_a0)))


def effective_kerr_params(p: SnailParams) -> tuple[KerrCatParams, float]:
    """Map circuit parameters to (KerrCatParams, stark_shift).

    K = -6 g4, eps2 = 3 g3 xi, stark_shift = -4 K |xi|² with xi the effective
    squeezing amplitude. The Stark shift is reported separately and is not
    folded into the detuning, which stays 0.
    """
    K = -6.0 * p.g4
    if not K > 0:
        raise ValueError(f"g4 = {p.g4} gives non-positive K = {K}")
    xi = effective_squeezing_amplitude(p)
    eps2 = 3.0 * p.g3 * xi
    stark = -4.0 * K * abs(xi) ** 2
    return KerrCatParams(K=K, eps2=eps2), stark


def squeezing_for_cat_size(p: SnailParams, alpha_sq: float) -> complex:
    """xi achieving |eps2|/K = alpha_sq given (g3, g4): xi = alpha_sq*K/(3 g3)."""
    K = -6.0 * p.g4
    if p.g3 == 0.0:
        raise ZeroDrive("g3 = 0 cannot generate a two-photon drive")
    return complex(alpha_sq * K / (3.0 * p.g3))


def dressed_mode_params(p: SnailParams) -> tuple[float, float, float]:
    """Exact two-mode hybridization: (lambda, omega_a, omega_b).

    lambda = (1/2) arctan(2 g_c / Delta); dressed frequencies are the exact
    square-root normal-mode forms, reducing to omega_a0 ± g_c²/Delta at
    second order in g_c/Delta.
    """
    delta = p.mode_detuning
    if p.g_c != 0.0 and delta == 0.0:
        raise DegenerateModes("mode detuning Delta = 0 with nonzero coupling")
    if p.g_c == 0.0:
        return 0.0, p.omega_a0, p.omega_b0
    # principal arctan keeps lambda -> 0 as g_c -> 0 for either sign of Delta
    lam = 0.5 * math.atan(2.0 * p.g_c / delta)
    mean = 0.5 * (p.omega_a0 + p.omega_b0)
    half = 0.5 * delta * math.sqrt(1.0 + (2.0 * p.g_c / delta) ** 2)
    return lam, mean + half, mean - half


def cqr_coupling(p: SnailParams, xi_cqr_eff: complex) -> complex:
    """Longitudinal readout coupling eps_cqr = 6 g3 (g_c/Delta) xi_cqr_eff."""
    if xi_cqr_eff == 0.0:
        return 0.0 + 0.0j
    delta = p.mode_detuning
    if delta == 0.0:
        raise DegenerateModes("mode detuning Delta = 0")
    return complex(6.0 * p.g3 * (p.g_c / delta) * xi_cqr_eff)


def egap_estimate(p: KerrCatParams) -> float:
    """Leading-order gap between the cat manifold and the next pair: 4 K alpha²."""
    return 4.0 * p.K * p.cat_size


def spectrum(h: Operator, k: int | None = None, nearest_top: bool = False) -> Spectrum:
    """Eigen-decomposition of a Hermitian operator.

    Returns k eigenpairs in ascending eigenvalue order, selected from the
    bottom of the spectrum by default or from the top when nearest_top is set
    (the protected manifold of the inverted well lives at the top).
    """
    if not h.hermitian_hint:
        _check_hermitian(h.mat, "spectrum input")
    E, V = np.linalg.eigh(h.mat)
    if k is None:
        k = h.dim
    k = min(k, h.dim)
    if nearest_top:
        E, V = E[-k:], V[:, -k:]
    else:
        E, V = E[:k], V[:, :k]
    kets = [Ket(V[:, i], h.trunc) for i in range(k)]
    return Spectrum(eigenvalues=E.copy(), eigenvectors=kets)


def well_excitations(h: Operator, k: int) -> np.ndarray:
    """Excitation energies E_top - E of the k levels nearest the top,
    ascending from 0. This is the natural level ladder of the inverted well:
    index 0/1 are the quasi-degenerate cat pair.
    """
    spec = spectrum(h, k, nearest_top=True)
    E = spec.eigenvalues[::-1]
    return E[0] - E
