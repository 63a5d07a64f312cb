"""Quadrature readout simulation, discrimination, QNDness, and tomography.

The readout is modeled semi-classically: the longitudinal coupling pushes the
readout resonator to one of two steady-state pointer amplitudes ±beta whose
sign tracks the qubit Z value; a shot integrates that pointer over the
readout window (bit flips during integration bisect the accumulated signal as
a Poisson process) and adds Gaussian IQ noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularDesign
from .units import MHZ

PTM_ENTRY_SLACK = 0.05


@dataclass(frozen=True)
class ReadoutParams:
    """Readout operating point.

    eps_cqr: longitudinal coupling amplitude (rad/us).
    kappa_r: readout-resonator linewidth (rad/us).
    duration: integration window (us).
    efficiency: collection efficiency in (0, 1]; scales the pointer amplitude
        by its square root.
    noise_sigma: Gaussian noise per IQ quadrature (same units as the pointer).
    alpha: operating pointer amplitude |alpha| of the qubit.
    """

    eps_cqr: float
    kappa_r: float
    duration: float
    efficiency: float = 1.0
    noise_sigma: float = 0.12
    alpha: float = 2.0

    def __post_init__(self):
        if self.kappa_r <= 0:
            raise ValueError("kappa_r must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def default_readout(alpha: float = 2.0, duration: float = 4.0) -> ReadoutParams:
    """Operating point used in the acceptance runs: eps_cqr/2π = 0.05 MHz,
    kappa_r/2π = 0.4 MHz, 4 us window, sigma = 0.12 per quadrature."""
    return ReadoutParams(eps_cqr=MHZ * 0.05, kappa_r=MHZ * 0.4,
                         duration=duration, efficiency=1.0,
                         noise_sigma=0.12, alpha=alpha)


def cqr_steady_amplitude(r: ReadoutParams, alpha: float | None = None) -> complex:
    """Pointer amplitude for the +Z state: beta_+ = -2i alpha eps_cqr/kappa_r
    (the -Z state sits at -beta_+)."""
    a = r.alpha if alpha is None else alpha
    return -2j * a * r.eps_cqr / r.kappa_r


@dataclass(frozen=True)
class IQShot:
    """One demodulated readout outcome with its simulation ground truth."""

    i: float
    q: float
    label_true: int

    def __post_init__(self):
        if not (math.isfinite(self.i) and math.isfinite(self.q)):
            raise ValueError("IQ values must be finite")
        if self.label_true not in (-1, +1):
            raise ValueError("label_true must be ±1")

    @property
    def z(self) -> complex:
        return complex(self.i, self.q)


@dataclass(frozen=True)
class DiscriminationLine:
    """Decision rule: sign of Re(z * conj(axis)) - offset, ties to +1."""

    axis: complex
    offset: float = 0.0

    def __post_init__(self):
        if abs(self.axis) == 0:
            raise ValueError("axis must be nonzero")


def default_line(r: ReadoutParams) -> DiscriminationLine:
    beta = cqr_steady_amplitude(r)
    return DiscriminationLine(axis=beta / abs(beta), offset=0.0)


def _assign(zs: np.ndarray, line: DiscriminationLine) -> np.ndarray:
    """Labels ±1 of complex IQ points under the decision rule of line."""
    return np.where((zs * np.conj(line.axis)).real - line.offset >= 0.0, 1, -1)


def discriminate(shot: IQShot, line: DiscriminationLine) -> int:
    return int(_assign(np.asarray(shot.z), line))


def _window_signals(rng: np.random.Generator, start_signs: np.ndarray,
                    flip_rate: float, duration: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-window (time-averaged sign, end sign) with Poisson flips."""
    n = start_signs.size
    m_eff = start_signs.astype(float).copy()
    end = start_signs.copy()
    if flip_rate <= 0.0:
        return m_eff, end
    counts = rng.poisson(flip_rate * duration, size=n)
    flipped = np.nonzero(counts > 0)[0]
    for idx in flipped:
        k = int(counts[idx])
        ts = np.sort(rng.uniform(0.0, duration, size=k))
        edges = np.concatenate(([0.0], ts, [duration]))
        seg = np.diff(edges)
        signs = start_signs[idx] * (-1.0) ** np.arange(k + 1)
        m_eff[idx] = float(np.dot(seg, signs)) / duration
        end[idx] = int(signs[-1])
    return m_eff, end


def _iq_points(rng: np.random.Generator, m_eff: np.ndarray,
               r: ReadoutParams) -> np.ndarray:
    """Complex IQ points sqrt(efficiency) * m_eff * beta plus Gaussian noise
    of noise_sigma per quadrature (drawn only when noise_sigma > 0)."""
    beta = cqr_steady_amplitude(r) * math.sqrt(r.efficiency)
    noise = rng.normal(0.0, r.noise_sigma, size=(m_eff.size, 2)) if r.noise_sigma > 0 \
        else np.zeros((m_eff.size, 2))
    return m_eff * beta + noise[:, 0] + 1j * noise[:, 1]


def simulate_readout(state_sign: int, r: ReadoutParams, flip_rate: float,
                     shots: int, seed: int) -> list[IQShot]:
    """Draw IQ shots for a qubit starting in state_sign (±1).

    Each window accumulates sqrt(efficiency) * m_eff * beta with m_eff the
    time-averaged sign under Poisson flips at flip_rate, plus Gaussian noise
    per quadrature; label_true records the starting sign.
    """
    if state_sign not in (-1, +1):
        raise ValueError("state_sign must be ±1")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    start = np.full(shots, state_sign, dtype=int)
    m_eff, _ = _window_signals(rng, start, flip_rate, r.duration)
    zs = _iq_points(rng, m_eff, r)
    return [IQShot(i=float(z.real), q=float(z.imag), label_true=int(s))
            for z, s in zip(zs, start)]


def misassignment_probability(r: ReadoutParams) -> float:
    """Gaussian-overlap error at zero flips: (1/2) erfc(SNR/sqrt(2)) with
    SNR = sqrt(efficiency)|beta| / noise_sigma."""
    if r.noise_sigma == 0.0:
        return 0.0
    snr = abs(cqr_steady_amplitude(r)) * math.sqrt(r.efficiency) / r.noise_sigma
    return 0.5 * math.erfc(snr / math.sqrt(2.0))


def qndness(r: ReadoutParams, flip_rate: float, shots: int, seed: int) -> float:
    """Q = (p(+|+) + p(-|-))/2 over consecutive measurement pairs.

    Conditioning is on the first assigned outcome; the qubit state carries
    over between the two windows (flips continue across both).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    line = default_line(r)
    start = np.where(rng.random(shots) < 0.5, 1, -1)
    m1, mid = _window_signals(rng, start, flip_rate, r.duration)
    m2, _ = _window_signals(rng, mid, flip_rate, r.duration)
    l1 = _assign(_iq_points(rng, m1, r), line)
    l2 = _assign(_iq_points(rng, m2, r), line)
    p_pp = float(np.mean(l2[l1 == 1] == 1)) if np.any(l1 == 1) else 1.0
    p_mm = float(np.mean(l2[l1 == -1] == -1)) if np.any(l1 == -1) else 1.0
    return 0.5 * (p_pp + p_mm)


# ----------------------------------------------------------------- tomography

@dataclass
class PTM:
    """4x4 real Pauli transfer matrix in basis (I, X, Y, Z)."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != (4, 4):
            raise ValueError("PTM must be 4x4")
        first = self.matrix[0]
        if np.max(np.abs(first - np.array([1.0, 0, 0, 0]))) > PTM_ENTRY_SLACK:
            raise ValueError(f"PTM first row {first} deviates from (1,0,0,0)")
        if np.max(np.abs(self.matrix)) > 1.0 + PTM_ENTRY_SLACK:
            raise ValueError("PTM entries exceed [-1-eps, 1+eps]")


def ptm_identity() -> PTM:
    return PTM(np.eye(4))


def ptm_rotation(axis: str, angle: float) -> PTM:
    """PTM of the unitary rotation exp(-i angle/2 * Pauli_axis)."""
    if axis not in ("X", "Y", "Z"):
        raise ValueError("axis must be X, Y, or Z")
    c, s = math.cos(angle), math.sin(angle)
    R = np.eye(4)
    idx = {"X": (2, 3), "Y": (3, 1), "Z": (1, 2)}[axis]
    i, j = idx
    R[i, i] = c
    R[j, j] = c
    R[i, j] = -s
    R[j, i] = s
    return PTM(R)


def apply_ptm(ptm: PTM, bloch) -> np.ndarray:
    """Bloch 3-vector through the channel."""
    v = np.concatenate(([1.0], np.asarray(bloch, float)))
    return (ptm.matrix @ v)[1:]


CANONICAL_PREPS = {
    # gates applied to the +Z pointer state before the channel under test
    "I": np.array([0.0, 0.0, 1.0]),
    "Y90": np.array([1.0, 0.0, 0.0]),
    "X270": np.array([0.0, 1.0, 0.0]),
    "X180": np.array([0.0, 0.0, -1.0]),
}


def ptm_estimate(input_blochs, output_blochs) -> PTM:
    """Least-squares R with R @ (1, v_in) = (1, v_out) over the prepared set.

    Raises SingularDesign when the inputs are affinely dependent (coplanar in
    Bloch space), leaving R underdetermined.
    """
    vin = np.array([np.concatenate(([1.0], np.asarray(b, float)))
                    for b in input_blochs]).T
    vout = np.array([np.concatenate(([1.0], np.asarray(b, float)))
                     for b in output_blochs]).T
    if vin.shape[0] != 4 or vout.shape[0] != 4:
        raise ValueError("Bloch vectors must have 3 components")
    if np.linalg.matrix_rank(vin, tol=1e-10) < 4:
        raise SingularDesign("prepared states are coplanar in Bloch space")
    R, *_ = np.linalg.lstsq(vin.T, vout.T, rcond=None)
    return PTM(R.T)


def gate_fidelity(r_exp: PTM, r_ideal: PTM) -> float:
    """Average gate fidelity F = (1/3)((1/2) Tr(R_ideal^T R_exp) + 1)."""
    return float((0.5 * np.trace(r_ideal.matrix.T @ r_exp.matrix) + 1.0) / 3.0)


@dataclass(frozen=True)
class SpamModel:
    """State-preparation and measurement error model.

    prep_p: probability the intended pointer state is prepared (Bloch vectors
        shrink by 2*prep_p - 1).
    meas_error: per-measurement misassignment probability (measured
        components shrink by 1 - 2*meas_error).
    """

    prep_p: float = 1.0
    meas_error: float = 0.0

    def __post_init__(self):
        if not 0.5 <= self.prep_p <= 1.0:
            raise ValueError("prep_p must be in [0.5, 1]")
        if not 0.0 <= self.meas_error < 0.5:
            raise ValueError("meas_error must be in [0, 0.5)")

    @property
    def prep_shrink(self) -> float:
        return 2.0 * self.prep_p - 1.0

    @property
    def meas_shrink(self) -> float:
        return 1.0 - 2.0 * self.meas_error


def tomography_pipeline(channel: PTM, spam: SpamModel | None = None) -> PTM:
    """End-to-end process tomography of a known channel.

    Prepares the four canonical states, passes them through the channel
    (with SPAM shrink applied to preparations and measurements when given),
    and reconstructs the PTM assuming ideal preparations — mirroring how an
    experiment underestimates fidelity when preparation is imperfect.
    """
    spam = spam or SpamModel()
    ins = list(CANONICAL_PREPS.values())
    outs = []
    for b in ins:
        prepared = spam.prep_shrink * np.asarray(b, float)
        measured = spam.meas_shrink * apply_ptm(channel, prepared)
        outs.append(measured)
    return ptm_estimate(ins, outs)
