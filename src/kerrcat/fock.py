"""Truncated Fock-space states and operators.

Dense complex matrices throughout; truncations in play stay below ~120 so
dense storage and O(N^3) linear algebra are the right tool. Units: hbar = 1,
angular frequencies in rad/us, time in us.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from .errors import DegenerateCat, DimMismatch, NotHermitian, TruncationTooSmall

HERMITIAN_ATOL = 1e-10
TRACE_ATOL = 1e-9
PSD_ATOL = 1e-8
TAIL_TOL = 1e-9


@dataclass(frozen=True)
class Truncation:
    """Fock-space cutoff: basis states |0> .. |dim-1>."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"truncation dim must be >= 2, got {self.dim}")


def default_truncation(alpha: complex) -> Truncation:
    """Cutoff adequate for coherent/cat states of amplitude alpha.

    dim = ceil(|alpha|^2 + 7|alpha| + 10) keeps the neglected tail below
    ~1e-9 for the states used here, with headroom for moderate heating.
    """
    a = abs(alpha)
    return Truncation(int(math.ceil(a * a + 7.0 * a + 10.0)))


@dataclass
class Ket:
    """State vector over a truncated Fock space."""

    amp: np.ndarray
    trunc: Truncation = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.amp = np.asarray(self.amp, dtype=np.complex128)
        if self.amp.ndim != 1:
            raise ValueError("ket amplitude must be 1-d")
        if self.trunc is None:
            self.trunc = Truncation(self.amp.size)
        elif self.trunc.dim != self.amp.size:
            raise DimMismatch(f"ket of length {self.amp.size} vs trunc {self.trunc.dim}")

    @property
    def dim(self) -> int:
        return self.amp.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amp))

    def normalized(self) -> "Ket":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize zero ket")
        return Ket(self.amp / n, self.trunc)

    def overlap(self, other: "Ket") -> complex:
        """<self|other>."""
        _check_dims(self.dim, other.dim)
        return complex(np.vdot(self.amp, other.amp))

    def to_density_matrix(self) -> "DensityMatrix":
        a = self.normalized().amp
        return DensityMatrix(np.outer(a, a.conj()), self.trunc)


@dataclass
class Operator:
    """Dense operator; set hermitian_hint to have symmetry validated."""

    mat: np.ndarray
    trunc: Truncation = field(default=None)  # type: ignore[assignment]
    hermitian_hint: bool = False

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=np.complex128)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("operator must be a square matrix")
        if self.trunc is None:
            self.trunc = Truncation(self.mat.shape[0])
        elif self.trunc.dim != self.mat.shape[0]:
            raise DimMismatch(f"operator dim {self.mat.shape[0]} vs trunc {self.trunc.dim}")
        if self.hermitian_hint:
            _check_hermitian(self.mat, "operator with hermitian_hint")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.mat.conj().T, self.trunc, self.hermitian_hint)

    def __matmul__(self, other: "Operator") -> "Operator":
        _check_dims(self.dim, other.dim)
        return Operator(self.mat @ other.mat, self.trunc)

    def __add__(self, other: "Operator") -> "Operator":
        _check_dims(self.dim, other.dim)
        return Operator(self.mat + other.mat, self.trunc)

    def __sub__(self, other: "Operator") -> "Operator":
        _check_dims(self.dim, other.dim)
        return Operator(self.mat - other.mat, self.trunc)

    def __mul__(self, c: complex) -> "Operator":
        return Operator(self.mat * c, self.trunc)

    __rmul__ = __mul__


@dataclass
class DensityMatrix:
    """Hermitian, unit-trace, PSD (within tolerances) state."""

    mat: np.ndarray
    trunc: Truncation = field(default=None)  # type: ignore[assignment]
    trace_atol: float = TRACE_ATOL
    psd_atol: float = PSD_ATOL

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=np.complex128)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("density matrix must be square")
        if self.trunc is None:
            self.trunc = Truncation(self.mat.shape[0])
        elif self.trunc.dim != self.mat.shape[0]:
            raise DimMismatch(f"state dim {self.mat.shape[0]} vs trunc {self.trunc.dim}")
        _check_hermitian(self.mat, "density matrix")
        tr = float(np.real(np.trace(self.mat)))
        if abs(tr - 1.0) > self.trace_atol:
            raise ValueError(f"density matrix trace {tr} != 1 within {self.trace_atol}")
        w = np.linalg.eigvalsh((self.mat + self.mat.conj().T) / 2)
        if w[0] < -self.psd_atol:
            raise ValueError(f"density matrix min eigenvalue {w[0]:.3e} < -{self.psd_atol}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))


def _check_hermitian(mat: np.ndarray, name: str) -> None:
    """Raise NotHermitian when max |M - M†| exceeds HERMITIAN_ATOL."""
    dev = float(np.max(np.abs(mat - mat.conj().T)))
    if dev > HERMITIAN_ATOL:
        raise NotHermitian(f"{name} is not Hermitian: max |M - M†| = {dev:.3e}")


def _check_dims(d1: int, d2: int):
    if d1 != d2:
        raise DimMismatch(f"dimension mismatch: {d1} vs {d2}")


# ----------------------------------------------------------------- operators

def annihilation(trunc: Truncation) -> Operator:
    """Lowering operator: <n-1|a|n> = sqrt(n)."""
    a = np.zeros((trunc.dim, trunc.dim), dtype=np.complex128)
    n = np.arange(1, trunc.dim)
    a[n - 1, n] = np.sqrt(n)
    return Operator(a, trunc)


def creation(trunc: Truncation) -> Operator:
    return annihilation(trunc).dag()


def number_operator(trunc: Truncation) -> Operator:
    return Operator(np.diag(np.arange(trunc.dim, dtype=np.complex128)), trunc,
                    hermitian_hint=True)


def parity_operator(trunc: Truncation) -> Operator:
    """Photon-number parity (-1)^n."""
    d = np.where(np.arange(trunc.dim) % 2 == 0, 1.0, -1.0).astype(np.complex128)
    return Operator(np.diag(d), trunc, hermitian_hint=True)


def displacement(alpha: complex, trunc: Truncation) -> Operator:
    """D(alpha) = exp(alpha a† - alpha* a), via Padé scaling-and-squaring.

    Raises TruncationTooSmall when the displaced vacuum D(alpha)|0> carries
    more than 1e-9 weight on the top basis state.
    """
    a = annihilation(trunc).mat
    D = expm(alpha * a.conj().T - np.conj(alpha) * a)
    if abs(D[-1, 0]) ** 2 > TAIL_TOL:
        raise TruncationTooSmall(
            f"displacement tail {abs(D[-1, 0])**2:.2e} > {TAIL_TOL:.0e} at dim "
            f"{trunc.dim}; need dim >= {default_truncation(alpha).dim}")
    return Operator(D, trunc)


# ----------------------------------------------------------------- states

def fock_state(n: int, trunc: Truncation) -> Ket:
    if not 0 <= n < trunc.dim:
        raise ValueError(f"fock index {n} outside truncation {trunc.dim}")
    amp = np.zeros(trunc.dim, dtype=np.complex128)
    amp[n] = 1.0
    return Ket(amp, trunc)


def coherent_state(alpha: complex, trunc: Truncation) -> Ket:
    """|alpha>, amplitudes via log-space Poisson weights for stability.

    Raises TruncationTooSmall if the pre-normalization weight of the top
    basis state exceeds TAIL_TOL.
    """
    n = np.arange(trunc.dim)
    mag = abs(alpha)
    if mag == 0.0:
        return fock_state(0, trunc)
    logw = n * math.log(mag) - 0.5 * gammaln(n + 1.0) - 0.5 * mag * mag
    amp = np.exp(logw) * np.exp(1j * n * np.angle(alpha))
    tail = float(np.abs(amp[-1]) ** 2)
    if tail > TAIL_TOL:
        raise TruncationTooSmall(
            f"coherent tail {tail:.2e} > {TAIL_TOL:.0e} at dim {trunc.dim}; "
            f"need dim >= {default_truncation(alpha).dim}")
    return Ket(amp, trunc).normalized()


def cat_state(alpha: complex, parity, trunc: Truncation) -> Ket:
    """|C±> = (|alpha> ± |-alpha>) / sqrt(2(1 ± e^{-2|alpha|^2})).

    parity: +1 or "even"; -1 or "odd".
    """
    p = {"even": +1, "odd": -1, +1: +1, -1: -1}.get(parity)
    if p is None:
        raise ValueError(f"parity must be even/odd or ±1, got {parity!r}")
    if p == -1 and abs(alpha) == 0.0:
        raise DegenerateCat("odd cat state undefined at alpha = 0")
    q = math.exp(-2.0 * abs(alpha) ** 2)
    denom = 2.0 * (1.0 + p * q)
    if denom <= 0.0:
        raise DegenerateCat(f"cat normalization underflow at alpha={alpha}, parity={p}")
    plus = coherent_state(alpha, trunc)
    minus = coherent_state(-alpha, trunc)
    amp = (plus.amp + p * minus.amp) / math.sqrt(denom)
    k = Ket(amp, trunc)
    if abs(k.norm() - 1.0) > 1e-12:
        # numerically safer than trusting the closed form at extreme alpha
        k = k.normalized()
    return k


# ----------------------------------------------------------------- functionals

def expectation(op: Operator, state) -> complex | float:
    """<op> for a Ket or DensityMatrix; real if op carries hermitian_hint."""
    if isinstance(state, Ket):
        _check_dims(op.dim, state.dim)
        val = complex(np.vdot(state.amp, op.mat @ state.amp))
    elif isinstance(state, DensityMatrix):
        _check_dims(op.dim, state.dim)
        val = complex(np.trace(op.mat @ state.mat))
    else:
        raise TypeError(f"unsupported state type {type(state)}")
    return float(val.real) if op.hermitian_hint else val


def state_fidelity(k1: Ket, k2: Ket) -> float:
    """|<k1|k2>|^2 for normalized inputs."""
    return float(abs(k1.normalized().overlap(k2.normalized())) ** 2)


def wigner(state, points) -> np.ndarray:
    """Wigner function as the displaced-parity expectation
    W(beta) = (2/pi) <D(beta) P D(-beta)> = (2/pi) Tr[rho D(2 beta) P].

    Evaluated in closed form (Cahill & Glauber, Phys. Rev. 177, 1882 (1969)):
    with g = 2 beta and x = |g|^2,
    W = (2/pi) e^{-x/2} Re sum_L (2 - [L = 0]) g^L / sqrt(L!)
        * sum_n (-1)^n rho[n, n+L] l_n^L(x),
    where l_n^L = sqrt(n! L! / (n+L)!) L_n^(L) obeys
    sqrt((n+1)(n+1+L)) l_{n+1} = (2n+1+L-x) l_n - sqrt(n(n+L)) l_{n-1},
    l_0 = 1. Each inner series is summed by Clenshaw's recurrence and the
    series over L by Horner's scheme in g / sqrt(L+1), both downward and on
    arrays the shape of points, so W is exact to round-off for any state in
    the truncation. Only the upper diagonals of rho are read: the lower ones
    give the complex conjugate terms, which holds because every Ket and
    DensityMatrix is Hermitian. points: complex array of phase-space points
    (any shape); returns real values of the same shape.
    """
    if isinstance(state, Ket):
        rho = state.to_density_matrix().mat
    elif isinstance(state, DensityMatrix):
        rho = state.mat
    else:
        raise TypeError(f"unsupported state type {type(state)}")
    g = 2.0 * np.asarray(points, dtype=np.complex128)
    x = np.abs(g) ** 2
    dim = rho.shape[0]
    horner = np.zeros_like(g)
    for L in range(dim - 1, -1, -1):
        c = np.diag(rho, L) * (-1.0) ** np.arange(dim - L)
        b1 = b2 = 0.0
        for n in range(dim - L - 1, -1, -1):
            norm = math.sqrt((n + 1) * (n + 1 + L))
            b1, b2 = (c[n] + (2 * n + 1 + L - x) / norm * b1
                      - norm / math.sqrt((n + 2) * (n + 2 + L)) * b2), b1
        horner = (2.0 - (L == 0)) * b1 + g / math.sqrt(L + 1) * horner
    return (2.0 / math.pi) * np.exp(-0.5 * x) * horner.real


def wigner_grid(state, re_grid: np.ndarray, im_grid: np.ndarray) -> np.ndarray:
    """W on the cartesian grid beta = x + iy; shape (len(im_grid), len(re_grid))."""
    X, Y = np.meshgrid(np.asarray(re_grid, float), np.asarray(im_grid, float))
    return wigner(state, X + 1j * Y)


def wigner_normalization(W: np.ndarray, re_grid: np.ndarray, im_grid: np.ndarray) -> float:
    """Trapezoid integral of W over the grid; ~1 when the grid covers the state."""
    inner = np.trapezoid(W, x=np.asarray(re_grid, float), axis=1)
    return float(np.trapezoid(inner, x=np.asarray(im_grid, float)))
