"""Lindblad master-equation integration, bath construction, and lifetime fits.

Rates are plain 1/us (no 2π); frequencies entering Bose-Einstein factors are
angular (rad/us). Each class of problem has one route:

* a ket under a constant Hamiltonian is propagated exactly from the
  eigendecomposition of H;
* a ket under a schedule with envelopes is integrated by the fourth-order
  commutator-free exponential scheme CF4 on the envelope grid, each
  exponential a Chebyshev series (:func:`_cf4`, which also advances a block
  of kets at once for the gate chevron);
* a density matrix, under a constant Hamiltonian or a schedule, is
  integrated by the same CF4 scheme in real arithmetic, on the coordinates
  of rho in an orthonormal Hermitian basis where the sparse Liouvillian L is
  a real matrix (:func:`_real_liouvillian`). Without envelopes an interval
  is one exponential exp(L dt), with two per interval under envelopes.

Every route is an exponential: the Chebyshev routes share one series
(:func:`_chebyshev_series`) and one construction of the sparse Liouvillian
(:func:`_sparse_liouvillian`). The tests check the ket routes against
``expm`` and ``solve_ivp``, and the density matrix route against a
matrix-exponential solution of the vectorized generator and ``solve_ivp``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.optimize import curve_fit
from scipy.special import jv

from .catframe import build_cat_frame
from .errors import (DimMismatch, FitDiverged, NonFiniteState,
                     NonPositiveTemperature, NotHermitian, ZeroG3)
from .fock import (HERMITIAN_ATOL, DensityMatrix, Ket, Operator, Truncation,
                   annihilation, default_truncation, number_operator)
from .model import KerrCatParams, SnailParams, kerr_cat_hamiltonian
from .units import HBAR_OVER_KB_MK, MHZ

EVOLVE_PSD_ATOL = 1e-6
# Chebyshev series of a dissipative generator: each piece tau of a CF4
# interval keeps tau * (damping bound of its exponential) at most this, which
# bounds the growth of the Chebyshev terms by ~e^4; terms whose Bessel
# coefficient is below CHEB_TAIL are dropped.
CHEB_DAMPING_STEP = 4.0
CHEB_TAIL = 1e-17
# Sample times may pass the ends of an envelope grid, and may sit off a grid
# point, by this fraction of the grid spacing (rounding of t0 + j dt).
SPAN_RTOL = 1e-9
# CF4: Gauss-Legendre nodes of an interval, and the matrix taking the envelope
# at those nodes to the weights of the two exponentials (a1 = 1/4 + sqrt(3)/6,
# a2 = 1/4 - sqrt(3)/6).
CF4_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
CF4_MIX = np.array([[0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0],
                    [0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0]])
FIT_FLOOR = 0.05
LIFETIME_SENTINEL_DROP = 0.02


# ----------------------------------------------------------------- bath

def bose_einstein(omega: float, T: float) -> float:
    """Thermal occupation 1/(exp(hbar*omega/kB*T) - 1); omega rad/us, T mK."""
    if T <= 0.0:
        raise NonPositiveTemperature(f"temperature must be positive, got {T} mK")
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    x = HBAR_OVER_KB_MK * omega / T
    if x > 700.0:  # expm1 overflows; occupation is exp(-x) to double precision
        return math.exp(-x)
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class BathSpec:
    """Dissipative environment parameters.

    kappa_half: single-photon rate at half the stabilization-drive frequency
        (1/us); T_half its effective temperature (mK).
    kappa_full: bath rate at the full drive frequency feeding the
    beyond-rotating-wave two-photon channels (1/us); T_full its temperature.
    kappa_phi: white dephasing rate on a†a (1/us).
    omega_d: stabilization-drive angular frequency (rad/us) at which the
        thermal occupations are evaluated.
    """

    kappa_half: float = 0.0
    T_half: float = 73.5
    kappa_full: float = 0.0
    T_full: float = 515.0
    kappa_phi: float = 0.0
    omega_d: float = MHZ * 11800.0

    def __post_init__(self):
        for name in ("kappa_half", "kappa_full", "kappa_phi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.kappa_half > 0 and self.T_half <= 0:
            raise NonPositiveTemperature("T_half must be > 0 when kappa_half > 0")
        if self.kappa_full > 0 and self.T_full <= 0:
            raise NonPositiveTemperature("T_full must be > 0 when kappa_full > 0")

    def scaled(self, factor: float) -> "BathSpec":
        """All kappas multiplied by factor; lifetimes scale as 1/factor."""
        if factor < 0:
            raise ValueError("rate scale must be >= 0")
        return replace(self, kappa_half=self.kappa_half * factor,
                       kappa_full=self.kappa_full * factor,
                       kappa_phi=self.kappa_phi * factor)

    @property
    def n_half(self) -> float:
        return bose_einstein(self.omega_d / 2.0, self.T_half)

    @property
    def n_full(self) -> float:
        return bose_einstein(self.omega_d, self.T_full)


def standard_bath() -> BathSpec:
    """Default bath: 1/38.5 us single-photon loss at 73.5 mK, 7.0 1/us
    two-photon-channel rate at 515 mK, 2π*1e-4 1/us white dephasing."""
    return BathSpec(kappa_half=1.0 / 38.5, T_half=73.5,
                    kappa_full=7.0, T_full=515.0,
                    kappa_phi=MHZ * 1.0e-4)


def plateau_bath(n_target: float = 0.05) -> BathSpec:
    """Variant of the standard bath with T_half raised so the thermal
    occupation at half the drive frequency equals n_target."""
    base = standard_bath()
    if not 0.0 < n_target < 1.0:
        raise ValueError("n_target must be in (0, 1)")
    t_half = HBAR_OVER_KB_MK * (base.omega_d / 2.0) / math.log(1.0 / n_target + 1.0)
    return replace(base, T_half=t_half)


@dataclass(frozen=True)
class JumpTerm:
    """A Lindblad dissipator rate * D[operator]."""

    operator: Operator
    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"jump rate must be finite and >= 0, got {self.rate}")

    def scaled_matrix(self) -> np.ndarray:
        return math.sqrt(self.rate) * self.operator.mat


def build_rwa_dissipators(bath: BathSpec, trunc: Truncation) -> list[JumpTerm]:
    """Single-photon channels at half the drive frequency:
    rate kappa*n for a†, rate kappa*(1+n) for a."""
    if bath.kappa_half == 0.0:
        return []
    a = annihilation(trunc)
    n = bath.n_half
    terms = []
    if n > 0.0:
        terms.append(JumpTerm(a.dag(), bath.kappa_half * n))
    terms.append(JumpTerm(a, bath.kappa_half * (1.0 + n)))
    return terms


def build_nrwa_dissipators(bath: BathSpec, snail: SnailParams, eps2: complex,
                           trunc: Truncation) -> list[JumpTerm]:
    """Two-photon channels from the bath at the full drive frequency.

    Heating operator c1 a†² - c2 eps2* a†a at rate kappa_full*n, and the
    cooling counterpart c1 a² - c2 eps2 a†a at kappa_full*(1+n), with
    c1 = 8 g3/(3 omega_d) and c2 = 592 g3/(9 omega_d²) - 16 g4/(g3 omega_d).
    """
    if bath.kappa_full == 0.0:
        return []
    if snail.g3 == 0.0:
        raise ZeroG3("two-photon channel coefficients require g3 != 0")
    wd = bath.omega_d
    a = annihilation(trunc).mat
    ad = a.conj().T
    n_op = ad @ a
    c1 = 8.0 * snail.g3 / (3.0 * wd)
    c2 = 592.0 * snail.g3 / (9.0 * wd ** 2) - 16.0 * snail.g4 / (snail.g3 * wd)
    heat = Operator(c1 * (ad @ ad) - c2 * np.conj(eps2) * n_op, trunc)
    cool = Operator(c1 * (a @ a) - c2 * eps2 * n_op, trunc)
    n = bath.n_full
    terms = []
    if n > 0.0:
        terms.append(JumpTerm(heat, bath.kappa_full * n))
    terms.append(JumpTerm(cool, bath.kappa_full * (1.0 + n)))
    return terms


def build_dephasing(bath: BathSpec, trunc: Truncation) -> list[JumpTerm]:
    """White dephasing on the photon number, rate kappa_phi; empty if zero."""
    if bath.kappa_phi == 0.0:
        return []
    return [JumpTerm(number_operator(trunc), bath.kappa_phi)]


def build_full_dissipators(bath: BathSpec, snail: SnailParams, eps2: complex,
                           trunc: Truncation) -> list[JumpTerm]:
    """All three channel families concatenated."""
    return (build_rwa_dissipators(bath, trunc)
            + build_nrwa_dissipators(bath, snail, eps2, trunc)
            + build_dephasing(bath, trunc))


def default_snail() -> SnailParams:
    """Circuit parameters used throughout: g3/2π = 15 MHz, g4 = -K/6 with
    K/2π = 1.2 MHz, drive at 11.8 GHz, qubit mode at 5.9 GHz, readout mode
    at 7.1 GHz with 125 MHz coupling."""
    K = MHZ * 1.2
    return SnailParams(
        omega_a0=MHZ * 5900.0,
        g3=MHZ * 15.0,
        g4=-K / 6.0,
        g_c=MHZ * 125.0,
        omega_b0=MHZ * 7100.0,
        eps_s0=0.0,
        omega_s=MHZ * 11800.0,
        eps_cqr0=0.0,
        omega_cqr=MHZ * 1200.0,
    )


# ----------------------------------------------------------------- schedules

@dataclass
class Schedule:
    """Time-dependent Hamiltonian H(t) = h0 + sum_e c_e(t) M_e + c_e*(t) M_e†.

    Envelopes are complex samples on one shared uniform grid t0 + j dt,
    j = 0 .. nsamp - 1, and are linear between samples. Evolution is defined
    on that grid only: evolve() and evolve_ket() reject sample times outside
    [t0, t0 + (nsamp - 1) dt].
    """

    h0: Operator
    envelopes: list = field(default_factory=list)  # (samples: complex array, op: Operator)
    dt: float = 1e-3
    t0: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        arrays = []
        for env, op in self.envelopes:
            env = np.asarray(env, dtype=np.complex128)
            if op.dim != self.h0.dim:
                raise DimMismatch("envelope operator dim mismatch")
            if env.ndim != 1 or env.size < 2:
                raise ValueError("an envelope needs a 1-d array of >= 2 samples")
            if not np.all(np.isfinite(env)):
                raise ValueError("envelope samples must be finite")
            if arrays and env.size != arrays[0].size:
                raise ValueError("all envelopes must share one sample grid")
            arrays.append(env)
        self.envelopes = [(env, op) for env, (_, op) in zip(arrays, self.envelopes)]

    def check_span(self, times: np.ndarray) -> None:
        """Raise ValueError unless the envelope grid covers the sample times,
        up to SPAN_RTOL * dt of rounding at either end."""
        if not self.envelopes:
            return
        t_end = self.t0 + (self.envelopes[0][0].size - 1) * self.dt
        tol = SPAN_RTOL * self.dt
        if times[0] < self.t0 - tol or times[-1] > t_end + tol:
            raise ValueError(
                f"t_span [{times[0]:.6g}, {times[-1]:.6g}] leaves the envelope grid "
                f"[{self.t0:.6g}, {t_end:.6g}]")


# ----------------------------------------------------------------- evolution

@dataclass
class EvolutionResult:
    """Sampled observables of one master-equation or pure-state run."""

    times: np.ndarray
    observables: dict
    final_state: DensityMatrix
    nsteps: int = 0
    trace_drift: float = 0.0
    final_ket: Ket | None = None  # populated by pure-state evolution only


def _as_schedule(h) -> Schedule:
    if isinstance(h, Schedule):
        return h
    if isinstance(h, Operator):
        return Schedule(h0=h)
    raise TypeError(f"h must be Operator or Schedule, got {type(h)}")


def _check_hermitian(H: np.ndarray) -> None:
    dev = float(np.max(np.abs(H - H.conj().T)))
    if dev > HERMITIAN_ATOL:
        raise NotHermitian(f"H is not Hermitian: max |H - H†| = {dev:.3e}")


def _bessel_weights(x: float) -> np.ndarray:
    """Weights (2 - [k = 0]) J_k(x) of the Chebyshev series
    exp(-i x X) = sum_k (2 - [k = 0]) (-i)^k J_k(x) T_k(X) for X with
    spectrum in [-1, 1] (see _cf4 for a dissipative X); terms with
    |J_k(x)| below CHEB_TAIL are dropped."""
    k = np.arange(int(x + 60.0 + 10.0 * x ** (1.0 / 3.0)))
    bessel = jv(k, x)
    m = max(2, int(np.nonzero(np.abs(bessel) > CHEB_TAIL)[0][-1]) + 1)
    return np.where(k[:m] == 0, 1.0, 2.0) * bessel[:m]


def _chebyshev_series(apply_a, v: np.ndarray, coef: np.ndarray,
                      sign: int = -1) -> np.ndarray:
    """sum_k coef[k] P_k v, given apply_a(u) = A u, with P_0 = 1, P_1 = A/2
    and P_{k+1} = A P_k + sign P_{k-1}: the Chebyshev polynomials
    P_k = T_k(A/2) for sign = -1, and P_k = (-i)^k T_k(iA/2) for sign = +1,
    which are real for a real A."""
    step = np.subtract if sign < 0 else np.add
    t_prev, t_cur = v, 0.5 * apply_a(v)
    acc = coef[0] * t_prev + coef[1] * t_cur
    for c in coef[2:]:
        t_prev, t_cur = t_cur, step(apply_a(t_cur), t_prev)
        acc += c * t_cur
    return acc


def _ad(X: np.ndarray) -> sparse.csr_matrix:
    """ad(X) = X⊗I - I⊗Xᵀ, the commutator [X, .] on row-major vec(rho)."""
    eye = sparse.identity(X.shape[0], dtype=np.complex128, format="csr")
    Xs = sparse.csr_matrix(X)
    return (sparse.kron(Xs, eye) - sparse.kron(eye, Xs.T)).tocsr()


def _sparse_liouvillian(H: np.ndarray, Ls: list):
    """(ad(H), D, d) on row-major vec(rho), both CSR: the Liouvillian is
    -i ad(H) + D, with D the dissipator of the sqrt(rate)-scaled jump
    matrices Ls and d = max(||D||_1, ||D||_inf) >= ||D||_2."""
    dim = H.shape[0]
    eye = sparse.identity(dim, dtype=np.complex128, format="csr")
    D = sparse.csr_matrix((dim * dim, dim * dim), dtype=np.complex128)
    for L in Ls:
        Lsp = sparse.csr_matrix(L)
        LdL = Lsp.conj().T @ Lsp
        D = D + sparse.kron(Lsp, Lsp.conj()) - 0.5 * (
            sparse.kron(LdL, eye) + sparse.kron(eye, LdL.T))
    absD = abs(D)
    d = float(max(absD.sum(axis=0).max(), absD.sum(axis=1).max())) if D.nnz else 0.0
    return _ad(H), D, d


def _real_liouvillian(H: np.ndarray, Ls: list):
    """(Q, L_r, d) for the Liouvillian L = -i ad(H) + D of
    _sparse_liouvillian, in the orthonormal Hermitian basis
    E_ii, (E_ij + E_ji)/sqrt(2), i(E_ij - E_ji)/sqrt(2) (i < j).

    Q is the sparse unitary taking row-major vec(rho) to the coordinates of
    rho in that basis; they are real for a Hermitian rho, and they sit where
    rho_ii, rho_ij and rho_ji sit in vec(rho). L maps Hermitian matrices to
    Hermitian matrices, so L_r = Q L Q† is real (CSR); d is that of
    _sparse_liouvillian.
    """
    dim = H.shape[0]
    i, j = np.triu_indices(dim, 1)
    up, lo, diag = i * dim + j, j * dim + i, np.arange(dim) * (dim + 1)
    s = math.sqrt(0.5)
    rows = np.concatenate([diag, up, up, lo, lo])
    cols = np.concatenate([diag, up, lo, up, lo])
    vals = np.concatenate([np.ones(dim), np.full(i.size, s), np.full(i.size, s),
                           np.full(i.size, -1j * s), np.full(i.size, 1j * s)])
    Q = sparse.csr_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim))
    adH, D, d = _sparse_liouvillian(H, Ls)
    Lr = (Q @ (-1j * adH + D) @ Q.conj().T).real
    Lr.eliminate_zeros()
    return Q, Lr, d


def _cf4(sched: Schedule, times: np.ndarray, y: np.ndarray, Ls: list | None = None,
         envs=None):
    """Advance y through sched with the fourth-order commutator-free
    exponential integrator CF4 (Blanes & Moan, Appl. Numer. Math. 56, 1519
    (2006); Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)), yielding
    (state, intervals taken so far) at every sample time after the first.

    With Ls None, y is a block of kets (dim x nb) under
    H_b(t) = h0 + sum_e c_eb(t) M_e + c_eb*(t) M_e†: every column shares h0,
    the envelope operators M_e and the envelope grid of sched, and envs[e]
    (nb x nsamp) holds each column's own samples of envelope e (by default
    the schedule's, for one column). Otherwise y is row-major vec(rho), 1-d,
    under L(t) = -i[H(t), .] + D, D the dissipator of the sqrt(rate)-scaled
    jump matrices Ls; CF4 holds for any linear y' = A(t) y. The run is in
    real arithmetic on x = (Q vec(rho)).real, the coordinates of rho in the
    Hermitian basis of _real_liouvillian, so it evolves the Hermitian part
    of rho and yields the Hermitian vec(rho) = Q† x.

    The intervals are those of the envelope grid, cut at every sample time,
    so the envelope is linear on each. An interval of length h is
    exp(-i h G(w2)) exp(-i h G(w1)), G(w) = G0 + sum_e (w_e M_e + h.c.),
    with w1 = a1 c1 + a2 c2, w2 = a2 c1 + a1 c2, a1,2 = 1/4 ± sqrt(3)/6 and
    c1, c2 the envelope at the Gauss points 1/2 ∓ sqrt(3)/6 of the interval;
    its error is fifth order in h. G0 = h0/2 for kets. For rho,
    G0 = (ad h0 + i D)/2 with ad X = [X, .], and a drive term P acts as
    ad P: the exponent -i h G is h times L_r/2 plus real weights times the
    real matrices Q(-i ad P)Q†. Without envelopes the two exponentials merge
    into one, exp(-i h G0) with G0 = h0 or ad h0 + i D, so G0, its center,
    the radius and the damping bound below are those of nexp = 1 exponential
    per interval instead of 2.

    For rho the field of values of G0 has |Im z| <= d/nexp
    (d >= ||D||_2 from _sparse_liouvillian), and intervals are cut further
    into equal pieces with h d/nexp <= CHEB_DAMPING_STEP, so the Chebyshev
    terms grow by at most ~e^4 and round-off stays near machine precision.
    Each exponential is a Chebyshev series (_chebyshev_series) about the
    center of the spectrum of G0 (0 for rho), with a radius taken once per
    call: the half-width of that spectrum, (range of h0)/(2 nexp) for kets
    and (range of h0 + d)/nexp for rho, plus max |weight| times the row-sum
    norm of each Hermitian drive term (of ad P for rho). For kets the series
    is in T_k((G - center)/radius) with weights (-i)^k J_k; for rho it is
    the real recurrence (sign +1) in the real exponent, with real weights
    J_k. An exponential costs about h * radius matrix-vector products; the
    Bessel weights are computed once per distinct interval length. h0 must
    be Hermitian.

    Raises NonFiniteState, naming the start of the interval, when the
    spectral bound or the state is not finite.
    """
    sched.check_span(times)
    if envs is None:
        envs = [env[None] for env, _ in sched.envelopes]
    nexp = 2 if sched.envelopes else 1
    H0 = sched.h0.mat
    lam = np.linalg.eigvalsh(H0)
    if Ls is None:
        center = (lam[0] + lam[-1]) / (2 * nexp)
        radius, damping, sign = (lam[-1] - lam[0]) / (2 * nexp), 0.0, -1
        mats = [H0 / nexp - center * np.eye(H0.shape[0])]
    else:
        Q, Lr, d = _real_liouvillian(H0, Ls)
        Qh = Q.conj().T.tocsr()
        center, radius, damping, sign = 0.0, (lam[-1] - lam[0] + d) / nexp, d / nexp, 1
        mats = [Lr / nexp]
        y = (Q @ y).real

    tol = SPAN_RTOL * sched.dt
    grid = sched.t0 + sched.dt * np.arange(max((env.size for env, _ in sched.envelopes),
                                               default=0))
    inner = grid[(grid > times[0] + tol) & (grid < times[-1] - tol)]
    j = np.searchsorted(times, inner)
    inner = inner[np.minimum(inner - times[j - 1], times[j] - inner) > tol]
    cuts = np.union1d(times, inner)
    # damping substeps: interval m becomes nsub[m] equal intervals
    nsub = np.maximum(1, np.ceil(np.diff(cuts) * damping / CHEB_DAMPING_STEP)).astype(int)
    steps = np.repeat(np.diff(cuts) / nsub, nsub)
    part = np.arange(steps.size) - np.repeat(np.cumsum(nsub) - nsub, nsub)
    starts = np.repeat(cuts[:-1], nsub) + part * steps
    done = np.cumsum(nsub)[np.searchsorted(cuts, times[1:]) - 1]

    # w M + w* M† = Re(w) (M + M†) + Im(w) i(M - M†): Hermitian terms with
    # real weights (nb x interval x exponential); a term whose operator or
    # weights vanish is dropped
    weights = []
    for e, (_, op) in enumerate(sched.envelopes):
        x = (starts[:, None] + steps[:, None] * CF4_NODES - sched.t0) / sched.dt
        i = np.minimum(x.astype(int), envs[e].shape[-1] - 2)
        f = x - i
        w = (envs[e][:, i] * (1.0 - f) + envs[e][:, i + 1] * f) @ CF4_MIX
        M = op.mat
        for mat, wt in ((M + M.conj().T, w.real), (1j * (M - M.conj().T), w.imag)):
            if np.any(mat) and np.any(wt):
                g = mat if Ls is None else _ad(mat)
                radius += float(np.max(np.abs(wt))) * float(abs(g).sum(axis=1).max())
                mats.append(g if Ls is None else (Q @ (-1j * g) @ Qh).real)
                weights.append(wt)
    if not math.isfinite(radius):
        raise NonFiniteState(f"non-finite spectral bound at t = {starts[0]:.4g} us")
    if radius == 0.0:  # zero generator: any positive scale gives the identity
        radius = 1.0
    # A = 2 (G - center) / radius for kets, 2 B / radius for the real exponent
    # h B of rho
    stack = (2.0 / radius) * (np.concatenate(mats) if Ls is None
                              else sparse.vstack(mats, format="csr"))

    nxt = 0
    coefs: dict = {}
    for k, h in enumerate(steps):
        if h not in coefs:
            w = _bessel_weights(h * radius)
            coefs[h] = (np.exp(-1j * h * center),
                        w * (-1j) ** np.arange(w.size) if Ls is None else w)
        phase, coef = coefs[h]
        for e in range(nexp):
            def apply_a(u, wk=[wt[:, k, e] for wt in weights]):
                p = (stack @ u).reshape(-1, *u.shape)
                out = p[0]
                for q, wq in enumerate(wk):
                    out = out + wq * p[q + 1]
                return out
            # with no drive term A is the stack itself, applied without the
            # wrapper's cost on every term
            y = _chebyshev_series(apply_a if weights else stack.__matmul__, y, coef, sign)
            if center:  # 0 for rho, whose x stays real
                y = phase * y
        if not np.all(np.isfinite(y)):
            raise NonFiniteState(f"non-finite state at t = {starts[k]:.4g} us")
        if done[nxt] == k + 1:
            yield (y if Ls is None else Qh @ y), k + 1
            nxt += 1


def evolve(rho0: DensityMatrix, h, jumps: list, t_span, observables: dict | None = None,
           early_stop: tuple | None = None) -> EvolutionResult:
    """Integrate drho/dt = -i[H,rho] + sum rate*(L rho L† - ½{L†L, rho}).

    t_span: increasing sample times (first entry is the initial time).
    observables: name -> Operator; real parts of Tr(O rho) are recorded.
    early_stop: optional (observable_name, threshold) — stop sampling once
    that observable falls below threshold (used by lifetime fits).

    Every h, an Operator or a Schedule, is integrated by the CF4 scheme of
    evolve_ket (:func:`_cf4`), each exponential a Chebyshev series in the
    sparse Liouvillian. The run is in real arithmetic on the coordinates of
    rho in an orthonormal Hermitian basis, so it evolves the Hermitian part
    (rho0 + rho0†)/2 and drops the anti-Hermitian part, which DensityMatrix
    bounds by HERMITIAN_ATOL. A constant Hamiltonian (an Operator, or a
    Schedule without envelopes) takes one exponential exp(L dt) per
    interval between samples, accurate to about machine precision for any
    increasing t_span. A schedule with envelopes takes two per interval of
    the envelope grid cut at the sample times, and t_span must lie on that
    grid. Intervals are cut further into pieces that keep the damping of
    each exponential bounded; nsteps is the number of pieces taken.

    Raises NotHermitian for an h0 that is not Hermitian, ValueError for
    sample times outside the envelope grid, and NonFiniteState when the
    spectral bound or the state is not finite.
    """
    sched = _as_schedule(h)
    times = np.asarray(t_span, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("t_span must be an increasing 1-d array of >= 2 times")
    dim = sched.h0.dim
    if rho0.dim != dim:
        raise DimMismatch(f"state dim {rho0.dim} vs hamiltonian dim {dim}")
    observables = observables or {}
    for name, op in observables.items():
        if op.dim != dim:
            raise DimMismatch(f"observable {name!r} dim mismatch")

    for j in jumps:
        if j.operator.dim != dim:
            raise DimMismatch("jump operator dim mismatch")
    Ls = [j.scaled_matrix() for j in jumps if j.rate > 0.0]
    _check_hermitian(sched.h0.mat)
    r = rho0.mat.astype(np.complex128)
    states = _cf4(sched, times, r.reshape(-1), Ls)

    series: dict = {name: [] for name in observables}
    total_steps = 0
    drift = abs(float(np.real(np.trace(r))) - 1.0)
    kept = 1

    def sample(rho_now):
        for name, op in observables.items():
            series[name].append(float(np.real(np.trace(op.mat @ rho_now))))

    sample(r)
    stop_name, stop_thresh = early_stop if early_stop else (None, None)
    for v, total_steps in states:
        r = v.reshape(dim, dim)
        sample(r)
        kept += 1
        drift = max(drift, abs(float(np.real(np.trace(r))) - 1.0))
        if stop_name is not None and series[stop_name][-1] < stop_thresh:
            break

    final = DensityMatrix((r + r.conj().T) / 2, rho0.trunc,
                          trace_atol=1e-6, psd_atol=EVOLVE_PSD_ATOL)
    return EvolutionResult(
        times=times[:kept],
        observables={k: np.asarray(v) for k, v in series.items()},
        final_state=final,
        nsteps=total_steps,
        trace_drift=drift,
    )


def evolve_ket(psi0: Ket, h, t_span, observables: dict | None = None) -> EvolutionResult:
    """Closed-system counterpart of evolve() for pure states.

    A constant Hamiltonian (an Operator, or a Schedule without envelopes) is
    propagated exactly: H = V diag(lam) V† is diagonalised once and every
    sample is psi(t) = V diag(exp(-i lam (t - t0))) V† psi0, for any
    increasing t_span, uniform or not; nsteps is then 0.

    A schedule with envelopes is integrated by the fourth-order
    commutator-free exponential scheme CF4 on the envelope grid, cut at every
    sample time: two Chebyshev-series exponentials per interval, with an
    error fifth order in the interval length. nsteps is then the number of
    CF4 intervals taken. t_span must lie on the envelope grid.

    Raises NotHermitian for an h0 that is not Hermitian, ValueError for
    sample times outside the envelope grid, and NonFiniteState when the
    spectral bound or the state of the CF4 route is not finite.
    """
    sched = _as_schedule(h)
    times = np.asarray(t_span, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("t_span must be an increasing 1-d array of >= 2 times")
    dim = sched.h0.dim
    if psi0.dim != dim:
        raise DimMismatch(f"state dim {psi0.dim} vs hamiltonian dim {dim}")
    observables = observables or {}
    psi = psi0.amp.astype(np.complex128)
    H0 = sched.h0.mat
    _check_hermitian(H0)

    if not sched.envelopes:
        lam, V = np.linalg.eigh(H0)
        phases = np.exp(-1j * np.outer(times - times[0], lam))
        psis = (phases * (V.conj().T @ psi)) @ V.T  # row j is psi(times[j])
        total_steps = 0
    else:
        out = list(_cf4(sched, times, psi[:, None]))
        psis = np.array([psi] + [state[:, 0] for state, _ in out])
        total_steps = out[-1][1]
    series = {name: np.real(np.sum(psis.conj() * (psis @ op.mat.T), axis=1))
              for name, op in observables.items()}

    k = Ket(psis[-1].copy(), psi0.trunc)
    drift = abs(k.norm() - 1.0)
    return EvolutionResult(
        times=times,
        observables=series,
        final_state=k.to_density_matrix(),
        nsteps=total_steps,
        trace_drift=drift,
        final_ket=k,
    )


def liouvillian_matrix(h: Operator, jumps: list) -> np.ndarray:
    """Dense generator on row-major-vectorized rho: d vec(rho)/dt = L vec(rho).

    Small systems only: the independent oracle that the tests check both
    density-matrix route against through its matrix exponential. It shares
    no code with the sparse Liouvillian that route builds.
    """
    H = h.mat
    dim = H.shape[0]
    eye = np.eye(dim)
    L = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for j in jumps:
        Lm = j.scaled_matrix()
        LdL = Lm.conj().T @ Lm
        L += np.kron(Lm, Lm.conj())
        L -= 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T))
    return L


# ----------------------------------------------------------------- fitting

@dataclass
class ExpFit:
    """Single-exponential fit A exp(-t/T) + C with RMS residual; fell_back
    is set when the nonlinear refinement failed and the log-linear estimate
    was kept."""

    T: float
    amplitude: float
    offset: float
    residual_rms: float
    fell_back: bool = False


def fit_exponential(t: np.ndarray, y: np.ndarray, floor: float = FIT_FLOOR,
                    with_offset: bool = False) -> ExpFit:
    """Log-linear least squares over the window y > floor, then nonlinear
    refinement. When curve_fit raises RuntimeError (no convergence), the
    log-linear estimate is returned with offset 0 and fell_back set. Raises
    FitDiverged when no decaying fit exists.
    """
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    m = y > floor
    if int(m.sum()) < 3:
        raise FitDiverged(f"only {int(m.sum())} samples above floor {floor}")
    lt, ly = t[m], np.log(y[m])
    A = np.vstack([lt, np.ones_like(lt)]).T
    slope, intercept = np.linalg.lstsq(A, ly, rcond=None)[0]
    if slope >= 0:
        raise FitDiverged(f"non-decaying signal (log-slope {slope:.3g} >= 0)")
    T0, A0 = -1.0 / slope, math.exp(intercept)
    fell_back = False
    try:
        if with_offset:
            p, _ = curve_fit(lambda tt, a, T, c: a * np.exp(-tt / T) + c,
                             t, y, p0=[A0, T0, 0.0], maxfev=20000)
            a_fit, T_fit, c_fit = float(p[0]), float(p[1]), float(p[2])
        else:
            p, _ = curve_fit(lambda tt, a, T: a * np.exp(-tt / T),
                             t, y, p0=[A0, T0], maxfev=20000)
            a_fit, T_fit, c_fit = float(p[0]), float(p[1]), 0.0
    except RuntimeError:
        a_fit, T_fit, c_fit, fell_back = A0, T0, 0.0, True
    if T_fit <= 0:
        raise FitDiverged(f"refined time constant {T_fit:.3g} <= 0")
    resid = y - (a_fit * np.exp(-t / T_fit) + c_fit)
    return ExpFit(T=T_fit, amplitude=a_fit, offset=c_fit,
                  residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                  fell_back=fell_back)


# ----------------------------------------------------------------- lifetimes

def nbar_time_avg(alpha: float) -> float:
    """Time-averaged photon number of the decaying cat manifold:
    |alpha|² (1+e^{-4|alpha|²})/(1-e^{-4|alpha|²})."""
    a2 = abs(alpha) ** 2
    if a2 == 0.0:
        raise ValueError("alpha must be nonzero")
    q = math.exp(-4.0 * a2)
    return a2 * (1.0 + q) / (1.0 - q)


def tc_tradeoff(T1: float, alpha: float) -> float:
    """Closed-form coherence-time trade-off T_C = T1 / (2 <n>_avg)."""
    return T1 / (2.0 * nbar_time_avg(alpha))


@dataclass(frozen=True)
class DetuningNoise:
    """Quasi-static Gaussian detuning disorder, averaged over trials."""

    mean: float = 0.0
    std: float = 0.0
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("std must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def draws(self, seed: int | None = None) -> np.ndarray:
        rng = np.random.default_rng(self.seed if seed is None else seed)
        if self.std == 0.0:
            return np.full(self.trials, self.mean)
        return rng.normal(self.mean, self.std, size=self.trials)


def _lifetime_truncation(p: KerrCatParams, trunc: Truncation | None) -> Truncation:
    return trunc if trunc is not None else default_truncation(p.alpha)


def lifetime_T_alpha(params: KerrCatParams, bath_jumps: list,
                     noise: DetuningNoise | None, t_max: float,
                     seed: int | None = None, trunc: Truncation | None = None,
                     nwindows: int = 160,
                     early_stop: float = 0.12) -> tuple[float, float]:
    """Pointer-state lifetime: prepare |+alpha>-like pointer state, track the
    well-polarization <Z> averaged over quasi-static detuning draws, fit a
    single exponential. Returns (T_alpha, fit residual RMS); T_alpha = inf
    when the signal never decays measurably.
    """
    noise = noise or DetuningNoise()
    trunc = _lifetime_truncation(params, trunc)
    times = np.linspace(0.0, t_max, nwindows + 1)
    deltas = noise.draws(seed)
    acc = None
    kept = times.size
    for dlt in deltas:
        p_i = KerrCatParams(K=params.K, eps2=params.eps2,
                            detuning=params.detuning + float(dlt))
        h = kerr_cat_hamiltonian(p_i, trunc)
        frame = build_cat_frame(h)
        rho0 = frame.w_plus.to_density_matrix()
        res = evolve(rho0, h, bath_jumps, times, {"z": frame.z},
                     early_stop=("z", early_stop) if noise.trials == 1 else None)
        z = res.observables["z"]
        if acc is None:
            acc = z.copy()
            kept = z.size
        else:
            kept = min(kept, z.size)
            acc = acc[:kept] + z[:kept]
    z_avg = acc[:kept] / len(deltas)
    if z_avg[0] - z_avg.min() < LIFETIME_SENTINEL_DROP:
        return math.inf, 0.0
    fit = fit_exponential(times[:kept], z_avg, with_offset=False)
    return fit.T, fit.residual_rms


def lifetime_T_C(params: KerrCatParams, bath_jumps: list, t_max: float,
                 trunc: Truncation | None = None,
                 nwindows: int = 120) -> tuple[float, float]:
    """Cat-superposition lifetime: prepare the even-parity manifold state,
    track <X> (even minus odd projector weight), fit exponential-plus-offset
    (alternating-parity loss rates leave a nonzero steady X). Returns
    (T_C, fit residual RMS); inf when no decay is measurable. The run is
    deterministic.
    """
    trunc = _lifetime_truncation(params, trunc)
    h = kerr_cat_hamiltonian(params, trunc)
    frame = build_cat_frame(h)
    rho0 = frame.v_even.to_density_matrix()
    times = np.linspace(0.0, t_max, nwindows + 1)
    res = evolve(rho0, h, bath_jumps, times, {"x": frame.x})
    x = res.observables["x"]
    if x[0] - x.min() < LIFETIME_SENTINEL_DROP:
        return math.inf, 0.0
    fit = fit_exponential(res.times, x, with_offset=True)
    return fit.T, fit.residual_rms


@dataclass
class DetuningSweepResult:
    """T_alpha versus static detuning with interior local maxima flagged."""

    detunings: np.ndarray
    t_alphas: np.ndarray
    fit_residuals: np.ndarray
    maxima_indices: list


def detuning_lifetime_sweep(params: KerrCatParams, bath_jumps: list,
                            delta_grid, t_max: float,
                            trunc: Truncation | None = None,
                            nwindows: int = 120) -> DetuningSweepResult:
    """lifetime_T_alpha at each static detuning on the grid (single trial,
    no disorder); reports interior local maxima of T_alpha(delta)."""
    deltas = np.asarray(delta_grid, dtype=float)
    ts = np.empty(deltas.size)
    errs = np.empty(deltas.size)
    for i, d in enumerate(deltas):
        p_i = KerrCatParams(K=params.K, eps2=params.eps2,
                            detuning=params.detuning + float(d))
        t_i, e_i = lifetime_T_alpha(p_i, bath_jumps, None, t_max, trunc=trunc,
                                    nwindows=nwindows)
        ts[i], errs[i] = t_i, e_i
    maxima = [i for i in range(1, deltas.size - 1)
              if ts[i] > ts[i - 1] and ts[i] > ts[i + 1]]
    return DetuningSweepResult(detunings=deltas, t_alphas=ts,
                               fit_residuals=errs, maxima_indices=maxima)
