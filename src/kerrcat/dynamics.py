"""Lindblad master-equation integration, bath construction, and lifetime fits.

Rates are plain 1/us (no 2π); frequencies entering Bose-Einstein factors are
angular (rad/us). Each class of problem has one route:

* a ket under a constant Hamiltonian is propagated exactly from the
  eigendecomposition of H;
* a ket under a schedule with envelopes is integrated by the fourth-order
  commutator-free exponential scheme CF4 on the envelope grid, each
  exponential a Chebyshev series (:func:`_cf4`, which also advances a block
  of kets in column groups on envelope grids of their own, the whole gate
  chevron at once);
* a density matrix, under a constant Hamiltonian or a schedule, is
  integrated by the same CF4 scheme in real arithmetic, on the coordinates
  of rho in an orthonormal Hermitian basis where the sparse Liouvillian L is
  a real matrix (:func:`_real_liouvillian`). Without envelopes an interval
  is one exponential exp(L dt), with two per interval under envelopes. L
  conserves the relative photon-number parity of rho's entries, so a state
  in one of the two parity blocks is advanced in that block alone.

Every route is an exponential: the Chebyshev routes share one series
(:func:`_chebyshev_series`) and one construction of the sparse Liouvillian
(:func:`_sparse_liouvillian`). The tests check the ket routes against
``expm`` and ``solve_ivp``, and the density matrix route against a
matrix-exponential solution of the vectorized generator and ``solve_ivp``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy import sparse
from scipy.linalg.blas import daxpy, dgemm, zaxpy
# y += A x in C for a CSR A: private, but its signature has held for many
# scipy releases, and A @ x wraps it in ~3 us of Python dispatch per call
from scipy.sparse._sparsetools import csr_matvec
from scipy.special import jv

from .catframe import build_cat_frame
from .errors import (DimMismatch, FitDiverged, NonFiniteState,
                     NonPositiveTemperature, ZeroG3)
from .fock import (DensityMatrix, Ket, Operator, Truncation, _check_hermitian,
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
# CF4 steps whose weights are held at once: a gate chevron's block of kets
# would otherwise hold them for every step and column at once (~8 MB for
# the registry grid)
CF4_WEIGHT_BLOCK = 64
FIT_FLOOR = 0.05
# Convergence tolerances of the nonlinear exponential fit: curve_fit's default
# 1.5e-8 stopped the alpha² = 1 T_C fit at 100x rates 7.7e-7 short of the
# least-squares optimum.
FIT_TOL = 1e-12
LIFETIME_SENTINEL_DROP = 0.02
# A single-trial T_alpha run stops sampling once <Z> falls below this.
LIFETIME_EARLY_STOP = 0.12
# Sample windows of a T_C run and of each point of a detuning sweep.
LIFETIME_WINDOWS = 120


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
    nterms: int = 0  # Chebyshev matrix products, summed over the exponentials
    trace_drift: float = 0.0
    final_ket: Ket | None = None  # populated by pure-state evolution only


def _as_schedule(h) -> Schedule:
    if isinstance(h, Schedule):
        return h
    if isinstance(h, Operator):
        return Schedule(h0=h)
    raise TypeError(f"h must be Operator or Schedule, got {type(h)}")


def _checked_inputs(h, t_span, state_dim: int,
                    observables: dict | None) -> tuple[Schedule, np.ndarray, dict]:
    """The input checks evolve and evolve_ket share: h as a Schedule, t_span
    as increasing times, state and observables of h's dim, h0 Hermitian."""
    sched = _as_schedule(h)
    times = np.asarray(t_span, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise ValueError("t_span must be an increasing 1-d array of >= 2 times")
    dim = sched.h0.dim
    if state_dim != dim:
        raise DimMismatch(f"state dim {state_dim} vs hamiltonian dim {dim}")
    observables = observables or {}
    for name, op in observables.items():
        if op.dim != dim:
            raise DimMismatch(f"observable {name!r} dim mismatch")
    _check_hermitian(sched.h0.mat, "h0")
    return sched, times, observables


def _bessel_weights(x: float) -> np.ndarray:
    """Weights (2 - [k = 0]) J_k(x) of the Chebyshev series
    exp(-i x X) = sum_k (2 - [k = 0]) (-i)^k J_k(x) T_k(X) for X with
    spectrum in [-1, 1] (see _cf4 for a dissipative X); terms with
    |J_k(x)| below CHEB_TAIL are dropped."""
    k = np.arange(int(x + 60.0 + 10.0 * x ** (1.0 / 3.0)))
    bessel = jv(k, x)
    m = max(2, int(np.nonzero(np.abs(bessel) > CHEB_TAIL)[0][-1]) + 1)
    return np.where(k[:m] == 0, 1.0, 2.0) * bessel[:m]


def _chebyshev_series(M, w: np.ndarray, v: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_k coef[k] P_k v for the block v (n x nb) and A = sum_q w[q] M_q,
    given M = [M_0 | M_1 | ... | M_Q], Q + 1 real n x n matrices side by
    side, and w ((Q+1) x nb) the weights of each column of v (w[0] is 1
    except for a column that takes a shorter interval than the series is
    for; see _cf4). P_0 = 1, P_1 = A/2 and
    P_{k+1} = A P_k + P_{k-1} for a CSR M and a real v
    (P_k = (-i)^k T_k(iA/2), real for a real A), A P_k - P_{k-1} for a
    dense M and a complex v (P_k = T_k(A/2)).

    Each term is one multiply-accumulate written over the older of two
    rotating buffers, t_{k+1} = M U_k +- t_{k-1}, where U_k = (w[0] t_k,
    w[1] t_k, ..., w[Q] t_k) is filled in place by one broadcast multiply
    and the sum gains coef[k] t_k by one BLAS axpy; no array is allocated
    per term. Where w[0] = 1, U_k starts with t_k itself (and is t_k alone
    when Q = 0, with no multiply); otherwise w[0] t_k takes a slot of its
    own beside t_k. A CSR M goes through
    csr_matvec, scipy's C kernel for y += M x: M @ x reaches the same
    kernel only after about 3 us of Python dispatch, as long as the product
    itself at dim 18. A dense M goes through BLAS dgemm with beta = -1 on the
    float64 views of the complex buffers (real and imaginary parts
    interleaved), passed transposed so that the C-ordered arrays reach BLAS
    as Fortran ones, uncopied. v is read, never written.
    """
    # two rotating buffers, each (t, U) with U = (w[0] t, ..., w[Q] t) and,
    # where w[0] = 1, U[0] = t itself; every view below shares their memory
    lead = int(np.any(w[0] != 1.0))
    bufs = np.zeros((2, len(w) + lead) + v.shape,
                    complex if isinstance(M, np.ndarray) else float)
    ts, us = [bufs[0, 0], bufs[1, 0]], [bufs[0, lead:], bufs[1, lead:]]
    flat = [t.reshape(-1) for t in ts]
    if sparse.issparse(M):  # y += M x
        if M.shape != (v.size, len(w) * v.size):  # csr_matvec checks no bounds
            raise ValueError(f"CSR stack of shape {M.shape} for {len(w)} x {v.size} blocks")
        muladd = partial(csr_matvec, M.shape[0], M.shape[1], M.indptr, M.indices, M.data)
        xs, ys, axpy = [u.reshape(-1) for u in us], flat, daxpy
    else:  # y = M x - y, transposed: the C-ordered views read as Fortran ones
        def muladd(x, y, MT=M.T):
            dgemm(1.0, x, MT, -1.0, y, 0, 0, 1)
        xs = [u.reshape(-1, v.shape[1]).view(float).T for u in us]
        ys, axpy = [t.view(float).T for t in ts], zaxpy
    ts[0][...] = v
    # the slots of U that need a multiply, and their weights
    wq, fill = w[1 - lead:, None], [u[1 - lead:] for u in us]
    acc = coef[0] * flat[0]
    for k, c in enumerate(coef[1:]):
        new, old = k & 1, 1 - (k & 1)  # t_{k+1} is written over t_{k-1}
        if wq.size:
            np.multiply(wq, ts[new], out=fill[new])
        muladd(xs[new], ys[old])
        if not k:  # P_1 = A/2
            ts[1] *= 0.5
        axpy(flat[old], acc, acc.size, c)
    return acc.reshape(v.shape)


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
    rho in that basis; they are real for a Hermitian rho. Each coordinate
    belongs to one position (i, j) of rho, and they are ordered by block:
    first the even block (i + j even), the first (dim² + 1) // 2
    coordinates, then the odd block, each in the row-major order of its
    positions. L maps Hermitian matrices to Hermitian matrices, so
    L_r = Q L Q† is real (CSR); d is that of _sparse_liouvillian. When H
    and every jump have definite photon-number parity, L conserves the
    relative parity (i + j) mod 2 and L_r is block diagonal: for the full
    bath at dim 28 the blocks hold 392 coordinates each, with 4866 and 4996
    of the 9862 nonzeros.
    """
    dim = H.shape[0]
    i, j = np.triu_indices(dim, 1)
    up, lo, diag = i * dim + j, j * dim + i, np.arange(dim) * (dim + 1)
    s = math.sqrt(0.5)
    rows = np.concatenate([diag, up, up, lo, lo])
    cols = np.concatenate([diag, up, lo, up, lo])
    vals = np.concatenate([np.ones(dim), np.full(i.size, s), np.full(i.size, s),
                           np.full(i.size, -1j * s), np.full(i.size, 1j * s)])
    pos = np.arange(dim * dim)
    block_order = np.argsort((pos // dim + pos % dim) % 2, kind="stable")
    Q = sparse.csr_matrix((vals, (rows, cols)), shape=(dim * dim, dim * dim))[block_order]
    adH, D, d = _sparse_liouvillian(H, Ls)
    Lr = (Q @ (-1j * adH + D) @ Q.conj().T).real
    Lr.eliminate_zeros()
    return Q, Lr, d


def _cf4(groups: list, y: np.ndarray, Ls: list | None = None):
    """Advance y with the fourth-order commutator-free exponential
    integrator CF4 (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006);
    Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)), yielding
    (group, state, intervals taken so far, matrix products taken so far) for
    every group at every one of its sample times after the first. Each
    yielded state is an array of its own.

    groups is a list of (sched, times, envs). With Ls None, y is a block of
    kets (dim x nb) and each group is a run of its columns, in order, under
    H_b(t) = h0 + sum_e c_eb(t) M_e + c_eb*(t) M_e†: every group shares h0
    and the envelope operators M_e, and has its own envelope grid (its
    sched) and sample times; envs[e] (columns x nsamp) holds each of its
    columns' own samples of envelope e (None: the schedule's, for every
    column; then y is one group). Otherwise y is row-major vec(rho), 1-d and
    one group, under L(t) = -i[H(t), .] + D, D the dissipator of the
    sqrt(rate)-scaled jump matrices Ls; CF4 holds for any linear
    y' = A(t) y. The run is in real arithmetic on x = (Q vec(rho)).real, the
    coordinates of rho in the Hermitian basis of _real_liouvillian, so it
    evolves the Hermitian part of rho and yields the Hermitian
    vec(rho) = Q† x.

    The intervals of a group are those of its envelope grid, cut at every
    sample time, so the envelope is linear on each. An interval of length h
    is exp(-i h G(w2)) exp(-i h G(w1)), G(w) = G0 + sum_e (w_e M_e + h.c.),
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
    and (range of h0 + d)/nexp for rho, plus max |weight| over all columns
    times the row-sum norm of each Hermitian drive term (of ad P for rho).
    For kets the series is in T_k((G - center)/radius) with weights
    e^{-i h center} (-i)^k J_k; for rho it is the real recurrence
    P_{k+1} = A P_k + P_{k-1} in the real exponent, with real weights J_k.
    An exponential costs about h * radius matrix-vector products; the
    Bessel weights are computed once per distinct interval length. h0 must
    be Hermitian.

    Every group advances in one loop, the whole block at once: step k takes
    each group on by its own k-th interval h_b, through one series for the
    longest of them, h. A column of a shorter interval has every term, G0
    included, weighted by h_b/h, for exp(-i h (h_b/h) G) = exp(-i h_b G);
    the phase e^{-i (h - h_b) center} that the series weights add to it is
    taken out when its state is yielded. The groups run longest first
    (stable in their order otherwise), so the columns still running are a
    prefix of the block, and a group that has ended drops out of the series
    that follow.

    Both routes apply real matrices only. For kets each term K of G (G0 and
    each Hermitian drive term) is split into Re K and Im K, the latter a
    term of its own weighted by i, and parts that vanish are dropped, so a
    real H (the Kerr-cat H with real eps2 and the gate's n/2 under a real
    envelope) leaves real terms only. The terms are stacked
    side by side, [G0 | P_1 | ... | P_Q], dense for kets and CSR for rho
    (whose x is then an n x 1 block), and their weights for each
    exponential and column are one (Q+1) x nb array, so every Chebyshev
    term is one multiply-accumulate of _chebyshev_series: csr_matvec for
    rho, one dgemm on the float64 view of the ket block for kets. A
    constant generator has Q = 0. The caller's y is never written.

    For rho, x is split into the two relative-parity blocks of
    _real_liouvillian. When x is zero on one block, and no stacked term has
    a nonzero entry taking the other block into it, that block stays zero,
    and only the other one is advanced: every term of the stack is cut to
    it, and each product costs about half as much. This holds whenever H,
    the drive terms and the jumps have definite photon-number parity. The
    radius, the damping bound and the Bessel weights stay those of the whole
    generator, so the series and nterms are unchanged.

    Raises ValueError for groups that do not share h0 and the envelope
    operators or do not add up to the columns of y, and NonFiniteState,
    naming the start of the interval, when the spectral bound or the state
    is not finite.
    """
    sched = groups[0][0]
    if len(groups) > 1 and (Ls is not None or not sched.envelopes):
        raise ValueError("only a ket block under envelopes splits into column groups")
    for other, _, _ in groups[1:]:
        if not (np.array_equal(other.h0.mat, sched.h0.mat)
                and len(other.envelopes) == len(sched.envelopes)
                and all(np.array_equal(a.mat, b.mat) for (_, a), (_, b)
                        in zip(other.envelopes, sched.envelopes))):
            raise ValueError("column groups must share h0 and the envelope operators")
    nexp = 2 if sched.envelopes else 1
    H0 = sched.h0.mat
    lam = np.linalg.eigvalsh(H0)
    if Ls is None:
        center = (lam[0] + lam[-1]) / (2 * nexp)
        radius, damping = (lam[-1] - lam[0]) / (2 * nexp), 0.0
        G0 = H0 / nexp - center * np.eye(H0.shape[0])
        mats = [G0.real]
    else:
        Q, Lr, d = _real_liouvillian(H0, Ls)
        Qh = Q.conj().T.tocsr()
        center, radius, damping = 0.0, (lam[-1] - lam[0] + d) / nexp, d / nexp
        mats = [Lr / nexp]
        y = (Q @ y).real[:, None]

    # each group's intervals: its envelope grid cut at its sample times, and
    # the interval count at each of its samples after the first
    runs = []
    for s, times, envs in groups:
        s.check_span(times)
        tol = SPAN_RTOL * s.dt
        grid = s.t0 + s.dt * np.arange(max((env.size for env, _ in s.envelopes),
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
        envs = [env[None] for env, _ in s.envelopes] if envs is None else envs
        runs.append((s, steps, starts, done, envs))
    width = [len(r[4][0]) for r in runs] if len(runs) > 1 else [y.shape[1]]
    if sum(width) != y.shape[1]:
        raise ValueError(f"column groups of {sum(width)} columns for a block of {y.shape[1]}")
    order = sorted(range(len(runs)), key=lambda g: -runs[g][1].size)
    if order != sorted(order):
        first = np.cumsum([0] + width)
        y = y[:, np.concatenate([np.arange(first[g], first[g + 1]) for g in order])]
    runs = [runs[g] for g in order]
    edge = np.cumsum([0] + [width[g] for g in order])  # group p: columns edge[p]:edge[p+1]
    # the series of step k is for the longest interval h[k] of the groups
    # still running; each column's terms are weighted by its own over that
    h = np.zeros(runs[0][1].size)
    for _, steps, _, _, _ in runs:
        np.maximum(h[:steps.size], steps, out=h[:steps.size])

    # w M + w* M† = Re(w) (M + M†) + Im(w) i(M - M†): Hermitian terms with
    # real weights. For kets every term K, G0 included, is split into Re K
    # and Im K, the latter weighted by i, so the stack is real. A term whose
    # operator or envelope samples vanish is dropped. Each stacked term
    # takes its weights from an envelope's real or imaginary part (none for
    # G0) times a factor 1 or i.
    source = [(None, None, 1.0)]  # (envelope, np.real or np.imag, factor)
    if Ls is None and np.any(G0.imag):
        mats.append(G0.imag)
        source.append((None, None, 1j))
    drive = []  # (envelope, np.real or np.imag, row-sum norm) of each drive term
    for e, (_, op) in enumerate(sched.envelopes):
        M = op.mat
        for mat, take in ((M + M.conj().T, np.real), (1j * (M - M.conj().T), np.imag)):
            if np.any(mat) and any(np.any(take(r[4][e])) for r in runs):
                g = mat if Ls is None else _ad(mat)
                drive.append((e, take, float(abs(g).sum(axis=1).max())))
                if Ls is None:
                    for m, fac in ((mat.real, 1.0), (mat.imag, 1j)):
                        if np.any(m):
                            mats.append(m)
                            source.append((e, take, fac))
                else:
                    mats.append((Q @ (-1j * g) @ Qh).real)
                    source.append((e, take, 1.0))
    dtype = complex if any(fac == 1j for _, _, fac in source) else float

    def weights(p, k0, k1):
        """Each envelope's weights for the columns of group p in its
        intervals k0:k1 (columns x intervals x exponentials)."""
        s, steps, starts, _, envs = runs[p]
        x = (starts[k0:k1, None] + steps[k0:k1, None] * CF4_NODES - s.t0) / s.dt
        w = []
        for env in envs:
            i = np.minimum(x.astype(int), env.shape[-1] - 2)
            f = x - i
            w.append((env[:, i] * (1.0 - f) + env[:, i + 1] * f) @ CF4_MIX)
        return w

    def block(k0, live):
        """W[:, k - k0, e, b], the weights of the stacked terms in exponential
        e of step k for column b, over CF4_WEIGHT_BLOCK steps from k0 and the
        columns of the first live groups (unused past the end of b's group)."""
        k1 = min(k0 + CF4_WEIGHT_BLOCK, h.size)
        W = np.empty((len(mats), k1 - k0, nexp, edge[live]), dtype)
        for p in range(live):
            steps = runs[p][1][k0:k1]
            n, cols = steps.size, slice(edge[p], edge[p + 1])
            scale = steps / h[k0:k0 + n]
            w = weights(p, k0, k0 + n)
            for t, (e, take, fac) in enumerate(source):
                W[t, :n, :, cols] = (fac * scale[:, None, None] if e is None else
                                     np.moveaxis(fac * take(w[e]) * scale[:, None], 0, -1))
        return W

    # each drive term adds its largest weight over all columns
    for e, take, norm in drive:
        radius += max(float(np.max(np.abs(take(weights(p, 0, None)[e]))))
                      for p in range(len(runs))) * norm
    start0 = runs[0][2]
    if not math.isfinite(radius):
        raise NonFiniteState(f"non-finite spectral bound at t = {start0[0]:.4g} us")
    if radius == 0.0:  # zero generator: any positive scale gives the identity
        radius = 1.0
    if Ls is not None:  # advance one relative-parity block where that is exact
        nev = (y.size + 1) // 2
        for b, rest in ((slice(0, nev), slice(nev, None)), (slice(nev, None), slice(0, nev))):
            if not np.any(y[rest]) and not any(np.any(m[rest, b].data) for m in mats):
                mats, y, Qh = [m[b, b] for m in mats], y[b], Qh[:, b]
                break
    # A = 2 (G - center) / radius for kets, 2 B / radius for the real exponent
    # h B of rho
    stack = (2.0 / radius) * (np.concatenate(mats, axis=1) if Ls is None
                              else sparse.hstack(mats, format="csr"))
    # the yields, in step order, and the phase each column of a group lags by
    events = sorted((k, p) for p, run in enumerate(runs) for k in run[3])
    lag = [nexp * np.cumsum(h[:steps.size] - steps) for _, steps, _, _, _ in runs]

    nxt = nterms = 0
    live = len(runs)
    coefs: dict = {}
    for k, hk in enumerate(h):
        while runs[live - 1][1].size <= k:  # a group has ended: drop its columns
            live -= 1
        if k % CF4_WEIGHT_BLOCK == 0:
            W = block(k, live)
        if hk not in coefs:
            c = _bessel_weights(hk * radius)
            coefs[hk] = (np.exp(-1j * hk * center) * (-1j) ** np.arange(c.size) * c
                         if Ls is None else c)
        coef = coefs[hk]
        for e in range(nexp):
            y = _chebyshev_series(stack, W[:, k % CF4_WEIGHT_BLOCK, e, :edge[live]],
                                  y[:, :edge[live]], coef)
        nterms += nexp * (coef.size - 1)
        if not np.all(np.isfinite(y)):
            raise NonFiniteState(f"non-finite state at t = {start0[k]:.4g} us")
        while nxt < len(events) and events[nxt][0] == k + 1:
            p = events[nxt][1]
            state = y[:, edge[p]:edge[p + 1]]
            state = state * np.exp(1j * center * lag[p][k]) if lag[p][k] else state.copy()
            yield order[p], (state if Ls is None else Qh @ state[:, 0]), k + 1, nterms
            nxt += 1


def _jump_matrices(jumps: list, dim: int) -> list:
    """The sqrt(rate)-scaled matrices of the jumps of nonzero rate; raises
    DimMismatch for a jump operator of another dim."""
    if any(j.operator.dim != dim for j in jumps):
        raise DimMismatch("jump operator dim mismatch")
    return [j.scaled_matrix() for j in jumps if j.rate > 0.0]


def evolve(rho0: DensityMatrix, h, jumps: list, t_span,
           observables: dict | None = None) -> EvolutionResult:
    """Integrate drho/dt = -i[H,rho] + sum rate*(L rho L† - ½{L†L, rho}).

    t_span: increasing sample times (first entry is the initial time).
    observables: name -> Operator; real parts of Tr(O rho) are recorded.

    Every h, an Operator or a Schedule, is integrated by the CF4 scheme of
    evolve_ket (:func:`_cf4`), each exponential a Chebyshev series in the
    sparse Liouvillian. The run is in real arithmetic on the coordinates of
    rho in an orthonormal Hermitian basis, so it evolves the Hermitian part
    (rho0 + rho0†)/2 and drops the anti-Hermitian part, which DensityMatrix
    bounds by HERMITIAN_ATOL. A constant Hamiltonian (an Operator, or a
    Schedule without envelopes) takes one exponential exp(L dt) per
    interval between samples, accurate to about machine precision for any
    increasing t_span. A schedule with envelopes takes two per interval of
    the envelope grid cut at the sample times, and t_span must lie within
    the grid's span. Intervals are cut further into pieces that keep the
    damping of each exponential bounded; nsteps is the number of pieces
    taken, and nterms the number of Chebyshev matrix products. A rho0 in
    one relative-parity block (rho_ij = 0 wherever i + j is odd, or
    wherever it is even), under an h and jumps of definite photon-number
    parity, is advanced in that block alone, at about half the cost (see
    _cf4).

    There is no error control: under envelopes the envelope grid sets the
    accuracy. Strong loss against the grid spacing (interval * d/2 >~ 1,
    d the dissipator bound) together with an envelope that jumps by O(1)
    between samples misses solve_ivp DOP853 by up to 3e-5; resampling the
    envelope finer restores the accuracy. The lossy X gate has
    interval * d/2 ~ 7e-4.

    Raises NotHermitian for an h0 that is not Hermitian, ValueError for
    sample times outside the envelope grid, and NonFiniteState when the
    spectral bound or the state is not finite.
    """
    sched, times, observables = _checked_inputs(h, t_span, rho0.dim, observables)
    dim = rho0.dim
    r = rho0.mat.astype(np.complex128)
    states = _cf4([(sched, times, None)], r.reshape(-1), _jump_matrices(jumps, dim))

    series: dict = {name: [] for name in observables}
    total_steps = total_terms = 0
    drift = abs(float(np.real(np.trace(r))) - 1.0)

    def sample(rho_now):
        for name, op in observables.items():
            series[name].append(float(np.real(np.trace(op.mat @ rho_now))))

    sample(r)
    for _, v, total_steps, total_terms in states:
        r = v.reshape(dim, dim)
        sample(r)
        drift = max(drift, abs(float(np.real(np.trace(r))) - 1.0))

    final = DensityMatrix((r + r.conj().T) / 2, rho0.trunc,
                          trace_atol=1e-6, psd_atol=EVOLVE_PSD_ATOL)
    return EvolutionResult(
        times=times,
        observables={k: np.asarray(v) for k, v in series.items()},
        final_state=final,
        nsteps=total_steps,
        nterms=total_terms,
        trace_drift=drift,
    )


def evolve_ket(psi0: Ket, h, t_span, observables: dict | None = None) -> EvolutionResult:
    """Closed-system counterpart of evolve() for pure states.

    A constant Hamiltonian (an Operator, or a Schedule without envelopes) is
    propagated exactly: H = V diag(lam) V† is diagonalised once and every
    sample is psi(t) = V diag(exp(-i lam (t - t0))) V† psi0, for any
    increasing t_span, uniform or not; nsteps and nterms are then 0.

    A schedule with envelopes is integrated by the fourth-order
    commutator-free exponential scheme CF4 on the envelope grid, cut at every
    sample time: two Chebyshev-series exponentials per interval, with an
    error fifth order in the interval length. nsteps is then the number of
    CF4 intervals taken, and nterms the number of Chebyshev matrix products.
    t_span must lie within the envelope grid's span.

    Raises NotHermitian for an h0 that is not Hermitian, DimMismatch for a
    state or observable of another dim than h0, ValueError for sample times
    outside the envelope grid, and NonFiniteState when the spectral bound or
    the state of the CF4 route is not finite.
    """
    sched, times, observables = _checked_inputs(h, t_span, psi0.dim, observables)
    psi = psi0.amp.astype(np.complex128)
    H0 = sched.h0.mat

    if not sched.envelopes:
        lam, V = np.linalg.eigh(H0)
        phases = np.exp(-1j * np.outer(times - times[0], lam))
        psis = (phases * (V.conj().T @ psi)) @ V.T  # row j is psi(times[j])
        total_steps = total_terms = 0
    else:
        out = list(_cf4([(sched, times, None)], psi[:, None]))
        psis = np.array([psi] + [state[:, 0] for _, state, _, _ in out])
        _, _, total_steps, total_terms = out[-1]
    series = {name: np.real(np.sum(psis.conj() * (psis @ op.mat.T), axis=1))
              for name, op in observables.items()}

    k = Ket(psis[-1].copy(), psi0.trunc)
    drift = abs(k.norm() - 1.0)
    return EvolutionResult(
        times=times,
        observables=series,
        final_state=k.to_density_matrix(),
        nsteps=total_steps,
        nterms=total_terms,
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


def fit_exponential(t: np.ndarray, y: np.ndarray,
                    with_offset: bool = False) -> ExpFit:
    """Log-linear least squares over the window y > FIT_FLOOR, then nonlinear
    refinement with the analytic Jacobian (a finite-difference one moved T
    by up to 1e-8 relative under round-off in y), converged to FIT_TOL in
    xtol, ftol and gtol. When curve_fit raises RuntimeError (no
    convergence), the log-linear estimate is returned with offset 0 and
    fell_back set. Raises FitDiverged when no decaying fit exists.
    """
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    m = y > FIT_FLOOR
    if int(m.sum()) < 3:
        raise FitDiverged(f"only {int(m.sum())} samples above floor {FIT_FLOOR}")
    lt, ly = t[m], np.log(y[m])
    A = np.vstack([lt, np.ones_like(lt)]).T
    slope, intercept = np.linalg.lstsq(A, ly, rcond=None)[0]
    if slope >= 0:
        raise FitDiverged(f"non-decaying signal (log-slope {slope:.3g} >= 0)")
    T0, A0 = -1.0 / slope, math.exp(intercept)
    fell_back = False
    # on first use: scipy.optimize adds ~80 ms to importing kerrcat
    from scipy.optimize import curve_fit

    def jac(tt, a, T, *c):  # d/d(a, T[, c]) of a exp(-t/T) [+ c]
        e = np.exp(-tt / T)
        return np.stack([e, a * tt / T ** 2 * e] + [np.ones_like(tt)] * len(c), axis=1)
    opts = dict(jac=jac, maxfev=20000, xtol=FIT_TOL, ftol=FIT_TOL, gtol=FIT_TOL)
    try:
        if with_offset:
            p, _ = curve_fit(lambda tt, a, T, c: a * np.exp(-tt / T) + c,
                             t, y, p0=[A0, T0, 0.0], **opts)
            a_fit, T_fit, c_fit = float(p[0]), float(p[1]), float(p[2])
        else:
            p, _ = curve_fit(lambda tt, a, T: a * np.exp(-tt / T),
                             t, y, p0=[A0, T0], **opts)
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

    def draws(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.std == 0.0:
            return np.full(self.trials, self.mean)
        return rng.normal(self.mean, self.std, size=self.trials)


def _lifetime_truncation(p: KerrCatParams, trunc: Truncation | None) -> Truncation:
    return trunc if trunc is not None else default_truncation(p.alpha)


def _pointer_z(h: Operator, Ls: list, frame, times: np.ndarray,
               stop: bool) -> tuple[np.ndarray, int]:
    """<Z>(t) from rho0 = |w+><w+| under h and the jump matrices Ls, sampled
    at times (up to the first sample below LIFETIME_EARLY_STOP if stop), and
    the Chebyshev matrix products taken.

    Z = |v_e><v_o| + |v_o><v_e| lies in the odd relative-parity block, so
    <Z> reads only the odd part of rho. When every jump has definite
    photon-number parity (as h has, for it has a cat frame), that part
    evolves on its own: the run starts from the odd part of |w+><w+|,
    (|v_e><v_o| + |v_o><v_e|)/2 = Z/2, and _cf4 advances the odd block
    alone. Otherwise it starts from |w+><w+| itself, in both blocks. Each
    sample is one dot product, Tr(Z rho) = vec(Z^T) . vec(rho).
    """
    z = frame.z.mat
    zt = z.T.reshape(-1)
    odd = np.add.outer(np.arange(z.shape[0]), np.arange(z.shape[0])) % 2 == 1
    if all(not np.any(L[odd]) or not np.any(L[~odd]) for L in Ls):
        y = z.reshape(-1) / 2.0
    else:
        y = np.outer(frame.w_plus.amp, frame.w_plus.amp.conj()).reshape(-1)
    trace, nterms = [float(np.real(zt @ y))], 0
    for _, v, _, nterms in _cf4([(Schedule(h0=h), times, None)], y, Ls):
        trace.append(float(np.real(zt @ v)))
        if stop and trace[-1] < LIFETIME_EARLY_STOP:
            break
    return np.asarray(trace), nterms


def lifetime_T_alpha(params: KerrCatParams, bath_jumps: list,
                     noise: DetuningNoise | None, t_max: float,
                     trunc: Truncation | None = None,
                     nwindows: int = 160) -> tuple[float, float]:
    """Pointer-state lifetime: prepare |+alpha>-like pointer state, track the
    well-polarization <Z> averaged over quasi-static detuning draws (drawn
    with noise.seed), fit a single exponential. A single trial stops
    sampling once <Z> falls below LIFETIME_EARLY_STOP. Returns (T_alpha, fit
    residual RMS); T_alpha = inf when the signal never decays measurably.

    <Z> reads only the odd relative-parity block of rho. So when every jump
    has definite photon-number parity, as the bath's have, each run evolves
    the odd part of the pointer state alone, in that block of the
    Liouvillian: half its coordinates and nonzeros (see _pointer_z).
    """
    noise = noise or DetuningNoise()
    trunc = _lifetime_truncation(params, trunc)
    Ls = _jump_matrices(bath_jumps, trunc.dim)
    times = np.linspace(0.0, t_max, nwindows + 1)
    deltas = noise.draws()
    traces = []
    for dlt in deltas:
        p_i = KerrCatParams(K=params.K, eps2=params.eps2,
                            detuning=params.detuning + float(dlt))
        h = kerr_cat_hamiltonian(p_i, trunc)
        # only a single trial stops early, so every averaged trace has one length
        traces.append(_pointer_z(h, Ls, build_cat_frame(h), times, noise.trials == 1)[0])
    z_avg = sum(traces) / len(deltas)
    if z_avg[0] - z_avg.min() < LIFETIME_SENTINEL_DROP:
        return math.inf, 0.0
    fit = fit_exponential(times[:z_avg.size], z_avg, with_offset=False)
    return fit.T, fit.residual_rms


def lifetime_T_C(params: KerrCatParams, bath_jumps: list, t_max: float,
                 trunc: Truncation | None = None) -> tuple[float, float]:
    """Cat-superposition lifetime: prepare the even-parity manifold state,
    track <X> (even minus odd projector weight) on LIFETIME_WINDOWS windows
    up to t_max, fit exponential-plus-offset
    (alternating-parity loss rates leave a nonzero steady X). Returns
    (T_C, fit residual RMS); inf when no decay is measurable. The run is
    deterministic.

    |v_e><v_e|, X and the trace all lie in the even relative-parity block
    of rho, so evolve advances that block alone.
    """
    trunc = _lifetime_truncation(params, trunc)
    h = kerr_cat_hamiltonian(params, trunc)
    frame = build_cat_frame(h)
    rho0 = frame.v_even.to_density_matrix()
    times = np.linspace(0.0, t_max, LIFETIME_WINDOWS + 1)
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
                            trunc: Truncation | None = None) -> DetuningSweepResult:
    """lifetime_T_alpha on LIFETIME_WINDOWS windows at each static detuning
    on the grid (single trial, no disorder); reports interior local maxima
    of T_alpha(delta)."""
    deltas = np.asarray(delta_grid, dtype=float)
    ts = np.empty(deltas.size)
    errs = np.empty(deltas.size)
    for i, d in enumerate(deltas):
        p_i = KerrCatParams(K=params.K, eps2=params.eps2,
                            detuning=params.detuning + float(d))
        t_i, e_i = lifetime_T_alpha(p_i, bath_jumps, None, t_max, trunc=trunc,
                                    nwindows=LIFETIME_WINDOWS)
        ts[i], errs[i] = t_i, e_i
    maxima = [i for i in range(1, deltas.size - 1)
              if ts[i] > ts[i - 1] and ts[i] > ts[i + 1]]
    return DetuningSweepResult(detunings=deltas, t_alphas=ts,
                               fit_residuals=errs, maxima_indices=maxima)
