"""Free Hamiltonians, their exact bi-Hamiltonian flows on U(n) x Herm(n),
projection to the reduced chart and trajectory extraction.

The flow g(t) = exp(i t L0^k) g0, L(t) = L0 is that of H_{k+1} under the
first bracket and of H_k under the second; the exponential comes from a
unitary diagonalization of L0, so g(t) is unitary and the reduced L(t) is
a unitary conjugate of L0.  The conserved values h_l = tr(L^l)/l are
algebra.power_traces of the reduced L, exact up to their rounding model:
about l n eps (1 + max|w|^l) over the eigenvalues w of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, phase
from .algebra import TorusReg
from .config import MATCH_TIE_TOL, REGULARITY_GAP, UNITARY_TOL
from .phase import FullPoint, RedPoint

TWO_PI = 2.0 * np.pi


class AmbiguousMatchError(algebra._MemberError):
    """Two cyclic rotations match consecutive eigenphase samples equally well."""


class CertificationError(algebra._MemberError):
    """g is not unitary: the flow's start point is off by more than
    UNITARY_TOL * n, or a g to reduce holds a NaN or an infinity, or no
    Hermitian angle reconstructs it within UNITARY_TOL * n."""


def hk(L: np.ndarray, k: int):
    """Free Hamiltonian tr(L^k)/k as a power trace (algebra.power_traces,
    with its rounding model): a float for one matrix, one value per member
    of a stack.  k is an integer >= 1 (else a TypeError or ValueError)."""
    k = phase._index(k, "k", 1)
    h = algebra.power_traces(L, k)[..., -1]
    return float(h) if h.ndim == 0 else h


def _flow_g(x0: FullPoint, k: int, t: np.ndarray) -> np.ndarray:
    """The stack of g(t) = exp(i t L0^k) g0 over the 1-D array t, of shape t.shape + S
    for x0 of batch axes S (those of g0 and L0 broadcast), by one eigh of L0.
    Before it, k must be an integer >= 1 (TypeError for a non-integer), each
    t finite (ValueError naming the first that is not) and g0 unitary
    (CertificationError naming the first member of g0's stack that is not);
    after it, each phase t w^k finite (ValueError naming its t, no warning)."""
    k = phase._index(k, "k", 1)
    if not np.isfinite(t).all():
        raise ValueError(f"flow needs a finite t, got {t[~np.isfinite(t)][0]}")
    defect = phase._member_norm(x0.g.conj().swapaxes(-1, -2) @ x0.g - np.eye(x0.n),
                                x0.g.shape[:-2])
    unitary = defect <= UNITARY_TOL * x0.n  # False for a NaN defect
    if not unitary.all():
        raise CertificationError.first(~unitary, lambda i: (
            f"flow needs a unitary g: |g^dagger g - 1| = {defect.flat[i]:.3e}"))
    w, V = np.linalg.eigh(x0.L)
    axes = max(x0.g.ndim, x0.L.ndim) - 1  # the broadcast batch axes of g and L, and w's
    with np.errstate(over="ignore", invalid="ignore"):
        wt = t.reshape(t.shape + (1,) * axes) * w ** k
    bad = ~np.isfinite(wt).reshape(len(t), -1).all(axis=1)
    if bad.any():
        raise ValueError(f"flow needs a finite phase t w^k, got inf or nan at t = {t[bad][0]}")
    return (V * np.exp(1j * wt)[..., None, :]) @ V.conj().swapaxes(-1, -2) @ x0.g


def flow(x0: FullPoint, k: int, t: float) -> FullPoint:
    """Exact flow of H_{k+1} under the first bracket (equivalently of H_k under
    the second): g(t) = exp(i t L0^k) g0, L(t) = L0, of a point or of a stack."""
    return FullPoint(_flow_g(x0, k, np.array([t], dtype=float))[0], x0.L)


def _eigh_reduction(g: np.ndarray, theta: float):
    """One Hermitian attempt at g = eta e^{iq} eta^dagger on a (S, n, n) stack.
    The eigenvectors Z of A = (e^{-i theta} g + h.c.)/2 are those of g when
    the eigenvalues cos(q - theta) of A are distinct, i.e. when no two phases
    are mirror images about theta.  The phases are the angles of the Rayleigh
    quotients lam = diag(T), T = Z^dagger g Z.  One first-order step
    Z <- Z + Z E, E_jl = T_jl / (lam_l - lam_j), corrects Z by g's own gaps;
    pairs closer than REGULARITY_GAP keep E_jl = 0, as g is nearly a multiple
    of the identity on their span (and the regularity gate rejects them).
    One Newton-Schulz step Z <- Z (3 - Z^dagger Z)/2 restores unitarity.  The
    phases are sorted in [0, 2pi) with the columns of eta, and each column's
    largest-magnitude entry is made real positive.  Returns the phases, eta,
    the residual |eta e^{iq} eta^dagger - g| and the defect |eta^dagger eta - 1|
    of each member, each member computed on its own."""
    n = g.shape[-1]
    c = np.exp(-1j * theta)
    Z = np.linalg.eigh(0.5 * (c * g + np.conj(c) * g.conj().swapaxes(-1, -2)))[1]
    T = Z.conj().swapaxes(-1, -2) @ g @ Z
    lam = np.diagonal(T, axis1=-2, axis2=-1)
    den = lam[..., None, :] - lam[..., :, None]  # [j, l] = lam_l - lam_j
    Z = Z + Z @ np.divide(T, den, out=np.zeros_like(T), where=np.abs(den) > REGULARITY_GAP)
    Z = Z @ (1.5 * np.eye(n) - 0.5 * (Z.conj().swapaxes(-1, -2) @ Z))
    phases = np.mod(np.angle(lam), TWO_PI)
    order = np.argsort(phases, axis=-1)
    phases = np.take_along_axis(phases, order, axis=-1)
    eta = np.take_along_axis(Z, order[..., None, :], axis=-1)
    top = np.take_along_axis(eta, np.argmax(np.abs(eta), axis=-2)[..., None, :], axis=-2)
    eta = eta * (top.conj() / np.abs(top))
    eta_h = eta.conj().swapaxes(-1, -2)
    residual = np.linalg.norm((eta * np.exp(1j * phases)[..., None, :]) @ eta_h - g, axis=(-2, -1))
    unitarity = np.linalg.norm(eta_h @ eta - np.eye(n), axis=(-2, -1))
    return phases, eta, residual, unitarity


def _diagonalize(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted phases q in [0, 2pi), unitary eta with g = eta e^{iq} eta^dagger
    (each column's largest-magnitude entry real positive) and the residual
    |eta e^{iq} eta^dagger - g|, for a unitary g or a stack of them, by
    _eigh_reduction at theta = 0.  Each member is certified by its residual
    and its |eta^dagger eta - 1|, both at most UNITARY_TOL * n; the members
    that fail are tried again at theta = pi m / M, m = 1..M-1,
    M = n(n-1)/2 + 1.  Each pair of phases is mirrored about one theta mod
    pi, so one of the M angles separates every pair.  Raises
    CertificationError naming the first member that holds a NaN or an
    infinity (before any eigh), or else the first that no angle certifies
    (a g that is not unitary)."""
    n = g.shape[-1]
    tol = UNITARY_TOL * n
    flat = g.reshape(-1, n, n)
    finite = np.isfinite(g).all(axis=(-2, -1))
    if not finite.all():
        raise CertificationError.first(
            ~finite, lambda i: "g holds a non-finite entry; no reduction is certified")
    M = n * (n - 1) // 2 + 1
    phases, eta, residual, unitarity = _eigh_reduction(flat, 0.0)   # a retry writes into these
    for m in range(1, M):
        todo = np.flatnonzero(~((residual <= tol) & (unitarity <= tol)))
        if not todo.size:
            break
        phases[todo], eta[todo], residual[todo], unitarity[todo] = _eigh_reduction(
            flat[todo], np.pi * m / M)
    certified = (residual <= tol) & (unitarity <= tol)
    if certified.all():
        return (phases.reshape(g.shape[:-1]), eta.reshape(g.shape),
                residual.reshape(g.shape[:-2]))
    raise CertificationError.first(~certified.reshape(g.shape[:-2]), lambda i: (
        f"no Hermitian angle certifies the diagonalization: "
        f"|eta e^(iq) eta^dagger - g| = {residual[i]:.3e}, "
        f"|eta^dagger eta - 1| = {unitarity[i]:.3e}, against {tol:.1e}; is g unitary?"))


def _reduce(g: np.ndarray, L: np.ndarray) -> tuple[RedPoint, np.ndarray, np.ndarray]:
    """The certified reduction of a stack of (g, L): _diagonalize, the
    TorusReg gate on the phases, then the strict projection of
    eta^dagger L eta onto Herm(n).  Returns the reduced point (Q, L), eta
    and the residuals; each gate's error names the first failing member."""
    phases, eta, residual = _diagonalize(g)
    Q = TorusReg(phases)
    L_red = algebra.make_hermitian(eta.conj().swapaxes(-1, -2) @ L @ eta, strict=True)
    return RedPoint(Q, L_red), eta, residual


def reduce_point(x: FullPoint) -> tuple[RedPoint, np.ndarray]:
    """Diagonalize g = eta Q eta^dagger as in _diagonalize (a certified eigh
    reduction; sorted phases, largest entry of each column of eta real
    positive); returns the reduced point (Q, eta^dagger L eta) and the gauge
    eta, per member of a stack.  Raises CertificationError for a g that is
    not finite or not unitary, RegularityError on an eigenvalue collision
    and SubspaceError if eta^dagger L eta is not Hermitian (_reduce)."""
    return _reduce(x.g, x.L)[:2]


@dataclass(frozen=True)
class Trajectory:
    """Reduced trajectory samples with per-sample conserved values.  For a
    start point of batch shape S, each sample's point has batch shape S and
    the arrays carry S after the grid axis."""
    times: np.ndarray
    points: tuple[RedPoint, ...]
    conserved: np.ndarray       # shape (len(times),) + S + (n,): power traces h_1..h_n
    gauge_defects: np.ndarray   # shape (len(times),) + S: |eta Q eta^dagger - g|

    @property
    def n(self) -> int:
        return self.points[0].n


def _circ_dist(a, b):
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _rotations(phases, t_grid) -> np.ndarray:
    """Cumulative cyclic rotation R_i labelling sample i of a stack of sorted
    phase rows, shape (T,) + S + (n,), as phases[i, ..., (arange(n) + R_i) mod n],
    R_0 = 0; R has shape (T,) + S.  Eigenphases of a generic unitary
    one-parameter family do not cross, so their cyclic order is kept and
    only the winding is open.  As the rows are sorted, the cost of rotation
    r at step i, sum_j d(phases[i-1, j], phases[i, j + r])^2 (d the circular
    distance), does not depend on earlier labels: one (T-1,) + S + (n, n)
    array of squared distances gives every step's n costs, and R is the
    cumulative sum mod n of each step's cheapest rotation.  Raises
    AmbiguousMatchError at the first step whose two cheapest rotations tie,
    naming the first member of S that ties there."""
    n = phases.shape[-1]
    d2 = _circ_dist(phases[:-1, ..., :, None], phases[1:, ..., None, :]) ** 2
    shift = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n  # [j, r] = j + r
    cost = d2[..., np.arange(n)[:, None], shift].sum(axis=-2)
    low = np.sort(cost, axis=-1)[..., :2]
    ties = np.diff(low, axis=-1)[..., 0] < MATCH_TIE_TOL
    if ties.any():
        i = int(np.flatnonzero(ties)[0]) // ties[0].size + 1
        a, b = low[i - 1].reshape(-1, 2).T
        raise AmbiguousMatchError.first(ties[i - 1], lambda j: (
            f"at sample {i} (t = {t_grid[i]}): eigenphase matching ties between "
            f"rotations costing {a[j]:.17g} and {b[j]:.17g}"))
    R = np.zeros((len(cost) + 1,) + cost.shape[1:-1], dtype=int)
    np.cumsum(np.argmin(cost, axis=-1), axis=0, out=R[1:])
    return np.remainder(R, n, out=R)


def trajectory(x0: FullPoint, k: int, t_grid: np.ndarray) -> Trajectory:
    """Sample the exact flow g(t) = exp(i t L0^k) g0 on t_grid from one start
    point or a stack of them (batch shape S, carried after the grid axis) and
    reduce the (len(t_grid),) + S stack at once by _reduce, whose residuals
    are the gauge defects; h_1..h_n are algebra.power_traces of the
    relabelled L.  Labels stay continuous by cyclic rotations (_rotations);
    the relabelled rows are rotations of rows that passed the gates, so they
    are not gated again.  Each stack member's samples equal those of its own
    trajectory, bit for bit.  A gate error of _reduce or _rotations names its
    sample i and t, and on a stack starts "member j: " for start point j
    (flat over S); _flow_g's error names the start point only.  t_grid is
    1-D with at least one sample (ValueError naming its shape otherwise)."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not t_grid.size:
        raise ValueError(f"t_grid must be 1-D with at least one sample, got shape {t_grid.shape}")
    g = _flow_g(x0, k, t_grid)  # outside the try: its member indexes S, not the grid
    S = g.shape[1:-2]
    try:
        red, _, defects = _reduce(g, x0.L)
    except algebra._MemberError as exc:
        i, j = divmod(exc.member, math.prod(S))
        raise type(exc).first(np.arange(math.prod(S)).reshape(S) == j,
                              lambda _: f"at sample {i} (t = {t_grid[i]}): {exc}") from exc
    perms = (np.arange(x0.n) + _rotations(red.Q.q, t_grid)[..., None]) % x0.n
    q = np.take_along_axis(red.Q.q, perms, axis=-1)
    flat = (perms[..., :, None] * x0.n + perms[..., None, :]).reshape(perms.shape[:-1] + (-1,))
    L = np.take_along_axis(red.L.reshape(flat.shape), flat, axis=-1).reshape(red.L.shape)
    points = tuple(map(RedPoint, map(TorusReg._ungated, q), L))
    return Trajectory(t_grid, points, algebra.power_traces(L, x0.n), defects)


def h_rs(x):
    """Ruijsenaars-type Hamiltonian sum_i e^{2 p_i} (b_+ b_+^dagger)_{ii};
    equals tr(L) at the corresponding reduced point.  One value per member
    of a stacked point, so it serves as an observable's value."""
    from .coords import solve_bplus
    bp = solve_bplus(x.Q, x.lam)
    V = np.real(np.diagonal(bp @ bp.conj().swapaxes(-1, -2), axis1=-2, axis2=-1))
    return np.sum(np.exp(2.0 * x.p) * V, axis=-1)


def h_suth2(x):
    """Spin Sutherland Hamiltonian
    (1/2) sum_i p_i^2 + (1/8) sum_{j != l} |phi_jl|^2 / sin^2((q_j - q_l)/2);
    equals tr(L^2)/2 at the corresponding reduced point.  One value per
    member of a stacked point, so it serves as an observable's value.  The
    potential terms are summed from a contiguous copy: on a stack, boolean
    indexing leaves them strided, and a strided sum adds in another order
    than a member's own."""
    q = x.Q.q
    off = algebra.off_diagonal(x.n)
    s2 = np.sin(0.5 * (q[..., :, None] - q[..., None, :])) ** 2
    terms = np.ascontiguousarray((np.abs(x.phi) ** 2)[..., off] / s2[..., off])
    pot = np.sum(terms, axis=-1) / 8.0
    return 0.5 * np.sum(x.p ** 2, axis=-1) + pot
