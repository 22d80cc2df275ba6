"""Free Hamiltonians, their exact bi-Hamiltonian flows on U(n) x Herm(n),
projection to the reduced chart and trajectory extraction.

The flow g(t) = exp(i t L0^k) g0, L(t) = L0 is that of H_{k+1} under the
first bracket and of H_k under the second; the exponential comes from a
unitary diagonalization of L0, so g(t) is unitary and the reduced L(t) is
a unitary conjugate of L0.  The conserved values h_l = tr(L^l)/l are power
traces of the reduced L, exact up to the rounding model of _power_traces:
about l n eps (1 + max|w|^l) over the eigenvalues w of L.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import algebra, phase
from .algebra import TorusReg
from .config import MATCH_TIE_TOL, REGULARITY_GAP, UNITARY_TOL
from .phase import FullPoint, RedPoint

TWO_PI = 2.0 * np.pi


class AmbiguousMatchError(ValueError):
    """Two cyclic rotations match consecutive eigenphase samples equally well."""


class CertificationError(algebra._MemberError):
    """g holds a NaN or an infinity, or no Hermitian angle reconstructs it
    within UNITARY_TOL * n: g is not unitary."""


def _power_traces(L: np.ndarray, m: int) -> np.ndarray:
    """h_l = tr(L^l)/l for l = 1..m over a Hermitian stack L, shape
    L.shape[:-2] + (m,).  Only P_a = L^a for a <= ceil(m/2) are formed (one
    stacked matmul each past L); tr L is the real diagonal sum and each other
    trace is tr(P_a P_b) = sum(P_a * P_b^T), a = l // 2, b = l - a.  Rounding
    model: each product of the chain adds about n eps |L|^l to an entry, so
    |h_l - sum_i w_i^l / l| <= c l n eps (1 + max_i |w_i|^l) over the
    eigenvalues w of L; c = 4 bounds every seeded stack of the tests
    (n = 2..8, |L| = 1..1e3, l = 1..8; largest ratio 2.2)."""
    P = [L]  # P[a - 1] = L^a
    for _ in range(2, (m + 1) // 2 + 1):
        P.append(P[-1] @ L)
    h = np.empty(L.shape[:-2] + (m,))
    h[..., 0] = np.real(np.trace(L, axis1=-2, axis2=-1))
    for l in range(2, m + 1):
        a = l // 2
        h[..., l - 1] = np.real(np.sum(P[a - 1] * P[l - a - 1].swapaxes(-1, -2), axis=(-2, -1)))
    return h / np.arange(1, m + 1)


def hk(L: np.ndarray, k: int):
    """Free Hamiltonian tr(L^k)/k as a power trace (_power_traces, with its
    rounding model): a float for one matrix, one value per member of a
    stack.  k is an integer >= 1 (TypeError for a non-integer)."""
    k = operator.index(k)
    if k < 1:
        raise ValueError("need k >= 1")
    h = _power_traces(L, k)[..., -1]
    return float(h) if h.ndim == 0 else h


def _flow_g(x0: FullPoint, k: int, t: np.ndarray) -> np.ndarray:
    """The stack of g(t) = exp(i t L0^k) g0 over the 1-D array t, of shape t.shape + S
    for x0 of batch axes S, by one eigh of L0; the error names a non-unitary g0."""
    if k < 1:
        raise ValueError("need k >= 1")
    S = x0.g.shape[:-2]
    defect = phase._member_norm(x0.g.conj().swapaxes(-1, -2) @ x0.g - np.eye(x0.n), S)
    unitary = defect <= UNITARY_TOL * x0.n  # False for a NaN defect
    if not unitary.all():
        i = int(np.flatnonzero(~unitary)[0])
        where = f"member {i}: " if S else ""
        raise ValueError(f"{where}flow needs a unitary g: |g^dagger g - 1| = {defect.flat[i]:.3e}")
    w, V = np.linalg.eigh(x0.L)
    e = np.exp(1j * t.reshape(t.shape + (1,) * w.ndim) * w ** k)
    return (V * e[..., None, :]) @ V.conj().swapaxes(-1, -2) @ x0.g


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

    def failure(i, message):
        where, member = ("", None) if g.ndim == 2 else (f"member {i}: ", i)
        return CertificationError(where + message, member)

    bad = np.flatnonzero(~np.isfinite(flat).all(axis=(-2, -1)))
    if bad.size:
        raise failure(int(bad[0]), "g holds a non-finite entry; no reduction is certified")
    phases, eta = np.empty(flat.shape[:-1]), np.empty(flat.shape, dtype=complex)
    residual, unitarity = np.empty(len(flat)), np.empty(len(flat))
    todo = slice(None)
    M = n * (n - 1) // 2 + 1
    for m in range(M):
        phases[todo], eta[todo], residual[todo], unitarity[todo] = _eigh_reduction(
            flat[todo], np.pi * m / M)
        todo = np.flatnonzero(~((residual <= tol) & (unitarity <= tol)))
        if not todo.size:
            return (phases.reshape(g.shape[:-1]), eta.reshape(g.shape),
                    residual.reshape(g.shape[:-2]))
    i = int(todo[0])
    raise failure(i, f"no Hermitian angle certifies the diagonalization: "
                     f"|eta e^(iq) eta^dagger - g| = {residual[i]:.3e}, "
                     f"|eta^dagger eta - 1| = {unitarity[i]:.3e}, against {tol:.1e}; "
                     "is g unitary?")


def reduce_point(x: FullPoint) -> tuple[RedPoint, np.ndarray]:
    """Diagonalize g = eta Q eta^dagger as in _diagonalize (a certified eigh
    reduction; sorted phases, largest entry of each column of eta real
    positive); returns the reduced point (Q, eta^dagger L eta) and the gauge
    eta, per member of a stack.  Raises CertificationError for a g that is
    not finite or not unitary and RegularityError on an eigenvalue collision."""
    phases, eta, _ = _diagonalize(x.g)
    Q, eta_h = TorusReg(phases), eta.conj().swapaxes(-1, -2)
    return RedPoint(Q, algebra.make_hermitian(eta_h @ x.L @ eta, strict=True)), eta


@dataclass(frozen=True)
class Trajectory:
    """Reduced trajectory samples with per-sample conserved values."""
    times: np.ndarray
    points: tuple[RedPoint, ...]
    conserved: np.ndarray       # shape (len(times), n): power traces h_1..h_n per sample
    gauge_defects: np.ndarray   # reconstruction error |eta Q eta^dagger - g|

    @property
    def n(self) -> int:
        return self.points[0].n


def _circ_dist(a, b):
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _rotations(phases, t_grid) -> np.ndarray:
    """Cumulative cyclic rotation R_i labelling sample i of a stack of sorted
    phase rows as phases[i, (arange(n) + R_i) mod n], R_0 = 0.  Eigenphases
    of a generic unitary one-parameter family do not cross, so their cyclic
    order is kept and only the winding is open.  As the rows are sorted, the
    cost of rotation r at step i, sum_j d(phases[i-1, j], phases[i, j + r])^2
    (d the circular distance), does not depend on earlier labels: one
    (T-1, n, n) array of squared distances gives every step's n costs, and R
    is the cumulative sum mod n of each step's cheapest rotation.  Raises
    AmbiguousMatchError at the first step whose two cheapest rotations tie."""
    n = phases.shape[-1]
    d2 = _circ_dist(phases[:-1, :, None], phases[1:, None, :]) ** 2
    shift = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n  # [j, r] = j + r
    cost = d2[:, np.arange(n)[:, None], shift].sum(axis=1)
    low = np.sort(cost, axis=-1)[:, :2]
    ties = np.flatnonzero(np.diff(low, axis=-1) < MATCH_TIE_TOL)
    if ties.size:
        i = ties[0] + 1
        raise AmbiguousMatchError(
            f"at sample {i} (t = {t_grid[i]}): eigenphase matching ties between "
            f"rotations costing {low[i - 1, 0]:.17g} and {low[i - 1, 1]:.17g}")
    return np.concatenate(([0], np.cumsum(np.argmin(cost, axis=-1)))) % n


def trajectory(x0: FullPoint, k: int, t_grid: np.ndarray) -> Trajectory:
    """Sample the exact flow g(t) = exp(i t L0^k) g0 on t_grid and reduce the
    whole grid as one stack (the certified eigh reduction _diagonalize, whose
    residuals are the gauge defects, then the conserved h_1..h_n as power
    traces of the relabelled L, _power_traces, within its rounding model).
    The eigenphase labels stay continuous by cyclic rotations: the per-step
    rotation costs form one stacked array, and the labels of sample i are
    rotated by the cumulative sum mod n of the cheapest rotations up to it
    (_rotations).  The certification and the regularity gate run on the
    whole stack before the matching, and the strict Hermitian projection on
    the whole relabelled stack after it; a CertificationError,
    RegularityError or AmbiguousMatchError names its sample i and its t.
    The relabelled phase rows are cyclic rotations of rows that passed the
    gate, so they are not gated again.  t_grid is 1-D with at least one
    sample (ValueError naming its shape otherwise)."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or not t_grid.size:
        raise ValueError(f"t_grid must be 1-D with at least one sample, got shape {t_grid.shape}")
    try:
        phases, eta, defects = _diagonalize(_flow_g(x0, k, t_grid))
        TorusReg(phases)  # raises RegularityError on an eigenvalue collision
    except (CertificationError, algebra.RegularityError) as exc:
        i = exc.member
        raise type(exc)(f"at sample {i} (t = {t_grid[i]}): {exc}", i) from exc
    L_red = eta.conj().swapaxes(-1, -2) @ x0.L @ eta
    perms = (np.arange(x0.n) + _rotations(phases, t_grid)[:, None]) % x0.n
    q = np.take_along_axis(phases, perms, axis=-1)
    L = np.take_along_axis(np.take_along_axis(L_red, perms[:, :, None], axis=1),
                           perms[:, None, :], axis=2)
    L = algebra.make_hermitian(L, strict=True)
    points = tuple(map(RedPoint, map(TorusReg._ungated, q), L))
    return Trajectory(t_grid, points, _power_traces(L, x0.n), defects)


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
