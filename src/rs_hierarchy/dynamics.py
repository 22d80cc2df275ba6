"""Free Hamiltonians, their exact bi-Hamiltonian flows on U(n) x Herm(n),
projection to the reduced chart and trajectory extraction.

The flow g(t) = exp(i t L0^k) g0, L(t) = L0 is that of H_{k+1} under the
first bracket and of H_k under the second; the exponential comes from a
unitary diagonalization of L0, so g(t) is unitary and the spectrum of L is
conserved to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import TorusReg
from .config import MATCH_TIE_TOL
from .phase import FullPoint, RedPoint

TWO_PI = 2.0 * np.pi


class AmbiguousMatchError(ValueError):
    """Two cyclic rotations match consecutive eigenphase samples equally well."""


def hk(L: np.ndarray, k: int) -> float:
    """Free Hamiltonian tr(L^k)/k, from the eigenvalues of L."""
    if k < 1:
        raise ValueError("need k >= 1")
    w = np.linalg.eigvalsh(L)
    return float(np.sum(w ** k)) / k


def _flow_g(x0: FullPoint, k: int, t: np.ndarray) -> np.ndarray:
    """The stack of g(t) = exp(i t L0^k) g0 over the 1-D array t; one eigh of L0."""
    if k < 1:
        raise ValueError("need k >= 1")
    defect = np.linalg.norm(x0.g.conj().T @ x0.g - np.eye(x0.n))
    if defect > 1e-13 * x0.n:
        raise ValueError(f"flow needs a unitary g: |g^dagger g - 1| = {defect:.3e}")
    w, V = np.linalg.eigh(x0.L)
    U = (V * np.exp(1j * t[:, None] * w ** k)[:, None, :]) @ V.conj().T
    return U @ x0.g


def flow(x0: FullPoint, k: int, t: float) -> FullPoint:
    """Exact flow of H_{k+1} under the first bracket (equivalently of H_k
    under the second): g(t) = exp(i t L0^k) g0, L(t) = L0."""
    return FullPoint(_flow_g(x0, k, np.array([t], dtype=float))[0], x0.L)


def _diagonalize(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted phases q in [0, 2pi) and unitary eta with g = eta e^{iq} eta^dagger,
    for a unitary g or a stack of them: eig, then QR of the sorted eigenvectors
    so that eta is exactly unitary, then each column's largest-magnitude entry
    made real positive, which also fixes the phases of QR's R."""
    ev, Z = np.linalg.eig(g)
    phases = np.mod(np.angle(ev), TWO_PI)
    order = np.argsort(phases, axis=-1)
    phases = np.take_along_axis(phases, order, axis=-1)
    eta = np.linalg.qr(np.take_along_axis(Z, order[..., None, :], axis=-1))[0]
    i = np.argmax(np.abs(eta), axis=-2)[..., None, :]
    return phases, eta * np.exp(-1j * np.angle(np.take_along_axis(eta, i, axis=-2)))


def reduce_point(x: FullPoint) -> tuple[RedPoint, np.ndarray]:
    """Diagonalize g = eta Q eta^dagger as in _diagonalize (eig, QR of the
    sorted eigenvectors, largest entry of each column real positive); returns
    the reduced point (Q, eta^dagger L eta) and the gauge eta."""
    phases, eta = _diagonalize(x.g)
    Q = TorusReg(phases)  # raises RegularityError on eigenvalue collision
    return RedPoint(Q, algebra.make_hermitian(eta.conj().T @ x.L @ eta, strict=True)), eta


@dataclass(frozen=True)
class Trajectory:
    """Reduced trajectory samples with per-sample conserved values."""
    times: np.ndarray
    points: tuple[RedPoint, ...]
    conserved: np.ndarray       # shape (len(times), n): h_1..h_n per sample
    gauge_defects: np.ndarray   # reconstruction error |eta Q eta^dagger - g|

    @property
    def n(self) -> int:
        return self.points[0].n


def _circ_dist(a, b):
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _match_permutation(prev_q, q) -> np.ndarray:
    """Permutation perm labelling the sorted new phases q as q[perm] after
    the labelled previous phases prev_q.  Eigenphases of a generic unitary
    one-parameter family do not cross, so their cyclic order is kept and only
    the winding is open: of the n cyclic rotations of argsort(prev_q), take
    the one with the least sum of squared circular distances.  Raises
    AmbiguousMatchError when the two cheapest rotations tie."""
    prev_q, q = np.asarray(prev_q, dtype=float), np.asarray(q, dtype=float)
    n = len(q)
    order = np.argsort(prev_q)
    d2 = _circ_dist(prev_q[order][:, None], q[None, :]) ** 2
    shift = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n  # [j, r] = j + r
    cost = d2[np.arange(n)[:, None], shift].sum(axis=0)
    best, second = np.argsort(cost)[:2]
    if cost[second] - cost[best] < MATCH_TIE_TOL:
        raise AmbiguousMatchError(
            f"eigenphase matching ties between rotations costing "
            f"{cost[best]:.17g} and {cost[second]:.17g}")
    perm = np.empty(n, dtype=int)
    perm[order] = shift[:, best]
    return perm


def trajectory(x0: FullPoint, k: int, t_grid: np.ndarray) -> Trajectory:
    """Sample the exact flow g(t) = exp(i t L0^k) g0 on t_grid and reduce the
    whole grid as one stack (_diagonalize, then one stacked eigvalsh for the
    conserved h_1..h_n); a sequential pass keeps the eigenphase labels
    continuous by cyclic-rotation matching between consecutive samples."""
    t_grid = np.asarray(t_grid, dtype=float)
    g = _flow_g(x0, k, t_grid)
    phases, eta = _diagonalize(g)
    eta_h = eta.conj().swapaxes(-1, -2)
    L_red = eta_h @ x0.L @ eta
    defects = np.linalg.norm((eta * np.exp(1j * phases)[:, None, :]) @ eta_h - g, axis=(1, 2))
    points = []
    for i, t in enumerate(t_grid):
        try:
            Q = TorusReg(phases[i])  # raises RegularityError on eigenvalue collision
            perm = _match_permutation(points[-1].Q.q, Q.q) if points else np.arange(x0.n)
        except (algebra.RegularityError, AmbiguousMatchError) as exc:
            raise type(exc)(f"at sample {i} (t = {t}): {exc}") from exc
        L = algebra.make_hermitian(L_red[i][np.ix_(perm, perm)], strict=True)
        points.append(RedPoint(TorusReg(Q.q[perm]), L))
    w = np.linalg.eigvalsh(np.array([pt.L for pt in points]))
    conserved = np.stack([np.sum(w ** l, axis=-1) / l for l in range(1, x0.n + 1)], axis=-1)
    return Trajectory(t_grid, tuple(points), conserved, defects)


def h_rs(x) -> float:
    """Ruijsenaars-type Hamiltonian sum_i e^{2 p_i} (b_+ b_+^dagger)_{ii};
    equals tr(L) at the corresponding reduced point."""
    from .coords import solve_bplus
    bp = solve_bplus(x.Q, x.lam)
    V = np.real(np.diag(bp @ bp.conj().T))
    return float(np.sum(np.exp(2.0 * x.p) * V))


def h_suth2(x) -> float:
    """Spin Sutherland Hamiltonian
    (1/2) sum_i p_i^2 + (1/8) sum_{j != l} |phi_jl|^2 / sin^2((q_j - q_l)/2);
    equals tr(L^2)/2 at the corresponding reduced point."""
    q = x.Q.q
    off = ~np.eye(x.n, dtype=bool)
    s2 = np.sin(0.5 * (q[:, None] - q[None, :])) ** 2
    pot = np.sum((np.abs(x.phi) ** 2)[off] / s2[off]) / 8.0
    return float(0.5 * np.sum(x.p ** 2) + pot)
