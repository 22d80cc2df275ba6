"""Free Hamiltonians, their exact bi-Hamiltonian flows on U(n) x Herm(n),
projection to the reduced chart and trajectory extraction.

The flow of H_k is (g(t), L(t)) = (exp(i t L0^k) g0, L0); the exponential is
computed by unitary diagonalization of the Hermitian generator, so g(t) is
unitary and the spectrum of L is conserved to machine precision.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from . import algebra
from .algebra import TorusReg
from .config import REGULARITY_GAP
from .phase import FullPoint, RedPoint

TWO_PI = 2.0 * np.pi


def hk(L: np.ndarray, k: int) -> float:
    """Free Hamiltonian tr(L^k)/k, from the eigenvalues of L."""
    if k < 1:
        raise ValueError("need k >= 1")
    w = np.linalg.eigvalsh(L)
    return float(np.sum(w ** k)) / k


def flow(x0: FullPoint, k: int, t: float) -> FullPoint:
    """Exact flow of H_k under the first bracket (equivalently of H_{k-1}
    under the second): g(t) = exp(i t L0^k) g0, L(t) = L0."""
    if k < 1:
        raise ValueError("need k >= 1")
    w, V = np.linalg.eigh(x0.L)
    U = (V * np.exp(1j * t * w ** k)) @ V.conj().T
    g = U @ x0.g
    n = x0.n
    if np.linalg.norm(g.conj().T @ g - np.eye(n)) > 1e-13 * n:
        Qm, R = np.linalg.qr(g)
        d = np.diag(R)
        g = Qm * (d / np.abs(d))
    return FullPoint(g, x0.L)


def reduce_point(x: FullPoint, gap: float = REGULARITY_GAP) -> tuple[RedPoint, np.ndarray]:
    """Diagonalize g = eta Q eta^dagger with sorted phases in [0, 2pi) and a
    fixed gauge (largest-magnitude entry of each eigenvector real positive);
    returns the reduced point (Q, eta^dagger L eta) and the gauge eta."""
    T, Z = scipy.linalg.schur(x.g, output="complex")
    ev = np.diag(T)
    phases = np.mod(np.angle(ev), TWO_PI)
    order = np.argsort(phases)
    phases = phases[order]
    eta = Z[:, order]
    # gauge fix each eigenvector column
    for j in range(x.n):
        i = int(np.argmax(np.abs(eta[:, j])))
        eta[:, j] *= np.exp(-1j * np.angle(eta[i, j]))
    Q = TorusReg(phases, gap)  # raises RegularityError on eigenvalue collision
    L_red = algebra.make_hermitian(eta.conj().T @ x.L @ eta, strict=True)
    return RedPoint(Q, L_red), eta


@dataclass(frozen=True)
class Trajectory:
    """Reduced trajectory samples with per-sample gauge and conserved values."""
    times: np.ndarray
    points: tuple[RedPoint, ...]
    gauges: tuple[np.ndarray, ...]
    conserved: np.ndarray       # shape (len(times), K): h_1..h_K per sample
    gauge_defects: np.ndarray   # reconstruction error |eta Q eta^dagger - g|

    @property
    def n(self) -> int:
        return self.points[0].n


def _circ_dist(a, b):
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _match_permutation(prev_q: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Permutation of the new sample minimizing total circular phase
    distance to the previous one (assignment problem)."""
    cost = _circ_dist(prev_q[:, None], q[None, :])
    _, col = linear_sum_assignment(cost)
    best = cost[np.arange(len(q)), col].sum()
    n = len(q)
    if n <= 6:
        # exhaustive ambiguity check at desk scale
        for perm in itertools.permutations(range(n)):
            perm = np.array(perm)
            if np.array_equal(perm, col):
                continue
            alt = cost[np.arange(n), perm].sum()
            if alt - best < 1e-12:
                warnings.warn("eigenphase matching is ambiguous between two "
                              "permutations", RuntimeWarning)
                break
    return col


def trajectory(x0: FullPoint, k: int, t_grid: np.ndarray, K: int | None = None,
               gap: float = REGULARITY_GAP) -> Trajectory:
    """Sample the exact H_k flow on t_grid, reduce each sample and enforce
    eigenphase continuity by permutation matching between samples."""
    t_grid = np.asarray(t_grid, dtype=float)
    K = x0.n if K is None else K
    points, gauges, defects = [], [], []
    prev_q = None
    for i, t in enumerate(t_grid):
        xt = flow(x0, k, float(t))
        try:
            red, eta = reduce_point(xt, gap)
        except algebra.RegularityError as exc:
            raise algebra.RegularityError(
                f"regularity lost at sample {i} (t = {t}): {exc}") from exc
        if prev_q is not None:
            perm = _match_permutation(prev_q, red.Q.q)
            q = red.Q.q[perm]
            L = red.L[np.ix_(perm, perm)]
            eta = eta[:, perm]
            red = RedPoint(TorusReg(q, gap), L)
        points.append(red)
        gauges.append(eta)
        defects.append(np.linalg.norm(eta @ red.Q.matrix() @ eta.conj().T - xt.g))
        prev_q = red.Q.q
    conserved = np.array([[hk(pt.L, l) for l in range(1, K + 1)] for pt in points])
    return Trajectory(t_grid, tuple(points), tuple(gauges), conserved,
                      np.array(defects))


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
