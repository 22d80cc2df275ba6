"""Structured matrix spaces inside gl(n,C), the invariant bilinear form,
isotropic splittings, the triangular factorization and the trigonometric
R-operator attached to a regular torus element.

All matrices are plain complex numpy arrays; subspace membership is enforced
by construction (projection) rather than asserted.  The real Lie algebra
gl(n,C) carries the pairing <X,Y> = Im tr(XY), under which u(n) and b(n)
(and likewise u(n) and Herm(n)) are complementary isotropic subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import PD_FLOOR, REGULARITY_GAP, STRICT_PROJECTION_TOL


class RegularityError(ValueError):
    """Torus element too close to the non-regular locus."""


class NotPositiveDefiniteError(ValueError):
    """Hermitian input is not positive definite within the configured floor."""


class SubspaceError(ValueError):
    """Strict projection discarded a component above the threshold."""


# ---------------------------------------------------------------------------
# pairing and splittings


def pairing(X: np.ndarray, Y: np.ndarray) -> float:
    """Invariant bilinear form <X,Y> = Im tr(XY) on gl(n,C) as a real algebra."""
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape} vs {Y.shape}")
    return float(np.imag(np.sum(X * Y.T)))


def split_ub(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split X = X_u + X_b with X_u anti-Hermitian and X_b upper triangular
    with real diagonal.  The splitting is exact (entrywise)."""
    lower = np.tril(X, -1)
    diag = np.diag(np.diag(X))
    upper = np.triu(X, 1)
    X_u = lower - lower.conj().T + 1j * np.diag(np.imag(np.diag(X)))
    X_b = upper + lower.conj().T + np.diag(np.real(np.diag(diag)))
    return X_u, X_b


def comm(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


# ---------------------------------------------------------------------------
# subspace projections with an optional strictness check


def _strict_check(X, projected, strict):
    if strict:
        discarded = np.linalg.norm(X - projected)
        if discarded > STRICT_PROJECTION_TOL * (1.0 + np.linalg.norm(X)):
            raise SubspaceError(f"discarded component has norm {discarded:.3e}")


def make_hermitian(X: np.ndarray, strict: bool = False) -> np.ndarray:
    H = 0.5 * (X + X.conj().T)
    _strict_check(X, H, strict)
    return H


def make_unipotent_upper(X: np.ndarray, strict: bool = False) -> np.ndarray:
    U = np.triu(X, 1) + np.eye(X.shape[0])
    _strict_check(X, U, strict)
    return U


def make_zero_diag_hermitian(X: np.ndarray, strict: bool = False) -> np.ndarray:
    P = make_hermitian(X)
    P = P - np.diag(np.diag(P))
    _strict_check(X, P, strict)
    return P


# ---------------------------------------------------------------------------
# regular torus elements


@dataclass(frozen=True)
class TorusReg:
    """Regular element of the maximal torus, stored as n real phases."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "q", q)
        if q.ndim != 1 or q.size < 2:
            raise ValueError("need at least two phases")
        if self.min_gap() <= REGULARITY_GAP:
            raise RegularityError(
                f"eigenvalue gap {self.min_gap():.3e} below {REGULARITY_GAP:.1e}")

    @property
    def n(self) -> int:
        return self.q.size

    def min_gap(self) -> float:
        z = np.exp(1j * self.q)
        d = np.abs(z[:, None] - z[None, :])
        return float(np.min(d[~np.eye(self.n, dtype=bool)]))

    def matrix(self) -> np.ndarray:
        return np.diag(np.exp(1j * self.q))

    def shifted(self, dq: np.ndarray) -> "TorusReg":
        return TorusReg(self.q + dq)


def r_multiplier(Q: TorusReg) -> np.ndarray:
    """Entrywise multiplier of the R-operator: (1/2)(w+1)/(w-1) off the
    diagonal with w = e^{i(q_j - q_k)}, zero on the diagonal."""
    w = np.exp(1j * (Q.q[:, None] - Q.q[None, :]))
    denom = w - 1.0
    off = ~np.eye(Q.n, dtype=bool)
    if np.min(np.abs(denom[off])) <= REGULARITY_GAP:
        raise RegularityError("R-operator denominator below regularity gap")
    M = np.zeros_like(w)
    M[off] = 0.5 * (w[off] + 1.0) / denom[off]
    return M


def r_apply(Q: TorusReg, X: np.ndarray) -> np.ndarray:
    """Trigonometric R-operator: zero on the diagonal subalgebra, and
    (1/2)(Ad_Q + id)(Ad_Q - id)^{-1} on the off-diagonal part.  Each E_jk is
    an Ad_Q eigenvector, so the action is an entrywise scaling."""
    return r_multiplier(Q) * X


def r_bracket(Q: TorusReg, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Modified bracket [X,Y]_{R(Q)} = [R(Q)X, Y] + [X, R(Q)Y]."""
    return comm(r_apply(Q, X), Y) + comm(X, r_apply(Q, Y))


# ---------------------------------------------------------------------------
# triangular factorization


def chol_upper(L: np.ndarray) -> np.ndarray:
    """Unique b in B(n) (upper triangular, positive real diagonal) with
    b b^dagger = L, for Hermitian L with smallest eigenvalue above PD_FLOOR.

    Uses the index-reversal trick: conjugating by the reversal permutation
    maps the problem onto a standard lower Cholesky factorization.
    """
    L = make_hermitian(L)
    w = np.linalg.eigvalsh(L)
    if w[0] <= PD_FLOOR:
        raise NotPositiveDefiniteError(f"smallest eigenvalue {w[0]:.3e}")
    J = np.flip(np.eye(L.shape[0]), axis=0)
    C = np.linalg.cholesky(J @ L @ J)   # lower, positive real diagonal
    return J @ C @ J


# ---------------------------------------------------------------------------
# real bases of the subspaces and dual bases under the pairing


def _E(n, j, k):
    M = np.zeros((n, n), dtype=complex)
    M[j, k] = 1.0
    return M


@lru_cache(maxsize=None)
def basis(space: str, n: int) -> tuple[np.ndarray, ...]:
    """Real basis of a named subspace of gl(n,C).

    Spaces: u, b, herm, u0, b0, herm0, uperp, bplus, hermperp.
    """
    out = []
    if space in ("u", "u0"):
        out += [1j * _E(n, j, j) for j in range(n)]
    if space in ("b", "b0"):
        out += [_E(n, j, j) for j in range(n)]
    if space in ("herm", "herm0"):
        out += [_E(n, j, j) for j in range(n)]
    if space in ("u", "uperp"):
        for j in range(n):
            for k in range(j + 1, n):
                out.append(_E(n, j, k) - _E(n, k, j))
                out.append(1j * (_E(n, j, k) + _E(n, k, j)))
    if space in ("b", "bplus"):
        for j in range(n):
            for k in range(j + 1, n):
                out.append(_E(n, j, k))
                out.append(1j * _E(n, j, k))
    if space in ("herm", "hermperp"):
        for j in range(n):
            for k in range(j + 1, n):
                out.append(_E(n, j, k) + _E(n, k, j))
                out.append(1j * (_E(n, j, k) - _E(n, k, j)))
    if not out:
        raise ValueError(f"unknown space: {space!r}")
    return tuple(out)


_DUAL_PAIRS = {
    "u": "b", "b": "u",
    "u0": "b0", "b0": "u0",
    "uperp": "bplus", "bplus": "uperp",
    "herm": "u", "herm0": "u0", "hermperp": "uperp",
}


@lru_cache(maxsize=None)
def dual_basis(space: str, n: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Basis of `space` together with the dual family in the paired
    complementary isotropic subspace: <dual_a, basis_b> = delta_ab.

    Pairs: u<->b, u0<->b0, uperp<->bplus, and herm/herm0/hermperp against
    u/u0/uperp.  Built by inverting the Gram matrix of the two bases.
    """
    if space not in _DUAL_PAIRS:
        raise ValueError(f"no dual pairing registered for {space!r}")
    V = basis(space, n)
    W = basis(_DUAL_PAIRS[space], n)
    if len(V) != len(W):
        raise ValueError("paired spaces have different dimensions")
    G = np.array([[pairing(w, v) for v in V] for w in W])
    C = np.linalg.inv(G)
    duals = tuple(sum(C[a, c] * W[c] for c in range(len(W))) for a in range(len(V)))
    return V, duals
