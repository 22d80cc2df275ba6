"""Structured matrix spaces inside gl(n,C), the invariant bilinear form,
isotropic splittings, the triangular factorization and the trigonometric
R-operator attached to a regular torus element.

All matrices are plain complex numpy arrays; subspace membership is enforced
by construction (projection) rather than asserted.  The real Lie algebra
gl(n,C) carries the pairing <X,Y> = Im tr(XY), under which u(n) and b(n)
(and likewise u(n) and Herm(n)) are complementary isotropic subspaces.
`TorusReg` and `make_hermitian` also take a stack along any number of
leading batch axes, and check each member on its own; `pairing`, `split_ub`,
`comm` and the R-operator act on stacks member by member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import PD_FLOOR, REGULARITY_GAP, STRICT_PROJECTION_TOL


class RegularityError(ValueError):
    """Torus element too close to the non-regular locus.  For a stack,
    `member` is the flat (C-order) index of the first such element over its
    batch axes (None for one element)."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


class NotPositiveDefiniteError(ValueError):
    """Hermitian input is not positive definite within the configured floor."""


class SubspaceError(ValueError):
    """Strict projection discarded a component above the threshold."""


# ---------------------------------------------------------------------------
# pairing and splittings


def pairing(X: np.ndarray, Y: np.ndarray):
    """Invariant bilinear form <X,Y> = Im tr(XY) on gl(n,C) as a real algebra:
    a float for two matrices, an array of values for stacks of them."""
    if X.shape != Y.shape or X.shape[-1] != X.shape[-2]:
        raise ValueError(f"dimension mismatch: {X.shape} vs {Y.shape}")
    v = (X * Y.swapaxes(-1, -2)).sum(axis=(-2, -1)).imag
    return float(v) if v.ndim == 0 else v


def split_ub(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split X = X_u + X_b with X_u anti-Hermitian and X_b upper triangular
    with real diagonal, per member of a stack.  The splitting is exact
    (entrywise)."""
    lower = np.tril(X, -1)
    lower_h = lower.conj().swapaxes(-1, -2)
    diag = np.diagonal(X, axis1=-2, axis2=-1)
    X_u = lower - lower_h + 1j * diag_matrix(diag.imag)
    X_b = np.triu(X, 1) + lower_h + diag_matrix(diag.real)
    return X_u, X_b


def comm(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


# ---------------------------------------------------------------------------
# subspace projections with an optional strictness check


def _strict_check(X, projected, strict):
    """With strict, raise if the projection discarded more than
    STRICT_PROJECTION_TOL * (1 + |X|) of any matrix of X (Frobenius norms per
    matrix, so one bad member of a stack is not averaged away)."""
    if strict:
        discarded = np.linalg.norm(X - projected, axis=(-2, -1))
        bad = discarded > STRICT_PROJECTION_TOL * (1.0 + np.linalg.norm(X, axis=(-2, -1)))
        if bad.any():
            i = np.flatnonzero(bad)[0]
            where = f"member {i}: " if X.ndim > 2 else ""
            raise SubspaceError(f"{where}discarded component has norm "
                                f"{discarded.flat[i]:.3e}")


def make_hermitian(X: np.ndarray, strict: bool = False) -> np.ndarray:
    H = 0.5 * (X + X.conj().swapaxes(-1, -2))
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


def diag_matrix(v: np.ndarray) -> np.ndarray:
    """Complex diagonal matrix with diagonal v, per member of a stack; equal to
    np.diag(v).astype(complex) for one vector."""
    n = v.shape[-1]
    M = np.zeros(v.shape + (n,), dtype=complex)
    M[..., range(n), range(n)] = v
    return M


@lru_cache(maxsize=None)
def off_diagonal(n: int) -> np.ndarray:
    """Read-only boolean mask of the off-diagonal entries of an n x n matrix."""
    off = ~np.eye(n, dtype=bool)
    off.setflags(write=False)
    return off


@dataclass(frozen=True)
class TorusReg:
    """Regular element of the maximal torus, stored as n real phases, or a
    stack of them (q of shape S + (n,) for batch axes S).  The gate rejects
    a stack if any member is irregular, and its RegularityError names the
    first one."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "q", q)
        if q.ndim < 1 or q.shape[-1] < 2:
            raise ValueError("need at least two phases")
        gaps = self._pair_gaps()
        if gaps.min() <= REGULARITY_GAP:
            gap = gaps.min(axis=-1)
            if q.ndim == 1:
                raise RegularityError(f"eigenvalue gap {gap:.3e} below {REGULARITY_GAP:.1e}")
            i = int(np.flatnonzero(gap <= REGULARITY_GAP)[0])
            raise RegularityError(f"member {i}: eigenvalue gap {gap.flat[i]:.3e} below "
                                  f"{REGULARITY_GAP:.1e}", member=i)

    @property
    def n(self) -> int:
        return self.q.shape[-1]

    def _pair_gaps(self) -> np.ndarray:
        """|e^{iq_j} - e^{iq_k}| over the pairs j != k, per member of a stack."""
        z = np.exp(1j * self.q)
        return np.abs(z[..., :, None] - z[..., None, :])[..., off_diagonal(self.n)]

    def min_gap(self):
        """Smallest eigenvalue gap, per member of a stack."""
        return self._pair_gaps().min(axis=-1)

    def __getitem__(self, i) -> "TorusReg":
        """Member(s) i of a stack, indexed along its first batch axis only.
        They passed the gate with the stack, so they are not gated again."""
        if self.q.ndim < 2 or isinstance(i, tuple):
            raise TypeError("index a stack of torus elements along its first batch axis")
        return self._ungated(self.q[i])

    def broadcast_to(self, S: tuple) -> "TorusReg":
        """self for every member of the batch axes S (its own batch axes
        last): a read-only view of q, not gated again."""
        return self._ungated(np.broadcast_to(self.q, S + (self.n,)))

    @staticmethod
    def _ungated(q: np.ndarray) -> "TorusReg":
        """TorusReg over q, whose members passed the gate already."""
        Q = object.__new__(TorusReg)
        object.__setattr__(Q, "q", q)
        return Q

    def matrix(self) -> np.ndarray:
        """diag(e^{iq}), per member of a stack."""
        return diag_matrix(np.exp(1j * self.q))

    def shifted(self, dq: np.ndarray) -> "TorusReg":
        return TorusReg(self.q + dq)


def r_multiplier(Q: TorusReg) -> np.ndarray:
    """Entrywise multiplier of the R-operator: (1/2)(w+1)/(w-1) off the
    diagonal with w = e^{i(q_j - q_k)}, zero on the diagonal, per member of
    a stack; |w - 1| is Q's eigenvalue gap, which TorusReg keeps above
    REGULARITY_GAP."""
    w = np.exp(1j * (Q.q[..., :, None] - Q.q[..., None, :]))
    return np.divide(0.5 * (w + 1.0), w - 1.0, out=np.zeros_like(w),
                     where=off_diagonal(Q.n))


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
