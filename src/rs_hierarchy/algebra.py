"""Structured matrix spaces inside gl(n,C), the invariant bilinear form,
isotropic splittings, the triangular factorization and the trigonometric
R-operator attached to a regular torus element.

All matrices are plain complex numpy arrays; subspace membership is enforced
by construction (projection) rather than asserted.  The real Lie algebra
gl(n,C) carries the pairing <X,Y> = Im tr(XY), under which u(n) and b(n)
(and likewise u(n) and Herm(n)) are complementary isotropic subspaces.
`TorusReg`, `chol_upper` and the `make_*` projections also take a stack
along any number of leading batch axes, and check each member on its own;
`trace_product` (the one trace of a product, behind `pairing` and
`power_traces`), `split_ub` and its `u_part`, `comm` and the R-operator act
on stacks member by member, and their batch axes broadcast by numpy's rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import PD_FLOOR, REGULARITY_GAP, STRICT_PROJECTION_TOL


class _MemberError(ValueError):
    """A gate failure, every gate's raised through `first`: for a stack,
    `member` is the flat (C-order) index of the first failing member over
    its batch axes and the message starts "member i: "; for one element
    `member` is None and there is no prefix."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member

    @classmethod
    def first(cls, bad, why):
        """The error naming the first failing member: bad is a boolean array
        over the batch axes (0-d for one element) and why(i) the message of
        flat member i."""
        bad = np.asarray(bad)
        i = int(np.flatnonzero(bad)[0])
        return cls(why(i)) if bad.ndim == 0 else cls(f"member {i}: {why(i)}", i)


class RegularityError(_MemberError):
    """Torus element too close to the non-regular locus."""


class NotPositiveDefiniteError(_MemberError):
    """Hermitian input is not positive definite within the configured floor."""


class SubspaceError(_MemberError):
    """Strict projection discarded a component above the threshold."""


# ---------------------------------------------------------------------------
# traces, pairing and splittings


def trace_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """tr(AB) per member of two stacks whose batch axes broadcast, as the
    entrywise sum of A * B^T: no matrix product is formed."""
    return (A * B.swapaxes(-1, -2)).sum(axis=(-2, -1))


def power_traces(L: np.ndarray, m: int) -> np.ndarray:
    """h_l = tr(L^l)/l for l = 1..m over a Hermitian stack L, shape
    L.shape[:-2] + (m,).  Only P_a = L^a for a <= ceil(m/2) are formed (one
    stacked matmul each past L); tr L is the real diagonal sum and each other
    trace is trace_product(P_a, P_b), a = l // 2, b = l - a.  Rounding
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
        h[..., l - 1] = np.real(trace_product(P[a - 1], P[l - a - 1]))
    return h / np.arange(1, m + 1)


def pairing(X: np.ndarray, Y: np.ndarray):
    """Invariant bilinear form <X,Y> = Im trace_product(X, Y) on gl(n,C) as a
    real algebra: a float for two matrices, an array of values for stacks of
    them, whose batch axes broadcast by numpy's rule (or raise numpy's ValueError)."""
    if X.shape[-2:] != Y.shape[-2:] or X.shape[-1] != X.shape[-2]:
        raise ValueError(f"dimension mismatch: {X.shape} vs {Y.shape}")
    v = trace_product(X, Y).imag
    return float(v) if v.ndim == 0 else v


def u_part(X: np.ndarray) -> np.ndarray:
    """The anti-Hermitian part X_u of split_ub(X), per member of a stack,
    without forming X_b."""
    lower = np.tril(X, -1)
    return (lower - lower.conj().swapaxes(-1, -2)
            + 1j * diag_matrix(np.diagonal(X, axis1=-2, axis2=-1).imag))


def split_ub(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split X = X_u + X_b with X_u = u_part(X) anti-Hermitian and X_b upper
    triangular with real diagonal, per member of a stack.  The splitting is
    exact (entrywise)."""
    X_b = (np.triu(X, 1) + np.tril(X, -1).conj().swapaxes(-1, -2)
           + diag_matrix(np.diagonal(X, axis1=-2, axis2=-1).real))
    return u_part(X), X_b


def comm(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


# ---------------------------------------------------------------------------
# subspace projections: make_hermitian checks its input and what it discards
# when strict, the others always


def _gate_finite(X: np.ndarray, error: type) -> None:
    """Raise `error` naming the first matrix of X that holds a NaN or an
    infinity.  Gates call it first: numpy warns on the arithmetic of an
    infinity, and a NaN passes every comparison."""
    finite = np.isfinite(X).all(axis=(-2, -1))
    if not finite.all():
        raise error.first(~finite, lambda i: "holds a NaN or an infinity")


def _strict(X, project):
    """project(X), gated: raise if any matrix of X holds a NaN or an
    infinity, or if the projection discarded more than
    STRICT_PROJECTION_TOL * (1 + |X|) of it (Frobenius norms per matrix, so
    one bad member of a stack is not averaged away)."""
    _gate_finite(X, SubspaceError)
    P = project(X)
    discarded = np.linalg.norm(X - P, axis=(-2, -1))
    bad = ~(discarded <= STRICT_PROJECTION_TOL * (1.0 + np.linalg.norm(X, axis=(-2, -1))))
    if bad.any():
        raise SubspaceError.first(
            bad, lambda i: f"discarded component has norm {discarded.flat[i]:.3e}")
    return P


def make_hermitian(X: np.ndarray, strict: bool = False) -> np.ndarray:
    if strict:
        return _strict(X, make_hermitian)
    return 0.5 * (X + X.conj().swapaxes(-1, -2))


def make_unipotent_upper(X: np.ndarray) -> np.ndarray:
    return _strict(X, lambda X: np.triu(X, 1) + np.eye(X.shape[-1]))


def make_zero_diag_hermitian(X: np.ndarray) -> np.ndarray:
    def project(X):
        P = make_hermitian(X)
        return P - diag_matrix(np.diagonal(P, axis1=-2, axis2=-1))
    return _strict(X, project)


# ---------------------------------------------------------------------------
# regular torus elements


def diag_matrix(v: np.ndarray) -> np.ndarray:
    """Complex diagonal matrix with diagonal v, per member of a stack, by one
    np.where on the identity's mask; equal to np.diag(v).astype(complex) for
    one vector, signs of zeros included."""
    return np.where(np.eye(v.shape[-1], dtype=bool), v[..., None], 0j)


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
    a stack if any member is irregular or holds a non-finite phase, and its
    RegularityError names the first one."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "q", q)
        if q.ndim < 1 or q.shape[-1] < 2:
            raise ValueError("need at least two phases")
        finite = np.isfinite(q).all()  # tested first: np.exp warns on an infinity
        if not finite:
            raise RegularityError.first(~np.isfinite(q).all(axis=-1),
                                        lambda i: "non-finite phase")
        if self._pair_gaps().min() <= REGULARITY_GAP:
            gap = self.min_gap()
            raise RegularityError.first(gap <= REGULARITY_GAP, lambda i: (
                f"eigenvalue gap {gap.flat[i]:.3e} below {REGULARITY_GAP:.1e}"))

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


# ---------------------------------------------------------------------------
# triangular factorization


def chol_upper(L: np.ndarray) -> np.ndarray:
    """Unique b in B(n) (upper triangular, positive real diagonal) with
    b b^dagger = L, for finite Hermitian L with smallest eigenvalue above
    PD_FLOOR; per member of a stack.  A member holding a NaN or an infinity
    raises NotPositiveDefiniteError first, before any eigensolve; a member
    that is not Hermitian (the strict make_hermitian) raises SubspaceError,
    and one not positive definite NotPositiveDefiniteError, each naming the
    first failing member.

    Uses the index-reversal trick: conjugating by the reversal permutation
    maps the problem onto a standard lower Cholesky factorization.
    """
    _gate_finite(L, NotPositiveDefiniteError)   # eigvalsh does not converge on them
    L = make_hermitian(L, strict=True)
    w = np.linalg.eigvalsh(L)[..., 0]
    if (w <= PD_FLOOR).any():
        raise NotPositiveDefiniteError.first(
            w <= PD_FLOOR, lambda i: f"smallest eigenvalue {w.flat[i]:.3e}")
    J = np.flip(np.eye(L.shape[-1]), axis=0)
    C = np.linalg.cholesky(J @ L @ J)   # lower, positive real diagonal
    return J @ C @ J


# ---------------------------------------------------------------------------
# real bases of the subspaces and dual bases under the pairing


# Each named space and the space its dual basis lies in.
_DUAL_PAIRS = {
    "u": "b", "b": "u",
    "u0": "b0", "b0": "u0",
    "uperp": "bplus", "bplus": "uperp",
    "herm": "u", "herm0": "u0", "hermperp": "uperp",
}


@lru_cache(maxsize=None)
def basis(space: str, n: int) -> np.ndarray:
    """Real basis of a named subspace of gl(n,C), as one read-only
    (dim, n, n) stack: the diagonal elements first, then the two elements
    of each off-diagonal pair j < k in row order.

    Spaces: u, b, herm, u0, b0, herm0, uperp, bplus, hermperp.
    """
    if space not in _DUAL_PAIRS:
        raise ValueError(f"unknown space: {space!r}")
    e = np.eye(n, dtype=complex)
    units = e[:, None, :, None] * e[None, :, None, :]   # units[j, k] = E_jk
    d = np.arange(n)
    j, k = np.triu_indices(n, 1)
    E, Ejk, Ekj = units[d, d], units[j, k], units[k, j]

    def pairs(A, C):   # A_jk, C_jk for each pair j < k, interleaved
        return np.stack((A, C), axis=1).reshape(-1, n, n)

    parts = []
    if space in ("u", "u0"):
        parts.append(1j * E)
    if space in ("b", "b0", "herm", "herm0"):
        parts.append(E)
    if space in ("u", "uperp"):
        parts.append(pairs(Ejk - Ekj, 1j * (Ejk + Ekj)))
    if space in ("b", "bplus"):
        parts.append(pairs(Ejk, 1j * Ejk))
    if space in ("herm", "hermperp"):
        parts.append(pairs(Ejk + Ekj, 1j * (Ejk - Ekj)))
    B = np.concatenate(parts)
    B.setflags(write=False)
    return B


@lru_cache(maxsize=None)
def dual_basis(space: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis B of `space` and the dual family D in the paired complementary
    isotropic subspace, <D_a, B_b> = delta_ab, as read-only (dim, n, n)
    stacks, so `B, D = dual_basis(space, n)` unpacks them.

    Pairs: u<->b, u0<->b0, uperp<->bplus, and herm/herm0/hermperp against
    u/u0/uperp.  D = G^{-1} W for the basis W of the paired space and its
    Gram matrix G_cb = <W_c, B_b> (one broadcast pairing); + 0.0 leaves no
    zero of D at -0.0.
    """
    B = basis(space, n)
    W = basis(_DUAL_PAIRS[space], n)
    D = np.tensordot(np.linalg.inv(pairing(W[:, None], B[None, :])), W, axes=1) + 0.0
    D.setflags(write=False)
    return B, D
