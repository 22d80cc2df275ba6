"""Changes of variables between the reduced chart (Q, L) and the
Ruijsenaars chart (Q, p, lambda) resp. the Sutherland chart (Q, p, phi).

Ruijsenaars direction: factor L = b b^dagger with b in B(n), split
b = e^p b_+ and set lambda = b_+^{-1} Q^{-1} b_+ Q.  The inverse recovers
b_+ from (Q, lambda) by a superdiagonal-by-superdiagonal recursion on the
defining relation b_+ lambda = Q^{-1} b_+ Q.

Sutherland direction: L = p - (R(Q) + id/2)(phi), which acts entrywise as
multiplication by w/(w-1), w = e^{i(q_j - q_k)}, off the diagonal.  In both
directions each divisor |w - 1| is an eigenvalue gap of Q, which TorusReg
keeps above config.REGULARITY_GAP.

solve_bplus, from_rs, to_rs, from_suth and to_suth also take stacked
points (leading batch axes S on any field, as in phase; a field without
them is shared) and map them member by member.
"""

from __future__ import annotations

import numpy as np

from . import algebra
from .algebra import TorusReg
from .phase import RedPoint, RSPoint, SuthPoint


def to_rs(x: RedPoint) -> RSPoint:
    """(Q, L) -> (Q, p, lambda) for positive definite L."""
    b = algebra.chol_upper(x.L)
    p = np.log(np.real(np.diagonal(b, axis1=-2, axis2=-1)))
    bplus = np.exp(-p)[..., :, None] * b
    Qm = x.Q.matrix()
    lam = np.linalg.solve(bplus, Qm.conj() @ bplus @ Qm)
    lam = algebra.make_unipotent_upper(lam)
    return RSPoint(x.Q, p, lam)


def solve_bplus(Q: TorusReg, lam: np.ndarray) -> np.ndarray:
    """Unique unit-diagonal upper triangular b_+ with b_+ lam = Q^{-1} b_+ Q.

    Entry (j,k) on superdiagonal d = k - j is determined by lower
    superdiagonals:  (b_+)_{jk} = sum_{j<=m<k} (b_+)_{jm} lam_{mk} divided by
    (e^{i(q_k - q_j)} - 1).

    Q and lam may each be a stack; the result is then the stack of b_+ over
    their common batch axes.  Each entry's sum is a (1 x d)(d x 1) matrix
    product, which rounds as np.dot does for one point, so a member of a
    stack equals the single-point result bit for bit.
    """
    n = Q.n
    w = np.exp(1j * (Q.q[..., None, :] - Q.q[..., :, None]))  # w[j,k] = e^{i(q_k - q_j)}
    bp = np.zeros(np.broadcast_shapes(w.shape, lam.shape), dtype=complex)
    bp[..., range(n), range(n)] = 1.0
    for d in range(1, n):
        for j in range(n - d):
            k = j + d
            bp[..., j, k] = ((bp[..., j, None, j:k] @ lam[..., j:k, k, None])[..., 0, 0]
                             / (w[..., j, k] - 1.0))
    return bp


def from_rs(x: RSPoint) -> RedPoint:
    """(Q, p, lambda) -> (Q, L) with L = e^p b_+ b_+^dagger e^p."""
    bplus = solve_bplus(x.Q, x.lam)
    ep = np.exp(x.p)
    L = ep[..., :, None] * (bplus @ bplus.conj().swapaxes(-1, -2)) * ep[..., None, :]
    return RedPoint(x.Q, algebra.make_hermitian(L, strict=True))


def _suth_multiplier(Q: TorusReg) -> np.ndarray:
    """Entrywise action of (R(Q) + id/2): the R-operator's multiplier plus 1/2 off
    the diagonal, w/(w-1) = (1/2)(w+1)/(w-1) + 1/2, w = e^{i(q_j - q_k)}."""
    return algebra.r_multiplier(Q) + 0.5 * algebra.off_diagonal(Q.n)


def from_suth(x: SuthPoint) -> RedPoint:
    """(Q, p, phi) -> (Q, L) with L = p - (R(Q) + id/2)(phi)."""
    L = algebra.diag_matrix(x.p) - _suth_multiplier(x.Q) * x.phi
    return RedPoint(x.Q, algebra.make_hermitian(L, strict=True))


def to_suth(x: RedPoint) -> SuthPoint:
    """(Q, L) -> (Q, p, phi): p is the (real) diagonal of L and phi inverts
    the entrywise multiplier on the off-diagonal part."""
    p = np.real(np.diagonal(x.L, axis1=-2, axis2=-1))
    M = _suth_multiplier(x.Q)   # its diagonal is 0: divide by 1 there
    phi = np.where(algebra.off_diagonal(x.n), -x.L / (M + np.eye(x.n)), 0j)
    return SuthPoint(x.Q, p, algebra.make_zero_diag_hermitian(phi))
