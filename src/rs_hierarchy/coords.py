"""Changes of variables between the reduced chart (Q, L) and the
Ruijsenaars chart (Q, p, lambda) resp. the Sutherland chart (Q, p, phi).

Ruijsenaars direction: factor L = b b^dagger with b in B(n), split
b = e^p b_+ and set lambda = b_+^{-1} Q^{-1} b_+ Q.  The inverse recovers
b_+ from (Q, lambda) by a superdiagonal-by-superdiagonal recursion on the
defining relation b_+ lambda = Q^{-1} b_+ Q.

Sutherland direction: L = p - (R(Q) + id/2)(phi), which acts entrywise as
multiplication by w/(w-1), w = e^{i(q_j - q_k)}, off the diagonal.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import algebra
from .algebra import RegularityError, TorusReg
from .config import REGULARITY_GAP
from .phase import RedPoint, RSPoint, SuthPoint


def to_rs(x: RedPoint) -> RSPoint:
    """(Q, L) -> (Q, p, lambda) for positive definite L."""
    b = algebra.chol_upper(x.L)
    p = np.log(np.real(np.diag(b)))
    bplus = np.exp(-p)[:, None] * b
    Qm = x.Q.matrix()
    lam = scipy.linalg.solve_triangular(bplus, Qm.conj() @ bplus @ Qm)
    lam = algebra.make_unipotent_upper(lam, strict=True)
    return RSPoint(x.Q, p, lam)


def solve_bplus(Q: TorusReg, lam: np.ndarray) -> np.ndarray:
    """Unique unit-diagonal upper triangular b_+ with b_+ lam = Q^{-1} b_+ Q.

    Entry (j,k) on superdiagonal d = k - j is determined by lower
    superdiagonals:  (b_+)_{jk} = sum_{j<=m<k} (b_+)_{jm} lam_{mk} divided by
    (e^{i(q_k - q_j)} - 1).
    """
    n = Q.n
    w = np.exp(1j * (Q.q[None, :] - Q.q[:, None]))  # w[j,k] = e^{i(q_k - q_j)}
    bp = np.eye(n, dtype=complex)
    for d in range(1, n):
        for j in range(n - d):
            k = j + d
            denom = w[j, k] - 1.0
            if abs(denom) <= REGULARITY_GAP:
                raise RegularityError(
                    f"denominator |e^(i(q_{k}-q_{j})) - 1| = {abs(denom):.3e}")
            bp[j, k] = np.dot(bp[j, j:k], lam[j:k, k]) / denom
    return bp


def from_rs(x: RSPoint) -> RedPoint:
    """(Q, p, lambda) -> (Q, L) with L = e^p b_+ b_+^dagger e^p."""
    bplus = solve_bplus(x.Q, x.lam)
    ep = np.exp(x.p)
    L = ep[:, None] * (bplus @ bplus.conj().T) * ep[None, :]
    return RedPoint(x.Q, algebra.make_hermitian(L, strict=True))


def _suth_multiplier(Q: TorusReg) -> np.ndarray:
    """Entrywise action of (R(Q) + id/2) on off-diagonal entries:
    w/(w-1) with w = e^{i(q_j - q_k)}; zero on the diagonal."""
    w = np.exp(1j * (Q.q[:, None] - Q.q[None, :]))
    off = ~np.eye(Q.n, dtype=bool)
    denom = w - 1.0
    if np.min(np.abs(denom[off])) <= REGULARITY_GAP:
        raise RegularityError("Sutherland multiplier denominator below gap")
    M = np.zeros_like(w)
    M[off] = w[off] / denom[off]
    return M


def from_suth(x: SuthPoint) -> RedPoint:
    """(Q, p, phi) -> (Q, L) with L = p - (R(Q) + id/2)(phi)."""
    L = np.diag(x.p).astype(complex) - _suth_multiplier(x.Q) * x.phi
    return RedPoint(x.Q, algebra.make_hermitian(L, strict=True))


def to_suth(x: RedPoint) -> SuthPoint:
    """(Q, L) -> (Q, p, phi): p is the (real) diagonal of L and phi inverts
    the entrywise multiplier on the off-diagonal part."""
    p = np.real(np.diag(x.L))
    M = _suth_multiplier(x.Q)
    off = ~np.eye(x.n, dtype=bool)
    phi = np.zeros_like(x.L)
    phi[off] = -x.L[off] / M[off]
    return SuthPoint(x.Q, p, algebra.make_zero_diag_hermitian(phi, strict=True))
