"""Poisson brackets on the four charts, the bracket pencil and a
finite-difference Jacobiator.

A bracket is one value, `Bracket(chart, contract, name)`: the bilinear form
Pi_x(dF, dH) in the gradient tuples of its chart.  Calling it on two
observables of its chart takes their gradients and contracts them; code
that already holds the gradients calls `contract` directly.  Every contract
also takes a batch of points (batch axes S, as in phase, every field
carrying them) with the gradients at them and returns one value per member.
`jacobiator` takes each gradient once per stencil point for all brackets of
one call, and its inner level is one sweep over each whole outer stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import phase
from .algebra import comm, pairing, r_apply, r_bracket, split_ub
from .config import FD_OUTER_STEP_SCALE
from .phase import Observable


@dataclass(frozen=True)
class Bracket:
    """A Poisson bracket as a bilinear form in the gradient tuples of one
    chart: {F,H}(x) = contract(x, dF, dH) with dF = phase.grad(F, x)."""
    chart: str
    contract: Callable    # float for one point, array of shape S for a batch
    name: str

    def __call__(self, F: Observable, H: Observable, x) -> float:
        if not (F.chart == self.chart == H.chart):
            raise ValueError(f"{self.name} takes observables on the "
                             f"{self.chart!r} chart")
        return self.contract(x, *phase.grads((F, H), x))


def _pi1_full(x, gF, gH):
    return (pairing(gF.D1, gH.d2) - pairing(gH.D1, gF.d2)
            + pairing(x.L, comm(gF.d2, gH.d2)))


def _pi2_full(x, gF, gH):
    LdF = x.L @ gF.d2
    LdH = x.L @ gH.d2
    ginv = x.g.conj().swapaxes(-1, -2)
    return (pairing(gF.D1, LdH) - pairing(gH.D1, LdF)
            + 2.0 * pairing(LdF, split_ub(LdH)[0])
            - 0.5 * pairing(gF.D1p, ginv @ gH.D1 @ x.g))


def _pi1_red(x, gf, gh):
    return (pairing(gf.D1, gh.d2) - pairing(gh.D1, gf.d2)
            + pairing(x.L, r_bracket(x.Q, gf.d2, gh.d2)))


def _pi2_red(x, gf, gh):
    Ldf = x.L @ gf.d2
    Ldh = x.L @ gh.d2
    return (pairing(gf.D1, Ldh) - pairing(gh.D1, Ldf)
            + 2.0 * pairing(Ldf, r_apply(x.Q, Ldh)))


def _pi_rs(x, gF, gH):
    # The source states the Ruijsenaars-chart bracket with a factor 2 on the
    # left-hand side; the 1/2 gives it the normalization of the other charts.
    lam_inv = np.linalg.inv(x.lam)
    return 0.5 * (pairing(gF.DQ, gH.dp) - pairing(gH.DQ, gF.dp)
                  + pairing(gF.Dlamp, lam_inv @ gH.Dlam @ x.lam))


def _pi_suth(x, gF, gH):
    return (pairing(gF.DQ, gH.dp) - pairing(gH.DQ, gF.dp)
            + pairing(x.phi, comm(gF.dphi, gH.dphi)))


# First (cotangent-bundle) and second (Heisenberg-double) brackets on
# U(n) x Herm(n), and their reductions to T^n_reg x Herm(n).
pb1_full = Bracket("full", _pi1_full, "pb1_full")
pb2_full = Bracket("full", _pi2_full, "pb2_full")
pb1_red = Bracket("red", _pi1_red, "pb1_red")
pb2_red = Bracket("red", _pi2_red, "pb2_red")
# Second bracket in the Ruijsenaars variables (Q, p, lambda); valid on the
# conjugation-invariant function family.
pb_rs = Bracket("rs", _pi_rs, "pb_rs")
# First bracket in the Sutherland variables (Q, p, phi).
pb_suth = Bracket("suth", _pi_suth, "pb_suth")


def pencil(s: float) -> Bracket:
    """Bracket pencil pb1 + s*pb2 on the full chart; every member is Poisson
    by compatibility of the two brackets."""
    def contract(x, gF, gH):
        return _pi1_full(x, gF, gH) + s * _pi2_full(x, gF, gH)
    return Bracket("full", contract, f"pencil({s})")


def jacobiator(brackets, F: Observable, G: Observable, H: Observable,
               x) -> np.ndarray:
    """T[j, i] = sum_cyc {F,{G,H}_i}_j for brackets b_i on one chart, by nested
    central differences.  The Jacobi defect of sum_i s_i b_i is s.T.s.

    Anything but a Bracket raises TypeError.  One sweep with the coarse step
    FD_OUTER_STEP_SCALE*(1 + |x|) differentiates every inner value {G,H}_i,
    {H,F}_i, {F,G}_i, since they carry O(h^2) noise.  Per block it hands the
    inner callable a stack of outer stencil points; that takes the gradients
    of F, G, H on the whole stack in one sweep (each member at its own
    default step) and contracts every bracket once on it.
    """
    chart = F.chart
    if not (G.chart == chart == H.chart):
        raise ValueError("observables live on different charts")
    for b in brackets:
        if not isinstance(b, Bracket):
            raise TypeError(f"{b!r} is not a Bracket; pass one from "
                            "rs_hierarchy.brackets")
        if b.chart != chart:
            raise ValueError("brackets and observables live on different charts")

    def inner(ys):
        dF, dG, dH = phase.grads((F, G, H), ys)
        T = np.array([[b.contract(ys, dG, dH), b.contract(ys, dH, dF),
                       b.contract(ys, dF, dG)] for b in brackets])
        return np.moveaxis(T, (0, 1), (-2, -1))

    h_outer = FD_OUTER_STEP_SCALE * (1.0 + phase.point_norm(x))
    outer = phase.grads((F, G, H), x, h_outer)
    D = phase.fd_grad(inner, chart, x, h_outer)
    d_inner = [[type(D)(*(part[..., i, c, :, :] for part in D)) for c in range(3)]
               for i in range(len(brackets))]
    return np.array([[sum(b.contract(x, dA, dBC) for dA, dBC in zip(outer, row))
                      for row in d_inner] for b in brackets])


def jacobi_defect(bracket: Bracket, F: Observable, G: Observable, H: Observable,
                  x) -> float:
    """Cyclic sum {F,{G,H}} + {G,{H,F}} + {H,{F,G}} by nested central
    differences: T[0,0] of jacobiator((bracket,), F, G, H, x)."""
    return float(jacobiator((bracket,), F, G, H, x)[0, 0])
