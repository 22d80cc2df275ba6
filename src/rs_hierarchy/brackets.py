"""Poisson brackets on the four charts, the bracket pencil and a
finite-difference Jacobi-identity defect.

A bracket is one value, `Bracket(chart, contract, name)`: the bilinear form
Pi_x(dF, dH) in the gradient tuples of its chart.  Calling it on two
observables of its chart takes their gradients and contracts them; code
that already holds the gradients calls `contract` directly.  The Jacobi
evaluators share gradients between the observables, the stencil points and
the brackets of one call.
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
    contract: Callable[..., float]
    name: str

    def __call__(self, F: Observable, H: Observable, x) -> float:
        if not (F.chart == self.chart == H.chart):
            raise ValueError(f"{self.name} takes observables on the "
                             f"{self.chart!r} chart")
        return self.contract(x, phase.grad(F, x), phase.grad(H, x))


def _pi1_full(x, gF, gH) -> float:
    return (pairing(gF.D1, gH.d2) - pairing(gH.D1, gF.d2)
            + pairing(x.L, comm(gF.d2, gH.d2)))


def _pi2_full(x, gF, gH) -> float:
    LdF = x.L @ gF.d2
    LdH = x.L @ gH.d2
    ginv = x.g.conj().T
    return (pairing(gF.D1, LdH) - pairing(gH.D1, LdF)
            + 2.0 * pairing(LdF, split_ub(LdH)[0])
            - 0.5 * pairing(gF.D1p, ginv @ gH.D1 @ x.g))


def _pi1_red(x, gf, gh) -> float:
    return (pairing(gf.D1, gh.d2) - pairing(gh.D1, gf.d2)
            + pairing(x.L, r_bracket(x.Q, gf.d2, gh.d2)))


def _pi2_red(x, gf, gh) -> float:
    Ldf = x.L @ gf.d2
    Ldh = x.L @ gh.d2
    return (pairing(gf.D1, Ldh) - pairing(gh.D1, Ldf)
            + 2.0 * pairing(Ldf, r_apply(x.Q, Ldh)))


def _pi_rs(x, gF, gH) -> float:
    # The source states the Ruijsenaars-chart bracket with a factor 2 on the
    # left-hand side; the 1/2 gives it the normalization of the other charts.
    lam_inv = np.linalg.inv(x.lam)
    return 0.5 * (pairing(gF.DQ, gH.dp) - pairing(gH.DQ, gF.dp)
                  + pairing(gF.Dlamp, lam_inv @ gH.Dlam @ x.lam))


def _pi_suth(x, gF, gH) -> float:
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


class Gradients:
    """Gradients, each (observable, point, step) taken once.

    Keyed by the observable itself and the bytes of the point; each Jacobi
    evaluation creates its own, so that it never outlives its points.
    """

    def __init__(self):
        self._memo: dict = {}

    def __call__(self, x, *observables: Observable, step: float | None = None) -> list:
        """Gradients of the observables at x (default step when None)."""
        memo = self._memo.setdefault((phase.point_key(x), step), {})
        out = []
        for F in observables:
            if F not in memo:
                memo[F] = phase.grad(F, x, step)
            out.append(memo[F])
        return out


def _cyclic_terms(brackets, F, G, H, x) -> list[list[float]]:
    """T[j][i] = {F,{G,H}_i}_j + {G,{H,F}_i}_j + {H,{F,G}_i}_j with the
    steps of jacobi_defect.  The three inner pairs and all brackets take the
    gradients of F, G and H at each point from one Gradients memo."""
    chart = F.chart
    if not (G.chart == chart == H.chart):
        raise ValueError("observables live on different charts")
    for b in brackets:
        if not isinstance(b, Bracket):
            raise TypeError(f"{b!r} is not a Bracket; pass one from "
                            "rs_hierarchy.brackets")
        if b.chart != chart:
            raise ValueError("brackets and observables live on different charts")
    grads = Gradients()
    h_outer = FD_OUTER_STEP_SCALE * (1.0 + phase.point_norm(x))
    terms = [[0.0] * len(brackets) for _ in brackets]
    for A, B, C in ((F, G, H), (G, H, F), (H, F, G)):
        dA, = grads(x, A, step=h_outer)
        for i, inner in enumerate(brackets):
            def value(y, contract=inner.contract, B=B, C=C):
                return contract(y, *grads(y, B, C))
            dBC = phase.grad(Observable(chart, value, name=f"{{{B.name},{C.name}}}"),
                             x, h_outer)
            for j, outer in enumerate(brackets):
                terms[j][i] += outer.contract(x, dA, dBC)
    return terms


def jacobi_defect(bracket: Bracket, F: Observable, G: Observable, H: Observable,
                  x) -> float:
    """Cyclic sum {F,{G,H}} + {G,{H,F}} + {H,{F,G}} by nested central
    differences.

    Anything but a Bracket raises TypeError.  The outer bracket
    differentiates F, G, H and the inner brackets with the coarse step
    FD_OUTER_STEP_SCALE*(1 + |x|), since the inner values carry O(h^2)
    noise; the inner brackets use the default step.
    """
    return _cyclic_terms((bracket,), F, G, H, x)[0][0]


def mixed_jacobiator(bracket1: Bracket, bracket2: Bracket, F: Observable,
                     G: Observable, H: Observable, x) -> tuple[float, float, float]:
    """(J1, J12, J2) from one shared set of gradients: J1 and J2 are the
    Jacobi defects of the two brackets and
    J12 = sum_cyc {F,{G,H}_2}_1 + {F,{G,H}_1}_2 is the mixed Jacobiator.

    By bilinearity the defect of bracket1 + s*bracket2 is
    J1 + s*J12 + s^2*J2, so the whole pencil is Poisson iff J1, J2 and J12
    vanish (Magri's compatibility condition).  Both brackets must be
    Brackets on the same chart; steps as in jacobi_defect.
    """
    (t11, t12), (t21, t22) = _cyclic_terms((bracket1, bracket2), F, G, H, x)
    return t11, t12 + t21, t22
