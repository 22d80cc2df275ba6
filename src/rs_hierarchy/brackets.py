"""Poisson brackets on the four charts and a finite-difference Jacobiator.

A bracket is one value, `Bracket(chart, contract, name)`: the bilinear form
Pi_x(dF, dH) in the gradient tuples of its chart.  Calling it on two
observables of its chart takes their gradients in one phase.grads call and
contracts them; code that already holds the gradients calls `contract`
directly.  Every contract takes a batch of points (batch axes S, as in
phase) and gradient stacks with pair axes P in front of S (stack, take,
cyclic_pairs), all broadcast by numpy's rule, and returns the values of
shape P + S in one call, each equal to that of its pair alone, bit for bit.
`jacobiator` takes each gradient once per stencil point for all brackets of
one call, and its inner level is one sweep over each whole outer stack; a
later call at the same points takes those gradients from phase's memo.
Both of its levels contract each bracket once on all their pairs.  A
pencil sum_i s_i b_i needs no Bracket of its own: its Jacobi defect is the
quadratic form s.T.s in the jacobiator T of the b_i.
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
    chart: {F,H}(x) = contract(x, dF, dH) with (dF, dH) = phase.grads((F, H), x).
    contract takes gradient stacks whose pair axes, in front of x's batch
    axes S, broadcast to P, and returns values of shape P + S."""
    chart: str
    contract: Callable    # float for one point and one pair
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


def stack(grads):
    """Gradient tuples of one chart, all of the same shape, as one tuple of
    that type whose components carry a new leading axis."""
    return type(grads[0])(*map(np.stack, zip(*grads)))


def take(g, index):
    """The gradient tuple g with every component indexed by `index` along
    its leading axes; a slice or None gives views, not copies."""
    return type(g)(*(c[index] for c in g))


def cyclic_pairs(dA, dB, dC):
    """Stacks (left, right) of the pairs (A, B), (B, C), (C, A) of three
    gradient tuples: consecutive members of one stack of (A, B, C, A)."""
    d = stack((dA, dB, dC, dA))
    return take(d, slice(0, 3)), take(d, slice(1, 4))


def jacobiator(brackets, F: Observable, G: Observable, H: Observable,
               x) -> np.ndarray:
    """T[j, i] = sum_cyc {F,{G,H}_i}_j for brackets b_i on one chart, by nested
    central differences; a batch x of batch axes S gives T of shape (b, b) + S,
    each member's T that of the member alone.  The Jacobi defect of sum_i s_i b_i is s.T.s.

    Anything but a Bracket raises TypeError.  One sweep with the coarse step
    FD_OUTER_STEP_SCALE*(1 + |x|) differentiates every inner value {G,H}_i,
    {H,F}_i, {F,G}_i, since they carry O(h^2) noise.  Per block it hands the
    inner callable a stack of outer stencil points; that takes the gradients
    of F, G, H on the whole stack in one sweep (each member at its own
    default step) and contracts each bracket once on the stack of the three
    cyclic pairs.  Those gradients come from phase's gradient memo when an
    earlier call took them at the same points and steps (keyed by content,
    at most _MEMO_SIZE entries): a second bracket tuple on the same F, G, H
    and x takes no inner sweep.  The outer level contracts each bracket once
    too, the outer gradients of F, G, H against those of every inner value,
    and sums each row's three terms in the order {F,.}, {G,.}, {H,.}.
    Code that swaps a chart map calls phase.clear_memos() first.
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
        pairs = cyclic_pairs(dG, dH, dF)   # {G,H}, {H,F}, {F,G}
        T = np.array([b.contract(ys, *pairs) for b in brackets])
        return np.moveaxis(T, (0, 1), (-2, -1))

    h_outer = FD_OUTER_STEP_SCALE * (1.0 + phase.point_norm(x))
    outer = stack(phase.grads((F, G, H), x, h_outer))
    D = phase.fd_grad(inner, chart, x, h_outer)
    d_inner = type(D)(*(np.moveaxis(c, (-4, -3), (0, 1)) for c in D))
    return np.array([sum(np.moveaxis(b.contract(x, outer, d_inner), 1, 0))
                     for b in brackets])


def jacobi_defect(bracket: Bracket, F: Observable, G: Observable, H: Observable,
                  x) -> float:
    """Cyclic sum {F,{G,H}} + {G,{H,F}} + {H,{F,G}} by nested central
    differences: T[0,0] of jacobiator((bracket,), F, G, H, x)."""
    return float(jacobiator((bracket,), F, G, H, x)[0, 0])
