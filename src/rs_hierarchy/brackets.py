"""Poisson brackets on the four charts and a finite-difference Jacobiator.

A bracket is one value, `Bracket(chart, sharp, name)`: its Hamiltonian map
V = sharp(x, dH), a tuple of the chart's gradient type (None for a slot
that pairs to zero); {F,H}(x), the sum over the slots of <dF, V>, is
`Bracket.contract(x, dF, dH)`, written once for all brackets.  Calling a
bracket on two observables of its chart takes their gradients in one
phase.grads call and contracts them; code that already holds the gradients
calls `contract`.  It takes a batch of points (batch axes S, as in phase)
and gradient stacks with pair axes P in front of S (stack, take,
cyclic_pairs), all broadcast by numpy's rule, and returns the values of
shape P + S in one call, each equal to that of its pair alone, bit for bit.
`jacobiator` steps at the scale FD_OUTER_STEP_SCALE outside and phase's
default inside, and takes each gradient once per stencil point for all
brackets of one call; its inner level is one sweep over each whole outer
stack, and a later call at the same points takes them from phase's memo.
Both of its levels contract each bracket once on all their pairs.  A
pencil sum_i s_i b_i needs no Bracket of its own: its Jacobi defect is the
quadratic form s.T.s in the jacobiator T of the b_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import phase
from .algebra import comm, pairing, r_apply, r_multiplier, u_part
from .config import FD_OUTER_STEP_SCALE
from .phase import FullGrad, Observable, RedGrad, RSGrad, SuthGrad


@dataclass(frozen=True)
class Bracket:
    """A Poisson bracket as its Hamiltonian map on one chart: sharp(x, dH) is
    V of dH's gradient type, None in a slot that pairs to zero, and
    {F,H}(x) = contract(x, dF, dH) = sum <dF_slot, V_slot> with (dF, dH) =
    phase.grads((F, H), x), a float at one point.  Gradient stacks whose
    pair axes, in front of x's batch axes S, broadcast to P give values of
    shape P + S (P = () for one pair: one value per member)."""
    chart: str
    sharp: Callable    # (x, dH) -> V, of dH's gradient type
    name: str

    def __call__(self, F: Observable, H: Observable, x) -> float | np.ndarray:
        if not (F.chart == self.chart == H.chart):
            raise ValueError(f"{self.name} takes observables on the "
                             f"{self.chart!r} chart")
        return self.contract(x, *phase.grads((F, H), x))

    def contract(self, x, dF, dH):
        return sum(pairing(a, v) for a, v in zip(dF, self.sharp(x, dH)) if v is not None)


# Each map is the source's bilinear form in dF and dH with dF moved to the
# left of every pairing, by <X, YZ> = <ZX, Y>, <L, [A, B]> = <A, [B, L]>
# and, for R = r_apply(Q, .), <R X, Y> = -<X, R Y>.  Each map forms a factor
# of the point, such as r_multiplier(Q), once per call.
def _sharp1_full(x, dH):
    return FullGrad(dH.d2, None, comm(dH.d2, x.L) - dH.D1)


def _sharp2_full(x, dH):
    LdH = x.L @ dH.d2
    return FullGrad(LdH, -0.5 * (x.g.conj().swapaxes(-1, -2) @ dH.D1 @ x.g),
                    (2.0 * u_part(LdH) - dH.D1) @ x.L)


def _sharp1_red(x, dh):
    R = r_multiplier(x.Q)   # r_apply(x.Q, X) is R * X
    return RedGrad(dh.d2, comm(R * dh.d2, x.L) - R * comm(dh.d2, x.L) - dh.D1)


def _sharp2_red(x, dh):
    Ldh = x.L @ dh.d2
    return RedGrad(Ldh, (2.0 * r_apply(x.Q, Ldh) - dh.D1) @ x.L)


def _sharp_rs(x, dH):
    # The source states the Ruijsenaars-chart bracket with a factor 2 on the
    # left-hand side; the 1/2 gives it the normalization of the other charts.
    lam_inv = np.linalg.inv(x.lam)
    return RSGrad(0.5 * dH.dp, -0.5 * dH.DQ, None, 0.5 * (lam_inv @ dH.Dlam @ x.lam))


def _sharp_suth(x, dH):
    return SuthGrad(dH.dp, -dH.DQ, comm(dH.dphi, x.phi))


# First (cotangent-bundle) and second (Heisenberg-double) brackets on
# U(n) x Herm(n), and their reductions to T^n_reg x Herm(n).
pb1_full = Bracket("full", _sharp1_full, "pb1_full")
pb2_full = Bracket("full", _sharp2_full, "pb2_full")
pb1_red = Bracket("red", _sharp1_red, "pb1_red")
pb2_red = Bracket("red", _sharp2_red, "pb2_red")
# Second bracket in the Ruijsenaars variables (Q, p, lambda); valid on the
# conjugation-invariant function family.
pb_rs = Bracket("rs", _sharp_rs, "pb_rs")
# First bracket in the Sutherland variables (Q, p, phi).
pb_suth = Bracket("suth", _sharp_suth, "pb_suth")

# Every bracket by its chart and its number (1 for the first, 2 for the second).
BRACKETS = {
    ("full", 1): pb1_full, ("full", 2): pb2_full,
    ("red", 1): pb1_red, ("red", 2): pb2_red,
    ("rs", 2): pb_rs, ("suth", 1): pb_suth,
}


def stack(grads):
    """Gradient tuples of one chart, all of the same shape, as one tuple of
    that type whose components carry a new leading axis (np.array of each
    component's list, np.stack's result without its Python-level set-up)."""
    return type(grads[0])(*map(np.array, zip(*grads)))


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

    Anything but a Bracket raises TypeError, no bracket ValueError.  The
    outer level, gradients of F, G, H and one sweep differentiating each
    {G,H}_i, {H,F}_i, {F,G}_i (they carry O(h^2) noise), takes the step
    scale FD_OUTER_STEP_SCALE; phase forms every step.  Per block the sweep
    hands the inner callable a stack of outer stencil points; that takes the
    gradients of F, G, H on the whole stack in one sweep at the default
    scale and contracts each bracket once on the stack of the three cyclic
    pairs.  Those gradients come from phase's gradient memo when an earlier
    call took them at the same points and scale (keyed by content, at most
    _MEMO_SIZE entries): a second bracket tuple on the same F, G, H and x
    takes no inner sweep.  The outer level contracts each bracket once too,
    the outer gradients of F, G, H against those of every inner value, and
    sums each row's three terms in the order {F,.}, {G,.}, {H,.}.  Both
    levels move axes by transpose views (ndarray.transpose, swapaxes), never
    copies.  Code that swaps a chart map calls phase.clear_memos() first.
    """
    chart = F.chart
    if not brackets:
        raise ValueError("jacobiator needs at least one bracket")
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
        T = np.array([b.contract(ys, *pairs) for b in brackets])   # (b, 3) + batch
        return T.transpose(*range(2, T.ndim), 0, 1)

    outer = stack(phase.grads((F, G, H), x, FD_OUTER_STEP_SCALE))
    D = phase.fd_grad(inner, chart, x, FD_OUTER_STEP_SCALE)
    # each component S + (b, 3) + (n, n) as (b, 3) + S + (n, n): the inner
    # values' axes in front, as pair axes
    d_inner = type(D)(*(c.transpose(c.ndim - 4, c.ndim - 3, *range(c.ndim - 4),
                                    c.ndim - 2, c.ndim - 1) for c in D))
    return np.array([sum(b.contract(x, outer, d_inner).swapaxes(0, 1))
                     for b in brackets])


def jacobi_defect(bracket: Bracket, F: Observable, G: Observable, H: Observable,
                  x) -> float:
    """Cyclic sum {F,{G,H}} + {G,{H,F}} + {H,{F,G}} by nested central
    differences: T[0,0] of jacobiator((bracket,), F, G, H, x)."""
    return float(jacobiator((bracket,), F, G, H, x)[0, 0])
