"""Poisson brackets on the four charts and a finite-difference Jacobiator.

A bracket is one value, `Bracket(chart, sharp, name)`: its Hamiltonian map
V = sharp(x, dH), a tuple of the chart's gradient type (None for a slot
that pairs to zero); {F,H}(x), the sum over the slots of <dF, V>, is
`Bracket.contract(x, dF, dH)`, written once for all brackets (_pair).
Calling a bracket on two observables of its chart takes their gradients in
one phase.grads call and contracts them; code that already holds the
gradients calls `contract`.  It takes a batch of points (batch axes S, as
in phase) and gradient stacks with pair axes P in front of S (stack,
take), all broadcast by numpy's rule, and returns the values of shape
P + S in one call, each equal to that of its pair alone, bit for bit.
`jacobiator` needs antisymmetric brackets: it reads each outer bracket
{A, K} as -{K, A}, the derivative of the inner value K along the
Hamiltonian vector field of A, one central difference of displacement
length FD_OUTER_STEP_SCALE * (1 + |x|) per outer bracket and observable.
The field is phase.project of the bracket's map, and phase.move, the move
rule of every finite difference, displaces x along it.  Its inner level is
one phase.grads sweep over the stack of all moved points, and a later call
at the same points takes them from phase's memo; it contracts each bracket
once on all its pairs.  A Jacobi row's scale reads the pair values {F,G},
{G,H}, {H,F} of each bracket at x from the same fields sharp(x, dA) that
the outer differences move along: _jacobi returns T and them, with no
second gradient lookup or sharp map.  A pencil sum_i s_i b_i needs no
Bracket of its own: its Jacobi defect is the quadratic form s.T.s in the
jacobiator T of the b_i, up to the outer differences (each is taken along
one bracket's field).
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
        return _pair(dF, self.sharp(x, dH))


def _pair(dF, V):
    """sum over the slots of <dF_slot, V_slot>; a None slot pairs to zero."""
    return sum(pairing(a, v) for a, v in zip(dF, V) if v is not None)


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


def jacobiator(brackets, F: Observable, G: Observable, H: Observable,
               x) -> np.ndarray:
    """T[j, i] = sum_cyc {F,{G,H}_i}_j for brackets b_i on one chart, by central
    differences of the inner values along Hamiltonian vector fields; a batch
    x of batch axes S gives T of shape (b, b) + S, each member's T that of
    the member alone.  The Jacobi defect of sum_i s_i b_i is s.T.s, up to
    the outer differences: a directional difference is not linear in its
    direction.

    brackets is any iterable of them, read once (a generator included).
    Anything but a Bracket raises TypeError, no bracket ValueError.  Every
    b_j must be antisymmetric: the outer level reads {A, K}_j = -{K, A}_j =
    -X^j_A K, the derivative of K = {G,H}_i, {H,F}_i, {F,G}_i along the
    Hamiltonian vector field X^j_A of A = F, G, H.  X^j_A is
    phase.project of b_j.sharp(x, dA) (a None slot reads as zero), with dF,
    dG, dH from phase.grads.  Each pair (j, A) takes one central difference
    along X^j_A, of displacement length FD_OUTER_STEP_SCALE * (1 + |x|)
    (t = h / |X|, |X| by phase.member_norm; a zero field reads 0), at the
    points phase.move(x, +-tX).  The 6 * b moved points form one
    stack, of batch axes (3, 2, b) + S (A, sign, j): one phase.grads sweep
    of F, G, H, memoized as every sweep (a second call
    at the same points takes no sweep), and one contract per inner bracket
    on the cyclic pair of each point.  Each row sums its three terms in the
    order {F,.}, {G,.}, {H,.}.  Code that swaps a chart map calls
    phase.clear_memos() first.  T is that of _jacobi, which also returns
    the pair values at x that a Jacobi row's scale reads.
    """
    return _jacobi(brackets, F, G, H, x)[0]


def _jacobi(brackets, F, G, H, x) -> tuple[np.ndarray, np.ndarray]:
    """(T, V): jacobiator's T and the pair values V[i] = {F,G}_i, {G,H}_i,
    {H,F}_i of each b_i at x, shape (b, 3) + S.  V pairs dA with the fields
    b_i.sharp(x, dA) that T's outer level moves along, slot by slot as
    contract does, so each value is contract's at x, bit for bit, with no
    second gradient lookup or sharp map."""
    chart = F.chart
    brackets = tuple(brackets)   # a one-shot iterable is read once
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

    dA = stack(phase.grads((F, G, H), x))
    fields = [b.sharp(x, dA) for b in brackets]    # per b_j, slots of (3,) + S
    # <dA_a, sharp(dA_c)> over all (a, c), a view of dA against each field;
    # (a, a + 1) picks {F,G}, {G,H}, {H,F}
    column = take(dA, np.s_[:, None])
    V = np.array([_pair(column, f) for f in fields])[:, (0, 1, 2), (1, 2, 0)]   # (b, 3) + S
    W = type(dA)(*(np.array([np.zeros_like(a) if f[k] is None else f[k] for f in fields])
                   .swapaxes(0, 1) for k, a in enumerate(dA)))   # (3, b) + S + (n, n)
    X = phase.project(x, W)
    size = phase.member_norm(X)    # (3, b) + S
    h = phase.fd_step(x, FD_OUTER_STEP_SCALE)
    t = np.divide(h, size, out=np.zeros(size.shape), where=size > 0.0)
    t = np.array((t, -t)).swapaxes(0, 1)[..., None, None]   # (3, 2, b) + S + (1, 1)
    y = phase.move(x, type(X)(*(t * v[:, None] for v in X)))
    d = stack(phase.grads((F, G, H), y))    # (F, G, H) + (3, 2, b) + S
    pairs = (take(d, ((1, 2, 0), (0, 1, 2))), take(d, ((2, 0, 1), (0, 1, 2))))
    K = np.array([b.contract(y, *pairs) for b in brackets])   # (i, A, sign, j) + S
    rate = (K[:, :, 0] - K[:, :, 1]) * (size / (2.0 * h))     # X^j_A K_{i,A}
    return -(rate[:, 0] + rate[:, 1] + rate[:, 2]).swapaxes(0, 1), V


def jacobi_defect(bracket: Bracket, F: Observable, G: Observable, H: Observable,
                  x) -> float | np.ndarray:
    """Cyclic sum {F,{G,H}} + {G,{H,F}} + {H,{F,G}} by nested central
    differences: T[0,0] of jacobiator((bracket,), F, G, H, x), a float at
    one point and one value per member of a stack."""
    d = jacobiator((bracket,), F, G, H, x)[0, 0]
    return float(d) if d.ndim == 0 else d
