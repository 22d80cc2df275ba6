"""Chart point types, observables and the derivative engine.

Four charts are in play: the unreduced phase space U(n) x Herm(n) ("full"),
the reduced chart T^n_reg x Herm(n) ("red"), the Ruijsenaars chart
(Q, p, lambda) ("rs") and the Sutherland chart (Q, p, phi) ("suth").
Each chart has its own derivative signature, obtained by pairing directional
derivatives along a basis of displacement directions with the dual basis
under <X,Y> = Im tr(XY).

A chart point may be a batch of points: each field carries leading batch
axes (a TorusReg holds phase vectors of shape S + (n,)), and those of its
fields broadcast against each other by numpy's rule to the point's batch
axes S; a field without some of them is shared along those.  One point is
the batch S = ().  Observables, the chart maps and the bracket contractions
evaluate a whole batch at once, one value per member.

One central-difference engine, `fd_grad`, serves all four charts from a
table, and `grads` is its only front for observables (`grad` is grads of
one observable; the grad_<chart> fronts also check the chart).  fd_grad's
contract: f maps points of batch shape S' to an array with leading axes S'
(more axes for an array-valued f).  A chart's row holds its gradient tuple
type and one block per component: the space of the directions (in
algebra.basis order, paired with its dual basis) and the field it moves.
Every finite difference moves points one way, by `move`: along a tangent
X by t, a group block (u(n) or b_+) multiplies its field by 1 + tX, a line
adds tX.  `project` turns a tuple of the gradient type, such as a
Hamiltonian map's value, into the tangent sum_a <D_a, V> B_a of each block,
and `member_norm` measures arrays and tuples of them member by member.
For each block, fd_grad moves every member of x by all 2*dim displacements
tB at once, each by its own step scale*(1 + |member|) (fd_step, the one
step rule; scale FD_STEP_SCALE unless given), and calls f once on the
moved point as it is, of batch shape (2*dim,) + S: the fields the block
leaves alone are x's own arrays.  `grads` sweeps several observables at
once at FD_STEP_SCALE; the invariant observables among them share one call
of the chart map to (U, L) per stencil stack, and every finite-difference
gradient is memoized under the point's exact content (the type, and the
dtype, shape and bytes of each field) and the step scale (see grads;
clear_memos empties it and states the rule of every cache).
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import algebra
from .algebra import TorusReg
from .config import FD_STEP_SCALE

CHARTS = ("full", "red", "rs", "suth")

# Bound of each memo (sample points, stacks of them and gradients): far above
# the distinct entries of a suite run.
_MEMO_SIZE = 1024


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class FullPoint:
    """Point (g, L) of the unreduced phase space U(n) x Herm(n)."""
    g: np.ndarray
    L: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[-1]


@dataclass(frozen=True)
class RedPoint:
    """Point (Q, L) of the reduced chart T^n_reg x Herm(n)."""
    Q: TorusReg
    L: np.ndarray

    @property
    def n(self) -> int:
        return self.Q.n


@dataclass(frozen=True)
class RSPoint:
    """Point (Q, p, lambda) of the Ruijsenaars chart; lam is unit-diagonal
    upper triangular."""
    Q: TorusReg
    p: np.ndarray
    lam: np.ndarray

    @property
    def n(self) -> int:
        return self.Q.n


@dataclass(frozen=True)
class SuthPoint:
    """Point (Q, p, phi) of the Sutherland chart; phi is Hermitian with
    exactly zero diagonal."""
    Q: TorusReg
    p: np.ndarray
    phi: np.ndarray

    @property
    def n(self) -> int:
        return self.Q.n


# The chart of each point type.
_CHARTS_BY_TYPE = {FullPoint: "full", RedPoint: "red", RSPoint: "rs", SuthPoint: "suth"}

# Axes of one point's field: the torus phases and p are vectors, the rest
# matrices.  A batch of points adds its batch axes S in front.
_VECTOR_FIELDS = ("Q", "p")


@lru_cache(maxsize=None)
def _layout(kind: type) -> tuple[tuple[str, int], ...]:
    """Per field of a point type: its name and the number of axes of one point."""
    return tuple((f.name, 1 if f.name in _VECTOR_FIELDS else 2) for f in fields(kind))


def _arrays(x) -> list[tuple[object, np.ndarray, tuple]]:
    """Per field of x in order: its value, its coordinate array and the batch
    axes that array carries (they broadcast to S; () for a shared field)."""
    out = []
    for name, ndim in _layout(type(x)):
        v = getattr(x, name)
        a = v.q if isinstance(v, TorusReg) else v
        out.append((v, a, a.shape[:a.ndim - ndim]))
    return out


def batch_shape(x) -> tuple:
    """Batch axes S of x, () for one point: the batch axes of its fields
    broadcast against each other; ValueError if they do not broadcast."""
    return np.broadcast_shapes(*(s for _, _, s in _arrays(x)))


def member_norm(a, S: tuple | None = None) -> np.ndarray:
    """2-norm of each member of a, of shape S: a is an array with batch axes
    S (None: all its axes but the last two, a stack of matrices) or a tuple
    of such arrays, such as a gradient or tangent tuple, whose member norm is
    the root of the sum of its components' squared ones.  One call of
    np.linalg.norm over each member's flattened entries: on a C-contiguous
    stack of matrices it equals np.linalg.norm(a, axis=(-2, -1)) bit for
    bit, and on any layout each member equals that member on its own."""
    if isinstance(a, tuple):
        return np.sqrt(sum(member_norm(c, S) ** 2 for c in a))
    return np.linalg.norm(a.reshape((a.shape[:-2] if S is None else S) + (-1,)), axis=-1)


def _numeric_arrays(x) -> list:
    """_arrays(x), or a ValueError naming the first field of object dtype:
    finite differences neither measure nor key such a field (its bytes are
    element addresses), though the sharp maps take one."""
    arrays = _arrays(x)
    for (name, _), (_, a, _) in zip(_layout(type(x)), arrays):
        if a.dtype.hasobject:
            raise ValueError(f"finite differences need numeric fields; "
                             f"{name} has dtype {a.dtype}")
    return arrays


def point_norm(x):
    """2-norm of the coordinate arrays of x, one value per member (shape
    batch_shape(x); a shared field counts for every member): the root of the
    sum of each field's squared member_norm, so each member equals the
    member on its own, bit for bit.  A field of object dtype raises
    ValueError naming it (_numeric_arrays), so fd_step and fd_grad do too."""
    total = 0.0
    for _, a, s in _numeric_arrays(x):
        total = total + member_norm(a, s) ** 2
    return np.sqrt(total)


# ---------------------------------------------------------------------------
# observables


def _index(v, name: str, low: int) -> int:
    """v by operator.index, at least low; else a TypeError or ValueError naming it."""
    try:
        v = operator.index(v)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {v!r}") from None
    if v < low:
        raise ValueError(f"need {name} >= {low}, got {name} = {v}")
    return v


@dataclass(frozen=True)
class Observable:
    """Real-valued function on one chart.

    `value` maps points of batch shape S to an array that broadcasts to S (one
    point to one value); calling the observable on one point returns a float.
    `grad`, when present, returns the chart's full derivative tuple, each
    component broadcasting to that of the grad_* result, and is preferred over
    finite differences.  Without it, `value` must be a hashable (else grads
    raises ValueError), pure function of the point: grads memoizes under it.
    """
    chart: str
    value: Callable
    grad: Callable | None = None
    name: str = ""

    def __post_init__(self):
        _chart_name(self.chart)

    def __call__(self, x) -> float:
        return float(self.value(x))


def _chart_name(chart) -> str:
    """chart, if it is one of CHARTS; else ValueError, for an unhashable
    value too."""
    if chart not in CHARTS:
        raise ValueError(f"unknown chart {chart!r}")
    return chart


# ---------------------------------------------------------------------------
# derivative engine


class FullGrad(NamedTuple):
    D1: np.ndarray    # b(n)-valued (left displacement)
    D1p: np.ndarray   # b(n)-valued (right displacement)
    d2: np.ndarray    # u(n)-valued (L displacement)


class RedGrad(NamedTuple):
    D1: np.ndarray    # b(n)_0-valued
    d2: np.ndarray    # u(n)-valued


class RSGrad(NamedTuple):
    DQ: np.ndarray    # b(n)_0-valued
    dp: np.ndarray    # u(n)_0-valued
    Dlam: np.ndarray  # u(n)_perp-valued (left displacement of lambda)
    Dlamp: np.ndarray # u(n)_perp-valued (right displacement of lambda)


class SuthGrad(NamedTuple):
    DQ: np.ndarray
    dp: np.ndarray
    dphi: np.ndarray  # u(n)_perp-valued


class _Block(NamedTuple):
    """One component of a chart gradient: derivatives along the basis of
    `space`, paired with its dual basis, that move the point's `field`.  A
    group block (u(n) or b_+) multiplies it by 1 + D on `side` ("left" or
    "right"); a line (side None) adds D, the torus phases Q taking Im diag D
    and p taking Re diag D."""
    space: str
    field: str
    side: str | None


def _diag(D: np.ndarray) -> np.ndarray:
    """Diagonal of each matrix of a stack."""
    return np.diagonal(D, axis1=-2, axis2=-1)


# Per chart: the gradient tuple type and one block per component.
_CHART_TABLE = {
    "full": (FullGrad, (_Block("u", "g", "left"), _Block("u", "g", "right"),
                        _Block("herm", "L", None))),
    "red": (RedGrad, (_Block("u0", "Q", None), _Block("herm", "L", None))),
    "rs": (RSGrad, (_Block("u0", "Q", None), _Block("b0", "p", None),
                    _Block("bplus", "lam", "left"), _Block("bplus", "lam", "right"))),
    "suth": (SuthGrad, (_Block("u0", "Q", None), _Block("herm0", "p", None),
                        _Block("hermperp", "phi", None))),
}


def _chart_of(x) -> str:
    """The chart of the point x, read from its type; else ValueError naming it."""
    chart = _CHARTS_BY_TYPE.get(type(x))
    if chart is None:
        raise ValueError(f"not a chart point: a {type(x).__name__}")
    return chart


def move(x, D):
    """x moved by the displacement tuple D = tX along a tangent X, a tuple of
    the gradient type of x's chart (read from x's type): block by block in
    the table's order, a group block's field f becomes (1 + D_k) f or
    f (1 + D_k) and a line's f + D_k (see _Block).  A None component leaves
    its field as x's own array; the batch axes of D_k broadcast against
    those of its field.  A central difference needs only the curve's point
    and velocity at t = 0, so the group lines need no exponential: their
    points leave the group at O(t^2), terms that are even in t and cancel."""
    blocks = _CHART_TABLE[_chart_of(x)][1]
    one = np.eye(x.n)
    new = {name: getattr(x, name) for name, _ in _layout(type(x))}
    for (_, name, side), d in zip(blocks, D, strict=True):
        if d is None:
            continue
        a = new[name]
        if side:
            new[name] = (one + d) @ a if side == "left" else a @ (one + d)
        elif name == "Q":
            new[name] = a.shifted(_diag(d).imag)
        else:
            new[name] = a + (_diag(d).real if name == "p" else d)
    return type(x)(**new)


def _project(space: str, V: np.ndarray) -> np.ndarray:
    """X = sum_a <D_a, V> B_a over the basis B of `space` and its dual basis
    D, per member of the stack V (batch axes in front of (n, n)): the
    identity on `space`, zero on the space D spans."""
    n = V.shape[-1]
    B, D = algebra.dual_basis(space, n)
    c = algebra.pairing(D.reshape((len(D),) + (1,) * (V.ndim - 2) + (n, n)), V)
    return np.dot(c.reshape(len(D), -1).T, B.reshape(len(B), -1)).reshape(V.shape)


def project(x, V):
    """The tangent at x of V, a tuple of the gradient type of x's chart such as
    a sharp-map value: each component projected onto its block's space by
    _project (a None component stays None), so a Hamiltonian map's value
    becomes the vector field that move displaces x along."""
    kind, blocks = _CHART_TABLE[_chart_of(x)]
    return kind(*(None if v is None else _project(b.space, v)
                  for b, v in zip(blocks, V, strict=True)))


def _scale(scale) -> float:
    """scale as a float, FD_STEP_SCALE (read now) for None; else ValueError
    naming it unless it is a finite positive real number."""
    if scale is None:
        return FD_STEP_SCALE
    if not (isinstance(scale, numbers.Real) and 0.0 < scale < np.inf):   # NaN fails
        raise ValueError(f"a step scale must be a finite positive number, got {scale!r}")
    return float(scale)


def fd_step(x, scale: float | None = None):
    """Central-difference step _scale(scale)*(1 + |x|) per member: the one rule."""
    return _scale(scale) * (1.0 + point_norm(x))


def fd_grad(f: Callable, x, scale: float | None = None):
    """Gradient tuple of f at x on x's chart (read from its type; ValueError
    for anything but a chart point) by central differences.

    x is a point of batch shape S (S = () for one point); each member gets its
    own step fd_step(member, scale) = scale*(1 + |member|), scale None being
    FD_STEP_SCALE (ValueError unless scale is a finite positive number).  Per
    block, the displacements tB along the basis B of its space (all + steps,
    then all - steps) have shape (2*dim,) + S + (n, n), and f is called once
    on move(x, displacements) (batch shape (2*dim,) + S; the fields the block
    leaves alone are x's own arrays, which f must not write to); it returns
    an array with those leading axes, whose differences are paired with the
    dual basis.  Every component has shape S + (f's value axes after the
    batch axes) + (n, n), so one sweep differentiates many functions at the
    same stencil points.  The differences d, of shape (dim,) + rest, meet
    the dual basis in one matrix product: the BLAS call of
    np.tensordot(d, dual, axes=(0, 0)), without its Python-level set-up.
    Member b's gradient equals that of the point on its own, bit for bit.
    Each component gets + 0.0 in place, so no zero is -0.0 (the dual-basis
    product may sign one by the number of functions); a function's part of
    a sweep then measures equal to fd_grad of it alone (768 components, one
    BLAS), as CI's run of each registry row alone from cleared memos checks."""
    kind, blocks = _CHART_TABLE[_chart_of(x)]
    S, n = batch_shape(x), x.n
    h = np.full(S, fd_step(x, scale))
    t = np.array((h, -h)).reshape((2, 1) + S + (1, 1))
    grow = (slice(None),) + (None,) * len(S)   # the axes S after the basis axis
    out = []
    for k, block in enumerate(blocks):
        B, dual = algebra.dual_basis(block.space, n)
        D = [None] * len(blocks)
        D[k] = (t * B[grow]).reshape((-1,) + S + (n, n))
        batch, m = D[k].shape[:-2], len(B)
        v = np.asarray(f(move(x, kind(*D))))
        if v.shape[:len(batch)] != batch:
            raise ValueError(f"f must map points of batch shape {batch} to an array "
                             f"with those leading axes; got shape {v.shape}")
        d = v[:m] - v[m:]
        d /= 2.0 * h.reshape(S + (1,) * (d.ndim - len(batch)))
        c = np.dot(d.reshape(m, -1).T, dual.reshape(m, -1)).reshape(d.shape[1:] + (n, n))
        out.append(np.add(c, 0.0, out=c))
    return kind(*out)


def _values(values, y) -> np.ndarray:
    """Values of the value callables of one chart at the batch y, each
    broadcast to batch_shape(y) and stacked along a last axis: np.stack's
    C-ordered result from one np.concatenate, without its Python-level
    set-up (stacked in front and moved last, fd_grad's differences would not
    reshape as a view).  The _Trace values among them share one call of the
    chart's (U, L) map, and each reads its own trace there; the others are
    called on y."""
    UL, out, S = None, [], batch_shape(y)
    for v in values:
        if isinstance(v, _Trace):
            UL = UL or _UL_MAPS[v.chart](y)
            out.append(np.broadcast_to(v.at(*UL), S))
        else:
            out.append(np.broadcast_to(v(y), S))
    return np.concatenate([a[..., None] for a in out], -1)


class _Memo(dict):
    """Map that counts its hits and empties itself, hit count kept, when it
    holds `size` entries and another is stored."""

    def __init__(self, size: int):
        super().__init__()
        self.size, self.hits = size, 0

    def lookup(self, key):
        value = self.get(key)
        if value is not None:
            self.hits += 1
        return value

    def store(self, key, value) -> None:
        if len(self) >= self.size:
            super().clear()
        self[key] = value

    def clear(self) -> None:
        super().clear()
        self.hits = 0


def grads(Fs, x) -> list:
    """Gradient tuples of the observables Fs of one chart at x, a point of
    that chart (else ValueError naming the charts): an analytic F.grad
    broadcast to batch_shape(x), every other distinct value's (hashable,
    else ValueError) from the memo or else from one fd_grad sweep at
    FD_STEP_SCALE (read now) over all the missing values; each equals
    fd_grad of F.value alone.

    _GRADS maps a value and the key of x to the read-only gradient tuple of
    a finished sweep; a sweep that raises stores nothing.  The key, formed
    once per call, is x's type, FD_STEP_SCALE and the dtype, shape and bytes
    of each field: equal content in any memory layout gives x's key, and a
    changed bit, dtype or batch shape another.  A field of object dtype
    raises ValueError naming it before any lookup (_numeric_arrays).  A hit
    does no arithmetic: the steps are formed on a miss only.  The memo
    empties itself when a store would take it past _MEMO_SIZE entries, and
    it does not see a patched chart map: code that swaps one calls
    clear_memos() first."""
    charts = {F.chart for F in Fs}
    if charts - {_CHARTS_BY_TYPE.get(type(x))}:
        raise ValueError(f"grads takes observables of one chart at a point of it; "
                         f"got charts {sorted(charts)} at a {type(x).__name__}")
    try:
        values = list(dict.fromkeys(F.value for F in Fs if F.grad is None))
    except TypeError as e:
        raise ValueError(f"an observable without grad needs a hashable value: {e}") from None
    arrays = (_numeric_arrays if values else _arrays)(x)
    S = np.broadcast_shapes(*(s for _, _, s in arrays))
    got = {}
    if values:
        key = (type(x), FD_STEP_SCALE) + tuple((a.dtype.str, a.shape, a.tobytes())
                                                for _, a, _ in arrays)
        got = {v: _GRADS.lookup((v, key)) for v in values}
        missing = [v for v in values if got[v] is None]
        if missing:
            D = fd_grad(partial(_values, missing), x, FD_STEP_SCALE)
            for c in D:   # the values' views below inherit the flag
                c.setflags(write=False)
            for i, v in enumerate(missing):
                got[v] = type(D)(*(c[..., i, :, :] for c in D))
                _GRADS.store((v, key), got[v])
    return [got[F.value] if F.grad is None else _CHART_TABLE[F.chart][0](
        *(np.broadcast_to(c, S + c.shape[-2:]) for c in F.grad(x))) for F in Fs]


def grad(F: Observable, x):
    """Gradient tuple of F at x on F's chart, grads((F,), x)[0]; each
    grad_<chart> states its defining identity."""
    return grads((F,), x)[0]


_GRADS = _Memo(_MEMO_SIZE)


def clear_memos() -> None:
    """Empty the memos of sample points, their stacks and gradients (_draw,
    _stack, _GRADS): the precondition of code that swaps a chart map,
    sampler or trace form.  These are the only memos.  Every other cache is
    a pure table keyed by everything its value depends on (algebra.basis,
    dual_basis and off_diagonal, _layout, checks._family and the positive
    definite L stacks of checks._pd_red_points), which no swap can stale."""
    _GRADS.clear()
    _draw.cache_clear()
    _stack.cache_clear()


def _check_chart(F: Observable, chart: str) -> None:
    if F.chart != chart:
        raise ValueError(f"observable is not on the {chart!r} chart")


def grad_full(F: Observable, x: FullPoint) -> FullGrad:
    """Derivatives (D1 F, D1' F, d2 F) defined by
    d/dt|0 F(e^{tX} g e^{tX'}, L + tY) = <D1F,X> + <D1'F,X'> + <d2F,Y>."""
    _check_chart(F, "full")
    return grad(F, x)


def grad_red(f: Observable, x: RedPoint) -> RedGrad:
    """Derivatives (D1 f, d2 f) defined by
    d/dt|0 f(e^{tX} Q, L + tY) = <D1f,X> + <d2f,Y>, X in u(n)_0."""
    _check_chart(f, "red")
    return grad(f, x)


def grad_rs(F: Observable, x: RSPoint) -> RSGrad:
    """Derivatives (DQ, dp, Dlam, Dlam') defined by
    d/dt|0 F(e^{tX0} Q, p + tY0, e^{tX+} lam e^{tY+})
      = <DQ,X0> + <dp,Y0> + <Dlam,X+> + <Dlam',Y+>."""
    _check_chart(F, "rs")
    return grad(F, x)


def grad_suth(F: Observable, x: SuthPoint) -> SuthGrad:
    """Derivatives (DQ, dp, dphi) defined by
    d/dt|0 F(e^{tX} Q, p + tY0, phi + tYperp)
      = <DQ,X> + <dp,Y0> + <dphi,Yperp>."""
    _check_chart(F, "suth")
    return grad(F, x)


# ---------------------------------------------------------------------------
# invariant observable family


def _reduced_ul(y: RedPoint):
    return y.Q.matrix(), y.L


def _coords():
    from . import coords  # coords imports this module
    return coords


# Per chart: the map of a point (or a batch) to the (U, L) at which the
# invariant family reads tr(U^m L^k); (g, L) on the full chart, (Q, L) on
# the others, through the coordinate map to the reduced chart.
_UL_MAPS = {
    "full": lambda x: (x.g, x.L),
    "red": _reduced_ul,
    "rs": lambda x: _reduced_ul(_coords().from_rs(x)),
    "suth": lambda x: _reduced_ul(_coords().from_suth(x)),
}


@dataclass(frozen=True)
class _Trace:
    """Value Re/Im tr(U^m L^k) of an invariant observable on `chart`:
    `at(U, L)` reads it at the (U, L) of the chart's map as
    algebra.trace_product(U^m, L^k); called on x, of batch_shape(x)."""
    chart: str
    m: int
    k: int
    part: str

    def __call__(self, x):
        return np.broadcast_to(self.at(*_UL_MAPS[self.chart](x)), batch_shape(x))

    def at(self, U, L):
        t = algebra.trace_product(np.linalg.matrix_power(U, self.m),
                                  np.linalg.matrix_power(L, self.k))
        return t.real if self.part == "re" else t.imag


def invariant_observable(m: int, k: int, part: str = "re",
                         chart: str = "full") -> Observable:
    """Conjugation-invariant trace observable Re/Im tr(g^m L^k), together
    with its restriction to each chart through the coordinate maps.  Its
    value is a _Trace read at the chart's (U, L) map, so `_values` maps each
    stencil stack once for all such observables of one sweep.  m, k >= 0
    are integers, not both zero; the arguments are checked first.  Each
    call builds a new observable, a value: those of equal arguments compare
    and hash equal, so they share grads' memo entries."""
    m, k = _index(m, "m", 0), _index(k, "k", 0)
    if (m, k) == (0, 0):
        raise ValueError("need (m, k) != (0, 0)")
    if part not in ("re", "im"):
        raise ValueError(f"unknown part {part!r}")
    chart = _chart_name(chart)
    return Observable(chart, _Trace(chart, m, k, part), name=f"{part}-tr(g^{m} L^{k})[{chart}]")


def hamiltonian_observable(k: int, chart: str = "full") -> Observable:
    """Free Hamiltonian H_k = tr(L^k)/k, valued by algebra.power_traces as
    dynamics.hk, with its analytic gradient (d2 H_k = i L^{k-1}, all
    group-direction derivatives zero); k is an integer >= 1, checked first.
    Each call builds a new observable; its analytic gradient needs no memo."""
    k = _index(k, "k", 1)
    if chart not in ("full", "red"):
        raise ValueError("analytic Hamiltonians live on the full or reduced chart")
    zeros = len(_CHART_TABLE[chart][0]._fields) - 1   # the group directions

    def g(x):
        return (np.zeros_like(x.L),) * zeros + (1j * np.linalg.matrix_power(x.L, k - 1),)

    return Observable(chart, lambda x: algebra.power_traces(x.L, k)[..., -1], grad=g,
                      name=f"H_{k}[{chart}]")


# ---------------------------------------------------------------------------
# sampling


_CHART_CODE = {"full": 11, "red": 13, "rs": 17, "suth": 19}
_REDRAW_BUDGET = 1000


def _rng(chart: str, n: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([_CHART_CODE[chart], n, seed])


def _haar_unitary(rng, n):
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Qm, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Qm * (d / np.abs(d))


def _gaussian_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return algebra.make_hermitian(A)


# Sampled points keep a healthy margin above the chart-existence gap so that
# finite differences stay well conditioned near the R-operator poles.
_SAMPLING_GAP = 0.1


def _regular_torus(rng, n, seed):
    for _ in range(_REDRAW_BUDGET):
        q = rng.uniform(0.0, 2.0 * np.pi, size=n)
        try:
            Q = TorusReg(q)
        except algebra.RegularityError:
            continue
        if Q.min_gap() > _SAMPLING_GAP:
            return Q
    raise RuntimeError(f"regularity re-draw budget exceeded (seed {seed})")


def _read_only(x):
    """x with every coordinate array made read-only, so that a caller cannot
    edit a memoized point in place."""
    for _, a, _ in _arrays(x):
        a.setflags(write=False)
    return x


def sample_point(chart: str, n: int, seed: int):
    """Deterministic random point of a chart: Haar g, Gaussian Hermitian L,
    uniform regular torus phases, Gaussian strictly-upper lambda, Gaussian
    off-diagonal Hermitian phi.  The point is drawn once per (chart, n, seed)
    and shared: its arrays are read-only, so copy one before editing it.
    n >= 2 and seed >= 0 are integers (an error names the one that is not)."""
    return _draw(_chart_name(chart), _index(n, "n", 2), _index(seed, "seed", 0))


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _draw(chart: str, n: int, seed: int):
    rng = _rng(chart, n, seed)
    if chart == "full":
        return _read_only(FullPoint(_haar_unitary(rng, n), _gaussian_hermitian(rng, n)))
    Q = _regular_torus(rng, n, seed)
    if chart == "red":
        return _read_only(RedPoint(Q, _gaussian_hermitian(rng, n)))
    p = rng.standard_normal(n)
    if chart == "rs":
        lam = np.eye(n, dtype=complex)
        iu = np.triu_indices(n, 1)
        lam[iu] = rng.standard_normal(len(iu[0])) + 1j * rng.standard_normal(len(iu[0]))
        return _read_only(RSPoint(Q, p, lam))
    phi = _gaussian_hermitian(rng, n)
    return _read_only(SuthPoint(Q, p, phi - np.diag(np.diag(phi))))


def sample_points(chart: str, n: int, seeds):
    """The sample_point of each seed, stacked into one point of batch shape
    (len(seeds),): member i equals sample_point(chart, n, seeds[i]).  Drawn
    once per seed tuple and read-only, as sample_point; the arguments are
    checked as there before the memo, so a non-integer seed raises TypeError
    even for a tuple drawn before, no seed ValueError."""
    chart, n = _chart_name(chart), _index(n, "n", 2)
    seeds = tuple(_index(seed, "seed", 0) for seed in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    return _stack(chart, n, seeds)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _stack(chart: str, n: int, seeds: tuple):
    xs = [sample_point(chart, n, seed) for seed in seeds]
    cols = [[getattr(x, name) for x in xs] for name, _ in _layout(type(xs[0]))]
    return _read_only(type(xs[0])(*(TorusReg(np.stack([v.q for v in c]))
                                    if isinstance(c[0], TorusReg) else np.stack(c)
                                    for c in cols)))
