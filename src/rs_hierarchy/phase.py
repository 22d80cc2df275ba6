"""Chart point types, observables and the derivative engine.

Four charts are in play: the unreduced phase space U(n) x Herm(n) ("full"),
the reduced chart T^n_reg x Herm(n) ("red"), the Ruijsenaars chart
(Q, p, lambda) ("rs") and the Sutherland chart (Q, p, phi) ("suth").
Each chart has its own derivative signature, obtained by pairing directional
derivatives along a basis of displacement directions with the dual basis
under <X,Y> = Im tr(XY).

A chart point may be a batch of points: its fields carry the same leading
batch axes S, any number of them (a TorusReg holds phase vectors of shape
S + (n,)), and a field without them is shared by every member.  One point is
the batch with no axes, S = ().  Observables, the chart maps and the bracket
contractions evaluate a whole batch at once, one value per member.

One central-difference engine, `fd_grad`, serves all four charts from a
table; `grad` is its front for observables.  Its contract: f maps points of
batch shape S', every field carrying those axes, to an array with leading
axes S' (more axes for an array-valued f).  A chart's row holds its gradient
tuple type and one block per component: the space of the directions (in
algebra.basis order, paired with its dual basis), the displacement along a
direction X and how it moves the point.  For each block, fd_grad moves every
member of x by all 2*dim displacements at once, each member by its own step,
and calls f once on the moved points, of batch shape (2*dim,) + S; the
fields the block leaves alone reach f as read-only broadcast views.
`grads` sweeps several observables at once; the invariant observables among
them share one call of the chart map to (U, L) per stencil stack.
Group-valued displacements use exact one-parameter subgroups: the u(n)
exponential 1 + sin t X + (1 - cos t) X^2 (every u(n) basis element has
X^3 = -X) and the nilpotent 1 + tX for strictly upper X; the other
coordinates move on straight lines tX.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import algebra
from .algebra import TorusReg
from .config import FD_STEP_SCALE

CHARTS = ("full", "red", "rs", "suth")


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


# Axes of one point's field: the torus phases and p are vectors, the rest
# matrices.  A batch of points adds its batch axes S in front.
_VECTOR_FIELDS = ("Q", "p")


@lru_cache(maxsize=None)
def _layout(kind: type) -> tuple[tuple[str, int], ...]:
    """Per field of a point type: its name and the number of axes of one point."""
    return tuple((f.name, 1 if f.name in _VECTOR_FIELDS else 2) for f in fields(kind))


def _arrays(x) -> list[tuple[object, np.ndarray, tuple]]:
    """Per field of x in order: its value, its coordinate array and the batch
    axes that array carries (S, or () for a field shared by every member)."""
    out = []
    for name, ndim in _layout(type(x)):
        v = getattr(x, name)
        a = v.q if isinstance(v, TorusReg) else v
        out.append((v, a, a.shape[:a.ndim - ndim]))
    return out


def batch_shape(x) -> tuple:
    """Batch axes S of x, () for one point: the longest batch prefix of its
    fields, since each field carries all of S or none of it."""
    return max((s for _, _, s in _arrays(x)), key=len)


def _broadcast(x, S: tuple):
    """x with every field carrying the batch axes S: a field that carries
    them is kept as is, any other becomes a read-only broadcast view (no
    copy, and a TorusReg is not gated again)."""
    def carry(v, a, s):
        if s == S:
            return v
        if isinstance(v, TorusReg):
            return v.broadcast_to(S)
        return np.broadcast_to(a, S + a.shape[len(s):])
    return type(x)(*(carry(*part) for part in _arrays(x)))


def point_norm(x):
    """Norm of the coordinate arrays of x, one value per member (shape
    batch_shape(x); a shared field counts for every member).  A member's sum
    of squares is the dot product re.re + im.im that np.linalg.norm forms,
    so its norm is that of the point on its own, bit for bit."""
    total = 0.0
    for _, a, s in _arrays(x):
        r = a.reshape(s + (1, -1))
        sq = (r.real @ r.real.swapaxes(-1, -2))[..., 0, 0]
        if np.iscomplexobj(r):
            sq = sq + (r.imag @ r.imag.swapaxes(-1, -2))[..., 0, 0]
        total = total + np.sqrt(sq) ** 2
    return np.sqrt(total)


# ---------------------------------------------------------------------------
# observables


@dataclass(frozen=True)
class Observable:
    """Real-valued function on one chart.

    `value` maps points of batch shape S to an array of shape S (one point
    to one value); calling the observable on one point returns a float.
    `grad`, when present, returns the chart's full derivative tuple (same
    shape as the corresponding grad_* result) and is preferred over finite
    differences.
    """
    chart: str
    value: Callable
    grad: Callable | None = None
    name: str = ""

    def __post_init__(self):
        if self.chart not in CHARTS:
            raise ValueError(f"unknown chart {self.chart!r}")

    def __call__(self, x) -> float:
        return float(self.value(x))


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
    `space`, displaced along `curve` ("line", "u_exp" or "nil_exp") and
    applied to the point by move(point, displacement)."""
    space: str
    curve: str
    move: Callable


@lru_cache(maxsize=None)
def _stacks(space: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The basis of `space` (algebra.basis order), its dual basis and the
    squares of the basis elements, each stacked along axis 0."""
    B = np.stack(algebra.basis(space, n))
    return B, np.stack(algebra.dual_basis(space, n)[1]), B @ B


def _displacements(curve: str, space: str, n: int, t: np.ndarray) -> np.ndarray:
    """Displacements along every basis element X of `space` at each of the
    parameters t, an array of shape (m,) + S; of shape (m*dim,) + S + (n, n),
    all directions at t[0] first.  Along X: the line tX, the u(n)
    exponential 1 + sin t X + (1 - cos t) X^2 (each u(n) basis element has
    X^3 = -X) or the nilpotent exponential 1 + tX."""
    grow = (slice(None),) + (None,) * (t.ndim - 1)   # the axes S after the basis axis
    B, _, B2 = _stacks(space, n)
    B, B2 = B[grow], B2[grow]
    t = t.reshape(t.shape[:1] + (1,) + t.shape[1:] + (1, 1))
    if curve == "line":
        D = t * B
    elif curve == "u_exp":
        D = np.eye(n) + np.sin(t) * B + (1.0 - np.cos(t)) * B2
    else:
        D = np.eye(n) + t * B
    return D.reshape((-1,) + D.shape[2:])


def _diag(D: np.ndarray) -> np.ndarray:
    """Diagonal of each matrix of a stack."""
    return np.diagonal(D, axis1=-2, axis2=-1)


# Per chart: the gradient tuple type and one block per component; each move
# takes the displacements D, of shape (2*dim,) + S + (n, n) at a point of
# batch shape S, and returns the moved points.  A line in u(n)_0 shifts the
# torus phases by Im diag(tX); one in b(n)_0 or Herm(n)_0 shifts p by
# Re diag(tX).
_CHART_TABLE = {
    "full": (FullGrad, (
        _Block("u", "u_exp", lambda x, D: FullPoint(D @ x.g, x.L)),
        _Block("u", "u_exp", lambda x, D: FullPoint(x.g @ D, x.L)),
        _Block("herm", "line", lambda x, D: FullPoint(x.g, x.L + D)))),
    "red": (RedGrad, (
        _Block("u0", "line",
               lambda x, D: RedPoint(x.Q.shifted(_diag(D).imag), x.L)),
        _Block("herm", "line", lambda x, D: RedPoint(x.Q, x.L + D)))),
    "rs": (RSGrad, (
        _Block("u0", "line",
               lambda x, D: RSPoint(x.Q.shifted(_diag(D).imag), x.p, x.lam)),
        _Block("b0", "line",
               lambda x, D: RSPoint(x.Q, x.p + _diag(D).real, x.lam)),
        _Block("bplus", "nil_exp", lambda x, D: RSPoint(x.Q, x.p, D @ x.lam)),
        _Block("bplus", "nil_exp", lambda x, D: RSPoint(x.Q, x.p, x.lam @ D)))),
    "suth": (SuthGrad, (
        _Block("u0", "line",
               lambda x, D: SuthPoint(x.Q.shifted(_diag(D).imag), x.p, x.phi)),
        _Block("herm0", "line",
               lambda x, D: SuthPoint(x.Q, x.p + _diag(D).real, x.phi)),
        _Block("hermperp", "line", lambda x, D: SuthPoint(x.Q, x.p, x.phi + D)))),
}


def fd_step(x, step: float | None = None):
    """Central-difference step FD_STEP_SCALE*(1 + |x|), or `step` when given;
    one per member of a batch."""
    return step if step is not None else FD_STEP_SCALE * (1.0 + point_norm(x))


def fd_grad(f: Callable, chart: str, x, step: float | None = None):
    """Gradient tuple of f at x on `chart` by central differences.

    x is a point of batch shape S (S = () for one point); each member gets
    its own step, the default one or `step` for all.  Per block, the
    displacements (all + steps, then all - steps) have shape
    (2*dim,) + S + (n, n), and f is called once on x moved by them, every
    field carrying those batch axes.  f returns an array with those leading
    axes; the differences are paired with the dual basis.  Every component
    has shape S + (axes of f's values after the batch axes) + (n, n), so one
    sweep differentiates many functions at the same stencil points.  Member
    b's gradient equals that of the point on its own, bit for bit."""
    kind, blocks = _CHART_TABLE[chart]
    S = batch_shape(x)
    h = np.full(S, fd_step(x, step))
    t = np.array((h, -h))
    out = []
    for space, curve, move in blocks:
        D = _displacements(curve, space, x.n, t)
        batch = D.shape[:-2]
        v = np.asarray(f(_broadcast(move(x, D), batch)))
        if v.shape[:len(batch)] != batch:
            raise ValueError(f"f must map points of batch shape {batch} to an array "
                             f"with those leading axes; got shape {v.shape}")
        k = len(D) // 2
        d = v[:k] - v[k:]
        d /= 2.0 * h.reshape(S + (1,) * (d.ndim - len(batch)))
        out.append(np.tensordot(d, _stacks(space, x.n)[1], axes=(0, 0)))
    return kind(*out)


def grad(F: Observable, x, step: float | None = None):
    """Gradient tuple of F at x on F's chart (each grad_<chart> states its
    defining identity): an analytic F.grad as is, otherwise fd_grad."""
    if F.grad is not None:
        return _CHART_TABLE[F.chart][0](*F.grad(x))
    return fd_grad(F.value, F.chart, x, step)


def _values(Fs, y) -> np.ndarray:
    """Values of the observables Fs of one chart at the batch y, stacked
    along a last axis.  The invariant observables among them share one call
    of the chart's (U, L) map and one trace per (m, k); the others call
    `value`."""
    UL, traces, out = None, {}, []
    for F in Fs:
        if isinstance(F.value, _Trace):
            if UL is None:
                UL = _UL_MAPS[F.chart](y)
            out.append(F.value.at(*UL, traces))
        else:
            out.append(F.value(y))
    return np.stack(out, -1)


def grads(Fs, x, step: float | None = None) -> list:
    """Gradient tuples of the observables Fs of one chart at x: an analytic
    F.grad as is, the others from one fd_grad sweep over all their values,
    each equal to its own grad(F, x, step) bit for bit.  Per stencil stack
    the invariant observables share one chart map."""
    fd = [F for F in Fs if F.grad is None]
    if fd:
        D = fd_grad(partial(_values, fd), fd[0].chart, x, step)
        swept = iter([type(D)(*(c[..., i, :, :] for c in D)) for i in range(len(fd))])
    return [grad(F, x, step) if F.grad is not None else next(swept) for F in Fs]


def _check_chart(F: Observable, chart: str) -> None:
    if F.chart != chart:
        raise ValueError(f"observable is not on the {chart!r} chart")


def grad_full(F: Observable, x: FullPoint, step: float | None = None) -> FullGrad:
    """Derivatives (D1 F, D1' F, d2 F) defined by
    d/dt|0 F(e^{tX} g e^{tX'}, L + tY) = <D1F,X> + <D1'F,X'> + <d2F,Y>."""
    _check_chart(F, "full")
    return grad(F, x, step)


def grad_red(f: Observable, x: RedPoint, step: float | None = None) -> RedGrad:
    """Derivatives (D1 f, d2 f) defined by
    d/dt|0 f(e^{tX} Q, L + tY) = <D1f,X> + <d2f,Y>, X in u(n)_0."""
    _check_chart(f, "red")
    return grad(f, x, step)


def grad_rs(F: Observable, x: RSPoint, step: float | None = None) -> RSGrad:
    """Derivatives (DQ, dp, Dlam, Dlam') defined by
    d/dt|0 F(e^{tX0} Q, p + tY0, e^{tX+} lam e^{tY+})
      = <DQ,X0> + <dp,Y0> + <Dlam,X+> + <Dlam',Y+>."""
    _check_chart(F, "rs")
    return grad(F, x, step)


def grad_suth(F: Observable, x: SuthPoint, step: float | None = None) -> SuthGrad:
    """Derivatives (DQ, dp, dphi) defined by
    d/dt|0 F(e^{tX} Q, p + tY0, phi + tYperp)
      = <DQ,X> + <dp,Y0> + <dphi,Yperp>."""
    _check_chart(F, "suth")
    return grad(F, x, step)


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
    `at(U, L, traces)` reads it at the (U, L) of the chart's map, keeping
    each complex trace in `traces` by (m, k); calling it on x maps x first."""
    chart: str
    m: int
    k: int
    part: str

    def __call__(self, x):
        return self.at(*_UL_MAPS[self.chart](x), {})

    def at(self, U, L, traces):
        m, k = self.m, self.k
        if (m, k) not in traces:
            # a zeroth power is the identity, so its product is left out
            P = (np.linalg.matrix_power(U, m) @ np.linalg.matrix_power(L, k) if m and k
                 else np.linalg.matrix_power(U if m else L, m or k))
            traces[m, k] = np.trace(P, axis1=-2, axis2=-1)
        return (np.real if self.part == "re" else np.imag)(traces[m, k])


def invariant_observable(m: int, k: int, part: str = "re",
                         chart: str = "full") -> Observable:
    """Conjugation-invariant trace observable Re/Im tr(g^m L^k), together
    with its restriction to each chart through the coordinate maps.  Its
    value is a _Trace read at the chart's (U, L) map, so `grads` maps each
    stencil stack once for all such observables of one sweep."""
    if m < 0 or k < 0 or (m, k) == (0, 0):
        raise ValueError("need m, k >= 0 with (m, k) != (0, 0)")
    if part not in ("re", "im"):
        raise ValueError(f"unknown part {part!r}")
    return Observable(chart, _Trace(chart, m, k, part),
                      name=f"{part}-tr(g^{m} L^{k})[{chart}]")


def hamiltonian_observable(k: int, chart: str = "full") -> Observable:
    """Free Hamiltonian H_k = tr(L^k)/k with its analytic gradient
    (d2 H_k = i L^{k-1}, all group-direction derivatives zero)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if chart not in ("full", "red"):
        raise ValueError("analytic Hamiltonians live on the full or reduced chart")
    zeros = len(_CHART_TABLE[chart][0]._fields) - 1   # the group directions

    def val(x):
        return np.real(np.trace(np.linalg.matrix_power(x.L, k), axis1=-2, axis2=-1)) / k

    def g(x):
        return (np.zeros_like(x.L),) * zeros + (1j * np.linalg.matrix_power(x.L, k - 1),)

    return Observable(chart, val, grad=g, name=f"H_{k}[{chart}]")


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


def sample_point(chart: str, n: int, seed: int):
    """Deterministic random point of a chart: Haar g, Gaussian Hermitian L,
    uniform regular torus phases, Gaussian strictly-upper lambda, Gaussian
    off-diagonal Hermitian phi."""
    if chart not in CHARTS:
        raise ValueError(f"unknown chart {chart!r}")
    if n < 2 or seed < 0:
        raise ValueError(f"need n >= 2 and seed >= 0, got n={n}, seed={seed}")
    rng = _rng(chart, n, seed)
    if chart == "full":
        return FullPoint(_haar_unitary(rng, n), _gaussian_hermitian(rng, n))
    if chart == "red":
        Q = _regular_torus(rng, n, seed)
        return RedPoint(Q, _gaussian_hermitian(rng, n))
    if chart == "rs":
        Q = _regular_torus(rng, n, seed)
        p = rng.standard_normal(n)
        lam = np.eye(n, dtype=complex)
        iu = np.triu_indices(n, 1)
        lam[iu] = rng.standard_normal(len(iu[0])) + 1j * rng.standard_normal(len(iu[0]))
        return RSPoint(Q, p, lam)
    Q = _regular_torus(rng, n, seed)
    p = rng.standard_normal(n)
    phi = _gaussian_hermitian(rng, n)
    phi = phi - np.diag(np.diag(phi))
    return SuthPoint(Q, p, phi)
