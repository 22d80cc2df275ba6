"""Chart point types, observables and the derivative engine.

Four charts are in play: the unreduced phase space U(n) x Herm(n) ("full"),
the reduced chart T^n_reg x Herm(n) ("red"), the Ruijsenaars chart
(Q, p, lambda) ("rs") and the Sutherland chart (Q, p, phi) ("suth").
Each chart has its own derivative signature, obtained by pairing directional
derivatives along a basis of displacement directions with the dual basis
under <X,Y> = Im tr(XY).

One central-difference engine, `fd_grad`, takes any callable, also an
array-valued one, and serves all four charts from a table; `grad` is its
front for observables.  A chart's row holds its gradient tuple type and one
block per component: the space of the directions (in algebra.basis order,
paired with its dual basis), the displacement along a direction X and how
it moves the point.  Group-valued displacements use exact one-parameter
subgroups: the u(n) exponential 1 + sin t X + (1 - cos t) X^2 (every u(n)
basis element has X^3 = -X) and the nilpotent 1 + tX for strictly upper X;
the other coordinates move on straight lines tX.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
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
        return self.g.shape[0]


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


def _arrays(x) -> list[np.ndarray]:
    """The coordinate arrays of a chart point in field order; a torus field
    contributes its phases."""
    return [v.q if isinstance(v, TorusReg) else v
            for v in (getattr(x, f.name) for f in fields(x))]


def point_norm(x) -> float:
    return float(np.sqrt(sum(np.linalg.norm(a) ** 2 for a in _arrays(x))))


# ---------------------------------------------------------------------------
# observables


@dataclass(frozen=True)
class Observable:
    """Real-valued function on one chart.

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


def product(F: Observable, H: Observable) -> Observable:
    if F.chart != H.chart:
        raise ValueError("observables live on different charts")
    return Observable(F.chart, lambda x: F(x) * H(x), name=f"{F.name}*{H.name}")


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


def _displacements(curve: str, space: str, n: int, t: float) -> np.ndarray:
    """Displacement at parameter t along every basis element X of `space`:
    the line tX, the u(n) exponential 1 + sin t X + (1 - cos t) X^2 (each
    u(n) basis element has X^3 = -X) or the nilpotent exponential 1 + tX."""
    B, _, B2 = _stacks(space, n)
    if curve == "line":
        return t * B
    if curve == "u_exp":
        return np.eye(n) + np.sin(t) * B + (1.0 - np.cos(t)) * B2
    return np.eye(n) + t * B


# Per chart: the gradient tuple type and one block per component.  A line
# in u(n)_0 shifts the torus phases by Im diag(tX); one in b(n)_0 or
# Herm(n)_0 shifts p by Re diag(tX).
_CHART_TABLE = {
    "full": (FullGrad, (
        _Block("u", "u_exp", lambda x, D: FullPoint(D @ x.g, x.L)),
        _Block("u", "u_exp", lambda x, D: FullPoint(x.g @ D, x.L)),
        _Block("herm", "line", lambda x, D: FullPoint(x.g, x.L + D)))),
    "red": (RedGrad, (
        _Block("u0", "line",
               lambda x, D: RedPoint(x.Q.shifted(D.diagonal().imag), x.L)),
        _Block("herm", "line", lambda x, D: RedPoint(x.Q, x.L + D)))),
    "rs": (RSGrad, (
        _Block("u0", "line",
               lambda x, D: RSPoint(x.Q.shifted(D.diagonal().imag), x.p, x.lam)),
        _Block("b0", "line",
               lambda x, D: RSPoint(x.Q, x.p + D.diagonal().real, x.lam)),
        _Block("bplus", "nil_exp", lambda x, D: RSPoint(x.Q, x.p, D @ x.lam)),
        _Block("bplus", "nil_exp", lambda x, D: RSPoint(x.Q, x.p, x.lam @ D)))),
    "suth": (SuthGrad, (
        _Block("u0", "line",
               lambda x, D: SuthPoint(x.Q.shifted(D.diagonal().imag), x.p, x.phi)),
        _Block("herm0", "line",
               lambda x, D: SuthPoint(x.Q, x.p + D.diagonal().real, x.phi)),
        _Block("hermperp", "line", lambda x, D: SuthPoint(x.Q, x.p, x.phi + D)))),
}


def fd_step(x, step: float | None = None) -> float:
    return step if step is not None else FD_STEP_SCALE * (1.0 + point_norm(x))


def fd_grad(f: Callable, chart: str, x, step: float | None = None):
    """Gradient tuple of f at x on `chart` by central differences: each
    block pairs the differences of f along its basis with the dual basis.
    f may return an array; its axes then lead every component, so one sweep
    differentiates many functions at the same stencil points."""
    kind, blocks = _CHART_TABLE[chart]
    h = fd_step(x, step)
    parts = []
    for space, curve, move in blocks:
        plus = _displacements(curve, space, x.n, h)
        minus = _displacements(curve, space, x.n, -h)
        d = np.array([(f(move(x, P)) - f(move(x, M))) / (2.0 * h)
                      for P, M in zip(plus, minus)])
        parts.append(np.tensordot(d, _stacks(space, x.n)[1], axes=(0, 0)))
    return kind(*parts)


def grad(F: Observable, x, step: float | None = None):
    """Gradient tuple of F at x on F's chart (each grad_<chart> states its
    defining identity): an analytic F.grad as is, otherwise fd_grad."""
    if F.grad is not None:
        return _CHART_TABLE[F.chart][0](*F.grad(x))
    return fd_grad(F, F.chart, x, step)


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


def invariant_observable(m: int, k: int, part: str = "re",
                         chart: str = "full") -> Observable:
    """Conjugation-invariant trace observable Re/Im tr(g^m L^k), together
    with its restriction to each chart through the coordinate maps."""
    if m < 0 or k < 0 or (m, k) == (0, 0):
        raise ValueError("need m, k >= 0 with (m, k) != (0, 0)")
    if part not in ("re", "im"):
        raise ValueError(f"unknown part {part!r}")
    take = np.real if part == "re" else np.imag

    def tr_val(U, L):
        return float(take(np.trace(np.linalg.matrix_power(U, m)
                                   @ np.linalg.matrix_power(L, k))))

    name = f"{part}-tr(g^{m} L^{k})[{chart}]"
    if chart == "full":
        return Observable("full", lambda x: tr_val(x.g, x.L), name=name)
    if chart == "red":
        return Observable("red", lambda x: tr_val(x.Q.matrix(), x.L), name=name)
    if chart == "rs":
        from . import coords

        def val_rs(x):
            y = coords.from_rs(x)
            return tr_val(y.Q.matrix(), y.L)
        return Observable("rs", val_rs, name=name)
    if chart == "suth":
        from . import coords

        def val_suth(x):
            y = coords.from_suth(x)
            return tr_val(y.Q.matrix(), y.L)
        return Observable("suth", val_suth, name=name)
    raise ValueError(f"unknown chart {chart!r}")


def hamiltonian_observable(k: int, chart: str = "full") -> Observable:
    """Free Hamiltonian H_k = tr(L^k)/k with its analytic gradient
    (d2 H_k = i L^{k-1}, all group-direction derivatives zero)."""
    if k < 1:
        raise ValueError("need k >= 1")

    def val(x):
        return float(np.real(np.trace(np.linalg.matrix_power(x.L, k)))) / k

    if chart == "full":
        def g(x):
            z = np.zeros_like(x.L)
            return FullGrad(z, z, 1j * np.linalg.matrix_power(x.L, k - 1))
        return Observable("full", val, grad=g, name=f"H_{k}[full]")
    if chart == "red":
        def g(x):
            return RedGrad(np.zeros_like(x.L), 1j * np.linalg.matrix_power(x.L, k - 1))
        return Observable("red", val, grad=g, name=f"H_{k}[red]")
    raise ValueError("analytic Hamiltonians live on the full or reduced chart")


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
