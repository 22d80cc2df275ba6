import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from rs_hierarchy import algebra, coords, phase
from rs_hierarchy.algebra import TorusReg
from rs_hierarchy.phase import (FullPoint, Observable, RedPoint, RSPoint,
                                SuthPoint, fd_step, grad_full, grad_red,
                                grad_rs, grad_suth, hamiltonian_observable,
                                invariant_observable, point_norm, sample_point)

FD_TOL = 5e-6


def _rand_herm(rng, n):
    return algebra.make_hermitian(rng.standard_normal((n, n))
                                  + 1j * rng.standard_normal((n, n)))


def _rand_antiherm(rng, n):
    return algebra.split_ub(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))[0]


def _scale(F, x, g):
    return 1.0 + abs(F(x)) + sum(np.linalg.norm(c) for c in g)


# ---------------------------------------------------------------------------
# sampling


def test_sample_determinism():
    for chart in ("full", "red", "rs", "suth"):
        a = sample_point(chart, 3, 5)
        b = sample_point(chart, 3, 5)
        assert type(a) is type(b)
        for (_, u, _), (_, v, _) in zip(phase._arrays(a), phase._arrays(b), strict=True):
            assert np.array_equal(u, v)


def test_sampled_full_point_is_unitary():
    x = sample_point("full", 4, 0)
    assert np.linalg.norm(x.g.conj().T @ x.g - np.eye(4)) <= 1e-12 * 4
    assert np.allclose(x.L, x.L.conj().T)


def test_sampled_torus_is_regular():
    for seed in range(5):
        x = sample_point("red", 5, seed)
        assert x.Q.min_gap() > 1e-6


def test_sampled_rs_and_suth_shapes():
    x = sample_point("rs", 3, 1)
    assert np.allclose(np.diag(x.lam), 1.0)
    assert np.allclose(np.tril(x.lam, -1), 0)
    s = sample_point("suth", 3, 1)
    assert np.allclose(np.diag(s.phi), 0)
    assert np.allclose(s.phi, s.phi.conj().T)


def test_sample_rejects_small_n():
    with pytest.raises(ValueError):
        sample_point("full", 1, 0)


def test_sample_rejects_unknown_chart():
    with pytest.raises(ValueError, match="unknown chart"):
        sample_point("bogus", 2, 0)


# ---------------------------------------------------------------------------
# full-chart derivatives


def test_grad_full_hamiltonian_analytic():
    x = sample_point("full", 3, 0)
    for k in (1, 2, 3):
        g = grad_full(hamiltonian_observable(k), x)
        assert np.allclose(g.D1, 0) and np.allclose(g.D1p, 0)
        assert np.allclose(g.d2, 1j * np.linalg.matrix_power(x.L, k - 1))


def test_grad_full_constant_function():
    x = sample_point("full", 3, 1)
    g = grad_full(Observable("full", lambda p: np.full(phase.batch_shape(p), 4.2)), x)
    assert np.allclose(g.D1, 0, atol=1e-9)
    assert np.allclose(g.D1p, 0, atol=1e-9)
    assert np.allclose(g.d2, 0, atol=1e-9)


def test_grad_full_defining_identity_random_directions():
    rng = np.random.default_rng(11)
    x = sample_point("full", 3, 2)
    F = Observable("full", lambda p: np.real(np.trace(p.g @ p.L, axis1=-2, axis2=-1)))
    g = grad_full(F, x)
    h = fd_step(x)
    for _ in range(20):
        X = _rand_antiherm(rng, 3)
        Xp = _rand_antiherm(rng, 3)
        Y = _rand_herm(rng, 3)

        def curve(t):
            return F(FullPoint(scipy.linalg.expm(t * X) @ x.g @ scipy.linalg.expm(t * Xp),
                               x.L + t * Y))
        fd = (curve(h) - curve(-h)) / (2 * h)
        pred = (algebra.pairing(g.D1, X) + algebra.pairing(g.D1p, Xp)
                + algebra.pairing(g.d2, Y))
        assert abs(fd - pred) <= FD_TOL * _scale(F, x, g)


def test_grad_full_analytic_matches_fd():
    x = sample_point("full", 3, 3)
    Hk = hamiltonian_observable(3)
    Hk_fd = Observable("full", Hk.value)
    ga = grad_full(Hk, x)
    gf = grad_full(Hk_fd, x)
    for a, b in zip(ga, gf):
        assert np.linalg.norm(a - b) <= FD_TOL * _scale(Hk, x, ga)


def test_grad_linearity():
    x = sample_point("full", 3, 4)
    F = invariant_observable(1, 1, "re", chart="full")
    H = invariant_observable(0, 2, "re", chart="full")
    comb = Observable("full", lambda p: 2.0 * F.value(p) - 0.5 * H.value(p))
    gc = grad_full(comb, x)
    gF = grad_full(F, x)
    gH = grad_full(H, x)
    for c, a, b in zip(gc, gF, gH):
        assert np.linalg.norm(c - (2.0 * a - 0.5 * b)) <= FD_TOL * _scale(comb, x, gc)


def test_grad_evaluation_counts():
    # two evaluated points per direction; a block has n^2 directions in u(n)
    # or Herm(n), n on the torus or in p, and n(n-1) in b_+ or Herm(n)_perp.
    # Each block is one call on the stack of its points.
    counts = {"full": (54, 3), "red": (24, 2), "rs": (36, 4), "suth": (24, 3)}
    for chart, (want, blocks) in counts.items():
        F = invariant_observable(1, 1, "re", chart=chart)
        points = []
        counted = Observable(chart, lambda p, F=F, points=points:
                             points.append(math.prod(phase.batch_shape(p))) or F.value(p))
        getattr(phase, f"grad_{chart}")(counted, sample_point(chart, 3, 0))
        assert sum(points) == want, chart
        assert len(points) == blocks, chart


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_fd_grad_of_array_valued_callable(chart):
    # one sweep over y -> [F(y), H(y)] gives exactly grad(F) and grad(H)
    F = invariant_observable(1, 1, "re", chart=chart)
    H = invariant_observable(2, 1, "im", chart=chart)
    x = sample_point(chart, 3, 1)
    both = phase.fd_grad(lambda y: np.stack([F.value(y), H.value(y)], -1), chart, x)
    assert type(both) is type(phase.grad(F, x))
    for i, A in enumerate((F, H)):
        for c, a in zip(both, phase.grad(A, x), strict=True):
            assert np.array_equal(c[i], a)


def _per_point_fd_grad(F, chart, x):
    """The central-difference loop one displaced point at a time: the oracle
    for the batched sweep of phase.fd_grad."""
    kind, blocks = phase._CHART_TABLE[chart]
    h = fd_step(x)
    parts = []
    for space, curve, move in blocks:
        plus, minus = np.split(phase._displacements(curve, space, x.n, np.array([h, -h])), 2)
        d = np.array([(F(move(x, P)) - F(move(x, M))) / (2.0 * h)
                      for P, M in zip(plus, minus, strict=True)])
        parts.append(np.tensordot(d, phase._stacks(space, x.n)[1], axes=(0, 0)))
    return kind(*parts)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("chart", phase.CHARTS)
def test_fd_grad_equals_per_point_loop(chart, n):
    # one call of the observable per block on the stack of its displaced
    # points gives the per-point loop's gradient bit for bit
    x = sample_point(chart, n, 1)
    for params in ((1, 1, "re"), (2, 1, "im"), (0, 2, "re")):
        F = invariant_observable(*params, chart=chart)
        assert type(F(x)) is float
        for a, b in zip(phase.grad(F, x), _per_point_fd_grad(F, chart, x), strict=True):
            assert np.array_equal(a, b), (params, np.max(np.abs(a - b)))


def _stack(points):
    """One chart point holding `points` along the batch axis."""
    def values(p):
        return [getattr(p, f.name) for f in dataclasses.fields(p)]
    return type(points[0])(*(
        TorusReg(np.stack([v.q for v in vs])) if isinstance(vs[0], TorusReg)
        else np.stack(vs) for vs in zip(*map(values, points))))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("chart", phase.CHARTS)
def test_fd_grad_on_a_stack_equals_per_member(chart, n):
    # each member of a stack gets its own step, and its gradient is the one
    # of the point on its own, bit for bit
    points = [sample_point(chart, n, seed) for seed in range(4)]
    steps = [fd_step(p) for p in points]
    assert len(set(steps)) == len(points)
    ys = _stack(points)
    assert np.array_equal(fd_step(ys), steps)
    for params in ((1, 1, "re"), (2, 1, "im")):
        F = invariant_observable(*params, chart=chart)
        for step in (None, 1e-4):
            got = phase.grad(F, ys, step)
            for b, p in enumerate(points):
                for a, c in zip(got, phase.grad(F, p, step), strict=True):
                    assert np.array_equal(a[b], c), (params, step, b)


def test_fd_grad_on_a_stack_with_a_shared_field():
    # a field without the batch axes is shared by every member and counts
    # in each member's step
    gs = [sample_point("full", 3, seed).g for seed in range(3)]
    L = sample_point("full", 3, 5).L
    F = invariant_observable(2, 1, "re", chart="full")
    got = phase.grad(F, FullPoint(np.stack(gs), L))
    for b, g in enumerate(gs):
        for a, c in zip(got, phase.grad(F, FullPoint(g, L)), strict=True):
            assert np.array_equal(a[b], c)
    # the same on batch axes (2, 3)
    gs = [sample_point("full", 3, seed).g for seed in range(6)]
    got = phase.grad(F, FullPoint(np.stack(gs).reshape(2, 3, 3, 3), L))
    for b, g in enumerate(gs):
        for a, c in zip(got, phase.grad(F, FullPoint(g, L)), strict=True):
            assert np.array_equal(a[divmod(b, 3)], c)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("chart", phase.CHARTS)
def test_fd_grad_on_a_rank_2_batch_equals_per_member(chart, n):
    # a point with batch axes (2, 3): each member gets its own step, and its
    # gradient is the one of the point on its own, bit for bit
    points = [sample_point(chart, n, seed) for seed in range(6)]
    x = _stack([_stack(points[:3]), _stack(points[3:])])
    assert phase.batch_shape(x) == (2, 3)
    assert phase.fd_step(x).shape == (2, 3)
    for params in ((1, 1, "re"), (2, 1, "im")):
        F = invariant_observable(*params, chart=chart)
        got = phase.grad(F, x)
        for b, p in enumerate(points):
            for a, c in zip(got, phase.grad(F, p), strict=True):
                assert a.shape == (2, 3) + c.shape
                assert np.array_equal(a[divmod(b, 3)], c), (params, b)


# Per chart, the field each block of the chart table moves.
_MOVED = {"full": ("g", "g", "L"), "red": ("Q", "L"),
          "rs": ("Q", "p", "lam", "lam"), "suth": ("Q", "p", "phi")}


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_fd_grad_hands_unmoved_fields_as_broadcast_views(chart):
    # per block, the moved field is a new array; every other field reaches f
    # as a read-only view with stride 0 along the stencil axis and along the
    # batch axes that x's field does not carry, not as a copy
    def f(y):
        seen.append([a for _, a, _ in phase._arrays(y)])
        return np.zeros(phase.batch_shape(y))

    xs = [sample_point(chart, 3, 0), _stack([sample_point(chart, 3, s) for s in range(3)])]
    if chart == "full":   # L shared by a stack of three g
        xs.append(FullPoint(xs[1].g, sample_point("full", 3, 3).L))
    for x in xs:
        S, seen = phase.batch_shape(x), []
        phase.fd_grad(f, chart, x)
        names = [field.name for field in dataclasses.fields(x)]
        for moved, arrays in zip(_MOVED[chart], seen, strict=True):
            for name, a, (_, _, s) in zip(names, arrays, phase._arrays(x), strict=True):
                if name == moved:
                    assert a.flags.writeable, name
                else:
                    assert not a.flags.writeable, name
                    assert not any(a.strides[:1 + len(S) - len(s)]), (name, a.strides)


@pytest.mark.parametrize("chart", ["full", "red", "suth"])
def test_grads_equal_grad_per_observable(chart):
    # one sweep over the FD observables, the analytic gradient as is; at one
    # point and on a stack, each equal to its own grad bit for bit
    Fs = [invariant_observable(1, 1, "re", chart=chart),
          invariant_observable(0, 2, "re", chart=chart),
          invariant_observable(1, 0, "im", chart=chart)]
    if chart != "suth":
        Fs.insert(1, hamiltonian_observable(2, chart=chart))
    for x in (sample_point(chart, 3, 0), _stack([sample_point(chart, 3, s) for s in range(3)])):
        for step in (None, 1e-4):
            got = phase.grads(Fs, x, step)
            assert len(got) == len(Fs)
            for g, F in zip(got, Fs):
                want = phase.grad(F, x, step)
                assert type(g) is type(want)
                for a, c in zip(g, want, strict=True):
                    assert np.array_equal(a, c), F.name


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("chart", phase.CHARTS)
def test_grads_with_a_shared_chart_map_equal_grad(chart, n):
    # the invariant observables read one chart map per stencil stack (G
    # shares F's trace); an observable with any other value, here a product
    # of two invariant ones and the point norm, calls its own value.  Each
    # gradient equals the observable's own grad bit for bit, at one point
    # and on a stack
    F = invariant_observable(1, 1, "re", chart=chart)
    G = invariant_observable(1, 1, "im", chart=chart)
    H = invariant_observable(1, 2, "re", chart=chart)
    K = invariant_observable(2, 1, "im", chart=chart)
    GH = Observable(chart, lambda y: G.value(y) * H.value(y), name="GH")
    Fs = [F, GH, Observable(chart, point_norm, name="norm"), G, H, K]
    for x in (sample_point(chart, n, 2), _stack([sample_point(chart, n, s) for s in (3, 4)])):
        got = phase.grads(Fs, x)
        for g, A in zip(got, Fs, strict=True):
            for a, c in zip(g, phase.grad(A, x), strict=True):
                assert np.array_equal(a, c), A.name


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_grads_maps_each_stencil_stack_once(chart, monkeypatch):
    # one call of the chart's (U, L) map per block covers every trace form of
    # the sweep, at all 2*dim stencil points of the block
    calls = []
    ul = phase._UL_MAPS[chart]
    monkeypatch.setitem(phase._UL_MAPS, chart,
                        lambda y: calls.append(math.prod(phase.batch_shape(y))) or ul(y))
    Fs = [invariant_observable(*p, chart=chart)
          for p in ((1, 1, "re"), (0, 2, "re"), (2, 1, "im"), (1, 1, "im"))]
    phase.grads(Fs, sample_point(chart, 3, 0))
    assert len(calls) == len(phase._CHART_TABLE[chart][1])
    assert sum(calls) == {"full": 54, "red": 24, "rs": 36, "suth": 24}[chart]


def test_fd_grad_rejects_a_value_without_the_batch_axis():
    # the error names the batch shape of the moved points: 4 stencil points
    # of the torus block at n = 2, times the batch axes of x
    x = sample_point("red", 2, 0)
    with pytest.raises(ValueError, match=r"batch shape \(4,\) .* got shape \(\)$"):
        phase.fd_grad(lambda p: 1.0, "red", x)
    ys = _stack([sample_point("red", 2, s) for s in range(3)])
    with pytest.raises(ValueError, match=r"batch shape \(4, 3\) .* got shape \(4,\)$"):
        phase.fd_grad(lambda p: np.zeros(4), "red", ys)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_group_displacements_are_exact(n):
    for curve, space in (("u_exp", "u"), ("nil_exp", "bplus")):
        for t in (0.3, -0.3):
            curves = phase._displacements(curve, space, n, np.array([t]))
            for X, E in zip(algebra.basis(space, n), curves, strict=True):
                assert np.max(np.abs(E - scipy.linalg.expm(t * X))) <= 1e-14


# ---------------------------------------------------------------------------
# reduced-chart derivatives


def test_grad_red_hamiltonian():
    x = sample_point("red", 3, 0)
    f = Observable("red", lambda p: np.real(np.trace(p.L @ p.L, axis1=-2, axis2=-1)) / 2.0)
    g = grad_red(f, x)
    assert np.linalg.norm(g.D1) <= 1e-8
    assert np.linalg.norm(g.d2 - 1j * x.L) <= FD_TOL * (1 + np.linalg.norm(x.L))


def test_grad_red_q_only_function():
    x = sample_point("red", 3, 1)
    f = Observable("red", lambda p: np.sum(np.cos(p.Q.q), axis=-1))
    g = grad_red(f, x)
    assert np.allclose(g.d2, 0, atol=1e-9)


def test_grad_red_defining_identity():
    rng = np.random.default_rng(13)
    x = sample_point("red", 3, 2)
    f = Observable("red", lambda p: np.real(np.trace(p.Q.matrix() @ p.L, axis1=-2, axis2=-1)))
    g = grad_red(f, x)
    h = fd_step(x)
    for _ in range(20):
        xi = rng.standard_normal(3)      # X = i diag(xi) in u(n)_0
        Y = _rand_herm(rng, 3)

        def curve(t):
            return f(RedPoint(x.Q.shifted(t * xi), x.L + t * Y))
        fd = (curve(h) - curve(-h)) / (2 * h)
        X = 1j * np.diag(xi).astype(complex)
        pred = algebra.pairing(g.D1, X) + algebra.pairing(g.d2, Y)
        assert abs(fd - pred) <= FD_TOL * _scale(f, x, g)


# ---------------------------------------------------------------------------
# rs-chart derivatives


def test_grad_rs_p_only_function():
    x = sample_point("rs", 3, 0)
    F = Observable("rs", lambda p: np.sum(np.exp(2 * p.p), axis=-1))
    g = grad_rs(F, x)
    assert np.allclose(g.DQ, 0, atol=1e-8)
    assert np.allclose(g.Dlam, 0, atol=1e-8)
    assert np.allclose(g.Dlamp, 0, atol=1e-8)
    # dp is the u(n)_0 dual of the diagonal gradient diag(2 e^{2 p_i})
    expected = 2j * np.diag(np.exp(2 * x.p)).astype(complex)
    assert np.linalg.norm(g.dp - expected) <= FD_TOL * _scale(F, x, g)


def test_grad_rs_left_right_agree_at_identity():
    Q = sample_point("rs", 2, 1).Q
    x = RSPoint(Q, np.zeros(2), np.eye(2, dtype=complex))
    F = Observable("rs", lambda p: np.real(p.lam[..., 0, 1]))
    g = grad_rs(F, x)
    assert np.linalg.norm(g.Dlam - g.Dlamp) <= 1e-8


def test_grad_rs_defining_identity():
    rng = np.random.default_rng(17)
    x = sample_point("rs", 3, 3)
    F = invariant_observable(1, 1, "re", chart="rs")
    g = grad_rs(F, x)
    h = fd_step(x)
    n = 3
    for _ in range(20):
        xi = rng.standard_normal(n)
        y0 = rng.standard_normal(n)
        Xp = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        Yp = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)

        def curve(t):
            lam = scipy.linalg.expm(t * Xp) @ x.lam @ scipy.linalg.expm(t * Yp)
            return F(RSPoint(x.Q.shifted(t * xi), x.p + t * y0, lam))
        fd = (curve(h) - curve(-h)) / (2 * h)
        X0 = 1j * np.diag(xi).astype(complex)
        Y0 = np.diag(y0).astype(complex)
        pred = (algebra.pairing(g.DQ, X0) + algebra.pairing(g.dp, Y0)
                + algebra.pairing(g.Dlam, Xp) + algebra.pairing(g.Dlamp, Yp))
        assert abs(fd - pred) <= FD_TOL * _scale(F, x, g)


# ---------------------------------------------------------------------------
# suth-chart derivatives


def test_grad_suth_phi_independent():
    x = sample_point("suth", 3, 0)
    F = Observable("suth", lambda p: np.sum(p.p ** 2, axis=-1) / 2.0)
    g = grad_suth(F, x)
    assert np.allclose(g.dphi, 0, atol=1e-9)
    assert np.linalg.norm(g.dp - 1j * np.diag(x.p).astype(complex)) <= FD_TOL * _scale(F, x, g)


def test_grad_suth_sutherland_hamiltonian_dp():
    from rs_hierarchy.dynamics import h_suth2
    x = sample_point("suth", 3, 1)
    F = Observable("suth", h_suth2)
    g = grad_suth(F, x)
    assert np.linalg.norm(g.dp - 1j * np.diag(x.p).astype(complex)) <= FD_TOL * _scale(F, x, g)


def test_grad_suth_defining_identity():
    rng = np.random.default_rng(19)
    x = sample_point("suth", 3, 2)
    F = invariant_observable(1, 2, "re", chart="suth")
    g = grad_suth(F, x)
    h = fd_step(x)
    n = 3
    for _ in range(20):
        xi = rng.standard_normal(n)
        y0 = rng.standard_normal(n)
        Yp = _rand_herm(rng, n)
        Yp = Yp - np.diag(np.diag(Yp))

        def curve(t):
            return F(SuthPoint(x.Q.shifted(t * xi), x.p + t * y0, x.phi + t * Yp))
        fd = (curve(h) - curve(-h)) / (2 * h)
        X0 = 1j * np.diag(xi).astype(complex)
        Y0 = np.diag(y0).astype(complex)
        pred = (algebra.pairing(g.DQ, X0) + algebra.pairing(g.dp, Y0)
                + algebra.pairing(g.dphi, Yp))
        assert abs(fd - pred) <= FD_TOL * _scale(F, x, g)


def test_grad_suth_quadratic_analytic_vs_fd():
    x = sample_point("suth", 3, 3)
    C = np.diag([1.0, -2.0, 0.5])

    def val(p):
        return np.sum(p.p ** 2, axis=-1) + np.real(np.trace(C @ p.phi @ p.phi, axis1=-2, axis2=-1))

    def analytic(p):
        DQ = np.zeros((3, 3), dtype=complex)
        dp = 2j * np.diag(p.p).astype(complex)
        grad_phi = C @ p.phi + p.phi @ C      # Herm gradient of tr(C phi^2)
        grad_phi = grad_phi - np.diag(np.diag(grad_phi))
        return phase.SuthGrad(DQ, dp, 1j * grad_phi)

    F = Observable("suth", val, grad=analytic)
    F_fd = Observable("suth", val)
    ga = grad_suth(F, x)
    gf = grad_suth(F_fd, x)
    for a, b in zip(ga, gf):
        assert np.linalg.norm(a - b) <= FD_TOL * _scale(F, x, ga)


# ---------------------------------------------------------------------------
# invariant observables


def test_invariant_observable_h2_relation():
    x = sample_point("full", 3, 0)
    F = invariant_observable(0, 2, "re", chart="full")
    assert F(x) == pytest.approx(2.0 * hamiltonian_observable(2)(x))


def test_invariant_observable_conjugation_invariance():
    x = sample_point("full", 4, 1)
    eta = sample_point("full", 4, 2).g
    y = FullPoint(eta @ x.g @ eta.conj().T, eta @ x.L @ eta.conj().T)
    for (m, k, part) in [(1, 0, "re"), (2, 1, "im"), (1, 2, "re")]:
        F = invariant_observable(m, k, part, chart="full")
        assert abs(F(x) - F(y)) <= 1e-12 * (1 + abs(F(x)))


def test_invariant_observable_restriction_to_red():
    x = sample_point("red", 3, 4)
    F = invariant_observable(2, 1, "re", chart="full")
    f = invariant_observable(2, 1, "re", chart="red")
    assert f(x) == pytest.approx(F(FullPoint(x.Q.matrix(), x.L)))


def test_invariant_observable_restriction_through_charts():
    x = sample_point("rs", 3, 5)
    F = invariant_observable(1, 1, "re", chart="rs")
    f = invariant_observable(1, 1, "re", chart="red")
    assert F(x) == pytest.approx(f(coords.from_rs(x)))
    s = sample_point("suth", 3, 5)
    G = invariant_observable(1, 1, "re", chart="suth")
    assert G(s) == pytest.approx(f(coords.from_suth(s)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_invariant_observable_zeroth_power_is_left_out_exactly(n):
    # tr(g^m L^k) without the identity factor of a zeroth power equals the
    # trace of the full product bit for bit, on one point and on a stack
    points = [sample_point("full", n, seed) for seed in range(3)]
    for m, k in ((0, 1), (0, 2), (1, 0), (2, 0), (1, 1)):
        for part, take in (("re", np.real), ("im", np.imag)):
            F = invariant_observable(m, k, part, chart="full")
            want = [take(np.trace(np.linalg.matrix_power(p.g, m)
                                  @ np.linalg.matrix_power(p.L, k))) for p in points]
            assert [F(p) for p in points] == want
            assert np.array_equal(F.value(_stack(points)), want)


def test_invariant_observable_rejects_trivial():
    with pytest.raises(ValueError):
        invariant_observable(0, 0)


def test_point_norm_positive():
    for chart in ("full", "red", "rs", "suth"):
        assert point_norm(sample_point(chart, 3, 0)) > 0
