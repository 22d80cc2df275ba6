import numpy as np
import pytest
import scipy.linalg

from rs_hierarchy import algebra, coords, phase
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
        for u, v in zip(phase._arrays(a), phase._arrays(b), strict=True):
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
    g = grad_full(Observable("full", lambda p: 4.2), x)
    assert np.allclose(g.D1, 0, atol=1e-9)
    assert np.allclose(g.D1p, 0, atol=1e-9)
    assert np.allclose(g.d2, 0, atol=1e-9)


def test_grad_full_defining_identity_random_directions():
    rng = np.random.default_rng(11)
    x = sample_point("full", 3, 2)
    F = Observable("full", lambda p: float(np.real(np.trace(p.g @ p.L))))
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
    comb = Observable("full", lambda p: 2.0 * F(p) - 0.5 * H(p))
    gc = grad_full(comb, x)
    gF = grad_full(F, x)
    gH = grad_full(H, x)
    for c, a, b in zip(gc, gF, gH):
        assert np.linalg.norm(c - (2.0 * a - 0.5 * b)) <= FD_TOL * _scale(comb, x, gc)


def test_grad_evaluation_counts():
    # two evaluations per direction; a block has n^2 directions in u(n) or
    # Herm(n), n on the torus or in p, and n(n-1) in b_+ or Herm(n)_perp
    counts = {"full": 54, "red": 24, "rs": 36, "suth": 24}
    for chart, want in counts.items():
        F = invariant_observable(1, 1, "re", chart=chart)
        calls = []
        counted = Observable(chart, lambda p, F=F, calls=calls: calls.append(p) or F(p))
        getattr(phase, f"grad_{chart}")(counted, sample_point(chart, 3, 0))
        assert len(calls) == want, chart


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_fd_grad_of_array_valued_callable(chart):
    # one sweep over y -> [F(y), H(y)] gives exactly grad(F) and grad(H)
    F = invariant_observable(1, 1, "re", chart=chart)
    H = invariant_observable(2, 1, "im", chart=chart)
    x = sample_point(chart, 3, 1)
    both = phase.fd_grad(lambda y: np.array([F(y), H(y)]), chart, x)
    assert type(both) is type(phase.grad(F, x))
    for i, A in enumerate((F, H)):
        for c, a in zip(both, phase.grad(A, x), strict=True):
            assert np.array_equal(c[i], a)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_group_displacements_are_exact(n):
    for curve, space in (("u_exp", "u"), ("nil_exp", "bplus")):
        for t in (0.3, -0.3):
            curves = phase._displacements(curve, space, n, t)
            for X, E in zip(algebra.basis(space, n), curves, strict=True):
                assert np.max(np.abs(E - scipy.linalg.expm(t * X))) <= 1e-14


# ---------------------------------------------------------------------------
# reduced-chart derivatives


def test_grad_red_hamiltonian():
    x = sample_point("red", 3, 0)
    f = Observable("red", lambda p: float(np.real(np.trace(p.L @ p.L))) / 2.0)
    g = grad_red(f, x)
    assert np.linalg.norm(g.D1) <= 1e-8
    assert np.linalg.norm(g.d2 - 1j * x.L) <= FD_TOL * (1 + np.linalg.norm(x.L))


def test_grad_red_q_only_function():
    x = sample_point("red", 3, 1)
    f = Observable("red", lambda p: float(np.sum(np.cos(p.Q.q))))
    g = grad_red(f, x)
    assert np.allclose(g.d2, 0, atol=1e-9)


def test_grad_red_defining_identity():
    rng = np.random.default_rng(13)
    x = sample_point("red", 3, 2)
    f = Observable("red", lambda p: float(np.real(np.trace(p.Q.matrix() @ p.L))))
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
    F = Observable("rs", lambda p: float(np.sum(np.exp(2 * p.p))))
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
    F = Observable("rs", lambda p: float(np.real(p.lam[0, 1])))
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
    F = Observable("suth", lambda p: float(np.sum(p.p ** 2)) / 2.0)
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
        return float(np.sum(p.p ** 2) + np.real(np.trace(C @ p.phi @ p.phi)))

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


def test_invariant_observable_rejects_trivial():
    with pytest.raises(ValueError):
        invariant_observable(0, 0)


def test_point_norm_positive():
    for chart in ("full", "red", "rs", "suth"):
        assert point_norm(sample_point(chart, 3, 0)) > 0
