import numpy as np
import pytest

from rs_hierarchy import algebra, coords, dynamics
from rs_hierarchy.algebra import (NotPositiveDefiniteError, RegularityError,
                                  SubspaceError, TorusReg)
from rs_hierarchy.phase import (RedPoint, RSPoint, SuthPoint, _arrays, batch_shape,
                                point_norm, sample_point, sample_points)


def _pd_red_point(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    L = algebra.make_hermitian(A @ A.conj().T + 0.5 * np.eye(n))
    return RedPoint(sample_point("red", n, seed).Q, L)


# ---------------------------------------------------------------------------
# Ruijsenaars chart


def test_to_rs_identity():
    Q = sample_point("red", 3, 0).Q
    x = coords.to_rs(RedPoint(Q, np.eye(3, dtype=complex)))
    assert np.allclose(x.p, 0)
    assert np.allclose(x.lam, np.eye(3))


def test_to_rs_two_by_two_example():
    q = np.array([0.4, 2.1])
    Q = TorusReg(q)
    L = np.array([[2, 1], [1, 1]], dtype=complex)
    x = coords.to_rs(RedPoint(Q, L))
    assert np.allclose(x.p, 0)
    bplus = coords.solve_bplus(Q, x.lam)
    assert np.allclose(bplus, [[1, 1], [0, 1]])
    assert x.lam[0, 1] == pytest.approx(np.exp(1j * (q[1] - q[0])) - 1)


def test_to_rs_rejects_indefinite():
    Q = sample_point("red", 2, 0).Q
    with pytest.raises(NotPositiveDefiniteError):
        coords.to_rs(RedPoint(Q, np.diag([1.0, -2.0]).astype(complex)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_to_rs_names_a_non_finite_member(bad):
    # the factorization refuses it before numpy's eigensolve, which raised
    # LinAlgError ("did not converge")
    x = RedPoint(sample_points("red", 3, (0, 1, 2)).Q,
                 np.stack([_pd_red_point(3, seed).L for seed in range(3)]))
    coords.to_rs(x)
    L = x.L.copy()
    L[1, 2, 2] = bad
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"^member 1: holds a NaN or an infinity$") as err:
        coords.to_rs(RedPoint(x.Q, L))
    assert err.value.member == 1


def test_solve_bplus_identity_and_two_by_two():
    Q = sample_point("red", 3, 1).Q
    assert np.allclose(coords.solve_bplus(Q, np.eye(3, dtype=complex)), np.eye(3))
    q = np.array([0.7, 2.9])
    Q2 = TorusReg(q)
    lam = np.array([[1, 0.3 - 0.8j], [0, 1]], dtype=complex)
    bp = coords.solve_bplus(Q2, lam)
    assert bp[0, 1] == pytest.approx(lam[0, 1] / (np.exp(1j * (q[1] - q[0])) - 1))


def test_solve_bplus_residual_and_uniqueness():
    for n in (3, 4):
        x = sample_point("rs", n, 3)
        bp = coords.solve_bplus(x.Q, x.lam)
        Qm = x.Q.matrix()
        res = np.linalg.norm(bp @ x.lam - Qm.conj() @ bp @ Qm)
        assert res <= 1e-12 * (1 + np.linalg.norm(bp))
        # perturbing any strictly-upper entry breaks the defining relation
        for (j, k) in [(0, 1), (0, n - 1)]:
            bad = bp.copy()
            bad[j, k] += 1e-3
            res_bad = np.linalg.norm(bad @ x.lam - Qm.conj() @ bad @ Qm)
            assert res_bad > 1e-5


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_solve_bplus_on_a_stack_equals_per_point_results(n):
    xs = [sample_point("rs", n, seed) for seed in range(6)]
    lam = np.stack([x.lam for x in xs])
    Q = TorusReg(np.stack([x.Q.q for x in xs]))
    stacked = coords.solve_bplus(Q, lam)
    shared_Q = coords.solve_bplus(xs[0].Q, lam)   # one torus element for all
    for i, x in enumerate(xs):
        assert np.array_equal(stacked[i], coords.solve_bplus(x.Q, x.lam))
        assert np.array_equal(shared_Q[i], coords.solve_bplus(xs[0].Q, x.lam))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_to_rs_and_to_suth_on_a_stack_equal_per_member(n):
    # bit for bit, every field of a 3-member stack against its members alone,
    # also with one L shared by every member (each field broadcast to the
    # stack first, as a field the map leaves alone keeps its own batch axes)
    red = coords.from_rs(sample_points("rs", n, (0, 1, 2)))
    for to, y in ((coords.to_rs, red), (coords.to_suth, sample_points("red", n, (0, 1, 2)))):
        assert batch_shape(to(y)) == (3,)
        for L in (y.L, y.L[0]):
            stacked = to(RedPoint(y.Q, L))
            for i in range(3):
                alone = to(RedPoint(TorusReg(y.Q.q[i]), L[i] if L.ndim == 3 else L))
                for (_, a, _), (_, b, _) in zip(_arrays(stacked), _arrays(alone), strict=True):
                    a = np.broadcast_to(a, (3,) + b.shape)
                    assert a[i].tobytes() == b.tobytes()


def test_to_rs_refuses_a_non_hermitian_L_naming_the_member():
    # chol_upper projects L strictly, as from_rs and to_suth do: an L that
    # is not Hermitian raises, where its Hermitian part was factored before
    # and from_rs(to_rs(y)) landed 0.212 away from L
    ys = [_pd_red_point(3, seed) for seed in (0, 1, 2)]
    L = np.array([y.L for y in ys])
    L[1, 0, 1] += 0.3
    with pytest.raises(SubspaceError, match=r"^discarded component has norm 2.121e-01$") as err:
        coords.to_rs(RedPoint(ys[1].Q, L[1]))
    assert err.value.member is None
    stack = RedPoint(TorusReg(np.array([y.Q.q for y in ys])), L)
    for to in (coords.to_rs, coords.to_suth):
        with pytest.raises(SubspaceError, match=r"^member 1: discarded component") as err:
            to(stack)
        assert err.value.member == 1


def test_rs_round_trips():
    for n in (2, 3, 4, 5):
        for seed in range(10):
            x = sample_point("rs", n, seed)
            back = coords.to_rs(coords.from_rs(x))
            scale = 1.0 + point_norm(x)
            assert np.linalg.norm(back.p - x.p) <= 1e-12 * scale
            assert np.linalg.norm(back.lam - x.lam) <= 1e-12 * scale
            y = _pd_red_point(n, seed)
            back2 = coords.from_rs(coords.to_rs(y))
            assert np.linalg.norm(back2.L - y.L) <= 1e-12 * (1.0 + point_norm(y))


def test_from_rs_trace_identity():
    x = sample_point("rs", 4, 7)
    bp = coords.solve_bplus(x.Q, x.lam)
    V = np.real(np.diag(bp @ bp.conj().T))
    tr = float(np.real(np.trace(coords.from_rs(x).L)))
    assert tr == pytest.approx(float(np.sum(np.exp(2 * x.p) * V)))


def test_rs_chart_torus_equivariance():
    # L -> tau L tau^{-1} maps lambda -> tau lambda tau^{-1} and fixes p.
    n = 3
    y = _pd_red_point(n, 11)
    rng = np.random.default_rng(11)
    tau = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
    x = coords.to_rs(y)
    y2 = RedPoint(y.Q, algebra.make_hermitian(tau @ y.L @ tau.conj().T))
    x2 = coords.to_rs(y2)
    assert np.allclose(x2.p, x.p, atol=1e-12)
    assert np.allclose(x2.lam, tau @ x.lam @ tau.conj().T, atol=1e-10)


# ---------------------------------------------------------------------------
# Sutherland chart


def test_from_suth_zero_spin():
    x = sample_point("suth", 3, 0)
    y = coords.from_suth(SuthPoint(x.Q, x.p, np.zeros((3, 3), dtype=complex)))
    assert np.allclose(y.L, np.diag(x.p))


def test_from_suth_half_period_example():
    Q = TorusReg(np.array([np.pi, 0.0]))
    phi = np.array([[0, 1], [1, 0]], dtype=complex)
    y = coords.from_suth(SuthPoint(Q, np.zeros(2), phi))
    assert y.L[0, 1] == pytest.approx(-0.5)


def test_from_suth_hermitian_with_diagonal_p():
    for seed in range(5):
        x = sample_point("suth", 4, seed)
        y = coords.from_suth(x)
        assert np.linalg.norm(y.L - y.L.conj().T) <= 1e-13 * (1 + np.linalg.norm(y.L))
        assert np.allclose(np.real(np.diag(y.L)), x.p)
        assert np.allclose(np.imag(np.diag(y.L)), 0)


def test_to_suth_diagonal_L():
    Q = sample_point("red", 3, 2).Q
    L = np.diag([1.0, -0.5, 2.0]).astype(complex)
    s = coords.to_suth(RedPoint(Q, L))
    assert np.allclose(s.phi, 0)
    assert np.allclose(s.p, [1.0, -0.5, 2.0])


def test_suth_round_trips():
    for n in (2, 3, 4, 5):
        for seed in range(10):
            x = sample_point("suth", n, seed)
            back = coords.to_suth(coords.from_suth(x))
            scale = 1.0 + point_norm(x)
            assert np.linalg.norm(back.p - x.p) <= 1e-12 * scale
            assert np.linalg.norm(back.phi - x.phi) <= 1e-12 * scale
            y = sample_point("red", n, seed)
            back2 = coords.from_suth(coords.to_suth(y))
            assert np.linalg.norm(back2.L - y.L) <= 1e-12 * (1.0 + point_norm(y))


def test_suth_multiplier_conjugation_symmetry():
    # the entrywise multiplier satisfies m_kj = conj(m_jk) on unit-modulus w,
    # which is what makes phi Hermitian for Hermitian L
    Q = sample_point("red", 4, 9).Q
    M = coords._suth_multiplier(Q)
    assert np.allclose(M, M.conj().T)


def test_suth_hamiltonian_coherence():
    # (1/k) tr(L^k) through the chart map agrees with direct evaluation;
    # for k = 2 this is the closed inverse-sin-squared form
    for seed in range(5):
        x = sample_point("suth", 3, seed)
        y = coords.from_suth(x)
        for k in (1, 2, 3):
            direct = dynamics.hk(y.L, k)
            assert direct == pytest.approx(
                float(np.real(np.trace(np.linalg.matrix_power(y.L, k)))) / k)
        assert dynamics.h_suth2(x) == pytest.approx(dynamics.hk(y.L, 2), rel=1e-12)


def test_charts_reject_irregular_torus():
    with pytest.raises(RegularityError):
        TorusReg(np.array([1.0, 1.0 + 1e-9, 2.0]))
