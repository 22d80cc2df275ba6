import numpy as np
import pytest

from rs_hierarchy import algebra, coords, dynamics
from rs_hierarchy.algebra import RegularityError, TorusReg
from rs_hierarchy.brackets import pb1_full, pb2_full
from rs_hierarchy.config import PROFILES
from rs_hierarchy.dynamics import (AmbiguousMatchError, flow, h_rs, h_suth2, hk,
                                   reduce_point, trajectory)
from rs_hierarchy.phase import (FullPoint, RedPoint, RSPoint, SuthPoint,
                                hamiltonian_observable, invariant_observable,
                                sample_point)


# ---------------------------------------------------------------------------
# Hamiltonians


def test_hk_examples():
    assert hk(np.eye(2, dtype=complex), 3) == pytest.approx(2.0 / 3.0)
    assert hk(np.diag([1.0, 2.0]).astype(complex), 2) == pytest.approx(5.0 / 2.0)
    assert hk(np.zeros((3, 3), dtype=complex), 1) == pytest.approx(0.0)


def test_hk_matches_trace_power():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    L = algebra.make_hermitian(A + A.conj().T)
    for k in range(1, 6):
        direct = float(np.real(np.trace(np.linalg.matrix_power(L, k)))) / k
        assert hk(L, k) == pytest.approx(direct, rel=1e-12)
    with pytest.raises(ValueError):
        hk(L, 0)


# ---------------------------------------------------------------------------
# exact flows


def test_flow_trivial_generator():
    x = sample_point("full", 3, 0)
    y = flow(FullPoint(x.g, np.zeros((3, 3), dtype=complex)), 2, 1.7)
    assert np.allclose(y.g, x.g)


def test_flow_group_property_and_conservation():
    for seed in range(5):
        x = sample_point("full", 4, seed)
        s, t = 0.37, 1.12
        y = flow(flow(x, 2, s), 2, t)
        z = flow(x, 2, s + t)
        assert np.linalg.norm(y.g - z.g) <= 1e-12 * (1 + np.linalg.norm(z.g))
        assert np.array_equal(y.L, x.L)
        # unitarity preserved
        assert np.linalg.norm(y.g.conj().T @ y.g - np.eye(4)) <= 1e-12
        # spectrum of g evolves: det is multiplied by exp(i t tr(L^k))
        ratio = np.linalg.det(z.g) / np.linalg.det(x.g)
        assert ratio == pytest.approx(np.exp(1j * (s + t) * 2 * hk(x.L, 2)),
                                      abs=1e-10)


def test_flow_rejects_non_unitary_g():
    L = np.diag([1.0, -2.0]).astype(complex)
    with pytest.raises(ValueError, match="unitary"):
        flow(FullPoint(2.0 * np.eye(2, dtype=complex), L), 1, 0.3)


def test_flow_diagonal_generator_explicit():
    L = np.diag([1.0, -2.0]).astype(complex)
    g0 = np.eye(2, dtype=complex)
    y = flow(FullPoint(g0, L), 1, 0.5)
    assert np.allclose(y.g, np.diag(np.exp(1j * 0.5 * np.array([1.0, -2.0]))))
    y3 = flow(FullPoint(g0, L), 3, 0.5)
    assert np.allclose(y3.g, np.diag(np.exp(1j * 0.5 * np.array([1.0, -8.0]))))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_flow_is_hamiltonian_flow_of_h_k_plus_1_under_pb1_and_h_k_under_pb2(k, seed):
    # d/dt F(flow(x, k, t)) at t = 0 by a central difference equals
    # {F, H_{k+1}}_1 and {F, H_k}_2
    x = sample_point("full", 3, seed)
    F = invariant_observable(2, 2, "re")
    h = 1e-5
    rate = (F(flow(x, k, h)) - F(flow(x, k, -h))) / (2 * h)
    for bracket, H in ((pb1_full, hamiltonian_observable(k + 1)),
                       (pb2_full, hamiltonian_observable(k))):
        v = bracket(F, H, x)
        assert abs(rate - v) <= PROFILES["default"] * (1 + abs(rate) + abs(v)), bracket.name


# ---------------------------------------------------------------------------
# reduction


def test_reduce_point_diagonal_example():
    q = np.array([0.3, 1.4, 4.0])
    g = np.diag(np.exp(1j * q))
    L = np.diag([1.0, 2.0, 3.0]).astype(complex)
    red, eta = reduce_point(FullPoint(g, L))
    assert np.allclose(red.Q.q, q)
    assert np.allclose(red.L, L)
    assert np.allclose(np.abs(eta), np.eye(3))


def test_reduce_point_reconstruction():
    for n in (2, 3, 4, 5):
        for seed in range(5):
            x = sample_point("full", n, seed)
            red, eta = reduce_point(x)
            # eta unitary, phases sorted in [0, 2pi)
            assert np.linalg.norm(eta.conj().T @ eta - np.eye(n)) <= 1e-12
            assert np.all(np.diff(red.Q.q) > 0)
            assert red.Q.q[0] >= 0 and red.Q.q[-1] < 2 * np.pi
            g_rec = eta @ red.Q.matrix() @ eta.conj().T
            L_rec = eta @ red.L @ eta.conj().T
            assert np.linalg.norm(g_rec - x.g) <= 1e-12 * n
            assert np.linalg.norm(L_rec - x.L) <= 1e-12 * (1 + np.linalg.norm(x.L))


def test_reduce_point_conjugation_invariance():
    # conjugating (g, L) by a unitary leaves the eigenphases invariant and
    # the reduced L invariant up to residual torus conjugation (the gauge fix
    # depends on the eigenvector representatives)
    x = sample_point("full", 3, 7)
    red, _ = reduce_point(x)
    V = sample_point("full", 3, 8).g
    y = FullPoint(V @ x.g @ V.conj().T,
                  algebra.make_hermitian(V @ x.L @ V.conj().T))
    red2, _ = reduce_point(y)
    assert np.allclose(red2.Q.q, red.Q.q, atol=1e-10)
    assert np.allclose(np.diag(red2.L), np.diag(red.L), atol=1e-10)
    assert np.allclose(np.abs(red2.L), np.abs(red.L), atol=1e-9)


def test_reduce_point_rejects_degenerate_spectrum():
    g = np.eye(3, dtype=complex)
    with pytest.raises(RegularityError):
        reduce_point(FullPoint(g, np.zeros((3, 3), dtype=complex)))


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_diagonal_flow_explicit():
    # for commuting g0 = Q0 and L diagonal, the eigenphases drift linearly:
    # q_i(t) = q_i(0) + t L_ii mod 2pi
    q0 = np.array([0.5, 2.0, 4.5])
    L = np.diag([0.9, -0.4, 0.3]).astype(complex)
    x0 = FullPoint(np.diag(np.exp(1j * q0)), L)
    t_grid = np.linspace(0.0, 2.0, 21)
    traj = trajectory(x0, 1, t_grid)
    for t, pt in zip(traj.times, traj.points):
        expect = np.sort(np.mod(q0 + t * np.real(np.diag(L)), 2 * np.pi))
        assert np.allclose(np.sort(pt.Q.q), expect, atol=1e-10)
    assert traj.conserved.shape == (21, 3)
    assert np.allclose(traj.conserved, traj.conserved[0], atol=1e-10)
    assert np.all(traj.gauge_defects <= 1e-10)


def test_trajectory_continuity_and_reversal():
    x0 = sample_point("full", 3, 2)
    t_grid = np.linspace(0.0, 1.5, 40)
    traj = trajectory(x0, 2, t_grid)
    # adjacent samples stay close after permutation matching
    for a, b in zip(traj.points, traj.points[1:]):
        d = dynamics._circ_dist(a.Q.q, b.Q.q)
        assert np.max(d) < 0.5
    # retracing the grid backwards visits the same reduced points
    back = trajectory(flow(x0, 2, 1.5), 2, t_grid[::-1] - 1.5)
    assert np.allclose(np.sort(back.points[-1].Q.q), np.sort(traj.points[0].Q.q),
                       atol=1e-10)


@pytest.mark.parametrize("n,k,seed,points", [
    (4, 2, 1, 21), (4, 2, 4, 21), (4, 2, 6, 21), (5, 2, 8, 21), (5, 2, 22, 101)])
def test_coarse_labels_match_fine_grid(n, k, seed, points):
    # labels on a coarse grid agree with those of a grid 20x finer, whose
    # steps are small enough for the winding of each phase to be plain
    x0 = sample_point("full", n, seed)
    fine = np.linspace(0.0, 1.0, 20 * (points - 1) + 1)
    coarse = trajectory(x0, k, fine[::20])
    ref = trajectory(x0, k, fine)
    for a, b in zip(coarse.points, ref.points[::20]):
        assert np.array_equal(a.Q.q, b.Q.q)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_trajectory_samples_equal_single_point_reduction(n, k):
    # the stacked reduction of the whole grid gives, sample by sample and up
    # to the labels, reduce_point(flow(x0, k, t))
    x0 = sample_point("full", n, 0)
    t_grid = np.linspace(0.0, 1.0, 21)
    traj = trajectory(x0, k, t_grid)
    assert np.all(traj.gauge_defects <= 1e-14)
    for t, pt in zip(t_grid, traj.points):
        red, _ = reduce_point(flow(x0, k, t))
        perm = np.argsort(np.argsort(pt.Q.q))  # pt.Q.q == red.Q.q[perm]
        assert np.max(np.abs(red.Q.q[perm] - pt.Q.q)) <= 1e-12
        assert np.max(np.abs(red.L[np.ix_(perm, perm)] - pt.L)) <= 1e-12


def test_match_permutation_tie_raises():
    with pytest.raises(AmbiguousMatchError):
        dynamics._match_permutation([0.0, np.pi], [0.5 * np.pi, 1.5 * np.pi])


def test_trajectory_tie_names_sample_and_time():
    # the phases 0 and pi both advance by pi/2 in one step, which costs the
    # same as both falling back by pi/2 to the other's new place
    x0 = FullPoint(np.diag([1.0, -1.0]).astype(complex),
                   0.5 * np.pi * np.eye(2, dtype=complex))
    with pytest.raises(AmbiguousMatchError, match=r"sample 1 \(t = 1.0\)"):
        trajectory(x0, 1, [0.0, 1.0])


def test_trajectory_conserved_quantities_flat():
    x0 = sample_point("full", 4, 5)
    traj = trajectory(x0, 3, np.linspace(0.0, 1.0, 25))
    drift = np.max(np.abs(traj.conserved - traj.conserved[0]), axis=0)
    scale = 1.0 + np.max(np.abs(traj.conserved[0]))
    assert np.all(drift <= 1e-12 * scale)


def test_trajectory_matches_rk4_on_eigenphases():
    # integrate d/dt g = i L^k g with classic RK4 and compare eigenphases
    x0 = sample_point("full", 3, 9)
    k, T, steps = 2, 1.0, 1000
    h = T / steps
    A = 1j * np.linalg.matrix_power(x0.L, k)
    g = x0.g.copy()
    for _ in range(steps):
        k1 = A @ g
        k2 = A @ (g + 0.5 * h * k1)
        k3 = A @ (g + 0.5 * h * k2)
        k4 = A @ (g + h * k3)
        g = g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    exact = flow(x0, k, T)
    assert np.linalg.norm(g - exact.g) <= 1e-8 * (1 + np.linalg.norm(exact.g))
    red_rk4, _ = reduce_point(FullPoint(g, x0.L))
    red_ex, _ = reduce_point(exact)
    assert np.allclose(red_rk4.Q.q, red_ex.Q.q, atol=1e-8)


# ---------------------------------------------------------------------------
# chart Hamiltonians


def test_h_rs_trivial_lambda():
    x = sample_point("rs", 3, 0)
    y = RSPoint(x.Q, x.p, np.eye(3, dtype=complex))
    assert h_rs(y) == pytest.approx(float(np.sum(np.exp(2 * x.p))))


def test_h_rs_momentum_shift_scaling():
    x = sample_point("rs", 3, 1)
    c = 0.37
    shifted = RSPoint(x.Q, x.p + c, x.lam)
    assert h_rs(shifted) == pytest.approx(np.exp(2 * c) * h_rs(x), rel=1e-12)


def test_h_rs_equals_trace_through_chart():
    for seed in range(5):
        x = sample_point("rs", 4, seed)
        y = coords.from_rs(x)
        assert h_rs(x) == pytest.approx(hk(y.L, 1), rel=1e-12)


def test_h_suth2_examples():
    Q = TorusReg(np.array([0.3, 1.7]))
    zero = np.zeros((2, 2), dtype=complex)
    assert h_suth2(SuthPoint(Q, np.array([1.0, 0.0]), zero)) == pytest.approx(0.5)
    # phi with a single off-diagonal pair at half period: sin^2 = 1
    Q2 = TorusReg(np.array([np.pi, 0.0]))
    phi = np.array([[0, 1], [1, 0]], dtype=complex)
    val = h_suth2(SuthPoint(Q2, np.array([1.0, 0.0]), phi))
    assert val == pytest.approx(0.5 + 2.0 / 8.0)
