import re
import warnings

import numpy as np
import pytest

from rs_hierarchy import algebra, checks, config, coords, dynamics, phase
from rs_hierarchy.algebra import RegularityError, TorusReg
from rs_hierarchy.brackets import pb1_full, pb2_full
from rs_hierarchy.dynamics import (AmbiguousMatchError, CertificationError, flow, h_rs,
                                   h_suth2, hk, reduce_point, trajectory)
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
    for k in (1.5, 0.5):
        with pytest.raises(TypeError):
            hk(L, k)
    assert hk(L, np.int64(3)) == hk(L, 3)


@pytest.mark.parametrize("chart", ["full", "red"])
def test_hamiltonian_observable_value_is_hk(chart):
    # H_k's value and hk are the one power trace, bit for bit
    for n in range(2, 6):
        for seed in range(5):
            x = sample_point(chart, n, seed)
            for k in range(1, 6):
                assert hamiltonian_observable(k, chart).value(x) == hk(x.L, k)


# Rounding model of the power traces against the eigenvalue sums:
# |h_l - sum_i w_i^l / l| <= c l n eps (1 + max_i |w_i|^l).  With c = 4 the
# largest ratio measured over the stacks below is 2.2 (n = 3, |L| = 10, l = 1).
POWER_TRACE_C = 4.0


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("scale", [1.0, 10.0, 1e2, 1e3])
def test_power_traces_within_rounding_model(n, scale):
    # seeded random Hermitian stacks of spectral norm `scale`, l = 1..8
    rng = np.random.default_rng([n, int(scale)])
    A = rng.standard_normal((200, n, n)) + 1j * rng.standard_normal((200, n, n))
    L = 0.5 * (A + A.conj().swapaxes(-1, -2))
    L = algebra.make_hermitian(L * (scale / np.linalg.norm(L, 2, axis=(-2, -1)))[:, None, None])
    w = np.linalg.eigvalsh(L)
    l = np.arange(1, 9)
    ref = np.sum(w[..., None, :] ** l[:, None], axis=-1) / l
    got = algebra.power_traces(L, 8)
    bound = l * n * np.finfo(float).eps * (1.0 + np.max(np.abs(w), axis=-1)[:, None] ** l)
    assert got.shape == (200, 8)
    assert np.max(np.abs(got - ref) / bound) <= POWER_TRACE_C


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
    with pytest.raises(ValueError, match=r"unitary g: .* = nan$"):
        flow(FullPoint(np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex), L), 1, 0.3)


def test_flow_on_a_stack_equals_each_member():
    # bit for bit: flow on seeds 0..4 as one stack against each point alone
    seeds = tuple(range(5))
    for n in (2, 3, 4, 5):
        x = phase.sample_points("full", n, seeds)
        for k in (1, 2):
            y = flow(x, k, 0.7)
            assert y.g.shape == (5, n, n) and y.L is x.L
            for i, seed in enumerate(seeds):
                one = flow(sample_point("full", n, seed), k, 0.7)
                assert y.g[i].tobytes() == one.g.tobytes(), (n, k, seed)


def test_flow_on_a_stack_names_the_first_non_unitary_member():
    # a (2, 2) stack: members are flat indices over both batch axes, and a
    # NaN member counts as failing
    x = phase.sample_points("full", 3, (0, 1, 2, 3))
    g = x.g.copy()
    g[3, 0, 1] = np.nan
    g[2] *= 2.0
    L = x.L.reshape(2, 2, 3, 3)
    with pytest.raises(ValueError, match=r"^member 2: flow needs a unitary g: "):
        flow(FullPoint(g.reshape(2, 2, 3, 3), L), 1, 0.3)
    g[2] = x.g[2]
    with pytest.raises(ValueError, match=r"^member 3: flow needs a unitary g: .* = nan$"):
        flow(FullPoint(g.reshape(2, 2, 3, 3), L), 1, 0.3)


def test_flow_of_a_g_stack_with_one_shared_L_flows_every_member():
    # the batch axes of g and L broadcast: a shared L flows every member of g
    x = phase.sample_points("full", 3, (0, 1, 2))
    y = flow(FullPoint(x.g, x.L[0]), 1, 0.3)
    assert y.g.shape == (3, 3, 3)
    for i in range(3):
        assert y.g[i].tobytes() == flow(FullPoint(x.g[i], x.L[0]), 1, 0.3).g.tobytes()
    tr = trajectory(FullPoint(x.g, x.L[0]), 1, [0.0, 0.3])
    assert tr.gauge_defects.shape == (2, 3)
    assert tr.points[1].Q.q[2].tobytes() == trajectory(
        FullPoint(x.g[2], x.L[0]), 1, [0.0, 0.3]).points[1].Q.q.tobytes()


def test_flow_non_unitary_error_carries_its_member():
    # a CertificationError, still a ValueError, with the member of the stack
    x = phase.sample_points("full", 3, (0, 1, 2))
    g = x.g.copy()
    g[1] *= 2.0
    with pytest.raises(CertificationError, match=r"^member 1: flow needs a unitary g") as info:
        flow(FullPoint(g, x.L), 1, 0.3)
    assert info.value.member == 1 and isinstance(info.value, ValueError)
    with pytest.raises(CertificationError, match=r"^flow needs a unitary g") as info:
        flow(FullPoint(g[1], x.L[1]), 1, 0.3)
    assert info.value.member is None


def test_flow_rejects_a_non_integer_k_and_a_non_finite_t():
    # before any eigh: no RuntimeWarning (an error under this suite's
    # filterwarnings) and no NaN point
    x = sample_point("full", 3, 0)
    for k in (1.5, 2.0, np.float64(2.0)):
        with pytest.raises(TypeError):
            flow(x, k, 0.3)
        with pytest.raises(TypeError):
            trajectory(x, k, [0.0, 0.5])
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=rf"^flow needs a finite t, got {t}$"):
            flow(x, 2, t)
    with pytest.raises(ValueError, match=r"^flow needs a finite t, got inf$"):
        trajectory(x, 2, [0.0, np.inf])
    with pytest.raises(ValueError, match=r"^flow needs a finite t, got nan$"):
        trajectory(x, 2, [0.0, 0.5, np.nan, np.inf])
    assert flow(x, np.int64(2), 0.3).g.tobytes() == flow(x, 2, 0.3).g.tobytes()


def test_flow_rejects_a_phase_that_is_not_finite():
    # a finite t whose phase t w^k overflows: refused naming the first such
    # t, with no RuntimeWarning (an error under this suite's filterwarnings)
    # and no NaN point
    x = sample_point("full", 3, 0)
    with pytest.raises(ValueError, match=r"^flow needs a finite phase t w\^k, got inf or "
                                         r"nan at t = 1e\+308$"):
        flow(x, 2, 1e308)
    with pytest.raises(ValueError, match=r"at t = -1e\+308$"):
        trajectory(phase.sample_points("full", 3, (0, 1)), 2, [0.0, 0.5, -1e308, 1e308])
    # w^k itself overflows: even t = 0 has no finite phase
    L = np.diag([1e200, 1.0, 2.0]).astype(complex)
    with pytest.raises(ValueError, match=r"at t = 0.0$"):
        flow(FullPoint(np.eye(3, dtype=complex), L), 2, 0.0)


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
        assert abs(rate - v) <= config.FD * (1 + abs(rate) + abs(v)), bracket.name


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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reduce_point_on_a_stack_equals_each_member(n):
    # eta^dagger must transpose each member's matrix axes only: with .T the
    # batch axes turn too, and a stack fails the strict projection or matmul
    seeds = tuple(range(5))
    y, eta = reduce_point(phase.sample_points("full", n, seeds))
    assert y.Q.q.shape == (5, n) and y.L.shape == eta.shape == (5, n, n)
    for i, seed in enumerate(seeds):
        yi, eta_i = reduce_point(sample_point("full", n, seed))
        assert y.Q.q[i].tobytes() == yi.Q.q.tobytes()
        assert y.L[i].tobytes() == yi.L.tobytes()
        assert eta[i].tobytes() == eta_i.tobytes()


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


def test_reduce_point_rejects_non_unitary_g():
    # QR would make eta unitary and return a reduction whose reconstruction
    # is off by 0.54; no Hermitian angle certifies it
    x = sample_point("full", 3, 0)
    g = x.g @ np.diag([1.0, 1.0, 1.5])
    with pytest.raises(CertificationError, match=r"^no Hermitian angle certifies") as info:
        reduce_point(FullPoint(g, x.L))
    assert info.value.member is None


def test_reduce_point_rejects_a_non_finite_g():
    # before any eigh, whose own failure on a NaN is an untyped LinAlgError
    g = np.eye(3, dtype=complex)
    g[0, 1] = np.nan
    with pytest.raises(CertificationError, match=r"^g holds a non-finite entry") as info:
        reduce_point(FullPoint(g, np.zeros((3, 3), dtype=complex)))
    assert info.value.member is None


def test_diagonalize_names_the_first_non_finite_member_of_a_stack():
    g = np.stack([sample_point("full", 3, seed).g for seed in range(3)])
    g[1, 2, 0] = np.nan
    g[2, 0, 0] = np.inf
    with pytest.raises(CertificationError, match=r"^member 1: g holds a non-finite") as info:
        dynamics._diagonalize(g)
    assert info.value.member == 1


def _eig_qr_diagonalize(g):
    """Reference: the general eig of g, QR of the eigenvectors sorted by
    phase, and each column's largest-magnitude entry made real positive."""
    ev, Z = np.linalg.eig(g)
    phases = np.mod(np.angle(ev), 2 * np.pi)
    order = np.argsort(phases, axis=-1)
    phases = np.take_along_axis(phases, order, axis=-1)
    eta = np.linalg.qr(np.take_along_axis(Z, order[..., None, :], axis=-1))[0]
    i = np.argmax(np.abs(eta), axis=-2)[..., None, :]
    return phases, eta * np.exp(-1j * np.angle(np.take_along_axis(eta, i, axis=-2)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_diagonalize_matches_eig_qr_reference(n):
    # 180 trajectories per n (k = 1..3, seeds 0..29, 21 and 101 samples):
    # the same labels, phases to 1e-14, the same gauge to 1e-12, and each
    # returned residual is the reconstruction error, at most 1e-14
    for points in (21, 101):
        t_grid = np.linspace(0.0, 1.0, points)
        for k in (1, 2, 3):
            for seed in range(30):
                g = dynamics._flow_g(sample_point("full", n, seed), k, t_grid)
                phases, eta, residual = dynamics._diagonalize(g)
                ref_phases, ref_eta = _eig_qr_diagonalize(g)
                case = (points, k, seed)
                assert np.array_equal(dynamics._rotations(phases, t_grid),
                                      dynamics._rotations(ref_phases, t_grid)), case
                assert np.max(np.abs(phases - ref_phases)) <= 1e-14, case
                assert np.max(np.abs(eta - ref_eta)) <= 1e-12, case
                recon = (eta * np.exp(1j * phases)[:, None, :]) @ eta.conj().swapaxes(-1, -2)
                assert np.array_equal(residual, np.linalg.norm(recon - g, axis=(1, 2))), case
                assert np.max(residual) <= 1e-14, case


@pytest.mark.parametrize("n", [2, 3, 4])
def test_diagonalize_retries_at_a_separating_angle(n, monkeypatch):
    # the phases a and -a have the same cosine, so the theta = 0 Hermitian
    # part does not separate them (at n = 2 it is cos(a) times the identity)
    phases = np.array({2: [0.7, -0.7], 3: [0.7, -0.7, 2.9], 4: [0.7, -0.7, 2.1, -2.1]}[n])
    V = sample_point("full", n, 4).g
    g = (V * np.exp(1j * phases)) @ V.conj().T
    thetas = []
    attempt = dynamics._eigh_reduction
    monkeypatch.setattr(dynamics, "_eigh_reduction",
                        lambda g, theta: thetas.append(theta) or attempt(g, theta))
    q, eta, residual = dynamics._diagonalize(g)
    assert thetas[0] == 0.0 and len(thetas) >= 2
    assert np.max(np.abs(q - np.sort(np.mod(phases, 2 * np.pi)))) <= 1e-14
    assert residual <= config.UNITARY_TOL * n
    assert np.linalg.norm(eta.conj().T @ eta - np.eye(n)) <= config.UNITARY_TOL * n


@pytest.mark.parametrize("n", [4, 5])
def test_diagonalize_is_stack_independent(n):
    # one member reduces to the same bits alone, in a 101-stack and in a
    # 2001-stack
    g = dynamics._flow_g(sample_point("full", n, 3), 2, np.linspace(0.0, 1.0, 2001))
    fine = dynamics._diagonalize(g)
    coarse = dynamics._diagonalize(np.ascontiguousarray(g[::20]))
    for m in (0, 37, 100):
        alone = dynamics._diagonalize(g[20 * m].copy())
        for a, c, f in zip(alone, coarse, fine):
            assert a.tobytes() == c[m].tobytes() == f[20 * m].tobytes(), m


def test_diagonalize_phase_collisions_raise_no_warning():
    # a collision leaves some lam_l - lam_j at 0: the reduction is certified
    # without dividing by it, and the regularity gate rejects the phases
    g = np.stack([np.eye(3, dtype=complex), np.diag(np.exp([0.5j, 0.5j, 2j]))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phases, _, residual = dynamics._diagonalize(g)
    assert np.all(residual <= config.UNITARY_TOL * 3)
    assert np.allclose(phases, [[0.0, 0.0, 0.0], [0.5, 0.5, 2.0]], atol=1e-15)
    with pytest.raises(RegularityError, match=r"^member 0: "):
        TorusReg(phases)


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


def _match_permutation(prev_q, q) -> np.ndarray:
    """Per-step reference matcher: the permutation perm labelling the sorted
    new phases q as q[perm] after the labelled previous phases prev_q, by the
    cyclic rotation of argsort(prev_q) with the least sum of squared circular
    distances."""
    prev_q, q = np.asarray(prev_q, dtype=float), np.asarray(q, dtype=float)
    n = len(q)
    order = np.argsort(prev_q)
    d2 = dynamics._circ_dist(prev_q[order][:, None], q[None, :]) ** 2
    shift = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n  # [j, r] = j + r
    cost = d2[np.arange(n)[:, None], shift].sum(axis=0)
    best, second = np.argsort(cost)[:2]
    if cost[second] - cost[best] < config.MATCH_TIE_TOL:
        raise AmbiguousMatchError(
            f"eigenphase matching ties between rotations costing "
            f"{cost[best]:.17g} and {cost[second]:.17g}")
    perm = np.empty(n, dtype=int)
    perm[order] = shift[:, best]
    return perm


def _reference_labels(phases) -> np.ndarray:
    """One sequential pass of _match_permutation over the sorted phase rows."""
    perms = [np.arange(phases.shape[-1])]
    for i in range(1, len(phases)):
        perms.append(_match_permutation(phases[i - 1][perms[-1]], phases[i]))
    return np.array(perms)


@pytest.mark.parametrize("points", [21, 101])
def test_trajectory_equals_per_step_matching(points):
    # the stacked cumulative rotations give, bit for bit, the labels, L and
    # conserved values of a sequential per-step matching pass
    t_grid = np.linspace(0.0, 1.0, points)
    wound = 0
    for n in range(2, 7):
        for k in (1, 2, 3):
            for seed in range(5):
                x0 = sample_point("full", n, seed)
                phases, eta, _ = dynamics._diagonalize(dynamics._flow_g(x0, k, t_grid))
                perms = _reference_labels(phases)
                L_red = eta.conj().swapaxes(-1, -2) @ x0.L @ eta
                L = algebra.make_hermitian(
                    np.stack([L_red[i][np.ix_(p, p)] for i, p in enumerate(perms)]), strict=True)
                traj = trajectory(x0, k, t_grid)
                assert np.array_equal(np.stack([pt.Q.q for pt in traj.points]),
                                      np.take_along_axis(phases, perms, axis=-1))
                assert np.array_equal(np.stack([pt.L for pt in traj.points]), L)
                assert np.array_equal(traj.conserved, algebra.power_traces(L, n))
                wound += bool(np.any(perms != np.arange(n)))
    assert wound > 0  # some cases wind, so the cumulative sum is exercised


_TIE = (r"eigenphase matching ties between rotations costing "
        r"[0-9.e+-]+ and [0-9.e+-]+$")


def test_rotations_tie_raises():
    # the phases 0 and pi both advancing by pi/2 costs the same as both
    # falling back by pi/2 to the other's new place
    with pytest.raises(AmbiguousMatchError, match=r"^at sample 1 \(t = 1.0\): " + _TIE):
        dynamics._rotations(np.array([[0.0, np.pi], [0.5 * np.pi, 1.5 * np.pi]]), [0.0, 1.0])


def test_trajectory_tie_names_sample_and_time():
    # the phases 0 and pi both advance by pi/2 in one step, which costs the
    # same as both falling back by pi/2 to the other's new place
    x0 = FullPoint(np.diag([1.0, -1.0]).astype(complex),
                   0.5 * np.pi * np.eye(2, dtype=complex))
    with pytest.raises(AmbiguousMatchError, match=r"sample 1 \(t = 1.0\)"):
        trajectory(x0, 1, [0.0, 1.0])


def test_trajectory_tie_names_first_of_two():
    # the same flow advances both phases by pi/4 over the first step and by
    # pi/2 over each later one, so samples 2 and 3 both tie; the first is named
    x0 = FullPoint(np.diag([1.0, -1.0]).astype(complex),
                   0.5 * np.pi * np.eye(2, dtype=complex))
    with pytest.raises(AmbiguousMatchError, match=r"^at sample 1 \(t = 2.5\): " + _TIE):
        trajectory(x0, 1, [1.5, 2.5])
    with pytest.raises(AmbiguousMatchError, match=r"^at sample 2 \(t = 1.5\): " + _TIE):
        trajectory(x0, 1, [0.0, 0.5, 1.5, 2.5])


def test_trajectory_collision_names_sample_and_time():
    # the phases t and 0.5 meet at t = 0.5; the stacked gate reports it
    # before the matching sees the tie
    x0 = FullPoint(np.diag([1.0, np.exp(0.5j)]), np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(RegularityError, match=r"^at sample 2 \(t = 0.5\): member 2: "):
        trajectory(x0, 1, [0.0, 0.25, 0.5, 0.75])


def test_trajectory_uncertified_sample_names_sample_and_time(monkeypatch):
    # a g(t) made non-unitary at sample 2 fails its certification
    flow_g = dynamics._flow_g

    def broken(x0, k, t):
        g = flow_g(x0, k, t)
        g[2] = g[2] @ np.diag([1.0, 1.0, 1.5])
        return g
    monkeypatch.setattr(dynamics, "_flow_g", broken)
    with pytest.raises(CertificationError,
                       match=r"^at sample 2 \(t = 0.5\): member 2: no Hermitian angle certifies"):
        trajectory(sample_point("full", 3, 0), 1, [0.0, 0.25, 0.5, 0.75])


@pytest.mark.parametrize("t_grid", [[], np.zeros((2, 3)), 0.5, [[0.0, 1.0]]])
def test_trajectory_rejects_a_grid_that_is_not_1d_and_nonempty(t_grid):
    shape = np.shape(t_grid)
    with pytest.raises(ValueError, match=r"^t_grid must be 1-D with at least one sample, "
                                         r"got shape " + re.escape(str(shape)) + "$"):
        trajectory(sample_point("full", 3, 0), 1, t_grid)


def test_trajectory_of_one_sample():
    x0 = sample_point("full", 3, 0)
    traj = trajectory(x0, 2, [0.4])
    red, _ = reduce_point(flow(x0, 2, 0.4))
    assert traj.conserved.shape == (1, 3) and len(traj.points) == 1
    assert np.array_equal(traj.points[0].Q.q, red.Q.q)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_trajectory_equals_each_member(n):
    # bit for bit: one trajectory of a 6-seed stack, and of the same stack
    # as a (2, 3) batch, against each seed's own trajectory
    t_grid = np.linspace(0.0, 1.0, 21)
    seeds = tuple(range(6))
    x = phase.sample_points("full", n, seeds)
    x23 = FullPoint(x.g.reshape(2, 3, n, n), x.L.reshape(2, 3, n, n))
    for k in (1, 2, 3):
        stack, stack23 = trajectory(x, k, t_grid), trajectory(x23, k, t_grid)
        assert stack.conserved.shape == (21, 6, n) and stack.gauge_defects.shape == (21, 6)
        assert stack23.conserved.shape == (21, 2, 3, n) and len(stack.points) == 21
        for tr in (stack, stack23):  # the batch axes flattened to one of 6
            assert np.array_equal(tr.times, t_grid)
            c, d = tr.conserved.reshape(21, 6, n), tr.gauge_defects.reshape(21, 6)
            q = np.stack([p.Q.q.reshape(6, n) for p in tr.points])
            L = np.stack([p.L.reshape(6, n, n) for p in tr.points])
            for i, seed in enumerate(seeds):
                one = trajectory(sample_point("full", n, seed), k, t_grid)
                assert c[:, i].tobytes() == one.conserved.tobytes(), (k, seed)
                assert d[:, i].tobytes() == one.gauge_defects.tobytes(), (k, seed)
                assert q[:, i].tobytes() == np.stack([p.Q.q for p in one.points]).tobytes()
                assert L[:, i].tobytes() == np.stack([p.L for p in one.points]).tobytes()


def _with_member(x0, point, at=1):
    """The stack of x0's members with member `at` replaced by point."""
    g, L = np.array(x0.g), np.array(x0.L)
    g[at], L[at] = point.g, point.L
    return FullPoint(g, L)


_TIE_POINT = FullPoint(np.diag([1.0, -1.0]).astype(complex),
                       0.5 * np.pi * np.eye(2, dtype=complex))
_COLLIDING = FullPoint(np.diag([1.0, np.exp(0.5j)]), np.diag([1.0, 0.0]).astype(complex))


def test_stacked_trajectory_tie_names_member_sample_and_time():
    x = _with_member(phase.sample_points("full", 2, (0, 1, 2)), _TIE_POINT)
    with pytest.raises(AmbiguousMatchError,
                       match=r"^member 1: at sample 1 \(t = 1.0\): " + _TIE) as info:
        trajectory(x, 1, [0.0, 1.0])
    assert info.value.member == 1


def test_stacked_trajectory_collision_names_member_sample_and_time():
    # sample 2 of member 1 of a 3-stack is member 2 * 3 + 1 of the gate's stack
    x = _with_member(phase.sample_points("full", 2, (0, 1, 2)), _COLLIDING)
    with pytest.raises(RegularityError,
                       match=r"^member 1: at sample 2 \(t = 0.5\): member 7: "
                             r"eigenvalue gap") as info:
        trajectory(x, 1, [0.0, 0.25, 0.5, 0.75])
    assert info.value.member == 1


def test_stacked_trajectory_uncertified_sample_names_member_sample_and_time(monkeypatch):
    flow_g = dynamics._flow_g

    def broken(x0, k, t):
        g = flow_g(x0, k, t)
        g[2, 1] = g[2, 1] @ np.diag([1.0, 1.0, 1.5])
        return g
    monkeypatch.setattr(dynamics, "_flow_g", broken)
    with pytest.raises(CertificationError,
                       match=r"^member 1: at sample 2 \(t = 0.5\): member 7: "
                             r"no Hermitian angle certifies") as info:
        trajectory(phase.sample_points("full", 3, (0, 1, 2)), 1, [0.0, 0.25, 0.5, 0.75])
    assert info.value.member == 1


def test_stacked_trajectory_strict_projection_names_member_sample_and_time():
    # an L that is not Hermitian in member 2 (eigh reads its lower triangle
    # only, so the flow runs) fails the strict projection at the first sample
    x = phase.sample_points("full", 3, (0, 1, 2))
    L = np.array(x.L)
    L[2, 0, 1] += 1e-6
    with pytest.raises(algebra.SubspaceError,
                       match=r"^member 2: at sample 0 \(t = 0.25\): member 2: "
                             r"discarded component has norm") as info:
        trajectory(FullPoint(x.g, L), 1, [0.25, 0.5])
    assert info.value.member == 2
    with pytest.raises(algebra.SubspaceError,
                       match=r"^at sample 0 \(t = 0.25\): member 0: discarded") as info:
        trajectory(FullPoint(x.g[2], L[2]), 1, [0.25, 0.5])
    assert info.value.member is None


def test_trajectory_passes_a_non_unitary_start_member_through():
    # _flow_g's member indexes the start points, not the grid: no sample is named
    x = phase.sample_points("full", 3, (0, 1, 2))
    g = np.array(x.g)
    g[2] *= 2.0
    with pytest.raises(CertificationError, match=r"^member 2: flow needs a unitary g") as info:
        trajectory(FullPoint(g, x.L), 1, [0.0, 0.5])
    assert info.value.member == 2


def test_flow_conserved_makes_one_trajectory_call(monkeypatch):
    calls = []
    run = dynamics.trajectory
    monkeypatch.setattr(dynamics, "trajectory", lambda *a: calls.append(a) or run(*a))
    res = checks.run_check(checks.CheckSpec("flow-conserved", n=3, seeds=4))
    assert res.passed and len(calls) == 1
    assert calls[0][0].g.shape == (4, 3, 3)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_flow_conserved_catches_a_planted_gauge_defect(n, monkeypatch):
    # one column of eta scaled by 1 + 1e-8 past the first sample makes the
    # reduced L drift from a unitary conjugate of L0 at relative 1e-8
    diagonalize = dynamics._diagonalize

    def planted(g):
        phases, eta, residual = diagonalize(g)
        eta[1:, :, 0] *= 1.0 + 1e-8
        return phases, eta, residual
    monkeypatch.setattr(dynamics, "_diagonalize", planted)
    res = checks.run_check(checks.CheckSpec("flow-conserved", n=n, seeds=3))
    assert res.passed is False and res.errors == []
    assert res.max_rel_defect > 1e-8


def test_trajectory_conserved_quantities_flat():
    x0 = sample_point("full", 4, 5)
    traj = trajectory(x0, 3, np.linspace(0.0, 1.0, 25))
    drift = np.max(np.abs(traj.conserved - traj.conserved[0]), axis=0)
    scale = 1.0 + np.max(np.abs(traj.conserved[0]))
    assert np.all(drift <= 1e-12 * scale)


def _rk4_stepped(x0, k, T, steps):
    """Classic RK4 on d/dt g = i L^k g, one step after another."""
    h = T / steps
    A = 1j * np.linalg.matrix_power(x0.L, k)
    g = x0.g.copy()
    for _ in range(steps):
        k1 = A @ g
        k2 = A @ (g + 0.5 * h * k1)
        k3 = A @ (g + 0.5 * h * k2)
        k4 = A @ (g + h * k3)
        g = g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return g


def test_trajectory_matches_rk4_on_eigenphases():
    # integrate d/dt g = i L^k g with classic RK4 and compare eigenphases
    x0 = sample_point("full", 3, 9)
    k, T, steps = 2, 1.0, 1000
    g = _rk4_stepped(x0, k, T, steps)
    exact = flow(x0, k, T)
    assert np.linalg.norm(g - exact.g) <= 1e-8 * (1 + np.linalg.norm(exact.g))
    red_rk4, _ = reduce_point(FullPoint(g, x0.L))
    red_ex, _ = reduce_point(exact)
    assert np.allclose(red_rk4.Q.q, red_ex.Q.q, atol=1e-8)
    # the flow-rk4 oracle, one matrix power of RK4's step polynomial, is the
    # same RK4 as the stepped loop
    for n in (2, 3, 4, 5):
        for seed in range(5):
            x = sample_point("full", n, seed)
            for kk in (1, 2):
                ref = _rk4_stepped(x, kk, T, steps)
                err = np.linalg.norm(checks._rk4_flow(x, kk, T, steps) - ref)
                assert err <= 1e-12 * np.linalg.norm(ref), (n, seed, kk)


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


def test_stacked_hamiltonians_equal_each_member_alone():
    # h_suth2 on a stack of Sutherland points and hk on the stack of their
    # L: one value per member, each the one-point value bit for bit
    for n in (2, 3, 4, 5, 6):
        seeds = range(40)
        x = phase.sample_points("suth", n, seeds)
        L = coords.from_suth(x).L
        got_h, got_k = h_suth2(x), hk(L, 2)
        assert got_h.shape == got_k.shape == (40,)
        for i, seed in enumerate(seeds):
            one = sample_point("suth", n, seed)
            assert float(got_h[i]).hex() == float(h_suth2(one)).hex(), (n, seed)
            alone = hk(coords.from_suth(one).L, 2)
            assert type(alone) is float and float(got_k[i]).hex() == alone.hex(), (n, seed)
