import dataclasses
import functools
import math

import numpy as np
import pytest

from rs_hierarchy import algebra, brackets as br, config, coords, dynamics, phase
from rs_hierarchy.algebra import comm, pairing, r_apply, split_ub
from rs_hierarchy.phase import (Observable, hamiltonian_observable,
                                invariant_observable, sample_point, sample_points)
from test_phase import _stack, _wide


def _pair(chart):
    return (invariant_observable(1, 1, "re", chart=chart),
            invariant_observable(0, 2, "re", chart=chart))


def _pencil(s):
    """The bracket pb1_full + s*pb2_full, a reference for the pencil that the
    registry checks through the Jacobiator's quadratic form: the slotwise
    sum of the two maps, pb1_full's None slot read as zero."""
    def sharp(x, dH):
        return phase.FullGrad(*(s * b if a is None else a + s * b for a, b in
                                zip(br.pb1_full.sharp(x, dH), br.pb2_full.sharp(x, dH))))
    return br.Bracket("full", sharp, f"pencil({s})")


ALL_BRACKETS = [
    (br.pb1_full, "full"), (br.pb2_full, "full"),
    (br.pb1_red, "red"), (br.pb2_red, "red"),
    (br.pb_rs, "rs"), (br.pb_suth, "suth"),
]


@pytest.mark.parametrize("bracket,chart", ALL_BRACKETS,
                         ids=[f"{b.name}-{chart}" for b, chart in ALL_BRACKETS])
def test_antisymmetry_on_invariant_pair(bracket, chart):
    F, H = _pair(chart)
    for seed in range(3):
        x = sample_point(chart, 3, seed)
        v1, v2 = bracket(F, H, x), bracket(H, F, x)
        assert abs(v1 + v2) <= 1e-10 * (1 + abs(v1) + abs(v2))
        assert abs(bracket(F, F, x)) <= 1e-10 * (1 + abs(v1))


def test_hamiltonians_in_involution():
    x = sample_point("full", 3, 0)
    for k in range(1, 5):
        for l in range(1, 5):
            Hk, Hl = hamiltonian_observable(k), hamiltonian_observable(l)
            scale = 1 + abs(Hk(x)) + abs(Hl(x))
            assert abs(br.pb1_full(Hk, Hl, x)) <= 1e-12 * scale
            assert abs(br.pb2_full(Hk, Hl, x)) <= 1e-12 * scale


def test_hamiltonians_in_involution_reduced():
    x = sample_point("red", 3, 0)
    for k in range(1, 4):
        for l in range(1, 4):
            hk_ = hamiltonian_observable(k, chart="red")
            hl = hamiltonian_observable(l, chart="red")
            scale = 1 + abs(hk_(x)) + abs(hl(x))
            assert abs(br.pb1_red(hk_, hl, x)) <= 1e-12 * scale
            assert abs(br.pb2_red(hk_, hl, x)) <= 1e-12 * scale


def test_bihamiltonian_ladder_full_and_red():
    F = invariant_observable(1, 1, "re", chart="full")
    f = invariant_observable(1, 1, "re", chart="red")
    xf = sample_point("full", 3, 1)
    xr = sample_point("red", 3, 1)
    for k in range(1, 5):
        a = br.pb2_full(F, hamiltonian_observable(k), xf)
        b = br.pb1_full(F, hamiltonian_observable(k + 1), xf)
        assert abs(a - b) <= 1e-8 * (1 + abs(a) + abs(b))
        a = br.pb2_red(f, hamiltonian_observable(k, chart="red"), xr)
        b = br.pb1_red(f, hamiltonian_observable(k + 1, chart="red"), xr)
        assert abs(a - b) <= 1e-8 * (1 + abs(a) + abs(b))


def test_full_bracket_against_direct_contraction_and_flow():
    n = 2
    x = sample_point("full", n, 0)
    F = Observable("full", lambda p: np.real(np.trace(p.g, axis1=-2, axis2=-1)))
    H = hamiltonian_observable(2)

    # direct contraction of the defining formula with the gradients
    gF = phase.grad_full(F, x)
    gH = phase.grad_full(H, x)
    direct = (algebra.pairing(gF.D1, gH.d2) - algebra.pairing(gH.D1, gF.d2)
              + algebra.pairing(x.L, algebra.comm(gF.d2, gH.d2)))
    assert br.pb1_full(F, H, x) == pytest.approx(direct, rel=1e-12, abs=1e-12)
    # independent check: the bracket generates the known flow,
    # {F, H_2}(x) = d/dt|0 F(e^{itL} g)
    h = 1e-6

    def curve(t):
        w, V = np.linalg.eigh(x.L)
        U = (V * np.exp(1j * t * w)) @ V.conj().T
        return F(phase.FullPoint(U @ x.g, x.L))
    fd = (curve(h) - curve(-h)) / (2 * h)
    assert br.pb1_full(F, H, x) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_leibniz_rule():
    for bracket, chart in [(br.pb1_full, "full"), (br.pb2_full, "full"),
                           (br.pb1_red, "red"), (br.pb_suth, "suth")]:
        F, G = _pair(chart)
        H = invariant_observable(2, 1, "re", chart=chart)
        GH = Observable(chart, lambda y: G.value(y) * H.value(y))
        x = sample_point(chart, 3, 2)
        lhs = bracket(F, GH, x)
        rhs = G(x) * bracket(F, H, x) + H(x) * bracket(F, G, x)
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(lhs) + abs(rhs))


def test_pb_rs_p_only_functions_commute():
    x = sample_point("rs", 3, 0)
    F = Observable("rs", lambda p: np.sum(np.exp(2 * p.p), axis=-1))
    H = Observable("rs", lambda p: np.sum(p.p ** 2, axis=-1))
    assert abs(br.pb_rs(F, H, x)) <= 1e-8 * (1 + abs(F(x)) + abs(H(x)))


def test_pb_rs_against_direct_contraction():
    # the source states 2{F,H} = <DQ F, dp H> - <DQ H, dp F>
    #                            + <Dlam' F, lam^{-1} Dlam H lam>
    F, H = _pair("rs")
    x = sample_point("rs", 2, 1)
    gF = phase.grad_rs(F, x)
    gH = phase.grad_rs(H, x)
    rhs = (algebra.pairing(gF.DQ, gH.dp) - algebra.pairing(gH.DQ, gF.dp)
           + algebra.pairing(gF.Dlamp, np.linalg.inv(x.lam) @ gH.Dlam @ x.lam))
    assert br.pb_rs(F, H, x) == pytest.approx(0.5 * rhs, rel=1e-12, abs=1e-12)


def test_pb_suth_momentum_functions_commute():
    x = sample_point("suth", 3, 0)
    F = Observable("suth", lambda p: np.sum(p.p ** 2, axis=-1))
    H = Observable("suth", lambda p: np.sum(p.p ** 3, axis=-1))
    assert abs(br.pb_suth(F, H, x)) <= 1e-8 * (1 + abs(F(x)) + abs(H(x)))


def test_casimir_term_matches_direct_r_bracket():
    # for functions of L alone (no Q dependence), pb1_red reduces to the
    # <L, [A, B]_{R(Q)}> term, [A, B]_R = [R A, B] + [A, R B]
    x = sample_point("red", 3, 3)
    f = hamiltonian_observable(2, chart="red")
    h = Observable("red", lambda p: np.real(np.trace(p.L @ p.L @ p.L, axis1=-2, axis2=-1)))
    A, B = phase.grad_red(f, x).d2, phase.grad_red(h, x).d2
    R = functools.partial(algebra.r_apply, x.Q)
    direct = algebra.pairing(x.L, algebra.comm(R(A), B) + algebra.comm(A, R(B)))
    assert br.pb1_red(f, h, x) == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_pencil_endpoints():
    F, H = _pair("full")
    x = sample_point("full", 3, 4)
    assert _pencil(0.0)(F, H, x) == pytest.approx(br.pb1_full(F, H, x))
    v = _pencil(1.0)(F, H, x)
    w = _pencil(1.0)(H, F, x)
    assert abs(v + w) <= 1e-10 * (1 + abs(v))


def test_reduced_brackets_match_full_chart():
    for n in (2, 3):
        x = sample_point("red", n, 5)
        xf = phase.FullPoint(x.Q.matrix(), x.L)
        f, h = _pair("red")
        F, H = _pair("full")
        for red_b, full_b in [(br.pb1_red, br.pb1_full), (br.pb2_red, br.pb2_full)]:
            a, b = red_b(f, h, x), full_b(F, H, xf)
            assert abs(a - b) <= 1e-6 * (1 + abs(a) + abs(b))


def test_rs_chart_bracket_matches_reduced_second():
    for n in (2, 3):
        x = sample_point("rs", n, 6)
        y = coords.from_rs(x)
        F, H = _pair("rs")
        f, h = _pair("red")
        a, b = br.pb_rs(F, H, x), br.pb2_red(f, h, y)
        gn = np.sqrt(sum(np.linalg.norm(c) ** 2 for c in phase.grad_rs(F, x))) * \
            np.sqrt(sum(np.linalg.norm(c) ** 2 for c in phase.grad_rs(H, x)))
        assert abs(a - b) <= 1e-5 * (1 + abs(a) + abs(b) + gn)


def test_suth_chart_bracket_matches_reduced_first():
    for n in (2, 3):
        x = sample_point("suth", n, 6)
        y = coords.from_suth(x)
        F, H = _pair("suth")
        f, h = _pair("red")
        a, b = br.pb_suth(F, H, x), br.pb1_red(f, h, y)
        assert abs(a - b) <= 1e-6 * (1 + abs(a) + abs(b))


def test_jacobi_defect_degenerate_triple():
    F, H = _pair("full")
    x = sample_point("full", 2, 7)
    d = br.jacobi_defect(br.pb1_full, F, F, H, x)
    assert abs(d) <= 1e-4 * (1 + abs(br.pb1_full(F, H, x)))


@pytest.mark.parametrize("bracket", [br.pb1_full, br.pb2_full, br.pb1_red, br.pb2_red,
                                     br.pb_suth], ids=lambda b: b.name)
def test_jacobi_defect_of_a_stack_is_each_member_alone(bracket):
    # a float at one point and one value per member of a stacked point, each
    # that of its point alone, bit for bit
    F, G, H = _triple(bracket.chart)
    got = br.jacobi_defect(bracket, F, G, H, sample_points(bracket.chart, 3, (0, 1)))
    assert type(got) is np.ndarray and got.shape == (2,)
    for i, seed in enumerate((0, 1)):
        alone = br.jacobi_defect(bracket, F, G, H, sample_point(bracket.chart, 3, seed))
        assert type(alone) is float and got[i].hex() == alone.hex(), seed


def _zero(x):
    return np.zeros(phase.batch_shape(x))


@pytest.mark.parametrize("brackets", [(br.pb1_full, br.pb2_full), (br.pb1_red, br.pb2_red),
                                      (br.pb_suth,)], ids=lambda bs: bs[0].chart)
def test_jacobiator_reads_zero_along_a_zero_vector_field(brackets):
    # a constant F has dF = 0, so every X^j_F is zero: its outer difference
    # takes no step and reads 0 (no division by |X| = 0), and the values
    # {H,F} and {F,G} vanish at every moved point, so T is 0 exactly
    chart = brackets[0].chart
    _, G, H = _triple(chart)
    x = sample_points(chart, 2, (0, 1))
    T = br.jacobiator(brackets, Observable(chart, _zero), G, H, x)
    assert T.shape == (len(brackets),) * 2 + (2,)
    assert np.all(T == 0.0)


def _triple(chart):
    return tuple(invariant_observable(m, k, part, chart=chart)
                 for m, k, part in ((1, 1, "re"), (0, 2, "re"), (1, 0, "re")))


def test_jacobi_defect_small_for_brackets():
    F, G, H = _triple("full")
    x = sample_point("full", 2, 8)
    for bracket in (br.pb1_full, br.pb2_full, _pencil(0.5)):
        scale = 1 + sum(abs(bracket(a, b, x)) for a, b in ((F, G), (G, H), (H, F)))
        assert abs(br.jacobi_defect(bracket, F, G, H, x)) <= 1e-4 * scale


def test_jacobi_defect_reduced_and_suth():
    for chart, bracket in [("red", br.pb1_red), ("red", br.pb2_red),
                           ("suth", br.pb_suth)]:
        F, G, H = _triple(chart)
        x = sample_point(chart, 2, 9)
        scale = 1 + sum(abs(bracket(a, b, x)) for a, b in ((F, G), (G, H), (H, F)))
        assert abs(br.jacobi_defect(bracket, F, G, H, x)) <= 1e-4 * scale


def _pair_value_scale(brackets, F, G, H, x):
    """1 + the sum of |b(P, R)| over the brackets and the cyclic pairs: the
    scale of a Jacobi row's samples."""
    return 1 + sum(abs(b(P, R, x)) for b in brackets for P, R in ((F, G), (G, H), (H, F)))


def test_jacobiator_gives_pencil_defects():
    # the defect of s_1*pb1 + s_2*pb2 is the quadratic form s.T.s, up to the
    # outer differences: each is taken along its own bracket's vector field,
    # and a directional difference is not linear in its direction (they
    # differ by 4.9e-7 here), so the form agrees with the pencil's own
    # defect at the Jacobi rows' level
    F, G, H = _triple("full")
    x = sample_point("full", 2, 8)
    T = br.jacobiator((br.pb1_full, br.pb2_full), F, G, H, x)
    assert T.shape == (2, 2)
    assert T[0, 0] == br.jacobi_defect(br.pb1_full, F, G, H, x)
    assert T[1, 1] == br.jacobi_defect(br.pb2_full, F, G, H, x)
    for s in (-1.0, 0.5, 1.0):
        bracket = _pencil(s)
        direct = br.jacobi_defect(bracket, F, G, H, x)
        c = np.array([1.0, s])
        scale = _pair_value_scale((bracket,), F, G, H, x)
        assert abs(c @ T @ c - direct) <= config.NESTED / 2 * scale


STACK_BRACKETS = ALL_BRACKETS + [(_pencil(0.5), "full")]


@pytest.mark.parametrize("bracket,chart", STACK_BRACKETS,
                         ids=[f"{b.name}-{chart}" for b, chart in STACK_BRACKETS])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_contract_on_a_stack_equals_per_member(bracket, chart, n):
    # one contraction over a stack of points and gradients gives each
    # member's value bit for bit; one point still gives a float
    F, H = _pair(chart)
    points = [sample_point(chart, n, seed) for seed in range(3)]
    grads = [[phase.grad(A, x) for x in points] for A in (F, H)]
    dF, dH = (br.stack(g) for g in grads)
    x = _stack(points)
    got = bracket.contract(x, dF, dH)
    assert got.shape == (len(points),)
    for b, xb in enumerate(points):
        want = bracket.contract(xb, grads[0][b], grads[1][b])
        assert type(want) is float
        assert got[b] == want, b
    # a leading pair axis in front of the stack, the point broadcast over it
    # by numpy: each pair's values equal those of contract on that pair
    # alone, also on the point with every field broadcast to the pair axis
    # first; the 2 x 2 grid of views of one stack of dF, dH, whose pair axes
    # broadcast against each other, gives the same (grid[i, j] pairs member
    # i with member j)
    pairs = [(dF, dH), (dH, dF), (dF, dF), (dH, dH)]
    left, right = (br.stack(side) for side in zip(*pairs))
    got = bracket.contract(x, left, right)
    assert got.shape == (len(pairs), 3)
    for p, (a, b) in enumerate(pairs):
        assert got[p].tobytes() == bracket.contract(x, a, b).tobytes(), p
    assert bracket.contract(_wide(x, len(pairs)), left, right).tobytes() == got.tobytes()
    d = br.stack((dF, dH))
    grid = bracket.contract(x, br.take(d, np.s_[:, None]), br.take(d, np.s_[None, :]))
    assert grid.shape == (2, 2, 3)
    assert grid.reshape(4, 3).tobytes() == got[[2, 0, 1, 3]].tobytes()


@pytest.mark.parametrize("bracket", [br.pb1_red, br.pb2_red], ids=lambda b: b.name)
def test_reduced_maps_form_the_r_multiplier_once_per_contract(monkeypatch, bracket):
    # the point's own factor r_multiplier(Q) is formed once per contract call
    # on a stack of pairs, whether a map reads it through r_apply or itself
    shapes = []
    r_multiplier = algebra.r_multiplier

    def counting(Q):
        shapes.append(Q.q.shape)
        return r_multiplier(Q)
    monkeypatch.setattr(algebra, "r_multiplier", counting)
    monkeypatch.setattr(br, "r_multiplier", counting, raising=False)
    x = sample_points("red", 3, (0, 1, 2))
    dF, dH = phase.grads(_pair("red"), x)
    left, right = br.stack((dF, dH, dF, dH)), br.stack((dH, dF, dF, dH))
    assert bracket.contract(x, left, right).shape == (4, 3)
    assert shapes == [(3, 3)]


def _per_pair_jacobiator(brackets, F, G, H, x):
    """The jacobiator in its full-gradient form: the outer level takes the
    gradients of F, G, H and of every inner value along each basis direction
    at FD_OUTER_STEP_SCALE and contracts them, one contract call per bracket
    and pair."""
    def inner(ys):
        dF, dG, dH = phase.grads((F, G, H), ys)
        T = np.array([[b.contract(ys, dG, dH), b.contract(ys, dH, dF),
                       b.contract(ys, dF, dG)] for b in brackets])
        return np.moveaxis(T, (0, 1), (-2, -1))

    outer = [phase.fd_grad(A.value, x, config.FD_OUTER_STEP_SCALE) for A in (F, G, H)]
    D = phase.fd_grad(inner, x, config.FD_OUTER_STEP_SCALE)
    d_inner = [[type(D)(*(part[..., i, c, :, :] for part in D)) for c in range(3)]
               for i in range(len(brackets))]
    return np.array([[sum(b.contract(x, dA, dBC) for dA, dBC in zip(outer, row))
                      for row in d_inner] for b in brackets])


JACOBI_TUPLES = [(br.pb1_full,), (br.pb2_full,), (br.pb1_full, br.pb2_full),
                 (br.pb1_red, br.pb2_red), (br.pb_suth,)]


@pytest.mark.parametrize("brackets", JACOBI_TUPLES,
                         ids=["+".join(b.name for b in bs) for bs in JACOBI_TUPLES])
def test_jacobiator_equals_its_per_pair_form(brackets):
    # the differences along vector fields against the full-gradient form:
    # two estimates of the same T, each with its own truncation and rounding,
    # so every entry agrees within NESTED/2 of the pair-value scale (at most
    # 8.6e-6 of it at n = 2..5, seeds 0..2)
    F, G, H = _triple(brackets[0].chart)
    for n in (2, 3, 4, 5):
        for seed in range(3):
            x = sample_point(brackets[0].chart, n, seed)
            got = br.jacobiator(brackets, F, G, H, x)
            want = _per_pair_jacobiator(brackets, F, G, H, x)
            assert got.shape == want.shape == (len(brackets),) * 2
            scale = _pair_value_scale(brackets, F, G, H, x)
            assert np.all(np.abs(got - want) <= config.NESTED / 2 * scale), (n, seed)


@pytest.mark.parametrize("chart", ["full", "red"])
def test_jacobiator_with_analytic_observables(chart):
    # an analytic gradient at an inner stencil point, whose moved field has
    # batch (2*dim,) + S and the others S, has the point's whole batch: the
    # defects are small for one point and each member of a stack equals the
    # member alone; with all three analytic too (Hamiltonians commute)
    b1, b2 = (br.pb1_full, br.pb2_full) if chart == "full" else (br.pb1_red, br.pb2_red)
    F, G, _ = _triple(chart)
    H = [hamiltonian_observable(k, chart) for k in (1, 2, 3)]
    for A, B, C in ((F, G, H[1]), (F, H[1], H[2]), tuple(H)):
        x = sample_point(chart, 2, 8)
        T = br.jacobiator((b1, b2), A, B, C, x)
        assert T.shape == (2, 2)
        assert T[0, 0] == br.jacobi_defect(b1, A, B, C, x)
        assert np.all(np.abs(T) <= 1e-4 * _pair_value_scale((b1, b2), A, B, C, x)), T
        seeds = (8, 0, 1)
        Ts = br.jacobiator((b1, b2), A, B, C, sample_points(chart, 2, seeds))
        assert Ts.shape == (2, 2, 3)
        for i, seed in enumerate(seeds):
            want = br.jacobiator((b1, b2), A, B, C, sample_point(chart, 2, seed))
            assert Ts[..., i].tobytes() == want.tobytes(), seed


def _counted(F):
    count = {"points": 0, "calls": 0}   # points: the length of each stack's batch axis

    def value(x):
        count["points"] += math.prod(phase.batch_shape(x))
        count["calls"] += 1
        return F.value(x)
    return dataclasses.replace(F, value=value), count


# At n = 3 a gradient costs 54 evaluations on the full chart and 24 on the
# reduced and Sutherland charts.  A Jacobiator of b brackets takes the
# gradients of F, G, H at x and, at each of its 6 * b moved points (one per
# outer bracket, observable and sign), one of each again:
# 3*54 + 6*3*54 = 1134 for one bracket, 3*54 + 12*3*54 = 2106 for two on the
# full chart and 3*24 + 6*3*24 = 504 on the others.  Each gradient block is one
# call per observable in each of the two sweeps, 2 * 3 * blocks calls: 18 on
# the full and Sutherland charts (3 blocks) and 12 on the reduced chart (2).
@pytest.mark.parametrize("jacobi,chart,evals,calls", [
    (functools.partial(br.jacobi_defect, br.pb1_full), "full", 1134, 18),
    (functools.partial(br.jacobi_defect, br.pb2_full), "full", 1134, 18),
    (functools.partial(br.jacobiator, (br.pb1_full, br.pb2_full)), "full", 2106, 18),
    (functools.partial(br.jacobi_defect, br.pb1_red), "red", 504, 12),
    (functools.partial(br.jacobi_defect, br.pb2_red), "red", 504, 12),
    (functools.partial(br.jacobi_defect, br.pb_suth), "suth", 504, 18),
], ids=["pb1_full", "pb2_full", "mixed_full", "pb1_red", "pb2_red", "pb_suth"])
def test_jacobi_evaluation_counts(jacobi, chart, evals, calls):
    counted = [_counted(F) for F in _triple(chart)]
    jacobi(*(F for F, _ in counted), sample_point(chart, 3, 0))
    assert sum(count["points"] for _, count in counted) == evals
    assert sum(count["calls"] for _, count in counted) == calls


def test_bracket_chart_mismatch_raises():
    F = invariant_observable(1, 1, "re", chart="full")
    h = invariant_observable(1, 1, "re", chart="red")
    x = sample_point("full", 2, 0)
    with pytest.raises(ValueError):
        br.pb1_full(F, h, x)
    with pytest.raises(ValueError):
        br.jacobi_defect(br.pb1_full, F, F, h, x)


def test_jacobiator_needs_at_least_one_bracket():
    F, G, H = _triple("full")
    with pytest.raises(ValueError, match="at least one bracket"):
        br.jacobiator((), F, G, H, sample_point("full", 2, 0))


def test_jacobiator_reads_a_one_shot_iterable_of_brackets():
    # a generator of brackets gives the tuple's T; its validation loop used
    # it up before, and the sweep met no bracket
    F, G, H = _triple("full")
    x = sample_point("full", 2, 0)
    pair = (br.pb1_full, br.pb2_full)
    want = br.jacobiator(pair, F, G, H, x)
    got = br.jacobiator((b for b in pair), F, G, H, x)
    assert got.shape == (2, 2) and got.tobytes() == want.tobytes()


def test_jacobi_defect_needs_a_bracket():
    F, G, H = _triple("full")
    x = sample_point("full", 2, 0)
    with pytest.raises(TypeError, match="Bracket"):
        br.jacobi_defect(lambda A, B, y: br.pb1_full(A, B, y), F, G, H, x)
    with pytest.raises(TypeError, match="Bracket"):
        br.jacobiator((br.pb1_full, functools.partial(br.pb2_full)), F, G, H, x)


# ---------------------------------------------------------------------------
# the source's bilinear forms, each bracket as it is stated there: the
# reference of every Bracket's map, whose contract must equal it


def _pi1_full(x, gF, gH):
    return (pairing(gF.D1, gH.d2) - pairing(gH.D1, gF.d2)
            + pairing(x.L, comm(gF.d2, gH.d2)))


def _pi2_full(x, gF, gH):
    LdF = x.L @ gF.d2
    LdH = x.L @ gH.d2
    ginv = x.g.conj().swapaxes(-1, -2)
    return (pairing(gF.D1, LdH) - pairing(gH.D1, LdF)
            + 2.0 * pairing(LdF, split_ub(LdH)[0])
            - 0.5 * pairing(gF.D1p, ginv @ gH.D1 @ x.g))


def _pi1_red(x, gf, gh):
    # <L, [d2f, d2h]_R> with [X, Y]_R = [R X, Y] + [X, R Y]
    return (pairing(gf.D1, gh.d2) - pairing(gh.D1, gf.d2)
            + pairing(x.L, comm(r_apply(x.Q, gf.d2), gh.d2) + comm(gf.d2, r_apply(x.Q, gh.d2))))


def _pi2_red(x, gf, gh):
    Ldf = x.L @ gf.d2
    Ldh = x.L @ gh.d2
    return (pairing(gf.D1, Ldh) - pairing(gh.D1, Ldf)
            + 2.0 * pairing(Ldf, r_apply(x.Q, Ldh)))


def _pi_rs(x, gF, gH):
    # The source states the Ruijsenaars-chart bracket with a factor 2 on the
    # left-hand side; the 1/2 gives it the normalization of the other charts.
    lam_inv = np.linalg.inv(x.lam)
    return 0.5 * (pairing(gF.DQ, gH.dp) - pairing(gH.DQ, gF.dp)
                  + pairing(gF.Dlamp, lam_inv @ gH.Dlam @ x.lam))


def _pi_suth(x, gF, gH):
    return (pairing(gF.DQ, gH.dp) - pairing(gH.DQ, gF.dp)
            + pairing(x.phi, comm(gF.dphi, gH.dphi)))


SOURCE_FORMS = {br.pb1_full: _pi1_full, br.pb2_full: _pi2_full, br.pb1_red: _pi1_red,
                br.pb2_red: _pi2_red, br.pb_rs: _pi_rs, br.pb_suth: _pi_suth}


def _covectors(chart, n, shape, rng):
    """A gradient tuple of `chart` whose components are random real
    combinations of each block's dual basis, of batch shape `shape`: covectors
    of the right spaces, but no gradient of any function."""
    kind, blocks = phase._CHART_TABLE[chart]
    duals = (algebra.dual_basis(b.space, n)[1] for b in blocks)
    return kind(*(np.tensordot(rng.standard_normal(shape + (len(D),)), D, axes=1)
                  for D in duals))


@pytest.mark.parametrize("bracket", list(br.BRACKETS.values()), ids=lambda b: b.name)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_contract_equals_the_source_form(bracket, n):
    # on 5 seeds and a 4 x 3 grid of pairs, dF's pair axis against dH's,
    # every term of the source's form is seen, including those that no
    # invariant pair reaches; agreement to rounding of the values
    x = sample_points(bracket.chart, n, range(5))
    rng = np.random.default_rng([31, n])
    dF = _covectors(bracket.chart, n, (4, 1, 5), rng)
    dH = _covectors(bracket.chart, n, (1, 3, 5), rng)
    got = bracket.contract(x, dF, dH)
    want = SOURCE_FORMS[bracket](x, dF, dH)
    assert got.shape == want.shape == (4, 3, 5)
    assert np.all(np.abs(got - want) <= 1e-14 * (1 + np.abs(want).max()))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hamiltonian_maps_give_the_flow_velocity(n):
    # dynamics.flow moves g by g(t) = exp(i t L^k) g and leaves L: its
    # velocity is (i L^k, 0, 0) in the displacements (left of g, right of g,
    # of L) of the full chart.  pb1_full's map of dH_{k+1} and pb2_full's of
    # dH_k give it: each slot paired with the dual basis of its block is the
    # velocity's coordinates in that block's basis, 0 for a None slot
    x = sample_points("full", n, range(5))
    duals = [algebra.dual_basis(b.space, n)[1][:, None] for b in phase._CHART_TABLE["full"][1]]
    dH = phase.grads([hamiltonian_observable(k) for k in range(1, 5)], x)
    for k in (1, 2, 3):
        iLk = 1j * np.linalg.matrix_power(x.L, k)
        velocity = [pairing(duals[0], iLk), 0.0, 0.0]
        size = 1 + np.linalg.norm(x.L, axis=(-2, -1)) ** k
        for V in (br.pb1_full.sharp(x, dH[k]), br.pb2_full.sharp(x, dH[k - 1])):
            for D, v, want in zip(duals, V, velocity):
                got = 0.0 if v is None else pairing(D, v)
                assert np.all(np.abs(got - want) <= 1e-14 * size), (k, D.shape)
        # the left slot against a central difference of the flow at t = 0,
        # g'(0) g^dagger, with a step scaled to the generator i L^k
        h = config.FD_STEP_SCALE / size.max()
        dg = (dynamics.flow(x, k, h).g - dynamics.flow(x, k, -h).g) / (2 * h)
        fd = pairing(duals[0], dg @ x.g.conj().swapaxes(-1, -2))
        assert np.all(np.abs(fd - velocity[0]) <= config.FD * size), k
