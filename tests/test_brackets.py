import dataclasses
import functools
import math

import numpy as np
import pytest

from rs_hierarchy import algebra, brackets as br, coords, phase
from rs_hierarchy.phase import (Observable, hamiltonian_observable,
                                invariant_observable, sample_point)


def _pair(chart):
    return (invariant_observable(1, 1, "re", chart=chart),
            invariant_observable(0, 2, "re", chart=chart))


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
    # <L, [d2f, d2h]_{R(Q)}> term
    x = sample_point("red", 3, 3)
    f = hamiltonian_observable(2, chart="red")
    h = Observable("red", lambda p: np.real(np.trace(p.L @ p.L @ p.L, axis1=-2, axis2=-1)))
    gf = phase.grad_red(f, x)
    gh = phase.grad_red(h, x)
    direct = algebra.pairing(x.L, algebra.r_bracket(x.Q, gf.d2, gh.d2))
    assert br.pb1_red(f, h, x) == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_pencil_endpoints():
    F, H = _pair("full")
    x = sample_point("full", 3, 4)
    assert br.pencil(0.0)(F, H, x) == pytest.approx(br.pb1_full(F, H, x))
    v = br.pencil(1.0)(F, H, x)
    w = br.pencil(1.0)(H, F, x)
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


def _triple(chart):
    return tuple(invariant_observable(m, k, part, chart=chart)
                 for m, k, part in ((1, 1, "re"), (0, 2, "re"), (1, 0, "re")))


def test_jacobi_defect_small_for_brackets():
    F, G, H = _triple("full")
    x = sample_point("full", 2, 8)
    for bracket in (br.pb1_full, br.pb2_full, br.pencil(0.5)):
        scale = 1 + sum(abs(bracket(a, b, x)) for a, b in ((F, G), (G, H), (H, F)))
        assert abs(br.jacobi_defect(bracket, F, G, H, x)) <= 1e-4 * scale


def test_jacobi_defect_reduced_and_suth():
    for chart, bracket in [("red", br.pb1_red), ("red", br.pb2_red),
                           ("suth", br.pb_suth)]:
        F, G, H = _triple(chart)
        x = sample_point(chart, 2, 9)
        scale = 1 + sum(abs(bracket(a, b, x)) for a, b in ((F, G), (G, H), (H, F)))
        assert abs(br.jacobi_defect(bracket, F, G, H, x)) <= 1e-4 * scale


def test_jacobiator_gives_pencil_defects():
    # the defect of s_1*pb1 + s_2*pb2 is the quadratic form s.T.s
    F, G, H = _triple("full")
    x = sample_point("full", 2, 8)
    T = br.jacobiator((br.pb1_full, br.pb2_full), F, G, H, x)
    assert T.shape == (2, 2)
    assert T[0, 0] == br.jacobi_defect(br.pb1_full, F, G, H, x)
    assert T[1, 1] == br.jacobi_defect(br.pb2_full, F, G, H, x)
    for s in (-1.0, 0.5, 1.0):
        bracket = br.pencil(s)
        direct = br.jacobi_defect(bracket, F, G, H, x)
        scale = 1 + sum(abs(bracket(a, b, x)) for a, b in ((F, G), (G, H), (H, F)))
        c = np.array([1.0, s])
        assert abs(c @ T @ c - direct) <= 1e-10 * scale


def _stack(points):
    """One chart point holding `points` along the batch axis."""
    def values(p):
        return [getattr(p, f.name) for f in dataclasses.fields(p)]
    return type(points[0])(*(
        algebra.TorusReg(np.stack([v.q for v in vs]))
        if isinstance(vs[0], algebra.TorusReg)
        else np.stack(vs) for vs in zip(*map(values, points))))


STACK_BRACKETS = ALL_BRACKETS + [(br.pencil(0.5), "full")]


@pytest.mark.parametrize("bracket,chart", STACK_BRACKETS,
                         ids=[f"{b.name}-{chart}" for b, chart in STACK_BRACKETS])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_contract_on_a_stack_equals_per_member(bracket, chart, n):
    # one contraction over a stack of points and gradients gives each
    # member's value bit for bit; one point still gives a float
    F, H = _pair(chart)
    points = [sample_point(chart, n, seed) for seed in range(3)]
    grads = [[phase.grad(A, x) for x in points] for A in (F, H)]
    dF, dH = (type(g[0])(*map(np.stack, zip(*g))) for g in grads)
    got = bracket.contract(_stack(points), dF, dH)
    assert got.shape == (len(points),)
    for b, x in enumerate(points):
        want = bracket.contract(x, grads[0][b], grads[1][b])
        assert type(want) is float
        assert got[b] == want, b


def _counted(F):
    count = {"points": 0, "calls": 0}   # points: the length of each stack's batch axis

    def value(x):
        count["points"] += math.prod(phase.batch_shape(x))
        count["calls"] += 1
        return F.value(x)
    return dataclasses.replace(F, value=value), count


# At n = 3 a gradient costs 54 evaluations on the full chart and 24 on the
# reduced and Sutherland charts.  A Jacobi defect takes one outer gradient
# of each of F, G, H and, at each of the outer stencil points, one inner
# gradient of each: 3*54 + 54*3*54 = 8910 and 3*24 + 24*3*24 = 1800.  The
# Jacobiator of two brackets reuses the same gradients for both.  Each
# gradient block is one call: the outer gradients make 3 * blocks calls, and
# the inner ones one call per block per observable per outer block,
# 3 * blocks^2: 9 + 27 = 36 on the full and Sutherland charts (3 blocks) and
# 6 + 12 = 18 on the reduced chart (2 blocks).
@pytest.mark.parametrize("jacobi,chart,evals,calls", [
    (functools.partial(br.jacobi_defect, br.pb1_full), "full", 8910, 36),
    (functools.partial(br.jacobi_defect, br.pb2_full), "full", 8910, 36),
    (functools.partial(br.jacobiator, (br.pb1_full, br.pb2_full)), "full", 8910, 36),
    (functools.partial(br.jacobi_defect, br.pb1_red), "red", 1800, 18),
    (functools.partial(br.jacobi_defect, br.pb2_red), "red", 1800, 18),
    (functools.partial(br.jacobi_defect, br.pb_suth), "suth", 1800, 36),
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


def test_jacobi_defect_needs_a_bracket():
    F, G, H = _triple("full")
    x = sample_point("full", 2, 0)
    with pytest.raises(TypeError, match="Bracket"):
        br.jacobi_defect(lambda A, B, y: br.pb1_full(A, B, y), F, G, H, x)
    with pytest.raises(TypeError, match="Bracket"):
        br.jacobiator((br.pb1_full, functools.partial(br.pb2_full)), F, G, H, x)
