import dataclasses
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from rs_hierarchy import algebra, checks, config, coords, phase
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


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_sample_points_stack_the_draw_of_each_seed(chart):
    for n in (2, 3, 4, 5):
        seeds = (0, 3, 7)
        x = phase.sample_points(chart, n, seeds)
        assert type(x) is type(sample_point(chart, n, 0))
        assert phase.batch_shape(x) == (3,)
        for i, seed in enumerate(seeds):
            want = phase._arrays(sample_point(chart, n, seed))
            for (_, u, _), (_, v, _) in zip(phase._arrays(x), want, strict=True):
                assert u[i].tobytes() == v.tobytes()
                assert not u.flags.writeable   # the stack is memoized, as its members


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_memoized_sample_point_is_a_read_only_fresh_draw(chart):
    for n in (2, 3, 4, 5):
        for seed in range(5):
            x = sample_point(chart, n, seed)
            assert sample_point(chart, n, seed) is x
            fresh = phase._draw.__wrapped__(chart, n, seed)
            for (_, a, _), (_, b, _) in zip(phase._arrays(x), phase._arrays(fresh),
                                            strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0.0


def test_suite_run_draws_each_point_once(monkeypatch):
    phase.clear_memos()
    drawn = []
    rng = phase._rng
    monkeypatch.setattr(phase, "_rng", lambda *key: drawn.append(key) or rng(*key))
    checks.run_checks([checks.CheckSpec(cid, n=3, seeds=5) for cid in checks.CHECKS])
    assert sorted(drawn) == sorted((chart, 3, seed) for chart in phase.CHARTS
                                   for seed in range(5))


def test_sample_point_names_a_non_integer_n_or_seed():
    with pytest.raises(TypeError, match="n must be an integer, got 2.5"):
        sample_point("full", 2.5, 0)
    with pytest.raises(TypeError, match="seed must be an integer, got 1.0"):
        sample_point("full", 2, 1.0)
    assert sample_point("full", np.int64(2), np.int64(0)) is sample_point("full", 2, 0)
    with pytest.raises(TypeError, match=r"n must be an integer, got \[2\]"):
        phase.sample_points("full", [2], (0,))


def test_sample_points_rejects_an_empty_seed_tuple():
    with pytest.raises(ValueError, match="at least one seed"):
        phase.sample_points("full", 2, ())


def test_sample_points_rejects_a_non_integer_seed_even_when_memoized():
    phase.sample_points("full", 2, (0, 1))
    with pytest.raises(TypeError):
        phase.sample_points("full", 2, (0, 1.0))


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
    # an unhashable chart too, before the memo of either sampler hashes it
    for chart in ("bogus", ["full"]):
        with pytest.raises(ValueError, match="unknown chart"):
            sample_point(chart, 2, 0)
        with pytest.raises(ValueError, match="unknown chart"):
            phase.sample_points(chart, 2, (0,))


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
    phase.clear_memos()
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
    both = phase.fd_grad(lambda y: np.stack([F.value(y), H.value(y)], -1), x)
    assert type(both) is type(phase.grad(F, x))
    for i, A in enumerate((F, H)):
        for c, a in zip(both, phase.grad(A, x), strict=True):
            assert np.array_equal(c[i], a)


def _one(x):
    return np.eye(x.n)


# Per chart, the space of each gradient block and how a displacement D = hX
# along one of its basis elements X moves one point: a group element by
# 1 + hX on its side, every other coordinate by hX, the torus phases by
# Im diag(hX) and p by Re diag(hX).
_PER_POINT_MOVES = {
    "full": (("u", lambda x, D: FullPoint((_one(x) + D) @ x.g, x.L)),
             ("u", lambda x, D: FullPoint(x.g @ (_one(x) + D), x.L)),
             ("herm", lambda x, D: FullPoint(x.g, x.L + D))),
    "red": (("u0", lambda x, D: RedPoint(x.Q.shifted(np.diag(D).imag), x.L)),
            ("herm", lambda x, D: RedPoint(x.Q, x.L + D))),
    "rs": (("u0", lambda x, D: RSPoint(x.Q.shifted(np.diag(D).imag), x.p, x.lam)),
           ("b0", lambda x, D: RSPoint(x.Q, x.p + np.diag(D).real, x.lam)),
           ("bplus", lambda x, D: RSPoint(x.Q, x.p, (_one(x) + D) @ x.lam)),
           ("bplus", lambda x, D: RSPoint(x.Q, x.p, x.lam @ (_one(x) + D)))),
    "suth": (("u0", lambda x, D: SuthPoint(x.Q.shifted(np.diag(D).imag), x.p, x.phi)),
             ("herm0", lambda x, D: SuthPoint(x.Q, x.p + np.diag(D).real, x.phi)),
             ("hermperp", lambda x, D: SuthPoint(x.Q, x.p, x.phi + D))),
}


def _per_point_fd_grad(F, chart, x):
    """The central-difference loop one displaced point at a time, with its
    own statement of each chart's moves: the oracle for the batched sweep of
    phase.fd_grad."""
    h = fd_step(x)
    parts = []
    for space, move in _PER_POINT_MOVES[chart]:
        B, dual = algebra.dual_basis(space, x.n)
        d = np.array([(F(move(x, h * X)) - F(move(x, -h * X))) / (2.0 * h) for X in B])
        parts.append(np.tensordot(d, dual, axes=(0, 0)))
    return type(phase.grad(F, x))(*parts)


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


def _relaid(x, lay):
    """x with each field array a replaced by lay(a)."""
    return type(x)(*(TorusReg(lay(a)) if isinstance(v, TorusReg) else lay(a)
                     for v, a, _ in phase._arrays(x)))


def _wide(x, m):
    """x with every field broadcast (a read-only view) to a leading axis of
    length m."""
    return _relaid(x, lambda a: np.broadcast_to(a, (m,) + a.shape))


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
        for scale in (None, 1e-4):
            got = phase.fd_grad(F.value, ys, scale)
            for b, p in enumerate(points):
                for a, c in zip(got, phase.fd_grad(F.value, p, scale), strict=True):
                    assert np.array_equal(a[b], c), (params, scale, b)


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


def test_batch_shape_broadcasts_the_fields_and_rejects_what_does_not():
    # the batch axes of the fields broadcast by numpy's rule, a trailing
    # suffix shared; fields that do not broadcast raise at batch_shape, not
    # later inside point_norm
    g = _stack([sample_point("full", 3, seed) for seed in range(3)]).g
    L = sample_point("full", 3, 0).L
    assert phase.batch_shape(FullPoint(g, L)) == (3,)
    assert phase.batch_shape(FullPoint(g, np.stack([L, L])[:, None])) == (2, 3)
    with pytest.raises(ValueError):
        phase.batch_shape(FullPoint(g, np.stack([L, L])))


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
def test_fd_grad_hands_the_moved_point_as_it_is(chart):
    # per block, the moved field is a new, writeable array of batch axes
    # (2*dim,) + S; every other field reaches f as x's own array (or torus
    # element), neither copied nor broadcast, so those of a read-only sample
    # point refuse a write
    def f(y):
        seen.append(y)
        return np.zeros(phase.batch_shape(y))

    xs = [sample_point(chart, 3, 0), _stack([sample_point(chart, 3, s) for s in range(3)])]
    if chart == "full":   # L shared by a stack of three g
        xs.append(FullPoint(xs[1].g, sample_point("full", 3, 3).L))
    blocks = phase._CHART_TABLE[chart][1]
    for x in xs:
        S, seen = phase.batch_shape(x), []
        phase.fd_grad(f, x)
        for moved, block, y in zip(_MOVED[chart], blocks, seen, strict=True):
            dim = len(algebra.basis(block.space, 3))
            for (name, _), (v, a, s), (w, _, _) in zip(
                    phase._layout(type(x)), phase._arrays(y), phase._arrays(x), strict=True):
                if name == moved:
                    assert v is not w and a.flags.writeable, name
                    assert s == (2 * dim,) + S, (name, a.shape)
                else:
                    assert v is w, name
                    if x is xs[0]:
                        with pytest.raises(ValueError, match="read-only"):
                            a[...] = 0


@pytest.mark.parametrize("chart", ["full", "red", "suth"])
def test_grads_equal_grad_per_observable(chart, monkeypatch):
    # one sweep over the FD observables, the analytic gradient as is; at one
    # point and on a stack, at the default step scale and with FD_STEP_SCALE
    # patched to 1e-4, each equal bit for bit to a cold fd_grad of its value
    # alone at that scale, or to its analytic gradient
    Fs = [invariant_observable(1, 1, "re", chart=chart),
          invariant_observable(0, 2, "re", chart=chart),
          invariant_observable(1, 0, "im", chart=chart)]
    if chart != "suth":
        Fs.insert(1, hamiltonian_observable(2, chart=chart))
    for scale in (config.FD_STEP_SCALE, 1e-4):
        monkeypatch.setattr(phase, "FD_STEP_SCALE", scale)
        for x in (sample_point(chart, 3, 0),
                  _stack([sample_point(chart, 3, s) for s in range(3)])):
            phase.clear_memos()
            got = phase.grads(Fs, x)
            assert len(got) == len(Fs)
            for g, F in zip(got, Fs):
                want = (phase.grad(F, x) if F.grad is not None
                        else phase.fd_grad(F.value, x, scale))
                assert type(g) is type(want)
                for a, c in zip(g, want, strict=True):
                    assert a.tobytes() == c.tobytes(), (F.name, scale)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("chart", phase.CHARTS)
def test_grads_with_a_shared_chart_map_equal_grad(chart, n):
    # the invariant observables read one chart map per stencil stack (G
    # shares F's trace); an observable with any other value, here a product
    # of two invariant ones and the point norm, calls its own value.  Each
    # gradient equals a cold fd_grad of the observable's value alone bit for
    # bit, at one point and on a stack
    F = invariant_observable(1, 1, "re", chart=chart)
    G = invariant_observable(1, 1, "im", chart=chart)
    H = invariant_observable(1, 2, "re", chart=chart)
    K = invariant_observable(2, 1, "im", chart=chart)
    GH = Observable(chart, lambda y: G.value(y) * H.value(y), name="GH")
    Fs = [F, GH, Observable(chart, point_norm, name="norm"), G, H, K]
    for x in (sample_point(chart, n, 2), _stack([sample_point(chart, n, s) for s in (3, 4)])):
        phase.clear_memos()
        got = phase.grads(Fs, x)
        for g, A in zip(got, Fs, strict=True):
            for a, c in zip(g, phase.fd_grad(A.value, x), strict=True):
                assert a.shape == c.shape, A.name
                assert a.tobytes() == c.tobytes(), A.name


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_grads_maps_each_stencil_stack_once(chart, monkeypatch):
    # one call of the chart's (U, L) map per block covers every trace form of
    # the sweep, at all 2*dim stencil points of the block
    phase.clear_memos()
    calls = []
    ul = phase._UL_MAPS[chart]
    monkeypatch.setitem(phase._UL_MAPS, chart,
                        lambda y: calls.append(math.prod(phase.batch_shape(y))) or ul(y))
    Fs = [invariant_observable(*p, chart=chart)
          for p in ((1, 1, "re"), (0, 2, "re"), (2, 1, "im"), (1, 1, "im"))]
    phase.grads(Fs, sample_point(chart, 3, 0))
    assert len(calls) == len(phase._CHART_TABLE[chart][1])
    assert sum(calls) == {"full": 54, "red": 24, "rs": 36, "suth": 24}[chart]


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_memo_hit_is_a_read_only_cold_fd_grad(chart, monkeypatch):
    # a second sweep, in another order, and grad take the stored tuples;
    # each equals a cold fd_grad of its observable alone bit for bit, the
    # sign of every zero included (768 components over the four charts, at
    # the default step scale and with FD_STEP_SCALE patched to 1e-4)
    Fs = [invariant_observable(*p, chart=chart)
          for p in ((1, 1, "re"), (0, 2, "re"), (2, 1, "im"), (1, 2, "im"))]
    for scale in (config.FD_STEP_SCALE, 1e-4):
        monkeypatch.setattr(phase, "FD_STEP_SCALE", scale)
        for n in (2, 3, 4, 5):
            for x in (sample_point(chart, n, 0), phase.sample_points(chart, n, (1, 2, 3))):
                phase.clear_memos()
                first = phase.grads(Fs, x)
                again = phase.grads(Fs[::-1], x)[::-1]
                assert phase._GRADS.hits == len(Fs) and len(phase._GRADS) == len(Fs)
                assert phase.grad(Fs[1], x) is first[1]
                for F, g, h in zip(Fs, first, again, strict=True):
                    assert h is g
                    for a, c in zip(h, phase.fd_grad(F.value, x, scale), strict=True):
                        assert a.shape == c.shape, F.name
                        assert a.tobytes() == c.tobytes(), (F.name, n, scale)
                        assert not a.flags.writeable


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_an_fd_observable_is_memoized_under_its_value(chart):
    # a value that is not a trace form is memoized too: a second grad, and
    # another observable with the same value, take the stored read-only
    # tuple, equal to a cold fd_grad bit for bit
    F = Observable(chart, point_norm, name="norm")
    x = sample_point(chart, 3, 0)
    phase.clear_memos()
    g = phase.grad(F, x)
    assert phase.grad(F, x) is g
    assert all(d is g for d in phase.grads([dataclasses.replace(F, name="other"), F], x))
    assert phase._GRADS.hits == 2 and len(phase._GRADS) == 1
    for a, c in zip(g, phase.fd_grad(point_norm, x), strict=True):
        assert a.tobytes() == c.tobytes()
        assert not a.flags.writeable


def test_an_unhashable_fd_value_raises_value_error():
    # the memo keys on the value, so one without a hash is refused by name
    @dataclasses.dataclass
    class Norm:
        def __call__(self, y):
            return point_norm(y)

    F = Observable("red", Norm(), name="norm")
    with pytest.raises(ValueError, match="hashable"):
        phase.grad(F, sample_point("red", 3, 0))


def _rebuilt(x, edit=None):
    """x with fresh copies of its arrays; edit(name, a) may change one."""
    values = []
    for field in dataclasses.fields(x):
        v = getattr(x, field.name)
        a = (v.q if isinstance(v, TorusReg) else v).copy()
        if edit is not None:
            edit(field.name, a)
        values.append(TorusReg(a) if isinstance(v, TorusReg) else a)
    return type(x)(*values)


def _reversed_view(a):
    """A view of a copy of a, reversed along every axis, that reads as a."""
    view = np.flip(np.flip(a).copy())
    assert all(s < 0 for s in view.strides)
    return view


def _one_ulp_up(a):
    z = a.reshape(-1)[1]
    a.reshape(-1)[1] = (complex(np.nextafter(z.real, np.inf), z.imag)
                        if np.iscomplexobj(a) else np.nextafter(z, np.inf))


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_memo_keys_on_the_content_of_the_point_and_the_step_rule(chart, monkeypatch):
    F = invariant_observable(1, 1, "re", chart=chart)
    x = sample_point(chart, 3, 0)
    phase.clear_memos()
    g = phase.grad(F, x)
    # equal content hits: fresh arrays
    assert phase.grad(F, _rebuilt(x)) is g
    # a stack of copies and the same stack as broadcast views share a key
    assert phase.grad(F, _wide(x, 2)) is phase.grad(F, _stack([x, x]))
    assert phase._GRADS.hits == 2 and len(phase._GRADS) == 2
    # one ulp in any field misses
    for field in dataclasses.fields(x):
        y = _rebuilt(x, lambda name, a, field=field: name == field.name and _one_ulp_up(a))
        phase.grad(F, y)
    assert phase._GRADS.hits == 2
    assert len(phase._GRADS) == 2 + len(dataclasses.fields(x))
    # the step rule is FD_STEP_SCALE, read at call time: a patched scale
    # misses and takes fd_grad at the patched scale, and so does one ulp of
    # the default; with the default back, the first entry hits again
    monkeypatch.setattr(phase, "FD_STEP_SCALE", 2.0 * config.FD_STEP_SCALE)
    patched = phase.grad(F, x)
    assert phase._GRADS.hits == 2 and patched is not g
    assert fd_step(x) == 2.0 * config.FD_STEP_SCALE * (1.0 + point_norm(x))
    for a, c in zip(patched, phase.fd_grad(F.value, x, 2.0 * config.FD_STEP_SCALE),
                    strict=True):
        assert a.tobytes() == c.tobytes()
    assert phase.grad(F, x) is patched
    monkeypatch.setattr(phase, "FD_STEP_SCALE", np.nextafter(config.FD_STEP_SCALE, 1.0))
    phase.grad(F, x)
    assert phase._GRADS.hits == 3
    assert len(phase._GRADS) == 2 + len(dataclasses.fields(x)) + 2
    monkeypatch.undo()
    assert phase.grad(F, x) is g
    # the key is the content in C order: a Fortran-ordered copy and a
    # negative-stride view of equal content hit
    for lay in (np.asfortranarray, _reversed_view):
        assert phase.grad(F, _relaid(x, lay)) is g
    assert phase._GRADS.hits == 6
    # identical bytes under batch shapes (2,) and (2, 1) key apart
    y = _stack([x, x])
    z = _relaid(y, lambda a: a[:, None])
    entries = len(phase._GRADS)
    gz = phase.grad(F, z)
    assert len(phase._GRADS) == entries + 1 and gz[0].shape[:2] == (2, 1)
    for a, c in zip(gz, phase.grad(F, y), strict=True):
        assert a[:, 0].tobytes() == c.tobytes()


@pytest.mark.parametrize("chart,name", [("full", "g"), ("red", "L")])
def test_grads_refuses_an_object_field_before_any_lookup(chart, name, monkeypatch):
    # an object array's bytes are element addresses, so no key is built from
    # them: the ValueError names the field, and the memo is not consulted
    F = invariant_observable(1, 1, "re", chart=chart)
    x = sample_point(chart, 3, 0)
    y = dataclasses.replace(x, **{name: getattr(x, name).astype(object)})
    calls = _counted(monkeypatch, phase._GRADS, "lookup", "store")
    with pytest.raises(ValueError, match=f"{name} has dtype object"):
        phase.grad(F, y)
    assert calls == {"lookup": 0, "store": 0}


def _counted(monkeypatch, module, *names):
    """Count the calls of module.<name> for each name, through the module."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _f=getattr(module, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_a_warm_grads_call_computes_no_step(chart, monkeypatch):
    # at the default step a hit keys on the step rule, not on the step, so
    # it computes neither the step nor the point norm; a miss computes it
    Fs = [invariant_observable(*p, chart=chart) for p in ((1, 1, "re"), (0, 2, "re"))]
    for x in (sample_point(chart, 3, 0), phase.sample_points(chart, 3, (1, 2))):
        phase.clear_memos()
        cold = phase.grads(Fs, x)
        calls = _counted(monkeypatch, phase, "point_norm", "fd_step")
        assert all(a is b for a, b in zip(phase.grads(Fs, x), cold))
        assert calls == {"point_norm": 0, "fd_step": 0}
        assert phase._GRADS.hits == len(Fs)
        phase.grads(Fs[:1], _rebuilt(x, lambda name, a: _one_ulp_up(a)))
        assert calls == {"point_norm": 1, "fd_step": 1}
        monkeypatch.undo()


def test_grads_refuses_observables_of_another_chart():
    # the observables must share one chart and x must be its point: mixed
    # charts read every trace at the first one's chart map and stored the
    # wrong gradient under the other's key
    x_full, x_red = sample_point("full", 3, 0), sample_point("red", 3, 0)
    F_full = invariant_observable(1, 1, "re", chart="full")
    F_red = invariant_observable(1, 1, "re", chart="red")
    phase.clear_memos()
    g = phase.grad(F_full, x_full)
    cases = [([F_full, F_red], x_full, r"\['full', 'red'\] at a FullPoint"),
             ([F_red], x_full, r"\['red'\] at a FullPoint"),
             ([F_full, hamiltonian_observable(2, "red")], x_full,
              r"\['full', 'red'\] at a FullPoint"),
             ([F_full], x_red, r"\['full'\] at a RedPoint")]
    for Fs, x, match in cases:
        with pytest.raises(ValueError, match=match):
            phase.grads(Fs, x)
    assert len(phase._GRADS) == 1 and phase._GRADS.hits == 0
    assert phase.grad(F_full, x_full) is g
    assert type(phase.grad(F_red, x_red)) is phase.RedGrad


# Step scales that are not a finite positive number; a per-member array of
# steps, valid or not, is not a scale either.
_BAD_SCALES = [0.0, -1e-5, np.nan, np.inf, np.full(3, 1e-5), "1e-5"]


@pytest.mark.parametrize("scale", _BAD_SCALES,
                         ids=["zero", "negative", "nan", "inf", "array", "text"])
@pytest.mark.parametrize("chart", phase.CHARTS)
def test_a_step_that_is_not_finite_and_positive_is_refused(chart, scale):
    # fd_step and fd_grad refuse the scale by name, before any evaluation
    x = phase.sample_points(chart, 3, (0, 1, 2))
    evaluated = []
    with pytest.raises(ValueError, match="finite positive number, got"):
        phase.fd_step(x, scale)
    with pytest.raises(ValueError, match="finite positive number, got"):
        phase.fd_grad(evaluated.append, x, scale)
    assert evaluated == []


def test_a_sweep_that_raises_stores_nothing():
    def planted(y):
        raise FloatingPointError("planted")
    F = invariant_observable(1, 1, "re", chart="red")
    x = sample_point("red", 3, 0)
    phase.clear_memos()
    with pytest.raises(FloatingPointError, match="planted"):
        phase.grads([F, Observable("red", planted)], x)
    assert len(phase._GRADS) == 0
    phase.grad(F, x)
    assert len(phase._GRADS) == 1 and phase._GRADS.hits == 0


def test_a_full_memo_empties_and_keeps_its_hit_count(monkeypatch):
    # a store into a memo that holds `size` entries empties it first; the
    # hits stay counted, and clear() (clear_memos) resets them
    monkeypatch.setattr(phase, "_GRADS", phase._Memo(2))
    A, B, C = (invariant_observable(*p, chart="red")
               for p in ((1, 1, "re"), (0, 2, "re"), (2, 1, "im")))
    x = sample_point("red", 2, 0)
    a, _ = phase.grad(A, x), phase.grad(B, x)
    assert phase.grad(A, x) is a and len(phase._GRADS) == 2 and phase._GRADS.hits == 1
    c = phase.grad(C, x)
    assert len(phase._GRADS) == 1 and phase._GRADS.hits == 1
    assert phase.grad(C, x) is c and phase._GRADS.hits == 2
    again = phase.grad(A, x)
    assert again is not a and len(phase._GRADS) == 2 and phase._GRADS.hits == 2
    for p, q in zip(again, a, strict=True):
        assert p.tobytes() == q.tobytes()
    phase._GRADS.clear()
    assert len(phase._GRADS) == 0 and phase._GRADS.hits == 0


@pytest.mark.parametrize("chart,name", [("full", "g"), ("full", "L"), ("red", "L")])
def test_finite_differences_refuse_an_object_field_by_name(chart, name):
    # object arrays may reach the sharp maps, not the finite-difference path:
    # fd_grad, fd_step, point_norm and grads each raise ValueError naming the
    # field, not numpy's TypeError from inside member_norm, and f is not called
    F = invariant_observable(1, 1, "re", chart=chart)
    for x in (sample_point(chart, 3, 0), phase.sample_points(chart, 3, (0, 1))):
        y = dataclasses.replace(x, **{name: getattr(x, name).astype(object)})
        evaluated = []
        for call in (lambda: phase.fd_grad(evaluated.append, y), lambda: fd_step(y),
                     lambda: point_norm(y), lambda: phase.grad(F, y)):
            with pytest.raises(ValueError, match=f"numeric fields; {name} has dtype object$"):
                call()
        assert evaluated == []


def test_fd_grad_rejects_a_value_without_the_batch_axis():
    # the error names the batch shape of the moved points: 4 stencil points
    # of the torus block at n = 2, times the batch axes of x
    x = sample_point("red", 2, 0)
    with pytest.raises(ValueError, match=r"batch shape \(4,\) .* got shape \(\)$"):
        phase.fd_grad(lambda p: 1.0, x)
    ys = _stack([sample_point("red", 2, s) for s in range(3)])
    with pytest.raises(ValueError, match=r"batch shape \(4, 3\) .* got shape \(4,\)$"):
        phase.fd_grad(lambda p: np.zeros(4), ys)


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_fd_grad_reads_the_chart_from_the_point(chart):
    # no chart argument: the point's type gives the chart, and anything but a
    # chart point raises ValueError naming its type, in fd_grad, move and
    # project alike
    F = invariant_observable(1, 1, "re", chart=chart)
    x = sample_point(chart, 3, 0)
    g = phase.fd_grad(F.value, x)
    assert type(g) is phase._CHART_TABLE[chart][0]
    for bad in (object(), dataclasses.astuple(x), x.Q if chart != "full" else x.g):
        for call in (lambda: phase.fd_grad(F.value, bad), lambda: phase.move(bad, g),
                     lambda: phase.project(bad, g)):
            with pytest.raises(ValueError, match=f"not a chart point: a {type(bad).__name__}$"):
                call()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_projection_fixes_its_space_and_sends_the_paired_one_to_zero(n):
    # X = sum_a <D_a, V> B_a is the identity on each space's basis and zero
    # on the space its dual basis lies in, to rounding
    for space, paired in algebra._DUAL_PAIRS.items():
        B, W = algebra.basis(space, n), algebra.basis(paired, n)
        assert np.max(np.abs(phase._project(space, B) - B)) <= 1e-14, space
        assert np.max(np.abs(phase._project(space, W))) <= 1e-14, space


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_project_and_move_act_block_by_block(chart):
    # project maps each component onto its block's space and keeps a None
    # one; move by a tuple with one block set equals the per-point move of
    # that block, and leaves every other field as x's own array
    kind, blocks = phase._CHART_TABLE[chart]
    x = sample_point(chart, 3, 0)
    rng = np.random.default_rng(7)
    for k, (space, move) in enumerate(_PER_POINT_MOVES[chart]):
        B = algebra.basis(space, 3)
        X = np.tensordot(rng.standard_normal(len(B)), B, axes=1)
        V = [None] * len(blocks)
        V[k] = X + algebra.basis(algebra._DUAL_PAIRS[space], 3)[0]
        P = phase.project(x, kind(*V))
        assert all((p is None) == (i != k) for i, p in enumerate(P))
        assert np.max(np.abs(P[k] - X)) <= 1e-14
        D = [None] * len(blocks)
        D[k] = 1e-3 * X
        got, want = phase.move(x, kind(*D)), move(x, 1e-3 * X)
        for (name, _), (_, a, _), (_, b, _), (_, c, _) in zip(
                phase._layout(type(x)), phase._arrays(got), phase._arrays(want),
                phase._arrays(x), strict=True):
            assert a.tobytes() == b.tobytes(), (k, name)
            if name != blocks[k].field:
                assert a is c, (k, name)


# ---------------------------------------------------------------------------
# the one norm rule: member_norm is np.linalg.norm over each member


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_member_norm_is_numpys_norm_over_the_matrix_axes(n):
    # bit for bit on C-contiguous stacks of the shapes the package measures:
    # one point, fd_grad's (2 * dim,) + S and the Jacobiator's (3, 2, b) + S
    rng = np.random.default_rng(n)
    S, dim, b = (3,), n * n, 2
    for batch in ((), (2 * dim,) + S, (3, 2, b) + S):
        for a in (_complex(rng, batch + (n, n)), rng.standard_normal(batch + (n, n))):
            got = phase.member_norm(a)
            want = np.linalg.norm(a, axis=(-2, -1))
            assert got.shape == batch and got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), (n, batch, a.dtype)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_member_norm_of_a_view_equals_each_member_alone(n):
    # transposed, strided and broadcast views: each member bit for bit that
    # member on its own, and numpy's norm of its C-contiguous copy
    a = _complex(np.random.default_rng(10 + n), (2, 3, n, n))
    views = (a.swapaxes(-1, -2), a.swapaxes(0, 1), a[:, ::2], a.real.swapaxes(-1, -2),
             np.broadcast_to(a[0, 0], (2, 3, n, n)), np.broadcast_to(a[:, :1], (2, 3, n, n)))
    for v in views:
        got = phase.member_norm(v)
        assert got.shape == v.shape[:-2]
        for i in np.ndindex(got.shape):
            assert got[i] == phase.member_norm(v[i]), (n, i)
            assert got[i] == np.linalg.norm(np.ascontiguousarray(v[i]), axis=(-2, -1)), (n, i)


def test_member_norm_of_a_tuple_and_with_explicit_batch_axes():
    # a tuple's member norm is the root of its components' squared ones; a
    # vector field (Q.q, p) names its batch axes S, each member equal to
    # that member alone (S = ())
    rng = np.random.default_rng(4)
    S = (4,)
    A, B = _complex(rng, S + (3, 3)), rng.standard_normal(S + (3, 3))
    want = np.sqrt(phase.member_norm(A) ** 2 + phase.member_norm(B) ** 2)
    assert phase.member_norm((A, B)).tobytes() == want.tobytes()
    for v in (rng.standard_normal(S + (3,)), _complex(rng, S + (3,))):
        got = phase.member_norm(v, S)
        assert got.shape == S
        assert got.tobytes() == np.linalg.norm(v, axis=-1).tobytes()
        for i in range(4):
            assert got[i] == phase.member_norm(v[i], ())


@pytest.mark.parametrize("chart", phase.CHARTS)
def test_point_norm_of_a_stack_equals_each_member_alone(chart):
    for n in (2, 3, 4, 5):
        seeds = (0, 1, 2)
        got = point_norm(phase.sample_points(chart, n, seeds))
        assert got.shape == (3,)
        for i, seed in enumerate(seeds):
            assert got[i] == point_norm(sample_point(chart, n, seed)), (n, seed)


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
# finite-difference error model


# Step scales of the truncation tests, each half the one before.  Not the
# default FD_STEP_SCALE = 6.1e-6: there truncation and rounding balance, so
# a halving would not show the h^2 law.  At these scales the O(h^2)
# truncation stands far above rounding wherever it is not zero.
_HALVED_SCALES = (4e-4, 2e-4, 1e-4)


def _matrix_norms(a):
    """Frobenius norm of each (n, n) matrix of a stack."""
    return np.linalg.norm(a, axis=(-2, -1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("chart", ["full", "red"])
def test_fd_truncation_falls_fourfold_per_halved_scale(chart, n):
    # central differences err by O(h^2): against the analytic d2 of H_k,
    # each halving of the scale divides the error of every member by a
    # factor in [3, 5] (measured: 3.9999 to 4.0001 over all cases here)
    x = phase.sample_points(chart, n, range(5))
    for k in (3, 4, 5):
        H = hamiltonian_observable(k, chart)
        want = phase.grad(H, x).d2

        def value(y):
            return np.broadcast_to(H.value(y), phase.batch_shape(y))
        errors = [_matrix_norms(phase.fd_grad(value, x, scale).d2 - want)
                  for scale in _HALVED_SCALES]
        for coarse, fine in zip(errors, errors[1:]):
            assert ((3.0 * fine <= coarse) & (coarse <= 5.0 * fine)).all(), (k, coarse / fine)


def _full_trace_gradient(m, k, part, x):
    """(D1, D1', d2) of Re/Im tr(g^m L^k) at the full-chart point x in closed
    form: with c = i for re and 1 for im, b(.) the b-part of split_ub and
    ah(.) the anti-Hermitian part, D1 = b(c sum_{a<m} g^{m-a} L^k g^a),
    D1' = b(c sum_{a<m} g^{m-1-a} L^k g^{a+1}) and
    d2 = ah(c sum_{b<k} L^{k-1-b} g^m L^b)."""
    c = 1j if part == "re" else 1.0
    gp = [np.linalg.matrix_power(x.g, a) for a in range(m + 1)]
    Lp = [np.linalg.matrix_power(x.L, b) for b in range(k + 1)]
    zero = np.zeros(np.broadcast_shapes(x.g.shape, x.L.shape), dtype=complex)
    D1 = c * sum((gp[m - a] @ Lp[k] @ gp[a] for a in range(m)), zero)
    D1p = c * sum((gp[m - 1 - a] @ Lp[k] @ gp[a + 1] for a in range(m)), zero)
    d2 = c * sum((Lp[k - 1 - b] @ gp[m] @ Lp[b] for b in range(k)), zero)
    return phase.FullGrad(algebra.split_ub(D1)[1], algebra.split_ub(D1p)[1],
                          0.5 * (d2 - d2.conj().swapaxes(-1, -2)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_full_chart_gradient_against_its_closed_form(n):
    # every component, the group ones included, at the default step: one
    # FD level, measured at most 1.8e-9 of 1 + max|entry| per member
    x = phase.sample_points("full", n, range(5))
    for params in ((2, 1, "im"), (1, 2, "im"), (2, 2, "re"), (1, 0, "im"), (0, 1, "re")):
        got = phase.grad(invariant_observable(*params, chart="full"), x)
        for name, a, b in zip(got._fields, got, _full_trace_gradient(*params, x), strict=True):
            size = 1.0 + np.max(np.abs(b), axis=(-2, -1))
            assert (np.max(np.abs(a - b), axis=(-2, -1)) <= 1e-8 * size).all(), (params, name)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_full_chart_truncation_falls_fourfold_per_halved_scale(n):
    # along the lines (1 + tX) g, g (1 + tX) and L + tY the observable is a
    # polynomial in t, of degree m in g and k in L; from degree 3 on, its
    # central difference errs by h^2/6 times its third derivative, the
    # fifth-derivative term vanishing for m, k <= 4.  So against the closed
    # form each halving of the scale divides every component's error by a
    # factor in [3, 5] (measured: 3.99995 to 4.00012)
    x = phase.sample_points("full", n, range(5))
    for params in ((3, 3, "re"), (4, 3, "im")):
        F = invariant_observable(*params, chart="full")
        want = _full_trace_gradient(*params, x)
        errors = [[_matrix_norms(a - b) for a, b in zip(phase.fd_grad(F.value, x, scale), want)]
                  for scale in _HALVED_SCALES]
        for coarse, fine in zip(errors, errors[1:]):
            for name, c, f in zip(want._fields, coarse, fine, strict=True):
                assert ((3.0 * f <= c) & (c <= 5.0 * f)).all(), (params, name, c / f)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("chart", ["rs", "suth"])
def test_fd_richardson_differences_fall_fourfold_per_halved_scale(chart, n):
    # without an analytic gradient, the difference g(h) - g(h/2), about
    # (3/4) c h^2, falls by 4 per halving too: per member, component and
    # observable, the ratio of successive differences lies in [3, 5], or
    # both sit under the rounding floor 1e-9 (1 + max|g|) of a component
    # without truncation error (measured: 4.00 where it applies; the suth
    # p and phi components of the first observable differ by 3e-12 to 1e-11).
    # Every observable here moves with the torus phases, so DQ must fall
    # fourfold: a step that ignored the scale would leave all at the floor
    x = phase.sample_points(chart, n, range(5))
    Fs = [invariant_observable(*p, chart=chart) for p in ((1, 1, "re"), (1, 2, "re"),
                                                          (2, 1, "im"))]

    def values(y):
        return np.stack([F.value(y) for F in Fs], -1)
    gs = [phase.fd_grad(values, x, scale) for scale in _HALVED_SCALES]
    for name, (coarse, mid, fine) in zip(gs[0]._fields, zip(*gs), strict=True):
        d_coarse, d_fine = _matrix_norms(coarse - mid), _matrix_norms(mid - fine)
        floor = 1e-9 * (1.0 + np.max(np.abs(fine), axis=(-2, -1)))
        fourfold = (d_fine > floor) & (3.0 * d_fine <= d_coarse) & (d_coarse <= 5.0 * d_fine)
        rounding = (d_coarse <= floor) & (d_fine <= floor)
        assert (fourfold if name == "DQ" else fourfold | rounding).all(), (name, d_coarse, d_fine)


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
    # tr(g^m L^k), a zeroth power the identity, agrees with the trace of the
    # matmul of the two powers within the rounding bound of trace_product
    # (c n eps |g^m| |L^k|, c = TRACE_PRODUCT_C = 2 as in test_algebra; the
    # largest ratio here is 0.09), and a stack's values equal its members'
    # bit for bit
    points = [sample_point("full", n, seed) for seed in range(3)]
    eps = np.finfo(float).eps
    for m, k in ((0, 1), (0, 2), (1, 0), (2, 0), (1, 1)):
        for part, take in (("re", np.real), ("im", np.imag)):
            F = invariant_observable(m, k, part, chart="full")
            got = [F(p) for p in points]
            for p, v in zip(points, got):
                A, B = np.linalg.matrix_power(p.g, m), np.linalg.matrix_power(p.L, k)
                bound = 2.0 * n * eps * np.linalg.norm(A) * np.linalg.norm(B)
                assert abs(v - take(np.trace(A @ B))) <= bound
            assert np.array_equal(F.value(_stack(points)), got)


def test_invariant_observable_rejects_trivial():
    with pytest.raises(ValueError):
        invariant_observable(0, 0)


@pytest.mark.parametrize("make", [lambda: invariant_observable(1.5, 1),
                                  lambda: invariant_observable(1, 2.0),
                                  lambda: hamiltonian_observable(1.5),
                                  lambda: hamiltonian_observable(2.0, chart="red")],
                         ids=["m=1.5", "k=2.0", "H_1.5", "H_2.0-red"])
def test_observables_take_integer_powers_only(make):
    # a power that is not an integer is refused where the observable is made,
    # not in numpy's matrix_power inside a later sweep
    with pytest.raises(TypeError):
        make()


def test_observables_take_numpy_integer_powers():
    assert invariant_observable(np.int64(1), np.int64(2)).name == "re-tr(g^1 L^2)[full]"
    assert hamiltonian_observable(np.int32(2)).name == "H_2[full]"


def test_equal_observable_arguments_give_equal_observables_of_one_memo_entry():
    # each call builds a new observable after the checks; equal arguments (a
    # numpy integer power for the int among them) give equal observables,
    # which hash equal and share one gradient memo entry
    F = invariant_observable(1, 2, "im", chart="rs")
    G = invariant_observable(np.int64(1), 2, part="im", chart="rs")
    assert G is not F and G == F and hash(G) == hash(F)
    assert invariant_observable(1, 2, "re", chart="rs") != F
    assert invariant_observable(1, 2, "im", chart="suth") != F
    # a _Trace hashes as the tuple of its fields, and equal ones are equal
    assert hash(F.value) == hash(("rs", 1, 2, "im"))
    assert phase._Trace("rs", 1, 2, "im") == F.value
    x = sample_point("rs", 3, 0)
    phase.clear_memos()
    g = phase.grad(F, x)
    assert phase.grad(G, x) is g and all(d is g for d in phase.grads([F, G], x))
    assert len(phase._GRADS) == 1 and phase._GRADS.hits == 2
    # a Hamiltonian of an equal power gives the same analytic gradient
    H, K = hamiltonian_observable(2, chart="red"), hamiltonian_observable(np.int32(2), "red")
    assert H.name == K.name == "H_2[red]"
    y = sample_point("red", 3, 0)
    for a, b in zip(phase.grad(H, y), phase.grad(K, y), strict=True):
        assert a.tobytes() == b.tobytes()
    assert len(phase._GRADS) == 1


def test_an_unpickled_trace_hashes_in_its_own_process():
    # the hash stored at construction is not carried over: a process with
    # other string hashes computes its own from the fields
    data = pickle.dumps(invariant_observable(2, 1, "im", chart="suth"))
    code = ("import pickle, sys\n"
            "F = pickle.loads(sys.stdin.buffer.read())\n"
            "print(hash(F.value) == hash(('suth', 2, 1, 'im')))")
    for seed in ("1", "2"):
        res = subprocess.run([sys.executable, "-c", code], input=data, capture_output=True,
                             env=dict(os.environ, PYTHONHASHSEED=seed))
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == b"True"


@pytest.mark.parametrize("k", [2.0, 1.5, "2"])
def test_cached_observables_still_take_integer_powers_only(k):
    # H_2 and re-tr(g^1 L^2) are built first; a float equal to 2 must not
    # build them again
    hamiltonian_observable(2, chart="red")
    invariant_observable(1, 2)
    with pytest.raises(TypeError):
        hamiltonian_observable(k, chart="red")
    with pytest.raises(TypeError):
        invariant_observable(1, k)


@pytest.mark.parametrize("kwargs,match", [
    ({"part": "real"}, "unknown part"), ({"part": ["re"]}, "unknown part"),
    ({"chart": "polar"}, "unknown chart"), ({"chart": ["full"]}, "unknown chart")])
def test_observable_factories_check_part_and_chart_before_their_cache(kwargs, match):
    # an unknown or unhashable part or chart raises the factory's ValueError,
    # not a TypeError from hashing it
    invariant_observable(1, 1)
    with pytest.raises(ValueError, match=match):
        invariant_observable(1, 1, **kwargs)
    if "chart" in kwargs:
        with pytest.raises(ValueError, match="full or reduced chart"):
            hamiltonian_observable(1, **kwargs)


def test_point_norm_positive():
    for chart in ("full", "red", "rs", "suth"):
        assert point_norm(sample_point(chart, 3, 0)) > 0
