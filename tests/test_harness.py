import dataclasses
import json
import math
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rs_hierarchy
from rs_hierarchy import brackets as br
from rs_hierarchy import algebra, checks, cli, config, coords, dynamics, phase, reporting
from rs_hierarchy.algebra import r_apply
from rs_hierarchy.checks import CheckSpec, run_check, run_checks, suite_checks
from rs_hierarchy.phase import sample_point
from test_brackets import _per_pair_jacobiator

CLI = [sys.executable, "-m", "rs_hierarchy.cli"]


# ---------------------------------------------------------------------------
# check registry and runner


def test_registry_suites_cover_all_checks():
    covered = set()
    for suite in checks.SUITES:
        ids = suite_checks(suite)
        assert ids, suite
        covered.update(ids)
    assert covered == set(checks.CHECKS)
    assert suite_checks("all") == list(checks.CHECKS)


def test_spec_validation():
    with pytest.raises(KeyError):
        CheckSpec("no-such-check")
    with pytest.raises(KeyError, match="unknown check id"):   # unhashable: not a TypeError
        CheckSpec(["antisymmetry"])
    with pytest.raises(ValueError):
        CheckSpec("antisymmetry", n=1)
    with pytest.raises(ValueError):
        CheckSpec("antisymmetry", seeds=0)


def test_spec_names_a_non_integer_n():
    # refused where the spec is made, not as a seed error of the run
    with pytest.raises(TypeError, match="n must be an integer, got 2.5"):
        CheckSpec("leibniz", n=2.5, seeds=1)
    assert type(CheckSpec("leibniz", n=np.int64(2), seeds=1).n) is int


def test_spec_names_a_non_integer_seeds():
    with pytest.raises(TypeError, match="seeds must be an integer, got 1.5"):
        CheckSpec("leibniz", n=2, seeds=1.5)


def test_run_checks_empty_report():
    report = run_checks([])
    assert set(report) == {"library_version", "specs", "checks", "all_passed"}
    assert report["checks"] == []
    assert report["all_passed"] is True
    assert report["library_version"] == rs_hierarchy.__version__


# At n = 3 a gradient costs 54 evaluations on the full chart, 36 on the rs
# chart and 24 on the reduced and Sutherland charts.  A transfer check takes
# two gradients on each side for each of its 3 invariant pairs and reuses
# the two on its own side for the scale: 3 * 2 * (24 + 54) = 468 and so on.
# The antisymmetry check takes the two gradients of each invariant pair once
# per chart for all of the chart's brackets, on each of the four charts:
# 3 * 2 * (54 + 24 + 36 + 24) = 828.
# A ladder takes F's gradient once (the dH_k are analytic): 54 and 24.
# Leibniz takes dF, dG and dH once per chart, forms d(GH) from them, and
# evaluates G and H at x: 3 * 54 + 2 + 2 * (3 * 24 + 2) + 3 * 36 + 2 = 422.
# Each check takes all its gradients on one chart in one sweep, so the chart
# map runs once per block of that sweep: 4 from_rs calls for rs-bracket and
# antisymmetry, 3 from_suth calls for suth-bracket and antisymmetry, 4 + 1
# and 3 + 1 for leibniz (its sweep, then G(x) and H(x) from one map of x),
# and 2 sweeps of 3 blocks for jacobi-suth (one at x, whose gradients
# also give the scale, and one on its 6 moved points: 3 * 24 + 6 * 3 * 24 =
# 504, the points of its Jacobi defect).
# The map the transfer rows apply to x itself is bound at import, so it is
# not counted.  Every row evaluates all its seeds in those sweeps: its
# points grow with the number of seeds and its chart-map calls do not.
_MAP_CALLS = {"rs-bracket": {"from_rs": 4}, "suth-bracket": {"from_suth": 3},
              "antisymmetry": {"from_rs": 4, "from_suth": 3},
              "leibniz": {"from_rs": 5, "from_suth": 4},
              "jacobi-suth": {"from_suth": 6}}


def _count_trace_points(monkeypatch) -> list:
    # a counter of the points at which an invariant observable's _Trace is
    # read, at the shared (U, L) of its stack, whose batch axes broadcast
    points = [0]
    at = phase._Trace.at

    def counting_at(self, U, L):
        points[0] += math.prod(np.broadcast_shapes(U.shape[:-2], L.shape[:-2]))
        return at(self, U, L)
    monkeypatch.setattr(phase._Trace, "at", counting_at)
    return points


@pytest.mark.parametrize("check_id,evals", [
    ("reduction-pb1", 468), ("reduction-pb2", 468),
    ("rs-bracket", 360), ("suth-bracket", 288), ("antisymmetry", 828),
    ("ladder-full", 54), ("ladder-red", 24), ("leibniz", 422), ("jacobi-suth", 504),
])
def test_check_evaluation_counts(monkeypatch, check_id, evals):
    # count evaluated points, the size of each batch, over every observable
    # the check evaluates: an invariant observable's _Trace where it is read,
    # any other value where it is called; each run from an empty memo
    points = _count_trace_points(monkeypatch)
    post_init = phase.Observable.__post_init__

    def counting_post_init(self):
        post_init(self)
        value = self.value
        if isinstance(value, phase._Trace):
            return

        def counting(x):
            points[0] += math.prod(phase.batch_shape(x))
            return value(x)
        object.__setattr__(self, "value", counting)
    monkeypatch.setattr(phase.Observable, "__post_init__", counting_post_init)
    calls = {}
    for name in ("from_rs", "from_suth"):
        def counting_map(x, f=getattr(coords, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return f(x)
        monkeypatch.setattr(coords, name, counting_map)
    for seeds in ((0,), (0, 1, 2)):
        phase.clear_memos()
        points[0] = 0
        calls.clear()
        checks.CHECKS[check_id].func(3, seeds)
        assert points[0] == evals * len(seeds), seeds
        assert calls == _MAP_CALLS.get(check_id, {}), seeds


# Rows that take the gradients an earlier row of the suite took, at the same
# points and steps, the earlier row and the points the row still sweeps per
# seed.  leibniz still reads G(x) and H(x) on each of its four charts; those
# values are not gradients.  rs-bracket takes its rs-chart gradients from
# antisymmetry and sweeps the 6 reduced-chart ones at from_rs(x), 24 points
# each at n = 3.  No Jacobi row is here: each moves its points along its own
# brackets' vector fields, so no two rows share their moved points.
_WARM_ROWS = {"reduction-pb2": ("reduction-pb1", 0), "leibniz": ("antisymmetry", 2 * 4),
              "rs-bracket": ("antisymmetry", 6 * 24),
              "ladder-full": ("antisymmetry", 0), "ladder-red": ("antisymmetry", 0)}


def test_rows_take_the_gradients_of_earlier_rows_from_the_memo(monkeypatch):
    # the suite in its order at n = 3 from an empty memo: each row above
    # takes every gradient from the memo, so it sweeps no _Trace point
    phase.clear_memos()
    points = _count_trace_points(monkeypatch)
    seeds = (0, 1, 2)
    counts = {}
    for check_id in suite_checks("all"):
        points[0] = 0
        checks.CHECKS[check_id].func(3, seeds)
        counts[check_id] = points[0]
    for check_id, (earlier, values) in _WARM_ROWS.items():
        assert counts[earlier] > 0, earlier
        assert counts[check_id] == values * len(seeds), check_id


def test_a_second_run_of_every_row_only_hits_the_memo(monkeypatch):
    # the warm run stores no gradient, takes every one from the memo and
    # writes the same entries
    specs = [CheckSpec(cid, n=3, seeds=2) for cid in suite_checks("all")]
    phase.clear_memos()
    cold = run_checks(specs)
    entries, hits = len(phase._GRADS), phase._GRADS.hits
    assert 0 < entries < phase._MEMO_SIZE   # none was dropped
    stored = []
    monkeypatch.setattr(phase._GRADS, "store", lambda key, value: stored.append(key))
    warm = run_checks(specs)
    assert stored == [] and len(phase._GRADS) == entries and phase._GRADS.hits > hits
    strip = lambda report: [{k: v for k, v in e.items() if k != "wall_time"}
                            for e in report["checks"]]
    assert strip(warm) == strip(cold)


def test_a_warm_jacobi_row_computes_one_norm_and_calls_no_np_stack(monkeypatch):
    # warm, every gradient is a hit keyed on the step scale, and gradients
    # stack with np.array: the one point norm left forms the outer step of
    # jacobiator
    spec = CheckSpec("jacobi-full-1", n=3, seeds=2)
    phase.clear_memos()
    cold = run_check(spec)
    calls = {"stack": 0, "point_norm": 0}
    for module, name in ((np, "stack"), (phase, "point_norm")):
        def counting(*args, _f=getattr(module, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(module, name, counting)
    warm = run_check(spec)
    assert calls == {"stack": 0, "point_norm": 1}
    assert (warm.max_abs_defect, warm.max_rel_defect) == (cold.max_abs_defect,
                                                          cold.max_rel_defect)


@pytest.mark.parametrize("check_id", [cid for cid in checks.CHECKS if cid.startswith("jacobi-")])
def test_a_jacobi_row_makes_two_gradient_lookups_and_two_sharp_maps_per_bracket(
        monkeypatch, check_id):
    # the hardware-independent cost of a row, cold and warm: the jacobiator's
    # lookups at x and at the moved points, and per bracket its fields at x,
    # which also give the row's pair values, and its one contract at the
    # moved points
    func = checks.CHECKS[check_id].func
    calls = {}

    def counted(name, f):
        def counting(*args, **kw):
            calls[name] += 1
            return f(*args, **kw)
        return counting
    brackets = tuple(dataclasses.replace(b, sharp=counted(b.name, b.sharp))
                     for b in func.args[0])
    monkeypatch.setattr(phase, "grads", counted("grads", phase.grads))
    body = partial(func.func, brackets, *func.args[1:])
    phase.clear_memos()
    runs = []
    for _ in ("cold", "warm"):
        calls = dict.fromkeys(["grads"] + [b.name for b in brackets], 0)
        runs.append(body(3, (0, 1)))
        assert calls == {"grads": 2, **{b.name: 2 for b in brackets}}
    assert all(w.tobytes() == c.tobytes() for w, c in zip(*runs))


# the rows of the sweep-n2-5 and jacobi-n3 benchmark workloads
_ORDER_ROWS = ("antisymmetry", "leibniz", "ladder-full", "ladder-red", "involutivity",
               "reduction-pb1", "reduction-pb2", "rs-bracket", "suth-bracket",
               "roundtrip-rs", "roundtrip-suth", "bplus-residual", "hamiltonian-rs",
               "hamiltonian-suth", "jacobi-full-1", "jacobi-full-2", "jacobi-pencil",
               "jacobi-red", "jacobi-suth")


def test_results_do_not_depend_on_the_order_of_the_rows():
    # forward, in reverse and each row from an empty memo: the same defects
    # and worst seed, bit for bit
    def run(check_id, cold=False):
        if cold:
            phase.clear_memos()
        r = run_check(CheckSpec(check_id, n=3, seeds=3))
        assert not r.errors, (check_id, r.errors)
        return r.max_abs_defect.hex(), r.max_rel_defect.hex(), r.worst_seed

    phase.clear_memos()
    forward = {cid: run(cid) for cid in _ORDER_ROWS}
    phase.clear_memos()
    reverse = {cid: run(cid) for cid in reversed(_ORDER_ROWS)}
    cold = {cid: run(cid, cold=True) for cid in _ORDER_ROWS}
    assert reverse == forward
    assert cold == forward


def test_antisymmetry_hk_takes_each_gradient_once(monkeypatch):
    # its three pairs hold three distinct Hamiltonians, each in two pairs:
    # one analytic gradient per Hamiltonian, not one per pair member, and
    # one for the whole stack of seeds
    taken = []
    make = phase.hamiltonian_observable

    def counted(k, chart="full"):
        H = make(k, chart)
        return dataclasses.replace(H, grad=lambda x: taken.append(H.name) or H.grad(x))
    monkeypatch.setattr(checks, "hamiltonian_observable", counted)
    checks.CHECKS["antisymmetry-hk"].func(3, (0, 1, 2))
    assert sorted(taken) == ["H_1[full]", "H_2[full]", "H_3[full]"]


def test_observable_families_are_built_once_as_tuples():
    # a repeated family call returns the same tuple, of observables equal to
    # the factories' own; each distinct parameter tuple is built once, so a
    # Hamiltonian in two pairs is one object
    for chart in phase.CHARTS:
        pairs, triple = checks.invariant_pairs(chart), checks.invariant_triple(chart)
        assert checks.invariant_pairs(chart) is pairs and checks.invariant_triple(chart) is triple
        assert type(pairs) is tuple and all(type(pair) is tuple for pair in pairs)
        assert type(triple) is tuple
        assert pairs[0][0] == triple[0] == phase.invariant_observable(1, 1, "re", chart=chart)
    hk = checks._hamiltonian_pairs("full")
    assert checks._hamiltonian_pairs("full") is hk and type(hk) is tuple
    assert [(F.name, H.name) for F, H in hk] == [
        ("H_1[full]", "H_2[full]"), ("H_1[full]", "H_3[full]"), ("H_2[full]", "H_3[full]")]
    assert hk[0][0] is hk[1][0] and hk[0][1] is hk[2][0]
    built = []

    def factory(*p, chart):
        built.append((p, chart))
        return object()
    family = checks._family(factory, "red", checks._HK_PAIRS)
    assert checks._family(factory, "red", checks._HK_PAIRS) is family
    assert sorted(built) == [((1,), "red"), ((2,), "red"), ((3,), "red")]
    assert family[0][0] is family[1][0] and family[1][1] is family[2][1]


@pytest.mark.parametrize("family", [checks.invariant_pairs, checks.invariant_triple,
                                    checks._hamiltonian_pairs])
@pytest.mark.parametrize("chart", ["polar", ["full"]], ids=["unknown", "unhashable"])
def test_observable_families_check_the_chart_before_their_cache(family, chart):
    with pytest.raises(ValueError, match="unknown chart"):
        family(chart)


def test_run_check_smoke_and_determinism():
    spec = CheckSpec("involutivity", n=2, seeds=2)
    r1 = run_check(spec)
    r2 = run_check(spec)
    assert r1.passed and not r1.errors
    # numerical content is bit-reproducible across runs
    assert r1.max_abs_defect == r2.max_abs_defect
    assert r1.max_rel_defect == r2.max_rel_defect


def test_failing_check_still_reports(monkeypatch):
    # numpy-float samples must not leak a numpy.bool into the report
    row = checks.CheckDef(lambda n, seeds: (np.full(len(seeds), 1.0), np.ones(len(seeds))),
                          1e-10, ())
    monkeypatch.setitem(checks.CHECKS, "planted-failure", row)
    spec = CheckSpec("planted-failure", n=2, seeds=1)
    assert run_check(spec).passed is False
    parsed = json.loads(reporting.dumps_json(run_checks([spec])))
    assert parsed["all_passed"] is False
    assert parsed["checks"][0]["passed"] is False


def test_row_raising_at_seed_1_keeps_seed_0(monkeypatch):
    # the stacked body raises whenever seed 1 is among its seeds, so the
    # replay seed by seed keeps seed 0's samples and names seed 1
    def body(n, seeds):
        if 1 in seeds:
            return 1 / 0
        return np.zeros(len(seeds)), np.ones(len(seeds))
    row = checks.CheckDef(body, config.FD, ())
    monkeypatch.setitem(checks.CHECKS, "raises-at-seed-1", row)
    spec = CheckSpec("raises-at-seed-1", n=2, seeds=3)
    r = run_check(spec)
    assert r.seeds_run == 1
    assert r.errors == ["seed 1: ZeroDivisionError: division by zero"]
    assert r.max_rel_defect == 0.0 and r.worst_seed == 0
    assert r.passed is False
    entry = json.loads(reporting.dumps_json(run_checks([spec])))["checks"][0]
    assert entry["errors"] == r.errors and entry["worst_seed"] == 0


def test_stacked_row_raising_at_seed_1_keeps_seed_0(monkeypatch):
    # a stacked row draws every seed's point at once; when seed 1's draw
    # raises, the replay seed by seed keeps seed 0's samples and names seed 1
    draw = phase.sample_point

    def failing_draw(chart, n, seed):
        if seed == 1:
            raise RuntimeError(f"regularity re-draw budget exceeded (seed {seed})")
        return draw(chart, n, seed)
    phase.clear_memos()   # a memoized stack would not call the swapped sampler
    monkeypatch.setattr(phase, "sample_point", failing_draw)
    r = run_check(CheckSpec("involutivity", n=2, seeds=3))
    assert r.seeds_run == 1
    assert r.errors == ["seed 1: RuntimeError: regularity re-draw budget exceeded (seed 1)"]
    assert r.worst_seed == 0 and r.passed is False
    one = run_check(CheckSpec("involutivity", n=2, seeds=1))
    assert (r.max_abs_defect, r.max_rel_defect) == (one.max_abs_defect, one.max_rel_defect)


def test_row_raising_only_when_stacked_still_fails(monkeypatch):
    # every seed passes on its own, so the replay keeps all their samples,
    # and the error of the whole stack is still recorded
    def body(n, seeds):
        if len(seeds) > 1:
            raise ValueError("stack only")
        return np.array([0.5 * seeds[0]]), np.ones(1)
    monkeypatch.setitem(checks.CHECKS, "raises-stacked", checks.CheckDef(body, 1.0, ()))
    r = run_check(CheckSpec("raises-stacked", n=2, seeds=3))
    assert r.seeds_run == 3
    assert r.errors == ["seeds 0..2 stacked: ValueError: stack only"]
    assert r.max_rel_defect == 1.0 and r.worst_seed == 2
    assert r.passed is False


def test_samples_are_laid_out_seed_major(monkeypatch):
    # sample 1 of seed 0 ties sample 0 of seed 1; seed by seed, as the
    # one-seed bodies ran, seed 0's sample comes first and is the worst
    # (the scale broadcasts over the samples)
    row = checks.CheckDef(lambda n, seeds: (np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2)),
                          1.0, ())
    monkeypatch.setitem(checks.CHECKS, "tied-row", row)
    assert run_check(CheckSpec("tied-row", n=2, seeds=2)).worst_seed == 0


def test_row_returning_scalars_fails_loudly(monkeypatch):
    # a body's arrays must end in the seed axis: scalars are an error, not
    # samples, at every seed
    monkeypatch.setitem(checks.CHECKS, "scalar-row",
                        checks.CheckDef(lambda n, seeds: (0.0, 1.0), 1.0, ()))
    r = run_check(CheckSpec("scalar-row", n=2, seeds=2))
    assert r.seeds_run == 0 and r.worst_seed is None and r.passed is False
    assert r.errors == ["seed 0: ValueError: a body's arrays must broadcast to (..., 1), got ()"]
    # a column of shape (S, 1) per seed stack is one sample per seed alone,
    # so only the stack fails
    monkeypatch.setitem(checks.CHECKS, "scalar-row", checks.CheckDef(
        lambda n, seeds: (np.zeros((len(seeds), 1)), np.ones((len(seeds), 1))), 1.0, ()))
    r = run_check(CheckSpec("scalar-row", n=2, seeds=2))
    assert r.seeds_run == 2 and r.worst_seed == 0 and r.passed is False
    assert r.errors == ["seeds 0..1 stacked: ValueError: a body's arrays must broadcast to "
                        "(..., 2), got (2, 1)"]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("samples, error, worst", [
    # a NaN after the first sample, which a max with a key would skip
    ([([1e-14, NAN, NAN], [1.0, 1.0, 1.0])],
     "seed 1 sample 0: non-finite defect nan or scale 1.0", (1e-14, 0)),
    # a second sample that is all NaN
    ([([1e-14, 2e-14, 0.0], [1.0, 1.0, 1.0]), ([NAN, NAN, NAN], [1.0, 1.0, 1.0])],
     "seed 0 sample 1: non-finite defect nan or scale 1.0", (2e-14, 1)),
    # an infinite scale, which would read as a zero relative defect
    ([([1e-14, 1.0, 0.0], [1.0, INF, 1.0])],
     "seed 1 sample 0: non-finite defect 1.0 or scale inf", (1e-14, 0)),
    # no finite sample at all
    ([([NAN, NAN, NAN], [1.0, 1.0, 1.0])],
     "seed 0 sample 0: non-finite defect nan or scale 1.0", (None, None)),
])
def test_non_finite_sample_fails_the_check(monkeypatch, samples, error, worst):
    # the error names the first non-finite sample; the worst-sample fields
    # are taken over the finite ones, null when there are none
    a, s = np.array(samples).swapaxes(0, 1)   # (K, S) each
    monkeypatch.setitem(checks.CHECKS, "non-finite-row",
                        checks.CheckDef(lambda n, seeds: (a, s), 1e-10, ()))
    spec = CheckSpec("non-finite-row", n=2, seeds=3)
    r = run_check(spec)
    assert r.passed is False and r.seeds_run == 3
    assert r.errors == [error]
    entry = json.loads(reporting.dumps_json(run_checks([spec])))["checks"][0]
    assert (entry["max_rel_defect"], entry["worst_seed"]) == worst
    assert entry["max_abs_defect"] == worst[0] and entry["errors"] == [error]


@pytest.mark.parametrize("samples, error, worst", [
    # a zero scale, which would divide by zero
    ([([1e-14, 1.0, 0.0], [1.0, 0.0, 1.0])], "seed 1 sample 0: scale 0.0 is not positive",
     (1e-14, 0)),
    # a negative scale after a finite sample of the same seed
    ([([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), ([0.0, 2e-14, 0.0], [1.0, 1.0, -2.0])],
     "seed 2 sample 1: scale -2.0 is not positive", (2e-14, 1)),
    # a negative defect, which would read as a passing relative defect
    ([([1e-14, 3e-14, 2e-14], [1.0, 1.0, 1.0]), ([-1.0, 0.0, 0.0], [1.0, 1.0, 1.0])],
     "seed 0 sample 1: negative defect -1.0", (3e-14, 1)),
], ids=["zero-scale", "negative-scale", "negative-defect"])
def test_sample_that_cannot_be_judged_fails_the_check(monkeypatch, samples, error, worst):
    # the error names the first such sample seed by seed; the worst-sample
    # fields are taken over the samples that can be judged
    a, s = np.array(samples).swapaxes(0, 1)
    monkeypatch.setitem(checks.CHECKS, "unjudged-row",
                        checks.CheckDef(lambda n, seeds: (a, s), 1e-10, ()))
    spec = CheckSpec("unjudged-row", n=2, seeds=3)
    r = run_check(spec)
    assert r.passed is False and r.seeds_run == 3
    assert r.errors == [error]
    assert (r.max_rel_defect, r.worst_seed) == worst and r.max_abs_defect == worst[0]
    entry = json.loads(reporting.dumps_json(run_checks([spec])))["checks"][0]
    assert entry["errors"] == [error] and entry["worst_seed"] == worst[1]


def test_row_returning_no_samples_fails_the_check(monkeypatch):
    empty = np.empty((0, 2, 3))   # no sample, however many seeds
    monkeypatch.setitem(checks.CHECKS, "empty-row",
                        checks.CheckDef(lambda n, seeds: (empty, 1.0), 1.0, ()))
    spec = CheckSpec("empty-row", n=2, seeds=3)
    r = run_check(spec)
    assert r.passed is False and r.seeds_run == 3 and r.worst_seed is None
    assert r.errors == ["seeds 0..2: the body returned no samples"]
    entry = json.loads(reporting.dumps_json(run_checks([spec])))["checks"][0]
    assert entry["max_abs_defect"] is entry["max_rel_defect"] is None


def _reference_reduction(a, s, tolerance) -> tuple:
    """run_check's reduction of (K, S) defects a and scales s, written as a
    Python loop over seed-major (defect, scale, seed, k) tuples with the same
    refusals: (max_abs_defect, max_rel_defect, worst_seed, passed, errors)."""
    K, S = a.shape
    samples = [(float(a[k, i]), float(s[k, i]), i, k) for i in range(S) for k in range(K)]
    finite = [t for t in samples if math.isfinite(t[0]) and math.isfinite(t[1])]
    errors = []
    for bad, text in (([t for t in samples if t not in finite],
                       "non-finite defect {} or scale {}"),
                      ([t for t in finite if t[1] <= 0], "scale {1} is not positive"),
                      ([t for t in finite if t[0] < 0], "negative defect {0}")):
        if bad:
            errors.append(f"seed {bad[0][2]} sample {bad[0][3]}: " + text.format(*bad[0]))
    if not samples:
        errors.append(f"seeds 0..{S - 1}: the body returned no samples")
    judged = [t for t in finite if t[0] >= 0 and t[1] > 0]
    if not judged:
        return math.nan, math.nan, None, False, errors
    d, r, worst_seed, _ = max(judged, key=lambda t: t[0] / t[1])
    max_rel = d / r
    return (max(t[0] for t in judged), max_rel, worst_seed,
            bool(max_rel <= tolerance and not errors), errors)


_DRAWN = st.sampled_from([0.0, -0.0, 1e-300, 1e-14, 1e-10, 0.5, 1.0, 2.0, 1e300,
                          -1.0, -1e-14, NAN, INF, -INF]) | st.floats()


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(0, 4), st.integers(1, 4)), data=st.data(),
       tolerance=st.sampled_from([1e-10, 1.0]))
def test_run_check_reduction_equals_the_python_reference(shape, data, tolerance):
    # drawn (K, S) defects and scales, the draws repeating values so that
    # samples tie across seeds: every report field equals the reference
    K, S = shape
    a, s = (np.array(data.draw(st.lists(_DRAWN, min_size=K * S, max_size=K * S)),
                     dtype=float).reshape(K, S) for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(checks.CHECKS, "drawn-row", checks.CheckDef(lambda n, seeds: (a, s),
                                                               tolerance, ()))
        r = run_check(CheckSpec("drawn-row", n=2, seeds=S))
    max_abs, max_rel, worst_seed, passed, errors = _reference_reduction(a, s, tolerance)
    nan_is_nan = lambda v: "nan" if math.isnan(v) else v
    assert (nan_is_nan(r.max_abs_defect), nan_is_nan(r.max_rel_defect)) == \
        (nan_is_nan(max_abs), nan_is_nan(max_rel))
    assert (r.worst_seed, r.passed, r.errors) == (worst_seed, passed, errors)
    assert r.seeds_run == S


# every row's body evaluates all its seeds as one stack of sample points
STACKED_ROWS = tuple(checks.CHECKS)


@pytest.mark.parametrize("check_id", STACKED_ROWS)
def test_seed_stack_equals_seed_by_seed(check_id):
    # bit for bit: the body on seeds (0, 1, 2) against its three one-seed calls
    func = checks.CHECKS[check_id].func
    for n in (2, 3, 4, 5):
        stacked = _columns(func(n, (0, 1, 2)))
        alone = [_columns(func(n, (seed,))) for seed in (0, 1, 2)]
        assert len(stacked) == len(alone[0])
        for k, (a, s) in enumerate(stacked):
            for got, i in ((a, 0), (s, 1)):
                want = np.concatenate([per[k][i] for per in alone])
                assert got.dtype == want.dtype == np.float64
                assert got.tobytes() == want.tobytes(), (n, k)


def _round_trip_reference(n, seed):
    # the one-point round trips with np.linalg.norm of each whole difference
    norm = np.linalg.norm
    x = sample_point("rs", n, seed)
    mid = coords.from_rs(x)
    back = coords.to_rs(mid)
    rng = np.random.default_rng([23, n, seed])
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = phase.RedPoint(sample_point("red", n, seed).Q,
                       algebra.make_hermitian(A @ A.conj().T + 0.5 * np.eye(n)))
    back2 = coords.from_rs(coords.to_rs(y))
    s = sample_point("suth", n, seed)
    sback = coords.to_suth(coords.from_suth(s))
    r = sample_point("red", n, seed)
    rback = coords.from_suth(coords.to_suth(r))
    cond = [float(np.sqrt(w[-1] / w[0])) for w in map(np.linalg.eigvalsh, (mid.L, y.L))]
    return {"roundtrip-rs": [
                (norm(back.p - x.p) + norm(back.lam - x.lam) + norm(back.Q.q - x.Q.q),
                 (1.0 + phase.point_norm(x)) * cond[0]),
                (norm(back2.L - y.L), (1.0 + phase.point_norm(y)) * cond[1])],
            "roundtrip-suth": [
                (norm(sback.p - s.p) + norm(sback.phi - s.phi), 1.0 + phase.point_norm(s)),
                (norm(rback.L - r.L), 1.0 + phase.point_norm(r))]}


@pytest.mark.parametrize("check_id", ["roundtrip-rs", "roundtrip-suth"])
def test_stacked_round_trips_equal_the_one_point_form(check_id):
    # bit for bit against np.linalg.norm of each member's differences
    for n in (2, 3, 4, 5):
        seeds = tuple(range(8))
        got = _columns(checks.CHECKS[check_id].func(n, seeds))
        want = [_round_trip_reference(n, seed)[check_id] for seed in seeds]
        assert len(got) == len(want[0])
        for k, (a, s) in enumerate(got):
            assert a.tobytes() == np.array([w[k][0] for w in want]).tobytes(), (n, k)
            assert s.tobytes() == np.array([w[k][1] for w in want]).tobytes(), (n, k)


def test_pd_red_points_draw_their_l_stack_once_and_are_read_only():
    # a repeated call takes the same read-only L stack, whose members equal
    # the one-seed draws, and the Q of the red sample stack; the stacked
    # round trips above check their values
    x = checks._pd_red_points(3, (0, 1, 2))
    assert checks._pd_red_points(3, [0, 1, 2]).L is x.L
    assert x.Q is phase.sample_points("red", 3, (0, 1, 2)).Q
    assert not x.L.flags.writeable and not x.Q.q.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        x.L[...] = 0.0
    for i, seed in enumerate((0, 1, 2)):
        assert x.L[i].tobytes() == checks._pd_red_points(3, (seed,)).L[0].tobytes()


def test_pd_red_points_follow_a_swapped_sampler_after_clear_memos(monkeypatch):
    # Q is read from the sample memo on each call, so after a swap of the
    # sampler's generator and clear_memos() it is the new draw; the L stack,
    # a pure table of its own seeds, stays
    seeds = (0, 1)
    before = checks._pd_red_points(3, seeds)
    rng = phase._rng
    monkeypatch.setattr(phase, "_rng", lambda chart, n, seed: rng(chart, n, seed + 100))
    phase.clear_memos()
    try:
        after = checks._pd_red_points(3, seeds)
        new_q = phase.sample_points("red", 3, seeds).Q.q
        assert after.Q.q.tobytes() == new_q.tobytes() != before.Q.q.tobytes()
        assert after.L is before.L
    finally:
        monkeypatch.undo()
        phase.clear_memos()
    assert checks._pd_red_points(3, seeds).Q.q.tobytes() == before.Q.q.tobytes()


# The package's caches, each of one of two kinds: a pure table keyed by
# everything its value depends on, or a memo of sampled data and gradients
# that phase.clear_memos() empties.  A new cache must join one list.
PURE_TABLES = {"algebra.basis", "algebra.dual_basis", "algebra.off_diagonal",
               "phase._layout", "checks._family", "checks._pd_stack"}
MEMOS = {"phase._draw", "phase._stack", "phase._GRADS"}


def _caches() -> dict:
    """Every functools.lru_cache and phase._Memo that algebra, phase and
    checks define, by module.name."""
    found = {}
    for module in (algebra, phase, checks):
        for name, obj in vars(module).items():
            if (isinstance(obj, phase._Memo) or hasattr(obj, "cache_info")
                    and obj.__module__ == module.__name__):
                found[f"{module.__name__.rsplit('.', 1)[1]}.{name}"] = obj
    return found


def _size(cache) -> int:
    return len(cache) if isinstance(cache, phase._Memo) else cache.cache_info().currsize


def test_every_cache_is_a_pure_table_or_a_memo_that_clear_memos_empties():
    caches = _caches()
    assert not PURE_TABLES & MEMOS
    assert set(caches) == PURE_TABLES | MEMOS
    phase.clear_memos()
    report = run_checks([CheckSpec(cid, n=2, seeds=1) for cid in checks.CHECKS])
    assert report["all_passed"]
    assert all(_size(caches[name]) > 0 for name in MEMOS)
    phase.clear_memos()
    assert {name: _size(caches[name]) for name in MEMOS} == dict.fromkeys(MEMOS, 0)


def test_grad_norm_equals_norm_of_each_member():
    # one norm per member, each equal to np.linalg.norm over the matrix axes
    # of the member on its own, on a stack of seeds S = (3,) and on a stack
    # of pairs of them, (P, S)
    norm = partial(np.linalg.norm, axis=(-2, -1))
    Fs = [phase.invariant_observable(*p, chart="rs") for p in ((2, 1, "im"), (0, 2, "re"))]
    for n in (2, 3, 4, 5):
        gs = phase.grads(Fs, phase.sample_points("rs", n, (0, 1, 2)))
        got = phase.member_norm(gs[0])
        assert got.shape == (3,)
        for i in range(3):
            assert got[i] == float(np.sqrt(sum(norm(c[i]) ** 2 for c in gs[0])))
        got = phase.member_norm(br.stack(gs))
        assert got.shape == (2, 3)
        for p, g in enumerate(gs):
            for i in range(3):
                want = float(np.sqrt(sum(norm(c[i]) ** 2 for c in g)))
                assert got[p, i] == want, (n, p, i)


# ---------------------------------------------------------------------------
# the bracket rows against their per-pair form: one contract call per pair
# of gradients (and per order), as the rows were written before each bracket
# contracted all pairs of a row in one call


def _ref_pair_grads(pairs, x):
    Fs = list(dict.fromkeys(F for pair in pairs for F in pair))
    d = dict(zip(Fs, phase.grads(Fs, x)))
    return [(d[F], d[H]) for F, H in pairs]


def _ref_antisymmetry(pairs_of, charts, n, seeds):
    out = []
    for chart in charts:
        x = phase.sample_points(chart, n, seeds)
        for dF, dH in _ref_pair_grads(pairs_of(chart), x):
            for bracket in checks._BRACKETS_BY_CHART[chart]:
                v1, v2 = bracket.contract(x, dF, dH), bracket.contract(x, dH, dF)
                out.append((abs(v1 + v2), 1.0 + abs(v1) + abs(v2)))
    return out


def _ref_leibniz(n, seeds):
    out = []
    for chart, bracket_list in checks._BRACKETS_BY_CHART.items():
        pairs = checks.invariant_pairs(chart)
        (F, G), (_, H) = pairs[0], pairs[1]
        x = phase.sample_points(chart, n, seeds)
        gx, hx = np.moveaxis(phase._values((G.value, H.value), x), -1, 0)
        dF, dG, dH = phase.grads((F, G, H), x)
        gm, hm = gx[:, None, None], hx[:, None, None]
        dGH = type(dG)(*(gm * a + hm * b for a, b in zip(dH, dG)))
        for bracket in bracket_list:
            lhs = bracket.contract(x, dF, dGH)
            fg = bracket.contract(x, dF, dG)
            fh = bracket.contract(x, dF, dH)
            rhs = gx * fh + hx * fg
            scale = 1.0 + abs(lhs) + abs(gx * fh) + abs(hx * fg)
            out.append((abs(lhs - rhs), scale))
    return out


def _ref_ladder(pb1, pb2, n, seeds):
    chart = pb1.chart
    F = phase.invariant_observable(1, 1, "re", chart=chart)
    x = phase.sample_points(chart, n, seeds)
    Hs = [phase.hamiltonian_observable(k, chart=chart) for k in range(1, 6)]
    dF, *dH = phase.grads([F] + Hs, x)
    ab = [(pb2.contract(x, dF, dk), pb1.contract(x, dF, dk1)) for dk, dk1 in zip(dH, dH[1:])]
    return [(abs(a - b), 1.0 + abs(a) + abs(b)) for a, b in ab]


def _ref_involutivity(n, seeds):
    x = phase.sample_points("full", n, seeds)
    Hs = [phase.hamiltonian_observable(k) for k in range(1, 6)]
    dH = phase.grads(Hs, x)
    v = [H.value(x) for H in Hs]
    return [(abs(bracket.contract(x, dH[i], dH[j])), 1.0 + abs(v[i]) + abs(v[j]))
            for i in range(5) for j in range(5) for bracket in (br.pb1_full, br.pb2_full)]


def _ref_transfer(bracket, ref_bracket, to_ref, n, seeds):
    x = phase.sample_points(bracket.chart, n, seeds)
    y = to_ref(x)
    out = []
    for (dF, dH), (df, dh) in zip(_ref_pair_grads(checks.invariant_pairs(bracket.chart), x),
                                  _ref_pair_grads(checks.invariant_pairs(ref_bracket.chart), y)):
        a = bracket.contract(x, dF, dH)
        b = ref_bracket.contract(y, df, dh)
        scale = 1.0 + abs(a) + abs(b) + phase.member_norm(dF) * phase.member_norm(dH)
        out.append((abs(a - b), scale))
    return out


def _ref_jacobi(brackets, coeffs, n, seed):
    # the jacobiator is compared with its per-pair form in test_brackets;
    # here the pair values of the scale, one contract call per pair
    F, G, H = checks.invariant_triple(brackets[0].chart)
    x = sample_point(brackets[0].chart, n, seed)
    T = br.jacobiator(brackets, F, G, H, x)
    dF, dG, dH = phase.grads((F, G, H), x)
    V = np.array([[b.contract(x, p, q) for p, q in ((dF, dG), (dG, dH), (dH, dF))]
                  for b in brackets])
    return [(float(abs(s @ T @ s)), 1.0 + sum(abs(v) for v in s @ V))
            for s in map(np.array, coeffs)]


def _ref_cyclic_pairs(dA, dB, dC):
    """Stacks (left, right) of the pairs (A, B), (B, C), (C, A) of three
    gradient tuples: consecutive members of one stack of (A, B, C, A)."""
    d = br.stack((dA, dB, dC, dA))
    return br.take(d, slice(0, 3)), br.take(d, slice(1, 4))


def _ref_jacobi_rows(brackets, coeffs, n, seeds):
    # the stacked row with its pair values from a second gradient lookup at
    # x: the cyclic pairs, one contract per bracket, each at x
    s = np.array(coeffs)[:, None, None, :]
    col = s.swapaxes(-1, -2)
    F, G, H = checks.invariant_triple(brackets[0].chart)
    x = phase.sample_points(brackets[0].chart, n, seeds)
    T = br.jacobiator(brackets, F, G, H, x).transpose(2, 0, 1)
    pairs = _ref_cyclic_pairs(*phase.grads((F, G, H), x))
    V = np.array([b.contract(x, *pairs) for b in brackets]).transpose(1, 2, 0)
    return abs(s @ T @ col)[..., 0, 0], 1.0 + abs(V @ col)[..., 0].sum(1)


_REFERENCE_ROWS = {
    "antisymmetry": partial(_ref_antisymmetry, checks.invariant_pairs,
                            tuple(checks._BRACKETS_BY_CHART)),
    "antisymmetry-hk": partial(_ref_antisymmetry, checks._hamiltonian_pairs, ("full",)),
    "leibniz": _ref_leibniz,
    "ladder-full": partial(_ref_ladder, br.pb1_full, br.pb2_full),
    "ladder-red": partial(_ref_ladder, br.pb1_red, br.pb2_red),
    "involutivity": _ref_involutivity,
    "reduction-pb1": partial(_ref_transfer, br.pb1_red, br.pb1_full, checks._red_to_full),
    "reduction-pb2": partial(_ref_transfer, br.pb2_red, br.pb2_full, checks._red_to_full),
    "rs-bracket": partial(_ref_transfer, br.pb_rs, br.pb2_red, coords.from_rs),
    "suth-bracket": partial(_ref_transfer, br.pb_suth, br.pb1_red, coords.from_suth),
}

_REFERENCE_JACOBI = {
    "jacobi-full-1": ((br.pb1_full,), [(1.0,)]),
    "jacobi-full-2": ((br.pb2_full,), [(1.0,)]),
    "jacobi-pencil": ((br.pb1_full, br.pb2_full), [(1.0, -1.0), (1.0, 0.5), (1.0, 1.0)]),
    "jacobi-red": ((br.pb1_red, br.pb2_red), [(1.0, 0.0), (0.0, 1.0)]),
    "jacobi-suth": ((br.pb_suth,), [(1.0,)]),
}


# the flow rows as one-point bodies, as they were before every row took its
# seeds as one stack: flow and the RK4 oracle at one point, norms by
# np.linalg.norm over the matrix axes


def _ref_g_samples(pairs):
    norm = partial(np.linalg.norm, axis=(-2, -1))
    return [(float(norm(a - b)), 1.0 + float(norm(a))) for a, b in pairs]


def _ref_flow_rk4(n, seed):
    x0 = sample_point("full", n, seed)
    return _ref_g_samples((dynamics.flow(x0, k, 1.0).g,
                           checks._rk4_flow(x0, k, 1.0, checks.RK4_STEPS)) for k in (1, 2))


def _ref_flow_conserved(n, seed):
    x0 = sample_point("full", n, seed)
    traj = dynamics.trajectory(x0, 2, np.linspace(0.0, 1.0, 21))
    drift = np.max(np.abs(traj.conserved - traj.conserved[0]), axis=0)
    ref = 1.0 + np.abs(traj.conserved[0])
    return [(float(d), float(r)) for d, r in zip(drift, ref)]


def _ref_flow_group(n, seed):
    x0 = sample_point("full", n, seed)
    return _ref_g_samples((dynamics.flow(x0, k, 0.7 + 0.4).g,
                           dynamics.flow(dynamics.flow(x0, k, 0.7), k, 0.4).g) for k in (1, 2))


_REFERENCE_FLOWS = {"flow-rk4": _ref_flow_rk4, "flow-conserved": _ref_flow_conserved,
                    "flow-group": _ref_flow_group}


def _seed_by_seed(body, n, seeds) -> list:
    """The samples of the one-point body(n, seed), each stacked over the seeds."""
    per_seed = [body(n, seed) for seed in seeds]
    return [tuple(np.array(c) for c in zip(*sample)) for sample in zip(*per_seed)]


def _columns(samples) -> list:
    """A body's (defect, scale) arrays as its samples in order, each a
    (defect, scale) pair of arrays over the seeds."""
    a, s = np.broadcast_arrays(*samples)
    return list(zip(a.reshape(-1, a.shape[-1]), s.reshape(-1, s.shape[-1])))


def _hex_samples(samples) -> list:
    return [[float(v).hex() for v in np.ravel(part)] for sample in samples for part in sample]


@pytest.mark.parametrize("check_id", list(_REFERENCE_ROWS))
def test_stacked_rows_equal_their_per_pair_form(check_id):
    # every sample bit for bit at n = 2..6 on the seeds 0..4
    for n in range(2, 7):
        seeds = tuple(range(5))
        got = _columns(checks.CHECKS[check_id].func(n, seeds))
        assert _hex_samples(got) == _hex_samples(_REFERENCE_ROWS[check_id](n, seeds)), n


@pytest.mark.parametrize("check_id", list(_REFERENCE_JACOBI))
def test_jacobi_pair_values_equal_their_per_pair_form(check_id):
    # the stacked row against the one-point jacobiator and pair values, seed
    # by seed
    for n in range(2, 6):
        got = _columns(checks.CHECKS[check_id].func(n, (0, 1, 2)))
        want = _seed_by_seed(partial(_ref_jacobi, *_REFERENCE_JACOBI[check_id]), n, (0, 1, 2))
        assert _hex_samples(got) == _hex_samples(want), n


@pytest.mark.parametrize("check_id", list(_REFERENCE_JACOBI))
def test_jacobi_rows_equal_their_second_lookup_form(check_id):
    # the pair values read from the jacobiator's fields give each row's
    # (defect, scale) arrays of the form that looks the gradients up again
    # at x and contracts the cyclic pairs, bit for bit
    for n in range(2, 6):
        got = checks.CHECKS[check_id].func(n, (0, 1, 2))
        want = _ref_jacobi_rows(*_REFERENCE_JACOBI[check_id], n, (0, 1, 2))
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), n


@pytest.mark.parametrize("check_id", list(_REFERENCE_FLOWS))
def test_flow_rows_equal_their_one_point_form(check_id):
    # every sample bit for bit at n = 2..6 on the seeds 0..4
    for n in range(2, 7):
        seeds = tuple(range(5))
        want = _seed_by_seed(_REFERENCE_FLOWS[check_id], n, seeds)
        got = _columns(checks.CHECKS[check_id].func(n, seeds))
        assert _hex_samples(got) == _hex_samples(want), n


def test_run_check_names_worst_seed():
    # rs-bracket at n = 5 reads 6.75e-5 from seed 4 alone; seeds 0..3 read
    # at most 1.2e-7
    r = run_check(CheckSpec("rs-bracket", n=5, seeds=5))
    assert r.worst_seed == 4
    assert r.max_rel_defect > 1e-5


def test_registry_tolerances_are_config_levels():
    levels = {config.EXACT, config.ANALYTIC, config.RK4, config.FD, config.NESTED}
    assert {cdef.tolerance for cdef in checks.CHECKS.values()} <= levels


def _planted_pb2_red(eps):
    """pb2_red with its R-term scaled by 1 + eps."""
    def sharp(x, dh):
        Ldh = x.L @ dh.d2
        return phase.RedGrad(Ldh, (2.0 * (1.0 + eps) * r_apply(x.Q, Ldh) - dh.D1) @ x.L)
    return br.Bracket("red", sharp, f"pb2_red planted at {eps}")


def test_ladder_red_catches_planted_r_term_defect():
    # pb2_red with its R-term scaled by 1 + 1e-8 must fail the ladder row
    a, s = checks._ladder_samples(br.pb1_red, _planted_pb2_red(1e-8), 3, (0, 1))
    assert np.max(a / s) > checks.CHECKS["ladder-red"].tolerance


def _planted_pb2_full(eps_u, eps_d1p):
    """pb2_full with its 2 u_part(L dH.d2) term scaled by 1 + eps_u and its D1'
    term by 1 + eps_d1p; either breaks its antisymmetry."""
    def sharp(x, dH):
        LdH = x.L @ dH.d2
        ginv = x.g.conj().swapaxes(-1, -2)
        return phase.FullGrad(LdH, -0.5 * (1.0 + eps_d1p) * (ginv @ dH.D1 @ x.g),
                              (2.0 * (1.0 + eps_u) * algebra.u_part(LdH) - dH.D1) @ x.L)
    return br.Bracket("full", sharp, f"pb2_full planted at {eps_u}, {eps_d1p}")


@pytest.mark.parametrize("term", ["u_part", "D1p"])
@pytest.mark.parametrize("eps", [0.1, 1e-3])
def test_planted_pb2_full_defects_read_as_in_the_full_gradient_form(monkeypatch, term, eps):
    # the rows that contract pb2_full, given one with a term off by 1 + eps,
    # fail, and read within 5% of the jacobiator's full-gradient form: the
    # outer level assumes antisymmetry, which the plant breaks (at 1e-3 the
    # form reads 1.17e-4 for the u_part plant and 1.06e-4 for the D1' one);
    # the rows take T and their pair values from brackets._jacobi, so the
    # full-gradient form replaces its T and keeps its pair values
    planted = _planted_pb2_full(*((eps, 0.0) if term == "u_part" else (0.0, eps)))
    own = br._jacobi
    forms = (own, lambda *args: (_per_pair_jacobiator(*args), own(*args)[1]))
    for cid in ("jacobi-full-2", "jacobi-pencil"):
        func = checks.CHECKS[cid].func
        brackets = tuple(planted if b is br.pb2_full else b for b in func.args[0])
        body = partial(func.func, brackets, *func.args[1:])
        readings = []
        for jacobi in forms:
            monkeypatch.setattr(br, "_jacobi", jacobi)
            a, s = body(3, (0, 1))
            readings.append(np.max(a / s))
        got, want = readings
        assert got > checks.CHECKS[cid].tolerance and want > checks.CHECKS[cid].tolerance, cid
        assert abs(got / want - 1.0) <= 0.05, (cid, got, want)
        assert got != want, f"{cid}: the full-gradient form did not replace the row's T"


def test_report_is_json_ready():
    report = run_checks([CheckSpec("hamiltonian-rs", n=2, seeds=2)])
    text = reporting.dumps_json(report)
    parsed = json.loads(text)
    assert parsed["all_passed"] is True
    entry = parsed["checks"][0]
    assert entry["check_id"] == "hamiltonian-rs"
    assert entry["passed"] is True
    assert entry["max_rel_defect"] <= entry["tolerance"]


# ---------------------------------------------------------------------------
# serialization


def test_dumps_json_float_formatting():
    text = reporting.dumps_json({"x": 0.1, "flag": True, "none": None, "v": [1, 2],
                                 "np_flags": [np.True_, np.False_], "empty": []})
    # the layout is json.dumps at a two-space indent, floats in shortest repr
    assert text == ('{\n  "x": 0.1,\n  "flag": true,\n  "none": null,\n  "v": [\n    1,\n'
                    '    2\n  ],\n  "np_flags": [\n    true,\n    false\n  ],\n  "empty": []\n}')
    # every float round-trips exactly, signed zeros and subnormals included
    floats = [1.0 / 3.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              8.844257850253892e-16, np.float64(0.1) * 3]
    back = json.loads(reporting.dumps_json({"f": floats}))["f"]
    assert [v.hex() for v in back] == [float(v).hex() for v in floats]
    # error messages may carry control characters, quotes and backslashes
    odd = {"errors": ["a\nb", "c\td", 'q"\\'], 'k"\n': 'q"\\'}
    assert json.loads(reporting.dumps_json(odd)) == odd
    with pytest.raises(ValueError):
        reporting.dumps_json({"bad": float("nan")})


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), np.float64("inf"),
                                 np.float32("nan"), np.float32("inf"), np.float16("-inf")])
def test_dumps_json_rejects_every_non_finite_float(bad):
    # a bare nan or inf is not JSON, whatever the width of the float
    with pytest.raises(ValueError, match="non-finite"):
        reporting.dumps_json({"bad": [1.0, bad]})


def test_dumps_json_narrow_floats_keep_their_digits():
    text = reporting.dumps_json({"x": np.float32(0.1), "y": np.float16(-2.5)})
    assert json.loads(text) == {"x": float(np.float32(0.1)), "y": -2.5}
    assert "0.10000000149011612" in text


def _per_value_csv(traj) -> str:
    """Reference writer: each value as format(float(v), ".17g") on its own."""
    n = traj.n
    lines = [",".join(["t"] + [f"q_{i}" for i in range(1, n + 1)]
                      + [f"h_{l}" for l in range(1, n + 1)] + ["gauge_defect"])]
    for i, t in enumerate(traj.times):
        row = [t, *traj.points[i].Q.q, *traj.conserved[i], traj.gauge_defects[i]]
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def test_trajectory_csv_equals_per_value_formatting():
    # the whole table is formatted by one % operation; the per-value writer
    # is the reference, also at signed zeros, subnormals and the largest float
    for n, k, seed in ((2, 1, 0), (4, 1, 1), (5, 3, 2)):
        traj = dynamics.trajectory(sample_point("full", n, seed), k, np.linspace(0.0, 1.0, 11))
        assert reporting.trajectory_csv(traj) == _per_value_csv(traj)
    extremes = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                         -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0])
    edge = dataclasses.replace(traj, times=np.resize(extremes, 11),
                               conserved=np.resize(extremes[::-1], traj.conserved.shape),
                               gauge_defects=np.resize(extremes[3:], 11))
    text = reporting.trajectory_csv(edge)
    assert text == _per_value_csv(edge)
    assert "\n-0," in text and ",4.9406564584124654e-324" in text and ",1.7976931348623157e+308" in text
    defects = traj.gauge_defects.copy()
    defects[3] = np.inf
    with pytest.raises(ValueError, match="non-finite value in report: inf"):
        reporting.trajectory_csv(dataclasses.replace(traj, gauge_defects=defects))


def test_trajectory_csv_rejects_a_stacked_trajectory():
    traj = dynamics.trajectory(phase.sample_points("full", 3, (0, 1)), 2, [0.0, 0.5])
    with pytest.raises(ValueError, match=r"^a CSV holds one trajectory, got a stack of "
                                         r"batch shape \(2,\)$"):
        reporting.trajectory_csv(traj)


def test_trajectory_csv_schema_and_reproducibility():
    x0 = sample_point("full", 3, 0)
    t_grid = np.linspace(0.0, 0.5, 6)
    traj = dynamics.trajectory(x0, 2, t_grid)
    text = reporting.trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,q_1,q_2,q_3,h_1,h_2,h_3,gauge_defect"
    assert len(lines) == 7
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(rows[:, 0], t_grid)
    # conserved columns are constant
    for col in (4, 5, 6):
        drift = np.max(np.abs(rows[:, col] - rows[0, col]))
        assert drift <= 1e-10 * (1 + abs(rows[0, col]))
    # byte-identical on re-export
    traj2 = dynamics.trajectory(x0, 2, t_grid)
    assert reporting.trajectory_csv(traj2) == text


# ---------------------------------------------------------------------------
# command line


def _run(args):
    return subprocess.run(CLI + args, capture_output=True, text=True)


def test_cli_check_pass_and_report(tmp_path):
    out = tmp_path / "report.json"
    res = _run(["check", "--suite", "prop4", "--n", "2", "--seeds", "2",
                "--out", str(out)])
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert all(ln.startswith("PASS") for ln in res.stderr.strip().split("\n"))


def test_cli_check_stdout_json():
    res = _run(["check", "--suite", "prop3", "--n", "2", "--seeds", "1"])
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["all_passed"] is True


def test_cli_planted_defect_fails_at_registry_tolerances(monkeypatch, tmp_path, capsys):
    # the rows that contract pb2_red, given one with its R-term off by 1e-3,
    # fail at their own tolerances: exit 1, and the report is still written
    planted = _planted_pb2_red(1e-3)
    for cid, func in (("ladder-red", partial(checks._ladder_samples, br.pb1_red, planted)),
                      ("reduction-pb2", partial(checks._transfer_samples, planted,
                                                br.pb2_full, checks._red_to_full))):
        monkeypatch.setitem(checks.CHECKS, cid,
                            dataclasses.replace(checks.CHECKS[cid], func=func))
    out = tmp_path / "planted.json"
    assert cli.main(["check", "--suite", "theorem2", "--n", "2", "--seeds", "2",
                     "--out", str(out)]) == 1
    assert "FAIL ladder-red" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["all_passed"] is False
    failing = [c for c in report["checks"] if not c["passed"]]
    assert {c["check_id"] for c in failing} == {"ladder-red", "reduction-pb2"}
    for c in failing:
        assert type(c["worst_seed"]) is int and c["worst_seed"] in (0, 1), c
        assert c["errors"] == [], c


def test_cli_config_errors_exit_2(tmp_path):
    res = _run(["check", "--suite", "prop3", "--n", "1"])
    assert res.returncode == 2
    res = _run(["check", "--suite", "prop3", "--n", "2", "--seeds", "1",
                "--profile", "strict"])
    assert res.returncode == 2
    assert "unrecognized arguments: --profile strict" in res.stderr
    res = _run(["bracket", "--chart", "rs", "--which", "1",
                "--f", "1,1,re", "--h", "0,2,re"])
    assert res.returncode == 2
    res = _run(["bracket", "--chart", "full", "--which", "1",
                "--f", "bogus", "--h", "0,2,re"])
    assert res.returncode == 2
    for args in (["--n", "1"], ["--seed", "-1"]):
        res = _run(["bracket", "--chart", "full", "--which", "1",
                    "--f", "1,1,re", "--h", "0,2,re", *args])
        assert res.returncode == 2, args
        assert "Traceback" not in res.stderr
    for args in (["--seed", "-1"], ["--t1", "nan"], ["--t1", "inf"], ["--t0=-inf"]):
        res = _run(["flow", *args, "--out", str(tmp_path / "t.csv")])
        assert res.returncode == 2, args
        assert "Traceback" not in res.stderr and "Warning" not in res.stderr, args
    # an --out under a missing directory fails before any check runs
    for args in (["check", "--suite", "prop3", "--n", "2", "--seeds", "1"], ["flow"]):
        out = tmp_path / "missing" / "out.txt"
        res = _run([*args, "--out", str(out)])
        assert res.returncode == 2, args
        assert res.stderr.startswith(f"error: cannot write {out}: "), res.stderr
        assert "Traceback" not in res.stderr and "PASS" not in res.stderr, args


def test_cli_failed_flow_export_leaves_no_file(tmp_path):
    # the phase t w^k overflows after --out is opened: exit 1, the error
    # names t, no warning escapes, and the empty file is removed
    out = tmp_path / "out.csv"
    res = subprocess.run([sys.executable, "-W", "error", *CLI[1:], "flow", "--n", "3",
                          "--t1", "1e308", "--steps", "3", "--out", str(out)],
                         capture_output=True, text=True)
    assert res.returncode == 1, res.stderr
    assert res.stderr == ("error: flow needs a finite phase t w^k, got inf or nan at "
                          "t = 1e+308\n")
    assert not out.exists()


def test_cli_flow_grid_whose_span_overflows_is_a_config_error(tmp_path):
    # t0 and t1 are finite but t1 - t0 overflows: exit 2, with any warning
    # an error, naming t0 and t1 before --out is opened (under a missing
    # directory the message is the same) and leaving no file
    for out in (tmp_path / "out.csv", tmp_path / "missing" / "out.csv"):
        res = subprocess.run([sys.executable, "-W", "error", *CLI[1:], "flow",
                              "--t0=-1.7e308", "--t1=1.7e308", "--steps", "3",
                              "--out", str(out)], capture_output=True, text=True)
        assert res.returncode == 2, res.stderr
        assert res.stderr == ("error: need a finite span t1 - t0, got t0 = -1.7e+308, "
                              "t1 = 1.7e+308\n")
        assert not out.exists()


def test_cli_runs_without_scipy(tmp_path):
    # the runtime needs numpy only: in a fresh interpreter where importing
    # scipy fails, a check suite and a flow export still exit 0
    code = ("import sys; sys.modules['scipy'] = None; "
            "from rs_hierarchy.cli import main; sys.exit(main(sys.argv[1:]))")
    for args in (["check", "--suite", "prop3", "--n", "2", "--seeds", "1"],
                 ["flow", "--n", "3", "--steps", "5", "--out", str(tmp_path / "t.csv")]):
        res = subprocess.run([sys.executable, "-c", code, *args],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr


def test_cli_bracket_value_matches_library():
    from rs_hierarchy import brackets as br
    from rs_hierarchy.phase import invariant_observable
    res = _run(["bracket", "--chart", "full", "--which", "1",
                "--f", "1,1,re", "--h", "0,2,re", "--n", "3", "--seed", "0"])
    assert res.returncode == 0, res.stderr
    F = invariant_observable(1, 1, "re", chart="full")
    H = invariant_observable(0, 2, "re", chart="full")
    x = sample_point("full", 3, 0)
    assert float(res.stdout.strip()) == br.pb1_full(F, H, x)


def test_cli_bracket_offers_the_charts_and_bracket_numbers(capsys):
    # the choices come from phase.CHARTS and brackets.BRACKETS, and --help
    # prints them as the literals it held before
    with pytest.raises(SystemExit) as exit_:
        cli.main(["bracket", "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert "--chart {full,red,rs,suth}" in out and "--which {1,2}" in out


def test_cli_flow_csv(tmp_path):
    out = tmp_path / "traj.csv"
    res = _run(["flow", "--n", "3", "--k", "2", "--t1", "0.5",
                "--steps", "6", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("t,q_1,q_2,q_3,h_1")
    assert len(lines) == 7
    # determinism: re-running produces an identical file
    out2 = tmp_path / "traj2.csv"
    _run(["flow", "--n", "3", "--k", "2", "--t1", "0.5",
          "--steps", "6", "--out", str(out2)])
    assert out2.read_text() == out.read_text()
