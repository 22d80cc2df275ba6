"""Registry of machine checks for the bracket structure, the reduction and
the changes of variables, plus the runner that aggregates them into a report.

A registry row maps a check id to a body func(n, seeds): a check function,
or a shared sampler bound to its brackets, such as
_transfer_samples(pb_rs, pb2_red, from_rs), which compares one Bracket with
another across a chart map.  The body draws deterministic sample points and
returns one pair of float arrays (defect, scale): the absolute defect of
each sample, which should vanish, and its scale, 1 + (magnitudes entering
the identity).  The two broadcast to one shape whose last axis is the seed
axis; the leading axes, flattened in C order, number the samples k.  Every
body evaluates all its seeds as one stack of sample_points, and one that
contracts gradients makes one Bracket.contract call per bracket for all its
pairs, each value that of the per-pair contract, bit for bit.  Rows share
gradients through phase's memo; a row's samples do not depend on it.
run_check calls the body once on seeds 0..S-1 and reports the worst
absolute and relative (defect / scale) defect, seed-major, and the seed of
the worst relative one.  It judges a sample with a finite, non-negative
defect and a finite, positive scale.  Any other sample fails the check,
and so does a body that returns no samples; the error names the first
offender.  Each row states its tolerance once, as the config level (EXACT,
ANALYTIC, RK4, FD, NESTED) of the error model of what it checks.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import __version__, coords, dynamics, phase
from . import brackets as br
from .algebra import make_hermitian
from .config import ANALYTIC, EXACT, FD, NESTED, RK4
from .phase import (FullPoint, RedPoint, hamiltonian_observable, invariant_observable,
                    sample_points)


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    n: int = 3
    seeds: int = 5

    def __post_init__(self):
        for name, low in (("n", 2), ("seeds", 1)):   # errors that name the field
            object.__setattr__(self, name, phase._index(getattr(self, name), name, low))
        if self.check_id not in CHECKS:
            raise KeyError(f"unknown check id {self.check_id!r}")


@dataclass
class CheckResult:
    check_id: str
    n: int
    seeds_run: int
    max_abs_defect: float       # over the judged samples; NaN without any
    max_rel_defect: float
    worst_seed: int | None      # seed of the largest abs/scale; None without judged samples
    tolerance: float
    passed: bool
    wall_time: float
    errors: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# observable families


_PAIR_PARAMS = (((1, 1, "re"), (0, 2, "re")),
                ((2, 1, "re"), (1, 2, "im")),
                ((1, 0, "im"), (1, 1, "im")))

_TRIPLE_PARAMS = ((1, 1, "re"), (0, 2, "re"), (1, 0, "re"))

_HK_PAIRS = (((1,), (2,)), ((1,), (3,)), ((2,), (3,)))


@lru_cache(maxsize=phase._MEMO_SIZE)
def _family(factory, chart, params) -> tuple:
    """factory(*p, chart=chart) for each parameter tuple p of params, nested
    as params is (a tuple of pairs of them gives a tuple of pairs), each
    distinct p built once.  The family is built once per factory, chart and
    params: a repeated call returns the same tuple, and a factory swapped in
    (by a test, say) builds its own."""
    built = {}

    def nest(p):
        if isinstance(p[0], tuple):
            return tuple(map(nest, p))
        if p not in built:
            built[p] = factory(*p, chart=chart)
        return built[p]
    return nest(params)


def invariant_pairs(chart):
    """The pairs (F, H) of invariant observables of _PAIR_PARAMS on `chart`,
    a tuple of tuples, built once; an unknown chart raises ValueError before
    any cache lookup."""
    return _family(invariant_observable, phase._chart_name(chart), _PAIR_PARAMS)


def invariant_triple(chart):
    """The invariant observables F, G, H of _TRIPLE_PARAMS on `chart`, as
    invariant_pairs."""
    return _family(invariant_observable, phase._chart_name(chart), _TRIPLE_PARAMS)


_BRACKETS_BY_CHART = {chart: tuple(b for (c, _), b in br.BRACKETS.items() if c == chart)
                      for chart in phase.CHARTS}


# ---------------------------------------------------------------------------
# check bodies: each maps (n, seeds) to arrays (defect, scale) that broadcast
# to one shape (..., len(seeds)), samples k along the leading axes in C order;
# run_check fails a non-finite sample, a scale <= 0, a defect < 0 or no sample


def _hamiltonian_pairs(chart):
    """The pairs (H_i, H_j), 1 <= i < j <= 3, on `chart`, as invariant_pairs."""
    return _family(hamiltonian_observable, phase._chart_name(chart), _HK_PAIRS)


def _pair_grads(pairs, x) -> tuple:
    """(d, i, j): the stack d of the gradients at x of the distinct
    observables of the pairs (F, H), all from one phase.grads call, and the
    index arrays of each pair's F and H in it."""
    Fs = list(dict.fromkeys(F for pair in pairs for F in pair))
    i, j = np.array([[Fs.index(F) for F in pair] for pair in pairs]).T
    return br.stack(phase.grads(Fs, x)), i, j


def _antisymmetry_samples(pairs_of, charts, n, seeds):
    """{F,H} + {H,F} for every bracket of each chart on the pairs
    pairs_of(chart), pair-major, from one gradient sweep per chart; each
    bracket contracts all pairs in both orders at once."""
    parts = []
    for chart in charts:
        x = sample_points(chart, n, seeds)
        d, i, j = _pair_grads(pairs_of(chart), x)
        ij = np.array([i, j])
        v1, v2 = np.array([b.contract(x, br.take(d, ij), br.take(d, ij[::-1]))
                           for b in _BRACKETS_BY_CHART[chart]]).transpose(1, 2, 0, 3)
        parts.append((abs(v1 + v2), 1.0 + abs(v1) + abs(v2)))   # (pair, bracket) + S
    return tuple(np.concatenate([v.reshape(-1, len(seeds)) for v in c]) for c in zip(*parts))


def check_leibniz(n, seeds):
    """{F,GH} against G{F,H} + H{F,G} for every bracket of each chart, with
    d(GH) = G dH + H dG formed from the one sweep of dF, dG, dH per chart.
    contract is linear in dF and each map sharp in dH, so the defect is
    rounding: it checks that every map is linear."""
    parts = []
    for chart, bracket_list in _BRACKETS_BY_CHART.items():
        (F, G), (_, H) = invariant_pairs(chart)[:2]
        x = sample_points(chart, n, seeds)
        gx, hx = np.moveaxis(phase._values((G.value, H.value), x), -1, 0)
        dF, dG, dH = phase.grads((F, G, H), x)
        gm, hm = gx[:, None, None], hx[:, None, None]
        dGH = type(dG)(*(gm * a + hm * b for a, b in zip(dH, dG)))
        right = br.stack((dGH, dG, dH))
        lhs, fg, fh = np.array([b.contract(x, dF, right)
                                for b in bracket_list]).swapaxes(0, 1)   # (bracket,) + S each
        rhs = gx * fh + hx * fg
        parts.append((abs(lhs - rhs), 1.0 + abs(lhs) + abs(gx * fh) + abs(hx * fg)))
    return tuple(map(np.concatenate, zip(*parts)))


def _jacobi_samples(brackets, coeffs, n, seeds):
    """Per row s of the coefficients: |s.T.s| of sum_i s_i b_i (T the
    jacobiator at the stacked points) against 1 + sum |s.V|, V the pair values
    {F,G}, {G,H}, {H,F} of the b_i from one set of gradients of F, G, H."""
    s = np.array(coeffs)[:, None, None, :]                        # (c, 1, 1, b)
    col = s.swapaxes(-1, -2)
    F, G, H = invariant_triple(brackets[0].chart)
    x = sample_points(brackets[0].chart, n, seeds)
    T = br.jacobiator(brackets, F, G, H, x).transpose(2, 0, 1)   # (b, b) + S as S + (b, b)
    pairs = br.cyclic_pairs(*phase.grads((F, G, H), x))
    V = np.array([b.contract(x, *pairs) for b in brackets]).transpose(1, 2, 0)  # (3,) + S + (b,)
    return abs(s @ T @ col)[..., 0, 0], 1.0 + abs(V @ col)[..., 0].sum(1)      # (c,) + S


def _ladder_samples(pb1, pb2, n, seeds):
    """{F, H_k}_2 against {F, H_{k+1}}_1 for k = 1..4 on the chart of pb1;
    dF and the analytic dH_1..dH_5 come from one grads call, and each
    bracket contracts dF with all of its dH_k at once."""
    chart = pb1.chart
    F = invariant_observable(1, 1, "re", chart=chart)
    x = sample_points(chart, n, seeds)
    Hs = [hamiltonian_observable(k, chart=chart) for k in range(1, 6)]
    dF, *dH = phase.grads([F] + Hs, x)
    dH = br.stack(dH)
    a = pb2.contract(x, dF, br.take(dH, slice(0, 4)))
    b = pb1.contract(x, dF, br.take(dH, slice(1, 5)))
    return abs(a - b), 1.0 + abs(a) + abs(b)


def check_involutivity(n, seeds):
    """{H_i, H_j}, samples (i, j, bracket) for i, j = 1..5 under both full
    brackets; each contracts the whole grid of the analytic dH_k at once,
    its rows and columns broadcast views of one stack."""
    x = sample_points("full", n, seeds)
    Hs = [hamiltonian_observable(k) for k in range(1, 6)]
    dH = br.stack(phase.grads(Hs, x))
    rows, cols = br.take(dH, np.s_[:, None]), br.take(dH, np.s_[None, :])
    V = np.array([b.contract(x, rows, cols) for b in (br.pb1_full, br.pb2_full)])
    v = abs(np.array([H.value(x) for H in Hs]))[:, None, None]   # (5, 1, 1) + S
    return abs(np.moveaxis(V, 0, 2)), 1.0 + v + v.swapaxes(0, 1)


def _grad_norm(g) -> np.ndarray:
    """Norm of a gradient tuple, one value per member of a stack."""
    return np.sqrt(sum(phase._member_norm(c, c.shape[:-2]) ** 2 for c in g))


def _red_to_full(x: RedPoint) -> FullPoint:
    return FullPoint(x.Q.matrix(), x.L)


def _transfer_samples(bracket, ref_bracket, to_ref, n, seeds):
    """`bracket` at x against `ref_bracket` at to_ref(x) on the invariant
    pairs of their charts.  The bracket contracts two FD gradients, so the
    scale adds |dF|*|dH| to the two values; the gradients of all pairs are
    taken in one sweep on each side and contracted in one call."""
    x = sample_points(bracket.chart, n, seeds)
    y = to_ref(x)
    d, i, j = _pair_grads(invariant_pairs(bracket.chart), x)
    e, k, m = _pair_grads(invariant_pairs(ref_bracket.chart), y)
    a = bracket.contract(x, br.take(d, i), br.take(d, j))
    b = ref_bracket.contract(y, br.take(e, k), br.take(e, m))
    norm = _grad_norm(d)
    return abs(a - b), 1.0 + abs(a) + abs(b) + norm[i] * norm[j]


def _pd_red_points(n, seeds):
    """Reduced points with positive definite L = A A^dagger + 1/2, one per
    seed, stacked; Q is that of sample_points("red", n, seeds).  Drawn once
    per (n, seed tuple) and read-only, as sample_points."""
    return _pd_red_stack(n, tuple(seeds))


@lru_cache(maxsize=phase._MEMO_SIZE)
def _pd_red_stack(n: int, seeds: tuple) -> RedPoint:
    def pd(seed):
        rng = np.random.default_rng([23, n, seed])
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return A @ A.conj().T + 0.5 * np.eye(n)
    L = np.stack([pd(seed) for seed in seeds])
    return phase._read_only(RedPoint(sample_points("red", n, seeds).Q, make_hermitian(L)))


def _chol_cond_factor(L) -> np.ndarray:
    """Forward-error amplification of a triangular-factorization round trip,
    one value per member: the factor itself carries sqrt(kappa(L)) of the
    matrix conditioning."""
    w = np.linalg.eigvalsh(L)
    return np.sqrt(w[..., -1] / w[..., 0])


def check_roundtrip_rs(n, seeds):
    S = (len(seeds),)
    x = sample_points("rs", n, seeds)
    mid = coords.from_rs(x)
    back = coords.to_rs(mid)
    defect = (phase._member_norm(back.p - x.p, S)
              + phase._member_norm(back.lam - x.lam, S)
              + phase._member_norm(back.Q.q - x.Q.q, S))
    y = _pd_red_points(n, seeds)
    back2 = coords.from_rs(coords.to_rs(y))
    return (np.array([defect, phase._member_norm(back2.L - y.L, S)]),
            np.array([(1.0 + phase.point_norm(x)) * _chol_cond_factor(mid.L),
                      (1.0 + phase.point_norm(y)) * _chol_cond_factor(y.L)]))


def check_roundtrip_suth(n, seeds):
    S = (len(seeds),)
    x = sample_points("suth", n, seeds)
    back = coords.to_suth(coords.from_suth(x))
    defect = phase._member_norm(back.p - x.p, S) + phase._member_norm(back.phi - x.phi, S)
    y = sample_points("red", n, seeds)
    back2 = coords.from_suth(coords.to_suth(y))
    return (np.array([defect, phase._member_norm(back2.L - y.L, S)]),
            1.0 + np.array([phase.point_norm(x), phase.point_norm(y)]))


def check_bplus_residual(n, seeds):
    x = sample_points("rs", n, seeds)
    bp = coords.solve_bplus(x.Q, x.lam)
    Qm = x.Q.matrix()
    res = bp @ x.lam - Qm.conj() @ bp @ Qm
    return (phase._member_norm(res, res.shape[:-2]),
            1.0 + phase._member_norm(bp, bp.shape[:-2]))


def check_hamiltonian_rs(n, seeds):
    x = sample_points("rs", n, seeds)
    a = dynamics.h_rs(x)
    b = np.real(np.trace(coords.from_rs(x).L, axis1=-2, axis2=-1))
    return abs(a - b), 1.0 + abs(a) + abs(b)


def check_hamiltonian_suth(n, seeds):
    x = sample_points("suth", n, seeds)
    a = dynamics.h_suth2(x)
    b = dynamics.hk(coords.from_suth(x).L, 2)
    return abs(a - b), 1.0 + abs(a) + abs(b)


def _rk4_flow(x0, k, t1, steps):
    """`steps` classic RK4 steps of dg/dt = A g, A = i L^k, from 0 to t1.  A is
    constant, so one step multiplies g by RK4's step polynomial
    T(hA) = 1 + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 (Horner form here), and
    the steps are one matrix power of it."""
    Z = (t1 / steps) * 1j * np.linalg.matrix_power(x0.L, k)
    one = np.eye(x0.n)
    T = one + Z @ (one + Z / 2 @ (one + Z / 3 @ (one + Z / 4)))
    return np.linalg.matrix_power(T, steps) @ x0.g


# 2^12 steps, a power of two: matrix_power takes 12 squarings, and the oracle
# then reads at most 8e-12 at n <= 5, three decades under the RK4 level.
RK4_STEPS = 4096


def _g_samples(pairs):
    """|a - b| against 1 + |a| for the pairs (a, b) of group element stacks."""
    a, b = map(np.array, zip(*pairs))
    return phase._member_norm(a - b, a.shape[:-2]), 1.0 + phase._member_norm(a, a.shape[:-2])


def check_flow_rk4(n, seeds):
    x0 = sample_points("full", n, seeds)
    return _g_samples((dynamics.flow(x0, k, 1.0).g, _rk4_flow(x0, k, 1.0, RK4_STEPS))
                      for k in (1, 2))


def check_flow_conserved(n, seeds):
    """Drift of h_1..h_n along the trajectory of the seed stack, one trajectory call."""
    x0 = sample_points("full", n, seeds)
    c = dynamics.trajectory(x0, 2, np.linspace(0.0, 1.0, 21)).conserved   # (T, S, n)
    drift = np.max(np.abs(c - c[:1]), axis=0)   # (S, n): one sample per h_l
    return drift.T, (1.0 + np.abs(c[0])).T


def check_flow_group(n, seeds):
    x0 = sample_points("full", n, seeds)
    return _g_samples((dynamics.flow(x0, k, 0.7 + 0.4).g,
                       dynamics.flow(dynamics.flow(x0, k, 0.7), k, 0.4).g) for k in (1, 2))


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckDef:
    func: object       # func(n, seeds) -> (defect, scale) of one shape (..., len(seeds)),
                       # finite, scale > 0, defect >= 0, at least one sample, or it fails
    tolerance: float   # relative; one of the config levels EXACT .. NESTED
    suites: tuple[str, ...]


CHECKS: dict[str, CheckDef] = {
    "antisymmetry": CheckDef(
        partial(_antisymmetry_samples, invariant_pairs, tuple(_BRACKETS_BY_CHART)),
        FD, ("theorem1",)),
    "antisymmetry-hk": CheckDef(
        partial(_antisymmetry_samples, _hamiltonian_pairs, ("full",)),
        ANALYTIC, ("theorem1",)),
    "leibniz": CheckDef(check_leibniz, EXACT, ("theorem1",)),
    # Jacobi rows: brackets b_i and the coefficient vectors s of sum_i s_i b_i
    "jacobi-full-1": CheckDef(partial(_jacobi_samples, (br.pb1_full,), [(1.0,)]),
                              NESTED, ("theorem1",)),
    "jacobi-full-2": CheckDef(partial(_jacobi_samples, (br.pb2_full,), [(1.0,)]),
                              NESTED, ("theorem1",)),
    "jacobi-pencil": CheckDef(partial(_jacobi_samples, (br.pb1_full, br.pb2_full),
                                      [(1.0, -1.0), (1.0, 0.5), (1.0, 1.0)]),
                              NESTED, ("theorem1",)),
    "jacobi-red": CheckDef(partial(_jacobi_samples, (br.pb1_red, br.pb2_red),
                                   [(1.0, 0.0), (0.0, 1.0)]),
                           NESTED, ("theorem2",)),
    "jacobi-suth": CheckDef(partial(_jacobi_samples, (br.pb_suth,), [(1.0,)]),
                            NESTED, ("prop4",)),
    # the ladder identity holds for every dF, so only the analytic dH_k enter
    "ladder-full": CheckDef(partial(_ladder_samples, br.pb1_full, br.pb2_full),
                            ANALYTIC, ("theorem1",)),
    "ladder-red": CheckDef(partial(_ladder_samples, br.pb1_red, br.pb2_red),
                           ANALYTIC, ("theorem2",)),
    "involutivity": CheckDef(check_involutivity, ANALYTIC, ("theorem1",)),
    "reduction-pb1": CheckDef(
        partial(_transfer_samples, br.pb1_red, br.pb1_full, _red_to_full),
        FD, ("theorem2",)),
    "reduction-pb2": CheckDef(
        partial(_transfer_samples, br.pb2_red, br.pb2_full, _red_to_full),
        FD, ("theorem2",)),
    # one FD level on each side, but the reference pb2_red gradient steps by
    # the whole point norm: at large |L| its phase step is large, and its
    # truncation error reaches 7e-5 at n = 5
    "rs-bracket": CheckDef(
        partial(_transfer_samples, br.pb_rs, br.pb2_red, coords.from_rs),
        NESTED, ("prop3",)),
    "suth-bracket": CheckDef(
        partial(_transfer_samples, br.pb_suth, br.pb1_red, coords.from_suth),
        FD, ("prop4",)),
    "roundtrip-rs": CheckDef(check_roundtrip_rs, EXACT, ("prop3",)),
    "roundtrip-suth": CheckDef(check_roundtrip_suth, EXACT, ("prop4",)),
    "bplus-residual": CheckDef(check_bplus_residual, EXACT, ("prop3",)),
    "hamiltonian-rs": CheckDef(check_hamiltonian_rs, EXACT, ("prop3",)),
    "hamiltonian-suth": CheckDef(check_hamiltonian_suth, EXACT, ("prop4",)),
    "flow-rk4": CheckDef(check_flow_rk4, RK4, ("flows",)),
    "flow-conserved": CheckDef(check_flow_conserved, ANALYTIC, ("flows",)),
    "flow-group": CheckDef(check_flow_group, EXACT, ("flows",)),
}

SUITES = ("theorem1", "theorem2", "prop3", "prop4", "flows")


def suite_checks(suite: str) -> list[str]:
    if suite == "all":
        return list(CHECKS)
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    return [cid for cid, cdef in CHECKS.items() if suite in cdef.suites]


def _sample_array(func, n: int, seeds: tuple) -> np.ndarray:
    """func(n, seeds) as one (2, K, S) array of defects and scales, sample k
    of seed i at [:, k, i]; ValueError unless they broadcast to (..., S)."""
    a, s = (np.asarray(v, dtype=float) for v in func(n, seeds))
    a, s = (a, s) if a.shape == s.shape else np.broadcast_arrays(a, s)
    if a.shape[-1:] != (len(seeds),):
        raise ValueError(f"a body's arrays must broadcast to (..., {len(seeds)}), got {a.shape}")
    return np.array((a, s)).reshape(2, -1, len(seeds))


def run_check(spec: CheckSpec) -> CheckResult:
    """Run the row's body once on seeds 0..S-1.  If that raises, the seeds
    are replayed one at a time up to the first that raises: the samples of
    the seeds before it count, and the error names it; if none raises alone,
    the error of the whole stack is recorded.  Samples it cannot judge fail it."""
    cdef = CHECKS[spec.check_id]
    t0 = time.perf_counter()
    seeds, errors = tuple(range(spec.seeds)), []
    try:
        samples, seeds_run = _sample_array(cdef.func, spec.n, seeds), spec.seeds
    except Exception as stacked:  # sampler / chart failures are reported, not fatal
        samples, seeds_run = np.empty((2, 0, 0)), 0
        for seed in seeds:
            try:
                part = _sample_array(cdef.func, spec.n, (seed,))
                samples = np.concatenate((samples, part), axis=-1) if seeds_run else part
            except Exception as exc:
                errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
                break
            seeds_run += 1
        else:
            errors.append(f"seeds 0..{spec.seeds - 1} stacked: "
                          f"{type(stacked).__name__}: {stacked}")
    wall = time.perf_counter() - t0
    K = samples.shape[1]
    a, s = samples.transpose(0, 2, 1).reshape(2, -1)   # sample k of seed i at i * K + k
    finite = np.isfinite(a) & np.isfinite(s)
    at = (finite & (a >= 0.0) & (s > 0.0)).nonzero()[0]   # the samples it judges
    if at.size < a.size:
        for bad, text in ((~finite, "non-finite defect {} or scale {}"),
                          (finite & (s <= 0.0), "scale {1} is not positive"),
                          (finite & (a < 0.0), "negative defect {0}")):
            for i in bad.nonzero()[0][:1]:   # the first, if any
                errors.append(f"seed {i // K} sample {i % K}: " + text.format(a[i], s[i]))
        a, s = a[at], s[at]
    if seeds_run and not K:
        errors.append(f"seeds 0..{seeds_run - 1}: the body returned no samples")
    max_abs, max_rel, worst_seed = np.nan, np.nan, None
    if at.size:
        with np.errstate(over="ignore"):
            rel = a / s
        w = (rel == rel.max()).nonzero()[0][0]   # the first of equal maxima, as max with a key
        max_abs, max_rel, worst_seed = a.max(), rel[w], int(at[w]) // K
    passed = bool(at.size and max_rel <= cdef.tolerance and not errors)
    return CheckResult(spec.check_id, spec.n, seeds_run, float(max_abs), float(max_rel),
                       worst_seed, cdef.tolerance, passed, wall, errors)


def run_checks(specs: list[CheckSpec]) -> dict:
    """Execute a list of check specs and aggregate a JSON-ready report: one
    entry per result with the fields of CheckResult, NaN written as null."""
    results = [run_check(s) for s in specs]
    return {
        "library_version": __version__,
        "specs": [{"check_id": s.check_id, "n": s.n, "seeds": s.seeds} for s in specs],
        "checks": [
            {k: None if isinstance(v, float) and np.isnan(v) else v
             for k, v in asdict(r).items()}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
