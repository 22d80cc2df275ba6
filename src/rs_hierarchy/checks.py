"""Registry of machine checks for the bracket structure, the reduction and
the changes of variables, plus the runner that aggregates them into a report.

Each check draws deterministic sample points, evaluates a defect that should
vanish (or an equality that should hold) and reports the worst absolute and
relative defect and the seed of the worst relative one.  The relative defect
is measured against a per-sample scale of the form 1 + (magnitudes entering
the identity).

A registry row maps a check id to a body func(n, seeds) that returns its
(abs_defect, scale) samples at a tuple of seeds, each an array pair of shape
(len(seeds),): a check function, or a shared sampler bound to its brackets,
such as _transfer_samples(pb_rs, pb2_red, from_rs), which compares one
Bracket with another across a chart map.  Every body evaluates all its
seeds as one stack of sample_points (one gradient sweep, jacobiator call,
chart round trip, flow or trajectory).
A body that contracts gradients stacks all its pairs along pair axes in
front of the seeds and makes one Bracket.contract call per bracket (the
involutivity grid as views of one stack of the dH_k, broadcast by numpy),
each value equal to that of the per-pair contract, bit for bit.
run_check calls the body once on seeds 0..S-1 and lays the samples out
seed-major.  Rows share gradients through phase's gradient memo (keyed by
content, at most _MEMO_SIZE entries, emptied by phase.clear_memos()):
reduction-pb2 takes those of reduction-pb1, jacobi-full-2 and
jacobi-pencil those of jacobi-full-1, leibniz and the ladders those of
antisymmetry.  A row's samples do not depend on what the memo holds.
Each row states its tolerance once, as the config level (EXACT, ANALYTIC,
RK4, FD, NESTED) of the error model of what it checks; nothing else sets it.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial

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
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.seeds < 1:
            raise ValueError("need seeds >= 1")
        if self.check_id not in CHECKS:
            raise KeyError(f"unknown check id {self.check_id!r}")


@dataclass
class CheckResult:
    check_id: str
    n: int
    seeds_run: int
    max_abs_defect: float       # over the finite samples; NaN without any
    max_rel_defect: float
    worst_seed: int | None      # seed of the largest abs/scale; None without finite samples
    tolerance: float
    passed: bool
    wall_time: float
    errors: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# observable families


_PAIR_PARAMS = [((1, 1, "re"), (0, 2, "re")),
                ((2, 1, "re"), (1, 2, "im")),
                ((1, 0, "im"), (1, 1, "im"))]

_TRIPLE_PARAMS = ((1, 1, "re"), (0, 2, "re"), (1, 0, "re"))


def invariant_pairs(chart):
    return [tuple(invariant_observable(*p, chart=chart) for p in pair)
            for pair in _PAIR_PARAMS]


def invariant_triple(chart):
    return tuple(invariant_observable(*t, chart=chart) for t in _TRIPLE_PARAMS)


_BRACKETS_BY_CHART = {
    "full": (br.pb1_full, br.pb2_full),
    "red": (br.pb1_red, br.pb2_red),
    "suth": (br.pb_suth,),
}


# ---------------------------------------------------------------------------
# check bodies: each maps (n, seeds) to a list of (abs_defect, scale) samples,
# each an array pair over the seeds


def _hamiltonian_pairs(chart):
    Hs = [hamiltonian_observable(k, chart=chart) for k in (1, 2, 3)]
    return [(Hs[i], Hs[j]) for i in range(3) for j in range(i + 1, 3)]


def _pair_grads(pairs, x) -> tuple:
    """(d, i, j): the stack d of the gradients at x of the distinct
    observables of the pairs (F, H), all from one phase.grads call, and the
    index arrays of each pair's F and H in it."""
    Fs = list(dict.fromkeys(F for pair in pairs for F in pair))
    i, j = np.array([[Fs.index(F) for F in pair] for pair in pairs]).T
    return br.stack(phase.grads(Fs, x)), i, j


def _antisymmetry_samples(pairs_of, charts, n, seeds):
    """{F,H} + {H,F} for every bracket of each chart on the pairs
    pairs_of(chart); the gradients of all pairs are taken in one sweep per
    chart and each bracket contracts all pairs in both orders at once."""
    out = []
    for chart in charts:
        x = sample_points(chart, n, seeds)
        d, i, j = _pair_grads(pairs_of(chart), x)
        ij = np.array([i, j])
        v = [b.contract(x, br.take(d, ij), br.take(d, ij[::-1]))
             for b in _BRACKETS_BY_CHART[chart]]
        out += [(abs(v1[p] + v2[p]), 1.0 + abs(v1[p]) + abs(v2[p]))
                for p in range(len(i)) for v1, v2 in v]
    return out


def check_leibniz(n, seeds):
    """{F,GH} against G{F,H} + H{F,G} for every bracket of each chart, with
    d(GH) = G dH + H dG formed from the one sweep of dF, dG, dH per chart.
    A Bracket is bilinear in its gradient tuples, so the defect is rounding:
    it checks that each contract is the bilinear form it states."""
    out = []
    for chart, bracket_list in _BRACKETS_BY_CHART.items():
        pairs = invariant_pairs(chart)
        (F, G), (_, H) = pairs[0], pairs[1]
        x = sample_points(chart, n, seeds)
        gx, hx = np.moveaxis(phase._values((G.value, H.value), x), -1, 0)
        dF, dG, dH = phase.grads((F, G, H), x)
        gm, hm = gx[:, None, None], hx[:, None, None]
        dGH = type(dG)(*(gm * a + hm * b for a, b in zip(dH, dG)))
        right = br.stack((dGH, dG, dH))
        for bracket in bracket_list:
            lhs, fg, fh = bracket.contract(x, dF, right)
            rhs = gx * fh + hx * fg
            scale = 1.0 + abs(lhs) + abs(gx * fh) + abs(hx * fg)
            out.append((abs(lhs - rhs), scale))
    return out


def _jacobi_samples(brackets, coeffs, n, seeds):
    """Per coefficient vector s: the defect |s.T.s| of sum_i s_i b_i (T the
    jacobiator of the stack of sample points, its batch axes moved first)
    against 1 + sum |s.V|, V the pair values {F,G}, {G,H}, {H,F} of the b_i
    from one set of gradients of F, G, H."""
    F, G, H = invariant_triple(brackets[0].chart)
    x = sample_points(brackets[0].chart, n, seeds)
    T = np.moveaxis(br.jacobiator(brackets, F, G, H, x), (0, 1), (-2, -1))   # S + (b, b)
    pairs = br.cyclic_pairs(*phase.grads((F, G, H), x))
    V = np.stack([b.contract(x, *pairs) for b in brackets], axis=-1)  # (3,) + S + (b,)
    return [(abs(s @ T @ s), 1.0 + sum(abs(V @ s))) for s in map(np.array, coeffs)]


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
    return list(zip(abs(a - b), 1.0 + abs(a) + abs(b)))


def check_involutivity(n, seeds):
    """{H_i, H_j} for i, j = 1..5 under both full brackets; the analytic dH_k
    and the values H_k(x) are taken once, and each bracket contracts the
    whole 5 x 5 grid at once, its rows and columns broadcast views of one
    stack of the dH_k."""
    x = sample_points("full", n, seeds)
    Hs = [hamiltonian_observable(k) for k in range(1, 6)]
    dH = br.stack(phase.grads(Hs, x))
    rows, cols = br.take(dH, np.s_[:, None]), br.take(dH, np.s_[None, :])
    V = [b.contract(x, rows, cols) for b in (br.pb1_full, br.pb2_full)]
    v = [H.value(x) for H in Hs]
    return [(abs(Vb[i, j]), 1.0 + abs(v[i]) + abs(v[j]))
            for i in range(5) for j in range(5) for Vb in V]


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
    scale = 1.0 + abs(a) + abs(b) + norm[i] * norm[j]
    return list(zip(abs(a - b), scale))


def _pd_red_points(n, seeds):
    """Reduced points with positive definite L = A A^dagger + 1/2, one per
    seed, stacked; Q is that of sample_points("red", n, seeds)."""
    def pd(seed):
        rng = np.random.default_rng([23, n, seed])
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return A @ A.conj().T + 0.5 * np.eye(n)
    L = np.stack([pd(seed) for seed in seeds])
    return RedPoint(sample_points("red", n, seeds).Q, make_hermitian(L))


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
    return [(defect, (1.0 + phase.point_norm(x)) * _chol_cond_factor(mid.L)),
            (phase._member_norm(back2.L - y.L, S),
             (1.0 + phase.point_norm(y)) * _chol_cond_factor(y.L))]


def check_roundtrip_suth(n, seeds):
    S = (len(seeds),)
    x = sample_points("suth", n, seeds)
    back = coords.to_suth(coords.from_suth(x))
    defect = phase._member_norm(back.p - x.p, S) + phase._member_norm(back.phi - x.phi, S)
    y = sample_points("red", n, seeds)
    back2 = coords.from_suth(coords.to_suth(y))
    return [(defect, 1.0 + phase.point_norm(x)),
            (phase._member_norm(back2.L - y.L, S), 1.0 + phase.point_norm(y))]


def check_bplus_residual(n, seeds):
    x = sample_points("rs", n, seeds)
    bp = coords.solve_bplus(x.Q, x.lam)
    Qm = x.Q.matrix()
    res = bp @ x.lam - Qm.conj() @ bp @ Qm
    return [(phase._member_norm(res, res.shape[:-2]),
             1.0 + phase._member_norm(bp, bp.shape[:-2]))]


def check_hamiltonian_rs(n, seeds):
    x = sample_points("rs", n, seeds)
    a = dynamics.h_rs(x)
    b = np.real(np.trace(coords.from_rs(x).L, axis1=-2, axis2=-1))
    return [(abs(a - b), 1.0 + abs(a) + abs(b))]


def check_hamiltonian_suth(n, seeds):
    x = sample_points("suth", n, seeds)
    a = dynamics.h_suth2(x)
    b = dynamics.hk(coords.from_suth(x).L, 2)
    return [(abs(a - b), 1.0 + abs(a) + abs(b))]


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
    """|a - b| against 1 + |a| for each pair (a, b) of stacks of group elements."""
    return [(phase._member_norm(a - b, a.shape[:-2]), 1.0 + phase._member_norm(a, a.shape[:-2]))
            for a, b in pairs]


def check_flow_rk4(n, seeds):
    x0 = sample_points("full", n, seeds)
    return _g_samples((dynamics.flow(x0, k, 1.0).g, _rk4_flow(x0, k, 1.0, RK4_STEPS))
                      for k in (1, 2))


def check_flow_conserved(n, seeds):
    """Drift of h_1..h_n along the trajectory of the seed stack, one trajectory call."""
    x0 = sample_points("full", n, seeds)
    c = dynamics.trajectory(x0, 2, np.linspace(0.0, 1.0, 21)).conserved   # (T, S, n)
    drift = np.max(np.abs(c - c[:1]), axis=0)   # (S, n): one sample per h_l
    return list(zip(drift.T, (1.0 + np.abs(c[0])).T))


def check_flow_group(n, seeds):
    x0 = sample_points("full", n, seeds)
    return _g_samples((dynamics.flow(x0, k, 0.7 + 0.4).g,
                       dynamics.flow(dynamics.flow(x0, k, 0.7), k, 0.4).g) for k in (1, 2))


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckDef:
    func: object       # func(n, seeds) -> [(abs_defect, scale), ...], arrays over seeds
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


def _seed_samples(func, n: int, seeds: tuple) -> list[tuple]:
    """(abs_defect, scale, seed, index) of each sample of func(n, seeds),
    seed-major: all samples of seeds[0] in the body's order (index 0, 1, ...),
    then those of seeds[1]..."""
    cols = [(np.asarray(a), np.asarray(s)) for a, s in func(n, seeds)]
    if any(v.shape != (len(seeds),) for pair in cols for v in pair):
        raise ValueError(f"a check body must return arrays of shape ({len(seeds)},)")
    cols = [(a.tolist(), s.tolist()) for a, s in cols]
    return [(a[i], s[i], seed, k) for i, seed in enumerate(seeds)
            for k, (a, s) in enumerate(cols)]


def run_check(spec: CheckSpec) -> CheckResult:
    """Run the row's body once on seeds 0..S-1.  If that raises, the seeds
    are replayed one at a time through the same body up to the first that
    raises: the samples of the seeds before it still count, and the error
    names it.  If no seed raises on its own, the error of the whole stack is
    recorded, so the check still fails.  A sample with a non-finite defect or
    scale fails the check too: the error names the first, and the worst
    sample is taken over the finite ones."""
    cdef = CHECKS[spec.check_id]
    t0 = time.perf_counter()
    seeds, errors = tuple(range(spec.seeds)), []
    try:
        samples, seeds_run = _seed_samples(cdef.func, spec.n, seeds), spec.seeds
    except Exception as stacked:  # sampler / chart failures are reported, not fatal
        samples, seeds_run = [], 0
        for seed in seeds:
            try:
                samples += _seed_samples(cdef.func, spec.n, (seed,))
            except Exception as exc:
                errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
                break
            seeds_run += 1
        else:
            errors.append(f"seeds 0..{spec.seeds - 1} stacked: "
                          f"{type(stacked).__name__}: {stacked}")
    wall = time.perf_counter() - t0
    finite = [t for t in samples if math.isfinite(t[0]) and math.isfinite(t[1])]
    if len(finite) < len(samples):
        a, s, seed, k = next(t for t in samples if t not in finite)
        errors.append(f"seed {seed} sample {k}: non-finite defect {a} or scale {s}")
    if finite:
        max_abs = max(t[0] for t in finite)
        a, s, worst_seed, _ = max(finite, key=lambda t: t[0] / t[1])
        max_rel = a / s
    else:
        max_abs = max_rel = float("nan")
        worst_seed = None
    passed = bool(finite and max_rel <= cdef.tolerance and not errors)
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
