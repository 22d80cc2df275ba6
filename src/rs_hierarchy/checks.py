"""Registry of machine checks for the bracket structure, the reduction and
the changes of variables, plus the runner that aggregates them into a report.

Each check draws deterministic sample points, evaluates a defect that should
vanish (or an equality that should hold) and reports the worst absolute and
relative defect and the seed of the worst relative one.  The relative defect
is measured against a per-sample scale of the form 1 + (magnitudes entering
the identity).

A registry row maps a check id to a per-seed body func(n, seed) that returns
the (abs_defect, scale) samples of the points drawn from that seed: a check
function, or a shared sampler bound to its brackets, such as
_transfer_samples(pb_rs, pb2_red, from_rs), which compares one Bracket with
another across a chart map.  run_check alone loops over seeds 0..S-1.  Each
row states its check's tolerance once, as the config level of the error
model of what it checks (EXACT, ANALYTIC, RK4, FD, NESTED); a --profile
replaces it for every row.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import __version__, coords, dynamics, phase
from . import brackets as br
from .config import ANALYTIC, EXACT, FD, NESTED, PROFILES, RK4
from .phase import (FullPoint, RedPoint, hamiltonian_observable, invariant_observable,
                    sample_point)


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    n: int = 3
    seeds: int = 5
    profile: str | None = None   # None: use the registry row's tolerance

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.seeds < 1:
            raise ValueError("need seeds >= 1")
        if self.check_id not in CHECKS:
            raise KeyError(f"unknown check id {self.check_id!r}")
        if self.profile is not None and self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")


@dataclass
class CheckResult:
    check_id: str
    n: int
    seeds_run: int
    max_abs_defect: float
    max_rel_defect: float
    worst_seed: int | None      # seed of the largest abs/scale; None without samples
    profile: str | None
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
# check bodies: each maps (n, seed) to a list of (abs_defect, scale) samples


def _hamiltonian_pairs(chart):
    Hs = [hamiltonian_observable(k, chart=chart) for k in (1, 2, 3)]
    return [(Hs[i], Hs[j]) for i in range(3) for j in range(i + 1, 3)]


def _pair_grads(pairs, x) -> list[tuple]:
    """(dF, dH) at x for each pair (F, H): one gradient per distinct
    observable, all from one phase.grads call."""
    Fs = list(dict.fromkeys(F for pair in pairs for F in pair))
    d = dict(zip(Fs, phase.grads(Fs, x)))
    return [(d[F], d[H]) for F, H in pairs]


def _antisymmetry_samples(pairs_of, charts, n, seed):
    """{F,H} + {H,F} for every bracket of each chart on the pairs
    pairs_of(chart); the gradients of all pairs are taken in one sweep per
    chart and contracted in both orders."""
    out = []
    for chart in charts:
        x = sample_point(chart, n, seed)
        for dF, dH in _pair_grads(pairs_of(chart), x):
            for bracket in _BRACKETS_BY_CHART[chart]:
                v1, v2 = bracket.contract(x, dF, dH), bracket.contract(x, dH, dF)
                out.append((abs(v1 + v2), 1.0 + abs(v1) + abs(v2)))
    return out


def check_leibniz(n, seed):
    """{F,GH} against G{F,H} + H{F,G} for every bracket of each chart, with
    d(GH) = G dH + H dG formed from the one sweep of dF, dG, dH per chart.
    A Bracket is bilinear in its gradient tuples, so the defect is rounding:
    it checks that each contract is the bilinear form it states."""
    out = []
    for chart, bracket_list in _BRACKETS_BY_CHART.items():
        pairs = invariant_pairs(chart)
        (F, G), (_, H) = pairs[0], pairs[1]
        x = sample_point(chart, n, seed)
        gx, hx = G(x), H(x)
        dF, dG, dH = phase.grads((F, G, H), x)
        dGH = type(dG)(*(gx * a + hx * b for a, b in zip(dH, dG)))
        for bracket in bracket_list:
            lhs = bracket.contract(x, dF, dGH)
            fg = bracket.contract(x, dF, dG)
            fh = bracket.contract(x, dF, dH)
            rhs = gx * fh + hx * fg
            scale = 1.0 + abs(lhs) + abs(gx * fh) + abs(hx * fg)
            out.append((abs(lhs - rhs), scale))
    return out


def _pair_values(bracket, dF, dG, dH, x) -> list[float]:
    """({F,G}, {G,H}, {H,F}) at x from the gradients of F, G and H at x."""
    return [bracket.contract(x, a, b) for a, b in ((dF, dG), (dG, dH), (dH, dF))]


def _jacobi_scale(values) -> float:
    return 1.0 + sum(abs(v) for v in values)


def _jacobi_samples(brackets, coeffs, n, seed):
    """Per coefficient vector s: the defect |s.T.s| of sum_i s_i b_i (T the
    jacobiator) against the scale of s.V, V the pair values of the b_i from
    one set of gradients of F, G, H at x."""
    F, G, H = invariant_triple(brackets[0].chart)
    x = sample_point(brackets[0].chart, n, seed)
    T = br.jacobiator(brackets, F, G, H, x)
    d = phase.grads((F, G, H), x)
    V = np.array([_pair_values(b, *d, x) for b in brackets])
    return [(float(abs(s @ T @ s)), _jacobi_scale(s @ V)) for s in map(np.array, coeffs)]


def _ladder_samples(pb1, pb2, n, seed):
    """{F, H_k}_2 against {F, H_{k+1}}_1 for k = 1..4 on the chart of pb1;
    dF is taken once and contracted with the analytic dH_k."""
    chart = pb1.chart
    F = invariant_observable(1, 1, "re", chart=chart)
    x = sample_point(chart, n, seed)
    dF = phase.grad(F, x)
    dH = {k: phase.grad(hamiltonian_observable(k, chart=chart), x) for k in range(1, 6)}
    ab = [(pb2.contract(x, dF, dH[k]), pb1.contract(x, dF, dH[k + 1])) for k in range(1, 5)]
    return [(abs(a - b), 1.0 + abs(a) + abs(b)) for a, b in ab]


def check_involutivity(n, seed):
    """{H_i, H_j} for i, j = 1..5 under both full brackets; the analytic dH_k
    and the values H_k(x) are taken once."""
    x = sample_point("full", n, seed)
    Hs = [hamiltonian_observable(k) for k in range(1, 6)]
    dH = phase.grads(Hs, x)
    v = [H(x) for H in Hs]
    return [(abs(bracket.contract(x, dH[i], dH[j])), 1.0 + abs(v[i]) + abs(v[j]))
            for i in range(5) for j in range(5) for bracket in (br.pb1_full, br.pb2_full)]


def _grad_norm(g) -> float:
    return float(np.sqrt(sum(np.linalg.norm(c) ** 2 for c in g)))


def _red_to_full(x: RedPoint) -> FullPoint:
    return FullPoint(x.Q.matrix(), x.L)


def _transfer_samples(bracket, ref_bracket, to_ref, n, seed):
    """`bracket` at x against `ref_bracket` at to_ref(x) on the invariant
    pairs of their charts.  The bracket contracts two FD gradients, so the
    scale adds |dF|*|dH| to the two values; the gradients of all pairs are
    taken in one sweep on each side."""
    x = sample_point(bracket.chart, n, seed)
    y = to_ref(x)
    out = []
    for (dF, dH), (df, dh) in zip(_pair_grads(invariant_pairs(bracket.chart), x),
                                  _pair_grads(invariant_pairs(ref_bracket.chart), y)):
        a = bracket.contract(x, dF, dH)
        b = ref_bracket.contract(y, df, dh)
        scale = 1.0 + abs(a) + abs(b) + _grad_norm(dF) * _grad_norm(dH)
        out.append((abs(a - b), scale))
    return out


def _pd_red_point(n, seed):
    rng = np.random.default_rng([23, n, seed])
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    L = A @ A.conj().T + 0.5 * np.eye(n)
    Q = sample_point("red", n, seed).Q
    from .algebra import make_hermitian
    return RedPoint(Q, make_hermitian(L))


def _chol_cond_factor(L) -> float:
    """Forward-error amplification of a triangular-factorization round trip:
    the factor itself carries sqrt(kappa(L)) of the matrix conditioning."""
    w = np.linalg.eigvalsh(L)
    return float(np.sqrt(w[-1] / w[0]))


def check_roundtrip_rs(n, seed):
    x = sample_point("rs", n, seed)
    mid = coords.from_rs(x)
    back = coords.to_rs(mid)
    defect = (np.linalg.norm(back.p - x.p)
              + np.linalg.norm(back.lam - x.lam)
              + np.linalg.norm(back.Q.q - x.Q.q))
    y = _pd_red_point(n, seed)
    back2 = coords.from_rs(coords.to_rs(y))
    return [(float(defect), (1.0 + phase.point_norm(x)) * _chol_cond_factor(mid.L)),
            (float(np.linalg.norm(back2.L - y.L)),
             (1.0 + phase.point_norm(y)) * _chol_cond_factor(y.L))]


def check_roundtrip_suth(n, seed):
    x = sample_point("suth", n, seed)
    back = coords.to_suth(coords.from_suth(x))
    defect = (np.linalg.norm(back.p - x.p)
              + np.linalg.norm(back.phi - x.phi))
    y = sample_point("red", n, seed)
    back2 = coords.from_suth(coords.to_suth(y))
    return [(float(defect), 1.0 + phase.point_norm(x)),
            (float(np.linalg.norm(back2.L - y.L)), 1.0 + phase.point_norm(y))]


def check_bplus_residual(n, seed):
    x = sample_point("rs", n, seed)
    bp = coords.solve_bplus(x.Q, x.lam)
    Qm = x.Q.matrix()
    res = np.linalg.norm(bp @ x.lam - Qm.conj() @ bp @ Qm)
    return [(float(res), 1.0 + float(np.linalg.norm(bp)))]


def check_hamiltonian_rs(n, seed):
    x = sample_point("rs", n, seed)
    a = dynamics.h_rs(x)
    b = float(np.real(np.trace(coords.from_rs(x).L)))
    return [(abs(a - b), 1.0 + abs(a) + abs(b))]


def check_hamiltonian_suth(n, seed):
    x = sample_point("suth", n, seed)
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
    """|a - b| against 1 + |a| for each pair (a, b) of group elements."""
    return [(float(np.linalg.norm(a - b)), 1.0 + float(np.linalg.norm(a))) for a, b in pairs]


def check_flow_rk4(n, seed):
    x0 = sample_point("full", n, seed)
    return _g_samples((dynamics.flow(x0, k, 1.0).g, _rk4_flow(x0, k, 1.0, RK4_STEPS))
                      for k in (1, 2))


def check_flow_conserved(n, seed):
    x0 = sample_point("full", n, seed)
    traj = dynamics.trajectory(x0, 2, np.linspace(0.0, 1.0, 21))
    drift = np.max(np.abs(traj.conserved - traj.conserved[0]), axis=0)
    ref = 1.0 + np.abs(traj.conserved[0])
    return [(float(d), float(r)) for d, r in zip(drift, ref)]


def check_flow_group(n, seed):
    x0 = sample_point("full", n, seed)
    return _g_samples((dynamics.flow(x0, k, 0.7 + 0.4).g,
                       dynamics.flow(dynamics.flow(x0, k, 0.7), k, 0.4).g) for k in (1, 2))


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckDef:
    func: object       # per-seed body: func(n, seed) -> [(abs_defect, scale), ...]
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
                                   [(1.0, 0.0), (0.0, 1.0)]), NESTED, ("theorem2",)),
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


def run_check(spec: CheckSpec) -> CheckResult:
    """Run the row's body for seeds 0..S-1, stopping at the first seed that
    raises; the samples of the seeds before it still count."""
    cdef = CHECKS[spec.check_id]
    tol = PROFILES[spec.profile] if spec.profile else cdef.tolerance
    t0 = time.perf_counter()
    samples, errors = [], []   # samples: (abs_defect, scale, seed)
    seeds_run = 0
    for seed in range(spec.seeds):
        try:
            samples += [(a, s, seed) for a, s in cdef.func(spec.n, seed)]
        except Exception as exc:  # sampler / chart failures are reported, not fatal
            errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            break
        seeds_run += 1
    wall = time.perf_counter() - t0
    if samples:
        max_abs = max(a for a, _, _ in samples)
        a, s, worst_seed = max(samples, key=lambda t: t[0] / t[1])
        max_rel = a / s
    else:
        max_abs = max_rel = float("nan")
        worst_seed = None
    passed = bool(samples and max_rel <= tol and not errors)
    return CheckResult(spec.check_id, spec.n, seeds_run, float(max_abs), float(max_rel),
                       worst_seed, spec.profile, tol, passed, wall, errors)


def run_checks(specs: list[CheckSpec]) -> dict:
    """Execute a list of check specs and aggregate a JSON-ready report: one
    entry per result with the fields of CheckResult, NaN written as null."""
    results = [run_check(s) for s in specs]
    return {
        "library_version": __version__,
        "config": {
            "profiles": {k: float(v) for k, v in PROFILES.items()},
        },
        "specs": [
            {"check_id": s.check_id, "n": s.n, "seeds": s.seeds,
             "profile": s.profile}
            for s in specs
        ],
        "checks": [
            {k: None if isinstance(v, float) and np.isnan(v) else v
             for k, v in asdict(r).items()}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
