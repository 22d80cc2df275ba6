"""Registry of machine checks for the bracket structure, the reduction and
the changes of variables, plus the runner that aggregates them into a report.

Each check draws deterministic sample points, evaluates a defect that should
vanish (or an equality that should hold) and reports the worst absolute and
relative defect.  The relative defect is measured against a per-sample scale
of the form 1 + (magnitudes entering the identity).

A registry row maps a check id to a function of (n, seeds) that returns
(abs_defect, scale) samples: a check body, or a shared sampler bound to its
brackets, such as _transfer_samples(pb_rs, pb2_red, from_rs), which compares
one Bracket with another across a chart map.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import __version__, coords, dynamics, phase
from . import brackets as br
from .config import PROFILES
from .phase import (FullPoint, RedPoint, hamiltonian_observable, invariant_observable,
                    sample_point)


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    n: int = 3
    seeds: int = 5
    profile: str | None = None   # None: use the check's declared profile

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
    profile: str
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
# check bodies: each returns a list of (abs_defect, scale) samples


def antisymmetry_rows():
    """(chart, pairs) rows of the antisymmetry check: each chart's invariant
    pairs, then on the full chart the pairs of analytic-gradient H_1, H_2, H_3."""
    Hs = [hamiltonian_observable(k) for k in (1, 2, 3)]
    ham_pairs = [(Hs[i], Hs[j]) for i in range(3) for j in range(i + 1, 3)]
    return ([(chart, invariant_pairs(chart)) for chart in _BRACKETS_BY_CHART]
            + [("full", ham_pairs)])


def antisymmetry_samples(chart, pairs, n, seeds):
    """{F,H} + {H,F} for every bracket of the chart; dF and dH are taken once
    per point and contracted in both orders."""
    out = []
    for seed in range(seeds):
        x = sample_point(chart, n, seed)
        for F, H in pairs:
            dF, dH = phase.grad(F, x), phase.grad(H, x)
            for bracket in _BRACKETS_BY_CHART[chart]:
                v1, v2 = bracket.contract(x, dF, dH), bracket.contract(x, dH, dF)
                out.append((abs(v1 + v2), 1.0 + abs(v1) + abs(v2)))
    return out


def check_antisymmetry(n, seeds):
    return [s for chart, pairs in antisymmetry_rows()
            for s in antisymmetry_samples(chart, pairs, n, seeds)]


def check_leibniz(n, seeds):
    out = []
    for chart, bracket_list in _BRACKETS_BY_CHART.items():
        pairs = invariant_pairs(chart)
        (F, G), (_, H) = pairs[0], pairs[1]
        GH = phase.product(G, H)
        for seed in range(seeds):
            x = sample_point(chart, n, seed)
            gx, hx = G(x), H(x)
            for bracket in bracket_list:
                lhs = bracket(F, GH, x)
                fg = bracket(F, G, x)
                fh = bracket(F, H, x)
                rhs = gx * fh + hx * fg
                scale = 1.0 + abs(lhs) + abs(gx * fh) + abs(hx * fg)
                out.append((abs(lhs - rhs), scale))
    return out


def _pair_values(bracket, dF, dG, dH, x) -> list[float]:
    """({F,G}, {G,H}, {H,F}) at x from the gradients of F, G and H at x."""
    return [bracket.contract(x, a, b) for a, b in ((dF, dG), (dG, dH), (dH, dF))]


def _jacobi_scale(values) -> float:
    return 1.0 + sum(abs(v) for v in values)


def _jacobi_samples(brackets, coeffs, n, seeds):
    """Per coefficient vector s, then per seed: the defect |s.T.s| of
    sum_i s_i b_i (T the jacobiator) against the scale of s.V, V the pair
    values of the b_i from one set of gradients of F, G, H at x."""
    F, G, H = invariant_triple(brackets[0].chart)
    per_seed = []
    for seed in range(seeds):
        x = sample_point(brackets[0].chart, n, seed)
        T = br.jacobiator(brackets, F, G, H, x)
        d = [phase.grad(A, x) for A in (F, G, H)]
        per_seed.append((T, np.array([_pair_values(b, *d, x) for b in brackets])))
    return [(float(abs(s @ T @ s)), _jacobi_scale(s @ V))
            for s in map(np.array, coeffs) for T, V in per_seed]


def _ladder_samples(pb1, pb2, n, seeds):
    """{F, H_k}_2 against {F, H_{k+1}}_1 for k = 1..4 on the chart of pb1."""
    chart = pb1.chart
    F = invariant_observable(1, 1, "re", chart=chart)
    out = []
    for seed in range(seeds):
        x = sample_point(chart, n, seed)
        for k in range(1, 5):
            a = pb2(F, hamiltonian_observable(k, chart=chart), x)
            b = pb1(F, hamiltonian_observable(k + 1, chart=chart), x)
            out.append((abs(a - b), 1.0 + abs(a) + abs(b)))
    return out


def check_involutivity(n, seeds):
    out = []
    for seed in range(seeds):
        x = sample_point("full", n, seed)
        Hs = [hamiltonian_observable(k) for k in range(1, 6)]
        for i in range(len(Hs)):
            for j in range(len(Hs)):
                for bracket in (br.pb1_full, br.pb2_full):
                    v = bracket(Hs[i], Hs[j], x)
                    scale = 1.0 + abs(Hs[i](x)) + abs(Hs[j](x))
                    out.append((abs(v), scale))
    return out


def _grad_norm(g) -> float:
    return float(np.sqrt(sum(np.linalg.norm(c) ** 2 for c in g)))


def _red_to_full(x: RedPoint) -> FullPoint:
    return FullPoint(x.Q.matrix(), x.L)


def _transfer_samples(bracket, ref_bracket, to_ref, n, seeds):
    """`bracket` at x against `ref_bracket` at to_ref(x) on the invariant
    pairs of their charts.  The bracket contracts two FD gradients, so the
    scale adds |dF|*|dH| to the two values; dF and dH are taken once."""
    pairs = invariant_pairs(bracket.chart)
    ref_pairs = invariant_pairs(ref_bracket.chart)
    out = []
    for seed in range(seeds):
        x = sample_point(bracket.chart, n, seed)
        y = to_ref(x)
        for (F, H), (f, h) in zip(pairs, ref_pairs):
            dF, dH = phase.grad(F, x), phase.grad(H, x)
            a = bracket.contract(x, dF, dH)
            b = ref_bracket(f, h, y)
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


def check_roundtrip_rs(n, seeds):
    out = []
    for seed in range(seeds):
        x = sample_point("rs", n, seed)
        mid = coords.from_rs(x)
        back = coords.to_rs(mid)
        scale = (1.0 + phase.point_norm(x)) * _chol_cond_factor(mid.L)
        defect = (np.linalg.norm(back.p - x.p)
                  + np.linalg.norm(back.lam - x.lam)
                  + np.linalg.norm(back.Q.q - x.Q.q))
        out.append((float(defect), scale))
        y = _pd_red_point(n, seed)
        back2 = coords.from_rs(coords.to_rs(y))
        out.append((float(np.linalg.norm(back2.L - y.L)),
                    (1.0 + phase.point_norm(y)) * _chol_cond_factor(y.L)))
    return out


def check_roundtrip_suth(n, seeds):
    out = []
    for seed in range(seeds):
        x = sample_point("suth", n, seed)
        back = coords.to_suth(coords.from_suth(x))
        scale = 1.0 + phase.point_norm(x)
        defect = (np.linalg.norm(back.p - x.p)
                  + np.linalg.norm(back.phi - x.phi))
        out.append((float(defect), scale))
        y = sample_point("red", n, seed)
        back2 = coords.from_suth(coords.to_suth(y))
        out.append((float(np.linalg.norm(back2.L - y.L)),
                    1.0 + phase.point_norm(y)))
    return out


def check_bplus_residual(n, seeds):
    out = []
    for seed in range(seeds):
        x = sample_point("rs", n, seed)
        bp = coords.solve_bplus(x.Q, x.lam)
        Qm = x.Q.matrix()
        res = np.linalg.norm(bp @ x.lam - Qm.conj() @ bp @ Qm)
        out.append((float(res), 1.0 + float(np.linalg.norm(bp))))
    return out


def check_hamiltonian_rs(n, seeds):
    out = []
    for seed in range(seeds):
        x = sample_point("rs", n, seed)
        a = dynamics.h_rs(x)
        b = float(np.real(np.trace(coords.from_rs(x).L)))
        out.append((abs(a - b), 1.0 + abs(a) + abs(b)))
    return out


def check_hamiltonian_suth(n, seeds):
    out = []
    for seed in range(seeds):
        x = sample_point("suth", n, seed)
        a = dynamics.h_suth2(x)
        b = dynamics.hk(coords.from_suth(x).L, 2)
        out.append((abs(a - b), 1.0 + abs(a) + abs(b)))
    return out


def _rk4_flow(x0, k, t1, steps):
    gen = 1j * np.linalg.matrix_power(x0.L, k)
    g = x0.g.copy()
    h = t1 / steps
    for _ in range(steps):
        k1 = gen @ g
        k2 = gen @ (g + 0.5 * h * k1)
        k3 = gen @ (g + 0.5 * h * k2)
        k4 = gen @ (g + h * k3)
        g = g + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return g


def check_flow_rk4(n, seeds):
    out = []
    for seed in range(seeds):
        x0 = sample_point("full", n, seed)
        for k in (1, 2):
            exact = dynamics.flow(x0, k, 1.0)
            rk = _rk4_flow(x0, k, 1.0, 1000)
            out.append((float(np.linalg.norm(exact.g - rk)),
                        1.0 + float(np.linalg.norm(exact.g))))
    return out


def check_flow_conserved(n, seeds):
    t_grid = np.linspace(0.0, 1.0, 21)
    out = []
    for seed in range(seeds):
        x0 = sample_point("full", n, seed)
        traj = dynamics.trajectory(x0, 2, t_grid)
        drift = np.max(np.abs(traj.conserved - traj.conserved[0]), axis=0)
        ref = 1.0 + np.abs(traj.conserved[0])
        for d, r in zip(drift, ref):
            out.append((float(d), float(r)))
    return out


def check_flow_group(n, seeds):
    out = []
    for seed in range(seeds):
        x0 = sample_point("full", n, seed)
        for k in (1, 2):
            a = dynamics.flow(x0, k, 0.7 + 0.4)
            b = dynamics.flow(dynamics.flow(x0, k, 0.7), k, 0.4)
            out.append((float(np.linalg.norm(a.g - b.g)),
                        1.0 + float(np.linalg.norm(a.g))))
    return out


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckDef:
    func: object
    profile: str
    suites: tuple[str, ...]


CHECKS: dict[str, CheckDef] = {
    "antisymmetry": CheckDef(check_antisymmetry, "default", ("theorem1",)),
    "leibniz": CheckDef(check_leibniz, "default", ("theorem1",)),
    # Jacobi rows: brackets b_i and the coefficient vectors s of sum_i s_i b_i
    "jacobi-full-1": CheckDef(partial(_jacobi_samples, (br.pb1_full,), [(1.0,)]),
                              "nested", ("theorem1",)),
    "jacobi-full-2": CheckDef(partial(_jacobi_samples, (br.pb2_full,), [(1.0,)]),
                              "nested", ("theorem1",)),
    "jacobi-pencil": CheckDef(partial(_jacobi_samples, (br.pb1_full, br.pb2_full),
                                      [(1.0, -1.0), (1.0, 0.5), (1.0, 1.0)]),
                              "nested", ("theorem1",)),
    "jacobi-red": CheckDef(partial(_jacobi_samples, (br.pb1_red, br.pb2_red),
                                   [(1.0, 0.0), (0.0, 1.0)]), "nested", ("theorem2",)),
    "jacobi-suth": CheckDef(partial(_jacobi_samples, (br.pb_suth,), [(1.0,)]),
                            "nested", ("prop4",)),
    "ladder-full": CheckDef(partial(_ladder_samples, br.pb1_full, br.pb2_full),
                            "default", ("theorem1",)),
    "ladder-red": CheckDef(partial(_ladder_samples, br.pb1_red, br.pb2_red),
                           "default", ("theorem2",)),
    "involutivity": CheckDef(check_involutivity, "strict", ("theorem1",)),
    "reduction-pb1": CheckDef(
        partial(_transfer_samples, br.pb1_red, br.pb1_full, _red_to_full),
        "default", ("theorem2",)),
    "reduction-pb2": CheckDef(
        partial(_transfer_samples, br.pb2_red, br.pb2_full, _red_to_full),
        "default", ("theorem2",)),
    "rs-bracket": CheckDef(
        partial(_transfer_samples, br.pb_rs, br.pb2_red, coords.from_rs),
        "nested", ("prop3",)),
    "suth-bracket": CheckDef(
        partial(_transfer_samples, br.pb_suth, br.pb1_red, coords.from_suth),
        "default", ("prop4",)),
    "roundtrip-rs": CheckDef(check_roundtrip_rs, "strict", ("prop3",)),
    "roundtrip-suth": CheckDef(check_roundtrip_suth, "strict", ("prop4",)),
    "bplus-residual": CheckDef(check_bplus_residual, "strict", ("prop3",)),
    "hamiltonian-rs": CheckDef(check_hamiltonian_rs, "strict", ("prop3",)),
    "hamiltonian-suth": CheckDef(check_hamiltonian_suth, "strict", ("prop4",)),
    "flow-rk4": CheckDef(check_flow_rk4, "default", ("flows",)),
    "flow-conserved": CheckDef(check_flow_conserved, "strict", ("flows",)),
    "flow-group": CheckDef(check_flow_group, "strict", ("flows",)),
}

SUITES = ("theorem1", "theorem2", "prop3", "prop4", "flows")


def suite_checks(suite: str) -> list[str]:
    if suite == "all":
        return list(CHECKS)
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    return [cid for cid, cdef in CHECKS.items() if suite in cdef.suites]


def run_check(spec: CheckSpec) -> CheckResult:
    cdef = CHECKS[spec.check_id]
    profile = spec.profile or cdef.profile
    tol = PROFILES[profile]
    t0 = time.perf_counter()
    errors = []
    seeds_run = spec.seeds
    try:
        samples = cdef.func(spec.n, spec.seeds)
    except Exception as exc:  # sampler / chart failures are reported, not fatal
        errors.append(f"{type(exc).__name__}: {exc}")
        samples = []
        seeds_run = 0
    wall = time.perf_counter() - t0
    if samples:
        max_abs = max(a for a, _ in samples)
        max_rel = max(a / s for a, s in samples)
    else:
        max_abs = max_rel = float("nan")
    passed = bool(samples and max_rel <= tol and not errors)
    return CheckResult(spec.check_id, spec.n, seeds_run, float(max_abs),
                       float(max_rel), profile, tol, passed, wall, errors)


def run_checks(specs: list[CheckSpec]) -> dict:
    """Execute a list of check specs and aggregate a JSON-ready report."""
    results = [run_check(s) for s in specs]
    return {
        "library_version": __version__,
        "config": {
            "profiles": {k: float(v) for k, v in PROFILES.items()},
        },
        "specs": [
            {"check_id": s.check_id, "n": s.n, "seeds": s.seeds,
             "profile": s.profile or CHECKS[s.check_id].profile}
            for s in specs
        ],
        "checks": [
            {"check_id": r.check_id, "n": r.n, "seeds_run": r.seeds_run,
             "max_abs_defect": None if np.isnan(r.max_abs_defect) else r.max_abs_defect,
             "max_rel_defect": None if np.isnan(r.max_rel_defect) else r.max_rel_defect,
             "profile": r.profile, "tolerance": r.tolerance,
             "passed": r.passed, "wall_time": r.wall_time,
             "errors": r.errors}
            for r in results
        ],
        "all_passed": all(r.passed for r in results) if results else True,
    }
