"""Registry of machine checks for the bracket structure, the reduction and
the changes of variables, plus the runner that aggregates them into a report.

Each check draws deterministic sample points, evaluates a defect that should
vanish (or an equality that should hold) and reports the worst absolute and
relative defect.  The relative defect is measured against a per-sample scale
of the form 1 + (magnitudes entering the identity).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, coords, dynamics, phase
from . import brackets as br
from .config import PROFILES
from .phase import (FullPoint, Observable, RedPoint, hamiltonian_observable,
                    invariant_observable, sample_point)


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    n: int = 3
    seeds: int = 5
    profile: str | None = None   # None: use the check's declared profile
    max_m: int = 3
    max_k: int = 3

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


def _clip(params, max_m, max_k):
    m, k, part = params
    return min(m, max_m), min(k, max_k), part


def invariant_pairs(chart, max_m=3, max_k=3):
    out = []
    for a, b in _PAIR_PARAMS:
        a = _clip(a, max_m, max_k)
        b = _clip(b, max_m, max_k)
        if a == b:
            continue
        out.append((invariant_observable(*a, chart=chart),
                    invariant_observable(*b, chart=chart)))
    return out


def invariant_triple(chart, max_m=3, max_k=3):
    return tuple(invariant_observable(*_clip(t, max_m, max_k), chart=chart)
                 for t in _TRIPLE_PARAMS)


_BRACKETS_BY_CHART = {
    "full": (br.pb1_full, br.pb2_full),
    "red": (br.pb1_red, br.pb2_red),
    "suth": (br.pb_suth,),
}


# ---------------------------------------------------------------------------
# check bodies: each returns a list of (abs_defect, scale) samples


def check_antisymmetry(n, seeds, max_m=3, max_k=3):
    out = []
    for chart, bracket_list in _BRACKETS_BY_CHART.items():
        pairs = invariant_pairs(chart, max_m, max_k)
        for seed in range(seeds):
            x = sample_point(chart, n, seed)
            for bracket in bracket_list:
                for F, H in pairs:
                    v1 = bracket(F, H, x)
                    v2 = bracket(H, F, x)
                    out.append((abs(v1 + v2), 1.0 + abs(v1) + abs(v2)))
    # analytic-gradient pairs on the full chart
    for seed in range(seeds):
        x = sample_point("full", n, seed)
        Hs = [hamiltonian_observable(k) for k in (1, 2, 3)]
        for bracket in (br.pb1_full, br.pb2_full):
            for i in range(len(Hs)):
                for j in range(i + 1, len(Hs)):
                    v1 = bracket(Hs[i], Hs[j], x)
                    v2 = bracket(Hs[j], Hs[i], x)
                    out.append((abs(v1 + v2), 1.0 + abs(v1) + abs(v2)))
    return out


def check_leibniz(n, seeds, max_m=3, max_k=3):
    out = []
    for chart, bracket_list in _BRACKETS_BY_CHART.items():
        pairs = invariant_pairs(chart, max_m, max_k)
        (F, G), (_, H) = pairs[0], pairs[1]
        GH = phase.product(G, H)
        for seed in range(seeds):
            x = sample_point(chart, n, seed)
            for bracket in bracket_list:
                lhs = bracket(F, GH, x)
                fg = bracket(F, G, x)
                fh = bracket(F, H, x)
                rhs = G(x) * fh + H(x) * fg
                scale = 1.0 + abs(lhs) + abs(G(x) * fh) + abs(H(x) * fg)
                out.append((abs(lhs - rhs), scale))
    return out


def _pair_values(bracket, dF, dG, dH, x) -> list[float]:
    """({F,G}, {G,H}, {H,F}) at x from the gradients of F, G and H at x."""
    contract = br.bivector_of(bracket).contract
    return [contract(x, a, b) for a, b in ((dF, dG), (dG, dH), (dH, dF))]


def _jacobi_scale(values) -> float:
    return 1.0 + sum(abs(v) for v in values)


def _jacobi_samples(bracket, chart, n, seeds, max_m, max_k):
    F, G, H = invariant_triple(chart, max_m, max_k)
    out = []
    for seed in range(seeds):
        x = sample_point(chart, n, seed)
        defect = br.jacobi_defect(bracket, F, G, H, x)
        d = [phase.grad(A, x) for A in (F, G, H)]
        out.append((abs(defect), _jacobi_scale(_pair_values(bracket, *d, x))))
    return out


def _mixed_samples(bracket1, bracket2, chart, n, seeds, max_m, max_k):
    """Per seed: (J1, J12, J2) and both brackets' cyclic pair values at x;
    the pair values of both brackets share the gradients of F, G, H at x."""
    F, G, H = invariant_triple(chart, max_m, max_k)
    out = []
    for seed in range(seeds):
        x = sample_point(chart, n, seed)
        J = br.mixed_jacobiator(bracket1, bracket2, F, G, H, x)
        d = [phase.grad(A, x) for A in (F, G, H)]
        out.append((J, _pair_values(bracket1, *d, x), _pair_values(bracket2, *d, x)))
    return out


def check_jacobi_full_1(n, seeds, max_m=3, max_k=3):
    return _jacobi_samples(br.pb1_full, "full", n, seeds, max_m, max_k)


def check_jacobi_full_2(n, seeds, max_m=3, max_k=3):
    return _jacobi_samples(br.pb2_full, "full", n, seeds, max_m, max_k)


def check_jacobi_pencil(n, seeds, max_m=3, max_k=3):
    """Jacobi defect of pb1 + s*pb2 for s in (-1, 0.5, 1), obtained as
    J1 + s*J12 + s^2*J2 from the mixed Jacobiator."""
    per_seed = _mixed_samples(br.pb1_full, br.pb2_full, "full", n, seeds, max_m, max_k)
    out = []
    for s in (-1.0, 0.5, 1.0):
        for (J1, J12, J2), v1, v2 in per_seed:
            scale = _jacobi_scale(a + s * b for a, b in zip(v1, v2))
            out.append((abs(J1 + s * J12 + s * s * J2), scale))
    return out


def check_jacobi_red(n, seeds, max_m=3, max_k=3):
    per_seed = _mixed_samples(br.pb1_red, br.pb2_red, "red", n, seeds, max_m, max_k)
    return ([(abs(J[0]), _jacobi_scale(v1)) for J, v1, _ in per_seed]
            + [(abs(J[2]), _jacobi_scale(v2)) for J, _, v2 in per_seed])


def check_jacobi_suth(n, seeds, max_m=3, max_k=3):
    return _jacobi_samples(br.pb_suth, "suth", n, seeds, max_m, max_k)


def check_ladder_full(n, seeds, max_m=3, max_k=3):
    F = invariant_observable(min(1, max_m), min(1, max_k), "re", chart="full")
    out = []
    for seed in range(seeds):
        x = sample_point("full", n, seed)
        for k in range(1, 5):
            a = br.pb2_full(F, hamiltonian_observable(k), x)
            b = br.pb1_full(F, hamiltonian_observable(k + 1), x)
            out.append((abs(a - b), 1.0 + abs(a) + abs(b)))
    return out


def check_ladder_red(n, seeds, max_m=3, max_k=3):
    f = invariant_observable(min(1, max_m), min(1, max_k), "re", chart="red")
    out = []
    for seed in range(seeds):
        x = sample_point("red", n, seed)
        for k in range(1, 5):
            a = br.pb2_red(f, hamiltonian_observable(k, chart="red"), x)
            b = br.pb1_red(f, hamiltonian_observable(k + 1, chart="red"), x)
            out.append((abs(a - b), 1.0 + abs(a) + abs(b)))
    return out


def check_involutivity(n, seeds, max_m=3, max_k=3):
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


def check_reduction_pb1(n, seeds, max_m=3, max_k=3):
    return _reduction_samples(br.pb1_red, br.pb1_full, n, seeds, max_m, max_k)


def check_reduction_pb2(n, seeds, max_m=3, max_k=3):
    return _reduction_samples(br.pb2_red, br.pb2_full, n, seeds, max_m, max_k)


def _grad_norm(g) -> float:
    return float(np.sqrt(sum(np.linalg.norm(c) ** 2 for c in g)))


def _equality_scale(a, b, F, H, x) -> float:
    """Scale for FD-chain equality checks: the bracket contracts two
    gradients, so FD noise is proportional to the gradient magnitudes."""
    gF = phase.grad(F, x)
    gH = phase.grad(H, x)
    return 1.0 + abs(a) + abs(b) + _grad_norm(gF) * _grad_norm(gH)


def _reduction_samples(red_bracket, full_bracket, n, seeds, max_m, max_k):
    red_pairs = invariant_pairs("red", max_m, max_k)
    full_pairs = invariant_pairs("full", max_m, max_k)
    out = []
    for seed in range(seeds):
        x = sample_point("red", n, seed)
        xf = FullPoint(x.Q.matrix(), x.L)
        for (f, h), (F, H) in zip(red_pairs, full_pairs):
            a = red_bracket(f, h, x)
            b = full_bracket(F, H, xf)
            out.append((abs(a - b), _equality_scale(a, b, f, h, x)))
    return out


def check_rs_bracket(n, seeds, max_m=3, max_k=3):
    """Ruijsenaars-chart bracket against the reduced second bracket at the
    image point under the coordinate map."""
    rs_pairs = invariant_pairs("rs", max_m, max_k)
    red_pairs = invariant_pairs("red", max_m, max_k)
    out = []
    for seed in range(seeds):
        x = sample_point("rs", n, seed)
        y = coords.from_rs(x)
        for (F, H), (f, h) in zip(rs_pairs, red_pairs):
            a = br.pb_rs(F, H, x)
            b = br.pb2_red(f, h, y)
            out.append((abs(a - b), _equality_scale(a, b, F, H, x)))
    return out


def check_suth_bracket(n, seeds, max_m=3, max_k=3):
    """Sutherland-chart bracket against the reduced first bracket at the
    image point under the coordinate map."""
    suth_pairs = invariant_pairs("suth", max_m, max_k)
    red_pairs = invariant_pairs("red", max_m, max_k)
    out = []
    for seed in range(seeds):
        x = sample_point("suth", n, seed)
        y = coords.from_suth(x)
        for (F, H), (f, h) in zip(suth_pairs, red_pairs):
            a = br.pb_suth(F, H, x)
            b = br.pb1_red(f, h, y)
            out.append((abs(a - b), _equality_scale(a, b, F, H, x)))
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


def check_roundtrip_rs(n, seeds, max_m=3, max_k=3):
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


def check_roundtrip_suth(n, seeds, max_m=3, max_k=3):
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


def check_bplus_residual(n, seeds, max_m=3, max_k=3):
    out = []
    for seed in range(seeds):
        x = sample_point("rs", n, seed)
        bp = coords.solve_bplus(x.Q, x.lam)
        Qm = x.Q.matrix()
        res = np.linalg.norm(bp @ x.lam - Qm.conj() @ bp @ Qm)
        out.append((float(res), 1.0 + float(np.linalg.norm(bp))))
    return out


def check_hamiltonian_rs(n, seeds, max_m=3, max_k=3):
    out = []
    for seed in range(seeds):
        x = sample_point("rs", n, seed)
        a = dynamics.h_rs(x)
        b = float(np.real(np.trace(coords.from_rs(x).L)))
        out.append((abs(a - b), 1.0 + abs(a) + abs(b)))
    return out


def check_hamiltonian_suth(n, seeds, max_m=3, max_k=3):
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


def check_flow_rk4(n, seeds, max_m=3, max_k=3):
    out = []
    for seed in range(seeds):
        x0 = sample_point("full", n, seed)
        for k in (1, 2):
            exact = dynamics.flow(x0, k, 1.0)
            rk = _rk4_flow(x0, k, 1.0, 1000)
            out.append((float(np.linalg.norm(exact.g - rk)),
                        1.0 + float(np.linalg.norm(exact.g))))
    return out


def check_flow_conserved(n, seeds, max_m=3, max_k=3):
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


def check_flow_group(n, seeds, max_m=3, max_k=3):
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
    "jacobi-full-1": CheckDef(check_jacobi_full_1, "nested", ("theorem1",)),
    "jacobi-full-2": CheckDef(check_jacobi_full_2, "nested", ("theorem1",)),
    "jacobi-pencil": CheckDef(check_jacobi_pencil, "nested", ("theorem1",)),
    "jacobi-red": CheckDef(check_jacobi_red, "nested", ("theorem2",)),
    "jacobi-suth": CheckDef(check_jacobi_suth, "nested", ("prop4",)),
    "ladder-full": CheckDef(check_ladder_full, "default", ("theorem1",)),
    "ladder-red": CheckDef(check_ladder_red, "default", ("theorem2",)),
    "involutivity": CheckDef(check_involutivity, "strict", ("theorem1",)),
    "reduction-pb1": CheckDef(check_reduction_pb1, "default", ("theorem2",)),
    "reduction-pb2": CheckDef(check_reduction_pb2, "default", ("theorem2",)),
    "rs-bracket": CheckDef(check_rs_bracket, "nested", ("prop3",)),
    "suth-bracket": CheckDef(check_suth_bracket, "default", ("prop4",)),
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
        samples = cdef.func(spec.n, spec.seeds, spec.max_m, spec.max_k)
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
    passed = bool(samples) and max_rel <= tol and not errors
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
             "profile": s.profile or CHECKS[s.check_id].profile,
             "max_m": s.max_m, "max_k": s.max_k}
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
