"""The three benchmark workloads and the output check made in every pass.

Each workload is a fixed list of units run one after another in a single
process (a closed loop: the next unit starts when the previous one ends).
A unit is one `checks.run_check` by check id, or one exact-flow trajectory
serialized to CSV.  Only public entry points of `rs_hierarchy` are called.

Check bodies always draw their sample points from seeds 0..S-1, so the
benchmark's `--seed` reaches the program only through `sample_point`: in the
trajectories of `flows-n4-5` and in the layer probes.
"""

from __future__ import annotations

import math
import statistics
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from rs_hierarchy import checks, dynamics, phase, reporting

# Tolerance of the trajectory output check: the `strict` profile (analytic
# paths), fixed here so that the benchmark's own verdict does not move with
# the program's configuration.
STRICT_TOL = 1e-10

JACOBI_IDS = ("jacobi-full-1", "jacobi-full-2", "jacobi-pencil", "jacobi-red",
              "jacobi-suth")
SWEEP_IDS = ("antisymmetry", "leibniz", "ladder-full", "ladder-red",
             "involutivity", "reduction-pb1", "reduction-pb2", "rs-bracket",
             "suth-bracket", "roundtrip-rs", "roundtrip-suth", "bplus-residual",
             "hamiltonian-rs", "hamiltonian-suth")
FLOW_IDS = ("flow-rk4", "flow-conserved", "flow-group")

# Trajectories of flows-n4-5: H_1 and H_2 at n = 4, 5 from FLOW_SEEDS
# consecutive seeds on a 101-point grid over [0, 1].
FLOW_NS = (4, 5)
FLOW_KS = (1, 2)
FLOW_SEEDS = 5
FLOW_GRID = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class Workload:
    name: str
    ns: tuple[int, ...]          # the n values the workload runs at
    check_ids: tuple[str, ...]
    check_seeds: int             # CheckSpec.seeds of every check
    trajectories: bool = False

    def units(self, seed: int) -> list[tuple]:
        """The units of one pass: ("check", id, n, S) or ("trajectory", n, k, seed)."""
        out = [("check", cid, n, self.check_seeds)
               for n in self.ns for cid in self.check_ids]
        if self.trajectories:
            out += [("trajectory", n, k, seed + i)
                    for n in FLOW_NS for i in range(FLOW_SEEDS) for k in FLOW_KS]
        return out


WORKLOADS = {
    "jacobi-n3": Workload("jacobi-n3", (3,), JACOBI_IDS, 1),
    "sweep-n2-5": Workload("sweep-n2-5", (2, 3, 4, 5), SWEEP_IDS, 3),
    "flows-n4-5": Workload("flows-n4-5", FLOW_NS, FLOW_IDS, 3, trajectories=True),
}


def lazy_setup(ns) -> None:
    """One gradient per chart at each n, which builds the cached direction
    and dual bases that every later derivative uses."""
    for n in ns:
        for chart in ("full", "red", "rs", "suth"):
            F = phase.invariant_observable(1, 1, "re", chart=chart)
            getattr(phase, f"grad_{chart}")(F, phase.sample_point(chart, n, 0))


@dataclass
class Tally:
    """Operations attempted and failed, and the accuracy margin, across passes."""
    attempted: int = 0
    failed: int = 0
    margin_dec: float = math.inf   # min over checks of log10(tol / max_rel_defect)
    worst_check: str = ""
    runtime_warnings: int = 0      # e.g. ambiguous eigenphase matching
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{what}: {why}")


def _count_warnings(tally: Tally, caught) -> None:
    tally.runtime_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)


def _run_check(tally: Tally, cid: str, n: int, seeds: int) -> None:
    tally.attempted += 1
    what = f"{cid} n={n} seeds={seeds}"
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            res = checks.run_check(checks.CheckSpec(cid, n=n, seeds=seeds))
        _count_warnings(tally, caught)
    except Exception as exc:  # a broken check is a failed operation, not a crash
        tally.fail(what, f"{type(exc).__name__}: {exc}")
        return
    if res.max_rel_defect > 0.0:  # NaN when the check raised
        margin = math.log10(res.tolerance / res.max_rel_defect)
        if margin < tally.margin_dec:
            tally.margin_dec, tally.worst_check = margin, what
    if res.errors or not res.passed:
        tally.fail(what, f"passed={res.passed} rel={res.max_rel_defect:.3e} "
                         f"tol={res.tolerance:.1e} errors={res.errors}")


def _csv_matches(text: str, traj) -> bool:
    """The CSV parses back to exactly the floats of the trajectory."""
    lines = text.splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    want = np.column_stack([traj.times,
                            np.array([p.Q.q for p in traj.points]),
                            traj.conserved, traj.gauge_defects])
    return rows.shape == want.shape and np.array_equal(rows, want)


def _run_trajectory(tally: Tally, n: int, k: int, seed: int) -> None:
    tally.attempted += 1
    what = f"trajectory n={n} k={k} seed={seed}"
    try:
        x0 = phase.sample_point("full", n, seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            traj = dynamics.trajectory(x0, k, FLOW_GRID)
        _count_warnings(tally, caught)
        text = reporting.trajectory_csv(traj)
    except Exception as exc:  # a raising trajectory is a failed operation
        tally.fail(what, f"{type(exc).__name__}: {exc}")
        return
    drift = np.max(np.abs(traj.conserved - traj.conserved[0])
                   / (1.0 + np.abs(traj.conserved[0])))
    gauge = float(np.max(traj.gauge_defects))
    if not drift <= STRICT_TOL:
        tally.fail(what, f"conserved drift {drift:.3e} > {STRICT_TOL:.0e}")
    elif not gauge <= STRICT_TOL:
        tally.fail(what, f"gauge defect {gauge:.3e} > {STRICT_TOL:.0e}")
    elif not _csv_matches(text, traj):
        tally.fail(what, "CSV does not round-trip to the same floats")


# Reference speed.  The shared host's load slows each vCPU by up to 2x for
# seconds to minutes, and it slows this fixed kernel and the program alike,
# so every unit is timed between two runs of the kernel (on the same pinned
# CPU) and rescaled to a kernel time of REF_S, about its time on an idle
# core of a 2-vCPU Xeon (Sapphire Rapids) KVM guest.
REF_S = 2.0e-3
_REF_A = np.random.default_rng(7).standard_normal((3, 6)).view(complex)


def _reference_once() -> float:
    t0 = time.perf_counter()
    A = _REF_A
    for _ in range(150):
        B = A @ A.conj().T
        w = np.linalg.eigvalsh(B)
        A = A + (1e-3 / w[-1]) * B + 1e-3 * np.trace(B).real
    return time.perf_counter() - t0


def reference_seconds(window: float = 0.0) -> float:
    """Median time of a fixed small-matrix numpy loop that does not use the
    program (products, traces and Hermitian eigenvalues of 3x3 matrices):
    at least three runs, more until `window` seconds have passed."""
    runs = []
    end = time.perf_counter() + window
    while len(runs) < 3 or time.perf_counter() < end:
        runs.append(_reference_once())
    return statistics.median(runs)


def run_pass(units: list[tuple], tally: Tally, unit_times: dict[str, float]) -> tuple[float, float]:
    """Run one pass.  Returns its wall seconds and its seconds at reference
    speed, and adds each unit's seconds at reference speed to unit_times
    under its check id (or "trajectory")."""
    clock = time.perf_counter
    wall = scaled = 0.0
    ref_before = reference_seconds()
    for unit in units:
        t0 = clock()
        if unit[0] == "check":
            _run_check(tally, *unit[1:])
            label = unit[1]
        else:
            _run_trajectory(tally, *unit[1:])
            label = "trajectory"
        dt = clock() - t0
        ref_after = reference_seconds()
        dt_ref = dt * REF_S / (0.5 * (ref_before + ref_after))
        ref_before = ref_after
        wall += dt
        scaled += dt_ref
        unit_times[label] = unit_times.get(label, 0.0) + dt_ref
    return wall, scaled
