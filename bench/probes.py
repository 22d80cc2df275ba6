"""Per-layer probes: per-call timings of public functions, exact counts of
observable evaluations, eigenphase-matching ties and the import breakdown.

A probe whose function no longer exists, or no longer accepts these
arguments, is reported as absent rather than stopping the benchmark.  All
probes run right after one another, so each closure below is called within
the loop iteration that defines it.  Sample points come from `sample_point` with
the benchmark's seed.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

from rs_hierarchy import algebra, brackets, checks, coords, dynamics, phase, reporting

PROBE_NS = (3, 5)
DYNAMICS_NS = (4, 5)
CHARTS = ("full", "red", "rs", "suth")
BRACKETS = (("pb1_full", "full"), ("pb2_full", "full"), ("pb1_red", "red"),
            ("pb2_red", "red"), ("pb_rs", "rs"), ("pb_suth", "suth"))
JACOBI_BRACKETS = ("pb1_full", "pb2_full", "pb1_red", "pb2_red", "pb_suth")
PAIR = ((1, 1, "re"), (0, 2, "re"))
TRIPLE = ((1, 1, "re"), (0, 2, "re"), (1, 0, "re"))
# Ties in eigenphase matching show on the coarse grid of the flow-conserved
# check (k = 2, 21 points over [0, 1]); at seed 0 this covers the known ties
# at n = 4, seeds 1 and 4.
TIE_GRID = np.linspace(0.0, 1.0, 21)
TIE_SEEDS = 5
STEP_GRID = np.linspace(0.0, 1.0, 101)


def per_call_us(fn, budget_s: float = 0.04, min_batches: int = 5) -> float:
    """Median over batches of the mean time of one call, in microseconds.
    Batches are sized to about 2 ms so that the clock's resolution and
    loop overhead do not show."""
    clock = time.perf_counter
    fn()
    reps = 1
    while True:
        t0 = clock()
        for _ in range(reps):
            fn()
        if clock() - t0 >= 2e-3:
            break
        reps *= 2
    batches = []
    end = clock() + budget_s
    while len(batches) < min_batches or clock() < end:
        t0 = clock()
        for _ in range(reps):
            fn()
        batches.append((clock() - t0) / reps)
    return statistics.median(batches) * 1e6


def counted(F):
    """Copy of an observable whose `value` counts its calls in `calls[0]`."""
    calls = [0]
    value = F.value

    def counting(x):
        calls[0] += 1
        return value(x)
    return dataclasses.replace(F, value=counting), calls


def _obs(params, chart):
    m, k, part = params
    return phase.invariant_observable(m, k, part, chart=chart)


class Probes:
    """Collects metrics, absent probes and failed count checks."""

    def __init__(self, seed: int):
        self.seed = seed
        self.metrics: dict[str, tuple[float, str]] = {}
        self.absent: dict[str, str] = {}
        self.failures: list[str] = []

    def _run(self, name: str, unit: str, measure) -> None:
        try:
            self.metrics[name] = (float(measure()), unit)
        except (AttributeError, TypeError) as exc:  # function gone or signature changed
            self.absent[name] = f"{type(exc).__name__}: {exc}"

    def _count_twice(self, name: str, run) -> int:
        """Run a counting probe twice; the count must repeat exactly."""
        first, second = run(), run()
        if first != second:
            self.failures.append(f"{name}: counts differ between runs "
                                 f"({first} != {second})")
        return first

    def _call_us(self, name: str, module, fname: str, make_args) -> None:
        """Per-call time of module.fname(*make_args()) as metric `name`."""
        def measure():
            f = getattr(module, fname)
            args = make_args()
            return per_call_us(lambda: f(*args))
        self._run(name, "us", measure)

    def phase_layer(self) -> None:
        for n in PROBE_NS:
            for chart in CHARTS:
                x = phase.sample_point(chart, n, self.seed)
                grad = f"grad_{chart}"
                self._run(f"phase.eval_{chart}.n{n}_us", "us",
                          lambda: per_call_us(functools.partial(_obs(PAIR[0], chart), x)))
                self._call_us(f"phase.{grad}.n{n}_us", phase, grad,
                              lambda: (_obs(PAIR[0], chart), x))

                def evals():
                    F, calls = counted(_obs(PAIR[0], chart))
                    getattr(phase, grad)(F, x)
                    return calls[0]
                name = f"phase.{grad}.n{n}_evals"
                self._run(name, "count", lambda: self._count_twice(name, evals))

    def brackets_layer(self) -> None:
        for n in PROBE_NS:
            for bname, chart in BRACKETS:
                x = phase.sample_point(chart, n, self.seed)
                self._call_us(f"brackets.{bname}.n{n}_us", brackets, bname,
                              lambda: (*(_obs(p, chart) for p in PAIR), x))
        for bname in JACOBI_BRACKETS:
            chart = dict(BRACKETS)[bname]
            x = phase.sample_point(chart, 3, self.seed)
            stem = f"brackets.jacobi_defect.{bname}.n3"
            times: list[float] = []

            def once():
                bracket = getattr(brackets, bname)
                triple = [counted(_obs(p, chart)) for p in TRIPLE]
                t0 = time.perf_counter()
                brackets.jacobi_defect(bracket, *(F for F, _ in triple), x)
                times.append(time.perf_counter() - t0)
                return sum(calls[0] for _, calls in triple)
            self._run(f"{stem}_evals", "count",
                      lambda: self._count_twice(f"{stem}_evals", once))
            if times:
                self.metrics[f"{stem}_ms"] = (statistics.median(times) * 1e3, "ms")

    def coords_layer(self) -> None:
        for n in PROBE_NS:
            x_rs = phase.sample_point("rs", n, self.seed)
            x_suth = phase.sample_point("suth", n, self.seed)
            x_red = phase.sample_point("red", n, self.seed)
            args = {
                "from_rs": lambda: (x_rs,),
                "to_rs": lambda: (coords.from_rs(x_rs),),  # positive definite L
                "solve_bplus": lambda: (x_rs.Q, x_rs.lam),
                "from_suth": lambda: (x_suth,),
                "to_suth": lambda: (x_red,),
            }
            for fname, make_args in args.items():
                self._call_us(f"coords.{fname}.n{n}_us", coords, fname, make_args)

    def algebra_layer(self) -> None:
        for n in PROBE_NS:
            x = phase.sample_point("red", n, self.seed)
            self._call_us(f"algebra.r_apply.n{n}_us", algebra, "r_apply", lambda: (x.Q, x.L))
            self._call_us(f"algebra.split_ub.n{n}_us", algebra, "split_ub", lambda: (x.L,))

    def dynamics_layer(self) -> None:
        for n in DYNAMICS_NS:
            x = phase.sample_point("full", n, self.seed)
            self._call_us(f"dynamics.flow.n{n}_us", dynamics, "flow", lambda: (x, 2, 0.37))
            self._call_us(f"dynamics.reduce_point.n{n}_us", dynamics, "reduce_point",
                          lambda: (dynamics.flow(x, 2, 0.37),))
            self._run(f"dynamics.trajectory.n{n}_step_us", "us",
                      lambda: per_call_us(lambda: dynamics.trajectory(x, 2, STEP_GRID),
                                          min_batches=3) / len(STEP_GRID))

        def ties():
            count = 0
            for n in DYNAMICS_NS:
                for i in range(TIE_SEEDS):
                    x0 = phase.sample_point("full", n, self.seed + i)
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", RuntimeWarning)
                        dynamics.trajectory(x0, 2, TIE_GRID)
                    count += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            return count
        self._run("dynamics.ambiguous_matches", "count", ties)

    def reporting_layer(self) -> None:
        x = phase.sample_point("full", 5, self.seed)
        self._call_us("reporting.trajectory_csv.us", reporting, "trajectory_csv",
                      lambda: (dynamics.trajectory(x, 2, STEP_GRID),))
        self._call_us("reporting.dumps_json.us", reporting, "dumps_json",
                      lambda: (checks.run_checks([checks.CheckSpec(cid, n=3, seeds=2) for cid in
                                                  ("roundtrip-suth", "bplus-residual", "flow-group")]),))

    def run_all(self) -> None:
        self.phase_layer()
        self.brackets_layer()
        self.coords_layer()
        self.algebra_layer()
        self.dynamics_layer()
        self.reporting_layer()


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")
IMPORT_PARTS = (("scipy_linalg", "scipy.linalg"), ("scipy_optimize", "scipy.optimize"))


def import_breakdown(env: dict, reps: int = 3) -> dict[str, float]:
    """Seconds of `import rs_hierarchy.cli` in a fresh interpreter under
    -X importtime, split into the cumulative times of scipy.linalg and
    scipy.optimize (0 when not imported) and the rest, attributed to
    rs_hierarchy.  Medians over `reps` children."""
    runs: dict[str, list[float]] = {}
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import rs_hierarchy.cli"],
                              env=env, capture_output=True, text=True, timeout=60,
                              check=True)
        cumulative: dict[str, float] = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(4) not in cumulative:
                cumulative[m.group(4)] = int(m.group(2)) * 1e-6
        total = cumulative["rs_hierarchy.cli"]
        parts = {key: cumulative.get(mod, 0.0) for key, mod in IMPORT_PARTS}
        parts["rs_hierarchy"] = total - sum(parts.values())
        for key, val in parts.items():
            runs.setdefault(key, []).append(val)
    return {key: statistics.median(vals) for key, vals in runs.items()}
