"""Benchmark of rs-hierarchy: one command, three workloads.

    python3 bench/run.py --workload jacobi-n3 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src.  With
--trace 0 it prints the end-to-end metrics (setup_s, wall_s, margin_dec,
peak_rss_mb) of the workload; with --trace 1 the per-layer metrics of the
traced run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment.  The exit code is 0 only when every operation passed its
output check.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread, before numpy is imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The process (and its children) pinned to one CPU: host load slows each
# vCPU independently, so the reference kernel must run where the program runs.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
if not (SRC / "rs_hierarchy" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'rs_hierarchy'} not found; run from the root of a checkout")
sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (imports rs_hierarchy from SRC)
OUT = BENCH / "out"
SETUP_REPS = 5
LAYERS = ("algebra", "phase", "brackets", "coords", "dynamics", "checks",
          "reporting", "cli")

# Fresh-interpreter set-up: import the CLI module, then finish the lazy
# set-up of the workload's n values (workloads.lazy_setup).
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import rs_hierarchy.cli
import workloads
workloads.lazy_setup({ns})
print(repr(time.perf_counter() - t0))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_child(code: str) -> tuple[float, float]:
    """Set-up seconds reported by one fresh interpreter running `code`, raw
    and at reference speed (kernel runs over 0.1 s before and after it)."""
    before = workloads.reference_seconds(0.1)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    after = workloads.reference_seconds(0.1)
    raw = float(proc.stdout.strip().splitlines()[-1])
    return raw, raw * workloads.REF_S / (0.5 * (before + after))


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def measure(wl, seed: int, tally, seconds: float, unit_times: dict[str, list[float]],
            after_pass=None) -> list[tuple[float, float]]:
    """Finish the lazy set-up, then run passes for about `seconds` (at least
    one; no pass starts that would end more than half a pass late).  Returns
    (wall, reference-speed) seconds of each pass; appends each pass's
    per-check seconds to unit_times.  `after_pass(elapsed)` runs after each
    pass, outside the timed passes."""
    workloads.lazy_setup(wl.ns)
    units = wl.units(seed)
    passes = []
    elapsed = 0.0
    while not passes or elapsed + passes[-1][0] / 2 < seconds:
        t0 = time.perf_counter()
        times: dict[str, float] = {}
        passes.append(workloads.run_pass(units, tally, times))
        elapsed += time.perf_counter() - t0
        for label, t in times.items():
            unit_times.setdefault(label, []).append(t)
        if after_pass:
            after_pass(elapsed)
    return passes


def environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    with contextlib.suppress(KeyError, TypeError):  # numpy < 1.25 has no mode="dicts"
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    sha = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        out = git.stdout.split()
        if git.returncode == 0 and len(out) == 2 and Path(out[0]).resolve() == ROOT:
            sha = out[1]
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "rs_hierarchy").glob("*.py"))
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": blas,
            "nproc": os.cpu_count(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "src_lines": lines}


def untraced_run(wl, args, tally) -> dict:
    # SETUP_REPS + 1 set-up children, spread evenly over the passes so that
    # they meet the host's load as the passes do; the first one (which warms
    # the file cache) is not counted.
    code = SETUP_CODE.format(ns=tuple(wl.ns))
    children: list[tuple[float, float]] = []

    def spread_setup(elapsed: float) -> None:
        while (len(children) <= SETUP_REPS
               and elapsed >= len(children) * args.seconds / (SETUP_REPS + 1)):
            children.append(setup_child(code))

    passes = measure(wl, args.seed, tally, args.seconds, {}, spread_setup)
    spread_setup(math.inf)
    setup_raw = statistics.median(raw for raw, _ in children[1:])
    setup = statistics.median(scaled for _, scaled in children[1:])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q1, med, q3 = quartiles([scaled for _, scaled in passes])
    r1, raw, r3 = quartiles([wall for wall, _ in passes])
    print(f"wall_s: median {med:.4f} s at reference speed over {len(passes)} passes "
          f"(quartiles {q1:.4f}-{q3:.4f}); raw wall median {raw:.4f} s "
          f"(quartiles {r1:.4f}-{r3:.4f})")
    print(f"setup_s: median {setup:.4f} s at reference speed over {SETUP_REPS} fresh "
          f"interpreters; raw median {setup_raw:.4f} s")
    print(f"margin_dec: {tally.margin_dec:.4f} decades, worst {tally.worst_check}")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")
    return {"setup_s": (setup, "s"),
            "wall_s": (med, "s"),
            "margin_dec": (tally.margin_dec, "decades"),
            "peak_rss_mb": (peak_rss_mb, "MB")}


def traced_run(wl, args, tally) -> dict:
    """Per-layer metrics.  Untraced: passes of the workload for half the
    time, one pass of every other workload (per-check seconds), and the
    probes.  Traced: one pass of each workload and one CLI call; the layer
    self times cover that whole traced section, so that every layer has an
    entry, and the tracing overhead is the workload's traced pass minus the
    median of its untraced passes."""
    from rs_hierarchy import algebra, brackets, checks, cli, coords, dynamics, phase, reporting
    import probes
    import tracer as tracing
    modules = dict(zip(LAYERS, (algebra, phase, brackets, coords, dynamics, checks,
                                reporting, cli)))
    metrics = {}
    for key, val in probes.import_breakdown(child_env()).items():
        metrics[f"import.{key}.s"] = (val, "s")

    check_times: dict[str, list[float]] = {}
    passes = measure(wl, args.seed, tally, args.seconds / 2, check_times)
    others = [w for w in workloads.WORKLOADS.values() if w is not wl]
    for other in others:
        times: dict[str, float] = {}
        workloads.lazy_setup(other.ns)
        workloads.run_pass(other.units(args.seed), tally, times)
        for label, t in times.items():
            check_times.setdefault(label, []).append(t)
    for label, ts in check_times.items():
        if label != "trajectory":
            metrics[f"checks.{label}.s"] = (statistics.median(ts), "s")

    prober = probes.Probes(args.seed)
    prober.run_all()
    metrics.update(prober.metrics)
    tally.attempted += 1
    for failure in prober.failures:
        tally.fail("probe", failure)

    tr = tracing.Tracer(modules)
    sections = {}                 # section name -> (first span, end span)
    tr.install()
    try:
        for w in [wl] + others:
            first = len(tr.names)
            with tr.span(f"bench.pass:{w.name}"):
                _, scaled = workloads.run_pass(w.units(args.seed), tally, {})
            sections[w.name] = (first, len(tr.names))
            if w is wl:
                traced_wall = scaled
        first = len(tr.names)
        with tr.span("bench.cli"):
            check_cli(cli, brackets, phase, args.seed, tally)
        sections["cli"] = (first, len(tr.names))
    finally:
        tr.uninstall()

    untraced_wall = statistics.median(scaled for _, scaled in passes)
    total = tr.self_times()
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (total.get(layer, 0.0), "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.spans"] = (float(sections[wl.name][1] - sections[wl.name][0]), "count")

    print(f"{wl.name} at reference speed: untraced pass median {untraced_wall:.4f} s "
          f"over {len(passes)}, traced pass {traced_wall:.4f} s")
    print("self time (s)" + "".join(f" {name:>11s}" for name in [*sections, "total"]))
    per_section = [tr.self_times(*span) for span in sections.values()] + [total]
    for layer in LAYERS + ("bench",):
        print(f"  {layer:11s}" + "".join(f" {s.get(layer, 0.0):11.4f}" for s in per_section))
    for name, why in sorted(prober.absent.items()):
        print(f"absent: {name}: {why}")
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{wl.name}-seed{args.seed}.json")
    return metrics


def check_cli(cli, brackets, phase, seed: int, tally) -> None:
    """One `rs-hierarchy bracket` call through cli.main; the printed value
    must equal the library's pb1_full to all 17 digits."""
    tally.attempted += 1
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(["bracket", "--chart", "full", "--which", "1", "--f", "1,1,re",
                             "--h", "0,2,re", "--n", "3", "--seed", str(seed)])
        F, H = (phase.invariant_observable(m, k, part, chart="full")
                for m, k, part in ((1, 1, "re"), (0, 2, "re")))
        want = format(brackets.pb1_full(F, H, phase.sample_point("full", 3, seed)), ".17g")
    except Exception as exc:  # a failing CLI call is a failed operation
        tally.fail("cli bracket", f"{type(exc).__name__}: {exc}")
        return
    if code != 0 or buf.getvalue().strip() != want:
        tally.fail("cli bracket", f"exit {code}, printed {buf.getvalue().strip()!r}, want {want}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    metrics = (traced_run if args.trace else untraced_run)(wl, args, tally)
    print(f"attempted {tally.attempted}, failed {tally.failed}, "
          f"RuntimeWarnings recorded {tally.runtime_warnings}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"context": environment()}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if math.isfinite(value)},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
