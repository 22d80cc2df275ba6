"""Command line interface.

Subcommands:
  check    run a verification suite and write a JSON report
  flow     export a reduced trajectory of an exact flow as CSV
  bracket  evaluate one Poisson bracket of two trace observables

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import brackets as br
from . import checks, dynamics, reporting
from .phase import invariant_observable, sample_point


def _config_error(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _open_out(path: str):
    """The file at path opened for writing, before any work is done; exit 2
    when it cannot be."""
    try:
        return open(path, "w")
    except OSError as exc:
        _config_error(f"cannot write {path}: {exc.strerror or exc}")


def _parse_obs(text: str, chart: str):
    try:
        m_s, k_s, part = text.split(",")
        return invariant_observable(int(m_s), int(k_s), part.strip(), chart=chart)
    except (ValueError, TypeError) as exc:
        _config_error(f"bad observable spec {text!r} (expected m,k,part): {exc}")


def _sample(chart: str, n: int, seed: int):
    try:
        return sample_point(chart, n, seed)
    except ValueError as exc:
        _config_error(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rs-hierarchy")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run verification suites")
    c.add_argument("--suite", default="all",
                   choices=("all",) + checks.SUITES)
    c.add_argument("--n", type=int, default=3)
    c.add_argument("--seeds", type=int, default=5)
    c.add_argument("--out", default=None, help="JSON report path (default stdout)")

    f = sub.add_parser("flow", help="export a reduced trajectory as CSV")
    f.add_argument("--n", type=int, default=3)
    f.add_argument("--k", type=int, default=2, help="flow g(t) = exp(i t L^k) g(0): "
                   "H_{k+1} under the first bracket, H_k under the second")
    f.add_argument("--t0", type=float, default=0.0)
    f.add_argument("--t1", type=float, default=1.0)
    f.add_argument("--steps", type=int, default=100,
                   help="number of grid samples from t0 to t1, both included (CSV rows)")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", required=True)

    b = sub.add_parser("bracket", help="evaluate one Poisson bracket")
    b.add_argument("--chart", required=True, choices=("full", "red", "rs", "suth"))
    b.add_argument("--which", required=True, type=int, choices=(1, 2))
    b.add_argument("--f", required=True, help="observable as m,k,part")
    b.add_argument("--h", dest="h_obs", required=True, help="observable as m,k,part")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--n", type=int, default=3)
    return ap


def _cmd_check(args) -> int:
    try:
        ids = checks.suite_checks(args.suite)
        specs = [checks.CheckSpec(cid, n=args.n, seeds=args.seeds) for cid in ids]
    except (KeyError, ValueError) as exc:
        _config_error(str(exc))
    with _open_out(args.out) if args.out else nullcontext(sys.stdout) as fh:
        report = checks.run_checks(specs)
        fh.write(reporting.dumps_json(report) + "\n")
    for entry in report["checks"]:
        status = "PASS" if entry["passed"] else "FAIL"
        rel = entry["max_rel_defect"]
        rel_s = f"{rel:.3e}" if rel is not None else "n/a"
        print(f"{status} {entry['check_id']} (n={entry['n']}, "
              f"worst_seed={entry['worst_seed']}, "
              f"rel_defect={rel_s}, tol={entry['tolerance']:.1e})",
              file=sys.stderr)
    return 0 if report["all_passed"] else 1


def _cmd_flow(args) -> int:
    if args.steps < 2 or args.n < 2 or args.k < 1 or not np.isfinite([args.t0, args.t1]).all():
        _config_error("need steps >= 2, n >= 2, k >= 1 and finite t0, t1")
    x0 = _sample("full", args.n, args.seed)
    with _open_out(args.out) as fh:
        try:
            traj = dynamics.trajectory(x0, args.k, np.linspace(args.t0, args.t1, args.steps))
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            fh.close()   # the file is empty: remove it, unless it is a link, pipe or device
            if os.path.isfile(args.out) and not os.path.islink(args.out):
                os.remove(args.out)
            return 1
        fh.write(reporting.trajectory_csv(traj))
    return 0


def _cmd_bracket(args) -> int:
    key = (args.chart, args.which)
    if key not in br.BRACKETS:
        _config_error(f"bracket {args.which} is not available on chart {args.chart!r}")
    F = _parse_obs(args.f, args.chart)
    H = _parse_obs(args.h_obs, args.chart)
    x = _sample(args.chart, args.n, args.seed)
    print(format(br.BRACKETS[key](F, H, x), ".17g"))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "flow":
        return _cmd_flow(args)
    if args.command == "bracket":
        return _cmd_bracket(args)
    _config_error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
