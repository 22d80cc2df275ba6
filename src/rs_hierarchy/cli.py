"""Command line interface.

Subcommands:
  check    run a verification suite and write a JSON report
  flow     export a reduced trajectory of an exact flow as CSV
  bracket  evaluate one Poisson bracket of two trace observables

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import brackets as br
from . import checks, dynamics, reporting
from .config import PROFILES
from .phase import invariant_observable, sample_point


def _config_error(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


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
    c.add_argument("--profile", default=None, choices=tuple(PROFILES))
    c.add_argument("--out", default=None, help="JSON report path (default stdout)")

    f = sub.add_parser("flow", help="export a reduced trajectory as CSV")
    f.add_argument("--n", type=int, default=3)
    f.add_argument("--k", type=int, default=2)
    f.add_argument("--t0", type=float, default=0.0)
    f.add_argument("--t1", type=float, default=1.0)
    f.add_argument("--steps", type=int, default=100)
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
        specs = [checks.CheckSpec(cid, n=args.n, seeds=args.seeds, profile=args.profile)
                 for cid in ids]
    except (KeyError, ValueError) as exc:
        _config_error(str(exc))
    report = checks.run_checks(specs)
    text = reporting.dumps_json(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for entry in report["checks"]:
        status = "PASS" if entry["passed"] else "FAIL"
        rel = entry["max_rel_defect"]
        rel_s = f"{rel:.3e}" if rel is not None else "n/a"
        print(f"{status} {entry['check_id']} (n={entry['n']}, "
              f"rel_defect={rel_s}, tol={entry['tolerance']:.1e})",
              file=sys.stderr)
    return 0 if report["all_passed"] else 1


def _cmd_flow(args) -> int:
    if args.steps < 2 or args.n < 2 or args.k < 1:
        _config_error("need steps >= 2, n >= 2, k >= 1")
    x0 = _sample("full", args.n, args.seed)
    t_grid = np.linspace(args.t0, args.t1, args.steps)
    try:
        traj = dynamics.trajectory(x0, args.k, t_grid)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        fh.write(reporting.trajectory_csv(traj))
    return 0


_BRACKET_TABLE = {
    ("full", 1): br.pb1_full, ("full", 2): br.pb2_full,
    ("red", 1): br.pb1_red, ("red", 2): br.pb2_red,
    ("rs", 2): br.pb_rs, ("suth", 1): br.pb_suth,
}


def _cmd_bracket(args) -> int:
    key = (args.chart, args.which)
    if key not in _BRACKET_TABLE:
        _config_error(f"bracket {args.which} is not available on chart {args.chart!r}")
    F = _parse_obs(args.f, args.chart)
    H = _parse_obs(args.h_obs, args.chart)
    x = _sample(args.chart, args.n, args.seed)
    value = _BRACKET_TABLE[key](F, H, x)
    print(format(value, ".17g"))
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
