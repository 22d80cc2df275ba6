import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import rs_hierarchy
from rs_hierarchy import brackets as br
from rs_hierarchy import checks, config, coords, dynamics, phase, reporting
from rs_hierarchy.algebra import pairing, r_apply
from rs_hierarchy.checks import CheckSpec, run_check, run_checks, suite_checks
from rs_hierarchy.phase import sample_point

CLI = [sys.executable, "-m", "rs_hierarchy.cli"]


# ---------------------------------------------------------------------------
# check registry and runner


def test_registry_suites_cover_all_checks():
    covered = set()
    for suite in checks.SUITES:
        ids = suite_checks(suite)
        assert ids, suite
        covered.update(ids)
    assert covered == set(checks.CHECKS)
    assert suite_checks("all") == list(checks.CHECKS)


def test_spec_validation():
    with pytest.raises(KeyError):
        CheckSpec("no-such-check")
    with pytest.raises(ValueError):
        CheckSpec("antisymmetry", n=1)
    with pytest.raises(ValueError):
        CheckSpec("antisymmetry", seeds=0)
    with pytest.raises(ValueError):
        CheckSpec("antisymmetry", profile="bogus")


def test_run_checks_empty_report():
    report = run_checks([])
    assert report["checks"] == []
    assert report["all_passed"] is True
    assert "profiles" in report["config"]
    assert report["library_version"] == rs_hierarchy.__version__


# At n = 3 a gradient costs 54 evaluations on the full chart, 36 on the rs
# chart and 24 on the reduced and Sutherland charts.  A transfer check takes
# two gradients on each side for each of its 3 invariant pairs and reuses
# the two on its own side for the scale: 3 * 2 * (24 + 54) = 468 and so on.
# The antisymmetry check takes the two gradients of each invariant pair once
# per chart for all of the chart's brackets: 3 * 2 * (54 + 24 + 24) = 612.
# A ladder takes F's gradient once (the dH_k are analytic): 54 and 24.
# Leibniz takes dF, dG and dH once per chart, forms d(GH) from them, and
# evaluates G and H at x: 3 * 54 + 2 + 2 * (3 * 24 + 2) = 312.
# Each check takes all its gradients on one chart in one sweep, so the chart
# map runs once per block of that sweep: 4 from_rs calls for rs-bracket, 3
# from_suth calls for suth-bracket and antisymmetry, 3 + 2 for leibniz (its
# sweep, then G(x) and H(x)), and 5 sweeps of 3 blocks for jacobi-suth (the
# outer one, one inner one per outer block and the gradients of the scale;
# its points are the 1,800 of its Jacobi defect and 3 * 24 for the scale).
# The map the transfer rows apply to x itself is bound at import, so it is
# not counted.
_MAP_CALLS = {"rs-bracket": {"from_rs": 4}, "suth-bracket": {"from_suth": 3},
              "antisymmetry": {"from_suth": 3}, "leibniz": {"from_suth": 5},
              "jacobi-suth": {"from_suth": 15}}


@pytest.mark.parametrize("check_id,evals", [
    ("reduction-pb1", 468), ("reduction-pb2", 468),
    ("rs-bracket", 360), ("suth-bracket", 288), ("antisymmetry", 612),
    ("ladder-full", 54), ("ladder-red", 24), ("leibniz", 312), ("jacobi-suth", 1872),
])
def test_check_evaluation_counts(monkeypatch, check_id, evals):
    # count evaluated points, the size of each batch, over every observable
    # the check evaluates: an invariant observable's _Trace where it is read
    # at the shared (U, L) of its stack, any other value where it is called
    points = [0]
    at = phase._Trace.at

    def counting_at(self, U, L, traces):
        points[0] += int(np.prod(U.shape[:-2]))
        return at(self, U, L, traces)
    monkeypatch.setattr(phase._Trace, "at", counting_at)
    post_init = phase.Observable.__post_init__

    def counting_post_init(self):
        post_init(self)
        value = self.value
        if isinstance(value, phase._Trace):
            return

        def counting(x):
            points[0] += math.prod(phase.batch_shape(x))
            return value(x)
        object.__setattr__(self, "value", counting)
    monkeypatch.setattr(phase.Observable, "__post_init__", counting_post_init)
    calls = {}
    for name in ("from_rs", "from_suth"):
        def counting_map(x, f=getattr(coords, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return f(x)
        monkeypatch.setattr(coords, name, counting_map)
    checks.CHECKS[check_id].func(3, 0)
    assert points[0] == evals
    assert calls == _MAP_CALLS.get(check_id, {})


def test_antisymmetry_hk_takes_each_gradient_once(monkeypatch):
    # its three pairs hold three distinct Hamiltonians, each in two pairs:
    # one analytic gradient per Hamiltonian, not one per pair member
    taken = []
    grad = phase.grad
    monkeypatch.setattr(phase, "grad", lambda F, x, step=None: taken.append(F.name)
                        or grad(F, x, step))
    checks.CHECKS["antisymmetry-hk"].func(3, 0)
    assert sorted(taken) == ["H_1[full]", "H_2[full]", "H_3[full]"]


def test_run_check_smoke_and_determinism():
    spec = CheckSpec("involutivity", n=2, seeds=2)
    r1 = run_check(spec)
    r2 = run_check(spec)
    assert r1.passed and not r1.errors
    # numerical content is bit-reproducible across runs
    assert r1.max_abs_defect == r2.max_abs_defect
    assert r1.max_rel_defect == r2.max_rel_defect


def test_failing_check_still_reports(monkeypatch):
    # numpy-float samples must not leak a numpy.bool into the report
    row = checks.CheckDef(lambda n, seed: [(np.float64(1.0), 1.0)], 1e-10, ())
    monkeypatch.setitem(checks.CHECKS, "planted-failure", row)
    spec = CheckSpec("planted-failure", n=2, seeds=1)
    assert run_check(spec).passed is False
    parsed = json.loads(reporting.dumps_json(run_checks([spec])))
    assert parsed["all_passed"] is False
    assert parsed["checks"][0]["passed"] is False


def test_row_raising_at_seed_1_keeps_seed_0(monkeypatch):
    row = checks.CheckDef(lambda n, seed: [(0.0, 1.0)] if seed == 0 else 1 / 0, config.FD, ())
    monkeypatch.setitem(checks.CHECKS, "raises-at-seed-1", row)
    spec = CheckSpec("raises-at-seed-1", n=2, seeds=3)
    r = run_check(spec)
    assert r.seeds_run == 1
    assert r.errors == ["seed 1: ZeroDivisionError: division by zero"]
    assert r.max_rel_defect == 0.0 and r.worst_seed == 0
    assert r.passed is False
    entry = json.loads(reporting.dumps_json(run_checks([spec])))["checks"][0]
    assert entry["errors"] == r.errors and entry["worst_seed"] == 0


def test_run_check_names_worst_seed():
    # rs-bracket at n = 5 reads 6.75e-5 from seed 4 alone; seeds 0..3 read
    # at most 1.2e-7
    r = run_check(CheckSpec("rs-bracket", n=5, seeds=5))
    assert r.worst_seed == 4
    assert r.max_rel_defect > 1e-5


def test_registry_tolerances_are_config_levels():
    levels = {config.EXACT, config.ANALYTIC, config.RK4, config.FD, config.NESTED}
    assert {cdef.tolerance for cdef in checks.CHECKS.values()} <= levels
    assert set(config.PROFILES.values()) <= levels


def test_ladder_red_catches_planted_r_term_defect():
    # pb2_red with its R-term scaled by 1 + 1e-8 must fail the ladder row
    def planted(x, gf, gh):
        Ldf, Ldh = x.L @ gf.d2, x.L @ gh.d2
        return (pairing(gf.D1, Ldh) - pairing(gh.D1, Ldf)
                + 2.0 * (1.0 + 1e-8) * pairing(Ldf, r_apply(x.Q, Ldh)))
    pb2_planted = br.Bracket("red", planted, "planted")
    samples = [s for seed in (0, 1)
               for s in checks._ladder_samples(br.pb1_red, pb2_planted, 3, seed)]
    assert max(a / s for a, s in samples) > checks.CHECKS["ladder-red"].tolerance


def test_profile_override_changes_tolerance():
    spec = CheckSpec("roundtrip-rs", n=2, seeds=1, profile="strict")
    r = run_check(spec)
    assert r.profile == "strict"
    assert r.tolerance == config.PROFILES["strict"]
    assert run_check(CheckSpec("roundtrip-rs", n=2, seeds=1)).tolerance == config.EXACT


def test_report_is_json_ready():
    report = run_checks([CheckSpec("hamiltonian-rs", n=2, seeds=2)])
    text = reporting.dumps_json(report)
    parsed = json.loads(text)
    assert parsed["all_passed"] is True
    entry = parsed["checks"][0]
    assert entry["check_id"] == "hamiltonian-rs"
    assert entry["passed"] is True
    assert entry["max_rel_defect"] <= entry["tolerance"]


# ---------------------------------------------------------------------------
# serialization


def test_dumps_json_float_formatting():
    text = reporting.dumps_json({"x": 0.1, "flag": True, "none": None, "v": [1, 2],
                                 "np_flags": [np.True_, np.False_]})
    parsed = json.loads(text)
    assert parsed["np_flags"] == [True, False]
    assert parsed["x"] == 0.1
    assert "0.10000000000000001" in text  # 17 significant digits
    # error messages may carry control characters, quotes and backslashes
    odd = {"errors": ["a\nb", "c\td", 'q"\\'], 'k"\n': 'q"\\'}
    assert json.loads(reporting.dumps_json(odd)) == odd
    with pytest.raises(ValueError):
        reporting.dumps_json({"bad": float("nan")})


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), np.float64("inf"),
                                 np.float32("nan"), np.float32("inf"), np.float16("-inf")])
def test_dumps_json_rejects_every_non_finite_float(bad):
    # a bare nan or inf is not JSON, whatever the width of the float
    with pytest.raises(ValueError, match="non-finite"):
        reporting.dumps_json({"bad": [1.0, bad]})


def test_dumps_json_narrow_floats_keep_their_digits():
    text = reporting.dumps_json({"x": np.float32(0.1), "y": np.float16(-2.5)})
    assert json.loads(text) == {"x": float(np.float32(0.1)), "y": -2.5}
    assert "0.10000000149011612" in text


def test_trajectory_csv_equals_per_value_formatting():
    # the whole table is formatted at once; each value as format(float(v),
    # ".17g") one at a time is the reference
    traj = dynamics.trajectory(sample_point("full", 4, 1), 1, np.linspace(0.0, 1.0, 11))
    lines = ["t,q_1,q_2,q_3,q_4,h_1,h_2,h_3,h_4,gauge_defect"]
    for i, t in enumerate(traj.times):
        row = [t, *traj.points[i].Q.q, *traj.conserved[i], traj.gauge_defects[i]]
        lines.append(",".join(format(float(v), ".17g") for v in row))
    assert reporting.trajectory_csv(traj) == "\n".join(lines) + "\n"
    defects = traj.gauge_defects.copy()
    defects[3] = np.inf
    with pytest.raises(ValueError, match="non-finite value in report: inf"):
        reporting.trajectory_csv(dataclasses.replace(traj, gauge_defects=defects))


def test_trajectory_csv_schema_and_reproducibility():
    x0 = sample_point("full", 3, 0)
    t_grid = np.linspace(0.0, 0.5, 6)
    traj = dynamics.trajectory(x0, 2, t_grid)
    text = reporting.trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,q_1,q_2,q_3,h_1,h_2,h_3,gauge_defect"
    assert len(lines) == 7
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(rows[:, 0], t_grid)
    # conserved columns are constant
    for col in (4, 5, 6):
        drift = np.max(np.abs(rows[:, col] - rows[0, col]))
        assert drift <= 1e-10 * (1 + abs(rows[0, col]))
    # byte-identical on re-export
    traj2 = dynamics.trajectory(x0, 2, t_grid)
    assert reporting.trajectory_csv(traj2) == text


# ---------------------------------------------------------------------------
# command line


def _run(args):
    return subprocess.run(CLI + args, capture_output=True, text=True)


def test_cli_check_pass_and_report(tmp_path):
    out = tmp_path / "report.json"
    res = _run(["check", "--suite", "prop4", "--n", "2", "--seeds", "2",
                "--out", str(out)])
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert all(ln.startswith("PASS") for ln in res.stderr.strip().split("\n"))


def test_cli_check_stdout_json():
    res = _run(["check", "--suite", "prop3", "--n", "2", "--seeds", "1"])
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["all_passed"] is True


def test_cli_check_env_profile_override_failure_exit():
    # the finite-difference suites cannot meet the strict 1e-10 tolerance,
    # so forcing the strict profile must flip the exit code to 1
    res = _run(["check", "--suite", "theorem2", "--n", "2", "--seeds", "1",
                "--profile", "strict"])
    assert res.returncode == 1
    assert "FAIL" in res.stderr


def test_cli_config_errors_exit_2(tmp_path):
    res = _run(["check", "--suite", "prop3", "--n", "1"])
    assert res.returncode == 2
    res = _run(["check", "--suite", "prop3", "--n", "2", "--seeds", "1",
                "--profile", "bogus"])
    assert res.returncode == 2
    res = _run(["bracket", "--chart", "rs", "--which", "1",
                "--f", "1,1,re", "--h", "0,2,re"])
    assert res.returncode == 2
    res = _run(["bracket", "--chart", "full", "--which", "1",
                "--f", "bogus", "--h", "0,2,re"])
    assert res.returncode == 2
    for args in (["--n", "1"], ["--seed", "-1"]):
        res = _run(["bracket", "--chart", "full", "--which", "1",
                    "--f", "1,1,re", "--h", "0,2,re", *args])
        assert res.returncode == 2, args
        assert "Traceback" not in res.stderr
    res = _run(["flow", "--seed", "-1", "--out", str(tmp_path / "t.csv")])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_cli_runs_without_scipy(tmp_path):
    # the runtime needs numpy only: in a fresh interpreter where importing
    # scipy fails, a check suite and a flow export still exit 0
    code = ("import sys; sys.modules['scipy'] = None; "
            "from rs_hierarchy.cli import main; sys.exit(main(sys.argv[1:]))")
    for args in (["check", "--suite", "prop3", "--n", "2", "--seeds", "1"],
                 ["flow", "--n", "3", "--steps", "5", "--out", str(tmp_path / "t.csv")]):
        res = subprocess.run([sys.executable, "-c", code, *args],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr


def test_cli_bracket_value_matches_library():
    from rs_hierarchy import brackets as br
    from rs_hierarchy.phase import invariant_observable
    res = _run(["bracket", "--chart", "full", "--which", "1",
                "--f", "1,1,re", "--h", "0,2,re", "--n", "3", "--seed", "0"])
    assert res.returncode == 0, res.stderr
    F = invariant_observable(1, 1, "re", chart="full")
    H = invariant_observable(0, 2, "re", chart="full")
    x = sample_point("full", 3, 0)
    assert float(res.stdout.strip()) == br.pb1_full(F, H, x)


def test_cli_flow_csv(tmp_path):
    out = tmp_path / "traj.csv"
    res = _run(["flow", "--n", "3", "--k", "2", "--t1", "0.5",
                "--steps", "6", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("t,q_1,q_2,q_3,h_1")
    assert len(lines) == 7
    # determinism: re-running produces an identical file
    out2 = tmp_path / "traj2.csv"
    _run(["flow", "--n", "3", "--k", "2", "--t1", "0.5",
          "--steps", "6", "--out", str(out2)])
    assert out2.read_text() == out.read_text()
