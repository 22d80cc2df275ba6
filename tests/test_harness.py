import json
import subprocess
import sys

import numpy as np
import pytest

import rs_hierarchy
from rs_hierarchy import checks, dynamics, phase, reporting
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
@pytest.mark.parametrize("check_id,evals", [
    ("reduction-pb1", 468), ("reduction-pb2", 468),
    ("rs-bracket", 360), ("suth-bracket", 288), ("antisymmetry", 612),
])
def test_check_evaluation_counts(monkeypatch, check_id, evals):
    calls = [0]
    call = phase.Observable.__call__

    def counting(self, x):
        calls[0] += 1
        return call(self, x)
    monkeypatch.setattr(phase.Observable, "__call__", counting)
    checks.CHECKS[check_id].func(3, 1)
    assert calls[0] == evals


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
    row = checks.CheckDef(lambda n, seeds: [(np.float64(1.0), 1.0)], "strict", ())
    monkeypatch.setitem(checks.CHECKS, "planted-failure", row)
    spec = CheckSpec("planted-failure", n=2, seeds=1)
    assert run_check(spec).passed is False
    parsed = json.loads(reporting.dumps_json(run_checks([spec])))
    assert parsed["all_passed"] is False
    assert parsed["checks"][0]["passed"] is False


def test_antisymmetry_rows_split_analytic_from_fd():
    rows = checks.antisymmetry_rows()
    assert checks.check_antisymmetry(2, 1) == [
        s for chart, pairs in rows for s in checks.antisymmetry_samples(chart, pairs, 2, 1)]
    analytic = [(chart, pairs) for chart, pairs in rows
                if all(A.grad is not None for pair in pairs for A in pair)]
    assert [(chart, len(pairs)) for chart, pairs in analytic] == [("full", 3)]
    for chart, pairs in rows:
        if (chart, pairs) not in analytic:
            assert all(A.grad is None for pair in pairs for A in pair)
    samples = checks.antisymmetry_samples(*analytic[0], 2, 2)
    assert len(samples) == 2 * 3 * 2
    assert max(a / s for a, s in samples) <= 1e-13


def test_profile_override_changes_tolerance():
    spec = CheckSpec("roundtrip-rs", n=2, seeds=1, profile="strict")
    r = run_check(spec)
    assert r.profile == "strict"
    assert r.tolerance == pytest.approx(1e-10)


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
