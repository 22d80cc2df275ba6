"""End-to-end acceptance gate.

GATE is one table of (label, check ids, ns, seeds) rows.  Each check of a row
is run by checks.run_check at each of its ns, must raise at no seed, and is
held to its registry row's tolerance.  It prints a single PASS/FAIL line with
its worst-case relative defect and the n and seed where it occurs, so a run
of this module doubles as a human-readable report.
"""

from rs_hierarchy import checks

N_ALL = (2, 3, 4, 5)

# rs-bracket's registry row sits at NESTED only because of n = 5: at seed 4
# it reads 6.7e-5, and scaling the rs-side step by 1/4 to 4 leaves that
# unchanged.  The error is truncation in the reference pb2_red gradient,
# whose step 6.1e-6 * (1 + |y|) makes a 0.09 rad phase step at |L| = 1.5e4
# (a step 1/4 as large reads 4.2e-6).  Up to n = 4 the check holds to:
RS_BRACKET_TOL_N4 = 1e-5

GATE = (
    ("A1  bracket axioms (finite differences)", ("antisymmetry",), N_ALL, 20),
    ("A1  Leibniz rule, d(GH) = G dH + H dG (rounding only)", ("leibniz",), N_ALL, 20),
    ("A1  bracket axioms (analytic gradients)", ("antisymmetry-hk",), N_ALL, 20),
    ("A2  Jacobi identity and pencil compatibility",
     ("jacobi-full-1", "jacobi-full-2", "jacobi-pencil"), (2, 3), 5),
    ("A3  bi-Hamiltonian ladder k=1..4", ("ladder-full", "ladder-red"), N_ALL, 20),
    ("A4  involutivity of H_1..H_5 (analytic gradients)", ("involutivity",), N_ALL, 5),
    ("A5  reduced brackets vs full-chart brackets",
     ("reduction-pb1", "reduction-pb2"), N_ALL, 20),
    ("A6  deformed-chart bracket vs reduced second bracket", ("rs-bracket",), (2, 3, 4), 10),
    ("A7  spin-chart bracket vs reduced first bracket", ("suth-bracket",), N_ALL, 20),
    ("A8  chart round trips and triangular factor residual",
     ("roundtrip-rs", "roundtrip-suth", "bplus-residual"), N_ALL, 100),
    ("A9  chart Hamiltonians vs trace invariants",
     ("hamiltonian-rs", "hamiltonian-suth"), N_ALL, 100),
    ("A10 exact flow vs RK4 oracle", ("flow-rk4",), N_ALL, 5),
    ("A10 conserved quantities along trajectories", ("flow-conserved",), N_ALL, 5),
    ("A10 flow group property", ("flow-group",), N_ALL, 5),
)


def _gate(capsys, tag):
    """Run the GATE rows whose label starts with tag."""
    rows = [row for row in GATE if row[0].split()[0] == tag]
    assert rows, tag
    for label, ids, ns, seeds in rows:
        for cid in ids:
            results = [checks.run_check(checks.CheckSpec(cid, n=n, seeds=seeds)) for n in ns]
            assert not any(r.errors for r in results), [r.errors for r in results]
            worst = max(results, key=lambda r: r.max_rel_defect)
            rel = worst.max_rel_defect
            tol = RS_BRACKET_TOL_N4 if cid == "rs-bracket" else checks.CHECKS[cid].tolerance
            status = "PASS" if rel <= tol else "FAIL"
            where = f"n = {worst.n}, seed {worst.worst_seed}"
            with capsys.disabled():
                print(f"{label} [{cid}]: {status} "
                      f"(max rel defect {rel:.3e} at {where}, tol {tol:.1e})")
            assert rel <= tol, f"{label} [{cid}]: {rel:.3e} at {where} > {tol:.1e}"


def test_a1_bracket_axioms(capsys):
    _gate(capsys, "A1")


def test_a2_jacobi_and_compatibility(capsys):
    _gate(capsys, "A2")


def test_a3_bihamiltonian_ladder(capsys):
    _gate(capsys, "A3")


def test_a4_involutivity(capsys):
    _gate(capsys, "A4")


def test_a5_reduced_brackets_match_full(capsys):
    _gate(capsys, "A5")


def test_a6_rs_chart_bracket(capsys):
    _gate(capsys, "A6")


def test_a7_suth_chart_bracket(capsys):
    _gate(capsys, "A7")


def test_a8_chart_bijectivity(capsys):
    _gate(capsys, "A8")


def test_a9_hamiltonian_identities(capsys):
    _gate(capsys, "A9")


def test_a10_flows(capsys):
    _gate(capsys, "A10")
