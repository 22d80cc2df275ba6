"""End-to-end acceptance gate.

Each test aggregates worst-case relative defects over the sampled points for
one verification criterion and prints a single PASS/FAIL line with the pinned
tolerance, so a run of this module doubles as a human-readable report.
"""

import numpy as np

from rs_hierarchy import checks, coords, dynamics
from rs_hierarchy.phase import hamiltonian_observable, sample_point


def _samples(check_id, n, seeds):
    """The (abs_defect, scale) samples of one registry row."""
    return checks.CHECKS[check_id].func(n, seeds)


def _worst(samples):
    return max(a / s for a, s in samples)


def _report(capsys, label, worst, tol):
    status = "PASS" if worst <= tol else "FAIL"
    with capsys.disabled():
        print(f"{label}: {status} (max rel defect {worst:.3e}, tol {tol:.1e})")
    assert worst <= tol, f"{label}: {worst:.3e} > {tol:.1e}"


def test_a1_bracket_axioms(capsys):
    fd_samples, exact_samples = [], []
    for n in (2, 3, 4, 5):
        anti = _samples("antisymmetry", n, 20)
        # the last block of antisymmetry samples comes from analytic-gradient
        # Hamiltonian pairs on the full chart: 2 brackets x 3 pairs x 20 seeds
        n_exact = 2 * 3 * 20
        fd_samples += anti[:-n_exact]
        exact_samples += anti[-n_exact:]
        fd_samples += _samples("leibniz", n, 20)
    worst_fd = _worst(fd_samples)
    worst_exact = _worst(exact_samples)
    _report(capsys, "A1  bracket axioms (finite differences)", worst_fd, 1e-6)
    _report(capsys, "A1  bracket axioms (analytic gradients)", worst_exact, 1e-10)


def test_a2_jacobi_and_compatibility(capsys):
    samples = []
    for n in (2, 3):
        samples += _samples("jacobi-full-1", n, 5)
        samples += _samples("jacobi-full-2", n, 5)
        samples += _samples("jacobi-pencil", n, 5)
    _report(capsys, "A2  Jacobi identity and pencil compatibility",
            _worst(samples), 1e-4)


def test_a3_bihamiltonian_ladder(capsys):
    samples = []
    for n in (2, 3, 4, 5):
        samples += _samples("ladder-full", n, 20)
        samples += _samples("ladder-red", n, 20)
    _report(capsys, "A3  bi-Hamiltonian ladder k=1..4", _worst(samples), 1e-8)


def test_a4_involutivity(capsys):
    samples = []
    for n in (2, 3, 4, 5):
        samples += _samples("involutivity", n, 5)
    _report(capsys, "A4  involutivity of H_1..H_5 (analytic gradients)",
            _worst(samples), 1e-10)


def test_a5_reduced_brackets_match_full(capsys):
    samples = []
    for n in (2, 3, 4, 5):
        samples += _samples("reduction-pb1", n, 20)
        samples += _samples("reduction-pb2", n, 20)
    _report(capsys, "A5  reduced brackets vs full-chart brackets",
            _worst(samples), 1e-6)


def test_a6_rs_chart_bracket(capsys):
    samples = []
    for n in (2, 3, 4):
        samples += _samples("rs-bracket", n, 10)
    _report(capsys, "A6  deformed-chart bracket vs reduced second bracket",
            _worst(samples), 1e-5)


def test_a7_suth_chart_bracket(capsys):
    samples = []
    for n in (2, 3, 4, 5):
        samples += _samples("suth-bracket", n, 20)
    _report(capsys, "A7  spin-chart bracket vs reduced first bracket",
            _worst(samples), 1e-6)


def test_a8_chart_bijectivity(capsys):
    samples = []
    for n in (2, 3, 4, 5):
        samples += _samples("roundtrip-rs", n, 100)
        samples += _samples("roundtrip-suth", n, 100)
        samples += _samples("bplus-residual", n, 100)
    _report(capsys, "A8  chart round trips and triangular factor residual",
            _worst(samples), 1e-12)


def test_a9_hamiltonian_identities(capsys):
    samples = []
    for n in (2, 3, 4, 5):
        samples += _samples("hamiltonian-rs", n, 100)
        samples += _samples("hamiltonian-suth", n, 100)
    _report(capsys, "A9  chart Hamiltonians vs trace invariants",
            _worst(samples), 1e-12)


def test_a10_flows(capsys):
    rk4, cons, group = [], [], []
    for n in (2, 3, 4, 5):
        rk4 += _samples("flow-rk4", n, 5)
        cons += _samples("flow-conserved", n, 5)
        group += _samples("flow-group", n, 5)
    _report(capsys, "A10 exact flow vs RK4 oracle", _worst(rk4), 1e-8)
    _report(capsys, "A10 conserved quantities along trajectories",
            _worst(cons), 1e-10)
    _report(capsys, "A10 flow group property", _worst(group), 1e-12)
