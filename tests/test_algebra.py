import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rs_hierarchy import algebra, config, phase
from rs_hierarchy.algebra import (NotPositiveDefiniteError, RegularityError,
                                  TorusReg, chol_upper, dual_basis, pairing,
                                  r_apply, r_bracket, split_ub)


def _E(n, j, k):
    M = np.zeros((n, n), dtype=complex)
    M[j, k] = 1.0
    return M


def _rand_gl(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# pairing


def test_pairing_examples():
    I2 = np.eye(2, dtype=complex)
    assert pairing(1j * I2, I2) == pytest.approx(2.0)
    assert pairing(_E(2, 0, 1), _E(2, 1, 0)) == pytest.approx(0.0)
    assert pairing(1j * _E(2, 0, 1), _E(2, 1, 0)) == pytest.approx(1.0)


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
    # the square check reads the last two axes, and the error names both shapes
    with pytest.raises(ValueError, match=r"\(4, 2, 3\) vs \(4, 2, 3\)"):
        pairing(np.ones((4, 2, 3)), np.ones((4, 2, 3)))
    # batch axes broadcast by numpy's rule; ones that do not still raise,
    # and numpy's error names both shapes
    with pytest.raises(ValueError, match=r"\(4, ?2, ?2\).*\(3, ?2, ?2\)"):
        pairing(np.ones((4, 2, 2)), np.ones((3, 2, 2)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pairing_on_a_stack_equals_per_member(n):
    rng = np.random.default_rng(n)
    X, Y = (np.stack([_rand_gl(rng, n) for _ in range(6)]) for _ in range(2))
    got = pairing(X, Y)
    assert got.shape == (6,)
    for b in range(6):
        want = pairing(X[b], Y[b])
        assert type(want) is float and got[b] == want
    # one shared matrix against a stack, on either side, broadcasts: each
    # value equals that of the member alone, bit for bit
    left, right = pairing(X[0], Y), pairing(Y, X[0])
    assert left.shape == right.shape == (6,)
    for b in range(6):
        assert left[b].tobytes() == np.float64(pairing(X[0], Y[b])).tobytes()
        assert right[b].tobytes() == np.float64(pairing(Y[b], X[0])).tobytes()


@given(st.integers(0, 10 ** 6), st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_pairing_bilinear_symmetric(seed, n):
    rng = np.random.default_rng(seed)
    X, Y, Z = (_rand_gl(rng, n) for _ in range(3))
    a, b = rng.standard_normal(2)
    assert pairing(X, Y) == pytest.approx(pairing(Y, X), abs=1e-12)
    assert pairing(a * X + b * Z, Y) == pytest.approx(
        a * pairing(X, Y) + b * pairing(Z, Y), rel=1e-10, abs=1e-10)


def test_pairing_nondegenerate_gram_identity():
    # Gram matrix of a full basis against its dual is the identity.
    for n in (2, 3, 4):
        for space in ("u", "herm"):
            B, D = dual_basis(space, n)
            G = np.array([[pairing(d, b) for b in B] for d in D])
            assert np.allclose(G, np.eye(len(B)), atol=1e-14)


@given(st.integers(0, 10 ** 6), st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_isotropic_subspaces(seed, n):
    rng = np.random.default_rng(seed)
    Xu, _ = split_ub(_rand_gl(rng, n))
    Yu, _ = split_ub(_rand_gl(rng, n))
    _, Xb = split_ub(_rand_gl(rng, n))
    _, Yb = split_ub(_rand_gl(rng, n))
    assert abs(pairing(Xu, Yu)) < 1e-12 * (1 + np.linalg.norm(Xu) * np.linalg.norm(Yu))
    assert abs(pairing(Xb, Yb)) < 1e-12 * (1 + np.linalg.norm(Xb) * np.linalg.norm(Yb))


# ---------------------------------------------------------------------------
# splittings


def test_split_ub_examples():
    E12, E21 = _E(2, 0, 1), _E(2, 1, 0)
    u, b = split_ub(E12)
    assert np.allclose(u, 0) and np.allclose(b, E12)
    u, b = split_ub(1j * np.eye(2))
    assert np.allclose(u, 1j * np.eye(2)) and np.allclose(b, 0)
    u, b = split_ub(E21)
    assert np.allclose(u, E21 - E12)
    assert np.allclose(b, E12)


@given(st.integers(0, 10 ** 6), st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_split_ub_reconstruction_and_memberships(seed, n):
    rng = np.random.default_rng(seed)
    X = _rand_gl(rng, n)
    u, b = split_ub(X)
    assert np.array_equal(u + b, X) or np.allclose(u + b, X, atol=0)
    assert np.allclose(u + u.conj().T, 0, atol=1e-15)
    assert np.allclose(np.tril(b, -1), 0)
    assert np.allclose(np.imag(np.diag(b)), 0)
    # idempotence: re-splitting the parts is stable
    u2, b_of_u = split_ub(u)
    assert np.allclose(u2, u) and np.allclose(b_of_u, 0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_split_ub_on_a_stack_equals_per_member(n):
    rng = np.random.default_rng(n)
    X = np.stack([_rand_gl(rng, n) for _ in range(6)])
    u, b = split_ub(X)
    for i in range(6):
        ui, bi = split_ub(X[i])
        assert np.array_equal(u[i], ui) and np.array_equal(b[i], bi)


# ---------------------------------------------------------------------------
# R-operator


@pytest.mark.parametrize("n", [2, 3, 5])
def test_r_multiplier_on_a_stack_equals_per_member(n):
    rng = np.random.default_rng(n)
    # neighbouring phases at least pi/n apart
    Q = TorusReg(2 * np.pi * (np.arange(n) + rng.uniform(0, 0.5, (6, n))) / n)
    X = np.stack([_rand_gl(rng, n) for _ in range(6)])
    M, RX = algebra.r_multiplier(Q), r_apply(Q, X)
    for i in range(6):
        assert np.array_equal(M[i], algebra.r_multiplier(TorusReg(Q.q[i])))
        assert np.array_equal(RX[i], r_apply(TorusReg(Q.q[i]), X[i]))


def test_r_apply_kills_diagonal():
    Q = TorusReg(np.array([0.2, 1.1, 2.5]))
    assert np.allclose(r_apply(Q, np.diag([1.0 + 2j, 3j, -1])), 0)


def test_r_apply_cotangent_multiplier():
    q1, q2 = 0.3, 1.9
    Q = TorusReg(np.array([q1, q2]))
    out = r_apply(Q, _E(2, 0, 1))
    expected = -0.5j / np.tan((q1 - q2) / 2.0) * _E(2, 0, 1)
    assert np.allclose(out, expected, atol=1e-14)


def test_r_apply_antisymmetric_under_pairing():
    rng = np.random.default_rng(3)
    Q = TorusReg(rng.uniform(0, 2 * np.pi, 4))
    for _ in range(10):
        X, Y = _rand_gl(rng, 4), _rand_gl(rng, 4)
        defect = pairing(r_apply(Q, X), Y) + pairing(X, r_apply(Q, Y))
        assert abs(defect) <= 1e-12 * np.linalg.norm(X) * np.linalg.norm(Y)


def test_r_apply_against_dense_operator_oracle():
    # Build (Ad_Q - id)^{-1} restricted to the off-diagonal entries as a
    # dense linear operator and compose with (Ad_Q + id)/2.
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        Q = TorusReg(rng.uniform(0, 2 * np.pi, n))
        Qm = Q.matrix()
        off = [(j, k) for j in range(n) for k in range(n) if j != k]
        dim = len(off)
        A = np.zeros((dim, dim), dtype=complex)
        for col, (j, k) in enumerate(off):
            img = Qm @ _E(n, j, k) @ Qm.conj().T - _E(n, j, k)
            for row, (a, b) in enumerate(off):
                A[row, col] = img[a, b]
        Ainv = np.linalg.inv(A)
        X = _rand_gl(rng, n)
        x_off = np.array([X[j, k] for j, k in off])
        y_off = Ainv @ x_off
        Y = np.zeros((n, n), dtype=complex)
        for (j, k), v in zip(off, y_off):
            Y[j, k] = v
        oracle = 0.5 * (Qm @ Y @ Qm.conj().T + Y)
        assert np.allclose(r_apply(Q, X), oracle, atol=1e-12 * np.linalg.norm(X))


def test_r_bracket_antisymmetry():
    rng = np.random.default_rng(5)
    Q = TorusReg(rng.uniform(0, 2 * np.pi, 3))
    X, Y = _rand_gl(rng, 3), _rand_gl(rng, 3)
    assert np.allclose(r_bracket(Q, X, X), 0, atol=1e-13)
    assert np.allclose(r_bracket(Q, X, Y), -r_bracket(Q, Y, X), atol=1e-13)
    D1, D2 = np.diag([1.0 + 0j, 2, 3]), np.diag([4.0 + 0j, 5, 6])
    assert np.allclose(r_bracket(Q, D1, D2), 0, atol=1e-14)


def test_torus_regularity_enforced():
    with pytest.raises(RegularityError):
        TorusReg(np.array([0.5, 0.5 + 1e-9]))


def test_stacked_torus_gate_names_the_irregular_member():
    q = np.array([[0.1, 1.0, 2.0], [0.3, 1.5, 4.0], [0.5, 0.5 + 1e-9, 2.0], [0.2, 2.2, 4.2]])
    with pytest.raises(RegularityError, match=r"^member 2: eigenvalue gap 1\.000e-09") as info:
        TorusReg(q)
    assert info.value.member == 2
    Q = TorusReg(q[[0, 1, 3]])
    assert Q.n == 3 and Q.min_gap().shape == (3,)
    assert np.array_equal(Q.matrix()[1], TorusReg(q[1]).matrix())
    assert Q.min_gap()[2] == TorusReg(q[3]).min_gap()
    # any number of batch axes: the member is the flat index over them
    with pytest.raises(RegularityError, match=r"^member 4: eigenvalue gap 1\.000e-09") as info:
        TorusReg(q[[0, 1, 3, 0, 2, 3]].reshape(2, 3, 3))
    assert info.value.member == 4
    Q2 = TorusReg(q[[0, 1, 3, 3, 1, 0]].reshape(2, 3, 3))
    assert Q2.min_gap().shape == (2, 3)
    assert np.array_equal(Q2.min_gap()[1], Q.min_gap()[::-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_torus_gate_rejects_a_non_finite_phase(bad):
    # before any exp runs, so no RuntimeWarning (an error here) comes first
    with pytest.raises(RegularityError, match=r"^non-finite phase$") as info:
        TorusReg([0.0, bad])
    assert info.value.member is None
    q = np.tile([0.1, 1.0, 2.0], (2, 3, 1))
    q[1, 0, 2] = bad
    with pytest.raises(RegularityError, match=r"^member 3: non-finite phase$") as info:
        TorusReg(q)
    assert info.value.member == 3


def test_strict_projection_checks_each_member_of_a_stack():
    # the second member's anti-Hermitian part (norm 1e-5) is far above the
    # tolerance for that member, though a single norm over the stack, which
    # the large first member dominates, would let it pass
    rng = np.random.default_rng(2)
    big = algebra.make_hermitian(1e6 * _rand_gl(rng, 3))
    small = algebra.make_hermitian(_rand_gl(rng, 3))
    small[0, 1] += 1e-5
    stack = np.stack([big, small])
    flat = np.linalg.norm(stack - algebra.make_hermitian(stack))
    assert flat <= config.STRICT_PROJECTION_TOL * (1.0 + np.linalg.norm(stack))
    with pytest.raises(algebra.SubspaceError, match="^member 1: ") as info:
        algebra.make_hermitian(stack, strict=True)
    assert info.value.member == 1
    with pytest.raises(algebra.SubspaceError, match="^discarded component") as info:
        algebra.make_hermitian(small, strict=True)
    assert info.value.member is None
    assert np.array_equal(algebra.make_hermitian(stack[:1], strict=True)[0],
                          algebra.make_hermitian(big, strict=True))


# ---------------------------------------------------------------------------
# triangular factorization


def test_chol_upper_examples():
    assert np.allclose(chol_upper(np.eye(3, dtype=complex)), np.eye(3))
    L = np.array([[2, 1], [1, 1]], dtype=complex)
    b = chol_upper(L)
    assert np.allclose(b, [[1, 1], [0, 1]])
    assert np.allclose(b @ b.conj().T, L)
    L2 = np.array([[1, 1j], [-1j, 2]], dtype=complex)
    b2 = chol_upper(L2)
    s = np.sqrt(2.0)
    assert np.allclose(b2, [[1 / s, 1j / s], [0, s]])
    assert np.allclose(b2 @ b2.conj().T, L2)


@given(st.integers(0, 10 ** 6), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_chol_upper_uniqueness(seed, n):
    rng = np.random.default_rng(seed)
    A = _rand_gl(rng, n)
    L = A @ A.conj().T + 0.5 * np.eye(n)
    b = chol_upper(L)
    assert np.allclose(np.tril(b, -1), 0)
    assert np.all(np.real(np.diag(b)) > 0) and np.allclose(np.imag(np.diag(b)), 0)
    assert np.linalg.norm(b @ b.conj().T - L) <= 1e-12 * np.linalg.norm(L)
    # refactorizing b b^dagger returns the same factor
    assert np.allclose(chol_upper(b @ b.conj().T), b, atol=1e-12 * np.linalg.norm(b))


def test_chol_upper_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError) as err:
        chol_upper(np.diag([1.0, -1.0]).astype(complex))
    assert err.value.member is None


def _pd_stack(rng, m, n):
    A = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return A @ A.conj().swapaxes(-1, -2) + 0.5 * np.eye(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_chol_upper_on_a_stack_equals_per_member(n):
    L = _pd_stack(np.random.default_rng(n), 3, n)
    b = chol_upper(L)
    assert b.shape == (3, n, n)
    for i in range(3):
        assert b[i].tobytes() == chol_upper(L[i]).tobytes()


def test_chol_upper_names_the_first_failing_member():
    # a stack of 3 whose member 1 is indefinite raises the typed error, not
    # numpy's ambiguous truth value, and names member 1
    L = _pd_stack(np.random.default_rng(0), 3, 3)
    L[1] = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(NotPositiveDefiniteError, match=r"^member 1: ") as err:
        chol_upper(L)
    assert err.value.member == 1


@pytest.mark.parametrize("m", [3, 4])   # batch size other than n, and equal to n
def test_stacked_projections_equal_per_member(m):
    # inputs in each subspace plus noise at rounding level, which the
    # projections discard within their check
    n = 4
    G, noise = np.random.default_rng(m).standard_normal((2, m, n, n, 2)).view(complex)[..., 0]
    for project, inside in ((algebra.make_unipotent_upper, np.triu(G, 1) + np.eye(n)),
                            (algebra.make_zero_diag_hermitian,
                             algebra.make_hermitian(G) * (1.0 - np.eye(n)))):
        X = inside + 1e-16 * noise
        P = project(X)
        assert P.shape == (m, n, n)
        for i in range(m):
            assert P[i].tobytes() == project(X[i]).tobytes()


# ---------------------------------------------------------------------------
# dual bases


def test_dual_basis_examples():
    B, D = dual_basis("u", 3)
    # i E_jj pairs to 1 with E_jj
    assert pairing(D[0], B[0]) == pytest.approx(1.0)
    # (E_jk - E_kj) pairs to 1 with -i E_jk
    A01 = _E(3, 0, 1) - _E(3, 1, 0)
    idx = next(i for i, b in enumerate(B) if np.allclose(b, A01))
    assert np.allclose(D[idx], -1j * _E(3, 0, 1))


_SPACES = ("u", "b", "herm", "u0", "b0", "herm0", "uperp", "bplus", "hermperp")


def _basis_reference(space, n):
    """The basis one element at a time, as the stacked construction must
    reproduce it."""
    out = []
    if space in ("u", "u0"):
        out += [1j * _E(n, j, j) for j in range(n)]
    if space in ("b", "b0"):
        out += [_E(n, j, j) for j in range(n)]
    if space in ("herm", "herm0"):
        out += [_E(n, j, j) for j in range(n)]
    if space in ("u", "uperp"):
        for j in range(n):
            for k in range(j + 1, n):
                out.append(_E(n, j, k) - _E(n, k, j))
                out.append(1j * (_E(n, j, k) + _E(n, k, j)))
    if space in ("b", "bplus"):
        for j in range(n):
            for k in range(j + 1, n):
                out.append(_E(n, j, k))
                out.append(1j * _E(n, j, k))
    if space in ("herm", "hermperp"):
        for j in range(n):
            for k in range(j + 1, n):
                out.append(_E(n, j, k) + _E(n, k, j))
                out.append(1j * (_E(n, j, k) - _E(n, k, j)))
    return out


def _dual_basis_reference(space, n):
    """The dual family from one pairing per Gram entry and one sum per dual."""
    V = _basis_reference(space, n)
    W = _basis_reference(algebra._DUAL_PAIRS[space], n)
    C = np.linalg.inv(np.array([[pairing(w, v) for v in V] for w in W]))
    return [sum(C[a, c] * W[c] for c in range(len(W))) for a in range(len(V))]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_basis_and_dual_basis_equal_the_per_element_reference(n):
    # tobytes(): the same element order, the same values and the same sign
    # of every zero.
    for space in _SPACES:
        B, D = dual_basis(space, n)
        assert B is algebra.basis(space, n)
        V, duals = _basis_reference(space, n), _dual_basis_reference(space, n)
        assert B.shape == D.shape == (len(V), n, n)
        assert B.tobytes() == np.stack(V).tobytes(), space
        assert D.tobytes() == np.stack(duals).tobytes(), space


def test_bases_dual_bases_and_phase_stacks_are_read_only():
    for space in _SPACES:
        for arr in (algebra.basis(space, 3), *dual_basis(space, 3), *phase._stacks(space, 3)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0


def test_basis_and_dual_basis_reject_an_unknown_space():
    for build in (algebra.basis, dual_basis):
        with pytest.raises(ValueError, match="unknown space"):
            build("sl", 3)


def test_dual_basis_gram_identity_all_pairs():
    for space in ("u", "b", "u0", "b0", "uperp", "bplus", "herm", "herm0", "hermperp"):
        B, D = dual_basis(space, 3)
        G = np.array([[pairing(d, b) for b in B] for d in D])
        assert np.allclose(G, np.eye(len(B)), atol=1e-13)


def test_strict_projection_raises():
    with pytest.raises(algebra.SubspaceError):
        algebra.make_unipotent_upper(np.ones((3, 3), dtype=complex))


def test_member_error_names_the_first_failing_member_one_way():
    # one element: no prefix and no member; a stack of any batch shape: the
    # flat (C-order) index of the first failing member, in both
    why = lambda i: f"value {i}"  # noqa: E731
    one = algebra._MemberError.first(np.bool_(True), why)
    assert str(one) == "value 0" and one.member is None
    bad = np.array([[False, False, False], [False, True, True]])
    err = RegularityError.first(bad, why)
    assert type(err) is RegularityError and isinstance(err, ValueError)
    assert str(err) == "member 4: value 4" and err.member == 4
    for cls in (RegularityError, NotPositiveDefiniteError, algebra.SubspaceError):
        assert issubclass(cls, algebra._MemberError)
