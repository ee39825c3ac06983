"""Quaternion matrices, the complex adjoint, and real representations."""

import numpy as np
import pytest

from quatspec import (
    I,
    J,
    K,
    ONE,
    OperatorExpr,
    QMatrix,
    Quaternion,
    complex_adjoint,
    delta,
    from_complex_adjoint,
    left_mult_rep,
    q_pencil,
    real_representation,
    right_mult_rep,
)
from quatspec.errors import DimensionMismatch, StructureViolation
from quatspec.operators import (
    _embed,
    _pull_back,
    adjoint_structure_residual,
    vector_from_real_coords,
    vector_from_slice_coords,
    vector_to_real_coords,
    vector_to_slice_coords,
)

from _helpers import (
    assert_matrix_close,
    assert_quat_close,
    random_qmatrix,
    random_quaternion,
    random_unit_quaternion,
    rng,
)


def test_entry_round_trip():
    gen = rng(201)
    rows = [[random_quaternion(gen) for _ in range(3)] for _ in range(3)]
    A = QMatrix.from_entries(rows)
    for r in range(3):
        for c in range(3):
            assert A.entry(r, c) == rows[r][c]
    assert A.entries() == rows


def test_components_round_trip():
    gen = rng(202)
    A = random_qmatrix(gen, 4)
    B = QMatrix.from_components(*A.components())
    assert A == B


def test_norm_is_the_frobenius_norm_of_the_components():
    gen = rng(203)
    for n in (1, 4, 8):
        A = random_qmatrix(gen, n, scale=10.0 ** gen.uniform(-3, 3))
        want = np.linalg.norm(np.stack(A.components()))
        assert abs(A.norm - want) <= 1e-15 * want
    assert QMatrix.zeros(3).norm == 0.0


def test_arrays_are_frozen():
    A = QMatrix.identity(2)
    with pytest.raises(ValueError):
        A.x[0, 0] = 5.0


def test_apply_examples():
    x = [Quaternion(1.0, 2.0, 3.0, 4.0), random_quaternion(rng(203))]
    eye = QMatrix.identity(2)
    assert eye.apply(x) == x

    A = QMatrix.from_entries([[I]])
    assert A.apply([J]) == [K]
    # right-linearity: apply(x * j) = apply(x) * j
    out = A.apply([ONE * J])
    assert out == [A.apply([ONE])[0] * J]


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        QMatrix.identity(2).apply([ONE])


def test_matmul_against_entrywise_hamilton_products():
    gen = rng(204)
    for n in (1, 2, 3):
        A = random_qmatrix(gen, n)
        B = random_qmatrix(gen, n)
        C = A @ B
        for r in range(n):
            for c in range(n):
                want = Quaternion(0.0)
                for k in range(n):
                    want = want + A.entry(r, k) * B.entry(k, c)
                assert_quat_close(C.entry(r, c), want, 1e-12 * (1 + abs(want)))


def test_scalar_products_entrywise():
    gen = rng(205)
    A = random_qmatrix(gen, 3)
    q = random_quaternion(gen)
    L = A.scalar_left(q)
    R = A.scalar_right(q)
    for r in range(3):
        for c in range(3):
            assert_quat_close(L.entry(r, c), q * A.entry(r, c), 1e-13)
            assert_quat_close(R.entry(r, c), A.entry(r, c) * q, 1e-13)


def test_power_binary_vs_naive():
    gen = rng(206)
    A = random_qmatrix(gen, 3, scale=0.5)
    P = QMatrix.identity(3)
    for k in range(6):
        assert_matrix_close(A.power(k), P, 1e-12 * (1 + P.norm))
        P = P @ A


def test_complex_adjoint_basis_examples():
    chi_i = complex_adjoint(QMatrix.from_entries([[I]]))
    assert np.allclose(chi_i, np.array([[1j, 0.0], [0.0, -1j]]), atol=0.0)
    chi_j = complex_adjoint(QMatrix.from_entries([[J]]))
    assert np.allclose(chi_j, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=0.0)
    # k = ij forces the embedding of k to be the product of the other two
    chi_k = complex_adjoint(QMatrix.from_entries([[K]]))
    assert np.allclose(chi_k, chi_i @ chi_j, atol=0.0)


def test_complex_adjoint_is_homomorphism():
    gen = rng(207)
    for _ in range(50):
        A = random_qmatrix(gen, 4)
        B = random_qmatrix(gen, 4)
        prod = complex_adjoint(A) @ complex_adjoint(B)
        assert np.linalg.norm(complex_adjoint(A @ B) - prod) \
            <= 1e-12 * (1.0 + A.norm * B.norm)
        tot = complex_adjoint(A) + complex_adjoint(B)
        assert np.linalg.norm(complex_adjoint(A + B) - tot) == 0.0
    assert np.allclose(complex_adjoint(QMatrix.identity(3)), np.eye(6),
                       atol=0.0)


def test_embedding_consistency_on_vectors():
    gen = rng(208)
    for _ in range(20):
        A = random_qmatrix(gen, 3)
        x = [random_quaternion(gen) for _ in range(3)]
        via_matrix = vector_to_slice_coords(A.apply(x))
        via_adjoint = complex_adjoint(A) @ vector_to_slice_coords(x)
        assert np.linalg.norm(via_matrix - via_adjoint) \
            <= 1e-12 * (1.0 + A.norm)


def test_slice_and_real_coordinate_round_trips():
    gen = rng(209)
    xs = [random_quaternion(gen) for _ in range(4)]
    assert vector_from_slice_coords(vector_to_slice_coords(xs)) == xs
    assert vector_from_real_coords(vector_to_real_coords(xs)) == xs


def test_from_complex_adjoint():
    gen = rng(210)
    A = random_qmatrix(gen, 3)
    assert from_complex_adjoint(complex_adjoint(A)) == A
    B = from_complex_adjoint(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert B == QMatrix.from_entries([[J]])
    with pytest.raises(StructureViolation):
        from_complex_adjoint(np.diag([1.0, 2.0]))


def test_pull_back_residual_matches_reconstruction():
    gen = rng(212)
    n = 3
    M = gen.normal(size=(5, 2 * n, 2 * n)) + 1j * gen.normal(size=(5, 2 * n, 2 * n))
    M[0] = complex_adjoint(random_qmatrix(gen, n))
    x, y, resid = _pull_back(M)
    assert resid.shape == (5,)
    for k in range(5):
        # reference: rebuild the nearest adjoint and take the distance
        rec = np.block([[x[k], -np.conj(y[k])], [y[k], np.conj(x[k])]])
        want = np.linalg.norm(M[k] - rec)
        assert abs(resid[k] - want) <= 1e-13 * (1.0 + want)
        assert abs(adjoint_structure_residual(M[k]) - want) <= 1e-13 * (1.0 + want)
    assert resid[0] == 0.0
    assert np.array_equal(_embed(x, y)[0], M[0])
    with pytest.raises(DimensionMismatch):
        _pull_back(np.zeros((2, 3, 3)))


def test_right_mult_rep_basis_example():
    want = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    assert np.array_equal(right_mult_rep(I, 1), want)
    # left multiplication by i acts differently on the j, k components
    left = left_mult_rep(QMatrix.from_entries([[I]]))
    assert not np.array_equal(left, want)
    want_left = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    assert np.array_equal(left, want_left)


def test_real_reps_act_like_their_operators():
    gen = rng(211)
    for _ in range(20):
        A = random_qmatrix(gen, 2)
        q = random_quaternion(gen)
        xs = [random_quaternion(gen) for _ in range(2)]
        coords = vector_to_real_coords(xs)

        got = vector_from_real_coords(left_mult_rep(A) @ coords)
        want = A.apply(xs)
        for g, w in zip(got, want):
            assert_quat_close(g, w, 1e-12 * (1 + abs(w)))

        got = vector_from_real_coords(right_mult_rep(q, 2) @ coords)
        want = [x * q for x in xs]
        for g, w in zip(got, want):
            assert_quat_close(g, w, 1e-12 * (1 + abs(w)))


def test_operator_expr_algebra():
    gen = rng(212)
    A = random_qmatrix(gen, 2)
    B = random_qmatrix(gen, 2)
    q = random_quaternion(gen)
    xs = [random_quaternion(gen) for _ in range(2)]
    coords = vector_to_real_coords(xs)

    expr = OperatorExpr.matrix(A) @ OperatorExpr.right_mult(q, 2) \
        - OperatorExpr.matrix(B)
    got = vector_from_real_coords(expr.mat @ coords)
    want = [p - r for p, r in zip(A.apply([x * q for x in xs]), B.apply(xs))]
    for g, w in zip(got, want):
        assert_quat_close(g, w, 1e-11 * (1 + abs(w)))

    sl = OperatorExpr.matrix(A).scalar_left(q)
    got = vector_from_real_coords(sl.mat @ coords)
    want = [q * v for v in A.apply(xs)]
    for g, w in zip(got, want):
        assert_quat_close(g, w, 1e-11 * (1 + abs(w)))

    sr = OperatorExpr.matrix(A).scalar_right(q)
    got = vector_from_real_coords(sr.mat @ coords)
    want = A.apply([q * x for x in xs])
    for g, w in zip(got, want):
        assert_quat_close(g, w, 1e-11 * (1 + abs(w)))


def test_q_pencil_examples():
    assert q_pencil(QMatrix.from_entries([[J]]), I).norm == 0.0

    gen = rng(213)
    A = random_qmatrix(gen, 2)
    q = random_quaternion(gen)
    assert_matrix_close(q_pencil(QMatrix.zeros(2), q),
                        QMatrix.identity(2) * q.norm_sq(), 0.0)
    r = 1.5
    shifted = A - QMatrix.identity(2) * r
    assert_matrix_close(q_pencil(A, Quaternion(r)), shifted @ shifted,
                        1e-12 * (1 + A.norm ** 2))


def test_q_pencil_sphere_constant():
    gen = rng(214)
    A = random_qmatrix(gen, 3)
    q = random_quaternion(gen)
    # conjugating by a basis unit flips component signs exactly, so the
    # pencil must come out bit-identical
    for u in (I, J, K):
        p = u * q * u.inverse()
        assert q_pencil(A, p) == q_pencil(A, q)
    # a generic unit conjugator only preserves (Re, |q|) to rounding
    for _ in range(20):
        s = random_unit_quaternion(gen)
        p = s * q * s.inverse()
        assert_matrix_close(q_pencil(A, p), q_pencil(A, q),
                            1e-12 * (1.0 + A.norm ** 2 + q.norm_sq()))


def test_pencil_factors_through_real_representation():
    # the pencil splits as (R_q - A)(R_qbar - A) in the real picture,
    # in either order
    gen = rng(215)
    for _ in range(30):
        n = int(gen.integers(1, 4))
        A = random_qmatrix(gen, n)
        q = random_quaternion(gen)
        rho_q = real_representation(
            OperatorExpr.right_mult(q, n) - OperatorExpr.matrix(A))
        rho_qbar = real_representation(
            OperatorExpr.right_mult(q.conjugate(), n) - OperatorExpr.matrix(A))
        target = real_representation(q_pencil(A, q))
        scale = 1.0 + A.norm ** 2 + q.norm_sq()
        assert np.linalg.norm(target - rho_q @ rho_qbar) <= 1e-12 * scale
        assert np.linalg.norm(target - rho_qbar @ rho_q) <= 1e-12 * scale


def test_delta_factor_smin_agreement():
    gen = rng(216)
    for _ in range(20):
        A = random_qmatrix(gen, 2)
        q = random_quaternion(gen)
        d1 = real_representation(
            OperatorExpr.right_mult(q, 2) - OperatorExpr.matrix(A))
        d2 = real_representation(
            OperatorExpr.right_mult(q.conjugate(), 2) - OperatorExpr.matrix(A))
        s1 = np.linalg.svd(d1, compute_uv=False)[-1]
        s2 = np.linalg.svd(d2, compute_uv=False)[-1]
        assert abs(s1 - s2) <= 1e-10 * (1.0 + A.norm + abs(q))


def test_real_rep_of_pencil_at_annihilating_point():
    rep = real_representation(q_pencil(QMatrix.from_entries([[J]]), I))
    assert np.array_equal(rep, np.zeros((4, 4)))


def test_delta_examples():
    assert np.allclose(delta(QMatrix.zeros(1), 1j), 1j * np.eye(2), atol=0.0)
    A = QMatrix.from_entries([[I]])
    assert np.allclose(delta(A, 2j), np.diag([1j, 3j]), atol=0.0)
    d = delta(A, 1j)
    assert np.allclose(d, np.diag([0.0, 2j]), atol=0.0)
    assert abs(np.linalg.det(d)) == 0.0


def test_adjoint_eigenvalues_conjugate_symmetric():
    gen = rng(217)
    for _ in range(10):
        A = random_qmatrix(gen, 3)
        lam = np.linalg.eigvals(complex_adjoint(A))
        gap = np.abs(np.conj(lam)[:, None] - lam[None, :]).min(axis=1)
        assert np.max(gap) <= 1e-10 * (1 + A.norm)
