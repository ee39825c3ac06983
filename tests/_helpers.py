"""Shared generators and assertion helpers for the test suite."""

import numpy as np

from quatspec import QMatrix, Quaternion


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_quaternion(gen, scale: float = 1.0) -> Quaternion:
    return Quaternion(*(scale * gen.standard_normal(4)))


def random_unit_quaternion(gen) -> Quaternion:
    q = random_quaternion(gen)
    while abs(q) < 1e-3:
        q = random_quaternion(gen)
    return q * (1.0 / abs(q))


def random_qmatrix(gen, n: int, scale: float = 1.0) -> QMatrix:
    comps = (scale * gen.standard_normal((n, n)) for _ in range(4))
    return QMatrix.from_components(*comps)


def stem_values(a, b=0.0, c=0.0, d=0.0) -> np.ndarray:
    """Stem values with components a, b, c, d, broadcast to shape (..., 4)."""
    return np.stack(np.broadcast_arrays(a, b, c, d), -1)


def assert_quat_close(p: Quaternion, q: Quaternion, tol: float = 1e-12):
    d = abs(p - q)
    assert d <= tol, f"{p} vs {q} differ by {d:.3e} (tol {tol:.1e})"


def assert_matrix_close(A: QMatrix, B: QMatrix, tol: float = 1e-12):
    d = A.distance(B)
    assert d <= tol, f"matrices differ by {d:.3e} (tol {tol:.1e})"
