"""Quaternionic matrices and their complex and real linear realizations.

A matrix A over the quaternions acts on column vectors of H^n by left
multiplication, which is a right-linear operator.  Internally A is stored
as the pair (x, y) of complex arrays determined by writing each entry as

    q = a + b i + c j + d k = (a + b i) + j (c - d i),

so x = a + b i and y = c - d i.  With vectors split the same way,
right scalar multiplication by points of the distinguished slice becomes
ordinary complex scaling, and A turns into the 2n x 2n complex adjoint

    chi(A) = [[x, -conj(y)], [y, conj(x)]].

The real representation realizes any real-linear operator on H^n as a
4n x 4n real matrix in the component basis; coordinates are grouped by
component (all a's, then b's, c's, d's), which for n = 1 is the plain
(1, i, j, k) basis.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NoConvergence, StructureViolation
from .quaternion import Quaternion, as_quaternion

__all__ = [
    "QMatrix",
    "complex_adjoint",
    "adjoint_structure_residual",
    "from_complex_adjoint",
    "left_mult_rep",
    "right_mult_rep",
    "OperatorExpr",
    "real_representation",
    "q_pencil",
    "delta",
    "vector_to_slice_coords",
    "vector_from_slice_coords",
    "vector_to_real_coords",
    "vector_from_real_coords",
]


class QMatrix:
    """Immutable n x n quaternion matrix."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.ascontiguousarray(x, dtype=complex)
        y = np.ascontiguousarray(y, dtype=complex)
        if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape != y.shape:
            raise DimensionMismatch("component arrays must be square and equal shape")
        x.flags.writeable = False
        y.flags.writeable = False
        self.x = x
        self.y = y

    # -- construction ------------------------------------------------------

    @classmethod
    def from_components(cls, a, b, c, d) -> "QMatrix":
        a, b, c, d = (np.asarray(m, dtype=float) for m in (a, b, c, d))
        return cls(a + 1j * b, c - 1j * d)

    @classmethod
    def from_entries(cls, rows) -> "QMatrix":
        qs = [[as_quaternion(v) for v in row] for row in rows]
        n = len(qs)
        if any(len(row) != n for row in qs):
            raise DimensionMismatch("entry rows must form a square matrix")
        a = np.array([[q.a for q in row] for row in qs], dtype=float)
        b = np.array([[q.b for q in row] for row in qs], dtype=float)
        c = np.array([[q.c for q in row] for row in qs], dtype=float)
        d = np.array([[q.d for q in row] for row in qs], dtype=float)
        return cls.from_components(a, b, c, d)

    @classmethod
    def zeros(cls, n: int) -> "QMatrix":
        return cls(np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))

    @classmethod
    def diag(cls, values) -> "QMatrix":
        xs, ys = _vector_split(values)
        return cls(np.diag(xs), np.diag(ys))

    @classmethod
    def scalar(cls, n: int, q) -> "QMatrix":
        """q times the identity."""
        return cls.diag([q] * n)

    # -- inspection --------------------------------------------------------

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def entry(self, r: int, c: int) -> Quaternion:
        return _join(self.x[r, c], self.y[r, c])

    def entries(self) -> list[list[Quaternion]]:
        return [[self.entry(r, c) for c in range(self.n)] for r in range(self.n)]

    def components(self):
        """Real component arrays (a, b, c, d)."""
        return (self.x.real.copy(), self.x.imag.copy(),
                self.y.real.copy(), -self.y.imag.copy())

    @cached_property
    def norm(self) -> float:
        """Frobenius norm, the operator-norm surrogate used throughout."""
        x, y = self.x, self.y
        return math.sqrt(np.vdot(x, x).real + np.vdot(y, y).real)

    @cached_property
    def squared(self) -> "QMatrix":
        return self @ self

    @cached_property
    def chi_eigenvalues(self) -> np.ndarray:
        """Certified eigenvalues of chi(A), sorted, read-only, solved once."""
        from . import spectrum  # late: spectrum imports this module

        lam = spectrum.eigenvalues(complex_adjoint(self))
        lam.flags.writeable = False
        return lam

    # -- algebra -----------------------------------------------------------

    def _check_same_n(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"size {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        self._check_same_n(other)
        return QMatrix(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        self._check_same_n(other)
        return QMatrix(self.x - other.x, self.y - other.y)

    def __neg__(self):
        return QMatrix(-self.x, -self.y)

    def __mul__(self, scale):
        if isinstance(scale, (int, float)):
            return QMatrix(self.x * scale, self.y * scale)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        self._check_same_n(other)
        return QMatrix(*_product(self.x, self.y, other.x, other.y))

    def scalar_left(self, q) -> "QMatrix":
        """Entrywise product q * entry."""
        return QMatrix(*_product(*_split(q), self.x, self.y, np.multiply))

    def scalar_right(self, q) -> "QMatrix":
        """Entrywise product entry * q."""
        return QMatrix(*_product(self.x, self.y, *_split(q), np.multiply))

    def power(self, k: int) -> "QMatrix":
        if k < 0:
            raise ValueError("negative matrix powers are not defined here")
        out = QMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def apply(self, xs) -> list[Quaternion]:
        """Image of a column vector of quaternions."""
        v1, v2 = _vector_split(xs, self.n)
        return _vector_join(*_product(self.x, self.y, v1, v2))

    def distance(self, other: "QMatrix") -> float:
        return (self - other).norm

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.x.shape == other.x.shape
                and bool(np.array_equal(self.x, other.x))
                and bool(np.array_equal(self.y, other.y)))

    __hash__ = None

    def __repr__(self):
        return f"QMatrix(n={self.n})"


# -- the split layout: (x, y) stands for x + j y --------------------------

def _split(q) -> tuple[complex, complex]:
    """(a + b i, c - d i) of one quaternion-like value."""
    q = as_quaternion(q)
    return complex(q.a, q.b), complex(q.c, -q.d)


def _join(x, y) -> Quaternion:
    """The quaternion x + j y of one pair of complex numbers."""
    return Quaternion(x.real, x.imag, y.real, -y.imag)


def _product(x1, y1, x2, y2, mul=np.matmul):
    """Split parts of (x1 + j y1)(x2 + j y2); np.multiply gives entrywise products."""
    return (mul(x1, x2) - mul(np.conj(y1), y2),
            mul(y1, x2) + mul(np.conj(x1), y2))


def _vector_split(xs, n=None):
    """Split parts of an iterable of quaternion-like values, of length n if given."""
    parts = [_split(v) for v in xs]
    if n is not None and len(parts) != n:
        raise DimensionMismatch(f"vector length {len(parts)} vs matrix size {n}")
    return (np.array([x for x, _ in parts], dtype=complex),
            np.array([y for _, y in parts], dtype=complex))


def _vector_join(v1, v2):
    return [_join(z1, z2) for z1, z2 in zip(v1, v2)]


def vector_to_slice_coords(xs) -> np.ndarray:
    """Stack the split components into the length-2n complex coordinate vector."""
    return np.concatenate(_vector_split(xs))


def vector_from_slice_coords(v) -> list[Quaternion]:
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size % 2:
        raise DimensionMismatch("slice coordinate vector must have even length")
    n = v.size // 2
    return _vector_join(v[:n], v[n:])


def vector_to_real_coords(xs) -> np.ndarray:
    """Length-4n real coordinates, grouped by component."""
    qs = [as_quaternion(v) for v in xs]
    return np.concatenate([
        [q.a for q in qs], [q.b for q in qs],
        [q.c for q in qs], [q.d for q in qs],
    ]).astype(float)


def vector_from_real_coords(v) -> list[Quaternion]:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size % 4:
        raise DimensionMismatch("real coordinate vector must have length 4n")
    n = v.size // 4
    return [Quaternion(v[i], v[n + i], v[2 * n + i], v[3 * n + i]) for i in range(n)]


# -- complex adjoint -------------------------------------------------------

def _embed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[[x, -conj(y)], [y, conj(x)]], over any leading stack axes."""
    n = x.shape[-1]
    out = np.empty(x.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = x
    out[..., :n, n:] = -np.conj(y)
    out[..., n:, :n] = y
    out[..., n:, n:] = np.conj(x)
    return out


def complex_adjoint(A: QMatrix) -> np.ndarray:
    """2n x 2n complex matrix of A acting on slice coordinates."""
    return _embed(A.x, A.y)


def _pull_back(M: np.ndarray):
    """x, y of the nearest complex adjoint and the Frobenius distance to it.

    Works over leading stack axes.  The distance comes from the two
    block defects, since ||M - embed(x, y)||^2 is half the sum of
    ||m11 - conj(m22)||^2 and ||m21 + conj(m12)||^2.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or M.shape[-1] % 2:
        raise DimensionMismatch("complex adjoint must be square of even size")
    n = M.shape[-1] // 2
    m11, m12 = M[..., :n, :n], M[..., :n, n:]
    m21, m22 = M[..., n:, :n], M[..., n:, n:]
    x = 0.5 * (m11 + np.conj(m22))
    y = 0.5 * (m21 - np.conj(m12))
    resid = np.sqrt(0.5) * np.hypot(
        np.linalg.norm(m11 - np.conj(m22), axis=(-2, -1)),
        np.linalg.norm(m21 + np.conj(m12), axis=(-2, -1)))
    return x, y, resid


def adjoint_structure_residual(M: np.ndarray) -> float:
    """Frobenius distance from M to the nearest complex adjoint."""
    return float(_pull_back(M)[2])


STRUCTURE_TOL = 1e-8  # on every pull-back of a computed inverse or sum


def _checked_pull_back(M: np.ndarray):
    """x, y of _pull_back(M) over any stack, checked against STRUCTURE_TOL."""
    x, y, resid = _pull_back(M)
    if np.any(resid > STRUCTURE_TOL * (1.0 + np.linalg.norm(M, axis=(-2, -1)))):
        raise StructureViolation(f"structure residual {np.max(resid):.3e} "
                                 f"exceeds {STRUCTURE_TOL:.1e} (1 + ||M||_F)")
    return x, y


def from_complex_adjoint(M: np.ndarray) -> QMatrix:
    """Invert the embedding, averaging the redundant blocks.

    Raises StructureViolation when the block structure residual exceeds
    STRUCTURE_TOL * (1 + ||M||_F).
    """
    return QMatrix(*_checked_pull_back(M))


# -- real representation ---------------------------------------------------

def left_mult_rep(A: QMatrix) -> np.ndarray:
    """4n x 4n real matrix of x -> A x in grouped component coordinates."""
    a, b, c, d = A.components()
    return np.block([
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ])


def right_mult_rep(q, n: int) -> np.ndarray:
    """4n x 4n real matrix of x -> x q."""
    q = as_quaternion(q)
    r4 = np.array([
        [q.a, -q.b, -q.c, -q.d],
        [q.b, q.a, q.d, -q.c],
        [q.c, -q.d, q.a, q.b],
        [q.d, q.c, -q.b, q.a],
    ])
    return np.kron(r4, np.eye(n))


class OperatorExpr:
    """Real-linear operator on H^n, kept as its 4n x 4n real matrix.

    Expressions are built from matrices and right scalar multiplications
    and combined with +, -, @ (composition) and one-sided scalar products.
    Because the realization is an algebra homomorphism, eager matrix
    arithmetic is exact.
    """

    def __init__(self, n: int, mat: np.ndarray):
        self.n = n
        self.mat = np.asarray(mat, dtype=float)
        if self.mat.shape != (4 * n, 4 * n):
            raise DimensionMismatch("operator matrix must be 4n x 4n")

    @classmethod
    def matrix(cls, A: QMatrix) -> "OperatorExpr":
        return cls(A.n, left_mult_rep(A))

    @classmethod
    def right_mult(cls, q, n: int) -> "OperatorExpr":
        return cls(n, right_mult_rep(q, n))

    @classmethod
    def identity(cls, n: int) -> "OperatorExpr":
        return cls(n, np.eye(4 * n))

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"operator sizes {self.n} vs {other.n}")

    def __add__(self, other):
        self._check(other)
        return OperatorExpr(self.n, self.mat + other.mat)

    def __sub__(self, other):
        self._check(other)
        return OperatorExpr(self.n, self.mat - other.mat)

    def __neg__(self):
        return OperatorExpr(self.n, -self.mat)

    def __matmul__(self, other):
        self._check(other)
        return OperatorExpr(self.n, self.mat @ other.mat)

    def scalar_left(self, q) -> "OperatorExpr":
        """The operator x -> q * (T x)."""
        q = as_quaternion(q)
        lrep = left_mult_rep(QMatrix.scalar(self.n, q))
        return OperatorExpr(self.n, lrep @ self.mat)

    def scalar_right(self, q) -> "OperatorExpr":
        """The operator x -> T(q x)."""
        q = as_quaternion(q)
        lrep = left_mult_rep(QMatrix.scalar(self.n, q))
        return OperatorExpr(self.n, self.mat @ lrep)


def real_representation(expr) -> np.ndarray:
    """Real matrix of an operator expression (or of a plain QMatrix)."""
    if isinstance(expr, QMatrix):
        return left_mult_rep(expr)
    if isinstance(expr, OperatorExpr):
        return expr.mat.copy()
    raise TypeError("expected a QMatrix or OperatorExpr")


# -- pencils ---------------------------------------------------------------

def _pencil_parts(A: QMatrix, two_re, norm_sq):
    """Split parts of A^2 - two_re A + norm_sq I, broadcast over stacks of the scalars."""
    sq = A.squared
    return sq.x - two_re * A.x + norm_sq * np.eye(A.n), sq.y - two_re * A.y


def q_pencil(A: QMatrix, q) -> QMatrix:
    """Second order pencil A^2 - 2 Re(q) A + |q|^2 I.

    Depends on q only through Re(q) and |q|, hence is constant on the
    conjugation sphere of q.  A |q|^2 or an entry that is not finite
    raises NoConvergence.
    """
    q = as_quaternion(q)
    norm_sq = q.norm_sq()
    if math.isfinite(norm_sq):
        with np.errstate(over="ignore", invalid="ignore"):
            x, y = _pencil_parts(A, 2.0 * q.real, norm_sq)
        if np.isfinite(x).all() and np.isfinite(y).all():
            return QMatrix(x, y)
    raise NoConvergence(f"the pencil at |q|^2 = {norm_sq:.6g} overflows")


def delta(A: QMatrix, z: complex) -> np.ndarray:
    """z I - chi(A), the slice restriction of right-multiplication by z minus A."""
    z = complex(z)
    return z * np.eye(2 * A.n, dtype=complex) - complex_adjoint(A)
