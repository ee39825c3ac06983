"""Hamilton quaternions, conjugation spheres, and slice-plane rotation.

A quaternion q = a + b i + c j + d k is stored as four 64-bit floats.
Multiplication follows i^2 = j^2 = k^2 = i j k = -1.  The distinguished
slice is the complex plane spanned by 1 and i; Python ``complex`` values
stand for points of that plane throughout the package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ZeroDivisor

__all__ = [
    "Quaternion",
    "Sphere",
    "ONE",
    "I",
    "J",
    "K",
    "sphere_of",
    "rotate_to_slice",
]

# Below this norm a quaternion is treated as a zero divisor for inversion.
ZERO_EPS = 1e-300


@dataclass(frozen=True, slots=True)
class Quaternion:
    """q = a + b i + c j + d k with real components."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    @classmethod
    def from_complex(cls, z) -> "Quaternion":
        """Embed a point of the distinguished slice plane."""
        z = complex(z)
        return cls(z.real, z.imag, 0.0, 0.0)

    @property
    def real(self) -> float:
        return self.a

    @property
    def imag(self) -> "Quaternion":
        """Imaginary part b i + c j + d k."""
        return Quaternion(0.0, self.b, self.c, self.d)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm_sq(self) -> float:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def __abs__(self) -> float:
        return math.hypot(self.a, self.b, self.c, self.d)

    def to_complex(self, tol: float = 1e-12) -> complex:
        """Value as a point of the distinguished slice.

        Raises ValueError when the j or k component is too large for the
        quaternion to lie in that plane.
        """
        off = math.hypot(self.c, self.d)
        if off > tol * (1.0 + abs(self)):
            raise ValueError(f"quaternion {self} is not in the 1-i plane")
        return complex(self.a, self.b)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __rmul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __truediv__(self, other):
        # Division is only defined by a real scalar; quaternionic division
        # is ambiguous, use inverse() and pick a side explicitly.
        if isinstance(other, (int, float)):
            s = 1.0 / other
            return Quaternion(self.a * s, self.b * s, self.c * s, self.d * s)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q) / |q|^2.

        Raises ZeroDivisor when |q| is numerically zero.  Scaling twice by
        1/|q| avoids overflow of |q|^2 for extreme magnitudes.
        """
        n = abs(self)
        if n < ZERO_EPS:
            raise ZeroDivisor("quaternion norm below zero threshold")
        s = 1.0 / n
        c = self.conjugate()
        return Quaternion(c.a * s * s, c.b * s * s, c.c * s * s, c.d * s * s)

    def __str__(self):
        return (f"{self.a:g}{self.b:+g}i{self.c:+g}j{self.d:+g}k")


def _coerce(v):
    if isinstance(v, Quaternion):
        return v
    # numbers.Complex admits numpy scalars; the builtins listed first
    # skip its slower abstract-class check on the hot arithmetic path
    if isinstance(v, (float, int, complex, numbers.Complex)):
        v = complex(v)
        return Quaternion(v.real, v.imag, 0.0, 0.0)
    return NotImplemented


def as_quaternion(v) -> Quaternion:
    """v as a quaternion, real and complex numbers (numpy's too) included."""
    q = _coerce(v)
    if q is NotImplemented:
        raise TypeError(f"cannot interpret {v!r} as a quaternion")
    return q


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True, slots=True)
class Sphere:
    """Conjugation sphere re + im_norm * u over all imaginary units u.

    im_norm = 0 encodes a single real point.
    """

    re: float
    im_norm: float

    def __post_init__(self):
        if self.im_norm < 0.0:
            raise ValueError("im_norm must be nonnegative")

    @property
    def representative(self) -> complex:
        """The upper half-plane point of the sphere on the distinguished slice."""
        return complex(self.re, self.im_norm)

    def abs_max(self) -> float:
        """Common norm of every point on the sphere."""
        return math.hypot(self.re, self.im_norm)

    def param_distance(self, alpha: float, beta: float) -> float:
        """Distance in the (re, |im|) half plane, which equals the
        quaternionic distance from any point with those invariants."""
        return math.hypot(self.re - alpha, self.im_norm - abs(beta))

    def distance_to(self, q: Quaternion) -> float:
        return self.param_distance(q.real, abs(q.imag))

    def contains(self, q: Quaternion, tol: float) -> bool:
        return self.distance_to(q) <= tol


def sphere_of(q: Quaternion) -> Sphere:
    """Sphere of all conjugates s q s^-1 of q."""
    return Sphere(q.real, abs(q.imag))


def rotate_to_slice(q: Quaternion) -> tuple[Quaternion, complex]:
    """Unit s and upper half-plane z with s q s^-1 = z on the distinguished slice.

    Real q and q already in the upper half of the distinguished slice
    return s = 1.  Otherwise s is built from the unit imaginary direction
    u of q.  When the i component of u is nonnegative the closed form
    s = (i + u)/|i + u| applies directly; when it is negative, u is
    first reflected by the exact conjugation j (.) j^-1, which flips the
    signs of the i and k components, so the closed form never suffers
    cancellation near u = -i.
    """
    im = q.imag
    beta = abs(im)
    z = complex(q.a, beta)
    if beta == 0.0 or (im.c == 0.0 and im.d == 0.0 and im.b > 0.0):
        return ONE, z
    # scale by the largest component before normalizing so subnormal
    # imaginary parts do not overflow 1/beta
    m = max(abs(im.b), abs(im.c), abs(im.d))
    wb, wc, wd = im.b / m, im.c / m, im.d / m
    nv = math.hypot(wb, wc, wd)
    u = Quaternion(0.0, wb / nv, wc / nv, wd / nv)
    flip = u.b < 0.0
    if flip:
        u = Quaternion(0.0, -u.b, u.c, -u.d)
    w = Quaternion(0.0, 1.0 + u.b, u.c, u.d)
    nw = abs(w)
    s = Quaternion(0.0, w.b / nw, w.c / nw, w.d / nw)
    if flip:
        s = s * J
    return s, z
