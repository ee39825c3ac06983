"""Slice functional calculus through contour integrals.

Two independent routes compute f(A) in one pass per call, for slice
functions of every kind: one spectrum, one contour and one quadrature,
whose solves a one-sided f = sum e_m f_m weighs with the slice values of
its four intrinsic pieces at once.  The complex path restricts f to the
distinguished slice plane and runs the classical holomorphic calculus
on the complex adjoint chi(A), pulling the result back through the
block structure.  The s-contour path integrates the left S-resolvent of
A itself against f along the same contour,

    f(A) = (1/2pi) sum over nodes  S_L(s, A) * ds_i * f(s),

with ds_i the contour differential rotated by -i, so agreement of the
two routes is a genuine cross-check rather than a restatement.

Contours are finite unions of disjoint, positively oriented circles in
the slice plane, closed under conjugation, each centered near spectral
data and kept inside the function's domain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BranchCut,
    DomainTooTight,
    NoConvergence,
    NotIntrinsic,
    QuadratureStalled,
    SingularNode,
    StructureViolation,
    UsageError,
)
from .operators import (
    QMatrix,
    _embed,
    _pull_back,
    complex_adjoint,
    from_complex_adjoint,
)
from .quaternion import I, J, K, ONE, Quaternion, Sphere
from .slicefn import (
    CUT_BUFFER,
    INTRINSIC,
    RIGHT,
    AxSymDomain,
    StemFunction,
    _slice_values,
    catalog,
    restrict_to_slice,
    stem_compose,
    stem_product,
)
from .spectrum import (
    SphereSet,
    distance_to_spectrum,
    eigenvalues,
    s_resolvent,
    s_spectrum,
)

__all__ = [
    "Circle",
    "SliceContour",
    "build_contour",
    "auto_contour",
    "riesz_dunford",
    "calculus_intrinsic",
    "calculus_sided",
    "op_exp",
    "op_log",
    "op_nth_root",
    "TheoremReport",
    "verify_theorems",
    "SUITE_NAMES",
]

NODE_CAP = 1 << 16
QUAD_REL_TOL = 1e-10


class Circle(NamedTuple):
    center: complex
    radius: float
    orientation: int = 1  # always +1, counterclockwise


@dataclass(frozen=True)
class SliceContour:
    """Disjoint positively oriented circles, closed under conjugation."""

    circles: tuple[Circle, ...]

    def encloses(self, z: complex) -> bool:
        return any(abs(complex(z) - c.center) < c.radius for c in self.circles)


def _overlap(c1: Circle, c2: Circle) -> bool:
    eps = 1e-12 * (1.0 + c1.radius + c2.radius)
    return abs(c1.center - c2.center) < c1.radius + c2.radius + eps


def _enclose(c1: Circle, c2: Circle) -> Circle:
    d = abs(c2.center - c1.center)
    if d + min(c1.radius, c2.radius) <= max(c1.radius, c2.radius):
        return c1 if c1.radius >= c2.radius else c2
    r = 0.5 * (d + c1.radius + c2.radius)
    t = (r - c1.radius) / d
    return Circle(c1.center + (c2.center - c1.center) * t, r)


def _fold_to_axis(c: Circle) -> Circle:
    # smallest real-centered circle containing the disk and its mirror
    return Circle(complex(c.center.real, 0.0), c.center.imag + c.radius)


def _merge_upper(circles: list[Circle]) -> list[Circle]:
    """Merge upper-half representatives, keeping symmetry structural.

    Each circle with center strictly above the axis stands for itself
    plus its mirror image; real-centered circles stand alone.  A circle
    whose disk reaches the axis would overlap its own mirror, so it
    folds onto the axis first; after that, cross-half overlaps reduce
    to same-half overlaps and plain pairwise merging finishes the job.
    """
    cs = list(circles)
    for _ in range(10000):
        folded = False
        for idx, c in enumerate(cs):
            eps = 1e-12 * (1.0 + abs(c.center) + c.radius)
            if 0.0 < c.center.imag < c.radius + eps:
                cs[idx] = _fold_to_axis(c)
                folded = True
        if folded:
            continue
        pair = None
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                if _overlap(cs[i], cs[j]):
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            return cs
        i, j = pair
        merged = _enclose(cs[i], cs[j])
        if (cs[i].center.imag == 0.0 or cs[j].center.imag == 0.0) \
                and merged.center.imag != 0.0:
            merged = _fold_to_axis(merged)
        cs = [c for t, c in enumerate(cs) if t not in pair]
        cs.append(merged)
    raise StructureViolation("contour merge did not stabilize")


def _disk_in_domain(center: complex, radius: float, domain: AxSymDomain) -> bool:
    fracs = radius * np.array([1.0, 0.85, 0.6, 0.35, 0.12])
    rot = np.exp(2j * np.pi * np.arange(32) / 32)
    z = np.append(center, center + fracs[:, None] * rot)
    # the chord on the real axis is the worst case for cut exclusions
    b = center.imag
    if abs(b) < radius:
        half = math.sqrt(radius * radius - b * b)
        z = np.append(z, center.real - half + 2.0 * half * np.arange(17) / 16)
    if not domain.contains(z.real, z.imag).all():
        return False
    for (ea, eb), rad in domain.exclusions:
        for ebs in (eb, -eb):
            if abs(center - complex(ea, ebs)) < radius + rad:
                return False
    return True


def build_contour(spheres: SphereSet, domain: AxSymDomain,
                  margin: float) -> SliceContour:
    """Circles of the given margin around every spectral sphere.

    A sphere whose imaginary norm is below the margin gets one circle
    centered on the real axis; otherwise the two slice representatives
    each get a circle.  Overlapping circles are replaced by a common
    enclosing circle, so every sphere representative stays at least the
    margin away from the final contour.  Disks leaving the domain raise
    DomainTooTight.
    """
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    upper: list[Circle] = []
    for sph, _ in spheres.spheres:
        if sph.im_norm < margin:
            upper.append(Circle(complex(sph.re, 0.0), sph.im_norm + margin))
        else:
            upper.append(Circle(complex(sph.re, sph.im_norm), margin))
    circles: list[Circle] = []
    for c in _merge_upper(upper):
        circles.append(c)
        if c.center.imag > 0.0:
            circles.append(Circle(c.center.conjugate(), c.radius))
    for c in circles:
        if not _disk_in_domain(c.center, c.radius, domain):
            raise DomainTooTight(
                f"margin {margin:.3g} pushes a contour disk out of the domain")
    circles.sort(key=lambda c: (c.center.real, c.center.imag))
    return SliceContour(tuple(circles))


def auto_contour(spheres: SphereSet, domain: AxSymDomain) -> SliceContour:
    """Widest admissible contour from a shrinking ladder of margins."""
    scale = 1.0 + spheres.max_abs()
    margin = 0.45 * scale
    last = None
    for _ in range(24):
        if margin < 1e-6 * scale:
            break
        try:
            return build_contour(spheres, domain, margin)
        except DomainTooTight as exc:
            last = exc
            margin *= 0.6
    raise DomainTooTight(
        "no contour margin separates the spectrum from the domain edge") from last


# -- quadrature -------------------------------------------------------------

def _trapezoid(contour: SliceContour, h: Callable, at_nodes: Callable,
               nodes: int = 32) -> np.ndarray:
    """(1/2pi i) integral of h(z) at_nodes(z) dz over the contour.

    h and at_nodes map one circle's node array, once per circle and
    level: at_nodes to a stack of arrays, one per node, and h to one
    value per node or, with a leading axis of p, p values per node.
    The convergence test is on the Frobenius norm of the whole sum.
    """
    prev = None
    count = max(4, nodes)
    while count <= NODE_CAP:
        rot = np.exp(2j * np.pi * np.arange(count) / count)
        total = 0.0
        for circ in contour.circles:
            z = circ.center + circ.radius * rot
            fv = np.asarray(h(z)) * (circ.radius * rot / count)
            total = total + np.tensordot(fv, at_nodes(z), 1)
        if prev is not None:
            delta = float(np.linalg.norm(total - prev))
            if delta <= QUAD_REL_TOL * (1.0 + float(np.linalg.norm(total))):
                return total
        prev = total
        count *= 2
    raise QuadratureStalled(f"no convergence below {NODE_CAP} nodes per circle")


def _checked_solve(stack: np.ndarray, what: str) -> np.ndarray:
    """Inverse of every matrix in the stack; SingularNode names what failed."""
    rhs = np.broadcast_to(np.eye(stack.shape[-1], dtype=complex), stack.shape)
    try:
        inv = np.linalg.solve(stack, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularNode(f"{what} is singular at a quadrature node") from exc
    if not np.isfinite(inv).all() or np.abs(inv).max() > 1e14:
        raise SingularNode(f"{what} blew up at a quadrature node")
    return inv


def riesz_dunford(M: np.ndarray, h: Callable, contour: SliceContour,
                  nodes: int = 32) -> np.ndarray:
    """(1/2pi i) integral of h(z) (z I - M)^-1 dz over the contour.

    Periodic trapezoid sums per circle, all circles at a shared node
    count that doubles until two successive totals agree to 1e-10
    relative; the cap of 2^16 nodes raises QuadratureStalled.  h maps a
    node array to its values, shape (p, nodes) for a stack of p matrices.
    """
    M = np.asarray(M, dtype=complex)
    eye = np.eye(M.shape[0])
    return _trapezoid(
        contour, h,
        lambda z: _checked_solve(z[:, None, None] * eye - M, "the resolvent"),
        nodes)


def _s_contour_value(A: QMatrix, h: Callable, contour: SliceContour) -> list[QMatrix]:
    """One (1/2pi) integral of S_L(s, A) ds_i h_m(s) per value h_m of h.

    S_L(s, A) = -Q_s(A)^-1 (A - conj(s) I), with the pencil inverted on
    chi(Q_s(A)) and pulled back, its structure residual checked.
    """
    sq = A.squared
    eye = np.eye(A.n)

    def resolvents(s: np.ndarray) -> np.ndarray:
        two_re = 2.0 * s.real[:, None, None]
        px = sq.x - two_re * A.x + (np.abs(s) ** 2)[:, None, None] * eye
        py = sq.y - two_re * A.y
        inv = _checked_solve(_embed(px, py), "the pencil")
        qx, qy, resid = _pull_back(inv)
        if np.any(resid > 1e-8 * (1.0 + np.linalg.norm(inv, axis=(-2, -1)))):
            raise StructureViolation("pencil inverse lost its block structure")
        bx = A.x - np.conj(s)[:, None, None] * eye
        return -np.stack([qx @ bx - np.conj(qy) @ A.y,
                          qy @ bx + np.conj(qx) @ A.y], axis=1)

    return [QMatrix(rx, ry) for rx, ry in _trapezoid(contour, h, resolvents)]


# -- the calculus ----------------------------------------------------------

def calculus_intrinsic(A: QMatrix, f: StemFunction,
                       method: str = "complex_path") -> QMatrix:
    """f(A) for intrinsic f, by either route; see calculus_sided."""
    if f.kind != INTRINSIC:
        raise NotIntrinsic(f"f is {f.kind!r}, not intrinsic: use calculus_sided")
    return calculus_sided(A, f, method=method)


def calculus_sided(A: QMatrix, f: StemFunction, kind: str | None = None,
                   method: str = "complex_path") -> QMatrix:
    """f(A) for f of any kind, in one quadrature pass over all pieces.

    complex_path runs the holomorphic calculus on chi(A) and pulls back
    (StructureViolation signals broken quadrature); s_contour integrates
    the left S-resolvent of A.  The pieces recombine with 1, i, j, k: on
    the left for a right function, else on the right.
    """
    if f.kind != INTRINSIC and kind is not None and kind != f.kind:
        raise ValueError(f"requested kind {kind!r} but f is {f.kind!r}")
    spheres = s_spectrum(A)
    for sph, _ in spheres.spheres:
        if not f.domain.contains(sph.re, sph.im_norm):
            raise DomainTooTight(
                f"spectral sphere ({sph.re:.6g}, {sph.im_norm:.6g}) "
                "lies outside the domain")
    contour = auto_contour(spheres, f.domain)
    h = _slice_values(f)
    if method == "complex_path":
        stack = riesz_dunford(complex_adjoint(A), h, contour)
        parts = [from_complex_adjoint(B, tol=1e-8) for B in stack]
    elif method == "s_contour":
        parts = _s_contour_value(A, h, contour)
    else:
        raise ValueError(f"unknown method {method!r}")
    side = QMatrix.scalar_left if f.kind == RIGHT else QMatrix.scalar_right
    return sum(map(side, parts, (ONE, I, J, K)), QMatrix.zeros(A.n))


def op_exp(A: QMatrix) -> QMatrix:
    """Matrix exponential by scaled power series with repeated squaring."""
    nrm = A.norm
    halvings = 0
    if nrm > 0.5:
        halvings = int(math.ceil(math.log2(nrm / 0.5)))
    B = A * (0.5 ** halvings)
    total = QMatrix.identity(A.n)
    term = QMatrix.identity(A.n)
    for k in range(1, 200):
        term = (term @ B) * (1.0 / k)
        total = total + term
        if term.norm <= 1e-16 * (1.0 + total.norm):
            break
    else:
        raise NoConvergence("exponential series failed to truncate")
    for _ in range(halvings):
        total = total @ total
    return total


def _cut_distance(z: complex) -> float:
    # distance to the ray (-inf, 0]
    return abs(z.imag) if z.real <= 0.0 else abs(z)


def op_log(A: QMatrix) -> QMatrix:
    """Principal matrix logarithm through the intrinsic calculus.

    Raises BranchCut when any eigenvalue of chi(A) touches (-inf, 0]
    within the buffered cut.
    """
    lam = eigenvalues(complex_adjoint(A))
    buffer = CUT_BUFFER * (1.0 + A.norm)
    for lv in lam:
        if _cut_distance(complex(lv)) <= buffer:
            raise BranchCut(
                f"eigenvalue {complex(lv):.6g} sits on the branch cut")
    return calculus_intrinsic(A, catalog("log"))


def op_nth_root(A: QMatrix, m: int) -> QMatrix:
    """Principal m-th root exp(log(A) / m)."""
    if not isinstance(m, int) or m < 1:
        raise UsageError(f"root order must be a positive integer, got {m!r}")
    if m == 1:
        return A
    return op_exp(op_log(A) * (1.0 / m))


# -- theorem suites --------------------------------------------------------

SUITE_NAMES = ("product", "mapping", "composition", "polynomial",
               "distance", "resolvent_series")

_SUITE_SEED = 20240817


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one verification suite on one matrix."""

    suite: str
    cases: tuple[tuple[str, float], ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for _, v in self.cases)


def _rand_quaternion(rng, scale=1.0) -> Quaternion:
    return Quaternion(*(scale * rng.standard_normal(4)))


def _mono_name(side: str, q: Quaternion, n: int) -> str:
    return f"mono{side}:" + json.dumps([[q.a, q.b, q.c, q.d], n])


def _rel(diff: float, ref: float) -> float:
    return diff / (1.0 + ref)


def _mapping_gap(spheres: SphereSet, f: StemFunction, B: QMatrix) -> float:
    """Distance from the spectrum of B = f(A) to f's image of A's spheres."""
    h, tol = restrict_to_slice(f), spheres.tol * 10
    # images of distinct spheres may collide; merge within tolerance
    merged: list[tuple[Sphere, int]] = []
    for sph, m in spheres.spheres:
        w = complex(h(sph.representative))
        for i, (other, om) in enumerate(merged):
            if other.param_distance(w.real, w.imag) <= tol:
                merged[i] = (other, om + m)
                break
        else:
            merged.append((Sphere(w.real, abs(w.imag)), m))
    image = SphereSet(tuple(merged), tol)
    return s_spectrum(B).match_distance(image) / (1.0 + image.max_abs())


def _suite_product(A, tol, rng):
    cases = []
    f_exp = catalog("exp")
    a = _rand_quaternion(rng, 0.7)
    g_left = catalog(_mono_name("R", a, 1))
    prod = stem_product(f_exp, g_left)
    lhs = calculus_sided(A, prod)
    rhs = calculus_intrinsic(A, f_exp) @ calculus_sided(A, g_left)
    cases.append(("exp * (q a)", _rel(lhs.distance(rhs), rhs.norm)))

    b = _rand_quaternion(rng, 0.7)
    f_right = catalog(_mono_name("L", b, 2))
    g_poly = catalog("poly:[1, 0, -0.5]")
    prod = stem_product(f_right, g_poly)
    lhs = calculus_sided(A, prod)
    rhs = calculus_sided(A, f_right) @ calculus_intrinsic(A, g_poly)
    cases.append(("(b q^2) * poly", _rel(lhs.distance(rhs), rhs.norm)))

    prod = stem_product(f_exp, g_poly)
    fa = calculus_intrinsic(A, f_exp)
    ga = calculus_intrinsic(A, g_poly)
    lhs = calculus_intrinsic(A, prod)
    cases.append(("exp * poly", _rel(lhs.distance(fa @ ga), (fa @ ga).norm)))
    cases.append(("intrinsic commutator",
                  _rel((fa @ ga).distance(ga @ fa), (fa @ ga).norm)))
    return cases


def _suite_mapping(A, tol, rng):
    cases = []
    spheres = s_spectrum(A)
    for name in ("exp", "poly:[0, 1, 0, 0.25]", "sqrt"):
        f = catalog(name)
        if name == "sqrt":
            ok = all(_cut_distance(s.representative) > 1e-3
                     for s, _ in spheres.spheres)
            if not ok:
                continue
        B = calculus_intrinsic(A, f)
        cases.append((f"spectrum of {name}", _mapping_gap(spheres, f, B)))
    return cases


def _suite_composition(A, tol, rng):
    cases = []
    f_inner = catalog("poly:[0.3, 0, 0.5]")
    g_exp = catalog("exp")
    B = calculus_intrinsic(A, f_inner)
    lhs = calculus_intrinsic(B, g_exp)
    rhs = calculus_intrinsic(A, stem_compose(g_exp, f_inner))
    cases.append(("exp o poly", _rel(lhs.distance(rhs), rhs.norm)))

    b = _rand_quaternion(rng, 0.8)
    g_mono = catalog(_mono_name("L", b, 2))
    lhs = calculus_sided(B, g_mono)
    rhs = calculus_sided(A, stem_compose(g_mono, f_inner))
    cases.append(("(b q^2) o poly", _rel(lhs.distance(rhs), rhs.norm)))
    return cases


def _suite_polynomial(A, tol, rng):
    cases = []
    spheres = s_spectrum(A)
    for trial in range(2):
        coeffs = [round(v, 3) for v in rng.uniform(-1.0, 1.0, size=4)]
        B = QMatrix.zeros(A.n)
        for k, c in enumerate(coeffs):
            B = B + float(c) * A.power(k)
        f = catalog("poly:" + json.dumps(coeffs))
        cases.append((f"real polynomial {trial}", _mapping_gap(spheres, f, B)))
    # a left coefficient i breaks the mapping: i q at q = 1 has value i,
    # yet the spectrum of i I is the whole unit sphere (0, 1)
    M = QMatrix.scalar(A.n, I)
    expected = SphereSet(((Sphere(0.0, 1.0), A.n),), 1e-10)
    got = s_spectrum(M)
    cases.append(("i q control: sphere (0,1), not the point i",
                  got.match_distance(expected)))
    return cases


def _suite_distance(A, tol, rng):
    cases = []
    top = s_spectrum(A).max_abs()
    for trial in range(3):
        alpha = (top + 0.5 + float(rng.uniform(0.0, 2.0))) * \
            (1.0 if trial % 2 == 0 else -1.0)
        geo, via = distance_to_spectrum(A, alpha)
        cases.append((f"alpha = {alpha:.3g}", _rel(abs(geo - via), geo)))
    return cases


def _suite_resolvent_series(A, tol, rng):
    cases = []
    radius = 2.0 * A.norm + 1.0
    for trial in range(2):
        u = _rand_quaternion(rng)
        s = u * (radius / abs(u))
        for side in ("L", "R"):
            direct = s_resolvent(A, s, side, "formula")
            series = s_resolvent(A, s, side, "series")
            cases.append((f"side {side}, trial {trial}",
                          _rel(direct.distance(series), direct.norm)))
    return cases


_SUITES = {
    "product": _suite_product,
    "mapping": _suite_mapping,
    "composition": _suite_composition,
    "polynomial": _suite_polynomial,
    "distance": _suite_distance,
    "resolvent_series": _suite_resolvent_series,
}


def verify_theorems(A: QMatrix, suite: str, tol: float = 1e-8) -> TheoremReport:
    """Run one named identity suite against A and report discrepancies.

    Random ingredients are drawn from a fixed seed, so reports are
    reproducible.  Every discrepancy is relative to the scale of the
    quantity it checks; the report passes when all stay within tol.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITE_NAMES}")
    rng = np.random.default_rng(_SUITE_SEED)
    cases = _SUITES[suite](A, tol, rng)
    return TheoremReport(suite, tuple(cases), tol)
