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
data and kept inside the function's domain.  A contour is held as its
upper half: the circles centred on or above the real axis, each one
above the axis standing for itself and its mirror.
"""

from __future__ import annotations

import itertools
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
    UsageError,
)
from .operators import (
    QMatrix,
    _checked_pull_back,
    _embed,
    _pencil_parts,
    _product,
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
    _cut_distance,
    _slice_values,
    catalog,
    restrict_to_slice,
    stem_compose,
    stem_product,
)
from .spectrum import (
    SphereSet,
    _checked_tol,
    _power_series,
    distance_to_spectrum,
    s_resolvent,
    s_spectral_radius,
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
EXP_SERIES_TOL = 1e-16  # relative size of the last two exponential series terms
SUITE_TOL = 1e-8  # largest discrepancy a verify suite passes with
_BATCH_ENTRIES = 1 << 16  # matrix entries per batched solve


class Circle(NamedTuple):
    center: complex
    radius: float


@dataclass(frozen=True)
class SliceContour:
    """Disjoint positively oriented circles, held as their upper half.

    The contour is closed under conjugation, so circles lists only those
    centred on or above the real axis.  A circle above the axis stands
    for itself and its mirror, so its disk must stay off the axis; a
    circle centred below the axis, or one above it whose disk reaches
    the axis, raises ValueError.
    """

    circles: tuple[Circle, ...]

    def __post_init__(self):
        for c in self.circles:
            if c.center.imag < 0.0:
                raise ValueError(
                    f"circle at {c.center} of radius {c.radius} lies below "
                    "the real axis: a contour holds its upper half")
            if 0.0 < c.center.imag <= c.radius:
                raise ValueError(
                    f"circle at {c.center} of radius {c.radius} reaches the "
                    "real axis and would overlap its mirror")

    def encloses(self, z: complex) -> bool:
        # a point below the axis lies in the mirror of a circle above it
        z = complex(z)
        z = complex(z.real, abs(z.imag))
        return any(abs(z - c.center) < c.radius for c in self.circles)


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
    """c, or if it reaches the axis, the axis circle enclosing it and its mirror."""
    if c.center.imag < c.radius + 1e-12 * (1.0 + abs(c.center) + c.radius):
        return Circle(complex(c.center.real, 0.0), c.center.imag + c.radius)
    return c


def _merge_upper(circles: list[Circle]) -> list[Circle]:
    """Disjoint circles on or above the axis covering the given ones.

    The input folds onto the axis once (_fold_to_axis).  Then each round
    replaces the first overlapping pair (i, j), i < j, by its enclosing
    circle, folded and appended last; only a merged circle can newly
    reach the axis.  Each round that does not return merges two circles
    into one, so the loop ends after at most len(circles) - 1 merges.
    """
    cs = [_fold_to_axis(c) for c in circles]
    while True:
        pair = next(((i, j) for i in range(len(cs)) for j in range(i + 1, len(cs))
                     if _overlap(cs[i], cs[j])), None)
        if pair is None:
            return cs
        merged = _fold_to_axis(_enclose(cs[pair[0]], cs[pair[1]]))
        cs = [c for t, c in enumerate(cs) if t not in pair] + [merged]


def build_contour(points, domain: AxSymDomain, margin: float) -> SliceContour:
    """Circles of the given margin around every spectral point.

    points is any complex array, such as A.chi_eigenvalues.  Each distinct
    (Re z, |Im z|), in sorted order, seeds a circle of radius margin, which
    _merge_upper folds onto the real axis when it reaches the axis and
    merges with any circle it overlaps, so every point and its conjugate
    stay at least the margin away from the final contour.  The circles come
    sorted by centre.  Disks leaving the domain raise DomainTooTight; the
    domain is symmetric, so the mirror disks need no check.
    """
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    seeds = np.sort(np.real(points) + 1j * np.abs(np.imag(points)))
    seeds = seeds[np.append(True, seeds[1:] != seeds[:-1])]  # np.unique loads numpy.ma
    circles = sorted(_merge_upper([Circle(complex(s), margin) for s in seeds]),
                     key=lambda c: (c.center.real, c.center.imag))
    for c in circles:
        if not domain.holds_disk(c.center, c.radius):
            raise DomainTooTight(
                f"margin {margin:.3g} pushes a contour disk out of the domain")
    return SliceContour(tuple(circles))


def auto_contour(points, domain: AxSymDomain) -> SliceContour:
    """Widest build_contour of 24 margins from 0.45 (1 + max |z|) down by 0.6."""
    margin = 0.45 * (1.0 + float(np.abs(points).max()))
    last = None
    for _ in range(24):
        try:
            return build_contour(points, domain, margin)
        except DomainTooTight as exc:
            last = exc
        margin *= 0.6
    raise DomainTooTight(
        "no contour margin separates the spectrum from the domain edge") from last


# -- quadrature -------------------------------------------------------------

def _with_mirrors(v: np.ndarray) -> np.ndarray:
    """Each entry of v followed by its conjugate."""
    out = np.empty(2 * v.size, dtype=complex)
    out[::2] = v
    np.conjugate(v, out=out[1::2])
    return out


def _trapezoid(contour: SliceContour, h: Callable, at_nodes: Callable,
               size: int, nodes: int = 32) -> np.ndarray:
    """(1/2pi i) integral of h(z) at_nodes(z) dz over the contour.

    Nested periodic trapezoid levels at a node count N per circle that
    doubles: the first level takes the angles k/N, each later level only
    the new odd angles (2k+1)/(2N), added to one raw sum that N divides,
    so every node is solved once.  The contour's circles are its upper
    half, and a level lays their nodes out in mirror pairs: each node of
    a circle above the axis, or of the upper half of a circle centred on
    it, is followed by its exact conjugate, which stands for the node of
    the mirror circle; the nodes at angles 0 and 1/2 of an axis circle,
    exactly real, come last.  The nodes go out in chunks of an even size,
    _BATCH_ENTRIES // size^2 rounded down but at least 2, size being the
    order of the solved matrices, so no chunk splits a pair and at_nodes
    can solve a pencil once per sphere.
    at_nodes maps a chunk to one array per node, h to one value per node
    or, with a leading axis of p, p values per node.  The convergence
    test is on the Frobenius norm of the whole sum; a level whose sum is
    not finite raises NoConvergence.
    """
    centers = np.array([c.center for c in contour.circles], dtype=complex)[:, None]
    radii = np.array([c.radius for c in contour.circles])[:, None]
    upper = centers.imag > 0.0
    chunk = max(2, _BATCH_ENTRIES // (size * size) // 2 * 2)
    count = max(4, nodes)
    angles = np.arange(count) / count
    raw, prev = 0.0, None
    while count <= NODE_CAP:
        dz = radii * np.exp(2j * np.pi * angles)
        z = centers + dz
        paired = upper | ((0.0 < angles) & (angles < 0.5))
        real = ~upper & ((angles == 0.0) | (angles == 0.5))
        # cos(0) and cos(pi) round to exactly 1 and -1
        z = np.concatenate([_with_mirrors(z[paired]), z[real].real])
        dz = np.concatenate([_with_mirrors(dz[paired]), dz[real].real])
        for lo in range(0, z.size, chunk):
            zc = z[lo:lo + chunk]
            fv = np.asarray(h(zc)) * dz[lo:lo + chunk]
            raw = raw + np.tensordot(fv, at_nodes(zc), 1)
        total = raw / count
        if not np.isfinite(total).all():
            raise NoConvergence(f"quadrature sum is not finite at {count} nodes per circle")
        if prev is not None:
            delta = float(np.linalg.norm(total - prev))
            if delta <= QUAD_REL_TOL * (1.0 + float(np.linalg.norm(total))):
                return total
        prev = total
        angles = (2 * np.arange(count) + 1) / (2 * count)
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

    Nested periodic trapezoid sums, all circles at a shared node count
    that doubles until two successive totals agree to 1e-10 relative;
    each level solves only its new nodes, all circles together in
    bounded chunks, and the cap of 2^16 nodes per circle raises
    QuadratureStalled.  h maps a node array to its values, shape
    (p, nodes) for a stack of p matrices.
    """
    M = np.asarray(M, dtype=complex)
    eye = np.eye(M.shape[0])
    return _trapezoid(
        contour, h,
        lambda z: _checked_solve(z[:, None, None] * eye - M, "the resolvent"),
        M.shape[0], nodes)


def _s_contour_value(A: QMatrix, h: Callable, contour: SliceContour) -> list[QMatrix]:
    """One (1/2pi) integral of S_L(s, A) ds_i h_m(s) per value h_m of h.

    S_L(s, A) = -Q_s(A)^-1 (A - conj(s) I).  The pencil Q_s(A) depends on
    s only through its sphere (Re s, |s|^2), so a chunk of nodes solves
    it once per distinct sphere, mirror nodes s and conj(s) sharing one
    solve: inverted on chi(Q_s(A)), pulled back with its structure
    residual checked, and multiplied by A once.  Each node then costs
    O(n^2), as S_L(s, A) = conj(s) Q_s(A)^-1 - Q_s(A)^-1 A.
    """
    def resolvents(s: np.ndarray) -> np.ndarray:
        # keys Re s + i |s|^2: bitwise equal for a node and its conjugate
        keys, sphere = np.unique(s.real + 1j * np.abs(s) ** 2,
                                 return_inverse=True)
        pencils = _pencil_parts(A, 2.0 * keys.real[:, None, None],
                                keys.imag[:, None, None])
        qx, qy = _checked_pull_back(_checked_solve(_embed(*pencils), "the pencil"))
        q_inv = np.stack([qx, qy], axis=1)
        q_inv_a = np.stack(_product(qx, qy, A.x, A.y), axis=1)
        return np.conj(s)[:, None, None, None] * q_inv[sphere] - q_inv_a[sphere]

    return [QMatrix(rx, ry)
            for rx, ry in _trapezoid(contour, h, resolvents, 2 * A.n)]


# -- the calculus ----------------------------------------------------------

def calculus_intrinsic(A: QMatrix, f: StemFunction,
                       method: str = "complex_path") -> QMatrix:
    """f(A) for intrinsic f, by either route; see calculus_sided."""
    if f.kind != INTRINSIC:
        raise NotIntrinsic(f"f is {f.kind!r}, not intrinsic: use calculus_sided")
    return calculus_sided(A, f, method=method)


def calculus_sided(A: QMatrix, f: StemFunction,
                   method: str = "complex_path") -> QMatrix:
    """f(A) for f of any kind, in one quadrature pass over all pieces.

    The contour encloses A.chi_eigenvalues, unclustered, each of which
    must lie in f's domain (else DomainTooTight).  complex_path runs the
    holomorphic calculus on chi(A) and pulls back (StructureViolation
    signals broken quadrature); s_contour integrates the left
    S-resolvent of A.  The pieces recombine with 1, i, j, k: on the left
    for a right function, else on the right.
    """
    lam = A.chi_eigenvalues
    outside = lam[~f.domain.contains(lam.real, lam.imag)]
    if outside.size:
        raise DomainTooTight(f"spectral sphere ({outside[0].real:.6g}, "
                             f"{abs(outside[0].imag):.6g}) lies outside the domain")
    contour = auto_contour(lam, f.domain)
    h = _slice_values(f)
    if method == "complex_path":
        stack = riesz_dunford(complex_adjoint(A), h, contour)
        parts = [from_complex_adjoint(B) for B in stack]
    elif method == "s_contour":
        parts = _s_contour_value(A, h, contour)
    else:
        raise ValueError(f"unknown method {method!r}")
    side = QMatrix.scalar_left if f.kind == RIGHT else QMatrix.scalar_right
    return sum(map(side, parts, (ONE, I, J, K)), QMatrix.zeros(A.n))


def op_exp(A: QMatrix) -> QMatrix:
    """Matrix exponential by the power series of B = A / 2^h, ||B|| <= 0.5.

    The sum runs to EXP_SERIES_TOL and is squared h times; a norm or a
    result that is not finite raises NoConvergence.
    """
    nrm = A.norm
    if not math.isfinite(nrm):
        raise NoConvergence(f"exponential of a matrix of norm {nrm}")
    halvings = math.ceil(math.log2(nrm / 0.5)) if nrm > 0.5 else 0
    total = _power_series(A * (0.5 ** halvings), itertools.accumulate(
        itertools.count(1), lambda c, k: c / k, initial=1.0), tol=EXP_SERIES_TOL)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(halvings):
            total = total @ total
        if not math.isfinite(total.norm):
            raise NoConvergence("exponential overflows")
    return total


def op_log(A: QMatrix) -> QMatrix:
    """Principal matrix logarithm through the intrinsic calculus.

    Raises BranchCut when any eigenvalue of chi(A), A.chi_eigenvalues,
    touches (-inf, 0] within the buffered cut; the calculus reuses them.
    """
    lam = A.chi_eigenvalues
    on_cut = lam[_cut_distance(lam.real, lam.imag) <= CUT_BUFFER * (1.0 + A.norm)]
    if on_cut.size:
        raise BranchCut(f"eigenvalue {complex(on_cut[0]):.6g} sits on the branch cut")
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
    h = restrict_to_slice(f)
    ws = [complex(h(s.representative)) for s, _ in spheres.spheres]
    image = SphereSet(tuple((Sphere(w.real, abs(w.imag)), m) for w, (_, m)
                            in zip(ws, spheres.spheres)), spheres.tol)
    return s_spectrum(B).match_distance(image) / (1.0 + image.max_abs())


def _suite_product(A, rng):
    f_exp = catalog("exp")
    g_poly = catalog("poly:[1, 0, -0.5]")
    fa = calculus_intrinsic(A, f_exp)
    ga = calculus_intrinsic(A, g_poly)

    a = _rand_quaternion(rng, 0.7)
    g_left = catalog(_mono_name("R", a, 1))
    lhs = calculus_sided(A, stem_product(f_exp, g_left))
    rhs = fa @ calculus_sided(A, g_left)
    cases = [("exp * (q a)", _rel(lhs.distance(rhs), rhs.norm))]

    b = _rand_quaternion(rng, 0.7)
    f_right = catalog(_mono_name("L", b, 2))
    lhs = calculus_sided(A, stem_product(f_right, g_poly))
    rhs = calculus_sided(A, f_right) @ ga
    cases.append(("(b q^2) * poly", _rel(lhs.distance(rhs), rhs.norm)))

    lhs = calculus_intrinsic(A, stem_product(f_exp, g_poly))
    cases.append(("exp * poly", _rel(lhs.distance(fa @ ga), (fa @ ga).norm)))
    cases.append(("intrinsic commutator",
                  _rel((fa @ ga).distance(ga @ fa), (fa @ ga).norm)))
    return cases


def _suite_mapping(A, rng):
    cases = []
    spheres = s_spectrum(A)
    for name in ("exp", "poly:[0, 1, 0, 0.25]", "sqrt"):
        f = catalog(name)
        if name == "sqrt":
            ok = all(_cut_distance(s.re, s.im_norm) > 1e-3
                     for s, _ in spheres.spheres)
            if not ok:
                continue
        B = calculus_intrinsic(A, f)
        cases.append((f"spectrum of {name}", _mapping_gap(spheres, f, B)))
    return cases


def _suite_composition(A, rng):
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


def _suite_polynomial(A, rng):
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


def _suite_distance(A, rng):
    cases = []
    top = s_spectral_radius(A)
    for trial in range(3):
        alpha = (top + 0.5 + float(rng.uniform(0.0, 2.0))) * \
            (1.0 if trial % 2 == 0 else -1.0)
        geo, via = distance_to_spectrum(A, alpha)
        cases.append((f"alpha = {alpha:.3g}", _rel(abs(geo - via), geo)))
    return cases


def _suite_resolvent_series(A, rng):
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


def verify_theorems(A: QMatrix, suite: str, tol: float = SUITE_TOL) -> TheoremReport:
    """Run one named identity suite against A and report discrepancies.

    Random ingredients are drawn from a fixed seed, so reports are
    reproducible.  Every discrepancy is relative to the scale of the
    quantity it checks; the report passes when all stay within tol, which
    must be finite and non-negative (else UsageError).
    """
    tol = _checked_tol(tol)
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick from {SUITE_NAMES}")
    rng = np.random.default_rng(_SUITE_SEED)
    cases = _SUITES[suite](A, rng)
    return TheoremReport(suite, tuple(cases), tol)
