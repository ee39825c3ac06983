"""Calculus layer: contours, both quadrature routes, exp/log/roots, suites."""

import cmath
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quatspec.calculus as qcalc
from quatspec import (
    BranchCut,
    Circle,
    DimensionMismatch,
    DomainTooTight,
    I,
    J,
    K,
    NoConvergence,
    NotIntrinsic,
    ONE,
    QMatrix,
    QuadratureStalled,
    Quaternion,
    SUITE_NAMES,
    SingularNode,
    SliceContour,
    Sphere,
    SphereSet,
    StemFunction,
    StructureViolation,
    UsageError,
    auto_contour,
    build_contour,
    calculus_intrinsic,
    calculus_sided,
    catalog,
    complex_adjoint,
    decompose,
    entire_domain,
    from_complex_adjoint,
    op_exp,
    op_log,
    op_nth_root,
    quaternion_matrix_inverse,
    restrict_to_slice,
    riesz_dunford,
    s_spectrum,
    sphere_of,
    stem_compose,
    stem_sum,
    verify_theorems,
)

from quatspec.calculus import _s_contour_value
from quatspec.operators import _pull_back
from quatspec.slicefn import CUT_BUFFER, INTRINSIC, RIGHT
from test_spectrum import _planted_jordan

from _helpers import (
    assert_matrix_close,
    assert_quat_close,
    random_qmatrix,
    rng,
    stem_values,
)


def single_sphere(re, im_norm):
    """The representative re + i im_norm of one sphere, as contour points."""
    return [complex(re, im_norm)]


def _both_halves(contour):
    """The contour's circles, then the mirrors of those above the axis."""
    return list(contour.circles) + [Circle(c.center.conjugate(), c.radius)
                                    for c in contour.circles
                                    if c.center.imag > 0.0]


# ---------------------------------------------------------------- contours

def test_contour_split_sphere():
    contour = build_contour(single_sphere(0.0, 1.0), entire_domain(), 0.3)
    got = sorted(((c.center.real, c.center.imag), c.radius)
                 for c in contour.circles)
    assert got == [((0.0, 1.0), 0.3)]


def test_contour_real_sphere():
    contour = build_contour(single_sphere(1.0, 0.0), entire_domain(), 0.2)
    assert [(c.center, c.radius) for c in contour.circles] == [(1 + 0j, 0.2)]


def test_contour_axis_merge():
    # representatives 0.1i and -0.1i sit closer than the margin, so the
    # pair collapses to one axis-centered circle
    contour = build_contour(single_sphere(0.0, 0.1), entire_domain(), 0.3)
    assert len(contour.circles) == 1
    c = contour.circles[0]
    assert c.center == 0j
    assert abs(c.radius - 0.4) < 1e-15


def test_contour_folds_a_circle_that_touches_the_axis():
    # the circle of radius 0.3 about 0.3i touches its mirror at 0
    contour = build_contour(single_sphere(0.0, 0.3), entire_domain(), 0.3)
    assert contour.circles == (Circle(0j, 0.6),)


def test_contour_rejects_nonpositive_margin():
    with pytest.raises(ValueError):
        build_contour(single_sphere(0.0, 1.0), entire_domain(), 0.0)


def test_contour_invariants_random():
    gen = rng(101)
    for _ in range(25):
        A = random_qmatrix(gen, int(gen.integers(1, 5)))
        contour = auto_contour(A.chi_eigenvalues, entire_domain())
        assert len(contour.circles) >= 1
        for c in contour.circles:
            assert c.radius > 0
            # on the axis, or above it with the disk clear of its mirror
            assert c.center.imag == 0.0 or c.center.imag > c.radius
        circles = _both_halves(contour)
        for a in range(len(circles)):
            for b in range(a + 1, len(circles)):
                d = abs(circles[a].center - circles[b].center)
                assert d > circles[a].radius + circles[b].radius, \
                    f"circles {a} and {b} intersect"
        # every eigenvalue of chi(A) and its conjugate strictly inside
        for lv in A.chi_eigenvalues:
            assert contour.encloses(lv)
            assert contour.encloses(lv.conjugate())


def test_contour_holds_its_upper_half():
    # a circle above the axis stands for its mirror too, so the mirror
    # is never listed and the disk must stay off the axis
    with pytest.raises(ValueError,
                       match=r"circle at \(1-1j\) of radius 0.4 lies below"):
        SliceContour((Circle(1 + 1j, 0.4), Circle(1 - 1j, 0.4)))
    with pytest.raises(ValueError,
                       match=r"circle at \(1\+0.5j\) of radius 0.5 reaches"):
        SliceContour((Circle(1 + 0.5j, 0.5),))
    SliceContour((Circle(1 + 0j, 0.5), Circle(1 + 1j, 0.4)))


def test_circle_has_no_orientation_argument():
    # the quadrature integrates counterclockwise only, so a clockwise
    # flag would be silently ignored
    assert Circle._fields == ("center", "radius")
    with pytest.raises(TypeError):
        Circle(1 + 0j, 0.5, -1)


def test_contour_domain_too_tight():
    # a sphere sitting on the log cut can never be enclosed
    with pytest.raises(DomainTooTight):
        auto_contour(single_sphere(-1.0, 0.0), catalog("log").domain)


def _fold(c):
    # smallest real-centered circle containing the disk and its mirror
    return Circle(complex(c.center.real, 0.0), c.center.imag + c.radius)


def _full_merge_upper(circles):
    """The merge loop of the contours that listed both halves: the reference."""
    cs = list(circles)
    for _ in range(10000):
        folded = False
        for idx, c in enumerate(cs):
            eps = 1e-12 * (1.0 + abs(c.center) + c.radius)
            if 0.0 < c.center.imag < c.radius + eps:
                cs[idx] = _fold(c)
                folded = True
        if folded:
            continue
        pair = None
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                if qcalc._overlap(cs[i], cs[j]):
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            return cs
        i, j = pair
        merged = qcalc._enclose(cs[i], cs[j])
        if (cs[i].center.imag == 0.0 or cs[j].center.imag == 0.0) \
                and merged.center.imag != 0.0:
            merged = _fold(merged)
        cs = [c for t, c in enumerate(cs) if t not in pair]
        cs.append(merged)
    raise AssertionError("reference merge did not stabilize")


def _reference_seeds(points, margin):
    """The points taken once each in the order of their real parts, then
    their heights, a real part -0.0 read as 0.0; a point within
    SEED_MERGE_TOL of the scale, or half the margin, of the last point
    taken is left out.  The points are sphere representatives, on or
    above the axis.
    """
    seeds = sorted({complex(z.real + 0.0, z.imag) for z in points},
                   key=lambda z: (z.real, z.imag))
    tol = min(qcalc.SEED_MERGE_TOL * (1.0 + max(map(abs, seeds))), 0.5 * margin)
    kept = seeds[:1]
    for z in seeds[1:]:
        if abs(z - kept[-1]) > tol:
            kept.append(z)
    return kept


def _full_build_contour(points, domain, margin):
    """Both halves of the contour, mirrors and domain checks included,
    about the _reference_seeds of the points."""
    upper = []
    for z in _reference_seeds(points, margin):
        if z.imag < margin:
            upper.append(Circle(complex(z.real, 0.0), z.imag + margin))
        else:
            upper.append(Circle(z, margin))
    circles = []
    for c in _full_merge_upper(upper):
        circles.append(c)
        if c.center.imag > 0.0:
            circles.append(Circle(c.center.conjugate(), c.radius))
    for c in circles:
        if not domain.holds_disk(c.center, c.radius):
            raise DomainTooTight("reference")
    circles.sort(key=lambda c: (c.center.real, c.center.imag))
    return circles


def _bits(build, *args):
    """The built circles as hex floats in order, or None on DomainTooTight."""
    try:
        circles = build(*args)
    except DomainTooTight:
        return None
    return [(c.center.real.hex(), c.center.imag.hex(), c.radius.hex())
            for c in circles]


CONTOUR_DOMAINS = {
    "entire": entire_domain(),
    "cut plane": catalog("log").domain,
    "punctured": catalog("pow:-1").domain,
}

_COORD = st.floats(-3.0, 3.0)
_NEAR = st.floats(-6.5, -1.0).map(lambda u: 10.0 ** u)
# sphere representatives re + i im_norm
_SPHERES = st.one_of(
    st.builds(complex, _COORD, st.just(0.0)),
    st.builds(complex, _COORD, st.floats(0.0, 1e-3)),
    st.builds(complex, _COORD, st.floats(0.0, 3.0)),
    # near the tip of the log cut and the pole of pow:-1 at 0
    st.builds(lambda r, t: complex(r * math.cos(t), r * math.sin(t)),
              _NEAR, st.floats(0.0, math.pi)),
    # near the cut, inside its buffer of 1e-6 and outside it
    st.builds(complex, st.floats(-2.0, 0.0), _NEAR),
)


@st.composite
def _sphere_sets(draw):
    points = draw(st.lists(_SPHERES, max_size=3))
    # a cluster of spheres about one centre, so circles overlap and merge
    base = draw(_SPHERES)
    offsets = st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))
    points += [complex(base.real + dx, abs(base.imag + dy))
               for dx, dy in draw(st.lists(offsets, min_size=1, max_size=4))]
    return points


def _placed_reference(points, domain):
    """The circles auto_contour places, chosen in plain loops: the reference.

    On each rung of the ladder, the reference circles (both halves) are
    tested for (a) fit: the contour builds; (b) neighbours: every seed
    or mirror of a seed z that a circle (c, r) holds neither itself
    (|z - c| >= r) nor by its mirror (|conj z - c| >= r) lies at least
    r / kappa from c; (c) edge: a circle on or above the axis holding
    exactly one seed holds its disk of radius r / kappa.  The first rung
    at or above the floor meeting all three
    is taken, else the first there meeting (a) and (b), else the first
    rung of the ladder meeting (a); None if none does.
    """
    kappa = qcalc.CLEARANCE_RATIO
    scale = 1.0 + float(np.abs(points).max())
    margin, first = 0.45 * scale, {}
    for _ in range(24):
        try:
            circles = _full_build_contour(points, domain, margin)
        except DomainTooTight:
            circles = None
        if circles is not None:
            upper = [c for c in circles if c.center.imag >= 0.0]
            first.setdefault("a", upper)
            seeds = _reference_seeds(points, margin)
            neighbours = [(c, abs(z - c.center)) for c in circles for s in seeds
                          for z in (s, s.conjugate())
                          if abs(z - c.center) >= c.radius
                          and abs(z.conjugate() - c.center) >= c.radius]
            if margin >= qcalc.MARGIN_FLOOR * scale and \
                    all(d >= c.radius / kappa for c, d in neighbours):
                first.setdefault("ab", upper)
                lone = [c for c in upper
                        if sum(abs(s - c.center) < c.radius for s in seeds) == 1]
                if all(domain.holds_disk(c.center, c.radius / kappa) for c in lone):
                    return upper
        margin *= 0.6
    return first.get("ab", first.get("a"))


@settings(max_examples=150, deadline=None)
@given(points=_sphere_sets(), domain=st.sampled_from(sorted(CONTOUR_DOMAINS)))
def test_contour_is_the_upper_half_of_the_full_reference(points, domain):
    # on every rung of the margin ladder the circles are bitwise the
    # reference's circles on or above the axis, in its order, and
    # DomainTooTight is raised exactly where the reference raises it;
    # auto_contour takes the rung the placement rule picks from them
    dom = CONTOUR_DOMAINS[domain]
    scale = 1.0 + float(np.abs(points).max())
    margin = 0.45 * scale
    for _ in range(24):
        # the reference ladder's other limit, 1e-6 of the scale, never binds
        assert margin >= 1e-6 * scale
        want = _bits(lambda *a: [c for c in _full_build_contour(*a)
                                 if c.center.imag >= 0.0], points, dom, margin)
        got = _bits(lambda *a: build_contour(*a).circles, points, dom, margin)
        assert got == want, margin
        margin *= 0.6
    placed = _placed_reference(points, dom)
    assert _bits(lambda: auto_contour(points, dom).circles) == \
        (None if placed is None else _bits(lambda: placed))


@settings(max_examples=150, deadline=None)
@given(points=_sphere_sets(), domain=st.sampled_from(sorted(CONTOUR_DOMAINS)),
       rung=st.integers(0, 23))
def test_contour_of_points_ignores_their_conjugates(points, domain, rung):
    # a point and its conjugate seed the same circle, so adding the
    # conjugates, as the eigenvalues of chi(A) come, changes no bit
    dom = CONTOUR_DOMAINS[domain]
    margin = 0.45 * (1.0 + float(np.abs(points).max())) * 0.6 ** rung
    both = points + [z.conjugate() for z in points]
    assert _bits(lambda *a: build_contour(*a).circles, both, dom, margin) == \
        _bits(lambda *a: build_contour(*a).circles, points, dom, margin)
    assert _bits(lambda *a: auto_contour(*a).circles, both, dom) == \
        _bits(lambda *a: auto_contour(*a).circles, points, dom)


def test_near_duplicate_seeds_seed_one_circle():
    # an eigenvalue and the mirror of its partner differ by roundoff: the
    # second seeds no circle, and both stay inside the first one's circle
    z = 1.0 + 0.5j
    twin = z + complex(3e-16, -2e-16)
    alone = build_contour([z], entire_domain(), 0.3)
    both = build_contour([z, twin, twin.conjugate()], entire_domain(), 0.3)
    assert both == alone == SliceContour((Circle(z, 0.3),))
    # seeds farther apart than the tolerance, or than half the margin, keep
    # their own circles
    far = z + 1e-9
    assert len(qcalc._merge_upper([Circle(z, 0.3), Circle(far, 0.3)])) == 1
    assert build_contour([z, far], entire_domain(), 0.3) != alone
    tiny = build_contour([z, z + 1e-13], entire_domain(), 1e-13)
    assert all(tiny.encloses(p) for p in (z, z + 1e-13))


@settings(max_examples=150, deadline=None)
@given(points=_sphere_sets(), domain=st.sampled_from(sorted(CONTOUR_DOMAINS)),
       rung=st.integers(0, 23))
def test_every_point_stays_inside_by_half_the_margin(points, domain, rung):
    margin = 0.45 * (1.0 + float(np.abs(points).max())) * 0.6 ** rung
    try:
        contour = build_contour(points, CONTOUR_DOMAINS[domain], margin)
    except DomainTooTight:
        return
    for z in points:
        depth = max(c.radius - abs(complex(z.real, abs(z.imag)) - c.center)
                    for c in contour.circles)
        assert depth >= 0.5 * margin


# ---------------------------------------------------------------- riesz_dunford

def test_riesz_dunford_identity_function():
    M = np.diag([1.0 + 0j, 2.0 + 0j])
    contour = build_contour([1.0, 2.0], entire_domain(), 0.3)
    out = riesz_dunford(M, lambda z: z, contour)
    assert np.max(np.abs(out - M)) < 1e-10


def test_riesz_dunford_nilpotent_exp():
    M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    contour = build_contour(single_sphere(0.0, 0.0), entire_domain(), 0.5)
    out = riesz_dunford(M, np.exp, contour)
    want = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.max(np.abs(out - want)) < 1e-10


def test_riesz_dunford_projector():
    # enclosing only the eigenvalue 1 yields the spectral projector
    M = np.diag([1.0 + 0j, 2.0 + 0j])
    contour = SliceContour((Circle(1.0 + 0j, 0.3),))
    out = riesz_dunford(M, lambda z: 1.0 + 0j, contour)
    assert np.max(np.abs(out - np.diag([1.0, 0.0]))) < 1e-10


# Both routes on a hand-built contour: riesz_dunford on chi(A), and the
# s-contour sum of left S-resolvents on A itself, which takes one
# sequence of values per node.
ROUTES = {
    "complex_path": lambda A, h, contour: riesz_dunford(complex_adjoint(A),
                                                        h, contour),
    "s_contour": lambda A, h, contour: _s_contour_value(
        A, lambda z: (h(z),), contour)[0],
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_riesz_dunford_singular_node(route):
    # the node 1.5 - 0.5 of the first circle sits on the sphere of 1
    A = QMatrix.diag([1.0, 2.0])
    contour = SliceContour((Circle(1.5 + 0j, 0.5), Circle(2.5 + 0j, 0.4)))
    with pytest.raises(SingularNode):
        ROUTES[route](A, lambda z: z, contour)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_riesz_dunford_stalls_on_near_pole(route):
    A = QMatrix.zeros(1)
    contour = SliceContour((Circle(0j, 1.0),))
    pole = 1.0 + 1e-12
    with pytest.raises(QuadratureStalled):
        ROUTES[route](A, lambda z: 1.0 / (z - pole), contour)


def test_riesz_dunford_refuses_a_first_pass_of_six_nodes():
    contour = SliceContour((Circle(0j, 1.0),))
    with pytest.raises(ValueError, match="multiple of 4"):
        riesz_dunford(np.eye(2), np.exp, contour, nodes=6)


def test_an_inverse_past_the_node_bound_is_a_singular_node():
    # LAPACK inverts 1e-15, but 1e15 passes the bound of 1e14 on the inverse
    with pytest.raises(SingularNode, match="blew up"):
        qcalc._checked_solve(np.array([[[1e-15]]], dtype=complex), "the resolvent")


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
def test_riesz_dunford_refuses_a_matrix_that_is_not_square(shape):
    contour = SliceContour((Circle(0j, 1.0),))
    with pytest.raises(DimensionMismatch, match="square"):
        riesz_dunford(np.ones(shape), np.exp, contour)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("built", [False, True])
def test_an_empty_contour_is_refused_before_any_solve(monkeypatch, route, built):
    # build_contour about no points returns the empty contour
    contour = build_contour([], entire_domain(), 0.3) if built else SliceContour(())
    assert contour.circles == ()
    stacks = _record_quadrature(monkeypatch)
    with pytest.raises(ValueError, match="no circle"):
        ROUTES[route](QMatrix.diag([1.0, 2.0]), np.exp, contour)
    assert stacks == []


@pytest.mark.parametrize("points", [np.array([], complex), []])
def test_auto_contour_refuses_an_empty_point_set(points):
    with pytest.raises(ValueError, match="at least one point"):
        auto_contour(points, entire_domain())


def test_riesz_dunford_node_count_independent():
    gen = rng(107)
    M = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    contour = auto_contour(random_qmatrix(gen, 1).chi_eigenvalues, entire_domain())
    contour = SliceContour((Circle(0j, float(np.linalg.norm(M)) + 1.0),))
    coarse = riesz_dunford(M, np.exp, contour, nodes=8)
    fine = riesz_dunford(M, np.exp, contour, nodes=64)
    diff = np.linalg.norm(coarse - fine)
    assert diff <= 1e-9 * (1 + np.linalg.norm(fine))


def test_riesz_dunford_margin_independent():
    A = QMatrix.diag([I, 2.0 * J])
    M = complex_adjoint(A)
    h = restrict_to_slice(catalog("exp"))
    lam = A.chi_eigenvalues
    results = [riesz_dunford(M, h, build_contour(lam, entire_domain(), m))
               for m in (0.1, 0.2, 0.3, 0.5)]
    for other in results[1:]:
        diff = np.linalg.norm(other - results[0])
        assert diff <= 1e-9 * (1 + np.linalg.norm(results[0]))


# ---------------------------------------------------------------- nested trapezoid

def _resolving_trapezoid(contour, h, at_nodes, nodes=32):
    """The re-solving trapezoid the nested one replaced: the reference.

    Every level recomputes all of its nodes, one circle per h and
    at_nodes call.
    """
    prev = None
    count = max(4, nodes)
    while count <= qcalc.NODE_CAP:
        rot = np.exp(2j * np.pi * np.arange(count) / count)
        total = 0.0
        for circ in _both_halves(contour):
            z = circ.center + circ.radius * rot
            fv = np.asarray(h(z)) * (circ.radius * rot / count)
            total = total + np.tensordot(fv, at_nodes(z), 1)
        if prev is not None:
            delta = float(np.linalg.norm(total - prev))
            if delta <= qcalc.QUAD_REL_TOL * (1.0 + float(np.linalg.norm(total))):
                return total
        prev = total
        count *= 2
    raise QuadratureStalled("reference stalled")


def _triangular(values, seed):
    """Upper triangular A whose spheres are those of the diagonal values."""
    gen = rng(seed)
    n = len(values)
    upper = np.triu(np.ones((n, n)), 1)
    comps = [c + 0.3 * upper * gen.standard_normal((n, n))
             for c in QMatrix.diag(values).components()]
    return QMatrix.from_components(*comps)


# circle count -> diagonal values and contour margin; the merged circles
# of three spheres in a row take three doubling levels
CONTOUR_CASES = {
    1: ([Quaternion(1.0), Quaternion(1.5), Quaternion(2.0)], 0.3),
    2: ([Quaternion(1.0), Quaternion(3.0)], 0.4),
    5: ([Quaternion(1.0), Quaternion(2.0, 0.0, 0.8), Quaternion(-1.0, 1.5),
         Quaternion(-1.5, 0.0, 1.5), Quaternion(-2.0, 0.0, 0.0, 1.5)], 0.3),
}

# each h as the complex path takes it, then as the s-contour path does,
# which wants a sequence of values per node
H_CASES = {
    "scalar": (np.exp, lambda z: (np.exp(z),)),
    "sequence": (lambda z: (np.exp(z), z * z, 1.0 / (z - 6.0)),) * 2,
}


def _contour_case(circles):
    values, margin = CONTOUR_CASES[circles]
    points = [sphere_of(q).representative for q in values]
    contour = build_contour(points, entire_domain(), margin)
    assert len(_both_halves(contour)) == circles
    return _triangular(values, 229 + circles), contour


def _route_sum(route, A, h, contour):
    if route == "complex_path":
        return riesz_dunford(complex_adjoint(A), h, contour)
    return np.array([M.components() for M in _s_contour_value(A, h, contour)])


@pytest.mark.parametrize("route", ["complex_path", "s_contour"])
@pytest.mark.parametrize("h_case", sorted(H_CASES))
@pytest.mark.parametrize("circles", sorted(CONTOUR_CASES))
def test_nested_trapezoid_matches_resolving_reference(monkeypatch, route,
                                                      h_case, circles):
    A, contour = _contour_case(circles)
    h = H_CASES[h_case][route == "s_contour"]
    got = _route_sum(route, A, h, contour)
    monkeypatch.setattr(
        qcalc, "_trapezoid",
        lambda contour, h, at_nodes, size, nodes=32:
            _resolving_trapezoid(contour, h, at_nodes, nodes))
    want = _route_sum(route, A, h, contour)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _record_quadrature(monkeypatch):
    """Stack lengths of every _checked_solve call, in call order."""
    stacks = []

    def solve(stack, what):
        stacks.append(len(stack))
        return checked_solve(stack, what)

    checked_solve = qcalc._checked_solve
    monkeypatch.setattr(qcalc, "_checked_solve", solve)
    return stacks


def _recording_h(route, seen):
    h = H_CASES["scalar"][route == "s_contour"]

    def recorded(z):
        seen.append(np.array(z))
        return h(z)
    return recorded


def _final_node_count(contour, z):
    """N such that z holds every node of the N-point rule once, else fail."""
    circles = _both_halves(contour)
    count, rest = divmod(len(z), len(circles))
    assert rest == 0 and count >= 32 and count % 32 == 0
    assert (count // 32) & (count // 32 - 1) == 0, count
    gap = [np.abs(np.abs(z - c.center) - c.radius) for c in circles]
    owner = np.argmin(gap, axis=0)
    for idx, c in enumerate(circles):
        on = z[owner == idx]
        assert np.abs(np.abs(on - c.center) - c.radius).max() < 1e-12
        t = np.angle((on - c.center) / c.radius) * count / (2.0 * np.pi)
        assert np.abs(t - np.rint(t)).max() < 1e-6
        assert sorted(np.rint(t).astype(int) % count) == list(range(count))
    return count


def _solves(route, contour, count):
    """Systems a route solves for the count-point rule on the contour.

    The complex path solves every node; the s-contour path solves one
    pencil per sphere, which a node shares with its conjugate: N per
    circle above the axis and N/2 + 1 per real-centred circle.
    """
    if route == "complex_path":
        return len(_both_halves(contour)) * count
    axis = sum(c.center.imag == 0.0 for c in contour.circles)
    return (len(contour.circles) - axis) * count + axis * (count // 2 + 1)


def _spheres(z):
    """Distinct spheres (Re z, |z|^2) among the nodes, compared bitwise."""
    return len(set(zip(z.real, np.abs(z) ** 2)))


@pytest.mark.parametrize("route", ["complex_path", "s_contour"])
@pytest.mark.parametrize("circles", sorted(CONTOUR_CASES))
def test_nested_trapezoid_solves_each_node_once(monkeypatch, route, circles):
    A, contour = _contour_case(circles)
    stacks, seen = _record_quadrature(monkeypatch), []
    _route_sum(route, A, _recording_h(route, seen), contour)
    z = np.concatenate(seen)
    count = _final_node_count(contour, z)
    # the solved systems are the final rule's nodes, or for s_contour its
    # distinct spheres, each solved once
    assert sum(stacks) == _solves(route, contour, count)
    if route == "s_contour":
        assert sum(stacks) == _spheres(z)
    # at n <= 8 a level's new nodes on all circles fit one batch
    size = 2 * A.n
    assert (len(_both_halves(contour)) * count // 2
            <= qcalc._BATCH_ENTRIES // size**2)
    levels = int(math.log2(count // 32)) + 1
    assert len(stacks) == levels
    assert stacks[0] == _solves(route, contour, 32)


@pytest.mark.parametrize("route", ["complex_path", "s_contour"])
def test_nested_trapezoid_batches_stay_bounded_at_n64(monkeypatch, route):
    n = 64
    A = random_qmatrix(rng(233), n, scale=0.02)
    contour = SliceContour((Circle(0j, 1.0), Circle(3.0 + 2.0j, 0.5)))
    stacks, seen = _record_quadrature(monkeypatch), []
    _route_sum(route, A, _recording_h(route, seen), contour)
    z = np.concatenate(seen)
    count = _final_node_count(contour, z)
    assert sum(stacks) == _solves(route, contour, count)
    bound = qcalc._BATCH_ENTRIES // (2 * n) ** 2
    if route == "complex_path":
        assert max(stacks) == bound
    else:
        assert sum(stacks) == _spheres(z)
        assert max(stacks) <= bound


def test_mirror_pairs_share_a_chunk_at_an_odd_bound(monkeypatch):
    # at n = 48 the bound is 7 nodes; chunks of 6 keep each pair together
    n = 48
    assert qcalc._BATCH_ENTRIES // (2 * n) ** 2 == 7
    A = random_qmatrix(rng(239), n, scale=0.02)
    contour = SliceContour((Circle(0j, 1.0),))
    stacks, seen = _record_quadrature(monkeypatch), []
    _route_sum("s_contour", A, _recording_h("s_contour", seen), contour)
    z = np.concatenate(seen)
    count = _final_node_count(contour, z)
    assert sum(stacks) == _solves("s_contour", contour, count) == _spheres(z)
    assert max(stacks) == 3


def _monomial_case(powers, above):
    """The sum of (z - c)^m over the powers, on one circle (c, r).

    Its N-node rule has a closed form: (z - c)^m contributes r^(m+1) when
    N divides m + 1, else 0.  Below the axis h reads z - conj(c), so on a
    circle above it the mirror circle adds the same sum.
    """
    c, r = (0.25 + 2.0j if above else 0.25 + 0j), 0.5

    def h(z):
        w = np.where(z.imag < 0.0, z - np.conj(c), z - c)
        return sum(w ** p for p in powers)
    return SliceContour((Circle(c, r),)), h, r


# (powers m, circle above the axis) -> the sum returned and the nodes h
# sees: the first pass of 32 nodes per circle reads T_8, T_16 and T_32,
# and a second pass adds the 32 odd nodes of T_64
ALIASING_CASES = {
    "m=15": (((15,), False), lambda r: r ** 16, 32),
    "m=7": (((7,), False), lambda r: 0.0, 32),
    "m=7+15": (((7, 15), False), lambda r: 0.0, 64),
    "m=15 with mirror": (((15,), True), lambda r: 2.0 * r ** 16, 64),
}


@pytest.mark.parametrize("case", sorted(ALIASING_CASES))
def test_trapezoid_returns_the_rule_the_stop_tests_pick(case):
    # m = 15: T_8 = T_16 = r^16 agree, so T_16 returns before T_32 = 0;
    # m = 7: T_8 = r^8, then T_16 = T_32 = 0 agree; m = 7 + 15: T_8, T_16
    # and T_32 all differ and the rate rule does not hold, so T_64 = 0
    # returns after a second pass; above the axis the mirror doubles r^16
    (powers, above), want, seen_nodes = ALIASING_CASES[case]
    contour, h, r = _monomial_case(powers, above)
    seen = []

    def recorded(z):
        seen.append(z.size)
        return h(z)

    got = qcalc._trapezoid(contour, recorded, lambda z: np.ones((z.size, 1)), 1)
    assert got.shape == (1,)
    assert abs(got[0] - want(r)) <= 1e-14
    assert sum(seen) == seen_nodes


# ---------------------------------------------------------------- stop rule

def _deep_trapezoid(contour, h, at_nodes, size, nodes=32):
    """The quadrature run on past any stop rule: the reference for it.

    Nested levels over both halves of the contour, from 32 nodes per
    circle, until two successive changes are each at most 1e-11 of
    1 + ||T||, a tenth of the tested tolerance: small circles about a
    non-normal spectrum leave a roundoff floor of 1e-12 and more (near
    1e-10 on the s-contour route), which an average over more nodes
    lowers only slowly.  At NODE_CAP nodes per circle one such change
    will do; a larger one fails the test.
    """
    circles = _both_halves(contour)
    count, angles = 32, np.arange(32) / 32
    raw, total, changes = 0.0, None, [np.inf]
    while count <= qcalc.NODE_CAP:
        rot = np.exp(2j * np.pi * angles)
        for c in circles:
            for part in np.array_split(rot, -(-rot.size // 256)):
                z = c.center + c.radius * part
                fv = np.asarray(h(z)) * (c.radius * part)
                raw = raw + np.tensordot(fv, at_nodes(z), 1)
        prev, total = total, raw / count
        if prev is not None:
            changes.append(np.linalg.norm(total - prev) / (1.0 + np.linalg.norm(total)))
            if max(changes[-2:]) <= 1e-11:
                return total
        angles = (2 * np.arange(count) + 1) / (2 * count)
        count *= 2
    assert changes[-1] <= 1e-11, f"the deep reference did not settle: {changes}"
    return total


def _planted(gen, values):
    """S T S^-1, T upper triangular in the complex slice with the values on its diagonal."""
    n = len(values)
    T = np.diag(values) + 0.3 * np.triu(gen.standard_normal((n, n))
                                        + 1j * gen.standard_normal((n, n)), 1)
    zero = np.zeros((n, n))
    S = random_qmatrix(gen, n) + QMatrix.identity(n) * 3.0
    return S @ QMatrix.from_components(T.real, T.imag, zero, zero) @ \
        quaternion_matrix_inverse(S)


def _slice_point(gen, radius=(0.3, 2.0), angle=(0.0, 0.9 * math.pi)):
    return cmath.rect(gen.uniform(*radius), gen.uniform(*angle))


def _planted_draw(gen, shape):
    """Planted A with n <= 6 drawn from gen: generic, one eigenvalue near
    the log cut, or a Jordan block."""
    if shape == "jordan":
        lam = _slice_point(gen, (0.5, 1.5), (0.2, 0.8 * math.pi))
        return _planted_jordan(gen, int(gen.integers(2, 5)), lam)
    values = [_slice_point(gen) for _ in range(int(gen.integers(1, 7)))]
    if shape == "near cut":
        values[0] = complex(-gen.uniform(0.3, 1.5), 10.0 ** gen.uniform(-3.0, -1.0))
    return _planted(gen, values)


@st.composite
def _planted_matrices(draw):
    shape = draw(st.sampled_from(["generic", "near cut", "jordan"]))
    return _planted_draw(rng(draw(st.integers(0, 2**32 - 1))), shape)


STOP_RULE_FNS = ("exp", "log", "sqrt", "pow:-1", "ratpoly:[1.0, 0.5]/[14.0, 0.0, 1.0]")


# derandomized, so a run is reproducible: about one random draw in a few
# thousand meets a miss of the rate rule, pinned by the xfail test below
@settings(max_examples=40, deadline=None, derandomize=True)
@given(A=_planted_matrices(), name=st.sampled_from(STOP_RULE_FNS),
       method=st.sampled_from(["complex_path", "s_contour"]))
def test_stop_rule_is_within_tolerance_of_a_deep_reference(A, name, method):
    f = catalog(name)
    try:
        got = calculus_sided(A, f, method=method)
    except QuadratureStalled:
        # a widest-margin circle can pass within 1e-4 of a branch point or
        # pole, too close for any rule below NODE_CAP; the node count test
        # below shows that the one-delta rule stalls there too
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcalc, "_trapezoid", _deep_trapezoid)
        want = calculus_sided(A, f, method=method)
    assert got.distance(want) <= qcalc.QUAD_REL_TOL * (1.0 + want.norm)


@settings(max_examples=40, deadline=None)
@given(A=_planted_matrices(), name=st.sampled_from(STOP_RULE_FNS),
       method=st.sampled_from(["complex_path", "s_contour"]))
def test_stop_rule_solves_no_more_nodes_than_the_resolving_rule(A, name, method):
    # the nodes of the final level of the re-solving rule from 32 nodes
    # per circle are those the one-delta nested rule solved
    trapezoid, counts = qcalc._trapezoid, []

    def both(contour, h, at_nodes, size, nodes=32):
        new, old = [], []

        def recorded(log):
            def at(z):
                log.append(len(z))
                return at_nodes(z)
            return at

        try:
            got = trapezoid(contour, h, recorded(new), size, nodes)
        except QuadratureStalled:
            with pytest.raises(QuadratureStalled):
                _resolving_trapezoid(contour, h, at_nodes)
            raise
        _resolving_trapezoid(contour, h, recorded(old))
        counts.append((sum(new), max(old) * len(_both_halves(contour))))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcalc, "_trapezoid", both)
        try:
            calculus_sided(A, catalog(name), method=method)
        except QuadratureStalled:
            return
    assert counts and all(new <= old for new, old in counts), counts


def _jordan_by_a_branch_point():
    # a 4 x 4 Jordan block at 0.60 + 0.22i: the sqrt contour is one axis
    # circle of radius 0.485 that passes 0.118 from the branch point
    gen = rng(295)
    lam = _slice_point(gen, (0.5, 1.5), (0.2, 0.8 * math.pi))
    return _planted_jordan(gen, 4, lam)


def _five_about_the_cut():
    # one eigenvalue about 2e-3 above the cut: every circle has radius 1e-3,
    # and the s-contour sum carries roundoff near 1e-10 relative
    gen = rng(4)
    values = [_slice_point(gen) for _ in range(5)]
    values[0] = complex(-gen.uniform(0.3, 1.5), 10.0 ** gen.uniform(-3.0, -2.5))
    return _planted(gen, values)


@pytest.mark.xfail(strict=True, reason="the rate rule assumes one decay rate: "
                   "it accepts a level before a slower term, or the roundoff "
                   "that more levels would average, shows in the changes")
@pytest.mark.parametrize("plant, name, method", [
    (_jordan_by_a_branch_point, "sqrt", "complex_path"),
    (_jordan_by_a_branch_point, "sqrt", "s_contour"),
    (_five_about_the_cut, "log", "s_contour"),
], ids=["jordan-sqrt-complex_path", "jordan-sqrt-s_contour", "near-cut-log-s_contour"])
def test_stop_rule_misses_where_the_decay_rate_changes(plant, name, method):
    # the one-delta rule meets the tolerance on these; the rate rule
    # returns errors of 10, 10 and 1.6 times it
    _assert_matches_the_deep_reference(plant(), catalog(name), method)


def _assert_matches_the_deep_reference(A, f, method):
    got = calculus_sided(A, f, method=method)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcalc, "_trapezoid", _deep_trapezoid)
        want = calculus_sided(A, f, method=method)
    assert got.distance(want) <= qcalc.QUAD_REL_TOL * (1.0 + want.norm)


@pytest.mark.parametrize("seed, n, method", [(21885, 2, "s_contour"),
                                             (52200, 6, "complex_path")])
def test_placed_circles_answer_where_the_widest_margin_stalled(seed, n, method):
    # near-cut draws whose widest fitting margin left an axis circle 3.7e-6
    # and 4.6e-5 from the pole of pow:-1 at 0, where the quadrature ran to
    # NODE_CAP and raised QuadratureStalled
    A = _planted_draw(rng(seed), "near cut")
    assert A.n == n
    _assert_matches_the_deep_reference(A, catalog("pow:-1"), method)


@pytest.mark.xfail(strict=True, raises=QuadratureStalled,
                   reason="a circle about a cluster of seeds is exempt from the edge "
                   "test: the one circle about this Jordan pair passes 3.7e-4 from "
                   "the pole of pow:-1 at 0")
def test_a_cluster_circle_by_a_pole_stalls():
    # a 2 x 2 Jordan block at 0.0012 + 0.819i: the top rung's circle of
    # radius 0.8185 holds both seeds of the defective pair
    _assert_matches_the_deep_reference(_planted_draw(rng(51391), "jordan"),
                                       catalog("pow:-1"), "complex_path")


def _grid_plant():
    # n = 8 eigenvalues on the polar grid of the benchmark's calculus plants:
    # radii evenly through [0.6, 1.5], angles by the golden ratio through
    # [-0.6 pi, 0.6 pi], so every point is at least 0.5 from the log cut
    values = [cmath.rect(0.6 + 0.9 * (k + 0.5) / 8,
                         -0.6 * math.pi + 1.2 * math.pi * ((k * 0.6180339887) % 1.0))
              for k in range(8)]
    return _planted(rng(227), values)


@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
@pytest.mark.parametrize("name", ["log", "sqrt"])
def test_placed_circles_keep_the_node_budget(name, method):
    # eight circles clear of each other and of the cut converge in the
    # first pass of 32 nodes per circle and its mirror; the widest fitting
    # margin took seven circles at 64 nodes, 832 nodes in all
    A = _grid_plant()
    trapezoid, solved = qcalc._trapezoid, []

    def counted(contour, h, at_nodes, size, nodes=32):
        def at(z):
            solved.append(len(z))
            return at_nodes(z)
        return trapezoid(contour, h, at, size, nodes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcalc, "_trapezoid", counted)
        calculus_sided(A, catalog(name), method=method)
    assert sum(solved) <= 512, solved


def _per_node_s_contour_value(A, h, contour):
    """The s-contour sum that solved one pencil per node: the reference."""
    sq = A.squared
    eye = np.eye(A.n)

    def resolvents(s):
        two_re = 2.0 * s.real[:, None, None]
        px = sq.x - two_re * A.x + (np.abs(s) ** 2)[:, None, None] * eye
        py = sq.y - two_re * A.y
        inv = qcalc._checked_solve(qcalc._embed(px, py), "the pencil")
        qx, qy, resid = _pull_back(inv)
        assert np.all(resid <= 1e-8 * (1.0 + np.linalg.norm(inv, axis=(-2, -1))))
        bx = A.x - np.conj(s)[:, None, None] * eye
        return -np.stack([qx @ bx - np.conj(qy) @ A.y,
                          qy @ bx + np.conj(qx) @ A.y], axis=1)

    return [QMatrix(rx, ry)
            for rx, ry in qcalc._trapezoid(contour, h, resolvents, 2 * A.n)]


@pytest.mark.parametrize("h_case", sorted(H_CASES))
@pytest.mark.parametrize("circles", sorted(CONTOUR_CASES))
def test_sphere_solves_match_per_node_resolvents(h_case, circles):
    A, contour = _contour_case(circles)
    h = H_CASES[h_case][1]
    got = np.array([M.components() for M in _s_contour_value(A, h, contour)])
    want = np.array([M.components()
                     for M in _per_node_s_contour_value(A, h, contour)])
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_mirror_nodes_share_bitwise_pencils(monkeypatch):
    A, contour = _contour_case(5)
    axis = [c for c in contour.circles if c.center.imag == 0.0]
    assert axis and len(axis) < len(contour.circles)
    pencils, seen = [], []

    def solve(stack, what):
        pencils.extend(p.tobytes() for p in stack)
        return checked_solve(stack, what)

    checked_solve = qcalc._checked_solve
    monkeypatch.setattr(qcalc, "_checked_solve", solve)
    _route_sum("s_contour", A, _recording_h("s_contour", seen), contour)
    z = np.concatenate(seen)
    # every node's exact conjugate is a node, unless the node is real
    nodes = set(z.tolist())
    assert all(v.imag == 0.0 or v.conjugate() in nodes for v in nodes)
    # the angle 0 and 1/2 nodes of real-centred circles are exactly real
    for c in axis:
        for end in (c.center.real + c.radius, c.center.real - c.radius):
            near = z[np.abs(z - end) < 1e-9 * (1.0 + abs(end))]
            assert near.tolist() == [complex(end, 0.0)]
    # the pencil built per node as the per-node route built it, at s and
    # at conj(s), is bitwise one of the solved pencils, each solved once
    sq = A.squared

    def pencil(s):
        s = np.array([s])
        two_re = 2.0 * s.real[:, None, None]
        px = sq.x - two_re * A.x + (np.abs(s) ** 2)[:, None, None] * np.eye(A.n)
        return qcalc._embed(px, sq.y - two_re * A.y)[0].tobytes()

    per_node = {v: pencil(v) for v in nodes}
    assert all(per_node[v] == per_node[v.conjugate()]
               for v in nodes if v.imag != 0.0)
    assert len(pencils) == len(set(pencils)) == len(set(per_node.values()))
    assert set(pencils) == set(per_node.values())


# ---------------------------------------------------------------- calculus

@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
def test_calculus_identity_reproduces_matrix(method):
    gen = rng(109)
    f = catalog("poly:[0, 1]")
    for _ in range(5):
        A = random_qmatrix(gen, int(gen.integers(1, 4)))
        assert_matrix_close(calculus_intrinsic(A, f, method), A, 1e-8)


@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
def test_calculus_exp_quarter_turn(method):
    A = QMatrix.from_entries([[Quaternion(0.0, math.pi / 2.0)]])
    out = calculus_intrinsic(A, catalog("exp"), method)
    assert_quat_close(out.entry(0, 0), I, 1e-10)


@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
def test_calculus_polynomial_annihilates(method):
    out = calculus_intrinsic(QMatrix.from_entries([[J]]),
                             catalog("poly:[1, 0, 1]"), method)
    assert out.norm < 1e-10


def test_calculus_rejects_sided_function():
    with pytest.raises(NotIntrinsic):
        calculus_intrinsic(QMatrix.identity(1), catalog("monoL:[[0,1,0,0],1]"))


def test_calculus_domain_too_tight():
    with pytest.raises(DomainTooTight):
        calculus_intrinsic(QMatrix.from_entries([[Quaternion(-1.0)]]),
                           catalog("log"))


def test_calculus_routes_agree():
    gen = rng(113)
    for name in ("exp", "poly:[1, -2, 0, 1]", "ratpoly:[1, 0, 1]/[4, 1]"):
        f = catalog(name)
        for _ in range(4):
            A = random_qmatrix(gen, int(gen.integers(1, 4)), scale=0.8)
            if not all(f.domain.contains(s.re, s.im_norm)
                       for s, _ in s_spectrum(A).spheres):
                continue
            one = calculus_intrinsic(A, f, "complex_path")
            two = calculus_intrinsic(A, f, "s_contour")
            diff = (one - two).norm
            assert diff <= 1e-8 * (1 + one.norm), f"{name}: {diff:.3e}"


def test_structure_violation_for_non_intrinsic_h():
    # h(z) = i z is holomorphic but not real on the reals, so the
    # complex-path result falls outside the embedded algebra
    gen = rng(127)
    A = random_qmatrix(gen, 2)
    contour = auto_contour(A.chi_eigenvalues, entire_domain())
    raw = riesz_dunford(complex_adjoint(A), lambda z: 1j * z, contour)
    with pytest.raises(StructureViolation):
        from_complex_adjoint(raw)


@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
def test_both_routes_check_the_pulled_back_structure(monkeypatch, method):
    # a solve that leaves the embedded algebra is caught by the one
    # structure check: on the summed resolvents of the complex path and
    # on the pencil inverses of the s-contour path
    solve = qcalc._checked_solve

    def unstructured(stack, what):
        inv = solve(stack, what).copy()
        inv[..., 0, 0] *= 2.0
        return inv

    monkeypatch.setattr(qcalc, "_checked_solve", unstructured)
    A = random_qmatrix(rng(129), 2)
    with pytest.raises(StructureViolation, match="structure residual"):
        calculus_sided(A, catalog("exp"), method=method)


def test_structure_residual_small_for_intrinsic():
    gen = rng(131)
    from quatspec import adjoint_structure_residual
    A = random_qmatrix(gen, 3)
    contour = auto_contour(A.chi_eigenvalues, entire_domain())
    raw = riesz_dunford(complex_adjoint(A), np.exp, contour)
    assert adjoint_structure_residual(raw) < 1e-9 * (1 + np.linalg.norm(raw))


def test_intrinsic_values_commute():
    gen = rng(137)
    f = catalog("exp")
    g = catalog("poly:[0.5, 0, 1]")
    for _ in range(5):
        A = random_qmatrix(gen, 2)
        fa = calculus_intrinsic(A, f)
        ga = calculus_intrinsic(A, g)
        diff = (fa @ ga - ga @ fa).norm
        assert diff <= 1e-10 * (1 + (fa @ ga).norm)


# ---------------------------------------------------------------- sided

def test_sided_intrinsic_consistency():
    gen = rng(139)
    A = random_qmatrix(gen, 2)
    by_sided = calculus_sided(A, catalog("exp"))
    by_intrinsic = calculus_intrinsic(A, catalog("exp"))
    assert_matrix_close(by_sided, by_intrinsic, 1e-12)


def test_sided_right_monomial():
    f = catalog("monoL:[[0,1,0,0],1]")  # q -> i q, a right slice function
    out = calculus_sided(QMatrix.from_entries([[J]]), f)
    assert_quat_close(out.entry(0, 0), K, 1e-10)


def test_sided_left_monomial():
    f = catalog("monoR:[[0,1,0,0],1]")  # q -> q i, a left slice function
    out = calculus_sided(QMatrix.from_entries([[J]]), f)
    assert_quat_close(out.entry(0, 0), -K, 1e-10)


def test_sided_quaternion_coefficient_polynomial():
    # a q^2 + b q + c with quaternion coefficients on the left, evaluated
    # against honest per-entry arithmetic on a normal matrix
    a = Quaternion(0.3, -1.0, 0.5, 2.0)
    b = Quaternion(0.0, 0.0, 1.0, 0.0)
    c = Quaternion(-0.7, 0.2, 0.0, 0.4)
    f = stem_sum(
        stem_sum(catalog("monoL:[[0.3,-1,0.5,2],2]"),
                 catalog("monoL:[[0,0,1,0],1]")),
        catalog("monoL:[[-0.7,0.2,0,0.4],0]"))
    q = Quaternion(0.4, 0.6, -0.2, 0.1)
    A = QMatrix.from_entries([[q]])
    out = calculus_sided(A, f)
    want = a * q * q + b * q + c
    assert_quat_close(out.entry(0, 0), want, 1e-8 * (1 + abs(want)))


def _four_pass_sided(A, f, method):
    """The four-pass definition: one intrinsic calculus per decompose piece."""
    total = QMatrix.zeros(A.n)
    for unit, piece in zip((ONE, I, J, K), decompose(f)):
        val = calculus_intrinsic(A, piece, method)
        total = total + (val.scalar_left(unit) if f.kind == RIGHT
                         else val.scalar_right(unit))
    return total


SIDED_NAMES = {
    "monoL": "monoL:[[0.5, -1, 2, 0.25], 3]",
    "monoR": "monoR:[[-0.7, 0.2, 0, 0.4], 2]",
}


def _sided(name):
    if name in SIDED_NAMES:
        return catalog(SIDED_NAMES[name])
    # a right polynomial with quaternion coefficients
    return stem_sum(stem_sum(catalog("monoL:[[0.3, -1, 0.5, 2], 2]"),
                             catalog("monoL:[[0, 0, 1, 0], 1]")),
                    catalog("monoL:[[-0.7, 0.2, 0, 0.4], 0]"))


@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
@pytest.mark.parametrize("name", ["monoL", "monoR", "sum"])
def test_sided_one_pass_matches_four_passes(name, method):
    gen = rng(179)
    f = _sided(name)
    for n in (1, 2, 3):
        A = random_qmatrix(gen, n, scale=0.7)
        got = calculus_sided(A, f, method=method)
        want = _four_pass_sided(A, f, method)
        assert got.distance(want) <= 1e-10 * want.norm, name


@pytest.mark.parametrize("name", ["monoL", "monoR", "sum"])
def test_sided_routes_agree(name):
    gen = rng(181)
    f = _sided(name)
    for n in (1, 2, 3):
        A = random_qmatrix(gen, n, scale=0.7)
        one = calculus_sided(A, f, method="complex_path")
        two = calculus_sided(A, f, method="s_contour")
        assert one.distance(two) <= 1e-8 * (1 + one.norm), name


@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
def test_sided_call_makes_one_pass(monkeypatch, method):
    calls = Counter()

    def counted(name, fn, weight=lambda *args: 1):
        def wrapper(*args, **kwargs):
            calls[name] += weight(*args)
            calls[name + " calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qcalc, "s_spectrum", counted("spectrum", qcalc.s_spectrum))
    monkeypatch.setattr(qcalc, "auto_contour",
                        counted("contour", qcalc.auto_contour))
    monkeypatch.setattr(qcalc, "_checked_solve",
                        counted("nodes", qcalc._checked_solve,
                                lambda stack, what: len(stack)))
    f = catalog(SIDED_NAMES["monoL"])
    pair = counted("spheres", f.pair, lambda a, b: len(set(zip(
        *(np.ravel(v) for v in np.broadcast_arrays(a, b))))))
    f = StemFunction(counted("pair", pair,
                             lambda a, b: np.broadcast(a, b).size),
                     f.domain, f.kind, f.label)
    calculus_sided(random_qmatrix(rng(191), 3, scale=0.7), f, method=method)
    # the contour reads the eigenvalues of chi(A): no sphere is clustered
    assert calls["spectrum"] == 0
    assert calls["contour"] == 1
    assert calls["nodes"] > 0
    # one stem read per node, in one pair call per batch of solves
    assert calls["pair calls"] == calls["nodes calls"]
    # complex_path solves each node, s_contour each sphere (alpha, beta)
    # of a batch once
    solved = calls["pair"] if method == "complex_path" else calls["spheres"]
    assert calls["nodes"] == solved
    if method == "s_contour":
        assert calls["nodes"] < calls["pair"]


def _j_valued_intrinsic_claim():
    return StemFunction(
        pair=lambda al, be: (stem_values(al, 0.0, 0.5), stem_values(be)),
        domain=entire_domain(), kind=INTRINSIC)


@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
def test_calculus_rejects_non_real_intrinsic_stems(method):
    A = random_qmatrix(rng(193), 2)
    with pytest.raises(NotIntrinsic):
        calculus_intrinsic(A, _j_valued_intrinsic_claim(), method)
    with pytest.raises(NotIntrinsic):
        calculus_sided(A, _j_valued_intrinsic_claim(), method=method)


# ---------------------------------------------------------------- exp / log / root

@pytest.mark.parametrize("lam", [1.0 + 0.5j, 1.0])
@pytest.mark.parametrize("k", [3, 4, 6])
def test_calculus_of_a_defective_block(k, lam):
    # the contour encloses the eigenvalues of chi(A) unclustered, so a
    # Jordan block whose computed eigenvalues no longer pair into
    # spheres still gets f(A) on both routes
    A = _planted_jordan(rng(409 + k), k, lam)
    want = op_exp(A)
    for method in ("complex_path", "s_contour"):
        got = calculus_sided(A, catalog("exp"), method=method)
        assert got.distance(want) <= 1e-12 * want.norm, method
    assert op_exp(op_log(A)).distance(A) <= 1e-10 * A.norm


@pytest.mark.xfail(strict=True, raises=(AssertionError, StructureViolation),
                   reason="an entire function takes one circle of radius "
                   "0.45 (1 + x), over which e^z varies by e^(2r): roundoff near "
                   "eps e^r swamps the answer and the stop rule settles on it")
@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
@pytest.mark.parametrize("x", [50.0, 100.0])
def test_calculus_exp_of_a_large_eigenvalue(x, method):
    # 2e-7 relative at x = 50; at x = 100 complex_path raises
    # StructureViolation and s_contour is off by a factor of 6.6e3
    got = calculus_intrinsic(QMatrix.diag([x]), catalog("exp"), method)
    want = math.exp(x)
    assert_quat_close(got.entry(0, 0), Quaternion(want), 1e-9 * want)


def test_exp_refuses_a_norm_that_overflows():
    with pytest.raises(NoConvergence, match="norm inf"):
        op_exp(QMatrix.diag([1e200]))


def test_exp_zero():
    assert_matrix_close(op_exp(QMatrix.zeros(3)), QMatrix.identity(3), 1e-15)


def test_exp_euler_identity():
    out = op_exp(QMatrix.from_entries([[Quaternion(0.0, math.pi)]]))
    assert_quat_close(out.entry(0, 0), Quaternion(-1.0), 1e-14)


def test_exp_matches_calculus():
    gen = rng(149)
    for _ in range(5):
        A = random_qmatrix(gen, 3)
        series = op_exp(A)
        path = calculus_intrinsic(A, catalog("exp"))
        diff = (series - path).norm
        assert diff <= 1e-9 * (1 + series.norm), f"{diff:.3e}"


def test_exp_spectral_mapping():
    gen = rng(151)
    for _ in range(5):
        A = random_qmatrix(gen, 3)
        image = s_spectrum(op_exp(A))
        mapped = [sphere_of(Quaternion.from_complex(
            cmath.exp(complex(s.re, s.im_norm))))
            for s, _ in s_spectrum(A).spheres]
        for sph in mapped:
            assert image.min_param_distance(sph.re, sph.im_norm) <= 1e-7, \
                f"exp image sphere ({sph.re}, {sph.im_norm}) missing"


def test_log_examples():
    out = op_log(QMatrix.from_entries([[Quaternion(math.e ** 2)]]))
    assert_quat_close(out.entry(0, 0), Quaternion(2.0), 1e-10)
    out = op_log(QMatrix.from_entries([[I]]))
    assert_quat_close(out.entry(0, 0), Quaternion(0.0, math.pi / 2.0), 1e-10)


def test_log_branch_cut():
    with pytest.raises(BranchCut):
        op_log(QMatrix.from_entries([[Quaternion(-1.0)]]))


def test_exp_log_round_trip():
    gen = rng(157)
    for _ in range(5):
        n = int(gen.integers(1, 4))
        B = random_qmatrix(gen, n)
        A = B + QMatrix.identity(n) * (B.norm * 1.2 + 0.5)
        back = op_exp(op_log(A))
        assert (back - A).norm <= 1e-8 * (1 + A.norm)


def test_root_examples():
    out = op_nth_root(QMatrix.from_entries([[Quaternion(4.0)]]), 2)
    assert_quat_close(out.entry(0, 0), Quaternion(2.0), 1e-10)
    out = op_nth_root(QMatrix.from_entries([[I]]), 2)
    want = Quaternion.from_complex(cmath.exp(1j * math.pi / 4.0))
    assert_quat_close(out.entry(0, 0), want, 1e-10)


def test_root_round_trip():
    gen = rng(163)
    B = random_qmatrix(gen, 3)
    A = B + QMatrix.identity(3) * (B.norm * 1.2 + 0.5)
    R = op_nth_root(A, 3)
    assert (R @ R @ R - A).norm <= 1e-8 * (1 + A.norm)


def test_root_degenerate_arguments():
    A = QMatrix.identity(2)
    assert_matrix_close(op_nth_root(A, 1), A, 1e-15)
    with pytest.raises(UsageError):
        op_nth_root(A, 0)
    with pytest.raises(UsageError):
        op_nth_root(A, -2)


def _record_eigen_solves(monkeypatch) -> list[bytes]:
    """Bytes of the matrix of every eigen-solve, whoever asks for it."""
    seen = []
    eigvals = np.linalg.eigvals

    def counted(M):
        seen.append(np.asarray(M).tobytes())
        return eigvals(M)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return seen


@pytest.mark.parametrize("op", [op_log, lambda A: op_nth_root(A, 3)],
                         ids=["log", "root"])
def test_log_and_root_solve_the_spectrum_once(monkeypatch, op):
    B = random_qmatrix(rng(171), 3)
    A = B + QMatrix.identity(3) * (B.norm * 1.2 + 0.5)
    seen = _record_eigen_solves(monkeypatch)
    op(A)
    # the cut check and the calculus's spectrum share one solve
    assert len(seen) == 1


# ---------------------------------------------------------------- theorem suites

def test_suites_solve_each_distinct_matrix_once(monkeypatch):
    A = random_qmatrix(rng(173), 3, scale=0.7)
    seen = _record_eigen_solves(monkeypatch)
    for suite in SUITE_NAMES:
        verify_theorems(A, suite)
    assert len(seen) == len(set(seen))
    assert complex_adjoint(A).tobytes() in seen


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suites_pass_on_random_matrix(suite):
    gen = rng(167)
    A = random_qmatrix(gen, 2, scale=0.7)
    report = verify_theorems(A, suite)
    assert report.suite == suite
    assert report.cases, "suite produced no cases"
    assert all(d >= 0.0 for _, d in report.cases)
    assert report.passed, f"{suite}: {report.cases}"


def test_product_suite_three_by_three():
    gen = rng(173)
    report = verify_theorems(random_qmatrix(gen, 3, scale=0.6), "product")
    assert report.passed, report.cases


def test_polynomial_suite_control_case():
    report = verify_theorems(QMatrix.identity(2), "polynomial")
    control = [d for name, d in report.cases if "control" in name]
    assert control, "control case missing"
    assert control[0] <= 1e-10
    assert report.passed


@pytest.mark.parametrize("calculus", [calculus_sided, calculus_intrinsic])
def test_an_unknown_method_is_refused_before_the_eigen_solve(calculus):
    # the spectral sphere (-1, 0) lies outside log's domain: a method
    # checked after the eigen-solve would raise DomainTooTight
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        calculus(QMatrix.diag([-1.0]), catalog("log"), method="bogus")


def test_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        verify_theorems(QMatrix.identity(1), "cauchy")


# ---------------------------------------------------------------- disk test

# whether each tested catalog domain leaves out the cut (-inf, 0], and
# the poles it punctures
DISK_TEST_DOMAINS = {"exp": (False, ()), "log": (True, ()), "pow:-1": (False, (0.0,)),
                     "ratpoly:[1, 0, 1]/[2, 1]": (False, (-2.0,))}


def _disk_in_domain_by_point(center, radius, cut, poles):
    """The disk test for one disk in closed form, as a reference: the
    centre's distances to the cut and to each pole, less the buffer, must
    exceed the radius."""
    a, b = center.real, abs(center.imag)
    gaps = [math.hypot(a - p.real, b - abs(p.imag)) for p in poles]
    if cut:
        gaps.append(b if a <= 0.0 else math.hypot(a, b))
    return all(gap - CUT_BUFFER > radius for gap in gaps)


@pytest.mark.parametrize("name", DISK_TEST_DOMAINS)
def test_disk_in_domain_matches_point_by_point_reference(name):
    domain = catalog(name).domain
    gen = rng(197)
    centers, radii, wants = [], [], []
    for _ in range(200):
        center = complex(*gen.uniform(-3.0, 3.0, 2))
        radius = float(gen.uniform(0.01, 2.5))
        want = _disk_in_domain_by_point(center, radius, *DISK_TEST_DOMAINS[name])
        assert domain.holds_disk(center, radius) is want
        centers.append(center)
        radii.append(radius)
        wants.append(want)
    centers, radii = np.array(centers), np.array(radii)
    # all disks at once, in any shape, give the same verdicts
    assert domain.holds_disk(centers, radii).tolist() == wants
    assert domain.holds_disk(centers.reshape(8, 25), radii.reshape(8, 25)).tolist() == \
        np.reshape(wants, (8, 25)).tolist()
    assert domain.holds_disk(centers[:0], radii[:0]).shape == (0,)
    verdicts = Counter(wants)
    assert verdicts[True] > 0
    assert name == "exp" or verdicts[False] > 0


def test_a_composed_domain_refuses_a_disk_about_a_pole_of_the_outer_function():
    # 1 / (0.8 + z) has its pole at -0.8, inside each disk about -0.8 + 0.1i
    # or -0.75 + 0.1i of radius 0.2; a test that samples the disk at fixed
    # points finds the pole only where a point lands within CUT_BUFFER of it
    domain = stem_compose(catalog("pow:-1"), catalog("poly:[0.8, 1.0]")).domain
    for center in (-0.8 + 0.1j, -0.75 + 0.1j, -0.75 - 0.1j):
        assert domain.holds_disk(center, 0.2) is False
    assert domain.holds_disk(-0.8 + 0.3j, 0.2) is True


# outer functions with a cut or a pole after inner functions that map
# some spectral points near it
COMPOSITIONS = [("log", "poly:[2.0, 0.3, 0.5]"), ("sqrt", "poly:[1.5, 0.0, 0.4]"),
                ("pow:-1", "poly:[0.8, 1.0]"), ("log", "exp")]


@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
@pytest.mark.parametrize("outer, inner", COMPOSITIONS,
                         ids=[f"{g}o{f}" for g, f in COMPOSITIONS])
def test_a_composition_matches_the_outer_function_of_the_inner_result(outer, inner,
                                                                       method):
    g, f = catalog(outer), catalog(inner)
    for seed in range(900, 940):
        A = _planted_draw(rng(seed), "generic")
        got = calculus_intrinsic(A, stem_compose(g, f), method=method)
        want = calculus_intrinsic(calculus_intrinsic(A, f, method=method), g,
                                  method=method)
        assert got.distance(want) <= 1e-8 * want.norm, seed
