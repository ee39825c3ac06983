"""Calculus layer: contours, both quadrature routes, exp/log/roots, suites."""

import cmath
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quatspec.calculus as qcalc
from quatspec import (
    BranchCut,
    Circle,
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
    restrict_to_slice,
    riesz_dunford,
    s_spectrum,
    sphere_of,
    stem_sum,
    verify_theorems,
)

from quatspec.calculus import _s_contour_value
from quatspec.operators import _pull_back
from quatspec.slicefn import INTRINSIC, RIGHT
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


def _full_build_contour(points, domain, margin):
    """Both halves of the contour, mirrors and domain checks included.

    The points are sphere representatives, on or above the axis, taken
    once each in the order of their real parts, then their heights; a
    real part -0.0 is read as 0.0.
    """
    upper = []
    seeds = {complex(z.real + 0.0, z.imag) for z in points}
    for z in sorted(seeds, key=lambda z: (z.real, z.imag)):
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


@settings(max_examples=150, deadline=None)
@given(points=_sphere_sets(), domain=st.sampled_from(sorted(CONTOUR_DOMAINS)))
def test_contour_is_the_upper_half_of_the_full_reference(points, domain):
    # on every rung of the margin ladder the circles are bitwise the
    # reference's circles on or above the axis, in its order, and
    # DomainTooTight is raised exactly where the reference raises it;
    # auto_contour takes the first rung the reference builds
    dom = CONTOUR_DOMAINS[domain]
    scale = 1.0 + float(np.abs(points).max())
    margin, first = 0.45 * scale, None
    for _ in range(24):
        # the reference ladder's other limit, 1e-6 of the scale, never binds
        assert margin >= 1e-6 * scale
        want = _bits(lambda *a: [c for c in _full_build_contour(*a)
                                 if c.center.imag >= 0.0], points, dom, margin)
        got = _bits(lambda *a: build_contour(*a).circles, points, dom, margin)
        assert got == want, margin
        if first is None:
            first = want
        margin *= 0.6
    assert _bits(lambda: auto_contour(points, dom).circles) == first


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
    assert rest == 0 and count >= 64 and count % 32 == 0
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
    eig = np.linalg.eig

    def counted(M):
        seen.append(np.asarray(M).tobytes())
        return eig(M)

    monkeypatch.setattr(np.linalg, "eig", counted)
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


def test_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        verify_theorems(QMatrix.identity(1), "cauchy")


# ---------------------------------------------------------------- disk test

def _disk_in_domain_by_point(center, radius, domain):
    """The disk test read one point at a time, as a reference."""
    if not domain.contains(center.real, center.imag):
        return False
    for frac in (1.0, 0.85, 0.6, 0.35, 0.12):
        for k in range(32):
            z = center + radius * frac * cmath.exp(2j * math.pi * k / 32)
            if not domain.contains(z.real, z.imag):
                return False
    b = center.imag
    if abs(b) < radius:
        half = math.sqrt(radius * radius - b * b)
        for t in range(17):
            a = center.real - half + 2.0 * half * t / 16
            if not domain.contains(a, 0.0):
                return False
    for (ea, eb), rad in domain.exclusions:
        for ebs in (eb, -eb):
            if abs(center - complex(ea, ebs)) < radius + rad:
                return False
    return True


@pytest.mark.parametrize("name", ["exp", "log", "pow:-1",
                                  "ratpoly:[1, 0, 1]/[2, 1]"])
def test_disk_in_domain_matches_point_by_point_reference(name):
    domain = catalog(name).domain
    gen = rng(197)
    verdicts = Counter()
    for _ in range(200):
        center = complex(*gen.uniform(-3.0, 3.0, 2))
        radius = float(gen.uniform(0.01, 2.5))
        want = _disk_in_domain_by_point(center, radius, domain)
        assert domain.holds_disk(center, radius) == want
        verdicts[want] += 1
    assert verdicts[True] > 0
    assert name == "exp" or verdicts[False] > 0
