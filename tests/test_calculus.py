"""Calculus layer: contours, both quadrature routes, exp/log/roots, suites."""

import cmath
import math
from collections import Counter

import numpy as np
import pytest

import quatspec.calculus as qcalc
from quatspec import (
    BranchCut,
    Circle,
    DomainTooTight,
    I,
    J,
    K,
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
from quatspec.slicefn import INTRINSIC, RIGHT

from _helpers import (
    assert_matrix_close,
    assert_quat_close,
    random_qmatrix,
    rng,
    stem_values,
)


def single_sphere(re, im_norm, mult=1, tol=1e-8):
    return SphereSet(((Sphere(re, im_norm), mult),), tol)


# ---------------------------------------------------------------- contours

def test_contour_split_sphere():
    contour = build_contour(single_sphere(0.0, 1.0), entire_domain(), 0.3)
    got = sorted(((c.center.real, c.center.imag), c.radius)
                 for c in contour.circles)
    assert got == [((0.0, -1.0), 0.3), ((0.0, 1.0), 0.3)]


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


def test_contour_rejects_nonpositive_margin():
    with pytest.raises(ValueError):
        build_contour(single_sphere(0.0, 1.0), entire_domain(), 0.0)


def test_contour_invariants_random():
    gen = rng(101)
    for _ in range(25):
        A = random_qmatrix(gen, int(gen.integers(1, 5)))
        contour = auto_contour(s_spectrum(A), entire_domain())
        circles = contour.circles
        assert len(circles) >= 1
        centers = {(c.center.real, c.center.imag) for c in circles}
        for c in circles:
            assert c.orientation == 1
            assert c.radius > 0
            # closed under conjugation of centers
            assert (c.center.real, -c.center.imag) in centers
        for a in range(len(circles)):
            for b in range(a + 1, len(circles)):
                d = abs(circles[a].center - circles[b].center)
                assert d > circles[a].radius + circles[b].radius, \
                    f"circles {a} and {b} intersect"
        # every spectral representative strictly inside
        for sph, _ in s_spectrum(A).spheres:
            assert contour.encloses(complex(sph.re, sph.im_norm))
            assert contour.encloses(complex(sph.re, -sph.im_norm))


def test_contour_domain_too_tight():
    # a sphere sitting on the log cut can never be enclosed
    with pytest.raises(DomainTooTight):
        auto_contour(single_sphere(-1.0, 0.0), catalog("log").domain)


# ---------------------------------------------------------------- riesz_dunford

def test_riesz_dunford_identity_function():
    M = np.diag([1.0 + 0j, 2.0 + 0j])
    contour = build_contour(
        SphereSet(((Sphere(1.0, 0.0), 1), (Sphere(2.0, 0.0), 1)), 1e-8),
        entire_domain(), 0.3)
    out = riesz_dunford(M, lambda z: z, contour)
    assert np.max(np.abs(out - M)) < 1e-10


def test_riesz_dunford_nilpotent_exp():
    M = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    contour = build_contour(single_sphere(0.0, 0.0, 2), entire_domain(), 0.5)
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
    contour = auto_contour(s_spectrum(random_qmatrix(gen, 1)), entire_domain())
    contour = SliceContour((Circle(0j, float(np.linalg.norm(M)) + 1.0),))
    coarse = riesz_dunford(M, np.exp, contour, nodes=8)
    fine = riesz_dunford(M, np.exp, contour, nodes=64)
    diff = np.linalg.norm(coarse - fine)
    assert diff <= 1e-9 * (1 + np.linalg.norm(fine))


def test_riesz_dunford_margin_independent():
    A = QMatrix.diag([I, 2.0 * J])
    M = complex_adjoint(A)
    h = restrict_to_slice(catalog("exp"))
    spheres = s_spectrum(A)
    results = [riesz_dunford(M, h, build_contour(spheres, entire_domain(), m))
               for m in (0.1, 0.2, 0.3, 0.5)]
    for other in results[1:]:
        diff = np.linalg.norm(other - results[0])
        assert diff <= 1e-9 * (1 + np.linalg.norm(results[0]))


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
    contour = auto_contour(s_spectrum(A), entire_domain())
    raw = riesz_dunford(complex_adjoint(A), lambda z: 1j * z, contour)
    with pytest.raises(StructureViolation):
        from_complex_adjoint(raw, tol=1e-8)


def test_structure_residual_small_for_intrinsic():
    gen = rng(131)
    from quatspec import adjoint_structure_residual
    A = random_qmatrix(gen, 3)
    contour = auto_contour(s_spectrum(A), entire_domain())
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
    out = calculus_sided(QMatrix.from_entries([[J]]), f, kind="right")
    assert_quat_close(out.entry(0, 0), K, 1e-10)


def test_sided_left_monomial():
    f = catalog("monoR:[[0,1,0,0],1]")  # q -> q i, a left slice function
    out = calculus_sided(QMatrix.from_entries([[J]]), f, kind="left")
    assert_quat_close(out.entry(0, 0), -K, 1e-10)


def test_sided_kind_mismatch():
    with pytest.raises(ValueError):
        calculus_sided(QMatrix.identity(1),
                       catalog("monoL:[[0,1,0,0],1]"), kind="left")


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
    f = StemFunction(counted("pair", f.pair,
                             lambda a, b: np.broadcast(a, b).size),
                     f.domain, f.kind, f.label)
    calculus_sided(random_qmatrix(rng(191), 3, scale=0.7), f, method=method)
    assert calls["spectrum"] == calls["contour"] == 1
    assert calls["nodes"] > 0
    # one stem read per solved node, in one pair call per batch of solves
    assert calls["pair"] == calls["nodes"]
    assert calls["pair calls"] == calls["nodes calls"]


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


# ---------------------------------------------------------------- theorem suites

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
        assert qcalc._disk_in_domain(center, radius, domain) == want
        verdicts[want] += 1
    assert verdicts[True] > 0
    assert name == "exp" or verdicts[False] > 0
