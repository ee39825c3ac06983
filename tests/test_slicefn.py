"""Stem functions: evaluation, decomposition, validation, catalog."""

import cmath
import json
import math

import numpy as np
import pytest

from quatspec import (
    I,
    rotate_to_slice,
    J,
    K,
    ONE,
    Quaternion,
    StemFunction,
    catalog,
    decompose,
    entire_domain,
    eval_stem,
    from_holomorphic_intrinsic,
    restrict_to_slice,
    stem_compose,
    stem_product,
    stem_sum,
    validate,
)
from quatspec.errors import NotIntrinsic, OutOfDomain, ParseError
from quatspec.slicefn import (
    CUT_BUFFER,
    INTRINSIC,
    LEFT,
    RIGHT,
    AxSymDomain,
    _slice_values,
)

from _helpers import assert_quat_close, random_quaternion, rng, stem_values


def _identity_stem():
    return catalog("poly:[0, 1]")


def test_eval_examples():
    square = from_holomorphic_intrinsic(lambda z: z * z, entire_domain())
    assert_quat_close(eval_stem(square, J), Quaternion(-1.0), 1e-15)

    ident = _identity_stem()
    q = Quaternion(1.0, 2.0, 0.0, 0.0)
    assert_quat_close(eval_stem(ident, q), q, 1e-15)

    iq = catalog("monoL:" + json.dumps([[0.0, 1.0, 0.0, 0.0], 1]))
    assert iq.kind == RIGHT
    assert_quat_close(eval_stem(iq, J), K, 1e-15)


def test_eval_out_of_domain():
    f = catalog("log")
    with pytest.raises(OutOfDomain):
        eval_stem(f, Quaternion(-1.0))


def test_eval_at_real_points_uses_f0_only():
    f = catalog("exp")
    assert_quat_close(eval_stem(f, Quaternion(1.0)),
                      Quaternion(math.e), 1e-12)


def test_from_holomorphic_intrinsic():
    f = from_holomorphic_intrinsic(np.exp, entire_domain((-4.0, 4.0, 4.0)))
    assert f.kind == INTRINSIC
    got = eval_stem(f, J * math.pi)
    assert_quat_close(got, Quaternion(-1.0), 1e-12)
    with pytest.raises(NotIntrinsic):
        from_holomorphic_intrinsic(lambda z: 1j * z, entire_domain())


def test_restrict_to_slice_examples():
    h = restrict_to_slice(catalog("exp"))
    assert abs(h(1j * math.pi / 2) - 1j) < 1e-12

    ident = restrict_to_slice(_identity_stem())
    assert abs(ident(0.3 - 0.7j) - (0.3 - 0.7j)) < 1e-15

    poly = restrict_to_slice(catalog("poly:[1, 0, 1]"))
    assert abs(poly(2.0 + 0.0j) - 5.0) < 1e-15


def test_restrict_to_slice_rejects_sided():
    g = catalog("monoL:" + json.dumps([[0.0, 1.0, 0.0, 0.0], 1]))
    with pytest.raises(NotIntrinsic):
        restrict_to_slice(g)


def test_slice_restriction_symmetry():
    for name in ("exp", "poly:[0.5, -1, 0, 2]", "log", "sqrt"):
        f = catalog(name)
        h = restrict_to_slice(f)
        for z in (0.7 + 0.3j, 2.0 + 1.5j, 1.3 + 0.01j):
            assert abs(h(z.conjugate()) - h(z).conjugate()) \
                <= 1e-12 * (1.0 + abs(h(z)))


def test_intrinsic_eval_commutes_with_conjugation():
    gen = rng(301)
    f = catalog("exp")
    for _ in range(100):
        q = random_quaternion(gen)
        lhs = eval_stem(f, q.conjugate())
        rhs = eval_stem(f, q).conjugate()
        assert_quat_close(lhs, rhs, 1e-12 * (1.0 + abs(rhs)))


def test_decompose_single_component():
    iq = catalog("monoL:" + json.dumps([[0.0, 1.0, 0.0, 0.0], 1]))
    parts = decompose(iq)
    assert all(p.kind == INTRINSIC for p in parts)
    gen = rng(302)
    for _ in range(20):
        q = random_quaternion(gen)
        assert_quat_close(eval_stem(parts[1], q), eval_stem(_identity_stem(), q),
                          1e-13 * (1 + abs(q)))
        for m in (0, 2, 3):
            assert_quat_close(eval_stem(parts[m], q), Quaternion(0.0), 1e-13)


def test_decompose_two_components():
    # f(q) = q + j q splits into identity parts on the 1 and j slots
    name = json.dumps([[1.0, 0.0, 1.0, 0.0], 1])
    f = catalog("monoL:" + name)
    parts = decompose(f)
    gen = rng(303)
    for _ in range(20):
        q = random_quaternion(gen)
        ident = eval_stem(_identity_stem(), q)
        assert_quat_close(eval_stem(parts[0], q), ident, 1e-13 * (1 + abs(q)))
        assert_quat_close(eval_stem(parts[2], q), ident, 1e-13 * (1 + abs(q)))
        assert_quat_close(eval_stem(parts[1], q), Quaternion(0.0), 1e-13)
        assert_quat_close(eval_stem(parts[3], q), Quaternion(0.0), 1e-13)


@pytest.mark.parametrize("side,units_left", [("L", True), ("R", False)])
def test_decompose_recombination(side, units_left):
    # random one-sided polynomial with quaternion coefficients
    gen = rng(304)
    terms = [(random_quaternion(gen), n) for n in range(5)]
    f = None
    for a, n in terms:
        mono = catalog(f"mono{side}:" + json.dumps([[a.a, a.b, a.c, a.d], n]))
        f = mono if f is None else stem_sum(f, mono)
    assert f.kind == (RIGHT if side == "L" else LEFT)
    parts = decompose(f)
    units = (ONE, I, J, K)
    for _ in range(100):
        q = random_quaternion(gen)
        want = eval_stem(f, q)
        got = Quaternion(0.0)
        for unit, part in zip(units, parts):
            v = eval_stem(part, q)
            got = got + (unit * v if units_left else v * unit)
        assert_quat_close(got, want, 1e-12 * (1.0 + abs(want)))


def test_validate_exp_passes():
    report = validate(catalog("exp"))
    assert report.passed
    assert report.cr_residual < 1e-6
    assert report.compat_residual < 1e-12
    assert report.samples > 100


@pytest.mark.parametrize("name,fd_step", [
    ("poly:[1, -2, 0, 1]", None),
    ("log", 1e-5),
    ("sqrt", 1e-5),
    ("pow:3", None),
    ("ratpoly:[1, 0, 1]/[2, 1]", 1e-6),
])
def test_validate_catalog_functions_pass(name, fd_step):
    # near a cut or a pole the derivatives grow, so the singular entries
    # get a finer difference step than the default
    report = validate(catalog(name), fd_step=fd_step)
    assert report.passed, f"{name}: {report}"


def test_validate_flags_non_holomorphic_stems():
    bad = StemFunction(
        pair=lambda al, be: (stem_values(al * al), stem_values(0.0 * al)),
        domain=entire_domain(),
        kind=INTRINSIC,
        label="alpha^2 stem",
    )
    report = validate(bad)
    assert not report.cr_pass
    assert report.cr_residual > 0.5


def test_validate_flags_compatibility_breakage():
    bad = StemFunction(
        pair=lambda al, be: (stem_values(al), stem_values(np.ones_like(al))),
        domain=entire_domain(),
        kind=INTRINSIC,
        label="constant f1",
    )
    report = validate(bad)
    assert not report.compat_pass
    assert report.compat_residual >= 1.0 - 1e-12


def test_validate_flags_quaternion_valued_intrinsic_claim():
    bad = StemFunction(
        pair=lambda al, be: (stem_values(al, 0.5), stem_values(be)),
        domain=entire_domain(),
        kind=INTRINSIC,
        label="imaginary f0",
    )
    report = validate(bad)
    assert not report.intrinsic_pass


def test_stem_sum_and_product_intrinsic():
    gen = rng(305)
    f = catalog("exp")
    g = catalog("poly:[1, 0, -0.5]")
    total = stem_sum(f, g)
    prod = stem_product(f, g)
    assert total.kind == INTRINSIC and prod.kind == INTRINSIC
    for _ in range(50):
        q = random_quaternion(gen)
        fv, gv = eval_stem(f, q), eval_stem(g, q)
        assert_quat_close(eval_stem(total, q), fv + gv, 1e-12 * (1 + abs(fv)))
        assert_quat_close(eval_stem(prod, q), fv * gv,
                          1e-12 * (1.0 + abs(fv) * abs(gv)))


def test_stem_product_sided_sectors():
    # intrinsic times left kind, and right kind times intrinsic, are the
    # arrangements where the product evaluates pointwise in written order
    gen = rng(306)
    a = random_quaternion(gen)
    left_g = catalog("monoR:" + json.dumps([[a.a, a.b, a.c, a.d], 2]))
    right_f = catalog("monoL:" + json.dumps([[a.a, a.b, a.c, a.d], 2]))
    intr = catalog("poly:[0.5, 1]")
    assert left_g.kind == LEFT and right_f.kind == RIGHT

    p1 = stem_product(intr, left_g)
    assert p1.kind == LEFT
    p2 = stem_product(right_f, intr)
    assert p2.kind == RIGHT
    for _ in range(50):
        q = random_quaternion(gen)
        want1 = eval_stem(intr, q) * eval_stem(left_g, q)
        assert_quat_close(eval_stem(p1, q), want1, 1e-11 * (1 + abs(want1)))
        want2 = eval_stem(right_f, q) * eval_stem(intr, q)
        assert_quat_close(eval_stem(p2, q), want2, 1e-11 * (1 + abs(want2)))


def test_stem_product_requires_an_intrinsic_factor():
    a = [[0.0, 1.0, 0.0, 0.0], 1]
    f = catalog("monoL:" + json.dumps(a))
    g = catalog("monoL:" + json.dumps(a))
    with pytest.raises(NotIntrinsic):
        stem_product(f, g)


def test_stem_compose():
    gen = rng(307)
    inner = catalog("poly:[0.2, 0, 0.4]")
    outer = catalog("exp")
    comp = stem_compose(outer, inner)
    h_in = restrict_to_slice(inner)
    for _ in range(50):
        q = random_quaternion(gen)
        s, z = rotate_to_slice(q)
        want_slice = cmath.exp(h_in(z))
        got = eval_stem(comp, q)
        # compare on the slice then transport back
        want = s.inverse() * Quaternion.from_complex(want_slice) * s
        assert_quat_close(got, want, 1e-11 * (1.0 + abs(want)))


def test_stem_compose_requires_intrinsic_inner():
    a = [[0.0, 1.0, 0.0, 0.0], 1]
    sided = catalog("monoL:" + json.dumps(a))
    with pytest.raises(NotIntrinsic):
        stem_compose(catalog("exp"), sided)


def test_catalog_pow_and_ratpoly():
    gen = rng(308)
    cube = catalog("pow:3")
    invsq = catalog("pow:-2")
    rat = catalog("ratpoly:[0, 1]/[1, 1]")  # q / (1 + q)
    for _ in range(30):
        q = random_quaternion(gen, scale=0.8)
        if abs(q) < 0.05 or abs(q + ONE) < 0.1:
            continue
        assert_quat_close(eval_stem(cube, q), q ** 3, 1e-11 * (1 + abs(q) ** 3))
        assert_quat_close(eval_stem(invsq, q), (q ** 2).inverse(),
                          1e-9 * (1.0 + abs(q) ** -2))
        want = q * (ONE + q).inverse()
        assert_quat_close(eval_stem(rat, q), want, 1e-10 * (1 + abs(want)))


def test_catalog_sqrt_square_round_trip():
    gen = rng(309)
    f = catalog("sqrt")
    for _ in range(30):
        q = random_quaternion(gen)
        r = eval_stem(f, q)
        assert_quat_close(r * r, q, 1e-10 * (1.0 + abs(q)))


def test_catalog_rejects_malformed_names():
    # json loads true/false as Python bools, which are ints
    for bad in ("nope", "poly:", "poly:[1", "pow:x", "monoL:[1,2]",
                "ratpoly:[1]", "poly:[1, \"a\"]", "poly:[true, 1]",
                "ratpoly:[1, false]/[1]", "ratpoly:[1]/[true]",
                "monoL:[[1, 0, 0, 0], true]", "monoR:[[1, 0, false, 0], 2]"):
        with pytest.raises(ParseError):
            catalog(bad)


def test_log_domain_excludes_cut():
    f = catalog("log")
    assert not f.domain.contains(-1.0, 0.0)
    assert not f.domain.contains(-2.0, 1e-9)
    assert f.domain.contains(-2.0, 1.0)
    assert f.domain.contains(1.0, 0.0)
    assert not f.domain.contains(0.0, 0.0)

    # the buffer edge and the origin, against the two clauses the cut
    # distance replaced
    def two_clauses(a, b):
        return (np.hypot(a, b) > CUT_BUFFER) & ((a > 0.0) | (b > CUT_BUFFER))

    t = CUT_BUFFER * np.array([-2.0, -1.001, -1.0, -0.999, -0.6, -0.5, -1e-3,
                               -0.0, 0.0, 1e-3, 0.5, 0.6, 0.999, 1.0, 1.001, 2.0])
    a, b = np.meshgrid(np.append(t, [-1.0, 1.0]),
                       np.append(np.abs(t), [0.5 * CUT_BUFFER, 1.0]), indexing="ij")
    want = two_clauses(a, b)
    assert want.any() and not want.all()
    for name in ("log", "sqrt"):
        domain = catalog(name).domain
        assert (domain.contains(a, b) == want).all()
        assert (domain.contains(a, -b) == want).all()
        for al, be, w in zip(a.flat, b.flat, want.flat):
            assert domain.contains(al, be) == w


def test_domain_membership_is_even_in_beta():
    for name in ("exp", "log", "sqrt"):
        dom = catalog(name).domain
        for al, be in ((1.0, 0.5), (-2.0, 0.3), (0.7, 2.0)):
            assert dom.contains(al, be) == dom.contains(al, -be)


# -- one stem-pair call per point -----------------------------------------

class _CountedPair:
    """Stem-pair callable that counts how often it is read."""

    def __init__(self, pair):
        self.pair = pair
        self.calls = 0

    def __call__(self, a, b):
        self.calls += 1
        return self.pair(a, b)


def _counted(name):
    f = catalog(name)
    counter = _CountedPair(f.pair)
    return StemFunction(counter, f.domain, f.kind, f.label), counter


def test_from_holomorphic_intrinsic_reads_h_twice_per_point():
    calls = []

    def h(z):
        calls.append(z)
        return np.exp(z)

    f = from_holomorphic_intrinsic(h, entire_domain())
    calls.clear()
    f.pair(0.3, 0.7)
    assert calls == [complex(0.3, 0.7), complex(0.3, -0.7)]
    calls.clear()
    eval_stem(f, Quaternion(0.3, 0.0, 0.7, 0.0))
    assert len(calls) == 2


@pytest.mark.parametrize("combine", [stem_sum, stem_product],
                         ids=["sum", "product"])
def test_binary_combinators_read_each_pair_once(combine):
    f, fc = _counted("exp")
    g, gc = _counted("monoR:[[0.5, -1, 2, 0.25], 2]")
    h = combine(f, g)
    eval_stem(h, Quaternion(0.3, 0.4, -0.2, 0.5))
    assert (fc.calls, gc.calls) == (1, 1)
    h.pair(0.3, 0.7)
    assert (fc.calls, gc.calls) == (2, 2)


def test_stem_compose_reads_each_pair_once():
    f, fc = _counted("poly:[0.5, 1, 0.25]")
    g, gc = _counted("monoL:[[0.5, -1, 2, 0.25], 2]")
    h = stem_compose(g, f)
    h.pair(0.3, 0.7)
    assert (fc.calls, gc.calls) == (1, 1)
    # eval_stem tests the domain, which maps the point through f, then
    # reads the stems, which map it through f again
    eval_stem(h, Quaternion(0.2, 0.4, -0.3, 0.5))
    assert (fc.calls, gc.calls) == (3, 2)
    # an array of points costs the same reads as one point
    for points in (1, 7, (2, 3)):
        fc.calls = gc.calls = 0
        z = np.full(points, 0.2 - 0.6j)
        assert _slice_values(h)(z).shape == (4, *z.shape)
        assert (fc.calls, gc.calls) == (2, 1)


def test_decompose_pieces_read_the_pair_once():
    f, fc = _counted("monoL:[[0.5, -1, 2, 0.25], 3]")
    for m, piece in enumerate(decompose(f)):
        piece.pair(0.3, 0.7)
        assert fc.calls == m + 1


def test_validate_reads_the_pair_once_per_sample():
    # one read over all samples per stencil direction, one for the
    # compatibility samples on the real axis, one for the intrinsic grid
    for grid in (1, 4, 9):
        f, fc = _counted("exp")
        validate(f, grid=grid)
        assert fc.calls == 4 + 1 + 1


def _per_sample_validate(f, grid=32, tol=1e-6):
    """validate as a loop of scalar stem reads, one sample at a time."""
    amin, amax, bmax = f.domain.box
    h = 1e-5 * max(amax - amin, bmax)
    cr = 0.0
    samples = 0
    for ia in range(grid):
        for ib in range(grid):
            a = amin + (ia + 0.5) * (amax - amin) / grid
            b = (ib + 0.5) * bmax / grid
            stencil = ((a, b), (a + h, b), (a - h, b), (a, b + h), (a, b - h))
            if not all(f.domain.contains(*p) for p in stencil):
                continue
            da = np.subtract(f.stems(a + h, b), f.stems(a - h, b)) / (2 * h)
            db = np.subtract(f.stems(a, b + h), f.stems(a, b - h)) / (2 * h)
            scale = 1.0 + sum(np.linalg.norm(d) for d in (*da, *db))
            cr = max(cr, np.linalg.norm(da[0] - db[1]) / scale,
                     np.linalg.norm(db[0] + da[1]) / scale)
            samples += 1
    compat = 0.0
    for ia in range(grid):
        a = amin + (ia + 0.5) * (amax - amin) / grid
        if f.domain.contains(a, 0.0):
            compat = max(compat, np.linalg.norm(f.pair(a, 0.0)[1]))
            samples += 1
    intrinsic = 0.0
    if f.kind == INTRINSIC:
        for ia in range(grid // 2):
            for ib in range(grid // 2):
                a = amin + (ia + 0.5) * (amax - amin) / (grid // 2)
                b = (ib + 0.5) * bmax / (grid // 2)
                if not f.domain.contains(a, b):
                    continue
                for v in f.pair(a, b):
                    intrinsic = max(intrinsic, np.linalg.norm(v[1:]))
                samples += 1
    return samples, compat, cr, intrinsic, (compat <= tol, cr <= tol,
                                            f.kind != INTRINSIC or intrinsic <= tol)


# -- slice values of the pieces -------------------------------------------

CATALOG_NAMES = ("exp", "log", "sqrt", "pow:3", "pow:-2", "poly:[1, -2, 0, 1]",
                 "ratpoly:[1, 0, 1]/[2, 1]", "monoL:[[0.5, -1, 2, 0.25], 3]",
                 "monoR:[[-0.7, 0.2, 0, 0.4], 2]")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_validate_matches_per_sample_reference(name):
    f = catalog(name)
    samples, compat, cr, intrinsic, passes = _per_sample_validate(f)
    got = validate(f)
    assert got.samples == samples
    assert (got.compat_pass, got.cr_pass, got.intrinsic_pass) == passes
    # array and scalar numpy math differ in the last bits, which the
    # finite differences divide by 2 fd_step
    assert got.compat_residual == pytest.approx(compat, abs=1e-8)
    assert got.cr_residual == pytest.approx(cr, abs=1e-8)
    assert got.intrinsic_residual == pytest.approx(intrinsic, abs=1e-8)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_validate_passes_every_catalog_function_at_defaults(name):
    # the Cauchy-Riemann defect is relative, so the difference error next
    # to a pole or the cut of log does not read as a failure
    report = validate(catalog(name))
    assert report.passed, f"{name}: {report}"


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_slice_values_match_eval_stem(name):
    f = catalog(name)
    pieces = (f,) if f.kind == INTRINSIC else decompose(f)
    values = _slice_values(f)
    for z in (0.7 + 0.4j, 0.7 - 0.4j, 0.7 + 0j):
        got = values(z)
        assert len(got) == len(pieces)
        q = Quaternion.from_complex(z)
        for v, piece in zip(got, pieces):
            want = eval_stem(piece, q)
            assert_quat_close(Quaternion.from_complex(v), want,
                              1e-14 * (1.0 + abs(want)))
        # recombined with 1, i, j, k on the kind's side they give f itself
        total = Quaternion()
        for unit, v in zip((ONE, I, J, K), got):
            p = Quaternion.from_complex(v)
            total = total + (p * unit if f.kind == LEFT else unit * p)
        want = eval_stem(f, q)
        assert_quat_close(total, want, 1e-14 * (1.0 + abs(want)))


def test_slice_values_drop_f1_at_real_points():
    bad_f1 = StemFunction(
        pair=lambda al, be: (stem_values(al), stem_values(np.ones_like(al))),
        domain=entire_domain(), kind=INTRINSIC)
    assert _slice_values(bad_f1)(0.5 + 0j).tolist() == [0.5 + 0j]
    assert _slice_values(bad_f1)(0.5 - 0.25j).tolist() == [0.5 - 1j]


def test_slice_values_out_of_domain():
    with pytest.raises(OutOfDomain):
        _slice_values(catalog("log"))(-1.0 + 0j)
    with pytest.raises(OutOfDomain):
        restrict_to_slice(catalog("sqrt"))(-2.0 + 0j)


@pytest.mark.parametrize("imag", [Quaternion(0.0, 0.0, 0.5, 0.0),
                                  Quaternion(0.0, 0.5, 0.0, 0.0)],
                         ids=["j", "i"])
def test_restrict_to_slice_rejects_non_real_stems(imag):
    # an intrinsic tag on stems with an imaginary component: both the j
    # component and the i component break the claim
    bad = StemFunction(
        pair=lambda al, be: (stem_values(al, imag.b, imag.c, imag.d),
                             stem_values(be)),
        domain=entire_domain(), kind=INTRINSIC)
    with pytest.raises(NotIntrinsic):
        restrict_to_slice(bad)(0.3 + 0.2j)


# -- array reads equal stacked point reads ---------------------------------

def _stem_variants():
    """Every catalog function, the combinators and the decompose pieces."""
    mono = catalog(CATALOG_NAMES[7])
    poly = catalog("poly:[0.2, 0, 0.4]")
    variants = {name: catalog(name) for name in CATALOG_NAMES}
    variants.update({
        "sum": stem_sum(catalog("exp"), catalog(CATALOG_NAMES[8])),
        "product intrinsic*left": stem_product(catalog("exp"),
                                               catalog(CATALOG_NAMES[8])),
        "product right*intrinsic": stem_product(mono, poly),
        "compose intrinsic": stem_compose(catalog("exp"), poly),
        "compose right": stem_compose(mono, poly),
    })
    for m, piece in enumerate(decompose(mono)):
        variants[f"piece {m}"] = piece
    return variants


STEM_VARIANTS = _stem_variants()


def _stacked(read, alpha, beta, scalar):
    """read called on one scalar point at a time, restacked to the array shape."""
    values = [read(scalar(a), scalar(b))
              for a, b in zip(alpha.ravel(), beta.ravel())]
    return [np.reshape([v[i] for v in values], alpha.shape + (4,))
            for i in range(2)]


@pytest.mark.parametrize("scalar", [float, np.asarray], ids=["float", "0-d"])
@pytest.mark.parametrize("name", sorted(STEM_VARIANTS))
def test_array_reads_match_stacked_point_reads(name, scalar):
    f = STEM_VARIANTS[name]
    gen = rng(311)
    for shape in ((5,), (2, 3)):
        alpha = gen.uniform(0.2, 1.5, shape)
        beta = gen.uniform(0.1, 1.2, shape) * gen.choice([-1.0, 1.0], shape)
        for read, b in ((f.pair, np.abs(beta)), (f.stems, beta)):
            got = read(alpha, b)
            for g, w in zip(got, _stacked(read, alpha, b, scalar)):
                assert g.shape == alpha.shape + (4,)
                assert np.all(np.abs(g - w) <= 1e-15 * (1.0 + np.abs(w))), name


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_slice_values_read_the_pair_once_per_array(name):
    f, fc = _counted(name)
    z = 0.8 + 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
    values = _slice_values(f)(z)
    assert fc.calls == 1
    assert values.shape == (1 if f.kind == INTRINSIC else 4, 64)


def test_compose_domain_reads_the_inner_function_only_inside_its_domain():
    # log is undefined on the cut, so the composition's domain test must
    # answer False there instead of reading log
    comp = stem_compose(catalog("exp"), catalog("log"))
    alpha = np.array([[-1.0, 0.5], [0.0, 2.0]])
    beta = np.array([[0.0, 0.3], [0.0, 1.0]])
    assert comp.domain.contains(alpha, beta).tolist() == [[False, True],
                                                           [False, True]]
    assert not comp.domain.contains(-1.0, 0.0)
    assert comp.domain.contains(0.5, -0.3)
