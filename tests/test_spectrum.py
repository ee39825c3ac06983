"""Spectrum layer: eigensolver contract, S-spectrum, resolvents, distance."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quatspec.calculus as qcalc
import quatspec.spectrum as qspec
from quatspec import (
    AlphaInSpectrum,
    I,
    J,
    K,
    NoConvergence,
    NonFiniteEntry,
    ONE,
    OddRealMultiplicity,
    QMatrix,
    Quaternion,
    SeriesDiverges,
    Singular,
    Sphere,
    SphereSet,
    calculus_sided,
    catalog,
    classify,
    complex_adjoint,
    delta,
    distance_to_spectrum,
    eigenvalues,
    left_mult_rep,
    neumann_coefficients,
    op_log,
    q_pencil,
    q_pencil_inverse,
    quaternion_matrix_inverse,
    s_resolvent,
    s_spectral_radius,
    s_spectrum,
    sphere_of,
)

from _helpers import (
    assert_matrix_close,
    assert_quat_close,
    random_qmatrix,
    random_quaternion,
    random_unit_quaternion,
    rng,
)

N_DRAWS = 30


# ---------------------------------------------------------------- eigenvalues

def test_eigenvalues_rotation_matrix():
    lam = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert sorted(lam, key=lambda z: z.imag) == pytest.approx([-1j, 1j])


def test_eigenvalues_diagonal():
    lam = eigenvalues(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(np.sort(lam.real), [1.0, 2.0, 3.0])
    assert np.max(np.abs(lam.imag)) == 0.0


def test_eigenvalues_companion():
    # companion matrix of z^2 - 2z + 5, roots 1 +- 2i
    C = np.array([[0.0, -5.0], [1.0, 2.0]])
    lam = eigenvalues(C)
    want = np.array([1.0 - 2.0j, 1.0 + 2.0j])
    got = np.array(sorted(lam, key=lambda z: z.imag))
    assert np.max(np.abs(got - want)) < 1e-12


def _planted_jordan(gen, n: int, lam: complex) -> QMatrix:
    """S J S^-1 with J an n x n Jordan block at lam in the complex slice."""
    J_ = lam * np.eye(n) + np.eye(n, k=1)
    Jq = QMatrix.from_components(J_.real, J_.imag, np.zeros((n, n)),
                                 np.zeros((n, n)))
    S = random_qmatrix(gen, n) + QMatrix.identity(n) * 3.0
    return S @ Jq @ quaternion_matrix_inverse(S)


def _assert_certified(M):
    """Every returned eigenvalue meets the contract, checked by a full SVD."""
    lam = eigenvalues(M)
    assert len(lam) == M.shape[0]
    scale = np.linalg.norm(M)
    for lv in lam:
        smin = np.linalg.svd(lv * np.eye(M.shape[0]) - M, compute_uv=False)[-1]
        assert smin <= 1e-8 * scale, f"smin {smin:.3e} at {lv}"


def test_eigenvalues_residual_contract():
    gen = rng(11)
    for _ in range(10):
        n = int(gen.integers(2, 7))
        _assert_certified(gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n)))


@pytest.mark.parametrize("lam", [1.0 + 0.5j, -0.7 + 0.0j])
@pytest.mark.parametrize("size", [2, 3, 4])
def test_eigenvalues_certificate_on_jordan_blocks(size, lam):
    gen = rng(17 * size)
    for _ in range(3):
        _assert_certified(complex_adjoint(_planted_jordan(gen, size, lam)))


def test_eigenvalues_unreachable_tolerance_raises(monkeypatch):
    M = complex_adjoint(random_qmatrix(rng(19), 4))
    monkeypatch.setattr(qspec, "EIG_RESIDUAL_TOL", 1e-20)
    with pytest.raises(NoConvergence):
        eigenvalues(M)


def test_eigenvalues_of_the_zero_matrix():
    # frexp(0) leaves the scale at 1 and the bound at 0: exact zeros pass,
    # anything else is refused
    for n in (1, 4):
        lam = eigenvalues(np.zeros((n, n)))
        assert lam.shape == (n,) and not lam.any()
    np.testing.assert_array_equal(eigenvalues(np.eye(3, k=1)), np.zeros(3))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvals", lambda M: np.full(len(M), 1e-300, dtype=complex))
        with pytest.raises(NoConvergence, match="power sums"):
            eigenvalues(np.zeros((2, 2)))


_EIGVALS = np.linalg.eigvals


def _moved_eigvals(M):
    """eigvals with its largest eigenvalue moved by 1e-3 of itself."""
    lam = _EIGVALS(M)
    i = np.argmax(abs(lam))
    lam[i] += 1e-3 * lam[i]
    return lam


def _nan_eigvals(M):
    lam = _EIGVALS(M)
    lam[0] = complex(math.nan, 0.0)
    return lam


def _multiset_gap(got, want) -> float:
    """Largest distance under the pairing of each value with its nearest."""
    d = abs(got[:, None] - want[None, :])
    assert sorted(d.argmin(axis=1)) == list(range(len(want)))
    return float(d.min(axis=1).max())


@settings(max_examples=60, deadline=None)
@given(st.integers(-1000, 1000))
@example(700)
@example(-700)
def test_eigenvalues_scale_with_powers_of_two(k):
    # at 2^+-700 ||M||_F reads inf or 0, so a bound relative to it proves
    # nothing; the certificate scales by 2^-e first and holds at every k
    M = complex_adjoint(random_qmatrix(rng(3), 6))
    lam = eigenvalues(M)
    scaled = M * math.ldexp(1.0, k)
    got = eigenvalues(scaled)
    want = lam * math.ldexp(1.0, k)
    assert _multiset_gap(got, want) <= 1e-12 * abs(want).max()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvals", _moved_eigvals)
        with pytest.raises(NoConvergence, match="power sums"):
            eigenvalues(scaled)


def _log_ready_matrix() -> QMatrix:
    """A with its spectrum well inside Re > 0, so every reader answers."""
    B = random_qmatrix(rng(171), 3)
    return B + QMatrix.identity(3) * (B.norm * 1.2 + 0.5)


_READERS = {
    "s_spectrum": s_spectrum,
    "radius": lambda A: s_spectral_radius(A, "eig"),
    "distance": lambda A: distance_to_spectrum(A, 0.0),
    "calculus complex_path": lambda A: calculus_sided(A, catalog("exp"), "complex_path"),
    "calculus s_contour": lambda A: calculus_sided(A, catalog("exp"), "s_contour"),
    "log": op_log,
    "neumann": lambda A: q_pencil_inverse(A, Quaternion(0.6, 0.8) * (2.0 * A.norm),
                                          "neumann"),
}


@pytest.mark.parametrize("solver", [_moved_eigvals, _nan_eigvals], ids=["moved", "nan"])
@pytest.mark.parametrize("reader", list(_READERS), ids=list(_READERS))
def test_every_reader_refuses_a_corrupted_eigen_solve(monkeypatch, reader, solver):
    A = _log_ready_matrix()
    _READERS[reader](QMatrix(A.x, A.y))  # answers on an honest solve
    monkeypatch.setattr(np.linalg, "eigvals", solver)
    with pytest.raises(NoConvergence, match="power sums"):
        _READERS[reader](QMatrix(A.x, A.y))


# --------------------------------------------------------- the eigen record

def test_chi_eigenvalues_is_one_read_only_solve(monkeypatch):
    A = random_qmatrix(rng(23), 4)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(1) or eigvals(M))
    lam = A.chi_eigenvalues
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        lam[0] = 0.0
    assert A.chi_eigenvalues is lam
    np.testing.assert_array_equal(lam, eigenvalues(complex_adjoint(A)))
    calls.clear()
    # every tolerance clusters the same solve, and the radius reads it too
    loose = s_spectrum(A, 1e-3)
    assert s_spectrum(A).total_multiplicity() == loose.total_multiplicity()
    assert s_spectral_radius(A, "eig") == float(max(abs(lam)))
    assert calls == []


def test_chi_eigenvalues_does_not_cache_a_failure(monkeypatch):
    A = random_qmatrix(rng(29), 3)
    calls = []

    def failing(M):
        calls.append(1)
        raise NoConvergence("planted failure")

    monkeypatch.setattr(qspec, "eigenvalues", failing)
    for _ in range(2):
        with pytest.raises(NoConvergence, match="planted failure"):
            A.chi_eigenvalues
    assert len(calls) == 2
    monkeypatch.undo()
    assert s_spectrum(A).total_multiplicity() == 3


# ----------------------------------------------------------------- s_spectrum

def test_s_spectrum_of_i_identity():
    for n in (1, 3):
        spheres = s_spectrum(QMatrix.scalar(n, I))
        assert len(spheres.spheres) == 1
        sph, mult = spheres.spheres[0]
        assert mult == n
        assert abs(sph.re) < 1e-12 and abs(sph.im_norm - 1.0) < 1e-12


def test_s_spectrum_of_real_identity():
    spheres = s_spectrum(QMatrix.identity(1))
    assert len(spheres.spheres) == 1
    sph, mult = spheres.spheres[0]
    assert mult == 1
    assert abs(sph.re - 1.0) < 1e-12 and sph.im_norm < 1e-12


def test_s_spectrum_two_spheres():
    A = QMatrix.diag([I, 2.0 * J])
    spheres = s_spectrum(A)
    got = [(s.re, s.im_norm, m) for s, m in spheres.spheres]
    assert len(got) == 2
    for (re, imn, m), want_im in zip(got, (1.0, 2.0)):
        assert m == 1
        assert abs(re) < 1e-10 and abs(imn - want_im) < 1e-10


@pytest.mark.xfail(strict=True, raises=OddRealMultiplicity,
                   reason="a Jordan block's computed eigenvalues spread by about "
                   "eps^(1/k), far beyond the clustering radius, so the conjugate "
                   "pairing of the clusters breaks")
@pytest.mark.parametrize("lam", [1.0 + 0.5j, 1.0])
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("seed", [1000, 1001])
def test_s_spectrum_of_a_defective_block_is_one_sphere(seed, k, lam):
    spheres = s_spectrum(_planted_jordan(rng(seed), k, lam))
    assert len(spheres.spheres) == 1
    assert spheres.spheres[0][1] == k


def test_s_spectrum_multiset_invariants():
    gen = rng(23)
    for _ in range(N_DRAWS):
        n = int(gen.integers(1, 5))
        A = random_qmatrix(gen, n)
        spheres = s_spectrum(A)
        assert spheres.total_multiplicity() == n
        assert len(spheres.spheres) >= 1
        assert spheres.max_abs() <= A.norm + spheres.tol
        # pairwise distinct beyond the clustering tolerance
        reps = [(s.re, s.im_norm) for s, _ in spheres.spheres]
        for a in range(len(reps)):
            for b in range(a + 1, len(reps)):
                gap = math.hypot(reps[a][0] - reps[b][0],
                                 reps[a][1] - reps[b][1])
                assert gap > spheres.tol


def test_sphere_set_match_distance():
    one = SphereSet(((Sphere(0.0, 1.0), 1), (Sphere(2.0, 0.5), 1)), 1e-8)
    same = SphereSet(((Sphere(2.0, 0.5), 1), (Sphere(0.0, 1.0), 1)), 1e-8)
    assert one.match_distance(same) == 0.0
    shifted = SphereSet(((Sphere(1e-3, 1.0), 1), (Sphere(2.0, 0.5), 1)), 1e-8)
    assert abs(one.match_distance(shifted) - 1e-3) < 1e-12
    fewer = SphereSet(((Sphere(0.0, 1.0), 1),), 1e-8)
    assert one.match_distance(fewer) == math.inf


def _brute_force_match_distance(left, right):
    # reference: the best worst-case pairing over every permutation
    a, b = left.expanded(), right.expanded()
    return min(max(a[i].param_distance(b[p].re, b[p].im_norm)
                   for i, p in enumerate(perm))
               for perm in itertools.permutations(range(len(b))))


def test_match_distance_is_optimal_beyond_eight_spheres():
    # pairing in sorted order gives 10.008, matching (0, 0) with (0.4, 10)
    left = [(0.0, 0.0), (0.5, 10.0)] + [(100.0 + k, 0.0) for k in range(7)]
    right = [(0.6, 0.0), (0.4, 10.0)] + [(100.0 + k, 0.0) for k in range(7)]
    one = SphereSet(tuple((Sphere(*p), 1) for p in left), 1e-8)
    two = SphereSet(tuple((Sphere(*p), 1) for p in right), 1e-8)
    assert one.match_distance(two) == pytest.approx(0.6, abs=1e-12)
    assert two.match_distance(one) == pytest.approx(0.6, abs=1e-12)


def test_match_distance_agrees_with_brute_force():
    gen = rng(151)

    def random_set(count):
        # few distinct grid values, so ties and multiplicities occur
        spheres = [(Sphere(float(gen.integers(-3, 4)) / 2,
                           float(gen.integers(0, 4)) / 2), 1)
                   for _ in range(count)]
        return SphereSet(tuple(spheres), 1e-8)

    for _ in range(60):
        count = int(gen.integers(1, 7))
        left, right = random_set(count), random_set(count)
        assert left.match_distance(right) == \
            _brute_force_match_distance(left, right)
    multi = SphereSet(((Sphere(0.0, 1.0), 3),), 1e-8)
    mixed = SphereSet(((Sphere(0.0, 1.0), 1), (Sphere(0.5, 1.0), 2)), 1e-8)
    assert multi.match_distance(mixed) == \
        _brute_force_match_distance(multi, mixed) == 0.5


@pytest.mark.parametrize("value", [np.int64(3), np.float64(3.0), 3.0 + 0j],
                         ids=["int64", "float64", "complex"])
def test_numeric_scalars_coerce(value):
    three = Quaternion(3.0)
    assert QMatrix.diag([value, 1.0]) == QMatrix.diag([three, ONE])
    eye = QMatrix.identity(2)
    assert_matrix_close(q_pencil_inverse(eye, value),
                        q_pencil_inverse(eye, three), 0.0)
    assert classify(QMatrix.diag([value]), value).verdict == "point_spectrum"
    assert classify(eye, value).verdict == "resolvent"


def test_non_numeric_quaternion_raises_type_error():
    eye = QMatrix.identity(2)
    with pytest.raises(TypeError):
        QMatrix.diag(["3", 1.0])
    with pytest.raises(TypeError):
        q_pencil_inverse(eye, "3")
    with pytest.raises(TypeError):
        classify(eye, "3")


def test_sphere_set_contains():
    spheres = s_spectrum(QMatrix.diag([I, 2.0 * J]))
    assert spheres.contains(K)
    assert spheres.contains(2.0 * I)
    assert not spheres.contains(Quaternion(0.0, 1.5))
    assert not spheres.contains(Quaternion(1.0, 1.0))


# ---------------------------------------------------------------- radius

def test_radius_examples():
    assert abs(s_spectral_radius(QMatrix.scalar(2, I)) - 1.0) < 1e-12
    assert s_spectral_radius(QMatrix.zeros(3)) == 0.0
    A = QMatrix.diag([I, 2.0 * J])
    assert abs(s_spectral_radius(A, "eig") - 2.0) < 1e-10


def test_radius_power_zero_matrix():
    assert s_spectral_radius(QMatrix.zeros(2), "power") == 0.0


def test_radius_power_of_a_nilpotent_matrix():
    # A^2 = 0: the first squaring leaves no norm to renormalise by
    A = QMatrix.from_entries([[0.0, 1.0], [0.0, 0.0]])
    assert s_spectral_radius(A, "power") == 0.0


def test_radius_power_answers_where_the_norm_overflows():
    # ||A||_F reads inf at 1e200; the estimate runs at a power-of-two
    # scale, so it neither refuses nor reads a radius of 0.0
    for values, want in (([1e200], 1e200), ([1e200, 2e200 * I], 2e200)):
        got = s_spectral_radius(QMatrix.diag(values), "power")
        assert abs(got - want) <= 0.01 * want
    # a radius of 3.4e308 is no float
    A = QMatrix.from_components(np.full((2, 2), 1.7e308), *np.zeros((3, 2, 2)))
    with pytest.raises(NoConvergence, match="overflows"):
        s_spectral_radius(A, "power")


@settings(max_examples=60, deadline=None)
@given(st.integers(-1000, 1000))
@example(1000)
@example(-1000)
def test_radius_power_scales_with_powers_of_two(k):
    # at 2^+-600 and beyond ||A||_F reads inf or 0
    A = random_qmatrix(rng(37), 3)
    r = s_spectral_radius(A, "power")
    got = s_spectral_radius(A * math.ldexp(1.0, k), "power")
    assert abs(got - math.ldexp(r, k)) <= 0.01 * math.ldexp(r, k)


def test_radius_power_tracks_eig():
    gen = rng(31)
    for _ in range(10):
        n = int(gen.integers(1, 5))
        A = random_qmatrix(gen, n)
        r_eig = s_spectral_radius(A, "eig")
        r_pow = s_spectral_radius(A, "power")
        assert abs(r_pow - r_eig) <= 0.05 * max(r_eig, 1e-12), \
            f"power {r_pow} vs eig {r_eig}"


def test_radius_rejects_unknown_method():
    with pytest.raises(ValueError):
        s_spectral_radius(QMatrix.identity(1), "qr")


# ---------------------------------------------------------------- pencil inverse

@pytest.mark.parametrize("method", ["direct", "neumann"])
def test_pencil_inverse_zero_matrix(method):
    gen = rng(41)
    for _ in range(5):
        q = random_quaternion(gen)
        if abs(q) < 0.3:
            continue
        got = q_pencil_inverse(QMatrix.zeros(2), q, method)
        want = QMatrix.identity(2) * (1.0 / abs(q) ** 2)
        assert_matrix_close(got, want, 1e-12)


@pytest.mark.parametrize("method", ["direct", "neumann"])
def test_pencil_inverse_nilpotent(method):
    A = QMatrix.from_entries([[Quaternion(), Quaternion(1.0)],
                              [Quaternion(), Quaternion()]])
    got = q_pencil_inverse(A, I, method)
    assert_matrix_close(got, QMatrix.identity(2), 1e-12)


@pytest.mark.parametrize("method", ["direct", "neumann"])
def test_pencil_inverse_scalar_example(method):
    A = QMatrix.from_entries([[Quaternion(2.0)]])
    got = q_pencil_inverse(A, Quaternion(3.0), method)
    assert_quat_close(got.entry(0, 0), Quaternion(1.0), 1e-10)


def test_pencil_inverse_singular_on_spectrum():
    with pytest.raises(Singular):
        q_pencil_inverse(QMatrix.from_entries([[J]]), I, "direct")


def test_pencil_inverse_series_diverges_inside_radius():
    A = QMatrix.from_entries([[Quaternion(2.0)]])
    with pytest.raises(SeriesDiverges):
        q_pencil_inverse(A, Quaternion(1.5), "neumann")


def test_pencil_inverse_rejects_unknown_method():
    with pytest.raises(ValueError):
        q_pencil_inverse(QMatrix.identity(1), I, "qr")


def test_pencil_inverse_neumann_matches_direct():
    gen = rng(47)
    for _ in range(10):
        n = int(gen.integers(1, 4))
        A = random_qmatrix(gen, n)
        q = random_unit_quaternion(gen) * (2.0 * A.norm + 0.1)
        direct = q_pencil_inverse(A, q, "direct")
        series = q_pencil_inverse(A, q, "neumann")
        diff = (direct - series).norm
        assert diff <= 1e-8 * direct.norm, f"routes differ by {diff:.3e}"


def test_neumann_coefficients_are_real():
    gen = rng(53)
    for _ in range(20):
        q = random_quaternion(gen)
        if abs(q) < 0.5:
            continue
        coeffs = neumann_coefficients(q, 8)
        assert len(coeffs) == 8
        for a in coeffs:
            assert max(abs(a.b), abs(a.c), abs(a.d)) < 1e-14 * (1 + abs(a))
        assert abs(coeffs[0].a - 1.0 / abs(q) ** 2) < 1e-12


def _neumann_direct_sum(q: Quaternion, count: int) -> list[Quaternion]:
    """a_n = sum_k q^(-k-1) conj(q)^(-n+k-1), summed term by term."""
    qi, qbi = q.inverse(), q.conjugate().inverse()
    pi, pb = [qi], [qbi]
    for _ in range(count):
        pi.append(pi[-1] * qi)
        pb.append(pb[-1] * qbi)
    out = []
    for n in range(count):
        acc = Quaternion()
        for k in range(n + 1):
            acc = acc + pi[k] * pb[n - k]
        out.append(acc)
    return out


def test_neumann_recursion_matches_direct_sum():
    gen = rng(59)
    count = 400
    for modulus in (0.98, 1.02):
        q = random_unit_quaternion(gen) * modulus
        got = neumann_coefficients(q, count)
        want = _neumann_direct_sum(q, count)
        for n, (a, b) in enumerate(zip(got, want)):
            # (n + 1) |q|^(-n-2) bounds every a_n and scales its roundoff
            scale = (n + 1) * abs(q) ** (-n - 2)
            assert abs(a - b) <= 1e-9 * scale, f"a_{n}: {a} vs {b}"
            assert max(abs(a.b), abs(a.c), abs(a.d)) <= 1e-12 * (1 + abs(a))


# ---------------------------------------------------------------- s_resolvent

@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("method", ["formula", "series"])
def test_resolvent_zero_matrix(side, method):
    s = Quaternion(0.5, 1.0, -0.5, 2.0)
    got = s_resolvent(QMatrix.zeros(2), s, side, method)
    want = QMatrix.scalar(2, s.inverse())
    assert_matrix_close(got, want, 1e-12)


@pytest.mark.parametrize("side", ["L", "R"])
def test_resolvent_single_entry_example(side):
    got = s_resolvent(QMatrix.from_entries([[I]]), 2.0 * J, side)
    want = (I + 2.0 * J) * (-1.0 / 3.0)
    assert_quat_close(got.entry(0, 0), want, 1e-12)


@pytest.mark.parametrize("side", ["L", "R"])
def test_resolvent_series_matches_formula(side):
    gen = rng(59)
    for _ in range(8):
        A = random_qmatrix(gen, 2)
        s = random_unit_quaternion(gen) * (2.0 * A.norm + 1.0)
        by_formula = s_resolvent(A, s, side, "formula")
        by_series = s_resolvent(A, s, side, "series")
        diff = (by_formula - by_series).norm
        assert diff <= 1e-8 * (1 + by_formula.norm), \
            f"side {side}: {diff:.3e}"


def test_resolvent_series_diverges_inside_norm():
    A = QMatrix.from_entries([[Quaternion(2.0)]])
    with pytest.raises(SeriesDiverges):
        s_resolvent(A, Quaternion(1.0), "L", "series")


def test_series_raise_no_convergence_at_the_term_cap(monkeypatch):
    # near the radius a series needs far more than three terms
    monkeypatch.setattr(qspec, "SERIES_TERM_CAP", 3)
    A = random_qmatrix(rng(61), 3)
    q = Quaternion(0.6, 0.8) * (1.1 * s_spectral_radius(A, "eig"))
    with pytest.raises(NoConvergence, match="term cap"):
        q_pencil_inverse(A, q, "neumann")
    for side in ("L", "R"):
        with pytest.raises(NoConvergence, match="term cap"):
            s_resolvent(A, Quaternion(0.6, 0.8) * (1.1 * A.norm), side, "series")


def test_series_stop_at_the_first_non_finite_term():
    # an infinite coefficient ends the shared loop at once, one term
    # apart; its 0 * inf entries stay silent (RuntimeWarnings fail the suite)
    coefficients = itertools.chain([1.0, math.inf], itertools.repeat(1.0))
    with pytest.raises(NoConvergence, match="block of terms 1 to 1 is not finite"):
        qspec._power_series(QMatrix.identity(2) * 0.5, coefficients)


def test_doubling_raises_before_a_level_passes_the_term_cap(monkeypatch):
    # with the up-front refusal out of the way, S_2 is summed and S_4
    # would pass a cap of 3 terms
    monkeypatch.setattr(qspec, "SERIES_TERM_CAP", 3)
    monkeypatch.setattr(qspec, "_past_cap", lambda rate: False)
    A = random_qmatrix(rng(61), 3)
    q = Quaternion(0.6, 0.8) * (1.1 * s_spectral_radius(A, "eig"))
    with pytest.raises(NoConvergence, match="term cap"):
        q_pencil_inverse(A, q, "neumann")
    for side in ("L", "R"):
        with pytest.raises(NoConvergence, match="term cap"):
            s_resolvent(A, Quaternion(0.6, 0.8) * (1.1 * A.norm), side, "series")


def test_doubling_stops_at_the_first_non_finite_block():
    # the one loop reads (terms, partial sum) pairs; inf - inf in the
    # block stays silent (RuntimeWarnings fail the suite)
    row = np.eye(2, 4, dtype=complex)
    sums = zip((1, 2, 4, 8), (row, 2 * row, np.full_like(row, math.inf), row))
    with pytest.raises(NoConvergence, match="block of terms 2 to 3 is not finite"):
        qspec._summed(sums, 1.0)


def test_series_loop_raises_at_the_term_cap(monkeypatch):
    # A = I with c_n = 1: the terms never shrink
    monkeypatch.setattr(qspec, "SERIES_TERM_CAP", 50)
    with pytest.raises(NoConvergence, match="term cap"):
        qspec._power_series(QMatrix.identity(2), itertools.repeat(1.0))


def test_series_answer_where_unscaled_powers_overflowed():
    # A^n overflowed near n = 425 before the Neumann series settles at
    # |q| = 1.05 r_S, and 100^n near n = 155 before the resolvent series
    # settles at |s| = 102; at unit scale both are answers
    A = random_qmatrix(rng(1), 8)
    q = Quaternion(1.05 * s_spectral_radius(A, "eig"))
    start = time.perf_counter()
    series = q_pencil_inverse(A, q, "neumann")
    assert time.perf_counter() - start < 5.0
    direct = q_pencil_inverse(A, q, "direct")
    assert (series - direct).norm <= qspec.SERIES_TOL * direct.norm
    for side in ("L", "R"):
        start = time.perf_counter()
        got = s_resolvent(QMatrix.diag([100.0]), 102.0, side, "series")
        assert time.perf_counter() - start < 5.0
        assert_quat_close(got.entry(0, 0), Quaternion(0.5), 0.5 * qspec.SERIES_TOL)


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("s", [102.0, 101.0, 100.5, 100.1])
def test_resolvent_series_tail_within_the_stated_truncation(s, side):
    # at rate 100 / s the tail after the last two small terms is about
    # 1 / (1 - rate) times their size, 50 to 1000 times here; the stop
    # on doubling blocks leaves a tail far below SERIES_TOL
    got = s_resolvent(QMatrix.diag([100.0]), s, side, "series").entry(0, 0)
    want = 1.0 / (s - 100.0)
    assert_quat_close(got, Quaternion(want), qspec.SERIES_TOL * want)


def _qmatrix_power_series(A, coefficients, times=QMatrix.__mul__,
                          tol=qspec.SERIES_TOL, scale=1.0):
    """The series loop on QMatrix objects: times(scale A^n, c_n), A^n by @."""
    total = QMatrix.zeros(A.n)
    last = math.inf
    P = QMatrix.identity(A.n) * scale
    for k, c in enumerate(itertools.islice(coefficients, qspec.SERIES_TERM_CAP)):
        term = times(P, c)
        total = total + term
        assert math.isfinite(term.norm), f"series term {k} is not finite"
        if last + term.norm <= tol * (scale + total.norm):
            return total
        last = term.norm
        P = P @ A
    raise AssertionError("series hit the term cap")


def _quaternion_neumann_terms(q):
    """a_n = (a_(n-1) + q^(-n-1)) conj(q)^-1 in Quaternion arithmetic."""
    qi, qbi = q.inverse(), q.conjugate().inverse()
    power, acc = qi, Quaternion()
    while True:
        acc = (acc + power) * qbi
        yield acc
        power = power * qi


# the references run far past SERIES_TOL, so they pin the sum itself and
# not the point where a loop at SERIES_TOL happens to stop
DEEP_TOL = 1e-18


def _reference_neumann(A, q):
    rho = abs(q)
    coefficients = (a.a for a in _quaternion_neumann_terms(q / rho))
    return _qmatrix_power_series(A * (1.0 / rho), coefficients, tol=DEEP_TOL,
                                 scale=1.0 / rho / rho)


def _reference_resolvent_series(A, s, side):
    rho = abs(s)
    powers = itertools.accumulate(itertools.repeat((s / rho).inverse()),
                                  Quaternion.__mul__)
    times = QMatrix.scalar_right if side == "L" else QMatrix.scalar_left
    return _qmatrix_power_series(A * (1.0 / rho), powers, times, tol=DEEP_TOL,
                                 scale=1.0 / rho)


def _assert_relative(got, want, tol=1e-14):
    d = got.distance(want)
    assert d <= tol * want.norm, f"relative gap {d / want.norm:.3e}"


SERIES_CASES = [(n, ratio) for n in (1, 4, 16) for ratio in (1.05, 2.0)]


@pytest.mark.parametrize("n,ratio", SERIES_CASES)
def test_block_row_neumann_matches_the_qmatrix_loop(n, ratio):
    gen = rng(67 + n)
    A = random_qmatrix(gen, n)
    q = random_unit_quaternion(gen) * (ratio * s_spectral_radius(A, "eig"))
    _assert_relative(q_pencil_inverse(A, q, "neumann"), _reference_neumann(A, q))


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("n,ratio", SERIES_CASES)
def test_block_row_resolvent_matches_the_qmatrix_loop(n, ratio, side):
    gen = rng(71 + n)
    A = random_qmatrix(gen, n)
    s = random_unit_quaternion(gen) * (ratio * A.norm)
    _assert_relative(s_resolvent(A, s, side, "series"),
                     _reference_resolvent_series(A, s, side))


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("size", [0.3, 5.0])
def test_block_row_exponential_matches_the_qmatrix_loop(monkeypatch, n, size):
    A = random_qmatrix(rng(73 + n), n)
    A = A * (size / A.norm)
    got = qcalc.op_exp(A)
    monkeypatch.setattr(qcalc, "_power_series", _qmatrix_power_series)
    _assert_relative(got, qcalc.op_exp(A))


def test_block_row_matches_the_qmatrix_loop_where_unscaled_powers_overflowed():
    A = random_qmatrix(rng(1), 8)
    q = Quaternion(1.05 * s_spectral_radius(A, "eig"))
    _assert_relative(q_pencil_inverse(A, q, "neumann"), _reference_neumann(A, q))
    B = QMatrix.diag([100.0])
    for side in ("L", "R"):
        _assert_relative(s_resolvent(B, 102.0, side, "series"),
                         _reference_resolvent_series(B, Quaternion(102.0), side))


def test_neumann_builds_as_many_qmatrices_near_the_radius_as_far_from_it(monkeypatch):
    # the powers and the sums live in first block rows of chi; only the
    # rescaled input and the answer are QMatrix objects, and each
    # doubling level costs one product, so a series about 14 times
    # longer costs about log2(14) more products
    A = random_qmatrix(rng(79), 6)
    rad = s_spectral_radius(A, "eig")
    built, products = [0], [0]
    init, neumann_sums = QMatrix.__init__, qspec._neumann_sums

    def counted_init(self, x, y):
        built[0] += 1
        init(self, x, y)

    def counted_sums(A, c):
        sums = neumann_sums(A, c)
        yield next(sums)  # S_1 costs no product
        for partial in sums:
            products[0] += 1
            yield partial

    monkeypatch.setattr(QMatrix, "__init__", counted_init)
    monkeypatch.setattr(qspec, "_neumann_sums", counted_sums)
    counts = {}
    for ratio in (1.05, 2.0):
        built[0] = products[0] = 0
        q_pencil_inverse(A, Quaternion(0.6, 0.0, 0.8) * (ratio * rad), "neumann")
        counts[ratio] = (built[0], products[0])
    assert counts[1.05][0] == counts[2.0][0]
    assert counts[2.0][1] < counts[1.05][1] <= counts[2.0][1] + 5, counts


@pytest.mark.parametrize("unit", [2.0 * I, 2.0 * J,
                                  Quaternion(1.0, math.sqrt(3.0)),
                                  Quaternion(-1.0, 0.0, 0.0, math.sqrt(3.0))],
                         ids=["2i", "2j", "pi/3", "2pi/3"])
def test_neumann_matches_direct_where_coefficients_vanish(unit):
    # a_n = sin((n + 1) theta) / sin(theta) at unit scale vanishes at these
    # angles; one small term must not end the sum
    A = random_qmatrix(rng(3), 3)
    q = unit * s_spectral_radius(A, "eig")
    direct = q_pencil_inverse(A, q, "direct")
    series = q_pencil_inverse(A, q, "neumann")
    assert (series - direct).norm <= 1e-10 * direct.norm


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_series_are_scale_invariant(c):
    # Q_(cq)(cA)^-1 = c^-2 Q_q(A)^-1 and c L_(cA)(cs) = L_A(s)
    A = random_qmatrix(rng(1), 8)
    q = Quaternion(0.3, -1.2, 0.5, 0.8)
    q = q * (2.0 * s_spectral_radius(A, "eig") / abs(q))
    s = q * (1.5 * A.norm / abs(q))
    want = q_pencil_inverse(A, q, "neumann")
    got = q_pencil_inverse(A * c, q * c, "neumann") * (c * c)
    assert (got - want).norm <= 1e-13 * want.norm
    for side in ("L", "R"):
        want = s_resolvent(A, s, side, "series")
        got = s_resolvent(A * c, s * c, side, "series") * c
        assert (got - want).norm <= 1e-13 * want.norm


def test_hopeless_series_are_refused_up_front():
    # at unit scale no overflow ends these sums: only the up-front
    # refusal keeps them from running to the term cap for minutes
    for scale in (1.0, 0.1):  # r_S = 3.04 and 0.304
        A = random_qmatrix(rng(1), 4) * scale
        q = Quaternion(s_spectral_radius(A, "eig") * (1.0 + 1e-7))
        start = time.perf_counter()
        with pytest.raises(NoConvergence):
            q_pencil_inverse(A, q, "neumann")
        assert time.perf_counter() - start < 1.0
    for side in ("L", "R"):
        start = time.perf_counter()
        with pytest.raises(NoConvergence):
            s_resolvent(QMatrix.diag([100.0]), 100.0 * (1.0 + 1e-7), side, "series")
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("kind", ["L", "R", "neumann"])
def test_series_near_the_radius_answer_or_are_refused_up_front(kind):
    # _summed returns at 2^19 terms at most, once the block of terms
    # 2^17 to 2^18 is small; a rate it cannot reach is refused before any
    # sum, never after 19 levels at the term cap.  At a real q the Neumann
    # terms grow like n r^n, the slowest case.
    A = QMatrix.diag([100.0])
    outcomes = set()
    for x in [*np.geomspace(1e-3, 5e-5, 40), 2e-4]:
        s = 100.0 * (1.0 + x)
        want = (s - 100.0) ** -2 if kind == "neumann" else 1.0 / (s - 100.0)
        try:
            got = (q_pencil_inverse(A, s, "neumann") if kind == "neumann"
                   else s_resolvent(A, s, kind, "series")).entry(0, 0)
        except NoConvergence as exc:
            msg = str(exc)
            assert "would pass the term cap" in msg or "past the term cap" in msg, msg
            outcomes.add("refused")
        else:
            # the sum is conditioned like 1 / (1 - rate) per pole
            assert_quat_close(got, Quaternion(want), 1e-9 * want)
            outcomes.add("answered")
    assert outcomes == {"answered", "refused"}


@pytest.mark.parametrize("rho", [1e-310, 5e-324])
def test_series_refuse_a_subnormal_point_before_scaling(rho):
    # 1 / rho overflows, and A * inf would raise a RuntimeWarning from
    # 0 * inf on the zero matrix (RuntimeWarnings fail the suite)
    Z = QMatrix.zeros(1)
    with pytest.raises(NoConvergence, match="overflows"):
        s_resolvent(Z, Quaternion(0.0, rho), "L", "series")
    with pytest.raises(NoConvergence, match="overflows"):
        q_pencil_inverse(Z, Quaternion(0.0, rho), "neumann")


def test_resolvent_series_refusal_spares_the_eigen_solve():
    # a nilpotent A fails the norm bound but has r_S = 0; where the bound
    # holds no eigen-solve is run
    N = QMatrix.from_entries([[0.0, 10.0], [0.0, 0.0]])
    s = 10.0000001
    got = s_resolvent(N, s, "L", "series")
    assert_quat_close(got.entry(0, 1), Quaternion(10.0 / s ** 2), 1e-15)
    A = random_qmatrix(rng(5), 4)
    s_resolvent(A, Quaternion(0.0, 1.02 * A.norm), "L", "series")
    assert "chi_eigenvalues" not in vars(A)


def test_resolvent_rejects_bad_arguments():
    A = QMatrix.identity(1)
    with pytest.raises(ValueError):
        s_resolvent(A, 3.0 + 0j, "M")
    with pytest.raises(ValueError):
        s_resolvent(A, 3.0 + 0j, "L", "pade")


# ---------------------------------------------------------------- classify

def test_classify_examples():
    res = classify(QMatrix.from_entries([[J]]), I)
    assert res.verdict == "point_spectrum"
    assert res.smin <= 1e-15

    res = classify(QMatrix.identity(2), I)
    assert res.verdict == "resolvent"

    res = classify(QMatrix.identity(2), Quaternion(1.0))
    assert res.verdict == "point_spectrum"


def test_classify_raises_no_convergence_where_the_pencil_overflows():
    # |q|^2 = 1e400 overflows, and inf * 0 would fill the pencil with NaN
    A = QMatrix.diag([I, Quaternion(2.0)])
    with pytest.raises(NoConvergence):
        classify(A, 1e200)


def test_classify_scales_the_pencil_beyond_unit_modulus():
    # Q_q(A) = rho^2 Q_(q/rho)(A/rho): smin and threshold are the unscaled
    # ones over rho^2, and the verdict is theirs
    gen = rng(63)
    for _ in range(N_DRAWS):
        A = random_qmatrix(gen, int(gen.integers(1, 4)))
        q = random_quaternion(gen) * float(gen.uniform(1.5, 4.0))
        rho = abs(q)
        res = classify(A, q)
        smin = np.linalg.svd(left_mult_rep(q_pencil(A, q)), compute_uv=False)[-1]
        assert res.smin == pytest.approx(smin / rho**2, rel=1e-9, abs=1e-14)
        assert res.threshold == pytest.approx(
            qspec.CLASSIFY_REL_TOL * (1 + A.norm**2) / rho**2, rel=1e-12)
        assert (res.verdict == "point_spectrum") == (res.smin <= res.threshold)
    # where |q|^2 overflows, the far point is in the resolvent
    A = QMatrix.diag([I, Quaternion(2.0)])
    assert classify(A, 2e154).verdict == "resolvent"
    assert classify(A, Quaternion(0.0, 0.0, -2e154, 0.0)).verdict == "resolvent"


def test_classify_verdict_matches_threshold():
    gen = rng(61)
    for _ in range(N_DRAWS):
        A = random_qmatrix(gen, int(gen.integers(1, 4)))
        q = random_quaternion(gen)
        res = classify(A, q)
        assert (res.verdict == "point_spectrum") == (res.smin <= res.threshold)


def test_classify_axially_symmetric():
    gen = rng(67)
    for _ in range(15):
        A = random_qmatrix(gen, 2)
        q = random_quaternion(gen)
        base = classify(A, q)
        s = random_unit_quaternion(gen)
        moved = classify(A, s * q * s.inverse())
        assert moved.verdict == base.verdict
        assert abs(moved.smin - base.smin) <= 1e-10 * (1 + base.smin)


def test_classify_oracle_equivalence():
    # membership through the pencil vs membership through the eigensolver
    gen = rng(71)
    A = random_qmatrix(gen, 3)
    spheres = s_spectrum(A)
    reps = [s for s, _ in spheres.spheres]
    for k in range(200):
        if k % 2 == 0:
            sph = reps[int(gen.integers(len(reps)))]
            u = random_unit_quaternion(gen)
            im = u.imag
            direction = im * (1.0 / abs(im))
            q = Quaternion(sph.re) + direction * sph.im_norm
        else:
            q = random_quaternion(gen)
            if spheres.min_param_distance(q.real, abs(q.imag)) \
                    < 0.05 * (1 + A.norm):
                continue
        on_sphere = spheres.contains(q, 1e-8 * (1 + A.norm))
        verdict = classify(A, q).verdict
        assert (verdict == "point_spectrum") == on_sphere, \
            f"disagreement at {q}"


# ---------------------------------------------------------------- identities

def test_pencil_inverse_factors_on_slice():
    # chi(Q_q(A))^-1 = (qI - chi(A))^-1 (conj(q) I - chi(A))^-1 for slice q
    gen = rng(73)
    for _ in range(10):
        A = random_qmatrix(gen, 2)
        z = complex(gen.normal(), abs(gen.normal()) + 0.1)
        lhs = np.linalg.inv(complex_adjoint(q_pencil(A, Quaternion.from_complex(z))))
        rhs = np.linalg.inv(-delta(A, z)) @ np.linalg.inv(-delta(A, z.conjugate()))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(lhs)))


def test_polynomial_spectral_mapping():
    gen = rng(79)
    for _ in range(8):
        n = int(gen.integers(1, 4))
        A = random_qmatrix(gen, n)
        coeffs = gen.normal(size=int(gen.integers(2, 6)))
        PA = QMatrix.zeros(n)
        for c in reversed(coeffs):
            PA = PA @ A + QMatrix.scalar(n, Quaternion(float(c)))
        image = s_spectrum(PA)
        mapped = []
        for sph, mult in s_spectrum(A).spheres:
            z = complex(sph.re, sph.im_norm)
            w = sum(c * z ** k for k, c in enumerate(coeffs))
            mapped.extend([sphere_of(Quaternion.from_complex(w))] * mult)
        merged: list[tuple[Sphere, int]] = []
        for sph in sorted(mapped, key=lambda s: (s.re, s.im_norm)):
            if merged and merged[-1][0].param_distance(sph.re, sph.im_norm) \
                    <= image.tol:
                merged[-1] = (merged[-1][0], merged[-1][1] + 1)
            else:
                merged.append((sph, 1))
        want = SphereSet(tuple(merged), image.tol)
        gap = image.match_distance(want)
        assert gap <= 1e-6 * (1 + image.max_abs()), f"mapping gap {gap:.3e}"


def test_i_identity_spectrum_is_sphere_not_point():
    # multiplying the identity by i sweeps out the whole unit sphere of
    # imaginary directions, not the single point i
    spheres = s_spectrum(QMatrix.scalar(2, I))
    sph, mult = spheres.spheres[0]
    assert (sph.re, sph.im_norm, mult) == pytest.approx((0.0, 1.0, 2))
    assert spheres.contains(J) and spheres.contains(K)
    assert spheres.contains(I)


# ---------------------------------------------------------------- inverse

def test_quaternion_matrix_inverse_round_trip():
    gen = rng(83)
    for _ in range(10):
        n = int(gen.integers(1, 4))
        A = random_qmatrix(gen, n) + QMatrix.identity(n) * 3.0
        B = quaternion_matrix_inverse(A)
        assert_matrix_close(A @ B, QMatrix.identity(n), 1e-10)
        assert_matrix_close(B @ A, QMatrix.identity(n), 1e-10)


def test_quaternion_matrix_inverse_singular():
    with pytest.raises(Singular):
        quaternion_matrix_inverse(QMatrix.zeros(2))


# ---------------------------------------------------------------- distance

def test_distance_scalar_example():
    out = distance_to_spectrum(QMatrix.from_entries([[Quaternion(2.0)]]), 0.0)
    assert abs(out.geometric - 2.0) < 1e-12
    assert abs(out.via_radius - 2.0) < 1e-10


def test_distance_two_sphere_example():
    out = distance_to_spectrum(QMatrix.diag([I, 2.0 * J]), 0.0)
    assert abs(out.geometric - 1.0) < 1e-10
    assert abs(out.via_radius - 1.0) < 1e-10


def test_distance_alpha_on_spectrum():
    with pytest.raises(AlphaInSpectrum):
        distance_to_spectrum(QMatrix.identity(2), 1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "minus-inf"])
def test_distance_rejects_non_finite_alpha(alpha):
    with pytest.raises(NonFiniteEntry):
        distance_to_spectrum(QMatrix.from_entries([[Quaternion(2.0)]]), alpha)


@pytest.mark.parametrize("lam", [1.0 + 0.5j, 1.0])
def test_distance_reads_the_eigenvalues_of_a_defective_block(lam):
    # the geometric value is min |lambda - alpha| over the eigenvalues of
    # chi(A), so a 3 x 3 Jordan block, whose eigenvalues spread beyond
    # the clustering radius, needs no sphere; their spread of about 1e-5
    # can still split the two routes beyond CROSS_CHECK_TOL, which is
    # refused as NoConvergence, never as a parity failure
    gen = rng(401)
    answered = 0
    for _ in range(10):
        A = _planted_jordan(gen, 3, lam)
        try:
            geo, via = distance_to_spectrum(A, -1.0)
        except NoConvergence as exc:
            assert "cross-check" in str(exc)
            continue
        assert geo == float(np.abs(A.chi_eigenvalues + 1.0).min())
        assert abs(geo - via) <= qspec.CROSS_CHECK_TOL * (1.0 + geo)
        answered += 1
    assert answered >= 5


def test_distance_routes_agree():
    gen = rng(89)
    for _ in range(10):
        A = random_qmatrix(gen, int(gen.integers(1, 4)))
        alpha = float(gen.choice([-1.0, 1.0])) \
            * (A.norm + 0.5 + float(gen.uniform(0.0, 1.0)))
        out = distance_to_spectrum(A, alpha)
        assert abs(out.geometric - out.via_radius) <= 1e-8 * (1 + out.geometric)
