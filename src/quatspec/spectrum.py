"""The S-spectrum of a quaternionic matrix and the maps that probe it.

Every spectral question about a quaternion matrix A is answered through
the complex adjoint chi(A): its eigenvalues come in conjugate pairs and
their conjugation spheres form the S-spectrum.  The pencil

    Q_q(A) = A^2 - 2 Re(q) A + |q|^2 I

is singular exactly on those spheres, which gives an independent
membership test that never mentions eigenvalues.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AlphaInSpectrum,
    NoConvergence,
    NonFiniteEntry,
    OddRealMultiplicity,
    SeriesDiverges,
    Singular,
    UsageError,
)
from .operators import (
    QMatrix,
    _embed,
    _product,
    _row_times,
    _split,
    complex_adjoint,
    from_complex_adjoint,
    left_mult_rep,
    q_pencil,
)
from .quaternion import Quaternion, Sphere, as_quaternion

__all__ = [
    "eigenvalues",
    "SphereSet",
    "s_spectrum",
    "s_spectral_radius",
    "neumann_coefficients",
    "q_pencil_inverse",
    "s_resolvent",
    "Classification",
    "classify",
    "DistanceResult",
    "distance_to_spectrum",
    "quaternion_matrix_inverse",
]

# Relative threshold on the smallest singular value of the pencil's real
# representation, below which a point is declared spectral.
CLASSIFY_REL_TOL = 1e-10

EIG_RESIDUAL_TOL = 1e-8  # backward-error level of the eigen-solve, relative to ||M||_F
CLUSTER_REL_TOL = 1e-8  # default clustering radius over 1 + ||A||_F
SERIES_TOL = 1e-12  # relative size of the last two doubling blocks of a series
CROSS_CHECK_TOL = 1e-6  # relative gap between the two distances
SERIES_TERM_CAP = 10 ** 6


def eigenvalues(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex matrix, certified by their power sums.

    No eigenvectors are solved for.  With U = 2^-e M and mu = 2^-e lambda,
    e the binary exponent of M's largest |entry| (0 for the zero matrix,
    where only exact zeros pass), |sum mu^k - tr U^k| must stay within
    k * EIG_RESIDUAL_TOL * ||U||_F^k for k = 1..4: the first-order reach
    of a backward error of EIG_RESIDUAL_TOL * ||U||_F, well conditioned on
    clusters, defective ones included.  It does not prove smin(lambda I -
    M) <= EIG_RESIDUAL_TOL * ||M||_F for each lambda.  A failed solve, a
    value that is not finite or a larger gap raises NoConvergence.
    """
    M = np.ascontiguousarray(M, dtype=complex)
    try:
        lam = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    e, k = -math.frexp(np.abs(M).max(initial=0.0))[1], np.arange(1, 5)
    with np.errstate(over="ignore", invalid="ignore"):
        U, mu = (np.ldexp(X.view(float), e).view(complex) for X in (M, lam))
        U2 = U @ U
        # tr U^3 and tr U^4 are the sums of U^2 o U^T and U^2 o (U^2)^T
        traces = (U.trace(), U2.trace(), *np.einsum("ij,kji->k", U2, (U, U2)))
        gap = abs((mu[:, None] ** k).sum(axis=0) - traces)
    if not (gap <= EIG_RESIDUAL_TOL * k * _frobenius(U) ** k).all():
        raise NoConvergence(f"eigenvalue power sums miss the traces by {gap.max():.3e}")
    return lam[np.lexsort((lam.imag, lam.real))]


@dataclass(frozen=True)
class SphereSet:
    """Finite union of conjugation spheres with multiplicities."""

    spheres: tuple[tuple[Sphere, int], ...]
    tol: float

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.spheres)

    def max_abs(self) -> float:
        return max(s.abs_max() for s, _ in self.spheres)

    def min_param_distance(self, alpha: float, beta: float) -> float:
        return min(s.param_distance(alpha, beta) for s, _ in self.spheres)

    def contains(self, q: Quaternion, tol: float | None = None) -> bool:
        t = self.tol if tol is None else tol
        return self.min_param_distance(q.real, abs(q.imag)) <= t

    def expanded(self) -> list[Sphere]:
        out = []
        for s, m in self.spheres:
            out.extend([s] * m)
        return out

    def match_distance(self, other: "SphereSet") -> float:
        """Smallest worst-case pairing distance between the two multisets.

        Infinite when total multiplicities differ.  Exact bottleneck
        matching: binary search over the sorted pair distances for the
        least one under which augmenting paths pair every sphere.
        """
        left = self.expanded()
        right = other.expanded()
        if len(left) != len(right):
            return math.inf
        dist = [[a.param_distance(b.re, b.im_norm) for b in right] for a in left]

        def pairs_all(limit: float) -> bool:
            owner = [-1] * len(right)

            def augment(i: int, seen: set) -> bool:
                for j, d in enumerate(dist[i]):
                    if d <= limit and j not in seen:
                        seen.add(j)
                        if owner[j] < 0 or augment(owner[j], seen):
                            owner[j] = i
                            return True
                return False

            return all(augment(i, set()) for i in range(len(left)))

        # pairs_all is monotone in the limit; the largest distance passes
        cands = sorted({d for row in dist for d in row})
        return cands[bisect.bisect_left(cands, True, key=pairs_all)] if cands else 0.0


def _cluster(points: list[tuple[float, float]], tol: float) -> list[list[int]]:
    # single linkage union-find; n is small
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if math.hypot(points[i][0] - points[j][0],
                          points[i][1] - points[j][1]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _checked_tol(tol: float) -> float:
    """tol itself when finite and non-negative; otherwise UsageError."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"tolerance must be finite and non-negative, got {tol}")
    return tol


def s_spectrum(A: QMatrix, tol: float | None = None) -> SphereSet:
    """Conjugation spheres of the eigenvalues of chi(A), A.chi_eigenvalues.

    Every tolerance (default CLUSTER_REL_TOL * (1 + ||A||)) clusters that
    one solve in the (re, |im|) half plane; a given tol must be finite and
    non-negative (else UsageError).  A cluster on the real axis
    must hold an even number of eigenvalues, half of which count toward
    its multiplicity; otherwise OddRealMultiplicity is raised.
    """
    tol = CLUSTER_REL_TOL * (1.0 + A.norm) if tol is None else _checked_tol(tol)
    lam = A.chi_eigenvalues
    pts = [(float(lv.real), float(abs(lv.imag))) for lv in lam]
    spheres: list[tuple[Sphere, int]] = []
    for members in _cluster(pts, tol):
        alpha = sum(pts[i][0] for i in members) / len(members)
        beta = sum(pts[i][1] for i in members) / len(members)
        if beta <= tol:
            if len(members) % 2:
                raise OddRealMultiplicity(
                    f"real cluster at {alpha:.6g} holds {len(members)} eigenvalues")
            spheres.append((Sphere(alpha, 0.0), len(members) // 2))
        else:
            mult = sum(1 for i in members if lam[i].imag > 0)
            if 2 * mult != len(members):
                raise OddRealMultiplicity(
                    f"conjugate pairing broke at ({alpha:.6g}, {beta:.6g})")
            spheres.append((Sphere(alpha, beta), mult))
    spheres.sort(key=lambda t: (t[0].re, t[0].im_norm))
    out = SphereSet(tuple(spheres), tol)
    if out.total_multiplicity() != A.n:
        raise OddRealMultiplicity("sphere multiplicities do not sum to n")
    if out.max_abs() > A.norm + tol:
        raise NoConvergence("spectral sphere escaped the norm ball")
    return out


def s_spectral_radius(A: QMatrix, method: str = "eig") -> float:
    """Largest norm over the S-spectrum.

    "eig" reads it off the eigenvalues of chi(A), A.chi_eigenvalues.
    "power" estimates lim ||A^N||^(1/N) by repeated squaring with
    renormalization, halting when estimates agree to 1 percent.  It runs
    on 2^-e A, e the binary exponent of A's largest |entry|, and scales
    the estimate back by 2^e, so no norm underflows or overflows on the
    way; an estimate beyond the largest float raises NoConvergence.
    """
    if method == "eig":
        return float(max(abs(A.chi_eigenvalues)))
    if method != "power":
        raise ValueError(f"unknown method {method!r}")
    e = math.frexp(max(np.abs(A.x).max(initial=0.0), np.abs(A.y).max(initial=0.0)))[1]
    C = QMatrix(*(np.ldexp(np.ascontiguousarray(X).view(float), -e).view(complex)
                  for X in (A.x, A.y)))
    nrm = C.norm
    if not math.isfinite(nrm):
        raise NoConvergence(f"power estimate of a matrix of norm {nrm}")
    if nrm == 0.0:
        return 0.0
    C = C * (1.0 / nrm)
    log_gamma = math.log(nrm)
    est_prev = None
    for m in range(1, 61):
        C2 = C @ C
        eta = C2.norm
        if eta == 0.0:
            return 0.0
        C = C2 * (1.0 / eta)
        log_gamma = 2.0 * log_gamma + math.log(eta)
        est = math.exp(log_gamma / (1 << m))
        if est_prev is not None and m >= 3:
            if abs(est - est_prev) <= 0.01 * max(est, 1e-300):
                try:
                    return math.ldexp(est, e)
                except OverflowError:
                    raise NoConvergence(f"power estimate {est:.6g} * 2^{e} overflows") from None
        est_prev = est
    raise NoConvergence("power estimate did not settle within 60 doublings")


def neumann_coefficients(q: Quaternion, count: int) -> list[Quaternion]:
    """Coefficients a_n = sum_k q^(-k-1) conj(q)^(-n+k-1), n < count.

    They are the real Taylor coefficients of 1 / (x^2 - 2 Re(q) x + |q|^2),
    so a_0 = |q|^-2 and a_n = (2 Re(q) a_(n-1) - a_(n-2)) / |q|^2, with
    |q|^-2 taken from q.inverse() (ZeroDivisor at q = 0).
    """
    inv_sq = q.inverse().norm_sq()
    out, prev, a = [], 0.0, inv_sq
    for _ in range(count):
        out.append(Quaternion(a))
        prev, a = a, (2.0 * q.real * a - prev) * inv_sq
    return out


def _frobenius(M: np.ndarray) -> float:
    return math.sqrt(np.vdot(M, M).real)


def _power_series(A: QMatrix, coefficients, tol: float = SERIES_TOL) -> QMatrix:
    """Sum of A^n c_n over real c_0, c_1, ..., one term per step.

    The Taylor loop of op_exp, whose coefficients have no product rule
    for _doubling.  It carries A^n as the first block row
    [x_n, -conj(y_n)] of chi(A^n), an n x 2n complex array that one
    product with chi(A) advances, and keeps the sum in the same layout;
    a row's Frobenius norm is that of its matrix.  The loop stops once
    two consecutive terms are within tol * (1 + ||sum||) together, and
    raises NoConvergence at the first non-finite term or at
    SERIES_TERM_CAP terms.
    """
    n = A.n
    step = complex_adjoint(A)
    total = np.zeros((n, 2 * n), dtype=complex)
    last = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        row = np.eye(n, 2 * n, dtype=complex)
        for k, c in enumerate(itertools.islice(coefficients, SERIES_TERM_CAP)):
            term = c * row
            total += term
            size = _frobenius(term)
            if not math.isfinite(size):
                raise NoConvergence(f"series term {k} is not finite")
            if last + size <= tol * (1.0 + _frobenius(total)):
                return QMatrix(total[:, :n], -total[:, n:].conjugate())
            last = size
            row = row @ step
    raise NoConvergence("series hit the term cap")


def _chi(row: np.ndarray) -> np.ndarray:
    """chi(X) rebuilt from its first block row [x, -conj(y)]."""
    n = row.shape[0]
    return _embed(row[:, :n], -row[:, n:].conjugate())


def _doubling(sums, scale: float) -> QMatrix:
    """scale times the sum of a series from its partial sums S_1, S_2, S_4, ...

    sums yields each S_N as the first block row of chi(S_N), at unit
    scale, one matrix product per level, so N terms cost about log2 N
    products.  The loop stops once the last two blocks, S_N - S_(N/2)
    and S_2N - S_N, are within SERIES_TOL * (1 + ||S_2N||) together.
    Where the terms shrink like r^n, the tail after S_2N is about r^N
    times the last block, far below either block at the stop.  A block
    that is not finite, a level that would pass SERIES_TERM_CAP terms and
    a scaled sum that is not finite raise NoConvergence.
    """
    last = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        total, terms = next(sums), 1
        while 2 * terms <= SERIES_TERM_CAP:
            partial = next(sums)
            size = _frobenius(partial - total)
            if not math.isfinite(size):
                raise NoConvergence(
                    f"series block of terms {terms} to {2 * terms - 1} is not finite")
            total, terms = partial, 2 * terms
            if last + size <= SERIES_TOL * (1.0 + _frobenius(total)):
                total = total * scale
                if not np.isfinite(total).all():
                    raise NoConvergence(f"the series sum times {scale:.6g} overflows")
                n = total.shape[0]
                return QMatrix(total[:, :n], -total[:, n:].conjugate())
            last = size
    raise NoConvergence("series hit the term cap")


def _neumann_sums(A: QMatrix, c: float):
    """Rows of S_N = sum_(n<N) U_n(c) A^n for N = 1, 2, 4, ...

    U_n are the Chebyshev polynomials of the second kind.  With
    T_N = sum_(n<N) U_(n-1) A^n and P_N = A^N, the rule
    U_(m+n) = U_m U_n - U_(m-1) U_(n-1) doubles both sums:

        S_2N = S_N + (U_N S_N - U_(N-1) T_N) P_N,
        T_2N = T_N + (U_(N-1) S_N - U_(N-2) T_N) P_N.

    S_N and T_N are real polynomials in A, so P_N commutes with them and
    one product of the three stacked rows with chi(P_N) gives both
    blocks and P_2N.  The same rule doubles the three U values.
    """
    n = A.n
    S = np.eye(n, 2 * n, dtype=complex)
    T = np.zeros_like(S)
    P = complex_adjoint(A)[:n]
    u = (2.0 * c, 1.0, 0.0)  # U_N, U_(N-1), U_(N-2) at N = 1
    while True:
        yield S
        uN, u1, u2 = u
        stack = np.concatenate((uN * S - u1 * T, u1 * S - u2 * T, P)) @ _chi(P)
        S, T, P = S + stack[:n], T + stack[n:2 * n], stack[2 * n:]
        u = (uN * uN - u1 * u1, uN * u1 - u1 * u2, u1 * u1 - u2 * u2)


def _resolvent_sums(A: QMatrix, sigma, side: str):
    """Rows of S_N = sum_(n<N) A^n sigma^(n+1) (side L) or
    sum_(n<N) sigma^(n+1) A^n (side R) for N = 1, 2, 4, ...

    sigma is a split pair.  Right scalars associate, so with P_N = A^N
    the next block is P_N S_N sigma^N on side L, one product of P_N's
    row with [chi(S_N) | chi(P_N)], and sigma^N S_N P_N on side R, one
    product of the stacked rows of S_N and P_N with chi(P_N).  Each
    product also gives P_2N, and sigma^N is squared once per level.
    """
    n = A.n
    edge = "right" if side == "L" else "left"
    S = _row_times(np.eye(n, 2 * n, dtype=complex), *sigma, edge)
    P = complex_adjoint(A)[:n]
    while True:
        yield S
        if side == "L":
            stack = P @ np.concatenate((_chi(S), _chi(P)), axis=1)
            block, P = stack[:, :2 * n], stack[:, 2 * n:]
        else:
            stack = np.concatenate((S, P)) @ _chi(P)
            block, P = stack[:n], stack[n:]
        S = S + _row_times(block, *sigma, edge)
        sigma = _product(*sigma, *sigma, operator.mul)


def _past_cap(rate: float) -> bool:
    """Whether terms shrinking like rate^n, 0 <= rate < 1, pass _doubling's reach.

    Its last level L, the largest power of two within SERIES_TERM_CAP,
    returns only once the block of terms m = L/4 to L/2 is small against
    the sum: about rate^m (1 + m (1 - rate)) <= SERIES_TOL where the
    terms grow like n rate^n, as the Neumann terms at a real q do, and
    less where they shrink like rate^n.  The rule asks the former, so it
    refuses rates past about 1 - 31 / 2^17.
    """
    m = max(1, (1 << SERIES_TERM_CAP.bit_length()) >> 3)
    return rate > 0.0 and (math.log(rate) * m + math.log1p(m * (1.0 - rate))
                           > math.log(SERIES_TOL))


def _reciprocal(rho: float, what: str) -> float:
    """1 / rho, refused with NoConvergence where it overflows."""
    inv = 1.0 / rho
    if not math.isfinite(inv):
        raise NoConvergence(f"1 / {what} = 1 / {rho:.6g} overflows")
    return inv


def _neumann_pencil_inverse(A: QMatrix, q: Quaternion) -> QMatrix:
    rad = s_spectral_radius(A, "eig")
    rho = abs(q)
    if rho <= rad * (1.0 + 1e-12):
        raise SeriesDiverges(f"|q| = {rho:.6g} is inside the spectral radius {rad:.6g}")
    if _past_cap(rad / rho):
        raise NoConvergence(f"|q| / r_S = {rho / rad:.12g} would pass the term cap")
    # Q_q(A)^-1 = rho^-2 sum_n U_n(c) (A / rho)^n with c = Re(q) / rho
    inv = _reciprocal(rho, "|q|")
    return _doubling(_neumann_sums(A * inv, q.real / rho), inv / rho)


def _checked_inverse(M: np.ndarray, floor: float, what: str) -> QMatrix:
    """Pull-back of M^-1 for a complex adjoint M; Singular when smin(M) <= floor."""
    smin = np.linalg.svd(M, compute_uv=False)[-1]
    if smin <= floor:
        raise Singular(f"{what} is singular (smin = {smin:.3e})")
    return from_complex_adjoint(np.linalg.inv(M))


def q_pencil_inverse(A: QMatrix, q, method: str = "direct") -> QMatrix:
    """Inverse of the pencil Q_q(A).

    "direct" inverts the complex adjoint and pulls the result back.
    "neumann" sums Q_q(A)^-1 = sum_n a_n A^n with the real coefficients
    a_n, valid for |q| beyond the spectral radius, at unit scale by
    doubling until two consecutive blocks are within SERIES_TOL relative,
    or refuses up front past SERIES_TERM_CAP.  Its stop is an estimate:
    r_S / |q| is the rate of the terms only asymptotically.  It never
    solves chi(Q_q(A)).  Singularity of the pencil raises Singular.
    """
    q = as_quaternion(q)
    if method == "neumann":
        return _neumann_pencil_inverse(A, q)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    return _checked_inverse(complex_adjoint(q_pencil(A, q)),
                            CLASSIFY_REL_TOL * (1.0 + A.norm ** 2), "pencil")


def s_resolvent(A: QMatrix, s, side: str = "L",
                method: str = "formula") -> QMatrix:
    """Left or right S-resolvent of A at s.

    formula:  L(s) = -Q_s(A)^-1 (A - conj(s) I)
              R(s) = -(A - conj(s) I) Q_s(A)^-1
    series:   L(s) = sum A^n s^(-n-1),  R(s) = sum s^(-n-1) A^n,
              valid for |s| > ||A||, summed at unit scale by doubling
              until two consecutive blocks are within SERIES_TOL
              relative, or refused up front past SERIES_TERM_CAP.  The
              terms shrink at least like (||A|| / |s|)^n, so the tail
              left after 2N terms is about (||A|| / |s|)^N times the
              last block.
    """
    s = as_quaternion(s)
    if side not in ("L", "R"):
        raise ValueError(f"side must be L or R, not {side!r}")
    n = A.n
    if method == "formula":
        Qinv = q_pencil_inverse(A, s, "direct")
        B = A - QMatrix.scalar(n, s.conjugate())
        return -(Qinv @ B) if side == "L" else -(B @ Qinv)
    if method != "series":
        raise ValueError(f"unknown method {method!r}")
    rho = abs(s)
    if rho <= A.norm:
        raise SeriesDiverges(
            f"|s| = {rho:.6g} is not beyond the norm bound {A.norm:.6g}")
    # the eigen-solve is read only when the norm bound fails
    if _past_cap(A.norm / rho) and _past_cap(s_spectral_radius(A, "eig") / rho):
        raise NoConvergence(f"|s| = {rho:.12g} is too near r_S: past the term cap")
    # L_A(s) = rho^-1 L_(A/rho)(s/rho), and R likewise
    inv = _reciprocal(rho, "|s|")
    return _doubling(_resolvent_sums(A * inv, _split((s / rho).inverse()), side), inv)


class Classification(NamedTuple):
    verdict: str  # "point_spectrum" or "resolvent"
    smin: float
    threshold: float


def classify(A: QMatrix, q) -> Classification:
    """Spectral membership test through the pencil, no eigenvalues involved.

    q lies on the S-spectrum exactly when the real representation of
    Q_q(A) is singular; numerically, when its smallest singular value
    drops below 1e-10 * (1 + ||A||^2).  For rho = |q| > 1 the test runs
    on Q_q(A) / rho^2 = Q_(q/rho)(A/rho) against the threshold divided
    by rho^2, so it holds where |q|^2 overflows, and smin and threshold
    are those of the scaled pencil.  A scaled threshold that underflows
    to zero leaves no numerical test and raises NoConvergence.
    """
    q = as_quaternion(q)
    rho = max(1.0, abs(q))
    if rho > 1.0:
        A, q = A * (1.0 / rho), q / rho
    rep = left_mult_rep(q_pencil(A, q))
    smin = float(np.linalg.svd(rep, compute_uv=False)[-1])
    threshold = CLASSIFY_REL_TOL * ((1.0 / rho) ** 2 + A.norm ** 2)
    if threshold == 0.0:
        raise NoConvergence(f"the membership threshold at |q| = {rho:.6g} underflows")
    verdict = "point_spectrum" if smin <= threshold else "resolvent"
    return Classification(verdict, smin, threshold)


def quaternion_matrix_inverse(A: QMatrix) -> QMatrix:
    """Inverse of an invertible quaternion matrix via its complex adjoint.

    The singularity floor 1e-14 (1 + ||M||_F) prescales the norm by the
    largest |entry|, so it stays finite wherever the entries are.
    """
    M = complex_adjoint(A)
    big = float(np.abs(M).max())
    norm = big * float(np.linalg.norm(M / big)) if big else 0.0
    return _checked_inverse(M, 1e-14 * (1.0 + norm), "matrix")


class DistanceResult(NamedTuple):
    geometric: float
    via_radius: float


def distance_to_spectrum(A: QMatrix, alpha: float) -> DistanceResult:
    """Distance from a real point to the S-spectrum, computed two ways.

    Geometrically it is the least |lambda - alpha| over A.chi_eigenvalues,
    the eigenvalues of chi(A); it also equals 1 / r_S((alpha I - A)^-1).
    Both values are returned and cross-checked.  A spectral alpha raises
    AlphaInSpectrum, a NaN or an infinity NonFiniteEntry.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise NonFiniteEntry(f"alpha must be finite, got {alpha}")
    if classify(A, Quaternion(alpha)).verdict == "point_spectrum":
        raise AlphaInSpectrum(f"alpha = {alpha:.6g} lies on the S-spectrum")
    geo = float(np.abs(A.chi_eigenvalues - alpha).min())
    B = QMatrix.scalar(A.n, Quaternion(alpha)) - A
    r = s_spectral_radius(quaternion_matrix_inverse(B), "eig")
    via = 1.0 / r
    if abs(geo - via) > CROSS_CHECK_TOL * (1.0 + geo):
        raise NoConvergence(
            f"distance cross-check failed: {geo:.12g} vs {via:.12g}")
    return DistanceResult(geo, via)
