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

EIG_RESIDUAL_TOL = 1e-8  # eigen-residual bound relative to ||M||_F
CLUSTER_REL_TOL = 1e-8  # default clustering radius over 1 + ||A||_F
SERIES_TOL = 1e-12  # relative size of the last two series terms
CROSS_CHECK_TOL = 1e-6  # relative gap between the two distances
SERIES_TERM_CAP = 10 ** 6


def eigenvalues(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex matrix, residual checked.

    The backend solver is free; the contract is that every returned
    lambda satisfies smin(lambda I - M) <= EIG_RESIDUAL_TOL * ||M||_F.  The
    certificate is the eigenvector residual ||M v - lambda v|| / ||v||
    of each computed pair: for any nonzero v it bounds
    smin(lambda I - M) from above, so a residual within the bound proves
    the contract without a singular value decomposition.  Backward
    stability of the solver keeps it near eps * ||M||, defective
    eigenvalues included.  Failure of either the solver or the check,
    a non-finite residual among them, raises NoConvergence.
    """
    M = np.asarray(M, dtype=complex)
    try:
        lam, V = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    scale = float(np.linalg.norm(M))
    residual = (np.linalg.norm(M @ V - V * lam, axis=0)
                / np.linalg.norm(V, axis=0))
    worst = float(residual.max(initial=0.0))
    if not worst <= EIG_RESIDUAL_TOL * scale:
        raise NoConvergence(f"eigenvalue residual {worst:.3e} exceeds "
                            f"{EIG_RESIDUAL_TOL:.1e} * {scale:.3e}")
    order = np.lexsort((lam.imag, lam.real))
    return lam[order]


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
    renormalization, halting when estimates agree to 1 percent.
    """
    if method == "eig":
        return float(max(abs(A.chi_eigenvalues)))
    if method != "power":
        raise ValueError(f"unknown method {method!r}")
    nrm = A.norm
    if not math.isfinite(nrm):
        raise NoConvergence(f"power estimate of a matrix of norm {nrm}")
    if nrm == 0.0:
        return 0.0
    C = A * (1.0 / nrm)
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
                return est
        est_prev = est
    raise NoConvergence("power estimate did not settle within 60 doublings")


def _neumann_terms(q: Quaternion):
    """Yield a_0, a_1, ... through a_n = (a_(n-1) + q^(-n-1)) conj(q)^-1.

    The recursion is exact: splitting the k = n term off the defining
    sum leaves a_(n-1) times conj(q)^-1, so each coefficient costs two
    quaternion products instead of n + 1.
    """
    qi = q.inverse()
    qbi = q.conjugate().inverse()
    power = qi
    acc = Quaternion()
    while True:
        acc = (acc + power) * qbi
        yield acc
        power = power * qi


def neumann_coefficients(q: Quaternion, count: int) -> list[Quaternion]:
    """Coefficients a_n = sum_k q^(-k-1) conj(q)^(-n+k-1), n < count.

    Computed in honest quaternion arithmetic; each a_n is real up to
    roundoff, which callers may verify through its imaginary components.
    """
    return list(itertools.islice(_neumann_terms(q), count))


def _power_series(A: QMatrix, coefficients, times=QMatrix.__mul__,
                  tol: float = SERIES_TOL, scale: float = 1.0) -> QMatrix:
    """Sum of times(scale A^n, c_n) over c_0, c_1, ..., for A at unit scale.

    The one series loop: it stops once two consecutive terms are within
    tol * (scale + ||sum||) together, and raises NoConvergence at the
    first non-finite term or at SERIES_TERM_CAP terms.
    """
    total = QMatrix.zeros(A.n)
    last = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        P = QMatrix.identity(A.n) * scale
        for k, c in enumerate(itertools.islice(coefficients, SERIES_TERM_CAP)):
            term = times(P, c)
            total = total + term
            if not math.isfinite(term.norm):
                raise NoConvergence(f"series term {k} is not finite")
            if last + term.norm <= tol * (scale + total.norm):
                return total
            last = term.norm
            P = P @ A
    raise NoConvergence("series hit the term cap")


def _past_cap(rate: float) -> bool:
    """Whether terms shrinking like rate^n need more than SERIES_TERM_CAP."""
    return rate > 0.0 and math.log(rate) * SERIES_TERM_CAP > math.log(SERIES_TOL)


def _real_parts(coefficients):
    for a in coefficients:
        if max(abs(a.b), abs(a.c), abs(a.d)) > 1e-12 * (1.0 + abs(a)):
            raise NoConvergence("series coefficient lost realness")
        yield a.a


def _neumann_pencil_inverse(A: QMatrix, q: Quaternion) -> QMatrix:
    rad = s_spectral_radius(A, "eig")
    rho = abs(q)
    if rho <= rad * (1.0 + 1e-12):
        raise SeriesDiverges(f"|q| = {rho:.6g} is inside the spectral radius {rad:.6g}")
    if _past_cap(rad / rho):
        raise NoConvergence(f"|q| / r_S = {rho / rad:.12g} would pass the term cap")
    # Q_q(A)^-1 = rho^-2 Q_(q/rho)(A/rho)^-1
    return _power_series(A * (1.0 / rho), _real_parts(_neumann_terms(q / rho)),
                         scale=1.0 / rho / rho)


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
    a_n, valid for |q| beyond the spectral radius, summed at unit scale
    to SERIES_TOL relative, or refused up front past SERIES_TERM_CAP.
    Singularity of the pencil raises Singular.
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
              valid for |s| > ||A||, summed at unit scale to SERIES_TOL
              relative, or refused up front past SERIES_TERM_CAP.
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
    si = (s / rho).inverse()
    times = QMatrix.scalar_right if side == "L" else QMatrix.scalar_left
    return _power_series(A * (1.0 / rho), itertools.accumulate(
        itertools.repeat(si), Quaternion.__mul__), times, scale=1.0 / rho)


class Classification(NamedTuple):
    verdict: str  # "point_spectrum" or "resolvent"
    smin: float
    threshold: float


def classify(A: QMatrix, q) -> Classification:
    """Spectral membership test through the pencil, no eigenvalues involved.

    q lies on the S-spectrum exactly when the real representation of
    Q_q(A) is singular; numerically, when its smallest singular value
    drops below 1e-10 * (1 + ||A||^2).
    """
    q = as_quaternion(q)
    rep = left_mult_rep(q_pencil(A, q))
    smin = float(np.linalg.svd(rep, compute_uv=False)[-1])
    threshold = CLASSIFY_REL_TOL * (1.0 + A.norm ** 2)
    verdict = "point_spectrum" if smin <= threshold else "resolvent"
    return Classification(verdict, smin, threshold)


def quaternion_matrix_inverse(A: QMatrix) -> QMatrix:
    """Inverse of an invertible quaternion matrix via its complex adjoint."""
    M = complex_adjoint(A)
    return _checked_inverse(M, 1e-14 * (1.0 + float(np.linalg.norm(M))),
                            "matrix")


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
