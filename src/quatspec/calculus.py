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
two routes is a genuine cross-check rather than a restatement.  Both
routes feed one nested trapezoid loop (_trapezoid), which sums the
nodes by rule and mirror side and returns a sum whose change from the
rule before is within QUAD_REL_TOL relative, or whose error, estimated
from the geometric decay of those changes, is at most QUAD_RATE_SAFETY *
QUAD_REL_TOL relative.

Contours are finite unions of disjoint, positively oriented circles in
the slice plane, closed under conjugation, each centered near spectral
data and kept inside the function's domain.  A contour is held as its
upper half: the circles centred on or above the real axis, each one
above the axis standing for itself and its mirror.  auto_contour places
the circles for fast convergence: on a circle of radius r the trapezoid
rule converges like (r / rho)^N, rho the distance from its centre to the
nearest singularity outside it.  It takes the widest margin of its
ladder, down to MARGIN_FLOOR = 0.01 of the spectrum's scale, whose
circles keep every eigenvalue outside them at least r / kappa from their
centre (kappa = CLEARANCE_RATIO = 0.4) and keep the disk of radius
r / kappa about a single eigenvalue inside the domain; failing that,
the widest that keeps the distance, and failing that the widest that
fits.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BranchCut,
    DimensionMismatch,
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
QUAD_RATE_SAFETY = 1e-4  # estimated quadrature error, as a fraction of QUAD_REL_TOL
EXP_SERIES_TOL = 1e-16  # relative size of the last two exponential series terms
SUITE_TOL = 1e-8  # largest discrepancy a verify suite passes with
SEED_MERGE_TOL = 1e-10  # seeds this close, relative to the spectrum, share a circle
CLEARANCE_RATIO = 0.4  # kappa: a circle of radius r keeps r / kappa clear (auto_contour)
MARGIN_FLOOR = 0.01  # smallest placed margin, relative to 1 + max |z| (auto_contour)
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


def _kept_seeds(points, margin: float = math.inf) -> list[complex]:
    """The distinct (Re z, |Im z|) of the points, in sorted order.

    A seed within tol = min(SEED_MERGE_TOL (1 + max |z|), margin / 2) of
    the last kept seed, such as an eigenvalue and the mirror of its
    conjugate partner, which differ by roundoff, is dropped.
    """
    seeds = np.sort(np.real(points) + 1j * np.abs(np.imag(points))).tolist()
    tol = min(SEED_MERGE_TOL * (1.0 + max(map(abs, seeds), default=0.0)), 0.5 * margin)
    kept = seeds[:1]
    for s in seeds[1:]:
        if abs(s - kept[-1]) > tol:
            kept.append(s)
    return kept


def _upper_circles(kept: list[complex], margin: float) -> tuple[Circle, ...]:
    """The merged circles of the given margin about the kept seeds, sorted by centre."""
    return tuple(sorted(_merge_upper([Circle(s, margin) for s in kept]),
                        key=lambda c: (c.center.real, c.center.imag)))


def _disks(circles) -> tuple[np.ndarray, np.ndarray]:
    """The centres and the radii of the circles, as arrays."""
    return (np.array([c.center for c in circles], dtype=complex),
            np.array([c.radius for c in circles]))


def build_contour(points, domain: AxSymDomain, margin: float) -> SliceContour:
    """Circles of the given margin around every spectral point.

    points is any complex array, such as A.chi_eigenvalues.  Its kept
    seeds (_kept_seeds: the distinct (Re z, |Im z|), near duplicates
    within tol <= margin / 2 dropped) each seed a circle of radius margin,
    which _merge_upper folds onto the real axis when it reaches the axis
    and merges with any circle it overlaps, so every point and its
    conjugate stay at least margin - tol >= margin / 2 away from the
    final contour, and inside it.  The circles come sorted by centre.
    Disks leaving the domain raise DomainTooTight, tested in one
    holds_disk call; the domain is symmetric, so the mirror disks need no
    check.
    """
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    circles = _upper_circles(_kept_seeds(points, margin), margin)
    if not domain.holds_disk(*_disks(circles)).all():
        raise DomainTooTight(
            f"margin {margin:.3g} pushes a contour disk out of the domain")
    return SliceContour(circles)


def _ranked_rungs(kept: list[complex], domain: AxSymDomain, margins: list[float],
                  top: int) -> list[tuple[tuple[Circle, ...], int]]:
    """The circles of each margin with the rank of the tests they pass.

    Rank 0 fails (a), 1 meets (a) alone, 2 meets (a) and (b), 3 meets
    (a), (b) and (c) (see auto_contour); no rank exceeds top.  One
    distance matrix from every circle of every margin to every seed gives
    (b) and the seed counts, and all disks of (a) and (c) go through one
    holds_disk call.  Where each rung is a single circle, as on the top
    rung, no distance is needed.
    """
    rungs = [_upper_circles(kept, m) for m in margins]
    centers, radii = _disks([c for cs in rungs for c in cs])
    n = centers.size
    if n == len(rungs):
        # a rung of one circle holds every seed: (b) holds, and (c)
        # applies when there is only one seed
        clear, single = np.full(n, True), np.full(n, len(kept) == 1)
    else:
        dist = np.abs(np.array(kept) - centers[:, None])
        inside = dist < radii[:, None]
        clear = (inside | (dist >= radii[:, None] / CLEARANCE_RATIO)).all(axis=1)
        single = clear & (inside.sum(axis=1) == 1)  # (c) counts only where (b) holds
    held = domain.holds_disk(np.concatenate([centers, centers[single]]),
                             np.concatenate([radii, radii[single] / CLEARANCE_RATIO]))
    edge = np.full(n, True)  # a circle about several seeds is exempt from (c)
    edge[single] = held[n:]
    rank = np.minimum(held[:n] * (1 + clear * (1 + edge)), top).tolist()
    ranked, lo = [], 0
    for cs in rungs:  # a rung ranks as its lowest circle
        ranked.append((cs, min(rank[lo:lo + len(cs)])))
        lo += len(cs)
    return ranked


def auto_contour(points, domain: AxSymDomain) -> SliceContour:
    """The build_contour of the first margin that places its circles clear.

    The margins form a ladder of 24 rungs, 0.45 (1 + max |z|) down by
    0.6.  The trapezoid rule on a circle of radius r converges like
    (r / rho)^N, rho the distance from its centre to the nearest
    singularity outside it, so a rung is accepted once its circles are
    placed for fast convergence.  With kappa = CLEARANCE_RATIO, each
    circle (c, r) of the rung must have
      (a) its disk in the domain (build_contour's test);
      (b) every kept seed s that it does not enclose at |s - c| >= r /
          kappa.  The seeds are the points' representatives on or above
          the axis, so a point whose mirror the circle encloses is not
          its neighbour;
      (c) if it encloses exactly one kept seed, the concentric disk of
          radius r / kappa in the domain.  A circle about a cluster or a
          defective cloud is exempt: shrinking it trades roundoff for
          nodes.
    Only rungs at or above MARGIN_FLOOR (1 + max |z|) are placed, since
    the s-contour route loses digits to roundoff on small circles.  The
    first rung there meeting (a), (b) and (c) is returned; failing that,
    the first one meeting (a) and (b); failing that, the first rung of
    the whole ladder meeting (a), the widest contour that fits.  An
    entire function fits on the top rung with every point inside, so its
    contour is the widest.  The seeds are kept once per call: the
    ladder's smallest margin, 3.6e-6 (1 + max |z|), keeps margin / 2 far
    above the merge tolerance, so build_contour keeps the same seeds on
    every rung.  The top rung is tested alone, then the other placed
    rungs together, then the rest, each group with one holds_disk call.
    No point at all raises ValueError.
    """
    if not np.size(points):
        raise ValueError("auto_contour needs at least one point to enclose")
    kept = _kept_seeds(points)
    scale = 1.0 + float(np.abs(points).max())
    margins = list(itertools.accumulate(itertools.repeat(0.6, 23), operator.mul,
                                        initial=0.45 * scale))
    floor = next((k for k, m in enumerate(margins) if m < MARGIN_FLOOR * scale), 24)
    # each group: its rungs, the highest rank they can take (below the
    # floor only (a) counts) and the best rank so far that settles the choice
    rungs = []
    for group, top, enough in ((slice(0, 1), 3, 3), (slice(1, floor), 3, 1),
                               (slice(floor, None), 1, 1)):
        if margins[group]:
            rungs += _ranked_rungs(kept, domain, margins[group], top)
            best = max(rank for _, rank in rungs)
            if best >= enough:
                return SliceContour(next(cs for cs, rank in rungs if rank == best))
    raise DomainTooTight("no contour margin separates the spectrum from the domain edge")


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

    Nested periodic trapezoid rules T_N at a node count N per circle that
    doubles, so every node is solved once.  The first pass lays out the
    angles k/N, N = nodes (a multiple of 4, at least 8): T_(N/4) at
    k = 0 mod 4, T_(N/2) adding k = 2 mod 4 and T_N the odd k, so it makes
    no more passes than a rule that checks only T_N against T_(N/2).
    Each later pass lays out the new odd angles (2k+1)/(2N) of T_(2N).
    The contour's circles are its upper half, and a pass lays their nodes
    out in mirror pairs: each node of a circle above the axis, or of the
    upper half of a circle centred on it, is followed by its exact
    conjugate, which stands for the node of the mirror circle; the nodes
    at angles 0 and 1/2 of an axis circle, exactly real, come last.  The
    nodes go out in chunks of an even size, _BATCH_ENTRIES // size^2
    rounded down but at least 2, size being the order of the solved
    matrices, so no chunk splits a pair and at_nodes can solve a pencil
    once per sphere.
    A node's cell is 2r + m, r the rule of the pass it first belongs to
    and m = 1 for the conjugate copy of a node above the axis, else 0.
    Each chunk adds h dz at_nodes into one sum per cell, in place.  Cells
    0 and 1 carry the (rest, mirror) sums of the passes before, so a
    cumulative sum over r gives each rule its sums, T_N = (rest + mirror)
    / N, and one stop loop checks the rules of every pass in order of N.
    at_nodes maps a chunk to one array per node, h to one value per node
    or, with a leading axis of p, p values per node.  Norms are Frobenius
    norms of the whole sum.  With t = QUAD_REL_TOL (1 + ||T_N||), T_N is
    returned at the first rule where ||T_N - T_(N/2)|| <= t, or where the
    geometric decay of the periodic rule certifies it: with d_N the change
    of mirror / N plus the change of rest / N, d_N < d_(N/2) and
    d_N^3 / d_(N/2)^2, the estimated error of T_N, is at most
    QUAD_RATE_SAFETY t.  A circle and its mirror see a singularity of h
    on the axis at conjugate phases, so their errors can cancel at one
    level and not at the next; d_N does not see that cancellation.
    An empty contour raises ValueError, a sum that is not finite
    NoConvergence, and no return below NODE_CAP nodes per circle
    QuadratureStalled.
    """
    if nodes < 8 or nodes % 4:
        raise ValueError(f"the first pass needs a multiple of 4 nodes, at least 8, got {nodes}")
    if not contour.circles:
        raise ValueError("the contour has no circle to integrate over")
    centers, radii = (a[:, None] for a in _disks(contour.circles))
    upper = centers.imag > 0.0
    chunk = max(2, _BATCH_ENTRIES // (size * size) // 2 * 2)
    k = np.arange(nodes)
    angles, rule = k / nodes, np.where(k % 2, 2, k % 4 // 2)
    count, level = nodes, nodes // 4  # nodes of the pass's last rule, of the next checked
    sums = total = mirrored = delta = None
    while count <= NODE_CAP:
        dz = radii * np.exp(2j * np.pi * angles)
        paired = upper | ((0.0 < angles) & (angles < 0.5))
        real = ~upper & ((angles == 0.0) | (angles == 0.5))

        def lay(v):
            # cos(0) and cos(pi) round to exactly 1 and -1
            v = np.broadcast_to(v, paired.shape)
            return np.concatenate([_with_mirrors(v[paired]), v[real].real])

        z, dz, cell = lay(centers + dz), lay(dz), lay(2.0 * rule).real
        cell[1:2 * paired.sum():2] += np.broadcast_to(upper, paired.shape)[paired]
        for lo in range(0, z.size, chunk):
            part = slice(lo, lo + chunk)
            fv = np.asarray(h(z[part])) * dz[part]
            solved = at_nodes(z[part])
            if sums is None:  # one slot per cell of the first pass
                sums = np.zeros((2 * rule.max() + 2, *fv.shape[:-1], *solved.shape[1:]), complex)
            for c, into in enumerate(sums):  # in place, one cell's term at a time
                into += np.tensordot(fv * (cell[part] == c), solved, 1)
            del solved  # one chunk of solutions held at a time
        rules = sums.reshape(-1, 2, *sums.shape[1:])  # (rest, mirror) per rule
        np.cumsum(rules, axis=0, out=rules)
        for rest, mirror in rules:
            level_total, level_mirrored = (rest + mirror) / level, mirror / level
            if not np.isfinite(level_total).all():
                raise NoConvergence(f"quadrature sum is not finite at {level} nodes per circle")
            if total is not None:
                tol = QUAD_REL_TOL * (1.0 + float(np.linalg.norm(level_total)))
                if np.linalg.norm(level_total - total) <= tol:
                    return level_total
                step = float(np.linalg.norm(level_mirrored - mirrored)
                             + np.linalg.norm(level_total - level_mirrored - total + mirrored))
                if delta is not None and step < delta \
                        and step * (step / delta) ** 2 <= QUAD_RATE_SAFETY * tol:
                    return level_total
                delta = step
            total, mirrored = level_total, level_mirrored
            level *= 2
        sums, rule = rules[-1], np.zeros(count, int)  # the next pass adds to T_N's sums
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
    if not np.abs(inv).max() <= 1e14:  # a NaN fails the comparison too
        raise SingularNode(f"{what} blew up at a quadrature node")
    return inv


def riesz_dunford(M: np.ndarray, h: Callable, contour: SliceContour,
                  nodes: int = 32) -> np.ndarray:
    """(1/2pi i) integral of h(z) (z I - M)^-1 dz over the contour.

    The quadrature, its first pass of nodes per circle and its stop rule
    are those of _trapezoid.  h maps a node array to its values, shape
    (p, nodes) for a stack of p matrices.  An M that is not a square
    matrix raises DimensionMismatch.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"M must be a square matrix, got shape {M.shape}")
    n = M.shape[0]

    def resolvents(z: np.ndarray) -> np.ndarray:
        # z I - M as a copy of -M with z added on the diagonal
        stack = np.repeat(-M[None], z.size, axis=0)
        stack.reshape(z.size, n * n)[:, ::n + 1] += z[:, None]
        return _checked_solve(stack, "the resolvent")

    return _trapezoid(contour, h, resolvents, n, nodes)


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
    if method not in ("complex_path", "s_contour"):
        raise ValueError(f"unknown method {method!r}")
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
    else:
        parts = _s_contour_value(A, h, contour)
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
