"""Slice functions given by stems on the half plane.

A slice function is determined by its stem pair (f0, f1), one map of
the parameters (alpha, beta) with beta >= 0, through

    left kind   f(q) = f0 + I_q * f1
    right kind  f(q) = f0 + f1 * I_q

where I_q is the unit imaginary direction of q.  Stems are stored for
beta >= 0 only and extended by parity (f0 even, f1 odd in beta), which
makes the parity constraint structural.  Stems are read over arrays of
points, a scalar point being the 0-d case: a stem value is a float
array whose last axis holds the quaternion components a, b, c, d.
Intrinsic functions have real-valued stems; for them the two kinds
coincide and the function commutes with conjugation of the argument.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NoConvergence, NotIntrinsic, OutOfDomain, ParseError
from .quaternion import Quaternion, _array_product

__all__ = [
    "LEFT",
    "RIGHT",
    "INTRINSIC",
    "AxSymDomain",
    "StemFunction",
    "ValidationReport",
    "entire_domain",
    "cut_plane_domain",
    "eval_stem",
    "from_holomorphic_intrinsic",
    "restrict_to_slice",
    "decompose",
    "stem_sum",
    "stem_product",
    "stem_compose",
    "validate",
    "catalog",
    "CUT_BUFFER",
]

LEFT = "left"
RIGHT = "right"
INTRINSIC = "intrinsic"

# Buffer around branch cuts and poles carved out of catalog domains.
CUT_BUFFER = 1e-6


@dataclass(frozen=True)
class AxSymDomain:
    """Axially symmetric open set described in (alpha, beta) parameters.

    disk_fn maps same-shape arrays of complex centres alpha + beta i, on
    or above the real axis, and of radii r >= 0 to a bool array: whether
    each open disk lies in the set, r = 0 asking for the centre alone.
    Every test is in closed form or, for a composition, through its
    inner function (see stem_compose).  box = (alpha_min, alpha_max,
    beta_max) bounds the sampling region used by validation.
    """

    disk_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    box: tuple[float, float, float]

    def contains(self, alpha, beta) -> np.ndarray:
        alpha, beta = np.broadcast_arrays(alpha, beta)
        center = alpha.astype(complex)
        center.imag = np.abs(beta)
        return self.disk_fn(center, np.zeros(center.shape))

    def holds_disk(self, center, radius):
        """Whether each disk lies in the domain: center and radius are
        scalars or arrays of one shape, and a disk below the axis is read
        as its mirror.  A bool array of one verdict per disk, or a bool
        for a scalar center.
        """
        center = np.array(center, dtype=complex)
        center.imag = np.abs(center.imag)
        ok = self.disk_fn(center, np.broadcast_to(np.asarray(radius, dtype=float),
                                                  center.shape))
        return bool(ok) if center.shape == () else ok


# the 32 turns of the circle on which stem_compose measures the image of
# a disk
_RING_TURN = np.exp(2j * np.pi * np.arange(32) / 32)


def entire_domain(box=(-3.0, 3.0, 3.0)) -> AxSymDomain:
    return AxSymDomain(lambda c, r: np.full(np.shape(c), True), box)


def _cut_distance(alpha, beta):
    """Distance from alpha + beta i to the ray (-inf, 0], elementwise."""
    return np.where(alpha <= 0.0, np.abs(beta), np.hypot(alpha, beta))


def cut_plane_domain(box=(-6.0, 6.0, 6.0)) -> AxSymDomain:
    """Everything except a buffered neighborhood of the ray (-inf, 0]."""
    return AxSymDomain(lambda c, r: _cut_distance(c.real, c.imag) - CUT_BUFFER > r, box)


@dataclass(frozen=True)
class StemFunction:
    """Stem pair plus a kind tag and a domain.

    pair takes broadcastable float arrays alpha and beta >= 0 and returns
    the stem values (f0, f1) together, each of shape broadcast(alpha,
    beta).shape + (4,).  kind "intrinsic" claims both stems are
    real-valued; validation can check the claim, evaluation trusts it.
    """

    pair: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    domain: AxSymDomain
    kind: str
    label: str = ""

    def stems(self, alpha, beta) -> tuple[np.ndarray, np.ndarray]:
        """Parity-extended stem values at any real beta, same shapes as pair."""
        v0, v1 = self.pair(alpha, np.abs(beta))
        return v0, np.where(np.less(beta, 0.0)[..., None], -v1, v1)

    def __call__(self, q: Quaternion) -> Quaternion:
        return eval_stem(self, q)


def eval_stem(f: StemFunction, q: Quaternion) -> Quaternion:
    """Value of the slice function at a quaternion point.

    The I_q * f1 term is placed on the side the kind dictates; at real q
    the parity constraint forces f1 to vanish, so f0 alone is returned.
    """
    alpha = q.real
    beta = abs(q.imag)
    if not f.domain.contains(alpha, beta):
        raise OutOfDomain(f"point ({alpha:.6g}, {beta:.6g}) is outside the domain")
    v0, v1 = (Quaternion(*v.tolist()) for v in f.pair(alpha, beta))
    if beta == 0.0:
        return v0
    iq = q.imag * (1.0 / beta)
    if f.kind == RIGHT:
        return v0 + v1 * iq
    return v0 + iq * v1


def from_holomorphic_intrinsic(h: Callable[[np.ndarray], np.ndarray],
                               domain: AxSymDomain,
                               label: str = "") -> StemFunction:
    """Intrinsic stem pair from a holomorphic h with h(conj z) = conj(h(z)).

    h maps complex arrays elementwise.  The symmetry is checked to 1e-10
    (1 + |h(z)|) on an 8 x 8 grid of box points inside the domain;
    violation raises NotIntrinsic.  Stems are the even/odd combinations
    f0 = (h(z) + h(conj z))/2 and f1 = (h(z) - h(conj z))/(2i).
    """
    amin, amax, bmax = domain.box
    cells = np.arange(8) + 0.5
    z = amin + cells[:, None] * (amax - amin) / 8.0 + 1j * (cells * bmax / 8.0)
    z = z[domain.contains(z.real, z.imag)]
    hz = np.broadcast_to(h(z), z.shape)
    bad = np.abs(h(np.conj(z)) - np.conj(hz)) > 1e-10 * (1.0 + np.abs(hz))
    if bad.any():
        raise NotIntrinsic(f"h(conj z) != conj h(z) at z = {z[bad][0]:.6g}")

    def pair(a, b):
        z = a + 1j * b
        hz, hzc = h(z), h(np.conj(z))
        return _from_complex(0.5 * (hz + hzc)), _from_complex((hz - hzc) / 2j)

    return StemFunction(pair, domain, INTRINSIC, label)


def _from_complex(w) -> np.ndarray:
    """Stem values (Re w, Im w, 0, 0): slice-plane values as quaternions."""
    zero = np.zeros(np.shape(w))
    return np.stack([np.real(w), np.imag(w), zero, zero], -1)


def restrict_to_slice(f: StemFunction) -> Callable[[np.ndarray], np.ndarray]:
    """The induced map on the distinguished slice plane, elementwise on arrays.

    Only defined for intrinsic f, where values stay inside the plane.
    """
    if f.kind != INTRINSIC:
        raise NotIntrinsic(f"kind {f.kind!r} has no canonical slice restriction")
    values = _slice_values(f)
    return lambda z: values(z)[0]


def _slice_values(f: StemFunction) -> Callable[[np.ndarray], np.ndarray]:
    """Slice values f0[m] + i f1[m] of f's pieces, one stem read per array.

    A complex array z maps to shape (pieces, *z.shape): four pieces, those
    of decompose, for one-sided f; one for intrinsic f, whose stems must
    be real to 1e-9 (1 + |f0| + |f1|).  f1 is 0 at real z.
    """
    def values(z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        inside = f.domain.contains(z.real, z.imag)
        if not inside.all():
            bad = z[~inside][0]
            raise OutOfDomain(f"point ({bad.real:.6g}, {abs(bad.imag):.6g}) "
                              "is outside the domain")
        v0, v1 = f.stems(z.real, z.imag)
        v1 = np.where((z.imag == 0.0)[..., None], 0.0, v1)
        finite = (np.isfinite(v0) & np.isfinite(v1)).all(axis=-1)
        if not finite.all():
            bad = z[~finite][0]
            raise NoConvergence(f"stems at ({bad.real:.6g}, {abs(bad.imag):.6g}) "
                                "are not finite")
        parts = np.moveaxis(np.broadcast_to(v0 + 1j * v1, z.shape + (4,)), -1, 0)
        if f.kind != INTRINSIC:
            return parts
        scale = 1.0 + np.linalg.norm(v0, axis=-1) + np.linalg.norm(v1, axis=-1)
        bad = np.linalg.norm(parts[1:], axis=0) > 1e-9 * scale
        if bad.any():
            raise NotIntrinsic(f"stems at {z[bad][0]:.6g} are not real")
        return parts[:1]

    return values


def decompose(f: StemFunction) -> tuple[StemFunction, StemFunction,
                                        StemFunction, StemFunction]:
    """Split into four intrinsic pieces along the quaternion basis.

    The stems are split componentwise: piece m has real stems made of
    the m-th components of f0 and f1.  Recombining with 1, i, j, k on
    the coefficient side of f's kind (left coefficients for right kind,
    right coefficients for left kind) restores f exactly.
    """
    pieces = []
    for m in range(4):
        def pair_m(a, b, _m=m):
            v0, v1 = f.pair(a, b)
            return _from_complex(v0[..., _m]), _from_complex(v1[..., _m])

        pieces.append(StemFunction(pair_m, f.domain, INTRINSIC,
                                   f"{f.label}[{m}]" if f.label else ""))
    return tuple(pieces)


def stem_sum(f: StemFunction, g: StemFunction) -> StemFunction:
    """Pointwise sum; kinds must agree up to intrinsic coercion."""
    kind = _join_kinds(f.kind, g.kind)
    dom = _intersect_domains(f.domain, g.domain)

    def pair(a, b):
        f0, f1 = f.pair(a, b)
        g0, g1 = g.pair(a, b)
        return f0 + g0, f1 + g1

    return StemFunction(pair, dom, kind, _join_labels(f.label, "+", g.label))


def stem_product(f: StemFunction, g: StemFunction) -> StemFunction:
    """Slice product (f0 g0 - f1 g1, f0 g1 + f1 g0), f's stems on the left.

    At least one factor must be intrinsic; then the stem product agrees
    with the pointwise quaternion product f(q) g(q) and its kind is the
    kind of the non-intrinsic factor.
    """
    if INTRINSIC not in (f.kind, g.kind):
        raise NotIntrinsic("slice products need one intrinsic factor")
    kind = g.kind if f.kind == INTRINSIC else f.kind
    dom = _intersect_domains(f.domain, g.domain)

    def pair(a, b):
        f0, f1 = f.pair(a, b)
        g0, g1 = g.pair(a, b)
        return (_array_product(f0, g0) - _array_product(f1, g1),
                _array_product(f0, g1) + _array_product(f1, g0))

    return StemFunction(pair, dom, kind, _join_labels(f.label, "*", g.label))


def stem_compose(g: StemFunction, f: StemFunction) -> StemFunction:
    """g after f, for intrinsic f.

    f maps the sphere with parameters (alpha, beta) to the sphere with
    parameters of w = f0 + i f1 on the slice; g's parity-extended stems
    are then read at w.  The result has g's kind.  A disk (c, r) lies in
    the composed domain when f's domain holds it and g's domain holds the
    disk about f(c) whose radius is the largest |f(z) - f(c)| over 32
    points z of its circle: by the maximum modulus principle, that disk
    holds f's image of the whole disk once the circle is sampled finely
    enough.  f is read once per test, only where its domain holds the
    disk, and at the centre alone where r = 0.
    """
    if f.kind != INTRINSIC:
        raise NotIntrinsic("composition requires an intrinsic inner function")
    fs = restrict_to_slice(f)

    def pair(a, b):
        w = fs(a + 1j * b)
        return g.stems(w.real, w.imag)

    def disk_fn(center, radius):
        ok = np.array(f.domain.disk_fn(center, radius))
        c, r = center[ok], radius[ok]
        ring = r > 0.0
        w = fs(np.concatenate([c, (c[ring, None] + r[ring, None] * _RING_TURN).ravel()]))
        wc, reach = w[:c.size], np.zeros(c.size)
        reach[ring] = np.abs(w[c.size:].reshape(-1, 32) - wc[ring, None]).max(axis=1)
        ok[ok] = g.domain.holds_disk(wc, reach)
        return ok

    dom = AxSymDomain(disk_fn, f.domain.box)
    return StemFunction(pair, dom, g.kind, _join_labels(g.label, "o", f.label))


def _join_kinds(k1: str, k2: str) -> str:
    if k1 == k2:
        return k1
    if k1 == INTRINSIC:
        return k2
    if k2 == INTRINSIC:
        return k1
    raise NotIntrinsic(f"kinds {k1!r} and {k2!r} do not combine")


def _intersect_domains(d1: AxSymDomain, d2: AxSymDomain) -> AxSymDomain:
    box = (max(d1.box[0], d2.box[0]), min(d1.box[1], d2.box[1]),
           min(d1.box[2], d2.box[2]))
    return AxSymDomain(lambda c, r: d1.disk_fn(c, r) & d2.disk_fn(c, r), box)


def _join_labels(l1, op, l2):
    if l1 and l2:
        return f"({l1}){op}({l2})"
    return ""


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of the structural constraints on a stem pair."""

    compat_residual: float
    cr_residual: float
    intrinsic_residual: float
    samples: int
    tol: float
    compat_pass: bool = field(default=False)
    cr_pass: bool = field(default=False)
    intrinsic_pass: bool = field(default=False)

    @property
    def passed(self) -> bool:
        return self.compat_pass and self.cr_pass and self.intrinsic_pass


def validate(f: StemFunction, grid: int = 32, fd_step: float | None = None,
             tol: float = 1e-6) -> ValidationReport:
    """Check compatibility, the Cauchy-Riemann system, and intrinsicness.

    Stems are sampled on a grid of box cell centers.  Derivatives use
    central differences with fd_step (default 1e-5 times the box size);
    points whose five-point stencil leaves the domain are skipped.  A
    sample's Cauchy-Riemann defect is relative to 1 + the norms of its
    four derivatives, whose size the difference error follows.
    Compatibility is f1(alpha, 0) = 0 along the real axis; parity is
    structural and needs no check.  The intrinsic residual is only
    enforced when the kind claims intrinsic.
    """
    amin, amax, bmax = f.domain.box
    if fd_step is None:
        fd_step = 1e-5 * max(amax - amin, bmax)
    h = fd_step

    def cells(count):
        a = amin + (np.arange(count) + 0.5) * (amax - amin) / count
        b = (np.arange(count) + 0.5) * bmax / count
        return np.meshgrid(a, b, indexing="ij")

    def worst(v) -> float:
        return float(np.linalg.norm(v, axis=-1).max(initial=0.0))

    a, b = cells(grid)
    stencil = ((a, b), (a + h, b), (a - h, b), (a, b + h), (a, b - h))
    keep = np.logical_and.reduce([f.domain.contains(*p) for p in stencil])
    a, b = a[keep], b[keep]
    # rows 0 and 1 of da, db: the derivatives of f0 and of f1
    da = np.subtract(f.stems(a + h, b), f.stems(a - h, b)) / (2 * h)
    db = np.subtract(f.stems(a, b + h), f.stems(a, b - h)) / (2 * h)
    scale = 1.0 + np.linalg.norm(np.stack([da, db]), axis=-1).sum((0, 1))
    cr = worst(np.stack([da[0] - db[1], db[0] + da[1]]) / scale[:, None])
    samples = a.size

    a = amin + (np.arange(grid) + 0.5) * (amax - amin) / grid
    a = a[f.domain.contains(a, 0.0)]
    compat = worst(f.pair(a, np.zeros_like(a))[1])
    samples += a.size

    intrinsic = 0.0
    if f.kind == INTRINSIC:
        a, b = cells(grid // 2)
        keep = f.domain.contains(a, b)
        v0, v1 = f.pair(a[keep], b[keep])
        intrinsic = max(worst(v0[..., 1:]), worst(v1[..., 1:]))
        samples += int(keep.sum())

    return ValidationReport(
        compat_residual=compat,
        cr_residual=cr,
        intrinsic_residual=intrinsic,
        samples=samples,
        tol=tol,
        compat_pass=compat <= tol,
        cr_pass=cr <= tol,
        intrinsic_pass=(f.kind != INTRINSIC) or intrinsic <= tol,
    )


# -- catalog ---------------------------------------------------------------

def _real_poly(coeffs):
    cs = [float(c) for c in coeffs]

    def h(z: np.ndarray) -> np.ndarray:
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    return h


def _monomial_stems(a: np.ndarray, n: int, kind: str,
                    label: str) -> StemFunction:
    # (alpha + beta i)^n = u + v i with real u, v shared by every slice;
    # real u, v commute with a, so only the kind tells a q^n from q^n a
    def pair(al, be):
        w = (al + 1j * be) ** n
        return np.multiply.outer(np.real(w), a), np.multiply.outer(np.imag(w), a)

    return StemFunction(pair, entire_domain((-4.0, 4.0, 4.0)), kind, label)


def _parse_json_fragment(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad {what} in catalog name: {text!r}") from exc


def _is_real_list(x, length: int | None = None) -> bool:
    """A non-empty JSON list of real numbers; true and false are not numbers."""
    return (isinstance(x, list) and len(x) > 0 and length in (None, len(x))
            and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                    for c in x))


def _punctured_domain(points) -> AxSymDomain:
    """The box (-4, 4, 4) minus disks of radius CUT_BUFFER around points.

    A centre on or above the axis is nearer to each hole above the axis
    than to its mirror, so only the upper holes are measured.
    """
    holes = np.array([complex(p.real, abs(p.imag)) for p in points], dtype=complex)

    def disk_fn(c, r):
        gap = np.hypot(c.real[..., None] - holes.real, c.imag[..., None] - holes.imag)
        return gap.min(axis=-1, initial=np.inf) - CUT_BUFFER > r

    return AxSymDomain(disk_fn, (-4.0, 4.0, 4.0))


def catalog(name: str) -> StemFunction:
    """Named slice functions shared with the command line.

    exp | log | sqrt | pow:N | poly:[c0,...,cm] | ratpoly:[p]/[q]
    | monoL:[[a,b,c,d],n] | monoR:[[a,b,c,d],n]

    log and sqrt are principal branches whose domains exclude the cut
    (-inf, 0] with a 1e-6 buffer.  poly and ratpoly take real
    coefficients in ascending order.  monoL is a q^n (right kind),
    monoR is q^n a (left kind) with a quaternion coefficient a.
    """
    if name == "exp":
        return from_holomorphic_intrinsic(np.exp, entire_domain(), "exp")
    if name == "log":
        return from_holomorphic_intrinsic(np.log, cut_plane_domain(), "log")
    if name == "sqrt":
        return from_holomorphic_intrinsic(np.sqrt, cut_plane_domain(), "sqrt")
    if name.startswith("pow:"):
        try:
            n = int(name[4:])
        except ValueError as exc:
            raise ParseError(f"bad integer in {name!r}") from exc
        if n >= 0:
            dom = entire_domain((-4.0, 4.0, 4.0))
        else:
            dom = _punctured_domain([0j])
        return from_holomorphic_intrinsic(lambda z: z ** n, dom, name)
    if name.startswith("poly:"):
        cs = _parse_json_fragment(name[5:], "coefficient list")
        if not _is_real_list(cs):
            raise ParseError(f"poly wants a list of real numbers: {name!r}")
        return from_holomorphic_intrinsic(_real_poly(cs),
                                          entire_domain((-4.0, 4.0, 4.0)), name)
    if name.startswith("ratpoly:"):
        body = name[8:]
        if "/" not in body:
            raise ParseError(f"ratpoly wants [p]/[q]: {name!r}")
        p_text, q_text = body.split("/", 1)
        ps = _parse_json_fragment(p_text, "numerator")
        qs = _parse_json_fragment(q_text, "denominator")
        if not (_is_real_list(ps) and _is_real_list(qs)):
            raise ParseError(f"ratpoly wants real coefficient lists: {name!r}")
        if not any(c != 0 for c in qs):
            raise ParseError("ratpoly denominator is identically zero")
        hp, hq = _real_poly(ps), _real_poly(qs)
        dom = _punctured_domain(np.roots(qs[::-1]))
        return from_holomorphic_intrinsic(lambda z: hp(z) / hq(z), dom, name)
    if name.startswith(("monoL:", "monoR:")):
        desc = _parse_json_fragment(name[6:], "monomial descriptor")
        ok = (isinstance(desc, list) and len(desc) == 2
              and _is_real_list(desc[0], 4)
              and type(desc[1]) is int and desc[1] >= 0)
        if not ok:
            raise ParseError(f"monomial wants [[a,b,c,d], n>=0]: {name!r}")
        coeff = np.array(desc[0], dtype=float)
        kind = RIGHT if name.startswith("monoL:") else LEFT
        return _monomial_stems(coeff, desc[1], kind, name)
    raise ParseError(f"unknown catalog name {name!r}")
