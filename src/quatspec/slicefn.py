"""Slice functions given by stems on the half plane.

A slice function is determined by its stem pair (f0, f1), one map of
the parameters (alpha, beta) with beta >= 0, through

    left kind   f(q) = f0 + I_q * f1
    right kind  f(q) = f0 + f1 * I_q

where I_q is the unit imaginary direction of q.  Stems are stored for
beta >= 0 only and extended by parity (f0 even, f1 odd in beta), which
makes the parity constraint structural.  Intrinsic functions have
real-valued stems; for them the two kinds coincide and the function
commutes with conjugation of the argument.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NotIntrinsic, OutOfDomain, ParseError
from .quaternion import Quaternion

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

    contains_fn decides membership for beta >= 0; membership is invariant
    under beta -> |beta| by construction.  box = (alpha_min, alpha_max,
    beta_max) bounds the sampling region used by validation.  exclusions
    lists forbidden half-plane disks ((alpha, beta), radius) that contour
    construction must avoid exactly.
    """

    contains_fn: Callable[[float, float], bool]
    box: tuple[float, float, float]
    description: str = ""
    exclusions: tuple[tuple[tuple[float, float], float], ...] = ()

    def contains(self, alpha: float, beta: float) -> bool:
        return bool(self.contains_fn(float(alpha), abs(float(beta))))


def entire_domain(box=(-3.0, 3.0, 3.0), description="all of H") -> AxSymDomain:
    return AxSymDomain(lambda a, b: True, box, description)


def cut_plane_domain(box=(-6.0, 6.0, 6.0)) -> AxSymDomain:
    """Everything except a buffered neighborhood of the ray (-inf, 0]."""

    def ok(a, b):
        if math.hypot(a, b) <= CUT_BUFFER:
            return False
        return not (a <= 0.0 and b <= CUT_BUFFER)

    return AxSymDomain(ok, box, "slit plane, principal branch",
                       exclusions=(((0.0, 0.0), CUT_BUFFER),))


@dataclass(frozen=True)
class StemFunction:
    """Stem pair plus a kind tag and a domain.

    pair takes (alpha, beta) with beta >= 0 and returns the quaternion
    stem values (f0, f1) together.  kind "intrinsic" claims both stems
    are real-valued; validation can check the claim, evaluation trusts it.
    """

    pair: Callable[[float, float], tuple[Quaternion, Quaternion]]
    domain: AxSymDomain
    kind: str
    label: str = ""

    def stems(self, alpha: float, beta: float) -> tuple[Quaternion, Quaternion]:
        """Parity-extended stem values at any real beta."""
        if beta >= 0.0:
            return self.pair(alpha, beta)
        v0, v1 = self.pair(alpha, -beta)
        return v0, -v1

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
    v0, v1 = f.pair(alpha, beta)
    if beta == 0.0:
        return v0
    iq = q.imag * (1.0 / beta)
    if f.kind == RIGHT:
        return v0 + v1 * iq
    return v0 + iq * v1


def from_holomorphic_intrinsic(h: Callable[[complex], complex],
                               domain: AxSymDomain,
                               label: str = "",
                               sym_tol: float = 1e-10) -> StemFunction:
    """Intrinsic stem pair from a holomorphic h with h(conj z) = conj(h(z)).

    The symmetry is checked on an 8 x 8 grid of box sample points (those
    inside the domain); violation raises NotIntrinsic.  Stems are the
    even/odd combinations f0 = (h(z) + h(conj z))/2 and
    f1 = (h(z) - h(conj z))/(2i).
    """
    amin, amax, bmax = domain.box
    for ia in range(8):
        for ib in range(8):
            a = amin + (ia + 0.5) * (amax - amin) / 8.0
            b = (ib + 0.5) * bmax / 8.0
            if not domain.contains(a, b):
                continue
            z = complex(a, b)
            hz = h(z)
            hzc = h(z.conjugate())
            if abs(hzc - hz.conjugate()) > sym_tol * (1.0 + abs(hz)):
                raise NotIntrinsic(
                    f"h(conj z) != conj h(z) at z = {z:.6g}")

    def pair(a, b):
        z = complex(a, b)
        hz, hzc = h(z), h(z.conjugate())
        return (Quaternion.from_complex(0.5 * (hz + hzc)),
                Quaternion.from_complex((hz - hzc) / 2j))

    return StemFunction(pair, domain, INTRINSIC, label)


def restrict_to_slice(f: StemFunction) -> Callable[[complex], complex]:
    """The induced map on the distinguished slice plane.

    Only defined for intrinsic f, where values stay inside the plane.
    """
    if f.kind != INTRINSIC:
        raise NotIntrinsic(f"kind {f.kind!r} has no canonical slice restriction")
    values = _slice_values(f)
    return lambda z: values(z)[0]


def _slice_values(f: StemFunction) -> Callable[[complex], tuple[complex, ...]]:
    """Slice values f0[m] + i f1[m] of f's pieces, one stem read per point.

    Four pieces, those of decompose, for one-sided f; one for intrinsic f,
    whose stems must be real to 1e-9 (1 + |f0| + |f1|).  f1 is 0 at real z.
    """
    def values(z: complex) -> tuple[complex, ...]:
        alpha, beta = z.real, z.imag
        if not f.domain.contains(alpha, beta):
            raise OutOfDomain(
                f"point ({alpha:.6g}, {abs(beta):.6g}) is outside the domain")
        v0, v1 = f.stems(alpha, beta)
        if beta == 0.0:
            v1 = Quaternion()
        parts = tuple(map(complex, _parts(v0), _parts(v1)))
        if f.kind != INTRINSIC:
            return parts
        if math.hypot(*map(abs, parts[1:])) > 1e-9 * (1.0 + abs(v0) + abs(v1)):
            raise NotIntrinsic(f"stems at {complex(z):.6g} are not real")
        return parts[:1]

    return values


_parts = operator.attrgetter("a", "b", "c", "d")


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
            return Quaternion(_parts(v0)[_m]), Quaternion(_parts(v1)[_m])

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
        return f0 * g0 - f1 * g1, f0 * g1 + f1 * g0

    return StemFunction(pair, dom, kind, _join_labels(f.label, "*", g.label))


def stem_compose(g: StemFunction, f: StemFunction) -> StemFunction:
    """g after f, for intrinsic f.

    f maps the sphere with parameters (alpha, beta) to the sphere with
    parameters of w = f0 + i f1 on the slice; g's parity-extended stems
    are then read at w.  The result has g's kind.
    """
    if f.kind != INTRINSIC:
        raise NotIntrinsic("composition requires an intrinsic inner function")
    fs = restrict_to_slice(f)

    # the domain test and then the stems read the same point
    @functools.lru_cache(maxsize=1)
    def inner(a, b):
        w = fs(complex(a, b))
        return w.real, w.imag

    def pair(a, b):
        return g.stems(*inner(a, b))

    def dom_ok(a, b):
        if not f.domain.contains(a, b):
            return False
        u, v = inner(a, b)
        return g.domain.contains(u, v)

    dom = AxSymDomain(dom_ok, f.domain.box,
                      f"composition domain", f.domain.exclusions)
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
    return AxSymDomain(lambda a, b: d1.contains(a, b) and d2.contains(a, b),
                       box, f"{d1.description} & {d2.description}",
                       d1.exclusions + d2.exclusions)


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
    points whose five-point stencil leaves the domain are skipped.
    Compatibility is f1(alpha, 0) = 0 along the real axis; parity is
    structural and needs no check.  The intrinsic residual is only
    enforced when the kind claims intrinsic.
    """
    amin, amax, bmax = f.domain.box
    if fd_step is None:
        fd_step = 1e-5 * max(amax - amin, bmax)
    h = fd_step

    cr = 0.0
    samples = 0
    for ia in range(grid):
        for ib in range(grid):
            a = amin + (ia + 0.5) * (amax - amin) / grid
            b = (ib + 0.5) * bmax / grid
            stencil = ((a, b), (a + h, b), (a - h, b), (a, b + h), (a, b - h))
            if not all(f.domain.contains(*p) for p in stencil):
                continue
            (ap0, ap1), (am0, am1) = f.stems(a + h, b), f.stems(a - h, b)
            (bp0, bp1), (bm0, bm1) = f.stems(a, b + h), f.stems(a, b - h)
            da_f0 = (ap0 - am0) / (2 * h)
            db_f0 = (bp0 - bm0) / (2 * h)
            da_f1 = (ap1 - am1) / (2 * h)
            db_f1 = (bp1 - bm1) / (2 * h)
            r1 = da_f0 - db_f1
            r2 = db_f0 + da_f1
            cr = max(cr, abs(r1), abs(r2))
            samples += 1

    compat = 0.0
    for ia in range(grid):
        a = amin + (ia + 0.5) * (amax - amin) / grid
        if f.domain.contains(a, 0.0):
            compat = max(compat, abs(f.pair(a, 0.0)[1]))
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
                    intrinsic = max(intrinsic,
                                    math.hypot(v.b, v.c, v.d))
                samples += 1

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

    def h(z: complex) -> complex:
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    return h


def _monomial_stems(a: Quaternion, n: int, kind: str,
                    label: str) -> StemFunction:
    # (alpha + beta i)^n = u + v i with real u, v shared by every slice;
    # real u, v commute with a, so only the kind tells a q^n from q^n a
    def pair(al, be):
        w = complex(al, be) ** n
        return a * w.real, a * w.imag

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


def _pole_domain(den_coeffs) -> AxSymDomain:
    roots = np.roots(list(reversed([float(c) for c in den_coeffs])))
    excl = tuple(((float(r.real), abs(float(r.imag))), CUT_BUFFER)
                 for r in roots)

    def ok(a, b):
        return all(math.hypot(a - ea, b - eb) > rad
                   for (ea, eb), rad in excl)

    return AxSymDomain(ok, (-4.0, 4.0, 4.0), "pole-free region", excl)


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
        return from_holomorphic_intrinsic(cmath.exp, entire_domain(), "exp")
    if name == "log":
        return from_holomorphic_intrinsic(cmath.log, cut_plane_domain(), "log")
    if name == "sqrt":
        return from_holomorphic_intrinsic(cmath.sqrt, cut_plane_domain(), "sqrt")
    if name.startswith("pow:"):
        try:
            n = int(name[4:])
        except ValueError as exc:
            raise ParseError(f"bad integer in {name!r}") from exc
        if n >= 0:
            dom = entire_domain((-4.0, 4.0, 4.0))
        else:
            dom = AxSymDomain(lambda a, b: math.hypot(a, b) > CUT_BUFFER,
                              (-4.0, 4.0, 4.0), "punctured plane",
                              (((0.0, 0.0), CUT_BUFFER),))
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
        return from_holomorphic_intrinsic(lambda z: hp(z) / hq(z),
                                          _pole_domain(qs), name)
    if name.startswith(("monoL:", "monoR:")):
        desc = _parse_json_fragment(name[6:], "monomial descriptor")
        ok = (isinstance(desc, list) and len(desc) == 2
              and _is_real_list(desc[0], 4)
              and type(desc[1]) is int and desc[1] >= 0)
        if not ok:
            raise ParseError(f"monomial wants [[a,b,c,d], n>=0]: {name!r}")
        coeff = Quaternion(*[float(c) for c in desc[0]])
        kind = RIGHT if name.startswith("monoL:") else LEFT
        return _monomial_stems(coeff, desc[1], kind, name)
    raise ParseError(f"unknown catalog name {name!r}")
