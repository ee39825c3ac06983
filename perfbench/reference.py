"""Reference answers and the output checker, in numpy alone.

Nothing here imports quatspec.  Quaternion matrices are handled through
their complex adjoint

    chi(A) = [[x, -conj(y)], [y, conj(x)]],   x = a + b i,  y = c - d i,

which turns quaternion products into complex matrix products.  Every
input is planted as A = S D S^-1 with D in the complex slice, so a slice
function h gives f(A) = S h(D) S^-1 and chi(f(A)) = chi(S) diag(h(D),
conj(h(D))) chi(S)^-1.  Pencil inverses and resolvents are checked
against a direct numpy solve on chi(Q_q(A)).
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

ERROR_RE = re.compile(r"^error\[(\w+)\]")


# -- complex adjoint helpers -------------------------------------------------

def chi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.block([[x, -np.conj(y)], [y, np.conj(x)]])


def chi_of_components(entries) -> np.ndarray:
    """chi of a matrix given as the CLI's n x n grid of [a, b, c, d]."""
    e = np.asarray(entries, dtype=float)
    return chi(e[..., 0] + 1j * e[..., 1], e[..., 2] - 1j * e[..., 3])


def components_of_chi(M: np.ndarray) -> np.ndarray:
    """n x n x 4 components of the quaternion matrix nearest to chi-form M."""
    n = M.shape[0] // 2
    x = 0.5 * (M[:n, :n] + np.conj(M[n:, n:]))
    y = 0.5 * (M[n:, :n] - np.conj(M[:n, n:]))
    return np.stack([x.real, x.imag, y.real, -y.imag], axis=-1)


def chi_scalar(q, n: int) -> np.ndarray:
    """chi of the scalar matrix q I."""
    a, b, c, d = q
    return chi((a + 1j * b) * np.eye(n), (c - 1j * d) * np.eye(n))


# -- slice functions ---------------------------------------------------------

def _poly(cs):
    return lambda z: sum(c * z ** k for k, c in enumerate(cs))


def _poly_derivative(cs, order):
    for _ in range(order):
        cs = [k * c for k, c in enumerate(cs)][1:] or [0.0]
    return cs


def slice_function(fn: str):
    """h on the complex slice for the catalog names the benchmark uses.

    Returns (h, derivative) where derivative(lam, k) is the k-th
    derivative at lam, known in closed form for exp and poly only; other
    functions never meet a Jordan block in the generated inputs.
    """
    if fn == "exp":
        return np.exp, lambda lam, k: np.exp(lam)
    if fn == "log":
        return np.log, None
    if fn == "sqrt":
        return np.sqrt, None
    if fn == "root3":
        return (lambda z: np.exp(np.log(z) / 3.0)), None
    if fn.startswith("pow:"):
        m = int(fn[4:])
        return (lambda z: z ** m), None
    if fn.startswith("poly:"):
        cs = json.loads(fn[5:])
        return _poly(cs), lambda lam, k: _poly(_poly_derivative(cs, k))(lam)
    if fn.startswith("ratpoly:"):
        p, q = fn[8:].split("/", 1)
        hp, hq = _poly(json.loads(p)), _poly(json.loads(q))
        return (lambda z: hp(z) / hq(z)), None
    if fn.startswith(("monoL:", "monoR:")):
        m = json.loads(fn[6:])[1]
        return (lambda z: z ** m), None
    raise ValueError(f"no reference for {fn!r}")


def function_of_blocks(fn: str, blocks) -> np.ndarray:
    """h(D) for D = blockdiag of Jordan blocks J_k(lam) in the slice."""
    h, derivative = slice_function(fn)
    n = sum(k for _, k in blocks)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, k in blocks:
        if k == 1:
            out[pos, pos] = h(complex(lam))
        else:
            if derivative is None:
                raise ValueError(f"{fn!r} has no closed form on Jordan blocks")
            for j in range(k):
                val = derivative(complex(lam), j) / math.factorial(j)
                for r in range(k - j):
                    out[pos + r, pos + r + j] = val
        pos += k
    return out


def blocks_matrix(blocks) -> np.ndarray:
    """D itself: Jordan blocks with ones on the superdiagonal."""
    n = sum(k for _, k in blocks)
    D = np.zeros((n, n), dtype=complex)
    pos = 0
    for lam, k in blocks:
        for r in range(k):
            D[pos + r, pos + r] = lam
            if r + 1 < k:
                D[pos + r, pos + r + 1] = 1.0
        pos += k
    return D


def planted_function(chi_s: np.ndarray, fn: str, blocks) -> np.ndarray:
    """chi(f(A)) = chi(S) diag(h(D), conj(h(D))) chi(S)^-1 for A = S D S^-1.

    monoL / monoR carry a quaternion coefficient a and give a A^m and
    A^m a, so the coefficient is applied to the intrinsic power.
    """
    hd = function_of_blocks(fn, blocks)
    n = hd.shape[0]
    inner = np.block([[hd, np.zeros_like(hd)], [np.zeros_like(hd), np.conj(hd)]])
    F = chi_s @ inner @ np.linalg.inv(chi_s)
    if fn.startswith("monoL:"):
        F = chi_scalar(json.loads(fn[6:])[0], n) @ F
    elif fn.startswith("monoR:"):
        F = F @ chi_scalar(json.loads(fn[6:])[0], n)
    return F


def pencil_chi(chi_a: np.ndarray, q) -> np.ndarray:
    """chi(Q_q(A)) = chi(A)^2 - 2 Re(q) chi(A) + |q|^2 I."""
    norm_sq = sum(v * v for v in q)
    return chi_a @ chi_a - 2.0 * q[0] * chi_a + norm_sq * np.eye(len(chi_a))


def pencil_inverse(chi_a: np.ndarray, q) -> np.ndarray:
    P = pencil_chi(chi_a, q)
    return np.linalg.solve(P, np.eye(len(P), dtype=complex))


def resolvent(chi_a: np.ndarray, s, side: str) -> np.ndarray:
    """-Q_s(A)^-1 (A - conj(s)) on the left, -(A - conj(s)) Q_s(A)^-1 on the right."""
    n = len(chi_a) // 2
    B = chi_a - chi_scalar((s[0], -s[1], -s[2], -s[3]), n)
    P = pencil_chi(chi_a, s)
    if side == "L":
        return -np.linalg.solve(P, B)
    return -np.linalg.solve(P.T, B.T).T


# -- spectra -----------------------------------------------------------------

def sphere_params(blocks) -> np.ndarray:
    """(re, |im|) of every diagonal entry of D, one row per unit multiplicity."""
    return np.array([(lam.real, abs(lam.imag)) for lam, k in blocks
                     for _ in range(k)], dtype=float)


def match_spheres(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    """True when the two multisets pair up within tol.

    Pairing is greedy by nearest unused partner, which is exact here
    because distinct planted spheres sit far more than 2 tol apart.
    """
    if got.shape != want.shape:
        return False
    used = np.zeros(len(want), dtype=bool)
    for p in got:
        d = np.hypot(want[:, 0] - p[0], want[:, 1] - p[1])
        d[used] = np.inf
        j = int(np.argmin(d))
        if d[j] > tol:
            return False
        used[j] = True
    return True


# -- the checker -------------------------------------------------------------

def error_class(stderr: str) -> str | None:
    m = ERROR_RE.match(stderr.strip())
    return m.group(1) if m else None


def payload_ok(kind: str, payload: dict, ref, tol: float) -> bool:
    """Whether a payload agrees with its reference within tol.

    Spheres and scalars are compared relative to 1 + their reference
    size, matrices by Frobenius distance relative to 1 + ||ref||.
    """
    if kind == "spectrum":
        got = np.array([(s["re"], s["im_norm"]) for s in payload["spheres"]
                        for _ in range(s["multiplicity"])], dtype=float)
        scale = 1.0 + float(np.max(np.hypot(ref[:, 0], ref[:, 1])))
        return match_spheres(got.reshape(-1, 2), ref, tol * scale)
    if kind in ("radius", "radius_power"):
        return abs(payload["radius"] - float(ref)) <= tol * (1.0 + float(ref))
    if kind == "distance":
        worst = max(abs(payload["geometric"] - float(ref)),
                    abs(payload["via_radius"] - float(ref)))
        return worst <= tol * (1.0 + float(ref))
    if kind == "verify":
        return payload["passed"] is True and all(
            c["discrepancy"] <= tol for s in payload["suites"]
            for c in s["cases"])
    got = chi_of_components(payload["matrix"]["entries"])
    if got.shape != ref.shape:
        return False
    err = np.linalg.norm(got - ref) / (1.0 + np.linalg.norm(ref))
    return bool(err <= tol)


def check(op: dict, code: int, stdout: str, stderr: str, ref,
          tolerance: float) -> str | None:
    """None when the op's outcome is right, otherwise its failure class.

    Classes: "exit<code>:<Error>" for an unexpected exit code,
    "wrong_error:<Error>" for the right code with the wrong error class,
    "payload:<kind>" for an answer outside the command's tolerance.
    """
    expect = op["expect"]
    if code != expect["exit"]:
        return f"exit{code}:{error_class(stderr) or 'none'}"
    if code != 0:
        got = error_class(stderr)
        return None if got == expect["error"] else f"wrong_error:{got}"
    try:
        ok = payload_ok(op["kind"], json.loads(stdout)["payload"], ref, tolerance)
    except (ValueError, KeyError, TypeError):
        ok = False
    return None if ok else f"payload:{op['kind']}"
