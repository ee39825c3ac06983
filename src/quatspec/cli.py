"""Command line front end.

Matrices travel as JSON objects {"n": ..., "entries": [[[a, b, c, d],
...], ...]} whose entries form an n-by-n grid of four-component reals.
Every command answers with a single JSON envelope, written compactly
on one line of stdout, carrying the command name, a sha256 digest of
the raw input bytes, the payload, the tolerances that shaped the run,
and wall-clock timing.  Exit codes:
0 success, 1 usage problems, 2 domain violations, 3 numeric failures
(a failed verify suite included).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from .calculus import (
    EXP_SERIES_TOL,
    QUAD_REL_TOL,
    SUITE_NAMES,
    SUITE_TOL,
    calculus_sided,
    op_exp,
    op_log,
    op_nth_root,
    verify_theorems,
)
from .errors import NonFiniteEntry, NonSquare, ParseError, QuatSpecError
from .operators import STRUCTURE_TOL, QMatrix
from .quaternion import Quaternion
from .slicefn import catalog
from .spectrum import (
    CLUSTER_REL_TOL,
    CROSS_CHECK_TOL,
    SERIES_TOL,
    distance_to_spectrum,
    q_pencil_inverse,
    s_resolvent,
    s_spectral_radius,
    s_spectrum,
)

__all__ = ["main", "parse_matrix", "parse_matrix_text", "matrix_payload"]


def parse_matrix(path: str) -> QMatrix:
    """Read and decode a matrix file (or stdin for the path "-")."""
    return parse_matrix_text(_decode(_read_input(path)))


def _decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from exc


def parse_matrix_text(text: str) -> QMatrix:
    """Decode the JSON matrix format, rejecting malformed input loudly."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "entries" not in obj or "n" not in obj:
        raise ParseError('expected an object with "n" and "entries"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError('"n" must be a positive integer')
    entries = obj["entries"]
    if not isinstance(entries, list) or \
            not all(isinstance(row, list) for row in entries):
        raise ParseError('"entries" must be a grid of [a, b, c, d] values')
    if len(entries) != n or any(len(row) != n for row in entries):
        shape = f"{len(entries)}x" + "/".join(str(len(r)) for r in entries)
        raise NonSquare(f"entry grid {shape} does not match n = {n}")
    for row in entries:
        for e in row:
            if not isinstance(e, list) or len(e) != 4:
                raise ParseError("each entry must be a list [a, b, c, d]")
            for v in e:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ParseError(f"entry component {v!r} is not a number")
    try:
        grid = np.array(entries, dtype=float)
    except OverflowError as exc:
        raise NonFiniteEntry(
            "entry component is an integer too large for a float") from exc
    bad = np.argwhere(~np.isfinite(grid))
    if len(bad):
        r, c, k = bad[0]
        raise NonFiniteEntry(
            f"entry component {entries[r][c][k]!r} is not finite")
    A = QMatrix.from_components(*np.moveaxis(grid, -1, 0))
    if not math.isfinite(A.norm):
        raise NonFiniteEntry("the Frobenius norm of the matrix overflows")
    return A


def matrix_payload(M: QMatrix) -> dict:
    return {"n": M.n, "entries": np.stack(M.components(), -1).tolist()}


def _parse_at(text: str) -> Quaternion:
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError('--at wants four comma-separated numbers "a,b,c,d"')
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"--at component is not a number: {exc}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise NonFiniteEntry("--at components must be finite")
    return Quaternion(*vals)


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatspec",
        description="spectral theory of quaternionic matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--input", required=True,
                           help='matrix JSON file, or "-" for stdin')
        return p

    p = add("spectrum", "spectral spheres with multiplicities")
    p.add_argument("--tol", type=float, help="sphere clustering radius "
                   f"(default {CLUSTER_REL_TOL:g} (1 + ||A||_F))")

    p = add("radius", "spectral radius")
    p.add_argument("--method", choices=("eig", "power"), default="eig")

    p = add("resolvent", "left or right S-resolvent at a point")
    p.add_argument("--at", required=True, help='quaternion "a,b,c,d"')
    p.add_argument("--side", choices=("L", "R"), default="L")
    p.add_argument("--method", choices=("formula", "series"),
                   default="formula")

    p = add("pencil-inverse", "inverse of the sphere pencil at a point")
    p.add_argument("--at", required=True, help='quaternion "a,b,c,d"')
    p.add_argument("--method", choices=("direct", "neumann"),
                   default="direct")

    p = add("calculus", "f(A) for a catalog function")
    p.add_argument("--fn", required=True,
                   help='catalog name, e.g. exp, log, "poly:[1,0,2]"')
    p.add_argument("--method", choices=("complex_path", "s_contour"),
                   default="complex_path")

    add("exp", "matrix exponential")
    add("log", "principal matrix logarithm")

    p = add("root", "principal m-th root")
    p.add_argument("--n", type=int, required=True, help="root order")

    p = add("distance", "distance from a real point to the spectrum")
    p.add_argument("--alpha", type=float, required=True)

    p = add("verify", "run an identity suite against the matrix")
    p.add_argument("--suite", required=True,
                   choices=SUITE_NAMES + ("all",))
    p.add_argument("--tol", type=float, default=SUITE_TOL,
                   help="largest discrepancy a suite passes with "
                   "(default %(default)g)")
    return parser


# quadrature sums pulled back to quaternion matrices
_QUADRATURE_TOLERANCES = {"quadrature": QUAD_REL_TOL, "structure": STRUCTURE_TOL}


def _solve_tolerances(method: str) -> dict:
    """Series truncate at SERIES_TOL; direct solves pull back."""
    if method in ("series", "neumann"):
        return {"truncation": SERIES_TOL}
    return {"structure": STRUCTURE_TOL}


def _run(args, raw: bytes) -> tuple[dict, dict, int]:
    """Dispatch one parsed command; returns payload, tolerances, exit code."""
    A = parse_matrix_text(_decode(raw))
    cmd = args.command
    if cmd == "spectrum":
        spheres = s_spectrum(A, args.tol)
        payload = {"spheres": [
            {"re": s.re, "im_norm": s.im_norm, "multiplicity": m}
            for s, m in spheres.spheres]}
        return payload, {"cluster": spheres.tol}, 0
    if cmd == "radius":
        value = s_spectral_radius(A, args.method)
        return {"radius": value, "method": args.method}, {}, 0
    if cmd == "resolvent":
        s = _parse_at(args.at)
        R = s_resolvent(A, s, args.side, args.method)
        payload = {"matrix": matrix_payload(R), "side": args.side,
                   "method": args.method}
        return payload, _solve_tolerances(args.method), 0
    if cmd == "pencil-inverse":
        q = _parse_at(args.at)
        P = q_pencil_inverse(A, q, args.method)
        payload = {"matrix": matrix_payload(P), "method": args.method}
        return payload, _solve_tolerances(args.method), 0
    if cmd == "calculus":
        f = catalog(args.fn)
        V = calculus_sided(A, f, method=args.method)
        payload = {"matrix": matrix_payload(V), "fn": args.fn,
                   "method": args.method, "kind": f.kind}
        return payload, _QUADRATURE_TOLERANCES, 0
    if cmd == "exp":
        return {"matrix": matrix_payload(op_exp(A))}, {"series": EXP_SERIES_TOL}, 0
    if cmd == "log":
        payload = {"matrix": matrix_payload(op_log(A))}
        return payload, _QUADRATURE_TOLERANCES, 0
    if cmd == "root":
        payload = {"matrix": matrix_payload(op_nth_root(A, args.n)),
                   "order": args.n}
        return payload, _QUADRATURE_TOLERANCES, 0
    if cmd == "distance":
        geo, via = distance_to_spectrum(A, args.alpha)
        payload = {"alpha": args.alpha, "geometric": geo, "via_radius": via}
        return payload, {"cross_check": CROSS_CHECK_TOL}, 0
    if cmd == "verify":
        names = SUITE_NAMES if args.suite == "all" else (args.suite,)
        reports = [verify_theorems(A, name, args.tol) for name in names]
        payload = {"suites": [
            {"suite": r.suite, "passed": r.passed, "tol": r.tol,
             "cases": [{"label": label, "discrepancy": value}
                       for label, value in r.cases]}
            for r in reports]}
        ok = all(r.passed for r in reports)
        payload["passed"] = ok
        return payload, {"suite": args.tol}, 0 if ok else 3
    raise ParseError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.perf_counter()
    try:
        raw = _read_input(args.input)
        payload, tolerances, code = _run(args, raw)
    except QuatSpecError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    envelope = {
        "command": args.command,
        "input_digest": "sha256:" + hashlib.sha256(raw).hexdigest(),
        "payload": payload,
        "tolerances": tolerances,
        "timing": {"seconds": time.perf_counter() - started},
    }
    sys.stdout.write(json.dumps(envelope) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
