"""Span tracing installed from outside the program, for the traced run only.

Public quatspec functions are wrapped and the wrapper is rebound in
every quatspec module namespace that holds the original, so calls made
through `from .spectrum import s_spectrum` are seen too.  numpy.linalg's
eigvals, svd, solve and inv are wrapped in the numpy.linalg namespace
that quatspec calls them through.  Quaternion and QMatrix operators get
count-only wrappers: they run far too often for a span each.

Each span is (op, span id, parent id, name, start, end), kept in memory
while the run lasts and reduced afterwards to per-layer busy and self
times.  A target that no longer exists raises TraceTargetMissing, so a
renamed function fails the traced run instead of reporting zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (module, attribute) pairs wrapped with a span; the span name is the
# last part of the module path plus the attribute.
SPAN_TARGETS = (
    ("quatspec.cli", "main"),
    ("quatspec.cli", "parse_matrix_text"),
    ("quatspec.cli", "matrix_payload"),
    ("quatspec.spectrum", "eigenvalues"),
    ("quatspec.spectrum", "s_spectrum"),
    ("quatspec.spectrum", "s_spectral_radius"),
    ("quatspec.spectrum", "distance_to_spectrum"),
    ("quatspec.spectrum", "q_pencil_inverse"),
    ("quatspec.spectrum", "s_resolvent"),
    ("quatspec.spectrum", "classify"),
    ("quatspec.spectrum", "quaternion_matrix_inverse"),
    ("quatspec.slicefn", "eval_stem"),
    ("quatspec.slicefn", "catalog"),
    ("quatspec.slicefn", "decompose"),
    ("quatspec.calculus", "auto_contour"),
    ("quatspec.calculus", "riesz_dunford"),
    ("quatspec.calculus", "calculus_intrinsic"),
    ("quatspec.calculus", "calculus_sided"),
    ("quatspec.calculus", "op_exp"),
    ("quatspec.calculus", "op_log"),
    ("quatspec.calculus", "op_nth_root"),
    ("quatspec.calculus", "verify_theorems"),
    ("quatspec.operators", "complex_adjoint"),
    ("quatspec.operators", "from_complex_adjoint"),
    ("quatspec.operators", "q_pencil"),
    ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "solve"),
    ("numpy.linalg", "inv"),
)

# (module, class, method, metric name) wrapped with a call counter only.
COUNT_TARGETS = (
    ("quatspec.quaternion", "Quaternion", "__mul__", "quaternion.Quaternion.mul"),
    ("quatspec.quaternion", "Quaternion", "__add__", "quaternion.Quaternion.add"),
    ("quatspec.operators", "QMatrix", "__matmul__", "operators.QMatrix.matmul"),
)

ROOT = "cli.main"
SOLVE = "linalg.solve"
QUADRATURE = "calculus.calculus_intrinsic"


class TraceTargetMissing(RuntimeError):
    pass


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _complex_factor(a) -> int:
    return 4 if np.iscomplexobj(a) else 1


def linalg_flops(name: str, args) -> float:
    """Computed flop count of a dense LAPACK call from its argument shapes.

    Standard dense counts, times 4 for complex data: eigvals 10 n^3
    (Hessenberg QR, values only), svd 8/3 n^3 (bidiagonalization, values
    only), solve 2/3 n^3 + 2 n^2 k per system with k right-hand sides,
    inv 2 n^3.  Bytes and cache behaviour are not modelled.
    """
    a = np.asarray(args[0])
    n = a.shape[-1]
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    if name == "linalg.eigvals":
        base = 10.0 * n ** 3
    elif name == "linalg.svd":
        base = 8.0 / 3.0 * n ** 3
    elif name == "linalg.solve":
        b = np.asarray(args[1])
        k = b.shape[-1] if b.ndim == a.ndim else 1
        base = 2.0 / 3.0 * n ** 3 + 2.0 * n * n * k
    else:
        base = 2.0 * n ** 3
    return base * batch * _complex_factor(a)


class Tracer:
    """Records spans and counts while `op` is set to a non-negative id."""

    def __init__(self):
        self.op = -1
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.solve_batches: dict[int, int] = {}
        self.flops = 0.0
        self._stack: list[int] = []
        self._next = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self
        is_linalg = name.startswith("linalg.")

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next += 1
            if is_linalg:
                tracer.flops += linalg_flops(name, args)
                if name == SOLVE:
                    a = np.asarray(args[0])
                    tracer.solve_batches[sid] = \
                        int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((tracer.op, sid, parent, name, start, end))

        return wrapped

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)

        return wrapped

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target; raises TraceTargetMissing before changing anything."""
        resolved = []
        for mod_name, attr in SPAN_TARGETS:
            mod = importlib.import_module(mod_name)
            if not callable(getattr(mod, attr, None)):
                raise TraceTargetMissing(f"{mod_name}.{attr} no longer exists")
            resolved.append((mod, attr, getattr(mod, attr)))
        counted = []
        for mod_name, cls_name, meth, metric in COUNT_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            if cls is None or meth not in vars(cls):
                raise TraceTargetMissing(f"{mod_name}.{cls_name}.{meth} no longer exists")
            counted.append((cls, meth, metric))
        holders = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "quatspec" or name.startswith("quatspec."))]
        for mod, attr, fn in resolved:
            wrapper = self._span(span_name(mod.__name__, attr), fn)
            if mod.__name__.startswith("numpy"):
                self._rebind(mod, attr, wrapper)
                continue
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._rebind(holder, key, wrapper)
        for cls, meth, metric in counted:
            self._rebind(cls, meth, self._counter(metric, vars(cls)[meth]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- output ------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the spans as a tab-separated table, one span a line."""
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(f"{op}\t{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


def reduce_spans(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds, summed over spans.

    busy counts only spans with no ancestor of the same name, so a
    recursive layer is not counted twice; self is a span's duration
    minus the durations of its direct children.
    """
    by_id = {s[1]: s for s in spans}
    child_time: Counter = Counter()
    for _, sid, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for _, sid, parent, name, start, end in spans:
        rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[sid]
        p = parent
        while p >= 0 and by_id[p][3] != name:
            p = by_id[p][2]
        if p < 0:
            rec["busy_s"] += end - start
    return out


def quadrature_useful_ratio(spans, solve_batches: dict[int, int]) -> float:
    """Final-level systems over all systems solved inside calculus_intrinsic.

    Within one calculus_intrinsic span the node count doubles per level,
    so the solves with the largest batch are the final level; the rest
    were spent reaching it.  0 when no quadrature ran.
    """
    by_id = {s[1]: s for s in spans}
    per_span: dict[int, list[int]] = {}
    for sid, batch in solve_batches.items():
        p = by_id[sid][2]
        while p >= 0 and by_id[p][3] != QUADRATURE:
            p = by_id[p][2]
        if p >= 0:
            per_span.setdefault(p, []).append(batch)
    useful = total = 0
    for batches in per_span.values():
        top = max(batches)
        useful += sum(b for b in batches if b == top)
        total += sum(batches)
    return useful / total if total else 0.0
