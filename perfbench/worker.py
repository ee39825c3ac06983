"""One workload process: set up quatspec, then run the op list in a closed loop.

Started by run.py in a fresh interpreter with the BLAS thread count
pinned, so set-up cost (import plus one warm-up op of each kind) is paid
here and measured from the first line.  One caller sends the next op
only after the previous one returned.  The loop runs whole passes over the
op list until --seconds have passed.  Each op is one CLI command run
in process through quatspec.cli.main(argv) with stdout and stderr
captured; its wall time covers that call alone, and the check against
the reference runs after the clock stops.

    python3 worker.py --src SRC --work DIR --seconds S --trace 0|1 \
        --mode run|setup --out RESULT.json
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def blas_facts() -> dict:
    """numpy version, BLAS vendor and the thread count BLAS reports."""
    import ctypes

    import numpy as np

    facts = {"numpy": np.__version__, "blas": "unknown", "blas_threads": None,
             "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        facts["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    libs = []
    if os.path.exists("/proc/self/maps"):  # Linux: find the loaded OpenBLAS
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def run_op(cli, op: dict) -> tuple[int, str, str, float, float]:
    """Exit code, stdout, stderr, wall time and CPU time of one CLI command.

    An exception escaping main is what the command line would show as a
    traceback with exit 1; it is recorded as such, with its class named,
    so the loop goes on and the op counts as failed.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            code = cli.main(op["argv"])
        except Exception as exc:
            code = 1
            print(f"error[{type(exc).__name__}]: uncaught", file=sys.stderr)
            traceback.print_exc()
        wall = time.perf_counter() - start
        cpu = time.thread_time() - cpu_start
    return code, out.getvalue(), err.getvalue(), wall, cpu


def warmup_ops(ops: list[dict]) -> list[dict]:
    """The smallest-n op of each kind, lowest id on ties.

    Ids follow generation order, which the seed does not change, so the
    warm-up set is alike from seed to seed.
    """
    best: dict[str, dict] = {}
    for op in sorted(ops, key=lambda o: (o["n"], o["id"])):
        best.setdefault(op["kind"], op)
    return list(best.values())


def closed_loop(cli, ops, refs, tolerances, check, deadline=None, count=None,
                tracer=None):
    """Run whole passes over ops until the deadline, or exactly count ops.

    Ending on a pass boundary gives every run the same mix of ops, so a
    percentile does not move with where the deadline fell.
    """
    records = []
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i % len(ops) == 0 and time.perf_counter() >= deadline:
            break
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op = i
        code, out, err, wall, cpu = run_op(cli, op)
        if tracer is not None:
            tracer.op = -1
        failure = check(op, code, out, err, refs.get(f"op{op['id']}"),
                        tolerances[op["kind"]])
        records.append({"i": i, "op": op["id"], "kind": op["kind"],
                        "argv0": op["argv"][0], "wall": wall, "cpu": cpu,
                        "failure": failure})
        i += 1
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(args.work, "ops.json")) as fh:
        ops = json.load(fh)["ops"]
    sys.path.insert(0, os.path.abspath(args.src))
    import quatspec
    import quatspec.cli as cli
    if not os.path.abspath(quatspec.__file__).startswith(os.path.abspath(args.src)):
        raise SystemExit(f"quatspec imported from {quatspec.__file__}, not {args.src}")
    os.chdir(args.work)
    for op in warmup_ops(ops):
        run_op(cli, op)
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    import numpy as np

    import reference
    from tracing import Tracer, quadrature_useful_ratio, reduce_spans

    with open(args.config) as fh:
        tolerances = json.load(fh)["tolerances"]
    with np.load("refs.npz") as npz:
        refs = {k: npz[k] for k in npz.files}
    loop_start = time.perf_counter()
    if not args.trace:
        records = closed_loop(cli, ops, refs, tolerances, reference.check,
                              deadline=loop_start + args.seconds)
    else:
        # untraced half first, then the same ops again traced; the ratio
        # of the two walls is the tracing overhead
        records = closed_loop(cli, ops, refs, tolerances, reference.check,
                              deadline=loop_start + args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = closed_loop(cli, ops, refs, tolerances, reference.check,
                                 count=len(records), tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.save("spans.tsv")
        result["traced"] = traced
        result["layers"] = reduce_spans(tracer.spans)
        result["counts"] = dict(tracer.counts)
        result["solve_systems"] = sum(tracer.solve_batches.values())
        result["flops"] = tracer.flops
        result["quadrature_useful_ratio"] = quadrature_useful_ratio(
            tracer.spans, tracer.solve_batches)
    result["loop_s"] = time.perf_counter() - loop_start
    result["records"] = records
    result["machine"] = blas_facts()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
