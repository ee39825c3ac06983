"""quatspec benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Run from anywhere; the repository root is the parent of this directory
and the program is imported from its src/.  The run generates the
workload's planted inputs from the seed, measures set-up in fresh
processes, then runs the ops in a closed loop (one caller, next op sent
when the previous returned) in a fresh worker process with BLAS pinned
to one thread.  Every op's output is checked against a numpy reference.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json).  The last stdout line is one JSON object with
"correct", "attempted", "failed" and "metrics".  Full records, machine
facts and, for traced runs, the span table go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CONFIG = os.path.join(HERE, "config.json")
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170.0
SETUP_PROBES = 4  # fresh set-up-only processes, besides the measuring one


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = SRC
    return env


def run_worker(work: str, mode: str, seconds: float, trace: int, out: str,
               deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
           "--work", work, "--seconds", repr(seconds), "--trace", str(trace),
           "--mode", mode, "--config", CONFIG, "--out", out]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=child_env(), timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    with open(out) as fh:
        return json.load(fh)


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "quatspec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def machine_facts(seed: int, worker_facts: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **worker_facts,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def is_wrong_answer(failure: str | None) -> bool:
    """A returned answer that is wrong, as opposed to an op that did not answer."""
    return failure is not None and failure.startswith(("payload:", "exit0:"))


def end_to_end(records, setups, rss_mb) -> dict:
    walls = [r["wall"] for r in records]
    ok = sum(1 for r in records if r["failure"] is None)
    return {
        "ops_per_s": ok / sum(walls),
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": percentile(walls, 90),
        "ok_ratio": ok / len(records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


def per_layer(result: dict, names: list[str]) -> dict:
    traced = result["traced"]
    ops = len(traced)
    layers, counts = result["layers"], result["counts"]
    untraced = sum(r["wall"] for r in result["records"][:ops])
    special = {
        "linalg.solve.systems": result["solve_systems"] / ops,
        "linalg.flops_est": result["flops"] / ops,
        "calculus.quadrature_useful_ratio": result["quadrature_useful_ratio"],
        "trace_overhead_ratio": sum(r["wall"] for r in traced) / untraced - 1.0,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        layer, field = name.rsplit(".", 1)
        if layer in counts:
            out[name] = counts[layer] / ops
        else:
            out[name] = layers.get(layer, {}).get(field, 0.0) / ops
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="quatspec benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    if not os.path.isfile(os.path.join(SRC, "quatspec", "cli.py")):
        print(f"error: no quatspec sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import generate

    # one work directory per workload, emptied each run, bounds the disk
    # a long series of runs leaves behind
    work = os.path.join(OUT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    generate.build(args.workload, args.seed, work)

    setups = []
    if not args.trace:
        for k in range(SETUP_PROBES):
            probe = run_worker(work, "setup", 0.0, 0,
                               os.path.join(work, f"setup{k}.json"), deadline)
            setups.append(probe["setup_s"])
    result = run_worker(work, "run", args.seconds, args.trace,
                        os.path.join(work, "result.json"), deadline)
    setups.append(result["setup_s"])

    records = result["records"] + result.get("traced", [])
    failures = Counter((r["argv0"], r["failure"]) for r in records if r["failure"])
    if args.trace:
        wanted = bench["per_layer"]
        metrics = per_layer(result, [m["name"] for m in wanted])
    else:
        wanted = bench["end_to_end"]
        metrics = end_to_end(result["records"], setups, result["peak_rss_mb"])
    walls = [r["wall"] for r in result["records"]]
    p90 = percentile(walls, 90)
    facts = machine_facts(args.seed, result["machine"])
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "setup_samples_s": setups,
        "samples": len(walls),
        "beyond_p90": sum(1 for w in walls if w > p90),
        "failures": [{"command": c, "class": f, "count": n}
                     for (c, f), n in sorted(failures.items())],
        "metrics": metrics,
    }
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  ops {len(walls)}  "
          f"beyond p90 {summary['beyond_p90']}")
    print("machine " + json.dumps(facts))
    for item in summary["failures"]:
        print(f"failed  {item['command']:<15} {item['class']:<40} x{item['count']}")
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace and summary["beyond_p90"] < 10:
        print("warning: fewer than ten samples beyond p90", file=sys.stderr)
    line = {
        "correct": not any(is_wrong_answer(r["failure"]) for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failure"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
