"""Tests of the benchmark itself: generator, reference checker, tracing.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import contextlib
import copy
import filecmp
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import generate
import reference
import tracing
from conftest import BENCH, ROOT

with open(os.path.join(BENCH, "config.json")) as _fh:
    CONFIG = json.load(_fh)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run_cli(argv, cwd):
    from quatspec import cli

    out, err = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(old)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Every workload generated once for seed 7."""
    out = {}
    for w in generate.WORKLOADS:
        d = str(tmp_path_factory.mktemp(w))
        out[w] = (d, generate.build(w, 7, d), dict(np.load(os.path.join(d, "refs.npz"))))
    return out


# -- generator ---------------------------------------------------------------

@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a, b, c = (str(tmp_path / x) for x in "abc")
    generate.build(workload, 11, a)
    generate.build(workload, 11, b)
    generate.build(workload, 12, c)
    names = sorted(f for f in os.listdir(a) if f.endswith(".json"))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []
    ra, rb = np.load(os.path.join(a, "refs.npz")), np.load(os.path.join(b, "refs.npz"))
    assert sorted(ra.files) == sorted(rb.files)
    assert all(np.array_equal(ra[k], rb[k]) for k in ra.files)
    assert not filecmp.cmp(os.path.join(a, "m000.json"), os.path.join(c, "m000.json"),
                           shallow=False)


def test_every_op_kind_has_a_tolerance(built):
    kinds = {op["kind"] for _, ops, _ in built.values() for op in ops}
    assert kinds == set(CONFIG["tolerances"])


def test_layer_map_covers_every_per_layer_metric():
    mapped = [m for row in CONFIG["layer_map"] for m in row["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_jordan_plants_are_a_stated_share_of_calculus(built):
    _, ops, _ = built["calculus"]
    jordan = {op["plant"] for op in ops if "jordan" in op["plant"]}
    assert jordan == {"n4-jordan2", "n6-jordan3", "n8-jordan4"}


def test_split_jordan_sphere_matches_planted_multiset():
    planted = reference.sphere_params([(complex(0.5, 0.8), 2), (complex(-1.0, 0.0), 1)])
    split = {"spheres": [{"re": -1.0, "im_norm": 0.0, "multiplicity": 1},
                         {"re": 0.5, "im_norm": 0.8 + 3e-9, "multiplicity": 1},
                         {"re": 0.5 + 2e-9, "im_norm": 0.8, "multiplicity": 1}]}
    merged = {"spheres": [{"re": -1.0, "im_norm": 0.0, "multiplicity": 1},
                          {"re": 0.5, "im_norm": 0.8, "multiplicity": 2}]}
    short = {"spheres": merged["spheres"][1:]}
    assert reference.payload_ok("spectrum", split, planted, 1e-6)
    assert reference.payload_ok("spectrum", merged, planted, 1e-6)
    assert not reference.payload_ok("spectrum", short, planted, 1e-6)


# -- checker -----------------------------------------------------------------

def _perturb(kind, payload, tol):
    """A copy of payload moved 100 tolerances away from itself."""
    p = copy.deepcopy(payload)
    if kind == "spectrum":
        p["spheres"][0]["re"] += 100 * tol * (1 + abs(p["spheres"][0]["re"])) + 1e-3
    elif kind in ("radius", "radius_power"):
        p["radius"] *= 1 + 100 * tol
    elif kind == "distance":
        p["geometric"] += 100 * tol * (1 + p["geometric"])
    elif kind == "verify":
        p["suites"][0]["cases"][0]["discrepancy"] = 100 * tol
    else:
        e = np.asarray(p["matrix"]["entries"])
        p["matrix"]["entries"][0][0][0] += 100 * tol * (1 + 2 * np.linalg.norm(e))
    return p


def _one_op_per_kind(built):
    seen = {}
    for d, ops, refs in built.values():
        for op in sorted(ops, key=lambda o: o["n"]):
            key = (op["kind"], op["expect"]["exit"])
            if key not in seen and "jordan" not in op["plant"]:
                seen[key] = (d, op, refs.get(f"op{op['id']}"))
    return list(seen.values())


def test_checker_accepts_right_and_rejects_perturbed_answers(built):
    cases = _one_op_per_kind(built)
    assert {op["kind"] for _, op, _ in cases} == set(CONFIG["tolerances"])
    for d, op, ref in cases:
        tol = CONFIG["tolerances"][op["kind"]]
        code, out, err = run_cli(op["argv"], d)
        assert reference.check(op, code, out, err, ref, tol) is None, op["argv"]
        if op["expect"]["exit"] != 0:
            assert reference.check(op, 0, out, "", ref, tol).startswith("exit0:")
            assert reference.check(op, code, out, "error[Singular]: x", ref, tol) \
                == "wrong_error:Singular"
            continue
        env = json.loads(out)
        env["payload"] = _perturb(op["kind"], env["payload"], tol)
        bad = reference.check(op, code, json.dumps(env), err, ref, tol)
        assert bad == f"payload:{op['kind']}", op["argv"]
        assert reference.check(op, 3, "", "error[NoConvergence]: x", ref, tol) \
            == "exit3:NoConvergence"


def test_escaped_exception_is_a_failed_op_not_a_crash():
    from worker import run_op

    class Broken:
        @staticmethod
        def main(argv):
            raise ValueError("boom")

    op = {"argv": ["spectrum"], "kind": "spectrum", "expect": {"exit": 0}}
    code, out, err, wall, cpu = run_op(Broken, op)
    assert code == 1 and out == "" and wall >= 0.0
    assert reference.check(op, code, out, err, None, 1e-6) == "exit1:ValueError"


# -- tracing -----------------------------------------------------------------

def self_time_by_op(spans) -> dict[int, tuple[float, float]]:
    """Per op: (sum of span self times, duration of its root span)."""
    child_time: Counter = Counter()
    for _, sid, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, list[float]] = {}
    for op, sid, parent, _, start, end in spans:
        rec = out.setdefault(op, [0.0, 0.0])
        rec[0] += (end - start) - child_time[sid]
        if parent < 0:
            rec[1] += end - start
    return {op: (v[0], v[1]) for op, v in out.items()}


def test_span_self_times_sum_to_traced_wall(built):
    from worker import run_op

    import quatspec.cli as cli

    d, ops, _ = built["calculus"]
    picked = [op for op in ops if op["kind"] in ("calculus", "verify", "root")][:6]
    tracer = tracing.Tracer()
    tracer.install()
    walls = {}
    old = os.getcwd()
    os.chdir(d)
    try:
        for i, op in enumerate(picked):
            tracer.op = i
            walls[i] = run_op(cli, op)[3]
            tracer.op = -1
    finally:
        os.chdir(old)
        tracer.uninstall()
    per_op = self_time_by_op(tracer.spans)
    assert set(per_op) == set(walls)
    for i, (self_sum, root) in per_op.items():
        assert self_sum == pytest.approx(root, rel=1e-9, abs=1e-9)
        assert root <= walls[i]
        assert walls[i] - root <= 0.02 * walls[i] + 2e-4
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")


def test_tracing_rebinds_in_every_module_and_restores(built):
    import quatspec.calculus as calculus
    import quatspec.spectrum as spectrum
    from quatspec import Quaternion

    before = (spectrum.s_spectrum, calculus.s_spectrum, Quaternion.__mul__, np.linalg.solve)
    tracer = tracing.Tracer()
    tracer.install()
    assert calculus.s_spectrum is spectrum.s_spectrum is not before[0]
    tracer.uninstall()
    assert (spectrum.s_spectrum, calculus.s_spectrum, Quaternion.__mul__,
            np.linalg.solve) == before


def test_missing_trace_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_TARGETS",
                        tracing.SPAN_TARGETS + (("quatspec.spectrum", "gone"),))
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceTargetMissing):
        tracer.install()
    assert tracer._undo == []


def test_quadrature_useful_ratio_counts_final_level():
    spans = [(0, 0, -1, "cli.main", 0.0, 10.0),
             (0, 1, 0, tracing.QUADRATURE, 1.0, 9.0),
             (0, 2, 1, tracing.SOLVE, 1.0, 2.0),
             (0, 3, 1, tracing.SOLVE, 2.0, 4.0),
             (0, 4, 1, tracing.SOLVE, 4.0, 8.0),
             (0, 5, 0, tracing.SOLVE, 9.0, 9.5)]
    batches = {2: 32, 3: 64, 4: 128, 5: 7}
    assert tracing.quadrature_useful_ratio(spans, batches) == pytest.approx(128 / 224)
    layers = tracing.reduce_spans(spans)
    assert layers["cli.main"]["self_s"] == pytest.approx(1.5)
    assert layers[tracing.SOLVE]["calls"] == 4


# -- runner ------------------------------------------------------------------

def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "series",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
