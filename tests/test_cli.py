"""Command line front end: matrix file format, envelopes, exit codes."""

import json
import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import quatspec.calculus as qcalc
import quatspec.operators as qops
import quatspec.spectrum as qspec
from quatspec import I, QMatrix, Quaternion, op_exp, s_spectrum
from quatspec.cli import (
    build_parser,
    main,
    matrix_payload,
    parse_matrix,
    parse_matrix_text,
)
from quatspec.errors import NonFiniteEntry, NonSquare, ParseError

from _helpers import assert_matrix_close, random_qmatrix, rng
from test_spectrum import _planted_jordan


def write_matrix(tmp_path, name, M):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_payload(M)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    envelope = json.loads(captured.out) if captured.out.strip() else None
    return code, envelope, captured.err


# ---------------------------------------------------------------- parsing

def test_parse_single_i_entry():
    M = parse_matrix_text('{"n": 1, "entries": [[[0, 1, 0, 0]]]}')
    assert M.n == 1
    assert M.entry(0, 0) == I


def test_parse_rejects_ragged_grid():
    text = json.dumps({"n": 2, "entries": [
        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]]})
    with pytest.raises(NonSquare):
        parse_matrix_text(text)


def test_parse_rejects_nan_entry():
    with pytest.raises(NonFiniteEntry):
        parse_matrix_text('{"n": 1, "entries": [[[0, NaN, 0, 0]]]}')


@pytest.mark.parametrize("text", [
    "not json at all",
    '{"entries": [[[0, 0, 0, 0]]]}',
    '{"n": 1}',
    '{"n": 0, "entries": []}',
    '{"n": true, "entries": [[[0, 0, 0, 0]]]}',
    '{"n": 1, "entries": [[[0, 0, 0]]]}',
    '{"n": 1, "entries": [[[0, "x", 0, 0]]]}',
    '{"n": 1, "entries": [[[0, true, 0, 0]]]}',
    '{"n": 1, "entries": 5}',
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_matrix_text(text)


def test_parse_matrix_reads_files(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"n": 1, "entries": [[[2, 0, 0, 0]]]}')
    assert parse_matrix(str(path)).entry(0, 0) == Quaternion(2.0)
    with pytest.raises(ParseError):
        parse_matrix(str(tmp_path / "absent.json"))


def test_payload_round_trip_bit_exact():
    gen = rng(211)
    for _ in range(10):
        M = random_qmatrix(gen, int(gen.integers(1, 4)), scale=math.pi)
        back = parse_matrix_text(json.dumps(matrix_payload(M)))
        assert back == M, "decimal round trip changed some entry"


# ---------------------------------------------------------------- commands

def test_spectrum_command(tmp_path, capsys):
    path = write_matrix(tmp_path, "ii.json", QMatrix.scalar(1, I))
    code, env, _ = run_cli(capsys, "spectrum", "--input", path)
    assert code == 0
    assert env["command"] == "spectrum"
    assert env["input_digest"].startswith("sha256:")
    spheres = env["payload"]["spheres"]
    assert len(spheres) == 1
    assert spheres[0]["re"] == pytest.approx(0.0, abs=1e-12)
    assert spheres[0]["im_norm"] == pytest.approx(1.0, abs=1e-12)
    assert spheres[0]["multiplicity"] == 1


def test_spectrum_tol_is_the_cluster_radius(tmp_path, capsys):
    M = QMatrix.diag([1.0, 1.0005])
    path = write_matrix(tmp_path, "near.json", M)
    code, env, _ = run_cli(capsys, "spectrum", "--tol", "1e-3",
                           "--input", path)
    assert code == 0
    assert env["tolerances"] == {"cluster": 0.001}
    assert [s["multiplicity"] for s in env["payload"]["spheres"]] == [2]
    code, env, _ = run_cli(capsys, "spectrum", "--input", path)
    assert env["tolerances"] == {"cluster": 1e-8 * (1.0 + M.norm)}
    assert [s["multiplicity"] for s in env["payload"]["spheres"]] == [1, 1]


def test_tol_rejected_where_unused(tmp_path, capsys):
    path = write_matrix(tmp_path, "i.json", QMatrix.scalar(1, I))
    code, env, err = run_cli(capsys, "resolvent", "--at", "0,0,2,0",
                             "--tol", "1e-1", "--input", path)
    assert code == 1
    assert env is None
    assert "--tol" in err


def test_calculus_exp_of_zero(tmp_path, capsys):
    path = write_matrix(tmp_path, "zero.json", QMatrix.zeros(2))
    code, env, _ = run_cli(capsys, "calculus", "--fn", "exp",
                           "--input", path)
    assert code == 0
    out = parse_matrix_text(json.dumps(env["payload"]["matrix"]))
    assert_matrix_close(out, QMatrix.identity(2), 1e-12)
    assert env["payload"]["kind"] == "intrinsic"


def test_verify_command_passes(tmp_path, capsys):
    gen = rng(223)
    path = write_matrix(tmp_path, "rand.json", random_qmatrix(gen, 2, 0.7))
    code, env, _ = run_cli(capsys, "verify", "--suite", "product",
                           "--input", path)
    assert code == 0
    suites = env["payload"]["suites"]
    assert [s["suite"] for s in suites] == ["product"]
    assert suites[0]["passed"] is True
    assert all(c["discrepancy"] < 1e-8 for c in suites[0]["cases"])


def test_verify_all_runs_every_suite(tmp_path, capsys):
    gen = rng(227)
    path = write_matrix(tmp_path, "rand.json", random_qmatrix(gen, 2, 0.6))
    code, env, _ = run_cli(capsys, "verify", "--suite", "all",
                           "--input", path)
    assert code == 0
    names = [s["suite"] for s in env["payload"]["suites"]]
    assert names == ["product", "mapping", "composition", "polynomial",
                     "distance", "resolvent_series"]
    assert env["payload"]["passed"] is True


def test_verify_failure_exits_three(tmp_path, capsys):
    # an impossible tolerance turns an honest pass into a reported failure
    gen = rng(229)
    path = write_matrix(tmp_path, "rand.json", random_qmatrix(gen, 2, 0.6))
    code, env, _ = run_cli(capsys, "verify", "--suite", "resolvent_series",
                           "--tol", "1e-18", "--input", path)
    assert code == 3
    assert env["payload"]["passed"] is False


def test_radius_methods_agree(tmp_path, capsys):
    gen = rng(233)
    path = write_matrix(tmp_path, "rand.json", random_qmatrix(gen, 3))
    code_e, env_e, _ = run_cli(capsys, "radius", "--input", path)
    code_p, env_p, _ = run_cli(capsys, "radius", "--method", "power",
                               "--input", path)
    assert code_e == 0 and code_p == 0
    r_eig = env_e["payload"]["radius"]
    r_pow = env_p["payload"]["radius"]
    assert abs(r_pow - r_eig) <= 0.05 * r_eig


def test_resolvent_command_both_sides(tmp_path, capsys):
    path = write_matrix(tmp_path, "i.json", QMatrix.scalar(1, I))
    for side in ("L", "R"):
        code, env, _ = run_cli(capsys, "resolvent", "--at", "0,0,2,0",
                               "--side", side, "--input", path)
        assert code == 0
        out = parse_matrix_text(json.dumps(env["payload"]["matrix"]))
        want = (I + 2.0 * Quaternion(0, 0, 1, 0)) * (-1.0 / 3.0)
        assert abs(out.entry(0, 0) - want) < 1e-10


def test_pencil_inverse_command(tmp_path, capsys):
    path = write_matrix(tmp_path, "two.json",
                        QMatrix.from_entries([[Quaternion(2.0)]]))
    for method in ("direct", "neumann"):
        code, env, _ = run_cli(capsys, "pencil-inverse", "--at", "3,0,0,0",
                               "--method", method, "--input", path)
        assert code == 0
        out = parse_matrix_text(json.dumps(env["payload"]["matrix"]))
        assert abs(out.entry(0, 0) - Quaternion(1.0)) < 1e-10


def test_exp_log_root_commands(tmp_path, capsys):
    path = write_matrix(tmp_path, "four.json",
                        QMatrix.from_entries([[Quaternion(4.0)]]))
    code, env, _ = run_cli(capsys, "root", "--n", "2", "--input", path)
    assert code == 0
    out = parse_matrix_text(json.dumps(env["payload"]["matrix"]))
    assert abs(out.entry(0, 0) - Quaternion(2.0)) < 1e-10

    code, env, _ = run_cli(capsys, "log", "--input", path)
    assert code == 0
    out = parse_matrix_text(json.dumps(env["payload"]["matrix"]))
    assert abs(out.entry(0, 0).a - math.log(4.0)) < 1e-10

    path = write_matrix(tmp_path, "zero.json", QMatrix.zeros(1))
    code, env, _ = run_cli(capsys, "exp", "--input", path)
    assert code == 0
    out = parse_matrix_text(json.dumps(env["payload"]["matrix"]))
    assert out.entry(0, 0) == Quaternion(1.0)


STRUCTURE = {"structure": 1e-8}
QUADRATURE = {"quadrature": 1e-10, "structure": 1e-8}


@pytest.mark.parametrize("argv, tolerances", [
    (["spectrum"], {"cluster": 1e-8 * (1.0 + 4.0)}),
    (["radius", "--method", "eig"], {}),
    (["radius", "--method", "power"], {}),
    (["resolvent", "--at", "6,0,1,0"], STRUCTURE),
    (["resolvent", "--at", "6,0,1,0", "--method", "series"],
     {"truncation": 1e-12}),
    (["pencil-inverse", "--at", "6,0,1,0"], STRUCTURE),
    (["pencil-inverse", "--at", "6,0,1,0", "--method", "neumann"],
     {"truncation": 1e-12}),
    (["calculus", "--fn", "exp"], QUADRATURE),
    (["calculus", "--fn", "exp", "--method", "s_contour"], QUADRATURE),
    (["exp"], {"series": 1e-16}),
    (["log"], QUADRATURE),
    (["root", "--n", "2"], QUADRATURE),
    (["distance", "--alpha", "0"], {"cross_check": 1e-6}),
    (["verify", "--suite", "polynomial"], {"suite": 1e-8}),
])
def test_each_command_reports_the_tolerances_it_used(tmp_path, capsys, argv,
                                                     tolerances):
    path = write_matrix(tmp_path, "four.json",
                        QMatrix.from_entries([[Quaternion(4.0)]]))
    code, env, _ = run_cli(capsys, *argv, "--input", path)
    assert code == 0
    assert env["tolerances"] == tolerances


def test_reported_tolerances_are_the_library_constants(tmp_path, capsys):
    A = QMatrix.from_entries([[Quaternion(4.0)]])
    path = write_matrix(tmp_path, "four.json", A)
    quadrature = {"quadrature": qcalc.QUAD_REL_TOL,
                  "structure": qops.STRUCTURE_TOL}
    # one command per constant, checked against the constant itself
    for argv, tolerances in [
        (["spectrum"], {"cluster": qspec.CLUSTER_REL_TOL * (1.0 + A.norm)}),
        (["resolvent", "--at", "6,0,1,0"], {"structure": qops.STRUCTURE_TOL}),
        (["pencil-inverse", "--at", "6,0,1,0", "--method", "neumann"],
         {"truncation": qspec.SERIES_TOL}),
        (["calculus", "--fn", "exp"], quadrature),
        (["exp"], {"series": qcalc.EXP_SERIES_TOL}),
        (["distance", "--alpha", "0"], {"cross_check": qspec.CROSS_CHECK_TOL}),
        (["verify", "--suite", "polynomial"], {"suite": qcalc.SUITE_TOL}),
    ]:
        code, env, _ = run_cli(capsys, *argv, "--input", path)
        assert code == 0
        assert env["tolerances"] == tolerances, argv


@pytest.mark.parametrize("lam", [1.0 + 0.5j, -0.7 + 0.0j, 1.0 + 0.0j])
def test_spectrum_default_clusters_like_the_calculus(tmp_path, capsys, lam):
    # the perturbed eigenvalue pair of a defective block spreads beyond an
    # absolute 1e-8, which split it into odd clusters; the default radius
    # 1e-8 (1 + ||A||) holds it together
    gen = rng(337)
    for draw in range(20):
        A = _planted_jordan(gen, 2, lam)
        path = write_matrix(tmp_path, f"jordan{draw}.json", A)
        code, env, err = run_cli(capsys, "spectrum", "--input", path)
        assert code == 0, err
        want = s_spectrum(A)
        assert env["payload"]["spheres"] == [
            {"re": s.re, "im_norm": s.im_norm, "multiplicity": m}
            for s, m in want.spheres]
        assert env["tolerances"] == {"cluster": want.tol}


def test_calculus_and_distance_answer_on_a_defective_block(tmp_path, capsys):
    # a 3 x 3 Jordan block spreads its eigenvalues beyond any clustering
    # radius; the calculus and the distance read them unclustered
    A = _planted_jordan(rng(421), 3, 1.0 + 0.5j)
    path = write_matrix(tmp_path, "jordan3.json", A)
    for method in ("complex_path", "s_contour"):
        code, env, err = run_cli(capsys, "calculus", "--fn", "exp",
                                 "--method", method, "--input", path)
        assert code == 0, err
        out = parse_matrix_text(json.dumps(env["payload"]["matrix"]))
        assert_matrix_close(out, op_exp(A), 1e-12 * op_exp(A).norm)
    code, env, err = run_cli(capsys, "distance", "--alpha", "-1", "--input", path)
    assert code == 0, err
    assert env["payload"]["geometric"] == \
        float(np.abs(A.chi_eigenvalues + 1.0).min())


def test_distance_command(tmp_path, capsys):
    path = write_matrix(tmp_path, "two.json",
                        QMatrix.from_entries([[Quaternion(2.0)]]))
    code, env, _ = run_cli(capsys, "distance", "--alpha", "0", "--input", path)
    assert code == 0
    assert env["payload"]["geometric"] == pytest.approx(2.0, abs=1e-10)
    assert env["payload"]["via_radius"] == pytest.approx(2.0, abs=1e-8)


def test_cached_parser_parses_each_call_independently(tmp_path, capsys):
    # the parser is built once per process; options and defaults of one
    # call must not leak into the next
    assert build_parser() is build_parser()
    path = write_matrix(tmp_path, "i.json", QMatrix.from_entries([[I]]))
    code, env, _ = run_cli(capsys, "calculus", "--fn", "exp",
                           "--method", "s_contour", "--input", path)
    assert code == 0 and env["payload"]["method"] == "s_contour"
    code, env, _ = run_cli(capsys, "radius", "--method", "power",
                           "--input", path)
    assert code == 0 and env["payload"]["method"] == "power"
    code, env, _ = run_cli(capsys, "calculus", "--fn", "poly:[0, 1]",
                           "--input", path)
    assert code == 0
    assert env["payload"]["method"] == "complex_path"
    assert env["payload"]["fn"] == "poly:[0, 1]"
    code, env, _ = run_cli(capsys, "radius", "--input", path)
    assert code == 0 and env["payload"]["method"] == "eig"


def test_payload_determinism(tmp_path, capsys):
    gen = rng(239)
    path = write_matrix(tmp_path, "rand.json", random_qmatrix(gen, 2))
    _, env_one, _ = run_cli(capsys, "spectrum", "--input", path)
    _, env_two, _ = run_cli(capsys, "spectrum", "--input", path)
    for key in ("command", "input_digest", "payload", "tolerances"):
        assert env_one[key] == env_two[key], f"{key} not reproducible"


def test_envelope_is_one_compact_line(tmp_path, capsys):
    path = write_matrix(tmp_path, "i.json", QMatrix.scalar(2, I))
    assert main(["exp", "--input", path]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert out == json.dumps(json.loads(out)) + "\n"


# ---------------------------------------------------------------- exit codes

def test_neumann_answers_where_unscaled_powers_overflowed(tmp_path, capsys):
    # the powers of A overflowed before the Neumann series settles; at
    # unit scale the series agrees with the direct inverse
    A = random_qmatrix(rng(1), 8)
    path = write_matrix(tmp_path, "a.json", A)
    at = f"{1.05 * qspec.s_spectral_radius(A, 'eig')!r},0,0,0"
    entries = []
    for method in ("neumann", "direct"):
        code, env, _ = run_cli(capsys, "pencil-inverse", "--at", at,
                               "--method", method, "--input", path)
        assert code == 0
        entries.append(parse_matrix_text(json.dumps(env["payload"]["matrix"])))
    series, direct = entries
    assert (series - direct).norm <= 1e-10 * direct.norm


def test_neumann_at_a_point_where_every_other_coefficient_vanishes(capsys, tmp_path):
    # a_n = sin((n + 1) pi / 2) vanishes at odd n on the README's matrix
    path = tmp_path / "i.json"
    path.write_text('{"n": 1, "entries": [[[0, 1, 0, 0]]]}')
    code, env, _ = run_cli(capsys, "pencil-inverse", "--at", "0,2,0,0",
                           "--method", "neumann", "--input", str(path))
    assert code == 0
    a, b, c, d = env["payload"]["matrix"]["entries"][0][0]
    assert abs(a - 1 / 3) <= 1e-12 and b == c == d == 0.0


def test_exit_three_on_a_non_finite_series_term(tmp_path, capsys):
    # Q_q(0)^-1 = |q|^-2 I overflows at |q| = 1e-200
    path = write_matrix(tmp_path, "z.json", QMatrix.zeros(1))
    code, env, err = run_cli(capsys, "pencil-inverse", "--at", "1e-200,0,0,0",
                             "--method", "neumann", "--input", path)
    assert code == 3
    assert env is None
    assert err.count("\n") == 1
    assert err.startswith("error[NoConvergence]")


@pytest.mark.parametrize("entry", ["800"])
def test_exit_three_when_exp_overflows(tmp_path, capsys, entry):
    # exp(800) overflows in the squarings
    path = tmp_path / "big.json"
    path.write_text(f'{{"n": 1, "entries": [[[{entry}, 0, 0, 0]]]}}')
    code, env, err = run_cli(capsys, "exp", "--input", str(path))
    assert code == 3
    assert env is None
    assert err.count("\n") == 1
    assert err.startswith("error[NoConvergence]")


EVERY_COMMAND = {
    "spectrum": ["spectrum"],
    "radius-eig": ["radius", "--method", "eig"],
    "radius-power": ["radius", "--method", "power"],
    "resolvent": ["resolvent", "--at", "6,0,1,0"],
    "pencil-inverse": ["pencil-inverse", "--at", "6,0,1,0"],
    "calculus": ["calculus", "--fn", "exp"],
    "exp": ["exp"],
    "log": ["log"],
    "root": ["root", "--n", "2"],
    "distance": ["distance", "--alpha", "0.5"],
    "verify": ["verify", "--suite", "all"],
}


@pytest.mark.parametrize("argv", EVERY_COMMAND.values(), ids=EVERY_COMMAND)
def test_exit_one_when_the_norm_overflows(tmp_path, capsys, argv):
    # ||A||_F overflows at 1e200, so no command gets a matrix whose norm,
    # read by every tolerance, is infinite
    path = tmp_path / "big.json"
    path.write_text('{"n": 1, "entries": [[[1e200, 0, 0, 0]]]}')
    code, env, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 1
    assert env is None
    assert err == "error[NonFiniteEntry]: the Frobenius norm of the matrix overflows\n"


def test_exit_one_on_missing_file(capsys):
    code, env, err = run_cli(capsys, "spectrum", "--input", "/no/such/file")
    assert code == 1
    assert env is None
    assert "ParseError" in err


def test_exit_one_on_integer_too_large_for_a_float(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1, "entries": [[[1' + "0" * 400 + ', 0, 0, 0]]]}')
    code, env, err = run_cli(capsys, "spectrum", "--input", str(path))
    assert code == 1
    assert env is None
    assert err.startswith("error[NonFiniteEntry]")


def test_exit_one_on_bad_arguments(capsys):
    assert main(["spectrum"]) == 1
    capsys.readouterr()
    assert main(["unknowncmd", "--input", "x"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, error", [
    (("root", "--n", "0"), "UsageError"),
    (("root", "--n", "-2"), "UsageError"),
    (("distance", "--alpha", "nan"), "NonFiniteEntry"),
    (("distance", "--alpha", "inf"), "NonFiniteEntry"),
    (("pencil-inverse", "--at", "1,2,3"), "ParseError"),
    (("pencil-inverse", "--at", "1,x,0,0"), "ParseError"),
    (("resolvent", "--at", "1,inf,0,0"), "NonFiniteEntry"),
], ids=["root-n-0", "root-n-minus-2", "alpha-nan", "alpha-inf",
        "at-three-parts", "at-not-a-number", "at-inf"])
def test_exit_one_on_bad_argument_values(tmp_path, capsys, argv, error):
    path = write_matrix(tmp_path, "two.json",
                        QMatrix.from_entries([[Quaternion(2.0)]]))
    code, env, err = run_cli(capsys, *argv, "--input", path)
    assert code == 1
    assert env is None
    assert err.startswith(f"error[{error}]")


# spheres (0, 1) and (2, 0)
TWO_SPHERES = ('{"n": 2, "entries": [[[0, 1, 0, 0], [0, 0, 0, 0]], '
               '[[0, 0, 0, 0], [2, 0, 0, 0]]]}')


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
@pytest.mark.parametrize("argv", [("spectrum",), ("verify", "--suite", "distance")],
                         ids=["spectrum", "verify"])
def test_exit_one_on_a_tol_not_finite_and_non_negative(tmp_path, capsys, argv, tol):
    # an infinite tol would merge the two spheres and print the non-JSON
    # Infinity; NaN or a negative tol would cluster nothing
    path = tmp_path / "two.json"
    path.write_text(TWO_SPHERES)
    code, env, err = run_cli(capsys, *argv, f"--tol={tol}", "--input", str(path))
    assert code == 1
    assert env is None
    assert err.count("\n") == 1
    assert err.startswith("error[UsageError]")


def test_spectrum_tol_zero_is_legal(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(TWO_SPHERES)
    code, env, _ = run_cli(capsys, "spectrum", "--tol=0", "--input", str(path))
    assert code == 0
    assert env["tolerances"] == {"cluster": 0.0}
    assert [(s["re"], s["im_norm"], s["multiplicity"])
            for s in env["payload"]["spheres"]] == [(0.0, 1.0, 1), (2.0, 0.0, 1)]


@pytest.mark.parametrize("argv", [
    ("pencil-inverse", "--at=1e200,0,0,0"),
    ("resolvent", "--at=1e200,0,0,0"),
    ("distance", "--alpha=1e300"),
], ids=["pencil-inverse", "resolvent", "distance"])
def test_exit_three_when_the_pencil_overflows(tmp_path, capsys, argv):
    # |q|^2 overflows, and inf * 0 would fill the pencil with NaN
    path = tmp_path / "two.json"
    path.write_text(TWO_SPHERES)
    code, env, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 3
    assert env is None
    assert err.count("\n") == 1
    assert err.startswith("error[NoConvergence]")


@pytest.mark.parametrize("argv", [
    ("pencil-inverse", "--at=1e200,0,0,0", "--method", "neumann"),
    ("resolvent", "--at=1e200,0,0,0", "--method", "series"),
], ids=["neumann", "series"])
def test_series_answer_where_the_pencil_overflows(tmp_path, capsys, argv):
    path = tmp_path / "two.json"
    path.write_text(TWO_SPHERES)
    code, env, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 0
    assert err == ""
    assert np.isfinite(env["payload"]["matrix"]["entries"]).all()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
@pytest.mark.parametrize("n", [1, 16])
def test_exit_three_at_once_when_the_quadrature_sum_overflows(tmp_path, capsys,
                                                              n, method):
    # exp overflows on the nodes about the eigenvalue 800, so the first
    # level's sum is not finite and no later level can converge
    A = QMatrix.diag([800.0] + [0.1 * k for k in range(1, n)])
    path = write_matrix(tmp_path, "big.json", A)
    started = time.perf_counter()
    code, env, err = run_cli(capsys, "calculus", "--fn", "exp", "--method", method,
                             "--input", path)
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert env is None
    assert err.count("\n") == 1
    assert err.startswith("error[NoConvergence]")


@pytest.mark.parametrize("method", ["complex_path", "s_contour"])
def test_exit_three_when_stem_values_are_not_finite(tmp_path, capsys, method):
    # exp overflows at the nodes about 800: the stem read refuses them
    # before any arithmetic, so only the stem's own warnings are raised
    path = tmp_path / "big.json"
    path.write_text('{"n": 1, "entries": [[[800, 0, 0, 0]]]}')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, env, err = run_cli(capsys, "calculus", "--fn", "exp", "--method", method,
                                 "--input", str(path))
    assert code == 3
    assert env is None
    assert err.count("\n") == 1
    assert err.startswith("error[NoConvergence]: stems at (")
    assert "are not finite" in err
    assert caught
    assert all(w.filename.endswith("slicefn.py") for w in caught), \
        [(w.filename, str(w.message)) for w in caught]


@pytest.mark.parametrize("alpha", ["1e154", "-1e154", "1.3e154", "1.4e154", "2e154"])
@pytest.mark.parametrize("entries", [
    [[[0, 1, 0, 0]]],
    [[[0, 1, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [2, 0, 0, 0]]],
], ids=["readme", "two-sphere"])
def test_distance_answers_where_the_frobenius_norm_overflows(tmp_path, capsys,
                                                             entries, alpha):
    # ||alpha I - A||_F overflows from about 1e154 and alpha^2 from about
    # 1.34e154, while the distance itself is about |alpha|
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": len(entries), "entries": entries}))
    code, env, err = run_cli(capsys, "distance", f"--alpha={alpha}",
                             "--input", str(path))
    assert code == 0, err
    assert err == ""
    payload = env["payload"]
    assert payload["geometric"] == pytest.approx(abs(float(alpha)), rel=1e-12)
    assert payload["via_radius"] == pytest.approx(abs(float(alpha)), rel=1e-12)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_exit_two_on_branch_cut(tmp_path, capsys):
    path = write_matrix(tmp_path, "neg.json",
                        QMatrix.from_entries([[Quaternion(-1.0)]]))
    code, env, err = run_cli(capsys, "log", "--input", path)
    assert code == 2
    assert "BranchCut" in err


def test_exit_two_on_alpha_in_spectrum(tmp_path, capsys):
    path = write_matrix(tmp_path, "id.json", QMatrix.identity(2))
    code, _, err = run_cli(capsys, "distance", "--alpha", "1", "--input", path)
    assert code == 2
    assert "AlphaInSpectrum" in err


def test_exit_two_on_singular_pencil(tmp_path, capsys):
    path = write_matrix(tmp_path, "j.json",
                        QMatrix.from_entries([[Quaternion(0, 0, 1, 0)]]))
    code, _, err = run_cli(capsys, "pencil-inverse", "--at", "0,1,0,0",
                           "--input", path)
    assert code == 2
    assert "Singular" in err


def test_exit_two_on_diverging_series(tmp_path, capsys):
    path = write_matrix(tmp_path, "two.json",
                        QMatrix.from_entries([[Quaternion(2.0)]]))
    code, _, err = run_cli(capsys, "pencil-inverse", "--at", "1.5,0,0,0",
                           "--method", "neumann", "--input", path)
    assert code == 2
    assert "SeriesDiverges" in err


def test_stdin_subprocess_round_trip(tmp_path):
    payload = json.dumps(matrix_payload(QMatrix.scalar(1, I)))
    proc = subprocess.run(
        [sys.executable, "-m", "quatspec.cli", "spectrum", "--input", "-"],
        input=payload.encode(), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    env = json.loads(proc.stdout.decode())
    sphere = env["payload"]["spheres"][0]
    assert abs(sphere["re"]) < 1e-12 and abs(sphere["im_norm"] - 1.0) < 1e-12


def test_non_utf8_stdin_is_a_parse_error():
    proc = subprocess.run(
        [sys.executable, "-m", "quatspec.cli", "spectrum", "--input", "-"],
        input=b"\xff\xfe", capture_output=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode().startswith("error[ParseError]: ")
    assert "Traceback" not in proc.stderr.decode()


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"n": 1, "entries": [[[1, 0, 0, 0]]]} é'.encode("latin-1"))
    with pytest.raises(ParseError):
        parse_matrix(str(path))
    code, env, err = run_cli(capsys, "spectrum", "--input", str(path))
    assert code == 1 and env is None
    assert err.startswith("error[ParseError]: ")
