"""Command line front end: matrix file format, envelopes, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from quatspec import I, QMatrix, Quaternion
from quatspec.cli import (
    build_parser,
    main,
    matrix_payload,
    parse_matrix,
    parse_matrix_text,
)
from quatspec.errors import NonFiniteEntry, NonSquare, ParseError

from _helpers import assert_matrix_close, random_qmatrix, rng


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
    path = write_matrix(tmp_path, "near.json", QMatrix.diag([1.0, 1.0005]))
    code, env, _ = run_cli(capsys, "spectrum", "--tol", "1e-3",
                           "--input", path)
    assert code == 0
    assert env["tolerances"] == {"cluster": 0.001}
    assert [s["multiplicity"] for s in env["payload"]["spheres"]] == [2]
    code, env, _ = run_cli(capsys, "spectrum", "--input", path)
    assert env["tolerances"] == {"cluster": 1e-8}
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
], ids=["root-n-0", "root-n-minus-2", "alpha-nan", "alpha-inf"])
def test_exit_one_on_bad_argument_values(tmp_path, capsys, argv, error):
    path = write_matrix(tmp_path, "two.json",
                        QMatrix.from_entries([[Quaternion(2.0)]]))
    code, env, err = run_cli(capsys, *argv, "--input", path)
    assert code == 1
    assert env is None
    assert err.startswith(f"error[{error}]")


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
