"""Command-line interface: outputs, exit codes, and format round-trips."""

import json
import os
import subprocess
import sys

import pytest

import supertrop
from supertrop import parse_matrix
from supertrop.cli import main


@pytest.fixture
def a_mat(tmp_path):
    p = tmp_path / "A.mat"
    p.write_text("0 1\n2 0\n")
    return str(p)


@pytest.fixture
def singular_mat(tmp_path):
    p = tmp_path / "S.mat"
    p.write_text("1 2\n3 4\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_expand(capsys, a_mat):
    code, out, _ = run(capsys, "det", a_mat)
    assert code == 0
    assert out.strip() == "3"


def test_det_inline(capsys):
    code, out, _ = run(capsys, "det", "--inline", "0 1; 2 0")
    assert code == 0
    assert out.strip() == "3"


def test_det_json_schema(capsys, a_mat):
    code, out, _ = run(capsys, "--format", "json", "det", a_mat)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "supertrop/2"
    assert payload["value"] == "3"
    assert payload["witnesses"] == [[1, 0]]


def test_pinv_singular_exit_1(capsys, singular_mat):
    code, out, err = run(capsys, "pinv", singular_mat)
    assert code == 1
    assert "singular matrix: |A| = 5g" in err


def test_pinv_output_round_trips(capsys, a_mat):
    code, out, _ = run(capsys, "pinv", a_mat)
    assert code == 0
    assert parse_matrix(out) == parse_matrix("-3 -2\n-1 -3")


def test_close_and_rank(capsys, a_mat):
    code, out, _ = run(capsys, "close", a_mat)
    assert code == 0
    assert parse_matrix(out) == parse_matrix("0g 1\n2 0g")
    code, out, _ = run(capsys, "rank", "--inline", "1 2; 3 4")
    assert code == 0
    assert out.strip() == "1"


def test_quasiid(capsys, a_mat):
    code, out, _ = run(capsys, "quasiid", a_mat)
    assert code == 0
    i_a, i_a_prime = out.strip().split("\n\n")
    assert parse_matrix(i_a) == parse_matrix("0 -2g\n-1g 0")
    assert parse_matrix(i_a_prime) == parse_matrix("0 -2g\n-1g 0")


def test_indep(capsys):
    code, out, _ = run(capsys, "indep", "--inline", "0 -inf; -inf 0")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "indep", "--inline", "1 2; 3 4")
    assert code == 0 and out.strip() == "false"


def test_dualgrid_pattern(capsys, tmp_path):
    p = tmp_path / "closed.mat"
    p.write_text("0g 1\n2 0g\n")
    code, out, _ = run(capsys, "dualgrid", str(p))
    assert code == 0
    assert parse_matrix(out) == parse_matrix("0 -2g\n-1g 0")


def test_dualbase_requires_closed(capsys, a_mat):
    code, _, err = run(capsys, "dualbase", a_mat)
    assert code == 1
    assert "close" in err


def test_gram_and_symmetric(capsys, tmp_path):
    form = tmp_path / "form.mat"
    form.write_text("0 -inf\n-inf 0\n")
    vecs = tmp_path / "vecs.mat"
    vecs.write_text("0 0\n1 -inf\n")
    code, out, _ = run(capsys, "gram", str(form), str(vecs))
    assert code == 0
    assert parse_matrix(out) == parse_matrix("0g 1\n1 2")
    code, out, _ = run(capsys, "symmetric", str(form))
    assert code == 0 and out.strip() == "true"


def test_classify_and_pair(capsys, tmp_path):
    hyper = tmp_path / "hyper.mat"
    hyper.write_text("-inf 0\n0 -inf\n")
    code, out, _ = run(capsys, "classify", str(hyper), "--vec", "0 -inf")
    assert code == 0 and out.strip() == "g-isotropic"
    code, out, _ = run(
        capsys, "--format", "json", "pair", str(hyper),
        "--vec", "0 -inf", "--vec", "-inf 0",
    )
    assert code == 0
    flags = json.loads(out)
    assert flags["weakly-cauchy-schwartz"] is False


def test_strip_default_vectors(capsys, tmp_path):
    form = tmp_path / "form.mat"
    form.write_text("0 2\n2 0\n")
    code, out, _ = run(capsys, "--format", "json", "strip", str(form))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "interval"
    assert payload["lo"] == "-2" and payload["hi"] == "2"


def test_decompose_default_base(capsys, tmp_path):
    form = tmp_path / "block.mat"
    form.write_text("0 -inf -inf\n-inf -inf 0\n-inf 0 -inf\n")
    code, out, _ = run(capsys, "--format", "json", "decompose", str(form))
    assert code == 0
    payload = json.loads(out)
    assert payload["anisotropic"] == ["0 -inf -inf"]
    assert payload["alternate"] == ["-inf 0 -inf", "-inf -inf 0"]


def test_quad_eval_and_hyper(capsys):
    code, out, _ = run(capsys, "quad", "eval", "--diag", "0 2", "--vec", "1 1")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "quad", "hyper", "5")
    assert code == 0
    assert parse_matrix(out) == parse_matrix("-inf 5\n5 -inf")


def test_quad_check_and_fromq(capsys):
    code, out, _ = run(capsys, "quad", "check", "--diag", "0 2g")
    assert code == 0 and out.strip() == "strict"
    code, out, _ = run(capsys, "quad", "fromq", "--diag", "0 2")
    assert code == 0
    assert parse_matrix(out) == parse_matrix("0 1\n1 2")


def test_quad_osum(capsys):
    code, out, _ = run(capsys, "quad", "osum", "--diag", "0", "--diag", "2")
    assert code == 0 and out.strip() == "0 2"


def test_check_suite_pass(capsys):
    code, out, _ = run(capsys, "check", "frobenius", "--trials", "50", "--seed", "7")
    assert code == 0
    assert "pass" in out


def test_check_json_report(capsys):
    code, out, _ = run(capsys, "--format", "json", "check", "surpass-order",
                       "--trials", "20", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["seed"] == 3


def test_trials_below_one_exit_1(capsys, tmp_path):
    form = tmp_path / "form.mat"
    form.write_text("0 -inf\n-inf 0\n")
    for argv in (["check", "frobenius", "--trials", "-3"],
                 ["quad", "check", "--form", str(form), "--trials", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "at least 1" in err


def test_gs_vector_dimension_exit_1(capsys, tmp_path):
    form = tmp_path / "form.mat"
    form.write_text("0 -inf\n-inf 0\n")
    code, out, err = run(capsys, "gs", str(form), "--vec", "1")
    assert code == 1
    assert out == ""
    assert "dimension" in err


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SUPERTROP_SEED", "11")
    code, out, _ = run(capsys, "--format", "json", "check", "frobenius",
                       "--trials", "10")
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "det", "--inline", "0 nonsense")
    assert code == 2
    assert "error:" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "det", "/no/such/file.mat")
    assert code == 2


def test_file_and_inline_exit_2(capsys, a_mat):
    code, out, err = run(capsys, "det", a_mat, "--inline", "5")
    assert code == 2
    assert out == ""
    assert "error:" in err


# Malformed inputs that once ended in a Python traceback.
BAD_INPUTS = [
    ("zero-denominator", ["det", "--inline=1/0 1; 2 3"], None, None),
    ("ragged-json", ["det", "{file}"], "ragged.json", b'{"rows": [["1", "2"], ["3"]]}'),
    ("numeric-json", ["det", "{file}"], "numeric.json", b'{"rows": [[1, 2], [3, 4]]}'),
    ("malformed-json", ["det", "{file}"], "malformed.json", b'{"rows": [["1", '),
    ("directory", ["det", "{dir}"], None, None),
    ("not-utf8", ["det", "{file}"], "latin1.mat", b"1 2\n3 \xff\n"),
    ("strip-1d", ["strip", "{file}"], "1d.mat", b"3\n"),
]


@pytest.mark.parametrize(
    "argv, name, data", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
)
def test_bad_input_exits_cleanly(tmp_path, argv, name, data):
    path = tmp_path / (name or "unused")
    if data is not None:
        path.write_bytes(data)
    argv = [a.format(file=path, dir=tmp_path) for a in argv]
    src = os.path.dirname(os.path.dirname(supertrop.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "supertrop.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


def test_output_round_trip_matrices(capsys, a_mat):
    for cmd in ("adj", "pinv", "close"):
        code, out, _ = run(capsys, cmd, a_mat)
        assert code == 0
        m = parse_matrix(out)
        assert str(m) == out.strip()
