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


def test_quad_check_takes_no_trials_or_seed(capsys):
    for flag in ("--trials", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["quad", "check", "--diag", "0 2g", flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


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


def test_check_counterexample_exit_3(capsys, monkeypatch):
    monkeypatch.setitem(supertrop.oracle.SUITES, "frobenius",
                        (lambda seed, i, n: [("law", "1", "2")] if i == 0 else [], (None,)))
    argv = ["check", "frobenius", "--trials", "2", "--seed", "5"]
    assert run(capsys, *argv) == (
        3, "frobenius: counterexample (2 trials, seed 5)\n  FAIL law: expected 1, got 2\n", "")
    code, out, err = run(capsys, "--format", "json", *argv)
    assert (code, err) == (3, "")
    assert out == json.dumps({"failures": [["law", "1", "2"]], "seed": 5, "suite": "frobenius",
                              "trials": 2, "verdict": "counterexample"}, indent=2, sort_keys=True) + "\n"


def test_trials_below_one_exit_1(capsys):
    code, out, err = run(capsys, "check", "frobenius", "--trials", "-3")
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


def test_seed_env_var_not_an_integer_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("SUPERTROP_SEED", "abc")
    assert run(capsys, "check", "frobenius", "--trials", "1") == (
        2, "", "error: SUPERTROP_SEED must be an integer, got 'abc'\n")
    code, _, _ = run(capsys, "check", "frobenius", "--trials", "1", "--seed", "4")
    assert code == 0
    # quad check is exact and reads no seed.
    assert run(capsys, "quad", "check", "--diag", "0 2g") == (0, "strict\n", "")


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


# Exact output of every subcommand on small fixed inputs.  Each case runs in
# text and in JSON; a JSON stdout given as a dict is printed with indent 2 and
# sorted keys.  ``{name}`` in an argv is the path of GOLDEN_FILES[name].
GOLDEN_FILES = {
    "a": "0 1\n2 0\n",
    "closed": "0g 1\n2 0g\n",
    "form": "0 2\n2 0\n",
    "hyper": "-inf 0\n0 -inf\n",
    "vecs": "0 0\n1 -inf\n",
    "base": "0 -inf\n",
    "block": "0 -inf -inf\n-inf -inf 0\n-inf 0 -inf\n",
    "skew": "7 3\n5 2\n",
    "ghosts": "7g 3g\n5g 2g\n",
}

# (id, argv, exit code, text stdout, JSON stdout, stderr)
GOLDEN = [
    ("det", ["det", "{a}"], 0, "3\n",
     {"schema": "supertrop/2", "value": "3", "witnesses": [[1, 0]]}, ""),
    ("adj", ["adj", "{a}"], 0, "0 1\n2 0\n",
     {"rows": [["0", "1"], ["2", "0"]], "schema": "supertrop/2"}, ""),
    ("pinv", ["pinv", "--inline", "0 1; 2 0"], 0, "-3 -2\n-1 -3\n",
     {"rows": [["-3", "-2"], ["-1", "-3"]], "schema": "supertrop/2"}, ""),
    ("quasiid", ["quasiid", "{a}"], 0, "0 -2g\n-1g 0\n\n0 -2g\n-1g 0\n",
     {"I'_A": [["0", "-2g"], ["-1g", "0"]], "I_A": [["0", "-2g"], ["-1g", "0"]],
      "schema": "supertrop/2"}, ""),
    ("close", ["close", "{a}"], 0, "0g 1\n2 0g\n",
     {"rows": [["0g", "1"], ["2", "0g"]], "schema": "supertrop/2"}, ""),
    ("rank", ["rank", "--inline", "1 2; 3 4"], 0, "1\n",
     {"rank": 1, "schema": "supertrop/2"}, ""),
    ("indep", ["indep", "{a}"], 0, "true\n",
     {"independent": True, "schema": "supertrop/2"}, ""),
    ("dualbase", ["dualbase", "{closed}"], 0, "-3g -2\n-1 -3g\n",
     {"rows": [["-3g", "-2"], ["-1", "-3g"]], "schema": "supertrop/2"}, ""),
    ("dualgrid", ["dualgrid", "{closed}"], 0, "0 -2g\n-1g 0\n",
     {"rows": [["0", "-2g"], ["-1g", "0"]], "schema": "supertrop/2"}, ""),
    ("gram", ["gram", "{form}", "{vecs}"], 0, "2g 3\n3 2\n",
     {"rows": [["2g", "3"], ["3", "2"]], "schema": "supertrop/2"}, ""),
    ("symmetric", ["symmetric", "{form}"], 0, "true\n",
     {"schema": "supertrop/2", "symmetric": True}, ""),
    ("classify", ["classify", "{hyper}", "--vec", "0 -inf"], 0, "g-isotropic\n",
     {"g-isotropic": True, "normal": False, "schema": "supertrop/2"}, ""),
    ("pair", ["pair", "{form}", "--vec", "0 -inf", "--vec", "1 1"], 0,
     "left-g-orthogonal: false\nright-g-orthogonal: false\ncompatible: true\n"
     "strictly-compatible: true\nweakly-cauchy-schwartz: false\ncauchy-schwartz: false\n"
     "corner-singular: false\n",
     {"cauchy-schwartz": False, "compatible": True, "corner-singular": False,
      "left-g-orthogonal": False, "right-g-orthogonal": False, "schema": "supertrop/2",
      "strictly-compatible": True, "weakly-cauchy-schwartz": False}, ""),
    ("gs", ["gs", "{form}", "--vec", "1 0"], 0, "projected: -inf -inf\ncorrected: 1 0\ndominant: -\n",
     {"corrected": "1 0", "dominant": [], "projected": "-inf -inf", "schema": "supertrop/2"}, ""),
    ("gs-base", ["gs", "{form}", "--base", "{base}", "--vec", "1 0"], 0,
     "projected: 2 -inf\ncorrected: 2 0\ndominant: 0\n",
     {"corrected": "2 0", "dominant": [0], "projected": "2 -inf", "schema": "supertrop/2"}, ""),
    ("strip", ["strip", "{form}"], 0, "kind=interval lo=-2 hi=2\n",
     {"hi": "2", "kind": "interval", "lo": "-2", "schema": "supertrop/2"}, ""),
    ("strip-vec", ["strip", "{hyper}", "--vec", "0 1", "--vec", "1 0"], 0, "kind=interval lo=-1 hi=1\n",
     {"hi": "1", "kind": "interval", "lo": "-1", "schema": "supertrop/2"}, ""),
    ("decompose", ["decompose", "{block}"], 0,
     "anisotropic:\n  0 -inf -inf\nalternate:\n  -inf 0 -inf\n  -inf -inf 0\n",
     {"alternate": ["-inf 0 -inf", "-inf -inf 0"], "anisotropic": ["0 -inf -inf"],
      "schema": "supertrop/2"}, ""),
    ("quad-eval", ["quad", "eval", "--diag", "0 2", "--vec", "1 1"], 0, "4\n",
     {"schema": "supertrop/2", "value": "4"}, ""),
    ("quad-check", ["quad", "check", "--diag", "0 2g"], 0, "strict\n",
     {"schema": "supertrop/2", "verdict": "strict"}, ""),
    ("quad-check-form", ["quad", "check", "--form", "{skew}"], 0, "neither\n",
     {"schema": "supertrop/2", "verdict": "neither"}, ""),
    ("quad-check-ghost-form", ["quad", "check", "--form", "{ghosts}"], 0, "quasilinear\n",
     {"schema": "supertrop/2", "verdict": "quasilinear"}, ""),
    ("quad-fromq", ["quad", "fromq", "--diag", "0 2"], 0, "0 1\n1 2\n",
     {"rows": [["0", "1"], ["1", "2"]], "schema": "supertrop/2"}, ""),
    ("quad-hyper", ["quad", "hyper", "5"], 0, "-inf 5\n5 -inf\n",
     {"rows": [["-inf", "5"], ["5", "-inf"]], "schema": "supertrop/2"}, ""),
    ("quad-osum-diag", ["quad", "osum", "--diag", "0", "--diag", "2"], 0, "0 2\n",
     {"diagonal": ["0", "2"], "schema": "supertrop/2"}, ""),
    ("quad-osum-form", ["quad", "osum", "--form", "{hyper}", "--form", "{form}"], 0,
     "-inf 0 -inf -inf\n0 -inf -inf -inf\n-inf -inf 0 2\n-inf -inf 2 0\n",
     {"rows": [["-inf", "0", "-inf", "-inf"], ["0", "-inf", "-inf", "-inf"],
               ["-inf", "-inf", "0", "2"], ["-inf", "-inf", "2", "0"]], "schema": "supertrop/2"}, ""),
    ("quad-eval-two-forms", ["quad", "eval", "--diag", "0 2", "--form", "missing.mat", "--vec", "1 1"], 2,
     "", "", "error: quad eval takes exactly 1 form from --diag and --form, got 2\n"),
    ("quad-check-no-form", ["quad", "check"], 2,
     "", "", "error: quad check takes exactly 1 form from --diag and --form, got 0\n"),
    ("quad-fromq-two-forms", ["quad", "fromq", "--diag", "0 2", "--diag", "9 9"], 2,
     "", "", "error: quad fromq takes exactly 1 form from --diag and --form, got 2\n"),
    ("quad-osum-three-forms", ["quad", "osum", "--diag", "0", "--diag", "2", "--form", "{form}"], 2,
     "", "", "error: quad osum takes exactly 2 forms from --diag and --form, got 3\n"),
    ("check", ["check", "frobenius", "--trials", "5", "--seed", "2"], 0,
     "frobenius: pass (5 trials, seed 2)\n",
     {"failures": [], "seed": 2, "suite": "frobenius", "trials": 5, "verdict": "pass"}, ""),
    ("check-no-trials", ["check", "frobenius", "--trials", "0"], 1, "",
     "", "error: trial count must be at least 1, got 0\n"),
    ("pinv-singular", ["pinv", "--inline", "1 2; 3 4"], 1, "",
     "", "error: singular matrix: |A| = 5g\n"),
    ("det-bad-token", ["det", "--inline", "0 x"], 2, "",
     "", "error: bad scalar token: 'x'\n"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, code, text_out, json_out, err",
    [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN],
)
def test_golden_output(capsys, monkeypatch, tmp_path, fmt, argv, code, text_out, json_out, err):
    monkeypatch.delenv("SUPERTROP_SEED", raising=False)
    paths = {}
    for name, text in GOLDEN_FILES.items():
        paths[name] = tmp_path / f"{name}.mat"
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in argv]
    if fmt == "json":
        argv = ["--format", "json"] + argv
        out = json_out
        if isinstance(json_out, dict):
            out = json.dumps(json_out, indent=2, sort_keys=True) + "\n"
    else:
        out = text_out
    assert run(capsys, *argv) == (code, out, err)


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
