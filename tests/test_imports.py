"""Start-up cost: a CLI command imports only the modules it runs, and the
package resolves its public names lazily, onto a dataclass-free core."""

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import supertrop
from supertrop.cli import build_parser, main
from supertrop.oracle import SUITES

HEAVY = {"supertrop.bilinear", "supertrop.dual", "supertrop.quadratic", "supertrop.oracle"}


def _modules_after(argv, tmp_path):
    """Exit code and the modules loaded by ``cli.main(argv)`` in a fresh
    interpreter, with its output discarded."""
    code = (
        "import contextlib, io, json, sys\n"
        "from supertrop import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = cli.main({argv!r})\n"
        "print(json.dumps([rc, sorted(sys.modules)]))\n"
    )
    src = os.path.dirname(os.path.dirname(supertrop.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout)
    return rc, set(modules)


@pytest.fixture
def form_file(tmp_path):
    path = tmp_path / "form.mat"
    path.write_text("0 1\n1 0\n")
    return str(path)


@pytest.mark.parametrize("argv, unloaded", [
    (["det", "--inline", "0 1; 2 0"], HEAVY),
    (["pinv", "--inline", "0 1; 2 0"], HEAVY),
    (["gram", "{form}", "{form}"], {"supertrop.dual", "supertrop.oracle"}),
    (["quad", "eval", "--diag", "0 1", "--vec", "2 3"], {"supertrop.dual", "supertrop.oracle"}),
    (["check", "frobenius", "--trials", "3"], set()),
], ids=["det", "pinv", "gram", "quad-eval", "check"])
def test_a_command_imports_only_what_it_runs(tmp_path, form_file, argv, unloaded):
    rc, modules = _modules_after([a.format(form=form_file) for a in argv], tmp_path)
    assert rc == 0
    assert "dataclasses" not in modules
    assert not unloaded & modules
    if argv[0] == "check":
        assert "supertrop.oracle" in modules


def test_every_public_name_is_its_modules_object():
    assert len(supertrop.__all__) == len(set(supertrop.__all__)) == 74
    namespace = {}
    exec(f"from supertrop import {', '.join(supertrop.__all__)}", namespace)
    for name in supertrop.__all__:
        defining = importlib.import_module(f"supertrop.{supertrop._MODULE_OF[name]}")
        assert getattr(supertrop, name) is getattr(defining, name) is namespace[name], name
    assert "det" not in vars(supertrop)  # resolved, not stored


def test_a_patched_binding_is_read_through_the_package(monkeypatch):
    from supertrop import matrices

    assert supertrop.det is matrices.det
    monkeypatch.setattr(matrices, "det", sentinel := object())
    assert supertrop.det is sentinel
    monkeypatch.undo()
    assert supertrop.det is matrices.det
    assert "det" not in vars(supertrop)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        supertrop.no_such_name
    with pytest.raises(ImportError):
        exec("from supertrop import no_such_name", {})


def test_suite_choices_are_the_oracle_suites():
    check = build_parser()._subparsers._group_actions[0].choices["check"]
    (suite,) = [a for a in check._actions if a.dest == "suite"]
    assert list(suite.choices) == sorted(SUITES)


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "no-such-suite"])
    assert exc.value.code == 2
    assert "invalid choice: 'no-such-suite'" in capsys.readouterr().err


def test_values_are_frozen_and_compare_by_fields():
    one = supertrop.ONE
    strip = supertrop.StripResult("point", at=Fraction(1))
    values = [one, supertrop.Vector((one,)), supertrop.Matrix(((one,),)), strip,
              supertrop.QuadraticForm(diagonal=(one,))]
    for value in values:
        with pytest.raises(AttributeError):
            value.anything = 1
    assert strip == supertrop.StripResult("point", None, None, Fraction(1), False)
    assert hash(strip) == hash(("point", None, None, Fraction(1), False))
    assert strip != supertrop.StripResult("point", at=Fraction(2))
    assert supertrop.Scalar(Fraction(0)) == one and hash(one) == hash((Fraction(0), False))
    assert repr(strip) == "StripResult(kind='point', lo=None, hi=None, at=Fraction(1, 1), swapped=False)"
    with pytest.raises(TypeError):
        supertrop.StripResult(kind="point", knd="x")
