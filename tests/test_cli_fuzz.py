"""Fuzzed command lines: every subcommand ends in an exit code, never in an
escaping exception."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from supertrop.cli import main
from supertrop.oracle import SUITES

GOOD_TOKENS = ["0", "1", "-2", "3g", "1/2", "-5/3g", "-inf"]
BAD_TOKENS = ["x", "1/0", "g", "1.5", "inf", "--1"]


def tokens(draw, k):
    """k scalar tokens, all well formed three times in four."""
    pool = GOOD_TOKENS if draw(st.integers(0, 3)) else GOOD_TOKENS * 4 + BAD_TOKENS
    return [draw(st.sampled_from(pool)) for _ in range(k)]


MATRIX_COMMANDS = ["det", "adj", "pinv", "quasiid", "close", "rank", "indep", "dualbase", "dualgrid"]
QUAD_COMMANDS = ["eval", "check", "fromq", "hyper", "osum"]
OTHER_COMMANDS = ["gram", "symmetric", "classify", "pair", "gs", "strip", "decompose", "check"]


@st.composite
def matrix_rows(draw):
    """Up to 4x4, mostly square, sometimes with a ragged last row."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.sampled_from([rows, rows, rows, 1, 2, 3, 4]))
    lengths = [cols] * rows
    if draw(st.integers(0, 9)) == 0:
        lengths[-1] = draw(st.integers(1, 5))
    flat = iter(tokens(draw, sum(lengths)))
    return [[next(flat) for _ in range(k)] for k in lengths]


def vector_text(draw):
    return " ".join(tokens(draw, draw(st.integers(0, 5))))


@st.composite
def argvs(draw):
    """(argv, files): the command line and the matrix files it names."""
    files = {}

    def matrix_file():
        rows = draw(matrix_rows())
        if draw(st.integers(0, 4)) == 0:
            name, text = f"m{len(files)}.json", json.dumps({"rows": rows})
        else:
            name, text = f"m{len(files)}.mat", "\n".join(" ".join(r) for r in rows)
        files[name] = text
        return "{dir}/" + name

    def vec():
        return f"--vec={vector_text(draw)}"

    def trials():
        return [f"--trials={draw(st.integers(-2, 3))}", f"--seed={draw(st.integers(0, 3))}"]

    argv = draw(st.sampled_from([[], ["--format", "json"]]))
    top = draw(st.sampled_from(MATRIX_COMMANDS + OTHER_COMMANDS + ["quad"]))
    argv.append(top)
    if top in MATRIX_COMMANDS:
        how = draw(st.sampled_from(["file", "file", "inline", "inline", "both", "none"]))
        if how in ("file", "both"):
            argv.append(matrix_file())
        if how in ("inline", "both"):
            argv.append("--inline=" + "; ".join(" ".join(r) for r in draw(matrix_rows())))
    elif top == "gram":
        argv += [matrix_file(), matrix_file()]
    elif top == "symmetric":
        argv.append(matrix_file())
    elif top == "classify":
        argv += [matrix_file(), vec()]
    elif top in ("pair", "strip"):
        argv.append(matrix_file())
        argv += [vec() for _ in range(draw(st.sampled_from([0, 1, 2, 2, 2, 3])))]
    elif top in ("gs", "decompose"):
        argv.append(matrix_file())
        if draw(st.booleans()):
            argv.append(f"--base={matrix_file()}")
        if top == "gs":
            argv.append(vec())
    elif top == "check":
        argv.append(draw(st.sampled_from(sorted(SUITES) + ["no-such-suite"])))
        argv += trials()
    else:
        sub = draw(st.sampled_from(QUAD_COMMANDS))
        argv.append(sub)
        if sub == "hyper":
            argv += tokens(draw, 1)
        else:
            for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
                if draw(st.booleans()):
                    argv.append(f"--diag={vector_text(draw)}")
                else:
                    argv.append(f"--form={matrix_file()}")
            if sub == "eval":
                argv.append(vec())
    return argv, files


@settings(max_examples=500)
@given(argvs())
def test_cli_fuzz_exits_with_a_code(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [a.replace("{dir}", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
