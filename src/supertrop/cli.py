"""Command-line front end.

One subcommand per library operation, with stable text output (the scalar
and matrix grammars) and a ``--format json`` alternative carrying the
versioned schema tag.  Exit codes: 0 success/pass, 1 domain or precondition
error, 2 parse error, 3 counterexample found by a check suite.

Each subcommand is declared once in :func:`build_parser`, which binds its
handler as ``run`` (the matrix commands come from ``MATRIX_COMMANDS``).  A
handler returns ``(text, payload)``; ``check`` returns its report's own JSON
text as the payload, which carries no schema tag, and its exit code third.
:func:`main` is the one call site: it runs the handler, prints the text or
the tagged payload, and maps every error to its exit code.

Only ``errors``, ``scalars`` and ``matrices`` are imported with this
module.  The form, dual and quadratic commands reach their modules through
the lazy ``supertrop`` package when they run, and only ``check`` imports
``oracle``, so a command loads no module it does not run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import supertrop as lib

from .errors import ParseError, ShapeError, SupertropError
from .matrices import (
    Matrix,
    adjoint,
    close,
    det,
    independent,
    matrix_from_json,
    matrix_to_json,
    parse_matrix,
    pseudo_inverse,
    quasi_identities,
    rank,
)
from .scalars import Vector, parse_scalar, parse_vector

SCHEMA = "supertrop/2"


def _seed(args) -> int:
    """``--seed``, else the ``SUPERTROP_SEED`` environment variable, else 0."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("SUPERTROP_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"SUPERTROP_SEED must be an integer, got {text!r}") from None


def _load_matrix(path: Optional[str], inline: Optional[str] = None) -> Matrix:
    """An inline literal (';' separates rows) or a text or .json file."""
    if (path is None) == (inline is None):
        raise ParseError("give exactly one of a matrix file and an --inline literal")
    if inline is not None:
        return parse_matrix(inline.replace(";", "\n"))
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return matrix_from_json(text)
    return parse_matrix(text)


def _load_rows(path: str) -> List[Vector]:
    """The rows of a matrix file, as vectors."""
    return [Vector(r) for r in _load_matrix(path).entries]


def _form(args) -> lib.BilinearForm:
    return lib.BilinearForm(_load_matrix(args.form))


def _rows(m: Matrix):
    return str(m), matrix_to_json(m)


def _field(key: str, value):
    """A one-field result; the text of a bool or int is its JSON literal."""
    return json.dumps(value), {key: value}


def _det(m: Matrix):
    result = det(m)
    value = str(result.value)
    return value, {"value": value, "witnesses": sorted(list(w) for w in result.witnesses)}


def _quasiid(m: Matrix):
    i_a, i_a_prime = quasi_identities(m)
    payload = {"I_A": matrix_to_json(i_a)["rows"], "I'_A": matrix_to_json(i_a_prime)["rows"]}
    return f"{i_a}\n\n{i_a_prime}", payload


MATRIX_COMMANDS = {
    "det": ("determinant (permanent)", _det),
    "adj": ("adjoint matrix", lambda m: _rows(adjoint(m))),
    "pinv": ("pseudo-inverse A^nabla", lambda m: _rows(pseudo_inverse(m))),
    "quasiid": ("quasi-identities I_A and I'_A", _quasiid),
    "close": ("closed base matrix I_A A", lambda m: _rows(close(m))),
    "rank": ("tropical rank by minor enumeration", lambda m: _field("rank", rank(m))),
    "indep": ("tropical independence of the columns",
              lambda m: _field("independent", independent(m.columns()))),
    "dualbase": ("dual-base functional rows of a closed base",
                 lambda m: _rows(Matrix.from_rows(f.row for f in lib.dual_base(m).functionals))),
    "dualgrid": ("dual evaluation grid [eps_i(b_j)]",
                 lambda m: _rows(lib.dual_eval_matrix(lib.dual_base(m)))),
}


def _classify(args):
    c = lib.classify_vector(_form(args), parse_vector(args.vec))
    text = ("g-isotropic" if c.isotropic else "g-nonisotropic") + (" normal" if c.normal else "")
    return text, {"g-isotropic": c.isotropic, "normal": c.normal}


def _pair(args):
    if len(args.vec) != 2:
        raise ParseError("pair needs exactly two --vec arguments")
    flags = lib.pair_class(_form(args), *map(parse_vector, args.vec)).as_dict()
    return "\n".join(f"{k}: {json.dumps(v)}" for k, v in flags.items()), flags


def _gs(args):
    form = _form(args)
    base = _load_rows(args.base) if args.base else []
    res = lib.gs_step(form, base, parse_vector(args.vec))
    dominant = sorted(res.dominant)
    text = (
        f"projected: {res.projected}\n"
        f"corrected: {res.corrected}\n"
        f"dominant: {' '.join(map(str, dominant)) or '-'}"
    )
    return text, {"projected": str(res.projected), "corrected": str(res.corrected), "dominant": dominant}


def _strip(args):
    form = _form(args)
    if form.dim < 2:
        raise ShapeError("the strip needs a form of dimension at least 2")
    if args.vec and len(args.vec) != 2:
        raise ParseError("strip needs zero or two --vec arguments")
    v1, v2 = map(parse_vector, args.vec) if args.vec else Matrix.identity(form.dim).columns()[:2]
    payload = lib.isotropic_strip(form, v1, v2).as_dict()
    return " ".join(f"{k}={v}" for k, v in payload.items()), payload


def _decompose(args):
    form = _form(args)
    base = _load_rows(args.base) if args.base else Matrix.identity(form.dim).columns()
    aniso, alternate = lib.decompose(form, base)
    text = "anisotropic:\n" + "\n".join(f"  {v}" for v in aniso)
    text += "\nalternate:\n" + "\n".join(f"  {v}" for v in alternate)
    return text, {"anisotropic": [str(v) for v in aniso], "alternate": [str(v) for v in alternate]}


def _quad_forms(args, count: int) -> List[lib.QuadraticForm]:
    """Exactly ``count`` quadratic forms, the ``--diag`` ones first."""
    diags, forms = args.diag or [], args.form or []
    if len(diags) + len(forms) != count:
        noun = "form" if count == 1 else "forms"
        raise ParseError(f"quad {args.qcommand} takes exactly {count} {noun} from --diag and "
                         f"--form, got {len(diags) + len(forms)}")
    return [lib.QuadraticForm.from_diagonal(tuple(parse_vector(d))) for d in diags] + [
        lib.QuadraticForm.from_form(lib.BilinearForm(_load_matrix(f))) for f in forms
    ]


def _quad_eval(args):
    value = str(lib.q_eval(_quad_forms(args, 1)[0], parse_vector(args.vec)))
    return value, {"value": value}


def _quad_check(args):
    verdict = lib.quasilinearity_check(_quad_forms(args, 1)[0])
    return verdict, {"verdict": verdict}


def _quad_osum(args):
    out = lib.orthogonal_sum(*_quad_forms(args, 2))
    if not out.is_diagonal:
        return _rows(out.form.gram)
    diagonal = [str(x) for x in out.diagonal]
    return " ".join(diagonal), {"diagonal": diagonal}


def _check(args):
    seed = _seed(args)
    report = lib.run_suite(args.suite, args.trials, seed)
    lines = [f"{report.suite}: {report.verdict} ({report.trials} trials, seed {seed})"]
    lines += [f"  FAIL {tag}: expected {expected}, got {got}" for tag, expected, got in report.failures]
    return "\n".join(lines), report.to_json(), 0 if report.passed else 3


class _SuiteNames:
    """``check``'s choices, ``sorted(oracle.SUITES)``, read when argparse
    tests or lists them, so that no other command imports ``oracle``."""

    def __iter__(self):
        return iter(sorted(lib.oracle.SUITES))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="supertrop",
        description="Exact supertropical linear algebra over max-plus rationals.",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(subs, name: str, help_: str, run):
        sp = subs.add_parser(name, help=help_)
        sp.set_defaults(run=run)
        return sp

    for name, (help_, handler) in MATRIX_COMMANDS.items():
        sp = cmd(sub, name, help_, lambda args, h=handler: h(_load_matrix(args.matrix, args.inline)))
        sp.add_argument("matrix", nargs="?", help="matrix file (text or .json)")
        sp.add_argument("--inline", help="inline matrix, ';' separates rows")

    def formcmd(name: str, help_: str, run):
        sp = cmd(sub, name, help_, run)
        sp.add_argument("form", help="Gram matrix file defining the form")
        return sp

    spg = formcmd("gram", "Gram matrix of vectors under a form",
                  lambda args: _rows(lib.gram_of(_form(args), _load_rows(args.vectors))))
    spg.add_argument("vectors", help="matrix file whose rows are the vectors")
    formcmd("symmetric", "supertropical symmetry test",
            lambda args: _field("symmetric", lib.is_supertropically_symmetric(_form(args))))
    spc = formcmd("classify", "isotropy/normality of a vector", _classify)
    spc.add_argument("--vec", required=True, help="vector as scalar tokens")
    spp = formcmd("pair", "pair classification flags", _pair)
    spp.add_argument("--vec", action="append", required=True, help="give twice")
    spgs = formcmd("gs", "one Gram-Schmidt step", _gs)
    spgs.add_argument("--base", help="matrix file whose rows are the base")
    spgs.add_argument("--vec", required=True)
    spst = formcmd("strip", "rank-2 g-isotropic strip", _strip)
    spst.add_argument("--vec", action="append", help="two vectors; default e1, e2")
    spde = formcmd("decompose", "anisotropic/alternate decomposition", _decompose)
    spde.add_argument("--base", help="matrix file whose rows are the base")

    spq = sub.add_parser("quad", help="quadratic form operations")
    qsub = spq.add_subparsers(dest="qcommand", required=True)

    def quadcmd(name: str, help_: str, run):
        sq = cmd(qsub, name, help_, run)
        sq.add_argument("--diag", action="append", help="diagonal values as scalar tokens")
        sq.add_argument("--form", action="append", help="Gram matrix file")
        return sq

    sqe = quadcmd("eval", "evaluate Q(v)", _quad_eval)
    sqe.add_argument("--vec", required=True)
    quadcmd("check", "quasilinearity classification", _quad_check)
    quadcmd("fromq", "bilinear companion of a strictly quasilinear form",
            lambda args: _rows(lib.form_from_q(_quad_forms(args, 1)[0]).gram))
    sqh = cmd(qsub, "hyper", "hyperbolic plane gram matrix",
              lambda args: _rows(lib.hyperbolic_plane(parse_scalar(args.value)).gram))
    sqh.add_argument("value", help="tangible cross pairing")
    quadcmd("osum", "orthogonal sum (give --diag or --form twice)", _quad_osum)

    spk = cmd(sub, "check", "run a property suite", _check)
    # Set after add_argument, which would list the choices to check a metavar.
    spk.add_argument("suite").choices = _SuiteNames()
    spk.add_argument("--trials", type=int, default=200)
    spk.add_argument("--seed", type=int, default=None)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, payload, *code = args.run(args)
        if args.format == "json" and not isinstance(payload, str):
            payload = json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True)
        print(payload if args.format == "json" else text)
        return code[0] if code else 0
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SupertropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
