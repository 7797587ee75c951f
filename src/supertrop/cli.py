"""Command-line front end.

One subcommand per library operation, with stable text output (the scalar
and matrix grammars) and a ``--format json`` alternative carrying the
versioned schema tag.  Exit codes: 0 success/pass, 1 domain or precondition
error, 2 parse error, 3 counterexample found by a check suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import bilinear as bl
from . import dual as du
from . import quadratic as qd
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
from .oracle import SUITES, run_suite
from .scalars import Vector, parse_scalar, parse_vector

SCHEMA = "supertrop/2"


def _default_seed() -> int:
    return int(os.environ.get("SUPERTROP_SEED", "0"))


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


def _emit(args, text_value: str, json_obj: dict) -> None:
    if args.format == "json":
        json_obj = {"schema": SCHEMA, **json_obj}
        print(json.dumps(json_obj, indent=2, sort_keys=True))
    else:
        print(text_value)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="supertrop",
        description="Exact supertropical linear algebra over max-plus rationals.",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    def matcmd(name: str, help_: str):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("matrix", nargs="?", help="matrix file (text or .json)")
        sp.add_argument("--inline", help="inline matrix, ';' separates rows")
        return sp

    matcmd("det", "determinant (permanent)")
    matcmd("adj", "adjoint matrix")
    matcmd("pinv", "pseudo-inverse A^nabla")
    matcmd("quasiid", "quasi-identities I_A and I'_A")
    matcmd("close", "closed base matrix I_A A")
    matcmd("rank", "tropical rank by minor enumeration")
    matcmd("indep", "tropical independence of the columns")
    matcmd("dualbase", "dual-base functional rows of a closed base")
    matcmd("dualgrid", "dual evaluation grid [eps_i(b_j)]")

    spg = sub.add_parser("gram", help="Gram matrix of vectors under a form")
    spg.add_argument("form", help="Gram matrix file defining the form")
    spg.add_argument("vectors", help="matrix file whose rows are the vectors")

    sps = sub.add_parser("symmetric", help="supertropical symmetry test")
    sps.add_argument("form")

    spc = sub.add_parser("classify", help="isotropy/normality of a vector")
    spc.add_argument("form")
    spc.add_argument("--vec", required=True, help="vector as scalar tokens")

    spp = sub.add_parser("pair", help="pair classification flags")
    spp.add_argument("form")
    spp.add_argument("--vec", action="append", required=True, help="give twice")

    spgs = sub.add_parser("gs", help="one Gram-Schmidt step")
    spgs.add_argument("form")
    spgs.add_argument("--base", help="matrix file whose rows are the base")
    spgs.add_argument("--vec", required=True)

    spst = sub.add_parser("strip", help="rank-2 g-isotropic strip")
    spst.add_argument("form")
    spst.add_argument("--vec", action="append", help="two vectors; default e1, e2")

    spde = sub.add_parser("decompose", help="anisotropic/alternate decomposition")
    spde.add_argument("form")
    spde.add_argument("--base", help="matrix file whose rows are the base")

    spq = sub.add_parser("quad", help="quadratic form operations")
    qsub = spq.add_subparsers(dest="qcommand", required=True)

    def quadcmd(name: str, help_: str):
        sq = qsub.add_parser(name, help=help_)
        sq.add_argument("--diag", action="append", help="diagonal values as scalar tokens")
        sq.add_argument("--form", action="append", help="Gram matrix file")
        return sq

    sqe = quadcmd("eval", "evaluate Q(v)")
    sqe.add_argument("--vec", required=True)
    sqc = quadcmd("check", "quasilinearity classification")
    sqc.add_argument("--trials", type=int, default=200)
    sqc.add_argument("--seed", type=int, default=None)
    quadcmd("fromq", "bilinear companion of a strictly quasilinear form")
    sqh = qsub.add_parser("hyper", help="hyperbolic plane gram matrix")
    sqh.add_argument("value", help="tangible cross pairing")
    quadcmd("osum", "orthogonal sum (give --diag or --form twice)")

    spk = sub.add_parser("check", help="run a property suite")
    spk.add_argument("suite", choices=sorted(SUITES))
    spk.add_argument("--trials", type=int, default=200)
    spk.add_argument("--seed", type=int, default=None)

    return p


def _quad_form(args, which: int = 0) -> qd.QuadraticForm:
    diags = args.diag or []
    forms = args.form or []
    specs = [("diag", d) for d in diags] + [("form", f) for f in forms]
    if which >= len(specs):
        raise ParseError("give the quadratic form with --diag or --form")
    kind, value = specs[which]
    if kind == "diag":
        return qd.QuadraticForm.from_diagonal(tuple(parse_vector(value)))
    return qd.QuadraticForm.from_form(bl.BilinearForm(_load_matrix(value)))


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "det":
        result = det(_load_matrix(args.matrix, args.inline))
        _emit(
            args,
            str(result.value),
            {
                "value": str(result.value),
                "witnesses": sorted(list(w) for w in result.witnesses),
            },
        )
        return 0
    if cmd in ("adj", "pinv", "close", "dualgrid"):
        m = _load_matrix(args.matrix, args.inline)
        out = {
            "adj": adjoint,
            "pinv": pseudo_inverse,
            "close": close,
            "dualgrid": lambda a: du.dual_eval_matrix(du.dual_base(a)),
        }[cmd](m)
        _emit(args, str(out), matrix_to_json(out))
        return 0
    if cmd == "quasiid":
        i_a, i_a_prime = quasi_identities(_load_matrix(args.matrix, args.inline))
        _emit(
            args,
            f"{i_a}\n\n{i_a_prime}",
            {"I_A": matrix_to_json(i_a)["rows"], "I'_A": matrix_to_json(i_a_prime)["rows"]},
        )
        return 0
    if cmd == "rank":
        r = rank(_load_matrix(args.matrix, args.inline))
        _emit(args, str(r), {"rank": r})
        return 0
    if cmd == "indep":
        ok = independent(_load_matrix(args.matrix, args.inline).columns())
        _emit(args, "true" if ok else "false", {"independent": ok})
        return 0
    if cmd == "dualbase":
        d = du.dual_base(_load_matrix(args.matrix, args.inline))
        rows = Matrix.from_rows(tuple(f.row) for f in d.functionals)
        _emit(args, str(rows), matrix_to_json(rows))
        return 0
    if cmd == "gram":
        form = bl.BilinearForm(_load_matrix(args.form))
        out = bl.gram_of(form, _load_rows(args.vectors))
        _emit(args, str(out), matrix_to_json(out))
        return 0
    if cmd == "symmetric":
        ok = bl.is_supertropically_symmetric(bl.BilinearForm(_load_matrix(args.form)))
        _emit(args, "true" if ok else "false", {"symmetric": ok})
        return 0
    if cmd == "classify":
        form = bl.BilinearForm(_load_matrix(args.form))
        c = bl.classify_vector(form, parse_vector(args.vec))
        text = ("g-isotropic" if c.isotropic else "g-nonisotropic") + (
            " normal" if c.normal else ""
        )
        _emit(args, text, {"g-isotropic": c.isotropic, "normal": c.normal})
        return 0
    if cmd == "pair":
        if len(args.vec) != 2:
            raise ParseError("pair needs exactly two --vec arguments")
        form = bl.BilinearForm(_load_matrix(args.form))
        pc = bl.pair_class(form, parse_vector(args.vec[0]), parse_vector(args.vec[1]))
        flags = pc.as_dict()
        text = "\n".join(f"{k}: {'true' if v else 'false'}" for k, v in flags.items())
        _emit(args, text, flags)
        return 0
    if cmd == "gs":
        form = bl.BilinearForm(_load_matrix(args.form))
        base = _load_rows(args.base) if args.base else []
        res = bl.gs_step(form, base, parse_vector(args.vec))
        text = (
            f"projected: {res.projected}\n"
            f"corrected: {res.corrected}\n"
            f"dominant: {' '.join(map(str, sorted(res.dominant))) or '-'}"
        )
        _emit(
            args,
            text,
            {
                "projected": str(res.projected),
                "corrected": str(res.corrected),
                "dominant": sorted(res.dominant),
            },
        )
        return 0
    if cmd == "strip":
        form = bl.BilinearForm(_load_matrix(args.form))
        if form.dim < 2:
            raise ShapeError("the strip needs a form of dimension at least 2")
        if args.vec:
            if len(args.vec) != 2:
                raise ParseError("strip needs zero or two --vec arguments")
            v1, v2 = parse_vector(args.vec[0]), parse_vector(args.vec[1])
        else:
            v1, v2 = Matrix.identity(form.dim).columns()[:2]
        strip = bl.isotropic_strip(form, v1, v2)
        payload = strip.as_dict()
        text = " ".join(f"{k}={v}" for k, v in payload.items())
        _emit(args, text, payload)
        return 0
    if cmd == "decompose":
        form = bl.BilinearForm(_load_matrix(args.form))
        base = _load_rows(args.base) if args.base else Matrix.identity(form.dim).columns()
        aniso, alternate = bl.decompose(form, base)
        text = "anisotropic:\n" + "\n".join(f"  {v}" for v in aniso)
        text += "\nalternate:\n" + "\n".join(f"  {v}" for v in alternate)
        _emit(
            args,
            text,
            {
                "anisotropic": [str(v) for v in aniso],
                "alternate": [str(v) for v in alternate],
            },
        )
        return 0
    if cmd == "quad":
        return _dispatch_quad(args)
    if cmd == "check":
        seed = args.seed if args.seed is not None else _default_seed()
        report = run_suite(args.suite, args.trials, seed)
        if args.format == "json":
            print(report.to_json())
        else:
            print(f"{report.suite}: {report.verdict} ({report.trials} trials, seed {seed})")
            for tag, expected, got in report.failures:
                print(f"  FAIL {tag}: expected {expected}, got {got}")
        return 0 if report.passed else 3
    raise ParseError(f"unknown command {cmd!r}")


def _dispatch_quad(args) -> int:
    qcmd = args.qcommand
    if qcmd == "hyper":
        form = qd.hyperbolic_plane(parse_scalar(args.value))
        _emit(args, str(form.gram), matrix_to_json(form.gram))
        return 0
    if qcmd == "eval":
        q = _quad_form(args)
        value = qd.q_eval(q, parse_vector(args.vec))
        _emit(args, str(value), {"value": str(value)})
        return 0
    if qcmd == "check":
        q = _quad_form(args)
        seed = args.seed if args.seed is not None else _default_seed()
        verdict = qd.quasilinearity_check(q, args.trials, seed)
        _emit(args, verdict, {"verdict": verdict, "trials": args.trials})
        return 0
    if qcmd == "fromq":
        form = qd.form_from_q(_quad_form(args))
        _emit(args, str(form.gram), matrix_to_json(form.gram))
        return 0
    if qcmd == "osum":
        out = qd.orthogonal_sum(_quad_form(args, 0), _quad_form(args, 1))
        if out.is_diagonal:
            text = " ".join(str(x) for x in out.diagonal)
            _emit(args, text, {"diagonal": [str(x) for x in out.diagonal]})
        else:
            _emit(args, str(out.form.gram), matrix_to_json(out.form.gram))
        return 0
    raise ParseError(f"unknown quad command {qcmd!r}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SupertropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
