"""The four workloads: seeded inputs, the timed call of each op, and the
check of its output.

Each workload is an endless generator of rounds.  A round is a fixed mix of
ops on fresh inputs, so every complete round has the same shape and the
run's figures do not depend on where the clock stopped.  No input is used
twice.  Every op carries its own check, which the runner calls outside the
timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys

import inputs
import refs


class Op:
    """One timed library call (or CLI invocation) and the check of its output."""

    __slots__ = ("kind", "n", "call", "check", "argv")

    def __init__(self, kind, n, call, check, argv=None):
        self.kind, self.n, self.call, self.check, self.argv = kind, n, call, check, argv

    @property
    def label(self):
        if self.argv is not None:
            return "supertrop " + " ".join(self.argv)
        return f"{self.kind} n={self.n}"

    def verify(self, out):
        """Problems with ``out``; empty means correct."""
        if isinstance(out, BaseException):
            return [f"raised {type(out).__name__}: {out}"]
        try:
            return self.check(out)
        except Exception as exc:  # an unreadable output is a wrong output
            return [f"output could not be checked: {exc!r}"]


def vec(v):
    return tuple(refs.of_scalar(x) for x in v)


def det_problems(value, oracle_witnesses, got_value, got_witnesses):
    """The determinant contract that survives a one-witness engine: the value
    equals the oracle's, every reported witness is an oracle witness, and a
    witness (a tie certificate) is reported iff the oracle has one (two)."""
    got = {tuple(w) for w in got_witnesses}
    problems = []
    if got_value != value:
        problems.append(f"value {refs.fmt(got_value)} != oracle {refs.fmt(value)}")
    if not got <= oracle_witnesses:
        problems.append(f"witnesses {sorted(got - oracle_witnesses)} not optimal")
    for k in (1, 2):
        if (len(got) >= k) != (len(oracle_witnesses) >= k):
            problems.append(f"{len(got)} witnesses reported, oracle has {len(oracle_witnesses)}")
            break
    return problems


def close_problems(a, c):
    problems = refs.closed_problems(c)
    if len(c) != len(a) or not all(refs.surpasses(x, y) for rc, ra in zip(c, a) for x, y in zip(rc, ra)):
        problems.append("I_A A does not ghost-surpass A")
    return problems


# -- matrix-ops ------------------------------------------------------------

# (kind, sizes): one op per listed size in every round.  The dual pipeline
# and rank stop at n = 6: at n = 7 they take 1.4-2 s and 0.5-1.3 s per call,
# which would leave a 15 s run with too few rounds to be steady.
MATRIX_MIX = (
    ("det", (4, 5, 6, 7, 4, 5, 6, 7)),
    ("pinv", (4, 5, 6, 7)),
    ("close", (4, 5, 6, 7)),
    ("dual", (4, 5, 6)),
    ("rank", (4, 5, 6)),
)


def _det_op(lib, gen, n):
    a = gen.matrix(n, ghost=0.2, zero=0.15, lo=-4, hi=4)
    m = lib.matrix(a)
    ref = lib.oracle.brute_force_det(m)
    value, witnesses = refs.of_scalar(ref.value), frozenset(map(tuple, ref.witnesses))
    return Op(
        "det", n, lambda: lib.matrices.det(m),
        lambda out: det_problems(value, witnesses, refs.of_scalar(out.value), out.witnesses),
    )


def _pinv_op(lib, gen, n):
    a = inputs.nonsingular(gen, lib, n)
    m = lib.matrix(a)
    return Op(
        "pinv", n, lambda: lib.matrices.pseudo_inverse(m),
        lambda out: refs.pinv_problems(a, refs.of_rows(out.entries)),
    )


def _close_op(lib, gen, n):
    a = inputs.nonsingular(gen, lib, n)
    m = lib.matrix(a)
    return Op(
        "close", n, lambda: lib.matrices.close(m),
        lambda out: close_problems(a, refs.of_rows(out.entries)),
    )


def _dual_op(lib, gen, n):
    a = inputs.nonsingular(gen, lib, n)
    m = lib.matrix(a)

    def pipeline():
        du = lib.dual
        return du.dual_eval_matrix(du.dual_base(lib.matrices.close(m)))

    return Op("dual", n, pipeline, lambda out: refs.dual_grid_problems(refs.of_rows(out.entries), n))


def _rank_op(lib, gen, n):
    a = inputs.rank_deficient(gen, n)
    m = lib.matrix(a)
    expected = refs.rank(a)
    return Op(
        "rank", n, lambda: lib.matrices.rank(m),
        lambda out: [] if out == expected else [f"rank {out} != {expected}"],
    )


_MATRIX_OPS = {"det": _det_op, "pinv": _pinv_op, "close": _close_op, "dual": _dual_op, "rank": _rank_op}


def matrix_ops(lib, gen):
    while True:
        yield [_MATRIX_OPS[kind](lib, gen, n) for kind, sizes in MATRIX_MIX for n in sizes]


# -- forms -----------------------------------------------------------------

FORM_SIZES = (3, 4, 5, 6)
BATCH = 4


def _form_group(lib, gen, n):
    """One symmetric Gram matrix shared by a batch of vectors, plus a
    diagonal quadratic form of the same dimension."""
    bl, qd = lib.bilinear, lib.quadratic
    g = gen.symmetric(n, ghost=0.15, zero=0.1, lo=-5, hi=5)
    vs = [gen.vector(n, ghost=0.1, zero=0.1, lo=-5, hi=5) for _ in range(BATCH)]
    # The strip pair must not span a plane where Q vanishes: isotropic_strip
    # gets that case wrong, and the forms probe reports it on every run.
    while all(refs.bilinear(g, x, y)[0] is None for x in vs[:2] for y in vs[:2]):
        vs[:2] = [gen.vector(n, ghost=0.1, zero=0.1, lo=-5, hi=5) for _ in range(2)]
    diag = gen.vector(n, ghost=0.25, zero=0.0)
    diag2 = gen.vector(gen.randint(2, 3), ghost=0.25, zero=0.0)
    basis = refs.identity(n)

    form = lib.form(g)
    lv = [lib.vector(v) for v in vs]
    lbasis = [lib.vector(b) for b in basis]
    q = qd.QuadraticForm.from_diagonal(tuple(lib.scalar(x) for x in diag))
    q2 = qd.QuadraticForm.from_diagonal(tuple(lib.scalar(x) for x in diag2))

    gram = tuple(tuple(refs.bilinear(g, x, y) for y in vs) for x in vs)
    ops = [
        Op("gram_of", n, lambda: lib.bilinear.gram_of(form, lv),
           lambda out: [] if refs.of_rows(out.entries) == gram else ["gram mismatch"]),
    ]
    for i, j in itertools.combinations(range(BATCH), 2):
        flags = refs.pair_flags(g, vs[i], vs[j])
        ops.append(Op(
            "pair_class", n,
            lambda v=lv[i], w=lv[j]: lib.bilinear.pair_class(form, v, w),
            lambda out, flags=flags: [] if out.as_dict() == flags else ["pair flags mismatch"],
        ))
    ops.append(Op(
        "gram_schmidt", n, lambda: lib.bilinear.gram_schmidt(form, lv),
        lambda out: refs.gram_schmidt_problems(g, vs, [vec(x) for x in out[0]], [vec(x) for x in out[1]]),
    ))
    ops.append(Op(
        "isotropic_strip", n, lambda: lib.bilinear.isotropic_strip(form, lv[0], lv[1]),
        lambda out: refs.strip_problems(g, vs[0], vs[1], out.as_dict()),
    ))
    ops.append(Op(
        "decompose", n, lambda: lib.bilinear.decompose(form, lbasis),
        lambda out: refs.decompose_problems(g, basis, [vec(x) for x in out[0]], [vec(x) for x in out[1]]),
    ))
    for v, lvec in zip(vs, lv):
        expected = refs.q_eval(diag, v)
        ops.append(Op(
            "q_eval", n, lambda lvec=lvec: lib.quadratic.q_eval(q, lvec),
            lambda out, expected=expected: [] if refs.of_scalar(out) == expected else ["Q(v) mismatch"],
        ))
    companion = refs.form_from_q(diag)
    ops.append(Op(
        "form_from_q", n, lambda: lib.quadratic.form_from_q(q),
        lambda out: [] if refs.of_rows(out.gram.entries) == companion else ["companion mismatch"],
    ))
    ops.append(Op(
        "orthogonal_sum", n, lambda: lib.quadratic.orthogonal_sum(q, q2),
        lambda out: [] if vec(out.diagonal) == diag + diag2 else ["orthogonal sum mismatch"],
    ))
    return ops


def forms(lib, gen):
    while True:
        yield [op for n in FORM_SIZES for op in _form_group(lib, gen, n)]


# -- wide ------------------------------------------------------------------

# Every round runs each op once at each size, so rounds have one shape and
# the run's mix of sizes does not depend on the seed.
WIDE_SIZES = (16, 24, 32)
WIDE_SCALAR = dict(ghost=0.15, zero=0.1, lo=-20, hi=20, frac=0.25)


def _wide_mat_mul(lib, gen, n):
    a, b = gen.matrix(n, **WIDE_SCALAR), gen.matrix(n, **WIDE_SCALAR)
    la, lb = lib.matrix(a), lib.matrix(b)
    expected = refs.matmul(a, b)
    return Op("mat_mul", n, lambda: lib.matrices.mat_mul(la, lb),
              lambda out: [] if refs.of_rows(out.entries) == expected else ["product mismatch"])


def _wide_apply(lib, gen, n):
    a, v = gen.matrix(n, **WIDE_SCALAR), gen.vector(n, **WIDE_SCALAR)
    la, lv = lib.matrix(a), lib.vector(v)
    expected = refs.matvec(a, v)
    return Op("apply", n, lambda: la.apply(lv),
              lambda out: [] if vec(out) == expected else ["image mismatch"])


def _wide_evaluate(lib, gen, n):
    g = gen.matrix(n, **WIDE_SCALAR)
    v, w = gen.vector(n, **WIDE_SCALAR), gen.vector(n, **WIDE_SCALAR)
    form, lv, lw = lib.form(g), lib.vector(v), lib.vector(w)
    expected = refs.bilinear(g, v, w)
    return Op("evaluate", n, lambda: lib.bilinear.evaluate(form, lv, lw),
              lambda out: [] if refs.of_scalar(out) == expected else ["pairing mismatch"])


def wide(lib, gen):
    mix = (_wide_mat_mul, _wide_apply, _wide_apply, _wide_evaluate, _wide_evaluate)
    while True:
        yield [make(lib, gen, n) for n in WIDE_SIZES for make in mix]


# -- cli -------------------------------------------------------------------

# Trial counts give each suite about 100 ms of work, so the check calls form
# one cluster that holds the p90 op of the round.
CLI_SUITES = (
    ("quasi-identity", 16), ("dual-base", 8), ("decompose", 12),
    ("gram-schmidt", 20), ("quadlin", 12), ("double-dual", 8),
)


def text_rows(rows):
    return "\n".join(" ".join(refs.fmt(x) for x in r) for r in rows) + "\n"


def inline(rows):
    return "; ".join(" ".join(refs.fmt(x) for x in r) for r in rows)


def tokens(v):
    return " ".join(refs.fmt(x) for x in v)


def json_rows(obj):
    return tuple(tuple(refs.parse_token(t) for t in r) for r in obj["rows"])


def section(text, start, stop=None):
    """Indented vector lines between a ``start:`` line and a ``stop:`` line."""
    lines = text.splitlines()
    i = lines.index(start + ":") + 1
    out = []
    for line in lines[i:]:
        if stop is not None and line == stop + ":":
            break
        if line.strip():
            out.append(tuple(refs.parse_token(t) for t in line.split()))
    return out


def cli_outcome(expect_rc, content=None, is_json=False):
    """Check of a CLI result ``(rc, stdout, stderr)``: the exit code, no
    traceback, and, for a zero exit, the content check on the output."""

    def check(out):
        rc, stdout, stderr = out
        if "Traceback" in stderr:
            return [f"traceback (exit {rc}): {stderr.strip().splitlines()[-1]}"]
        if rc not in expect_rc:
            return [f"exit {rc}, expected {sorted(expect_rc)}: {stderr.strip()[:200]}"]
        if content is None:
            return []
        payload = json.loads(stdout) if is_json else stdout
        return content(payload)

    return check


def _eq(expected, what):
    return lambda got: [] if got == expected else [f"{what} mismatch"]


def _cli_round(gen, lib, work, r):
    """One round of CLI ops on fresh files; returns [(argv, check)]."""

    def put(name, text):
        stem, ext = os.path.splitext(name)
        path = os.path.join(work, f"{stem}{r}{ext}")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    n = gen.choice((3, 4, 5))
    a = gen.matrix(n, ghost=0.2, zero=0.15, lo=-4, hi=4)
    ns = inputs.nonsingular(gen, lib, n)
    rk = inputs.rank_deficient(gen, n)
    cb = refs.matmul(refs.matmul(ns, refs.pinv(ns)), ns)
    g = list(map(list, gen.symmetric(n, ghost=0.15, zero=0.1, lo=-5, hi=5)))
    for i in range(n):
        g[i][i] = (gen.randint(-5, 5), False)
    g = tuple(map(tuple, g))
    vs = [gen.vector(n, ghost=0.1, zero=0.1, lo=-5, hi=5) for _ in range(3)]
    diag, diag2 = gen.vector(n, ghost=0.25, zero=0.0), gen.vector(2, ghost=0.25, zero=0.0)
    hyper = gen.randint(0, 10)
    seed = gen.randint(0, 10**6)
    basis = refs.identity(n)

    f_a = put("a.mat", text_rows(a))
    f_aj = put("a.json", json.dumps({"rows": [[refs.fmt(x) for x in row] for row in a]}))
    f_ns, f_rk, f_cb = put("ns.mat", text_rows(ns)), put("rk.mat", text_rows(rk)), put("cb.mat", text_rows(cb))
    f_g, f_vs = put("g.mat", text_rows(g)), put("vs.mat", text_rows(vs))
    f_base = put("base.mat", text_rows(basis[:1]))
    f_ragged = put("ragged.mat", text_rows(a) + "1\n")
    oracle = lib.oracle.brute_force_det(lib.matrix(a))
    det_value, det_w = refs.of_scalar(oracle.value), frozenset(map(tuple, oracle.witnesses))
    J = ["--format", "json"]

    def det_json(obj):
        return det_problems(det_value, det_w, refs.parse_token(obj["value"]), obj["witnesses"])

    def quasiid(text):
        i_a, i_a_prime = (refs.parse_rows(part) for part in text.split("\n\n"))
        return refs.quasi_identity_problems(i_a) + refs.quasi_identity_problems(i_a_prime)

    def gs(text):
        line = next(x for x in text.splitlines() if x.startswith("corrected: "))
        corrected = tuple(refs.parse_token(t) for t in line.split()[1:])
        return [] if refs.g_orthogonal(g, corrected, basis[0]) else ["corrected not g-orthogonal to base"]

    def decompose(text):
        aniso, alt = section(text, "anisotropic", "alternate"), section(text, "alternate")
        return refs.decompose_problems(g, basis, aniso, alt)

    def classify(v):
        q = refs.bilinear(g, v, v)
        return ("g-isotropic" if refs.in_ghost_ideal(q) else "g-nonisotropic") + (" normal" if q == refs.ONE else "")

    def suite(name, trials, is_json):
        argv = ["check", name, "--trials", str(trials), "--seed", str(seed)]
        if is_json:
            want = {"suite": name, "trials": trials, "seed": seed, "verdict": "pass", "failures": []}
            return J + argv, _eq(want, "suite report")
        return argv, _eq(f"{name}: pass ({trials} trials, seed {seed})\n", "suite report")

    ok = {0}
    cases = [
        (["det", f"--inline={inline(a)}"], ok, _eq(refs.fmt(det_value) + "\n", "det"), False),
        (J + ["det", f_aj], ok, det_json, True),
        (["adj", f_a], ok, lambda t: [] if refs.parse_rows(t) == refs.adjoint(a) else ["adjoint mismatch"], False),
        (J + ["pinv", f_ns], ok, lambda o: refs.pinv_problems(ns, json_rows(o)), True),
        (["quasiid", f_ns], ok, quasiid, False),
        (J + ["close", f_ns], ok, lambda o: close_problems(ns, json_rows(o)), True),
        (["rank", f_rk], ok, _eq(f"{refs.rank(rk)}\n", "rank"), False),
        (J + ["indep", f_a], ok, lambda o: _eq(refs.rank(a) == n, "independence")(o["independent"]), True),
        (["dualbase", f_cb], ok, lambda t: refs.dual_grid_problems(refs.matmul(refs.parse_rows(t), cb), n), False),
        (J + ["dualgrid", f_cb], ok, lambda o: refs.dual_grid_problems(json_rows(o), n), True),
        (["gram", f_g, f_vs], ok,
         lambda t: _eq(tuple(tuple(refs.bilinear(g, x, y) for y in vs) for x in vs), "gram")(refs.parse_rows(t)), False),
        (J + ["symmetric", f_g], ok, lambda o: _eq(True, "symmetry")(o["symmetric"]), True),
        (["classify", f_g, f"--vec={tokens(vs[0])}"], ok, _eq(classify(vs[0]) + "\n", "classification"), False),
        (J + ["pair", f_g, f"--vec={tokens(vs[0])}", f"--vec={tokens(vs[1])}"], ok,
         lambda o: _eq(refs.pair_flags(g, vs[0], vs[1]), "pair flags")({k: v for k, v in o.items() if k != "schema"}), True),
        (["gs", f_g, f"--base={f_base}", f"--vec={tokens(vs[2])}"], ok, gs, False),
        (J + ["strip", f_g], ok, lambda o: refs.strip_problems(g, basis[0], basis[1], o), True),
        (["decompose", f_g], ok, decompose, False),
        (["quad", "eval", f"--diag={tokens(diag)}", f"--vec={tokens(vs[0])}"], ok,
         _eq(refs.fmt(refs.q_eval(diag, vs[0])) + "\n", "Q(v)"), False),
        (J + ["quad", "fromq", f"--diag={tokens(diag)}"], ok,
         lambda o: _eq(refs.form_from_q(diag), "companion")(json_rows(o)), True),
        (["quad", "osum", f"--diag={tokens(diag)}", f"--diag={tokens(diag2)}"], ok,
         _eq(tokens(diag + diag2) + "\n", "orthogonal sum"), False),
        (J + ["quad", "hyper", str(hyper)], ok,
         lambda o: _eq(((refs.ZERO, (hyper, False)), ((hyper, False), refs.ZERO)), "hyperbolic plane")(json_rows(o)), True),
        (["quad", "check", f"--diag={tokens(diag)}"], ok, _eq("strict\n", "verdict"), False),
        # malformed inputs the CLI rejects cleanly today
        (["det", f"--inline={inline(a)[:-1]}x"], {2}, None, False),
        (["pinv", os.path.join(work, f"missing{r}.mat")], {2}, None, False),
        (["pinv", f_rk], {1}, None, False),
        (["rank", f_ragged], {2}, None, False),
    ]
    for k, (name, trials) in enumerate(CLI_SUITES):
        argv, content = suite(name, trials, k % 2 == 0)
        cases.append((argv, ok, content, k % 2 == 0))
    return [(argv, cli_outcome(rc, content, is_json)) for argv, rc, content, is_json in cases]


def probes(workload, lib, work, src):
    """Known defects at the time this benchmark was written, as untimed ops
    run once per run.  Their failures are listed, not counted: the timed
    workloads stay free of failing ops, and a fix shows as an empty list."""
    if workload == "forms":
        return [_zero_plane_probe(lib)]
    if workload == "cli":
        return [Op("probe", 0, lambda argv=argv: run_child(argv, src), cli_outcome({1, 2}), argv=argv)
                for argv in _crash_argvs(work)]
    return []


def _zero_plane_probe(lib):
    """isotropic_strip answers 'empty' when Q vanishes on the whole plane,
    although every vector there pairs to zero, which is in the ghost ideal."""
    g = ((refs.ZERO, refs.ZERO), (refs.ZERO, refs.ZERO))
    e1, e2 = refs.identity(2)
    form, v1, v2 = lib.form(g), lib.vector(e1), lib.vector(e2)
    return Op("isotropic_strip, Q zero on the plane,", 2,
              lambda: lib.bilinear.isotropic_strip(form, v1, v2),
              lambda out: refs.strip_problems(g, e1, e2, out.as_dict()))


def _crash_argvs(work):
    """The malformed CLI inputs of ROADMAP item 4, each of which ends in a
    Python traceback; the expected outcome is exit 1 or 2 without one."""

    def put(name, data):
        path = os.path.join(work, name)
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    return [
        ["det", "--inline=1/0 1; 2 3"],
        ["det", put("probe-ragged.json", b'{"rows": [["1", "2"], ["3"]]}')],
        ["det", put("probe-numeric.json", b'{"rows": [[1, 2], [3, 4]]}')],
        ["det", put("probe-malformed.json", b'{"rows": [["1", ')],
        ["det", work],
        ["det", put("probe-latin1.mat", b"1 2\n3 \xff\n")],
        ["strip", put("probe-1d.mat", b"3\n")],
    ]


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, src):
    """One ``python -m supertrop.cli`` process; returns (rc, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "supertrop.cli", *argv],
        capture_output=True, text=True, env=child_env(src), timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def replay(lib, argv):
    """``cli.main(argv)`` in this process with output captured; an escaping
    exception is reported the way the interpreter would report it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lib.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:
            print(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def cli(lib, gen, work, src, in_process=False):
    """Subprocess ops, or with ``in_process`` the same argv replayed through
    ``cli.main`` (the traced run's view of the CLI layers)."""
    for r in itertools.count():
        ops = []
        for argv, check in _cli_round(gen, lib, work, r):
            call = (lambda argv=argv: replay(lib, argv)) if in_process else (lambda argv=argv: run_child(argv, src))
            ops.append(Op(argv[2] if argv[0] == "--format" else argv[0], 0, call, check, argv=argv))
        yield ops
