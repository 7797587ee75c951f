"""Plain-rational max-plus references that the benchmark owns.

A plain scalar is a tuple ``(value, ghost)``: ``value`` is ``None`` for the
semiring zero, otherwise an ``int`` or ``Fraction``; ``ghost`` selects the
layer.  Nothing here imports ``supertrop``, so every check made with these
functions is independent of the code under test.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

ZERO = (None, False)
ONE = (0, False)


def norm(value, ghost=False):
    """A plain scalar with integral values stored as ``int``."""
    if value is None:
        return ZERO
    if isinstance(value, Fraction) and value.denominator == 1:
        value = value.numerator
    return (value, bool(ghost))


def of_scalar(s):
    """Read a library scalar through its public ``value``/``ghost`` fields."""
    return norm(s.value, s.ghost and s.value is not None)


def of_rows(rows):
    return tuple(tuple(of_scalar(x) for x in r) for r in rows)


_TOKEN = re.compile(r"^([+-]?\d+(?:/\d+)?)(g?)$")


def parse_token(tok):
    """Parse one scalar token of the text grammar (``-inf``, ``p/q``, ``3g``)."""
    if tok == "-inf":
        return ZERO
    m = _TOKEN.match(tok)
    if not m:
        raise ValueError(f"bad scalar token {tok!r}")
    return norm(Fraction(m.group(1)), m.group(2) == "g")


def parse_rows(text):
    """Rows of tokens, one row per non-blank line."""
    return tuple(
        tuple(parse_token(t) for t in line.split())
        for line in text.splitlines()
        if line.strip()
    )


def fmt(p):
    """The text form of a plain scalar, as the library prints it."""
    if p[0] is None:
        return "-inf"
    return f"{Fraction(p[0])}{'g' if p[1] else ''}"


# -- semiring arithmetic ---------------------------------------------------


def add(a, b):
    if a[0] is None:
        return b
    if b[0] is None:
        return a
    if a[0] > b[0]:
        return a
    if a[0] < b[0]:
        return b
    return (a[0], True)


def mul(a, b):
    if a[0] is None or b[0] is None:
        return ZERO
    return norm(a[0] + b[0], a[1] or b[1])


def in_ghost_ideal(a):
    return a[0] is None or a[1]


def is_tangible(a):
    return a[0] is not None and not a[1]


def surpasses(a, b):
    """a |= b: a = b + c for some c in the ghost ideal."""
    if a == b:
        return True
    if not (a[0] is not None and a[1]):
        return False
    return b[0] is None or a[0] >= b[0]


def nu_cmp(a, b):
    if a[0] is None or b[0] is None:
        return (a[0] is not None) - (b[0] is not None)
    return (a[0] > b[0]) - (a[0] < b[0])


def total(terms):
    """Supertropical sum of (value, ghost) terms with zeros already dropped:
    the maximum, ghost when it is attained twice or by a ghost term."""
    best = None
    ghost = False
    for v, g in terms:
        if best is None or v > best:
            best, ghost = v, g
        elif v == best:
            ghost = True
    return ZERO if best is None else norm(best, ghost)


# -- kernels ---------------------------------------------------------------


def _scale(*grids):
    """Common denominator of every entry, so the kernels add integers."""
    dens = {1}
    for grid in grids:
        for row in grid:
            for v, _ in row:
                if v is not None:
                    dens.add(v.denominator)
    return math.lcm(*dens)


def _ints(grid, lcm):
    return [
        [None if v is None else (int(v * lcm), g) for v, g in row] for row in grid
    ]


def _unscale(v, g, lcm):
    return norm(Fraction(v, lcm), g)


def matmul(a, b):
    lcm = _scale(a, b)
    ai, bt = _ints(a, lcm), list(zip(*_ints(b, lcm)))
    out = []
    for row in ai:
        line = []
        for col in bt:
            best = None
            ghost = False
            for x, y in zip(row, col):
                if x is None or y is None:
                    continue
                s = x[0] + y[0]
                if best is None or s > best:
                    best, ghost = s, x[1] or y[1]
                elif s == best:
                    ghost = True
            line.append(ZERO if best is None else _unscale(best, ghost, lcm))
        out.append(tuple(line))
    return tuple(out)


def matvec(a, v):
    return tuple(r[0] for r in matmul(a, tuple((x,) for x in v)))


def bilinear(g, v, w):
    """Strict expansion sum_{i,j} v_i g_ij w_j."""
    lcm = _scale(g, (v, w))
    gi = _ints(g, lcm)
    (vi, wi) = _ints((v, w), lcm)
    terms = []
    for x, row in zip(vi, gi):
        if x is None:
            continue
        for e, y in zip(row, wi):
            if e is not None and y is not None:
                terms.append((x[0] + e[0] + y[0], x[1] or e[1] or y[1]))
    best = total(terms)
    return ZERO if best[0] is None else _unscale(best[0], best[1], lcm)


def identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def det(a):
    """Supertropical determinant by a row-by-row assignment DP that counts
    optimal permutations (capped at 2); ghost on a tie or a ghost entry on
    the unique optimum."""
    n = len(a)
    layer = {0: (0, 1, False)}
    for row in a:
        nxt = {}
        for mask, (val, cnt, ghost) in layer.items():
            for j, (x, xg) in enumerate(row):
                if x is None or mask >> j & 1:
                    continue
                key = mask | 1 << j
                cand = (val + x, cnt, ghost or xg)
                cur = nxt.get(key)
                if cur is None or cand[0] > cur[0]:
                    nxt[key] = cand
                elif cand[0] == cur[0]:
                    nxt[key] = (cur[0], min(2, cur[1] + cnt), cur[2] or cand[2])
        layer = nxt
    full = layer.get((1 << n) - 1)
    if full is None:
        return ZERO
    return norm(full[0], full[1] > 1 or full[2])


def submatrix(a, rows, cols):
    return tuple(tuple(a[i][j] for j in cols) for i in rows)


def adjoint(a):
    """Entry (i, j) is the determinant with row j and column i deleted."""
    n = len(a)
    if n == 1:
        return ((ONE,),)
    idx = range(n)
    return tuple(
        tuple(
            det(submatrix(a, [r for r in idx if r != j], [c for c in idx if c != i]))
            for j in idx
        )
        for i in idx
    )


def pinv(a):
    d = det(a)
    if not is_tangible(d):
        raise ValueError("singular matrix")
    dinv = (-d[0], False)
    return tuple(tuple(mul(dinv, e) for e in r) for r in adjoint(a))


def rank(a):
    """Bottom-up tropical rank: the first k without a tangible k-minor ends
    the search, because restricting the unique optimum of a tangible
    (k+1)-minor gives a tangible k-minor."""
    rows, cols = len(a), len(a[0])
    for k in range(1, min(rows, cols) + 1):
        if not any(
            is_tangible(det(submatrix(a, ri, ci)))
            for ri in itertools.combinations(range(rows), k)
            for ci in itertools.combinations(range(cols), k)
        ):
            return k - 1
    return min(rows, cols)


# -- postconditions --------------------------------------------------------


def quasi_identity_problems(m):
    """The suites' quasi-identity laws: idempotent, determinant exactly one,
    ghost-surpasses the identity."""
    problems = []
    if matmul(m, m) != m:
        problems.append("not idempotent")
    if det(m) != ONE:
        problems.append(f"det = {fmt(det(m))}")
    n = len(m)
    if not all(surpasses(m[i][j], ONE if i == j else ZERO) for i in range(n) for j in range(n)):
        problems.append("does not ghost-surpass the identity")
    return problems


def pinv_problems(a, p):
    """Postconditions of p = a^nabla: both quasi-identities obey the laws."""
    if len(p) != len(a) or any(len(r) != len(a) for r in p):
        return ["wrong shape"]
    return [f"I_A {x}" for x in quasi_identity_problems(matmul(a, p))] + [
        f"I'_A {x}" for x in quasi_identity_problems(matmul(p, a))
    ]


def closed_problems(c):
    """c is a nonsingular closed base: I_C C = C."""
    if not is_tangible(det(c)):
        return ["closed base is singular"]
    if matmul(matmul(c, pinv(c)), c) != c:
        return ["not closed"]
    return []


def dual_grid_problems(grid, n):
    """Diagonal exactly one, off-diagonal in the ghost ideal."""
    if len(grid) != n or any(len(r) != n for r in grid):
        return ["wrong shape"]
    for i in range(n):
        for j in range(n):
            if i == j and grid[i][j] != ONE:
                return [f"diagonal ({i},{i}) = {fmt(grid[i][j])}"]
            if i != j and not in_ghost_ideal(grid[i][j]):
                return [f"off-diagonal ({i},{j}) = {fmt(grid[i][j])} is tangible"]
    return []


# -- forms -----------------------------------------------------------------


def pair_flags(g, v, w):
    """Pair classification flags, named as the CLI prints them."""
    a11, a12 = bilinear(g, v, v), bilinear(g, v, w)
    a21, a22 = bilinear(g, w, v), bilinear(g, w, w)
    diag, cross = add(a11, a22), add(a12, a21)
    compatible = nu_cmp(diag, cross) >= 0
    prod = mul(a11, a22)
    sq = add(mul(a12, a12), mul(a21, a21))
    if nu_cmp(a12, a21) != 0:
        corner = False
    elif a11[0] is None:
        corner = a12[0] is None and a22[0] is None
    elif a12[0] is None or a22[0] is None:
        corner = False
    else:
        corner = a11[0] + a22[0] == 2 * a12[0]
    return {
        "left-g-orthogonal": in_ghost_ideal(a12),
        "right-g-orthogonal": in_ghost_ideal(a21),
        "compatible": compatible,
        "strictly-compatible": compatible
        and (nu_cmp(a11, a22) == 0 or nu_cmp(diag, cross) > 0),
        "weakly-cauchy-schwartz": nu_cmp(prod, sq) >= 0,
        "cauchy-schwartz": nu_cmp(prod, sq) > 0,
        "corner-singular": corner,
    }


def g_orthogonal(g, x, y):
    return in_ghost_ideal(bilinear(g, x, y)) and in_ghost_ideal(bilinear(g, y, x))


def gram_schmidt_problems(g, vs, accepted, leftover):
    problems = []
    if len(accepted) + len(leftover) != len(vs):
        problems.append("counts do not sum")
    if any(x not in vs for x in leftover):
        problems.append("leftover vector not from the input")
    for x in accepted:
        if bilinear(g, x, x) != ONE:
            problems.append("accepted vector not normal")
    for x, y in itertools.combinations(accepted, 2):
        if not g_orthogonal(g, x, y):
            problems.append("accepted pair not g-orthogonal")
        if not pair_flags(g, x, y)["cauchy-schwartz"]:
            problems.append("accepted pair not Cauchy-Schwartz")
    return sorted(set(problems))


def decompose_problems(g, base, aniso, alternate):
    """The decompose suite's postconditions."""
    problems = []
    for x, y in itertools.combinations(aniso, 2):
        if not g_orthogonal(g, x, y):
            problems.append("aniso pairwise g-orthogonal")
        if not pair_flags(g, x, y)["cauchy-schwartz"]:
            problems.append("aniso pairwise Cauchy-Schwartz")
    if not all(is_tangible(bilinear(g, x, x)) for x in aniso):
        problems.append("aniso g-nonisotropic")
    if not all(in_ghost_ideal(bilinear(g, x, x)) for x in alternate):
        problems.append("alternate g-isotropic")
    if not all(g_orthogonal(g, x, y) for x in alternate for y in aniso):
        problems.append("cross pairing ghost")
    if len(aniso) + len(alternate) != len(base):
        problems.append("counts sum")
    return sorted(set(problems))


def strip_problems(g, v1, v2, strip):
    """Re-check a g-isotropic strip: sample points of a non-empty answer are
    g-isotropic, and for an empty answer a grid of tangible betas finds
    none.  ``strip`` is the CLI's payload dict; like the library, the pair
    is first ordered so that the first self-pairing is nu-smaller."""

    def isotropic(beta):
        w = tuple(add(x, mul((beta, False), y)) for x, y in zip(v1, v2))
        return in_ghost_ideal(bilinear(g, w, w))

    if nu_cmp(bilinear(g, v1, v1), bilinear(g, v2, v2)) > 0:
        v1, v2 = v2, v1
    kind = strip["kind"]
    if kind == "empty":
        grid = [Fraction(k, 2) for k in range(-60, 61)]
        return ["empty strip has an isotropic point"] if any(map(isotropic, grid)) else []
    if kind == "point":
        samples = [Fraction(strip["at"])]
    else:
        lo = None if strip["lo"] == "all" else Fraction(strip["lo"])
        hi = None if strip["hi"] == "all" else Fraction(strip["hi"])
        if lo is None and hi is None:
            samples = [Fraction(-1), Fraction(0), Fraction(1)]
        else:
            lo = hi - 2 if lo is None else lo
            hi = lo + 2 if hi is None else hi
            samples = [lo, hi, (lo + hi) / 2]
    return [] if all(map(isotropic, samples)) else ["strip point not g-isotropic"]


def q_eval(diag, v):
    """Diagonal quadratic form: sum_i v_i^2 q_i."""
    return total(
        (2 * x + q, xg or qg)
        for (x, xg), (q, qg) in zip(v, diag)
        if x is not None and q is not None
    )


def form_from_q(diag):
    """Square-root companion g_ij = sqrt(q_i q_j)."""
    half = Fraction(1, 2)
    return tuple(
        tuple(
            ZERO if qi[0] is None or qj[0] is None else norm((qi[0] + qj[0]) * half, qi[1] or qj[1])
            for qj in diag
        )
        for qi in diag
    )
