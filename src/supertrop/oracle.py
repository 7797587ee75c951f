"""The one place that samples and checks: the determinant oracle, the
seeded sampler, and the property suites (the acceptance battery).

``brute_force_det`` (n <= 8) lists every optimal permutation, where ``det``
reports sigma and one tie certificate.  The ``det-engines`` suite holds
``det`` to it: equal values, witnesses a subset of the oracle's, and one
(two) witnesses iff the oracle has at least one (two).  It also holds the
same matrix's map v |-> M v to additivity and to tangible and ghost
homogeneity.  The ``degen`` suite re-checks every strip and the
``decompose`` suite samples every alternate span, so library calls run no
self-checks, and ``random_scalar`` here is the library's only sampler.

Each suite is one trial, ``(seed, i, n) -> (tag, expected, got)`` failures
drawn only from samplers keyed on (seed, i), held in ``SUITES`` beside the
sizes n it cycles through.  ``run_suite`` is the one loop, so a report
replays from (name, trials, seed) and trial i run alone gives the failures
it gives inside the run.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import bilinear as bl
from . import dual as du
from . import quadratic as qd
from .errors import CapacityError, DomainError
from .matrices import (
    DetResult,
    Matrix,
    adjoint,
    close,
    det,
    double_pseudo,
    mat_mul,
    minor_grid,
    pseudo_inverse,
    quasi_identities,
    is_quasi_identity,
    rank,
)
from .scalars import ONE, ZERO, Record, Scalar, Vector, lin_comb

BRUTE_FORCE_CAP = 8
DEPENDENCE_CAP = 2 ** 16
NU_LO = -10
NU_HI = 10


# -- independent determinant oracle ---------------------------------------


def brute_force_det(a: Matrix) -> DetResult:
    """Permanent by one pass over every permutation (n <= 8) on the
    nu-values scaled to integers by the LCM of their denominators, keeping
    every permutation of maximal sum: those are the witnesses.  Only their
    products are folded through scalar ``*`` and ``+`` (lower terms are
    absorbed by the maximum), so the tie and ghost rules are the semiring's."""
    if not a.is_square:
        raise DomainError("determinant of a non-square matrix")
    n = a.rows
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute-force expansion capped at n = {BRUTE_FORCE_CAP}")
    scale = math.lcm(*(e.value.denominator for r in a.entries for e in r if not e.is_zero))
    weight = [[None if e.is_zero else int(e.value * scale) for e in r] for r in a.entries]
    best, optimal = None, []
    for perm in itertools.permutations(range(n)):
        total = 0
        for i, j in enumerate(perm):
            w = weight[i][j]
            if w is None:
                break  # a -inf entry: the product is zero
            total += w
        else:
            if best is None or total > best:
                best, optimal = total, [perm]
            elif total == best:
                optimal.append(perm)
    value = ZERO
    for perm in optimal:
        p = ONE
        for i, j in enumerate(perm):
            p = p * a.entries[i][j]
        value = value + p
    return DetResult(value, frozenset(optimal))


def dependence_search(
    vectors: Sequence[Vector], grid: Sequence[Fraction]
) -> Optional[Tuple[Scalar, ...]]:
    """Search tangible coefficient tuples (nu-values from the grid, plus
    zero for sparsity) for a ghost-vector combination.  A returned witness
    proves tropical dependence; None proves nothing.  The search covers
    (len(grid) + 1) ** len(vectors) tuples, at most ``DEPENDENCE_CAP``."""
    if not grid:
        raise DomainError("empty coefficient grid")
    if (len(grid) + 1) ** len(vectors) > DEPENDENCE_CAP:
        raise CapacityError(
            f"dependence search capped at {DEPENDENCE_CAP} coefficient tuples"
        )
    choices = [ZERO] + [Scalar.tangible(g) for g in grid]
    for coeffs in itertools.product(choices, repeat=len(vectors)):
        if all(c.is_zero for c in coeffs):
            continue
        if lin_comb(list(coeffs), list(vectors)).is_ghost:
            return coeffs
    return None


# -- samplers --------------------------------------------------------------


def random_scalar(
    rng: random.Random, ghost_density: float, zero_density: float
) -> Scalar:
    """The one scalar sampler: zero with probability ``zero_density``, a
    ghost with probability ``ghost_density``, else tangible; the nu-value
    is an integer in [NU_LO, NU_HI].  The layer is drawn (one
    ``rng.random()``) only when a density is positive, so (0, 0) gives
    tangible scalars from one ``rng.randint`` each."""
    r = rng.random() if ghost_density > 0 or zero_density > 0 else 1.0
    if r < zero_density:
        return ZERO
    return Scalar(Fraction(rng.randint(NU_LO, NU_HI)), r < zero_density + ghost_density)


def check_trials(trials: int) -> None:
    """A suite runs a whole number of trials, at least one."""
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise DomainError(f"trial count must be an integer, got {trials!r}")
    if trials < 1:
        raise DomainError(f"trial count must be at least 1, got {trials}")


def _rng(seed: int, index: int, salt: str = "") -> random.Random:
    return random.Random(f"supertrop:{salt}:{seed}:{index}")


def sample(
    kind: str,
    shape,
    seed: int,
    index: int,
    ghost_density: float = 0.2,
    zero_density: float = 0.15,
):
    """Deterministic sampler.  kinds: scalar, tangible-scalar, vector,
    matrix, nonsingular-matrix, symmetric-gram, closed-base."""
    rng = _rng(seed, index, kind)

    def draw(ghost: float = ghost_density) -> Scalar:
        return random_scalar(rng, ghost, zero_density)

    if kind == "scalar":
        return draw()
    if kind == "tangible-scalar":
        return random_scalar(rng, 0.0, 0.0)
    if kind == "vector":
        return Vector(tuple(draw() for _ in range(shape)))
    if kind == "matrix":
        rows, cols = shape if isinstance(shape, tuple) else (shape, shape)
        return Matrix.from_rows((draw() for _ in range(cols)) for _ in range(rows))
    if kind == "nonsingular-matrix":
        for _ in range(200):
            m = Matrix.from_rows((draw(0.0) for _ in range(shape)) for _ in range(shape))
            if det(m).value.is_tangible:
                return m
        raise DomainError("nonsingular sampler exhausted its retry budget")
    if kind == "closed-base":
        return close(sample("nonsingular-matrix", shape, seed, index + 10_000))
    if kind == "symmetric-gram":
        grid = [[None] * shape for _ in range(shape)]
        for i in range(shape):
            for j in range(i, shape):
                grid[i][j] = grid[j][i] = draw()
        return Matrix.from_rows(grid)
    raise DomainError(f"unknown sample kind: {kind!r}")


# -- trial reports ---------------------------------------------------------


class TrialReport(Record):
    # failures: (tag, expected, got) string triples; verdict: pass | counterexample
    __slots__ = ("suite", "trials", "seed", "failures", "verdict")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> str:
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields["failures"] = [list(f) for f in self.failures]
        return json.dumps(fields, indent=2, sort_keys=True)


# -- suites: one trial each, (seed, i, n) -> (tag, expected, got) failures --

Failure = Tuple[str, str, str]


def _frobenius(seed: int, i: int, n: None) -> Iterator[Failure]:
    a = sample("scalar", None, seed, 2 * i)
    b = sample("scalar", None, seed, 2 * i + 1)
    for m in range(1, 6):
        s = a + b
        lhs = s.power(m) if not s.is_zero else ZERO
        pa = a.power(m) if not a.is_zero else ZERO
        pb = b.power(m) if not b.is_zero else ZERO
        rhs = pa + pb
        if lhs != rhs:
            yield f"a={a} b={b} m={m}", str(rhs), str(lhs)


def _det_engines(seed: int, i: int, n: int) -> Iterator[Failure]:
    m = sample("matrix", n, seed, i)
    got, want = det(m), brute_force_det(m)
    tag = f"matrix=[{m}]"
    if got.value != want.value:
        yield tag, str(want.value), str(got.value)
    mine, all_optimal = sorted(got.witnesses), sorted(want.witnesses)
    if not got.witnesses <= want.witnesses:
        yield f"{tag} witnesses", f"subset of {all_optimal}", str(mine)
    for k in (1, 2):
        if (len(mine) >= k) != (len(all_optimal) >= k):
            yield f"{tag} witness count", str(len(all_optimal)), str(len(mine))
            break
    # v |-> M v is a supertropical map: the semiring laws make additivity
    # and ghost homogeneity equalities, not just ghost-surpassing.
    rng = _rng(seed, i, "map-axioms")
    v, w = (Vector(tuple(random_scalar(rng, 0.25, 0.15) for _ in range(n))) for _ in range(2))
    alpha = Scalar.tangible(rng.randint(NU_LO, NU_HI))
    g = Scalar.ghost_of(rng.randint(NU_LO, NU_HI))
    mv = m.apply(v)
    for name, got, want in (
        (f"additivity at v={v}, w={w}", m.apply(v + w), mv + m.apply(w)),
        (f"tangible homogeneity at v={v}, a={alpha}", m.apply(v.scale(alpha)), mv.scale(alpha)),
        (f"ghost homogeneity at v={v}, a={g}", m.apply(v.scale(g)), mv.scale(g)),
    ):
        if got != want:
            yield f"{tag} {name}", str(want), str(got)


def _quasi_identity(seed: int, i: int, n: int) -> Iterator[Failure]:
    a = sample("nonsingular-matrix", n, seed, i)
    i_a, i_a_prime = quasi_identities(a)
    tag = f"A=[{a}]"
    adj, grid, pinv = adjoint(a), minor_grid(a, brute_force_det), pseudo_inverse(a)
    if adj != grid:
        yield tag, f"adjoint [{grid}]", f"[{adj}]"
    for name, got, want in (
        ("A A^nabla", i_a, mat_mul(a, pinv)), ("A^nabla A", i_a_prime, mat_mul(pinv, a)),
        ("close", close(a), mat_mul(mat_mul(a, pinv), a)),
        ("A^nabla nabla", double_pseudo(a), mat_mul(pinv, mat_mul(a, pinv))),
    ):
        if got != want:
            yield tag, f"{name} [{want}]", f"[{got}]"
    if not is_quasi_identity(i_a):
        yield tag, "I_A quasi-identity", "violated"
    if not is_quasi_identity(i_a_prime):
        yield tag, "I'_A quasi-identity", "violated"


def _dual_pattern_ok(grid: Matrix) -> bool:
    """Diagonal exactly one, off-diagonal in the ghost ideal."""
    return all(e == ONE if i == j else e.in_ghost_ideal
               for i, row in enumerate(grid.entries) for j, e in enumerate(row))


def _dual_base(seed: int, i: int, n: int) -> Iterator[Failure]:
    a = sample("closed-base", n, seed, i)
    d = du.dual_base(a)
    tag = f"A=[{a}]"
    grid, pinv = du.dual_eval_matrix(d), pseudo_inverse(a)
    rows, want = Matrix.from_rows(f.row for f in d.functionals), mat_mul(pinv, mat_mul(a, pinv))
    if rows != want:
        yield tag, f"rows A^nabla nabla [{want}]", f"[{rows}]"
    if not _dual_pattern_ok(grid):
        yield tag, "dual grid pattern", str(grid)
    if du.dual_rank(d) != n:
        yield tag, f"dual rank {n}", str(du.dual_rank(d))


def _double_dual(seed: int, i: int, n: int) -> Iterator[Failure]:
    a = sample("closed-base", n, seed, i)
    d = du.dual_base(a)
    tag = f"A=[{a}]"
    grid = Matrix(tuple(tuple(du.apply(f, b) for b in a.columns()) for f in d.functionals))
    if not _dual_pattern_ok(grid):
        yield tag, "double-dual grid pattern", str(grid)
    if rank(grid) != n:
        yield tag, f"double-dual rank {n}", str(rank(grid))
    if not du.is_ghost_monic(a):
        yield tag, "ghost monic", "violated"


def _cs_base_gram(rng: random.Random, n: int) -> Matrix:
    # Tangible diagonal with strictly nu-dominated symmetric off-diagonals:
    # the standard base is Cauchy-Schwartz for this form.
    diag = [rng.randint(0, NU_HI) for _ in range(n)]
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = Scalar.tangible(diag[i])
        for j in range(i + 1, n):
            bound = Fraction(diag[i] + diag[j], 2)
            e = Scalar.tangible(bound - rng.randint(1, 5))
            grid[i][j] = e
            grid[j][i] = e
    return Matrix(tuple(tuple(r) for r in grid))


def _gram_schmidt(seed: int, i: int, n: int) -> Iterator[Failure]:
    rng = _rng(seed, i, "gs")
    form = bl.BilinearForm(_cs_base_gram(rng, n))
    candidates = [
        sample("vector", n, seed, 100 * i + k, ghost_density=0.1)
        for k in range(n)
    ]
    base, _ = bl.gram_schmidt(form, candidates)
    v = sample("vector", n, seed, 100 * i + 50, ghost_density=0.1)
    res = bl.gs_step(form, base, v)
    tag = f"gram=[{form.gram}] v={v}"
    for b in base:
        if not bl.evaluate(form, res.corrected, b).in_ghost_ideal:
            yield tag, "corrected g-orthogonal to base", "violated"
            break
    lhs = bl.evaluate(form, res.corrected, res.corrected)
    rhs = bl.evaluate(form, v, v)
    for b in base:
        vb = bl.evaluate(form, v, b)
        bv = bl.evaluate(form, b, v)
        beta = bl.evaluate(form, b, b).tangible_lift()
        rhs = rhs + vb * (vb + bv) * beta.inv()
    if lhs != rhs:
        yield tag, str(rhs), str(lhs)


def _cs1(seed: int, i: int, n: int) -> Iterator[Failure]:
    rng = _rng(seed, i, "cs1")
    form = bl.BilinearForm(_cs_base_gram(rng, n))
    base = [Matrix.identity(n).col(j) for j in range(n)]
    coeffs_v = [random_scalar(rng, 0.0, 0.0) for _ in range(n)]
    coeffs_w = [random_scalar(rng, 0.0, 0.0) for _ in range(n)]
    v = lin_comb(coeffs_v, base)
    w = lin_comb(coeffs_w, base)
    if not bl.pair_class(form, v, w).weakly_cauchy_schwartz:
        yield f"gram=[{form.gram}] v={v} w={w}", "weakly Cauchy-Schwartz", "violated"


def _nondegenerate_2x2(seed: int, index: int) -> bl.BilinearForm:
    for k in range(100):
        g = sample("symmetric-gram", 2, seed, 1000 * index + k)
        form = bl.BilinearForm(g)
        e1, e2 = Matrix.identity(2).columns()
        if not bl.radical_member(form, [e1, e2], e1) and not bl.radical_member(
            form, [e1, e2], e2
        ):
            return form
    raise DomainError("nondegenerate 2x2 sampler exhausted its retry budget")


def _strip_problem(
    form: bl.BilinearForm, v1: Vector, v2: Vector, strip: bl.StripResult
) -> Optional[str]:
    """Re-check a strip on the pair in the order ``isotropic_strip`` used:
    v1 + beta*v2 must be g-isotropic at the ends and middle of an interval
    (or at -1, 0, 1 when unbounded both ways) and at a point."""
    if strip.swapped:
        v1, v2 = v2, v1
    if strip.kind == "empty":
        return None
    if strip.kind == "point":
        betas = [strip.at]
    elif strip.lo is None and strip.hi is None:
        betas = [Fraction(-1), Fraction(0), Fraction(1)]
    else:
        lo = strip.lo if strip.lo is not None else strip.hi - 2
        hi = strip.hi if strip.hi is not None else strip.lo + 2
        betas = [lo, hi, (lo + hi) / 2]
    for beta in betas:
        w = v1 + v2.scale(Scalar.tangible(beta))
        if not bl.evaluate(form, w, w).in_ghost_ideal:
            return f"v1 + {beta}*v2 g-isotropic"
    return None


def _degen(seed: int, i: int, n: None) -> Iterator[Failure]:
    form = _nondegenerate_2x2(seed, i)
    e1, e2 = Matrix.identity(2).columns()
    strip = bl.isotropic_strip(form, e1, e2)
    tag = f"gram=[{form.gram}]"
    if strip.kind == "empty":
        yield tag, "nonempty strip", "empty"
    problem = _strip_problem(form, e1, e2, strip)
    if problem:
        yield tag, problem, "violated"


def _span_isotropic(form: bl.BilinearForm, vectors: Sequence[Vector]) -> bool:
    """Sample 20 tangible combinations of the vectors for g-isotropy."""
    rng = random.Random("alternate-spot-check")
    for _ in range(20):
        coeffs = [Scalar.tangible(rng.randint(-5, 5)) for _ in vectors]
        if not bl.classify_vector(form, lin_comb(coeffs, list(vectors))).isotropic:
            return False
    return True


def _decompose_postconditions(
    form: bl.BilinearForm, base: Sequence[Vector]
) -> List[str]:
    aniso, alternate = bl.decompose(form, base)
    problems = []
    for x, y in itertools.combinations(aniso, 2):
        if not (
            bl.evaluate(form, x, y).in_ghost_ideal
            and bl.evaluate(form, y, x).in_ghost_ideal
        ):
            problems.append("aniso pairwise g-orthogonal")
        if not bl.pair_class(form, x, y).cauchy_schwartz:
            problems.append("aniso pairwise Cauchy-Schwartz")
    for x in aniso:
        if not bl.evaluate(form, x, x).is_tangible:
            problems.append("aniso g-nonisotropic")
    for x in alternate:
        if not bl.classify_vector(form, x).isotropic:
            problems.append("alternate g-isotropic")
    if alternate and not _span_isotropic(form, alternate):
        problems.append("alternate span g-isotropic")
    for x in alternate:
        for y in aniso:
            if not (
                bl.evaluate(form, x, y).in_ghost_ideal
                and bl.evaluate(form, y, x).in_ghost_ideal
            ):
                problems.append("cross pairing ghost")
    if len(aniso) + len(alternate) != len(base):
        problems.append("counts sum")
    return sorted(set(problems))


def _decompose(seed: int, i: int, n: int) -> Iterator[Failure]:
    g = sample("symmetric-gram", n, seed, i)
    form = bl.BilinearForm(g)
    if i % 2 == 0:
        base = Matrix.identity(n).columns()
    else:
        base = sample("nonsingular-matrix", n, seed, i + 5_000).columns()
    problems = _decompose_postconditions(form, base)
    if problems:
        yield f"gram=[{g}] base#{i}", "decompose postconditions", "; ".join(problems)


def _quadlin(seed: int, i: int, n: int) -> Iterator[Failure]:
    rng = _rng(seed, i, "quadlin")
    diag = tuple(random_scalar(rng, 0.25, 0.0) for _ in range(n))
    q = qd.QuadraticForm.from_diagonal(diag)
    form = qd.form_from_q(q)
    tag = f"diag={' '.join(map(str, diag))}"
    if not bl.is_supertropically_symmetric(form):
        yield tag, "companion symmetric", "violated"
    for k in range(20):
        v = sample("vector", n, seed, 31 * i + k, ghost_density=0.1)
        w = sample("vector", n, seed, 31 * i + k + 1_000_000, ghost_density=0.1)
        b = bl.evaluate(form, v, w)
        lhs = b.power(2) if not b.is_zero else ZERO
        rhs = qd.q_eval(q, v) * qd.q_eval(q, w)
        if lhs != rhs:
            yield f"{tag} v={v} w={w}", str(rhs), str(lhs)
        if rhs.nu_cmp(lhs) < 0:
            yield f"{tag} v={v} w={w}", "weak Cauchy-Schwartz", "violated"
    a = random_scalar(rng, 0.0, 0.0)
    hyper = qd.hyperbolic_plane(a)
    e1, e2 = Matrix.identity(2).columns()
    if not qd.is_hyperbolic_plane(hyper, e1, e2):
        yield f"hyperbolic a={a}", "is_hyperbolic_plane", "false"
    q2 = qd.QuadraticForm.from_diagonal(
        tuple(random_scalar(rng, 0.0, 0.0) for _ in range(2))
    )
    qs = qd.orthogonal_sum(q, q2)
    v1 = sample("vector", n, seed, 77 * i, ghost_density=0.1)
    v2 = sample("vector", 2, seed, 77 * i + 1, ghost_density=0.1)
    joined = Vector(tuple(v1) + tuple(v2))
    if qd.q_eval(qs, joined) != qd.q_eval(q, v1) + qd.q_eval(q2, v2):
        yield f"{tag} osum", "Q(v1 (+) v2) = Q1(v1)+Q2(v2)", "violated"


def _surpass_order(seed: int, i: int, n: None) -> Iterator[Failure]:
    a = sample("scalar", None, seed, 3 * i)
    b = sample("scalar", None, seed, 3 * i + 1)
    c = sample("scalar", None, seed, 3 * i + 2)
    tag = f"a={a} b={b} c={c}"
    if not a.ghost_surpasses(a):
        yield tag, "reflexive", "violated"
    if a.ghost_surpasses(b) and b.ghost_surpasses(c) and not a.ghost_surpasses(c):
        yield tag, "transitive", "violated"
    if a.ghost_surpasses(b) and b.ghost_surpasses(a) and a != b:
        yield tag, "antisymmetric", "violated"


# Each suite's trial and the sizes n its trials cycle through.
SUITES: Dict[str, Tuple[Callable[[int, int, Optional[int]], Iterable[Failure]], tuple]] = {
    "frobenius": (_frobenius, (None,)),
    "det-engines": (_det_engines, (2, 3, 4, 5, 6)),
    "quasi-identity": (_quasi_identity, (2, 3, 4, 5)),
    "dual-base": (_dual_base, (2, 3, 4, 5)),
    "double-dual": (_double_dual, (2, 3, 4, 5)),
    "gram-schmidt": (_gram_schmidt, (2, 3, 4)),
    "cs1": (_cs1, (2, 3, 4)),
    "degen": (_degen, (None,)),
    "decompose": (_decompose, (2, 3, 4, 5)),
    "quadlin": (_quadlin, (2, 3, 4, 5)),
    "surpass-order": (_surpass_order, (None,)),
}


def run_suite(name: str, trials: int, seed: int) -> TrialReport:
    """Run a named suite for ``trials`` >= 1 trials at ``seed``: the one
    loop over the suites.  Trial i runs at size ``sizes[i % len(sizes)]``;
    each field of each failure shows its newlines as ``"; "``, and the
    sorted failures make the report."""
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    check_trials(trials)
    trial, sizes = SUITES[name]
    failures = tuple(sorted(
        tuple(field.replace("\n", "; ") for field in failure)
        for i in range(trials) for failure in trial(seed, i, sizes[i % len(sizes)])
    ))
    return TrialReport(name, trials, seed, failures, "counterexample" if failures else "pass")
