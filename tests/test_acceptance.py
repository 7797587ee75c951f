"""Acceptance battery: one test per criterion, one printed verdict line each.

Every criterion demands exact equality and zero failures at the stated trial
count, inside a wall-clock budget.  The property criteria delegate to the
seeded suites in :mod:`supertrop.oracle`; the rest are direct computations.
"""

import random
import time
from fractions import Fraction

import pytest

from supertrop import (
    BilinearForm,
    Matrix,
    ONE,
    QuadraticForm,
    Scalar,
    ZERO,
    dual_base,
    dual_eval_matrix,
    hyperbolic_plane,
    parse_matrix,
    q_eval,
    run_suite,
    vector,
)
from supertrop.bilinear import evaluate
from supertrop.matrices import det
from supertrop.dual import apply

SEED = 7

T = Scalar.tangible
G = Scalar.ghost_of


@pytest.fixture
def verdict(capfd):
    # One pass/fail line per criterion, pushed past pytest's capture so it
    # always reaches the terminal.
    def emit(name: str, ok: bool, elapsed: float) -> None:
        line = f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def _suite_criterion(verdict, name: str, suite: str, trials: int, budget: float) -> None:
    start = time.monotonic()
    report = run_suite(suite, trials, SEED)
    elapsed = time.monotonic() - start
    ok = report.passed and elapsed < budget
    verdict(name, ok, elapsed)
    assert report.failures == ()


def test_criterion_01_frobenius(verdict):
    _suite_criterion(verdict, "01 frobenius", "frobenius", 1000, 1.0)


def test_criterion_02_det_engines(verdict):
    # 2500 trials cycle the sizes 2..6, i.e. 500 matrices of each size.
    _suite_criterion(verdict, "02 det-engines", "det-engines", 2500, 30.0)


def test_criterion_03_quasi_identity(verdict):
    _suite_criterion(verdict, "03 quasi-identity", "quasi-identity", 200, 10.0)


def test_criterion_04_dual_base(verdict):
    _suite_criterion(verdict, "04 dual-base", "dual-base", 200, 20.0)


def test_criterion_05_double_dual(verdict):
    _suite_criterion(verdict, "05 double-dual", "double-dual", 200, 20.0)


def test_criterion_06_gram_schmidt(verdict):
    _suite_criterion(verdict, "06 gram-schmidt", "gram-schmidt", 200, 20.0)


def test_criterion_07_cs_gram_equivalence(verdict):
    # For symmetric 2x2 forms with tangible diagonal:
    # <v,w><w,v> |= <v,v><w,w>  iff  det(Gram) lies in the ghost ideal.
    start = time.monotonic()
    failures = 0
    for i in range(500):
        rng = random.Random(f"cs-gram:{SEED}:{i}")
        d1, d2 = T(rng.randint(-10, 10)), T(rng.randint(-10, 10))
        q = Fraction(rng.randint(-10, 10))
        r = rng.random()
        if r < 0.2:
            c = ZERO
        elif r < 0.5:
            c = G(q)
        else:
            c = T(q)
        gram = Matrix(((d1, c), (c, d2)))
        surpass = (c * c).ghost_surpasses(d1 * d2)
        det_ghost = det(gram).value.in_ghost_ideal
        if surpass != det_ghost:
            failures += 1
    elapsed = time.monotonic() - start
    verdict("07 cs-gram-equivalence", failures == 0 and elapsed < 5.0, elapsed)


def test_criterion_08_isotropic_strip(verdict):
    _suite_criterion(verdict, "08 isotropic-strip", "degen", 300, 5.0)


def test_criterion_09_decompose(verdict):
    _suite_criterion(verdict, "09 decompose", "decompose", 100, 30.0)


def test_criterion_10_quadratic(verdict):
    _suite_criterion(verdict, "10 quadratic", "quadlin", 200, 10.0)


def test_criterion_11_worked_examples(verdict):
    start = time.monotonic()
    ok = True

    # Hyperbolic plane: Q(e1 + e2) is the ghost unit.
    q = QuadraticForm.from_form(hyperbolic_plane(ONE))
    ok &= q_eval(q, vector(0, 0)) == G(0)

    # One-sided pairing: the sum evaluates tangibly, breaking quasilinearity.
    one_sided = BilinearForm(parse_matrix("-inf 0\n-inf -inf"))
    ok &= evaluate(one_sided, vector(0, 0), vector(0, 0)) == ONE

    # Standard base: the double-dual evaluation grid is the identity.
    d = dual_base(Matrix.identity(3))
    grid = Matrix(
        tuple(
            tuple(apply(f, Matrix.identity(3).col(j)) for j in range(3))
            for f in d.functionals
        )
    )
    ok &= grid == Matrix.identity(3)
    ok &= dual_eval_matrix(d) == Matrix.identity(3)

    elapsed = time.monotonic() - start
    verdict("11 worked-examples", bool(ok) and elapsed < 1.0, elapsed)
