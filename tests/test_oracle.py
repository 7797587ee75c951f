"""Brute-force engines, samplers, and suite report determinism."""

import hashlib
import itertools
import random
import types
from fractions import Fraction

import pytest

from supertrop import (
    BilinearForm,
    CapacityError,
    DomainError,
    GSResult,
    Matrix,
    ONE,
    Scalar,
    StripResult,
    ZERO,
    bilinear,
    brute_force_det,
    det,
    dual,
    independent,
    isotropic_strip,
    oracle,
    parse_matrix,
    quadratic,
    run_suite,
    sample,
    vector,
)
from supertrop.matrices import DetResult
from supertrop.oracle import (
    DEPENDENCE_CAP,
    SUITES,
    _span_isotropic,
    _strip_problem,
    dependence_search,
)

T = Scalar.tangible
G = Scalar.ghost_of


# -- brute-force determinant ----------------------------------------------


def test_brute_force_det_frozen():
    assert brute_force_det(parse_matrix("0 1\n2 0")).value == T(3)
    assert brute_force_det(parse_matrix("1 2\n3 4")).value == G(5)
    assert brute_force_det(Matrix.identity(4)).value == ONE


def test_brute_force_det_all_zero_keeps_every_witness():
    d = brute_force_det(parse_matrix("\n".join(["0 0 0 0"] * 4)))
    assert d.value == G(0)
    assert d.witnesses == frozenset(itertools.permutations(range(4)))


def test_brute_force_det_zero_row():
    d = brute_force_det(parse_matrix("-inf -inf\n1 2"))
    assert d == DetResult(ZERO, frozenset())


def test_brute_force_det_fractional_tie():
    d = brute_force_det(parse_matrix("1/2 1/3\n1/6 0"))
    assert d.value == G(Fraction(1, 2))
    assert d.witnesses == {(0, 1), (1, 0)}


def test_brute_force_det_cap():
    with pytest.raises(CapacityError):
        brute_force_det(Matrix.identity(9))


def _fold_every_product(a):
    """The expansion the oracle replaced: fold all n! products, then keep
    the nonzero ones nu-matching the total."""
    products = []
    total = ZERO
    for perm in itertools.permutations(range(a.rows)):
        p = ONE
        for i, j in enumerate(perm):
            p = p * a.entries[i][j]
        products.append((perm, p))
        total = total + p
    witnesses = (perm for perm, p in products if not p.is_zero and p.nu_match(total))
    return DetResult(total, frozenset(witnesses))


def test_brute_force_det_matches_full_fold_sampled():
    for i in range(500):
        m = sample("matrix", 1 + i % 5, seed=11, index=i, ghost_density=0.3, zero_density=0.2)
        if i % 2:
            rng = random.Random(i)
            m = Matrix.from_rows(
                [e if e.is_zero else Scalar(e.value / rng.randint(1, 6), e.ghost) for e in r]
                for r in m.entries
            )
        assert brute_force_det(m) == _fold_every_product(m)


def test_det_agrees_with_oracle_sampled():
    for i in range(30):
        m = sample("matrix", 2 + i % 4, seed=5, index=i)
        got, want = det(m), brute_force_det(m)
        assert got.value == want.value
        assert got.witnesses <= want.witnesses
        for k in (1, 2):
            assert (len(got.witnesses) >= k) == (len(want.witnesses) >= k)


# -- dependence search -----------------------------------------------------


def test_dependence_search_equal_vectors():
    witness = dependence_search([vector(0, 0), vector(0, 0)], [Fraction(0)])
    assert witness is not None


def test_dependence_search_standard_base():
    grid = [Fraction(k) for k in range(-2, 3)]
    assert dependence_search(Matrix.identity(2).columns(), grid) is None


def test_dependence_search_witness_implies_dependent():
    vs = [vector(1, 2), vector(3, 4)]
    grid = [Fraction(k) for k in range(-2, 3)]
    witness = dependence_search(vs, grid)
    assert witness is not None
    assert not independent(vs)


def test_dependence_search_empty_grid():
    with pytest.raises(DomainError):
        dependence_search([vector(0, 0)], [])


def test_dependence_search_cap():
    # (15 + 1) ** 4 tuples is exactly the cap; one more grid value is over.
    assert DEPENDENCE_CAP == 16 ** 4
    vs = [vector(0, 0)] * 4
    assert dependence_search(vs, [Fraction(k) for k in range(15)]) is not None
    with pytest.raises(CapacityError):
        dependence_search(vs, [Fraction(k) for k in range(16)])


# -- checks the suites run on library results ----------------------------


E1, E2 = Matrix.identity(2).columns()


def test_strip_recheck_accepts_strips_and_catches_a_wrong_one():
    form = BilinearForm(parse_matrix("0 2\n2 0"))
    strip = isotropic_strip(form, E1, E2)
    assert _strip_problem(form, E1, E2, strip) is None
    wrong = StripResult("point", strip.lo, strip.hi, Fraction(5), strip.swapped)
    assert _strip_problem(form, E1, E2, wrong) is not None


def test_strip_recheck_uses_the_swapped_order():
    # Q(e1) = 2 > Q(e2) = 0, so the strip is solved for e2 + beta*e1.
    form = BilinearForm(parse_matrix("2 -inf\n-inf 0"))
    strip = isotropic_strip(form, E1, E2)
    assert strip.swapped and strip.at == Fraction(-1)
    assert _strip_problem(form, E1, E2, strip) is None
    unswapped = StripResult(strip.kind, strip.lo, strip.hi, strip.at, swapped=False)
    assert _strip_problem(form, E1, E2, unswapped) is not None


def test_span_check():
    assert _span_isotropic(BilinearForm(parse_matrix("-inf 0\n0 -inf")), [E1, E2])
    assert not _span_isotropic(BilinearForm(Matrix.identity(2)), [E1, E2])


# -- samplers --------------------------------------------------------------


def test_sampler_determinism():
    assert sample("tangible-scalar", None, 3, 9) == sample("tangible-scalar", None, 3, 9)
    assert sample("matrix", 3, 3, 9) == sample("matrix", 3, 3, 9)


def test_nonsingular_sampler_postcondition():
    for i in range(10):
        m = sample("nonsingular-matrix", 3, seed=1, index=i)
        assert det(m).value.is_tangible


def test_symmetric_gram_sampler_mirrors():
    g = sample("symmetric-gram", 4, seed=1, index=0)
    for i in range(4):
        for j in range(4):
            assert g[i, j] == g[j, i]


def test_closed_base_sampler_postcondition():
    from supertrop import is_closed_base, is_nonsingular

    for i in range(10):
        m = sample("closed-base", 3, seed=2, index=i)
        assert is_nonsingular(m)
        assert is_closed_base(m)


def test_sampler_unknown_kind():
    with pytest.raises(DomainError):
        sample("nope", 2, 0, 0)


# -- suites and reports ----------------------------------------------------


def test_all_suites_pass_small():
    for name in SUITES:
        assert run_suite(name, 5, seed=0).passed


def test_report_determinism():
    a = run_suite("det-engines", 10, seed=7)
    b = run_suite("det-engines", 10, seed=7)
    assert a.to_json() == b.to_json()


def test_report_fields():
    r = run_suite("frobenius", 3, seed=1)
    assert r.suite == "frobenius"
    assert r.trials == 3
    assert r.seed == 1
    assert r.verdict == "pass"
    assert r.failures == ()


def test_run_suite_unknown_name():
    with pytest.raises(DomainError):
        run_suite("no-such-suite", 1, 0)


def test_run_suite_needs_a_trial():
    for trials in (0, -3):
        with pytest.raises(DomainError, match="at least 1"):
            run_suite("frobenius", trials, 0)


@pytest.mark.parametrize("call", [
    lambda: run_suite("frobenius", 2.5, 0),
    lambda: run_suite("frobenius", "3", 0),
    lambda: run_suite("frobenius", True, 0),
], ids=["run_suite-float", "run_suite-str", "run_suite-bool"])
def test_trial_count_must_be_an_integer(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()


# One planted fault per suite: (module or class, attribute, fake, failures at
# 12 trials and seed 7, first 16 hex digits of sha256 of the report's JSON).
# The faults reach the matrix-valued tags and fields, whose newlines
# run_suite flattens, so the hashes pin each suite's failure text.
PLANTED = {
    "frobenius": (Scalar, "power", lambda self, r: Scalar(-self.value * r, self.ghost),
                  45, "b886208a41582ef7"),
    "det-engines": (oracle, "det", lambda m: DetResult(ZERO, frozenset()), 20, "a0c4de6d30b2b826"),
    "quasi-identity": (oracle, "close", lambda a: a, 12, "7b81848ffb1a3dc3"),
    "dual-base": (dual, "dual_rank", lambda d: 0, 12, "d4de0aecd6b7159d"),
    "double-dual": (oracle, "rank", lambda a: 0, 12, "415b240ea5e03aeb"),
    "gram-schmidt": (bilinear, "gs_step", lambda form, base, v: GSResult(v, v, frozenset()),
                     19, "1cf479e893b92093"),
    "cs1": (bilinear, "pair_class",
            lambda form, v, w: types.SimpleNamespace(weakly_cauchy_schwartz=False),
            12, "b2a007ed60ce306a"),
    "degen": (bilinear, "isotropic_strip", lambda form, v1, v2: StripResult(kind="empty"),
              12, "fb36b07dd4f4332c"),
    "decompose": (bilinear, "decompose", lambda form, base: ([], list(base)),
                  10, "0a50522f17cd0dcb"),
    "quadlin": (quadratic, "q_eval", lambda q, v: ZERO, 480, "fdd8b82545060d60"),
    "surpass-order": (Scalar, "ghost_surpasses", lambda self, other: False,
                      12, "eef0045126d2a29d"),
}


def test_planted_faults_cover_every_suite():
    assert sorted(PLANTED) == sorted(SUITES)


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_fault_report_is_pinned(name, monkeypatch):
    target, attr, fake, count, digest = PLANTED[name]
    monkeypatch.setattr(target, attr, fake)
    report = run_suite(name, 12, 7)
    assert len(report.failures) == count
    assert hashlib.sha256(report.to_json().encode()).hexdigest()[:16] == digest


def test_det_engines_holds_matrix_maps_to_the_map_axioms(monkeypatch):
    # A non-linear M v: the true product scaled by v_0 when v_0 is not zero.
    true_apply = Matrix.apply

    def scaled(self, v):
        mv = true_apply(self, v)
        return mv if v[0].is_zero else mv.scale(v[0])

    monkeypatch.setattr(Matrix, "apply", scaled)
    tags = [tag for tag, _, _ in run_suite("det-engines", 12, 7).failures]
    assert any(" additivity at " in t for t in tags)
    assert any(" tangible homogeneity at " in t for t in tags)
    assert any(" ghost homogeneity at " in t for t in tags)
    assert all(" at v=" in t for t in tags)


def test_a_trial_runs_alone(monkeypatch):
    target, attr, fake, _, _ = PLANTED["quasi-identity"]
    monkeypatch.setattr(target, attr, fake)
    trial, sizes = SUITES["quasi-identity"]
    inside = {}

    def recording(seed, i, n):
        inside[i] = list(trial(seed, i, n))
        return inside[i]

    monkeypatch.setitem(SUITES, "quasi-identity", (recording, sizes))
    report = run_suite("quasi-identity", 12, 7)
    alone = {i: list(trial(7, i, sizes[i % len(sizes)])) for i in range(12)}
    flat = sorted(tuple(f.replace("\n", "; ") for f in failure)
                  for i in range(12) for failure in alone[i])
    assert flat == list(report.failures)
    assert alone[5] and alone[5] == inside[5]
