"""Seeded input generation and conversion into library objects.

Inputs are drawn from the benchmark's own ``random.Random`` stream, keyed by
workload and seed, never from ``supertrop.oracle.sample``: a change to the
library's samplers must not change the workloads.  Values are generated as
plain ``(value, ghost)`` tuples (see :mod:`refs`) and only then turned into
library objects, so the references never see the code under test.
"""

from __future__ import annotations

import importlib
import random
import sys
from fractions import Fraction

import refs

LIB_MODULES = ("scalars", "matrices", "dual", "bilinear", "quadratic", "oracle", "cli")


class Gen:
    """One deterministic stream per (workload, seed)."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"perfbench:{workload}:{seed}")

    def scalar(self, ghost=0.2, zero=0.15, lo=-10, hi=10, frac=0.0):
        """Zero with probability ``zero``, ghost with probability ``ghost``;
        the value is an integer in [lo, hi], or with probability ``frac`` a
        rational p/d with 2 <= d <= 6 in the same range."""
        rnd = self.rng.random
        r = rnd()
        if r < zero:
            return refs.ZERO
        if frac and rnd() < frac:
            d = 2 + int(rnd() * 5)
            value = Fraction(lo * d + int(rnd() * ((hi - lo) * d + 1)), d)
        else:
            value = lo + int(rnd() * (hi - lo + 1))
        return refs.norm(value, r < zero + ghost)

    def vector(self, n, **kw):
        return tuple(self.scalar(**kw) for _ in range(n))

    def matrix(self, rows, cols=None, **kw):
        return tuple(self.vector(rows if cols is None else cols, **kw) for _ in range(rows))

    def symmetric(self, n, **kw):
        grid = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                grid[i][j] = grid[j][i] = self.scalar(**kw)
        return tuple(tuple(r) for r in grid)

    def randint(self, lo, hi):
        return self.rng.randint(lo, hi)

    def choice(self, seq):
        return self.rng.choice(seq)


def purge():
    """Forget every imported ``supertrop`` module, so the next import pays
    the full import cost again."""
    for name in [m for m in sys.modules if m == "supertrop" or m.startswith("supertrop.")]:
        del sys.modules[name]


class Lib:
    """The library under test: its modules plus converters from plain data.
    Scalars are interned, so a large input pool shares its scalar objects."""

    def __init__(self):
        self.pkg = importlib.import_module("supertrop")
        for name in LIB_MODULES:
            setattr(self, name, importlib.import_module(f"supertrop.{name}"))
        self._scalars = {}

    def scalar(self, p):
        s = self._scalars.get(p)
        if s is None:
            sc = self.scalars.Scalar
            if p[0] is None:
                s = self.scalars.ZERO
            elif p[1]:
                s = sc.ghost_of(p[0])
            else:
                s = sc.tangible(p[0])
            self._scalars[p] = s
        return s

    def vector(self, xs):
        return self.scalars.Vector(tuple(self.scalar(x) for x in xs))

    def matrix(self, rows):
        return self.matrices.Matrix(tuple(tuple(self.scalar(x) for x in r) for r in rows))

    def form(self, rows):
        return self.bilinear.BilinearForm(self.matrix(rows))


def nonsingular(gen: Gen, lib: Lib, n: int):
    """A tangible matrix without zeros and with tangible determinant,
    accepted by the oracle's brute-force determinant rather than by the
    engine under test.  Without zeros the expansion visits every
    permutation, so the cost of an op depends on n alone.  Entries lie in
    [-99, 99], where ties for the optimal permutation are rare (about 2% of
    draws at n = 7, against 20% in [-10, 10]), so the number of rejected
    draws, and with it the set-up time, barely depends on the seed."""
    while True:
        a = gen.matrix(n, ghost=0.0, zero=0.0, lo=-99, hi=99)
        if lib.oracle.brute_force_det(lib.matrix(a)).value.is_tangible:
            return a


def rank_deficient(gen: Gen, n: int):
    """A ghost-heavy matrix whose tropical rank is below n."""
    while True:
        a = gen.matrix(n, ghost=0.5, zero=0.15, lo=-5, hi=5)
        if not refs.is_tangible(refs.det(a)):
            return a
