"""Exact arithmetic in the supertropical semifield over max-plus rationals.

A scalar is ``-inf`` (the adjoined zero), a tangible rational, or a ghost
rational.  Addition is maximum on the rational values, with ties collapsing
to the ghost layer; multiplication is rational addition, with the ghost
layer absorbing.  All values are immutable and exact (``fractions.Fraction``
underneath), so every comparison in this library is structural equality.

Text grammar: ``-inf`` | RATIONAL | RATIONAL``g`` where RATIONAL is an
optionally signed integer or ``p/q`` with ``q > 0``.
``parse_scalar(str(x)) == x`` always.

``dot`` is the sum of products behind matrix products and functionals.
The form layer folds such sums on int codes of one scaling per call:
``_pairings`` gives a grid of them (the orthogonalization sweep, the
diagonal quadratic form, ``lin_comb``) and ``_pair_grid`` the grid
x . (G y) as codes (``evaluate``, ``gram_of``, ``pair_class``).  Nothing
here samples: the scalar sampler lives in ``oracle``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import repeat
from operator import add
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, ParseError, ShapeError


class Record:
    """An immutable value whose fields are its class's ``__slots__``: equal
    and hashed by the tuple of its field values and shown as
    ``Name(field=value, ...)``, as a frozen dataclass is.  The generic
    constructor takes the fields in order, by position or keyword; a field
    not given takes its value from ``_defaults``."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        # The slots' own setters: faster than object.__setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._setters):
            fields = self.__slots__
            values = dict(self._defaults, **dict(zip(fields, args)), **kwargs)
            if len(args) > len(fields) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
            args = [values[name] for name in fields]
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through the constructor: pickle's and copy's default
        # slot-state restore would assign the fields one by one.
        return type(self), self._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Scalar(Record):
    """A supertropical scalar: zero, tangible, or ghost.

    ``value is None`` encodes the semiring zero (written ``-inf``); in that
    case ``ghost`` is always False.  Otherwise ``ghost`` selects the layer.
    """

    __slots__ = ("value", "ghost")

    def __init__(self, value: Optional[Fraction], ghost: bool = False) -> None:
        if value is None and ghost:
            raise DomainError("zero scalar carries no layer")
        _set_value(self, value)
        _set_ghost(self, ghost)

    def __eq__(self, other):
        # One tuple compare, which short-cuts on shared Fractions.
        if other.__class__ is self.__class__:
            return (self.value, self.ghost) == (other.value, other.ghost)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.ghost))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def tangible(q) -> "Scalar":
        """The tangible scalar of nu-value q: an int, a ``Fraction`` or a
        rational string such as ``"-3/2"``.  A float raises ``DomainError``
        (its binary value is rarely the rational meant), as does any other
        type that is not a rational; a string that is not a rational raises
        ``ParseError``."""
        return Scalar(_rational(q), False)

    @staticmethod
    def ghost_of(q) -> "Scalar":
        """The ghost scalar of nu-value q; q as for :meth:`tangible`."""
        return Scalar(_rational(q), True)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.value is None

    @property
    def is_tangible(self) -> bool:
        return self.value is not None and not self.ghost

    @property
    def is_ghost(self) -> bool:
        return self.value is not None and self.ghost

    @property
    def in_ghost_ideal(self) -> bool:
        """True for ghosts and zero (the ideal G adjoined with zero)."""
        return self.value is None or self.ghost

    # -- semiring operations ----------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.value is None:
            return other
        if other.value is None:
            return self
        if self.value > other.value:
            return self
        if self.value < other.value:
            return other
        return Scalar(self.value, True)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.value is None or other.value is None:
            return ZERO
        return Scalar(self.value + other.value, self.ghost or other.ghost)

    def nu(self) -> "Scalar":
        """The ghost map: a |-> a + a."""
        if self.value is None:
            return ZERO
        return Scalar(self.value, True)

    def inv(self) -> "Scalar":
        """Multiplicative inverse within the tangible or ghost group."""
        if self.value is None:
            raise DomainError("division by zero")
        return Scalar(-self.value, self.ghost)

    def power(self, r) -> "Scalar":
        """Raise to a rational power; the group (Q, +) is divisible, so any
        rational exponent is legal on nonzero scalars.  ``r`` is read as for
        :meth:`tangible`."""
        r = _rational(r)
        if self.value is None:
            if r <= 0:
                raise DomainError("zero cannot be raised to a nonpositive power")
            return ZERO
        return Scalar(self.value * r, self.ghost)

    def nu_cmp(self, other: "Scalar") -> int:
        """Compare nu-values, zero at the bottom: -1 (Lt), 0 (Match), 1 (Gt)."""
        a, b = _nu(self), _nu(other)
        return (a > b) - (a < b)

    def nu_match(self, other: "Scalar") -> bool:
        return self.nu_cmp(other) == 0

    def tangible_lift(self) -> "Scalar":
        """The tangible scalar with the same nu-value."""
        if self.value is None:
            raise DomainError("zero has no tangible lift")
        return Scalar(self.value, False)

    def ghost_surpasses(self, other: "Scalar") -> bool:
        """self |= other: self = other + c for some c in the ghost ideal."""
        return self == other or self.ghost and self.value >= _nu(other)

    # -- text --------------------------------------------------------------

    def __str__(self) -> str:
        if self.value is None:
            return "-inf"
        body = str(self.value)
        return body + "g" if self.ghost else body

    def __repr__(self) -> str:
        return f"Scalar({self})"


_set_value, _set_ghost = Scalar._setters


def _rational(q) -> Fraction:
    try:
        if not isinstance(q, float):
            return Fraction(q)
    except (TypeError, OverflowError):
        pass
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational scalar value {q!r}") from exc
    raise DomainError(f"{type(q).__name__} scalar value {q!r}; give an int, Fraction or rational string")


_NEG = float("-inf")


def _nu(x: Scalar):
    """The nu-value of x: its rational, or ``-inf`` for zero."""
    return _NEG if x.value is None else x.value


def dot(xs: Sequence[Scalar], ys: Sequence[Scalar]) -> Scalar:
    """The sum of products sum_i xs[i] * ys[i] in one pass over the
    products' nu-values: the maximum, ghost iff it is attained twice or by a
    ghost product.  Products with a ``-inf`` factor are skipped; with none
    left the sum is ``-inf``."""
    if len(xs) != len(ys):
        raise ShapeError("dot product length mismatch")
    best, ghost = None, False
    for x, y in zip(xs, ys):
        if x.value is None or y.value is None:
            continue
        p = x.value + y.value
        if best is None or p > best:
            best, ghost = p, x.ghost or y.ghost
        elif p == best:
            ghost = True
    return ZERO if best is None else Scalar(best, ghost)


def _codes(seqs: Sequence[Sequence[Scalar]]) -> Tuple[int, List[List[Optional[int]]]]:
    """(L, codes): nu-values scaled by the LCM L of their denominators, an
    automorphism of (Q, max, +), a scaled value k coded 4k + ghost and
    ``-inf`` as None."""
    scale = math.lcm(*{q.denominator for s in seqs for x in s if (q := x.value) is not None})
    one = scale == 1
    return scale, [[None if (q := x.value) is None else
                    4 * (q.numerator if one else q.numerator * (scale // q.denominator)) + x.ghost
                    for x in s] for s in seqs]


def _fold(codes: List[List[Optional[int]]], nrows: int) -> List[List[Optional[int]]]:
    """[[x . y for y in codes[nrows:]] for x in codes[:nrows]] on codes of
    one scale, coded alike.  A sum of two codes is 4 * (the scaled product)
    + (its ghost factors, 0-2), so the largest sum is a ghost iff its low
    bits are not 0 or it is attained twice.  None becomes a code so low that
    every product through it lies below 2 * (the least code)."""
    real = [c for s in codes for c in s if c is not None]
    if not real:  # all -inf, or empty vectors
        return [[None] * (len(codes) - nrows) for _ in codes[:nrows]]
    floor = 2 * min(real)
    low = floor - max(real) - 1
    codes = [[low if c is None else c for c in s] for s in codes]

    def pair(x: List[int], y: List[int]) -> Optional[int]:
        ps = list(map(add, x, y))
        best = max(ps)
        if best < floor:
            return None
        if best & 3 or ps.count(best) > 1:
            return best & -4 | 1
        return best

    cols = codes[nrows:]
    return [[pair(x, y) for y in cols] for x in codes[:nrows]]


def _scalars(grid: List[List[Optional[int]]], scale: int) -> List[List[Scalar]]:
    """The scalars of a grid of codes at scale L."""
    one = scale == 1
    return [[ZERO if c is None else Scalar(Fraction(c >> 2) if one else Fraction(c >> 2, scale), bool(c & 1))
             for c in row] for row in grid]


def _pairings(rows: Sequence[Sequence[Scalar]], cols: Sequence[Sequence[Scalar]]) -> List[List[Scalar]]:
    """[[dot(x, y) for y in cols] for x in rows], folded on ints."""
    seqs = (*rows, *cols)
    if len(set(map(len, seqs))) > 1:
        raise ShapeError("dot product length mismatch")
    scale, codes = _codes(seqs)
    return _scalars(_fold(codes, len(rows)), scale)


def _pair_grid(gram: Sequence[Sequence[Scalar]], rows: Sequence[Sequence[Scalar]],
               cols: Sequence[Sequence[Scalar]]) -> Tuple[int, List[List[Optional[int]]]]:
    """(L, [[x . (G y) for y in cols] for x in rows] as codes), G and the
    vectors on one scaling; the caller checks that every length is G's."""
    r = len(rows)
    scale, codes = _codes((*rows, *cols, *gram))
    return scale, _fold([*codes[:r], *_fold(codes[r:], len(cols))], r)


ZERO = Scalar(None, False)
ONE = Scalar(Fraction(0), False)
E = Scalar(Fraction(0), True)  # the ghost unit e = ghost 0


_SCALAR_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)(g?)$")


def parse_scalar(text: str) -> Scalar:
    text = text.strip()
    if text == "-inf":
        return ZERO
    m = _SCALAR_RE.match(text)
    if not m:
        raise ParseError(f"bad scalar token: {text!r}")
    try:
        return Scalar(Fraction(m.group(1)), m.group(2) == "g")
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in scalar token: {text!r}") from exc


# -- vectors ---------------------------------------------------------------


class Vector(Record):
    """A fixed-length dense vector of supertropical scalars."""

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        entries = tuple(entries)
        if not entries:
            raise ShapeError("vectors must have positive dimension")
        if not all(map(isinstance, entries, repeat(Scalar))):
            raise DomainError("vector entries must be Scalars")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Scalar:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise ShapeError("vector dimension mismatch")
        return Vector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def scale(self, a: Scalar) -> "Vector":
        return Vector(tuple(a * x for x in self.entries))

    def nu(self) -> "Vector":
        return Vector(tuple(x.nu() for x in self.entries))

    @property
    def is_ghost(self) -> bool:
        """True iff the vector lies in the standard ghost subspace."""
        return all(x.in_ghost_ideal for x in self.entries)

    @property
    def is_tangible(self) -> bool:
        """All entries tangible or zero, at least one nonzero."""
        return all(not x.is_ghost for x in self.entries) and any(
            not x.is_zero for x in self.entries
        )

    def ghost_surpasses(self, other: "Vector") -> bool:
        if self.dim != other.dim:
            raise ShapeError("vector dimension mismatch")
        return all(a.ghost_surpasses(b) for a, b in zip(self.entries, other.entries))

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.entries)


def vector(*tokens) -> Vector:
    """Build a vector from scalar tokens, Scalars, or rational literals."""
    out = []
    for t in tokens:
        if isinstance(t, Scalar):
            out.append(t)
        elif isinstance(t, str):
            out.append(parse_scalar(t))
        else:
            out.append(Scalar.tangible(t))
    return Vector(tuple(out))


def parse_vector(text: str) -> Vector:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty vector")
    return Vector(tuple(parse_scalar(t) for t in tokens))


def lin_comb(coeffs: Sequence[Scalar], vectors: Sequence[Vector]) -> Vector:
    """Entrywise sum of coeffs[i] * vectors[i]."""
    if len(coeffs) != len(vectors):
        raise ShapeError("coefficient/vector count mismatch")
    if not vectors:
        raise ShapeError("empty linear combination")
    dim = vectors[0].dim
    if any(v.dim != dim for v in vectors):
        raise ShapeError("vector dimension mismatch")
    return Vector(_pairings([coeffs], list(zip(*(v.entries for v in vectors))))[0])
