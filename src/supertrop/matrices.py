"""Supertropical matrix algebra.

Determinants are permanents (no signs exist in the semiring).  ``det`` is
the one engine: a maximum-weight assignment with an exact uniqueness test,
O(n^3) and uncapped.  :func:`supertrop.oracle.brute_force_det` is its
independent check, a full permutation expansion for n <= 8.  A nonsingular
A's one solve answers the rest: adj(A), A^nabla, I_A, I'_A, close(A) and
A^{nabla nabla} are O(n^2) reads of its potentials and best reduced-cost
paths (:class:`_Optimum`), with no matrix product.  A singular A's adjoint
is the grid of n^2 minor determinants.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .errors import CapacityError, DomainError, ParseError, ShapeError
from .scalars import ONE, ZERO, Record, Scalar, Vector, dot, parse_scalar

RANK_CAP = 10


class Matrix(Record):
    """A dense rectangular matrix of supertropical scalars (row-major)."""

    __slots__ = ("entries",)  # tuple of row tuples

    def __init__(self, entries) -> None:
        rows = tuple(map(tuple, entries))
        if not rows or not rows[0]:
            raise ShapeError("matrices must have positive dimensions")
        if len(set(map(len, rows))) != 1:
            raise ShapeError("ragged rows")
        if not all(map(isinstance, itertools.chain.from_iterable(rows), itertools.repeat(Scalar))):
            raise DomainError("matrix entries must be Scalars")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: Tuple[int, int]) -> Scalar:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return Vector(self.entries[i])

    def col(self, j: int) -> Vector:
        return Vector(tuple(r[j] for r in self.entries))

    def columns(self) -> List[Vector]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Scalar]]) -> "Matrix":
        return Matrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def from_columns(cols: Sequence[Vector]) -> "Matrix":
        return Matrix(tuple(zip(*(tuple(c) for c in cols))))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product."""
        if self.cols != v.dim:
            raise ShapeError("matrix/vector shape mismatch")
        return Vector(tuple(dot(r, v) for r in self.entries))

    def ghost_surpasses(self, other: "Matrix") -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix shape mismatch")
        pairs = zip(self.entries, other.entries)
        return all(a.ghost_surpasses(b) for ra, rb in pairs for a, b in zip(ra, rb))

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in r) for r in self.entries)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = b.transpose().entries
    return Matrix(tuple(tuple(dot(ra, cb) for cb in bt) for ra in a.entries))


# -- determinants ----------------------------------------------------------


class DetResult(Record):
    """Determinant value plus witness permutations (``perm[i]`` is the
    column of row i).  ``witnesses`` is empty when the value is ``-inf``;
    otherwise it holds one optimal permutation and, exactly when the optimum
    is attained more than once, a second optimal one as tie certificate.
    The value is ghost iff there is a tie or the unique optimum passes
    through a ghost entry."""

    __slots__ = ("value", "witnesses")  # Scalar, frozenset


def det(a: Matrix) -> DetResult:
    """The determinant (permanent) |A| in O(n^3).

    The nu-values, scaled to integers by the LCM of their denominators, are
    the weights of a maximum-weight assignment, found by shortest augmenting
    paths with integer potentials u, v (Kuhn's Hungarian method); a ``-inf``
    entry is an absent edge.  An optimal sigma uses only tight edges
    (w_ij = u_i + v_j), and any other optimal permutation differs from sigma
    by cycles of tight edges, so the optimum is unique iff the digraph
    "row i -> the row sigma assigns column j", over tight (i, j) with
    j != sigma(i), is acyclic (Butkovic, Max-linear Systems, 2010).
    """
    if not a.is_square:
        raise ShapeError("determinant of a non-square matrix")
    return _solve(a)[0]


def _solve(a: Matrix, closure: bool = False) -> Tuple[DetResult, Optional[_Optimum]]:
    """|A|, plus its :class:`_Optimum` when ``closure`` is set and |A| is
    tangible (None otherwise)."""
    scale = math.lcm(*(e.value.denominator for r in a.entries for e in r if e.value is not None))

    def weight(q: Optional[Fraction]) -> Optional[int]:
        return None if q is None else q.numerator * (scale // q.denominator)

    w = [[weight(e.value) for e in r] for r in a.entries]
    found = _assignment(w)
    if found is None:
        return DetResult(ZERO, frozenset()), None
    sigma, u, v = found
    tie = _tie(w, sigma, u, v)
    ghost = tie is not None or any(a.entries[i][j].ghost for i, j in enumerate(sigma))
    total = sum(w[i][j] for i, j in enumerate(sigma))
    witnesses = frozenset({sigma} if tie is None else {sigma, tie})
    opt = _Optimum(a, scale, total, w, sigma, u, v) if closure and not ghost else None
    return DetResult(Scalar(Fraction(total, scale), ghost), witnesses), opt


def _assignment(
    w: List[List[Optional[int]]],
) -> Optional[Tuple[Tuple[int, ...], List[int], List[int]]]:
    """Maximum-weight perfect assignment of the integer weights ``w``
    (``None`` = no edge) as (sigma, u, v) with u_i + v_j >= w_ij on every
    edge and equality on sigma, or None when no perfect assignment exists.

    Rows join one at a time; each grows a Dijkstra tree over the reduced
    costs u_i + v_j - w_ij >= 0 until it reaches a free column, then the
    potentials move by the tree's distances and the path is flipped.
    """
    n = len(w)
    inf = float("inf")
    u = [0] * n
    v = [0] * (n + 1)  # column n is the root of each search
    owner = [-1] * (n + 1)  # row assigned to each column
    for i in range(n):
        owner[n] = i
        j0 = n
        dist = [inf] * (n + 1)
        prev = [n] * (n + 1)
        used = [False] * (n + 1)
        while owner[j0] != -1:
            used[j0] = True
            i0 = owner[j0]
            row, ui = w[i0], u[i0]
            delta, j1 = inf, -1
            for j in range(n):
                if used[j]:
                    continue
                if row[j] is not None:
                    d = ui + v[j] - row[j]
                    if d < dist[j]:
                        dist[j], prev[j] = d, j0
                if dist[j] < delta:
                    delta, j1 = dist[j], j
            if j1 < 0:
                return None  # row i has no augmenting path: Hall's condition fails
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] -= delta
                    v[j] += delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0 != n:
            j1 = prev[j0]
            owner[j0] = owner[j1]
            j0 = j1
    sigma = [0] * n
    for j in range(n):
        sigma[owner[j]] = j
    return tuple(sigma), u, v


def _tie(w: list, sigma: Tuple[int, ...], u: List[int], v: List[int]) -> Optional[Tuple[int, ...]]:
    """A second optimal permutation, or None when sigma is the only one: a
    cycle of tight edges off sigma, rotated into sigma."""
    n = len(sigma)
    owner = {j: i for i, j in enumerate(sigma)}
    succ = [{owner[j] for j in range(n) if j != sigma[i] and w[i][j] == u[i] + v[j]}
            for i in range(n)]
    # Peel off rows with no edge into the rest; every row left has one, so a
    # walk among them closes a cycle.
    alive = set(range(n))
    while True:
        dead = {i for i in alive if not succ[i] & alive}
        if not dead:
            break
        alive -= dead
    if not alive:
        return None
    walk, i = [], min(alive)
    while i not in walk:
        walk.append(i)
        i = min(succ[i] & alive)
    cycle = walk[walk.index(i):]
    tau = list(sigma)
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        tau[x] = sigma[y]
    return tuple(tau)


def minor_grid(a: Matrix, engine: Callable[[Matrix], DetResult]) -> Matrix:
    """The adjoint by definition, one ``engine`` call per minor: entry (i, j)
    is the determinant of the matrix with row j and column i deleted."""
    n, rows = a.rows, a.entries
    if n == 1:
        return Matrix(((ONE,),))

    def minor(j: int, i: int) -> Scalar:
        return engine(Matrix(tuple(r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j))).value

    return Matrix(tuple(tuple(minor(j, i) for j in range(n)) for i in range(n)))


def adjoint(a: Matrix) -> Matrix:
    """Transposed grid of minor determinants; entry (i, j) is the
    determinant of the matrix with row j and column i deleted.  O(n^3) for a
    nonsingular A, the minor grid otherwise."""
    if not a.is_square:
        raise ShapeError("adjoint of a non-square matrix")
    _, o = _solve(a, closure=True)
    return minor_grid(a, det) if o is None else o.pinv(shift=o.total)


class _Optimum:
    """The unique tangible optimum sigma of a nonsingular A, its potentials
    u, v, owner(c) = the row sigma gives column c, and D(r, c) = the cheapest
    path r -> ... -> c over edges r -> owner(c), one per finite (r, c) off
    sigma, of reduced cost u_r + v_c - w_rc >= 0, with D(r, r) = 0.  Every
    cycle costs more than zero, so best walks are best simple paths
    (Butkovic, Max-linear Systems, 2010, 1.6): one Floyd-Warshall pass over
    (cost, ghost) labels, summed as in the semiring (the cheaper wins, a tie
    is ghost).  [x] below is the scalar x / scale, or -inf with no path."""

    def __init__(self, a: Matrix, scale: int, total: int, w: list, sigma: tuple, u: list, v: list):
        n, inf = a.rows, math.inf
        self.scale, self.total, self.u, self.v = scale, total, u, v
        self.owner = owner = {c: r for r, c in enumerate(sigma)}
        self.cost = cost = [[inf] * n for _ in range(n)]
        self.ghost = ghost = [[False] * n for _ in range(n)]
        for r, row in enumerate(w):
            for c, x in enumerate(row):
                if x is not None and c != sigma[r]:
                    cost[r][owner[c]], ghost[r][owner[c]] = u[r] + v[c] - x, a.entries[r][c].ghost
        for k in range(n):
            for cost_i, ghost_i in zip(cost, ghost):
                via = cost_i[k]
                if via == inf:
                    continue
                for j, step in enumerate(cost[k]):
                    d = via + step
                    if d < cost_i[j]:
                        cost_i[j], ghost_i[j] = d, ghost_i[k] or ghost[k][j]
                    elif d == cost_i[j] < inf:
                        ghost_i[j] = True
        for r in range(n):  # after the pass, which would add the empty path to itself, a tie
            cost[r][r], ghost[r][r] = 0, False

    def grid(self, entry: Callable[[int, int], tuple]) -> Matrix:
        """Entry (i, j) is [x - D(r, c)], ghost if forced or the path is,
        for (x, r, c, forced) = entry(i, j)."""
        n = range(len(self.cost))
        return Matrix(tuple(tuple(self.at(*entry(i, j)) for j in n) for i in n))

    def at(self, x: int, r: int, c: int, forced: bool) -> Scalar:
        d = self.cost[r][c]
        if d == math.inf:
            return ZERO
        return Scalar(Fraction(x - d, self.scale), forced or self.ghost[r][c])

    def pinv(self, shift: int = 0, ghost_off_sigma: bool = False) -> Matrix:
        """A^nabla = [-u_j - v_i - D(owner i, j)], or adj(A) = |A| A^nabla
        with ``shift`` = total: an optimum of minor (row j, column i deleted)
        leaves sigma only along a path owner(i) -> ... -> j.
        ``ghost_off_sigma`` makes every entry with sigma(j) != i ghost:
        A^nabla I_A = A^{nabla nabla}."""
        return self.grid(lambda i, j: (
            shift - self.u[j] - self.v[i], self.owner[i], j, ghost_off_sigma and self.owner[i] != j))

    def close(self) -> Matrix:
        """I_A A: a_ij on sigma and [u_i + v_j - D(i, owner j)] ghost off it."""
        return self.grid(lambda i, j: (self.u[i] + self.v[j], i, self.owner[j], i != self.owner[j]))


def _optimum(a: Matrix) -> _Optimum:
    """The optimum of a nonsingular A; ``DomainError`` for any other A."""
    if not a.is_square:
        raise DomainError("pseudo-inverse of a non-square matrix")
    d, o = _solve(a, closure=True)
    if o is None:
        raise DomainError(f"singular matrix: |A| = {d.value}")
    return o


def is_nonsingular(a: Matrix) -> bool:
    return a.is_square and det(a).value.is_tangible


def pseudo_inverse(a: Matrix) -> Matrix:
    """A^nabla = adj(A) / |A|; defined only for nonsingular A."""
    return _optimum(a).pinv()


def quasi_identities(a: Matrix) -> Tuple[Matrix, Matrix]:
    """(I_A, I'_A) = (A A^nabla, A^nabla A), read off one solve: one on the
    diagonal, and off it the ghosts [u_i - u_j - D(i, j)] and
    [v_j - v_i - D(owner i, owner j)]."""
    o = _optimum(a)
    return (o.grid(lambda i, j: (o.u[i] - o.u[j], i, j, i != j)),
            o.grid(lambda i, j: (o.v[j] - o.v[i], o.owner[i], o.owner[j], i != j)))


def is_quasi_identity(m: Matrix) -> bool:
    """Multiplicatively idempotent, determinant one, ghost-surpasses Id."""
    if not m.is_square:
        raise ShapeError("quasi-identity test needs a square matrix")
    return mat_mul(m, m) == m and det(m).value == ONE and m.ghost_surpasses(Matrix.identity(m.rows))


def double_pseudo(a: Matrix) -> Matrix:
    """A^{nabla nabla} = A^nabla A A^nabla, read off one solve: A^nabla with
    every entry (i, j) where sigma(j) != i made ghost."""
    return _optimum(a).pinv(ghost_off_sigma=True)


def close(a: Matrix) -> Matrix:
    """The closed base matrix I_A A, read off one solve: a_ij on sigma and
    [u_i + v_j - D(i, owner j)], ghost, off it."""
    return _optimum(a).close()


def is_closed_base(a: Matrix) -> bool:
    """True iff A is fixed by its own quasi-identity: I_A A = A."""
    return close(a) == a


# -- rank and independence -------------------------------------------------


def _tangible_minor(a: Matrix, k: int) -> bool:
    """Whether some k x k submatrix of A has a tangible determinant."""
    if max(a.rows, a.cols) > RANK_CAP:
        raise CapacityError(f"rank enumeration capped at n = {RANK_CAP}")
    return any(
        det(Matrix(tuple(tuple(a.entries[i][j] for j in ci) for i in ri))).value.is_tangible
        for ri in itertools.combinations(range(a.rows), k)
        for ci in itertools.combinations(range(a.cols), k)
    )


def rank(a: Matrix) -> int:
    """Largest k such that some k x k submatrix has tangible determinant."""
    return next((k for k in range(min(a.rows, a.cols), 0, -1) if _tangible_minor(a, k)), 0)


def independent(vectors: Sequence[Vector]) -> bool:
    """Tropical independence via the rank criterion: the column matrix of
    the k vectors must have rank k, i.e. a tangible k x k minor."""
    k = len(vectors)
    if k == 0:
        return True
    n = vectors[0].dim
    if any(v.dim != n for v in vectors):
        raise ShapeError("vector dimension mismatch")
    if k > n:
        return False
    return _tangible_minor(Matrix.from_columns(vectors), k)


# -- text and JSON I/O -----------------------------------------------------


def _matrix_of_tokens(rows: Sequence[Sequence[str]]) -> Matrix:
    if not rows or not rows[0]:
        raise ParseError("empty matrix")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("ragged matrix rows")
    return Matrix(tuple(tuple(parse_scalar(t) for t in r) for r in rows))


def parse_matrix(text: str) -> Matrix:
    """One row per line, whitespace-separated scalar tokens, '#' comments."""
    lines = (line.split("#", 1)[0].split() for line in text.splitlines())
    return _matrix_of_tokens([tokens for tokens in lines if tokens])


def matrix_to_json(a: Matrix) -> dict:
    return {"rows": [[str(e) for e in r] for r in a.entries]}


def matrix_from_json(obj) -> Matrix:
    """``{"rows": [[token, ...], ...]}``, as text or already decoded; every
    token a scalar string."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed matrix JSON: {exc}") from exc
    rows = obj.get("rows") if isinstance(obj, dict) else None
    if not isinstance(rows, list) or not all(
        isinstance(r, list) and all(isinstance(t, str) for t in r) for r in rows
    ):
        raise ParseError(
            "matrix JSON must be an object whose 'rows' is an array of arrays of scalar strings"
        )
    return _matrix_of_tokens(rows)
