"""Exact linear algebra over the rationals.

Vectors are tuples of ``Fraction``; matrices are immutable sparse triple
lists.  Everything is deterministic: a subspace is stored in reduced column
echelon form (the pivot of a column is its first nonzero coordinate, pivots
strictly increase left to right, pivot entries are 1 and pivot rows vanish in
every other column).  Two subspaces are equal iff their stored bases are
structurally equal, and coset reduction has one canonical output, which is
what the cohomology and Massey layers rely on.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Scalar = Fraction
Vector = tuple  # tuple[Fraction, ...]


def vec(values: Iterable) -> Vector:
    """Coerce an iterable of numbers into an exact rational vector."""
    return tuple(Fraction(x) for x in values)


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def vec_add(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"vector length mismatch: {len(u)} != {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in v)


def is_zero_vec(v: Vector) -> bool:
    return not any(v)


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable rows x cols matrix over Q.

    ``entries`` holds (row, col, value) triples in row-major order with no
    zeros and no duplicates, so structural equality is matrix equality.
    """

    rows: int
    cols: int
    entries: tuple  # tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        last = (-1, -1)
        for r, c, v in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
            if v == 0:
                raise ValueError(f"explicit zero stored at ({r},{c})")
            if (r, c) <= last:
                raise ValueError("entries not in strict row-major order")
            last = (r, c)

    @classmethod
    def from_dict(cls, rows: int, cols: int, data: Mapping) -> "SparseMatrix":
        entries = tuple(
            (r, c, Fraction(v)) for (r, c), v in sorted(data.items()) if v != 0
        )
        return cls(rows, cols, entries)

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence]) -> "SparseMatrix":
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        data = {}
        for r, row in enumerate(rows_data):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for c, x in enumerate(row):
                if x:
                    data[(r, c)] = Fraction(x)
        return cls.from_dict(nrows, ncols, data)

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Vector]) -> "SparseMatrix":
        data = {}
        for c, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError(f"column {c} has length {len(col)}, expected {rows}")
            for r, x in enumerate(col):
                if x:
                    data[(r, c)] = Fraction(x)
        return cls.from_dict(rows, len(columns), data)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, tuple((i, i, ONE) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols, ())

    def is_zero(self) -> bool:
        return not self.entries

    @cached_property
    def _row_dicts(self) -> tuple:
        rows = [dict() for _ in range(self.rows)]
        for r, c, v in self.entries:
            rows[r][c] = v
        return tuple(rows)

    def column(self, j: int) -> Vector:
        col = [ZERO] * self.rows
        for r, c, v in self.entries:
            if c == j:
                col[r] = v
        return tuple(col)

    def columns(self) -> list:
        cols = [[ZERO] * self.rows for _ in range(self.cols)]
        for r, c, v in self.entries:
            cols[c][r] = v
        return [tuple(col) for col in cols]

    def apply(self, x: Vector) -> Vector:
        """Matrix-vector product."""
        if len(x) != self.cols:
            raise ValueError(f"dimension mismatch: matrix has {self.cols} columns, vector has {len(x)}")
        out = [ZERO] * self.rows
        for r, c, v in self.entries:
            xc = x[c]
            if xc:
                out[r] += v * xc
        return tuple(out)

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other."""
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} != {other.rows}")
        data = {}
        rows_of_self = self._row_dicts
        for r2, c2, v2 in other.entries:
            # contribution of other[r2][c2] to column c2 of the product
            for r1 in range(self.rows):
                v1 = rows_of_self[r1].get(r2)
                if v1:
                    key = (r1, c2)
                    data[key] = data.get(key, ZERO) + v1 * v2
        return SparseMatrix.from_dict(self.rows, other.cols, data)


def _reduce_in_place(w: list, basis: Sequence[Sequence], pivots: Sequence[int]) -> None:
    """Eliminate the pivot coordinates of ``w`` against an echelon basis."""
    for col, p in zip(basis, pivots):
        c = w[p]
        if c:
            for i in range(p, len(w)):
                ci = col[i]
                if ci:
                    w[i] -= c * ci


def _echelon_columns(vectors: Iterable[Sequence], ambient: int):
    """Reduced column echelon basis of the span of ``vectors``."""
    basis: list = []
    pivots: list = []
    for v in vectors:
        if len(v) != ambient:
            raise ValueError(f"vector length {len(v)} != ambient {ambient}")
        w = list(v)
        _reduce_in_place(w, basis, pivots)
        p = next((i for i, x in enumerate(w) if x), None)
        if p is None:
            continue
        inv = ONE / w[p]
        w = [x * inv for x in w]
        for col in basis:
            c = col[p]
            if c:
                for i in range(p, ambient):
                    if w[i]:
                        col[i] -= c * w[i]
        at = bisect_left(pivots, p)
        basis.insert(at, w)
        pivots.insert(at, p)
    return [tuple(col) for col in basis], tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient with a canonical echelon basis."""

    ambient: int
    basis: SparseMatrix
    pivots: tuple

    @classmethod
    def span(cls, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        cols, pivots = _echelon_columns(vectors, ambient)
        return cls(ambient, SparseMatrix.from_columns(ambient, cols), pivots)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, SparseMatrix.zero(ambient, 0), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, SparseMatrix.identity(ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    @cached_property
    def _columns(self) -> list:
        return self.basis.columns()

    def basis_vectors(self) -> list:
        return list(self._columns)

    def reduce(self, v: Vector) -> Vector:
        """Canonical representative of the coset v + self.

        Linear in v, idempotent, and zero exactly on members.
        """
        if len(v) != self.ambient:
            raise ValueError(f"dimension mismatch: ambient {self.ambient}, vector {len(v)}")
        w = list(v)
        _reduce_in_place(w, self._columns, self.pivots)
        return tuple(w)

    def contains(self, v: Vector) -> bool:
        return is_zero_vec(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(col) for col in other._columns)

    def add(self, other: "Subspace") -> "Subspace":
        """Subspace sum."""
        if self.ambient != other.ambient:
            raise ValueError(f"ambient mismatch: {self.ambient} != {other.ambient}")
        return Subspace.span(self.ambient, self._columns + other._columns)

    def coordinates_of(self, v: Vector) -> Optional[Vector]:
        """Coefficients of v over the echelon basis, or None if v is outside."""
        w = list(v)
        coeffs = []
        for col, p in zip(self._columns, self.pivots):
            c = w[p]
            coeffs.append(c)
            if c:
                for i in range(p, len(w)):
                    ci = col[i]
                    if ci:
                        w[i] -= c * ci
        if any(w):
            return None
        return tuple(coeffs)


def kernel(a: SparseMatrix) -> Subspace:
    """Null space of ``a`` as a canonical subspace of Q^cols."""
    rows, pivot_cols = _row_reduce(a)
    pivot_of_col = {c: r for r, c in pivot_cols}
    free = [c for c in range(a.cols) if c not in pivot_of_col]
    gens = []
    for f in free:
        x = [ZERO] * a.cols
        x[f] = ONE
        for r, c in pivot_cols:
            coeff = rows[r].get(f)
            if coeff:
                x[c] = -coeff
        gens.append(tuple(x))
    return Subspace.span(a.cols, gens)


def image(a: SparseMatrix) -> Subspace:
    """Column space of ``a`` as a canonical subspace of Q^rows."""
    return Subspace.span(a.rows, a.columns())


def rank(a: SparseMatrix) -> int:
    return len(_row_reduce(a)[1])


def solve(a: SparseMatrix, b: Vector) -> Optional[Vector]:
    """Canonical solution of a x = b, or None when inconsistent.

    Free variables are set to zero under the fixed left-to-right pivoting,
    so the answer is unique and reproducible.
    """
    if len(b) != a.rows:
        raise ValueError(f"dimension mismatch: matrix has {a.rows} rows, rhs has {len(b)}")
    rhs = a.cols  # the right-hand side rides along as one extra column
    rows, pivot_cols = _row_reduce(a, [{rhs: Fraction(v)} if v else {} for v in b])
    used = {r for r, _ in pivot_cols}
    for r in range(a.rows):
        if r not in used and rows[r].get(rhs):
            return None
    x = [ZERO] * a.cols
    for r, c in pivot_cols:
        x[c] = rows[r].get(rhs, ZERO)
    return tuple(x)


class PrefactoredSolver:
    """Shared elimination for many solves against one matrix.

    Row-reduces ``a`` once, remembering the row operations, so that each
    ``solve`` costs a sparse matrix-vector product instead of a fresh
    elimination.  Answers agree with :func:`solve` exactly: both read the
    same reduction, with the identity block here standing in for the
    right-hand side there.
    """

    def __init__(self, a: SparseMatrix):
        self.rows = a.rows
        self.cols = a.cols
        rows, pivot_cols = _row_reduce(a, [{a.cols + r: ONE} for r in range(a.rows)])
        # the identity block, carried through the reduction, is the transform
        self._trans = [{k - a.cols: v for k, v in row.items() if k >= a.cols}
                       for row in rows]
        self._col_of_pivot_row = dict(pivot_cols)

    def solve(self, b: Sequence) -> Optional[Vector]:
        """Canonical solution of a x = b, or None when inconsistent."""
        if len(b) != self.rows:
            raise ValueError(f"dimension mismatch: matrix has {self.rows} rows, rhs has {len(b)}")
        b = [Fraction(v) for v in b]
        x = [ZERO] * self.cols
        for r in range(self.rows):
            tb = ZERO
            for i, v in self._trans[r].items():
                bi = b[i]
                if bi:
                    tb += v * bi
            c = self._col_of_pivot_row.get(r)
            if c is not None:
                x[c] = tb
            elif tb:
                return None
        return tuple(x)


def _row_reduce(a: SparseMatrix, extra: Optional[Sequence[Mapping]] = None):
    """Full row reduction with deterministic pivoting.

    ``extra`` gives each row further entries in columns ``a.cols`` and up
    (a right-hand side, or an identity block that records the row
    operations); they take part in every row operation but never hold a
    pivot.  Pivot choice: scan the columns of ``a`` left to right, take the
    lowest-index unused row with a nonzero coefficient.

    Returns (rows as dicts, [(pivot_row, pivot_col), ...]).
    """
    rows = [dict(d) for d in a._row_dicts]
    if extra is not None:
        for row, more in zip(rows, extra):
            row.update(more)
    pivot_cols = []
    used = set()
    for c in range(a.cols):
        piv = None
        for r in range(a.rows):
            if r not in used and rows[r].get(c):
                piv = r
                break
        if piv is None:
            continue
        used.add(piv)
        pivot_cols.append((piv, c))
        prow = rows[piv]
        inv = ONE / prow[c]
        if inv != 1:
            rows[piv] = prow = {k: v * inv for k, v in prow.items()}
        for r in range(a.rows):
            if r == piv:
                continue
            factor = rows[r].get(c)
            if factor:
                target = rows[r]
                for k, v in prow.items():
                    nv = target.get(k, ZERO) - factor * v
                    if nv:
                        target[k] = nv
                    else:
                        target.pop(k, None)
    return rows, pivot_cols
