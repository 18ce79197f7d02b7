"""Exact linear algebra over the rationals.

Vectors are tuples of ``Fraction``; matrices are immutable sparse triple
lists.  Everything is deterministic: a subspace is stored in reduced column
echelon form (the pivot of a column is its first nonzero coordinate, pivots
strictly increase left to right, pivot entries are 1 and pivot rows vanish in
every other column).  Two subspaces are equal iff their stored bases are
structurally equal, and coset reduction has one canonical output, which is
what the cohomology and Massey layers rely on.

There is one elimination routine, :func:`_echelon_columns`.  It walks
nonzero entries only, and the reduced echelon basis of a span is unique,
so the order of the operations cannot change a result.  Spans, sums and
images eliminate their columns as they are.  Kernels and solves share
one elimination of a matrix, made on first use and kept with it: the
columns of ``a``, column j tagged by a unit entry at index
``a.rows + a.cols - 1 - j``, past every row index.  A column that depends
on the columns before it reduces to tags only, and since the tags of
later columns come first, its pivot is its own tag: its tags are the
kernel generator with that column 1 and every other dependent column 0.
The other columns keep a pivot below ``a.rows``: their row parts are the
echelon basis of the image, and, as every column vanishes at every other
pivot, their tags are preimages that are zero on the dependent columns.
So the canonical solution of ``a x = b`` is the unique one that is zero
on every column that depends on the columns before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

Vector = tuple  # tuple[Fraction, ...]


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


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
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, tuple((i, i, ONE) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols, ())

    def is_zero(self) -> bool:
        return not self.entries

    @cached_property
    def _tagged(self) -> tuple:
        """This matrix's tagged elimination (see :func:`_tagged_echelon`),
        shared by its kernel and every solver built on it."""
        return _tagged_echelon(self)

    @cached_property
    def _row_dicts(self) -> tuple:
        rows = [dict() for _ in range(self.rows)]
        for r, c, v in self.entries:
            rows[r][c] = v
        return tuple(rows)

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


def _echelon_columns(columns: Iterable):
    """The one elimination routine: reduced column echelon basis of the span
    of sparse columns, each given as {index: nonzero value} or its items.

    Returns the pivots in increasing order and, in the same order, each
    basis column as an {index: nonzero value} dict."""
    column_at = {}  # pivot -> column
    for w in columns:
        w = dict(w)
        # The basis vanishes at every other pivot, so each pivot coordinate
        # of w keeps its value until that pivot's column is subtracted.
        for p, c in [(p, c) for p, c in w.items() if p in column_at]:
            for i, x in column_at[p].items():
                x = w.get(i, ZERO) - c * x
                if x:
                    w[i] = x
                else:
                    del w[i]
        if not w:
            continue
        p = min(w)
        inv = ONE / w[p]
        if inv != 1:
            w = {i: x * inv for i, x in w.items()}
        # back-substitution: clear row p in the other columns
        for col in column_at.values():
            c = col.get(p)
            if c:
                for i, x in w.items():
                    x = col.get(i, ZERO) - c * x
                    if x:
                        col[i] = x
                    else:
                        del col[i]
        column_at[p] = w
    pivots = tuple(sorted(column_at))
    return pivots, [column_at[p] for p in pivots]


def _column_dicts(a: SparseMatrix) -> list:
    cols = [{} for _ in range(a.cols)]
    for r, c, v in a.entries:
        cols[c][r] = v
    return cols


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient with a canonical echelon basis."""

    ambient: int
    basis: SparseMatrix
    pivots: tuple

    @classmethod
    def span(cls, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        columns = []
        for v in vectors:
            if len(v) != ambient:
                raise ValueError(f"vector length {len(v)} != ambient {ambient}")
            columns.append([(i, x) for i, x in enumerate(v) if x])
        return cls._spanned(ambient, columns)

    @classmethod
    def _spanned(cls, ambient: int, columns: Iterable) -> "Subspace":
        """Span of sparse columns (see :func:`_echelon_columns`)."""
        return cls._echelon(ambient, *_echelon_columns(columns))

    @classmethod
    def _echelon(cls, ambient: int, pivots: tuple, cols: list) -> "Subspace":
        entries = sorted((r, c, Fraction(x))
                         for c, col in enumerate(cols) for r, x in col.items())
        return cls(ambient, SparseMatrix(ambient, len(cols), tuple(entries)), pivots)

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
    def nonzero_columns(self) -> tuple:
        """Each basis vector as its nonzero (index, value) pairs, in index
        order."""
        cols = [[] for _ in self.pivots]
        for r, c, x in self.basis.entries:
            cols[c].append((r, x))
        return tuple(tuple(col) for col in cols)

    @cached_property
    def _columns(self) -> list:
        return self.basis.columns()

    def basis_vectors(self) -> list:
        return list(self._columns)

    def _reduced(self, v: Sequence) -> list:
        if len(v) != self.ambient:
            raise ValueError(f"dimension mismatch: ambient {self.ambient}, vector {len(v)}")
        # v's pivot coordinates are the coefficients: the basis vanishes at
        # every other pivot, so subtracting one column leaves them alone.
        w = list(v)
        for p, col in zip(self.pivots, self.nonzero_columns):
            c = v[p]
            if c:
                for i, x in col:
                    w[i] -= c * x
        return w

    def reduce(self, v: Vector) -> Vector:
        """Canonical representative of the coset v + self.

        Linear in v, idempotent, and zero exactly on members.
        """
        return tuple(self._reduced(v))

    def contains(self, v: Vector) -> bool:
        return not any(self._reduced(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        column_at = dict(zip(self.pivots, self.nonzero_columns))
        for col in other.nonzero_columns:
            # as in _reduced, col's pivot coordinates are the coefficients
            w = dict(col)
            for p, c in col:
                for i, x in column_at.get(p, ()):
                    w[i] = w.get(i, ZERO) - c * x
            if any(w.values()):
                return False
        return True

    def add(self, other: "Subspace") -> "Subspace":
        """Subspace sum."""
        if self.ambient != other.ambient:
            raise ValueError(f"ambient mismatch: {self.ambient} != {other.ambient}")
        return Subspace._spanned(self.ambient, self.nonzero_columns + other.nonzero_columns)

    def coordinates_of(self, v: Vector) -> Optional[Vector]:
        """Coefficients of v over the echelon basis, or None if v is outside."""
        if any(self._reduced(v)):
            return None
        return tuple(v[p] for p in self.pivots)


def _tagged_echelon(a: SparseMatrix) -> tuple:
    """Eliminate the columns of ``a``, column j tagged by a unit entry at
    index ``a.rows + a.cols - 1 - j``, and split the echelon basis.

    Returns the image pivots, the image basis columns, their preimages and
    the kernel generators, the last two as {column of a: value} dicts.
    """
    last = a.rows + a.cols - 1
    cols = _column_dicts(a)
    for j, col in enumerate(cols):
        col[last - j] = ONE
    pivots, cols = _echelon_columns(cols)
    images, preimages, kernel_gens = [], [], []
    for p, col in zip(pivots, cols):
        tags = {last - i: x for i, x in col.items() if i >= a.rows}
        if p < a.rows:
            images.append({i: x for i, x in col.items() if i < a.rows})
            preimages.append(tags)
        else:
            kernel_gens.append(tags)
    return pivots[:len(images)], images, preimages, kernel_gens


def kernel(a: SparseMatrix) -> Subspace:
    """Null space of ``a`` as a canonical subspace of Q^cols."""
    return Subspace._spanned(a.cols, a._tagged[3])


def image(a: SparseMatrix) -> Subspace:
    """Column space of ``a`` as a canonical subspace of Q^rows."""
    return Subspace._spanned(a.rows, _column_dicts(a))


def rank(a: SparseMatrix) -> int:
    return len(_echelon_columns(_column_dicts(a))[0])


def solve(a: SparseMatrix, b: Vector) -> Optional[Vector]:
    """Canonical solution of a x = b, or None when inconsistent: the unique
    solution that is zero on every column of ``a`` that depends on the
    columns before it."""
    return PrefactoredSolver(a).solve(b)


class PrefactoredSolver:
    """One elimination of ``a`` shared by many solves against it.

    Keeps ``image``, the canonical basis of the column space of ``a``, and
    for each basis column its preimage, so that each ``solve`` costs one
    reduction against the image.  The elimination is the one
    :func:`kernel` reads for the same matrix.
    """

    def __init__(self, a: SparseMatrix):
        self.cols = a.cols
        pivots, images, self._preimages, _ = a._tagged
        self.image = Subspace._echelon(a.rows, pivots, images)

    def solve(self, b: Sequence) -> Optional[Vector]:
        """Canonical solution of a x = b, or None when inconsistent."""
        coeffs = self.image.coordinates_of(b)
        if coeffs is None:
            return None
        x = [ZERO] * self.cols
        for c, pre in zip(coeffs, self._preimages):
            if c:
                for j, v in pre.items():
                    x[j] += c * v
        return tuple(x)
