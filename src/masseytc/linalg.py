"""Exact linear algebra over the rationals.

A coefficient is a scalar (see :func:`scalar`): an ``int`` when it is
integral and a ``Fraction`` only when it has a denominator, never a float
or a bool, so most arithmetic stays on Python ints.  A vector is held as
its nonzero (index, value) pairs in increasing index order, and a
:class:`GradedVector` (a cochain, a cohomology class) adds its degree and
dimension; a matrix is immutable and holds its nonzero columns in that
form, which the elimination reads and returns.  The product of a matrix
with a vector, the coset reduction and the solves read and return pairs.
The dense forms (``Subspace.reduce``, :func:`solve` and
``GradedVector.coords``) only convert and call them.
Everything is deterministic: a subspace is
stored in reduced column echelon form (the pivot of a column is its first
nonzero coordinate, pivots strictly increase left to right, pivot entries
are 1 and pivot rows vanish in every other column), as the matrix of its
basis.  Two subspaces are equal iff their
stored bases are structurally equal, and coset reduction has one canonical
output, which is what the cohomology and Massey layers rely on.

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
on every column that depends on the columns before it.  The matrix keeps
the one :class:`PrefactoredSolver` built on that elimination too, as
``SparseMatrix.solver``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

ZERO = 0
ONE = 1

Vector = tuple  # tuple of scalars


def scalar(x):
    """The rational ``x`` as a coefficient: an ``int`` when it is integral,
    else a ``Fraction``.  ``x`` is anything ``Fraction(x)`` takes: an int,
    a bool, a Fraction, a float or a string such as ``"3/2"``."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def is_rational(x) -> bool:
    """Whether x may be a coordinate: an int (not a bool) or a Fraction."""
    return type(x) is int or type(x) is Fraction


def inverse(x):
    """The exact reciprocal of a nonzero rational, as a scalar; the one
    division in the package."""
    if type(x) is int and (x == 1 or x == -1):
        return x
    return scalar(1 / Fraction(x))


def sparse(v: Sequence, n: int) -> tuple:
    """The nonzero pairs of a dense vector of length ``n``."""
    if len(v) != n:
        raise ValueError(f"vector length {len(v)} != ambient {n}")
    return tuple((i, scalar(x)) for i, x in enumerate(v) if x)


def dense(n: int, pairs) -> Vector:
    """The dense vector of length ``n`` with these nonzero pairs."""
    out = [ZERO] * n
    for i, x in pairs:
        out[i] = x
    return tuple(out)


def _canonical(sums: dict) -> tuple:
    """The nonzero entries of an {index: value} dict as pairs."""
    return tuple(sorted((i, scalar(x)) for i, x in sums.items() if x))


def _check_indices(pairs, n: int) -> None:
    """Refuse an index outside 0..n-1; as pairs are sorted, two decide."""
    if pairs and not (0 <= pairs[0][0] and pairs[-1][0] < n):
        raise ValueError(f"dimension mismatch: indices {pairs[0][0]}..{pairs[-1][0]} "
                         f"reach outside 0..{n - 1}")


def bilinear(k1: int, left, k2: int, right, entry) -> tuple:
    """The sum of a * b * entry(k1, i, k2, j) over the pairs (i, a) of
    ``left`` and (j, b) of ``right``, where ``entry`` gives a product of
    basis elements as its pairs, or a falsy value for zero."""
    out = {}
    for i, a in left:
        for j, b in right:
            e = entry(k1, i, k2, j)
            if e:
                ab = a * b
                for idx, v in e:
                    out[idx] = out.get(idx, ZERO) + ab * v
    return _canonical(out)


@dataclass(frozen=True)
class GradedVector:
    """A vector of one degree: the degree, ``dim``, the dimension of that
    degree, and the nonzero (index, value) pairs, indices strictly
    increasing and each value a :func:`scalar`, so that equal vectors are
    equal records; ``coords`` is derived from them.  Cochains and
    cohomology classes are subclasses that add nothing, and records of
    different types never compare equal."""

    degree: int
    dim: int
    pairs: tuple

    @cached_property
    def coords(self) -> Vector:
        """The dense coordinates, one per basis element of the degree."""
        return dense(self.dim, self.pairs)

    def is_zero(self) -> bool:
        return not self.pairs

    def scale(self, c):
        c = scalar(c)
        return type(self)(self.degree, self.dim,
                          tuple((i, scalar(c * x)) for i, x in self.pairs) if c else ())

    def add(self, other):
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} != {other.degree}")
        out = dict(self.pairs)
        for i, c in other.pairs:
            out[i] = out.get(i, ZERO) + c
        return type(self)(self.degree, self.dim, _canonical(out))

    def sub(self, other):
        return self.add(other.scale(-1))


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable rows x cols matrix over Q.

    ``nonzero_columns`` holds, for each column, its nonzero (row, value)
    pairs in strictly increasing row order, so structural equality is
    matrix equality.  That is the form :func:`_echelon_columns` reads and
    returns.
    """

    rows: int
    cols: int
    nonzero_columns: tuple  # tuple[tuple[tuple[int, scalar], ...], ...]

    def __post_init__(self):
        if len(self.nonzero_columns) != self.cols:
            raise ValueError(f"{len(self.nonzero_columns)} columns given for {self.cols}")
        for c, col in enumerate(self.nonzero_columns):
            last = -1
            for r, v in col:
                if not 0 <= r < self.rows:
                    raise ValueError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
                if v == 0:
                    raise ValueError(f"explicit zero stored at ({r},{c})")
                if r <= last:
                    raise ValueError(f"rows of column {c} do not strictly increase")
                last = r

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, tuple(((i, ONE),) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols, ((),) * cols)

    def is_zero(self) -> bool:
        return not any(self.nonzero_columns)

    @cached_property
    def _tagged(self) -> tuple:
        """This matrix's tagged elimination (see :func:`_tagged_echelon`),
        shared by its kernel and every solver built on it."""
        return _tagged_echelon(self)

    @cached_property
    def solver(self) -> "PrefactoredSolver":
        """This matrix's one :class:`PrefactoredSolver`: its image and the
        solves against it."""
        return PrefactoredSolver(self)

    def apply(self, x: tuple) -> tuple:
        """Matrix-vector product, x and the result given as pairs: the one
        sparse linear combination of columns."""
        _check_indices(x, self.cols)
        out = {}
        columns = self.nonzero_columns
        for j, c in x:
            for r, v in columns[j]:
                out[r] = out.get(r, ZERO) + c * v
        return _canonical(out)

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other."""
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} != {other.rows}")
        return SparseMatrix(self.rows, other.cols, tuple(map(self.apply, other.nonzero_columns)))


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
                    w[i] = scalar(x)
                else:
                    del w[i]
        if not w:
            continue
        p = min(w)
        inv = inverse(w[p])
        if inv != 1:
            w = {i: scalar(x * inv) for i, x in w.items()}
        # back-substitution: clear row p in the other columns
        for col in column_at.values():
            c = col.get(p)
            if c:
                for i, x in w.items():
                    x = col.get(i, ZERO) - c * x
                    if x:
                        col[i] = scalar(x)
                    else:
                        del col[i]
        column_at[p] = w
    pivots = tuple(sorted(column_at))
    return pivots, [column_at[p] for p in pivots]


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient with a canonical echelon basis."""

    ambient: int
    basis: SparseMatrix
    pivots: tuple

    @classmethod
    def _spanned(cls, ambient: int, columns: Iterable) -> "Subspace":
        """Span of sparse columns (see :func:`_echelon_columns`)."""
        return cls._echelon(ambient, *_echelon_columns(columns))

    @classmethod
    def _echelon(cls, ambient: int, pivots: tuple, cols: list) -> "Subspace":
        return cls(ambient, SparseMatrix(ambient, len(cols), tuple(
            tuple(sorted(col.items())) for col in cols)), pivots)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, SparseMatrix.zero(ambient, 0), ())

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(ambient, SparseMatrix.identity(ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def nonzero_columns(self) -> tuple:
        """Each basis vector as its nonzero (index, value) pairs, in index
        order."""
        return self.basis.nonzero_columns

    @cached_property
    def _column_at(self) -> dict:
        return dict(zip(self.pivots, self.nonzero_columns))

    def reduce_pairs(self, v: tuple) -> tuple:
        """Canonical representative of the coset v + self, v and the result
        given as pairs: the one coset reduction.

        Linear in v, idempotent, and zero exactly on members.
        """
        _check_indices(v, self.ambient)
        # v's pivot coordinates are the coefficients: the basis vanishes at
        # every other pivot, so subtracting one column leaves them alone.
        w = dict(v)
        column_at = self._column_at
        for p, c in v:
            for i, x in column_at.get(p, ()):
                w[i] = w.get(i, ZERO) - c * x
        return _canonical(w)

    def reduce(self, v: Vector) -> Vector:
        """:meth:`reduce_pairs` on a dense vector."""
        return dense(self.ambient, self.reduce_pairs(sparse(v, self.ambient)))

    def add(self, other: "Subspace") -> "Subspace":
        """Subspace sum."""
        if self.ambient != other.ambient:
            raise ValueError(f"ambient mismatch: {self.ambient} != {other.ambient}")
        return Subspace._spanned(self.ambient, self.nonzero_columns + other.nonzero_columns)

    def coordinates_of(self, v: tuple) -> Optional[tuple]:
        """Coefficients of v over the echelon basis, or None if v is
        outside; v and the coefficients are given as pairs."""
        if self.reduce_pairs(v):
            return None
        pivots, column_at = self.pivots, self._column_at
        return tuple((bisect_left(pivots, i), c) for i, c in v if i in column_at)


def _tagged_echelon(a: SparseMatrix) -> tuple:
    """Eliminate the columns of ``a``, column j tagged by a unit entry at
    index ``a.rows + a.cols - 1 - j``, and split the echelon basis.

    Returns the image pivots, the image basis columns as {row: value}
    dicts, their preimages as matrix columns and the kernel generators as
    {column of a: value} dicts.
    """
    last = a.rows + a.cols - 1
    pivots, cols = _echelon_columns(
        col + ((last - j, ONE),) for j, col in enumerate(a.nonzero_columns))
    images, preimages, kernel_gens = [], [], []
    for p, col in zip(pivots, cols):
        tags = {last - i: x for i, x in col.items() if i >= a.rows}
        if p < a.rows:
            images.append({i: x for i, x in col.items() if i < a.rows})
            preimages.append(tuple(sorted(tags.items())))
        else:
            kernel_gens.append(tags)
    return pivots[:len(images)], images, preimages, kernel_gens


def kernel(a: SparseMatrix) -> Subspace:
    """Null space of ``a`` as a canonical subspace of Q^cols; that of a
    zero matrix is the whole space, with no elimination."""
    if a.is_zero():
        return Subspace.full(a.cols)
    return Subspace._spanned(a.cols, a._tagged[3])


def image(a: SparseMatrix) -> Subspace:
    """Column space of ``a`` as a canonical subspace of Q^rows."""
    return Subspace._spanned(a.rows, a.nonzero_columns)


def rank(a: SparseMatrix) -> int:
    return len(_echelon_columns(a.nonzero_columns)[0])


def solve(a: SparseMatrix, b: Vector) -> Optional[Vector]:
    """Canonical solution of a x = b, or None when inconsistent: the unique
    solution that is zero on every column of ``a`` that depends on the
    columns before it.  ``b`` and the solution are dense."""
    x = PrefactoredSolver(a).solve(sparse(b, a.rows))
    return None if x is None else dense(a.cols, x)


class PrefactoredSolver:
    """One elimination of ``a`` shared by many solves against it.

    Keeps ``image``, the canonical basis of the column space of ``a``, and
    the matrix of the preimages of its basis columns, so that each
    ``solve`` costs one reduction against the image and one product.  The
    elimination is the one :func:`kernel` reads for the same matrix, and a
    matrix keeps one solver of its own as ``SparseMatrix.solver``.
    """

    def __init__(self, a: SparseMatrix):
        pivots, images, preimages, _ = a._tagged
        self.image = Subspace._echelon(a.rows, pivots, images)
        self._preimages = SparseMatrix(a.cols, len(preimages), tuple(preimages))

    def solve(self, b: tuple) -> Optional[tuple]:
        """Canonical solution of a x = b, or None when inconsistent; b and
        the solution are given as pairs."""
        coeffs = self.image.coordinates_of(b)
        return None if coeffs is None else self._preimages.apply(coeffs)
