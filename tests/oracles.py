"""Reference implementations that only the tests call.

The engine in ``src/`` keeps what its commands, ledger replay and the
benchmark call.  The checks below verify its constructions on instances
and are kept here, next to the tests that use them:

* exact-vector and matrix constructors (``vec``, ``from_coords``,
  ``from_dict``, ``from_rows``, ``from_columns``), subspace conveniences the engine
  does not need (``span`` and ``contains`` on dense vectors,
  ``basis_vectors``, ``contains_subspace``) and the registry names of the
  built-in models;
* ``print_model``, the printer of the model text format, which the parser
  round-trip tests read back;
* ``monomials_of``, a compiled model's monomials per degree read off its
  monomial index; ``differentials_by_recursion``, the recursive compile of
  a model's differentials that the closed form replaced, and
  ``reps_by_reduction``, the class basis found by reducing the kernel
  modulo the boundaries and eliminating again, which reading it off the
  kernel replaced;
* ``axiom_sweep``, the exhaustive check of every DGA axiom within the
  truncation (shape, product indices in range, d^2 = 0, unit, Leibniz,
  graded commutativity, associativity) that ``DGA.validate`` ran before
  it kept d^2 = 0 alone, the one axiom a compiled model can break, and
  ``unit``, the unit cochain it multiplies by;
* ``product_table``, a model's nonzero product entries read through
  ``mult.get``, and ``eager_tensor_tables``, the product table and the
  differentials of a square built in full, the oracle for ``tensor``'s
  lazy tables;
* ``tensor_cochain`` and ``check_kunneth``, the cochain-level check, by
  an elimination of every degree of the square, that each canonical class
  of a square is a cross product of canonical representatives and that
  cochain products follow the Koszul rule;
* ``TuplePairBasis``, the pair layout of a square held as a tuple of every
  pair and a position dict per degree, as the engine once built it: the
  oracle for ``PairBasis``'s block arithmetic;
* ``multiplication``, the multiplication map of a square as one matrix
  per degree, ``zero_divisor_ideal``, its kernel in closed form, and
  ``zcl_by_ideal_search``, which picks the zcl witness by a second chain
  search over the ideal's basis, as the engine did before it kept the
  witness of its search over the bars;
* ``indecomposables_all_pairs``, the indecomposables read off the
  decomposables D^d spanned by every product H^i H^(d-i), as the engine
  found them before it spanned D^d from the indecomposables below d, and
  ``cup_entry_by_hand``, a cup-table entry formed without the ring's
  memo: one cochain product on a base ring, the Koszul rule over the
  factors' hand-formed entries on a square;
* ``scan_all_triples``, the Massey scan that builds a coset for every
  basis triple, undefined ones included, as the engine did before it
  walked the cup table and counted the undefined triples;
* the Massey identity checks (``verify_multi_identities``, the internal and
  external product checks), witness-level values
  (``massey_value_from_witnesses``), the witnesses of a coset
  (``massey_witnesses``: the canonical solves of its defining products,
  formed afresh by ``product_witness`` apart from the ring's homotopy, and
  the value cochain, none of which a coset holds), the annihilators the
  identity checks sample from, and ``verify_external_vanishing``, the
  explicit primitive certifying that a cross-product triple contains zero;
* the contraction's side of the ring: ``projection``, its p(x) =
  class_of(x - s(dx)), and ``m3``, Kadeishvili's triple product built from
  the ring's homotopy h;
* ``fact_from_evidence``, the weight fact that a fact's evidence derives by
  the engine's rule functions, dispatched on the evidence tag apart from
  ``replay_ledger``, and ``assert_sound_facts``, which checks every fact of
  a ledger against it and every TC fact against ker mu.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, Sequence

from masseytc.bounds import (WeightFact, bar, bar_weight, basis_weight, indecomposables,
                             massey_weight, transfer_weight)
from masseytc.cohomology import CohClass, CohomologyRing, KunnethMap, heaviest_chain
from masseytc.dga import DGA, Cochain, Presentation, Violation, mono_mul
from masseytc.linalg import (ONE, ZERO, SparseMatrix, Subspace, Vector, dense, image, kernel,
                             sparse)
from masseytc.massey import MasseyCoset, _value, massey_triple
from masseytc.models import MODEL_SOURCES


# ------------------------------------------------------------ linear algebra


def exact(x):
    """The rational x by the engine's scalar rule, written out apart from
    it: an int when integral, else a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def vec(values: Iterable) -> Vector:
    """Coerce an iterable of numbers into an exact rational vector."""
    return tuple(exact(x) for x in values)


def from_coords(kind, degree: int, coords):
    """The graded vector of type ``kind`` (a Cochain or a CohClass) with
    these dense coordinates in this degree."""
    return kind(degree, len(coords), sparse(coords, len(coords)))


def from_dict(rows: int, cols: int, data: Mapping) -> SparseMatrix:
    """The rows x cols matrix with entry ``data[(r, c)]`` at (r, c); absent
    keys and zero values are zero."""
    columns = [[] for _ in range(cols)]
    for (r, c), v in sorted(data.items()):
        if v:
            columns[c].append((r, exact(v)))
    return SparseMatrix(rows, cols, tuple(map(tuple, columns)))


def from_rows(rows_data: Sequence[Sequence]) -> SparseMatrix:
    nrows = len(rows_data)
    ncols = len(rows_data[0]) if rows_data else 0
    data = {}
    for r, row in enumerate(rows_data):
        if len(row) != ncols:
            raise ValueError("ragged rows")
        for c, x in enumerate(row):
            if x:
                data[(r, c)] = exact(x)
    return from_dict(nrows, ncols, data)


def from_columns(rows: int, columns: Sequence[Vector]) -> SparseMatrix:
    data = {}
    for c, col in enumerate(columns):
        if len(col) != rows:
            raise ValueError(f"column {c} has length {len(col)}, expected {rows}")
        for r, x in enumerate(col):
            if x:
                data[(r, c)] = exact(x)
    return from_dict(rows, len(columns), data)


def span(ambient: int, vectors: Iterable[Sequence]) -> Subspace:
    """The span of dense vectors of length ``ambient``."""
    return Subspace._spanned(ambient, [sparse(v, ambient) for v in vectors])


def basis_vectors(s: Subspace) -> list:
    """The echelon basis of ``s`` as dense vectors."""
    return [dense(s.ambient, col) for col in s.nonzero_columns]


def contains(s: Subspace, v: Sequence) -> bool:
    """Whether the dense vector v lies in ``s``."""
    return not s.reduce_pairs(sparse(v, s.ambient))


def contains_subspace(s: Subspace, other: Subspace) -> bool:
    return not any(map(s.reduce_pairs, other.nonzero_columns))


# ------------------------------------------------------------ models and text


def model_names() -> list:
    return sorted(MODEL_SOURCES)


def _poly_to_dsl(poly, names) -> str:
    if not poly:
        return "0"
    parts = []
    for mono in sorted(poly, reverse=True):
        c = poly[mono]
        factors = []
        for nm, e in zip(names, mono):
            factors.extend([nm] * e)
        body = "*".join(factors)
        mag = abs(c)
        if body and mag == 1:
            piece = body
        elif body:
            piece = f"{mag}*{body}"
        else:
            piece = str(mag)
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {piece}")
    return " ".join(parts)


def print_model(p: Presentation) -> str:
    """Render a presentation back to the text format (round-trips)."""
    names = [g.name for g in p.canonical_generators()]
    lines = [f"algebra {p.name} {{"]
    lines.append("  field Q")
    lines.append(f"  truncate {p.truncation}")
    lines.append(f"  space-dim {p.space_dim}")
    lines.append(f"  simply-connected {'true' if p.simply_connected else 'false'}")
    for g in p.generators:
        lines.append(f"  generator {g.name} degree {g.degree}")
    for g in p.generators:
        poly = p.differentials.get(g.name)
        if poly:
            lines.append(f"  d {g.name} = {_poly_to_dsl(poly, names)}")
    for aname, poly in p.aliases:
        lines.append(f"  alias {aname} = {_poly_to_dsl(poly, names)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------ differentials and classes


def _poly_mul(p, q, odd):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            sm = mono_mul(m1, m2, odd)
            if sm is None:
                continue
            s, m = sm
            out[m] = exact(out.get(m, ZERO) + s * c1 * c2)
    return {m: c for m, c in out.items() if c}


def _poly_add_scaled(target, src, c) -> None:
    for m, v in src.items():
        nv = exact(target.get(m, ZERO) + c * v)
        if nv:
            target[m] = nv
        else:
            target.pop(m, None)


def monomials_of(dga: DGA) -> tuple:
    """The monomials of a compiled model per degree, in basis order: the
    keys of its per-degree monomial index."""
    return tuple(tuple(index) for index in dga.index)


def differentials_by_recursion(dga: DGA) -> tuple:
    """The differentials of a compiled model by the recursion
    d(g * rest) = dg * rest + (-1)^|g| g * d(rest), g the first generator
    of a monomial, with every monomial's polynomial memoized, as the
    compiler once built them: the oracle for its closed form."""
    canon = dga.presentation.canonical_generators()
    degrees = [g.degree for g in canon]
    odd = [d % 2 == 1 for d in degrees]
    dgen = [dga.presentation.differentials.get(g.name, {}) for g in canon]
    memo = {(0,) * len(canon): {}}

    def d_mono(m):
        if m not in memo:
            i = next(idx for idx, e in enumerate(m) if e)
            g_mono = tuple(1 if j == i else 0 for j in range(len(canon)))
            rest = tuple(e - 1 if j == i else e for j, e in enumerate(m))
            out = {}
            _poly_add_scaled(out, _poly_mul(dgen[i], {rest: ONE}, odd), ONE)
            _poly_add_scaled(out, _poly_mul({g_mono: ONE}, d_mono(rest), odd),
                             -ONE if degrees[i] % 2 else ONE)
            memo[m] = out
        return memo[m]

    n, monomials = dga.truncation, monomials_of(dga)
    diff = []
    for k in range(n + 1):
        target = {m: i for i, m in enumerate(monomials[k + 1])} if k < n else {}
        diff.append(SparseMatrix(len(target), len(monomials[k]), tuple(
            tuple(sorted((target[t], c) for t, c in d_mono(m).items() if t in target))
            for m in monomials[k])))
    return tuple(diff)


def reps_by_reduction(ring: CohomologyRing, k: int) -> Subspace:
    """The class basis of degree k of a base ring as the engine once built
    it: every canonical kernel vector of d_k reduced modulo the boundaries,
    then eliminated again."""
    b = ring.part(k).boundaries
    return Subspace._spanned(ring.dga.dim(k), map(b.reduce_pairs,
                                                  kernel(ring.dga.diff[k]).nonzero_columns))


# ------------------------------------------------------------ DGA axioms


def unit(dga: DGA) -> Cochain:
    """The unit 1, the basis cochain of a one-dimensional degree 0."""
    if dga.dim(0) != 1:
        raise ValueError("degree 0 is not one-dimensional")
    return Cochain(0, 1, ((0, ONE),))


def axiom_sweep(dga: DGA) -> list:
    """Check every algebra/complex axiom exhaustively within truncation.

    Returns a list of :class:`Violation`; empty means the tables form a
    genuine (graded-commutative, unital) finite DGA.
    """
    out = []
    n = dga.truncation
    if len(dga.basis) != n + 1 or len(dga.diff) != n + 1:
        out.append(Violation("shape", (), "basis/diff must cover degrees 0..N"))
        return out
    for k in range(n + 1):
        dk = dga.diff[k]
        want_rows = dga.dim(k + 1)
        if dk.cols != dga.dim(k) or dk.rows != want_rows:
            out.append(Violation(
                "shape", (k,),
                f"d_{k} is {dk.rows}x{dk.cols}, expected {want_rows}x{dga.dim(k)}"))
    get, table = dga.mult.get, {}
    for k1 in range(n + 1):
        for k2 in range(n + 1 - k1):
            tdim = dga.dim(k1 + k2)
            for i1 in range(dga.dim(k1)):
                for i2 in range(dga.dim(k2)):
                    key = (k1, i1, k2, i2)
                    entry = table[key] = get(key)
                    for idx, _ in entry or ():
                        if not 0 <= idx < tdim:
                            out.append(Violation(
                                "shape", key,
                                f"product lands at index {idx} outside degree {k1 + k2}"))
    if out:
        return out
    # the axioms multiply through the entries just read, held in a dict
    mul = replace(dga, mult=table).mul

    for k in range(n):
        if not dga.diff[k + 1].compose(dga.diff[k]).is_zero():
            out.append(Violation(
                "d-squared", (k,), f"d_{k + 1} o d_{k} is nonzero"))

    if dga.dim(0) != 1:
        out.append(Violation("unit", (0,), f"degree 0 has dimension {dga.dim(0)}"))
    else:
        one = unit(dga)
        for k in range(n + 1):
            for i in range(dga.dim(k)):
                e = dga.basis_cochain(k, i)
                if mul(one, e) != e or mul(e, one) != e:
                    out.append(Violation(
                        "unit", (k, dga.basis[k][i]), "unit law fails"))

    for k1 in range(n + 1):
        for k2 in range(n + 1 - k1):
            lim = k1 + k2
            for i1 in range(dga.dim(k1)):
                x = dga.basis_cochain(k1, i1)
                dx = dga.d(x)
                sign = -ONE if k1 % 2 else ONE
                for i2 in range(dga.dim(k2)):
                    y = dga.basis_cochain(k2, i2)
                    # Leibniz (only meaningful when the target survives truncation)
                    if lim + 1 <= n:
                        lhs = dga.d(mul(x, y))
                        rhs = mul(dx, y).add(mul(x, dga.d(y)).scale(sign))
                        if lhs != rhs:
                            out.append(Violation(
                                "leibniz", (dga.basis[k1][i1], dga.basis[k2][i2]),
                                f"d(x*y) != dx*y + (-1)^{k1} x*dy"))
                    csign = -ONE if (k1 * k2) % 2 else ONE
                    if mul(x, y) != mul(y, x).scale(csign):
                        out.append(Violation(
                            "commutativity",
                            (dga.basis[k1][i1], dga.basis[k2][i2]),
                            f"x*y != (-1)^({k1}*{k2}) y*x"))

    for k1 in range(n + 1):
        for i1 in range(dga.dim(k1)):
            x = dga.basis_cochain(k1, i1)
            for k2 in range(n + 1 - k1):
                for i2 in range(dga.dim(k2)):
                    y = dga.basis_cochain(k2, i2)
                    xy = mul(x, y)
                    for k3 in range(n + 1 - k1 - k2):
                        for i3 in range(dga.dim(k3)):
                            z = dga.basis_cochain(k3, i3)
                            if mul(xy, z) != mul(x, mul(y, z)):
                                out.append(Violation(
                                    "associativity",
                                    (dga.basis[k1][i1], dga.basis[k2][i2],
                                     dga.basis[k3][i3]),
                                    "(x*y)*z != x*(y*z)"))
    return out


# ------------------------------------------------------- cochains and Kunneth


def tensor_cochain(t: DGA, x: Cochain, y: Cochain) -> Cochain:
    """The pure tensor x (x) y as a cochain of the tensor model ``t``."""
    if t.pairs is None:
        raise ValueError("not a tensor model")
    k = x.degree + y.degree
    return Cochain(k, t.dim(k), t.pairs.cross(x.degree, x.pairs, y.degree, y.pairs))


def product_table(dga: DGA) -> dict:
    """The nonzero entries of a model's product table, read through
    ``mult.get`` key by key over every in-range pair of basis elements."""
    n, get, out = dga.truncation, dga.mult.get, {}
    for n1 in range(n + 1):
        for n2 in range(n + 1 - n1):
            for i1 in range(dga.dim(n1)):
                for i2 in range(dga.dim(n2)):
                    entry = get((n1, i1, n2, i2))
                    if entry:
                        out[n1, i1, n2, i2] = entry
    return out


def eager_tensor_tables(t: DGA) -> tuple:
    """(mult, diff) of a tensor model built entry by entry, in full: the
    oracle for the lazy tables of ``tensor``."""
    (a, b), n, pairs = t.factors, t.truncation, t.pairs
    pair_index = [{tr: i for i, tr in enumerate(ps)} for ps in pairs]
    mult = {}
    for n1 in range(n + 1):
        for n2 in range(n + 1 - n1):
            tindex = pair_index[n1 + n2]
            for i1, (p1, a1, b1) in enumerate(pairs[n1]):
                q1 = n1 - p1
                for i2, (p2, a2, b2) in enumerate(pairs[n2]):
                    q2 = n2 - p2
                    left = a.mult.get((p1, a1, p2, a2))
                    if not left:
                        continue
                    right = b.mult.get((q1, b1, q2, b2))
                    if not right:
                        continue
                    odd = (q1 * p2) % 2
                    entry = []
                    for ia, ca in left:
                        for jb, cb in right:
                            c = exact(ca * cb)
                            entry.append((tindex[(p1 + p2, ia, jb)], -c if odd else c))
                    entry.sort()
                    mult[(n1, i1, n2, i2)] = tuple(entry)
    diff = []
    for deg in range(n + 1):
        data = {}
        tindex = pair_index[deg + 1] if deg + 1 <= n else {}
        for col, (p, i, j) in enumerate(pairs[deg]):
            q = deg - p
            if p + 1 <= a.truncation:
                for r, v in a.diff[p].nonzero_columns[i]:
                    key = (tindex[(p + 1, r, j)], col)
                    data[key] = data.get(key, 0) + v
            sign = -1 if p % 2 else 1
            if q + 1 <= b.truncation:
                for r, v in b.diff[q].nonzero_columns[j]:
                    key = (tindex[(p, i, r)], col)
                    data[key] = data.get(key, 0) + sign * v
        rows = len(pairs[deg + 1]) if deg + 1 <= n else 0
        diff.append(from_dict(rows, len(pairs[deg]), data))
    return mult, tuple(diff)


def zero_class(ring: CohomologyRing, k: int) -> CohClass:
    return CohClass(k, ring.dim(k), ())


def is_canonical(cls: CohClass) -> bool:
    """Whether a class's stored pairs are canonical: indices strictly
    increasing below ``cls.dim``, each coefficient a nonzero rational in
    the engine's scalar form."""
    last = -1
    for i, c in cls.pairs:
        if not (type(i) is int and last < i < cls.dim) or not c or exact(c) != c \
                or type(exact(c)) is not type(c):
            return False
        last = i
    return True


def dense_scale(coords: Vector, c) -> Vector:
    """c times a dense coordinate vector, entry by entry."""
    return tuple(exact(c * x) for x in coords)


def dense_add(a: Vector, b: Vector) -> Vector:
    """The entrywise sum of two dense coordinate vectors of one length."""
    return tuple(exact(x + y) for x, y in zip(a, b, strict=True))


def span_of_products(ring: CohomologyRing, k1: int, sub1: Subspace, k2: int,
                     sub2: Subspace) -> Subspace:
    """Span of the products (subspace of H^k1) * (subspace of H^k2) in
    H^(k1+k2), one cup per pair of basis vectors."""
    return Subspace._spanned(ring.dim(k1 + k2), [
        ring.cup(CohClass(k1, sub1.ambient, a), CohClass(k2, sub2.ambient, b)).pairs
        for a in sub1.nonzero_columns for b in sub2.nonzero_columns])


def indecomposables_all_pairs(ring: CohomologyRing) -> list:
    """The basis classes of each degree d off the pivots of D^d, with D^d
    spanned by every product H^i H^(d-i), 0 < i < d."""
    out, dims = [], ring.dims()
    for d, n in enumerate(dims):
        if not (d and n):
            continue
        dec = Subspace.zero(n)
        for i in range(1, d):
            if dims[i] and dims[d - i]:
                dec = dec.add(span_of_products(ring, i, Subspace.full(dims[i]), d - i,
                                                Subspace.full(dims[d - i])))
        pivots = set(dec.pivots)
        out.extend(ring.basis_class(d, j) for j in range(n) if j not in pivots)
    return out


def cup_entry_by_hand(ring: CohomologyRing, k1: int, i1: int, k2: int, i2: int) -> tuple:
    """``cup_basis(k1, i1, k2, i2)`` formed without any memoized entry: the
    class of the product of the two representatives on a base ring, and
    the Koszul rule over the factors' entries, formed the same way, on a
    square."""
    if not ring.dim(k1 + k2):
        return ()
    if ring.factors is None:
        reps = ring.part(k1).reps.nonzero_columns[i1], ring.part(k2).reps.nonzero_columns[i2]
        return ring.class_of(ring.dga.mul(Cochain(k1, ring.dga.dim(k1), reps[0]),
                                          Cochain(k2, ring.dga.dim(k2), reps[1]))).pairs
    ha, hb = ring.factors
    return ring.pairs.product(k1, i1, k2, i2, partial(cup_entry_by_hand, ha),
                              partial(cup_entry_by_hand, hb))


class TuplePairBasis(tuple):
    """The pairs (p, i, j) of each degree k of A (x) B, ordered by p, i,
    then j, as one tuple per degree, and ``index[k]`` mapping a pair to its
    position: the layout ``PairBasis`` computes by arithmetic, built by
    walking every (k, p)."""

    def __new__(cls, n: int, dim_a, dim_b):
        self = super().__new__(cls, (
            tuple((p, i, j) for p in range(k + 1)
                  for i in range(dim_a(p)) for j in range(dim_b(k - p)))
            for k in range(n + 1)))
        self.index = [{t: i for i, t in enumerate(ps)} for ps in self]
        return self

    def product(self, n1: int, i1: int, n2: int, i2: int, left, right) -> tuple:
        """``PairBasis.product`` by tuple lookups, the Koszul sign written
        out on its own."""
        p1, a1, b1 = self[n1][i1]
        p2, a2, b2 = self[n2][i2]
        q1, q2 = n1 - p1, n2 - p2
        xs = left(p1, a1, p2, a2)
        ys = right(q1, b1, q2, b2) if xs else None
        if not ys:
            return ()
        sign = -1 if (q1 * p2) % 2 else 1
        index = self.index[n1 + n2]
        return tuple(sorted((index[(p1 + p2, ia, jb)], exact(sign * ca * cb))
                            for ia, ca in xs for jb, cb in ys))

    def cross(self, p: int, xs, q: int, ys) -> tuple:
        """``PairBasis.cross`` by tuple lookups."""
        if p + q >= len(self):
            return ()
        index = self.index[p + q]
        return tuple(sorted((index[(p, i, j)], exact(x * y)) for i, x in xs for j, y in ys))


def check_kunneth(kmap: KunnethMap) -> None:
    """Raise unless each canonical class of the square is represented by
    r_i (x) s_j, and the cochain products of these follow the Koszul
    rule, written here on its own, and agree with the table products.

    This eliminates every degree of the square itself: the kernel of d_k,
    the image of d_(k-1) and the canonical complement of the one in the
    other, which must equal the class basis and the boundaries the ring
    holds, since the ring builds its basis from the cross products."""
    ht, t = kmap.ht, kmap.ht.dga
    crosses = []  # per degree, (r_i (x) s_j, r_i, s_j) for each pair
    for deg in range(ht.truncation + 1):
        cocycles = kernel(t.diff[deg])
        boundaries = image(t.diff[deg - 1]) if deg else Subspace.zero(t.dim(0))
        if not contains_subspace(cocycles, boundaries):
            raise ValueError(f"boundaries escape cocycles in degree {deg} of the square")
        canonical = Subspace._spanned(t.dim(deg), map(boundaries.reduce_pairs,
                                                      cocycles.nonzero_columns))
        pairs = kmap.pairs[deg]
        if canonical.dim != len(pairs):
            raise ValueError(
                f"Kunneth dimension mismatch in degree {deg}: "
                f"{len(pairs)} products vs H^{deg} of dimension {canonical.dim}")
        part = ht.part(deg)
        if part.reps != canonical or part.boundaries != boundaries:
            raise ValueError(f"the square's class basis in degree {deg} is not the "
                             "canonical complement of its boundaries")
        crosses.append([(Cochain(deg, t.dim(deg), rep),
                         kmap.ha.representative(kmap.ha.basis_class(p, i)),
                         kmap.hb.representative(kmap.hb.basis_class(deg - p, j)))
                        for rep, (p, i, j) in zip(canonical.nonzero_columns, pairs)])
        for pair, (xy, x, y) in zip(pairs, crosses[deg]):
            if tensor_cochain(t, x, y) != xy:
                raise ValueError(f"class {pair} of the square is not "
                                 "represented by the cross product")
    for k1 in range(ht.truncation + 1):
        for k2 in range(ht.truncation + 1 - k1):
            n = ht.dim(k1 + k2)
            if not n:
                continue
            for i1, (xy1, x1, y1) in enumerate(crosses[k1]):
                for i2, (xy2, x2, y2) in enumerate(crosses[k2]):
                    # (x1 (x) y1)(x2 (x) y2) = (-1)^{|y1||x2|} x1 x2 (x) y1 y2
                    sign = -1 if y1.degree * x2.degree % 2 else 1
                    prod = t.mul(xy1, xy2)
                    table = [ZERO] * n
                    for idx, v in ht.cup_basis(k1, i1, k2, i2):
                        table[idx] = v
                    if prod != tensor_cochain(t, kmap.ha.dga.mul(x1, x2).scale(sign),
                                              kmap.hb.dga.mul(y1, y2)):
                        raise ValueError(f"cochain product breaks the Koszul sign "
                                         f"on ({k1},{i1}) * ({k2},{i2})")
                    if tuple(table) != ht.class_of(prod).coords:
                        raise ValueError(f"table product differs from the cochain "
                                         f"product on ({k1},{i1}) * ({k2},{i2})")


# ------------------------------------------------------- Massey witnesses


def massey_value_from_witnesses(ring: CohomologyRing, alpha: CohClass,
                                beta: CohClass, gamma: CohClass,
                                mu: Cochain, lam: Cochain):
    """Value cochain and class for caller-supplied witnesses.

    The witness equations d mu = a*b and d lam = b*c are verified exactly;
    use this to probe how the coset moves under witness changes.
    """
    dga = ring.dga
    a = ring.representative(alpha)
    b = ring.representative(beta)
    c = ring.representative(gamma)
    if dga.d(mu) != dga.mul(a, b):
        raise ValueError("d mu != a*b")
    if dga.d(lam) != dga.mul(b, c):
        raise ValueError("d lam != b*c")
    sign = 1 if (alpha.degree + 1) % 2 == 0 else -1
    w = dga.mul(a, lam).add(dga.mul(mu, c).scale(sign))
    return w, ring.class_of(w)


def product_witness(ring: CohomologyRing, x: CohClass, y: CohClass) -> Cochain:
    """The canonical solve of d mu = rep x * rep y, formed afresh, as the
    engine found a Massey witness before the ring's homotopy held it."""
    mu = ring.solve_boundary(ring.dga.mul(ring.representative(x), ring.representative(y)))
    if mu is None:
        raise ValueError("rep x * rep y is not a coboundary")
    return mu


def massey_witnesses(coset: MasseyCoset) -> tuple:
    """(mu, lam, w) of a defined triple: the canonical solves of d mu = a*b
    and d lam = b*c, each formed afresh, and the value cochain w built from
    them, whose class is ``coset.value``."""
    ring, alpha, beta, gamma = coset.ring, coset.alpha, coset.beta, coset.gamma
    mu, lam = product_witness(ring, alpha, beta), product_witness(ring, beta, gamma)
    w, _ = massey_value_from_witnesses(ring, alpha, beta, gamma, mu, lam)
    return mu, lam, w


# ---------------------------------------------------------- the contraction


def projection(ring: CohomologyRing, x: Cochain) -> CohClass:
    """p(x) = class_of(x - s(dx)), s the canonical solve: the contraction's
    projection of any cochain onto H (dx is always a boundary)."""
    return ring.class_of(x.sub(ring.solve_boundary(ring.dga.d(x))))


def m3(ring: CohomologyRing, alpha: CohClass, beta: CohClass, gamma: CohClass) -> CohClass:
    """Kadeishvili's m3(a, b, c) = p(a * h(b, c) + (-1)^(|a|+1) h(a, b) * c)
    from the ring's homotopy h, with the engine's value sign."""
    a, c = ring.representative(alpha), ring.representative(gamma)
    return projection(ring, _value(ring.dga, a, ring.homotopy(alpha, beta),
                                   ring.homotopy(beta, gamma), c))


def left_annihilator(ring: CohomologyRing, k: int, cls: CohClass) -> Subspace:
    """Classes xi in H^k with xi * cls = 0 (kernel of cup on the right)."""
    data = {(idx, i): x for i in range(ring.dim(k))
            for idx, x in ring._cup_nonzero(k, [(i, ONE)], cls.degree, cls.pairs)}
    return kernel(from_dict(ring.dim(k + cls.degree), ring.dim(k), data))


def right_annihilator(ring: CohomologyRing, k: int, cls: CohClass) -> Subspace:
    data = {(idx, i): x for i in range(ring.dim(k))
            for idx, x in ring._cup_nonzero(cls.degree, cls.pairs, k, [(i, ONE)])}
    return kernel(from_dict(ring.dim(k + cls.degree), ring.dim(k), data))


def scan_all_triples(ring: CohomologyRing, max_degree: int = None) -> list:
    """All Massey triples of basis classes with target degree within bounds.

    Mirrored triples (<c,b,a> versus <a,b,c>) agree up to sign, so only the
    lexicographically smaller orientation is computed.
    """
    cap = ring.truncation if max_degree is None else min(max_degree, ring.truncation)
    out = []
    basis = {}  # degree -> its basis classes, each built once
    for c in ring.positive_basis():
        basis.setdefault(c.degree, []).append(c)
    for p, ps in basis.items():
        for q, qs in basis.items():
            for r, rs in basis.items():
                if p + q + r - 1 > cap:
                    continue
                for i, a in enumerate(ps):
                    for b in qs:
                        for k, c in enumerate(rs):
                            if (p, i) > (r, k):  # the mirror (r, k, q, j, p, i) is smaller
                                continue
                            out.append(massey_triple(ring, a, b, c))
    return out


# ------------------------------------------------------- identity checking


def verify_multi_identities(ring: CohomologyRing, alpha: CohClass,
                            beta: CohClass, gamma: CohClass, rng) -> dict:
    """Exact identities every triple product must satisfy, as a report.

    Needs a defined instance.  Each entry is True when the identity held
    exactly; scalar moves use random nonzero rationals, the additive moves
    sample perturbations from annihilator subspaces so that the perturbed
    triples stay defined, and the witness shifts confirm that moving mu or
    lam by a cocycle moves the value inside the indeterminacy.
    """
    base = massey_triple(ring, alpha, beta, gamma)
    if not base.defined:
        raise ValueError(f"need a defined product: {base.obstruction}")
    base_mu, base_lam, base_w = massey_witnesses(base)
    p, q, r = alpha.degree, beta.degree, gamma.degree
    report = {}

    def nonzero_scalar():
        s = 0
        while s == 0:
            s = rng.randint(-4, 4)
        return s

    s = nonzero_scalar()
    left = massey_triple(ring, alpha.scale(s), beta, gamma)
    mid = massey_triple(ring, alpha, beta.scale(s), gamma)
    right = massey_triple(ring, alpha, beta, gamma.scale(s))
    report["scalar-left"] = (left.defined and left.value == base.value.scale(s)
                             and left.canonical == base.canonical.scale(s))
    report["scalar-middle"] = mid.defined and mid.value == base.value.scale(s)
    report["scalar-right"] = (right.defined and right.value == base.value.scale(s)
                              and right.canonical == base.canonical.scale(s))

    def random_in(sub: Subspace, degree: int) -> CohClass:
        coords = [0] * sub.ambient
        for v in basis_vectors(sub):
            c = rng.randint(-3, 3)
            if c:
                coords = [x + c * y for x, y in zip(coords, v)]
        return from_coords(CohClass, degree, tuple(coords))

    prime = random_in(left_annihilator(ring, p, beta), p)
    base2 = massey_triple(ring, prime, beta, gamma)
    summed = massey_triple(ring, alpha.add(prime), beta, gamma)
    report["additive-left"] = (
        base2.defined and summed.defined
        and massey_witnesses(summed)[2] == base_w.add(massey_witnesses(base2)[2])
        and summed.value == base.value.add(base2.value))

    gprime = random_in(right_annihilator(ring, r, beta), r)
    base3 = massey_triple(ring, alpha, beta, gprime)
    summed = massey_triple(ring, alpha, beta, gamma.add(gprime))
    report["additive-right"] = (
        base3.defined and summed.defined
        and summed.value == base.value.add(base3.value))

    dga = ring.dga
    sign = 1 if (p + 1) % 2 == 0 else -1
    xi_cls = random_in(Subspace.full(ring.dim(p + q - 1)), p + q - 1)
    xi = ring.representative(xi_cls)
    if p + q - 2 >= 0 and dga.dim(p + q - 2):
        pre = from_coords(Cochain, p + q - 2,
                                  [rng.randint(-2, 2) for _ in range(dga.dim(p + q - 2))])
        xi = xi.add(dga.d(pre))
    w2, val2 = massey_value_from_witnesses(ring, alpha, beta, gamma,
                                           base_mu.add(xi), base_lam)
    c_rep = ring.representative(gamma)
    shift_ok = w2.sub(base_w) == dga.mul(xi, c_rep).scale(sign)
    report["mu-shift"] = (
        shift_ok
        and not base.indeterminacy.reduce_pairs(val2.sub(base.value).pairs)
        and base.indeterminacy.reduce(val2.coords) == base.canonical.coords)

    eta_cls = random_in(Subspace.full(ring.dim(q + r - 1)), q + r - 1)
    eta = ring.representative(eta_cls)
    w3, val3 = massey_value_from_witnesses(ring, alpha, beta, gamma,
                                           base_mu, base_lam.add(eta))
    a_rep = ring.representative(alpha)
    report["lam-shift"] = (
        w3.sub(base_w) == dga.mul(a_rep, eta)
        and not base.indeterminacy.reduce_pairs(val3.sub(base.value).pairs)
        and base.indeterminacy.reduce(val3.coords) == base.canonical.coords)
    return report


def verify_internal_product(ring: CohomologyRing, alpha: CohClass,
                            beta: CohClass, gamma: CohClass,
                            ap: CohClass, bp: CohClass, cp: CohClass) -> dict:
    """Entrywise cup multiplication of a defined triple, as instance checks.

    For a defined <alpha, beta, gamma> and arbitrary classes ap, bp, cp
    whose degrees keep the bigger product inside the truncation, the triple
    of the products must stay defined, the old value times ap*bp*cp must
    land in the bigger coset up to an overall sign, and the old
    indeterminacy times ap*bp*cp must land in the bigger indeterminacy.
    """
    base = massey_triple(ring, alpha, beta, gamma)
    if not base.defined:
        raise ValueError(f"need a defined product: {base.obstruction}")
    big = massey_triple(ring, ring.cup(alpha, ap), ring.cup(beta, bp),
                        ring.cup(gamma, cp))
    report = {"defined": big.defined}
    if not big.defined:
        return report
    extra = ring.cup(ap, ring.cup(bp, cp))
    lhs = ring.cup(base.value, extra)
    ind = big.indeterminacy
    report["value-match"] = (not ind.reduce_pairs(lhs.sub(big.value).pairs)
                             or not ind.reduce_pairs(lhs.add(big.value).pairs))
    moved = span_of_products(ring, base.target_degree, base.indeterminacy, extra.degree,
                             Subspace._spanned(ring.dim(extra.degree), [extra.pairs]))
    report["indeterminacy-carried"] = contains_subspace(ind, moved)
    return report


def verify_external_product(kmap: KunnethMap, a1: CohClass, b1: CohClass,
                            c1: CohClass, a2: CohClass, b2: CohClass,
                            c2: CohClass) -> dict:
    """Cross products of a defined triple with arbitrary second-factor
    classes, as instance checks.

    The crossed triple must stay defined, value x (a2*b2*c2) must land in
    its coset up to an overall sign, and the crossed indeterminacy must be
    carried into the bigger one.
    """
    base = massey_triple(kmap.ha, a1, b1, c1)
    if not base.defined:
        raise ValueError(f"need a defined product: {base.obstruction}")
    big = massey_triple(kmap.ht, kmap.cross(a1, a2), kmap.cross(b1, b2),
                        kmap.cross(c1, c2))
    report = {"defined": big.defined}
    if not big.defined:
        return report
    prod2 = kmap.hb.cup(a2, kmap.hb.cup(b2, c2))
    lhs = kmap.cross(base.value, prod2)
    ind = big.indeterminacy
    report["value-match"] = (not ind.reduce_pairs(lhs.sub(big.value).pairs)
                             or not ind.reduce_pairs(lhs.add(big.value).pairs))
    n = base.indeterminacy.ambient
    crossed = [kmap.cross(CohClass(base.target_degree, n, col), prod2).pairs
               for col in base.indeterminacy.nonzero_columns]
    moved = Subspace._spanned(kmap.ht.dim(big.target_degree), crossed)
    report["indeterminacy-carried"] = contains_subspace(ind, moved)
    return report


# --------------------------------------------------- external vanishing


@dataclass(frozen=True)
class ExternalWitness:
    """Explicit primitive certifying that a cross-product triple vanishes."""

    x: Cochain
    y: Cochain
    z: Cochain
    mu: Cochain
    lam: Cochain
    value_cochain: Cochain
    primitive: Cochain
    coset: MasseyCoset


def verify_external_vanishing(kmap: KunnethMap,
                              a1: CohClass, b1: CohClass, c1: CohClass,
                              a2: CohClass, b2: CohClass, c2: CohClass) -> ExternalWitness:
    """Certify <a1 x a2, b1 x b2, c1 x c2> contains zero in the tensor ring.

    Hypotheses: a1*b1 = 0 on the left factor and b2*c2 = 0 on the right
    factor; anything else is refused.  The certificate is a primitive whose
    differential equals the value cochain built from explicit witnesses

        mu  = mu' (x) (a2*b2)   with d mu'  = (-1)^(|b1||a2|) a1*b1,
        lam = (b1*c1) (x) lam'  with d lam' = (-1)^h b2*c2,
        h = |c1| (|b2| - 1) - |b1|,

    every equation being checked degreewise at cochain level, so a wrong
    sign anywhere fails loudly instead of producing a wrong certificate.
    """
    ha, hb, ht = kmap.ha, kmap.hb, kmap.ht
    if not ha.cup(a1, b1).is_zero():
        raise ValueError("hypothesis fails: a1*b1 != 0 on the left factor")
    if not hb.cup(b2, c2).is_zero():
        raise ValueError("hypothesis fails: b2*c2 != 0 on the right factor")

    da, db, dt = ha.dga, hb.dga, ht.dga
    ra1, rb1, rc1 = (ha.representative(v) for v in (a1, b1, c1))
    ra2, rb2, rc2 = (hb.representative(v) for v in (a2, b2, c2))
    sgn_mu = -1 if (rb1.degree * ra2.degree) % 2 else 1
    h = rc1.degree * (rb2.degree - 1) - rb1.degree
    sgn_lam = -1 if h % 2 else 1

    def boundary_witness(ring: CohomologyRing, rhs: Cochain) -> Cochain:
        if rhs.degree - 1 > ring.truncation:
            return Cochain(rhs.degree - 1, 0, ())  # everything is zero up here
        witness = ring.solve_boundary(rhs)
        if witness is None:
            raise ValueError("witness solve failed although the hypothesis held")
        return witness

    mu1 = boundary_witness(ha, da.mul(ra1, rb1).scale(sgn_mu))
    lam2 = boundary_witness(hb, db.mul(rb2, rc2).scale(sgn_lam))

    x = tensor_cochain(dt, ra1, ra2)
    y = tensor_cochain(dt, rb1, rb2)
    z = tensor_cochain(dt, rc1, rc2)
    mu = tensor_cochain(dt, mu1, db.mul(ra2, rb2))
    lam = tensor_cochain(dt, da.mul(rb1, rc1), lam2)
    if dt.d(mu) != dt.mul(x, y):
        raise ValueError("external witness failed: d mu != x*y")
    if dt.d(lam) != dt.mul(y, z):
        raise ValueError("external witness failed: d lam != y*z")

    sign = 1 if (x.degree + 1) % 2 == 0 else -1
    w = dt.mul(x, lam).add(dt.mul(mu, z).scale(sign))
    sgn_phi = -1 if (rc1.degree * ra2.degree) % 2 else 1
    primitive = tensor_cochain(
        dt, da.mul(mu1, rc1), db.mul(ra2, lam2)).scale(sgn_phi)
    if dt.d(primitive) != w:
        raise ValueError("external witness failed: d(primitive) != value")

    coset = massey_triple(ht, kmap.cross(a1, a2), kmap.cross(b1, b2),
                          kmap.cross(c1, c2))
    if coset.is_nonzero():
        raise ValueError("explicit primitive contradicts the generic coset")
    return ExternalWitness(x, y, z, mu, lam, w, primitive, coset)


# ------------------------------------------------------------ zero-divisors


def multiplication(kmap: KunnethMap, k: int) -> SparseMatrix:
    """The multiplication map H^k(A (x) A) -> H^k(A), x (x) y -> x cup y,
    of a self-tensor as a matrix: column (p, i, j) is e_i cup e_j, read off
    the base ring's product table, as the engine held it per degree before
    ``KunnethMap.diagonal_map`` read the table per pair."""
    cup = kmap.ha.cup_basis
    return SparseMatrix(kmap.ha.dim(k), kmap.ht.dim(k), tuple(
        cup(p, i, k - p, j) for p, _, rows, width in kmap.pairs.blocks(k)
        for i in range(rows) for j in range(width)))


def zero_divisor_ideal(kmap: KunnethMap) -> dict:
    """Kernel of the multiplication map m per positive degree, in closed form.

    Every generator has positive degree, so H^0 = Q*1.  In degree l the
    last m.rows pairs are (l, i, 0), and m is the identity on them, so each
    earlier pair t gives the kernel vector e_t - m(e_t), with m(e_t) placed
    on that last block.
    Proof.  A vector's first nonzero entry is its 1 at t, and it is zero at
    every other earlier pair: the pivots are the earlier pairs and the basis
    is reduced.  m is onto, so these n - m.rows vectors span its kernel.
    Degrees above the base truncation have zero target, so everything up
    there is a zero-divisor; that is the honest answer for the truncated
    ring.
    """
    if kmap.ha is not kmap.hb:
        raise ValueError("zero-divisors need a self-tensor ring")
    if kmap.ha.dim(0) != 1:
        raise ValueError(f"the closed-form zero-divisor ideal needs H^0 = Q, "
                         f"not of dimension {kmap.ha.dim(0)}")
    out = {}
    for ell in range(1, kmap.ht.truncation + 1):
        m = multiplication(kmap, ell)
        s = m.cols - m.rows  # the pairs before the block (ell, i, 0)
        if s:
            cols = tuple(((t, ONE),) + tuple((s + i, -v) for i, v in m.nonzero_columns[t])
                         for t in range(s))
            out[ell] = Subspace(m.cols, SparseMatrix(m.cols, s, cols), tuple(range(s)))
    return out


def zcl_by_ideal_search(kmap: KunnethMap) -> tuple:
    """(zcl, witness, product) by two searches: zcl from the bars of the
    indecomposables, then the witness as the first chain of that length
    among the basis classes of the zero-divisor ideal."""
    bars = [bar(kmap, u) for u in indecomposables(kmap.ha)]
    k = heaviest_chain(kmap.ht, bars, [1] * len(bars))[0]
    ideal = zero_divisor_ideal(kmap)
    basis = [CohClass(d, ideal[d].ambient, col)
             for d in sorted(ideal) for col in ideal[d].nonzero_columns]
    _, picked, prod = heaviest_chain(kmap.ht, basis, [1] * len(basis), goal=k)
    return k, tuple(basis[i] for i in picked), prod


# ------------------------------------------------------------- weight facts


def fact_from_evidence(ring: CohomologyRing, kmap: KunnethMap, facts: dict,
                       fact: WeightFact) -> WeightFact:
    """The fact that ``fact.inputs`` derives by its rule; ``facts`` maps the
    keys of the ledger's facts to them, for a transfer's source."""
    tag, *evidence = fact.inputs
    if tag == "basis":
        return basis_weight(fact.cls)
    if tag == "bar":
        return bar_weight(kmap, *evidence)
    if tag == "massey":
        return massey_weight(massey_triple(ring, *evidence))
    source, k = evidence
    return transfer_weight(ring, kmap, facts[source], k)[0]


def assert_sound_facts(ledger, ring: CohomologyRing, kmap: KunnethMap) -> None:
    """Every TC fact of ``ledger`` is a zero-divisor, and every fact is the
    one its evidence derives."""
    pools = ledger.cat_facts + ledger.tc_facts
    facts = {f.key: f for f in pools}
    for f in ledger.tc_facts:
        assert kmap.diagonal_map(f.cls).is_zero(), f.key
    for f in pools:
        assert fact_from_evidence(ring, kmap, facts, f) == f, f.key


# ------------------------------------------------------------------ reports


def ring_table_all_pairs(ring: CohomologyRing, classes: dict) -> list:
    """The ring table of ``report.cohomology_section`` with every ordered
    pair of named classes multiplied, the mirrored pairs included."""
    table = []
    for left in sorted(classes):
        for right in sorted(classes):
            prod, truncated = ring.cup_checked(classes[left], classes[right])
            table.append({
                "left": left,
                "right": right,
                "degree": classes[left].degree + classes[right].degree,
                "value": None if truncated else [prod.degree, [str(c) for c in prod.coords]],
                "truncated": truncated,
            })
    return table
