"""Cohomology rings of finite DGAs, with canonical class representatives.

Every degree gets a canonical complement of the boundaries inside the
cocycles: the reduced echelon basis of the cocycles reduced modulo the
boundaries.  It is read off the canonical basis of the cocycles with no
further elimination, as the kernel vectors whose pivots are not boundary
pivots (proved in :meth:`CohomologyRing.part`).  These basis vectors are
cocycles in reduced form, so ``class_of`` is a pure readout and equal
classes always get identical coordinate vectors, independent of which
representative the caller happened to supply.

Each degree's boundaries and canonical basis are computed the first time
something needs them, by :meth:`CohomologyRing.part`.  Each differential
d_k is eliminated at most once, and that one elimination gives the
cocycles of degree k, the boundaries of degree k+1 and the boundary
solves in degree k; the matrix keeps it, and its one solver, itself
(``SparseMatrix.solver``).  A degree with no cochains eliminates nothing.
A base ring computes every degree when it is built, since its dimensions
are read off them.  The ring of a tensor model takes its dimensions from the
Kunneth pairs and its canonical basis from its factors, the cross
products r_i (x) s_j (see :class:`KunnethMap`).  So the square eliminates
d_k only for what a Massey witness needs: the solves in degree k and the
boundaries of degree k+1 that ``class_of`` reduces by.  With the canonical
solve s, ``solve_boundary``, this is one contraction (i, p, h) onto H: i
is the canonical representative, p(x) = class_of(x - s(dx)) and
h(z) = s(z - i p z) on cocycles; ``homotopy`` is h on products of
representatives, the Massey witnesses.  s(0) = 0 in every degree, those
outside 0..N included, so h(1, 1) and h on a product of degree N + 2 or
more are zero.

Products are held as a sparse table of structure constants: one entry per
basis pair, holding the product's nonzero (index, coefficient) pairs.  A
ring forms each entry once per unordered basis pair: an entry whose mirror
is already held is read off it by graded commutativity.  Otherwise a base
ring multiplies its cached basis representatives, and the ring of a
tensor model builds the entry from its factor rings' entries by the Koszul
rule of :class:`masseytc.dga.PairBasis`, shared with the cochain square.
Cup products, cup length, the Kunneth map and zero-divisor computations
all extend that one table bilinearly, on nonzero pairs only.  A
:class:`CohClass`, like a cochain, is a
:class:`~masseytc.linalg.GradedVector` that stores its nonzero pairs, so
a product is formed from its factors' pairs and kept as pairs, and so are
representatives, ``class_of`` readouts, boundary solves and cross
products.  Dense coordinates are built only where a caller reads
``coords``: the fact keys and the ledger's records.

Cup length, zcl and the weighted cat/TC bounds are all the heaviest
nonzero product of chosen classes, found by one search,
:func:`heaviest_chain`: unit weights over the basis of H^+ for the cup
length, unit weights over the bars 1 (x) u - u (x) 1 of the
indecomposables u for zcl (a handful of classes where the zero-divisor
ideal has hundreds of dimensions; the first longest chain of bars is the
zcl witness), and fact weights for the bounds.

Each basis class's name, its rendered representative, is made once per
ring, since a report labels every Massey triple of a scan by the names
of its three basis classes.  The ring likewise keeps each quantity it
derives in a memo of its own: the spans cls * H^k, the Massey
indeterminacies alpha * H + H * gamma built from them, the homotopy and
the cup-length chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dga import DGA, Cochain, PairBasis, tensor
from .linalg import (ONE, ZERO, GradedVector, SparseMatrix, Subspace, _canonical,
                     _check_indices, bilinear, kernel, scalar)


class CohClass(GradedVector):
    """A class of H^k: ``dim`` = dim H^k and its nonzero (index,
    coefficient) pairs over the canonical basis (see
    :class:`~masseytc.linalg.GradedVector`)."""


@dataclass(frozen=True)
class DegreePart:
    """The boundaries and the canonical class basis of one degree, as
    subspaces of that degree's cochains.  A base ring reads the class
    basis off the cocycles, ``kernel(d_k)``; the cocycles are not kept."""

    boundaries: Subspace
    reps: Subspace


_EMPTY = Subspace.zero(0)  # every subspace of a degree with no cochains


class CohomologyRing:
    """H^*(A; Q) of a finite DGA, as explicit exact-arithmetic data.

    The ring of a tensor model A (x) B is built with ``factors``, the rings
    of A and B: its basis is then indexed by ``pairs``, its dimensions are
    the numbers of pairs, its class representatives are the cross products
    of the factors' ones, and its products come from the factors' tables
    (see :class:`KunnethMap`).
    """

    def __init__(self, dga: DGA, factors: tuple = None):
        self.dga = dga
        self.factors = factors
        self._parts = {}
        self._named = {}
        self._names = {}
        self._cup_memo = {}
        self._cup_chain = None
        self._product_spans = {}
        self._indeterminacies = {}
        self._homotopies = {}
        if factors is None:
            self._dims = tuple(self.part(k).reps.dim for k in range(dga.truncation + 1))
        else:
            self.pairs = PairBasis(dga.truncation, factors[0].dims(), factors[1].dims())
            self._dims = tuple(map(self.pairs.dim, range(dga.truncation + 1)))
        self._top = max((k for k, n in enumerate(self._dims) if n), default=0)
        if dga.simply_connected and self.dim(1) != 0:
            raise ValueError(
                f"model {dga.name} is declared simply connected but H^1 has "
                f"dimension {self.dim(1)}")

    def part(self, k: int) -> DegreePart:
        """Boundaries and canonical basis of degree k; computed on first use
        and memoized.  The boundaries are the image of d_(k-1).  A degree
        with no cochains eliminates nothing.  The ring of a tensor model
        takes the cross products of its factors' representatives as its
        basis (see :class:`KunnethMap`).

        A base ring reads its basis off the canonical basis of the cocycles
        Z = ker d_k: it keeps the basis vectors of Z whose pivots are not
        pivots of the boundaries B.  Proof that these are the canonical
        complement, the reduced echelon basis of the cocycles reduced
        modulo B.  The pivots of a subspace are the first nonzero indices
        of its members, so B in Z gives pivots(B) in pivots(Z).  A basis
        vector of Z vanishes at every other pivot of Z, so one whose pivot
        is not in pivots(B) vanishes at every pivot of B and is its own
        reduction modulo B.  There are dim Z - dim B of them, with distinct
        pivots, and reduction modulo B maps Z onto the complement with
        kernel B, so they span it; they are in reduced echelon form, and
        that form is unique.
        """
        hit = self._parts.get(k)
        if hit is None:
            dga = self.dga
            n, dk = dga.dim(k), dga.diff[k]
            if not n:
                hit = self._parts[k] = DegreePart(_EMPTY, _EMPTY)
                return hit
            b = dga.diff[k - 1].solver.image if k > 0 and dga.dim(k - 1) else Subspace.zero(n)
            if any(map(dk.apply, b.nonzero_columns)):
                raise ValueError(f"boundaries escape cocycles in degree {k}; d^2 != 0?")
            if self.factors is None:
                z = kernel(dk)
                bounded = set(b.pivots)
                kept = [i for i, p in enumerate(z.pivots) if p not in bounded]
                cols = z.nonzero_columns
                reps = Subspace(n, SparseMatrix(n, len(kept), tuple(cols[i] for i in kept)),
                                tuple(z.pivots[i] for i in kept))
                hit = DegreePart(b, reps)
            else:
                hit = DegreePart(b, self._cross_reps(k))
            self._parts[k] = hit
        return hit

    def _cross_reps(self, k: int) -> Subspace:
        """The r_i (x) s_j of degree k in pair order, as a subspace whose
        pivot columns are the pairs of the factors' pivots."""
        (ha, hb), cross, n = self.factors, self.dga.pairs.cross, self.dga.dim(k)
        cols = []
        for p, _, _, _ in self.pairs.blocks(k):
            rights = hb.part(k - p).reps.nonzero_columns
            cols += [cross(p, x, k - p, y)
                     for x in ha.part(p).reps.nonzero_columns for y in rights]
        return Subspace(n, SparseMatrix(n, len(cols), tuple(cols)),
                        tuple(col[0][0] for col in cols))

    # ------------------------------------------------------------- basics

    @property
    def truncation(self) -> int:
        return self.dga.truncation

    def dim(self, k: int) -> int:
        dims = self._dims
        return dims[k] if 0 <= k < len(dims) else 0

    def dims(self) -> tuple:
        return self._dims

    def top_nonzero_degree(self) -> int:
        return self._top

    def basis_class(self, k: int, i: int) -> CohClass:
        return CohClass(k, self.dim(k), ((i, ONE),))

    def positive_basis(self) -> list:
        """The basis classes of H^+, in ascending degree and index."""
        return [CohClass(k, n, ((i, ONE),)) for k, n in enumerate(self._dims[1:], 1)
                for i in range(n)]

    def representative(self, cls: CohClass) -> Cochain:
        k = cls.degree
        if not (0 <= k <= self.truncation):
            return Cochain(k, 0, ())
        return Cochain(k, self.dga.dim(k), self.part(k).reps.basis.apply(cls.pairs))

    def class_of(self, x: Cochain) -> CohClass:
        k = x.degree
        if not (0 <= k <= self.truncation):
            return CohClass(k, 0, ())
        dx = self.dga.d(x)
        if not dx.is_zero():
            raise ValueError(
                f"not a cocycle: d({self.dga.render(x)}) = {self.dga.render(dx)}")
        return self._class_of_cocycle(x)

    def _class_of_cocycle(self, x: Cochain) -> CohClass:
        k = x.degree
        part = self.part(k)
        pairs = part.reps.coordinates_of(part.boundaries.reduce_pairs(x.pairs))
        if pairs is None:
            raise ValueError(f"reduced cocycle escaped the class basis in degree {k}")
        return CohClass(k, self.dim(k), pairs)

    def solve_boundary(self, x: Cochain) -> "Cochain | None":
        """s(x): the canonical cochain whose differential is x, or None when
        x is not a boundary.  It reads d_k's own solver, the elimination that
        also gave the cocycles, so each solve costs one reduction.  A zero x
        is the boundary of zero in every degree, those outside 0..N
        included."""
        k = x.degree - 1
        if not (0 <= k <= self.truncation):
            return None if x.pairs else Cochain(k, 0, ())
        pairs = self.dga.diff[k].solver.solve(x.pairs)
        return None if pairs is None else Cochain(k, self.dga.dim(k), pairs)

    def homotopy(self, x: CohClass, y: CohClass) -> Cochain:
        """h(rep x * rep y) = s(rep x * rep y - rep(x*y)), memoized per ordered
        class pair; for x*y = 0, the Massey witness mu of d mu = rep x * rep y."""
        key = (x.degree, x.pairs, y.degree, y.pairs)
        hit = self._homotopies.get(key)
        if hit is None:
            xy, z = self.cup(x, y), self.dga.mul(self.representative(x), self.representative(y))
            hit = self.solve_boundary(z.sub(self.representative(xy)) if xy.pairs else z)
            if hit is None:
                raise ValueError(f"a product less its class is no boundary in degree {z.degree}")
            self._homotopies[key] = hit
        return hit

    def class_name(self, k: int, i: int) -> str:
        """The basis class e_i of H^k as its rendered representative, such
        as ``[x1*x2]``; rendered once per ring and memoized."""
        hit = self._names.get((k, i))
        if hit is None:
            hit = self._names[k, i] = (
                f"[{self.dga.render(self.representative(self.basis_class(k, i)))}]")
        return hit

    def named_class(self, name: str) -> CohClass:
        """Resolve a generator or alias name to its cohomology class.

        Raises ValueError for an unknown name, an alias that is zero as a
        polynomial and so has no degree, a cochain that is not a cocycle,
        or a class above the truncation, whose coordinates the model does
        not know.  Each name is resolved once per ring; a refusal is
        remembered too, and its message is rendered only when it is raised.
        """
        hit = self._lookup(name)
        if not isinstance(hit, CohClass):
            raise ValueError(hit())
        return hit

    def named_classes(self) -> dict:
        """The class of every alias and then every generator name that has
        one, in the presentation's order; refusals are skipped unrendered."""
        p = self.dga.presentation
        if p is None:
            return {}
        names = [a for a, _ in p.aliases] + [g.name for g in p.generators]
        return {name: hit for name in names if isinstance(hit := self._lookup(name), CohClass)}

    def _lookup(self, name: str):
        hit = self._named.get(name)
        if hit is None:
            hit = self._named[name] = self._resolve(name)
        return hit

    def _resolve(self, name: str):
        """The class of a name, or its refusal as a function that renders
        the message."""
        dga = self.dga
        p = dga.presentation
        if p is None:
            return lambda: f"model {dga.name} has no named classes"
        poly = next((poly for alias, poly in p.aliases if alias == name), None)
        if poly is None:
            gens = p.canonical_generators()
            i = next((i for i, g in enumerate(gens) if g.name == name), None)
            if i is None:
                known = [a for a, _ in p.aliases] + [g.name for g in p.generators]
                return lambda: f"unknown class name {name!r}; known: {', '.join(known)}"
            poly = {tuple(1 if j == i else 0 for j in range(len(gens))): ONE}
        if not poly:
            return lambda: f"class {name!r} is zero as a polynomial, so it has no degree"
        x = dga.cochain_from_poly(poly)
        if x.degree > self.truncation:
            return lambda: (f"class {name!r} has degree {x.degree}, above the "
                            f"truncation {self.truncation}")
        dx = dga.d(x)
        if not dx.is_zero():
            return lambda: f"not a cocycle: d({dga.render(x)}) = {dga.render(dx)}"
        return self._class_of_cocycle(x)

    # ------------------------------------------------------------- products

    def cup_basis(self, k1: int, i1: int, k2: int, i2: int) -> tuple:
        """The product of two basis classes as its nonzero (index,
        coefficient) pairs, in index order; memoized.  On a miss, an entry
        already held in the mirrored order gives it by graded
        commutativity, e_i e_j = (-1)^(k1 k2) e_j e_i, which holds on a
        base ring and on a square alike."""
        memo = self._cup_memo
        key = (k1, i1, k2, i2)
        hit = memo.get(key)
        if hit is not None:
            return hit
        deg = k1 + k2
        mirror = memo.get((k2, i2, k1, i1))
        if mirror is not None:
            entry = tuple((idx, -v) for idx, v in mirror) if k1 * k2 % 2 else mirror
        elif self.dim(deg) == 0:
            entry = ()
        elif self.factors is None:
            prod = self.dga.mul(
                Cochain(k1, self.dga.dim(k1), self.part(k1).reps.nonzero_columns[i1]),
                Cochain(k2, self.dga.dim(k2), self.part(k2).reps.nonzero_columns[i2]))
            entry = self.class_of(prod).pairs
        else:
            entry = self.pairs.product(k1, i1, k2, i2, self.factors[0].cup_basis,
                                       self.factors[1].cup_basis)
        memo[key] = entry
        return entry

    def cup(self, c1: CohClass, c2: CohClass) -> CohClass:
        k = c1.degree + c2.degree
        return CohClass(k, self.dim(k), self._cup_nonzero(
            c1.degree, c1.pairs, c2.degree, c2.pairs))

    def _cup_nonzero(self, k1: int, left: tuple, k2: int, right: tuple) -> tuple:
        """The product of two classes given by their nonzero (index,
        coefficient) pairs, as its own nonzero pairs in index order."""
        if not self.dim(k1 + k2):
            return ()
        if len(left) == 1 and len(right) == 1:
            # one table entry, already canonical: scaled once, if at all
            (i, a), (j, b) = left[0], right[0]
            entry = self.cup_basis(k1, i, k2, j)
            ab = a * b
            return entry if ab == 1 else tuple((idx, scalar(ab * v)) for idx, v in entry)
        return bilinear(k1, left, k2, right, self.cup_basis)

    def cup_checked(self, c1: CohClass, c2: CohClass):
        """(product, truncated): the flag marks products the truncation hides.

        A product whose degree exceeds the truncation is reported as zero but
        is not certified by the model; the flag is False when either factor
        is a zero class within the truncation, since then the product
        vanishes for honest reasons (a factor above it is no known zero).
        """
        prod = self.cup(c1, c2)
        truncated = (c1.degree + c2.degree > self.truncation
                     and not any(c.degree <= self.truncation and c.is_zero() for c in (c1, c2)))
        return prod, truncated

    def product_span(self, cls: CohClass, k: int) -> Subspace:
        """Span of cls * H^k in H^(|cls|+k), which by graded commutativity
        is also the span of H^k * cls; memoized per class and degree."""
        key = (cls.degree, cls.pairs, k)
        hit = self._product_spans.get(key)
        if hit is None:
            k1 = cls.degree
            hit = self._product_spans[key] = Subspace._spanned(self.dim(k1 + k), (
                self._cup_nonzero(k1, cls.pairs, k, ((i, ONE),)) for i in range(self.dim(k))))
        return hit

    def indeterminacy(self, alpha: CohClass, gamma: CohClass, q: int) -> Subspace:
        """alpha * H^(q+r-1) + H^(p+q-1) * gamma, the indeterminacy of a
        Massey triple <alpha, beta, gamma> with |beta| = q, inside its target
        degree; memoized per alpha, gamma and q."""
        key = (alpha.degree, alpha.pairs, gamma.degree, gamma.pairs, q)
        hit = self._indeterminacies.get(key)
        if hit is None:
            p, r = alpha.degree, gamma.degree
            hit = self._indeterminacies[key] = self.product_span(alpha, q + r - 1).add(
                self.product_span(gamma, p + q - 1))
        return hit

    # ------------------------------------------------------------ invariants

    def connectivity(self) -> int:
        """Largest r with H^1 = ... = H^r = 0, or 0 without the
        simply-connected declaration (rational models cannot see pi_1)."""
        if not self.dga.simply_connected:
            return 0
        r = 0
        for k in range(1, self.truncation + 1):
            if self.dim(k):
                break
            r = k
        return r

    def cup_length(self) -> int:
        """Longest nonzero product of positive-degree classes, within the
        truncation; a lower bound for the untruncated cup length."""
        return self.cup_chain()[0]

    def cup_chain(self) -> tuple:
        """(cup length, witness chain of classes, their product).

        A unit-weight :func:`heaviest_chain` over the basis classes of H^+,
        so the witness is the first longest chain in ascending basis order.
        The search runs once per ring; the cup length reads the same result.
        """
        if self._cup_chain is None:
            classes = self.positive_basis()
            k, picked, prod = heaviest_chain(self, classes, [1] * len(classes))
            self._cup_chain = (k, tuple(classes[i] for i in picked), prod)
        return self._cup_chain


def heaviest_chain(ring: CohomologyRing, classes: list, weights: list,
                   goal: int = None) -> tuple:
    """Heaviest nonzero product of the given classes, repeats allowed.

    The search multiplies the classes' nonzero pairs and builds a
    :class:`CohClass` only for a new best chain.  Returns (weight, indices,
    product): the chain's total weight, the positions in ``classes`` of its
    factors in ascending order, and their product; the empty chain weighs 0
    and its product is the unit.  Chains are walked depth first in
    ascending list order, and the best chain is replaced only by a strictly
    heavier one, so the first heaviest chain in that order is returned.  A branch is skipped
    when filling every degree left up to the top nonzero degree at the
    largest weight per degree of any class cannot beat the best so far,
    and the walk stops once a chain weighs ``goal``.  Weights are positive.

    ``goal`` must be a ceiling: at least the weight of every nonzero
    chain.  Only then does stopping change nothing, since no later chain
    could be strictly heavier; a lower goal may return a lighter chain.
    """
    if any(c.degree < 1 for c in classes):
        raise ValueError("chain factors need positive degree")
    top = ring.top_nonzero_degree()
    # the largest weight per degree, num / den, compared in integers
    num, den = 0, 1
    for c, w in zip(classes, weights):
        if w * den > num * c.degree:
            num, den = w, c.degree
    # w + (top - d) * num / den <= best, in integers
    best = (0, (), ring.basis_class(0, 0))
    # a frame is [next index, chain, degree, weight, product's nonzero
    # pairs]; the first frame is the empty chain
    stack = [[0, (), 0, 0, None]]
    while stack:
        frame = stack[-1]
        i, chain, deg, weight, left = frame
        if i == len(classes):
            stack.pop()
            continue
        frame[0] = i + 1
        c = classes[i]
        d, w = deg + c.degree, weight + weights[i]
        if d > top or w * den + (top - d) * num <= best[0] * den:
            continue
        if left is None:
            pairs = c.pairs
        else:
            pairs = ring._cup_nonzero(deg, left, c.degree, c.pairs)
        if not pairs:
            continue
        chain += (i,)
        if w > best[0]:
            best = (w, chain, CohClass(d, ring.dim(d), pairs))
            if goal is not None and w >= goal:
                break
        stack.append([i, chain, d, w, pairs])
    return best


# ------------------------------------------------------------------ Kunneth


class KunnethMap:
    """The cross-product isomorphism H(A) (x) H(B) -> H(A (x) B).

    The canonical basis of H(A (x) B) is exactly {r_i (x) s_j}, where r_i
    and s_j are the factors' canonical representatives, in the order of the
    :class:`~masseytc.dga.PairBasis` shared with the cochain square.  So
    the map is the identity on coordinates, the square's dimensions are the
    numbers of pairs, and its structure constants are the factors' ones by
    the Koszul rule of ``PairBasis.product``.  That is how its ring is
    built, so building the map runs no elimination, and
    ``CohomologyRing.part`` relies on this proof for the square: it takes
    the r_i (x) s_j as the canonical basis as they are, and eliminates no
    d_k to find them.

    Proof.  Let v != 0 be a boundary of A (x) B with leading position
    (p, a, b).  Its (p, q) block is X + Y, where the columns of X lie in the
    boundaries B_A and the rows of Y lie in B_B.  The rows before a vanish,
    so either a is a pivot of B_A, or row a is a nonzero element of B_B and
    b is a pivot of B_B.  Canonical representatives vanish at boundary
    pivots, so every r (x) s is zero at (p, a, b).  Hence the r_i (x) s_j
    lie in the canonical complement and are already in reduced echelon form
    in pair order; they span it by a dimension count.  The tests verify
    the statement at the cochain level with ``check_kunneth`` in
    ``tests/oracles.py``, which eliminates every degree of the square
    itself and compares the canonical complement it finds with ``part``.
    """

    def __init__(self, ha: CohomologyRing, hb: CohomologyRing):
        self.ha = ha
        self.hb = hb
        self.ht = CohomologyRing(tensor(ha.dga, hb.dga), (ha, hb))
        self.pairs = self.ht.pairs

    def cross(self, a: CohClass, b: CohClass) -> CohClass:
        k = a.degree + b.degree
        return CohClass(k, self.ht.dim(k), self.pairs.cross(a.degree, a.pairs, b.degree, b.pairs))

    def decompose(self, c: CohClass) -> dict:
        """Write a class of the tensor model as sum of cross products.

        Returns {(p, i, j): coeff} over pairs of factor basis classes.
        """
        return {self.pairs.pair(c.degree, i): v for i, v in c.pairs}

    def diagonal_map(self, c: CohClass) -> CohClass:
        """Multiplication map on a self-tensor: x (x) y -> x cup y, the sum
        of the base ring's table entries e_i cup e_j over the class's pairs
        (p, i, j)."""
        if self.ha is not self.hb:
            raise ValueError("the multiplication map needs both factors to be the same ring")
        k = c.degree
        _check_indices(c.pairs, self.ht.dim(k))
        cup, pair, out = self.ha.cup_basis, self.pairs.pair, {}
        for idx, v in c.pairs:
            p, i, j = pair(k, idx)
            for r, x in cup(p, i, k - p, j):
                out[r] = out.get(r, ZERO) + v * x
        return CohClass(k, self.ha.dim(k), _canonical(out))
