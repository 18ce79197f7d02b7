"""Cohomology rings of finite DGAs, with canonical class representatives.

Every degree gets a canonical complement of the boundaries inside the
cocycles: reduce each kernel basis vector modulo the image subspace and
re-echelonize.  The resulting basis vectors are themselves cocycles in
reduced form, so ``class_of`` is a pure readout and equal classes always
get identical coordinate vectors, independent of which representative the
caller happened to supply.

Each degree's cocycles, boundaries and canonical basis are computed the
first time something needs them, by :meth:`CohomologyRing.part`.  Each
differential d_k is eliminated once, and that one elimination gives the
cocycles of degree k, the boundaries of degree k+1 and the boundary
solves in degree k.  A base ring ends up with every degree, since its
dimensions are read off them.  The ring of a tensor model takes its
dimensions from the Kunneth pairs (see :class:`KunnethMap`), so the
square eliminates only in the degrees where a Massey witness or
``class_of`` works with cochains.

Products are held as a sparse table of structure constants: one entry per
basis pair, holding the product's nonzero (index, coefficient) pairs.  A
ring multiplies its cached basis representatives once per entry, and the
ring of a tensor model builds its entries from its factor rings' entries
by the Koszul rule of :class:`masseytc.dga.PairBasis`, shared with the
cochain square.
Cup products, cup length, the Kunneth map and zero-divisor computations
all extend that one table bilinearly, on nonzero pairs only: a product
is formed from its factors' pairs and returned as pairs, and becomes a
dense :class:`CohClass` only where a caller needs one.

Cup length, zcl and the weighted cat/TC bounds are all the heaviest
nonzero product of chosen classes, found by one search,
:func:`heaviest_chain`: unit weights over the basis of H^+ for the cup
length, unit weights over the bars 1 (x) u - u (x) 1 of the
indecomposables u for zcl (a handful of classes where the zero-divisor
ideal has hundreds of dimensions), and fact weights for the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dga import DGA, Cochain, PairBasis, tensor
from .linalg import ONE, ZERO, PrefactoredSolver, SparseMatrix, Subspace, kernel, scalar, zero_vec


@dataclass(frozen=True)
class CohClass:
    """A cohomology class as coordinates over the canonical basis of H^k."""

    degree: int
    coords: tuple

    @cached_property
    def pairs(self) -> tuple:
        """The nonzero (index, coefficient) pairs, in index order."""
        return tuple((i, c) for i, c in enumerate(self.coords) if c)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def scale(self, c) -> "CohClass":
        c = scalar(c)
        return CohClass(self.degree, tuple(scalar(c * x) for x in self.coords))

    def add(self, other: "CohClass") -> "CohClass":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} != {other.degree}")
        return CohClass(self.degree, tuple(scalar(a + b)
                                           for a, b in zip(self.coords, other.coords)))

    def sub(self, other: "CohClass") -> "CohClass":
        return self.add(other.scale(-1))


@dataclass(frozen=True)
class DegreePart:
    """The cocycles, the boundaries and the canonical class basis of one
    degree, all as subspaces of that degree's cochains."""

    cocycles: Subspace
    boundaries: Subspace
    reps: Subspace


class CohomologyRing:
    """H^*(A; Q) of a finite DGA, as explicit exact-arithmetic data.

    The ring of a tensor model A (x) B is built with ``factors``, the rings
    of A and B: its basis is then indexed by ``pairs``, its dimensions are
    the numbers of pairs, and its products come from the factors' tables
    (see :class:`KunnethMap`).
    """

    def __init__(self, dga: DGA, factors: tuple = None):
        self.dga = dga
        self.factors = factors
        self._parts = {}
        self._solvers = {}
        self._named = {}
        self._cup_memo = {}
        self._cup_chain = None
        self._products = {}
        self._multiples = {}
        if factors is not None:
            self.pairs = PairBasis(dga.truncation, factors[0].dim, factors[1].dim)
        if dga.simply_connected and self.dim(1) != 0:
            raise ValueError(
                f"model {dga.name} is declared simply connected but H^1 has "
                f"dimension {self.dim(1)}")

    def part(self, k: int) -> DegreePart:
        """Cocycles, boundaries and canonical basis of degree k; computed on
        first use and memoized."""
        hit = self._parts.get(k)
        if hit is None:
            dga = self.dga
            z = kernel(dga.diff[k])
            b = self._solver(k - 1).image if k > 0 else Subspace.zero(dga.dim(0))
            if not z.contains_subspace(b):
                raise ValueError(f"boundaries escape cocycles in degree {k}; d^2 != 0?")
            reps = Subspace.span(dga.dim(k), [b.reduce(v) for v in z.basis_vectors()])
            hit = self._parts[k] = DegreePart(z, b, reps)
        return hit

    def _solver(self, k: int) -> PrefactoredSolver:
        """The image of d_k and the solves against it, read off the
        elimination of d_k that ``kernel`` made or will make; memoized."""
        hit = self._solvers.get(k)
        if hit is None:
            hit = self._solvers[k] = PrefactoredSolver(self.dga.diff[k])
        return hit

    # ------------------------------------------------------------- basics

    @property
    def truncation(self) -> int:
        return self.dga.truncation

    def dim(self, k: int) -> int:
        if not 0 <= k <= self.truncation:
            return 0
        if self.factors is not None:
            return len(self.pairs[k])
        return self.part(k).reps.dim

    def dims(self) -> tuple:
        return tuple(self.dim(k) for k in range(self.truncation + 1))

    def top_nonzero_degree(self) -> int:
        for k in range(self.truncation, -1, -1):
            if self.dim(k):
                return k
        return 0

    def basis_class(self, k: int, i: int) -> CohClass:
        return self.class_from_pairs(k, [(i, ONE)])

    def class_from_pairs(self, k: int, pairs) -> CohClass:
        """The class of H^k with these nonzero pairs; the rest are ``ZERO``."""
        coords = [ZERO] * self.dim(k)
        for i, c in pairs:
            coords[i] = c
        return CohClass(k, tuple(coords))

    def representative(self, cls: CohClass) -> Cochain:
        if not (0 <= cls.degree <= self.truncation):
            return Cochain(cls.degree, ())
        out = list(zero_vec(self.dga.dim(cls.degree)))
        for c, col in zip(cls.coords, self.part(cls.degree).reps.nonzero_columns):
            if c:
                for i, x in col:
                    out[i] += c * x
        return Cochain(cls.degree, tuple([scalar(x) for x in out]))

    def class_of(self, x: Cochain) -> CohClass:
        k = x.degree
        if not (0 <= k <= self.truncation):
            return CohClass(k, ())
        dx = self.dga.d(x)
        if not dx.is_zero():
            raise ValueError(
                f"not a cocycle: d({self.dga.render(x)}) = {self.dga.render(dx)}")
        part = self.part(k)
        coords = part.reps.coordinates_of(part.boundaries.reduce(x.coords))
        if coords is None:
            raise ValueError(f"reduced cocycle escaped the class basis in degree {k}")
        return CohClass(k, coords)

    def solve_boundary(self, k: int, coords) -> "tuple | None":
        """Canonical cochain in degree k whose differential has the given
        degree-(k+1) coordinates, or None when the target is not a boundary.

        Solves read the elimination of d_k that also gave the cocycles, so
        repeated Massey-style witness solves cost one reduction each.
        """
        if not (0 <= k <= self.truncation):
            return None
        return self._solver(k).solve(coords)

    def class_name(self, k: int, i: int) -> str:
        return f"[{self.dga.render(self.representative(self.basis_class(k, i)))}]"

    def named_class(self, name: str) -> CohClass:
        """Resolve a generator or alias name to its cohomology class.

        Raises ValueError for an unknown name, an alias that is zero as a
        polynomial and so has no degree, a cochain that is not a cocycle,
        or a class above the truncation, whose coordinates the model does
        not know.  Each name is resolved once per ring; a refusal is
        remembered too.
        """
        hit = self._named.get(name)
        if hit is None:
            try:
                hit = self._resolve(name)
            except ValueError as e:
                hit = str(e)
            self._named[name] = hit
        if isinstance(hit, str):
            raise ValueError(hit)
        return hit

    def _resolve(self, name: str) -> CohClass:
        p = self.dga.presentation
        if p is None:
            raise ValueError(f"model {self.dga.name} has no named classes")
        poly = next((poly for alias, poly in p.aliases if alias == name), None)
        if poly is None and name in {g.name for g in p.generators}:
            poly = {tuple(1 if h.name == name else 0
                          for h in p.canonical_generators()): ONE}
        if poly is None:
            known = [a for a, _ in p.aliases] + [g.name for g in p.generators]
            raise ValueError(f"unknown class name {name!r}; known: {', '.join(known)}")
        if not poly:
            raise ValueError(f"class {name!r} is zero as a polynomial, so it has no degree")
        x = self.dga.cochain_from_poly(poly)
        if x.degree > self.truncation:
            raise ValueError(f"class {name!r} has degree {x.degree}, above the "
                             f"truncation {self.truncation}")
        return self.class_of(x)

    # ------------------------------------------------------------- products

    def cup_basis(self, k1: int, i1: int, k2: int, i2: int) -> tuple:
        """The product of two basis classes as its nonzero (index,
        coefficient) pairs, in index order; memoized."""
        key = (k1, i1, k2, i2)
        hit = self._cup_memo.get(key)
        if hit is not None:
            return hit
        deg = k1 + k2
        if self.dim(deg) == 0:
            entry = ()
        elif self.factors is None:
            prod = self.dga.mul(Cochain(k1, self.part(k1).reps.basis_vectors()[i1]),
                                Cochain(k2, self.part(k2).reps.basis_vectors()[i2]))
            entry = tuple((i, c) for i, c in enumerate(self.class_of(prod).coords) if c)
        else:
            entry = self.pairs.product(k1, i1, k2, i2, self.factors[0].cup_basis,
                                       self.factors[1].cup_basis)
        self._cup_memo[key] = entry
        return entry

    def cup(self, c1: CohClass, c2: CohClass) -> CohClass:
        return self.class_from_pairs(c1.degree + c2.degree, self._cup_nonzero(
            c1.degree, c1.pairs, c2.degree, c2.pairs))

    def _cup_nonzero(self, k1: int, left: list, k2: int, right: list) -> list:
        """The product of two classes given by their nonzero (index,
        coefficient) pairs, as its own nonzero pairs in index order."""
        out = {}
        if self.dim(k1 + k2):
            for i1, a in left:
                for i2, b in right:
                    ab = a * b
                    for idx, v in self.cup_basis(k1, i1, k2, i2):
                        out[idx] = out.get(idx, ZERO) + ab * v
        return sorted((idx, scalar(v)) for idx, v in out.items() if v)

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

    def products(self, k1: int, k2: int) -> Subspace:
        """Span of all products H^k1 * H^k2 in H^(k1+k2); memoized."""
        hit = self._products.get((k1, k2))
        if hit is None:
            hit = self._products[(k1, k2)] = self.product_span(
                k1, Subspace.full(self.dim(k1)), k2)
        return hit

    def multiples(self, cls: CohClass, k: int) -> Subspace:
        """Span of cls * H^k in H^(|cls|+k), which by graded commutativity
        is also the span of H^k * cls; memoized per class and degree."""
        key = (cls.degree, cls.coords, k)
        hit = self._multiples.get(key)
        if hit is None:
            hit = self._multiples[key] = self.product_span(
                cls.degree, Subspace.span(self.dim(cls.degree), [cls.coords]), k)
        return hit

    def product_span(self, k1: int, sub: Subspace, k2: int,
                     sub2: Subspace = None) -> Subspace:
        """Span of products (subspace of H^k1) * (subspace of H^k2), the
        second defaulting to all of H^k2; lives inside H^(k1+k2)."""
        rights = ([[(i, ONE)] for i in range(self.dim(k2))] if sub2 is None
                  else sub2.nonzero_columns)
        return Subspace._spanned(self.dim(k1 + k2), (
            self._cup_nonzero(k1, left, k2, r)
            for left in sub.nonzero_columns for r in rights))

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
        return cup_chain(self)[0]


def cup_chain(ring: CohomologyRing) -> tuple:
    """(cup length, witness chain of classes, their product).

    A unit-weight :func:`heaviest_chain` over the basis classes of H^+, so
    the witness is the first longest chain in ascending basis order.  The
    search runs once per ring; the cup length reads the same result.
    """
    if ring._cup_chain is None:
        classes = [ring.basis_class(k, i) for k in range(1, ring.truncation + 1)
                   for i in range(ring.dim(k))]
        k, picked, prod = heaviest_chain(ring, classes, [1] * len(classes))
        ring._cup_chain = (k, tuple(classes[i] for i in picked), prod)
    return ring._cup_chain


def heaviest_chain(ring: CohomologyRing, classes: list, weights: list,
                   goal: int = None) -> tuple:
    """Heaviest nonzero product of the given classes, repeats allowed.

    Returns (weight, indices, product): the chain's total weight, the
    positions in ``classes`` of its factors in ascending order, and their
    product; the empty chain weighs 0 and its product is the unit.  Chains
    are walked depth first in ascending list order, and the best chain is
    replaced only by a strictly heavier one, so the first heaviest chain in
    that order is returned.  A branch is skipped when filling every degree
    left up to the top nonzero degree at the largest weight per degree of
    any class cannot beat the best so far, and the walk stops once a chain
    weighs ``goal``; neither changes the chain returned.  Weights are
    positive.
    """
    if any(c.degree < 1 for c in classes):
        raise ValueError("chain factors need positive degree")
    top = ring.top_nonzero_degree()
    rate = max((Fraction(w, c.degree) for c, w in zip(classes, weights)), default=0)
    # w + (top - d) * rate <= best, in integers
    num, den = rate.numerator, rate.denominator
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
            best = (w, chain, c if left is None else ring.class_from_pairs(d, pairs))
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
    built, so building the map runs no elimination.

    Proof.  Let v != 0 be a boundary of A (x) B with leading position
    (p, a, b).  Its (p, q) block is X + Y, where the columns of X lie in the
    boundaries B_A and the rows of Y lie in B_B.  The rows before a vanish,
    so either a is a pivot of B_A, or row a is a nonzero element of B_B and
    b is a pivot of B_B.  Canonical representatives vanish at boundary
    pivots, so every r (x) s is zero at (p, a, b).  Hence the r_i (x) s_j
    lie in the canonical complement and are already in reduced echelon form
    in pair order; they span it by a dimension count.  The tests verify
    the statement at the cochain level with ``check_kunneth`` in
    ``tests/oracles.py``, which eliminates every degree of the square.
    """

    def __init__(self, ha: CohomologyRing, hb: CohomologyRing):
        self.ha = ha
        self.hb = hb
        self.ht = CohomologyRing(tensor(ha.dga, hb.dga), (ha, hb))
        self.pairs = self.ht.pairs
        self._multiplication = {}

    def cross(self, a: CohClass, b: CohClass) -> CohClass:
        return CohClass(a.degree + b.degree, self.pairs.coords(
            a.degree, a.coords, b.degree, b.coords))

    def decompose(self, c: CohClass) -> dict:
        """Write a class of the tensor model as sum of cross products.

        Returns {(p, i, j): coeff} over pairs of factor basis classes.
        """
        return {pair: v for pair, v in zip(self.pairs[c.degree], c.coords) if v}

    def multiplication(self, k: int) -> SparseMatrix:
        """The multiplication map H^k(A (x) A) -> H^k(A), x (x) y -> x cup y,
        of a self-tensor: column (p, i, j) is e_i cup e_j; memoized."""
        if self.ha is not self.hb:
            raise ValueError("the multiplication map needs both factors to be the same ring")
        hit = self._multiplication.get(k)
        if hit is None:
            ha = self.ha
            hit = self._multiplication[k] = SparseMatrix(ha.dim(k), self.ht.dim(k), tuple(
                ha.cup_basis(p, i, k - p, j) for p, i, j in self.pairs[k]))
        return hit

    def diagonal_map(self, c: CohClass) -> CohClass:
        """Multiplication map on a self-tensor: x (x) y -> x cup y."""
        return CohClass(c.degree, self.multiplication(c.degree).apply(c.coords))
