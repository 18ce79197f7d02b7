"""Cohomology rings of finite DGAs, with canonical class representatives.

Every degree gets a canonical complement of the boundaries inside the
cocycles: reduce each kernel basis vector modulo the image subspace and
re-echelonize.  The resulting basis vectors are themselves cocycles in
reduced form, so ``class_of`` is a pure readout and equal classes always
get identical coordinate vectors, independent of which representative the
caller happened to supply.

Products are computed on representatives and memoized per basis pair; the
bilinear extension makes cup products, cup length, Kunneth comparisons and
zero-divisor computations share one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dga import DGA, Cochain, tensor_cochain
from .linalg import (ONE, ZERO, PrefactoredSolver, SparseMatrix, Subspace,
                     image, kernel, rank, zero_vec)


@dataclass(frozen=True)
class CohClass:
    """A cohomology class as coordinates over the canonical basis of H^k."""

    degree: int
    coords: tuple

    def is_zero(self) -> bool:
        return not any(self.coords)

    def scale(self, c) -> "CohClass":
        c = Fraction(c)
        return CohClass(self.degree, tuple(c * x for x in self.coords))

    def add(self, other: "CohClass") -> "CohClass":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} != {other.degree}")
        return CohClass(self.degree, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def sub(self, other: "CohClass") -> "CohClass":
        return self.add(other.scale(-1))


class CohomologyRing:
    """H^*(A; Q) of a finite DGA, as explicit exact-arithmetic data."""

    def __init__(self, dga: DGA):
        self.dga = dga
        n = dga.truncation
        self.cocycles = []
        self.boundaries = []
        self.reps = []
        for k in range(n + 1):
            z = kernel(dga.diff[k])
            b = image(dga.diff[k - 1]) if k > 0 else Subspace.zero(dga.dim(0))
            if not z.contains_subspace(b):
                raise ValueError(f"boundaries escape cocycles in degree {k}; d^2 != 0?")
            reduced = [b.reduce(v) for v in z.basis_vectors()]
            self.cocycles.append(z)
            self.boundaries.append(b)
            self.reps.append(Subspace.span(dga.dim(k), reduced))
        self.cocycles = tuple(self.cocycles)
        self.boundaries = tuple(self.boundaries)
        self.reps = tuple(self.reps)
        if dga.simply_connected and self.dim(1) != 0:
            raise ValueError(
                f"model {dga.name} is declared simply connected but H^1 has "
                f"dimension {self.dim(1)}")
        self._cup_memo = {}
        self._cup_length = None
        self._boundary_solvers = {}

    # ------------------------------------------------------------- basics

    @property
    def truncation(self) -> int:
        return self.dga.truncation

    def dim(self, k: int) -> int:
        if 0 <= k <= self.truncation:
            return self.reps[k].dim
        return 0

    def dims(self) -> tuple:
        return tuple(self.dim(k) for k in range(self.truncation + 1))

    def top_nonzero_degree(self) -> int:
        for k in range(self.truncation, -1, -1):
            if self.dim(k):
                return k
        return 0

    def zero_class(self, k: int) -> CohClass:
        return CohClass(k, zero_vec(self.dim(k)))

    def basis_class(self, k: int, i: int) -> CohClass:
        coords = [ZERO] * self.dim(k)
        coords[i] = ONE
        return CohClass(k, tuple(coords))

    def classes(self, k: int) -> list:
        return [self.basis_class(k, i) for i in range(self.dim(k))]

    def representative(self, cls: CohClass) -> Cochain:
        if not (0 <= cls.degree <= self.truncation):
            return Cochain(cls.degree, ())
        vecs = self.reps[cls.degree].basis_vectors()
        out = list(zero_vec(self.dga.dim(cls.degree)))
        for c, v in zip(cls.coords, vecs):
            if c:
                for i, x in enumerate(v):
                    out[i] += c * x
        return Cochain(cls.degree, tuple(out))

    def class_of(self, x: Cochain) -> CohClass:
        k = x.degree
        if not (0 <= k <= self.truncation):
            return CohClass(k, ())
        dx = self.dga.d(x)
        if not dx.is_zero():
            raise ValueError(
                f"not a cocycle: d({self.dga.render(x)}) = {self.dga.render(dx)}")
        reduced = self.boundaries[k].reduce(x.coords)
        coords = self.reps[k].coordinates_of(reduced)
        if coords is None:
            raise ValueError(f"reduced cocycle escaped the class basis in degree {k}")
        return CohClass(k, coords)

    def solve_boundary(self, k: int, coords) -> "tuple | None":
        """Canonical cochain in degree k whose differential has the given
        degree-(k+1) coordinates, or None when the target is not a boundary.

        The elimination for each degree is factored once and reused, which
        keeps repeated Massey-style witness solves cheap.
        """
        if not (0 <= k <= self.truncation):
            return None
        solver = self._boundary_solvers.get(k)
        if solver is None:
            solver = PrefactoredSolver(self.dga.diff[k])
            self._boundary_solvers[k] = solver
        return solver.solve(coords)

    def class_name(self, k: int, i: int) -> str:
        return f"[{self.dga.render(self.representative(self.basis_class(k, i)))}]"

    def named_class(self, name: str) -> CohClass:
        """Resolve a generator or alias name to its cohomology class."""
        p = self.dga.presentation
        if p is None:
            raise ValueError(f"model {self.dga.name} has no named classes")
        for aname, poly in p.aliases:
            if aname == name:
                return self.class_of(self.dga.cochain_from_poly(poly))
        for g in p.generators:
            if g.name == name:
                mono = tuple(1 if h.name == name else 0
                             for h in p.canonical_generators())
                return self.class_of(self.dga.cochain_from_poly({mono: ONE}))
        known = [a for a, _ in p.aliases] + [g.name for g in p.generators]
        raise ValueError(f"unknown class name {name!r}; known: {', '.join(known)}")

    # ------------------------------------------------------------- products

    def cup_basis(self, k1: int, i1: int, k2: int, i2: int) -> tuple:
        """Coordinates of the product of two basis classes; memoized."""
        key = (k1, i1, k2, i2)
        hit = self._cup_memo.get(key)
        if hit is not None:
            return hit
        deg = k1 + k2
        if deg > self.truncation or self.dim(deg) == 0:
            coords = zero_vec(self.dim(deg))
        else:
            prod = self.dga.mul(self.representative(self.basis_class(k1, i1)),
                                self.representative(self.basis_class(k2, i2)))
            coords = self.class_of(prod).coords
        self._cup_memo[key] = coords
        return coords

    def cup(self, c1: CohClass, c2: CohClass) -> CohClass:
        deg = c1.degree + c2.degree
        out = list(zero_vec(self.dim(deg)))
        for i1, a in enumerate(c1.coords):
            if not a:
                continue
            for i2, b in enumerate(c2.coords):
                if not b:
                    continue
                ab = a * b
                for idx, v in enumerate(self.cup_basis(c1.degree, i1, c2.degree, i2)):
                    if v:
                        out[idx] += ab * v
        return CohClass(deg, tuple(out))

    def cup_checked(self, c1: CohClass, c2: CohClass):
        """(product, truncated): the flag marks products the truncation hides.

        A product whose degree exceeds the truncation is reported as zero but
        is not certified by the model; the flag is False when either factor
        is already zero, since then the product vanishes for honest reasons.
        """
        prod = self.cup(c1, c2)
        truncated = (c1.degree + c2.degree > self.truncation
                     and not c1.is_zero() and not c2.is_zero())
        return prod, truncated

    def product_span(self, k1: int, sub: Subspace, k2: int,
                     sub2: Subspace = None) -> Subspace:
        """Span of products (subspace of H^k1) * (subspace of H^k2), the
        second defaulting to all of H^k2; lives inside H^(k1+k2)."""
        deg = k1 + k2
        rights = (sub2.basis_vectors() if sub2 is not None
                  else [self.basis_class(k2, j).coords for j in range(self.dim(k2))])
        vectors = []
        for w in sub.basis_vectors():
            for r in rights:
                out = list(zero_vec(self.dim(deg)))
                for i, c in enumerate(w):
                    if not c:
                        continue
                    for j, e in enumerate(r):
                        if not e:
                            continue
                        ce = c * e
                        for idx, v in enumerate(self.cup_basis(k1, i, k2, j)):
                            if v:
                                out[idx] += ce * v
                if any(out):
                    vectors.append(tuple(out))
        return Subspace.span(self.dim(deg), vectors)

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
        if self._cup_length is None:
            self._cup_length = ideal_powers_length(
                self, {k: Subspace.full(self.dim(k))
                       for k in range(1, self.truncation + 1) if self.dim(k)})
        return self._cup_length


def ideal_powers_length(ring: CohomologyRing, ideal: dict) -> int:
    """Largest k with (span of k-fold products of the ideal) nonzero.

    ``ideal`` maps degrees to subspaces of the ring; the cup length is the
    case of the whole positive part.
    """
    degs = sorted(d for d, s in ideal.items() if s.dim)
    if not degs:
        return 0
    current = {d: ideal[d] for d in degs}
    k = 1
    while True:
        nxt = {}
        for d1, sub in sorted(current.items()):
            for d2 in degs:
                d = d1 + d2
                if d > ring.truncation:
                    continue
                prod = ring.product_span(d1, sub, d2, ideal[d2])
                if prod.dim:
                    acc = nxt.get(d)
                    nxt[d] = prod if acc is None else acc.add(prod)
        if not nxt:
            return k
        current = nxt
        k += 1


# ------------------------------------------------------------------ Kunneth


class KunnethMap:
    """The cross-product isomorphism H(A) (x) H(B) -> H(A (x) B).

    Built on a tensor model whose factors are exactly the rings' models.
    ``check`` certifies both that the map is a degreewise isomorphism and
    that it is a ring map for the sign-twisted product on the source.
    """

    def __init__(self, ha: CohomologyRing, hb: CohomologyRing, ht: CohomologyRing):
        t = ht.dga
        if t.factors is None or t.factors[0] is not ha.dga or t.factors[1] is not hb.dga:
            raise ValueError("tensor model does not match the factor rings")
        self.ha = ha
        self.hb = hb
        self.ht = ht
        self.pairs = []
        self._matrices = []
        for deg in range(ht.truncation + 1):
            ps = []
            for p in range(deg + 1):
                q = deg - p
                for i in range(ha.dim(p)):
                    for j in range(hb.dim(q)):
                        ps.append((p, i, j))
            self.pairs.append(tuple(ps))
            cols = []
            for (p, i, j) in ps:
                cols.append(self.cross(ha.basis_class(p, i),
                                       hb.basis_class(deg - p, j)).coords)
            self._matrices.append(SparseMatrix.from_columns(ht.dim(deg), cols))
        self._solvers = {}

    def cross(self, a: CohClass, b: CohClass) -> CohClass:
        x = self.ha.representative(a)
        y = self.hb.representative(b)
        return self.ht.class_of(tensor_cochain(self.ht.dga, x, y))

    def check(self) -> None:
        """Raise unless the cross map is a degreewise ring isomorphism."""
        for deg in range(self.ht.truncation + 1):
            m = self._matrices[deg]
            if m.cols != self.ht.dim(deg):
                raise ValueError(
                    f"Kunneth dimension mismatch in degree {deg}: "
                    f"{m.cols} products vs H^{deg} of dimension {self.ht.dim(deg)}")
            if rank(m) != m.cols:
                raise ValueError(f"cross map is singular in degree {deg}")
        # multiplicativity with the Koszul-twisted source product,
        # (x1 x y1)(x2 x y2) = (-1)^{|y1||x2|} (x1 x2) x (y1 y2)
        for deg1 in range(self.ht.truncation + 1):
            for (p1, i1, j1) in self.pairs[deg1]:
                q1 = deg1 - p1
                x1 = self.ha.basis_class(p1, i1)
                y1 = self.hb.basis_class(q1, j1)
                left1 = self.cross(x1, y1)
                for deg2 in range(self.ht.truncation + 1 - deg1):
                    for (p2, i2, j2) in self.pairs[deg2]:
                        q2 = deg2 - p2
                        x2 = self.ha.basis_class(p2, i2)
                        y2 = self.hb.basis_class(q2, j2)
                        lhs = self.ht.cup(left1, self.cross(x2, y2))
                        sign = -1 if (q1 * p2) % 2 else 1
                        rhs = self.cross(self.ha.cup(x1, x2),
                                         self.hb.cup(y1, y2)).scale(sign)
                        if lhs != rhs:
                            raise ValueError(
                                f"cross map is not multiplicative on "
                                f"({p1},{i1})x({q1},{j1}) * ({p2},{i2})x({q2},{j2})")

    def decompose(self, c: CohClass) -> dict:
        """Write a class of the tensor model as sum of cross products.

        Returns {(p, i, j): coeff} over pairs of factor basis classes.  The
        elimination for each degree is factored once and reused.
        """
        solver = self._solvers.get(c.degree)
        if solver is None:
            solver = PrefactoredSolver(self._matrices[c.degree])
            self._solvers[c.degree] = solver
        coeffs = solver.solve(c.coords)
        if coeffs is None:
            raise ValueError(f"class escapes the Kunneth image in degree {c.degree}")
        return {pair: v for pair, v in zip(self.pairs[c.degree], coeffs) if v}

    def diagonal_map(self, c: CohClass) -> CohClass:
        """Multiplication map on a self-tensor: x (x) y -> x cup y."""
        if self.ha is not self.hb:
            raise ValueError("diagonal map needs both factors to be the same ring")
        out = self.ha.zero_class(c.degree)
        for (p, i, j), v in sorted(self.decompose(c).items()):
            out = out.add(self.ha.cup(self.ha.basis_class(p, i),
                                      self.ha.basis_class(c.degree - p, j)).scale(v))
        return out
