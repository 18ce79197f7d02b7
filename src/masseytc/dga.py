"""Finite differential graded algebras over Q with explicit tables.

A model is given by free graded-commutative generators with polynomial
differentials, truncated at a degree N: every product or differential that
would land strictly above N is literally zero.  That keeps the compiled
object a genuine finite DGA (d^2 = 0 and Leibniz hold degreewise because the
discarded terms all sit above N), at the price of junk cohomology classes
near the truncation edge; callers track the honest dimension of the space
separately via ``space_dim``.

Monomial conventions: generators are ordered by (degree, name); a monomial
is an exponent tuple over that order (odd generators square to zero); within
a degree, monomials are listed in descending lexicographic order of their
exponent tuples, so e.g. the degree-8 basis of a model with generators
a3, b3, z5 reads (a*z, b*z).  Signs are pure Koszul: reordering x past y
costs (-1)^{|x||y|}.

A :class:`Cochain` is a :class:`~masseytc.linalg.GradedVector`: its degree,
the dimension of that degree and its nonzero (index, coefficient) pairs.
Products, differentials, rendering and cochains of polynomials all read
and return those pairs; ``DGA.cochain`` builds one from dense coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .linalg import ONE, ZERO, GradedVector, SparseMatrix, bilinear, scalar

Monomial = tuple  # exponent tuple over the canonical generator order
Polynomial = dict  # Monomial -> scalar (see linalg.scalar), no zero values


class PresentationError(ValueError):
    """A presentation violates its contract (degrees, homogeneity, d^2)."""


class Generator(NamedTuple):
    name: str
    degree: int


@dataclass(frozen=True)
class Presentation:
    """Free graded-commutative generators with polynomial differentials.

    ``differentials`` and ``aliases`` hold polynomials keyed by exponent
    tuples over the canonical generator order (sorted by degree then name);
    use :func:`normalize_presentation` / the DSL parser to build one.
    """

    name: str
    generators: tuple  # tuple[Generator, ...] in declaration order
    differentials: Mapping  # generator name -> Polynomial (canonical order)
    truncation: int
    space_dim: int
    simply_connected: bool = False
    aliases: tuple = ()  # tuple[(alias_name, Polynomial), ...]

    def canonical_generators(self) -> tuple:
        return tuple(sorted(self.generators, key=lambda g: (g.degree, g.name)))


# ---------------------------------------------------------------- monomials


def mono_degree(m: Monomial, degrees: Sequence[int]) -> int:
    return sum(e * d for e, d in zip(m, degrees))


def mono_mul(m1: Monomial, m2: Monomial, odd: Sequence[bool]):
    """Product of two canonical monomials: (sign, monomial) or None.

    None means an odd generator got squared.  The sign counts transpositions
    of odd factors of m2 moving left past odd factors of m1.
    """
    swaps = 0
    count_after = 0  # odd factors of m1 strictly to the right of the cursor
    for pos in range(len(m1) - 1, -1, -1):
        if odd[pos]:
            e1, e2 = m1[pos], m2[pos]
            if e1 and e2:
                return None
            if e2:
                swaps += count_after
            if e1:
                count_after += 1
    sign = -ONE if swaps % 2 else ONE
    return sign, tuple(map(add, m1, m2))


def poly_add_scaled(target: Polynomial, src: Polynomial, c) -> None:
    if not c:
        return
    for m, v in src.items():
        nv = target.get(m, ZERO) + c * v
        if nv:
            target[m] = scalar(nv)
        else:
            target.pop(m, None)


def poly_mul(p: Polynomial, q: Polynomial, odd: Sequence[bool]) -> Polynomial:
    out: Polynomial = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            sm = mono_mul(m1, m2, odd)
            if sm is None:
                continue
            s, m = sm
            nv = out.get(m, ZERO) + s * c1 * c2
            if nv:
                out[m] = scalar(nv)
            else:
                out.pop(m, None)
    return out


def mono_name(m: Monomial, names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------- the DGA


class Cochain(GradedVector):
    """A cochain of degree k: ``dim`` = dim C^k and its nonzero (index,
    coefficient) pairs over the basis of C^k (see
    :class:`~masseytc.linalg.GradedVector`)."""


@dataclass(frozen=True)
class Violation:
    axiom: str       # "shape" | "d-squared" | "leibniz" | "associativity" | "unit" | "commutativity"
    location: tuple  # degrees/indices/names identifying the offending tuple
    message: str


@dataclass(frozen=True, eq=False)
class DGA:
    """A finite DGA given by basis names, multiplication table, differentials.

    ``mult`` maps (deg1, idx1, deg2, idx2) to a sparse vector
    ((idx, coeff), ...) in degree deg1+deg2; absent keys mean zero, and every
    pair whose degrees sum past the truncation is absent by construction.
    ``diff[k]`` is the matrix of d : C^k -> C^{k+1} (the top one has 0 rows).
    Either table may be a lazy read-only view that computes an entry or a
    degree the first time it is read: the product table of
    :func:`compile_cdga` and :func:`tensor` is one, and so are the
    differentials of :func:`tensor`; absent keys still mean zero.
    Instances are immutable; build them with
    :func:`compile_cdga`, :func:`tensor`, or directly from tables in tests.
    """

    name: str
    truncation: int
    basis: tuple  # tuple[tuple[str, ...], ...] indexed by degree 0..N
    mult: Mapping
    diff: Sequence  # SparseMatrix per degree 0..N
    simply_connected: bool = False
    space_dim: Optional[int] = None
    presentation: Optional[Presentation] = None
    monomials: Optional[tuple] = None  # per-degree Monomial tuples (compiled models)
    pairs: Optional[tuple] = None      # PairBasis (tensor models)
    factors: Optional[tuple] = None    # (A, B) for tensor models

    def dim(self, k: int) -> int:
        if 0 <= k <= self.truncation:
            return len(self.basis[k])
        return 0

    def total_dim(self) -> int:
        return sum(len(b) for b in self.basis)

    def zero_cochain(self, degree: int) -> Cochain:
        return Cochain(degree, self.dim(degree), ())

    def cochain(self, degree: int, coords: Iterable) -> Cochain:
        """The cochain with these dense coordinates."""
        coords = tuple(coords)
        if len(coords) != self.dim(degree):
            raise ValueError(
                f"degree {degree} has dimension {self.dim(degree)}, got {len(coords)} coordinates")
        return Cochain.from_coords(degree, coords)

    def basis_cochain(self, degree: int, idx: int) -> Cochain:
        if not 0 <= idx < self.dim(degree):
            raise IndexError(f"degree {degree} has no basis element {idx}")
        return Cochain(degree, self.dim(degree), ((idx, ONE),))

    def unit(self) -> Cochain:
        if self.dim(0) != 1:
            raise ValueError("degree 0 is not one-dimensional")
        return Cochain(0, 1, ((0, ONE),))

    def mul(self, x: Cochain, y: Cochain) -> Cochain:
        """Product of two cochains; zero above the truncation degree."""
        deg = x.degree + y.degree
        n = self.dim(deg)
        get = self.mult.get
        return Cochain(deg, n, bilinear(x.degree, x.pairs, y.degree, y.pairs,
                                        lambda *key: get(key)) if n else ())

    def d(self, x: Cochain) -> Cochain:
        k = x.degree
        if not (0 <= k <= self.truncation):
            return Cochain(k + 1, 0, ())
        return Cochain(k + 1, self.dim(k + 1), self.diff[k].apply(x.pairs))

    def cochain_from_poly(self, poly: Polynomial) -> Cochain:
        """Cochain of a homogeneous polynomial (compiled models only)."""
        if self.monomials is None:
            raise ValueError("not a compiled monomial model")
        if not poly:
            raise ValueError("zero polynomial has no degree; use zero_cochain")
        gens = self.presentation.canonical_generators()
        degrees = [g.degree for g in gens]
        degs = {mono_degree(m, degrees) for m in poly}
        if len(degs) > 1:
            raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
        k = degs.pop()
        if k > self.truncation:
            return Cochain(k, 0, ())
        index = {m: i for i, m in enumerate(self.monomials[k])}
        return Cochain(k, self.dim(k), tuple(sorted((index[m], c) for m, c in poly.items())))

    def render(self, x: Cochain) -> str:
        """Human-readable form of a cochain over the named basis."""
        parts = []
        for i, c in x.pairs:
            name = self.basis[x.degree][i]
            if c == 1:
                parts.append(f"+ {name}" if parts else name)
            elif c == -1:
                parts.append(f"- {name}" if parts else f"-{name}")
            else:
                mag = abs(c)
                if parts:
                    parts.append(f"{'+' if c > 0 else '-'} {mag}*{name}")
                else:
                    parts.append(f"{c}*{name}" if c > 0 else f"-{mag}*{name}")
        return " ".join(parts) if parts else "0"

    # ---------------------------------------------------------- validation

    def validate(self) -> list:
        """Check every algebra/complex axiom exhaustively within truncation.

        Returns a list of :class:`Violation`; empty means the tables form a
        genuine (graded-commutative, unital) finite DGA.
        """
        out = []
        n = self.truncation
        if len(self.basis) != n + 1 or len(self.diff) != n + 1:
            out.append(Violation("shape", (), "basis/diff must cover degrees 0..N"))
            return out
        for k in range(n + 1):
            dk = self.diff[k]
            want_rows = self.dim(k + 1)
            if dk.cols != self.dim(k) or dk.rows != want_rows:
                out.append(Violation(
                    "shape", (k,),
                    f"d_{k} is {dk.rows}x{dk.cols}, expected {want_rows}x{self.dim(k)}"))
        for key, entry in self.mult.items():
            k1, i1, k2, i2 = key
            tdeg = k1 + k2
            if tdeg > n:
                out.append(Violation("shape", key, f"product stored above truncation {n}"))
                continue
            if not (0 <= i1 < self.dim(k1) and 0 <= i2 < self.dim(k2)):
                out.append(Violation("shape", key, "basis index out of range"))
                continue
            for idx, _ in entry:
                if not (0 <= idx < self.dim(tdeg)):
                    out.append(Violation(
                        "shape", key, f"product lands at index {idx} outside degree {tdeg}"))
        if out:
            return out

        for k in range(n):
            if not self.diff[k + 1].compose(self.diff[k]).is_zero():
                out.append(Violation(
                    "d-squared", (k,), f"d_{k + 1} o d_{k} is nonzero"))

        if self.dim(0) != 1:
            out.append(Violation("unit", (0,), f"degree 0 has dimension {self.dim(0)}"))
        else:
            one = self.unit()
            for k in range(n + 1):
                for i in range(self.dim(k)):
                    e = self.basis_cochain(k, i)
                    if self.mul(one, e) != e or self.mul(e, one) != e:
                        out.append(Violation(
                            "unit", (k, self.basis[k][i]), "unit law fails"))

        for k1 in range(n + 1):
            for k2 in range(n + 1 - k1):
                lim = k1 + k2
                for i1 in range(self.dim(k1)):
                    x = self.basis_cochain(k1, i1)
                    dx = self.d(x)
                    sign = -ONE if k1 % 2 else ONE
                    for i2 in range(self.dim(k2)):
                        y = self.basis_cochain(k2, i2)
                        # Leibniz (only meaningful when the target survives truncation)
                        if lim + 1 <= n:
                            lhs = self.d(self.mul(x, y))
                            rhs = self.mul(dx, y).add(self.mul(x, self.d(y)).scale(sign))
                            if lhs != rhs:
                                out.append(Violation(
                                    "leibniz", (self.basis[k1][i1], self.basis[k2][i2]),
                                    f"d(x*y) != dx*y + (-1)^{k1} x*dy"))
                        csign = -ONE if (k1 * k2) % 2 else ONE
                        if self.mul(x, y) != self.mul(y, x).scale(csign):
                            out.append(Violation(
                                "commutativity",
                                (self.basis[k1][i1], self.basis[k2][i2]),
                                f"x*y != (-1)^({k1}*{k2}) y*x"))

        for k1 in range(n + 1):
            for i1 in range(self.dim(k1)):
                x = self.basis_cochain(k1, i1)
                for k2 in range(n + 1 - k1):
                    for i2 in range(self.dim(k2)):
                        y = self.basis_cochain(k2, i2)
                        xy = self.mul(x, y)
                        for k3 in range(n + 1 - k1 - k2):
                            for i3 in range(self.dim(k3)):
                                z = self.basis_cochain(k3, i3)
                                if self.mul(xy, z) != self.mul(x, self.mul(y, z)):
                                    out.append(Violation(
                                        "associativity",
                                        (self.basis[k1][i1], self.basis[k2][i2],
                                         self.basis[k3][i3]),
                                        "(x*y)*z != x*(y*z)"))
        return out


# ---------------------------------------------------------------- compile


def normalize_presentation(
    name: str,
    generators: Sequence[Generator],
    diff_terms: Mapping,
    truncation: int,
    space_dim: Optional[int] = None,
    simply_connected: bool = False,
    alias_terms: Sequence = (),
) -> Presentation:
    """Build a Presentation from symbolic term lists.

    ``diff_terms`` maps a generator name to a list of (coeff, [factor names]);
    ``alias_terms`` is a list of (alias, same term shape).  Terms are
    normalized into canonical-order monomials with Koszul signs, and
    homogeneity of each differential (degree |g|+1) is enforced here.
    """
    seen = set()
    for g in generators:
        if g.name in seen:
            raise PresentationError(f"duplicate generator {g.name}")
        seen.add(g.name)
        if g.degree < 1:
            raise PresentationError(f"generator {g.name} has degree {g.degree}; must be >= 1")
    if truncation < 1:
        raise PresentationError(f"truncation must be >= 1, got {truncation}")
    canon = tuple(sorted(generators, key=lambda g: (g.degree, g.name)))
    order = {g.name: i for i, g in enumerate(canon)}
    degrees = [g.degree for g in canon]
    odd = [g.degree % 2 == 1 for g in canon]

    def poly_of(terms, what: str) -> Polynomial:
        out: Polynomial = {}
        for coeff, factors in terms:
            m = tuple(0 for _ in canon)
            c = scalar(coeff)
            ok = True
            for f in factors:
                if f not in order:
                    raise PresentationError(f"{what} references unknown generator {f}")
                fm = tuple(1 if i == order[f] else 0 for i in range(len(canon)))
                sm = mono_mul(m, fm, odd)
                if sm is None:
                    ok = False  # odd square: the term is zero
                    break
                s, m = sm
                c *= s
            if not ok or not c:
                continue
            nv = out.get(m, ZERO) + c
            if nv:
                out[m] = scalar(nv)
            else:
                out.pop(m, None)
        return out

    diffs = {}
    for gname, terms in diff_terms.items():
        if gname not in order:
            raise PresentationError(f"differential given for unknown generator {gname}")
        p = poly_of(terms, f"d {gname}")
        gdeg = degrees[order[gname]]
        for m in p:
            mdeg = mono_degree(m, degrees)
            if mdeg != gdeg + 1:
                raise PresentationError(
                    f"d {gname} must be homogeneous of degree {gdeg + 1}, "
                    f"got a term of degree {mdeg}")
        diffs[gname] = p
    for g in canon:
        diffs.setdefault(g.name, {})

    aliases = []
    for aname, terms in alias_terms:
        p = poly_of(terms, f"alias {aname}")
        degs = {mono_degree(m, degrees) for m in p}
        if len(degs) > 1:
            raise PresentationError(
                f"alias {aname} is not homogeneous: degrees {sorted(degs)}")
        aliases.append((aname, p))

    return Presentation(
        name=name,
        generators=tuple(generators),
        differentials=diffs,
        truncation=truncation,
        space_dim=truncation if space_dim is None else space_dim,
        simply_connected=simply_connected,
        aliases=tuple(aliases),
    )


def compile_cdga(p: Presentation, check: bool = True) -> DGA:
    """Compile a free graded-commutative presentation into explicit tables.

    The differentials are built here; the product table is lazy, each entry
    computed from the monomials the first time it is read.

    With ``check=True`` (the default) a presentation whose differential does
    not square to zero on the generators, within the truncation, raises
    PresentationError.  That is the only axiom left to check: the product is
    free graded-commutative, d is extended to monomials by Leibniz, d^2 is
    then a derivation and vanishes once it vanishes on generators, and no
    term above the truncation enters the tables.  ``check=False`` builds the
    tables regardless, which is how broken models get a proper violation
    listing from :meth:`DGA.validate`.
    """
    n = p.truncation
    canon = p.canonical_generators()
    degrees = [g.degree for g in canon]
    odd = [g.degree % 2 == 1 for g in canon]
    names = [g.name for g in canon]

    # exponent prefixes of degree <= n, one generator at a time
    prefixes = [((), 0)]
    for gdeg, is_odd in zip(degrees, odd):
        prefixes = [(mono + (e,), deg + e * gdeg) for mono, deg in prefixes
                    for e in range(min((n - deg) // gdeg, 1 if is_odd else n) + 1)]
    by_degree: list = [[] for _ in range(n + 1)]
    for mono, deg in prefixes:
        by_degree[deg].append(mono)
    monomials = tuple(tuple(sorted(ms, reverse=True)) for ms in by_degree)
    index = [{m: i for i, m in enumerate(ms)} for ms in monomials]
    basis = tuple(tuple(mono_name(m, names) for m in ms) for ms in monomials)

    def product(k1: int, i1: int, k2: int, i2: int) -> tuple:
        sm = mono_mul(monomials[k1][i1], monomials[k2][i2], odd)
        if sm is None:
            return ()
        s, m = sm
        return ((index[k1 + k2][m], s),)

    dgen = {names[i]: p.differentials.get(names[i], {}) for i in range(len(canon))}
    unit_mono = tuple(0 for _ in canon)
    memo: dict = {unit_mono: {}}

    def d_mono(m: Monomial) -> Polynomial:
        cached = memo.get(m)
        if cached is not None:
            return cached
        i = next(idx for idx, e in enumerate(m) if e)
        g_mono = tuple(1 if j == i else 0 for j in range(len(canon)))
        rest = tuple(e - 1 if j == i else e for j, e in enumerate(m))
        # d(g * rest) = dg * rest + (-1)^{|g|} g * d(rest)
        out: Polynomial = {}
        g_poly = {g_mono: ONE}
        poly_add_scaled(out, poly_mul(dgen[names[i]], {rest: ONE}, odd), ONE)
        sign = -ONE if degrees[i] % 2 else ONE
        poly_add_scaled(out, poly_mul(g_poly, d_mono(rest), odd), sign)
        memo[m] = out
        return out

    diff = []
    for k in range(n + 1):
        target = index[k + 1] if k + 1 <= n else {}
        diff.append(SparseMatrix(len(target), len(monomials[k]), tuple(
            tuple(sorted((target[tm], c) for tm, c in d_mono(m).items() if tm in target))
            for m in monomials[k])))
    diff = tuple(diff)

    if check:
        for g in canon:
            dd: Polynomial = {}
            for m, c in dgen[g.name].items():
                poly_add_scaled(dd, d_mono(m), c)
            bad = {m: c for m, c in dd.items() if mono_degree(m, degrees) <= n}
            if bad:
                terms = " + ".join(
                    f"{c}*{mono_name(m, names)}" for m, c in sorted(bad.items(), reverse=True))
                raise PresentationError(f"d^2({g.name}) = {terms} != 0")
    d_mono = None  # the closure holds itself, and its memo, through its cell

    return DGA(
        name=p.name,
        truncation=n,
        basis=basis,
        mult=_LazyProducts(product, [len(ms) for ms in monomials]),
        diff=diff,
        simply_connected=p.simply_connected,
        space_dim=p.space_dim,
        presentation=p,
        monomials=monomials,
    )


# ---------------------------------------------------------------- tensor


class PairBasis(tuple):
    """The basis of a tensor product A (x) B: degree k lists the pairs
    (p, i, j) of basis element i of A^p and j of B^(k-p), ordered by p, i,
    then j, and ``index[k]`` maps a pair to its position.  The one home of
    this layout, of the Koszul product rule and of x (x) y: the cochain
    square (:func:`tensor`) and the cohomology square
    (``CohomologyRing(dga, factors)``) both read them from here.  Factor
    entries come as sorted pairs, and positions follow (p, i, j), so a
    product or a cross product comes out sorted as it is formed."""

    def __new__(cls, n: int, dim_a, dim_b):
        self = super().__new__(cls, (
            tuple((p, i, j) for p in range(k + 1)
                  for i in range(dim_a(p)) for j in range(dim_b(k - p)))
            for k in range(n + 1)))
        self.index = [{t: i for i, t in enumerate(ps)} for ps in self]
        return self

    def product(self, n1: int, i1: int, n2: int, i2: int, left, right) -> tuple:
        """Pair i1 of degree n1 times pair i2 of degree n2 as (index,
        coefficient) pairs, () for zero, by
        (x1 (x) y1)(x2 (x) y2) = (-1)^{|y1||x2|} x1 x2 (x) y1 y2, where
        ``left(p1, a1, p2, a2)`` and ``right(q1, b1, q2, b2)`` give the
        factors' sparse product entries.  Both pairs must exist and their
        degrees sum to at most the top degree."""
        p1, a1, b1 = self[n1][i1]
        p2, a2, b2 = self[n2][i2]
        q1, q2 = n1 - p1, n2 - p2
        xs = left(p1, a1, p2, a2)
        ys = right(q1, b1, q2, b2) if xs else None
        if not ys:
            return ()
        index, odd = self.index[n1 + n2], (q1 * p2) % 2
        return tuple((index[(p1 + p2, ia, jb)], scalar(-ca * cb if odd else ca * cb))
                     for ia, ca in xs for jb, cb in ys)

    def cross(self, p: int, xs, q: int, ys) -> tuple:
        """The pairs of x (x) y for x of degree p and y of degree q, given by
        their pairs in the factors; () above the top degree."""
        if p + q >= len(self):
            return ()
        index = self.index[p + q]
        return tuple((index[(p, i, j)], scalar(x * y)) for i, x in xs for j, y in ys)


class _LazyProducts(Mapping):
    """A product table as a read-only mapping from (deg1, idx1, deg2, idx2)
    to the sorted sparse product, for the basis with ``dims[k]`` elements
    in degree k = 0..N.

    ``entry(n1, i1, n2, i2)`` computes one entry, () for a zero product,
    and is called only on keys within range; an entry is computed the first
    time it is read, then memoized.  Absent keys, including keys out of
    range, read as None from ``get`` and raise KeyError from ``[]``.
    Iterating, ``items()`` and ``len()`` fill the whole table first; once it
    is full, ``get`` is the table dict's own.
    """

    def __init__(self, entry, dims):
        self._entry, self.dims = entry, tuple(dims)
        self._memo = {}
        self._filled = False

    def get(self, key, default=None):
        entry = self._memo.get(key)
        if entry is None and not self._filled:
            n1, i1, n2, i2 = key
            dims = self.dims
            if (0 <= n1 and 0 <= n2 and n1 + n2 < len(dims)
                    and 0 <= i1 < dims[n1] and 0 <= i2 < dims[n2]):
                entry = self._entry(n1, i1, n2, i2)
            else:
                entry = ()
            self._memo[key] = entry
        return entry or default

    def _fill(self) -> None:
        if self._filled:
            return
        dims, entry = self.dims, self._entry
        table = {}
        for n1 in range(len(dims)):
            for n2 in range(len(dims) - n1):
                for i1 in range(dims[n1]):
                    for i2 in range(dims[n2]):
                        e = entry(n1, i1, n2, i2)
                        if e:
                            table[n1, i1, n2, i2] = e
        self._memo, self._filled = table, True
        self.get = table.get

    def __getitem__(self, key):
        entry = self.get(key)
        if entry is None:
            raise KeyError(key)
        return entry

    def __contains__(self, key) -> bool:
        return bool(self.get(key))

    def __iter__(self):
        self._fill()
        return iter(self._memo)

    def __len__(self) -> int:
        self._fill()
        return len(self._memo)

    def items(self):
        self._fill()
        return self._memo.items()


class _TensorDifferentials(Sequence):
    """The differentials of a (x) b as a read-only sequence indexed by
    degree 0..N; degree k's matrix is built the first time it is read.
    Negative indices and slices behave as on a tuple."""

    def __init__(self, a: DGA, b: DGA, pairs: PairBasis):
        self.a, self.b, self.pairs = a, b, pairs
        self._built = [None] * len(pairs)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[d] for d in range(len(self))[k])
        m = self._built[k]
        if m is None:
            m = self._built[k] = self._build(k % len(self))
        return m

    def _build(self, deg: int) -> SparseMatrix:
        # d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy; in pair order the
        # rows (p, i, *) of x (x) dy come before the rows (p + 1, *, j) of
        # dx (x) y, so each column is built in row order
        a, b, pairs = self.a, self.b, self.pairs
        tindex = pairs.index[deg + 1] if deg + 1 < len(pairs) else {}
        cols = []
        for p, i, j in pairs[deg]:
            odd = p % 2
            cols.append(tuple(
                [(tindex[(p, i, r)], -v if odd else v)
                 for r, v in b.diff[deg - p].nonzero_columns[j]]
                + [(tindex[(p + 1, r, j)], v) for r, v in a.diff[p].nonzero_columns[i]]))
        return SparseMatrix(len(tindex), len(pairs[deg]), tuple(cols))


def tensor(a: DGA, b: DGA) -> DGA:
    """Tensor product DGA with Koszul signs.

    (x (x) y) * (z (x) w) = (-1)^{|y||z|} xz (x) yw and
    d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy, truncated at N_a + N_b
    (every basis pair survives; truncation inside the factors propagates).
    Only the basis, a :class:`PairBasis`, is built here: ``mult`` and
    ``diff`` are lazy read-only views that compute a product entry or a
    degree's differential the first time something reads it, so a square
    whose cochains nothing touches costs its basis only.  The product of
    two DGAs meets the axioms when its factors do, so the exhaustive check
    is left to ``DGA.validate``.
    """
    pairs = PairBasis(a.truncation + b.truncation, a.dim, b.dim)
    left, right = a.mult.get, b.mult.get

    def product(n1: int, i1: int, n2: int, i2: int) -> tuple:
        return pairs.product(n1, i1, n2, i2, lambda *key: left(key),
                             lambda *key: right(key))

    return DGA(
        name=f"{a.name}(x){b.name}",
        truncation=len(pairs) - 1,
        basis=tuple(tuple(f"{a.basis[p][i]}(x){b.basis[k - p][j]}" for p, i, j in ps)
                    for k, ps in enumerate(pairs)),
        mult=_LazyProducts(product, [len(ps) for ps in pairs]),
        diff=_TensorDifferentials(a, b, pairs),
        simply_connected=a.simply_connected and b.simply_connected,
        space_dim=(a.space_dim or 0) + (b.space_dim or 0),
        pairs=pairs,
        factors=(a, b),
    )
