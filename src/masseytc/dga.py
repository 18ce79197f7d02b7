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
and return those pairs.

The tensor square A (x) B (:func:`tensor`) costs what it touches.  Its
basis is a :class:`PairBasis`: one start per non-empty block, built from
the factors' nonzero degrees, so a pair's position is arithmetic and no
pair or name is stored.  Its product entries, differentials and basis
names are computed per entry or per degree on first read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import add
from typing import Mapping, NamedTuple, Optional, Sequence

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

    def __post_init__(self):
        # the canonical order, sorted once per presentation
        object.__setattr__(self, "_canonical", tuple(
            sorted(self.generators, key=lambda g: (g.degree, g.name))))

    def canonical_generators(self) -> tuple:
        return self._canonical


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
    axiom: str       # "d-squared", the one axiom a compiled model can break
    location: tuple  # degrees/indices/names identifying the offending tuple
    message: str


@dataclass(frozen=True, eq=False)
class DGA:
    """A finite DGA given by basis names, multiplication table, differentials.

    ``mult`` is anything whose ``get((deg1, idx1, deg2, idx2))`` gives the
    product as a sparse vector ((idx, coeff), ...) in degree deg1+deg2, or
    None for zero: a dict, or the lazy table of :func:`compile_cdga` and
    :func:`tensor`, which computes an entry the first time it is read.
    ``diff[k]`` is the matrix of d : C^k -> C^{k+1} (the top one has 0 rows);
    the differentials and the basis names of :func:`tensor` are lazy too,
    built per degree on first read.  The dimensions are read once per model,
    off the lazy table when it has one (a tensor model's come from
    ``pairs``), so a tensor model's names are rendered only when something
    reads them.
    Instances are immutable; build them with
    :func:`compile_cdga`, :func:`tensor`, or directly from tables in tests.
    """

    name: str
    truncation: int
    basis: Sequence  # tuple[str, ...] per degree 0..N
    mult: object  # get(key) -> sparse entry or None
    diff: Sequence  # SparseMatrix per degree 0..N
    simply_connected: bool = False
    space_dim: Optional[int] = None
    presentation: Optional[Presentation] = None
    monomials: Optional[tuple] = None  # per-degree Monomial tuples (compiled models)
    index: Optional[tuple] = None      # per-degree {Monomial: position} (compiled models)
    pairs: Optional[Sequence] = None   # PairBasis (tensor models)
    factors: Optional[tuple] = None    # (A, B) for tensor models

    def __post_init__(self):
        # the dimension of each degree 0..N, read once per model
        object.__setattr__(self, "_dims", self.mult.dims if isinstance(self.mult, _LazyProducts)
                           else tuple(map(len, self.basis)))

    def dim(self, k: int) -> int:
        dims = self._dims
        return dims[k] if 0 <= k < len(dims) else 0

    def dims(self) -> tuple:
        return self._dims

    def total_dim(self) -> int:
        return sum(self._dims)

    def basis_cochain(self, degree: int, idx: int) -> Cochain:
        if not 0 <= idx < self.dim(degree):
            raise IndexError(f"degree {degree} has no basis element {idx}")
        return Cochain(degree, self.dim(degree), ((idx, ONE),))

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
        if self.index is None:
            raise ValueError("not a compiled monomial model")
        if not poly:
            raise ValueError("zero polynomial has no degree")
        degrees = [g.degree for g in self.presentation.canonical_generators()]
        degs = {mono_degree(m, degrees) for m in poly}
        if len(degs) > 1:
            raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
        k = degs.pop()
        if k > self.truncation:
            return Cochain(k, 0, ())
        index = self.index[k]
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
        """A d^2 violation for each degree k where d_(k+1) o d_k is nonzero.

        That is every DGA axiom a model of :func:`compile_cdga` or
        :func:`tensor` can break: the rest hold by construction (see
        :func:`compile_cdga`), and a tensor product of such models meets
        them when its factors do.  Empty means a genuine finite DGA.
        """
        return [Violation("d-squared", (k,), f"d_{k + 1} o d_{k} is nonzero")
                for k in range(self.truncation)
                if not self.diff[k + 1].compose(self.diff[k]).is_zero()]


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

    The differentials are built here, each column in closed form by the
    Leibniz rule: d(a*g^e*b) = (-1)^|a| e * a*g^(e-1)*dg*b, summed over the
    factors g^e of the monomial whose generator has a nonzero differential,
    with the Koszul signs of :func:`mono_mul`.  The product table is lazy,
    each entry computed from the monomials the first time it is read.  The
    per-degree monomial index built here is kept on the model, so
    :meth:`DGA.cochain_from_poly` looks monomials up without rebuilding it.

    With ``check=True`` (the default) a presentation whose differential does
    not square to zero on the generators, within the truncation, raises
    PresentationError.  That is the only axiom left to check: the product is
    free graded-commutative, d is extended to monomials by Leibniz, d^2 is
    then a derivation and vanishes once it vanishes on generators, and no
    term above the truncation enters the tables.  ``check=False`` builds the
    tables regardless, and :meth:`DGA.validate` then lists the degrees where
    d^2 = 0, the one axiom such tables can break, fails.
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

    dgen = [p.differentials.get(name, {}) for name in names]
    moving = [i for i, dg in enumerate(dgen) if dg]
    zero = (0,) * len(canon)

    def d_poly(m: Monomial) -> Polynomial:
        # d(a*g^e*b) = (-1)^|a| e * a*g^(e-1)*dg*b, summed over the factors
        # g^e of m whose generator has a nonzero differential
        out: Polynomial = {}
        for i in moving:
            e = m[i]
            if not e:
                continue
            left, right = m[:i] + (e - 1,) + zero[i + 1:], zero[:i + 1] + m[i + 1:]
            c0 = -e if sum(m[j] for j in range(i) if odd[j]) % 2 else e
            for t, c in dgen[i].items():
                lt = mono_mul(left, t, odd)
                ltr = lt and mono_mul(lt[1], right, odd)
                if ltr:
                    mono = ltr[1]
                    out[mono] = out.get(mono, ZERO) + c0 * lt[0] * ltr[0] * c
        return {mono: scalar(c) for mono, c in out.items() if c}

    diff = tuple(SparseMatrix(len(monomials[k + 1]), len(monomials[k]), tuple(
        tuple(sorted((index[k + 1][t], c) for t, c in d_poly(m).items()))
        for m in monomials[k])) for k in range(n)) + (SparseMatrix.zero(0, len(monomials[n])),)

    if check:
        for i in moving:
            dd: Polynomial = {}
            for m, c in dgen[i].items():
                for t, v in d_poly(m).items():
                    dd[t] = dd.get(t, ZERO) + c * v
            bad = {m: scalar(c) for m, c in dd.items() if c and mono_degree(m, degrees) <= n}
            if bad:
                terms = " + ".join(
                    f"{c}*{mono_name(m, names)}" for m, c in sorted(bad.items(), reverse=True))
                raise PresentationError(f"d^2({names[i]}) = {terms} != 0")

    return DGA(
        name=p.name,
        truncation=n,
        basis=basis,
        mult=_LazyProducts(product, map(len, monomials)),
        diff=diff,
        simply_connected=p.simply_connected,
        space_dim=p.space_dim,
        presentation=p,
        monomials=monomials,
        index=index,
    )


# ---------------------------------------------------------------- tensor


class PairBasis(Sequence):
    """The basis of a tensor product A (x) B: degree k lists the pairs
    (p, i, j) of basis element i of A^p and j of B^(k-p), ordered by p, i,
    then j.  The one home of this layout, of the Koszul product rule and
    of x (x) y: the cochain square (:func:`tensor`) and the cohomology
    square (``CohomologyRing(dga, factors)``) both read them from here.

    ``dims_a`` and ``dims_b`` list the factors' dimensions by degree.
    Only the non-empty blocks are kept, built from the factors' nonzero
    degrees: in degree k, block p starts at ``start[k, p]``, and pair
    (p, i, j) sits at ``start[k, p] + i * dims_b[k - p] + j``.  A position
    maps back to its pair by one bisect over that degree's block starts
    and a divmod (:meth:`pair`).
    ``dim(k)`` counts degree k's pairs, and ``pairs[k]`` lists them,
    generated when asked.  Factor entries come as sorted pairs, and
    positions follow (p, i, j), so a product or a cross product comes out
    sorted as it is formed."""

    def __init__(self, n: int, dims_a: Sequence, dims_b: Sequence):
        self._n, self._dim_b = n, dims_b
        nonzero_b = [(q, width) for q, width in enumerate(dims_b) if width]
        # degree -> (the block starts, the blocks as (p, start, rows, width))
        self.start, self._dims, self._blocks = {}, {}, {}
        for p, rows in enumerate(dims_a):
            if not rows:
                continue
            for q, width in nonzero_b:
                k = p + q
                if k > n:
                    break
                # p ascends, so each degree's blocks arrive in order
                s = self.start[k, p] = self._dims.get(k, 0)
                self._dims[k] = s + rows * width
                starts, blocks = self._blocks.setdefault(k, ([], []))
                starts.append(s)
                blocks.append((p, s, rows, width))

    def __len__(self) -> int:
        return self._n + 1

    def __getitem__(self, k: int) -> tuple:
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"degree {k} outside 0..{len(self) - 1}")
        return tuple((p, i, j) for p, _, rows, width in self.blocks(k)
                     for i in range(rows) for j in range(width))

    def dim(self, k: int) -> int:
        """The number of pairs in degree k."""
        return self._dims.get(k, 0)

    def blocks(self, k: int) -> Sequence:
        """Degree k's non-empty blocks in order, each as (p, start,
        dim_a(p), dim_b(k - p))."""
        return self._blocks.get(k, ((), ()))[1]

    def pair(self, k: int, pos: int) -> tuple:
        """The pair (p, i, j) at a position of degree k."""
        starts, blocks = self._blocks[k]
        p, s, _, width = blocks[bisect_right(starts, pos) - 1]
        i, j = divmod(pos - s, width)
        return p, i, j

    def product(self, n1: int, i1: int, n2: int, i2: int, left, right) -> tuple:
        """Pair i1 of degree n1 times pair i2 of degree n2 as (index,
        coefficient) pairs, () for zero, by
        (x1 (x) y1)(x2 (x) y2) = (-1)^{|y1||x2|} x1 x2 (x) y1 y2, where
        ``left(p1, a1, p2, a2)`` and ``right(q1, b1, q2, b2)`` give the
        factors' sparse product entries.  Both pairs must exist and their
        degrees sum to at most the top degree."""
        # pair() twice, inlined: products are the square's hot path
        starts, blocks = self._blocks[n1]
        p1, s1, _, w1 = blocks[bisect_right(starts, i1) - 1]
        starts, blocks = self._blocks[n2]
        p2, s2, _, w2 = blocks[bisect_right(starts, i2) - 1]
        (a1, b1), (a2, b2) = divmod(i1 - s1, w1), divmod(i2 - s2, w2)
        q1, q2 = n1 - p1, n2 - p2
        xs = left(p1, a1, p2, a2)
        ys = right(q1, b1, q2, b2) if xs else None
        if not ys:
            return ()
        base, width = self.start[n1 + n2, p1 + p2], self._dim_b[q1 + q2]
        sign = -1 if (q1 * p2) % 2 else 1
        out = []  # a loop, not a generator: most entries have one term
        for ia, ca in xs:
            for jb, cb in ys:
                out.append((base + ia * width + jb, scalar(sign * ca * cb)))
        return tuple(out)

    def cross(self, p: int, xs, q: int, ys) -> tuple:
        """The pairs of x (x) y for x of degree p and y of degree q, given by
        their pairs in the factors; () above the top degree."""
        if not (xs and ys) or p + q >= len(self):
            return ()
        base, width = self.start[p + q, p], self._dim_b[q]
        return tuple((base + i * width + j, scalar(x * y)) for i, x in xs for j, y in ys)


class _LazyProducts:
    """A product table as a lookup from (deg1, idx1, deg2, idx2) to the
    sorted sparse product, for the basis with ``dims[k]`` elements in
    degree k = 0..N.

    ``entry(n1, i1, n2, i2)`` computes one entry, () for a zero product,
    and is called only on keys within range; an entry is computed the first
    time it is read, then memoized.  As with ``dict.get``, an absent key,
    including a key out of range, reads as ``default``.
    """

    def __init__(self, entry, dims):
        self._entry, self.dims = entry, tuple(dims)
        self._memo = {}

    def get(self, key, default=None):
        entry = self._memo.get(key)
        if entry is None:
            n1, i1, n2, i2 = key
            dims = self.dims
            if (0 <= n1 and 0 <= n2 and n1 + n2 < len(dims)
                    and 0 <= i1 < dims[n1] and 0 <= i2 < dims[n2]):
                entry = self._entry(n1, i1, n2, i2)
            else:
                entry = ()
            self._memo[key] = entry
        return entry or default


class _LazyDegrees(Sequence):
    """A read-only sequence indexed by degree 0..N whose item for degree k
    is ``build(k)``, computed the first time it is read and then kept: the
    differentials and the basis names of :func:`tensor`.  Negative indices
    behave as on a tuple."""

    def __init__(self, build, n: int):
        self._build = build
        self._built = [None] * (n + 1)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, k: int):
        item = self._built[k]
        if item is None:
            item = self._built[k] = self._build(k % len(self))
        return item


def tensor(a: DGA, b: DGA) -> DGA:
    """Tensor product DGA with Koszul signs.

    (x (x) y) * (z (x) w) = (-1)^{|y||z|} xz (x) yw and
    d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy, truncated at N_a + N_b
    (every basis pair survives; truncation inside the factors propagates).
    Only the block layout of the basis, a :class:`PairBasis`, is built
    here: ``mult``, ``diff`` and the basis names are lazy read-only views
    that compute a product entry, a degree's differential or a degree's
    names the first time something reads them, so a square whose cochains
    nothing touches costs its blocks only.  Only error messages render
    square cochains, so only they read the names.  The product of two DGAs
    meets the axioms when its factors do, so nothing is checked here;
    ``DGA.validate`` checks d^2 = 0, the only one a factor can break.
    """
    n = a.truncation + b.truncation
    pairs = PairBasis(n, a.dims(), b.dims())
    left, right = a.mult.get, b.mult.get

    def product(n1: int, i1: int, n2: int, i2: int) -> tuple:
        return pairs.product(n1, i1, n2, i2, lambda *key: left(key),
                             lambda *key: right(key))

    def differential(deg: int) -> SparseMatrix:
        # d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy.  The rows of x (x) dy
        # lie in block p of degree deg + 1 and those of dx (x) y in block
        # p + 1, which comes after it, so each column is built in row order;
        # a block that is absent receives no entries.
        cols = []
        for p, _, rows, width in pairs.blocks(deg):
            q, odd = deg - p, p % 2
            dx, dy = a.diff[p].nonzero_columns, b.diff[q].nonzero_columns
            low, high = pairs.start.get((deg + 1, p), 0), pairs.start.get((deg + 1, p + 1), 0)
            low_width = b.dim(q + 1)
            for i in range(rows):
                base = low + i * low_width
                cols.extend(tuple([(base + r, -v if odd else v) for r, v in dy[j]]
                                  + [(high + r * width + j, v) for r, v in dx[i]])
                            for j in range(width))
        return SparseMatrix(pairs.dim(deg + 1), pairs.dim(deg), tuple(cols))

    def names(k: int) -> tuple:
        return tuple(f"{a.basis[p][i]}(x){b.basis[k - p][j]}" for p, i, j in pairs[k])

    return DGA(
        name=f"{a.name}(x){b.name}",
        truncation=n,
        basis=_LazyDegrees(names, n),
        mult=_LazyProducts(product, map(pairs.dim, range(n + 1))),
        diff=_LazyDegrees(differential, n),
        simply_connected=a.simply_connected and b.simply_connected,
        space_dim=(a.space_dim or 0) + (b.space_dim or 0),
        pairs=pairs,
        factors=(a, b),
    )
