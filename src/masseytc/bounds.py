"""Certified bounds for LS-category and topological complexity.

Both are the Schwarz genus of a fibration p, bounded below through the
ideal ker p*: cat for the based path fibration, where ker p* = H^+, and TC
for the free path fibration, where ker p* = ker mu, the zero-divisors of
mu: H (x) H -> H.  One lower-bound block serves both, keyed by kind ("cat"
on H, "tc" on H (x) H), and ``_RULES`` records the kind each certificate
rule bounds.  Everything is normalized ("cat of a point is 1, TC of a
point is 1") and computed inside a truncated model, so the lower bounds
are honest statements about the ring and the recorded certificates replay
without any reference to how they were found.

Lower bounds come from four weight rules on classes of ker p*:

  R1  the basis classes of H^+ have category weight >= 1, and their bars
      1 (x) u - u (x) 1, which span ker mu as an ideal, TC weight >= 1,
  R2  weights add along cup products,
  R3  any class lying in a defined Massey triple product has category
      weight >= 2,
  R4  on an r-connected model (r >= 1), a class u of category weight >= k
      whose degree l satisfies k(r+1) <= l < (k+1)(r+1), in a degree where
      all cup products of positive classes vanish, transfers the weight to
      the zero-divisor 1 (x) u - u (x) 1:  TC weight >= k,

plus the Massey rule on the tensor ring: a defined nonzero triple
<alpha, beta, gamma> of zero-divisors forces

  TC >= wgt(beta) + min(wgt(alpha), wgt(gamma)) + 1 .

A fact pool holds only atoms: R1 classes, R3 Massey values and R4
transfers, each made by one function per rule, which replay runs again on
the recorded evidence and compares with the record.  R2 lives in chains:
a nonzero product of pool facts with total weight W certifies cat >= W + 1
(or TC >= W + 1 on the tensor ring), and the middle slot beta of the
Massey rule is such a chain too.  Cup-length and zero-divisors cup-length
are the all-weights-one special case.

Each chain search stops at a proven ceiling, which returns the same
chain, since a search keeps its first heaviest chain:

  zcl <= 2 cl  (cl the cup length).  ker mu lies in H^+ (x) H + H (x) H^+,
      as mu is the identity on H^0 (x) H^0 = Q and maps the rest to H^+,
      so a product of k zero-divisors expands into terms
      +-(a_1...a_k) (x) (b_1...b_k) with at least k positive factors in
      all, each side multiplied in the truncated H.  For k > 2 cl one
      side has more than cl positive factors and vanishes.
  weight <= m * (largest fact weight), where m is cl for cat facts and
      zcl for tc facts.  Every cat fact lies in H^+, and every tc fact,
      a bar or a transfer, lies in ker mu = I with I^(zcl+1) = 0, so a
      nonzero product of facts has at most m factors.

The default Massey scan stops by the same kind of proof.  It walks the
target degrees d = 2, 3, ... and, after each d below the truncation, stops
once no unscanned triple can raise cat or TC:

  cat side.  An unscanned triple adds only an R3 fact of weight 2 in
      degree at least d + 1.  Every fact, scanned or not, has weight per
      degree at most rho, the largest ratio over the pool so far or
      2/(d + 1) if that is larger, and a nonzero chain has total degree at
      most T, the top nonzero degree.  So a chain through an unscanned
      fact weighs at most 2 + rho (T - d - 1), and none raises cat when
      that is at most W, the heaviest chain so far, or when cat lower
      already meets cat upper.
  TC side.  A cat fact reaches TC only by R4, whose window puts a class
      of degree l at k = l // (r + 1) and needs its weight 2 >= k.  So no
      unscanned fact transfers when the model is not simply connected, or
      r < 1, or d + 1 >= 3 (r + 1); the Rudyak scan reads no Massey value
      of H.

An explicit cap scans exactly up to it.

Upper bounds are dimensional: cat <= dim + 1 always, cat <= the
James bound for simply connected models, and TC <= 2 cat - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from .cohomology import CohClass, CohomologyRing, KunnethMap, heaviest_chain
from .linalg import Subspace, _canonical, inverse, is_rational
from .linalg import kernel  # noqa: F401  bench/tests/test_bench_trace.py reads bounds.kernel
from .massey import OBSTRUCTIONS, MasseyCoset, massey_triple, scan_triples


def _normalize_class(cls: CohClass) -> CohClass:
    """The multiple whose first nonzero coefficient is 1; zero stays zero."""
    return cls.scale(inverse(cls.pairs[0][1])) if cls.pairs else cls


def chain_product(rg: CohomologyRing, chain) -> CohClass:
    """The product of a chain of classes of ``rg``; the unit when it is empty."""
    return reduce(rg.cup, chain) if chain else rg.basis_class(0, 0)


@dataclass(frozen=True)
class WeightFact:
    """One weighted class with enough provenance to replay its rule.

    ``cls`` is stored projectively normalized; weights are invariant under
    nonzero scaling, so scalar multiples share one fact.  ``inputs`` is the
    rule-specific evidence: ("basis",), ("bar", base class), ("massey", a,
    b, c) or ("transfer", key, k).  Products of facts are never facts;
    they appear only as chains of keys in a certificate.
    """

    kind: str  # "cat" on the base ring, "tc" on the self-tensor ring
    cls: CohClass
    weight: int
    rule: str  # "R1" | "R3" | "R4-transfer"
    inputs: tuple

    @property
    def key(self) -> tuple:
        return (self.kind, self.cls.degree, self.cls.coords)


def _pool(facts) -> tuple:
    """The heaviest of the non-None ``facts`` per key, the first of equals, sorted by key."""
    heaviest = {}
    for f in filter(None, facts):
        if heaviest.setdefault(f.key, f).weight < f.weight:
            heaviest[f.key] = f
    return tuple(f for _, f in sorted(heaviest.items()))


# ------------------------------------------------------------ zero-divisors


def _unit(kmap: KunnethMap) -> CohClass:
    """The unit 1 of the base ring of a self-tensor ring.  The bars generate
    the zero-divisor ideal only when H^0 = Q*1, so any other H^0 is refused."""
    if kmap.ha is not kmap.hb:
        raise ValueError("zero-divisors need a self-tensor ring")
    if kmap.ha.dim(0) != 1:
        raise ValueError(f"the zero-divisor ideal needs H^0 = Q, "
                         f"not of dimension {kmap.ha.dim(0)}")
    return kmap.ha.basis_class(0, 0)


def bar(kmap: KunnethMap, cls: CohClass) -> CohClass:
    """The basic zero-divisor 1 (x) u - u (x) 1 of a self-tensor ring."""
    one = _unit(kmap)
    return kmap.cross(one, cls).sub(kmap.cross(cls, one))


def indecomposables(ring: CohomologyRing) -> list:
    """Basis classes that generate H^+ as an algebra.

    In each degree d these are the e_j whose index j is not a pivot of the
    decomposables D^d = sum_{0<i<d} H^i H^(d-i): unit vectors off the
    pivots of an echelon basis span a complement of it.

    D^d is spanned as sum_u u H^(d-|u|) over the indecomposables u of
    degree below d found so far, which multiplies one factor per
    generator instead of every pair of degrees.  Proof that the two spans
    are equal, by induction on d.  D^1 = 0.  Each u H^(d-|u|) lies in D^d.
    Conversely H^i = U^i + D^i, with U^i spanned by the indecomposables of
    degree i, and by induction D^i = sum_u u H^(i-|u|) over |u| < i, so by
    associativity H^i H^(d-i) lies in sum_{|u|=i} u H^(d-i) +
    sum_{|u|<i} u H^(i-|u|) H^(d-i), inside sum_u u H^(d-|u|).  The
    reduced echelon basis of a span is unique, so the pivots read here are
    those of D^d however it is spanned.
    """
    out, dims = [], ring.dims()
    for d, n in enumerate(dims):
        if not (d and n):
            continue
        dec = Subspace._spanned(n, (
            ring._cup_nonzero(u.degree, u.pairs, d - u.degree, ((j, 1),))
            for u in out for j in range(dims[d - u.degree])))
        pivots = set(dec.pivots)
        out.extend(ring.basis_class(d, j) for j in range(n) if j not in pivots)
    return out


def zero_divisors_cup_length(kmap: KunnethMap) -> tuple:
    """(zcl, witness chain of zero-divisors, their product).

    zcl is the largest k with I^k != 0, for I the zero-divisor ideal.  I is
    generated by the bars of the indecomposables of H^+, so I^k != 0
    exactly when some product of k such bars is nonzero, and zcl is the
    longest such product.  The witness is the first longest chain of those
    bars in ascending degree and basis order.  The search stops once a
    chain reaches the ceiling zcl <= 2 * cup length (module docstring).
    """
    _unit(kmap)  # refuse a ring the bars do not cover before any search
    bars = [bar(kmap, u) for u in indecomposables(kmap.ha)]
    k, picked, prod = heaviest_chain(kmap.ht, bars, [1] * len(bars),
                                     goal=2 * kmap.ha.cup_length())
    return k, tuple(bars[i] for i in picked), prod


# ------------------------------------------------------------ weight rules


def nonzero_products(ring: CohomologyRing, i: int, j: int) -> bool:
    """Whether some product H^i * H^j is nonzero, read off the cup table
    up to its first nonzero basis entry."""
    cup = ring.cup_basis
    return any(cup(i, a, j, b) for a in range(ring.dim(i)) for b in range(ring.dim(j)))


def basis_weight(cls: CohClass) -> WeightFact:
    """R1 on H: a basis class, as any class of H^+, has category weight 1."""
    return WeightFact("cat", _normalize_class(cls), 1, "R1", ("basis",))


def bar_weight(kmap: KunnethMap, cls: CohClass) -> WeightFact:
    """R1 on H (x) H: the bar of a class of H^+ has TC weight 1."""
    return WeightFact("tc", _normalize_class(bar(kmap, cls)), 1, "R1", ("bar", cls))


def massey_weight(coset: MasseyCoset) -> "WeightFact | None":
    """R3: the value of a nonzero Massey coset on H has category weight 2, else None."""
    if not coset.is_nonzero():
        return None
    return WeightFact("cat", _normalize_class(coset.value), 2, "R3",
                      ("massey", coset.alpha, coset.beta, coset.gamma))


def transfer_weight(ring: CohomologyRing, kmap: KunnethMap,
                    fact: WeightFact, k: int) -> tuple:
    """Try to move a category weight onto the bar of its class (rule R4).

    Returns (fact, None) on success and (None, reason) when a hypothesis
    fails; the reason strings are stable enough to test against.
    """
    if fact.kind != "cat":
        return None, "only category-weight facts transfer"
    if k < 1:
        return None, "transfer needs k >= 1"
    if fact.weight < k:
        return None, f"fact has weight {fact.weight}, below the requested {k}"
    if not ring.dga.simply_connected:
        return None, "model is not declared simply connected"
    r = ring.connectivity()
    if r < 1:
        return None, "transfer needs connectivity at least 1"
    ell = fact.cls.degree
    lo, hi = k * (r + 1), (k + 1) * (r + 1)
    if not (lo <= ell < hi):
        return None, f"degree {ell} misses the window [{lo}, {hi}) for weight {k}"
    # H^i * H^(l-i) = H^(l-i) * H^i, so the first nonzero one has i <= l/2
    for i in range(1, ell // 2 + 1):
        if nonzero_products(ring, i, ell - i):
            return None, (f"cup products H^{i} * H^{ell - i} are nonzero, "
                          f"so degree {ell} is not product-free")
    b = bar(kmap, fact.cls)
    if b.is_zero():
        return None, "bar of the class vanishes"
    return WeightFact("tc", _normalize_class(b), k, "R4-transfer",
                      ("transfer", fact.key, k)), None


def cat_weight_facts(ring: CohomologyRing, cosets: list) -> tuple:
    """Category-weight atoms, as a pool sorted by key: R1 basis classes and
    R3 Massey values drawn from ``cosets``, a Massey scan of the ring (see
    :func:`~masseytc.massey.scan_triples`)."""
    return _pool([*map(basis_weight, ring.positive_basis()), *map(massey_weight, cosets)])


def tc_weight_facts(ring: CohomologyRing, kmap: KunnethMap,
                    cat_facts: tuple) -> tuple:
    """TC-weight atoms on the self-tensor ring, as a pool sorted by key:
    bars and R4 transfers of the ``cat_facts`` pool."""
    # a fact of degree l moves only at k = l // (r + 1), whose window holds l
    width = ring.connectivity() + 1
    moved = (transfer_weight(ring, kmap, f, f.cls.degree // width)[0] for f in cat_facts)
    return _pool([*(bar_weight(kmap, e) for e in ring.positive_basis()), *moved])


def weighted_lower_bound(ring: CohomologyRing, facts: tuple, length: int = None) -> tuple:
    """Heaviest nonzero product of weighted facts.

    Returns (best total weight, chain of fact keys, product class); the
    associated bound is best + 1, and an empty chain has the unit as its
    product.  This is :func:`heaviest_chain` over ``facts``, a pool in
    ascending key order, repeats allowed, so the outcome is deterministic.
    ``length`` is the most factors a nonzero product of facts can have
    (cup length for cat facts, zcl for tc facts, see the module
    docstring); the search stops once a chain weighs ``length`` times the
    largest fact weight.
    """
    weights = [f.weight for f in facts]
    goal = None if length is None else length * max(weights, default=0)
    best, picked, prod = heaviest_chain(ring, [f.cls for f in facts], weights, goal)
    return best, tuple(facts[i].key for i in picked), prod


def rudyak_lower_bound(kmap: KunnethMap, facts: tuple, best: int) -> tuple:
    """Massey rule on the tensor ring, scanning for strict improvements.

    Outer slots run over the pool ``facts``, which are all bars (plain or
    transferred).  The middle slot beta runs over the pool's atoms, then
    over the nonzero products of two atoms, whose weight is the sum of the
    two (rule R2).  A beta that cannot beat the bound we already hold even
    with the heaviest bars is skipped before it is multiplied, and a triple
    is only computed when wgt(beta) + min(wgt(alpha), wgt(gamma)) + 1 would
    beat it.  Returns (possibly improved bound, certificate or None); the
    certificate records beta as its chain of fact keys.
    """
    top = max((f.weight for f in facts), default=0)
    if 3 * top + 1 <= best:
        return best, None  # a triple weighs at most 2 * top + top + 1
    ht = kmap.ht
    chains = [(f,) for f in facts] + [(f, g) for i, f in enumerate(facts) for g in facts[i:]]
    cert = None
    for betas in chains:
        weight = sum(f.weight for f in betas)
        if weight + top + 1 <= best:
            continue  # no triple with this middle slot can beat the bound
        beta = chain_product(ht, [f.cls for f in betas])
        if beta.is_zero():
            continue
        for ia, alpha in enumerate(facts):
            for gamma in facts[ia:]:  # mirrored triples agree up to sign
                potential = weight + min(alpha.weight, gamma.weight) + 1
                if potential <= best:
                    continue
                target = alpha.cls.degree + beta.degree + gamma.cls.degree - 1
                if target > ht.truncation:
                    continue
                coset = massey_triple(ht, alpha.cls, beta, gamma.cls)
                if coset.is_nonzero():
                    best = potential
                    cert = {"rule": "massey-rudyak", "kind": "tc", "bound": best,
                            "alpha": alpha.key, "beta": tuple(f.key for f in betas),
                            "gamma": gamma.key}
    return best, cert


# ------------------------------------------------------------ upper bounds


def james_upper(space_dim: int, connectivity: int) -> int:
    """Largest integer strictly below (dim + 1)/(r + 1) + 1."""
    if connectivity < 1:
        raise ValueError("the James bound needs connectivity at least 1")
    q = Fraction(space_dim + 1, connectivity + 1) + 1
    floor = q.numerator // q.denominator
    return floor - 1 if q == floor else floor


# ------------------------------------------------------------------ ledger


class InconsistentBounds(ValueError):
    """A certified lower bound exceeds an upper bound from ``space-dim``."""


@dataclass(frozen=True)
class BoundLedger:
    """Deterministic record of every bound with replayable certificates.

    Each certified value is held once, by a certificate; a bound is the
    best certificate of its kind and side (None if there is none), and a
    witness is the chain of the one cup-chain or zcl-chain certificate,
    whose length is the cup length or zcl.  Every class held is a CohClass.
    """

    model: str
    space_dim: int
    connectivity: int
    dims: tuple
    tensor_dims: tuple
    massey_cap: int
    cat_facts: tuple  # WeightFacts sorted by key
    tc_facts: tuple
    certificates: tuple  # rule dictionaries, see replay_ledger
    # how many basis triples up to massey_cap are not defined, per obstruction
    massey_undefined: dict
    # (d, W, rho, T) when a default scan stopped at d = massey_cap below the
    # truncation, else None; see build_ledger
    massey_stop: tuple
    # The defined triples of the Massey scan the ledger was built from,
    # kept for the report.  They follow from the ring and massey_cap, so
    # they stay out of report.ledger_section and equality; replay_ledger
    # recomputes them.
    massey_cosets: tuple = field(compare=False, repr=False)

    def _best(self, kind: str, side: str):
        bounds = [c["bound"] for c in self.certificates
                  if c["kind"] == kind and _RULES[c["rule"]][1] == side]
        return (max if side == "lower" else min)(bounds, default=None)

    def _chain(self, rule: str) -> tuple:
        (chain,) = (c["chain"] for c in self.certificates if c["rule"] == rule)
        return chain

    cat_lower = property(lambda self: self._best("cat", "lower"))
    cat_upper = property(lambda self: self._best("cat", "upper"))
    tc_lower = property(lambda self: self._best("tc", "lower"))
    tc_upper = property(lambda self: self._best("tc", "upper"))
    cup_witness = property(lambda self: self._chain("cup-chain"))
    zcl_witness = property(lambda self: self._chain("zcl-chain"))
    cup_length = property(lambda self: len(self.cup_witness))
    zcl = property(lambda self: len(self.zcl_witness))


# Each certificate rule: the kind it bounds (None for either), the side of
# the bound, and the fields it carries besides rule, kind and bound.
_RULES = {
    "cup-chain": ("cat", "lower", ("chain",)),
    "zcl-chain": ("tc", "lower", ("chain",)),
    "weighted-product": (None, "lower", ("factors", "product")),
    "massey-rudyak": ("tc", "lower", ("alpha", "beta", "gamma")),
    "dimension": ("cat", "upper", ()),
    "james": ("cat", "upper", ()),
    "cat-product": ("tc", "upper", ("cat_upper",)),
}
LOWER_RULES = tuple(rule for rule, (_, side, _) in _RULES.items() if side == "lower")


# Entries each fact's evidence carries after its tag, see WeightFact.
_EVIDENCE_ENTRIES = {"basis": 0, "bar": 1, "massey": 3, "transfer": 2}


def _recorded_class(rg: CohomologyRing, cls, record: str, *parts) -> CohClass:
    """The one check of a class a ledger record holds: a CohClass whose
    degree is an int in 1..N of ``rg``, whose ``dim`` is dim H^degree and
    whose pairs each give an index below ``dim`` and an int or a Fraction.
    Returns it in canonical pairs, as its JSON form writes it; otherwise
    raises a ValueError that names the record, ``record.format(*parts)``,
    rendered only then, since a fact key renders at the size of its ring."""
    try:
        if (type(cls) is CohClass and type(cls.degree) is int
                and 1 <= cls.degree <= rg.truncation
                and type(cls.dim) is int and cls.dim == rg.dim(cls.degree)
                and all(type(i) is int and 0 <= i < cls.dim and is_rational(c)
                        for i, c in cls.pairs)):
            return CohClass(cls.degree, cls.dim, _canonical(dict(cls.pairs)))
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{record.format(*parts)} is not a class of degree 1..{rg.truncation} "
                     "with one rational coordinate per basis class")


def _space_dim(ring: CohomologyRing) -> int:
    """The model's declared dimension, or its truncation when it has none."""
    return ring.truncation if ring.dga.space_dim is None else ring.dga.space_dim


def _lower_block(kind: str, witness: tuple, heaviest: tuple, certs: list) -> int:
    """One fibration's lower bound: certify its longest chain in ker p*,
    the ``witness`` of the cup length or zcl, and its ``heaviest`` product
    of facts, as :func:`weighted_lower_bound` returns it, and return the
    larger bound."""
    length = len(witness)
    certs.append({"rule": "cup-chain" if kind == "cat" else "zcl-chain", "kind": kind,
                  "bound": length + 1, "chain": witness})
    weight, chain, prod = heaviest
    if chain:
        certs.append({"rule": "weighted-product", "kind": kind, "bound": weight + 1,
                      "factors": chain, "product": prod})
    return max(length + 1, weight + 1)


def _stop_ratio(pool: tuple, degree: int) -> Fraction:
    """rho after a Massey scan up to ``degree``: the largest weight per
    degree of a fact of the cat ``pool`` or of a triple above it."""
    return max([Fraction(2, degree + 1), *(Fraction(f.weight, f.cls.degree) for f in pool)])


def stop_weight(degree: int, ratio: Fraction, top: int) -> Fraction:
    """The most a chain through the value of a triple above ``degree`` can
    weigh, given the largest weight per degree and the top nonzero degree."""
    return 2 + ratio * (top - degree - 1)


def _stop_spares_tc(ring: CohomologyRing, degree: int) -> bool:
    """Whether no triple above ``degree`` can move a weight onto TC (R4)."""
    r = ring.connectivity()
    return not ring.dga.simply_connected or r < 1 or degree + 1 >= 3 * (r + 1)


def build_ledger(ring: CohomologyRing, kmap: KunnethMap,
                 massey_cap: int = None) -> BoundLedger:
    """Compute all bounds for one model and record their certificates.

    With no ``massey_cap`` the Massey scan stops at the first degree after
    which no triple can raise a bound (module docstring), and the ledger
    records the stop as ``massey_stop``; a cap scans exactly up to it."""
    if kmap.ha is not ring or kmap.hb is not ring:
        raise ValueError("the Kunneth map must square the given ring")
    if massey_cap is not None and (type(massey_cap) is not int or massey_cap < 0):
        raise ValueError(f"the Massey degree cap must be a non-negative int, not {massey_cap!r}")
    cap = ring.truncation if massey_cap is None else min(massey_cap, ring.truncation)
    space_dim = _space_dim(ring)
    conn = ring.connectivity()
    certs = []

    uppers = [{"rule": "dimension", "kind": "cat", "bound": space_dim + 1}]
    if ring.dga.simply_connected and conn >= 1:
        uppers.append({"rule": "james", "kind": "cat", "bound": james_upper(space_dim, conn)})
    cat_upper = min(c["bound"] for c in uppers)

    cup_witness = ring.cup_chain()[1]
    top = ring.top_nonzero_degree()
    searched = [None, None]  # the cat pool searched last and its heaviest chain
    massey_stop = None

    def heaviest(pool):
        if searched[0] != pool:
            searched[:] = pool, weighted_lower_bound(ring, pool, len(cup_witness))
        return searched[1]

    def stop(d, cosets):
        # the TC side first: it needs no search
        nonlocal massey_stop
        if not _stop_spares_tc(ring, d):
            return False
        pool = cat_weight_facts(ring, cosets)
        ratio = _stop_ratio(pool, d)

        def settled(w):  # the cat side, when the heaviest chain weighs w
            return stop_weight(d, ratio, top) <= w or w + 1 >= cat_upper

        # W <= cup length * the largest weight (module docstring), so the
        # search runs only when that ceiling could settle the cat side
        ceiling = len(cup_witness) * max((f.weight for f in pool), default=0)
        if not (settled(ceiling) and settled(heaviest(pool)[0])):
            return False
        massey_stop = d, ratio
        return True

    undefined = dict.fromkeys(OBSTRUCTIONS, 0)
    cosets = tuple(scan_triples(ring, cap, undefined=undefined,
                                stop=stop if massey_cap is None else None))
    cat_facts = cat_weight_facts(ring, cosets)
    cat_lower = _lower_block("cat", cup_witness, heaviest(cat_facts), certs)
    certs += uppers
    if massey_stop is not None:
        cap, ratio = massey_stop  # the scan reached only the degree it stopped at
        massey_stop = cap, cat_lower - 1, ratio, top

    zcl_witness = zero_divisors_cup_length(kmap)[1]
    tc_facts = tc_weight_facts(ring, kmap, cat_facts)
    tc_lower = _lower_block("tc", zcl_witness,
                            weighted_lower_bound(kmap.ht, tc_facts, len(zcl_witness)), certs)
    tc_lower, rud_cert = rudyak_lower_bound(kmap, tc_facts, tc_lower)
    if rud_cert is not None:
        certs.append(rud_cert)

    tc_upper = 2 * cat_upper - 1
    certs.append({"rule": "cat-product", "kind": "tc", "bound": tc_upper,
                  "cat_upper": cat_upper})

    if cat_lower > cat_upper:
        raise InconsistentBounds(f"inconsistent category bounds [{cat_lower}, {cat_upper}]")
    if tc_lower > tc_upper:
        raise InconsistentBounds(f"inconsistent TC bounds [{tc_lower}, {tc_upper}]")

    return BoundLedger(
        model=ring.dga.name,
        space_dim=space_dim,
        connectivity=conn,
        dims=ring.dims(),
        tensor_dims=kmap.ht.dims(),
        massey_cap=cap,
        cat_facts=cat_facts,
        tc_facts=tc_facts,
        certificates=tuple(certs),
        massey_undefined=undefined,
        massey_stop=massey_stop,
        massey_cosets=cosets,
    )


def replay_ledger(ledger: BoundLedger, ring: CohomologyRing,
                  kmap: KunnethMap) -> bool:
    """Re-execute every fact and certificate; raise on any mismatch.

    This is the independent acceptance path for a ledger: nothing from the
    original search is trusted, each weight is rebuilt from its recorded
    rule, each certificate's product or triple is recomputed, and every
    summary field the ledger section prints is checked against the ring
    or read off the certificates replayed here.  So is the Massey listing
    that the report prints beside it: each defined triple's record and the
    ring it was computed on, and the count of undefined triples per
    obstruction.  A stop note is recomputed field by field, and both sides
    of the stop rule are checked again.
    """
    # a BoundLedger reads its bounds off its certificates; a look-alike states them
    if type(ledger) is not BoundLedger:
        raise ValueError(f"the ledger is a {type(ledger).__name__}, not a BoundLedger")
    ht = kmap.ht
    if ledger.model != ring.dga.name:
        raise ValueError(f"model {ledger.model!r} is not the ring's {ring.dga.name!r}")
    for name, want in (("dims", ring.dims()), ("tensor_dims", ht.dims())):
        value = getattr(ledger, name)
        if value != want or not all(type(v) is int for v in value):
            raise ValueError(f"{name} {value!r} are not the ring's {want}")
    cap = ledger.massey_cap
    if type(cap) is not int or not 0 <= cap <= ring.truncation:
        raise ValueError(f"massey_cap {cap!r} is not a degree in 0..{ring.truncation}")
    if type(ledger.space_dim) is not int or ledger.space_dim != _space_dim(ring):
        raise ValueError(f"space_dim {ledger.space_dim!r} is not the model's {_space_dim(ring)}")
    if type(ledger.connectivity) is not int or ledger.connectivity != ring.connectivity():
        raise ValueError("connectivity changed under replay")
    # the bounds and witnesses are properties that read the certificates
    if type(ledger.certificates) is not tuple:
        raise ValueError(f"the certificates field is of type {type(ledger.certificates).__name__}, "
                         "not a tuple of rule dictionaries")

    def fail(f, msg):
        raise ValueError(f"fact {f.key} failed replay: {msg}")

    # a key holds the kind and the class, so check both before any key is formed
    for kind in ("cat", "tc"):
        pool = getattr(ledger, f"{kind}_facts")
        if type(pool) is not tuple:
            raise ValueError(f"the {kind} pool is a {type(pool).__name__}, not a tuple of facts")
        for f in pool:
            if type(f) is not WeightFact:
                raise ValueError(f"the {kind} pool holds a {type(f).__name__}, not a WeightFact")
            if f.kind not in ("cat", "tc"):
                raise ValueError(f"a fact has kind {f.kind!r}, not 'cat' or 'tc'")
            if type(f.cls) is not CohClass:
                raise ValueError(f"a {f.kind} fact holds its class as a {type(f.cls).__name__}, "
                                 "not a CohClass")
            cls = _recorded_class(ring if f.kind == "cat" else ht, f.cls, "the class of fact {}",
                                  (f.kind, f.cls.degree, f.cls.pairs))
            if cls.is_zero():
                fail(f, "class is zero")
            if _normalize_class(cls) != f.cls:
                fail(f, "class is not stored normalized, as canonical pairs")
    fact_by_key = {f.key: f for f in ledger.cat_facts + ledger.tc_facts}

    def fact_at(key):
        try:
            return fact_by_key.get(key)
        except TypeError:  # an unhashable key names no fact
            return None

    def verify_fact(f: WeightFact, kind: str) -> None:
        if f.kind != kind:
            fail(f, f"a {f.kind} fact sits in the {kind} pool")
        if type(f.weight) is not int:
            fail(f, f"weight {f.weight!r} is not an integer")
        if not isinstance(f.inputs, tuple):
            fail(f, f"evidence {f.inputs!r} is not a tuple")
        tag = f.inputs[0] if f.inputs else None
        entries = _EVIDENCE_ENTRIES.get(tag) if type(tag) is str else None
        if entries is None:
            fail(f, f"unknown rule/evidence combination {f.rule}/{tag}")
        if len(f.inputs) != entries + 1:
            fail(f, f"{tag} evidence needs {entries} entries after its tag, "
                    f"not {len(f.inputs) - 1}")
        if tag == "basis":
            want = basis_weight(f.cls)
        elif tag == "bar":
            # a zero-divisor by construction: mu(1 (x) u - u (x) 1) = u - u = 0
            want = bar_weight(kmap, _recorded_class(ring, f.inputs[1],
                                                    "the bar evidence of fact {.key}", f))
        elif tag == "massey":
            # R3 is a rule on H, so its evidence is read there for either pool
            coset = massey_triple(ring, *(_recorded_class(
                ring, x, "the massey evidence of fact {.key}", f) for x in f.inputs[1:]))
            if coset.target_degree > cap:
                fail(f, f"Massey triple lands in degree {coset.target_degree}, "
                        f"above massey_cap {cap}")
            want = massey_weight(coset)
            if want is None:
                fail(f, "Massey triple is not defined and nonzero")
        else:
            # the source is replayed in its own turn; it must be a cat
            # fact, and a transfer is a tc fact, so no evidence loops
            source = fact_at(f.inputs[1])
            if source is None:
                fail(f, "transfer evidence names a fact that is not in the fact pool")
            if type(f.inputs[2]) is not int:
                fail(f, f"transfer evidence gives k as {f.inputs[2]!r}, not an integer")
            want, reason = transfer_weight(ring, kmap, source, f.inputs[2])
            if want is None:
                fail(f, f"transfer hypotheses fail on replay: {reason}")
        if want != f:
            differ = [name for name, value in vars(f).items() if getattr(want, name) != value]
            fail(f, f"its {tag} evidence derives a fact with another {', '.join(differ)}")

    for kind in ("cat", "tc"):
        pool = getattr(ledger, f"{kind}_facts")
        for fact in pool:
            verify_fact(fact, kind)
        for a, b in zip(pool, pool[1:]):
            if a.key == b.key:
                raise ValueError(f"fact {b.key} is listed twice in the {kind} pool")
            if a.key > b.key:
                raise ValueError(f"the {kind} pool is not sorted by key at fact {b.key}")

    def cert_fact(rule: str, kind: str, key) -> WeightFact:
        f = fact_at(key)
        if f is None:
            raise ValueError(f"{rule} certificate names fact {key}, "
                             "which is not in the fact pool")
        if f.kind != kind:
            raise ValueError(f"{rule} certificate for {kind} names the {f.kind} fact {key}")
        return f

    def cert_facts(rule: str, kind: str, keys, field: str) -> list:
        if not isinstance(keys, (list, tuple)):
            raise ValueError(f"the {field} of the {kind} {rule} certificate "
                             "are not a list of fact keys")
        return [cert_fact(rule, kind, key) for key in keys]

    sides = set()  # the (kind, side) pairs some certificate bounds
    for cert in ledger.certificates:
        if not isinstance(cert, dict):
            raise ValueError(f"certificate {cert!r} is not a rule dictionary")
        rule = cert.get("rule")
        if not isinstance(rule, str) or rule not in _RULES:
            raise ValueError(f"unknown certificate rule {rule!r}")
        bounds_kind, side, fields = _RULES[rule]
        missing = [k for k in ("kind", "bound") + fields if k not in cert]
        if missing:
            raise ValueError(f"{rule} certificate lacks {', '.join(missing)}")
        kind, bound = cert["kind"], cert["bound"]
        if not isinstance(kind, str) or kind not in ("cat", "tc"):
            raise ValueError(f"{rule} certificate has unknown kind {kind!r}")
        if bounds_kind not in (None, kind):
            raise ValueError(f"{rule} certificates bound {bounds_kind}, not {kind}")
        if type(bound) is not int:
            raise ValueError(f"{rule} certificate gives its bound as {bound!r}, not an integer")
        rg = ring if kind == "cat" else ht
        if rule in ("cup-chain", "zcl-chain"):
            chain = cert["chain"]
            if not isinstance(chain, (list, tuple)):
                raise ValueError(f"the chain of the {rule} certificate is not a list of classes")
            chain = [_recorded_class(rg, c, "factor {} of the {} certificate", i, rule)
                     for i, c in enumerate(chain)]
            if kind == "tc" and not all(kmap.diagonal_map(c).is_zero() for c in chain):
                raise ValueError("zcl-chain factor is not a zero-divisor")
            if chain_product(rg, chain).is_zero() or bound != len(chain) + 1:
                raise ValueError(f"{rule} certificate failed replay")
        elif rule == "weighted-product":
            facts = cert_facts(rule, kind, cert["factors"], "factors")
            prod = chain_product(rg, [f.cls for f in facts])
            if prod.is_zero():
                raise ValueError("weighted product vanished on replay")
            recorded = _recorded_class(rg, cert["product"], "the product of the {} {} certificate",
                                       kind, rule)
            if prod != recorded:
                raise ValueError("weighted product differs from the record")
            if bound != sum(f.weight for f in facts) + 1:
                raise ValueError("weighted bound does not match the weights")
        elif rule == "massey-rudyak":
            fa, fg = (cert_fact(rule, kind, cert[k]) for k in ("alpha", "gamma"))
            betas = cert_facts(rule, kind, cert["beta"], "beta keys")
            if not betas:
                raise ValueError(f"the beta of the {kind} {rule} certificate is an empty chain")
            coset = massey_triple(ht, fa.cls, chain_product(ht, [f.cls for f in betas]), fg.cls)
            if not coset.is_nonzero():
                raise ValueError("Massey certificate triple vanished on replay")
            if bound != sum(f.weight for f in betas) + min(fa.weight, fg.weight) + 1:
                raise ValueError("Massey bound does not match the weights")
        elif rule == "dimension":
            if bound != ledger.space_dim + 1:
                raise ValueError("dimension certificate failed replay")
        elif rule == "james":
            if bound != james_upper(ledger.space_dim, ledger.connectivity):
                raise ValueError("James certificate failed replay")
        elif rule == "cat-product":
            if type(cert["cat_upper"]) is not int:
                raise ValueError(f"cat-product certificate gives cat_upper as "
                                 f"{cert['cat_upper']!r}, not an integer")
        sides.add((kind, side))

    # every certificate is checked, so the ledger's summary reads off them
    for kind in ("cat", "tc"):
        for side in ("lower", "upper"):
            if (kind, side) not in sides:
                raise ValueError(f"ledger has no {side} certificate for {kind}")
        lower, upper = getattr(ledger, f"{kind}_lower"), getattr(ledger, f"{kind}_upper")
        if lower > upper:
            raise ValueError(f"the {kind} lower bound {lower} exceeds its upper bound {upper}")
    for rule in ("cup-chain", "zcl-chain"):
        count = sum(cert["rule"] == rule for cert in ledger.certificates)
        if count != 1:
            raise ValueError(f"ledger has {count} {rule} certificates, not one")
    for cert in ledger.certificates:  # a cat-product bound doubles the cat upper bound
        if cert["rule"] == "cat-product" and (cert["cat_upper"] != ledger.cat_upper
                                              or cert["bound"] != 2 * ledger.cat_upper - 1):
            raise ValueError("cat-product certificate failed replay")
    _replay_massey_stop(ledger, ring, _replay_massey_listing(ledger, ring, cap))
    return True


def _replay_massey_listing(ledger: BoundLedger, ring: CohomologyRing, cap: int) -> list:
    """Check what the report prints of the Massey scan: the listed cosets
    against a rescan of the ring, record by record in its order, the ring
    each reads its indeterminacy off, and the undefined counts against the
    ring's.  Returns the rescan."""
    listed = ledger.massey_cosets
    if type(listed) is not tuple:
        raise ValueError(f"massey_cosets is a {type(listed).__name__}, "
                         "not a tuple of Massey cosets")
    for c in listed:
        if type(c) is not MasseyCoset:
            raise ValueError(f"massey_cosets hold a {type(c).__name__}, not a Massey coset")
    want_counts = dict.fromkeys(OBSTRUCTIONS, 0)
    fresh = scan_triples(ring, cap, undefined=want_counts)
    got = [(c.alpha, c.beta, c.gamma) for c in listed]
    want = [(c.alpha, c.beta, c.gamma) for c in fresh]
    if got != want:
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                 min(len(got), len(want)))
        if i < len(want) and want[i] not in got[i:]:
            raise ValueError(f"massey_cosets drop the defined triple {_triple(want[i])} "
                             f"of the ring's scan up to massey_cap {cap}")
        if i < len(got) and got[i] not in want:
            raise ValueError(f"massey_cosets list {_triple(got[i])}, which is not a defined "
                             f"triple of the ring's scan up to massey_cap {cap}")
        raise ValueError(f"massey_cosets are not in the order of the ring's scan "
                         f"at entry {i}")
    rings = {id(ring)}  # the rings of the model that some listed coset was computed on
    for key, c, f in zip(got, listed, fresh):
        # the report prints the recorded fields of a coset, which == compares
        if c != f:
            raise ValueError(f"the listed Massey triple {_triple(key)} reads (defined "
                             f"{c.defined!r}, obstruction {c.obstruction!r}, value "
                             f"{c.value!r}), not the ring's record")
        # ... and reads its indeterminacy off the coset's ring
        if id(c.ring) not in rings:
            if not (type(c.ring) is CohomologyRing
                    and c.ring.dga.presentation == ring.dga.presentation):
                raise ValueError(f"the listed Massey triple {_triple(key)} holds a ring "
                                 f"that is not one of the model {ring.dga.name!r}")
            rings.add(id(c.ring))
        # == takes 1 for True and 1.0 or True for the int 1, so check the types
        if type(c.defined) is not bool:
            raise ValueError(f"the listed Massey triple {_triple(key)} gives defined as "
                             f"{c.defined!r}, not a bool")
        for x in key + (c.value,):
            if not (type(x.degree) is int and type(x.dim) is int
                    and all(type(i) is int and is_rational(v) for i, v in x.pairs)):
                raise ValueError(f"the listed Massey triple {_triple(key)} holds a class "
                                 "whose degree, dim or pairs are not ints and rationals")
    counts = ledger.massey_undefined
    if (type(counts) is not dict or list(counts) != list(OBSTRUCTIONS)
            or not all(type(n) is int for n in counts.values())):
        raise ValueError(f"massey_undefined {counts!r} are not a count per obstruction "
                         f"{', '.join(OBSTRUCTIONS)}")
    if counts != want_counts:
        raise ValueError(f"massey_undefined {counts} are not the ring's counts {want_counts}")
    return fresh


def _replay_massey_stop(ledger: BoundLedger, ring: CohomologyRing, cosets: list) -> None:
    """Check the stop note of a default scan: each field against the ring,
    the pool of its rescanned ``cosets`` and the replayed cat bounds, then
    both sides of the stop rule."""
    note = ledger.massey_stop
    if note is None:
        return
    if not (type(note) is tuple and [type(x) for x in note] == [int, int, Fraction, int]):
        raise ValueError(f"massey_stop {note!r} is not a tuple (d, W, rho, T) of an int, "
                         "an int, a Fraction and an int")
    d, weight, ratio, top = note
    cap, lower, upper = ledger.massey_cap, ledger.cat_lower, ledger.cat_upper
    if cap == ring.truncation:
        raise ValueError(f"massey_stop {note!r} notes a stop on a full scan, "
                         f"up to the truncation {cap}")
    if d != cap:
        raise ValueError(f"massey_stop degree {d} is not massey_cap {cap}")
    if weight != lower - 1:
        raise ValueError(f"massey_stop weight {weight} is not cat lower - 1 = {lower - 1}")
    want = _stop_ratio(cat_weight_facts(ring, cosets), d)
    if ratio != want:
        raise ValueError(f"massey_stop ratio {ratio} is not {want}, the largest weight "
                         f"per degree of the pool and of a triple above degree {d}")
    if top != ring.top_nonzero_degree():
        raise ValueError(f"massey_stop top degree {top} is not the ring's "
                         f"{ring.top_nonzero_degree()}")
    if not _stop_spares_tc(ring, d):
        raise ValueError(f"massey_stop at degree {d} fails its TC side: on this "
                         f"{ring.connectivity()}-connected model a triple above it "
                         "can transfer its weight (R4)")
    most = stop_weight(d, ratio, top)
    if most > weight and lower != upper:
        raise ValueError(f"massey_stop at degree {d} fails its cat side: a triple above "
                         f"it adds at most {most} > {weight}, and cat lower {lower} "
                         f"is below cat upper {upper}")


def _triple(classes) -> str:
    """A listed triple as its three records; any record renders."""
    return "<{!r}, {!r}, {!r}>".format(*classes)
