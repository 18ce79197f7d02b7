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
transfers.  R2 lives in chains: a nonzero product of pool facts with
total weight W certifies cat >= W + 1 (or TC >= W + 1 on the tensor
ring), and the middle slot beta of the Massey rule is such a chain too.
Cup-length and zero-divisors cup-length are the all-weights-one special
case.

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

Upper bounds are dimensional: cat <= dim + 1 always, cat <= the
James bound for simply connected models, and TC <= 2 cat - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from .cohomology import CohClass, CohomologyRing, KunnethMap, cup_chain, heaviest_chain
from .linalg import Subspace, inverse, is_rational
from .linalg import kernel  # noqa: F401  bench/tests/test_bench_trace.py reads bounds.kernel
from .massey import massey_triple, scan_triples


def _normalize_class(cls: CohClass) -> CohClass:
    """The multiple whose first nonzero coefficient is 1; zero stays zero."""
    return cls.scale(inverse(cls.pairs[0][1])) if cls.pairs else cls


def _class_data(cls: CohClass) -> tuple:
    return (cls.degree, cls.coords)


@dataclass(frozen=True)
class WeightFact:
    """One weighted class with enough provenance to replay its rule.

    ``cls`` is stored projectively normalized; weights are invariant under
    nonzero scaling, so scalar multiples share one fact.  ``inputs`` is the
    rule-specific evidence: ("basis",), ("bar", base class data),
    ("massey", a, b, c) or ("transfer", key, k).  Products of facts are
    never facts; they appear only as chains of keys in a certificate.
    """

    kind: str  # "cat" on the base ring, "tc" on the self-tensor ring
    cls: CohClass
    weight: int
    rule: str  # "R1" | "R3" | "R4-transfer"
    inputs: tuple

    @property
    def key(self) -> tuple:
        return (self.kind, self.cls.degree, self.cls.coords)


def _add_fact(facts: dict, kind: str, cls: CohClass, weight: int,
              rule: str, inputs: tuple) -> None:
    nc = _normalize_class(cls)
    if nc.is_zero():
        return
    key = (kind, nc.degree, nc.coords)  # hashed once, unless replaced
    fact = WeightFact(kind, nc, weight, rule, inputs)
    if facts.setdefault(key, fact).weight < weight:
        facts[key] = fact


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
                                     goal=2 * cup_chain(kmap.ha)[0])
    return k, tuple(bars[i] for i in picked), prod


# ------------------------------------------------------------ weight rules


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
    for i in range(1, ell):
        if ring.dim(i) and ring.dim(ell - i) and ring.products(i, ell - i).dim:
            return None, (f"cup products H^{i} * H^{ell - i} are nonzero, "
                          f"so degree {ell} is not product-free")
    b = bar(kmap, fact.cls)
    if b.is_zero():
        return None, "bar of the class vanishes"
    return WeightFact("tc", _normalize_class(b), k, "R4-transfer",
                      ("transfer", fact.key, k)), None


def cat_weight_facts(ring: CohomologyRing, cosets: list) -> dict:
    """Category-weight atoms: R1 basis classes and R3 Massey values drawn
    from ``cosets``, a Massey scan of the ring (see
    :func:`~masseytc.massey.scan_triples`)."""
    facts = {}
    for e in ring.positive_basis():
        _add_fact(facts, "cat", e, 1, "R1", ("basis",))
    for coset in cosets:
        if coset.is_nonzero():
            _add_fact(facts, "cat", coset.value, 2, "R3",
                      ("massey", _class_data(coset.alpha),
                       _class_data(coset.beta), _class_data(coset.gamma)))
    return facts


def tc_weight_facts(ring: CohomologyRing, kmap: KunnethMap,
                    cat_facts: dict) -> dict:
    """TC-weight atoms on the self-tensor ring: bars and R4 transfers."""
    facts = {}
    for e in ring.positive_basis():
        _add_fact(facts, "tc", bar(kmap, e), 1, "R1", ("bar", _class_data(e)))
    # a fact of degree l can only move at weight k = l // (r + 1), the one
    # k whose window k(r+1) <= l < (k+1)(r+1) holds it
    width = ring.connectivity() + 1
    for _, f in sorted(cat_facts.items()):
        transferred, _ = transfer_weight(ring, kmap, f, f.cls.degree // width)
        if transferred is not None:
            _add_fact(facts, "tc", transferred.cls, transferred.weight,
                      transferred.rule, transferred.inputs)
    return facts


def weighted_lower_bound(ring: CohomologyRing, facts: dict, length: int = None) -> tuple:
    """Heaviest nonzero product of weighted facts.

    Returns (best total weight, chain of fact keys, product class); the
    associated bound is best + 1, and an empty chain has the unit as its
    product.  This is :func:`heaviest_chain` over the facts in ascending
    key order, repeats allowed, so the outcome is deterministic.
    ``length`` is the most factors a nonzero product of facts can have
    (cup length for cat facts, zcl for tc facts, see the module
    docstring); the search stops once a chain weighs ``length`` times the
    largest fact weight.
    """
    atoms = [f for _, f in sorted(facts.items())]
    weights = [f.weight for f in atoms]
    goal = None if length is None else length * max(weights, default=0)
    best, picked, prod = heaviest_chain(ring, [f.cls for f in atoms], weights, goal)
    return best, tuple(atoms[i].key for i in picked), prod


def rudyak_lower_bound(kmap: KunnethMap, facts: dict, best: int) -> tuple:
    """Massey rule on the tensor ring, scanning for strict improvements.

    Outer slots run over the pool's facts, which are all bars (plain or
    transferred).  The middle slot beta runs over the pool's atoms, then
    over the nonzero products of two atoms, whose weight is the sum of the
    two (rule R2).  A beta that cannot beat the bound we already hold even
    with the heaviest bars is skipped before it is multiplied, and a triple
    is only computed when wgt(beta) + min(wgt(alpha), wgt(gamma)) + 1 would
    beat it.  Returns (possibly improved bound, certificate or None); the
    certificate records beta as its chain of fact keys.
    """
    top = max((f.weight for f in facts.values()), default=0)
    if 3 * top + 1 <= best:
        return best, None  # a triple weighs at most 2 * top + top + 1
    ht = kmap.ht
    pool = [f for _, f in sorted(facts.items())]
    chains = [(f,) for f in pool] + [(f, g) for i, f in enumerate(pool) for g in pool[i:]]
    cert = None
    for betas in chains:
        weight = sum(f.weight for f in betas)
        if weight + top + 1 <= best:
            continue  # no triple with this middle slot can beat the bound
        beta = reduce(ht.cup, (f.cls for f in betas))
        if beta.is_zero():
            continue
        for ia, alpha in enumerate(pool):
            for gamma in pool[ia:]:  # mirrored triples agree up to sign
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
    """Deterministic record of every bound with replayable certificates."""

    model: str
    space_dim: int
    connectivity: int
    dims: tuple
    tensor_dims: tuple
    massey_cap: int
    cup_length: int
    cup_witness: tuple  # CohClasses of the cup-chain certificate
    zcl: int
    zcl_witness: tuple  # CohClasses of the zcl-chain certificate
    cat_lower: int
    cat_upper: int
    tc_lower: int
    tc_upper: int
    cat_facts: tuple  # WeightFacts sorted by key
    tc_facts: tuple
    certificates: tuple  # rule dictionaries, see replay_ledger
    # Results the ledger was built from, kept for the report.  Both follow
    # from the fields above (the scan from the ring and massey_cap, the
    # product from zcl_witness), so they stay out of report.ledger_section
    # and equality; replay_ledger recomputes and checks them.
    massey_cosets: tuple = field(compare=False, repr=False)
    zcl_product: CohClass = field(compare=False, repr=False)


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


def _recorded_class(rg: CohomologyRing, data, record: str) -> CohClass:
    """The class a record gives as (degree, coords), once its degree is in
    1..N of ``rg`` and it has exactly dim(degree) coordinates, each an int
    or a Fraction; otherwise a ValueError that names ``record``."""
    try:
        deg, coords = data
        if (type(deg) is int and 1 <= deg <= rg.truncation and len(coords) == rg.dim(deg)
                and all(map(is_rational, coords))):
            return CohClass.from_coords(deg, coords)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{record} is not a class of degree 1..{rg.truncation} "
                     "with one rational coordinate per basis class")


def _space_dim(ring: CohomologyRing) -> int:
    """The model's declared dimension, or its truncation when it has none."""
    return ring.truncation if ring.dga.space_dim is None else ring.dga.space_dim


def _lower_block(kind: str, rg: CohomologyRing, length: int, witness: tuple,
                 facts: dict, certs: list) -> int:
    """One fibration's lower bound on the ring ``rg`` of ker p*: certify its
    longest chain in ker p* (cup length or zcl, with its ``witness``) and
    its heaviest product of ``facts``, and return the larger bound."""
    certs.append({"rule": "cup-chain" if kind == "cat" else "zcl-chain", "kind": kind,
                  "bound": length + 1, "chain": tuple(_class_data(c) for c in witness)})
    weight, chain, prod = weighted_lower_bound(rg, facts, length)
    if chain:
        certs.append({"rule": "weighted-product", "kind": kind, "bound": weight + 1,
                      "factors": chain, "product": _class_data(prod)})
    return max(length + 1, weight + 1)


def build_ledger(ring: CohomologyRing, kmap: KunnethMap,
                 massey_cap: int = None) -> BoundLedger:
    """Compute all bounds for one model and record their certificates."""
    if kmap.ha is not ring or kmap.hb is not ring:
        raise ValueError("the Kunneth map must square the given ring")
    if massey_cap is not None and massey_cap < 0:
        raise ValueError(f"the Massey degree cap must be non-negative, not {massey_cap}")
    cap = ring.truncation if massey_cap is None else min(massey_cap, ring.truncation)
    space_dim = _space_dim(ring)
    conn = ring.connectivity()
    certs = []

    cl, cwit, _ = cup_chain(ring)
    cosets = tuple(scan_triples(ring, cap))
    cat_facts = cat_weight_facts(ring, cosets)
    cat_lower = _lower_block("cat", ring, cl, cwit, cat_facts, certs)

    cat_upper = space_dim + 1
    certs.append({"rule": "dimension", "kind": "cat", "bound": cat_upper})
    if ring.dga.simply_connected and conn >= 1:
        j = james_upper(space_dim, conn)
        certs.append({"rule": "james", "kind": "cat", "bound": j})
        cat_upper = min(cat_upper, j)

    zk, zwit, zprod = zero_divisors_cup_length(kmap)
    tc_facts = tc_weight_facts(ring, kmap, cat_facts)
    tc_lower = _lower_block("tc", kmap.ht, zk, zwit, tc_facts, certs)
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
        cup_length=cl,
        cup_witness=cwit,
        zcl=zk,
        zcl_witness=zwit,
        cat_lower=cat_lower,
        cat_upper=cat_upper,
        tc_lower=tc_lower,
        tc_upper=tc_upper,
        cat_facts=tuple(f for _, f in sorted(cat_facts.items())),
        tc_facts=tuple(f for _, f in sorted(tc_facts.items())),
        certificates=tuple(certs),
        massey_cosets=cosets,
        zcl_product=zprod,
    )


def replay_ledger(ledger: BoundLedger, ring: CohomologyRing,
                  kmap: KunnethMap) -> bool:
    """Re-execute every fact and certificate; raise on any mismatch.

    This is the independent acceptance path for a ledger: nothing from the
    original search is trusted, each weight is rebuilt from its recorded
    rule, each certificate's product or triple is recomputed, and every
    summary field the ledger section prints is checked against the ring
    or against the certificate that gives it.  So are the Massey scan and
    the zcl product that the report prints beside it.
    """
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
    for name in ("cat_lower", "cat_upper", "tc_lower", "tc_upper", "cup_length", "zcl"):
        value = getattr(ledger, name)
        if type(value) is not int:
            raise ValueError(f"the ledger gives {name} as {value!r}, not an integer")
    for f in ledger.cat_facts + ledger.tc_facts:  # a key holds both, so check them first
        if f.kind not in ("cat", "tc"):
            raise ValueError(f"a fact has kind {f.kind!r}, not 'cat' or 'tc'")
        if type(f.cls) is not CohClass:
            raise ValueError(f"a {f.kind} fact holds its class as a {type(f.cls).__name__}, "
                             "not a CohClass")
    fact_by_key = {f.key: f for f in ledger.cat_facts + ledger.tc_facts}

    def fact_at(key):
        try:
            return fact_by_key.get(key)
        except TypeError:  # an unhashable key names no fact
            return None

    def fail(f, msg):
        raise ValueError(f"fact {f.key} failed replay: {msg}")

    def verify_fact(f: WeightFact, kind: str) -> None:
        if f.kind != kind:
            fail(f, f"a {f.kind} fact sits in the {kind} pool")
        if type(f.weight) is not int:
            fail(f, f"weight {f.weight!r} is not an integer")
        if not isinstance(f.inputs, tuple):
            fail(f, f"evidence {f.inputs!r} is not a tuple")
        rg = ring if kind == "cat" else ht
        cls = _recorded_class(rg, _class_data(f.cls), f"the class of fact {f.key}")
        if cls.is_zero():
            fail(f, "class is zero")
        if _normalize_class(cls) != f.cls:
            fail(f, "class is not stored normalized, as canonical pairs")
        tag = f.inputs[0] if f.inputs else None
        entries = _EVIDENCE_ENTRIES.get(tag)
        if entries is not None and len(f.inputs) != entries + 1:
            fail(f, f"{tag} evidence needs {entries} entries after its tag, "
                    f"not {len(f.inputs) - 1}")
        if f.rule == "R1" and tag == "basis":
            if f.kind != "cat" or f.weight != 1:
                fail(f, "R1 basis facts are category weight 1")
        elif f.rule == "R1" and tag == "bar":
            b = bar(kmap, _recorded_class(ring, f.inputs[1], f"the bar evidence of fact {f.key}"))
            if _normalize_class(b) != f.cls or f.weight != 1:
                fail(f, "bar does not reproduce the recorded class at weight 1")
            if not kmap.diagonal_map(f.cls).is_zero():
                fail(f, "recorded class is not a zero-divisor")
        elif f.rule == "R3" and tag == "massey":
            classes = [_recorded_class(rg, x, f"the massey evidence of fact {f.key}")
                       for x in f.inputs[1:]]
            coset = massey_triple(rg, *classes)
            if coset.target_degree > cap:
                fail(f, f"Massey triple lands in degree {coset.target_degree}, "
                        f"above massey_cap {cap}")
            if not coset.is_nonzero():
                fail(f, "Massey triple is not defined and nonzero")
            if _normalize_class(coset.value) != f.cls:
                fail(f, "Massey value differs from the recorded class")
            if f.weight != 2:
                fail(f, "R3 facts carry weight exactly 2")
        elif f.rule == "R4-transfer" and tag == "transfer":
            # the source is replayed in its own turn; it must be a cat
            # fact, and a transfer is a tc fact, so no evidence loops
            source = fact_at(f.inputs[1])
            if source is None:
                fail(f, "transfer evidence names a fact that is not in the fact pool")
            if type(f.inputs[2]) is not int:
                fail(f, f"transfer evidence gives k as {f.inputs[2]!r}, not an integer")
            transferred, reason = transfer_weight(ring, kmap, source, f.inputs[2])
            if transferred is None:
                fail(f, f"transfer hypotheses fail on replay: {reason}")
            if transferred.key != f.key or transferred.weight != f.weight:
                fail(f, "transfer reproduces a different fact")
        else:
            fail(f, f"unknown rule/evidence combination {f.rule}/{tag}")

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

    def chain_classes(rg: CohomologyRing, chain, rule: str) -> list:
        if not isinstance(chain, (list, tuple)):
            raise ValueError(f"the chain of the {rule} certificate is not a list of classes")
        return [_recorded_class(rg, c, f"factor {i} of the {rule} certificate")
                for i, c in enumerate(chain)]

    def fold_chain(rg: CohomologyRing, chain: list) -> CohClass:
        return reduce(rg.cup, chain, rg.basis_class(0, 0))

    found = {(kind, side): [] for kind in ("cat", "tc") for side in ("lower", "upper")}
    chains = {}  # the replayed chain of each chain rule, and its product
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
            chain = chain_classes(rg, cert["chain"], rule)
            if kind == "tc" and not all(kmap.diagonal_map(c).is_zero() for c in chain):
                raise ValueError("zcl-chain factor is not a zero-divisor")
            prod = fold_chain(rg, chain)
            if prod.is_zero() or bound != len(chain) + 1:
                raise ValueError(f"{rule} certificate failed replay")
            if len(chain) != (ledger.cup_length if kind == "cat" else ledger.zcl):
                raise ValueError(f"{rule} length disagrees with the ledger")
            chains[rule] = (tuple(chain), prod)
        elif rule == "weighted-product":
            facts = cert_facts(rule, kind, cert["factors"], "factors")
            prod = fold_chain(rg, [f.cls for f in facts])
            if prod.is_zero():
                raise ValueError("weighted product vanished on replay")
            recorded = _recorded_class(rg, cert["product"],
                                       f"the product of the {kind} {rule} certificate")
            if prod != recorded:
                raise ValueError("weighted product differs from the record")
            if bound != sum(f.weight for f in facts) + 1:
                raise ValueError("weighted bound does not match the weights")
        elif rule == "massey-rudyak":
            fa, fg = (cert_fact(rule, kind, cert[k]) for k in ("alpha", "gamma"))
            betas = cert_facts(rule, kind, cert["beta"], "beta keys")
            if not betas:
                raise ValueError(f"the beta of the {kind} {rule} certificate is an empty chain")
            coset = massey_triple(ht, fa.cls, fold_chain(ht, [f.cls for f in betas]), fg.cls)
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
            if cert["cat_upper"] != ledger.cat_upper or bound != 2 * ledger.cat_upper - 1:
                raise ValueError("cat-product certificate failed replay")
        found[kind, side].append(bound)

    for kind in ("cat", "tc"):
        lower, upper = getattr(ledger, f"{kind}_lower"), getattr(ledger, f"{kind}_upper")
        for side, pick, recorded in (("lower", max, lower), ("upper", min, upper)):
            if not found[kind, side]:
                raise ValueError(f"ledger has no {side} certificate for {kind}")
            if pick(found[kind, side]) != recorded:
                raise ValueError(f"replayed {side} bounds disagree with the ledger")
        if lower > upper:
            raise ValueError(f"the {kind} lower bound {lower} exceeds its upper bound {upper}")

    for rule, name in (("cup-chain", "cup_witness"), ("zcl-chain", "zcl_witness")):
        if rule not in chains:
            raise ValueError(f"ledger has no {rule} certificate")
        if getattr(ledger, name) != chains[rule][0]:
            raise ValueError(f"{name} is not the chain of the {rule} certificate")
    if ledger.zcl_product != chains["zcl-chain"][1]:
        raise ValueError("zcl_product is not the product of the zcl_witness chain")
    if ledger.massey_cosets != tuple(scan_triples(ring, cap)):
        raise ValueError(f"massey_cosets are not the Massey scan of the ring "
                         f"up to massey_cap {cap}")
    return True
