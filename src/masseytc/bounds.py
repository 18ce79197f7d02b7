"""Certified bounds for LS-category and topological complexity.

Everything here is normalized ("cat of a point is 1, TC of a point is 1")
and computed inside a truncated model, so the lower bounds are honest
statements about the ring and the recorded certificates replay without any
reference to how they were found.

Lower bounds come from four weight rules on cohomology classes:

  R1  positive classes have category weight >= 1; zero-divisors of the
      self-tensor ring have TC weight >= 1,
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

A nonzero product of weighted facts with total weight W certifies
cat >= W + 1 (or TC >= W + 1 on the tensor ring); cup-length and
zero-divisors cup-length are the all-weights-one special case.  Upper
bounds are dimensional: cat <= dim + 1 always, cat <= the James bound for
simply connected models, and TC <= 2 cat - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cohomology import CohClass, CohomologyRing, KunnethMap, cup_chain, heaviest_chain
from .linalg import ONE, ZERO, SparseMatrix, Subspace, kernel
from .massey import massey_triple, scan_triples


def normalize_coords(coords) -> tuple:
    """Projective normalization: scale so the first nonzero entry is 1;
    zeros become the shared ``ZERO``, cheap to compare in a fact key."""
    for c in coords:
        if c:
            inv = ONE / c
            return tuple(v * inv if v else ZERO for v in coords)
    return tuple(coords)


def _normalize_class(cls: CohClass) -> CohClass:
    return CohClass(cls.degree, normalize_coords(cls.coords))


def _class_data(cls: CohClass) -> tuple:
    return (cls.degree, tuple(cls.coords))


@dataclass(frozen=True)
class WeightFact:
    """One weighted class with enough provenance to replay its rule.

    ``cls`` is stored projectively normalized; weights are invariant under
    nonzero scaling, so scalar multiples share one fact.  ``inputs`` is the
    rule-specific evidence: ("basis",), ("bar", base class data),
    ("massey", a, b, c), ("product", key, key) or ("transfer", key, k).
    """

    kind: str  # "cat" on the base ring, "tc" on the self-tensor ring
    cls: CohClass
    weight: int
    rule: str  # "R1" | "R2" | "R3" | "R4-transfer"
    inputs: tuple

    @property
    def key(self) -> tuple:
        return (self.kind, self.cls.degree, self.cls.coords)


def _add_fact(facts: dict, kind: str, cls: CohClass, weight: int,
              rule: str, inputs: tuple):
    nc = _normalize_class(cls)
    if nc.is_zero():
        return None
    key = (kind, nc.degree, nc.coords)  # hashed once, unless replaced
    fact = WeightFact(kind, nc, weight, rule, inputs)
    if facts.setdefault(key, fact).weight < weight:
        facts[key] = fact
    return key


# ------------------------------------------------------------ zero-divisors


def bar(kmap: KunnethMap, cls: CohClass) -> CohClass:
    """The basic zero-divisor 1 (x) u - u (x) 1 of a self-tensor ring."""
    if kmap.ha is not kmap.hb:
        raise ValueError("zero-divisors need a self-tensor ring")
    one = kmap.ha.basis_class(0, 0)
    return kmap.cross(one, cls).sub(kmap.cross(cls, one))


def zero_divisor_ideal(kmap: KunnethMap) -> dict:
    """Kernel of the multiplication map per positive degree.

    Degrees above the base truncation have zero target, so everything up
    there is a zero-divisor; that is the honest answer for the truncated
    ring and the chain arithmetic below never leaves the tensor truncation.
    """
    ht, ha = kmap.ht, kmap.ha
    if ha is not kmap.hb:
        raise ValueError("zero-divisors need a self-tensor ring")
    out = {}
    for ell in range(1, ht.truncation + 1):
        n = ht.dim(ell)
        if n == 0:
            continue
        # column (p, i, j) is e_i * e_j, read off the table
        data = {(idx, col): x for col, (p, i, j) in enumerate(ht.pairs[ell])
                for idx, x in ha.cup_basis(p, i, ell - p, j)}
        out[ell] = kernel(SparseMatrix.from_dict(ha.dim(ell), n, data))
    return {ell: sub for ell, sub in out.items() if sub.dim}


def indecomposables(ring: CohomologyRing) -> list:
    """Basis classes that generate H^+ as an algebra.

    In each degree d these are the e_j whose index j is not a pivot of the
    decomposables D^d = sum_{0<i<d} H^i H^(d-i): unit vectors off the
    pivots of an echelon basis span a complement of it.
    """
    out = []
    for d in range(1, ring.truncation + 1):
        n = ring.dim(d)
        if not n:
            continue
        dec = Subspace.zero(n)
        for i in range(1, d):
            if ring.dim(i) and ring.dim(d - i):
                dec = dec.add(ring.products(i, d - i))
        pivots = set(dec.pivots)
        out.extend(ring.basis_class(d, j) for j in range(n) if j not in pivots)
    return out


def zero_divisors_cup_length(kmap: KunnethMap) -> tuple:
    """(zcl, witness chain of zero-divisors, their product).

    zcl is the largest k with I^k != 0, for I the zero-divisor ideal.  I is
    generated by the bars of the indecomposables of H^+, so I^k != 0
    exactly when some product of k such bars is nonzero, and zcl is the
    longest such product.  The witness is the first chain of that length
    among the basis classes of I itself, so it does not depend on which
    generators were chosen.
    """
    ht = kmap.ht
    bars = [bar(kmap, u) for u in indecomposables(kmap.ha)]
    k = heaviest_chain(ht, bars, [1] * len(bars))[0]
    ideal = zero_divisor_ideal(kmap)
    basis = [CohClass(d, v) for d in sorted(ideal) for v in ideal[d].basis_vectors()]
    _, picked, prod = heaviest_chain(ht, basis, [1] * len(basis), goal=k)
    return k, tuple(basis[i] for i in picked), prod


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


def _r2_round(ring: CohomologyRing, facts: dict) -> None:
    # one round of pairwise products; longer chains are explored by the
    # weighted search, this just seeds composite facts (and Massey middles)
    base = [f for _, f in sorted(facts.items())]  # unique keys: no fact compared
    for i, f1 in enumerate(base):
        for f2 in base[i:]:
            deg = f1.cls.degree + f2.cls.degree
            if deg > ring.truncation:
                continue
            prod = ring.cup(f1.cls, f2.cls)
            if prod.is_zero():
                continue
            _add_fact(facts, f1.kind, prod, f1.weight + f2.weight,
                      "R2", ("product", f1.key, f2.key))


def cat_weight_facts(ring: CohomologyRing, cosets: list = None) -> dict:
    """Category-weight facts: R1 atoms, R3 Massey values, one R2 round.

    ``cosets`` is the Massey scan to draw R3 facts from; by default every
    triple of basis classes within the truncation.
    """
    facts = {}
    for k in range(1, ring.truncation + 1):
        for i in range(ring.dim(k)):
            _add_fact(facts, "cat", ring.basis_class(k, i), 1, "R1", ("basis",))
    if cosets is None:
        cosets = scan_triples(ring)
    for coset in cosets:
        if coset.is_nonzero():
            _add_fact(facts, "cat", coset.value, 2, "R3",
                      ("massey", _class_data(coset.alpha),
                       _class_data(coset.beta), _class_data(coset.gamma)))
    _r2_round(ring, facts)
    return facts


def tc_weight_facts(ring: CohomologyRing, kmap: KunnethMap,
                    cat_facts: dict) -> dict:
    """TC-weight facts on the self-tensor ring: bars, transfers, R2 round."""
    facts = {}
    for k in range(1, ring.truncation + 1):
        for i in range(ring.dim(k)):
            e = ring.basis_class(k, i)
            _add_fact(facts, "tc", bar(kmap, e), 1, "R1", ("bar", _class_data(e)))
    for _, f in sorted(cat_facts.items()):
        for k in range(f.weight, 0, -1):
            transferred, _ = transfer_weight(ring, kmap, f, k)
            if transferred is not None:
                _add_fact(facts, "tc", transferred.cls, transferred.weight,
                          transferred.rule, transferred.inputs)
                break
    _r2_round(kmap.ht, facts)
    return facts


def weighted_lower_bound(ring: CohomologyRing, facts: dict) -> tuple:
    """Heaviest nonzero product of weighted facts.

    Returns (best total weight, chain of fact keys, product class); the
    associated bound is best + 1, and an empty chain has the unit as its
    product.  This is :func:`heaviest_chain` over the facts in ascending
    key order, repeats allowed, so the outcome is deterministic.
    """
    atoms = [f for _, f in sorted(facts.items())]
    best, picked, prod = heaviest_chain(ring, [f.cls for f in atoms],
                                        [f.weight for f in atoms])
    return best, tuple(atoms[i].key for i in picked), prod


def rudyak_lower_bound(kmap: KunnethMap, facts: dict, best: int) -> tuple:
    """Massey rule on the tensor ring, scanning for strict improvements.

    Outer slots run over bar-type facts (plain bars and transferred ones),
    the middle slot over the whole pool, and a triple is only computed when
    wgt(beta) + min(wgt(alpha), wgt(gamma)) + 1 would beat the bound we
    already hold; a beta that cannot beat it with the heaviest bars is
    skipped whole.  Returns (possibly improved bound, certificate or None).
    """
    ht = kmap.ht
    pool = [f for _, f in sorted(facts.items())]
    bars = [f for f in pool if f.inputs and f.inputs[0] in ("bar", "transfer")]
    top = max((f.weight for f in bars), default=0)
    cert = None
    for beta in pool:
        if beta.weight + top + 1 <= best:
            continue  # no triple with this middle slot can beat the bound
        for ia, alpha in enumerate(bars):
            for gamma in bars[ia:]:  # mirrored triples agree up to sign
                potential = beta.weight + min(alpha.weight, gamma.weight) + 1
                if potential <= best:
                    continue
                target = alpha.cls.degree + beta.cls.degree + gamma.cls.degree - 1
                if target > ht.truncation:
                    continue
                coset = massey_triple(ht, alpha.cls, beta.cls, gamma.cls)
                if coset.is_nonzero():
                    best = potential
                    cert = {"rule": "massey-rudyak", "kind": "tc", "bound": best,
                            "alpha": alpha.key, "beta": beta.key,
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
    cup_witness: tuple  # ((degree, coords), ...)
    zcl: int
    zcl_witness: tuple
    cat_lower: int
    cat_upper: int
    tc_lower: int
    tc_upper: int
    cat_facts: tuple  # WeightFacts sorted by key
    tc_facts: tuple
    certificates: tuple  # rule dictionaries, see replay_ledger
    # Results the ledger was built from, kept for the report.  Both follow
    # from the fields above (the scan from the ring and massey_cap, the
    # product from zcl_witness), so they stay out of to_dict and equality.
    massey_cosets: tuple = field(compare=False, repr=False)
    zcl_product: CohClass = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        """Pure JSON payload (Fractions become strings)."""
        return {**self.summary_dict(),
                "cat_facts": [_fact_dict(f) for f in self.cat_facts],
                "tc_facts": [_fact_dict(f) for f in self.tc_facts]}

    def summary_dict(self) -> dict:
        """The JSON payload without the two fact pools."""
        return {
            "model": self.model,
            "space_dim": self.space_dim,
            "connectivity": self.connectivity,
            "dims": list(self.dims),
            "tensor_dims": list(self.tensor_dims),
            "massey_cap": self.massey_cap,
            "cup_length": self.cup_length,
            "cup_witness": _jsonify(self.cup_witness),
            "zcl": self.zcl,
            "zcl_witness": _jsonify(self.zcl_witness),
            "cat": [self.cat_lower, self.cat_upper],
            "tc": [self.tc_lower, self.tc_upper],
            "certificates": _jsonify(self.certificates),
        }


def _jsonify(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_jsonify(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    return x


def _fact_dict(f: WeightFact) -> dict:
    return {"kind": f.kind, "degree": f.cls.degree,
            "coords": _jsonify(f.cls.coords), "weight": f.weight,
            "rule": f.rule, "inputs": _jsonify(f.inputs)}


LOWER_RULES = ("cup-chain", "zcl-chain", "weighted-product", "massey-rudyak")
UPPER_RULES = ("dimension", "james", "cat-product")

# Fields each certificate rule carries besides rule, kind and bound.
_CERT_FIELDS = {
    "cup-chain": ("chain",),
    "zcl-chain": ("chain",),
    "weighted-product": ("factors", "product"),
    "massey-rudyak": ("alpha", "beta", "gamma"),
    "dimension": (),
    "james": (),
    "cat-product": ("cat_upper",),
}


# Entries each fact's evidence carries after its tag, see WeightFact.
_EVIDENCE_ENTRIES = {"basis": 0, "bar": 1, "massey": 3, "product": 2, "transfer": 2}


def build_ledger(ring: CohomologyRing, kmap: KunnethMap,
                 massey_cap: int = None) -> BoundLedger:
    """Compute all bounds for one model and record their certificates."""
    if kmap.ha is not ring or kmap.hb is not ring:
        raise ValueError("the Kunneth map must square the given ring")
    if massey_cap is not None and massey_cap < 0:
        raise ValueError(f"the Massey degree cap must be non-negative, not {massey_cap}")
    cap = ring.truncation if massey_cap is None else min(massey_cap, ring.truncation)
    space_dim = ring.dga.space_dim
    if space_dim is None:
        space_dim = ring.truncation
    conn = ring.connectivity()
    certs = []

    cl, cwit, _ = cup_chain(ring)
    certs.append({"rule": "cup-chain", "kind": "cat", "bound": cl + 1,
                  "chain": tuple(_class_data(c) for c in cwit)})
    cosets = tuple(scan_triples(ring, cap))
    cat_facts = cat_weight_facts(ring, cosets)
    wcat, cat_chain, cat_prod = weighted_lower_bound(ring, cat_facts)
    if cat_chain:
        certs.append({"rule": "weighted-product", "kind": "cat",
                      "bound": wcat + 1, "factors": cat_chain,
                      "product": _class_data(cat_prod)})
    cat_lower = max(cl + 1, wcat + 1)

    cat_upper = space_dim + 1
    certs.append({"rule": "dimension", "kind": "cat", "bound": cat_upper})
    if ring.dga.simply_connected and conn >= 1:
        j = james_upper(space_dim, conn)
        certs.append({"rule": "james", "kind": "cat", "bound": j})
        cat_upper = min(cat_upper, j)

    zk, zwit, zprod = zero_divisors_cup_length(kmap)
    certs.append({"rule": "zcl-chain", "kind": "tc", "bound": zk + 1,
                  "chain": tuple(_class_data(c) for c in zwit)})
    tc_facts = tc_weight_facts(ring, kmap, cat_facts)
    wtc, tc_chain, tc_prod = weighted_lower_bound(kmap.ht, tc_facts)
    if tc_chain:
        certs.append({"rule": "weighted-product", "kind": "tc",
                      "bound": wtc + 1, "factors": tc_chain,
                      "product": _class_data(tc_prod)})
    tc_lower = max(zk + 1, wtc + 1)
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
        cup_witness=tuple(_class_data(c) for c in cwit),
        zcl=zk,
        zcl_witness=tuple(_class_data(c) for c in zwit),
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
    rule and each certificate's product or triple is recomputed.
    """
    ht = kmap.ht
    fact_by_key = {}
    for f in ledger.cat_facts + ledger.tc_facts:
        fact_by_key[f.key] = f

    def ring_of(kind: str) -> CohomologyRing:
        return ring if kind == "cat" else ht

    verified = set()

    def fail(f, msg):
        raise ValueError(f"fact {f.key} failed replay: {msg}")

    def inputs_of(f: WeightFact) -> list:
        # the pool facts f's evidence rests on, once its shape checks out
        if f.cls.is_zero() or f.cls.degree < 1:
            fail(f, "class is zero or of degree 0")
        tag = f.inputs[0] if f.inputs else None
        entries = _EVIDENCE_ENTRIES.get(tag)
        if entries is not None and len(f.inputs) != entries + 1:
            fail(f, f"{tag} evidence needs {entries} entries after its tag, "
                    f"not {len(f.inputs) - 1}")
        keys = {"product": f.inputs[1:], "transfer": f.inputs[1:2]}.get(tag, ())
        found = [fact_by_key.get(key) for key in keys]
        if None in found:
            fail(f, f"{tag} evidence names a fact that is not in the fact pool")
        return found

    def verify_fact(f: WeightFact, inputs: list) -> None:
        rg = ring_of(f.kind)
        tag = f.inputs[0] if f.inputs else None
        if f.rule == "R1" and tag == "basis":
            if f.kind != "cat" or f.weight != 1:
                fail(f, "R1 basis facts are category weight 1")
        elif f.rule == "R1" and tag == "bar":
            deg, coords = f.inputs[1]
            b = bar(kmap, CohClass(deg, coords))
            if _normalize_class(b).coords != f.cls.coords or f.weight != 1:
                fail(f, "bar does not reproduce the recorded class at weight 1")
            if not kmap.diagonal_map(f.cls).is_zero():
                fail(f, "recorded class is not a zero-divisor")
        elif f.rule == "R3" and tag == "massey":
            classes = [CohClass(d, c) for d, c in f.inputs[1:]]
            coset = massey_triple(rg, *classes)
            if not coset.is_nonzero():
                fail(f, "Massey triple is not defined and nonzero")
            if _normalize_class(coset.value).coords != f.cls.coords:
                fail(f, "Massey value differs from the recorded class")
            if f.weight != 2:
                fail(f, "R3 facts carry weight exactly 2")
        elif f.rule == "R2" and tag == "product":
            f1, f2 = inputs
            prod = rg.cup(f1.cls, f2.cls)
            if _normalize_class(prod).coords != f.cls.coords:
                fail(f, "product differs from the recorded class")
            if f.weight != f1.weight + f2.weight:
                fail(f, "product weight is not the sum of its factors")
        elif f.rule == "R4-transfer" and tag == "transfer":
            transferred, reason = transfer_weight(ring, kmap, inputs[0], f.inputs[2])
            if transferred is None:
                fail(f, f"transfer hypotheses fail on replay: {reason}")
            if transferred.cls.coords != f.cls.coords or transferred.weight != f.weight:
                fail(f, "transfer reproduces a different fact")
        else:
            fail(f, f"unknown rule/evidence combination {f.rule}/{tag}")

    # a fact is verified after the facts its evidence names; ``path`` holds
    # the facts still waiting on their inputs, innermost last
    for fact in ledger.cat_facts + ledger.tc_facts:
        path = [] if fact.key in verified else [fact]
        while path:
            f = path[-1]
            inputs = inputs_of(f)
            waiting = [g for g in inputs if g.key not in verified]
            if not waiting:
                verify_fact(f, inputs)
                verified.add(f.key)
                path.pop()
            elif waiting[0].key in {g.key for g in path}:
                fail(f, f"evidence leads back to fact {waiting[0].key}")
            else:
                path.append(waiting[0])

    def cert_fact(rule: str, kind: str, key) -> WeightFact:
        f = fact_by_key.get(key)
        if f is None:
            raise ValueError(f"{rule} certificate names fact {key}, "
                             "which is not in the fact pool")
        if f.kind != kind:
            raise ValueError(f"{rule} certificate for {kind} names the {f.kind} fact {key}")
        return f

    def fold_chain(rg: CohomologyRing, chain) -> CohClass:
        out = rg.basis_class(0, 0)
        for deg, coords in chain:
            out = rg.cup(out, CohClass(deg, coords))
        return out

    lower = {"cat": [], "tc": []}
    upper = {"cat": [], "tc": []}
    for cert in ledger.certificates:
        rule = cert.get("rule")
        if rule not in _CERT_FIELDS:
            raise ValueError(f"unknown certificate rule {rule!r}")
        missing = [k for k in ("kind", "bound") + _CERT_FIELDS[rule] if k not in cert]
        if missing:
            raise ValueError(f"{rule} certificate lacks {', '.join(missing)}")
        kind, bound = cert["kind"], cert["bound"]
        if kind not in lower:
            raise ValueError(f"{rule} certificate has unknown kind {kind!r}")
        if rule == "cup-chain":
            prod = fold_chain(ring, cert["chain"])
            if prod.is_zero() or bound != len(cert["chain"]) + 1:
                raise ValueError("cup-chain certificate failed replay")
            if len(cert["chain"]) != ledger.cup_length:
                raise ValueError("cup-chain length disagrees with the ledger")
        elif rule == "zcl-chain":
            for deg, coords in cert["chain"]:
                if not kmap.diagonal_map(CohClass(deg, coords)).is_zero():
                    raise ValueError("zcl-chain factor is not a zero-divisor")
            prod = fold_chain(ht, cert["chain"])
            if prod.is_zero() or bound != len(cert["chain"]) + 1:
                raise ValueError("zcl-chain certificate failed replay")
            if len(cert["chain"]) != ledger.zcl:
                raise ValueError("zcl-chain length disagrees with the ledger")
        elif rule == "weighted-product":
            facts = [cert_fact(rule, kind, k) for k in cert["factors"]]
            rg = ring_of(kind)
            prod = fold_chain(rg, [_class_data(f.cls) for f in facts])
            if prod.is_zero():
                raise ValueError("weighted product vanished on replay")
            if _class_data(prod) != tuple(cert["product"]):
                raise ValueError("weighted product differs from the record")
            if bound != sum(f.weight for f in facts) + 1:
                raise ValueError("weighted bound does not match the weights")
        elif rule == "massey-rudyak":
            fa, fb, fg = (cert_fact(rule, kind, cert[k]) for k in ("alpha", "beta", "gamma"))
            coset = massey_triple(ht, fa.cls, fb.cls, fg.cls)
            if not coset.is_nonzero():
                raise ValueError("Massey certificate triple vanished on replay")
            if bound != fb.weight + min(fa.weight, fg.weight) + 1:
                raise ValueError("Massey bound does not match the weights")
        elif rule == "dimension":
            if bound != ledger.space_dim + 1:
                raise ValueError("dimension certificate failed replay")
        elif rule == "james":
            if ring.connectivity() != ledger.connectivity:
                raise ValueError("connectivity changed under replay")
            if bound != james_upper(ledger.space_dim, ledger.connectivity):
                raise ValueError("James certificate failed replay")
        elif rule == "cat-product":
            if cert["cat_upper"] != ledger.cat_upper or bound != 2 * ledger.cat_upper - 1:
                raise ValueError("cat-product certificate failed replay")
        (lower if rule in LOWER_RULES else upper)[kind].append(bound)

    for side, by_kind in (("lower", lower), ("upper", upper)):
        for kind, found in by_kind.items():
            if not found:
                raise ValueError(f"ledger has no {side} certificate for {kind}")
    if max(lower["cat"]) != ledger.cat_lower or max(lower["tc"]) != ledger.tc_lower:
        raise ValueError("replayed lower bounds disagree with the ledger")
    if min(upper["cat"]) != ledger.cat_upper or min(upper["tc"]) != ledger.tc_upper:
        raise ValueError("replayed upper bounds disagree with the ledger")
    return True
