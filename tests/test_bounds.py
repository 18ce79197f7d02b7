"""Weight rules, zero-divisors, and the certified bound ledgers.

Every number asserted here was either derived by hand from the ring tables
(bar-product signs, window arithmetic, the explicit zero-divisor chains) or
pinned after an independent hand-computation of the weighted search space;
the ledgers must reproduce them exactly and replay from their certificates.
"""

import dataclasses
import functools
import inspect
import json
import random
import types
from fractions import Fraction

import pytest

import masseytc.bounds
import masseytc.cohomology
import masseytc.linalg
from masseytc import report
from masseytc.bounds import (
    _RULES,
    LOWER_RULES,
    InconsistentBounds,
    WeightFact,
    _normalize_class,
    _recorded_class,
    bar,
    build_ledger,
    cat_weight_facts,
    indecomposables,
    james_upper,
    nonzero_products,
    replay_ledger,
    rudyak_lower_bound,
    tc_weight_facts,
    transfer_weight,
    weighted_lower_bound,
    zero_divisors_cup_length,
)
from masseytc.cohomology import CohClass, CohomologyRing, KunnethMap, heaviest_chain
from masseytc.dga import Cochain, compile_cdga
from masseytc.dsl import parse_model
from masseytc.linalg import Subspace, kernel, scalar
from masseytc.massey import OBSTRUCTIONS, massey_triple, scan_triples
from masseytc.models import MODEL_SOURCES
from conftest import S2_SRC
from oracles import (assert_sound_facts, from_coords, multiplication, span_of_products,
                     zcl_by_ideal_search, zero_divisor_ideal)
from test_bench_tracer import load_bench
from test_cli import SCALE_MODELS, STRESS_NIL_SRC, six_src
from test_cohomology import POLY4_SRC, _stress_ring, ideal_powers_length, random_presentations

ALL_MODELS = ("spheres8", "borromean", "even7", "odd11", "s3", "s2", "point")

# (cup length, zcl, cat bounds, tc bounds, connectivity) per model
LEDGER_TABLE = {
    "spheres8": (1, 2, (3, 3), (5, 5), 2),
    "borromean": (1, 2, (3, 3), (4, 5), 0),
    "even7": (2, 3, (4, 4), (6, 7), 1),
    "odd11": (2, 3, (4, 4), (6, 7), 2),
    "s3": (1, 1, (2, 2), (2, 3), 2),
    "s2": (1, 2, (2, 2), (3, 3), 1),
    "point": (0, 0, (1, 1), (1, 1), 1),
}


# ------------------------------------------------------------ bar products


def test_bar_is_a_zero_divisor(rings, kunneth_of):
    for name in ("spheres8", "even7", "borromean"):
        ring, km = rings[name], kunneth_of(name)
        for k in range(1, ring.truncation + 1):
            for i in range(ring.dim(k)):
                b = bar(km, ring.basis_class(k, i))
                assert not b.is_zero()
                assert km.diagonal_map(b).is_zero()


def test_bar_square_even_generator(rings, kunneth_of):
    # (1 x a - a x 1)^2 = -2 a x a when |a| is even
    ring, km = rings["s2"], kunneth_of("s2")
    a = ring.named_class("a")
    ba = bar(km, a)
    assert km.ht.cup(ba, ba) == km.cross(a, a).scale(-2)


def test_bar_square_odd_generator(rings, kunneth_of):
    ring, km = rings["s3"], kunneth_of("s3")
    bx = bar(km, ring.named_class("x"))
    assert km.ht.cup(bx, bx).is_zero()


def test_bar_product_signs(rings, kunneth_of):
    # odd generators: bar a * bar b = b x a - a x b  (the [ab] terms die)
    ring, km = rings["spheres8"], kunneth_of("spheres8")
    a, b = ring.named_class("a"), ring.named_class("b")
    prod = km.ht.cup(bar(km, a), bar(km, b))
    assert prod == km.cross(b, a).sub(km.cross(a, b))
    # even generators: bar alpha * bar beta = -(beta x alpha + alpha x beta)
    ring, km = rings["even7"], kunneth_of("even7")
    al, be = ring.named_class("alpha"), ring.named_class("beta")
    prod = km.ht.cup(bar(km, al), bar(km, be))
    assert prod == km.cross(be, al).add(km.cross(al, be)).scale(-1)


# ------------------------------------------------------------ zero-divisors


def test_zero_divisor_ideal_small(kunneth_of):
    km = kunneth_of("s2")
    ideal = zero_divisor_ideal(km)
    assert {d: s.dim for d, s in ideal.items()} == {2: 1, 4: 1}
    # degree 2 kernel is exactly the bar
    ba = bar(km, km.ha.named_class("a"))
    assert not ideal[2].reduce_pairs(_normalize_class(ba).pairs)


def test_zero_divisor_ideal_dims_frozen(kunneth_of):
    km = kunneth_of("borromean")
    assert {d: s.dim for d, s in zero_divisor_ideal(km).items()} == \
        {1: 3, 2: 21, 3: 72, 4: 144}
    km = kunneth_of("even7")
    assert {d: s.dim for d, s in zero_divisor_ideal(km).items()} == \
        {2: 2, 4: 4, 5: 2, 7: 9, 8: 6, 9: 4, 10: 28, 12: 4, 13: 24,
         14: 1, 15: 12, 16: 36}


def _square_of(kunneth_of, name):
    if name == "stress":
        ring = _stress_ring("general")
        return KunnethMap(ring, ring)
    return kunneth_of(name)


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11", "stress", "s2"])
def test_closed_form_ideal_is_the_kernel_of_the_multiplication_map(kunneth_of, name):
    km = _square_of(kunneth_of, name)
    maps = [multiplication(km, ell) for ell in range(1, km.ht.truncation + 1)]
    if name == "stress":
        assert any(type(v) is Fraction for m in maps for col in m.nonzero_columns for _, v in col)
    kernels = {ell: kernel(m) for ell, m in enumerate(maps, 1)}
    assert zero_divisor_ideal(km) == {ell: sub for ell, sub in kernels.items() if sub.dim}


@pytest.mark.parametrize("name", ["even7", "stress"])
def test_closed_form_ideal_runs_no_elimination(kunneth_of, monkeypatch, name):
    km = _square_of(kunneth_of, name)
    for ell in range(1, km.ht.truncation + 1):
        multiplication(km, ell)
    eliminations = []
    echelon = masseytc.linalg._echelon_columns

    def recorded(columns):
        eliminations.append(columns)
        return echelon(columns)

    monkeypatch.setattr(masseytc.linalg, "_echelon_columns", recorded)
    assert zero_divisor_ideal(km)
    assert eliminations == []


def test_closed_form_ideal_needs_a_connected_ring():
    # H^0 of two points: the unit is not the only class of degree 0, so
    # neither the ideal nor the bars that generate it are the ones for H^0 = Q
    two_points = types.SimpleNamespace(dim=lambda k: 2)
    km = types.SimpleNamespace(ha=two_points, hb=two_points)
    for zero_divisors in (zero_divisor_ideal, zero_divisors_cup_length,
                          functools.partial(bar, cls=None)):
        with pytest.raises(ValueError, match=r"needs H\^0 = Q, not of dimension 2"):
            zero_divisors(km)


def test_zero_divisor_ideal_members_multiply_to_zero(kunneth_of):
    for name in ALL_MODELS:
        km = kunneth_of(name)
        for d, sub in zero_divisor_ideal(km).items():
            for col in sub.nonzero_columns:
                assert km.diagonal_map(CohClass(d, sub.ambient, col)).is_zero()


def test_zcl_values(kunneth_of):
    for name in ALL_MODELS:
        k, chain, prod = zero_divisors_cup_length(kunneth_of(name))
        assert k == LEDGER_TABLE[name][1], name


def test_zcl_witness_replays(kunneth_of):
    for name in ALL_MODELS:
        km = kunneth_of(name)
        k, chain, prod = zero_divisors_cup_length(km)
        assert len(chain) == k
        out = km.ht.basis_class(0, 0)
        for cls in chain:
            assert km.diagonal_map(cls).is_zero()
            out = km.ht.cup(out, cls)
        assert out == prod
        assert k == 0 or not prod.is_zero()


WITNESS_MODELS = {
    "stress": STRESS_NIL_SRC,
    "borromean-at-4": MODEL_SOURCES["borromean"].replace("truncate 2", "truncate 4")
                                                .replace("space-dim 2", "space-dim 4"),
    "poly4-at-8": POLY4_SRC,
}


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11", *WITNESS_MODELS])
def test_zcl_witness_is_the_one_the_ideal_search_picked(kunneth_of, name):
    # the bar of a basis class e_j is the ideal's basis column at the pair
    # (0, 0, j), among the first of its degree, so the old search over the
    # ideal's basis and the one over the bars agree unless the former's
    # first longest chain uses another column; on these models it does not
    if name in WITNESS_MODELS:
        ring = CohomologyRing(compile_cdga(parse_model(WITNESS_MODELS[name])))
        km = KunnethMap(ring, ring)
    else:
        km = kunneth_of(name)
        ring = km.ha
    k, chain, prod = zero_divisors_cup_length(km)
    assert (k, chain, prod) == zcl_by_ideal_search(km)
    assert k == len(chain) > 0 and not prod.is_zero()
    ledger = build_ledger(ring, km)
    assert ledger.zcl_witness == chain
    assert replay_ledger(ledger, ring, km)


def test_explicit_zcl_chains(rings, kunneth_of):
    # (alpha x beta) * bar(u) * bar(v) evaluates to +/- mu x mu; three
    # zero-divisors with nonzero product, the sign fixed by the parities
    for name, sign in (("even7", 1), ("odd11", -1)):
        ring, km = rings[name], kunneth_of(name)
        ht = km.ht
        ab = km.cross(ring.named_class("alpha"), ring.named_class("beta"))
        assert km.diagonal_map(ab).is_zero()  # alpha*beta = 0 in the ring
        u, v, mu = (ring.named_class(n) for n in ("u", "v", "mu"))
        prod = ht.cup(ht.cup(ab, bar(km, u)), bar(km, v))
        assert prod == km.cross(mu, mu).scale(sign)
    # spheres8 stops at two: bar(a) bar(b) != 0 but the third factor dies
    ring, km = rings["spheres8"], kunneth_of("spheres8")
    a, b = ring.named_class("a"), ring.named_class("b")
    pair = km.ht.cup(bar(km, a), bar(km, b))
    assert not pair.is_zero()
    ideal = zero_divisor_ideal(km)
    assert ideal_powers_length(km.ht, ideal) == 2


def test_cup_chain_agrees_with_ring(rings):
    for name in ALL_MODELS:
        ring = rings[name]
        k, chain, prod = ring.cup_chain()
        assert k == ring.cup_length() == LEDGER_TABLE[name][0]
        assert len(chain) == k
        out = ring.basis_class(0, 0)
        for cls in chain:
            assert cls.degree >= 1
            out = ring.cup(out, cls)
        assert out == prod
        assert k == 0 or not prod.is_zero()


# ------------------------------------------------------------- fact pools


def pool_shape(facts):
    assert type(facts) is tuple and [f.key for f in facts] == sorted(f.key for f in facts)
    return sorted((f.cls.degree, f.weight, f.rule) for f in facts)


def by_key(facts):
    """A pool's facts by key."""
    return {f.key: f for f in facts}


def cat_pool(ring):
    return pool_shape(cat_weight_facts(ring, scan_triples(ring)))


def test_cat_fact_pools_frozen(rings):
    assert cat_pool(rings["spheres8"]) == [(3, 1, "R1"), (3, 1, "R1"), (8, 2, "R3"), (8, 2, "R3")]
    assert cat_pool(rings["even7"]) == \
        [(2, 1, "R1"), (2, 1, "R1"), (5, 2, "R3"), (5, 2, "R3"),
         (7, 1, "R1")] + [(8, 1, "R1")] * 6
    assert cat_pool(rings["odd11"]) == \
        [(3, 1, "R1"), (3, 1, "R1"), (8, 2, "R3"), (8, 2, "R3"), (11, 1, "R1")]
    shape = cat_pool(rings["borromean"])
    assert shape.count((1, 1, "R1")) == 3
    assert shape.count((2, 1, "R1")) == 6
    assert shape.count((2, 2, "R3")) == 9
    assert len(shape) == 18
    assert cat_pool(rings["point"]) == []


def test_cat_facts_draw_only_from_the_scan_they_are_given():
    # build_ledger hands over its capped scan; there is no scan to fall back on
    cosets = inspect.signature(cat_weight_facts).parameters["cosets"]
    assert cosets.default is inspect.Parameter.empty

def test_massey_values_become_weight_two_facts(rings):
    # the degree-5 facts of even7 are exactly the two triple-product values
    ring = rings["even7"]
    facts = cat_weight_facts(ring, scan_triples(ring))
    deg5 = {f.cls.coords: f for f in facts if f.cls.degree == 5}
    u = ring.named_class("u")
    v = ring.named_class("v")
    assert set(deg5) == {_normalize_class(u).coords, _normalize_class(v).coords}
    for f in deg5.values():
        assert f.weight == 2 and f.rule == "R3" and f.inputs[0] == "massey"


# ---------------------------------------------------------------- transfer


def test_transfer_success_even7(rings, kunneth_of):
    ring, km = rings["even7"], kunneth_of("even7")
    facts = by_key(cat_weight_facts(ring, scan_triples(ring)))
    u = ring.named_class("u")
    fact = facts[("cat", 5, _normalize_class(u).coords)]
    moved, reason = transfer_weight(ring, km, fact, 2)
    assert reason is None
    assert moved.weight == 2 and moved.rule == "R4-transfer"
    assert moved.cls.coords == _normalize_class(bar(km, fact.cls)).coords
    assert km.diagonal_map(moved.cls).is_zero()


def test_transfer_success_spheres8_window(rings, kunneth_of):
    # degree 8 sits in the k=2 window [6, 9) for a 2-connected model
    ring, km = rings["spheres8"], kunneth_of("spheres8")
    for f in cat_weight_facts(ring, scan_triples(ring)):
        if f.weight == 2:
            moved, reason = transfer_weight(ring, km, f, 2)
            assert reason is None and moved.weight == 2


def test_transfer_named_failures(rings, kunneth_of):
    ring, km = rings["even7"], kunneth_of("even7")
    # mu = alpha * v has category weight 1 + 2 = 3 by the chain of the
    # two pool atoms; the pool itself keeps mu as a weight-1 basis atom
    mu = ring.named_class("mu")
    facts = by_key(cat_weight_facts(ring, scan_triples(ring)))
    assert facts[("cat", 7, _normalize_class(mu).coords)].weight == 1
    alpha, v = (facts[("cat", c.degree, _normalize_class(c).coords)]
                for c in (ring.named_class("alpha"), ring.named_class("v")))
    assert _normalize_class(ring.cup(alpha.cls, v.cls)) == _normalize_class(mu)
    fact = WeightFact("cat", _normalize_class(mu), alpha.weight + v.weight, "R1", ("basis",))
    assert fact.weight == 3
    moved, reason = transfer_weight(ring, km, fact, 3)
    assert moved is None and "H^2 * H^5" in reason
    moved, reason = transfer_weight(ring, km, fact, 2)
    assert moved is None and "window" in reason
    moved, reason = transfer_weight(ring, km, fact, 4)
    assert moved is None and "below the requested" in reason
    moved, reason = transfer_weight(ring, km, fact, 0)
    assert moved is None and "k >= 1" in reason

    ring, km = rings["borromean"], kunneth_of("borromean")
    fact = cat_weight_facts(ring, scan_triples(ring))[0]
    moved, reason = transfer_weight(ring, km, fact, 1)
    assert moved is None and "simply connected" in reason

    tc_fact = WeightFact("tc", fact.cls, 1, "R1", ("bar", fact.cls))
    moved, reason = transfer_weight(ring, km, tc_fact, 1)
    assert moved is None and "category-weight" in reason


def test_tc_fact_pools_frozen(rings, kunneth_of):
    ring, km = rings["spheres8"], kunneth_of("spheres8")
    shape = pool_shape(tc_weight_facts(ring, km, cat_weight_facts(ring, scan_triples(ring))))
    assert shape == [(3, 1, "R1"), (3, 1, "R1"),
                     (8, 2, "R4-transfer"), (8, 2, "R4-transfer")]
    ring, km = rings["s2"], kunneth_of("s2")
    assert pool_shape(tc_weight_facts(ring, km, cat_weight_facts(ring, scan_triples(ring)))) == [(2, 1, "R1")]


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11", "stress"])
def test_pools_hold_only_atoms(ledger_of, name):
    # products of facts live in certificate chains: every factor of a
    # weighted product and every beta of a Massey certificate is an atom
    if name == "stress":
        led = _stress_ledger()[2]
    else:
        led = ledger_of(name)
    pool = {f.key: f for f in led.cat_facts + led.tc_facts}
    assert {f.rule for f in pool.values()} <= {"R1", "R3", "R4-transfer"}
    chains = [c["factors"] for c in led.certificates if c["rule"] == "weighted-product"]
    chains += [c["beta"] for c in led.certificates if c["rule"] == "massey-rudyak"]
    assert chains and all(key in pool for keys in chains for key in keys)


# ---------------------------------------------------------- weighted search


def test_weighted_category_bounds(rings):
    expected = {"spheres8": 2, "borromean": 2, "even7": 3, "odd11": 3,
                "s3": 1, "s2": 1, "point": 0}
    for name, want in expected.items():
        ring = rings[name]
        facts = cat_weight_facts(ring, scan_triples(ring))
        best, chain, prod = weighted_lower_bound(ring, facts)
        assert best == want, name
        if chain:
            assert not prod.is_zero()
            assert sum(by_key(facts)[key].weight for key in chain) == best


def test_weighted_tc_bounds(rings, kunneth_of):
    expected = {"spheres8": 4, "borromean": 2, "even7": 5, "odd11": 5,
                "s3": 1, "s2": 2, "point": 0}
    for name, want in expected.items():
        ring, km = rings[name], kunneth_of(name)
        facts = tc_weight_facts(ring, km, cat_weight_facts(ring, scan_triples(ring)))
        best, chain, prod = weighted_lower_bound(km.ht, facts)
        assert best == want, name


def test_even7_heaviest_chain_is_bar_u_bar_v_bar_alpha(rings, kunneth_of):
    # weight 5 = 1 + 2 + 2 from one ordinary bar and two transferred ones;
    # no weight-6 product survives (appending bar(beta) cancels exactly)
    ring, km = rings["even7"], kunneth_of("even7")
    facts = tc_weight_facts(ring, km, cat_weight_facts(ring, scan_triples(ring)))
    best, chain, prod = weighted_lower_bound(km.ht, facts)
    rules = sorted(by_key(facts)[key].rule for key in chain)
    assert rules == ["R1", "R4-transfer", "R4-transfer"]
    u, v, mu = (ring.named_class(n) for n in ("u", "v", "mu"))
    # bar(alpha) bar(u) bar(v) = -(u x mu + mu x u) and
    # bar(beta) bar(u) bar(v) = v x mu + mu x v; either realizes weight 5
    candidates = []
    for w in (u, v):
        e = km.cross(w, mu).add(km.cross(mu, w))
        candidates += [e, e.scale(-1)]
    assert prod in candidates


def chain_search_oracle(ring, ideal, k):
    """Oracle: the first k-tuple of ideal basis classes with nonzero
    product, searched recursively in ascending order."""
    atoms = []
    for d in sorted(ideal):
        for col in ideal[d].nonzero_columns:
            atoms.append(CohClass(d, ideal[d].ambient, col))
    if k == 0:
        return (), ring.basis_class(0, 0)
    mind = min(a.degree for a in atoms)
    picked = []
    result = []

    def rec(start, cls, depth):
        if depth == k:
            result.append(cls)
            return True
        for i in range(start, len(atoms)):
            a = atoms[i]
            deg = a.degree if cls is None else cls.degree + a.degree
            if deg + (k - depth - 1) * mind > ring.truncation:
                continue
            prod = a if cls is None else ring.cup(cls, a)
            if prod.is_zero():
                continue
            picked.append(a)
            if rec(i, prod, depth + 1):
                return True
            picked.pop()
        return False

    assert rec(0, None, 0), f"no chain of length {k}"
    return tuple(picked), result[0]


def weighted_search_oracle(ring, facts):
    """Oracle: the first heaviest nonzero product of facts in ascending key
    order, by an unpruned recursive search; None for an empty chain."""
    atoms = sorted(facts, key=lambda f: f.key)
    top = ring.top_nonzero_degree()
    best = [0, (), None]

    def rec(start, cls, weight, chain):
        if weight > best[0]:
            best[:] = weight, tuple(chain), cls
        for i in range(start, len(atoms)):
            f = atoms[i]
            if cls.degree + f.cls.degree > top:
                continue
            prod = ring.cup(cls, f.cls)
            if not prod.is_zero():
                rec(i, prod, weight + f.weight, chain + [f.key])

    for i, f in enumerate(atoms):
        if f.cls.degree <= top:
            rec(i, f.cls, f.weight, [f.key])
    return tuple(best)


def _assert_searches_match_the_oracles(ring, km):
    ht = km.ht
    positive = {k: Subspace.full(ring.dim(k))
                for k in range(1, ring.truncation + 1) if ring.dim(k)}
    cl = ideal_powers_length(ring, positive)
    assert ring.cup_chain() == (cl, *chain_search_oracle(ring, positive, cl))
    ideal = zero_divisor_ideal(km)
    zk = ideal_powers_length(ht, ideal)
    chain, prod = chain_search_oracle(ht, ideal, zk)
    assert zero_divisors_cup_length(km) == (zk, chain, prod)
    # the routine itself on the ideal's basis: stopping at the goal, or not,
    # returns the same first longest chain
    basis = [CohClass(d, ideal[d].ambient, col) for d in sorted(ideal)
             for col in ideal[d].nonzero_columns]
    for goal in (None, zk):
        w, picked, p = heaviest_chain(ht, basis, [1] * len(basis), goal=goal)
        assert (w, tuple(basis[i] for i in picked), p) == (zk, chain, prod)
    cat = cat_weight_facts(ring, scan_triples(ring))
    for rg, facts in ((ring, cat), (ht, tc_weight_facts(ring, km, cat))):
        best, keys, prod = weighted_lower_bound(rg, facts)
        assert keys
        assert (best, keys, prod) == weighted_search_oracle(rg, facts)


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11"])
def test_chain_searches_match_the_oracles_on_golden_pools(rings, kunneth_of, name):
    _assert_searches_match_the_oracles(rings[name], kunneth_of(name))


@pytest.mark.parametrize("plane", ["general", "special"])
def test_chain_searches_match_the_oracles_on_stress_pools(plane):
    ring = _stress_ring(plane)
    _assert_searches_match_the_oracles(ring, KunnethMap(ring, ring))


def test_chain_searches_match_the_oracles_on_random_pools():
    for p in random_presentations(7717, 25):
        ring = CohomologyRing(compile_cdga(p))
        _assert_searches_match_the_oracles(ring, KunnethMap(ring, ring))


T2_SRC = """\
algebra t2 {
  truncate 3
  generator x degree 1
  generator y degree 1
}
"""
CEILING_MODELS = {
    **{f"stress-seed{seed}": load_bench("inputs").stress_nil_model(seed) for seed in (1, 2, 3)},
    "borromean-at-3": MODEL_SOURCES["borromean"].replace("truncate 2", "truncate 3")
                                                .replace("space-dim 2", "space-dim 3"),
    "t2": T2_SRC,
    "s2": S2_SRC,
}


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11", *CEILING_MODELS])
def test_chain_searches_stop_at_their_ceilings_with_the_same_chain(kunneth_of, name):
    # zcl <= 2 cl, and a nonzero product of facts has at most cl (cat) or
    # zcl (tc) factors; a search stopped at such a ceiling returns the
    # chain and product of the search run to its end
    if name in CEILING_MODELS:
        ring = CohomologyRing(compile_cdga(parse_model(CEILING_MODELS[name])))
        km = KunnethMap(ring, ring)
    else:
        km = kunneth_of(name)
        ring = km.ha
    cl = ring.cup_chain()[0]
    bars = [bar(km, u) for u in indecomposables(ring)]
    zcl, picked, prod = heaviest_chain(km.ht, bars, [1] * len(bars))
    assert heaviest_chain(km.ht, bars, [1] * len(bars), goal=2 * cl) == (zcl, picked, prod)
    assert zero_divisors_cup_length(km) == (zcl, tuple(bars[i] for i in picked), prod)
    assert zcl <= 2 * cl
    cat = cat_weight_facts(ring, scan_triples(ring))
    for rg, facts, length in ((ring, cat, cl), (km.ht, tc_weight_facts(ring, km, cat), zcl)):
        atoms = sorted(facts, key=lambda f: f.key)
        classes, weights = [f.cls for f in atoms], [f.weight for f in atoms]
        ceiling = length * max(weights)
        best = heaviest_chain(rg, classes, weights)
        assert best == heaviest_chain(rg, classes, weights, goal=ceiling)
        assert best[0] <= ceiling
        assert weighted_lower_bound(rg, facts, length) == weighted_lower_bound(rg, facts)


def test_ceilings_cut_the_products_of_the_stress_ledger(monkeypatch):
    # on the bench's seed-1 stress model the zcl and weighted TC searches
    # reach their ceilings early; run to the end, they form three times
    # as many basis products
    cup_basis = CohomologyRing.cup_basis

    def products_in_ledger():
        ring = _stress_ring("general")
        km = KunnethMap(ring, ring)
        calls = []
        with monkeypatch.context() as m:
            m.setattr(CohomologyRing, "cup_basis",
                      lambda self, *key: calls.append(key) or cup_basis(self, *key))
            ledger = build_ledger(ring, km)
        return len(calls), ledger

    capped, ledger = products_in_ledger()
    search = masseytc.bounds.heaviest_chain
    monkeypatch.setattr(masseytc.bounds, "heaviest_chain",
                        lambda ring, classes, weights, goal=None: search(ring, classes, weights))
    uncapped, same = products_in_ledger()
    assert same == ledger
    assert 2 * capped <= uncapped


def test_heaviest_chain_of_nothing_is_the_unit(rings):
    ring = rings["spheres8"]
    assert heaviest_chain(ring, [], []) == (0, (), ring.basis_class(0, 0))
    assert rings["point"].cup_chain() == (0, (), rings["point"].basis_class(0, 0))
    with pytest.raises(ValueError, match="positive degree"):
        heaviest_chain(ring, [ring.basis_class(0, 0)], [1])


def test_cup_length_search_runs_once_per_ring(dgas, monkeypatch):
    searched = []
    search = masseytc.cohomology.heaviest_chain

    def recorded(ring, *args, **kwargs):
        searched.append(ring)
        return search(ring, *args, **kwargs)

    monkeypatch.setattr(masseytc.cohomology, "heaviest_chain", recorded)
    ring = CohomologyRing(dgas["even7"])
    assert ring.cup_length() == 2
    assert ring.cup_chain()[0] == 2 and ring.cup_length() == 2
    build_ledger(ring, KunnethMap(ring, ring))
    assert searched == [ring]


def test_transfer_tests_form_no_product_span(dgas, monkeypatch):
    # the product-free test reads the cup table up to its first nonzero
    # entry, and the indecomposables span D^d from table entries too
    spans = []
    product_span = CohomologyRing.product_span

    def recorded(self, cls, k):
        spans.append((cls.degree, k))
        return product_span(self, cls, k)

    monkeypatch.setattr(CohomologyRing, "product_span", recorded)
    ring = CohomologyRing(dgas["even7"])
    km = KunnethMap(ring, ring)
    first = indecomposables(ring)
    assert indecomposables(ring) == first
    facts = [WeightFact("cat", ring.basis_class(d, i), 3, "R1", ("class",))
             for d in range(1, ring.truncation + 1) for i in range(ring.dim(d))]
    reasons = [transfer_weight(ring, km, f, k)[1] for f in facts for k in (1, 2, 3)]
    assert None in reasons and any(r and "product-free" in r for r in reasons)
    assert spans == []


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11", "stress", "six8"])
def test_product_free_verdicts_match_the_product_spans(rings, name):
    if name == "stress":
        ring = _stress_ring("general")
    elif name == "six8":
        ring = CohomologyRing(compile_cdga(parse_model(six_src(8))))
    else:
        ring = rings[name]
    km = KunnethMap(ring, ring)
    # every degree's verdict, and transfer_weight's on a fact of that
    # degree wherever the earlier hypotheses hold
    width = ring.connectivity() + 1
    for ell in range(2, ring.truncation + 1):
        nonzero = [i for i in range(1, ell) if span_of_products(
            ring, i, Subspace.full(ring.dim(i)), ell - i, Subspace.full(ring.dim(ell - i))).dim > 0]
        assert [i for i in range(1, ell) if nonzero_products(ring, i, ell - i)] == nonzero
        if not ring.dim(ell):
            continue
        fact = WeightFact("cat", ring.basis_class(ell, 0), ell, "R1", ("class",))
        reason = transfer_weight(ring, km, fact, ell // width)[1]
        if reason is None or "product-free" in reason:
            i = nonzero[0] if nonzero else None
            assert reason == (i and f"cup products H^{i} * H^{ell - i} are nonzero, "
                                    f"so degree {ell} is not product-free"), ell


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11"])
def test_indeterminacy_spans_are_computed_once_per_ring(dgas, monkeypatch, name):
    # every Massey triple of a scan, on the ring or its square, shares the
    # spans alpha * H^k and H^k * gamma with the triples around it
    # (a span is formed when product_span returns a subspace not seen
    # before; each is kept, so that no id is reused)
    spans, inside, formed = [], [], {}
    product_span = CohomologyRing.product_span
    indeterminacy = CohomologyRing.indeterminacy

    def recorded(self, cls, k):
        span = product_span(self, cls, k)
        if inside and id(span) not in formed:
            formed[id(span)] = span
            spans.append((id(self), cls.degree, cls.pairs, k))
        return span

    def traced(*args):
        inside.append(True)
        try:
            return indeterminacy(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(CohomologyRing, "product_span", recorded)
    monkeypatch.setattr(CohomologyRing, "indeterminacy", traced)
    ring = CohomologyRing(dgas[name])
    build_ledger(ring, KunnethMap(ring, ring))
    assert spans and len(spans) == len(set(spans))


# ------------------------------------------------------------- Massey rule


def test_rudyak_improves_borromean(rings, kunneth_of):
    ring, km = rings["borromean"], kunneth_of("borromean")
    facts = tc_weight_facts(ring, km, cat_weight_facts(ring, scan_triples(ring)))
    best, cert = rudyak_lower_bound(km, facts, 3)
    assert best == 4 and cert is not None
    pool = by_key(facts)
    fa, fg = pool[cert["alpha"]], pool[cert["gamma"]]
    betas = [pool[key] for key in cert["beta"]]
    # beta is the product of two bars, a chain of weight 1 + 1
    assert (fa.weight, [f.weight for f in betas], fg.weight) == (1, [1, 1], 1)
    assert all(f.rule == "R1" and f.inputs[0] == "bar" for f in betas)
    beta = km.ht.cup(betas[0].cls, betas[1].cls)
    coset = massey_triple(km.ht, fa.cls, beta, fg.cls)
    assert coset.is_nonzero()


def test_rudyak_cannot_beat_the_weighted_bounds(rings, kunneth_of):
    for name in ("spheres8", "even7"):
        ring, km = rings[name], kunneth_of(name)
        facts = tc_weight_facts(ring, km, cat_weight_facts(ring, scan_triples(ring)))
        current = weighted_lower_bound(km.ht, facts)[0] + 1
        best, cert = rudyak_lower_bound(km, facts, current)
        assert best == current and cert is None


def rudyak_scan_oracle(kmap, facts, best):
    """Oracle: the Massey rule scan weighing every (beta, alpha, gamma),
    beta running over the atoms and then over every nonzero product of two,
    with no early skip of a beta that cannot beat the bound."""
    pool = sorted(facts, key=lambda f: f.key)
    bars = [f for f in pool if f.inputs and f.inputs[0] in ("bar", "transfer")]
    chains = [(f,) for f in pool]
    chains += [(f, g) for i, f in enumerate(pool) for g in pool[i:]]
    cert = None
    for betas in chains:
        beta = betas[0].cls if len(betas) == 1 else kmap.ht.cup(betas[0].cls, betas[1].cls)
        if beta.is_zero():
            continue
        weight = sum(f.weight for f in betas)
        for ia, alpha in enumerate(bars):
            for gamma in bars[ia:]:
                potential = weight + min(alpha.weight, gamma.weight) + 1
                if potential <= best:
                    continue
                target = alpha.cls.degree + beta.degree + gamma.cls.degree - 1
                if target > kmap.ht.truncation:
                    continue
                if massey_triple(kmap.ht, alpha.cls, beta, gamma.cls).is_nonzero():
                    best = potential
                    cert = {"rule": "massey-rudyak", "kind": "tc", "bound": best,
                            "alpha": alpha.key, "beta": tuple(f.key for f in betas),
                            "gamma": gamma.key}
    return best, cert


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11", "stress"])
def test_rudyak_skip_matches_the_unskipped_scan(rings, kunneth_of, monkeypatch, name):
    # from the bound the ledger starts the scan at, and from one below it,
    # where fewer betas are skipped
    if name == "stress":
        ring = _stress_ring("general")
        km = KunnethMap(ring, ring)
    else:
        ring, km = rings[name], kunneth_of(name)
    facts = tc_weight_facts(ring, km, cat_weight_facts(ring, scan_triples(ring)))
    start = max(zero_divisors_cup_length(km)[0], weighted_lower_bound(km.ht, facts)[0]) + 1
    for best in (start, start - 1):
        want = rudyak_scan_oracle(km, facts, best)
        if name != "stress":
            assert rudyak_lower_bound(km, facts, best) == want
            continue
        # top weight 1 against a bound of at least 4: no triple can beat it,
        # so the scan returns before it lists the pool's pairs or forms a product
        assert max(f.weight for f in facts) == 1 and best >= 4
        cups = []
        monkeypatch.setattr(km.ht, "cup", lambda *args: cups.append(args))
        assert rudyak_lower_bound(km, _Unlisted(facts), best) == want
        monkeypatch.undo()
        assert cups == []


class _Unlisted(tuple):
    """A pool whose pairs must not be listed: it can only be iterated."""

    def __getitem__(self, index):
        raise AssertionError("the pool was listed")


def test_explicit_triple_of_zero_divisors(rings, kunneth_of):
    # <bar u, +/- bar v * bar g2, bar w> on the borromean square: defined,
    # zero indeterminacy, value -/+ (g1 x g2 + g2 x g1)
    ring, km = rings["borromean"], kunneth_of("borromean")
    ht = km.ht
    u, v, w = (ring.named_class(n) for n in "uvw")
    g1 = massey_triple(ring, u, v, w).value
    g2 = massey_triple(ring, u, w, v).value
    bu, bv, bw = (bar(km, c) for c in (u, v, w))
    middle = ht.cup(bv, bar(km, g2))
    expected = km.cross(g1, g2).add(km.cross(g2, g1))
    for sign in (1, -1):
        coset = massey_triple(ht, bu, middle.scale(sign), bw)
        assert coset.defined and coset.indeterminacy.dim == 0
        assert coset.value == expected.scale(-sign)
        assert coset.is_nonzero()


# ------------------------------------------------------------ upper bounds


def test_james_upper_values():
    assert james_upper(8, 2) == 3   # 9/3 + 1 = 4, strictly below
    assert james_upper(7, 1) == 4   # 8/2 + 1 = 5
    assert james_upper(11, 2) == 4  # 12/3 + 1 = 5
    assert james_upper(2, 1) == 2   # 3/2 + 1 = 5/2
    assert james_upper(3, 2) == 2   # 4/3 + 1 = 7/3
    assert james_upper(0, 1) == 1
    with pytest.raises(ValueError):
        james_upper(5, 0)


# ----------------------------------------------------------------- ledgers


def test_ledger_table(ledger_of):
    for name, (cl, zk, cat, tc, conn) in LEDGER_TABLE.items():
        led = ledger_of(name)
        assert led.cup_length == cl, name
        assert led.zcl == zk, name
        assert (led.cat_lower, led.cat_upper) == cat, name
        assert (led.tc_lower, led.tc_upper) == tc, name
        assert led.connectivity == conn, name


def test_ledger_certificate_rules(ledger_of):
    for name in ALL_MODELS:
        led = ledger_of(name)
        rules = [c["rule"] for c in led.certificates]
        assert "cup-chain" in rules and "zcl-chain" in rules
        assert "dimension" in rules and "cat-product" in rules
        assert ("massey-rudyak" in rules) == (name == "borromean")
        assert ("james" in rules) == (led.connectivity >= 1)


def test_ledger_replays(rings, kunneth_of, ledger_of):
    for name in ALL_MODELS:
        assert replay_ledger(ledger_of(name), rings[name], kunneth_of(name))


def test_ledger_is_deterministic(rings, kunneth_of):
    ring, km = rings["spheres8"], kunneth_of("spheres8")
    assert build_ledger(ring, km) == build_ledger(ring, km)


def test_ledger_massey_cap(rings, kunneth_of):
    # capping the scan below the triple targets removes every R3 fact; the
    # Massey rule on the tensor ring still recovers TC >= 4 on its own
    ring, km = rings["spheres8"], kunneth_of("spheres8")
    led = build_ledger(ring, km, massey_cap=2)
    assert led.massey_cap == 2
    assert all(f.rule != "R3" for f in led.cat_facts)
    assert (led.cat_lower, led.cat_upper) == (2, 3)
    assert (led.tc_lower, led.tc_upper) == (4, 5)
    assert any(c["rule"] == "massey-rudyak" for c in led.certificates)
    assert replay_ledger(led, ring, km)


def test_ledger_massey_cap_is_checked_and_clamped(rings, kunneth_of, ledger_of):
    # a negative cap is refused; a cap past the truncation scans what the
    # default does, so the ledger records the truncation and equals it
    ring, km = rings["borromean"], kunneth_of("borromean")
    with pytest.raises(ValueError, match="non-negative"):
        build_ledger(ring, km, massey_cap=-1)
    led = build_ledger(ring, km, massey_cap=ring.truncation + 5)
    assert led.massey_cap == ring.truncation
    assert led == ledger_of("borromean")
    assert replay_ledger(led, ring, km)


@pytest.mark.parametrize("cap", [5.0, 4.5, True, "5"])
def test_ledger_refuses_a_massey_cap_that_is_not_an_int(rings, kunneth_of, cap):
    # 5.0, 4.5 and True each built an even7 ledger that replay refused, and
    # True capped the scan at degree 1, which dropped cat lower from 4 to 3
    with pytest.raises(ValueError, match=f"must be a non-negative int, not {cap!r}"):
        build_ledger(rings["even7"], kunneth_of("even7"), massey_cap=cap)


def test_ledger_requires_matching_square(rings, kunneth_of):
    with pytest.raises(ValueError):
        build_ledger(rings["s2"], kunneth_of("s3"))


def test_replay_rejects_inflated_bound(rings, kunneth_of, ledger_of):
    led = ledger_of("spheres8")
    certs = []
    for c in led.certificates:
        if c["rule"] == "weighted-product" and c["kind"] == "tc":
            c = dict(c)
            c["bound"] += 1
        certs.append(c)
    bad = dataclasses.replace(led, certificates=tuple(certs))
    with pytest.raises(ValueError):
        replay_ledger(bad, rings["spheres8"], kunneth_of("spheres8"))


def test_replay_rejects_inflated_fact_weight(rings, kunneth_of, ledger_of):
    led = ledger_of("s2")
    tampered = tuple(
        dataclasses.replace(f, weight=2) if f.rule == "R1" else f
        for f in led.tc_facts)
    bad = dataclasses.replace(led, tc_facts=tampered)
    with pytest.raises(ValueError):
        replay_ledger(bad, rings["s2"], kunneth_of("s2"))


def test_replay_rejects_fake_zero_divisor_chain(rings, kunneth_of, ledger_of):
    ring, km = rings["s2"], kunneth_of("s2")
    led = ledger_of("s2")
    a = ring.named_class("a")
    not_zd = km.cross(a, ring.basis_class(0, 0))  # a x 1, diagonal is a != 0
    certs = []
    for c in led.certificates:
        if c["rule"] == "zcl-chain":
            c = dict(c)
            c["chain"] = (not_zd,) * led.zcl
        certs.append(c)
    bad = dataclasses.replace(led, certificates=tuple(certs))
    with pytest.raises(ValueError):
        replay_ledger(bad, ring, km)


# Fact keys of spheres8: H^1 of its square is zero, so no fact has the first.
ABSENT_FACT = ("tc", 1, (Fraction(1),))
CAT_FACT = ("cat", 3, (Fraction(1), Fraction(0)))
TC_FACT = ("tc", 8, (Fraction(0), Fraction(1), Fraction(0), Fraction(-1)))


def _edit_weighted(kind, edit):
    """A forgery that edits the weighted-product certificate of one kind."""
    return lambda certs: tuple(
        edit(c) if c["rule"] == "weighted-product" and c["kind"] == kind else c
        for c in certs)


def _add_rudyak(key):
    """A forgery that adds a Massey-Rudyak certificate on one fact."""
    return lambda certs: certs + ({"rule": "massey-rudyak", "kind": "tc", "bound": 6,
                                   "alpha": key, "beta": key, "gamma": key},)


def _edit_cat_product(fields):
    """A forgery that rewrites fields of the cat-product certificate."""
    return lambda certs: tuple({**c, **fields} if c["rule"] == "cat-product" else c
                               for c in certs)


def _flipped_copy(rule):
    """A forgery that appends a copy of one certificate with its kind flipped."""
    def forge(certs):
        c = next(c for c in certs if c["rule"] == rule)
        return certs + ({**c, "kind": "tc" if c["kind"] == "cat" else "cat"},)
    return forge


@pytest.mark.parametrize("forge, reason", [
    pytest.param(_edit_weighted("tc", lambda c: {**c, "factors": (ABSENT_FACT,)}),
                 "names fact .* not in the fact pool", id="weighted-unknown-fact"),
    pytest.param(_add_rudyak(ABSENT_FACT),
                 "names fact .* not in the fact pool", id="rudyak-unknown-fact"),
    pytest.param(_edit_weighted("cat", lambda c: {**c, "factors": (TC_FACT,)}),
                 "for cat names the tc fact", id="weighted-wrong-kind"),
    pytest.param(_add_rudyak(CAT_FACT),
                 "for tc names the cat fact", id="rudyak-wrong-kind"),
    pytest.param(_edit_weighted("tc", lambda c: {k: v for k, v in c.items() if k != "product"}),
                 "weighted-product certificate lacks product", id="missing-field"),
    pytest.param(lambda certs: tuple(
        c for c in certs if c["kind"] != "cat" or c["rule"] not in LOWER_RULES),
        "no lower certificate for cat", id="no-lower"),
    pytest.param(lambda certs: tuple(
        c for c in certs if c["kind"] != "tc" or c["rule"] in LOWER_RULES),
        "no upper certificate for tc", id="no-upper"),
    # before replay read each rule's kind, the first four replayed as
    # valid and the james copy failed as an upper-bound disagreement
    pytest.param(_flipped_copy("cup-chain"), "cup-chain certificates bound cat, not tc",
                 id="cup-chain-as-tc"),
    pytest.param(_flipped_copy("zcl-chain"), "zcl-chain certificates bound tc, not cat",
                 id="zcl-chain-as-cat"),
    pytest.param(_flipped_copy("dimension"), "dimension certificates bound cat, not tc",
                 id="dimension-as-tc"),
    pytest.param(_flipped_copy("cat-product"), "cat-product certificates bound tc, not cat",
                 id="cat-product-as-cat"),
    pytest.param(_flipped_copy("james"), "james certificates bound cat, not tc",
                 id="james-as-tc"),
    # TC <= 7 from a cat upper bound of 4 that no certificate gives, and
    # TC <= 7 beside the certified cat <= 3
    pytest.param(_edit_cat_product({"cat_upper": 4, "bound": 7}),
                 "cat-product certificate failed replay", id="cat-product-of-an-uncertified-cat"),
    pytest.param(_edit_cat_product({"bound": 7}),
                 "cat-product certificate failed replay", id="cat-product-bound-not-doubled"),
])
def test_replay_names_the_forgery(rings, kunneth_of, ledger_of, forge, reason):
    led = ledger_of("spheres8")
    bad = dataclasses.replace(led, certificates=forge(led.certificates))
    with pytest.raises(ValueError, match=reason):
        replay_ledger(bad, rings["spheres8"], kunneth_of("spheres8"))


def _with_tc_massey_fact(ring, km, led):
    """The ledger plus a TC-pool R3 fact on <a (x) 1, a (x) 1, b (x) 1> of
    weight 2 and a weighted-product certificate that cites it.  The value
    <a, a, b> (x) 1 is nonzero on H (x) H, but mu sends it to <a, a, b>,
    so it is no zero-divisor and carries no TC weight."""
    one = ring.basis_class(0, 0)
    a, b = (km.cross(ring.named_class(x), one) for x in "ab")
    coset = massey_triple(km.ht, a, a, b)
    assert coset.is_nonzero() and not km.diagonal_map(coset.value).is_zero()
    fact = WeightFact("tc", _normalize_class(coset.value), 2, "R3", ("massey", a, a, b))
    return dataclasses.replace(
        led, tc_facts=tuple(sorted(led.tc_facts + (fact,), key=lambda f: f.key)),
        certificates=led.certificates + ({"rule": "weighted-product", "kind": "tc", "bound": 3,
                                          "factors": (fact.key,), "product": fact.cls},))


@pytest.mark.parametrize("name", [
    pytest.param(name, id=f"tc-massey-fact-{name}") for name in ("spheres8", "even7", "odd11")])
def test_replay_reads_massey_evidence_on_the_base_ring(rings, kunneth_of, ledger_of, name):
    # R3 is a rule on H; this forgery replayed as valid while replay read
    # the evidence of a TC-pool R3 fact on H (x) H
    bad = _with_tc_massey_fact(rings[name], kunneth_of(name), ledger_of(name))
    with pytest.raises(ValueError, match=r"the massey evidence of fact \('tc', .* is not a class"):
        replay_ledger(bad, rings[name], kunneth_of(name))


def test_replay_refuses_a_look_alike_ledger(rings, kunneth_of, ledger_of):
    # a look-alike states its bounds rather than reading them off its
    # certificates: this one replayed as valid, and the report printed TC
    # [5, 5] beside certificates that give [4, 5]
    led = ledger_of("borromean")
    fields = ("cat_lower", "cat_upper", "tc_upper", "cup_witness", "zcl_witness",
              "cup_length", "zcl") + tuple(f.name for f in dataclasses.fields(led))
    fake = types.SimpleNamespace(**{x: getattr(led, x) for x in fields}, tc_lower=5)
    assert report.ledger_section(led)["tc"] == [4, 5]
    assert report.ledger_section(fake)["tc"] == [5, 5]
    with pytest.raises(ValueError, match="the ledger is a SimpleNamespace, not a BoundLedger"):
        replay_ledger(fake, rings["borromean"], kunneth_of("borromean"))


@pytest.mark.parametrize("name", ALL_MODELS + ("stress",))
def test_every_fact_is_what_its_evidence_derives(rings, kunneth_of, ledger_of, name):
    # replay checks a fact by deriving it again from its evidence; a bar
    # is then a zero-divisor by construction, with no check of its own
    if name == "stress":
        ring, km, led = _stress_ledger()
    else:
        ring, km, led = rings[name], kunneth_of(name), ledger_of(name)
    assert_sound_facts(led, ring, km)


def _edit_evidence(pool, tag, edit):
    """A forgery that edits the evidence of the first fact with this tag."""
    def forge(led):
        facts = getattr(led, pool)
        hit = next(f for f in facts if f.inputs[0] == tag)
        return dataclasses.replace(led, **{pool: tuple(
            dataclasses.replace(f, inputs=edit(f)) if f is hit else f for f in facts)})
    return forge


def _with_product_fact(led):
    """The ledger plus a fact as the old pairwise-product round wrote it:
    the degree-7 class as the product of a degree-2 and a degree-5 fact."""
    by_degree = {f.cls.degree: f for f in led.cat_facts}
    product = dataclasses.replace(by_degree[7], weight=3, rule="R2", inputs=(
        "product", by_degree[2].key, by_degree[5].key))
    return dataclasses.replace(led, cat_facts=led.cat_facts + (product,))


@pytest.mark.parametrize("forge, reason", [
    pytest.param(_edit_evidence("tc_facts", "bar", lambda f: f.inputs[:1]),
                 "bar evidence needs 1 entries after its tag, not 0", id="bar-without-class"),
    pytest.param(_edit_evidence("tc_facts", "transfer", lambda f: f.inputs[:2]),
                 "transfer evidence needs 2 entries after its tag, not 1",
                 id="transfer-without-k"),
    pytest.param(_edit_evidence("cat_facts", "massey", lambda f: f.inputs[:3]),
                 "massey evidence needs 3 entries after its tag, not 2",
                 id="massey-with-two-classes"),
    pytest.param(_edit_evidence("tc_facts", "transfer",
                                lambda f: ("transfer", ABSENT_FACT, f.inputs[2])),
                 "transfer evidence names a fact that is not in the fact pool",
                 id="transfer-of-an-absent-fact"),
    pytest.param(_edit_evidence("tc_facts", "transfer",
                                lambda f: ("transfer", f.key, f.inputs[2])),
                 "transfer hypotheses fail on replay: only category-weight facts transfer",
                 id="transfer-of-itself"),
    pytest.param(_with_product_fact, "unknown rule/evidence combination R2/product",
                 id="product-fact"),
])
def test_replay_names_malformed_evidence(rings, kunneth_of, ledger_of, forge, reason):
    with pytest.raises(ValueError, match="failed replay: " + reason):
        replay_ledger(forge(ledger_of("even7")), rings["even7"], kunneth_of("even7"))


# a cat fact of borromean: the basis class u
BORROMEAN_CAT_FACT = ("cat", 1, (1, 0, 0))


@pytest.mark.parametrize("edit, reason", [
    pytest.param(lambda c: {**c, "beta": 5},
                 "the beta keys of the tc massey-rudyak certificate are not a list",
                 id="beta-not-a-list"),
    pytest.param(lambda c: {**c, "beta": ()},
                 "the beta of the tc massey-rudyak certificate is an empty chain",
                 id="beta-empty"),
    pytest.param(lambda c: {**c, "beta": c["beta"] + (ABSENT_FACT,)},
                 "names fact .* not in the fact pool", id="beta-names-an-absent-fact"),
    pytest.param(lambda c: {**c, "beta": c["beta"][:1] + (BORROMEAN_CAT_FACT,)},
                 "for tc names the cat fact", id="beta-names-a-cat-fact"),
    pytest.param(lambda c: {**c, "beta": [list(key) for key in c["beta"]]},
                 "names fact .* not in the fact pool", id="beta-keys-as-lists"),
    pytest.param(lambda c: {**c, "kind": "cat", "alpha": BORROMEAN_CAT_FACT,
                            "beta": (BORROMEAN_CAT_FACT,), "gamma": BORROMEAN_CAT_FACT},
                 "massey-rudyak certificates bound tc, not cat", id="rudyak-on-cat-facts"),
    pytest.param(lambda c: {**c, "bound": c["bound"] + 1},
                 "Massey bound does not match the weights", id="rudyak-bound-inflated"),
])
def test_replay_names_malformed_beta_chains(rings, kunneth_of, ledger_of, edit, reason):
    # borromean's TC >= 4 rests on a Massey triple whose beta is a chain
    led = ledger_of("borromean")
    bad = _edit_certs("massey-rudyak", edit)(led)
    assert bad != led
    with pytest.raises(ValueError, match=reason):
        replay_ledger(bad, rings["borromean"], kunneth_of("borromean"))


def test_ledger_serializes_to_json(ledger_of):
    led = ledger_of("even7")
    back = json.loads(report.render_json({"ledger": report.ledger_section(led),
                                          "weights": report.weights_section(led)}))
    assert back["ledger"]["cat"] == [4, 4] and back["ledger"]["tc"] == [6, 7]
    assert back["ledger"]["zcl"] == 3 and back["ledger"]["cup_length"] == 2
    assert all(isinstance(c, str) for f in back["weights"]["cat"] for c in f["coords"])


def _edit_certs(rule, edit):
    """A forgery that edits every certificate of one rule."""
    return lambda led: dataclasses.replace(led, certificates=tuple(
        edit(c) if c["rule"] == rule else c for c in led.certificates))


def _edit_first_tc_fact(edit):
    """A forgery that edits the first tc fact."""
    return lambda led: dataclasses.replace(
        led, tc_facts=(edit(led.tc_facts[0]),) + led.tc_facts[1:])


def _scaled_uncited_basis_fact(led):
    """The ledger with its first R1 cat fact that no certificate cites
    tripled, so its class is no longer normalized."""
    cited = {key for c in led.certificates for key in c.get("factors", ())}
    hit = next(f for f in led.cat_facts if f.rule == "R1" and f.key not in cited)
    return dataclasses.replace(led, cat_facts=tuple(
        dataclasses.replace(f, cls=f.cls.scale(3)) if f is hit else f for f in led.cat_facts))


@pytest.mark.parametrize("forge, reason", [
    pytest.param(_edit_certs("zcl-chain", lambda c: {
        **c, "chain": tuple(_drop_last_coordinate(x) for x in c["chain"])}),
        "factor 0 of the zcl-chain certificate is not a class",
        id="zcl-factors-drop-a-coordinate"),
    pytest.param(_edit_first_tc_fact(lambda f: dataclasses.replace(
        f, cls=from_coords(CohClass, 99, f.cls.coords))),
        r"the class of fact \('tc', 99, .* is not a class of degree 1\.\.4",
        id="tc-fact-at-degree-99"),
    pytest.param(_edit_certs("cup-chain", lambda c: {
        **c, "chain": (from_coords(CohClass, 1, (Fraction(1),) * 99),) + c["chain"][1:]}),
        "factor 0 of the cup-chain certificate is not a class",
        id="cup-chain-class-of-99-coordinates"),
    pytest.param(_edit_certs("cup-chain", lambda c: {**c, "chain": 5}),
                 "the chain of the cup-chain certificate is not a list", id="chain-given-as-5"),
    pytest.param(_edit_certs("weighted-product", lambda c: {
        **c, "factors": [list(k) for k in c["factors"]]}),
        "names fact .* not in the fact pool", id="certificate-keys-as-lists"),
    pytest.param(lambda led: dataclasses.replace(led, tc_facts=led.tc_facts + (WeightFact(
        "tc", led.tc_facts[0].cls, 1, "R4-transfer", ("transfer", list(led.cat_facts[0].key), 1)),)),
        "transfer evidence names a fact that is not in the fact pool", id="evidence-keys-as-lists"),
    pytest.param(_edit_evidence("tc_facts", "bar",
                                lambda f: ("bar", dataclasses.replace(f.inputs[1], degree=99))),
                 "the bar evidence of fact .* is not a class", id="bar-evidence-at-degree-99"),
    pytest.param(_edit_certs("weighted-product", lambda c: {
        **c, "product": _drop_last_coordinate(c["product"])}),
        "the product of the (cat|tc) weighted-product certificate is not a class",
        id="product-drops-a-coordinate"),
    pytest.param(lambda led: dataclasses.replace(
        led, certificates=led.certificates + ("cup-chain",)),
        "certificate 'cup-chain' is not a rule dictionary", id="certificate-is-a-string"),
    # the dimension certificate copied to tc: TC <= 3 beside TC >= 4
    pytest.param(lambda led: dataclasses.replace(led, certificates=(
        *led.certificates, {"rule": "dimension", "kind": "tc", "bound": 3})),
        "dimension certificates bound cat, not tc", id="dimension-copied-to-tc"),
    # borromean has no james certificate, whose replay checked connectivity
    pytest.param(lambda led: dataclasses.replace(led, connectivity=1),
                 "connectivity changed under replay", id="connectivity-forged"),
    # malformed pools: the first fell over with a stray TypeError, the
    # next four replayed as valid
    pytest.param(_edit_first_tc_fact(lambda f: dataclasses.replace(f, inputs=5)),
                 "failed replay: evidence 5 is not a tuple", id="evidence-given-as-5"),
    pytest.param(lambda led: dataclasses.replace(
        led, cat_facts=led.cat_facts[1:], tc_facts=led.tc_facts + led.cat_facts[:1]),
        "failed replay: a cat fact sits in the tc pool", id="cat-fact-in-the-tc-pool"),
    pytest.param(lambda led: dataclasses.replace(led, tc_facts=led.tc_facts + led.tc_facts[-1:]),
                 "fact .* is listed twice in the tc pool", id="fact-listed-twice"),
    pytest.param(lambda led: dataclasses.replace(led, tc_facts=led.tc_facts[::-1]),
                 "the tc pool is not sorted by key", id="pool-in-reverse-order"),
    pytest.param(_scaled_uncited_basis_fact, "failed replay: class is not stored normalized",
                 id="uncited-basis-fact-tripled"),
    pytest.param(_edit_first_tc_fact(lambda f: dataclasses.replace(
        f, cls=CohClass(f.cls.degree, f.cls.dim, f.cls.pairs[::-1]))),
        "failed replay: class is not stored normalized, as canonical pairs",
        id="pairs-out-of-order"),
    # these fell over with a TypeError while the facts were indexed, an
    # AttributeError, and a misleading "not stored normalized"
    pytest.param(_edit_first_tc_fact(lambda f: dataclasses.replace(f, kind=["tc"])),
                 r"a fact has kind \['tc'\], not 'cat' or 'tc'",
                 id="kind-given-as-a-list"),
    pytest.param(_edit_first_tc_fact(lambda f: dataclasses.replace(
        f, cls=(f.cls.degree, f.cls.coords))),
        "a tc fact holds its class as a tuple, not a CohClass",
        id="class-given-as-degree-and-coords"),
    pytest.param(_edit_certs("weighted-product", lambda c: {
        **c, "product": (c["product"].degree, c["product"].coords)}),
        "the product of the (cat|tc) weighted-product certificate is not a class",
        id="product-given-as-degree-and-coords"),
    pytest.param(_edit_certs("cup-chain", lambda c: {
        **c, "chain": tuple(Cochain(x.degree, x.dim, x.pairs) for x in c["chain"])}),
        "factor 0 of the cup-chain certificate is not a class", id="chain-of-cochains"),
    pytest.param(_edit_first_tc_fact(lambda f: dataclasses.replace(
        f, cls=Cochain(f.cls.degree, f.cls.dim, f.cls.pairs))),
        "a tc fact holds its class as a Cochain, not a CohClass",
        id="class-given-as-a-cochain"),
    # True passed the degree check, as a bool is an int, and replayed as 1
    pytest.param(_edit_certs("cup-chain", lambda c: {**c, "chain": (CohClass(True, 3, ((0, 1),)),)}),
                 "factor 0 of the cup-chain certificate is not a class",
                 id="degree-given-as-True"),
])
def test_replay_names_malformed_class_records(rings, kunneth_of, ledger_of, forge, reason):
    # each of these replayed as valid or fell over with a stray
    # IndexError, TypeError or AttributeError before the records were checked
    with pytest.raises(ValueError, match=reason):
        replay_ledger(forge(ledger_of("borromean")), rings["borromean"], kunneth_of("borromean"))


def _coords_to_float(cls):
    """The class with every coefficient a float: equal by ==, printed otherwise."""
    return CohClass(cls.degree, cls.dim, tuple((i, float(v)) for i, v in cls.pairs))


def _mirrored(coset):
    """The classes of a triple in the mirrored order, <gamma, beta, alpha>."""
    return coset.gamma, coset.beta, coset.alpha


def _edit_first_coset(fields):
    """A forgery that replaces fields of the first listed Massey coset, as
    ``fields(coset)`` gives them."""
    return lambda led: dataclasses.replace(led, massey_cosets=(dataclasses.replace(
        led.massey_cosets[0], **fields(led.massey_cosets[0])),) + led.massey_cosets[1:])


def _ring_of(name):
    """A new ring of a built-in model, apart from the session's rings."""
    return CohomologyRing(compile_cdga(parse_model(MODEL_SOURCES[name])))


def _bound_as_float(*rules):
    """A forgery that gives the bound of each (rule, kind) certificate as a float."""
    return lambda led: dataclasses.replace(led, certificates=tuple(
        {**c, "bound": float(c["bound"])} if (c["rule"], c["kind"]) in rules else c
        for c in led.certificates))


def _drop_last_coordinate(cls):
    """The class with its last basis class and coordinate cut off."""
    return CohClass(cls.degree, cls.dim - 1, tuple(p for p in cls.pairs if p[0] < cls.dim - 1))


def _coords_as(convert):
    """A forgery that rewrites every coefficient of the cup-chain classes."""
    return _edit_certs("cup-chain", lambda c: {**c, "chain": tuple(
        CohClass(x.degree, x.dim, tuple((i, convert(v)) for i, v in x.pairs))
        for x in c["chain"])})


@pytest.mark.parametrize("forge, reason", [
    pytest.param(_coords_as(float), "factor 0 of the cup-chain certificate is not a class "
                 "of degree 1..8 with one rational coordinate", id="float-coordinates"),
    pytest.param(_coords_as(str), "factor 0 of the cup-chain certificate is not a class",
                 id="string-coordinates"),
    pytest.param(_edit_evidence("tc_facts", "transfer",
                                lambda f: f.inputs[:2] + (str(f.inputs[2]),)),
                 r"failed replay: transfer evidence gives k as '\d+', not an integer",
                 id="transfer-k-as-a-string"),
    pytest.param(lambda led: dataclasses.replace(led, certificates=led.certificates + (
        {"rule": ["cup-chain"], "kind": "cat", "bound": 1},)),
        r"unknown certificate rule \['cup-chain'\]", id="rule-as-a-list"),
    pytest.param(_edit_certs("dimension", lambda c: {**c, "kind": ["cat"]}),
                 r"dimension certificate has unknown kind \['cat'\]", id="kind-as-a-list"),
    pytest.param(_edit_certs("weighted-product", lambda c: {**c, "factors": 5}),
                 "the factors of the (cat|tc) weighted-product certificate are not a list",
                 id="factors-given-as-5"),
    pytest.param(lambda led: dataclasses.replace(led, certificates=tuple(
        {**c, "bound": float(c["bound"])} for c in led.certificates)),
        r"cup-chain certificate gives its bound as 3\.0, not an integer", id="bounds-as-floats"),
    pytest.param(lambda led: dataclasses.replace(led, space_dim=7.0),
                 r"space_dim 7\.0 is not the model's 7", id="space-dim-as-a-float"),
    pytest.param(lambda led: dataclasses.replace(led, connectivity=1.0),
                 "connectivity changed under replay", id="connectivity-as-a-float"),
    # these replayed as valid, since 4.0 == 4 and True == 1; the bounds,
    # the cup length and zcl are read off the certificates that hold them
    pytest.param(_bound_as_float(("james", "cat"), ("weighted-product", "tc")),
                 r"james certificate gives its bound as 4\.0, not an integer",
                 id="cat-upper-and-tc-lower-as-floats"),
    pytest.param(_bound_as_float(("weighted-product", "cat")),
                 r"weighted-product certificate gives its bound as 4\.0", id="cat-lower-as-a-float"),
    pytest.param(_bound_as_float(("weighted-product", "tc")),
                 r"weighted-product certificate gives its bound as 6\.0", id="tc-lower-as-a-float"),
    pytest.param(_bound_as_float(("cat-product", "tc")),
                 r"cat-product certificate gives its bound as 7\.0", id="tc-upper-as-a-float"),
    pytest.param(_bound_as_float(("cup-chain", "cat")),
                 r"cup-chain certificate gives its bound as 3\.0", id="cup-length-as-a-float"),
    pytest.param(_bound_as_float(("zcl-chain", "tc")),
                 r"zcl-chain certificate gives its bound as 4\.0", id="zcl-as-a-float"),
    pytest.param(_edit_certs("cat-product", lambda c: {**c, "cat_upper": 4.0}),
                 r"cat-product certificate gives cat_upper as 4\.0, not an integer",
                 id="cat-product-cat-upper-as-a-float"),
    pytest.param(lambda led: dataclasses.replace(led, cat_facts=(dataclasses.replace(
        led.cat_facts[0], weight=True),) + led.cat_facts[1:]),
        r"failed replay: weight True is not an integer", id="fact-weight-as-a-bool"),
    pytest.param(_edit_first_tc_fact(lambda f: dataclasses.replace(f, weight=float(f.weight))),
                 r"failed replay: weight 1\.0 is not an integer", id="fact-weight-as-a-float"),
    # these summary fields are printed in the ledger section, and each of
    # these forgeries replayed as valid before replay checked them
    pytest.param(lambda led: dataclasses.replace(led, model="other"),
                 "model 'other' is not the ring's 'even7'", id="model-renamed"),
    pytest.param(lambda led: dataclasses.replace(led, dims=(1, 9, 9)),
                 r"dims \(1, 9, 9\) are not the ring's", id="dims-forged"),
    pytest.param(lambda led: dataclasses.replace(led, dims=tuple(map(float, led.dims))),
                 r"dims \(1\.0, .*\) are not the ring's", id="dims-as-floats"),
    pytest.param(lambda led: dataclasses.replace(led, tensor_dims=(7,)),
                 r"tensor_dims \(7,\) are not the ring's", id="tensor-dims-forged"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cap=99),
                 "massey_cap 99 is not a degree in 0..8", id="massey-cap-above-the-truncation"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cap=-3),
                 "massey_cap -3 is not a degree in 0..8", id="massey-cap-negative"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cap=True),
                 "massey_cap True is not a degree", id="massey-cap-as-a-bool"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cap=4),
                 "failed replay: Massey triple lands in degree 5, above massey_cap 4",
                 id="massey-cap-below-an-R3-fact"),
    # the witnesses are the chains of the chain certificates
    pytest.param(_edit_certs("cup-chain", lambda c: {**c, "chain": ()}),
                 "cup-chain certificate failed replay", id="cup-witness-empty"),
    pytest.param(_edit_certs("cup-chain", lambda c: {**c, "chain": "junk"}),
                 "the chain of the cup-chain certificate is not a list of classes",
                 id="cup-witness-as-a-string"),
    pytest.param(_edit_certs("zcl-chain", lambda c: {**c, "chain": ((5, (1, 2)),)}),
                 "factor 0 of the zcl-chain certificate is not a class",
                 id="zcl-witness-as-a-record"),
    # the report prints the defined triples of the Massey scan beside the
    # ledger section, and the section counts the undefined ones
    pytest.param(lambda led: dataclasses.replace(led, massey_cosets=()),
                 r"massey_cosets drop the defined triple <CohClass\(degree=2, .*\)> "
                 "of the ring's scan up to massey_cap 8", id="massey-cosets-empty"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cosets=led.massey_cosets[1:]),
                 "massey_cosets drop the defined triple", id="massey-cosets-one-dropped"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cosets=list(led.massey_cosets)),
                 "massey_cosets is a list, not a tuple of Massey cosets",
                 id="massey-cosets-as-a-list"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cosets=led.massey_cosets + (
        (led.massey_cosets[0].alpha,) * 3,)),
        "massey_cosets hold a tuple, not a Massey coset", id="massey-cosets-holding-a-triple"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cosets=led.massey_cosets + (
        massey_triple(led.massey_cosets[1].ring, *_mirrored(led.massey_cosets[1])),)),
        "massey_cosets list <.*>, which is not a defined triple of the ring's scan up to "
        "massey_cap 8", id="massey-cosets-a-mirrored-triple-added"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cosets=led.massey_cosets[::-1]),
                 "massey_cosets are not in the order of the ring's scan at entry 0",
                 id="massey-cosets-reversed"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cosets=(dataclasses.replace(
        led.massey_cosets[0], value=led.massey_cosets[1].value),) + led.massey_cosets[1:]),
        r"the listed Massey triple <.*> reads \(defined True, obstruction None, value "
        r"CohClass\(degree=5, .*\)\), not the ring's record", id="massey-coset-value-forged"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cosets=led.massey_cosets[:1] + (
        dataclasses.replace(led.massey_cosets[1], value=_coords_to_float(
            led.massey_cosets[1].value)),) + led.massey_cosets[2:]),
        "the listed Massey triple <.*> holds a class whose degree, dim or pairs are not ints "
        "and rationals", id="massey-coset-value-as-floats"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cosets=(dataclasses.replace(
        led.massey_cosets[0], defined=False, obstruction="x"),) + led.massey_cosets[1:]),
        r"the listed Massey triple <.*> reads \(defined False, obstruction 'x', value .*\), "
        "not the ring's record", id="massey-coset-marked-undefined"),
    pytest.param(lambda led: dataclasses.replace(led, massey_cosets=led.massey_cosets[:1] + (
        dataclasses.replace(led.massey_cosets[1], obstruction=OBSTRUCTIONS[1]),)
        + led.massey_cosets[2:]),
        r"the listed Massey triple <.*> reads \(defined True, obstruction 'beta\*gamma is "
        r"nonzero', value .*\), not the ring's record", id="massey-coset-obstruction-added"),
    # == takes 1 for True and 0.5 for Fraction(1, 2), so these equal the
    # ring's records; both were refused before replay compared records
    pytest.param(_edit_first_coset(lambda c: dict(alpha=_coords_to_float(c.alpha))),
                 "the listed Massey triple <.*> holds a class whose degree, dim or pairs are "
                 "not ints and rationals", id="massey-coset-alpha-as-floats"),
    pytest.param(_edit_first_coset(lambda c: dict(defined=1)),
                 "the listed Massey triple <.*> gives defined as 1, not a bool",
                 id="massey-coset-defined-as-an-int"),
    # the report reads the indeterminacy off the coset's ring; on these the
    # replay passed and the report then fell over or read another model
    pytest.param(_edit_first_coset(lambda c: dict(ring=None)),
                 "the listed Massey triple <.*> holds a ring that is not one of the model 'even7'",
                 id="massey-coset-ring-none"),
    pytest.param(_edit_first_coset(lambda c: dict(ring=_ring_of("odd11"))),
                 "the listed Massey triple <.*> holds a ring that is not one of the model 'even7'",
                 id="massey-coset-on-another-model"),
    pytest.param(lambda led: dataclasses.replace(led, massey_undefined={
        **led.massey_undefined, "beta*gamma is nonzero": 4}),
        r"massey_undefined \{'alpha\*beta is nonzero': 3, 'beta\*gamma is nonzero': 4\} are "
        "not the ring's counts", id="massey-undefined-forged"),
    pytest.param(lambda led: dataclasses.replace(led, massey_undefined={}),
                 "massey_undefined {} are not a count per obstruction", id="massey-undefined-empty"),
    pytest.param(lambda led: dataclasses.replace(
        led, massey_undefined=tuple(led.massey_undefined.items())),
        r"massey_undefined \(\('alpha\*beta is nonzero', 3\), .*\) are not a count per "
        "obstruction", id="massey-undefined-as-pairs"),
    pytest.param(lambda led: dataclasses.replace(led, massey_undefined={
        k: float(n) for k, n in led.massey_undefined.items()}),
        r"massey_undefined \{'alpha\*beta is nonzero': 3\.0, .*\} are not a count per",
        id="massey-undefined-as-floats"),
    # the bounds and witnesses read the certificates, so they are checked first
    pytest.param(lambda led: dataclasses.replace(led, certificates=None),
                 "the certificates field is of type NoneType, not a tuple of rule dictionaries",
                 id="certificates-none"),
    pytest.param(lambda led: dataclasses.replace(led, certificates=5),
                 "the certificates field is of type int, not a tuple of rule dictionaries",
                 id="certificates-as-an-int"),
])
def test_replay_names_non_rational_and_malformed_fields(rings, kunneth_of, ledger_of,
                                                        forge, reason):
    # without type checks the float coordinates and bounds replayed as valid
    # (0.5 == Fraction(1, 2)) and the others fell over with a stray TypeError
    led = ledger_of("even7")
    assert replay_ledger(led, rings["even7"], kunneth_of("even7"))
    with pytest.raises(ValueError, match=reason):
        replay_ledger(forge(led), rings["even7"], kunneth_of("even7"))


class _Unprintable:
    """A record part whose rendering fails."""

    def __format__(self, spec):
        raise AssertionError("a record part was rendered")


def test_recorded_class_renders_its_record_only_on_refusal(rings):
    ring = rings["even7"]
    cls = ring.basis_class(2, 0)
    assert _recorded_class(ring, cls, "the record {} of {}", _Unprintable(), 0) == cls
    with pytest.raises(ValueError, match=r"^the record \('tc', 2\) of fact 7 is not a class"):
        _recorded_class(ring, CohClass(2, 5, ((0, 1),)), "the record {} of fact {}",
                        ("tc", 2), 7)


def test_the_listing_replays_against_a_new_ring_of_its_model(ledger_of):
    # the report reads the same indeterminacy off any ring of the model
    ring = CohomologyRing(compile_cdga(parse_model(MODEL_SOURCES["even7"])))
    km = KunnethMap(ring, ring)
    led = ledger_of("even7")
    assert led.massey_cosets[0].ring is not ring
    assert replay_ledger(led, ring, km)
    with pytest.raises(ValueError, match="holds a ring that is not one of the model 'even7'"):
        replay_ledger(_edit_first_coset(lambda c: dict(ring=_ring_of("spheres8")))(led),
                      ring, km)


@pytest.mark.parametrize("name", ["six8", "nil4at4", "stress"])
def test_a_valid_replay_renders_no_listing_label(monkeypatch, name):
    # a listed triple's label is rendered only to name a refusal; rendered
    # eagerly, a valid nil4 replay at truncate 6 renders some 90,000 labels
    if name == "stress":
        ring = _stress_ring("general")
    else:
        ring = CohomologyRing(compile_cdga(parse_model(SCALE_MODELS[name])))
    km = KunnethMap(ring, ring)
    led = build_ledger(ring, km)
    assert led.massey_cosets
    labels = []
    monkeypatch.setattr(masseytc.bounds, "_triple", lambda classes: labels.append(classes))
    assert replay_ledger(led, ring, km)
    assert labels == []


def _edit_first_tc_class(**fields):
    """A forgery that rewrites fields of the first tc fact's class."""
    return _edit_first_tc_fact(lambda f: dataclasses.replace(
        f, cls=dataclasses.replace(f.cls, **fields)))


def _edit_first_tc_tag(tag):
    """A forgery that replaces the evidence tag of the first tc fact."""
    return _edit_first_tc_fact(lambda f: dataclasses.replace(f, inputs=(tag,) + f.inputs[1:]))


@pytest.mark.parametrize("forge, reason", [
    pytest.param(_edit_first_tc_tag(["bar"]),
                 r"failed replay: unknown rule/evidence combination R1/\['bar'\]",
                 id="evidence-tag-as-a-list"),
    pytest.param(_edit_first_tc_tag({"bar": 1}),
                 r"failed replay: unknown rule/evidence combination R1/\{'bar': 1\}",
                 id="evidence-tag-as-a-dict"),
    pytest.param(lambda led: dataclasses.replace(led, cat_facts=list(led.cat_facts)),
                 "the cat pool is a list, not a tuple of facts", id="pool-as-a-list"),
    pytest.param(lambda led: dataclasses.replace(led, tc_facts=led.tc_facts + (led.tc_facts[0].key,)),
                 "the tc pool holds a tuple, not a WeightFact", id="pool-entry-is-a-key"),
    pytest.param(_edit_first_tc_class(degree=[2]),
                 r"the class of fact \('tc', \[2\], .*\) is not a class of degree 1\.\.16",
                 id="class-degree-as-a-list"),
    pytest.param(_edit_first_tc_class(dim="2"),
                 r"the class of fact \('tc', 2, .*\) is not a class of degree 1\.\.16",
                 id="class-dim-as-a-string"),
    pytest.param(_edit_first_tc_class(pairs=((0,),)),
                 r"the class of fact \('tc', 2, \(\(0,\),\)\) is not a class of degree 1\.\.16",
                 id="class-pair-without-a-coefficient"),
])
def test_replay_names_malformed_fact_records(rings, kunneth_of, ledger_of, forge, reason):
    # each of these escaped replay as a TypeError, an AttributeError or an
    # unnamed ValueError before the pools and their classes were checked
    # ahead of the fact keys
    with pytest.raises(ValueError, match=reason):
        replay_ledger(forge(ledger_of("even7")), rings["even7"], kunneth_of("even7"))


def _chain_certificates(rule, edit):
    """A forgery that replaces the certificates of one rule by ``edit`` of them."""
    return lambda led: dataclasses.replace(led, certificates=tuple(
        c for c in led.certificates if c["rule"] != rule) + edit(tuple(
            c for c in led.certificates if c["rule"] == rule)))


@pytest.mark.parametrize("forge, reason", [
    pytest.param(_chain_certificates("cup-chain", lambda certs: certs * 2),
                 "ledger has 2 cup-chain certificates, not one", id="second-cup-chain"),
    pytest.param(_chain_certificates("zcl-chain", lambda certs: certs * 2),
                 "ledger has 2 zcl-chain certificates, not one", id="second-zcl-chain"),
    pytest.param(_chain_certificates("cup-chain", lambda certs: ()),
                 "ledger has 0 cup-chain certificates, not one", id="no-cup-chain"),
    pytest.param(_chain_certificates("zcl-chain", lambda certs: ()),
                 "ledger has 0 zcl-chain certificates, not one", id="no-zcl-chain"),
])
def test_replay_needs_one_chain_certificate_of_each_kind(rings, kunneth_of, ledger_of,
                                                         forge, reason):
    # the witnesses and lengths are read off these certificates; a second
    # cup-chain replayed as valid, and without one the weighted product
    # still gives even7 a lower bound of each kind
    bad = forge(ledger_of("even7"))
    assert {(c["kind"], c["rule"]) for c in bad.certificates} >= {
        ("cat", "weighted-product"), ("tc", "weighted-product")}
    with pytest.raises(ValueError, match=reason):
        replay_ledger(bad, rings["even7"], kunneth_of("even7"))


# ------------------------------------------------- one path, two fibrations


@functools.lru_cache(maxsize=None)
def _stress_ledger():
    ring = _stress_ring("general")
    km = KunnethMap(ring, ring)
    return ring, km, build_ledger(ring, km)


def test_both_fibrations_take_one_lower_bound_path(rings, kunneth_of, ledger_of):
    # cat is the genus of the based path fibration (ker p* = H^+ in H), TC
    # of the free one (ker p* = ker mu in H (x) H): each lower bound is the
    # longer of the chain in ker p* and the heaviest weighted product, and
    # on the tc side the Massey rule may raise it
    emitted = set()
    for name in ("spheres8", "borromean", "even7", "odd11", "stress"):
        if name == "stress":
            ring, km, led = _stress_ledger()
        else:
            ring, km, led = rings[name], kunneth_of(name), ledger_of(name)
        cat = cat_weight_facts(ring, led.massey_cosets)
        tc = tc_weight_facts(ring, km, cat)
        for kind, rg, length, facts, lower in (
                ("cat", ring, ring.cup_chain()[0], cat, led.cat_lower),
                ("tc", km.ht, zero_divisors_cup_length(km)[0], tc, led.tc_lower)):
            block = max(length + 1, weighted_lower_bound(rg, facts)[0] + 1)
            assert block == max(c["bound"] for c in led.certificates if c["kind"] == kind
                                and c["rule"] in ("cup-chain", "zcl-chain", "weighted-product"))
            if kind == "tc":
                block = rudyak_lower_bound(km, facts, block)[0]
            assert lower == block, (name, kind)
        for c in led.certificates:
            assert _RULES[c["rule"]][0] in (None, c["kind"]), (name, c["rule"])
            emitted.add(c["rule"])
        assert replay_ledger(led, ring, km)
    assert emitted == set(_RULES)


def _with_space_dim(led, space_dim):
    """The ledger with its space_dim and every upper bound certificate
    rewritten to match."""
    cat_upper = space_dim + 1
    if any(c["rule"] == "james" for c in led.certificates):
        cat_upper = min(cat_upper, james_upper(space_dim, led.connectivity))
    rewritten = {"dimension": {"bound": space_dim + 1},
                 "james": {"bound": cat_upper},
                 "cat-product": {"bound": 2 * cat_upper - 1, "cat_upper": cat_upper}}
    return dataclasses.replace(
        led, space_dim=space_dim, certificates=tuple({**c, **rewritten.get(c["rule"], {})} for c in led.certificates))


def test_replay_checks_the_recorded_space_dim():
    # the stress model declares space-dim 5; before replay checked it, the
    # ledger forged to space-dim 2 replayed as cat = 3 and TC = 5 exactly
    ring, km, led = _stress_ledger()
    bad = _with_space_dim(led, 2)
    assert (bad.cat_lower, bad.cat_upper, bad.tc_lower, bad.tc_upper) == (3, 3, 5, 5)
    with pytest.raises(ValueError, match="space_dim 2 is not the model's 5"):
        replay_ledger(bad, ring, km)


def test_replay_refuses_a_lower_bound_above_the_upper_bound(ledger_of):
    # s2 declared at space-dim 0: its ring still certifies cat >= 2 and
    # TC >= 3, so build_ledger refuses it, and replay refuses the s2 ledger
    # rewritten to the declared dimension although each certificate holds
    ring = CohomologyRing(compile_cdga(parse_model(S2_SRC.replace("space-dim 2", "space-dim 0"))))
    km = KunnethMap(ring, ring)
    with pytest.raises(InconsistentBounds):
        build_ledger(ring, km)
    bad = _with_space_dim(ledger_of("s2"), 0)
    with pytest.raises(ValueError, match="the cat lower bound 2 exceeds its upper bound 1"):
        replay_ledger(bad, ring, km)


# ------------------------------------------------------ change of generators


def _det3(m) -> int:
    """The determinant of a 3x3 matrix, by cofactors along the first row."""
    return sum(m[0][j] * (m[1][(j + 1) % 3] * m[2][(j + 2) % 3]
                          - m[1][(j + 2) % 3] * m[2][(j + 1) % 3]) for j in range(3))


def _changed_generators(p, m):
    """The presentation ``p`` of a stress plane with x_a replaced by
    sum_j m[a][j] x_j in d y1 and d y2: an isomorphic model when m is
    invertible.  The x's come first in the canonical order, all of degree 1,
    so x_a x_b becomes sum_{j<k} (m[a][j] m[b][k] - m[a][k] m[b][j]) x_j x_k."""
    width = len(p.canonical_generators())
    diffs = {}
    for y, poly in p.differentials.items():
        out = {}
        for mono, c in poly.items():
            a, b = [i for i, e in enumerate(mono) if e]
            for j in range(3):
                for k in range(j + 1, 3):
                    key = tuple(int(i in (j, k)) for i in range(width))
                    out[key] = out.get(key, 0) + c * (m[a][j] * m[b][k] - m[a][k] * m[b][j])
        diffs[y] = {mono: scalar(c) for mono, c in out.items() if c}
    return dataclasses.replace(p, differentials=diffs)


@functools.lru_cache(maxsize=None)
def _stress_variants(plane) -> tuple:
    """(ring, Kunneth map, ledger) of a stress plane and of four random
    invertible integer changes of its closed generators x1..x3."""
    rng = random.Random(2801)
    p = _stress_ring(plane).dga.presentation
    matrices = [((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    while len(matrices) < 5:
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if _det3(m):
            matrices.append(m)
    out = []
    for m in matrices:
        ring = CohomologyRing(compile_cdga(_changed_generators(p, m)))
        km = KunnethMap(ring, ring)
        out.append((ring, km, build_ledger(ring, km)))
    return tuple(out)


@pytest.mark.parametrize("plane", ["general", "special"])
def test_a_change_of_generators_keeps_the_invariants(plane):
    # isomorphic presentations have the same ring, cup length and zcl, and
    # on these the same certified TC bounds; each ledger replays
    for ring, km, led in _stress_variants(plane):
        assert ring.dims() == (1, 3, 6, 8)
        assert (led.cup_length, led.zcl) == (2, 4)
        assert (led.tc_lower, led.tc_upper) == (5, 11)
        assert replay_ledger(led, ring, km)


@pytest.mark.xfail(strict=True, reason="the basis-triple Massey scan depends on the "
                   "presentation; ROADMAP item 3 step 2 (annihilator triples) mends it")
def test_a_change_of_generators_keeps_the_certified_cat():
    cats = {led.cat_lower for plane in ("general", "special")
            for _, _, led in _stress_variants(plane)}
    assert len(cats) == 1, cats


# T^2 plus a contractible pair (d u = v), which leaves the homotopy type
# alone; plain T^2 certifies TC >= 3 (tests/test_nilmanifolds.py), and
# TC(T^2) = 3 (Farber, Discrete Comput. Geom. 2003)
T2PAIR_SRC = """\
algebra t2pair {
  truncate 2
  space-dim 2
  generator e1 degree 1
  generator e2 degree 1
  generator u degree 1
  generator v degree 2
  d u = v
}
"""


@pytest.mark.xfail(strict=True, reason="top-degree classes that die at truncation N + 1 "
                   "lengthen the zcl chain; ROADMAP item 4 (honesty at the top degree) mends it")
def test_a_contractible_pair_keeps_the_torus_bounds():
    # today t2pair certifies zcl 3 and TC >= 4
    ring = CohomologyRing(compile_cdga(parse_model(T2PAIR_SRC)))
    led = build_ledger(ring, KunnethMap(ring, ring))
    assert led.zcl == 2
    assert led.tc_lower <= 3
