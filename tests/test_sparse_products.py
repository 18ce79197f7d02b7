"""The sparse product paths against the dense code they replaced.

Products, the multiplication map of a square, the closed-form zero-divisor
ideal of ``tests/oracles.py``, the annihilators and the fact keys all work
on nonzero (index, coefficient) pairs.  The oracles here are the dense versions: every product is a full
coordinate vector of its degree, summed entry by entry.
"""

import random
from fractions import Fraction

import pytest

from masseytc.bounds import (
    _normalize_class,
    cat_weight_facts,
    tc_weight_facts,
    weighted_lower_bound,
    zero_divisors_cup_length,
)
from masseytc.cohomology import CohClass, CohomologyRing, KunnethMap
from masseytc.dga import Cochain, compile_cdga
from masseytc.dsl import parse_model
from masseytc.linalg import ONE, ZERO, Subspace, kernel
from masseytc.massey import scan_triples
from oracles import (dense_add, dense_scale, from_columns, from_coords, is_canonical,
                     left_annihilator, right_annihilator, zero_class, zero_divisor_ideal)
from test_cli import STRESS_NIL_SRC

GOLDEN = ["spheres8", "borromean", "even7", "odd11"]


@pytest.fixture(scope="module")
def stress_square():
    ring = CohomologyRing(compile_cdga(parse_model(STRESS_NIL_SRC)))
    return KunnethMap(ring, ring)


def _square(kunneth_of, stress_square, name):
    return stress_square if name == "stress" else kunneth_of(name)


def _ring(rings, kunneth_of, stress_square, name):
    # "<model>" is a golden ring, "<model>^2" its square
    base, _, power = name.partition("^")
    if power:
        return _square(kunneth_of, stress_square, base).ht
    return rings[base]


def _pairs(coords):
    return tuple((i, c) for i, c in enumerate(coords) if c)


# ------------------------------------------------------------------ oracles


def dense_cup_nonzero(ring, k1, left, k2, right):
    """The dense ``_cup_nonzero``: the product's full coordinate vector."""
    out = [ZERO] * ring.dim(k1 + k2)
    if out:
        for i1, a in left:
            for i2, b in right:
                ab = a * b
                for idx, v in ring.cup_basis(k1, i1, k2, i2):
                    out[idx] += ab * v
    return tuple(out)


def dense_cup(ring, c1, c2):
    return from_coords(CohClass, c1.degree + c2.degree, dense_cup_nonzero(
        ring, c1.degree, _pairs(c1.coords), c2.degree, _pairs(c2.coords)))


def dense_diagonal_map(km, c):
    """The dense multiplication map: a sum of scaled dense basis products."""
    ha = km.ha
    out = zero_class(ha, c.degree)
    for (p, i, j), v in sorted(km.decompose(c).items()):
        out = out.add(dense_cup(ha, ha.basis_class(p, i),
                                ha.basis_class(c.degree - p, j)).scale(v))
    return out


def dense_zero_divisor_ideal(km):
    """The kernel of the multiplication map, from one dense column per
    basis class of the square."""
    ht, ha = km.ht, km.ha
    out = {}
    for ell in range(1, ht.truncation + 1):
        n = ht.dim(ell)
        if n == 0:
            continue
        cols = [dense_diagonal_map(km, ht.basis_class(ell, i)).coords for i in range(n)]
        out[ell] = kernel(from_columns(ha.dim(ell), cols))
    return {ell: sub for ell, sub in out.items() if sub.dim}


def dense_annihilator(ring, k, cls, left):
    cols = [(dense_cup(ring, ring.basis_class(k, i), cls) if left
             else dense_cup(ring, cls, ring.basis_class(k, i))).coords
            for i in range(ring.dim(k))]
    return kernel(from_columns(ring.dim(k + cls.degree), cols))


def random_class(ring, rng, k):
    # about half the coordinates are zero, so leading zeros are common
    coords = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   if rng.random() < 0.5 else ZERO for _ in range(ring.dim(k)))
    return from_coords(CohClass, k, coords)


def _degrees(ring):
    return [k for k in range(ring.truncation + 1) if ring.dim(k)]


# -------------------------------------------------------------------- tests


@pytest.mark.parametrize("name", GOLDEN + [g + "^2" for g in GOLDEN] + ["stress^2"])
def test_products_match_the_dense_oracle(rings, kunneth_of, stress_square, name):
    ring = _ring(rings, kunneth_of, stress_square, name)
    degrees = _degrees(ring)
    basis_pairs = 0
    for k1 in degrees:
        for k2 in degrees:
            for i1 in range(ring.dim(k1)):
                for i2 in range(ring.dim(k2)):
                    got = ring._cup_nonzero(k1, [(i1, ONE)], k2, [(i2, ONE)])
                    want = dense_cup_nonzero(ring, k1, [(i1, ONE)], k2, [(i2, ONE)])
                    assert got == _pairs(want), (k1, i1, k2, i2)
                    # the table entry is stored sorted as it is formed
                    assert ring.cup_basis(k1, i1, k2, i2) == got, (k1, i1, k2, i2)
                    basis_pairs += 1
    assert basis_pairs == sum(ring.dim(k) for k in degrees) ** 2
    rng = random.Random(f"sparse-products:{name}")
    for k1 in degrees:
        for k2 in degrees:
            for _ in range(3):
                c1, c2 = random_class(ring, rng, k1), random_class(ring, rng, k2)
                prod = ring.cup(c1, c2)
                assert prod == dense_cup(ring, c1, c2)
                assert all(x is ZERO for x in prod.coords if not x)
            sub = Subspace._spanned(ring.dim(k1), [random_class(ring, rng, k1).pairs
                                                   for _ in range(2)])
            span = ring.product_span(k1, sub, k2)
            assert span == Subspace._spanned(ring.dim(k1 + k2), [
                dense_cup(ring, CohClass(k1, sub.ambient, col), ring.basis_class(k2, j)).pairs
                for col in sub.nonzero_columns for j in range(ring.dim(k2))])


@pytest.mark.parametrize("name", GOLDEN)
def test_annihilators_match_the_dense_oracle(rings, name):
    ring = rings[name]
    rng = random.Random(f"annihilators:{name}")
    for d in _degrees(ring):
        classes = [ring.basis_class(d, i) for i in range(ring.dim(d))]
        for cls in classes + [random_class(ring, rng, d) for _ in range(2)]:
            for k in _degrees(ring):
                assert left_annihilator(ring, k, cls) == dense_annihilator(ring, k, cls, True)
                assert right_annihilator(ring, k, cls) == dense_annihilator(ring, k, cls, False)


@pytest.mark.parametrize("name", GOLDEN + ["stress"])
def test_multiplication_map_matches_the_dense_oracle(kunneth_of, stress_square, name):
    km = _square(kunneth_of, stress_square, name)
    ht = km.ht
    rng = random.Random(f"multiplication-map:{name}")
    for k in _degrees(ht):
        classes = [ht.basis_class(k, i) for i in range(ht.dim(k))]
        for c in classes + [random_class(ht, rng, k) for _ in range(5)]:
            assert km.diagonal_map(c) == dense_diagonal_map(km, c), (k, c.coords)
        outside = CohClass(k, ht.dim(k) + 1, ((ht.dim(k), ONE),))
        with pytest.raises(ValueError, match="reach outside"):
            km.diagonal_map(outside)
    assert zero_divisor_ideal(km) == dense_zero_divisor_ideal(km)


def test_normalize_class_matches_plain_scaling():
    rng = random.Random(4711)
    vectors = [(), (ZERO,), (ZERO,) * 5, (Fraction(0),) * 3,
               (ZERO, ZERO, Fraction(-2, 3), ZERO, Fraction(5)),
               (Fraction(0), Fraction(3), Fraction(0), Fraction(-1, 2))]
    for _ in range(300):
        n = rng.randint(1, 12)
        lead = rng.randint(0, n)
        vectors.append(tuple(
            ZERO if i < lead or rng.random() < 0.4
            else Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
            for i in range(n)))
    leading_zeros = all_zero = 0
    for v in vectors:
        got = _normalize_class(from_coords(CohClass, 1, v)).coords
        first = next((c for c in v if c), None)
        if first is None:
            assert got == tuple(v)
            all_zero += 1
            continue
        inv = ONE / first
        want = tuple(x * inv for x in v)
        assert len(got) == len(want) and all(g == w for g, w in zip(got, want))
        assert all(g is ZERO for g in got if not g)
        leading_zeros += not v[0]
    assert all_zero >= 4 and leading_zeros >= 100


@pytest.mark.parametrize("name", GOLDEN + ["stress"])
def test_zcl_and_weighted_searches_form_no_dense_products(
        rings, kunneth_of, stress_square, monkeypatch, name):
    # zcl and both weighted searches multiply nonzero pairs only: neither a
    # dense cup product nor a Kunneth decomposition may come back into them
    km = _square(kunneth_of, stress_square, name)
    ring = km.ha
    cat_facts = cat_weight_facts(ring, scan_triples(ring))
    tc_facts = tc_weight_facts(ring, km, cat_facts)
    calls = []

    def recorded(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(CohomologyRing, "cup", recorded(CohomologyRing.cup))
    monkeypatch.setattr(KunnethMap, "decompose", recorded(KunnethMap.decompose))
    zk, _, zprod = zero_divisors_cup_length(km)
    wcat, _, cat_prod = weighted_lower_bound(ring, cat_facts)
    wtc, _, tc_prod = weighted_lower_bound(km.ht, tc_facts)
    assert calls == []
    ring.cup(ring.basis_class(0, 0), ring.basis_class(0, 0))
    assert calls == ["cup"]  # the wrapper is live
    assert zk >= 1 and wcat >= 1 and wtc >= zk
    assert not (zprod.is_zero() or cat_prod.is_zero() or tc_prod.is_zero())


def test_class_arithmetic_matches_dense_coordinates():
    # cochains and classes share one record, so the same 400 seeded cases
    # run on each; a cochain never equals a class with the same pairs
    for kind in (CohClass, Cochain):
        rng = random.Random(1907)

        def coefficient():
            # zeros, ints, proper fractions and integral Fractions such as 4/2
            return rng.choice([ZERO, ZERO, rng.randint(-3, 3),
                               Fraction(rng.randint(-6, 6), rng.randint(1, 3))])

        checked = equal = 0
        for _ in range(400):
            k, n = rng.randint(0, 4), rng.randint(0, 6)
            a, b = (from_coords(kind, k, [coefficient() for _ in range(n)]) for _ in range(2))
            c = coefficient()
            for cls, want in [(a, a.coords), (a.scale(c), dense_scale(a.coords, c)),
                              (a.add(b), dense_add(a.coords, b.coords)),
                              (a.sub(b), dense_add(a.coords, dense_scale(b.coords, -1)))]:
                assert type(cls) is kind
                assert is_canonical(cls) and (cls.degree, cls.dim) == (k, n)
                assert cls.coords == want and all(x is ZERO for x in cls.coords if not x)
                assert cls.is_zero() == (not any(want))
                checked += 1
            twin = from_coords(kind, k, [Fraction(x) * 2 / 2 for x in a.coords])
            assert twin == a and hash(twin) == hash(a)
            assert (a == b) == (a.coords == b.coords)
            assert a.sub(a).is_zero() and a.add(b) == b.add(a)
            assert Cochain(k, n, a.pairs) != CohClass(k, n, a.pairs)
            equal += a == b
        assert checked == 1600 and equal >= 50
        with pytest.raises(ValueError, match="degree mismatch"):
            from_coords(kind, 1, (1,)).add(from_coords(kind, 2, (1,)))
