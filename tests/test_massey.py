"""Massey triple products: frozen values, identities, witness independence.

The values below were derived by hand from the defining systems (canonical
solver conventions: free variables zero, columns left to right), so these
are fixed-point regression oracles, not echoes of the implementation.
"""

import dataclasses
import random

import pytest

from masseytc import bounds, cohomology, dga, dsl, linalg, massey, models, report
from masseytc.bounds import cat_weight_facts, rudyak_lower_bound, tc_weight_facts
from masseytc.cohomology import CohClass
from masseytc.dga import Cochain
from masseytc.linalg import Subspace
from masseytc.massey import massey_triple, massey_value_from_cocycles, scan_triples
from oracles import (
    from_coords,
    left_annihilator,
    massey_value_from_witnesses,
    massey_witnesses,
    right_annihilator,
    span_of_products,
    verify_external_product,
    verify_external_vanishing,
    verify_internal_product,
    verify_multi_identities,
)


def test_spheres8_full_table(rings):
    r = rings["spheres8"]
    a, b = r.named_class("a"), r.named_class("b")
    want = {
        ("a", "a", "a"): (0, 0),
        ("a", "a", "b"): (1, 0),
        ("a", "b", "a"): (-2, 0),
        ("a", "b", "b"): (0, -1),
        ("b", "a", "a"): (1, 0),
        ("b", "a", "b"): (0, 2),
        ("b", "b", "a"): (0, -1),
        ("b", "b", "b"): (0, 0),
    }
    cls = {"a": a, "b": b}
    for (n1, n2, n3), coords in want.items():
        m = massey_triple(r, cls[n1], cls[n2], cls[n3])
        assert m.defined, (n1, n2, n3)
        assert m.indeterminacy.dim == 0
        assert m.value.coords == coords, (n1, n2, n3)
        assert m.canonical == m.value


def test_a_coset_compares_what_the_report_prints(rings):
    # the witness solves stay in the ring's memo, so == on two cosets
    # compares exactly the fields that report.massey_entry prints
    compared = [f.name for f in dataclasses.fields(massey.MasseyCoset) if f.compare]
    assert compared == ["alpha", "beta", "gamma", "defined", "obstruction", "value"]
    r = rings["spheres8"]
    m = massey_triple(r, r.named_class("a"), r.named_class("a"), r.named_class("b"))
    assert set(compared) <= set(report.massey_entry(m, "<a, a, b>"))


def test_spheres8_witnesses(rings, dgas):
    r = rings["spheres8"]
    m = massey_triple(r, r.named_class("a"), r.named_class("a"), r.named_class("b"))
    mu, lam, _ = massey_witnesses(m)
    assert mu.is_zero()
    assert lam == dgas["spheres8"].basis_cochain(5, 0)  # lam = z
    assert m.is_nonzero()
    zero = massey_triple(r, r.named_class("a"), r.named_class("a"), r.named_class("a"))
    assert zero.defined and not zero.is_nonzero()


def test_even7_products_hit_the_aliases(rings, dgas):
    r = rings["even7"]
    alpha, beta = r.named_class("alpha"), r.named_class("beta")
    m = massey_triple(r, alpha, alpha, beta)
    assert m.defined and m.indeterminacy.dim == 0
    assert m.value == r.named_class("u")
    mu, lam, _ = massey_witnesses(m)
    assert mu == dgas["even7"].basis_cochain(3, 0)   # x kills a^2
    assert lam == dgas["even7"].basis_cochain(3, 2)  # z kills a*b
    m2 = massey_triple(r, beta, beta, alpha)
    assert m2.value == r.named_class("v")
    assert massey_witnesses(m2)[0] == dgas["even7"].basis_cochain(3, 1)  # y kills b^2
    assert m2.indeterminacy.dim == 0
    assert m.is_nonzero() and m2.is_nonzero()


def test_odd11_products_hit_the_aliases(rings):
    r = rings["odd11"]
    alpha, beta = r.named_class("alpha"), r.named_class("beta")
    m = massey_triple(r, alpha, alpha, beta)
    assert m.value == r.named_class("u") and m.indeterminacy.dim == 0
    m2 = massey_triple(r, beta, beta, alpha)
    assert m2.value == r.named_class("v") and m2.indeterminacy.dim == 0
    assert m.is_nonzero() and m2.is_nonzero()


def test_borromean_triple_products(rings, dgas):
    r = rings["borromean"]
    dga = dgas["borromean"]
    u, v, w = r.named_class("u"), r.named_class("v"), r.named_class("w")
    m1 = massey_triple(r, u, v, w)
    assert m1.defined and m1.indeterminacy.dim == 0
    mu, lam, _ = massey_witnesses(m1)
    assert mu == dga.basis_cochain(1, 5)   # y3 kills x1*x2
    assert lam == dga.basis_cochain(1, 3)  # y1 kills x2*x3
    # value x1*y1 - x3*y3 over the degree-2 monomial basis
    g1_cochain = from_coords(Cochain, 2, [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0])
    assert m1.value == r.class_of(g1_cochain)
    m2 = massey_triple(r, u, w, v)
    g2_cochain = from_coords(Cochain, 2, [0, 0, -1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0])
    assert m2.value == r.class_of(g2_cochain)
    assert m2.indeterminacy.dim == 0
    assert m1.is_nonzero() and m2.is_nonzero()
    span = Subspace._spanned(r.dim(2), [m1.value.pairs, m2.value.pairs])
    assert span.dim == 2  # the two products are linearly independent


def test_undefined_cases(rings):
    r = rings["even7"]
    alpha, v, beta = r.named_class("alpha"), r.named_class("v"), r.named_class("beta")
    m = massey_triple(r, alpha, v, beta)
    assert not m.defined and "alpha*beta is nonzero" == m.obstruction
    rb = rings["borromean"]
    big = massey_triple(rb, rb.named_class("u"), rb.basis_class(2, 0),
                        rb.named_class("v"))
    assert not big.defined and "exceeds truncation" in big.obstruction
    with pytest.raises(ValueError, match="positive-degree"):
        massey_triple(r, r.basis_class(0, 0), alpha, beta)


def test_scan_triples(rings):
    r = rings["spheres8"]
    cosets = scan_triples(r)
    assert len(cosets) == 6  # 8 orientations minus 2 mirrors
    assert sum(1 for m in cosets if m.defined) == 6
    assert sum(1 for m in cosets if m.is_nonzero()) == 4
    assert scan_triples(r, max_degree=7) == []
    rb = rings["borromean"]
    nonzero = [m for m in scan_triples(rb) if m.is_nonzero()]
    assert nonzero  # the linking is visible from basis classes alone


GOLDEN = ("spheres8", "borromean", "even7", "odd11")


def test_a_zero_value_settles_is_nonzero_without_the_indeterminacy(rings, monkeypatch):
    # alpha * H + H * gamma is built on first read of the indeterminacy or
    # the canonical value, which a zero value does not need
    calls = []
    indeterminacy = cohomology.CohomologyRing.indeterminacy
    monkeypatch.setattr(cohomology.CohomologyRing, "indeterminacy",
                        lambda *args: calls.append(args) or indeterminacy(*args))
    cosets = [c for name in GOLDEN for c in scan_triples(rings[name])]
    zeros = [c for c in cosets if c.defined and c.value.is_zero()]
    assert zeros and calls == []
    assert not any(c.is_nonzero() for c in zeros) and calls == []
    nonzero = next(c for c in cosets if c.defined and not c.value.is_zero())
    nonzero.is_nonzero()
    assert len(calls) == 1
    nonzero.is_nonzero()
    assert nonzero.indeterminacy is nonzero.indeterminacy and len(calls) == 1


@pytest.mark.parametrize("name", GOLDEN)
def test_lazy_indeterminacy_and_canonical_equal_the_eager_formula(rings, kunneth_of,
                                                                  monkeypatch, name):
    # the golden scans, and on borromean the Rudyak scan's triples in the
    # square as well, against alpha * H^(q+r-1) + H^(p+q-1) * gamma and the
    # value reduced modulo it, computed apart from the coset
    ring = rings[name]
    cosets = [(ring, c) for c in scan_triples(ring)]
    if name == "borromean":
        rudyak = []
        triple = bounds.massey_triple
        monkeypatch.setattr(bounds, "massey_triple",
                            lambda r, *cls: rudyak.append((r, triple(r, *cls))) or rudyak[-1][1])
        km = kunneth_of(name)
        assert rudyak_lower_bound(km, tc_weight_facts(ring, km, cat_weight_facts(ring, scan_triples(ring))), 3)[0] == 4
        assert rudyak and all(r is km.ht for r, _ in rudyak)
        cosets += rudyak
    assert any(c.is_nonzero() for _, c in cosets)
    for r, c in cosets:
        if not c.defined:
            assert c.indeterminacy is None and c.canonical is None and not c.is_nonzero()
            continue
        p, q, s = c.alpha.degree, c.beta.degree, c.gamma.degree
        indet = span_of_products(r, p, Subspace._spanned(r.dim(p), [c.alpha.pairs]), q + s - 1,
                                 Subspace.full(r.dim(q + s - 1))).add(
            span_of_products(r, s, Subspace._spanned(r.dim(s), [c.gamma.pairs]), p + q - 1,
                             Subspace.full(r.dim(p + q - 1))))
        canonical = CohClass(c.value.degree, c.value.dim, indet.reduce_pairs(c.value.pairs))
        assert c.indeterminacy == indet and c.canonical == canonical
        assert c.is_nonzero() == (not canonical.is_zero())


def test_each_indeterminacy_sum_is_formed_once(monkeypatch):
    # a bounds run reads the indeterminacy of every defined triple, in the
    # ring and in the square; triples sharing alpha, gamma and |beta| share
    # one sum, so each key's Subspace.add runs once
    sums = []
    add = Subspace.add
    monkeypatch.setattr(Subspace, "add", lambda a, b: sums.append((a, b)) or add(a, b))
    keys = 0
    for name in GOLDEN:
        ring = cohomology.CohomologyRing(dga.compile_cdga(dsl.parse_model(
            models.MODEL_SOURCES[name])))
        kmap = cohomology.KunnethMap(ring, ring)
        sums.clear()
        ledger = bounds.build_ledger(ring, kmap)
        defined = [c for c in ledger.massey_cosets if c.defined]
        assert [c.indeterminacy.dim for c in defined]  # as the report reads them
        rings = (ring, kmap.ht)
        multiples = {id(m) for r in rings for m in r._product_spans.values()}
        formed = [(a, b) for a, b in sums if id(a) in multiples and id(b) in multiples]
        memo = [s for r in rings for s in r._indeterminacies.values()]
        assert len(formed) == len({(id(a), id(b)) for a, b in formed}) == len(memo)
        keys += len(memo)
    assert keys == 24


def test_annihilators(rings):
    r = rings["even7"]
    beta = r.named_class("beta")
    ann = left_annihilator(r, 2, beta)
    assert ann.dim == 2  # all of H^2 kills beta
    ann5 = left_annihilator(r, 5, beta)
    # u*beta = mu != 0, v*beta = 0: one-dimensional annihilator
    assert ann5.dim == 1
    rann = right_annihilator(r, 5, r.named_class("alpha"))
    # alpha*u = 0, alpha*v = mu
    assert rann.dim == 1


def test_witness_perturbations_borromean(rings, dgas):
    rng = random.Random(271828)
    r = rings["borromean"]
    dga = dgas["borromean"]
    u, v, w = r.named_class("u"), r.named_class("v"), r.named_class("w")
    base = massey_triple(r, u, v, w)
    mu, lam, _ = massey_witnesses(base)
    for _ in range(100):
        xi = Cochain(1, dga.dim(1), ())
        eta = Cochain(1, dga.dim(1), ())
        for i in range(3):  # cocycles in degree 1 are spanned by the x_i
            xi = xi.add(dga.basis_cochain(1, i).scale(rng.randint(-3, 3)))
            eta = eta.add(dga.basis_cochain(1, i).scale(rng.randint(-3, 3)))
        w2, val2 = massey_value_from_witnesses(
            r, u, v, w, mu.add(xi), lam.add(eta))
        assert base.indeterminacy.reduce(val2.coords) == base.canonical.coords
        assert val2 == base.value  # indeterminacy is zero here


def test_witness_validation(rings, dgas):
    r = rings["borromean"]
    u, v, w = r.named_class("u"), r.named_class("v"), r.named_class("w")
    mu, lam, _ = massey_witnesses(massey_triple(r, u, v, w))
    bad = mu.add(dgas["borromean"].basis_cochain(1, 4))  # y2 is not closed
    with pytest.raises(ValueError, match="d mu"):
        massey_value_from_witnesses(r, u, v, w, bad, lam)


def test_multi_identities_fixed_instances(rings):
    rng = random.Random(1618)
    r = rings["spheres8"]
    rep = verify_multi_identities(r, r.named_class("a"), r.named_class("a"),
                                  r.named_class("b"), rng)
    assert all(rep.values()), rep
    re7 = rings["even7"]
    rep = verify_multi_identities(re7, re7.named_class("alpha"),
                                  re7.named_class("alpha"),
                                  re7.named_class("beta"), rng)
    assert all(rep.values()), rep
    rb = rings["borromean"]
    rep = verify_multi_identities(rb, rb.named_class("u"), rb.named_class("v"),
                                  rb.named_class("w"), rng)
    assert all(rep.values()), rep


def test_multi_identities_randomized(rings):
    rng = random.Random(31415)
    grid = [("spheres8", 3), ("borromean", 1), ("even7", 2)]
    checked = 0
    for name, deg in grid:
        r = rings[name]
        n = r.dim(deg)
        for _ in range(12):
            coords = lambda: tuple(rng.randint(-3, 3) for _ in range(n))
            alpha = from_coords(CohClass, deg, coords())
            beta = from_coords(CohClass, deg, coords())
            gamma = from_coords(CohClass, deg, coords())
            # every pairwise product in these degrees vanishes, so defined
            rep = verify_multi_identities(r, alpha, beta, gamma, rng)
            assert all(rep.values()), (name, rep)
            checked += 1
    assert checked == 36


def test_external_vanishing_witness(rings, kunneth_of):
    # degree-1 classes multiply to zero honestly, and the target degree
    # 1+2+2-1 = 4 sits inside the tensor truncation
    k = kunneth_of("borromean")
    r = rings["borromean"]
    u, v, w = r.named_class("u"), r.named_class("v"), r.named_class("w")
    one = r.basis_class(0, 0)
    wit = verify_external_vanishing(k, u, v, w, one, u, w)
    assert k.ht.dga.d(wit.primitive) == wit.value_cochain
    assert wit.coset.defined and not wit.coset.is_nonzero()
    # odd |a2| flips the mu sign; odd |c1| feeds the lam sign
    wit2 = verify_external_vanishing(k, u, v, one, w, u, w)
    assert k.ht.dga.d(wit2.primitive) == wit2.value_cochain
    assert wit2.coset.defined and not wit2.coset.is_nonzero()


def test_external_vanishing_randomized(rings, kunneth_of):
    rng = random.Random(8128)
    k = kunneth_of("borromean")
    r = rings["borromean"]
    one = r.basis_class(0, 0)

    def h1():
        return from_coords(CohClass, 1, tuple(rng.randint(-3, 3) for _ in range(3)))

    for _ in range(40):
        if rng.random() < 0.5:
            a2, c1 = one.scale(rng.randint(-2, 2)), h1()
        else:
            a2, c1 = h1(), one.scale(rng.randint(-2, 2))
        wit = verify_external_vanishing(k, h1(), h1(), c1, a2, h1(), h1())
        assert k.ht.dga.d(wit.primitive) == wit.value_cochain
        if wit.coset.defined:
            assert not wit.coset.is_nonzero()


def test_external_vanishing_refusal(rings, kunneth_of):
    k = kunneth_of("even7")
    r = rings["even7"]
    with pytest.raises(ValueError, match="hypothesis fails"):
        verify_external_vanishing(
            k, r.named_class("alpha"), r.named_class("v"), r.named_class("beta"),
            r.named_class("alpha"), r.named_class("alpha"), r.named_class("beta"))
    with pytest.raises(ValueError, match="hypothesis fails"):
        verify_external_vanishing(
            k, r.named_class("alpha"), r.named_class("alpha"), r.named_class("beta"),
            r.named_class("alpha"), r.named_class("beta"), r.named_class("u"))


def test_value_from_cocycles_matches_stock(rings, dgas):
    r = rings["borromean"]
    u, v, w = (r.named_class(n) for n in ("u", "v", "w"))
    base = massey_triple(r, u, v, w)
    wv, val = massey_value_from_cocycles(
        r, r.representative(u), r.representative(v), r.representative(w))
    assert wv == massey_witnesses(base)[2] and val == base.value


def test_value_from_cocycles_rejects_bad_input(rings, dgas):
    r = rings["borromean"]
    d = dgas["borromean"]
    u = r.representative(r.named_class("u"))
    # some degree-1 cochain with a nonzero differential must exist: the
    # triple product witnesses live there
    bad = next(d.basis_cochain(1, i) for i in range(d.dim(1))
               if not d.d(d.basis_cochain(1, i)).is_zero())
    with pytest.raises(ValueError, match="not a cocycle"):
        massey_value_from_cocycles(r, bad, u, u)
    e7 = rings["even7"]
    ra = e7.representative(e7.named_class("alpha"))
    rv = e7.representative(e7.named_class("v"))
    # alpha*v represents the nonzero top class, hence never bounds
    with pytest.raises(ValueError, match="not a coboundary"):
        massey_value_from_cocycles(e7, ra, rv, ra)


def test_internal_product_scalar_instances(rings):
    rng = random.Random(2718)
    r = rings["borromean"]
    one = r.basis_class(0, 0)
    u, v, w = (r.named_class(n) for n in ("u", "v", "w"))
    for _ in range(10):
        extras = [one.scale(rng.randint(1, 5)) for _ in range(3)]
        rep = verify_internal_product(r, u, v, w, *extras)
        assert rep == {"defined": True, "value-match": True,
                       "indeterminacy-carried": True}


def test_internal_product_positive_degree_extras(rings):
    # multiplying an entry by a positive class zeroes it here, and the
    # bigger triple must stay defined and absorb the (zero) product
    r = rings["even7"]
    one = r.basis_class(0, 0)
    alpha, beta = r.named_class("alpha"), r.named_class("beta")
    rep = verify_internal_product(r, alpha, alpha, beta, beta, one, one)
    assert rep == {"defined": True, "value-match": True,
                   "indeterminacy-carried": True}


def test_internal_product_degree_overflow_reported(rings):
    r = rings["borromean"]
    one = r.basis_class(0, 0)
    u, v, w = (r.named_class(n) for n in ("u", "v", "w"))
    rep = verify_internal_product(r, u, v, w, u, one, one)
    assert rep == {"defined": False}


def test_internal_product_needs_defined_base(rings):
    s2 = rings["s2"]
    a = s2.basis_class(2, 0)
    one = s2.basis_class(0, 0)
    with pytest.raises(ValueError, match="need a defined product"):
        verify_internal_product(s2, a, a, a, one, one, one)


def test_external_product_unit_and_positive_extras(rings, kunneth_of):
    k = kunneth_of("spheres8")
    r = rings["spheres8"]
    a, b = r.named_class("a"), r.named_class("b")
    one = r.basis_class(0, 0)
    rep = verify_external_product(k, a, a, b, one, one, one)
    assert rep == {"defined": True, "value-match": True,
                   "indeterminacy-carried": True}
    # a genuinely nonzero second factor: value x a lands in degree 11
    rep = verify_external_product(k, a, a, b, a, one.scale(2), one)
    assert rep == {"defined": True, "value-match": True,
                   "indeterminacy-carried": True}


def test_external_product_nonzero_cross_value(rings, kunneth_of):
    # the crossed triple itself is nonzero, so value-match is not vacuous
    k = kunneth_of("spheres8")
    r = rings["spheres8"]
    a, b = r.named_class("a"), r.named_class("b")
    one = r.basis_class(0, 0)
    base = massey_triple(r, a, a, b)
    big = massey_triple(k.ht, k.cross(a, a), k.cross(a, one), k.cross(b, one))
    assert big.defined and big.is_nonzero()
    lhs = k.cross(base.value, a)
    assert (lhs == big.value or lhs == big.value.scale(-1))


def test_the_oracles_live_with_the_tests():
    moved = {
        massey: ["verify_multi_identities", "verify_internal_product",
                 "verify_external_product", "verify_external_vanishing",
                 "ExternalWitness", "massey_value_from_witnesses",
                 "left_annihilator", "right_annihilator",
                 # imported only by the oracles
                 "KunnethMap", "SparseMatrix", "ONE"],
        cohomology.KunnethMap: ["check"],
        cohomology.CohomologyRing: ["zero_class"],
        dga: ["tensor_cochain"],
        dsl: ["print_model", "_poly_to_dsl"],
        linalg: ["vec"],
        linalg.SparseMatrix: ["from_rows", "from_columns", "from_dict"],
        models: ["model_names"],
    }
    for owner, names in moved.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
