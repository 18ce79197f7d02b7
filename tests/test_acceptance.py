"""End-to-end acceptance: five criteria, one PASS/FAIL line each.

Every number here is re-derived through public engine calls and compared
against the frozen expectations; a failed assertion prints the FAIL line
for its criterion before propagating.  Run with ``pytest -s`` to see the
PASS lines on a green run.
"""

import random

from masseytc.bounds import (
    bar,
    build_ledger,
    cat_weight_facts,
    chain_product,
    replay_ledger,
    rudyak_lower_bound,
    transfer_weight,
    weighted_lower_bound,
    zero_divisors_cup_length,
)
from masseytc.cohomology import CohClass, CohomologyRing
from masseytc.dga import Cochain, compile_cdga
from masseytc.dsl import parse_model
from masseytc.linalg import kernel, rank
from masseytc.massey import massey_triple, massey_value_from_cocycles
from masseytc import report
from oracles import (
    axiom_sweep,
    check_kunneth,
    from_columns,
    from_coords,
    massey_value_from_witnesses,
    massey_witnesses,
    verify_external_product,
    verify_external_vanishing,
    verify_internal_product,
    verify_multi_identities,
)

GOLDEN = ("spheres8", "borromean", "even7", "odd11")


class criterion:
    """Context manager printing the acceptance verdict for one criterion."""

    def __init__(self, n: int):
        self.n = n

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"ACCEPTANCE {self.n}: {'PASS' if exc_type is None else 'FAIL'}")
        return False


def facts_dict(ledger, kind):
    pool = ledger.cat_facts if kind == "cat" else ledger.tc_facts
    return {f.key: f for f in pool}


def cert(ledger, rule, kind):
    return next(c for c in ledger.certificates
                if c["rule"] == rule and c["kind"] == kind)


def test_acceptance_1_wedge_of_spheres_with_two_top_cells(
        rings, kunneth_of, ledger_of):
    with criterion(1):
        r = rings["spheres8"]
        assert r.dims() == (1, 0, 0, 2, 0, 0, 0, 0, 2)

        a, b = r.named_class("a"), r.named_class("b")
        aab = massey_triple(r, a, a, b)
        bab = massey_triple(r, b, a, b)
        for t in (aab, bab):
            assert t.defined and t.indeterminacy.dim == 0 and t.is_nonzero()
        assert rank(from_columns(
            r.dim(8), [aab.value.coords, bab.value.coords])) == 2

        kmap = kunneth_of("spheres8")
        zk, _, zprod = zero_divisors_cup_length(kmap)
        assert zk == 2 and not zprod.is_zero()

        led = ledger_of("spheres8")
        cat = facts_dict(led, "cat")
        heavy = [f for f in led.cat_facts if f.rule == "R3"]
        assert len(heavy) == 2 and all(
            f.weight == 2 and f.cls.degree == 8 for f in heavy)
        for f in heavy:  # connectivity 2, degree 8 = 2*(2+1)+2 fits the window
            moved, reason = transfer_weight(r, kmap, f, 2)
            assert reason is None and moved.weight == 2
        tc = facts_dict(led, "tc")
        best, chain, prod = weighted_lower_bound(kmap.ht, led.tc_facts)
        assert best == 4 and not prod.is_zero()
        assert sorted(tc[key].rule for key in chain) == ["R4-transfer",
                                                         "R4-transfer"]

        assert (led.cat_lower, led.cat_upper) == (3, 3)
        assert (led.tc_lower, led.tc_upper) == (5, 5)
        wp = cert(led, "weighted-product", "cat")
        assert wp["bound"] == 3
        assert any(cat[key].rule == "R3" and cat[key].weight == 2
                   for key in wp["factors"])
        assert cert(led, "weighted-product", "tc")["bound"] == 5
        assert replay_ledger(led, r, kmap)


def test_acceptance_2_three_torsion_free_loops_space(
        rings, kunneth_of, ledger_of):
    with criterion(2):
        r = rings["borromean"]
        assert r.dim(1) == 3
        for i in range(3):
            for j in range(3):
                assert r.cup(r.basis_class(1, i), r.basis_class(1, j)).is_zero()

        u, v, w = (r.named_class(n) for n in ("u", "v", "w"))
        uvw = massey_triple(r, u, v, w)
        uwv = massey_triple(r, u, w, v)
        for t in (uvw, uwv):
            assert t.defined and t.indeterminacy.dim == 0 and t.is_nonzero()

        kmap = kunneth_of("borromean")
        ht = kmap.ht
        g1, g2 = uvw.canonical, uwv.canonical
        middle = ht.cup(bar(kmap, v), bar(kmap, g2)).scale(-1)
        theta = massey_triple(ht, bar(kmap, u), middle, bar(kmap, w))
        assert theta.defined
        if not theta.is_nonzero():
            # enlarged indeterminacy swallowed the class; fall back to the
            # stepwise identities and say so instead of passing silently
            print("ACCEPTANCE 2: FALLBACK - theta contains zero, "
                  "checking the derivation stepwise")
            rep = verify_external_product(kmap, u, v, w, r.basis_class(0, 0),
                                          r.basis_class(0, 0),
                                          r.basis_class(0, 0))
            assert all(rep.values())
            wit = verify_external_vanishing(kmap, u, v, w,
                                            r.basis_class(0, 0), u, w)
            assert ht.dga.d(wit.primitive) == wit.value_cochain
        else:
            assert theta.indeterminacy.dim == 0
            cands = [kmap.cross(g1, g2).scale(s1).add(kmap.cross(g2, g1).scale(s2))
                     for s1 in (1, -1) for s2 in (1, -1)]
            assert theta.canonical in cands

        led = ledger_of("borromean")
        improved, rcert = rudyak_lower_bound(kmap, led.tc_facts, led.zcl + 1)
        assert improved == 4 and rcert is not None
        assert cert(led, "massey-rudyak", "tc")["bound"] == 4
        assert (led.tc_lower, led.tc_upper) == (4, 5)
        assert replay_ledger(led, r, kmap)


def test_acceptance_3_heavy_weight_pair_models(rings, kunneth_of, ledger_of):
    with criterion(3):
        for name in ("even7", "odd11"):
            r = rings[name]
            alpha, beta, u, v, mu = (r.named_class(n)
                                     for n in ("alpha", "beta", "u", "v", "mu"))
            # exhaustive cup table on positive basis classes: exactly the
            # four orderings of alpha*v and u*beta survive, all equal to mu
            nonzero = {}
            for k1 in range(1, r.truncation + 1):
                for k2 in range(1, r.truncation + 1 - k1):
                    for i in range(r.dim(k1)):
                        for j in range(r.dim(k2)):
                            c = r.cup(r.basis_class(k1, i), r.basis_class(k2, j))
                            if not c.is_zero():
                                nonzero[(k1, i, k2, j)] = c
            assert len(nonzero) == 4
            # basis vectors may differ from the named classes by sign
            assert all(c == mu or c == mu.scale(-1) for c in nonzero.values())
            assert r.cup(alpha, v) == mu == r.cup(u, beta)
            assert r.cup(v, alpha) == mu == r.cup(beta, u)

            taab = massey_triple(r, alpha, alpha, beta)
            tbba = massey_triple(r, beta, beta, alpha)
            assert taab.defined and tbba.defined
            assert not taab.indeterminacy.reduce_pairs(u.sub(taab.value).pairs)
            assert not tbba.indeterminacy.reduce_pairs(v.sub(tbba.value).pairs)

            kmap = kunneth_of(name)
            zk, _, zprod = zero_divisors_cup_length(kmap)
            assert zk == 3 and not zprod.is_zero()

            led = ledger_of(name)
            best, _, prod = weighted_lower_bound(kmap.ht, led.tc_facts)
            assert best == 5 and not prod.is_zero()
            assert cert(led, "weighted-product", "tc")["bound"] == 6
            assert (led.cat_lower, led.cat_upper) == (4, 4)
            assert (led.tc_lower, led.tc_upper) == (6, 7)
            assert replay_ledger(led, r, kmap)


def test_acceptance_4_sphere_sanity(rings, kunneth_of, ledger_of):
    with criterion(4):
        k3 = kunneth_of("s3")
        x = rings["s3"].basis_class(3, 0)
        bx = bar(k3, x)
        assert not bx.is_zero() and k3.ht.cup(bx, bx).is_zero()
        zk, _, _ = zero_divisors_cup_length(k3)
        assert zk == 1
        assert ledger_of("s3").tc_lower == 2

        k2 = kunneth_of("s2")
        a = rings["s2"].basis_class(2, 0)
        ba = bar(k2, a)
        sq = k2.ht.cup(ba, ba)
        assert sq == k2.cross(a, a).scale(-2) and not sq.is_zero()
        zk, _, _ = zero_divisors_cup_length(k2)
        assert zk == 2
        assert ledger_of("s2").tc_lower == 3


PADDED_SRC = """\
algebra even7pad {
  field Q
  truncate 8
  space-dim 7
  simply-connected true
  generator e degree 1
  generator f degree 2
  generator a degree 2
  generator b degree 2
  generator x degree 3
  generator y degree 3
  generator z degree 3
  d e = f
  d x = a*a
  d y = b*b
  d z = a*b
  alias alpha = a
  alias beta = b
  alias u = a*z - x*b
  alias v = b*z - y*a
}
"""


def test_acceptance_5_invariant_suites(rings, dgas, kunneth_of,
                                       ledger_of):
    with criterion(5):
        rng = random.Random(60221023)

        # --- DGA axioms: exhaustive on the compiled models, randomized
        # Leibniz/associativity spot checks on the tensor squares
        for name in sorted(dgas):
            assert axiom_sweep(dgas[name]) == []
        checked = 0
        for name in GOLDEN:
            t = kunneth_of(name).ht.dga
            degs = [k for k in range(t.truncation + 1) if t.dim(k)]

            def rand_cochain(k):
                return from_coords(Cochain, k, [rng.randint(-3, 3)
                                               for _ in range(t.dim(k))])

            for _ in range(30):
                p = rng.choice(degs)
                q = rng.choice([k for k in degs if p + k <= t.truncation])
                xx, yy = rand_cochain(p), rand_cochain(q)
                lhs = t.d(t.mul(xx, yy))
                sign = -1 if p % 2 else 1
                rhs = t.mul(t.d(xx), yy).add(t.mul(xx, t.d(yy)).scale(sign))
                assert lhs == rhs
                s = rng.choice(degs)
                if p + q + s <= t.truncation:
                    zz = rand_cochain(s)
                    assert t.mul(t.mul(xx, yy), zz) == t.mul(xx, t.mul(yy, zz))
                checked += 1
        assert checked >= 100

        # --- Kunneth dimension and ring checks on every golden square
        for name in GOLDEN:
            check_kunneth(kunneth_of(name))

        # --- Massey coset independence of representatives and witnesses;
        # the padded model carries a contractible (e, f) pair, so degree-2
        # classes finally have more than one cocycle representative
        pad = CohomologyRing(compile_cdga(parse_model(PADDED_SRC)))
        assert pad.dims()[:8] == rings["even7"].dims()[:8]
        f_bdy = pad.dga.d(from_coords(Cochain, 
            1, [1] + [0] * (pad.dga.dim(1) - 1)))
        alpha, beta = pad.named_class("alpha"), pad.named_class("beta")
        independent = 0
        for first, second in ((alpha, beta), (beta, alpha)):
            base = massey_triple(pad, first, first, second)
            assert base.defined
            ra, rb = pad.representative(first), pad.representative(second)
            for _ in range(30):
                shifts = [f_bdy.scale(rng.randint(-3, 3)) for _ in range(3)]
                _, val = massey_value_from_cocycles(
                    pad, ra.add(shifts[0]), ra.add(shifts[1]),
                    rb.add(shifts[2]))
                assert (base.indeterminacy.reduce(val.coords)
                        == base.canonical.coords)
                independent += 1
        r = rings["borromean"]
        u, v, w = (r.named_class(n) for n in ("u", "v", "w"))
        base = massey_triple(r, u, v, w)
        mu, lam, _ = massey_witnesses(base)
        n1 = r.dga.dim(1)
        cocycles = kernel(r.dga.diff[1]).nonzero_columns
        for _ in range(40):
            xi = Cochain(1, n1, ())
            eta = Cochain(1, n1, ())
            for col in cocycles:
                xi = xi.add(Cochain(1, n1, col).scale(rng.randint(-2, 2)))
                eta = eta.add(Cochain(1, n1, col).scale(rng.randint(-2, 2)))
            _, val = massey_value_from_witnesses(
                r, u, v, w, mu.add(xi), lam.add(eta))
            assert (base.indeterminacy.reduce(val.coords)
                    == base.canonical.coords)
            independent += 1
        assert independent >= 100

        # --- triple-product identity instances: linearity and scalars ...
        instances = 0
        for name, deg in (("spheres8", 3), ("borromean", 1), ("even7", 2)):
            ring = rings[name]
            n = ring.dim(deg)
            for _ in range(34):
                trip = [from_coords(CohClass, deg, tuple(rng.randint(-3, 3)
                                            for _ in range(n)))
                        for _ in range(3)]
                rep = verify_multi_identities(ring, *trip, rng)
                assert all(rep.values()), (name, rep)
                instances += 1
        assert instances >= 100

        # --- ... entrywise internal products ...
        instances = 0
        bases = {
            "spheres8": ("a", "a", "b"),
            "even7": ("alpha", "alpha", "beta"),
            "odd11": ("alpha", "alpha", "beta"),
        }
        for name, names3 in bases.items():
            ring = rings[name]
            trip = [ring.named_class(n) for n in names3]
            one = ring.basis_class(0, 0)
            for _ in range(25):
                extras = [one.scale(rng.randint(1, 6)) for _ in range(3)]
                rep = verify_internal_product(ring, *trip, *extras)
                assert rep == {"defined": True, "value-match": True,
                               "indeterminacy-carried": True}
                instances += 1
        ring = rings["even7"]
        one = ring.basis_class(0, 0)
        trip = [ring.named_class(n) for n in ("alpha", "alpha", "beta")]
        for i in range(30):  # positive-degree extras zero an entry honestly
            extra = ring.basis_class(2, i % 2).scale(rng.randint(1, 3))
            where = i % 3
            extras = [one, one, one]
            extras[where] = extra
            rep = verify_internal_product(ring, *trip, *extras)
            assert rep == {"defined": True, "value-match": True,
                           "indeterminacy-carried": True}
            instances += 1
        assert instances >= 100

        # --- ... and external cross products on the squares
        instances = 0
        km = kunneth_of("spheres8")
        ring = rings["spheres8"]
        one = ring.basis_class(0, 0)
        a, b = ring.named_class("a"), ring.named_class("b")
        pool = [one, a, b]
        for _ in range(40):
            extras = [rng.choice(pool).scale(rng.randint(1, 4))
                      for _ in range(3)]
            if sum(e.degree for e in extras) > 8:
                extras[2] = one
            rep = verify_external_product(km, a, a, b, *extras)
            assert rep == {"defined": True, "value-match": True,
                           "indeterminacy-carried": True}
            instances += 1
        km = kunneth_of("even7")
        ring = rings["even7"]
        one = ring.basis_class(0, 0)
        pool = [one, ring.named_class("alpha"), ring.named_class("beta"),
                ring.named_class("u"), ring.named_class("v")]
        trip = [ring.named_class(n) for n in ("alpha", "alpha", "beta")]
        for _ in range(40):
            extras = [rng.choice(pool).scale(rng.randint(1, 4))
                      for _ in range(3)]
            if sum(e.degree for e in extras) > 11:
                extras = [extras[0], one, one]
            rep = verify_external_product(km, *trip, *extras)
            assert rep == {"defined": True, "value-match": True,
                           "indeterminacy-carried": True}
            instances += 1
        km = kunneth_of("borromean")
        ring = rings["borromean"]
        one = ring.basis_class(0, 0)

        def h1():
            return from_coords(CohClass, 1, tuple(rng.randint(-3, 3) for _ in range(3)))

        for _ in range(30):
            trip = [h1() for _ in range(3)]
            if massey_triple(ring, *trip).value is None:
                continue
            extras = [one.scale(rng.randint(1, 4)), one, one]
            if rng.random() < 0.5:
                extras[rng.randint(1, 2)] = h1()
            rep = verify_external_product(km, *trip, *extras)
            assert rep["defined"] and rep["value-match"]
            assert rep["indeterminacy-carried"]
            instances += 1
        assert instances >= 100

        # --- external vanishing with satisfied hypotheses
        instances = 0
        km = kunneth_of("borromean")
        for _ in range(60):
            if rng.random() < 0.5:
                a2, c1 = one.scale(rng.randint(-2, 2)), h1()
            else:
                a2, c1 = h1(), one.scale(rng.randint(-2, 2))
            wit = verify_external_vanishing(km, h1(), h1(), c1, a2, h1(), h1())
            assert km.ht.dga.d(wit.primitive) == wit.value_cochain
            if wit.coset.defined:
                assert not wit.coset.is_nonzero()
            instances += 1
        km = kunneth_of("even7")
        ring = rings["even7"]
        e7one = ring.basis_class(0, 0)

        def h2():
            return from_coords(CohClass, 2, (rng.randint(-3, 3), rng.randint(-3, 3)))

        others = [ring.named_class("u"), ring.named_class("v"),
                  ring.named_class("alpha"), ring.named_class("beta"), e7one]
        for _ in range(50):
            wit = verify_external_vanishing(
                km, h2(), h2(), rng.choice(others),
                rng.choice(others), h2(), h2())
            assert km.ht.dga.d(wit.primitive) == wit.value_cochain
            if wit.coset.defined:
                assert not wit.coset.is_nonzero()
            instances += 1
        assert instances >= 100

        # --- certificate replay on every ledger
        for name in GOLDEN + ("s3", "s2", "point"):
            assert replay_ledger(ledger_of(name), rings[name],
                                 kunneth_of(name))

        # --- byte-identical machine reports: the cached session ledger
        # versus a from-scratch one, each with the sections it carries
        for name in GOLDEN:
            ring, kmap = rings[name], kunneth_of(name)
            led_a, led_b = ledger_of(name), build_ledger(ring, kmap)
            payloads = []
            for led in (led_a, led_b):
                payloads.append(report.build_payload(
                    ring,
                    massey=report.massey_section(ring, led.massey_cosets),
                    zcl=report.zcl_section(led.zcl, led.zcl_witness,
                                           chain_product(kmap.ht, led.zcl_witness)),
                    weights=report.weights_section(led),
                    ledger=report.ledger_section(led),
                ))
            assert report.render_json(payloads[0]) == report.render_json(
                payloads[1])
