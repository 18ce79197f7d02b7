"""Cohomology ring tests: dimensions, canonical classes, cup products.

Dimensions are recomputed with sympy ranks (independent elimination code)
so the kernel/image machinery never grades its own homework.
"""

import itertools
import random
import tracemalloc

import pytest
import sympy

import masseytc.cohomology
import masseytc.dga
import masseytc.linalg
from masseytc import report
from masseytc.bounds import (
    bar,
    build_ledger,
    indecomposables,
    zero_divisors_cup_length,
)
from masseytc.cohomology import CohomologyRing, KunnethMap
from masseytc.cli import main
from masseytc.dga import Cochain, Generator, compile_cdga, normalize_presentation
from masseytc.dsl import parse_model
from masseytc.linalg import Subspace, kernel, rank
from oracles import (check_kunneth, eager_tensor_tables, span_of_products, tensor_cochain,
                     zero_class, zero_divisor_ideal)
from test_cli import STRESS_NIL_SRC

POLY4_SRC = """\
algebra poly4 {
  truncate 8
  space-dim 8
  simply-connected true
  generator a0 degree 2
  generator a1 degree 2
  generator a2 degree 2
  generator a3 degree 2
  generator z degree 3
  d z = a0*a1
}
"""


def to_sympy(m):
    out = sympy.zeros(m.rows, m.cols)
    for c, col in enumerate(m.nonzero_columns):
        for r, v in col:
            out[r, c] = sympy.Rational(v.numerator, v.denominator)
    return out


GOLDEN_DIMS = {
    "spheres8": (1, 0, 0, 2, 0, 0, 0, 0, 2),
    "borromean": (1, 3, 12),
    "even7": (1, 0, 2, 0, 0, 2, 0, 1, 6),
    "odd11": (1, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 1),
    "s2": (1, 0, 1, 0, 0),
    "s3": (1, 0, 0, 1),
    "point": (1, 0),
}


def test_dims_golden(rings):
    for name, want in GOLDEN_DIMS.items():
        assert rings[name].dims() == want, name


def test_the_top_degree_and_the_positive_basis_read_no_dimension(rings, kunneth_of,
                                                                monkeypatch):
    # both are read off the dimensions a ring keeps from when it is built,
    # so neither rescans the degrees through ``dim``
    built = [rings[name] for name in GOLDEN_DIMS] + [kunneth_of("borromean").ht]
    calls = []
    dim = CohomologyRing.dim
    monkeypatch.setattr(CohomologyRing, "dim", lambda self, k: calls.append(k) or dim(self, k))
    got = [(ring.top_nonzero_degree(), ring.positive_basis()) for ring in built]
    assert calls == []
    monkeypatch.undo()
    for ring, (top, basis) in zip(built, got):
        assert top == max(k for k in range(ring.truncation + 1) if ring.dim(k))
        assert basis == [ring.basis_class(k, i) for k in range(1, ring.truncation + 1)
                         for i in range(ring.dim(k))]
    assert [top for top, _ in got] == [8, 2, 8, 11, 2, 3, 0, 4]


def test_dims_against_sympy(dgas, rings):
    for name, dga in dgas.items():
        ring = rings[name]
        for k in range(dga.truncation + 1):
            rk = to_sympy(dga.diff[k]).rank()
            rk_prev = to_sympy(dga.diff[k - 1]).rank() if k else 0
            assert ring.dim(k) == dga.dim(k) - rk - rk_prev, (name, k)


def test_rank_nullity_internal(dgas, rings):
    for name, dga in dgas.items():
        ring = rings[name]
        for k in range(dga.truncation + 1):
            z = kernel(dga.diff[k])
            b = ring.part(k).boundaries
            assert z.dim == dga.dim(k) - rank(dga.diff[k])
            assert b.dim == (rank(dga.diff[k - 1]) if k else 0)
            assert ring.dim(k) == z.dim - b.dim


def test_class_of_is_representative_independent(dgas, rings):
    rng = random.Random(40993)
    m = dgas["even7"]
    ring = rings["even7"]
    (_, mu_poly), = [a for a in m.presentation.aliases if a[0] == "mu"]
    mu = m.cochain_from_poly(mu_poly)
    base = ring.class_of(mu)
    assert not base.is_zero()
    for _ in range(100):
        w = Cochain.from_coords(6, [rng.randint(-4, 4) for _ in range(m.dim(6))])
        assert ring.class_of(mu.add(m.d(w))) == base


def test_class_of_rejects_noncocycles(dgas, rings):
    m = dgas["even7"]
    x = m.basis_cochain(3, 0)
    with pytest.raises(ValueError, match="not a cocycle"):
        rings["even7"].class_of(x)
    with pytest.raises(ValueError, match="not a cocycle"):
        rings["borromean"].named_class("y1")


def test_boundaries_are_zero_classes(dgas, rings):
    m = dgas["spheres8"]
    ab = m.basis_cochain(6, 0)  # a*b = d(z)
    assert rings["spheres8"].class_of(ab).is_zero()


def test_named_classes(rings):
    r = rings["even7"]
    alpha = r.named_class("alpha")
    assert alpha == r.class_of(rings["even7"].dga.basis_cochain(2, 0))
    u = r.named_class("u")
    assert (u.degree, u.coords) == (5, (0, 1))
    with pytest.raises(ValueError, match="unknown class name"):
        r.named_class("nope")


def test_cup_tables_even7(rings):
    r = rings["even7"]
    alpha, beta = r.named_class("alpha"), r.named_class("beta")
    u, v, mu = r.named_class("u"), r.named_class("v"), r.named_class("mu")
    assert r.cup(alpha, beta).is_zero()
    assert r.cup(alpha, alpha).is_zero()
    assert r.cup(beta, beta).is_zero()
    assert r.cup(alpha, v) == mu
    assert r.cup(u, beta) == mu
    assert not mu.is_zero()
    assert r.cup(alpha, u).is_zero()
    assert r.cup(beta, v).is_zero()
    assert r.cup(beta, u) == mu  # deg 2 * deg 5 commute


def test_cup_tables_odd11(rings):
    r = rings["odd11"]
    alpha, beta = r.named_class("alpha"), r.named_class("beta")
    u, v, mu = r.named_class("u"), r.named_class("v"), r.named_class("mu")
    assert r.cup(alpha, beta).is_zero()
    assert r.cup(alpha, v) == mu
    assert r.cup(u, beta) == mu
    assert not mu.is_zero()
    assert r.cup(alpha, u).is_zero()
    assert r.cup(v, beta).is_zero()


def test_cup_tables_spheres8_and_borromean(rings):
    r = rings["spheres8"]
    a, b = r.named_class("a"), r.named_class("b")
    for c1 in (a, b):
        for c2 in (a, b):
            assert r.cup(c1, c2).is_zero()
    rb = rings["borromean"]
    ones = [rb.named_class(n) for n in ("u", "v", "w")]
    for c1 in ones:
        for c2 in ones:
            assert rb.cup(c1, c2).is_zero()


def test_cup_checked_flags_truncation(rings):
    rb = rings["borromean"]
    u = rb.named_class("u")
    h2 = rb.basis_class(2, 0)
    _, truncated = rb.cup_checked(u, h2)
    assert truncated
    _, truncated = rb.cup_checked(u, zero_class(rb, 2))
    assert not truncated
    r = rings["spheres8"]
    _, truncated = r.cup_checked(r.named_class("a"), r.basis_class(8, 0))
    assert truncated
    prod, truncated = r.cup_checked(r.named_class("a"), r.named_class("b"))
    assert prod.is_zero() and not truncated


def test_cup_checked_flags_a_factor_above_the_truncation():
    # a class of degree 5 > N = 4 has no coordinates the model knows: its
    # empty coordinates are not a known zero, so no product with it is
    # certified
    ring = CohomologyRing(compile_cdga(parse_model(
        "algebra big {\n  truncate 4\n  generator x degree 3\n"
        "  generator y degree 2\n  alias big = x*y\n}\n")))
    big, y = ring.class_of(Cochain.from_coords(5, ())), ring.named_class("y")
    assert big.degree == 5 and big.is_zero()
    for left, right in ((big, y), (y, big), (big, big)):
        assert ring.cup_checked(left, right)[1]
    _, truncated = ring.cup_checked(zero_class(ring, 2), big)
    assert not truncated
    rows = {(r["left"], r["right"]): r for r in report.cohomology_section(ring)["ring_table"]}
    assert rows[("x", "y")] == {"left": "x", "right": "y", "degree": 5,
                                "value": None, "truncated": True}


BIG_SRC = """\
algebra big {
  truncate 4
  generator x degree 2
  generator y degree 3
  alias big = x*y
}
"""


def test_a_named_class_above_the_truncation_is_refused(tmp_path, capsys):
    # big = x*y has degree 5 > N = 4: the model knows none of its
    # coordinates, so it is neither a class nor a zero
    ring = CohomologyRing(compile_cdga(parse_model(BIG_SRC)))
    for _ in range(2):  # the refusal is remembered, and raised again
        with pytest.raises(ValueError, match="degree 5, above the truncation 4"):
            ring.named_class("big")
    section = report.cohomology_section(ring)
    assert sorted(section["named_classes"]) == ["x", "y"]
    assert all("big" not in (r["left"], r["right"]) for r in section["ring_table"])
    path = tmp_path / "big.mdl"
    path.write_text(BIG_SRC)
    assert main(["massey", str(path), "big", "x", "x"]) == 2
    assert capsys.readouterr().err == (
        "error: class 'big' has degree 5, above the truncation 4\n")


def test_named_classes_are_resolved_once_per_ring(dgas, monkeypatch):
    # the massey command resolves its three names, and the cohomology
    # section every name again: each costs one resolution
    ring = CohomologyRing(dgas["even7"])
    calls = []
    resolve = ring._resolve
    monkeypatch.setattr(ring, "_resolve", lambda name: calls.append(name) or resolve(name))
    alpha = ring.named_class("alpha")
    assert ring.named_class("alpha") is alpha and calls == ["alpha"]
    report.cohomology_section(ring)
    report.cohomology_section(ring)
    p = ring.dga.presentation
    names = [a for a, _ in p.aliases] + [g.name for g in p.generators]
    assert sorted(calls) == sorted(names)  # refusals included: x, y, z


def test_representative_roundtrip(rings):
    for name, ring in rings.items():
        for k in range(ring.truncation + 1):
            for i in range(ring.dim(k)):
                c = ring.basis_class(k, i)
                rep = ring.representative(c)
                assert ring.class_of(rep) == c, (name, k, i)
                assert ring.part(k).boundaries.reduce(rep.coords) == rep.coords


def test_cup_length(rings):
    want = {"spheres8": 1, "borromean": 1, "even7": 2, "odd11": 2,
            "s2": 1, "s3": 1, "point": 0}
    for name, length in want.items():
        assert rings[name].cup_length() == length, name


def test_connectivity(rings):
    want = {"spheres8": 2, "borromean": 0, "even7": 1, "odd11": 2,
            "s2": 1, "s3": 2, "point": 1}
    for name, r in want.items():
        assert rings[name].connectivity() == r, name


def test_simply_connected_flag_contradiction():
    from masseytc.dga import compile_cdga

    p = parse_model("""
        algebra liar {
          truncate 2
          simply-connected true
          generator t degree 1
        }
    """)
    with pytest.raises(ValueError, match="simply connected"):
        CohomologyRing(compile_cdga(p))


def test_product_span_even7(rings):
    from masseytc.linalg import Subspace

    r = rings["even7"]
    got = r.product_span(2, Subspace.full(r.dim(2)), 5)
    assert got.dim == 1 == r.dim(7)


def test_kunneth_s3(rings, kunneth_of):
    k = kunneth_of("s3")
    check_kunneth(k)
    ht = k.ht
    assert ht.dims() == (1, 0, 0, 2, 0, 0, 1)
    r = rings["s3"]
    x = r.basis_class(3, 0)
    one = r.basis_class(0, 0)
    x1 = k.cross(x, one)
    assert k.diagonal_map(x1) == x
    xx = k.cross(x, x)
    assert k.decompose(xx) == {(3, 0, 0): 1}
    assert k.diagonal_map(xx).is_zero()


def test_kunneth_s2(kunneth_of):
    k = kunneth_of("s2")
    check_kunneth(k)
    assert k.ht.dims() == (1, 0, 2, 0, 1, 0, 0, 0, 0)


def test_kunneth_spheres8(kunneth_of):
    k = kunneth_of("spheres8")
    check_kunneth(k)
    dims = k.ht.dims()
    assert dims[3] == 4 and dims[6] == 4 and dims[11] == 8 and dims[16] == 4


def test_kunneth_decompose_random(rings, kunneth_of):
    rng = random.Random(7321)
    k = kunneth_of("s2")
    r = rings["s2"]
    for _ in range(60):
        deg = rng.choice([0, 2, 4])
        pairs = k.pairs[deg]
        coeffs = {p: rng.randint(-3, 3) for p in pairs}
        cls = zero_class(k.ht, deg)
        for (p, i, j), c in coeffs.items():
            if c:
                cls = cls.add(k.cross(r.basis_class(p, i),
                                      r.basis_class(deg - p, j)).scale(c))
        got = k.decompose(cls)
        assert got == {p: c for p, c in coeffs.items() if c}


def random_presentations(seed, count):
    """Free models on closed generators of degrees 2 and 3 plus one ``t`` of
    degree 3 whose differential is a random closed monomial, truncated at 4
    or 5, so every model has a boundary inside the window."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        base = [("p", 2), ("q", 2), ("r", 3), ("s", 3)]
        rng.shuffle(base)
        gens = base[: rng.randint(2, 4)]
        top_deg = 3
        cands = []
        for k in range(1, 3):
            for combo in itertools.combinations_with_replacement(sorted(gens), k):
                odd_names = [g for g, d in combo if d % 2]
                if (sum(d for _, d in combo) == top_deg + 1
                        and len(odd_names) == len(set(odd_names))):
                    cands.append([g for g, _ in combo])
        if not cands:
            continue
        out.append(normalize_presentation(
            f"rand{len(out)}", [Generator(g, d) for g, d in gens + [("t", top_deg)]],
            {"t": [(rng.choice([1, -1, 2]), rng.choice(cands))]},
            rng.randint(4, 5)))
    return out


def test_kunneth_is_the_identity_on_random_squares():
    # the square's canonical classes are the cross products r_i (x) s_j and
    # its table products are the cochain products, on random presentations
    for p in random_presentations(5501, 15):
        ring = CohomologyRing(compile_cdga(p))
        check_kunneth(KunnethMap(ring, ring))


@pytest.mark.parametrize("first, second", [("s2", "s3"), ("s3", "s2"),
                                           ("spheres8", "s2"), ("s3", "spheres8")])
def test_kunneth_is_the_identity_on_mixed_squares(rings, first, second):
    # factors that differ, with odd and even degrees on either side; the
    # Koszul sign needs odd classes in both factors, as in s3 (x) spheres8
    k = KunnethMap(rings[first], rings[second])
    check_kunneth(k)
    assert k.ht.dims() == tuple(
        sum(rings[first].dim(p) * rings[second].dim(d - p) for p in range(d + 1))
        for d in range(k.ht.truncation + 1))


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11"])
def test_kunneth_is_the_identity_on_golden_squares(kunneth_of, name):
    # the square's dimensions are read off the pairs; check() eliminates
    # every degree of the square and ties them to its cohomology
    check_kunneth(kunneth_of(name))


def test_both_squares_multiply_and_cross_through_the_pair_basis(dgas, monkeypatch):
    # the cochain square and the cohomology square share one pair layout,
    # one Koszul product rule and one x (x) y: each caller reaches them
    calls = {"product": 0, "cross": 0}

    def counted(name):
        fn = getattr(masseytc.dga.PairBasis, name)

        def wrapper(self, *args):
            calls[name] += 1
            return fn(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(masseytc.dga.PairBasis, name, counted(name))
    assert not hasattr(CohomologyRing, "cross_coords")
    ring = CohomologyRing(dgas["spheres8"])
    km = KunnethMap(ring, ring)
    t, a = km.ht.dga, ring.basis_class(3, 0)
    assert isinstance(t.pairs, masseytc.dga.PairBasis) and km.pairs is km.ht.pairs
    assert t.mult.get((3, 0, 3, 1)) and calls == {"product": 1, "cross": 0}
    assert km.ht.cup_basis(3, 0, 3, 3) and calls == {"product": 2, "cross": 0}
    rep = ring.representative(a)
    assert not tensor_cochain(t, rep, rep).is_zero()
    assert calls == {"product": 2, "cross": 1}
    assert not km.cross(a, a).is_zero() and calls == {"product": 2, "cross": 2}


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11", "stress"])
def test_square_eliminates_only_on_demand(rings, monkeypatch, name):
    # only the Rudyak scan's Massey triples need the square's cochains, and
    # only borromean computes any.  Its class basis comes from the factors,
    # so only the witness solves and the boundaries of the target degree
    # eliminate: d_0, d_1 and d_2, each once.  d_3 is built, for the
    # cocycle check of the value, and never eliminated; no name is rendered
    ring = rings[name] if name in rings else _stress_ring("general")
    ring.dims()
    eliminated = []
    entries = []

    tagged = masseytc.linalg._tagged_echelon
    monkeypatch.setattr(masseytc.linalg, "_tagged_echelon",
                        lambda m: eliminated.append(m) or tagged(m))
    products = masseytc.dga._LazyProducts
    init = products.__init__

    def recording_init(self, entry, dims):
        init(self, lambda *key: entries.append(key) or entry(*key), dims)

    monkeypatch.setattr(products, "__init__", recording_init)
    kmap = KunnethMap(ring, ring)
    build_ledger(ring, kmap)
    t = kmap.ht.dga
    built = {deg for deg, m in enumerate(t.diff._built) if m is not None}
    # ``eliminated`` keeps every matrix alive, so ids are not reused
    ids = [id(m) for m in eliminated]
    assert len(ids) == len(set(ids))
    assert not any(id(m) in ids for m in ring.dga.diff)
    square = {deg for deg in built if id(t.diff[deg]) in ids}
    assert all(names is None for names in t.basis._built)
    if name == "borromean":
        assert square == {0, 1, 2} and built == {0, 1, 2, 3}
        assert len(eliminated) == 3
        assert 0 < len(entries) < len(eager_tensor_tables(t)[0]) / 10
    else:
        assert eliminated == [] and square == set()
        assert entries == [] and built == set()


def test_kunneth_map_costs_its_blocks_only():
    # building the map lays out both squares' blocks and their counts, and
    # nothing per pair: poly4 at truncate 10 has 25,921 cochain pairs
    ring = CohomologyRing(compile_cdga(parse_model(POLY4_SRC.replace(
        "8\n", "10\n"))))
    assert ring.truncation == 10
    tracemalloc.start()
    try:
        kmap = KunnethMap(ring, ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t = kmap.ht.dga
    assert t.total_dim() == 25_921
    assert peak < 2**20
    assert all(names is None for names in t.basis._built)
    assert all(m is None for m in t.diff._built)


# ------------------------------------------------- zcl from generator bars


def ideal_powers_length(ring, ideal):
    """Oracle: the largest k with the k-th power of an ideal nonzero.

    ``ideal`` maps degrees to subspaces that together generate the ideal;
    the loop raises their span to powers until the product vanishes.
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
                prod = span_of_products(ring, d1, sub, d2, ideal[d2])
                if prod.dim:
                    acc = nxt.get(d)
                    nxt[d] = prod if acc is None else acc.add(prod)
        if not nxt:
            return k
        current = nxt
        k += 1


def _spans_by_degree(ring, classes):
    vectors = {}
    for c in classes:
        vectors.setdefault(c.degree, []).append(c.pairs)
    return {d: Subspace._spanned(ring.dim(d), vs) for d, vs in vectors.items()}


def _generator_bars(km):
    return _spans_by_degree(km.ht, [bar(km, u) for u in indecomposables(km.ha)])


def _stress_ring(plane):
    # the bench's seed-1 stress model, and the same model with its killed
    # plane through x1*x2
    src = STRESS_NIL_SRC
    if plane == "special":
        src = src.replace("d y1 = -3*x1*x2 - 1/2*x1*x3 + 3/2*x2*x3", "d y1 = -3*x1*x2")
        assert src != STRESS_NIL_SRC
    return CohomologyRing(compile_cdga(parse_model(src)))


def _assert_lengths_match_the_whole_ideal_loop(ring, km):
    # the old calls raise the whole ideal, or all of H^+, to powers
    ht = km.ht
    assert zero_divisors_cup_length(km)[0] == ideal_powers_length(ht, zero_divisor_ideal(km))
    positive = {k: Subspace.full(ring.dim(k))
                for k in range(1, ring.truncation + 1) if ring.dim(k)}
    old = ideal_powers_length(ring, positive)
    assert ring.cup_length() == old
    assert ideal_powers_length(ring, _spans_by_degree(ring, indecomposables(ring))) == old


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11"])
def test_zcl_matches_the_whole_ideal_on_golden_squares(rings, kunneth_of, name):
    _assert_lengths_match_the_whole_ideal_loop(rings[name], kunneth_of(name))


def test_empty_degrees_eliminate_nothing(monkeypatch):
    # a circle: every degree past 1 has no cochains, so building its ring
    # runs the one elimination routine as often at truncate 2000 as at 3
    runs = []
    echelon = masseytc.linalg._echelon_columns
    monkeypatch.setattr(masseytc.linalg, "_echelon_columns",
                        lambda columns: runs.append(1) or echelon(columns))
    counts = []
    for n in (3, 2000):
        runs.clear()
        ring = CohomologyRing(compile_cdga(parse_model(
            f"algebra circle {{\n  truncate {n}\n  generator t degree 1\n}}\n")))
        assert ring.dims() == (1, 1) + (0,) * (n - 1)
        counts.append(len(runs))
    assert counts[0] == counts[1] <= 3


def test_zcl_matches_the_whole_ideal_on_random_squares():
    for p in random_presentations(5501, 15):
        ring = CohomologyRing(compile_cdga(p))
        _assert_lengths_match_the_whole_ideal_loop(ring, KunnethMap(ring, ring))


@pytest.mark.parametrize("plane", ["general", "special"])
def test_zcl_matches_the_whole_ideal_on_stress_squares(plane):
    ring = _stress_ring(plane)
    _assert_lengths_match_the_whole_ideal_loop(ring, KunnethMap(ring, ring))


def _ideal_generated_by(ht, gens):
    out = {}
    for ell in range(1, ht.truncation + 1):
        span = Subspace.zero(ht.dim(ell))
        for d, sub in gens.items():
            if d <= ell:
                span = span.add(ht.product_span(d, sub, ell - d))
        if span.dim:
            out[ell] = span
    return out


@pytest.mark.parametrize("name", ["spheres8", "odd11", "borromean"])
def test_generator_bars_generate_the_zero_divisor_ideal(kunneth_of, name):
    km = kunneth_of(name)
    assert _ideal_generated_by(km.ht, _generator_bars(km)) == zero_divisor_ideal(km)


def test_generator_bars_generate_the_zero_divisor_ideal_on_random_squares():
    for p in random_presentations(5501, 15)[::4]:
        ring = CohomologyRing(compile_cdga(p))
        km = KunnethMap(ring, ring)
        assert _ideal_generated_by(km.ht, _generator_bars(km)) == zero_divisor_ideal(km)


def test_indecomposables_of_golden_rings(rings):
    # degree and index of each generator: spheres8's degree-8 classes are
    # Massey products, not products, and borromean's H^1 products are killed
    want = {"spheres8": [(3, 0), (3, 1), (8, 0), (8, 1)],
            "even7": [(2, 0), (2, 1), (5, 0), (5, 1)] + [(8, j) for j in range(6)],
            "borromean": [(1, j) for j in range(3)] + [(2, j) for j in range(12)]}
    for name, gens in want.items():
        got = [(u.degree, u.coords.index(1)) for u in indecomposables(rings[name])]
        assert got == gens, name
