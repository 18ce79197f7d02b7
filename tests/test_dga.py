"""Tests for the compiled DGA tables: bases, products, differentials, axioms.

Basis dimensions of compiled models are cross-checked against a brute-force
exponent-vector enumeration done independently here (itertools.product),
so the recursive enumerator in the package never certifies itself.
"""

import itertools
import random
from fractions import Fraction

import pytest

from masseytc.cohomology import CohomologyRing, KunnethMap
from masseytc.dga import (
    DGA,
    Cochain,
    Generator,
    PairBasis,
    Presentation,
    PresentationError,
    Violation,
    compile_cdga,
    normalize_presentation,
    tensor,
)
from masseytc.dsl import parse_model
from masseytc.linalg import SparseMatrix, kernel
from masseytc.models import MODEL_SOURCES
from oracles import (TuplePairBasis, axiom_sweep, contains_subspace, differentials_by_recursion,
                     eager_tensor_tables, from_dict, product_table, reps_by_reduction,
                     tensor_cochain, unit)
from test_bench_tracer import load_bench
from test_cli import BROKEN_D2_SRC, MULTI_D2_SRC, STRESS_NIL_SRC
from test_cohomology import POLY4_SRC


def make(name, gens, diffs, n, aliases=(), sc=True, space_dim=None):
    return compile_cdga(normalize_presentation(
        name, [Generator(g, d) for g, d in gens], diffs, n,
        space_dim=space_dim, simply_connected=sc, alias_terms=aliases))


@pytest.fixture(scope="module")
def m1():
    # two odd degree-3 generators, one degree-5 with d z = a*b
    return make("m1", [("a", 3), ("b", 3), ("z", 5)],
                {"z": [(1, ["a", "b"])]}, 8)


@pytest.fixture(scope="module")
def m3e():
    return make("m3e", [("a", 2), ("b", 2), ("x", 3), ("y", 3), ("z", 3)],
                {"x": [(1, ["a", "a"])], "y": [(1, ["b", "b"])],
                 "z": [(1, ["a", "b"])]}, 8, space_dim=7)


@pytest.fixture(scope="module")
def s3():
    return make("s3", [("x", 3)], {}, 3)


@pytest.fixture(scope="module")
def s2():
    return make("s2", [("a", 2), ("x", 3)], {"x": [(1, ["a", "a"])]}, 4, space_dim=2)


def brute_force_dims(gens, n):
    """Count degree-k monomials by raw enumeration of exponent vectors."""
    degrees = [d for _, d in sorted(gens, key=lambda g: (g[1], g[0]))]
    ranges = []
    for d in degrees:
        cap = 1 if d % 2 else n // d
        ranges.append(range(cap + 1))
    dims = [0] * (n + 1)
    for exps in itertools.product(*ranges):
        deg = sum(e * d for e, d in zip(exps, degrees))
        if deg <= n:
            dims[deg] += 1
    return dims


def test_even_generator_basis():
    a = make("poly", [("a", 2)], {}, 6)
    assert a.basis == (("1",), (), ("a",), (), ("a^2",), (), ("a^3",))


def test_odd_generator_basis():
    a = make("ext", [("a", 3)], {}, 9)
    assert [a.dim(k) for k in range(10)] == [1, 0, 0, 1, 0, 0, 0, 0, 0, 0]
    assert a.basis[3] == ("a",)


def test_m1_basis_and_dims(m1):
    assert m1.basis[3] == ("a", "b")
    assert m1.basis[5] == ("z",)
    assert m1.basis[6] == ("a*b",)
    assert m1.basis[8] == ("a*z", "b*z")
    assert [m1.dim(k) for k in range(9)] == [1, 0, 0, 2, 0, 1, 1, 0, 2]


def test_m3e_basis(m3e):
    assert m3e.basis[2] == ("a", "b")
    assert m3e.basis[3] == ("x", "y", "z")
    assert m3e.basis[4] == ("a^2", "a*b", "b^2")
    assert m3e.basis[5] == ("a*x", "a*y", "a*z", "b*x", "b*y", "b*z")
    assert m3e.basis[6] == ("a^3", "a^2*b", "a*b^2", "b^3", "x*y", "x*z", "y*z")


def test_dims_match_brute_force(m1, m3e, s2):
    for dga, gens in [
        (m1, [("a", 3), ("b", 3), ("z", 5)]),
        (m3e, [("a", 2), ("b", 2), ("x", 3), ("y", 3), ("z", 3)]),
        (s2, [("a", 2), ("x", 3)]),
    ]:
        want = brute_force_dims(gens, dga.truncation)
        assert [dga.dim(k) for k in range(dga.truncation + 1)] == want


def test_m1_differential(m1):
    z = m1.basis_cochain(5, 0)
    assert m1.d(z).coords == (Fraction(1),)  # d z = a*b
    # d(a*z) = -a*(a*b) = 0 and d(b*z) = -b*(a*b) = 0 (odd squares)
    for i in range(2):
        assert m1.d(m1.basis_cochain(8, i)).is_zero()
    a = m1.basis_cochain(3, 0)
    assert m1.d(a).is_zero()


def test_m3e_differential_matrix(m3e):
    # columns x, y, z against rows a^2, a*b, b^2
    d3 = m3e.diff[3]
    assert d3 == from_dict(3, 3, {(0, 0): 1, (2, 1): 1, (1, 2): 1})
    ax = m3e.basis_cochain(5, 0)
    assert m3e.render(m3e.d(ax)) == "a^3"


def test_graded_commutativity_sign(m1, m3e):
    a, b = m1.basis_cochain(3, 0), m1.basis_cochain(3, 1)
    assert m1.mul(a, b) == m1.mul(b, a).scale(-1)
    assert m1.mul(a, a).is_zero()
    p, q = m3e.basis_cochain(2, 0), m3e.basis_cochain(3, 0)
    assert m3e.mul(p, q) == m3e.mul(q, p)


def test_truncation_kills_high_products(m1, s2):
    az = m1.basis_cochain(8, 0)
    z = m1.basis_cochain(5, 0)
    assert m1.mul(az, z) == Cochain.from_coords(13, ())
    assert m1.d(az).degree == 9 and m1.d(az).coords == ()
    a = s2.basis_cochain(2, 0)
    aa = s2.mul(a, a)
    assert aa.coords == (Fraction(1),)
    assert s2.mul(aa, a) == Cochain.from_coords(6, ())


def test_cochain_from_poly(m3e):
    p = normalize_presentation(
        "m3e", [Generator("a", 2), Generator("b", 2), Generator("x", 3),
                Generator("y", 3), Generator("z", 3)],
        {"x": [(1, ["a", "a"])], "y": [(1, ["b", "b"])], "z": [(1, ["a", "b"])]},
        8, alias_terms=[("u", [(1, ["a", "z"]), (-1, ["x", "b"])])])
    (uname, upoly), = p.aliases
    assert uname == "u"
    u = m3e.cochain_from_poly(upoly)
    assert u.degree == 5
    assert u.coords == (0, 0, 1, -1, 0, 0)  # a*z - b*x in basis order
    assert m3e.d(u).is_zero()


def test_unit_and_render(m1):
    one = unit(m1)
    for k in range(9):
        for i in range(m1.dim(k)):
            e = m1.basis_cochain(k, i)
            assert m1.mul(one, e) == e
            assert m1.mul(e, one) == e
    x = Cochain.from_coords(8, [Fraction(1, 2), -3])
    assert m1.render(x) == "1/2*a*z - 3*b*z"
    assert m1.render(Cochain(4, m1.dim(4), ())) == "0"


def test_golden_models_validate(m1, m3e, s3, s2):
    for dga in (m1, m3e, s3, s2):
        assert axiom_sweep(dga) == []


def test_presentation_errors():
    with pytest.raises(PresentationError, match="duplicate"):
        normalize_presentation("p", [Generator("a", 2), Generator("a", 3)], {}, 4)
    with pytest.raises(PresentationError, match="degree"):
        normalize_presentation("p", [Generator("a", 0)], {}, 4)
    with pytest.raises(PresentationError, match="unknown generator"):
        normalize_presentation("p", [Generator("a", 2)], {"a": [(1, ["q"])]}, 4)
    with pytest.raises(PresentationError, match="homogeneous"):
        normalize_presentation("p", [Generator("a", 2), Generator("x", 3)],
                               {"x": [(1, ["a"])]}, 6)
    with pytest.raises(PresentationError, match="truncation"):
        normalize_presentation("p", [Generator("a", 2)], {}, 0)


def test_d_squared_rejected_and_reported():
    bad = normalize_presentation(
        "bad", [Generator("u", 1), Generator("y", 2)],
        {"u": [(1, ["y"])], "y": [(1, ["u", "y"])]}, 4)
    with pytest.raises(PresentationError, match=r"d\^2"):
        compile_cdga(bad)
    dga = compile_cdga(bad, check=False)
    axioms = {v.axiom for v in dga.validate()}
    assert "d-squared" in axioms


def test_validate_flags_broken_tables():
    # 1*u = 2u while u*1 = u: breaks unit, commutativity and associativity
    broken = DGA(
        name="broken", truncation=2,
        basis=(("1",), ("u",), ("w",)),
        mult={(0, 0, 0, 0): ((0, Fraction(1)),),
              (0, 0, 1, 0): ((0, Fraction(2)),),
              (1, 0, 0, 0): ((0, Fraction(1)),),
              (0, 0, 2, 0): ((0, Fraction(1)),),
              (2, 0, 0, 0): ((0, Fraction(1)),)},
        diff=(SparseMatrix.zero(1, 1), SparseMatrix.zero(1, 1), SparseMatrix.zero(0, 1)))
    axioms = {v.axiom for v in axiom_sweep(broken)}
    assert {"unit", "commutativity", "associativity"} <= axioms

    bad_shape = DGA(
        name="shape", truncation=1,
        basis=(("1",), ()),
        mult={(0, 0, 0, 0): ((0, Fraction(1)),), (1, 0, 1, 0): ((0, Fraction(1)),)},
        diff=(SparseMatrix.zero(5, 1), SparseMatrix.zero(0, 0)))
    axioms = {v.axiom for v in axiom_sweep(bad_shape)}
    assert axioms == {"shape"}


def test_validate_flags_a_product_outside_its_degree():
    # u*u is in range as a key but lands at index 1 of a one-dimensional
    # degree; the shape check stops there, before the axiom loops, whose
    # products through this entry would raise
    one = ((0, 1),)
    dga = DGA(
        name="outside", truncation=2,
        basis=(("1",), ("u",), ("w",)),
        mult={(0, 0, 0, 0): one, (0, 0, 1, 0): one, (1, 0, 0, 0): one,
              (0, 0, 2, 0): one, (2, 0, 0, 0): one, (1, 0, 1, 0): ((1, 1),)},
        diff=(SparseMatrix.zero(1, 1), SparseMatrix.zero(1, 1), SparseMatrix.zero(0, 1)))
    assert axiom_sweep(dga) == [Violation(
        "shape", (1, 0, 1, 0), "product lands at index 1 outside degree 2")]


def test_tensor_dims_are_convolutions(s3, s2, m1):
    for a, b in [(s3, s3), (s2, s2), (s3, s2), (m1, s3)]:
        t = tensor(a, b)
        assert axiom_sweep(t) == []
        assert t.truncation == a.truncation + b.truncation
        for deg in range(t.truncation + 1):
            want = sum(a.dim(p) * b.dim(deg - p) for p in range(deg + 1))
            assert t.dim(deg) == want


def test_tensor_and_total_dim_read_the_dimension_tuple(monkeypatch, m1, s3):
    # a model's dimensions are read once, when it is built; the square lays
    # out its blocks from its factors' tuples
    calls = []
    dim = DGA.dim
    monkeypatch.setattr(DGA, "dim", lambda self, k: calls.append(k) or dim(self, k))
    t = tensor(m1, s3)
    assert t.total_dim() == m1.total_dim() * s3.total_dim()
    assert calls == []


def test_tensor_koszul_sign(s3):
    t = tensor(s3, s3)
    assert axiom_sweep(t) == []
    x1 = tensor_cochain(t, s3.basis_cochain(3, 0), unit(s3))   # x (x) 1
    onex = tensor_cochain(t, unit(s3), s3.basis_cochain(3, 0))  # 1 (x) x
    xx = tensor_cochain(t, s3.basis_cochain(3, 0), s3.basis_cochain(3, 0))
    assert t.mul(x1, onex) == xx
    assert t.mul(onex, x1) == xx.scale(-1)
    assert t.mul(x1, x1).is_zero()
    assert t.mul(onex, onex).is_zero()


def test_tensor_differential(s2):
    t = tensor(s2, s2)
    assert axiom_sweep(t) == []
    a1 = tensor_cochain(t, s2.basis_cochain(2, 0), unit(s2))
    x1 = tensor_cochain(t, s2.basis_cochain(3, 0), unit(s2))
    onex = tensor_cochain(t, unit(s2), s2.basis_cochain(3, 0))
    # d(x (x) 1) = a^2 (x) 1
    assert t.d(x1) == t.mul(a1, a1)
    # d(a (x) x) = a (x) a^2 (even left factor, sign +1)
    ax = t.mul(a1, onex)
    onea = tensor_cochain(t, unit(s2), s2.basis_cochain(2, 0))
    assert t.d(ax) == t.mul(a1, t.mul(onea, onea))


def eager_compiled_table(dga):
    """The product table of a compiled model, built in full from its
    monomials: each product is sorted into canonical generator order by
    adjacent swaps, an odd generator met twice is zero, and the sign counts
    the swaps of two odd generators.  The oracle for the lazy table of
    ``compile_cdga``."""
    gens = dga.presentation.canonical_generators()
    odd = [g.degree % 2 for g in gens]
    index = [{m: i for i, m in enumerate(ms)} for ms in dga.monomials]

    def word(m):
        return [g for g, e in enumerate(m) for _ in range(e)]

    mult = {}
    n = dga.truncation
    for k1 in range(n + 1):
        for k2 in range(n + 1 - k1):
            for i1, m1 in enumerate(dga.monomials[k1]):
                for i2, m2 in enumerate(dga.monomials[k2]):
                    w = word(m1) + word(m2)
                    if any(odd[g] and w.count(g) > 1 for g in w):
                        continue
                    sign = 1
                    for i in range(len(w)):
                        for j in range(len(w) - 1 - i):
                            if w[j] > w[j + 1]:
                                if odd[w[j]] and odd[w[j + 1]]:
                                    sign = -sign
                                w[j], w[j + 1] = w[j + 1], w[j]
                    m = tuple(w.count(g) for g in range(len(gens)))
                    mult[(k1, i1, k2, i2)] = ((index[k1 + k2][m], sign),)
    return mult


def _assert_lookup(dga, mult, absent):
    """``dga.mult.get`` against an eager table ``mult``: every in-range key
    read through it, then again from the memo, and absent or out-of-range
    keys, which read as None or as the default given."""
    n = dga.truncation
    out_of_range = [(0, dga.dim(0), 0, 0), (0, -1, 0, 0), (-1, 0, 0, 0),
                    (n, 0, 1, 0), (n + 1, 0, 0, 0)]
    for _ in range(2):
        lazy = product_table(dga)
        assert {k: _typed(v) for k, v in lazy.items()} == {
            k: _typed(v) for k, v in mult.items()}, dga.name
        for key in absent + out_of_range:
            assert key not in mult
            assert dga.mult.get(key) is None
            assert dga.mult.get(key, "default") == "default"


def test_lazy_compiled_table_equals_the_eager_one(presentations):
    mixed = make("mixed", [("a", 1), ("b", 1), ("c", 2), ("x", 3), ("y", 3)],
                 {"x": [(1, ["c", "c"])]}, 7)
    for dga in [compile_cdga(p) for p in presentations.values()] + [mixed]:
        mult = eager_compiled_table(dga)
        n = dga.truncation
        absent = [(n1, i1, n2, i2) for n1 in range(n + 1) for n2 in range(n + 1 - n1)
                  for i1 in range(dga.dim(n1)) for i2 in range(dga.dim(n2))
                  if (n1, i1, n2, i2) not in mult][:3]
        _assert_lookup(dga, mult, absent)


def _typed(x):
    # a value with the type of every leaf, so equal values of other types differ
    if isinstance(x, tuple):
        return tuple, tuple(_typed(v) for v in x)
    return type(x), x


@pytest.mark.parametrize("first, second", [
    ("spheres8", "spheres8"), ("borromean", "borromean"), ("even7", "even7"),
    ("odd11", "odd11"), ("s2", "s3"), ("s3", "s2"), ("s3", "spheres8")])
def test_lazy_tensor_tables_equal_the_eager_ones(dgas, first, second):
    t = tensor(dgas[first], dgas[second])
    mult, diff = eager_tensor_tables(t)
    n = t.truncation
    absent = next(key for key in (
        (n1, i1, n2, i2) for n1 in range(n + 1) for n2 in range(n + 1 - n1)
        for i1 in range(t.dim(n1)) for i2 in range(t.dim(n2))) if key not in mult)
    _assert_lookup(t, mult, [absent])

    assert len(t.diff) == n + 1 == len(diff)
    lazy_diff = [t.diff[k] for k in range(n + 1)]
    assert lazy_diff == list(diff)
    for m, o in zip(lazy_diff, diff):
        assert type(m) is SparseMatrix
        assert (m.rows, m.cols, _typed(m.nonzero_columns)) == \
            (o.rows, o.cols, _typed(o.nonzero_columns))
    assert t.diff[-1] == diff[-1] and t.diff[-n - 1] == diff[0]
    for k in (n + 1, -n - 2):
        with pytest.raises(IndexError):
            t.diff[k]


# ------------------------------------------------------------ pair layout


def _nonzero_degrees(dim, n):
    return sum(1 for k in range(n + 1) if dim(k))


def _assert_layout(pb, oracle, blocks_at_most):
    """PairBasis against the tuple-and-dict oracle: the pairs of every
    degree, every position and its round trip, and the blocks kept."""
    assert len(pb) == len(oracle) and list(pb) == list(oracle)
    for k, pairs in enumerate(oracle):
        assert pb[k] == pairs and pb.dim(k) == len(pairs)
        for pos, (p, i, j) in enumerate(pairs):
            # e_i (x) e_j sits at the pair's position, which maps back to it
            assert pb.cross(p, ((i, 1),), k - p, ((j, 1),)) == ((pos, 1),)
            assert pb.pair(k, pos) == (p, i, j) and oracle.index[k][p, i, j] == pos
    assert pb[-1] == oracle[-1]
    assert len(pb.start) <= blocks_at_most


def _sample_keys(pb, rng, count):
    """``count`` seeded (n1, i1, n2, i2) with both pairs present and
    n1 + n2 at most the top degree, or none when no such key exists."""
    degrees = [k for k in range(len(pb)) if pb.dim(k)]
    sums = [(n1, n2) for n1 in degrees for n2 in degrees if n1 + n2 < len(pb)]
    return [(n1, rng.randrange(pb.dim(n1)), n2, rng.randrange(pb.dim(n2)))
            for n1, n2 in (rng.choice(sums) for _ in range(count if sums else 0))]


def _seeded_entries(rng, dim):
    """A product table of a factor with ``dim(k)`` basis elements in degree
    k: each entry a seeded sparse vector, fixed once first read."""
    memo = {}

    def entry(k1, i1, k2, i2):
        key = (k1, i1, k2, i2)
        if key not in memo:
            n = dim(k1 + k2)
            memo[key] = tuple((i, rng.choice((1, -2, Fraction(1, 2), Fraction(-3, 2))))
                              for i in sorted(rng.sample(range(n), min(n, rng.randint(0, 2)))))
        return memo[key]
    return entry


def _seeded_pairs(rng, n):
    return tuple((i, rng.choice((1, -1, 3, Fraction(2, 3))))
                 for i in sorted(rng.sample(range(n), min(n, rng.randint(0, 3)))))


def test_pair_layout_matches_the_tuple_oracle_on_random_dims():
    # factor dimensions with zero degrees, so that whole degrees and blocks
    # of the square are empty; products and crosses by seeded entries
    rng = random.Random(6607)
    for _ in range(60):
        na, nb = rng.randint(0, 6), rng.randint(0, 6)
        da = [rng.choice((0, 0, 1, 2, 3)) for _ in range(na + 1)]
        db = [rng.choice((0, 0, 1, 2, 3)) for _ in range(nb + 1)]
        dim_a = lambda p, da=da: da[p] if 0 <= p < len(da) else 0  # noqa: E731
        dim_b = lambda q, db=db: db[q] if 0 <= q < len(db) else 0  # noqa: E731
        n = na + nb
        pb, oracle = PairBasis(n, da, db), TuplePairBasis(n, dim_a, dim_b)
        _assert_layout(pb, oracle, _nonzero_degrees(dim_a, n) * _nonzero_degrees(dim_b, n))
        left, right = _seeded_entries(rng, dim_a), _seeded_entries(rng, dim_b)
        for key in _sample_keys(pb, rng, 40):
            assert _typed(pb.product(*key, left, right)) == _typed(
                oracle.product(*key, left, right)), key
        for _ in range(40):
            p, q = rng.randint(0, n), rng.randint(0, n)
            xs, ys = _seeded_pairs(rng, dim_a(p)), _seeded_pairs(rng, dim_b(q))
            assert _typed(pb.cross(p, xs, q, ys)) == _typed(oracle.cross(p, xs, q, ys))


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11", "stress"])
def test_pair_layout_matches_the_tuple_oracle_on_the_squares(dgas, name):
    # both squares of a model, the cochain one and the cohomology one: the
    # layout, and products through the factors' tables, sampled
    d = compile_cdga(parse_model(STRESS_NIL_SRC)) if name == "stress" else dgas[name]
    ring = CohomologyRing(d)
    kmap = KunnethMap(ring, ring)
    rng = random.Random(name)
    squares = ((kmap.ht.dga.pairs, d.dim, lambda *key: d.mult.get(key)),
               (kmap.pairs, ring.dim, ring.cup_basis))
    for pb, dim, entry in squares:
        n = len(pb) - 1
        oracle = TuplePairBasis(n, dim, dim)
        _assert_layout(pb, oracle, _nonzero_degrees(dim, n) ** 2)
        products = [(pb.product(*key, entry, entry), oracle.product(*key, entry, entry))
                    for key in _sample_keys(pb, rng, 300)]
        assert all(_typed(got) == _typed(want) for got, want in products)
        assert sum(1 for got, _ in products if got) > 10
    pb, oracle = kmap.ht.dga.pairs, TuplePairBasis(kmap.ht.truncation, d.dim, d.dim)
    reps = [(p, x) for p in range(ring.truncation + 1)
            for x in ring.part(p).reps.nonzero_columns]
    for p, x in reps:
        for q, y in reps:
            assert _typed(pb.cross(p, x, q, y)) == _typed(oracle.cross(p, x, q, y))


def test_tensor_validates(s3, s2):
    assert axiom_sweep(tensor(s3, s3)) == []
    assert axiom_sweep(tensor(s2, s2)) == []


def test_random_free_models_validate():
    rng = random.Random(20240817)
    compiled = 0
    for _ in range(60):
        ngens = rng.randint(1, 3)
        gens = []
        for i in range(ngens):
            gens.append((f"g{i}", rng.randint(1, 4)))
        n = rng.randint(3, 6)
        dga = make(f"rand{compiled}", gens, {}, n, sc=False)
        assert axiom_sweep(dga) == []
        assert [dga.dim(k) for k in range(n + 1)] == brute_force_dims(gens, n)
        compiled += 1
    assert compiled == 60


def random_differential_models():
    """Seeded random models: one generator carries a random differential
    supported on closed ones, so d^2 = 0 holds by construction and compile
    must always succeed."""
    rng = random.Random(977)
    built = 0
    for _ in range(50):
        base = [("p", 2), ("q", 2), ("r", 3), ("s", 3)]
        rng.shuffle(base)
        gens = base[: rng.randint(2, 4)]
        n = rng.randint(5, 7)
        top_deg = rng.choice([3, 5])
        # candidate monomials of degree top_deg + 1 in the closed generators
        cands = []
        for k in range(1, 3):
            for combo in itertools.combinations_with_replacement(sorted(gens), k):
                deg = sum(d for _, d in combo)
                odd_names = [g for g, d in combo if d % 2]
                if deg == top_deg + 1 and len(odd_names) == len(set(odd_names)):
                    cands.append([g for g, _ in combo])
        if not cands:
            continue
        terms = [(rng.choice([1, -1, 2]), rng.choice(cands))]
        yield make(f"randd{built}", gens + [("t", top_deg)], {"t": terms}, n, sc=False)
        built += 1


def test_random_models_with_differential_validate():
    built = 0
    for dga in random_differential_models():
        assert axiom_sweep(dga) == []
        built += 1
    assert built >= 30


def oracle_models() -> list:
    """The models the closed-form compile and the class basis read off the
    kernel are checked on: the seeded random ones, the golden ones, the
    models the benchmark generates for seeds 1-3, and poly4 at truncate 8."""
    inputs = load_bench("inputs")
    texts = list(MODEL_SOURCES.values()) + [POLY4_SRC]
    for seed in (1, 2, 3):
        texts += [inputs.stress_nil_model(seed), *inputs.massey_inputs(seed)[0].values()]
    return list(random_differential_models()) + [compile_cdga(parse_model(t)) for t in texts]


def test_closed_form_differentials_equal_the_recursive_ones():
    models = oracle_models()
    assert len(models) >= 30 + 4 + 1 + 3 * 7
    for dga in models:
        assert tuple(dga.diff) == differentials_by_recursion(dga), dga.name


def test_the_class_basis_read_off_the_kernel_is_the_reduced_one():
    # the kernel vectors whose pivots are not boundary pivots against every
    # kernel vector reduced modulo the boundaries and eliminated again
    for dga in oracle_models():
        ring = CohomologyRing(dga)
        for k in range(dga.truncation + 1):
            part = ring.part(k)
            assert part.reps == reps_by_reduction(ring, k), (dga.name, k)
            assert contains_subspace(kernel(dga.diff[k]), part.reps), (dga.name, k)


def broken_d2_presentations(seed, count):
    """Seeded presentations in which every generator of degree 1 to 3 gets
    a random sum of one or two monomials one degree up as its differential,
    so d^2 = 0 fails in many of them; compile them with ``check=False``."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        gens = tuple(Generator(f"g{j}", rng.randint(1, 3)) for j in range(rng.randint(2, 4)))
        n = rng.randint(4, 6)
        free = compile_cdga(Presentation(f"dd{i}", gens, {}, n, n))
        diffs = {}
        for g in free.presentation.canonical_generators():
            cands = free.monomials[g.degree + 1]
            picked = rng.sample(cands, min(len(cands), rng.randint(1, 2)))
            diffs[g.name] = {m: rng.choice([1, -1, 2]) for m in picked}
        out.append(Presentation(f"dd{i}", gens, diffs, n, n))
    return out


def test_validate_lists_what_the_axiom_sweep_lists():
    # a compiled model meets every axiom but d^2 = 0 by construction, so
    # the d^2 check alone reports what the exhaustive sweep reports
    inputs = load_bench("inputs")
    texts = [BROKEN_D2_SRC, MULTI_D2_SRC]
    for seed in (0, 1, 7, 12345):
        texts += [inputs.stress_nil_model(seed), *inputs.massey_inputs(seed)[0].values()]
    broken = [compile_cdga(p, check=False) for p in broken_d2_presentations(4127, 80)]
    models = oracle_models() + [compile_cdga(parse_model(t), check=False) for t in texts]
    for dga in models + broken:
        assert dga.validate() == axiom_sweep(dga), dga.name
    assert sum(1 for dga in broken if dga.validate()) >= 30


def test_random_cochain_leibniz_and_bilinearity(m3e):
    rng = random.Random(5150)
    n = m3e.truncation
    for _ in range(100):
        k1 = rng.randint(0, n - 1)
        k2 = rng.randint(0, n - 1 - k1) if k1 < n - 1 else 0
        x = Cochain.from_coords(k1, [rng.randint(-3, 3) for _ in range(m3e.dim(k1))])
        y = Cochain.from_coords(k2, [rng.randint(-3, 3) for _ in range(m3e.dim(k2))])
        sign = -1 if k1 % 2 else 1
        lhs = m3e.d(m3e.mul(x, y))
        rhs = m3e.mul(m3e.d(x), y).add(m3e.mul(x, m3e.d(y)).scale(sign))
        assert lhs == rhs
        z = Cochain.from_coords(k2, [rng.randint(-3, 3) for _ in range(m3e.dim(k2))])
        assert m3e.mul(x, y.add(z)) == m3e.mul(x, y).add(m3e.mul(x, z))
