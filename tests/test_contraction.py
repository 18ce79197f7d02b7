"""The ring's contraction (i, p, h) onto H against its oracles.

i is ``representative``, s is ``solve_boundary``, p(x) =
class_of(x - s(dx)) is ``oracles.projection`` and h(x, y) =
s(rep x * rep y - rep(x*y)) is ``CohomologyRing.homotopy``.  On the golden,
nilmanifold and seeded models, every basis pair and triple within the
truncation is checked:

* d h(x, y) = rep x * rep y - rep(x*y), whether x*y is zero or not;
* the side conditions h(x, 1) = h(1, x) = 0, which is h o i = 0, and
  p(h(x, y)) = 0, which the tensor of two contractions uses;
* h(1, 1) and h(x, y) with |x| + |y| >= N + 2 are zero: each solves in a
  degree where the model has no cochains;
* on an exact pair, h is the canonical solve of d mu = rep x * rep y that
  ``oracles.product_witness`` forms afresh, on a ring of its own;
* Kadeishvili's m3(a, b, c), built from h with the engine's value sign,
  equals ``massey_triple``'s value on every defined basis triple.
"""

import itertools

import pytest

from masseytc.cohomology import CohomologyRing
from masseytc.dga import compile_cdga
from masseytc.dsl import parse_model
from masseytc.massey import massey_triple
from masseytc.models import MODEL_SOURCES
from oracles import m3, product_witness, projection
from test_cohomology import random_presentations
from test_nilmanifolds import NILMANIFOLDS

PRESENTATIONS = {
    **{name: parse_model(src) for name, src in MODEL_SOURCES.items()},
    **{name: parse_model(src) for name, src in NILMANIFOLDS.items()},
    **{p.name: p for p in random_presentations(3601, 8)},
}


def _ring(name: str) -> CohomologyRing:
    return CohomologyRing(compile_cdga(PRESENTATIONS[name]))


def _pairs(ring: CohomologyRing) -> list:
    """Every pair of basis classes of H^+ whose product lies within the
    truncation."""
    basis = ring.positive_basis()
    return [(x, y) for x, y in itertools.product(basis, repeat=2)
            if x.degree + y.degree <= ring.truncation]


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_the_homotopy_bounds_a_product_less_its_class(name):
    ring, fresh = _ring(name), _ring(name)
    dga, unit = ring.dga, ring.basis_class(0, 0)
    pairs = _pairs(ring)
    for x, y in pairs:
        h, xy = ring.homotopy(x, y), ring.cup(x, y)
        z = dga.mul(ring.representative(x), ring.representative(y))
        assert h.degree == x.degree + y.degree - 1
        assert dga.d(h) == z.sub(ring.representative(xy))
        assert projection(ring, h).is_zero()  # p o h = 0
        if xy.is_zero():
            assert h == product_witness(fresh, x, y)
    for x in ring.positive_basis():  # h o i = 0
        assert ring.homotopy(x, unit).is_zero() and ring.homotopy(unit, x).is_zero()
    assert len(ring._homotopies) == len(pairs) + 2 * len(ring.positive_basis())


def _high_pairs(ring: CohomologyRing) -> list:
    """Every pair of basis classes of H^+ with |x| + |y| >= N + 2, so that
    h(x, y) lies in a degree above the truncation N."""
    return [(x, y) for x, y in itertools.product(ring.positive_basis(), repeat=2)
            if x.degree + y.degree >= ring.truncation + 2]


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_the_homotopy_is_zero_where_the_model_has_no_cochains(name):
    # rep 1 * rep 1 - rep 1 = 0 is the boundary of zero in degree -1, and a
    # product above N + 1 of zero in its degree less one
    ring = _ring(name)
    unit = ring.basis_class(0, 0)
    h = ring.homotopy(unit, unit)
    assert h.degree == -1 and h.is_zero()
    for x, y in _high_pairs(ring):
        h = ring.homotopy(x, y)
        assert h.degree == x.degree + y.degree - 1 and h.is_zero()


def _triples(ring: CohomologyRing) -> list:
    """Every triple of basis classes of H^+ whose Massey product lies within
    the truncation."""
    return [t for t in itertools.product(ring.positive_basis(), repeat=3)
            if sum(c.degree for c in t) - 1 <= ring.truncation]


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_m3_from_the_homotopy_is_the_massey_value(name):
    ring, fresh = _ring(name), _ring(name)
    for a, b, c in _triples(ring):
        coset = massey_triple(ring, a, b, c)
        if coset.defined:
            assert m3(fresh, a, b, c) == coset.value


def test_the_models_cover_exact_and_inexact_pairs_and_nonzero_values():
    # the checks above meet both kinds of pair, and defined triples with
    # zero and with nonzero values
    rings = [_ring(name) for name in PRESENTATIONS]
    products = [ring.cup(x, y).is_zero() for ring in rings for x, y in _pairs(ring)]
    values = [coset.value.is_zero() for ring in rings for coset in (
        massey_triple(ring, *t) for t in _triples(ring)) if coset.defined]
    assert {True, False} <= set(products) and {True, False} <= set(values)
    assert len(values) > 1000
    # borromean's degree-2 classes squared lie in degree 4 = N + 2
    assert _high_pairs(_ring("borromean")) and sum(len(_high_pairs(r)) for r in rings) > 100
