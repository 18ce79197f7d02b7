"""Quantities a ring computes once and then reads: each read equals the
quantity formed afresh.

Three readouts are checked against a fresh computation on the golden
models, both stress planes, the nilmanifold family, six at truncate 6-8
and seeded random models:

* the indecomposables, whose decomposables are spanned from the
  indecomposables below each degree, against the span of every product
  of two degrees (``indecomposables_all_pairs``);
* each cup-table entry read in mirrored order, by graded commutativity,
  against the entry formed by hand on a fresh ring, on base rings and on
  their squares;
* each coset of a Massey scan, whose witness solves are shared between
  triples, against ``massey_triple`` on a fresh ring with no shared solve;
  and the scan itself, which lists the defined triples along the cup
  table and counts the rest, against ``scan_all_triples``, which builds a
  coset for every basis triple, at every degree cap (nil4 at truncate 4
  too).

A triple whose target degree has dim H = 0 is the zero class, formed with
no witness solve; six at truncate 8 has only such triples.
"""

import itertools
import random

import pytest

from masseytc.bounds import indecomposables
from masseytc.cohomology import CohomologyRing, KunnethMap
from masseytc.dga import DGA, PairBasis, compile_cdga
from masseytc.dsl import parse_model
from masseytc.massey import (OBSTRUCTIONS, massey_triple, massey_value_from_cocycles,
                             scan_triples)
from masseytc.models import MODEL_SOURCES
from oracles import cup_entry_by_hand, indecomposables_all_pairs, scan_all_triples
from test_cli import nil4_src, six_src
from test_cohomology import _stress_ring, random_presentations
from test_nilmanifolds import NILMANIFOLDS


def _presentations() -> dict:
    out = {name: parse_model(src) for name, src in MODEL_SOURCES.items()}
    out.update({f"stress-{plane}": _stress_ring(plane).dga.presentation
                for plane in ("general", "special")})
    out.update({name: parse_model(src) for name, src in NILMANIFOLDS.items()})
    out.update({f"six{n}": parse_model(six_src(n)) for n in (6, 7, 8)})
    out.update({p.name: p for p in random_presentations(2901, 8)})
    return out


PRESENTATIONS = _presentations()


def _ring(name: str) -> CohomologyRing:
    return CohomologyRing(compile_cdga(PRESENTATIONS[name]))


def test_the_models_cover_every_kind_named():
    names = set(PRESENTATIONS)
    assert set(MODEL_SOURCES) | set(NILMANIFOLDS) <= names
    assert {"stress-general", "stress-special", "six6", "six7", "six8"} <= names
    assert len(names) == len(MODEL_SOURCES) + len(NILMANIFOLDS) + 5 + 8


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_indecomposables_match_the_all_pairs_oracle(name):
    assert indecomposables(_ring(name)) == indecomposables_all_pairs(_ring(name))


def _mirror_keys(ring: CohomologyRing, rng: random.Random, most: int = 40) -> list:
    """Keys (k1, i1, k2, i2) with (k1, i1) < (k2, i2) whose product lands in
    a nonzero degree: for each pair of degrees, every index pair when there
    are at most ``most``, else ``most`` seeded draws."""
    dims, keys = ring.dims(), []
    for k1, k2 in itertools.combinations_with_replacement(range(1, len(dims)), 2):
        if not (k1 + k2 < len(dims) and dims[k1] and dims[k2] and dims[k1 + k2]):
            continue
        if dims[k1] * dims[k2] <= most:
            pairs = itertools.product(range(dims[k1]), range(dims[k2]))
        else:
            pairs = sorted({(rng.randrange(dims[k1]), rng.randrange(dims[k2]))
                            for _ in range(most)})
        keys += [(k1, i1, k2, i2) for i1, i2 in pairs if k1 < k2 or i1 < i2]
    return keys


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_mirrored_cup_entries_equal_the_entries_formed_by_hand(monkeypatch, name):
    ring, fresh = _ring(name), _ring(name)
    rng = random.Random(2902)
    formed = []
    for cls, attr in ((DGA, "mul"), (PairBasis, "product")):
        fn = getattr(cls, attr)
        monkeypatch.setattr(cls, attr, lambda *a, fn=fn: formed.append(1) or fn(*a))
    odd = 0
    for rg, hand in ((ring, fresh), (KunnethMap(ring, ring).ht, KunnethMap(fresh, fresh).ht)):
        keys = _mirror_keys(rg, rng)
        for k1, i1, k2, i2 in keys:
            rg.cup_basis(k1, i1, k2, i2)
        formed.clear()
        mirrored = [rg.cup_basis(k2, i2, k1, i1) for k1, i1, k2, i2 in keys]
        assert not formed  # each mirrored entry is read off the held one
        assert mirrored == [cup_entry_by_hand(hand, k2, i2, k1, i1) for k1, i1, k2, i2 in keys]
        odd += sum(1 for (k1, _, k2, _), e in zip(keys, mirrored) if k1 * k2 % 2 and e)
    assert odd or all(k % 2 == 0 or not n for k, n in enumerate(ring.dims()))


SCANNED = {**PRESENTATIONS, "nil4at4": parse_model(nil4_src(4))}


@pytest.mark.parametrize("name", sorted(SCANNED))
def test_scanned_cosets_equal_triples_computed_on_a_fresh_ring(name):
    ring, fresh = (CohomologyRing(compile_cdga(SCANNED[name])) for _ in range(2))
    for cap in range(ring.truncation + 1):
        # the listing is the full scan's defined triples, in its order, and
        # the counts are its undefined triples per obstruction
        everything = scan_all_triples(fresh, cap)
        counts = dict.fromkeys(OBSTRUCTIONS, 0)
        assert scan_triples(ring, cap, undefined=counts) == [c for c in everything if c.defined]
        assert counts == {
            why: sum(c.obstruction == why for c in everything) for why in OBSTRUCTIONS}
        assert all(c.defined or c.obstruction in OBSTRUCTIONS for c in everything)
    dims = ring.dims()
    degs = [k for k, n in enumerate(dims) if k and n]
    # the full scan lists the smaller orientation of each mirror pair of
    # basis triples, in this order
    assert [(c.alpha.degree, c.alpha.pairs, c.beta.degree, c.beta.pairs, c.gamma.degree,
             c.gamma.pairs) for c in everything] == [
        (p, ((i, 1),), q, ((j, 1),), r, ((k, 1),))
        for p, q, r in itertools.product(degs, repeat=3) if p + q + r - 1 <= ring.truncation
        for i, j, k in itertools.product(range(dims[p]), range(dims[q]), range(dims[r]))
        if (p, i, q, j, r, k) <= (r, k, q, j, p, i)]
    scan = scan_triples(ring)
    for coset in scan:
        fresh._witnesses.clear()  # no solve shared with another triple
        alone = massey_triple(fresh, coset.alpha, coset.beta, coset.gamma)
        assert (coset.mu, coset.lam, coset.value_cochain) == (alone.mu, alone.lam,
                                                                alone.value_cochain)
        assert coset == alone
    assert len(ring._witnesses) <= 2 * len(scan)


def test_triples_with_a_zero_target_solve_no_witness(monkeypatch):
    # all 22 defined triples of six at truncate 8 land in a degree where
    # H = 0, so each is the zero class and no d mu = a*b is solved
    ring = CohomologyRing(compile_cdga(PRESENTATIONS["six8"]))
    solves = []
    solve = CohomologyRing.solve_boundary
    monkeypatch.setattr(CohomologyRing, "solve_boundary",
                        lambda *a: solves.append(a) or solve(*a))
    scan = scan_triples(ring)
    assert len(scan) == 22 and not solves
    for coset in scan:
        assert ring.dim(coset.target_degree) == 0 and coset.value.is_zero()
        assert (coset.mu, coset.lam, coset.value_cochain) == (None, None, None)
        assert not coset.is_nonzero()
    # the witnesses exist: solving them gives the same (zero) value
    for coset in scan:
        reps = [ring.representative(c) for c in (coset.alpha, coset.beta, coset.gamma)]
        assert massey_value_from_cocycles(ring, *reps)[1] == coset.value
    assert solves
