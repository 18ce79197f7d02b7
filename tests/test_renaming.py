"""Invariance under renaming generators.

Renaming generators changes no homotopy type, so every invariant the
engine reports must stay put.  Each model is printed back to text with
``oracles.print_model`` and its K canonical generator names are renamed,
the k-th to ``q{K-k}`` with zero padding, which reverses the canonical
order within each degree; the aliases keep their names.  On the golden,
nilmanifold and seed-1 stress models, the dimensions, connectivity, cup
length, zcl and the certified cat and TC bounds must agree, and each
ledger must replay on a fresh ring of its own model.
"""

import re

import pytest

from masseytc.bounds import build_ledger, replay_ledger
from masseytc.cohomology import CohomologyRing, KunnethMap
from masseytc.dga import compile_cdga
from masseytc.dsl import parse_model
from masseytc.models import MODEL_SOURCES
from oracles import print_model
from test_bench_tracer import load_bench
from test_nilmanifolds import NILMANIFOLDS

MODELS = {**MODEL_SOURCES, **NILMANIFOLDS,
          "stress-seed1": load_bench("inputs").stress_nil_model(1)}

_NAME = re.compile(r"[A-Za-z_]\w*")


def renamed(text: str) -> str:
    """The model text with the k-th of its K canonical generator names
    renamed to ``q{K-k}``, k = 1..K, zero-padded to a common width."""
    p = parse_model(text)
    names = [g.name for g in p.canonical_generators()]
    width = len(str(len(names)))
    new = {name: f"q{len(names) - k:0{width}d}" for k, name in enumerate(names, 1)}
    assert not set(new.values()) & {a for a, _ in p.aliases}

    def rename(s: str) -> str:
        return _NAME.sub(lambda m: new.get(m.group(0), m.group(0)), s)

    lines = []
    for line in print_model(p).splitlines():
        head, sep, poly = line.partition(" = ")
        words = head.split()
        if words[:1] in (["generator"], ["d"]):
            words[1] = new[words[1]]
            head = "  " + " ".join(words)
        lines.append(head + sep + (rename(poly) if sep else ""))
    return "\n".join(lines) + "\n"


def test_renaming_reverses_the_canonical_order_within_each_degree():
    p, q = parse_model(MODEL_SOURCES["borromean"]), parse_model(renamed(MODEL_SOURCES["borromean"]))
    assert [g.name for g in p.canonical_generators()] == ["x1", "x2", "x3", "y1", "y2", "y3"]
    assert [g.name for g in q.canonical_generators()] == ["q0", "q1", "q2", "q3", "q4", "q5"]
    assert dict(q.generators)["q5"] == 1 and ("u", "v", "w") == tuple(a for a, _ in q.aliases)
    assert "  d q2 = q4*q3\n" in renamed(MODEL_SOURCES["borromean"])  # d y1 = x2*x3


def _summary(text: str) -> tuple:
    ring, fresh = (CohomologyRing(compile_cdga(parse_model(text))) for _ in range(2))
    ledger = build_ledger(ring, KunnethMap(ring, ring))
    assert replay_ledger(ledger, fresh, KunnethMap(fresh, fresh))
    return (ring.dims(), ring.connectivity(), ring.cup_length(), ledger.cup_length, ledger.zcl,
            ledger.cat_lower, ledger.cat_upper, ledger.tc_lower, ledger.tc_upper)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_renaming_generators_keeps_every_invariant_and_bound(name):
    assert _summary(renamed(MODELS[name])) == _summary(MODELS[name])
