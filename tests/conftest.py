"""Shared fixtures: golden models are compiled once per session.

``golden_models`` parses the built-in models; the fixtures and the parser
tests read it.

The tensor squares and their rings are expensive (hundreds of basis
elements), so each is built once, on first use, by the ``kunneth_of``
factory; its ``.ht`` is the square's ring and ``.ht.dga`` its model.
"""

import pytest

from masseytc.bounds import build_ledger
from masseytc.cohomology import CohomologyRing, KunnethMap
from masseytc.dga import compile_cdga
from masseytc.dsl import parse_model
from masseytc.models import MODEL_SOURCES

S3_SRC = """\
algebra s3 {
  truncate 3
  space-dim 3
  simply-connected true
  generator x degree 3
}
"""

S2_SRC = """\
algebra s2 {
  truncate 4
  space-dim 2
  simply-connected true
  generator a degree 2
  generator x degree 3
  d x = a*a
}
"""

POINT_SRC = """\
algebra point {
  truncate 1
  space-dim 0
  simply-connected true
}
"""


def golden_models() -> dict:
    """Parse every built-in model; keys are the registry names."""
    return {name: parse_model(src) for name, src in MODEL_SOURCES.items()}


@pytest.fixture(scope="session")
def presentations():
    ps = golden_models()
    ps["s3"] = parse_model(S3_SRC)
    ps["s2"] = parse_model(S2_SRC)
    ps["point"] = parse_model(POINT_SRC)
    return ps


@pytest.fixture(scope="session")
def dgas(presentations):
    return {name: compile_cdga(p) for name, p in presentations.items()}


@pytest.fixture(scope="session")
def rings(dgas):
    return {name: CohomologyRing(d) for name, d in dgas.items()}


@pytest.fixture(scope="session")
def kunneth_of(rings):
    """Factory: the Kunneth map of a named model's square, cached."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = KunnethMap(rings[name], rings[name])
        return cache[name]

    return get


@pytest.fixture(scope="session")
def ledger_of(rings, kunneth_of):
    """Factory: the full bound ledger of a named model, cached."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_ledger(rings[name], kunneth_of(name))
        return cache[name]

    return get
