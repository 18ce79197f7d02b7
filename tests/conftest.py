"""Shared fixtures: golden models are compiled once per session.

The tensor squares and their rings are expensive (hundreds of basis
elements), so they hide behind factory fixtures that build on first use
and cache for the rest of the session.
"""

import pytest

from masseytc.bounds import build_ledger
from masseytc.cohomology import CohomologyRing, KunnethMap
from masseytc.dga import compile_cdga, tensor
from masseytc.dsl import parse_model
from masseytc.models import golden_models

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
def square_of(dgas):
    """Factory: the tensor square of a named model, cached."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = tensor(dgas[name], dgas[name])
        return cache[name]

    return get


@pytest.fixture(scope="session")
def square_ring_of(square_of):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = CohomologyRing(square_of(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def kunneth_of(rings, square_ring_of):
    cache = {}

    def get(name):
        if name not in cache:
            r = rings[name]
            cache[name] = KunnethMap(r, r, square_ring_of(name))
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
