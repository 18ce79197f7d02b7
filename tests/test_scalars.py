"""The scalar rule: a coefficient is an ``int`` when it is integral and a
``Fraction`` only when it has a denominator, never a float or a bool.

Checks the rule on everything a ring, its square and a ledger keep (the
Massey scan and the zcl product included), the JSON form of coordinates,
and that no float division is left in the engine.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import masseytc
from masseytc.bounds import WeightFact, _fact_dict, _jsonify, build_ledger
from masseytc.cohomology import CohClass, CohomologyRing, DegreePart, KunnethMap
from masseytc.dga import Cochain, compile_cdga
from masseytc.dsl import parse_model
from masseytc.linalg import SparseMatrix, Subspace, inverse, scalar
from masseytc.massey import MasseyCoset
from masseytc.models import MODEL_SOURCES
from test_cli import STRESS_NIL_SRC


def is_scalar(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def numbers(x):
    """Every number held in x, through the engine's containers."""
    if isinstance(x, (tuple, list)):
        for v in x:
            yield from numbers(v)
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from numbers(k)
            yield from numbers(v)
    elif isinstance(x, SparseMatrix):
        yield from numbers(x.nonzero_columns)
    elif isinstance(x, Subspace):
        yield from numbers((x.basis, x.pivots))
    elif isinstance(x, DegreePart):
        yield from numbers((x.cocycles, x.boundaries, x.reps))
    elif isinstance(x, (CohClass, Cochain)):
        yield from numbers((x.degree, x.coords))
    elif isinstance(x, MasseyCoset):  # all but the defined flag, a bool
        yield from numbers((x.alpha, x.beta, x.gamma, x.mu, x.lam, x.value_cochain,
                            x.value, x.indeterminacy, x.canonical))
    elif isinstance(x, WeightFact):
        yield from numbers((x.cls, x.weight, x.inputs))
    elif not (isinstance(x, str) or x is None):
        yield x


def dga_tables(dga) -> list:
    """The product entries and differentials a model holds: all of them for
    a compiled model, the ones computed so far for a lazy tensor square."""
    if dga.factors is None:
        return [dict(dga.mult.items()), list(dga.diff)]
    return [dga.mult._memo, [m for m in dga.diff._built if m is not None]]


def ring_tables(ring) -> list:
    solvers = [(s.image, s._preimages) for s in ring._solvers.values()]
    return [ring._parts, ring._cup_memo, solvers]


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11", "stress"])
def test_every_kept_value_is_an_int_or_a_proper_fraction(name):
    # fresh rings, so that filling the square below leaves the shared
    # fixtures as the other tests expect them
    source = STRESS_NIL_SRC if name == "stress" else MODEL_SOURCES[name]
    ring = CohomologyRing(compile_cdga(parse_model(source)))
    kmap = KunnethMap(ring, ring)
    ledger = build_ledger(ring, kmap)
    for k in range(kmap.ht.truncation + 1):
        kmap.ht.part(k)  # the square's classes, which a Massey witness there reads
    kept = (dga_tables(ring.dga) + dga_tables(kmap.ht.dga) + ring_tables(ring)
            + ring_tables(kmap.ht)
            + [ledger.cat_facts, ledger.tc_facts, ledger.certificates,
               ledger.massey_cosets, ledger.zcl_product])
    values = list(numbers(kept))
    bad = [v for v in values if not is_scalar(v)]
    assert not bad, f"{len(bad)} values break the rule, e.g. {bad[:3]!r}"
    assert len(values) > 500
    if name == "stress":  # its differentials have coefficients such as 3/2
        assert sum(type(v) is Fraction for v in values) > 500


def test_scalar_and_inverse_follow_the_rule():
    cases = [(3, 3), (Fraction(4, 2), 2), (Fraction(1, 2), Fraction(1, 2)),
             (True, 1), (0.5, Fraction(1, 2)), ("-6/4", Fraction(-3, 2)), (-0.0, 0)]
    for x, want in cases:
        got = scalar(x)
        assert got == want and is_scalar(got), (x, got)
    for x, want in [(2, Fraction(1, 2)), (-1, -1), (Fraction(1, 3), 3),
                    (Fraction(-2, 3), Fraction(-3, 2)), (Fraction(4, 2), Fraction(1, 2))]:
        got = inverse(x)
        assert got == want and is_scalar(got), (x, got)
    with pytest.raises(ZeroDivisionError):
        inverse(0)


def test_jsonify_writes_coordinates_as_strings_and_keeps_numbers():
    key = ("tc", 3, (1, 0, Fraction(-1, 2)))
    cert = {"rule": "weighted-product", "kind": "tc", "bound": 5,
            "factors": (key, key), "product": (6, (2, 0, Fraction(1, 3)))}
    assert _jsonify(cert) == {
        "rule": "weighted-product", "kind": "tc", "bound": 5,
        "factors": [["tc", 3, ["1", "0", "-1/2"]]] * 2,
        "product": [6, ["2", "0", "1/3"]]}
    witness = ((2, (1, -2)), (3, (Fraction(2, 3),)))
    assert _jsonify(witness) == [[2, ["1", "-2"]], [3, ["2/3"]]]
    fact = WeightFact("tc", CohClass(3, (1, Fraction(3, 2))), 2, "R4-transfer",
                      ("transfer", ("cat", 3, (2, 0)), 2))
    assert _fact_dict(fact) == {
        "kind": "tc", "degree": 3, "coords": ["1", "3/2"], "weight": 2,
        "rule": "R4-transfer", "inputs": ["transfer", ["cat", 3, ["2", "0"]], 2]}


def divisions(tree) -> list:
    """(enclosing function, line) of every ``/`` and ``/=`` in a module."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = where + (child.name,)
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append((".".join(where), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_linalg_inverse_divides():
    # int / int is a float, so a division anywhere else could bring one in
    src = Path(masseytc.__file__).parent
    found = {path.name: divisions(ast.parse(path.read_text()))
             for path in sorted(src.glob("*.py"))}
    in_linalg = [where for where, _ in found.pop("linalg.py")]
    assert "inverse" in in_linalg
    assert [where for where in in_linalg if where != "inverse"] == []
    assert {name: hits for name, hits in found.items() if hits} == {}
