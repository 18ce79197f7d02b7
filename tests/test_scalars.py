"""The scalar rule: a coefficient is an ``int`` when it is integral and a
``Fraction`` only when it has a denominator, never a float or a bool.

Checks the rule on everything a ring, its square and a ledger keep (the
Massey scan and the zcl product included), and that every class and
cochain kept there stores its pairs in canonical form; the JSON form of
coordinates; and, on the engine's source, that no float division is left,
that no module but ``linalg`` builds a dense vector, that cochains and
classes add nothing to their shared record, that no ``json.dumps`` passes
``indent``, that no import is unused, and that every definition has a
caller in ``src/`` or ``bench/``.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import masseytc
from masseytc.bounds import WeightFact, build_ledger
from masseytc.cohomology import CohClass, CohomologyRing, DegreePart, KunnethMap
from masseytc.dga import Cochain, compile_cdga
from masseytc.dsl import parse_model
from masseytc.linalg import GradedVector, SparseMatrix, Subspace, inverse, scalar
from masseytc.massey import MasseyCoset
from masseytc.models import MODEL_SOURCES
from masseytc.report import _class_json, _fact_json, _jsonify
from oracles import is_canonical, product_table
from test_bench_tracer import BENCH
from test_cli import STRESS_NIL_SRC


def is_scalar(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def numbers(x, classes: list):
    """Every number held in x, through the engine's containers; each class
    met on the way is appended to ``classes``."""
    if isinstance(x, (tuple, list)):
        for v in x:
            yield from numbers(v, classes)
    elif isinstance(x, dict):
        for k, v in x.items():
            yield from numbers(k, classes)
            yield from numbers(v, classes)
    elif isinstance(x, SparseMatrix):
        yield from numbers(x.nonzero_columns, classes)
    elif isinstance(x, Subspace):
        yield from numbers((x.basis, x.pivots), classes)
    elif isinstance(x, DegreePart):
        yield from numbers((x.boundaries, x.reps), classes)
    elif isinstance(x, GradedVector):  # a class or a cochain
        classes.append(x)
        yield from numbers((x.degree, x.dim, x.pairs), classes)
    elif isinstance(x, MasseyCoset):  # all but the defined flag, a bool
        yield from numbers((x.alpha, x.beta, x.gamma, x.mu, x.lam, x.value_cochain,
                            x.value, x.indeterminacy, x.canonical), classes)
    elif isinstance(x, WeightFact):
        yield from numbers((x.cls, x.weight, x.inputs), classes)
    elif not (isinstance(x, str) or x is None):
        yield x


def dga_tables(dga) -> list:
    """The product entries and differentials a model holds: all of them for
    a compiled model, the ones computed so far for a lazy tensor square."""
    if dga.factors is None:
        return [product_table(dga), list(dga.diff)]
    return [dga.mult._memo, [m for m in dga.diff._built if m is not None]]


def ring_tables(ring) -> list:
    solvers = [(s.image, s._preimages) for s in ring._solvers.values()]
    return [ring._parts, ring._cup_memo, solvers, ring._named, ring._cup_chain,
            ring._multiples, ring._indeterminacies, ring._witnesses]


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
    classes = []
    values = list(numbers(kept, classes))
    bad = [v for v in values if not is_scalar(v)]
    assert not bad, f"{len(bad)} values break the rule, e.g. {bad[:3]!r}"
    assert len(values) > 500
    bad = [c for c in classes if not is_canonical(c)]
    assert not bad, f"{len(bad)} classes are not canonical, e.g. {bad[:3]!r}"
    assert len(classes) > 30
    # the JSON form written from the pairs is the dense one, entry by entry
    bad = [c for c in classes if _class_json(c) != [c.degree, [str(v) for v in c.coords]]]
    assert not bad, f"{len(bad)} classes are written wrongly, e.g. {bad[:3]!r}"
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
    assert _class_json(CohClass.from_coords(2, (0, Fraction(-1, 2), 0, 7))) == [
        2, ["0", "-1/2", "0", "7"]]
    assert _class_json(CohClass(1, 2, ())) == [1, ["0", "0"]]
    fact = WeightFact("tc", CohClass.from_coords(3, (1, Fraction(3, 2))), 2, "R4-transfer",
                      ("transfer", ("cat", 3, (2, 0)), 2))
    assert _fact_json(fact) == {
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


def dense_vectors(tree) -> list:
    """Lines where a module builds a dense vector: ``[ZERO] * n``,
    ``(ZERO,) * n`` or a call of ``zero_vec``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if any(isinstance(side, (ast.List, ast.Tuple)) and len(side.elts) == 1
                   and getattr(side.elts[0], "id", None) == "ZERO"
                   for side in (node.left, node.right)):
                found.append(node.lineno)
        elif isinstance(node, ast.Call) and "zero_vec" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(node.lineno)
    return sorted(found)


def test_only_linalg_builds_dense_vectors():
    # every other module reads and returns nonzero pairs; linalg's dense
    # adapters are the one place a dense vector is made
    assert dense_vectors(ast.parse("[ZERO] * n\nn * (ZERO,)\nzero_vec(3)\n"
                                   "linalg.zero_vec(1)\n[1] * n\n[ZERO, ZERO] * 2\n")) == [1, 2, 3, 4]
    src = Path(masseytc.__file__).parent
    found = {path.name: dense_vectors(ast.parse(path.read_text()))
             for path in sorted(src.glob("*.py")) if path.name != "linalg.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_cochains_and_classes_add_nothing_to_the_shared_record():
    src = Path(masseytc.__file__).parent
    for module, name in (("dga.py", "Cochain"), ("cohomology.py", "CohClass")):
        tree = ast.parse((src / module).read_text())
        node = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == name)
        assert [base.id for base in node.bases] == ["GradedVector"] and not node.decorator_list
        # the docstring is the whole body: no method, field or attribute
        assert len(node.body) == 1 and isinstance(node.body[0].value.value, str), name
    assert issubclass(Cochain, GradedVector) and issubclass(CohClass, GradedVector)


def kernel_calls(tree) -> list:
    """Lines of every call of a callable named ``kernel`` in a module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "kernel" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_bounds_and_massey_call_no_kernel():
    # both modules import kernel only so that the bench tracer can wrap it
    # there
    src = Path(masseytc.__file__).parent
    assert kernel_calls(ast.parse("kernel(m) + linalg.kernel(m)")) == [1, 1]
    assert {name: kernel_calls(ast.parse((src / name).read_text()))
            for name in ("bounds.py", "massey.py")} == {"bounds.py": [], "massey.py": []}


def indented_dumps(tree) -> list:
    """Lines of every ``json.dumps`` call that passes ``indent``."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and "dumps" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                  and any(k.arg == "indent" for k in node.keywords))


def test_no_json_dumps_passes_indent():
    # CPython encodes through its C encoder only when indent is None
    assert indented_dumps(ast.parse("json.dumps(x, indent=2)\ndumps(x, indent=None)\n"
                                    "json.dumps(x, separators=(',', ':'))\n")) == [1, 2]
    src = Path(masseytc.__file__).parent
    found = {path.name: indented_dumps(ast.parse(path.read_text()))
             for path in sorted(src.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def unused_imports(source: str) -> list:
    """(line, name) of every name a module imports and never reads; an
    import marked ``noqa: F401`` is kept on purpose and skipped."""
    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                found.append((node.lineno, name))
    return sorted(found)


def test_engine_imports_only_what_it_reads():
    assert unused_imports("import os.path\nfrom a import b, c as d  # noqa: F401\n"
                          "from e import (f,\n  g)\nprint(g, os)\n") == [(3, "f")]
    src = Path(masseytc.__file__).parent
    found = {path.name: unused_imports(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def definitions(tree) -> list:
    """(line, name, is a method) of every function, method and class a
    module defines and of every name its top level assigns, dunders left
    out.  A method is a function defined directly in a class body."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body}
    found = [(node.lineno, node.name, id(node) in methods) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    found += [(node.lineno, name.id, False) for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for name in ast.walk(node)
              if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    return sorted(d for d in found if not (d[1].startswith("__") and d[1].endswith("__")))


def referenced_names(tree) -> tuple:
    """(names, attributes) a module reads.  Names are the names it reads,
    imported names and their aliases, and each string constant that is a
    name, such as a patch table's ``("linalg", "solve")``.  Attributes are
    the attributes it reads and the parts of each string constant that is
    a dotted name, such as ``"CohomologyRing.cup_basis"``.  Docstrings are
    not code and do not count."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."), [node.asname] if node.asname else [])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings
              and all(part.isidentifier() for part in node.value.split("."))):
            parts = node.value.split(".")
            (attributes if len(parts) > 1 else names).update(parts)
    return names, attributes


def unread(tree, names: set, attributes: set) -> list:
    """The names of the definitions of a module that nothing reads: a
    method counts as read only as an attribute or a part of a dotted
    string, anything else also by name."""
    return [name for _, name, method in definitions(tree)
            if name not in attributes and (method or name not in names)]


def test_every_definition_in_the_engine_has_a_caller():
    """The package holds only what the commands, ledger replay and the
    benchmark call; helpers only the tests call live in tests/oracles.py.

    Definitions are functions, methods, classes and module-level
    constants.  A method passes when code in src/ or bench/ reads it as an
    attribute or names it in a dotted string; a local variable of the same
    name does not keep it.  Any other definition passes when such code
    reads its name anywhere, even as an attribute of some other object."""
    sample = ast.parse('"""f g"""\ndef f():\n    "h"\ndef g(): pass\ndef h(): pass\n'
                       'class K:\n    def __len__(self): return 0\n'
                       'def m(): pass\ndef n(): pass\ndef p(): pass\n'
                       'g()\nx.m\nfrom a import n as q\nT = ("mod", "p.x")\n'
                       'U = 1\nV: int = U\n__version__ = "1"\n'
                       'class L:\n    def r(self): pass\n    def s(self): pass\n'
                       '    def t(self): pass\n    def u(self): pass\n'
                       'L().s()\nprint(r, "L.t", "u")\n')
    assert unread(sample, *referenced_names(sample)) == ["f", "h", "K", "T", "V", "r", "u"]
    src = Path(masseytc.__file__).parent
    names, attributes = set(), set()
    for path in sorted(src.glob("*.py")) + sorted(BENCH.rglob("*.py")):
        read = referenced_names(ast.parse(path.read_text()))
        names |= read[0]
        attributes |= read[1]
    found = {path.name: unread(ast.parse(path.read_text()), names, attributes)
             for path in sorted(src.glob("*.py"))}
    assert {name: dead for name, dead in found.items() if dead} == {}
