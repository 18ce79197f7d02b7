"""The benchmark's layer tracer still fits the engine.

``bench/layertrace.py`` patches engine functions by name.  These tests load
it by path and check that every name it traces resolves, that a traced
``bounds`` run prints the same bytes as an untraced one, and that
``uninstall`` puts every binding back.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

from masseytc import cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("layertrace_under_test", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bounds_json():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["bounds", "spheres8", "--json"])
    return code, out.getvalue()


def bindings():
    """Every module-level and class-level binding of the engine."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name != "masseytc" and not name.startswith("masseytc."):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, v in vars(value).items():
                    out[(name, key, attr)] = v
    return out


def test_every_traced_name_resolves():
    layertrace = load_tracer()
    for mod, path, _ in layertrace.SPANS + layertrace.COUNTERS:
        owner, attr = layertrace._resolve(importlib.import_module(f"masseytc.{mod}"), path)
        assert callable(vars(owner).get(attr)), f"{mod}.{path}"


def test_traced_bounds_prints_the_same_bytes_and_uninstall_restores():
    layertrace = load_tracer()
    untraced = bounds_json()
    before = bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        patched = [k for k, v in bindings().items() if v is not before.get(k)]
        tracer.new_pass()
        tracer.op = 0
        traced = bounds_json()
    finally:
        tracer.uninstall()
    after = bindings()
    assert untraced[0] == 0 and traced == untraced
    assert ("masseytc.bounds", "weighted_lower_bound") in patched
    assert ("masseytc.bounds", "zero_divisors_cup_length") in patched
    counts = tracer.pass_counts[0]
    assert counts["bounds.ledger_calls"] == counts["bounds.zcl_calls"] == 1
    assert counts["bounds.search_calls"] == 2
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
