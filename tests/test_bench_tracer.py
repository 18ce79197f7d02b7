"""The benchmark's layer tracer and output checker still fit the engine.

``bench/layertrace.py`` patches engine functions by name.  These tests load
it by path and check that every name it traces resolves, that a traced
``bounds`` run prints the same bytes as an untraced one, and that
``uninstall`` puts every binding back.  ``bench/checks.py`` reads engine
names to recompute and replay what each op printed; it must pass the
golden outputs.  The massey-cli workload's seed-1 traffic is pinned by
one digest over every call's exit code and output.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from masseytc import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"{name}_under_test", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def bounds_json():
    return call(["bounds", "spheres8", "--json"])


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
    layertrace = load_bench("layertrace")
    for mod, path, _ in layertrace.SPANS + layertrace.COUNTERS:
        owner, attr = layertrace._resolve(importlib.import_module(f"masseytc.{mod}"), path)
        assert callable(vars(owner).get(attr)), f"{mod}.{path}"


def test_traced_bounds_prints_the_same_bytes_and_uninstall_restores():
    layertrace = load_bench("layertrace")
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


def test_the_bench_checker_passes_the_golden_outputs(monkeypatch):
    checks, inputs = load_bench("checks"), load_bench("inputs")
    engine = SimpleNamespace(**{m: importlib.import_module(f"masseytc.{m}") for m in (
        "bounds", "cli", "cohomology", "dga", "massey", "report")})
    checker = checks.Checker(engine)
    for query in inputs.GOLDEN_QUERIES:
        code, out = call(["massey", *query, "--json"])
        assert checker.massey(query, query[0], code, out) == [], query
    captured = []
    build = engine.bounds.build_ledger

    def build_ledger(ring, kmap, *args, **kwargs):
        ledger = build(ring, kmap, *args, **kwargs)
        captured.append((ledger, ring, kmap))
        return ledger

    monkeypatch.setattr(cli, "build_ledger", build_ledger)
    for name, (cat, tc) in checks.GOLDEN_BOUNDS.items():
        captured.clear()
        code, out = call(["bounds", name, "--json"])
        assert checker.bounds(name, code, out, captured[:], {"cat": cat, "tc": tc}) == []
    assert checker._verified  # a defined query was recomputed, not only pinned


# sha256 over the exit code, stdout and stderr of each of the 34 seed-1
# massey-cli queries, text and then --json, one JSON line per call
MASSEY_CLI_SEED1_DIGEST = "e01bf66b2daf9555cf37565c1e7a6e99e7285f141ab768aca9566d6aca7b42c7"


def test_the_massey_cli_traffic_is_byte_identical(tmp_path):
    models, queries = load_bench("inputs").massey_inputs(1)
    assert len(queries) == 34
    paths = {}
    for name, text in models.items():
        paths[name] = tmp_path / f"{name}.mtc"
        paths[name].write_text(text)
    digest = hashlib.sha256()
    for model, *classes in queries:
        for flags in ([], ["--json"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["massey", str(paths.get(model, model)), *classes, *flags])
            digest.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    assert digest.hexdigest() == MASSEY_CLI_SEED1_DIGEST
