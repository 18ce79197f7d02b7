"""The benchmark's tracer: every binding patched, counts exact, all undone."""

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layertrace  # noqa: E402
from masseytc import bounds, cli, cohomology, linalg, massey  # noqa: E402


def traced_massey_call():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        patched = {m.__name__: m.kernel for m in (linalg, cohomology, massey, bounds)}
        tracer.new_pass()
        tracer.op = 0
        with contextlib.redirect_stdout(io.StringIO()):
            code = tracer.call("op", cli.main,
                               (["massey", "spheres8", "a", "a", "b", "--json"],), {})
    finally:
        tracer.uninstall()
    return tracer, patched, code


def test_every_importing_module_gets_the_wrapper_and_uninstall_restores():
    original = linalg.kernel
    _, patched, code = traced_massey_call()
    assert code == 0
    assert all(fn is not original for fn in patched.values())
    for module in (linalg, cohomology, massey, bounds):
        assert module.kernel is original
    assert cli.massey_triple is massey.massey_triple


def test_counts_repeat_and_spans_nest():
    first, _, _ = traced_massey_call()
    second, _, _ = traced_massey_call()
    assert first.pass_counts == second.pass_counts
    counts = first.pass_counts[0]
    assert counts["massey.triple_calls"] == 1
    assert counts["massey.defined"] == counts["massey.nonzero"] == 1
    assert counts["linalg.kernel_calls"] > 0 and counts["dsl.parse_calls"] == 1
    total, own = first.layer_times([0])
    assert 0 <= own["op"] <= total["op"]
    assert total["cohomology.ring"] >= own["cohomology.ring"] > 0


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [(n, u, b) for n, u, b, _ in layertrace.LAYER_METRICS]
