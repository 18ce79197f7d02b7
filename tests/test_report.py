"""Payload shape and byte-determinism of the report renderings."""

import json
from collections import Counter

import pytest

from masseytc import cli, report
from masseytc.bounds import chain_product, zero_divisors_cup_length
from masseytc.cohomology import CohomologyRing
from masseytc.dga import DGA, compile_cdga
from masseytc.dsl import parse_model
from masseytc.massey import scan_triples
from masseytc.models import MODEL_SOURCES
from oracles import ring_table_all_pairs
from test_bench_tracer import load_bench
from test_cli import PAYLOAD_KEYS, STRESS_NIL_SRC

# the generated models of the massey-cli benchmark workload at seed 1
MASSEY_CLI_MODELS = load_bench("inputs").massey_inputs(1)[0]
# none of those has a nonzero product of two odd classes; the 3-torus does
T3_SRC = """\
algebra t3 {
  truncate 3
  generator x degree 1
  generator y degree 1
  generator z degree 1
  alias w = x*y + 1/2*y*z
}
"""


def full_payload(name, rings, kunneth_of, ledger_of):
    """The payload of ``bounds``, the zcl product folded from the witness."""
    ring, ht, led = rings[name], kunneth_of(name).ht, ledger_of(name)
    return report.build_payload(
        ring,
        massey=report.massey_section(ring, led.massey_cosets),
        zcl=report.zcl_section(led.zcl, led.zcl_witness, chain_product(ht, led.zcl_witness)),
        weights=report.weights_section(led),
        ledger=report.ledger_section(led),
    )


def test_payload_always_has_the_six_keys(rings):
    payload = report.build_payload(rings["s3"])
    assert tuple(payload.keys()) == PAYLOAD_KEYS
    for key in ("massey", "zcl", "weights", "ledger"):
        assert payload[key] is None


def test_model_section_mirrors_the_dga(rings):
    m = report.model_section(rings["spheres8"])
    assert m == {"name": "spheres8", "truncation": 8, "space_dim": 8,
                 "simply_connected": True, "total_dim": 7}


def test_cohomology_section_contents(rings):
    h = report.cohomology_section(rings["spheres8"])
    assert h["dims"] == [1, 0, 0, 2, 0, 0, 0, 0, 2]
    assert h["connectivity"] == 2
    assert h["cup_length"] == 1
    assert h["top_degree"] == 8
    # z bounds, so it has no class; only the spheres survive
    assert sorted(h["named_classes"]) == ["a", "b"]
    assert h["named_classes"]["a"] == [3, ["1", "0"]]
    assert h["basis"]["3"] == ["[a]", "[b]"]


def test_named_classes_include_aliases(rings):
    h = report.cohomology_section(rings["even7"])
    for name in ("alpha", "beta", "u", "v", "mu"):
        assert name in h["named_classes"]
    # the contracting generators x, y, z are not cocycles
    for name in ("x", "y", "z"):
        assert name not in h["named_classes"]


def test_ring_table_products_and_truncation_flags(rings):
    h = report.cohomology_section(rings["even7"])
    table = {(e["left"], e["right"]): e for e in h["ring_table"]}
    assert len(table) == len(h["named_classes"]) ** 2
    mu = h["named_classes"]["mu"]
    assert table[("alpha", "v")]["value"] == mu
    assert table[("u", "beta")]["value"] == mu
    assert not table[("alpha", "v")]["truncated"]
    # mu*mu lands in degree 14, outside the window: flagged, not claimed zero
    assert table[("mu", "mu")]["truncated"]
    assert table[("mu", "mu")]["value"] is None
    nonzero = sorted(pair for pair, e in table.items()
                     if e["value"] is not None
                     and any(c != "0" for c in e["value"][1]))
    assert nonzero == [("a", "v"), ("alpha", "v"), ("b", "u"), ("beta", "u"),
                       ("u", "b"), ("u", "beta"), ("v", "a"), ("v", "alpha")]
    # spheres8 products all stay inside the window and genuinely vanish
    h8 = report.cohomology_section(rings["spheres8"])
    assert all(not e["truncated"] and e["value"][1] in (["0"], [])
               for e in h8["ring_table"])


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11", "t3"]
                         + sorted(MASSEY_CLI_MODELS))
def test_ring_table_matches_the_all_pairs_oracle(name):
    text = {**MODEL_SOURCES, **MASSEY_CLI_MODELS, "t3": T3_SRC}[name]
    ring = CohomologyRing(compile_cdga(parse_model(text)))
    calls = []
    cup_checked = ring.cup_checked
    ring.cup_checked = lambda a, b: calls.append((a, b)) or cup_checked(a, b)
    try:
        h = report.cohomology_section(ring)
    finally:
        del ring.cup_checked
    classes = {n: ring.named_class(n) for n in h["named_classes"]}
    n = len(classes)
    assert n >= 2
    assert len(calls) == n * (n + 1) // 2  # each unordered pair once
    assert h["ring_table"] == ring_table_all_pairs(ring, classes)


def test_ring_table_rendered_in_text(rings):
    text = report.render_text(report.build_payload(rings["even7"]))
    assert "nonzero named products: a*v, alpha*v, b*u, beta*u" in text
    assert "land above the truncation" in text
    text8 = report.render_text(report.build_payload(rings["spheres8"]))
    assert "nonzero named products: none" in text8
    assert "land above the truncation" not in text8


def test_massey_section_entries(rings):
    ring = rings["spheres8"]
    entries = report.massey_section(ring, scan_triples(ring))
    assert len(entries) == 6
    by_label = {e["label"]: e for e in entries}
    e = by_label["<[a], [a], [b]>"]
    assert e["defined"] and e["nonzero"]
    assert e["value"][0] == 8
    assert e["indeterminacy_dim"] == 0
    e = by_label["<[a], [a], [a]>"]
    assert e["defined"] and not e["nonzero"]
    assert e["canonical"] == [8, ["0", "0"]]


def test_undefined_entry_keeps_null_fields(rings):
    ring = rings["even7"]
    from masseytc.massey import massey_triple
    u = ring.named_class("u")
    coset = massey_triple(ring, u, u, u)
    e = report.massey_entry(coset, "<u, u, u>")
    assert not e["defined"]
    assert "exceeds truncation" in e["obstruction"]
    for key in ("value", "canonical", "indeterminacy_dim", "nonzero"):
        assert e[key] is None


def test_zcl_section_matches_direct_computation(kunneth_of, ledger_of):
    led, kmap = ledger_of("spheres8"), kunneth_of("spheres8")
    z = report.zcl_section(led.zcl, led.zcl_witness, chain_product(kmap.ht, led.zcl_witness))
    k, chain, prod = zero_divisors_cup_length(kmap)
    assert z["zcl"] == k == 2
    assert len(z["witness"]) == 2
    assert z["product"] == [prod.degree, [str(c) for c in prod.coords]]


def test_weights_section_counts(rings, ledger_of):
    # the section keeps the ledger's facts; the JSON rendering writes them out
    led = ledger_of("even7")
    payload = report.build_payload(rings["even7"], weights=report.weights_section(led))
    w = json.loads(report.render_json(payload))["weights"]
    assert len(w["cat"]) == len(led.cat_facts)
    assert len(w["tc"]) == len(led.tc_facts)
    assert all(f["kind"] == "cat" for f in w["cat"])
    assert max(f["weight"] for f in w["cat"]) == 2


def test_ledger_section_drops_the_fact_pools(ledger_of):
    led = report.ledger_section(ledger_of("spheres8"))
    assert "cat_facts" not in led and "tc_facts" not in led
    assert led["cat"] == [3, 3] and led["tc"] == [5, 5]
    assert led["certificates"]


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7"])
def test_full_report_is_byte_deterministic(name, rings, kunneth_of, ledger_of):
    a = full_payload(name, rings, kunneth_of, ledger_of)
    b = full_payload(name, rings, kunneth_of, ledger_of)
    assert report.render_json(a) == report.render_json(b)
    assert report.render_text(a) == report.render_text(b)


def test_json_rendering_is_canonical(rings, kunneth_of, ledger_of):
    payload = full_payload("spheres8", rings, kunneth_of, ledger_of)
    out = report.render_json(payload)
    # one compact line: its only newline is the final one
    assert out.endswith("\n") and out.count("\n") == 1
    parsed = json.loads(out)
    assert set(parsed.keys()) == set(PAYLOAD_KEYS)
    # canonical form: re-serializing the parse gives the same bytes
    assert json.dumps(parsed, separators=(",", ":"), sort_keys=True) + "\n" == out


def test_text_report_lines(rings, kunneth_of, ledger_of):
    txt = report.render_text(full_payload("spheres8", rings, kunneth_of, ledger_of))
    assert "model spheres8: truncation 8, space dimension 8, simply connected" in txt
    assert "H^* dimensions: 1 0 0 2 0 0 0 0 2" in txt
    assert "cat lower 3, cat upper 3" in txt
    assert "TC lower 5, TC upper 5" in txt
    assert "zero-divisors cup length 2" in txt
    assert "weighted-product -> tc >= 5" in txt
    assert "cat-product -> tc <= 5" in txt


def test_text_report_skips_missing_sections(rings):
    txt = report.render_text(report.build_payload(rings["s2"]))
    assert "TC lower" not in txt
    assert "Massey" not in txt
    assert txt.startswith("model s2:")


def test_text_mentions_rudyak_certificate(rings, kunneth_of, ledger_of):
    txt = report.render_text(full_payload("borromean", rings, kunneth_of, ledger_of))
    assert "massey-rudyak -> tc >= 4" in txt
    assert "TC lower 4, TC upper 5" in txt


@pytest.mark.parametrize("name", ["spheres8", "borromean", "even7", "odd11", "stress"])
def test_class_names_are_rendered_once_per_ring(monkeypatch, capsys, tmp_path, name):
    # the basis labels and the Massey labels of a bounds report name the
    # same basis classes, a triple's three slots among them
    renders = Counter()
    render = DGA.render

    def recorded(self, x):
        renders[self.name, x.degree, x.coords] += 1
        return render(self, x)

    monkeypatch.setattr(DGA, "render", recorded)
    model = name
    if name == "stress":
        model = tmp_path / "stressnil.mtc"
        model.write_text(STRESS_NIL_SRC)
    assert cli.main(["bounds", str(model), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["massey"]
    assert renders and max(renders.values()) == 1
