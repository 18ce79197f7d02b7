"""The default Massey scan stops once no unscanned triple can raise a bound.

Stopping early can only weaken a bound, so a stop is a claim that it does
not.  The default ledger must certify the bounds of the full scan
(``massey_cap`` at the truncation) on every model below and replay on a
fresh ring; its listing is the full scan's up to the degree it stopped at.
A stopped scan prints what the same explicit cap prints, plus its note, and
a forged note fails replay with a reason of its own.
"""

import dataclasses
from fractions import Fraction

import pytest

from masseytc import report
from masseytc.bounds import build_ledger, cat_weight_facts, replay_ledger
from masseytc.cli import build_parser, cmd_bounds
from masseytc.cohomology import CohomologyRing, KunnethMap
from masseytc.dga import compile_cdga
from masseytc.dsl import parse_model
from masseytc.massey import scan_triples
from masseytc.models import MODEL_SOURCES
from test_bench_tracer import load_bench
from test_cli import STRESS_NIL_SRC, nil4_src, six_src
from test_nilmanifolds import NILMANIFOLDS
from test_sphere_products import PRODUCTS, sphere_product

MODELS = {
    **MODEL_SOURCES,
    **NILMANIFOLDS,
    **{f"stress-seed{s}": load_bench("inputs").stress_nil_model(s) for s in (1, 2, 3)},
    "six8": six_src(8),
    "nil4at4": nil4_src(4),
    **{"s" + "x".join(map(str, ns)): sphere_product(ns, 0) for ns in PRODUCTS},
}

# heis5 declared 3-dimensional: cat lower 4 meets the dimension bound at
# degree 2, where a chain through a triple above could still weigh 4 > 3
HEIS5_DIM3 = NILMANIFOLDS["heis5"].replace("space-dim 5", "space-dim 3")


def ring_of(src: str) -> CohomologyRing:
    return CohomologyRing(compile_cdga(parse_model(src)))


def ledger_of(src: str, **kwargs):
    ring = ring_of(src)
    return build_ledger(ring, KunnethMap(ring, ring), **kwargs)


def replays(ledger, src: str) -> bool:
    """Replay on a fresh ring of the model."""
    fresh = ring_of(src)
    return replay_ledger(ledger, fresh, KunnethMap(fresh, fresh))


def bounds_of(ledger) -> tuple:
    return ledger.cat_lower, ledger.cat_upper, ledger.tc_lower, ledger.tc_upper


@pytest.mark.parametrize("name", sorted(MODELS))
def test_the_default_scan_certifies_the_full_scan_bounds(name):
    src = MODELS[name]
    ring = ring_of(src)
    kmap = KunnethMap(ring, ring)
    ledger = build_ledger(ring, kmap)
    full = build_ledger(ring, kmap, massey_cap=ring.truncation)
    assert bounds_of(ledger) == bounds_of(full) and full.massey_stop is None
    assert (ledger.massey_stop is None) == (ledger.massey_cap == ring.truncation)
    assert ledger.massey_cosets == tuple(c for c in full.massey_cosets
                                         if c.target_degree <= ledger.massey_cap)
    assert replays(ledger, src)


def test_nil4_at_its_dimension_stops_at_degree_3():
    # the full scan lists 1.8 million triples, and its report ran out of memory
    src = nil4_src(10)
    ring = ring_of(src)
    ledger = build_ledger(ring, KunnethMap(ring, ring))
    assert ledger.massey_stop == (3, 8, Fraction(1), 10) and ledger.massey_cap == 3
    assert bounds_of(ledger)[:3] == (9, 11, 9)
    # what massey_cap=3 lists, and replay rescans it on the fresh ring
    assert len(ledger.massey_cosets) == 100
    assert ledger.massey_cosets == tuple(scan_triples(ring, 3))
    assert replays(ledger, src)


@pytest.mark.parametrize("name, line", [
    ("even7", "Massey scan stopped at degree 5: a triple above it adds at most 3 <= 3"),
    ("odd11", "Massey scan stopped at degree 8: a triple above it adds at most 8/3 <= 3"),
    ("stressnil", "Massey scan stopped at degree 2: a triple above it adds at most 2 <= 2"),
    ("heis5dim3", "Massey scan stopped at degree 2: cat lower meets cat upper 4"),
])
def test_a_stopped_scan_prints_the_capped_scan_and_its_note(tmp_path, name, line):
    files = {"stressnil": STRESS_NIL_SRC, "heis5dim3": HEIS5_DIM3}
    model = name
    if name in files:
        model = str(tmp_path / f"{name}.mtc")
        (tmp_path / f"{name}.mtc").write_text(files[name])
    _, payload, text = cmd_bounds(build_parser().parse_args(["bounds", model]))
    note = payload["ledger"].pop("massey_stop")
    argv = ["bounds", model, "--max-massey-degree", str(note["degree"])]
    _, capped, capped_text = cmd_bounds(build_parser().parse_args(argv))
    assert report.render_json(payload) == report.render_json(capped)
    assert line in text.splitlines() and text.replace(line + "\n", "") == capped_text


def test_an_explicit_cap_at_the_truncation_lists_every_triple():
    code, payload, text = cmd_bounds(build_parser().parse_args(
        ["bounds", "even7", "--max-massey-degree", "8", "--json"]))
    assert code == 0 and len(payload["massey"]) == 12 and "massey_stop" not in payload["ledger"]
    assert len(cmd_bounds(build_parser().parse_args(["bounds", "even7"]))[1]["massey"]) == 6


def _noted(src: str, degree: int):
    """The ledger capped at ``degree`` with the note a stop there would
    record, each field computed as the build does."""
    ring = ring_of(src)
    led = build_ledger(ring, KunnethMap(ring, ring), massey_cap=degree)
    ratio = max([Fraction(2, degree + 1), *(Fraction(f.weight, f.cls.degree)
                                            for f in cat_weight_facts(ring, led.massey_cosets))])
    return dataclasses.replace(led, massey_stop=(degree, led.cat_lower - 1, ratio,
                                                 ring.top_nonzero_degree()))


def _note(**fields):
    def forge(led):
        d, w, ratio, top = led.massey_stop
        return dataclasses.replace(led, massey_stop=tuple(
            {"d": d, "w": w, "ratio": ratio, "top": top, **fields}.values()))
    return forge


@pytest.mark.parametrize("model, make, reason", [
    pytest.param("even7", _note(d=4), "massey_stop degree 4 is not massey_cap 5", id="wrong-d"),
    pytest.param("even7", _note(w=4), r"massey_stop weight 4 is not cat lower - 1 = 3",
                 id="wrong-w"),
    pytest.param("even7", _note(ratio=Fraction(1, 3)),
                 "massey_stop ratio 1/3 is not 1/2, the largest weight per degree",
                 id="wrong-ratio"),
    pytest.param("even7", _note(top=7), "massey_stop top degree 7 is not the ring's 8",
                 id="wrong-top"),
    pytest.param("even7", _note(ratio=0.5), r"massey_stop \(5, 3, 0\.5, 8\) is not a tuple "
                 r"\(d, W, rho, T\) of an int, an int, a Fraction and an int",
                 id="ratio-as-a-float"),
    pytest.param("even7", _note(w=True), r"massey_stop \(5, True, .*\) is not a tuple",
                 id="w-as-a-bool"),
    pytest.param("even7", lambda led: dataclasses.replace(led, massey_stop=list(
        led.massey_stop)), r"massey_stop \[5, 3, .*\] is not a tuple", id="note-as-a-list"),
    pytest.param("even7", lambda led: dataclasses.replace(led, massey_stop=led.massey_stop[:3]),
                 r"massey_stop \(5, 3, Fraction\(1, 2\)\) is not a tuple", id="note-too-short"),
    pytest.param("spheres8", lambda led: dataclasses.replace(
        led, massey_stop=(8, 2, Fraction(1, 3), 8)),
        r"massey_stop \(8, 2, .*\) notes a stop on a full scan, up to the truncation 8",
        id="note-on-a-full-scan"),
])
def test_a_forged_stop_note_fails_replay(model, make, reason):
    src = MODEL_SOURCES[model]
    led = ledger_of(src)
    assert replays(led, src)
    with pytest.raises(ValueError, match=reason):
        replays(make(led), src)


@pytest.mark.parametrize("src, degree, reason", [
    pytest.param(NILMANIFOLDS["heis5"], 2, "massey_stop at degree 2 fails its cat side: a "
                 "triple above it adds at most 4 > 3, and cat lower 4 is below cat upper 6",
                 id="cat-side"),
    pytest.param(six_src(8), 4, "massey_stop at degree 4 fails its TC side: on this "
                 r"1-connected model a triple above it can transfer its weight \(R4\)",
                 id="tc-side"),
])
def test_a_stop_the_rule_does_not_allow_fails_replay(src, degree, reason):
    # every field is the ring's, but the inequality of one side fails
    led = _noted(src, degree)
    with pytest.raises(ValueError, match=reason):
        replays(led, src)
    assert replays(dataclasses.replace(led, massey_stop=None), src)
