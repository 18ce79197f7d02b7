"""The benchmark's seeded inputs: reproducible, honest and valid models."""

import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
from masseytc.dga import compile_cdga  # noqa: E402
from masseytc.dsl import parse_model  # noqa: E402
from masseytc.models import MODEL_SOURCES  # noqa: E402

SEEDS = (0, 1, 7, 12345)


def all_texts(seed):
    models, _ = inputs.massey_inputs(seed)
    return [inputs.stress_nil_model(seed)] + list(models.values())


def test_same_seed_gives_identical_inputs():
    for seed in SEEDS:
        assert inputs.stress_nil_model(seed) == inputs.stress_nil_model(seed)
        assert inputs.massey_inputs(seed) == inputs.massey_inputs(seed)


def test_seeds_change_the_numbers_not_the_shape():
    a, b = inputs.stress_nil_model(1), inputs.stress_nil_model(2)
    assert a != b
    strip = re.compile(r"-?\d+(/\d+)?\*")
    assert strip.sub("", a).replace("- ", "+ ") == strip.sub("", b).replace("- ", "+ ")
    qa, qb = inputs.massey_inputs(1)[1], inputs.massey_inputs(2)[1]
    assert sorted(qa) == sorted(qb)


def test_coefficients_are_non_unit_rationals():
    for seed in SEEDS:
        for text in all_texts(seed):
            coeffs = re.findall(r"(?<![\w/])(\d+(?:/\d+)?)\*", text)
            assert coeffs and all(c != "1" for c in coeffs)


def test_space_dim_is_total_generator_degree():
    for seed in SEEDS:
        for text in all_texts(seed):
            p = parse_model(text)
            assert p.space_dim == sum(g.degree for g in p.generators)


def test_generated_models_satisfy_every_axiom():
    for seed in SEEDS:
        for text in all_texts(seed):
            assert compile_cdga(parse_model(text), check=False).validate() == []


def test_stress_nil_shape():
    p = parse_model(inputs.stress_nil_model(3))
    assert p.truncation == 3 and p.space_dim == 5 and not p.simply_connected
    assert [g.degree for g in p.generators] == [1] * 5
    killing = sorted(g for g, poly in p.differentials.items() if poly)
    assert killing == ["y1", "y2"]
    for seed in range(200):
        diffs = parse_model(inputs.stress_nil_model(seed)).differentials
        rows = [sorted(diffs[y].items()) for y in ("y1", "y2")]
        assert all(len(r) == 3 for r in rows)
        (a, b) = ([c for _, c in r] for r in rows)
        assert all(a[i] * b[j] != a[j] * b[i] for i in range(3) for j in range(i + 1, 3))


def test_queries_name_known_models_and_classes():
    models, queries = inputs.massey_inputs(5)
    assert set(inputs.GOLDEN_QUERIES) <= set(queries)
    for model, *classes in queries:
        text = models.get(model) or MODEL_SOURCES[model]
        p = parse_model(text)
        names = {a for a, _ in p.aliases} | {g.name for g in p.generators}
        assert set(classes) <= names
