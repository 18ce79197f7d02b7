"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives
byte-identical model text and the same query list.  Coefficients are drawn
from a fixed set of non-unit rationals with seeded signs, so every seed
yields models of the same shape and about the same arithmetic cost; only
the numbers change.  ``space-dim`` is always the total degree of the
generators.

The program under test never sees a seed, only the model text written out
by the benchmark and the class names of each query.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Non-unit magnitudes; a sign is drawn separately for each coefficient.
MAGNITUDES = (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 3),
              Fraction(2, 3), Fraction(3, 2))

STRESS_NAME = "stressnil"

# (model, a, b, c) for the golden models, as in the README and the tests.
GOLDEN_QUERIES = (
    ("spheres8", "a", "a", "b"),
    ("spheres8", "b", "a", "b"),
    ("borromean", "u", "v", "w"),
    ("borromean", "u", "w", "v"),
    ("even7", "alpha", "alpha", "beta"),
    ("even7", "beta", "beta", "alpha"),
    ("even7", "alpha", "alpha", "alpha"),
    ("even7", "u", "u", "u"),
    ("odd11", "alpha", "alpha", "beta"),
    ("odd11", "alpha", "beta", "beta"),
)

# Generated models per family in one query list.
MODELS_PER_FAMILY = 2


def coefficient(rng: random.Random) -> Fraction:
    c = rng.choice(MAGNITUDES)
    return c if rng.random() < 0.5 else -c


def poly(terms) -> str:
    """DSL text of a sum of (coefficient, monomial) terms."""
    parts = []
    for c, mono in terms:
        sign = ("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")
        parts.append(f"{sign}{abs(c)}*{mono}")
    return " ".join(parts)


def model_text(name: str, truncate: int, simply_connected: bool,
               generators, differentials=(), aliases=()) -> str:
    """DSL text of a model; ``space-dim`` is the total generator degree."""
    lines = [f"algebra {name} {{", "  field Q", f"  truncate {truncate}",
             f"  space-dim {sum(deg for _, deg in generators)}",
             f"  simply-connected {'true' if simply_connected else 'false'}"]
    lines += [f"  generator {g} degree {deg}" for g, deg in generators]
    lines += [f"  d {g} = {poly(terms)}" for g, terms in differentials]
    lines += [f"  alias {a} = {poly(terms)}" for a, terms in aliases]
    return "\n".join(lines + ["}"]) + "\n"


def general_pair(rng: random.Random, n: int) -> tuple:
    """Two coefficient rows of length n whose 2x2 minors are all nonzero."""
    while True:
        r1 = [coefficient(rng) for _ in range(n)]
        r2 = [coefficient(rng) for _ in range(n)]
        if all(r1[i] * r2[j] != r1[j] * r2[i]
               for i in range(n) for j in range(i + 1, n)):
            return r1, r2


def stress_nil_model(seed: int) -> str:
    """Two-step nilpotent model: 3 closed degree-1 generators and 2 degree-1
    generators killing seeded combinations of their products, truncated
    at 3.

    The killed plane is in general position: no single product x_i*x_j lies
    in it, so every product of two distinct generators survives in
    cohomology and the same basis Massey triples are defined for every
    seed.  A plane through a product x_i*x_j defines more basis triples,
    and the engine, which scans basis triples only, then certifies a
    higher cat lower bound for an isomorphic algebra with different work.
    """
    rng = random.Random(f"stress-nil:{seed}")
    products = ("x1*x2", "x1*x3", "x2*x3")
    rows = general_pair(rng, len(products))
    gens = [(g, 1) for g in ("x1", "x2", "x3", "y1", "y2")]
    diffs = [(y, list(zip(row, products))) for y, row in zip(("y1", "y2"), rows)]
    return model_text(STRESS_NAME, 3, False, gens, diffs)


def _nil_model(rng, name):
    # borromean-shaped: every product of degree-1 classes is killed
    gens = [(g, 1) for g in ("x1", "x2", "x3", "y1", "y2", "y3")]
    diffs = [("y1", [(coefficient(rng), "x2*x3")]),
             ("y2", [(coefficient(rng), "x3*x1")]),
             ("y3", [(coefficient(rng), "x1*x2")])]
    aliases = [(a, [(coefficient(rng), x) for x in ("x1", "x2", "x3")])
               for a in ("p", "q", "r")]
    queries = [("p", "q", "r"), ("q", "r", "p"), ("p", "p", "q"), ("r", "q", "p")]
    return model_text(name, 2, False, gens, diffs, aliases), queries


def _sph_model(rng, name):
    # spheres8-shaped: two degree-3 classes whose product is killed
    gens = [("a", 3), ("b", 3), ("z", 5)]
    diffs = [("z", [(coefficient(rng), "a*b")])]
    aliases = [(s, [(coefficient(rng), "a"), (coefficient(rng), "b")])
               for s in ("s", "t")]
    queries = [("s", "s", "t"), ("t", "s", "t"), ("s", "t", "t"), ("s", "t", "s")]
    return model_text(name, 8, True, gens, diffs, aliases), queries


def _even_model(rng, name):
    # even7-shaped: squares and product of two degree-2 classes killed;
    # u = c_x*a*z - c_z*x*b is closed because d(a*z) = c_z*a*a*b and
    # d(x*b) = c_x*a*a*b
    cx, cy, cz = coefficient(rng), coefficient(rng), coefficient(rng)
    gens = [("a", 2), ("b", 2), ("x", 3), ("y", 3), ("z", 3)]
    diffs = [("x", [(cx, "a*a")]), ("y", [(cy, "b*b")]), ("z", [(cz, "a*b")])]
    aliases = [(s, [(coefficient(rng), "a"), (coefficient(rng), "b")])
               for s in ("alpha", "beta")]
    aliases.append(("u", [(cx, "a*z"), (-cz, "x*b")]))
    queries = [("alpha", "alpha", "beta"), ("beta", "beta", "alpha"),
               ("alpha", "alpha", "u"), ("u", "u", "u")]
    return model_text(name, 8, True, gens, diffs, aliases), queries


FAMILIES = (("nil", _nil_model), ("sph", _sph_model), ("ev", _even_model))


def massey_inputs(seed: int) -> tuple:
    """(generated model texts by name, query list).

    A query is (model, a, b, c) where model is a golden model name or a key
    of the returned dict.  The list holds the golden triples, then the
    generated ones, in a seeded order; it contains defined, undefined and
    zero-containing triples.
    """
    rng = random.Random(f"massey-cli:{seed}")
    models = {}
    queries = list(GOLDEN_QUERIES)
    for family, build in FAMILIES:
        for k in range(MODELS_PER_FAMILY):
            name = f"{family}{k}"
            models[name], triples = build(rng, name)
            queries += [(name,) + t for t in triples]
    rng.shuffle(queries)
    return models, queries
