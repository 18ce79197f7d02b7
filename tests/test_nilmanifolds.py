"""Ground truth from nilmanifolds.

The Chevalley-Eilenberg complex of a nilpotent Lie algebra of dimension n
is a model of its nilmanifold (Nomizu).  It is finite: truncated at n, it
loses nothing, so ``space-dim n`` is honest.  A nilmanifold is a closed
aspherical n-manifold, so its cat is n + 1 unnormalized (Eilenberg-Ganea),
which is also the dimension bound; on the k-torus TC is k + 1 unnormalized
(Farber, Discrete Comput. Geom. 2003).  The engine's certified bounds must
respect these values on every member, and every ledger must replay.
"""

import pytest

from masseytc.bounds import build_ledger, replay_ledger
from masseytc.cohomology import CohomologyRing, KunnethMap
from masseytc.dga import compile_cdga
from masseytc.dsl import parse_model
from test_bench_tracer import load_bench


def ce_model(name: str, *factors) -> str:
    """The model text of the direct sum of nilpotent Lie algebras, each
    given as (n, brackets), where ``brackets[k]`` lists the (i, j) with
    d e_k = sum e_i * e_j over the algebra's own e_1..e_n; the sum's
    generators are numbered on, factor after factor."""
    lines, n = [], 0
    for dim, brackets in factors:
        for k, terms in sorted(brackets.items()):
            # d lands in the generators before it
            assert all(0 < i < j < k <= dim for i, j in terms)
            lines.append(f"  d e{k + n} = " + " + ".join(f"e{i + n}*e{j + n}" for i, j in terms))
        n += dim
    return "\n".join([f"algebra {name} {{", f"  truncate {n}", f"  space-dim {n}"]
                     + [f"  generator e{i} degree 1" for i in range(1, n + 1)]
                     + lines + ["}"]) + "\n"


def torus(k: int) -> tuple:
    return k, {}


def filiform(n: int) -> tuple:
    # L_n: [e_1, e_i] = e_(i+1), so d e_(i+1) = e_1 * e_i
    return n, {i + 1: [(1, i)] for i in range(2, n)}


HEIS3 = (3, {3: [(1, 2)]})
HEIS5 = (5, {5: [(1, 2), (3, 4)]})
FREE_2_STEP_3 = (6, {4: [(2, 3)], 5: [(1, 3)], 6: [(1, 2)]})  # borromean


def _stress(seed: int) -> str:
    # the bench's seeded 2-step quotient, at its dimension 5
    text = load_bench("inputs").stress_nil_model(seed)
    assert "  truncate 3\n" in text and "  space-dim 5\n" in text
    return text.replace("  truncate 3\n", "  truncate 5\n")


NILMANIFOLDS = {
    **{f"t{k}": ce_model(f"t{k}", torus(k)) for k in (1, 2, 3)},
    "heis3": ce_model("heis3", HEIS3),
    "heis5": ce_model("heis5", HEIS5),
    **{f"fil{n}": ce_model(f"fil{n}", filiform(n)) for n in (4, 5, 6)},
    "free3": ce_model("free3", FREE_2_STEP_3),
    "heis3xt1": ce_model("heis3xt1", HEIS3, torus(1)),
    "heis3xt2": ce_model("heis3xt2", HEIS3, torus(2)),
    "heis3xheis3": ce_model("heis3xheis3", HEIS3, HEIS3),
    "stress1": _stress(1),
    "stress2": _stress(2),
}
TORI = {"t1": 1, "t2": 2, "t3": 3}


def test_the_family_has_a_dozen_members_up_to_dimension_six():
    dims = {name: parse_model(src).space_dim for name, src in NILMANIFOLDS.items()}
    assert len(dims) >= 12 and max(dims.values()) == 6 and set(TORI) <= set(dims)


@pytest.mark.parametrize("name", sorted(NILMANIFOLDS))
def test_certified_bounds_respect_the_nilmanifold(name):
    dga = compile_cdga(parse_model(NILMANIFOLDS[name]))
    n = dga.space_dim
    assert dga.truncation == n
    ring = CohomologyRing(dga)
    # Poincare duality: the top class sits in degree n, and nothing above
    assert ring.dim(n) == 1 and ring.top_nonzero_degree() == n
    kmap = KunnethMap(ring, ring)
    ledger = build_ledger(ring, kmap)
    assert ledger.cat_lower <= n + 1 == ledger.cat_upper
    assert ledger.tc_lower <= 2 * n + 1 <= ledger.tc_upper
    if name in TORI:
        assert ledger.tc_lower == TORI[name] + 1
    assert replay_ledger(ledger, ring, kmap)
