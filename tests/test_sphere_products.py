"""Ground truth from products of spheres.

A product of k spheres S^(n_1) x ... x S^(n_k) has cat = k + 1 and
TC = 1 + #odd + 2 #even unnormalized, counting the odd and even n_i
(Farber, Discrete Comput. Geom. 2003).  Each sphere's minimal model is a
closed x of degree n for odd n, and x of degree n with y of degree 2n - 1,
d y = x*x, for even n; the product's model is their tensor product.  The
certified lower bounds must equal these values at truncate sum(n_i) and
one above it, and every ledger must replay.
"""

import pytest

from masseytc.bounds import build_ledger, replay_ledger
from masseytc.cohomology import CohomologyRing, KunnethMap
from masseytc.dga import compile_cdga
from masseytc.dsl import parse_model

PRODUCTS = ((1, 1), (2, 2), (1, 2), (3, 5), (2, 4), (1, 1, 1), (2, 2, 2), (1, 2, 3),
            (3, 3, 4), (1, 1, 1, 1), (2, 2, 2, 2), (1, 2, 3, 4), (5, 5), (4, 4), (2, 3, 5))


def sphere_product(degrees: tuple, extra: int) -> str:
    """The model text of the product of spheres of the given dimensions,
    truncated ``extra`` above its dimension."""
    dim = sum(degrees)
    lines = [f"algebra s{'x'.join(map(str, degrees))} {{", f"  truncate {dim + extra}",
             f"  space-dim {dim}",
             f"  simply-connected {'true' if min(degrees) >= 2 else 'false'}"]
    for i, n in enumerate(degrees, 1):
        lines.append(f"  generator x{i} degree {n}")
        if n % 2 == 0:
            lines += [f"  generator y{i} degree {2 * n - 1}", f"  d y{i} = x{i}*x{i}"]
    return "\n".join(lines + ["}"]) + "\n"


@pytest.mark.parametrize("extra", [0, 1], ids=["at-dim", "above-dim"])
@pytest.mark.parametrize("degrees", PRODUCTS, ids=lambda ns: "x".join(map(str, ns)))
def test_certified_lower_bounds_are_the_known_values(degrees, extra):
    # the ledger is built on one ring and replayed on a fresh one
    build, fresh = (CohomologyRing(compile_cdga(parse_model(sphere_product(degrees, extra))))
                    for _ in range(2))
    ledger = build_ledger(build, KunnethMap(build, build))
    odd = sum(n % 2 for n in degrees)
    assert ledger.cat_lower == len(degrees) + 1
    assert ledger.tc_lower == 1 + odd + 2 * (len(degrees) - odd)
    assert replay_ledger(ledger, fresh, KunnethMap(fresh, fresh))
