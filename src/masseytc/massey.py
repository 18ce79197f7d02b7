"""Triple Massey products with explicit witnesses and indeterminacy.

For classes [a], [b], [c] with [a][b] = [b][c] = 0 the product <a,b,c> is
the coset of

    w = a*lam + (-1)^(|a|+1) mu*c ,   d mu = a*b,  d lam = b*c

modulo |a| H^(|b|+|c|-1) + H^(|a|+|b|-1) |c|.  Witness cochains come from
the deterministic solver, so equal inputs always produce identical
witnesses and the coset gets a canonical representative: the value reduced
modulo the indeterminacy subspace.  The product is nonzero (as a coset)
exactly when that canonical representative is nonzero.

Truncation honesty: when the target degree falls outside the truncation
window the triple is reported as undefined with an explicit obstruction
string instead of silently computing garbage.  The target is the only
degree that can fall outside it: every degree is at least 1, so the
defining products [a][b] and [b][c] sit at or below the target degree.
A triple stops at its first obstruction: a nonzero [a][b] settles it
before [b][c] is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cohomology import CohClass, CohomologyRing
from .dga import Cochain
from .linalg import Subspace
from .linalg import kernel  # noqa: F401  bench/tests/test_bench_trace.py reads massey.kernel


@dataclass(frozen=True)
class MasseyCoset:
    alpha: CohClass
    beta: CohClass
    gamma: CohClass
    defined: bool
    obstruction: Optional[str]
    mu: Optional[Cochain]
    lam: Optional[Cochain]
    value_cochain: Optional[Cochain]
    value: Optional[CohClass]
    indeterminacy: Optional[Subspace]
    canonical: Optional[CohClass]

    @property
    def target_degree(self) -> int:
        return self.alpha.degree + self.beta.degree + self.gamma.degree - 1

    def contains_zero(self) -> bool:
        if not self.defined:
            raise ValueError(f"product is not defined: {self.obstruction}")
        return self.canonical.is_zero()

    def is_nonzero(self) -> bool:
        return self.defined and not self.canonical.is_zero()


def _undefined(alpha, beta, gamma, obstruction):
    return MasseyCoset(alpha, beta, gamma, False, obstruction,
                       None, None, None, None, None, None)


def massey_triple(ring: CohomologyRing, alpha: CohClass, beta: CohClass,
                  gamma: CohClass) -> MasseyCoset:
    p, q, r = alpha.degree, beta.degree, gamma.degree
    if min(p, q, r) < 1:
        raise ValueError("Massey products need positive-degree classes")
    target = p + q + r - 1
    if target > ring.truncation:
        return _undefined(alpha, beta, gamma,
                          f"target degree {target} exceeds truncation {ring.truncation}")
    # every degree is at least 1, so p + q and q + r are at most the target
    if not ring.cup(alpha, beta).is_zero():
        return _undefined(alpha, beta, gamma, "alpha*beta is nonzero")
    if not ring.cup(beta, gamma).is_zero():
        return _undefined(alpha, beta, gamma, "beta*gamma is nonzero")

    witnesses = _witnesses(ring, *map(ring.representative, (alpha, beta, gamma)))
    if witnesses is None:
        raise ValueError("boundary witness missing although the class product vanishes")
    mu, lam, w = witnesses
    value = ring.class_of(w)
    indet = massey_indeterminacy(ring, alpha, gamma, q)
    canonical = CohClass(target, value.dim, indet.reduce_pairs(value.pairs))
    return MasseyCoset(alpha, beta, gamma, True, None, mu, lam, w,
                       value, indet, canonical)


def massey_indeterminacy(ring: CohomologyRing, alpha: CohClass,
                         gamma: CohClass, q: int) -> Subspace:
    """alpha * H^(q+r-1) + H^(p+q-1) * gamma inside the target degree."""
    p, r = alpha.degree, gamma.degree
    return ring.multiples(alpha, q + r - 1).add(ring.multiples(gamma, p + q - 1))


def massey_value_from_cocycles(ring: CohomologyRing, a: Cochain, b: Cochain,
                               c: Cochain):
    """Value cochain and class computed from arbitrary cocycle
    representatives, with canonical witness solves.

    Checks the inputs are cocycles and that both products bound; run next
    to :func:`massey_triple` to confirm the coset does not move when the
    representatives do.
    """
    for x in (a, b, c):
        if not ring.dga.d(x).is_zero():
            raise ValueError(f"degree-{x.degree} representative is not a cocycle")
    witnesses = _witnesses(ring, a, b, c)
    if witnesses is None:
        raise ValueError("a defining product is not a coboundary")
    w = witnesses[2]
    return w, ring.class_of(w)


def _witnesses(ring: CohomologyRing, a: Cochain, b: Cochain, c: Cochain):
    """(mu, lam, w) for cocycles a, b, c: the canonical solutions of
    d mu = a*b and d lam = b*c, and w = a*lam + (-1)^(|a|+1) mu*c; None
    when a*b or b*c is not a coboundary."""
    dga = ring.dga
    mu, lam = ring.solve_boundary(dga.mul(a, b)), ring.solve_boundary(dga.mul(b, c))
    if mu is None or lam is None:
        return None
    sign = 1 if (a.degree + 1) % 2 == 0 else -1
    return mu, lam, dga.mul(a, lam).add(dga.mul(mu, c).scale(sign))


def scan_triples(ring: CohomologyRing, max_degree: int = None) -> list:
    """All Massey triples of basis classes with target degree within bounds.

    Mirrored triples (<c,b,a> versus <a,b,c>) agree up to sign, so only the
    lexicographically smaller orientation is computed.
    """
    cap = ring.truncation if max_degree is None else min(max_degree, ring.truncation)
    out = []
    degs = [k for k in range(1, ring.truncation + 1) if ring.dim(k)]
    for p in degs:
        for q in degs:
            for r in degs:
                if p + q + r - 1 > cap:
                    continue
                for i in range(ring.dim(p)):
                    for j in range(ring.dim(q)):
                        for k in range(ring.dim(r)):
                            if (p, i, q, j, r, k) > (r, k, q, j, p, i):
                                continue
                            out.append(massey_triple(
                                ring, ring.basis_class(p, i),
                                ring.basis_class(q, j), ring.basis_class(r, k)))
    return out

