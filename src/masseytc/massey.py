"""Triple Massey products with explicit witnesses and indeterminacy.

For classes [a], [b], [c] with [a][b] = [b][c] = 0 the product <a,b,c> is
the coset of

    w = a*lam + (-1)^(|a|+1) mu*c ,   d mu = a*b,  d lam = b*c

modulo |a| H^(|b|+|c|-1) + H^(|a|+|b|-1) |c|.  Witness cochains come from
the deterministic solver, so equal inputs always produce identical
witnesses and the coset gets a canonical representative: the value reduced
modulo the indeterminacy subspace.  The product is nonzero (as a coset)
exactly when that canonical representative is nonzero.  The indeterminacy
and the canonical representative are computed on first read; a zero value
needs neither, so a scan that only asks whether its triples are nonzero
builds the indeterminacy of its nonzero values alone, and triples that
share alpha, gamma and the degree of beta share one indeterminacy.
Triples share their witness solves too: the canonical solve of
rep(x)*rep(y) is memoized on the ring per ordered class pair, so <a,b,c>
and <a,b,c'> solve d mu = a*b once, and a scan builds each basis class
once.  The obstruction tests multiply the classes' pairs and build no
class.

Truncation honesty: when the target degree falls outside the truncation
window the triple is reported as undefined with an explicit obstruction
string instead of silently computing garbage.  The target is the only
degree that can fall outside it: every degree is at least 1, so the
defining products [a][b] and [b][c] sit at or below the target degree.
A triple stops at its first obstruction: a nonzero [a][b] settles it
before [b][c] is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .cohomology import CohClass, CohomologyRing
from .dga import DGA, Cochain
from .linalg import Subspace
from .linalg import kernel  # noqa: F401  bench/tests/test_bench_trace.py reads massey.kernel


@dataclass(frozen=True)
class MasseyCoset:
    """A triple <alpha, beta, gamma>: its witnesses and value when defined,
    else the obstruction; ``indeterminacy`` and ``canonical`` are computed
    from ``ring`` on first read."""

    alpha: CohClass
    beta: CohClass
    gamma: CohClass
    defined: bool
    obstruction: Optional[str]
    mu: Optional[Cochain]
    lam: Optional[Cochain]
    value_cochain: Optional[Cochain]
    value: Optional[CohClass]
    ring: Optional[CohomologyRing] = field(default=None, repr=False, compare=False)

    @property
    def target_degree(self) -> int:
        return self.alpha.degree + self.beta.degree + self.gamma.degree - 1

    @cached_property
    def indeterminacy(self) -> Optional[Subspace]:
        if not self.defined:
            return None
        return massey_indeterminacy(self.ring, self.alpha, self.gamma, self.beta.degree)

    @cached_property
    def canonical(self) -> Optional[CohClass]:
        """The value reduced modulo the indeterminacy."""
        if not self.defined:
            return None
        value = self.value
        return CohClass(value.degree, value.dim, self.indeterminacy.reduce_pairs(value.pairs))

    def is_nonzero(self) -> bool:
        return self.defined and not self.value.is_zero() and not self.canonical.is_zero()


def _undefined(alpha, beta, gamma, obstruction):
    return MasseyCoset(alpha, beta, gamma, False, obstruction, None, None, None, None)


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
    if ring._cup_nonzero(p, alpha.pairs, q, beta.pairs):
        return _undefined(alpha, beta, gamma, "alpha*beta is nonzero")
    if ring._cup_nonzero(q, beta.pairs, r, gamma.pairs):
        return _undefined(alpha, beta, gamma, "beta*gamma is nonzero")

    mu, lam = _product_witness(ring, alpha, beta), _product_witness(ring, beta, gamma)
    w = _value(ring.dga, ring.representative(alpha), mu, lam, ring.representative(gamma))
    return MasseyCoset(alpha, beta, gamma, True, None, mu, lam, w, ring.class_of(w), ring)


def _product_witness(ring: CohomologyRing, x: CohClass, y: CohClass) -> Cochain:
    """The canonical solution of d mu = rep(x)*rep(y) for classes with
    x*y = 0; memoized on the ring per ordered class pair, like
    :func:`massey_indeterminacy`, so triples that share a defining product
    share its solve."""
    key = (x.degree, x.pairs, y.degree, y.pairs)
    hit = ring._witnesses.get(key)
    if hit is None:
        hit = ring.solve_boundary(ring.dga.mul(ring.representative(x), ring.representative(y)))
        if hit is None:
            raise ValueError("boundary witness missing although the class product vanishes")
        ring._witnesses[key] = hit
    return hit


def massey_indeterminacy(ring: CohomologyRing, alpha: CohClass,
                         gamma: CohClass, q: int) -> Subspace:
    """alpha * H^(q+r-1) + H^(p+q-1) * gamma inside the target degree;
    memoized on the ring per alpha, gamma and q, like ``multiples``."""
    key = (alpha.degree, alpha.pairs, gamma.degree, gamma.pairs, q)
    hit = ring._indeterminacies.get(key)
    if hit is None:
        p, r = alpha.degree, gamma.degree
        hit = ring._indeterminacies[key] = ring.multiples(alpha, q + r - 1).add(
            ring.multiples(gamma, p + q - 1))
    return hit


def massey_value_from_cocycles(ring: CohomologyRing, a: Cochain, b: Cochain,
                               c: Cochain):
    """Value cochain and class computed from arbitrary cocycle
    representatives, with canonical witness solves.

    Checks the inputs are cocycles and that both products bound; run next
    to :func:`massey_triple` to confirm the coset does not move when the
    representatives do.
    """
    dga = ring.dga
    for x in (a, b, c):
        if not dga.d(x).is_zero():
            raise ValueError(f"degree-{x.degree} representative is not a cocycle")
    mu, lam = ring.solve_boundary(dga.mul(a, b)), ring.solve_boundary(dga.mul(b, c))
    if mu is None or lam is None:
        raise ValueError("a defining product is not a coboundary")
    w = _value(dga, a, mu, lam, c)
    return w, ring.class_of(w)


def _value(dga: DGA, a: Cochain, mu: Cochain, lam: Cochain, c: Cochain) -> Cochain:
    """The value cochain w = a*lam + (-1)^(|a|+1) mu*c."""
    sign = 1 if (a.degree + 1) % 2 == 0 else -1
    return dga.mul(a, lam).add(dga.mul(mu, c).scale(sign))


def scan_triples(ring: CohomologyRing, max_degree: int = None) -> list:
    """All Massey triples of basis classes with target degree within bounds.

    Mirrored triples (<c,b,a> versus <a,b,c>) agree up to sign, so only the
    lexicographically smaller orientation is computed.
    """
    cap = ring.truncation if max_degree is None else min(max_degree, ring.truncation)
    out = []
    basis = {}  # degree -> its basis classes, each built once
    for c in ring.positive_basis():
        basis.setdefault(c.degree, []).append(c)
    for p, ps in basis.items():
        for q, qs in basis.items():
            for r, rs in basis.items():
                if p + q + r - 1 > cap:
                    continue
                for i, a in enumerate(ps):
                    for b in qs:
                        for k, c in enumerate(rs):
                            if (p, i) > (r, k):  # the mirror (r, k, q, j, p, i) is smaller
                                continue
                            out.append(massey_triple(ring, a, b, c))
    return out

