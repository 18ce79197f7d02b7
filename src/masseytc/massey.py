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
once.  A defined triple whose target degree has dim H = 0 is the zero
class and solves nothing.  The obstruction tests multiply the classes'
pairs and build no class.

A scan of basis triples walks the cup table: b runs over the basis
classes with a*b = 0 and c over those with b*c = 0, so only defined
triples become cosets.  The undefined ones are counted per obstruction,
read off the same table entries.

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
    from ``ring`` on first read.  A defined triple whose target degree has
    dim H = 0 has the zero class as its value and solves no witness:
    ``mu``, ``lam`` and ``value_cochain`` hold None, as on an undefined
    triple."""

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

    if not ring.dim(target):  # the value lies in H^target = 0: no witness is solved
        return MasseyCoset(alpha, beta, gamma, True, None, None, None, None,
                           CohClass(target, 0, ()), ring)
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


# the obstructions a basis triple within the truncation can meet, in the
# order massey_triple tests them
OBSTRUCTIONS = ("alpha*beta is nonzero", "beta*gamma is nonzero")


def scan_triples(ring: CohomologyRing, max_degree: int = None, *,
                 undefined: dict = None) -> list:
    """The defined Massey triples of basis classes with target degree
    within bounds, as cosets, in the order of :func:`_basis_triples`.

    Mirrored triples (<c,b,a> versus <a,b,c>) agree up to sign, so only the
    lexicographically smaller orientation is computed.  The undefined
    triples are not built: the same walk adds each to its obstruction's
    count in ``undefined``, a dict keyed by :data:`OBSTRUCTIONS`, when one
    is given.
    """
    if undefined is None:
        undefined = dict.fromkeys(OBSTRUCTIONS, 0)
    return [massey_triple(ring, a, b, c) for a, b, c in _basis_triples(
        ring, max_degree, undefined)]


def _basis_triples(ring: CohomologyRing, max_degree, undefined: dict):
    """Yield the defined basis triples (a, b, c) with target degree at most
    the cap and (|a|, a) <= (|c|, c), in ascending (|a|, |b|, |c|, a, b, c)
    order, walking the cup table: b runs over the classes with a*b = 0 and
    c over those with b*c = 0.  Each undefined triple is added to its
    obstruction's count in ``undefined``; an a*b != 0 entry counts the
    whole run of c at once."""
    cap = ring.truncation if max_degree is None else min(max_degree, ring.truncation)
    cup, (ab, bc) = ring.cup_basis, OBSTRUCTIONS
    basis = {}  # degree -> its basis classes, each built once
    for c in ring.positive_basis():
        basis.setdefault(c.degree, []).append(c)
    for p, ps in basis.items():
        for q, qs in basis.items():
            for r, rs in basis.items():
                if p + q + r - 1 > cap or r < p:
                    continue
                for i, a in enumerate(ps):
                    first = i if r == p else 0  # the mirror (r, k, q, j, p, i) is smaller below
                    for j, b in enumerate(qs):
                        if cup(p, i, q, j):
                            undefined[ab] += len(rs) - first
                            continue
                        for k in range(first, len(rs)):
                            if cup(q, j, r, k):
                                undefined[bc] += 1
                            else:
                                yield a, b, rs[k]
