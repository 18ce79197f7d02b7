"""Triple Massey products and their indeterminacy.

For classes [a], [b], [c] with [a][b] = [b][c] = 0 the product <a,b,c> is
the coset of

    w = a*lam + (-1)^(|a|+1) mu*c ,   d mu = a*b,  d lam = b*c

modulo |a| H^(|b|+|c|-1) + H^(|a|+|b|-1) |c|.  The witnesses mu = h(a, b)
and lam = h(b, c) are the ring's homotopy (:meth:`CohomologyRing.homotopy`),
so w is Kadeishvili's m3(a, b, c) (Lu, Palmieri, Wu and Zhang, J. Pure Appl.
Algebra 2009, section 3).  The coset's canonical representative is the
value reduced modulo the indeterminacy; the product is nonzero (as a coset)
exactly when that representative is nonzero.

A coset holds what the report prints of it: the three classes, whether
the triple is defined, its obstruction and the class of w.  The ring
memoizes h per ordered class pair, so <a,b,c> and <a,b,c'> solve
d mu = a*b once; a defined triple whose target degree has dim H = 0 is
the zero class and solves nothing.  The indeterminacy and the
canonical representative are computed on first read, the indeterminacy
by the ring (:meth:`CohomologyRing.indeterminacy`), which memoizes it per
alpha, gamma and |beta|; a zero value needs neither, so a scan builds the
indeterminacy of its nonzero values alone.

Truncation honesty: when the target degree falls outside the truncation
window the triple is reported as undefined with an explicit obstruction
string instead of silently computing garbage.  The target is the only
degree that can: every degree is at least 1, so the defining products
[a][b] and [b][c] sit at or below it.  A triple stops at its first
obstruction: a nonzero [a][b] settles it before [b][c] is formed, and the
tests multiply the classes' pairs and build no class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .cohomology import CohClass, CohomologyRing
from .dga import DGA, Cochain
from .linalg import Subspace
from .linalg import kernel  # noqa: F401  bench/tests/test_bench_trace.py reads massey.kernel


# the obstructions a basis triple within the truncation can meet, in the
# order massey_triple tests them
OBSTRUCTIONS = ("alpha*beta is nonzero", "beta*gamma is nonzero")


@dataclass(frozen=True)
class MasseyCoset:
    """A triple <alpha, beta, gamma> as the report prints it: its value when
    defined, else the obstruction.  ``==`` compares these records, not
    ``ring``, off which ``indeterminacy`` and ``canonical`` are computed on
    first read.  The witnesses behind the value are the ring's homotopy
    h; a defined triple whose target degree has dim H = 0 has the zero
    class as its value and solves none."""

    alpha: CohClass
    beta: CohClass
    gamma: CohClass
    defined: bool
    obstruction: Optional[str]
    value: Optional[CohClass]
    ring: Optional[CohomologyRing] = field(default=None, repr=False, compare=False)

    @property
    def target_degree(self) -> int:
        return self.alpha.degree + self.beta.degree + self.gamma.degree - 1

    @cached_property
    def indeterminacy(self) -> Optional[Subspace]:
        if not self.defined:
            return None
        return self.ring.indeterminacy(self.alpha, self.gamma, self.beta.degree)

    @cached_property
    def canonical(self) -> Optional[CohClass]:
        """The value reduced modulo the indeterminacy."""
        if not self.defined:
            return None
        value = self.value
        return CohClass(value.degree, value.dim, self.indeterminacy.reduce_pairs(value.pairs))

    def is_nonzero(self) -> bool:
        return self.defined and not self.value.is_zero() and not self.canonical.is_zero()


def massey_triple(ring: CohomologyRing, alpha: CohClass, beta: CohClass,
                  gamma: CohClass) -> MasseyCoset:
    p, q, r = alpha.degree, beta.degree, gamma.degree
    if min(p, q, r) < 1:
        raise ValueError("Massey products need positive-degree classes")
    target = p + q + r - 1
    if target > ring.truncation:
        return MasseyCoset(alpha, beta, gamma, False,
                           f"target degree {target} exceeds truncation {ring.truncation}", None)
    # every degree is at least 1, so p + q and q + r are at most the target
    if ring._cup_nonzero(p, alpha.pairs, q, beta.pairs):
        return MasseyCoset(alpha, beta, gamma, False, OBSTRUCTIONS[0], None)
    if ring._cup_nonzero(q, beta.pairs, r, gamma.pairs):
        return MasseyCoset(alpha, beta, gamma, False, OBSTRUCTIONS[1], None)

    if not ring.dim(target):  # the value lies in H^target = 0: no witness is solved
        return MasseyCoset(alpha, beta, gamma, True, None, CohClass(target, 0, ()), ring)
    mu, lam = ring.homotopy(alpha, beta), ring.homotopy(beta, gamma)
    w = _value(ring.dga, ring.representative(alpha), mu, lam, ring.representative(gamma))
    return MasseyCoset(alpha, beta, gamma, True, None, ring.class_of(w), ring)


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


def scan_triples(ring: CohomologyRing, max_degree: int = None, *,
                 undefined: dict = None) -> list:
    """The defined Massey triples of basis classes (a, b, c) with target
    degree within bounds, as cosets, in ascending (|a|, |b|, |c|, a, b, c)
    order.

    Mirrored triples (<c,b,a> versus <a,b,c>) agree up to sign, so only the
    lexicographically smaller orientation, (|a|, a) <= (|c|, c), is
    computed.  The scan walks the cup table: b runs over the classes with
    a*b = 0 and c over those with b*c = 0.  The undefined triples are not
    built: the same walk adds each to its obstruction's count in
    ``undefined``, a dict keyed by :data:`OBSTRUCTIONS`, when one is given;
    an a*b != 0 entry counts the whole run of c at once.
    """
    if undefined is None:
        undefined = dict.fromkeys(OBSTRUCTIONS, 0)
    cap = ring.truncation if max_degree is None else min(max_degree, ring.truncation)
    cup, (ab, bc) = ring.cup_basis, OBSTRUCTIONS
    basis = {}  # degree -> its basis classes, each built once
    for c in ring.positive_basis():
        basis.setdefault(c.degree, []).append(c)
    out = []
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
                                out.append(massey_triple(ring, a, b, rs[k]))
    return out
