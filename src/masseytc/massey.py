"""Triple Massey products with explicit witnesses and indeterminacy.

For classes [a], [b], [c] with [a][b] = [b][c] = 0 the product <a,b,c> is
the coset of

    w = a*lam + (-1)^(|a|+1) mu*c ,   d mu = a*b,  d lam = b*c

modulo |a| H^(|b|+|c|-1) + H^(|a|+|b|-1) |c|.  Witness cochains come from
the deterministic solver, so equal inputs always produce identical
witnesses and the coset gets a canonical representative: the value reduced
modulo the indeterminacy subspace.  The product is nonzero (as a coset)
exactly when that canonical representative is nonzero.

Truncation honesty: when a required product or the target degree falls
outside the truncation window the triple is reported as undefined with an
explicit obstruction string instead of silently computing garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cohomology import CohClass, CohomologyRing, KunnethMap
from .dga import Cochain, tensor_cochain
from .linalg import Subspace, kernel, SparseMatrix


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
    ab, ab_trunc = ring.cup_checked(alpha, beta)
    bc, bc_trunc = ring.cup_checked(beta, gamma)
    if ab_trunc or bc_trunc:
        return _undefined(alpha, beta, gamma,
                          "a defining product is not visible within the truncation")
    if not ab.is_zero():
        return _undefined(alpha, beta, gamma, "alpha*beta is nonzero")
    if not bc.is_zero():
        return _undefined(alpha, beta, gamma, "beta*gamma is nonzero")

    dga = ring.dga
    a = ring.representative(alpha)
    b = ring.representative(beta)
    c = ring.representative(gamma)
    mu_coords = ring.solve_boundary(p + q - 1, dga.mul(a, b).coords)
    lam_coords = ring.solve_boundary(q + r - 1, dga.mul(b, c).coords)
    if mu_coords is None or lam_coords is None:
        raise ValueError("boundary witness missing although the class product vanishes")
    mu = Cochain(p + q - 1, mu_coords)
    lam = Cochain(q + r - 1, lam_coords)
    sign = 1 if (p + 1) % 2 == 0 else -1
    w = dga.mul(a, lam).add(dga.mul(mu, c).scale(sign))
    if not dga.d(w).is_zero():
        raise ValueError("Massey value failed to be a cocycle; broken tables?")
    value = ring.class_of(w)
    indet = massey_indeterminacy(ring, alpha, gamma, q)
    canonical = CohClass(target, indet.reduce(value.coords))
    return MasseyCoset(alpha, beta, gamma, True, None, mu, lam, w,
                       value, indet, canonical)


def massey_indeterminacy(ring: CohomologyRing, alpha: CohClass,
                         gamma: CohClass, q: int) -> Subspace:
    """alpha * H^(q+r-1) + H^(p+q-1) * gamma inside the target degree."""
    p, r = alpha.degree, gamma.degree
    left = ring.product_span(
        p, Subspace.span(ring.dim(p), [alpha.coords]), q + r - 1)
    right = ring.product_span(
        p + q - 1, Subspace.full(ring.dim(p + q - 1)), r,
        Subspace.span(ring.dim(r), [gamma.coords]))
    return left.add(right)


def massey_value_from_witnesses(ring: CohomologyRing, alpha: CohClass,
                                beta: CohClass, gamma: CohClass,
                                mu: Cochain, lam: Cochain):
    """Value cochain and class for caller-supplied witnesses.

    The witness equations d mu = a*b and d lam = b*c are verified exactly;
    use this to probe how the coset moves under witness changes.
    """
    dga = ring.dga
    a = ring.representative(alpha)
    b = ring.representative(beta)
    c = ring.representative(gamma)
    if dga.d(mu) != dga.mul(a, b):
        raise ValueError("d mu != a*b")
    if dga.d(lam) != dga.mul(b, c):
        raise ValueError("d lam != b*c")
    sign = 1 if (alpha.degree + 1) % 2 == 0 else -1
    w = dga.mul(a, lam).add(dga.mul(mu, c).scale(sign))
    return w, ring.class_of(w)


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
    ab = dga.mul(a, b)
    bc = dga.mul(b, c)
    mu_coords = ring.solve_boundary(ab.degree - 1, ab.coords)
    lam_coords = ring.solve_boundary(bc.degree - 1, bc.coords)
    if mu_coords is None or lam_coords is None:
        raise ValueError("a defining product is not a coboundary")
    mu = Cochain(ab.degree - 1, mu_coords)
    lam = Cochain(bc.degree - 1, lam_coords)
    sign = 1 if (a.degree + 1) % 2 == 0 else -1
    w = dga.mul(a, lam).add(dga.mul(mu, c).scale(sign))
    return w, ring.class_of(w)


def left_annihilator(ring: CohomologyRing, k: int, cls: CohClass) -> Subspace:
    """Classes xi in H^k with xi * cls = 0 (kernel of cup on the right)."""
    cols = [ring.cup(ring.basis_class(k, i), cls).coords
            for i in range(ring.dim(k))]
    return kernel(SparseMatrix.from_columns(ring.dim(k + cls.degree), cols))


def right_annihilator(ring: CohomologyRing, k: int, cls: CohClass) -> Subspace:
    cols = [ring.cup(cls, ring.basis_class(k, i)).coords
            for i in range(ring.dim(k))]
    return kernel(SparseMatrix.from_columns(ring.dim(k + cls.degree), cols))


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


# ------------------------------------------------------- identity checking


def verify_multi_identities(ring: CohomologyRing, alpha: CohClass,
                            beta: CohClass, gamma: CohClass, rng) -> dict:
    """Exact identities every triple product must satisfy, as a report.

    Needs a defined instance.  Each entry is True when the identity held
    exactly; scalar moves use random nonzero rationals, the additive moves
    sample perturbations from annihilator subspaces so that the perturbed
    triples stay defined, and the witness shifts confirm that moving mu or
    lam by a cocycle moves the value inside the indeterminacy.
    """
    base = massey_triple(ring, alpha, beta, gamma)
    if not base.defined:
        raise ValueError(f"need a defined product: {base.obstruction}")
    p, q, r = alpha.degree, beta.degree, gamma.degree
    report = {}

    def nonzero_scalar():
        s = 0
        while s == 0:
            s = rng.randint(-4, 4)
        return s

    s = nonzero_scalar()
    left = massey_triple(ring, alpha.scale(s), beta, gamma)
    mid = massey_triple(ring, alpha, beta.scale(s), gamma)
    right = massey_triple(ring, alpha, beta, gamma.scale(s))
    report["scalar-left"] = (left.defined and left.value == base.value.scale(s)
                             and left.canonical == base.canonical.scale(s))
    report["scalar-middle"] = mid.defined and mid.value == base.value.scale(s)
    report["scalar-right"] = (right.defined and right.value == base.value.scale(s)
                              and right.canonical == base.canonical.scale(s))

    def random_in(sub: Subspace, degree: int) -> CohClass:
        coords = [0] * sub.ambient
        for v in sub.basis_vectors():
            c = rng.randint(-3, 3)
            if c:
                coords = [x + c * y for x, y in zip(coords, v)]
        return CohClass(degree, tuple(coords))

    prime = random_in(left_annihilator(ring, p, beta), p)
    base2 = massey_triple(ring, prime, beta, gamma)
    summed = massey_triple(ring, alpha.add(prime), beta, gamma)
    report["additive-left"] = (
        base2.defined and summed.defined
        and summed.value_cochain == base.value_cochain.add(base2.value_cochain)
        and summed.value == base.value.add(base2.value))

    gprime = random_in(right_annihilator(ring, r, beta), r)
    base3 = massey_triple(ring, alpha, beta, gprime)
    summed = massey_triple(ring, alpha, beta, gamma.add(gprime))
    report["additive-right"] = (
        base3.defined and summed.defined
        and summed.value == base.value.add(base3.value))

    dga = ring.dga
    sign = 1 if (p + 1) % 2 == 0 else -1
    xi_cls = random_in(Subspace.full(ring.dim(p + q - 1)), p + q - 1)
    xi = ring.representative(xi_cls)
    if p + q - 2 >= 0 and dga.dim(p + q - 2):
        pre = dga.cochain(p + q - 2,
                          [rng.randint(-2, 2) for _ in range(dga.dim(p + q - 2))])
        xi = xi.add(dga.d(pre))
    w2, val2 = massey_value_from_witnesses(ring, alpha, beta, gamma,
                                           base.mu.add(xi), base.lam)
    c_rep = ring.representative(gamma)
    shift_ok = w2.sub(base.value_cochain) == dga.mul(xi, c_rep).scale(sign)
    report["mu-shift"] = (
        shift_ok
        and base.indeterminacy.contains(val2.sub(base.value).coords)
        and base.indeterminacy.reduce(val2.coords) == base.canonical.coords)

    eta_cls = random_in(Subspace.full(ring.dim(q + r - 1)), q + r - 1)
    eta = ring.representative(eta_cls)
    w3, val3 = massey_value_from_witnesses(ring, alpha, beta, gamma,
                                           base.mu, base.lam.add(eta))
    a_rep = ring.representative(alpha)
    report["lam-shift"] = (
        w3.sub(base.value_cochain) == dga.mul(a_rep, eta)
        and base.indeterminacy.contains(val3.sub(base.value).coords)
        and base.indeterminacy.reduce(val3.coords) == base.canonical.coords)
    return report


def verify_internal_product(ring: CohomologyRing, alpha: CohClass,
                            beta: CohClass, gamma: CohClass,
                            ap: CohClass, bp: CohClass, cp: CohClass) -> dict:
    """Entrywise cup multiplication of a defined triple, as instance checks.

    For a defined <alpha, beta, gamma> and arbitrary classes ap, bp, cp
    whose degrees keep the bigger product inside the truncation, the triple
    of the products must stay defined, the old value times ap*bp*cp must
    land in the bigger coset up to an overall sign, and the old
    indeterminacy times ap*bp*cp must land in the bigger indeterminacy.
    """
    base = massey_triple(ring, alpha, beta, gamma)
    if not base.defined:
        raise ValueError(f"need a defined product: {base.obstruction}")
    big = massey_triple(ring, ring.cup(alpha, ap), ring.cup(beta, bp),
                        ring.cup(gamma, cp))
    report = {"defined": big.defined}
    if not big.defined:
        return report
    extra = ring.cup(ap, ring.cup(bp, cp))
    lhs = ring.cup(base.value, extra)
    ind = big.indeterminacy
    report["value-match"] = (ind.contains(lhs.sub(big.value).coords)
                             or ind.contains(lhs.add(big.value).coords))
    moved = ring.product_span(
        base.target_degree, base.indeterminacy, extra.degree,
        Subspace.span(ring.dim(extra.degree), [extra.coords]))
    report["indeterminacy-carried"] = ind.contains_subspace(moved)
    return report


def verify_external_product(kmap: KunnethMap, a1: CohClass, b1: CohClass,
                            c1: CohClass, a2: CohClass, b2: CohClass,
                            c2: CohClass) -> dict:
    """Cross products of a defined triple with arbitrary second-factor
    classes, as instance checks.

    The crossed triple must stay defined, value x (a2*b2*c2) must land in
    its coset up to an overall sign, and the crossed indeterminacy must be
    carried into the bigger one.
    """
    base = massey_triple(kmap.ha, a1, b1, c1)
    if not base.defined:
        raise ValueError(f"need a defined product: {base.obstruction}")
    big = massey_triple(kmap.ht, kmap.cross(a1, a2), kmap.cross(b1, b2),
                        kmap.cross(c1, c2))
    report = {"defined": big.defined}
    if not big.defined:
        return report
    prod2 = kmap.hb.cup(a2, kmap.hb.cup(b2, c2))
    lhs = kmap.cross(base.value, prod2)
    ind = big.indeterminacy
    report["value-match"] = (ind.contains(lhs.sub(big.value).coords)
                             or ind.contains(lhs.add(big.value).coords))
    crossed = [kmap.cross(CohClass(base.target_degree, tuple(v)), prod2).coords
               for v in base.indeterminacy.basis_vectors()]
    moved = Subspace.span(kmap.ht.dim(big.target_degree), crossed)
    report["indeterminacy-carried"] = ind.contains_subspace(moved)
    return report


# --------------------------------------------------- external vanishing


@dataclass(frozen=True)
class ExternalWitness:
    """Explicit primitive certifying that a cross-product triple vanishes."""

    x: Cochain
    y: Cochain
    z: Cochain
    mu: Cochain
    lam: Cochain
    value_cochain: Cochain
    primitive: Cochain
    coset: MasseyCoset


def verify_external_vanishing(kmap: KunnethMap,
                              a1: CohClass, b1: CohClass, c1: CohClass,
                              a2: CohClass, b2: CohClass, c2: CohClass) -> ExternalWitness:
    """Certify <a1 x a2, b1 x b2, c1 x c2> contains zero in the tensor ring.

    Hypotheses: a1*b1 = 0 on the left factor and b2*c2 = 0 on the right
    factor; anything else is refused.  The certificate is a primitive whose
    differential equals the value cochain built from explicit witnesses

        mu  = mu' (x) (a2*b2)   with d mu'  = (-1)^(|b1||a2|) a1*b1,
        lam = (b1*c1) (x) lam'  with d lam' = (-1)^h b2*c2,
        h = |c1| (|b2| - 1) - |b1|,

    every equation being checked degreewise at cochain level, so a wrong
    sign anywhere fails loudly instead of producing a wrong certificate.
    """
    ha, hb, ht = kmap.ha, kmap.hb, kmap.ht
    if not ha.cup(a1, b1).is_zero():
        raise ValueError("hypothesis fails: a1*b1 != 0 on the left factor")
    if not hb.cup(b2, c2).is_zero():
        raise ValueError("hypothesis fails: b2*c2 != 0 on the right factor")

    da, db, dt = ha.dga, hb.dga, ht.dga
    ra1, rb1, rc1 = (ha.representative(v) for v in (a1, b1, c1))
    ra2, rb2, rc2 = (hb.representative(v) for v in (a2, b2, c2))
    sgn_mu = -1 if (rb1.degree * ra2.degree) % 2 else 1
    h = rc1.degree * (rb2.degree - 1) - rb1.degree
    sgn_lam = -1 if h % 2 else 1

    def boundary_witness(ring: CohomologyRing, rhs: Cochain) -> Cochain:
        if rhs.degree - 1 > ring.truncation:
            return Cochain(rhs.degree - 1, ())  # everything is zero up here
        coords = ring.solve_boundary(rhs.degree - 1, rhs.coords)
        if coords is None:
            raise ValueError("witness solve failed although the hypothesis held")
        return Cochain(rhs.degree - 1, coords)

    mu1 = boundary_witness(ha, da.mul(ra1, rb1).scale(sgn_mu))
    lam2 = boundary_witness(hb, db.mul(rb2, rc2).scale(sgn_lam))

    x = tensor_cochain(dt, ra1, ra2)
    y = tensor_cochain(dt, rb1, rb2)
    z = tensor_cochain(dt, rc1, rc2)
    mu = tensor_cochain(dt, mu1, db.mul(ra2, rb2))
    lam = tensor_cochain(dt, da.mul(rb1, rc1), lam2)
    if dt.d(mu) != dt.mul(x, y):
        raise ValueError("external witness failed: d mu != x*y")
    if dt.d(lam) != dt.mul(y, z):
        raise ValueError("external witness failed: d lam != y*z")

    sign = 1 if (x.degree + 1) % 2 == 0 else -1
    w = dt.mul(x, lam).add(dt.mul(mu, z).scale(sign))
    sgn_phi = -1 if (rc1.degree * ra2.degree) % 2 else 1
    primitive = tensor_cochain(
        dt, da.mul(mu1, rc1), db.mul(ra2, lam2)).scale(sgn_phi)
    if dt.d(primitive) != w:
        raise ValueError("external witness failed: d(primitive) != value")

    coset = massey_triple(ht, kmap.cross(a1, a2), kmap.cross(b1, b2),
                          kmap.cross(c1, c2))
    if coset.defined and not coset.contains_zero():
        raise ValueError("explicit primitive contradicts the generic coset")
    return ExternalWitness(x, y, z, mu, lam, w, primitive, coset)
