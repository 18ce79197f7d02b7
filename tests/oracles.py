"""Reference implementations that only the tests call.

The engine in ``src/`` keeps what its commands, ledger replay and the
benchmark call.  The checks below verify its constructions on instances
and are kept here, next to the tests that use them:

* exact-vector and matrix constructors (``vec``, ``from_dict``,
  ``from_rows``, ``from_columns``) and the registry names of the built-in
  models;
* ``print_model``, the printer of the model text format, which the parser
  round-trip tests read back;
* ``tensor_cochain`` and ``check_kunneth``, the cochain-level check that
  each canonical class of a square is a cross product of canonical
  representatives and that cochain products follow the Koszul rule;
* the Massey identity checks (``verify_multi_identities``, the internal and
  external product checks), witness-level values
  (``massey_value_from_witnesses``), the annihilators the identity checks
  sample from, and ``verify_external_vanishing``, the explicit primitive
  certifying that a cross-product triple contains zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from masseytc.cohomology import CohClass, CohomologyRing, KunnethMap
from masseytc.dga import DGA, Cochain, Presentation
from masseytc.linalg import ONE, ZERO, SparseMatrix, Subspace, Vector, kernel, zero_vec
from masseytc.massey import MasseyCoset, massey_triple
from masseytc.models import MODEL_SOURCES


# ------------------------------------------------------------ linear algebra


def exact(x):
    """The rational x by the engine's scalar rule, written out apart from
    it: an int when integral, else a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def vec(values: Iterable) -> Vector:
    """Coerce an iterable of numbers into an exact rational vector."""
    return tuple(exact(x) for x in values)


def from_dict(rows: int, cols: int, data: Mapping) -> SparseMatrix:
    """The rows x cols matrix with entry ``data[(r, c)]`` at (r, c); absent
    keys and zero values are zero."""
    columns = [[] for _ in range(cols)]
    for (r, c), v in sorted(data.items()):
        if v:
            columns[c].append((r, exact(v)))
    return SparseMatrix(rows, cols, tuple(map(tuple, columns)))


def from_rows(rows_data: Sequence[Sequence]) -> SparseMatrix:
    nrows = len(rows_data)
    ncols = len(rows_data[0]) if rows_data else 0
    data = {}
    for r, row in enumerate(rows_data):
        if len(row) != ncols:
            raise ValueError("ragged rows")
        for c, x in enumerate(row):
            if x:
                data[(r, c)] = exact(x)
    return from_dict(nrows, ncols, data)


def from_columns(rows: int, columns: Sequence[Vector]) -> SparseMatrix:
    data = {}
    for c, col in enumerate(columns):
        if len(col) != rows:
            raise ValueError(f"column {c} has length {len(col)}, expected {rows}")
        for r, x in enumerate(col):
            if x:
                data[(r, c)] = exact(x)
    return from_dict(rows, len(columns), data)


# ------------------------------------------------------------ models and text


def model_names() -> list:
    return sorted(MODEL_SOURCES)


def _poly_to_dsl(poly, names) -> str:
    if not poly:
        return "0"
    parts = []
    for mono in sorted(poly, reverse=True):
        c = poly[mono]
        factors = []
        for nm, e in zip(names, mono):
            factors.extend([nm] * e)
        body = "*".join(factors)
        mag = abs(c)
        if body and mag == 1:
            piece = body
        elif body:
            piece = f"{mag}*{body}"
        else:
            piece = str(mag)
        if not parts:
            parts.append(piece if c > 0 else f"-{piece}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {piece}")
    return " ".join(parts)


def print_model(p: Presentation) -> str:
    """Render a presentation back to the text format (round-trips)."""
    names = [g.name for g in p.canonical_generators()]
    lines = [f"algebra {p.name} {{"]
    lines.append("  field Q")
    lines.append(f"  truncate {p.truncation}")
    lines.append(f"  space-dim {p.space_dim}")
    lines.append(f"  simply-connected {'true' if p.simply_connected else 'false'}")
    for g in p.generators:
        lines.append(f"  generator {g.name} degree {g.degree}")
    for g in p.generators:
        poly = p.differentials.get(g.name)
        if poly:
            lines.append(f"  d {g.name} = {_poly_to_dsl(poly, names)}")
    for aname, poly in p.aliases:
        lines.append(f"  alias {aname} = {_poly_to_dsl(poly, names)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------- cochains and Kunneth


def tensor_cochain(t: DGA, x: Cochain, y: Cochain) -> Cochain:
    """The pure tensor x (x) y as a cochain of the tensor model ``t``."""
    if t.pairs is None:
        raise ValueError("not a tensor model")
    k = x.degree + y.degree
    return Cochain(k, t.dim(k), t.pairs.cross(x.degree, x.pairs, y.degree, y.pairs))


def zero_class(ring: CohomologyRing, k: int) -> CohClass:
    return CohClass.from_coords(k, zero_vec(ring.dim(k)))


def is_canonical(cls: CohClass) -> bool:
    """Whether a class's stored pairs are canonical: indices strictly
    increasing below ``cls.dim``, each coefficient a nonzero rational in
    the engine's scalar form."""
    last = -1
    for i, c in cls.pairs:
        if not (type(i) is int and last < i < cls.dim) or not c or exact(c) != c \
                or type(exact(c)) is not type(c):
            return False
        last = i
    return True


def dense_scale(coords: Vector, c) -> Vector:
    """c times a dense coordinate vector, entry by entry."""
    return tuple(exact(c * x) for x in coords)


def dense_add(a: Vector, b: Vector) -> Vector:
    """The entrywise sum of two dense coordinate vectors of one length."""
    return tuple(exact(x + y) for x, y in zip(a, b, strict=True))


def span_of_products(ring: CohomologyRing, k1: int, sub1: Subspace, k2: int,
                     sub2: Subspace) -> Subspace:
    """Span of the products (subspace of H^k1) * (subspace of H^k2) in
    H^(k1+k2), one cup per pair of basis vectors."""
    return Subspace._spanned(ring.dim(k1 + k2), [
        ring.cup(CohClass(k1, sub1.ambient, a), CohClass(k2, sub2.ambient, b)).pairs
        for a in sub1.nonzero_columns for b in sub2.nonzero_columns])


def check_kunneth(kmap: KunnethMap) -> None:
    """Raise unless each canonical class of the square is represented by
    r_i (x) s_j, and the cochain products of these follow the Koszul
    rule, written here on its own, and agree with the table products.

    This eliminates every degree of the square."""
    ht, t = kmap.ht, kmap.ht.dga
    crosses = []  # per degree, (r_i (x) s_j, r_i, s_j) for each pair
    for deg in range(ht.truncation + 1):
        reps = ht.part(deg).reps.basis_vectors()
        if len(reps) != len(kmap.pairs[deg]):
            raise ValueError(
                f"Kunneth dimension mismatch in degree {deg}: "
                f"{len(kmap.pairs[deg])} products vs H^{deg} of dimension {len(reps)}")
        crosses.append([(Cochain.from_coords(deg, rep), kmap.ha.representative(kmap.ha.basis_class(p, i)),
                         kmap.hb.representative(kmap.hb.basis_class(deg - p, j)))
                        for rep, (p, i, j) in zip(reps, kmap.pairs[deg])])
        for pair, (xy, x, y) in zip(kmap.pairs[deg], crosses[deg]):
            if tensor_cochain(t, x, y) != xy:
                raise ValueError(f"class {pair} of the square is not "
                                 "represented by the cross product")
    for k1 in range(ht.truncation + 1):
        for k2 in range(ht.truncation + 1 - k1):
            n = ht.dim(k1 + k2)
            if not n:
                continue
            for i1, (xy1, x1, y1) in enumerate(crosses[k1]):
                for i2, (xy2, x2, y2) in enumerate(crosses[k2]):
                    # (x1 (x) y1)(x2 (x) y2) = (-1)^{|y1||x2|} x1 x2 (x) y1 y2
                    sign = -1 if y1.degree * x2.degree % 2 else 1
                    prod = t.mul(xy1, xy2)
                    table = [ZERO] * n
                    for idx, v in ht.cup_basis(k1, i1, k2, i2):
                        table[idx] = v
                    if prod != tensor_cochain(t, kmap.ha.dga.mul(x1, x2).scale(sign),
                                              kmap.hb.dga.mul(y1, y2)):
                        raise ValueError(f"cochain product breaks the Koszul sign "
                                         f"on ({k1},{i1}) * ({k2},{i2})")
                    if tuple(table) != ht.class_of(prod).coords:
                        raise ValueError(f"table product differs from the cochain "
                                         f"product on ({k1},{i1}) * ({k2},{i2})")


# ------------------------------------------------------- Massey witnesses


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


def left_annihilator(ring: CohomologyRing, k: int, cls: CohClass) -> Subspace:
    """Classes xi in H^k with xi * cls = 0 (kernel of cup on the right)."""
    data = {(idx, i): x for i in range(ring.dim(k))
            for idx, x in ring._cup_nonzero(k, [(i, ONE)], cls.degree, cls.pairs)}
    return kernel(from_dict(ring.dim(k + cls.degree), ring.dim(k), data))


def right_annihilator(ring: CohomologyRing, k: int, cls: CohClass) -> Subspace:
    data = {(idx, i): x for i in range(ring.dim(k))
            for idx, x in ring._cup_nonzero(cls.degree, cls.pairs, k, [(i, ONE)])}
    return kernel(from_dict(ring.dim(k + cls.degree), ring.dim(k), data))


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
        return CohClass.from_coords(degree, tuple(coords))

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
    moved = span_of_products(ring, base.target_degree, base.indeterminacy, extra.degree,
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
    crossed = [kmap.cross(CohClass.from_coords(base.target_degree, tuple(v)), prod2).coords
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
            return Cochain(rhs.degree - 1, 0, ())  # everything is zero up here
        witness = ring.solve_boundary(rhs)
        if witness is None:
            raise ValueError("witness solve failed although the hypothesis held")
        return witness

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


# ------------------------------------------------------------------ reports


def ring_table_all_pairs(ring: CohomologyRing, classes: dict) -> list:
    """The ring table of ``report.cohomology_section`` with every ordered
    pair of named classes multiplied, the mirrored pairs included."""
    table = []
    for left in sorted(classes):
        for right in sorted(classes):
            prod, truncated = ring.cup_checked(classes[left], classes[right])
            table.append({
                "left": left,
                "right": right,
                "degree": classes[left].degree + classes[right].degree,
                "value": None if truncated else [prod.degree, [str(c) for c in prod.coords]],
                "truncated": truncated,
            })
    return table
