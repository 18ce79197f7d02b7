"""Exact linear algebra: frozen examples plus randomized cross-checks.

The independent oracle for ranks/kernels/solvability is sympy's exact
rational Matrix routines; the implementation under test never imports sympy.
A second oracle is the row reduction that ``linalg`` used before every
elimination went through ``_echelon_columns``: kernel bases, ranks and
canonical solutions must agree with it exactly.
"""

import random
from fractions import Fraction

import pytest
import sympy

from masseytc import linalg
from masseytc.linalg import (
    ONE,
    ZERO,
    PrefactoredSolver,
    SparseMatrix,
    Subspace,
    image,
    kernel,
    rank,
    solve,
)
from oracles import (
    basis_vectors,
    contains,
    contains_subspace,
    exact,
    from_columns,
    from_dict,
    from_rows,
    span,
    vec,
)


def pairs(v):
    """The nonzero (index, value) pairs of a dense vector, the form the
    sparse entry points read."""
    return tuple((i, exact(x)) for i, x in enumerate(v) if x)


def dense(n, p):
    """The dense vector of length n with the pairs p; None stays None."""
    if p is None:
        return None
    out = [ZERO] * n
    for i, x in p:
        out[i] = x
    return tuple(out)


def apply(a: SparseMatrix, x):
    """``a.apply`` on a dense vector."""
    return dense(a.rows, a.apply(pairs(x)))


def solved(solver: PrefactoredSolver, cols: int, b):
    """``solver.solve`` on a dense right-hand side, for a matrix with
    ``cols`` columns."""
    return dense(cols, solver.solve(pairs(b)))


def coordinates(s: Subspace, v):
    """``s.coordinates_of`` on a dense vector."""
    return dense(s.dim, s.coordinates_of(pairs(v)))


def vec_add(u, v):
    assert len(u) == len(v)
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v):
    c = Fraction(c)
    return tuple(c * a for a in v)


def is_zero_vec(v):
    return not any(v)


def to_sympy(a: SparseMatrix) -> sympy.Matrix:
    m = sympy.zeros(a.rows, a.cols)
    for c, col in enumerate(a.nonzero_columns):
        for r, v in col:
            m[r, c] = sympy.Rational(v.numerator, v.denominator)
    return m


def random_matrix(rng: random.Random, rows: int, cols: int) -> SparseMatrix:
    data = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.45:
                num = rng.randint(-4, 4)
                den = rng.choice([1, 1, 1, 2, 3])
                if num:
                    data[(r, c)] = Fraction(num, den)
    return from_dict(rows, cols, data)


# ---------------------------------------------------------------- solve


def test_solve_identity():
    a = SparseMatrix.identity(2)
    assert solve(a, vec([5, -7])) == vec([5, -7])


def test_solve_scalar_equation():
    a = from_rows([[2]])
    assert solve(a, vec([3])) == (Fraction(3, 2),)


def test_solve_inconsistent():
    a = from_rows([[1, 0], [1, 0]])
    assert solve(a, vec([1, 2])) is None


def test_solve_free_variables_are_zero():
    # x + y = 1 has the canonical solution (1, 0)
    a = from_rows([[1, 1]])
    assert solve(a, vec([1])) == vec([1, 0])


def test_solve_dimension_mismatch():
    a = SparseMatrix.identity(2)
    with pytest.raises(ValueError):
        solve(a, vec([1, 2, 3]))


def test_prefactored_solver_matches_solve():
    rng = random.Random(202)
    agreements = nones = 0
    for _ in range(80):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        a = random_matrix(rng, rows, cols)
        solver = PrefactoredSolver(a)
        for _ in range(4):
            b = vec([rng.randint(-3, 3) for _ in range(rows)])
            expect = solve(a, b)
            got = solved(solver, cols, b)
            assert got == expect
            if expect is None:
                nones += 1
            else:
                agreements += 1
                assert apply(a, got) == b
    assert agreements > 40 and nones > 20
    with pytest.raises(ValueError):
        PrefactoredSolver(SparseMatrix.identity(2)).solve(((2, 3),))


@pytest.mark.parametrize("index", [2, -1])
def test_sparse_entry_points_refuse_an_index_outside_their_dimension(index):
    # the pairs are sorted, so the first and last index decide
    a = SparseMatrix.identity(2)
    for run in (lambda x: a.apply(x), lambda x: Subspace.full(2).reduce_pairs(x),
                lambda x: Subspace.zero(2).coordinates_of(x),
                lambda x: PrefactoredSolver(a).solve(x)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            run(((index, 1),) if index < 0 else ((0, 1), (index, 1)))


def test_solve_randomized_against_sympy():
    rng = random.Random(101)
    consistent_seen = inconsistent_seen = 0
    for _ in range(120):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        a = random_matrix(rng, rows, cols)
        b = vec([rng.randint(-3, 3) for _ in range(rows)])
        x = solve(a, b)
        sm = to_sympy(a)
        sb = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in b])
        sol = list(sympy.linsolve((sm, sb)))
        if x is None:
            assert sol == [], "oracle found a solution we missed"
            inconsistent_seen += 1
        else:
            assert sol != [], "we produced a solution for an inconsistent system"
            assert apply(a, x) == b
            consistent_seen += 1
    assert consistent_seen > 10 and inconsistent_seen > 10


# ---------------------------------------------------------------- kernel / image


def test_kernel_of_zero_map_is_everything():
    a = SparseMatrix.zero(3, 3)
    assert kernel(a).dim == 3


def test_kernel_single_row():
    a = from_rows([[1, 1]])
    k = kernel(a)
    assert k.dim == 1
    assert basis_vectors(k) == [vec([1, -1])]


def test_image_spans_columns():
    a = from_rows([[1, 2], [0, 0]])
    im = image(a)
    assert im.dim == 1
    assert contains(im, vec([3, 0]))
    assert not contains(im, vec([0, 1]))


def test_rank_nullity_randomized():
    rng = random.Random(202)
    for _ in range(120):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        a = random_matrix(rng, rows, cols)
        k = kernel(a)
        im = image(a)
        assert k.dim + im.dim == cols == k.dim + rank(a)
        assert im.dim == to_sympy(a).rank()
        for col in basis_vectors(k):
            assert is_zero_vec(apply(a, col))
        # sympy nullspace spans the same space
        null = to_sympy(a).nullspace()
        assert len(null) == k.dim
        for v in null:
            w = vec([Fraction(int(x.p), int(x.q)) for x in v])
            assert contains(k, w)


# ---------------------------------------------------------------- subspaces


def test_span_is_canonical_under_generator_shuffling():
    rng = random.Random(303)
    for _ in range(100):
        ambient = rng.randint(1, 6)
        gens = [vec([rng.randint(-3, 3) for _ in range(ambient)]) for _ in range(rng.randint(0, 5))]
        s1 = span(ambient, gens)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        # also throw in random combinations of the generators
        if gens:
            combo = (ZERO,) * ambient
            for g in gens:
                combo = vec_add(combo, vec_scale(rng.randint(-2, 2), g))
            shuffled.append(combo)
        s2 = span(ambient, shuffled)
        assert s1 == s2


def test_subspace_pivots_strictly_increase():
    rng = random.Random(404)
    for _ in range(100):
        ambient = rng.randint(1, 6)
        gens = [vec([rng.randint(-3, 3) for _ in range(ambient)]) for _ in range(rng.randint(0, 5))]
        s = span(ambient, gens)
        assert list(s.pivots) == sorted(set(s.pivots))
        cols = basis_vectors(s)
        for col, p in zip(cols, s.pivots):
            assert col[p] == 1
            assert not any(col[:p])
            # pivot rows vanish in the other columns
            for other in cols:
                if other is not col:
                    assert other[p] == 0


def test_sum_of_axes():
    e1 = span(2, [vec([1, 0])])
    e2 = span(2, [vec([0, 1])])
    assert e1.add(e2) == Subspace.full(2)
    assert e1.add(Subspace.zero(2)) == e1


def test_membership_basics():
    s = span(2, [vec([1, -1])])
    assert contains(s, (ZERO,) * 2)
    assert contains(s, vec([2, -2]))
    assert not contains(s, vec([1, 1]))


def test_reduce_is_idempotent_and_translation_invariant():
    rng = random.Random(505)
    for _ in range(120):
        ambient = rng.randint(1, 6)
        gens = [vec([rng.randint(-3, 3) for _ in range(ambient)]) for _ in range(rng.randint(0, 4))]
        s = span(ambient, gens)
        v = vec([rng.randint(-4, 4) for _ in range(ambient)])
        r = s.reduce(v)
        assert s.reduce(r) == r
        # adding any member does not change the canonical representative
        member = (ZERO,) * ambient
        for col in basis_vectors(s):
            member = vec_add(member, vec_scale(rng.randint(-3, 3), col))
        assert s.reduce(vec_add(v, member)) == r
        assert contains(s, v) == is_zero_vec(r)
        assert contains_subspace(s, s) and contains_subspace(s, span(ambient, [member]))
        assert contains_subspace(s, span(ambient, [member, v])) == contains(s, v)


def test_span_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="vector length 2 != ambient 3"):
        span(3, [vec([1, 2])])
    with pytest.raises(ValueError, match="vector length 4 != ambient 3"):
        span(3, [vec([1, 0, 0]), vec([0, 1, 0, 0])])


def test_span_of_nothing_or_zeros_is_the_zero_subspace():
    assert span(0, []) == Subspace.zero(0)
    assert span(0, [(), ()]) == Subspace.zero(0)
    assert span(4, []) == Subspace.zero(4)
    z = span(4, [(ZERO,) * 4] * 3)
    assert z == Subspace.zero(4)
    assert z.dim == 0 and basis_vectors(z) == [] and z.nonzero_columns == ()
    assert z.reduce(vec([1, 0, 2, 0])) == vec([1, 0, 2, 0])
    assert coordinates(z, (ZERO,) * 4) == ()
    assert coordinates(z, vec([0, 0, 0, 1])) is None


def _sparse_fraction_vector(rng, ambient, start=0):
    """A mostly-zero vector with fractional entries, zero before ``start``."""
    v = [Fraction(0)] * ambient
    for i in range(start, ambient):
        if rng.random() < 0.15:
            v[i] = Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.choice([1, 2, 3, 7]))
    return v


def _echelon_inputs(rng, ambient):
    """Vectors that reach every branch of the sparse echelon: zero vectors,
    duplicates, scalar multiples, combinations that reduce to exactly zero,
    and pairs u + t*w, w fed in that order with u's pivot before w's, so
    that back-substitution of w cancels all of t*w to exactly zero."""
    vectors = []
    for _ in range(rng.randint(0, ambient + 3)):
        kind = rng.random() if vectors else 0.0
        if kind < 0.4:
            vectors.append(_sparse_fraction_vector(rng, ambient))
        elif kind < 0.5:
            vectors.append([Fraction(0)] * ambient)
        elif kind < 0.6:
            vectors.append(list(rng.choice(vectors)))
        elif kind < 0.7:
            c = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([2, 3]))
            vectors.append([c * x for x in rng.choice(vectors)])
        elif kind < 0.85:
            combo = [Fraction(0)] * ambient
            for g in rng.sample(vectors, min(3, len(vectors))):
                c = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
                combo = [a + c * b for a, b in zip(combo, g)]
            vectors.append(combo)
        elif ambient >= 2:
            a = rng.randrange(ambient - 1)
            w = _sparse_fraction_vector(rng, ambient, a + 1)
            w[rng.randrange(a + 1, ambient)] = Fraction(rng.choice([1, -2]), 3)
            u = _sparse_fraction_vector(rng, ambient, a + 1)
            u[a] = Fraction(rng.choice([3, -1]), 2)
            t = Fraction(rng.choice([-7, 1, 4]), rng.choice([1, 3]))
            vectors.append([x + t * y for x, y in zip(u, w)])
            vectors.append(w)
    return [tuple(v) for v in vectors]


def _dense_reduce(cols, pivots, v):
    """Reduction of v against an echelon basis, coordinate by coordinate."""
    w = list(v)
    coeffs = []
    for col, p in zip(cols, pivots):
        c = w[p]
        coeffs.append(c)
        w = [x - c * y for x, y in zip(w, col)]
    return tuple(w), tuple(coeffs)


def test_sparse_echelon_against_sympy_rref():
    rng = random.Random(707)
    dependent = 0
    for trial in range(123):
        ambient = trial % 41
        vectors = _echelon_inputs(rng, ambient)
        s = span(ambient, vectors)
        m = sympy.zeros(len(vectors), ambient)
        for r, v in enumerate(vectors):
            for c, x in enumerate(v):
                m[r, c] = sympy.Rational(x.numerator, x.denominator)
        rref, pivots = m.rref()
        expect = [tuple(Fraction(int(x.p), int(x.q)) for x in rref.row(r))
                  for r in range(len(pivots))]
        assert basis_vectors(s) == expect
        assert s.pivots == tuple(pivots)
        assert s.nonzero_columns == tuple(
            tuple((i, x) for i, x in enumerate(col) if x) for col in expect)
        assert s == span(ambient, list(reversed(vectors)))
        dependent += len(vectors) > s.dim
        # probes: members of the span, then mostly-zero vectors
        for k in range(6):
            if k < 3:
                v = [Fraction(0)] * ambient
                for col in expect:
                    c = Fraction(rng.randint(-4, 4), rng.choice([1, 3]))
                    v = [a + c * b for a, b in zip(v, col)]
            else:
                v = _sparse_fraction_vector(rng, ambient)
            v = tuple(v)
            reduced, coeffs = _dense_reduce(expect, s.pivots, v)
            inside = not any(reduced)
            assert inside or k >= 3
            assert s.reduce(v) == reduced
            assert contains(s, v) == inside
            assert coordinates(s, v) == (coeffs if inside else None)
            member = tuple(a - b for a, b in zip(v, reduced))
            assert coordinates(s, member) == coeffs
    assert dependent > 80


def test_coordinates_roundtrip():
    s = span(3, [vec([1, 2, 0]), vec([0, 1, 1])])
    v = vec_add(vec_scale(2, basis_vectors(s)[0]), vec_scale(-3, basis_vectors(s)[1]))
    assert coordinates(s, v) == vec([2, -3])
    assert coordinates(s, vec([1, 0, 0])) is None


def test_matrix_compose_matches_apply():
    rng = random.Random(606)
    for _ in range(60):
        n, m, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, n, m)
        b = random_matrix(rng, m, k)
        ab = a.compose(b)
        x = vec([rng.randint(-3, 3) for _ in range(k)])
        assert apply(ab, x) == apply(a, apply(b, x))
        assert to_sympy(ab) == to_sympy(a) * to_sympy(b)


def test_sparse_matrix_holds_its_nonzero_columns():
    a = SparseMatrix(3, 2, (((0, ONE), (2, Fraction(-1, 2))), ()))
    assert [dense(a.rows, col) for col in a.nonzero_columns] == [
        vec([1, 0, Fraction(-1, 2)]), vec([0, 0, 0])]
    assert a == from_rows([[1, 0], [0, 0], [Fraction(-1, 2), 0]])
    assert apply(a, vec([2, 5])) == vec([2, 0, -1])
    assert not a.is_zero() and SparseMatrix.zero(3, 2).is_zero()


@pytest.mark.parametrize("columns, reason", [
    pytest.param((((0, ONE),),), "1 columns given for 2", id="wrong-column-count"),
    pytest.param((((2, ONE),), ()), r"entry \(2,0\) outside 2x2", id="row-past-the-end"),
    pytest.param(((), ((-1, ONE),)), r"entry \(-1,1\) outside 2x2", id="negative-row"),
    pytest.param((((0, ZERO),), ()), r"explicit zero stored at \(0,0\)", id="explicit-zero"),
    pytest.param(((), ((1, ONE), (0, ONE))), "rows of column 1 do not strictly increase",
                 id="decreasing-rows"),
    pytest.param(((), ((1, ONE), (1, ONE))), "rows of column 1 do not strictly increase",
                 id="repeated-row"),
])
def test_sparse_matrix_refuses_malformed_columns(columns, reason):
    with pytest.raises(ValueError, match=reason):
        SparseMatrix(2, 2, columns)


# ------------------------------------------------- the row-reduction oracle


def _row_reduce_oracle(a: SparseMatrix, extra=None):
    """Full row reduction: scan the columns left to right and take the
    lowest-index unused row with a nonzero entry as the pivot.  ``extra``
    gives each row further entries past column ``a.cols`` that ride along
    with every row operation but never hold a pivot.

    Returns (rows as dicts, [(pivot_row, pivot_col), ...])."""
    rows = [dict() for _ in range(a.rows)]
    for c, col in enumerate(a.nonzero_columns):
        for r, v in col:
            rows[r][c] = v
    if extra is not None:
        for row, more in zip(rows, extra):
            row.update(more)
    pivot_cols = []
    used = set()
    for c in range(a.cols):
        piv = next((r for r in range(a.rows) if r not in used and rows[r].get(c)), None)
        if piv is None:
            continue
        used.add(piv)
        pivot_cols.append((piv, c))
        inv = Fraction(1) / rows[piv][c]
        rows[piv] = prow = {k: v * inv for k, v in rows[piv].items()}
        for r in range(a.rows):
            factor = rows[r].get(c) if r != piv else None
            if factor:
                target = rows[r]
                for k, v in prow.items():
                    nv = target.get(k, ZERO) - factor * v
                    if nv:
                        target[k] = nv
                    else:
                        target.pop(k, None)
    return rows, pivot_cols


def kernel_oracle(a: SparseMatrix) -> Subspace:
    """One generator per free column f: x_f = 1, the other free columns 0."""
    rows, pivot_cols = _row_reduce_oracle(a)
    pivot_of_col = {c: r for r, c in pivot_cols}
    gens = []
    for f in range(a.cols):
        if f in pivot_of_col:
            continue
        x = [ZERO] * a.cols
        x[f] = ONE
        for r, c in pivot_cols:
            x[c] = -rows[r].get(f, ZERO)
        gens.append(tuple(x))
    return span(a.cols, gens)


def solve_oracle(a: SparseMatrix, b):
    """The solution that is zero on every free column, or None."""
    rhs = a.cols  # the right-hand side rides along as one extra column
    rows, pivot_cols = _row_reduce_oracle(a, [{rhs: Fraction(v)} if v else {} for v in b])
    used = {r for r, _ in pivot_cols}
    if any(rows[r].get(rhs) for r in range(a.rows) if r not in used):
        return None
    x = [ZERO] * a.cols
    for r, c in pivot_cols:
        x[c] = rows[r].get(rhs, ZERO)
    return tuple(x)


def _matrix_with_dependent_columns(rng: random.Random, rows: int, cols: int) -> SparseMatrix:
    """A random matrix in which some columns are combinations of (or equal
    to, or zero like) earlier ones, so dependent columns sit ahead of
    later pivot columns."""
    columns = []
    for c in range(cols):
        if columns and rng.random() < 0.4:
            col = [ZERO] * rows
            for g in rng.sample(columns, rng.randint(0, min(2, len(columns)))):
                t = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
                col = [x + t * y for x, y in zip(col, g)]
        else:
            col = [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 5]))
                   if rng.random() < 0.5 else ZERO for _ in range(rows)]
        columns.append(col)
    return from_columns(rows, columns)


def test_eliminations_match_the_row_reduction_oracle():
    rng = random.Random(9090)
    seen = {"empty": 0, "dependent-ahead": 0, "solved": 0, "inconsistent": 0}
    for trial in range(600):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        if trial % 5 == 0:
            a = random_matrix(rng, rows, cols)
        else:
            a = _matrix_with_dependent_columns(rng, rows, cols)
        seen["empty"] += rows == 0 or cols == 0
        _, pivot_cols = _row_reduce_oracle(a)
        pivot_set = {c for _, c in pivot_cols}
        free = [c for c in range(cols) if c not in pivot_set]
        seen["dependent-ahead"] += any(f < c for f in free for c in pivot_set)

        k, k_expect = kernel(a), kernel_oracle(a)
        assert k.basis == k_expect.basis and k.pivots == k_expect.pivots
        assert rank(a) == len(pivot_cols) == image(a).dim

        solver = PrefactoredSolver(a)
        for probe in range(4):
            if probe % 2:
                b = apply(a, vec([rng.randint(-2, 2) for _ in range(cols)]))
            else:
                b = vec([rng.choice([0, 0, 1, -2, Fraction(1, 3)]) for _ in range(rows)])
            expect = solve_oracle(a, b)
            assert solve(a, b) == expect
            assert solved(solver, cols, b) == expect
            if expect is None:
                seen["inconsistent"] += 1
                continue
            seen["solved"] += 1
            assert apply(a, expect) == b
            assert all(expect[c] == 0 for c in free)
    assert seen["empty"] > 100 and seen["dependent-ahead"] > 150
    assert seen["solved"] > 1000 and seen["inconsistent"] > 300, seen


def test_every_elimination_goes_through_the_echelon_routine(monkeypatch):
    assert not hasattr(linalg, "_row_reduce")
    inner = linalg._echelon_columns
    calls = []

    def counted(columns):
        calls.append(1)
        return inner(columns)

    monkeypatch.setattr(linalg, "_echelon_columns", counted)

    def fresh():
        # a matrix keeps its kernel-and-solve elimination, so each run
        # gets a new, equal one
        return from_rows([[1, 2, 3], [2, 4, 7]])

    b = vec([1, 2])
    runs = {
        "kernel": lambda: kernel(fresh()),
        "image": lambda: image(fresh()),
        "rank": lambda: rank(fresh()),
        "solve": lambda: solve(fresh(), b),
        "PrefactoredSolver": lambda: PrefactoredSolver(fresh()).solve(pairs(b)),
        "Subspace._spanned": lambda: Subspace._spanned(2, fresh().nonzero_columns),
    }
    for name, run in runs.items():
        before = len(calls)
        run()
        assert len(calls) > before, f"{name} did not reach _echelon_columns"


def test_a_matrix_is_eliminated_once_for_its_kernel_and_solves(monkeypatch):
    inner = linalg._tagged_echelon
    calls = []
    monkeypatch.setattr(linalg, "_tagged_echelon", lambda m: calls.append(m) or inner(m))
    a = from_rows([[1, 2, 3], [2, 4, 7]])
    k = kernel(a)
    solver = PrefactoredSolver(a)
    assert solved(solver, a.cols, vec([1, 2])) == solve(a, vec([1, 2]))
    assert kernel(a) == k and solver.image == image(a)
    assert calls == [a]
