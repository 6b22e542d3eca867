"""Exact linear algebra: canonical rref, kernels and cokernels, and the
sparse kernels checked against naive dense references.

The references below (and `ref_kron` in `fixtures`) are the
straightforward dense definitions, kept only as oracles: the package
kernels work on nonzero entries only and must return the same values on
sparse matrices, including the empty shapes. The kernels' results are
compared with them through the dense view of a `ratmat.Matrix`.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cosegal import ratmat
from cosegal.ratmat import (
    ONE, block_diag, build, eye, has_shape, hstack, inverse,
    kernel_data, kron, mat, matmul, nonzeros, rank, rref,
    shape, solve_matrix, solve_vec, submatrix, transpose, unvec, vec,
    vstack, zeros,
)

from fixtures import assert_exact, ref_kron


def rand_matrix(rng, rows, cols, den=3):
    return mat([[Fraction(rng.randint(-4, 4), rng.randint(1, den))
                 for _ in range(cols)] for _ in range(rows)], cols)


def rand_sparse(rng, rows, cols, den=5):
    """A rows x cols matrix with at most 30 % nonzero entries."""
    out = [[0] * cols for _ in range(rows)]
    for k in rng.sample(range(rows * cols), rows * cols * 3 // 10):
        num = rng.choice([-1, 1]) * rng.randint(1, 4)
        out[k // cols][k % cols] = Fraction(num, rng.randint(1, den))
    return mat(out, cols)


UNITS = st.sampled_from([ONE, -ONE])
RATIONALS = st.fractions(-4, 4, max_denominator=4).filter(bool)


@st.composite
def dense_matrices(draw):
    """A matrix of up to 4 x 4, empty shapes included, like rand_matrix."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return mat([[Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
                 for _ in range(cols)] for _ in range(rows)], cols)


@st.composite
def graph_shaped(draw, widest=2):
    """A relation matrix of up to 6 rows: two-entry columns, at most one
    empty, one one-entry and one column of widest nonzeros, and often a
    cycle through three or more coordinates. Most two-entry columns agree
    with a drawn weight vector w (a w_i + b w_j = 0), so that parallel
    columns and cycles come out consistent or not. Entries are all +-1 or
    all general rationals."""
    rows = draw(st.integers(0, 6))
    entry = draw(st.sampled_from([UNITS, RATIONALS]))
    w = [draw(entry) for _ in range(rows)]
    sizes = [2] * draw(st.integers(0, 8)) + [1] * draw(st.integers(0, 1))
    sizes += [0] * draw(st.integers(0, 1)) + [widest] * draw(st.integers(0, 1))
    supports = [draw(st.permutations(range(rows)))[:k] for k in sizes]
    if rows >= 3 and draw(st.booleans()):
        ring = draw(st.permutations(range(rows)))[:draw(st.integers(3, rows))]
        supports += [[i, j] for i, j in zip(ring, ring[1:] + ring[:1])]
    agree = st.sampled_from((True, True, True, False))
    entries = []
    for j, at in enumerate(draw(st.permutations(supports))):
        xs = [draw(entry) for _ in at]
        if len(at) == 2 and draw(agree):
            xs[1] = -xs[0] * w[at[0]] / w[at[1]]
        entries += [(i, j, x) for i, x in zip(at, xs)]
    return build(rows, len(supports), entries)


def cokernel(m):
    """`relation_cokernel` of m alone: m at row 0 minus an empty matrix."""
    rows, cols = shape(m)
    return ratmat.relation_cokernel(rows, [(0, m, 0, zeros(0, cols))])


def cokernel_counting_rrefs(nrows, relations):
    """`relation_cokernel` of the relations and the list of the matrices
    it took the rref of."""
    real, rrefs = ratmat.rref, []

    def counted(x):
        rrefs.append(x)
        return real(x)

    ratmat.rref = counted
    try:
        return ratmat.relation_cokernel(nrows, relations), rrefs
    finally:
        ratmat.rref = real


def ref_cokernel(m):
    """(free, P) of the cokernel of m from rref(m^T): its non-pivot
    coordinates and its null vectors."""
    p, free = ratmat._null_vectors(*rref(transpose(m)), shape(m)[0])
    return tuple(free), p


def identity_on(p, free):
    """Whether P is the identity on the free coordinates."""
    return submatrix(p, range(len(free)), free) == eye(len(free))


def sparse_cases(rng, count=60, top=7):
    """Sparse random matrices, the empty shapes and all-zero matrices."""
    cases = [zeros(0, 0), zeros(3, 0), zeros(1, 0), zeros(0, 3), zeros(1, 1),
             zeros(3, 4), zeros(4, 2)]
    for _ in range(count):
        cases.append(rand_sparse(rng, rng.randint(1, top),
                                 rng.randint(1, top)))
    return cases


# ---------------------------------------------------------------------------
# naive dense references


def ref_transpose(m):
    return tuple(tuple(row[j] for row in m) for j in range(shape(m)[1]))


def ref_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def ref_matmul(a, b):
    bt = ref_transpose(b)
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0))
                       for col in bt) for row in a)


def ref_block_diag(mats):
    rows = sum(len(m) for m in mats)
    cols = sum(shape(m)[1] for m in mats)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    ro = co = 0
    for m in mats:
        r, c = shape(m)
        for i in range(r):
            for j in range(c):
                out[ro + i][co + j] = m[i][j]
        ro += r
        co += c
    return tuple(tuple(row) for row in out)


def ref_rref(m):
    rows = [list(row) for row in m]
    nrows, ncols = shape(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def ref_build(rows, cols, entries):
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i, j, x in entries:
        out[i][j] += Fraction(x)
    return tuple(tuple(row) for row in out)


def ref_vec(m, rows, cols):
    return tuple(m[i][j] for j in range(cols) for i in range(rows))


def test_builders_match_dense_references(rng):
    # sparse_cases includes the 0 x 0 and n x 0 shapes
    for m in sparse_cases(rng):
        r, c = shape(m)
        nz = nonzeros(m)
        assert nz == [(i, j, m[i][j]) for i in range(r) for j in range(c)
                      if m[i][j] != 0]
        assert build(r, c, nz) == m
        assert has_shape(build(r, c, nz), r, c)
        assert unvec(vec(m), r, c) == m
        assert vec(m) == ref_vec(m, r, c)
        rows = rng.sample(range(r), rng.randint(0, r))
        cols = rng.sample(range(c), rng.randint(0, c))
        assert tuple(submatrix(m, rows, cols)) == tuple(
            tuple(m[i][j] for j in cols) for i in rows)
        # random triples, repeated positions included, add up
        triples = [(rng.randrange(r), rng.randrange(c),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                   for _ in range(r * c)] if r and c else []
        triples += triples[:len(triples) // 3]
        got = build(r, c, triples)
        assert tuple(got) == ref_build(r, c, triples)
        for out in (got, submatrix(m, rows, cols), unvec(vec(m), r, c)):
            assert_exact(out)


def test_split_columns_cuts_consecutive_column_blocks(rng):
    for r, c in [(0, 0), (2, 0), (0, 3), (3, 5), (4, 7)]:
        m = rand_matrix(rng, r, c) if r and c else zeros(r, c)
        # widths that add up to c, zero widths included
        cuts = sorted(rng.randint(0, c) for _ in range(rng.randint(0, 4)))
        widths = [b - a for a, b in zip([0] + cuts, cuts + [c])]
        starts = [sum(widths[:k]) for k in range(len(widths))]
        got = ratmat.split_columns(m, widths)
        assert got == [submatrix(m, range(r), range(a, a + w))
                       for a, w in zip(starts, widths)]
        for out in got:
            assert_exact(out)
    with pytest.raises(ValueError):
        ratmat.split_columns(eye(2), [1])


def test_submatrix_refuses_rows_and_columns_out_of_range():
    m = mat([[1, 2], [3, 4]])
    assert submatrix(m, [1, 0], [1]) == mat([[4], [2]])
    # a negative index does not wrap round to the other end
    for rows, cols in [([-1], [0, 1]), ([2], [0]), ([0], [-1]), ([0], [2])]:
        with pytest.raises(IndexError):
            submatrix(m, rows, cols)
    with pytest.raises(IndexError):
        submatrix(zeros(0, 3), [0], [])


def test_build_keeps_the_shape_of_columnless_matrices():
    assert build(0, 0, []) == zeros(0, 0) and tuple(build(0, 0, [])) == ()
    assert build(3, 0, []) == zeros(3, 0)
    assert shape(build(3, 0, [])) == (3, 0)
    assert build(2, 3, [(1, 2, 5), (1, 2, "1/2")]) == mat(
        [[0, 0, 0], [0, 0, Fraction(11, 2)]])
    # a matrix without rows keeps its column count
    assert has_shape(zeros(0, 7), 0, 7) and has_shape(zeros(2, 0), 2, 0)
    assert not has_shape(zeros(0, 0), 0, 7)
    assert not has_shape(zeros(2, 3), 2, 2)
    with pytest.raises(ValueError):
        mat(((ratmat.ZERO,), ()))
    assert not has_shape(eye(1), 0, 1)
    assert vec(zeros(3, 0)) == () == vec(zeros(0, 0))
    assert unvec((), 3, 0) == zeros(3, 0)
    with pytest.raises(ValueError):
        unvec((1, 2, 3), 2, 2)


def test_unvec_checks_its_entries():
    with pytest.raises(TypeError):
        unvec((1, 0, 2.5), 3, 1)
    # exact strings and ints become Fractions, and a zero is not stored
    got = unvec(("1/2", 0, "0", 3), 2, 2)
    assert got == mat([["1/2", 0], [0, 3]])
    assert nonzeros(got) == [(0, 0, Fraction(1, 2)), (1, 1, Fraction(3))]
    assert_exact(got)


def test_build_rejects_entries_outside_the_shape():
    for entries in ([(0, 3, 1)], [(2, 0, 1)], [(-1, 0, 1)], [(0, -1, 1)],
                    [(0, 5, 1), (0, 5, -1)]):
        with pytest.raises(IndexError):
            build(2, 3, entries)


def test_build_rejects_floats():
    with pytest.raises(TypeError):
        build(1, 1, [(0, 0, 0.5)])
    with pytest.raises(TypeError):
        build(2, 2, [(0, 0, 1), (1, 1, 2.0)])


def test_elementwise_kernels_match_dense_references(rng):
    for m in sparse_cases(rng):
        for got, want in [(transpose(m), ref_transpose(m)),
                          (ratmat.mneg(m), ref_neg(m))]:
            assert tuple(got) == want
            assert_exact(got)
        assert ratmat.is_zero(m) == all(x == 0 for row in m for x in row)


def test_products_match_dense_references(rng):
    cases = sparse_cases(rng, count=40, top=5)
    for a in cases:
        ra, ca = shape(a)
        b = rand_sparse(rng, ca, rng.randint(0, 5)) if ca else zeros(0, 0)
        got = matmul(a, b)
        assert tuple(got) == ref_matmul(a, b)
        assert_exact(got)
        c = cases[rng.randrange(len(cases))]
        got = kron(a, c)
        assert tuple(got) == ref_kron(a, c)
        assert shape(got) == (ra * shape(c)[0], ca * shape(c)[1])
        assert_exact(got)
    for _ in range(20):
        mats = [cases[rng.randrange(len(cases))] for _ in range(3)]
        got = block_diag(mats)
        assert tuple(got) == ref_block_diag(mats)
        assert_exact(got)


def test_rref_matches_dense_reference(rng):
    for m in sparse_cases(rng):
        got = rref(m)
        assert (tuple(got[0]), got[1]) == ref_rref(m)
        assert_exact(got[0])
    # a dense case too, where every row meets every pivot
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        got = rref(m)
        assert (tuple(got[0]), got[1]) == ref_rref(m)


def test_kernel_and_cokernel_are_exact_on_sparse_input(rng):
    for m in sparse_cases(rng):
        r, c = shape(m)
        k = kernel_data(m)[0]
        assert_exact(k)
        if c:
            assert shape(k)[0] == c
        if r and c and shape(k)[1]:
            assert ratmat.is_zero(matmul(m, k))
        free, p = cokernel(m)
        assert (free, p) == ref_cokernel(m)
        dim = len(free)
        assert dim == r - rank(m)
        assert_exact(p)
        if dim and c:
            assert ratmat.is_zero(matmul(p, m))
        assert identity_on(p, free)


def test_sympy_domain_matrix_oracle(rng):
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def dm(m):
        return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row]
                             for row in m], shape(m), QQ)

    def back(d):
        return tuple(tuple(Fraction(int(x.numerator), int(x.denominator))
                           for x in row) for row in d.to_list())

    for m in sparse_cases(rng):
        r, c = shape(m)
        d = dm(m)
        want_r, want_piv = d.rref()
        got_r, got_piv = rref(m)
        assert got_piv == tuple(want_piv)
        assert tuple(got_r) == back(want_r)
        assert rank(m) == d.rank()
        null = back(want_r.nullspace_from_rref(want_piv))
        assert kernel_data(m)[0] == (transpose(mat(null)) if null
                                     else zeros(c, 0))
        free, p = cokernel(m)
        assert len(free) == r - d.rank()
        t_r, t_piv = d.transpose().rref()
        assert tuple(p) == back(t_r.nullspace_from_rref(t_piv))


def test_mat_rejects_floats_and_keeps_fractions():
    with pytest.raises(TypeError):
        mat([[0.1]])
    with pytest.raises(TypeError):
        mat([[1, 2.0]])
    third = Fraction(1, 3)
    m = mat([[third, 2, "5/7"]])
    assert m[0][0] is third
    assert tuple(m) == ((third, Fraction(2), Fraction(5, 7)),)
    assert_exact(m)


def test_rref_idempotent_and_canonical(rng):
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(0, 4), rng.randint(0, 4))
        r, pivots = rref(m)
        r2, pivots2 = rref(r)
        assert r == r2 and pivots == pivots2
        assert len(pivots) == rank(m)


def test_solve_and_kernel(rng):
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, rows, cols)
        x = rand_matrix(rng, cols, 1)
        b = matmul(a, x)
        sol, r = solve_matrix(a, b)
        assert sol is not None and r == rank(a)
        assert matmul(a, sol) == b
        assert solve_vec(a, vec(b)) == (vec(sol), rank(a))
        k = kernel_data(a)[0]
        n, dim = shape(k)
        assert n == cols
        assert dim == cols - rank(a)
        if dim:
            assert ratmat.is_zero(matmul(a, k))


def test_solve_detects_inconsistency():
    a = mat([[1, 0], [2, 0]])
    assert solve_vec(a, (0, 1)) == (None, 1)
    assert solve_vec(a, (1, 2)) == ((1, 0), 1)
    # the rows past the right-hand sides given have right-hand side zero
    assert solve_vec(a, (1,)) == (None, 1)
    assert solve_vec(mat([[1, 0], [0, 1]]), (3,)) == ((3, 0), 2)
    with pytest.raises(ValueError):
        solve_vec(a, (1, 2, 3))
    # solve_matrix reads a's rank off the pivots left of b's columns, also
    # when several columns of b are inconsistent
    assert solve_matrix(a, mat([[0, 1], [1, 2]])) == (None, 1)
    assert solve_matrix(zeros(2, 1), eye(2)) == (None, 0)
    assert solve_matrix(a, mat([[1, 2], [2, 4]])) == (
        mat([[1, 2], [0, 0]]), 1)


def test_zero_column_solve():
    assert solve_matrix(zeros(0, 0), zeros(0, 0)) == (zeros(0, 0), 0)
    a = zeros(2, 0)
    assert shape(a) == (2, 0)
    assert solve_vec(a, (0, 0)) == ((), 0)
    assert solve_vec(a, (1, 0)) == (None, 0)


@given(st.one_of(dense_matrices(), graph_shaped(widest=4)))
def test_cokernel_projection_is_the_identity_on_the_free_coordinates(m):
    rows, cols = shape(m)
    free, p = cokernel(m)
    assert (free, p) == ref_cokernel(m)
    k = len(free)
    assert k == rows - rank(m)
    if k and cols:
        assert ratmat.is_zero(matmul(p, m))
    assert identity_on(p, free)


@given(st.one_of(graph_shaped(), graph_shaped(widest=4)))
@example(zeros(0, 0))
@example(zeros(0, 3))
@example(zeros(3, 0))
# an empty column, and a one-entry column killing a component
@example(mat([[1, 0], [-1, 0]]))
@example(mat([[1, 0], [-1, 2], [0, 0]]))
# parallel columns with equal and with unequal ratios
@example(mat([[1, 2], [-1, -2]]))
@example(mat([[1, 1], [-1, 2]]))
# +-1 and rational cycles, consistent and not; w = (1, 1/2, 3) on the
# consistent rational one
@example(mat([[1, 0, -1], [-1, 1, 0], [0, -1, 1]]))
@example(mat([[1, 0, 1], [-1, 1, 0], [0, -1, 1]]))
@example(mat([[1, 0, 3], [-2, 6, 0], [0, -1, -1]]))
@example(mat([[1, 0, 3], [-2, 6, 0], [0, -1, -2]]))
# a column with three nonzeros takes the rref path
@example(mat([[1, 1], [1, 0], [1, -1], [0, 0]]))
def test_cokernel_walk_matches_the_rref_cokernel(m):
    rows, cols = shape(m)
    (free, p), rrefs = cokernel_counting_rrefs(
        rows, [(0, m, 0, zeros(0, cols))])
    assert (free, p) == ref_cokernel(m)
    assert identity_on(p, free)
    assert_exact(p)
    # the walk answers exactly when no column has three nonzeros
    wide = any(len(col) > 2 for col in transpose(m).rows)
    assert bool(rrefs) == wide


@st.composite
def relation_lists(draw):
    """(nrows, relations) for `relation_cokernel`: up to 6 rows and up to
    three relations (ra, a, rb, b) of up to 4 columns, zero-width ones
    included. b often shares a's row range, and then its entries often
    repeat a's on the rows both fill, so same-row entries cancel or not;
    a column draws up to two entries on each side, sometimes three on one,
    so one-sided two-entry columns and three-nonzero columns both occur.
    Entries are all +-1 or all general rationals."""
    nrows = draw(st.integers(0, 6))
    entry = draw(st.sampled_from([UNITS, RATIONALS]))
    count = st.sampled_from([0, 1, 1, 1, 2, 2, 3])

    def block():
        rows = draw(st.integers(0, nrows))
        return draw(st.integers(0, nrows - rows)), rows

    relations = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 4))
        ra, ma = block()
        rb, mb = (ra, ma) if draw(st.booleans()) else block()
        a_entries, b_entries = [], []
        for j in range(n):
            at = {}
            for i in draw(st.permutations(range(ma)))[:draw(count)]:
                at[ra + i] = draw(entry)
                a_entries.append((i, j, at[ra + i]))
            for k in draw(st.permutations(range(mb)))[:draw(count)]:
                y = draw(entry)
                if rb + k in at and draw(st.booleans()):
                    y = at[rb + k]
                b_entries.append((k, j, y))
        relations.append((ra, build(ma, n, a_entries),
                          rb, build(mb, n, b_entries)))
    return nrows, relations


def relation_matrix(nrows, relations):
    """The explicit matrix of relations: one column block per relation,
    a at rows ra.. minus b at rows rb..."""
    entries, col = [], 0
    for ra, a, rb, b in relations:
        entries += [(ra + i, col + j, x) for i, j, x in nonzeros(a)]
        entries += [(rb + i, col + j, -x) for i, j, x in nonzeros(b)]
        col += shape(a)[1]
    return build(nrows, col, entries)


@given(relation_lists())
# no relations, and no rows
@example((3, []))
@example((0, []))
@example((0, [(0, zeros(0, 2), 0, zeros(0, 2))]))
# a zero-width relation
@example((2, [(0, zeros(2, 0), 1, zeros(1, 0))]))
# F ~ F on one row range: every same-row pair cancels
@example((2, [(0, eye(2), 0, eye(2))]))
# unequal same-row entries kill the row
@example((2, [(0, mat([[1], [0]]), 0, mat([[2], [0]]))]))
# an edge of rationals, and a one-sided two-entry column (a walk edge)
@example((2, [(0, mat([["1/2"]]), 1, mat([[3]]))]))
@example((3, [(0, mat([[1], [2], [0]]), 0, zeros(3, 1))]))
@example((3, [(0, zeros(3, 1), 0, mat([[0], [-1], [2]]))]))
# two entries of a and one of b that combine to two nonzeros, and to one
@example((3, [(0, mat([[1], [1], [0]]), 1, mat([[2], [0]]))]))
@example((3, [(0, mat([[1], [1], [0]]), 0, mat([[1], [0], [0]]))]))
# a three-nonzero column takes the rref cokernel
@example((3, [(0, mat([[1], [1]]), 2, mat([[1]]))]))
@example((4, [(0, eye(2), 2, eye(2)), (0, mat([[1], [1], [1]]), 3,
                                       zeros(1, 1))]))
def test_relation_cokernel_is_the_cokernel_of_the_built_matrix(case):
    nrows, relations = case
    m = relation_matrix(nrows, relations)
    (free, p), rrefs = cokernel_counting_rrefs(nrows, relations)
    assert (free, p) == ref_cokernel(m)
    assert identity_on(p, free)
    assert_exact(p)
    # the rref cokernel is taken exactly when a column of the built matrix
    # has three or more nonzeros
    assert bool(rrefs) == any(len(col) > 2 for col in transpose(m).rows)


def test_relation_cokernel_refuses_relations_that_do_not_fit():
    with pytest.raises(ValueError):
        ratmat.relation_cokernel(3, [(0, eye(2), 0, eye(3))])
    # a first block with a three-nonzero column sends the call to rref,
    # which must not read the later blocks unchecked
    with pytest.raises(ValueError):
        ratmat.relation_cokernel(3, [
            (0, mat([[1], [1], [1]]), 0, zeros(0, 1)),
            (0, eye(3), 0, mat([[1, 0], [0, 1], [0, 0]]))])
    for ra, rb in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(IndexError):
            ratmat.relation_cokernel(3, [(ra, eye(2), rb, eye(2))])


def test_inverse(rng):
    assert inverse(mat([[1, 1], [0, 0]])) is None
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        inv = inverse(m)
        if rank(m) == n:
            assert matmul(m, inv) == eye(n)
        else:
            assert inv is None


# nonzero entries that are often the shared ONE, and otherwise -ONE, a 1
# that is not ONE, or another rational
ONE_HEAVY = st.sampled_from([ONE, ONE, -ONE, Fraction(2, 2)]) | RATIONALS


@st.composite
def with_ones(draw, rows=None, cols=None):
    """A matrix of up to 3 x 3 (or of the given shape), empty shapes
    included, whose nonzero entries are often the shared ONE (an identity
    matrix among them when no shape is given), and otherwise -ONE, a 1
    that is not ONE, or another rational."""
    if rows is None and cols is None and draw(st.booleans()):
        return eye(draw(st.integers(0, 3)))
    if rows is None:
        rows = draw(st.integers(0, 3))
    if cols is None:
        cols = draw(st.integers(0, 3))
    entry = st.just(0) | ONE_HEAVY
    return mat([[draw(entry) for _ in range(cols)] for _ in range(rows)],
               cols)


def assert_canonical(m):
    """m is in the canonical sparse form: one row per row of its shape,
    each holding nonzero Fractions at ascending columns inside it."""
    r, c = shape(m)
    assert len(m.rows) == r
    for row in m.rows:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < c for j in cols)
        assert all(type(x) is Fraction and x for _, x in row)


@given(with_ones(), with_ones())
def test_kron_with_ones_matches_the_dense_product(a, b):
    # a product with the shared ONE is a copy of the other entry; it must
    # still be the product, and a Fraction
    got = kron(a, b)
    assert tuple(got) == ref_kron(a, b)
    assert shape(got) == (shape(a)[0] * shape(b)[0],
                          shape(a)[1] * shape(b)[1])
    assert all(type(x) is Fraction and x for _, _, x in nonzeros(got))
    assert_exact(got)


@given(st.data())
def test_matmul_with_ones_matches_the_dense_product(data):
    # the accumulating branch copies the other factor of a product with
    # the shared ONE, as the one-term branch does
    a = data.draw(with_ones())
    b = data.draw(with_ones(rows=shape(a)[1]))
    got = matmul(a, b)
    assert tuple(got) == ref_matmul(a, b)
    assert shape(got) == (shape(a)[0], shape(b)[1])
    assert_canonical(got)


@st.composite
def kron_then_cases(draw):
    """(a, b, m): a and b by `with_ones`, and m of up to 4 rows on
    rows(a) rows(b) columns, each row empty, of one term or of several.
    b has rows, and so has a but for one draw in eight, so that m mostly
    has columns."""
    factor = with_ones().filter(lambda x: shape(x)[0])
    a = draw(with_ones() if draw(st.integers(0, 7)) == 0 else factor)
    b = draw(factor)
    cols = shape(a)[0] * shape(b)[0]
    entries = []
    for i in range(draw(st.integers(0, 4))):
        at = draw(st.permutations(range(cols)))
        size = draw(st.sampled_from([0, 1, 1, 2, 3]))
        entries += [(i, j, draw(ONE_HEAVY)) for j in at[:size]]
    rows = 1 + max([i for i, _, _ in entries], default=-1)
    return a, b, build(draw(st.integers(rows, 4)), cols, entries)


@given(kron_then_cases())
@example((eye(0), eye(2), zeros(3, 0)))
@example((zeros(2, 0), eye(2), mat([[0, 1, 0, 0], [1, 0, 0, 1]])))
# a two-term row whose products cancel to zero
@example((mat([[1], [1]]), eye(1), mat([[1, -1]])))
# one-term rows whose products have no factor ONE
@example((mat([[3, -ONE]]), mat([["1/2"]]), mat([[-2], [ONE]])))
# -ONE and a 1 that is not the shared ONE, in every factor
@example((mat([[Fraction(2, 2), -ONE]]), mat([[-ONE], [Fraction(2, 2)]]),
          mat([[ONE, 0], [-ONE, Fraction(2, 2)], [0, 0]])))
def test_kron_then_is_the_product_with_the_kron(case):
    # m @ kron(a, b) read off the nonzeros, without building the kron
    a, b, m = case
    got = ratmat.kron_then(a, b, m)
    assert got == matmul(m, kron(a, b))
    cols = shape(a)[1] * shape(b)[1]
    assert tuple(got) == ref_matmul(m, mat(ref_kron(a, b), cols))
    assert shape(got) == (shape(m)[0], cols)
    assert_canonical(got)


def test_products_refuse_mismatched_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        matmul(zeros(1, 2), zeros(3, 1))
    with pytest.raises(ValueError, match="shape mismatch"):
        ratmat.kron_then(eye(2), eye(2), zeros(1, 3))
    with pytest.raises(ValueError, match="shape mismatch"):
        ratmat.kron_then(zeros(2, 1), zeros(0, 3), eye(2))


def test_kron_mixed_product(rng):
    a = rand_matrix(rng, 2, 3)
    b = rand_matrix(rng, 3, 2)
    c = rand_matrix(rng, 2, 2)
    d = rand_matrix(rng, 2, 3)
    left = matmul(kron(a, c), kron(b, d))
    right = kron(matmul(a, b), matmul(c, d))
    assert left == right


def test_stack_edges():
    assert vstack([zeros(0, 2), mat([[1, 2]])]) == mat([[1, 2]])
    with pytest.raises(ValueError):
        vstack([zeros(0, 5), mat([[1, 2]])])
    assert hstack([zeros(2, 0), eye(2)]) == eye(2)
    assert tuple(transpose(zeros(0, 0))) == ()
    assert rank(zeros(0, 0)) == 0
    assert rank(zeros(3, 0)) == 0


def test_mat_refuses_ragged_rows():
    with pytest.raises(ValueError):
        mat([[1, 2], [3]])
    with pytest.raises(ValueError):
        mat([[], [0]])


def test_the_sparse_form_is_canonical(rng):
    # entries that cancel leave nothing stored
    cancelled = build(2, 3, [(0, 1, 1), (1, 2, "1/2"), (0, 1, -1),
                             (1, 2, Fraction(-1, 2))])
    assert cancelled == zeros(2, 3) and hash(cancelled) == hash(zeros(2, 3))
    assert zeros(0, 3) != zeros(0, 2) and shape(mat([], 3)) == (0, 3)
    # a hashed value cannot change
    for field in ("shape", "rows"):
        with pytest.raises(AttributeError):
            setattr(cancelled, field, ())
    for m in sparse_cases(rng):
        r, c = shape(m)
        # the dense view round-trips, the empty shapes included
        assert mat(tuple(m), c) == m
        assert len(m) == r and all(len(row) == c for row in m)
        assert eval(repr(m), {"Matrix": ratmat.Matrix,
                              "Fraction": Fraction}) == m
        # equal values from different kernels compare and hash equal
        for same in (transpose(transpose(m)), matmul(eye(r), m),
                     matmul(m, eye(c)), kron(eye(1), m),
                     ratmat.mneg(ratmat.mneg(m)),
                     hstack([m, zeros(r, 0)]), vstack([m, zeros(0, c)]),
                     block_diag([m, zeros(0, 0)]), unvec(vec(m), r, c),
                     submatrix(m, range(r), range(c))):
            assert same == m and hash(same) == hash(m)
