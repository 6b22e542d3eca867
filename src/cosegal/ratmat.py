"""Exact linear algebra over the rationals.

A matrix with m rows and n columns represents a map Q^n -> Q^m acting on
column vectors. Everything here is deterministic: the same input always
yields the same pivots, the same kernel basis and the same cokernel
coordinates, which the rest of the package relies on for exact equality
checks. Kernels, ranks and solutions come from `rref`. The one cokernel,
`relation_cokernel`, is that of a matrix given as relations, pairs of
matrices placed at row offsets and subtracted. Without building the
matrix, it gathers each column from the rows of the two matrices and
walks the graph the columns make, whose components' largest members are
the non-pivots of rref(m^T); only when a column has three or more
nonzeros does it build the matrix's transpose for rref.

A matrix is a `Matrix`: an explicit `shape` (rows, columns) and a `rows`
tuple holding, for each row, the (column, entry) pairs of its nonzero
entries in ascending column order, every entry a Fraction. No zero is
stored and a matrix without rows keeps its column count, so the form is
canonical: `==` and `hash` compare shapes and nonzeros, and every kernel
does work in proportion to the nonzeros it reads and writes.

This is the only module that knows that form. Other modules make
matrices with `mat` (from nested rows of exact numbers), `build` (from
(row, column, entry) triples with an explicit shape), `eye`, `zeros`,
`unvec` and the copies `transpose`, `submatrix`, `split_columns`,
`hstack`, `vstack` and `block_diag`, tensor with `kron` and
`tensor_differential` (of two complexes), and compose through a tensor
of maps with `kron_then`, which never builds the Kronecker product. They
read them through `shape`, `nonzeros`, `vec` and `has_shape`. A `Matrix`
also reads as a tuple of dense rows (`len(m)`, `m[i]`, iteration); that
view is for readers outside the package, such as tests and benchmarks,
and nothing in the package uses it.
"""

import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True, slots=True)
class Matrix:
    """An exact rational matrix: `shape` and the sorted nonzero `rows`.

    The constructor takes the form as given and checks nothing; make
    matrices with `mat`, `build` and the other functions of this module.
    A Matrix is frozen, because it is hashed and held by frozen objects.
    """

    shape: tuple
    rows: tuple

    # the dense view, for readers outside the package

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, i):
        row = [ZERO] * self.shape[1]
        for j, x in self.rows[i]:
            row[j] = x
        return tuple(row)

    def __iter__(self):
        return map(self.__getitem__, range(self.shape[0]))


def _entry(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        # Fraction(0.1) is the binary value of the float, not 1/10
        raise TypeError("matrix entry %r is a float; pass an int, a Fraction "
                        "or an exact string" % (x,))
    return Fraction(x)


def mat(x, cols=None):
    """A Matrix from nested rows of exact numbers; a Matrix is returned
    as it is. The rows must have one length; without rows the matrix has
    cols columns (none if cols is None)."""
    if isinstance(x, Matrix):
        return x
    rows, width = [], None
    for row in x:
        row = [_entry(e) for e in row]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("matrix rows of unequal length")
        rows.append(tuple([(j, e) for j, e in enumerate(row) if e]))
    if width is None:
        width = cols or 0
    return Matrix((len(rows), width), tuple(rows))


def shape(m):
    return m.shape


def eye(n):
    return Matrix((n, n), tuple(((i, ONE),) for i in range(n)))


def zeros(rows, cols):
    return Matrix((rows, cols), ((),) * rows)


def build(rows, cols, entries):
    """The rows x cols matrix with the given (row, column, entry) triples,
    0 <= row < rows and 0 <= column < cols. Entries at one position add
    up; every other entry is zero."""
    acc = {}
    for i, j, x in entries:
        if not (0 <= i < rows and 0 <= j < cols):
            raise IndexError("entry (%d, %d) out of a %dx%d matrix"
                             % (i, j, rows, cols))
        if not isinstance(x, Fraction):
            x = _entry(x)
        row = acc.get(i)
        if row is None:
            acc[i] = {j: x}
        else:
            y = row.get(j)
            row[j] = x if y is None else y + x
    out = [()] * rows
    for i, row in acc.items():
        out[i] = tuple(sorted([(j, x) for j, x in row.items() if x]))
    return Matrix((rows, cols), tuple(out))


def has_shape(m, rows, cols):
    """Whether m has rows rows and cols columns."""
    return m.shape == (rows, cols)


def nonzeros(m):
    """The (row, column, entry) triples of the nonzero entries of m, row
    by row."""
    return [(i, j, x) for i, row in enumerate(m.rows) for j, x in row]


def submatrix(m, rows, cols):
    """The entries of m in the listed rows and columns, in that order."""
    rows, cols = list(rows), list(cols)
    if rows and not (0 <= min(rows) and max(rows) < m.shape[0]):
        raise IndexError("row out of range")
    if cols and not (0 <= min(cols) and max(cols) < m.shape[1]):
        raise IndexError("column out of range")
    where = {}
    for k, j in enumerate(cols):
        where.setdefault(j, []).append(k)
    out = tuple(tuple(sorted([(k, x) for j, x in m.rows[i] if j in where
                              for k in where[j]])) for i in rows)
    return Matrix((len(out), len(cols)), out)


def split_columns(m, widths):
    """m cut into consecutive column blocks of the given widths, which add
    up to its column count; each row is read once and split at the block
    bounds by bisection."""
    starts = [0]
    for w in widths:
        starts.append(starts[-1] + w)
    if starts[-1] != m.shape[1]:
        raise ValueError("column widths do not add up to the matrix")
    blocks = [[] for _ in widths]
    for row in m.rows:
        lo = 0
        for rows, start, end in zip(blocks, starts, starts[1:]):
            # entries are (column, value) pairs, so (end,) precedes the
            # first entry at column end or later
            hi = bisect.bisect_left(row, (end,), lo)
            rows.append(tuple([(j - start, x) for j, x in row[lo:hi]])
                        if hi > lo else ())
            lo = hi
    return [Matrix((m.shape[0], w), tuple(rows))
            for w, rows in zip(widths, blocks)]


def vec(m):
    """The column-major vectorization of m as one tuple."""
    r, c = m.shape
    out = [ZERO] * (r * c)
    for i, row in enumerate(m.rows):
        for j, x in row:
            out[j * r + i] = x
    return tuple(out)


def unvec(v, rows, cols):
    """The rows x cols matrix whose column-major vectorization is v, a
    sequence of exact numbers as for `mat`."""
    if len(v) != rows * cols:
        raise ValueError("unvec needs %d entries, got %d"
                         % (rows * cols, len(v)))
    out = [[] for _ in range(rows)]
    for k, x in enumerate(v):
        x = _entry(x)
        if x:
            j, i = divmod(k, rows)
            out[i].append((j, x))
    return Matrix((rows, cols), tuple(map(tuple, out)))


def transpose(m):
    r, c = m.shape
    out = [[] for _ in range(c)]
    for i, row in enumerate(m.rows):
        for j, x in row:
            out[j].append((i, x))
    return Matrix((c, r), tuple(map(tuple, out)))


def mneg(a):
    return Matrix(a.shape, tuple(tuple([(j, -x) for j, x in row])
                                 for row in a.rows))


def matmul(a, b):
    (ra, ca), (rb, cb) = a.shape, b.shape
    if ca != rb:
        raise ValueError("matmul shape mismatch: %sx%s times %sx%s" % (ra, ca, rb, cb))
    brows = b.rows
    out = []
    for row in a.rows:
        if not row:
            out.append(row)
            continue
        if len(row) == 1:
            # one term: a scaled copy of a row of b, with no cancellation.
            # Most nonzero rows multiplied here have one term, often the
            # shared ONE of a reindexing, whose products would only copy
            k, x = row[0]
            out.append(brows[k] if x is ONE else
                       tuple([(j, x * y) for j, y in brows[k]]))
            continue
        acc = {}
        for k, x in row:
            for j, y in brows[k]:
                # a product with the shared ONE copies the other entry
                p = y if x is ONE else x if y is ONE else x * y
                z = acc.get(j)
                acc[j] = p if z is None else z + p
        out.append(tuple(sorted([(j, z) for j, z in acc.items() if z])))
    return Matrix((ra, cb), tuple(out))


def hstack(mats):
    rows = mats[0].shape[0]
    if any(m.shape[0] != rows for m in mats):
        raise ValueError("hstack row mismatch")
    offsets, cols = [], 0
    for m in mats:
        offsets.append(cols)
        cols += m.shape[1]
    out = tuple(tuple([(off + j, x) for m, off in zip(mats, offsets)
                       for j, x in m.rows[i]]) for i in range(rows))
    return Matrix((rows, cols), out)


def vstack(mats):
    cols = mats[0].shape[1]
    if any(m.shape[1] != cols for m in mats):
        raise ValueError("vstack column mismatch")
    return Matrix((sum(m.shape[0] for m in mats), cols),
                  tuple(row for m in mats for row in m.rows))


def block_diag(mats):
    out, cols = [], 0
    for m in mats:
        out.extend(tuple([(cols + j, x) for j, x in row]) for row in m.rows)
        cols += m.shape[1]
    return Matrix((len(out), cols), tuple(out))


def kron(a, b):
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = []
    for arow in a.rows:
        left = [(j * cb, x) for j, x in arow]
        for brow in b.rows:
            # a product with the shared ONE copies the other entry
            out.append(tuple([
                (j + l, y if x is ONE else x if y is ONE else x * y)
                for j, x in left for l, y in brow]))
    return Matrix((ra * rb, ca * cb), tuple(out))


def kron_then(a, b, m):
    """m @ kron(a, b), read off the nonzeros of m, a and b without
    building the Kronecker product (Van Loan, "The ubiquitous Kronecker
    product", J. Comput. Appl. Math. 123, 2000).

    Column c of m meets row c of kron(a, b), which is row i of a times
    row k of b for (i, k) = divmod(c, rows(b)). An empty row of m stays
    empty; the terms of any other row add up in a dict, which a one-term
    row fills in column order, so only a row of several terms is sorted.
    """
    (ra, ca), (rb, cb), (rm, cm) = a.shape, b.shape, m.shape
    if cm != ra * rb:
        raise ValueError("kron_then shape mismatch: %sx%s times the kron of "
                         "%sx%s and %sx%s" % (rm, cm, ra, ca, rb, cb))
    arows, brows = a.rows, b.rows
    out = []
    for row in m.rows:
        if not row:
            out.append(row)
            continue
        acc = {}
        for c, x in row:
            i, k = divmod(c, rb)
            brow = brows[k]
            for j, y in arows[i]:
                xy = y if x is ONE else x if y is ONE else x * y
                at = j * cb
                for l, z in brow:
                    p = z if xy is ONE else xy if z is ONE else xy * z
                    w = acc.get(at + l)
                    acc[at + l] = p if w is None else w + p
        # the products of one term come in column order and are nonzero
        out.append(tuple(acc.items()) if len(row) == 1 else
                   tuple(sorted([(j, z) for j, z in acc.items() if z])))
    return Matrix((rm, ca * cb), tuple(out))


def tensor_differential(dx, dy, odd):
    """The differential dx (x) 1 + S (x) dy of a tensor of two complexes,
    S the diagonal with -1 where odd[i] is true (the Koszul sign).

    dx and dy have zero diagonals, as differentials of graded complexes
    do, so the terms never share an entry: row (i, j) holds dx's entries
    at columns (k, j), k != i, around dy's at columns (i, l).
    """
    nx, ny = dx.shape[0], dy.shape[0]
    plus = minus = dy.rows
    if any(odd):
        minus = [tuple([(l, -e) for l, e in row]) for row in plus]
    out = []
    for i, xrow in enumerate(dx.rows):
        yrows = minus if odd[i] else plus
        at = i * ny
        if not xrow:
            out += [tuple([(at + l, e) for l, e in yrow]) if yrow else ()
                    for yrow in yrows]
            continue
        xs = [(k * ny, e) for k, e in xrow]
        cut = bisect.bisect_left(xrow, (i,))
        low, high = xs[:cut], xs[cut:]
        for j, yrow in enumerate(yrows):
            if yrow:
                out.append(tuple([(k + j, e) for k, e in low]
                                 + [(at + l, e) for l, e in yrow]
                                 + [(k + j, e) for k, e in high]))
            else:
                out.append(tuple([(k + j, e) for k, e in xs]))
    n = nx * ny
    return Matrix((n, n), tuple(out))


def is_zero(m):
    return not any(m.rows)


def rref(m):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots lists the pivot column of each nonzero
    row of R in order and the rows of R below them are zero. The reduced
    row echelon form of a matrix is unique, so the result is canonical.
    """
    nrows, ncols = m.shape

    def eliminate(row, p, prow):
        """Clear column p of row (a dict) with prow, whose entry at p is 1."""
        f = row.pop(p)
        for j, y in prow.items():
            if j != p:
                z = row.get(j, ZERO) - f * y
                if z:
                    row[j] = z
                else:
                    del row[j]

    # rows are added one at a time and kept fully reduced against each
    # other; reduced maps each pivot column to its row, a dict column ->
    # entry with 1 at the pivot
    reduced = {}
    for row in m.rows:
        if len(reduced) == ncols:
            break
        new = dict(row)
        for p in [p for p in new if p in reduced]:
            eliminate(new, p, reduced[p])
        if not new:
            continue
        p = min(new)
        pv = new[p]
        if pv != ONE:
            new = {j: x / pv for j, x in new.items()}
        for other in reduced.values():
            if p in other:
                eliminate(other, p, new)
        reduced[p] = new
    pivots = tuple(sorted(reduced))
    out = [tuple(sorted(reduced[p].items())) for p in pivots]
    out += [()] * (nrows - len(out))
    return Matrix(m.shape, tuple(out)), pivots


def rank(m):
    return len(rref(m)[1])


def solve_matrix(a, b):
    """Solve a @ X = b exactly, as (X, rank): X has the free variables
    zero, which makes it canonical, or is None if there is no solution,
    and rank is a's. Both are read off one rref of the augmented matrix
    [a | b], whose pivots left of column a.shape[1] are those of rref(a):
    a pivot at or right of it means no solution.
    """
    (ra, ca), (rb, cb) = a.shape, b.shape
    if ra != rb:
        raise ValueError("solve shape mismatch")
    aug, pivots = rref(hstack([a, b]))
    rank_a = bisect.bisect_left(pivots, ca)
    if rank_a < len(pivots):
        return None, rank_a
    x = [()] * ca
    for c, row in zip(pivots, aug.rows):
        # entries are (column, value) pairs, so (ca,) precedes b's part
        x[c] = tuple([(j - ca, v)
                      for j, v in row[bisect.bisect_left(row, (ca,)):]])
    return Matrix((ca, cb), tuple(x)), rank_a


def solve_vec(a, v):
    """`solve_matrix` with one right-hand column, as (x, rank): x is a
    tuple or None. v holds the right-hand sides of the first len(v) rows;
    the others are zero."""
    rhs = [((0, x),) if x else () for x in map(_entry, v)]
    rhs += [()] * (a.shape[0] - len(rhs))
    x, rank_a = solve_matrix(a, Matrix((len(rhs), 1), tuple(rhs)))
    if x is None:
        return None, rank_a
    return tuple([row[0][1] if row else ZERO for row in x.rows]), rank_a


def _null_vectors(r, pivots, n):
    """The canonical null vectors of an rref matrix r with n columns.

    Returns (vectors, free): the matrix with one row per free (non-pivot)
    column f, with 1 at f and -r[i][f] at pivot column pivots[i].
    """
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    slot = {f: k for k, f in enumerate(free)}
    vecs = [[] for _ in free]
    for p, row in zip(pivots, r.rows):
        for f, x in row:
            k = slot.get(f)
            if k is not None:
                vecs[k].append((p, -x))
    # a pivot row has entries right of its pivot only, so every pivot in
    # the row of f lies left of f
    for f, v in zip(free, vecs):
        v.append((f, ONE))
    return Matrix((len(free), n), tuple(map(tuple, vecs))), free


def kernel_data(m):
    """(basis, free) for ker(m): the n x k rref parametrization, whose
    j-th column has a 1 in the j-th free coordinate and back-substituted
    pivot entries, and the free column indices in that order."""
    vecs, free = _null_vectors(*rref(m), m.shape[1])
    return transpose(vecs), tuple(free)


def _walk(nrows, edges, dead):
    """(free, P) of the weighted walk: edges holds (i, j, num, den) for
    each tie w_j = (num/den) w_i, num and den nonzero, and dead the
    coordinates a one-entry column kills. Each component is walked from
    its largest member r with w_r = 1; it is live when no edge disagrees
    with the weights and no member is dead, and then r is free and its row
    of P is the weights. The result depends on the edges and dead
    coordinates only, not on their order."""
    # (j, num, den) in adj[i]: w_j = num/den w_i in lowest terms, den > 0
    adj = [[] for _ in range(nrows)]
    for i, j, num, den in edges:
        if num == den:
            num = den = 1
        else:
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            num, den = num // g, den // g
        adj[i].append((j, num, den))
        adj[j].append((i, den, num) if num > 0 else (i, -den, -num))
    weight, free, vecs = [None] * nrows, [], []
    for r in range(nrows - 1, -1, -1):
        if weight[r] is not None:
            continue
        weight[r], members, live = (1, 1), [r], True
        for i in members:  # members grows while it is read
            p, q = weight[i]
            for j, num, den in adj[i]:
                if num == den:
                    w = weight[i]
                else:
                    g = gcd(p * num, q * den)
                    w = (p * num // g, q * den // g)
                if weight[j] is None:
                    weight[j] = w
                    members.append(j)
                elif weight[j] != w:
                    live = False
        if live and dead.isdisjoint(members):
            free.append(r)
            vecs.append(tuple(sorted([
                (v, ONE if weight[v] == (1, 1) else Fraction(*weight[v]))
                for v in members])))
    return tuple(free[::-1]), Matrix((len(free), nrows), tuple(vecs[::-1]))


def relation_cokernel(nrows, relations):
    """The canonical cokernel of the nrows-row matrix m the relations
    make, as (free, P), without building m unless a column has three or
    more nonzeros.

    relations is a list of column blocks (ra, a, rb, b): the matrix a
    placed at rows ra, ra + 1, ... minus b placed at rows rb, rb + 1, ...,
    a and b of one column count. free lists the k non-pivot coordinates
    of rref(m^T), and P, k x nrows with P @ m = 0, holds the null vectors
    of rref(m^T): its row for a free f is 1 at f and 0 at the other free
    coordinates. Raises ValueError when a and b differ in column count
    and IndexError when a relation's rows leave the nrows.

    Each column is gathered from the rows of a and b. One entry x of a at
    row i and one entry y of b at row k != i tie w_k = (x/y) w_i on each
    left null vector w, the ratio read off the numerators and denominators
    of x and y. Two entries on one row combine, cancelling when they are
    equal and killing the coordinate otherwise, as a single entry does.
    A column with two entries on one side is summed in full, b negated,
    and two nonzeros a e_i + b e_j left tie w_j = -(a/b) w_i.

    If no column has three or more nonzeros after combining, P comes from
    a walk of the graph of the ties, in which a killed coordinate or
    disagreeing ratios (parallel columns, cycles) kill a component. The
    walk gives the free coordinates of rref(m^T): its pivots are the
    greedy basis of the coordinates' rows of m, and rows of different
    components share no column. A live component of k coordinates has
    rank k - 1 and a null vector nonzero on every member, so its largest
    member is free and its row of P is that null vector, 1 at the member;
    a killed one has full rank. The walk does not depend on the order of
    the columns. Otherwise P holds the null vectors of rref(m^T), of the
    transpose built by `_relation_transpose`.
    """
    edges, dead = [], set()
    for ra, a, rb, b in relations:
        (ma, n), (mb, nb) = a.shape, b.shape
        if nb != n:
            raise ValueError("a relation of a %dx%d and a %dx%d matrix"
                             % (ma, n, mb, nb))
        if not (0 <= ra and ra + ma <= nrows and 0 <= rb
                and rb + mb <= nrows):
            raise IndexError("relation rows out of %d rows" % nrows)
        # the first entry of each column of a and of b, as (row, entry)
        left, right, many = [None] * n, [None] * n, set()
        for side, start, m in ((left, ra, a), (right, rb, b)):
            for i, row in enumerate(m.rows, start):
                for j, x in row:
                    if side[j] is None:
                        side[j] = (i, x)
                    else:
                        many.add(j)
        if many:
            # a column with two entries on one side is combined in full,
            # b's entries negated, and left to the general rule
            cols = {j: {} for j in many}
            for start, m, minus in ((ra, a, False), (rb, b, True)):
                for i, row in enumerate(m.rows, start):
                    for j, x in row:
                        acc = cols.get(j)
                        if acc is not None:
                            y = acc.get(i, ZERO)
                            acc[i] = y - x if minus else y + x
            for j, acc in cols.items():
                left[j] = right[j] = None
                col = [(i, x) for i, x in acc.items() if x]
                if len(col) > 2:
                    p, free = _null_vectors(*rref(
                        _relation_transpose(nrows, relations)), nrows)
                    return tuple(free), p
                if len(col) == 1:
                    dead.add(col[0][0])
                elif col:
                    (i, x), (k, y) = col
                    edges.append((i, k, -x.numerator * y.denominator,
                                  x.denominator * y.numerator))
        for xs, ys in zip(left, right):
            if xs is None or ys is None:
                if xs is not ys:
                    dead.add((xs or ys)[0])
                continue
            (i, x), (k, y) = xs, ys
            if i != k:
                # x e_i - y e_k ties w_k = (x/y) w_i
                edges.append((i, k, 1, 1) if x is y else (
                    i, k, x.numerator * y.denominator,
                    x.denominator * y.numerator))
            elif x != y:
                dead.add(i)
    return _walk(nrows, edges, dead)


def _relation_transpose(nrows, relations):
    """The transpose of the matrix the relations make, one row per
    relation column."""
    entries, col = [], 0
    for ra, a, rb, b in relations:
        entries += [(col + j, ra + i, x) for i, j, x in nonzeros(a)]
        entries += [(col + j, rb + i, -x) for i, j, x in nonzeros(b)]
        col += a.shape[1]
    return build(col, nrows, entries)


def inverse(m):
    """Exact inverse, or None if m is not square invertible."""
    r, c = m.shape
    if r != c:
        return None
    x = solve_matrix(m, eye(r))[0]
    if x is None:
        return None
    if matmul(m, x) != eye(r) or matmul(x, m) != eye(r):
        return None
    return x
