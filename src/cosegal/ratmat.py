"""Exact linear algebra over the rationals.

A matrix with m rows and n columns represents a map Q^n -> Q^m acting on
column vectors. Everything here is deterministic: the same input always
yields the same pivots, the same kernel basis and the same cokernel
coordinates, which the rest of the package relies on for exact equality
checks.

This is the only module that knows how a matrix is stored: a tuple of
dense rows, each a tuple of Fraction, zeros the shared ZERO, and a matrix
without rows keeps no column count. Other modules make matrices with
`mat` (from nested rows of exact numbers), `build` (from (row, column,
entry) triples with an explicit shape), `eye`, `zeros`, `unvec` and the
copies `transpose`, `submatrix`, `hstack`, `vstack` and `block_diag`; they
read them through `shape`, `nonzeros`, `vec` and `has_shape`.

The data is mostly zeros (chain-complex differentials and their tensor
products), so every kernel does its arithmetic on nonzero entries only:
results start as rows of the shared ZERO and only products, sums and
quotients of nonzero entries are computed and written. Copies do no
arithmetic and are left to tuple and list operations.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _entry(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        # Fraction(0.1) is the binary value of the float, not 1/10
        raise TypeError("matrix entry %r is a float; pass an int, a Fraction "
                        "or an exact string" % (x,))
    return Fraction(x)


def mat(rows):
    """Build a matrix from an iterable of row iterables of exact numbers."""
    return tuple(tuple(_entry(x) for x in row) for row in rows)


def shape(m):
    return (len(m), len(m[0]) if m else 0)


def eye(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zeros(rows, cols):
    return tuple((ZERO,) * cols for _ in range(rows))


def build(rows, cols, entries):
    """The rows x cols matrix with the given (row, column, entry) triples,
    0 <= row < rows and 0 <= column < cols. Entries at one position add
    up; every other entry is ZERO."""
    out = [[ZERO] * cols for _ in range(rows)]
    for i, j, x in entries:
        if not isinstance(x, Fraction):
            x = _entry(x)
        row = out[i]
        y = row[j]
        row[j] = x if y is ZERO else y + x
    return tuple(map(tuple, out))


def has_shape(m, rows, cols):
    """Whether m has rows rows of cols entries each; a matrix without rows
    has every column count."""
    return len(m) == rows and all(len(row) == cols for row in m)


def nonzeros(m):
    """The (row, column, entry) triples of the nonzero entries of m, row
    by row."""
    return [(i, j, x) for i, row in enumerate(m)
            for j, x in enumerate(row) if x is not ZERO and x]


def submatrix(m, rows, cols):
    """The entries of m in the listed rows and columns, in that order."""
    return tuple(tuple(m[i][j] for j in cols) for i in rows)


def vec(m):
    """The column-major vectorization of m as one tuple."""
    return tuple(x for col in zip(*m) for x in col)


def unvec(v, rows, cols):
    """The rows x cols matrix whose column-major vectorization is v."""
    if len(v) != rows * cols:
        raise ValueError("unvec needs %d entries, got %d"
                         % (rows * cols, len(v)))
    return tuple(tuple(v[j * rows + i] for j in range(cols))
                 for i in range(rows))


def _nonzeros(row):
    """The (column, entry) pairs of the nonzero entries of a row."""
    # the identity test passes over the shared ZERO without calling
    # Fraction.__bool__, which is most of the cost of scanning a sparse row
    return [(j, x) for j, x in enumerate(row) if x is not ZERO and x]


def transpose(m):
    if not m:
        return ()
    return tuple(zip(*m))


def madd(a, b):
    return tuple(tuple((x + y if y else x) if x else y
                       for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a, b):
    return tuple(tuple((x - y if y else x) if x else (-y if y else y)
                       for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mneg(a):
    return tuple(tuple(-x if x else x for x in row) for row in a)


def mscale(c, a):
    c = Fraction(c)
    return tuple(tuple(c * x if x else x for x in row) for row in a)


def matmul(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError("matmul shape mismatch: %sx%s times %sx%s" % (ra, ca, rb, cb))
    bnz = [_nonzeros(row) for row in b]
    out = []
    for row in a:
        acc = [ZERO] * cb
        for k, x in _nonzeros(row):
            for j, y in bnz[k]:
                acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def hstack(mats):
    mats = [m for m in mats]
    rows = len(mats[0])
    for m in mats:
        if len(m) != rows:
            raise ValueError("hstack row mismatch")
    return tuple(tuple(x for m in mats for x in m[i]) for i in range(rows))


def vstack(mats):
    out = []
    cols = None
    for m in mats:
        r, c = shape(m)
        if r == 0:
            continue
        if cols is None:
            cols = c
        elif c != cols:
            raise ValueError("vstack column mismatch")
        out.extend(m)
    return tuple(out)


def block_diag(mats):
    rows = sum(len(m) for m in mats)
    cols = sum(shape(m)[1] for m in mats)
    out = [[ZERO] * cols for _ in range(rows)]
    ro = co = 0
    for m in mats:
        r, c = shape(m)
        for i in range(r):
            out[ro + i][co:co + c] = m[i]
        ro += r
        co += c
    return tuple(tuple(row) for row in out)


def kron(a, b):
    cb = shape(b)[1]
    n = shape(a)[1] * cb
    bnz = [_nonzeros(row) for row in b]
    out = []
    for row in a:
        anz = [(j * cb, x) for j, x in _nonzeros(row)]
        for brow in bnz:
            prod = [ZERO] * n
            for off, x in anz:
                for j, y in brow:
                    prod[off + j] = x * y
            out.append(tuple(prod))
    return tuple(out)


def is_zero(m):
    return not any(map(any, m))


def rref(m):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots lists the pivot column of each nonzero
    row of R in order. Pivot choice is the first nonzero entry scanning rows
    top to bottom, so the result is canonical.
    """
    rows = [list(row) for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        # rows r.. are zero left of c, so the pivot row's support starts at c
        support = [j for j in range(c, ncols) if prow[j]]
        for j in support:
            prow[j] /= pv
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                row = rows[i]
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(m):
    if not m or not m[0]:
        return 0
    return len(rref(m)[1])


def solve_matrix(a, b):
    """Solve a @ X = b exactly. Returns X or None if inconsistent.

    When the solution is not unique the free variables are set to zero, which
    makes the answer canonical.
    """
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ra != rb:
        raise ValueError("solve shape mismatch")
    if ca == 0:
        return zeros(0, cb) if is_zero(b) else None
    aug, pivots = rref(hstack([a, b]))
    for c in pivots:
        if c >= ca:
            return None
    x = [(ZERO,) * cb] * ca
    for i, c in enumerate(pivots):
        x[c] = aug[i][ca:]
    return tuple(x)


def solve_vec(a, v):
    x = solve_matrix(a, tuple((e,) for e in v))
    if x is None:
        return None
    return tuple(row[0] for row in x)


def _null_vectors(r, pivots, n):
    """The canonical null vectors of an rref matrix r with n columns.

    Returns (vectors, free): for each free (non-pivot) column f, a length-n
    list with 1 at f and -r[i][f] at pivot column pivots[i].
    """
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    slot = {f: k for k, f in enumerate(free)}
    vecs = [[ZERO] * n for _ in free]
    for k, f in enumerate(free):
        vecs[k][f] = ONE
    for i, p in enumerate(pivots):
        for f, x in _nonzeros(r[i]):
            if f in slot:
                vecs[slot[f]][p] = -x
    return vecs, free


def kernel_data(m):
    """(basis, free) for ker(m): the n x k rref parametrization plus the
    free column indices the basis columns correspond to."""
    nrows, ncols = shape(m)
    if ncols == 0:
        return zeros(0, 0), ()
    if nrows == 0:
        return eye(ncols), tuple(range(ncols))
    vecs, free = _null_vectors(*rref(m), ncols)
    basis = tuple(zip(*vecs)) if vecs else zeros(ncols, 0)
    return basis, tuple(free)


def kernel_basis(m):
    """Columns spanning ker(m), in the canonical rref parametrization.

    Returns an n x k matrix whose j-th column has a 1 in the j-th free
    coordinate and back-substituted pivot entries.
    """
    return kernel_data(m)[0]


def cokernel(m):
    """Canonical cokernel of m: Q^n -> Q^m as a projection/section pair.

    Returns (free, P, S) for a cokernel of dimension k = len(free): the
    free (non-pivot) coordinates of Q^m, P k x m with P @ m = 0, and S
    m x k with P @ S = I. P is "reduce modulo the column space, keep the
    free coordinates" and S includes the free coordinates. Everything is
    exact and canonical.
    """
    nrows, ncols = shape(m)
    # rows of r span the column space of m inside Q^nrows
    r, pivots = rref(transpose(m)) if ncols else ((), ())
    p, free = _null_vectors(r, pivots, nrows)
    s = build(nrows, len(free), [(f, j, ONE) for j, f in enumerate(free)])
    return tuple(free), tuple(map(tuple, p)), s


def inverse(m):
    """Exact inverse, or None if m is not square invertible."""
    r, c = shape(m)
    if r != c:
        return None
    if r == 0:
        return ()
    x = solve_matrix(m, eye(r))
    if x is None:
        return None
    if matmul(m, x) != eye(r) or matmul(x, m) != eye(r):
        return None
    return x
