"""Exact linear algebra over the rationals.

Matrices are immutable tuples of tuples of Fraction. A matrix with m rows and
n columns represents a map Q^n -> Q^m acting on column vectors. Everything
here is deterministic: the same input always yields the same pivots, the same
kernel basis and the same cokernel coordinates, which the rest of the package
relies on for exact equality checks.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def mat(rows):
    """Build a matrix from an iterable of row iterables."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def shape(m):
    return (len(m), len(m[0]) if m else 0)


def eye(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def zeros(rows, cols):
    return tuple((ZERO,) * cols for _ in range(rows))


def transpose(m):
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def msub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mneg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mscale(c, a):
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def matmul(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError("matmul shape mismatch: %sx%s times %sx%s" % (ra, ca, rb, cb))
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


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
            for j in range(c):
                out[ro + i][co + j] = m[i][j]
        ro += r
        co += c
    return tuple(tuple(row) for row in out)


def kron(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    return tuple(
        tuple(a[i // rb][j // cb] * b[i % rb][j % cb] for j in range(ca * cb))
        for i in range(ra * rb)
    )


def is_zero(m):
    return all(x == 0 for row in m for x in row)


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
            if rows[i][c] != 0:
                pr = i
                break
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
    x = [[ZERO] * cb for _ in range(ca)]
    for i, c in enumerate(pivots):
        for j in range(cb):
            x[c][j] = aug[i][ca + j]
    return tuple(tuple(row) for row in x)


def solve_vec(a, v):
    x = solve_matrix(a, tuple((e,) for e in v))
    if x is None:
        return None
    return tuple(row[0] for row in x)


def kernel_data(m):
    """(basis, free) for ker(m): the n x k rref parametrization plus the
    free column indices the basis columns correspond to."""
    nrows, ncols = shape(m)
    if ncols == 0:
        return zeros(0, 0), ()
    if nrows == 0:
        return eye(ncols), tuple(range(ncols))
    r, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    cols = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        cols.append(v)
    basis = tuple(
        tuple(cols[j][i] for j in range(len(free))) for i in range(ncols))
    return basis, tuple(free)


def kernel_basis(m):
    """Columns spanning ker(m), in the canonical rref parametrization.

    Returns an n x k matrix whose j-th column has a 1 in the j-th free
    coordinate and back-substituted pivot entries.
    """
    return kernel_data(m)[0]


def cokernel(m):
    """Canonical cokernel of m: Q^n -> Q^m as a projection/section pair.

    Returns (k, P, S) where P is k x m with P @ m = 0, S is m x k with
    P @ S = I, and P is "reduce modulo the column space, keep the non-pivot
    coordinates". Everything is exact and canonical.
    """
    nrows, ncols = shape(m)
    r, pivots = rref(transpose(m)) if ncols else ((), ())
    # rows of r span the column space of m inside Q^nrows
    pivset = set(pivots)
    free = [c for c in range(nrows) if c not in pivset]
    k = len(free)
    p = [[ZERO] * nrows for _ in range(k)]
    for row_i, f in enumerate(free):
        p[row_i][f] = ONE
        for i, pc in enumerate(pivots):
            p[row_i][pc] = -r[i][f]
    s = [[ZERO] * k for _ in range(nrows)]
    for j, f in enumerate(free):
        s[f][j] = ONE
    return k, tuple(tuple(row) for row in p), tuple(tuple(row) for row in s)


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
