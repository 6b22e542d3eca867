"""The three concrete base categories.

Every computation in this package happens inside one of three symmetric
monoidal categories, all exact:

- "finset": finite labeled sets with functions; monoidal product is the
  cartesian product.
- "vectq": finite dimensional rational vector spaces with linear maps;
  monoidal product is the tensor product.
- "chq": bounded chain complexes of finite dimensional rational spaces;
  monoidal product is the tensor product of complexes with the usual sign.

Objects and morphisms are immutable. The tensor product is strictly
associative by representation choice: finset labels are tuples of atoms and
tensoring concatenates them, vectq/chq use Kronecker products, and the unit
satisfies I (x) X == X literally on vectq/chq.

Composition is diagrammatic: f.then(g) is f first, then g.
"""

import itertools
import operator
from dataclasses import dataclass

from . import ratmat
from .ratmat import ONE

BACKENDS = ("finset", "vectq", "chq")


@dataclass(frozen=True)
class MObject:
    """An object of one of the three base categories.

    Exactly one payload group is populated: `labels` for finset (a tuple of
    labels, each label itself a tuple of atom strings), `dim` for vectq,
    `degrees` and `diff` for chq (`diff` a square `ratmat.Matrix` with
    d(basis j) read off column j; entries only where deg(row) = deg(col)-1
    and d*d = 0). Equality and hashing are structural; a differential
    compares by its shape and nonzeros.
    """

    backend: str
    labels: tuple = None
    dim: int = None
    degrees: tuple = None
    diff: ratmat.Matrix = None

    def size(self):
        if self.backend == "finset":
            return len(self.labels)
        if self.backend == "vectq":
            return self.dim
        return len(self.degrees)


def finset_obj(labels):
    """A finite set. Labels may be strings (wrapped as one-atom tuples);
    every label must be a nonempty tuple of nonempty strings."""
    norm = tuple(
        (lbl,) if isinstance(lbl, str) else tuple(lbl) for lbl in labels
    )
    out = _finset(norm)
    for lbl in norm:
        if not lbl or not all(isinstance(a, str) and a for a in lbl):
            raise ValueError("bad finset label %r" % (lbl,))
    return out


def _finset(labels):
    """The finite set on a tuple of labels, which must be distinct.

    Every finset object is made here. The package's own sites pass labels
    made from the labels of finsets it holds, so they are well formed by
    construction; `finset_obj` checks the form of labels from outside.
    """
    if len(set(labels)) != len(labels):
        raise ValueError("finset labels must be distinct: %r" % (labels,))
    return MObject("finset", labels=labels)


def vectq_obj(dim):
    # operator.index refuses a float, Fraction or string rather than
    # truncate it; chq degrees and finset indices go through it too
    dim = operator.index(dim)
    if dim < 0:
        raise ValueError("negative dimension")
    return MObject("vectq", dim=dim)


def chq_obj(degrees, diff):
    degrees = tuple(map(operator.index, degrees))
    n = len(degrees)
    diff = ratmat.mat(diff, n)
    if not ratmat.has_shape(diff, n, n):
        raise ValueError("chq differential must be %dx%d" % (n, n))
    for i, j, _ in ratmat.nonzeros(diff):
        if degrees[i] != degrees[j] - 1:
            raise ValueError("chq differential entry off the degree line")
    if not ratmat.is_zero(ratmat.matmul(diff, diff)):
        raise ValueError("chq differential does not square to zero")
    return MObject("chq", degrees=degrees, diff=diff)


# the initial objects and the monoidal units; objects are immutable, so
# each backend shares one of each, and `then` settles the end check of a
# map that starts or ends on one of them by identity
_EMPTIES = {"finset": finset_obj([]), "vectq": vectq_obj(0),
            "chq": chq_obj([], [])}
_UNITS = {"finset": finset_obj(["I"]), "vectq": vectq_obj(1),
          "chq": chq_obj([0], [[0]])}


def empty(backend):
    return _EMPTIES[backend]


def unit(backend):
    return _UNITS[backend]


def sphere(n):
    """One generator in degree n, zero differential."""
    return chq_obj([n], [[0]])


def disk(n):
    """Generators e0 in degree n and e1 in degree n-1 with d(e0) = e1."""
    return chq_obj([n, n - 1], [[0, 0], [1, 0]])


@dataclass(frozen=True)
class MMorphism:
    """A morphism src -> dst.

    finset: `mapping[i]` is the dst index of the image of src label i.
    vectq/chq: `matrix` is a `ratmat.Matrix` of shape (dst.size(),
    src.size()), also when either is 0; chq matrices are degree preserving
    and commute with the differentials.
    """

    backend: str
    src: MObject
    dst: MObject
    mapping: tuple = None
    matrix: ratmat.Matrix = None

    def then(self, other):
        """Diagrammatic composition: self first, then other."""
        # the identity test settles the common case where both ends are
        # one object; equal but distinct ends still get the full check
        if self.dst is not other.src and self.dst != other.src:
            raise ValueError("composition mismatch")
        if self.backend == "finset":
            return MMorphism(
                "finset", self.src, other.dst,
                mapping=tuple(other.mapping[i] for i in self.mapping))
        return MMorphism(self.backend, self.src, other.dst,
                         matrix=ratmat.matmul(other.matrix, self.matrix))


def finset_map(src, dst, mapping):
    mapping = tuple(map(operator.index, mapping))
    if len(mapping) != len(src.labels):
        raise ValueError("finset mapping has wrong length")
    for i in mapping:
        if not (0 <= i < len(dst.labels)):
            raise ValueError("finset mapping index out of range")
    return MMorphism("finset", src, dst, mapping=mapping)


def vectq_map(src, dst, matrix):
    matrix = ratmat.mat(matrix, src.dim)
    if not ratmat.has_shape(matrix, dst.dim, src.dim):
        raise ValueError("vectq matrix must be %dx%d" % (dst.dim, src.dim))
    return MMorphism("vectq", src, dst, matrix=matrix)


def chq_map(src, dst, matrix):
    m, n = len(dst.degrees), len(src.degrees)
    matrix = ratmat.mat(matrix, n)
    if not ratmat.has_shape(matrix, m, n):
        raise ValueError("chq matrix must be %dx%d" % (m, n))
    for i, j, _ in ratmat.nonzeros(matrix):
        if dst.degrees[i] != src.degrees[j]:
            raise ValueError("chq map entry off the degree diagonal")
    if ratmat.matmul(dst.diff, matrix) != ratmat.matmul(matrix, src.diff):
        raise ValueError("chq map does not commute with differentials")
    return MMorphism("chq", src, dst, matrix=matrix)


def make_map(src, dst, payload):
    if src.backend == "finset":
        return finset_map(src, dst, payload)
    if src.backend == "vectq":
        return vectq_map(src, dst, payload)
    return chq_map(src, dst, payload)


def identity(x):
    if x.backend == "finset":
        return MMorphism("finset", x, x, mapping=tuple(range(len(x.labels))))
    return MMorphism(x.backend, x, x, matrix=ratmat.eye(x.size()))


def zero_map(src, dst):
    """The zero map for vectq/chq; for finset only out of the empty set.

    Out of an empty object it is the initial map, the one map there is,
    on every backend. Both ends must lie in one backend.
    """
    if src.backend != dst.backend:
        raise ValueError("zero map across backends %r -> %r"
                         % (src.backend, dst.backend))
    if src.backend == "finset":
        if src.labels:
            raise ValueError("finset has no zero maps out of nonempty sets")
        return MMorphism("finset", src, dst, mapping=())
    return MMorphism(src.backend, src, dst,
                     matrix=ratmat.zeros(dst.size(), src.size()))


def is_identity(f):
    return f.src == f.dst and f == identity(f.src)


def basis_point(x, k):
    """The point I -> x at element k (finset) or basis vector k
    (vectq/chq). On chq the vector must be a degree-0 cycle, or
    `make_map` refuses it."""
    if x.backend == "finset":
        return make_map(unit("finset"), x, (k,))
    return make_map(unit(x.backend), x,
                    ratmat.build(x.size(), 1, [(k, 0, ONE)]))


# ---------------------------------------------------------------------------
# tensor


def tensor(x, y):
    if x.backend != y.backend:
        raise ValueError("backend mismatch")
    if x.backend == "finset":
        return _finset(tuple([a + b for a in x.labels for b in y.labels]))
    if x.backend == "vectq":
        return vectq_obj(x.dim * y.dim)
    degrees = tuple([dx + dy for dx in x.degrees for dy in y.degrees])
    # d(e_i (x) f_j) = d(e_i) (x) f_j + (-1)^|e_i| e_i (x) d(f_j). The sign
    # comes from parity: (-1) ** d is a float for d < 0. Not `chq_obj`:
    # its d^2 = 0 matmul would run on every tensor of `cosegalify_chq`, and
    # the Koszul form squares to zero by construction (tests/test_base.py:
    # test_chq_tensor_differential_squares_to_zero and _is_the_koszul_sum).
    return MObject("chq", degrees=degrees, diff=ratmat.tensor_differential(
        x.diff, y.diff, [d % 2 for d in x.degrees]))


def tensor_mor(*mors, src=None, dst=None):
    """The tensor of two or more morphisms, bracketed from the left.

    src and dst default to the tensors of the factors' sources and of
    their targets. A caller that holds an end already passes it in, and
    it is taken as given, with no check: it must equal that tensor, or
    the map is wrong. The payload is one left fold over the factors'
    mappings or matrices, with no intermediate tensor object.
    """
    if src is None:
        src = tensor_multi([m.src for m in mors])
    if dst is None:
        dst = tensor_multi([m.dst for m in mors])
    if src.backend == "finset":
        out = (0,)
        for m in mors:
            nd = len(m.dst.labels)
            out = [o * nd + i for o in out for i in m.mapping]
        return MMorphism("finset", src, dst, mapping=tuple(out))
    matrix = mors[0].matrix
    for m in mors[1:]:
        matrix = ratmat.kron(matrix, m.matrix)
    return MMorphism(src.backend, src, dst, matrix=matrix)


def tensor_multi(objs, backend=None):
    objs = list(objs)
    if not objs:
        if backend is None:
            raise ValueError("empty tensor needs an explicit backend")
        return unit(backend)
    out = objs[0]
    for o in objs[1:]:
        out = tensor(out, o)
    return out


def symmetry(x, y):
    """The braiding x (x) y -> y (x) x (with Koszul signs on chq)."""
    src = tensor(x, y)
    dst = tensor(y, x)
    nx, ny = x.size(), y.size()
    if x.backend == "finset":
        mapping = tuple(j * nx + i for i in range(nx) for j in range(ny))
        return MMorphism("finset", src, dst, mapping=mapping)
    chq = x.backend == "chq"
    entries = [(j * nx + i, i * ny + j,
                -ONE if chq and x.degrees[i] * y.degrees[j] % 2 else ONE)
               for i in range(nx) for j in range(ny)]
    return make_map(src, dst, ratmat.build(nx * ny, nx * ny, entries))


def left_unitor(x):
    """The canonical iso I (x) x -> x (the identity matrix on vectq/chq)."""
    src = tensor(unit(x.backend), x)
    if x.backend == "finset":
        return MMorphism("finset", src, x, mapping=tuple(range(len(x.labels))))
    return MMorphism(x.backend, src, x, matrix=ratmat.eye(x.size()))


def right_unitor(x):
    src = tensor(x, unit(x.backend))
    if x.backend == "finset":
        return MMorphism("finset", src, x, mapping=tuple(range(len(x.labels))))
    return MMorphism(x.backend, src, x, matrix=ratmat.eye(x.size()))


def invert(f):
    """The inverse of an isomorphism; raises if f is not one."""
    if f.backend == "finset":
        n = len(f.src.labels)
        if len(f.dst.labels) != n or len(set(f.mapping)) != n:
            raise ValueError("not an isomorphism")
        inv = [0] * n
        for i, j in enumerate(f.mapping):
            inv[j] = i
        return MMorphism("finset", f.dst, f.src, mapping=tuple(inv))
    if f.src.size() != f.dst.size():
        raise ValueError("not an isomorphism")
    inv = ratmat.inverse(f.matrix)
    if inv is None:
        raise ValueError("not an isomorphism")
    if f.backend == "chq":
        return chq_map(f.dst, f.src, inv)
    return MMorphism(f.backend, f.dst, f.src, matrix=inv)


# ---------------------------------------------------------------------------
# predicates


def is_injective(f):
    if f.backend == "finset":
        return len(set(f.mapping)) == len(f.mapping)
    return ratmat.rank(f.matrix) == f.src.size()


def is_surjective(f):
    if f.backend == "finset":
        return len(set(f.mapping)) == len(f.dst.labels)
    return ratmat.rank(f.matrix) == f.dst.size()


def is_isomorphism(f):
    return is_injective(f) and is_surjective(f)


def degree_positions(x, n):
    return [i for i, d in enumerate(x.degrees) if d == n]


def degree_window(objs):
    """The least and the greatest degree of the chq objects objs, as the
    window of `generating_cofibrations`; None off chq."""
    degs = [d for x in objs if x.backend == "chq" for d in x.degrees]
    return (min(degs), max(degs)) if degs else None


def _degree_block(x, n):
    """The matrix block of x.diff from degree-n columns to degree-(n-1) rows."""
    rows, cols = degree_positions(x, n - 1), degree_positions(x, n)
    return ratmat.submatrix(x.diff, rows, cols), len(cols)


def homology(x):
    """Betti numbers of a chq object as a {degree: dim} dict (zeros omitted)."""
    if x.backend != "chq":
        raise ValueError("homology needs the chq backend")
    if not x.degrees:
        return {}
    lo = min(x.degrees)
    # the blocks d_n for n = lo .. hi + 1, each ranked once: H_n reads
    # the ranks of d_n and d_(n+1)
    blocks = [_degree_block(x, n) for n in range(lo, max(x.degrees) + 2)]
    ranks = [ratmat.rank(b) for b, _ in blocks]
    out = {}
    for k, (_, ncols) in enumerate(blocks[:-1]):
        h = ncols - ranks[k] - ranks[k + 1]
        if h:
            out[lo + k] = h
    return out


def mapping_cone(f):
    """The cone of a chq map: shifted source followed by the target."""
    x, y = f.src, f.dst
    degrees = tuple(d + 1 for d in x.degrees) + y.degrees
    nx, n = len(x.degrees), len(degrees)
    entries = (_placed(ratmat.mneg(x.diff), 0, 0) + _placed(f.matrix, nx, 0)
               + _placed(y.diff, nx, nx))
    return chq_obj(degrees, ratmat.build(n, n, entries))


def _placed(m, row, col):
    """The nonzero entries of m, moved to start at (row, col)."""
    return [(row + i, col + j, x) for i, j, x in ratmat.nonzeros(m)]


def is_quasi_iso(f):
    return not homology(mapping_cone(f))


def is_weak_equivalence(f):
    """finset: bijection; vectq: invertible; chq: quasi-isomorphism."""
    if f.backend == "chq":
        return is_quasi_iso(f)
    return is_isomorphism(f)


def is_fibration(f):
    """Every map for finset/vectq; degreewise surjective for chq."""
    if f.backend != "chq":
        return True
    degs = set(f.src.degrees) | set(f.dst.degrees)
    for n in degs:
        rows = degree_positions(f.dst, n)
        cols = degree_positions(f.src, n)
        if not rows:
            continue
        if not cols:
            return False
        if ratmat.rank(ratmat.submatrix(f.matrix, rows, cols)) != len(rows):
            return False
    return True


def is_trivial_fibration(f):
    """Surjective for finset/vectq; surjective quasi-iso for chq.

    On finset/vectq this is weaker than "fibration and weak equivalence";
    it is the class factorize produces and the class the generating
    cofibrations detect, which is what every caller needs.
    """
    if f.backend == "chq":
        return is_fibration(f) and is_quasi_iso(f)
    return is_surjective(f)


def is_cofibration(f):
    """Injective (degreewise injective on chq)."""
    return is_injective(f)


# ---------------------------------------------------------------------------
# factorization and lifting


def _suffix_label(lbl, i):
    return (",".join(lbl) + "·" + str(i),)


def factorize(f):
    """Factor f as a cofibration followed by a trivial fibration.

    finset/vectq: through src (+) dst. chq: through the mapping cylinder
    (src, shifted src, dst), whose projection is a surjective quasi-iso.
    """
    x, y = f.src, f.dst
    if f.backend == "finset":
        labels = tuple(_suffix_label(l, 0) for l in x.labels) + tuple(
            _suffix_label(l, 1) for l in y.labels)
        mid = _finset(labels)
        j = MMorphism("finset", x, mid, mapping=tuple(range(len(x.labels))))
        q = MMorphism("finset", mid, y, mapping=tuple(f.mapping) + tuple(
            range(len(y.labels))))
        return j, q
    nx, ny = x.size(), y.size()
    if f.backend == "vectq":
        mid = vectq_obj(nx + ny)
    else:
        # the cylinder: d(s e) = -e - s(de) + f(e) on the shifted copy s e
        degrees = x.degrees + tuple(d + 1 for d in x.degrees) + y.degrees
        n = len(degrees)
        entries = (_placed(x.diff, 0, 0)
                   + _placed(ratmat.mneg(x.diff), nx, nx)
                   + [(i, nx + i, -ONE) for i in range(nx)]
                   + _placed(f.matrix, 2 * nx, nx)
                   + _placed(y.diff, 2 * nx, 2 * nx))
        mid = chq_obj(degrees, ratmat.build(n, n, entries))
    # x and y sit at the first and last positions of mid
    n = mid.size()
    j = make_map(x, mid, ratmat.build(n, nx, [(i, i, ONE) for i in range(nx)]))
    q = make_map(mid, y, ratmat.build(ny, n, _placed(f.matrix, 0, 0) + [
        (i, n - ny + i, ONE) for i in range(ny)]))
    return j, q


def generating_cofibrations(backend, window=None):
    """The generating cofibrations of the backend.

    chq needs a degree window (lo, hi) covering the supports involved; the
    family is sphere(n-1) -> disk(n) for n = lo .. hi+1 (one disk above the
    window, which is needed to detect homology injectivity in the top
    degree).
    """
    if backend == "finset":
        e = empty("finset")
        one = finset_obj(["0"])
        two = finset_obj(["0", "1"])
        return [MMorphism("finset", e, one, mapping=()),
                finset_map(one, two, [0])]
    if backend == "vectq":
        z = empty("vectq")
        q1 = vectq_obj(1)
        q2 = vectq_obj(2)
        return [vectq_map(z, q1, ratmat.zeros(1, 0)),
                vectq_map(q1, q2, [[1], [0]])]
    if window is None:
        raise ValueError("chq generating cofibrations need a degree window")
    lo, hi = window
    out = []
    for n in range(lo, hi + 2):
        s = sphere(n - 1)
        d = disk(n)
        out.append(chq_map(s, d, [[0], [1]]))
    return out


def enumerate_maps(x, y):
    """All finset maps x -> y (exhaustive; meant for small sets)."""
    if x.backend != "finset":
        raise ValueError("enumerate_maps is finset only")
    n = len(x.labels)
    m = len(y.labels)
    if n == 0:
        yield MMorphism("finset", x, y, mapping=())
        return
    if m == 0:
        return
    for mapping in itertools.product(range(m), repeat=n):
        yield MMorphism("finset", x, y, mapping=mapping)


def _degrees(x):
    """The degree of each basis vector of x; on vectq every one is 0."""
    return x.degrees or (0,) * x.size()


def _hom_positions(src, dst):
    """The hom coordinates of the maps src -> dst, as (starts, rows, ranks).

    They are the entries (i, j) with deg_dst(i) == deg_src(j), taken in
    column-major vec order (position j * nd + i): the degree diagonal on
    chq, and every entry on vectq. rows[d] lists the dst indices of
    degree d and ranks[i] is the place of i in its list. Column j holds
    the coordinates from starts[j] up to starts[j + 1], one per index in
    rows[deg_src(j)], so entry (i, j) is coordinate starts[j] + ranks[i];
    starts ends with the number of coordinates.
    """
    rows, ranks = {}, []
    for i, d in enumerate(_degrees(dst)):
        at = rows.setdefault(d, [])
        ranks.append(len(at))
        at.append(i)
    starts = [0]
    for d in _degrees(src):
        starts.append(starts[-1] + len(rows.get(d, ())))
    return starts, rows, ranks


def _from_hom(src, dst, coords, hom):
    """The map src -> dst whose entries at its hom coordinates are coords,
    a sequence in coordinate order; every other entry is zero. hom is
    `_hom_positions(src, dst)`."""
    starts, rows, _ = hom
    return make_map(src, dst, ratmat.build(dst.size(), src.size(), [
        (i, j, x) for j, d in enumerate(_degrees(src))
        for i, x in zip(rows.get(d, ()), coords[starts[j]:starts[j + 1]])
        if x]))


def _hom_constraint(src, dst, hom):
    """Rows cutting out the chain maps src -> dst on hom coordinates.

    Row (r, c), for deg_dst(r) == deg_src(c) - 1, is entry (r, c) of
    d_dst K - K d_src, read off the nonzeros of the two differentials.
    Empty (no rows) on vectq, where all nd * ns entries are coordinates.
    hom is `_hom_positions(src, dst)`.
    """
    if src.backend != "chq":
        return ratmat.zeros(0, src.size() * dst.size())
    starts, rows, ranks = hom
    cols = {}  # the src indices of each degree
    for c, d in enumerate(src.degrees):
        cols.setdefault(d, []).append(c)
    # entry (r, c) of d_dst K reads K(k, c), and of K d_src reads K(r, k)
    terms = [((r, c), starts[c] + ranks[k], x)
             for r, k, x in ratmat.nonzeros(dst.diff)
             for c in cols.get(dst.degrees[k], ())]
    terms += [((r, c), starts[k] + n, -x)
              for k, c, x in ratmat.nonzeros(src.diff)
              for n, r in enumerate(rows.get(src.degrees[k], ()))]
    index = {}  # one row per entry (r, c), numbered as they come
    entries = [(index.setdefault(key, len(index)), q, x)
               for key, q, x in terms]
    return ratmat.build(len(index), starts[-1], entries)


def chq_hom_basis(src, dst):
    """A basis of the space of chain maps src -> dst (of all linear maps
    on vectq), as morphisms."""
    hom = _hom_positions(src, dst)
    basis = _chain_maps(src, dst, hom)
    return tuple(_from_hom(src, dst, ratmat.vec(col), hom) for col in
                 ratmat.split_columns(basis, [1] * ratmat.shape(basis)[1]))


class NoSolution(ValueError):
    """The equations of `solve_map` contradict each other."""


def solve_map(src, dst, pre, post):
    """The map h: src -> dst fixed by equations, as (h, unique).

    h satisfies i.then(h) == f for each (i, f) in pre and h.then(p) == g
    for each (p, g) in post; unique tells whether the equations leave it
    no freedom. Raises NoSolution, a ValueError, when they contradict
    each other, and a plain ValueError when the ends of an equation do
    not match: i.dst == src, f.src == i.src and f.dst == dst; p.src ==
    dst, g.src == src and g.dst == p.dst.

    finset: the pre equations force the image of each point some i hits,
    in the order given, and raise where two of them disagree; every other
    point goes to the first point of dst that each post equation allows.
    h is None when a point has no image the post equations allow. unique
    means no point has a second image they allow: a forced point has
    one, and the scan of an unforced point's images stops at a second.

    vectq/chq: one linear system on the hom coordinates of h (see
    `_hom_positions`): the chain-map rows and, per equation, a block on
    the hom coordinates of its map, solved with the free coordinates
    zero, so h is canonical; unique means full column rank. On all vec
    coordinates, each off-degree one would have a unit row of its own
    that no hom coordinate enters, and every other row would meet only
    one of the two kinds, with a zero right-hand side on the off-degree
    kind, as f and g are chain maps. So the pivots among the hom
    coordinates, the free coordinates, the canonical solution and the
    uniqueness are those of that full system.

    Before that system, when the legs i of the pre equations have at
    least as many columns (sum of i.src.size()) as src has dimensions,
    the pre equations alone are tried: h [i_1 ... i_k] = [f_1 ... f_k]
    as one system I^T X = F^T of sum x (ns + nd) entries, whose rank
    is that of I = [i_1 ... i_k]. If it has no solution, neither has
    the hom system, which holds it. If I has rank ns, I is onto and the
    pre equations pin h among all linear maps, to h = X^T; the size
    condition is needed for that rank. Then h is the hom system's
    answer, unique, once it meets each post equation (else there is no
    solution). It is a map of the backend: I is a degree-preserving map
    onto src, so each degree block of I is onto, and a vector e of
    degree n is I a for some a of degree n, so h e = F a has degree n;
    and (d h - h d) I = d F - F d = 0 with I onto gives d h = h d. So
    `make_map` never refuses it. Otherwise (rank below ns) the hom
    system decides.
    """
    for side, eqs, ends in (
            ("pre", pre, lambda i, f: (("i.dst == src", i.dst, src),
                                       ("f.src == i.src", f.src, i.src),
                                       ("f.dst == dst", f.dst, dst))),
            ("post", post, lambda p, g: (("p.src == dst", p.src, dst),
                                         ("g.src == src", g.src, src),
                                         ("g.dst == p.dst", g.dst, p.dst)))):
        for n, eq in enumerate(eqs):
            for need, x, y in ends(*eq):
                if x is not y and x != y:
                    raise ValueError("%s equation %d needs %s"
                                     % (side, n, need))
    if src.backend == "finset":
        forced = {}
        for i, f in pre:
            for jb, jx in zip(i.mapping, f.mapping):
                if forced.setdefault(jb, jx) != jx:
                    raise NoSolution("the equations force two images")
        mapping, unique = [], True
        for jb in range(len(src.labels)):
            cand = (forced[jb],) if jb in forced else range(len(dst.labels))
            allowed = (jx for jx in cand if all(
                p.mapping[jx] == g.mapping[jb] for p, g in post))
            jx = next(allowed, None)
            if jx is None:
                return None, False
            if unique and next(allowed, None) is not None:
                unique = False
            mapping.append(jx)
        return (MMorphism("finset", src, dst, mapping=tuple(mapping)),
                unique)
    if pre and sum(i.src.size() for i, _ in pre) >= src.size():
        x, rank = ratmat.solve_matrix(
            ratmat.vstack([ratmat.transpose(i.matrix) for i, _ in pre]),
            ratmat.vstack([ratmat.transpose(f.matrix) for _, f in pre]))
        if x is None:
            raise NoSolution("the equations have no common solution")
        if rank == src.size():
            h = make_map(src, dst, ratmat.transpose(x))
            if any(h.then(p) != g for p, g in post):
                raise NoSolution("the equations have no common solution")
            return h, True
    # the hom coordinates of h are indexed once, and those of each
    # equation's map f once, for its block and for the right-hand side
    # of its rows, f at its hom coordinates
    hom = _hom_positions(src, dst)
    blocks, rhs = [], []

    def equation(m, f, at):
        rows, nd = at[1], f.dst.size()
        v = ratmat.vec(f.matrix)
        blocks.append(m)
        rhs.extend(v[j * nd + i] for j, d in enumerate(_degrees(f.src))
                   for i in rows.get(d, ()))

    for i, f in pre:
        at = _hom_positions(i.src, dst)
        equation(_precompose(i, dst, at, hom), f, at)
    for p, g in post:
        at = _hom_positions(src, p.dst)
        equation(_postcompose(p, src, at, hom), g, at)
    # the chain-map rows come last: their right-hand side is zero
    blocks.append(_hom_constraint(src, dst, hom))
    sol, rank = ratmat.solve_vec(ratmat.vstack(blocks), rhs)
    if sol is None:
        raise NoSolution("the equations have no common solution")
    return _from_hom(src, dst, sol, hom), rank == len(sol)


def find_lift(i, p, f, g):
    """A lift in the square (f: A->X, g: B->Y) against i: A->B, p: X->Y.

    Returns h: B -> X with i.then(h) == f and h.then(p) == g, or None.
    """
    if not (i.then(g) == f.then(p)):
        raise ValueError("the square does not commute")
    try:
        h, _ = solve_map(i.dst, p.src, [(i, f)], [(p, g)])
    except NoSolution:
        return None
    if h is not None and i.then(h) == f and h.then(p) == g:
        return h
    return None


def has_rlp(i, p):
    """Whether p has the right lifting property against i, over all squares.

    finset: exhaustive over all commuting squares (desk scale). vectq/chq:
    exact rank condition on the space of (chain) maps. For an explicit
    witness lift on a concrete square use find_lift.
    """
    if i.backend != p.backend:
        raise ValueError("backend mismatch")
    a, b, x, y = i.src, i.dst, p.src, p.dst
    if i.backend == "finset":
        for f in enumerate_maps(a, x):
            for g in enumerate_maps(b, y):
                if i.then(g) == f.then(p):
                    if find_lift(i, p, f, g) is None:
                        return False
        return True
    # p lifts against i exactly when K -> (K i, p K) maps the chain maps
    # B -> X onto the commuting squares: pairs of chain maps F: A -> X,
    # G: B -> Y with p F = G i. The image always lies among the squares,
    # so comparing the rank of the map with their dimension settles it.
    # Maps act on hom coordinates, restricted to the chain maps through a
    # kernel basis of each hom space; the four hom spaces are indexed once
    # each.
    bx, ax, by, ay = (_hom_positions(*ends)
                      for ends in ((b, x), (a, x), (b, y), (a, y)))
    k_bx, k_ax, k_by = (_chain_maps(b, x, bx), _chain_maps(a, x, ax),
                        _chain_maps(b, y, by))
    boundary = ratmat.vstack([_precompose(i, x, ax, bx),
                              _postcompose(p, b, by, bx)])
    rank_lift = ratmat.rank(ratmat.matmul(boundary, k_bx))
    commuting = ratmat.hstack([
        ratmat.matmul(_postcompose(p, a, ay, ax), k_ax),
        ratmat.mneg(ratmat.matmul(_precompose(i, y, ay, by), k_by))])
    dim_squares = (ratmat.shape(k_ax)[1] + ratmat.shape(k_by)[1]
                   - ratmat.rank(commuting))
    return rank_lift == dim_squares


def _chain_maps(src, dst, hom):
    """A basis of the (chain) maps src -> dst, as the columns of a matrix
    on hom coordinates: the rref kernel basis of `_hom_constraint`. hom
    is `_hom_positions(src, dst)`."""
    return ratmat.kernel_data(_hom_constraint(src, dst, hom))[0]


def _precompose(f, x, out, col):
    """The matrix of K -> K f, from the hom coordinates of f.dst -> x to
    those of f.src -> x. Entry (i, j) of f sends entry (r, i) of K to
    entry (r, j) of K f for each r of x of i's degree: the k-th
    coordinate of column i to the k-th of column j. out and col are the
    `_hom_positions` of f.src -> x and f.dst -> x."""
    out, col = out[0], col[0]
    return ratmat.build(out[-1], col[-1], [
        (out[j] + k, col[i] + k, v) for i, j, v in ratmat.nonzeros(f.matrix)
        for k in range(col[i + 1] - col[i])])


def _postcompose(f, a, out, col):
    """The matrix of K -> f K, from the hom coordinates of a -> f.src to
    those of a -> f.dst. Column c of f K is the block of f in c's degree
    applied to column c of K. out and col are the `_hom_positions` of
    a -> f.dst and a -> f.src."""
    out, _, ranks = out
    col, _, franks = col
    degrees, blocks = _degrees(f.src), {}
    for r, i, v in ratmat.nonzeros(f.matrix):
        blocks.setdefault(degrees[i], []).append((ranks[r], franks[i], v))
    return ratmat.build(out[-1], col[-1], [
        (out[c] + r, col[c] + i, v) for c, d in enumerate(_degrees(a))
        for r, i, v in blocks.get(d, ())])
