"""Fixtures shared by the test modules.

The honest strict categories here (function categories and their
linearizations, the walking arrow, small algebras and discrete
categories) are the inputs of the validator tests in `test_precat` and
of the construction tests in the other modules. Below them: random chain
complexes and chain maps, the 2-constant chq builders of the homotopy
tests, and the naive references for the matrix kernels and the lifting
property. No test module imports another; they all import from here.
"""

import itertools
from fractions import Fraction

from cosegal import base, ratmat
from cosegal.base import (
    chq_map, chq_obj, disk, empty, factorize, finset_map, finset_obj,
    identity, sphere, tensor, unit, vectq_map, vectq_obj,
)
from cosegal.colim import copair, coproduct
from cosegal.homotopy import TwoConstantData, two_constant_transfer
from cosegal.monoidal import MARKER, relabel, yoneda_module
from cosegal.precat import StrictCategory, from_strict_category
from cosegal.ratmat import shape


def _func_label(f):
    return "f" + "".join(str(v) for v in f)


def function_category(sizes):
    """The category whose objects are finite sets and whose homs are all
    functions between them, composition by substitution.

    sizes maps an object name to the size of its underlying set. Honest
    input for the validators: associativity and unit laws hold for a
    real reason, not by construction of the tables.
    """
    objects = tuple(sorted(sizes))
    funcs = {}
    homs = {}
    for a in objects:
        for b in objects:
            fs = [tuple(f) for f in
                  itertools.product(range(sizes[b]), repeat=sizes[a])]
            funcs[(a, b)] = fs
            homs[(a, b)] = finset_obj(_func_label(f) for f in fs)
    comps = {}
    for a in objects:
        for b in objects:
            for c in objects:
                images = []
                for f in funcs[(a, b)]:
                    for g in funcs[(b, c)]:
                        gf = tuple(g[f[i]] for i in range(sizes[a]))
                        images.append(funcs[(a, c)].index(gf))
                comps[(a, b, c)] = finset_map(
                    tensor(homs[(a, b)], homs[(b, c)]), homs[(a, c)],
                    tuple(images))
    idpoints = {}
    for a in objects:
        ident = tuple(range(sizes[a]))
        idpoints[a] = finset_map(unit("finset"), homs[(a, a)],
                                 (funcs[(a, a)].index(ident),))
    return StrictCategory("finset", objects, homs, comps, idpoints)


def linearize_category(cat):
    """The vectq category with the same composition tables, hom sets
    replaced by the rational vector spaces they span."""
    sizes = {key: cat.homs[key].size() for key in cat.homs}
    homs = {key: vectq_obj(sizes[key]) for key in cat.homs}
    comps = {}
    for key, m in cat.comps.items():
        a, b, c = key
        cols = sizes[(a, b)] * sizes[(b, c)]
        rows = sizes[(a, c)]
        matrix = [[0] * cols for _ in range(rows)]
        for j, image in enumerate(m.mapping):
            matrix[image][j] = 1
        comps[key] = vectq_map(tensor(homs[(a, b)], homs[(b, c)]),
                               homs[(a, c)], matrix)
    idpoints = {}
    for a, e in cat.idpoints.items():
        col = [[0] for _ in range(sizes[(a, a)])]
        col[e.mapping[0]][0] = 1
        idpoints[a] = vectq_map(unit("vectq"), homs[(a, a)], col)
    return StrictCategory("vectq", cat.objects, homs, comps, idpoints)


def walking_arrow():
    """Two objects, one non-identity morphism, an empty hom back."""
    homs = {
        ("A", "A"): finset_obj(["i"]),
        ("B", "B"): finset_obj(["i"]),
        ("A", "B"): finset_obj(["f"]),
        ("B", "A"): empty("finset"),
    }
    comps = {}
    for a in "AB":
        for b in "AB":
            for c in "AB":
                src = tensor(homs[(a, b)], homs[(b, c)])
                comps[(a, b, c)] = finset_map(
                    src, homs[(a, c)], (0,) * src.size())
    idpoints = {a: finset_map(unit("finset"), homs[(a, a)], (0,))
                for a in "AB"}
    return StrictCategory("finset", ("A", "B"), homs, comps, idpoints)


def group_algebra_z2():
    """The rational group algebra on two elements, one object."""
    h = vectq_obj(2)
    comp = vectq_map(tensor(h, h), h, [[1, 0, 0, 1], [0, 1, 1, 0]])
    e = vectq_map(unit("vectq"), h, [[1], [0]])
    return StrictCategory("vectq", ("x",), {("x", "x"): h},
                          {("x", "x", "x"): comp}, {"x": e})


def dual_numbers_chq():
    """One object, hom the two dimensional algebra with a square-zero
    generator, concentrated in degree 0."""
    h = chq_obj([0, 0], [[0, 0], [0, 0]])
    comp = chq_map(tensor(h, h), h, [[1, 0, 0, 0], [0, 1, 1, 0]])
    e = chq_map(unit("chq"), h, [[1], [0]])
    return StrictCategory("chq", ("x",), {("x", "x"): h},
                          {("x", "x", "x"): comp}, {"x": e})


def discrete_category(letters):
    """Unit homs on the diagonal, empty homs everywhere else."""
    homs = {}
    for a in letters:
        for b in letters:
            homs[(a, b)] = (finset_obj(["i"]) if a == b
                            else empty("finset"))
    comps = {}
    for a in letters:
        for b in letters:
            for c in letters:
                src = tensor(homs[(a, b)], homs[(b, c)])
                comps[(a, b, c)] = finset_map(
                    src, homs[(a, c)], (0,) * src.size())
    idpoints = {a: finset_map(unit("finset"), homs[(a, a)], (0,))
                for a in letters}
    return StrictCategory("finset", tuple(sorted(letters)), homs, comps,
                          idpoints)


def split_module():
    """The module of maps into the one object a of the linearized
    endofunctions of a two-point set, at truncation 2, with the marker
    renamed m: a vectq precategory on the letters a and m with split
    (("a",), ("m",)). No chain steps from m back to a, so the pair
    (m, a) spans no chain."""
    f = from_strict_category(linearize_category(function_category({"a": 2})),
                             2)
    return relabel(yoneda_module(f, "a"), {"a": "a", MARKER: "m"})


# ---------------------------------------------------------------------------
# random chain complexes and chain maps


def rand_chq(rng, max_rank=3, lo=0, hi=2):
    """A random bounded complex, built from a strictly upper staircase."""
    degrees = sorted(
        (rng.randint(lo, hi) for _ in range(rng.randint(0, max_rank))),
        reverse=True)
    n = len(degrees)
    diff = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if degrees[i] == degrees[j] - 1 and rng.random() < 0.5:
                diff[i][j] = rng.randint(-2, 2)
    # kill d*d by zeroing entries at random until the constructor accepts
    while True:
        try:
            return chq_obj(degrees, diff)
        except ValueError:
            for i in range(n):
                for j in range(n):
                    if diff[i][j] and rng.random() < 0.5:
                        diff[i][j] = 0


def rand_chq_map(rng, src, dst):
    """A random chain map src -> dst from the exact hom space basis."""
    entries = []
    for b in base.chq_hom_basis(src, dst):
        c = rng.randint(-2, 2)
        entries.extend((i, j, c * x) for i, j, x in ratmat.nonzeros(b.matrix))
    return chq_map(src, dst, ratmat.build(dst.size(), src.size(), entries))


# ---------------------------------------------------------------------------
# 2-constant chq builders


def fold_with_section(w):
    """The codiagonal w + w -> w and the first summand inclusion, a
    surjective non-injective replacement with a cheap unit section."""
    cop, injs = coproduct([w, w], backend=w.backend)
    return copair(cop, [identity(w), identity(w)], w), injs[0]


def fold_data(cat):
    reps = {}
    lifts = {}
    secs = {}
    for key, w in cat.homs.items():
        reps[key], secs[key] = fold_with_section(w)
    for a in cat.objects:
        lifts[a] = cat.idpoints[a].then(secs[(a, a)])
    return TwoConstantData(cat, reps, lifts)


def cylinder_data(cat):
    """Replacements through the cylinder middle of each identity: a
    cofibration section and a trivial-fibration replacement."""
    reps = {}
    lifts = {}
    for key, w in cat.homs.items():
        c, t = factorize(identity(w))
        reps[key] = t
        if key[0] == key[1]:
            lifts[key[0]] = cat.idpoints[key[0]].then(c)
    return TwoConstantData(cat, reps, lifts)


def zero_map(src, dst):
    """The zero chain map src -> dst."""
    return chq_map(src, dst, [[0] * src.size() for _ in range(dst.size())])


def padded_replacement(w, pads):
    """Identity on the w summand, zero on the padding complexes: always
    surjective, a quasi-iso exactly when every pad is acyclic."""
    cop, injs = coproduct([w] + list(pads), backend=w.backend)
    legs = [identity(w)] + [zero_map(p, w) for p in pads]
    return copair(cop, legs, w), injs[0]


def chainify_category(cat):
    """The chq category with the same tables, homs concentrated in degree
    zero."""
    lin = linearize_category(cat)
    homs = {key: chq_obj([0] * v.dim, [[0] * v.dim for _ in range(v.dim)])
            for key, v in lin.homs.items()}
    comps = {}
    for key, m in lin.comps.items():
        a, b, c = key
        comps[key] = chq_map(tensor(homs[(a, b)], homs[(b, c)]),
                             homs[(a, c)], m.matrix)
    idpoints = {a: chq_map(unit("chq"), homs[(a, a)], e.matrix)
                for a, e in lin.idpoints.items()}
    return StrictCategory("chq", cat.objects, homs, comps, idpoints)


def chq_pair_category():
    """Two objects, unit endomorphism homs, a two-cell complex one way
    and nothing back."""
    one = unit("chq")
    e = chq_obj([0, 1], [[0, 0], [0, 0]])
    z = empty("chq")
    homs = {("x", "x"): one, ("y", "y"): one, ("x", "y"): e, ("y", "x"): z}
    comps = {}
    for a in "xy":
        for b in "xy":
            for c in "xy":
                src = tensor(homs[(a, b)], homs[(b, c)])
                dst = homs[(a, c)]
                if src.size() == 0 or dst.size() == 0:
                    comps[(a, b, c)] = zero_map(src, dst)
                elif a == b or b == c:
                    n = dst.size()
                    comps[(a, b, c)] = chq_map(
                        src, dst,
                        [[1 if i == j else 0 for j in range(n)]
                         for i in range(n)])
    idpoints = {a: chq_map(unit("chq"), homs[(a, a)], [[1]]) for a in "xy"}
    return StrictCategory("chq", ("x", "y"), homs, comps, idpoints)


def rand_two_constant_chq(rng, truncation=3):
    """Fuzzed 2-constant unital chq precategories with surjective
    transitions: a function category concentrated in degree zero, each
    degree-1 slot re-seated by an identity, a cylinder, or a padded sum
    (the padding sometimes non-acyclic, so the input need not be
    co-Segal)."""
    letters = ("x", "y")[:rng.randrange(1, 3)]
    sizes = {a: rng.randrange(1, 3) for a in letters}
    cat = chainify_category(function_category(sizes))
    reps = {}
    lifts = {}
    secs = {}
    for key, w in cat.homs.items():
        style = rng.choice(["iso", "cylinder", "padded"])
        if style == "iso":
            reps[key], secs[key] = identity(w), identity(w)
        elif style == "cylinder":
            c, t = factorize(identity(w))
            reps[key], secs[key] = t, c
        else:
            pad = rng.choice([disk(1), disk(0), sphere(1)])
            reps[key], secs[key] = padded_replacement(w, [pad])
    for a in cat.objects:
        lifts[a] = cat.idpoints[a].then(secs[(a, a)])
    return two_constant_transfer(TwoConstantData(cat, reps, lifts),
                                 truncation)


# ---------------------------------------------------------------------------
# naive dense matrix references


def assert_exact(m):
    """Every entry of the matrix m is a Fraction."""
    for row in m:
        for x in row:
            assert type(x) is Fraction, (x, type(x))


def difference(a, b):
    """a - b for two matrices of one shape, built from their nonzeros."""
    assert shape(a) == shape(b)
    return ratmat.build(*shape(a), ratmat.nonzeros(a) + [
        (i, j, -x) for i, j, x in ratmat.nonzeros(b)])


def ref_madd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_kron(a, b):
    (ra, ca), (rb, cb) = shape(a), shape(b)
    return tuple(
        tuple(a[i // rb][j // cb] * b[i % rb][j % cb] for j in range(ca * cb))
        for i in range(ra * rb))


def full_hom_constraint(src, dst):
    """Rows cutting out the chain maps inside all dst x src matrices, on
    all nd * ns column-major vec coordinates of K: the chain condition
    kron(I, d_dst) - kron(d_src^T, I) together with one unit row per
    coordinate off the degree diagonal. Empty (no rows) for vectq."""
    ns, nd = src.size(), dst.size()
    if src.backend != "chq":
        return ratmat.zeros(0, nd * ns)
    left = ratmat.kron(ratmat.eye(ns), dst.diff)
    right = ratmat.kron(ratmat.transpose(src.diff), ratmat.eye(nd))
    off = [j * nd + i for j in range(ns) for i in range(nd)
           if dst.degrees[i] != src.degrees[j]]
    return ratmat.vstack([difference(left, right), ratmat.build(
        len(off), nd * ns, [(r, c, 1) for r, c in enumerate(off)])])


def reference_has_rlp(i, p):
    """The lifting-property test of vectq/chq maps through parametrized
    hom spaces: the square space is the kernel of the commuting condition
    on hom-space coordinates, each lift's boundary square is solved into
    those coordinates column by column, and p lifts when the squares lie
    in the span of the boundaries. `base.has_rlp` instead compares one
    rank with one dimension on plain vec coordinates."""
    a, b, x, y = i.src, i.dst, p.src, p.dst
    na, nb, nx, ny = a.size(), b.size(), x.size(), y.size()

    def hom_basis(s, d):
        constraints = full_hom_constraint(s, d)
        if s.size() == 0 or d.size() == 0:
            return ratmat.zeros(0, 0)
        if ratmat.shape(constraints)[0] == 0:
            return ratmat.eye(s.size() * d.size())
        return ratmat.kernel_data(constraints)[0]

    k_bx = hom_basis(b, x)
    k_ax = hom_basis(a, x)
    k_by = hom_basis(b, y)
    dim_ax = na * nx
    dim_by = nb * ny
    # the space of commuting squares: pairs (F, G) with p.F = G.i
    nax = ratmat.shape(k_ax)[1] if dim_ax else 0
    nby = ratmat.shape(k_by)[1] if dim_by else 0
    if nax + nby == 0:
        return True
    cols = []
    for c in range(nax):
        fv = tuple(k_ax[r][c] for r in range(dim_ax))
        fm = ratmat.unvec(fv, nx, na)
        pf = ratmat.matmul(p.matrix, fm) if nx and ny and na else ratmat.zeros(ny, na)
        cols.append(ratmat.vec(pf) if ny and na else ())
    left = (ratmat.mat(tuple(col[r] for col in cols) for r in range(ny * na))
            if ny * na else ratmat.zeros(0, nax))
    cols = []
    for c in range(nby):
        gv = tuple(k_by[r][c] for r in range(dim_by))
        gm = ratmat.unvec(gv, ny, nb)
        gi = ratmat.matmul(gm, i.matrix) if ny and nb and na else ratmat.zeros(ny, na)
        cols.append(ratmat.vec(gi) if ny and na else ())
    right = (ratmat.mat(tuple(col[r] for col in cols) for r in range(ny * na))
             if ny * na else ratmat.zeros(0, nby))
    if ny * na:
        square_rel = ratmat.hstack([left, ratmat.mneg(right)])
        squares = ratmat.kernel_data(square_rel)[0]
    else:
        squares = ratmat.eye(nax + nby)
    # the map sending a lift K to its boundary square (K.i, p.K), expressed
    # in the same parametrized coordinates
    nk = ratmat.shape(k_bx)[1] if nb * nx else 0
    tcols = []
    for c in range(nk):
        kv = tuple(k_bx[r][c] for r in range(nb * nx))
        km = ratmat.unvec(kv, nx, nb)
        ki = ratmat.matmul(km, i.matrix) if na else ratmat.zeros(nx, 0)
        pk = ratmat.matmul(p.matrix, km) if ny else ratmat.zeros(0, nb)
        fv = ratmat.vec(ki)
        gv = ratmat.vec(pk)
        fc = ratmat.solve_vec(k_ax, fv)[0] if dim_ax else ()
        gc = ratmat.solve_vec(k_by, gv)[0] if dim_by else ()
        tcols.append(tuple(fc) + tuple(gc))
    t = (ratmat.mat(tuple(col[r] for col in tcols) for r in range(nax + nby))
         if tcols else ratmat.zeros(nax + nby, 0))
    rank_t = ratmat.rank(t) if tcols else 0
    both = ratmat.hstack([t, squares]) if tcols else squares
    return ratmat.rank(both) == rank_t
