"""Seeded input generators for the benchmark, built on the public cosegal API.

These functions re-express the strict-category and 2-constant fixtures the
package's tests use (function categories, their linearized and chain
versions, the dual numbers, padded and cylinder replacements, and the
free pointing of a unit-forgotten precategory). Every random choice keeps
the size and shape of an instance fixed and changes only its coordinates:
a seed permutes finite-set labels and applies a degree-preserving monomial
change of basis (a permutation times nonzero rational scalars) to each hom
object. A workload therefore costs about the same at every seed, and its
tensors stay exactly as sparse as the fixtures'.
"""

import itertools
from fractions import Fraction

from cosegal import base, colim, homotopy, precat

SCALARS = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/3", "3"))


# ---------------------------------------------------------------------------
# strict categories


def function_category(sizes):
    """Objects are finite sets of the given sizes, homs are all functions
    between them, composition is substitution."""
    objects = tuple(sorted(sizes))
    funcs = {}
    homs = {}
    for a in objects:
        for b in objects:
            fs = list(itertools.product(range(sizes[b]), repeat=sizes[a]))
            funcs[(a, b)] = fs
            homs[(a, b)] = base.finset_obj(
                "f" + "".join(map(str, f)) for f in fs)
    comps = {}
    for a, b, c in itertools.product(objects, repeat=3):
        index = {f: i for i, f in enumerate(funcs[(a, c)])}
        images = [index[tuple(g[f[i]] for i in range(sizes[a]))]
                  for f in funcs[(a, b)] for g in funcs[(b, c)]]
        comps[(a, b, c)] = base.finset_map(
            base.tensor(homs[(a, b)], homs[(b, c)]), homs[(a, c)], images)
    idpoints = {}
    for a in objects:
        ident = funcs[(a, a)].index(tuple(range(sizes[a])))
        idpoints[a] = base.finset_map(base.unit("finset"), homs[(a, a)],
                                      (ident,))
    return precat.StrictCategory("finset", objects, homs, comps, idpoints)


def _indicator(m):
    """The 0/1 matrix of a finset map."""
    rows = [[0] * len(m.mapping) for _ in range(m.dst.size())]
    for j, i in enumerate(m.mapping):
        rows[i][j] = 1
    return rows


def linearize_category(cat):
    """The vectq category spanned by the hom sets of a finset category."""
    homs = {key: base.vectq_obj(h.size()) for key, h in cat.homs.items()}
    comps = {(a, b, c): base.vectq_map(
                 base.tensor(homs[(a, b)], homs[(b, c)]), homs[(a, c)],
                 _indicator(m))
             for (a, b, c), m in cat.comps.items()}
    idpoints = {a: base.vectq_map(base.unit("vectq"), homs[(a, a)],
                                  _indicator(e))
                for a, e in cat.idpoints.items()}
    return precat.StrictCategory("vectq", cat.objects, homs, comps, idpoints)


def chainify_category(cat):
    """The chq category with the tables of a finset category, homs
    concentrated in degree zero."""
    homs = {key: base.chq_obj([0] * h.size(),
                              [[0] * h.size() for _ in range(h.size())])
            for key, h in cat.homs.items()}
    comps = {(a, b, c): base.chq_map(
                 base.tensor(homs[(a, b)], homs[(b, c)]), homs[(a, c)],
                 _indicator(m))
             for (a, b, c), m in cat.comps.items()}
    idpoints = {a: base.chq_map(base.unit("chq"), homs[(a, a)],
                                _indicator(e))
                for a, e in cat.idpoints.items()}
    return precat.StrictCategory("chq", cat.objects, homs, comps, idpoints)


def dual_numbers_chq():
    """One object whose hom is Q[e]/(e^2) in degree zero."""
    h = base.chq_obj([0, 0], [[0, 0], [0, 0]])
    comp = base.chq_map(base.tensor(h, h), h, [[1, 0, 0, 0], [0, 1, 1, 0]])
    e = base.chq_map(base.unit("chq"), h, [[1], [0]])
    return precat.StrictCategory("chq", ("x",), {("x", "x"): h},
                                 {("x", "x", "x"): comp}, {"x": e})


# ---------------------------------------------------------------------------
# seeded coordinates


def relabel(rng, x):
    """A random isomorphism out of x that keeps its size and sparsity:
    a label permutation on finset, a degree-preserving monomial matrix on
    vectq/chq."""
    n = x.size()
    if x.backend == "finset":
        perm = list(range(n))
        rng.shuffle(perm)
        labels = [None] * n
        for i, j in enumerate(perm):
            labels[j] = x.labels[i]
        return base.finset_map(x, base.finset_obj(labels), perm)
    if x.backend == "vectq":
        degrees = (0,) * n
    else:
        degrees = x.degrees
    perm = list(range(n))
    for d in set(degrees):
        slots = [i for i in range(n) if degrees[i] == d]
        moved = slots[:]
        rng.shuffle(moved)
        for i, j in zip(slots, moved):
            perm[i] = j
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        m[perm[j]][j] = rng.choice(SCALARS)
    if x.backend == "vectq":
        return base.vectq_map(x, x, m)
    minv = [[0] * n for _ in range(n)]
    for j in range(n):
        minv[j][perm[j]] = 1 / m[perm[j]][j]
    diff = [[sum(m[i][k] * x.diff[k][l] * minv[l][j]
                 for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]
    return base.chq_map(x, base.chq_obj(degrees, diff), m)


def twist_category(rng, cat):
    """The same strict category transported along a random relabelling of
    every hom object."""
    isos = {key: relabel(rng, h) for key, h in sorted(cat.homs.items())}
    invs = {key: base.invert(f) for key, f in isos.items()}
    homs = {key: f.dst for key, f in isos.items()}
    comps = {(a, b, c): base.tensor_mor(invs[(a, b)], invs[(b, c)]).then(
                 m).then(isos[(a, c)])
             for (a, b, c), m in cat.comps.items()}
    idpoints = {a: e.then(isos[(a, a)]) for a, e in cat.idpoints.items()}
    return precat.StrictCategory(cat.backend, cat.objects, homs, comps,
                                 idpoints)


def twisted_disk(rng, n):
    """disk(n) with a random nonzero differential entry."""
    return base.chq_obj([n, n - 1], [[0, 0], [rng.choice(SCALARS), 0]])


# ---------------------------------------------------------------------------
# precategory inputs


def forget_units(pc):
    return precat.make_precategory(pc.backend, pc.letters, pc.truncation,
                                   pc.values, pc.maps, pc.laxity)


def padded_replacement(w, pads):
    """Identity on w, zero on the pads: surjective, and a quasi-iso exactly
    when every pad is acyclic. Returns the map and its section."""
    cop, injs = colim.coproduct([w] + list(pads), backend=w.backend)
    legs = [base.identity(w)] + [base.zero_map(p, w) for p in pads]
    return colim.copair(cop, legs, w), injs[0]


def replacement(w, style):
    """A trivial-fibration-shaped replacement of w with a section:
    "iso", "cylinder", or a list of padding complexes."""
    if style == "iso":
        return base.identity(w), base.identity(w)
    if style == "cylinder":
        c, t = base.factorize(base.identity(w))
        return t, c
    return padded_replacement(w, style)


def two_constant_chq(cat, styles, truncation):
    """The 2-constant transfer of a chq strict category with the given
    replacement style per endpoint pair ("iso" where none is given)."""
    reps = {}
    secs = {}
    for key, w in sorted(cat.homs.items()):
        reps[key], secs[key] = replacement(w, styles.get(key, "iso"))
    lifts = {a: cat.idpoints[a].then(secs[(a, a)]) for a in cat.objects}
    data = homotopy.TwoConstantData(cat, reps, lifts)
    return homotopy.two_constant_transfer(data, truncation)
