"""Strict-category fixtures shared by the test modules.

The honest strict categories here (function categories and their
linearizations, the walking arrow, small algebras and discrete
categories) are the inputs of the validator tests in `test_precat` and
of the construction tests in the other modules.
"""

import itertools

from cosegal.base import (
    chq_map, chq_obj, empty, finset_map, finset_obj, tensor, unit,
    vectq_map, vectq_obj,
)
from cosegal.precat import StrictCategory


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
