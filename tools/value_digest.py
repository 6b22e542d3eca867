"""Print one sha256 of the values the free constructions compute.

Hashes a rendering of the public outputs of `gamma`, `point`, `upsilon`
(with `upsilon_map` and `upsilon_transpose`), `unitalize` (the
precategory, eta and the xis of each round), `realize` and `psi` (the
precategory, eta and the xis of each round) on fixed fixtures from
tests/fixtures.py: a function category, its linearization, the chq dual
numbers and the walking arrow on all three backends, whose empty hom
leaves empty slots. After those parts come the gluing engines on the same
fixtures: `pushforward` onto one letter and, with two letters, onto two,
and `precat_colimit` (the precategory and its cocone) of the span of a
unitalization's eta with itself. Last come the maps out of the free
constructions on the same fixtures: `free_hom_kmorphism` of the
generating arrow of psi, `gamma_map` of that and of gamma's unit,
`gamma_counit`, `point_map` of the counit and `psi_square` on the down,
xi and ell squares of the arrow. After them come the chq hom spaces on
fixed pairs of complexes: `chq_hom_basis`, `solve_map` and `has_rlp`
against the generating cofibrations. Then comes `realize` of the split
module, whose letters a and m have no chain from m to a. Last come the
unit findings, each record of `check_unital` (its constraint and its two
maps) on the free pointing of the finset, vectq and chq fixtures.
Precategories and their morphisms are read through their accessors
(`render`), so the rendering does not depend on which maps out of empty
objects a precategory stores. Two builds of these outputs print the
same digest exactly when every object, map and laxity they hold is
equal, finset labels included, so the line pins outputs to the value
where the benchmark digests only pin sizes.

    PYTHONHASHSEED=0 python tools/value_digest.py [-v]

-v also prints the digest of each part. Takes a few seconds.
"""

import hashlib
import os
import sys
from dataclasses import fields, is_dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from cosegal import adjoints, base, shapes  # noqa: E402
from cosegal.base import (  # noqa: E402
    MMorphism, MObject, disk, empty, finset_map, finset_obj, identity,
    sphere, tensor, vectq_map, vectq_obj, zero_map,
)
from cosegal.precat import (  # noqa: E402
    PrecatMorphism, Precategory, check_unital, expected_laxity_keys,
    from_strict_category, identity_morphism, make_precategory,
)
from fixtures import (  # noqa: E402
    chainify_category, dual_numbers_chq, function_category,
    linearize_category, split_module, walking_arrow,
)


def render(x):
    """The text hashed for x. A precategory renders its chains, value(s),
    gen_map at every generator, lax at every laxity pair, units and split;
    a morphism its two ends and at(s) on every chain. Lists, tuples, dicts
    and the other records render item by item, objects and maps by repr."""
    if isinstance(x, Precategory):
        return repr((
            "Precategory", x.backend, x.letters, x.truncation, x.chains,
            [x.value(s) for s in x.chains],
            [x.gen_map(s, p) for s in x.chains for p in range(1, len(s) - 1)],
            [x.lax(s, t)
             for s, t in expected_laxity_keys(x.chains, x.truncation)],
            x.units, x.split))
    if isinstance(x, PrecatMorphism):
        return "PrecatMorphism(%s, %s, %r)" % (
            render(x.src), render(x.dst), [x.at(s) for s in x.src.chains])
    if isinstance(x, (list, tuple)):
        return "[%s]" % ", ".join(map(render, x))
    if isinstance(x, dict):
        return "{%s}" % ", ".join("%r: %s" % (k, render(v))
                                  for k, v in x.items())
    if is_dataclass(x) and not isinstance(x, (MObject, MMorphism)):
        return "%s(%s)" % (type(x).__name__, ", ".join(
            render(getattr(x, f.name)) for f in fields(x)))
    return repr(x)


def forget_units(pc):
    return make_precategory(pc.backend, pc.letters, pc.truncation,
                            pc.values, pc.maps, pc.laxity)


def cases():
    """(name, strict category, truncation, generating arrow of psi)."""
    fc = function_category({"a": 1, "b": 2})
    arrow = walking_arrow()
    finset_alpha = finset_map(finset_obj(["u0"]), finset_obj(["v0", "v1"]),
                              (1,))
    vectq_alpha = vectq_map(vectq_obj(1), vectq_obj(2), [[1], [0]])
    chq_alpha = identity(disk(1))
    return [
        ("finset", fc, 3, finset_alpha),
        ("vectq", linearize_category(fc), 2, vectq_alpha),
        ("chq", dual_numbers_chq(), 2, chq_alpha),
        ("finset-arrow", arrow, 2, finset_alpha),
        ("vectq-arrow", linearize_category(arrow), 2, vectq_alpha),
        ("chq-arrow", chainify_category(arrow), 2, chq_alpha),
    ]


def unitalization(res):
    return (res.precat, res.eta, [r.xis for r in res.trace.rounds])


def outputs(cat, truncation, alpha):
    """[(part name, value)] of one case."""
    h = from_strict_category(cat, truncation)
    pc = forget_units(h)
    out = [("gamma", adjoints.gamma(adjoints.kobject_of(pc))),
           ("point", adjoints.point(pc))]
    res = adjoints.unitalize(adjoints.point(pc))
    out += [("unitalize", unitalization(res)),
            ("realize", adjoints.realize(res.precat))]
    nothing = empty(pc.backend)
    for z0 in [z for z in pc.chains if shapes.degree(z) == 2][:3]:
        m = h.value(z0)
        at = (pc.letters, truncation, z0)
        out += [("upsilon %r" % (z0,), (adjoints.upsilon(*at, m),
                                        adjoints.upsilon(*at, nothing))),
                ("upsilon_map %r" % (z0,),
                 (adjoints.upsilon_map(*at, identity(m)),
                  adjoints.upsilon_map(*at, zero_map(nothing, m)))),
                ("upsilon_transpose %r" % (z0,),
                 adjoints.upsilon_transpose(h, z0, identity(m)))]
    z0 = (pc.letters[0], pc.letters[-1], pc.letters[-1])
    ps = adjoints.psi(z0, alpha, letters=pc.letters, truncation=truncation)
    out += [("psi", unitalization(ps)),
            ("psi_transpose", adjoints.psi_transpose(
                ps, z0, ps.precat, adjoints.psi_restrict(
                    ps, z0, identity_morphism(ps.precat))))]
    return out


def gluings(cat, truncation):
    """[(part name, value)] of the gluing engines on one case."""
    pc = forget_units(from_strict_category(cat, truncation))
    letters = pc.letters
    out = [("pushforward one", adjoints.pushforward(
        {a: "c" for a in letters}, pc))]
    if len(letters) == 2:
        out.append(("pushforward two", adjoints.pushforward(
            {letters[0]: "d", letters[1]: "c"}, pc)))
    p = adjoints.point(pc)
    eta = adjoints.unitalize(p).eta
    out.append(("precat_colimit", adjoints.precat_colimit(
        {"p": p, "u1": eta.dst, "u2": eta.dst},
        [("p", "u1", eta), ("p", "u2", eta)])))
    return out


def transposes(cat, truncation, alpha):
    """[(part name, value)] of the maps out of the free constructions on
    one case: the functor actions, gamma's counit and psi on squares."""
    pc = forget_units(from_strict_category(cat, truncation))
    z0 = (pc.letters[0], pc.letters[-1], pc.letters[-1])
    at = (pc.letters, truncation, z0)
    kphi = adjoints.free_hom_kmorphism(*at, alpha)
    eps = adjoints.gamma_counit(pc)
    ps = adjoints.psi(z0, alpha, letters=pc.letters, truncation=truncation)
    mid, idv = [adjoints.psi(z0, x, letters=pc.letters, truncation=truncation)
                for x in (adjoints.codiagonal_arrow(alpha),
                          identity(alpha.dst))]
    return [("free_hom_kmorphism", kphi),
            ("gamma_map", (adjoints.gamma_map(kphi), adjoints.gamma_map(
                adjoints.gamma_unit(adjoints.kobject_of(pc))))),
            ("gamma_counit", eps),
            ("point_map", adjoints.point_map(eps)),
            ("psi_square", [adjoints.psi_square(z0, sq(alpha), *ends)
                            for sq, ends in [
                                (adjoints.square_down, (ps, idv)),
                                (adjoints.square_xi, (ps, mid)),
                                (adjoints.square_ell, (mid, idv))]])]


def hom_spaces():
    """[(part name, value)] of the chq hom spaces on fixed pairs of
    complexes: their bases, maps solved from equations and lifting
    verdicts.

    Each map f of a basis is factored as j then q (`base.factorize`), and
    solve_map returns its canonical (h, unique) for h with j h = f, for
    h with h q = f, and for h with j h = j and h q = q. has_rlp gives the
    verdict of f and q against each generating cofibration of degrees -1
    to 1."""
    objs = [empty("chq"), sphere(-1), sphere(0), disk(0), disk(1),
            tensor(disk(1), disk(1)), dual_numbers_chq().homs[("x", "x")]]
    bases = {(x, y): base.chq_hom_basis(x, y) for x in objs for y in objs}
    gens = base.generating_cofibrations("chq", (-1, 1))
    solved, verdicts = [], []
    for f in [f for maps in bases.values() for f in maps]:
        j, q = base.factorize(f)
        solved.append([
            base.solve_map(j.dst, f.dst, [(j, f)], []),
            base.solve_map(f.src, q.src, [], [(q, f)]),
            base.solve_map(j.dst, q.src, [(j, j)], [(q, q)])])
        verdicts.append([[base.has_rlp(i, p) for i in gens] for p in (f, q)])
    return [("chq_hom_basis", list(bases.values())),
            ("solve_map", solved), ("has_rlp", verdicts)]


def parts():
    """(case name, part name, value) of every part: the gluing engines'
    after the free constructions', then the maps out of the free
    constructions, the chq hom spaces, the realization of the split
    module, and last the unit findings of the free pointings."""
    for name, cat, truncation, alpha in cases():
        for part, value in outputs(cat, truncation, alpha):
            yield name, part, value
    for name, cat, truncation, _ in cases():
        for part, value in gluings(cat, truncation):
            yield name, part, value
    for name, cat, truncation, alpha in cases():
        for part, value in transposes(cat, truncation, alpha):
            yield name, part, value
    for part, value in hom_spaces():
        yield "chq-homs", part, value
    yield "split", "realize", adjoints.realize(split_module())
    for name, cat, truncation, _ in cases()[:3]:
        pc = forget_units(from_strict_category(cat, truncation))
        yield name, "unit findings", check_unital(adjoints.point(pc))


def main(argv):
    verbose = "-v" in argv
    total = hashlib.sha256()
    for name, part, value in parts():
        text = render(value).encode()
        total.update(text)
        if verbose:
            print("%s %s: %s" % (name, part,
                                 hashlib.sha256(text).hexdigest()))
    print(total.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1:])
