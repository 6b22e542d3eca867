"""The benchmark workloads: seeded instances, the algorithm under test,
and the package's own oracles as the correctness check.

A workload builds one *pass* of instances from a random generator. Each
instance has a `compute` step (the algorithm entry points), a `verify`
step (the oracles, returning a list of problems, empty when correct) and
a `digest` of the problem size its result shows (slot sizes per stage,
unitalization rounds and constraint counts, coequalizer ranks). The
instance shapes are fixed per workload; the seed only changes
coordinates, see `inputs`.
"""

from dataclasses import dataclass
from typing import Callable

from cosegal import adjoints, base, homotopy, precat, shapes

import inputs


@dataclass
class Instance:
    name: str
    compute: Callable[[], object]
    verify: Callable[[object], list]
    digest: Callable[[object], dict]


class SetupError(RuntimeError):
    """A generated input failed its validation."""


def checked(pc):
    problems = precat.validate(pc)
    if problems:
        raise SetupError("generated input is invalid: %s" % problems[:3])
    return pc


def slot_sizes(pc, degree=None):
    return {".".join(s): pc.value(s).size() for s in pc.chains
            if degree is None or shapes.degree(s) == degree}


def expect(problems, ok, message):
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------------------
# cosegalify_chq


def one_object():
    return inputs.chainify_category(inputs.function_category({"x": 1}))


def two_objects():
    return inputs.chainify_category(
        inputs.function_category({"x": 1, "y": 1}))


# (name, strict category, replacement styles per endpoint pair); the
# largest output slot has 7 dimensions, which bounds the validate cost
CHQ_TEMPLATES = (
    ("pad-sphere", one_object, lambda rng: {("x", "x"): [base.sphere(1)]}),
    ("pad-disk", one_object,
     lambda rng: {("x", "x"): [inputs.twisted_disk(rng, 1)]}),
    ("cylinder", one_object, lambda rng: {("x", "x"): "cylinder"}),
    ("dual-iso", inputs.dual_numbers_chq, lambda rng: {}),
    ("two-object", two_objects,
     lambda rng: {("x", "y"): [base.sphere(1)]}),
)


def realization_problems(pc, out):
    """The realized categories of input and output must agree through
    the degree-2 cocone isomorphisms."""
    problems = []
    r1, r2 = adjoints.realize(pc), adjoints.realize(out)
    if r1.category is None or r2.category is None:
        return ["realization composition not determined"]
    phi = {}
    for a in pc.letters:
        for b in pc.letters:
            z = (a, a, b)
            to1, to2 = r1.eta.at(z), r2.eta.at(z)
            if pc.value(z) != out.value(z) or not (
                    base.is_isomorphism(to1) and base.is_isomorphism(to2)):
                return ["realization cocone at %r is not an iso" % (z,)]
            phi[(a, b)] = base.invert(to1).then(to2)
    for a in pc.letters:
        for b in pc.letters:
            for c in pc.letters:
                lhs = r1.comps[(a, b, c)].then(phi[(a, c)])
                rhs = base.tensor_mor(phi[(a, b)], phi[(b, c)]).then(
                    r2.comps[(a, b, c)])
                expect(problems, lhs == rhs,
                       "realized composition differs at %r" % ((a, b, c),))
        expect(problems,
               r1.idpoints[a].then(phi[(a, a)]) == r2.idpoints[a],
               "realized identity differs at %r" % (a,))
    return problems


def verify_cosegalify(pc, result):
    out, eta = result
    problems = ["validate: %s" % e for e in precat.validate(out)]
    problems += ["unit law: %r" % (c,) for c in precat.check_unital(out)]
    problems += ["eta: %s" % e for e in precat.validate_morphism(eta)]
    expect(problems, homotopy.is_cosegal(out), "output is not co-Segal")
    expect(problems,
           homotopy.report_passes(homotopy.k_injectivity_report(out)),
           "lifting report fails")
    for s in pc.chains:
        if shapes.degree(s) == 1:
            expect(problems, base.is_cofibration(eta.at(s)),
                   "eta at %r is not a cofibration" % (s,))
        else:
            expect(problems, eta.at(s) == base.identity(pc.value(s)),
                   "eta at %r is not the identity" % (s,))
    return problems + realization_problems(pc, out)


def cosegalify_chq(rng):
    out = []
    for name, category, styles in CHQ_TEMPLATES:
        cat = inputs.twist_category(rng, category())
        pc = checked(inputs.two_constant_chq(cat, styles(rng), 3))
        out.append(Instance(
            name,
            lambda pc=pc: homotopy.cosegalify_two_constant(pc),
            lambda result, pc=pc: verify_cosegalify(pc, result),
            lambda result, pc=pc: {
                "in": slot_sizes(pc, 1), "out": slot_sizes(result[0], 1),
                "total": sum(slot_sizes(result[0]).values())}))
    return out


# ---------------------------------------------------------------------------
# unitalization, shared by both unitalize workloads


def unitalization_problems(res):
    u = res.precat
    problems = ["validate: %s" % e for e in precat.validate(u)]
    problems += ["unit law: %r" % (c,) for c in precat.check_unital(u)]
    problems += ["eta: %s" % e for e in precat.validate_morphism(res.eta)]
    expect(problems,
           all(base.is_surjective(res.eta.at(s)) for s in u.chains),
           "eta is not surjective")
    again = adjoints.unitalize(u)
    expect(problems, not again.trace.rounds
           and precat.is_levelwise_isomorphism(again.eta),
           "unitalizing the output again changes it")
    return problems


def realization_of_unital_problems(r):
    """The realized category is a strict category, and the comparison
    into its constant precategory is a morphism."""
    if r.category is None:
        return ["realization composition not determined"]
    problems = ["realized category: %s" % e
                for e in precat.validate_strict_category(r.category)]
    return problems + ["realization unit: %s" % e
                       for e in precat.validate_morphism(r.eta)]


def unitalization_digest(res, r):
    summary = res.trace.summary()
    return {
        "rounds": summary["rounds"],
        "constraints": [len(c) for c in summary["constraints"]],
        "sizes": summary["sizes"],
        "coequalizer_ranks": [
            [q.proj.src.size() - q.obj.size() for q in rnd.coeqs]
            for rnd in res.trace.rounds],
        "realized": {"%s.%s" % key: h.size()
                     for key, h in sorted(r.homs.items())},
    }


def unitalize_input(rng, cat, truncation):
    cat = inputs.twist_category(rng, cat)
    return checked(inputs.forget_units(
        precat.from_strict_category(cat, truncation)))


def unitalize_and_realize(pc):
    res = adjoints.unitalize(adjoints.point(pc))
    return res, adjoints.realize(res.precat)


def unitalize_instance(name, pc):
    return Instance(
        name,
        lambda: unitalize_and_realize(pc),
        lambda result: unitalization_problems(result[0])
        + realization_of_unital_problems(result[1]),
        lambda result: unitalization_digest(*result))


# ---------------------------------------------------------------------------
# unitalize_linear


def unitalize_linear(rng):
    fc = inputs.function_category
    cats = (
        ("vectq-A2", inputs.linearize_category(fc({"A": 2}))),
        ("vectq-A1B1", inputs.linearize_category(fc({"A": 1, "B": 1}))),
        ("chq-dual", inputs.dual_numbers_chq()),
    )
    return [unitalize_instance(name, unitalize_input(rng, cat, 2))
            for name, cat in cats]


# ---------------------------------------------------------------------------
# unitalize_finset


PSI_CHAIN = ("A", "B", "B")


def psi_square(choices, u):
    """An arrow alpha: U -> V of finite sets and a commuting square from
    it to the co-Segal arrow of u at PSI_CHAIN, picked by four random
    integers drawn at set-up."""
    us = u.cosegal_map(PSI_CHAIN)
    ends = us.src
    src = base.finset_obj(["u0"])
    dst = base.finset_obj(["v0", "v1"])
    k = choices[0] % 2
    alpha = base.finset_map(src, dst, [k])
    top = base.finset_map(src, ends, [choices[1] % ends.size()])
    images = [c % us.dst.size() for c in choices[2:]]
    images[k] = us.mapping[top.mapping[0]]
    bottom = base.finset_map(dst, us.dst, images)
    return alpha, (top, bottom)


def unitalize_psi(pc, choices):
    res, r = unitalize_and_realize(pc)
    u = res.precat
    alpha, square = psi_square(choices, u)
    ps = adjoints.psi(PSI_CHAIN, alpha, letters=u.letters,
                      truncation=u.truncation)
    theta = adjoints.psi_transpose(ps, PSI_CHAIN, u, square)
    return res, r, ps, theta, alpha, square


def commuting_squares(alpha, u):
    """Every commuting square from alpha to the co-Segal arrow of u at
    PSI_CHAIN."""
    us = u.cosegal_map(PSI_CHAIN)
    return [(top, bottom)
            for top in base.enumerate_maps(alpha.src, us.src)
            for bottom in base.enumerate_maps(alpha.dst, us.dst)
            if top.then(us) == alpha.then(bottom)]


def verify_unitalize_psi(result):
    """The unitalization oracles, and the universal property of psi: its
    transpose is a morphism that restricts back to the square, for the
    computed square and for every other commuting square."""
    res, r, ps, theta, alpha, square = result
    u = res.precat
    problems = unitalization_problems(res)
    problems += realization_of_unital_problems(r)
    problems += ["psi: %s" % e for e in precat.validate(ps.precat)]
    problems += ["psi unit law: %r" % (c,)
                 for c in precat.check_unital(ps.precat)]
    squares = commuting_squares(alpha, u)
    expect(problems, square in squares, "the computed square does not commute")
    for sq in squares:
        th = theta if sq == square else adjoints.psi_transpose(
            ps, PSI_CHAIN, u, sq)
        problems += ["psi transpose: %s" % e
                     for e in precat.validate_morphism(th)]
        expect(problems, adjoints.psi_restrict(ps, PSI_CHAIN, th) == sq,
               "psi transpose does not restrict to its square")
    return problems


def digest_unitalize_psi(result):
    res, r, ps = result[:3]
    summary = ps.trace.summary()
    return dict(unitalization_digest(res, r), psi={
        "rounds": summary["rounds"],
        "constraints": [len(c) for c in summary["constraints"]],
        "sizes": summary["sizes"][-1]})


def unitalize_finset(rng):
    fc = inputs.function_category
    pc = unitalize_input(rng, fc({"A": 1, "B": 2}), 3)
    choices = [rng.randrange(1 << 30) for _ in range(4)]
    return [
        Instance("finset-A1B2-psi", lambda: unitalize_psi(pc, choices),
                 verify_unitalize_psi, digest_unitalize_psi),
        unitalize_instance("finset-A2", unitalize_input(rng, fc({"A": 2}), 3)),
    ]


WORKLOADS = {
    "cosegalify_chq": cosegalify_chq,
    "unitalize_linear": unitalize_linear,
    "unitalize_finset": unitalize_finset,
}
