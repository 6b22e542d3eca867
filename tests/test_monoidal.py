"""The slotwise tensor, its coherence morphisms, the Yoneda distributor and
the relative-transformation calculus.

Each backend gets one strict-category fixture at truncation 2 and a
partner to tensor it with; the vectq partner is the two-dimensional group
algebra. The linearization is also tensored with itself, and the
associator of three copies of it is checked: those products have 16- and
64-dimensional slots, so the checks compare composites on Kronecker
products of up to 4096 x 4096 entries, almost all of them zero.

Restriction to one letter is `pullback` along the letter, and it is
monoidal: restricting a slotwise tensor at a pair of letters is the
slotwise tensor of the two restrictions.

The relative transformations are tested by the laws that define them,
on the function category of a one- and a two-element set, doubled over
the identity letter map (the functor-category hom as an end):

- bijection (finset): the points of the classifying object are exactly
  the families of points whose two transport routes agree;
- dimension (vectq, chq): the classifying object is the solution space
  of the route equations, which the test assembles on its own from the
  route formula and solves with `ratmat.kernel_data`; also on the
  one-object full subcategory on the two-element set, where the
  classifying object is the centre of its endomorphism algebra;
- composition (all backends): composing families is associative and
  unital against the identity family, once collapsed into the realized
  hom, and keeps the routes in agreement;
- pairing (all backends): the pairing of classifying objects is
  associative and multiplies points the way composition multiplies
  families.

Composition and pairing also run on a second shape, where every point of
the endomorphisms of the two-element set is a lawful family, so that
their products do not commute and a pairing in the wrong order shows.
"""

import dataclasses
import itertools

import pytest

from cosegal import ratmat, shapes
from cosegal.adjoints import pullback, realize
from cosegal.base import (
    BACKENDS, basis_point, enumerate_maps, finset_obj, identity, invert,
    left_unitor, make_map, right_unitor, tensor_mor, unit,
)
from cosegal.colim import coproduct
from cosegal.monoidal import (
    MARKER, axiom_errors, check_distributor, compose_nat_transforms,
    identity_family, nat_pairing, nat_transform_object, relabel, tensor_s,
    tensor_s_assoc, tensor_s_mor, tensor_s_symmetry, tensor_s_unitor,
    unit_precat, yoneda_module,
)
from cosegal.precat import (
    PrecatMorphism, check_unital, from_strict_category, identity_morphism,
    validate, validate_diagram, validate_morphism,
)

from fixtures import (
    chainify_category, dual_numbers_chq, function_category,
    group_algebra_z2, linearize_category,
)

TRUNCATION = 2


def precats(backend):
    """The backend's fixture precategory and its tensor partner."""
    fc = function_category({"A": 1, "B": 2})
    cats = {"finset": (fc, fc),
            "vectq": (linearize_category(fc), group_algebra_z2()),
            "chq": (dual_numbers_chq(), dual_numbers_chq())}
    return tuple(from_strict_category(c, TRUNCATION)
                 for c in cats[backend])


@pytest.mark.parametrize("backend", BACKENDS)
def test_tensor_s_is_a_unital_precategory(backend):
    f, g = precats(backend)
    p = tensor_s(f, g)
    assert validate(p) == []
    assert p.is_pointed()
    assert check_unital(p) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_tensor_s_mor_of_identities_is_a_morphism(backend):
    f, g = precats(backend)
    m = tensor_s_mor(identity_morphism(f), identity_morphism(g))
    assert validate_morphism(m) == []


def test_linearization_squared_is_a_unital_precategory():
    lin, _ = precats("vectq")
    p = tensor_s(lin, lin)
    assert validate(p) == []
    assert check_unital(p) == []
    ident = identity_morphism(lin)
    assert validate_morphism(tensor_s_mor(ident, ident)) == []


def test_linearization_cubed_associator_is_a_morphism():
    lin, _ = precats("vectq")
    assert validate_morphism(tensor_s_assoc(lin, lin, lin)) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_tensor_s_coherence_maps_are_morphisms(backend):
    f, g = precats(backend)
    un = unit_precat(backend, TRUNCATION)
    assert validate_morphism(tensor_s_assoc(f, g, un)) == []
    assert validate_morphism(tensor_s_unitor(f, "left")) == []
    assert validate_morphism(tensor_s_unitor(f, "right")) == []
    assert validate_morphism(tensor_s_symmetry(f, g)) == []


def test_tensor_s_unitor_rejects_an_unknown_side():
    f, _ = precats("finset")
    with pytest.raises(ValueError):
        tensor_s_unitor(f, "Right")


@pytest.mark.parametrize("backend", BACKENDS)
def test_pullback_to_a_pair_mark_is_monoidal(backend):
    f, g = precats(backend)
    both = tensor_s(f, g)
    for a in f.letters:
        for b in g.letters:
            whole = pullback({MARKER: (a, b)}, both)
            parts = relabel(tensor_s(pullback({MARKER: a}, f),
                                     pullback({MARKER: b}, g)),
                            {(MARKER, MARKER): MARKER})
            assert whole == parts


@pytest.mark.parametrize("backend", BACKENDS)
def test_yoneda_module_is_a_distributor(backend):
    f, _ = precats(backend)
    e = yoneda_module(f, f.letters[0])
    assert validate(e) == []
    report = check_distributor(e, f, unit_precat(backend, TRUNCATION))
    assert report["passed"]
    # read against the opposite split, the join chains step backwards
    flipped = dataclasses.replace(e, split=(e.split[1], e.split[0]))
    assert any("admissible" in err for err in validate_diagram(flipped))


@pytest.mark.parametrize("case", ["no split", "not a partition",
                                  "letters disagree"])
def test_check_distributor_fails_on_a_bad_split(case):
    f, _ = precats("finset")
    un = unit_precat("finset", TRUNCATION)
    e = yoneda_module(f, f.letters[0])
    args = {"no split": (f, f, f),
            "not a partition": (
                dataclasses.replace(e, split=(f.letters, ())), f, un),
            "letters disagree": (e, un, un)}[case]
    report = check_distributor(*args)
    assert report["passed"] is False
    assert report["errors"]


# ---------------------------------------------------------------------------
# relative transformations


def strict(backend, truncation):
    """The function category of a one- and a two-element set."""
    fc = function_category({"A": 1, "B": 2})
    cat = {"finset": fc, "vectq": linearize_category(fc),
           "chq": chainify_category(fc)}[backend]
    return from_strict_category(cat, truncation)


def identity_shape(g):
    """The identity family of g and the classifying object of its
    shape."""
    t = identity_family(g, {a: a for a in g.letters})
    return t, nat_transform_object(t.src, t.dst, t.fmaps, t.sigmas)


def collapse_shape(g):
    """Two copies of the morphism that sends every map of the one-object
    full subcategory on B to the identity, and the classifying object of
    that shape.  Every point of End(B) is a lawful family, and the
    families multiply as End(B) does, which is not commutative."""
    h = pullback({"x": "B"}, g)
    e = h.unit_map("x")

    def collapse(v):
        if h.backend == "finset":
            return make_map(v, v, e.mapping * v.size())
        return make_map(v, v, [row * v.size() for row in e.matrix])

    sigma = PrecatMorphism(h, h, {s: collapse(h.values[s])
                                  for s in h.chains})
    assert validate_morphism(sigma) == []
    t = identity_family(h, {"x": "x"}, sigma)
    n = nat_transform_object(t.src, t.dst, t.fmaps, t.sigmas)
    assert n.obj.size() == n.product.size() == 4
    return t, n


SHAPES = {"identity": identity_shape, "collapse": collapse_shape}


def with_family(t, eta):
    return dataclasses.replace(t, eta=eta)


def basis_families(n):
    """One family per coordinate of a linear classifying object's
    product: that coordinate's point is 1, every other entry is 0."""
    iu = unit(n.backend)
    out = []
    for a in n.letters:
        for j in range(n.slots[a].size()):
            out.append({
                c: make_map(iu, n.slots[c],
                            [[int(c == a and i == j)]
                             for i in range(n.slots[c].size())])
                for c in n.letters})
    return out


def route_difference(t, r, s):
    """The entries of top - bottom around the chain s, from the route
    formula: the source value goes past the family point at one end and
    through the target laxity, then collapses into the realized hom."""
    g = t.dst
    a, b = s[0], s[-1]
    first = tuple(t.fmaps[0][x] for x in s)
    last = tuple(t.fmaps[-1][x] for x in s)
    fs = t.src.value(s)
    top = invert(right_unitor(fs)).then(
        tensor_mor(t.sigmas[0].at(s), t.eta[b])).then(
        g.lax(first, t.alpha(b))).then(
        r.eta.at(shapes.concat(first, t.alpha(b))))
    bottom = invert(left_unitor(fs)).then(
        tensor_mor(t.eta[a], t.sigmas[-1].at(s))).then(
        g.lax(t.alpha(a), last)).then(
        r.eta.at(shapes.concat(t.alpha(a), last)))
    return [x - y for top_row, bottom_row in zip(top.matrix, bottom.matrix)
            for x, y in zip(top_row, bottom_row)]


@pytest.mark.parametrize("truncation", [2, 3])
def test_nat_object_points_biject_with_the_lawful_families(truncation):
    g = strict("finset", truncation)
    t, n = identity_shape(g)
    r = realize(g)
    iu = unit("finset")
    candidates = [dict(zip(n.letters, points)) for points in
                  itertools.product(*[list(enumerate_maps(iu, n.slots[a]))
                                      for a in n.letters])]
    lawful = [eta for eta in candidates
              if axiom_errors(with_family(t, eta), r) == []]
    assert len(candidates) == 4
    assert len(lawful) == 1
    assert n.obj.size() == len(lawful)
    for eta in lawful:
        assert [n.family(k) for k in range(n.obj.size())].count(eta) == 1
    for eta in candidates:
        assert n.member(eta) == (eta in lawful)


@pytest.mark.parametrize("backend", ["finset", "vectq"])
def test_member_refuses_a_point_with_wrong_ends(backend):
    # each bad family keeps the lawful points but one, which carries a
    # lawful payload with the wrong ends, so that only the ends can tell
    t, n = identity_shape(strict(backend, 2))
    eta = n.family(0)
    assert axiom_errors(with_family(t, eta), realize(t.dst)) == []
    assert n.member(eta)
    if backend == "finset":
        # the same element of a foreign set of the slot's size
        aimed = dataclasses.replace(eta["B"],
                                    dst=finset_obj(["p", "q", "r", "s"]))
        # a map out of the one-element slot, not out of the unit
        started = identity(n.slots["A"])
    else:
        # the same vector in a larger space that starts with the slot
        aimed = eta["B"].then(coproduct([n.slots["B"], unit(backend)])[1][0])
        # a map out of the slot at B
        started = identity(n.slots["B"])
    for a, point in (("B", aimed), ("A", started)):
        bad = dict(eta, **{a: point})
        assert axiom_errors(with_family(t, bad)) == [
            "family point at %r has wrong ends" % (a,)]
        with pytest.raises(ValueError, match="point at %r" % (a,)):
            n.member(bad)


@pytest.mark.parametrize("letters, product", [({"A": "A", "B": "B"}, 5),
                                              ({"x": "B"}, 4)])
@pytest.mark.parametrize("backend", ["vectq", "chq"])
def test_nat_object_is_the_solution_space_of_the_route_equations(
        backend, letters, product):
    # on the one-object subcategory a single route chain carries every
    # equation
    g = pullback(letters, strict(backend, 2))
    t, n = identity_shape(g)
    r = realize(g)
    basis = basis_families(n)
    assert len(basis) == n.product.size() == product
    chains = [s for s in t.src.chains
              if shapes.degree(s) + len(t.fmaps) - 1 <= g.truncation]
    columns = [[x for s in chains
                for x in route_difference(with_family(t, eta), r, s)]
               for eta in basis]
    kernel = ratmat.kernel_data(ratmat.mat(zip(*columns)))[0]
    assert n.obj.size() == len(kernel[0]) == 2
    for column in zip(*kernel):
        point = make_map(unit(backend), n.product, [[x] for x in column])
        assert n.member(n.point_family(point))
    for eta in basis:
        assert n.member(eta) == all(x == 0 for x in itertools.chain(
            *[route_difference(with_family(t, eta), r, s)
              for s in chains]))
    for k in range(n.obj.size()):
        assert axiom_errors(with_family(t, n.family(k)), r) == []


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_composing_families_is_associative_and_unital(backend, shape):
    ident, n = SHAPES[shape](strict(backend, 3))
    r = realize(ident.dst)
    lawful = [ident] + [with_family(ident, n.family(k))
                        for k in range(n.obj.size())]
    for t1, t2 in itertools.product(lawful, repeat=2):
        assert axiom_errors(compose_nat_transforms(t1, t2), r) == []
    for t1, t2, t3 in itertools.product(lawful, repeat=3):
        left = compose_nat_transforms(compose_nat_transforms(t1, t2), t3)
        right = compose_nat_transforms(t1, compose_nat_transforms(t2, t3))
        assert left.eta == right.eta

    def collapsed(t):
        return {a: t.eta[a].then(r.eta.at(t.alpha(a)))
                for a in t.src.letters}

    for t in lawful:
        assert collapsed(compose_nat_transforms(ident, t)) == collapsed(t)
        assert collapsed(compose_nat_transforms(t, ident)) == collapsed(t)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_pairing_is_associative_and_composes_families(backend, shape):
    t, n = SHAPES[shape](strict(backend, 4))
    n12, p12 = nat_pairing(n, n)
    n123, p12_3 = nat_pairing(n12, n)
    n1_23, p1_23 = nat_pairing(n, n12)
    assert n123.obj == n1_23.obj and n123.include == n1_23.include
    assert tensor_mor(p12, identity(n.obj)).then(p12_3) == \
        tensor_mor(identity(n.obj), p12).then(p1_23)
    size = n.obj.size()
    for k1, k2 in itertools.product(range(size), repeat=2):
        paired = n12.point_family(basis_point(p12.src, k1 * size + k2).then(
            p12).then(n12.include))
        composite = compose_nat_transforms(with_family(t, n.family(k1)),
                                           with_family(t, n.family(k2)))
        assert paired == composite.eta
