"""Precategory validators against strict-category fixtures.

The honest strict categories (function categories and their
linearizations) live in `fixtures`, shared with the later construction
tests.
"""

import dataclasses

import pytest

from cosegal.base import finset_map, identity, unit
from cosegal.precat import (
    PrecatMorphism, check_unital, from_strict_category,
    identity_morphism, is_easy_weak_equivalence, is_levelwise_isomorphism,
    is_levelwise_weak_equivalence, unit_constraints, validate,
    validate_morphism, validate_strict_category,
)

from fixtures import (
    discrete_category, dual_numbers_chq, function_category,
    group_algebra_z2, linearize_category, walking_arrow,
)


ALL_STRICT = [walking_arrow, group_algebra_z2, dual_numbers_chq,
              lambda: function_category({"a": 2, "b": 1}),
              lambda: discrete_category(("x", "y"))]


@pytest.mark.parametrize("build", ALL_STRICT)
def test_strict_fixtures_validate(build):
    cat = build()
    assert validate_strict_category(cat) == []


@pytest.mark.parametrize("build", ALL_STRICT)
def test_from_strict_is_valid_and_unital(build):
    cat = build()
    pc = from_strict_category(cat, 3)
    assert validate(pc) == []
    assert check_unital(pc) == []


def test_from_strict_values_by_endpoints():
    pc = from_strict_category(discrete_category(("x", "y")), 3)
    # values go by endpoints, so a roundtrip through y still carries I
    assert pc.value(("x", "y", "x")).size() == 1
    assert pc.value(("x", "y")).size() == 0
    assert pc.value(("x", "x", "y", "x")).size() == 1
    assert pc.value(("x", "y", "y")).size() == 0


def test_function_category_fuzz(rng):
    for _ in range(6):
        names = ["a", "b", "c"][: rng.randint(1, 2)]
        sizes = {n: rng.randint(1, 2) for n in names}
        cat = function_category(sizes)
        assert validate_strict_category(cat) == []
        lin = linearize_category(cat)
        assert validate_strict_category(lin) == []
        pc = from_strict_category(cat, 3)
        assert validate(pc) == []
        assert check_unital(pc) == []


def test_unit_constraint_count_one_letter():
    pc = from_strict_category(function_category({"a": 2}), 3)
    cons = list(unit_constraints(pc))
    # (a,a): one slot each side; (a,a,a): two deletion positions each side
    assert len(cons) == 6
    assert check_unital(pc) == []


def test_laxity_perturbation_is_detected():
    # truncation 3 so the associativity triple over the tampered key exists
    pc = from_strict_category(function_category({"a": 2}), 3)
    key = (("a", "a"), ("a", "a"))
    phi = pc.laxity[key]
    constant = finset_map(phi.src, phi.dst, (0,) * phi.src.size())
    assert constant != phi
    pc.laxity[key] = constant
    assert validate(pc) != []


def test_unit_perturbation_is_detected():
    pc = from_strict_category(function_category({"a": 2}), 2)
    haa = pc.value(("a", "a"))
    # point at a constant function instead of the identity
    pc.units["a"] = finset_map(unit("finset"), haa, (0,))
    assert validate(pc) == []
    assert check_unital(pc) != []


def test_a_built_precategory_is_frozen():
    pc = from_strict_category(function_category({"a": 2}), 2)
    for name in ("values", "laxity", "units", "split"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pc, name, None)


def test_strict_validator_catches_tampered_composition():
    cat = function_category({"a": 2})
    key = ("a", "a", "a")
    m = cat.comps[key]
    cat.comps[key] = finset_map(m.src, m.dst, (0,) * m.src.size())
    assert validate_strict_category(cat) != []
    with pytest.raises(ValueError):
        from_strict_category(cat, 2)


def test_identity_morphism_validates():
    pc = from_strict_category(walking_arrow(), 3)
    ident = identity_morphism(pc)
    assert validate_morphism(ident) == []
    assert is_levelwise_isomorphism(ident)
    assert is_levelwise_weak_equivalence(ident)
    assert is_easy_weak_equivalence(ident)


def test_broken_morphism_component_is_detected():
    pc = from_strict_category(function_category({"a": 2}), 2)
    ident = identity_morphism(pc)
    s = ("a", "a")
    bad = dict(ident.components)
    bad[s] = finset_map(pc.value(s), pc.value(s), (0,) * pc.value(s).size())
    sigma = PrecatMorphism(pc, pc, bad)
    assert validate_morphism(sigma) != []


def test_morphism_composition_mismatch_raises():
    pc2 = from_strict_category(walking_arrow(), 2)
    pc3 = from_strict_category(function_category({"a": 2}), 2)
    with pytest.raises(ValueError):
        identity_morphism(pc2).then(identity_morphism(pc3))


def test_cosegal_map_of_strict_is_identity():
    pc = from_strict_category(function_category({"a": 2, "b": 2}), 3)
    for s in pc.chains:
        if len(s) > 2:
            m = pc.cosegal_map(s)
            assert m == identity(pc.value(s))
