"""The slotwise tensor, its coherence morphisms and the Yoneda distributor.

Each backend gets one strict-category fixture at truncation 2 and a
partner to tensor it with; the vectq partner is the two-dimensional group
algebra. The linearization is also tensored with itself: that product has
16-dimensional slots, so its associativity checks compare composites on
4096-dimensional, almost entirely zero Kronecker products. The associator
of three copies of it is left out: its check scans dense 4096 x 4096
matrices for their nonzeros, which takes about 13 s on a shared
2-vCPU host.
"""

import dataclasses

import pytest

from cosegal.base import BACKENDS
from cosegal.monoidal import (
    check_distributor, tensor_s, tensor_s_assoc, tensor_s_mor,
    tensor_s_symmetry, tensor_s_unitor, unit_precat, yoneda_module,
)
from cosegal.precat import (
    check_unital, from_strict_category, identity_morphism, validate,
    validate_diagram, validate_morphism,
)

from fixtures import (
    dual_numbers_chq, function_category, group_algebra_z2,
    linearize_category,
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_tensor_s_coherence_maps_are_morphisms(backend):
    f, g = precats(backend)
    un = unit_precat(backend, TRUNCATION)
    assert validate_morphism(tensor_s_assoc(f, g, un)) == []
    assert validate_morphism(tensor_s_unitor(f, "left")) == []
    assert validate_morphism(tensor_s_unitor(f, "right")) == []
    assert validate_morphism(tensor_s_symmetry(f, g)) == []


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
