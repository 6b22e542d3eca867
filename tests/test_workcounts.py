"""Work counts on the deep path: the calls of a kernel that a stage
makes, pinned as ceilings. Counts of work do not drift with the host as
wall times do, so a test can hold them.

The input is the unit-forgotten strict `function_category({"A": 1,
"B": 2})`. The oracles run on the unitalization of its free pointing and
on that eta; the transposes, maps out of the free constructions, are
gamma's counit of it and the free pointing of that counit.
"""

import functools

import pytest

from cosegal import ratmat
from cosegal.adjoints import gamma_counit, point, point_map, unitalize
from cosegal.precat import (
    check_unital, from_strict_category, make_precategory, validate,
    validate_morphism,
)

from fixtures import function_category, linearize_category


def unit_forgotten(backend, truncation):
    cat = function_category({"A": 1, "B": 2})
    if backend == "vectq":
        cat = linearize_category(cat)
    pc = from_strict_category(cat, truncation)
    return make_precategory(pc.backend, pc.letters, pc.truncation,
                            pc.values, pc.maps, pc.laxity)


@functools.cache
def unitalized(backend, truncation):
    return unitalize(point(unit_forgotten(backend, truncation)))


def count_calls(monkeypatch, module, name):
    """A one-element list that counts the calls of module.name."""
    count = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


@pytest.mark.parametrize("oracle", ["check_unital", "validate",
                                    "validate_morphism"])
def test_the_oracles_build_no_kronecker_product(monkeypatch, oracle):
    # each law is a square whose side composes through a tensor with an
    # identity, h after (f (x) 1); base.tensor_then reads it off the
    # nonzeros of h and f (ratmat.kron_then). Composing through the built
    # tensor made 56, 448 and 136 krons here, and 120, 1,984 and 392 at
    # truncation 5
    res = unitalized("vectq", 4)
    run, arg = {"check_unital": (check_unital, res.precat),
                "validate": (validate, res.precat),
                "validate_morphism": (validate_morphism, res.eta)}[oracle]
    krons = count_calls(monkeypatch, ratmat, "kron")
    fused = count_calls(monkeypatch, ratmat, "kron_then")
    assert run(arg) == []
    assert krons[0] == 0
    assert fused[0] > 0


@pytest.mark.parametrize("transpose", ["gamma_counit", "point_map"])
def test_the_transposes_build_no_kronecker_product(monkeypatch, transpose):
    # a leg of a transpose folds its parts through the target's laxity
    # one at a time, base.tensor_then of two factors each. Tensoring all
    # of a leg's factors first made 16 and 12 krons here, on the legs of
    # three parts; the builds of gamma and point make none at truncation 3
    pc = unit_forgotten("vectq", 3)
    run, arg = {"gamma_counit": (gamma_counit, pc),
                "point_map": (point_map, gamma_counit(pc))}[transpose]
    krons = count_calls(monkeypatch, ratmat, "kron")
    run(arg)
    assert krons[0] == 0
