"""Work counts on the deep path: the calls of a kernel that a stage
makes, pinned as ceilings. Counts of work do not drift with the host as
wall times do, so a test can hold them.

The input is the unit-forgotten strict `function_category({"A": 1,
"B": 2})`, freely pointed and unitalized; the oracles run on the
unitalization and on its eta.
"""

import functools

import pytest

from cosegal import ratmat
from cosegal.adjoints import point, unitalize
from cosegal.precat import (
    check_unital, from_strict_category, make_precategory, validate,
    validate_morphism,
)

from fixtures import function_category, linearize_category


@functools.cache
def unitalized(backend, truncation):
    cat = function_category({"A": 1, "B": 2})
    if backend == "vectq":
        cat = linearize_category(cat)
    pc = from_strict_category(cat, truncation)
    forgot = make_precategory(pc.backend, pc.letters, pc.truncation,
                              pc.values, pc.maps, pc.laxity)
    return unitalize(point(forgot))


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
