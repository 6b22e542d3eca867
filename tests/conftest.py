import os
import random

import pytest
from hypothesis import is_hypothesis_test, seed, settings

DEFAULT_SEED = 20260814

# property tests keep no example database and no per-example deadline, so
# that a run depends on the seed alone and a slow host does not fail it
settings.register_profile("cosegal", database=None, deadline=None)
settings.load_profile("cosegal")


def fuzz_seed():
    return int(os.environ.get("COSEGAL_SEED", str(DEFAULT_SEED)))


@pytest.fixture
def rng():
    """A deterministic RNG; override the seed with COSEGAL_SEED."""
    return random.Random(fuzz_seed())


def pytest_collection_modifyitems(items):
    """Every hypothesis test draws from COSEGAL_SEED, like the rng fixture:
    the same examples at one seed, other examples at another."""
    for item in items:
        if is_hypothesis_test(getattr(item, "obj", None)):
            seed(fuzz_seed())(item.obj)
