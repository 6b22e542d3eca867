"""Free constructions: laxity, unit points, unit forcing, realization,
one-chain classifiers, letter-map extension.

The targeted examples come first (known dimension counts, known collapse
behavior), the fuzz sweeps after; every colimit-backed construction is
re-validated by the generic precategory validator, which recomputes all
coherence squares from scratch.
"""

import dataclasses
import gc
from collections import Counter
import itertools
import math
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from cosegal import adjoints, base, colim, monoidal, precat, ratmat, shapes
from cosegal.base import (
    chq_map, disk, empty, enumerate_maps, finset_map, finset_obj, homology,
    identity, invert, is_isomorphism, is_surjective, sphere, tensor,
    tensor_mor, vectq_map, vectq_obj, zero_map,
)
from cosegal.adjoints import (
    codiagonal_arrow, free_hom_kmorphism, free_hom_kobject, gamma,
    gamma_counit, gamma_map, gamma_unit, kobject_of, point,
    point_carrier_inclusion, point_map, precat_colimit, psi,
    psi_inclusions, psi_restrict, psi_square, psi_transpose, pullback,
    pushforward,
    realize, square_down, square_ell, square_xi, unitalize, upsilon,
    upsilon_center_inclusion, upsilon_map, upsilon_transpose,
    factor_through_unital,
)
from cosegal.colim import (
    coequalizer, colimit, colimit_induced, copair, coproduct,
    quotient_induced, wide_pushout_induced,
)
from cosegal.monoidal import tensor_s
from cosegal.precat import (
    PrecatMorphism, check_unital, expected_laxity_keys,
    from_strict_category, identity_morphism,
    is_levelwise_isomorphism, make_precategory, unit_constraint_maps,
    validate, validate_diagram, validate_morphism, validate_strict_category,
)

from fixtures import (
    chainify_category, chq_pair_category, dual_numbers_chq, function_category,
    group_algebra_z2, linearize_category, rand_chq, rand_chq_map,
    split_module, walking_arrow,
)


def forget_units(pc):
    return make_precategory(pc.backend, pc.letters, pc.truncation,
                            pc.values, pc.maps, pc.laxity)


def endpoint_constant_kobject(backend, letters, truncation, fiber):
    """Value by endpoints, identity structure maps: trivially coherent."""
    values = {}
    maps = {}
    for s in shapes.all_chains(letters, truncation):
        values[s] = fiber[(s[0], s[-1])]
    for s in values:
        for p in range(1, len(s) - 1):
            maps[(s, p)] = identity(values[s])
    return make_precategory(backend, letters, truncation, values, maps, {})


def rand_kobject(rng, backend="finset", letters=("a", "b"), truncation=2):
    """Coherent chain diagrams from three honest families: endpoint
    constants, one-chain free diagrams, and forgotten free pointings."""
    kind = rng.choice(["constant", "freehom", "pointed"])
    if kind == "constant":
        fiber = {}
        for a in letters:
            for b in letters:
                n = rng.randint(0, 3)
                fiber[(a, b)] = finset_obj(
                    ["%s%s%d" % (a, b, i) for i in range(n)])
        return endpoint_constant_kobject(backend, letters, truncation,
                                         fiber)
    if kind == "freehom":
        chains = shapes.all_chains(letters, truncation)
        z0 = chains[rng.randrange(len(chains))]
        m = finset_obj(["m%d" % i for i in range(rng.randint(1, 3))])
        return free_hom_kobject(letters, truncation, z0, m)
    sizes = {a: rng.randint(1, 2) for a in letters}
    pc = forget_units(from_strict_category(function_category(sizes),
                                           truncation))
    return kobject_of(point(pc))


# ---------------------------------------------------------------------------
# bare chain diagrams


def test_kobject_validator_catches_broken_simplicial_identity():
    k = endpoint_constant_kobject(
        "finset", ("a",), 3,
        {("a", "a"): finset_obj(["x", "y"])})
    assert validate_diagram(k) == []
    z = ("a", "a", "a", "a")
    k.maps[(z, 1)] = finset_map(k.values[z], k.values[z], (1, 0))
    errs = validate_diagram(k)
    assert any("simplicial" in e for e in errs)


def test_free_hom_kobject_counts_deletions(rng):
    letters = ("a", "b")
    z0 = ("a", "a", "b")
    m = finset_obj(["m0", "m1"])
    k = free_hom_kobject(letters, 3, z0, m)
    assert validate_diagram(k) == []
    # one copy of m per deletion onto z0
    for w in k.values:
        assert k.values[w].size() == 2 * len(shapes.hom_set(w, z0))
    # a chain that misses z0 entirely
    assert k.values[("b", "a")].size() == 0


def test_free_hom_kmorphism_is_natural():
    letters = ("a", "b")
    z0 = ("a", "b")
    f = finset_map(finset_obj(["m0", "m1"]), finset_obj(["n0"]), (0, 0))
    phi = free_hom_kmorphism(letters, 2, z0, f)
    assert validate_morphism(phi) == []


def reference_free_hom(letters, truncation, z0, m):
    """The free one-chain diagram by its formula: at each chain w a plain
    sum of one copy of m per deletion w -> z0 (a single copy is m itself),
    with structure maps that compose deletion indices. Returns
    ({chain: (value, injections, deletions)}, {(chain, p): map})."""
    sums = {}
    for w in shapes.all_chains(letters, truncation):
        ds = shapes.hom_set(w, z0)
        if len(ds) == 1:
            sums[w] = (m, [identity(m)], ds)
        else:
            obj, injs = coproduct([m] * len(ds), backend=m.backend)
            sums[w] = (obj, injs, ds)
    maps = {}
    for w, (obj, injs, ds) in sums.items():
        for p in range(1, len(w) - 1):
            step = shapes.del_single(w, p)
            small, _, small_ds = sums[shapes.delete(w, p)]
            maps[(w, p)] = copair(
                small, [injs[ds.index(step.then(d))] for d in small_ds], obj)
    return sums, maps


def free_hom_cases(backend):
    """(m, maps out of m) per backend: a nonempty m with a map onward and
    the empty m with its map into the nonempty one."""
    if backend == "finset":
        m = finset_obj(["m0", "m1"])
        f = finset_map(m, finset_obj(["n0"]), (0, 0))
    elif backend == "vectq":
        m = vectq_obj(2)
        f = vectq_map(m, vectq_obj(1), [[1, 2]])
    else:
        m, _ = coproduct([disk(1), sphere(0)])
        f = chq_map(m, disk(1), [[1, 0, 0], [0, 1, 1]])
    nothing = empty(backend)
    return [(m, [f]), (nothing, [zero_map(nothing, m)])]


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_free_hom_matches_the_deletion_index_formula(backend):
    letters, truncation = ("a", "b"), 3
    for m, fs in free_hom_cases(backend):
        for z0 in shapes.all_chains(letters, truncation):
            k = free_hom_kobject(letters, truncation, z0, m)
            sums, maps = reference_free_hom(letters, truncation, z0, m)
            assert k.chains == tuple(sums)
            assert k.values == {w: sm[0] for w, sm in sums.items()}
            assert {key: k.gen_map(*key) for key in maps} == maps
            assert k.laxity == {}
            for f in fs:
                phi = free_hom_kmorphism(letters, truncation, z0, f)
                dst, _ = reference_free_hom(letters, truncation, z0, f.dst)
                for w, (obj, _, _) in sums.items():
                    dobj, dinjs, _ = dst[w]
                    assert phi.at(w) == copair(
                        obj, [f.then(j) for j in dinjs], dobj)


# ---------------------------------------------------------------------------
# the tensor of two sums


def reference_pair_assemble(backend, left, right, targets, dst):
    """The generic map out of a tensor of two sums: left/right are (sum
    object, injections, sources) triples; the distribution map out of the
    sum of the summand tensors is built from the injections, checked
    invertible and inverted."""
    lobj, linjs, lsrcs = left
    robj, rinjs, rsrcs = right
    pair_srcs = [tensor(a, b) for a in lsrcs for b in rsrcs]
    cop, _ = adjoints._sum_objects(backend, pair_srcs)
    spread = [tensor_mor(li, rj) for li in linjs for rj in rinjs]
    t_iso = assemble(cop, spread, tensor(lobj, robj))
    if not is_isomorphism(t_iso):
        raise AssertionError("tensor distribution failed to be invertible")
    # a pair with an empty side may be left out: its component is the
    # initial map
    comps = [targets[(i, j)] if (i, j) in targets
             else zero_map(tensor(a, b), dst)
             for i, a in enumerate(lsrcs) for j, b in enumerate(rsrcs)]
    return invert(t_iso).then(assemble(cop, comps, dst))


def assemble(cop, comps, dst):
    """The map out of a `_sum_objects` sum given one map per summand: a
    one-summand sum is its summand."""
    return comps[0] if len(comps) == 1 else copair(cop, comps, dst)


def sum_injections(obj, srcs):
    """The injections of the sum obj of srcs, built the way the package
    builds it (`_sum_objects`, or `coproduct` for presentations)."""
    for cand, injs in (adjoints._sum_objects(obj.backend, srcs),
                       coproduct(srcs, obj.backend)):
        if cand == obj:
            return injs
    raise AssertionError("not a sum of its summands")


def pair_assemble_by_reference(backend, left, right, targets, dst):
    """`colim.tensor_copair`'s signature, computed by the reference."""
    return reference_pair_assemble(
        backend, (left[0], sum_injections(*left), left[1]),
        (right[0], sum_injections(*right), right[1]), targets, dst)


def rand_summands(rng, backend, tag):
    """Up to three summands, some of them empty; chq ones reach down to
    degree -2."""
    out = []
    for i in range(rng.randint(0, 3)):
        n = rng.randint(0, 2)
        if backend == "finset":
            out.append(finset_obj(["%s%d.%d" % (tag, i, e) for e in range(n)]))
        elif backend == "vectq":
            out.append(vectq_obj(n))
        else:
            out.append(rand_chq(rng, lo=-2))
    return out


def rand_target(rng, src, dst):
    if src.backend == "finset":
        return finset_map(src, dst, [rng.randrange(dst.size())
                                     for _ in range(src.size())])
    if src.backend == "vectq":
        return vectq_map(src, dst, [[rng.randint(-2, 2)
                                     for _ in range(src.size())]
                                    for _ in range(dst.size())])
    return rand_chq_map(rng, src, dst)


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_pair_assemble_matches_the_generic_distribution(rng, backend):
    sums = [adjoints._sum_objects,
            lambda b, items: coproduct(items, b)]
    for _ in range(40):
        lsrcs = rand_summands(rng, backend, "l")
        rsrcs = rand_summands(rng, backend, "r")
        lobj, linjs = rng.choice(sums)(backend, lsrcs)
        robj, rinjs = rng.choice(sums)(backend, rsrcs)
        if backend == "finset":
            dst = finset_obj(["d%d" % e for e in range(rng.randint(1, 3))])
        elif backend == "vectq":
            dst = vectq_obj(rng.randint(0, 3))
        else:
            dst = rand_chq(rng, lo=-2)
        # a pair with an empty side is given its component or left out
        targets = {(i, j): rand_target(rng, tensor(a, b), dst)
                   for i, a in enumerate(lsrcs)
                   for j, b in enumerate(rsrcs)
                   if a.size() * b.size() or rng.random() < 0.5}
        got = colim.tensor_copair(backend, (lobj, lsrcs), (robj, rsrcs),
                                      targets, dst)
        ref = reference_pair_assemble(backend, (lobj, linjs, lsrcs),
                                      (robj, rinjs, rsrcs), targets, dst)
        assert got == ref


def test_pair_assemble_refuses_a_mismatched_layout():
    a, b = vectq_obj(2), vectq_obj(1)
    lobj, _ = coproduct([a, b], "vectq")
    targets = {(0, 0): identity(tensor(a, b))}
    with pytest.raises(AssertionError, match="failed to be invertible"):
        colim.tensor_copair("vectq", (lobj, [a]), (b, [b]), targets,
                                tensor(a, b))
    # a component whose source is not the tensor of its two summands
    targets = {(0, 0): identity(tensor(a, b)), (1, 0): identity(a)}
    with pytest.raises(ValueError, match="does not match its summands"):
        colim.tensor_copair("vectq", (lobj, [a, b]), (b, [b]), targets,
                                tensor(a, b))
    # only a pair with an empty side may be left out
    nothing = empty("vectq")
    lobj, _ = coproduct([a, nothing, b], "vectq")
    targets = {(0, 0): identity(tensor(a, b)),
               (2, 0): zero_map(tensor(b, b), tensor(a, b))}
    got = colim.tensor_copair("vectq", (lobj, [a, nothing, b]), (b, [b]),
                                  targets, tensor(a, b))
    assert got.src == tensor(lobj, b)
    del targets[(2, 0)]
    with pytest.raises(ValueError, match="has no component"):
        colim.tensor_copair("vectq", (lobj, [a, nothing, b]), (b, [b]),
                                targets, tensor(a, b))


def laxity_cases():
    """One small unpointed precategory per backend."""
    fc = function_category({"a": 1, "b": 2})
    cats = [fc, linearize_category(function_category({"A": 1, "B": 1})),
            dual_numbers_chq()]
    return [forget_units(from_strict_category(cat, 2)) for cat in cats]


def test_free_constructions_and_pushforward_laxity_match_the_reference(
        monkeypatch):
    def build(pc):
        f = {a: "c" for a in pc.letters}
        return (gamma(kobject_of(pc)).laxity, point(pc).laxity,
                pushforward(f, pc).laxity)

    cases = laxity_cases()
    closed = [build(pc) for pc in cases]
    monkeypatch.setattr(adjoints, "tensor_copair",
                        pair_assemble_by_reference)
    assert closed == [build(pc) for pc in cases]


# ---------------------------------------------------------------------------
# gamma


def test_gamma_block_dimensions_one_letter():
    # all slots one-dimensional: degree n collects one summand per
    # subdivision, 1, 2, 4 at degrees 1, 2, 3
    vals = {s: vectq_obj(1) for s in shapes.all_chains(("x",), 3)}
    maps = {(s, p): identity(vectq_obj(1))
            for s in vals for p in range(1, len(s) - 1)}
    k = make_precategory("vectq", ("x",), 3, vals, maps, {})
    g = gamma(k)
    by_degree = {shapes.degree(s): g.value(s).size() for s in g.chains}
    assert by_degree == {1: 1, 2: 2, 3: 4}
    assert validate(g) == []


def test_gamma_keeps_degree_one_slots_on_the_nose(rng):
    for _ in range(6):
        k = rand_kobject(rng)
        g = gamma(k)
        assert validate(g) == []
        for s in g.chains:
            if len(s) == 2:
                assert g.value(s) == k.value(s)


def test_gamma_map_restricts_to_the_input_at_degree_one():
    letters = ("a", "b")
    z0 = ("a", "b")
    f = finset_map(finset_obj(["m0", "m1"]), finset_obj(["n0"]), (0, 0))
    phi = free_hom_kmorphism(letters, 2, z0, f)
    gphi = gamma_map(phi)
    assert validate_morphism(gphi) == []
    for s in gphi.src.chains:
        if len(s) == 2:
            assert gphi.at(s) == phi.at(s)


def test_gamma_adjunction_triangles(rng):
    for _ in range(4):
        k = rand_kobject(rng, truncation=2)
        g = gamma(k)
        eta = gamma_unit(k)
        assert validate_morphism(eta) == []
        eps = gamma_counit(g)
        assert validate_morphism(eps) == []
        ge = gamma_map(eta)
        for s in g.chains:
            assert ge.at(s).then(eps.at(s)) == identity(g.value(s))
    # the other triangle, on a precategory with real laxity
    pc = forget_units(from_strict_category(function_category({"a": 2}), 2))
    eps = gamma_counit(pc)
    eta = gamma_unit(kobject_of(pc))
    for s in pc.chains:
        assert eta.at(s).then(eps.at(s)) == identity(pc.value(s))


# ---------------------------------------------------------------------------
# point


def test_point_keys_alternate_and_need_equal_endpoint_units():
    def point_keys(z):
        return adjoints._keyed(z, "point").keys

    assert point_keys(("a", "b")) == (((), ("f",)),)
    assert point_keys(("a", "a")) == (((), ("f",)), ((), ("u",)))
    keys3 = point_keys(("a", "a", "a"))
    assert ((), ("f",)) in keys3 and ((), ("u",)) in keys3
    assert ((1,), ("f", "u")) in keys3 and ((1,), ("u", "f")) in keys3
    assert len(keys3) == 4
    # a unit part needs equal endpoints: the whole chain (a,b,a) has them,
    # neither part of the (1,) cut does
    assert point_keys(("a", "b", "a")) == (((), ("f",)), ((), ("u",)))


def test_gamma_keys_take_point_key_form_with_every_part_a_carrier():
    def gamma_keys(z):
        return adjoints._keyed(z, "gamma").keys

    assert gamma_keys(("a", "b")) == (((), ("f",)),)
    assert gamma_keys(("a", "b", "a")) == (((), ("f",)), ((1,), ("f", "f")))
    assert gamma_keys(("a", "b", "c", "d")) == (
        ((), ("f",)), ((1,), ("f", "f")), ((2,), ("f", "f")),
        ((1, 2), ("f", "f", "f")))
    for z in shapes.all_chains(("a", "b"), 4):
        keys = gamma_keys(z)
        # the chain itself, then each subdivision in canonical order
        assert [cuts for cuts, _ in keys] == [()] + [
            cuts for cuts, _ in shapes.subdivisions(z)]
        assert all(labels == ("f",) * (len(cuts) + 1)
                   for cuts, labels in keys)
        # the one-part carrier key is the first key of every kind
        assert keys[0] == adjoints._keyed(z, "point").keys[0] \
            == adjoints._keyed(z, "gadget").keys[0] == ((), ("f",))


# ---------------------------------------------------------------------------
# the chain table


def pair_letters():
    """The letters of a slotwise tensor: pairs of letters."""
    f = from_strict_category(function_category({"A": 1}), 1)
    g = from_strict_category(function_category({"x": 1, "y": 1}), 1)
    return tensor_s(f, g).letters


def shifted_cuts(cuts_s, shift, cuts_t, junction=True):
    """The cut tuple of concat(s, t) made of s's cuts, t's cuts moved past
    s, and (when junction) a cut where s ends."""
    return cuts_s + ((shift,) if junction else ()) + tuple(
        c + shift for c in cuts_t)


# the labels whose junctions each build kind merges: gamma merges none,
# point both, and the gadget, which has no laxity on its carriers, units
MERGED_LABELS = {"gamma": (), "point": ("f", "u"), "gadget": ("u",)}


def check_chain_table(letters, truncation):
    chains = shapes.all_chains(letters, truncation)
    for z in chains:
        for kind, merges in MERGED_LABELS.items():
            keyed = adjoints._keyed(z, kind)
            keys = keyed.keys
            cuts = [c for c, _ in keys]
            # unit parts have equal endpoints, and no two adjacent parts
            # carry a label the kind merges
            for c, labels in keys:
                assert all(q[0] == q[-1] for q, l in zip(
                    shapes.parts_of(z, c), labels) if l == "u")
                assert not any(a == b and a in merges
                               for a, b in zip(labels, labels[1:]))
            assert kind != "gamma" or all("u" not in l for _, l in keys)
            assert keyed.pos == {key: i for i, key in enumerate(keys)}
            assert keyed.parts == tuple(shapes.parts_of(z, c) for c in cuts)
            assert keyed.carriers == tuple(
                tuple(q for q, l in zip(shapes.parts_of(z, c), labels)
                      if l == "f") for c, labels in keys)
    for s, t in expected_laxity_keys(chains, truncation):
        st = shapes.concat(s, t)
        shift = shapes.degree(s)
        for kind, merges in MERGED_LABELS.items():
            skeys, tkeys, stkeys = [adjoints._keyed(x, kind).keys
                                    for x in (s, t, st)]
            expected = []
            for cuts1, labels1 in skeys:
                for cuts2, labels2 in tkeys:
                    merged = (labels1[-1] == labels2[0]
                              and labels2[0] in merges)
                    if merged:
                        key = (shifted_cuts(cuts1, shift, cuts2, False),
                               labels1 + labels2[1:])
                    else:
                        key = (shifted_cuts(cuts1, shift, cuts2),
                               labels1 + labels2)
                    expected.append((stkeys.index(key), merged))
            assert adjoints._targets(s, t, kind) == tuple(expected)


@pytest.mark.parametrize("truncation", [1, 2, 3, 4])
def test_chain_table_is_a_pure_reindexing(truncation):
    for letters in [(), ("A",), ("A", "B"), ("A", "B", "C"), pair_letters()]:
        check_chain_table(tuple(sorted(letters)), truncation)


def join_shaped_precategory():
    """An unpointed precategory on the partial chain set of
    `monoidal.join_chains` of the letters x and y: no y comes before an
    x. Every value is one two-element set, every structure map the
    identity and every laxity the projection onto the left factor."""
    chains = monoidal.join_chains(("x",), ("y",), 2)
    two = finset_obj(["p", "q"])
    values = {s: two for s in chains}
    maps = {(s, p): identity(two)
            for s in chains for p in range(1, len(s) - 1)}
    first = finset_map(tensor(two, two), two, (0, 0, 1, 1))
    laxity = {key: first for key in expected_laxity_keys(chains, 2)}
    return make_precategory("finset", ("x", "y"), 2, values, maps, laxity)


def test_free_constructions_of_a_partial_chain_set_keep_to_its_chains():
    # gamma and point keep to the chains of their input, and store laxity
    # only at the laxity keys of those chains
    one = make_precategory("finset", ("a",), 2,
                           {("a", "a"): empty("finset")}, {}, {})
    join = join_shaped_precategory()
    assert validate(join) == []
    assert set(join.chains) < set(shapes.all_chains(join.letters, 2))
    for pc in (one, join):
        keys = expected_laxity_keys(pc.chains, pc.truncation)
        for out in (gamma(pc), point(pc)):
            assert validate(out) == []
            assert out.chains == pc.chains
            assert set(out.laxity) <= set(keys)
    assert expected_laxity_keys(one.chains, 2) == []
    # the empty carrier leaves gamma empty and point its unit summand only
    assert gamma(one).value(("a", "a")).size() == 0
    assert point(one).value(("a", "a")).size() == 1


def test_point_adds_unit_summands_only_on_diagonals():
    pc = forget_units(from_strict_category(
        function_category({"A": 1, "B": 2}), 2))
    p = point(pc)
    assert validate(p) == []
    assert p.is_pointed()
    for s in p.chains:
        if len(s) == 2 and s[0] != s[-1]:
            assert p.value(s) == pc.value(s)
        if len(s) == 2 and s[0] == s[-1]:
            assert p.value(s).size() == pc.value(s).size() + 1
    inc = point_carrier_inclusion(pc)
    assert validate_morphism(inc) == []


def test_point_map_of_counit_validates():
    pc = forget_units(from_strict_category(function_category({"a": 2}), 2))
    eps = gamma_counit(pc)
    pm = point_map(eps)
    assert validate_morphism(pm) == []
    assert pm.src.is_pointed() and pm.dst.is_pointed()
    for a in pc.letters:
        assert pm.src.unit_map(a).then(pm.at((a, a))) \
            == pm.dst.unit_map(a)


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_units_of_gamma_and_point_are_natural(backend):
    # gamma_map and point_map are transposes, fixed by where they send the
    # chain blocks: the unit followed by the free map is the map followed
    # by the unit
    letters, z0 = ("a", "b"), ("a", "b", "b")
    for _, fs in free_hom_cases(backend):
        for f in fs:
            phi = free_hom_kmorphism(letters, 3, z0, f)
            assert gamma_unit(phi.src).then(gamma_map(phi)).components \
                == phi.then(gamma_unit(phi.dst)).components
    to_backend = {"finset": lambda cat: cat, "vectq": linearize_category,
                  "chq": chainify_category}[backend]
    for cat in (function_category({"a": 1, "b": 2}), walking_arrow()):
        pc = forget_units(from_strict_category(to_backend(cat), 2))
        alpha = gamma_counit(pc)
        assert point_carrier_inclusion(alpha.src).then(point_map(alpha)) \
            == alpha.then(point_carrier_inclusion(pc))


def test_a_pointed_build_transposes_into_pointed_targets_only():
    # a pointed build's transpose is pointed, so it needs a pointed
    # target; gamma's build is unpointed and transposes into any target
    h = from_strict_category(function_category({"a": 1, "b": 2}), 2)
    pc = forget_units(h)
    z0 = ("a", "b", "b")
    with pytest.raises(ValueError, match="pointed target"):
        upsilon_transpose(pc, z0, identity(pc.value(z0)))
    with pytest.raises(ValueError, match="pointed target"):
        adjoints._free_transpose(adjoints._point_build(pc), pc,
                                 lambda z: identity(pc.value(z)))
    eps = gamma_counit(pc)
    assert not eps.dst.is_pointed()
    assert validate_morphism(eps) == []


# ---------------------------------------------------------------------------
# the one-chain gadget


def test_upsilon_transpose_classifies_maps_into_the_slot():
    cat = function_category({"a": 1, "b": 2})
    h = from_strict_category(cat, 2)
    z0 = ("a", "b", "b")
    m = finset_obj(["m0", "m1"])
    for g in enumerate_maps(m, h.value(z0)):
        tr = upsilon_transpose(h, z0, g)
        assert validate_morphism(tr) == []
        inc = upsilon_center_inclusion(h.letters, h.truncation, z0, m)
        assert inc.then(tr.at(z0)) == g


def test_free_transpose_computes_each_chain_component_once():
    h = from_strict_category(function_category({"a": 1, "b": 2}), 2)
    z0 = ("a", "b", "b")
    m = finset_obj(["m0", "m1"])
    g = finset_map(m, h.value(z0), (0, h.value(z0).size() - 1))
    nothing = empty("finset")
    gadget = adjoints._Gadget.of(h.letters, h.truncation, z0,
                                 zero_map(nothing, m))
    k, wps = gadget.k
    top = zero_map(nothing, h.value(shapes.endpoints(z0)))
    calls = []

    def k_component(w):
        # each copy of m goes along its deletion onto z0, the empty base
        # along the deletion onto the endpoints
        calls.append(w)
        cone = [g.then(h.structure(d)) for d in shapes.hom_set(w, z0)]
        return wide_pushout_induced(
            wps[w], cone, through=top.then(h.structure(shapes.to_initial(w))))

    tr = adjoints._free_transpose(gadget.build, h, k_component)
    # once at each chain whose value is nonempty, and nowhere else
    assert sorted(calls) == sorted(set(calls)) == sorted(
        w for w in k.chains if k.value(w).size())
    assert tr.components == upsilon_transpose(h, z0, g).components


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_gadget_is_point_of_gamma_up_to_isomorphism(backend):
    # the gadget is built in one piece; the nested build point(gamma(k))
    # is its reference: the transpose of the copy of m at z0 is an
    # isomorphism onto it
    letters, truncation = ("a", "b"), 3
    m = {"finset": finset_obj(["m0", "m1"]), "vectq": vectq_obj(2),
         "chq": disk(1)}[backend]
    for z0 in shapes.all_chains(letters, truncation):
        if shapes.degree(z0) != 2:
            continue
        for x in (m, empty(backend)):
            k = free_hom_kobject(letters, truncation, z0, x)
            g = gamma(k)
            n = point(g)
            copy = gamma_unit(k).at(z0).then(
                point_carrier_inclusion(g).at(z0))
            tr = upsilon_transpose(n, z0, copy)
            assert validate_morphism(tr) == []
            assert is_levelwise_isomorphism(tr)
    # by distributivity, a gadget key is a point key with each carrier
    # part subdivided by a gamma key
    for w in shapes.all_chains(letters, truncation):
        point_keyed = adjoints._keyed(w, "point")
        assert len(adjoints._keyed(w, "gadget").keys) == sum(
            math.prod(len(adjoints._keyed(q, "gamma").keys) for q in qs)
            for qs in point_keyed.carriers)


@pytest.mark.parametrize("backend", ["finset", "vectq"])
def test_inclusions_out_of_an_empty_arrow_end_are_initial(backend):
    # the chain block of an empty k(w) is no summand of the gadget there
    nothing = empty(backend)
    m = finset_obj(["m0"]) if backend == "finset" else vectq_obj(1)
    letters, z0 = ("a", "b"), ("a", "b", "b")
    at = (letters, 2, z0)
    inc = upsilon_center_inclusion(*at, nothing)
    assert inc == zero_map(nothing, upsilon(*at, nothing).value(z0))
    res = psi(z0, zero_map(nothing, m), letters=letters, truncation=2)
    inc_u, inc_v = psi_inclusions(res, z0)
    assert inc_u == zero_map(nothing, res.precat.value(("a", "b")))
    assert inc_v.src == m and inc_v.dst == res.precat.value(z0)


def test_upsilon_map_is_functorial():
    letters = ("a",)
    z0 = ("a", "a")
    m = finset_obj(["m0", "m1"])
    n = finset_obj(["n0"])
    f = finset_map(m, n, (0, 0))
    g = finset_map(n, m, (1,))
    left = upsilon_map(letters, 2, z0, f.then(g))
    right = upsilon_map(letters, 2, z0, f).then(
        upsilon_map(letters, 2, z0, g))
    for s in left.src.chains:
        assert left.at(s) == right.at(s)


def initial_maps_out_of_empty(maps):
    """Assert that every map of maps whose source is empty is the initial
    map, and return how many there are."""
    out = [f for f in maps if not f.src.size()]
    for f in out:
        assert f == zero_map(f.src, f.dst)
    return len(out)


def maps_of(pc):
    """Every structure map and laxity map of pc, read through the
    accessors."""
    return ([pc.gen_map(s, p) for s in pc.chains for p in range(1, len(s) - 1)]
            + [pc.lax(s, t)
               for s, t in expected_laxity_keys(pc.chains, pc.truncation)])


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_free_constructions_on_empty_objects(backend):
    # the walking arrow has the empty hom B -> A, so every backend's
    # strict category has empty values at the chains through it; gamma of
    # the free diagram on the empty m is empty everywhere, and upsilon of
    # it is nonempty only in its unit parts
    to_backend = {"finset": lambda cat: cat, "vectq": linearize_category,
                  "chq": chainify_category}[backend]
    h = from_strict_category(to_backend(walking_arrow()), 2)
    pc = forget_units(h)
    nothing = empty(backend)
    assert any(not v.size() for v in pc.values.values())
    built = [gamma(kobject_of(pc)), point(pc)]
    morphisms = [point_map(identity_morphism(pc)),
                 gamma_map(identity_morphism(kobject_of(pc)))]
    for z0 in (("A", "B", "B"), ("B", "A", "A"), ("A", "A", "B")):
        # an empty m, and the empty value h(z0) at ("B", "A", "A")
        m = h.value(z0) if h.value(z0).size() else nothing
        built += [upsilon(h.letters, 2, z0, nothing),
                  gamma(free_hom_kobject(h.letters, 2, z0, nothing)),
                  upsilon(h.letters, 2, z0, m)]
        morphisms += [
            upsilon_map(h.letters, 2, z0, zero_map(nothing, m)),
            upsilon_map(h.letters, 2, z0, identity(m)),
            upsilon_transpose(h, z0, zero_map(nothing, h.value(z0))),
            upsilon_transpose(h, z0, identity(h.value(z0)))]
    assert all(not built[3].value(s).size() for s in built[3].chains)
    count = 0
    for pc_ in built:
        assert validate(pc_) == []
        count += initial_maps_out_of_empty(maps_of(pc_))
    for phi in morphisms:
        assert validate_morphism(phi) == []
        count += initial_maps_out_of_empty(
            [phi.at(s) for s in phi.src.chains])
    assert count > 0


def dense_free_build(pc, kind):
    """`_free_build` as it was before it worked on its support: every key
    of every chain is tensored and summed, empty summands included, and an
    empty summand is only left out of the copairs. It returns the
    package's `_Sum` records, with every nonempty summand live, so that the
    maps into and out of the build are made the same way on both."""
    backend = pc.backend
    values = pc.values
    u = base.unit(backend)
    dense = {}
    for z in pc.chains:
        keyed = adjoints._keyed(z, kind)
        srcs = [base.tensor_multi([values[q] if l == "f" else u
                                   for q, l in zip(parts, labels)], backend)
                for (_, labels), parts in zip(keyed.keys, keyed.parts)]
        obj, injs = adjoints._sum_objects(backend, srcs)
        dense[z] = (obj, injs, srcs, keyed)

    def sum_map(z, dst, leg):
        obj, _, srcs, keyed = dense[z]
        if not obj.size():
            return zero_map(obj, dst)
        if len(srcs) == 1:
            return leg(keyed.keys[0], keyed.parts[0])
        return copair(obj, [leg(key, parts) for key, parts, src
                            in zip(keyed.keys, keyed.parts, srcs)
                            if src.size()], dst)

    def reinserted(z, p, cuts, labels):
        _, injs, _, keyed = dense[z]
        if not cuts:
            leg = pc.gen_map(z, p) if labels[0] == "f" else identity(u)
            return leg.then(injs[keyed.pos[(cuts, labels)]])
        big_cuts, j, rel = shapes.reinsert(z, cuts, p)
        at = keyed.pos[(big_cuts, labels)]
        parts = keyed.parts[at]
        factors = [identity(values[q] if l == "f" else u)
                   for q, l in zip(parts, labels)]
        if labels[j] == "f":
            factors[j] = pc.gen_map(parts[j], rel)
        return base.tensor_mor(*factors).then(injs[at])

    maps = {(z, p): sum_map(shapes.delete(z, p), dense[z][0],
                            lambda key, _: reinserted(z, p, *key))
            for z in pc.chains for p in range(1, len(z) - 1)}
    laxity = {}
    for s, t in expected_laxity_keys(pc.chains, pc.truncation):
        (lobj, _, lsrcs, lkeyed), (robj, _, rsrcs, rkeyed) = dense[s], dense[t]
        stobj, stinjs, _, _ = dense[shapes.concat(s, t)]
        src = tensor(lobj, robj)
        if not src.size():
            laxity[(s, t)] = zero_map(src, stobj)
            continue
        targets = {}
        # entry i * len(rkeyed.keys) + j of the targets is pair (i, j)
        grid = itertools.product(range(len(lkeyed.keys)),
                                 range(len(rkeyed.keys)))
        for (i, j), (at, merged) in zip(
                grid, adjoints._targets(s, t, kind), strict=True):
            if not (lsrcs[i].size() and rsrcs[j].size()):
                continue
            if not merged:
                targets[(i, j)] = stinjs[at]
                continue
            (_, labels1), parts1 = lkeyed.keys[i], lkeyed.parts[i]
            (_, labels2), parts2 = rkeyed.keys[j], rkeyed.parts[j]
            factors = [identity(values[q] if l == "f" else u)
                       for q, l in zip(parts1[:-1] + parts2[1:],
                                       labels1[:-1] + labels2[1:])]
            factors.insert(len(parts1) - 1, pc.lax(parts1[-1], parts2[0])
                           if labels1[-1] == "f" else base.left_unitor(u))
            targets[(i, j)] = base.tensor_mor(*factors).then(stinjs[at])
        laxity[(s, t)] = colim.tensor_copair(
            backend, (lobj, lsrcs), (robj, rsrcs), targets, stobj)
    units = None
    # point and the gadget are pointed, gamma is not
    if kind != "gamma":
        units = {a: dense[(a, a)][1][dense[(a, a)][3].pos[((), ("u",))]]
                 for a in pc.letters}
    out = make_precategory(backend, pc.letters, pc.truncation,
                           {z: d[0] for z, d in dense.items()}, maps, laxity,
                           units=units)
    sums = {}
    for z, (obj, injs, srcs, keyed) in dense.items():
        live = tuple(i for i, src in enumerate(srcs) if src.size())
        sums[z] = adjoints._Sum(obj, live, [srcs[i] for i in live],
                                {i: injs[i] for i in live}, keyed)
    return out, sums


def killing_precategory(backend):
    """One letter at truncation 2, a line at (a, a) and nothing at
    (a, a, a): the structure map and the laxity kill a nonempty value,
    which a linear map may do."""
    line = vectq_obj(1) if backend == "vectq" else sphere(0)
    nothing = empty(backend)
    aa, aaa = ("a", "a"), ("a", "a", "a")
    pc = make_precategory(backend, ("a",), 2, {aa: line, aaa: nothing},
                          {(aaa, 1): zero_map(line, nothing)},
                          {(aa, aa): zero_map(tensor(line, line), nothing)})
    assert validate(pc) == []
    return pc


def monotone_part(pc):
    """pc on its partial chain set of the chains that never step down a
    letter: closed under deletions, with the laxity keys among them."""
    keep = {s for s in pc.chains if list(s) == sorted(s)}
    return make_precategory(
        pc.backend, pc.letters, pc.truncation,
        {s: pc.values[s] for s in keep},
        {key: f for key, f in pc.maps.items() if key[0] in keep},
        {key: f for key, f in pc.laxity.items()
         if shapes.concat(*key) in keep})


def support_cases(backend):
    """(unpointed precategory, pointed target, z0, m, arrow for psi) per
    case: a function category, the walking arrow with its empty hom and an
    empty m, a partial chain set (no gadgets), and off finset a value that
    a structure map kills."""
    to_backend = {"finset": lambda cat: cat, "vectq": linearize_category,
                  "chq": chainify_category}[backend]
    nothing = empty(backend)
    h = from_strict_category(to_backend(function_category({"a": 1, "b": 2})),
                             2)
    arrow = from_strict_category(to_backend(walking_arrow()), 2)
    alpha = {"finset": finset_map(finset_obj(["u0"]),
                                  finset_obj(["v0", "v1"]), (1,)),
             "vectq": vectq_map(vectq_obj(1), vectq_obj(2), [[1], [0]]),
             "chq": identity(disk(1))}[backend]
    z0 = ("a", "b", "b")
    out = [(forget_units(h), h, z0, h.value(z0), alpha),
           (forget_units(arrow), arrow, ("B", "A", "A"), nothing,
            zero_map(nothing, arrow.value(("A", "B")))),
           (monotone_part(forget_units(h)), None, None, None, None)]
    if backend != "finset":
        pc = killing_precategory(backend)
        out.append((pc, point(pc), ("a", "a", "a"), pc.value(("a", "a")),
                    alpha))
    return out


def free_outputs(pc, h, z0, m, alpha):
    """Every public output of the free builders on one case."""
    k = kobject_of(pc)
    out = [gamma(k), point(pc), gamma_map(identity_morphism(k)),
           point_map(identity_morphism(pc)), gamma_unit(k), gamma_counit(pc),
           point_carrier_inclusion(pc)]
    if z0 is None:
        return out
    at = (pc.letters, pc.truncation, z0)
    nothing = empty(pc.backend)
    res = psi(z0, alpha, letters=pc.letters, truncation=pc.truncation)
    return out + [
        upsilon(*at, m), upsilon(*at, nothing),
        upsilon_map(*at, identity(m)), upsilon_map(*at, zero_map(nothing, m)),
        upsilon_transpose(h, z0, identity(h.value(z0))),
        res.precat, res.eta, [r.xis for r in res.trace.rounds]]


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_free_builders_on_their_support_match_the_dense_build(
        monkeypatch, backend):
    cases = support_cases(backend)
    assert any(not v.size() for pc, *_ in cases for v in pc.values.values())
    got = [free_outputs(*case) for case in cases]
    monkeypatch.setattr(adjoints, "_free_build", dense_free_build)
    assert got == [free_outputs(*case) for case in cases]


# ---------------------------------------------------------------------------
# colimits of pointed precategories


def test_precat_colimit_of_identity_span_returns_the_precategory():
    pc = from_strict_category(function_category({"a": 2}), 2)
    nodes = {(0,): pc, (1,): pc}
    edges = [((0,), (1,), identity_morphism(pc))]
    out, cocone = precat_colimit(nodes, edges)
    assert validate(out) == []
    assert not check_unital(out)
    for key in nodes:
        assert validate_morphism(cocone[key]) == []
        assert is_levelwise_isomorphism(cocone[key])


def test_precat_colimit_refuses_an_edge_that_does_not_match_its_nodes():
    pc = from_strict_category(function_category({"a": 2}), 2)
    other = from_strict_category(function_category({"a": 1}), 2)
    with pytest.raises(ValueError):
        precat_colimit({0: pc, 1: other}, [(0, 1, identity_morphism(pc))])
    # an edge that names a node the diagram lacks
    with pytest.raises(ValueError, match="does not match its nodes"):
        precat_colimit({0: pc}, [(0, 1, identity_morphism(pc))])
    with pytest.raises(ValueError, match="does not match its nodes"):
        colimit({0: pc.value(("a", "a"))},
                [(2, 0, identity(pc.value(("a", "a"))))])
    # a diagram without nodes has no colimit to present
    with pytest.raises(ValueError, match="at least one node"):
        precat_colimit({}, [])
    with pytest.raises(ValueError, match="at least one node"):
        colimit({}, [])


@pytest.mark.parametrize("case", range(3), ids=["finset", "vectq", "chq"])
def test_precat_colimit_degree_one_slots_are_the_plain_colimit_of_the_slice(
        case):
    # the pushout of the unitalization of a free pointing along itself
    p = point(laxity_cases()[case])
    eta = unitalize(p).eta
    nodes = {"p": p, "u1": eta.dst, "u2": eta.dst}
    edges = [("p", "u1", eta), ("p", "u2", eta)]
    out, cocone = precat_colimit(nodes, edges)
    assert validate(out) == []
    for s in out.chains:
        if len(s) != 2:
            continue
        col = colimit({k: n.value(s) for k, n in nodes.items()},
                      [(a, b, m.at(s)) for a, b, m in edges])
        legs = {key: cocone[key].at(s) for key in nodes}
        if case == 0:
            # the slot is the one-block presentation of the plain colimit,
            # whose finset labels gain a block suffix: the same colimit up
            # to the induced isomorphism
            m = colimit_induced(col, legs)
            assert is_isomorphism(m)
            assert all(col.cocone[key].then(m) == legs[key]
                       for key in nodes)
            continue
        assert out.value(s) == col.obj
        assert legs == col.cocone


def test_precat_colimit_glues_a_unit_forcing_round():
    # the smallest forcing instance, glued by hand through the engine
    pc = forget_units(from_strict_category(function_category({"a": 1}), 2))
    p = point(pc)
    res = unitalize(p)
    r = res.trace.rounds[0]
    # the round morphism coequalizes each violated pair
    for (first, second), con in zip(r.pairs, r.constraints):
        z = con[4]
        assert first.then(r.delta.at(z)) == second.then(r.delta.at(z))
    # and factors through the slot coequalizer exactly
    for q, xi, con in zip(r.coeqs, r.xis, r.constraints):
        z = con[4]
        assert q.proj.then(xi) == r.delta.at(z)


def test_precat_colimit_refuses_nodes_whose_unit_points_disagree():
    # without an edge the two copies stay apart, so the second node's units
    # miss the first node's in the colimit
    pc = from_strict_category(function_category({"a": 2}), 2)
    with pytest.raises(AssertionError, match="unit points disagree"):
        precat_colimit({0: pc, 1: pc}, [])


def iso_invariants(pc):
    """What an isomorphism keeps of pc's values, per chain in chain order:
    the size, and on chq the degree multiset (whose total is the size)
    with the homology."""
    values = [pc.value(s) for s in pc.chains]
    if pc.backend != "chq":
        return tuple(v.size() for v in values)
    return tuple((dict(sorted(Counter(v.degrees).items())), homology(v))
                 for v in values)


def iso_invariant_input(name):
    """The unpointed precategory named in ISO_INVARIANTS: the fixtures of
    tools/value_digest.py, the function category on A: 1, B: 2 and the chq
    pair category."""
    fc = function_category({"a": 1, "b": 2})
    arrow = walking_arrow()
    cat, truncation = {
        "finset": (fc, 3), "vectq": (linearize_category(fc), 2),
        "chq": (dual_numbers_chq(), 2), "finset-arrow": (arrow, 2),
        "vectq-arrow": (linearize_category(arrow), 2),
        "chq-arrow": (chainify_category(arrow), 2),
        "finset-AB": (function_category({"A": 1, "B": 2}), 2),
        "chq-pair": (chq_pair_category(), 2)}[name]
    return forget_units(from_strict_category(cat, truncation))


# the iso invariants (`iso_invariants`) of `pushforward` onto one letter
# ("one") and onto two ("two"), and of `precat_colimit` of the span of a
# unitalization's eta with itself ("colimit"), measured on the engines
# that presented each slot by blocks of their own (node and pair blocks
# with reassociation relations; subdivision x deletion blocks), so that
# the quotients of gamma of a bare colimit are held to them up to
# isomorphism
ISO_INVARIANTS = {
    ('finset', 'one'):
        (8, 36, 164),
    ('finset', 'two'):
        (4, 1, 2, 1, 4, 1, 4, 1, 2, 1, 2, 1, 4, 1, 4, 1, 4, 1, 4, 1, 2, 1, 2,
         1, 2, 1, 2, 1),
    ('finset', 'colimit'):
        (2, 2, 1, 5, 2, 2, 2, 2, 1, 5, 1, 5, 2, 2, 2, 2, 2, 2, 2, 2, 1, 5, 1,
         5, 1, 5, 1, 5),
    ('vectq', 'one'):
        (8, 36),
    ('vectq', 'two'):
        (4, 1, 2, 1, 4, 1, 4, 1, 2, 1, 2, 1),
    ('vectq', 'colimit'):
        (2, 2, 1, 5, 2, 2, 2, 2, 1, 5, 1, 5),
    ('chq', 'one'):
        (({0: 2}, {0: 2}), ({0: 2}, {0: 2})),
    ('chq', 'colimit'):
        (({0: 3}, {0: 3}), ({0: 3}, {0: 3})),
    ('finset-arrow', 'one'):
        (3, 8),
    ('finset-arrow', 'two'):
        (1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1),
    ('finset-arrow', 'colimit'):
        (2, 1, 0, 2, 2, 1, 2, 1, 0, 2, 0, 2),
    ('vectq-arrow', 'one'):
        (3, 8),
    ('vectq-arrow', 'two'):
        (1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1),
    ('vectq-arrow', 'colimit'):
        (2, 1, 0, 2, 2, 1, 2, 1, 0, 2, 0, 2),
    ('chq-arrow', 'one'):
        (({0: 3}, {0: 3}), ({0: 8}, {0: 8})),
    ('chq-arrow', 'two'):
        (({0: 1}, {0: 1}), ({}, {}), ({0: 1}, {0: 1}), ({0: 1}, {0: 1}),
         ({0: 1}, {0: 1}), ({}, {}), ({0: 1}, {0: 1}), ({}, {}),
         ({0: 1}, {0: 1}), ({0: 1}, {0: 1}), ({0: 1}, {0: 1}),
         ({0: 1}, {0: 1})),
    ('chq-arrow', 'colimit'):
        (({0: 2}, {0: 2}), ({0: 1}, {0: 1}), ({}, {}), ({0: 2}, {0: 2}),
         ({0: 2}, {0: 2}), ({0: 1}, {0: 1}), ({0: 2}, {0: 2}),
         ({0: 1}, {0: 1}), ({}, {}), ({0: 2}, {0: 2}), ({}, {}),
         ({0: 2}, {0: 2})),
    ('finset-AB', 'one'):
        (8, 36),
    ('finset-AB', 'two'):
        (4, 1, 2, 1, 4, 1, 4, 1, 2, 1, 2, 1),
    ('finset-AB', 'colimit'):
        (2, 2, 1, 5, 2, 2, 2, 2, 1, 5, 1, 5),
    ('chq-pair', 'one'):
        (({0: 3, 1: 1}, {0: 3, 1: 1}),
         ({0: 8, 1: 5, 2: 1}, {0: 8, 1: 5, 2: 1})),
    ('chq-pair', 'two'):
        (({0: 1}, {0: 1}), ({}, {}), ({0: 1, 1: 1}, {0: 1, 1: 1}),
         ({0: 1}, {0: 1}), ({0: 1}, {0: 1}), ({}, {}), ({0: 1}, {0: 1}),
         ({}, {}), ({0: 1, 1: 1}, {0: 1, 1: 1}), ({0: 1}, {0: 1}),
         ({0: 1, 1: 1}, {0: 1, 1: 1}), ({0: 1}, {0: 1})),
    ('chq-pair', 'colimit'):
        (({0: 2}, {0: 2}), ({0: 1, 1: 1}, {0: 1, 1: 1}), ({}, {}),
         ({0: 2}, {0: 2}), ({0: 2}, {0: 2}), ({0: 1, 1: 1}, {0: 1, 1: 1}),
         ({0: 2}, {0: 2}), ({0: 1, 1: 1}, {0: 1, 1: 1}), ({}, {}),
         ({0: 2}, {0: 2}), ({}, {}), ({0: 2}, {0: 2})),
}


@pytest.mark.parametrize(
    "name", list(dict.fromkeys(name for name, _ in ISO_INVARIANTS)))
def test_gluing_engines_keep_the_iso_invariants_of_their_outputs(name):
    pc = iso_invariant_input(name)
    letters = pc.letters
    outs = {"one": pushforward({a: "c" for a in letters}, pc)}
    if len(letters) == 2:
        outs["two"] = pushforward({letters[0]: "d", letters[1]: "c"}, pc)
    p = point(pc)
    eta = unitalize(p).eta
    outs["colimit"], cocone = precat_colimit(
        {"p": p, "u1": eta.dst, "u2": eta.dst},
        [("p", "u1", eta), ("p", "u2", eta)])
    assert all(validate(out) == [] for out in outs.values())
    assert check_unital(outs["colimit"]) == []
    assert all(validate_morphism(leg) == [] for leg in cocone.values())
    assert {part: iso_invariants(out) for part, out in outs.items()} == \
        {part: v for (key, part), v in ISO_INVARIANTS.items() if key == name}


# ---------------------------------------------------------------------------
# unitalization


def check_unitalization(pc):
    p = point(pc)
    res = unitalize(p)
    u = res.precat
    assert validate(u) == []
    assert check_unital(u) == []
    assert validate_morphism(res.eta) == []
    assert all(is_surjective(res.eta.at(s)) for s in u.chains)
    again = unitalize(u)
    assert len(again.trace.rounds) == 0
    assert is_levelwise_isomorphism(again.eta)
    return res


def test_unitalize_free_point_of_one_morphism_monoid():
    pc = forget_units(from_strict_category(function_category({"a": 1}), 2))
    res = check_unitalization(pc)
    u = res.precat
    # the freely added unit survives next to the old morphism
    assert u.value(("a", "a")).size() == 2
    assert u.value(("a", "a", "a")).size() == 2


def test_unitalize_across_backends():
    check_unitalization(forget_units(from_strict_category(
        function_category({"A": 1, "B": 2}), 2)))
    check_unitalization(forget_units(from_strict_category(
        linearize_category(function_category({"A": 2})), 2)))
    check_unitalization(forget_units(from_strict_category(
        dual_numbers_chq(), 2)))


def test_unitalize_of_unital_input_is_a_noop():
    pc = from_strict_category(function_category({"A": 1, "B": 2}), 2)
    res = unitalize(pc)
    assert len(res.trace.rounds) == 0
    assert res.precat is pc
    assert is_levelwise_isomorphism(res.eta)


def test_unitalize_raises_when_its_oracle_finds_a_constraint_left(
        monkeypatch):
    # one round makes any input unital; `check_unital` of the quotient is
    # the oracle of that claim, and a constraint it reports is an error
    pc = forget_units(from_strict_category(function_category({"a": 1}), 2))
    p = point(pc)
    bad = check_unital(p)
    assert bad
    calls = []

    def second_call_fails(x):
        calls.append(x)
        return check_unital(x) if len(calls) == 1 else bad[:1]

    monkeypatch.setattr(adjoints, "check_unital", second_call_fails)
    with pytest.raises(AssertionError, match="violated after the quotient"):
        unitalize(p)
    assert len(calls) == 2 and calls[0] is p and calls[1] is not p


def test_unitalize_trace_sizes_shrink_somewhere_each_round():
    pc = forget_units(from_strict_category(
        function_category({"A": 1, "B": 2}), 2))
    res = unitalize(point(pc))
    (r,) = res.trace.rounds
    before, after = res.trace.stages
    assert after is res.precat and r.delta is res.eta
    deltas = [after.value(s).size() - before.value(s).size()
              for s in before.chains]
    assert any(d < 0 for d in deltas)


def reference_unitalize(pc):
    """Unitalization with the per-constraint round: for every violated
    constraint the apex, the gadget and the maps between them are built
    from scratch through the public upsilon functions and glued onto the
    precategory by `precat_colimit`. The reference for `unitalize`, which
    quotients the precategory slot by slot and builds no gadget.

    Returns (unitalization, eta, the xis of each round)."""
    current = pc
    eta = identity_morphism(pc)
    xis = []
    # a local bound: the reference does not assume the one-round claim
    for _ in range(8):
        bad = [f.constraint for f in check_unital(current)]
        if not bad:
            return current, eta, xis
        nodes = {("center",): current}
        edges = []
        coeqs = []
        for i, con in enumerate(bad):
            q = coequalizer(*unit_constraint_maps(current, con))
            coeqs.append(q)
            z = con[4]
            at_z = (current.letters, current.truncation, z)
            apex = upsilon(*at_z, current.value(z))
            gad = upsilon(*at_z, q.obj)
            uj = upsilon_map(*at_z, q.proj)
            ev = upsilon_transpose(current, z, identity(current.value(z)))
            nodes[("apex", i)] = apex
            nodes[("gad", i)] = gad
            edges.append((("apex", i), ("center",),
                          PrecatMorphism(apex, current, ev.components)))
            edges.append((("apex", i), ("gad", i),
                          PrecatMorphism(apex, gad, uj.components)))
        new, cocone = precat_colimit(nodes, edges)
        xis.append([
            upsilon_center_inclusion(current.letters, current.truncation,
                                     con[4], coeqs[i].obj).then(
                cocone[("gad", i)].at(con[4]))
            for i, con in enumerate(bad)])
        eta = eta.then(cocone[("center",)])
        current = new
    raise AssertionError("reference unitalization did not stabilize")


def unitalize_case(backend):
    """A freely pointed strict category per backend with several slots
    violating the unit laws."""
    fc = function_category({"a": 1, "b": 2})
    cat, truncation = {"finset": (fc, 3),
                       "vectq": (linearize_category(fc), 2),
                       "chq": (dual_numbers_chq(), 2)}[backend]
    return point(forget_units(from_strict_category(cat, truncation)))


def same_kernel(f, g):
    """Whether two maps out of one object identify the same elements:
    equal partitions of the source on finset, equal row spaces (so equal
    kernels) on vectq/chq."""
    if f.backend == "finset":
        classes = set(zip(f.mapping, g.mapping))
        return len(classes) == len(set(f.mapping)) == len(set(g.mapping))
    rank = ratmat.rank
    return (rank(f.matrix) == rank(g.matrix)
            == rank(ratmat.vstack([f.matrix, g.matrix])))


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_unitalize_matches_the_per_constraint_round(backend):
    p = unitalize_case(backend)
    res = unitalize(p)
    ref, ref_eta, ref_xis = reference_unitalize(p)
    u = res.precat
    assert res.trace.rounds
    assert u.chains == ref.chains
    assert validate(u) == [] and check_unital(u) == []
    assert [u.value(s).size() for s in u.chains] == \
        [ref.value(s).size() for s in ref.chains]
    # the same quotient: eta and every xi identify what the gadget
    # colimit's identify, at every slot
    assert all(same_kernel(res.eta.at(s), ref_eta.at(s)) for s in p.chains)
    xis = [r.xis for r in res.trace.rounds]
    assert [len(x) for x in xis] == [len(x) for x in ref_xis]
    assert all(same_kernel(a, b) for new, old in zip(xis, ref_xis)
               for a, b in zip(new, old))
    if backend == "finset":
        # finset labels name class representatives, which the quotient
        # takes from F(z) and the gadget colimit from the apex blocks
        return
    assert u.values == ref.values
    assert u.maps == ref.maps
    assert u.laxity == ref.laxity
    assert u.units == ref.units
    assert res.eta.components == ref_eta.components
    assert xis == ref_xis


def test_a_unitalize_round_builds_no_gadget(monkeypatch):
    # a round is one presentation per chain of its input, and the free
    # pointing is never built: the gadget colimit made one per slot (the
    # apex) and one per constraint (the gadget on its coequalizer)
    p = unitalize_case("finset")
    builds, presented = [], []
    build, present = adjoints._point_build, adjoints.present

    def counted_build(pc):
        builds.append(pc)
        return build(pc)

    def counted_present(blocks, relations, backend):
        presented.append(blocks)
        return present(blocks, relations, backend)

    monkeypatch.setattr(adjoints, "_point_build", counted_build)
    monkeypatch.setattr(adjoints, "present", counted_present)
    res = unitalize(p)
    (r,) = res.trace.rounds
    slots = {con[4] for con in r.constraints}
    assert (len(slots), len(r.constraints)) == (18, 32)
    assert builds == []
    assert len(presented) == len(p.chains)


@st.composite
def unitalize_inputs(draw):
    """A pointed precategory that may break unit laws: the free pointing
    of a function category (letter sizes 0 to 2), of its linearization or
    of its chain-complex form with the units forgotten, or an upsilon or
    psi gadget over a drawn chain, on finset, vectq or chq, at truncation 2
    or 3. A chq object has at most two cells in degrees -1 to 1, so its
    differential squares to zero, and may be empty; a chq arrow is a drawn
    combination of the chain-map basis."""
    backend = draw(st.sampled_from(["finset", "vectq", "chq"]))
    truncation = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["strict", "upsilon", "psi"]))
    if kind == "strict":
        cat = function_category(draw(st.dictionaries(
            st.sampled_from("AB"), st.integers(0, 2), min_size=1,
            max_size=2)))
        cat = {"finset": cat, "vectq": linearize_category(cat),
               "chq": chainify_category(cat)}[backend]
        return point(forget_units(from_strict_category(cat, truncation)))
    letters = tuple(sorted(draw(st.sets(st.sampled_from("AB"), min_size=1))))
    z0 = draw(st.sampled_from(shapes.all_chains(letters, truncation)))

    def obj(n):
        if backend == "finset":
            return finset_obj(["x%d" % i for i in range(n)])
        if backend == "vectq":
            return vectq_obj(n)
        degrees = sorted(draw(st.lists(st.integers(-1, 1), min_size=n,
                                       max_size=n)), reverse=True)
        return base.chq_obj(degrees, [
            [draw(st.integers(-1, 1)) if di == dj - 1 else 0
             for dj in degrees] for di in degrees])

    if kind == "upsilon":
        return upsilon(letters, truncation, z0, obj(draw(st.integers(0, 2))))
    u = obj(draw(st.integers(0, 1)))
    v = obj(draw(st.integers(0 if backend == "chq" else 1, 2)))
    if backend == "finset":
        alpha = finset_map(u, v, tuple(draw(st.lists(
            st.integers(0, v.size() - 1), min_size=u.size(),
            max_size=u.size()))))
    elif backend == "vectq":
        alpha = vectq_map(u, v, [[draw(st.integers(-1, 1))
                                  for _ in range(u.size())]
                                 for _ in range(v.size())])
    else:
        entries = []
        for b in base.chq_hom_basis(u, v):
            c = draw(st.integers(-1, 1))
            entries.extend((i, j, c * x)
                           for i, j, x in ratmat.nonzeros(b.matrix))
        alpha = chq_map(u, v, ratmat.build(v.size(), u.size(), entries))
    return adjoints._Gadget.of(letters, truncation, z0, alpha).build[0]


@settings(max_examples=60)
@given(unitalize_inputs())
def test_one_quotient_round_makes_any_input_unital(p):
    # the round map is onto at every slot, and the unit constraints of the
    # quotient are those of the input composed with surjections, so they
    # hold after one round
    res = unitalize(p)
    found = check_unital(p)
    assert len(res.trace.rounds) == (1 if found else 0)
    assert validate(res.precat) == [] and check_unital(res.precat) == []
    # each finding carries the maps of its constraint, and the round reads
    # its constraints and relation pairs off the findings
    assert all((f.first, f.second) == unit_constraint_maps(p, f.constraint)
               for f in found)
    for r in res.trace.rounds:
        assert r.constraints == [f.constraint for f in found]
        assert r.pairs == [(f.first, f.second) for f in found]
        assert all(is_surjective(r.delta.at(s)) for s in p.chains)
        # reading the xis runs their descent check through each
        # coequalizer
        assert all(q.proj.then(xi) == r.delta.at(con[4])
                   for q, xi, con in zip(r.coeqs, r.xis, r.constraints))
    # the gadget reference costs up to 0.5 s on two letters at
    # truncation 3; it runs on the draws below that size
    if len(p.chains) <= 12 or sum(v.size() for v in p.values.values()) <= 60:
        _, ref_eta, _ = reference_unitalize(p)
        assert all(same_kernel(res.eta.at(s), ref_eta.at(s))
                   for s in p.chains)


def test_unitalize_frees_its_tables(monkeypatch):
    # nothing outlives the call: once its result is dropped, no tensor
    # built during the call is alive
    p = unitalize_case("finset")
    refs = []
    build = adjoints.tensor

    def recorded(x, y):
        out = build(x, y)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(adjoints, "tensor", recorded)
    res = unitalize(p)
    assert refs and res.trace.rounds
    del res
    gc.collect()
    assert not [r for r in refs if r() is not None]


def test_unit_constraint_maps_are_built_once(monkeypatch):
    # unitalize takes its relation pairs from check_unital's findings, and
    # check_unital builds the first map and the unitor once per (side, s)
    # group of the constraints at a nonempty F(s), and a second map per
    # position
    p = unitalize_case("finset")
    checked = [con for con in precat.unit_constraints(p)
               if p.value(con[2]).size()]
    groups = {(con[0], con[2]) for con in checked}
    assert len(groups) < len(checked)
    builds = Counter()

    def counted(name, build):
        def wrapper(*args, **kwargs):
            builds[name] += 1
            return build(*args, **kwargs)
        return wrapper

    for name in ("tensor_then", "left_unitor", "right_unitor"):
        monkeypatch.setattr(precat, name,
                            counted(name, getattr(precat, name)))
    check_unital(p)
    assert builds["tensor_then"] == len(groups)
    assert builds["left_unitor"] + builds["right_unitor"] == len(groups)
    rebuild = counted("unit_constraint_maps", unit_constraint_maps)
    monkeypatch.setattr(precat, "unit_constraint_maps", rebuild)
    monkeypatch.setattr(adjoints, "unit_constraint_maps", rebuild,
                        raising=False)
    res = unitalize(p)
    assert res.trace.rounds and builds["unit_constraint_maps"] == 0


def test_unitalize_builds_the_xis_when_they_are_read(monkeypatch):
    # no step of the round reads its xis: the call builds none, and the
    # first read builds one per constraint and keeps them
    p = unitalize_case("vectq")
    count = [0]
    induce = adjoints.quotient_induced

    def counted(q, m):
        count[0] += 1
        return induce(q, m)

    monkeypatch.setattr(adjoints, "quotient_induced", counted)
    (r,) = unitalize(p).trace.rounds
    assert r.constraints and count[0] == 0
    xis = r.xis
    assert count[0] == len(xis) == len(r.constraints)
    assert r.xis is xis and count[0] == len(xis)


def count_tensors(monkeypatch):
    """Count every tensor of two objects from here on: [all, those with an
    empty factor]."""
    count = [0, 0]
    build = base.tensor

    def counted(x, y):
        count[0] += 1
        count[1] += not (x.size() and y.size())
        return build(x, y)

    for module in (base, adjoints, precat, colim):
        monkeypatch.setattr(module, "tensor", counted)
    return count


def test_unitalize_round_takes_its_tensors_from_the_tables(monkeypatch):
    # the finset round, one quotient of its input, builds 232 tensors: the
    # unit constraints' and one product block per cut. Gluing gadgets it
    # built 480 out of its tables, 43,396 through base.tensor_mor, which
    # rebuilds both ends of every tensored map, and 1,068 with every
    # summand of the free builds tensored, empty ones too
    p = unitalize_case("finset")
    count = count_tensors(monkeypatch)
    res = unitalize(p)
    assert len(res.trace.rounds[0].constraints) == 32
    assert count[0] <= 250


def test_unitalize_round_tensors_nothing_empty(monkeypatch):
    # a round gives a product block with an empty factor the empty
    # object, and `check_unital` builds no constraint out of I (x) 0.
    # When a round glued free builds, tensoring every summand made 516
    # of its 1,068 tensors out of an empty factor
    p = unitalize_case("finset")
    count = count_tensors(monkeypatch)
    res = unitalize(p)
    assert res.trace.rounds and count[0]
    assert count[1] == 0


def test_unitalize_composes_nothing_out_of_an_empty_object(monkeypatch):
    # a map out of 0 is the initial map, built by neither `then` nor
    # `tensor_copair`: on the finset case, composing every such map made
    # 23,494 of the 30,204 `then` calls of this module, and 9,972 of the
    # 10,638 components given to `tensor_copair` had an empty side. A
    # cocone leg of `colim.present` is read off the projection, so nothing
    # under `present` composes: composing each block injection with the
    # projection made 1,143 of the 1,182 `then` calls out of 0 of a
    # `unitalize_finset` benchmark pass. Outside this module, the common
    # composite of a wide pushout over 0, the descent out of a quotient of
    # 0, the unit constraints at an empty slot and the composite of two
    # precategory morphisms compose nothing either: they made the last 77
    composed, calls, pairs, empty_pairs = [], [0], [0], []
    under_present, anywhere = [], []
    then = base.MMorphism.then
    assemble = adjoints.tensor_copair

    def recorded(self, other):
        frame = sys._getframe(1)
        if not self.src.size():
            anywhere.append(self)
        if frame.f_globals["__name__"] == "cosegal.adjoints":
            calls[0] += 1
            if not self.src.size():
                composed.append(self)
        while frame is not None:
            if frame.f_code is colim.present.__code__:
                under_present.append(self)
            frame = frame.f_back
        return then(self, other)

    def checked(backend, left, right, targets, dst):
        pairs[0] += len(targets)
        empty_pairs.extend(
            (i, j) for i, j in targets
            if not (left[1][i].size() and right[1][j].size()))
        return assemble(backend, left, right, targets, dst)

    monkeypatch.setattr(base.MMorphism, "then", recorded)
    monkeypatch.setattr(adjoints, "tensor_copair", checked)
    for backend in ("finset", "vectq"):
        assert unitalize(unitalize_case(backend)).trace.rounds
    assert calls[0] and pairs[0]
    assert composed == [] and empty_pairs == [] and under_present == []
    assert anywhere == []


def test_factor_through_unital_roundtrip_and_refusal():
    pc = forget_units(from_strict_category(function_category({"a": 1}), 2))
    p = point(pc)
    res = unitalize(p)
    bar = factor_through_unital(res.eta, res.eta)
    assert is_levelwise_isomorphism(bar)
    for s in res.precat.chains:
        assert bar.at(s) == identity(res.precat.value(s))
    # a map that separates what eta identifies cannot descend
    sep = identity_morphism(p)
    with pytest.raises(ValueError, match="does not descend"):
        factor_through_unital(res.eta, sep)
    # and nothing factors through a map that is not onto
    incl = point_carrier_inclusion(pc)
    with pytest.raises(ValueError, match="not surjective"):
        factor_through_unital(incl, incl)


def test_factor_through_unital_refuses_where_one_side_is_zero():
    # eta kills the line F(a, a) onto U(a, a) = 0, so a map that keeps it
    # does not descend, though U(a, a) is empty
    aa, line, nothing = ("a", "a"), vectq_obj(1), empty("vectq")
    f = make_precategory("vectq", ("a",), 1, {aa: line}, {}, {})
    u = make_precategory("vectq", ("a",), 1, {aa: nothing}, {}, {})
    eta = PrecatMorphism(f, u, {aa: zero_map(line, nothing)})
    with pytest.raises(ValueError, match="does not descend"):
        factor_through_unital(eta, identity_morphism(f))
    # and the map 0 -> U(a, a) under an empty F(a, a) is not onto
    with pytest.raises(ValueError, match="not surjective"):
        factor_through_unital(PrecatMorphism(u, f, {}), identity_morphism(u))


@pytest.mark.parametrize("truncation, z0, rounds", [
    (2, ("a", "b", "b"), 0), (2, ("a", "b"), 1), (3, ("a", "b", "b"), 1)])
def test_unitalization_factors_each_transpose_uniquely(truncation, z0,
                                                        rounds):
    # the universal property of eta: upsilon(m) -> U, with targets other
    # than eta itself. Every pointed map upsilon(m) -> h into the unital h
    # factors through eta by a unital map, and by no other map slot by slot
    h = from_strict_category(function_category({"a": 1, "b": 2}),
                             truncation)
    m = finset_obj(["m0", "m1"])
    res = unitalize(upsilon(h.letters, h.truncation, z0, m))
    u = res.precat
    assert len(res.trace.rounds) == rounds
    maps = list(enumerate_maps(m, h.value(z0)))
    assert len(maps) == h.value(z0).size() ** 2 > 1
    for g in maps:
        alpha = upsilon_transpose(h, z0, g)
        bar = factor_through_unital(res.eta, alpha)
        assert validate_morphism(bar) == []
        for a in u.letters:
            assert u.unit_map(a).then(bar.at((a, a))) == h.unit_map(a)
        assert res.eta.then(bar).components == alpha.components
        for s in u.chains:
            lifts = [f for f in enumerate_maps(u.value(s), h.value(s))
                     if res.eta.at(s).then(f) == alpha.at(s)]
            assert lifts == [bar.at(s)]


# ---------------------------------------------------------------------------
# realization


def test_realize_strict_categories_on_the_nose():
    for cat in [function_category({"A": 1, "B": 2}),
                linearize_category(function_category({"A": 2})),
                dual_numbers_chq(),
                group_algebra_z2(),
                walking_arrow()]:
        pc = from_strict_category(cat, 3)
        r = realize(pc)
        assert r.homs == cat.homs
        assert r.comps == cat.comps
        assert all(r.determined.values())
        assert all(r.stable.values())
        assert is_levelwise_isomorphism(r.eta)
        assert validate_strict_category(r.category) == []
        assert validate(r.constant) == []
        assert validate_morphism(r.eta) == []


def test_realize_unitalized_free_point_is_the_free_unital_monoid():
    pc = forget_units(from_strict_category(function_category({"a": 1}), 3))
    res = unitalize(point(pc))
    r = realize(res.precat)
    assert all(r.determined.values())
    h = r.homs[("a", "a")]
    assert h.size() == 2
    e = r.idpoints["a"].mapping[0]
    m = 1 - e
    comp = r.comps[("a", "a", "a")].mapping
    # unit laws and the idempotent old morphism
    assert comp[e * 2 + e] == e
    assert comp[e * 2 + m] == m
    assert comp[m * 2 + e] == m
    assert comp[m * 2 + m] == m


def test_realize_flags_underdetermined_composition():
    # two letters, truncation 1: no composable pairs are stored at all,
    # so no equation pins the composition down; only a composition into
    # a one-point hom is determined, as the one map there
    cat = function_category({"A": 1, "B": 2})
    pc = from_strict_category(cat, 1)
    r = realize(pc)
    for pair, h in r.homs.items():
        assert h.size() == cat.homs[pair].size()
    assert r.determined == {(a, b, c): r.homs[(a, c)].size() == 1
                            for a, b, c in r.determined}
    assert not all(r.determined.values())
    assert r.constant is None and r.eta is None and r.category is None


@pytest.mark.parametrize("backend", ["finset", "vectq"])
def test_realize_refuses_laxity_pairs_that_disagree(backend):
    # at truncation 3 the pairs ((a, a), (a, a)) and ((a, a), (a, a, a))
    # both reach every element of hom(a, a) (x) hom(a, a); a constant (on
    # vectq zero) laxity at the first contradicts the second
    cat = function_category({"a": 2})
    if backend == "vectq":
        cat = linearize_category(cat)
    pc = from_strict_category(cat, 3)
    key = (("a", "a"), ("a", "a"))
    phi = pc.laxity[key]
    wrong = (finset_map(phi.src, phi.dst, (0,) * phi.src.size())
             if backend == "finset" else zero_map(phi.src, phi.dst))
    pc = dataclasses.replace(pc, laxity={**pc.laxity, key: wrong})
    with pytest.raises(ValueError, match="composition is inconsistent at"):
        realize(pc)


def test_realize_with_pairs_that_do_not_cover_the_composition():
    # truncation 2 on one letter: the one stored pair ((a, a), (a, a))
    # reaches hom(a, a) (x) hom(a, a) only through the structure map, which
    # sends x1 and x2 to z1, so it pins the composition at (z1, z1) alone
    x = finset_obj(["x1", "x2"])
    z = finset_obj(["z1", "z2", "w"])
    aa, aaa = ("a", "a"), ("a", "a", "a")

    def with_laxity(images):
        return make_precategory(
            "finset", ("a",), 2, {aa: x, aaa: z},
            {(aaa, 1): finset_map(x, z, (0, 0))},
            {(aa, aa): finset_map(tensor(x, x), z, images)})

    # (x1, -) to z1 and (x2, -) to z2 ask z1 . z1 to be both
    pc = with_laxity((0, 0, 1, 1))
    assert validate(pc) == []
    with pytest.raises(ValueError, match=(
            r"composition is inconsistent at \('a', 'a', 'a'\)")):
        realize(pc)
    # a constant laxity is consistent, but leaves the rest of the
    # composition free
    pc = with_laxity((0, 0, 0, 0))
    assert validate(pc) == []
    r = realize(pc)
    assert r.determined == {aaa: False}
    assert r.homs[aa] == z
    assert r.constant is None and r.eta is None and r.category is None


def test_realize_solves_only_the_triples_whose_pairs_have_a_hom():
    # the split module spans no chain from m to a: realize solves the
    # triples that avoid the pair (m, a) and gives eta, but no strict
    # category, which would need hom(m, a)
    pc = split_module()
    assert pc.split == (("a",), ("m",)) and validate(pc) == []
    r = realize(pc)
    assert ("m", "a") not in r.homs and len(r.homs) == 3
    assert sorted(r.comps) == [("a", "a", "a"), ("a", "a", "m"),
                               ("a", "m", "m"), ("m", "m", "m")]
    assert all(r.determined.values())
    assert validate(r.constant) == []
    assert validate_morphism(r.eta) == []
    assert r.category is None
    assert r.stable == reference_stable(pc)


def count_colimits(monkeypatch):
    """Count the `colimit` calls of adjoints from here on."""
    count = [0]
    build = adjoints.colimit

    def counted(*args, **kwargs):
        count[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(adjoints, "colimit", counted)
    return count


def test_realize_takes_the_stability_colimits_when_they_are_read(
        monkeypatch):
    # realize builds one colimit per pair; the flags take one more per
    # pair with a chain below the truncation, on their first read only
    pc = from_strict_category(function_category({"A": 1, "B": 2}), 3)
    count = count_colimits(monkeypatch)
    r = realize(pc)
    assert count[0] == len(r.homs) == 4
    flags = r.stable
    assert flags == {pair: True for pair in r.homs}
    assert count[0] == 2 * len(r.homs)
    assert r.stable is flags and count[0] == 2 * len(r.homs)


def test_realize_at_truncation_one_has_no_stable_pair():
    # every chain has degree 1, so no pair has a chain below the
    # truncation to compare its hom with
    r = realize(from_strict_category(function_category({"A": 1, "B": 2}), 1))
    assert len(r.homs) == 4
    assert r.stable == {pair: False for pair in r.homs}


@pytest.mark.parametrize("backend", ["finset", "vectq"])
def test_realize_flags_a_top_slot_that_adds_identifications(backend):
    # truncation 2 on one letter: the structure map into the top slot
    # (a, a, a) identifies the two elements (on vectq, the two basis
    # vectors) of hom(a, a) below it, so the hom differs from the colimit
    # of the degree-1 chain
    aa, aaa = ("a", "a"), ("a", "a", "a")
    if backend == "finset":
        x, z = finset_obj(["x1", "x2"]), finset_obj(["z"])
        gen, lax = finset_map(x, z, (0, 0)), finset_map(
            tensor(x, x), z, (0,) * 4)
    else:
        x, z = vectq_obj(2), vectq_obj(1)
        gen = vectq_map(x, z, [[1, 1]])
        lax = vectq_map(tensor(x, x), z, [[1] * 4])
    pc = make_precategory(backend, ("a",), 2, {aa: x, aaa: z},
                          {(aaa, 1): gen}, {(aa, aa): lax})
    assert validate(pc) == []
    r = realize(pc)
    assert r.homs == {aa: z} and r.determined == {aaa: True}
    assert r.stable == {aa: False}
    assert r.stable == reference_stable(pc)


def reference_stable(pc):
    """The stability flags of `realize(pc)`, built eagerly: per pair with
    a chain, the colimit of all its chains and of those below the
    truncation, and whether the map induced between them is an
    isomorphism; False where no chain lies below."""
    out = {}
    for a, b in itertools.product(pc.letters, repeat=2):
        nodes = {s: pc.value(s) for s in pc.chains
                 if s[0] == a and s[-1] == b}
        if not nodes:
            continue
        edges = [(shapes.delete(z, p), z, pc.gen_map(z, p))
                 for z in nodes for p in range(1, len(z) - 1)]
        col = colimit(nodes, edges, source_key=(a, b))
        below = {s: v for s, v in nodes.items()
                 if shapes.degree(s) < pc.truncation}
        if not below:
            out[(a, b)] = False
            continue
        sub = colimit(below, [e for e in edges if e[1] in below],
                      source_key=(a, b))
        out[(a, b)] = is_isomorphism(colimit_induced(
            sub, {s: col.cocone[s] for s in below}))
    return out


def reference_xis(r):
    """The xis of a unitalization round, built eagerly from its relation
    pairs: each pair's coequalizer induces the round map at its slot."""
    return [quotient_induced(coequalizer(f, g), r.delta.at(con[4]))
            for (f, g), con in zip(r.pairs, r.constraints)]


def value_digest_cases():
    """(strict category, truncation, generating arrow of psi): the
    fixtures of tools/value_digest.py."""
    fc, arrow = function_category({"a": 1, "b": 2}), walking_arrow()
    finset_alpha = finset_map(finset_obj(["u0"]), finset_obj(["v0", "v1"]),
                              (1,))
    vectq_alpha = vectq_map(vectq_obj(1), vectq_obj(2), [[1], [0]])
    chq_alpha = identity(disk(1))
    return [(fc, 3, finset_alpha),
            (linearize_category(fc), 2, vectq_alpha),
            (dual_numbers_chq(), 2, chq_alpha),
            (arrow, 2, finset_alpha),
            (linearize_category(arrow), 2, vectq_alpha),
            (chainify_category(arrow), 2, chq_alpha)]


@pytest.mark.parametrize("case", range(6), ids=[
    "finset", "vectq", "chq", "finset-arrow", "vectq-arrow", "chq-arrow"])
def test_the_diagnostics_read_later_match_the_eager_build(case):
    # the xis of each round and the stability flags are computed on
    # read, to the values the eager build gives, on the unitalization of
    # the free pointing, psi and the realization the value digest hashes
    cat, truncation, alpha = value_digest_cases()[case]
    h = from_strict_category(cat, truncation)
    res = unitalize(point(forget_units(h)))
    z0 = (h.letters[0], h.letters[-1], h.letters[-1])
    ps = psi(z0, alpha, letters=h.letters, truncation=truncation)
    rounds = res.trace.rounds + ps.trace.rounds
    assert rounds
    assert all(r.xis == reference_xis(r) for r in rounds)
    for pc in (h, res.precat):
        assert realize(pc).stable == reference_stable(pc)


# ---------------------------------------------------------------------------
# the free unital precategory on an arrow


def test_psi_values_sit_over_the_chain():
    U = finset_obj(["u0"])
    V = finset_obj(["v0", "v1"])
    alpha = finset_map(U, V, (1,))
    z0 = ("a", "x", "b")
    res = psi(z0, alpha)
    out = res.precat
    assert validate(out) == []
    assert check_unital(out) == []
    assert out.value(z0).size() == V.size()
    assert out.value(("a", "b")).size() == U.size()
    for a in out.letters:
        assert out.value((a, a)).size() == 1
    assert out.value(("b", "a")).size() == 0
    assert out.value(("x", "a")).size() == 0
    # the generating slots embed isomorphically: forcing touched nothing
    top, bottom = psi_inclusions(res, z0)
    assert top.src == U and is_isomorphism(top)
    assert bottom.src == V and is_isomorphism(bottom)


def test_psi_transpose_restrict_roundtrip_finset():
    U = finset_obj(["u0"])
    V = finset_obj(["v0", "v1"])
    alpha = finset_map(U, V, (1,))
    z0 = ("a", "x", "b")
    res = psi(z0, alpha)
    theta = identity_morphism(res.precat)
    sq = psi_restrict(res, z0, theta)
    back = psi_transpose(res, z0, res.precat, sq)
    for s in res.precat.chains:
        assert back.at(s) == theta.at(s)


def linear_combination(maps, coeffs):
    """sum of c * f over maps and coeffs, on a vectq or chq backend."""
    f = maps[0]
    return base.make_map(f.src, f.dst, ratmat.build(
        f.dst.size(), f.src.size(),
        [(i, j, c * x) for g, c in zip(maps, coeffs)
         for i, j, x in ratmat.nonzeros(g.matrix)]))


def linear_psi_case(backend):
    """A strict linear target h over the letters of z0, an arrow alpha and
    commuting squares from alpha to h's cosegal arrow at z0: one per map
    of a basis of the bottoms and one for a combination of them, each
    with its top solved from its bottom. On chq the arrow lands on a disk
    beside a free cycle, so the gadget has a nonzero differential."""
    cat = function_category({"a": 1, "b": 2, "x": 1})
    z0 = ("a", "x", "b")
    if backend == "vectq":
        h = from_strict_category(linearize_category(cat), 2)
        u, v = vectq_obj(1), vectq_obj(2)
        alpha = vectq_map(u, v, [[1], [2]])
        w = h.value(z0)
        bottoms = [vectq_map(v, w, [[int((i, j) == (r, c)) for j in range(2)]
                                    for i in range(w.size())])
                   for r in range(w.size()) for c in range(2)]
    else:
        h = from_strict_category(chainify_category(cat), 2)
        u = sphere(0)
        v = base.chq_obj([1, 0, 0], [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        alpha = linear_combination(base.chq_hom_basis(u, v), (1, 1))
        bottoms = list(base.chq_hom_basis(v, h.value(z0)))
    assert bottoms
    bottoms.append(linear_combination(bottoms, range(1, len(bottoms) + 1)))
    ends = h.value(shapes.endpoints(z0))
    us = h.cosegal_map(z0)
    squares = []
    for bottom in bottoms:
        top, _ = base.solve_map(u, ends, [], [(us, alpha.then(bottom))])
        squares.append((top, bottom))
    return h, z0, alpha, squares


@pytest.mark.parametrize("backend", ["vectq", "chq"])
def test_psi_transpose_restrict_roundtrip_linear(backend):
    h, z0, alpha, squares = linear_psi_case(backend)
    res = psi(z0, alpha, letters=h.letters, truncation=h.truncation)
    assert validate(res.precat) == []
    for sq in squares:
        assert sq[0].then(h.cosegal_map(z0)) == alpha.then(sq[1])
        theta = psi_transpose(res, z0, h, sq)
        assert validate_morphism(theta) == []
        assert psi_restrict(res, z0, theta) == sq
        assert all(psi_transpose(res, z0, h, psi_restrict(res, z0, theta))
                   .at(s) == theta.at(s) for s in res.precat.chains)
    # the identity out of the free unital precategory is the transpose of
    # the square it restricts to
    theta = identity_morphism(res.precat)
    back = psi_transpose(res, z0, res.precat, psi_restrict(res, z0, theta))
    assert all(back.at(s) == theta.at(s) for s in res.precat.chains)


def test_psi_transpose_lands_on_every_commuting_square():
    # target: a strict category over the letters of the chain
    cat = function_category({"a": 1, "b": 2, "x": 1})
    h = from_strict_category(cat, 2)
    U = finset_obj(["u0"])
    V = finset_obj(["v0", "v1"])
    alpha = finset_map(U, V, (1,))
    z0 = ("a", "x", "b")
    res = psi(z0, alpha)
    u_s = h.cosegal_map(z0)
    squares = [
        (top, bottom)
        for top in enumerate_maps(U, h.value(shapes.endpoints(z0)))
        for bottom in enumerate_maps(V, h.value(z0))
        if top.then(u_s) == alpha.then(bottom)]
    assert squares
    for sq in squares:
        theta = psi_transpose(res, z0, h, sq)
        assert validate_morphism(theta) == []
        got = psi_restrict(res, z0, theta)
        assert got[0] == sq[0] and got[1] == sq[1]


def test_gadgets_refuse_a_z0_that_is_not_a_chain():
    m = vectq_obj(1)
    # a letter outside the letters
    with pytest.raises(ValueError):
        upsilon(("a", "b"), 2, ("a", "c", "b"), m)
    with pytest.raises(ValueError):
        upsilon_center_inclusion(("a", "b"), 2, ("a", "c", "b"), m)
    with pytest.raises(ValueError):
        psi(("a", "b", "b"), identity(m), letters=("a",), truncation=2)
    # a chain above the truncation
    with pytest.raises(ValueError):
        psi(("a", "a", "a", "a"), identity(m), truncation=2)


def test_psi_maps_refuse_a_z0_the_result_was_not_built_over():
    h = from_strict_category(function_category({"a": 1, "b": 2, "x": 1}), 2)
    U = finset_obj(["u0"])
    V = finset_obj(["v0", "v1"])
    alpha = finset_map(U, V, (1,))
    z0, other = ("a", "x", "b"), ("a", "b", "b")
    res = psi(z0, alpha)
    u_s = h.cosegal_map(z0)
    square = next(
        (top, bottom)
        for top in enumerate_maps(U, h.value(shapes.endpoints(z0)))
        for bottom in enumerate_maps(V, h.value(z0))
        if top.then(u_s) == alpha.then(bottom))
    theta = psi_transpose(res, z0, h, square)
    with pytest.raises(ValueError):
        psi_transpose(res, other, h, square)
    with pytest.raises(ValueError):
        psi_restrict(res, other, theta)
    with pytest.raises(ValueError):
        psi_inclusions(res, other)
    res_v = psi(z0, identity(V))
    res_other = psi(other, identity(V), letters=h.letters, truncation=2)
    with pytest.raises(ValueError):
        psi_square(other, square_down(alpha), res, res_v)
    with pytest.raises(ValueError):
        psi_square(z0, square_down(alpha), res, res_other)


@pytest.mark.parametrize("backend", ["finset", "vectq"])
def test_psi_square_factorization_is_byte_exact(backend):
    if backend == "finset":
        U = finset_obj(["u0"])
        V = finset_obj(["v0", "v1"])
        alpha = finset_map(U, V, (1,))
    else:
        U = vectq_obj(1)
        V = vectq_obj(2)
        alpha = vectq_map(U, V, [[1], [0]])
    z0 = ("a", "x", "b")
    res_alpha = psi(z0, alpha)
    res_idv = psi(z0, identity(V))
    res_mid = psi(z0, codiagonal_arrow(alpha))
    down = psi_square(z0, square_down(alpha), res_alpha, res_idv)
    xi = psi_square(z0, square_xi(alpha), res_alpha, res_mid)
    ell = psi_square(z0, square_ell(alpha), res_mid, res_idv)
    comp = xi.then(ell)
    for s in down.src.chains:
        assert comp.at(s) == down.at(s)
    for s in ell.src.chains:
        if len(s) == 2:
            assert is_isomorphism(ell.at(s))


# ---------------------------------------------------------------------------
# letter maps


def test_pushforward_degree_one_slots_sum_the_fibers():
    pc = forget_units(from_strict_category(
        function_category({"A": 1, "B": 2}), 2))
    f = {"A": "c", "B": "c"}
    out = pushforward(f, pc)
    assert validate(out) == []
    expected = sum(pc.value((x, y)).size() for x in "AB" for y in "AB")
    assert out.value(("c", "c")).size() == expected


def test_pushforward_along_identity_changes_nothing_up_to_size():
    pc = forget_units(from_strict_category(function_category({"a": 2}), 2))
    out = pushforward({"a": "a"}, pc)
    assert validate(out) == []
    for s in pc.chains:
        assert out.value(s).size() == pc.value(s).size()


def test_pushforward_of_a_linearized_category_validates():
    pc = forget_units(from_strict_category(
        linearize_category(function_category({"A": 1, "B": 1})), 2))
    assert validate(pushforward({"A": "c", "B": "c"}, pc)) == []


def test_pushforward_of_the_chq_dual_numbers_validates():
    pc = forget_units(from_strict_category(dual_numbers_chq(), 2))
    assert validate(pushforward({"x": "c"}, pc)) == []


def test_pullback_restricts_along_the_letter_map():
    G = from_strict_category(function_category({"c": 2}), 2)
    f = {"A": "c", "B": "c"}
    g = pullback(f, G)
    assert validate(g) == []
    assert g.is_pointed()
    assert check_unital(g) == []
    for s in g.chains:
        assert g.value(s) == G.value(tuple(f[a] for a in s))


def test_pushforward_refuses_pointed_input():
    pc = from_strict_category(function_category({"a": 1}), 2)
    with pytest.raises(ValueError):
        pushforward({"a": "c"}, pc)
