"""Cosegal verdicts, dual-route lifting reports, 2-constant transfer and
flattening, per-pair co-Segalification, and the one-cell gluing problem
checked against 2-constant targets.

The gluing test is the deep one: the free strongly-unital pushout of a
one-chain classifier is computed by the engine colimit and compared, slot
by slot, with the direct 2-constant object built from the realized
composition.  The two only agree through the universal property against
2-constant targets; the raw pushout keeps its freely added products and
the test says so explicitly instead of flattening them away.
"""

import pytest

from cosegal import base, homotopy, shapes
from cosegal.base import (
    chq_map, empty, finset_map, finset_obj, generating_cofibrations,
    has_rlp, identity, is_cofibration, is_fibration, is_isomorphism,
    is_trivial_fibration, is_weak_equivalence, sphere, tensor, tensor_mor,
    unit,
)
from cosegal.colim import wide_pushout, wide_pushout_induced
from cosegal.precat import (
    PrecatMorphism, StrictCategory, check_unital, from_strict_category,
    identity_morphism, is_easy_weak_equivalence,
    is_levelwise_weak_equivalence, make_precategory, validate,
    validate_morphism,
)
from cosegal.adjoints import (
    precat_colimit, psi, psi_inclusions, psi_square, psi_transpose,
    realize, square_down, unitalize,
)
from cosegal.homotopy import (
    TwoConstantData, associated_two_constant, cosegal_report,
    cosegalify_two_constant, is_cosegal, is_two_constant,
    k_injectivity_report, report_passes, transfer_comparison,
    transition_maps, two_constant_transfer, two_constant_values,
    validate_two_constant_data,
)

from fixtures import (
    chainify_category, chq_pair_category, cylinder_data, dual_numbers_chq,
    fold_data, function_category, linearize_category, padded_replacement,
    rand_two_constant_chq, split_module, zero_map,
)


# ---------------------------------------------------------------------------
# cosegal verdicts and 2-constancy predicates


def test_strict_spreads_are_cosegal_with_full_reports():
    pc = from_strict_category(function_category({"a": 1, "b": 2}), 3)
    rep = cosegal_report(pc)
    assert len(rep) == sum(1 for s in pc.chains if len(s) > 2)
    assert all(ok for _, ok in rep)
    assert is_cosegal(pc)
    assert is_two_constant(pc)
    assert two_constant_values(pc) == {
        p: pc.value((p[0], p[0], p[1]))
        for p in [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]}


def _hand_precat(values, maps):
    return make_precategory("finset", ("a",), 3, values, maps, {})


def test_two_constancy_rejects_unequal_values_and_twisted_maps():
    v = finset_obj(["p", "q"])
    a2, a3, a4 = ("a", "a"), ("a", "a", "a"), ("a", "a", "a", "a")
    flat = {a2: v, a3: v, a4: v}
    ident = {(a3, 1): identity(v), (a4, 1): identity(v),
             (a4, 2): identity(v)}
    assert is_two_constant(_hand_precat(flat, ident))

    bigger = dict(flat)
    bigger[a4] = finset_obj(["p", "q", "r"])
    grown = dict(ident)
    grown[(a4, 1)] = finset_map(v, bigger[a4], (0, 1))
    grown[(a4, 2)] = finset_map(v, bigger[a4], (0, 1))
    assert not is_two_constant(_hand_precat(bigger, grown))

    twisted = dict(ident)
    twisted[(a4, 2)] = finset_map(v, v, (1, 0))
    assert not is_two_constant(_hand_precat(flat, twisted))


def test_transition_maps_refuse_disagreeing_degree_two_chains():
    v = finset_obj(["p", "q"])
    letters = ("a", "b")
    values = {s: v for s in shapes.all_chains(letters, 2)}

    def build(twist):
        maps = {}
        for s in values:
            if len(s) == 3:
                maps[(s, 1)] = identity(v)
        if twist:
            maps[(("a", "b", "a"), 1)] = finset_map(v, v, (1, 0))
        return make_precategory("finset", letters, 2, values, maps, {})

    with pytest.raises(ValueError, match="disagree"):
        transition_maps(build(twist=True))
    assert set(transition_maps(build(twist=False))) \
        == {(a, b) for a in letters for b in letters}


def test_unit_lift_must_factor_the_identity_point():
    cat = function_category({"x": 2})
    data = fold_data(cat)
    validate_two_constant_data(data)
    e = cat.idpoints["x"].mapping[0]
    wrong = (e + 1) % cat.homs[("x", "x")].size()
    bad = TwoConstantData(cat, data.replacements, {
        "x": finset_map(unit("finset"), data.replacements[("x", "x")].src,
                        (wrong,))})
    with pytest.raises(ValueError, match="factor the identity"):
        validate_two_constant_data(bad)


# ---------------------------------------------------------------------------
# transfer


def test_transfer_of_identity_replacements_is_the_strict_spread():
    cat = function_category({"a": 1, "b": 2})
    reps = {key: identity(w) for key, w in cat.homs.items()}
    lifts = {a: cat.idpoints[a] for a in cat.objects}
    pc = two_constant_transfer(TwoConstantData(cat, reps, lifts), 3)
    base = from_strict_category(cat, 3)
    assert pc.values == base.values
    assert pc.maps == base.maps
    assert pc.laxity == base.laxity
    assert pc.units == base.units


def test_transfer_along_folds_is_unital_but_not_cosegal():
    cat = function_category({"a": 1, "b": 2})
    data = fold_data(cat)
    pc = two_constant_transfer(data, 3)
    assert validate(pc) == []
    assert check_unital(pc) == []
    assert is_two_constant(pc)
    assert transition_maps(pc) == data.replacements
    assert not is_cosegal(pc)

    comp = transfer_comparison(data, 3)
    assert validate_morphism(comp) == []
    assert not is_easy_weak_equivalence(comp)
    assert not is_levelwise_weak_equivalence(comp)


def test_transfer_through_chq_cylinders_is_cosegal():
    cat = chq_pair_category()
    data = cylinder_data(cat)
    pc = two_constant_transfer(data, 3)
    assert validate(pc) == []
    assert check_unital(pc) == []
    assert is_two_constant(pc)
    assert is_cosegal(pc)

    comp = transfer_comparison(data, 3)
    assert validate_morphism(comp) == []
    assert is_easy_weak_equivalence(comp)
    assert is_levelwise_weak_equivalence(comp)

    entries = k_injectivity_report(pc, strong=True)
    assert report_passes(entries)
    assert all(e["steps_fibrant"] for e in entries)


# ---------------------------------------------------------------------------
# lifting reports


def test_lifting_report_routes_agree_on_all_backends():
    finset_pc = two_constant_transfer(
        fold_data(function_category({"a": 1, "b": 2})), 3)
    vectq_pc = two_constant_transfer(
        fold_data(linearize_category(function_category({"a": 2}))), 3)
    chq_pc = two_constant_transfer(cylinder_data(dual_numbers_chq()), 3)
    for pc in (finset_pc, vectq_pc, chq_pc):
        entries = k_injectivity_report(pc)
        assert entries
        assert report_passes(entries)
        for e in entries:
            assert e["trivial_fibration"] and e["rlp"] and e["agree"]
            assert e["src_size"] >= e["dst_size"]


def test_lifting_report_flags_a_non_surjective_chq_transition():
    one = unit("chq")
    w = sphere(0)
    z = empty("chq")
    homs = {("x", "x"): one, ("y", "y"): one, ("x", "y"): w, ("y", "x"): z}
    comps = {}
    for a in "xy":
        for b in "xy":
            for c in "xy":
                src = tensor(homs[(a, b)], homs[(b, c)])
                dst = homs[(a, c)]
                n = dst.size()
                comps[(a, b, c)] = chq_map(
                    src, dst,
                    [[1 if i == j else 0 for j in range(src.size())]
                     for i in range(n)] if src.size() and n
                    else [[0] * src.size() for _ in range(n)])
    idpoints = {a: chq_map(one, homs[(a, a)], [[1]]) for a in "xy"}
    cat = StrictCategory("chq", ("x", "y"), homs, comps, idpoints)
    reps = {key: identity(wv) for key, wv in homs.items()}
    reps[("x", "y")] = zero_map(z, w)
    lifts = {a: idpoints[a] for a in "xy"}
    pc = two_constant_transfer(TwoConstantData(cat, reps, lifts), 3)
    assert validate(pc) == []

    entries = k_injectivity_report(pc)
    assert not report_passes(entries)
    for e in entries:
        assert e["agree"]
        pair = (e["chain"][0], e["chain"][-1])
        if pair == ("x", "y"):
            assert not e["trivial_fibration"] and not e["rlp"]
        else:
            assert e["passed"]


def test_lifting_report_settles_each_distinct_map_once(monkeypatch):
    pc = two_constant_transfer(cylinder_data(dual_numbers_chq()), 3)
    maps = {s: pc.cosegal_map(s) for s in pc.chains if len(s) > 2}
    distinct = set(maps.values())
    assert len(distinct) < len(maps)
    gens = generating_cofibrations("chq", base.degree_window(
        [unit("chq")] + [pc.value(s) for s in pc.chains]))
    calls = []

    def counted(i, p):
        calls.append(p)
        return has_rlp(i, p)

    monkeypatch.setattr(homotopy, "has_rlp", counted)
    entries = k_injectivity_report(pc, strong=True)
    assert len(calls) == len(distinct) * len(gens)
    # one entry per chain, each with the verdicts of its own map
    assert [e["chain"] for e in entries] == list(maps)
    for e in entries:
        u = maps[e["chain"]]
        assert e["trivial_fibration"] == is_trivial_fibration(u)
        assert e["rlp"] == all(has_rlp(i, u) for i in gens)
        assert e["steps_fibrant"] == all(
            is_fibration(pc.gen_map(e["chain"], p))
            for p in range(1, len(e["chain"]) - 1))


def test_cosegal_report_judges_each_distinct_map_once(monkeypatch):
    pc = two_constant_transfer(cylinder_data(dual_numbers_chq()), 3)
    maps = {s: pc.cosegal_map(s) for s in pc.chains if len(s) > 2}
    distinct = set(maps.values())
    assert len(distinct) < len(maps)
    calls = []

    def counted(u):
        calls.append(u)
        return is_weak_equivalence(u)

    monkeypatch.setattr(homotopy, "is_weak_equivalence", counted)
    report = cosegal_report(pc)
    assert len(calls) == len(distinct)
    # one entry per chain, in chain order, each the verdict of its own map
    assert report == [(s, is_weak_equivalence(u)) for s, u in maps.items()]


# ---------------------------------------------------------------------------
# flattening onto the realization


def test_flattening_a_strict_spread_changes_nothing():
    pc = from_strict_category(function_category({"a": 1, "b": 2}), 3)
    flat, rho, eps = associated_two_constant(pc)
    assert flat.values == pc.values
    assert flat.laxity == pc.laxity
    assert flat.units == pc.units
    assert all(rho.at(s) == identity(pc.value(s)) for s in pc.chains)
    assert is_easy_weak_equivalence(rho)
    assert validate_morphism(eps) == []


def test_a_realization_with_no_strict_category_is_refused_with_its_cause():
    # the split module pins every triple whose pairs have a hom, but no
    # chain spans (m, a), so there is no hom(m, a) to flatten onto
    pc = split_module()
    for build in (associated_two_constant, cosegalify_two_constant):
        with pytest.raises(ValueError, match=(
                r"^realization has no hom at the pairs \[\('m', 'a'\)\]")):
            build(pc)
    # truncation 1 stores no composable pair, so no triple is pinned
    # unless its hom has one point
    pc = from_strict_category(function_category({"a": 2}), 1)
    with pytest.raises(ValueError, match=(
            r"^realization composition is not determined at "
            r"\[\('a', 'a', 'a'\)\]$")):
        associated_two_constant(pc)
    # without units the realization has no identity points
    pc = from_strict_category(function_category({"a": 1}), 2)
    stripped = make_precategory(pc.backend, pc.letters, pc.truncation,
                                pc.values, pc.maps, pc.laxity)
    with pytest.raises(ValueError, match="^realization of an unpointed"):
        associated_two_constant(stripped)


def test_flattening_a_forced_unital_point_lands_on_its_realization():
    monoid = function_category({"x": 1})
    base = from_strict_category(monoid, 3)
    stripped = make_precategory(base.backend, base.letters, base.truncation,
                                base.values, base.maps, base.laxity)
    from cosegal.adjoints import point
    pc = unitalize(point(stripped)).precat
    r = realize(pc)
    flat, rho, eps = associated_two_constant(pc)
    assert validate(flat) == []
    assert check_unital(flat) == []
    assert is_two_constant(flat)
    assert is_cosegal(flat)
    for s in pc.chains:
        assert rho.at(s).then(eps.at(s)) == r.eta.at(s)


# ---------------------------------------------------------------------------
# per-pair co-Segalification


def _invert(m):
    """Invert a backend isomorphism."""
    if m.backend == "finset":
        inv = [0] * m.dst.size()
        for i, j in enumerate(m.mapping):
            inv[j] = i
        return finset_map(m.dst, m.src, tuple(inv))
    from cosegal import ratmat
    from cosegal.base import make_map
    return make_map(m.dst, m.src,
                    ratmat.solve_matrix(m.matrix,
                                        ratmat.eye(len(m.matrix)))[0])


def _realization_matches(pc, out):
    """The realized categories of input and output agree through the
    degree-2 cocone isos: same composition tables, same identity points,
    up to the colimit relabelling."""
    r1, r2 = realize(pc), realize(out)
    assert r1.category is not None and r2.category is not None
    letters = pc.letters
    phi = {}
    for a in letters:
        for b in letters:
            z = (a, a, b)
            assert pc.value(z) == out.value(z)
            to1, to2 = r1.eta.at(z), r2.eta.at(z)
            assert is_isomorphism(to1) and is_isomorphism(to2)
            phi[(a, b)] = _invert(to1).then(to2)
    for a in letters:
        for b in letters:
            for c in letters:
                lhs = r1.comps[(a, b, c)].then(phi[(a, c)])
                rhs = tensor_mor(phi[(a, b)], phi[(b, c)]).then(
                    r2.comps[(a, b, c)])
                assert lhs == rhs
    for a in letters:
        assert r1.idpoints[a].then(phi[(a, a)]) == r2.idpoints[a]


def test_cosegalify_finset_folds_honestly_reports_non_cosegal():
    cat = function_category({"a": 1, "b": 2})
    pc = two_constant_transfer(fold_data(cat), 3)
    out, eta = cosegalify_two_constant(pc)
    assert validate(out) == []
    assert check_unital(out) == []
    assert is_two_constant(out)
    assert validate_morphism(eta) == []
    for s in pc.chains:
        if len(s) == 2:
            assert is_cofibration(eta.at(s))
        else:
            assert eta.at(s) == identity(pc.value(s))
    assert report_passes(k_injectivity_report(out))
    for u in transition_maps(out).values():
        assert is_trivial_fibration(u)
    assert not is_cosegal(out)
    _realization_matches(pc, out)


def test_cosegalify_chq_repairs_a_non_cosegal_input():
    cat = chainify_category(function_category({"a": 2}))
    w = cat.homs[("a", "a")]
    rep, sec = padded_replacement(w, [sphere(1)])
    data = TwoConstantData(cat, {("a", "a"): rep},
                           {"a": cat.idpoints["a"].then(sec)})
    pc = two_constant_transfer(data, 3)
    assert not is_cosegal(pc)
    out, eta = cosegalify_two_constant(pc)
    assert validate(out) == []
    assert check_unital(out) == []
    assert is_cosegal(out)
    assert report_passes(k_injectivity_report(out))
    assert is_cofibration(eta.at(("a", "a")))
    assert not is_weak_equivalence(eta.at(("a", "a")))
    _realization_matches(pc, out)


def test_cosegalify_chq_validates_a_23_dimensional_slot():
    # ten spheres pad the one-dimensional hom; the output's degree-1 slot
    # has 23 dimensions, and validate checks associativity on tensors of
    # three of its values
    cat = chainify_category(function_category({"a": 1}))
    w = cat.homs[("a", "a")]
    rep, sec = padded_replacement(w, [sphere(1)] * 10)
    data = TwoConstantData(cat, {("a", "a"): rep},
                           {"a": cat.idpoints["a"].then(sec)})
    out, _ = cosegalify_two_constant(two_constant_transfer(data, 3))
    assert max(out.value(s).size() for s in out.chains) == 23
    assert validate(out) == []


def test_cosegalify_chq_cylinders_keeps_the_weak_equivalence():
    pc = two_constant_transfer(cylinder_data(dual_numbers_chq()), 3)
    assert is_cosegal(pc)
    out, eta = cosegalify_two_constant(pc)
    assert is_cosegal(out)
    assert is_easy_weak_equivalence(eta)
    assert is_levelwise_weak_equivalence(eta)
    _realization_matches(pc, out)


def test_cosegalify_preconditions():
    cat = function_category({"a": 2})
    pc = two_constant_transfer(fold_data(cat), 3)
    stripped = make_precategory(pc.backend, pc.letters, pc.truncation,
                                pc.values, pc.maps, pc.laxity)
    with pytest.raises(ValueError, match="pointed"):
        cosegalify_two_constant(stripped)
    shallow = two_constant_transfer(fold_data(cat), 1)
    with pytest.raises(ValueError, match="truncation"):
        cosegalify_two_constant(shallow)


def test_cosegalify_chq_fuzz_small(rng):
    """Co-Segalification of random 2-constant inputs, and on each output
    the main theorem: the output is levelwise weakly equivalent, through
    its flattening, to the strict spread of its realization."""
    for _ in range(3):
        pc = rand_two_constant_chq(rng)
        out, eta = cosegalify_two_constant(pc)
        assert validate(out) == []
        assert check_unital(out) == []
        assert is_cosegal(out)
        assert report_passes(k_injectivity_report(out))
        for s in pc.chains:
            if len(s) == 2:
                assert is_cofibration(eta.at(s))
            else:
                assert eta.at(s) == identity(pc.value(s))
        _realization_matches(pc, out)
        flat, rho, eps = associated_two_constant(out)
        for alpha in (rho, eps):
            assert validate_morphism(alpha) == []
            assert is_levelwise_weak_equivalence(alpha)
        strict = realize(out).constant
        assert (eps.dst.values, eps.dst.maps, eps.dst.laxity,
                eps.dst.units) == (strict.values, strict.maps,
                                   strict.laxity, strict.units)


# ---------------------------------------------------------------------------
# the one-cell gluing problem


def _cell_setup(sizes, z0, bottom_images):
    cat = function_category(sizes)
    truncation = 3
    F = from_strict_category(cat, truncation)
    pair = (z0[0], z0[-1])
    hom = cat.homs[pair]
    u_obj = finset_obj(["u0"])
    v_obj = finset_obj(["v0", "v1"])
    alpha = finset_map(u_obj, v_obj, (0,))
    bottom = finset_map(v_obj, hom, bottom_images)
    top = alpha.then(bottom)
    res_a = psi(z0, alpha, letters=F.letters, truncation=truncation)
    res_v = psi(z0, identity(v_obj), letters=F.letters,
                truncation=truncation)
    down = psi_square(z0, square_down(alpha), res_a, res_v)
    sigma = psi_transpose(res_a, z0, F, (top, bottom))
    return cat, F, pair, hom, alpha, top, bottom, res_a, res_v, down, sigma


def _run_cell_pushout(sizes, z0, bottom_images):
    (cat, F, pair, hom, alpha, top, bottom,
     res_a, res_v, down, sigma) = _cell_setup(sizes, z0, bottom_images)
    truncation = F.truncation

    # engine route: the strongly-unital pushout, taken at face value
    raw, cocone = precat_colimit(
        {0: res_a.precat, 1: res_v.precat, 2: F},
        [(0, 1, down), (0, 2, sigma)])
    eng = unitalize(raw)
    assert eng.trace.summary()["rounds"] == 0
    big = eng.precat
    assert validate(big) == []
    assert check_unital(big) == []
    kappa_eng = cocone[1].then(eng.eta)
    eps_eng = cocone[2].then(eng.eta)
    assert down.then(kappa_eng).components == sigma.then(eps_eng).components

    # its glued degree-1 slot is the plain backend pushout, through the
    # induced comparison; the higher slots keep free products and the
    # object is genuinely not 2-constant
    po = wide_pushout(alpha.src, [alpha, top])
    inc_u, _ = psi_inclusions(res_v, z0)
    m = wide_pushout_induced(po, [inc_u.then(kappa_eng.at(pair)),
                                  eps_eng.at(pair)])
    assert is_isomorphism(m)
    assert not is_two_constant(big)

    # direct route: re-seat the glued pair on the pushout object over the
    # realized category
    r = realize(F)
    assert r.homs == cat.homs and r.comps == cat.comps
    gamma_pair = wide_pushout_induced(po, [bottom, identity(hom)])
    reps = {key: identity(w) for key, w in cat.homs.items()}
    reps[pair] = gamma_pair
    lifts = {}
    for a in cat.objects:
        lifts[a] = cat.idpoints[a].then(po.maps[1]) if (a, a) == pair \
            else cat.idpoints[a]
    flat = two_constant_transfer(TwoConstantData(cat, reps, lifts),
                                 truncation)
    assert validate(flat) == []
    assert check_unital(flat) == []
    assert is_two_constant(flat)

    # the comparison out of F changes the glued slot only
    comps = {}
    for s in F.chains:
        p = (s[0], s[-1])
        comps[s] = po.maps[1] if len(s) == 2 and p == pair \
            else identity(F.value(s))
    eps_flat = PrecatMorphism(F, flat, comps)
    assert validate_morphism(eps_flat) == []
    for s in F.chains:
        if len(s) == 2 and (s[0], s[-1]) == pair:
            assert not is_isomorphism(eps_flat.at(s))
        else:
            assert is_isomorphism(eps_flat.at(s))

    # it receives the same cocone, byte for byte
    kappa_flat = psi_transpose(res_v, z0, flat, (po.maps[0], bottom))
    assert down.then(kappa_flat).components \
        == sigma.then(eps_flat).components

    # one full universal-property instance with target F itself: the
    # induced map is the transition on the glued slot and the identity
    # elsewhere, and both cocone triangles close
    zeta = PrecatMorphism(flat, F, {
        s: gamma_pair if len(s) == 2 and (s[0], s[-1]) == pair
        else identity(flat.value(s)) for s in flat.chains})
    assert validate_morphism(zeta) == []
    assert eps_flat.then(zeta).components \
        == identity_morphism(F).components
    kappa_f = psi_transpose(res_v, z0, F, (bottom, bottom))
    assert kappa_flat.then(zeta).components == kappa_f.components

    # the direct object realizes back onto the input category
    r2 = realize(flat)
    assert r2.category is not None
    for a in cat.objects:
        for b in cat.objects:
            z = (a, a, b)
            assert is_isomorphism(r2.eta.at(z))
    _realization_matches(F, flat)


def test_cell_pushout_against_two_constant_targets():
    _run_cell_pushout({"a": 1, "b": 2}, ("a", "a", "b"), (0, 1))


def test_cell_pushout_on_a_diagonal_pair():
    _run_cell_pushout({"a": 2}, ("a", "a", "a"), (0, 2))
