import pytest

from cosegal import base, ratmat
from cosegal.base import (
    NoSolution, basis_point, chq_map, chq_obj, disk, empty, finset_map,
    finset_obj, identity, invert, is_isomorphism, make_map, solve_map, sphere,
    symmetry, tensor, tensor_mor, unit, vectq_map, vectq_obj, zero_map,
)
from cosegal.colim import (
    Colimit, agreement, coequalizer, colimit, colimit_induced, copair,
    coproduct, equalizer, kernel_subobject, present, product,
    quotient_finset, quotient_induced, quotient_linear, wide_pushout,
    wide_pushout_induced,
)

from fixtures import difference, rand_chq, rand_chq_map


def test_coproduct_injections_jointly_surjective():
    x = finset_obj(["a", "b"])
    y = finset_obj(["c"])
    cop, injs = coproduct([x, y])
    assert len(cop.labels) == 3
    seen = set(injs[0].mapping) | set(injs[1].mapping)
    assert seen == {0, 1, 2}
    f = finset_map(x, y, [0, 0])
    g = identity(y)
    h = copair(cop, [f, g], y)
    assert injs[0].then(h) == f and injs[1].then(h) == g


def test_coproduct_chq_direct_sum():
    cop, injs = coproduct([sphere(0), disk(1)])
    assert cop.degrees == (0, 1, 0)
    assert base.homology(cop) == {0: 1}
    assert all(base.is_cofibration(i) for i in injs)


def test_coequalizer_finset_union_find():
    y = finset_obj(["a", "b", "c", "d"])
    x = finset_obj(["p", "q"])
    f = finset_map(x, y, [0, 1])
    g = finset_map(x, y, [1, 2])
    q = coequalizer(f, g)
    assert len(q.obj.labels) == 2  # {a,b,c} and {d}
    assert q.proj.mapping == (0, 0, 0, 1)
    h = finset_map(y, finset_obj(["z", "w"]), [0, 0, 0, 1])
    ind = quotient_induced(q, h)
    assert q.proj.then(ind) == h
    bad = finset_map(y, finset_obj(["z", "w"]), [0, 1, 0, 1])
    with pytest.raises(ValueError):
        quotient_induced(q, bad)


def test_coequalizer_vectq_cokernel():
    x = vectq_obj(1)
    y = vectq_obj(2)
    f = vectq_map(x, y, [[1], [0]])
    g = vectq_map(x, y, [[0], [1]])
    q = coequalizer(f, g)
    assert q.obj.dim == 1
    assert f.then(q.proj) == g.then(q.proj)


def test_coequalizer_chq_inherits_degrees():
    x = sphere(1)
    y = coproduct([sphere(1), disk(1)])[0]
    f = chq_map(x, y, [[1], [0], [0]])
    g = chq_map(x, y, [[0], [0], [0]])
    q = coequalizer(f, g)
    assert q.obj.degrees == (1, 0)
    assert base.homology(q.obj) == {}


@pytest.mark.parametrize("y", [
    empty("finset"), finset_obj(["a", "b"]), empty("vectq"), vectq_obj(2),
    empty("chq"), disk(1)])
def test_coequalizing_no_relations_is_the_trivial_quotient(y):
    # presented with no relations, the object is the blocks' coproduct and
    # each leg is its injection, the leg of the empty block too
    objs = [y, empty(y.backend), y]
    col = present(list(enumerate(objs)), [], y.backend)
    cop, injs = coproduct(objs, backend=y.backend)
    if y.backend == "finset":
        assert col.q == quotient_finset(cop, [])
    else:
        assert col.q == quotient_linear(
            cop, ratmat.relation_cokernel(cop.size(), []))
    assert col.obj == cop and col.q.proj == identity(cop)
    assert list(col.cocone.values()) == injs


def present_by_reference(blocks, relations, backend):
    """present in four steps: the blocks' coproduct, each relation side
    composed with its block's injection, the coequalizer of the two
    copairs out of the coproduct of the relation sources, and each leg
    composed as injection then projection."""
    cop, injs = coproduct([obj for _, obj in blocks], backend=backend)
    inj = {key: i for (key, _), i in zip(blocks, injs)}
    rel_cop, _ = coproduct([f1.src for (_, f1), _ in relations],
                           backend=backend)
    q = coequalizer(
        copair(rel_cop, [f1.then(inj[k1]) for (k1, f1), _ in relations], cop),
        copair(rel_cop, [f2.then(inj[k2]) for _, (k2, f2) in relations], cop))
    return Colimit(q.obj, {key: i.then(q.proj) for key, i in inj.items()}, q)


def present_objects(backend):
    """Three blocks (the second empty) and relation sources, one empty."""
    if backend == "finset":
        blocks = [finset_obj(["a", "b", "c"]), empty("finset"),
                  finset_obj(["d", "e"])]
        return blocks, [empty("finset"), finset_obj(["p"]),
                        finset_obj(["q", "r"])]
    if backend == "vectq":
        return ([vectq_obj(3), empty("vectq"), vectq_obj(2)],
                [empty("vectq"), vectq_obj(1), vectq_obj(2)])
    return ([coproduct([sphere(0), disk(1)])[0], empty("chq"), disk(1)],
            [empty("chq"), sphere(0), disk(1)])


def random_map(rng, src, dst):
    if src.backend == "finset":
        return finset_map(src, dst, [rng.randrange(dst.size())
                                     for _ in range(src.size())])
    if src.backend == "vectq":
        return vectq_map(src, dst, [[rng.randint(-2, 2) for _ in range(
            src.size())] for _ in range(dst.size())])
    return rand_chq_map(rng, src, dst)


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_present_matches_the_coequalizer_of_two_copairs(backend, rng):
    objs, sources = present_objects(backend)
    blocks = list(zip("xyz", objs))
    for _ in range(8):
        relations = []
        for src in sources:
            for _ in range(2):
                # a nonempty source maps into the nonempty blocks only
                ends = [(k, o) for k, o in blocks
                        if o.size() or not src.size()]
                sides = [rng.choice(ends) for _ in range(2)]
                relations.append(tuple((k, random_map(rng, src, o))
                                       for k, o in sides))
        # a relation that identifies a map with itself identifies nothing,
        # and so does one out of 0, here with a side on the empty block
        relations.append((relations[-1][0], relations[-1][0]))
        relations.append(tuple((k, random_map(rng, sources[0], o))
                               for k, o in blocks[1:]))
        rng.shuffle(relations)
        assert present(blocks, relations, backend) == present_by_reference(
            blocks, relations, backend)


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_present_refuses_a_relation_off_its_blocks(backend, rng):
    (x, _, y), _ = present_objects(backend)
    f = random_map(rng, y, x)
    blocks = [("x", x), ("y", y)]
    with pytest.raises(ValueError, match="not a parallel pair"):
        present(blocks, [(("x", identity(x)), ("x", f))], backend)
    with pytest.raises(ValueError, match="does not end on block 'y'"):
        present(blocks, [(("y", identity(y)), ("y", f))], backend)


def surjection_case(backend):
    """A surjection e: y -> q, a map g out of q, and a map out of y that
    separates two elements e identifies."""
    if backend == "finset":
        y = finset_obj(["a", "b", "c"])
        e = finset_map(y, finset_obj(["x", "y"]), [1, 0, 1])
        g = finset_map(e.dst, finset_obj(["s", "t", "u"]), [2, 0])
        return e, g, finset_map(y, g.dst, [0, 1, 2])
    if backend == "vectq":
        e = vectq_map(vectq_obj(3), vectq_obj(2), [[1, 0, 1], [0, 1, 0]])
        g = vectq_map(e.dst, vectq_obj(1), [[2, 3]])
        return e, g, vectq_map(e.src, g.dst, [[1, 0, 0]])
    y, _ = coproduct([disk(1), sphere(0)])
    e = chq_map(y, disk(1), [[1, 0, 0], [0, 1, 1]])
    return e, identity(e.dst), chq_map(y, e.dst, [[1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_surjection_quotients_induce_and_refuse(backend):
    # a surjection e presents its target as a quotient: the map out of it
    # is the one solution of e.then(x) == h, and none exists when h
    # separates what e identifies
    e, g, bad = surjection_case(backend)
    assert solve_map(e.dst, g.dst, [(e, e.then(g))], []) == (g, True)
    with pytest.raises(NoSolution):
        solve_map(e.dst, bad.dst, [(e, bad)], [])


def test_pushout_universal_property(rng):
    a = finset_obj(["x"])
    b = finset_obj(["x", "y"])
    c = finset_obj(["u", "v"])
    f = finset_map(a, b, [0])
    g = finset_map(a, c, [1])
    po = wide_pushout(a, [f, g])
    left, right = po.maps
    assert len(po.obj.labels) == 3
    assert f.then(left) == g.then(right)
    z = finset_obj(["0", "1", "2"])
    u = finset_map(b, z, [0, 1])
    v = finset_map(c, z, [2, 0])
    ind = wide_pushout_induced(po, [u, v])
    assert left.then(ind) == u and right.then(ind) == v


def test_wide_pushout_degenerate_cases():
    b = vectq_obj(2)
    wp0 = wide_pushout(b, [])
    assert wp0.obj == b and wp0.through == identity(b)
    f = vectq_map(b, vectq_obj(1), [[1, 1]])
    wp1 = wide_pushout(b, [f])
    assert wp1.obj == f.dst and wp1.through == f
    assert wide_pushout_induced(wp1, [identity(f.dst)]) == identity(f.dst)


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_maps_out_of_an_empty_base_compose_nothing(monkeypatch, backend):
    # out of 0 there is one map: a wide pushout over an empty base and the
    # descent out of a coequalizer of 0 build it without composing
    nothing = empty(backend)
    m = {"finset": finset_obj(["m0", "m1"]), "vectq": vectq_obj(2),
         "chq": disk(1)}[backend]
    composed = []
    then = base.MMorphism.then

    def recorded(self, other):
        composed.append(self)
        return then(self, other)

    monkeypatch.setattr(base.MMorphism, "then", recorded)
    wp = wide_pushout(nothing, [zero_map(nothing, m)] * 3)
    assert wp.through == zero_map(nothing, wp.obj) and wp.obj.size() == 6
    q = coequalizer(identity(nothing), identity(nothing))
    assert quotient_induced(q, zero_map(nothing, m)) == zero_map(nothing, m)
    assert composed == []


def test_coproduct_labels_carry_the_given_summand_index():
    a, b = finset_obj(["x"]), finset_obj(["y", "z"])
    full, _ = coproduct([a, empty("finset"), b])
    assert coproduct([a, b], index=(0, 2))[0] == full
    assert coproduct([a, b])[0] != full
    assert coproduct([vectq_obj(1), vectq_obj(2)], index=(0, 2))[0] == \
        coproduct([vectq_obj(1), vectq_obj(0), vectq_obj(2)])[0]


def test_wide_pushout_three_legs():
    b = vectq_obj(1)
    legs = [vectq_map(b, vectq_obj(2), [[1], [0]]) for _ in range(3)]
    wp = wide_pushout(b, legs)
    # three planes glued along a shared line
    assert wp.obj.dim == 4
    for m, leg in zip(wp.maps, legs):
        assert leg.then(m) == wp.through
    cone = [vectq_map(l.dst, vectq_obj(1), [[1, 0]]) for l in legs]
    ind = wide_pushout_induced(wp, cone)
    assert wp.maps[0].then(ind) == cone[0]


def test_colimit_general_span():
    # a span glued into a pushout through the generic presentation
    nodes = {"a": finset_obj(["x"]), "b": finset_obj(["x", "y"]),
             "c": finset_obj(["u", "v"])}
    edges = [("a", "b", finset_map(nodes["a"], nodes["b"], [0])),
             ("a", "c", finset_map(nodes["a"], nodes["c"], [1]))]
    col = colimit(nodes, edges)
    assert len(col.obj.labels) == 3
    cone = {"a": finset_map(nodes["a"], finset_obj(["z"]), [0]),
            "b": finset_map(nodes["b"], finset_obj(["z"]), [0, 0]),
            "c": finset_map(nodes["c"], finset_obj(["z"]), [0, 0])}
    ind = colimit_induced(col, cone)
    assert col.cocone["b"].then(ind) == cone["b"]


def test_colimit_constant_shortcut_is_literal():
    w = vectq_obj(2)
    s = vectq_obj(1)
    tau = vectq_map(s, w, [[1], [1]])
    nodes = {"src": s, "n1": w, "n2": w}
    edges = [("src", "n1", tau), ("src", "n2", tau),
             ("n1", "n2", identity(w))]
    col = colimit(nodes, edges, source_key="src")
    assert col.obj is w
    assert col.cocone["n1"] == identity(w)
    assert col.cocone["src"] == tau
    ind = colimit_induced(col, {"src": tau, "n1": identity(w),
                                "n2": identity(w)})
    assert ind == identity(w)


def test_colimit_shortcut_refuses_disconnected():
    w = vectq_obj(1)
    s = vectq_obj(1)
    tau = vectq_map(s, w, [[2]])
    nodes = {"src": s, "n1": w, "n2": w}
    edges = [("src", "n1", tau), ("src", "n2", tau)]
    col = colimit(nodes, edges, source_key="src")
    # no identity edge joins n1 to n2, so this is a genuine pushout
    assert col.obj.dim == 1
    assert col.cocone["n1"] != identity(w) or col.cocone["n2"] != identity(w)


def two_points(backend):
    """A one-point object a, a two-point object b and the two different
    maps f, g: a -> b that pick out its points."""
    if backend == "finset":
        a, b = finset_obj(["p"]), finset_obj(["x", "y"])
        return a, b, finset_map(a, b, [0]), finset_map(a, b, [1])
    if backend == "vectq":
        a, b = vectq_obj(1), vectq_obj(2)
        return a, b, vectq_map(a, b, [[1], [0]]), vectq_map(a, b, [[0], [1]])
    a = sphere(0)
    b, _ = coproduct([a, a])
    return a, b, chq_map(a, b, [[1], [0]]), chq_map(a, b, [[0], [1]])


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_induced_maps_refuse_a_cone_that_does_not_commute(backend):
    # the identity of b on both legs is a cone only if f == g
    a, b, f, g = two_points(backend)
    ib = identity(b)
    for n in (2, 3):
        wp = wide_pushout(a, [f, g] + [f] * (n - 2))
        assert wide_pushout_induced(wp, wp.maps) == identity(wp.obj)
        with pytest.raises(ValueError):
            wide_pushout_induced(wp, [ib] * n)
    presented = colimit({"a": a, "b": b}, [("a", "b", f), ("a", "b", g)])
    assert presented.q is not None
    assert colimit_induced(presented, presented.cocone) == identity(
        presented.obj)
    with pytest.raises(ValueError):
        colimit_induced(presented, {"a": f, "b": ib})
    on_the_nose = colimit({"s": a, "n": b}, [("s", "n", f)], source_key="s")
    assert on_the_nose.q is None and on_the_nose.obj is b
    assert colimit_induced(on_the_nose, {"s": f, "n": ib}) == ib
    with pytest.raises(ValueError):
        colimit_induced(on_the_nose, {"s": g, "n": ib})


def test_equalizer_all_backends():
    x = finset_obj(["a", "b", "c"])
    y = finset_obj(["u", "v"])
    f = finset_map(x, y, [0, 1, 0])
    g = finset_map(x, y, [0, 0, 0])
    obj, incl = equalizer(f, g)
    assert obj.labels == (("a",), ("c",))
    assert incl.then(f) == incl.then(g)
    a = vectq_obj(2)
    h = vectq_map(a, a, [[1, 1], [0, 1]])
    obj2, incl2 = equalizer(h, identity(a))
    assert obj2.dim == 1
    c = disk(1)
    obj3, incl3 = equalizer(identity(c), identity(c))
    assert obj3.degrees == c.degrees
    obj4, incl4 = equalizer(identity(c), zero_map(c, c))
    assert obj4.degrees == ()


def test_kernel_subobject_refuses_a_kernel_that_is_not_a_subcomplex():
    # on the disk d(e1) = e0, so the kernel of "e0 = 0" is spanned by e1
    # and is not closed under d
    with pytest.raises(ValueError):
        kernel_subobject(disk(1), ratmat.mat([[0, 1]]))
    obj, incl = kernel_subobject(disk(1), ratmat.mat([[0, 0]]))
    assert obj.degrees == (1, 0) and incl == identity(disk(1))


def test_product_of_finsets_runs_in_the_tensor_order():
    x, y = finset_obj(["a", "b"]), finset_obj(["u", "v", "w"])
    prod, (px, py) = product([x, y], "finset")
    assert prod == tensor(x, y)
    for k, label in enumerate(prod.labels):
        assert (px.mapping[k], py.mapping[k]) == divmod(k, 3)
        assert label == x.labels[px.mapping[k]] + y.labels[py.mapping[k]]
    # the projections are jointly injective, as on vectq and chq, though
    # no pre equation forces a point
    assert solve_map(prod, prod, [], [(px, px), (py, py)]) == \
        (identity(prod), True)


@pytest.mark.parametrize("backend", ["vectq", "chq"])
def test_product_of_linear_objects_is_the_direct_sum(backend, rng):
    objs = ([vectq_obj(2), vectq_obj(0), vectq_obj(3)] if backend == "vectq"
            else [disk(1), empty("chq"), rand_chq(rng)])
    prod, projs = product(objs, backend)
    cop, injs = coproduct(objs, backend)
    assert prod == cop
    for i, inj in enumerate(injs):
        for j, proj in enumerate(projs):
            assert inj.then(proj) == (identity(objs[i]) if i == j
                                      else zero_map(objs[i], objs[j]))
    # the projections are jointly injective: only the identity of the
    # product commutes with all of them
    assert solve_map(prod, prod, [], [(p, p) for p in projs]) == \
        (identity(prod), True)


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_product_with_an_empty_factor_and_with_none(backend):
    point, nothing = unit(backend), empty(backend)
    prod, projs = product([point, nothing, point], backend)
    assert [p.dst for p in projs] == [point, nothing, point]
    assert all(p.src == prod for p in projs)
    # the cartesian product is empty; the direct sum skips the summand
    assert prod.size() == (0 if backend == "finset" else 2)
    prod, projs = product([], backend)
    assert projs == []
    assert prod == (point if backend == "finset" else nothing)


def _rand_map(rng, src, dst):
    if src.backend == "chq":
        return rand_chq_map(rng, src, dst)
    return vectq_map(src, dst, [[rng.randint(-2, 2) for _ in range(src.dim)]
                                for _ in range(dst.dim)])


def _agreeing_pairs(rng, backend):
    """a of size 2, y and two pairs f: a (x) y -> z, g: y (x) a -> z, each
    g the braided f changed on the points of one part of y only, so that
    they agree on the other part at least."""
    if backend == "finset":
        a = finset_obj(["0", "1"])
        y1, y2 = finset_obj(["p", "q"]), finset_obj(["r", "s", "t"])
    elif backend == "vectq":
        a, y1, y2 = vectq_obj(2), vectq_obj(2), vectq_obj(3)
    else:
        a = chq_obj([0, 0], [[0, 0], [0, 0]])
        y1, y2 = disk(1), rand_chq(rng, max_rank=4)
    y, (q1, q2) = product([y1, y2], backend)
    pairs = []
    for z in (finset_obj(["u", "v", "w"]) if backend == "finset" else y,
              tensor(a, y)):
        if backend == "finset":
            f = finset_map(tensor(a, y), z, [rng.randrange(3) for _ in
                                             range(a.size() * y.size())])
            # g moves the images of the points of y whose y1 part is q
            g = symmetry(y, a).then(f)
            g = finset_map(g.src, z, [
                (m + (q1.mapping[k // 2] == 1)) % z.size()
                for k, m in enumerate(g.mapping)])
        else:
            f = _rand_map(rng, tensor(a, y), z)
            e = tensor_mor(q2, identity(a)).then(
                _rand_map(rng, tensor(y2, a), z))
            g = symmetry(y, a).then(f)
            g = make_map(g.src, z, ratmat.build(z.size(), g.src.size(), [
                *ratmat.nonzeros(g.matrix), *ratmat.nonzeros(e.matrix)]))
        pairs.append((f, g))
    return a, y, pairs


@pytest.mark.parametrize("backend", ["finset", "vectq", "chq"])
def test_agreement_is_the_subobject_where_the_pairs_agree(backend, rng):
    a, y, pairs = _agreeing_pairs(rng, backend)
    obj, incl = agreement(y, pairs)
    assert incl.src == obj and incl.dst == y

    def sides(x):
        # f(v (x) x) and g(x (x) v) for each pair and each point v of a
        return [(tensor_mor(pv, x).then(f), tensor_mor(x, pv).then(g))
                for pv in map(basis_point, [a] * a.size(), range(a.size()))
                for f, g in pairs]

    if backend == "finset":
        kept = [k for k in range(y.size())
                if all(top == bottom for top, bottom in sides(
                    basis_point(y, k)))]
        assert incl.mapping == tuple(kept)
        assert obj.labels == tuple(y.labels[k] for k in kept)
        assert kept and len(kept) < y.size()
        return
    # on vectq/chq I (x) y == y, so at x = identity(y) each side is a map
    # y -> z, and the subobject is the kernel of their differences
    rows = [difference(top.matrix, bottom.matrix)
            for top, bottom in sides(identity(y))]
    assert obj.size() == y.size() - ratmat.rank(ratmat.vstack(rows))
    assert obj.size() >= 2
    assert ratmat.rank(incl.matrix) == obj.size()
    assert all(top == bottom for top, bottom in sides(incl))


def test_agreement_refuses_a_kernel_that_is_not_a_subcomplex():
    # at the degree-1 generator v of a = S^1 the agreement of the pair
    # holds at e0 of y = D^1 but not at d(e0) = e1: f(v (x) w) - g(w (x) v)
    # is 2 x1 (v (x) e1) at w = x0 e0 + x1 e1
    a, y = sphere(1), disk(1)
    f = identity(tensor(a, y))
    g = symmetry(y, a).then(chq_map(f.dst, f.dst, [[-1, 0], [0, -1]]))
    with pytest.raises(ValueError, match="subcomplex"):
        agreement(y, [(f, g)])


# The lemmas on interleaved sequences and on the coproduct/pushout
# exchange, checked with the engine: no engine step calls these checkers.


class StabilizationError(RuntimeError):
    pass


def stabilization_index(maps):
    """The least index from which every listed map is an isomorphism."""
    idx = len(maps)
    for i in range(len(maps) - 1, -1, -1):
        if is_isomorphism(maps[i]):
            idx = i
        else:
            break
    if idx == len(maps):
        raise StabilizationError("sequence does not stabilize in range")
    return idx


def compare_interleaved_colimits(etas, epsilons, downs, ups):
    """Check that two interleaved sequences share their colimit.

    Data: etas[i]: A_i -> A_{i+1}, epsilons[i]: B_i -> B_{i+1},
    downs[i]: A_i -> B_i (one per object of A), ups[i]: B_i -> A_{i+1},
    subject to downs[i].then(ups[i]) == etas[i] and
    ups[i].then(downs[i+1]) == epsilons[i].

    Both sequences must become isomorphisms inside the given window; the
    returned report carries the stabilization indices and the mutually
    inverse comparison maps between the stable values.
    """
    n = len(etas)
    if len(epsilons) != n or len(downs) != n + 1 or len(ups) != n:
        raise ValueError("interleaving data has mismatched lengths")
    for i in range(n):
        if downs[i].then(ups[i]) != etas[i]:
            raise ValueError("interleaving fails over eta at %d" % i)
        if ups[i].then(downs[i + 1]) != epsilons[i]:
            raise ValueError("interleaving fails under epsilon at %d" % i)
    m = max(stabilization_index(etas), stabilization_index(epsilons))
    u = downs[m]
    v = ups[m].then(invert(etas[m]))
    ok_vu = u.then(v) == identity(u.src)
    ok_uv = v.then(u) == identity(u.dst)
    return {
        "stable-index": m,
        "forward": u,
        "backward": v,
        "mutually-inverse": ok_vu and ok_uv,
    }


def compare_coproduct_pushout(base, items):
    """Compare gluing a family all at once against gluing leg by leg.

    items: [(p_i: A_i -> C_i, h_i: A_i -> B)]. Route one pushes out the
    coproduct of the p_i along the combined attachment; route two forms
    each pushout D_i separately and takes the wide pushout of B -> D_i.
    Returns the two objects with explicit mutually inverse comparison maps.
    """
    backend = base.backend
    ps = [p for p, _ in items]
    hs = [h for _, h in items]
    for p, h in items:
        if p.src != h.src or h.dst != base:
            raise ValueError("family legs do not match the base")
    cop_a, inj_a = coproduct([p.src for p in ps], backend=backend)
    cop_c, inj_c = coproduct([p.dst for p in ps], backend=backend)
    big_p = copair(cop_a, [p.then(ic) for p, ic in zip(ps, inj_c)], cop_c)
    big_h = copair(cop_a, hs, base)
    route_one = wide_pushout(cop_a, [big_p, big_h])
    c_to_e, b_to_e = route_one.maps
    pos = [wide_pushout(p.src, [p, h]) for p, h in items]
    route_two = wide_pushout(base, [po.maps[1] for po in pos])
    # E -> wide pushout: send each C_i through its own pushout leg, B along
    # the common anchor
    cone_c = copair(cop_c,
                    [po.maps[0].then(m) for po, m in zip(pos, route_two.maps)],
                    route_two.obj)
    u = wide_pushout_induced(route_one, [cone_c, route_two.through])
    # wide pushout -> E: each D_i maps in via its universal property
    cone_d = [wide_pushout_induced(po, [inj_c[i].then(c_to_e), b_to_e])
              for i, po in enumerate(pos)]
    v = wide_pushout_induced(route_two, cone_d, through=b_to_e)
    ok = (u.then(v) == identity(route_one.obj)
          and v.then(u) == identity(route_two.obj))
    return {
        "all-at-once": route_one.obj,
        "leg-by-leg": route_two.obj,
        "forward": u,
        "backward": v,
        "mutually-inverse": ok,
    }


def interleave_shifted(etas, twists):
    """The cofinal-subsequence interleaving B_i = A_{i+1} twisted by isos.

    etas lists n+1 maps A_0 -> ... -> A_{n+1}; twists lists n+1 isos, one
    out of each A_{i+1}. Only the first n etas form the tested sequence (the
    extra one feeds the shifted epsilons). Returns (etas', epsilons, downs,
    ups) ready for compare_interleaved_colimits.
    """
    n = len(etas) - 1
    downs = [etas[i].then(twists[i]) for i in range(n + 1)]
    ups = [invert(twists[i]) for i in range(n)]
    epsilons = [ups[i].then(etas[i + 1]).then(twists[i + 1])
                for i in range(n)]
    return etas[:n], epsilons, downs, ups


def test_interleaved_colimits_agree(rng):
    for _ in range(8):
        a = rand_chq(rng)
        b = rand_chq(rng)
        m0 = rand_chq_map(rng, a, b)
        m1 = rand_chq_map(rng, b, a)
        raw = [m0, m1, identity(a), identity(a)]
        twists = [identity(m.dst) for m in raw]
        etas, epsilons, downs, ups = interleave_shifted(raw, twists)
        report = compare_interleaved_colimits(etas, epsilons, downs, ups)
        assert report["mutually-inverse"]
        assert report["stable-index"] <= 2


def test_interleaved_small_explicit():
    a = vectq_obj(1)
    b = vectq_obj(1)
    two = vectq_map(a, b, [[2]])
    half = vectq_map(b, a, [["1/2"]])
    etas = [two.then(half)]
    epsilons = [half.then(two)]
    downs = [two, two]
    ups = [half]
    report = compare_interleaved_colimits(etas, epsilons, downs, ups)
    assert report["mutually-inverse"]
    assert report["stable-index"] == 0


def test_compare_coproduct_pushout_finset():
    b = finset_obj(["b0", "b1"])
    a1 = finset_obj(["a"])
    c1 = finset_obj(["c", "c'"])
    a2 = finset_obj(["a2"])
    c2 = finset_obj(["d"])
    items = [
        (finset_map(a1, c1, [0]), finset_map(a1, b, [0])),
        (finset_map(a2, c2, [0]), finset_map(a2, b, [1])),
    ]
    report = compare_coproduct_pushout(b, items)
    assert report["mutually-inverse"]
    assert len(report["all-at-once"].labels) == len(
        report["leg-by-leg"].labels)


def test_compare_coproduct_pushout_chq(rng):
    for _ in range(5):
        b = rand_chq(rng)
        items = []
        for _ in range(rng.randint(0, 3)):
            a = rand_chq(rng, max_rank=2)
            c = rand_chq(rng, max_rank=2)
            items.append((rand_chq_map(rng, a, c), rand_chq_map(rng, a, b)))
        report = compare_coproduct_pushout(b, items)
        assert report["mutually-inverse"]
