import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cosegal import base, ratmat
from cosegal.base import (
    BACKENDS, basis_point, chq_hom_basis, chq_map, chq_obj, disk, empty,
    enumerate_maps, factorize, find_lift, finset_map, finset_obj,
    generating_cofibrations, has_rlp, homology, identity, invert,
    is_cofibration, is_fibration, is_isomorphism, is_trivial_fibration,
    is_weak_equivalence, left_unitor, make_map, right_unitor, solve_map,
    sphere, symmetry, tensor, tensor_mor, tensor_multi, tensor_then, unit,
    vectq_map, vectq_obj, zero_map,
)

from fixtures import (
    assert_exact, full_hom_constraint, rand_chq, rand_chq_map, ref_kron,
    ref_madd, reference_has_rlp,
)


def test_finset_tensor_is_label_concatenation():
    x = finset_obj(["a", "b"])
    y = finset_obj(["c"])
    assert tensor(x, y).labels == (("a", "c"), ("b", "c"))
    assert tensor(x, unit("finset")).labels == (("a", "I"), ("b", "I"))


def test_finset_rejects_duplicates():
    with pytest.raises(ValueError):
        finset_obj(["a", "a"])


@pytest.mark.parametrize("labels", [
    [()], [("a",), ("",)], [("a", "")], [("a", 1)], ["a", ("b", None)]],
    ids=["empty-label", "empty-atom", "empty-atom-in-pair", "int-atom",
         "none-atom"])
def test_finset_rejects_bad_labels(labels):
    with pytest.raises(ValueError, match="bad finset label"):
        finset_obj(labels)


def test_finset_tensor_refuses_colliding_labels():
    # ("a", "b") + ("c",) and ("a",) + ("b", "c") both join to a, b, c
    x = finset_obj([("a", "b"), ("a",)])
    y = finset_obj([("c",), ("b", "c")])
    with pytest.raises(ValueError, match="distinct"):
        tensor(x, y)


@pytest.mark.parametrize("build, error", [
    (lambda: chq_obj([], [[5]]), ValueError),
    (lambda: vectq_map(vectq_obj(2), vectq_obj(0), [[1, 2], [3, 4]]),
     ValueError),
    (lambda: chq_map(sphere(0), empty("chq"), [[7]]), ValueError),
    (lambda: vectq_map(vectq_obj(0), vectq_obj(0), [[0.5]]), TypeError),
    (lambda: vectq_map(vectq_obj(2), vectq_obj(2), [[1, 2], [3]]),
     ValueError),
    (lambda: vectq_obj(2.5), TypeError),
    (lambda: finset_map(finset_obj(["a"]), finset_obj(["b"]), [0.9]),
     TypeError),
    (lambda: chq_obj([1.9, 0.2], [[0, 0], [1, 0]]), TypeError),
], ids=["chq-diff-without-degrees", "vectq-rows-into-zero",
        "chq-rows-into-empty", "vectq-float-into-zero", "vectq-ragged",
        "vectq-fractional-dim", "finset-fractional-index",
        "chq-fractional-degrees"])
def test_constructors_reject_malformed_payloads(build, error):
    with pytest.raises(error):
        build()


def test_constructors_keep_empty_payloads():
    into_zero = vectq_map(vectq_obj(3), vectq_obj(0), []).matrix
    assert tuple(into_zero) == () and ratmat.shape(into_zero) == (0, 3)
    assert tuple(chq_map(empty("chq"), sphere(0), [[]]).matrix) == ((),)


def test_unit_is_one_shared_object_per_backend():
    for b in BACKENDS:
        assert unit(b) is unit(b)
    assert unit("finset") == finset_obj(["I"])
    assert unit("vectq") == vectq_obj(1)
    assert unit("chq") == chq_obj([0], [[0]])


def test_zero_map_is_the_initial_map_and_stays_in_one_backend():
    targets = {"finset": finset_obj(["a", "b"]), "vectq": vectq_obj(2),
               "chq": disk(1)}
    for b, x in targets.items():
        f = zero_map(empty(b), x)
        assert f.backend == b and f.src == empty(b) and f.dst == x
        # the one map out of 0: the identity of 0 and any composite out
        # of 0 equal it
        assert zero_map(empty(b), empty(b)) == identity(empty(b))
        assert f.then(identity(x)) == f
        assert make_map(empty(b), x, f.mapping if b == "finset"
                        else ratmat.zeros(x.size(), 0)) == f
    assert list(enumerate_maps(empty("finset"), targets["finset"])) == [
        zero_map(empty("finset"), targets["finset"])]
    assert base.chq_hom_basis(empty("chq"), disk(1)) == ()
    with pytest.raises(ValueError, match="across backends"):
        zero_map(empty("finset"), vectq_obj(2))
    with pytest.raises(ValueError, match="across backends"):
        zero_map(vectq_obj(0), empty("chq"))
    with pytest.raises(ValueError, match="nonempty"):
        zero_map(finset_obj(["a"]), finset_obj(["b"]))


def test_composition_is_diagrammatic():
    x = finset_obj(["a", "b"])
    y = finset_obj(["c", "d", "e"])
    f = finset_map(x, y, [2, 0])
    g = finset_map(y, x, [1, 1, 0])
    assert f.then(g).mapping == (0, 1)
    assert f.then(g).src == x and f.then(g).dst == x


def test_unitors_are_identity_matrices():
    for backend in ("vectq", "chq"):
        x = vectq_obj(3) if backend == "vectq" else disk(1)
        lu = left_unitor(x)
        ru = right_unitor(x)
        assert lu.src == x and lu.dst == x and base.is_identity(lu)
        assert ru.src == x and ru.dst == x and base.is_identity(ru)


def test_symmetry_involutive_all_backends(rng):
    cases = {
        "finset": (finset_obj(["a", "b"]), finset_obj(["u", "v", "w"])),
        "vectq": (vectq_obj(2), vectq_obj(3)),
        "chq": (rand_chq(rng), rand_chq(rng)),
    }
    for backend, (x, y) in cases.items():
        s = symmetry(x, y)
        t = symmetry(y, x)
        assert s.then(t) == identity(tensor(x, y))
        assert t.then(s) == identity(tensor(y, x))


def test_empty_tensors_need_an_explicit_backend():
    with pytest.raises(ValueError, match="explicit backend"):
        tensor_multi([])
    for b in BACKENDS:
        assert tensor_multi([], b) is unit(b)


def rand_backend_map(rng, backend, tag):
    """A random map between small random objects, empty ones included."""
    if backend == "finset":
        src = finset_obj(["%s%d" % (tag, i) for i in range(rng.randint(0, 2))])
        dst = finset_obj(["%s%d'" % (tag, i)
                          for i in range(rng.randint(1, 3))])
        return finset_map(src, dst, [rng.randrange(dst.size())
                                     for _ in range(src.size())])
    if backend == "vectq":
        src, dst = vectq_obj(rng.randint(0, 2)), vectq_obj(rng.randint(0, 2))
        return vectq_map(src, dst, [[rng.randint(-2, 2)
                                     for _ in range(src.size())]
                                    for _ in range(dst.size())])
    return rand_chq_map(rng, rand_chq(rng, lo=-1), rand_chq(rng, lo=-1))


@pytest.mark.parametrize("backend", BACKENDS)
def test_tensor_mor_is_the_left_fold_of_pairwise_tensors(rng, backend):
    # tensor_mor of several maps folds the payloads only and builds each
    # end once; the result must be the left-bracketed fold of pairwise
    # tensors
    for _ in range(30):
        mors = [rand_backend_map(rng, backend, "abc"[i])
                for i in range(rng.randint(1, 3))]
        fold = mors[0]
        for m in mors[1:]:
            fold = tensor_mor(fold, m)
        assert tensor_mor(*mors) == fold


def rand_map_out_of(rng, x):
    """A random map out of x into a small random object of its backend."""
    if x.backend == "finset":
        dst = finset_obj(["h%d" % i for i in range(rng.randint(1, 3))])
        return finset_map(x, dst, [rng.randrange(dst.size())
                                   for _ in range(x.size())])
    if x.backend == "vectq":
        dst = vectq_obj(rng.randint(0, 3))
        return vectq_map(x, dst, [[rng.randint(-2, 2) for _ in range(x.size())]
                                  for _ in range(dst.size())])
    return rand_chq_map(rng, x, rand_chq(rng, lo=-1))


def tensor_then_cases(rng, backend):
    """Two and three random factors, some with empty ends and, on chq,
    some in odd degrees, each with one map h out of the tensor of their
    targets; then factors whose ends are empty or odd on purpose."""
    for _ in range(25):
        mors = [rand_backend_map(rng, backend, "abc"[i])
                for i in range(rng.randint(2, 3))]
        yield mors, rand_map_out_of(rng, tensor_multi([m.dst for m in mors]))
    e = empty(backend)
    if backend == "chq":
        # d(e0) = e1 in degrees 1 and 0, and a sphere in degree -1: the
        # tensors' differentials carry Koszul signs
        x, y = disk(1), sphere(-1)
        odd = [chq_map(x, x, [[2, 0], [0, 2]]), identity(y)]
        yield odd, rand_map_out_of(rng, tensor(x, y))
        yield odd + [identity(x)], rand_map_out_of(rng, tensor(
            tensor(x, y), x))
        yield [identity(e), odd[0]], rand_map_out_of(rng, tensor(e, x))
        return
    x = finset_obj(["p", "q"]) if backend == "finset" else vectq_obj(2)
    yield [identity(e), identity(x)], rand_map_out_of(rng, tensor(e, x))
    yield ([identity(x), zero_map(e, x), identity(x)],
           rand_map_out_of(rng, tensor_multi([x, x, x])))


@pytest.mark.parametrize("backend", BACKENDS)
def test_tensor_then_is_the_composite_through_the_tensor(rng, backend):
    # tensor_then builds no tensor map, so its result must equal the
    # tensor, built, then h; also with the ends passed in, and with a
    # single factor
    for mors, h in tensor_then_cases(rng, backend):
        want = tensor_mor(*mors).then(h)
        got = tensor_then(mors, h)
        assert got == want
        src = tensor_multi([m.src for m in mors])
        assert tensor_then(mors, h, src=src, dst=h.src) == want
        assert tensor_then(mors[:1], identity(mors[0].dst)) == mors[0]
        if backend != "finset":
            assert_exact(got.matrix)
            assert got.backend != "chq" or got == chq_map(
                got.src, got.dst, got.matrix)


@pytest.mark.parametrize("backend", BACKENDS)
def test_tensor_then_refuses_a_map_out_of_another_object(backend):
    # h must start on the tensor of the targets, which is built and
    # compared when dst is not passed in, and compared when it is
    x = {"finset": finset_obj(["p", "q"]), "vectq": vectq_obj(2),
         "chq": disk(1)}[backend]
    other = {"finset": finset_obj(["p", "r"]), "vectq": vectq_obj(3),
             "chq": disk(2)}[backend]
    mors = [identity(x), identity(unit(backend))]
    with pytest.raises(ValueError, match="composition mismatch"):
        tensor_then(mors, identity(tensor(other, unit(backend))))
    with pytest.raises(ValueError, match="composition mismatch"):
        tensor_then(mors, identity(other), dst=tensor(x, unit(backend)))
    # an equal but distinct source is accepted, as by then
    h = identity(tensor(x, unit(backend)))
    assert tensor_then(mors, h) == tensor_mor(*mors).then(h)


def test_then_refuses_a_mismatched_end_of_equal_size():
    x = finset_obj(["a", "b"])
    f = identity(x)
    with pytest.raises(ValueError, match="composition mismatch"):
        f.then(identity(finset_obj(["a", "c"])))
    # an equal but distinct end is accepted
    assert f.then(identity(finset_obj(["a", "b"]))) == f
    g = identity(sphere(1))
    with pytest.raises(ValueError, match="composition mismatch"):
        g.then(identity(sphere(2)))
    assert g.then(identity(sphere(1))) == g


def koszul_reference(x, y):
    """d_x (x) 1 + s (x) d_y with s = diag((-1)^deg), built densely."""
    sign = ratmat.mat([[(-1) ** (d % 2) if i == j else 0
                        for j in range(len(x.degrees))]
                       for i, d in enumerate(x.degrees)])
    return ref_madd(ref_kron(x.diff, ratmat.eye(len(y.degrees))),
                    ref_kron(sign, y.diff))


def test_chq_tensor_differential_squares_to_zero(rng):
    for k in range(30):
        lo = 0 if k < 15 else -2
        x = rand_chq(rng, max_rank=3 + k % 2, lo=lo)
        y = rand_chq(rng, max_rank=3 + k % 2, lo=lo)
        d = tensor(x, y).diff
        assert_exact(d)
        if d:
            assert ratmat.is_zero(ratmat.matmul(d, d))
            assert tuple(d) == koszul_reference(x, y)
        # strict associativity on the nose
        z = rand_chq(rng, max_rank=2)
        assert tensor(tensor(x, y), z) == tensor(x, tensor(y, z))


@st.composite
def complexes(draw):
    """A complex of up to six generators in degrees -2 to 1: a sum of
    spheres and disks with drawn differentials, in a drawn basis order,
    changed by drawn row operations between generators of one degree.
    Draws the empty complex and the unit among others."""
    degrees, d = [], {}
    for deg, is_disk, c in draw(st.lists(st.tuples(
            st.integers(-1, 1), st.booleans(),
            st.fractions(-3, 3, max_denominator=3).filter(bool)),
            max_size=3)):
        if is_disk:
            d[(len(degrees) + 1, len(degrees))] = c
            degrees.append(deg)
        degrees.append(deg - is_disk)
    n = len(degrees)
    order = draw(st.permutations(range(n)))
    dense = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in d.items():
        dense[order[i]][order[j]] = c
    degrees = [degrees[order.index(k)] for k in range(n)]
    # P d P^-1 with P = 1 + c E_ij: add c row j to row i, then take c
    # column i from column j
    ops = st.tuples(st.integers(0, 5), st.integers(0, 5),
                    st.sampled_from((-2, -1, 1, 2)))
    for i, j, c in draw(st.lists(ops, max_size=4)) if n else ():
        i, j = i % n, j % n
        if i != j and degrees[i] == degrees[j]:
            dense[i] = [x + c * y for x, y in zip(dense[i], dense[j])]
            for row in dense:
                row[j] -= c * row[i]
    return chq_obj(degrees, dense)


def build_tensor_differential(x, y):
    """d_x (x) 1 + S (x) d_y as `base.tensor` built it through
    `ratmat.build`."""
    ny = len(y.degrees)
    entries = [(i * ny + j, k * ny + j, e)
               for i, k, e in ratmat.nonzeros(x.diff) for j in range(ny)]
    ynz = ratmat.nonzeros(y.diff)
    neg = [(j, k, -e) for j, k, e in ynz]
    entries += [(i * ny + j, i * ny + k, e)
                for i, d in enumerate(x.degrees)
                for j, k, e in (neg if d % 2 else ynz)]
    n = len(x.degrees) * ny
    return ratmat.build(n, n, entries)


@given(complexes(), complexes(), complexes())
@example(empty("chq"), unit("chq"), disk(-1))
@example(unit("chq"), disk(-1), empty("chq"))
@example(disk(0), sphere(-1), unit("chq"))
def test_chq_tensor_differential_is_the_koszul_sum(x, y, z):
    xy = tensor(x, y)
    assert xy.diff == build_tensor_differential(x, y)
    assert_exact(xy.diff)
    # the tensor is a complex: its differential squares to zero
    assert chq_obj(xy.degrees, xy.diff) == xy
    assert tensor(xy, z) == tensor(x, tensor(y, z))


def test_tensor_signs_stay_exact_in_negative_degrees():
    # the Koszul sign (-1) ** d is a float for negative d
    for x, y in [(disk(0), disk(0)), (sphere(-1), disk(1))]:
        d = tensor(x, y).diff
        assert_exact(d)
        assert ratmat.is_zero(ratmat.matmul(d, d))
        s = symmetry(x, y)
        assert_exact(s.matrix)
        assert s.then(symmetry(y, x)) == identity(tensor(x, y))


def test_chq_rejects_bad_differentials():
    with pytest.raises(ValueError):
        chq_obj([0, 0], [[0, 1], [0, 0]])  # entry off the degree line
    with pytest.raises(ValueError):
        chq_obj([2, 1, 0], [[0, 0, 0], [1, 0, 0], [0, 1, 0]])  # d*d != 0


def test_homology_of_spheres_and_disks():
    assert homology(sphere(2)) == {2: 1}
    assert homology(disk(3)) == {}
    assert homology(empty("chq")) == {}


def test_homology_ranks_each_degree_block_once(monkeypatch):
    # degrees 2 down to -1 with d(e0) = e1 and d(e3) = e4: H_1 is spanned
    # by e2 and H_-1 by e5. Four degrees have five blocks d_-1 .. d_3
    d = [[0] * 6 for _ in range(6)]
    d[1][0] = d[4][3] = 1
    x = chq_obj([2, 1, 1, 1, 0, -1], d)
    calls = []
    rank = ratmat.rank
    monkeypatch.setattr(ratmat, "rank", lambda m: calls.append(m) or rank(m))
    assert homology(x) == {1: 1, -1: 1}
    assert len(calls) == 5


def test_weak_equivalence_by_backend():
    f = finset_map(finset_obj(["a", "b"]), finset_obj(["x", "y"]), [1, 0])
    assert is_weak_equivalence(f)
    g = finset_map(finset_obj(["a", "b"]), finset_obj(["x"]), [0, 0])
    assert not is_weak_equivalence(g)
    h = vectq_map(vectq_obj(2), vectq_obj(2), [[1, 1], [0, 1]])
    assert is_weak_equivalence(h)
    # disk -> 0 is a quasi-iso but not an iso
    q = zero_map(disk(1), empty("chq"))
    assert is_weak_equivalence(q) and not is_isomorphism(q)
    # sphere -> 0 is not
    assert not is_weak_equivalence(zero_map(sphere(0), empty("chq")))


def test_invert_roundtrip(rng):
    f = finset_map(finset_obj(["a", "b", "c"]), finset_obj(["x", "y", "z"]),
                   [2, 0, 1])
    assert f.then(invert(f)) == identity(f.src)
    m = vectq_map(vectq_obj(2), vectq_obj(2), [[1, 2], [1, 3]])
    assert invert(m).then(m) == identity(m.dst)
    with pytest.raises(ValueError):
        invert(vectq_map(vectq_obj(2), vectq_obj(2), [[1, 0], [0, 0]]))


def test_factorize_all_backends(rng):
    cases = [
        finset_map(finset_obj(["a", "b"]), finset_obj(["x", "y", "z"]),
                   [1, 1]),
        finset_map(empty("finset"), finset_obj(["x"]), []),
        vectq_map(vectq_obj(2), vectq_obj(1), [[1, -1]]),
        vectq_map(vectq_obj(0), vectq_obj(2), [[], []]),
        chq_map(sphere(0), disk(1), [[0], [1]]),
        zero_map(disk(1), empty("chq")),
        zero_map(empty("chq"), sphere(1)),
    ]
    for _ in range(10):
        x = rand_chq(rng)
        y = rand_chq(rng)
        cases.append(rand_chq_map(rng, x, y))
    for f in cases:
        j, q = factorize(f)
        assert j.src == f.src and q.dst == f.dst and j.dst == q.src
        assert j.then(q) == f
        assert is_cofibration(j)
        assert is_trivial_fibration(q)


def test_generating_cofibrations_shapes():
    for backend in ("finset", "vectq"):
        gens = generating_cofibrations(backend)
        assert len(gens) == 2
        assert all(is_cofibration(g) for g in gens)
    gens = generating_cofibrations("chq", (0, 1))
    assert len(gens) == 3
    assert [g.dst.degrees[0] for g in gens] == [0, 1, 2]
    assert all(is_cofibration(g) for g in gens)


def test_rlp_detects_trivial_fibrations_finset():
    gens = generating_cofibrations("finset")
    surj = finset_map(finset_obj(["a", "b", "c"]), finset_obj(["x", "y"]),
                      [0, 1, 0])
    nonsurj = finset_map(finset_obj(["a"]), finset_obj(["x", "y"]), [0])
    assert all(has_rlp(i, surj) for i in gens)
    assert not all(has_rlp(i, nonsurj) for i in gens)


def test_rlp_detects_trivial_fibrations_vectq():
    gens = generating_cofibrations("vectq")
    surj = vectq_map(vectq_obj(2), vectq_obj(1), [[1, 0]])
    nonsurj = vectq_map(vectq_obj(1), vectq_obj(2), [[1], [0]])
    assert all(has_rlp(i, surj) for i in gens)
    assert not all(has_rlp(i, nonsurj) for i in gens)


def _rand_vectq_map(rng, src, dst):
    return vectq_map(src, dst, [[rng.randint(-1, 1) for _ in range(src.dim)]
                                for _ in range(dst.dim)])


def test_has_rlp_agrees_with_the_parametrized_reference(rng):
    """Random chq and vectq pairs, with empty objects at every corner
    (B = 0 among them), and the generating cofibrations against random
    maps: the rank test and the reference give the same verdict, and
    both verdicts occur."""
    pairs = []
    for _ in range(60):
        a, b, x, y = (rand_chq(rng, lo=-1, hi=1) for _ in range(4))
        pairs.append((rand_chq_map(rng, a, b), rand_chq_map(rng, x, y)))
    for _ in range(60):
        a, b, x, y = (vectq_obj(rng.randint(0, 2)) for _ in range(4))
        pairs.append((_rand_vectq_map(rng, a, b), _rand_vectq_map(rng, x, y)))
    for n in (0, 1):
        a, x, y = vectq_obj(n + 1), vectq_obj(2), vectq_obj(1)
        pairs.append((vectq_map(a, empty("vectq"), []),
                      _rand_vectq_map(rng, x, y)))
        a, x = rand_chq(rng, lo=-1, hi=1), rand_chq(rng, lo=-1, hi=1)
        pairs.append((zero_map(a, empty("chq")),
                      rand_chq_map(rng, x, rand_chq(rng, lo=-1, hi=1))))
    for _ in range(20):
        x, y = rand_chq(rng, lo=-1, hi=1), rand_chq(rng, lo=-1, hi=1)
        p = rand_chq_map(rng, x, y)
        pairs.extend((i, p) for i in generating_cofibrations("chq", (-1, 1)))
    verdicts = [has_rlp(i, p) for i, p in pairs]
    assert verdicts == [reference_has_rlp(i, p) for i, p in pairs]
    assert True in verdicts and False in verdicts


def test_find_lift_returns_witness():
    i = generating_cofibrations("finset")[1]  # {0} -> {0,1}
    p = finset_map(finset_obj(["a", "b"]), finset_obj(["x"]), [0, 0])
    f = finset_map(i.src, p.src, [1])
    g = finset_map(i.dst, p.dst, [0, 0])
    h = find_lift(i, p, f, g)
    assert h is not None
    assert i.then(h) == f and h.then(p) == g
    i2 = generating_cofibrations("chq", (0, 1))[1]  # S^0 -> D^1
    p2 = zero_map(disk(1), empty("chq"))
    f2 = chq_map(i2.src, p2.src, [[0], [1]])
    g2 = zero_map(i2.dst, p2.dst)
    h2 = find_lift(i2, p2, f2, g2)
    assert h2 is not None
    assert i2.then(h2) == f2 and h2.then(p2) == g2


def test_find_lift_refuses_a_square_that_does_not_commute():
    i = generating_cofibrations("finset")[1]  # {0} -> {0,1}
    p = identity(finset_obj(["x", "y"]))
    f = finset_map(i.src, p.src, [0])
    g = finset_map(i.dst, p.dst, [1, 1])
    with pytest.raises(ValueError, match="does not commute"):
        find_lift(i, p, f, g)


def _no_lift_squares():
    one, two = finset_obj(["0"]), finset_obj(["0", "1"])
    nothing, line = empty("vectq"), vectq_obj(1)
    return {
        # i meets the two points of A, which f keeps apart
        "finset-forced-conflict": (finset_map(two, one, [0, 0]),
                                   finset_map(two, one, [0, 0]),
                                   identity(two), identity(one)),
        # the point of B outside the image of i has no point of X over it
        "finset-no-candidate": (zero_map(empty("finset"), one),
                                zero_map(empty("finset"), one),
                                zero_map(empty("finset"), empty("finset")),
                                identity(one)),
        # no map Q -> 0 followed by 0 -> Q is the identity of Q
        "vectq-no-solution": (zero_map(nothing, line),
                              zero_map(nothing, line),
                              zero_map(nothing, nothing), identity(line)),
    }


@pytest.mark.parametrize("case", sorted(_no_lift_squares()))
def test_find_lift_finds_no_lift(case):
    i, p, f, g = _no_lift_squares()[case]
    assert i.then(g) == f.then(p)
    assert find_lift(i, p, f, g) is None


def test_find_lift_refuses_a_solution_that_fails_its_check(monkeypatch):
    # the square Q -> Q^2 against the identity of Q has the lift (1, 0); a
    # solver that answers zero is caught by the final check
    line = vectq_obj(1)
    i = vectq_map(line, vectq_obj(2), [[1], [0]])
    p = identity(line)
    f = identity(line)
    g = vectq_map(i.dst, line, [[1, 0]])
    assert find_lift(i, p, f, g) == g
    monkeypatch.setattr(ratmat, "solve_vec", lambda a, v: (
        (0,) * ratmat.shape(a)[1], ratmat.shape(a)[1]))
    assert find_lift(i, p, f, g) is None


def test_find_lift_reduces_its_system_once(monkeypatch):
    # the solution and the uniqueness of solve_map come from one rref
    calls = []
    rref = ratmat.rref
    monkeypatch.setattr(ratmat, "rref", lambda m: calls.append(m) or rref(m))
    line = vectq_obj(1)
    i = vectq_map(line, vectq_obj(2), [[1], [0]])
    g = vectq_map(i.dst, line, [[1, 0]])
    assert find_lift(i, identity(line), identity(line), g) == g
    assert len(calls) == 1
    calls.clear()
    i2 = generating_cofibrations("chq", (0, 1))[1]  # S^0 -> D^1
    p2 = zero_map(disk(1), empty("chq"))
    f2 = chq_map(i2.src, p2.src, [[0], [1]])
    assert find_lift(i2, p2, f2, zero_map(i2.dst, p2.dst)) is not None
    assert len(calls) == 1
    # a leg onto B pins the lift: one rref of its sum x (nb + nx) system
    calls.clear()
    i3 = factorize(zero_map(sphere(0), disk(1)))[1]  # onto D^1
    f3 = i3.then(chq_map(disk(1), disk(1), [[2, 0], [0, 2]]))
    p3 = zero_map(disk(1), empty("chq"))
    h = find_lift(i3, p3, f3, zero_map(i3.dst, p3.dst))
    assert h is not None and i3.then(h) == f3
    assert [ratmat.shape(m) for m in calls] == [(i3.src.size(), 2 + 2)]


def test_solve_map_indexes_the_hom_coordinates_once_per_equation(
        monkeypatch):
    # one index for h, src -> dst, and one per equation for the ends of
    # its map, read by its block and by its right-hand side; the
    # chain-map constraint reads the index of h
    indexed = []
    positions = base._hom_positions

    def counted(src, dst):
        indexed.append((src, dst))
        return positions(src, dst)

    monkeypatch.setattr(base, "_hom_positions", counted)
    i = generating_cofibrations("chq", (0, 1))[1]  # S^0 -> D^1
    p = zero_map(disk(1), empty("chq"))
    f = chq_map(i.src, p.src, [[0], [1]])
    h, _ = solve_map(i.dst, p.src, [(i, f)], [(p, zero_map(i.dst, p.dst))])
    assert i.then(h) == f
    assert indexed == [(i.dst, p.src), (i.src, p.src), (i.dst, p.dst)]
    indexed.clear()
    line = vectq_obj(1)
    i = vectq_map(line, vectq_obj(2), [[1], [0]])
    g = vectq_map(i.dst, line, [[1, 0]])
    assert solve_map(i.dst, line, [(i, identity(line))],
                     [(identity(line), g)]) == (g, True)
    assert indexed == [(i.dst, line), (line, line), (i.dst, line)]


def test_has_rlp_and_chq_hom_basis_index_each_hom_space_once(monkeypatch):
    indexed = []
    positions = base._hom_positions

    def counted(src, dst):
        indexed.append((src, dst))
        return positions(src, dst)

    monkeypatch.setattr(base, "_hom_positions", counted)
    # the chain maps B -> X, A -> X and B -> Y and the maps A -> Y that
    # the squares reach
    p = zero_map(disk(1), empty("chq"))
    for i in generating_cofibrations("chq", (0, 2)):
        indexed.clear()
        has_rlp(i, p)
        assert indexed == [(i.dst, p.src), (i.src, p.src), (i.dst, p.dst),
                           (i.src, p.dst)]
    indexed.clear()
    assert len(chq_hom_basis(disk(1), disk(1))) == 1
    assert indexed == [(disk(1), disk(1))]


def test_basis_point_picks_an_element_or_a_basis_vector():
    x = finset_obj(["a", "b", "c"])
    assert basis_point(x, 2) == finset_map(unit("finset"), x, [2])
    line = vectq_obj(3)
    assert basis_point(line, 1) == vectq_map(unit("vectq"), line,
                                             [[0], [1], [0]])
    # on D^1 the vector e1 is a degree-0 cycle and e0 lies in degree 1;
    # on D^0 the vector e0 lies in degree 0 and d(e0) = e1 is not zero
    assert basis_point(disk(1), 1) == chq_map(unit("chq"), disk(1),
                                              [[0], [1]])
    with pytest.raises(ValueError, match="degree diagonal"):
        basis_point(disk(1), 0)
    with pytest.raises(ValueError, match="commute"):
        basis_point(disk(0), 0)


def _rand_obj(rng, backend):
    if backend == "finset":
        return finset_obj(["p%d" % k for k in range(rng.randint(0, 3))])
    if backend == "vectq":
        return vectq_obj(rng.randint(0, 3))
    return rand_chq(rng, max_rank=4, lo=0, hi=1)


def _rand_map(rng, x, y):
    """A random map x -> y, or None on finset when there is none."""
    if x.backend == "finset":
        if x.size() and not y.size():
            return None
        return finset_map(x, y, [rng.randrange(y.size())
                                 for _ in range(x.size())])
    if x.backend == "vectq":
        return _rand_vectq_map(rng, x, y)
    return rand_chq_map(rng, x, y)


def _rand_equations(rng, src, dst):
    """Up to two equations on each side, most of them met by one random
    map h0: src -> dst when there is one."""
    h0 = _rand_map(rng, src, dst)
    pre, post = [], []
    for _ in range(rng.randint(0, 2)):
        i = _rand_map(rng, _rand_obj(rng, src.backend), src)
        f = i and (i.then(h0) if h0 and rng.random() < 0.8
                   else _rand_map(rng, i.src, dst))
        if f:
            pre.append((i, f))
    for _ in range(rng.randint(0, 2)):
        p = _rand_map(rng, dst, _rand_obj(rng, src.backend))
        g = p and (h0.then(p) if h0 and rng.random() < 0.8
                   else _rand_map(rng, src, p.dst))
        if g:
            post.append((p, g))
    return pre, post


def _dense(m):
    r, c = ratmat.shape(m)
    out = [[Fraction(0)] * c for _ in range(r)]
    for i, j, x in ratmat.nonzeros(m):
        out[i][j] = x
    return out


def _linear_system(src, dst, pre, post):
    """The equations on the entries of K: src -> dst, one row
    [coefficients of K[0][0], K[1][0], ..., right side] per entry."""
    ns, nd = src.size(), dst.size()

    def row(coeffs, rhs):
        out = [Fraction(0)] * (ns * nd + 1)
        for (r, c), x in coeffs:
            out[c * nd + r] += x
        out[-1] = rhs
        return out

    rows = []
    if src.backend == "chq":
        dd, ds = _dense(dst.diff), _dense(src.diff)
        for r in range(nd):
            for c in range(ns):
                if dst.degrees[r] != src.degrees[c]:
                    rows.append(row([((r, c), 1)], 0))
                rows.append(row([((k, c), dd[r][k]) for k in range(nd)]
                                + [((r, k), -ds[k][c]) for k in range(ns)],
                                0))
    for i, f in pre:
        mi, mf = _dense(i.matrix), _dense(f.matrix)
        rows += [row([((r, k), mi[k][c]) for k in range(ns)], mf[r][c])
                 for r in range(nd) for c in range(i.src.size())]
    for p, g in post:
        mp, mg = _dense(p.matrix), _dense(g.matrix)
        rows += [row([((k, c), mp[r][k]) for k in range(nd)], mg[r][c])
                 for r in range(p.dst.size()) for c in range(ns)]
    return rows


@pytest.mark.parametrize("backend", BACKENDS)
def test_solve_map_without_equations_is_unique_into_a_terminal_object(
        backend):
    # the one-point set is terminal in finset and the zero object in
    # vectq and chq; with no equations the one map into it is unique on
    # every backend, and a map into a larger object is not
    x = finset_obj(["a", "b", "c"]) if backend == "finset" else (
        vectq_obj(3) if backend == "vectq" else disk(1))
    point, nothing = unit(backend), empty(backend)
    terminal = point if backend == "finset" else nothing
    want = (finset_map(x, point, [0, 0, 0]) if backend == "finset"
            else zero_map(x, nothing))
    assert solve_map(x, terminal, [], []) == (want, True)
    two = (finset_obj(["p", "q"]) if backend == "finset"
           else vectq_obj(2) if backend == "vectq" else disk(1))
    assert solve_map(x, two, [], [])[1] is False
    # the empty object is initial: its one map out is unique too
    assert solve_map(nothing, two, [], [])[1] is True


@settings(max_examples=100)
@given(st.sampled_from(BACKENDS), st.integers(0, 2 ** 32 - 1))
def test_solve_map_meets_its_equations_and_knows_when_it_is_unique(
        backend, seed):
    rng = random.Random(seed)
    src, dst = _rand_obj(rng, backend), _rand_obj(rng, backend)
    pre, post = _rand_equations(rng, src, dst)

    def meets(h):
        return all(i.then(h) == f for i, f in pre) and all(
            h.then(p) == g for p, g in post)

    try:
        h, unique = solve_map(src, dst, pre, post)
    except ValueError:
        h = None
    if h is not None:
        assert (h.src, h.dst) == (src, dst) and meets(h)
    if backend == "finset":
        count = sum(map(meets, enumerate_maps(src, dst)))
        assert (h is None) == (count == 0)
        if h is not None:
            # the equations act point by point, so h is unique exactly
            # when it is the only map that meets them
            assert unique == (count == 1)
        return
    rows = _linear_system(src, dst, pre, post)
    rank = ratmat.rank(ratmat.mat([r[:-1] for r in rows]))
    assert (h is None) == (ratmat.rank(ratmat.mat(rows)) > rank)
    if h is not None:
        assert unique == (rank == src.size() * dst.size())


def _full_hom_basis(src, dst):
    """The maps src -> dst read off the kernel basis of the constraint on
    all vec coordinates, in its column order."""
    basis = ratmat.kernel_data(full_hom_constraint(src, dst))[0]
    return tuple(make_map(src, dst, ratmat.unvec(
        ratmat.vec(col), dst.size(), src.size()))
        for col in ratmat.split_columns(basis, [1] * ratmat.shape(basis)[1]))


def _full_solve(src, dst, pre, post):
    """The canonical solve of solve_map's system on all vec coordinates
    of h: K -> K i is kron(i^T, I) and K -> p K is kron(I, p), and the
    chain-map rows are `full_hom_constraint`; (h, unique), or None when
    the system has no solution."""
    ns, nd = src.size(), dst.size()
    rows, rhs = [], []
    for i, f in pre:
        rows.append(ratmat.kron(ratmat.transpose(i.matrix), ratmat.eye(nd)))
        rhs.extend(ratmat.vec(f.matrix))
    for p, g in post:
        rows.append(ratmat.kron(ratmat.eye(ns), p.matrix))
        rhs.extend(ratmat.vec(g.matrix))
    rows.append(full_hom_constraint(src, dst))
    sol, rank = ratmat.solve_vec(ratmat.vstack(rows), rhs)
    if sol is None:
        return None
    return make_map(src, dst, ratmat.unvec(sol, nd, ns)), rank == nd * ns


@settings(max_examples=100)
@given(st.sampled_from(["chq", "vectq"]), st.integers(0, 2 ** 32 - 1))
def test_hom_coordinates_give_the_full_coordinate_answers(backend, seed):
    """chq_hom_basis and solve_map work on hom coordinates, the degree
    diagonal on chq. Their answers equal those of the systems on all vec
    coordinates, whose off-degree coordinates have unit rows of their
    own: the same basis, and the same canonical (h, unique). The chq
    draws reach negative degrees and empty complexes. Half the draws
    start with a leg that spans src, where solve_map's shortcut on the
    pre equations alone pins h: with f consistent or not, and with post
    equations that the pinned h may miss."""
    rng = random.Random(seed)

    def obj():
        if backend == "chq":
            return rand_chq(rng, lo=-1, hi=1)
        return vectq_obj(rng.randint(0, 3))

    def rand_map(x, y):
        return make_map(x, y, ratmat.build(y.size(), x.size(), [
            (r, c, k * v) for b in _full_hom_basis(x, y)
            for k in [rng.randint(-2, 2)]
            for r, c, v in ratmat.nonzeros(b.matrix)]))

    src, dst = obj(), obj()
    assert base.chq_hom_basis(src, dst) == _full_hom_basis(src, dst)
    h0 = rand_map(src, dst)
    pre, post = [], []
    if rng.random() < 0.5:
        # the identity, or the trivial fibration onto src of a random map
        # into it, which is onto
        i = (identity(src) if rng.random() < 0.3
             else factorize(rand_map(obj(), src))[1])
        pre.append((i, i.then(h0) if rng.random() < 0.7
                    else rand_map(i.src, dst)))
    for _ in range(rng.randint(0, 2)):
        i = rand_map(obj(), src)
        pre.append((i, i.then(h0) if rng.random() < 0.7
                    else rand_map(i.src, dst)))
    for _ in range(rng.randint(0, 2)):
        p = rand_map(dst, obj())
        post.append((p, h0.then(p) if rng.random() < 0.7
                     else rand_map(src, p.dst)))
    want = _full_solve(src, dst, pre, post)
    if want is None:
        with pytest.raises(ValueError, match="no common solution"):
            solve_map(src, dst, pre, post)
    else:
        assert solve_map(src, dst, pre, post) == want


def _ends_cases():
    """Two distinct objects x and y per backend; on chq they have one
    size, and y sits one degree above x."""
    return {
        "finset": (finset_obj(["a"]), finset_obj(["b"])),
        "vectq": (vectq_obj(1), vectq_obj(2)),
        "chq": (sphere(0), sphere(1)),
    }


def _some_map(x, y):
    if x.backend == "finset":
        return finset_map(x, y, [0] * x.size())
    return zero_map(x, y)


@pytest.mark.parametrize("backend", sorted(_ends_cases()))
@pytest.mark.parametrize("side, end", [
    ("pre", "i.dst == src"), ("pre", "f.src == i.src"),
    ("pre", "f.dst == dst"), ("post", "p.src == dst"),
    ("post", "g.src == src"), ("post", "g.dst == p.dst")])
def test_solve_map_checks_the_ends_of_every_equation(backend, side, end):
    """An equation whose maps do not meet src and dst is refused by name,
    after a well-formed one. A chq leg into a complex of the right size
    but other degrees is refused too: on hom coordinates it would
    otherwise give a wrong map without an error."""
    x, y = _ends_cases()[backend]
    one = identity(x)
    bad = {
        "i.dst == src": (identity(y), _some_map(y, x)),
        "f.src == i.src": (one, _some_map(y, x)),
        "f.dst == dst": (one, _some_map(x, y)),
        "p.src == dst": (identity(y), _some_map(x, y)),
        "g.src == src": (one, _some_map(y, x)),
        "g.dst == p.dst": (one, _some_map(x, y)),
    }[end]
    eqs = [(one, one), bad]
    pre, post = (eqs, []) if side == "pre" else ([], eqs)
    assert solve_map(x, x, [(one, one)], [(one, one)]) == (one, True)
    with pytest.raises(ValueError,
                       match="^%s$" % re.escape(
                           "%s equation 1 needs %s" % (side, end))):
        solve_map(x, x, pre, post)


def test_enumerate_maps_counts():
    x = finset_obj(["a", "b"])
    y = finset_obj(["u", "v", "w"])
    assert len(list(enumerate_maps(x, y))) == 9
    assert len(list(enumerate_maps(empty("finset"), y))) == 1
    assert len(list(enumerate_maps(x, empty("finset")))) == 0


def test_fibration_predicate_chq():
    two = chq_obj([0, 0], [[0, 0], [0, 0]])
    p = chq_map(two, sphere(0), [[1, 1]])
    assert is_fibration(p)
    q = zero_map(sphere(0), sphere(1))
    assert not is_fibration(q)
    assert is_fibration(zero_map(empty("chq"), empty("chq")))
