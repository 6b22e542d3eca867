"""Finite colimits and limits in the three base categories.

Everything returns canonical representatives so that repeated runs on the
same input produce identical objects: coproducts keep the argument order,
finset quotients pick the least representative of each class, and vectq/chq
quotients take the canonical cokernel of `ratmat.relation_cokernel`, which
reads the relations as pairs of maps placed at their blocks' rows: a walk
of the graph of the relation columns, gathered from the maps' rows, when
none has three or more nonzeros, and otherwise the rref cokernel of the
built relation matrix, with the same free coordinates either way.

Every colimit is a presentation: keyed blocks modulo relations, each a
parallel pair into two named blocks. `present` builds it as one
`Colimit` record (the object, one cocone leg per block key, the
quotient of the blocks' coproduct, taken in one step), and `colimit`
and `wide_pushout` build through it. `copair` is the map out of a
coproduct, `tensor_copair` the map out of a tensor of two. The one
descent, `colimit_induced`, copairs one cone leg per block and
induces the map out of the quotient through a linear (or pointwise)
section, checking that it descends: an incompatible cone fails loudly
rather than returning garbage.

Two limits complete the set: `product`, the cartesian product on finset
and the direct sum on vectq/chq, with its projections, and `agreement`,
the subobject of y on which pairs of maps out of a (x) y and y (x) a
agree at every element or basis vector of a. `equalizer` is the
agreement of one pair with a = I.
"""

import itertools
from dataclasses import dataclass

from . import ratmat
from .ratmat import ONE
from .base import (
    MObject, MMorphism, chq_map, chq_obj, identity, is_identity, make_map,
    tensor, tensor_multi, vectq_map, vectq_obj, zero_map, _finset,
    _suffix_label,
)


# ---------------------------------------------------------------------------
# coproducts


def _coproduct_obj(objs, backend, index=None):
    """The coproduct object of objs, without its injections; finset labels
    carry each summand's entry of index (by default its position)."""
    if backend == "finset":
        if index is None:
            index = range(len(objs))
        return _finset(tuple([_suffix_label(l, i)
                              for i, o in zip(index, objs) for l in o.labels]))
    if backend == "vectq":
        return vectq_obj(sum(o.dim for o in objs))
    return chq_obj(tuple(d for o in objs for d in o.degrees),
                   ratmat.block_diag([o.diff for o in objs]))


def coproduct(objs, backend=None, index=None):
    """The coproduct with its injections.

    finset labels get collapsed to a single fresh atom per element (the old
    atoms joined with "," plus a summand counter) so nested coproducts and
    tensors cannot collide. index, when given, is the counter of each
    summand, so that leaving empty summands out keeps the labels of a
    coproduct that has them.
    """
    objs = list(objs)
    if backend is None:
        backend = objs[0].backend
    cop = _coproduct_obj(objs, backend, index)
    injs = []
    off = 0
    for o in objs:
        n = o.size()
        if backend == "finset":
            injs.append(MMorphism("finset", o, cop,
                                  mapping=tuple(range(off, off + n))))
        else:
            injs.append(make_map(o, cop, ratmat.build(
                cop.size(), n, [(off + j, j, ONE) for j in range(n)])))
        off += n
    return cop, injs


def copair(cop, maps, dst):
    """The map out of a coproduct assembled from maps out of the summands.

    `cop` must be the coproduct of the sources of `maps` in order; an
    empty summand may be left out of `maps`.
    """
    backend = cop.backend
    if backend == "finset":
        mapping = tuple(i for f in maps for i in f.mapping)
        if len(mapping) != len(cop.labels):
            raise ValueError("copair does not cover the coproduct")
        return MMorphism("finset", cop, dst, mapping=mapping)
    matrix = (ratmat.hstack([f.matrix for f in maps]) if maps
              else ratmat.zeros(dst.size(), 0))
    if backend == "chq":
        return chq_map(cop, dst, matrix)
    return vectq_map(cop, dst, matrix)


def tensor_copair(backend, left, right, targets, dst):
    """The map out of a tensor of two coproducts, one component per summand
    pair: the copair of the summand tensors, as the tensor distributes over
    coproducts.

    left/right are (coproduct, summand sources) pairs, so summand i fills
    the positions from lo_i, the total size of the summands before it.
    targets maps a pair (i, j) of summand indices to the component map out
    of sources_left[i] (x) sources_right[j]; a pair with an empty side may
    be left out, every other pair is required. Position
    (lo_i + a) * |R| + (ro_j + b) of tensor(L, R) is position
    a * |R_j| + b of targets[(i, j)], so the map only re-indexes the
    components' images.
    """
    lobj, lsrcs = left
    robj, rsrcs = right
    lsizes = [s.size() for s in lsrcs]
    rsizes = [s.size() for s in rsrcs]
    if sum(lsizes) != lobj.size() or sum(rsizes) != robj.size():
        raise AssertionError("tensor distribution failed to be invertible")
    filled = 0
    for (i, j), f in targets.items():
        if f.src.size() != lsizes[i] * rsizes[j]:
            raise ValueError("component %r does not match its summands"
                             % ((i, j),))
        filled += f.src.size() > 0
    if filled != sum(map(bool, lsizes)) * sum(map(bool, rsizes)):
        raise ValueError("a nonempty summand pair has no component")
    src = tensor(lobj, robj)
    if backend == "finset":
        out = []
        for i, nl in enumerate(lsizes):
            for a in range(nl):
                for j, nr in enumerate(rsizes):
                    if nr:
                        out.extend(
                            targets[(i, j)].mapping[a * nr:(a + 1) * nr])
        return MMorphism(backend, src, dst, mapping=tuple(out))
    lo = list(itertools.accumulate(lsizes, initial=0))
    ro = list(itertools.accumulate(rsizes, initial=0))
    entries = []
    for (i, j), f in targets.items():
        for r, p, x in ratmat.nonzeros(f.matrix):
            a, b = divmod(p, rsizes[j])
            entries.append((r, (lo[i] + a) * ro[-1] + ro[j] + b, x))
    return MMorphism(backend, src, dst,
                     matrix=ratmat.build(dst.size(), src.size(), entries))


# ---------------------------------------------------------------------------
# coequalizers and friends


@dataclass(frozen=True)
class Quotient:
    """A coequalizer (or any one-step quotient): obj and projection, plus a
    section payload used to induce maps out (finset: representative index
    per class; vectq/chq: a linear section matrix)."""

    obj: MObject
    proj: MMorphism
    section: object


def _dsu_classes(n, pairs):
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    reps = sorted({find(i) for i in range(n)})
    index = {r: k for k, r in enumerate(reps)}
    return tuple(index[find(i)] for i in range(n)), tuple(reps)


def quotient_finset(y, pairs):
    """The quotient of a finset object by generated identifications."""
    cls, reps = _dsu_classes(len(y.labels), pairs)
    obj = _finset(tuple([y.labels[r] for r in reps]))
    proj = MMorphism("finset", y, obj, mapping=cls)
    return Quotient(obj, proj, reps)


def quotient_linear(y, coker):
    """The quotient of a vectq/chq object by a relation space, given by
    its canonical cokernel coker = (free, P, S) on the coordinates of y,
    as `ratmat.relation_cokernel` returns it."""
    free, p, s = coker
    if y.backend == "vectq":
        obj = vectq_obj(len(free))
    else:
        # P d S, the differential induced on the free coordinates
        dq = ratmat.matmul(ratmat.matmul(p, y.diff), s)
        obj = chq_obj(tuple(y.degrees[f] for f in free), dq)
    return Quotient(obj, make_map(y, obj, p), s)


def coequalizer(f, g):
    """The coequalizer of a parallel pair f, g: X -> Y."""
    if f.src != g.src or f.dst != g.dst:
        raise ValueError("coequalizer needs a parallel pair")
    y = f.dst
    if f.backend == "finset":
        pairs = [(f.mapping[i], g.mapping[i])
                 for i in range(len(f.src.labels))]
        return quotient_finset(y, pairs)
    return quotient_linear(y, ratmat.relation_cokernel(
        y.size(), [(0, f.matrix, 0, g.matrix)]))


def quotient_induced(q, h):
    """The map out of a quotient determined by h on the covered object.

    Verifies that h actually descends; raises ValueError otherwise. A
    quotient of the empty object is empty, and its map is the initial map.
    """
    if not q.proj.src.size():
        return zero_map(q.obj, h.dst)
    if q.proj.backend == "finset":
        ind = MMorphism("finset", q.obj, h.dst,
                        mapping=tuple(h.mapping[r] for r in q.section))
    else:
        ind = make_map(q.obj, h.dst, ratmat.matmul(h.matrix, q.section))
    if q.proj.then(ind) != h:
        raise ValueError("map does not descend to the quotient")
    return ind


def surjection_quotient(e):
    """The quotient that a surjection e presents: e as its projection, with
    the first preimage of each element (finset) or a linear right inverse
    of e (vectq/chq) as its section."""
    if e.backend == "finset":
        first = {}
        for i, t in enumerate(e.mapping):
            first.setdefault(t, i)
        section = tuple(first[t] for t in range(len(e.dst.labels)))
    else:
        section = ratmat.solve_matrix(e.matrix,
                                       ratmat.eye(e.dst.size()))[0]
    return Quotient(e.dst, e, section)


# ---------------------------------------------------------------------------
# presented objects: keyed blocks modulo relations


@dataclass(frozen=True)
class Colimit:
    """A presented object: obj, a cocone with one leg per block key in
    block order, and q, the quotient of the blocks' coproduct by the
    relations (None when obj is taken on the nose)."""

    obj: MObject
    cocone: dict
    q: Quotient


def present(blocks, relations, backend):
    """The object presented by keyed blocks [(key, object)] modulo
    relations, as a Colimit.

    A relation ((key1, f1), (key2, f2)) is a parallel pair into two named
    blocks, f1 into block key1 and f2 into block key2, and identifies f1
    with f2. The blocks' coproduct is quotiented by all relations in one
    step, and the cocone leg of a block is the projection restricted to
    the block's positions. On vectq/chq each relation goes to
    `ratmat.relation_cokernel` as it is, (start of block key1, f1's
    matrix, start of block key2, f2's matrix), and no relation matrix is
    built unless the rref cokernel needs it. Raises ValueError on a
    relation that is not parallel or whose side does not end on the block
    it names.
    """
    objs = dict(blocks)
    starts, off = {}, 0
    for key, obj in blocks:
        starts[key] = off
        off += obj.size()
    for (k1, f1), (k2, f2) in relations:
        for f, key in ((f1, k1), (f2, k2)):
            if f.dst is not objs[key] and f.dst != objs[key]:
                raise ValueError("relation side does not end on block %r"
                                 % (key,))
        if f1.src is not f2.src and f1.src != f2.src:
            raise ValueError("relation on blocks %r, %r is not a parallel "
                             "pair" % (k1, k2))
    cop = _coproduct_obj([obj for _, obj in blocks], backend)
    if backend == "finset":
        q = quotient_finset(cop, [
            (starts[k1] + a, starts[k2] + b)
            for (k1, f1), (k2, f2) in relations
            for a, b in zip(f1.mapping, f2.mapping)])
        cocone = {key: MMorphism(backend, obj, q.obj, mapping=q.proj.mapping[
            starts[key]:starts[key] + obj.size()]) for key, obj in blocks}
        return Colimit(q.obj, cocone, q)
    # one column range per relation: f1 at block key1's rows minus f2 at
    # block key2's
    q = quotient_linear(cop, ratmat.relation_cokernel(cop.size(), [
        (starts[k1], f1.matrix, starts[k2], f2.matrix)
        for (k1, f1), (k2, f2) in relations]))
    legs = ratmat.split_columns(q.proj.matrix,
                                [obj.size() for _, obj in blocks])
    cocone = {key: MMorphism(backend, obj, q.obj, matrix=leg)
              for (key, obj), leg in zip(blocks, legs)}
    return Colimit(q.obj, cocone, q)


def colimit_induced(col, cone):
    """The universal map out of a colimit; cone is {key: map to Z}.

    A presented colimit descends the copair of the cone through its
    quotient, which checks that the cone is compatible, and may leave out
    the legs out of empty blocks; one taken on the nose checks every leg.
    Raises ValueError on an incompatible cone.
    """
    keys = list(col.cocone)
    if col.q is not None:
        return quotient_induced(col.q, copair(
            col.q.proj.src, [cone[k] for k in keys if k in cone],
            next(iter(cone.values())).dst))
    ind = next(cone[k] for k in keys if is_identity(col.cocone[k]))
    for k in keys:
        if col.cocone[k].then(ind) != cone[k]:
            raise ValueError("cone is not compatible at node %r" % (k,))
    return ind


# ---------------------------------------------------------------------------
# wide pushouts


@dataclass(frozen=True)
class WidePushout:
    obj: MObject
    maps: tuple        # one leg from each target D_i
    through: MMorphism  # the common composite from the base
    _col: Colimit


def wide_pushout(base, legs):
    """The wide pushout of a family of maps out of one object.

    Zero legs return the base itself; one leg returns its target. Both come
    with the same interface as the general case.
    """
    legs = list(legs)
    for leg in legs:
        if leg.src != base:
            raise ValueError("wide pushout legs must share their source")
    if not legs:
        return WidePushout(base, (), identity(base), None)
    if len(legs) == 1:
        return WidePushout(legs[0].dst, (identity(legs[0].dst),), legs[0],
                           None)

    col = present(list(enumerate(leg.dst for leg in legs)),
                  [((0, legs[0]), (i, leg)) for i, leg in enumerate(legs)
                   if i], base.backend)
    maps = tuple(col.cocone.values())
    # out of an empty base the common composite is the initial map
    through = (legs[0].then(maps[0]) if base.size()
               else zero_map(base, col.obj))
    return WidePushout(col.obj, maps, through, col)


def wide_pushout_induced(wp, cone, through=None):
    """The universal map from a wide pushout to a cone.

    `cone` lists one map per leg target; for the zero-leg case pass the
    map out of the base as `through`.
    """
    cone = list(cone)
    if not cone:
        if through is None:
            raise ValueError("empty wide pushout needs the base cone map")
        return through
    if len(cone) == 1:
        return cone[0]
    return colimit_induced(wp._col, dict(enumerate(cone)))


# ---------------------------------------------------------------------------
# general finite diagrams


def _identity_connected(keys, edges):
    if len(keys) <= 1:
        return True
    keyset = set(keys)
    adj = {k: set() for k in keys}
    for a, b, m in edges:
        if a in keyset and b in keyset:
            if not is_identity(m):
                return False
            adj[a].add(b)
            adj[b].add(a)
    seen = {keys[0]}
    stack = [keys[0]]
    while stack:
        k = stack.pop()
        for nxt in adj[k]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(keys)


def colimit(nodes, edges, source_key=None):
    """The colimit of a finite diagram.

    nodes: {key: MObject}; edges: [(src_key, dst_key, MMorphism)].

    When `source_key` names a node with no incoming edges whose outgoing
    edges are all one common map, and every other node carries one common
    value with identity edges connecting them all, the colimit is taken to
    be that common value on the nose (cocone: the common map at the source,
    identities elsewhere). This keeps strict inputs strict; the general
    presentation is used otherwise.
    """
    if not nodes:
        raise ValueError("a colimit needs at least one node")
    keys = sorted(nodes)
    for a, b, m in edges:
        if m.src != nodes.get(a) or m.dst != nodes.get(b):
            raise ValueError("edge %r -> %r does not match its nodes" % (a, b))
    if source_key is not None and source_key in nodes:
        rest = [k for k in keys if k != source_key]
        out_maps = [m for a, b, m in edges if a == source_key]
        rest_vals = {nodes[k] for k in rest}
        rest_edges = [(a, b, m) for a, b, m in edges
                      if a != source_key and b != source_key]
        if (rest and len(rest_vals) == 1
                and out_maps and all(m == out_maps[0] for m in out_maps)
                and all(b != source_key for _, b, _ in edges)
                and _identity_connected(rest, rest_edges)):
            w = nodes[rest[0]]
            return Colimit(w, {k: out_maps[0] if k == source_key
                               else identity(w) for k in keys}, None)
    return present([(k, nodes[k]) for k in keys],
                   [((a, identity(nodes[a])), (b, m)) for a, b, m in edges],
                   nodes[keys[0]].backend)


# ---------------------------------------------------------------------------
# the two limits the package needs: products and agreement subobjects


def product(objs, backend):
    """The product of objs with its projections, one per factor.

    finset: the tensor (cartesian product), whose elements run in the
    tensor order, the first factor most significant. vectq/chq: the
    direct sum, whose projections are the transposed injections. No
    factors give the terminal object: one point on finset, 0 otherwise.
    """
    objs = list(objs)
    if backend == "finset":
        prod = tensor_multi(objs, backend)
        points = list(itertools.product(*[range(o.size()) for o in objs]))
        return prod, [MMorphism(backend, prod, o, mapping=tuple(
            p[k] for p in points)) for k, o in enumerate(objs)]
    prod, injs = coproduct(objs, backend)
    return prod, [MMorphism(backend, prod, o,
                            matrix=ratmat.transpose(inj.matrix))
                  for o, inj in zip(objs, injs)]


def kernel_subobject(x, eqs):
    """The subobject of a vectq/chq object on which the equations vanish,
    with its inclusion; eqs has one column per coordinate of x. The dual
    of quotient_linear. Raises ValueError when on chq the kernel is not a
    subcomplex."""
    basis, free = ratmat.kernel_data(eqs)
    if x.backend == "vectq":
        obj = vectq_obj(len(free))
    else:
        dsub = ratmat.solve_matrix(basis, ratmat.matmul(x.diff, basis))[0]
        if dsub is None:
            raise ValueError("the kernel is not a subcomplex")
        obj = chq_obj(tuple(x.degrees[i] for i in free), dsub)
    return obj, make_map(obj, x, basis)


def agreement(y, pairs):
    """The subobject of y on which each pair agrees, as (object,
    inclusion).

    A pair is f: a (x) y -> z and g: y (x) a -> z, and it agrees on the
    points x of y with f(v (x) x) == g(x (x) v) for every element or
    basis vector v of a. finset keeps those elements of y; vectq/chq take
    the kernel of one equation per pair, v and coordinate of z, which
    `kernel_subobject` refuses on chq when it is not a subcomplex. The
    equalizer is the case a = I.
    """
    ny = y.size()
    sized = []
    for f, g in pairs:
        na = f.src.size() // ny if ny else 0
        if f.dst != g.dst or not g.src.size() == f.src.size() == na * ny:
            raise ValueError("a pair does not leave a (x) y and y (x) a "
                             "for one target")
        sized.append((f, g, na))
    if y.backend == "finset":
        keep = [x for x in range(ny) if all(
            f.mapping[v * ny + x] == g.mapping[x * na + v]
            for f, g, na in sized for v in range(na))]
        obj = _finset(tuple([y.labels[x] for x in keep]))
        return obj, MMorphism("finset", obj, y, mapping=tuple(keep))
    # the equation of (pair, v, coordinate of z) is row index[...]; only
    # equations with a nonzero term get one
    index, entries = {}, []
    for n, (f, g, na) in enumerate(sized):
        for r, c, x in ratmat.nonzeros(f.matrix):
            v, j = divmod(c, ny)
            entries.append((index.setdefault((n, v, r), len(index)), j, x))
        for r, c, x in ratmat.nonzeros(g.matrix):
            j, v = divmod(c, na)
            entries.append((index.setdefault((n, v, r), len(index)), j, -x))
    return kernel_subobject(y, ratmat.build(len(index), ny, entries))


def equalizer(f, g):
    """The equalizer of f, g: X -> Y as (object, inclusion)."""
    if f.src != g.src or f.dst != g.dst:
        raise ValueError("equalizer needs a parallel pair")
    return agreement(f.src, [(f, g)])
