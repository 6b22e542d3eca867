"""Free constructions on chain diagrams and the unit-forcing machinery.

The central objects here:

* A bare chain diagram (values plus structure maps against deletions) is
  a `Precategory` with empty laxity and no units; `kobject_of` forgets
  down to one, and the left adjoint `gamma` freely adds laxity back.
* `point` freely adds unit points: the value at a chain becomes a sum
  over decompositions into carrier parts and unit parts.
* Every gadget of `psi` and upsilon is point(gamma(k)) for
  the bare diagram k of an arrow U -> V pushed over one chain z0: one
  copy of V per deletion onto z0, glued along U. Upsilon, which
  represents maps m -> H(z0), is the gadget of the initial arrow 0 -> m.
  A `_Gadget` record holds k and the gadget, one keyed sum over k by
  distributivity (no gamma(k) is built), with the transpose into a
  pointed target and the inclusion of a chain block.
* gamma, point and the gadget are keyed sums with keys of one form,
  (cuts, labels): a subdivision of the chain with each part a carrier
  or a unit, made by one rule (`_keyed`). No two adjacent parts carry a
  label that the build merges: gamma's keys are all carriers, point's
  alternate, and the gadget's have no two adjacent units. One builder
  makes the values, structure maps and laxity of all three.
* Every map out of a free construction is a transpose (`_free_transpose`):
  gamma, point and the gadget are left adjoints, so it is fixed by where
  it sends the chain blocks. A map out of the bare diagram of an arrow
  is fixed by the square it classifies (`_arrow_transpose`).
* `unitalize` forces the unit laws on a pointed precategory by one
  quotient round, which `check_unital` confirms. It builds no gadget;
  the result is the colimit that glues one upsilon gadget per violated
  constraint.
* Each free construction is built once with its sums (`_Sum`), and every
  map into or out of it (the chain blocks and the transposes) reads its
  blocks from them. The laxity out of the tensor of two sums is gathered
  from components (`colim.tensor_copair`).
* The free builders work on their support: a summand key is live when
  each of its carrier parts has a nonempty value. A free value sums its
  live summands only (finset labels keep each key's position), and one
  without live keys is `base.empty`. A map out of an empty object is
  never built: a precategory, morphism, relation or cone leaves it out,
  and nothing tensors or composes one.
* The builders call `base`, `colim` and `shapes` directly and keep no
  table of objects. The chain combinatorics (`_keyed`, the keys of a
  chain with their parts, and `_targets`, the key each laxity pair lands
  in) depend on chains only, so they are memoized for the process and
  hold tuples; the live keys are read off each input's support.
* `realize` collapses each endpoint component to its colimit and reads
  the induced composition off one `base.solve_map` call per triple whose
  three pairs have a hom, one equation per stored laxity pair. Its
  stability flags, and the xis of a `unitalize` round, are diagnostics
  no step reads: each is computed on its first read.
* `psi` packages an arrow of the backend into a free unital precategory
  concentrated over one chain; it is the engine behind the lifting-set
  calculus.
* `pushforward` / `pullback` move precategories along a map of letter
  sets.

Everything is exact. Each colimit is a finite presentation, one
`colim.Colimit` built by `colim.present` from keyed blocks and relations,
each relation a parallel pair into two named blocks. Precategories are
glued by one quotient engine, `_quotient`: per slot in chain order, one
presentation of the value modulo the relations there, closed under the
structure maps and the laxity. `unitalize` quotients its input by its
violated unit constraints; `precat_colimit` and `pushforward` quotient
gamma of a bare colimit by their laxity relations (`_gamma_quotient`).
"""

import functools
import itertools
from dataclasses import InitVar, dataclass
from types import MappingProxyType

from . import shapes
from .base import (
    NoSolution, empty, identity, is_isomorphism, is_surjective, left_unitor,
    solve_map, tensor, tensor_mor, tensor_multi, tensor_then, unit,
    zero_map,
)
from .colim import (
    coequalizer, colimit, colimit_induced, copair, coproduct, present,
    quotient_induced, tensor_copair, wide_pushout, wide_pushout_induced,
)
from .precat import (
    PrecatMorphism, StrictCategory, check_unital, expected_laxity_keys,
    identity_morphism, make_precategory, spread,
)


# ---------------------------------------------------------------------------
# the chain combinatorics of the free constructions


@dataclass(frozen=True)
class _Keyed:
    """The summand keys of a free value at one chain, with the position of
    each key, the parts its cut tuple splits the chain into and the parts
    its labels make carriers."""

    keys: tuple
    pos: MappingProxyType
    parts: tuple
    carriers: tuple


# the labels each build kind merges where two parts of that label meet;
# the gadget is point(gamma(k)), and k has no laxity to merge carriers
_MERGES = {"gamma": "", "point": "fu", "gadget": "u"}


@functools.cache
def _keyed(z, kind):
    """The summand keys of the free value at z in the build kind, with
    positions, parts and carrier parts. A key (cuts, labels) is a
    subdivision of z with each part a carrier "f" or a unit "u" of equal
    endpoints, and no two adjacent parts carry a label the kind merges
    (`_MERGES`; gamma has no unit parts): gamma's keys are the
    subdivisions, point's alternate, and the gadget's are point's with
    each carrier part subdivided by gamma's. In order: the chain itself,
    then `shapes.subdivisions`, labelings lexicographic. It depends on
    the chain only, so it is derived once per process and chain; no
    caller can change an entry."""
    merges = _MERGES[kind]
    keys, parts = [], []
    for cuts, qs in [((), (z,)), *shapes.subdivisions(z)]:
        choices = ["fu" if merges and q[0] == q[-1] else "f" for q in qs]
        for labels in itertools.product(*choices):
            if not any(a == b and a in merges
                       for a, b in zip(labels, labels[1:])):
                keys.append((cuts, labels))
                parts.append(qs)
    return _Keyed(
        tuple(keys), MappingProxyType({key: i for i, key in enumerate(keys)}),
        tuple(parts), tuple(tuple(q for q, l in zip(qs, labels) if l == "f")
                            for qs, (_, labels) in zip(parts, keys)))


@functools.cache
def _targets(s, t, kind):
    """The laxity at (s, t) as (position, merged) pairs, one per key i of
    s and key j of t, at entry i * len(keys of t) + j. Key i of s beside
    key j of t is the key of concat(s, t) that also cuts at the junction.
    When the labels at the junction agree and the kind merges that label
    (`_MERGES`), the two junction parts merge instead, and the target key
    drops that cut. Memoized per process like `_keyed`."""
    pos = _keyed(shapes.concat(s, t), kind).pos
    shift = shapes.degree(s)
    out = []
    for cuts1, labels1 in _keyed(s, kind).keys:
        for cuts2, labels2 in _keyed(t, kind).keys:
            shifted = tuple(c + shift for c in cuts2)
            merged = labels1[-1] == labels2[0] and labels2[0] in _MERGES[kind]
            if merged:
                key = (cuts1 + shifted, labels1 + labels2[1:])
            else:
                key = (cuts1 + (shift,) + shifted, labels1 + labels2)
            out.append((pos[key], merged))
    return tuple(out)


# ---------------------------------------------------------------------------
# sums with a literal single-summand convention


def _sum_objects(backend, items, index=None):
    """Coproduct whose one-summand case is the summand itself.

    Keeps degree-1 slots of the free constructions literally equal to
    their inputs instead of relabeled copies. index, when given, is the
    position of each item among the summands of a sum whose other
    summands are empty and left out; finset labels carry it, so the sum
    is the coproduct of all summands.
    """
    items = list(items)
    if index is None and len(items) == 1:
        return items[0], [identity(items[0])]
    obj, injs = coproduct(items, backend, index)
    return obj, list(injs)


def _sum_map(sm, dst, leg):
    """The map out of the free value sm (a `_Sum` with live summands) into
    dst that is leg(key, parts) on each live summand; the others are empty
    and left out of the copair. A one-summand sum is its summand, so its
    map is the leg."""
    keyed = sm.keyed
    if len(keyed.keys) == 1:
        return leg(keyed.keys[0], keyed.parts[0])
    return copair(sm.obj, [leg(keyed.keys[i], keyed.parts[i])
                           for i in sm.live], dst)


def _into(factors, sm, at):
    """The tensor of factors (a single factor as it is), into summand at of
    the sum sm, then that summand's injection. A linear map may kill a
    nonempty source: when the summand is empty the leg is the zero map,
    and no empty factor is tensored."""
    inj = sm.injs.get(at)
    if inj is None:
        return zero_map(tensor_multi([f.src for f in factors]), sm.obj)
    # the summand is the tensor of the factors' targets
    return tensor_then(factors, inj, dst=inj.src)


def _chain_block(sm, leg):
    """leg, a map into the input's value at the chain of the sum sm, into
    the build's one-part carrier summand there (`_into`)."""
    return _into([leg], sm, sm.keyed.pos[_WHOLE])


@dataclass
class _Sum:
    """One free value as a sum over its live keys: the sum object, the
    live key positions, the source of each live summand in that order,
    the injection of each by key position, and the keys of its chain
    (`_keyed`). A key is live when each of its carrier parts has a
    nonempty value; every other summand is empty and left out, and
    without live keys the sum is `base.empty`."""

    obj: object
    live: tuple
    srcs: list
    injs: dict
    keyed: _Keyed


# ---------------------------------------------------------------------------
# gamma and point: free laxity and free unit points, one keyed-sum builder


# the key of the one-part summand: the chain itself, one carrier part
_WHOLE = ((), ("f",))


def gamma(k):
    """The free precategory on a bare chain diagram.

    Values collect the diagram's value together with one tensor block per
    subdivision; laxity maps are the block injections; structure maps
    reinsert the deleted letter into the one part that absorbs it. The
    degree-1 slots are the input's objects on the nose.
    """
    return _free_build(k, "gamma")[0]


def point(pc):
    """Freely adjoin unit points to a precategory.

    The value at a chain is the sum over decompositions into carrier
    parts and equal-endpoint unit parts with strictly alternating labels;
    the carrier embeds as the one-part decomposition, diagonal values
    additionally gain a unit summand. Degree-1 slots with distinct
    endpoints are untouched on the nose.
    """
    return _point_build(pc)[0]


def _point_build(pc):
    """point(pc) together with its sums: `_free_build` of kind point."""
    if pc.is_pointed():
        raise ValueError("point expects an unpointed precategory")
    return _free_build(pc, "point")


def _free_build(pc, kind):
    """The free build of the kind on pc, together with its sums, {chain:
    _Sum}: gamma(pc), point(pc), or for the kind "gadget" point(gamma(pc))
    of a bare diagram pc in one piece. Maps out of or into the build read
    their blocks from these instead of rebuilding them.

    The value at z sums, over the live keys of z (`_keyed`; those whose
    carrier parts all have nonempty values in pc), the tensor of the key's
    parts: pc's value on a carrier part, the unit on a unit part; a value
    without live keys is `base.empty`. Structure maps reinsert the deleted
    letter into the one part that absorbs it. The laxity puts key i of s
    beside key j of t, at the laxity keys of pc's chains, which may be a
    partial chain set; two junction parts of one label that the kind
    merges (`_targets`) merge through pc's laxity when both are carriers
    and through the unitor when both are units. Point and the gadget are
    pointed by their one-part unit summands. A structure map or laxity out
    of an empty value is left out.
    """
    backend = pc.backend
    values = pc.values
    u = unit(backend)
    support = {z for z in pc.chains if values[z].size()}
    sums = {}
    for z in pc.chains:
        keyed = _keyed(z, kind)
        at = tuple(i for i, qs in enumerate(keyed.carriers)
                   if support.issuperset(qs))
        if not at:
            sums[z] = _Sum(empty(backend), at, [], {}, keyed)
            continue
        srcs = [tensor_multi(
            [values[q] if l == "f" else u
             for q, l in zip(keyed.parts[i], keyed.keys[i][1])], backend)
            for i in at]
        obj, injs = _sum_objects(
            backend, srcs, None if len(keyed.keys) == 1 else at)
        sums[z] = _Sum(obj, at, srcs, dict(zip(at, injs)), keyed)

    def reinserted(z, p, cuts, labels):
        # summand (cuts, labels) of z with letter p deleted, into z
        big = sums[z]
        if not cuts:
            # one part, the whole chain: the key does not change
            leg = pc.gen_map(z, p) if labels[0] == "f" else identity(u)
            return _into([leg], big, big.keyed.pos[(cuts, labels)])
        big_cuts, j, rel = shapes.reinsert(z, cuts, p)
        at = big.keyed.pos[(big_cuts, labels)]
        parts = big.keyed.parts[at]
        factors = [identity(values[q] if l == "f" else u)
                   for q, l in zip(parts, labels)]
        if labels[j] == "f":
            factors[j] = pc.gen_map(parts[j], rel)
        return _into(factors, big, at)

    maps = {(z, p): _sum_map(sums[shapes.delete(z, p)], sums[z].obj,
                             lambda key, _: reinserted(z, p, *key))
            for z in pc.chains for p in range(1, len(z) - 1)
            if sums[shapes.delete(z, p)].live}
    unitor = left_unitor(u) if kind != "gamma" else None
    laxity = {}
    for s, t in expected_laxity_keys(pc.chains, pc.truncation):
        left, right = sums[s], sums[t]
        if not (left.live and right.live):
            continue
        st = sums[shapes.concat(s, t)]
        # the targets of key i of s run over the keys j of t
        pairs, width = _targets(s, t, kind), len(right.keyed.keys)
        targets = {}
        for a, i in enumerate(left.live):
            for b, j in enumerate(right.live):
                at, merged = pairs[i * width + j]
                if not merged:
                    targets[(a, b)] = st.injs[at]
                    continue
                # the two junction parts merge: through the laxity when
                # both are carrier parts, through the unitor when both are
                # units
                labels1, parts1 = left.keyed.keys[i][1], left.keyed.parts[i]
                labels2, parts2 = right.keyed.keys[j][1], right.keyed.parts[j]
                factors = [identity(values[q] if l == "f" else u)
                           for q, l in zip(parts1[:-1] + parts2[1:],
                                           labels1[:-1] + labels2[1:])]
                factors.insert(len(parts1) - 1, pc.lax(parts1[-1], parts2[0])
                               if labels1[-1] == "f" else unitor)
                targets[(a, b)] = _into(factors, st, at)
        laxity[(s, t)] = tensor_copair(
            backend, (left.obj, left.srcs), (right.obj, right.srcs),
            targets, st.obj)
    units = None
    if kind != "gamma":
        units = {a: sums[(a, a)].injs[sums[(a, a)].keyed.pos[((), ("u",))]]
                 for a in pc.letters}
    out = make_precategory(backend, pc.letters, pc.truncation,
                           {z: sm.obj for z, sm in sums.items()}, maps,
                           laxity, units=units)
    return out, sums


def gamma_map(phi):
    """The action of gamma on a morphism of bare chain diagrams: the
    transpose of phi followed by the chain block of gamma(phi.dst)."""
    dst, sums = _free_build(phi.dst, "gamma")
    return _free_transpose(_free_build(phi.src, "gamma"), dst,
                           lambda z: _chain_block(sums[z], phi.at(z)))


def point_map(alpha):
    """The action of point on a morphism of unpointed precategories: the
    transpose of alpha followed by the carrier of point(alpha.dst)."""
    dst, sums = _point_build(alpha.dst)
    return _free_transpose(_point_build(alpha.src), dst,
                           lambda z: _chain_block(sums[z], alpha.at(z)))


def kobject_of(pc):
    """Forget the laxity (and units): the underlying bare chain diagram."""
    return make_precategory(pc.backend, pc.letters, pc.truncation,
                            pc.values, pc.maps, {})


def gamma_unit(k):
    """k -> forget(gamma(k)): the inclusion of the chain block."""
    g, sums = _free_build(k, "gamma")
    comps = {z: _chain_block(sums[z], identity(k.value(z)))
             for z in k.chains if k.value(z).size()}
    return PrecatMorphism(k, kobject_of(g), comps)


def gamma_counit(pc):
    """gamma(forget(pc)) -> pc: the transpose of the identity, so iterated
    laxity on each block and the identity on the one-part chain block."""
    return _free_transpose(_free_build(pc, "gamma"), pc,
                           lambda z: identity(pc.value(z)))


def point_carrier_inclusion(pc):
    """The inclusion of the carrier into its free pointing, one-part
    decompositions only."""
    dst, sums = _point_build(pc)
    comps = {z: _chain_block(sums[z], identity(pc.value(z)))
             for z in pc.chains if pc.value(z).size()}
    return PrecatMorphism(pc, dst, comps)


# ---------------------------------------------------------------------------
# the one-chain gadget: an arrow pushed over one chain


def _arrow_build(letters, truncation, z0, alpha):
    """The bare diagram of the arrow alpha: U -> V pushed over z0.

    At a chain w the value is the wide pushout of one copy of alpha per
    deletion w -> z0 under the single U (one per number of copies, shared
    by the chains with that many); chains that cannot reach z0 carry U
    itself, other endpoint components the initial object. Structure maps
    act on the copies by composing deletion indices. Upsilon's diagram is
    the one of the initial arrow 0 -> m: one copy of m per deletion,
    glued along nothing.
    Returns (bare chain diagram, {chain: WidePushout or None}).
    """
    backend = alpha.backend
    letters = tuple(sorted(letters))
    chains = shapes.all_chains(letters, truncation)
    if z0 not in chains:
        raise ValueError("%r is not a chain over %r up to truncation %d"
                         % (z0, letters, truncation))
    nothing = empty(backend)
    ends = shapes.endpoints(z0)
    homs = {w: shapes.hom_set(w, z0) for w in chains}
    # one wide pushout per number of copies, not one per chain
    wide = functools.cache(lambda n: wide_pushout(alpha.src, [alpha] * n))
    wps = {w: wide(len(homs[w])) if shapes.endpoints(w) == ends else None
           for w in chains}
    values = {w: nothing if wp is None else wp.obj for w, wp in wps.items()}
    maps = {}
    for w, big in wps.items():
        for p in range(1, len(w) - 1):
            d = shapes.delete(w, p)
            if not values[d].size():
                continue
            # the copy of deletion e: d -> z0 goes to the copy of the
            # composite w -> d -> z0
            index = {e: i for i, e in enumerate(homs[w])}
            step = shapes.del_single(w, p)
            maps[(w, p)] = wide_pushout_induced(
                wps[d], [big.maps[index[step.then(e)]] for e in homs[d]],
                through=big.through)
    k = make_precategory(backend, letters, truncation, values, maps, {})
    return k, wps


def _arrow_transpose(k, z0, h, square):
    """The morphism of bare diagrams out of the diagram of an arrow U -> V
    pushed over z0, given as the (diagram, wide pushouts) pair k of
    `_arrow_build`, into h that a commuting square (top, bottom) from the
    arrow to h's cosegal arrow at z0 classifies: top into h at the
    endpoints, bottom into h at z0. Each copy of V at w goes to h(w) along
    its deletion w -> z0, U along the deletion onto the endpoints."""
    top, bottom = square
    diagram, wps = k
    comps = {}
    for w in diagram.chains:
        if not diagram.value(w).size():
            continue
        cone = [bottom.then(h.structure(d)) for d in shapes.hom_set(w, z0)]
        through = (None if cone else
                   top.then(h.structure(shapes.to_initial(w))))
        comps[w] = wide_pushout_induced(wps[w], cone, through=through)
    return PrecatMorphism(diagram, h, comps)


def _initial_arrow(m):
    """0 -> m, the arrow whose diagram is upsilon's."""
    return zero_map(empty(m.backend), m)


def _upsilon_square(h, z0, g):
    """The square from 0 -> g.src to h's cosegal arrow at z0 with bottom
    g."""
    return (zero_map(empty(h.backend), h.value(shapes.endpoints(z0))), g)


@dataclass
class _Gadget:
    """The gadget of an arrow pushed over z0: point(gamma(k)) for its bare
    diagram k (`_arrow_build`; upsilon's arrow is 0 -> m), built in one
    piece as `_free_build` of kind "gadget" on k. k is (k, its wide
    pushouts) and build is (gadget, sums); the chain inclusions and the
    transpose read their summands from these."""

    z0: tuple
    k: tuple
    build: tuple

    @classmethod
    def of(cls, letters, truncation, z0, alpha):
        """The gadget of the arrow alpha over z0."""
        k = _arrow_build(letters, truncation, z0, alpha)
        return cls(z0, k, _free_build(k[0], "gadget"))

    def transpose(self, h, square):
        """The pointed morphism into h classified by a commuting square
        (top, bottom) from the gadget's arrow U -> V to h's cosegal arrow
        at z0: the transpose of the map of bare diagrams that the square
        classifies (`_arrow_transpose`)."""
        return _free_transpose(
            self.build, h, _arrow_transpose(self.k, self.z0, h, square).at)

    def chain_inclusion(self, w, into_k):
        """into_k, a map into k(w), followed by the one-part carrier
        summand at w (zero when k(w) is empty)."""
        return _chain_block(self.build[1][w], into_k)

    def center_inclusion(self):
        """The copy of V at z0 (the identity deletion, no subdivision, one
        carrier part) into the gadget's value there."""
        (leg,) = self.k[1][self.z0].maps
        return self.chain_inclusion(self.z0, leg)


def free_hom_kobject(letters, truncation, z0, m):
    """The bare chain diagram freely generated by m sitting at z0: the
    diagram of the arrow 0 -> m, one copy of m per deletion w -> z0."""
    return _arrow_build(letters, truncation, z0, _initial_arrow(m))[0]


def free_hom_kmorphism(letters, truncation, z0, f):
    """The action of the free one-chain diagram on a map f: m -> m2: the
    transpose of f followed by the copy of m2 at z0."""
    src, (dst, wps) = [_arrow_build(letters, truncation, z0, _initial_arrow(x))
                       for x in (f.src, f.dst)]
    (center,) = wps[z0].maps
    return _arrow_transpose(src, z0, dst,
                            _upsilon_square(dst, z0, f.then(center)))


def upsilon(letters, truncation, z0, m):
    """point(gamma(-)) of the free one-chain diagram, the gadget of the
    arrow 0 -> m: the representing object for maps m -> H(z0) into
    pointed precategories H."""
    return _Gadget.of(letters, truncation, z0, _initial_arrow(m)).build[0]


def upsilon_map(letters, truncation, z0, f):
    """The action of upsilon on a map f: m -> m2: the transpose of f
    followed by the center inclusion of upsilon(..., m2)."""
    dst = _Gadget.of(letters, truncation, z0, _initial_arrow(f.dst))
    return upsilon_transpose(dst.build[0], z0,
                             f.then(dst.center_inclusion()))


def upsilon_center_inclusion(letters, truncation, z0, m):
    """The canonical summand inclusion m -> upsilon(...)(z0): identity
    deletion index, no subdivision, one carrier part."""
    return _Gadget.of(letters, truncation, z0,
                      _initial_arrow(m)).center_inclusion()


def upsilon_transpose(h, z0, g):
    """The pointed morphism upsilon(..., g.src) -> h classified by
    g: m -> h(z0).

    Deletion indices go to h's structure maps, unit parts to derived
    units, and blocks merge through h's laxity.
    """
    gadget = _Gadget.of(h.letters, h.truncation, z0, _initial_arrow(g.src))
    return gadget.transpose(h, _upsilon_square(h, z0, g))


def _free_transpose(build, h, k_component):
    """The morphism out of the free build on k, the (precategory, sums)
    pair of `_free_build`, into h that is k_component(w): k(w) -> h(w) on
    the nonempty chain blocks. Every map out of gamma, point or the gadget
    is one of these, as each is left adjoint. A pointed build's transpose
    is pointed, so it needs a pointed h.

    On a summand, carrier parts go through k_component and unit parts to
    derived units, and h's laxity merges every part.
    """
    src, sums = build
    if src.is_pointed() and not h.is_pointed():
        raise ValueError("transpose needs a pointed target")
    kcomp = functools.cache(k_component)
    lax_multi = functools.cache(h.lax_multi)

    @functools.cache
    def derived_unit(part):
        return h.unit_map(part[0]).then(h.structure(shapes.to_initial(part)))

    def leg(key, parts):
        factors = [kcomp(q) if l == "f" else derived_unit(q)
                   for q, l in zip(parts, key[1])]
        # one part needs no laxity: h.lax_multi of one part is the identity
        if len(parts) == 1:
            return factors[0]
        lax = lax_multi(parts)
        return tensor_then(factors, lax, dst=lax.src)

    comps = {w: _sum_map(sums[w], h.value(w), leg)
             for w in src.chains if sums[w].live}
    return PrecatMorphism(src, h, comps)


# ---------------------------------------------------------------------------
# the one quotient engine


def _quotient(pc, rels):
    """The quotient of a precategory F = pc by relations, as (Q, delta):
    rels is {chain: [parallel pairs into F's value there]}, and delta:
    F -> Q is levelwise onto and universal among the morphisms out of F
    that identify each pair.

    Slot z of Q is one presentation (`colim.present`), in chain order: the
    block F(z), a block Q(d) per deletion d = delete(z, p) with F(d)
    nonempty and a block Q(s) (x) Q(t) per cut (s, t) with F(s), F(t)
    nonempty, modulo the pairs at z, gen_map(z, p) ~ delta_d and
    lax(s, t) ~ delta_s (x) delta_t. The legs are delta_z, the structure
    maps and the laxity of Q; a pointed F points Q by u(a) then
    delta_(a, a).

    Each slot is a quotient of F(z): by induction on the length of z,
    delta_d and delta_s (x) delta_t are onto (tensors preserve
    surjections), so every element of a block Q(d) or Q(s) (x) Q(t) is
    identified with one of F(z). So the simplicial identities, the
    naturality of the laxity and its associativity hold in Q as in F: both
    sides of each, composed with a surjective tensor of deltas, are delta
    of two equal maps; no reassociation relation is needed. A morphism
    phi: F -> G that identifies each pair descends through each slot by
    induction on z, with the maps descended before, then G's structure map
    or laxity, on Q(d) and Q(s) (x) Q(t), as phi commutes with both; this
    makes a morphism Q -> G, unique as delta is onto.
    """
    backend = pc.backend
    values, maps, lax, deltas = {}, {}, {}, {}
    for z in pc.chains:
        blocks = [("F", pc.value(z))]
        pairs = [(("F", f), ("F", g)) for f, g in rels.get(z, ())]
        for p in range(1, len(z) - 1):
            d = shapes.delete(z, p)
            if pc.value(d).size():
                blocks.append((("gen", (z, p)), values[d]))
                pairs.append((("F", pc.gen_map(z, p)),
                              (("gen", (z, p)), deltas[d])))
        for c in range(1, len(z) - 1):
            s, t = z[:c + 1], z[c:]
            if pc.value(s).size() and pc.value(t).size():
                phi, x, y = pc.lax(s, t), values[s], values[t]
                pair = tensor(x, y) if x.size() * y.size() else empty(backend)
                blocks.append((("lax", (s, t)), pair))
                pairs.append((("F", phi), (("lax", (s, t)), tensor_mor(
                    deltas[s], deltas[t], src=phi.src, dst=pair))))
        legs = dict(present(blocks, pairs, backend).cocone)
        deltas[z] = legs.pop("F")
        values[z] = deltas[z].dst
        for (kind, key), leg in legs.items():
            (maps if kind == "gen" else lax)[key] = leg
    units = ({a: pc.unit_map(a).then(deltas[(a, a)]) for a in pc.letters}
             if pc.is_pointed() else None)
    new = make_precategory(backend, pc.letters, pc.truncation, values, maps,
                           lax, units=units)
    return new, PrecatMorphism(pc, new, deltas)


def _gamma_quotient(backend, letters, truncation, cols, cone, laxities,
                    units=None):
    """The quotient of gamma(K) that `precat_colimit` and `pushforward`
    are, for K the bare diagram of the presentations cols, {chain:
    Colimit}, whose structure map at (z, p) descends cone(z, p, block)
    from each nonempty block at delete(z, p); units, {a: I -> K((a, a))},
    point gamma(K) when given. An entry (z, cut, phi, whole, left, right)
    of laxities makes phi: A (x) B -> C the laxity at the cut (s, t) of z:
    phi then whole: C -> K(z) into the chain block is identified with
    left: A -> K(s) tensor right: B -> K(t) into the block K(s) (x) K(t).
    Returns Q and the map sending a leg into K(z) on to Q(z)."""
    maps = {}
    for z in cols:
        for p in range(1, len(z) - 1):
            col = cols[shapes.delete(z, p)]
            if col.obj.size():
                maps[(z, p)] = colimit_induced(col, {
                    block: cone(z, p, block)
                    for block, leg in col.cocone.items() if leg.src.size()})
    g, sums = _free_build(make_precategory(
        backend, letters, truncation, {z: col.obj for z, col in cols.items()},
        maps, {}), "gamma")
    rels = {}
    for z, cut, phi, whole, left, right in laxities:
        rels.setdefault(z, []).append((
            phi.then(_chain_block(sums[z], whole)),
            _into([left, right], sums[z],
                  sums[z].keyed.pos[((cut,), ("f", "f"))])))
    if units is not None:
        units = {a: _chain_block(sums[(a, a)], u) for a, u in units.items()}
    q, delta = _quotient(make_precategory(
        backend, letters, truncation, g.values, g.maps, g.laxity,
        units=units), rels)
    return q, lambda z, leg: _chain_block(sums[z], leg).then(delta.at(z))


# ---------------------------------------------------------------------------
# colimits of pointed precategories


def precat_colimit(nodes, edges):
    """The colimit of a finite connected diagram of pointed precategories.

    It is the quotient of gamma(K), pointed by the first node's units, for
    K the bare diagram of slotwise colimits (`colim.colimit` along the
    edges' components), by one relation per node and stored laxity pair
    (s, t): the node's laxity followed by its leg into K equals the tensor
    of its legs followed by gamma's laxity (`_gamma_quotient`). A cocone
    into a pointed H is one map of bare diagrams K -> H, so one map
    gamma(K) -> H by the adjunction of gamma, pointed as the first node's
    leg is; the legs commute with the laxity exactly when that map
    identifies each relation, and then it descends through the quotient,
    uniquely (`_quotient`). The other nodes' units must land on the
    first's, or their legs are not pointed: that is checked. A degree-1
    slot has no relation: it is a copy of the plain colimit of its slice.
    No code of the package calls `precat_colimit`, as `unitalize`
    quotients its input directly; the tests glue with it, the cell
    pushouts of `tests/test_homotopy.py` among them.

    Returns (colimit precategory, {key: cocone morphism}).
    """
    if not nodes:
        raise ValueError("a colimit needs at least one node")
    keys = sorted(nodes)
    first = nodes[keys[0]]
    chains = first.chains
    for key in keys:
        if nodes[key].chains != chains or not nodes[key].is_pointed():
            raise ValueError("nodes must be pointed with a common shape")
    for a, b, alpha in edges:
        if alpha.src != nodes.get(a) or alpha.dst != nodes.get(b):
            raise ValueError("edge %r -> %r does not match its nodes" % (a, b))
    cols = {z: colimit({key: nodes[key].value(z) for key in keys},
                       [(a, b, alpha.at(z)) for a, b, alpha in edges
                        if nodes[a].value(z).size()])
            for z in chains}
    out, into = _gamma_quotient(
        first.backend, first.letters, first.truncation, cols,
        lambda z, p, key: nodes[key].gen_map(z, p).then(cols[z].cocone[key]),
        [(shapes.concat(s, t), shapes.degree(s), phi,
          *[cols[x].cocone[key] for x in (shapes.concat(s, t), s, t)])
         for key in keys for (s, t), phi in nodes[key].laxity.items()],
        {a: first.unit_map(a).then(cols[(a, a)].cocone[keys[0]])
         for a in first.letters})
    cocone = {key: PrecatMorphism(nodes[key], out, {
        z: into(z, cols[z].cocone[key]) for z in chains
        if nodes[key].value(z).size()}) for key in keys}
    for a in first.letters:
        cands = [nodes[key].unit_map(a).then(cocone[key].at((a, a)))
                 for key in keys]
        if any(c != cands[0] for c in cands):
            raise AssertionError("unit points disagree across the diagram")
    return out, cocone


# ---------------------------------------------------------------------------
# unitalization


@dataclass
class RoundRecord:
    """Everything one round of unitalization did: which constraints were
    violated, the parallel pairs and their coequalizers, and the round
    morphism delta, the levelwise surjection from the precategory onto
    the round's quotient.

    `xis`, the map out of each coequalizer into the new value at its slot
    (solved by `colim.quotient_induced` from delta there, through the
    coequalizer's projection), is computed on its first read and kept: no
    step of the round reads it. The coequalizers stay built with the
    record: the benchmark digest reads their sizes outside its timers, so
    building them on read would only move their cost out of the measured
    compute.
    """

    constraints: list
    pairs: list
    coeqs: list
    delta: object

    @functools.cached_property
    def xis(self):
        return [quotient_induced(q, self.delta.at(con[4]))
                for q, con in zip(self.coeqs, self.constraints)]


@dataclass
class UnitalizationTrace:
    """What one `unitalize` call did: `rounds` holds no record when its
    input is unital and one record otherwise, and `stages` is [F] or
    [F, Q], the input and the quotient. A record's `xis` are computed
    when first read; its constraints, pairs, coequalizers and delta are
    built with it (see `RoundRecord`)."""

    stages: list
    rounds: list

    def summary(self):
        return {
            "rounds": len(self.rounds),
            "constraints": [
                [list(map(str, c)) for c in r.constraints]
                for r in self.rounds],
            "sizes": [
                {".".join(s): stage.value(s).size() for s in stage.chains}
                for stage in self.stages],
        }


@dataclass
class UnitalizationResult:
    precat: object
    eta: object
    trace: object


def unitalize(pc):
    """Force the unit laws of a pointed precategory F by quotienting it.

    The round is `_quotient` of F by the two maps of each violated unit
    constraint, at its slot, and eta is its round map delta. Q is, up to
    canonical isomorphism, the colimit gluing one upsilon gadget per
    violated constraint onto F (`precat_colimit` over the apex and
    coequalizer gadgets): a map out of F extends over either exactly when
    it agrees on each constraint's two maps.

    One round makes Q unital. Take a left constraint at F(s) with slot z:
    its maps out of I (x) F(s) are f = (u(a) (x) 1) then lax((a, a), s)
    and g = the unitor then gen_map(z, p). Its two maps in Q, composed
    with the surjection I (x) delta_s, are f then delta_z and g then
    delta_z, by Q's unit u(a) then delta_(a, a) and the relations of the
    cut ((a, a), s) and of the deletion (z, p). f and g were equal, or the
    presentation at z coequalized them, so the two maps agree in Q; a
    right constraint is the mirror. `check_unital` of Q is the oracle of
    this argument: `unitalize` raises if it finds a constraint left.

    The relation pairs are the maps of `check_unital`'s findings on F, so
    no constraint's maps are built twice; the trace keeps each finding's
    constraint tuple, (side, letter, s, p, z).
    """
    if not pc.is_pointed():
        raise ValueError("unitalize needs a pointed precategory")
    bad = check_unital(pc)
    if not bad:
        return UnitalizationResult(pc, identity_morphism(pc),
                                   UnitalizationTrace([pc], []))
    pairs = [(f.first, f.second) for f in bad]
    rels = {}
    for f, pair in zip(bad, pairs):
        rels.setdefault(f.z, []).append(pair)
    new, delta = _quotient(pc, rels)
    left = check_unital(new)
    if left:
        raise AssertionError("unit constraints violated after the quotient "
                             "round: %s" % [f.constraint for f in left])
    trace = UnitalizationTrace([pc, new], [RoundRecord(
        [f.constraint for f in bad], pairs,
        [coequalizer(*pair) for pair in pairs], delta)])
    return UnitalizationResult(new, delta, trace)


def factor_through_unital(eta, psi):
    """Factor psi: F -> G through eta: F -> U when eta is a levelwise
    surjection, producing the unique bar: U -> G with eta.then(bar) ==
    psi.

    This is how morphisms out of a unitalization are induced: its eta, the
    round map or an identity, is surjective, so the factorization exists
    exactly when psi kills what eta kills. Each component is solved by
    `base.solve_map`; surjectivity is checked first, as the uniqueness it
    reports does not tell it on finset, where every map into a one-point
    target is unique.
    """
    comps = {}
    for s in eta.src.chains:
        # the one map out of an empty F(s) descends; a nonempty U(s)
        # under it is refused as not onto below
        if not (eta.src.value(s).size() or eta.dst.value(s).size()):
            continue
        e = eta.at(s)
        if not is_surjective(e):
            raise ValueError("eta is not surjective at %r" % (s,))
        p = psi.at(s)
        try:
            comps[s], _ = solve_map(e.dst, p.dst, [(e, p)], [])
        except NoSolution as err:
            raise ValueError("map does not descend through the "
                             "unitalization at %r" % (s,)) from err
    return PrecatMorphism(eta.dst, psi.dst, comps)


# ---------------------------------------------------------------------------
# realization


@dataclass
class Realization:
    """The endpoint-pair colimits of a precategory with the composition
    solved against the cocone, plus the comparison morphism.

    `stable`, {pair: flag}, is computed on its first read and kept, from
    the precategory and the cocone of each pair, which the record holds
    for it: no step of `realize` reads it. A pair's flag is False when no
    chain of the pair lies below the truncation, and otherwise tells
    whether the colimit of the chains below the truncation maps
    isomorphically onto the hom, so that the top degree adds nothing.
    """

    backend: str
    truncation: int
    homs: dict
    comps: dict
    determined: dict
    idpoints: dict
    constant: object
    eta: object
    category: object
    pc: InitVar[object]
    cocones: InitVar[dict]

    def __post_init__(self, pc, cocones):
        self._pc, self._cocones = pc, cocones

    @functools.cached_property
    def stable(self):
        return {pair: _stable(self._pc, pair, cocone)
                for pair, cocone in self._cocones.items()}


def _endpoint_diagram(pc, a, b, top):
    """The chains from a to b of degree at most top, with their values,
    and the structure maps between them, as (nodes, edges) for
    `colim.colimit`."""
    nodes = {s: pc.value(s) for s in pc.chains
             if s[0] == a and s[-1] == b and shapes.degree(s) <= top}
    edges = [(shapes.delete(z, p), z, pc.gen_map(z, p))
             for z in nodes for p in range(1, len(z) - 1)]
    return nodes, edges


def _stable(pc, pair, cocone):
    """Whether the hom of pair, with its cocone, is already the colimit
    of the chains of the pair below the truncation; False when there is
    none."""
    nodes, edges = _endpoint_diagram(pc, *pair, pc.truncation - 1)
    if not nodes:
        return False
    sub = colimit(nodes, edges, source_key=pair)
    return is_isomorphism(colimit_induced(
        sub, {s: cocone[s] for s in nodes}))


def _solve_composition(pc, cols, a, b, c):
    """The composition hom(a, b) (x) hom(b, c) -> hom(a, c) with
    m . (psi_s (x) psi_t) = psi_st . lax(s, t) for every stored laxity
    pair from a over b to c, and whether that pins it down; None when
    it does not."""
    ab, bc, ac = cols[(a, b)], cols[(b, c)], cols[(a, c)]
    lin = tensor(ab.obj, bc.obj)
    legs = [(tensor_mor(ab.cocone[s], bc.cocone[t], src=phi.src, dst=lin),
             phi.then(ac.cocone[shapes.concat(s, t)]))
            for (s, t), phi in pc.laxity.items()
            if s[0] == a and s[-1] == b and t[-1] == c]
    try:
        m, unique = solve_map(lin, ac.obj, legs, [])
    except ValueError as err:
        raise ValueError("composition is inconsistent at %r"
                         % ((a, b, c),)) from err
    return (m, True) if unique else (None, False)


def realize(pc):
    """Collapse every endpoint component to its colimit.

    Returns the hom objects, one per endpoint pair that some chain
    spans; the solved composition on each triple (a, b, c) whose three
    pairs have a hom, with a per-triple flag telling whether the
    truncated data pins it down uniquely; the comparison morphism eta
    into the constant precategory when every solved triple is pinned;
    the strict category too when, besides, the input is pointed and
    every pair of letters has a hom; and a stability flag per pair
    comparing against the one-step-lower truncation. The flags take a
    second colimit per pair, so they are computed when first read
    (`Realization.stable`); `realize` builds one colimit per pair.
    """
    letters = pc.letters
    cols = {}
    for a in letters:
        for b in letters:
            nodes, edges = _endpoint_diagram(pc, a, b, pc.truncation)
            if nodes:
                cols[(a, b)] = colimit(nodes, edges, source_key=(a, b))
    homs = {key: cols[key].obj for key in cols}
    comps = {}
    determined = {}
    for a, b, c in itertools.product(letters, repeat=3):
        if (a, b) in cols and (b, c) in cols and (a, c) in cols:
            comps[(a, b, c)], determined[(a, b, c)] = _solve_composition(
                pc, cols, a, b, c)
    idpoints = None
    if pc.is_pointed():
        idpoints = {a: pc.unit_map(a).then(cols[(a, a)].cocone[(a, a)])
                    for a in letters}
    constant = None
    eta = None
    category = None
    if all(determined.values()):
        constant = spread(pc.backend, letters, pc.truncation, pc.chains,
                          homs, comps, {}, idpoints)
        eta = PrecatMorphism(pc, constant, {
            s: cols[(s[0], s[-1])].cocone[s] for s in pc.chains})
        # a strict category needs a hom for every pair of letters
        if pc.is_pointed() and len(homs) == len(letters) ** 2:
            category = StrictCategory(pc.backend, letters, dict(homs),
                                      dict(comps), dict(idpoints))
    return Realization(pc.backend, pc.truncation, homs, comps, determined,
                       idpoints, constant, eta, category, pc,
                       {key: col.cocone for key, col in cols.items()})


# ---------------------------------------------------------------------------
# the free unital precategory on an arrow over one chain


@dataclass
class PsiResult:
    """The free unital precategory on an arrow over one chain: the
    unitalization of the arrow's gadget, with the gadget record, whose
    build psi_transpose, psi_inclusions and psi_square read their blocks
    from. gadget.k is (k, its wide pushouts); upsilon's gadget is the one
    of the arrow 0 -> m."""

    precat: object
    eta: object
    trace: object
    gadget: _Gadget


def psi(z0, alpha, letters=None, truncation=None):
    """The free unital precategory on an arrow sitting over one chain.

    Maps out of it into a unital pointed precategory H correspond to
    maps alpha -> H(u_{z0}) in the arrow category; `psi_transpose`
    realizes that correspondence and `psi_square` the functoriality.
    """
    if letters is None:
        letters = tuple(sorted(set(z0)))
    if truncation is None:
        truncation = shapes.degree(z0)
    gadget = _Gadget.of(letters, truncation, z0, alpha)
    res = unitalize(gadget.build[0])
    return PsiResult(res.precat, res.eta, res.trace, gadget)


def _gadget_over(res, z0):
    """The gadget of a psi result, refusing a z0 it was not built over."""
    if z0 != res.gadget.z0:
        raise ValueError("psi was built over %r, not %r"
                         % (res.gadget.z0, z0))
    return res.gadget


def psi_square(z0, square, src_res, dst_res):
    """Functorial action of psi on a commuting square (u, v) of arrows:
    the transpose of the square followed by dst_res's inclusions."""
    u, v = square
    inc_u, inc_v = psi_inclusions(dst_res, z0)
    return psi_transpose(src_res, z0, dst_res.precat,
                         (u.then(inc_u), v.then(inc_v)))


def psi_inclusions(res, z0):
    """The canonical maps of the arrow into the free unital precategory:
    (source arrow end -> value at the endpoints, target end -> value at
    z0)."""
    ends = shapes.endpoints(z0)
    gadget = _gadget_over(res, z0)
    inc_u = gadget.chain_inclusion(ends, gadget.k[1][ends].through)
    inc_v = gadget.center_inclusion()
    return (inc_u.then(res.eta.at(ends)), inc_v.then(res.eta.at(z0)))


def psi_restrict(res, z0, theta):
    """A morphism out of the free unital precategory, restricted to the
    commuting square it classifies."""
    inc_u, inc_v = psi_inclusions(res, z0)
    ends = shapes.endpoints(z0)
    return (inc_u.then(theta.at(ends)), inc_v.then(theta.at(z0)))


def psi_transpose(res, z0, h, square):
    """The morphism out of the free unital precategory classified by a
    commuting square (top, bottom) from the generating arrow to the
    cosegal arrow of h at z0: top into h at the endpoints, bottom into h
    at z0, with top . h(to initial) == alpha . bottom."""
    raw = _gadget_over(res, z0).transpose(h, square)
    return factor_through_unital(res.eta, raw)


def arrow_codiagonal(alpha):
    """The two inclusions into the pushout of alpha along itself and the
    fold map collapsing them."""
    po = wide_pushout(alpha.src, [alpha, alpha])
    fold = wide_pushout_induced(po, [identity(alpha.dst)] * 2)
    return po, fold


def square_down(alpha):
    """(alpha, id): the arrow alpha over the identity on its target."""
    return (alpha, identity(alpha.dst))


def square_xi(alpha):
    """(alpha, first inclusion): alpha into the codiagonal's second
    inclusion."""
    po, _ = arrow_codiagonal(alpha)
    return (alpha, po.maps[0])


def square_ell(alpha):
    """(id, fold): the codiagonal's second inclusion down to the
    identity."""
    po, fold = arrow_codiagonal(alpha)
    return (identity(alpha.dst), fold)


def codiagonal_arrow(alpha):
    """The second inclusion V -> V +_U V, the middle arrow of the
    down-square factorization."""
    po, _ = arrow_codiagonal(alpha)
    return po.maps[1]


# ---------------------------------------------------------------------------
# direct and inverse image along a letter map


def _image_chain(f, s):
    return tuple(f[a] for a in s)


def pullback(f, g):
    """Restrict a precategory along a map of letter sets: the value at a
    chain is the value at its letterwise image."""
    letters = tuple(sorted(f))
    for a in f.values():
        if a not in set(g.letters):
            raise ValueError("letter map lands outside the target")
    chains = shapes.all_chains(letters, g.truncation)
    values = {s: g.value(_image_chain(f, s)) for s in chains}
    maps = {}
    for s in chains:
        for p in range(1, len(s) - 1):
            maps[(s, p)] = g.gen_map(_image_chain(f, s), p)
    laxity = {(s, t): g.lax(_image_chain(f, s), _image_chain(f, t))
              for s, t in expected_laxity_keys(chains, g.truncation)}
    units = ({a: g.unit_map(f[a]) for a in letters} if g.is_pointed()
             else None)
    return make_precategory(g.backend, letters, g.truncation, values, maps,
                            laxity, units=units)


def pushforward(f, pc):
    """Freely extend a precategory along a map of letter sets: the
    enriched left Kan extension.

    K is the bare left Kan extension: K(w) holds one copy of pc(s) per
    chain s and deletion d: w -> f(s), glued along pc's structure maps,
    and K's structure maps precompose the deletions. The extension is the
    quotient of gamma(K) by one relation per stored laxity pair (s, t) of
    pc, at the image of concat(s, t), through the copies of the identity
    deletions (`_gamma_quotient`). A map of bare diagrams K -> H is one of
    pc into H restricted along f, so one map gamma(K) -> H by the
    adjunction of gamma, and the map out of pc commutes with the laxity
    exactly when that map identifies each relation (`_quotient`).
    Relations at the identity deletions suffice: the copy along d is the
    one along the identity followed by K's structure map along d, and H's
    laxity is natural in deletions, so the relation for copies along d1
    and d2 is the one at the identities followed by H's structure map
    along d1 and d2 side by side. Degree-1 slots are copies of the sum of
    the fibers.
    """
    if pc.is_pointed():
        raise ValueError("pushforward is defined on unpointed "
                         "precategories; unitalize after extending")
    backend = pc.backend
    target_letters = tuple(sorted(set(f.values())))
    image = {s: _image_chain(f, s) for s in pc.chains}
    cols = {}
    for w in shapes.all_chains(target_letters, pc.truncation):
        blocks = [((s, d), pc.value(s))
                  for s in pc.chains for d in shapes.hom_set(w, image[s])]
        rels = [(((shapes.delete(s, r),
                   d.then(shapes.del_single(image[s], r))),
                  identity(pc.value(shapes.delete(s, r)))),
                 ((s, d), pc.gen_map(s, r)))
                for (s, d), _ in blocks for r in range(1, len(s) - 1)
                if pc.value(shapes.delete(s, r)).size()]
        cols[w] = present(blocks, rels, backend)
    # pc(s) into K at f(s), as the copy of the identity deletion
    copy = {s: cols[w].cocone[(s, shapes.Del(w, w, tuple(range(len(w)))))]
            for s, w in image.items()}
    return _gamma_quotient(
        backend, target_letters, pc.truncation, cols,
        lambda w, p, block: cols[w].cocone[
            (block[0], shapes.del_single(w, p).then(block[1]))],
        [(image[shapes.concat(s, t)], shapes.degree(s), phi,
          copy[shapes.concat(s, t)], copy[s], copy[t])
         for (s, t), phi in pc.laxity.items()])[0]
