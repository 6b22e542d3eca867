"""Tensor product over the chain base, modules and distributors.

Two precategories multiply slotwise: the value of the product at a chain
of letter pairs is the tensor of the two values at the unzipped chains,
and the laxity threads the middle factors past each other with the
backend braiding.  The unit for this product is the one-letter
precategory with every value the monoidal unit.

A join chain over two letter sets lists left letters first, then right
letters.  Modules over a precategory live on such chains: the module of
maps into a fixed letter stores, at (B,...,C,*,...,*), the value at
(B,...,C,A), and collapsing marker letters costs nothing.  Distributors
are two-sided versions checked against their restrictions, which are
the `pullback`s along the inclusions of the two letter blocks (the
restriction to a single letter is the pullback along that letter, and
it is monoidal: restricting a slotwise tensor at a pair of letters gives
the slotwise tensor of the two restrictions).  The split orientation
matters: chains whose letters step from the right block back into the
left block are not part of the shape at all, so the represented data
can only feed forward.  (The checker takes that as the definition of
the forbidden direction; a chain in the other order is rejected by the
shape, not tested for emptiness.)

Relative transformations between morphism lists sigma_1..sigma_n carry
one point per letter, valued in the target at the chain of letter
images.  The two transport routes of such a point around a chain must
agree after collapsing into the realized hom.  The object classifying
all such families is `colim.agreement` on `colim.product` of the
component slots: around every chain that still fits under the
truncation, the top route read on the slot of its last letter agrees
with the bottom route read on the slot of its first letter at every
element or basis vector of the source value.  Both read the routes from
one builder, which transports a generic point of the end slot; a family
precomposes them with its own points.  Families compose through the
target laxity, and the classifying objects pair the same way: this is
the functor-category hom as an end, with its composition (Kelly, Basic
Concepts of Enriched Category Theory, ch. 2).  The pairing, like the
membership test of a family, is one `base.solve_map` lift through the
inclusion, read through the projections.
"""

from dataclasses import dataclass, replace

from . import shapes
from .base import (
    MMorphism, MObject, NoSolution, basis_point, identity, invert,
    left_unitor, right_unitor, solve_map, symmetry, tensor, tensor_mor,
    tensor_then, unit,
)
from .colim import agreement, product
from .precat import (
    Precategory, PrecatMorphism, StrictCategory, expected_laxity_keys,
    from_strict_category, identity_morphism, make_precategory,
    split_admissible,
)
from .adjoints import _image_chain, pullback, realize

MARKER = "*"


# ---------------------------------------------------------------------------
# the slotwise tensor and its unit


def _unzip(s):
    return tuple(a for a, _ in s), tuple(b for _, b in s)


def unit_precat(backend, truncation):
    """The precategory on the one letter MARKER with every value the
    monoidal unit: the unit category, one object with hom I."""
    iu = unit(backend)
    return from_strict_category(StrictCategory(
        backend, (MARKER,), {(MARKER, MARKER): iu},
        {(MARKER,) * 3: left_unitor(iu)}, {MARKER: identity(iu)}), truncation)


def tensor_s(f, g):
    """The slotwise tensor of two precategories, over pair letters.

    A chain of pairs unzips into two chains of equal degree; the value
    there is the tensor of the two component values.  The laxity swaps
    the inner factors with the braiding, then multiplies the two
    component laxities.  Unit points multiply when both sides carry
    them.
    """
    if f.backend != g.backend:
        raise ValueError("slotwise tensor needs a common backend")
    if f.truncation != g.truncation:
        raise ValueError("slotwise tensor needs a common truncation")
    letters = tuple(sorted(
        (a, b) for a in f.letters for b in g.letters))
    chains = shapes.all_chains(letters, f.truncation)
    values = {}
    maps = {}
    for s in chains:
        s1, s2 = _unzip(s)
        values[s] = tensor(f.value(s1), g.value(s2))
        for p in range(1, len(s) - 1):
            maps[(s, p)] = tensor_mor(f.gen_map(s1, p), g.gen_map(s2, p))
    laxity = {}
    for (s, t) in expected_laxity_keys(chains, f.truncation):
        s1, s2 = _unzip(s)
        t1, t2 = _unzip(t)
        mid = tensor_mor(
            tensor_mor(identity(f.value(s1)), symmetry(g.value(s2),
                                                       f.value(t1))),
            identity(g.value(t2)))
        laxity[(s, t)] = mid.then(
            tensor_mor(f.lax(s1, t1), g.lax(s2, t2)))
    units = None
    if f.is_pointed() and g.is_pointed():
        iu = unit(f.backend)
        units = {(a, b): invert(left_unitor(iu)).then(
                     tensor_mor(f.unit_map(a), g.unit_map(b)))
                 for (a, b) in letters}
    return make_precategory(f.backend, letters, f.truncation, values, maps,
                            laxity, units=units)


def tensor_s_mor(alpha, beta):
    """The slotwise tensor of two precategory morphisms."""
    src = tensor_s(alpha.src, beta.src)
    dst = tensor_s(alpha.dst, beta.dst)
    components = {}
    for s in src.chains:
        s1, s2 = _unzip(s)
        components[s] = tensor_mor(alpha.at(s1), beta.at(s2))
    return PrecatMorphism(src, dst, components)


def relabel(pc, table):
    """Rename the letters of a precategory along a bijection."""
    if sorted(table) != sorted(pc.letters):
        raise ValueError("relabel table must cover the letters exactly")
    if len(set(table.values())) != len(table):
        raise ValueError("relabel table must be injective")

    def ch(s):
        return tuple(table[a] for a in s)

    values = {ch(s): pc.values[s] for s in pc.chains}
    maps = {(ch(s), p): m for (s, p), m in pc.maps.items()}
    laxity = {(ch(s), ch(t)): m for (s, t), m in pc.laxity.items()}
    units = ({table[a]: pc.units[a] for a in pc.letters}
             if pc.is_pointed() else None)
    split = (tuple(ch(side) for side in pc.split)
             if pc.split is not None else None)
    return make_precategory(pc.backend, [table[a] for a in pc.letters],
                            pc.truncation, values, maps, laxity,
                            units=units, split=split)


def tensor_s_assoc(f, g, h):
    """The comparison (F x G) x H -> F x (G x H), both relabeled onto
    flat letter triples.  The backends tensor strictly, so every
    component is an identity; the content is that the two bracketings
    define the same precategory over the common letters."""
    left = relabel(tensor_s(tensor_s(f, g), h),
                   {((a, b), c): (a, b, c)
                    for a in f.letters for b in g.letters
                    for c in h.letters})
    right = relabel(tensor_s(f, tensor_s(g, h)),
                    {(a, (b, c)): (a, b, c)
                     for a in f.letters for b in g.letters
                     for c in h.letters})
    return PrecatMorphism(left, right, identity_morphism(left).components)


def tensor_s_unitor(f, side="right"):
    """The comparison F x Un -> F (or Un x F -> F), relabeled onto F's
    own letters; components are the backend unitors."""
    if side not in ("left", "right"):
        raise ValueError("unitor side must be 'left' or 'right', not %r"
                         % (side,))
    un = unit_precat(f.backend, f.truncation)
    if side == "right":
        prod = relabel(tensor_s(f, un), {(a, MARKER): a
                                         for a in f.letters})
        comps = {s: right_unitor(f.value(s)) for s in prod.chains}
    else:
        prod = relabel(tensor_s(un, f), {(MARKER, a): a
                                         for a in f.letters})
        comps = {s: left_unitor(f.value(s)) for s in prod.chains}
    return PrecatMorphism(prod, f, comps)


def tensor_s_symmetry(f, g):
    """The comparison F x G -> G x F over the flipped letters."""
    src = tensor_s(f, g)
    dst = relabel(tensor_s(g, f), {(b, a): (a, b)
                                   for a in f.letters for b in g.letters})
    comps = {}
    for s in src.chains:
        s1, s2 = _unzip(s)
        comps[s] = symmetry(f.value(s1), g.value(s2))
    return PrecatMorphism(src, dst, comps)


# ---------------------------------------------------------------------------
# join chains and modules


def join_chains(left, right, truncation):
    out = []
    for s in shapes.all_chains(tuple(left) + tuple(right), truncation):
        if split_admissible((left, right), s):
            out.append(s)
    return tuple(out)


def _support(s):
    """The left block of a join chain, with a single marker kept when
    the chain crosses over."""
    xs = tuple(a for a in s if a != MARKER)
    if len(xs) == len(s):
        return s
    return xs + (MARKER,)


def yoneda_module(f, a):
    """The module of maps into the letter a, over the join with the one
    marker letter MARKER.

    On marker-free chains the module is f itself.  A chain that crosses
    into the marker block takes the value of f at its left block with
    the target letter a appended; deleting a marker letter collapses
    nothing, deleting an ordinary letter acts through f.  The laxity is
    f's own on supports, and the unit-shaped one where only markers
    multiply.
    """
    if a not in set(f.letters):
        raise ValueError("module target %r is not a letter" % (a,))
    if MARKER in set(f.letters):
        raise ValueError("marker %r collides with a letter" % (MARKER,))

    def val(s):
        if MARKER not in s:
            return f.value(s)
        if set(s) == {MARKER}:
            return unit(f.backend)
        return f.value(_support(s)[:-1] + (a,))

    chains = join_chains(f.letters, (MARKER,), f.truncation)
    values = {s: val(s) for s in chains}
    maps = {}
    for s in chains:
        for p in range(1, len(s) - 1):
            if s[p] == MARKER:
                maps[(s, p)] = identity(values[s])
            elif MARKER not in s:
                maps[(s, p)] = f.gen_map(s, p)
            else:
                maps[(s, p)] = f.gen_map(_support(s)[:-1] + (a,), p)
    laxity = {}
    for (s, t) in expected_laxity_keys(chains, f.truncation):
        if set(t) == {MARKER}:
            # the right part carries the unit
            laxity[(s, t)] = right_unitor(values[s])
        elif MARKER not in s and MARKER not in t:
            laxity[(s, t)] = f.lax(s, t)
        else:
            # s is marker-free (it ends where t starts, in the letters),
            # t crosses over: multiply through f on the supports
            laxity[(s, t)] = f.lax(s, _support(t)[:-1] + (a,))
    units = None
    if f.is_pointed():
        units = {b: f.unit_map(b) for b in f.letters}
        units[MARKER] = identity(unit(f.backend))
    return make_precategory(f.backend, f.letters + (MARKER,), f.truncation,
                            values, maps, laxity, units=units,
                            split=(f.letters, (MARKER,)))


def check_distributor(e, f, g):
    """Whether e is a two-sided module between f and g.

    The report lists the split, whether the shape only carries
    forward-directed chains (the orientation choice documented in the
    module docstring), whether the two restrictions are literally f
    and g, and the degree-wise transition verdicts when all three are
    co-Segal.
    """
    from .homotopy import is_cosegal
    report = {"errors": [], "restriction_left": False,
              "restriction_right": False, "join_shape": False,
              "cosegal": None, "passed": False}
    if e.split is None:
        report["errors"].append("no split on the middle precategory")
        return report
    left, right = e.split
    if tuple(sorted(left + right)) != e.letters:
        report["errors"].append("split does not partition the letters")
        return report
    if tuple(sorted(left)) != f.letters:
        report["errors"].append("left letters disagree with the split")
    if tuple(sorted(right)) != g.letters:
        report["errors"].append("right letters disagree with the split")
    if report["errors"]:
        return report
    report["join_shape"] = (
        tuple(e.chains) == join_chains(sorted(left), sorted(right),
                                       e.truncation)
        and all(split_admissible(e.split, s) for s in e.chains))
    rl = replace(pullback({a: a for a in left}, e), split=f.split)
    rr = replace(pullback({a: a for a in right}, e), split=g.split)
    if e.is_pointed() and not f.is_pointed():
        rl = replace(rl, units=None)
    if e.is_pointed() and not g.is_pointed():
        rr = replace(rr, units=None)
    report["restriction_left"] = rl == f
    report["restriction_right"] = rr == g
    if report["join_shape"] and report["restriction_left"] \
            and report["restriction_right"]:
        report["cosegal"] = bool(
            is_cosegal(e) and is_cosegal(f) and is_cosegal(g))
    report["passed"] = (report["join_shape"]
                        and report["restriction_left"]
                        and report["restriction_right"])
    return report


# ---------------------------------------------------------------------------
# relative transformations between morphism lists


@dataclass
class RelativeNatTransform:
    """A family of points transported around chains in two ways.

    The lists fmaps / sigmas describe parallel morphisms from the source
    to the target (each sigma lands in the pullback of the target along
    its letter map).  The family eta holds one point per source letter,
    valued at the chain of letter images.  The two transport routes of a
    point around a chain s must agree after collapsing into the realized
    hom of the target; axiom_errors lists every chain where they do not.
    """

    src: Precategory
    dst: Precategory
    fmaps: tuple
    sigmas: tuple
    eta: dict

    def alpha(self, a):
        return tuple(fm[a] for fm in self.fmaps)


def _check_transform_shape(src, dst, fmaps, sigmas):
    if len(fmaps) != len(sigmas) or len(fmaps) < 2:
        raise ValueError("need at least two morphisms, one letter map "
                         "each")
    for fm in fmaps:
        if sorted(fm) != sorted(src.letters):
            raise ValueError("letter map does not cover the source")
        for b in fm.values():
            if b not in set(dst.letters):
                raise ValueError("letter map lands outside the target")
    for fm, sg in zip(fmaps, sigmas):
        if sg.src is not src and sg.src.values != src.values:
            raise ValueError("sigma does not start at the source")
        for s in src.chains:
            try:
                c = sg.at(s)
            except KeyError:
                c = None
            if c is None or c.src != src.values[s] \
                    or c.dst != dst.value(_image_chain(fm, s)):
                raise ValueError("sigma component at %r does not land on "
                                 "the image chain" % (s,))


def transform_chains(src, dst, n):
    """The source chains whose route targets fit under the target's
    truncation."""
    return tuple(s for s in src.chains
                 if shapes.degree(s) + (n - 1) <= dst.truncation)


def _assert_collapse_triangles(g, realization, w):
    """Collapsing into the realized hom must not depend on the chain
    representative: inserting a letter first changes nothing."""
    for p in range(1, len(w) - 1):
        shorter = shapes.delete(w, p)
        if realization.eta.at(shorter) != \
                g.gen_map(w, p).then(realization.eta.at(w)):
            raise ValueError("realized cocone breaks at %r, %d"
                             % (w, p))


def _routes(src, dst, fmaps, sigmas, realization=None):
    """The two transports around every route chain s, as maps into the
    realized hom of the target.

    They carry a generic point of the end slot: top leaves
    src(s) (x) slot(s[-1]) through the first sigma, bottom leaves
    slot(s[0]) (x) src(s) through the last one.  A family's transports
    precompose them with its own points.
    """
    used = transform_chains(src, dst, len(fmaps))
    if not used:
        raise ValueError("truncation too small for any route chain")
    if realization is None:
        realization = realize(dst)
    if realization.eta is None:
        raise ValueError("target realization is not determined; deepen "
                         "the truncation")
    routes = {}
    for s in used:
        first = _image_chain(fmaps[0], s)
        last = _image_chain(fmaps[-1], s)
        alpha_a = tuple(fm[s[0]] for fm in fmaps)
        alpha_b = tuple(fm[s[-1]] for fm in fmaps)
        wt = shapes.concat(first, alpha_b)
        wb = shapes.concat(alpha_a, last)
        _assert_collapse_triangles(dst, realization, wt)
        _assert_collapse_triangles(dst, realization, wb)
        top = tensor_then(
            (sigmas[0].at(s), identity(dst.value(alpha_b))),
            dst.lax(first, alpha_b)).then(realization.eta.at(wt))
        bottom = tensor_then(
            (identity(dst.value(alpha_a)), sigmas[-1].at(s)),
            dst.lax(alpha_a, last)).then(realization.eta.at(wb))
        routes[s] = (top, bottom)
    return routes


def axiom_errors(t, realization=None):
    """Chains where the two transports of the family disagree."""
    _check_transform_shape(t.src, t.dst, t.fmaps, t.sigmas)
    iu = unit(t.dst.backend)
    errors = []
    for a in t.src.letters:
        pt = t.eta.get(a)
        if pt is None or pt.src != iu or pt.dst != t.dst.value(t.alpha(a)):
            errors.append("family point at %r has wrong ends" % (a,))
    if errors:
        return errors
    routes = _routes(t.src, t.dst, t.fmaps, t.sigmas, realization)
    for s, (top, bottom) in routes.items():
        # sigma (x) point = (id (x) point) then (sigma (x) id)
        fs = t.src.value(s)
        top = invert(right_unitor(fs)).then(
            tensor_then((identity(fs), t.eta[s[-1]]), top))
        bottom = invert(left_unitor(fs)).then(
            tensor_then((t.eta[s[0]], identity(fs)), bottom))
        if top != bottom:
            errors.append("transports disagree around %r" % (s,))
    return errors


def identity_family(g, fmap, sigma=None):
    """The doubled transform on one morphism, carrying the target's
    unit points.  With no morphism given it doubles the restriction
    along the letter map."""
    if not g.is_pointed():
        raise ValueError("the identity family needs unit points")
    if sigma is None:
        sigma = identity_morphism(pullback(fmap, g))
    eta = {a: g.unit_map(fmap[a]) for a in fmap}
    return RelativeNatTransform(sigma.src, g, (dict(fmap), dict(fmap)),
                                (sigma, sigma), eta)


def compose_nat_transforms(t1, t2):
    """Concatenate two transforms sharing their boundary morphism; the
    new family multiplies the two old ones through the target laxity."""
    if t1.dst.values != t2.dst.values or t1.src.values != t2.src.values:
        raise ValueError("transforms do not share their ends")
    if t1.fmaps[-1] != t2.fmaps[0] or t1.sigmas[-1] != t2.sigmas[0]:
        raise ValueError("boundary morphisms disagree")
    g = t1.dst
    iu = unit(g.backend)
    eta = {}
    for a in t1.src.letters:
        left, right = t1.alpha(a), t2.alpha(a)
        if shapes.concat(left, right) not in g.values:
            raise ValueError("truncation too small for the composite "
                             "family at %r" % (a,))
        eta[a] = invert(left_unitor(iu)).then(
            tensor_then((t1.eta[a], t2.eta[a]), g.lax(left, right)))
    return RelativeNatTransform(t1.src, g,
                                t1.fmaps + t2.fmaps[1:],
                                t1.sigmas + t2.sigmas[1:], eta)


# ---------------------------------------------------------------------------
# the classifying object of families


@dataclass
class NatObject:
    """The subobject of the product of the component slots cut out by
    the route equations, with the projections that decode its points.

    `family(k)` reads the k-th element (finset) or basis vector
    (vectq/chq) of the classifying object through the projections; on
    chq it needs that vector to be a degree-0 cycle, as every point
    I -> X is.
    """

    backend: str
    src: Precategory
    dst: Precategory
    fmaps: tuple
    sigmas: tuple
    letters: tuple
    slots: dict        # letter -> component object
    projections: dict  # letter -> projection of the product onto its slot
    product: MObject
    obj: MObject
    include: MMorphism
    chains: tuple

    def point_family(self, x):
        """The family of points of a point x: I -> product."""
        return {a: x.then(self.projections[a]) for a in self.letters}

    def family(self, k):
        """The family of points encoded by the k-th element (finset) or
        basis vector (vectq/chq) of the classifying object."""
        return self.point_family(
            basis_point(self.obj, k).then(self.include))

    def _lift(self, src, maps):
        """The map src -> obj whose composite into the slot of each letter
        a is maps[a], or None when there is none."""
        try:
            h, _ = solve_map(src, self.obj, [], [
                (self.include.then(self.projections[a]), maps[a])
                for a in self.letters])
        except NoSolution:
            return None
        return h

    def member(self, family):
        """Whether a family of points lies in the classifying object,
        decided against the inclusion (not by rerunning the routes).
        Raises ValueError at a letter whose point has wrong ends."""
        iu = unit(self.backend)
        for a in self.letters:
            pt = family.get(a)
            if pt is None or pt.src != iu or pt.dst != self.slots[a]:
                raise ValueError("family point at %r has wrong ends" % (a,))
        return self._lift(iu, family) is not None


def nat_transform_object(src, dst, fmaps, sigmas):
    """The classifying object of route-consistent families.

    Every basis element of every source value contributes one equation
    per chain that fits under the target truncation; the object is the
    agreement subobject of the product of the slots: around a chain s,
    the top route on the slot of s[-1] agrees with the bottom route on
    the slot of s[0] at every point of the source value.
    """
    _check_transform_shape(src, dst, fmaps, sigmas)
    routes = _routes(src, dst, fmaps, sigmas)
    letters = src.letters
    slots = {a: dst.value(tuple(fm[a] for fm in fmaps)) for a in letters}
    prod, projs = product([slots[a] for a in letters], dst.backend)
    proj = dict(zip(letters, projs))
    obj, include = agreement(prod, [
        (tensor_then((identity(src.value(s)), proj[s[-1]]), top),
         tensor_then((proj[s[0]], identity(src.value(s))), bottom))
        for s, (top, bottom) in routes.items()])
    return NatObject(dst.backend, src, dst, tuple(fmaps), tuple(sigmas),
                     letters, slots, proj, prod, obj, include,
                     tuple(routes))


def nat_pairing(n1, n2):
    """The canonical map from the tensor of two classifying objects to
    the classifying object of the concatenated shape.

    Returns (composite NatObject, map).  At each letter the map tensors
    the two slot components and multiplies them through the target
    laxity, then lifts through the composite inclusion; pairs whose
    product falls outside the composite object do not exist, and finding
    one raises.
    """
    if n1.dst.values != n2.dst.values:
        raise ValueError("classifying objects target different "
                         "precategories")
    if n1.fmaps[-1] != n2.fmaps[0] or n1.sigmas[-1] != n2.sigmas[0]:
        raise ValueError("boundary morphisms disagree")
    g = n1.dst
    laxes = {}
    for a in n1.letters:
        key = (tuple(fm[a] for fm in n1.fmaps),
               tuple(fm[a] for fm in n2.fmaps))
        if shapes.concat(*key) not in g.values:
            raise ValueError("truncation too small for the composite "
                             "family at %r" % (a,))
        laxes[a] = g.lax(*key)
    n3 = nat_transform_object(n1.src, n1.dst, n1.fmaps + n2.fmaps[1:],
                              n1.sigmas + n2.sigmas[1:])
    pair = n3._lift(tensor(n1.obj, n2.obj), {
        a: tensor_then((n1.include.then(n1.projections[a]),
                        n2.include.then(n2.projections[a])), laxes[a])
        for a in n1.letters})
    if pair is None:
        raise ValueError("pairing leaves the classifying object")
    return n3, pair
