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
are two-sided versions checked against their restrictions.  The split
orientation matters: chains whose letters step from the right block
back into the left block are not part of the shape at all, so the
represented data can only feed forward.  (The checker takes that as the
definition of the forbidden direction; a chain in the other order is
rejected by the shape, not tested for emptiness.)

Relative transformations between morphism lists sigma_1..sigma_n carry
one point per letter, valued in the target at the chain of letter
images.  The two transport routes of such a point around a chain must
agree after collapsing into the realized hom; the object classifying
all such families is cut out of the product of the component slots by
exactly those route equations, one per basis element of every source
value that still fits under the truncation.
"""

import itertools
from dataclasses import dataclass

from . import ratmat, shapes
from .base import (
    MMorphism, MObject, chq_map, chq_obj, empty, identity, invert,
    symmetry, tensor, tensor_mor, tensor_multi, unit,
    right_unitor, left_unitor,
)
from .colim import coproduct
from .precat import (
    Precategory, PrecatMorphism, expected_laxity_keys, make_precategory,
    split_admissible, validate, validate_morphism,
)
from .adjoints import _image_chain, pullback, realize

MARKER = "*"


# ---------------------------------------------------------------------------
# the slotwise tensor and its unit


def _unzip(s):
    return tuple(a for a, _ in s), tuple(b for _, b in s)


def unit_precat(backend, truncation, letter=MARKER):
    """The one-letter precategory with every value the monoidal unit."""
    iu = unit(backend)
    values = {s: iu for s in shapes.all_chains((letter,), truncation)}
    maps = {(s, p): identity(iu)
            for s in values for p in range(1, len(s) - 1)}
    pc = make_precategory(backend, (letter,), truncation, values, maps, {},
                          units={letter: identity(iu)})
    for key in expected_laxity_keys(pc):
        pc.laxity[key] = left_unitor(iu)
    return pc


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
    values = {}
    maps = {}
    for s in shapes.all_chains(letters, f.truncation):
        s1, s2 = _unzip(s)
        values[s] = tensor(f.value(s1), g.value(s2))
        for p in range(1, len(s) - 1):
            maps[(s, p)] = tensor_mor(f.gen_map(s1, p), g.gen_map(s2, p))
    out = make_precategory(f.backend, letters, f.truncation, values, maps,
                           {})
    for (s, t) in expected_laxity_keys(out):
        s1, s2 = _unzip(s)
        t1, t2 = _unzip(t)
        mid = tensor_mor(
            tensor_mor(identity(f.value(s1)), symmetry(g.value(s2),
                                                       f.value(t1))),
            identity(g.value(t2)))
        out.laxity[(s, t)] = mid.then(
            tensor_mor(f.lax(s1, t1), g.lax(s2, t2)))
    if f.is_pointed() and g.is_pointed():
        out.units = {}
        for (a, b) in letters:
            iu = unit(f.backend)
            out.units[(a, b)] = invert(left_unitor(iu)).then(
                tensor_mor(f.unit_map(a), g.unit_map(b)))
    return out


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
    out = make_precategory(pc.backend, [table[a] for a in pc.letters],
                           pc.truncation, values, maps,
                           {(ch(s), ch(t)): m
                            for (s, t), m in pc.laxity.items()})
    if pc.is_pointed():
        out.units = {table[a]: pc.units[a] for a in pc.letters}
    if pc.split is not None:
        left, right = pc.split
        out.split = (tuple(table[a] for a in left),
                     tuple(table[a] for a in right))
    return out


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
    return PrecatMorphism(left, right,
                          {s: identity(left.values[s])
                           for s in left.chains})


def tensor_s_unitor(f, side="right"):
    """The comparison F x Un -> F (or Un x F -> F), relabeled onto F's
    own letters; components are the backend unitors."""
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
# marked precategories and endomorphism objects


@dataclass
class MarkedPrecategory:
    precat: Precategory
    mark: object

    def __post_init__(self):
        if self.mark not in set(self.precat.letters):
            raise ValueError("mark %r is not a letter" % (self.mark,))


def endomorphism(m, letter=MARKER):
    """Restrict a marked precategory to its marked letter: the one-letter
    precategory whose values sit on the constant chains."""
    return pullback({letter: m.mark}, m.precat)


def endomorphism_monoidality(m1, m2, letter=MARKER):
    """The comparison between restricting a slotwise tensor at a pair
    mark and tensoring the two restrictions.  Both sides carry the same
    values; the letters differ by the relabel pair -> (pair,)."""
    both = endomorphism(
        MarkedPrecategory(tensor_s(m1.precat, m2.precat),
                          (m1.mark, m2.mark)), letter)
    parts = relabel(tensor_s(endomorphism(m1, letter),
                             endomorphism(m2, letter)),
                    {(letter, letter): letter})
    return PrecatMorphism(both, parts,
                          {s: identity(both.values[s])
                           for s in both.chains})


# ---------------------------------------------------------------------------
# join chains and modules


def join_chains(left, right, truncation):
    out = []
    for s in shapes.all_chains(tuple(left) + tuple(right), truncation):
        if split_admissible((left, right), s):
            out.append(s)
    return tuple(out)


def _support(s, marker):
    """The left block of a join chain, with a single marker kept when
    the chain crosses over."""
    xs = tuple(a for a in s if a != marker)
    if len(xs) == len(s):
        return s
    return xs + (marker,)


def yoneda_module(f, a, marker=MARKER):
    """The module of maps into the letter a, over the join with one
    marker letter.

    On marker-free chains the module is f itself.  A chain that crosses
    into the marker block takes the value of f at its left block with
    the target letter a appended; deleting a marker letter collapses
    nothing, deleting an ordinary letter acts through f.  The laxity is
    f's own on supports, and the unit-shaped one where only markers
    multiply.
    """
    if a not in set(f.letters):
        raise ValueError("module target %r is not a letter" % (a,))
    if marker in set(f.letters):
        raise ValueError("marker %r collides with a letter" % (marker,))

    def val(s):
        if marker not in s:
            return f.value(s)
        if set(s) == {marker}:
            return unit(f.backend)
        return f.value(_support(s, marker)[:-1] + (a,))

    chains = join_chains(f.letters, (marker,), f.truncation)
    values = {s: val(s) for s in chains}
    maps = {}
    for s in chains:
        for p in range(1, len(s) - 1):
            if s[p] == marker:
                maps[(s, p)] = identity(values[s])
            elif marker not in s:
                maps[(s, p)] = f.gen_map(s, p)
            else:
                maps[(s, p)] = f.gen_map(
                    _support(s, marker)[:-1] + (a,), p)
    out = make_precategory(f.backend, f.letters + (marker,), f.truncation,
                           values, maps, {},
                           split=(f.letters, (marker,)))
    for (s, t) in expected_laxity_keys(out):
        if set(t) == {marker}:
            # the right part carries the unit
            out.laxity[(s, t)] = right_unitor(values[s])
        elif marker not in s and marker not in t:
            out.laxity[(s, t)] = f.lax(s, t)
        else:
            # s is marker-free (it ends where t starts, in the letters),
            # t crosses over: multiply through f on the supports
            out.laxity[(s, t)] = f.lax(s, _support(t, marker)[:-1] + (a,))
    if f.is_pointed():
        out.units = {b: f.unit_map(b) for b in f.letters}
        out.units[marker] = identity(unit(f.backend))
    return out


def restrict_letters(pc, letters):
    """The part of a precategory over a subset of its letters."""
    keep = set(letters)
    if not keep <= set(pc.letters):
        raise ValueError("restriction letters must be a subset")
    values = {s: pc.values[s] for s in pc.chains if set(s) <= keep}
    maps = {(s, p): m for (s, p), m in pc.maps.items() if set(s) <= keep}
    laxity = {(s, t): m for (s, t), m in pc.laxity.items()
              if set(s) <= keep and set(t) <= keep}
    out = make_precategory(pc.backend, tuple(sorted(keep)), pc.truncation,
                           values, maps, laxity)
    if pc.is_pointed():
        out.units = {a: pc.units[a] for a in keep}
    return out


def _precat_equal(p, q):
    return (p.backend == q.backend and p.letters == q.letters
            and p.truncation == q.truncation and p.values == q.values
            and p.maps == q.maps and p.laxity == q.laxity
            and p.units == q.units)


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
              "cosegal": None}
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
    rl = restrict_letters(e, left)
    rr = restrict_letters(e, right)
    if e.is_pointed() and not f.is_pointed():
        rl.units = None
    if e.is_pointed() and not g.is_pointed():
        rr.units = None
    report["restriction_left"] = _precat_equal(rl, f)
    report["restriction_right"] = _precat_equal(rr, g)
    if report["join_shape"] and report["restriction_left"] \
            and report["restriction_right"]:
        report["cosegal"] = bool(
            is_cosegal(e) and is_cosegal(f) and is_cosegal(g))
    report["passed"] = (not report["errors"] and report["join_shape"]
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
            c = sg.components.get(s)
            if c is None or c.src != src.values[s] \
                    or c.dst != dst.value(_image_chain(fm, s)):
                raise ValueError("sigma component at %r does not land on "
                                 "the image chain" % (s,))


def transform_chains(src, dst, n):
    """The source chains whose route targets fit under the target's
    truncation."""
    return tuple(s for s in src.chains
                 if shapes.degree(s) + (n - 1) <= dst.truncation)


def _route_maps(t, realization, s):
    """The two transports of the family around the chain s, as maps from
    the source value into the realized hom of the target."""
    g = t.dst
    a, b = s[0], s[-1]
    first = _image_chain(t.fmaps[0], s)
    last = _image_chain(t.fmaps[-1], s)
    fs = t.src.value(s)
    top = invert(right_unitor(fs)).then(
        tensor_mor(t.sigmas[0].at(s), t.eta[b])).then(
        g.lax(first, t.alpha(b))).then(
        realization.eta.at(shapes.concat(first, t.alpha(b))))
    bottom = invert(left_unitor(fs)).then(
        tensor_mor(t.eta[a], t.sigmas[-1].at(s))).then(
        g.lax(t.alpha(a), last)).then(
        realization.eta.at(shapes.concat(t.alpha(a), last)))
    return top, bottom


def axiom_errors(t, realization=None):
    """Chains where the two transports of the family disagree."""
    _check_transform_shape(t.src, t.dst, t.fmaps, t.sigmas)
    n = len(t.fmaps)
    iu = unit(t.dst.backend)
    errors = []
    for a in t.src.letters:
        pt = t.eta.get(a)
        if pt is None or pt.src != iu or pt.dst != t.dst.value(t.alpha(a)):
            errors.append("family point at %r has wrong ends" % (a,))
    if errors:
        return errors
    if realization is None:
        realization = realize(t.dst)
    if realization.eta is None:
        raise ValueError("target realization is not determined; deepen "
                         "the truncation")
    used = transform_chains(t.src, t.dst, n)
    if not used:
        raise ValueError("truncation too small for any route chain")
    for s in used:
        top, bottom = _route_maps(t, realization, s)
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
        back = pullback(fmap, g)
        sigma = PrecatMorphism(back, back,
                               {s: identity(back.values[s])
                                for s in back.chains})
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
        if (left, right) not in g.laxity:
            raise ValueError("truncation too small for the composite "
                             "family at %r" % (a,))
        eta[a] = invert(left_unitor(iu)).then(
            tensor_mor(t1.eta[a], t2.eta[a])).then(g.lax(left, right))
    return RelativeNatTransform(t1.src, g,
                                t1.fmaps + t2.fmaps[1:],
                                t1.sigmas + t2.sigmas[1:], eta)


# ---------------------------------------------------------------------------
# the classifying object of families


@dataclass
class NatObject:
    """The subobject of the slotwise product cut out by the route
    equations, with enough bookkeeping to decode its points."""

    backend: str
    src: Precategory
    dst: Precategory
    fmaps: tuple
    sigmas: tuple
    letters: tuple
    slots: dict        # letter -> component object
    offsets: dict      # letter -> first coordinate in the product
    product: MObject
    obj: MObject
    include: MMorphism
    chains: tuple

    def slot_point(self, a, index_or_column):
        """A point of the slot at the letter a, from an element index
        (finset) or a coefficient column (vectq/chq)."""
        iu = unit(self.backend)
        slot = self.slots[a]
        if self.backend == "finset":
            return MMorphism("finset", iu, slot,
                             mapping=(index_or_column,))
        matrix = tuple((c,) for c in index_or_column)
        if self.backend == "chq":
            return chq_map(iu, slot, matrix)
        return MMorphism("vectq", iu, slot, matrix=matrix)

    def family(self, k):
        """The family of points encoded by the k-th element (finset) or
        basis column (vectq/chq) of the classifying object."""
        if self.backend == "finset":
            flat = self.include.mapping[k]
            out = {}
            for a in reversed(self.letters):
                size = self.slots[a].size()
                out[a] = self.slot_point(a, flat % size)
                flat //= size
            return out
        return self.vector_family(
            tuple(row[k] for row in self.include.matrix))

    def vector_family(self, column):
        out = {}
        for a in self.letters:
            off = self.offsets[a]
            out[a] = self.slot_point(
                a, column[off:off + self.slots[a].size()])
        return out

    def member(self, family):
        """Whether a family of points lies in the classifying object,
        decided against the inclusion (not by rerunning the routes)."""
        if self.backend == "finset":
            flat = 0
            for a in self.letters:
                flat = flat * self.slots[a].size() + family[a].mapping[0]
            return flat in set(self.include.mapping)
        column = [ratmat.ZERO] * self.product.size()
        for a in self.letters:
            off = self.offsets[a]
            for i, row in enumerate(family[a].matrix):
                column[off + i] = row[0]
        return ratmat.solve_matrix(
            self.include.matrix, tuple((c,) for c in column)) is not None


def _product_of_slots(backend, slots, letters):
    objs = [slots[a] for a in letters]
    if backend == "finset":
        prod = tensor_multi(objs, backend)
        offsets = {}
        return prod, offsets
    prod, _ = coproduct(objs, backend)
    offsets = {}
    run = 0
    for a in letters:
        offsets[a] = run
        run += slots[a].size()
    return prod, offsets


def _assert_collapse_triangles(g, realization, w):
    """Collapsing into the realized hom must not depend on the chain
    representative: inserting a letter first changes nothing."""
    for p in range(1, len(w) - 1):
        shorter = shapes.delete(w, p)
        if realization.eta.at(shorter) != \
                g.gen_map(w, p).then(realization.eta.at(w)):
            raise ValueError("realized cocone breaks at %r, %d"
                             % (w, p))


def nat_transform_object(src, dst, fmaps, sigmas):
    """The classifying object of route-consistent families.

    Every basis element of every source value contributes one equation
    per chain that fits under the target truncation; the object is the
    subobject of the slotwise product satisfying all of them.
    """
    _check_transform_shape(src, dst, fmaps, sigmas)
    n = len(fmaps)
    backend = dst.backend
    used = transform_chains(src, dst, n)
    if not used:
        raise ValueError("truncation too small for any route chain")
    realization = realize(dst)
    if realization.eta is None:
        raise ValueError("target realization is not determined; deepen "
                         "the truncation")
    letters = src.letters
    alpha = {a: tuple(fm[a] for fm in fmaps) for a in letters}
    slots = {a: dst.value(alpha[a]) for a in letters}
    prod, offsets = _product_of_slots(backend, slots, letters)

    routes = {}
    for s in used:
        a, b = s[0], s[-1]
        first = _image_chain(fmaps[0], s)
        last = _image_chain(fmaps[-1], s)
        wt = shapes.concat(first, alpha[b])
        wb = shapes.concat(alpha[a], last)
        _assert_collapse_triangles(dst, realization, wt)
        _assert_collapse_triangles(dst, realization, wb)
        top = tensor_mor(sigmas[0].at(s), identity(slots[b])).then(
            dst.lax(first, alpha[b])).then(realization.eta.at(wt))
        bottom = tensor_mor(identity(slots[a]), sigmas[-1].at(s)).then(
            dst.lax(alpha[a], last)).then(realization.eta.at(wb))
        routes[s] = (top, bottom)

    if backend == "finset":
        sizes = [slots[a].size() for a in letters]
        index_of = {a: i for i, a in enumerate(letters)}
        kept = []
        for combo in itertools.product(*[range(k) for k in sizes]):
            ok = True
            for s in used:
                top, bottom = routes[s]
                xa = combo[index_of[s[0]]]
                xb = combo[index_of[s[-1]]]
                nfs = src.value(s).size()
                nb = slots[s[-1]].size()
                for v in range(nfs):
                    if top.mapping[v * nb + xb] != \
                            bottom.mapping[xa * nfs + v]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                flat = 0
                for i, k in enumerate(combo):
                    flat = flat * sizes[i] + k
                kept.append(flat)
        obj = MObject("finset",
                      labels=tuple(prod.labels[i] for i in kept))
        include = MMorphism("finset", obj, prod, mapping=tuple(kept))
        return NatObject(backend, src, dst, tuple(fmaps), tuple(sigmas),
                         letters, slots, offsets, prod, obj, include,
                         used)

    total = prod.size()
    rows = []
    for s in used:
        top, bottom = routes[s]
        a, b = s[0], s[-1]
        na, nb = slots[a].size(), slots[b].size()
        nfs = src.value(s).size()
        w_rows = len(top.matrix) if nfs * nb else 0
        w_rows = max(w_rows, len(bottom.matrix) if na * nfs else 0)
        for v in range(nfs):
            for r in range(w_rows):
                row = [ratmat.ZERO] * total
                for j in range(nb):
                    row[offsets[b] + j] += top.matrix[r][v * nb + j]
                for i in range(na):
                    row[offsets[a] + i] -= bottom.matrix[r][i * nfs + v]
                if any(c != ratmat.ZERO for c in row):
                    rows.append(tuple(row))
    if not rows:
        obj, include = prod, identity(prod)
        return NatObject(backend, src, dst, tuple(fmaps), tuple(sigmas),
                         letters, slots, offsets, prod, obj, include,
                         used)
    basis, free = ratmat.kernel_data(tuple(rows))
    dim = len(free)
    if backend == "vectq":
        from .base import vectq_obj, vectq_map
        obj = vectq_obj(dim)
        include = MMorphism("vectq", obj, prod,
                            matrix=basis if dim else
                            ratmat.zeros(total, 0))
        return NatObject(backend, src, dst, tuple(fmaps), tuple(sigmas),
                         letters, slots, offsets, prod, obj, include,
                         used)
    if dim == 0:
        obj = empty("chq")
        include = MMorphism("chq", obj, prod,
                            matrix=ratmat.zeros(total, 0))
    else:
        degrees = tuple(prod.degrees[i] for i in free)
        dsub = ratmat.solve_matrix(basis,
                                   ratmat.matmul(prod.diff, basis))
        if dsub is None:
            raise ValueError("route equations do not cut out a "
                             "subcomplex")
        obj = chq_obj(degrees, dsub)
        include = chq_map(obj, prod, basis)
    return NatObject(backend, src, dst, tuple(fmaps), tuple(sigmas),
                     letters, slots, offsets, prod, obj, include, used)


def nat_object_of(t):
    """The classifying object of a transform's shape."""
    return nat_transform_object(t.src, t.dst, t.fmaps, t.sigmas)


def _diagonal_pairing_matrix(g, n1, n2, n3):
    """The underlying map of products: tensor the two components at each
    letter and multiply them through the target laxity; cross-letter
    blocks vanish."""
    total1, total2, total3 = (n1.product.size(), n2.product.size(),
                              n3.product.size())
    rows = [[ratmat.ZERO] * (total1 * total2) for _ in range(total3)]
    alpha1 = {a: tuple(fm[a] for fm in n1.fmaps) for a in n1.letters}
    alpha2 = {a: tuple(fm[a] for fm in n2.fmaps) for a in n2.letters}
    for a in n1.letters:
        lax = g.lax(alpha1[a], alpha2[a])
        nu, nv = n1.slots[a].size(), n2.slots[a].size()
        for i in range(nu):
            for j in range(nv):
                col = (n1.offsets[a] + i) * total2 + n2.offsets[a] + j
                for r in range(n3.slots[a].size()):
                    rows[n3.offsets[a] + r][col] = \
                        lax.matrix[r][i * nv + j]
    return tuple(tuple(r) for r in rows)


def nat_pairing(n1, n2):
    """The canonical map from the tensor of two classifying objects to
    the classifying object of the concatenated shape.

    Returns (composite NatObject, map).  The map commutes with the
    inclusions by construction; pairs whose product falls outside the
    composite object do not exist, and finding one raises.
    """
    if n1.dst.values != n2.dst.values:
        raise ValueError("classifying objects target different "
                         "precategories")
    if n1.fmaps[-1] != n2.fmaps[0] or n1.sigmas[-1] != n2.sigmas[0]:
        raise ValueError("boundary morphisms disagree")
    g = n1.dst
    fmaps = n1.fmaps + n2.fmaps[1:]
    sigmas = n1.sigmas + n2.sigmas[1:]
    for a in n1.letters:
        key = (tuple(fm[a] for fm in n1.fmaps),
               tuple(fm[a] for fm in n2.fmaps))
        if key not in g.laxity:
            raise ValueError("truncation too small for the composite "
                             "family at %r" % (a,))
    n3 = nat_transform_object(n1.src, n1.dst, fmaps, sigmas)
    src = tensor(n1.obj, n2.obj)
    if n1.backend == "finset":
        kept = {flat: k for k, flat in enumerate(n3.include.mapping)}
        sizes1 = [n1.slots[a].size() for a in n1.letters]
        sizes2 = [n2.slots[a].size() for a in n2.letters]
        sizes3 = [n3.slots[a].size() for a in n3.letters]
        mapping = []
        for k1 in range(n1.obj.size()):
            f1 = _flat_digits(n1.include.mapping[k1], sizes1)
            for k2 in range(n2.obj.size()):
                f2 = _flat_digits(n2.include.mapping[k2], sizes2)
                digits = []
                for idx, a in enumerate(n1.letters):
                    lax = g.lax(tuple(fm[a] for fm in n1.fmaps),
                                tuple(fm[a] for fm in n2.fmaps))
                    nv = n2.slots[a].size()
                    digits.append(lax.mapping[f1[idx] * nv + f2[idx]])
                flat = 0
                for d, size in zip(digits, sizes3):
                    flat = flat * size + d
                if flat not in kept:
                    raise ValueError("pairing leaves the classifying "
                                     "object at %r" % ((k1, k2),))
                mapping.append(kept[flat])
        pairing = MMorphism("finset", src, n3.obj,
                            mapping=tuple(mapping))
    else:
        big = _diagonal_pairing_matrix(g, n1, n2, n3)
        landed = ratmat.matmul(big, ratmat.kron(n1.include.matrix,
                                                n2.include.matrix))
        coeffs = ratmat.solve_matrix(n3.include.matrix, landed)
        if coeffs is None:
            raise ValueError("pairing leaves the classifying object")
        if n1.backend == "chq":
            pairing = chq_map(src, n3.obj, coeffs)
        else:
            pairing = MMorphism("vectq", src, n3.obj, matrix=coeffs)
    return n3, pairing


def _flat_digits(flat, sizes):
    digits = []
    for size in reversed(sizes):
        digits.append(flat % size)
        flat //= size
    return tuple(reversed(digits))


# ---------------------------------------------------------------------------
# monoid level data


def check_monoid_levels(levels, mults, transitions=None):
    """Verdicts on a finite stack of one-letter levels with
    multiplication morphisms between slotwise tensors.

    levels maps a degree to a one-letter precategory (degree 0, when
    present, must be the unit precategory).  mults maps a pair (i, j) to
    a morphism from the relabeled slotwise tensor of levels i and j to
    level i+j.  transitions, when given, maps a degree n to a morphism
    from level 1 to level n; these are the maps whose weak invertibility
    upgrades the stack.
    """
    from .homotopy import is_cosegal
    from .precat import check_unital, is_easy_weak_equivalence, \
        is_levelwise_weak_equivalence
    report = {"level_errors": {}, "mult_errors": {}, "missing": [],
              "associativity": [], "unit_comparisons": [],
              "cosegal_base": None, "transition_weak": {},
              "transition_levelwise": {}}
    degrees = sorted(k for k in levels if k >= 1)
    if not degrees or degrees != list(range(1, degrees[-1] + 1)):
        report["level_errors"]["shape"] = ["levels must cover 1..m"]
        report["passed"] = False
        report["two_monoid"] = False
        return report
    top = degrees[-1]
    letter = levels[1].letters[0]
    for k, lv in sorted(levels.items()):
        errs = list(validate(lv))
        if len(lv.letters) != 1:
            errs.append("level %d is not a one-letter precategory" % k)
        elif lv.letters[0] != letter and k >= 1:
            errs.append("level %d sits over a different letter" % k)
        if lv.is_pointed():
            errs.extend("unit constraint broken: %r" % (c,)
                        for c in check_unital(lv))
        else:
            errs.append("level %d carries no unit point" % k)
        if k == 0:
            un = unit_precat(lv.backend, lv.truncation,
                             letter=lv.letters[0])
            if not _precat_equal(lv, un):
                errs.append("level 0 is not the unit precategory")
        if errs:
            report["level_errors"][k] = errs
    for i in sorted(k for k in levels):
        for j in sorted(k for k in levels):
            if 1 <= i + j <= top and (i, j) not in mults:
                report["missing"].append((i, j))
    for (i, j), m in sorted(mults.items()):
        if i not in levels or j not in levels or i + j not in levels:
            report["mult_errors"][(i, j)] = ["levels out of range"]
            continue
        expect = relabel(tensor_s(levels[i], levels[j]),
                         {(levels[i].letters[0],
                           levels[j].letters[0]): letter})
        errs = []
        if not _precat_equal(m.src, expect):
            errs.append("source is not the slotwise tensor")
        if not _precat_equal(m.dst, levels[i + j]):
            errs.append("target is not the level above")
        if not errs:
            errs = ["morphism: %s" % e for e in validate_morphism(m)]
        if errs:
            report["mult_errors"][(i, j)] = errs
    if not report["level_errors"] and not report["mult_errors"]:
        chains = levels[1].chains
        for i in degrees:
            for j in degrees:
                for k in degrees:
                    if i + j + k > top:
                        continue
                    if (i, j) not in mults or (i + j, k) not in mults \
                            or (j, k) not in mults \
                            or (i, j + k) not in mults:
                        continue
                    for s in chains:
                        left = tensor_mor(
                            mults[(i, j)].at(s),
                            identity(levels[k].value(s))).then(
                            mults[(i + j, k)].at(s))
                        right = tensor_mor(
                            identity(levels[i].value(s)),
                            mults[(j, k)].at(s)).then(
                            mults[(i, j + k)].at(s))
                        if left != right:
                            report["associativity"].append((i, j, k, s))
        if 0 in levels:
            for j in degrees:
                if (0, j) in mults:
                    for s in chains:
                        if mults[(0, j)].at(s) != \
                                left_unitor(levels[j].value(s)):
                            report["unit_comparisons"].append((0, j, s))
                if (j, 0) in mults:
                    for s in chains:
                        if mults[(j, 0)].at(s) != \
                                right_unitor(levels[j].value(s)):
                            report["unit_comparisons"].append((j, 0, s))
        report["cosegal_base"] = bool(is_cosegal(levels[1]))
    if transitions:
        for k, tr in sorted(transitions.items()):
            errs = validate_morphism(tr)
            if errs or not _precat_equal(tr.src, levels[1]) \
                    or not _precat_equal(tr.dst, levels[k]):
                report["transition_weak"][k] = False
                report["transition_levelwise"][k] = False
                continue
            report["transition_weak"][k] = is_easy_weak_equivalence(tr)
            report["transition_levelwise"][k] = \
                is_levelwise_weak_equivalence(tr)
    report["passed"] = (not report["level_errors"]
                        and not report["mult_errors"]
                        and not report["missing"]
                        and not report["associativity"]
                        and not report["unit_comparisons"])
    have_all = transitions is not None and \
        all(k in transitions for k in degrees if k >= 2)
    if not report["passed"]:
        report["two_monoid"] = False
    elif not have_all:
        report["two_monoid"] = None if report["cosegal_base"] else False
    else:
        report["two_monoid"] = bool(
            report["cosegal_base"]
            and all(report["transition_weak"].get(k)
                    for k in degrees if k >= 2))
    return report
