"""Precategories: values on chains, structure maps against deletions,
laxity maps along concatenation, and optional unit points.

A precategory F over a letter set X assigns an M-object to every stored
chain (degree 1 up to the truncation), a structure map
F(sigma): F(t) -> F(s) to every generating deletion sigma: s -> t, and a
laxity map F(s) (x) F(t) -> F(concat(s, t)) to every composable pair whose
concatenation is still stored. Composite structure maps are built from the
generators; `validate` checks the simplicial coherence that makes this
unambiguous, plus naturality and associativity of the laxity.

Pointed means units I -> F((a, a)) are present. No axiom is imposed on
them here; `check_unital` reports exactly which unit constraints hold and
which fail, and the unitalization machinery consumes that report.

The stored chain set is explicit, which lets the same structure carry
join-shaped carriers (module bimodules) and other partial shapes: the only
closure requirements are under inner deletions and under the laxity keys
present.

A precategory is built whole by one `make_precategory` call and never
patched: it is frozen, and `expected_laxity_keys` reads only chains, so a
builder has its laxity keys first. `spread` builds every 2-constant one.

A map out of an empty object is the one initial map: a precategory and a
morphism store maps only where the source is nonempty, and the accessors
return the initial map at a key left out that way. `values` stays whole,
as the chains are read off its keys.
"""

import itertools
from dataclasses import dataclass

from . import shapes
from .base import (
    empty, identity, is_isomorphism, is_weak_equivalence, tensor, tensor_mor,
    unit, left_unitor, right_unitor, zero_map,
)


@dataclass(frozen=True)
class Precategory:
    backend: str
    letters: tuple
    truncation: int
    chains: tuple
    values: dict    # chain -> value, empty values included
    maps: dict      # (chain, inner position) -> structure map into it
    laxity: dict    # (s, t) -> map out of values[s] (x) values[t]
    units: dict = None
    split: tuple = None

    def value(self, s):
        return self.values[s]

    def gen_map(self, s, p):
        """The structure map F(delete(s, p)) -> F(s)."""
        if (s, p) in self.maps or not 0 < p < len(s) - 1 \
                or self.values[shapes.delete(s, p)].size():
            return self.maps[(s, p)]
        return zero_map(self.values[shapes.delete(s, p)], self.values[s])

    def structure(self, d):
        """The structure map F(d.dst) -> F(d.src) for any deletion d."""
        out = identity(self.values[d.dst])
        for step in reversed(shapes.del_singles(d)):
            out = out.then(self.gen_map(step.src, step.deleted()[0]))
        return out

    def cosegal_map(self, s):
        """The canonical map from the endpoint 2-chain value into F(s)."""
        return self.structure(shapes.to_initial(s))

    def lax(self, s, t):
        if (s, t) in self.laxity or s[-1] != t[0] \
                or self.values[s].size() and self.values[t].size():
            return self.laxity[(s, t)]
        return zero_map(empty(self.backend),
                        self.values[shapes.concat(s, t)])

    def lax_multi(self, parts):
        """The laxity map out of the tensor of several parts, bracketed
        from the left."""
        parts = list(parts)
        if len(parts) == 1:
            return identity(self.values[parts[0]])
        out = self.lax(parts[0], parts[1])
        cur = shapes.concat(parts[0], parts[1])
        for nxt in parts[2:]:
            out = tensor_mor(out, identity(self.values[nxt])).then(
                self.lax(cur, nxt))
            cur = shapes.concat(cur, nxt)
        return out

    def is_pointed(self):
        return self.units is not None

    def unit_map(self, a):
        return self.units[a]


def make_precategory(backend, letters, truncation, values, maps, laxity,
                     units=None, split=None):
    chains = tuple(sorted(values, key=lambda s: (len(s), s)))
    return Precategory(backend, tuple(sorted(letters)), truncation, chains,
                       dict(values), _nonempty_source(maps),
                       _nonempty_source(laxity), units, split)


def _nonempty_source(entries):
    return {key: m for key, m in entries.items() if m.src.size()}


def expected_laxity_keys(chains, truncation):
    """The laxity keys of a precategory on these chains: the composable
    pairs (s, t) whose concatenation is one of the chains and within the
    truncation, in the order of chains. Each s is paired only with the
    chains that start where it ends, so s + t[1:] is their concatenation
    and len(s) + len(t) - 2 its degree."""
    chainset = set(chains)
    starting = {}
    for t in chains:
        starting.setdefault(t[0], []).append(t)
    return [(s, t) for s in chains for t in starting.get(s[-1], ())
            if len(s) + len(t) - 2 <= truncation and s + t[1:] in chainset]


def split_admissible(split, s):
    """No left-side letter may follow a right-side letter."""
    left, right = split
    seen_right = False
    for a in s:
        if a in right:
            seen_right = True
        elif seen_right:
            return False
    return True


def validate_diagram(pc):
    """All defects of the underlying bare chain diagram, as readable
    strings: chains and their values (admissible for the split, when one
    is set), the structure map generators and their ends, and the
    simplicial identities between them.

    Laxity and units are not looked at, so this is the whole check for a
    diagram with empty laxity; `validate` runs it first.
    """
    errors = []
    chainset = set(pc.chains)
    letterset = set(pc.letters)
    for s in pc.chains:
        if not shapes.is_chain(s):
            errors.append("not a chain: %r" % (s,))
            continue
        if not set(s) <= letterset:
            errors.append("chain %r uses unknown letters" % (s,))
        if shapes.degree(s) > pc.truncation:
            errors.append("chain %r exceeds the truncation" % (s,))
        if s not in pc.values:
            errors.append("chain %r has no value" % (s,))
            continue
        if pc.values[s].backend != pc.backend:
            errors.append("value at %r is on the wrong backend" % (s,))
        if pc.split is not None and not split_admissible(pc.split, s):
            errors.append("chain %r is not admissible for the split" % (s,))
    if set(pc.values) != chainset:
        errors.append("values and chain list disagree")
    if errors:
        return errors
    # structure map generators and their sources
    expected_maps = set()
    for s in pc.chains:
        for p in range(1, len(s) - 1):
            t = shapes.delete(s, p)
            if t not in chainset:
                errors.append(
                    "chain %r lacks its deletion %r at %d" % (s, t, p))
                continue
            expected_maps.add((s, p))
            m = pc.maps.get((s, p))
            if m is None:
                if pc.values[t].size():
                    errors.append("missing structure map at %r, %d" % (s, p))
            elif m.src != pc.values[t] or m.dst != pc.values[s]:
                errors.append("structure map at %r, %d has wrong ends"
                              % (s, p))
    for key in pc.maps:
        if key not in expected_maps:
            errors.append("unexpected structure map key %r" % (key,))
    if errors:
        return errors
    # simplicial coherence: both orders of a double deletion agree
    for s in pc.chains:
        n = len(s)
        for p in range(1, n - 1):
            for q in range(p + 1, n - 1):
                t_q = shapes.delete(s, q)
                if not pc.values[shapes.delete(t_q, p)].size():
                    continue
                t_p = shapes.delete(s, p)
                route_a = pc.gen_map(t_q, p).then(pc.gen_map(s, q))
                route_b = pc.gen_map(t_p, q - 1).then(pc.gen_map(s, p))
                if route_a != route_b:
                    errors.append(
                        "structure maps break the simplicial identity at "
                        "%r positions %d, %d" % (s, p, q))
    return errors


def validate(pc):
    """All structural defects of a precategory, as readable strings.

    Laxity and units are checked only once `validate_diagram` finds the
    underlying diagram sound.
    """
    errors = validate_diagram(pc)
    if errors:
        return errors
    chainset = set(pc.chains)
    # laxity keys, ends, naturality, associativity
    expected_lax = set(expected_laxity_keys(pc.chains, pc.truncation))
    missing = {(s, t) for s, t in expected_lax - set(pc.laxity)
               if pc.values[s].size() and pc.values[t].size()}
    extra = set(pc.laxity) - expected_lax
    if missing:
        errors.append("missing laxity keys %r" % (sorted(missing),))
    if extra:
        errors.append("unexpected laxity keys %r" % (sorted(extra),))
    present = expected_lax - missing
    stored = expected_lax & set(pc.laxity)
    # a square reads only entries with the right ends; the initial map at
    # a key left out has them by construction
    wrong = [(s, t) for (s, t) in sorted(stored)
             if pc.laxity[(s, t)].src != tensor(pc.values[s], pc.values[t])
             or pc.laxity[(s, t)].dst != pc.values[shapes.concat(s, t)]]
    errors += ["laxity at %r has wrong ends" % (key,) for key in wrong]
    if wrong:
        return errors
    # each laxity now starts on the tensor of its parts' values, so the
    # squares take their tensored ends from the laxity sources
    for (s, t) in sorted(present):
        st = shapes.concat(s, t)
        ds = shapes.degree(s)
        for p in range(1, len(s) - 1):
            s2 = shapes.delete(s, p)
            if (s2, t) not in pc.laxity:
                continue
            phi = pc.lax(s, t)
            left = tensor_mor(pc.gen_map(s, p), identity(pc.values[t]),
                              src=pc.laxity[(s2, t)].src,
                              dst=phi.src).then(phi)
            right = pc.laxity[(s2, t)].then(pc.gen_map(st, p))
            if left != right:
                errors.append("laxity at %r not natural in the left part "
                              "at %d" % ((s, t), p))
        for p in range(1, len(t) - 1):
            t2 = shapes.delete(t, p)
            if (s, t2) not in pc.laxity:
                continue
            phi = pc.lax(s, t)
            left = tensor_mor(identity(pc.values[s]), pc.gen_map(t, p),
                              src=pc.laxity[(s, t2)].src,
                              dst=phi.src).then(phi)
            right = pc.laxity[(s, t2)].then(pc.gen_map(st, ds + p))
            if left != right:
                errors.append("laxity at %r not natural in the right part "
                              "at %d" % ((s, t), p))
    # the square at (s, t, u) starts on F(s) (x) F(t) (x) F(u), so it is
    # checked also where F(concat(s, t)) is empty; the tensor is strictly
    # associative, so one source serves both bracketings
    for (s, t) in sorted(stored):
        st = shapes.concat(s, t)
        for u in pc.chains:
            if t[-1] != u[0] or (st, u) not in present:
                continue
            tu = shapes.concat(t, u)
            if (t, u) not in pc.laxity or (s, tu) not in present:
                continue
            src = tensor(pc.laxity[(s, t)].src, pc.values[u])
            outer_l, outer_r = pc.lax(st, u), pc.lax(s, tu)
            left = tensor_mor(pc.laxity[(s, t)], identity(pc.values[u]),
                              src=src, dst=outer_l.src).then(outer_l)
            right = tensor_mor(identity(pc.values[s]), pc.laxity[(t, u)],
                               src=src, dst=outer_r.src).then(outer_r)
            if left != right:
                errors.append("laxity not associative at %r"
                              % ((s, t, u),))
    if pc.units is not None:
        for a in pc.letters:
            if (a, a) not in chainset:
                errors.append("pointed but chain %r is missing" % ((a, a),))
                continue
            ua = pc.units.get(a)
            if ua is None:
                errors.append("missing unit at %r" % (a,))
            elif ua.src != unit(pc.backend) or ua.dst != pc.values[(a, a)]:
                errors.append("unit at %r has wrong ends" % (a,))
        for a in pc.units:
            if a not in set(pc.letters):
                errors.append("unit at unknown letter %r" % (a,))
    return errors


def _finish(errors, strict):
    if strict and errors:
        raise ValueError("; ".join(errors))
    return errors


# ---------------------------------------------------------------------------
# unit constraints


def unit_constraints(pc):
    """Every unit law instance a pointed precategory must satisfy.

    Yields (side, letter, s, p, z) where z = concat of the unit 2-chain
    with s on the given side, and p runs over every position whose deletion
    maps z back onto s on the nose.
    """
    if not pc.is_pointed():
        return
    chainset = set(pc.chains)
    for s in pc.chains:
        a, b = shapes.endpoints(s)
        z_l = shapes.concat((a, a), s)
        if z_l in chainset:
            for p in range(1, len(z_l) - 1):
                if shapes.delete(z_l, p) == s:
                    yield ("l", a, s, p, z_l)
        z_r = shapes.concat(s, (b, b))
        if z_r in chainset:
            for p in range(1, len(z_r) - 1):
                if shapes.delete(z_r, p) == s:
                    yield ("r", b, s, p, z_r)


@dataclass(frozen=True)
class UnitFinding:
    """One violated unit constraint (side, letter, s, p, z) with its two
    parallel maps out of I (x) F(s), or F(s) (x) I on the right side, as
    `unit_constraint_maps` builds them."""

    side: str
    letter: object
    s: tuple
    p: int
    z: tuple
    first: object
    second: object

    @property
    def constraint(self):
        return (self.side, self.letter, self.s, self.p, self.z)


def _unit_shared_maps(pc, side, a, s):
    """The first map of every unit constraint at (side, s), which is
    (u(a) (x) 1) then lax((a, a), s) or its mirror, and the unitor that
    starts each second map; they share the unitor's source if the unit
    map starts on I. F(aa) (x) F(s) is built, so that `then` checks the
    laxity's source."""
    fs, u = pc.values[s], pc.unit_map(a)
    if side == "l":
        unitor = left_unitor(fs)
        factors, phi = (u, identity(fs)), pc.lax((a, a), s)
    else:
        unitor = right_unitor(fs)
        factors, phi = (identity(fs), u), pc.lax(s, (a, a))
    src = unitor.src if u.src == unit(pc.backend) else None
    return tensor_mor(*factors, src=src).then(phi), unitor


def unit_constraint_maps(pc, con):
    """The two parallel maps of a unit constraint: the first map of its
    (side, s), and the unitor then gen_map(z, p)."""
    side, a, s, p, z = con
    first, unitor = _unit_shared_maps(pc, side, a, s)
    return first, unitor.then(pc.gen_map(z, p))


def check_unital(pc):
    """The violated unit constraints of a pointed precategory, one
    `UnitFinding` each, in the order of `unit_constraints`.

    The first map and the unitor depend on (side, s) only, and the
    constraints of one (side, s) come together: each group builds them
    once, and each position p builds only its second map. A constraint
    at an empty F(s) holds: both of its maps start on I (x) 0 = 0, and
    there is one map out of it, so neither is built.
    """
    if not pc.is_pointed():
        raise ValueError("check_unital needs a pointed precategory")
    bad = []
    for (side, s), group in itertools.groupby(
            unit_constraints(pc), key=lambda con: (con[0], con[2])):
        if not pc.values[s].size():
            continue
        group = list(group)
        first, unitor = _unit_shared_maps(pc, side, group[0][1], s)
        for _, a, _, p, z in group:
            second = unitor.then(pc.gen_map(z, p))
            if first != second:
                bad.append(UnitFinding(side, a, s, p, z, first, second))
    return bad


# ---------------------------------------------------------------------------
# morphisms of precategories


@dataclass
class PrecatMorphism:
    src: Precategory
    dst: Precategory
    components: dict  # chain -> MMorphism, where its source is nonempty

    def __post_init__(self):
        self.components = _nonempty_source(self.components)

    def at(self, s):
        if s in self.components or self.src.values[s].size():
            return self.components[s]
        return zero_map(self.src.values[s], self.dst.values[s])

    def then(self, other):
        """Slotwise composition."""
        if self.dst.values != other.src.values:
            raise ValueError("precategory morphism composition mismatch")
        return PrecatMorphism(self.src, other.dst, {
            s: f.then(other.at(s)) for s, f in self.components.items()})


def identity_morphism(pc):
    return PrecatMorphism(pc, pc, {s: identity(pc.values[s])
                                   for s in pc.chains if pc.values[s].size()})


def validate_morphism(alpha):
    """Naturality, monoidality and unit preservation of a morphism."""
    errors = []
    f, g = alpha.src, alpha.dst
    if f.chains != g.chains:
        errors.append("source and target store different chains")
        return errors
    for s in f.chains:
        c = alpha.components.get(s)
        if c is None:
            if f.values[s].size():
                errors.append("missing component at %r" % (s,))
        elif c.src != f.values[s] or c.dst != g.values[s]:
            errors.append("component at %r has wrong ends" % (s,))
    if errors:
        return errors
    for (s, p) in f.maps:
        t = shapes.delete(s, p)
        if alpha.at(t).then(g.gen_map(s, p)) != \
                f.gen_map(s, p).then(alpha.at(s)):
            errors.append("not natural at %r, %d" % (s, p))
    for (s, t) in f.laxity:
        st = shapes.concat(s, t)
        left = tensor_mor(alpha.at(s), alpha.at(t)).then(g.lax(s, t))
        right = f.lax(s, t).then(alpha.at(st))
        if left != right:
            errors.append("not monoidal at %r" % ((s, t),))
    if f.is_pointed() and g.is_pointed():
        for a in f.letters:
            if f.unit_map(a).then(alpha.at((a, a))) != g.unit_map(a):
                errors.append("unit not preserved at %r" % (a,))
    return errors


def is_levelwise_weak_equivalence(alpha):
    return all(is_weak_equivalence(alpha.at(s)) for s in alpha.src.chains)


def is_levelwise_isomorphism(alpha):
    return all(is_isomorphism(alpha.at(s)) for s in alpha.src.chains)


def is_easy_weak_equivalence(alpha):
    """Weak equivalence on the degree-1 components only.  Coarser than the
    levelwise check: higher chains may change arbitrarily."""
    return all(
        is_weak_equivalence(alpha.at(s)) for s in alpha.src.chains if len(s) == 2
    )


# ---------------------------------------------------------------------------
# strict categories as precategories


@dataclass
class StrictCategory:
    """A finite strict category enriched in one of the backends: hom objects,
    a diagrammatic composition map per triple, an identity point per
    object."""

    backend: str
    objects: tuple
    homs: dict    # (a, b) -> MObject
    comps: dict   # (a, b, c) -> MMorphism from homs[a,b] (x) homs[b,c]
    idpoints: dict  # a -> MMorphism from the monoidal unit


def validate_strict_category(cat, strict=False):
    obs = cat.objects
    errors = ["missing hom at %r" % (pair,)
              for pair in itertools.product(obs, repeat=2)
              if pair not in cat.homs]
    if errors:
        return _finish(errors, strict)
    for a, b, c in itertools.product(obs, repeat=3):
        m = cat.comps.get((a, b, c))
        if m is None:
            errors.append("missing composition at %r" % ((a, b, c),))
        elif m.src != tensor(cat.homs[(a, b)], cat.homs[(b, c)]) \
                or m.dst != cat.homs[(a, c)]:
            errors.append("composition at %r has wrong ends" % ((a, b, c),))
    if errors:
        return _finish(errors, strict)
    for a, b, c, d in itertools.product(obs, repeat=4):
        left = tensor_mor(cat.comps[(a, b, c)], identity(
            cat.homs[(c, d)])).then(cat.comps[(a, c, d)])
        right = tensor_mor(identity(cat.homs[(a, b)]),
                           cat.comps[(b, c, d)]).then(cat.comps[(a, b, d)])
        if left != right:
            errors.append("composition not associative at %r"
                          % ((a, b, c, d),))
    for a in obs:
        e = cat.idpoints.get(a)
        if e is None or e.src != unit(cat.backend) \
                or e.dst != cat.homs[(a, a)]:
            errors.append("identity point at %r missing or mis-typed" % (a,))
            continue
        for b in obs:
            h = cat.homs[(a, b)]
            lu = tensor_mor(e, identity(h)).then(cat.comps[(a, a, b)])
            if lu != left_unitor(h):
                errors.append("left unit law fails at %r" % ((a, b),))
            h2 = cat.homs[(b, a)]
            ru = tensor_mor(identity(h2), e).then(cat.comps[(b, a, a)])
            if ru != right_unitor(h2):
                errors.append("right unit law fails at %r" % ((b, a),))
    return _finish(errors, strict)


def from_strict_category(cat, truncation):
    """The constant-on-chains precategory of a strict category: its
    spread with no replacements, units the identity points. The result is
    unital and co-Segal by construction; `validate` and `check_unital`
    confirm rather than assume this."""
    validate_strict_category(cat, strict=True)
    letters = tuple(sorted(cat.objects))
    return spread(cat.backend, letters, truncation,
                  shapes.all_chains(letters, truncation), cat.homs,
                  cat.comps, {}, {a: cat.idpoints[a] for a in letters})


def spread(backend, letters, truncation, chains, homs, comps, replacements,
           units):
    """The 2-constant spread of a composition: a chain from a to b takes
    homs[(a, b)], or f.src in degree 1 when replacements has f at (a, b).
    Structure maps are f from degree 2 down to degree 1 and identities
    elsewhere; the laxity is comps, precomposed with f on each side that
    still sits in degree 1.
    """
    def repl(s):
        return replacements.get((s[0], s[-1])) if len(s) == 2 else None

    values = {s: homs[(s[0], s[-1])] if repl(s) is None else repl(s).src
              for s in chains}
    maps = {(s, p): repl(shapes.delete(s, p)) or identity(values[s])
            for s in chains for p in range(1, len(s) - 1)}
    laxity = {}
    for s, t in expected_laxity_keys(chains, truncation):
        phi = comps[(s[0], s[-1], t[-1])]
        if repl(s) or repl(t):
            phi = tensor_mor(repl(s) or identity(values[s]),
                             repl(t) or identity(values[t])).then(phi)
        laxity[(s, t)] = phi
    return make_precategory(backend, letters, truncation, values, maps,
                            laxity, units=units)
