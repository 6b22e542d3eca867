"""Homotopical checks and the 2-constant constructions.

A precategory is co-Segal when every composite structure map from the
degree-1 slot is a backend weak equivalence; the lifting report checks the
stronger trivial-fibration property twice, once through the predicate and
once through lifting against the generating cofibrations, and the two
routes must agree.

2-constant precategories keep one object per endpoint pair on all chains
of degree 2 and up, with identity maps between them.  They support an
exact co-Segalification: factor each transition map as a cofibration
followed by a trivial fibration and re-seat the degree-1 slot on the
middle object.  The laxity on the output reuses the realized composition,
precomposed with the trivial fibration on whichever side still sits in
degree 1.  The transfer, the flattening onto a realization and the
co-Segalification all build their output with `precat.spread`.
"""

from dataclasses import dataclass

from .base import (
    degree_window, generating_cofibrations, has_rlp, identity, is_fibration,
    is_trivial_fibration, is_weak_equivalence, factorize, unit,
)
from . import shapes
from .precat import (
    PrecatMorphism, StrictCategory, from_strict_category, spread,
    validate_strict_category,
)
from .adjoints import realize


def is_cosegal(pc):
    return all(ok for _, ok in cosegal_report(pc))


def cosegal_report(pc):
    """Per-chain weak-equivalence verdicts for the composite maps out of
    the degree-1 slots, in chain order. Chains with equal composite maps
    share their verdict, which is computed once per distinct map."""
    out = []
    verdicts = {}
    for s in pc.chains:
        if len(s) > 2:
            u = pc.cosegal_map(s)
            if u not in verdicts:
                verdicts[u] = is_weak_equivalence(u)
            out.append((s, verdicts[u]))
    return out


def k_injectivity_report(pc, strong=False):
    """Check each composite structure map two ways: the trivial-fibration
    predicate, and the right lifting property against every generating
    cofibration.  The routes are computed independently and both are
    reported; `agree` is their comparison, `passed` the shared verdict.

    chq takes its generating family over the span of degrees appearing
    in the precategory.  With strong=True the report also records
    whether each single deletion step is a fibration on its own. Chains
    with equal composite maps share their verdicts, which are computed
    once per distinct map.
    """
    gens = generating_cofibrations(pc.backend, degree_window(
        [unit(pc.backend)] + [pc.value(s) for s in pc.chains]))
    entries = []
    verdicts = {}
    for s in pc.chains:
        if len(s) <= 2:
            continue
        u = pc.cosegal_map(s)
        if u not in verdicts:
            verdicts[u] = (is_trivial_fibration(u),
                           all(has_rlp(i, u) for i in gens))
        tf, rlp = verdicts[u]
        entry = {
            "chain": s,
            "trivial_fibration": tf,
            "rlp": rlp,
            "agree": tf == rlp,
            "passed": tf and rlp,
            "src_size": u.src.size(),
            "dst_size": u.dst.size(),
        }
        if strong:
            entry["steps_fibrant"] = all(
                is_fibration(pc.gen_map(s, p)) for p in range(1, len(s) - 1))
        entries.append(entry)
    return entries


def report_passes(entries):
    return all(e["agree"] and e["passed"] for e in entries)


# ---------------------------------------------------------------------------
# 2-constancy


def is_two_constant(pc):
    """Constant on chains of degree 2 and up: equal values per endpoint
    pair and identity maps between them."""
    ref = {}
    for s in pc.chains:
        if len(s) <= 2:
            continue
        pair = (s[0], s[-1])
        if pair not in ref:
            ref[pair] = pc.value(s)
        elif pc.value(s) != ref[pair]:
            return False
        if len(s) > 3:
            for p in range(1, len(s) - 1):
                if pc.gen_map(s, p) != identity(ref[pair]):
                    return False
    return True


def two_constant_values(pc):
    """The constant object per endpoint pair; raises off 2-constant
    input."""
    if not is_two_constant(pc):
        raise ValueError("not constant on degree >= 2 chains")
    out = {}
    for s in pc.chains:
        if len(s) == 3:
            out[(s[0], s[-1])] = pc.value(s)
    return out


def transition_maps(pc):
    """The map from each degree-1 slot into the shared degree >= 2 object.

    Every degree-2 chain over the pair must induce the same map, otherwise
    the transition is ambiguous and we refuse (deeper truncation forces
    agreement through the degree-3 deletions)."""
    two_constant_values(pc)
    out = {}
    for s in pc.chains:
        if len(s) != 3:
            continue
        pair = (s[0], s[-1])
        u = pc.cosegal_map(s)
        if pair in out and out[pair] != u:
            raise ValueError(
                "transition maps over %r disagree between degree-2 chains"
                % (pair,))
        out[pair] = u
    return out


# ---------------------------------------------------------------------------
# homotopy transfer


@dataclass
class TwoConstantData:
    """A strict category, a replacement slot per endpoint pair mapping
    onto each hom object, and a lift of each identity point to the
    replacement of the diagonal slot."""

    category: StrictCategory
    replacements: dict  # (a, b) -> MMorphism, dst = category hom
    unit_lifts: dict    # a -> MMorphism from the monoidal unit


def validate_two_constant_data(d):
    cat = d.category
    validate_strict_category(cat, strict=True)
    for a in cat.objects:
        for b in cat.objects:
            f = d.replacements.get((a, b))
            if f is None or f.dst != cat.homs[(a, b)]:
                raise ValueError("replacement at %r missing or mis-typed"
                                 % ((a, b),))
    for a in cat.objects:
        e = d.unit_lifts.get(a)
        if e is None or e.src != unit(cat.backend) \
                or e.dst != d.replacements[(a, a)].src:
            raise ValueError("unit lift at %r missing or mis-typed" % (a,))
        if e.then(d.replacements[(a, a)]) != cat.idpoints[a]:
            raise ValueError("unit lift at %r does not factor the identity"
                             % (a,))


def two_constant_transfer(d, truncation):
    """Spread a strict category over the chains with a chosen replacement
    in each degree-1 slot.  Degree >= 2 keeps the strict hom object, the
    transitions are the replacement maps, and all four laxity shapes
    funnel through the strict composition."""
    validate_two_constant_data(d)
    cat = d.category
    letters = tuple(sorted(cat.objects))
    return spread(cat.backend, letters, truncation,
                  shapes.all_chains(letters, truncation), cat.homs,
                  cat.comps, d.replacements,
                  {a: d.unit_lifts[a] for a in letters})


def _replacement_morphism(src, dst, replacements):
    """The levelwise map src -> dst that is the replacement in degree 1
    and the identity above."""
    return PrecatMorphism(src, dst, {
        s: replacements[(s[0], s[-1])] if len(s) == 2
        else identity(src.value(s)) for s in src.chains})


def transfer_comparison(d, truncation):
    """The levelwise map from the transfer onto the constant spread of the
    strict category: replacements in degree 1, identities above."""
    return _replacement_morphism(two_constant_transfer(d, truncation),
                                 from_strict_category(d.category, truncation),
                                 d.replacements)


# ---------------------------------------------------------------------------
# the 2-constant spread of a realization


def _realize_strict(pc):
    """realize(pc), which must give a strict category: else a ValueError
    says why not, naming the triples whose composition the truncated data
    does not pin down and the pairs of letters that no chain spans."""
    r = realize(pc)
    if r.category is not None:
        return r
    reasons = []
    undetermined = [key for key, ok in r.determined.items() if not ok]
    if undetermined:
        reasons.append("realization composition is not determined at %r"
                       % (undetermined,))
    missing = [(a, b) for a in pc.letters for b in pc.letters
               if (a, b) not in r.homs]
    if missing:
        reasons.append("realization has no hom at the pairs %r, as no "
                       "chain spans them" % (missing,))
    if not pc.is_pointed():
        reasons.append("realization of an unpointed precategory has no "
                       "identity points")
    raise ValueError("; ".join(reasons))


def associated_two_constant(pc):
    """Flatten everything above degree 1 onto the realized hom objects.

    Returns (flat, rho, eps): rho keeps every degree-1 slot on the nose
    and sends higher chains along the realization cocone; eps collapses
    the degree-1 slots too.  Their composite is the realization unit."""
    r = _realize_strict(pc)
    fs = {(a, b): r.eta.at((a, b)) for a in pc.letters for b in pc.letters}
    flat = spread(pc.backend, pc.letters, pc.truncation, pc.chains, r.homs,
                  r.comps, fs, dict(pc.units))
    rho = PrecatMorphism(pc, flat, {
        s: identity(pc.value(s)) if len(s) == 2 else r.eta.at(s)
        for s in pc.chains})
    return flat, rho, _replacement_morphism(flat, r.constant, fs)


# ---------------------------------------------------------------------------
# co-Segalification of 2-constant precategories


def cosegalify_two_constant(pc):
    """Factor each transition map as cofibration then trivial fibration
    and move the degree-1 slot to the middle object.

    Needs the realization to land on the stored constant objects with an
    identity cocone there (deep enough truncation), so the realized
    composition can serve as the glue.  Returns (out, eta) with eta the
    levelwise map that is the cofibration in degree 1 and the identity
    above."""
    if pc.truncation < 2:
        raise ValueError("truncation below 2 carries no transition to fix")
    if not pc.is_pointed():
        raise ValueError("need a pointed input")
    trans = transition_maps(pc)
    consts = {pair: u.dst for pair, u in trans.items()}
    r = _realize_strict(pc)
    for s in pc.chains:
        pair = (s[0], s[-1])
        want = trans[pair] if len(s) == 2 else identity(consts[pair])
        if r.eta.at(s) != want:
            raise ValueError(
                "realization at %r does not sit on the constant object; "
                "deepen the truncation" % (pair,))
    cofs = {}
    tfibs = {}
    for pair, u in trans.items():
        c, t = factorize(u)
        cofs[pair] = c
        tfibs[pair] = t
    out = spread(pc.backend, pc.letters, pc.truncation, pc.chains, consts,
                 r.comps, tfibs, {a: pc.unit_map(a).then(cofs[(a, a)])
                                  for a in pc.letters})
    return out, _replacement_morphism(pc, out, cofs)
