"""Chains of composable letters and the deletions between them.

A chain is a tuple of letters (strings), length at least 2; its degree is
len - 1. Chains compose end to start: concat((A,x,B), (B,y,C)) shares the
middle letter once. Morphisms between chains are generated by deleting
inner letters; thanks to the simplicial identities a composite is exactly
determined by which positions survive, so a morphism s -> t is stored as
the strictly increasing tuple of kept positions (endpoints always kept,
letters matching).

Position conventions used everywhere downstream:
- letter indices run 0..n for a degree-n chain, inner ones are 1..n-1;
- a cut tuple is a strictly increasing tuple of inner indices; cutting at c
  splits into parts sharing the letter at c;
- the gap g (between letters g-1 and g) lies inside exactly one part of any
  cut tuple, which is where a deleted letter gets reinserted.
"""

import itertools
from dataclasses import dataclass


def degree(s):
    return len(s) - 1


def is_letter(a):
    """Letters are strings, or tuples of letters (pair letters show up
    under the slotwise tensor)."""
    if isinstance(a, str):
        return True
    return isinstance(a, tuple) and len(a) > 0 and all(
        is_letter(x) for x in a)


def is_chain(s):
    return isinstance(s, tuple) and len(s) >= 2 and all(
        is_letter(a) for a in s)


def endpoints(s):
    return s[0], s[-1]


def delete(s, p):
    if not 1 <= p <= len(s) - 2:
        raise ValueError("can only delete inner letters")
    return s[:p] + s[p + 1:]


def concat(s, t):
    if s[-1] != t[0]:
        raise ValueError("chains %r and %r do not compose" % (s, t))
    return s + t[1:]


@dataclass(frozen=True)
class Del:
    """A morphism src -> dst deleting the letters not listed in kept."""

    src: tuple
    dst: tuple
    kept: tuple

    def __post_init__(self):
        if len(self.kept) != len(self.dst):
            raise ValueError("kept positions do not match the target")
        if self.kept[0] != 0 or self.kept[-1] != len(self.src) - 1:
            raise ValueError("endpoints must survive")
        if any(a >= b for a, b in zip(self.kept, self.kept[1:])):
            raise ValueError("kept positions must increase")
        if tuple(self.src[i] for i in self.kept) != self.dst:
            raise ValueError("kept letters do not spell the target")

    def deleted(self):
        keptset = set(self.kept)
        return tuple(p for p in range(len(self.src)) if p not in keptset)

    def then(self, other):
        if self.dst != other.src:
            raise ValueError("deletion composition mismatch")
        return Del(self.src, other.dst,
                   tuple(self.kept[i] for i in other.kept))


def del_single(s, p):
    """The generating deletion removing the inner letter at p."""
    kept = tuple(i for i in range(len(s)) if i != p)
    return Del(s, delete(s, p), kept)


def del_singles(d):
    """A composite deletion as generating deletions, highest position first.

    Deleting from the highest position down keeps the remaining indices
    stable, so the positions can be read straight off d.deleted().
    """
    out = []
    cur = d.src
    for p in sorted(d.deleted(), reverse=True):
        step = del_single(cur, p)
        out.append(step)
        cur = step.dst
    return out


def hom_set(s, t):
    """All morphisms s -> t, in a canonical order."""
    if s[0] != t[0] or s[-1] != t[-1] or len(t) > len(s):
        return ()
    inner_s = range(1, len(s) - 1)
    need = len(t) - 2
    out = []
    for kept_inner in itertools.combinations(inner_s, need):
        kept = (0,) + kept_inner + (len(s) - 1,)
        if tuple(s[i] for i in kept) == t:
            out.append(Del(s, t, kept))
    return tuple(out)


def to_initial(s):
    """The unique morphism from s down to its endpoint 2-chain."""
    return Del(s, (s[0], s[-1]), (0, len(s) - 1))


# ---------------------------------------------------------------------------
# subdivisions


def parts_of(s, cuts):
    bounds = (0,) + tuple(cuts) + (len(s) - 1,)
    return tuple(s[bounds[i]:bounds[i + 1] + 1]
                 for i in range(len(bounds) - 1))


def cut_tuples(s, k):
    """All ways to cut s into k composable parts, as cut tuples."""
    n = degree(s)
    return tuple(itertools.combinations(range(1, n), k - 1))


def subdivisions(s, k=None):
    """All subdivisions of s into k parts (or into any >= 2 parts).

    Yields (cuts, parts) pairs in a canonical order: by part count, then
    lexicographically by cut positions.
    """
    n = degree(s)
    ks = range(2, n + 1) if k is None else [k]
    for kk in ks:
        for cuts in cut_tuples(s, kk):
            yield cuts, parts_of(s, cuts)


def part_containing_gap(cuts, p):
    """The index of the part holding the gap between letters p-1 and p."""
    bounds = (0,) + tuple(cuts)
    j = 0
    for i, c in enumerate(bounds):
        if c < p:
            j = i
    return j


def reinsert(s, cuts, p):
    """Track a deletion through a subdivision.

    s is the longer chain, p the deleted position, cuts a cut tuple of
    delete(s, p). Returns (big_cuts, part_index, relative_position): the
    matching cut tuple of s, which part of it absorbed the letter, and
    where inside that part the letter sits.
    """
    j = part_containing_gap(cuts, p)
    big_cuts = tuple(c if c < p else c + 1 for c in cuts)
    bounds = (0,) + tuple(big_cuts) + (len(s) - 1,)
    rel = p - bounds[j]
    return big_cuts, j, rel


# ---------------------------------------------------------------------------
# chain enumeration


def all_chains(letters, max_degree):
    letters = sorted(letters)
    out = []
    for n in range(1, max_degree + 1):
        for word in itertools.product(letters, repeat=n + 1):
            out.append(word)
    return tuple(out)
