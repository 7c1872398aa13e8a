"""Incremental forbidden-letter trackers for prefix-pruned enumeration.

Growing an avoider prefix letter by letter only ever creates a pattern
occurrence that ends at the newly appended letter, so pruning needs one
question answered per candidate letter c: does some partial occurrence of
p[:-1] in the prefix accept c as the final pattern letter?  A *tracker*
answers that question from a small state carried along the prefix:

    state0                  state of the empty prefix
    forbid(state, c)        appending c would complete the pattern
    step(state, c)          state of the prefix extended by c
    count_allowed(state, t) number of allowed letters in 0..t

Every state is a tuple whose last entry is the *dead mask*: bit c is set
exactly when appending c would complete the pattern.  So ``forbid`` and
``count_allowed`` are one bit test and one popcount, shared by every
tracker, and each tracker only states its ``step``.  Dead letters stay
dead as the prefix grows, so a step only ever ORs bits in.  A mask may
be negative: ``-1 << (t + 1)`` kills every letter above t, which is how
a summary of the form "dead above the smallest x" is kept, and
``_below(f)`` kills every letter below f for "dead below the largest x";
taking the min or max of such bounds is then ``dead |= ...``.

The counting engine merges prefixes whose states are equal, so a state
should keep no more than the future depends on.  The canonical tracker,
used for every pattern without a hand summary, keeps the set of partial
embeddings of the pattern, each reduced to the values and intervals its
remaining letters depend on.  For the patterns that dominate the
counting workload there are hand-derived summaries below.  The
enumeration test suite checks every hand summary, and the canonical
tracker on every pattern of length at most 4, against a walk that asks
the containment search directly.

State components used repeatedly (letters are small, so sets of letters
live in int bitmasks):

    seen     bitmask of letters present in the prefix
    rep      bitmask of letters present at least twice
    maxv     largest letter so far, -1 when empty
    dead     the dead mask, always the last entry
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import normalize_pattern


class Tracker(NamedTuple):
    state: object
    forbid: Callable
    step: Callable
    count_allowed: Callable


def _lsb(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _below(c: int) -> int:
    return (1 << c) - 1


def _between(lo: int, hi: int) -> int:
    return _below(hi) & ~_below(lo + 1)


def forbid(s, c: int) -> int:
    """1 when appending c to a prefix in state s completes the pattern."""
    return (s[-1] >> c) & 1


def count_allowed(s, top: int) -> int:
    """Number of letters in 0..top that state s allows."""
    return top + 1 - (s[-1] & _below(top + 1)).bit_count()


# --- canonical fallback: the set of partial embeddings ----------------------
# An embedding (j, vals) is a match of p[:j] in the prefix.  For each
# pattern letter u, vals[u] is its value if u is matched and occurs again
# in p[j:], the open interval (lo, hi) its value must fall in if u is not
# matched yet, and None once u no longer occurs in p[j:].  That is all
# the future of the match depends on, so prefixes with equal futures get
# equal states.  Embeddings with j = k-1 matter only through the final
# letters they accept, so they are folded into the dead mask instead of
# being stored, and an embedding with an empty interval can never
# complete and is dropped.  The root embedding (j = 0) is implicit.


def _generic(p, size):
    k = len(p)
    # the root embedding, which a length-1 pattern has already completed
    seed = ((0, ((-1, size),) * (max(p) + 1)),) if k > 1 else ()
    # per position j: the letter p[j], whether it occurs again later, and
    # the unmatched letters above and below it that a new value narrows
    plan = []
    for j, v in enumerate(p):
        later = set(p[j + 1:]) - set(p[:j + 1]) if v not in p[:j] else ()
        plan.append((v, v in p[j + 1:], tuple(u for u in later if u > v),
                     tuple(u for u in later if u < v)))

    def extend(j, vals, c):
        v, again, above, below = plan[j]
        a = vals[v]
        if type(a) is int:
            if a != c:
                return None
        elif not a[0] < c < a[1]:
            return None
        vals = list(vals)
        vals[v] = c if again else None
        for u in above:
            lo, hi = vals[u]
            if c > lo:
                if c + 1 >= hi:
                    return None
                vals[u] = (c, hi)
        for u in below:
            lo, hi = vals[u]
            if c < hi:
                if lo + 1 >= c:
                    return None
                vals[u] = (lo, c)
        return tuple(vals)

    def step(s, c):
        embeddings, dead = s
        grown = []
        for j, vals in (*embeddings, *seed):
            w = extend(j, vals, c)
            if w is None:
                continue
            if j + 1 == k - 1:
                # the final letter's value or interval kills those letters
                a = w[p[-1]]
                dead |= 1 << a if type(a) is int else _between(*a)
            else:
                grown.append((j + 1, w))
        if grown:
            embeddings = embeddings.union(grown)
        if dead == s[1]:
            dead = s[1]     # share an unchanged mask along a walk's stack
        return (embeddings, dead)

    return (frozenset(), -1 if k == 1 else 0), step


# --- the canonical state of a modified word ----------------------------------
# Appending c to an ascent sequence x appends c to its modified word, after
# raising every letter >= c by one when c is an ascent top.  The canonical
# tracker follows the raise in doubled coordinates: value v is letter
# 2v + 1 and 2v is the gap just below it, so the raise turns gap 2c into
# a new value with a gap on either side.  Letters are odd, so the
# tracker's empty-interval test already keeps the gap between two
# adjacent values open for such a new value, and its step is unchanged.


def open_gap(s, g: int, size: int):
    """Canonical state s after its live gap g becomes gap, value g + 1
    and gap: every value, interval end and dead bit above g moves up by
    2, except the upper sentinel ``size``.  Gap g is not dead, so neither
    are the three letters it becomes."""
    embeddings, dead = s
    moved, changed = [], False
    for e in embeddings:
        vals = list(e[1])
        for u, a in enumerate(vals):
            if type(a) is int:
                if a > g:
                    vals[u] = a + 2
            elif a is not None:
                lo, hi = a
                if lo > g or g < hi < size:
                    vals[u] = (lo + 2 if lo > g else lo,
                               hi + 2 if hi < size else hi)
        vals = tuple(vals)
        # an unmoved embedding stays the same object, shared between states
        if vals != e[1]:
            e, changed = (e[0], vals), True
        moved.append(e)
    if changed:
        embeddings = frozenset(moved)
    dead = dead & _below(g) | dead >> (g + 1) << (g + 3)
    return (embeddings, dead & _below(size))


def state_reducer(p):
    """A function ``reduce(s, prev=None)`` that drops, from a canonical
    state, the embeddings that can only kill letters some other part of
    the state kills anyway:

    (a) those whose final pattern letter may only take dead letters;
    (b) an embedding (j1, v1) when another (j2 >= j1, v2) admits, on
        every letter of p[j2:], every letter v1 admits, so that every
        completion of v1 also completes v2.

    ``forbid`` answers stay the same on every continuation, including
    ``open_gap`` moves; only the states get fewer.  When s is a step
    from a reduced state ``prev``, (b) only compares pairs that involve
    an embedding the step added, and the result is the same.
    """
    p = normalize_pattern(p)
    final = p[-1]
    # the final letter first: it is in every tail and rejects most pairs
    tails = [(final, *(set(p[j:]) - {final})) for j in range(len(p))]

    def reduce(s, prev=None):
        embeddings, dead = s
        old, old_dead = (frozenset(), None) if prev is None else prev
        if embeddings is old and dead == old_dead:
            return s
        # (a), on every embedding when the dead mask grew, else on new ones
        live, fresh = [], []
        for e in embeddings:
            new = e not in old
            if new or dead != old_dead:
                a = e[1][final]
                m = 1 << a if type(a) is int else _between(*a)
                if dead & m == m:
                    continue
            live.append((e, new))
            if new:
                fresh.append(e)
        kept = [e for e, _ in live]
        if fresh:
            # (b), on the pairs that involve a new embedding
            kept = [e1 for e1, new in live
                    if not dominated(e1, kept if new else fresh)]
        if len(kept) == len(embeddings):
            return s
        return (frozenset(kept), dead)

    def dominated(e1, others):
        j1, v1 = e1
        for e2 in others:
            j2, v2 = e2
            if j2 < j1 or e2 is e1:
                continue
            # a letter e1 has matched, e2 has matched too (j2 >= j1), so
            # b is a value wherever a is
            for u in tails[j2]:
                a, b = v1[u], v2[u]
                if type(b) is int:
                    if a != b:
                        break
                elif a[0] < b[0] or b[1] < a[1]:
                    break
            else:
                return True     # e2 admits every letter e1 admits
        return False

    return reduce


# --- hand summaries ----------------------------------------------------------
# Each returns (state0, step); the comment names what kills a letter.


def _t_10(p, size):
    # (b, a): dead below the maximum
    def step(s, c):
        return (s[0] | _below(c),)

    return (0,), step


def _t_000(p, size):
    # (a, a, a): dead once a letter has appeared twice
    def step(s, c):
        seen, rep = s
        bit = 1 << c
        return (seen | bit, rep | (seen & bit))

    return (0, 0), step


def _t_001(p, size):
    # (a, a, b): dead above the smallest repeated letter
    def step(s, c):
        seen, dead = s
        if (seen >> c) & 1:
            dead |= -1 << (c + 1)
        return (seen | (1 << c), dead)

    return (0, 0), step


def _t_010(p, size):
    # (a, b, a) with a < b: letter a is dead once some bigger letter
    # followed an occurrence of it
    def step(s, c):
        seen, up = s
        return (seen | (1 << c), up | (seen & _below(c)))

    return (0, 0), step


def _t_011(p, size):
    # (a, b, b): letter b is dead once it has occurred with something
    # smaller before it
    def step(s, c):
        seen, at = s
        bit = 1 << c
        if seen & _below(c):
            at |= bit
        return (seen | bit, at)

    return (0, 0), step


def _t_012(p, size):
    # (a, b, d): dead above the smallest top of a rising pair, as in
    # patience sorting; mn is the smallest letter so far (size when none)
    def step(s, c):
        mn, dead = s
        if c > mn:
            dead |= -1 << (c + 1)
        return (min(mn, c), dead)

    return (size, 0), step


def _t_100(p, size):
    # (b, a, a): letter a is dead once it occurred below an earlier max
    def step(s, c):
        maxv, dead = s
        if c < maxv:
            dead |= 1 << c
        return (max(maxv, c), dead)

    return (-1, 0), step


def _t_101(p, size):
    # (b, a, b): letter b is dead once some occurrence of it was followed
    # by a smaller letter
    def step(s, c):
        seen, dead = s
        dead |= seen >> (c + 1) << (c + 1)
        return (seen | (1 << c), dead)

    return (0, 0), step


def _t_102(p, size):
    # (b, a, d) with a < b < d: dead above the smallest descent top
    def step(s, c):
        seen, dead = s
        higher = seen >> (c + 1)
        if higher:
            dead |= -1 << (c + 2 + _lsb(higher))
        return (seen | (1 << c), dead)

    return (0, 0), step


def _t_110(p, size):
    # (b, b, a): dead below the largest repeated letter
    def step(s, c):
        seen, dead = s
        if (seen >> c) & 1:
            dead |= _below(c)
        return (seen | (1 << c), dead)

    return (0, 0), step


def _t_120(p, size):
    # (b, d, a) with a < b < d: dead below the largest ascent bottom
    def step(s, c):
        seen, dead = s
        lower = seen & _below(c)
        if lower:
            dead |= _below(lower.bit_length() - 1)
        return (seen | (1 << c), dead)

    return (0, 0), step


def _t_210(p, size):
    # (c, b, a): dead below the largest descent bottom
    def step(s, c):
        maxv, dead = s
        if c < maxv:
            dead |= _below(c)
        return (max(maxv, c), dead)

    return (-1, 0), step


def _t_201(p, size):
    # (d, a, b): dead inside a descent pair d..a, that is a < c < d
    def step(s, c):
        maxv, dead = s
        if c < maxv:
            dead |= _between(c, maxv)
        return (max(maxv, c), dead)

    return (-1, 0), step


def _t_021(p, size):
    # (a, d, b): dead inside an ascent pair a..d, that is a < c < d
    def step(s, c):
        seen, dead = s
        lower = seen & _below(c)
        if lower:
            dead |= _between(_lsb(lower), c)
        return (seen | (1 << c), dead)

    return (0, 0), step


def _t_0012(p, size):
    # (a, a, b, d): dead above the smallest b with a repeated a < b
    def step(s, c):
        seen, rep, dead = s
        bit = 1 << c
        if rep & _below(c):
            dead |= -1 << (c + 1)
        return (seen | bit, rep | (seen & bit), dead)

    return (0, 0, 0), step


def _t_0021(p, size):
    # (a, a, d, b): like 021 but the bottom leg must be repeated
    def step(s, c):
        seen, rep, dead = s
        lower = rep & _below(c)
        if lower:
            dead |= _between(_lsb(lower), c)
        bit = 1 << c
        return (seen | bit, rep | (seen & bit), dead)

    return (0, 0, 0), step


def _t_0101(p, size):
    # (a, b, a, b): b dead once some a < b traced a..b..a; tops[a] holds
    # the letters that have followed an occurrence of a
    def step(s, c):
        seen, tops, dead = s
        dead |= tops[c]
        bit = 1 << c
        lower = seen & _below(c)
        if lower:
            tops = tuple(t | bit if (lower >> x) & 1 else t
                         for x, t in enumerate(tops))
        return (seen | bit, tops, dead)

    return (0, (0,) * size, 0), step


def _t_0102(p, size):
    # (a, b, a, d): dead above the smallest middle letter of an a..b..a
    # trace; tops as in 0101
    def step(s, c):
        seen, tops, dead = s
        m = tops[c]
        if m:
            dead |= -1 << (_lsb(m) + 1)
        bit = 1 << c
        lower = seen & _below(c)
        if lower:
            tops = tuple(t | bit if (lower >> x) & 1 else t
                         for x, t in enumerate(tops))
        return (seen | bit, tops, dead)

    return (0, (0,) * size, 0), step


def _t_0112(p, size):
    # (a, b, b, d): dead above the smallest repeated ascent top
    def step(s, c):
        seen, at, dead = s
        bit = 1 << c
        if at & bit:
            dead |= -1 << (c + 1)
        if seen & _below(c):
            at |= bit
        return (seen | bit, at, dead)

    return (0, 0, 0), step


def _t_0123(p, size):
    # (a, b, d, e): dead above the smallest top of a rising triple; mn
    # and top2 as in 012 (size when none yet)
    def step(s, c):
        mn, top2, dead = s
        if c > top2:
            dead |= -1 << (c + 1)
        if mn < c < top2:
            top2 = c
        return (min(mn, c), top2, dead)

    return (size, size, 0), step


def _t_1012(p, size):
    # (b, a, b, d): dead above the smallest letter with a b..a..b trace;
    # dt as in 101
    def step(s, c):
        seen, dt, dead = s
        if (dt >> c) & 1:
            dead |= -1 << (c + 1)
        dt |= seen >> (c + 1) << (c + 1)
        return (seen | (1 << c), dt, dead)

    return (0, 0, 0), step


_FACTORIES = {
    (1, 0): _t_10,
    (0, 0, 0): _t_000,
    (0, 0, 1): _t_001,
    (0, 1, 0): _t_010,
    (0, 1, 1): _t_011,
    (0, 1, 2): _t_012,
    (1, 0, 0): _t_100,
    (1, 0, 1): _t_101,
    (1, 0, 2): _t_102,
    (1, 1, 0): _t_110,
    (1, 2, 0): _t_120,
    (2, 0, 1): _t_201,
    (2, 1, 0): _t_210,
    (0, 2, 1): _t_021,
    (0, 0, 1, 2): _t_0012,
    (0, 0, 2, 1): _t_0021,
    (0, 1, 0, 1): _t_0101,
    (0, 1, 0, 2): _t_0102,
    (0, 1, 1, 2): _t_0112,
    (0, 1, 2, 3): _t_0123,
    (1, 0, 1, 2): _t_1012,
}

SPECIALIZED = frozenset(_FACTORIES)


def make_tracker(p, size: int, generic: bool = False) -> Tracker:
    """Build a tracker for pattern p over letters 0..size-1.

    Patterns without a hand-derived summary get the canonical
    embedding-set tracker; ``generic=True`` forces it for every pattern,
    which the tests use to check it against the containment search.
    """
    p = normalize_pattern(p)
    factory = None if generic else _FACTORIES.get(p)
    state0, step = (factory or _generic)(p, size)
    return Tracker(state0, forbid, step, count_allowed)
