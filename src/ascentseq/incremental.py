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

The counting engine merges prefixes whose states are equal, so a state
should keep no more than the future depends on.  The canonical tracker,
used for every pattern without a hand summary, keeps the set of partial
embeddings of the pattern, each reduced to the values and intervals its
remaining letters depend on; forbidding and counting are then bit
operations on a mask of dead letters.  For the patterns that dominate
the counting workload there are hand-derived summaries below, each a
bitmask of dead letters, a threshold above which letters are dead, or a
floor below which they are.  The enumeration
test suite checks every hand summary, and the canonical tracker on every
pattern of length at most 4, against a walk that asks the containment
search directly.

State components used repeatedly (letters are small, so sets of letters
live in int bitmasks):

    seen     bitmask of letters present in the prefix
    rep      bitmask of letters present at least twice
    maxv     largest letter so far, -1 when empty
    BIG      sentinel for "no constraint yet" minima
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import normalize_pattern

BIG = 1 << 60


class Tracker(NamedTuple):
    state: object
    forbid: Callable
    step: Callable
    count_allowed: Callable


def _lsb(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _below(c: int) -> int:
    return (1 << c) - 1


# --- mask-valued trackers: forbidden letters form a bitmask -----------------
# count_allowed subtracts the popcount of the forbidden mask below top+1.


def _mask_tracker(state0, forbid_mask, step):
    def forbid(s, c):
        return (forbid_mask(s) >> c) & 1

    def count_allowed(s, top):
        return top + 1 - (forbid_mask(s) & _below(top + 1)).bit_count()

    return Tracker(state0, forbid, step, count_allowed)


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


def _between(lo: int, hi: int) -> int:
    return _below(hi) & ~_below(lo + 1)


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

    dead0 = _below(size) if k == 1 else 0
    return _mask_tracker((frozenset(), dead0), lambda s: s[1], step)


def _t_000(p, size):
    # (a, a, a): forbidden once a letter has appeared twice
    def step(s, c):
        seen, rep = s
        bit = 1 << c
        return (seen | bit, rep | (seen & bit))

    return _mask_tracker((0, 0), lambda s: s[1], step)


def _t_010(p, size):
    # (a, b, a) with a < b: letter a is dead once some bigger letter
    # followed an occurrence of it
    def step(s, c):
        seen, up = s
        return (seen | (1 << c), up | (seen & _below(c)))

    return _mask_tracker((0, 0), lambda s: s[1], step)


def _t_011(p, size):
    # (a, b, b): letter b is dead once it has occurred with something
    # smaller before it
    def step(s, c):
        seen, at = s
        bit = 1 << c
        if seen & _below(c):
            at |= bit
        return (seen | bit, at)

    return _mask_tracker((0, 0), lambda s: s[1], step)


def _t_100(p, size):
    # (b, a, a): letter a is dead once it occurred below an earlier max
    def step(s, c):
        maxv, db = s
        if c < maxv:
            db |= 1 << c
        return (max(maxv, c), db)

    return _mask_tracker((-1, 0), lambda s: s[1], step)


def _t_101(p, size):
    # (b, a, b): letter b is dead once some occurrence of it was followed
    # by a smaller letter
    def step(s, c):
        seen, dt = s
        dt |= seen >> (c + 1) << (c + 1)
        return (seen | (1 << c), dt)

    return _mask_tracker((0, 0), lambda s: s[1], step)


def _t_0101(p, size):
    # (a, b, a, b): b dead once some a < b traced a..b..a; tops[a] holds
    # the letters that have followed an occurrence of a
    def step(s, c):
        seen, tops, aba = s
        aba |= tops[c]
        bit = 1 << c
        lower = seen & _below(c)
        if lower:
            tops = tuple(t | bit if (lower >> x) & 1 else t
                         for x, t in enumerate(tops))
        return (seen | bit, tops, aba)

    return _mask_tracker((0, (0,) * size, 0), lambda s: s[2], step)


# --- threshold trackers: forbidden iff c exceeds a tracked minimum ----------


def _min_tracker(state0, threshold, step):
    def forbid(s, c):
        return c > threshold(s)

    def count_allowed(s, top):
        return min(threshold(s), top) + 1

    return Tracker(state0, forbid, step, count_allowed)


def _t_001(p, size):
    # (a, a, b): forbidden above the smallest repeated letter
    def step(s, c):
        seen, mn = s
        if (seen >> c) & 1 and c < mn:
            mn = c
        return (seen | (1 << c), mn)

    return _min_tracker((0, BIG), lambda s: s[1], step)


def _t_012(p, size):
    # rising pair tail minimum, as in patience sorting
    def step(s, c):
        t1, t2 = s
        if c > t1 and c < t2:
            t2 = c
        return (min(t1, c), t2)

    return _min_tracker((BIG, BIG), lambda s: s[1], step)


def _t_0123(p, size):
    def step(s, c):
        t1, t2, t3 = s
        if c > t2 and c < t3:
            t3 = c
        if c > t1 and c < t2:
            t2 = c
        return (min(t1, c), t2, t3)

    return _min_tracker((BIG, BIG, BIG), lambda s: s[2], step)


def _t_102(p, size):
    # (b, a, d) with a < b < d: forbidden above the smallest descent top
    def step(s, c):
        seen, mn = s
        higher = seen >> (c + 1)
        if higher:
            mn = min(mn, c + 1 + _lsb(higher))
        return (seen | (1 << c), mn)

    return _min_tracker((0, BIG), lambda s: s[1], step)


def _t_0102(p, size):
    # (a, b, a, d): forbidden above the smallest middle letter of an
    # a..b..a trace
    def step(s, c):
        seen, tops, mn = s
        m = tops[c]
        if m:
            mn = min(mn, _lsb(m))
        bit = 1 << c
        lower = seen & _below(c)
        if lower:
            tops = tuple(t | bit if (lower >> x) & 1 else t
                         for x, t in enumerate(tops))
        return (seen | bit, tops, mn)

    return _min_tracker((0, (0,) * size, BIG), lambda s: s[2], step)


def _t_0112(p, size):
    # (a, b, b, d): forbidden above the smallest repeated ascent top
    def step(s, c):
        seen, at, mn = s
        bit = 1 << c
        if at & bit and c < mn:
            mn = c
        if seen & _below(c):
            at |= bit
        return (seen | bit, at, mn)

    return _min_tracker((0, 0, BIG), lambda s: s[2], step)


def _t_0012(p, size):
    # (a, a, b, d): forbidden above the smallest b with a repeated a < b
    def step(s, c):
        seen, rep, mn = s
        bit = 1 << c
        if rep & _below(c) and c < mn:
            mn = c
        return (seen | bit, rep | (seen & bit), mn)

    return _min_tracker((0, 0, BIG), lambda s: s[2], step)


def _t_1012(p, size):
    # (b, a, b, d): forbidden above the smallest letter with a b..a..b trace
    def step(s, c):
        seen, dt, mn = s
        if (dt >> c) & 1 and c < mn:
            mn = c
        dt |= seen >> (c + 1) << (c + 1)
        return (seen | (1 << c), dt, mn)

    return _min_tracker((0, 0, BIG), lambda s: s[2], step)


# --- floor trackers: forbidden iff c falls below a tracked maximum ----------


def _max_tracker(state0, floor, step):
    def forbid(s, c):
        return c < floor(s)

    def count_allowed(s, top):
        f = floor(s)
        if f <= 0:
            return top + 1
        return top + 1 - min(f, top + 1)

    return Tracker(state0, forbid, step, count_allowed)


def _t_10(p, size):
    def step(maxv, c):
        return c if c > maxv else maxv

    return _max_tracker(-1, lambda s: s, step)


def _t_110(p, size):
    # (b, b, a): forbidden below the largest repeated letter
    def step(s, c):
        seen, mx = s
        if (seen >> c) & 1 and c > mx:
            mx = c
        return (seen | (1 << c), mx)

    return _max_tracker((0, -1), lambda s: s[1], step)


def _t_120(p, size):
    # (b, d, a) with a < b < d: forbidden below the largest ascent bottom
    def step(s, c):
        seen, mx = s
        lower = seen & _below(c)
        if lower:
            mx = max(mx, lower.bit_length() - 1)
        return (seen | (1 << c), mx)

    return _max_tracker((0, -1), lambda s: s[1], step)


def _t_210(p, size):
    # (c, b, a): forbidden below the largest descent bottom
    def step(s, c):
        maxv, mx = s
        if c < maxv and c > mx:
            mx = c
        return (max(maxv, c), mx)

    return _max_tracker((-1, -1), lambda s: s[1], step)


# --- straddle trackers: letters dead once inside a stored pair -------------
# The final letter must fit strictly between the two legs lo < hi of a
# stored pair; legs only accumulate, so a dead letter stays dead and the
# dead letters form a bitmask that grows by _between(lo, hi) per pair.


def _t_201(p, size):
    # (d, a, b): needs a descent pair d..a with a < c < d
    def step(s, c):
        maxv, dead = s
        if c < maxv:
            dead |= _between(c, maxv)
        return (max(maxv, c), dead)

    return _mask_tracker((-1, 0), lambda s: s[1], step)


def _t_021(p, size):
    # (a, d, b): needs an ascent pair a..d with a < c < d
    def step(s, c):
        seen, dead = s
        lower = seen & _below(c)
        if lower:
            dead |= _between(_lsb(lower), c)
        return (seen | (1 << c), dead)

    return _mask_tracker((0, 0), lambda s: s[1], step)


def _t_0021(p, size):
    # (a, a, d, b): like 021 but the bottom leg must be repeated
    def step(s, c):
        seen, rep, dead = s
        lower = rep & _below(c)
        if lower:
            dead |= _between(_lsb(lower), c)
        bit = 1 << c
        return (seen | bit, rep | (seen & bit), dead)

    return _mask_tracker((0, 0, 0), lambda s: s[2], step)


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
    if not generic:
        factory = _FACTORIES.get(p)
        if factory is not None:
            return factory(p, size)
    return _generic(p, size)
