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
dead as the prefix grows, so a step only ever ORs bits in.

The counting engine merges prefixes whose states are equal, so a state
should keep no more than the future depends on.  The canonical tracker
serves every pattern without a hand summary: it keeps the set of partial
embeddings of the pattern, each reduced to the values and intervals its
remaining letters depend on, and every step drops the embeddings that
cannot change a ``forbid`` answer.  These sets are the labels of a
generating tree (West 1995, "Generating trees and the Catalan and
Schröder numbers").  Its state is ``(book, ids, dead)``: the book, one
per tracker, interns every embedding to a small id and keeps each
embedding's and each state's move on a letter once computed, and ``ids``
is the bitmask of the prefix's embeddings.  Unlike the hand summaries'
plain tuples, such states share a mutable book: they compare equal only
within one tracker, and one tracker should not be shared between
threads.  A state can also lose a dead letter (``delete_dead``), which
renames the letters above it, as the layered count of avoiders does up
to each key's bound; so that count runs the canonical tracker for every
pattern, and the hand-derived summaries below serve the walks and the
statistic histograms.  The enumeration test suite checks every hand
summary, and the canonical tracker on every pattern of length at most 4,
against a walk that asks the containment search directly.

The hand summaries keep sets of letters in int bitmasks:

    seen     bitmask of letters present in the prefix
    rep      bitmask of letters present at least twice
    dead     the dead mask, always the last entry
"""

from __future__ import annotations

from math import inf
from typing import Callable, NamedTuple

from .core import normalize_pattern


class Tracker(NamedTuple):
    state: object
    forbid: Callable
    step: Callable
    count_allowed: Callable


def _below(c: int) -> int:
    return (1 << c) - 1


def _kills(a) -> int:
    """The letters a value, or an open interval (lo, hi), admits."""
    if type(a) is int:
        return 1 << a
    lo, hi = a
    if hi == inf:
        return ~_below(lo + 1)
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
# matched yet (hi is inf while no letter bounds it above), and None once u
# no longer occurs in p[j:].  That is all the future of the match depends
# on, so prefixes with equal futures get equal states.  Embeddings with
# j = k-1 matter only through the final letters they accept, so they are
# folded into the dead mask instead of being stored (a negative mask when
# an interval open above kills every letter past its lower end), and an
# embedding with an empty interval can never complete and is dropped.
# The root embedding (j = 0) is in no state: every step moves it as well.
#
# A state is (book, ids, dead).  The book belongs to one make_tracker
# call: it interns every embedding the tracker meets to a small id and
# keeps, per id, each move the first time it is asked for, so growing a
# state costs one table lookup per embedding, however many prefixes share
# it.  ids is the bitmask of the prefix's embeddings, so within one book
# equal embedding sets are equal masks.  The book also keeps each state's
# reduced move on a letter, so a step that many prefixes share is one
# dict lookup.  step and open_gap read the book from the state, so a
# state can be stepped by any canonical tracker of its pattern.


class _Book:
    """The embeddings one canonical tracker has met, interned to ids.

        rows[i][c]   the move of embedding i on letter c, once asked: the
                     bit of the grown embedding's id, or, when i is
                     penultimate (j = k - 2, a bit of ``penult``), the
                     letters its completions kill; 0 when c does not fit
        gaps[i][g]   the bit of the id of embedding i after open_gap(g)
        drops[i][x]  the bit of the id of embedding i after its dead letter
                     x is deleted, 0 when that leaves it no completion
        kills[i]     the letters the final pattern letter may take
        tested[i], dominators[i]
                     the ids tested for dominating i, and those that do
        steps[(ids, dead, c)]
                     the reduced state that state (ids, dead) steps to on
                     letter c
        deleted[(ids, dead, mask)]
                     the state (ids, dead) with the dead letters of mask
                     deleted
    """

    __slots__ = ("p", "plan", "tails", "index", "embeddings",
                 "rows", "gaps", "drops", "kills", "tested", "dominators",
                 "penult", "root", "steps", "deleted")

    def __init__(self, p):
        self.p = p
        # per position j: the letter p[j], whether it occurs again later,
        # and the unmatched letters above and below it that a new value
        # narrows
        self.plan = []
        for j, v in enumerate(p):
            later = set(p[j + 1:]) - set(p[:j + 1]) if v not in p[:j] else ()
            self.plan.append((v, v in p[j + 1:],
                              tuple(u for u in later if u > v),
                              tuple(u for u in later if u < v)))
        # the letters of p[j:], the final one first: it is in every tail
        # and rejects most dominance pairs
        final = p[-1]
        self.tails = [(final, *(set(p[j:]) - {final}))
                      for j in range(len(p))]
        self.index = {}
        self.embeddings = []
        self.rows, self.gaps, self.drops, self.kills = [], [], [], []
        self.tested, self.dominators = [], []
        self.penult = 0
        self.steps, self.deleted = {}, {}
        # the root embedding, which a length-1 pattern has already completed
        self.root = (1 << self.intern((0, ((-1, inf),) * (max(p) + 1)))
                     if len(p) > 1 else 0)

    def intern(self, e) -> int:
        i = self.index.get(e)
        if i is None:
            i = self.index[e] = len(self.embeddings)
            self.embeddings.append(e)
            self.rows.append({})
            self.gaps.append({})
            self.drops.append({})
            self.kills.append(_kills(e[1][self.p[-1]]))
            self.tested.append(0)
            self.dominators.append(0)
            if e[0] == len(self.p) - 2:
                self.penult |= 1 << i
        return i

    def move(self, i: int, c: int) -> int:
        """rows[i][c], computed and kept."""
        self.rows[i][c] = m = self._grow(i, c)
        return m

    def _grow(self, i: int, c: int) -> int:
        j, vals = self.embeddings[i]
        v, again, above, below = self.plan[j]
        a = vals[v]
        if type(a) is int:
            if a != c:
                return 0
        elif not a[0] < c < a[1]:
            return 0
        vals = list(vals)
        vals[v] = c if again else None
        for u in above:
            lo, hi = vals[u]
            if c > lo:
                if c + 1 >= hi:
                    return 0
                vals[u] = (c, hi)
        for u in below:
            lo, hi = vals[u]
            if c < hi:
                if lo + 1 >= c:
                    return 0
                vals[u] = (lo, c)
        if (1 << i) & self.penult:
            # the final letter's value or interval kills those letters
            return _kills(vals[self.p[-1]])
        return 1 << self.intern((j + 1, tuple(vals)))

    def move_gap(self, i: int, g: int) -> int:
        """gaps[i][g], computed and kept."""
        j, vals = self.embeddings[i]
        vals = list(vals)
        for u, a in enumerate(vals):
            if type(a) is int:
                if a > g:
                    vals[u] = a + 2
            elif a is not None:
                lo, hi = a
                if hi > g:
                    vals[u] = (lo + 2 if lo > g else lo, hi + 2)
        m = self.gaps[i][g] = 1 << self.intern((j, tuple(vals)))
        return m

    def move_drop(self, i: int, x: int) -> int:
        """drops[i][x], computed and kept."""
        j, vals = self.embeddings[i]
        vals = list(vals)
        m = 0
        for u, a in enumerate(vals):
            if type(a) is int:
                if a == x:
                    break
                if a > x:
                    vals[u] = a - 1
            elif a is not None:
                lo, hi = a
                if lo >= x:
                    lo -= 1
                if hi > x:
                    hi -= 1
                if lo + 1 >= hi:
                    break
                vals[u] = (lo, hi)
        else:
            m = 1 << self.intern((j, tuple(vals)))
        self.drops[i][x] = m
        return m

    def moved(self, ids: int, table, move, key) -> int:
        """The union of table[i][key] over the ids i in the mask ids, each
        computed by move(i, key) and kept the first time."""
        out = 0
        while ids:
            low = ids & -ids
            ids ^= low
            i = low.bit_length() - 1
            m = table[i].get(key)
            if m is None:
                m = move(i, key)
            out |= m
        return out

    def delete(self, ids: int, dead: int, mask: int):
        """The state (self, ids, dead) with the dead letters of mask
        deleted, the highest first, so each is still at its place."""
        while mask:
            x = mask.bit_length() - 1
            mask ^= 1 << x
            ids = self.moved(ids, self.drops, self.move_drop, x)
            dead = dead & _below(x) | dead >> (x + 1) << x
        return (self, ids, dead)

    def dominated(self, i: int, others: int) -> int:
        """The ids in the mask ``others``, other than i, whose embedding
        admits, on every letter of its rest of p, every letter that
        embedding i admits, so that every completion of i completes it."""
        others &= ~(1 << i)
        unknown = others & ~self.tested[i]
        if unknown:
            self.tested[i] |= unknown
            j1, v1 = self.embeddings[i]
            while unknown:
                low = unknown & -unknown
                unknown ^= low
                j2, v2 = self.embeddings[low.bit_length() - 1]
                if j2 < j1:
                    continue
                # a letter i has matched, the other has matched too
                # (j2 >= j1), so b is a value wherever a is
                for u in self.tails[j2]:
                    a, b = v1[u], v2[u]
                    if type(b) is int:
                        if a != b:
                            break
                    elif a[0] < b[0] or b[1] < a[1]:
                        break
                else:
                    self.dominators[i] |= low
        return self.dominators[i] & others

    def step(self, ids: int, dead: int, c: int):
        """The state (self, ids, dead) grown by the letter c, reduced:
        dropped are the embeddings that can only kill letters some other
        part of the state kills anyway,

        (a) those whose final pattern letter may only take dead letters;
        (b) an embedding (j1, v1) when another (j2 >= j1, v2) admits, on
            every letter of p[j2:], every letter v1 admits, so that every
            completion of v1 also completes v2.

        ``forbid`` answers stay the same on every continuation, including
        ``open_gap`` moves; only the states get fewer.  The state grown
        is reduced already, so (a) tests every embedding only when the
        dead mask grew, else the new ones, and (b) only compares pairs
        that involve a new embedding."""
        rows, penult = self.rows, self.penult
        grown, old_dead = ids, dead
        rest = ids | self.root
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            m = rows[i].get(c)
            if m is None:
                m = self.move(i, c)
            if low & penult:
                dead |= m
            else:
                grown |= m
        if dead == old_dead:
            dead = old_dead     # share an unchanged mask along a walk's stack
            if grown == ids:
                return (self, ids, dead)
        fresh = grown & ~ids
        live = grown
        # (a), on every embedding when the dead mask grew, else on new ones
        kills = self.kills
        rest = grown if dead != old_dead else fresh
        while rest:
            low = rest & -rest
            rest ^= low
            m = kills[low.bit_length() - 1]
            if dead & m == m:
                live ^= low
        fresh &= live
        kept = live
        if fresh:
            # (b), on the pairs that involve a new embedding
            rest = live
            while rest:
                low = rest & -rest
                rest ^= low
                if self.dominated(low.bit_length() - 1,
                                  live if low & fresh else fresh):
                    kept ^= low
        return (self, kept, dead)


def _canonical_step(s, c):
    book, ids, dead = s
    key = (ids, dead, c)
    t = book.steps.get(key)
    if t is None:
        t = book.steps[key] = book.step(ids, dead, c)
    return t


def _generic(p):
    return (_Book(p), 0, -1 if len(p) == 1 else 0), _canonical_step


# --- the canonical state of a modified word ----------------------------------
# Appending c to an ascent sequence x appends c to its modified word, after
# raising every letter >= c by one when c is an ascent top.  The canonical
# tracker follows the raise in doubled coordinates: value v is letter
# 2v + 1 and 2v is the gap just below it, so the raise turns gap 2c into
# a new value with a gap on either side.  Letters are odd, so the
# tracker's empty-interval test already keeps the gap between two
# adjacent values open for such a new value, and its step is unchanged.


def open_gap(s, g: int):
    """Canonical state s after its live gap g becomes gap, value g + 1
    and gap: every value, interval end and dead bit above g moves up by
    2.  Gap g is not dead, so neither are the three letters it becomes."""
    book, ids, dead = s
    return (book, book.moved(ids, book.gaps, book.move_gap, g),
            dead & _below(g) | dead >> (g + 1) << (g + 3))


def delete_dead(s, mask: int):
    """Canonical state s with the letters of mask, each dead in s,
    deleted: open_gap run backwards.  Every value, interval end and dead
    bit above a deleted letter x moves down by one, and so does a lower
    end at x.  An embedding that must match x again, or is left an empty
    interval, can never complete and is dropped.
    ``enumeration.avoider_counts`` argues why the futures of the state
    stay the same, renamed."""
    book, ids, dead = s
    key = (ids, dead, mask)
    t = book.deleted.get(key)
    if t is None:
        t = book.deleted[key] = book.delete(ids, dead, mask)
    return t


# --- hand summaries ----------------------------------------------------------
# Each returns (state0, step); the comment names what kills a letter.


def _t_000(p):
    # (a, a, a): dead once a letter has appeared twice
    def step(s, c):
        seen, rep = s
        bit = 1 << c
        return (seen | bit, rep | (seen & bit))

    return (0, 0), step


def _t_101(p):
    # (b, a, b): letter b is dead once some occurrence of it was followed
    # by a smaller letter
    def step(s, c):
        seen, dead = s
        dead |= seen >> (c + 1) << (c + 1)
        return (seen | (1 << c), dead)

    return (0, 0), step


def _t_0101(p):
    # (a, b, a, b): b dead once some a < b traced a..b..a; tops[a] holds
    # the letters that have followed an occurrence of a, one entry per
    # letter up to the largest seen
    def step(s, c):
        seen, tops, dead = s
        tops += (0,) * (c + 1 - len(tops))
        dead |= tops[c]
        bit = 1 << c
        lower = seen & _below(c)
        if lower:
            tops = tuple(t | bit if (lower >> x) & 1 else t
                         for x, t in enumerate(tops))
        return (seen | bit, tops, dead)

    return (0, (), 0), step


_FACTORIES = {
    (0, 0, 0): _t_000,
    (1, 0, 1): _t_101,
    (0, 1, 0, 1): _t_0101,
}

SPECIALIZED = frozenset(_FACTORIES)


def make_tracker(p, size: int | None, generic: bool = False) -> Tracker:
    """Build a tracker for pattern p over the nonnegative letters.

    Patterns without a hand-derived summary (``SPECIALIZED``) get the
    canonical embedding-set tracker, whose step returns reduced states;
    ``generic=True`` forces it for every pattern, which the tests use to
    check it against the containment search.

    ``size`` is unused: no tracker bounds its letters, and every state
    grows only with the letters it meets.  It stays in the signature
    because callers, the benchmark's tracer among them, pass it
    positionally.
    """
    p = normalize_pattern(p)
    factory = None if generic else _FACTORIES.get(p)
    state0, step = (factory or _generic)(p)
    return Tracker(state0, forbid, step, count_allowed)
