"""The incremental forbidden-letter tracker for prefix-pruned enumeration.

Growing an avoider prefix letter by letter only ever creates a pattern
occurrence that ends at the newly appended letter, so pruning needs one
question answered per candidate letter c: does some partial occurrence of
p[:-1] in the prefix accept c as the final pattern letter?  The tracker
answers it from a pair ``(ids, dead)`` carried along the prefix, which a
book moves:

    book, ids, dead = start(p)   a fresh book and the empty prefix's pair
    (dead >> c) & 1              appending c would complete the pattern
    book.step(ids, dead, c)      the pair of the prefix extended by c

``dead`` is the *dead mask*: bit c is set exactly when appending c would
complete the pattern.  Dead letters stay dead as the prefix grows, so a
step only ever ORs bits in.

The counting engine merges prefixes whose pairs are equal, so a pair
should keep no more than the future depends on.  The tracker keeps the
set of partial embeddings of the pattern, each reduced to the values and
intervals its remaining letters depend on, and every pair the book
returns is reduced: it holds no embedding that can change no dead bit
(``_Book.reduced``).  These sets are the labels of a generating tree
(West 1995, "Generating trees and the Catalan and Schröder numbers").
The book interns every embedding to a small id and keeps each
embedding's and each pair's move on a letter once computed, and ``ids``
is the bitmask of the prefix's embeddings.  It indexes each embedding by
its next slot, the value or interval the next pattern letter must take,
so a step asks only the embeddings whose slot admits the letter: one
whose slot is a value moves on that value alone.  The same slots name,
for the book's one kill map ``final_kills``, the only letters on which
a step can kill new letters: those that a penultimate embedding admits,
among the letters of a word or the value and gap places of a modified
word.  A pair is two plain ints: pairs compare equal only within one
book, and one book should not be shared between threads.  The book
keeps every move as ``(ids, dead)`` pairs, so a book that nothing holds
is freed by reference counting.

The walks and the layered counts of ``enumeration`` hold the book and
move the pairs through it, so their keys are flat tuples of ints.
Besides ``step``, three moves of the book rename letters, through one
loop (``_Book.rename``): ``delete`` deletes dead letters, as avoider
counts do up to a bound, ``open_gap`` opens a gap into a new value, as
modified words and permutations grow, and ``merge_live`` deletes a
permutation's dead gaps and merges the values between two live gaps
into one.  The enumeration test suite checks the tracker on every
pattern of length at most 4 against a walk that asks the containment
search directly.
"""

from __future__ import annotations

from math import inf

from .core import normalize_pattern

# building the book of a 1000-letter permutation pattern takes 0.06 s, and
# the time grows as the square of the length (2 cores, CPython 3.11)
MAX_PATTERN_LENGTH = 1000


def _below(c: int) -> int:
    return (1 << c) - 1


def opened(dead: int, g: int) -> int:
    """The dead mask once gap g opens into gap, value g + 1 and gap:
    every bit above g moves up by 2 (``_Book.open_gap``)."""
    return dead & _below(g) | dead >> (g + 1) << (g + 3)


def _kills(a) -> int:
    """The letters a value, or an open interval (lo, hi), admits."""
    if type(a) is int:
        return 1 << a
    lo, hi = a
    if hi == inf:
        return ~_below(lo + 1)
    return _below(hi) & ~_below(lo + 1)


# --- the set of partial embeddings -------------------------------------------
# An embedding (j, vals) is a match of p[:j] in the prefix.  For each
# pattern letter u, vals[u] is its value if u is matched and occurs again
# in p[j:], the open interval (lo, hi) its value must fall in if u is not
# matched yet (hi is inf while no letter bounds it above), and None once u
# no longer occurs in p[j:].  That is all the future of the match depends
# on, so prefixes with equal futures get equal pairs.  Embeddings with
# j = k-1 matter only through the final letters they accept, so they are
# folded into the dead mask instead of being stored (a negative mask when
# an interval open above kills every letter past its lower end), and an
# embedding with an empty interval can never complete and is dropped.
# The root embedding (j = 0) is in no pair: every step moves it as well.
#
# The book belongs to one ``start`` call: it interns every embedding it
# meets to a small id and keeps, per id, each move the first time it is
# asked for, so growing a pair costs one table lookup per embedding
# whose next slot admits the letter (the index fixed/ranged), however
# many prefixes share it.  ids is the bitmask of the prefix's
# embeddings, so within one book equal embedding sets are equal masks.
# The book also keeps each pair's step, deletion and merge, as pairs
# (ids, dead), so a move that many prefixes share is one dict lookup.


class _Book:
    """The book of one pattern: the embeddings its pairs have met,
    interned to ids.

        rows[i][c]   the move of embedding i on letter c, once asked: the
                     bit of the grown embedding's id, or, when i is
                     penultimate (j = k - 2, a bit of ``penult``), the
                     letters its completions kill; 0 when c does not fit
        gaps[i][g]   the bit of the id of embedding i after open_gap at g
        drops[i][x]  the bit of the id of embedding i after its dead letter
                     x is deleted, 0 when that leaves it no completion
        merges[i][groups]
                     the bit of the id of embedding i after merge_live with
                     that rank-to-group map, 0 when it can never complete
        kills[i]     the letters the final pattern letter may take
        fixed[v]     the ids whose next slot vals[p[j]] is the value v: the
                     only letter they can move on
        ranged       the ids whose next slot is an interval
        slots[i]     (first, stop): the letters first..stop - 1 that the
                     next slot of embedding i admits
        dominators[i]
                     the ids whose embeddings cover embedding i, filled
                     as each embedding is interned
        steps[(ids, dead, c)]
                     the reduced pair that the pair (ids, dead) steps to
                     on letter c
        deleted[(ids, dead, mask)]
                     the pair (ids, dead) with the dead letters of mask
                     deleted
        merged[(ids, dead, top)]
                     (pair, groups): merge_live of the pair (ids, dead)
                     with gaps 0..top

    The kill map ``final_kills`` reads, through ``slots``, the rows of
    the penultimate ids of a pair at the letters they admit, and at a
    modified word's gap places the rows of their ``gaps`` moves.
    """

    __slots__ = ("p", "plan", "tails", "index", "embeddings",
                 "rows", "gaps", "drops", "merges", "kills", "dominators",
                 "penult", "fixed", "ranged", "slots", "root", "steps",
                 "deleted", "merged")

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
        # and rejects most cover pairs
        final = p[-1]
        self.tails = [(final, *(set(p[j:]) - {final}))
                      for j in range(len(p))]
        self.index = {}
        self.embeddings = []
        self.rows, self.gaps, self.drops, self.merges = [], [], [], []
        self.kills, self.dominators, self.slots = [], [], []
        self.penult = self.ranged = 0
        self.fixed = {}
        self.steps, self.deleted, self.merged = {}, {}, {}
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
            self.merges.append({})
            self.kills.append(_kills(e[1][self.p[-1]]))
            self.dominators.append(0)
            for k, f in enumerate(self.embeddings[:i]):
                if self.covers(f, e):
                    self.dominators[i] |= 1 << k
                elif self.covers(e, f):
                    self.dominators[k] |= 1 << i
            j, vals = e
            if j == len(self.p) - 2:
                self.penult |= 1 << i
            a = vals[self.p[j]]
            if type(a) is int:
                self.fixed[a] = self.fixed.get(a, 0) | 1 << i
                self.slots.append((a, a + 1))
            else:
                self.ranged |= 1 << i
                self.slots.append((a[0] + 1, a[1]))
        return i

    def covers(self, e2, e1) -> bool:
        """Whether embedding e2 admits, on every letter of its rest of p,
        every letter that embedding e1 admits, so that every completion
        of e1 completes e2."""
        (j1, v1), (j2, v2) = e1, e2
        if j2 < j1:
            return False
        # a letter e1 has matched, e2 has matched too (j2 >= j1), so b is
        # a value wherever a is
        for u in self.tails[j2]:
            a, b = v1[u], v2[u]
            if type(b) is int:
                if a != b:
                    return False
            elif a[0] < b[0] or b[1] < a[1]:
                return False
        return True

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

    def rename(self, i: int, table, key, value, low, high) -> int:
        """table[i][key], computed and kept: the bit of the id of embedding
        i after each value a becomes value(a) and each open interval
        (lo, hi) becomes (low(lo), high(hi)); 0 when a value or a lower
        end maps to None or an interval is left empty.

        Every move renames, in order, the letters a continuation of the
        prefix may still take, and maps each value and end so that such
        a letter compares with it as the letter's old name did with the
        old one.  A deleted letter is dead, and the letters g, g + 1 and
        g + 2 of ``move_gap`` compare as gap g did, where no value or end
        sits.  Containment compares letters only, so the renamed
        embedding completes on exactly the renamed continuations of the
        old one.  An embedding that must match a value no continuation
        takes, or whose interval holds no such letter, never completes
        and is dropped.  The result is a function of the old pair, so
        equal pairs stay equal."""
        j, vals = self.embeddings[i]
        vals = list(vals)
        m = 0
        for u, a in enumerate(vals):
            if type(a) is int:
                a = value(a)
                if a is None:
                    break
                vals[u] = a
            elif a is not None:
                lo, hi = low(a[0]), high(a[1])
                if lo is None or lo + 1 >= hi:
                    break
                vals[u] = (lo, hi)
        else:
            m = 1 << self.intern((j, tuple(vals)))
        table[i][key] = m
        return m

    def move_gap(self, i: int, g: int) -> int:
        """gaps[i][g]: every value and end above g moves up by 2."""
        def up(a):
            return a + 2 if a > g else a
        return self.rename(i, self.gaps, g, up, up, up)

    def move_drop(self, i: int, x: int) -> int:
        """drops[i][x]: the value x is gone, and values and upper ends
        above x, and lower ends at or above x, move down by 1."""
        return self.rename(i, self.drops, x,
                           lambda a: None if a == x else a - (a > x),
                           lambda lo: lo - (lo >= x),
                           lambda hi: hi - (hi > x))

    def move_merge(self, i: int, groups: tuple) -> int:
        """merges[i][groups]: a value is gone (a permutation never repeats
        one), and an interval end goes to its group, a lower end in the
        top run to None and an upper one to ``inf``.  groups[r + 1] is the
        group of rank r (value letter 2r + 1); the last entry is the group
        of the top run."""
        top = groups[-1]

        def end(a, in_top):
            g = top if a == inf else groups[(a + 1) // 2]
            return in_top if g == top else 2 * g + 1
        return self.rename(i, self.merges, groups, lambda a: None,
                           lambda lo: end(lo, None),
                           lambda hi: end(hi, inf))

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
        """The pair (ids, dead) with the dead letters of mask deleted,
        the highest first, so each is still at its place; kept.  This is
        open_gap run backwards: the dead bits above a deleted letter move
        down by one."""
        key = (ids, dead, mask)
        t = self.deleted.get(key)
        if t is None:
            while mask:
                x = mask.bit_length() - 1
                mask ^= 1 << x
                ids = self.moved(ids, self.drops, self.move_drop, x)
                dead = dead & _below(x) | dead >> (x + 1) << x
            t = self.deleted[key] = self.reduced(ids, dead)
        return t

    def reduced(self, ids: int, dead: int):
        """The pair (ids, dead) reduced: dropped are the embeddings
        that can only kill letters some other part of the pair kills
        anyway,

        (a) those whose final pattern letter may only take dead letters;
        (b) then every embedding that another one left by (a) covers: one
            (j2 >= j1, v2) that admits, on every letter of p[j2:], every
            letter (j1, v1) admits, so that every completion of v1 also
            completes v2.

        Dead bits stay the same on every continuation and every move of
        the book; only the pairs get fewer.  Dropping every
        covered embedding at once is sound: covering is transitive, and
        two distinct embeddings never cover each other (they would be
        equal, and share one id), so each has a kept dominator."""
        kills, dominators = self.kills, self.dominators
        live = rest = ids
        while rest:
            low = rest & -rest
            rest ^= low
            m = kills[low.bit_length() - 1]
            if dead & m == m:
                live ^= low
        kept = rest = live
        while rest:
            low = rest & -rest
            rest ^= low
            if dominators[low.bit_length() - 1] & live:
                kept ^= low
        return kept, dead

    def step(self, ids: int, dead: int, c: int):
        """The pair (ids, dead) grown by the letter c, reduced, kept."""
        key = (ids, dead, c)
        t = self.steps.get(key)
        if t is None:
            t = self.steps[key] = self._step(ids, dead, c)
        return t

    def _step(self, ids: int, dead: int, c: int):
        rows, penult = self.rows, self.penult
        grown, old_dead = ids, dead
        rest = (ids | self.root) & (self.fixed.get(c, 0) | self.ranged)
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            m = rows[i].get(c)
            if m is None:
                m = rows[i][c] = self._grow(i, c)
            if low & penult:
                dead |= m
            else:
                grown |= m
        if dead == old_dead:
            dead = old_dead     # share an unchanged mask along a walk's stack
            if grown == ids:
                return ids, dead
        return self.reduced(grown, dead)

    def final_kills(self, ids: int, stop: int, gap_stop: int = 0) -> dict:
        """The kill map of the pair: ``{x: kills}`` for the letters
        x < stop that some penultimate embedding of ids (or the root,
        when p has two letters) admits, where kills is the union of their
        rows on x, and the dead mask of ``step(ids, dead, x)`` is
        dead | kills.  On every other letter a step leaves dead as it is.

        With ``gap_stop``, the pair is a modified word's in doubled
        coordinates: the letters are the odd value places x < stop and
        the even gap places stop <= x < gap_stop, and at a gap place x
        the dead mask of ``step(*open_gap(ids, dead, x), x + 1)`` is
        dead, moved by the open, | kills.  Dead bits grow only through
        penultimate rows, ``open_gap`` moves every embedding and drops
        none, and an embedding moved by ``move_gap(i, x)`` admits x + 1
        exactly when the slot of i held gap x, since values are odd.

        Rows and moves asked for the first time are made and kept, and
        no step is."""
        rows, slots, out = self.rows, self.slots, {}
        rest = (ids | self.root) & self.penult
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            row = rows[i]
            first, end = slots[i]
            # doubled, the value places are the odd ones
            for x in (range(first | 1, min(end, stop), 2) if gap_stop
                      else range(first, end if end < stop else stop)):
                m = row.get(x)
                if m is None:
                    m = row[x] = self._grow(i, x)
                out[x] = out.get(x, 0) | m
            if gap_stop and end > stop:
                first = max(first, stop)
                for x in range(first + (first & 1), min(end, gap_stop), 2):
                    moved = self.gaps[i].get(x) or self.move_gap(i, x)
                    k = moved.bit_length() - 1
                    m = rows[k].get(x + 1)
                    if m is None:
                        m = rows[k][x + 1] = self._grow(k, x + 1)
                    out[x] = out.get(x, 0) | m
        return out

    # Appending c to an ascent sequence x appends c to its modified word,
    # after raising every letter >= c by one when c is an ascent top.  The
    # tracker follows the raise in doubled coordinates: value v is letter
    # 2v + 1 and 2v is the gap just below it, so the raise turns gap 2c
    # into a new value with a gap on either side.  Letters are odd, so the
    # empty-interval test of _grow already keeps the gap between two
    # adjacent values open for such a new value, and step is unchanged.

    def open_gap(self, ids: int, dead: int, g: int):
        """The pair (ids, dead) after its live gap g becomes gap, value
        g + 1 and gap: every value, interval end and dead bit above g
        moves up by 2.  Gap g is not dead, so neither are the three
        letters it becomes."""
        return self.moved(ids, self.gaps, self.move_gap, g), opened(dead, g)

    def merge_live(self, ids: int, dead: int, top: int):
        """``((ids, dead), groups)``: the pair of a permutation in doubled
        coordinates, with gaps 0, 2, ..., 2 top, after its dead gaps are
        deleted and each run of values between two live gaps is merged
        into one value.  Live gap k becomes gap 2k, the run above it
        value 2k + 1.  groups[r + 1] is the group of rank r, the number
        of live gaps below it less one, for r = -1, ..., top; the run
        below the first live gap is group -1, the run above the last is
        the last group.

        An interval end in the bottom run becomes -1, and one in the top
        run ``inf`` (``move_merge``).  Every gap left is live, so the
        dead mask is 0.  Only for distinct-letter patterns."""
        key = (ids, dead, top)
        t = self.merged.get(key)
        if t is None:
            groups, g = [-1], -1
            for k in range(top + 1):
                g += not (dead >> 2 * k) & 1
                groups.append(g)
            groups = tuple(groups)
            t = self.merged[key] = (
                self.reduced(self.moved(ids, self.merges, self.move_merge,
                                        groups), 0), groups)
        return t


def start(p):
    """``(book, ids, dead)``: a fresh book of pattern p and the pair of
    the empty prefix, whose dead mask is -1 (every letter) when p has
    one letter.  Patterns above MAX_PATTERN_LENGTH letters are refused."""
    p = normalize_pattern(p)
    if len(p) > MAX_PATTERN_LENGTH:
        raise ValueError(f"patterns longer than {MAX_PATTERN_LENGTH} "
                         "letters are not supported")
    return _Book(p), 0, -1 if len(p) == 1 else 0
