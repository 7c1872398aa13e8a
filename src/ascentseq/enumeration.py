"""Exhaustive generation of ascent sequences, avoiders and relatives.

Each set states once its growth rule, ``children(key)``: the letters
that may follow a prefix with that key, each with the key of the longer
prefix.  ``_walk`` lists a rule's words on an explicit stack, so no
length meets a recursion limit; all generators stream lazily in
lexicographic order and are deterministic.  Avoiders prune: no prefix is
extended by a letter that the dead mask of its tracker pair (ids, dead)
holds, which is sound because containment is monotone under appending
letters.

Counting lists no words: ``_layers`` runs a rule as a layered
transfer-matrix count, where prefixes with equal keys have equal futures
and are merged into one weighted key, with one budget check per key,
and grows each distinct key once per count into the list of its
children's keys.  Every layer it builds is grown this one way, the last
one included.  Two counts stop two layers short of their length and
read the rest off the dead masks of the layer two back, through the
book's one kill map, ``final_kills``: the letters on which a step can
kill new letters.  A count of avoiders is read off the layer two before
its length, before the layer after that one is built, so a caller that
stops taking counts never builds the layer it would read next: each
key's two-letter continuations are summed in closed form, corrected
only at the letters the kill map names, and kept for the count.  The
last two ``asc`` histograms of modified ascent sequences are read off
the layer two back the same way.  The budget is checked once per key on
both passes over a layer, the sum and the growth.
A layered key is the flat tuple ``(ids, last, dead, a)``: the tracker
pair (ids, dead) in the book that the rule holds, the last letter, and
the bound a + 1 on the next letter.  Avoiders are keyed by live
letters: every dead letter up to a + 1 is deleted, so prefixes that
differ only in where their dead letters sit merge, and a key's children
are built in one loop over its letters.  Modified ascent sequences
append c to the modified word after a raise when c is an ascent top,
which opens gap 2c into a new value.  Permutations insert their last
entry into gap 2c, and are keyed by live gaps: every dead gap is
deleted and the values between two live gaps are merged.  Joint
statistic histograms grow every layer of the same rules, with a small
prefix state per statistic in the key, but for asc, which rides in the
weights as a polynomial packed into one int.  For them each rule yields,
per child, the place of the new letter (letter c is place 2c + 1, and
place 2c is the gap just below it) and the move that renamed the key's
places on the way, or None, and each set's one rename moves the states'
places with the key.
"""

from __future__ import annotations

import reprlib
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from itertools import chain, islice
from math import inf
from typing import NamedTuple

from . import bijections, incremental
from .core import (check_perm_pattern, contains, normalize_pattern,
                   word_str)


class CountSeries(NamedTuple):
    """Counting sequence keyed by length, over a contiguous range 1..n_max."""

    label: str
    values: dict[int, int]

    def as_list(self) -> list[int]:
        return [self.values[n] for n in sorted(self.values)]

    @property
    def n_max(self) -> int:
        return max(self.values)


MAX_LENGTH = 10**6      # past this, one layer outlasts the default budget
_MAX_ASCENT_SEQUENCES_N = 80    # 0.7 s on 2 cores, CPython 3.11


def _check_length(n: int) -> None:
    if type(n) is not int:
        raise ValueError(f"length must be an int, not {n!r}")
    if n < 1:
        raise ValueError("length must be at least 1")
    if n > MAX_LENGTH:
        raise ValueError(f"lengths above {MAX_LENGTH} are not supported")


def _check_hook(check) -> None:
    """Refuse a budget hook that is neither None nor callable, once per
    call, before it is first called."""
    if check is not None and not callable(check):
        raise ValueError("check must be callable or None, not "
                         f"{reprlib.repr(check)}")


def _walk(n: int, state0, children, check=None):
    """Yield every length-n word grown from state0, lexicographically.

    ``children(state)`` returns an iterator of ``(letter, next_state)``
    pairs in increasing letter order; the stack holds one partly used
    iterator per prefix position.  Last letter, ascents and maximum start
    at -1, so only 0 may follow the empty prefix.  ``check``, when given,
    is called once per prefix grown, so a budget can stop the walk on its
    way to a word.
    """
    prefix: list[int] = []
    stack = [children(state0)]
    while stack:
        for c, state in stack[-1]:
            if check is not None:
                check()
            prefix.append(c)
            if len(prefix) < n:
                stack.append(children(state))
                break
            yield tuple(prefix)
            prefix.pop()
        else:
            stack.pop()
            del prefix[-1:]     # nothing to drop once the root is done


def _layers(children, start, n_max: int, check=None):
    """Yield ``(n, layer)`` for n = 1..n_max; layer n maps the key of each
    length-n prefix grown from ``start`` to the number of prefixes with
    it.  Every layer, the last one included, is grown by
    ``children(key)``, which returns the list of the keys of a key's
    children and is called once per distinct key: the children are kept
    for the count, but not those of the keys grown last, which never
    come back.  ``check`` is called once per key of the layer before and
    may raise to abort.  Layer n + 1 is grown from the very dict yielded
    as layer n, so a caller may rewrite that dict in place before it asks
    for the next layer, and a weight need only support +: the joint
    histograms fold there the children of each ascent onto their keys,
    with weights that pack a polynomial into one int
    (``joint_histograms``)."""
    layer = {start: 1}
    rows = {}       # key -> its children's keys, for this count only
    for n in range(1, n_max + 1):
        nxt = defaultdict(int)
        # equal children of different keys are kept as one object, not as
        # one copy per row that holds them
        same = {}.setdefault
        for key, ways in layer.items():
            if check is not None:
                check()
            row = rows.get(key)
            if row is None:
                row = children(key)
                if n < n_max:   # a key grown last never comes back
                    row = rows[key] = tuple([same(c, c) for c in row])
            for child in row:
                nxt[child] += ways
        layer = nxt
        yield n, layer


# ---------------------------------------------------------------------------
# plain ascent sequences


def generate_ascent_sequences(n: int):
    """Yield every ascent sequence of length n, lexicographically."""
    _check_length(n)

    def children(key):
        last, a = key
        for c in range(a + 2):
            yield c, (c, a + 1 if c > last else a)

    yield from _walk(n, (-1, -1), children)


def count_ascent_sequences(n: int) -> int:
    """Number of ascent sequences of length n.

    Dynamic programming over (ascents so far, last letter) states; used as
    a cross-check against the exhaustive generator.
    """
    _check_length(n)
    if n > _MAX_ASCENT_SEQUENCES_N:
        raise ValueError(f"n above {_MAX_ASCENT_SEQUENCES_N} is not supported")
    states = Counter({(0, 0): 1})
    for _ in range(n - 1):
        nxt: Counter = Counter()
        for (a, last), ways in states.items():
            for c in range(a + 2):
                nxt[(a + 1 if c > last else a, c)] += ways
        states = nxt
    return sum(states.values())


# ---------------------------------------------------------------------------
# pattern avoiders


def _avoider_rule(p):
    """``(start, children, grow, leaves)`` of the p-avoiding ascent
    sequences, keyed by live letters.  ``grow(key)`` returns the list of
    the keys of the longer prefixes, one for each letter 0..a + 1 of the
    key in order.  ``children(key)`` yields ``(2c + 1, child, gone)``
    for each letter c: the place of c, the key ``grow`` made for it, and
    the mask of the letters deleted from it, or None when none was.
    ``leaves(key)`` returns the number of continuations of the key by
    two letters: the a + 2 of each child's key, summed.

    A key is (ids, last, dead, a), where the next letter is at most
    a + 1.  Every key is made live: the dead letters in 0..a + 1 are
    deleted from its pair (ids, dead) by the book's ``delete``,
    ``last`` falls by the number deleted at or below it and ``a`` by the
    number deleted.  So every letter 0..a + 1 of a key is allowed: a key
    grows on each with no dead-bit test.

    The deletion keeps every count.  Take a prefix with pair s, last
    letter ``last`` and bound a, a letter x <= a + 1 that s kills, and
    the pair s', last' and a' with x deleted.  x stays dead however the
    prefix grows, so the prefix's continuations are words over the other
    letters, and renaming each letter y > x to y - 1 maps them one to
    one onto words.  The renaming keeps the order of letters, and a
    continuation's letter c is never x, so the rule allows a
    continuation from s, last and a exactly when it allows the renamed
    one from s', last' and a':

    - the bound: c <= a + 1 exactly when the renamed c is at most
      a' + 1 = a, and each ascent raises both bounds by one;
    - ascents: c > last exactly when the renamed c exceeds last', which
      is last, or last - 1 when last >= x;
    - containment: ``delete`` renames the pair's values, interval ends
      and dead bits with the letters (the rule is in
      ``incremental._Book.rename``).

    The deleted key is a function of the key, so keys that were equal
    stay equal: the count merges more prefixes, never fewer.

    A child's key has a + 2 = width less its dead letters below width,
    where width is a + 2 for a letter c <= last and a + 3 for an ascent
    top: reduction keeps every dead bit and the deletion removes exactly
    those letters.  A step adds dead bits only through the pair's
    penultimate embeddings, and only on a letter that one of them
    admits; the key's letters 0..a + 1 are live.  So ``leaves`` counts
    a + 2 for each of the last + 1 letters c <= last and a + 3 less bit
    a + 2 of dead for each of the a + 1 - last others, and then takes
    off the new dead bits below width of the letters that the book's
    kill map, ``final_kills``, names.  It builds no child key.
    """
    book, ids, dead = incremental.start(p)
    step, delete, final_kills = book.step, book.delete, book.final_kills

    def grow(key):
        ids, last, dead, a = key
        out = []
        b = a           # the child's bound: a, or a + 1 past last
        for c in range(a + 2):
            if c > last:
                b = a + 1
            t, d = step(ids, dead, c)
            gone = d & ((1 << (b + 2)) - 1)
            if gone:
                t, d = delete(t, d, gone)
                out.append((t, c - (gone & ((1 << (c + 1)) - 1)).bit_count(),
                            d, b - gone.bit_count()))
            else:
                out.append((t, c, d, b))
        return out

    def children(key):
        ids, last, dead, a = key
        for c, child in enumerate(grow(key)):
            # the mask grow deleted, read off the kept step
            gone = step(ids, dead, c)[1] & ((1 << (a + 2 + (c > last))) - 1)
            yield 2 * c + 1, child, gone or None

    def leaves(key):
        ids, last, dead, a = key
        width = (1 << (a + 2)) - 1
        total = ((last + 1) * (a + 2)
                 + (a + 1 - last) * (a + 3 - (dead >> (a + 2) & 1)))
        for c, m in final_kills(ids, a + 2).items():
            total -= (m & ~dead & (width if c <= last
                                   else width << 1 | 1)).bit_count()
        return total

    # the empty prefix: only a one-letter pattern kills its one letter 0
    gone = dead & 1
    if gone:
        ids, dead = delete(ids, dead, gone)
    return (ids, -1, dead, -1 - gone), children, grow, leaves


def avoiders(p, n: int, check=None):
    """Yield the p-avoiding ascent sequences of length n, lexicographically,
    pruned by the pattern's tracker; ``check`` is passed on to the walk."""
    _check_length(n)
    _check_hook(check)
    book, ids, dead = incremental.start(p)
    step = book.step

    def children(key):
        ids, dead, last, a = key
        for c in range(a + 2):
            if not (dead >> c) & 1:
                yield c, (*step(ids, dead, c), c, a + 1 if c > last else a)

    yield from _walk(n, (ids, dead, -1, -1), children, check)


def avoider_counts(p, n_max: int, check=None):
    """Yield ``(n, count)`` for n = 1..n_max, the number of p-avoiding
    ascent sequences of length n.  Count n >= 2 is read off layer n - 2,
    before layer n - 1 is built, so a caller that stops after count n
    never builds layer n - 1.

    A layer maps the live keys of ``_avoider_rule`` to the number of
    prefixes with each, and a key grows into one child per letter.
    Count n is the sum of ways times the rule's ``leaves`` total over
    layer n - 2: a closed form in the key's last, a and dead, less the
    new dead bits of the few letters that the book's ``final_kills``
    names.  Keys recur across layers, so the totals are kept for the
    count, except those of the last layer, whose keys never come back.
    ``check``, when given, is called once before count 1, then once per
    key of each layer that is summed into a count and once per key of
    each layer that is grown, and may raise to abort cleanly (used for
    CLI budget guards); the counts yielded before it raised stay valid.
    """
    _check_length(n_max)
    _check_hook(check)
    start, _, grow, leaves = _avoider_rule(normalize_pattern(p))
    if check is not None:
        check()                 # a spent budget refuses before count 1
    yield 1, start[-1] + 2
    totals = {}     # key -> its leaves total, for this count only
    layers = chain([(0, {start: 1})], _layers(grow, start, n_max - 2, check))
    for n, layer in islice(layers, n_max - 1):     # layers 0..n_max - 2
        count = 0
        for key, ways in layer.items():
            if check is not None:
                check()
            total = totals.get(key)
            if total is None:
                total = leaves(key)
                if n < n_max - 2:   # a key of the last layer never comes back
                    totals[key] = total
            count += ways * total
        yield n + 2, count


def count_avoiders(p, n_max: int, threads: int = 1, split_depth=None,
                   check=None) -> CountSeries:
    """Count p-avoiding ascent sequences for every length 1..n_max.

    ``threads`` and ``split_depth`` are accepted and ignored: counting is
    sequential.  ``check`` is passed on to ``avoider_counts``.
    """
    counts = dict(avoider_counts(p, n_max, check))
    return CountSeries(word_str(normalize_pattern(p)), counts)


# ---------------------------------------------------------------------------
# restricted ascent sequences


def generate_restricted(n: int):
    """Yield the restricted ascent sequences of length n (letters never drop
    more than one below the running maximum), lexicographically."""
    _check_length(n)

    def children(key):
        last, a, m = key
        for c in range(max(0, m - 1), a + 2):
            yield c, (c, a + 1 if c > last else a, max(m, c))

    yield from _walk(n, (-1, -1, -1), children)


# ---------------------------------------------------------------------------
# pattern-avoiding permutations


def perm_avoiders(q, n: int, check=None):
    """Yield the permutations of 1..n avoiding the (distinct-letter)
    pattern q, lexicographically, pruned by the pattern's tracker;
    ``check`` is passed on to the walk."""
    _check_length(n)
    _check_hook(check)
    book, ids, dead = incremental.start(check_perm_pattern(q))
    step = book.step

    def children(key):
        ids, dead, used = key
        for v in range(1, n + 1):
            if not ((used | dead) >> v) & 1:
                yield v, (*step(ids, dead, v), used | 1 << v)

    yield from _walk(n, (ids, dead, 0), children, check)


def _perm_rule(q):
    """``(start, children)`` of the q-avoiding permutations, grown by
    inserting the last entry at a rank c: every earlier entry of rank
    >= c moves up by one, so gap 2c of the tracker pair opens into the
    new value (``open_gap``).  ``children(key)`` returns the list of
    ``(2c, child, (2c, groups))`` for each rank c in order, where
    groups is the rank-to-group map of the book's ``merge_live``.

    A key is (ids, last, dead, a), keyed by live gaps: every dead gap is
    deleted from the pair, so dead is 0, and each run of values between
    two live gaps is merged into one value (``merge_live``), ``last`` is
    the group of the last entry, and a + 2 is the number of live gaps.
    Every gap 0..a + 1 of a key is live, so a key grows into each with
    no dead-bit test.

    The merge keeps every histogram.  A dead gap stays dead however the
    permutation grows, so every later entry goes into a live gap, and
    numbering the live gaps 0, 1, ... maps the continuations of the raw
    pair one to one onto those of the merged one.  A later entry lies
    above a value exactly when its live gap does, which is the same for
    every value of one run, so the merge keeps what each continuation
    compares: ``merge_live`` moves each interval end to its run's value
    (the rule is in ``incremental._Book.rename``), and q has distinct
    letters, so no embedding waits to match a value again.  The merged
    key is a function of the raw one, so keys that were equal stay
    equal: the layers merge more permutations, never fewer.
    """
    book, ids, dead = incremental.start(q)
    step, open_gap, merge_live = book.step, book.open_gap, book.merge_live

    def inserted(ids, dead, g, top):
        (ids, dead), groups = merge_live(
            *step(*open_gap(ids, dead, g), g + 1), top)
        return g, (ids, groups[g // 2 + 1], dead, groups[-1] - 1), (g, groups)

    def children(key):
        ids, last, dead, a = key
        return [inserted(ids, dead, 2 * c, a + 2) for c in range(a + 2)]

    (ids, dead), groups = merge_live(ids, dead, 0)
    return (ids, -1, dead, groups[-1] - 1), children


# ---------------------------------------------------------------------------
# set partitions


def generate_set_partitions(n: int):
    """Yield all partitions of {1, ..., n} in standard form (blocks sorted
    ascending, ordered by minima), enumerated via their growth strings."""
    _check_length(n)

    def children(m):
        for b in range(m + 2):
            yield b, max(m, b)

    yield from map(bijections._blocks, _walk(n, -1, children))


# ---------------------------------------------------------------------------
# modified ascent sequences


def modified_avoiders(p, n: int, check=None):
    """Yield (x, modified(x)) for the ascent sequences x of length n whose
    modified word avoids p.  Containment is tested on the modified word,
    which need not itself be an ascent sequence.  ``check``, when given,
    is called once per ascent sequence."""
    p = normalize_pattern(p)
    _check_hook(check)
    for x in generate_ascent_sequences(n):
        if check is not None:
            check()
        w = bijections.modify(x)
        if not contains(w, p):
            yield x, w


def _modified_rule(p):
    """``(start, children, grow, kills)`` of the ascent sequences whose
    modified word avoids p: appending c after ``last`` appends c to the
    modified word, where first, when c is an ascent top, every letter
    >= c moves up by one: gap 2c opens into a value.  Keyed by (ids,
    last, dead, a), where (ids, dead) is the pair of the modified word.
    ``grow(key)`` returns the list of the keys of the longer prefixes,
    one per allowed letter in order: each c <= last whose value place
    2c + 1 is alive, then each ascent top c <= a + 1 whose gap place 2c
    is.  ``children(key)`` yields ``(place, child, gap)`` for each: the
    place 2c + 1 and no gap, or for an ascent top the gap 2c as both.
    ``kills`` is the book's kill map ``final_kills``, which names the
    gap places too when given their end."""
    book, ids, dead = incremental.start(p)
    step, open_gap = book.step, book.open_gap

    def grow(key):
        ids, last, dead, a = key
        out = []
        for x in range(1, 2 * last + 2, 2):
            if not (dead >> x) & 1:
                t, d = step(ids, dead, x)
                out.append((t, x >> 1, d, a))
        for x in range(2 * last + 2, 2 * a + 3, 2):
            if not (dead >> x) & 1:
                t, d = step(*open_gap(ids, dead, x), x + 1)
                out.append((t, x >> 1, d, a + 1))
        return out

    def children(key):
        last = key[1]
        for child in grow(key):
            c = child[1]
            yield ((2 * c + 1, child, None) if c <= last
                   else (2 * c, child, 2 * c))

    return (ids, -1, dead, -1), children, grow, book.final_kills


def modified_asc_counts(p, n_max: int, check=None):
    """Yield ``(n, histogram)`` for n = 1..n_max, where the histogram maps
    asc(x) to the number of ascent sequences x of length n whose
    modified word avoids p, each as soon as it is summed.

    A layered count like ``avoider_counts``, keyed by
    ``_modified_rule``, whose a is asc.  The last two histograms are
    both read off layer n_max - 2 (the start when n_max = 1) in one
    pass, so layer n_max - 1 is never built: histogram n_max - 1 counts
    each key's allowed letters, and histogram n_max each child's, from
    the child's dead mask: the key's, moved as ``open_gap`` moves it at
    an ascent top, with the kills that the book's ``final_kills`` names
    at the value places and the gap places of the key.  Both are
    yielded after that pass.
    ``check``, when given, is called once per key of each layer grown
    and once per key of layer n_max - 2, and may raise to abort; the
    histograms yielded before it raised stay valid, so a refusal in the
    last pass leaves histograms 1..n_max - 2.  The histograms of
    ``joint_histograms(("modified-avoiders", p), n_max, "asc")`` are the
    same, keyed by ``(a,)``, but that pass builds all n_max layers, where
    this one stops two short, and the key's a fixes asc, so its weights
    merge no keys: over the six ``modi`` patterns it is 3.4 times as slow
    to n = 9 and 4.2 times to n = 12 (medians side by side, 2 cores,
    CPython 3.11), so this reader stays.
    """
    _check_length(n_max)
    _check_hook(check)
    start, _, grow, kills = _modified_rule(normalize_pattern(p))
    opened = incremental.opened

    def alive(dead, lo, count):
        """How many of the bits lo, lo + 2, ..., lo + 2(count - 1) are 0."""
        every_other = ((1 << (2 * count)) - 1) // 3     # bits 0, 2, 4, ...
        return count - ((dead >> lo) & every_other).bit_count()

    layer = {start: 1}
    for n, layer in _layers(grow, start, n_max - 2, check):
        hist = Counter()
        for (_, _, _, a), ways in layer.items():
            hist[a] += ways
        yield n, hist
    # a key (last, dead, a) allows each value c <= last whose place
    # 2c + 1 is alive, at asc a, and each ascent top c <= a + 1 whose
    # gap place 2c is alive, at asc a + 1: histogram n_max - 1 counts
    # these letters, and histogram n_max the same letters of each one's
    # child, with its last letter c, its asc a or a + 1 and its dead mask
    before, hist = Counter(), Counter()     # histograms n_max - 1, n_max
    for (ids, last, dead, a), ways in layer.items():
        if check is not None:
            check()
        killed = kills(ids, 2 * last + 2, 2 * a + 3)
        # the key's letters at asc a, a + 1 and their continuations at
        # asc a, a + 1, a + 2
        values = tops = flat = rise = top = 0
        for x in range(1, 2 * last + 2, 2):
            if not (dead >> x) & 1:
                values += 1
                d = dead | killed.get(x, 0)
                flat += alive(d, 1, x // 2 + 1)
                rise += alive(d, x + 1, a - x // 2 + 1)
        for x in range(2 * last + 2, 2 * a + 3, 2):
            if not (dead >> x) & 1:
                tops += 1
                d = opened(dead, x) | killed.get(x, 0)
                rise += alive(d, 1, x // 2 + 1)
                top += alive(d, x + 2, a - x // 2 + 2)
        for h, totals in ((before, (values, tops)), (hist, (flat, rise, top))):
            for b, total in enumerate(totals):
                if total:
                    h[a + b] += ways * total
    yield max(n_max - 1, 1), before
    if n_max > 1:
        yield n_max, hist


def count_modified_avoiders(p, n: int, check=None) -> int:
    """Number of ascent sequences of length n whose modified word avoids
    p, by the layered count of ``modified_asc_counts`` (tracker pairs in
    doubled coordinates, moved by ``open_gap`` before each ascent top).
    ``check`` is passed on to it, which calls it once per key of layers
    0..n - 2 (once in all for n = 1)."""
    for _, hist in modified_asc_counts(p, n, check):
        pass
    return sum(hist.values())


# ---------------------------------------------------------------------------
# statistic histograms
#
# Every statistic but asc is read off a small state carried along the
# prefix, so a histogram is a layered count with the statistics' states in
# the key; asc rides in the key's weight instead (``joint_histograms``).
# States hold places, as the set keys do: letter c is place 2c + 1 and
# place 2c is the gap below it.  A rule is (start, step): step(s, x, last)
# is the state once the letter at place x follows a prefix whose key has
# the last letter ``last`` (-1 when empty).  x is read in the key's places
# before the child's move, and the set's one rename then moves every
# place of the state with the key (``_SETS``).  fwd is a count that
# compares x with the key's last letter, place 2 last + 1, as the ascent
# test of asc does.  The other states are (statistic, places ...): des
# keeps the place of the last letter, lrmax and lrmin that of the extreme
# so far, zeros that of the smallest letter (0 is the first letter of
# every ascent sequence), and rlmax and rlmin the sorted places of the
# right-to-left records, a stack that each new letter pops.  des needs
# its own place: when the last letter is deleted, the key's last falls to
# the live letter below, which still answers > and <= for every later
# letter but not <.


def _delete(y, gone):
    """Place y of an avoider key once the letters of the mask gone are
    deleted (``_avoider_rule``): with k letters below v gone, a live
    letter v goes to 2(v - k) + 1, and a deleted letter v, like the gap
    below v, to the gap 2(v - k) it leaves.  A deleted letter never
    occurs again, so it compares with every later letter as that gap
    does.  Every statistic state's start sentinel (-1 or ``inf``) is
    replaced on the first step, before any rename, so y is a place
    >= 0."""
    v = y >> 1
    gap = 2 * (v - (gone & ((1 << v) - 1)).bit_count())
    return gap + 1 if y & 1 and not (gone >> v) & 1 else gap


def _open(y, g):
    """Place y once gap g opens into a value (``open_gap``): places above
    g move up by 2, and the new letter in gap g becomes g + 1."""
    return y + 2 if y > g else g + 1 if y == g else y


def _merge(y, move):
    """Place y of a permutation key once the entry in gap g is inserted
    and the live gaps are merged (``_perm_rule``), where move is (g,
    groups): ``_open``, then value 2r + 1 goes to its group's value
    2 groups[r + 1] + 1.  Place -1, the run below the first live gap,
    stays -1, as groups[0] is -1."""
    g, groups = move
    y = _open(y, g)
    return 2 * groups[(y + 1) // 2] + 1


def _rlmax(s, x, last):
    i = bisect_right(s, x, 1)
    return (len(s) - i + 1, x) + s[i:]


def _rlmin(s, x, last):
    i = bisect_left(s, x, 1)
    return (i,) + s[1:i] + (x,)


_RULES = {
    "asc": None,    # carried in the weight, not the key (_joint_histograms)
    "fwd": (0, lambda s, x, last: s + 1 if x <= 2 * last + 1 else 1),
    "des": ((0, -1), lambda s, x, last: (s[0] + (x < s[1]), x)),
    "zeros": ((0, inf), lambda s, x, last:
              (s[0] + 1, x) if x <= s[1] else s),
    "lrmax": ((0, -1), lambda s, x, last: (s[0] + 1, x) if x > s[1] else s),
    "lrmin": ((0, inf), lambda s, x, last: (s[0] + 1, x) if x < s[1] else s),
    "rlmax": ((0,), _rlmax),
    "rlmin": ((0,), _rlmin),
}

# a permutation of 1..n has no zeros
_PERM_RULES = {**_RULES, "zeros": (0, lambda s, x, last: 0)}

# per set descriptor kind: its statistic rules, its growth rule and the
# rename of a place by one of its moves
_SETS = {
    "avoiders": (_RULES, _avoider_rule, _delete),
    "modified-avoiders": (_RULES, _modified_rule, _open),
    "perm-avoiders": (_PERM_RULES, _perm_rule, _merge),
}


def _described(descriptor, stats):
    """(kind, normalized pattern) of a set descriptor, with the arguments
    checked before any work is done."""
    try:
        kind, p = descriptor
    except (TypeError, ValueError):
        raise ValueError("unknown set descriptor "
                         f"{reprlib.repr(descriptor)}") from None
    if not isinstance(kind, str) or kind not in _SETS:
        raise ValueError(f"unknown set descriptor kind {reprlib.repr(kind)}")
    for s in stats:
        if not isinstance(s, str) or s not in _RULES:
            raise ValueError(f"unknown statistic {reprlib.repr(s)}; "
                             f"choose from {sorted(_RULES)}")
    if kind == "perm-avoiders":
        return kind, check_perm_pattern(p)
    return kind, normalize_pattern(p)


def joint_histograms(descriptor, n_max: int, *stats: str, check=None):
    """Yield ``(n, histogram)`` for n = 1..n_max, the joint histogram of
    the statistics over the described set of length n, keyed by the tuple
    of their values in the order given; each comes as soon as its layer
    is done.

    The descriptor is as for ``joint_distribution``.  Every kind is
    counted in one layered pass over its growth rule, keyed by (set key,
    statistic states), where the places in the statistic states are
    renamed with the set key by each child's move.  asc holds no place:
    its step reads only the key's last letter, so it is kept out of the
    key, and a key's weight is a polynomial in X whose coefficient of
    X^(a + 1) counts its prefixes with a ascents.  The polynomial is
    packed into one int at X = 256^width, where width, in bytes, bounds
    every count of the next layer (below n^n at length n) and is widened
    as the layers grow.  An ascent multiplies the weight by X, a shift,
    and merging keys adds their weights, so a key is no longer split once
    per ascent count (Kronecker substitution; Schönhage 1982).  Each
    histogram sums the weights per value of the other statistics and
    reads the coefficients back off the bytes of the sum.  Every layer,
    the last one included, is grown so, through ``_layers``.  ``check``,
    when given, is called once per key of layers 0..n_max - 1, as each
    is grown; the histograms yielded before it raised stay valid.  The
    arguments are checked at once, and the pass starts with the first
    histogram asked for.
    """
    if not stats:
        raise ValueError("joint_histograms needs at least one statistic")
    kind, p = _described(descriptor, stats)
    _check_length(n_max)
    _check_hook(check)
    return _joint_histograms(kind, p, n_max, stats, check)


def _joint_histograms(kind, p, n_max, stats, check):
    rules, rule, rename = _SETS[kind]
    start, children = rule(p)[:2]   # the avoider rule's rest counts
    asc = "asc" in stats
    others = list(dict.fromkeys(s for s in stats if s != "asc"))
    starts = tuple([rules[s][0] for s in others])
    steps = [rules[s][1] for s in others]
    # where each statistic's value is read: its state, or asc (None)
    slots = [None if s == "asc" else others.index(s) for s in stats]
    renamed = {}    # many keys step to one (states, move) pair

    def moved(st, move):
        return tuple([s if type(s) is int else
                      (s[0], *[rename(y, move) for y in s[1:]]) for s in st])

    moves = {}      # set key -> its children, for every key that holds it

    def grown(key):
        set_key, st = key
        last = set_key[1]
        top = 2 * last + 1 if asc else inf     # a letter above is an ascent
        row = moves.get(set_key)
        if row is None:
            row = moves[set_key] = list(children(set_key))
        out = []
        for x, child, move in row:
            st_child = tuple([f(s, x, last) for f, s in zip(steps, st)])
            if move is not None and st_child:
                k = st_child, move
                st_child = renamed.get(k) or renamed.setdefault(k, moved(*k))
            out.append(((child, st_child),) if x > top else (child, st_child))
        return out

    width = 1       # bytes per coefficient of a weight, bounding layer 1
    for n, layer in _layers(grown, (start, starts), n_max, check):
        # _layers grows this dict next, so it is folded in place: the
        # weights are repacked when layer n + 1 outgrows their width, and
        # each child of an ascent, keyed by its key in a 1-tuple, moves
        # onto that key with its weight times X
        if asc and n < n_max and _width(n + 1) > width:
            # to the width of layer 2n + 2, so a pass repacks only about
            # log2(n_max) times
            wider = _width(min(2 * n + 2, n_max))
            pad = bytes(wider - width)
            for key, w in layer.items():
                layer[key] = int.from_bytes(pad.join(_chunks(w, width)),
                                            "little")
            width = wider
        shift = 8 * width
        sums = defaultdict(int)     # the weights per tuple of states
        rises = []
        for key, w in layer.items():
            if len(key) == 1:
                rises.append((key, w << shift))
            else:
                sums[key[1]] += w
        for key, w in rises:
            del layer[key]
            key = key[0]
            layer[key] += w
            sums[key[1]] += w
        hist: Counter = Counter()
        for st, w in sums.items():
            row = [s if type(s) is int else s[0] for s in st]
            # coefficient i of a weight counts asc i - 1: the empty prefix
            # has asc -1, and every first letter is an ascent
            terms = (enumerate([int.from_bytes(c, "little")
                                for c in _chunks(w, width)], -1)
                     if asc else [(None, w)])
            for a, ways in terms:
                if ways:
                    hist[tuple([a if i is None else row[i]
                                for i in slots])] += ways
        yield n, hist


def _width(n):
    """Bytes that hold every count of words of length n: there are at
    most n! <= n^n < 2^(n bit_length(n)) of them."""
    return (n * n.bit_length() + 8) // 8


def _chunks(w, width):
    """The coefficients of the weight w, from X^0 up, as byte strings of
    width bytes each (the top one shorter): w is a polynomial in X
    evaluated at X = 256^width."""
    b = w.to_bytes((w.bit_length() + 7) // 8, "little")
    return [b[i:i + width] for i in range(0, len(b), width)]


def distribution(p, n: int, which: str) -> Counter:
    """Histogram of a statistic over the p-avoiding ascent sequences of
    length n."""
    return Counter({key[0]: ways for key, ways in
                    joint_distribution(("avoiders", p), n, which).items()})


def joint_distribution(descriptor, n: int, *stats: str,
                       check=None) -> Counter:
    """Joint histogram of one or more statistics over a described set,
    keyed by the tuple of their values in the order given.

    The descriptor is a pair ``(kind, pattern)`` with kind one of
    ``avoiders``, ``perm-avoiders`` or ``modified-avoiders``; statistics
    on the modified sets are evaluated on the modified words.  Every
    kind is counted by the layered pass of ``joint_histograms``, and
    ``check``, when given, is called once per key of each layer it
    grows.
    """
    if not stats:
        raise ValueError("joint_distribution needs at least one statistic")
    for _, hist in joint_histograms(descriptor, n, *stats, check=check):
        pass
    return hist
