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
children's keys.  A count of avoiders is read off the layer before its
length, and a layer is built only when the next count is asked for, so
a caller that stops taking counts stops the work; the last count is
read off the layer two before its length, so the largest layer is never
built: each key's letters are summed in closed form, corrected only at
the letters on which a step can kill new letters, which the book names.
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
statistic histograms run the same rules with a small prefix state per
statistic in the key.  For them each rule yields, per child, the place
of the new letter (letter c is place 2c + 1, and place 2c is the gap
just below it) and the move that renamed the key's places on the way,
or None, and each set's one rename moves the states' places with the
key.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
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


def _layers(children, start, n_max: int, check=None, leaves=None):
    """Yield ``(n, layer)`` for n = 1..n_max; layer n maps the key of each
    length-n prefix grown from ``start`` to the number of prefixes with
    it, where ``children(key)`` returns the list of the keys of its
    children, once per distinct key: the children of a key are kept
    until the last layer is grown.  ``check`` is called once per key of
    the layer before and may raise to abort.  With ``leaves``, the last
    layer is not grown: it sums ways times weight over the ``(leaf,
    weight)`` pairs that ``leaves(key)`` returns, which builds no key of
    it; growing the last layer instead more than doubled the time of the
    ``modi`` conjecture, and took most of the time and memory of a deep
    avoider count."""
    layer = {start: 1}
    rows = {}       # key -> its children's keys, for this count only
    last = n_max - (leaves is not None)     # the last layer grown
    for n in range(1, n_max + 1):
        nxt = defaultdict(int)
        # equal children of different keys are kept as one object, not as
        # one copy per row that holds them
        same = {}.setdefault
        for key, ways in layer.items():
            if check is not None:
                check()
            if n > last:
                for leaf, weight in leaves(key):
                    nxt[leaf] += ways * weight
                continue
            row = rows.get(key)
            if row is None:
                row = children(key)
                if n < last:    # a key grown last never comes back
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
    the mask of the letters deleted from it, or None when none was;
    ``children(key, False)`` yields ``(2c + 1, None, None)`` and steps
    no tracker.  ``leaves(key)`` returns the one pair ``(None, total)``,
    where total is the number of continuations of the key by two
    letters: the a + 2 of each child's key, summed.

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
    ``final_kills`` names.  It builds no child key.
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

    def children(key, grown=True):
        ids, last, dead, a = key
        if not grown:
            for c in range(a + 2):
                yield 2 * c + 1, None, None
            return
        for c, child in enumerate(grow(key)):
            # the mask grow deleted, read off the kept step
            gone = step(ids, dead, c)[1] & ((1 << (a + 2 + (c > last))) - 1)
            yield 2 * c + 1, child, gone or None

    def leaves(key):
        ids, last, dead, a = key
        width = (1 << (a + 2)) - 1
        total = ((last + 1) * (a + 2)
                 + (a + 1 - last) * (a + 3 - (dead >> (a + 2) & 1)))
        for c, m in final_kills(ids, a + 1).items():
            total -= (m & ~dead & (width if c <= last
                                   else width << 1 | 1)).bit_count()
        return ((None, total),)

    # the empty prefix: only a one-letter pattern kills its one letter 0
    gone = dead & 1
    if gone:
        ids, dead = delete(ids, dead, gone)
    return (ids, -1, dead, -1 - gone), children, grow, leaves


def avoiders(p, n: int, check=None):
    """Yield the p-avoiding ascent sequences of length n, lexicographically,
    pruned by the pattern's tracker; ``check`` is passed on to the walk."""
    _check_length(n)
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
    ascent sequences of length n.  Count n is read off layer n - 1, and
    layer n is built only when count n + 1 is asked for, so a caller
    that stops taking counts stops the work.

    A layer maps the live keys of ``_avoider_rule`` to the number of
    prefixes with each, and a key grows into one child per letter.
    Every letter 0..a + 1 of a key is allowed, so count n is the sum of
    ways * (a + 2) over layer n - 1.  Count n_max is the sum of ways
    times the rule's ``leaves`` total over layer n_max - 2 instead: a
    closed form in the key's last, a and dead, less the new dead bits of
    the few letters that the book's ``final_kills`` names, so layer
    n_max - 1, the largest, is never built.
    ``check``, when given, is called once before count 1 and once per
    key of layers 0..n_max - 2, and may raise to abort cleanly (used
    for CLI budget guards); the counts yielded before it raised stay
    valid.
    """
    _check_length(n_max)
    start, _, grow, leaves = _avoider_rule(normalize_pattern(p))

    def total(layer):
        return sum(ways * (key[-1] + 2) for key, ways in layer.items())

    if check is not None:
        check()                 # a spent budget refuses before count 1
    yield 1, total({start: 1})
    for n, layer in _layers(grow, start, n_max - 1, check, leaves):
        # the last layer is leaves: None to the count
        yield n + 1, total(layer) if n + 1 < n_max else sum(layer.values())


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
    new value (``open_gap``).  ``children(key)`` yields ``(2c, child,
    (2c, groups))`` for each rank c, where groups is the
    rank-to-group map of the book's ``merge_live``; ``children(key,
    False)`` yields ``(2c, None, None)`` and steps no tracker.

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

    def children(key, grow=True):
        ids, last, dead, a = key
        for c in range(a + 2):
            yield (inserted(ids, dead, 2 * c, a + 2) if grow
                   else (2 * c, None, None))

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
    for x in generate_ascent_sequences(n):
        if check is not None:
            check()
        w = bijections.modify(x)
        if not contains(w, p):
            yield x, w


def _modified_rule(p):
    """``(start, children)`` of the ascent sequences whose modified word
    avoids p: appending c after ``last`` appends c to the modified word,
    where first, when c is an ascent top, every letter >= c moves up by
    one: gap 2c opens into a value.  Keyed by (ids, last, dead, a), where
    (ids, dead) is the pair of the modified word.  ``children(key)``
    yields ``(place, child, gap)`` for each allowed letter c: the place
    2c + 1 and no gap, or for an ascent top the gap 2c as both;
    ``children(key, False)`` yields ``(place, None, None)`` and steps no
    tracker."""
    book, ids, dead = incremental.start(p)
    step, open_gap = book.step, book.open_gap

    def appended(ids, dead, x, c, a):
        if x & 1:
            ids, dead = step(ids, dead, x)
            return x, (ids, c, dead, a), None
        ids, dead = step(*open_gap(ids, dead, x), x + 1)
        return x, (ids, c, dead, a + 1), x

    def children(key, grow=True):
        ids, last, dead, a = key
        for c in range(a + 2):
            x = 2 * c + 1 - (c > last)
            if not (dead >> x) & 1:
                yield (appended(ids, dead, x, c, a) if grow
                       else (x, None, None))

    return (ids, -1, dead, -1), children


def modified_asc_counts(p, n_max: int, check=None):
    """Yield ``(n, histogram)`` for n = 1..n_max, where the histogram maps
    asc(x) to the number of ascent sequences x of length n whose
    modified word avoids p, each as soon as its layer is done.

    A layered count like ``avoider_counts``, keyed by
    ``_modified_rule``.  ``check``, when given, is called once per state
    and may raise to abort; the histograms yielded before it raised stay
    valid.  The histograms of
    ``joint_histograms(("modified-avoiders", p), n_max, "asc")`` are the
    same, keyed by ``(a,)``, but its statistic states in the key made the
    ``modi`` conjecture 1.7 to 1.8 times as slow, so this reader stays.
    """
    _check_length(n_max)
    start, children = _modified_rule(normalize_pattern(p))

    def alive(dead, lo, count):
        """How many of the bits lo, lo + 2, ..., lo + 2(count - 1) are 0."""
        every_other = ((1 << (2 * count)) - 1) // 3     # bits 0, 2, 4, ...
        return count - ((dead >> lo) & every_other).bit_count()

    def leaves(key):
        _, last, dead, a = key
        # c <= last is allowed when value c is alive (odd bit 2c + 1), an
        # ascent top c when gap 2c is
        flat = alive(dead, 1, last + 1)
        rise = alive(dead, 2 * last + 2, a - last + 1)
        if flat:
            yield (a,), flat
        if rise:
            yield (a + 1,), rise

    def grow(key):
        return [child for _, child, _ in children(key)]

    yield from _histograms(_layers(grow, start, n_max, check, leaves))


def count_modified_avoiders(p, n: int, check=None) -> int:
    """Number of ascent sequences of length n whose modified word avoids
    p, by the layered count of ``modified_asc_counts`` (tracker pairs in
    doubled coordinates, moved by ``open_gap`` before each ascent top);
    ``check`` is called once per state."""
    for _, hist in modified_asc_counts(p, n, check):
        pass
    return sum(hist.values())


# ---------------------------------------------------------------------------
# statistic histograms
#
# Every statistic is read off a small state carried along the prefix, so a
# histogram is a layered count with the statistics' states in the key.
# States hold places, as the set keys do: letter c is place 2c + 1 and
# place 2c is the gap below it.  A rule is (start, step): step(s, x, last)
# is the state once the letter at place x follows a prefix whose key has
# the last letter ``last`` (-1 when empty).  x is read in the key's places
# before the child's move, and the set's one rename then moves every
# place of the state with the key (``_SETS``).  asc and fwd are counts
# that compare x with the key's last letter, place 2 last + 1.  The other
# states are (statistic, places ...): des keeps the place of the last
# letter, lrmax and lrmin that of the extreme so far, zeros that of the
# smallest letter (0 is the first letter of every ascent sequence), and
# rlmax and rlmin the sorted places of the right-to-left records, a stack
# that each new letter pops.  des needs its own place: when the last
# letter is deleted, the key's last falls to the live letter below, which
# still answers > and <= for every later letter but not <.


def _delete(y, gone):
    """Place y of an avoider key once the letters of the mask gone are
    deleted (``_avoider_rule``): with k letters below v gone, a live
    letter v goes to 2(v - k) + 1, and a deleted letter v, like the gap
    below v, to the gap 2(v - k) it leaves.  A deleted letter never
    occurs again, so it compares with every later letter as that gap
    does."""
    if y < 0 or y == inf:
        return y
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
    2 groups[r + 1] + 1."""
    g, groups = move
    y = _open(y, g)
    return y if y == inf else 2 * groups[(y + 1) // 2] + 1


def _rlmax(s, x, last):
    i = bisect_right(s, x, 1)
    return (len(s) - i + 1, x) + s[i:]


def _rlmin(s, x, last):
    i = bisect_left(s, x, 1)
    return (i,) + s[1:i] + (x,)


_RULES = {
    "asc": (-1, lambda s, x, last: s + (x > 2 * last + 1)),
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
        raise ValueError(f"unknown set descriptor {descriptor!r}") from None
    if kind not in _SETS:
        raise ValueError(f"unknown set descriptor kind {kind!r}")
    for s in stats:
        if s not in _RULES:
            raise ValueError(f"unknown statistic {s!r}; "
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
    renamed with the set key by each child's move.  The last layer keeps
    only the statistic states and steps no tracker.  ``check``, when
    given, is called once per state; the histograms yielded before it
    raised stay valid.  The arguments are checked at once, and the pass
    starts with the first histogram asked for.
    """
    if not stats:
        raise ValueError("joint_histograms needs at least one statistic")
    kind, p = _described(descriptor, stats)
    _check_length(n_max)
    return _joint_histograms(kind, p, n_max, stats, check)


def _joint_histograms(kind, p, n_max, stats, check):
    rules, rule, rename = _SETS[kind]
    start, children = rule(p)[:2]   # the avoider rule's rest counts
    starts, steps = zip(*(rules[s] for s in stats))
    renamed = {}    # many keys step to one (states, move) pair

    def stepped(st, x, last):
        return tuple([f(s, x, last) for f, s in zip(steps, st)])

    def moved(st, move):
        return tuple([s if type(s) is int else
                      (s[0], *[rename(y, move) for y in s[1:]]) for s in st])

    moves = {}      # set key -> its children, for every key that holds it

    def grown(key):
        set_key, st = key
        last = set_key[1]
        row = moves.get(set_key)
        if row is None:
            row = moves[set_key] = list(children(set_key))
        out = []
        for x, child, move in row:
            st_child = stepped(st, x, last)
            if move is not None:
                k = st_child, move
                st_child = renamed.get(k) or renamed.setdefault(k, moved(*k))
            out.append((child, st_child))
        return out

    def leaves(key):
        set_key, st = key
        last = set_key[1]
        for x, _, _ in children(set_key, False):
            yield (stepped(st, x, last),), 1

    yield from _histograms(
        _layers(grown, (start, starts), n_max, check, leaves),
        lambda st: tuple([s if type(s) is int else s[0] for s in st]))


def _histograms(layers, value=None):
    """Yield ``(n, histogram)`` per layer: the ways summed by the last
    entry of the key, mapped through ``value`` when given."""
    for n, layer in layers:
        hist: Counter = Counter()
        for key, ways in layer.items():
            hist[key[-1]] += ways
        if value is not None:
            by_state, hist = hist, Counter()
            for st, ways in by_state.items():
                hist[value(st)] += ways
        yield n, hist


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
    ``check``, when given, is called once per state of it.
    """
    if not stats:
        raise ValueError("joint_distribution needs at least one statistic")
    for _, hist in joint_histograms(descriptor, n, *stats, check=check):
        pass
    return hist
