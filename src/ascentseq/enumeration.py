"""Exhaustive generation of ascent sequences, avoiders and relatives.

Each set states once its growth rule, ``children(key)``: the letters
that may follow a prefix with that key, each with the key of the longer
prefix.  ``_walk`` lists a rule's words on an explicit stack, so no
length meets a recursion limit; all generators stream lazily in
lexicographic order and are deterministic.  Avoiders prune: no prefix is
extended by a letter the pattern's tracker forbids, which is sound
because containment is monotone under appending letters.

Counting lists no words: ``_layers`` runs a rule as a layered
transfer-matrix count, where prefixes with equal keys have equal futures
and are merged into one weighted key, with one budget check per key.  A
last layer that is only summed is never built; its sum is read off the
layer before.  Avoiders are counted on the canonical tracker, keyed by
(state, last letter, a) with every dead letter up to the bound a + 1
deleted, so prefixes that differ only in where their dead letters sit
merge.  Modified ascent sequences and pattern-avoiding permutations
grow by the raise: before some letters c are appended, every earlier
letter >= c moves up by one.  Appending c to x appends c to modify(x)
after a raise when c is an ascent top, and a permutation grows by
inserting its last entry at rank c, a raise every time.  The raise keeps
the order of the earlier letters, so containment stays monotone.  These
sets are keyed by the canonical tracker state of the raised word, kept
in doubled coordinates, where value v is letter 2v + 1 and 2v is the gap
just below it, so the raise turns gap 2c into a new value
(``incremental.open_gap``).  Joint statistic histograms run the same
rules with a small prefix state per statistic in the key, each stepped
once per letter with the set's raise.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from math import inf
from operator import itemgetter

from . import bijections
from .core import (check_perm_pattern, contains, normalize_pattern,
                   word_str)
from .incremental import delete_dead, make_tracker, open_gap


@dataclass
class CountSeries:
    """Counting sequence keyed by length, over a contiguous range 1..n_max."""

    label: str
    values: dict[int, int] = field(default_factory=dict)

    def as_list(self) -> list[int]:
        return [self.values[n] for n in sorted(self.values)]

    @property
    def n_max(self) -> int:
        return max(self.values)


MAX_LENGTH = 10**6      # past this, one layer outlasts the default budget


def _check_length(n: int) -> None:
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
    length-n prefix grown from ``start`` by ``children`` to the number of
    prefixes with it.  ``check`` is called once per key of the layer
    before and may raise to abort.  With ``leaves``, the last layer is not grown: it
    sums ways times weight over the ``(leaf, weight)`` pairs that
    ``leaves(key)`` yields."""
    layer = {start: 1}
    for n in range(1, n_max + 1):
        summed = leaves is not None and n == n_max
        nxt = defaultdict(int)
        for key, ways in layer.items():
            if check is not None:
                check()
            if summed:
                for leaf, weight in leaves(key):
                    nxt[leaf] += ways * weight
            else:
                for _, child in children(key):
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
    """``(start, children)`` of the p-avoiding ascent sequences.
    ``children(key, False)`` yields the allowed letters with None for
    their keys, and steps no tracker."""
    tr = make_tracker(p, None)
    forbid, step = tr.forbid, tr.step

    def children(key, grow=True):
        state, last, a = key
        for c in range(a + 2):
            if not forbid(state, c):
                yield c, ((step(state, c), c, a + 1 if c > last else a)
                          if grow else None)

    return (tr.state, -1, -1), children


def avoiders(p, n: int, check=None):
    """Yield the p-avoiding ascent sequences of length n, lexicographically;
    ``check`` is passed on to the walk."""
    _check_length(n)
    start, children = _avoider_rule(normalize_pattern(p))
    yield from _walk(n, start, children, check)


def avoider_counts(p, n_max: int, check=None):
    """Yield ``(n, count)`` for n = 1..n_max, the number of p-avoiding
    ascent sequences of length n, each as soon as its layer is done.

    A layer maps (canonical tracker state, last letter, a) to the number
    of prefixes with that key, where the next letter is at most a + 1.
    Every key is made live: the dead letters in 0..a + 1 are deleted
    from its state (``incremental.delete_dead``), ``last`` falls by the
    number deleted at or below it and ``a`` by the number deleted.  So
    every letter 0..a + 1 of a key is allowed: a key grows on each with
    no ``forbid`` test, and the last layer is summed as a + 2 per key.
    ``check``, when given, is called once per key and may raise to abort
    cleanly (used for CLI budget guards); the counts yielded before it
    raised stay valid.

    The deletion keeps every count.  Take a prefix with key (s, last, a),
    a letter x <= a + 1 that s kills, and the key (s', last', a') with x
    deleted.  x stays dead however the prefix grows, so the prefix's
    continuations are words over the other letters, and renaming each
    letter y > x to y - 1 maps them one to one onto words.  The renaming
    keeps the order of letters, and a continuation's letter c is never
    x, so the rule allows a continuation from (s, last, a) exactly when
    it allows the renamed one from (s', last', a'):

    - the bound: c <= a + 1 exactly when the renamed c is at most
      a' + 1 = a, and each ascent raises both bounds by one;
    - ascents: c > last exactly when the renamed c exceeds last', which
      is last, or last - 1 when last >= x;
    - containment, which compares letters only: s keeps per partial
      embedding the values and open intervals its future letters must
      meet, and the dead mask of letters that complete one.  Renamed,
      each value and interval end above x moves down by one, so does a
      lower end at x, and so do the dead bits above x.  An embedding
      that must match x again, or whose interval held x alone, can
      never complete and is dropped.  An interval open above has the end
      ``inf``, which stays.

    Deleting several letters deletes one at a time, the highest first.
    The deleted key is a function of the key, so keys that were equal
    stay equal: the count merges more prefixes, never fewer.
    """
    _check_length(n_max)
    tr = make_tracker(normalize_pattern(p), None, generic=True)
    step = tr.step

    def live(state, last, a):
        gone = state[-1] & ((1 << (a + 2)) - 1)
        if gone:
            state = delete_dead(state, gone)
            last -= (gone & ((1 << (last + 1)) - 1)).bit_count()
            a -= gone.bit_count()
        return state, last, a

    def children(key):
        state, last, a = key
        for c in range(a + 2):
            yield c, live(step(state, c), c, a + 1 if c > last else a)

    def leaves(key):
        return ((None, key[2] + 2),)

    for n, layer in _layers(children, live(tr.state, -1, -1), n_max,
                            check, leaves):
        yield n, sum(layer.values())


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
    q = check_perm_pattern(q)
    tr = make_tracker(q, None)
    forbid, step = tr.forbid, tr.step

    def children(key):
        state, used = key
        for v in range(1, n + 1):
            if not (used >> v) & 1 and not forbid(state, v):
                yield v, (step(state, v), used | 1 << v)

    yield from _walk(n, (tr.state, 0), children, check)


# ---------------------------------------------------------------------------
# set partitions


def generate_set_partitions(n: int):
    """Yield all partitions of {1, ..., n} in standard form (blocks sorted
    ascending, ordered by minima), enumerated via their growth strings."""
    _check_length(n)

    def children(m):
        for b in range(m + 2):
            yield b, max(m, b)

    for labels in _walk(n, -1, children):
        blocks: list[list[int]] = [[] for _ in range(max(labels) + 1)]
        for i, b in enumerate(labels):
            blocks[b].append(i + 1)
        yield tuple(tuple(b) for b in blocks)


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


def _raising_rule(p, raises):
    """As ``_avoider_rule``, for the p-avoiding words grown by appending
    a letter c after ``last``, where first every letter >= c moves up by
    one when ``raises(c, last)``: gap 2c opens into a value.  Keyed by
    (canonical tracker state of the word, last letter, a), where a counts
    the raises after the first letter and the next letter is at most
    a + 1.  Raising on ascent tops grows the modified words of ascent
    sequences, raising always the permutations, by inserting the last
    entry at a rank."""
    tr = make_tracker(p, None, generic=True)
    forbid, step = tr.forbid, tr.step

    def appended(state, c, rise):
        return step(open_gap(state, 2 * c) if rise else state, 2 * c + 1)

    def children(key, grow=True):
        state, last, a = key
        for c in range(a + 2):
            rise = raises(c, last)
            if not forbid(state, 2 * c + 1 - rise):
                yield c, ((appended(state, c, rise), c, a + rise)
                          if grow else None)

    return (tr.state, -1, -1), children


def modified_asc_counts(p, n_max: int, check=None):
    """Yield ``(n, histogram)`` for n = 1..n_max, where the histogram maps
    asc(x) to the number of ascent sequences x of length n whose
    modified word avoids p, each as soon as its layer is done.

    A layered count like ``avoider_counts``, keyed by (canonical tracker
    state of the modified word, last letter, ascents).  ``check``, when
    given, is called once per state and may raise to abort; the
    histograms yielded before it raised stay valid.
    """
    _check_length(n_max)
    start, children = _raising_rule(normalize_pattern(p), _ascent_top)

    def alive(dead, lo, count):
        """How many of the bits lo, lo + 2, ..., lo + 2(count - 1) are 0."""
        every_other = ((1 << (2 * count)) - 1) // 3     # bits 0, 2, 4, ...
        return count - ((dead >> lo) & every_other).bit_count()

    def leaves(key):
        state, last, a = key
        # c <= last is allowed when value c is alive (odd bit 2c + 1), an
        # ascent top c when gap 2c is
        flat = alive(state[-1], 1, last + 1)
        rise = alive(state[-1], 2 * last + 2, a - last + 1)
        if flat:
            yield (a,), flat
        if rise:
            yield (a + 1,), rise

    yield from _histograms(_layers(children, start, n_max, check, leaves))


def count_modified_avoiders(p, n: int, check=None) -> int:
    """Number of ascent sequences of length n whose modified word avoids
    p, by the layered count of ``modified_asc_counts`` (canonical tracker
    states in doubled coordinates, moved by ``open_gap`` before each
    ascent top); ``check`` is called once per state."""
    for _, hist in modified_asc_counts(p, n, check):
        pass
    return sum(hist.values())


# ---------------------------------------------------------------------------
# statistic histograms
#
# Every statistic is read off a small state carried along the prefix, so a
# histogram is a layered count with the statistics' states in the key.  A
# rule is (start, step, value): step(s, c, last, r) is the state once the
# prefix ending in ``last`` (-1 when empty) gets the letter c, and
# value(s) is the statistic.  With r set, every earlier letter >= c first
# moves up by one: never on avoiders, before an ascent top c > last on
# modified words, and always on permutations, where c is the rank of the
# new last entry.  The raise keeps the order of the earlier letters and
# moves no 0 on words, so asc, fwd, rlmin and zeros read the same either
# way.  A last or smallest letter equal to c moves above it, so des and
# lrmin count it; the largest letter of lrmax moves up unless c beats it,
# and so do the records >= c in the mask of rlmax.  The masks of rlmax
# and rlmin hold the letters of the right-to-left records, a stack that
# each new last letter pops.


def _never(c, last):
    return False


def _ascent_top(c, last):
    return c > last


def _always(c, last):
    return True


def _count(s):
    return s


_RULES = {
    "asc": (-1, lambda s, c, last, r: s + (c > last), _count),
    "des": (0, lambda s, c, last, r: s + (c < last + (r and last >= c)),
            _count),
    "zeros": (0, lambda s, c, last, r: s + (c == 0), _count),
    "fwd": (0, lambda s, c, last, r: s + 1 if c <= last else 1, _count),
    # (largest or smallest letter so far, records)
    "lrmax": ((-1, 0), lambda s, c, last, r:
              (c, s[1] + 1) if c > s[0] else (s[0] + r, s[1]),
              itemgetter(1)),
    "lrmin": ((inf, 0), lambda s, c, last, r:
              (c, s[1] + 1) if c < s[0] + (r and s[0] >= c) else s,
              itemgetter(1)),
    "rlmax": (0, lambda s, c, last, r: s >> (c + 1 - r) << (c + 1) | 1 << c,
              int.bit_count),
    "rlmin": (0, lambda s, c, last, r: s & ((1 << c) - 1) | 1 << c,
              int.bit_count),
}

# per set descriptor kind: when it raises, and its statistic rules
_SETS = {
    "avoiders": (_never, _RULES),
    "modified-avoiders": (_ascent_top, _RULES),
    # a permutation of 1..n has no zeros
    "perm-avoiders": (_always, {**_RULES, "zeros":
                                (0, lambda s, c, last, r: 0, _count)}),
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
    statistic states); a kind that never raises grows on the pattern's
    own tracker, the others on the canonical one in doubled coordinates,
    and every kind steps the statistics with its raise.  The last layer
    keeps only the statistic states and steps no tracker.  ``check``,
    when given, is called once per state; the histograms yielded before
    it raised stay valid.
    """
    if not stats:
        raise ValueError("joint_histograms needs at least one statistic")
    kind, p = _described(descriptor, stats)
    _check_length(n_max)
    raises, rules = _SETS[kind]
    start, children = (_avoider_rule(p) if raises is _never
                       else _raising_rule(p, raises))
    starts, steps, values = zip(*(rules[s] for s in stats))

    def stepped(st, c, last):
        r = raises(c, last)
        return tuple([f(x, c, last, r) for f, x in zip(steps, st)])

    def grown(key):
        set_key, st = key
        last = set_key[1]
        for c, child in children(set_key):
            yield c, (child, stepped(st, c, last))

    def leaves(key):
        set_key, st = key
        last = set_key[1]
        for c, _ in children(set_key, False):
            yield (stepped(st, c, last),), 1

    return _histograms(_layers(grown, (start, starts), n_max, check, leaves),
                       lambda st: tuple(v(s) for v, s in zip(values, st)))


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
