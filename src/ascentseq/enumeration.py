"""Exhaustive generation of ascent sequences, avoiders and relatives.

Every generator is one walk (``_walk``) on an explicit stack, so no
length meets a recursion limit; each states only its rule for the next
letter.  All stream lazily in lexicographic order and are deterministic.
Avoiders and pattern-avoiding permutations prune: no prefix is extended
by a letter the pattern's tracker forbids, which is sound because
containment is monotone under appending letters.  Counting needs no
sequences at all: it is a layered transfer-matrix count over (tracker
state, last letter, ascents), where prefixes with equal keys have equal
futures and are merged into one weighted state.  The last layer is never
built; its states are summed from their dead masks.

Modified ascent sequences are counted the same way, on the canonical
tracker state of the modified word.  Appending c to x appends c to
modify(x), after raising every letter >= c by one when c is an ascent
top; the raise keeps the order of the earlier letters, so containment
stays monotone.  The state is kept in doubled coordinates, where value
v is letter 2v + 1 and 2v is the gap just below it, and the raise turns
gap 2c into a new value (``incremental.open_gap``).  Every layer is one
pass that yields its ``asc`` histogram, with one budget check per state.
``modified_avoiders`` still lists the words themselves.

Joint statistic histograms (``joint_histograms``) are layered counts
too, with a small prefix state per statistic in the key: a count, a run
length, an extreme and a count, or a bitmask stack of right-to-left
records.  Pattern-avoiding permutations are grown there by inserting the
last entry at a rank, which moves the canonical tracker state through
``open_gap`` exactly as a modified word's ascent top does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import inf
from operator import itemgetter

from . import bijections
from .core import contains, normalize_pattern, stat, word_str
from .incremental import make_tracker, open_gap, state_reducer


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


def _check_length(n: int) -> None:
    if n < 1:
        raise ValueError("length must be at least 1")


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


def avoiders(p, n: int, check=None):
    """Yield the p-avoiding ascent sequences of length n, lexicographically;
    ``check`` is passed on to the walk."""
    _check_length(n)
    p = normalize_pattern(p)
    tr = make_tracker(p, n + 2)
    forbid, step = tr.forbid, tr.step

    def children(key):
        state, last, a = key
        for c in range(a + 2):
            if not forbid(state, c):
                yield c, (step(state, c), c, a + 1 if c > last else a)

    yield from _walk(n, (tr.state, -1, -1), children, check)


def avoider_counts(p, n_max: int, check=None):
    """Yield ``(n, count)`` for n = 1..n_max, the number of p-avoiding
    ascent sequences of length n, each as soon as its layer is done.

    A layer maps (tracker state, last letter, ascents) to the number of
    prefixes with that key.  ``check``, when given, is called once per
    state and may raise to abort cleanly (used for CLI budget guards);
    the counts yielded before it raised stay valid.
    """
    _check_length(n_max)
    p = normalize_pattern(p)
    tr = make_tracker(p, n_max + 2)
    forbid, step = tr.forbid, tr.step
    # the empty prefix: with last = a = -1, only letter 0 may follow and
    # appending it leaves zero ascents
    layer = Counter({(tr.state, -1, -1): 1})
    for n in range(1, n_max):
        nxt: Counter = Counter()
        for (state, last, a), ways in layer.items():
            if check is not None:
                check()
            for c in range(a + 2):
                if not forbid(state, c):
                    nxt[(step(state, c), c, a + 1 if c > last else a)] += ways
        layer = nxt
        yield n, sum(layer.values())
    total = 0
    for (state, _, a), ways in layer.items():
        if check is not None:
            check()
        total += ways * tr.count_allowed(state, a + 1)
    yield n_max, total


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
    q = normalize_pattern(q)
    if len(set(q)) != len(q):
        raise ValueError("permutation patterns must have distinct letters")
    tr = make_tracker(q, n + 2)
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


def modified_asc_counts(p, n_max: int, check=None):
    """Yield ``(n, histogram)`` for n = 1..n_max, where the histogram maps
    asc(x) to the number of ascent sequences x of length n whose
    modified word avoids p, each as soon as its layer is done.

    A layered count like ``avoider_counts``, keyed by (canonical tracker
    state of the modified word, last letter, ascents).  A letter c not
    above the last one is appended to the modified word as it is; an
    ascent top c first raises every letter >= c, which the state follows
    through ``open_gap`` in doubled coordinates (value v is letter
    2v + 1, gap 2v lies just below it).  After each step
    ``state_reducer`` drops the embeddings that cannot change a
    ``forbid`` answer, so that more states merge.  ``check``, when
    given, is called once per state and may raise to abort; the
    histograms yielded before it raised stay valid.
    """
    _check_length(n_max)
    p = normalize_pattern(p)
    size = 2 * n_max + 3
    tr = make_tracker(p, size, generic=True)
    forbid, step = tr.forbid, tr.step
    reduce = state_reducer(p)
    layer = Counter({(tr.state, -1, -1): 1})
    for n in range(1, n_max):
        nxt: Counter = Counter()
        for (state, last, a), ways in layer.items():
            if check is not None:
                check()
            for c in range(last + 1):
                if not forbid(state, 2 * c + 1):
                    s = step(state, 2 * c + 1)
                    nxt[(reduce(s, state), c, a)] += ways
            for c in range(last + 1, a + 2):
                if not forbid(state, 2 * c):
                    moved = open_gap(state, 2 * c, size)
                    s = step(moved, 2 * c + 1)
                    nxt[(reduce(s, moved), c, a + 1)] += ways
        layer = nxt
        hist: Counter = Counter()
        for (_, _, a), ways in layer.items():
            hist[a] += ways
        yield n, hist
    # the last layer is summed, not built: c <= last is allowed when value
    # c is alive (odd bit 2c + 1), an ascent top c when gap 2c is
    every_other = ((1 << (size + 1)) - 1) // 3     # bits 0, 2, 4, ...

    def alive(dead, lo, count):
        """How many of the bits lo, lo + 2, ..., lo + 2(count - 1) are 0."""
        return count - ((dead >> lo) & every_other
                        & ((1 << (2 * count)) - 1)).bit_count()

    hist = Counter()
    for (state, last, a), ways in layer.items():
        if check is not None:
            check()
        flat = alive(state[-1], 1, last + 1)
        rise = alive(state[-1], 2 * last + 2, a - last + 1)
        if flat:
            hist[a] += ways * flat
        if rise:
            hist[a + 1] += ways * rise
    yield n_max, hist


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
# histogram is a layered count like the ones above, with the statistics'
# states in the key.  A rule is (start, step, value): step(s, c, last, k)
# is the state once the k-letter prefix ending in ``last`` (-1 when empty)
# gets the letter c, and value(s) is the statistic.  On permutations c is
# the rank r in 0..k of the new last entry, every earlier entry of rank
# >= r moving up by one, so r > last exactly when the new entry tops an
# ascent; asc, fwd and rlmin read the same on letters and on ranks.  The
# masks of rlmax and rlmin hold the letters (ranks) of the right-to-left
# records, a stack that each new last entry pops.


def _count(s):
    return s


_WORD_RULES = {
    "asc": (-1, lambda s, c, last, k: s + (c > last), _count),
    "des": (0, lambda s, c, last, k: s + (c < last), _count),
    "zeros": (0, lambda s, c, last, k: s + (c == 0), _count),
    "fwd": (0, lambda s, c, last, k: s + 1 if c <= last else 1, _count),
    # (largest or smallest letter so far, records)
    "lrmax": ((-1, 0), lambda s, c, last, k:
              (c, s[1] + 1) if c > s[0] else s, itemgetter(1)),
    "lrmin": ((inf, 0), lambda s, c, last, k:
              (c, s[1] + 1) if c < s[0] else s, itemgetter(1)),
    "rlmax": (0, lambda s, c, last, k: s >> (c + 1) << (c + 1) | 1 << c,
              int.bit_count),
    "rlmin": (0, lambda s, c, last, k: s & ((1 << c) - 1) | 1 << c,
              int.bit_count),
}

_PERM_RULES = {
    **_WORD_RULES,
    "des": (0, lambda s, c, last, k: s + (c <= last), _count),
    "zeros": (0, lambda s, c, last, k: s, _count),
    # the new entry is the largest (smallest) so far when its rank is
    # k (0)
    "lrmax": (0, lambda s, c, last, k: s + (c == k), _count),
    "lrmin": (0, lambda s, c, last, k: s + (c == 0), _count),
    # records of rank >= c move up one; those below c are beaten
    "rlmax": (0, lambda s, c, last, k: s >> c << (c + 1) | 1 << c,
              int.bit_count),
}


def _avoider_layers(p, n_max, steps, start, check):
    """Layers keyed by (tracker state, last letter, ascents, statistic
    states) over the p-avoiding ascent sequences; the last layer keeps
    only the statistic states."""
    tr = make_tracker(p, n_max + 2)
    forbid, step = tr.forbid, tr.step
    layer = Counter({(tr.state, -1, -1, start): 1})
    for n in range(1, n_max + 1):
        nxt: Counter = Counter()
        for (state, last, a, st), ways in layer.items():
            if check is not None:
                check()
            for c in range(a + 2):
                if not forbid(state, c):
                    t = tuple([f(x, c, last, n - 1)
                               for f, x in zip(steps, st)])
                    if n == n_max:
                        nxt[(None, None, None, t)] += ways
                    else:
                        nxt[(step(state, c), c, a + (c > last), t)] += ways
        layer = nxt
        yield n, layer


def _perm_layers(q, n_max, steps, start, check):
    """Layers keyed by (canonical tracker state, rank of the last entry,
    statistic states) over the q-avoiding permutations, grown by rank
    insertion: inserting at rank r opens gap 2r in doubled coordinates,
    as in ``modified_asc_counts``."""
    size = 2 * n_max + 3
    tr = make_tracker(q, size, generic=True)
    forbid, step = tr.forbid, tr.step
    reduce = state_reducer(q)
    layer = Counter({(tr.state, -1, start): 1})
    for n in range(1, n_max + 1):
        nxt: Counter = Counter()
        for (state, last, st), ways in layer.items():
            if check is not None:
                check()
            for r in range(n):
                if not forbid(state, 2 * r):
                    t = tuple([f(x, r, last, n - 1)
                               for f, x in zip(steps, st)])
                    if n == n_max:
                        nxt[(None, None, t)] += ways
                    else:
                        moved = open_gap(state, 2 * r, size)
                        s = reduce(step(moved, 2 * r + 1), moved)
                        nxt[(s, r, t)] += ways
        layer = nxt
        yield n, layer


def _modified_histogram(p, n, stats, check):
    hist: Counter = Counter()
    for _, w in modified_avoiders(p, n, check):
        hist[tuple(stat(w, s) for s in stats)] += 1
    return hist


def _described(descriptor, stats):
    """(kind, normalized pattern) of a set descriptor, with the arguments
    checked before any work is done."""
    try:
        kind, p = descriptor
    except (TypeError, ValueError):
        raise ValueError(f"unknown set descriptor {descriptor!r}") from None
    if kind not in ("avoiders", "perm-avoiders", "modified-avoiders"):
        raise ValueError(f"unknown set descriptor kind {kind!r}")
    for s in stats:
        if s not in _WORD_RULES:
            raise ValueError(f"unknown statistic {s!r}")
    p = normalize_pattern(p)
    if kind == "perm-avoiders" and len(set(p)) != len(p):
        raise ValueError("permutation patterns must have distinct letters")
    return kind, p


def joint_histograms(descriptor, n_max: int, *stats: str, check=None):
    """Yield ``(n, histogram)`` for n = 1..n_max, the joint histogram of
    the statistics over the described set of length n, keyed by the tuple
    of their values in the order given; each comes as soon as its layer
    is done.

    The descriptor is as for ``joint_distribution``.  Avoiders and
    pattern-avoiding permutations are counted in one layered pass, with
    the statistics' prefix states in the key; the modified sets are
    listed length by length.  ``check``, when given, is called once per
    state, and once per ascent sequence tried for the modified sets; the
    histograms yielded before it raised stay valid.
    """
    if not stats:
        raise ValueError("joint_histograms needs at least one statistic")
    kind, p = _described(descriptor, stats)
    _check_length(n_max)
    if kind == "modified-avoiders":
        return ((n, _modified_histogram(p, n, stats, check))
                for n in range(1, n_max + 1))
    if kind == "avoiders":
        rules, layers = _WORD_RULES, _avoider_layers
    else:
        rules, layers = _PERM_RULES, _perm_layers
    start, steps, values = zip(*(rules[s] for s in stats))
    return _histograms(layers(p, n_max, steps, start, check), values)


def _histograms(layers, values):
    for n, layer in layers:
        by_state: Counter = Counter()
        for key, ways in layer.items():
            by_state[key[-1]] += ways
        hist: Counter = Counter()
        for st, ways in by_state.items():
            hist[tuple(v(s) for v, s in zip(values, st))] += ways
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
    on the modified sets are evaluated on the modified words.  The first
    two are counted by the layered pass of ``joint_histograms``, and
    ``check``, when given, is called once per state of it; the modified
    sets are listed, with one check per ascent sequence tried.
    """
    if not stats:
        raise ValueError("joint_distribution needs at least one statistic")
    kind, p = _described(descriptor, stats)
    if kind == "modified-avoiders":
        return _modified_histogram(p, n, stats, check)
    for _, hist in joint_histograms((kind, p), n, *stats, check=check):
        pass
    return hist
