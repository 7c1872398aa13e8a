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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

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
# statistic distributions


def distribution(p, n: int, which: str) -> Counter:
    """Histogram of a statistic over the p-avoiding ascent sequences of
    length n."""
    return Counter(stat(x, which) for x in avoiders(p, n))


def joint_distribution(descriptor, n: int, *stats: str,
                       check=None) -> Counter:
    """Joint histogram of one or more statistics over a described set,
    keyed by the tuple of their values in the order given.

    The descriptor is a pair ``(kind, pattern)`` with kind one of
    ``avoiders``, ``perm-avoiders`` or ``modified-avoiders``; statistics
    on the modified sets are evaluated on the modified words.  ``check``,
    when given, is called once per word, and once per ascent sequence
    tried for the modified sets.
    """
    if not stats:
        raise ValueError("joint_distribution needs at least one statistic")
    try:
        kind, p = descriptor
    except (TypeError, ValueError):
        raise ValueError(f"unknown set descriptor {descriptor!r}") from None
    if kind == "avoiders":
        words = avoiders(p, n, check)
    elif kind == "perm-avoiders":
        words = perm_avoiders(p, n, check)
    elif kind == "modified-avoiders":
        words = (w for _, w in modified_avoiders(p, n, check))
    else:
        raise ValueError(f"unknown set descriptor kind {kind!r}")
    hist: Counter = Counter()
    for w in words:
        if check is not None:
            check()
        hist[tuple(stat(w, s) for s in stats)] += 1
    return hist
