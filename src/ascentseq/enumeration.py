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
built; its states are summed through ``count_allowed``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import bijections
from .core import asc, contains, normalize_pattern, stat, word_str
from .incremental import make_tracker


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


def _walk(n: int, state0, children):
    """Yield every length-n word grown from state0, lexicographically.

    ``children(state)`` returns an iterator of ``(letter, next_state)``
    pairs in increasing letter order; the stack holds one partly used
    iterator per prefix position.  Last letter, ascents and maximum start
    at -1, so only 0 may follow the empty prefix.
    """
    prefix: list[int] = []
    stack = [children(state0)]
    while stack:
        for c, state in stack[-1]:
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


def avoiders(p, n: int):
    """Yield the p-avoiding ascent sequences of length n, lexicographically."""
    _check_length(n)
    p = normalize_pattern(p)
    tr = make_tracker(p, n + 2)
    forbid, step = tr.forbid, tr.step

    def children(key):
        state, last, a = key
        for c in range(a + 2):
            if not forbid(state, c):
                yield c, (step(state, c), c, a + 1 if c > last else a)

    yield from _walk(n, (tr.state, -1, -1), children)


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


def perm_avoiders(q, n: int):
    """Yield the permutations of 1..n avoiding the (distinct-letter)
    pattern q, lexicographically, pruned by the pattern's tracker."""
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

    yield from _walk(n, (tr.state, 0), children)


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


def modified_asc_histograms(patterns, n: int, check=None) -> list[Counter]:
    """For each pattern, the histogram of asc(x) over the ascent sequences
    x of length n whose modified word avoids it, in the order given.

    One pass serves every pattern: each sequence is generated and
    modified once.  ``check``, when given, is called once per ascent
    sequence, so a budget also bounds patterns that few or no sequences
    avoid."""
    patterns = [normalize_pattern(p) for p in patterns]
    hists = [Counter() for _ in patterns]
    for x in generate_ascent_sequences(n):
        if check is not None:
            check()
        w = bijections.modify(x)
        a = asc(x)
        for p, hist in zip(patterns, hists):
            if not contains(w, p):
                hist[a] += 1
    return hists


def count_modified_avoiders(p, n: int, check=None) -> int:
    """Number of ascent sequences of length n whose modified word avoids
    p; ``check`` is passed on to ``modified_asc_histograms``."""
    return sum(modified_asc_histograms([p], n, check)[0].values())


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
        words = avoiders(p, n)
    elif kind == "perm-avoiders":
        words = perm_avoiders(p, n)
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
