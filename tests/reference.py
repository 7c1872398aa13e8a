"""A reference count of pattern avoiders, independent of the package.

The library counts avoiders, ascent sequences whose modified word
avoids a pattern, and pattern-avoiding permutations on reduced,
interned embedding sets with deleted dead letters, opened gaps or
merged live gaps (``incremental``, ``enumeration._layers``).
This count shares none of that: it merges prefixes only when they agree
on their last letter, their number of ascents and the set of their
partial matches, each kept as the raw tuple of the values it matched.
That key fixes every continuation's fate, so the count is exact, only
slower.

Run as a script, it makes the deep sweep, too slow for the test suite
(about 60 s on 2 cores), and exits 1 if any count disagrees:

    PYTHONPATH=src python tests/reference.py
"""

import sys
import time
from collections import defaultdict


def _matcher(p):
    """The function that grows the partial matches of p in a word by
    one letter c: it returns the matches after c, or None when c
    completes an occurrence; kept per (matches, c).

    A partial match is the tuple of values that a prefix of the word
    takes at the positions matched to p[0], ..., p[j - 1], for
    0 < j < len(p).  Appending c grows every match m with len(m) = j
    that c continues (c compares with each m[i] as p[j] does with
    p[i]); a match grown to len(p) is an occurrence, so c is refused.
    """
    k = len(p)
    # per j: how p[j] compares with p[0], ..., p[j - 1] (-1, 0 or 1)
    order = [tuple((p[j] > p[i]) - (p[j] < p[i]) for i in range(j))
             for j in range(k)]
    continued = {}  # (m, c) -> whether c continues the match m
    grown = {}      # (matches, c) -> the matches after c, None if refused

    def continues(m, c):
        key = m, c
        if key not in continued:
            continued[key] = all((c > x) - (c < x) == o
                                 for x, o in zip(m, order[len(m)]))
        return continued[key]

    def step(matches, c):
        out = set(matches)
        for m in ((), *matches):
            if continues(m, c):
                if len(m) + 1 == k:
                    return None
                out.add(m + (c,))
        return frozenset(out)

    def after(matches, c):
        key = matches, c
        if key not in grown:
            grown[key] = step(matches, c)
        return grown[key]
    return after


def avoider_counts(p, n_max):
    """{n: number of p-avoiding ascent sequences of length n}, n = 1..n_max.

    A key is the last letter, the number of ascents and the set of
    partial matches (``_matcher``).  Count n_max is the number of
    letters each key of layer n_max - 1 allows, so the last layer is
    not built.
    """
    after = _matcher(p)
    # (last letter, ascents, matches) of the empty prefix: only 0 may
    # follow it, since a letter is at most ascents + 1
    layer = {(-1, -1, frozenset()): 1}
    counts = {}
    for n in range(1, n_max + 1):
        if n == n_max:
            counts[n] = sum(ways for (last, a, matches), ways in layer.items()
                            for c in range(a + 2)
                            if after(matches, c) is not None)
            break
        nxt = defaultdict(int)
        for (last, a, matches), ways in layer.items():
            for c in range(a + 2):
                matched = after(matches, c)
                if matched is not None:
                    nxt[c, a + (c > last), matched] += ways
        layer = nxt
        counts[n] = sum(layer.values())
    return counts


def _asc_counts(p, n_max, modified):
    """{n: {asc: number}}, n = 1..n_max: the ascent sequences x of length
    n that avoid p, or whose modified word avoids p, by their number of
    ascents.

    Appending c to x appends c to its modified word, after every letter
    >= c is raised by one when c is an ascent top.  The key is the last
    letter, the number of ascents and the set of partial matches
    (``_matcher``) over the word's values, so on a modified word an
    ascent top raises every stored value >= c by one before c is
    matched.
    """
    after = _matcher(p)
    raised = {}     # (matches, c) -> the matches with values >= c raised
    layer = {(-1, -1, frozenset()): 1}
    hists = {}
    for n in range(1, n_max + 1):
        nxt = defaultdict(int)
        for (last, a, matches), ways in layer.items():
            for c in range(a + 2):
                moved = matches
                if modified and c > last:
                    key = matches, c
                    if key not in raised:
                        raised[key] = frozenset(
                            tuple(x + (x >= c) for x in m) for m in matches)
                    moved = raised[key]
                matched = after(moved, c)
                if matched is not None:
                    nxt[c, a + (c > last), matched] += ways
        layer = nxt
        hists[n] = _by_asc(layer)
    return hists


def _by_asc(layer):
    hist = defaultdict(int)
    for (_, a, _), ways in layer.items():
        hist[a] += ways
    return dict(hist)


def avoider_asc_counts(p, n_max):
    """{n: {asc: number}}, n = 1..n_max: the p-avoiding ascent sequences
    of length n by their number of ascents."""
    return _asc_counts(p, n_max, False)


def modified_asc_counts(p, n_max):
    """{n: {asc: number}}, n = 1..n_max: the ascent sequences x of length
    n whose modified word avoids p, by their number of ascents."""
    return _asc_counts(p, n_max, True)


def perm_asc_counts(q, n_max):
    """{n: {asc: number}}, n = 1..n_max: the permutations of length n
    that avoid the distinct-letter pattern q, by their number of ascents.

    A permutation of length n - 1, written with the ranks 0..n - 2,
    grows by a last entry of each rank c in 0..n - 1: every entry of
    rank >= c is raised by one first, as ``modified_asc_counts`` raises
    at an ascent top, and the new entry is an ascent exactly when c
    exceeds the last entry's rank.  The key is the last entry's rank,
    the number of ascents and the set of partial matches.  q has
    distinct letters, so a partial match of q[:j] is fixed by the set of
    values it matched, kept as a bitmask: the raise shifts the bits at
    or above c up by one, and the match takes c next exactly when c has
    as many of its values below it as q[j] has letters of q[:j].
    """
    k = len(q)
    rank = [sum(x < q[j] for x in q[:j]) for j in range(k)]
    layer = {(-1, -1, frozenset()): 1}
    hists = {}
    for n in range(1, n_max + 1):
        nxt = defaultdict(int)
        for (last, a, matches), ways in layer.items():
            for c in range(n):
                below = (1 << c) - 1
                out = set()
                for m in (0, *matches):     # 0 is the empty match
                    m = m & below | m >> c << (c + 1)
                    if m:
                        out.add(m)
                    j = m.bit_count()
                    if (m & below).bit_count() == rank[j]:
                        if j + 1 == k:
                            break           # c completes an occurrence
                        out.add(m | 1 << c)
                else:
                    nxt[c, a + (c > last), frozenset(out)] += ways
        layer = nxt
        hists[n] = _by_asc(layer)
    return hists


def sweep() -> int:
    """Check the last count of the package's ``avoider_counts(p, n)``
    at every n against this count, on all 633 patterns of length <= 5
    to n = 9 and on 000, 100, 110, 120 and 201 to n = 13, and every
    histogram of its ``modified_asc_counts(p, n)`` at every n on the six
    patterns of the ``modi`` conjecture to n = 11; print one line per
    set and one per disagreement, and return how many patterns
    disagree."""
    from ascentseq.core import as_word
    from ascentseq.enumeration import avoider_counts as engine
    from ascentseq.enumeration import modified_asc_counts as modified
    from ascentseq.oracles import MODIFIED_PATTERNS, all_patterns

    def counts(p, n_max):
        got = {n: dict(engine(p, n))[n] for n in range(1, n_max + 1)}
        return got, avoider_counts(p, n_max)

    def histograms(p, n_max):
        got = [{n: dict(hist) for n, hist in modified(p, n)}
               for n in range(1, n_max + 1)]
        want = modified_asc_counts(p, n_max)
        return got, [{m: want[m] for m in range(1, n + 1)}
                     for n in range(1, n_max + 1)]

    bad = 0
    for labels, n_max, check in (
            (all_patterns(5), 9, counts),
            (["000", "100", "110", "120", "201"], 13, counts),
            (MODIFIED_PATTERNS, 11, histograms)):
        start = time.perf_counter()
        for label in labels:
            got, want = check(as_word(label), n_max)
            if got != want:
                bad += 1
                print(f"{label}: engine {got}, reference {want}")
        print(f"{len(labels)} patterns to n = {n_max} ({check.__name__}): "
              f"{time.perf_counter() - start:.1f} s")
    return bad


if __name__ == "__main__":
    sys.exit(1 if sweep() else 0)
