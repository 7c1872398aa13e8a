"""A reference count of pattern avoiders, independent of the package.

The library counts avoiders on reduced, interned embedding sets with
deleted dead letters (``incremental``, ``enumeration._layers``).  This
count shares none of that: it merges prefixes only when they agree on
their last letter, their number of ascents and the set of their partial
matches, each kept as the raw tuple of the values it matched.  That key
fixes every continuation's fate, so the count is exact, only slower.

Run as a script, it makes the deep sweep, too slow for the test suite
(about 20 s on 2 cores), and exits 1 if any count disagrees:

    PYTHONPATH=src python tests/reference.py
"""

import sys
import time
from collections import defaultdict


def avoider_counts(p, n_max):
    """{n: number of p-avoiding ascent sequences of length n}, n = 1..n_max.

    A partial match is the tuple of values that a prefix of the word
    takes at the positions matched to p[0], ..., p[j - 1], for
    0 < j < len(p).  Appending c grows every match m with len(m) = j
    that c continues (c compares with each m[i] as p[j] does with
    p[i]); a match grown to len(p) is an occurrence, so c is refused.
    Count n_max is the number of letters each key of layer n_max - 1
    allows, so the last layer is not built.
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


def sweep() -> int:
    """Check the last count of the package's ``avoider_counts(p, n)``
    at every n against this count, on all 633 patterns of length <= 5
    to n = 9 and on 000, 100, 110, 120 and 201 to n = 13; print one
    line per set and one per disagreement, and return how many
    patterns disagree."""
    from ascentseq.core import as_word
    from ascentseq.enumeration import avoider_counts as engine
    from ascentseq.oracles import all_patterns

    bad = 0
    for labels, n_max in ((all_patterns(5), 9),
                          (["000", "100", "110", "120", "201"], 13)):
        start = time.perf_counter()
        for label in labels:
            p = as_word(label)
            got = {n: dict(engine(p, n))[n] for n in range(1, n_max + 1)}
            want = avoider_counts(p, n_max)
            if got != want:
                bad += 1
                print(f"{label}: engine {got}, reference {want}")
        print(f"{len(labels)} patterns to n = {n_max}: "
              f"{time.perf_counter() - start:.1f} s")
    return bad


if __name__ == "__main__":
    sys.exit(1 if sweep() else 0)
