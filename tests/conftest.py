"""Shared brute-force oracles, deliberately independent of the package.

Expected values frozen into the tests were produced by these functions
(or computed by hand from the definitions); keeping them separate from
the library implementations is what gives the comparisons teeth.
"""

from itertools import combinations, product

import pytest


def naive_contains(w, p):
    """Containment by trying every index subsequence."""
    k = len(p)
    for idx in combinations(range(len(w)), k):
        sub = [w[i] for i in idx]
        if all((p[i] < p[j]) == (sub[i] < sub[j])
               and (p[i] == p[j]) == (sub[i] == sub[j])
               for i in range(k) for j in range(i + 1, k)):
            return True
    return False


def naive_count_occurrences(w, p):
    k = len(p)
    total = 0
    for idx in combinations(range(len(w)), k):
        sub = [w[i] for i in idx]
        if all((p[i] < p[j]) == (sub[i] < sub[j])
               and (p[i] == p[j]) == (sub[i] == sub[j])
               for i in range(k) for j in range(i + 1, k)):
            total += 1
    return total


def naive_asc(w):
    return sum(1 for a, b in zip(w, w[1:]) if a < b)


def naive_ascent_sequences(n):
    """Filter every word over 0..n-1 by the defining inequality."""
    out = []
    for w in product(range(n), repeat=n):
        if w[0] != 0:
            continue
        if all(w[i] <= naive_asc(w[:i]) + 1 for i in range(1, n)):
            out.append(w)
    return out


def naive_is_noncrossing(sp):
    """No a < b < c < d with a, c in one block and b, d in another,
    checked literally over every pair of blocks."""
    for i, b1 in enumerate(sp):
        for b2 in sp[i + 1:]:
            for a in b1:
                for c in b1:
                    if c <= a:
                        continue
                    for b in b2:
                        if not a < b < c:
                            continue
                        for d in b2:
                            if d > c:
                                return False
    return True


def pat(text):
    return tuple(int(ch) for ch in text)


@pytest.fixture(scope="session")
def small_ascent_sequences():
    """All ascent sequences of lengths 1..5 from the naive generator."""
    return {n: naive_ascent_sequences(n) for n in range(1, 6)}
