"""Seeded inputs and checked round trips for the bijections.

Inputs are drawn from the definitions alone (no library code), so the
generator cannot share a defect with the maps it feeds.  Each item is a
forward map followed by its inverse; the check after it is untimed.
"""

from __future__ import annotations

import random
import time


def asc(w) -> int:
    return sum(1 for a, b in zip(w, w[1:]) if a < b)


def des(w) -> int:
    return sum(1 for a, b in zip(w, w[1:]) if a > b)


def _ascent_sequence(rng: random.Random, n: int) -> tuple:
    x, a = [0], 0
    for _ in range(n - 1):
        c = rng.randint(0, a + 1)
        a += c > x[-1]
        x.append(c)
    return tuple(x)


def _restricted(rng: random.Random, n: int) -> tuple:
    # letters never drop more than one below the running maximum
    x, a, m = [0], 0, 0
    for _ in range(n - 1):
        c = rng.randint(max(0, m - 1), a + 1)
        a += c > x[-1]
        m = max(m, c)
        x.append(c)
    return tuple(x)


def _avoid_101(rng: random.Random, n: int) -> tuple:
    # b a b with a < b: once b is followed by something smaller it is dead;
    # the fresh letter a+1 has never been seen, so a choice always exists
    x, a, seen, dead = [0], 0, {0}, set()
    for _ in range(n - 1):
        c = rng.choice([v for v in range(a + 2) if v not in dead])
        dead.update(v for v in seen if v > c)
        seen.add(c)
        a += c > x[-1]
        x.append(c)
    return tuple(x)


def _even_twos_ternary(rng: random.Random, n: int) -> tuple:
    t = [rng.randint(0, 2) for _ in range(n - 1)]
    if t.count(2) % 2:
        t[max(i for i, v in enumerate(t) if v == 2)] = rng.randint(0, 1)
    return tuple(t)


def _set_partition(rng: random.Random, n: int) -> tuple:
    labels, m = [0], 0
    for _ in range(n - 1):
        b = rng.randint(0, m + 1)
        m = max(m, b)
        labels.append(b)
    blocks = [[] for _ in range(m + 1)]
    for i, b in enumerate(labels):
        blocks[b].append(i + 1)
    return tuple(tuple(b) for b in blocks)


# pair -> (input generator, forward map, inverse map); the maps are looked
# up on the module at call time, so a traced run sees its wrappers.  phi
# has no inverse in the library, so its pair runs phi and then the split
# of the permutation into a non-crossing partition.
PAIRS = {
    "seq101_perm312": (_avoid_101, "seq101_to_perm312", "perm312_to_seq101"),
    "seq102_ternary": (_even_twos_ternary, "ternary_to_seq102",
                       "seq102_to_ternary"),
    "restricted_021": (_restricted, "restricted_to_021",
                       "seq021_to_restricted"),
    "modify_unmodify": (_ascent_sequence, "modify", "unmodify"),
    "rgf": (_set_partition, "rgf_encode", "rgf_decode"),
    "phi_ncpartition": (_restricted, "phi", "perm231_to_ncpartition"),
}


def make_items(seed: int, per_pair: int, lo: int, hi: int) -> list:
    """per_pair inputs for every pair, in a seeded order.

    Lengths are stratified over [lo, hi] so that every seed sees the same
    spread of sizes; only the draw inside each stratum and the letters
    depend on the seed.
    """
    rng = random.Random(seed)
    items = []
    for pair in PAIRS:
        for j in range(per_pair):
            a = lo + (hi - lo + 1) * j // per_pair
            b = lo + (hi - lo + 1) * (j + 1) // per_pair - 1
            draw = PAIRS[pair][0]
            items.append((pair, draw(rng, rng.randint(a, max(a, b)))))
    rng.shuffle(items)
    return items


def _descending_runs(pi) -> set:
    runs = [[pi[0]]]
    for prev, cur in zip(pi, pi[1:]):
        if cur > prev:
            runs.append([cur])
        else:
            runs[-1].append(cur)
    return {tuple(sorted(r)) for r in runs}


def run_item(bij, pair: str, x) -> tuple[int, int, bool]:
    """Time one round trip; return (start ns, end ns, output is correct)."""
    _, forward, inverse = PAIRS[pair]
    forward, inverse = getattr(bij, forward), getattr(bij, inverse)
    t0 = time.perf_counter_ns()
    y = forward(x)
    back = inverse(y)
    t1 = time.perf_counter_ns()
    if pair != "phi_ncpartition":
        return t0, t1, back == x
    ok = (sorted(y) == list(range(1, len(x) + 1)) and des(y) == asc(x)
          and set(back) == _descending_runs(y))
    return t0, t1, ok
