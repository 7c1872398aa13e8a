"""Closed-form reference counts, Wilf classification and conjecture checks.

Everything here is exact big-integer arithmetic.  The non-k-crossing
partitions are counted as vacillating tableaux whose shapes have fewer
than k rows (Chen, Deng, Du, Stanley & Yan 2007, "Crossings and
nestings of matchings and partitions"), a walk over Young shapes that
never lists a partition.  Each conjecture runner yields, per length,
a list of checks that compare layered counts (``count_avoiders``,
``joint_histograms`` and ``modified_asc_counts``, each one pass for
every length) with an independent oracle or a second set.  One function,
``_verdict``, turns each length's checks into its verdict: the first
check whose sides differ gives the failing length's concrete witness.
Nothing in this module extrapolates limits or proves anything; it checks
statements numerically at desk scale.
"""

from __future__ import annotations

import reprlib
from collections import Counter
from collections.abc import Mapping
from itertools import accumulate, compress, count, product
from math import comb, exp, log
from operator import ne
from typing import NamedTuple

from .core import as_word, normalize_pattern, word_str
from .enumeration import (CountSeries, _check_hook, _check_length,
                          avoider_counts, count_avoiders, joint_histograms,
                          modified_asc_counts)

# ---------------------------------------------------------------------------
# closed forms


def _check_ints(*args) -> None:
    """Refuse, with a short ValueError, an argument that is not an int
    (a bool included), before arithmetic could raise TypeError or return
    a float."""
    for x in args:
        if type(x) is not int:
            raise ValueError(f"arguments must be ints, not {reprlib.repr(x)}")


# Limits on the closed forms, each with the time of one call at the limit
# (2 cores, CPython 3.11).  Each stays above every length that the CLI
# defaults, the conjecture runners and the reference table use.
_MAX_CATALAN_N = 10**5          # 0.36 s
_MAX_DYCK_N = 10**5             # 0.78 s
_MAX_BELL_N = 2000              # 0.54 s; stirling2(2000, 1000) 0.59 s
_MAX_POWER_N = 5 * 10**6        # 0.59 s
_MAX_CATALAN_TRANSFORM_N = 2000     # 0.34 s
_MAX_FISHBURN_N = 200           # 0.3 s
_MAX_TABLEAU_WORK = 240000      # shape-steps of the walk: 1.1 s at most


def _check_at_most(n: int, limit: int) -> None:
    if n > limit:
        raise ValueError(f"n above {limit} is not supported")


def _check_n(n: int, least: int, limit: int) -> None:
    """Refuse n, the one argument of a closed form, unless it is an int
    from ``least`` (0 or 1) to ``limit``."""
    _check_ints(n)
    if n < least:
        raise ValueError("n must be at least 1" if least else
                         "n must be nonnegative")
    _check_at_most(n, limit)


def catalan(n: int) -> int:
    """C_n = binom(2n, n) / (n + 1)."""
    _check_n(n, 0, _MAX_CATALAN_N)
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """N(n, k) = binom(n, k) * binom(n, k - 1) / n for 1 <= k <= n.

    The Narayana numbers refine the Catalan numbers: summing a row gives
    C_n.
    """
    _check_ints(n, k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return comb(n, k) * comb(n, k - 1) // n


def half_power_formula(n: int) -> int:
    """(3^(n-1) + 1) / 2, the 102-avoider count at length n."""
    _check_n(n, 1, _MAX_POWER_N)
    return (3 ** (n - 1) + 1) // 2


def ternary_even_twos_count(n: int) -> int:
    """Number of ternary words of length n with an even number of 2s."""
    _check_n(n, 0, _MAX_POWER_N)
    return (3 ** n + 1) // 2


def dyck_height5_count(n: int) -> int:
    """Dyck paths of semilength n and height at most 5, via the linear
    recurrence a(n) = 5a(n-1) - 6a(n-2) + a(n-3) seeded with 1, 2, 5."""
    _check_n(n, 1, _MAX_DYCK_N)
    seeds = [1, 2, 5]
    if n <= 3:
        return seeds[n - 1]
    a3, a2, a1 = seeds
    for _ in range(n - 3):
        a3, a2, a1 = a2, a1, 5 * a1 - 6 * a2 + a3
    return a1


def binomial_transform_catalan(n: int) -> int:
    """Binomial transform of the Catalan numbers, offset so that the
    values start 1, 2, 5, 15, 51 at n = 1."""
    _check_n(n, 1, _MAX_CATALAN_TRANSFORM_N)
    return sum(comb(n - 1, k) * catalan(k) for k in range(n))


def fishburn(n: int) -> int:
    """The Fishburn number: ascent sequences of length n, 1 at n = 0.

    It is the coefficient of x^n in the series
    sum_{k >= 0} prod_{i=1..k} (1 - (1 - x)^i) (Zagier 2001;
    Bousquet-Mélou, Claesson, Dukes & Kitaev 2010).  Each factor has no
    constant term, so only the terms k <= n reach x^n; each product is
    kept to degree n, in integers."""
    _check_n(n, 0, _MAX_FISHBURN_N)
    power = [1] + [0] * n           # (1 - x)^i
    term = power[:]                 # the product of the first i factors
    total = term[n]
    for i in range(1, n + 1):
        power = [1] + [power[d] - power[d - 1] for d in range(1, n + 1)]
        # term times 1 - power; term has no degree below i - 1
        term = [-sum(term[e] * power[d - e] for e in range(i - 1, d))
                for d in range(n + 1)]
        total += term[n]
    return total


def bell(n: int) -> int:
    """Number of set partitions of an n-element set, by the Bell triangle."""
    _check_n(n, 1, _MAX_BELL_N)
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def stirling2(n: int, k: int) -> int:
    """Number of set partitions of an n-element set into k blocks."""
    _check_ints(n, k)
    if n < 0 or k < 0:
        raise ValueError("need nonnegative arguments")
    _check_at_most(n, _MAX_BELL_N)
    if k > n:
        return 0
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, k + 1)]
    return row[k]


# ---------------------------------------------------------------------------
# non-k-crossing set partitions


def _walk_work(n: int, rows: int) -> int:
    """Shape-steps of the tableau walk of length n: after step t it keeps
    at most the shapes of at most min(t, n - t) squares and ``rows``
    rows, counted as partitions into parts of at most ``rows``, by
    conjugation."""
    half = n // 2
    ways = [1] + [0] * half         # shapes of exactly s squares
    for part in range(1, rows + 1):
        for s in range(part, half + 1):
            ways[s] += ways[s - part]
    shapes = list(accumulate(ways))     # of at most s squares
    return sum(shapes[min(t, n - t)] for t in range(1, n + 1))


def non_k_crossing_partition_count(n: int, k: int) -> int:
    """Partitions of {1..n} whose arc diagram has no k mutually crossing
    arcs; k = 2 recovers the non-crossing partitions.

    Arcs join consecutive elements of a block, and k arcs cross mutually
    when their ends interleave as a_1 < ... < a_k < b_1 < ... < b_k.
    Partitions of {1..n} are in bijection with vacillating tableaux of
    length 2n: walks of Young shapes from the empty shape back to it in
    which step i first removes a corner square or does nothing, then adds
    a square or does nothing.  The largest crossing of the partition is
    the largest number of rows of a shape on its walk (Chen, Deng, Du,
    Stanley & Yan 2007, "Crossings and nestings of matchings and
    partitions"), so the count is the number of such walks whose shapes
    keep fewer than k rows.  Walks are counted layer by layer, merging
    equal shapes and dropping those too big to get back to empty.
    """
    _check_ints(n, k)
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    # the walk keeps at least one shape of each size up to min(t, n - t)
    # after step t, so it takes n * n / 4 shape-steps or more: past that
    # bound it is refused before its work is estimated
    rows = min(k - 1, n // 2)
    if (n * n > 4 * _MAX_TABLEAU_WORK
            or _walk_work(n, rows) > _MAX_TABLEAU_WORK):
        raise ValueError("n and k are past the supported size of the walk")
    layer = Counter({(): 1})
    for left in range(n - 1, -1, -1):
        shrunk: Counter = Counter()
        for shape, ways in layer.items():
            shrunk[shape] += ways
            for i, r in enumerate(shape):
                if i + 1 == len(shape) or shape[i + 1] < r:
                    row = (r - 1,) if r > 1 else ()
                    shrunk[shape[:i] + row + shape[i + 1:]] += ways
        # a step removes at most one square, so a shape with more squares
        # than steps left never gets back to the empty shape
        layer = Counter()
        for shape, ways in shrunk.items():
            squares = sum(shape)
            if squares > left:
                continue
            layer[shape] += ways
            if squares == left:
                continue
            for i in range(min(len(shape) + 1, k - 1)):
                r = shape[i] if i < len(shape) else 0
                if i == 0 or shape[i - 1] > r:
                    layer[shape[:i] + (r + 1,) + shape[i + 1:]] += ways
    return layer[()]


# ---------------------------------------------------------------------------
# Wilf classification


class WilfReport(NamedTuple):
    """Partition of a pattern set into classes with identical counting
    sequences on 1..n_max, plus the first separating length for every
    pair of distinct classes (keyed by class representatives)."""

    n_max: int
    classes: list[list[str]]
    series: Mapping[str, CountSeries]
    separations: dict[tuple[str, str], int]


class _FullSeries(Mapping):
    """Label -> ``CountSeries`` on 1..n_max.  A series left short when
    its pattern settled is counted again, in full, the first time it is
    read."""

    def __init__(self, words, known, n_max: int, check):
        self._words, self._known = words, known
        self._n_max, self._check = n_max, check

    def __getitem__(self, label: str) -> CountSeries:
        if label not in self._known:
            self._known[label] = count_avoiders(
                self._words[label], self._n_max, check=self._check)
        return self._known[label]

    def __contains__(self, label) -> bool:
        return label in self._words     # without counting it

    def __iter__(self):
        return iter(self._words)

    def __len__(self) -> int:
        return len(self._words)


def _pattern_sort_key(label: str):
    return (len(label), label)


def wilf_classify(patterns, n_max: int, check=None) -> WilfReport:
    """Group patterns by their avoider-count series on lengths 1..n_max.

    Patterns are labelled by their normalized form, and repeated ones
    (equal after normalization) are classified once, so the classes can
    hold fewer labels than patterns were passed.  A str or bytes is
    refused, not read as one-letter patterns.

    The patterns' ``avoider_counts`` advance in lockstep, one length at a
    time.  After each length the live patterns are grouped by series
    prefix, and a pattern alone in its group is settled: its counting
    stops and its layers are freed.  Classes only split as n grows, so a
    pattern alone at length d stays alone at every later length; the
    settled prefixes therefore give the classes exactly.

    Two classes separate at the first length where their series differ,
    read off the prefixes of the classes' first labels as the 1-based
    index of their first unequal entry.  Every pair differs within the
    shorter prefix: a pattern that settled at length d was alone among
    the first d counts of every series still counting, the longer one
    among them, and two classes that never settled differ within n_max.

    ``series`` counts a settled pattern again, in full, when it is first
    read.  ``check`` is refused at once when it is neither None nor
    callable, with patterns or without, and passed on to every count.
    """
    _check_length(n_max)
    _check_hook(check)
    if isinstance(patterns, (str, bytes)):
        raise ValueError("patterns must be an iterable of patterns, not "
                         f"{type(patterns).__name__}")
    try:
        patterns = iter(patterns)
    except TypeError:
        raise ValueError("patterns must be an iterable of patterns, not "
                         f"{type(patterns).__name__}") from None
    # label -> normalized pattern; a label with letters past 9 is
    # comma-separated, and as_word reads it back
    words = {}
    for p in patterns:
        w = normalize_pattern(as_word(p) if isinstance(p, str) else p)
        words.setdefault(word_str(w), w)
    prefixes = {label: [] for label in words}
    live = {label: avoider_counts(w, n_max, check)
            for label, w in words.items()}
    for _ in range(n_max):
        for label, counts in live.items():
            prefixes[label].append(next(counts)[1])
        groups: dict[tuple, list[str]] = {}
        for label in live:
            groups.setdefault(tuple(prefixes[label]), []).append(label)
        for g in groups.values():
            if len(g) == 1:
                del live[g[0]]      # frees the pattern's book and layer
    classes = [[label] for label in words if label not in live]
    classes += [g for g in groups.values() if len(g) > 1]
    classes = sorted((sorted(g, key=_pattern_sort_key) for g in classes),
                     key=lambda g: _pattern_sort_key(g[0]))
    reps = [(g[0], prefixes[g[0]]) for g in classes]
    separations = {(p, q): next(compress(count(1), map(ne, a, b)))
                   for i, (p, a) in enumerate(reps) for q, b in reps[i + 1:]}
    known = {label: CountSeries(label, dict(enumerate(prefixes[label], 1)))
             for label in live}
    return WilfReport(n_max, classes,
                      _FullSeries(words, known, n_max, check), separations)


_MAX_PATTERN_LEN = 7    # all_patterns scans m^m words of each length m


def all_patterns(max_len: int) -> list[str]:
    """All patterns of length 1..max_len (value sets must be initial
    segments of the nonnegative integers), as digit strings."""
    _check_ints(max_len)
    if max_len > _MAX_PATTERN_LEN:
        raise ValueError(f"max_len above {_MAX_PATTERN_LEN} is not supported")
    out = []
    for m in range(1, max_len + 1):
        for w in product(range(m), repeat=m):
            if sorted(set(w)) == list(range(len(set(w)))):
                out.append(word_str(w))
    return out


# ---------------------------------------------------------------------------
# growth rates


def growth_rate_estimates(cs: CountSeries) -> list[tuple[int, float]]:
    """Per-length root estimates (n, x_n^(1/n)); no limit is extrapolated.

    The root is taken through the logarithm, which accepts integers of
    any size; ``x ** (1 / n)`` would first convert x to a float, which
    overflows from 2^1024 on.  The counts must be ints >= 1 in a dict
    keyed by int lengths >= 1, where a bool is no int; anything else,
    or a root past float range, is refused with ValueError.
    """
    if not isinstance(cs, CountSeries):
        raise ValueError(f"expected a CountSeries, not {type(cs).__name__}")
    values = cs.values
    if not isinstance(values, dict) or any(type(n) is not int or n < 1
                                           for n in values):
        raise ValueError("counts must be a dict keyed by int lengths >= 1")
    out = []
    for n in sorted(values):
        x = values[n]
        if type(x) is not int or x <= 0:
            raise ValueError(f"count at n={n} is not positive")
        try:
            out.append((n, exp(log(x) / n)))
        except OverflowError:
            raise ValueError(f"root at n={n} is past float range") from None
    return out


# ---------------------------------------------------------------------------
# conjecture suite


class ConjectureVerdict(NamedTuple):
    n: int
    holds: bool
    witness: str | None = None


class ConjectureResult(NamedTuple):
    conjecture: str
    n_max: int
    verdicts: list[ConjectureVerdict]

    @property
    def holds(self) -> bool:
        return all(v.holds for v in self.verdicts)


MODIFIED_PATTERNS = ("101", "0101", "1021", "1102", "1120", "1210")


def _verdict(n: int, checks) -> ConjectureVerdict:
    """The verdict at length n: the first check whose sides differ gives
    the witness.

    A check is ``(what, got, want, source)``.  A count names the source
    of ``want``; a histogram has source None, and its witness is the
    smallest key at which the sides differ."""
    for what, got, want, source in checks:
        if got == want:
            continue
        if source is not None:
            witness = f"{what}: got {got}, {source} gives {want}"
        else:
            k = min(k for k in set(got) | set(want)
                    if got.get(k, 0) != want.get(k, 0))
            witness = (f"{what} differ at key {k}: "
                       f"{got.get(k, 0)} vs {want.get(k, 0)}")
        return ConjectureVerdict(n, False, witness)
    return ConjectureVerdict(n, True)


def _run_bi_021(n_max: int, check):
    sides = (joint_histograms((kind, (0, 2, 1)), n_max, "asc", "rlmin",
                              check=check)
             for kind in ("avoiders", "perm-avoiders"))
    for (n, h_seq), (_, h_perm) in zip(*sides):
        yield n, [("(asc, rlmin) on 021-avoiders vs 132-avoiding perms",
                   h_seq, h_perm, None)]


def _run_0012(n_max: int, check):
    sides = zip(joint_histograms(("avoiders", (0, 0, 1, 2)), n_max,
                                 "asc", "fwd", "zeros", check=check),
                joint_histograms(("perm-avoiders", (0, 2, 1)), n_max,
                                 "asc", "rlmax", check=check))
    for (n, h_three), (_, h_perm) in sides:
        h_fwd, h_zeros, h_asc = Counter(), Counter(), Counter()
        for (a, f, z), m in h_three.items():
            h_fwd[(a, f)] += m
            h_zeros[(a, z)] += m
            h_asc[a] += m
        yield n, [
            ("|A_0012|", sum(h_fwd.values()), catalan(n), "Catalan"),
            ("(asc, fwd) vs (asc, rlmax) on 132-avoiders", h_fwd, h_perm,
             None),
            ("(asc, fwd) vs (asc, zeros)", h_fwd, h_zeros, None),
            ("asc distribution vs Narayana", h_asc,
             {k - 1: narayana(n, k) for k in range(1, n + 1)}, None),
        ]


def _count_checks(n_max: int, check, labels, reference, source: str):
    """Per length n, the avoider count of each pattern label against
    ``reference(n)``."""
    series = [(f"|A_{label}|",
               count_avoiders(as_word(label), n_max, check=check).values)
              for label in labels]
    for n in range(1, n_max + 1):
        if check is not None:
            check()
        want = reference(n)
        yield n, [(what, got[n], want, source) for what, got in series]


def _run_210(n_max: int, check):
    return _count_checks(n_max, check, ["210"],
                         lambda n: non_k_crossing_partition_count(n, 3),
                         "non-3-crossing partitions")


def _run_0123(n_max: int, check):
    return _count_checks(n_max, check, ["0123"], dyck_height5_count,
                         "height-5 Dyck recurrence")


def _run_0021_wilf(n_max: int, check):
    want = count_avoiders((1, 0, 1, 2), n_max, check=check).values
    return _count_checks(n_max, check, ["0021"], want.__getitem__,
                         "|A_1012|")


def _run_0021_count(n_max: int, check):
    return _count_checks(n_max, check, ["0021", "1012"],
                         binomial_transform_catalan,
                         "binomial transform of Catalan")


def _run_modi(n_max: int, check):
    # one pattern at a time, so that only one pattern's layers are alive
    series = [list(modified_asc_counts(as_word(label), n_max, check))
              for label in MODIFIED_PATTERNS]
    for n, row in enumerate(zip(*series), 1):
        total = bell(n)
        want = {k: stirling2(n, n - k) for k in range(n)}
        checks = []
        for label, (_, hist) in zip(MODIFIED_PATTERNS, row):
            checks += [
                (f"modified {label}-avoiders", sum(hist.values()), total,
                 "Bell"),
                (f"asc distribution on modified {label}-avoiders vs "
                 "blocks-reversed Stirling", hist, want, None),
            ]
        yield n, checks


# id: (runner yielding (n, checks) per length, default n_max)
_CONJECTURES = {
    "bi-021": (_run_bi_021, 24),
    "0012": (_run_0012, 16),
    "210": (_run_210, 12),
    "0123": (_run_0123, 11),
    "0021-wilf": (_run_0021_wilf, 11),
    "0021-count": (_run_0021_count, 11),
    "modi": (_run_modi, 11),
}

CONJECTURE_IDS = tuple(_CONJECTURES)


def run_conjecture(conjecture_id: str, n_max: int | None = None,
                   check=None) -> ConjectureResult:
    """Check one conjecture numerically for every length up to n_max.

    Valid ids: bi-021, 0012, 210, 0123, 0021-wilf, 0021-count, modi.
    Each id has a default n_max, at which a run takes well under a
    second: the slowest, 0012 to 16, takes about 0.08 s, and bi-021 to
    24 and modi to 11 about 0.045 s each (median of 9 in process, 2
    cores, CPython 3.11).
    """
    try:
        runner, default = _CONJECTURES[conjecture_id]
    except (KeyError, TypeError):
        raise ValueError("unknown conjecture "
                         f"{reprlib.repr(conjecture_id)}; choose from "
                         f"{list(CONJECTURE_IDS)}") from None
    n_max = default if n_max is None else n_max
    _check_length(n_max)
    return ConjectureResult(conjecture_id, n_max,
                            [_verdict(n, checks)
                             for n, checks in runner(n_max, check)])
