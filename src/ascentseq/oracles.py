"""Closed-form reference counts, Wilf classification and conjecture checks.

Everything here is exact big-integer arithmetic.  The non-k-crossing
partitions are counted as vacillating tableaux whose shapes have fewer
than k rows (Chen, Deng, Du, Stanley & Yan 2007, "Crossings and
nestings of matchings and partitions"), a walk over Young shapes that
never lists a partition.  The conjecture runners compare layered counts
(``count_avoiders``, ``joint_histograms`` and ``modified_asc_counts``,
each one pass for every length) against an independent oracle or a
second set for each length and report a per-length verdict; a failing
length always carries a concrete witness.  Nothing in this module
extrapolates limits or proves anything; it checks statements
numerically at desk scale.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import comb, exp, log

from .core import as_word, normalize_pattern, word_str
from .enumeration import (CountSeries, count_avoiders, joint_histograms,
                          modified_asc_counts)

# ---------------------------------------------------------------------------
# closed forms


def catalan(n: int) -> int:
    """C_n = binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """N(n, k) = binom(n, k) * binom(n, k - 1) / n for 1 <= k <= n.

    The Narayana numbers refine the Catalan numbers: summing a row gives
    C_n.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return comb(n, k) * comb(n, k - 1) // n


def half_power_formula(n: int) -> int:
    """(3^(n-1) + 1) / 2, the 102-avoider count at length n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (3 ** (n - 1) + 1) // 2


def ternary_even_twos_count(n: int) -> int:
    """Number of ternary words of length n with an even number of 2s."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (3 ** n + 1) // 2


def dyck_height5_count(n: int) -> int:
    """Dyck paths of semilength n and height at most 5, via the linear
    recurrence a(n) = 5a(n-1) - 6a(n-2) + a(n-3) seeded with 1, 2, 5."""
    if n < 1:
        raise ValueError("n must be at least 1")
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
    if n < 1:
        raise ValueError("n must be at least 1")
    return sum(comb(n - 1, k) * catalan(k) for k in range(n))


def bell(n: int) -> int:
    """Number of set partitions of an n-element set, by the Bell triangle."""
    if n < 1:
        raise ValueError("n must be at least 1")
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def stirling2(n: int, k: int) -> int:
    """Number of set partitions of an n-element set into k blocks."""
    if n < 0 or k < 0:
        raise ValueError("need nonnegative arguments")
    if k > n:
        return 0
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [row[j - 1] + j * row[j] for j in range(1, k + 1)]
    return row[k]


# ---------------------------------------------------------------------------
# non-k-crossing set partitions


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
    equal shapes.
    """
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    layer = Counter({(): 1})
    for _ in range(n):
        shrunk: Counter = Counter()
        for shape, ways in layer.items():
            shrunk[shape] += ways
            for i, r in enumerate(shape):
                if i + 1 == len(shape) or shape[i + 1] < r:
                    row = (r - 1,) if r > 1 else ()
                    shrunk[shape[:i] + row + shape[i + 1:]] += ways
        layer = Counter()
        for shape, ways in shrunk.items():
            layer[shape] += ways
            for i in range(min(len(shape) + 1, k - 1)):
                r = shape[i] if i < len(shape) else 0
                if i == 0 or shape[i - 1] > r:
                    layer[shape[:i] + (r + 1,) + shape[i + 1:]] += ways
    return layer[()]


# ---------------------------------------------------------------------------
# Wilf classification


@dataclass
class WilfReport:
    """Partition of a pattern set into classes with identical counting
    sequences on 1..n_max, plus the first separating length for every
    pair of distinct classes (keyed by class representatives)."""

    n_max: int
    classes: list[list[str]]
    series: dict[str, CountSeries]
    separations: dict[tuple[str, str], int] = field(default_factory=dict)


def _pattern_sort_key(label: str):
    return (len(label), label)


def wilf_classify(patterns, n_max: int, check=None) -> WilfReport:
    """Group patterns by their avoider-count series on lengths 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    # label -> normalized pattern; a label with letters past 9 is
    # comma-separated, which as_word does not parse back
    words = {}
    for p in patterns:
        w = normalize_pattern(as_word(p) if isinstance(p, str) else p)
        words.setdefault(word_str(w), w)
    series = {label: count_avoiders(w, n_max, check=check)
              for label, w in words.items()}
    groups: dict[tuple, list[str]] = {}
    for label in series:
        groups.setdefault(tuple(series[label].as_list()), []).append(label)
    classes = sorted((sorted(g, key=_pattern_sort_key) for g in groups.values()),
                     key=lambda g: _pattern_sort_key(g[0]))
    separations: dict[tuple[str, str], int] = {}
    for i, g1 in enumerate(classes):
        for g2 in classes[i + 1:]:
            a, b = g1[0], g2[0]
            va, vb = series[a].values, series[b].values
            n = next(m for m in range(1, n_max + 1) if va[m] != vb[m])
            separations[(a, b)] = n
    return WilfReport(n_max, classes, series, separations)


def all_patterns(max_len: int) -> list[str]:
    """All patterns of length 1..max_len (value sets must be initial
    segments of the nonnegative integers), as digit strings."""
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
    overflows from 2^1024 on.
    """
    out = []
    for n in sorted(cs.values):
        x = cs.values[n]
        if x <= 0:
            raise ValueError(f"count at n={n} is not positive")
        out.append((n, exp(log(x) / n)))
    return out


# ---------------------------------------------------------------------------
# conjecture suite


@dataclass
class ConjectureVerdict:
    n: int
    holds: bool
    witness: str | None = None


@dataclass
class ConjectureResult:
    conjecture: str
    n_max: int
    verdicts: list[ConjectureVerdict]

    @property
    def holds(self) -> bool:
        return all(v.holds for v in self.verdicts)


MODIFIED_PATTERNS = ("101", "0101", "1021", "1102", "1120", "1210")


def _verdict_counts(name: str, n: int, got: int, want: int,
                    source: str) -> ConjectureVerdict:
    if got == want:
        return ConjectureVerdict(n, True)
    return ConjectureVerdict(
        n, False, f"{name}: got {got}, {source} gives {want}")


def _histogram_verdict(n, h1, h2, what) -> ConjectureVerdict:
    if h1 == h2:
        return ConjectureVerdict(n, True)
    keys = sorted(set(h1) | set(h2))
    diff = next(k for k in keys if h1.get(k, 0) != h2.get(k, 0))
    return ConjectureVerdict(
        n, False,
        f"{what} differ at key {diff}: {h1.get(diff, 0)} vs {h2.get(diff, 0)}")


def _run_bi_021(n_max: int, check) -> list[ConjectureVerdict]:
    sides = (joint_histograms((kind, (0, 2, 1)), n_max, "asc", "rlmin",
                              check=check)
             for kind in ("avoiders", "perm-avoiders"))
    return [_histogram_verdict(
                n, h1, h2, "(asc, rlmin) on 021-avoiders vs 132-avoiding perms")
            for (n, h1), (_, h2) in zip(*sides)]


def _run_0012(n_max: int, check) -> list[ConjectureVerdict]:
    out = []
    sides = zip(joint_histograms(("avoiders", (0, 0, 1, 2)), n_max,
                                 "asc", "fwd", "zeros", check=check),
                joint_histograms(("perm-avoiders", (0, 2, 1)), n_max,
                                 "asc", "rlmax", check=check))
    for (n, h_three), (_, h_perm) in sides:
        h_fwd, h_zeros = Counter(), Counter()
        for (a, f, z), m in h_three.items():
            h_fwd[(a, f)] += m
            h_zeros[(a, z)] += m
        v = _verdict_counts("|A_0012|", n, sum(h_fwd.values()), catalan(n),
                            "Catalan")
        if not v.holds:
            out.append(v)
            continue
        v = _histogram_verdict(n, h_fwd, h_perm,
                               "(asc, fwd) vs (asc, rlmax) on 132-avoiders")
        if v.holds:
            v = _histogram_verdict(n, h_fwd, h_zeros,
                                   "(asc, fwd) vs (asc, zeros)")
        if v.holds:
            h_asc = Counter()
            for (a, _), m in h_fwd.items():
                h_asc[a] += m
            want = {k - 1: narayana(n, k) for k in range(1, n + 1)}
            want = {k: v2 for k, v2 in want.items() if v2}
            v = _histogram_verdict(n, dict(h_asc), want,
                                   "asc distribution vs Narayana")
        out.append(v)
    return out


def _count_verdicts(n_max: int, check, labels, reference,
                    source: str) -> list[ConjectureVerdict]:
    """Per length n, the avoider count of each pattern label against
    ``reference(n)``; the first label that differs gives the witness."""
    series = [(f"|A_{label}|",
               count_avoiders(as_word(label), n_max, check=check).values)
              for label in labels]
    out = []
    for n in range(1, n_max + 1):
        if check is not None:
            check()
        want = reference(n)
        v = ConjectureVerdict(n, True)
        for name, got in series:
            v = _verdict_counts(name, n, got[n], want, source)
            if not v.holds:
                break
        out.append(v)
    return out


def _run_210(n_max: int, check) -> list[ConjectureVerdict]:
    return _count_verdicts(n_max, check, ["210"],
                           lambda n: non_k_crossing_partition_count(n, 3),
                           "non-3-crossing partitions")


def _run_0123(n_max: int, check) -> list[ConjectureVerdict]:
    return _count_verdicts(n_max, check, ["0123"], dyck_height5_count,
                           "height-5 Dyck recurrence")


def _run_0021_wilf(n_max: int, check) -> list[ConjectureVerdict]:
    want = count_avoiders((1, 0, 1, 2), n_max, check=check).values
    return _count_verdicts(n_max, check, ["0021"], want.__getitem__,
                           "|A_1012|")


def _run_0021_count(n_max: int, check) -> list[ConjectureVerdict]:
    return _count_verdicts(n_max, check, ["0021", "1012"],
                           binomial_transform_catalan,
                           "binomial transform of Catalan")


def _run_modi(n_max: int, check) -> list[ConjectureVerdict]:
    # one pattern at a time, so that only one pattern's layers are alive
    series = [list(modified_asc_counts(as_word(label), n_max, check))
              for label in MODIFIED_PATTERNS]
    out = []
    for n, row in enumerate(zip(*series), 1):
        hists = [hist for _, hist in row]
        want = {k: stirling2(n, n - k) for k in range(n)
                if stirling2(n, n - k)}
        verdict = ConjectureVerdict(n, True)
        for label, hist in zip(MODIFIED_PATTERNS, hists):
            v = _verdict_counts(f"modified {label}-avoiders", n,
                                sum(hist.values()), bell(n), "Bell")
            if v.holds:
                v = _histogram_verdict(
                    n, dict(hist), want,
                    f"asc distribution on modified {label}-avoiders vs "
                    "blocks-reversed Stirling")
            if not v.holds:
                verdict = v
                break
        out.append(verdict)
    return out


# id: (runner, default n_max)
_CONJECTURES = {
    "bi-021": (_run_bi_021, 11),
    "0012": (_run_0012, 11),
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
    second: the slowest, modi and bi-021, take about 0.15 s (2 cores,
    CPython 3.11).
    """
    try:
        runner, default = _CONJECTURES[conjecture_id]
    except KeyError:
        raise ValueError(f"unknown conjecture {conjecture_id!r}; choose from "
                         f"{list(CONJECTURE_IDS)}") from None
    n_max = default if n_max is None else n_max
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return ConjectureResult(conjecture_id, n_max, runner(n_max, check))
