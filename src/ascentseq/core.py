"""Words over the nonnegative integers and their pattern semantics.

Everything in this package is built on plain tuples of ints.  A *word* is
any finite sequence of nonnegative integers.  An *ascent sequence* is a
word x_1 x_2 ... x_n with x_1 = 0 in which every later letter is at most
one more than the number of ascents of the prefix before it.  A *pattern*
is a word whose set of distinct values is {0, 1, ..., k}; an occurrence of
a pattern in a word is a subsequence whose letters compare exactly like
the pattern letters do (equal pattern letters must be matched by equal
word letters, strict inequalities by strict inequalities).

All functions in this module are pure and operate on immutable tuples,
so values can be shared freely between threads; that does not cover the
tracker books of ``incremental``, which grow as their (ids, dead) pairs
are stepped.  Positions reported by functions in this module are
0-based; the traditional presentation of ascent sequences is 1-based,
so examples in docstrings shift by one.
"""

from __future__ import annotations

import reprlib
from bisect import bisect_left
from functools import lru_cache
from math import inf
from operator import gt, lt
from typing import Iterable, Sequence

Word = tuple[int, ...]


# int()'s default limit on the digits, leading zeros too, of a str it reads
_MAX_LETTER_DIGITS = 4300


def as_word(letters: Iterable[int] | str) -> Word:
    """Coerce a str or an iterable of ints to a word tuple.  A str is
    read as ``word_str`` writes it: ASCII digits, one letter each, or
    letters joined by commas, or one letter above 9 and a comma; an
    iterable with a letter that is not an int is refused, as by
    ``check_letters``.

    >>> as_word("0101312052")
    (0, 1, 0, 1, 3, 1, 2, 0, 5, 2)
    >>> as_word("0,1,10")
    (0, 1, 10)
    >>> as_word("10,")
    (10,)
    """
    if isinstance(letters, str):
        parts = letters.split(",") if "," in letters else letters
        if len(parts) == 2 and not parts[1] and len(parts[0].lstrip("0")) > 1:
            parts = parts[:1]   # one letter above 9, as word_str writes it
        if not all(d.isascii() and d.isdigit() for d in parts):
            raise ValueError("a word is a digit string or letters joined "
                             f"by commas, not {reprlib.repr(letters)}")
        # counted first: int() refuses a longer str with its own message
        if any(len(d) > _MAX_LETTER_DIGITS for d in parts):
            raise ValueError(f"letters of more than {_MAX_LETTER_DIGITS} "
                             "digits are not supported")
        return tuple(map(int, parts))
    w = tuple(int(x) for x in check_letters(letters))
    if any(x < 0 for x in w):
        raise ValueError("letters must be nonnegative")
    return w


def check_letters(w: Iterable[int]) -> Word:
    """w as a tuple, refused with ValueError unless every letter is an
    int, before any comparison of letters could raise TypeError.  The
    message shows w abridged by ``reprlib``, so a long word gives a
    short message."""
    try:
        w = tuple(w)
        # one pass in C, about 3x cheaper than collecting the letters'
        # types: a float letter makes the sum a float, and a str, None or
        # tuple letter raises TypeError
        ints = type(sum(w)) is int
    except TypeError:
        ints = False
    if not ints:
        raise ValueError(f"letters must be ints: {reprlib.repr(w)}")
    return w


def word_str(w: Sequence[int]) -> str:
    """Compact display form: digits concatenated while all letters fit,
    else letters joined by commas, and a lone letter above 9 followed by
    one, so that it does not read as its digits; letters that are not
    ints are refused, as by ``check_letters``, and a bool letter prints
    as the int it is read as."""
    w = check_letters(w)
    if w and max(w) > 9:
        return ",".join("%d" % x for x in w) if len(w) > 1 else "%d," % w[0]
    return "".join("%d" % x for x in w)


def abridged(w: Sequence[int]) -> str:
    """``word_str`` of w cut after 40 letters, for error messages."""
    if len(w) <= 40:
        return word_str(w)
    return f"{word_str(w[:40])}... ({len(w)} letters)"


# ---------------------------------------------------------------------------
# ascent / descent counts and membership tests
#
# Each membership test refuses letters that are not ints, as
# ``check_letters`` does; the matching check_* helper passes the test's
# unchecked body to ``_refuse_unless``, which checks the letters once.


def _refuse_unless(test, w: Sequence[int], what: str) -> Word:
    """w as by ``check_letters``, refused with ValueError("not <what>:
    <w abridged>") unless ``test`` accepts it."""
    w = check_letters(w)
    if not test(w):
        raise ValueError(f"not {what}: {abridged(w)}")
    return w


def asc(w: Sequence[int]) -> int:
    """Number of positions j with w[j] < w[j+1]."""
    w = check_letters(w)
    return sum(1 for j in range(len(w) - 1) if w[j] < w[j + 1])


def des(w: Sequence[int]) -> int:
    """Number of positions j with w[j] > w[j+1]."""
    w = check_letters(w)
    return sum(1 for j in range(len(w) - 1) if w[j] > w[j + 1])


def is_ascent_sequence(w: Sequence[int]) -> bool:
    """True iff w is a valid ascent sequence.

    The empty word is not an ascent sequence.  0101312052 is one;
    0012143 is not, because the 4 exceeds asc(00121) + 1 = 3.
    """
    return _ascent_sequence(check_letters(w))


def _ascent_sequence(w: Word) -> bool:
    if not w or w[0] != 0:
        return False
    a = 0
    for i in range(1, len(w)):
        if w[i] < 0 or w[i] > a + 1:
            return False
        if w[i] > w[i - 1]:
            a += 1
    return True


def check_ascent_sequence(w: Sequence[int]) -> Word:
    return _refuse_unless(_ascent_sequence, w, "an ascent sequence")


def is_restricted(w: Sequence[int]) -> bool:
    """True iff w is an ascent sequence with every letter >= running max - 1."""
    return _restricted(check_letters(w))


def _restricted(w: Word) -> bool:
    if not _ascent_sequence(w):
        return False
    m = w[0]
    for i in range(1, len(w)):
        if w[i] < m - 1:
            return False
        if w[i] > m:
            m = w[i]
    return True


def check_restricted(w: Sequence[int]) -> Word:
    return _refuse_unless(_restricted, w, "a restricted ascent sequence")


def is_rgf(w: Sequence[int]) -> bool:
    """True iff w is a restricted growth function.

    A word starting with 0 in which the first occurrence of every letter
    k > 0 is preceded by an occurrence of k - 1; such words are exactly
    the canonical encodings of set partitions.  001021 is an RGF while
    01013 is not (no 2 before the 3).
    """
    return _rgf(check_letters(w))


def _rgf(w: Word) -> bool:
    if not w or w[0] != 0:
        return False
    m = 0
    for x in w:
        if x > m:
            if x > m + 1:
                return False
            m = x
    return True


def check_rgf(w: Sequence[int]) -> Word:
    return _refuse_unless(_rgf, w, "a restricted growth string")


# ---------------------------------------------------------------------------
# statistics on nonempty words


def _require_nonempty(w: Sequence[int]) -> Word:
    """w as a tuple of ints, as by ``check_letters``, and nonempty."""
    w = check_letters(w)
    if not w:
        raise ValueError("statistic undefined on the empty word")
    return w


def _records(w: Sequence[int], beats, backward: bool = False) -> int:
    """Number of letters of the nonempty word w, read from the right when
    ``backward``, that beat (``operator.gt`` or ``lt``) every letter read
    before them.  The count starts from no letter, not from a sentinel
    value, so negative letters count too."""
    w = _require_nonempty(w)
    count, best = 0, None
    for x in reversed(w) if backward else w:
        if best is None or beats(x, best):
            count, best = count + 1, x
    return count


def lrmax(w: Sequence[int]) -> int:
    """Number of letters strictly greater than everything before them."""
    return _records(w, gt)


def lrmin(w: Sequence[int]) -> int:
    """Number of letters strictly less than everything before them."""
    return _records(w, lt)


def rlmax(w: Sequence[int]) -> int:
    """Number of letters strictly greater than everything after them."""
    return _records(w, gt, backward=True)


def rlmin(w: Sequence[int]) -> int:
    """Number of letters strictly less than everything after them."""
    return _records(w, lt, backward=True)


def zeros(w: Sequence[int]) -> int:
    """Number of 0 letters."""
    w = _require_nonempty(w)
    return sum(1 for x in w if x == 0)


def fwd(w: Sequence[int]) -> int:
    """Length of the longest weakly decreasing suffix.

    fwd(01123035523220) = 4, the length of the final 3220.
    """
    w = _require_nonempty(w)
    i = len(w) - 1
    while i > 0 and w[i - 1] >= w[i]:
        i -= 1
    return len(w) - i


STATISTICS = {
    "asc": asc,
    "des": des,
    "lrmax": lrmax,
    "lrmin": lrmin,
    "rlmax": rlmax,
    "rlmin": rlmin,
    "zeros": zeros,
    "fwd": fwd,
}


def stat(w: Sequence[int], which: str) -> int:
    """Evaluate a named statistic; see STATISTICS for the valid names."""
    try:
        f = STATISTICS[which]
    except (KeyError, TypeError):
        raise ValueError(f"unknown statistic {reprlib.repr(which)}") from None
    return f(w)


# ---------------------------------------------------------------------------
# patterns and containment


def normalize_pattern(w: Sequence[int]) -> Word:
    """Rank-compress a word so its values form an initial segment 0..k.

    Words that induce the same relative order describe the same pattern;
    for instance 01013 and 01012 normalize identically, and 275 becomes
    021.  Idempotent on already normalized patterns.  Letters that are
    not ints are refused, as by ``check_letters``.
    """
    w = check_letters(w)
    if not w:
        raise ValueError("empty pattern")
    ranks = {v: i for i, v in enumerate(sorted(set(w)))}
    return tuple(ranks[x] for x in w)


def is_pattern(w: Sequence[int]) -> bool:
    """True iff the distinct values of w are exactly 0..k for some k;
    letters that are not ints are refused, as by ``check_letters``."""
    values = set(check_letters(w))
    return bool(values) and sorted(values) == list(range(len(values)))


# What a failure of the deeper search rules out at a position, keyed by
# (later positions read its value as a window's lower end, as an upper
# end): values from the failed one up, values from it down, the failed
# value alone, or every later candidate.
_CUTS = {(True, False): ">=", (False, True): "<=", (True, True): "==",
         (False, False): "all"}


@lru_cache(maxsize=256)
def _plan(p: Word) -> tuple[tuple[int, bool, int, int, str], ...]:
    """Per position of the normalized pattern p: its letter, whether an
    earlier position has the same letter, the slots of the nearest
    earlier letters below and above it, and the part of the range that a
    failure rules out (``_CUTS``).  Slots -2 and -1 of the search's value
    list hold the sentinels -1 and inf.  A repeated letter sets no value,
    so nothing later reads its choice: a failure there rules out all.
    The letters met so far are kept sorted, so each position finds its
    neighbours by one binary search."""
    rows = []
    low_end, high_end = set(), set()    # slots read as a window's ends
    before = []                         # the distinct letters so far, sorted
    for v in p:
        i = bisect_left(before, v)
        seen = i < len(before) and before[i] == v
        lo = before[i - 1] if i else -2
        hi = before[i + seen] if i + seen < len(before) else -1
        if not seen:
            before.insert(i, v)
        rows.append((v, seen, lo, hi))
        if seen:                        # w[t] == val[v] reads both ends
            low_end.add(v)
            high_end.add(v)
        else:
            low_end.add(lo)
            high_end.add(hi)
    return tuple((v, seen, lo, hi,
                  "all" if seen else _CUTS[v in low_end, v in high_end])
                 for v, seen, lo, hi in rows)


def _checked_word(w: Sequence[int]) -> Word:
    """w as by ``check_letters``, with every letter nonnegative: the
    searches bound every letter below by -1."""
    w = check_letters(w)
    if w and min(w) < 0:
        raise ValueError("letters must be nonnegative")
    return w


def contains(w: Sequence[int], p: Sequence[int]) -> bool:
    """True iff the word w has an occurrence of the pattern p.

    Non-normalized patterns are normalized silently.  A backtracking
    search over pattern positions, driven by a loop, with remaining-length
    pruning; each position reads its bounds from a plan of the pattern,
    and a failure drops the later candidates it rules out.  A position
    may still scan the rest of the word again for every partial match:
    the 231 and 312 checks of a permutation of length n (patterns 120
    and 201) are quadratic in n on the identity and its reverse, about
    0.7 s at n = 8000 (2 cores, CPython 3.11).  Of the bijections only
    ``perm312_to_seq101`` still reaches this case, through its 312
    check: ``perm231_to_ncpartition`` decides 231 in one stack pass.

    start[i] is the next word index that pattern position i tries, and
    (low[i], high[i]) the open window its letter must fall in, set from
    the earlier letters when the search enters the position.  The value
    of a pattern letter is read only at positions after the one that sets
    it, so backtracking needs no reset.

    Coming back to position i means that the deeper search failed with
    the letter x at index t, and the plan's cut drops the later
    candidates that cannot do better.  Say a later index
    t' > t with value x' led to an occurrence, completed by later indices
    J.  Every index in J exceeds t, so J was open to the failed search.
    Substitute x for x' and reuse J: x passed every check up to position
    i; a later check that does not read the letter is unchanged; one that
    reads it as a window's lower end (x' < w[j]) still holds if x <= x',
    and one that reads it as an upper end still holds if x >= x'.  So
    that search would have succeeded, since by induction from the last
    position it dropped nothing that could succeed.  Hence, if later
    positions read the letter only as a lower end, no x' >= x can
    succeed; only as an upper end, no x' <= x; never, no x' at all; and
    in every other case x' = x cannot.  A repeated letter sets no value
    and so gives up at once: a later copy leaves the same values and
    fewer letters.

    >>> contains((0, 1, 2, 3, 1, 2, 3), (0, 0, 1))
    True
    >>> contains((0, 1, 2, 3, 2, 1), (0, 0, 1))
    False
    """
    p = normalize_pattern(p)
    w = _checked_word(w)
    if len(p) > len(w):
        return False
    plan = _plan(p)
    k = len(p)
    stop = len(w) - k + 1           # position i tries indices below stop + i
    val = [0] * (max(p) + 1) + [-1, inf]
    start = [0] * k
    low = [-1] * k
    high = [inf] * k
    tried = [set() for _ in range(k)]   # values ruled out one by one
    i = 0
    while i >= 0:
        v, seen, lo, hi, cut = plan[i]
        end = stop + i
        if seen:
            try:
                t = w.index(val[v], start[i], end)
            except ValueError:
                i -= 1
                continue
        else:
            a, b, skip = low[i], high[i], tried[i]
            for t in range(start[i], end):
                x = w[t]
                if a < x < b and x not in skip:
                    break
            else:
                i -= 1
                continue
            val[v] = x
        if i + 1 == k:
            return True
        # back here only if the rest failed
        start[i] = t + 1
        if cut == "all":
            start[i] = end
        elif cut == ">=":
            high[i] = x
        elif cut == "<=":
            low[i] = x
        else:
            skip.add(x)
        i += 1
        start[i] = t + 1
        _, _, lo, hi, _ = plan[i]
        low[i], high[i] = val[lo], val[hi]
        tried[i].clear()
    return False


def avoids(w: Sequence[int], p: Sequence[int]) -> bool:
    return not contains(w, p)


def count_occurrences(w: Sequence[int], p: Sequence[int]) -> int:
    """Number of index subsequences of w order-isomorphic to p.

    The subsequences 112, 113 and 223 are the occurrences of 001 here:

    >>> count_occurrences((0, 1, 2, 3, 1, 2, 3), (0, 0, 1))
    3

    One pass over w: a partial occurrence is a match of p[:j], kept as
    (j, the values of the pattern letters it has matched), and each maps
    to its number of ways.  Each letter of w may extend every partial
    occurrence by one position, so the count takes time proportional to
    the length of w times the number of distinct partial occurrences,
    not to the number of occurrences.
    """
    p = normalize_pattern(p)
    w = _checked_word(w)
    k = len(p)
    if k > len(w):
        return 0
    plan = _plan(p)     # the search's rows; a count cuts nothing
    ways = {(0, (None,) * (max(p) + 1) + (-1, inf)): 1}
    found = 0
    for x in w:
        for (j, val), n in list(ways.items()):
            v, seen, lo, hi, _ = plan[j]
            if seen:
                if val[v] != x:
                    continue
            elif val[lo] < x < val[hi]:
                val = val[:v] + (x,) + val[v + 1:]
            else:
                continue
            if j + 1 == k:
                found += n
                continue
            key = (j + 1, val)
            ways[key] = ways.get(key, 0) + n
    return found


# ---------------------------------------------------------------------------
# permutations


def is_permutation(entries: Sequence[int]) -> bool:
    """True iff entries is an arrangement of 1..n; letters that are not
    ints are refused, as by ``check_letters``."""
    return _permutation(check_letters(entries))


def _permutation(entries: Word) -> bool:
    n = len(entries)
    return n > 0 and sorted(entries) == list(range(1, n + 1))


def check_permutation(entries: Sequence[int]) -> tuple[int, ...]:
    return _refuse_unless(_permutation, entries, "a permutation of 1..n")


def check_perm_pattern(p: Sequence[int]) -> Word:
    """The normalized form of a permutation pattern, whose letters must
    be distinct; both the 0-based form (2,0,1) and the 1-based form
    (3,1,2) give the same classical pattern."""
    p = normalize_pattern(p)
    if len(set(p)) != len(p):
        raise ValueError("permutation patterns must have distinct letters")
    return p


def perm_contains(pi: Sequence[int], p: Sequence[int]) -> bool:
    """Classical permutation-pattern containment.

    The pattern must have distinct letters; it is normalized silently, as
    by ``check_perm_pattern``.
    """
    return contains(pi, check_perm_pattern(p))


# ---------------------------------------------------------------------------
# maximal letters


def maximal_positions(x: Sequence[int]) -> tuple[set[int], dict[int, int]]:
    """Maximal letters of an ascent sequence and their last repetitions.

    A letter is maximal when it is as large as the ascent bound allows at
    its position (the initial zero counts).  A maximal letter followed
    immediately by a run of equal letters is *repeated*; the run's final
    position is its last repetition, and a non-repeated maximal letter is
    its own last repetition.

    Returns ``(positions, last_rep)`` where positions is the 0-based set
    of maximal positions and last_rep maps each of them to the 0-based
    position of its last repetition.
    """
    x = check_ascent_sequence(x)
    n = len(x)
    positions: set[int] = set()
    a = 0
    for i in range(n):
        if i == 0 or x[i] == a + 1:
            positions.add(i)
        if i > 0 and x[i] > x[i - 1]:
            a += 1
    last_rep: dict[int, int] = {}
    for i in sorted(positions):
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        last_rep[i] = j
    return positions, last_rep
