"""Executable bijections between avoider classes and classical objects.

Every map validates its input eagerly and raises ValueError on anything
outside its domain; silently accepting garbage would poison the
exhaustive round-trip suites built on top of these functions.  No map
re-checks the word it built: each construction guarantees its output,
and the exhaustive tests check it.  Inverses are provided wherever the
package needs to run a map in both directions.
"""

from __future__ import annotations

import reprlib
from bisect import bisect_left
from typing import NamedTuple

from .core import (Word, abridged, check_ascent_sequence, check_letters,
                   check_permutation, check_restricted, check_rgf, contains,
                   is_restricted, maximal_positions, perm_contains)

SetPartition = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# set partitions and growth strings


def standardize_partition(blocks) -> SetPartition:
    """Bring a family of blocks to standard form and validate it.

    Standard form sorts each block ascending and orders blocks by their
    minima; the blocks must be disjoint, nonempty, and cover 1..n.  The
    elements come back as ints, so a bool element reads as 0 or 1.
    """
    try:
        blocks = iter(blocks)
    except TypeError:
        raise ValueError("a set partition must be an iterable of blocks, "
                         f"not {type(blocks).__name__}") from None
    cleaned = sorted((tuple(sorted(map(int, b)))
                      for b in map(check_letters, blocks) if b),
                     key=lambda b: b[0])
    if not cleaned:
        raise ValueError("a set partition needs at least one block")
    elements = [x for b in cleaned for x in b]
    n = len(elements)
    if sorted(elements) != list(range(1, n + 1)):
        raise ValueError(f"blocks do not partition 1..{n}: "
                         f"{reprlib.repr(cleaned)}")
    return tuple(cleaned)


def partition_str(sp: SetPartition) -> str:
    """Display form of a set partition, standardized and validated by
    ``standardize_partition``: blocks joined by dashes, elements
    concatenated while all are digits."""
    sp = standardize_partition(sp)
    sep = "" if sum(map(len, sp)) <= 9 else ","
    return "-".join(sep.join(map(str, b)) for b in sp)


def rgf_encode(sp) -> Word:
    """Encode a set partition as its restricted growth string.

    Element i gets the 0-based index of its block in standard order:

    >>> rgf_encode([(1, 2, 4), (3, 6), (5,)])
    (0, 0, 1, 0, 2, 1)
    """
    sp = standardize_partition(sp)
    n = sum(len(b) for b in sp)
    letters = [0] * n
    for k, block in enumerate(sp):
        for x in block:
            letters[x - 1] = k
    return tuple(letters)


def rgf_decode(w) -> SetPartition:
    """Rebuild the set partition encoded by a restricted growth string."""
    return _blocks(check_rgf(w))


def _blocks(w: Word) -> SetPartition:
    """The set partition of a valid restricted growth string w: element
    i + 1 joins block w[i]."""
    blocks: list[list[int]] = [[] for _ in range(max(w) + 1)]
    for i, k in enumerate(w, 1):
        blocks[k].append(i)
    return tuple(map(tuple, blocks))


def is_noncrossing(sp) -> bool:
    """True iff no a < b < c < d has a, c in one block and b, d in another.

    One pass over 1..n with a stack of the blocks opened and not yet
    closed: an element of an open block must find its block on top, or
    the block above it crosses.  O(n log n), the sort of the blocks.
    """
    sp = standardize_partition(sp)
    open_blocks = []
    for x, k in enumerate(rgf_encode(sp), 1):
        if x != sp[k][0] and open_blocks.pop() != k:
            return False
        if x != sp[k][-1]:
            open_blocks.append(k)
    return True


# ---------------------------------------------------------------------------
# 101-avoiders <-> 312-avoiding permutations


def seq101_to_perm312(x) -> tuple[int, ...]:
    """Map a 101-avoiding ascent sequence to a 312-avoiding permutation.

    For each value 0, 1, 2, ... in turn, the positions holding that value
    receive the next block of unused integers in decreasing order from
    left to right.  Ascents are preserved.

    >>> seq101_to_perm312((0, 1, 0, 2, 3, 2, 0, 0))
    (4, 5, 3, 7, 8, 6, 2, 1)
    """
    x = check_ascent_sequence(x)
    if contains(x, (1, 0, 1)):
        raise ValueError(f"input contains 101: {abridged(x)}")
    order = sorted(range(len(x)), key=lambda i: (x[i], -i))
    out = [0] * len(x)
    for rank, i in enumerate(order, 1):
        out[i] = rank
    return tuple(out)


def perm312_to_seq101(pi) -> Word:
    """Inverse of seq101_to_perm312, read off the rank order it writes.

    List the positions of pi in order of value.  A 101-avoider's values
    first occur in order, 0, 1, 2, ..., and each value's positions took
    their ranks from right to left, so a new value starts exactly where
    the listed position rises.

    >>> perm312_to_seq101((4, 5, 3, 7, 8, 6, 2, 1))
    (0, 1, 0, 2, 3, 2, 0, 0)
    """
    pi = check_permutation(pi)
    if perm_contains(pi, (2, 0, 1)):
        raise ValueError(f"input contains 312: {abridged(pi)}")
    order = sorted(range(len(pi)), key=pi.__getitem__)
    out = [0] * len(pi)
    value = 0
    for r in range(1, len(pi)):
        value += order[r] > order[r - 1]
        out[order[r]] = value
    return tuple(out)


# ---------------------------------------------------------------------------
# 102-avoiders <-> ternary words with an even number of 2s


class LiftedBinaryDecomposition(NamedTuple):
    """Structural form of a 102-avoider: a weakly increasing head followed
    by blocks over {base, base+1} with strictly decreasing bases, the first
    base lying below the last head letter."""

    head: Word
    blocks: list[tuple[int, Word]]

    def reassemble(self) -> Word:
        out = list(self.head)
        for _, letters in self.blocks:
            out.extend(letters)
        return tuple(out)


def lifted_binary_decompose(x) -> LiftedBinaryDecomposition:
    x = check_ascent_sequence(x)
    k = 1
    while k < len(x) and x[k] >= x[k - 1]:
        k += 1
    # a tail letter below the current base starts a block, so the bases
    # decrease from below the head's last letter; x avoids 102 exactly
    # when no tail letter lies above its block's base + 1
    starts = []
    for t in range(k, len(x)):
        if starts:
            base = x[starts[-1]]
            if x[t] > base + 1:
                raise ValueError(f"input contains 102: {abridged(x)}")
            if x[t] >= base:
                continue
        starts.append(t)
    ends = starts[1:] + [len(x)]
    return LiftedBinaryDecomposition(
        x[:k], [(x[a], x[a:b]) for a, b in zip(starts, ends)])


def seq102_to_ternary(x) -> Word:
    """Encode a 102-avoiding ascent sequence of length n as a ternary word
    of length n-1 with an even number of 2s.

    Head letters encode as 0 (repeat) or 1 (rise); tail letters encode as
    2 (block start), 0 (base) or 1 (base+1).  Each block start at value v
    then rewrites the head's 1 at the leftmost occurrence of v+1 into a 2,
    pairing the 2s up.
    """
    dec = lifted_binary_decompose(x)
    head = dec.head
    t = []
    for i in range(1, len(head)):
        t.append(1 if head[i] > head[i - 1] else 0)
    first_of = {}
    for i, letter in enumerate(head):
        first_of.setdefault(letter, i)
    for base, letters in dec.blocks:
        t.append(2)
        for letter in letters[1:]:
            t.append(0 if letter == base else 1)
        # pair this block's 2 with the head rise up to base + 1: one not
        # yet paired, as the bases are distinct and below the head's last
        # letter
        t[first_of[base + 1] - 1] = 2
    return tuple(t)


def ternary_to_seq102(t) -> Word:
    """Inverse of seq102_to_ternary; rejects words with an odd number of 2s.

    With 2k twos in t, the (k+1)-st 2 starts the tail.  Head letters grow
    by one on 1s and 2s.  The q-th tail block start takes the value one
    below the head letter at the (k-q+1)-th 2, and the 0/1 letters after
    it stay at the base and base+1 respectively.
    """
    t = check_letters(t)
    if any(letter not in (0, 1, 2) for letter in t):
        raise ValueError(f"not a ternary word: {abridged(t)}")
    twos = [i for i, letter in enumerate(t) if letter == 2]
    if len(twos) % 2:
        raise ValueError(f"odd number of 2s: {abridged(t)}")
    k = len(twos) // 2
    head_end = twos[k] if k else len(t)
    x = [0]
    for i in range(head_end):
        x.append(x[-1] + (1 if t[i] else 0))
    pair = k - 1
    base = 0
    for i in range(head_end, len(t)):
        if t[i] == 2:
            base = x[twos[pair] + 1] - 1
            pair -= 1
            x.append(base)
        else:
            x.append(base + t[i])
    return tuple(x)


# ---------------------------------------------------------------------------
# restricted sequences <-> 021-avoiders


def _swap_between_lrmaxima(w) -> Word:
    """Swap the letters m-1 and 0 inside every stretch between successive
    left-to-right maxima, m being the maximum on the left.  Involutive."""
    out = []
    m = -1
    for letter in w:
        if letter > m:
            m = letter
        elif m >= 1:
            if letter == m - 1:
                letter = 0
            elif letter == 0:
                letter = m - 1
        out.append(letter)
    return tuple(out)


def restricted_to_021(x) -> Word:
    """Ascent-preserving bijection from restricted ascent sequences to
    021-avoiders: between successive left-to-right maxima the only letters
    are m-1 and m, and m-1 is traded for 0."""
    x = check_restricted(x)
    return _swap_between_lrmaxima(x)


def seq021_to_restricted(x) -> Word:
    """Inverse of restricted_to_021 (the same letter swap)."""
    x = check_ascent_sequence(x)
    out = _swap_between_lrmaxima(x)
    if not is_restricted(out):
        raise ValueError(f"input contains 021: {abridged(x)}")
    return out


# ---------------------------------------------------------------------------
# restricted sequences -> 231-avoiding permutations


def reduce_tail(x) -> tuple[Word, int, Word]:
    """Split x as L m R at the last repetition of its rightmost maximal
    letter and renormalize R by subtracting its first letter.

    Returns (L, m, reduced R); when R is nonempty its first letter equals
    m - 1 and the reduced tail is again a restricted ascent sequence.
    """
    x = check_restricted(x)
    positions, last_rep = maximal_positions(x)
    i = last_rep[max(positions)]
    right = x[i + 1:]
    return x[:i], x[i], tuple(letter - right[0] for letter in right)


def _omega(x: Word) -> list[int]:
    """Emit the permutation of 1..len(x) for a restricted sequence x.

    Each piece x[s:e] less x[s] is written into the values lo, lo + 1, ...
    starting at output position off: the head value goes first, then the
    piece left of the split, then the one right of it.  A piece splits
    like reduce_tail, at the end i of the run of equal letters from its
    rightmost maximal position top.  With A = asc_to, A[k] the ascents in
    x[0..k], top is the rightmost k in (s, e) with x[k] - A[k-1] ==
    x[s] - A[s] + 1 (else s), found by bisecting the positions listed
    under that key, so pieces are index pairs and nothing is sliced or
    rescanned: O(n log n).  An explicit stack keeps long inputs off the
    call stack.
    """
    n = len(x)
    asc_to = [0] * n
    run_end = list(range(n))
    where: dict[int, list[int]] = {}
    for k in range(1, n):
        where.setdefault(x[k] - asc_to[k - 1], []).append(k)
        asc_to[k] = asc_to[k - 1] + (x[k] > x[k - 1])
    for k in range(n - 2, -1, -1):
        if x[k] == x[k + 1]:
            run_end[k] = run_end[k + 1]
    out = [0] * n
    stack = [(0, n, 1, 0)]
    while stack:
        s, e, lo, off = stack.pop()
        if s == e:
            continue
        ks = where.get(x[s] - asc_to[s] + 1, ())
        j = bisect_left(ks, e) - 1
        top = ks[j] if j >= 0 and ks[j] > s else s
        i = min(run_end[top], e - 1)
        ell = i - s
        if i > top:     # the rightmost maximal letter is repeated
            out[off] = lo
            stack.append((s, i, lo + 1, off + 1))
        else:
            out[off] = lo + ell
            stack.append((s, i, lo, off + 1))
        stack.append((i + 1, e, lo + ell + 1, off + 1 + ell))
    return out


def phi(x) -> tuple[int, ...]:
    """Bijection from restricted ascent sequences to 231-avoiding
    permutations turning ascents into descents.  O(n log n) (see
    _omega): 0.09 s on 130000 zeros.

    >>> phi((0, 1, 1, 2, 1, 3, 2, 3, 2))
    (6, 4, 1, 3, 2, 5, 8, 7, 9)
    """
    x = check_restricted(x)
    return tuple(_omega(x))


def perm231_to_ncpartition(pi) -> SetPartition:
    """Split a 231-avoiding permutation into blocks after each ascent; the
    descending runs become the blocks of a non-crossing partition.

    A permutation avoids 231 exactly when one stack sorts it (Knuth,
    TAOCP vol. 1, 2.2.1): pop every smaller letter before pushing the
    next, and a letter below one already popped is the 1 of a 231.  The
    same pass splits the runs, so the map is linear.
    """
    pi = check_permutation(pi)
    blocks, stack, popped = [], [], 0
    for v in pi:
        if v < popped:
            raise ValueError(f"input contains 231: {abridged(pi)}")
        if stack and stack[-1] > v:
            blocks[-1].append(v)
        else:
            blocks.append([v])
            while stack and stack[-1] < v:
                popped = stack.pop()
        stack.append(v)
    return standardize_partition(blocks)


# ---------------------------------------------------------------------------
# modified ascent sequences


def modify(x) -> Word:
    """Ascent-by-ascent increment transform of an ascent sequence.

    Walking the ascents of x left to right, every letter strictly left of
    the ascent top whose current value is at least the top's value gains
    one; 010221212 becomes 010331212 and then 010441312.  The positions
    of the ascents never change along the way.

    So a top of value v makes a new value v below every earlier letter
    at least v, it never moves a later letter, and each prefix keeps the
    values 0..m.  The letters fall into classes of equal value kept in
    value order: x[0] and each top insert a new class at rank v, every
    other letter joins the class at rank x[i], and each letter ends at
    its class's final rank.  O(n) steps plus one list.insert per ascent,
    whose pointer moves in C make the worst case quadratic: 0.3 s at
    50000 ascents (2 cores, CPython 3.11).

    >>> modify((0, 1, 0, 2, 2, 1, 2, 1, 2))
    (0, 1, 0, 4, 4, 1, 3, 1, 2)
    """
    x = check_ascent_sequence(x)
    order: list[int] = []       # classes in value order, named by creator
    cls = []
    for j, v in enumerate(x):
        if j and v <= x[j - 1]:
            cls.append(order[v])
        else:
            order.insert(v, j)
            cls.append(j)
    rank = dict(zip(order, range(len(order))))
    return tuple(rank[c] for c in cls)


def unmodify(w) -> Word:
    """Inverse of modify; rejects words outside its image.

    x[i] is the rank of w[i] among the distinct values of w[:i + 1],
    read off one sorted list of the values seen so far.  w is a modified
    ascent sequence exactly when (a) w[i] is a new value exactly when
    i = 0 or x[i] > x[i - 1], and (b) the values of w are 0..m.  That is
    modify's own rule: x[0] and each ascent top make a new class at rank
    x[i] among the classes so far, and every other letter joins the
    class at rank x[i].  Under (a) the classes are w's values in order,
    and under (b) each class ends at the rank that is its value; x is an
    ascent sequence, as each new value is an ascent, which bounds x[i]
    by asc(x[:i]) + 1.  Huge or negative letters are only compared, and
    w is refused at the first letter that breaks (a).  O(n log n)
    comparisons plus one list.insert per new value, as in modify.
    """
    w = check_letters(w)
    seen: list[int] = []        # the distinct values so far, sorted
    x: list[int] = []
    for v in w:
        r = bisect_left(seen, v)
        new = r == len(seen) or seen[r] != v
        if new != (not x or r > x[-1]):
            break
        if new:
            seen.insert(r, v)
        x.append(r)
    else:
        if w and seen == list(range(len(seen))):
            return tuple(x)
    raise ValueError(f"not a modified ascent sequence: {abridged(w)}")


BIJECTIONS = {
    "seq101-to-perm312": seq101_to_perm312,
    "perm312-to-seq101": perm312_to_seq101,
    "seq102-to-ternary": seq102_to_ternary,
    "ternary-to-seq102": ternary_to_seq102,
    "restricted-to-021": restricted_to_021,
    "021-to-restricted": seq021_to_restricted,
    "phi": phi,
    "perm231-to-ncpartition": perm231_to_ncpartition,
    "rgf-encode": rgf_encode,
    "rgf-decode": rgf_decode,
    "modify": modify,
    "unmodify": unmodify,
}
