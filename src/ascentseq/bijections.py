"""Executable bijections between avoider classes and classical objects.

Every map validates its input eagerly and raises ValueError on anything
outside its domain; silently accepting garbage would poison the
exhaustive round-trip suites built on top of these functions.  Inverses
are provided wherever the package needs to run a map in both directions.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (Word, check_ascent_sequence, check_letters,
                   check_permutation, check_restricted, check_rgf, contains,
                   is_ascent_sequence, is_restricted, perm_contains,
                   word_str)

SetPartition = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# set partitions and growth strings


def standardize_partition(blocks) -> SetPartition:
    """Bring a family of blocks to standard form and validate it.

    Standard form sorts each block ascending and orders blocks by their
    minima; the blocks must be disjoint, nonempty, and cover 1..n.
    """
    cleaned = sorted((tuple(sorted(b)) for b in map(check_letters, blocks)
                      if b),
                     key=lambda b: b[0])
    if not cleaned:
        raise ValueError("a set partition needs at least one block")
    elements = [x for b in cleaned for x in b]
    n = len(elements)
    if sorted(elements) != list(range(1, n + 1)):
        raise ValueError(f"blocks do not partition 1..{n}: {cleaned}")
    return tuple(cleaned)


def partition_str(sp: SetPartition) -> str:
    sep = "" if sp and max(max(b) for b in sp) <= 9 else ","
    return "-".join(sep.join(str(x) for x in b) for b in sp)


def rgf_encode(sp) -> Word:
    """Encode a set partition as its restricted growth string.

    Element i gets the 0-based index of its block in standard order, so
    124-36-5 encodes to 001021.
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

    Literal check over pairs of blocks; fast enough at desk scale.
    """
    sp = standardize_partition(sp)
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


# ---------------------------------------------------------------------------
# 101-avoiders <-> 312-avoiding permutations


def seq101_to_perm312(x) -> tuple[int, ...]:
    """Map a 101-avoiding ascent sequence to a 312-avoiding permutation.

    For each value 0, 1, 2, ... in turn, the positions holding that value
    receive the next block of unused integers in decreasing order from
    left to right; 01023200 maps to 45378621.  Ascents are preserved.
    """
    x = check_ascent_sequence(x)
    if contains(x, (1, 0, 1)):
        raise ValueError(f"input contains 101: {word_str(x)}")
    order = sorted(range(len(x)), key=lambda i: (x[i], -i))
    out = [0] * len(x)
    for rank, i in enumerate(order, 1):
        out[i] = rank
    return tuple(out)


def perm312_to_seq101(pi) -> Word:
    """Inverse of seq101_to_perm312.

    The letters pi(1), pi(1)-1, ..., 1 must occur in decreasing order in
    a 312-avoiding permutation; their places get value 0.  The leftmost
    letter above the used range starts the next value, and so on.
    """
    pi = check_permutation(pi)
    if perm_contains(pi, (2, 0, 1)):
        raise ValueError(f"input contains 312: {pi}")
    n = len(pi)
    out = [0] * n
    place = {v: i for i, v in enumerate(pi)}
    used_top = 0
    value = 0
    for top in pi:
        if top > used_top:
            for v in range(used_top + 1, top + 1):
                out[place[v]] = value
            used_top = top
            value += 1
    return check_ascent_sequence(out)


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
                raise ValueError(f"input contains 102: {word_str(x)}")
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
        # pair this block's 2 with the head rise up to base + 1
        j = first_of[base + 1]
        if t[j - 1] != 1:
            raise AssertionError("head position to rewrite is not a rise")
        t[j - 1] = 2
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
        raise ValueError(f"not a ternary word: {word_str(t)}")
    twos = [i for i, letter in enumerate(t) if letter == 2]
    if len(twos) % 2:
        raise ValueError(f"odd number of 2s: {word_str(t)}")
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
    return check_ascent_sequence(x)


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
        raise ValueError(f"input contains 021: {word_str(x)}")
    return out


# ---------------------------------------------------------------------------
# restricted sequences -> 231-avoiding permutations


def _split(y: Word) -> tuple[int, int, Word]:
    """(top, i, reduced R) for a restricted y, scanned, not validated:
    top is its rightmost maximal position, i the end of the run of equal
    letters there, and R = y[i+1:] less its first letter."""
    top = a = 0
    for j in range(1, len(y)):
        if y[j] == a + 1:
            top = j
        if y[j] > y[j - 1]:
            a += 1
    i = top
    while i + 1 < len(y) and y[i + 1] == y[top]:
        i += 1
    right = y[i + 1:]
    if right:
        right = tuple(letter - right[0] for letter in right)
    return top, i, right


def reduce_tail(x) -> tuple[Word, int, Word]:
    """Split x as L m R at the last repetition of its rightmost maximal
    letter and renormalize R by subtracting its first letter.

    Returns (L, m, reduced R); when R is nonempty its first letter equals
    m - 1 and the reduced tail is again a restricted ascent sequence.
    """
    x = check_restricted(x)
    _, i, right = _split(x)
    return x[:i], x[i], right


def _omega(x: Word) -> list[int]:
    """Emit the permutation of 1..len(x) for a restricted sequence x.

    Each piece y of x is written into the interval [lo, lo + len(y) - 1]
    of values, starting at output position off: the head value goes
    first, then the piece left of the split, then the renormalized piece
    right of it.  An explicit stack keeps long inputs off the call stack.
    """
    out = [0] * len(x)
    stack = [(x, 1, 0)]
    while stack:
        y, lo, off = stack.pop()
        if not y:
            continue
        top, i, right = _split(y)
        left = y[:i]
        ell = len(left)
        if i > top:     # the rightmost maximal letter is repeated
            out[off] = lo
            stack.append((left, lo + 1, off + 1))
        else:
            out[off] = lo + ell
            stack.append((left, lo, off + 1))
        stack.append((right, lo + ell + 1, off + 1 + ell))
    return out


def phi(x) -> tuple[int, ...]:
    """Bijection from restricted ascent sequences to 231-avoiding
    permutations turning ascents into descents; 011213232 maps to
    641325879.
    """
    x = check_restricted(x)
    return tuple(_omega(x))


def perm231_to_ncpartition(pi) -> SetPartition:
    """Split a 231-avoiding permutation into blocks after each ascent; the
    descending runs become the blocks of a non-crossing partition."""
    pi = check_permutation(pi)
    if perm_contains(pi, (1, 2, 0)):
        raise ValueError(f"input contains 231: {pi}")
    blocks = [[pi[0]]]
    for prev, cur in zip(pi, pi[1:]):
        if cur > prev:
            blocks.append([cur])
        else:
            blocks[-1].append(cur)
    return standardize_partition(blocks)


# ---------------------------------------------------------------------------
# modified ascent sequences


def modify(x) -> Word:
    """Ascent-by-ascent increment transform of an ascent sequence.

    Walking the ascents of x left to right, every letter strictly left of
    the ascent top whose current value is at least the top's value gains
    one; 010221212 becomes 010331212 and then 010441312.  The positions
    of the ascents never change along the way.
    """
    x = check_ascent_sequence(x)
    w = list(x)
    tops = [j + 1 for j in range(len(x) - 1) if x[j] < x[j + 1]]
    for j in tops:
        v = w[j]
        for i in range(j):
            if w[i] >= v:
                w[i] += 1
    return tuple(w)


def unmodify(w) -> Word:
    """Inverse of modify; rejects words outside its image.

    Undoes the increments ascent by ascent from right to left (the ascent
    positions survive the transform, so they can be read off w itself),
    then verifies the round trip.
    """
    w = check_letters(w)
    cur = list(w)
    tops = [j + 1 for j in range(len(w) - 1) if w[j] < w[j + 1]]
    for j in reversed(tops):
        v = cur[j]
        for i in range(j):
            if cur[i] > v:
                cur[i] -= 1
    x = tuple(cur)
    if not is_ascent_sequence(x) or modify(x) != w:
        raise ValueError(f"not a modified ascent sequence: {word_str(w)}")
    return x


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
