"""Worked examples and exhaustive round trips for every map."""

import json
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascentseq.bijections import (BIJECTIONS, is_noncrossing,
                                  lifted_binary_decompose, modify,
                                  partition_str, perm231_to_ncpartition,
                                  perm312_to_seq101, phi, reduce_tail,
                                  restricted_to_021, rgf_decode, rgf_encode,
                                  seq021_to_restricted, seq101_to_perm312,
                                  seq102_to_ternary, standardize_partition,
                                  ternary_to_seq102, unmodify)
from ascentseq.cli import EXIT_OK, EXIT_USAGE, main
from ascentseq.core import (abridged, as_word, asc, check_ascent_sequence,
                            check_letters, check_permutation, check_rgf,
                            contains, des, is_ascent_sequence, is_restricted,
                            perm_contains, word_str)
from ascentseq.enumeration import (avoiders, generate_ascent_sequences,
                                   generate_restricted,
                                   generate_set_partitions, perm_avoiders)

from conftest import naive_is_noncrossing, pat

TERNARY_EXAMPLE = as_word("2100121022210020122")
SEQ102_EXAMPLE = (0, 1, 2, 2, 2, 3, 4, 5, 5, 6, 7, 6, 7, 6, 6, 5, 5, 6, 3, 0)


class TestRgf:
    def test_examples(self):
        assert rgf_encode([(1, 2, 4), (3, 6), (5,)]) == as_word("001021")
        assert rgf_decode(as_word("001021")) == ((1, 2, 4), (3, 6), (5,))
        assert rgf_encode([(1,)]) == (0,)

    def test_round_trip_all_partitions(self):
        for n in range(1, 8):
            for sp in generate_set_partitions(n):
                assert rgf_decode(rgf_encode(sp)) == sp

    def test_decode_rejects_non_rgf(self):
        with pytest.raises(ValueError):
            rgf_decode(as_word("01013"))

    def test_standardize(self):
        assert standardize_partition([[5], [3, 6], [4, 2, 1]]) == \
            ((1, 2, 4), (3, 6), (5,))
        with pytest.raises(ValueError):
            standardize_partition([[1], [1, 2]])
        with pytest.raises(ValueError):
            standardize_partition([[2, 3]])

    def test_partition_str(self):
        assert partition_str(((1, 4, 6), (2, 3), (5,), (7, 8), (9,))) == \
            "146-23-5-78-9"
        assert partition_str(((1, 10),) + tuple((v,) for v in range(2, 10))) \
            == "1,10-2-3-4-5-6-7-8-9"

    def test_bool_elements_are_ints(self):
        sp = standardize_partition([[True, 2]])
        assert sp == ((1, 2),) and type(sp[0][0]) is int
        assert partition_str(sp) == "12"


class TestNoncrossing:
    def test_examples(self):
        assert is_noncrossing(((1, 4, 6), (2, 3), (5,), (7, 8), (9,)))
        assert not is_noncrossing(((1, 3), (2, 4)))

    def test_catalan_many_at_4(self):
        ncs = [sp for sp in generate_set_partitions(4) if is_noncrossing(sp)]
        assert len(ncs) == 14

    def test_more_crossings(self):
        assert not is_noncrossing(((1, 3, 5), (2, 4)))
        assert not is_noncrossing(((1, 5), (2, 3, 4, 6)))
        assert is_noncrossing(((1, 6), (2, 3), (4, 5)))

    def test_stack_pass_against_the_literal_check(self):
        for n in range(1, 10):
            for sp in generate_set_partitions(n):
                assert is_noncrossing(sp) == naive_is_noncrossing(sp), sp


class Test101To312:
    def test_worked_example(self):
        assert seq101_to_perm312(as_word("01023200")) == (4, 5, 3, 7, 8, 6, 2, 1)
        assert perm312_to_seq101((4, 5, 3, 7, 8, 6, 2, 1)) == as_word("01023200")

    def test_degenerate(self):
        assert seq101_to_perm312((0,)) == (1,)
        assert seq101_to_perm312((0, 0, 0)) == (3, 2, 1)
        assert perm312_to_seq101((1,)) == (0,)
        assert perm312_to_seq101((3, 2, 1)) == (0, 0, 0)

    def test_bijection_with_statistics(self):
        for n in range(1, 8):
            image = set()
            for x in avoiders(pat("101"), n):
                p = seq101_to_perm312(x)
                assert asc(x) == asc(p)
                assert perm312_to_seq101(p) == x
                image.add(p)
            assert image == set(perm_avoiders(pat("201"), n))

    def test_identity_maps_to_the_staircase(self):
        # one left-to-right pass: each entry above the used range starts
        # the next value
        identity = tuple(range(1, 2001))
        x = perm312_to_seq101(identity)
        assert x == tuple(range(2000))
        assert seq101_to_perm312(x) == identity

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            seq101_to_perm312(as_word("0101"))
        with pytest.raises(ValueError):
            perm312_to_seq101((3, 1, 2))
        with pytest.raises(ValueError):
            perm312_to_seq101((0, 1))


class Test102Ternary:
    def test_worked_pair(self):
        assert seq102_to_ternary(SEQ102_EXAMPLE) == TERNARY_EXAMPLE
        assert ternary_to_seq102(TERNARY_EXAMPLE) == SEQ102_EXAMPLE

    def test_degenerate(self):
        assert seq102_to_ternary((0,)) == ()
        assert ternary_to_seq102(()) == (0,)

    def test_round_trip_and_image(self):
        for n in range(1, 8):
            words = list(avoiders(pat("102"), n))
            image = set()
            for x in words:
                t = seq102_to_ternary(x)
                assert len(t) == n - 1
                assert t.count(2) % 2 == 0
                assert ternary_to_seq102(t) == x
                image.add(t)
            assert len(image) == len(words)
            expected = {t for t in product((0, 1, 2), repeat=n - 1)
                        if t.count(2) % 2 == 0}
            assert image == expected

    def test_decompose_round_trip(self):
        for n in range(1, 10):
            for x in avoiders(pat("102"), n):
                dec = lifted_binary_decompose(x)
                assert dec.reassemble() == x
                bases = [b for b, _ in dec.blocks]
                assert bases == sorted(bases, reverse=True)
                if bases:
                    assert bases[0] < dec.head[-1]

    def test_every_even_ternary_word_decodes_to_an_ascent_sequence(self):
        # ternary_to_seq102 returns its word unchecked
        for n in range(11):
            for t in product((0, 1, 2), repeat=n):
                if t.count(2) % 2 == 0:
                    x = ternary_to_seq102(t)
                    assert is_ascent_sequence(x) and len(x) == n + 1, t

    def test_every_102_avoider_encodes(self):
        # seq102_to_ternary pairs each block's 2 with a head rise
        # unchecked; every 102-avoider has that rise
        for n in range(1, 11):
            for x in avoiders(pat("102"), n):
                assert ternary_to_seq102(seq102_to_ternary(x)) == x

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            seq102_to_ternary(as_word("0102"))
        with pytest.raises(ValueError):
            ternary_to_seq102((2,))
        with pytest.raises(ValueError):
            ternary_to_seq102((3, 0))


class TestRestricted021:
    def test_displayed_pair(self):
        top = (0, 1, 2, 3, 2, 3, 4, 4, 3, 4, 6, 5)
        bottom = (0, 1, 2, 3, 0, 3, 4, 4, 0, 4, 6, 0)
        assert restricted_to_021(top) == bottom
        assert seq021_to_restricted(bottom) == top

    def test_fixed_points(self):
        assert restricted_to_021((0,)) == (0,)
        assert restricted_to_021((0, 1, 2, 3)) == (0, 1, 2, 3)

    def test_bijection_preserves_asc(self):
        for n in range(1, 9):
            image = set()
            for x in generate_restricted(n):
                y = restricted_to_021(x)
                assert asc(x) == asc(y)
                assert seq021_to_restricted(y) == x
                image.add(y)
            assert image == set(avoiders(pat("021"), n))

    def test_cardinality_and_asc_histogram_at_10(self):
        from collections import Counter
        restricted_hist = Counter(asc(x) for x in generate_restricted(10))
        avoider_hist = Counter(asc(x) for x in avoiders(pat("021"), 10))
        assert restricted_hist == avoider_hist
        assert sum(restricted_hist.values()) == 16796

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            restricted_to_021((0, 1, 2, 0))
        with pytest.raises(ValueError):
            seq021_to_restricted((0, 1, 1, 2, 1))   # 0, 2, 1 is a 021
        with pytest.raises(ValueError):
            seq021_to_restricted((0, 2, 1))         # not an ascent sequence


@pytest.mark.parametrize("convert, p", [
    (lifted_binary_decompose, (1, 0, 2)),
    (seq021_to_restricted, (0, 2, 1)),
])
def test_structure_decides_the_domain(convert, p):
    # each map refuses its input by its own structure, not by the
    # containment search: exactly the ascent sequences that contain p
    for n in range(1, 10):
        for x in generate_ascent_sequences(n):
            try:
                convert(x)
            except ValueError as e:
                assert contains(x, p), (x, e)
                assert str(e).startswith("input contains"), (x, e)
            else:
                assert not contains(x, p), x


class TestReduceTail:
    def test_worked_example(self):
        left, mid, right = reduce_tail(as_word("00101332232434665"))
        assert left == as_word("001013")
        assert mid == 3
        assert right == as_word("0010212443")

    def test_trivial_split(self):
        assert reduce_tail((0, 1, 2, 3)) == ((0, 1, 2), 3, ())

    def test_postcondition_exhaustive(self):
        for n in range(1, 10):
            for x in generate_restricted(n):
                left, mid, right = reduce_tail(x)
                assert len(left) + 1 + len(right) == n
                if right:
                    assert right[0] == 0
                    assert is_restricted(right)
                if left:
                    assert is_restricted(left)


class TestPhi:
    def test_worked_example(self):
        assert phi(as_word("011213232")) == (6, 4, 1, 3, 2, 5, 8, 7, 9)
        assert phi((0,)) == (1,)
        assert phi((0, 0)) == (1, 2)
        assert phi((0, 1)) == (2, 1)

    def test_bijection_asc_to_des(self):
        for n in range(1, 9):
            image = set()
            for x in generate_restricted(n):
                p = phi(x)
                assert asc(x) == des(p)
                image.add(p)
            assert image == set(perm_avoiders(pat("120"), n))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            phi((0, 1, 2, 0))

    def test_long_input(self):
        # phi is a bijection onto the 231-avoiders taking asc to des, and
        # 0^n and the identity are the only words on either side with
        # none, so the identity must come back; the walk uses no call
        # stack depth proportional to the input
        n = 2000
        assert phi((0,) * n) == tuple(range(1, n + 1))
        assert des(phi((0,) * (n - 1) + (1,))) == 1


class TestSplitIntoBlocks:
    def test_worked_example(self):
        assert perm231_to_ncpartition((6, 4, 1, 3, 2, 5, 8, 7, 9)) == \
            ((1, 4, 6), (2, 3), (5,), (7, 8), (9,))
        assert perm231_to_ncpartition((1,)) == ((1,),)

    def test_bijection_onto_noncrossing(self):
        for n in range(1, 8):
            image = set()
            for p in perm_avoiders(pat("120"), n):
                sp = perm231_to_ncpartition(p)
                assert is_noncrossing(sp)
                image.add(sp)
            expected = {sp for sp in generate_set_partitions(n)
                        if is_noncrossing(sp)}
            assert image == expected

    def test_domain_error(self):
        with pytest.raises(ValueError):
            perm231_to_ncpartition((2, 3, 1))


class TestModify:
    def test_worked_trace(self):
        assert modify(as_word("010221212")) == as_word("010441312")
        assert modify(as_word("0123")) == as_word("0123")
        assert unmodify(as_word("010441312")) == as_word("010221212")

    def test_round_trip_and_asc(self):
        for n in range(1, 9):
            for x in generate_ascent_sequences(n):
                w = modify(x)
                assert asc(w) == asc(x)
                # ascent positions survive, not just their number
                assert [a < b for a, b in zip(x, x[1:])] == \
                    [a < b for a, b in zip(w, w[1:])]
                assert unmodify(w) == x

    def test_outside_image_rejected(self):
        with pytest.raises(ValueError):
            unmodify((0, 2))
        with pytest.raises(ValueError):
            unmodify((1, 0))


class TestComposedPipeline:
    def test_worked_endpoint(self):
        x = seq021_to_restricted((0, 1, 1, 2, 0, 3, 0, 3, 0))
        assert x == as_word("011213232")
        assert perm231_to_ncpartition(phi(x)) == \
            ((1, 4, 6), (2, 3), (5,), (7, 8), (9,))

    def test_image_is_all_noncrossing_partitions(self):
        for n in range(1, 8):
            image = {perm231_to_ncpartition(phi(seq021_to_restricted(x)))
                     for x in avoiders(pat("021"), n)}
            expected = {sp for sp in generate_set_partitions(n)
                        if is_noncrossing(sp)}
            assert image == expected


# ---------------------------------------------------------------------------
# round trips on random inputs up to length 300 (2000 against the
# quadratic maps below)
#
# The strategies build their inputs from the definitions alone, letter by
# letter, so they share no code with the maps or the enumerators.  Each
# draws a length n and a list of n - 1 choices, and reads letter i + 1 off
# choice i modulo the number of letters allowed there, so a failing input
# shrinks to a short one.


@st.composite
def choices(draw, max_len=300):
    n = draw(st.integers(1, max_len))
    return draw(st.lists(st.integers(0, 10**6), min_size=n - 1,
                         max_size=n - 1))


@st.composite
def ascent_sequences(draw, restricted=False, max_len=300):
    x, a, m = [0], 0, 0
    for ch in draw(choices(max_len)):
        lo = max(0, m - 1) if restricted else 0
        c = lo + ch % (a + 2 - lo)
        a += c > x[-1]
        m = max(m, c)
        x.append(c)
    return tuple(x)


@st.composite
def avoiders_of_101(draw):
    # b a b with a < b: once b is followed by something smaller it is
    # dead; the fresh letter a + 1 is never dead, so a choice exists
    x, a, seen, dead = [0], 0, {0}, set()
    for ch in draw(choices()):
        allowed = [v for v in range(a + 2) if v not in dead]
        c = allowed[ch % len(allowed)]
        dead.update(v for v in seen if v > c)
        seen.add(c)
        a += c > x[-1]
        x.append(c)
    return tuple(x)


@st.composite
def even_twos_ternary(draw):
    n = draw(st.integers(1, 300))
    t = draw(st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1))
    if t.count(2) % 2:
        t[max(i for i, v in enumerate(t) if v == 2)] = draw(st.integers(0, 1))
    return tuple(t)


@st.composite
def set_partitions(draw):
    labels, m = [0], 0
    for ch in draw(choices()):
        b = ch % (m + 2)
        m = max(m, b)
        labels.append(b)
    blocks = [[] for _ in range(m + 1)]
    for i, b in enumerate(labels):
        blocks[b].append(i + 1)
    return tuple(tuple(b) for b in blocks)


ROUND_TRIPS = {
    "seq101_perm312": (avoiders_of_101(), seq101_to_perm312,
                       perm312_to_seq101),
    "seq102_ternary": (even_twos_ternary(), ternary_to_seq102,
                       seq102_to_ternary),
    "restricted_021": (ascent_sequences(restricted=True), restricted_to_021,
                       seq021_to_restricted),
    "modify_unmodify": (ascent_sequences(), modify, unmodify),
    "rgf": (set_partitions(), rgf_encode, rgf_decode),
}


class TestRandomRoundTrips:
    @pytest.mark.parametrize("pair", sorted(ROUND_TRIPS))
    def test_inverse_undoes_the_map(self, pair):
        inputs, forward, inverse = ROUND_TRIPS[pair]

        @settings(max_examples=20, deadline=None)
        @given(inputs)
        def round_trip(x):
            assert inverse(forward(x)) == x

        round_trip()

    @settings(max_examples=20, deadline=None)
    @given(ascent_sequences(restricted=True))
    def test_phi_then_split(self, x):
        # phi has no inverse here: its image is a permutation with des =
        # asc(x), and the split gives back its descending runs as blocks
        y = phi(x)
        assert sorted(y) == list(range(1, len(x) + 1))
        assert des(y) == asc(x)
        runs = [[y[0]]]
        for prev, cur in zip(y, y[1:]):
            if cur > prev:
                runs.append([cur])
            else:
                runs[-1].append(cur)
        assert set(perm231_to_ncpartition(y)) == {tuple(sorted(r))
                                                  for r in runs}


# ---------------------------------------------------------------------------
# the quadratic maps that phi, modify and unmodify replaced, copied
# verbatim (renamed) as oracles for the index pieces and value classes


def quadratic_split(y):
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


def quadratic_omega(x):
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
        top, i, right = quadratic_split(y)
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


def quadratic_modify(x):
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


def quadratic_unmodify(w):
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
    if not is_ascent_sequence(x) or quadratic_modify(x) != w:
        raise ValueError(f"not a modified ascent sequence: {word_str(w)}")
    return x


def outcome(f, w):
    try:
        return f(w)
    except ValueError:
        return ValueError


# the 312 inverse that the rank decode replaced, copied verbatim
# (renamed) as an oracle


def placed_perm312_to_seq101(pi):
    """Inverse of seq101_to_perm312.

    The letters pi(1), pi(1)-1, ..., 1 must occur in decreasing order in
    a 312-avoiding permutation; their places get value 0.  The leftmost
    letter above the used range starts the next value, and so on.
    """
    pi = check_permutation(pi)
    if perm_contains(pi, (2, 0, 1)):
        raise ValueError(f"input contains 312: {abridged(pi)}")
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


def answer(f, w):
    """f(w), or the message of its refusal."""
    try:
        return f(w)
    except ValueError as e:
        return f"ValueError: {e}"


class TestAgainstQuadraticMaps:
    def test_every_short_sequence(self):
        for n in range(1, 10):
            for x in generate_ascent_sequences(n):
                w = modify(x)
                assert w == quadratic_modify(x), x
                assert unmodify(w) == quadratic_unmodify(w) == x
                if is_restricted(x):
                    assert phi(x) == tuple(quadratic_omega(x)), x

    def test_unmodify_on_every_small_word(self):
        for n in range(8):
            for w in product(range(5), repeat=n):
                assert outcome(unmodify, w) == \
                    outcome(quadratic_unmodify, w), w

    @pytest.mark.parametrize("w", [(0, 10**18), (0, -1)])
    def test_unmodify_of_far_letters(self, w):
        # distinct values are ranked, never used as indices
        assert outcome(quadratic_unmodify, w) is ValueError
        with pytest.raises(ValueError, match="not a modified"):
            unmodify(w)

    @settings(max_examples=30, deadline=None)
    @given(ascent_sequences(max_len=2000))
    def test_long_random_modify(self, x):
        w = modify(x)
        assert w == quadratic_modify(x)
        assert unmodify(w) == quadratic_unmodify(w) == x

    @settings(max_examples=30, deadline=None)
    @given(ascent_sequences(restricted=True, max_len=2000))
    def test_long_random_phi(self, x):
        assert phi(x) == tuple(quadratic_omega(x))

    def test_312_rank_decode_against_the_place_walk(self):
        for n in range(1, 9):
            for pi in permutations(range(1, n + 1)):
                assert answer(perm312_to_seq101, pi) == \
                    answer(placed_perm312_to_seq101, pi), pi
        for pi in [(), (0, 1), (1, 1), (2, 3), (1, 2.0), tuple(range(1, 60))]:
            assert answer(perm312_to_seq101, pi) == \
                answer(placed_perm312_to_seq101, pi), pi

    def test_231_stack_check_against_the_search(self):
        for n in range(1, 9):
            for pi in permutations(range(1, n + 1)):
                refused = outcome(perm231_to_ncpartition, pi) is ValueError
                assert refused == perm_contains(pi, (1, 2, 0)), pi


N = 10**5
CLI_DIGITS = 130000     # about the 128 KiB limit on one argument


class TestLongInputs:
    """Inputs on which the quadratic maps ran for seconds to minutes."""

    @pytest.mark.parametrize("f, x, expected", [
        (phi, (0,) * N, tuple(range(1, N + 1))),
        (modify, (0, 1) * (N // 2),
         tuple(v for k in range(N // 2, 0, -1) for v in (0, k))),
        (unmodify, (0,) + (1, 0) * (N // 2), ValueError),
        (perm231_to_ncpartition, tuple(range(1, N + 1)),
         tuple((v,) for v in range(1, N + 1))),
    ], ids=["phi", "modify", "unmodify", "perm231_to_ncpartition"])
    def test_baseline_inputs(self, f, x, expected):
        t0 = time.perf_counter()
        assert outcome(f, x) == expected
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("f, x", [
        (perm231_to_ncpartition, (2, 3, 1) + tuple(range(4, N + 1))),
        (unmodify, (0,) + (1, 0) * 65000),
        (perm312_to_seq101, (3, 1, 2) + tuple(range(4, N + 1))),
        (seq101_to_perm312, (0, 1, 0) * (N // 3)),
        (ternary_to_seq102, (2,) + (0,) * N),
        (phi, (0, 1, 2, 0) + (0,) * N),
        (check_ascent_sequence, (1,) * N),
        (check_rgf, (0, 2) * (N // 2)),
        (check_permutation, (1,) * N),
        (standardize_partition, [(v,) for v in range(2, N)]),
    ], ids=["perm231_to_ncpartition", "unmodify", "perm312_to_seq101",
            "seq101_to_perm312", "ternary_to_seq102", "phi",
            "check_ascent_sequence", "check_rgf", "check_permutation",
            "standardize_partition"])
    def test_refusal_of_a_long_input_is_short(self, f, x):
        # the message shows the input abridged: the whole input made
        # messages of 688915 and 130033 characters for the first two
        with pytest.raises(ValueError) as info:
            f(x)
        assert len(str(info.value)) < 300

    @pytest.mark.parametrize("name, text, code", [
        ("phi", "0" * CLI_DIGITS, EXIT_OK),
        ("modify", "01" * (CLI_DIGITS // 2), EXIT_OK),
        ("unmodify", "0" + "10" * (CLI_DIGITS // 2), EXIT_USAGE),
    ], ids=["phi", "modify", "unmodify"])
    def test_cli_at_the_argument_limit(self, capsys, name, text, code):
        t0 = time.perf_counter()
        assert main(["bijection", "--name", name, "--input", text,
                     "--format", "jsonl"]) == code
        assert time.perf_counter() - t0 < 5.0
        out, err = capsys.readouterr()
        assert len(err) < 1024
        if code == EXIT_OK:
            row = json.loads(out.splitlines()[1])
            assert len(row["output"].split(",")) == len(text)


@pytest.mark.parametrize("bad", ["01", (0, None), ((1,), "a"), (0, 1.5)])
@pytest.mark.parametrize("name", sorted(BIJECTIONS))
def test_letters_that_are_not_ints_are_refused(name, bad):
    # refused before any comparison of letters could raise TypeError
    with pytest.raises(ValueError):
        BIJECTIONS[name](bad)
