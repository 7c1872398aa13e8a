"""Word semantics: membership, statistics, containment, maximal letters."""

import random
import time
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascentseq.core import (STATISTICS, _plan, as_word, asc,
                            check_ascent_sequence, check_letters,
                            check_permutation, check_restricted, check_rgf,
                            contains, count_occurrences, des, fwd,
                            is_ascent_sequence, is_pattern, is_permutation,
                            is_restricted, is_rgf, lrmax, lrmin,
                            maximal_positions, normalize_pattern,
                            perm_contains, rlmax, rlmin, stat, word_str,
                            zeros)
from ascentseq.enumeration import avoiders, count_avoiders
from ascentseq.oracles import all_patterns, wilf_classify

from conftest import (naive_ascent_sequences, naive_contains,
                      naive_count_occurrences, pat)


class TestMembership:
    def test_examples(self):
        assert is_ascent_sequence(as_word("0101312052"))
        assert not is_ascent_sequence(as_word("0012143"))  # 4 > asc(00121)+1
        assert is_ascent_sequence((0,))
        assert not is_ascent_sequence(())
        assert not is_ascent_sequence((1, 0))

    def test_against_naive_filter(self, small_ascent_sequences):
        for n in range(1, 6):
            mine = [w for w in product(range(n), repeat=n)
                    if is_ascent_sequence(w)]
            assert mine == small_ascent_sequences[n]

    def test_restricted(self):
        assert is_restricted(as_word("010221212"))
        assert is_restricted((0, 1, 2, 3, 2, 3, 4, 4, 3, 4, 6, 5))
        assert is_restricted((0, 1, 0))
        # a letter two below the running maximum breaks it
        assert not is_restricted((0, 1, 2, 0))

    @pytest.mark.parametrize("check, w, message", [
        (check_ascent_sequence, (0, 2, 1), "not an ascent sequence: 021"),
        (check_ascent_sequence, (1,) * 50,
         "not an ascent sequence: " + "1" * 40 + "... (50 letters)"),
        (check_restricted, (0, 1, 0, 2, 0),
         "not a restricted ascent sequence: 01020"),
        (check_rgf, (0, 2), "not a restricted growth string: 02"),
        (check_permutation, (1, 3), "not a permutation of 1..n: 13"),
        (check_permutation, (1, 2.0), "letters must be ints: (1, 2.0)"),
    ])
    def test_refusal_messages(self, check, w, message):
        # one refusal raises all four, each in its own words, byte for byte
        with pytest.raises(ValueError) as exc:
            check(w)
        assert str(exc.value) == message

    @pytest.mark.parametrize("test, w", [
        (is_ascent_sequence, (0, 1.0)),
        (is_restricted, (0, 1.0)),
        (is_rgf, (0, 1.0)),
        (is_permutation, (1, 2.0)),
        (is_pattern, (0, 1.0)),
        (is_ascent_sequence, (0, None)),
        (is_permutation, "12"),
    ])
    def test_letters_that_are_not_ints_are_refused(self, test, w):
        # a float letter used to be read as its int (True), None to
        # raise TypeError, and a string to give False
        with pytest.raises(ValueError, match="letters must be ints"):
            test(w)


class TestAsWord:
    @pytest.mark.parametrize("w", [(), (0,), (0, 1, 0, 9), tuple(range(11)),
                                   (0, 12, 3, 10), (0, 10**20)])
    def test_reads_what_word_str_writes(self, w):
        assert as_word(word_str(w)) == w

    @pytest.mark.parametrize("w", [(10,), (99,), (10**20,)])
    def test_one_letter_above_9_round_trips(self, w):
        # written with a trailing comma, so that it does not read as its
        # digits, which are the word (1, 0)
        assert word_str(w) == "%d," % w[0]
        assert as_word(word_str(w)) == w
        assert word_str((1, 0)) == "10" and as_word("10") == (1, 0)

    def test_a_class_label_is_classified_again(self):
        # a label with letters past 9 is comma-separated; int() refused
        # its commas
        label = "0,1,2,3,4,5,6,7,8,9,10"
        report = wilf_classify([tuple(range(11)), "01"], 5)
        assert report.classes == [["01"], [label]]
        again = wilf_classify(report.classes[1], 5)
        assert again.classes == [[label]]
        assert again.series[label] == report.series[label]

    @pytest.mark.parametrize("text", [
        "01a", "\uff11\uff12", "\u00b201", ",", "0,,1", "1,", ",1", " 1",
        "-1", "+1", "1_2", "0,1a", "10,,", "1,2,", ",10", "09,", "10,1,"])
    def test_other_text_is_refused(self, text):
        # int() read full-width digits and gave its own message for the
        # rest
        with pytest.raises(ValueError) as exc:
            as_word(text)
        assert str(exc.value) == ("a word is a digit string or letters "
                                  f"joined by commas, not {text!r}")

    def test_a_letter_past_the_digit_limit_is_refused(self):
        # int() refused it with its own message; leading zeros count too
        assert as_word("0," + "1" * 4300)[1] == int("1" * 4300)
        for text in ("0," + "1" * 4301, "0," + "0" * 4300 + "1",
                     "1" * 5000 + ",0"):
            with pytest.raises(ValueError) as exc:
                as_word(text)
            assert str(exc.value) == ("letters of more than 4300 digits "
                                      "are not supported")


class TestStatistics:
    def test_asc_des(self):
        assert asc(as_word("00121")) == 2
        assert asc((0, 0, 0)) == 0
        assert des(as_word("0101312052")) == 4  # scan: 10, 31, 20, 52
        assert asc(()) == 0 and des(()) == 0

    def test_named(self):
        assert fwd(as_word("01123035523220")) == 4
        assert zeros(as_word("01023200")) == 4
        assert lrmax(as_word("0123")) == 4
        assert rlmin(as_word("0123")) == 4
        assert rlmax((0, 1, 0)) == 2
        assert lrmin((0, 1, 0)) == 1
        assert stat((0, 1), "asc") == 1

    def test_records_of_negative_letters(self):
        # the running extreme starts from no letter, not from -1, so a
        # record below -1 counts
        assert lrmax((-1,)) == 1
        assert lrmax((-2, -1)) == 2
        assert rlmax((-1, -2)) == 2
        assert lrmin((-1, -2)) == 2 and rlmin((-2, -1)) == 2

    def test_records_against_their_definitions(self):
        # every word of length 1..6 over -2..3, each statistic against
        # its definition read literally
        for n in range(1, 7):
            for w in product(range(-2, 4), repeat=n):
                r = w[::-1]
                assert lrmax(w) == sum(all(x > y for y in w[:i])
                                       for i, x in enumerate(w)), w
                assert lrmin(w) == sum(all(x < y for y in w[:i])
                                       for i, x in enumerate(w)), w
                assert rlmax(w) == sum(all(x > y for y in r[:i])
                                       for i, x in enumerate(r)), w
                assert rlmin(w) == sum(all(x < y for y in r[:i])
                                       for i, x in enumerate(r)), w

    @pytest.mark.parametrize("name", sorted(STATISTICS))
    @pytest.mark.parametrize("w", [(0, 1.5), "ab", (0, None), (1.5,)],
                             ids=["float", "str", "None", "float-alone"])
    def test_letters_that_are_not_ints_are_refused(self, name, w):
        # asc((0, 1.5)) and stat("ab", "asc") used to give 1
        for call in (STATISTICS[name], lambda w: stat(w, name)):
            with pytest.raises(ValueError, match="letters must be ints"):
                call(w)

    def test_empty_word_is_a_domain_error(self):
        for name in ("lrmax", "lrmin", "rlmax", "rlmin", "zeros", "fwd"):
            with pytest.raises(ValueError):
                stat((), name)
        with pytest.raises(ValueError):
            stat((0, 1), "nosuch")


class TestPatterns:
    def test_normalize(self):
        assert normalize_pattern(as_word("01013")) == pat("01012")
        assert normalize_pattern(pat("0102")) == pat("0102")
        assert normalize_pattern(as_word("275")) == pat("021")
        with pytest.raises(ValueError):
            normalize_pattern(())

    def test_empty_iterator_is_an_empty_pattern(self):
        with pytest.raises(ValueError, match="empty pattern"):
            normalize_pattern(iter(()))

    def test_normalize_idempotent_and_pattern_shape(self):
        for label in all_patterns(4):
            p = pat(label)
            assert is_pattern(p)
            assert normalize_pattern(p) == p

    def test_contains_examples(self):
        assert contains(as_word("0123123"), pat("001"))
        assert not contains(as_word("012321"), pat("001"))
        assert contains((5,), (0,))
        assert contains(as_word("0101"), pat("101"))
        assert not contains(as_word("0102"), pat("0101"))

    def test_count_examples(self):
        assert count_occurrences(as_word("0123123"), pat("001")) == 3
        assert count_occurrences(as_word("012321"), pat("001")) == 0
        assert count_occurrences((0, 0, 0), (0, 0)) == 3

    def test_counting_is_not_one_occurrence_at_a_time(self):
        # about 1.2e17 occurrences
        t0 = time.perf_counter()
        assert count_occurrences((0,) * 60, (0,) * 30) == comb(60, 30)
        assert time.perf_counter() - t0 < 1.0

    def test_count_against_every_subsequence(self):
        rng = random.Random(2011)
        for _ in range(3000):
            w = tuple(rng.randrange(5) for _ in range(rng.randrange(11)))
            p = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 5)))
            q = normalize_pattern(p)
            want = sum(normalize_pattern(sub) == q
                       for sub in combinations(w, len(p)))
            assert count_occurrences(w, p) == want, (w, p)

    @pytest.mark.parametrize("w", [(-1, 0), (0, -2, 1), (-1,)])
    def test_negative_letters_raise(self, w):
        # (-1, 0) holds an occurrence of 01 in the order of its letters
        for search in (contains, count_occurrences):
            with pytest.raises(ValueError, match="nonnegative"):
                search(w, (0, 1))

    @pytest.mark.parametrize("bad", [(0, 1.5), "01", (0, None)],
                             ids=["float", "str", "None"])
    @pytest.mark.parametrize("call", [
        lambda w: count_avoiders(w, 3),
        lambda w: list(avoiders(w, 2)),
        lambda w: perm_contains((1, 2), w),
        lambda w: contains((0, 1), w),
        lambda w: contains(w, (0, 1)),
        lambda w: count_occurrences(w, (0, 1)),
        # these two read a string as digits, so they get a list of letters
        lambda w: wilf_classify([list(w)], 3),
        lambda w: as_word(list(w)),
    ], ids=["count_avoiders", "avoiders", "perm_contains", "contains-pattern",
            "contains-word", "count_occurrences", "wilf_classify", "as_word"])
    def test_letters_that_are_not_ints_are_refused(self, call, bad):
        # neither ranked, truncated nor left to raise TypeError
        with pytest.raises(ValueError, match="letters must be ints"):
            call(bad)

    def test_refusal_of_a_long_word_is_short(self):
        w = (0,) * 10**6 + (1.5,)
        with pytest.raises(ValueError, match="letters must be ints") as info:
            check_letters(w)
        assert len(str(info.value)) < 300

    def test_against_naive(self, small_ascent_sequences):
        patterns = [pat(s) for s in all_patterns(4)]
        for n in (3, 4, 5):
            for w in small_ascent_sequences[n]:
                for p in patterns:
                    assert contains(w, p) == naive_contains(w, p)
                    assert (count_occurrences(w, p)
                            == naive_count_occurrences(w, p))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=9),
           st.lists(st.integers(0, 4), min_size=1, max_size=4))
    def test_against_naive_on_any_word(self, w, p):
        # any word, and patterns given in any order-isomorphic form
        assert contains(w, p) == naive_contains(w, p)
        assert count_occurrences(w, p) == naive_count_occurrences(w, p)

    @pytest.mark.parametrize("search, w, p, want", [
        (contains, (0,) * 3000, (0,) * 2500, True),
        (count_occurrences, (0,) * 30, (0,) * 28, 435),
        (count_occurrences, (0,) * 1100, (0,) * 1100, 1),
        (contains, tuple(range(1200)), tuple(range(1100)), True),
    ])
    def test_long_patterns(self, search, w, p, want):
        # all but the 435 case hold more pattern letters than the default
        # recursion limit of 1000
        assert search(w, p) == want

    @pytest.mark.parametrize("w, p", [
        ((0, 1) + (0,) * 8000, (1, 0, 1)),
        (tuple(i % 2 for i in range(2000)), (0, 2, 1)),
        (tuple(range(1, 1001)), (1, 2, 0)),
        (tuple(range(1000, 0, -1)), (2, 0, 1)),
    ])
    def test_words_that_made_the_search_slow(self, w, p):
        # each took seconds or more before a failure pruned the values it
        # rules out; the first is the seq101-to-perm312 input check
        t0 = time.perf_counter()
        assert not contains(w, p)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("p, cuts", [
        # 0 is read only as the lower end of later windows, 2 only as
        # an upper end, and nothing reads the last letter
        ((0, 2, 1), (">=", "<=", "all")),
        # 1 is a lower end for 2 and an upper end for 0
        ((1, 2, 0), ("==", "all", "all")),
        # the repeated 1 sets no value, and equality reads both ends
        ((1, 0, 1), ("==", "all", "all")),
    ])
    def test_plan_cuts(self, p, cuts):
        assert tuple(row[4] for row in _plan(p)) == cuts

    def test_plan_neighbours_agree_with_sets(self):
        # each position's nearest earlier letters below and above, found
        # by binary search, are those of the set of earlier letters
        for label in all_patterns(6):
            p = pat(label)
            want = []
            for i, v in enumerate(p):
                before = set(p[:i])
                want.append((v, v in before,
                             max((u for u in before if u < v), default=-2),
                             min((u for u in before if u > v), default=-1)))
            assert [row[:4] for row in _plan(p)] == want, label

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=16),
           st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_existence_agrees_with_counting(self, w, p):
        # counting shares no code with the pruned search
        assert contains(w, p) == (count_occurrences(w, p) > 0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(
               lambda n: st.permutations(range(1, n + 1))),
           st.integers(1, 5).flatmap(lambda k: st.permutations(range(k))))
    def test_existence_agrees_with_counting_on_permutations(self, pi, p):
        assert perm_contains(pi, p) == (count_occurrences(pi, p) > 0)

    def test_contains_iff_positive_count(self, small_ascent_sequences):
        patterns = [pat(s) for s in all_patterns(3)]
        for w in small_ascent_sequences[5]:
            for p in patterns:
                assert contains(w, p) == (count_occurrences(w, p) > 0)

    def test_normalization_preserves_containment(self, small_ascent_sequences):
        raw = [(2, 7, 5), (3, 3, 8), (1, 0, 1, 3)]
        for w in small_ascent_sequences[5]:
            for r in raw:
                assert contains(w, r) == contains(w, normalize_pattern(r))

    def test_monotone_under_subpatterns(self):
        # if p occurs in q, avoiding p forces avoiding q
        words = naive_ascent_sequences(5) + [
            w for n in (6, 7) for w in _ascent_sequences_fast(n)]
        patterns = [pat(s) for s in all_patterns(4)]
        for q in patterns:
            subs = [p for p in patterns if naive_contains(q, p)]
            for w in words:
                if any(not contains(w, p) for p in subs):
                    has_q = contains(w, q)
                    for p in subs:
                        if not contains(w, p):
                            assert not has_q, (w, p, q)


def _ascent_sequences_fast(n):
    from ascentseq.enumeration import generate_ascent_sequences
    return list(generate_ascent_sequences(n))


class TestRgf:
    def test_examples(self):
        assert is_rgf(as_word("001021"))
        assert not is_rgf(as_word("01013"))
        assert is_rgf((0,))
        assert not is_rgf(())
        assert not is_rgf((1,))

    def test_forward_lemma_small(self):
        # avoiding any subpattern of 01012 forces the growth property
        host = pat("01012")
        subpatterns = [pat(s) for s in all_patterns(5)
                       if naive_contains(host, pat(s))]
        assert pat("101") in subpatterns and pat("0012") in subpatterns
        for n in range(1, 8):
            for w in _ascent_sequences_fast(n):
                misses = [p for p in subpatterns if not contains(w, p)]
                if misses and not is_rgf(w):
                    raise AssertionError((w, misses[0]))

    def test_converse_witness(self):
        host = pat("01012")
        witness = as_word("01013")
        assert is_ascent_sequence(witness) and not is_rgf(witness)
        for label in all_patterns(5):
            p = pat(label)
            if not naive_contains(host, p):
                assert not contains(witness, p), label


class TestPermutations:
    def test_examples(self):
        assert not perm_contains((4, 5, 3, 7, 8, 6, 2, 1), pat("201"))
        assert not perm_contains((6, 4, 1, 3, 2, 5, 8, 7, 9), pat("120"))
        assert perm_contains((1, 2), pat("01"))
        assert perm_contains((3, 1, 2), (3, 1, 2))  # 1-based form accepted

    def test_repeated_letters_rejected(self):
        with pytest.raises(ValueError):
            perm_contains((1, 2, 3), pat("001"))


class TestMaximalPositions:
    def test_long_display_example(self):
        word = (0, 0, 0, 1, 0, 1, 2, 0, 4, 4, 2, 3, 2, 0, 6, 4, 1, 4,
                8, 8, 8, 5)
        positions, last_rep = maximal_positions(word)
        assert positions == {0, 3, 8, 14, 18}
        assert last_rep == {0: 2, 3: 3, 8: 9, 14: 14, 18: 20}

    def test_short_example(self):
        positions, last_rep = maximal_positions(as_word("011213232"))
        assert positions == {0, 1, 3, 5}
        # only the 1 at position 1 is a repeated maximal letter
        assert last_rep == {0: 0, 1: 2, 3: 3, 5: 5}

    def test_single_letter(self):
        assert maximal_positions((0,)) == ({0}, {0: 0})

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            maximal_positions((0, 3))


def test_word_helpers():
    assert word_str((0, 1, 2)) == "012"
    assert word_str((0, 11)) == "0,11"
    # a bool letter is read as an int, so it prints as one
    assert word_str((True, 2)) == "12"
    assert word_str((False,) * 3) == "000"
    assert as_word([0, 1]) == (0, 1)
    with pytest.raises(ValueError):
        as_word([-1])
