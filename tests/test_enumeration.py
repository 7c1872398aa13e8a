"""Generators, pruned counting, and statistic distributions."""

import hashlib
import random
import tracemalloc
from collections import Counter
from functools import cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ascentseq import enumeration
from ascentseq.bijections import modify
from ascentseq.cli import main
from ascentseq.core import (STATISTICS, asc, contains, is_restricted,
                            normalize_pattern, stat)
from ascentseq.enumeration import (avoider_counts, avoiders,
                                   count_ascent_sequences,
                                   count_avoiders, count_modified_avoiders,
                                   distribution, generate_ascent_sequences,
                                   generate_restricted,
                                   generate_set_partitions, joint_distribution,
                                   joint_histograms, modified_asc_counts,
                                   modified_avoiders, perm_avoiders)
from ascentseq.fixtures import expected_counts
from ascentseq.incremental import SPECIALIZED, make_tracker, open_gap
from ascentseq.oracles import (MODIFIED_PATTERNS, all_patterns, bell,
                               catalan, run_conjecture, stirling2)

from conftest import pat

WORKLOAD_PATTERNS = ("10", "000", "001", "010", "011", "012", "100", "101",
                     "102", "110", "120", "201", "210", "021", "0012",
                     "0021", "0101", "0102", "0112", "0123", "1012")

PERM_PATTERNS = [label for label in all_patterns(4)
                 if len(set(label)) == len(label)]


def modified_words(p, n):
    """The modified words of the ascent sequences of length n whose
    modified word avoids p, listed."""
    return (w for _, w in modified_avoiders(p, n))


class TestGeneration:
    def test_tiny(self):
        assert list(generate_ascent_sequences(1)) == [(0,)]
        assert list(generate_ascent_sequences(2)) == [(0, 0), (0, 1)]
        assert list(generate_ascent_sequences(3)) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

    def test_matches_naive_generator(self, small_ascent_sequences):
        for n in range(1, 6):
            assert list(generate_ascent_sequences(n)) == \
                small_ascent_sequences[n]

    def test_counts_and_dp_agree(self):
        # 53 sequences of length 5, 1014 of length 7 (frozen from the
        # exhaustive generator; no published value to compare against)
        lengths = {n: sum(1 for _ in generate_ascent_sequences(n))
                   for n in range(1, 8)}
        assert lengths[5] == 53 and lengths[7] == 1014
        for n in range(1, 8):
            assert count_ascent_sequences(n) == lengths[n]

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            next(generate_ascent_sequences(0))
        with pytest.raises(ValueError):
            count_ascent_sequences(0)


class TestAvoiders:
    def test_degenerate_patterns(self):
        for n in range(1, 7):
            assert list(avoiders(pat("01"), n)) == [(0,) * n]
            assert list(avoiders(pat("00"), n)) == [tuple(range(n))]
        assert list(avoiders((0,), 3)) == []

    def test_012_avoiders_are_binary(self):
        got = list(avoiders(pat("012"), 4))
        assert got == [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1),
                       (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1)]

    def test_count_series_examples(self):
        assert count_avoiders(pat("101"), 10).as_list() == \
            [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
        assert count_avoiders(pat("000"), 10).as_list() == \
            [1, 2, 4, 10, 27, 83, 277, 1015, 4007, 17047]
        assert count_avoiders(pat("210"), 9).as_list() == \
            [1, 2, 5, 15, 52, 202, 859, 3930, 19095]

    def test_lexicographic_order(self):
        for label in ("101", "0021", "110"):
            words = list(avoiders(pat(label), 6))
            assert words == sorted(words)

    def test_pruned_equals_filtered_all_small_patterns(self):
        full = {n: list(generate_ascent_sequences(n)) for n in range(1, 7)}
        for label in all_patterns(4):
            p = pat(label)
            for n in range(1, 7):
                expected = [w for w in full[n] if not contains(w, p)]
                assert list(avoiders(p, n)) == expected, (label, n)
                assert count_avoiders(p, n).values[n] == len(expected)

    def test_specialized_trackers_match_generic(self):
        # the trackers of the 21 patterns that dominate the counting
        # workload, the hand-derived ones among them, against the
        # search-based walk
        assert {pat(label) for label in WORKLOAD_PATTERNS} >= SPECIALIZED
        for p in map(pat, WORKLOAD_PATTERNS):
            fast = count_avoiders(p, 8).as_list()
            slow = [sum(1 for _ in _generic_avoiders(p, n))
                    for n in range(1, 9)]
            assert fast == slow, p
            # the count runs the canonical tracker; the walk that lists
            # avoiders runs the hand ones
            assert sum(1 for _ in avoiders(p, 8)) == slow[-1], p

    def test_straddle_trackers_match_generic_at_9(self):
        # the canonical dead-letter masks of 201, 021 and 0021, whose
        # kills straddle a descent or ascent pair, one length past the
        # check above
        for label in ("201", "021", "0021"):
            p = pat(label)
            slow = sum(1 for _ in _generic_avoiders(p, 9))
            assert count_avoiders(p, 9).values[9] == slow, label

    def test_210_row_through_13(self):
        assert count_avoiders(pat("210"), 13).values == \
            expected_counts("210", 13)

    def test_threaded_counts_identical(self):
        for label in ("210", "0021", "101"):
            p = pat(label)
            seq = count_avoiders(p, 9)
            for threads, depth in ((2, 4), (3, 2), (4, 5)):
                par = count_avoiders(p, 9, threads=threads, split_depth=depth)
                assert par.values == seq.values

    def test_bad_length(self):
        with pytest.raises(ValueError):
            count_avoiders(pat("101"), 0)

    @pytest.mark.parametrize("call", [
        lambda n: count_avoiders(pat("01"), n),
        lambda n: next(avoiders(pat("01"), n)),
        lambda n: count_modified_avoiders(pat("01"), n),
        lambda n: run_conjecture("210", n),
    ])
    @pytest.mark.parametrize("n", [enumeration.MAX_LENGTH + 1, 10**30])
    def test_length_cap(self, call, n):
        # the CLI's cap, refused before any work is done
        with pytest.raises(ValueError, match="lengths above 1000000"):
            call(n)

    @pytest.mark.parametrize("call", [
        lambda check: dict(avoider_counts(
            pat("1302"), enumeration.MAX_LENGTH, check)),
        lambda check: dict(modified_asc_counts(
            pat("1302"), enumeration.MAX_LENGTH, check)),
        lambda check: dict(joint_histograms(
            ("avoiders", pat("1302")), enumeration.MAX_LENGTH, "asc",
            check=check)),
        lambda check: dict(joint_histograms(
            ("avoiders", pat("0101")), 10**4, "asc", check=check)),
    ])
    def test_memory_does_not_grow_with_the_length_bound(self, call):
        # no tracker state is sized by the length bound, so the first 300
        # keys of a count at the cap take little memory
        checks = iter(range(300))

        def check():
            if next(checks, None) is None:
                raise _Stop

        tracemalloc.start()
        try:
            with pytest.raises(_Stop):
                call(check)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class _Stop(Exception):
    pass


def _generic_avoiders(p, n):
    # independent pruned walk that asks the containment search directly,
    # sharing no code with any tracker; every word it extends avoids p,
    # so the grown word contains p exactly when the new letter completes
    # an occurrence
    def extend(word, a):
        if len(word) == n:
            yield word
            return
        for c in range(a + 2):
            grown = word + (c,)
            if not contains(grown, p):
                yield from extend(grown, a + (1 if c > word[-1] else 0))

    if not contains((0,), p):
        yield from extend((0,), 0)


class TestCanonicalTracker:
    """The embedding-set tracker that patterns without a hand summary use,
    forced onto every pattern."""

    @pytest.fixture
    def canonical_only(self, monkeypatch):
        def make(p, size, generic=False):
            return make_tracker(p, size, generic=True)
        monkeypatch.setattr(enumeration, "make_tracker", make)

    def test_matches_search_walk_all_small_patterns(self, canonical_only):
        for label in all_patterns(4):
            p = pat(label)
            slow = [sum(1 for _ in _generic_avoiders(p, n))
                    for n in range(1, 8)]
            assert count_avoiders(p, 7).as_list() == slow, label

    def test_pins_at_10(self, canonical_only):
        assert count_avoiders(pat("1302"), 10).values[10] == 156851
        assert count_avoiders(pat("0312"), 10).values[10] == 156847

    def test_trivial_patterns_have_no_hand_summary(self):
        # every word contains 0; only 0 1 2 ... avoids 00 and 0 0 0 ... 01
        for label, want in (("0", 0), ("00", 1), ("01", 1)):
            assert pat(label) not in SPECIALIZED
            assert count_avoiders(pat(label), 13).as_list() == [want] * 13

    def test_equal_futures_merge(self):
        # a 0 after 0 starts no new partial occurrence of 1302
        tr = make_tracker(pat("1302"), 12, generic=True)
        once = tr.step(tr.state, 0)
        assert tr.step(once, 0) == once
        # 011 and 01 leave the same partial occurrences, so they merge
        # although the prefixes differ
        s01 = tr.step(once, 1)
        assert tr.step(s01, 1) == s01

    def test_counting_merges_reduced_states(self, monkeypatch):
        # the count steps reduced states and deletes the dead letters up
        # to each key's bound: layer 11 keeps 101, 137 and 56 keys for
        # 0021, 0012 and 210; without the deletion the reduced states
        # keep 586, 341 and 254, and the unreduced embedding sets 8889,
        # 3440 and 1330
        layers = {}
        run = enumeration._layers

        def spy(*args, **kwargs):
            for n, layer in run(*args, **kwargs):
                layers[n] = layer
                yield n, layer
        monkeypatch.setattr(enumeration, "_layers", spy)
        for label, keys in (("0021", 101), ("0012", 137), ("210", 56)):
            dict(enumeration.avoider_counts(pat(label), 12))
            assert len(layers[11]) == keys, label
            # no letter up to a key's bound a + 1 is dead
            for n in range(1, 12):
                for state, _, a in layers[n]:
                    assert state[-1] & ((1 << (a + 2)) - 1) == 0, (label, n)

    def test_unchanged_mask_is_shared(self):
        # a walk's stack holds one state per letter, so a dead mask as
        # long as the largest letter met, copied at every step, would
        # cost memory quadratic in the length; after letter 10^4 every
        # letter above it is dead, a mask of about 10^4 bits
        tr = make_tracker(pat("01"), None, generic=True)
        once = tr.step(tr.state, 10**4)
        assert once[-1] == ~((1 << (10**4 + 1)) - 1)
        assert tr.step(once, 10**4)[-1] is once[-1]

    def test_fresh_tracker_steps_reached_states(self):
        # a state carries its tracker's book, so a fresh tracker of the
        # same pattern steps it to the state the first tracker would
        size = 9
        for label in all_patterns(4):
            p = pat(label)
            tr = make_tracker(p, size, generic=True)
            states = _reached_states(tr, 7)
            fresh = make_tracker(p, size, generic=True)
            for s in states:
                for c in range(size):
                    assert fresh.forbid(s, c) == tr.forbid(s, c), (label, c)
                    t, u = fresh.step(s, c), tr.step(s, c)
                    assert t == u, (label, c)
                    assert [fresh.forbid(t, d) for d in range(size)] == \
                        [tr.forbid(u, d) for d in range(size)], (label, c)

    def test_repeated_step_leaves_the_book_alone(self):
        # every move is kept the first time it is made
        for label in ("1302", "0011", "1001", "2100", "10"):
            tr = make_tracker(pat(label), 9, generic=True)
            states = _reached_states(tr, 6)
            book = tr.state[0]
            for s in states:
                for c in range(9):
                    once = tr.step(s, c)
                    ids = s[1] | book.root
                    assert all(c in row
                               for i, row in enumerate(book.rows)
                               if ids >> i & 1), (label, c)
                    embeddings = len(book.embeddings)
                    rows = [dict(row) for row in book.rows]
                    assert tr.step(s, c) == once
                    assert len(book.embeddings) == embeddings, (label, c)
                    assert book.rows == rows, (label, c)


@cache
def _listed(kind, n):
    """Every word of length n of the set kind, before any pattern."""
    if kind == "perm-avoiders":
        return tuple(permutations(range(1, n + 1)))
    words = tuple(generate_ascent_sequences(n))
    return tuple(map(modify, words)) if kind == "modified-avoiders" \
        else words


# patterns of length 5 and 6, repeated letters included
LONG_PATTERNS = st.lists(st.integers(0, 5), min_size=5,
                         max_size=6).map(normalize_pattern)


class TestLongPatterns:
    """The layered counts against filtering every word by the containment
    search, on patterns longer than the exhaustive checks reach: that is
    where a reduction or a deletion that holds only for short patterns
    would break first."""

    @settings(max_examples=60, deadline=None)
    @given(LONG_PATTERNS)
    def test_avoider_counts(self, p):
        want = {n: sum(not contains(w, p) for w in _listed("avoiders", n))
                for n in range(1, 8)}
        assert dict(avoider_counts(p, 7)) == want, p

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(
               st.tuples(st.sampled_from(["avoiders", "modified-avoiders"]),
                         LONG_PATTERNS),
               st.tuples(st.just("perm-avoiders"), st.integers(5, 6).flatmap(
                   lambda k: st.permutations(range(k))))),
           st.lists(st.sampled_from(sorted(STATISTICS)), min_size=1,
                    max_size=3))
    def test_joint_histograms(self, described, stats):
        kind, p = described
        p = tuple(p)
        for n, hist in joint_histograms((kind, p), 7, *stats):
            want = Counter(tuple(stat(w, s) for s in stats)
                           for w in _listed(kind, n) if not contains(w, p))
            assert hist == want, (kind, p, n)


def _reached_states(tr, n):
    # every tracker state the layered count reaches through length n
    keys = {(tr.state, -1, -1)}
    states = {tr.state}
    for _ in range(n):
        keys = {(tr.step(s, c), c, a + 1 if c > last else a)
                for s, last, a in keys for c in range(a + 2)
                if not tr.forbid(s, c)}
        states.update(s for s, _, _ in keys)
    return states


class TestTrackerConvention:
    """Every tracker state ends in its dead mask, and forbid and
    count_allowed read nothing else."""

    @pytest.mark.parametrize("generic", [False, True],
                             ids=["hand", "canonical"])
    def test_last_entry_is_the_dead_mask(self, generic):
        patterns = ([pat(label) for label in all_patterns(4)] if generic
                    else sorted(SPECIALIZED))
        assert len(patterns) == (92 if generic else 3)
        size = 9
        for p in patterns:
            tr = make_tracker(p, size, generic=generic)
            for s in _reached_states(tr, 7):
                for c in range(size):
                    assert tr.forbid(s, c) == (s[-1] >> c) & 1, (p, s, c)
                for t in range(size):
                    assert tr.count_allowed(s, t) == sum(
                        not tr.forbid(s, c) for c in range(t + 1)), (p, s, t)


class TestStructure:
    """Shape characterizations of the avoider classes."""

    def test_001(self):
        def shaped(w):
            k = 0
            while k + 1 < len(w) and w[k + 1] == w[k] + 1:
                k += 1
            tail = w[k + 1:]
            return all(a >= b for a, b in zip(tail, tail[1:])) and \
                all(x <= w[k] for x in tail)

        for n in range(1, 9):
            for w in generate_ascent_sequences(n):
                assert (not contains(w, pat("001"))) == shaped(w)

    def test_010_weakly_increasing(self):
        for n in range(1, 9):
            for w in generate_ascent_sequences(n):
                weak = all(a <= b for a, b in zip(w, w[1:]))
                assert (not contains(w, pat("010"))) == weak

    def test_011_nonzeros_strictly_increase(self):
        for n in range(1, 9):
            for w in generate_ascent_sequences(n):
                nz = [x for x in w if x]
                ok = all(a < b for a, b in zip(nz, nz[1:]))
                assert (not contains(w, pat("011"))) == ok

    def test_012_binary_after_initial_zero(self):
        for n in range(1, 9):
            for w in generate_ascent_sequences(n):
                assert (not contains(w, pat("012"))) == (max(w) <= 1)

    def test_0112_up_then_weakly_down_with_zeros(self):
        def shaped(w):
            nz = [x for x in w if x]
            i = 0
            while i + 1 < len(nz) and nz[i + 1] == nz[i] + 1:
                i += 1
            head, tail = nz[:i + 1], nz[i + 1:]
            if head and head[0] != 1:
                return False
            return all(a >= b for a, b in zip(tail, tail[1:])) and \
                all(head[-1] >= x for x in tail) if nz else True

        for n in range(1, 9):
            for w in generate_ascent_sequences(n):
                assert (not contains(w, pat("0112"))) == shaped(w), w

    def test_021_nonzeros_weakly_increase(self):
        for n in range(1, 10):
            for w in generate_ascent_sequences(n):
                nz = [x for x in w if x]
                ok = all(a <= b for a, b in zip(nz, nz[1:]))
                assert (not contains(w, pat("021"))) == ok


class TestRestricted:
    def test_small(self):
        assert list(generate_restricted(1)) == [(0,)]
        assert len(list(generate_restricted(3))) == 5

    def test_catalan_cardinality_and_membership(self):
        for n in range(1, 9):
            rs = list(generate_restricted(n))
            assert len(rs) == catalan(n)
            assert rs == sorted(rs)
            assert all(is_restricted(x) for x in rs)
        # matches a filter of the full enumeration
        for n in range(1, 8):
            assert list(generate_restricted(n)) == \
                [w for w in generate_ascent_sequences(n) if is_restricted(w)]


class TestPermAvoiders:
    def test_examples(self):
        assert len(list(perm_avoiders(pat("201"), 4))) == 14
        assert list(perm_avoiders(pat("120"), 3)) == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)]
        assert list(perm_avoiders(pat("01"), 1)) == [(1,)]

    def test_against_filter(self):
        # every distinct-letter pattern of length at most 4, so each hand
        # tracker that applies and the canonical one prune permutations
        from itertools import permutations
        from ascentseq.core import perm_contains
        labels = [s for s in all_patterns(4) if len(set(s)) == len(s)]
        assert len(labels) == 33
        for label in labels:
            q = pat(label)
            for n in range(1, 8):
                expected = [p for p in permutations(range(1, n + 1))
                            if not perm_contains(p, q)]
                assert list(perm_avoiders(q, n)) == expected

    def test_repeated_letters_rejected(self):
        with pytest.raises(ValueError):
            next(perm_avoiders(pat("001"), 3))


class TestNoDepthLimit:
    def test_generators_reach_length_3000(self):
        # one letter per stack entry, none per call frame
        assert list(avoiders(pat("01"), 3000)) == [(0,) * 3000]
        assert next(generate_ascent_sequences(3000)) == (0,) * 3000
        assert next(generate_restricted(3000)) == (0,) * 3000
        assert next(generate_set_partitions(3000)) == \
            (tuple(range(1, 3001)),)
        assert next(perm_avoiders(pat("10"), 1500)) == tuple(range(1, 1501))


class TestSetPartitions:
    def test_small(self):
        assert list(generate_set_partitions(1)) == [((1,),)]
        assert len(list(generate_set_partitions(3))) == 5

    def test_standard_form_and_example_member(self):
        parts = list(generate_set_partitions(6))
        assert len(parts) == 203
        assert ((1, 2, 4), (3, 6), (5,)) in parts
        for sp in parts:
            minima = [b[0] for b in sp]
            assert minima == sorted(minima)
            assert all(list(b) == sorted(b) for b in sp)


class TestDistributions:
    def test_asc_histograms(self):
        assert distribution(pat("001"), 4, "asc") == Counter(
            {0: 1, 1: 3, 2: 3, 3: 1})
        assert distribution(pat("012"), 4, "asc") == Counter(
            {0: 1, 1: 6, 2: 1})
        assert distribution(pat("101"), 5, "asc") == Counter(
            {0: 1, 1: 10, 2: 20, 3: 10, 4: 1})

    def test_mass_equals_cardinality(self):
        for label in ("000", "0021"):
            h = distribution(pat(label), 7, "rlmin")
            assert sum(h.values()) == count_avoiders(pat(label), 7).values[7]

    def test_joint_examples(self):
        h1 = joint_distribution(("avoiders", pat("021")), 3, "asc", "rlmin")
        h2 = joint_distribution(("perm-avoiders", pat("021")), 3,
                                "asc", "rlmin")
        assert h1 == h2 and sum(h1.values()) == 5
        h3 = joint_distribution(("avoiders", pat("0012")), 4, "asc", "fwd")
        h4 = joint_distribution(("avoiders", pat("0012")), 4, "asc", "zeros")
        assert h3 == h4
        for n in range(1, 6):
            h = joint_distribution(("avoiders", pat("01")), n, "asc", "zeros")
            assert h == Counter({(0, n): 1})
        # one statistic or three: keys are tuples in the order given
        assert joint_distribution(("avoiders", pat("101")), 5, "asc") == \
            Counter({(a,): m for a, m in
                     distribution(pat("101"), 5, "asc").items()})
        h_three = joint_distribution(("avoiders", pat("0012")), 4,
                                     "asc", "fwd", "zeros")
        pairs: Counter = Counter()
        for (a, f, _), m in h_three.items():
            pairs[(a, f)] += m
        assert pairs == h3 and len(next(iter(h_three))) == 3
        with pytest.raises(ValueError):
            joint_distribution(("avoiders", pat("01")), 3)

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError):
            joint_distribution(("nosuch", pat("01")), 3, "asc", "zeros")
        with pytest.raises(ValueError):
            joint_distribution("avoiders", 3, "asc", "zeros")


class TestJointHistograms:
    """The layered pass against histograms of the listed words."""

    @staticmethod
    def listed(words, stats):
        return Counter(tuple(stat(w, s) for s in stats) for w in words)

    def check_asc_with_every_statistic(self, kind, words, labels, n_max):
        names = sorted(STATISTICS)
        for label in labels:
            p = pat(label)
            # every statistic of every word, evaluated once
            rows = {n: [tuple(stat(w, s) for s in names) for w in words(p, n)]
                    for n in range(1, n_max + 1)}
            for i, s in enumerate(names):
                for n, hist in joint_histograms((kind, p), n_max, "asc", s):
                    want = Counter((r[names.index("asc")], r[i])
                                   for r in rows[n])
                    assert hist == want, (label, s, n)

    def test_avoiders_asc_with_every_statistic(self):
        self.check_asc_with_every_statistic("avoiders", avoiders,
                                            all_patterns(4), 6)

    def test_perm_avoiders_asc_with_every_statistic(self):
        # the length-1 pattern (every permutation contains it) and zeros
        # (always 0 on permutations) included
        assert len(PERM_PATTERNS) == 33
        self.check_asc_with_every_statistic("perm-avoiders", perm_avoiders,
                                            PERM_PATTERNS, 7)

    def test_modified_avoiders_asc_with_every_statistic(self):
        # statistics are read on the modified words, whose largest letter
        # and right-to-left maxima move with the raise before an ascent top
        self.check_asc_with_every_statistic("modified-avoiders",
                                            modified_words, all_patterns(4),
                                            7)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.tuples(st.just("avoiders"),
                               st.sampled_from(all_patterns(4))),
                     st.tuples(st.just("perm-avoiders"),
                               st.sampled_from(PERM_PATTERNS)),
                     st.tuples(st.just("modified-avoiders"),
                               st.sampled_from(all_patterns(4)))),
           st.lists(st.sampled_from(sorted(STATISTICS)), min_size=1,
                    max_size=3),
           st.integers(1, 7))
    def test_random_statistics_and_patterns(self, described, stats, n):
        kind, label = described
        p = pat(label)
        words = {"avoiders": avoiders, "perm-avoiders": perm_avoiders,
                 "modified-avoiders": modified_words}[kind]
        got = dict(joint_histograms((kind, p), n, *stats))
        assert list(got) == list(range(1, n + 1))
        for m, hist in got.items():
            assert hist == self.listed(words(p, m), stats), (kind, label, m)

    def test_record_and_descent_groups_are_pinned(self):
        # sha256 of the joint histograms to length 7 of every pattern of
        # length <= 4 (the distinct-letter ones as permutations), recorded
        # when each kind kept its own statistic rules
        groups = (("lrmax", "lrmin", "rlmax", "rlmin"),
                  ("des", "fwd", "zeros"))
        digest = hashlib.sha256()
        for kind, labels in (("avoiders", all_patterns(4)),
                             ("perm-avoiders", PERM_PATTERNS),
                             ("modified-avoiders", all_patterns(4))):
            for label in labels:
                for stats in groups:
                    for n, hist in joint_histograms((kind, pat(label)), 7,
                                                    *stats):
                        digest.update(repr((kind, label, stats, n,
                                            sorted(hist.items()))).encode())
        assert digest.hexdigest() == ("cc19626d052effe207f75d04991e8e05"
                                      "0481cedb6f8b088b4d5050b483699dcb")

    def test_yields_match_joint_distribution(self):
        for kind, label, stats in (("avoiders", "0012", ("asc", "fwd")),
                                   ("avoiders", "1021", ("rlmax", "lrmin")),
                                   ("perm-avoiders", "021", ("asc", "rlmin")),
                                   ("perm-avoiders", "1302",
                                    ("des", "lrmax", "rlmax")),
                                   ("modified-avoiders", "101", ("asc",))):
            d = (kind, pat(label))
            for n, hist in joint_histograms(d, 7, *stats):
                assert hist == joint_distribution(d, n, *stats), (d, n)

    def test_bad_arguments_raise_before_any_work(self):
        for args in ((("avoiders", pat("01")), 3),
                     (("nosuch", pat("01")), 3, "asc"),
                     ("avoiders", 3, "asc"),
                     (("avoiders", pat("01")), 3, "weird"),
                     (("avoiders", pat("01")), 0, "asc"),
                     (("perm-avoiders", pat("0012")), 3, "asc")):
            with pytest.raises(ValueError):
                joint_histograms(*args)
            with pytest.raises(ValueError):
                joint_distribution(*args)

    def test_check_stops_the_pass(self):
        # one check per state: a check that gives out stops the pass
        # inside a layer, and the layers yielded before stay exact
        calls = []

        def check():
            calls.append(1)
            if len(calls) > 400:
                raise RuntimeError("out of budget")

        got = {}
        with pytest.raises(RuntimeError):
            for n, hist in joint_histograms(("perm-avoiders", pat("021")),
                                            12, "asc", "rlmin", check=check):
                got[n] = hist
        assert 4 <= len(got) < 12
        for n, hist in got.items():
            assert hist == self.listed(perm_avoiders(pat("021"), n),
                                       ("asc", "rlmin"))


class TestModified:
    def test_membership_is_on_the_modified_word(self):
        # 010221212 modifies to 010441312, which contains 101
        found = dict(modified_avoiders(pat("101"), 9))
        assert (0, 1, 0, 2, 2, 1, 2, 1, 2) not in found

    def test_counts_are_bell_like(self):
        assert [count_modified_avoiders(pat("101"), n)
                for n in range(1, 8)] == [1, 2, 5, 15, 52, 203, 877]

    @staticmethod
    def enumerated(p, n):
        return Counter(asc(x) for x, _ in modified_avoiders(p, n))

    def test_dp_matches_enumeration_on_short_patterns(self):
        for label in all_patterns(4):
            p = pat(label)
            for n, hist in modified_asc_counts(p, 7):
                assert hist == self.enumerated(p, n), (label, n)

    def test_dp_matches_enumeration_on_the_conjectured_patterns(self):
        for label in MODIFIED_PATTERNS:
            p = pat(label)
            for n, hist in modified_asc_counts(p, 9):
                assert hist == self.enumerated(p, n), (label, n)

    def test_bell_and_reversed_stirling_through_10(self):
        for label in MODIFIED_PATTERNS:
            for n, hist in modified_asc_counts(pat(label), 10):
                assert sum(hist.values()) == bell(n), (label, n)
                assert hist == {k: stirling2(n, n - k) for k in range(n)
                                if stirling2(n, n - k)}, (label, n)

    def test_cli_count_is_bell_through_12(self, capsys):
        code = main(["count", "--pattern", "101", "--modified",
                     "--n", "1..12", "--format", "csv"])
        rows = capsys.readouterr().out.splitlines()[2:]
        assert code == 0
        assert rows == [f"{n},{bell(n)}" for n in range(1, 13)]

    @pytest.mark.parametrize("label", [*MODIFIED_PATTERNS, "0", "00", "10",
                                       "0011", "0221", "1001", "2100",
                                       "3201"])
    def test_transported_state_is_the_modified_words_state(self, label):
        # the DP opens gap 2c before an ascent top c and steps; that must
        # give the state of modify(x c) grown from scratch in doubled
        # coordinates, and forbid must agree with containment in
        # modify(x c)
        p = pat(label)
        n_max = 10
        tr = make_tracker(p, 2 * n_max + 3, generic=True)

        def grown(w):
            s = tr.state
            for v in w:
                s = tr.step(s, 2 * v + 1)
            return s

        rng = random.Random(label)
        for _ in range(30):
            x, s, last, a = (), tr.state, -1, -1
            while len(x) < n_max:
                allowed = []
                for c in range(a + 2):
                    g = 2 * c if c > last else 2 * c + 1
                    dead = bool(tr.forbid(s, g))
                    assert dead == contains(modify(x + (c,)), p), (x, c)
                    if dead:
                        continue
                    moved = open_gap(s, g) if c > last else s
                    t = tr.step(moved, 2 * c + 1)
                    assert t == grown(modify(x + (c,))), (x, c)
                    allowed.append((c, t))
                if not allowed:
                    break
                c, s = rng.choice(allowed)
                x, last, a = x + (c,), c, a + 1 if c > last else a
