"""Generators, pruned counting, and statistic distributions."""

import gc
import hashlib
import random
import tracemalloc
from collections import Counter
from functools import cache
from itertools import islice, permutations
from math import comb, inf

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
from ascentseq.incremental import start
from ascentseq.oracles import (MODIFIED_PATTERNS, all_patterns, bell,
                               binomial_transform_catalan, catalan,
                               run_conjecture, stirling2, wilf_classify)

import reference
from conftest import pat

WORKLOAD_PATTERNS = ("10", "000", "001", "010", "011", "012", "100", "101",
                     "102", "110", "120", "201", "210", "021", "0012",
                     "0021", "0101", "0102", "0112", "0123", "1012")

PERM_PATTERNS = [label for label in all_patterns(4)
                 if len(set(label)) == len(label)]

# patterns of length 5 and 6, repeated letters included
LONG_PATTERNS = st.lists(st.integers(0, 5), min_size=5,
                         max_size=6).map(normalize_pattern)


def fresh(p):
    # a fresh book of pattern p and the pair (ids, dead) of the empty prefix
    book, ids, dead = start(p)
    return book, (ids, dead)


def forbids(s, c):
    # appending c to a prefix with the pair s completes the pattern
    return (s[1] >> c) & 1


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
        series = count_avoiders(pat("210"), 9)
        assert series.as_list() == [1, 2, 5, 15, 52, 202, 859, 3930, 19095]
        assert series.n_max == 9

    @pytest.mark.parametrize("label", ["1021", "000", "0"])
    def test_counts_are_lazy(self, label):
        # the first k counts of a deep run make as many budget checks
        # as a run to k: no layer is built before its count is asked for
        def checks(n_max, k):
            calls = [0]

            def check():
                calls[0] += 1
            list(islice(avoider_counts(pat(label), n_max, check), k))
            return calls[0]

        for k in (1, 2, 5, 9):
            assert checks(12, k) == checks(k, k), k

    @pytest.mark.parametrize("taken", [8, 12])
    def test_counts_leave_no_cycles(self, taken):
        # a count dropped midway or drained frees its tracker by
        # reference counting alone: nothing waits for the cyclic
        # collector
        gc.collect()
        gc.disable()
        try:
            counts = avoider_counts(pat("1001"), 12)
            list(islice(counts, taken))
            del counts
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("drain", [
        lambda: joint_histograms(("avoiders", pat("1001")), 9, "asc"),
        lambda: joint_histograms(("perm-avoiders", pat("021")), 9, "asc",
                                 "rlmin"),
        lambda: joint_histograms(("modified-avoiders", pat("1021")), 8,
                                 "asc", "rlmax"),
        lambda: modified_asc_counts(pat("1021"), 9),
        lambda: avoiders(pat("1001"), 8),
        lambda: perm_avoiders(pat("021"), 7),
    ], ids=["avoider-histograms", "perm-histograms", "modified-histograms",
            "modified_asc_counts", "avoiders", "perm_avoiders"])
    def test_every_pass_leaves_no_cycles(self, drain):
        # each frees its tracker by reference counting alone when it
        # ends or is dropped; while the book's memos kept states, which
        # refer back to the book, the first three, the fourth and the
        # fifth left 2386, 908 and 2386 objects to the cyclic collector
        gc.collect()
        gc.disable()
        try:
            for _ in drain():
                pass
            assert gc.collect() == 0
            items = drain()
            next(items)
            next(items)
            del items
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_direct_tracker_use_leaves_no_cycles(self):
        # a book driven through its public moves is freed with its pairs
        # by reference counting alone: it keeps its moves as (ids, dead)
        # pairs, which refer to nothing
        def word():
            book, s = fresh(pat("101"))
            for c in (0, 1, 0, 2, 1):
                s = book.step(*s, c)
            book.delete(*s, s[1] & 0b111)

        def permutation():
            book, s = fresh(pat("021"))
            s, groups = book.merge_live(*s, 0)
            for r in (0, 1, 0, 2, 1):
                a = groups[-1] - 1
                c = min(r, a + 1)
                s, groups = book.merge_live(*book.step(
                    *book.open_gap(*s, 2 * c), 2 * c + 1), a + 2)

        gc.collect()
        gc.disable()
        try:
            for use in (word, permutation):
                use()
                assert gc.collect() == 0, use.__name__
        finally:
            gc.enable()

    def test_a_spent_budget_refuses_before_the_first_count(self):
        def check():
            raise _Stop

        with pytest.raises(_Stop):
            next(avoider_counts(pat("0021"), 5, check))

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
        # the tracker on the 21 patterns that dominate the counting
        # workload, against the search-based walk
        for p in map(pat, WORKLOAD_PATTERNS):
            fast = count_avoiders(p, 8).as_list()
            slow = [sum(1 for _ in _generic_avoiders(p, n))
                    for n in range(1, 9)]
            assert fast == slow, p
            # the count deletes dead letters from its keys; the walk that
            # lists avoiders keeps them
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
        lambda n: next(generate_ascent_sequences(n)),
        lambda n: count_ascent_sequences(n),
        lambda n: next(generate_restricted(n)),
        lambda n: next(perm_avoiders(pat("01"), n)),
        lambda n: next(generate_set_partitions(n)),
        lambda n: next(joint_histograms(("avoiders", pat("01")), n, "asc")),
        lambda n: wilf_classify(["01"], n),
    ])
    @pytest.mark.parametrize("n", [enumeration.MAX_LENGTH + 1, 10**30,
                                   2.5, 3.0, "3"])
    def test_length_cap(self, call, n):
        # the CLI's cap, and a length that is not an int, refused before
        # any work is done
        match = "lengths above 1000000" if type(n) is int else "must be an int"
        with pytest.raises(ValueError, match=match):
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


def _spied_layers(monkeypatch):
    # the dict that keeps, for each n, the last layer n that the layered
    # counts built
    layers = {}
    run = enumeration._layers

    def spy(*args, **kwargs):
        for n, layer in run(*args, **kwargs):
            layers[n] = layer
            yield n, layer
    monkeypatch.setattr(enumeration, "_layers", spy)
    return layers


class TestCanonicalTracker:
    """The embedding-set tracker that every pattern uses."""

    def test_matches_search_walk_all_small_patterns(self):
        for label in all_patterns(4):
            p = pat(label)
            slow = [sum(1 for _ in _generic_avoiders(p, n))
                    for n in range(1, 8)]
            assert count_avoiders(p, 7).as_list() == slow, label

    def test_pins_at_10(self):
        assert count_avoiders(pat("1302"), 10).values[10] == 156851
        assert count_avoiders(pat("0312"), 10).values[10] == 156847

    def test_deep_1012_count_is_the_catalan_binomial_transform(self):
        # the last count to n = 18, summed off layer 16, against the
        # closed form: 8140539950
        counts = dict(avoider_counts(pat("1012"), 18))
        assert counts[18] == binomial_transform_catalan(18) == 8140539950

    def test_trivial_patterns_have_no_hand_summary(self):
        # every word contains 0; only 0 1 2 ... avoids 00 and 0 0 0 ... 01
        for label, want in (("0", 0), ("00", 1), ("01", 1)):
            assert count_avoiders(pat(label), 13).as_list() == [want] * 13

    def test_equal_futures_merge(self):
        # a 0 after 0 starts no new partial occurrence of 1302
        book, s = fresh(pat("1302"))
        once = book.step(*s, 0)
        assert book.step(*once, 0) == once
        # 011 and 01 leave the same partial occurrences, so they merge
        # although the prefixes differ
        s01 = book.step(*once, 1)
        assert book.step(*s01, 1) == s01

    def test_counting_merges_reduced_states(self, monkeypatch):
        # the count steps reduced states and deletes the dead letters up
        # to each key's bound: layer 11 keeps 101, 137 and 56 keys for
        # 0021, 0012 and 210; without the deletion the reduced states
        # keep 586, 341 and 254, and the unreduced embedding sets 8889,
        # 3440 and 1330.  The count runs to 13, since the layer before
        # the last count is the last one built
        layers = _spied_layers(monkeypatch)
        for label, keys in (("0021", 101), ("0012", 137), ("210", 56)):
            dict(enumeration.avoider_counts(pat(label), 13))
            assert len(layers[11]) == keys, label
            # no letter up to a key's bound a + 1 is dead
            for n in range(1, 12):
                for _, _, dead, a in layers[n]:
                    assert dead & ((1 << (a + 2)) - 1) == 0, (label, n)

    def test_each_key_grown_once(self, monkeypatch):
        # _layers keeps each distinct key's children for one count, so a
        # key that comes back in a later layer is not grown again; a
        # second count grows as many keys again, so nothing is kept from
        # one count to the next.  A count to 12 grows layers 0..9, as a
        # count to 11 did when it built its last layer
        grown = []
        rule = enumeration._avoider_rule

        def spied(p):
            start, children, grow, leaves = rule(p)

            def counted(key):
                grown.append(key)
                return grow(key)
            return start, children, counted, leaves

        monkeypatch.setattr(enumeration, "_avoider_rule", spied)
        layers = _spied_layers(monkeypatch)
        for label in ("0021", "0012", "210", "1001"):
            grown.clear()
            dict(avoider_counts(pat(label), 12))
            once = len(grown)
            assert once == len(set(grown)), label
            # layers 0..9 are grown, and some of their keys come back
            assert 1 + sum(len(layers[n]) for n in range(1, 10)) > once
            dict(avoider_counts(pat(label), 12))
            assert len(grown) == 2 * once, label

    @pytest.mark.parametrize("label, n, checks", [
        ("1001", 10, 1453), ("0021", 12, 511), ("210", 12, 307),
        ("1012", 12, 1283), ("10", 9, 16), ("01", 5, 8), ("0", 5, 3)])
    def test_last_count_builds_no_keys(self, monkeypatch, label, n, checks):
        # count n is summed off layer n - 2, so no layer past n - 2 is
        # built, while the budget is checked once before count 1, once
        # per key of layers 0..n - 2 as each is summed into a count, and
        # once per key of layers 0..n - 3 as each is grown (the pinned
        # numbers of checks)
        layers = _spied_layers(monkeypatch)
        calls = []
        counts = dict(avoider_counts(pat(label), n,
                                     lambda: calls.append(None)))
        assert max(layers) == n - 2
        assert counts == reference.avoider_counts(pat(label), n)
        assert len(calls) == checks
        # one before count 1, and one for the start key (layer 0) on
        # each pass
        assert checks == (3 + sum(len(layers[m]) for m in range(1, n - 1))
                          + sum(len(layers[m]) for m in range(1, n - 2)))

    @pytest.mark.parametrize("label", ["1001", "0021", "210"])
    def test_a_count_comes_before_its_next_layer(self, monkeypatch, label):
        # count n is yielded before layer n - 1 is built, so a caller that
        # stops after count n never builds it
        layers = _spied_layers(monkeypatch)
        for n, _ in avoider_counts(pat(label), 12):
            assert max(layers, default=0) == max(n - 2, 0), n

    def test_a_settled_pattern_builds_no_layer_past_two_back(self,
                                                           monkeypatch):
        # wilf_classify stops counting a pattern once its series prefix
        # is unique, at length d, so its count builds layers up to d - 2
        # only: the largest layer, d - 1, is never built
        labels = all_patterns(4)
        series = {label: count_avoiders(pat(label), 9).as_list()
                  for label in labels}
        # the first length at which no other pattern shares the prefix
        settled = {label: next((d for d in range(1, 9) if all(
            series[other][:d] != series[label][:d]
            for other in labels if other != label)), 9) for label in labels}
        assert sum(d < 9 for d in settled.values()) == 57
        patterns = {}   # each rule's grow -> its pattern
        deepest = {}    # pattern -> the deepest layer built
        rule, run = enumeration._avoider_rule, enumeration._layers

        def spied_rule(p):
            made = rule(p)
            patterns[made[2]] = p
            return made

        def spied_layers(grow, *args):
            for n, layer in run(grow, *args):
                deepest[patterns[grow]] = n
                yield n, layer
        monkeypatch.setattr(enumeration, "_avoider_rule", spied_rule)
        monkeypatch.setattr(enumeration, "_layers", spied_layers)
        wilf_classify(labels, 9)
        for label in labels:
            assert deepest.get(pat(label), 0) == max(settled[label] - 2, 0)

    def test_leaves_sum_is_summed_letter_by_letter(self):
        # the leaves total of a key, a closed form corrected at the
        # letters that the book's final_kills names, equals the sum over
        # the key's letters c of what the child allows: the width a + 2
        # (a + 3 past the last letter) less the dead letters below it in
        # the mask of the step on c, which is the child's a + 2
        for label in all_patterns(4):
            root, children, grow, leaves = enumeration._avoider_rule(
                pat(label))
            keys = {root}
            for _, layer in enumeration._layers(grow, root, 7):
                keys.update(layer)
            for key in keys:
                _, last, _, a = key
                total = 0
                for x, child, gone in children(key):
                    width = a + 3 if x // 2 > last else a + 2
                    allowed = width - (gone or 0).bit_count()
                    assert allowed == child[3] + 2, (label, key, x)
                    total += allowed
                assert leaves(key) == total, (label, key)

    def test_unchanged_mask_is_shared(self):
        # a walk's stack holds one pair per letter, so a dead mask as
        # long as the largest letter met, copied at every step, would
        # cost memory quadratic in the length; after letter 10^4 every
        # letter above it is dead, a mask of about 10^4 bits
        book, s = fresh(pat("01"))
        once = book.step(*s, 10**4)
        assert once[1] == ~((1 << (10**4 + 1)) - 1)
        assert book.step(*once, 10**4)[1] is once[1]

    def test_repeated_step_leaves_the_book_alone(self):
        # every move is kept the first time it is made, in the row of
        # every embedding of the pair whose next slot admits the letter
        for label in ("1302", "0011", "1001", "2100", "10"):
            book, s0 = fresh(pat(label))
            for s in _reached_pairs(book, s0, 6):
                for c in range(9):
                    once = book.step(*s, c)
                    ids = s[0] | book.root
                    assert all(c in row
                               for i, row in enumerate(book.rows)
                               if ids >> i & 1 and _admits(book, i, c)
                               ), (label, c)
                    embeddings = len(book.embeddings)
                    rows = [dict(row) for row in book.rows]
                    assert book.step(*s, c) == once
                    assert len(book.embeddings) == embeddings, (label, c)
                    assert book.rows == rows, (label, c)

    @staticmethod
    def assert_index_exact(book, pairs, letters):
        # every id sits in fixed[v] when its next slot is the value v and
        # in ranged when it is an interval, and in nothing else, and its
        # slots entry names the letters that slot admits; step, which asks
        # only the ids that the index lets through, equals a scan that
        # grows every id of the pair, and final_kills names exactly the
        # letters some penultimate id admits, with the dead bits the
        # scan adds on each
        for s in pairs:
            ids, dead = s
            kills = book.final_kills(ids, max(letters) + 1)
            assert set(kills) <= set(letters), (book.p, s)
            for c in letters:
                grown, after, admitted = ids, dead, False
                rest = ids | book.root
                for i in range(rest.bit_length()):
                    if rest >> i & 1:
                        m = book._grow(i, c)
                        if book.penult >> i & 1:
                            after |= m
                            admitted |= _admits(book, i, c)
                        else:
                            grown |= m
                assert (c in kills) == admitted, (book.p, s, c)
                assert dead | kills.get(c, 0) == after, (book.p, s, c)
                assert book.step(*s, c) == book.reduced(grown, after), \
                    (book.p, s, c)
        ids = range(len(book.embeddings))
        for i in ids:
            j, vals = book.embeddings[i]
            a = vals[book.p[j]]
            homes = [v for v, mask in book.fixed.items() if mask >> i & 1]
            assert homes == ([a] if type(a) is int else []), (book.p, i)
            assert book.ranged >> i & 1 == (type(a) is not int), (book.p, i)
            first, stop = book.slots[i]
            assert [c for c in range(16) if _admits(book, i, c)] == \
                list(range(first, min(stop, 16))), (book.p, i)
        assert book.ranged < 1 << len(ids)
        assert all(0 < mask < 1 << len(ids) for mask in book.fixed.values())

    def test_slot_index_is_exact(self):
        # on the avoider walks, the modified-word walks (doubled
        # coordinates, open_gap) and the permutation walks (merge_live)
        # to depth 6 of every pattern of length <= 4
        for label in all_patterns(4):
            p = pat(label)
            book, s0 = fresh(p)
            self.assert_index_exact(book, _reached_pairs(book, s0, 6),
                                    range(8))
            book, s0 = fresh(p)
            self.assert_index_exact(book, _modified_walk(book, s0, 6)[0],
                                    range(16))
            if len(set(label)) < len(label):
                continue
            book, s0 = fresh(p)
            pairs, keys = set(), {book.merge_live(*s0, 0)}
            for _ in range(6):
                grown = set()
                for s, groups in keys:
                    a = groups[-1] - 1
                    for c in range(a + 2):
                        moved = book.open_gap(*s, 2 * c)
                        t = book.step(*moved, 2 * c + 1)
                        pairs.update((s, moved, t))
                        grown.add(book.merge_live(*t, a + 2))
                keys = grown
            self.assert_index_exact(book, pairs, range(16))

    def test_modified_kills_are_the_childrens_dead_masks(self):
        # on the modified-word walks to depth 6 of every pattern of length
        # <= 4, final_kills with gap places names exactly the places of a
        # key that some penultimate id admits, and dead | kills is the dead
        # mask that step gives at a value place x and step after open_gap
        # at a gap place x, with dead moved by the open
        for label in all_patterns(4):
            book, s0 = fresh(pat(label))
            for s, last, a in _modified_walk(book, s0, 6)[1]:
                ids, dead = s
                kills = book.final_kills(ids, 2 * last + 2, 2 * a + 3)
                places = ([2 * c + 1 for c in range(last + 1)]
                          + [2 * c for c in range(last + 1, a + 2)])
                assert set(kills) <= set(places), (label, s)
                penult = (ids | book.root) & book.penult
                for x in places:
                    assert (x in kills) == any(
                        _admits(book, i, x) for i in range(penult.bit_length())
                        if penult >> i & 1), (label, s, x)
                    if x & 1:
                        moved, t = s, book.step(*s, x)
                    else:
                        moved = book.open_gap(*s, x)
                        t = book.step(*moved, x + 1)
                    assert t[1] == moved[1] | kills.get(x, 0), (label, s, x)

    @staticmethod
    def assert_reduced(book, s):
        # no embedding of the pair kills only dead letters, and none is
        # covered by another
        ids, dead = s
        p = book.p
        held = [i for i in range(len(book.embeddings)) if ids >> i & 1]
        for i in held:
            assert dead & book.kills[i] != book.kills[i], (p, i)
        for i1 in held:
            for i2 in held:
                assert i1 == i2 or not _covers(
                    p, book.embeddings[i2], book.embeddings[i1]), (p, i1, i2)

    @staticmethod
    def assert_covers_kept(book, pairs, rng):
        # subs[i] names exactly the embeddings that embedding i covers,
        # and reduced gives what the two-walk rule gives, on every pair
        # seen, alone and with other ids of the book added
        p, embeddings = book.p, book.embeddings
        dominators = [0] * len(embeddings)
        for i, e in enumerate(embeddings):
            for k, f in enumerate(embeddings):
                covered = i != k and _covers(p, e, f)
                assert book.subs[i] >> k & 1 == covered, (p, i, k)
                dominators[k] |= covered << i
        every = (1 << len(embeddings)) - 1
        for ids, dead in pairs:
            for more in (0, rng.getrandbits(len(embeddings)), every):
                assert book.reduced(ids | more, dead) == two_walk_reduced(
                    book.kills, dominators, ids | more, dead), (p, ids, more)

    def walk_reduced(self, p, rng, perm):
        # grow random prefixes as the layered counts grow their keys, and
        # check every pair that step, delete and merge_live return, then
        # the book's cover relation
        book, s0 = fresh(p)
        pairs = []

        def check(s):
            self.assert_reduced(book, s)
            pairs.append(s)

        for _ in range(20):
            if perm:
                s, groups = book.merge_live(*s0, 0)
                a = groups[-1] - 1
            else:
                s, last, a = s0, -1, -1
                gone = s[1] & 1
                s, a = book.delete(*s, gone), a - gone.bit_count()
            check(s)
            for _ in range(8):
                if a < -1:
                    break               # no letter or gap is live
                c = rng.randrange(a + 2)
                if perm:
                    s = book.step(*book.open_gap(*s, 2 * c), 2 * c + 1)
                    check(s)
                    s, groups = book.merge_live(*s, a + 2)
                    a = groups[-1] - 1
                else:
                    s, last, a = book.step(*s, c), c, a + (c > last)
                    check(s)
                    gone = s[1] & ((1 << (a + 2)) - 1)
                    s = book.delete(*s, gone)
                    last -= (gone & ((1 << (last + 1)) - 1)).bit_count()
                    a -= gone.bit_count()
                check(s)
        self.assert_covers_kept(book, pairs, rng)

    def test_every_returned_state_is_reduced(self):
        for label in all_patterns(4):
            self.walk_reduced(pat(label), random.Random(label), False)
        for label in PERM_PATTERNS:
            self.walk_reduced(pat(label), random.Random(label), True)

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(
               st.tuples(LONG_PATTERNS, st.just(False)),
               st.tuples(st.integers(5, 6).flatmap(
                   lambda k: st.permutations(range(k))).map(tuple),
                   st.just(True))),
           st.integers(0, 2 ** 32))
    def test_every_returned_state_is_reduced_on_long_patterns(self, case,
                                                              seed):
        p, perm = case
        self.walk_reduced(p, random.Random(seed), perm)

    def test_reduction_merges_keys(self, monkeypatch):
        # summed over the patterns of length <= 4, layer 8 of the
        # perm-avoiders (asc) histograms to n = 9 keeps 11928 keys and
        # layer 10 of the avoider counts (the last one that a count to 12
        # builds) keeps 64886; pairs that delete and merge_live left
        # unreduced kept 12042 and 65212 (34998 and 172183 against 35238
        # and 173320 at n = 10 and at layer 11).  asc rides in the
        # weights, so no permutation key is split by it
        layers = _spied_layers(monkeypatch)
        perm_keys = 0
        for label in PERM_PATTERNS:
            for _ in joint_histograms(("perm-avoiders", pat(label)), 9,
                                      "asc"):
                pass
            perm_keys += len(layers[8])
        avoider_keys = 0
        for label in all_patterns(4):
            dict(avoider_counts(pat(label), 12))
            avoider_keys += len(layers[10])
        assert (perm_keys, avoider_keys) == (11928, 64886)


@cache
def _listed(kind, n):
    """Every word of length n of the set kind, before any pattern."""
    if kind == "perm-avoiders":
        return tuple(permutations(range(1, n + 1)))
    words = tuple(generate_ascent_sequences(n))
    return tuple(map(modify, words)) if kind == "modified-avoiders" \
        else words


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


def _covers(p, e2, e1):
    # embedding e2 = (j2 >= j1, v2) admits, on every letter of p[j2:],
    # every letter that e1 = (j1, v1) admits
    (j1, v1), (j2, v2) = e1, e2
    return j2 >= j1 and all(
        v2[u] == v1[u] if type(v2[u]) is int
        else v2[u][0] <= v1[u][0] and v1[u][1] <= v2[u][1]
        for u in set(p[j2:]))


def two_walk_reduced(kills, dominators, ids, dead):
    # the oracle for _Book.reduced, in two walks from the other side of
    # the cover relation: dominators[i] holds the ids whose embeddings
    # cover embedding i; one walk drops the embeddings whose kills are
    # all dead, a second those that an embedding left by the first covers
    live = rest = ids
    while rest:
        low = rest & -rest
        rest ^= low
        m = kills[low.bit_length() - 1]
        if dead & m == m:
            live ^= low
    kept = rest = live
    while rest:
        low = rest & -rest
        rest ^= low
        if dominators[low.bit_length() - 1] & live:
            kept ^= low
    return kept, dead


def _admits(book, i, c):
    # the next slot of embedding i, a value or an open interval, admits c
    j, vals = book.embeddings[i]
    a = vals[book.p[j]]
    return a == c if type(a) is int else a[0] < c < a[1]


def _modified_walk(book, s0, n):
    # (pairs, keys): every pair that the modified-word walk reaches from
    # s0 through length n, the moved ones included, and every key (pair,
    # last, a) it grows, the empty prefix's included
    pairs, keys = {s0}, {(s0, -1, -1)}
    every = set(keys)
    for _ in range(n):
        grown = set()
        for s, last, a in keys:
            for c in range(a + 2):
                g = 2 * c if c > last else 2 * c + 1
                if forbids(s, g):
                    continue
                moved = book.open_gap(*s, g) if c > last else s
                t = book.step(*moved, 2 * c + 1)
                pairs.update((moved, t))
                grown.add((t, c, a + 1 if c > last else a))
        keys = grown
        every |= keys
    return pairs, every


def _reached_pairs(book, s0, n):
    # every pair that the avoider walk reaches from s0 through length n
    keys = {(s0, -1, -1)}
    pairs = {s0}
    for _ in range(n):
        keys = {(book.step(*s, c), c, a + 1 if c > last else a)
                for s, last, a in keys for c in range(a + 2)
                if not forbids(s, c)}
        pairs.update(s for s, _, _ in keys)
    return pairs


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
        # every distinct-letter pattern of length at most 4 prunes
        # permutations on its tracker
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

    def test_permutation_histograms_are_pinned(self):
        # sha256 of the permutation histograms to length 9 of every
        # distinct-letter pattern of length <= 4, each statistic alone and
        # beside asc, recorded while the permutations kept every raw value
        names = sorted(STATISTICS)
        groups = [(s,) for s in names] + [("asc", s) for s in names
                                          if s != "asc"]
        digest = hashlib.sha256()
        for label in PERM_PATTERNS:
            for stats in groups:
                for n, hist in joint_histograms(("perm-avoiders", pat(label)),
                                                9, *stats):
                    digest.update(repr((label, stats, n,
                                        sorted(hist.items()))).encode())
        assert digest.hexdigest() == ("92d6a0f8be215f32469b752fac8b69b7"
                                      "9bcf6a7b60561aedbfba5ab43b49026d")

    def test_avoider_histograms_are_pinned(self):
        # sha256 of the avoider histograms to length 8 of every pattern of
        # length <= 4, each statistic alone and beside asc, recorded while
        # the avoider histograms kept every raw letter
        names = sorted(STATISTICS)
        groups = [(s,) for s in names] + [("asc", s) for s in names
                                          if s != "asc"]
        digest = hashlib.sha256()
        for label in all_patterns(4):
            for stats in groups:
                for n, hist in joint_histograms(("avoiders", pat(label)), 8,
                                                *stats):
                    digest.update(repr((label, stats, n,
                                        sorted(hist.items()))).encode())
        assert digest.hexdigest() == ("d77f200a5e505a6fd2d7a586a60f7689"
                                      "92adb2d8d2b3944f9527a6649233174e")

    def test_avoider_layers_are_keyed_by_live_letters(self, monkeypatch):
        # with every raw letter in the key, layer 12 kept 18142 (asc, des)
        # keys for 000, 1287 for 0101 and 617 (asc, rlmin) keys for 021,
        # and with asc in the key 964, 137 and 182 (000's key fixes asc)
        layers = _spied_layers(monkeypatch)
        for label, stats, at_12 in (("000", ("asc", "des"), 964),
                                    ("0101", ("asc", "des"), 42),
                                    ("021", ("asc", "rlmin"), 42)):
            for _ in joint_histograms(("avoiders", pat(label)), 13, *stats):
                pass
            assert len(layers[12]) <= at_12, (label, len(layers[12]))

    def test_permutation_layers_are_keyed_by_live_gaps(self, monkeypatch):
        # 132-avoiders kept 640 and 8960 (asc, rlmin) keys at layers 8 and
        # 11, and 320 and 3328 (asc, rlmax) keys, when every dead gap and
        # raw value stayed in the key, and 100 and 257, and 29 and 56, when
        # asc stayed in it too
        layers = _spied_layers(monkeypatch)
        for stats, at_8, at_11 in ((("asc", "rlmin"), 35, 65),
                                   (("asc", "rlmax"), 8, 11)):
            for _ in joint_histograms(("perm-avoiders", pat("021")), 12,
                                      *stats):
                pass
            sizes = len(layers[8]), len(layers[11])
            assert sizes[0] <= at_8 and sizes[1] <= at_11, (stats, sizes)

    @pytest.mark.parametrize("kind, labels, low", [
        ("avoiders", all_patterns(3), 0),
        ("modified-avoiders", all_patterns(3), 1),
        ("perm-avoiders", PERM_PATTERNS, -1)])
    def test_every_state_place_is_finite(self, monkeypatch, kind, labels,
                                         low):
        # each statistic's start sentinel, -1 or inf, is replaced on the
        # first step, before any rename.  A deleted avoider letter takes
        # its gap, down to 0; a modified word deletes no letter, so its
        # places are letters; a permutation key's place -1 is the run
        # below its first live gap, which the merge keeps
        layers = _spied_layers(monkeypatch)
        stats = ("asc", "des", "zeros", "lrmax", "lrmin", "rlmax", "rlmin")
        places = Counter()
        for label in labels:
            for _ in joint_histograms((kind, pat(label)), 6, *stats):
                pass
            for layer in layers.values():
                for key in layer:
                    _, states = key[0] if len(key) == 1 else key
                    places.update(y for s in states if type(s) is not int
                                  for y in s[1:])
        assert min(places) == low and max(places) < inf, kind

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
        # one check per key grown, 277 in the pass to 12: a check that
        # gives out after 100 stops the pass inside layer 9, and the
        # layers yielded before stay exact
        calls = []

        def check():
            calls.append(1)
            if len(calls) > 100:
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

    @pytest.mark.parametrize("kind, label, n_max, stats, checks", [
        ("avoiders", "021", 12, ("asc", "rlmin"), 162),
        ("perm-avoiders", "021", 10, ("asc", "rlmax"), 46),
        ("modified-avoiders", "1021", 11, ("asc", "rlmax"), 2388)])
    def test_budget_is_checked_once_per_key_grown(self, monkeypatch, kind,
                                                  label, n_max, stats,
                                                  checks):
        # every layer, the last one included, is grown from the keys of
        # the layer before with one check per key, so the checks are one
        # per key of layers 0..n_max - 1 (the pinned numbers)
        layers = _spied_layers(monkeypatch)
        calls = []
        for _ in joint_histograms((kind, pat(label)), n_max, *stats,
                                  check=lambda: calls.append(None)):
            pass
        assert max(layers) == n_max
        assert len(calls) == checks
        assert checks == 1 + sum(len(layers[n]) for n in range(1, n_max))

    def test_asc_weights_hold_counts_past_64_bits(self):
        # the 10-avoiders are the weakly increasing ascent sequences, so
        # asc counts the rises among n - 1 steps of +0 or +1: binomial
        # coefficients, the largest of them at n = 70 about 2.8e19
        *_, (n, hist) = joint_histograms(("avoiders", pat("10")), 70, "asc")
        assert n == 70
        assert hist == {(k,): comb(69, k) for k in range(70)}
        assert max(hist.values()) > 2 ** 64

    def test_weight_width_follows_the_layers_built(self, monkeypatch):
        # the weights are packed at a width that bounds the layers built
        # so far, not n_max: a width sized from MAX_LENGTH would give each
        # coefficient of every weight about 20 million bits
        layers = _spied_layers(monkeypatch)
        stats = ("asc", "rlmin")
        got = dict(islice(joint_histograms(
            ("avoiders", pat("021")), enumeration.MAX_LENGTH, *stats), 12))
        assert max(w.bit_length() for w in layers[12].values()) < 10 ** 4
        assert got == dict(joint_histograms(("avoiders", pat("021")), 12,
                                            *stats))

    @pytest.mark.parametrize("kind, labels, words", [
        ("avoiders", ("0012", "1021"), avoiders),
        ("perm-avoiders", ("021", "1302"), perm_avoiders),
        ("modified-avoiders", ("0012", "1021"), modified_words)])
    def test_asc_at_every_position(self, kind, labels, words):
        # asc is read off the weights and put back at each of its places
        # in the histogram's key, once or twice, beside other statistics
        for label in labels:
            p = pat(label)
            for stats in (("asc", "asc"), ("des", "asc"),
                          ("asc", "rlmax", "asc"), ("zeros", "asc", "fwd"),
                          ("lrmin", "rlmin", "asc")):
                for n, hist in joint_histograms((kind, p), 7, *stats):
                    assert hist == self.listed(words(p, n), stats), (
                        label, stats, n)


class TestModified:
    def test_membership_is_on_the_modified_word(self):
        # 010221212 modifies to 010441312, which contains 101
        found = dict(modified_avoiders(pat("101"), 9))
        assert (0, 1, 0, 2, 2, 1, 2, 1, 2) not in found

    def test_counts_are_bell_like(self):
        assert [count_modified_avoiders(pat("101"), n)
                for n in range(1, 8)] == [1, 2, 5, 15, 52, 203, 877]

    def test_check_is_called_once_per_ascent_sequence(self):
        for n, sequences in zip(range(1, 6), (1, 2, 5, 15, 53)):
            calls = []
            for _ in modified_avoiders(pat("101"), n,
                                       check=lambda: calls.append(None)):
                pass
            assert len(calls) == sequences, n

    def test_a_raising_check_stops_the_listing(self):
        # the check gives out at the 11th of the 53 ascent sequences of
        # length 5; the words yielded before it raised are the first ones
        calls = []

        def check():
            calls.append(None)
            if len(calls) > 10:
                raise RuntimeError("out of budget")

        got = []
        with pytest.raises(RuntimeError):
            for pair in modified_avoiders(pat("101"), 5, check=check):
                got.append(pair)
        assert len(calls) == 11
        assert got == list(modified_avoiders(pat("101"), 5))[:len(got)]
        assert len(got) == 10   # the first 10 ascent sequences avoid it

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

    def test_dp_matches_joint_histograms(self):
        # the two layered readers of the modified sets agree past the
        # lengths that the listing checks
        for label in all_patterns(4):
            p = pat(label)
            joint = joint_histograms(("modified-avoiders", p), 9, "asc")
            assert dict(modified_asc_counts(p, 9)) == {
                n: {a: ways for (a,), ways in hist.items()}
                for n, hist in joint}, label

    @pytest.mark.parametrize("label", ["1021", "0101", "1102"])
    def test_no_layer_past_two_back(self, monkeypatch, label):
        # histograms n - 1 and n are both summed off layer n - 2 in one
        # pass, so a count to 10 builds layers up to 8 only, and grows
        # each distinct key of layers 0..7 once; the budget is checked
        # once per key of layers 0..8
        grown = []
        rule = enumeration._modified_rule

        def spied(p):
            start, children, grow, kills = rule(p)

            def counted(key):
                grown.append(key)
                return grow(key)
            return start, children, counted, kills

        monkeypatch.setattr(enumeration, "_modified_rule", spied)
        layers = _spied_layers(monkeypatch)
        calls = []
        hists = dict(modified_asc_counts(pat(label), 10,
                                         lambda: calls.append(None)))
        assert list(hists) == list(range(1, 11))
        assert max(layers) == 8
        assert len(calls) == 1 + sum(len(layers[n]) for n in range(1, 9))
        assert len(grown) == len(set(grown))
        assert set(grown) == {rule(pat(label))[0]}.union(
            *(layers[n] for n in range(1, 8)))

    def test_a_refusal_in_the_last_pass_leaves_two_short(self,
                                                         monkeypatch):
        # histograms n_max - 1 and n_max are both yielded after the one
        # pass over layer n_max - 2, whose keys take the last checks of a
        # complete run; a check that raises at the first of them leaves
        # histograms 1..n_max - 2
        p, n_max = pat("1102"), 9
        layers = _spied_layers(monkeypatch)
        calls = []
        list(modified_asc_counts(p, n_max, lambda: calls.append(None)))
        first = len(calls) - len(layers[n_max - 2])
        calls.clear()

        def check():
            calls.append(None)
            if len(calls) > first:
                raise _Stop

        got = []
        with pytest.raises(_Stop):
            for n, _ in modified_asc_counts(p, n_max, check):
                got.append(n)
        assert got == list(range(1, n_max - 1))

    def test_every_n_max_gives_the_same_histograms(self):
        # each n_max sums its last two histograms off layer n_max - 2 (the
        # start alone for n_max = 1), where a run to 9 builds that layer
        for label in all_patterns(4):
            p = pat(label)
            full = dict(modified_asc_counts(p, 9))
            for n_max in range(1, 9):
                assert dict(modified_asc_counts(p, n_max)) == {
                    n: full[n] for n in range(1, n_max + 1)}, (label, n_max)

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
        # give the pair of modify(x c) grown from scratch in doubled
        # coordinates, and its dead bit must agree with containment in
        # modify(x c)
        p = pat(label)
        n_max = 10
        book, s0 = fresh(p)

        def grown(w):
            s = s0
            for v in w:
                s = book.step(*s, 2 * v + 1)
            return s

        rng = random.Random(label)
        for _ in range(30):
            x, s, last, a = (), s0, -1, -1
            while len(x) < n_max:
                allowed = []
                for c in range(a + 2):
                    g = 2 * c if c > last else 2 * c + 1
                    dead = bool(forbids(s, g))
                    assert dead == contains(modify(x + (c,)), p), (x, c)
                    if dead:
                        continue
                    moved = book.open_gap(*s, g) if c > last else s
                    t = book.step(*moved, 2 * c + 1)
                    assert t == grown(modify(x + (c,))), (x, c)
                    allowed.append((c, t))
                if not allowed:
                    break
                c, s = rng.choice(allowed)
                x, last, a = x + (c,), c, a + 1 if c > last else a

    @staticmethod
    def agree(raw, key, names, gap=1):
        # the letters (gaps, when gap is 2) that the raw pair forbids are
        # those deleted from the key or forbidden by it under their names
        assert [bool(forbids(raw, gap * r)) for r in range(len(names))
                ] == [y is None or bool(forbids(key, gap * y))
                      for y in names]

    def walk_deletions(self, p, rng):
        # step the raw pair and the key that delete renames along random
        # continuations, and check every next letter's pairs too
        book, s0 = fresh(p)
        step = book.step
        for _ in range(20):
            raw = key = s0
            names = list(range(8))      # raw letter -> its name in the key
            for _ in range(10):
                self.agree(raw, key, names)
                mask = sum(1 << y for y in names if y is not None
                           and forbids(key, y) and rng.random() < 0.7)
                key = book.delete(*key, mask)
                names = [None if y is None or (mask >> y) & 1
                         else y - (mask & ((1 << y) - 1)).bit_count()
                         for y in names]
                allowed = [x for x in range(8) if not forbids(raw, x)]
                for x in allowed:
                    self.agree(step(*raw, x), step(*key, names[x]), names)
                if not allowed:
                    break
                c = rng.choice(allowed)
                raw, key = step(*raw, c), step(*key, names[c])

    def walk_merges(self, q, rng):
        # insert random runs of ranks into the raw permutation pair and
        # into the key that merge_live renames; a live gap's new name is
        # read off the rank-to-group map
        book, s0 = fresh(q)
        step, open_gap = book.step, book.open_gap
        for _ in range(20):
            raw = s0
            key, groups = book.merge_live(*raw, 0)
            names = [None if forbids(raw, 0) else 0]    # raw gap -> key gap
            for _ in range(10):
                self.agree(raw, key, names, 2)
                allowed = [r for r, y in enumerate(names) if y is not None]
                if not allowed:
                    break
                c = rng.choice(allowed)
                g = names[c]
                raw = step(*open_gap(*raw, 2 * c), 2 * c + 1)
                grown = step(*open_gap(*key, 2 * g), 2 * g + 1)
                names = [None if y is None else y + (r > c)
                         for r, y in enumerate(names[:c + 1] + names[c:])]
                self.agree(raw, grown, names, 2)
                key, groups = book.merge_live(*grown, groups[-1] + 1)
                names = [None if y is None or forbids(grown, 2 * y)
                         else groups[y] + 1 for y in names]

    def test_deleted_state_forbids_the_renamed_letters(self):
        for label in all_patterns(4):
            self.walk_deletions(pat(label), random.Random(label))

    @settings(max_examples=40, deadline=None)
    @given(LONG_PATTERNS, st.integers(0, 2 ** 32))
    def test_deleted_state_on_long_patterns(self, p, seed):
        self.walk_deletions(p, random.Random(seed))

    def test_merged_state_forbids_the_renamed_gaps(self):
        for label in PERM_PATTERNS:
            self.walk_merges(pat(label), random.Random(label))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(5, 6).flatmap(lambda k: st.permutations(range(k))),
           st.integers(0, 2 ** 32))
    def test_merged_state_on_long_patterns(self, q, seed):
        self.walk_merges(tuple(q), random.Random(seed))
