"""Closed forms, Wilf classification, growth roots, conjecture runners."""

import random
import time
from collections import Counter
from itertools import product
from math import comb

import pytest

from ascentseq import oracles
from ascentseq.bijections import LiftedBinaryDecomposition
from ascentseq.core import as_word
from ascentseq.enumeration import (CountSeries, count_ascent_sequences,
                                   count_avoiders, generate_ascent_sequences,
                                   generate_set_partitions)
from ascentseq.fixtures import available_depth, expected_counts, table_patterns
from ascentseq.oracles import (all_patterns, bell, binomial_transform_catalan,
                               catalan, dyck_height5_count, fishburn,
                               growth_rate_estimates, half_power_formula,
                               narayana, non_k_crossing_partition_count,
                               run_conjecture, stirling2,
                               ternary_even_twos_count, wilf_classify)

from conftest import naive_is_noncrossing


class TestClosedForms:
    def test_catalan(self):
        assert [catalan(n) for n in (0, 5, 10)] == [1, 42, 16796]
        with pytest.raises(ValueError):
            catalan(-1)

    def test_narayana(self):
        assert narayana(5, 2) == 10
        assert all(narayana(n, 1) == 1 for n in range(1, 10))
        for n in range(1, 13):
            assert sum(narayana(n, k) for k in range(1, n + 1)) == catalan(n)
        with pytest.raises(ValueError):
            narayana(5, 6)
        with pytest.raises(ValueError):
            narayana(5, 0)

    def test_half_power(self):
        assert [half_power_formula(n) for n in (1, 5, 10)] == [1, 41, 9842]

    # the last column is what each call did before the closed forms
    # checked their arguments' types; the two that raised ValueError then
    # did so by a range check, with another message
    @pytest.mark.parametrize("f,args,before", [
        (catalan, (2.5,), "TypeError"),
        (catalan, ("3",), "TypeError"),
        (catalan, (True,), "returned 1"),
        (catalan, (-1.5,), "ValueError"),
        (catalan, ("x" * 10**6,), "TypeError"),
        (narayana, (4, 2.5), "TypeError"),
        (narayana, (4.0, 2), "TypeError"),
        (half_power_formula, (2.5,), "returned 3.0"),
        (half_power_formula, (0.5,), "ValueError"),
        (ternary_even_twos_count, (2.5,), "returned 8.0"),
        (dyck_height5_count, (2.5,), "TypeError"),
        (dyck_height5_count, (4.0,), "TypeError"),
        (binomial_transform_catalan, (2.5,), "TypeError"),
        (bell, (2.5,), "TypeError"),
        (bell, (None,), "TypeError"),
        (stirling2, (3, 2.5), "TypeError"),
        (stirling2, (3.0, 2), "TypeError"),
        (non_k_crossing_partition_count, (4, 2.5), "TypeError"),
        (non_k_crossing_partition_count, ("4", 3), "TypeError"),
    ])
    def test_arguments_that_are_not_ints_are_refused(self, f, args, before):
        with pytest.raises(ValueError, match="must be ints") as info:
            f(*args)
        assert len(str(info.value)) < 100

    # each call was still running at a 3 s alarm before these limits
    @pytest.mark.parametrize("f,args", [
        (catalan, (10**7,)),
        (dyck_height5_count, (10**7,)),
        (binomial_transform_catalan, (10**4,)),
        (bell, (10**4,)),
        (fishburn, (10**4,)),
        (non_k_crossing_partition_count, (400, 3)),
        (non_k_crossing_partition_count, (60, 31)),
        (count_ascent_sequences, (1000,)),
    ])
    def test_oversized_arguments_are_refused(self, f, args):
        with pytest.raises(ValueError, match="supported") as info:
            f(*args)
        assert len(str(info.value)) < 100

    def test_ternary_even_twos_vs_brute_force(self):
        assert ternary_even_twos_count(0) == 1
        for n in range(0, 9):
            brute = sum(1 for t in product((0, 1, 2), repeat=n)
                        if t.count(2) % 2 == 0)
            assert ternary_even_twos_count(n) == brute
        assert ternary_even_twos_count(2) == 5
        assert ternary_even_twos_count(4) == 41

    def test_dyck_recurrence(self):
        assert [dyck_height5_count(n) for n in (1, 2, 3, 4, 6)] == \
            [1, 2, 5, 14, 131]

    def test_binomial_transform(self):
        assert [binomial_transform_catalan(n) for n in (1, 4, 5, 10)] == \
            [1, 15, 51, 51822]
        # definition check against the explicit sum
        for n in range(1, 12):
            assert binomial_transform_catalan(n) == \
                sum(comb(n - 1, k) * catalan(k) for k in range(n))

    def test_fishburn_vs_the_generator_and_the_dp(self):
        # the series in integers against the ascent sequences listed to
        # n = 8 and counted by the dynamic programme to n = 30
        assert [fishburn(n) for n in range(11)] == [
            1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240, 201608]
        for n in range(1, 9):
            assert fishburn(n) == sum(1 for _ in generate_ascent_sequences(n))
        for n in range(1, 31):
            assert fishburn(n) == count_ascent_sequences(n), n

    def test_bell_vs_enumeration(self):
        for n in range(1, 8):
            assert bell(n) == sum(1 for _ in generate_set_partitions(n))
        assert bell(7) == 877

    def test_stirling_vs_enumeration(self):
        for n in range(1, 8):
            for k in range(0, n + 1):
                brute = sum(1 for sp in generate_set_partitions(n)
                            if len(sp) == k)
                assert stirling2(n, k) == brute
        assert stirling2(4, 5) == 0

    @pytest.mark.parametrize("name, n, message", [
        ("catalan", 2.5, "arguments must be ints, not 2.5"),
        ("catalan", -1, "n must be nonnegative"),
        ("catalan", 10**7, "n above 100000 is not supported"),
        ("half_power_formula", True, "arguments must be ints, not True"),
        ("half_power_formula", 0, "n must be at least 1"),
        ("half_power_formula", 10**7, "n above 5000000 is not supported"),
        ("ternary_even_twos_count", "3", "arguments must be ints, not '3'"),
        ("ternary_even_twos_count", -1, "n must be nonnegative"),
        ("ternary_even_twos_count", 10**7,
         "n above 5000000 is not supported"),
        ("dyck_height5_count", None, "arguments must be ints, not None"),
        ("dyck_height5_count", 0, "n must be at least 1"),
        ("dyck_height5_count", 10**7, "n above 100000 is not supported"),
        ("binomial_transform_catalan", 2.5,
         "arguments must be ints, not 2.5"),
        ("binomial_transform_catalan", -1, "n must be at least 1"),
        ("binomial_transform_catalan", 2001, "n above 2000 is not supported"),
        ("bell", False, "arguments must be ints, not False"),
        ("bell", 0, "n must be at least 1"),
        ("bell", 2001, "n above 2000 is not supported"),
        ("fishburn", 1.0, "arguments must be ints, not 1.0"),
        ("fishburn", -1, "n must be nonnegative"),
        ("fishburn", 201, "n above 200 is not supported"),
    ])
    def test_refusal_messages(self, name, n, message):
        # one guard checks all seven closed forms, each message byte for
        # byte
        with pytest.raises(ValueError) as exc:
            getattr(oracles, name)(n)
        assert str(exc.value) == message

    def test_0112_counting_identity(self):
        # 1 + sum_k C(n-1,k) sum_i C(k-1,k-i) collapses to the half-power
        for n in range(1, 21):
            total = 1 + sum(comb(n - 1, k) *
                            sum(comb(k - 1, k - i) for i in range(1, k + 1))
                            for k in range(1, n))
            assert total == half_power_formula(n)


def _arcs(sp) -> list[tuple[int, int]]:
    return [(b[i], b[i + 1]) for b in sp for i in range(len(b) - 1)]


def _has_k_crossing(sp, k: int) -> bool:
    """k arcs mutually cross when their openers and closers interleave as
    a_1 < ... < a_k < b_1 < ... < b_k.  Arcs join consecutive elements of
    a block; pairwise-crossing neighborhoods are kept as bitmasks and a
    k-clique is searched among them."""
    arcs = sorted(_arcs(sp))
    m = len(arcs)
    if m < k:
        return False
    cross = [0] * m
    for i in range(m):
        a1, b1 = arcs[i]
        for j in range(i + 1, m):
            a2, b2 = arcs[j]
            if a1 < a2 < b1 < b2:
                cross[i] |= 1 << j
                cross[j] |= 1 << i

    def clique(candidates: int, need: int) -> bool:
        if need == 0:
            return True
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            if clique(candidates & cross[i], need - 1):
                return True
        return False

    return clique((1 << m) - 1, k)


class TestNonKCrossing:
    def test_tableau_walk_matches_brute_force(self):
        # the arc diagrams of all Bell(n) partitions, searched for k-cliques
        for n in range(1, 10):
            parts = list(generate_set_partitions(n))
            for k in (2, 3, 4):
                brute = sum(1 for sp in parts if not _has_k_crossing(sp, k))
                assert non_k_crossing_partition_count(n, k) == brute, (n, k)

    def test_too_few_arcs_for_a_k_crossing(self):
        # a k-crossing has 2k distinct ends, so every partition of
        # {1..n} is non-k-crossing when 2k > n
        for n in range(1, 11):
            for k in range(max(2, n // 2 + 1), n + 2):
                assert non_k_crossing_partition_count(n, k) == bell(n), (n, k)

    def test_agrees_with_210_avoiders_through_14(self):
        # the paper's link between 210-avoiding ascent sequences and
        # non-3-crossing partitions, derived by two unrelated counts
        series = count_avoiders((2, 1, 0), 14)
        for n in range(1, 15):
            assert non_k_crossing_partition_count(n, 3) == series.values[n], n
        assert series.values[14] == 96505490

    def test_long_walks_against_closed_forms(self):
        # shapes too big to get back to empty are dropped from the walk,
        # so these take milliseconds; 2k > n makes every partition count
        assert non_k_crossing_partition_count(33, 17) == bell(33)
        assert non_k_crossing_partition_count(150, 2) == catalan(150)

    def test_work_limit_counts_the_pruned_walk(self):
        # the limit estimates the walk that drops shapes too big to get
        # back to empty, so (40, 8), which takes about 0.05 s, is accepted
        below = non_k_crossing_partition_count(40, 7)
        count = non_k_crossing_partition_count(40, 8)
        assert below < count < bell(40)

    @pytest.mark.parametrize("args", [(60, 31), (400, 3), (979, 979),
                                      (10**9, 3), (10**6, 10**5)])
    def test_refusal_comes_before_the_walk(self, monkeypatch, args):
        # the walk's first layer is a Counter; a refusal never builds it
        def walked(*_):
            raise AssertionError("the walk started")

        monkeypatch.setattr(oracles, "Counter", walked)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="supported") as info:
            non_k_crossing_partition_count(*args)
        assert time.perf_counter() - start < 0.5
        assert len(str(info.value)) < 100

    def test_base_cases(self):
        assert non_k_crossing_partition_count(4, 2) == 14
        assert all(non_k_crossing_partition_count(1, k) == 1
                   for k in (2, 3, 4))

    def test_k2_agrees_with_quadruple_definition(self):
        for n in range(1, 9):
            arcwise = non_k_crossing_partition_count(n, 2)
            literal = sum(1 for sp in generate_set_partitions(n)
                          if naive_is_noncrossing(sp))
            assert arcwise == literal == catalan(n)

    def test_non_3_crossing_prefix(self):
        got = [non_k_crossing_partition_count(n, 3) for n in range(1, 10)]
        assert got == [1, 2, 5, 15, 52, 202, 859, 3930, 19095]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            non_k_crossing_partition_count(0, 3)
        with pytest.raises(ValueError):
            non_k_crossing_partition_count(3, 1)


class TestWilf:
    def test_known_classes(self):
        report = wilf_classify(["10", "001", "010", "011", "012"], 10)
        assert report.classes == [["10", "001", "010", "011", "012"]]
        report = wilf_classify(["101", "021", "0101"], 10)
        assert report.classes == [["021", "101", "0101"]]

    @pytest.mark.parametrize("patterns", ["012", b"012"],
                             ids=["str", "bytes"])
    def test_a_bare_string_is_refused(self, patterns):
        # iterated, "012" would be classified as the three one-letter
        # patterns 0, 1 and 2, which fall in one class
        with pytest.raises(ValueError, match="^patterns must be an iterable "
                           f"of patterns, not {type(patterns).__name__}$"):
            wilf_classify(patterns, 5)

    def test_separation(self):
        report = wilf_classify(["000", "100"], 5)
        assert report.classes == [["000"], ["100"]]
        # the rows 1,2,4,10,27 and 1,2,5,14,44 first differ at length 3
        assert report.separations == {("000", "100"): 3}
        assert report.series["000"].values[5] == 27
        assert report.series["100"].values[5] == 44

    def test_duplicates_normalized_away(self):
        report = wilf_classify(["101", (1, 0, 1), "212"], 6)
        assert report.classes == [["101"]]

    def test_patterns_with_ten_or_more_values(self):
        # the label of such a pattern is comma-separated
        report = wilf_classify([tuple(range(11)), (0, 1)], 5)
        assert report.series["0,1,2,3,4,5,6,7,8,9,10"].as_list() == \
            count_avoiders(tuple(range(11)), 5).as_list()
        assert report.classes == [["01"], ["0,1,2,3,4,5,6,7,8,9,10"]]

    def test_all_patterns_universe(self):
        pats = all_patterns(4)
        assert len(pats) == 92
        assert pats[0] == "0" and "0123" in pats and "2102" in pats
        assert len(all_patterns(5)) == 633

    @pytest.mark.parametrize("bad", [2.5, "3", True])
    def test_all_patterns_refuses_a_length_that_is_not_an_int(self, bad):
        with pytest.raises(ValueError, match="must be ints"):
            all_patterns(bad)

    @pytest.mark.parametrize("too_long", [8, 10**6])
    def test_all_patterns_refuses_a_length_it_cannot_finish(self, too_long):
        # length m scans all m^m words: 8^8 is 1.7e7, 12^12 about 9e12
        start = time.monotonic()
        with pytest.raises(ValueError, match="above 7"):
            all_patterns(too_long)
        assert time.monotonic() - start < 0.1

    def test_full_length4_classification_needs_depth_10(self):
        # at depth 9 three extra pairs coincide; at depth 10 exactly the
        # known equivalences survive, all other patterns separate
        report = wilf_classify(all_patterns(4), 10)
        multi = [g for g in report.classes if len(g) > 1]
        assert multi == [
            ["00", "01"],
            ["10", "001", "010", "011", "012"],
            ["021", "101", "0012", "0101"],
            ["102", "0102", "0112"],
            ["0021", "1012"],
        ]
        # depth-9 classes from the same series, cut at length 9
        shallow: dict[tuple, list[str]] = {}
        for label, series in report.series.items():
            shallow.setdefault(tuple(series.as_list()[:9]), []).append(label)
        extra = sorted((g for g in shallow.values()
                        if len(g) > 1 and g not in multi),
                       key=lambda g: (len(g[0]), g[0]))
        assert extra == [["0312", "1302"], ["1021", "1230"], ["2021", "2310"]]


    @pytest.mark.parametrize("seed", range(6))
    def test_settled_classification_matches_full_series(self, seed):
        rng = random.Random(seed)
        labels = rng.sample(all_patterns(4), rng.randint(2, 30))
        n_max = rng.randint(5, 9)
        report = wilf_classify(labels, n_max)
        # the old way: count every pattern to full depth, then group
        full = {label: count_avoiders(as_word(label), n_max).as_list()
                for label in labels}
        groups: dict[tuple, list[str]] = {}
        for label in labels:
            groups.setdefault(tuple(full[label]), []).append(label)

        def order(label):
            return len(label), label
        classes = sorted((sorted(g, key=order) for g in groups.values()),
                         key=lambda g: order(g[0]))
        separations = {
            (g1[0], g2[0]): next(m + 1 for m in range(n_max)
                                 if full[g1[0]][m] != full[g2[0]][m])
            for i, g1 in enumerate(classes) for g2 in classes[i + 1:]}
        assert report.classes == classes
        assert report.separations == separations
        assert sorted(report.series) == sorted(labels)
        for label in labels:
            assert report.series[label].as_list() == full[label], label

    def test_separations_match_a_pairwise_scan(self):
        # all 633 patterns of length <= 5 at n = 9, where 392 classes
        # still split at every length 1..9: the separations, read off
        # the settled prefixes of the two classes' first labels, equal a
        # scan of each pair of full series for the first length where
        # they differ, in the same order
        n_max = 9
        report = wilf_classify(all_patterns(5), n_max)
        firsts = [g[0] for g in report.classes]
        full = {label: count_avoiders(as_word(label), n_max).as_list()
                for label in firsts}
        separations = {}
        for i, a in enumerate(firsts):
            for b in firsts[i + 1:]:
                separations[a, b] = next(m + 1 for m in range(n_max)
                                         if full[a][m] != full[b][m])
        assert set(separations.values()) == set(range(1, n_max + 1))
        assert list(report.separations.items()) == list(separations.items())

    def test_settled_patterns_stop_counting(self):
        # counting every pattern to length 12 checks every key of its
        # layers up to 11, and 1001's layer 11 alone has 45575 keys;
        # 1001's series is unique from length 8 on
        calls = [0]

        def check():
            calls[0] += 1
        report = wilf_classify(all_patterns(4), 12, check=check)
        assert calls[0] < 45575
        assert len(report.classes) == 81

    def test_series_is_read_only(self):
        report = wilf_classify(["000", "100"], 5)
        with pytest.raises(TypeError):
            report.series["000"] = count_avoiders((0, 0, 0), 5)
        with pytest.raises(KeyError):
            report.series["011"]
        assert len(report.series) == 2
        assert "000" in report.series and "011" not in report.series


@pytest.mark.parametrize("record,fields,text", [
    (CountSeries("01", {1: 1}), ("label", "values"),
     "CountSeries(label='01', values={1: 1})"),
    (oracles.WilfReport(2, [["01"]], {}, {}),
     ("n_max", "classes", "series", "separations"),
     "WilfReport(n_max=2, classes=[['01']], series={}, separations={})"),
    (oracles.ConjectureVerdict(4, False, "planted"),
     ("n", "holds", "witness"),
     "ConjectureVerdict(n=4, holds=False, witness='planted')"),
    (oracles.ConjectureResult("210", 1, [oracles.ConjectureVerdict(1, True)]),
     ("conjecture", "n_max", "verdicts"),
     "ConjectureResult(conjecture='210', n_max=1, "
     "verdicts=[ConjectureVerdict(n=1, holds=True, witness=None)])"),
    (LiftedBinaryDecomposition((0, 1), [(0, (0, 1))]), ("head", "blocks"),
     "LiftedBinaryDecomposition(head=(0, 1), blocks=[(0, (0, 1))])"),
])
def test_records_keep_their_fields_and_repr(record, fields, text):
    assert record._fields == fields
    assert repr(record) == text


class TestGrowth:
    def test_constant_series(self):
        cs = CountSeries("01", {n: 1 for n in range(1, 6)})
        assert growth_rate_estimates(cs) == [(n, 1.0) for n in range(1, 6)]

    def test_catalan_series_climbs_toward_4(self):
        cs = count_avoiders((1, 0, 1), 10)
        roots = [r for _, r in growth_rate_estimates(cs)]
        assert roots == sorted(roots)
        assert 2.0 < roots[-1] < 4.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            growth_rate_estimates(CountSeries("0", {1: 0}))

    def test_counts_past_the_float_range(self):
        # 2^(n-1) passes the largest float at n = 1025; the roots
        # 2^((n-1)/n) still climb toward 2
        cs = CountSeries("001", {n: 2 ** (n - 1) for n in range(1, 1100)})
        roots = [r for _, r in growth_rate_estimates(cs)]
        assert roots[0] == 1.0
        assert roots == sorted(roots)
        assert 0 < 2 - roots[-1] < 0.002


class TestConjectures:
    @pytest.mark.parametrize("cid,nmax", [
        ("bi-021", 6), ("0012", 6), ("210", 7), ("0123", 8),
        ("0021-wilf", 8), ("0021-count", 8), ("modi", 6),
    ])
    def test_holds_at_small_scale(self, cid, nmax):
        res = run_conjecture(cid, nmax)
        assert res.holds, [v for v in res.verdicts if not v.holds]
        assert [v.n for v in res.verdicts] == list(range(1, nmax + 1))

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="^unknown conjecture 'nope'; "
                           r"choose from \['bi-021', "):
            run_conjecture("nope", 3)

    def test_defaults_exist(self):
        res = run_conjecture("0123")
        assert res.n_max == 11 and res.holds

    @pytest.mark.parametrize("cid,bumped,witness", [
        ("210", (2, 1, 0), "|A_210|: got 6, non-3-crossing partitions "
         "gives 5"),
        ("0123", (0, 1, 2, 3), "|A_0123|: got 6, height-5 Dyck recurrence "
         "gives 5"),
        ("0021-wilf", (0, 0, 2, 1), "|A_0021|: got 6, |A_1012| gives 5"),
        ("0021-wilf", (1, 0, 1, 2), "|A_0021|: got 5, |A_1012| gives 6"),
        ("0021-count", (0, 0, 2, 1), "|A_0021|: got 6, binomial transform "
         "of Catalan gives 5"),
        ("0021-count", (1, 0, 1, 2), "|A_1012|: got 6, binomial transform "
         "of Catalan gives 5"),
    ])
    def test_count_witness(self, monkeypatch, cid, bumped, witness):
        # one count off by one at n=3 fails that length alone
        real = oracles.count_avoiders

        def off_by_one(p, n_max, check=None):
            series = real(p, n_max, check=check)
            if tuple(p) != bumped:
                return series
            return CountSeries(series.label,
                               {**series.values, 3: series.values[3] + 1})

        monkeypatch.setattr(oracles, "count_avoiders", off_by_one)
        res = run_conjecture(cid, 4)
        assert [v.holds for v in res.verdicts] == [True, True, False, True]
        assert res.verdicts[2].n == 3
        assert res.verdicts[2].witness == witness

    @pytest.mark.parametrize("cid,layered,bumped,witness", [
        ("bi-021", "joint_histograms", ("perm-avoiders", (0, 2, 1)),
         "(asc, rlmin) on 021-avoiders vs 132-avoiding perms differ at key "
         "(0, 1): 1 vs 2"),
        ("0012", "joint_histograms", ("avoiders", (0, 0, 1, 2)),
         "|A_0012|: got 6, Catalan gives 5"),
        ("0012", "joint_histograms", ("perm-avoiders", (0, 2, 1)),
         "(asc, fwd) vs (asc, rlmax) on 132-avoiders differ at key (0, 3): "
         "1 vs 2"),
        ("modi", "modified_asc_counts", (1, 0, 2, 1),
         "modified 1021-avoiders: got 6, Bell gives 5"),
    ])
    def test_histogram_witness(self, monkeypatch, cid, layered, bumped,
                               witness):
        # one histogram at n=3 gains 1 at its smallest key
        real = getattr(oracles, layered)

        def off_by_one(first, *args, **kwargs):
            for n, hist in real(first, *args, **kwargs):
                if n == 3 and first == bumped:
                    hist = Counter(hist)
                    hist[min(hist)] += 1
                yield n, hist

        monkeypatch.setattr(oracles, layered, off_by_one)
        res = run_conjecture(cid, 4)
        assert [v.holds for v in res.verdicts] == [True, True, False, True]
        assert res.verdicts[2].n == 3
        assert res.verdicts[2].witness == witness


class TestFixtures:
    def test_patterns_present(self):
        pats = table_patterns()
        for label in ("000", "001", "101", "021", "0101", "102", "110",
                      "120", "201", "210", "0123", "0021", "1012"):
            assert label in pats

    def test_formula_rows_extend(self):
        vals = expected_counts("001", 12)
        assert vals[12] == 2 ** 11
        vals = expected_counts("0101", 12)
        assert vals[12] == catalan(12)
        vals = expected_counts("0112", 12)
        assert vals[12] == half_power_formula(12)

    def test_raw_rows_stop(self):
        assert expected_counts("210", 13)[13] == 16434105
        with pytest.raises(ValueError):
            expected_counts("210", 14)
        assert expected_counts("000", 14)[14] == 10427250

    def test_available_depth(self):
        assert available_depth("101", 20) == 20      # closed form extends
        assert available_depth("210", 20) == 13      # raw row stops
        assert available_depth("000", 12) == 12
        with pytest.raises(ValueError):
            available_depth("9999", 5)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            expected_counts("9999", 5)
