"""Every exported callable that takes a length, a word or a pattern,
given a bad one: it refuses with a short ValueError, or it returns at
once (a generator yields its first item, or ends, at once)."""

import signal
from contextlib import contextmanager

import pytest

import ascentseq as lib

BIG = 10**30

# per kind of bad input, a bad length and a bad word or pattern
BAD = {
    "non-int": (None, None),
    "float": (2.5, (0, 1.5)),
    "str": ("3", "01"),
    "negative": (-1, (0, -1)),
    "oversized": (BIG, (0, BIG)),
    "long": (lib.enumeration.MAX_LENGTH + 1, (0,) * 10**5),
}

P = (0, 1, 0)       # a good pattern, a good word
X = (0, 1, 0, 2)    # a good ascent sequence

# per callable and argument, the call with a bad length (n) or a bad
# word or pattern (w) in that argument and good ones elsewhere
LENGTH_CALLS = {
    **{name: getattr(lib, name) for name in (
        "count_ascent_sequences", "generate_ascent_sequences",
        "generate_restricted", "generate_set_partitions", "all_patterns",
        "bell", "binomial_transform_catalan", "catalan",
        "dyck_height5_count", "half_power_formula",
        "ternary_even_twos_count")},
    "avoiders": lambda n: lib.avoiders(P, n),
    "perm_avoiders": lambda n: lib.perm_avoiders((0, 1), n),
    "count_avoiders": lambda n: lib.count_avoiders(P, n),
    "count_modified_avoiders": lambda n: lib.count_modified_avoiders(P, n),
    "modified_avoiders": lambda n: lib.modified_avoiders(P, n),
    "modified_asc_counts": lambda n: lib.modified_asc_counts(P, n),
    "distribution": lambda n: lib.distribution(P, n, "asc"),
    "joint_distribution": lambda n: lib.joint_distribution(
        ("avoiders", P), n, "asc"),
    "joint_histograms": lambda n: lib.joint_histograms(
        ("avoiders", P), n, "asc"),
    "run_conjecture": lambda n: lib.run_conjecture("210", n),
    "wilf_classify": lambda n: lib.wilf_classify(["01", "10"], n),
    "narayana[n]": lambda n: lib.narayana(n, 2),
    "narayana[k]": lambda n: lib.narayana(5, n),
    "stirling2[n]": lambda n: lib.stirling2(n, 2),
    "stirling2[k]": lambda n: lib.stirling2(5, n),
    "non_k_crossing_partition_count[n]":
        lambda n: lib.non_k_crossing_partition_count(n, 2),
    "non_k_crossing_partition_count[k]":
        lambda n: lib.non_k_crossing_partition_count(5, n),
    "expected_counts": lambda n: lib.fixtures.expected_counts("101", n),
    "available_depth": lambda n: lib.fixtures.available_depth("101", n),
}

WORD_CALLS = {
    **{name: getattr(lib, name) for name in (
        "as_word", "asc", "des", "fwd", "lrmax", "lrmin", "rlmax", "rlmin",
        "zeros", "word_str", "is_ascent_sequence", "is_restricted",
        "is_rgf", "is_permutation", "is_pattern", "normalize_pattern",
        "maximal_positions", "modify", "unmodify", "phi",
        "perm231_to_ncpartition", "perm312_to_seq101", "seq101_to_perm312",
        "seq102_to_ternary", "ternary_to_seq102", "restricted_to_021",
        "seq021_to_restricted", "reduce_tail", "lifted_binary_decompose",
        "rgf_decode")},
    "stat": lambda w: lib.stat(w, "asc"),
    "contains[word]": lambda w: lib.contains(w, P),
    "contains[pattern]": lambda w: lib.contains(X, w),
    "avoids[word]": lambda w: lib.avoids(w, P),
    "avoids[pattern]": lambda w: lib.avoids(X, w),
    "count_occurrences[word]": lambda w: lib.count_occurrences(w, P),
    "count_occurrences[pattern]": lambda w: lib.count_occurrences(X, w),
    "perm_contains[word]": lambda w: lib.perm_contains(w, (1, 0)),
    "perm_contains[pattern]": lambda w: lib.perm_contains((2, 1, 3), w),
    "avoiders[pattern]": lambda w: lib.avoiders(w, 4),
    "perm_avoiders[pattern]": lambda w: lib.perm_avoiders(w, 4),
    "count_avoiders[pattern]": lambda w: lib.count_avoiders(w, 4),
    "count_modified_avoiders[pattern]":
        lambda w: lib.count_modified_avoiders(w, 4),
    "modified_avoiders[pattern]": lambda w: lib.modified_avoiders(w, 4),
    "modified_asc_counts[pattern]": lambda w: lib.modified_asc_counts(w, 4),
    "distribution[pattern]": lambda w: lib.distribution(w, 4, "asc"),
    "joint_distribution[pattern]": lambda w: lib.joint_distribution(
        ("avoiders", w), 4, "asc"),
    "joint_histograms[pattern]": lambda w: lib.joint_histograms(
        ("avoiders", w), 4, "asc"),
    "wilf_classify[pattern]": lambda w: lib.wilf_classify([w, "01"], 4),
}

# per kind of bad name, a bad statistic, set kind, conjecture id or
# collection of patterns
BAD_NAMES = {
    "list": ["asc"],
    "dict": {"modi": 1},
    "int": 5,
    "none": None,
    "unknown": "nosuch",
    "long": "x" * 10**5,
}

# per callable and argument, the call with a bad name in that argument
NAME_CALLS = {
    "stat": lambda s: lib.stat(X, s),
    "distribution": lambda s: lib.distribution(P, 3, s),
    "joint_distribution[stat]": lambda s: lib.joint_distribution(
        ("avoiders", P), 3, s),
    "joint_distribution[kind]": lambda s: lib.joint_distribution(
        (s, P), 3, "asc"),
    "joint_histograms[stat]": lambda s: lib.joint_histograms(
        ("avoiders", P), 3, s),
    "joint_histograms[kind]": lambda s: lib.joint_histograms(
        (s, P), 3, "asc"),
    "run_conjecture": lambda s: lib.run_conjecture(s, 3),
    "wilf_classify": lambda s: lib.wilf_classify(s, 3),
}

# bad set partitions, and arguments that are no count series
BAD_PARTITIONS = {
    "none": None,
    "int": 5,
    "flat": (0, 1),
    "str-element": [["a"]],
    "overlapping": [[1], [1]],
    "oversized": [[BIG]],
}

# per callable, the call with a bad partition or count series
PARTITION_CALLS = {
    name: getattr(lib, name) for name in (
        "standardize_partition", "partition_str", "rgf_encode",
        "is_noncrossing", "growth_rate_estimates")}

# count series values that are no dict of int counts >= 1 keyed by int
# lengths >= 1 (bools are refused), and a count whose root is past float
# range
BAD_SERIES = {
    "none": None,
    "str": "0",
    "list": [1, 2],
    "str-count": {1: "a"},
    "bool-count": {1: True},
    "zero-count": {1: 0},
    "zero-length": {0: 1},
    "negative-length": {-2: 4},
    "float-length": {1.5: 2},
    "bool-length": {True: 2},
    "huge-root": {1: 10**400},
}

# budget hooks that cannot be called
BAD_CHECKS = {"int": 5, "str": "x", "object": object()}

# per public callable that takes a budget hook, the call with a bad one
CHECK_CALLS = {
    "avoiders": lambda c: lib.avoiders(P, 4, check=c),
    "avoider_counts": lambda c: lib.avoider_counts((0, 1), 5, check=c),
    "count_avoiders": lambda c: lib.count_avoiders(P, 4, check=c),
    "perm_avoiders": lambda c: lib.perm_avoiders((0, 1), 4, check=c),
    "modified_avoiders": lambda c: lib.modified_avoiders(P, 4, check=c),
    "modified_asc_counts": lambda c: lib.modified_asc_counts(P, 4, check=c),
    "count_modified_avoiders":
        lambda c: lib.count_modified_avoiders(P, 4, check=c),
    "joint_histograms": lambda c: lib.joint_histograms(
        ("avoiders", (0, 1)), 5, "asc", check=c),
    "joint_distribution": lambda c: lib.joint_distribution(
        ("perm-avoiders", (0, 1)), 4, "asc", check=c),
    "wilf_classify": lambda c: lib.wilf_classify(["01"], 4, check=c),
    **{f"run_conjecture[{cid}]":
       (lambda cid: lambda c: lib.run_conjecture(cid, 5, check=c))(cid)
       for cid in lib.oracles.CONJECTURE_IDS},
}

CASES = [(name, call, kind, BAD[kind][0])
         for name, call in LENGTH_CALLS.items() for kind in BAD] + \
        [(name, call, kind, BAD[kind][1])
         for name, call in WORD_CALLS.items() for kind in BAD]


class _Slow(Exception):
    pass


def _alarm(signum, frame):
    raise _Slow


@contextmanager
def _three_seconds(what):
    # fails the test when the body takes 3 s
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(3)
    try:
        yield
    except _Slow:
        pytest.fail(f"{what} took 3 s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("name,call,kind,arg", CASES,
                         ids=[f"{name}-{kind}" for name, _, kind, _ in CASES])
def test_bad_argument_is_refused_or_answered_at_once(name, call, kind, arg):
    with _three_seconds(f"{name} on a {kind} argument"):
        try:
            result = call(arg)
            if hasattr(result, "__next__"):
                next(result, None)
        except ValueError as e:
            assert len(str(e)) < 300, (name, kind, len(str(e)))


NAME_CASES = [(name, call, kind, arg) for name, call in NAME_CALLS.items()
              for kind, arg in BAD_NAMES.items()] + \
             [(name, call, kind, arg)
              for name, call in PARTITION_CALLS.items()
              for kind, arg in BAD_PARTITIONS.items()]


@pytest.mark.parametrize("name,call,kind,arg", NAME_CASES,
                         ids=[f"{name}-{kind}"
                              for name, _, kind, _ in NAME_CASES])
def test_bad_name_is_refused(name, call, kind, arg):
    # a name that is not a str must not reach a dict lookup, which
    # raises TypeError when it is unhashable, nor a for loop, and a long
    # one is abridged in the message; nor may a set partition or count
    # series of the wrong shape reach a for loop or an attribute lookup
    with _three_seconds(f"{name} on a {kind} name"):
        with pytest.raises(ValueError) as exc:
            call(arg)
    assert len(str(exc.value)) < 300, (name, kind)


@pytest.mark.parametrize("name", CHECK_CALLS)
@pytest.mark.parametrize("kind", BAD_CHECKS)
def test_a_hook_that_cannot_be_called_is_refused(name, kind):
    # before it is first called, where it raised TypeError; a generator
    # refuses on its first item
    with pytest.raises(ValueError) as exc:
        result = CHECK_CALLS[name](BAD_CHECKS[kind])
        if hasattr(result, "__next__"):
            next(result)
    assert str(exc.value).startswith("check must be callable or None")
    assert len(str(exc.value)) < 300, (name, kind)


@pytest.mark.parametrize("kind", BAD_SERIES)
def test_bad_count_series_is_refused(kind):
    # a bad length or count must not reach sorted, a comparison or the
    # logarithm, which raise TypeError, ZeroDivisionError or
    # OverflowError on them, and a bool or a float length must not be
    # read as a number
    series = lib.CountSeries("0", BAD_SERIES[kind])
    with pytest.raises(ValueError) as exc:
        lib.growth_rate_estimates(series)
    assert len(str(exc.value)) < 300, kind


@pytest.mark.parametrize("w, p", [
    ((0,) * 80000, (0,) * 40000),
    (tuple(range(40000)), tuple(range(20000))),
], ids=["repeated", "distinct"])
def test_long_pattern_in_a_longer_word_is_answered_at_once(w, p):
    # the search plan of a pattern finds each letter's nearest earlier
    # letters below and above by a binary search; when it rebuilt the set
    # of letters before every position, the plan of 40000 zeros took
    # about 7 s
    with _three_seconds(f"contains of a {len(p)}-letter pattern"):
        assert lib.contains(w, p)


@pytest.mark.parametrize("call,n,message", [
    ("expected_counts", 2.5, "length must be an int, not 2.5"),
    ("expected_counts", "3", "length must be an int, not '3'"),
    ("expected_counts", None, "length must be an int, not None"),
    ("expected_counts", True, "length must be an int, not True"),
    ("expected_counts", 0, "length must be at least 1"),
    ("available_depth", "x", "length must be an int, not 'x'"),
    ("available_depth", 2.5, "length must be an int, not 2.5"),
    ("available_depth", False, "length must be an int, not False"),
    ("available_depth", -1, "length must be at least 1"),
])
@pytest.mark.parametrize("pattern", ["001", "101", "0123"])
def test_reference_lengths_are_checked(call, n, message, pattern):
    # a bool is an int to Python, so True would read as length 1
    with pytest.raises(ValueError) as exc:
        getattr(lib.fixtures, call)(pattern, n)
    assert str(exc.value) == message


def test_closed_forms_stop_at_their_limit():
    limit = lib.fixtures._MAX_N
    with _three_seconds(f"the Catalan row to {limit}"):
        assert len(lib.fixtures.expected_counts("101", limit)) == limit
    for pattern in ("001", "102", "101"):
        assert lib.fixtures.available_depth(pattern, limit + 1) == limit
        with pytest.raises(ValueError, match=f"lengths above {limit} are "
                           "not supported"):
            lib.fixtures.expected_counts(pattern, limit + 1)
    assert lib.fixtures.available_depth("210", limit + 1) == 13
