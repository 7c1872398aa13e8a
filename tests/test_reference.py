"""The counts of ``avoider_counts`` and the histograms of
``modified_asc_counts`` against the reference counts of
``reference.py``, which share no code with the package's engine.

Every count n of ``avoider_counts(p, n_max)`` is read off layer n - 2,
but the leaves totals of the last layer are not kept, so each length is
checked both as a last count and as one count of a deeper call.  The
last two histograms of ``modified_asc_counts(p, n_max)`` are both summed
off layer n_max - 2, so each n_max is checked whole."""

from functools import cache

import pytest

from ascentseq.enumeration import avoider_counts, modified_asc_counts
from ascentseq.oracles import all_patterns

import reference
from conftest import pat


def last_counts(p, n_max):
    return {n: dict(avoider_counts(p, n))[n] for n in range(1, n_max + 1)}


@cache
def reference_counts(label, n_max):
    return reference.avoider_counts(pat(label), n_max)


@pytest.mark.parametrize("label", all_patterns(4))
def test_every_short_pattern(label):
    assert last_counts(pat(label), 9) == reference_counts(label, 9)


@pytest.mark.parametrize("label", all_patterns(4))
def test_every_count_of_one_call(label):
    assert dict(avoider_counts(pat(label), 9)) == reference_counts(label, 9)


# the rows of the published table that no closed form checks
@pytest.mark.parametrize("label", ["000", "100", "110", "120", "201"])
def test_rows_without_a_formula(label):
    p = pat(label)
    assert last_counts(p, 12) == reference.avoider_counts(p, 12)


@pytest.mark.parametrize("label", all_patterns(4))
def test_modified_asc_histograms(label):
    p = pat(label)
    want = reference.modified_asc_counts(p, 8)
    for n_max in range(1, 9):
        assert {n: dict(hist) for n, hist in modified_asc_counts(p, n_max)
                } == {n: want[n] for n in range(1, n_max + 1)}, n_max
