"""The counts of ``avoider_counts``, the histograms of
``modified_asc_counts`` and the ``asc`` histograms of
``joint_histograms`` against the reference counts of ``reference.py``,
which share no code with the package's engine.

Every count n of ``avoider_counts(p, n_max)`` is read off layer n - 2,
but the leaves totals of the last layer are not kept, so each length is
checked both as a last count and as one count of a deeper call.  The
last two histograms of ``modified_asc_counts(p, n_max)`` are both summed
off layer n_max - 2, and ``joint_histograms`` keeps no children of its
last layer, so each n_max is checked whole."""

from functools import cache

import pytest

from ascentseq.enumeration import (avoider_counts, joint_histograms,
                                   modified_asc_counts)
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


# per set descriptor kind, its reference asc histograms
REFERENCE_HISTOGRAMS = {
    "avoiders": reference.avoider_asc_counts,
    "modified-avoiders": reference.modified_asc_counts,
    "perm-avoiders": reference.perm_asc_counts,
}


@cache
def reference_histograms(kind, label):
    return REFERENCE_HISTOGRAMS[kind](pat(label), 8)


@pytest.mark.parametrize("label", all_patterns(4))
def test_modified_asc_histograms(label):
    p = pat(label)
    want = reference_histograms("modified-avoiders", label)
    for n_max in range(1, 9):
        assert {n: dict(hist) for n, hist in modified_asc_counts(p, n_max)
                } == {n: want[n] for n in range(1, n_max + 1)}, n_max


# every pattern of length <= 4 for the ascent sequences, and the 33 with
# distinct letters for the permutations
JOINT_CASES = [(kind, label) for kind in REFERENCE_HISTOGRAMS
               for label in all_patterns(4)
               if kind != "perm-avoiders" or len(set(label)) == len(label)]


@pytest.mark.parametrize("kind, label", JOINT_CASES)
def test_joint_asc_histograms(kind, label):
    p = pat(label)
    want = reference_histograms(kind, label)
    for n_max in range(1, 9):
        assert {n: {a: ways for (a,), ways in hist.items()}
                for n, hist in joint_histograms((kind, p), n_max, "asc")
                } == {n: want[n] for n in range(1, n_max + 1)}, n_max
