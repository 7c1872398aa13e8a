"""The last count of ``avoider_counts`` against the reference count of
``reference.py``, which shares no code with the package's engine.

Count n of ``avoider_counts(p, n_max)`` is read off layer n - 1 for
n < n_max, and the last one off layer n_max - 2 by reading the dead
masks of its children, so each length is checked as a last count."""

import pytest

from ascentseq.enumeration import avoider_counts
from ascentseq.oracles import all_patterns

import reference
from conftest import pat


def last_counts(p, n_max):
    return {n: dict(avoider_counts(p, n))[n] for n in range(1, n_max + 1)}


@pytest.mark.parametrize("label", all_patterns(4))
def test_every_short_pattern(label):
    p = pat(label)
    assert last_counts(p, 9) == reference.avoider_counts(p, 9)


# the rows of the published table that no closed form checks
@pytest.mark.parametrize("label", ["000", "100", "110", "120", "201"])
def test_rows_without_a_formula(label):
    p = pat(label)
    assert last_counts(p, 12) == reference.avoider_counts(p, 12)
