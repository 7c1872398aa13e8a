"""The README tour and the module doctests run as tests."""

import doctest
from pathlib import Path

import ascentseq.core

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_core_doctests():
    result = doctest.testmod(ascentseq.core)
    assert result.attempted > 0 and result.failed == 0
