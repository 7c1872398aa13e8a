"""The README tour and the module doctests run as tests."""

import doctest
from pathlib import Path

import ascentseq.bijections
import ascentseq.core

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_core_doctests():
    result = doctest.testmod(ascentseq.core)
    assert result.attempted > 0 and result.failed == 0


def test_bijections_doctests():
    # the worked examples: 01023200 -> 45378621 and back,
    # 011213232 -> 641325879, 010221212 -> 010441312, 124-36-5 -> 001021
    result = doctest.testmod(ascentseq.bijections)
    assert result.attempted >= 5 and result.failed == 0
