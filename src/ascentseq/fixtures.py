"""Bundled reference counting table and access helpers."""

from __future__ import annotations

import json
import os
from functools import cache, lru_cache

# read beside this file: importlib.resources imports inspect, tempfile
# and pathlib on CPython 3.13, about 11 ms of every cold start there.
# The closed forms come from oracles on the first formula check, so
# import ascentseq plus load_table() compiles this module and the
# package's __init__ alone.
_TABLE = os.path.join(os.path.dirname(__file__), "data", "table1.json")

# a closed form is evaluated at every length up to the one asked for:
# the Catalan row (101) takes 0.56 s to 2000 and 6.2 s to 5000 (2-core
# x86-64, CPython 3.11)
_MAX_N = 2000


@cache
def _formulas() -> dict:
    from .oracles import catalan, half_power_formula
    return {"two_power": lambda n: 2 ** (n - 1),
            "half_power": half_power_formula,
            "catalan": catalan}


def _check_length(n: int) -> None:
    # enumeration._check_length's wording, without importing the engine
    if type(n) is not int:
        raise ValueError(f"length must be an int, not {n!r}")
    if n < 1:
        raise ValueError("length must be at least 1")


@lru_cache(maxsize=1)
def load_table() -> list[dict]:
    with open(_TABLE, encoding="utf-8") as f:
        return json.load(f)["rows"]


def table_patterns() -> list[str]:
    """All pattern labels covered by the bundled table, row order."""
    return [p for row in load_table() for p in row["patterns"]]


def _row(pattern: str) -> dict:
    for row in load_table():
        if pattern in row["patterns"]:
            return row
    raise ValueError(f"pattern {pattern!r} not in the reference table")


def available_depth(pattern: str, wanted: int) -> int:
    """Largest n <= wanted for which reference counts exist.

    Rows with a closed form extend to length 2000; raw rows stop at
    their stored length.
    """
    _check_length(wanted)
    row = _row(pattern)
    return min(wanted, _MAX_N if row["formula"] else len(row["values"]))


def expected_counts(pattern: str, n_max: int) -> dict[int, int]:
    """Reference counts for a pattern up to n_max.

    Rows with a closed form are extended by it beyond the stored terms
    (the stored prefix is checked against the formula on every call);
    other rows raise when asked past their stored range.  Lengths
    above 2000 are refused.
    """
    _check_length(n_max)
    if n_max > _MAX_N:
        raise ValueError(f"lengths above {_MAX_N} are not supported")
    row = _row(pattern)
    values = {n + 1: v for n, v in enumerate(row["values"])}
    formula = _formulas().get(row["formula"]) if row["formula"] else None
    if formula is not None:
        for n, v in values.items():
            if formula(n) != v:
                raise AssertionError(
                    f"stored value for {pattern} at n={n} contradicts formula")
        for n in range(len(values) + 1, n_max + 1):
            values[n] = formula(n)
    if n_max > max(values):
        raise ValueError(
            f"reference table for {pattern!r} stops at n={max(values)}")
    return {n: v for n, v in values.items() if n <= n_max}
