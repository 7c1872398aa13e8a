"""Bundled reference counting table and access helpers."""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .oracles import catalan, half_power_formula


_FORMULAS = {
    "two_power": lambda n: 2 ** (n - 1),
    "half_power": half_power_formula,
    "catalan": catalan,
}


@lru_cache(maxsize=1)
def load_table() -> list[dict]:
    text = resources.files("ascentseq.data").joinpath("table1.json").read_text()
    return json.loads(text)["rows"]


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

    Rows with a closed form extend arbitrarily far; raw rows stop at
    their stored length.
    """
    row = _row(pattern)
    if row["formula"]:
        return wanted
    return min(wanted, len(row["values"]))


def expected_counts(pattern: str, n_max: int) -> dict[int, int]:
    """Reference counts for a pattern up to n_max.

    Rows with a closed form are extended by it beyond the stored terms
    (the stored prefix is always checked against the formula on load);
    other rows raise when asked past their stored range.
    """
    row = _row(pattern)
    values = {n + 1: v for n, v in enumerate(row["values"])}
    formula = _FORMULAS.get(row["formula"]) if row["formula"] else None
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
