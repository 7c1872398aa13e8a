"""The four benchmark workloads: inputs from the seed, one timed pass,
and the untimed checks of every output.

A pass returns a list of items; each item is one CLI invocation or one
bijection round trip.  ``check`` turns the items into a list of
problems, one entry per failed item, so attempted and failed count the
same things.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from functools import cache
from itertools import product
from pathlib import Path

import roundtrip

HERE = Path(__file__).resolve().parent

WILF_N = 9
REDERIVE_N = 7


@cache
def golden() -> dict:
    """Stdout digests and Wilf classes recorded by record_golden.py."""
    return json.loads((HERE / "golden.json").read_text())


def all_patterns() -> list[str]:
    """Patterns of length 1..4: words whose values are exactly 0..k."""
    out = []
    for m in range(1, 5):
        for w in product(range(m), repeat=m):
            if sorted(set(w)) == list(range(len(set(w)))):
                out.append("".join(map(str, w)))
    return out


class CliWorkload:
    """A fixed list of CLI invocations, run through ``cli.main``."""

    kind = "cli"

    def __init__(self, lib, jobs: list[tuple[str, list[str]]]):
        self.lib = lib
        self.jobs = jobs                # (golden key, argv)

    def inputs(self):
        return [argv for _, argv in self.jobs]

    def run_pass(self, tracer=None) -> list[dict]:
        items = []
        for key, argv in self.jobs:
            out, err = io.StringIO(), io.StringIO()
            span = (tracer.span(f"cli.main {argv[0]}") if tracer
                    else contextlib.nullcontext())
            with span, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = self.lib.cli.main(argv)
                except Exception as exc:    # counted as a failed item
                    rc = repr(exc)
            items.append({"key": key, "rc": rc, "stdout": out.getvalue(),
                          "stderr": err.getvalue()})
        return items

    def check(self, items: list[dict]) -> list[str]:
        problems = []
        for item in items:
            why = self._check_item(item)
            if why:
                problems.append(f"{item['key']}: {why}")
        return problems

    def _check_item(self, item: dict) -> str | None:
        if item["rc"] != 0:
            return f"exit code {item['rc']}: {item['stderr'].strip()}"
        digest = hashlib.sha256(item["stdout"].encode()).hexdigest()
        if digest != golden()["stdout_sha256"][item["key"]]:
            return f"stdout sha256 {digest} differs from the golden digest"
        rows = [json.loads(line) for line in item["stdout"].splitlines()]
        return self.check_rows(item["key"], rows)

    def check_rows(self, key: str, rows: list[dict]) -> str | None:
        return None


class CountHand(CliWorkload):
    def __init__(self, lib, seed: int):
        super().__init__(lib, [
            ("table --nmax 12",
             ["table", "--nmax", "12", "--format", "jsonl"]),
            ("count --pattern 210 --n 1..13",
             ["count", "--pattern", "210", "--n", "1..13",
              "--format", "jsonl"]),
        ])
        table = json.loads((Path(lib.__file__).parent / "data" /
                            "table1.json").read_text())
        row = next(r for r in table["rows"] if "210" in r["patterns"])
        self.want_210 = {n + 1: v for n, v in enumerate(row["values"][:13])}

    def check_rows(self, key, rows):
        body = rows[1:-1]
        if key.startswith("table"):
            bad = [r["pattern"] for r in body if r["status"] != "ok"]
            return f"table rows not ok: {bad}" if bad else None
        got = {r["n"]: r["count"] for r in body}
        if got != self.want_210:
            return f"210 counts {got} differ from table1.json"
        return None


class WilfGeneric(CliWorkload):
    def __init__(self, lib, seed: int):
        labels = all_patterns()
        random.Random(seed).shuffle(labels)
        super().__init__(lib, [
            (f"wilf --n {WILF_N}",
             ["wilf", "--n", str(WILF_N), "--pattern", ",".join(labels),
              "--format", "jsonl"]),
        ])
        self.labels = labels
        self._series = None

    def rederived_series(self) -> dict[str, tuple]:
        """Counts for n <= REDERIVE_N by filtering every ascent sequence
        with ``contains``, independent of the counting engine."""
        if self._series is None:
            gen = self.lib.enumeration.generate_ascent_sequences
            contains = self.lib.core.contains
            words = {n: list(gen(n)) for n in range(1, REDERIVE_N + 1)}
            self._series = {
                label: tuple(sum(1 for w in words[n] if not contains(
                    w, tuple(int(ch) for ch in label)))
                    for n in range(1, REDERIVE_N + 1))
                for label in self.labels}
        return self._series

    def check_rows(self, key, rows):
        body = rows[1:-1]
        classes = [r["patterns"].split() for r in body if r["class"] != ""]
        if classes != golden()["wilf_classes"]:
            return "Wilf classes differ from the golden classes"
        series = self.rederived_series()
        for cls in classes:
            if len({series[p] for p in cls}) != 1:
                return f"class {cls} has unequal counts for n <= {REDERIVE_N}"
        for r in body:
            if r["class"] != "":
                continue
            _, a, b, n = r["patterns"].split()
            n = int(n.removeprefix("n="))
            sa, sb = series[a], series[b]
            first = next((m + 1 for m in range(REDERIVE_N)
                          if sa[m] != sb[m]), None)
            if first != (n if n <= REDERIVE_N else None):
                return f"separation {a} {b} n={n} contradicts rederived counts"
        return None


class Conjectures(CliWorkload):
    def __init__(self, lib, seed: int):
        super().__init__(lib, [
            ("conjectures --n 9",
             ["conjectures", "--n", "9", "--format", "jsonl"]),
            ("conjectures --name 210 --n 11",
             ["conjectures", "--name", "210", "--n", "11",
              "--format", "jsonl"]),
        ])

    def check_rows(self, key, rows):
        bad = [r["conjecture"] for r in rows[1:-1] if r["verdict"] != "holds"]
        return f"verdicts not holds: {bad}" if bad else None


class BijectionRoundtrip:
    """Forward map then inverse on seeded inputs of length 10..200."""

    kind = "roundtrip"
    PER_PAIR, LO, HI = 170, 10, 200

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.items = roundtrip.make_items(seed, self.PER_PAIR, self.LO,
                                          self.HI)

    def inputs(self):
        return self.items

    def run_pass(self, tracer=None) -> list[dict]:
        return run_roundtrips(self.lib, self.items, tracer)

    def check(self, items: list[dict]) -> list[str]:
        return check_roundtrips(items)


def run_roundtrips(lib, items, tracer=None) -> list[dict]:
    out = []
    for pair, x in items:
        span = (tracer.span(f"bijections.{pair}") if tracer
                else contextlib.nullcontext())
        with span:
            try:
                t0, t1, ok = roundtrip.run_item(lib.bijections, pair, x)
                error = None if ok else "round trip changed its input"
            except Exception as exc:        # counted as a failed item
                t0 = t1 = 0
                ok, error = False, repr(exc)
        out.append({"pair": pair, "n": len(x), "t0": t0, "t1": t1,
                    "ns": t1 - t0, "ok": ok, "error": error})
    return out


def check_roundtrips(items: list[dict]) -> list[str]:
    return [f"{it['pair']} n={it['n']}: {it['error']}"
            for it in items if not it["ok"]]


WORKLOADS = {
    "count-hand": CountHand,
    "wilf-generic": WilfGeneric,
    "conjectures": Conjectures,
    "bijection-roundtrip": BijectionRoundtrip,
}
