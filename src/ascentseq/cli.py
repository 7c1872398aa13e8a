"""Command-line front end.

Subcommands: count, list, dist, bijection, wilf, table, conjectures.
Output is deterministic (byte-identical across runs) in three formats:
an aligned human table, CSV, or line-delimited JSON.
Exit codes: 0 success, 2 usage or domain errors, 3 budget refusals
and runs out of memory, 4 failed verifications (table mismatches,
conjecture failures).
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
import time

from .core import (STATISTICS, as_word, asc, des, is_pattern,
                   normalize_pattern, word_str)
from .enumeration import (_check_length, avoider_counts, avoiders,
                          count_avoiders, joint_histograms,
                          modified_asc_counts)
from .bijections import BIJECTIONS, partition_str, standardize_partition
from .fixtures import available_depth, expected_counts, table_patterns
from .oracles import (CONJECTURE_IDS, all_patterns, run_conjecture,
                      wilf_classify)

FORMAT_TAG = "ascentseq/1"
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

# json.dumps builds a fresh encoder per call when separators are given
_JSON = json.JSONEncoder(separators=(", ", ": "))


class BudgetExceeded(Exception):
    pass


class Budget:
    """Wall-clock guard read on every check(), cheap enough for inner loops."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.deadline = time.monotonic() + seconds

    def check(self):
        if time.monotonic() > self.deadline:
            raise BudgetExceeded(f"budget of {self.seconds:g}s exceeded")


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_n_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad length range {reprlib.repr(text)}")
    _check_length(hi)                   # refuses lengths above MAX_LENGTH
    return lo, hi


def parse_seconds(text: str) -> float:
    """A --budget-seconds value.  NaN is refused: no clock reading
    exceeds a NaN deadline, so it would switch every budget guard off."""
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if math.isnan(seconds):
        raise argparse.ArgumentTypeError("must be a number of seconds, "
                                          f"not {text!r}")
    return seconds


def parse_cli_pattern(text: str) -> tuple[int, ...]:
    """Digit-string patterns only; non-normalized input is rejected."""
    if not text or not text.isdigit():
        raise ValueError("pattern must be a nonempty digit string: "
                         f"{reprlib.repr(text)}")
    p = as_word(text)
    if not is_pattern(p):
        suggestion = word_str(normalize_pattern(p))
        raise ValueError(
            f"pattern {reprlib.repr(text)} is not in normal form; its values "
            f"must be 0..k (did you mean {reprlib.repr(suggestion)}?)")
    return p


def parse_word(text: str) -> tuple[int, ...]:
    if not text.isdigit() and text != "":
        raise ValueError(f"expected a digit string, got {reprlib.repr(text)}")
    return as_word(text)


def parse_partition(text: str):
    blocks = []
    for part in text.split("-"):
        if not part.isdigit():
            raise ValueError(f"bad partition block {reprlib.repr(part)}")
        blocks.append(as_word(part))
    return standardize_partition(blocks)


# ---------------------------------------------------------------------------
# output rendering


def emit(fmt: str, command: str, params: dict, columns: list[str],
         rows: list[dict], status: dict) -> None:
    out = sys.stdout
    if fmt == "jsonl":
        # one write for every line, not one print per row
        header = {"format": FORMAT_TAG, "command": command, **params}
        lines = [_JSON.encode(header)]
        # a row column by column, as json encodes a dict of the columns:
        # an exact int as its repr, anything else by the encoder, whose
        # str fast path builds no encoder
        encode = _JSON.encode
        heads = [(c, encode(c) + ": ") for c in columns]
        for row in rows:
            cells = []
            for c, head in heads:
                v = row[c]
                cells.append(head + (int.__repr__(v) if type(v) is int
                                     else encode(v)))
            lines.append("{" + ", ".join(cells) + "}")
        lines.append(encode({"status": status}))
        out.write("\n".join(lines) + "\n")
        return
    echo = " ".join(f"{k}={_plain(v)}" for k, v in params.items())
    print(f"# {FORMAT_TAG} {command} {echo}".rstrip(), file=out)
    if fmt == "csv":
        print(",".join(columns), file=out)
        for row in rows:
            print(",".join(_plain(row[c]) for c in columns), file=out)
    else:
        cells = [[_plain(row[c]) for c in columns] for row in rows]
        widths = [max([len(c)] + [len(r[i]) for r in cells])
                  for i, c in enumerate(columns)]
        print("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip(),
              file=out)
        for r in cells:
            print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip(),
                  file=out)
    if not status.get("complete", True):
        print(f"# incomplete: {status['reason']}", file=out)


def _plain(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# ---------------------------------------------------------------------------
# subcommands


def _run(args, command: str, params: dict, columns: list[str], rows,
         ok=None) -> int:
    """Drain the row iterator, emit once and pick the exit code.

    A ``BudgetExceeded`` keeps the rows made before it and marks them
    incomplete (exit 3), and so does a ``MemoryError``: the work that
    ran out of memory is dropped with its frames, so the rows can still
    be emitted.  Otherwise the run exits 4 when ``ok`` rejects a row,
    else 0.
    """
    done, status = [], {"complete": True}
    try:
        for row in rows:
            done.append(row)
    except BudgetExceeded as exc:
        status = {"complete": False, "reason": str(exc)}
    except MemoryError:
        status = {"complete": False, "reason": "out of memory"}
    emit(args.format, command, params, columns, done, status)
    if not status["complete"]:
        return EXIT_BUDGET
    if ok is not None and not all(map(ok, done)):
        return EXIT_VERIFY
    return EXIT_OK


def cmd_count(args) -> int:
    p = parse_cli_pattern(args.pattern)
    lo, hi = parse_n_range(args.n)
    budget = Budget(args.budget_seconds)
    if args.modified:
        counts = ((n, sum(hist.values())) for n, hist in
                  modified_asc_counts(p, hi, check=budget.check))
    else:
        counts = avoider_counts(p, hi, check=budget.check)
    return _run(args, "count",
                {"pattern": args.pattern, "n": args.n,
                 "modified": args.modified, "threads": args.threads},
                ["n", "count"],
                ({"n": n, "count": c} for n, c in counts if n >= lo))


def cmd_list(args) -> int:
    p = parse_cli_pattern(args.pattern)
    lo, hi = parse_n_range(args.n)
    budget = Budget(args.budget_seconds)
    return _run(args, "list", {"pattern": args.pattern, "n": args.n},
                ["n", "sequence"],
                ({"n": n, "sequence": word_str(w)} for n in range(lo, hi + 1)
                 for w in avoiders(p, n, budget.check)))


def cmd_dist(args) -> int:
    p = parse_cli_pattern(args.pattern)
    lo, hi = parse_n_range(args.n)
    stats = [s.strip() for s in args.stats.split(",") if s.strip()]
    if not 1 <= len(stats) <= 2:
        raise ValueError("--stats takes one or two statistic names")
    if len(set(stats)) < len(stats):
        # a jsonl row would hold one key for both columns
        raise ValueError("--stats takes distinct statistic names")
    budget = Budget(args.budget_seconds)
    kind = "modified-avoiders" if args.modified else "avoiders"
    hists = joint_histograms((kind, p), hi, *stats, check=budget.check)
    return _run(args, "dist",
                {"pattern": args.pattern, "n": args.n,
                 "stats": ",".join(stats), "set": kind},
                ["n", *stats, "count"],
                ({"n": n, **dict(zip(stats, key)), "count": hist[key]}
                 for n, hist in hists if n >= lo for key in sorted(hist)))


_PARTITION_INPUT = {"rgf-encode"}


def _bijection_stats(name: str, src, dst) -> dict:
    if name == "phi":
        return {"asc_in": asc(src), "des_out": des(dst)}
    if name in ("seq102-to-ternary", "ternary-to-seq102"):
        t = dst if name.endswith("ternary") else src
        return {"twos": list(t).count(2)}
    if name in ("rgf-encode", "rgf-decode"):
        sp = src if name == "rgf-encode" else dst
        return {"blocks": len(sp)}
    if name == "perm231-to-ncpartition":
        return {"asc_in": asc(src), "blocks": len(dst)}
    return {"asc_in": asc(src), "asc_out": asc(dst)}


def cmd_bijection(args) -> int:
    try:
        func = BIJECTIONS[args.name]
    except KeyError:
        raise ValueError(f"unknown bijection {args.name!r}; choose from "
                         f"{sorted(BIJECTIONS)}") from None
    if args.name in _PARTITION_INPUT:
        src = parse_partition(args.input)
    else:
        src = parse_word(args.input)
    dst = func(src)
    render = partition_str if isinstance(dst[0] if dst else 0, tuple) else word_str
    src_text = partition_str(src) if args.name in _PARTITION_INPUT else word_str(src)
    row = {"name": args.name, "input": src_text, "output": render(dst)}
    row.update(_bijection_stats(args.name, src, dst))
    return _run(args, "bijection", {"name": args.name, "input": src_text},
                list(row), [row])


def cmd_wilf(args) -> int:
    """Classify, then print one row per class and, in jsonl, one per
    separation."""
    if args.pattern is not None:
        # a repeated label is classified once
        labels = list(dict.fromkeys(word_str(parse_cli_pattern(t.strip()))
                                    for t in args.pattern.split(",")))
    else:
        labels = all_patterns(4)
    lo, hi = parse_n_range(args.n)
    budget = Budget(args.budget_seconds)

    def rows():
        report = wilf_classify(labels, hi, check=budget.check)
        for i, g in enumerate(report.classes):
            yield {"class": i + 1, "size": len(g), "patterns": " ".join(g)}
        if args.format == "jsonl":
            for (a, b), n in sorted(report.separations.items()):
                yield {"class": "", "size": "",
                       "patterns": f"separation {a} {b} n={n}"}

    return _run(args, "wilf", {"n": args.n, "patterns": len(labels)},
                ["class", "size", "patterns"], rows())


def cmd_table(args) -> int:
    parse_n_range(str(args.nmax))       # the same checks as every --n
    budget = Budget(args.budget_seconds)

    def rows():
        for label in table_patterns():
            n_max = available_depth(label, args.nmax)
            # count first: only the count checks the budget, and the
            # closed forms alone take minutes at the longest lengths
            got = count_avoiders(as_word(label), n_max,
                                 check=budget.check).values
            want = expected_counts(label, n_max)
            n = next((n for n in sorted(want)
                      if n <= n_max and got[n] != want[n]), None)
            yield {"pattern": label, "n_max": n_max,
                   "status": "ok" if n is None else
                   f"mismatch at n={n}: got {got[n]}, want {want[n]}"}

    return _run(args, "table", {"nmax": args.nmax},
                ["pattern", "n_max", "status"], rows(),
                ok=lambda row: row["status"] == "ok")


def _conjecture_row(res) -> dict:
    bad = [v for v in res.verdicts if not v.holds]
    return {"conjecture": res.conjecture, "n_max": res.n_max,
            "verdict": "fails" if bad else "holds",
            "detail": f"n={bad[0].n}: {bad[0].witness}" if bad else ""}


def cmd_conjectures(args) -> int:
    ids = [args.name] if args.name else CONJECTURE_IDS
    n_max = parse_n_range(args.n)[1] if args.n else None
    budget = Budget(args.budget_seconds)
    return _run(args, "conjectures", {"n": args.n or "default"},
                ["conjecture", "n_max", "verdict", "detail"],
                (_conjecture_row(run_conjecture(cid, n_max,
                                                check=budget.check))
                 for cid in ids),
                ok=lambda row: row["verdict"] == "holds")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ascentseq",
        description="Pattern avoidance in ascent sequences: counting, "
                    "listing, distributions, bijections and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, threads=False):
        sp.add_argument("--format", choices=("table", "csv", "jsonl"),
                        default="table", help="output format")
        sp.add_argument("--budget-seconds", type=parse_seconds, default=300.0,
                        help="abort enumeration after this many seconds")
        if threads:
            sp.add_argument("--threads", type=int, default=1,
                            help="accepted for compatibility; counting "
                                 "is sequential")

    sp = sub.add_parser("count", help="count avoiders by length")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--n", required=True, help="length or range a..b")
    sp.add_argument("--modified", action="store_true",
                    help="count sequences whose modified word avoids the "
                         "pattern")
    common(sp, threads=True)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("list", help="list avoiders lexicographically")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--n", required=True)
    common(sp)
    sp.set_defaults(func=cmd_list)

    sp = sub.add_parser("dist", help="statistic distribution over avoiders")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--n", required=True)
    sp.add_argument("--stats", required=True,
                    help="one or two distinct names of "
                         f"{','.join(STATISTICS)}")
    sp.add_argument("--modified", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_dist)

    sp = sub.add_parser("bijection", help="apply a named map to one input")
    sp.add_argument("--name", required=True)
    sp.add_argument("--input", required=True)
    common(sp)
    sp.set_defaults(func=cmd_bijection)

    sp = sub.add_parser("wilf", help="group patterns by counting sequence")
    sp.add_argument("--pattern", default=None,
                    help="comma-separated patterns (default: all of length "
                         "at most 4)")
    sp.add_argument("--n", required=True, help="classify on lengths 1..n")
    common(sp, threads=True)
    sp.set_defaults(func=cmd_wilf)

    sp = sub.add_parser("table", help="regenerate the reference counting "
                                      "table and diff it")
    sp.add_argument("--nmax", type=int, required=True)
    common(sp, threads=True)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("conjectures", help="run the conjecture suite")
    sp.add_argument("--name", default=None,
                    help=f"one of {', '.join(CONJECTURE_IDS)}")
    sp.add_argument("--n", default=None, help="override the default range")
    common(sp)
    sp.set_defaults(func=cmd_conjectures)
    return parser


_parser = None      # built by the first main, which a bare import skips


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
