"""Command-line front end.

Subcommands: count, list, dist, bijection, wilf, table, conjectures.
Output is deterministic (byte-identical across runs) in three formats:
an aligned human table, CSV, or line-delimited JSON; CSV and JSON rows
are written as they are made.
Exit codes: 0 success, 2 usage or domain errors, 3 budget refusals,
runs out of memory and a stdout closed by its reader, 4 failed
verifications (table mismatches, conjecture failures).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import reprlib
import sys
import time

from .core import (STATISTICS, as_word, asc, des, is_pattern,
                   normalize_pattern, word_str)
from .enumeration import (MAX_LENGTH, _check_length, avoider_counts,
                          avoiders, count_avoiders, joint_histograms,
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


# ASCII digits: str.isdigit and int() also take other scripts' digits,
# and int() signs, spaces and underscores
_DIGITS = re.compile("[0-9]+")
# a length n or a range a..b
_N_RANGE = re.compile(r"([0-9]+)(?:\.\.([0-9]+))?")


def _length(digits: str) -> int:
    """A length from ASCII digits; one with more digits than MAX_LENGTH
    reads as MAX_LENGTH + 1, since int() refuses thousands of digits
    with a message of its own."""
    digits = digits.lstrip("0")
    if len(digits) > len(str(MAX_LENGTH)):
        return MAX_LENGTH + 1
    return int(digits or "0")


def parse_n_range(text: str) -> tuple[int, int]:
    m = _N_RANGE.fullmatch(text)
    lo, hi = (_length(m[1]), _length(m[2] or m[1])) if m else (0, 0)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad length range {reprlib.repr(text)}")
    _check_length(hi)                   # refuses lengths above MAX_LENGTH
    return lo, hi


def parse_n_max(text: str) -> int:
    """n from a --n value that names the lengths 1..n: n or 1..n."""
    lo, hi = parse_n_range(text)
    if ".." in text and lo != 1:
        raise ValueError("lengths start at 1 here: give --n n or 1..n, not "
                         f"{reprlib.repr(text)}")
    return hi


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


def parse_length(text: str) -> int:
    """A --nmax value: one length, read as --n reads it."""
    if not _DIGITS.fullmatch(text) or not text.strip("0"):
        raise ValueError(f"bad length {reprlib.repr(text)}")
    return parse_n_range(text)[1]


def parse_cli_pattern(text: str) -> tuple[int, ...]:
    """Digit-string patterns only; non-normalized input is rejected."""
    if not _DIGITS.fullmatch(text):
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
    if text and not _DIGITS.fullmatch(text):
        raise ValueError(f"expected a digit string, got {reprlib.repr(text)}")
    return as_word(text)


def parse_partition(text: str):
    blocks = []
    for part in text.split("-"):
        if not _DIGITS.fullmatch(part):
            raise ValueError(f"bad partition block {reprlib.repr(part)}")
        blocks.append(as_word(part))
    return standardize_partition(blocks)


# ---------------------------------------------------------------------------
# output rendering


def _plain(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


class _Lines(list):
    """Output lines not yet written; csv.writer writes its rows here."""
    write = list.append


# ---------------------------------------------------------------------------
# subcommands


def _run(args, command: str, params: dict, columns: list[str], rows,
         ok=None) -> int:
    """Read the rows once, write them to stdout and pick the exit code.

    Csv and jsonl rows are written as they are made, in chunks of 1000;
    the aligned table buffers its cells, since its column widths need
    every row.  Nothing is written before a chunk is full or the rows
    end, so a ``ValueError`` raised before the first row leaves stdout
    empty.  A ``BudgetExceeded`` keeps the rows made before it and
    marks them incomplete (exit 3), and so does a ``MemoryError``: the
    work that ran out of memory is dropped with its frames, so the
    output can still be ended.  Otherwise the run exits 4 when ``ok``
    rejects a row, else 0.
    """
    fmt, out, lines = args.format, sys.stdout, _Lines()
    if fmt == "jsonl":
        encode = _JSON.encode
        lines.append(encode({"format": FORMAT_TAG, "command": command,
                             **params}) + "\n")
        # a row column by column, as json encodes a dict of the columns:
        # an exact int as its repr, anything else by the encoder, whose
        # str fast path builds no encoder
        heads = [(c, encode(c) + ": ") for c in columns]

        def write(row):
            cells = []
            for c, h in heads:
                v = row[c]
                cells.append(h + (int.__repr__(v) if type(v) is int
                                  else encode(v)))
            lines.append("{" + ", ".join(cells) + "}\n")
    else:
        echo = " ".join(f"{k}={_plain(v)}" for k, v in params.items())
        lines.append(f"# {FORMAT_TAG} {command} {echo}".rstrip() + "\n")
        if fmt == "csv":
            lines.append(",".join(columns) + "\n")
            # quotes a field that holds a comma, such as a word with a
            # letter above 9
            writerow = csv.writer(lines, lineterminator="\n").writerow

            def write(row):
                writerow([_plain(row[c]) for c in columns])
        else:
            cells = []

            def write(row):
                cells.append([_plain(row[c]) for c in columns])
    status, code = {"complete": True}, EXIT_OK
    try:
        for row in rows:
            write(row)
            if ok is not None and not ok(row):
                code = EXIT_VERIFY
            # one write per chunk, not per row: with PYTHONUNBUFFERED
            # set, every write to stdout is a system call
            if len(lines) > 999:
                out.write("".join(lines))
                lines.clear()
    except BudgetExceeded as exc:
        status = {"complete": False, "reason": str(exc)}
    except MemoryError:
        status = {"complete": False, "reason": "out of memory"}
    out.write("".join(lines))
    if fmt == "table":
        widths = [max([len(c)] + [len(r[i]) for r in cells])
                  for i, c in enumerate(columns)]
        for r in [columns, *cells]:
            print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip(),
                  file=out)
    if fmt == "jsonl":
        out.write(encode({"status": status}) + "\n")
    elif not status["complete"]:
        print(f"# incomplete: {status['reason']}", file=out)
    return code if status["complete"] else EXIT_BUDGET


def cmd_count(args, check) -> int:
    p = parse_cli_pattern(args.pattern)
    lo, hi = parse_n_range(args.n)
    if args.modified:
        counts = ((n, sum(hist.values())) for n, hist in
                  modified_asc_counts(p, hi, check=check))
    else:
        counts = avoider_counts(p, hi, check=check)
    return _run(args, "count",
                {"pattern": args.pattern, "n": args.n,
                 "modified": args.modified, "threads": args.threads},
                ["n", "count"],
                ({"n": n, "count": c} for n, c in counts if n >= lo))


def cmd_list(args, check) -> int:
    p = parse_cli_pattern(args.pattern)
    lo, hi = parse_n_range(args.n)
    return _run(args, "list", {"pattern": args.pattern, "n": args.n},
                ["n", "sequence"],
                ({"n": n, "sequence": word_str(w)} for n in range(lo, hi + 1)
                 for w in avoiders(p, n, check)))


def cmd_dist(args, check) -> int:
    p = parse_cli_pattern(args.pattern)
    lo, hi = parse_n_range(args.n)
    stats = [s.strip() for s in args.stats.split(",") if s.strip()]
    if not 1 <= len(stats) <= 2:
        raise ValueError("--stats takes one or two statistic names")
    if len(set(stats)) < len(stats):
        # a jsonl row would hold one key for both columns
        raise ValueError("--stats takes distinct statistic names")
    kind = "modified-avoiders" if args.modified else "avoiders"
    hists = joint_histograms((kind, p), hi, *stats, check=check)
    return _run(args, "dist",
                {"pattern": args.pattern, "n": args.n,
                 "stats": ",".join(stats), "set": kind},
                ["n", *stats, "count"],
                ({"n": n, **dict(zip(stats, key)), "count": hist[key]}
                 for n, hist in hists if n >= lo for key in sorted(hist)))


def _shown(v) -> str:
    """A bijection's input or output: a set partition when its first
    element is a block, else a word."""
    return partition_str(v) if v and isinstance(v[0], tuple) else word_str(v)


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


def cmd_bijection(args, check) -> int:
    try:
        func = BIJECTIONS[args.name]
    except KeyError:
        raise ValueError(f"unknown bijection {args.name!r}; choose from "
                         f"{sorted(BIJECTIONS)}") from None
    parse = parse_partition if args.name == "rgf-encode" else parse_word
    src = parse(args.input)
    dst = func(src)
    row = {"name": args.name, "input": _shown(src), "output": _shown(dst)}
    row.update(_bijection_stats(args.name, src, dst))
    return _run(args, "bijection", {"name": args.name, "input": row["input"]},
                list(row), [row])


def cmd_wilf(args, check) -> int:
    """Classify, then print one row per class and, in jsonl, one per
    separation."""
    if args.pattern is not None:
        # a repeated label is classified once
        labels = list(dict.fromkeys(word_str(parse_cli_pattern(t.strip()))
                                    for t in args.pattern.split(",")))
    else:
        labels = all_patterns(4)
    n_max = parse_n_max(args.n)

    def rows():
        report = wilf_classify(labels, n_max, check=check)
        for i, g in enumerate(report.classes):
            yield {"class": i + 1, "size": len(g), "patterns": " ".join(g)}
        if args.format == "jsonl":
            for (a, b), n in sorted(report.separations.items()):
                yield {"class": "", "size": "",
                       "patterns": f"separation {a} {b} n={n}"}

    return _run(args, "wilf", {"n": args.n, "patterns": len(labels)},
                ["class", "size", "patterns"], rows())


def cmd_table(args, check) -> int:
    nmax = parse_length(args.nmax)

    def rows():
        for label in table_patterns():
            n_max = available_depth(label, nmax)
            # count first: only the count checks the budget, and the
            # closed forms alone take minutes at the longest lengths
            got = count_avoiders(as_word(label), n_max,
                                 check=check).values
            want = expected_counts(label, n_max)
            n = next((n for n in sorted(want)
                      if n <= n_max and got[n] != want[n]), None)
            yield {"pattern": label, "n_max": n_max,
                   "status": "ok" if n is None else
                   f"mismatch at n={n}: got {got[n]}, want {want[n]}"}

    return _run(args, "table", {"nmax": nmax},
                ["pattern", "n_max", "status"], rows(),
                ok=lambda row: row["status"] == "ok")


def _conjecture_row(res) -> dict:
    bad = [v for v in res.verdicts if not v.holds]
    return {"conjecture": res.conjecture, "n_max": res.n_max,
            "verdict": "fails" if bad else "holds",
            "detail": f"n={bad[0].n}: {bad[0].witness}" if bad else ""}


def cmd_conjectures(args, check) -> int:
    ids = [args.name] if args.name else CONJECTURE_IDS
    n_max = parse_n_max(args.n) if args.n else None
    return _run(args, "conjectures", {"n": args.n or "default"},
                ["conjecture", "n_max", "verdict", "detail"],
                (_conjecture_row(run_conjecture(cid, n_max,
                                                check=check))
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
    sp.add_argument("--nmax", required=True)
    common(sp, threads=True)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("conjectures", help="run the conjecture suite")
    sp.add_argument("--name", default=None,
                    help=f"one of {', '.join(CONJECTURE_IDS)}")
    sp.add_argument("--n", default=None,
                    help="check lengths 1..n instead of the default")
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
        code = args.func(args, Budget(args.budget_seconds).check)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout, so the rows were cut short; stdout
        # points at devnull, so that the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
