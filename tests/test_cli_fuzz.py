"""Random command lines: every subcommand exits 0, 2, 3 or 4, never with
a traceback, at lengths well past CPython's default recursion limit."""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ascentseq.bijections import BIJECTIONS
from ascentseq.cli import main
from ascentseq.core import STATISTICS
from ascentseq.oracles import CONJECTURE_IDS, all_patterns

lengths = st.integers(1, 3000).map(str)
length_ranges = st.one_of(
    lengths, st.tuples(st.integers(0, 3000), st.integers(0, 3000))
    .map(lambda r: f"{r[0]}..{r[1]}"))
patterns = st.one_of(st.sampled_from(all_patterns(4)),
                     st.text("0123456789x", max_size=5))
statistics = st.lists(st.sampled_from([*STATISTICS, "nosuch"]),
                      min_size=1, max_size=3).map(",".join)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["count", "list", "dist", "bijection",
                                    "wilf", "table", "conjectures"]))
    argv = [command, "--format", draw(st.sampled_from(["table", "csv",
                                                       "jsonl"])),
            "--budget-seconds", draw(st.sampled_from(["0.05", "0.2", "0.5"]))]
    if command in ("count", "list", "dist"):
        argv += ["--pattern", draw(patterns), "--n", draw(length_ranges)]
    if command in ("count", "dist") and draw(st.booleans()):
        argv.append("--modified")
    if command == "dist":
        argv += ["--stats", draw(statistics)]
    if command == "bijection":
        argv += ["--name", draw(st.sampled_from([*BIJECTIONS, "nosuch"])),
                 "--input", draw(st.text("0123456789-", max_size=60))]
    if command == "wilf":
        argv += ["--n", draw(length_ranges)]
        if draw(st.booleans()):
            argv += ["--pattern", ",".join(draw(st.lists(patterns,
                                                         min_size=1,
                                                         max_size=3)))]
    if command == "table":
        argv += ["--nmax", draw(lengths)]
    if command == "conjectures":
        argv += ["--n", draw(length_ranges)]
        if draw(st.booleans()):
            argv += ["--name", draw(st.sampled_from([*CONJECTURE_IDS,
                                                     "nosuch"]))]
    return argv


@settings(deadline=None, max_examples=25)
@given(command_lines())
@example(["count", "--pattern", "01", "--n", "99999999999999999999",
          "--budget-seconds", "1"])
def test_exit_codes_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refusing the command line
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
