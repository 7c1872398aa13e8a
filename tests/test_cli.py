"""Command-line behavior: formats, determinism, exit codes."""

import csv
import hashlib
import json
import reprlib
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from ascentseq import cli
from ascentseq.cli import (EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VERIFY,
                           BudgetExceeded, main, parse_cli_pattern,
                           parse_n_range)
from ascentseq.core import stat
from ascentseq.enumeration import MAX_LENGTH, avoiders, count_avoiders
from ascentseq.oracles import ConjectureVerdict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ticking_clock(monkeypatch):
    # the budget reads a clock that advances 1 ms per reading, so
    # --budget-seconds B refuses after 1000 B checks, however fast the
    # host or the engine is
    now = [0.0]

    def monotonic():
        now[0] += 0.001
        return now[0]

    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=monotonic))


class TestParsing:
    def test_n_range(self):
        assert parse_n_range("7") == (7, 7)
        assert parse_n_range("1..10") == (1, 10)
        for bad in ("0", "5..3", "0..4"):
            with pytest.raises(ValueError):
                parse_n_range(bad)

    @pytest.mark.parametrize("text", ["1_0", "+3", " 3", "3 ", "\uff11\uff12",
                                      "1..", "..3", "3..2", "1..+2", "-1",
                                      "", "1...3", "1..2..3"])
    def test_n_range_takes_ascii_digits_only(self, capsys, text):
        # int() reads signs, spaces, underscores and full-width digits;
        # "1.." used to fail with int()'s own message
        message = f"bad length range {reprlib.repr(text)}"
        with pytest.raises(ValueError) as exc:
            parse_n_range(text)
        assert str(exc.value) == message
        assert run_cli(capsys, "count", "--pattern", "101", "--n", text) == \
            (EXIT_USAGE, "", f"error: {message}\n")

    def test_length_cap(self, capsys):
        # the cap is a fixed constant; above it nothing is allocated
        assert parse_n_range(f"1..{MAX_LENGTH}") == (1, MAX_LENGTH)
        with pytest.raises(ValueError, match="not supported"):
            parse_n_range(str(MAX_LENGTH + 1))
        code, _, err = run_cli(capsys, "count", "--pattern", "01", "--n",
                               "99999999999999999999", "--budget-seconds", "1")
        assert code == EXIT_USAGE and "not supported" in err
        code, _, err = run_cli(capsys, "table", "--nmax",
                               "99999999999999999999", "--budget-seconds", "1")
        assert code == EXIT_USAGE and "not supported" in err

    @pytest.mark.parametrize("argv", [
        ["count", "--pattern", "101", "--n", "9" * 5000],
        ["count", "--pattern", "101", "--n", "1.." + "9" * 5000],
        ["wilf", "--n", "0" * 10 + "9" * 5000],
        ["table", "--nmax", "9" * 5000],
    ])
    def test_overlong_lengths_are_refused_by_their_digits(self, capsys,
                                                          argv):
        # int() refuses more than 4300 digits, leading zeros included,
        # with a message of its own
        assert run_cli(capsys, *argv) == (
            EXIT_USAGE, "", "error: lengths above 1000000 are not supported\n")

    def test_leading_zeros_do_not_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pattern", "101", "--n",
                               "0" * 5000 + "3", "--format", "csv")
        assert code == EXIT_OK and out.splitlines()[2:] == ["3,5"]

    @pytest.mark.parametrize("argv,message", [
        (["count", "--pattern", "\uff11\uff10\uff11", "--n", "5"],
         "pattern must be a nonempty digit string: '\uff11\uff10\uff11'"),
        (["count", "--pattern", "\u00b201", "--n", "5"],
         "pattern must be a nonempty digit string: '\u00b201'"),
        (["bijection", "--name", "phi", "--input", "\uff10\uff11\uff10\uff12"],
         "expected a digit string, got '\uff10\uff11\uff10\uff12'"),
        (["bijection", "--name", "rgf-encode", "--input", "\uff11-2"],
         "bad partition block '\uff11'"),
        *((["table", "--nmax", text], f"bad length '{text}'")
          for text in ("1_2", "+3", " 3", "\uff11\uff12", "1..3")),
    ])
    def test_digit_strings_are_ascii(self, capsys, argv, message):
        # str.isdigit and int() take other scripts' digits, and int()
        # signs, spaces and underscores
        assert run_cli(capsys, *argv) == (EXIT_USAGE, "",
                                          f"error: {message}\n")

    def test_nan_budget_refused(self, capsys):
        # no clock reading exceeds a NaN deadline, so it would switch
        # every budget guard off; inf stays a valid "no limit"
        for argv in (["count", "--pattern", "01", "--n", "3"],
                     ["bijection", "--name", "phi", "--input", "0"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--budget-seconds", "nan"])
            err = capsys.readouterr().err
            assert exc.value.code == EXIT_USAGE
            assert "error:" in err and "nan" in err
            assert "Traceback" not in err
        code, out, _ = run_cli(capsys, "count", "--pattern", "101", "--n",
                               "3", "--budget-seconds", "inf")
        assert code == EXIT_OK and out.splitlines()[-1].split() == ["3", "5"]

    def test_pattern_hygiene(self):
        assert parse_cli_pattern("0101") == (0, 1, 0, 1)
        with pytest.raises(ValueError, match="normal form"):
            parse_cli_pattern("275")
        with pytest.raises(ValueError):
            parse_cli_pattern("a1")
        with pytest.raises(ValueError):
            parse_cli_pattern("120x")


class TestCount:
    def test_catalan_row(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pattern", "101",
                               "--n", "1..10")
        assert code == EXIT_OK
        counts = [int(line.split()[-1]) for line in out.splitlines()[2:]]
        assert counts == [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]

    def test_all_zero_row(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pattern", "01",
                               "--n", "1..5", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[2:] == ["1,1", "2,1", "3,1", "4,1", "5,1"]

    def test_modified_counts_are_bell(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pattern", "101",
                               "--modified", "--n", "1..8", "--format", "csv")
        assert code == EXIT_OK
        counts = [int(line.split(",")[1]) for line in out.splitlines()[2:]]
        assert counts == [1, 2, 5, 15, 52, 203, 877, 4140]

    def test_jsonl_shape(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--pattern", "00",
                               "--n", "2..3", "--format", "jsonl")
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["format"] == "ascentseq/1"
        assert lines[0]["command"] == "count"
        assert lines[1] == {"n": 2, "count": 1}
        assert lines[-1] == {"status": {"complete": True}}

    def test_rejects_unnormalized_pattern(self, capsys):
        code, _, err = run_cli(capsys, "count", "--pattern", "275",
                               "--n", "1..3")
        assert code == EXIT_USAGE
        assert "normal form" in err

    def test_budget_refusal_marks_partial(self, capsys, ticking_clock):
        # 1001 keeps the most keys of the patterns of length 4: its count
        # makes 3928 budget checks to length 11, one per key, and the
        # 0.3 s budget allows 300
        code, out, _ = run_cli(capsys, "count", "--pattern", "1001",
                               "--n", "1..11", "--budget-seconds", "0.3",
                               "--format", "csv")
        assert code == EXIT_BUDGET
        assert "# incomplete" in out
        # lengths 1..7 take 43 checks, so they finish inside the budget
        # and are kept
        rows = {int(n): int(c) for n, c in
                (line.split(",") for line in out.splitlines()[2:-1])}
        assert 7 <= len(rows) < 11
        assert list(rows) == list(range(1, len(rows) + 1))
        want = count_avoiders((1, 0, 0, 1), 7).values
        assert {n: rows[n] for n in want} == want

    @pytest.mark.parametrize("fmt", ["table", "csv", "jsonl"])
    def test_memory_error_is_a_refusal(self, capsys, fmt):
        # a count that runs out of memory keeps the rows it finished and
        # refuses as a spent budget does, with no traceback
        def rows():
            yield {"n": 1, "count": 1}
            yield {"n": 2, "count": 2}
            raise MemoryError

        code = cli._run(SimpleNamespace(format=fmt), "count",
                        {"pattern": "1001"}, ["n", "count"], rows())
        out, err = capsys.readouterr()
        assert code == EXIT_BUDGET and err == ""
        lines = out.splitlines()
        if fmt == "jsonl":
            assert [json.loads(line) for line in lines[1:]] == [
                {"n": 1, "count": 1}, {"n": 2, "count": 2},
                {"status": {"complete": False, "reason": "out of memory"}}]
        else:
            assert lines[-1] == "# incomplete: out of memory"
            assert [line.replace(",", " ").split() for line in lines[-3:-1]
                    ] == [["1", "1"], ["2", "2"]]

    def test_modified_budget_counts_every_sequence(self, capsys,
                                                   ticking_clock):
        # the modified count makes 1924 budget checks to n=12 for 1102,
        # and the 0.1 s budget allows 100; the budget must stop it inside
        # the count
        code, out, _ = run_cli(capsys, "count", "--pattern", "1102",
                               "--modified", "--n", "12",
                               "--budget-seconds", "0.1", "--format", "jsonl")
        assert code == EXIT_BUDGET
        status = json.loads(out.splitlines()[-1])["status"]
        assert status["complete"] is False

    def test_no_recursion_limit_on_modified_words(self, capsys):
        # 1200 letters per word, past CPython's default recursion limit;
        # every word contains 0, so the first layer is empty and the
        # layered count finishes at once
        code, out, err = run_cli(capsys, "count", "--pattern", "0",
                                 "--modified", "--n", "1200",
                                 "--budget-seconds", "2", "--format", "jsonl")
        assert code == EXIT_OK and "Traceback" not in err
        lines = out.splitlines()
        assert json.loads(lines[1]) == {"n": 1200, "count": 0}
        assert json.loads(lines[-1])["status"]["complete"] is True

    @pytest.mark.parametrize("pattern,n", [("0123", "3000"), ("1110", "373")])
    def test_budget_stops_slow_words_promptly(self, capsys, pattern, n):
        # one modify-and-search step on these words takes 0.1 s or more:
        # the budget must read the clock on every check (0123), and a
        # search must not try every later copy of a letter already
        # matched (1110 on mostly-zero words); either fault alone made
        # these runs last a minute or more
        start = time.monotonic()
        code, _, _ = run_cli(capsys, "count", "--pattern", pattern,
                             "--modified", "--n", n, "--budget-seconds", "0.3")
        assert code == EXIT_BUDGET
        assert time.monotonic() - start < 20

    def test_deterministic_across_runs_and_threads(self, capsys):
        _, first, _ = run_cli(capsys, "count", "--pattern", "0021",
                              "--n", "1..8")
        _, second, _ = run_cli(capsys, "count", "--pattern", "0021",
                               "--n", "1..8")
        assert first == second
        code, threaded, _ = run_cli(capsys, "count", "--pattern", "0021",
                                    "--n", "1..8", "--threads", "3")
        assert code == EXIT_OK
        # the thread count is echoed, the payload must be identical
        assert threaded.splitlines()[1:] == first.splitlines()[1:]


class TestList:
    def test_binary_avoiders(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--pattern", "012",
                               "--n", "4", "--format", "csv")
        assert code == EXIT_OK
        seqs = [line.split(",")[1] for line in out.splitlines()[2:]]
        assert seqs == ["0000", "0001", "0010", "0011",
                        "0100", "0101", "0110", "0111"]

    def test_past_the_recursion_limit(self, capsys):
        code, out, err = run_cli(capsys, "list", "--pattern", "01",
                                 "--n", "2000", "--format", "csv")
        assert code == EXIT_OK and "Traceback" not in err
        assert out.splitlines()[2:] == ["2000," + "0" * 2000]

    def test_budget_stops_the_walk_to_the_first_word(self, capsys):
        # the first 00-avoider of length 6000 is 0, 1, ..., 5999, and the
        # walk asks forbid about every smaller letter at each position,
        # about 4 s of work; the budget is checked once per prefix grown
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "list", "--pattern", "00",
                               "--n", "6000", "--budget-seconds", "0.1")
        assert code == EXIT_BUDGET and "# incomplete" in out
        assert time.monotonic() - start < 1.5


class TestDist:
    def test_single_statistic(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--pattern", "012", "--n", "4",
                               "--stats", "asc", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[1] == "n,asc,count"
        assert out.splitlines()[2:] == ["4,0,1", "4,1,6", "4,2,1"]

    def test_joint_statistics(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--pattern", "021", "--n", "3",
                               "--stats", "asc,rlmin", "--format", "jsonl")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()[1:-1]]
        assert sum(r["count"] for r in rows) == 5

    def test_past_the_recursion_limit(self, capsys):
        code, out, err = run_cli(capsys, "dist", "--pattern", "01",
                                 "--n", "1500", "--stats", "asc",
                                 "--format", "csv")
        assert code == EXIT_OK and "Traceback" not in err
        assert out.splitlines()[2:] == ["1500,0,1"]

    def test_modified_budget_counts_every_sequence(self, capsys,
                                                   ticking_clock):
        # the modified histograms are one layered pass, of 2389 states
        # for 1021 with (asc, rlmax) to n=11, and the 0.5 s budget allows
        # 500 checks; the budget is checked once per state, so it must
        # stop the pass inside it
        code, out, _ = run_cli(capsys, "dist", "--pattern", "1021",
                               "--modified", "--n", "11",
                               "--stats", "asc,rlmax",
                               "--budget-seconds", "0.5", "--format", "jsonl")
        assert code == EXIT_BUDGET
        assert json.loads(out.splitlines()[-1])["status"]["complete"] is False

    def test_modified_empty_set_finishes_at_once(self, capsys):
        # every modified word contains 0, so the first layer is empty
        code, out, _ = run_cli(capsys, "dist", "--pattern", "0",
                               "--modified", "--n", "11", "--stats", "asc",
                               "--budget-seconds", "2", "--format", "jsonl")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["status"]["complete"] is True

    def test_unknown_statistic(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--pattern", "021", "--n", "3",
                               "--stats", "weird")
        assert code == EXIT_USAGE and "statistic" in err

    def test_budget_stops_the_layered_pass(self, capsys, ticking_clock):
        # the (asc, rlmin) pass over 021-avoiders has 5388 states to
        # length 22, and the 0.2 s budget allows 200 checks; the budget
        # is checked once per state, so it stops the pass inside a layer
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "dist", "--pattern", "021",
                               "--n", "1..22", "--stats", "asc,rlmin",
                               "--budget-seconds", "0.2", "--format", "jsonl")
        assert code == EXIT_BUDGET
        assert json.loads(out.splitlines()[-1])["status"]["complete"] is False
        assert time.monotonic() - start < 1


# sha256 of dist stdout, recorded when every dist listed the avoiders of
# each length; the layered pass must print the same bytes
DIST_DIGESTS = [
    ("dist --pattern 021 --n 1..6 --stats asc",
     "3e9101fe6484ef956e3ae8fcb5a82b08f545fc73e948e50c8cdbcb4d1af327c9"),
    ("dist --pattern 021 --n 1..6 --stats des",
     "a872fbddde90ea578bf8d051d72cbf7bde4525c6e5eba38e5c669f39a0a22920"),
    ("dist --pattern 021 --n 1..6 --stats lrmax",
     "5d385558439439aecb85e5dbd7999be0a4c4243310abcb56266fb6cb23bafc0d"),
    ("dist --pattern 021 --n 1..6 --stats lrmin",
     "35793423a7bd7364ba7086a2cdeec3f3fe6cfdb1265d07de040b4a452e150dd3"),
    ("dist --pattern 021 --n 1..6 --stats rlmax",
     "dce5bef022d2daffe1c842084cad6945397f1a1058a687ab0f3c59adff268a13"),
    ("dist --pattern 021 --n 1..6 --stats rlmin",
     "de9240a3d0e076451e1487369ebe71fdf9096edeb9adf664a30a00d2b5e1869a"),
    ("dist --pattern 021 --n 1..6 --stats zeros",
     "180c2fc52517ac182ca5dfe9e7c99c2ac4d29ab4c298f75240fdfb22414b92d9"),
    ("dist --pattern 021 --n 1..6 --stats fwd",
     "8a4386a1e9ac43d5d659929567de2d9868f9d410bd0ba525b7601aa9c779031f"),
    ("dist --pattern 0012 --n 3..7 --stats asc,des --format csv",
     "d2ee04686757cd39c5559b516e1e0ff36bf95c6176718fe48165e72bbe4f5018"),
    ("dist --pattern 0012 --n 3..7 --stats asc,lrmax --format csv",
     "f8eb93e938b3a3f16057f423cd5c5e9285aec757b97223397a88051d5da04553"),
    ("dist --pattern 0012 --n 3..7 --stats asc,lrmin --format csv",
     "143ad0c83f67689447a3094d202f5f7448de4c448bc092d39281edcad5f44c7d"),
    ("dist --pattern 0012 --n 3..7 --stats asc,rlmax --format csv",
     "4f36747c7647a89af2a0fe29b07b3b826e3cc05c54a10136c4a399fd8f5bfa9c"),
    ("dist --pattern 0012 --n 3..7 --stats asc,rlmin --format csv",
     "a8d8e207cf5fb4fc3b5b51832b242eed6ba076a1b61115f2448a87dfa65f0ffd"),
    ("dist --pattern 0012 --n 3..7 --stats asc,zeros --format csv",
     "728a60a16ac911a822365b496bad75f005150a19ae2d4695bd20879be3b63cc4"),
    ("dist --pattern 0012 --n 3..7 --stats asc,fwd --format csv",
     "a02807ef80763abe1c7d00acf8ed5aee9a3262c819beaaf98044898c5029db19"),
    ("dist --pattern 1302 --n 4..6 --stats rlmin,fwd --format jsonl",
     "09e386511cb3a46da0f32272632c34ce3f37c617c10e3e2a08dc0ef335ef5d31"),
    ("dist --pattern 101 --n 5 --stats lrmax,des --format jsonl",
     "b7ef3e34c1786353c64c571309a5b3c85ea0dce45379a2d6100fb0486fdebcd9"),
    ("dist --pattern 210 --n 2..5 --stats zeros,rlmax",
     "baf9270b57b927a5947a9e9002c8d3cd5c4ccbe9450bce72f5d8b3c56bfb0b3f"),
    ("dist --pattern 0 --n 1..3 --stats lrmin --format csv",
     "44411b9de7b226591413927c6d10dc2840c87bc456810129581bfac3feac8b72"),
    ("dist --pattern 021 --n 3..5 --stats asc,rlmin --modified --format csv",
     "14fd456be29f40377709fc636eb71d6dacd5c9bc96b3fc1385fd5a2b3e2abcdd"),
    # recorded while dist --modified listed the ascent sequences of each
    # length; lrmax and rlmax are the statistics whose prefix states
    # follow the raise before an ascent top
    ("dist --pattern 1021 --n 3..8 --stats lrmax --modified",
     "b545ac3de9c3777e9d596118fe3f102a46246ec533762350060cdedd15ce9785"),
    ("dist --pattern 1021 --n 3..8 --stats rlmax --modified --format csv",
     "200a6876b4153e2927bdf86e6297eb4115b1f7ca165d0131257f226067f50272"),
    ("dist --pattern 1021 --n 3..8 --stats lrmin,rlmin --modified --format "
     "jsonl",
     "21a9b67c6532e9cb9014b2c1bb3f20098a99e089f404f8f011cc1929c227ef54"),
    ("dist --pattern 1021 --n 3..8 --stats fwd,zeros --modified --format csv",
     "575d33697f5b5941a7db66dbb94b33e63df40f3b4fd58e8052d468e875646461"),
    ("dist --pattern 0012 --n 2..7 --stats lrmax --modified --format csv",
     "7833b749f0efc1dd9ef61fadca0b6d6161146fb6ea5fce607164f3a912dc317a"),
    ("dist --pattern 0012 --n 2..7 --stats rlmax --modified --format jsonl",
     "3f2315c9811ffff4cb753efba62df9635fb1cc097df7c4e42431540b58f86854"),
    ("dist --pattern 0012 --n 2..7 --stats lrmin,rlmin --modified",
     "381623836cd46ff6624e0e01affaccd956a6e9f0fb607ff3d8dd8cfe29da831d"),
    ("dist --pattern 0012 --n 2..7 --stats fwd,zeros --modified --format csv",
     "ebe42621f7889582bb6d9c6fcc0da7d4c1edfaf30f24640bbfc241a1a8929a24"),
]


class TestDistOutput:
    @pytest.mark.parametrize("line,digest", DIST_DIGESTS)
    def test_stdout_is_unchanged(self, capsys, line, digest):
        code, out, err = run_cli(capsys, *line.split())
        assert code == EXIT_OK and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("stats", ["asc,rlmin", "fwd,zeros", "lrmax"])
    def test_rows_are_the_listed_histograms(self, capsys, stats):
        names = stats.split(",")
        code, out, _ = run_cli(capsys, "dist", "--pattern", "0021", "--n",
                               "2..6", "--stats", stats, "--format", "jsonl")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()[1:-1]]
        want = []
        for n in range(2, 7):
            hist = Counter(tuple(stat(w, s) for s in names)
                           for w in avoiders((0, 0, 2, 1), n))
            want += [{"n": n, **dict(zip(names, key)), "count": hist[key]}
                     for key in sorted(hist)]
        assert rows == want

    @pytest.mark.parametrize("pattern,n,stats,message", [
        ("021", "3", "weird", "unknown statistic 'weird'; choose from "
         "['asc', 'des', 'fwd', 'lrmax', 'lrmin', 'rlmax', 'rlmin', 'zeros']"),
        ("021", "3", "asc,des,fwd", "--stats takes one or two statistic "
         "names"),
        ("0012", "3..7", "asc,asc", "--stats takes distinct statistic names"),
        ("275", "3", "asc", "pattern '275' is not in normal form; its "
         "values must be 0..k (did you mean '021'?)"),
        ("021", "5..3", "asc", "bad length range '5..3'"),
    ])
    def test_error_lines(self, capsys, pattern, n, stats, message):
        assert run_cli(capsys, "dist", "--pattern", pattern, "--n", n,
                       "--stats", stats) == (EXIT_USAGE, "",
                                             f"error: {message}\n")


# sha256 of stdout when the deadline is already past: the first budget
# check raises, so each run prints its header, no rows and the
# incomplete status, whatever the speed of the host
BUDGET_DIGESTS = [
    ("count --pattern 0021 --n 1..8 --format table",
     "3b64400e0d34561c3459991cd9ff0b45ddcf8ea90ebc6ac5b4a18b7c8c2e46f4"),
    ("count --pattern 0021 --n 1..8 --format csv",
     "6ab52c6269d16fee36a1b4db23e336668da0ce3f2c9f486502d529dc31e22e13"),
    ("count --pattern 0021 --n 1..8 --format jsonl",
     "751dbfc4f2ba20af062dd3b60104e17c1cb407104dbabfcc8d96df18e2328efb"),
    ("list --pattern 012 --n 1..4 --format table",
     "9479b130bff66fe3e078d810f88a45a35e93deeedc87d40074edba3054c1d8e6"),
    ("list --pattern 012 --n 1..4 --format csv",
     "6fb60b5989543c90f1d1af62fe373c770f79b621ae925f28a7338c9bf912cdc0"),
    ("list --pattern 012 --n 1..4 --format jsonl",
     "44abf15a5f3cee367df525304d3b4487f9e3d6af1abcffa152dc0b38f547cffb"),
    ("dist --pattern 0012 --n 2..6 --stats asc,fwd --format table",
     "2ef9d6b932bc4239a725a293e50cce919d3ad2f8bed276f2f64b09a2530bf508"),
    ("dist --pattern 0012 --n 2..6 --stats asc,fwd --format csv",
     "4a27ecd6798674bec925ea60766d109f3635afba4759aa77bad28442d9128d40"),
    ("dist --pattern 0012 --n 2..6 --stats asc,fwd --format jsonl",
     "340425048d0b91bd45d894b75809de083e0cadf4d612b5eaf2c0cad583d76c6a"),
    # the wilf refusal prints the header and columns of a finished run
    ("wilf --pattern 101,021 --n 7 --format table",
     "be5f1efddab4d5aeaf3a587ddb7055f814821faee2cb432cf46e88616dbcf579"),
    ("wilf --pattern 101,021 --n 7 --format csv",
     "4a648b13d939f7c85fe5dc51d3eaab7ed01b17f0251cdcbf3f194478f52fc405"),
    ("wilf --pattern 101,021 --n 7 --format jsonl",
     "ad78f5c70974cfe27f7321dab44f1e811e92247598576eecb6b4f00f7533bc06"),
    ("table --nmax 7 --format table",
     "46d4dea8974a1b881d7a5abbd21aad5d17944c8574354de75ee343bf9ab71709"),
    ("table --nmax 7 --format csv",
     "28123ffc2b67b54bd1fce778da2c9c60231aee633085371b75971ccd06236236"),
    ("table --nmax 7 --format jsonl",
     "f891b1c6384c7cd8a0e93747ca7e1f418bb4afe295410bf13ae1bf770588b0e6"),
    ("conjectures --format table",
     "99a93476eb77f303fea886a99d606a899880e76eb6a3a034985348a3d30b209a"),
    ("conjectures --format csv",
     "f0211e52d2f544b7f47473fdb10720897ed0d9a36295ea65e4bea8833d931c52"),
    ("conjectures --format jsonl",
     "fd3177e027da18559768d9b42b691d2f1f48ad9f9b6d121b622984561033f687"),
    ("count --pattern 1102 --modified --n 1..8 --format table",
     "a0bbc1129c78515213fa1b0cab001055fa8f488271e194ae453641fe8451ecf3"),
    ("count --pattern 1102 --modified --n 1..8 --format csv",
     "d16189b7515d242822daaae4e65e9cfe90cf3d1fde0de7bf9fa1cccb5e3f28bf"),
    ("count --pattern 1102 --modified --n 1..8 --format jsonl",
     "30145aa433044e31264f70e06a9afdc6b717935631fdfafcfbc04f29e76e7f5c"),
    ("dist --pattern 1021 --modified --n 2..6 --stats asc,des --format table",
     "cf784012d18d04cbcece6a51acf362f6afcffad6f6cf930a1ed2254a25ad10a8"),
    ("dist --pattern 1021 --modified --n 2..6 --stats asc,des --format csv",
     "d4b6bad53beb3958ad8dc8d2f9f904203412867fcabb59c8f8dbb801adddb493"),
    ("dist --pattern 1021 --modified --n 2..6 --stats asc,des --format jsonl",
     "2a0cdf3df892dd20ba29172be0fb87b7b9b5bd8f624f36bcdae99c84b1264733"),
]


class TestBudgetOutput:
    @pytest.mark.parametrize("line,digest", BUDGET_DIGESTS)
    def test_stdout_is_unchanged(self, capsys, line, digest):
        code, out, err = run_cli(capsys, *line.split(), "--budget-seconds",
                                 "-1")
        assert code == EXIT_BUDGET and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEmit:
    def test_a_jsonl_row_is_encoded_as_json_dumps_encodes_it(self, capsys):
        # a jsonl row is encoded column by column, with no dict per row
        row = {"s": 'a "quoted" \\ é', "i": -12345678901234567890,
               "b": True, "none": None, "f": 0.1, "l": [1, "x", False]}
        cli._run(SimpleNamespace(format="jsonl"), "count", {}, list(row),
                 [row])
        line = capsys.readouterr().out.splitlines()[1]
        assert line == json.dumps(row, separators=(", ", ": "))

    @pytest.mark.parametrize("argv,field", [
        (["list", "--pattern", "00", "--n", "11"], "0,1,2,3,4,5,6,7,8,9,10"),
        (["bijection", "--name", "phi", "--input", "0123456789"],
         "10,9,8,7,6,5,4,3,2,1"),
    ])
    def test_csv_quotes_a_field_that_holds_a_comma(self, capsys, argv,
                                                   field):
        # a word with a letter above 9 is written with commas
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        header, *rows = csv.reader(out.splitlines()[1:])
        assert code == EXIT_OK
        assert [len(row) for row in rows] == [len(header)]
        assert field in rows[0]

    @pytest.mark.parametrize("fmt,line", [("csv", "1,1"),
                                          ("jsonl", '{"n": 1, "count": 1}')])
    def test_rows_are_written_as_they_are_made(self, capsys, fmt, line):
        # in chunks of 1000 rows
        seen = []

        def rows():
            for n in range(1, 10001):
                yield {"n": n, "count": n}
            seen.append(capsys.readouterr().out)
            raise BudgetExceeded("budget of 1s exceeded")

        code = cli._run(SimpleNamespace(format=fmt), "count", {},
                        ["n", "count"], rows())
        assert code == EXIT_BUDGET
        assert line in seen[0].splitlines()[:3]
        lines = (seen[0] + capsys.readouterr().out).splitlines()
        assert len(lines) == 10002 + (fmt == "csv")

    @pytest.mark.parametrize("fmt", ["table", "csv", "jsonl"])
    def test_an_error_before_the_first_row_leaves_stdout_empty(self, capsys,
                                                               fmt):
        # the walk refuses the pattern when the first row is asked for
        assert run_cli(capsys, "list", "--pattern", "0" * 1001, "--n", "5",
                       "--format", fmt) == (
            EXIT_USAGE, "",
            "error: patterns longer than 1000 letters are not supported\n")

    def test_memory_error_while_the_table_buffers(self, capsys):
        # the aligned table holds every row's cells until the end; running
        # out of memory there refuses as in the rows themselves
        class Unprintable:
            def __str__(self):
                raise MemoryError

        rows = iter([{"n": 1, "count": 1}, {"n": 2, "count": Unprintable()}])
        code = cli._run(SimpleNamespace(format="table"), "count",
                        {"pattern": "1001"}, ["n", "count"], rows)
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_BUDGET, "")
        assert out.splitlines() == ["# ascentseq/1 count pattern=1001",
                                    "n  count", "1  1",
                                    "# incomplete: out of memory"]


class TestBijection:
    @pytest.mark.parametrize("name,inp,outp", [
        ("seq101-to-perm312", "01023200", "45378621"),
        ("perm312-to-seq101", "45378621", "01023200"),
        ("phi", "011213232", "641325879"),
        ("modify", "010221212", "010441312"),
        ("unmodify", "010441312", "010221212"),
        ("restricted-to-021", "0123", "0123"),
        ("rgf-decode", "001021", "124-36-5"),
        ("rgf-encode", "124-36-5", "001021"),
        ("seq102-to-ternary", "0", ""),
        ("ternary-to-seq102", "", "0"),
        ("perm231-to-ncpartition", "641325879", "146-23-5-78-9"),
    ])
    def test_named_maps(self, capsys, name, inp, outp):
        code, out, _ = run_cli(capsys, "bijection", "--name", name,
                               "--input", inp, "--format", "jsonl")
        assert code == EXIT_OK
        row = json.loads(out.splitlines()[1])
        assert row["output"] == outp

    def test_phi_of_a_long_input(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "--name", "phi",
                               "--input", "0" * 2000, "--format", "jsonl")
        assert code == EXIT_OK
        row = json.loads(out.splitlines()[1])
        assert row["asc_in"] == row["des_out"] == 0

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "bijection", "--name", "nope",
                               "--input", "0")
        assert code == EXIT_USAGE and "unknown bijection" in err

    def test_domain_error_surfaces(self, capsys):
        code, _, err = run_cli(capsys, "bijection", "--name",
                               "seq101-to-perm312", "--input", "0101")
        assert code == EXIT_USAGE and "101" in err


class TestWilfCmd:
    def test_small_classification(self, capsys):
        code, out, _ = run_cli(capsys, "wilf", "--pattern",
                               "101,0101,021,000", "--n", "8")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert any("021 101 0101" in line for line in lines)
        assert any(line.split()[-1] == "000" for line in lines[2:])

    def test_jsonl_includes_separations(self, capsys):
        code, out, _ = run_cli(capsys, "wilf", "--pattern", "000,100",
                               "--n", "5", "--format", "jsonl")
        assert code == EXIT_OK
        assert any("separation 000 100 n=3" in line
                   for line in out.splitlines())

    def test_repeated_pattern_counts_once(self, capsys):
        code, out, _ = run_cli(capsys, "wilf", "--pattern", "01,01",
                               "--n", "3")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].endswith("patterns=1")
        assert lines[2:] == ["1      1     01"]

    @pytest.mark.parametrize("labels", ["", ","])
    def test_empty_pattern_is_refused(self, capsys, labels):
        code, out, err = run_cli(capsys, "wilf", "--pattern", labels,
                                 "--n", "3")
        assert (code, out) == (EXIT_USAGE, "")
        assert "nonempty digit string" in err


# sha256 of stdout at --n n and at --n 1..n, the two forms of the
# lengths 1..n that wilf and conjectures take
ONE_TO_N_DIGESTS = [
    ("wilf --pattern 01,10,000,100 --n 6 --format table",
     "fc08d726b986fabf8e353be7c2e9fc7c8f49e29e3c439724ae633228ee82fddd"),
    ("wilf --pattern 01,10,000,100 --n 1..6 --format csv",
     "a4a9f43341ae482fc85b4ec4b927b86bcbfbd437e78246c6c4e9a7c79f5a24ed"),
    ("wilf --pattern 101,021,0012,000 --n 7 --format jsonl",
     "262d51bed415b53b851be5ac4fa63433faf6f65ebf30d77f5b87f448ec44626a"),
    ("wilf --pattern 101,021,0012,000 --n 1..7 --format jsonl",
     "6369ca0e804fcc7bd4b4982a466e8e81a456646507cc10af0a0926fdf7833663"),
    ("wilf --pattern 101,021,0012,000 --n 1..7 --format table",
     "a4756e8dca4cb2f74e4f58bcdd2345cc829370970837f14eede9bf78c26f573f"),
    ("conjectures --name 0123 --n 8 --format csv",
     "8fc455ae85800ca21a26de3854fbf0baf02dcb5a7e60752ed31028e7c6d8ba04"),
    ("conjectures --name 0123 --n 1..8 --format jsonl",
     "51eadb7d4c45125c1a2491746ebf6c83ef451b9f094134eb856f5d3d73a046ae"),
    ("conjectures --name 210 --n 1..7 --format table",
     "cb3f2a2447f9bbf0c240cb2a7499ef7ac73814a1bde679cd6e46bdfa8d7d1b7b"),
]


class TestLengthsFromOne:
    @pytest.mark.parametrize("line,digest", ONE_TO_N_DIGESTS)
    def test_stdout_is_unchanged(self, capsys, line, digest):
        code, out, err = run_cli(capsys, *line.split())
        assert code == EXIT_OK and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ["wilf", "--pattern", "01,10", "--n", "5..6"],
        ["wilf", "--n", "2..2"],
        ["conjectures", "--name", "0123", "--n", "3..5"],
        ["conjectures", "--n", "4..4", "--format", "jsonl"],
    ])
    def test_a_lower_end_past_one_is_refused(self, capsys, argv):
        # both commands count every length from 1; a range a..b used to
        # run 1..b and echo a..b
        code, out, err = run_cli(capsys, *argv)
        text = argv[argv.index("--n") + 1]
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("error: lengths start at 1 here: give --n n or 1..n, "
                       f"not '{text}'\n")


class TestTableCmd:
    def test_small_diff_ok(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--nmax", "7")
        assert code == EXIT_OK
        body = out.splitlines()[2:]
        assert len(body) == 19
        assert all(line.endswith("ok") for line in body)


    def test_budget_counts_before_the_closed_forms(self, capsys):
        # the reference values up to the length cap take minutes; only
        # the count checks the budget, so it must run first
        start = time.monotonic()
        code, _, _ = run_cli(capsys, "table", "--nmax", "1000000",
                             "--budget-seconds", "0.3")
        assert code == EXIT_BUDGET
        assert time.monotonic() - start < 20

    def test_mismatch_exits_4(self, capsys, monkeypatch):
        real = cli.expected_counts

        def wrong(label, n_max):
            want = dict(real(label, n_max))
            if label == "101":
                want[5] += 1
            return want

        monkeypatch.setattr(cli, "expected_counts", wrong)
        code, out, _ = run_cli(capsys, "table", "--nmax", "7", "--format",
                               "csv")
        assert code == EXIT_VERIFY
        body = out.splitlines()[2:]
        assert len(body) == 19
        # the status holds a comma, so csv quotes it
        assert '101,7,"mismatch at n=5: got 42, want 43"' in body
        assert sum(not line.endswith(",ok") for line in body) == 1


class TestConjecturesCmd:
    def test_single_conjecture(self, capsys):
        code, out, _ = run_cli(capsys, "conjectures", "--name", "0123",
                               "--n", "8")
        assert code == EXIT_OK
        assert "holds" in out

    def test_modi_budget_counts_every_sequence(self, capsys,
                                               ticking_clock):
        # the modi check makes one layered pass per pattern, 4254 states
        # in all at n=10, and the 0.5 s budget allows 500 checks; the
        # budget must be able to stop it inside a pass
        code, out, _ = run_cli(capsys, "conjectures", "--name", "modi",
                               "--n", "10", "--budget-seconds", "0.5",
                               "--format", "jsonl")
        assert code == EXIT_BUDGET
        status = json.loads(out.splitlines()[-1])["status"]
        assert status["complete"] is False

    @pytest.mark.parametrize("name", ["0012", "bi-021"])
    def test_budget_counts_every_word(self, capsys, ticking_clock, name):
        # the 0012 check makes 1375 budget checks to length 11, and the
        # bi-021 check 2030 to length 20, and the 1 s budget allows 1000;
        # the budget must be able to stop each inside its pass
        code, out, _ = run_cli(capsys, "conjectures", "--name", name,
                               "--n", {"0012": "11", "bi-021": "20"}[name],
                               "--budget-seconds", "1",
                               "--format", "jsonl")
        assert code == EXIT_BUDGET
        status = json.loads(out.splitlines()[-1])["status"]
        assert status["complete"] is False

    def test_an_error_after_a_few_rows_leaves_stdout_empty(self, capsys,
                                                           monkeypatch):
        # past a check's limit, such as the 210 tableau walk's at
        # n >= 222, a conjecture refuses after the rows of those before
        # it; rows go out in chunks of 1000, so those few rows are never
        # written
        real = cli.run_conjecture
        message = "n and k are past the supported size of the walk"

        def refusing(cid, n_max=None, check=None):
            if cid == "210":
                raise ValueError(message)
            return real(cid, n_max, check)

        monkeypatch.setattr(cli, "run_conjecture", refusing)
        assert run_cli(capsys, "conjectures", "--n", "6", "--format",
                       "jsonl") == (EXIT_USAGE, "", f"error: {message}\n")

    def test_unknown_conjecture(self, capsys):
        code, _, err = run_cli(capsys, "conjectures", "--name", "zzz")
        assert code == EXIT_USAGE and "unknown conjecture" in err

    def test_failure_exits_4(self, capsys, monkeypatch):
        real = cli.run_conjecture

        def failing(cid, n_max=None, check=None):
            res = real(cid, n_max, check)
            if cid == "210":
                res.verdicts[3] = ConjectureVerdict(4, False, "planted")
            return res

        monkeypatch.setattr(cli, "run_conjecture", failing)
        code, out, _ = run_cli(capsys, "conjectures", "--n", "6", "--format",
                               "jsonl")
        assert code == EXIT_VERIFY
        rows = [json.loads(line) for line in out.splitlines()[1:-1]]
        assert [r["verdict"] for r in rows] == [
            "fails" if r["conjecture"] == "210" else "holds" for r in rows]
        assert {"conjecture": "210", "n_max": 6, "verdict": "fails",
                "detail": "n=4: planted"} in rows
        assert json.loads(out.splitlines()[-1]) == {
            "status": {"complete": True}}
