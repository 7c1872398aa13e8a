"""``python -m ascentseq`` as a separate process: exit codes and stderr."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ascentseq

SRC = str(Path(ascentseq.__file__).resolve().parent.parent)
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# what ``from ascentseq import *`` gives, by the submodule that defines
# each name; the five submodules are exported too
EXPORTS = {
    "core": ["STATISTICS", "Word", "as_word", "asc", "avoids", "contains",
             "count_occurrences", "des", "fwd", "is_ascent_sequence",
             "is_pattern", "is_permutation", "is_restricted", "is_rgf",
             "lrmax", "lrmin", "maximal_positions", "normalize_pattern",
             "perm_contains", "rlmax", "rlmin", "stat", "word_str",
             "zeros"],
    "enumeration": ["CountSeries", "avoider_counts", "avoiders",
                    "count_ascent_sequences", "count_avoiders",
                    "count_modified_avoiders",
                    "distribution", "generate_ascent_sequences",
                    "generate_restricted", "generate_set_partitions",
                    "joint_distribution", "joint_histograms",
                    "modified_asc_counts", "modified_avoiders",
                    "perm_avoiders"],
    "bijections": ["BIJECTIONS", "LiftedBinaryDecomposition",
                   "SetPartition", "is_noncrossing",
                   "lifted_binary_decompose", "modify", "partition_str",
                   "perm231_to_ncpartition", "perm312_to_seq101", "phi",
                   "reduce_tail", "restricted_to_021", "rgf_decode",
                   "rgf_encode", "seq021_to_restricted",
                   "seq101_to_perm312", "seq102_to_ternary",
                   "standardize_partition", "ternary_to_seq102",
                   "unmodify"],
    "oracles": ["ConjectureResult", "WilfReport", "all_patterns", "bell",
                "binomial_transform_catalan", "catalan",
                "dyck_height5_count", "fishburn", "growth_rate_estimates",
                "half_power_formula", "narayana",
                "non_k_crossing_partition_count", "run_conjecture",
                "stirling2", "ternary_even_twos_count", "wilf_classify"],
}
EXPORTED_MODULES = ["core", "enumeration", "bijections", "oracles",
                    "incremental"]
STAR_NAMES = sorted([*(n for group in EXPORTS.values() for n in group),
                     *EXPORTED_MODULES])
SUBMODULES = [*EXPORTED_MODULES, "fixtures", "cli"]


def package_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])])
    return env


def run_python(*args, **kwargs):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=package_env(), timeout=60, **kwargs)


def run_module(*argv):
    return run_python("-m", "ascentseq", *argv)


@pytest.mark.parametrize("argv,code,err", [
    (["count", "--pattern", "101", "--n", "1..5", "--format", "csv"], 0, ""),
    (["count", "--n", "3"], 2, "the following arguments are required: "
     "--pattern"),
    (["count", "--pattern", "275", "--n", "3"], 2, "error: pattern '275' is "
     "not in normal form"),
    (["count", "--pattern", "101", "--n", "1..5", "--budget-seconds", "-1"],
     3, ""),
])
def test_exit_codes(argv, code, err):
    proc = run_module(*argv)
    assert proc.returncode == code
    assert err in proc.stderr if err else proc.stderr == ""
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert proc.stdout.splitlines()[2:] == ["1,1", "2,2", "3,5", "4,14",
                                                "5,42"]
    if code == 3:
        assert proc.stdout.splitlines()[-1] == (
            "# incomplete: budget of -1s exceeded")


def test_count_at_the_length_cap_stays_small(tmp_path):
    # the longest count the CLI takes, cut by its budget: no tracker
    # state grows with the length bound, so the process stays small.
    # The child writes its own peak RSS in MiB as it exits.  On Linux its
    # ru_maxrss also counts the peak of the test process that started
    # it, which exec keeps, so there it reads VmHWM, the peak of its own
    # memory map.
    rss = tmp_path / "maxrss"
    code = (
        "import atexit, resource, runpy, sys\n"
        "def report():\n"
        "    try:\n"
        "        status = open('/proc/self/status').read()\n"
        "        kib = int(status.split('VmHWM:')[1].split()[0])\n"
        "    except (OSError, IndexError):\n"
        "        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "        if sys.platform == 'darwin':\n"
        "            kib //= 1024\n"
        f"    open({str(rss)!r}, 'w').write(str(kib // 1024))\n"
        "atexit.register(report)\n"
        "runpy.run_module('ascentseq', run_name='__main__')\n")
    proc = run_python("-c", code, "count", "--pattern", "1302", "--n",
                      "1000000", "--budget-seconds", "0.5")
    # every assertion names what the child did, so a rare failure shows
    # its cause
    last = proc.stdout.splitlines()[-1:]
    peak = rss.read_text() if rss.exists() else ""
    seen = (f"exit code {proc.returncode}, stderr {proc.stderr!r}, "
            f"last stdout line {last}, peak RSS {peak!r} MiB")
    assert proc.returncode == 3, seen
    assert proc.stderr == "", seen
    assert last == ["# incomplete: budget of 0.5s exceeded"], seen
    assert peak.isdigit() and int(peak) < 150, seen


@pytest.mark.skipif(sys.platform != "linux",
                    reason="an address-space limit as Linux applies it")
def test_a_listing_streams_under_an_address_space_limit():
    # written as they are made, the 125989 rows of this listing run in
    # 23 MiB of address space (Linux x86-64, CPython 3.11); held until
    # the end, they peaked at 72 MiB and ran out of memory under this
    # limit
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (60000 * 1024,) * 2)

    argv = ["list", "--pattern", "1001", "--n", "10", "--format", "jsonl"]
    limited = run_python("-m", "ascentseq", *argv, preexec_fn=limit)
    free = run_module(*argv)
    assert (limited.returncode, limited.stderr) == (0, "")
    assert len(free.stdout.splitlines()) == 125991
    assert limited.stdout == free.stdout


def test_a_closed_stdout_ends_the_run_quietly():
    # the reader stops after two lines, as `| head -2` does; the rows
    # fill the pipe long before they end
    proc = subprocess.Popen(
        [sys.executable, "-m", "ascentseq", "list", "--pattern", "1001",
         "--n", "9", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env())
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 3
    assert err == b""
    assert head == [b"# ascentseq/1 list pattern=1001 n=9\n",
                    b"n,sequence\n"]


def test_import_loads_neither_dataclasses_nor_inspect():
    # the result records are NamedTuples: dataclasses would pull in
    # inspect, ast and dis, a third of the package's own cold start
    listing = "import sys; print(*sorted(sys.modules))"
    bare = set(run_python("-c", listing).stdout.split())
    loaded = set(run_python(
        "-c", "import ascentseq, ascentseq.cli; " + listing).stdout.split())
    assert "ascentseq.cli" in loaded
    assert not {"dataclasses", "inspect"} & (loaded - bare)


def test_main_calls_in_one_process_match_lone_runs():
    # main builds its parser once per process; a run of calls with other
    # subcommands and flags, usage errors among them, prints what each
    # call prints alone and exits the same
    calls = [
        ["count", "--pattern", "101", "--n", "1..6", "--modified",
         "--format", "jsonl"],
        ["count", "--pattern", "101", "--n", "1..6", "--format", "jsonl"],
        ["count", "--n", "3"],
        ["count", "--pattern", "275", "--n", "3"],
        ["dist", "--pattern", "012", "--n", "4", "--stats", "asc,des",
         "--modified", "--format", "csv"],
        ["dist", "--pattern", "012", "--n", "4", "--stats", "asc"],
        ["wilf", "--pattern", "012,021,000", "--n", "5"],
        ["count", "--pattern", "101", "--n", "1..6", "--format", "jsonl"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from ascentseq.cli import main\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), "
        "contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            rc = main(argv)\n"
        "        except SystemExit as exc:\n"
        "            rc = exc.code\n"
        "    runs.append([rc, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(runs))\n")
    proc = run_python("-c", code, json.dumps(calls))
    assert proc.returncode == 0, proc.stderr
    together = json.loads(proc.stdout)
    for argv, (rc, out, err) in zip(calls, together, strict=True):
        alone = run_module(*argv)
        assert (rc, out, err) == (alone.returncode, alone.stdout,
                                  alone.stderr), argv
    assert [rc for rc, _, _ in together] == [0, 0, 2, 2, 0, 0, 0, 0]


def test_reading_the_table_loads_no_engine_module():
    # the benchmark's set-up probe: a bare import and the first
    # load_table() load the package and fixtures, nothing else
    proc = run_python("-c", (
        "import ascentseq; from ascentseq import fixtures; "
        "fixtures.load_table(); import sys; "
        "print(*sorted(m for m in sys.modules if m.startswith('ascentseq')))"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ascentseq", "ascentseq.fixtures"]


def test_star_import_gives_the_exported_names():
    names = {}
    exec("from ascentseq import *", names)
    del names["__builtins__"]
    assert len(STAR_NAMES) == 80
    assert sorted(names) == STAR_NAMES
    for module, group in EXPORTS.items():
        home = vars(sys.modules[f"ascentseq.{module}"])
        for name in group:
            assert names[name] is home[name] is getattr(ascentseq, name)
    for module in EXPORTED_MODULES:
        assert names[module] is sys.modules[f"ascentseq.{module}"]


def test_names_resolve_after_a_bare_import():
    # in a fresh interpreter, before anything has loaded a submodule
    proc = run_python("-c", (
        "import json, sys, ascentseq\n"
        "listed = dir(ascentseq)\n"
        "modules = {m: getattr(ascentseq, m) is sys.modules[f'ascentseq.{m}']"
        " for m in json.loads(sys.argv[1])}\n"
        "print(json.dumps([listed, modules, hasattr(ascentseq, 'nosuch')]))"),
        json.dumps(SUBMODULES))
    assert proc.returncode == 0, proc.stderr
    listed, modules, unknown = json.loads(proc.stdout)
    assert modules == dict.fromkeys(SUBMODULES, True)
    assert not unknown
    assert {*ascentseq.__all__, *SUBMODULES} <= set(listed)
    assert sorted(ascentseq.__all__) == STAR_NAMES
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        ascentseq.nosuch


def test_version_is_the_packaged_one():
    # a regex, since tomllib is new in 3.11
    version = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(),
                        re.MULTILINE)
    assert version and ascentseq.__version__ == version.group(1)
