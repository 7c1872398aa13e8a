"""The tracer behind ``perfbench/run.py --trace 1``, loaded as it is: it
must still find the bindings it wraps and see the trackers work."""

import importlib.util
from pathlib import Path

import ascentseq
from ascentseq import cli, oracles

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the bindings the benchmark's per-layer figures are read from
EXPECTED = {"enumeration.make_tracker", "cli.count_avoiders",
            "oracles.count_avoiders", "cli.avoiders", "cli.wilf_classify",
            "cli.run_conjecture", "cli.Budget.check", "bijections.contains",
            "bijections.modify", "bijections.phi"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_trace_patches_and_counts(capsys):
    bound = (cli.run_conjecture, cli.Budget.check, oracles.count_avoiders)
    tracer = load_tracer()(ascentseq)
    tracer.install()
    try:
        assert cli.main(["dist", "--pattern", "101", "--n", "7",
                         "--stats", "asc"]) == 0
        assert cli.main(["conjectures", "--name", "bi-021", "--n", "6"]) == 0
        # the layered passes grow live keys and ask no forbid; the walk
        # that lists avoiders (cli.avoiders) still does
        assert cli.main(["list", "--pattern", "101", "--n", "5"]) == 0
    finally:
        tracer.uninstall()
    assert (cli.run_conjecture, cli.Budget.check,
            oracles.count_avoiders) == bound
    assert "bi-021      6      holds" in capsys.readouterr().out
    assert EXPECTED <= set(tracer.patched)
    # every pattern runs the one tracker, which the tracer counts in its
    # generic family; its hand family sees no call
    forbid, _, step, _ = tracer.family["generic"]
    assert forbid > 0 and step > 0
    assert tracer.family["hand"] == [0, 0, 0, 0]
    assert tracer.calls["cli.budget.checks"] > 0
    assert tracer.span_seconds("oracles.run_conjecture.bi-021") > 0
    replays = tracer.replay_ns_per_op()
    for (family, op), ns in replays.items():
        assert ns > 0 if family == "generic" else ns == 0.0, (family, op)
    assert {family for family, _ in replays} == {"hand", "generic"}
