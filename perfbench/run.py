"""Benchmark for ascentseq: four workloads, checked outputs, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; the package is imported
from ``src/`` beside this directory and never from an installed copy.
Workloads and metrics are declared in ``BENCHMARK.json``; each workload
runs single-threaded in this process.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

    setup_s      median, over fresh interpreters, of importing ascentseq
                 and the first ``fixtures.load_table()``, each at the
                 host speed its interpreter measured right after
    wall_s       median time of one pass of the workload's fixed job; the
                 job repeats until ``--seconds`` have passed (at least
                 once; bijection-roundtrip at least twice)
    peak_rss_mb  ru_maxrss of this process
    roundtrip_p50_ms, roundtrip_p99_ms
                 per round-trip latency, each item's latency being its
                 median over the passes made.  Every pass visits the items
                 in its own seeded order.  bijection-roundtrip reports its
                 own 1020 items (lengths 10..200).  The CLI workloads make,
                 before the job, three passes of a probe of 3060 round
                 trips of length 10..50, since every workload must report
                 every end-to-end metric.  The probe's median moves from
                 seed to seed with the items drawn, by 8% (interquartile
                 range over median) with 1020 items of length 10..80 and
                 by 3% with these; two passes let too many slow spells
                 of the host through to the 99th percentile.

``setup_s``, ``wall_s`` and the round-trip latencies are times at
reference speed (``hostspeed.py``): the speed of a shared host drifts
by up to half again over a few seconds, and by twice over tens of
minutes, so the job runs under a sampler that times a fixed kernel
every 50 ms, and each time is scaled by the host's speed while it was
taken.  The times as measured are in the report.  The cyclic garbage
collector is run before each timed pass, so that no pass pays for
garbage an earlier one left.

``--trace 1`` runs one pass with nothing wrapped and one with the tracer
of ``tracer.py`` installed; ``trace.overhead_ratio`` is the ratio of
their times.  Counts and span times come from the traced pass; the
``ns_per_op`` figures replay sampled tracker queries unwrapped, and the
``roundtrips_per_s`` figures come from the unwrapped pass.

Every pass is checked: CLI exit codes, the sha256 of each stdout against
``golden.json`` (recorded at the commit that added this benchmark),
the content checks of ``workloads.py``, and every round trip.  The
result line's ``failed`` counts the items that failed a check or were
refused by the budget; ``correct`` is false if any did, or if a traced
count differs from an earlier traced run of the same inputs and source.
A full report (metadata, problems, spans, counters) goes to
``.perfbench-out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median, quantiles

import hostspeed
import roundtrip
import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_PROBES = 9
SETUP_KERNELS = 8                  # host speed samples after each probe
SETUP_PROBE = ("import time; t0 = time.perf_counter(); import ascentseq; "
               "from ascentseq import fixtures; fixtures.load_table(); "
               "t = time.perf_counter() - t0; import sys; "
               "sys.path.insert(0, sys.argv[1]); import hostspeed; "
               f"print(t, *hostspeed.speeds({SETUP_KERNELS}))")
PROBE_ITEMS = (510, 10, 50)        # per pair, shortest, longest
PROBE_PASSES = 3
ROUNDTRIP_PASSES = 2               # bijection-roundtrip, at least
LOAD_TABLE_ROUNDS = 5
CONJECTURE_IDS = ("bi-021", "0012", "210", "0123", "0021-wilf",
                  "0021-count", "modi")
COUNT_SUFFIXES = (".calls", ".yielded")
COUNT_NAMES = ("enumeration.nodes", "cli.budget.checks",
               "oracles.partitions_scanned")


def tree_sha256(top: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(top.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(top)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, as measured and at reference
    speed; each probe times the kernel right after its set-up."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    measured, reference = [], []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(HERE)],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        t, *speeds = map(float, res.stdout.split())
        measured.append(t)
        reference.append(t * fmean(speeds))
    return measured, reference


def import_library():
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("ascentseq")
    for mod in ("cli", "core", "enumeration", "incremental", "fixtures",
                "oracles", "bijections"):
        importlib.import_module(f"ascentseq.{mod}")
    if Path(lib.__file__).resolve().parent != SRC / "ascentseq":
        raise SystemExit(f"imported ascentseq from {lib.__file__}, "
                         f"not from {SRC}")
    return lib


def timed_pass(workload, tracer=None):
    t0 = time.perf_counter()
    items = workload.run_pass(tracer)
    return time.perf_counter() - t0, items


def shuffled_pass(lib, items, rng: random.Random) -> list[dict]:
    """Round trip every item once, in an order drawn from rng; the
    results come back in the order of items."""
    order = list(range(len(items)))
    rng.shuffle(order)
    out = [None] * len(items)
    done = wl.run_roundtrips(lib, [items[i] for i in order])
    for i, res in zip(order, done):
        out[i] = res
    return out


def latencies_ms(passes: list[list[dict]]) -> list[float]:
    """Per-item latency: the median over the passes of that item's round
    trip, so that a burst of host noise during one pass does not count."""
    return [median([p[i]["ref_ns"] for p in passes]) / 1e6
            for i in range(len(passes[0]))
            if all(p[i]["ok"] for p in passes)]


# ---------------------------------------------------------------------------
# end to end


def end_to_end(lib, workload, seed: int, seconds: float, report: dict):
    setup_measured, setup = measure_setup()
    spans, problems, attempted, roundtrips = [], [], 0, []
    rng = random.Random(seed)

    def done(items, check) -> list[dict]:
        nonlocal attempted
        attempted += len(items)
        problems.extend(check(items))
        return items

    def timed(run):
        gc.collect()
        t0 = time.perf_counter_ns()
        items = run()
        spans.append((t0, time.perf_counter_ns()))
        return items

    with hostspeed.Sampler() as clock:
        if workload.kind == "cli":
            per_pair, lo, hi = PROBE_ITEMS
            probe = roundtrip.make_items(seed, per_pair, lo, hi)

            for _ in range(PROBE_PASSES):
                gc.collect()
                roundtrips.append(done(shuffled_pass(lib, probe, rng),
                                       wl.check_roundtrips))
            start = time.perf_counter()
            while True:
                done(timed(workload.run_pass), workload.check)
                if time.perf_counter() - start >= seconds:
                    break
        else:
            start = time.perf_counter()
            while (len(spans) < ROUNDTRIP_PASSES
                   or time.perf_counter() - start < seconds):
                items = timed(lambda: shuffled_pass(lib, workload.items, rng))
                roundtrips.append(done(items, workload.check))
    walls = [clock.reference_ns(t0, t1) / 1e9 for t0, t1 in spans]
    for items in roundtrips:
        for it in items:
            it["ref_ns"] = (clock.reference_ns(it["t0"], it["t1"])
                            if it["ok"] else 0)
    lat = latencies_ms(roundtrips)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report.update(passes=len(walls), walls_s=walls,
                  measured_walls_s=[(t1 - t0) / 1e9 for t0, t1 in spans],
                  host_speed_samples=len(clock.speeds),
                  host_speed_mean=fmean(clock.speeds),
                  setup_samples_s=setup,
                  measured_setup_samples_s=setup_measured,
                  roundtrip_samples=len(lat))
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setup),
        "peak_rss_mb": rss_kib / 1024,
        "roundtrip_p50_ms": median(lat),
        "roundtrip_p99_ms": quantiles(lat, n=100)[98],
    }
    return metrics, attempted, problems


# ---------------------------------------------------------------------------
# per layer


def per_layer(lib, workload, name: str, report: dict):
    wall0, items0 = timed_pass(workload)
    tracer = Tracer(lib)
    tracer.install()
    try:
        wall1, items1 = timed_pass(workload, tracer)
    finally:
        tracer.uninstall()
    problems = workload.check(items0) + workload.check(items1)
    attempted = len(items0) + len(items1)
    replay = tracer.replay_ns_per_op()

    load_table = lib.fixtures.load_table.__wrapped__
    rounds = []
    for _ in range(LOAD_TABLE_ROUNDS):
        t0 = time.perf_counter()
        load_table()
        rounds.append(time.perf_counter() - t0)

    calls, ns = tracer.calls, tracer.ns

    def per_call(key: str, scale: float) -> float:
        return ns.get(key, 0) / calls[key] / scale if calls.get(key) else 0.0

    m: dict[str, float] = {}
    for fam, st in tracer.family.items():
        m[f"incremental.{fam}.forbid.calls"] = st[0]
        m[f"incremental.{fam}.step.calls"] = st[2]
        m[f"incremental.{fam}.count_allowed.calls"] = st[3]
        m[f"incremental.{fam}.prune_ratio"] = st[1] / st[0] if st[0] else 0.0
        m[f"incremental.{fam}.forbid.ns_per_op"] = replay[(fam, "forbid")]
        m[f"incremental.{fam}.step.ns_per_op"] = replay[(fam, "step")]
    m["enumeration.count_avoiders.calls"] = calls.get(
        "enumeration.count_avoiders", 0)
    m["enumeration.count_avoiders.self_s"] = tracer.count_self_ns / 1e9
    m["enumeration.nodes"] = tracer.nodes
    m["cli.budget.checks"] = calls.get("cli.budget.checks", 0)
    for gen in ("avoiders", "perm_avoiders", "generate_ascent_sequences"):
        key = f"enumeration.{gen}"
        m[f"{key}.yielded"] = calls.get(key, 0)
        m[f"{key}.s"] = ns.get(key, 0) / 1e9
    for key in ("core.extension_completes", "core.contains",
                "core.perm_contains", "bijections.modify", "bijections.phi"):
        m[f"{key}.calls"] = calls.get(key, 0)
        m[f"{key}.us_per_call"] = per_call(key, 1e3)
    m["oracles.non_k_crossing.calls"] = calls.get("oracles.non_k_crossing", 0)
    m["oracles.non_k_crossing.s"] = tracer.span_seconds(
        "oracles.non_k_crossing")
    m["oracles.partitions_scanned"] = calls.get("oracles.partitions", 0)
    for cid in CONJECTURE_IDS:
        key = f"oracles.run_conjecture.{cid}"
        m[f"{key}.s"] = tracer.span_seconds(key)
    m["oracles.wilf_classify.s"] = tracer.span_seconds("oracles.wilf_classify")
    for pair in roundtrip.PAIRS:
        done = [it["ns"] for it in items0
                if it.get("pair") == pair and it["ok"]]
        m[f"bijections.{pair}.roundtrips_per_s"] = (
            len(done) / (sum(done) / 1e9) if done else 0.0)
    m["fixtures.load_table_s"] = median(rounds)
    m["trace.overhead_ratio"] = wall1 / wall0

    report["repeat_mismatches"] = repeat_check(name, workload, m)
    report.update(untraced_wall_s=wall0, traced_wall_s=wall1,
                  patched=tracer.patched, counters=tracer.calls,
                  timers_ns=tracer.ns, tracker_families=tracer.family,
                  replay_samples={f"{f}.{op}": len(s.items) for (f, op), s
                                  in tracer.samplers.items()},
                  self_s_by_span=tracer.self_seconds(),
                  spans=tracer.spans)
    return m, attempted, problems


def repeat_check(name: str, workload, m: dict) -> list[str]:
    """Counts must repeat exactly across traced runs of the same inputs,
    program and benchmark; the first such run records them, later ones
    compare."""
    counts = {k: v for k, v in m.items()
              if k.endswith(COUNT_SUFFIXES) or k in COUNT_NAMES}
    key = hashlib.sha256(json.dumps(
        [name, workload.inputs(), tree_sha256(SRC / "ascentseq"),
         tree_sha256(HERE)]).encode()).hexdigest()
    path = OUT / "counts" / f"{name}-{key[:16]}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return [f"traced count {k} was {before.get(k)}, now {counts.get(k)}"
            for k in sorted(set(before) | set(counts))
            if before.get(k) != counts.get(k)]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "ascentseq" / "__init__.py").is_file():
        print(f"error: no ascentseq sources under {SRC}", file=sys.stderr)
        return 2
    lib = import_library()
    workload = wl.WORKLOADS[args.workload](lib, args.seed)
    report = {"meta": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(), "git_sha": git_sha(),
        "source_sha256": tree_sha256(SRC / "ascentseq")}}
    if args.trace:
        metrics, attempted, problems = per_layer(lib, workload, args.workload,
                                                 report)
        declared = spec["per_layer"]
    else:
        metrics, attempted, problems = end_to_end(lib, workload, args.seed,
                                                  args.seconds, report)
        declared = spec["end_to_end"]
    mismatch = set(metrics) ^ {d["name"] for d in declared}
    if mismatch:
        raise SystemExit(f"metrics {sorted(mismatch)} differ from BENCHMARK.json")
    failed = len(problems)
    result = {
        "correct": failed == 0 and not report.get("repeat_mismatches"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }
    report.update(result=result, failed_ratio=failed / attempted,
                  problems=problems[:50])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    print(json.dumps(report["meta"]))
    for p in problems[:20] + report.get("repeat_mismatches", []):
        print(f"problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
