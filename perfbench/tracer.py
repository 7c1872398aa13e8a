"""Outside-in tracing of the ascentseq layers.

The tracer replaces public functions, as bound in the modules that call
them, with counting and timing wrappers, and restores them afterwards.
Nothing inside the package changes.  Spans (name, start, end, parent)
are kept for the calls that happen a bounded number of times per run;
the hot calls (tracker queries, containment, budget checks) only bump
counters and clocks.

Wrapped bindings:

    enumeration.make_tracker       -> the Tracker callables it returns
    incremental/enumeration.extension_completes
    enumeration/bijections.contains, bijections.perm_contains
    cli/oracles.count_avoiders, the generators avoiders, perm_avoiders,
    generate_ascent_sequences and generate_set_partitions
    oracles.non_k_crossing_partition_count, bijections.modify and phi
    cli.run_conjecture, cli.wilf_classify, cli.Budget.check
"""

from __future__ import annotations

import contextlib
import time

CLOCK = time.perf_counter_ns
SAMPLE_CAP = 20000
REPLAY_ROUNDS = 5


class _Sampler:
    """Keeps an evenly strided sample of at most SAMPLE_CAP queries over
    the whole run: when the buffer fills, every other entry is dropped
    and the stride doubles.  Deterministic, because calls are."""

    def __init__(self):
        self.items: list = []
        self.stride = 1
        self.next_at = 1

    def take(self, item) -> None:
        self.items.append(item)
        if len(self.items) >= SAMPLE_CAP:
            del self.items[1::2]        # drops the entry just taken, too
            self.next_at -= self.stride
            self.stride *= 2
        self.next_at += self.stride


class Tracer:
    def __init__(self, ascentseq):
        self.pkg = ascentseq
        self.spans: list[list] = []     # [id, name, start_ns, end_ns, parent]
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.ns: dict[str, int] = {}
        # per family: forbid calls, forbid pruned, step calls, count_allowed
        self.family = {"hand": [0, 0, 0, 0], "generic": [0, 0, 0, 0]}
        self.samplers = {(f, op): _Sampler() for f in self.family
                         for op in ("forbid", "step")}
        self.leaf_ns = [0]              # tracker queries and budget checks
        self.count_self_ns = 0
        self.nodes = 0
        self._undo: list = []
        self._make = None               # the unwrapped make_tracker
        self.patched: list[str] = []

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, CLOCK(), None,
               self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = CLOCK()
            self._stack.pop()

    def span_seconds(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1] == name) / 1e9

    def self_seconds(self) -> dict[str, float]:
        """Span duration minus the part covered by child spans, by name."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s[1]] = out.get(s[1], 0.0) + (s[3] - s[2] - child[s[0]]) / 1e9
        return out

    # -- patching ------------------------------------------------------------

    def _set(self, obj, name: str, value) -> None:
        old = getattr(obj, name)
        self._undo.append((obj, name, old))
        setattr(obj, name, value)

    def _wrap(self, modules: list[str], name: str, make) -> None:
        """Replace `name` in each consumer module that binds the same
        function; a binding a later version dropped is skipped."""
        wrapped = {}
        for modname in modules:
            mod = getattr(self.pkg, modname)
            fn = getattr(mod, name, None)
            if fn is None:
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = make(fn)
            self._set(mod, name, wrapped[id(fn)])
            self.patched.append(f"{modname}.{name}")

    def install(self) -> None:
        p = self.pkg
        self._wrap(["enumeration"], "make_tracker", self._make_tracker)
        self._wrap(["incremental", "enumeration"], "extension_completes",
                   lambda f: self._timed("core.extension_completes", f))
        self._wrap(["enumeration", "bijections"], "contains",
                   lambda f: self._timed("core.contains", f))
        self._wrap(["bijections"], "perm_contains",
                   lambda f: self._timed("core.perm_contains", f))
        for fn in ("modify", "phi"):
            self._wrap(["bijections"], fn,
                       lambda f, fn=fn: self._timed(f"bijections.{fn}", f))
        self._wrap(["cli", "oracles"], "count_avoiders", self._count_avoiders)
        for gen in ("avoiders", "perm_avoiders", "generate_ascent_sequences"):
            self._wrap(["cli", "enumeration", "oracles"], gen,
                       lambda f, g=gen: self._generator(f"enumeration.{g}", f))
        self._wrap(["oracles"], "generate_set_partitions",
                   lambda f: self._generator("oracles.partitions", f))
        self._wrap(["oracles"], "non_k_crossing_partition_count",
                   lambda f: self._spanned("oracles.non_k_crossing", f))
        self._wrap(["cli"], "wilf_classify",
                   lambda f: self._spanned("oracles.wilf_classify", f))
        self._wrap(["cli"], "run_conjecture", self._run_conjecture)
        self._budget(p.cli.Budget)

    def uninstall(self) -> None:
        while self._undo:
            obj, name, old = self._undo.pop()
            setattr(obj, name, old)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key: str, f):
        calls, ns = self.calls, self.ns
        calls[key] = ns[key] = 0

        def wrapper(*args, **kwargs):
            t0 = CLOCK()
            try:
                return f(*args, **kwargs)
            finally:
                ns[key] += CLOCK() - t0
                calls[key] += 1
        return wrapper

    def _spanned(self, key: str, f):
        calls = self.calls
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            with self.span(key):
                return f(*args, **kwargs)
        return wrapper

    def _run_conjecture(self, f):
        def wrapper(conjecture_id, *args, **kwargs):
            with self.span(f"oracles.run_conjecture.{conjecture_id}"):
                return f(conjecture_id, *args, **kwargs)
        return wrapper

    def _generator(self, key: str, f):
        calls, ns = self.calls, self.ns
        calls[key] = ns[key] = 0

        def wrapper(*args, **kwargs):
            it = iter(f(*args, **kwargs))
            while True:
                t0 = CLOCK()
                try:
                    item = next(it)
                except StopIteration:
                    ns[key] += CLOCK() - t0
                    return
                ns[key] += CLOCK() - t0
                calls[key] += 1
                yield item
        return wrapper

    def _count_avoiders(self, f):
        calls = self.calls
        calls["enumeration.count_avoiders"] = 0
        fam, leaf = self.family, self.leaf_ns

        def wrapper(*args, **kwargs):
            calls["enumeration.count_avoiders"] += 1
            steps0 = fam["hand"][2] + fam["generic"][2]
            leaf0 = leaf[0]
            with self.span("enumeration.count_avoiders") as rec:
                result = f(*args, **kwargs)
            self.count_self_ns += rec[3] - rec[2] - (leaf[0] - leaf0)
            self.nodes += fam["hand"][2] + fam["generic"][2] - steps0
            return result
        return wrapper

    def _budget(self, budget_cls) -> None:
        orig = budget_cls.check
        calls, leaf = self.calls, self.leaf_ns
        calls["cli.budget.checks"] = 0

        def check(budget):
            t0 = CLOCK()
            try:
                return orig(budget)
            finally:
                leaf[0] += CLOCK() - t0
                calls["cli.budget.checks"] += 1
        self._set(budget_cls, "check", check)
        self.patched.append("cli.Budget.check")

    def _make_tracker(self, make):
        self._make = make
        specialized = self.pkg.incremental.SPECIALIZED
        normalize = self.pkg.core.normalize_pattern
        leaf = self.leaf_ns

        def wrapper(p, size, *args, **kwargs):
            tr = make(p, size, *args, **kwargs)
            q = normalize(p)
            generic = kwargs.get("generic", bool(args and args[0]))
            family = "generic" if generic or q not in specialized else "hand"
            st = self.family[family]
            s_forbid = self.samplers[(family, "forbid")]
            s_step = self.samplers[(family, "step")]
            key = (q, size, bool(generic))
            f_forbid, f_step, f_count = tr.forbid, tr.step, tr.count_allowed

            def forbid(s, c):
                t0 = CLOCK()
                r = f_forbid(s, c)
                leaf[0] += CLOCK() - t0
                st[0] += 1
                if r:
                    st[1] += 1
                if st[0] == s_forbid.next_at:
                    s_forbid.take((key, s, c))
                return r

            def step(s, c):
                t0 = CLOCK()
                r = f_step(s, c)
                leaf[0] += CLOCK() - t0
                st[2] += 1
                if st[2] == s_step.next_at:
                    s_step.take((key, s, c))
                return r

            def count_allowed(s, top):
                t0 = CLOCK()
                r = f_count(s, top)
                leaf[0] += CLOCK() - t0
                st[3] += 1
                return r

            return tr._replace(forbid=forbid, step=step,
                               count_allowed=count_allowed)
        return wrapper

    # -- replay --------------------------------------------------------------

    def replay_ns_per_op(self) -> dict[tuple[str, str], float]:
        """Median time per query over REPLAY_ROUNDS replays of the
        sampled queries through freshly built, unwrapped trackers (the
        loop's own iteration cost is included)."""
        make = self._make
        out = {}
        trackers = {}
        for (family, op), sampler in self.samplers.items():
            if not sampler.items:
                out[(family, op)] = 0.0
                continue
            work = []
            for key, s, c in sampler.items:
                if key not in trackers:
                    q, size, generic = key
                    trackers[key] = make(q, size, generic=generic)
                work.append((getattr(trackers[key], op), s, c))
            rounds = []
            for _ in range(REPLAY_ROUNDS):
                t0 = CLOCK()
                for fn, s, c in work:
                    fn(s, c)
                rounds.append(CLOCK() - t0)
            rounds.sort()
            out[(family, op)] = rounds[len(rounds) // 2] / len(work)
        return out
