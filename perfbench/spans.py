"""Span tracing for the benchmark's traced runs.

Wrappers are installed around public functions of the package, each patched
where its caller looks the name up at call time (for example
`mutindep.mdi.chi2_sf` for the tails that `test_bipartitions` computes, or
`mutindep.inference.CORRECTIONS["fdr"]`).  A span records its name,
start, end, parent and thread; spans stay in memory until the run ends and
are then reduced to per-name totals.  A hook whose target no longer exists
is recorded as absent instead of failing, so a layer removed by a redesign
reads `absent` rather than crashing the run.
"""

import importlib
import itertools
import re
import threading
import time
from collections import Counter, defaultdict, namedtuple

Span = namedtuple("Span", "id name start end parent thread")

# (span or counter name, module, attribute path, kind).  A path step is an
# attribute, or a key when the object it is looked up in is a dict.
SPAN, COUNT = "span", "count"
HOOKS = (
    ("kernels.batch", "mutindep._kernels", ("mdi_statistic_batch",), SPAN),
    ("mdi.test_bipartitions", "mutindep.inference", ("test_bipartitions",), SPAN),
    ("mdi.mdi_statistics", "mutindep.mdi", ("mdi_statistics",), SPAN),
    ("distributions.chi2_sf", "mutindep.mdi", ("chi2_sf",), SPAN),
    ("distributions.noncentral_chi2_sf", "mutindep.mdi", ("noncentral_chi2_sf",), SPAN),
    # the central tails summed inside the noncentral mixture: counted only,
    # a span per mixture term would cost more than the term itself
    ("distributions.chi2_sf.inner", "mutindep.distributions", ("chi2_sf",), COUNT),
    ("fdr.bh_fdr", "mutindep.inference", ("CORRECTIONS", "fdr"), SPAN),
    ("fdr.bonferroni", "mutindep.inference", ("CORRECTIONS", "bonferroni"), SPAN),
    ("partitions.enumerate_bipartitions", "mutindep.inference", ("enumerate_bipartitions",), SPAN),
    ("partitions.enumerate_bipartitions", "mutindep.simulation", ("enumerate_bipartitions",), SPAN),
    ("partitions.entailed_dichotomies", "mutindep.inference", ("entailed_dichotomies",), SPAN),
    ("partitions.entailed_dichotomies", "mutindep.simulation", ("entailed_dichotomies",), SPAN),
    ("partitions.meet_all", "mutindep.inference", ("meet_all",), SPAN),
    ("partitions.meet", "mutindep.partitions", ("meet",), COUNT),
    ("objects.Bipartition", "mutindep.partitions", ("Bipartition", "__init__"), COUNT),
    ("objects.TestResult", "mutindep.mdi", ("TestResult", "__init__"), COUNT),
    ("inference.infer_from_model", "mutindep.inference", ("infer_from_model",), SPAN),
    ("inference.infer_from_model", "mutindep.simulation", ("infer_from_model",), SPAN),
    ("inference.infer_from_model", "mutindep.cli", ("infer_from_model",), SPAN),
    ("inference.infer_from_data", "mutindep.cli", ("infer_from_data",), SPAN),
    ("inference.classify_against_truth", "mutindep.simulation", ("classify_against_truth",), SPAN),
    ("simulation.generate_model", "mutindep.simulation", ("generate_model",), SPAN),
    ("randomness.sample_mvn", "mutindep.simulation", ("sample_mvn",), SPAN),
    ("linalg.sample_correlation", "mutindep.simulation", ("sample_correlation",), SPAN),
    ("linalg.sample_correlation", "mutindep.inference", ("sample_correlation",), SPAN),
    ("simulation.auc", "mutindep.simulation", ("auc",), SPAN),
    ("simulation.write_csv", "mutindep.simulation", ("Campaign", "write_csv"), SPAN),
    ("simulation.write_summary", "mutindep.simulation", ("Campaign", "write_summary"), SPAN),
    ("simulation.run", "mutindep.simulation", ("_execute_run",), SPAN),
    ("simulation.run_campaign", "mutindep.simulation", ("run_campaign",), SPAN),
    ("cli.main", "mutindep.cli", ("main",), SPAN),
)

# layer -> the span names whose self time it sums
LAYERS = {
    "kernels.batch": ("kernels.batch",),
    "mdi.tests": ("mdi.test_bipartitions", "mdi.mdi_statistics"),
    "distributions.sf": ("distributions.chi2_sf", "distributions.noncentral_chi2_sf"),
    "fdr.correct": ("fdr.bh_fdr", "fdr.bonferroni"),
    "partitions.enumerate": ("partitions.enumerate_bipartitions",
                             "partitions.entailed_dichotomies"),
    "partitions.meet": ("partitions.meet_all",),
    "inference.infer": ("inference.infer_from_model", "inference.infer_from_data"),
    "inference.classify": ("inference.classify_against_truth",),
    "simulation.model": ("simulation.generate_model",),
    "randomness.mvn": ("randomness.sample_mvn",),
    "linalg.corr": ("linalg.sample_correlation",),
    "simulation.auc": ("simulation.auc",),
    "simulation.report": ("simulation.write_csv", "simulation.write_summary"),
    "cli.main": ("cli.main",),
}

# the mask count of each kernel batch call, for ns_per_test
_WORK = {"kernels.batch": lambda args, kwargs: len(args[1])}


class _ThreadState(threading.local):
    # threading.local runs __init__ again, with the same arguments, the
    # first time each thread touches the object
    def __init__(self, registry, lock):
        self.stack = []
        self.spans = []
        self.counts = Counter()
        with lock:
            registry.append((self.spans, self.counts))


class Tracer:
    """Installs the hooks, records spans and counts per thread, and puts
    every patched name back on `uninstall`."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.installed = set()  # hook names with at least one live target
        self._threads = []
        self._lock = threading.Lock()
        self._state = _ThreadState(self._threads, self._lock)
        self._ids = itertools.count(1)
        self._undo = []

    def install(self):
        for name, module, path, kind in self.hooks:
            try:
                container = importlib.import_module(module)
                for step in path[:-1]:
                    container = _lookup(container, step)
                original = _lookup(container, path[-1])
            except (ImportError, AttributeError, KeyError):
                continue
            wrapper = self._span(name, original) if kind == SPAN else self._count(name, original)
            self._undo.append(_replace(container, path[-1], wrapper))
            self.installed.add(name)
        return self

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _span(self, name, fn):
        state, ids, work = self._state, self._ids, _WORK.get(name)
        clock, get_ident = time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            stack = state.stack
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            if work is not None:
                state.counts[name] += work(args, kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                state.spans.append(Span(sid, name, start, end, parent, get_ident()))

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        state = self._state

        def wrapper(*args, **kwargs):
            state.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def spans(self):
        return [s for spans, _ in self._threads for s in spans]

    def counts(self):
        total = Counter()
        for _, counts in self._threads:
            total.update(counts)
        return total

    def summary(self):
        return summarize(self.spans(), self.counts(), self.installed)


def _lookup(container, step):
    if isinstance(container, dict):
        return container[step]
    return getattr(container, step)


def _replace(container, key, value):
    if isinstance(container, dict):
        old = container[key]
        container[key] = value
        return lambda: container.__setitem__(key, old)
    had_own = isinstance(container, type) and key in vars(container)
    old = getattr(container, key)
    setattr(container, key, value)
    if isinstance(container, type) and not had_own:
        return lambda: delattr(container, key)
    return lambda: setattr(container, key, old)


def self_times(spans):
    """Span id -> self seconds: the span's duration minus the part of its
    interval that the union of its children's intervals covers.  Children
    are found by parent id, whatever thread they ran on; overlapping
    children are counted once."""
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans, counts, installed):
    """Reduce spans to additive per-name totals: calls, total and self
    seconds.  Also sums, per campaign span, the time its runs were busy and
    its wall time multiplied by the number of threads that ran them."""
    own = self_times(spans)
    names = {}
    for s in spans:
        entry = names.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += s.end - s.start
        entry["self_s"] += own[s.id]
    runs = [s for s in spans if s.name == "simulation.run"]
    busy = capacity = 0.0
    for c in (s for s in spans if s.name == "simulation.run_campaign"):
        inside = [r for r in runs if c.start <= r.start and r.end <= c.end]
        busy += sum(r.end - r.start for r in inside)
        capacity += (c.end - c.start) * len({r.thread for r in inside})
    return {"spans": names, "counts": dict(counts), "installed": sorted(installed),
            "busy_s": busy, "capacity_s": capacity}


def merge(summaries):
    """Add summaries from several processes (one per CLI invocation)."""
    out = {"spans": {}, "counts": Counter(), "installed": set(), "busy_s": 0.0,
           "capacity_s": 0.0}
    for s in summaries:
        for name, entry in s["spans"].items():
            dst = out["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in dst:
                dst[key] += entry[key]
        out["counts"].update(s["counts"])
        out["installed"].update(s["installed"])
        out["busy_s"] += s["busy_s"]
        out["capacity_s"] += s["capacity_s"]
    out["counts"] = dict(out["counts"])
    out["installed"] = sorted(out["installed"])
    return out


def layer_metrics(summary, units, tests):
    """The per-layer metrics of one traced phase; None marks a layer whose
    hooks all failed to install (absent).  `*_ms` and `calls` are per unit;
    `*_per_test` divide by the dichotomy tests completed."""
    spans, counts = summary["spans"], summary["counts"]
    live = set(summary["installed"])

    def present(*names):
        return any(n in live for n in names)

    def stat(name, key):
        return spans.get(name, {}).get(key, 0)

    def per_test(value):
        return value / tests if tests else 0.0

    out = {}
    for layer, names in LAYERS.items():
        value = sum(stat(n, "self_s") for n in names) * 1e3 / units
        out[f"{layer}.self_ms"] = value if present(*names) else None
    batch_tests = counts.get("kernels.batch", 0)
    out["kernels.batch.ns_per_test"] = (
        stat("kernels.batch", "total_s") * 1e9 / batch_tests if batch_tests else 0.0
    ) if present("kernels.batch") else None
    objects = counts.get("objects.Bipartition", 0) + counts.get("objects.TestResult", 0)
    out["mdi.objects_per_test"] = (
        per_test(objects) if present("objects.Bipartition", "objects.TestResult") else None
    )
    sf_calls = (stat("distributions.chi2_sf", "calls")
                + stat("distributions.noncentral_chi2_sf", "calls")
                + counts.get("distributions.chi2_sf.inner", 0))
    out["distributions.sf.calls_per_test"] = (
        per_test(sf_calls) if present(*LAYERS["distributions.sf"]) else None
    )
    out["partitions.meet.calls"] = (
        counts.get("partitions.meet", 0) / units if present("partitions.meet") else None
    )
    capacity = summary["capacity_s"]
    out["simulation.busy_over_wall"] = (
        summary["busy_s"] / capacity if capacity else 0.0
    ) if present("simulation.run", "simulation.run_campaign") else None
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_times(stderr_text):
    """(mutindep_ms, scipy_ms) from `python -X importtime` output.

    mutindep_ms is the cumulative time of the `mutindep` package import;
    scipy_ms sums the cumulative time of each outermost scipy module, that
    is one imported by a module outside scipy.  Either is None when that
    package was never imported."""
    entries = []
    for line in stderr_text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    mutindep_ms = scipy_ms = None
    stack = []  # ancestors of the current entry, walking the tree in pre-order
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[2] for a in stack):
            scipy_ms = (scipy_ms or 0.0) + cumulative_us / 1e3
        if name == "mutindep":
            mutindep_ms = cumulative_us / 1e3
        stack.append((depth, name, is_scipy))
    return mutindep_ms, scipy_ms
