"""In-memory span recording around calls into cumskew's public functions.

Spans are recorded by wrappers that the benchmark installs over the names
that cumskew's modules bind to each other's public functions, so the
program itself is not edited.  Each span has a name, the layer (the module
that defines the function), the sample size it ran at, start and end
(CLOCK_MONOTONIC nanoseconds, comparable across processes), the span that
called it, the pass it belongs to, and the process that recorded it.

Spans stay in memory; a forked pool worker or a traced CLI child writes
its spans to a file when it exits, and the benchmark merges them.
"""

from __future__ import annotations

import itertools
import marshal
import os
import threading
import time
from contextlib import contextmanager
from multiprocessing import util
from typing import NamedTuple

LAYERS = ("core", "distributions", "experiments", "io", "svg", "cli")


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    layer: str
    n: int | None
    start: int
    end: int
    pass_id: str | None


class _Local(threading.local):
    def __init__(self):
        self.stack: list[int] = []


class Tracer:
    """Collects spans for one process; a forked child starts a fresh list.

    Spans are kept as plain tuples while recording (cheap to build, and
    untracked by the garbage collector); `finished()` returns them as Span.
    Span ids are unique across processes: the pid times 2**32 plus a count.
    Each thread has its own stack of open spans; `collect_dumps` is for the
    main thread only.
    """

    def __init__(self, dump_dir: str | None = None):
        self.records: list[tuple] = []
        self.pass_id: str | None = None
        self.dump_dir = dump_dir
        self.base = os.getpid() << 32
        self.ids = itertools.count(1)
        self.local = _Local()
        util.register_after_fork(self, Tracer._forked)

    @property
    def stack(self) -> list[int]:
        """Open spans of the calling thread, innermost last."""
        return self.local.stack

    def _forked(self) -> None:
        # A forked pool worker of a traced pass records its whole life as a
        # "bench.process" span, a child of the parent's open span, so that
        # the worker's time outside any cumskew call counts as unaccounted;
        # its own spans are children of that span.  It drops the parent's
        # finished spans and writes its own when it exits.
        self.base = os.getpid() << 32
        self.ids = itertools.count(1)
        self.records = []
        if self.dump_dir is None or self.pass_id is None:
            return
        stack = self.local.stack
        sid = self.base + next(self.ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()

        def close():
            self.records.append((sid, parent, "bench.process", "bench", None, start,
                                 time.perf_counter_ns(), self.pass_id))
            self.dump(None)
        util.Finalize(None, close, exitpriority=10)

    @contextmanager
    def span(self, name: str, layer: str, n: int | None = None):
        sid = self.base + next(self.ids)
        stack = self.local.stack
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.records.append((sid, parent, name, layer, n, start, end, self.pass_id))

    def finished(self) -> list[Span]:
        return [Span._make(r) for r in self.records]

    def dump(self, path: str | None) -> None:
        """Write this process's spans (to dump_dir/spans-<pid>.bin by default)."""
        if path is None:
            path = os.path.join(self.dump_dir, f"spans-{os.getpid()}.bin")
        with open(path, "wb") as fh:
            marshal.dump(self.records, fh)

    def collect_dumps(self) -> None:
        """Merge and remove span files written by exited child processes."""
        if self.dump_dir is None:
            return
        for name in sorted(os.listdir(self.dump_dir)):
            if name.startswith("spans-") and name.endswith(".bin"):
                path = os.path.join(self.dump_dir, name)
                with open(path, "rb") as fh:
                    self.records.extend(marshal.load(fh))
                os.remove(path)


def _arg_n(i):
    def size(args, kwargs, result):
        return _size_of(args[i]) if len(args) > i else None
    return size


def _result_n(args, kwargs, result):
    return getattr(result, "n", None)


def _no_n(args, kwargs, result):
    return None


def _size_of(obj):
    n = getattr(obj, "n", None)
    if isinstance(n, int):
        return n
    if isinstance(obj, int):
        return obj
    try:
        return len(obj)
    except TypeError:
        return None


# (module, attribute, span name, size extractor).  The span name is the
# metric stem; its layer is the defining module.  Entry points of the
# experiments, io and svg layers are wrapped too, so that their own time is
# attributed to their layer rather than left unaccounted.
TRACED = (
    ("core", "validate_sample", "core.validate_sample", _arg_n(0)),
    ("core", "lorenz_grid", "core.lorenz_grid", _arg_n(0)),
    ("core", "raw_lorenz_grid", "core.raw_lorenz_grid", _arg_n(0)),
    ("core", "weight_vector", "core.weight_vector", _arg_n(0)),
    ("core", "cumulative_skew", "core.cumulative_skew", _arg_n(0)),
    ("core", "moment_skewness", "core.moment_skewness", _arg_n(0)),
    ("core", "gini", "core.gini", _arg_n(0)),
    ("core", "skew_report", "core.skew_report", _arg_n(0)),
    ("distributions", "RngStream", "distributions.rng_stream", _no_n),
    ("distributions", "draw_sample", "distributions.draw_sample", _arg_n(2)),
    ("distributions", "contaminate", "distributions.contaminate", _arg_n(0)),
    ("distributions", "tukey_g_transform", "distributions.tukey_g_transform", _arg_n(0)),
    ("experiments", "derive_stream_id", "experiments.derive_stream_id", _no_n),
    ("experiments", "run_condition", "experiments.run_condition", _no_n),
    ("experiments", "run_table1", "experiments.run_table1", _no_n),
    ("experiments", "run_null", "experiments.run_null", _no_n),
    ("experiments", "run_gcurve", "experiments.run_gcurve", _no_n),
    ("io", "parse_csv", "io.parse_csv", _result_n),
    ("io", "run_metadata", "io.run_metadata", _no_n),
    ("io", "write_rows_csv", "io.write_rows_csv", _no_n),
    ("io", "write_rows_json", "io.write_rows_json", _no_n),
    ("io", "write_rows_tsv", "io.write_rows_tsv", _no_n),
    ("svg", "lorenz_svg", "svg.lorenz_svg", _arg_n(0)),
)


def _wrap(tracer: Tracer, fn, name: str, layer: str, size):
    perf_counter_ns = time.perf_counter_ns

    def traced(*args, **kwargs):
        tr = tracer
        sid = tr.base + next(tr.ids)
        stack = tr.local.stack
        parent = stack[-1] if stack else None
        stack.append(sid)
        result = None
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            stack.pop()
            tr.records.append((sid, parent, name, layer, size(args, kwargs, result),
                               start, end, tr.pass_id))
    return traced


@contextmanager
def instrumented(tracer: Tracer, modules: dict):
    """Rebind every traced public function, in every cumskew module that
    binds it, to a span-recording wrapper; restore the originals on exit.

    `modules` maps layer names to the imported cumskew modules (the
    package itself may be included under any other key).
    """
    wrappers = {}
    for mod, attr, name, size in TRACED:
        fn = getattr(modules[mod], attr, None)
        if fn is not None:
            wrappers[id(fn)] = (fn, _wrap(tracer, fn, name, mod, size))
    saved = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, hit[1])
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.sid] = (s.end - s.start) - covered
    return out


def layer_shares(spans: list[Span]) -> dict[str, float]:
    """Share of each layer, and of "bench" (time no layer accounts for),
    in the summed self time of `spans`.

    The sum is the time of every process taking part: the benchmark's own
    from its pass spans, each pool worker's from its whole life, and each
    CLI child's from its "cli.process" span.  A parent's wait while its
    workers or children run is covered by their spans and counted once,
    in them.
    """
    self_ns = self_times(spans)
    by_layer = dict.fromkeys((*LAYERS, "bench"), 0)
    for s in spans:
        by_layer[s.layer] += self_ns[s.sid]
    total = sum(by_layer.values()) or 1
    return {layer: ns / total for layer, ns in by_layer.items()}


def _rank(count: int, permille: int) -> int:
    """1-based nearest rank of a percentile given in tenths of a percent."""
    return max(1, -(-count * permille // 1000))


def percentile(sorted_vals: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_vals:
        raise ValueError("no values")
    return sorted_vals[_rank(len(sorted_vals), round(pct * 10)) - 1]


def tail_percentile(count: int) -> float:
    """Highest of 99.9/99/90/50 with at least ten samples beyond it; 100
    (the maximum) when there are too few samples for any of them."""
    for permille in (999, 990, 900, 500):
        if count - _rank(count, permille) >= 10:
            return permille / 10
    return 100.0


def timing_summary(values: list[float]) -> dict:
    """p50, tail value, tail percentile and sample count."""
    vals = sorted(values)
    pct = tail_percentile(len(vals))
    return {"p50": percentile(vals, 50.0), "tail": percentile(vals, pct),
            "tail_pct": pct, "count": len(vals)}
