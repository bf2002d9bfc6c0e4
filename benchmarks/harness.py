"""Measurement loop, metrics and provenance.

An untraced run sets up once (a fresh interpreter importing cumskew, then
the workload's input generation), runs one untimed warm-up pass where the
workload keeps in-process caches, then repeats measured passes for about
--seconds.  Between passes it sets up again into a scratch directory, every
tenth of the window or, when set-up is short, every SETUP_GAP set-up times,
so that the set-up time (the median of all set-ups) samples the machine
over the same window as the passes and with as many samples as it can
afford.
Outputs of the first pass go through the reference gate; every later pass
must reproduce them byte for byte, and an operation counts as failed on an
exception, a non-zero exit, a gate failure or a differing output.

A traced run measures untraced and traced passes of the same workload
(their ratio is the tracing overhead), then the layer probes, and reports
the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import probes
import spans
from workloads import CliLargeCsv, cli_env, run_child

SETUP_SPREAD = 10       # a set-up per tenth of the measured window,
SETUP_GAP = 8           # or per eight set-up times if that is more often
MIN_PASSES = 2

PER_FUNCTION = (
    "distributions.rng_stream", "distributions.draw_sample", "distributions.contaminate",
    "distributions.tukey_g_transform", "experiments.derive_stream_id",
    "core.skew_report", "core.lorenz_grid", "core.moment_skewness",
    "core.cumulative_skew", "core.weight_vector", "core.gini", "core.validate_sample",
)
KERNELS = ("core.skew_report", "core.lorenz_grid", "core.moment_skewness",
           "core.cumulative_skew", "core.weight_vector", "core.gini",
           "core.validate_sample")


class Program:
    """cumskew imported from <root>/src, with its modules by layer name."""

    def __init__(self, root: str):
        src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(src, "cumskew", "__init__.py")):
            raise FileNotFoundError(f"no cumskew package under {src}")
        sys.path.insert(0, src)
        import cumskew
        from cumskew import cli, core, distributions, experiments, io, svg
        if not os.path.abspath(cumskew.__file__).startswith(os.path.abspath(src) + os.sep):
            raise ImportError(f"cumskew imported from {cumskew.__file__}, not {src}")
        self.root = root
        self.package = cumskew
        self.core, self.distributions, self.experiments = core, distributions, experiments
        self.io, self.svg, self.cli = io, svg, cli

    def modules(self) -> dict:
        return {"core": self.core, "distributions": self.distributions,
                "experiments": self.experiments, "io": self.io, "svg": self.svg,
                "cli": self.cli, "package": self.package}


def provenance(root: str, wl, seed: int, seconds: int, traced: bool) -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "cumskew")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": wl.name,
        "seed": seed,
        "params": wl.params(),
        "seconds": seconds,
        "traced": traced,
    }


class Outcome:
    """Attempted and failed operations, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(message)


class Runner:
    """Runs passes of one workload and tracks their correctness."""

    def __init__(self, prog: Program, wl, state):
        self.prog, self.wl, self.state = prog, wl, state
        self.outcome = Outcome()
        self.first = None              # outputs of the first successful pass
        self.first_canon = None
        self.matched = [0] * wl.ops    # passes that reproduced each first output
        self.verdicts = None           # per-operation gate failures of the first pass

    def run_pass(self, tracer=None) -> float | None:
        """One pass; returns its wall time, or None if it raised."""
        self.outcome.attempted += self.wl.ops
        try:
            t0 = time.perf_counter()
            if tracer is None:
                outputs = self.wl.run(self.prog, self.state)
            else:
                with tracer.span("bench.pass", "bench"):
                    outputs = self.wl.run(self.prog, self.state, tracer)
            wall = time.perf_counter() - t0
        except Exception:
            self.outcome.fail(self.wl.ops, traceback.format_exc(limit=4))
            return None
        canon = self.wl.canonical(outputs)
        if self.first_canon is None:
            self.first, self.first_canon = outputs, canon
        for k, (a, b) in enumerate(zip(canon, self.first_canon)):
            if a != b:
                self.outcome.fail(1, f"operation {k}: output differs from the first pass")
            elif self.verdicts is None:
                self.matched[k] += 1
            elif self.verdicts[k]:
                self.outcome.failed += 1
        return wall

    def gate(self) -> None:
        """Reference-check the first pass once; a failing operation counts
        once for every pass that reproduced its output."""
        if self.first is None or self.verdicts is not None:
            return
        try:
            bad = self.wl.check(self.prog, self.state, self.first)
        except Exception:
            bad = [(k, traceback.format_exc(limit=4)) for k in range(self.wl.ops)]
        self.verdicts = [False] * self.wl.ops
        for k, message in bad:
            self.verdicts[k] = True
            self.outcome.fail(0, message)
        self.outcome.failed += sum(m for m, v in zip(self.matched, self.verdicts) if v)

    def passes(self, seconds: float, tracer=None, min_passes: int = MIN_PASSES,
               after_pass=None) -> list[float]:
        """Measured passes until the next one would end more than half a
        pass after `seconds` (at least `min_passes`).  `after_pass`, if given,
        is called after every pass; its time counts towards `seconds`."""
        walls = []
        tries = 0
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.pass_id = f"pass{tries}"
            wall = self.run_pass(tracer)
            tries += 1
            if tracer is not None:
                tracer.pass_id = None
                tracer.collect_dumps()
            if wall is not None:
                walls.append(wall)
            if after_pass is not None:
                after_pass()
            elapsed = time.perf_counter() - start
            typical = statistics.median(walls) if walls else elapsed / tries
            if tries >= min_passes and elapsed + typical / 2 > seconds:
                return walls


def setup(prog: Program, wl, seed: int, workdir: str):
    """One set-up: a fresh interpreter importing cumskew (numpy included),
    then the workload's input generation into `workdir`.  Returns the
    inputs and the set-up's wall time."""
    t0 = time.perf_counter()
    code, _, _ = run_child([sys.executable, "-c", "import cumskew"], cli_env(prog.root))
    if code != 0:
        raise RuntimeError(f"set-up: importing cumskew exited {code}")
    state = wl.setup(seed, workdir)
    return state, time.perf_counter() - t0


def measure(prog: Program, wl, seed: int, seconds: float, workdir: str):
    """Untraced run: returns (metrics, outcome, report lines)."""
    state, first_setup = setup(prog, wl, seed, workdir)
    setups = [first_setup]
    due = [0.0]

    def set_up_again():
        if time.perf_counter() < due[0]:
            return
        scratch = tempfile.mkdtemp(prefix="setup-", dir=workdir)
        try:
            setups.append(setup(prog, wl, seed, scratch)[1])
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        gap = min(seconds / SETUP_SPREAD, SETUP_GAP * statistics.median(setups))
        due[0] = time.perf_counter() + gap

    runner = Runner(prog, wl, state)
    if wl.warmup:
        runner.run_pass()
        runner.gate()
    walls = runner.passes(seconds, after_pass=set_up_again)
    runner.gate()
    o = runner.outcome
    if not walls:
        return None, o, []
    setup_s = statistics.median(setups)
    reps, values = wl.reps(state), wl.values(state)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "reps_per_s": (statistics.median(reps / w for w in walls), "1/s"),
        "values_per_s": (statistics.median(values / w for w in walls), "1/s"),
        "peak_rss_mb": (wl.peak_rss_mb(state), "MB"),
    }
    t = spans.timing_summary(walls)
    lines = [
        f"passes: {len(walls)} measured, wall median {metrics['wall_s'][0]:.4f} s, "
        f"p{t['tail_pct']:g} {t['tail']:.4f} s",
        f"set-up: median {setup_s:.4f} s of {len(setups)} (fresh import plus inputs)",
        f"failed_frac: {o.failed / max(o.attempted, 1):.6g} ratio "
        f"({o.failed} of {o.attempted} operations)",
    ]
    return metrics, o, lines


def _span_stats(all_spans, name, n):
    vals = [(s.end - s.start) / 1e3 for s in all_spans
            if s.name == name and (s.n is None or s.n == n)]
    return spans.timing_summary(vals) if vals else None


def traced(prog: Program, wl, seed: int, seconds: float, workdir: str,
           sizes: probes.Sizes = probes.FULL):
    """Traced run: returns (metrics, outcome, report lines)."""
    span_dir = os.path.join(workdir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    tracer = spans.Tracer(span_dir)
    state, _ = setup(prog, wl, seed, workdir)
    runner = Runner(prog, wl, state)
    if wl.warmup:
        runner.run_pass()
        runner.gate()
    plain = runner.passes(seconds / 2)
    with spans.instrumented(tracer, prog.modules()):
        walls = runner.passes(seconds / 2, tracer, min_passes=1)
    runner.gate()
    o = runner.outcome
    pass_spans = [s for s in tracer.finished() if s.pass_id is not None]
    passes_traced = len({s.pass_id for s in pass_spans})

    lines = []
    metrics = {}
    # probes
    with spans.instrumented(tracer, prog.modules()):
        probes.rep_path(prog, seed, wl.n)
        probes.kernels(prog, seed, sizes.kernels)
    pool_metrics, pool_failed = probes.pool(prog, seed, sizes.pool)
    o.attempted += 1
    if pool_failed:
        o.fail(1, "pool probe: jobs=2 result differs from jobs=1")
    gcurve_bad = probes.gcurve(prog, seed, sizes.gcurve_n)
    o.attempted += 1
    if gcurve_bad:
        o.fail(1, "gcurve probe: " + "; ".join(gcurve_bad))
    if isinstance(wl, CliLargeCsv):
        cli_wl, cli_state, cli_out, cli_spans = wl, state, runner.first, pass_spans
    else:
        cli_wl = sizes.cli
        cli_dir = os.path.join(workdir, "cli")
        os.makedirs(cli_dir, exist_ok=True)
        cli_state, cli_out, bad = probes.cli_io(prog, tracer, seed, cli_dir, cli_wl)
        o.attempted += cli_wl.ops
        if bad:
            o.fail(len({k for k, _ in bad}), "cli probe: " + "; ".join(m for _, m in bad))
        cli_spans = [s for s in tracer.finished() if s.pass_id == "probe-cli"]
    startup_s = probes.startup(prog.root)
    all_spans = tracer.finished()

    shares = spans.layer_shares(pass_spans)
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_frac"] = (shares[layer], "ratio")
    metrics["trace.unaccounted_frac"] = (shares["bench"], "ratio")
    overhead = statistics.median(walls) / statistics.median(plain) - 1.0 if walls and plain \
        else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    streams = sum(1 for s in pass_spans if s.name == "distributions.rng_stream")
    metrics["distributions.streams_per_rep"] = (
        streams / (wl.reps(state) * max(passes_traced, 1)), "streams/rep")

    for name in PER_FUNCTION:
        st = _span_stats(all_spans, name, wl.n) or {"p50": 0.0, "tail": 0.0,
                                                       "tail_pct": 100.0, "count": 0}
        metrics[f"{name}_us"] = (st["p50"], "us")
        metrics[f"{name}_us.tail"] = (st["tail"], "us")
        metrics[f"{name}_us.count"] = (st["count"], "count")
        lines.append(f"{name}_us at n={wl.n}: p50 {st['p50']:.3f} us, "
                     f"p{st['tail_pct']:g} {st['tail']:.3f} us, count {st['count']}")
    for name in KERNELS:
        for label, (n, _) in sizes.kernels.items():
            vals = [(s.end - s.start) / n for s in all_spans if s.name == name and s.n == n]
            p50 = statistics.median(vals) if vals else 0.0
            metrics[f"{name}_ns_per_value_{label}"] = (p50, "ns")
            lines.append(f"{name} at n={n}: {p50:.3f} ns/value over {len(vals)} calls")
    metrics.update(pool_metrics)
    metrics.update(probes.io_metrics(cli_spans, cli_state, cli_out, cli_wl))
    metrics["cli.startup_s"] = (startup_s, "s")

    lines.append(f"traced passes: {len(walls)} traced, {len(plain)} untraced; "
                 f"{len(pass_spans)} spans")
    lines.append("self time by layer over traced passes, summed over processes: " +
                 ", ".join(f"{k} {v:.3f}" for k, v in shares.items()) +
                 " (bench = unaccounted)")
    lines.append("experiments.ipc_bytes_per_chunk is computed by re-pickling the "
                 "pool's tasks and results")
    return metrics, o, lines
