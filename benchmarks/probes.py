"""Layer probes of the traced run.

They complement the traced passes of the workload so that every per-layer
metric has samples on every workload: the per-replication path at the
workload's n, the core kernels at n = 1e5 and 1e6, serial against
two-process runs of one null condition, the CLI's I/O at the cli-large-csv
sizes, and interpreter start-up.  A g-curve at the paper's n goes through
its gate, so that the g-curve invariants are checked in every traced run.
"""

from __future__ import annotations

import os
import pickle
import statistics
import sys
import time
from typing import NamedTuple

import numpy as np

import reference as ref
from spans import timing_summary
from workloads import CliLargeCsv, McNullJobs2, cli_env, run_child

REP_PROBE_BUDGET_S = 1.0
STARTUP_RUNS = 5


class Sizes(NamedTuple):
    """Probe sizes: kernel sizes by metric label with their repeat counts,
    the workloads whose parameters the pool and CLI probes use, and the
    g-curve's sample size."""

    kernels: dict
    pool: McNullJobs2
    cli: CliLargeCsv
    gcurve_n: int


FULL = Sizes(kernels={"1e5": (100_000, 5), "1e6": (1_000_000, 2)},
             pool=McNullJobs2(), cli=CliLargeCsv(), gcurve_n=100_000)


def rep_path(api, seed: int, n: int) -> None:
    """Contaminated lognormal replications at size n through the public
    per-replication functions, plus CS alone and the g transform."""
    d, e, c = api.distributions, api.experiments, api.core
    spec = d.DistributionSpec.lognormal(1.0)
    contam = d.ContaminationSpec(count=max(1, min(5, n // 2)), side="high")
    z = np.random.default_rng([seed, n]).standard_normal(n)
    start = time.perf_counter()
    rep = 0
    while rep < 2 or (time.perf_counter() - start < REP_PROBE_BUDGET_S and rep < 2000):
        rep += 1
        rng = d.RngStream(seed, e.derive_stream_id("probe", n, rep))
        sample = d.draw_sample(spec, rng, n)
        crng = d.RngStream(seed, e.derive_stream_id("probe", n, rep, "contamination"))
        sample = d.contaminate(sample, contam, crng)
        c.skew_report(sample)
        c.cumulative_skew(sample)
        d.tukey_g_transform(z, 0.5)


def kernels(api, seed: int, sizes: dict) -> None:
    """Each core function on lognormal data at each kernel size."""
    c = api.core
    for n, rounds in sizes.values():
        values = np.random.default_rng([seed, n]).lognormal(size=n)
        for _ in range(rounds):
            sample = c.validate_sample(values)
            grid = c.lorenz_grid(sample)
            c.weight_vector(n)
            c.moment_skewness(sample)
            c.gini(grid)
            c.cumulative_skew(sample)
            c.skew_report(sample)


def gcurve_check(api, seed: int, n: int, points) -> list[str]:
    """Gate a run_gcurve result: every point against cs_fsum of the
    documented draw (one normal sample per sd, shared across the g grid),
    |CS| <= 1-2/n, and CS strictly increasing in g for each sd."""
    e, d = api.experiments, api.distributions
    refs = {}
    for sd in e.DEFAULT_GCURVE_SDS:
        rng = d.RngStream(seed, e.derive_stream_id("gcurve", f"sd={sd!r}"))
        z = sd * rng.standard_normal(n)
        for g in e.DEFAULT_G_GRID:
            refs[(float(sd), float(g))] = ref.cs_fsum(np.expm1(g * z) / g)
    return ref.check_gcurve(points, e.DEFAULT_G_GRID, e.DEFAULT_GCURVE_SDS, n, refs)


def gcurve(api, seed: int, n: int) -> list[str]:
    """run_gcurve on its default grid at sample size n, through the gate."""
    try:
        points = api.experiments.run_gcurve(n=n, base_seed=seed)
    except Exception as exc:
        return [f"run_gcurve raised {exc!r}"]
    return gcurve_check(api, seed, n, points)


class _PoolCounter:
    """Counts the tasks cumskew's process pool maps and the bytes of their
    pickled arguments and results (computed by pickling them again)."""

    def __init__(self, base):
        self.base = base
        self.chunks = 0
        self.bytes = 0
        counter = self

        class CountingExecutor(base):
            def map(self, fn, *iterables, **kwargs):
                tasks = list(zip(*iterables))
                counter.chunks += len(tasks)
                counter.bytes += sum(len(pickle.dumps((fn, *t))) for t in tasks)
                for result in super().map(fn, *zip(*tasks), **kwargs):
                    counter.bytes += len(pickle.dumps(result))
                    yield result

        self.executor = CountingExecutor


def pool(api, seed: int, wl: McNullJobs2) -> tuple[dict, int]:
    """Serial against two-process run of the normal null condition.

    Returns the metrics and the number of failed comparisons (0 or 1).
    """
    e = api.experiments
    dist = api.distributions.DistributionSpec.normal(0.0, 1.0)
    t0 = time.perf_counter()
    serial = e.run_null(dist, wl.n, wl.reps_per_condition, seed, jobs=1)
    serial_s = time.perf_counter() - t0
    base = getattr(e, "ProcessPoolExecutor", None)
    counter = _PoolCounter(base) if base is not None else None
    if counter is not None:
        e.ProcessPoolExecutor = counter.executor
    try:
        t0 = time.perf_counter()
        parallel = e.run_null(dist, wl.n, wl.reps_per_condition, seed, jobs=wl.jobs)
        jobs_s = time.perf_counter() - t0
    finally:
        if counter is not None:
            e.ProcessPoolExecutor = base
    equal = serial == parallel
    speedup = serial_s / jobs_s
    chunks = counter.chunks if counter else 0
    metrics = {
        "experiments.run_condition_serial_s": (serial_s, "s"),
        "experiments.run_condition_jobs2_s": (jobs_s, "s"),
        "experiments.pool_speedup": (speedup, "ratio"),
        "experiments.pool_efficiency": (speedup / wl.jobs, "ratio"),
        "experiments.chunks": (chunks, "count"),
        "experiments.ipc_bytes_per_chunk": (counter.bytes / chunks if chunks else 0.0,
                                            "B_computed"),
        "experiments.serial_parallel_equal": (1 if equal else 0, "bool"),
    }
    return metrics, 0 if equal else 1


def cli_io(api, tracer, seed: int, workdir: str, wl: CliLargeCsv):
    """Set up and run one traced cli-large-csv pass.

    Returns (state, outputs, failures).
    """
    state = wl.setup(seed, workdir)
    tracer.pass_id = "probe-cli"
    with tracer.span("bench.pass", "bench"):
        outputs = wl.run(api, state, tracer)
    tracer.pass_id = None
    tracer.collect_dumps()
    return state, outputs, wl.check(api, state, outputs)


def io_metrics(spans, state, outputs, wl: CliLargeCsv) -> dict:
    """io/svg metrics from the CLI spans at the cli-large-csv sizes."""
    def p50(name, n=None):
        vals = [(s.end - s.start) / 1e9 for s in spans
                if s.name == name and (n is None or s.n == n)]
        return timing_summary(vals)["p50"] if vals else 0.0
    parse_s = p50("io.parse_csv", wl.n)
    (_, compute_out), (_, _, tsv, svg) = outputs[:2]     # client 0
    bytes_in = os.path.getsize(state["compute_csv"]) + os.path.getsize(state["lorenz_csv"])
    return {
        "io.parse_csv_s": (parse_s, "s"),
        "io.parse_ns_per_row": (parse_s * 1e9 / wl.n, "ns"),
        "io.write_rows_json_ms": (p50("io.write_rows_json") * 1e3, "ms"),
        "io.write_rows_tsv_s": (p50("io.write_rows_tsv"), "s"),
        "io.bytes_in": (bytes_in, "B"),
        "io.bytes_out": (len(compute_out.encode()) + len(tsv.encode()), "B"),
        "svg.lorenz_svg_s": (p50("svg.lorenz_svg", wl.lorenz_rows), "s"),
        "svg.bytes": (len(svg.encode()), "B"),
    }


def startup(root: str) -> float:
    """Median wall time of a fresh interpreter importing cumskew.cli."""
    env = cli_env(root)
    times = []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        code, _, _ = run_child([sys.executable, "-c", "import cumskew.cli"], env)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"start-up: importing cumskew.cli exited {code}")
    return statistics.median(times)
