"""Deterministic Monte Carlo harness comparing CS with moment skewness.

Each replication owns an independent random stream whose id is a stable
hash of (condition id, replication index), so results are bit-identical
whether replications run serially or across a process pool, and across
repeated invocations with the same base seed.  A condition's
replications are split into one contiguous range per worker, and so are
a g-curve's sds (`_map_ranges`).  A g-curve range draws each of its sds'
one normal sample from a stream of its own, and at every grid point
transforms a copy of it and scores that, in one `core._Workspace`.  A
replication range is the one place where stream ids become PCG64 states:
a batch of blocks at a time, it hashes the draw stream ids and, for a
contaminated condition, the contamination stream ids (`_stream_ids`,
which spells an id as `derive_stream_id` does), and computes each kind's
states in one pass (`distributions._stream_states`).  This module owns
the order of a block's stages: draw (`distributions._BlockSampler.draw`,
which takes states alone), then contaminate, when the condition has a
plan (the sampler's `contaminate`, which leaves a row with a non-finite
draw as it is), then score (`core._score_rows`).  No stage before the
kernel checks a value: the kernel reports the first row holding a NaN
or an infinity, a bad draw or an outlier beyond the float range, with
the index and value that the replication drawn alone would report.  All
of it runs in one `core._Workspace` per range: the kernel's memory,
block size and L-weights are `core`'s, and this module builds no array
for the kernel.

Runs with N > 1 workers, conditions and g-curves alike, split their
ranges, one task each, between the calling process and the N - 1 worker
processes of one pool per process (`_SharedPool`): the caller sends each
worker its task over the worker's own pipe, scores the first range
itself, then reads the workers' ranges in order.  The pool has no helper
threads.  It is built on first use, rebuilt when the worker count
changes or a worker has died (the next call reaps it), never used by a
forked child, and closed at exit.  A run with one worker, including any
run on a 1-CPU host, stays in the calling process.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.util import Finalize

import numpy as np

from .core import _Workspace, _check_finite, _check_integer, _check_size, _score_rows
from .distributions import (
    ContaminationSpec,
    DistributionSpec,
    RngStream,
    _BlockSampler,
    _stream_states,
    _transform,
)
from .errors import FloatRangeError, InvalidParameter

__all__ = [
    "ContaminationPlan",
    "ConditionSpec",
    "ConditionResult",
    "GCurvePoint",
    "derive_stream_id",
    "aggregate",
    "run_condition",
    "table1_conditions",
    "run_table1",
    "run_null",
    "run_gcurve",
]

DEFAULT_G_GRID = tuple(k / 10 for k in range(1, 16))
DEFAULT_GCURVE_SDS = (1.0, 3.0)
DEFAULT_GCURVE_LOC = 0.0

# Magnitude multipliers (times the sample maximum) for the built-in
# contaminated conditions.  The low-side window is chosen so that a handful
# of outliers flips the sign of b1 while CS stays positive; much larger
# low-side values make the contaminated sample genuinely left-skewed and
# CS follows them toward its lower bound.
TABLE1_HIGH_MAGNITUDES = (10.0, 20.0)
TABLE1_LOW_MAGNITUDES = (1.05, 1.5)

# aggregate squares the deviations about this many values at a time: a
# fixed bound on its temporaries, and one numpy call per 2,000-replication
# column.
_SQUARE_VALUES = 4096

# Stream states are computed for about this many replications at a time,
# in whole blocks: enough to spread the seeding hash's numpy calls over
# many rows, and a fixed bound on its temporaries (about 200 bytes per
# replication) however many replications a range holds.
_SEED_REPS = 4096


def _id_text(*parts) -> bytes:
    """The text a stream id hashes: the parts joined by ":", in UTF-8."""
    return ":".join(str(p) for p in parts).encode("utf-8")


def derive_stream_id(*parts) -> int:
    """Stable 64-bit stream id from string-convertible parts."""
    return int.from_bytes(hashlib.blake2b(_id_text(*parts), digest_size=8).digest(), "big")


def _stream_ids(condition_id, reps, *tail) -> np.ndarray:
    """derive_stream_id(condition_id, rep, *tail) of every int rep in reps,
    as a uint64 array.

    The text before the rep, "<condition_id>:", is hashed once, and each
    rep continues a copy of that hash with its own digits and the tail's
    text, which is encoded once.
    """
    head = hashlib.blake2b(_id_text(condition_id, ""), digest_size=8)
    suffix = _id_text("", *tail)
    digests = bytearray()
    for rep in reps:
        h = head.copy()
        h.update(b"%d%s" % (rep, suffix))
        digests += h.digest()
    return np.frombuffer(digests, ">u8").astype(np.uint64)


def aggregate(values) -> tuple[float, float]:
    """Mean and standard error (sd / sqrt(count), ddof 1; zero for count 1)
    of real numbers, each taken as a float.

    Both sums are math.fsum over the values in order: the mean's over a
    float64 array read through a memoryview, one Python float at a time,
    and the variance's over the squared deviations (_squares).  Any
    iterable that is not an array is first read into one, so the values
    are never held as a list.

    Raises:
        InvalidParameter: there are no values.
        NonFiniteValue: a value is a NaN or infinity (first index reported).
        FloatRangeError: the mean or the variance is outside the float
            range, as for [1e200, -1e200].
    """
    if not isinstance(values, np.ndarray):
        values = np.fromiter(values, float)
    vals = np.ascontiguousarray(values, dtype=float)
    count = len(vals)
    if count < 1:
        raise InvalidParameter("need at least one value")
    _check_finite(vals[None, :])
    try:
        mean = math.fsum(memoryview(vals)) / count
        if count == 1:
            return mean, 0.0
        var = math.fsum(itertools.chain.from_iterable(_squares(vals, mean))) / (count - 1)
    except OverflowError:  # an intermediate sum of fsum
        var = math.inf
    if not math.isfinite(var):
        raise FloatRangeError("the mean or variance is outside the float range")
    return mean, math.sqrt(var / count)


def _squares(vals: np.ndarray, mean: float):
    """(v - mean) ** 2 of every finite value in order, with the bits of
    Python's square, in runs of _SQUARE_VALUES at a time: the same
    subtraction, then C pow on |d| (float_power on float64), as
    float.__pow__ does for an even exponent.  A square beyond the float
    range is inf, where Python's raises OverflowError."""
    for lo in range(0, len(vals), _SQUARE_VALUES):
        # aggregate reports a square beyond the float range
        with np.errstate(over="ignore"):
            d = vals[lo:lo + _SQUARE_VALUES] - mean
            np.abs(d, out=d)
            np.float_power(d, 2.0, out=d)
        yield memoryview(d)


@dataclass(frozen=True)
class ContaminationPlan:
    """Per-replication outlier policy for one experiment condition.

    The number of replaced entries is drawn uniformly from
    [count_min, count_max] on each replication; a fixed count is the
    degenerate range count_min == count_max.
    """

    side: str
    count_min: int = 1
    count_max: int = 5
    magnitude_range: tuple[float, float] = (10.0, 20.0)

    def __post_init__(self):
        _check_integer("count_min", self.count_min)
        _check_integer("count_max", self.count_max)
        if not 0 <= self.count_min <= self.count_max:
            raise InvalidParameter("need 0 <= count_min <= count_max")
        # side and magnitudes, checked as contaminate's spec checks them
        ContaminationSpec(self.count_min, self.side, self.magnitude_range)


@dataclass(frozen=True)
class ConditionSpec:
    """One Monte Carlo condition: distribution, size, reps, contamination.

    Raises InvalidParameter when built for an n or reps that is not an
    integer, n below 2, reps below 1 (each `core._check_size`, n first),
    and a plan whose count_max exceeds n/2: a spec that may replace more
    than half of a sample is never built, so whether a condition runs
    does not depend on the outlier counts its replications draw.
    """

    id: str
    distribution: DistributionSpec
    n: int
    reps: int
    contamination: ContaminationPlan | None = None

    def __post_init__(self):
        _check_size("n", self.n, 2)
        _check_size("reps", self.reps, 1)
        plan = self.contamination
        # as Python ints: a fixed-width numpy count would wrap when doubled
        if plan is not None and 2 * int(plan.count_max) > self.n:
            raise InvalidParameter(f"count_max {plan.count_max} exceeds n/2 = {self.n / 2:g}")


@dataclass(frozen=True)
class ConditionResult:
    """Replication averages and standard errors for one condition.

    Replications with undefined b1 (constant samples) are excluded from
    the b1 average and counted in degenerate_count; their CS enters as 0.
    When every replication is degenerate, b1_ave is reported as 0.0.
    """

    id: str
    reps: int
    b1_ave: float
    b1_se: float
    cs_ave: float
    cs_se: float
    seed: int
    degenerate_count: int


@dataclass(frozen=True)
class GCurvePoint:
    """CS of one g-distribution sample at a grid point."""

    g: float
    sd: float
    cs: float
    n: int


def _replicate_range(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CS, b1 and degenerate flags of replications start..stop-1.

    The PCG64 states of the replications' draw streams, and of their
    contamination streams when the condition has a plan, are computed for
    a batch of whole blocks at a time (about _SEED_REPS replications), one
    pass per kind; no block seeds anything.  Each block runs three stages
    in turn on its rows of the batch: it is drawn straight into the rows
    of one `core._Workspace`, which sizes the blocks and holds the
    kernel's scratch and L-weights; contaminated, when there is a plan;
    and scored at once, the kernel checking that every value is finite.
    A row's draws and scores do not depend on its block or batch, so any
    split of the range gives the same results.
    """
    spec, base_seed, start, stop = args
    plan = spec.contamination
    space = _Workspace(spec.n, stop - start)
    rows = len(space.block)
    batch = rows * max(1, _SEED_REPS // rows)
    sampler = _BlockSampler(spec.distribution)
    cs, b1 = np.empty(stop - start), np.empty(stop - start)
    degenerate = np.empty(stop - start, dtype=bool)
    for first in range(start, stop, batch):
        reps = range(first, min(first + batch, stop))
        states = _stream_states(base_seed, _stream_ids(spec.id, reps))
        if plan is not None:
            cstates = _stream_states(base_seed, _stream_ids(spec.id, reps, "contamination"))
        for lo in range(0, len(reps), rows):
            part = slice(lo, lo + rows)
            block = sampler.draw(states[part], space.block[:len(reps[part])])
            if plan is not None:
                sampler.contaminate(plan, cstates[part], block)
            scores = _score_rows(block, space)
            done = slice(first - start + lo, first - start + lo + len(block))
            cs[done], b1[done], degenerate[done] = scores.cs, scores.b1, scores.degenerate
    return cs, b1, degenerate


def _answer(fn, task) -> tuple[bool, object]:
    """(True, fn(task)), or (False, the exception it raised)."""
    try:
        return True, fn(task)
    except Exception as exc:
        return False, exc


def _serve(conn) -> None:
    """A pool worker: answer each (fn, task) the caller sends down conn,
    until the caller closes its end.  Returning, not being terminated,
    lets multiprocessing's exit hooks run in the worker."""
    with conn:
        try:
            while True:
                fn, task = conn.recv()
                conn.send(_answer(fn, task))
        except (EOFError, OSError):
            return  # the caller has closed its end


def _stop(conns: list, procs: list) -> None:
    # every worker returns once the caller's ends of all the pipes are closed
    for conn in conns:
        conn.close()
    for proc in procs:
        proc.join()


class _SharedPool:
    """The worker processes that _map_ranges shares its ranges with.

    A pool for N workers is N - 1 multiprocessing processes from the
    default context, each fed over its own duplex pipe by the calling
    thread, which takes the first task itself; there are no helper
    threads.  The pool is built on the first call and reused while the
    worker count stays the same.  A new count, or a worker found dead as a
    call starts (which reaps it), shuts the old pool down and builds a new
    one; so does a call that leaves before reading every reply.  Shutting
    down closes the pipes and waits for each worker to return.  That runs
    at exit through a multiprocessing finalizer, ahead of multiprocessing's
    own join of its children, in a multiprocessing child too.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._conns = []
        self._procs = []
        self._finalizer = None

    def map(self, fn, tasks: list) -> list:
        """fn over tasks, one worker for each task, the first in this
        process; results in task order.

        Every reply is read before any error is raised, and the first error
        in task order is raised, as a serial run would raise it.  A worker
        that dies during the call raises BrokenProcessPool.
        """
        with self._lock:
            if len(self._procs) + 1 != len(tasks) or not all(p.is_alive() for p in self._procs):
                self._build(len(tasks))
            try:
                for conn, task in zip(self._conns, tasks[1:]):
                    conn.send((fn, task))
                replies = [_answer(fn, tasks[0])] + [conn.recv() for conn in self._conns]
            except BaseException as exc:
                # replies left unread would put the pipes out of step
                self._shutdown()
                if isinstance(exc, (EOFError, OSError)):
                    raise BrokenProcessPool("a worker process died during the call") from exc
                raise
        for ok, value in replies:
            if not ok:
                raise value
        return [value for _, value in replies]

    def _build(self, workers: int) -> None:
        self._shutdown()
        self._finalizer = Finalize(None, _stop, (self._conns, self._procs),
                                   exitpriority=20)
        for _ in range(workers - 1):
            conn, theirs = multiprocessing.Pipe()
            # listed before the fork, so that _forget closes it in the worker
            self._conns.append(conn)
            proc = multiprocessing.Process(target=_serve, args=(theirs,))
            proc.start()
            theirs.close()
            self._procs.append(proc)

    def _shutdown(self) -> None:
        """Shut the pool down and wait for its workers to exit; the caller
        holds the lock or is the only thread using the pool."""
        if self._finalizer is not None:
            self._finalizer()
        self._conns, self._procs, self._finalizer = [], [], None

    def _forget(self) -> None:
        """In a forked child, a pool worker included, close the parent's ends
        of the workers' pipes, which would keep the workers from seeing EOF,
        and drop the parent's pool and lock unused: the lock may have been
        held at the fork."""
        for conn in self._conns:
            conn.close()
        if self._finalizer is not None:
            self._finalizer.cancel()
        self.__init__()


_POOL = _SharedPool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_POOL._forget)


def _map_ranges(fn, head: tuple, count: int, jobs: int) -> list:
    """fn(head + (start, stop)) over 1..count split into one contiguous
    1-based range per worker; results in range order.

    There are min(jobs, CPUs, max(count, 1)) workers, so one at least.
    With `size, extra = divmod(count, workers)`, range k (from 0) starts
    at 1 + k*size + min(k, extra): the first `extra` ranges hold one item
    more than the rest.  With more than one worker this process runs the
    first range and the process's shared pool the others, one task each,
    and the first error in range order is raised, as a serial run would
    raise it; with one, the whole range runs in this process.

    Raises InvalidParameter before fn runs, for a jobs that is not an
    integer or is below 1 (`core._check_size`).
    """
    _check_size("jobs", jobs, 1)
    workers = min(jobs, os.cpu_count() or 1, max(count, 1))
    size, extra = divmod(count, workers)
    cuts = [1 + k * size + min(k, extra) for k in range(workers + 1)]
    tasks = [head + bounds for bounds in zip(cuts, cuts[1:])]
    return _POOL.map(fn, tasks) if len(tasks) > 1 else [fn(tasks[0])]


def run_condition(spec: ConditionSpec, base_seed: int, jobs: int = 1) -> ConditionResult:
    """Run all replications of one condition and aggregate.

    The replications are split between at most jobs workers by
    _map_ranges, one contiguous range each.  Results are reduced in
    replication order, and a lone range is reduced as it is, uncopied; so
    output is identical to a serial run.

    Raises InvalidParameter before any replication runs: for a base_seed
    or jobs that is not an integer, and jobs below 1.
    """
    _check_integer("base_seed", base_seed)
    ranges = _map_ranges(_replicate_range, (spec, base_seed), spec.reps, jobs)
    cs, b1, degenerate = (ranges[0] if len(ranges) == 1
                          else (np.concatenate(col) for col in zip(*ranges)))

    degenerate_count = int(degenerate.sum())
    cs_ave, cs_se = aggregate(cs)
    b1_ave, b1_se = (aggregate(b1[~degenerate]) if degenerate_count < spec.reps
                     else (0.0, 0.0))
    return ConditionResult(
        id=spec.id, reps=spec.reps,
        b1_ave=b1_ave, b1_se=b1_se, cs_ave=cs_ave, cs_se=cs_se,
        seed=base_seed, degenerate_count=degenerate_count,
    )


def table1_conditions(n: int = 200, reps: int = 10_000) -> tuple[ConditionSpec, ...]:
    """The six built-in lognormal conditions (four clean, two contaminated).

    Raises InvalidParameter, as each ConditionSpec is built, for an n or
    reps out of range, and for an n below 10, where a contaminated
    condition could replace more than half of a sample; so a bad size
    fails before any condition runs.
    """
    high = ContaminationPlan(side="high", magnitude_range=TABLE1_HIGH_MAGNITUDES)
    low = ContaminationPlan(side="low", magnitude_range=TABLE1_LOW_MAGNITUDES)
    rows = (("1. sigma=0.2", 0.2, None), ("2. sigma=0.5", 0.5, None),
            ("3. sigma=1.0", 1.0, None), ("4. sigma=2.0", 2.0, None),
            ("5. sigma=0.5 outliers(high)", 0.5, high), ("6. sigma=1.0 outliers(low)", 1.0, low))
    return tuple(ConditionSpec(name, DistributionSpec.lognormal(sigma), n, reps, plan)
                 for name, sigma, plan in rows)


def run_table1(base_seed: int, n: int = 200, reps: int = 10_000,
               jobs: int = 1) -> list[ConditionResult]:
    """Run the six built-in conditions at n=200, reps=10,000 by default.

    Every condition is built, and so checked, before the first one runs:
    an n below 10 raises InvalidParameter before any replication.
    """
    return [run_condition(spec, base_seed, jobs=jobs)
            for spec in table1_conditions(n=n, reps=reps)]


def _null_condition(dist: DistributionSpec, n: int = 100, reps: int = 100_000) -> ConditionSpec:
    """The condition of the null study of dist, at n=100, reps=100,000 by
    default; dist must be symmetric (normal or cauchy)."""
    if dist.kind not in ("normal", "cauchy"):
        raise InvalidParameter("null experiments need a symmetric distribution "
                               "(normal or cauchy)")
    return ConditionSpec(f"null-{dist.kind}", dist, n, reps)


def run_null(dist: DistributionSpec, n: int, reps: int, base_seed: int,
             jobs: int = 1) -> ConditionResult:
    """Null study of CS under a symmetric distribution (normal or cauchy)."""
    return run_condition(_null_condition(dist, n, reps), base_seed, jobs=jobs)


def _gcurve_range(args) -> list[GCurvePoint]:
    """The points of rows start..stop-1 (1-based), each row an sd and the
    specs of its grid.

    One one-row `core._Workspace` serves every sample, as in a
    replication range.  Each sd's Z is drawn once and copied into the
    workspace's row at every grid point, which is transformed and scored;
    the kernel reports a transformed value beyond the float range.
    """
    rows, n, base_seed, start, stop = args
    space = _Workspace(n, 1)
    points = []
    for sd, specs in rows[start - 1:stop - 1]:
        z = RngStream(base_seed, derive_stream_id("gcurve", f"sd={sd!r}")).standard_normal(n)
        for spec in specs:
            np.copyto(space.block, z)
            _transform(space.block, spec)
            cs = float(_score_rows(space.block, space).cs[0])
            points.append(GCurvePoint(g=float(spec.g), sd=float(sd), cs=cs, n=n))
    return points


def run_gcurve(g_grid=DEFAULT_G_GRID, sds=DEFAULT_GCURVE_SDS, n: int = 100_000,
               base_seed: int = 0, loc: float = DEFAULT_GCURVE_LOC,
               jobs: int = 1) -> list[GCurvePoint]:
    """CS of g-distribution samples along a grid of g values.

    For each underlying sd, one standard normal sample Z of size n is drawn
    and reused across the whole grid (common random numbers), which makes
    the increase of CS in g a sharp property of the output rather than a
    statistical one.  Each grid point maps a copy of Z to the family of
    DistributionSpec.tukey_g(g, loc, sd); every such spec is built, and so
    checked, before the first sample is drawn.  The sds are split between
    at most jobs workers by _map_ranges, one contiguous range each, as a
    condition's replications are; a sample does not depend on its range,
    so output is identical to a serial run.  The defaults of g_grid, sds
    and loc are the module's DEFAULT_G_GRID, DEFAULT_GCURVE_SDS and
    DEFAULT_GCURVE_LOC, which the CLI also writes as the run's provenance.

    Raises InvalidParameter for a grid that does not strictly increase, a
    g below 0, an sd not above 0, a non-finite g, sd or loc, an n,
    base_seed or jobs that is not an integer, n below 2, or jobs below 1;
    n is checked (`core._check_size`) before base_seed, and jobs last.
    """
    grid = list(g_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidParameter("g grid must be strictly increasing")
    _check_size("n", n, 2)
    _check_integer("base_seed", base_seed)
    rows = [(sd, [DistributionSpec.tukey_g(g, loc, sd) for g in grid]) for sd in sds]
    ranges = _map_ranges(_gcurve_range, (rows, n, base_seed), len(rows), jobs)
    return list(itertools.chain.from_iterable(ranges))
