import math
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time

import numpy as np
import pytest

import cumskew
from cumskew import (
    ConditionSpec,
    ContaminationPlan,
    ContaminationSpec,
    CumskewError,
    DistributionSpec,
    NonFiniteValue,
    RngStream,
    aggregate,
    contaminate,
    derive_stream_id,
    draw_sample,
    errors,
    run_condition,
    run_gcurve,
    run_null,
    run_table1,
    skew_report,
    table1_conditions,
)
from cumskew import experiments
from cumskew.core import _score_rows
from cumskew.distributions import _BlockSampler


class TestAggregate:
    def test_single_value_convention(self):
        assert aggregate([3.0]) == (3.0, 0.0)

    def test_hand_value(self):
        mean, se = aggregate([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert se == pytest.approx(1 / math.sqrt(3), rel=1e-15)

    def test_zero_spread(self):
        assert aggregate([5.0, 5.0, 5.0, 5.0]) == (5.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestStreamDerivation:
    def test_stable_across_runs_and_platforms(self):
        # frozen value guards the seeding scheme against accidental change
        assert derive_stream_id("x", 1) == 5406966257379951050

    def test_parts_matter(self):
        assert derive_stream_id("a", 1) != derive_stream_id("a", 2)
        assert derive_stream_id("a", 1) != derive_stream_id("b", 1)
        assert derive_stream_id("a", 1, "contamination") != derive_stream_id("a", 1)

    @pytest.mark.parametrize("cid", ["unit", "1. sigma=0.2", "null-cauchy", "\u00e9t\u00e9:x"])
    def test_block_ids_are_derive_stream_id(self, cid):
        prefix = f"{cid}:".encode("utf-8")
        reps = [1, 2, 9, 10, 99_999, 100_000, 2**40]
        assert experiments._stream_ids(prefix, reps) == \
            [derive_stream_id(cid, rep) for rep in reps]
        assert experiments._stream_ids(prefix, reps, b":contamination") == \
            [derive_stream_id(cid, rep, "contamination") for rep in reps]


def small_spec(reps=64, contaminated=False):
    plan = ContaminationPlan(side="high") if contaminated else None
    return ConditionSpec("unit", DistributionSpec.lognormal(0.5), 40, reps,
                         contamination=plan)


class TestRunCondition:
    def test_single_rep_equals_sample_statistics(self):
        spec = small_spec(reps=1)
        res = run_condition(spec, base_seed=9)
        rng = RngStream(9, derive_stream_id("unit", 1))
        rep = skew_report(draw_sample(spec.distribution, rng, spec.n))
        assert res.cs_ave == rep.cs
        assert res.b1_ave == rep.b1
        assert res.cs_se == 0.0 and res.b1_se == 0.0

    def test_repeat_runs_identical(self):
        spec = small_spec(contaminated=True)
        a = run_condition(spec, base_seed=11)
        b = run_condition(spec, base_seed=11)
        assert a == b

    def test_parallel_matches_serial_exactly(self):
        for contaminated in (False, True):
            spec = small_spec(reps=120, contaminated=contaminated)
            serial = run_condition(spec, base_seed=13, jobs=1)
            parallel = run_condition(spec, base_seed=13, jobs=3)
            assert serial == parallel

    def test_parallel_matches_serial_across_block_boundaries(self):
        # n=40 scores 819 replications per block; 1000 reps leave a partial
        # block serially and split into 125-rep chunks across the pool
        spec = small_spec(reps=1000, contaminated=True)
        assert run_condition(spec, base_seed=17, jobs=1) == run_condition(spec, base_seed=17, jobs=2)

    @pytest.mark.parametrize("spec", [
        ConditionSpec("b-normal", DistributionSpec.normal(1.0, 2.0), 30, 40),
        ConditionSpec("b-lognormal", DistributionSpec.lognormal(0.5), 30, 40),
        ConditionSpec("b-cauchy", DistributionSpec.cauchy(), 30, 40),
        ConditionSpec("b-tukey", DistributionSpec.tukey_g(0.7, 0.5, 2.0), 30, 40),
        ConditionSpec("b-low", DistributionSpec.lognormal(1.0), 30, 40,
                      contamination=ContaminationPlan(side="low", count_max=9)),
    ])
    def test_batched_seeding_draws_every_stream_as_seeded_alone(self, spec):
        # each replication's row, drawn through its own RngStream as a
        # single caller would, scores exactly as the batched run did
        base = 2**64 - 3
        rows = []
        for rep in range(1, spec.reps + 1):
            sample = draw_sample(spec.distribution,
                                 RngStream(base, derive_stream_id(spec.id, rep)), spec.n)
            plan = spec.contamination
            if plan is not None:
                crng = RngStream(base, derive_stream_id(spec.id, rep, "contamination"))
                count = crng.integers(plan.count_min, plan.count_max + 1)
                sample = contaminate(sample, ContaminationSpec(
                    count=count, side=plan.side, magnitude_range=plan.magnitude_range), crng)
            rows.append(sample.values)
        ref = _score_rows(np.stack(rows))
        cs, b1, degenerate = experiments._replicate_range((spec, base, 1, spec.reps + 1))
        assert np.array_equal(cs, ref.cs) and np.array_equal(b1, ref.b1)
        assert np.array_equal(degenerate, ref.degenerate)

    def test_pool_workers_capped_by_cpus_and_tasks(self, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        assert experiments._pool_workers(2, 8) == 2
        assert experiments._pool_workers(64, 256) == 4
        assert experiments._pool_workers(8, 3) == 3
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert experiments._pool_workers(8, 32) == 1

    def test_seed_changes_results(self):
        spec = small_spec()
        assert run_condition(spec, 1) != run_condition(spec, 2)

    def test_degenerate_replications_counted_and_excluded(self):
        spec = ConditionSpec("const", DistributionSpec.normal(3.0, 0.0), 20, 5)
        res = run_condition(spec, base_seed=1)
        assert res.degenerate_count == 5
        assert res.cs_ave == 0.0 and res.cs_se == 0.0
        assert res.b1_ave == 0.0 and res.b1_se == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ConditionSpec("bad", DistributionSpec.cauchy(), 1, 10)
        with pytest.raises(ValueError):
            ConditionSpec("bad", DistributionSpec.cauchy(), 10, 0)
        with pytest.raises(ValueError):
            ContaminationPlan(side="high", count_min=3, count_max=2)


def drawn_alone(dist, n, base, ids, cids=None, plan=None):
    """Rows drawn one stream at a time through the public samplers."""
    rows = []
    for r, sid in enumerate(ids):
        sample = draw_sample(dist, RngStream(base, sid), n)
        if plan is not None:
            crng = RngStream(base, cids[r])
            count = crng.integers(plan.count_min, plan.count_max + 1)
            sample = contaminate(sample, ContaminationSpec(
                count=count, side=plan.side, magnitude_range=plan.magnitude_range), crng)
        rows.append(sample.values)
    return np.stack(rows)


BLOCK_FAMILIES = [
    DistributionSpec.normal(1.0, 2.0),
    DistributionSpec.normal(3.0, 0.0),
    DistributionSpec.lognormal(0.2),
    DistributionSpec.lognormal(2.0),
    DistributionSpec.cauchy(),
    DistributionSpec.tukey_g(0.0, 0.5, 2.0),
    DistributionSpec.tukey_g(0.7, 0.5, 2.0),
]
# lengths on both sides of 4- and 8-lane vector widths, so that the rows of
# a block start at every lane offset of the block's vector loops
SIMD_NS = (2, 3, 7, 8, 9, 15, 16, 17, 100, 200, 1000)


class TestBlockSampler:
    @pytest.mark.parametrize("n", SIMD_NS)
    @pytest.mark.parametrize("dist", BLOCK_FAMILIES, ids=lambda d: f"{d.kind}-{d.sigma}-{d.g}")
    def test_rows_equal_rows_drawn_alone(self, dist, n):
        base = 2**63 + 11
        ids = [derive_stream_id("rows", n, r) for r in range(13)]
        block = _BlockSampler(dist, n, base).draw(ids)
        assert block.shape == (13, n)
        assert np.array_equal(block, drawn_alone(dist, n, base, ids))

    @pytest.mark.parametrize("n", SIMD_NS)
    @pytest.mark.parametrize("side,dist", [
        ("high", DistributionSpec.lognormal(1.0)),
        ("low", DistributionSpec.lognormal(1.0)),
        ("high", DistributionSpec.normal(-4.0, 2.0)),
        ("low", DistributionSpec.cauchy()),
    ])
    def test_contaminated_rows_equal_rows_drawn_alone(self, side, dist, n):
        base = 42
        plan = ContaminationPlan(side=side, count_min=0, count_max=n // 2,
                                 magnitude_range=(1.05, 20.0))
        ids = [derive_stream_id("rows", n, r) for r in range(13)]
        cids = [derive_stream_id("rows", n, r, "contamination") for r in range(13)]
        block = _BlockSampler(dist, n, base, plan).draw(ids, cids)
        assert np.array_equal(block, drawn_alone(dist, n, base, ids, cids, plan))

    def test_plan_checked_as_contaminate_checks_it(self):
        with pytest.raises(ValueError):
            _BlockSampler(DistributionSpec.lognormal(1.0), 10, 1,
                          ContaminationPlan(side="sideways"))
        with pytest.raises(ValueError):
            _BlockSampler(DistributionSpec.lognormal(1.0), 10, 1,
                          ContaminationPlan(side="high", magnitude_range=(0.5, 2.0)))

    def test_plan_checks_itself_when_built(self):
        # so a bad plan fails where it is written, not later in a pool worker
        with pytest.raises(ValueError, match="side must be one of"):
            ContaminationPlan(side="sideways")
        with pytest.raises(ValueError, match="multipliers must exceed 1"):
            ContaminationPlan(side="high", magnitude_range=(0.5, 2.0))


def first_error_drawn_alone(spec, base):
    """The error the replications raise when drawn one at a time, in order."""
    try:
        drawn_alone(spec.distribution, spec.n, base,
                    [derive_stream_id(spec.id, rep) for rep in range(1, spec.reps + 1)],
                    [derive_stream_id(spec.id, rep, "contamination")
                     for rep in range(1, spec.reps + 1)],
                    spec.contamination)
    except CumskewError as exc:
        return exc
    raise AssertionError("expected the one-row path to fail")


class TestDrawErrors:
    @pytest.mark.parametrize("spec", [
        # a draw overflows
        ConditionSpec("big", DistributionSpec.lognormal(1000.0), 100, 20),
        ConditionSpec("wide", DistributionSpec.normal(0.0, 6e307), 50, 400),
        # outliers overflow though the draws are finite
        ConditionSpec("outliers", DistributionSpec.normal(0.0, 1e307), 50, 20,
                      contamination=ContaminationPlan(side="high")),
        # draws and outliers both overflow, in different rows of one block:
        # at sd 5e307 a draw first (replication 202, outliers at 225), at
        # 5.1e307 outliers first (125, a draw at 202)
        ConditionSpec("mixed", DistributionSpec.normal(0.0, 5e307), 30, 300,
                      contamination=ContaminationPlan(side="low",
                                                      magnitude_range=(1.01, 1.02))),
        ConditionSpec("mixed", DistributionSpec.normal(0.0, 5.1e307), 30, 300,
                      contamination=ContaminationPlan(side="low",
                                                      magnitude_range=(1.01, 1.02))),
        # more outliers than half the sample
        ConditionSpec("count", DistributionSpec.lognormal(1.0), 10, 50,
                      contamination=ContaminationPlan(side="high", count_min=3,
                                                      count_max=8)),
    ], ids=lambda spec: f"{spec.id}-{spec.distribution.sigma}")
    def test_first_error_is_the_one_row_path_error(self, spec):
        want = first_error_drawn_alone(spec, 5)
        with pytest.raises(CumskewError) as got:
            experiments._replicate_range((spec, 5, 1, spec.reps + 1))
        assert type(got.value) is type(want)
        assert got.value.args == want.args and str(got.value) == str(want)

    def test_pool_raises_the_serial_error(self):
        spec = ConditionSpec("big", DistributionSpec.lognormal(1000.0), 100, 20)
        with pytest.raises(NonFiniteValue) as serial:
            run_condition(spec, 1, jobs=1)
        with pytest.raises(NonFiniteValue) as pooled:
            run_condition(spec, 1, jobs=2)
        assert (pooled.value.index, pooled.value.value) == \
            (serial.value.index, serial.value.value)
        assert serial.value.value == math.inf

    def test_no_overflow_warning(self, recwarn):
        spec = ConditionSpec("big", DistributionSpec.lognormal(1000.0), 100, 20)
        with pytest.raises(NonFiniteValue):
            run_condition(spec, 1)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("name", errors.__all__)
    def test_every_error_survives_pickling(self, name):
        cls = getattr(cumskew, name)
        exc = {"NonFiniteValue": lambda: cls(6, math.inf),
               "ParseError": lambda: cls(3, "could not parse 'x' as a number")}.get(
            name, lambda: cls("some message"))()
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and back.args == exc.args and str(back) == str(exc)
        assert vars(back) == vars(exc)

    def test_messages_keep_their_wording(self):
        assert str(NonFiniteValue(6, math.inf)) == "non-finite value inf at index 6"
        assert str(errors.ParseError(3, "bad")) == "line 3: bad"


class TestConcurrentRuns:
    def test_threads_reproduce_their_serial_runs(self):
        specs = [small_spec(reps=900, contaminated=True),
                 ConditionSpec("t-cauchy", DistributionSpec.cauchy(), 60, 900)]
        want = [run_condition(spec, 23) for spec in specs]
        got = [None] * len(specs)

        def run(k):
            got[k] = run_condition(specs[k], 23)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(specs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert got == want


@pytest.fixture
def shared_pool():
    """experiments' shared pool, shut down before and after the test."""
    experiments._POOL._shutdown()
    yield experiments._POOL
    experiments._POOL._shutdown()


@pytest.fixture
def built_pools(monkeypatch):
    """Every executor experiments builds during the test, in build order."""
    built = []

    class Counting(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Counting)
    return built


def _send_run(spec, conn):
    # a process group of its own, so that a hung child's pool workers can
    # be killed with it
    os.setpgid(0, 0)
    conn.send(run_condition(spec, 5, jobs=2))
    conn.close()


class TestSharedPool:
    def test_table1_builds_one_pool(self, shared_pool, built_pools):
        got = run_table1(42, n=20, reps=50, jobs=2)
        assert len(built_pools) == 1
        assert got == run_table1(42, n=20, reps=50, jobs=1)

    def test_calls_reuse_the_pool_and_serial_builds_none(self, shared_pool, built_pools):
        dist = DistributionSpec.normal(0.0, 1.0)
        serial = run_null(dist, 20, 60, 3, jobs=1)
        assert built_pools == []
        assert run_null(dist, 20, 60, 3, jobs=2) == serial
        assert run_null(dist, 20, 60, 3, jobs=2) == serial
        assert len(built_pools) == 1 and shared_pool._executor is built_pools[0]

    def test_killed_worker_does_not_fail_the_next_call(self, shared_pool):
        spec = small_spec(reps=80)
        before = {p.pid for p in multiprocessing.active_children()}
        serial = run_condition(spec, 5, jobs=1)
        assert run_condition(spec, 5, jobs=2) == serial
        pid = min({p.pid for p in multiprocessing.active_children()} - before)
        os.kill(pid, signal.SIGKILL)
        # the pool's manager thread reaps the worker after marking the pool
        # broken; signal 0 reaches the pid until then, zombie or not
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        else:
            pytest.fail(f"killed worker {pid} was not reaped")
        assert run_condition(spec, 5, jobs=2) == serial

    def test_forked_child_builds_its_own_pool(self, shared_pool):
        spec = small_spec(reps=80)
        serial = run_condition(spec, 5, jobs=1)
        assert run_condition(spec, 5, jobs=2) == serial
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_run, args=(spec, writer))
        child.start()
        writer.close()
        try:
            got = reader.recv() if reader.poll(30) else None
            child.join(timeout=30)
            hung = child.is_alive()
        finally:
            if child.is_alive():
                os.killpg(child.pid, signal.SIGKILL)
                child.join()
            reader.close()
        assert got == serial
        assert not hung and child.exitcode == 0

    def test_threads_with_different_worker_counts(self, shared_pool, monkeypatch):
        # four CPUs as far as the worker cap knows, so jobs=2 and jobs=3 need
        # different pools and each call can shut down the other's
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        specs = {2: small_spec(reps=90, contaminated=True),
                 3: ConditionSpec("t-cauchy", DistributionSpec.cauchy(), 30, 90)}
        want = {jobs: run_condition(spec, 7, jobs=1) for jobs, spec in specs.items()}
        got = {jobs: [] for jobs in specs}

        def run(jobs):
            for _ in range(3):
                got[jobs].append(run_condition(specs[jobs], 7, jobs=jobs))

        threads = [threading.Thread(target=run, args=(jobs,)) for jobs in specs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == {jobs: [res] * 3 for jobs, res in want.items()}


# float.hex of (cs_ave, cs_se, b1_ave, b1_se) and degenerate_count, taken
# before the block sampler replaced per-replication RngStreams.  Six CS
# values moved in the last bits when the kernel's sums became extraction
# sums of the L-form: per-row CS changed by rounding (summation order) only.
GOLDEN_TABLE1 = [
    ("0x1.96c7dea1445d2p-4", "0x1.e8edf6315ba09p-10", "0x1.3c5011e027dc1p-1",
     "0x1.c4648f8ca2771p-7", 0),
    ("0x1.f0618e99d149dp-3", "0x1.1d8e6d588d5fdp-9", "0x1.9ebb6eafdb78fp+0",
     "0x1.d72a5452c3e67p-6", 0),
    ("0x1.d5078a6e8c6f4p-2", "0x1.841bfe429cc82p-9", "0x1.e8490910ec8e8p+1",
     "0x1.7f2847d2bffd1p-4", 0),
    ("0x1.81ad6dca40f3cp-1", "0x1.01e55f003ef91p-8", "0x1.e682cd301eee8p+2",
     "0x1.484fd01f1b702p-3", 0),
    ("0x1.7bcca1332a10cp-1", "0x1.4b0f1d2f3ca6fp-8", "0x1.1f13f6cc6b1d3p+3",
     "0x1.2e9914eefa263p-3", 0),
    ("0x1.8ffac91e4e3d0p-4", "0x1.2bcf71eea9170p-7", "-0x1.584a570f626c0p+1",
     "0x1.289824b71dd56p-4", 0),
]
GOLDEN_NULLS = {
    "normal": ("0x1.cd3a96de3a3c4p-11", "0x1.02efc1d2d5f17p-9", "0x1.3f30a482af5f3p-7",
               "0x1.644986a579b99p-7", 0),
    "cauchy": ("0x1.0176b445d09fap-7", "0x1.35c65b3bb2209p-6", "-0x1.9145a239b8ec6p-5",
               "0x1.17618e2cee1c5p-2", 0),
}


def hexed(res):
    return (res.cs_ave.hex(), res.cs_se.hex(), res.b1_ave.hex(), res.b1_se.hex(),
            res.degenerate_count)


class TestGoldenOutputs:
    def test_table1(self):
        assert [hexed(r) for r in run_table1(42, reps=300)] == GOLDEN_TABLE1

    @pytest.mark.parametrize("dist", [DistributionSpec.normal(0, 1), DistributionSpec.cauchy()],
                             ids=lambda d: d.kind)
    def test_nulls(self, dist):
        assert hexed(run_null(dist, 100, 500, 42)) == GOLDEN_NULLS[dist.kind]


class TestRunTable1:
    def test_structure_and_wiring(self):
        results = run_table1(base_seed=21, n=30, reps=40)
        assert [r.id for r in results] == [s.id for s in table1_conditions()]
        conds = table1_conditions(n=30, reps=40)
        assert conds[4].contamination.side == "high"
        assert conds[5].contamination.side == "low"
        assert conds[0].contamination is None
        # contamination moves the averages relative to the clean twin
        assert results[4].b1_ave > results[1].b1_ave
        assert results[5].b1_ave < results[2].b1_ave

    def test_deterministic(self):
        a = run_table1(base_seed=21, n=20, reps=10)
        b = run_table1(base_seed=21, n=20, reps=10)
        assert a == b


class TestRunNull:
    def test_requires_symmetric_distribution(self):
        with pytest.raises(ValueError):
            run_null(DistributionSpec.lognormal(1.0), 50, 10, base_seed=1)

    def test_small_normal_null(self):
        res = run_null(DistributionSpec.normal(0, 1), 50, 200, base_seed=3)
        assert res.id == "null-normal"
        assert abs(res.cs_ave) < 0.02
        assert res.cs_se > 0.0
        assert res.degenerate_count == 0

    def test_constant_normal_counts_degenerate(self):
        res = run_null(DistributionSpec.normal(0, 0.0), 50, 1, base_seed=3)
        assert res.cs_ave == 0.0
        assert res.degenerate_count == 1

    def test_standard_error_scales_with_replications(self):
        # sd of CS at n=100 under normality is ~0.043, so 1000 reps give
        # a standard error near 0.0014
        res = run_null(DistributionSpec.normal(0, 1), 100, 1000, base_seed=17)
        assert 0.0011 < res.cs_se < 0.0017


class TestRunGCurve:
    def test_grid_shape_and_common_draws(self):
        pts = run_gcurve(n=2000, base_seed=5)
        assert len(pts) == 30
        assert [p.sd for p in pts[:15]] == [1.0] * 15
        assert [p.sd for p in pts[15:]] == [3.0] * 15
        assert [p.g for p in pts[:15]] == pytest.approx([k / 10 for k in range(1, 16)])

    def test_g_zero_reduces_to_symmetric_normal(self):
        pts = run_gcurve(g_grid=(0.0, 0.5), sds=(1.0,), n=20_000, base_seed=5)
        assert abs(pts[0].cs) < 0.01
        assert pts[1].cs > pts[0].cs

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            run_gcurve(g_grid=(0.5, 0.5), n=100, base_seed=1)

    def test_deterministic(self):
        a = run_gcurve(g_grid=(0.2, 1.0), n=1000, base_seed=7)
        b = run_gcurve(g_grid=(0.2, 1.0), n=1000, base_seed=7)
        assert a == b
