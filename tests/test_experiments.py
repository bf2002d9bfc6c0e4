import math

import numpy as np
import pytest

from cumskew import (
    ConditionSpec,
    ContaminationPlan,
    ContaminationSpec,
    DistributionSpec,
    RngStream,
    aggregate,
    contaminate,
    derive_stream_id,
    draw_sample,
    run_condition,
    run_gcurve,
    run_null,
    run_table1,
    skew_report,
    table1_conditions,
)
from cumskew import experiments
from cumskew.core import _score_rows


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
