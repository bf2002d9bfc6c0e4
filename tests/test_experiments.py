import itertools
import math
import multiprocessing
import os
import pickle
import signal
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import cumskew
from cumskew import (
    ConditionSpec,
    ContaminationPlan,
    ContaminationSpec,
    CumskewError,
    DistributionSpec,
    FloatRangeError,
    InvalidParameter,
    NonFiniteValue,
    NonNumericData,
    NotOneDimensional,
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
    validate_sample,
)
from cumskew import distributions, experiments
from cumskew.core import _BLOCK_VALUES, _Workspace, _check_finite, _score_rows
from cumskew.distributions import _BlockSampler, _stream_states


_FINITE_SQUARES = [
    pytest.param(np.random.default_rng(10).normal(size=200_000), id="normal"),
    pytest.param(np.random.default_rng(11).standard_cauchy(10_001), id="cauchy"),
    pytest.param(np.random.default_rng(12).lognormal(0.0, 3.0, 9_000), id="lognormal-3"),
    pytest.param(1e-300 * np.random.default_rng(13).normal(size=5_000), id="1e-300"),
    pytest.param(np.random.default_rng(14).standard_cauchy(30_000)[::7], id="strided"),
]


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

    def test_array_gives_the_bits_of_its_list(self):
        values = np.random.default_rng(3).standard_cauchy(10_001)
        as_list = values.tolist()
        mean = math.fsum(as_list) / len(as_list)
        var = math.fsum((v - mean) ** 2 for v in as_list) / (len(as_list) - 1)
        assert aggregate(values) == aggregate(as_list) == aggregate(iter(as_list)) \
            == (mean, math.sqrt(var / len(as_list)))
        assert aggregate(values[::3]) == aggregate(as_list[::3])  # a strided view

    @pytest.mark.parametrize("values", _FINITE_SQUARES)
    def test_squares_are_pythons(self, values):
        # x * x and np.power round differently from Python's square on a
        # few hundred of 2e5 normals, too rarely to move every variance
        vals = np.ascontiguousarray(values, dtype=float)
        mean = math.fsum(vals.tolist()) / len(vals)
        got = np.fromiter(itertools.chain.from_iterable(experiments._squares(vals, mean)), float)
        want = np.array([(v - mean) ** 2 for v in vals.tolist()])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("values", _FINITE_SQUARES)
    def test_gives_the_bits_of_the_generator_form(self, values):
        assert _outcome(aggregate, values) == _outcome(_generator_aggregate, values)
        assert _outcome(aggregate, iter(list(values))) == \
            _outcome(_generator_aggregate, values)

    @pytest.mark.parametrize("values, error, index", [
        pytest.param([math.inf, 1.0], NonFiniteValue, 0, id="inf"),
        pytest.param([1.0, -math.inf], NonFiniteValue, 1, id="-inf"),
        pytest.param([math.nan, 1.0], NonFiniteValue, 0, id="nan"),
        pytest.param([-math.nan, 1.0], NonFiniteValue, 0, id="-nan"),
        pytest.param([1e154, -1e154, 3.0], FloatRangeError, None, id="fsum-overflow"),
        pytest.param([1e308, -1e308], FloatRangeError, None, id="square-overflow"),
        pytest.param([1e200, -1e200], FloatRangeError, None, id="variance-overflow"),
    ])
    def test_non_finite_or_overflowing_values_raise_typed_errors(self, values, error, index):
        for given in (np.array(values), iter(values)):
            with pytest.raises(error) as info:
                aggregate(given)
            assert getattr(info.value, "index", None) == index

    @pytest.mark.parametrize("values, error", [
        # arrays by validate_sample's rules
        pytest.param(np.ones((2, 2)), NotOneDimensional, id="2-d"),
        pytest.param(np.array(3.0), NotOneDimensional, id="0-d"),
        pytest.param(np.array(["1.5"]), NonNumericData, id="str-array"),
        pytest.param(np.array([True, False]), NonNumericData, id="bool-array"),
        pytest.param(np.array([1j, 2.0]), NonNumericData, id="complex-array"),
        pytest.param(np.array(["2020-01-01"], dtype="datetime64[D]"), NonNumericData,
                     id="date-array"),
        pytest.param(np.array([1.0, None], dtype=object), NonNumericData, id="object-none"),
        pytest.param(np.array([1.0, 10**400], dtype=object), FloatRangeError, id="object-huge"),
        pytest.param(np.ma.array([1.0, 2.0], mask=[False, True]), NonNumericData, id="masked"),
        # an iterable's items that float() cannot convert
        pytest.param(["a", "b"], NonNumericData, id="strings"),
        pytest.param([1j], NonNumericData, id="complex"),
        pytest.param([[1.0, 2.0]], NonNumericData, id="nested"),
        pytest.param(None, NonNumericData, id="none"),
        pytest.param(2.0, NonNumericData, id="scalar"),
        pytest.param([1.0, 10**400], FloatRangeError, id="huge-int"),
    ])
    def test_data_that_are_not_real_numbers_raise_typed_errors(self, values, error):
        with pytest.raises(error):
            aggregate(values)

    def test_real_arrays_and_iterables_give_the_bits_of_their_floats(self):
        want = aggregate([1.0, 2.0, 4.0])
        assert aggregate(np.array([1, 2, 4])) == aggregate(np.array([1, 2, 4], np.float32)) \
            == aggregate(np.array([Fraction(1), 2, 4.0], dtype=object)) \
            == aggregate([1, np.float32(2), Fraction(4)]) == want  # items taken as floats

    @pytest.mark.parametrize("values", ["12", b"12", bytearray(b"12"), [1.0, "2"], [None, 1.0]],
                             ids=["str", "bytes", "bytearray", "str-item", "none-item"])
    def test_text_and_items_that_are_not_real_numbers_raise_as_in_validate_sample(self, values):
        # once read as characters, byte values and float("2") (means 1.5,
        # 49.5, 49.5 and 1.5) and None as a NaN (NonFiniteValue)
        for check in (aggregate, validate_sample):
            with pytest.raises(NonNumericData):
                check(values)

    @pytest.mark.parametrize("values", [[True, 2.0], iter([1.0, None]), iter("12")],
                             ids=["bool-item", "none-in-iterator", "characters"])
    def test_an_iterables_items_are_checked_as_an_object_arrays(self, values):
        with pytest.raises(NonNumericData, match="at index"):
            aggregate(values)

    def test_a_float64_array_is_not_copied(self):
        values = np.random.default_rng(6).normal(size=200_000)
        aggregate(values[:10])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            aggregate(values)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # a copy alone would take 8 B a value, 1.6 MB; the squares hold
        # about two runs of _BLOCK_VALUES at a time
        assert peak <= 3 * 8 * _BLOCK_VALUES, peak

    def test_run_condition_holds_no_per_replication_lists(self, monkeypatch):
        # a list of 2e5 Python floats alone takes 32 B a replication; the
        # reduction keeps the float64 columns and a copy of the kept b1
        reps = 200_000
        rng = np.random.default_rng(5)
        cs, b1 = rng.normal(size=reps), rng.standard_cauchy(reps)
        degenerate = np.zeros(reps, dtype=bool)
        degenerate[::1000] = True
        cs[degenerate] = b1[degenerate] = 0.0
        monkeypatch.setattr(experiments, "_replicate_range",
                            lambda args: (cs, b1, degenerate))
        spec = ConditionSpec("unit", DistributionSpec.normal(), 10, reps)
        tracemalloc.start()
        try:
            got = run_condition(spec, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * reps, peak / reps
        assert (got.cs_ave, got.cs_se) == aggregate(cs.tolist())
        assert (got.b1_ave, got.b1_se) == aggregate(b1[~degenerate].tolist())
        assert got.degenerate_count == 200


def _generator_aggregate(values):
    """aggregate's result as one generator over Python floats computes it."""
    vals = [float(v) for v in values]
    mean = math.fsum(vals) / len(vals)
    var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return mean, math.sqrt(var / len(vals))


def _outcome(fn, values):
    """The bytes of fn(values)'s floats."""
    return [struct.pack("<d", x) for x in fn(values)]


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
        reps = [1, 2, 9, 10, 99_999, 100_000, 2**40]
        for tail in [(), ("contamination",), ("a", 1.5)]:
            assert experiments._stream_ids(cid, reps, *tail).tolist() == \
                [derive_stream_id(cid, rep, *tail) for rep in reps]


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
        # block serially and split into two 500-rep ranges, one per worker
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

    @pytest.mark.parametrize("contaminated", [False, True])
    def test_partial_last_block_scores_as_each_rep_alone(self, contaminated):
        # n=4000 scores 8 replications per block, so these ranges end in a
        # 1-row and a 7-row block, which use the leading rows of the
        # workspace the full blocks before them filled
        spec = ConditionSpec("part", DistributionSpec.lognormal(1.0), 4000, 20,
                             contamination=ContaminationPlan(side="low")
                             if contaminated else None)
        rows = _BLOCK_VALUES // spec.n
        assert rows == 8
        for start, stop in ((3, 3 + rows + 1), (2, 2 + 2 * rows - 1)):
            reps = range(start, stop)
            block = drawn_alone(spec.distribution, spec.n, 31,
                                [derive_stream_id(spec.id, rep) for rep in reps],
                                [derive_stream_id(spec.id, rep, "contamination")
                                 for rep in reps], spec.contamination)
            alone = [_score_rows(row[None]) for row in block]
            cs, b1, degenerate = experiments._replicate_range((spec, 31, start, stop))
            assert np.array_equal(cs, [s.cs[0] for s in alone])
            assert np.array_equal(b1, [s.b1[0] for s in alone])
            assert np.array_equal(degenerate, [s.degenerate[0] for s in alone])

    @pytest.mark.parametrize("contaminated", [False, True])
    def test_range_past_the_seeding_batch_scores_as_each_rep_alone(self, contaminated):
        # n=100 scores 327 replications per block and seeds 12 blocks (3,924
        # replications) per batch, so this range takes a second batch, which
        # ends in a partial block
        spec = ConditionSpec("batch", DistributionSpec.normal(1.0, 2.0), 100, 5000,
                             contamination=ContaminationPlan(side="high")
                             if contaminated else None)
        rows = _BLOCK_VALUES // spec.n
        batch = rows * (experiments._SEED_REPS // rows)
        assert rows < batch <= 10_000  # a second batch, and a cheap reference
        start, stop = 5, 5 + batch + rows + 11
        assert (stop - start) % rows
        reps = range(start, stop)
        ref = _score_rows(drawn_alone(spec.distribution, spec.n, 23,
                                      [derive_stream_id(spec.id, rep) for rep in reps],
                                      [derive_stream_id(spec.id, rep, "contamination")
                                       for rep in reps], spec.contamination))
        cs, b1, degenerate = experiments._replicate_range((spec, 23, start, stop))
        assert np.array_equal(cs, ref.cs) and np.array_equal(b1, ref.b1)
        assert np.array_equal(degenerate, ref.degenerate)

    def test_each_stream_kind_seeded_once_per_batch(self, monkeypatch):
        # n=100 scores 327 replications per block, so 1,000 replications
        # are four blocks of one seeding batch
        spec = ConditionSpec("once", DistributionSpec.lognormal(1.0), 100, 1000,
                             contamination=ContaminationPlan(side="high"))
        assert _BLOCK_VALUES // spec.n * 3 < spec.reps <= experiments._SEED_REPS
        hashed, seeded = [], []
        stream_ids, seed_words = experiments._stream_ids, distributions._seed_words

        def count_ids(condition_id, reps, *tail):
            hashed.append((tail, reps))
            return stream_ids(condition_id, reps, *tail)

        def count_words(base_seed, ids):
            seeded.append(len(ids))
            return seed_words(base_seed, ids)

        monkeypatch.setattr(experiments, "_stream_ids", count_ids)
        monkeypatch.setattr(distributions, "_seed_words", count_words)
        experiments._replicate_range((spec, 3, 1, spec.reps + 1))
        reps = range(1, spec.reps + 1)
        assert hashed == [((), reps), (("contamination",), reps)]
        assert seeded == [spec.reps, spec.reps]

    @staticmethod
    def _seeding_peak_over_results(plan, reps):
        spec = ConditionSpec("null-normal", DistributionSpec.normal(), 100, reps,
                             contamination=plan)
        experiments._replicate_range((spec, 11, 1, 11))  # numpy.random's import untraced
        tracemalloc.start()
        try:
            got = experiments._replicate_range((spec, 11, 1, spec.reps + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(col.nbytes for col in got)

    def test_seeding_memory_does_not_grow_with_reps(self):
        # the results take 17 bytes a replication; the rest of a range's
        # peak, the block workspace (4 * _BLOCK_VALUES floats, 1 MiB) and
        # one seeding batch, is bounded, where seeding all 50k streams at
        # once would hold about 9 MB of hash temporaries
        assert self._seeding_peak_over_results(None, 50_000) <= 3 * 2**20

    def test_contaminated_seeding_memory_does_not_grow_with_reps(self):
        # one seeding batch of each stream kind stays within the same bound,
        # where seeding all 20k streams of both kinds at once would hold
        # about 4.9 MB (the run is shorter than the clean one because its
        # per-row outlier draws are slow to trace)
        plan = ContaminationPlan(side="high")
        assert self._seeding_peak_over_results(plan, 20_000) <= 3 * 2**20

    def test_pool_workers_capped_by_cpus_and_tasks(self, monkeypatch):
        # the workers of a run are its tasks, one range each
        monkeypatch.setattr(experiments._POOL, "map",
                            lambda fn, tasks: [fn(task) for task in tasks])

        def workers(jobs, count):
            return len(experiments._map_ranges(lambda task: task, (), count, jobs))

        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        assert workers(2, 8) == 2
        assert workers(64, 256) == 4
        assert workers(8, 3) == 3
        assert workers(8, 0) == 1
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert workers(8, 32) == 1

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="need jobs >= 1"):
            run_condition(small_spec(), 1, jobs=jobs)
        with pytest.raises(ValueError, match="need jobs >= 1"):
            run_null(DistributionSpec.normal(), 20, 50, 1, jobs=jobs)
        with pytest.raises(ValueError, match="need jobs >= 1"):
            run_table1(1, n=20, reps=10, jobs=jobs)
        with pytest.raises(ValueError, match="need jobs >= 1"):
            run_gcurve(n=20, jobs=jobs)

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


CONTAMINATED_FAMILIES = [
    ("high", DistributionSpec.lognormal(1.0)),
    ("low", DistributionSpec.lognormal(1.0)),
    ("high", DistributionSpec.normal(-4.0, 2.0)),
    ("low", DistributionSpec.cauchy()),
]


def assert_rows_drawn_as_alone(dist, n, side=None):
    """13 rows of a block, contaminated on `side` when one is given, are
    the rows drawn one stream at a time."""
    base = 42 if side else 2**63 + 11
    plan = None if side is None else ContaminationPlan(
        side=side, count_min=0, count_max=n // 2, magnitude_range=(1.05, 20.0))
    ids = [derive_stream_id("rows", n, r) for r in range(13)]
    cids = [derive_stream_id("rows", n, r, "contamination") for r in range(13)]
    sampler = _BlockSampler(dist)
    block = sampler.draw(_stream_states(base, ids), np.empty((13, n)))
    if plan is not None:
        sampler.contaminate(plan, _stream_states(base, cids), block)
    assert block.shape == (13, n)
    assert np.array_equal(block, drawn_alone(dist, n, base, ids, cids, plan))
    return sampler


class TestBlockSampler:
    @pytest.mark.parametrize("n", SIMD_NS)
    @pytest.mark.parametrize("dist", BLOCK_FAMILIES, ids=lambda d: f"{d.kind}-{d.sigma}-{d.g}")
    def test_rows_equal_rows_drawn_alone(self, dist, n):
        assert_rows_drawn_as_alone(dist, n)

    @pytest.mark.parametrize("n", SIMD_NS)
    @pytest.mark.parametrize("side,dist", CONTAMINATED_FAMILIES)
    def test_contaminated_rows_equal_rows_drawn_alone(self, side, dist, n):
        assert_rows_drawn_as_alone(dist, n, side)

    def test_rows_equal_rows_drawn_alone_through_the_state_setter(self, monkeypatch):
        # with the probe of the generators' memory failed, every state goes
        # through the public setter, and every block above comes out the same
        monkeypatch.setattr(distributions, "_state_memory", lambda bit_generator: None)
        for n in SIMD_NS:
            for dist in BLOCK_FAMILIES:
                sampler = assert_rows_drawn_as_alone(dist, n)
                assert sampler._memory is None
            for side, dist in CONTAMINATED_FAMILIES:
                sampler = assert_rows_drawn_as_alone(dist, n, side)
                assert sampler._memory is None

    def test_contaminated_sampler_probes_one_generator_once(self, monkeypatch):
        probed = []
        state_memory = distributions._state_memory

        def probe(bit_generator):
            probed.append(bit_generator)
            return state_memory(bit_generator)

        monkeypatch.setattr(distributions, "_state_memory", probe)
        for side, dist in CONTAMINATED_FAMILIES:
            probed.clear()
            sampler = assert_rows_drawn_as_alone(dist, 100, side)
            assert probed == [sampler.gen.bit_generator]

    def test_plan_checks_itself_when_built(self):
        # so a bad plan fails where it is written, not later in a pool worker
        with pytest.raises(ValueError, match="side must be one of"):
            ContaminationPlan(side="sideways")
        with pytest.raises(ValueError, match="multipliers must exceed 1"):
            ContaminationPlan(side="high", magnitude_range=(0.5, 2.0))


NON_FINITE = np.array([math.nan, -math.nan, math.inf, -math.inf])


class TestKernelFiniteCheck:
    # the kernel reads only the ends of its sorted rows: numpy sorts -inf
    # first and +inf and NaN of either sign last

    @pytest.mark.parametrize("n", SIMD_NS)
    def test_raises_what_the_block_check_raises(self, n):
        assert np.signbit(NON_FINITE).tolist() == [False, True, False, True]
        rng = np.random.default_rng([31, n])
        for _ in range(40):
            rows = int(rng.integers(1, 6))
            block = rng.standard_normal((rows, n))
            spots = rng.choice(block.size, size=int(rng.integers(1, min(4, block.size) + 1)),
                               replace=False)
            block.flat[spots] = rng.choice(NON_FINITE, size=len(spots))
            with pytest.raises(NonFiniteValue) as want:
                _check_finite(block)
            for space in (None, _Workspace(n, rows)):
                with pytest.raises(NonFiniteValue) as got:
                    _score_rows(block, space)
                assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("value", NON_FINITE.tolist())
    def test_constant_non_finite_rows_raise(self, value):
        for n in SIMD_NS:
            block = np.ones((3, n))
            block[1] = value
            with pytest.raises(NonFiniteValue) as got:
                _score_rows(block)
            assert str(got.value) == f"non-finite value {value} at index 0"


def lognormal_l_moments(sigma):
    """lambda2 and tau3 of the lognormal with log-sd sigma (Hosking, JRSS B
    52(1), 1990): lambda2 = exp(sigma^2/2) erf(sigma/2), and tau3 =
    6 pi^(-1/2) (integral from 0 to sigma/2 of erf(x/sqrt 3) exp(-x^2) dx)
    / erf(sigma/2), by 60-point Gauss-Legendre quadrature."""
    half = sigma / 2
    nodes, weights = np.polynomial.legendre.leggauss(60)
    xs = (half / 2 * (nodes + 1)).tolist()
    integral = half / 2 * math.fsum(w * math.erf(x / math.sqrt(3)) * math.exp(-x * x)
                                    for x, w in zip(xs, weights.tolist()))
    return math.exp(sigma ** 2 / 2) * math.erf(half), \
        6 / math.sqrt(math.pi) * integral / math.erf(half)


def tukey_g_l_moments(g, sd):
    """lambda2 and tau3 of (exp(g sd Z) - 1) / g, Z standard normal: with
    u = Phi(Z), which X = x(Z) increases with, lambda_r = E[x(Z) P*_(r-1)(u)]
    (Hosking, JRSS B 52(1), 1990), P*_1(u) = 2u - 1 and P*_2(u) = 6u^2 -
    6u + 1, by 160-point Gauss-Hermite quadrature (probabilists' weight)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(160)
    terms2, terms3 = [], []
    for z, w in zip(nodes.tolist(), (weights / math.sqrt(2 * math.pi)).tolist()):
        x = math.expm1(g * sd * z) / g
        u = (1 + math.erf(z / math.sqrt(2))) / 2
        terms2.append(w * x * (2 * u - 1))
        terms3.append(w * x * (6 * u * u - 6 * u + 1))
    lam2 = math.fsum(terms2)
    return lam2, math.fsum(terms3) / lam2


def assert_l_moments_within_4_se(dist, condition_id, lam2, tau3, n=200, reps=10_000):
    """The means of l2 and l3 over reps samples of dist at seed 42, drawn
    as the harness draws condition_id's replications, lie within 4 SE of
    lambda2 and lambda3 = tau3 lambda2."""
    rows = _BlockSampler(dist).draw(
        _stream_states(42, experiments._stream_ids(condition_id, range(1, reps + 1))),
        np.empty((reps, n)))
    rows.sort(axis=1)
    space = _Workspace(n, 1)
    for l, want in ((rows @ space.a / (n * (n - 1)), lam2),
                    (rows @ space.c / (n * (n - 1) * (n - 2)), tau3 * lam2)):
        se = l.std(ddof=1) / math.sqrt(reps)
        assert abs(l.mean() - want) <= 4 * se, (l.mean() - want) / se


class TestTheory:
    # E[l2] = lambda2 and E[l3] = lambda3 = tau3 lambda2 exactly at every n
    # for Hosking's unbiased sample L-moments, which the kernel's a and c
    # weights give; CS = (1 - 2/n) l3 / l2 is a ratio, biased at O(1/n),
    # so it is not compared with theory here
    @pytest.mark.parametrize("spec", table1_conditions()[:4], ids=lambda spec: spec.id)
    def test_clean_conditions_have_the_lognormal_l_moments(self, spec):
        lam2, tau3 = lognormal_l_moments(spec.distribution.sigma)
        assert tau3 == pytest.approx({0.2: 0.09750, 0.5: 0.24094, 1.0: 0.46246,
                                      2.0: 0.79091}[spec.distribution.sigma], abs=5e-6)
        assert_l_moments_within_4_se(spec.distribution, spec.id, lam2, tau3,
                                     spec.n, spec.reps)

    @pytest.mark.parametrize("g, sd, tau3", [(0.2, 1.0, 0.09750), (0.8, 1.0, 0.37732),
                                             (1.5, 1.0, 0.64881), (0.5, 3.0, 0.64881)])
    def test_tukey_g_has_its_quadrature_l_moments(self, g, sd, tau3):
        lam2, got = tukey_g_l_moments(g, sd)
        assert got == pytest.approx(tau3, abs=5e-6)
        assert_l_moments_within_4_se(DistributionSpec.tukey_g(g, 0.0, sd),
                                     f"tukey-g g={g} sd={sd}", lam2, got)

    def test_tukey_g_l_skewness_depends_on_g_times_sd_alone(self):
        # (exp(g sd Z) - 1) / g is an affine map of the lognormal exp(sigma Z)
        # with sigma = g sd, and L-skewness is affine invariant
        lam2, tau3 = tukey_g_l_moments(1.5, 1.0)
        assert tukey_g_l_moments(0.5, 3.0) == pytest.approx((3 * lam2, tau3), rel=1e-13)
        ln_lam2, ln_tau3 = lognormal_l_moments(0.2)
        assert tukey_g_l_moments(0.2, 1.0) == pytest.approx((ln_lam2 / 0.2, ln_tau3),
                                                             rel=1e-13)


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
    """The worker processes of every pool experiments builds during the
    test, a list per build, in build order."""
    built = []
    build = experiments._SharedPool._build

    def counting(self, workers):
        build(self, workers)
        built.append(self._procs)

    monkeypatch.setattr(experiments._SharedPool, "_build", counting)
    return built


def _task_or_raise(task):
    # a pool task: its number, or InvalidParameter naming it when marked to fail
    number, fails = task
    if fails:
        raise InvalidParameter(f"task {number}")
    return number


def _exit_in_worker(caller):
    # a pool task that ends any process it runs in but the caller's
    if os.getpid() != caller:
        os._exit(1)
    return caller


def _send_run(spec, conn):
    # a process group of its own, so that a hung child's pool workers can
    # be killed with it
    os.setpgid(0, 0)
    conn.send(run_condition(spec, 5, jobs=2))
    conn.close()


class TestSharedPool:
    def test_table1_builds_one_pool(self, shared_pool, built_pools, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        got = run_table1(42, n=20, reps=50, jobs=2)
        assert len(built_pools) == 1
        assert got == run_table1(42, n=20, reps=50, jobs=1)

    def test_calls_reuse_the_pool_and_serial_builds_none(self, shared_pool, built_pools,
                                                         monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        dist = DistributionSpec.normal(0.0, 1.0)
        serial = run_null(dist, 20, 60, 3, jobs=1)
        assert built_pools == []
        assert run_null(dist, 20, 60, 3, jobs=2) == serial
        assert run_null(dist, 20, 60, 3, jobs=2) == serial
        assert len(built_pools) == 1 and shared_pool._procs is built_pools[0]

    def test_one_contiguous_task_per_worker(self, shared_pool, built_pools, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        mapped = []

        def run_here(fn, tasks):
            mapped.append([task[2:] for task in tasks])
            return [fn(task) for task in tasks]

        monkeypatch.setattr(shared_pool, "map", run_here)
        spec = small_spec(reps=100, contaminated=True)
        assert run_condition(spec, 13, jobs=3) == run_condition(spec, 13, jobs=1)
        assert mapped == [[(1, 35), (35, 68), (68, 101)]]
        assert built_pools == []

    def test_one_cpu_runs_in_process(self, shared_pool, built_pools, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1)
        spec = small_spec(reps=100, contaminated=True)
        assert run_condition(spec, 13, jobs=4) == run_condition(spec, 13, jobs=1)
        assert built_pools == [] and shared_pool._procs == []

    def test_killed_worker_does_not_fail_the_next_call(self, shared_pool, monkeypatch):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        spec = small_spec(reps=80)
        before = {p.pid for p in multiprocessing.active_children()}
        serial = run_condition(spec, 5, jobs=1)
        assert run_condition(spec, 5, jobs=2) == serial
        pid = min({p.pid for p in multiprocessing.active_children()} - before)
        os.kill(pid, signal.SIGKILL)
        # wait for the kill to land, leaving the dead worker unreaped
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        assert run_condition(spec, 5, jobs=2) == serial
        # the call found the worker dead and reaped it as it rebuilt the pool
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    def test_worker_dying_during_a_call_breaks_only_that_call(self, shared_pool, built_pools):
        # two tasks fork one worker whatever the CPU count
        caller = os.getpid()
        with pytest.raises(BrokenProcessPool):
            shared_pool.map(_exit_in_worker, [caller, caller])
        (worker,) = built_pools[0]
        assert shared_pool._procs == [] and worker.exitcode == 1
        with pytest.raises(ChildProcessError):  # reaped as the pool shut down
            os.waitpid(worker.pid, os.WNOHANG)
        dist = DistributionSpec.normal()
        assert run_null(dist, 20, 60, 3, jobs=2) == run_null(dist, 20, 60, 3, jobs=1)

    @pytest.mark.parametrize("jobs, cpus, started", [(2, 2, 1), (3, 4, 2)])
    def test_n_workers_start_n_minus_one_processes(self, shared_pool, built_pools,
                                                   monkeypatch, jobs, cpus, started):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        before = {p.pid for p in multiprocessing.active_children()}
        threads = threading.active_count()
        spec = small_spec(reps=90)
        assert run_condition(spec, 5, jobs=jobs) == run_condition(spec, 5, jobs=1)
        new = {p.pid for p in multiprocessing.active_children()} - before
        assert len(built_pools) == 1 and {p.pid for p in built_pools[0]} == new
        assert len(new) == started
        assert threading.active_count() == threads  # the pool has no helper threads

    def test_interpreter_with_two_workers_exits(self):
        # each worker must close the caller's ends of its own pipe and of
        # the pipes of the workers forked before it, or none sees EOF and
        # the interpreter hangs joining them at exit
        code = (
            "import os\n"
            "from cumskew import ConditionSpec, DistributionSpec, run_condition\n"
            "os.cpu_count = lambda: 4\n"
            "spec = ConditionSpec('exit', DistributionSpec.normal(), 20, 90)\n"
            "assert run_condition(spec, 3, jobs=3) == run_condition(spec, 3, jobs=1)\n")
        proc = subprocess.Popen([sys.executable, "-c", code], start_new_session=True)
        try:
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()

    def test_killed_worker_is_replaced_under_spawn(self):
        # a spawned worker is no fork of the caller: it gets its pipe end by
        # pickling and imports the package afresh, yet a dead one is found,
        # reaped and replaced as under fork
        code = (
            "import multiprocessing, os, signal\n"
            "from cumskew import ConditionSpec, DistributionSpec, experiments, run_condition\n"
            "multiprocessing.set_start_method('spawn')\n"
            "os.cpu_count = lambda: 2\n"
            "spec = ConditionSpec('spawn', DistributionSpec.normal(), 20, 80)\n"
            "serial = run_condition(spec, 5, jobs=1)\n"
            "assert run_condition(spec, 5, jobs=2) == serial\n"
            "(worker,) = experiments._POOL._procs\n"
            "os.kill(worker.pid, signal.SIGKILL)\n"
            "os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)\n"
            "assert run_condition(spec, 5, jobs=2) == serial\n"
            "(rebuilt,) = experiments._POOL._procs\n"
            "assert rebuilt.pid != worker.pid and rebuilt.is_alive()\n"
            "try:\n"
            "    os.waitpid(worker.pid, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    pass  # reaped as the pool was rebuilt\n"
            "else:\n"
            "    raise AssertionError('the dead worker was not reaped')\n")
        proc = subprocess.Popen([sys.executable, "-c", code], start_new_session=True)
        try:
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()

    @pytest.mark.parametrize("fails, raised", [
        ((1,), "task 1"), ((1, 2), "task 1"), ((0,), "task 0"), ((0, 2), "task 0"),
    ], ids=["worker", "both-workers", "caller", "caller-and-worker"])
    def test_first_error_in_task_order_keeps_the_pool(self, shared_pool, built_pools,
                                                      monkeypatch, fails, raised):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        spec = small_spec(reps=90, contaminated=True)
        serial = run_condition(spec, 5, jobs=1)
        assert run_condition(spec, 5, jobs=3) == serial
        tasks = [(k, k in fails) for k in range(3)]
        with pytest.raises(InvalidParameter, match=f"^{raised}$"):
            shared_pool.map(_task_or_raise, tasks)
        assert shared_pool.map(_task_or_raise, [(k, False) for k in range(3)]) == [0, 1, 2]
        assert run_condition(spec, 5, jobs=3) == serial
        assert len(built_pools) == 1

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

    def test_sds_split_between_workers_give_the_serial_points(self, shared_pool, monkeypatch):
        # three sds in uneven ranges: 2 + 1 with two workers, 1 + 1 + 1 with three
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)

        def bits(jobs):
            return [(p.g, p.sd, p.n, p.cs.hex()) for p in run_gcurve(
                g_grid=(0.2, 0.9), sds=(1.0, 2.0, 3.0), n=500, base_seed=9, jobs=jobs)]

        serial = bits(1)
        assert bits(2) == serial and bits(3) == serial

    def test_pool_raises_the_serial_error_of_the_second_sd(self, shared_pool, monkeypatch):
        # only sd=1e3 overflows, so with two workers the error is raised in
        # the worker's range and the caller's range succeeds
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        args = {"g_grid": (1.5,), "n": 100, "base_seed": 1}
        assert len(run_gcurve(sds=(1.0,), **args)) == 1
        with pytest.raises(NonFiniteValue) as serial:
            run_gcurve(sds=(1.0, 1e3), **args)
        with pytest.raises(NonFiniteValue) as pooled:
            run_gcurve(sds=(1.0, 1e3), jobs=2, **args)
        assert pooled.value.args == serial.value.args
        assert serial.value.value == math.inf


NAN, INF = math.nan, math.inf

# every parameter check of the samplers and the harness, with its message
PARAMETER_CHECKS = {
    "kind": (lambda: DistributionSpec("weibull"), "unknown distribution kind 'weibull'"),
    "normal-mu": (lambda: DistributionSpec.normal(INF), "mu must be finite"),
    "normal-sd": (lambda: DistributionSpec.normal(0.0, -1.0), "normal sd must be >= 0"),
    "lognormal-nan": (lambda: DistributionSpec.lognormal(NAN), "sigma must be finite"),
    "lognormal-shape": (lambda: DistributionSpec.lognormal(0.0), "lognormal shape must be > 0"),
    "cauchy-sigma": (lambda: DistributionSpec("cauchy", sigma=-INF), "sigma must be finite"),
    "tukey-g-inf": (lambda: DistributionSpec.tukey_g(INF), "g must be finite"),
    "tukey-g": (lambda: DistributionSpec.tukey_g(-0.1), "g must be >= 0"),
    "tukey-sd": (lambda: DistributionSpec.tukey_g(0.5, 0.0, 0.0), "underlying sd must be > 0"),
    "spec-count": (lambda: ContaminationSpec(-1, "high"), "need count >= 0"),
    "spec-side": (lambda: ContaminationSpec(1, "sideways"),
                  "side must be one of ('high', 'low')"),
    "spec-range": (lambda: ContaminationSpec(1, "high", (3.0, 2.0)),
                   "magnitude range must satisfy lo <= hi"),
    "spec-multiplier": (lambda: ContaminationSpec(1, "low", (0.5, 2.0)),
                        "magnitude multipliers must exceed 1"),
    "plan-counts": (lambda: ContaminationPlan("high", count_min=3, count_max=2),
                    "need 0 <= count_min <= count_max"),
    "plan-negative": (lambda: ContaminationPlan("high", count_min=-1),
                      "need 0 <= count_min <= count_max"),
    "plan-side": (lambda: ContaminationPlan("sideways"), "side must be one of ('high', 'low')"),
    "condition-n": (lambda: ConditionSpec("c", DistributionSpec.cauchy(), 1, 10), "need n >= 2"),
    "condition-reps": (lambda: ConditionSpec("c", DistributionSpec.cauchy(), 10, 0),
                       "need reps >= 1"),
    "condition-n-before-reps": (lambda: ConditionSpec("c", DistributionSpec.cauchy(), 1, 0.5),
                                "need n >= 2"),
    "run-jobs": (lambda: run_condition(small_spec(), 1, jobs=0), "need jobs >= 1"),
    "condition-count": (lambda: ConditionSpec(
        "c", DistributionSpec.lognormal(1.0), 9, 5, ContaminationPlan("high")),
        "count_max 5 exceeds n/2 = 4.5"),
    "table1-n": (lambda: table1_conditions(n=9), "count_max 5 exceeds n/2 = 4.5"),
    "null-kind": (lambda: run_null(DistributionSpec.lognormal(1.0), 50, 10, 1),
                  "null experiments need a symmetric distribution (normal or cauchy)"),
    "gcurve-grid": (lambda: run_gcurve(g_grid=(0.5, 0.5), n=100), "g grid must be strictly increasing"),
    "gcurve-g": (lambda: run_gcurve(g_grid=(-0.5, 0.1), n=100), "g must be >= 0"),
    "gcurve-g-nan": (lambda: run_gcurve(g_grid=(NAN,), n=100), "g must be finite"),
    "gcurve-sd-negative": (lambda: run_gcurve(sds=(-1.0,), n=100), "underlying sd must be > 0"),
    "gcurve-sd-zero": (lambda: run_gcurve(sds=(0.0,), n=100), "underlying sd must be > 0"),
    "gcurve-sd-nan": (lambda: run_gcurve(sds=(NAN,), n=100), "sigma must be finite"),
    "gcurve-loc": (lambda: run_gcurve(n=100, loc=INF), "mu must be finite"),
    "gcurve-n": (lambda: run_gcurve(n=-5), "need n >= 2"),
    "gcurve-n-one": (lambda: run_gcurve(n=1), "need n >= 2"),
    "gcurve-n-before-seed": (lambda: run_gcurve(n=1, base_seed=1.5), "need n >= 2"),
    "gcurve-jobs": (lambda: run_gcurve(n=100, jobs=0), "need jobs >= 1"),
    "aggregate": (lambda: aggregate([]), "need at least one value"),
    "spec-count-float": (lambda: ContaminationSpec(1.0, "high"),
                         "count must be an integer, got 1.0"),
    "spec-count-bool": (lambda: ContaminationSpec(True, "high"),
                        "count must be an integer, got True"),
    "plan-count-min-float": (lambda: ContaminationPlan("high", 1.5, 2),
                             "count_min must be an integer, got 1.5"),
    "plan-count-min-bool": (lambda: ContaminationPlan("high", True),
                            "count_min must be an integer, got True"),
    "plan-count-max-float": (lambda: ContaminationPlan("high", 1, 2.5),
                             "count_max must be an integer, got 2.5"),
    "plan-count-max-bool": (lambda: ContaminationPlan("high", 0, True),
                            "count_max must be an integer, got True"),
    "condition-n-float": (lambda: ConditionSpec("c", DistributionSpec.cauchy(), 10.0, 10),
                          "n must be an integer, got 10.0"),
    "condition-n-bool": (lambda: ConditionSpec("c", DistributionSpec.cauchy(), True, 10),
                         "n must be an integer, got True"),
    "condition-reps-float": (lambda: ConditionSpec("c", DistributionSpec.cauchy(), 10, 5.5),
                             "reps must be an integer, got 5.5"),
    "condition-reps-bool": (lambda: ConditionSpec("c", DistributionSpec.cauchy(), 10, True),
                            "reps must be an integer, got True"),
    "run-jobs-float": (lambda: run_condition(small_spec(), 1, jobs=2.5),
                       "jobs must be an integer, got 2.5"),
    "run-jobs-bool": (lambda: run_condition(small_spec(), 1, jobs=True),
                      "jobs must be an integer, got True"),
    "run-seed-float": (lambda: run_condition(small_spec(), 1.5),
                       "base_seed must be an integer, got 1.5"),
    "run-seed-bool": (lambda: run_condition(small_spec(), False),
                      "base_seed must be an integer, got False"),
    "gcurve-n-float": (lambda: run_gcurve(n=1000.0), "n must be an integer, got 1000.0"),
    "gcurve-n-bool": (lambda: run_gcurve(n=True), "n must be an integer, got True"),
    "gcurve-seed-float": (lambda: run_gcurve(n=100, base_seed=1.5),
                          "base_seed must be an integer, got 1.5"),
    "gcurve-seed-bool": (lambda: run_gcurve(n=100, base_seed=True),
                         "base_seed must be an integer, got True"),
    "gcurve-jobs-float": (lambda: run_gcurve(n=100, jobs=2.5),
                          "jobs must be an integer, got 2.5"),
    "gcurve-jobs-bool": (lambda: run_gcurve(n=100, jobs=True),
                         "jobs must be an integer, got True"),
    "rng-seed-float": (lambda: RngStream(1.5, 2), "base_seed must be an integer, got 1.5"),
    "rng-stream-float": (lambda: RngStream(1, 2.7), "stream_id must be an integer, got 2.7"),
    "rng-stream-bool": (lambda: RngStream(1, False), "stream_id must be an integer, got False"),
    # each bound a finite real number, the range a pair
    "spec-range-hi-inf": (lambda: ContaminationSpec(1, "high", (2.0, INF)),
                          "magnitude range hi must be finite"),
    "spec-range-both-inf": (lambda: ContaminationSpec(1, "high", (INF, INF)),
                            "magnitude range lo must be finite"),
    "spec-range-one": (lambda: ContaminationSpec(1, "high", (2.0,)),
                       "magnitude range must be a pair (lo, hi), got (2.0,)"),
    "spec-range-three": (lambda: ContaminationSpec(1, "high", (2.0, 3.0, 4.0)),
                         "magnitude range must be a pair (lo, hi), got (2.0, 3.0, 4.0)"),
    "spec-range-none": (lambda: ContaminationSpec(1, "high", None),
                        "magnitude range must be a pair (lo, hi), got None"),
    "spec-range-text": (lambda: ContaminationSpec(1, "high", ("a", "b")),
                        "magnitude range lo must be a real number, got 'a'"),
    "spec-range-bool": (lambda: ContaminationSpec(1, "high", (2.0, True)),
                        "magnitude range hi must be a real number, got True"),
    "spec-range-huge": (lambda: ContaminationSpec(1, "high", (2, 10**400)),
                        "magnitude range hi must be finite"),
    "plan-range-inf": (lambda: ContaminationPlan("high", 1, 2, (2.0, INF)),
                       "magnitude range hi must be finite"),
    # mu, sigma and g are finite real numbers
    "normal-mu-text": (lambda: DistributionSpec.normal(mu="1"),
                       "mu must be a real number, got '1'"),
    "normal-mu-bool": (lambda: DistributionSpec.normal(mu=True),
                       "mu must be a real number, got True"),
    "normal-mu-huge": (lambda: DistributionSpec.normal(mu=10**400), "mu must be finite"),
    "lognormal-none": (lambda: DistributionSpec.lognormal(None),
                       "sigma must be a real number, got None"),
    "tukey-g-complex": (lambda: DistributionSpec.tukey_g(0.5j),
                        "g must be a real number, got 0.5j"),
    "gcurve-sd-text": (lambda: run_gcurve(sds=("1",), n=100),
                       "sigma must be a real number, got '1'"),
    "gcurve-g-text": (lambda: run_gcurve(g_grid=(1, "a"), n=100),
                      "g must be a real number, got 'a'"),
    "gcurve-g-text-no-sds": (lambda: run_gcurve(g_grid=(1, "a"), sds=(), n=100),
                             "g must be a real number, got 'a'"),
    "gcurve-loc-no-sds": (lambda: run_gcurve(sds=(), n=100, loc=NAN), "mu must be finite"),
}


class TestInvalidParameter:
    @pytest.mark.parametrize("case", PARAMETER_CHECKS)
    def test_raised_as_a_value_error_and_a_cumskew_error(self, case):
        call, message = PARAMETER_CHECKS[case]
        with pytest.raises(InvalidParameter) as got:
            call()
        assert str(got.value) == message
        assert isinstance(got.value, ValueError) and isinstance(got.value, CumskewError)

    def test_numpy_integers_are_integers(self):
        spec = ConditionSpec("unit", DistributionSpec.lognormal(0.5), np.int64(40), np.int32(64),
                             ContaminationPlan("high", np.int64(1), np.int16(5)))
        assert run_condition(spec, np.int64(1), jobs=np.int64(1)) == \
            run_condition(small_spec(contaminated=True), 1)
        # and each size check admits a numpy integer at its bound
        least = ConditionSpec("least", DistributionSpec.cauchy(), np.int64(2), np.int32(1))
        assert run_condition(least, 1, jobs=np.int16(1)) == \
            run_condition(ConditionSpec("least", DistributionSpec.cauchy(), 2, 1), 1)
        assert run_gcurve(sds=(1.0,), n=np.int64(2), jobs=np.int8(1)) == \
            run_gcurve(sds=(1.0,), n=2)
        assert ContaminationSpec(np.uint8(0), "high").count == 0

    def test_real_numbers_are_held_as_floats_and_run(self):
        # a Fraction, an int and a numpy float give the run of their floats
        dist = DistributionSpec.normal(Fraction(1, 4), np.float32(0.5))
        assert (dist.mu, dist.sigma, dist.g) == (0.25, 0.5, 0.0)
        assert all(type(v) is float for v in (dist.mu, dist.sigma, dist.g))
        plan = ContaminationPlan("high", 1, 2, (Fraction(3, 2), 2))
        spec = ConditionSpec("real", dist, 30, 50, plan)
        want = ConditionSpec("real", DistributionSpec.normal(0.25, 0.5), 30, 50,
                             ContaminationPlan("high", 1, 2, (1.5, 2.0)))
        assert run_condition(spec, 3) == run_condition(want, 3)

    def test_count_limit_checked_before_any_replication(self):
        # so the outcome does not depend on the counts the replications draw:
        # such a spec is never built, let alone run
        with pytest.raises(InvalidParameter, match=r"^count_max 5 exceeds n/2 = 4\.5$"):
            ConditionSpec("c", DistributionSpec.lognormal(1.0), 9, 1, ContaminationPlan("high"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_table1_checks_every_condition_before_the_first_runs(self, monkeypatch, jobs):
        # the contaminated conditions come last; a too-small n must not
        # run the four clean ones first
        def replicate(args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(experiments, "_replicate_range", replicate)
        with pytest.raises(InvalidParameter, match=r"^count_max 5 exceeds n/2 = 4\.5$"):
            run_table1(1, n=9, reps=5, jobs=jobs)

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_count_limit_does_not_wrap_in_a_numpy_integer(self, action):
        # 2 * np.uint8(200) wraps to 144, below n = 300
        plan = ContaminationPlan("high", np.uint8(1), np.uint8(200))
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(InvalidParameter, match=r"^count_max 200 exceeds n/2 = 150$"):
                ConditionSpec("c", DistributionSpec.lognormal(0.5), 300, 5, plan)

    def test_count_limit_admits_half_the_sample(self):
        spec = ConditionSpec("c", DistributionSpec.lognormal(1.0), 10, 20,
                             ContaminationPlan("high", count_min=5, count_max=5))
        assert run_condition(spec, 3).reps == 20
