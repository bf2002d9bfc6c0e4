import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from cumskew import (
    ContaminationSpec,
    CountTooLarge,
    DistributionSpec,
    RngStream,
    cauchy_transform,
    contaminate,
    cumulative_skew,
    draw_sample,
    moment_skewness,
    sample_cauchy,
    sample_lognormal,
    sample_normal,
    sample_tukey_g,
    tukey_g_transform,
    validate_sample,
)
from cumskew import distributions
from cumskew.distributions import _BlockSampler, _pcg_states, _seed_words, _stream_states

M64 = (1 << 64) - 1
EDGE_BASES = (0, 1, 42, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, -1)
EDGE_IDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -9, 5406966257379951050)
EDGE_U64 = np.array([sid & M64 for sid in EDGE_IDS], dtype=np.uint64)
# seed words (seed high, seed low, initseq high, initseq low) whose 128-bit
# sums and products carry across the 64-bit halves: inc low + seed low
# wraps, initseq's top low bit moves into inc's high half, the state's
# final + inc wraps, and all-ones and zero halves
CARRY_WORDS = (
    (M64, M64, M64, M64),
    (0, 0, 0, 0),
    (0, M64, 0, 2**63),
    (2**63, 2**63 + 1, M64, 2**63 - 1),
    (1, M64 - 1, 2**32, M64),
    (M64, 1, 2**63, 2**63),
    (2**32 - 1, 2**64 - 2**32, 2**32 + 1, 2**63 + 2**32),
)


class PresetWords(ISeedSequence):
    """A seed sequence that hands PCG64 the given seed words as they are, so
    numpy's own PCG64(PresetWords(row)) seeds itself from any row of words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (4, np.uint64)
        return self.words.copy()


def seeded(base, sid):
    """numpy's own generator of the stream (base, sid)."""
    seq = np.random.SeedSequence([base & M64, sid & M64])
    return np.random.Generator(np.random.PCG64(seq))


def assert_states_are_seeded_states(words):
    """Each row of _pcg_states(words) is the state numpy's PCG64 seeds
    itself in from that row of seed words."""
    for row, (lo, hi, inc_lo, inc_hi) in zip(words, _pcg_states(words).tolist()):
        assert np.random.PCG64(PresetWords(row)).state["state"] == {
            "state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}


def state_writes(monkeypatch):
    """Two block samplers: one writes each stream's
    state into its generator's memory, the other sets it through the public
    setter, as where the probe of that memory fails."""
    memory = _BlockSampler(DistributionSpec.normal())
    with monkeypatch.context() as patch:
        patch.setattr(distributions, "_state_memory", lambda bit_generator: None)
        setter = _BlockSampler(DistributionSpec.normal())
    return memory, setter


class TestRngStream:
    def test_same_key_reproduces(self):
        a = RngStream(42, 7).random(1000)
        b = RngStream(42, 7).random(1000)
        assert np.array_equal(a, b)

    def test_streams_separate_quickly(self):
        a = RngStream(42, 7).random(10)
        b = RngStream(42, 8).random(10)
        assert not np.array_equal(a, b)

    def test_uniform_mean(self):
        u = RngStream(1, 0).random(100_000)
        assert abs(u.mean() - 0.5) < 0.005
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_negative_seeds_accepted(self):
        a = RngStream(-3, -9).random(5)
        b = RngStream(-3, -9).random(5)
        assert np.array_equal(a, b)

    def test_numpy_integer_keys_are_the_python_keys(self):
        a = RngStream(np.int64(-3), np.uint64(2**64 - 9))
        assert repr(a) == f"RngStream(base_seed=-3, stream_id={2**64 - 9})"
        assert np.array_equal(a.random(5), RngStream(-3, -9).random(5))


class TestBatchedSeeding:
    @pytest.mark.parametrize("base", EDGE_BASES)
    def test_seed_words_match_seed_sequence(self, base):
        words = _seed_words(base, EDGE_U64)
        assert words.shape == (len(EDGE_IDS), 4) and words.dtype == np.uint64
        for sid, row in zip(EDGE_IDS, words):
            ref = np.random.SeedSequence([base & M64, sid & M64]).generate_state(4, np.uint64)
            assert np.array_equal(row, ref)

    @pytest.mark.parametrize("base", EDGE_BASES)
    def test_vectorised_states_equal_seeded_states(self, base):
        assert_states_are_seeded_states(_seed_words(base, EDGE_U64))

    def test_vectorised_states_carry_across_halves(self):
        words = np.concatenate([
            np.array(CARRY_WORDS, dtype=np.uint64),
            np.random.default_rng(5).integers(0, 2**64, (500, 4), dtype=np.uint64)])
        assert_states_are_seeded_states(words)

    def test_probe_finds_the_state_memory(self, monkeypatch):
        # numpy's PCG64 keeps one layout on every build this package
        # supports; a failed probe would leave only the slow setter path
        memory, setter = state_writes(monkeypatch)
        assert memory._memory is not None
        assert setter._memory is None

    @pytest.mark.parametrize("state_write", ["memory", "setter"])
    def test_each_stream_starts_with_no_buffered_half_word(self, state_write, monkeypatch):
        if state_write == "setter":  # as where the probe of the memory fails
            monkeypatch.setattr(distributions, "_state_memory", lambda bit_generator: None)
        for base in EDGE_BASES:
            sampler = _BlockSampler(DistributionSpec.normal())
            gen = sampler.gen
            assert (sampler._memory is None) == (state_write == "setter")
            for sid, _ in zip(EDGE_IDS, sampler._seed_each(_stream_states(base, EDGE_U64))):
                assert gen.bit_generator.state == seeded(base, sid).bit_generator.state
                # as a contaminated row's outlier count does: draw a 32-bit
                # half-word, which buffers the other half for the next one
                gen.integers(0, 10)
                assert gen.bit_generator.state["has_uint32"] == 1

    @pytest.mark.parametrize("base", EDGE_BASES)
    def test_preset_stream_equals_seeded_stream(self, base, monkeypatch):
        for sampler in state_writes(monkeypatch):
            for sid, _ in zip(EDGE_IDS, sampler._seed_each(_stream_states(base, EDGE_U64))):
                single = seeded(base, sid)
                assert sampler.gen.bit_generator.state == single.bit_generator.state
                assert np.array_equal(sampler.gen.random(8), single.random(8))

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy imports numpy.random lazily; loading it on `import cumskew`
        # would add its import time to every CLI start-up
        code = "import sys, cumskew; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"


PUBLIC_NAMES = [
    "__version__",
    "Sample", "LorenzGrid", "SkewReport",
    "validate_sample", "lorenz_grid", "raw_lorenz_grid", "weight_vector",
    "cumulative_skew", "moment_skewness", "gini", "skew_report",
    "RngStream", "DistributionSpec", "ContaminationSpec",
    "sample_normal", "sample_lognormal", "sample_cauchy", "sample_tukey_g",
    "cauchy_transform", "tukey_g_transform", "contaminate", "draw_sample",
    "ContaminationPlan", "ConditionSpec", "ConditionResult", "GCurvePoint",
    "aggregate", "derive_stream_id", "run_condition", "table1_conditions",
    "run_table1", "run_null", "run_gcurve",
    "parse_csv",
    "CumskewError", "EmptyOrTooSmall", "NonFiniteValue", "ConstantSample",
    "CountTooLarge", "ColumnNotFound", "ParseError", "FloatRangeError",
    "NonNumericData", "NotOneDimensional", "InvalidParameter", "NonPositiveTotal",
]


class TestPackageSurface:
    def test_all_is_pinned_and_resolves(self):
        # __all__ is built from the modules' own lists; it must neither
        # grow nor lose a name unnoticed
        import cumskew

        assert len(cumskew.__all__) == len(set(cumskew.__all__))
        assert sorted(cumskew.__all__) == sorted(PUBLIC_NAMES)
        for name in cumskew.__all__:
            assert getattr(cumskew, name) is not None, name

    def test_cli_import_leaves_the_harness_unloaded(self):
        # compute and lorenz need neither the samplers nor the harness and
        # its process pool, so importing the CLI loads none of them
        code = ("import sys, cumskew.cli; print(sorted(m for m in ('cumskew.experiments', "
                "'cumskew.distributions', 'multiprocessing', 'concurrent.futures.process') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_star_import_and_lazy_names_resolve(self):
        code = ("from cumskew import *\n"
                "import cumskew\n"
                "names = [n for n in cumskew.__all__ if n not in globals()]\n"
                "assert not names, names\n"
                "assert cumskew.run_null is cumskew.experiments.run_null\n"
                "assert RngStream is cumskew.distributions.RngStream\n"
                "assert {'experiments', 'run_gcurve', 'skew_report'} <= set(dir(cumskew))\n"
                "try:\n"
                "    cumskew.no_such_name\n"
                "except AttributeError:\n"
                "    print('ok')\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "ok"


class TestNormal:
    def test_zero_sd_is_constant(self):
        s = sample_normal(RngStream(2, 0), 5.0, 0.0, 100)
        assert np.all(s.values == 5.0)

    def test_moments_large_sample(self):
        s = sample_normal(RngStream(2, 1), 0.0, 1.0, 1_000_000)
        assert abs(s.values.mean()) < 0.004
        assert 0.997 < s.values.std(ddof=1) < 1.003

    def test_symmetric_null_cs_small(self):
        s = sample_normal(RngStream(2, 2), 0.0, 1.0, 100_000)
        assert abs(cumulative_skew(s)) < 0.01


class TestLognormal:
    def test_tiny_shape_collapses_to_one(self):
        s = sample_lognormal(RngStream(3, 0), 1e-9, 1000)
        assert np.max(np.abs(s.values - 1.0)) < 1e-7

    def test_median_near_one(self):
        s = sample_lognormal(RngStream(3, 1), 0.5, 1_000_000)
        assert 0.99 < np.median(s.values) < 1.01

    def test_all_positive(self):
        s = sample_lognormal(RngStream(3, 2), 2.0, 100_000)
        assert np.min(s.values) > 0.0

    def test_b1_approaches_population_value_from_below(self):
        # population skewness at sigma=0.2 is (e^{s^2}+2)sqrt(e^{s^2}-1) ~ 0.614
        s = sample_lognormal(RngStream(3, 3), 0.2, 1_000_000)
        assert 0.55 < moment_skewness(s) < 0.65

    def test_shape_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_lognormal(RngStream(3, 4), 0.0, 10)


class TestCauchy:
    def test_transform_center(self):
        assert cauchy_transform(0.5) == 0.0

    def test_median_near_zero(self):
        s = sample_cauchy(RngStream(4, 0), 1_000_000)
        assert abs(np.median(s.values)) < 0.005

    def test_symmetric_null_mean_cs_small(self):
        # single-sample CS does not concentrate for Cauchy (the largest
        # observations dominate the cumulative sums at every n), so the
        # symmetric null shows up in the mean across samples instead
        values = [cumulative_skew(sample_cauchy(RngStream(4, 1 + k), 1000))
                  for k in range(400)]
        assert abs(float(np.mean(values))) < 0.07  # sd ~ 0.4 per sample


class TestTukeyG:
    def test_g_zero_matches_normal_sampler(self):
        a = sample_tukey_g(RngStream(5, 0), 0.0, 1.5, 2.0, 1000)
        b = sample_normal(RngStream(5, 0), 1.5, 2.0, 1000)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("g, sigma", [(-0.5, 1.0), (0.5, 0.0), (0.5, -1.0)])
    def test_rejects_negative_g_and_nonpositive_sd(self, g, sigma):
        with pytest.raises(ValueError):
            sample_tukey_g(RngStream(5, 1), g, 0.0, sigma, 10)

    def test_transform_fixes_zero(self):
        for g in (0.0, 0.3, 1.0, 1.5):
            assert tukey_g_transform(0.0, g) == 0.0

    def test_transform_hand_value(self):
        assert tukey_g_transform(1.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_transform_preserves_ranks(self):
        z = RngStream(5, 1).standard_normal(500)
        order = np.argsort(z)
        for g in (0.1, 0.7, 1.5):
            t = tukey_g_transform(z, g)
            assert np.array_equal(np.argsort(t), order)

    def test_transform_strictly_increasing(self):
        z = np.linspace(-4, 4, 100)
        for g in (0.2, 1.0):
            assert np.all(np.diff(tukey_g_transform(z, g)) > 0)


class TestContaminate:
    def lognormal(self, key, n=200):
        return sample_lognormal(RngStream(6, key), 1.0, n)

    def test_zero_count_is_identity(self):
        s = self.lognormal(0)
        out = contaminate(s, ContaminationSpec(0, "high"), RngStream(6, 100))
        assert np.array_equal(out.values, s.values)

    def test_high_side_single(self):
        s = self.lognormal(1)
        out = contaminate(s, ContaminationSpec(1, "high"), RngStream(6, 101))
        assert out.n == s.n
        assert np.max(out.values) > np.max(s.values)
        assert int(np.sum(out.values != s.values)) == 1

    def test_untouched_entries_survive(self):
        s = self.lognormal(2)
        out = contaminate(s, ContaminationSpec(5, "low"), RngStream(6, 102))
        assert int(np.sum(out.values == s.values)) == s.n - 5
        assert np.min(out.values) < 0

    def test_count_limit(self):
        s = self.lognormal(3, n=10)
        with pytest.raises(CountTooLarge):
            contaminate(s, ContaminationSpec(6, "high"), RngStream(6, 103))

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_count_limit_does_not_wrap_in_a_numpy_integer(self, action):
        # 2 * np.uint8(200) wraps to 144, below n = 300
        s = validate_sample(np.arange(1.0, 301))
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(CountTooLarge, match=r"^cannot replace 200 of 300 values"):
                contaminate(s, ContaminationSpec(np.uint8(200), "high"), RngStream(1, 2))

    def test_negative_sample_outliers_leave_its_range(self):
        s = validate_sample([-5, -3, -2, -1, -4, -6])
        high = contaminate(s, ContaminationSpec(2, "high"), RngStream(6, 104))
        low = contaminate(s, ContaminationSpec(2, "low"), RngStream(6, 104))
        changed = high.values != s.values
        assert changed.sum() == 2 and np.all(high.values[changed] > -1)
        assert np.all(low.values[changed] < -6)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ContaminationSpec(1, "sideways")
        with pytest.raises(ValueError):
            ContaminationSpec(-1, "high")
        with pytest.raises(ValueError):
            ContaminationSpec(1, "high", magnitude_range=(0.5, 2.0))
        with pytest.raises(ValueError):
            ContaminationSpec(1, "high", magnitude_range=(5.0, 2.0))

    def test_low_side_flips_moment_skewness(self):
        # five large negative outliers make b1 negative almost surely
        flipped = 0
        for trial in range(1000):
            s = sample_lognormal(RngStream(7, trial), 1.0, 200)
            out = contaminate(s, ContaminationSpec(5, "low"), RngStream(8, trial))
            flipped += moment_skewness(out) < 0
        assert flipped >= 950


class TestDistributionSpec:
    def test_constructors(self):
        assert DistributionSpec.normal(1, 2).kind == "normal"
        assert DistributionSpec.lognormal(0.5).sigma == 0.5
        assert DistributionSpec.cauchy().kind == "cauchy"
        assert DistributionSpec.tukey_g(0.3, 0.0, 3.0).g == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributionSpec(kind="beta")
        with pytest.raises(ValueError):
            DistributionSpec.normal(0.0, -1.0)
        with pytest.raises(ValueError):
            DistributionSpec.lognormal(-0.5)
        with pytest.raises(ValueError):
            DistributionSpec.tukey_g(-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda v: DistributionSpec.normal(v, 1.0),
        lambda v: DistributionSpec.normal(0.0, v),
        lambda v: DistributionSpec.lognormal(v),
        lambda v: DistributionSpec.tukey_g(v),
        lambda v: DistributionSpec.tukey_g(0.5, v),
        lambda v: DistributionSpec.tukey_g(0.5, 0.0, v),
        lambda v: DistributionSpec("cauchy", mu=v),
    ])
    def test_non_finite_parameters_rejected(self, make, bad):
        with pytest.raises(ValueError, match="must be finite"):
            make(bad)

    def test_determinism_of_samplers(self):
        for spec in (DistributionSpec.normal(0, 1), DistributionSpec.lognormal(1.0),
                     DistributionSpec.cauchy(), DistributionSpec.tukey_g(0.5)):
            a = draw_sample(spec, RngStream(9, 0), 64)
            b = draw_sample(spec, RngStream(9, 0), 64)
            assert np.array_equal(a.values, b.values)

    def test_validated_output(self):
        s = sample_cauchy(RngStream(9, 1), 1000)
        assert np.all(np.isfinite(s.values))
        assert validate_sample(s.values).n == 1000
