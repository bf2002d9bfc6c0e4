import math
import subprocess
import sys

import numpy as np
import pytest

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
from cumskew.distributions import _generator, _seed_stream, _seed_words

M64 = (1 << 64) - 1
EDGE_BASES = (0, 1, 42, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, -1)
EDGE_IDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -9, 5406966257379951050)


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


class TestBatchedSeeding:
    @pytest.mark.parametrize("base", EDGE_BASES)
    def test_seed_words_match_seed_sequence(self, base):
        words = _seed_words(base, EDGE_IDS)
        assert words.shape == (len(EDGE_IDS), 4) and words.dtype == np.uint64
        for sid, row in zip(EDGE_IDS, words):
            ref = np.random.SeedSequence([base & M64, sid & M64]).generate_state(4, np.uint64)
            assert np.array_equal(row, ref)

    @pytest.mark.parametrize("base", EDGE_BASES)
    def test_preset_stream_equals_seeded_stream(self, base):
        batched = _generator()
        for sid, row in zip(EDGE_IDS, _seed_words(base, EDGE_IDS).tolist()):
            _seed_stream(batched.bit_generator, row)
            single = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([base & M64, sid & M64])))
            assert batched.bit_generator.state == single.bit_generator.state
            assert np.array_equal(batched.random(8), single.random(8))

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
    "NonNumericData",
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
