"""Outlier-robust skewness from Lorenz-curve gaps.

The package provides the cumulative skew statistic (a bounded, affine-
invariant asymmetry measure), the classical moment skewness b1, a Gini
coefficient on the same grid, seedable samplers for the distributions
used in the simulation studies, and a deterministic Monte Carlo harness.
"""

__version__ = "0.1.0"

from .core import (
    LorenzGrid,
    Sample,
    SkewReport,
    WeightVector,
    cumulative_skew,
    gini,
    lorenz_grid,
    moment_skewness,
    raw_lorenz_grid,
    skew_report,
    validate_sample,
    weight_vector,
)
from .distributions import (
    ContaminationSpec,
    DistributionSpec,
    RngStream,
    cauchy_transform,
    contaminate,
    draw_sample,
    rng_stream,
    sample_cauchy,
    sample_lognormal,
    sample_normal,
    sample_tukey_g,
    tukey_g_transform,
)
from .errors import (
    ColumnNotFound,
    ConstantSample,
    CountTooLarge,
    CumskewError,
    EmptyOrTooSmall,
    FloatRangeError,
    NonFiniteValue,
    NonNumericData,
    ParseError,
)
from .experiments import (
    ConditionResult,
    ConditionSpec,
    ContaminationPlan,
    GCurvePoint,
    aggregate,
    derive_stream_id,
    run_condition,
    run_gcurve,
    run_null,
    run_table1,
    table1_conditions,
)
from .io import parse_csv

__all__ = [
    "__version__",
    # core
    "Sample", "LorenzGrid", "WeightVector", "SkewReport",
    "validate_sample", "lorenz_grid", "raw_lorenz_grid", "weight_vector",
    "cumulative_skew", "moment_skewness", "gini", "skew_report",
    # distributions
    "RngStream", "rng_stream", "DistributionSpec", "ContaminationSpec",
    "sample_normal", "sample_lognormal", "sample_cauchy", "sample_tukey_g",
    "cauchy_transform", "tukey_g_transform", "contaminate", "draw_sample",
    # experiments
    "ContaminationPlan", "ConditionSpec", "ConditionResult", "GCurvePoint",
    "aggregate", "derive_stream_id", "run_condition", "table1_conditions",
    "run_table1", "run_null", "run_gcurve",
    # io
    "parse_csv",
    # errors
    "CumskewError", "EmptyOrTooSmall", "NonFiniteValue", "ConstantSample",
    "CountTooLarge", "ColumnNotFound", "ParseError", "FloatRangeError",
    "NonNumericData",
]
