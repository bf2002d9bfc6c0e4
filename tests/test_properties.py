"""Property-based checks of the core invariants on exactly-representable data.

Integer-valued samples keep float rounding out of the way, so the algebraic
identities can be asserted at tight tolerances.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cumskew import cumulative_skew, validate_sample

samples = st.lists(st.integers(min_value=-10**6, max_value=10**6),
                   min_size=2, max_size=80)


def cs(values):
    return cumulative_skew(validate_sample([float(v) for v in values]))


@given(samples)
@settings(deadline=None)
def test_bounded_by_one_minus_two_over_n(xs):
    assert abs(cs(xs)) <= 1 - 2 / len(xs) + 1e-12


@given(samples)
@settings(deadline=None)
def test_reflection_antisymmetry(xs):
    assert math.isclose(cs([-v for v in xs]), -cs(xs), rel_tol=1e-9, abs_tol=1e-9)


@given(samples, st.randoms(use_true_random=False))
@settings(deadline=None)
def test_order_never_matters(xs, rnd):
    shuffled = list(xs)
    rnd.shuffle(shuffled)
    assert cs(shuffled) == cs(xs)


@given(samples, st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]),
       st.integers(min_value=-1000, max_value=1000))
@settings(deadline=None)
def test_affine_invariance_on_dyadic_maps(xs, a, b):
    # a*x + b is exact for dyadic a and moderate integers
    mapped = [a * v + b for v in xs]
    assert math.isclose(cs(mapped), cs(xs), rel_tol=1e-9, abs_tol=1e-9)


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=40),
       st.integers(min_value=-100, max_value=100), st.booleans())
@settings(deadline=None)
def test_mirrored_pairs_score_zero(deltas, mu, include_center):
    values = [mu + d for d in deltas] + [mu - d for d in deltas]
    if include_center:
        values.append(mu)
    assert abs(cs(values)) <= 1e-12


@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=2, max_size=80),
       st.integers(min_value=-996, max_value=996),
       st.sampled_from([-1, 1]), st.integers(min_value=0, max_value=15))
@settings(deadline=None)
def test_affine_invariance_across_the_float_range(xs, k, sign, j):
    # scales 2**k from 1e-300 to 1e300 and offsets b = +-10**j * max|x| up
    # to 1e15 * max|x|; with |x| <= 8 both are exact, (x + b) * 2**k,
    # since |x + b| stays below 2**53
    b = sign * 10 ** j * max(abs(v) for v in xs)
    mapped = [(v + b) * 2.0 ** k for v in xs]
    assume(all(math.isfinite(v) for v in mapped))
    assert math.isclose(cs(mapped), cs(xs), rel_tol=0.0, abs_tol=1e-12)
