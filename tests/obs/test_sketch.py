"""Quantile sketch: relative-error bound, merges, serialization.

The sketch promises ``quantile(q)`` within ``alpha`` *relative* error of
``sorted(values)[floor(q * (n - 1))]`` — exactly the rank model
:class:`oracles.quantiles.ExactQuantiles` implements, so the property is
tested verbatim against the reference on generated inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.quantiles import ExactQuantiles
from repro.obs import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

QUANTILES = (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0)

positive_values = st.lists(
    st.floats(min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=400,
)


def assert_within_alpha(sketch, exact, q):
    estimate = sketch.quantile(q)
    truth = exact.quantile(q)
    if truth < sketch.min_value:
        assert estimate == 0.0
    else:
        assert abs(estimate - truth) <= sketch.alpha * truth + 1e-12, (
            f"q={q}: estimate {estimate} vs exact {truth}"
        )


@settings(max_examples=60, deadline=None)
@given(positive_values)
def test_quantiles_within_relative_error_of_exact_reference(values):
    sketch = QuantileSketch()
    exact = ExactQuantiles()
    for v in values:
        sketch.add(v)
        exact.add(v)
    for q in QUANTILES:
        assert_within_alpha(sketch, exact, q)


@settings(max_examples=30, deadline=None)
@given(positive_values, positive_values)
def test_merge_equals_single_sketch_over_union(left, right):
    merged = QuantileSketch()
    for v in left:
        merged.add(v)
    other = QuantileSketch()
    for v in right:
        other.add(v)
    merged.merge(other)

    union = QuantileSketch()
    exact = ExactQuantiles()
    for v in left + right:
        union.add(v)
        exact.add(v)
    # bucket-exact merge: identical counts, identical estimates
    assert merged._buckets == union._buckets
    assert merged.count == union.count == len(left) + len(right)
    assert merged.sum == pytest.approx(union.sum)
    for q in QUANTILES:
        assert merged.quantile(q) == union.quantile(q)
        assert_within_alpha(merged, exact, q)


@settings(max_examples=30, deadline=None)
@given(positive_values)
def test_add_array_matches_scalar_adds(values):
    looped = QuantileSketch()
    for v in values:
        looped.add(v)
    batched = QuantileSketch()
    batched.add_array(np.asarray(values))
    assert batched._buckets == looped._buckets
    assert batched.count == looped.count
    assert batched.zero_count == looped.zero_count
    assert batched.sum == pytest.approx(looped.sum)
    assert batched.min == looped.min
    assert batched.max == looped.max


def test_tighter_accuracy_shrinks_error():
    values = [float(v) for v in range(1, 2000)]
    loose = QuantileSketch(relative_accuracy=0.05)
    tight = QuantileSketch(relative_accuracy=0.001)
    exact = ExactQuantiles()
    for v in values:
        loose.add(v)
        tight.add(v)
        exact.add(v)
    for q in (0.5, 0.99):
        truth = exact.quantile(q)
        assert abs(tight.quantile(q) - truth) <= 0.001 * truth
        assert abs(tight.quantile(q) - truth) <= abs(loose.quantile(q) - truth) + 1e-9


def test_zero_and_subthreshold_values_collapse_into_zero_bucket():
    sketch = QuantileSketch()
    sketch.add(0.0)
    sketch.add(1e-12)
    sketch.add(100.0)
    assert sketch.zero_count == 2
    assert sketch.count == 3
    assert sketch.quantile(0.0) == 0.0
    assert sketch.quantile(1.0) == pytest.approx(100.0, rel=sketch.alpha)


def test_empty_sketch_is_inert():
    sketch = QuantileSketch()
    assert sketch.count == 0
    assert sketch.quantile(0.5) == 0.0
    assert sketch.min == 0.0 and sketch.max == 0.0 and sketch.mean == 0.0
    assert len(sketch) == 0


def test_rejects_bad_values_and_parameters():
    sketch = QuantileSketch()
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            sketch.add(bad)
    with pytest.raises(ValueError):
        sketch.add(1.0, count=0)
    with pytest.raises(ValueError):
        sketch.quantile(1.5)
    with pytest.raises(ValueError):
        QuantileSketch(relative_accuracy=0.0)
    with pytest.raises(ValueError):
        QuantileSketch(min_value=0.0)
    with pytest.raises(ValueError):
        sketch.add_array(np.asarray([1.0, -2.0]))


def test_merge_rejects_mismatched_parameters():
    a = QuantileSketch(relative_accuracy=0.01)
    b = QuantileSketch(relative_accuracy=0.02)
    with pytest.raises(ValueError):
        a.merge(b)


def test_serialization_roundtrip_is_exact():
    sketch = QuantileSketch()
    sketch.add_array(np.asarray([0.0, 3.5, 3.5, 700.0, 1e9]))
    clone = QuantileSketch.from_dict(sketch.to_dict())
    assert clone.to_dict() == sketch.to_dict()
    for q in QUANTILES:
        assert clone.quantile(q) == sketch.quantile(q)


def test_default_accuracy_is_one_percent():
    assert DEFAULT_RELATIVE_ACCURACY == 0.01
    assert QuantileSketch().alpha == 0.01
