"""BillingFidelity: exact unit tests for the billed-seconds schedule.

The defaults are the *exact* schedule, under which ``billed_seconds`` must
return its input byte-identically (no float round-trip) — that is the
guarantee that keeps every pre-fusion golden unchanged. The rounded
schedules reproduce provider metering: CPU throttling stretches the
duration, the minimum billed duration floors it, and the granularity
rounds the result *up*.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.billing import EXACT_BILLING, BillingFidelity, BillingModel
from repro.platform.metrics import InstanceRecord, RecordColumns
from repro.platform.providers import AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS
from repro.platform.storage import StorageUsage


# --------------------------------------------------------------------- #
# the exact schedule: byte identity
# --------------------------------------------------------------------- #
def test_defaults_are_exact():
    assert EXACT_BILLING.exact
    assert BillingFidelity().exact


def test_exact_schedule_returns_input_byte_identically():
    # Not approx: the exact path must not round-trip through any float
    # arithmetic, or pre-fusion goldens would drift in the last ulp.
    for value in (0.0, 1e-9, 0.1, 0.30000000000000004, 7.25, 863.0001, 1e6):
        assert EXACT_BILLING.billed_seconds(value) == value


def test_default_profiles_are_exact():
    fidelity = BillingFidelity.from_profile(AWS_LAMBDA)
    assert fidelity.exact
    assert fidelity == EXACT_BILLING


# --------------------------------------------------------------------- #
# granularity rounding: per-ms vs the legacy 100 ms schedule
# --------------------------------------------------------------------- #
def test_per_ms_vs_100ms_rounding():
    per_ms = BillingFidelity(granularity_s=0.001)
    coarse = BillingFidelity(granularity_s=0.1)
    assert per_ms.billed_seconds(0.2501) == pytest.approx(0.251)
    assert coarse.billed_seconds(0.2501) == pytest.approx(0.3)
    # 100 ms rounding overcharges strictly more on non-multiples.
    assert coarse.billed_seconds(0.2501) > per_ms.billed_seconds(0.2501)


def test_exact_multiple_pays_no_extra_tick():
    coarse = BillingFidelity(granularity_s=0.1)
    # 0.3 / 0.1 is 2.999...96 in floats; the epsilon keeps it at 3 ticks.
    assert coarse.billed_seconds(0.3) == pytest.approx(0.3)
    assert round(coarse.billed_seconds(0.3) / 0.1) == 3
    assert coarse.billed_seconds(0.2) == pytest.approx(0.2)


def test_rounding_is_always_up():
    coarse = BillingFidelity(granularity_s=0.1)
    assert coarse.billed_seconds(0.301) == pytest.approx(0.4)
    assert coarse.billed_seconds(0.001) == pytest.approx(0.1)
    assert coarse.billed_seconds(0.0) == pytest.approx(0.0)


# --------------------------------------------------------------------- #
# minimum billed duration boundaries
# --------------------------------------------------------------------- #
def test_min_duration_boundaries():
    fidelity = BillingFidelity(min_billed_s=0.1)
    assert fidelity.billed_seconds(0.0) == pytest.approx(0.1)
    assert fidelity.billed_seconds(0.05) == pytest.approx(0.1)
    assert fidelity.billed_seconds(0.1) == 0.1       # exactly at the floor
    assert fidelity.billed_seconds(0.1000001) == 0.1000001  # above: untouched


def test_min_duration_applies_before_rounding():
    fidelity = BillingFidelity(granularity_s=0.1, min_billed_s=0.25)
    # floor to 0.25, then round up to 0.3 — not round 0.05 then floor.
    assert fidelity.billed_seconds(0.05) == pytest.approx(0.3)


# --------------------------------------------------------------------- #
# CPU-throttle multiplier
# --------------------------------------------------------------------- #
def test_throttle_multiplier_stretches_billed_time():
    fidelity = BillingFidelity(throttle_multiplier=1.5)
    assert fidelity.billed_seconds(2.0) == pytest.approx(3.0)


def test_throttle_applies_before_floor_and_rounding():
    fidelity = BillingFidelity(
        granularity_s=0.1, min_billed_s=0.5, throttle_multiplier=2.0
    )
    # 0.2 -> ×2 = 0.4 -> floored to 0.5 -> already a multiple of 0.1.
    assert fidelity.billed_seconds(0.2) == pytest.approx(0.5)
    # 0.33 -> 0.66 -> above the floor -> rounds up to 0.7.
    assert fidelity.billed_seconds(0.33) == pytest.approx(0.7)


# --------------------------------------------------------------------- #
# legality and validation
# --------------------------------------------------------------------- #
def test_billed_never_less_than_executed():
    schedules = (
        EXACT_BILLING,
        BillingFidelity(granularity_s=0.1),
        BillingFidelity(min_billed_s=0.1),
        BillingFidelity(throttle_multiplier=1.7),
        BillingFidelity(granularity_s=0.001, min_billed_s=0.01,
                        throttle_multiplier=1.2),
    )
    samples = [i * 0.0137 for i in range(200)]
    for fidelity in schedules:
        for exec_s in samples:
            assert fidelity.billed_seconds(exec_s) >= exec_s - 1e-12


def test_billed_seconds_is_monotone():
    fidelity = BillingFidelity(granularity_s=0.1, min_billed_s=0.1,
                               throttle_multiplier=1.3)
    samples = [i * 0.0173 for i in range(100)]
    billed = [fidelity.billed_seconds(s) for s in samples]
    assert billed == sorted(billed)


def test_validation_rejects_bad_knobs():
    with pytest.raises(ValueError, match="granularity"):
        BillingFidelity(granularity_s=-0.1)
    with pytest.raises(ValueError, match="granularity"):
        BillingFidelity(granularity_s=math.inf)
    with pytest.raises(ValueError, match="minimum billed"):
        BillingFidelity(min_billed_s=-1.0)
    with pytest.raises(ValueError, match="throttle"):
        BillingFidelity(throttle_multiplier=0.5)
    with pytest.raises(ValueError, match="throttle"):
        BillingFidelity(throttle_multiplier=math.nan)
    with pytest.raises(ValueError, match="non-negative"):
        EXACT_BILLING.billed_seconds(-0.1)


# --------------------------------------------------------------------- #
# BillingModel integration
# --------------------------------------------------------------------- #
def test_profile_knobs_flow_into_the_billing_model():
    rounded = AWS_LAMBDA.with_overrides(
        billing_granularity_s=0.1, min_billed_duration_s=0.1
    )
    model = BillingModel(rounded)
    assert model.fidelity == BillingFidelity(granularity_s=0.1, min_billed_s=0.1)
    assert model.billed_seconds(0.123) == pytest.approx(0.2)


def test_default_model_bills_exactly():
    model = BillingModel(AWS_LAMBDA)
    for value in (0.0, 0.123456789, 42.000000001):
        assert model.billed_seconds(value) == value


def test_explicit_fidelity_overrides_the_profile():
    model = BillingModel(AWS_LAMBDA, fidelity=BillingFidelity(granularity_s=1.0))
    assert model.billed_seconds(0.2) == pytest.approx(1.0)


# --------------------------------------------------------------------- #
# the column schedule: element-for-element equal to the scalar one
# --------------------------------------------------------------------- #
def _bits(values):
    return [struct.pack("<d", v) for v in values]


fidelities = st.builds(
    BillingFidelity,
    granularity_s=st.sampled_from([0.0, 0.001, 0.1, 1.0]) | st.floats(1e-4, 5.0),
    min_billed_s=st.sampled_from([0.0, 0.1, 1.0, 60.0]) | st.floats(0.0, 100.0),
    throttle_multiplier=st.sampled_from([1.0, 1.5, 2.0]) | st.floats(1.0, 4.0),
)
#: Exact multiples of the 0.1 s tick and zero, plus arbitrary durations.
exec_seconds = st.lists(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 60.0, 0.30000000000000004])
    | st.floats(0.0, 1e5),
    max_size=50,
)


@given(fidelity=fidelities, seconds=exec_seconds)
@settings(max_examples=200, deadline=None)
def test_column_billed_seconds_equals_scalar_elementwise(fidelity, seconds):
    column = fidelity.billed_seconds_column(np.array(seconds, dtype=np.float64))
    scalar = [float(fidelity.billed_seconds(s)) for s in seconds]
    assert _bits(column.tolist()) == _bits(scalar)


def test_column_exact_multiples_pay_no_extra_tick():
    coarse = BillingFidelity(granularity_s=0.1)
    column = coarse.billed_seconds_column(np.array([0.0, 0.3, 0.2, 0.7]))
    assert _bits(column.tolist()) == _bits(
        [coarse.billed_seconds(s) for s in (0.0, 0.3, 0.2, 0.7)]
    )
    assert round(column[1] / 0.1) == 3


@pytest.mark.parametrize("bad", [-0.1, -1e-12, math.nan])
@pytest.mark.parametrize(
    "fidelity", [EXACT_BILLING, BillingFidelity(granularity_s=0.1, min_billed_s=1.0)]
)
def test_column_rejects_negative_and_nan_seconds(fidelity, bad):
    with pytest.raises(ValueError, match="non-negative"):
        fidelity.billed_seconds_column(np.array([1.0, bad]))


def _records(draw_seconds, memories):
    return [
        InstanceRecord(i, 1, exec_start=10.0, exec_end=10.0 + s, provisioned_mb=m)
        for i, (s, m) in enumerate(zip(draw_seconds, memories))
    ]


@given(
    fidelity=fidelities,
    seconds=exec_seconds,
    memories=st.lists(st.integers(1, 10240), min_size=50, max_size=50),
)
@settings(max_examples=100, deadline=None)
def test_burst_expense_over_columns_equals_per_record_sum(fidelity, seconds, memories):
    records = _records(seconds, memories)
    storage = StorageUsage(put_requests=3, get_requests=5, transferred_mb=12.5)
    for profile in (AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS):
        model = BillingModel(profile, fidelity=fidelity)
        expense = model.burst_expense(RecordColumns.from_records(records), storage)
        # The builtin sum over the same per-record charges, on this interpreter.
        expected = float(sum(model.instance_compute_usd(r) for r in records))
        assert _bits([expense.compute_usd]) == _bits([expected])
        assert expense == model.burst_expense(records, storage)


def test_burst_expense_rejects_unexecuted_records():
    model = BillingModel(AWS_LAMBDA)
    records = [InstanceRecord(0, 1, exec_start=0.0, exec_end=1.0, provisioned_mb=128),
               InstanceRecord(1, 1, provisioned_mb=128)]
    with pytest.raises(ValueError, match="instance 1"):
        model.burst_expense(RecordColumns.from_records(records), StorageUsage())
    records[1].exec_start, records[1].exec_end = 5.0, 4.0  # negative duration
    with pytest.raises(ValueError, match="non-negative"):
        model.burst_expense(RecordColumns.from_records(records), StorageUsage())
