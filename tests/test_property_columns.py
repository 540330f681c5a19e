"""Columnar ``RunResult``: round trip and per-record oracle.

A ``RunResult`` stores its records only as numpy columns
(:class:`repro.platform.metrics.RecordColumns`); ``records`` is a view
that rebuilds :class:`InstanceRecord` objects on access, and every metric
reduces over the columns. Over Hypothesis-generated bursts — clean,
waved, faulted, hedged, throttled and timed-out, all on the event loop so
the kernel's own records exist — this suite checks:

1. **Round trip** — the records read back through the columns equal the
   kernel's records field for field; ``None`` survives as ``None`` and
   ints and bools keep their types.
2. **Oracle** — every metric equals the per-record formula it replaced
   (copied below as the oracle), bit for bit; where the oracle raised or
   let a NaN out, the columns raise ``ValueError``.
3. **Billing** — the expense's compute line and the billed/wasted
   GB-seconds equal the per-record loops on the running interpreter.
"""

import contextlib
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.burst import BurstDispatchKernel
from repro.faults.retry import HedgePolicy
from repro.faults.scenario import FaultScenario
from repro.platform.base import ServerlessPlatform
from repro.platform.billing import BillingModel
from repro.platform.invoker import FunctionTimeoutError
from repro.platform.metrics import InstanceRecord, RecordColumns, RunResult
from repro.sim.stats import percentile
from tests.test_property_fluid import clean_specs, faulted_bursts, providers

FIELDS = [f.name for f in dataclasses.fields(InstanceRecord)]


# --------------------------------------------------------------------- #
# the oracle: RunResult's per-record formulas before the columnar rewrite
# --------------------------------------------------------------------- #
def _successful(records):
    return [r for r in records if not (r.failed or r.timed_out or r.cancelled)]


def _ends(records):
    ok = _successful(records)
    if not ok:
        raise ValueError("no instance completed successfully")
    return np.asarray([r.exec_end for r in ok], dtype=float)


def _n_failed(records):
    return sum(1 for r in records if r.failed or r.timed_out)


def _observed_failure_rate(records):
    executed = [r for r in records if r.exec_start is not None]
    if not executed:
        return 0.0
    return _n_failed(records) / len(executed)


def _service_time(records, merit):
    ends = _ends(records)
    if merit == "total":
        return float(ends.max())
    if merit == "tail":
        return percentile(ends, 0.95)
    return percentile(ends, 0.5)


def _breakdown(records):
    durations = [r.phase_durations() for r in records]
    return {
        "scheduling": float(np.mean([d["sched"] for d in durations])),
        "startup": float(np.mean([d["build"] for d in durations])),
        "shipping": float(np.mean([d["ship"] for d in durations])),
    }


def _component_totals(records):
    return {
        "scheduling": float(max(r.sched_done for r in records)),
        "startup": float(max(r.built_at for r in records)),
        "shipping": float(max(r.shipped_at for r in records)),
    }


ORACLE = {
    "n_instances": lambda rs: len(rs),
    "successful_records": _successful,
    "n_failed_attempts": _n_failed,
    "observed_failure_rate": _observed_failure_rate,
    "scaling_time": lambda rs: float(
        np.asarray([r.exec_start for r in rs], dtype=float).max()
    ),
    "service_time_total": lambda rs: _service_time(rs, "total"),
    "service_time_tail": lambda rs: _service_time(rs, "tail"),
    "service_time_median": lambda rs: _service_time(rs, "median"),
    "mean_exec_seconds": lambda rs: float(np.mean([r.exec_seconds for r in rs])),
    "function_hours": lambda rs: float(sum(r.exec_seconds for r in rs)) / 3600.0,
    "breakdown": _breakdown,
    "component_totals": _component_totals,
}

COLUMNAR = {
    "n_instances": lambda res: res.n_instances,
    "successful_records": lambda res: res.successful_records,
    "n_failed_attempts": lambda res: res.n_failed_attempts,
    "observed_failure_rate": lambda res: res.observed_failure_rate,
    "scaling_time": lambda res: res.scaling_time,
    "service_time_total": lambda res: res.service_time("total"),
    "service_time_tail": lambda res: res.service_time("tail"),
    "service_time_median": lambda res: res.service_time("median"),
    "mean_exec_seconds": lambda res: res.mean_exec_seconds,
    "function_hours": lambda res: res.function_hours,
    "breakdown": lambda res: res.breakdown(),
    "component_totals": lambda res: res.component_totals(),
}


def _bits(value):
    """A value with every float replaced by its IEEE-754 bit pattern."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


def _has_nan(value):
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, dict):
        return any(_has_nan(v) for v in value.values())
    return False


def _outcome(fn, arg):
    try:
        return fn(arg), None
    except (ValueError, KeyError, TypeError) as err:
        return None, err


# --------------------------------------------------------------------- #
# bursts: every record shape the event loop produces
# --------------------------------------------------------------------- #
@st.composite
def record_bursts(draw):
    """(profile, spec): clean, waved, faulted, hedged, throttled or
    timed-out bursts, small enough for the event loop."""
    kind = draw(
        st.sampled_from(["clean", "waved", "faulted", "hedged", "throttled", "timed_out"])
    )
    if kind == "faulted":
        return draw(faulted_bursts())
    profile = draw(providers())
    spec = draw(clean_specs(max_concurrency=600))
    if kind != "timed_out":
        # Degrees past P_max abort the whole burst on a billed timeout
        # (no RunResult); the timed_out kind covers the cap instead.
        top = spec.app.max_packing_degree(profile.max_memory_mb)
        spec = dataclasses.replace(
            spec, packing_degree=min(spec.packing_degree, top), provisioned_mb=None
        )
    if kind == "clean":
        return profile, spec
    if kind == "waved":
        return profile, dataclasses.replace(spec, wave_size=draw(st.integers(1, 50)))
    if kind == "hedged":
        # Stragglers trip the hedge trigger; the losers are cancelled.
        scenario = FaultScenario(
            name="hedged", straggler_rate=draw(st.floats(0.1, 0.5))
        )
        return profile, dataclasses.replace(
            spec,
            scenario=scenario,
            hedge=HedgePolicy(trigger_factor=draw(st.floats(1.05, 1.5))),
        )
    if kind == "throttled":
        scenario = FaultScenario(
            name="throttled",
            throttle_capacity=draw(st.integers(4, 32)),
            throttle_refill_per_s=draw(st.floats(20.0, 200.0)),
        )
        return profile, dataclasses.replace(spec, scenario=scenario)
    # timed_out: a cap near the modeled duration, so the noise and the
    # stragglers push some attempts past it; the scenario makes the kernel
    # bill and retry them instead of aborting the burst.
    cold = spec.n_instances if spec.wave_size is None else min(
        spec.n_instances, spec.wave_size
    )
    modeled = ServerlessPlatform(profile).interference_model().execution_seconds(
        spec.app, spec.packing_degree, cold
    )
    cap = modeled * draw(st.floats(0.9, 1.3))
    scenario = FaultScenario(
        name="timeouts",
        straggler_rate=draw(st.floats(0.0, 0.3)),
        retry_timeouts=draw(st.booleans()),
    )
    return (
        profile.with_overrides(max_execution_seconds=cap),
        dataclasses.replace(spec, scenario=scenario),
    )


@contextlib.contextmanager
def _captured_records():
    """Collects the kernel's own record list at every ``collect``."""
    captured = []
    real = BurstDispatchKernel.collect

    def spy(self, columns=None):
        captured.append(list(self._records))
        return real(self, columns)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BurstDispatchKernel, "collect", spy)
        yield captured


def _assert_same_record(view, original):
    for name in FIELDS:
        got, want = getattr(view, name), getattr(original, name)
        if want is None:
            assert got is None, name
        elif isinstance(want, (bool, np.bool_)):
            assert type(got) is bool and got == want, name
        elif isinstance(want, (int, np.integer)):
            assert type(got) is int and got == want, name
        else:
            assert type(got) is float and _bits(got) == _bits(float(want)), name


@given(burst=record_bursts(), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_columns_round_trip_and_match_per_record_oracle(burst, seed, event_loop_only):
    profile, spec = burst
    with event_loop_only(), _captured_records() as captured:
        try:
            result = ServerlessPlatform(profile, seed=seed).run_burst(spec, repetition=0)
        except FunctionTimeoutError:
            return  # aborted before any RunResult existed
    [originals] = captured

    # 1. round trip through the columns
    view = result.records
    assert len(view) == len(originals)
    for got, want in zip(view, originals):
        _assert_same_record(got, want)
    assert view == originals
    assert RecordColumns.from_records(originals) == result.columns

    # 2. every metric against its per-record formula
    for name, oracle in ORACLE.items():
        want, oracle_err = _outcome(oracle, originals)
        if oracle_err is not None or _has_nan(want):
            with pytest.raises(ValueError):
                COLUMNAR[name](result)
        else:
            assert _bits(COLUMNAR[name](result)) == _bits(want), name

    # 3. billing: compute line and GB-second totals
    billing = BillingModel(profile)
    assert _bits(result.expense.compute_usd) == _bits(
        float(sum(billing.instance_compute_usd(r) for r in originals))
    )
    total = wasted = 0.0
    for r in originals:
        if r.exec_start is None or r.exec_end is None:
            continue
        gbs = r.exec_seconds * billing.billed_memory_mb(r.provisioned_mb) / 1024.0
        total += gbs
        if r.failed or r.timed_out or r.cancelled:
            wasted += gbs
    assert _bits(result.fault_stats.total_billed_gb_seconds) == _bits(total)
    assert _bits(result.fault_stats.wasted_billed_gb_seconds) == _bits(wasted)


# --------------------------------------------------------------------- #
# synthetic records: every field, None in every optional slot
# --------------------------------------------------------------------- #
_times = st.none() | st.floats(-1e6, 1e6, allow_nan=False)
synthetic_records = st.builds(
    InstanceRecord,
    instance_id=st.integers(0, 2**31 - 1),
    n_packed=st.integers(1, 64),
    invoked_at=st.floats(-1e6, 1e6, allow_nan=False),
    sched_done=_times,
    built_at=_times,
    shipped_at=_times,
    exec_start=_times,
    exec_end=_times,
    provisioned_mb=st.integers(0, 10240),
    warm_start=st.booleans(),
    attempt=st.integers(1, 10),
    failed=st.booleans(),
    timed_out=st.booleans(),
    correlated=st.booleans(),
    persistent_fault=st.booleans(),
    hedged=st.booleans(),
    cancelled=st.booleans(),
    throttled_attempts=st.integers(0, 100),
    retry_delay_s=st.floats(0.0, 1e4),
)


@given(records=st.lists(synthetic_records, max_size=30))
@settings(max_examples=60, deadline=None)
def test_synthetic_records_round_trip(records):
    result = RunResult("p", "a", len(records), 1, records=records)
    assert len(result.records) == len(records)
    for got, want in zip(result.records, records):
        _assert_same_record(got, want)
    assert list(result.records) == records
    assert result.records[::-1] == records[::-1]
    assert result == RunResult("p", "a", len(records), 1, records=records)
