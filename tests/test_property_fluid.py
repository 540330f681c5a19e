"""Differential suite: the fluid fast path against the event loop.

The event loop is the reference semantics; the fluid replay
(:mod:`repro.engine.fluid`) must reproduce it bit for bit on every burst
it accepts. Instead of a handful of hand-picked specs, Hypothesis draws
bursts over app × provider × C × packing degree × wave size × memory ×
build/ship/exec factors × input skew × billing fidelity, and:

1. **Clean bursts take the fast path and equal the reference** — the
   default run is replayed in closed form (``fluid_ineligibility`` is
   ``None``) and its ``RunResult`` (records, expense, fault stats) ``==``
   the forced event-loop run. A burst that aborts (billed timeout, or a
   fleet of 1-4 servers running out of slots) must abort identically on
   both paths, with the earlier abort in event order winning.
2. **Faulted and hedged bursts fall back** — ``fluid_ineligibility``
   names a reason and the default run equals the forced event-loop run.
3. **The invariant library holds on both paths** —
   :func:`repro.chaos.invariants.burst_violations` is clean on every run.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.invariants import burst_violations
from repro.faults.retry import ExponentialBackoffRetry, HedgePolicy
from repro.faults.scenario import FaultScenario
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec, FunctionTimeoutError
from repro.platform.providers import AWS_LAMBDA, AZURE_FUNCTIONS, GOOGLE_CLOUD_FUNCTIONS
from repro.workloads import ALL_APPS, XAPIAN

PROVIDERS = (AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS, AZURE_FUNCTIONS)


@st.composite
def providers(draw, small_fleets=False):
    """A provider, possibly with billing-fidelity overrides and, with
    ``small_fleets``, a fleet of 1-4 servers (16-64 instance slots) that
    a large cold wave exhausts."""
    profile = draw(st.sampled_from(PROVIDERS))
    optional = {
        "billing_granularity_s": st.sampled_from([0.001, 0.1, 1.0]),
        "min_billed_duration_s": st.sampled_from([0.1, 1.0, 60.0]),
        "cpu_throttle_multiplier": st.floats(1.0, 2.0),
    }
    if small_fleets:
        optional["fleet_servers"] = st.integers(1, 4)
    overrides = draw(st.fixed_dictionaries({}, optional=optional))
    return profile.with_overrides(**overrides) if overrides else profile


@st.composite
def clean_specs(draw, max_concurrency=3000):
    """Fault-free bursts: every knob the fluid replay must honour."""
    app = draw(st.sampled_from(sorted(ALL_APPS.values(), key=lambda a: a.name)))
    # Hypothesis favours small integers; the second branch keeps large
    # bursts (deep build queues, shared uplink) in every run.
    concurrency = draw(
        st.integers(1, max_concurrency) | st.integers(max_concurrency // 3, max_concurrency)
    )
    # A few degrees past P_max exercise memory pressure and billed timeouts.
    top = min(concurrency, app.max_packing_degree(AWS_LAMBDA.max_memory_mb) + 4)
    return BurstSpec(
        app=app,
        concurrency=concurrency,
        packing_degree=draw(st.integers(1, top)),
        provisioned_mb=draw(st.none() | st.integers(128, AWS_LAMBDA.max_memory_mb)),
        wave_size=draw(st.none() | st.integers(1, 500)),
        build_factor=draw(st.floats(0.1, 2.0)),
        ship_factor=draw(st.floats(0.1, 2.0)),
        exec_overhead=draw(st.floats(1.0, 1.5)),
        warm_dispatch_s=draw(st.floats(0.0, 0.5)),
        extra_io_mb_per_function=draw(st.sampled_from([0.0, 4.0])),
        skew_cv=draw(st.sampled_from([0.0, 0.0, 0.3, 1.0])),
    )


def _run(profile, spec, seed):
    """One burst's outcome: its RunResult, or how it aborted."""
    platform = ServerlessPlatform(profile, seed=seed)
    try:
        return platform.run_burst(spec, repetition=0)
    except FunctionTimeoutError as err:
        return ("timeout", str(err), err.record, err.billed_usd)
    except RuntimeError as err:  # the fleet ran out of instance slots
        return ("exhausted", str(err))


def _assert_clean(outcome, profile):
    if isinstance(outcome, tuple):
        return
    violations = burst_violations(outcome, profile)
    assert not violations, "\n".join(str(v) for v in violations)


@given(
    profile=providers(small_fleets=True), spec=clean_specs(), seed=st.integers(0, 2**16)
)
@settings(max_examples=40, deadline=None)
def test_clean_burst_takes_fluid_and_equals_event_loop(
    profile, spec, seed, event_loop_only, fluid_reasons
):
    with fluid_reasons() as reasons:
        fast = _run(profile, spec, seed)
    assert reasons == [None]
    with event_loop_only():
        reference = _run(profile, spec, seed)
    assert fast == reference
    _assert_clean(fast, profile)


@pytest.mark.parametrize(
    "slots, sched_search_s, cap_s, concurrency, seed, winner",
    [
        # The fleet fills at placement 100 (t = 1.0 s), before the first
        # execution start (t = 1.2 s) would run past the 1 s cap.
        (100, 1.6e-4, 1.0, 400, 0, "exhausted"),
        # Slow placements: the first start past the 40 s cap comes before
        # the fleet fills, and only because completions just before it
        # have freed slots. Alone, the small fleet would be exhausted.
        (16, 0.03, 40.0, 60, 368, "timeout"),
    ],
    ids=["exhaustion-first", "timeout-first"],
)
def test_timeout_and_fleet_exhaustion_abort_in_event_order(
    slots, sched_search_s, cap_s, concurrency, seed, winner, event_loop_only, fluid_reasons
):
    """A burst that both times out and exhausts its one-server fleet
    aborts with whichever comes first in event order, on both paths."""
    profile = AWS_LAMBDA.with_overrides(
        fleet_servers=1,
        server_cores=6 * slots,
        server_memory_mb=10240 * slots,
        sched_search_s=sched_search_s,
        max_execution_seconds=cap_s,
    )
    spec = BurstSpec(app=XAPIAN, concurrency=concurrency, skew_cv=1.0)
    with fluid_reasons() as reasons:
        fast = _run(profile, spec, seed)
    assert reasons == [None]
    with event_loop_only():
        reference = _run(profile, spec, seed)
    assert reference[0] == winner
    assert fast == reference


@st.composite
def faulted_bursts(draw):
    """(profile, spec) pairs the fluid path must refuse: faults, hedging,
    or a profile failure rate."""
    profile = draw(providers())
    base = draw(clean_specs(max_concurrency=600))
    kind = draw(st.sampled_from(["scenario", "hedge", "profile"]))
    if kind == "profile":
        return profile.with_overrides(failure_rate=draw(st.floats(0.01, 0.2))), base
    scenario = FaultScenario(
        name="differential",
        crash_rate=draw(st.floats(0.0, 0.3)),
        persistent_fraction=draw(st.sampled_from([0.0, 0.2])),
        correlated_bursts=draw(st.integers(0, 2)),
        correlated_fraction=0.2,
        straggler_rate=draw(st.floats(0.0, 0.2)),
        throttle_capacity=draw(st.none() | st.integers(16, 256)),
        throttle_refill_per_s=200.0,
    )
    if kind == "hedge":
        hedged_scenario = draw(st.none() | st.just(scenario))
        hedge = HedgePolicy(trigger_factor=1.5)
        return profile, replace(base, hedge=hedge, scenario=hedged_scenario)
    retry = draw(st.none() | st.just(ExponentialBackoffRetry(base_s=0.05)))
    return profile, replace(base, scenario=scenario, retry_policy=retry)


@given(burst=faulted_bursts(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_faulted_burst_falls_back_to_event_loop(
    burst, seed, event_loop_only, fluid_reasons
):
    profile, spec = burst
    with fluid_reasons() as reasons:
        default = _run(profile, spec, seed)
    assert len(reasons) == 1 and reasons[0] is not None
    with event_loop_only():
        reference = _run(profile, spec, seed)
    assert default == reference
    _assert_clean(default, profile)
