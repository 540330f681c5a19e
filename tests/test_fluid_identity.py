"""Two-path identity: the fluid fast path against the event loop.

``BurstDispatchKernel.run`` replays every eligible burst in closed form
(:mod:`repro.engine.fluid`) and runs everything else on the event loop,
the reference semantics. The fast path may not change a single bit of any
result, so every test here runs the identical burst by default and with
the event loop forced (the ``event_loop_only`` fixture) and asserts full
equality — records, expense, fault stats — not approximate agreement.
``tests/test_property_fluid.py`` checks the same identity over generated
bursts.
"""

import pytest

from repro.chaos.auditor import InvariantAuditor
from repro.core.models import ExecutionTimeModel
from repro.extensions.streaming import StreamingPolicy
from repro.faults.retry import ExponentialBackoffRetry, HedgePolicy
from repro.faults.scenario import FaultScenario
from repro.platform.base import ServerlessPlatform
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS
from repro.serving import FixedTTL, PoissonProcess, ServingSimulator, WarmPool
from repro.telemetry import TelemetryConfig, TelemetrySession
from repro.workloads import SORT, VIDEO, XAPIAN

FAULTS = FaultScenario(
    name="modes",
    crash_rate=0.08,
    straggler_rate=0.05,
    throttle_capacity=128,
    throttle_refill_per_s=800.0,
)


def _burst(spec, provider=AWS_LAMBDA, seed=77):
    # repetition pinned so the RNG family is independent of call order
    platform = ServerlessPlatform(provider, seed=seed)
    return platform.run_burst(spec, repetition=0)


def _both_paths(event_loop_only, fluid_reasons, spec, provider=AWS_LAMBDA):
    """(default run, forced event-loop run, the default run's fluid verdict)."""
    with fluid_reasons() as reasons:
        default = _burst(spec, provider)
    with event_loop_only():
        reference = _burst(spec, provider)
    return default, reference, reasons


@pytest.mark.parametrize(
    "spec",
    [
        BurstSpec(app=SORT, concurrency=500),
        BurstSpec(app=VIDEO, concurrency=1000, packing_degree=8),
        BurstSpec(app=SORT, concurrency=2000, wave_size=300),
    ],
    ids=["plain", "packed", "waved"],
)
def test_clean_burst_fluid_equals_event_loop(spec, event_loop_only, fluid_reasons):
    """Fault-free bursts take the fluid path and must agree with the event
    loop on every field of the RunResult (dataclass equality is recursive
    through records, expense, and fault stats)."""
    fluid, reference, reasons = _both_paths(event_loop_only, fluid_reasons, spec)
    assert reasons == [None]
    assert fluid == reference


def test_faulted_burst_falls_back_to_event_loop(event_loop_only, fluid_reasons):
    """With faults the fluid path is ineligible: the default run falls back
    to the event loop and matches the forced run byte-for-byte."""
    spec = BurstSpec(
        app=SORT,
        concurrency=800,
        scenario=FAULTS,
        retry_policy=ExponentialBackoffRetry(base_s=0.05, max_retries=3),
    )
    default, reference, reasons = _both_paths(event_loop_only, fluid_reasons, spec)
    assert reasons == ["fault scenario active"]
    assert default.fault_stats.signature() == reference.fault_stats.signature()
    assert default == reference
    assert default.fault_stats.crashed_attempts > 0  # the scenario bit


def test_hedged_burst_falls_back_to_event_loop(event_loop_only, fluid_reasons):
    spec = BurstSpec(
        app=XAPIAN,
        concurrency=400,
        scenario=FaultScenario(name="strag", straggler_rate=0.2),
        hedge=HedgePolicy(trigger_factor=1.5),
    )
    default, reference, reasons = _both_paths(event_loop_only, fluid_reasons, spec)
    assert reasons == ["fault scenario active"]
    assert default == reference
    assert default.fault_stats.hedged_attempts > 0


def test_second_provider_fluid_equals_event_loop(event_loop_only, fluid_reasons):
    spec = BurstSpec(app=VIDEO, concurrency=600, packing_degree=4)
    fluid, reference, reasons = _both_paths(
        event_loop_only, fluid_reasons, spec, provider=GOOGLE_CLOUD_FUNCTIONS
    )
    assert reasons == [None]
    assert fluid == reference


# --------------------------------------------------------------------- #
# Chaos-audited serving run
# --------------------------------------------------------------------- #

_EXEC = ExecutionTimeModel(
    coeff_a=XAPIAN.base_seconds, coeff_b=0.03, mem_gb=XAPIAN.mem_gb
)


def test_serving_chaos_audited_run_is_clean():
    """An audited serving run sees events and violates no invariant."""
    session = TelemetrySession(TelemetryConfig(tracing=False, metrics=False, events=False))
    auditor = InvariantAuditor().attach(session.bus)
    sim = ServingSimulator(
        AWS_LAMBDA,
        XAPIAN,
        _EXEC,
        pool=WarmPool(FixedTTL(60.0)),
        seed=11,
        telemetry=session,
    )
    result = sim.run(
        PoissonProcess(6.0),
        StreamingPolicy(degree=6, batch_timeout_s=4.0),
        1800.0,
    )
    report = auditor.finalize(result)
    assert report.ok, report.summary()
    assert report.events_seen > 0
