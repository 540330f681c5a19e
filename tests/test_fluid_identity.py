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

from functools import partial

import numpy as np
import pytest

from repro.chaos.auditor import InvariantAuditor
from repro.core.models import ExecutionTimeModel
from repro.extensions.streaming import StreamingPolicy
from repro.faults.retry import ExponentialBackoffRetry, HedgePolicy
from repro.faults.scenario import FaultScenario
from repro.platform import base
from repro.platform.base import ServerlessPlatform
from repro.platform.container import ContainerPipeline
from repro.platform.invoker import BurstSpec
from repro.platform.providers import AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS
from repro.serving import FixedTTL, PoissonProcess, ServingSimulator, WarmPool
from repro.telemetry import TelemetryConfig, TelemetrySession
from repro.workloads import SMITH_WATERMAN, SORT, VIDEO, XAPIAN
from tests.test_property_fluid import _run

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
# The batched frontier replay: tie and abort orders
# --------------------------------------------------------------------- #

def _both_outcomes(event_loop_only, fluid_reasons, profile, spec, seed):
    """(default run, forced event-loop run): each a RunResult or its abort."""
    with fluid_reasons() as reasons:
        fast = _run(profile, spec, seed)
    assert reasons == [None]
    with event_loop_only():
        reference = _run(profile, spec, seed)
    return fast, reference


def test_zero_dispatch_warm_start_inside_the_horizon(event_loop_only, fluid_reasons):
    """With ``warm_dispatch_s=0`` a completion's warm start can precede
    the next start the batch knows of, so the safe horizon must also be
    bounded by the earliest pending completion (+ the dispatch delay)."""
    spec = BurstSpec(
        app=SMITH_WATERMAN,
        concurrency=6,
        packing_degree=1,
        wave_size=2,
        warm_dispatch_s=0.0,
        skew_cv=0.3,
    )
    fast, reference = _both_outcomes(event_loop_only, fluid_reasons, AWS_LAMBDA, spec, 0)
    assert fast == reference


@pytest.mark.parametrize(
    "exec_noise_sigma, warm_dispatch_s",
    [(0.0, 0.0), (0.0, 0.05), (None, 0.0)],
    ids=["noiseless", "noiseless-dispatch", "exec-noise"],
)
def test_exactly_tied_starts_and_completions_keep_event_order(
    exec_noise_sigma, warm_dispatch_s, event_loop_only, fluid_reasons, monkeypatch
):
    """Noise-free builds: containers built together ship, and so start,
    at the same instant. Without execution noise their completions and
    the warm starts those spawn tie exactly too; with it, the tied starts
    draw different noise, so their rank order shows in the records."""
    monkeypatch.setattr(
        base, "ContainerPipeline", partial(ContainerPipeline, build_noise_sigma=0.0)
    )
    profile = AWS_LAMBDA
    if exec_noise_sigma is not None:
        profile = profile.with_overrides(exec_noise_sigma=exec_noise_sigma)
    spec = BurstSpec(
        app=SORT, concurrency=2000, wave_size=300, warm_dispatch_s=warm_dispatch_s
    )
    fast, reference = _both_outcomes(event_loop_only, fluid_reasons, profile, spec, 3)
    starts, ends = reference.columns.exec_start, reference.columns.exec_end
    assert len(starts) - len(np.unique(starts)) > 100
    assert (len(ends) - len(np.unique(ends)) > 1000) == (exec_noise_sigma == 0.0)
    assert fast == reference


def test_warm_generation_timeout_aborts_identically(event_loop_only, fluid_reasons):
    """Every cold execution fits under the cap; a warm generation with a
    heavy skew draw does not. The abort (message, record, bill) matches."""
    profile = AWS_LAMBDA.with_overrides(max_execution_seconds=81.0)
    spec = BurstSpec(
        app=XAPIAN, concurrency=240, packing_degree=2, wave_size=20, skew_cv=1.0
    )
    fast, reference = _both_outcomes(event_loop_only, fluid_reasons, profile, spec, 0)
    assert reference[0] == "timeout" and reference[2].warm_start
    assert fast == reference


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
