"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

import bench_setup

bench_setup.import_repro()

from bench_checks import burst_violations, fingerprint_outcome  # noqa: E402
from bench_layers import LAYERS, Profiler, Shims, Target, layer_metrics, targets  # noqa: E402
from bench_workloads import BurstRun, Outcome, Scenario, _consume  # noqa: E402
from run import REFERENCE_ROUND_S, PassResult, calibrated_pass_s, reference_work, run_pass  # noqa: E402


def _small_burst(**spec_kw):
    from repro import BurstSpec, ServerlessPlatform
    from repro.platform.providers import AWS_LAMBDA
    from repro.workloads import SORT

    platform = ServerlessPlatform(AWS_LAMBDA, seed=3)
    return _consume(platform.run_burst(BurstSpec(SORT, 400, **spec_kw), repetition=0), AWS_LAMBDA)


def _originals(target_list):
    return [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in target_list]


def test_shims_restore_every_attribute_when_the_body_raises():
    target_list = targets()
    before = _originals(target_list)
    with pytest.raises(RuntimeError, match="planted"):
        with Shims(Profiler(), target_list):
            assert all(vars(o)[a] is not orig for o, a, orig in before)
            raise RuntimeError("planted")
    assert all(vars(o)[a] is orig for o, a, orig in before)


def test_shims_restore_when_a_scenario_raises_inside_a_pass():
    target_list = targets()
    before = _originals(target_list)

    def boom(models):
        _small_burst()
        raise ValueError("scenario failure")

    result = run_pass([Scenario("boom", boom)], models=None, profiler=Profiler())
    assert result.attempted == 1 and result.failed == 1
    assert "scenario failure" in result.errors[0]
    assert all(vars(o)[a] is orig for o, a, orig in before)


def test_a_planted_invariant_violation_counts_as_failed():
    good = _small_burst()
    result = good.result
    # Drop one lost function from the books: conservation no longer holds.
    planted = BurstRun(
        result=dataclasses.replace(result, lost_functions=result.lost_functions + 1),
        profile=good.profile, service_s=good.service_s, scaling_s=good.scaling_s,
        breakdown=good.breakdown, expense_usd=good.expense_usd,
    )
    assert burst_violations(good.result, good.profile) == []
    assert any("function-conservation" in v for v in burst_violations(planted.result, planted.profile))

    scenarios = [
        Scenario("clean", lambda m: Outcome(bursts=[good])),
        Scenario("planted", lambda m: Outcome(bursts=[planted])),
    ]
    passed = run_pass(scenarios, models=None)
    assert (passed.attempted, passed.failed) == (2, 1)


def test_billing_below_execution_is_a_violation(monkeypatch):
    from repro.platform.billing import BillingModel

    good = _small_burst()
    monkeypatch.setattr(BillingModel, "billed_seconds", lambda self, s: s / 2)
    assert any("billing-legality" in v for v in burst_violations(good.result, good.profile))


def test_self_time_never_exceeds_busy_time():
    from repro import FaultScenario

    prof = Profiler()
    scenarios = [
        Scenario("faulted", lambda m: Outcome(bursts=[
            _small_burst(scenario=FaultScenario(name="t", crash_rate=0.1, straggler_rate=0.1))
        ])),
        Scenario("clean", lambda m: Outcome(bursts=[_small_burst()])),
    ]
    run_pass(scenarios, models=None, profiler=prof)
    assert prof.stats["platform.run_burst"].calls == 2
    for name in LAYERS:
        stats = prof.stats[name]
        assert 0.0 <= stats.self_s <= stats.busy_s + 1e-9, name
    # Nested same-layer spans count once toward busy time.
    nested = Profiler()
    outer = nested.enter("core.plan", "outer")
    inner = nested.enter("core.plan", "inner")
    nested.exit(inner)
    nested.exit(outer)
    stats = nested.stats["core.plan"]
    assert stats.calls == 2 and stats.self_s <= stats.busy_s + 1e-12


def test_tracing_does_not_change_the_fingerprint_and_records_provenance():
    from repro import FaultScenario

    scenarios = [
        Scenario("clean", lambda m: Outcome(bursts=[_small_burst()])),
        Scenario("faulted", lambda m: Outcome(bursts=[
            _small_burst(scenario=FaultScenario(name="t", crash_rate=0.1))
        ])),
    ]
    plain = run_pass(scenarios, models=None)
    prof = Profiler()
    traced = run_pass(scenarios, models=None, profiler=prof)
    assert plain.failed == traced.failed == 0
    assert plain.fingerprint == traced.fingerprint
    assert prof.provenance == [
        ("clean", "fluid", None),
        ("faulted", "eventloop", "fault scenario active"),
    ]
    metrics = layer_metrics(prof, traced.outcome)
    assert metrics["engine.fluid.fluid_ratio"] == 0.5
    assert metrics["platform.bursts"] == 2


def test_fingerprint_sees_a_single_changed_record_field():
    burst = _small_burst()
    a, b = hashlib.sha256(), hashlib.sha256()
    fingerprint_outcome(a, Outcome(bursts=[burst]))
    burst.result.records[-1].exec_end += 1e-9
    fingerprint_outcome(b, Outcome(bursts=[burst]))
    assert a.hexdigest() != b.hexdigest()


def test_shim_counts_calls_and_keeps_the_wrapped_result():
    class Layer:
        def work(self, x):
            return x * 2

    prof = Profiler()
    with Shims(prof, [Target(Layer, "work", "core.plan")]):
        assert Layer().work(21) == 42
    assert prof.stats["core.plan"].calls == 1
    assert vars(Layer)["work"].__name__ == "work"


def test_calibration_scales_each_scenario_by_its_own_flanking_probes():
    fast_host = PassResult(scenario_wall_s={"a": 1.0, "b": 2.0}, reference_s={"a": 0.02, "b": 0.02})
    slow_host = PassResult(scenario_wall_s={"a": 2.0, "b": 4.0}, reference_s={"a": 0.04, "b": 0.04})
    # The same work reads the same on a host half as fast.
    assert calibrated_pass_s([fast_host]) == pytest.approx(calibrated_pass_s([slow_host]))
    assert calibrated_pass_s([fast_host]) == pytest.approx(3.0 * REFERENCE_ROUND_S / 0.02)
    # Over several passes, sums of walls over sums of probes, per scenario.
    both = calibrated_pass_s([fast_host, slow_host])
    assert both == pytest.approx((3.0 / 0.06 + 6.0 / 0.06) * REFERENCE_ROUND_S)


def test_reference_probe_leaves_the_collector_as_it_found_it():
    import gc

    assert gc.isenabled()
    assert reference_work(1) > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        reference_work(1)
        assert not gc.isenabled()
    finally:
        gc.enable()
