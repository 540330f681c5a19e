"""Adversarial chaos search with a runtime invariant auditor.

``repro.chaos`` sits at the very top of the engine layering — above
serving, resilience, remediation, *and* the campaign harness — because it
drives all of them as a black box:

* :mod:`repro.chaos.invariants` — the shared library of conservation and
  legality invariants (request conservation, expense-breakdown sums,
  billed >= executed, breaker state-machine legality, remediation
  apply/rollback pairing, span nesting, sim-time monotonicity);
* :mod:`repro.chaos.auditor` — :class:`InvariantAuditor`, checking those
  invariants *online* over the opt-in ``audit.*`` telemetry event family
  (zero events are published when no auditor is attached);
* :mod:`repro.chaos.composer` — :class:`StormSpec`, the bounded
  multi-phase storm genome (crash floor, poisoned start, gray window,
  correlated shocks) with seeded mutation and shrink operators;
* :mod:`repro.chaos.target` — the ``chaos-serving`` campaign target: one
  audited serving run per storm, replayable byte-identically;
* :mod:`repro.chaos.search` — the coverage-guided loop that finds,
  shrinks, and persists SLO-breaking storms;
* :mod:`repro.chaos.cli` — the ``propack-chaos`` entry point
  (``search`` / ``audit`` / ``replay``).

See ``docs/CHAOS.md``.
"""

from repro.chaos.auditor import AUDIT_KINDS, AuditReport, InvariantAuditor
from repro.chaos.composer import CORPUS, PARAM_BOUNDS, StormSpec, corpus
from repro.chaos.invariants import (
    EPS,
    LEGAL_BREAKER_EDGES,
    Violation,
    assert_fleet_invariants,
    assert_serving_invariants,
    burst_violations,
    check_admission_conservation,
    check_billed_vs_executed,
    check_breaker_transitions,
    check_expense_breakdown,
    check_monotonic_times,
    check_remediation_pairing,
    check_request_conservation,
    check_span_nesting,
    check_tenant_billing_attribution,
    check_tenant_conservation,
    fleet_violations,
    serving_violations,
)
from repro.chaos.search import (
    ChaosSearch,
    Evaluation,
    SearchConfig,
    SearchReport,
    coverage_features,
    damage_score,
    search_storms,
    violation_classes,
)
from repro.chaos.target import ChaosServingTarget

__all__ = [
    "AUDIT_KINDS",
    "AuditReport",
    "InvariantAuditor",
    "CORPUS",
    "PARAM_BOUNDS",
    "StormSpec",
    "corpus",
    "EPS",
    "LEGAL_BREAKER_EDGES",
    "Violation",
    "assert_fleet_invariants",
    "assert_serving_invariants",
    "burst_violations",
    "check_admission_conservation",
    "check_billed_vs_executed",
    "check_breaker_transitions",
    "check_expense_breakdown",
    "check_monotonic_times",
    "check_remediation_pairing",
    "check_request_conservation",
    "check_span_nesting",
    "check_tenant_billing_attribution",
    "check_tenant_conservation",
    "fleet_violations",
    "serving_violations",
    "ChaosSearch",
    "Evaluation",
    "SearchConfig",
    "SearchReport",
    "coverage_features",
    "damage_score",
    "search_storms",
    "violation_classes",
    "ChaosServingTarget",
]
