"""The invariant library: conservation and legality checks in one place.

Every identity that makes a serving result *trustworthy* used to live in
docstrings (``arrivals == admitted + shed`` in ``serving/service.py``) and
scattered test assertions. This module is now the single home: the test
suites call :func:`assert_serving_invariants`, the online
:class:`~repro.chaos.auditor.InvariantAuditor` calls the per-event
predicates, and the chaos search scores storms by what they break — so the
simulator and its auditors can never drift apart.

Catalog (see ``docs/CHAOS.md``):

=====================  ==================================================
invariant              statement
=====================  ==================================================
admission-conservation arrivals == admitted + shed (exact, integer)
request-conservation   arrivals == completed + shed + failed after drain
burst-conservation     completed + lost functions == C on a burst result
expense-breakdown      every component finite and >= 0; a reported total
                       equals the component sum
billing-legality       billed seconds >= executed seconds (providers
                       never bill less than the work they ran)
breaker-legality       per-domain transition chains use only legal edges
                       (closed->open, open->half-open, half-open->closed,
                       half-open->open) with continuous src/dst linkage
                       and non-decreasing times
remediation-pairing    every rollback undoes exactly one earlier apply
span-nesting           a child span lies inside its parent's interval;
                       every span closes with end >= start
sim-time-monotonic     audited event times never decrease
dispatch-lifecycle     every dispatch terminates exactly once, and only
                       after it was launched
tenant-conservation    per-tenant submitted == admitted + rejected, all
                       counters non-negative (exact, integer)
billing-attribution    per-tenant bills are finite and >= 0, and their
                       sum equals the fleet's reported expense total
=====================  ==================================================

All checks are pure functions returning :class:`Violation` lists — no
simulator imports, so the library is usable from tests, the auditor, and
offline analysis alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

#: Absolute slack for float comparisons (sim arithmetic is double-precision
#: exact per seed; the epsilon only forgives representation noise).
EPS = 1e-9

#: Legal circuit-breaker state transitions (src, dst).
LEGAL_BREAKER_EDGES = frozenset(
    {
        ("closed", "open"),
        ("open", "half-open"),
        ("half-open", "closed"),
        ("half-open", "open"),
    }
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, pinned to sim time."""

    invariant: str
    time: float
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant} @ t={self.time:g}] {self.message}"


# --------------------------------------------------------------------- #
# conservation
# --------------------------------------------------------------------- #
def check_admission_conservation(report: Any, time: float = 0.0) -> list[Violation]:
    """``arrivals == admitted + shed`` on a :class:`ResilienceReport`."""
    if report.arrivals == report.admitted + report.shed:
        return []
    return [
        Violation(
            "admission-conservation",
            time,
            f"arrivals={report.arrivals} != admitted={report.admitted} "
            f"+ shed={report.shed}",
        )
    ]


def check_request_conservation(result: Any, time: float = 0.0) -> list[Violation]:
    """``arrivals == completed + shed + failed`` on a drained ServingResult."""
    total = result.n_completed + result.n_shed + result.n_failed
    if result.n_requests == total:
        return []
    return [
        Violation(
            "request-conservation",
            time,
            f"n_requests={result.n_requests} != completed={result.n_completed} "
            f"+ shed={result.n_shed} + failed={result.n_failed}",
        )
    ]


# --------------------------------------------------------------------- #
# billing
# --------------------------------------------------------------------- #
def check_expense_breakdown(
    expense: Any,
    reported_total: Optional[float] = None,
    time: float = 0.0,
) -> list[Violation]:
    """Component sanity plus an optional cross-check of a reported total.

    The components must be finite and non-negative; when a separately
    *reported* total is supplied (a summary scalar, a ledger entry), it
    must equal the component sum — the planted-bug test feeds a total that
    silently dropped a line item.
    """
    out: list[Violation] = []
    components = {
        "compute_usd": expense.compute_usd,
        "requests_usd": expense.requests_usd,
        "storage_usd": expense.storage_usd,
        "egress_usd": expense.egress_usd,
        "keepalive_usd": expense.keepalive_usd,
    }
    for name, value in components.items():
        if not math.isfinite(value) or value < 0.0:
            out.append(
                Violation(
                    "expense-breakdown", time, f"{name}={value!r} is not a legal charge"
                )
            )
    component_sum = sum(components.values())
    if reported_total is not None and not math.isclose(
        reported_total, component_sum, rel_tol=EPS, abs_tol=EPS
    ):
        out.append(
            Violation(
                "expense-breakdown",
                time,
                f"reported total {reported_total!r} != component sum "
                f"{component_sum!r}",
            )
        )
    return out


def check_billed_vs_executed(
    billed_s: float, exec_s: float, time: float = 0.0
) -> list[Violation]:
    """``billed >= executed``: a provider never bills less than it ran."""
    if billed_s + EPS >= exec_s:
        return []
    return [
        Violation(
            "billing-legality",
            time,
            f"billed {billed_s:g}s < executed {exec_s:g}s",
        )
    ]


# --------------------------------------------------------------------- #
# state machines
# --------------------------------------------------------------------- #
def check_breaker_transitions(
    log: Iterable[tuple[float, int, str, str]],
) -> list[Violation]:
    """Legality of a :meth:`CircuitBreakerBank.transition_log`.

    Three properties per domain: every edge is in
    :data:`LEGAL_BREAKER_EDGES`; consecutive transitions chain (the next
    edge's source is the previous edge's destination, starting from
    ``closed``); times never decrease.
    """
    out: list[Violation] = []
    state: dict[int, str] = {}
    last_t: dict[int, float] = {}
    for t, domain, src, dst in log:
        if (src, dst) not in LEGAL_BREAKER_EDGES:
            out.append(
                Violation(
                    "breaker-legality", t, f"domain {domain}: illegal edge {src}->{dst}"
                )
            )
        expected = state.get(domain, "closed")
        if src != expected:
            out.append(
                Violation(
                    "breaker-legality",
                    t,
                    f"domain {domain}: transition from {src!r} but the "
                    f"domain was {expected!r}",
                )
            )
        if t < last_t.get(domain, 0.0):
            out.append(
                Violation(
                    "breaker-legality",
                    t,
                    f"domain {domain}: transition time went backwards "
                    f"({last_t[domain]:g} -> {t:g})",
                )
            )
        state[domain] = dst
        last_t[domain] = t
    return out


def check_remediation_pairing(report: Any) -> list[Violation]:
    """Every rollback must undo exactly one *earlier* application.

    ``report`` is a :class:`~repro.remediation.loop.RemediationReport`:
    ``applications`` holds ``(t, action_signature)`` and ``rollbacks``
    holds ``(t, inverse_signature, original_signature)``. A rollback whose
    original was never applied (or already rolled back) is a pairing
    violation; so is a rollback stamped before its application.
    """
    out: list[Violation] = []
    open_applies: list[tuple[float, tuple]] = []
    events: list[tuple[float, int, str, tuple]] = []
    for t, sig in report.applications:
        events.append((t, 0, "apply", tuple(sig)))
    for t, _inv, orig in report.rollbacks:
        events.append((t, 1, "rollback", tuple(orig)))
    for t, _order, stage, sig in sorted(events, key=lambda e: (e[0], e[1])):
        if stage == "apply":
            open_applies.append((t, sig))
            continue
        for i, (applied_t, applied_sig) in enumerate(open_applies):
            if applied_sig == sig and applied_t <= t:
                del open_applies[i]
                break
        else:
            out.append(
                Violation(
                    "remediation-pairing",
                    t,
                    f"rollback of {sig!r} has no matching earlier apply",
                )
            )
    return out


# --------------------------------------------------------------------- #
# telemetry structure
# --------------------------------------------------------------------- #
def check_span_nesting(tracer: Any) -> list[Violation]:
    """Structural legality of a :class:`~repro.telemetry.tracer.Tracer`.

    Every span must close with ``end >= start``; every child must name an
    existing parent and lie inside the parent's closed interval.
    """
    out: list[Violation] = []
    by_id = {s.span_id: s for s in tracer.spans}
    for span in tracer.spans:
        if span.end is not None and span.end + EPS < span.start:
            out.append(
                Violation(
                    "span-nesting",
                    span.start,
                    f"span #{span.span_id} {span.name!r} ends before it starts "
                    f"({span.start:g} -> {span.end:g})",
                )
            )
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            out.append(
                Violation(
                    "span-nesting",
                    span.start,
                    f"span #{span.span_id} {span.name!r} names missing parent "
                    f"#{span.parent_id}",
                )
            )
            continue
        if span.start + EPS < parent.start:
            out.append(
                Violation(
                    "span-nesting",
                    span.start,
                    f"child #{span.span_id} starts before parent "
                    f"#{parent.span_id} ({span.start:g} < {parent.start:g})",
                )
            )
        if (
            span.end is not None
            and parent.end is not None
            and span.end > parent.end + EPS
        ):
            out.append(
                Violation(
                    "span-nesting",
                    span.end,
                    f"child #{span.span_id} ends after parent "
                    f"#{parent.span_id} ({span.end:g} > {parent.end:g})",
                )
            )
    return out


def check_monotonic_times(times: Sequence[float]) -> list[Violation]:
    """Audited event times must never decrease."""
    out: list[Violation] = []
    for prev, cur in zip(times, times[1:]):
        if cur + EPS < prev:
            out.append(
                Violation(
                    "sim-time-monotonic",
                    cur,
                    f"event time went backwards ({prev:g} -> {cur:g})",
                )
            )
    return out


# --------------------------------------------------------------------- #
# the one entry point the test suites use
# --------------------------------------------------------------------- #
def serving_violations(
    result: Any,
    breakers: Any = None,
    tracer: Any = None,
) -> list[Violation]:
    """Every end-of-run invariant applicable to one ServingResult."""
    out: list[Violation] = []
    out.extend(check_admission_conservation(result.resilience))
    out.extend(check_request_conservation(result))
    out.extend(
        check_expense_breakdown(result.expense, reported_total=result.expense.total_usd)
    )
    if breakers is not None:
        out.extend(check_breaker_transitions(breakers.transition_log()))
    if result.remediation is not None:
        out.extend(check_remediation_pairing(result.remediation))
    if tracer is not None:
        out.extend(check_span_nesting(tracer))
    return out


def burst_violations(result: Any, profile: Any) -> list[Violation]:
    """Every end-of-run invariant applicable to one burst RunResult.

    ``profile`` is the platform profile the burst ran on: its billing
    fidelity turns each record's executed seconds into billed seconds (the
    billing model is the one arithmetic for that, so it is not re-derived
    here).
    """
    from repro.platform.billing import BillingFidelity

    fidelity = BillingFidelity.from_profile(profile)
    out: list[Violation] = []
    out.extend(
        check_expense_breakdown(result.expense, reported_total=result.expense.total_usd)
    )
    for record in result.records:
        if record.exec_start is None or record.exec_end is None:
            continue
        out.extend(
            check_billed_vs_executed(
                fidelity.billed_seconds(record.exec_seconds),
                record.exec_seconds,
                time=record.exec_end,
            )
        )
    completed = sum(r.n_packed for r in result.successful_records)
    if completed + result.lost_functions != result.concurrency:
        out.append(
            Violation(
                "burst-conservation",
                0.0,
                f"completed={completed} + lost={result.lost_functions} "
                f"!= C={result.concurrency}",
            )
        )
    return out


def assert_serving_invariants(
    result: Any,
    breakers: Any = None,
    tracer: Any = None,
) -> None:
    """Raise ``AssertionError`` listing every violated invariant.

    The conservation tests across the serving/resilience/remediation
    suites call this instead of re-deriving the identities inline, so the
    checked algebra is byte-for-byte the auditor's.
    """
    violations = serving_violations(result, breakers=breakers, tracer=tracer)
    assert not violations, "invariant violations:\n" + "\n".join(
        str(v) for v in violations
    )


# --------------------------------------------------------------------- #
# multi-tenant fleet fairness (SharedFleet / FusedFleet ledgers)
# --------------------------------------------------------------------- #
def check_tenant_conservation(
    accounts: Iterable[Any], time: float = 0.0
) -> list[Violation]:
    """Per tenant: ``submitted == admitted + rejected``, counters >= 0.

    Accepts any iterable of ledger entries with ``tenant``/``submitted``/
    ``admitted``/``rejected`` attributes (duck-typed — both
    :class:`repro.platform.multitenant.FleetAccount` ledgers and fused
    fleets qualify; no fleet imports here).
    """
    out: list[Violation] = []
    for account in accounts:
        counters = (account.submitted, account.admitted, account.rejected)
        if any(c < 0 for c in counters):
            out.append(
                Violation(
                    "tenant-conservation",
                    time,
                    f"tenant {account.tenant!r} has a negative counter "
                    f"(submitted={account.submitted}, "
                    f"admitted={account.admitted}, "
                    f"rejected={account.rejected})",
                )
            )
        if account.submitted != account.admitted + account.rejected:
            out.append(
                Violation(
                    "tenant-conservation",
                    time,
                    f"tenant {account.tenant!r}: submitted "
                    f"{account.submitted} != admitted {account.admitted} "
                    f"+ rejected {account.rejected}",
                )
            )
    return out


def check_tenant_billing_attribution(
    total_usd: float, bills: Iterable[Any], time: float = 0.0
) -> list[Violation]:
    """Per-tenant bills are finite, non-negative, and sum to the total.

    ``bills`` is any iterable with ``tenant``/``total_usd`` attributes
    (e.g. :class:`repro.fusion.scheduler.TenantBill`). The platform must
    never invent or lose dollars when splitting a shared instance's cost.
    """
    out: list[Violation] = []
    billed = 0.0
    for bill in bills:
        value = bill.total_usd
        if not math.isfinite(value) or value < -EPS:
            out.append(
                Violation(
                    "billing-attribution",
                    time,
                    f"tenant {bill.tenant!r} bill is {value!r}",
                )
            )
            continue
        billed += value
    tolerance = EPS * max(1.0, abs(total_usd))
    if not math.isfinite(total_usd) or abs(billed - total_usd) > tolerance:
        out.append(
            Violation(
                "billing-attribution",
                time,
                f"tenant bills sum to {billed!r} but the fleet reported "
                f"{total_usd!r}",
            )
        )
    return out


def fleet_violations(report: Any) -> list[Violation]:
    """Every end-of-run invariant applicable to one fused-fleet run.

    Duck-typed against :class:`repro.fusion.fleet.FleetRunReport`:
    ``accounts`` (tenant -> ledger), ``report.bills``, ``expense_usd``,
    and the inner run's expense breakdown.
    """
    out: list[Violation] = []
    out.extend(check_tenant_conservation(report.accounts.values()))
    out.extend(
        check_tenant_billing_attribution(report.expense_usd, report.report.bills)
    )
    out.extend(
        check_expense_breakdown(
            report.report.expense, reported_total=report.expense_usd
        )
    )
    return out


def assert_fleet_invariants(report: Any) -> None:
    """Raise ``AssertionError`` listing every violated fleet invariant."""
    violations = fleet_violations(report)
    assert not violations, "invariant violations:\n" + "\n".join(
        str(v) for v in violations
    )
