"""Correctness checks and the simulated-output fingerprint.

Both run outside the timed region, on every scenario run:

* bursts: the shared invariant library's expense-breakdown and
  billed-vs-executed checks on every record, plus function conservation
  (completed functions + ``lost_functions`` == ``C``);
* serving: :func:`repro.chaos.invariants.serving_violations` (request and
  admission conservation, expense-breakdown sum, remediation pairing).

The fingerprint hashes every ``RunResult`` field (every record, the
expense, the fault statistics) and every ``ServingResult.signature()``.
Passes over one workload replay the same inputs, so their fingerprints
must be equal; the traced run's must equal the untraced run's.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter

import numpy as np


def burst_violations(result, profile) -> list[str]:
    """Every invariant one burst breaks, as printable strings."""
    from repro.chaos.invariants import check_billed_vs_executed, check_expense_breakdown
    from repro.platform.billing import BillingModel

    found = list(check_expense_breakdown(result.expense, reported_total=result.expense.total_usd))
    billing = BillingModel(profile)
    completed = 0
    for record in result.records:
        if record.exec_start is None or record.exec_end is None:
            found.append(f"[execution] instance {record.instance_id} never executed")
            continue
        exec_s = record.exec_seconds
        found.extend(
            check_billed_vs_executed(billing.billed_seconds(exec_s), exec_s, time=record.exec_end)
        )
        if not (record.failed or record.timed_out or record.cancelled):
            completed += record.n_packed
    if completed + result.lost_functions != result.concurrency:
        found.append(
            f"[function-conservation] completed={completed} + "
            f"lost={result.lost_functions} != C={result.concurrency}"
        )
    return [str(v) for v in found]


def outcome_violations(outcome) -> list[str]:
    """Every invariant one scenario's bursts and serving runs break."""
    from repro.chaos.invariants import serving_violations

    found: list[str] = []
    for burst in outcome.bursts:
        found.extend(burst_violations(burst.result, burst.profile))
    for serving in outcome.servings:
        found.extend(str(v) for v in serving_violations(serving))
    return found


def _record_matrix(records):
    """Every field of every record as float64 bits (None → NaN, bools → 0/1).

    Times are float64 already and the integer fields stay far below 2**53,
    so the matrix is an exact image of the records.
    """
    if not records:
        return b""
    names = [f.name for f in dataclasses.fields(records[0])]
    return np.array(list(map(attrgetter(*names), records)), dtype=np.float64).tobytes()


def fingerprint_outcome(digest, outcome) -> None:
    """Fold one scenario's simulated outputs into ``digest`` (a hashlib object)."""
    for burst in outcome.bursts:
        r = burst.result
        # Dataclass reprs print floats round-trip exactly.
        head = (r.platform_name, r.app_name, r.concurrency, r.packing_degree,
                r.lost_functions, r.expense, r.fault_stats)
        digest.update(repr(head).encode())
        digest.update(_record_matrix(r.records))
    for serving in outcome.servings:
        digest.update(repr(serving.signature()).encode())
        if serving.remediation is not None:
            digest.update(repr(serving.remediation.signature()).encode())
