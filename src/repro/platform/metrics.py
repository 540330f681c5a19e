"""Per-instance run records and burst-level results.

Timing definitions (all relative to the burst invocation instant ``t=0``):

* *scaling time* — start of the last instance's execution, i.e. the gap
  between the first and last instance starts **plus** the provisioning delay
  of the first instance (paper Sec. 1).
* *total service time* — completion of the last instance.
* *tail / median service time* — completion of the first 95% / 50% of
  instances (paper Sec. 3, "Evaluation Metrics").

Expense covers execution GB-seconds, per-request fees, storage operations,
and (on providers that charge it) networking egress — queueing/scaling delay
is never billed (paper Sec. 2.3).

A :class:`RunResult` stores its records column-wise (:class:`RecordColumns`);
``RunResult.records`` is a read-only view that builds fresh
:class:`InstanceRecord` objects on access (see ``docs/PERFORMANCE.md``,
"Columnar results").
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Union

import numpy as np

from repro.sim.stats import percentile


@dataclass(slots=True)
class InstanceRecord:
    """Lifecycle timestamps of one function instance within a burst."""

    instance_id: int
    n_packed: int
    invoked_at: float = 0.0
    sched_done: Optional[float] = None
    built_at: Optional[float] = None
    shipped_at: Optional[float] = None
    exec_start: Optional[float] = None
    exec_end: Optional[float] = None
    provisioned_mb: int = 0
    warm_start: bool = False
    attempt: int = 1
    failed: bool = False  # crashed mid-execution (billed, then retried)
    timed_out: bool = False      # hit the execution cap (billed in full)
    correlated: bool = False     # killed by a correlated crash event
    persistent_fault: bool = False  # its function group is poisoned
    hedged: bool = False         # speculative duplicate of a straggler
    cancelled: bool = False      # abandoned (lost a hedge race); billed
                                 # for elapsed time only
    throttled_attempts: int = 0  # 429 rejections before this admission
    retry_delay_s: float = 0.0   # backoff that preceded this attempt

    @property
    def exec_seconds(self) -> float:
        if self.exec_start is None or self.exec_end is None:
            raise ValueError(f"instance {self.instance_id} never executed")
        return self.exec_end - self.exec_start

    @property
    def scheduling_delay(self) -> float:
        assert self.sched_done is not None
        return self.sched_done - self.invoked_at

    @property
    def startup_delay(self) -> float:
        """Build completion relative to invocation (builds start at invoke)."""
        assert self.built_at is not None
        return self.built_at - self.invoked_at

    @property
    def shipping_delay(self) -> float:
        """Transfer time from ship-ready (built AND placed) to arrival."""
        assert (
            self.shipped_at is not None
            and self.built_at is not None
            and self.sched_done is not None
        )
        return self.shipped_at - max(self.built_at, self.sched_done)

    def phase_durations(self) -> dict[str, float]:
        """Per-phase time breakdown, honouring the module's timing rules.

        Returns only the phases this record has completed, keyed
        ``sched`` / ``build`` / ``ship`` / ``exec``:

        * ``sched`` — placement search, ``sched_done - invoked_at``;
        * ``build`` — container build relative to invocation (builds start
          at invoke and run in parallel with placement),
          ``built_at - invoked_at``;
        * ``ship`` — transfer from ship-ready (built AND placed) to
          arrival, ``shipped_at - max(built_at, sched_done)``;
        * ``exec`` — ``exec_end - exec_start``.

        Warm starts report zero ``sched``/``ship`` (their timestamps
        coincide by construction). This definition backs the telemetry
        tracer's phase histograms; :meth:`RunResult.breakdown` applies the
        same formulas column-wise (``tests/test_property_columns.py`` pins
        the two equal).
        """
        phases: dict[str, float] = {}
        if self.sched_done is not None:
            phases["sched"] = self.sched_done - self.invoked_at
        if self.built_at is not None:
            phases["build"] = self.built_at - self.invoked_at
        if (
            self.shipped_at is not None
            and self.built_at is not None
            and self.sched_done is not None
        ):
            phases["ship"] = self.shipped_at - max(self.built_at, self.sched_done)
        if self.exec_start is not None and self.exec_end is not None:
            phases["exec"] = self.exec_end - self.exec_start
        return phases


@dataclass(frozen=True)
class ExpenseBreakdown:
    """Dollar expense of a burst or serving run, by billing line item.

    ``keepalive_usd`` is the provisioned-concurrency-style charge for
    warm-idle instance time (see :mod:`repro.serving.warmpool`); it is zero
    for one-shot bursts and for serving runs without a keep-alive policy —
    pure cold starts never bill it.
    """

    compute_usd: float
    requests_usd: float
    storage_usd: float
    egress_usd: float
    keepalive_usd: float = 0.0

    @property
    def total_usd(self) -> float:
        return (
            self.compute_usd
            + self.requests_usd
            + self.storage_usd
            + self.egress_usd
            + self.keepalive_usd
        )

    def __add__(self, other: "ExpenseBreakdown") -> "ExpenseBreakdown":
        return ExpenseBreakdown(
            self.compute_usd + other.compute_usd,
            self.requests_usd + other.requests_usd,
            self.storage_usd + other.storage_usd,
            self.egress_usd + other.egress_usd,
            self.keepalive_usd + other.keepalive_usd,
        )


ZERO_EXPENSE = ExpenseBreakdown(0.0, 0.0, 0.0, 0.0)


@dataclass
class FaultStats:
    """Per-phase reliability accounting for one burst.

    ``wasted_billed_gb_seconds`` is the GB-seconds billed for attempts that
    produced no result (crashes, timeouts, cancelled hedge losers) — the
    dollar-denominated blast radius of packing under failures.
    """

    crashed_attempts: int = 0
    correlated_crashes: int = 0
    timed_out_attempts: int = 0
    throttled_attempts: int = 0
    throttle_rejections_final: int = 0  # groups dropped after 429 retries
    hedged_attempts: int = 0
    hedge_wins: int = 0
    retries_scheduled: int = 0
    retry_delay_s_total: float = 0.0
    wasted_billed_gb_seconds: float = 0.0
    total_billed_gb_seconds: float = 0.0

    @property
    def work_loss_ratio(self) -> float:
        """Fraction of billed GB-seconds that produced no result."""
        if self.total_billed_gb_seconds <= 0.0:
            return 0.0
        return self.wasted_billed_gb_seconds / self.total_billed_gb_seconds

    @property
    def failed_attempts(self) -> int:
        return self.crashed_attempts + self.timed_out_attempts

    def signature(self) -> tuple:
        """A hashable summary used by the determinism tests."""
        return (
            self.crashed_attempts,
            self.correlated_crashes,
            self.timed_out_attempts,
            self.throttled_attempts,
            self.hedged_attempts,
            self.hedge_wins,
            self.retries_scheduled,
            round(self.retry_delay_s_total, 9),
            round(self.wasted_billed_gb_seconds, 9),
        )


#: The column dtype of every :class:`InstanceRecord` field, in field order.
#: Times are float64; ints and flags are narrow dtypes.
_COLUMN_DTYPES: dict[str, type] = {
    "instance_id": np.int32,
    "n_packed": np.int32,
    "invoked_at": np.float64,
    "sched_done": np.float64,
    "built_at": np.float64,
    "shipped_at": np.float64,
    "exec_start": np.float64,
    "exec_end": np.float64,
    "provisioned_mb": np.int32,
    "warm_start": np.bool_,
    "attempt": np.int32,
    "failed": np.bool_,
    "timed_out": np.bool_,
    "correlated": np.bool_,
    "persistent_fault": np.bool_,
    "hedged": np.bool_,
    "cancelled": np.bool_,
    "throttled_attempts": np.int32,
    "retry_delay_s": np.float64,
}
_FIELD_NAMES = tuple(f.name for f in fields(InstanceRecord))
#: Optional timestamps: NaN in the column stands for ``None`` on a record.
_OPTIONAL_TIMES = frozenset(
    {"sched_done", "built_at", "shipped_at", "exec_start", "exec_end"}
)
_TIME_COLUMNS = ("invoked_at",) + tuple(
    name for name in _FIELD_NAMES if name in _OPTIONAL_TIMES
)
_DEFAULTS = {f.name: f.default for f in fields(InstanceRecord)}
#: Records built per step while iterating a :class:`RecordView`.
_VIEW_CHUNK = 4096


class RecordColumns:
    """Every :class:`InstanceRecord` field of one burst as a numpy column.

    Row ``i`` of every column is record ``i`` (creation order). Times are
    float64 with NaN standing for ``None``; counts are int32 and flags
    bool. The arrays are read-only, so a :class:`RunResult` and the views
    over it can share them safely.

    The constructor takes one keyword per field; ``instance_id`` and
    ``n_packed`` are required and any other missing field is filled with
    the :class:`InstanceRecord` default.
    """

    __slots__ = _FIELD_NAMES

    def __init__(self, **columns) -> None:
        if "instance_id" not in columns:
            raise TypeError("RecordColumns needs an instance_id column")
        n = len(columns["instance_id"])
        for name in _FIELD_NAMES:
            dtype = _COLUMN_DTYPES[name]
            if name in columns:
                col = np.array(columns.pop(name), dtype=dtype)
                if col.shape != (n,):
                    raise ValueError(
                        f"column {name!r} has shape {col.shape}, expected ({n},)"
                    )
            elif _DEFAULTS[name] is not MISSING:
                # A zero-stride broadcast: a defaulted column costs no memory.
                col = np.broadcast_to(np.array(_DEFAULTS[name], dtype=dtype), (n,))
            else:
                raise TypeError(f"RecordColumns needs a {name} column")
            col.flags.writeable = False
            setattr(self, name, col)
        if columns:
            raise TypeError(f"unknown record columns: {sorted(columns)}")

    @classmethod
    def from_records(
        cls, records: Union["RecordColumns", "RecordView", Iterable[InstanceRecord]]
    ) -> "RecordColumns":
        """Convert records once; columns and views pass through uncopied."""
        if isinstance(records, RecordColumns):
            return records
        if isinstance(records, RecordView):
            return records.columns
        if not isinstance(records, (list, tuple)):
            records = list(records)
        columns: dict[str, object] = {}
        for name in _FIELD_NAMES:
            values = map(operator.attrgetter(name), records)
            if name in _OPTIONAL_TIMES:  # np.array maps None to NaN
                columns[name] = list(values)
            else:
                columns[name] = np.fromiter(
                    values, dtype=_COLUMN_DTYPES[name], count=len(records)
                )
        return cls(**columns)

    def __len__(self) -> int:
        return len(self.instance_id)

    def __eq__(self, other: object) -> bool:
        """Bit-exact equality of every column (NaN equals NaN)."""
        if not isinstance(other, RecordColumns):
            return NotImplemented
        return all(
            _same_bits(getattr(self, name), getattr(other, name))
            for name in _FIELD_NAMES
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RecordColumns({len(self)} records)"

    def shifted(self, offset: float) -> "RecordColumns":
        """The same records with ``offset`` subtracted from every time."""
        columns = {name: getattr(self, name) for name in _FIELD_NAMES}
        for name in _TIME_COLUMNS:
            columns[name] = columns[name] - offset
        return RecordColumns(**columns)

    def materialize(self, index: Union[slice, np.ndarray]) -> list[InstanceRecord]:
        """Fresh records for the rows ``index`` selects (a slice or index array)."""
        values = []
        for name in _FIELD_NAMES:
            col = getattr(self, name)[index]
            items = col.tolist()
            if name in _OPTIONAL_TIMES and np.isnan(col).any():
                items = [None if v != v else v for v in items]
            values.append(items)
        return list(map(InstanceRecord, *values))

    def present(self, name: str, phase: str) -> np.ndarray:
        """Time column ``name``, or ``ValueError`` naming the first instance
        that lacks it, so a missing phase never leaks out as NaN."""
        return _require(getattr(self, name), self.instance_id, name, phase)

    def exec_seconds(self) -> np.ndarray:
        """Executed seconds of every record (each must have executed)."""
        return self.present("exec_end", "exec") - self.present("exec_start", "exec")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    unsigned = np.dtype(f"u{a.dtype.itemsize}")
    return bool(np.array_equal(a.view(unsigned), b.view(unsigned)))


def _require(
    values: np.ndarray, instance_ids: np.ndarray, name: str, phase: str
) -> np.ndarray:
    missing = np.isnan(values)
    if missing.any():
        instance = int(instance_ids[int(np.argmax(missing))])
        raise ValueError(
            f"instance {instance} has no {phase!r} phase ({name} is None)"
        )
    return values


class RecordView(Sequence):
    """Read-only ``Sequence[InstanceRecord]`` over :class:`RecordColumns`.

    Every access builds fresh records and nothing is cached: ``len`` is
    O(1) and builds nothing, indexing builds one record, slicing returns a
    new list, and iteration builds records in chunks. Equal to another
    view with bit-identical columns, or to any sequence of equal records.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: RecordColumns) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.columns.materialize(index)
        i = operator.index(index)
        n = len(self.columns)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("record index out of range")
        return self.columns.materialize(slice(i, i + 1))[0]

    def __iter__(self) -> Iterator[InstanceRecord]:
        for start in range(0, len(self.columns), _VIEW_CHUNK):
            yield from self.columns.materialize(slice(start, start + _VIEW_CHUNK))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordView):
            return self.columns == other.columns
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RecordView({len(self)} records)"


@dataclass(init=False, eq=False)
class RunResult:
    """Everything measured from one burst execution.

    The per-instance records are stored only as :class:`RecordColumns`;
    every metric below is computed from the columns. ``RunResult(records=
    [...])`` converts the records once (``columns=`` takes columns
    directly). ``records`` is a read-only :class:`RecordView` that builds
    fresh :class:`InstanceRecord` objects on every access, so mutating a
    record obtained from it leaves this result and its metrics unchanged.
    Equality compares the columns bit for bit.
    """

    platform_name: str
    app_name: str
    concurrency: int
    packing_degree: int
    columns: RecordColumns
    expense: ExpenseBreakdown
    lost_functions: int  # functions whose every retry attempt crashed
    fault_stats: FaultStats

    def __init__(
        self,
        platform_name: str,
        app_name: str,
        concurrency: int,
        packing_degree: int,
        records: Optional[Iterable[InstanceRecord]] = None,
        expense: ExpenseBreakdown = ZERO_EXPENSE,
        lost_functions: int = 0,
        fault_stats: Optional[FaultStats] = None,
        *,
        columns: Optional[RecordColumns] = None,
    ) -> None:
        if columns is None:
            columns = RecordColumns.from_records(records if records is not None else ())
        elif records is not None:
            raise TypeError("pass records or columns, not both")
        self.platform_name = platform_name
        self.app_name = app_name
        self.concurrency = concurrency
        self.packing_degree = packing_degree
        self.columns = columns
        self.expense = expense
        self.lost_functions = lost_functions
        self.fault_stats = fault_stats if fault_stats is not None else FaultStats()

    def _key(self) -> tuple:
        return (
            self.platform_name, self.app_name, self.concurrency,
            self.packing_degree, self.expense, self.lost_functions,
            self.fault_stats, self.columns,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------ #
    @property
    def records(self) -> RecordView:
        return RecordView(self.columns)

    @property
    def n_instances(self) -> int:
        return len(self.columns)

    def _succeeded(self) -> np.ndarray:
        c = self.columns
        return ~(c.failed | c.timed_out | c.cancelled)

    @property
    def successful_records(self) -> list[InstanceRecord]:
        """Attempts that completed; service metrics are computed over these
        (failed attempts are still billed — see the billing model)."""
        return self.columns.materialize(np.flatnonzero(self._succeeded()))

    @property
    def n_failed_attempts(self) -> int:
        c = self.columns
        return int(np.count_nonzero(c.failed | c.timed_out))

    @property
    def observed_failure_rate(self) -> float:
        """Failed attempts per executed attempt (drives adaptive packing)."""
        executed = int(np.count_nonzero(~np.isnan(self.columns.exec_start)))
        if not executed:
            return 0.0
        return self.n_failed_attempts / executed

    def _starts(self) -> np.ndarray:
        return self.columns.present("exec_start", "exec")

    def _ends(self) -> np.ndarray:
        ok = self._succeeded()
        if not ok.any():
            raise ValueError("no instance completed successfully")
        c = self.columns
        return _require(c.exec_end[ok], c.instance_id[ok], "exec_end", "exec")

    @property
    def scaling_time(self) -> float:
        """First-to-last start gap plus first-instance provisioning delay."""
        return float(self._starts().max())

    def service_time(self, merit: str = "total") -> float:
        """Service time under a figure of merit: total, tail, or median."""
        ends = self._ends()
        if merit == "total":
            return float(ends.max())
        if merit == "tail":
            return percentile(ends, 0.95)
        if merit == "median":
            return percentile(ends, 0.5)
        raise ValueError(f"unknown figure of merit {merit!r}")

    @property
    def mean_exec_seconds(self) -> float:
        return float(np.mean(self.columns.exec_seconds()))

    @property
    def function_hours(self) -> float:
        """Sum of instance execution times, in hours (paper Fig. 12)."""
        # The builtin sum, not np.sum: it is the reduction billing and the
        # goldens were recorded with (see docs/PERFORMANCE.md).
        return float(sum(self.columns.exec_seconds().tolist())) / 3600.0

    def breakdown(self) -> dict[str, float]:
        """Mean per-instance scheduling / start-up / shipping delays
        (the phases of :meth:`InstanceRecord.phase_durations`)."""
        c = self.columns
        sched = c.present("sched_done", "sched")
        built = c.present("built_at", "build")
        shipped = c.present("shipped_at", "ship")
        # Python's max(built, sched): ``built`` unless ``sched`` is larger.
        ready = np.where(sched > built, sched, built)
        return {
            "scheduling": float(np.mean(sched - c.invoked_at)),
            "startup": float(np.mean(built - c.invoked_at)),
            "shipping": float(np.mean(shipped - ready)),
        }

    def component_totals(self) -> dict[str, float]:
        """Critical-path view: when each stage finished for the last instance."""
        c = self.columns
        return {
            "scheduling": float(c.present("sched_done", "sched").max()),
            "startup": float(c.present("built_at", "build").max()),
            "shipping": float(c.present("shipped_at", "ship").max()),
        }
