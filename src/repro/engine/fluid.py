"""The fluid burst fast path: closed-form pipeline replay, no event loop.

An eligible burst (no fault scenario, hedging, telemetry, or subclass
hooks) is a *deterministic* pipeline given its RNG draws: placement times
are a cumulative sum, container builds are a k-slot FIFO recursion, and
shipping is processor sharing of equal-sized transfers (which completes in
FIFO order). Execution and warm-wave reuse are a *batched frontier
replay*: each batch merges the known cold starts (ship order) and warm
starts (spawn order), cold first on ties, gives them consecutive noise
ranks and skew segments, and computes their durations and completions as
numpy arrays. Completions commit in ``(end, start rank)`` order, and the
j-th one spawns warm generation j. A batch commits only the completions,
and finalizes only the starts, that no start it has not seen can precede:
with ``s*`` the earliest next start or pending completion +
``warm_dispatch_s`` and ``d_min`` a lower bound on every duration, an
unseen start completes no earlier than ``lim = fl(s* + d_min)`` and
starts no earlier than ``fl(lim + warm_dispatch_s)``. Once every warm
generation is spawned, one batch takes the rest. This module replays that
arithmetic directly — float-op for float-op, draw for draw, in the same
order as the discrete-event path — so the result is **byte-identical** to
the event-driven kernel while doing O(instances) array work instead of
O(instances · ~10) heap events.

Eligibility rules and the draw-order contract are documented in
``docs/PERFORMANCE.md``. ``BurstDispatchKernel.run`` offers every burst
to :func:`try_run_fluid`, which hands its arrays to
:class:`RecordColumns` and returns the columnar :class:`RunResult`, or
``None`` when :func:`fluid_ineligibility` names a reason (the caller then
runs the event loop). ``tests/test_fluid_identity.py``
and the differential suite ``tests/test_property_fluid.py`` pin the fluid
result equal to the forced event-loop result.

On abort paths the fluid replay raises the same exception with the same
message as the event-driven kernel: the first execution start past the
billed timeout, unless a placement at or before it found the fleet full
(a placement precedes every other event at the same instant). It may
have drawn more RNG values than the event loop had at the abort point
(it draws each stream's values for the whole burst up front); a burst
runs on a per-run RNG family, so this is unobservable outside the
aborted run.
"""

from __future__ import annotations

import heapq
import math
import operator
from functools import reduce
from itertools import chain
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.platform.billing import BillingModel
from repro.platform.metrics import InstanceRecord, RecordColumns, RunResult
from repro.platform.scheduler import PlacementScheduler

if TYPE_CHECKING:  # annotation-only: avoid a cycle with engine.burst
    from repro.cluster.registry import FunctionImage
    from repro.engine.burst import BurstDispatchKernel, BurstSpec

#: Template hooks and lifecycle methods that must be un-overridden for the
#: closed-form replay to be faithful to what the event loop would do.
_REQUIRED_BASE_METHODS = (
    "_image_for",
    "_modeled_exec_seconds",
    "_make_instance",
    "_release_instance",
    "_record_completion",
    "_admit",
    "_placed",
    "_built",
    "_maybe_ship",
    "_shipped",
    "_start_execution",
    "_exec_done",
    "_reuse_warm",
    "_warm_start",
    "begin",
    "collect",
)


def fluid_ineligibility(kernel: "BurstDispatchKernel", spec: "BurstSpec") -> Optional[str]:
    """Why this burst cannot take the fluid path (``None`` = eligible).

    The rules are conservative: anything that injects extra draws, extra
    events, or consumer-specific behaviour into the lifecycle falls back
    to the event-driven path, which is always correct.
    """
    from repro.engine.burst import BurstDispatchKernel
    from repro.platform.container import ContainerPipeline

    if spec.scenario is not None:
        return "fault scenario active"
    if spec.hedge is not None:
        return "hedging active"
    if kernel.profile.failure_rate > 0.0:
        return "profile failure rate > 0"
    if kernel._tel is not None:
        return "telemetry instrumentation attached"
    for name in _REQUIRED_BASE_METHODS:
        if getattr(type(kernel), name) is not getattr(BurstDispatchKernel, name):
            return f"subclass overrides {name}"
    if type(kernel.scheduler) is not PlacementScheduler:
        return "non-serial placement scheduler"
    if kernel.scheduler._search_hist is not None:
        return "scheduler metrics attached"
    if kernel.scheduler._queue or kernel.scheduler._busy:
        return "scheduler busy"
    if type(kernel.pipeline) is not ContainerPipeline:
        return "custom container pipeline"
    if kernel.pipeline.builder.busy_servers or kernel.pipeline.builder.queued_jobs:
        return "builder busy"
    if kernel.pipeline.network.in_flight:
        return "uplink busy"
    if kernel.sim._now != 0.0 or kernel.sim._heap:
        return "simulator not fresh"
    pool = kernel.scheduler.pool
    if pool.total_instances != 0:
        return "server pool not empty"
    return None


def try_run_fluid(
    kernel: "BurstDispatchKernel", spec: "BurstSpec", image: "FunctionImage"
) -> Optional[RunResult]:
    """Run ``spec`` through the fluid replay, or ``None`` if ineligible."""
    if fluid_ineligibility(kernel, spec) is not None:
        return None
    # The replay's working arrays are freed before the columns are built
    # and billed, so they never hold memory at the same time.
    return kernel.collect(RecordColumns(**_replay(kernel, spec, image)))


def _replay(
    kernel: "BurstDispatchKernel", spec: "BurstSpec", image: "FunctionImage"
) -> dict[str, np.ndarray]:
    """Replay an eligible burst: its record columns, or the event loop's
    abort."""
    from repro.engine.burst import FunctionTimeoutError
    from repro.faults.retry import ImmediateRetry
    from repro.engine.kernel import resolve_retry_policy

    profile = kernel.profile
    pipeline = kernel.pipeline
    scheduler = kernel.scheduler
    rng = kernel.rng

    # ------------------------------------------------------------------ #
    # Mirror begin()'s configuration side effects.
    # ------------------------------------------------------------------ #
    kernel._spec = spec
    kernel._image = image
    n_inst = spec.n_instances
    cold = n_inst if spec.wave_size is None else min(n_inst, spec.wave_size)
    kernel._concurrency_level = cold
    kernel._invoked_at = 0.0
    kernel.retry_policy = resolve_retry_policy(
        spec.retry_policy,
        spec.scenario,
        platform_default=ImmediateRetry(profile.max_retries),
    )
    kernel._retry_policy = kernel.fresh_retry()
    kernel.configure_faults(None, profile.failure_rate)

    provisioned = spec.provisioned_mb or profile.max_memory_mb
    if provisioned > profile.max_memory_mb:
        raise ValueError(
            f"provisioned memory {provisioned} MB exceeds the platform "
            f"maximum {profile.max_memory_mb} MB"
        )
    kernel._provisioned = provisioned
    kernel._instances = {}

    # Per-record packing, fixed up front: every instance gets the full
    # packing degree except the last one created (the last cold chain
    # when there is no wave cap, else the last warm generation), which
    # takes the remainder. Records 0..cold-1 are the cold chains; record
    # cold + j is warm generation j, spawned by the j-th completion.
    packing = spec.packing_degree
    npacked = np.full(n_inst, packing, dtype=np.int64)
    npacked[-1] = spec.concurrency - packing * (n_inst - 1)
    n_warm = n_inst - cold

    # Output columns by record id.
    invoked_at = np.zeros(n_inst)
    sched_done = np.empty(n_inst)
    built_at = np.empty(n_inst)
    shipped_at = np.empty(n_inst)
    exec_start = np.empty(n_inst)
    exec_end = np.empty(n_inst)

    # ------------------------------------------------------------------ #
    # Draw order contract, step 1: one "build" noise draw per cold chain,
    # in chain order (the event path draws all of them at t=0 in _admit).
    # ------------------------------------------------------------------ #
    base_build = pipeline.build_seconds(image, spec.build_factor)
    bsig = pipeline.build_noise_sigma
    if bsig > 0.0:
        works = base_build * np.exp(rng.stream("build").normal(0.0, bsig, cold))
    else:
        works = np.full(cold, base_build)

    # Placement completions: request k costs base + search * k, serially.
    sched = sched_done[:cold]
    np.cumsum(
        scheduler.base_cost_s + scheduler.search_cost_s * np.arange(cold, dtype=np.float64),
        out=sched,
    )

    # Build completions, then shipping in ship-ready order; the stable
    # argsort keeps the sim's FIFO tie order.
    built = built_at[:cold]
    built[:] = _fifo_finish_times(works, pipeline.builder.servers)
    ready = np.maximum(sched, built)
    ship_i = np.argsort(ready, kind="stable")  # chain index, in ship order
    w_ship = pipeline.ship_size_mb(image, spec.ship_factor)
    ship_t = _shared_uplink_finish_times(
        ready[ship_i], w_ship, pipeline.network._uplink.capacity
    )
    pipeline.network.bytes_shipped_mb = _repeat_add(
        pipeline.network.bytes_shipped_mb, w_ship, cold
    )
    pipeline.network._uplink.total_jobs += cold
    pipeline.builder.total_jobs += cold
    pipeline.containers_built += cold
    scheduler.placements_made += cold

    # ------------------------------------------------------------------ #
    # Execution model constants (identical op order to _start_execution),
    # tabulated by packing degree.
    # ------------------------------------------------------------------ #
    mem_per_core = profile.max_memory_mb / profile.cores_per_instance
    degrees = sorted({packing, int(npacked[-1])})
    modeled = np.zeros(packing + 1)
    penalty = np.zeros(packing + 1)
    for n in degrees:
        modeled[n] = kernel.interference.execution_seconds(spec.app, n, cold)
        need_mb = n * mem_per_core
        actual = max(1.0, need_mb / provisioned)
        calibrated = max(1.0, need_mb / profile.max_memory_mb)
        penalty[n] = actual / calibrated
    overhead = spec.exec_overhead
    cap_exec = profile.max_execution_seconds
    enforce = kernel.enforce_timeout

    # Draw order contract, step 2: "exec" noise, one draw per execution
    # start, in execution-start event order (drawn up front — i.i.d. draws, so
    # the k-th stream value goes to the k-th execution start).
    esig = profile.exec_noise_sigma
    if esig > 0.0:
        enoise = np.exp(rng.stream("exec").normal(0.0, esig, n_inst))
    else:
        enoise = np.ones(n_inst)

    # Draw order contract, step 3: "skew" lognormal blocks, n_packed draws
    # per execution start, in execution-start event order.
    skew_cv = spec.skew_cv
    if skew_cv > 0.0:
        ssig = float(np.sqrt(np.log1p(skew_cv * skew_cv)))
        skew_draws = rng.stream("skew").lognormal(
            -0.5 * ssig * ssig, ssig, spec.concurrency
        )
        skew_min = float(skew_draws.min())
    else:
        skew_draws = None
        skew_min = 1.0
    skew_cursor = 0

    # A lower bound on every duration: the same product over each factor's
    # minimum (all factors are non-negative and rounding is monotone).
    d_min = (
        float(modeled[degrees].min()) * float(enoise.min()) * overhead
        * skew_min * float(penalty[degrees].min())
    )

    # Fleet capacity: uniform instance shapes + first-fit over uniform
    # servers means exhaustion occurs exactly when occupancy hits the
    # fleet-wide slot count.
    pool = scheduler.pool
    srv = pool.servers[0]
    per_server = min(
        srv.cores // profile.cores_per_instance, srv.memory_mb // provisioned
    )
    fleet_cap = len(pool.servers) * per_server

    # ------------------------------------------------------------------ #
    # Batched frontier replay of execution starts and completions.
    #
    # Event order: cold starts (ship order) and warm starts (spawn order)
    # merge by time, cold first on ties; completions run in (end, start
    # rank) order, and the j-th completion spawns warm generation j at
    # end + warm_dispatch_s while any remain. Each batch commits the
    # pending completions no unseen start can precede and finalizes the
    # starts no unseen start can precede (docs/PERFORMANCE.md).
    # ------------------------------------------------------------------ #
    inf = math.inf
    w = spec.warm_dispatch_s
    shipped_at[ship_i] = ship_t
    # Warm generation j is record cold + j: invoked at its spawning
    # completion, built and shipped when it starts.
    warm_t = shipped_at[cold:]
    ci = 0                     # next cold start
    wi = 0                     # next warm start
    n_spawned = 0
    rank = 0                   # starts finalized so far
    pend = np.empty(0, dtype=np.int64)  # started, not completed, by start rank
    committed: list[np.ndarray] = []    # record ids, in completion order
    abort: Optional[int] = None         # batch index of a timed-out start
    while ci < cold or wi < n_spawned or pend.size:
        n_batches = len(committed)
        ends = exec_end[pend]
        if n_spawned == n_warm:
            # Every start is known: nothing unseen can precede anything.
            lim = bound = inf
        else:
            # Every unseen start is at or after s_star, so it completes at
            # or after lim and spawns at or after bound, later in tie order
            # than what this batch commits and finalizes there.
            s_star = min(
                float(ship_t[ci]) if ci < cold else inf,
                float(warm_t[wi]) if wi < n_spawned else inf,
                float(ends.min()) + w if pend.size else inf,
            )
            lim = s_star + d_min
            bound = lim + w

        # Commit every pending completion at or before the horizon.
        if pend.size:
            due = ends <= lim
            batch = pend[due]
            ends = ends[due]
            pend = pend[~due]
            if batch.size:
                order = np.argsort(ends, kind="stable")  # batch is in rank order
                batch = batch[order]
                committed.append(batch)
                k = min(batch.size, n_warm - n_spawned)
                if k:
                    spawned_by = ends[order[:k]]
                    gen = slice(cold + n_spawned, cold + n_spawned + k)
                    invoked_at[gen] = sched_done[gen] = spawned_by
                    shipped_at[gen] = built_at[gen] = spawned_by + w
                    n_spawned += k
                    if n_spawned == n_warm:
                        bound = inf

        # Finalize every start at or before fl(lim + w), in event order.
        c_hi = cold if bound == inf else int(np.searchsorted(ship_t, bound, "right"))
        w_hi = n_spawned if bound == inf else wi + int(
            np.searchsorted(warm_t[wi:n_spawned], bound, "right")
        )
        m = c_hi - ci + w_hi - wi
        if not m:
            # lim covers the earliest pending completion whenever bound
            # misses the next start, so every batch makes progress.
            if len(committed) == n_batches:
                raise AssertionError("fluid frontier replay made no progress")
            continue
        times = np.concatenate((ship_t[ci:c_hi], warm_t[wi:w_hi]))
        rids = np.concatenate((ship_i[ci:c_hi], np.arange(cold + wi, cold + w_hi)))
        order = np.argsort(times, kind="stable")  # cold first on ties
        times = times[order]
        rids = rids[order]
        ns = npacked[rids]
        dur = modeled[ns]
        dur *= enoise[rank:rank + m]
        dur *= overhead
        if skew_draws is not None:
            offsets = np.cumsum(ns) - ns
            width = int(offsets[-1] + ns[-1])
            dur *= np.maximum.reduceat(skew_draws[skew_cursor:skew_cursor + width], offsets)
            skew_cursor += width
        dur *= penalty[ns]
        if enforce and dur.max() > cap_exec:
            # The first start over the cap aborts; those before it happen.
            abort = int(np.argmax(dur > cap_exec))
            m = abort
        started = rids[:m]
        exec_start[started] = times[:m]
        exec_end[started] = times[:m] + dur[:m]
        pend = np.concatenate((pend, started))
        rank += m
        if abort is not None:
            break
        ci = c_hi
        wi = w_hi

    # Record ids in completion order. A timeout at t aborts after every
    # completion before t: commit the pending ones, in order, so the
    # fleet check below sees every release the event loop would have.
    done = np.concatenate(committed) if committed else pend[:0]
    t_abort = inf
    if abort is not None:
        t_abort = float(times[abort])
        ends = exec_end[pend]
        early = ends < t_abort
        done = np.concatenate((done, pend[early][np.argsort(ends[early], kind="stable")]))

    # Fleet exhaustion: placement k finds k - (releases before it) slots
    # taken. Completions past the last warm spawn release their slot, and
    # a placement precedes a release at the same instant.
    if cold > fleet_cap:
        hi = int(np.searchsorted(sched, t_abort, "right"))
        releases = exec_end[done[n_warm:]]
        occupancy = np.arange(fleet_cap, hi) - np.searchsorted(
            releases, sched[fleet_cap:hi], "left"
        )
        full = np.flatnonzero(occupancy >= fleet_cap)
        if full.size:
            raise RuntimeError(
                f"fleet exhausted: {len(pool.servers)} servers, "
                f"{int(occupancy[full[0]])} instances placed"
            )

    app = spec.app
    if abort is not None:
        rid = int(rids[abort])
        n = int(ns[abort])
        record = InstanceRecord(
            instance_id=rid,
            n_packed=n,
            invoked_at=float(invoked_at[rid]),
            sched_done=float(sched_done[rid]),
            built_at=float(built_at[rid]),
            shipped_at=t_abort,
            exec_start=t_abort,
            exec_end=t_abort + cap_exec,
            provisioned_mb=provisioned,
            warm_start=rid >= cold,
            timed_out=True,
        )
        bill = BillingModel(profile)
        billed = bill.instance_compute_usd(record) + profile.per_request_usd
        raise FunctionTimeoutError(
            f"{app.name}: instance {rid} would run "
            f"{float(dur[abort]):.0f}s > platform cap {cap_exec:.0f}s "
            f"(packing degree {n})",
            record=record,
            billed_usd=billed,
        )

    # Object-store accounting, folded in completion order (one or two
    # additions per completion, by packing degree).
    shared_mb = app.io_mb * app.io_shared_fraction
    private_mb = app.io_mb * (1.0 - app.io_shared_fraction)
    io_mb = spec.extra_io_mb_per_function
    addends = {
        n: (shared_mb + private_mb * n, io_mb * n) if io_mb > 0.0
        else (shared_mb + private_mb * n,)
        for n in degrees
    }
    usage = kernel.store.usage
    usage.transferred_mb = reduce(
        operator.add,
        chain.from_iterable(map(addends.__getitem__, npacked[done].tolist())),
        usage.transferred_mb,
    )
    usage.get_requests += spec.concurrency
    usage.put_requests += spec.concurrency * (2 if io_mb > 0.0 else 1)
    kernel._pending_functions = 0
    # observational parity with the event path
    kernel.sim._now = max(0.0, float(exec_end.max()))

    return dict(
        instance_id=np.arange(n_inst),
        n_packed=npacked,
        invoked_at=invoked_at,
        sched_done=sched_done,
        built_at=built_at,
        shipped_at=shipped_at,
        exec_start=exec_start,
        exec_end=exec_end,
        provisioned_mb=np.full(n_inst, provisioned),
        warm_start=np.arange(n_inst) >= cold,
    )


def _fifo_finish_times(works: np.ndarray, slots: int) -> list[float]:
    """Finish times of jobs submitted at t=0 to ``slots`` FIFO servers:
    the k-slot recursion over a finish-time heap, as FifoResource runs it."""
    finish = works.tolist()  # job i's work, overwritten by its finish time
    if len(finish) > slots:
        free = finish[:slots]
        heapq.heapify(free)
        for i in range(slots, len(finish)):
            b = free[0] + finish[i]
            heapq.heapreplace(free, b)
            finish[i] = b
    return finish


def _shared_uplink_finish_times(
    ready: np.ndarray, size: float, capacity: float
) -> np.ndarray:
    """Completion times of equal transfers arriving at the sorted instants
    ``ready`` on one processor-sharing link (exact virtual-time arithmetic
    of ProcessorSharingResource). Equal sizes complete in FIFO order, so
    transfers ``done .. admitted-1`` are the ones in flight."""
    n = len(ready)
    # times[k] holds transfer k's arrival, then from its admission its
    # finish virtual time, then from its completion its completion time.
    times = ready.tolist()
    inf = math.inf
    vtime = 0.0
    vupd = 0.0
    active = 0
    next_comp = inf
    admitted = 0
    done = 0
    while done < n:
        t_arr = times[admitted] if admitted < n else inf
        if t_arr < next_comp:
            # submit: advance vtime, admit, reschedule
            if active > 0:
                vtime += (t_arr - vupd) * (capacity / active)
            vupd = t_arr
            active += 1
            times[admitted] = vtime + size
            admitted += 1
            remaining_v = times[done] - vtime
            if remaining_v < 0.0:
                remaining_v = 0.0
            next_comp = t_arr + remaining_v * active / capacity
        else:
            t = next_comp
            if active > 0:
                vtime += (t - vupd) * (capacity / active)
            vupd = t
            times[done] = t
            done += 1
            active -= 1
            if done < admitted:
                remaining_v = times[done] - vtime
                if remaining_v < 0.0:
                    remaining_v = 0.0
                next_comp = t + remaining_v * active / capacity
            else:
                next_comp = inf
    return np.array(times)


def _repeat_add(start: float, addend: float, count: int) -> float:
    """``count`` sequential float additions (matches the event path's sum)."""
    total = start
    for _ in range(count):
        total += addend
    return total
