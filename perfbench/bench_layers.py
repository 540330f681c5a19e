"""Per-layer wall-time attribution by patching layer entry points from outside.

A :class:`Shims` context patches the public functions through which work
enters each simulator layer (a class or module attribute) with a wrapper
that records a host-time span into a :class:`Profiler`, and restores every
original attribute on exit, also when the body raises. Nothing under
``src/`` changes; the simulation sees the same calls in the same order,
which the traced-vs-untraced fingerprint check proves per run.

A layer's *busy* time is the union of its outermost spans; its *self*
time is the sum over its spans of duration minus the time covered by
child spans (of any layer), so self never exceeds busy. Spans are kept in
memory in the repository's own :class:`~repro.telemetry.tracer.Tracer`
(clocked in host seconds) and exported with its Chrome-trace exporter.
Per layer, only the first :data:`SPAN_CAP` spans are kept for the trace;
the rest are counted as ``spans_dropped`` so the export never loses data
silently. Busy/self/call totals always cover every call.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: Spans kept per layer for the Chrome trace (totals cover every call).
SPAN_CAP = 2000

#: Every layer the benchmark attributes time to, in report order.
LAYERS = (
    "core.profile",
    "core.plan",
    "platform.run_burst",
    "engine.fluid",
    "sim.engine",
    "engine.burst.collect",
    "engine.kernel",
    "platform.billing",
    "platform.metrics",
    "serving.service",
    "serving.arrivals",
    "serving.quantiles",
    "serving.warmpool",
    "serving.controller",
    "resilience",
    "remediation.shadow",
    "telemetry.export",
)


@dataclass
class LayerStats:
    busy_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    spans_kept: int = 0
    spans_dropped: int = 0


@dataclass
class _Frame:
    layer: str
    outer: bool              # first span of this layer on the stack
    start: float
    child_s: float = 0.0
    span: Any = None         # tracer span, or the nearest traced ancestor's
    own_span: bool = False
    state: Any = None        # what the target's ``before`` hook returned


@dataclass
class Profiler:
    """Span stack, per-layer totals, counters, and fluid-path provenance."""

    tracer: Optional[Any] = None
    stats: dict = field(default_factory=lambda: {name: LayerStats() for name in LAYERS})
    counters: Counter = field(default_factory=Counter)
    #: One entry per burst offered to the fluid path:
    #: (scenario, "fluid" or "eventloop", fallback reason or None).
    provenance: list = field(default_factory=list)
    #: Scenario the current calls belong to (labels provenance entries).
    label: str = ""
    #: Open spans per layer (a layer is busy while its depth is > 0).
    depth: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)

    def enter(self, layer: str, name: str) -> _Frame:
        outer = self.depth[layer] == 0
        self.depth[layer] += 1
        parent_span = self._stack[-1].span if self._stack else None
        frame = _Frame(layer, outer, 0.0, span=parent_span)
        if self.tracer is not None:
            stats = self.stats[layer]
            if stats.spans_kept < SPAN_CAP:
                frame.span = self.tracer.start_span(name, category=layer, parent=parent_span)
                frame.own_span = True
                stats.spans_kept += 1
            else:
                stats.spans_dropped += 1
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def exit(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span stack corrupted at {frame.layer}")
        self._stack.pop()
        stats = self.stats[frame.layer]
        stats.calls += 1
        stats.self_s += duration - frame.child_s
        if frame.outer:
            stats.busy_s += duration
        self.depth[frame.layer] -= 1
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.own_span:
            self.tracer.end_span(frame.span)

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] += n


def host_tracer(origin: float):
    """A repository Tracer whose clock is host seconds since ``origin``."""
    from repro.telemetry.tracer import Tracer

    return Tracer(clock=lambda: time.perf_counter() - origin)


# --------------------------------------------------------------------- #
# shims
# --------------------------------------------------------------------- #
#: after(profiler, frame, args, result) — runs outside the span, feeds counters.
After = Callable[[Profiler, _Frame, tuple, Any], None]
#: before(args) — runs outside the span; its result is ``frame.state``.
Before = Callable[[tuple], Any]


@dataclass(frozen=True)
class Target:
    owner: Any               # class or module that defines ``attr``
    attr: str
    layer: str
    after: Optional[After] = None
    before: Optional[Before] = None


def _wrap(profiler: Profiler, target: Target, fn: Callable) -> Callable:
    layer, after, before = target.layer, target.after, target.before
    name = f"{getattr(target.owner, '__name__', '?')}.{target.attr}"

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        state = before(args) if before is not None else None
        frame = profiler.enter(layer, name)
        frame.state = state
        try:
            result = fn(*args, **kwargs)
        finally:
            profiler.exit(frame)
        if after is not None:
            after(profiler, frame, args, result)
        return result

    return shim


class Shims:
    """Patch every target for the ``with`` body; always restore on exit."""

    def __init__(self, profiler: Profiler, targets: list[Target]) -> None:
        self.profiler = profiler
        self.targets = targets
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Shims":
        try:
            for target in self.targets:
                original = vars(target.owner)[target.attr]  # raw: keeps property objects
                if isinstance(original, property):
                    patched = property(_wrap(self.profiler, target, original.fget))
                else:
                    patched = _wrap(self.profiler, target, original)
                self._saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr, patched)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------- #
# the layer table: which entry points belong to which layer
# --------------------------------------------------------------------- #
def _count_calls(key: str) -> After:
    def after(prof, frame, args, result):
        prof.count(key)
    return after


def _after_run_burst(prof, frame, args, result):
    prof.count("platform.bursts")
    if prof.depth["core.profile"]:
        prof.count("core.profile.bursts")


def _after_try_fluid(prof, frame, args, result):
    from repro.engine.fluid import fluid_ineligibility

    if result is not None:
        prof.provenance.append((prof.label, "fluid", None))
        return
    kernel, spec = args[0], args[1]
    # The kernel is untouched by a refused replay, so the reason is exact.
    prof.provenance.append((prof.label, "eventloop", fluid_ineligibility(kernel, spec)))


def _sim_counts(args):
    sim = args[0]
    return sim.events_processed, sim.compactions


def _after_sim_run(prof, frame, args, result):
    events, compactions = _sim_counts(args)
    prof.count("sim.engine.events", events - frame.state[0])
    prof.count("sim.engine.compactions", compactions - frame.state[1])


def _after_collect(prof, frame, args, result):
    prof.count("engine.burst.instances", len(result.records))


def _after_retry(prof, frame, args, result):
    if result is not None:  # None: retries exhausted, the chain is lost
        prof.count("engine.kernel.retries")


def _after_metrics(prof, frame, args, result):
    if frame.outer:
        prof.count("platform.metrics.records", len(args[0].records))


def _after_serving_run(prof, frame, args, result):
    prof.count("serving.service.requests", result.n_requests)


def _after_sample(prof, frame, args, result):
    if frame.outer:  # superposed processes sample their parts inside
        prof.count("serving.arrivals.requests", len(result))


def _after_acquire(prof, frame, args, result):
    prof.count("serving.warmpool.acquires")
    if result:
        prof.count("serving.warmpool.hits")


def _after_decide(prof, frame, args, result):
    prof.count("resilience.decisions")
    if result:
        prof.count("resilience.admitted")


def _after_chrome_trace(prof, frame, args, result):
    prof.count("telemetry.events", len(result["traceEvents"]))


def targets() -> list[Target]:
    """The layer entry points, resolved against the imported simulator."""
    from repro.core.propack import ProPack
    from repro.engine import fluid
    from repro.engine.burst import BurstDispatchKernel
    from repro.engine.kernel import DispatchKernel
    from repro.platform.base import ServerlessPlatform
    from repro.platform.billing import BillingModel
    from repro.platform.metrics import RunResult
    from repro.remediation.shadow import ShadowVerifier
    from repro.resilience.admission import AdmissionController
    from repro.resilience.breaker import CircuitBreakerBank
    from repro.resilience.brownout import BrownoutController
    from repro.serving import arrivals
    from repro.serving.controller import OnlineReplanner
    from repro.serving.quantiles import QuantileDigest, WindowedSLOTracker
    from repro.serving.service import ServingSimulator
    from repro.serving.warmpool import WarmPool
    from repro.sim.engine import Simulator
    from repro.telemetry.config import TelemetrySession

    out = [
        Target(ProPack, "interference_profile", "core.profile"),
        Target(ProPack, "scaling_profile", "core.profile"),
        Target(ProPack, "plan", "core.plan", _count_calls("core.plan.calls")),
        Target(ServerlessPlatform, "run_burst", "platform.run_burst", _after_run_burst),
        Target(fluid, "try_run_fluid", "engine.fluid", _after_try_fluid),
        Target(Simulator, "run", "sim.engine", _after_sim_run, _sim_counts),
        Target(BurstDispatchKernel, "collect", "engine.burst.collect", _after_collect),
        Target(DispatchKernel, "new_chain", "engine.kernel", _count_calls("engine.kernel.chains")),
        Target(DispatchKernel, "crash_decision", "engine.kernel"),
        Target(DispatchKernel, "chain_crash_decision", "engine.kernel"),
        Target(DispatchKernel, "throttle_gate", "engine.kernel"),
        Target(DispatchKernel, "next_retry_delay", "engine.kernel", _after_retry),
        Target(DispatchKernel, "straggler_factor", "engine.kernel"),
        Target(DispatchKernel, "exec_noise_factor", "engine.kernel"),
        Target(DispatchKernel, "run_synchronous_chain", "engine.kernel"),
        Target(BillingModel, "burst_expense", "platform.billing", _count_calls("platform.billing.calls")),
        Target(BillingModel, "serving_expense", "platform.billing", _count_calls("platform.billing.calls")),
        Target(RunResult, "service_time", "platform.metrics", _after_metrics),
        Target(RunResult, "scaling_time", "platform.metrics", _after_metrics),
        Target(RunResult, "breakdown", "platform.metrics", _after_metrics),
        Target(ServingSimulator, "run", "serving.service", _after_serving_run),
        Target(QuantileDigest, "add", "serving.quantiles", _count_calls("serving.quantiles.adds")),
        Target(WindowedSLOTracker, "record", "serving.quantiles"),
        Target(WarmPool, "acquire", "serving.warmpool", _after_acquire),
        Target(WarmPool, "release", "serving.warmpool"),
        Target(OnlineReplanner, "replan", "serving.controller", _count_calls("serving.controller.replans")),
        Target(AdmissionController, "decide", "resilience", _after_decide),
        Target(CircuitBreakerBank, "pick", "resilience"),
        Target(CircuitBreakerBank, "record", "resilience"),
        Target(BrownoutController, "observe", "resilience"),
        Target(ShadowVerifier, "verify", "remediation.shadow"),
        Target(ShadowVerifier, "score", "remediation.shadow", _count_calls("remediation.shadow.replays")),
        Target(TelemetrySession, "chrome_trace", "telemetry.export", _after_chrome_trace),
        Target(TelemetrySession, "prometheus_text", "telemetry.export"),
    ]
    for cls in vars(arrivals).values():
        if isinstance(cls, type) and issubclass(cls, arrivals.ArrivalProcess) and "sample" in vars(cls):
            if not getattr(vars(cls)["sample"], "__isabstractmethod__", False):
                out.append(Target(cls, "sample", "serving.arrivals", _after_sample))
    return out


# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(prof: Profiler, outcome: Counter) -> dict[str, float]:
    """One traced pass's per-layer metrics.

    ``outcome`` holds the counts read off the simulated results (fault
    statistics, evictions, breaker transitions, remediation timeline);
    everything else comes from the shims.
    """
    c = prof.counters
    out: dict[str, float] = {}
    for name, stats in prof.stats.items():
        out[f"{name}.busy_s"] = stats.busy_s
        out[f"{name}.self_s"] = stats.self_s
    fluid_runs = sum(1 for _, path, _ in prof.provenance if path == "fluid")
    out.update({
        "core.plan.calls": c["core.plan.calls"],
        "platform.bursts": c["platform.bursts"],
        "engine.fluid.runs": fluid_runs,
        "engine.fluid.fallbacks": len(prof.provenance) - fluid_runs,
        "engine.fluid.fluid_ratio": _ratio(fluid_runs, len(prof.provenance)),
        "sim.engine.events": c["sim.engine.events"],
        "sim.engine.compactions": c["sim.engine.compactions"],
        "sim.engine.events_per_s": _ratio(c["sim.engine.events"], prof.stats["sim.engine"].busy_s),
        "engine.burst.instances": c["engine.burst.instances"],
        "engine.kernel.chains": c["engine.kernel.chains"],
        "engine.kernel.attempts_per_chain": _ratio(
            c["engine.kernel.chains"] + c["engine.kernel.retries"], c["engine.kernel.chains"]
        ),
        "faults.crashed_attempts": outcome["crashed_attempts"],
        "faults.retries": outcome["retries"],
        "faults.hedged_attempts": outcome["hedged_attempts"],
        "faults.hedge_wins": outcome["hedge_wins"],
        "faults.work_loss_ratio": _ratio(outcome["wasted_gb_s"], outcome["billed_gb_s"]),
        "platform.billing.calls": c["platform.billing.calls"],
        "platform.metrics.records": c["platform.metrics.records"],
        "serving.service.requests": c["serving.service.requests"],
        "serving.arrivals.requests": c["serving.arrivals.requests"],
        "serving.quantiles.adds": c["serving.quantiles.adds"],
        "serving.warmpool.hit_ratio": _ratio(c["serving.warmpool.hits"], c["serving.warmpool.acquires"]),
        "serving.warmpool.evictions": outcome["evictions"],
        "serving.controller.replans": c["serving.controller.replans"],
        "resilience.admit_ratio": _ratio(c["resilience.admitted"], c["resilience.decisions"]),
        "resilience.breaker_transitions": outcome["breaker_transitions"],
        "remediation.shadow.replays": c["remediation.shadow.replays"],
        "remediation.applied": outcome["remediation_applied"],
        "remediation.rollbacks": outcome["remediation_rollbacks"],
        "telemetry.events": c["telemetry.events"],
    })
    return out


def setup_metrics(prof: Profiler) -> dict[str, float]:
    """The set-up run's model-fitting metrics (``core.profile``)."""
    stats = prof.stats["core.profile"]
    return {
        "core.profile.busy_s": stats.busy_s,
        "core.profile.self_s": stats.self_s,
        "core.profile.bursts": prof.counters["core.profile.bursts"],
    }


def layer_table(prof: Profiler) -> str:
    """Human-readable per-layer table (busy/self seconds, calls, spans)."""
    lines = [f"{'layer':<22} {'busy_s':>10} {'self_s':>10} {'calls':>9} {'spans':>7} {'dropped':>8}"]
    for name, s in prof.stats.items():
        lines.append(
            f"{name:<22} {s.busy_s:>10.4f} {s.self_s:>10.4f} {s.calls:>9d} "
            f"{s.spans_kept:>7d} {s.spans_dropped:>8d}"
        )
    return "\n".join(lines)
