"""The repository benchmark: one workload, one seed, every metric with its unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload burst_fluid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the median
of several ``setup_s`` probes, then repeated passes over the workload's
scenario list until ``--seconds`` is spent (at least :data:`MIN_PASSES`).
Host times are calibrated against :func:`reference_work` probes run next
to each timed run, because a shared host's speed drifts (``README.md``).
``--trace 1`` traces set-up and alternates untraced and traced passes, and
reports the per-layer metrics plus ``trace_overhead_frac``; it also writes
a Chrome trace, a per-layer table and per-burst execution-path provenance
under ``perfbench/out/``.

Every scenario run is checked outside the timed region (see
``bench_checks.py``); a run that raises or breaks an invariant counts in
``failed`` and is printed. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the
simulator's ``src/`` tree the command exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import bench_setup
from bench_setup import ROOT, SourceTreeMissing

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Untraced passes per run, at least (the median needs a middle value).
MIN_PASSES = 3
#: Untraced/traced pass pairs per ``--trace 1`` run, at least.
MIN_TRACED_PAIRS = 2
#: Fresh-interpreter set-up probes per ``--trace 0`` run.
SETUP_PROBES = 3
#: Table size of one :func:`reference_work` round.
REFERENCE_ITEMS = 20_000
#: Seconds one round takes on a quiet 2.1 GHz Xeon core; host times are
#: reported as if measured on such a host.
REFERENCE_ROUND_S = 0.004
#: Reference probe on each side of a timed run, as a share of the run's
#: expected length: long runs need long probes to average the host's
#: sub-second swings as the run itself does.
PROBE_SHARE = 0.075
#: Expected length of a run not timed before (s).
DEFAULT_EXPECTED_S = 1.0
#: Errors printed per run before the rest are only counted.
MAX_PRINTED_ERRORS = 20


@dataclass
class PassResult:
    traced: bool = False
    wall_s: float = 0.0
    functions: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    fingerprint: str = ""
    scenario_wall_s: dict = field(default_factory=dict)
    #: Per scenario: seconds per round of the reference probes just before
    #: and after it.
    reference_s: dict = field(default_factory=dict)
    #: Per burst or serving run: service time or median sojourn (s), and
    #: its weight in the mean: 1 per burst, completed requests per run.
    service_s: list = field(default_factory=list)
    service_weight: list = field(default_factory=list)
    #: Units that met their objective, of those judged: functions that
    #: completed (bursts), completed requests within the sojourn SLO (serving).
    met: int = 0
    judged: int = 0
    expense_usd: float = 0.0
    billed_units: int = 0    # functions (bursts) or completed requests (serving)
    outcome: Counter = field(default_factory=Counter)


def summarize(outcome, into: PassResult) -> None:
    """Fold one scenario's simulated figures into the pass totals."""
    for burst in outcome.bursts:
        r = burst.result
        into.service_s.append(burst.service_s)
        into.service_weight.append(1)
        into.met += r.concurrency - r.lost_functions
        into.judged += r.concurrency
        into.expense_usd += burst.expense_usd
        into.billed_units += r.concurrency
        fs = r.fault_stats
        into.outcome.update({
            "crashed_attempts": fs.crashed_attempts,
            "retries": fs.retries_scheduled,
            "hedged_attempts": fs.hedged_attempts,
            "hedge_wins": fs.hedge_wins,
            "wasted_gb_s": fs.wasted_billed_gb_seconds,
            "billed_gb_s": fs.total_billed_gb_seconds,
        })
    for s in outcome.servings:
        into.service_s.append(s.p50_sojourn_s)
        into.service_weight.append(s.n_completed)
        for _, count, violations, _ in s.slo.bucket_series():
            into.met += count - violations
            into.judged += count
        into.expense_usd += s.expense.total_usd
        into.billed_units += s.n_completed
        into.outcome.update({
            "crashed_attempts": s.resilience.crashes,
            "retries": s.resilience.retries,
            "wasted_gb_s": s.resilience.wasted_gb_seconds,
            "billed_gb_s": s.exec_gb_seconds,
            "evictions": s.evictions,
            "breaker_transitions": s.resilience.breaker_transitions,
        })
        if s.remediation is not None:
            into.outcome["remediation_applied"] += s.remediation.n_applied
            into.outcome["remediation_rollbacks"] += s.remediation.n_rollbacks


def probe_rounds(expected_s: float) -> int:
    """Reference rounds for one side of a run expected to take ``expected_s``."""
    return max(1, round(PROBE_SHARE * expected_s / REFERENCE_ROUND_S))


def reference_work(rounds: int) -> float:
    """Seconds per round a fixed slice of interpreter work takes right now.

    Dict, list, tuple and float churn, like the simulator's bookkeeping;
    it belongs to the benchmark, so no change to the program moves it.
    Its table is filled before timing and then overwritten in place, and
    the collector is off, so neither page faults for fresh memory nor the
    size of the program's live heap show in it.
    """
    enabled = gc.isenabled()
    gc.disable()
    table = {i: [i, float(i), (i, i)] for i in range(REFERENCE_ITEMS)}
    start = time.perf_counter()
    for r in range(rounds):
        for i in range(REFERENCE_ITEMS):
            table[i] = [i, float(i + r), (i, r)]
        sum(v[1] for v in table.values())
    elapsed = time.perf_counter() - start
    del table
    if enabled:
        gc.enable()
    return elapsed / rounds


def run_pass(scenarios, models, profiler=None, expected=None) -> PassResult:
    """One pass over the scenario list; only ``scenario.run`` is timed.

    ``expected`` (a previous pass) sizes the reference probes.
    """
    from bench_checks import fingerprint_outcome, outcome_violations
    from bench_layers import Shims, targets

    result = PassResult(traced=profiler is not None)
    digest = hashlib.sha256()
    for scenario in scenarios:
        result.attempted += 1
        gc.collect()
        rounds = probe_rounds(
            expected.scenario_wall_s.get(scenario.name, DEFAULT_EXPECTED_S)
            if expected is not None else DEFAULT_EXPECTED_S
        )
        before = reference_work(rounds)
        start = time.perf_counter()
        try:
            if profiler is None:
                outcome = scenario.run(models)
            else:
                profiler.label = scenario.name
                with Shims(profiler, targets()):
                    outcome = scenario.run(models)
        except Exception:
            result.failed += 1
            result.errors.append(f"{scenario.name} raised:\n{traceback.format_exc()}")
            digest.update(f"{scenario.name}: raised".encode())
            continue
        wall = time.perf_counter() - start
        result.reference_s[scenario.name] = (before + reference_work(rounds)) / 2.0
        result.scenario_wall_s[scenario.name] = wall
        result.wall_s += wall
        result.functions += outcome.functions
        violations = outcome_violations(outcome)
        if violations:
            result.failed += 1
            result.errors.extend(f"{scenario.name}: {v}" for v in violations)
        fingerprint_outcome(digest, outcome)
        summarize(outcome, result)
        del outcome
    result.fingerprint = digest.hexdigest()
    return result


def measure_setup(seed: int, probes: int) -> list[tuple[float, float]]:
    """``probes`` fresh interpreters doing the full set-up: per probe, its
    wall seconds and the mean of the reference probes that flank it."""
    samples = []
    rounds = probe_rounds(DEFAULT_EXPECTED_S)
    for _ in range(probes):
        before = reference_work(rounds)
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "bench_setup.py"), "--seed", str(seed)],
            cwd=ROOT, check=True, timeout=150, stdout=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - start
        samples.append((wall, (before + reference_work(rounds)) / 2.0))
        rounds = probe_rounds(wall)
    return samples


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "gc_enabled": gc.isenabled(),
        "gc_thresholds": list(gc.get_threshold()),
        "gc_collect_before_each_scenario": True,
        "threads_env": {k: os.environ.get(k) for k in bench_setup.THREAD_ENV},
    }


def check_fingerprints(passes: list[PassResult]) -> list[str]:
    first = passes[0].fingerprint
    return [
        f"pass {i}: fingerprint {p.fingerprint[:16]} != pass 0 {first[:16]}"
        for i, p in enumerate(passes) if p.fingerprint != first
    ]


def sim_metrics(p: PassResult) -> dict[str, float]:
    """The simulated figures of one pass (0.0 where every scenario raised)."""
    if not p.service_s:
        return {"sim_service_s": 0.0, "sim_usd_per_1k": 0.0, "sim_slo_attainment": 0.0}
    return {
        "sim_service_s": statistics.fmean(p.service_s, p.service_weight),
        "sim_usd_per_1k": 1000.0 * p.expense_usd / p.billed_units,
        "sim_slo_attainment": p.met / p.judged,
    }


UNITS = {
    "setup_s": "s", "wall_s": "s", "functions_per_s": "1/s", "peak_rss_mb": "MB",
    "sim_service_s": "s", "sim_usd_per_1k": "USD", "sim_slo_attainment": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_per_chain")):
        return "ratio"
    return "count"


def _fmt(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def _continue(elapsed: float, last: float, done: int, seconds: float, minimum: int) -> bool:
    return done < minimum or elapsed + last <= seconds


def calibrated(wall_s: float, reference_s: float) -> float:
    """``wall_s`` scaled to a host on which a :func:`reference_work` round
    takes :data:`REFERENCE_ROUND_S`."""
    return wall_s * REFERENCE_ROUND_S / reference_s


def calibrated_scenario_s(passes: list[PassResult], name: str) -> float:
    """Calibrated host seconds of one scenario: its wall time summed over
    the passes, calibrated by the reference probes that flank it summed
    likewise. A shared host's speed drifts by tens of percent over tens of
    seconds, and the flanking probes see the same drift."""
    timed = [p for p in passes if name in p.scenario_wall_s]
    return calibrated(
        sum(p.scenario_wall_s[name] for p in timed), sum(p.reference_s[name] for p in timed)
    )


def calibrated_pass_s(passes: list[PassResult]) -> float:
    """Calibrated host seconds of one pass: the scenarios' sum."""
    names = {name for p in passes for name in p.scenario_wall_s}
    return sum(calibrated_scenario_s(passes, name) for name in names)


def untraced_run(args, scenarios, models) -> tuple[dict, list[PassResult]]:
    setup = measure_setup(args.seed, SETUP_PROBES)
    passes: list[PassResult] = []
    start = time.perf_counter()
    last = 0.0
    while _continue(time.perf_counter() - start, last, len(passes), args.seconds, MIN_PASSES):
        t = time.perf_counter()
        passes.append(run_pass(scenarios, models, expected=passes[-1] if passes else None))
        last = time.perf_counter() - t
    walls = [p.wall_s for p in passes]
    wall = calibrated_pass_s(passes)
    metrics = {
        "setup_s": statistics.median(calibrated(w, r) for w, r in setup),
        "wall_s": wall,
        "functions_per_s": max(p.functions for p in passes) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **sim_metrics(passes[0]),
    }
    references = [r for p in passes for r in p.reference_s.values()]
    print(f"# setup_s samples ({len(setup)} set-ups, raw s / reference s per round): "
          + ", ".join(f"{w:.4f}/{r:.4f}" for w, r in setup))
    print(f"# wall_s {wall:.4f} s calibrated over {len(walls)} passes; raw pass walls "
          f"{_fmt(walls)} (median {statistics.median(walls):.4f}); reference median "
          f"{statistics.median(references):.4f} s per round (nominal {REFERENCE_ROUND_S})")
    for name in passes[0].scenario_wall_s:
        per = [p.scenario_wall_s[name] for p in passes if name in p.scenario_wall_s]
        print(f"#   scenario {name}: raw median {statistics.median(per):.4f} s, "
              f"calibrated {calibrated_scenario_s(passes, name):.4f} s")
    return metrics, passes


def traced_run(args, scenarios, models_fn, out_dir: Path) -> tuple[dict, list[PassResult]]:
    from bench_layers import (
        Profiler,
        Shims,
        host_tracer,
        layer_metrics,
        layer_table,
        setup_metrics,
        targets,
    )
    from repro.telemetry.exporters import chrome_trace

    tracer = host_tracer(time.perf_counter())
    tracer.new_process(f"simulator {args.workload} seed={args.seed}")
    setup_prof = Profiler(tracer=tracer)
    with tracer.span("setup", category="bench"), Shims(setup_prof, targets()):
        models = models_fn()

    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    profilers: list[Profiler] = []
    start = time.perf_counter()
    last = 0.0
    while _continue(time.perf_counter() - start, last, len(traced), args.seconds, MIN_TRACED_PAIRS):
        t = time.perf_counter()
        first = not profilers
        prof = Profiler(tracer=tracer if first else None)
        # Alternate which side of a pair runs first, so slow drift of the
        # host's speed does not bias the overhead estimate.
        for with_shims in ((False, True) if len(profilers) % 2 == 0 else (True, False)):
            if not with_shims:
                untraced.append(run_pass(
                    scenarios, models, expected=untraced[-1] if untraced else None))
                continue
            # Only the first traced pass keeps spans, so the trace stays small.
            with tracer.span("pass 1", category="bench") if first else nullcontext():
                traced.append(run_pass(
                    scenarios, models, prof, expected=traced[-1] if traced else None))
        profilers.append(prof)
        last = time.perf_counter() - t

    per_pass = [layer_metrics(prof, p.outcome) for prof, p in zip(profilers, traced)]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics.update(setup_metrics(setup_prof))
    untraced_wall = calibrated_pass_s(untraced)
    traced_wall = calibrated_pass_s(traced)
    metrics["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0

    first = profilers[0]
    provenance = [
        {"scenario": label, "path": path, "fallback_reason": reason}
        for label, path, reason in first.provenance
    ]
    (out_dir / "trace.json").write_text(json.dumps(chrome_trace(tracer), sort_keys=True))
    (out_dir / "layers.txt").write_text(
        f"setup (traced)\n{layer_table(setup_prof)}\n\npass 1 (traced)\n{layer_table(first)}\n"
    )
    (out_dir / "provenance.json").write_text(json.dumps(provenance, indent=1))
    print(f"# untraced wall_s {untraced_wall:.4f} s, traced wall_s {traced_wall:.4f} s "
          f"({len(traced)} pairs): trace_overhead_frac {metrics['trace_overhead_frac']:.4f}")
    print("# per-layer wall attribution, first traced pass:")
    for line in layer_table(first).splitlines():
        print(f"#   {line}")
    reasons = Counter((e["path"], e["fallback_reason"]) for e in provenance)
    for (path, reason), n in sorted(reasons.items(), key=str):
        print(f"# execution path: {n} burst(s) {path}" + (f" (fallback: {reason})" if reason else ""))
    fingerprints = {p.fingerprint for p in untraced} | {p.fingerprint for p in traced}
    print(f"# traced fingerprint {'==' if len(fingerprints) == 1 else '!='} untraced fingerprint")
    return metrics, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ProPack simulator benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bench_setup.import_repro()
    except SourceTreeMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scenarios = WORKLOADS[args.workload](args.seed)
    env = environment()
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))

    def models_fn():
        return bench_setup.build_models(args.seed)

    if args.trace:
        metrics, passes = traced_run(args, scenarios, models_fn, out_dir)
    else:
        metrics, passes = untraced_run(args, scenarios, models_fn())

    errors = [e for p in passes for e in p.errors]
    mismatches = check_fingerprints(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + len(mismatches)
    for err in (mismatches + errors)[:MAX_PRINTED_ERRORS]:
        print(f"# FAILED {err}")
    if len(errors) + len(mismatches) > MAX_PRINTED_ERRORS:
        print(f"# ... {len(errors) + len(mismatches) - MAX_PRINTED_ERRORS} more failures")
    print(f"# fingerprint workload={args.workload} seed={args.seed} sha256={passes[0].fingerprint}")
    print(f"# failed_ops_frac {failed / attempted:.6f} ({failed} of {attempted} scenario runs)")

    units = {name: (UNITS.get(name) or layer_unit(name)) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    (out_dir / "run.json").write_text(json.dumps({
        "args": vars(args),
        "environment": env,
        "fingerprint": passes[0].fingerprint,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "scenario_wall_s": p.scenario_wall_s,
             "reference_s": p.reference_s}
            for p in passes
        ],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
