"""Benchmark set-up: locate the source tree, import the simulator, fit ProPack.

Run as a script it is one ``setup_s`` probe: a fresh interpreter that pays
the imports, the platform construction and the ProPack model fits a
campaign pays once, then exits. ``run.py`` times several such probes from
the outside and reports their median, so work moved into import or model
fitting shows up in ``setup_s``.

Usage::

    python3 perfbench/bench_setup.py --seed 1
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

#: The checkout root (this file lives in ``<root>/perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One process, one thread: BLAS pools would add threads the closed loop
#: does not model and that compete for the two cores of a small host.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SourceTreeMissing(RuntimeError):
    """The checkout does not hold the simulator's source tree."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Raises :class:`SourceTreeMissing` when ``src/repro`` is absent or an
    installed copy would shadow it, so the benchmark never measures a
    different build than the one it was checked out with.
    """
    for name in THREAD_ENV:
        os.environ.setdefault(name, "1")
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no simulator sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise SourceTreeMissing(f"repro imported from {origin}, not {SRC}")
    return repro


@dataclass(frozen=True)
class Models:
    """What every workload needs from set-up: fitted ProPack models."""

    seed: int
    propack: object          # repro.core.propack.ProPack on AWS
    sort_model: object       # ExecutionTimeModel for SORT
    xapian_model: object     # ExecutionTimeModel for XAPIAN
    scaling_model: object    # ScalingTimeModel (app-independent)


def build_models(seed: int) -> Models:
    """Construct the platforms and fit the models the workloads plan with.

    The fits run on their own platform (seeded by ``seed``), so the
    benchmark's bursts never share a run counter with the profiler.
    """
    import_repro()
    from repro import ProPack, ServerlessPlatform
    from repro.platform.providers import AWS_LAMBDA, GOOGLE_CLOUD_FUNCTIONS
    from repro.workloads import SORT, XAPIAN

    # Both providers the workloads burst on, as a campaign would build them.
    ServerlessPlatform(GOOGLE_CLOUD_FUNCTIONS, seed=seed)
    propack = ProPack(ServerlessPlatform(AWS_LAMBDA, seed=seed))
    sort_profile = propack.interference_profile(SORT)
    xapian_profile = propack.interference_profile(XAPIAN)
    scaling_profile = propack.scaling_profile()
    # The serving and resilience layers are imported by every serving
    # workload; a campaign pays for them at start-up too.
    import repro.remediation  # noqa: F401
    import repro.resilience  # noqa: F401
    import repro.serving  # noqa: F401

    return Models(
        seed=seed,
        propack=propack,
        sort_model=sort_profile.model,
        xapian_model=xapian_profile.model,
        scaling_model=scaling_profile.model,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        build_models(args.seed)
    except SourceTreeMissing as exc:
        print(f"bench_setup: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
