"""Deterministic per-subsystem random streams.

Every experiment takes one integer seed. Subsystems (scheduler, builder,
network, execution, workload) each draw from an independent stream derived
from that seed and a label, so adding noise draws in one subsystem never
perturbs another — a standard trick for reproducible parallel-systems
simulation.
"""

from __future__ import annotations

import zlib

import numpy as np


class RandomStreams:
    """A family of independent ``numpy`` generators derived from one seed."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, label: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``label``."""
        gen = self._streams.get(label)
        if gen is None:
            # crc32 keeps the derivation stable across processes/platforms
            # (unlike hash(), which is salted per interpreter run).
            child = np.random.SeedSequence([self.seed, zlib.crc32(label.encode())])
            gen = np.random.default_rng(child)
            self._streams[label] = gen
        return gen

    def lognormal_factor(self, label: str, sigma: float) -> float:
        """A multiplicative noise factor with median 1.0.

        ``sigma`` is the log-space standard deviation; ``sigma == 0`` returns
        exactly 1.0 so noiseless simulations stay bit-deterministic.
        """
        if sigma <= 0.0:
            return 1.0
        return float(np.exp(self.stream(label).normal(0.0, sigma)))

    def pareto_factors(
        self, label: str, alpha: float, size: int, cap: float = 1e6
    ) -> np.ndarray:
        """Bounded-Pareto multiplicative factors with unit minimum.

        Inverse-CDF draws of a Pareto(``alpha``) variable truncated at
        ``cap`` — the standard model for the heavy-tailed per-function
        invocation rates observed in production serverless traces.
        """
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if size < 1:
            raise ValueError("size must be >= 1")
        u = self.stream(label).random(size)
        return np.minimum((1.0 - u) ** (-1.0 / alpha), cap)

    def spawn(self, label: str) -> "RandomStreams":
        """Derive an independent child family (e.g. per repetition)."""
        return RandomStreams(zlib.crc32(label.encode()) ^ self.seed)
