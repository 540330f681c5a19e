"""Shared fixtures: forcing and observing the burst execution path.

``BurstDispatchKernel.run`` looks ``repro.engine.fluid.try_run_fluid`` up
at call time, so patching that one attribute is enough to force the
reference event loop (the patch refuses every burst) or to record why
each burst was or was not replayed in closed form.
"""

import contextlib

import pytest

from repro.engine import fluid


@pytest.fixture(scope="session")
def event_loop_only():
    """Context manager: every burst run inside it takes the event loop."""

    @contextlib.contextmanager
    def forced():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fluid, "try_run_fluid", lambda kernel, spec, image: None)
            yield

    return forced


@pytest.fixture(scope="session")
def fluid_reasons():
    """Context manager yielding a list that collects, for every burst
    offered to the fluid path inside it, ``fluid_ineligibility``'s verdict
    (``None`` = replayed in closed form)."""

    @contextlib.contextmanager
    def spy():
        reasons = []
        real = fluid.try_run_fluid

        def recording(kernel, spec, image):
            reasons.append(fluid.fluid_ineligibility(kernel, spec))
            return real(kernel, spec, image)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fluid, "try_run_fluid", recording)
            yield reasons

    return spy
