"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.llm import simulated


@pytest.fixture(autouse=True)
def _restore_model_registry():
    """Undo every model a test registers, so no test sees another's.

    The model registry is process-wide, and code such as the fuzz
    properties iterates ``available_models()`` at run time.
    """
    saved = dict(simulated._REGISTRY)
    yield
    simulated._REGISTRY.clear()
    simulated._REGISTRY.update(saved)
