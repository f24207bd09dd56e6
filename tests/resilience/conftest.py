"""Fixtures for the resilience tests."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def clean_resilience(monkeypatch):
    """Zero the resilience counters and strip chaos from the
    environment so every test reads deltas from a known baseline."""
    from repro.resilience.stats import RESILIENCE

    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    RESILIENCE.reset()
    yield
    RESILIENCE.reset()
