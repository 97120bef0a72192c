"""Shared fixtures: tier-1 runs the same whatever the shell exports."""

import pytest


@pytest.fixture(autouse=True)
def _no_budget_env(monkeypatch):
    # the CLI reads KSGROUP_BUDGET_MS as a default budget, so an exported
    # value would stop the in-process golden replays early; tests that
    # need it set it themselves, and subprocesses inherit the cleaned env
    monkeypatch.delenv("KSGROUP_BUDGET_MS", raising=False)
