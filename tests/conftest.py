import os

import pytest
from hypothesis import settings

from gen import named_graphs

# the same examples on every run, and no per-example deadline on slow hosts
settings.register_profile("graphlets", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("graphlets")


@pytest.fixture(scope="session")
def named():
    return named_graphs()


@pytest.fixture
def eight_cpus(monkeypatch):
    """Let the parallel map run up to eight shares on a host with fewer CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
