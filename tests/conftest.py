import pytest
from hypothesis import settings

from gen import named_graphs

# the same examples on every run, and no per-example deadline on slow hosts
settings.register_profile("graphlets", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("graphlets")


@pytest.fixture(scope="session")
def named():
    return named_graphs()
