import pytest

from graphfair import oracle


@pytest.fixture(autouse=True)
def empty_share_cache():
    """Start every test with an empty share cache.

    Cached records are shared by every agent with the same utility function,
    so a record left by an earlier test could hide a keying bug.
    """
    oracle.clear_cache()
