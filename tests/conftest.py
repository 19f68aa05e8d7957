import functools
from dataclasses import dataclass
from typing import Any

import pytest

from graphfair import oracle


@pytest.fixture(autouse=True)
def empty_share_cache():
    """Start every test with an empty share cache.

    Cached records are shared by every agent with the same utility function,
    so a record left by an earlier test could hide a keying bug.
    """
    oracle.clear_cache()


@dataclass
class Call:
    """One recorded call: its arguments and, once it returns, its result."""

    args: tuple
    kwargs: dict
    result: Any = None


@pytest.fixture
def record(monkeypatch):
    """record(module, name) logs every call made through module.name.

    The module attribute is rebound to a wrapper for the rest of the test,
    so patch the namespace the caller looks the name up in: a name bound by
    `from .x import f` lives in the importing module too.  Calls are logged
    in the order they start, so an outer call precedes the calls it makes.
    """

    def install(module, name: str) -> list[Call]:
        calls: list[Call] = []
        original = getattr(module, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            call = Call(args, kwargs)
            calls.append(call)
            call.result = original(*args, **kwargs)
            return call.result

        monkeypatch.setattr(module, name, wrapper)
        return calls

    return install
