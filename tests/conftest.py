"""Fixtures shared by the test modules."""

import sys

import pytest

from kposi import matcore


@pytest.fixture
def table_calls(monkeypatch):
    """Count the calls that reach matcore._minor_table, which builds every minor
    table, through any kposi module.

    Modules that import the function by name hold their own reference to it,
    so each kposi module whose _minor_table is the original is patched.
    """
    calls = []
    original = matcore._minor_table

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name == "kposi" or name.startswith("kposi.")) and getattr(mod, "_minor_table", None) is original:
            monkeypatch.setattr(mod, "_minor_table", counted)
    return calls
