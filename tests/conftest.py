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


@pytest.fixture
def dense_kernel(monkeypatch):
    """dense_kernel(call): call() with matcore._sparse_table, the one gate of
    the pattern plan, refusing every A in every kposi module that holds it,
    also where a test has wrapped it there, so every table comes from the
    dense kernel, matcore._minors."""

    def run(call):
        with monkeypatch.context() as m:
            for name, mod in list(sys.modules.items()):
                if (name == "kposi" or name.startswith("kposi.")) and hasattr(mod, "_sparse_table"):
                    m.setattr(mod, "_sparse_table", lambda A, k: None)
            return call()

    return run


@pytest.fixture
def budget_prices(monkeypatch):
    """Record (nbytes, what) of each call of matcore._require_budget, the
    one capacity guard, through any kposi module, and let it decide as
    before.  Modules that import it by name are patched as table_calls
    patches theirs."""
    prices = []
    original = matcore._require_budget

    def recorded(nbytes, what):
        prices.append((nbytes, what))
        original(nbytes, what)

    for name, mod in list(sys.modules.items()):
        if (name == "kposi" or name.startswith("kposi.")) and getattr(mod, "_require_budget", None) is original:
            monkeypatch.setattr(mod, "_require_budget", recorded)
    return prices


@pytest.fixture
def cold_caches():
    """Empty the kernel's plan caches: the Laplace plans
    (matcore._laplace_plan) and the pattern plans with the rows of their
    compounds (matcore._PATTERN_PLANS), before the test and after it.  The
    fixture is the function that empties them, for a test that needs them
    cold again midway."""

    def clear():
        matcore._laplace_plan.cache_clear()
        matcore._PATTERN_PLANS.clear()

    clear()
    yield clear
    clear()
