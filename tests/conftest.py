"""Fixtures shared by the test modules."""

import sys

import pytest

from kposi import matcore


@pytest.fixture
def table_calls(monkeypatch):
    """Count the calls that reach matcore._minor_values, the one entry point
    that builds every minor table, through any kposi module.

    Modules that import the function by name hold their own reference to it,
    so each kposi module whose _minor_values is the original is patched.
    """
    calls = []
    original = matcore._minor_values

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name == "kposi" or name.startswith("kposi.")) and getattr(mod, "_minor_values", None) is original:
            monkeypatch.setattr(mod, "_minor_values", counted)
    return calls


@pytest.fixture
def dense_kernel(monkeypatch):
    """dense_kernel(call): call() with the one gate of the pattern plan,
    matcore._minor_values, refusing every A (matcore._sparse_minors gives
    None), so every table comes from the dense kernel, matcore._minors.
    Every kposi module that holds the gate calls matcore's own meanwhile,
    also where a test has wrapped it there, so a test's recorder sees only
    the calls made outside."""

    def run(call):
        with monkeypatch.context() as m:
            m.setattr(matcore, "_sparse_minors", lambda A, k: None)
            for name, mod in list(sys.modules.items()):
                if (name == "kposi" or name.startswith("kposi.")) and hasattr(mod, "_minor_values"):
                    m.setattr(mod, "_minor_values", matcore._minor_values)
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
