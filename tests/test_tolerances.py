"""The library takes its tolerances from its `tol` arguments and defaults only.

KPOSI_TOL is a command-line setting: kposi.cli reads it once per run and
passes the value on as an explicit `tol` (tests/test_cli.py checks that
side).  Library calls given no `tol` answer as if it were unset.
"""

import pickle

import pytest

from kposi import (
    KposiError,
    certify_k_diag_stability,
    classify_sign_regularity,
    examples,
    necessary_dt_diag,
)
from kposi.matcore import minor_tol, pd_tol, zero_tol

PAPER_MATRICES = (examples.DT_NO_DLF, examples.CT_NO_DLF, examples.CERT_3X3, examples.CYCLIC_WEDGE)


def outcome(call):
    """What call returns, or the class and text of the KposiError it raises."""
    try:
        return call()
    except KposiError as exc:
        return type(exc).__name__, str(exc)


def library_answers() -> bytes:
    """The default tolerances, the paper-example checks, and classify, certify
    and the DT screen on the paper's matrices at every order, pickled."""
    answers = [(zero_tol(), pd_tol(), minor_tol()), list(examples.paper_example_checks())]
    for A in PAPER_MATRICES:
        n = A.shape[0]
        answers += [outcome(lambda: classify_sign_regularity(A, k)) for k in range(1, n + 1)]
        answers += [outcome(lambda: certify_k_diag_stability(A, k)) for k in range(1, n)]
        answers.append(outcome(lambda: necessary_dt_diag(A)))
    return pickle.dumps(answers)


@pytest.mark.parametrize("value", ["0.5", "abc"])
def test_the_library_ignores_kposi_tol(monkeypatch, value):
    monkeypatch.delenv("KPOSI_TOL", raising=False)
    unset = library_answers()
    monkeypatch.setenv("KPOSI_TOL", value)
    assert (zero_tol(), pd_tol(), minor_tol()) == (1e-9, 1e-10, 0.0)
    checks = list(examples.paper_example_checks())
    assert checks and all(ok for _, ok, _ in checks), checks
    assert library_answers() == unset
