"""Certify's two solves of I - M: the Neumann series or the two LUs.

stability._dlf_solve sums xi = sum_j M^j x and z = sum_j (M^T)^j y when
the compound M has no negative entry and its spectral radius predicts a
stop within r // _NEUMANN_BREAK_EVEN terms.  Every other case, and a
series that does not stop within that count, solves I - M and its
transpose by LU, bit for bit as np.linalg.solve on np.eye(r) - M does.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from kposi import (
    CyclicSpec,
    KDiagCertificate,
    KposiError,
    build_cyclic,
    certify_k_diag_stability,
    construct_dlf_nonneg,
    minor_table,
    stability,
)

from test_stein_enclosure import block_cycle, certify_large_pool

# np.linalg.solve as numpy has it, for the reference solves: the fixture
# below replaces it with a counting wrapper
SOLVE = np.linalg.solve

# componentwise relative distance allowed between the series and LU
AGREEMENT_RTOL = 1e-13


@pytest.fixture
def solves(monkeypatch):
    """Counts np.linalg.solve calls in `lu`, and lists in `series` whether
    each stability._neumann_sum call stopped (True) or gave up (False)."""
    calls = SimpleNamespace(lu=0, series=[])
    neumann_sum = stability._neumann_sum

    def counted_solve(*args):
        calls.lu += 1
        return SOLVE(*args)

    def recorded_sum(*args):
        s = neumann_sum(*args)
        calls.series.append(s is not None)
        return s

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(stability, "_neumann_sum", recorded_sum)
    return calls


def lu_reference(A, k, cert):
    """xi, z and d from np.linalg.solve on np.eye(r) - M and its transpose."""
    M = minor_table(A, k)
    lhs = np.eye(cert.r) - (-M if cert.sign_flipped else M)
    ones = np.ones(cert.r)
    xi, z = SOLVE(lhs, ones), SOLVE(lhs.T, ones)
    return xi, z, z / xi


def assert_lu_bit_for_bit(A, k, cert):
    for got, expected in zip((cert.xi, cert.z, cert.d), lu_reference(A, k, cert)):
        assert got.tobytes() == expected.tobytes()


def predicted_terms(rho):
    """The term count the dispatch predicts from the spectral radius."""
    return math.ceil(math.log(stability._EPS * (1.0 - rho)) / math.log(rho))


def lu_chain():
    """An n = 12 cyclic chain whose order-5 compound (r = 792) has spectral
    radius 0.74: the series would need about 123 terms."""
    rng = np.random.default_rng(65)
    alphas, betas = rng.uniform(0.9, 0.95, 12), rng.uniform(0.02, 0.04, 12)
    return build_cyclic(CyclicSpec(12, tuple(alphas), tuple(betas), ell=5))


def upper_shift(r):
    return np.diag(np.ones(r - 1), 1)


class TestSeriesPath:
    @pytest.mark.parametrize("seed", range(10))
    def test_certify_large_chains_agree_with_lu(self, seed, solves):
        for A in certify_large_pool(seed):
            cert = certify_k_diag_stability(A, 5)
            assert isinstance(cert, KDiagCertificate) and cert.r == 792
            assert solves.lu == 0 and solves.series == [True, True]
            solves.series.clear()
            for got, expected in zip((cert.xi, cert.z, cert.d), lu_reference(A, 5, cert)):
                assert np.all(np.abs(got - expected) <= AGREEMENT_RTOL * expected)


class TestLuFallback:
    """Every case the series leaves to LU gives the LU result bit for bit."""

    def test_radius_above_the_crossover(self, solves):
        A = lu_chain()
        cert = certify_k_diag_stability(A, 5)
        assert isinstance(cert, KDiagCertificate) and cert.r == 792
        assert predicted_terms(cert.compound_spectral_radius) > 792 // stability._NEUMANN_BREAK_EVEN
        assert solves.lu == 2 and solves.series == []
        assert_lu_bit_for_bit(A, 5, cert)

    def test_in_band_negative_entry(self, solves):
        # the sign gate reads -1e-13 as zero, so A certifies, but its
        # compound is not vouched nonnegative; without that entry the same
        # matrix sums the series
        A = block_cycle(300, 0.05, 0.05)
        certify_k_diag_stability(A, 1)
        assert solves.lu == 0 and solves.series == [True, True]
        solves.series.clear()
        A[0, 5] = -1e-13
        cert = certify_k_diag_stability(A, 1)
        assert solves.lu == 2 and solves.series == []
        assert_lu_bit_for_bit(A, 1, cert)

    def test_terms_that_outlast_the_radius_reach_the_cap(self, solves):
        # 0.1 I plus 0.5 on the superdiagonal: rho = 0.1 predicts 16 terms,
        # but the powers of the non-normal M decay like 0.6^j at first
        r = 300
        A = 0.1 * np.eye(r) + 0.5 * upper_shift(r)
        cert = certify_k_diag_stability(A, 1)
        assert predicted_terms(cert.compound_spectral_radius) <= r // stability._NEUMANN_BREAK_EVEN
        assert solves.series == [False] and solves.lu == 2
        assert_lu_bit_for_bit(A, 1, cert)

    def test_zero_radius(self, solves):
        r = 300
        A = 0.5 * upper_shift(r)
        cert = certify_k_diag_stability(A, 1)
        assert cert.compound_spectral_radius == 0.0
        assert solves.lu == 2 and solves.series == []
        assert_lu_bit_for_bit(A, 1, cert)


UP = np.logspace(-300, 300, 300)
DOWN = UP[::-1]
SHUFFLED = np.random.default_rng(93).permutation(UP)

# name: (M, x, y, whether each series stopped), with x or y spanning
# 1e-300 to 1e300; None is the default right-hand side
EXTREME_SIDES = {
    "cycle-up-down": ("cycle", UP, DOWN, [True, True]),
    "cycle-x-up": ("cycle", UP, None, [True, True]),
    "cycle-y-down": ("cycle", None, DOWN, [True, True]),
    "bidiagonal-down-up": ("bidiagonal", DOWN, UP, [True, True]),
    "cycle-down-up": ("cycle", DOWN, UP, [False]),
    "cycle-shuffled": ("cycle", SHUFFLED, SHUFFLED, [False]),
}


def extreme_matrix(kind):
    """block_cycle(300, 0.05, 1e-6), or 0.05 I plus 0.05 on the superdiagonal."""
    if kind == "cycle":
        return block_cycle(300, 0.05, 1e-6)
    return 0.05 * np.eye(300) + 0.05 * upper_shift(300)


def refusal(call):
    """The class and text of what call raises; it must raise."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", EXTREME_SIDES)
def test_extreme_right_hand_sides_are_refused_as_on_lu(name, solves, monkeypatch):
    # each x, y makes the construction refuse: d overflows or underflows,
    # or the Stein check fails: the bound from xi does not clear pd_tol,
    # so the eigen-solve decides.  The refusal must be the one LU gives,
    # whether the series stopped or gave up.  pyproject.toml turns numpy's
    # RuntimeWarnings into errors here, and none may be raised: each
    # refusal is a KposiError.
    kind, x, y, stopped = EXTREME_SIDES[name]
    A = extreme_matrix(kind)
    series = refusal(lambda: construct_dlf_nonneg(A, x=x, y=y))
    assert issubclass(series[0], KposiError), series
    assert solves.series == stopped and solves.lu == (0 if all(stopped) else 2)
    monkeypatch.setattr(stability, "_neumann_solves", lambda *args: None)
    assert refusal(lambda: construct_dlf_nonneg(A, x=x, y=y)) == series
