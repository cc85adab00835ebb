import itertools

import numpy as np
import pytest

from kposi import (
    DomainError,
    PreconditionError,
    classify_sign_regularity,
    cone_membership,
    is_k_positive_system,
    sampled_cone_invariance,
    sign_variations,
)
from kposi.examples import CYCLIC_WEDGE, DT_NO_DLF
from kposi.signreg import ALL_ZERO, NONE, SR, SSR

from oracles import brute_force_splus, count_sign_changes_no_zeros


def random_vector_with_zeros(rng, n, p_zero=0.3):
    x = rng.standard_normal(n)
    x[rng.random(n) < p_zero] = 0.0
    return x


class TestSignVariations:
    def test_gap_vector(self):
        assert sign_variations([1.3, 0.0, 0.0, -np.pi]) == (1, 3)

    def test_constant_sign(self):
        assert sign_variations([1.0, 1.0, 1.0]) == (0, 0)

    def test_zero_vector(self):
        x = np.zeros(4)
        assert sign_variations(x) == (0, brute_force_splus(x))
        assert sign_variations(x) == (0, 3)

    def test_single_entry(self):
        assert sign_variations([0.0]) == (0, 0)
        assert sign_variations([-2.0]) == (0, 0)

    def test_against_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(800):
            n = int(rng.integers(1, 11))
            x = random_vector_with_zeros(rng, n)
            s_minus, s_plus = sign_variations(x)
            assert s_minus == count_sign_changes_no_zeros(x)
            assert s_plus == brute_force_splus(x)

    def test_inequality_chain(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            x = random_vector_with_zeros(rng, n)
            s_minus, s_plus = sign_variations(x)
            assert 0 <= s_minus <= s_plus <= n - 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = random_vector_with_zeros(rng, int(rng.integers(1, 9)))
            c = float(rng.uniform(0.1, 5.0)) * float(rng.choice([-1.0, 1.0]))
            # at 1e-170 and 1e170 products of neighbouring entries would
            # underflow to 0 or overflow
            for scale in (c, 1e-170, -1e-170, 1e170, -1e170):
                assert sign_variations(scale * x) == sign_variations(x)

    def test_tiny_alternating_pair(self):
        assert sign_variations([1e-200, -1e-200]) == (1, 1)
        assert cone_membership([1e-200, -1e-200], 1) == (False, False)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_small_sign_patterns(self, n):
        for entries in itertools.product((-1.0, -0.0, 0.0, 1.0), repeat=n):
            x = np.array(entries)
            assert sign_variations(x) == (count_sign_changes_no_zeros(x), brute_force_splus(x))


class TestConeMembership:
    def test_positive_vector_order_one(self):
        assert cone_membership([4.0, 2.0, 4.0], 1) == (True, True)

    def test_alternating_vector_not_in_order_one(self):
        assert cone_membership([1.0, -1.0, 1.0], 1) == (False, False)

    def test_top_order_contains_everything(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            x = random_vector_with_zeros(rng, n)
            assert cone_membership(x, n) == (True, True)

    def test_cones_are_not_convex(self):
        x = np.array([4.0, 2.0, 4.0])
        y = np.array([-2.0, -4.0, -2.0])
        assert cone_membership(x, 1) == (True, True)
        assert cone_membership(y, 1) == (True, True)
        z = 0.5 * (x + y)
        np.testing.assert_array_equal(z, [1.0, -1.0, 1.0])
        assert cone_membership(z, 1) == (False, False)

    def test_order_out_of_range(self):
        with pytest.raises(DomainError):
            cone_membership([1.0, 2.0], 3)


class TestClassify:
    def test_strongly_2_positive_regression(self):
        sc = classify_sign_regularity(DT_NO_DLF, 2)
        assert sc.verdict == SSR and sc.signature == 1
        # weakest order-2 minor of the integer form is 1, scaled by 1/49
        assert sc.witness_min.value == pytest.approx(1.0 / 49.0, rel=1e-12)
        assert sc.witness_min.rows.indices == (1, 3)
        assert sc.witness_min.cols.indices == (1, 3)

    def test_unstable_cyclic_matrix_is_weakly_positive_order2(self):
        sc = classify_sign_regularity(CYCLIC_WEDGE, 2)
        assert sc.verdict in (SR, SSR) and sc.signature == 1

    def test_identity_weak_because_of_zero_minors(self):
        sc = classify_sign_regularity(np.eye(3), 1)
        assert sc.verdict == SR and sc.signature == 1

    def test_all_zero_verdict(self):
        sc = classify_sign_regularity(np.zeros((3, 3)), 2)
        assert sc.verdict == ALL_ZERO and sc.signature is None

    def test_conflict_verdict_with_witnesses(self):
        sc = classify_sign_regularity(np.array([[1.0, -1.0], [1.0, 1.0]]), 1)
        assert sc.verdict == NONE and sc.signature is None
        assert sc.witness_conflict is not None
        w_pos, w_neg = sc.witness_conflict
        assert w_pos.value > 0.0 > w_neg.value

    def test_rectangular_input(self):
        A = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        sc = classify_sign_regularity(A, 1)
        assert sc.verdict == SSR and sc.signature == 1

    def test_order_one_matches_entrywise_signs(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            A = np.abs(rng.standard_normal((n, n)))
            A[rng.random((n, n)) < 0.2] = 0.0
            sc = classify_sign_regularity(A, 1)
            if np.all(A > 0.0):
                assert sc.verdict == SSR
            elif np.any(A > 0.0):
                assert sc.verdict == SR
            assert sc.signature in (1, None)

    def test_negation_flips_signature_by_order_parity(self):
        rng = np.random.default_rng(26)
        found = 0
        for _ in range(200):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            for k in range(1, n + 1):
                sc = classify_sign_regularity(A, k)
                if sc.verdict not in (SR, SSR):
                    continue
                flipped = classify_sign_regularity(-A, k)
                assert flipped.verdict == sc.verdict
                assert flipped.signature == (-1) ** k * sc.signature
                found += 1
        assert found > 50


class TestKPositivity:
    def test_strongly_2_positive(self):
        rep = is_k_positive_system(DT_NO_DLF, 2)
        assert rep.k_positive and rep.strongly_k_positive

    def test_weakly_2_positive_cyclic(self):
        rep = is_k_positive_system(CYCLIC_WEDGE, 2)
        assert rep.k_positive

    def test_mixed_sign_entries_not_1_positive(self):
        rep = is_k_positive_system(np.array([[1.0, -1.0], [1.0, 1.0]]), 1)
        assert not rep.k_positive and not rep.strongly_k_positive

    def test_singular_rejected(self):
        with pytest.raises(PreconditionError):
            is_k_positive_system(np.ones((3, 3)), 1)


class TestSampledConeInvariance:
    def test_strongly_positive_map_passes_strong_variant(self):
        rep = sampled_cone_invariance(DT_NO_DLF, 2, 1000, seed=0)
        assert rep.passed and rep.strong_checked and rep.num_tested > 200

    def test_identity_passes_every_order(self):
        for k in (1, 2, 3):
            rep = sampled_cone_invariance(np.eye(3), k, 300, seed=1)
            assert rep.passed

    def test_permutation_preserves_order_one_cone(self):
        rep = sampled_cone_invariance(np.array([[0.0, 1.0], [1.0, 0.0]]), 1, 500, seed=2)
        assert rep.passed and not rep.strong_checked

    def test_conflicted_matrix_produces_violations(self):
        rep = sampled_cone_invariance(np.array([[1.0, -1.0], [1.0, 1.0]]), 1, 500, seed=3)
        assert not rep.passed and len(rep.violations) > 0

    def test_seeded_runs_agree(self):
        a = sampled_cone_invariance(DT_NO_DLF, 2, 200, seed=7)
        b = sampled_cone_invariance(DT_NO_DLF, 2, 200, seed=7)
        assert a.num_tested == b.num_tested and a.passed == b.passed

    @pytest.mark.parametrize("count", [-3, 0, 2.5, True, "5"])
    def test_invalid_sample_count_refused(self, count):
        # -3 and 0 once passed with nothing tested, 2.5 raised TypeError
        with pytest.raises(DomainError, match="num_samples"):
            sampled_cone_invariance(np.eye(3), 1, num_samples=count, seed=0)

    def test_numpy_integer_sample_count_accepted(self):
        a = sampled_cone_invariance(DT_NO_DLF, 2, np.int64(200), seed=7)
        b = sampled_cone_invariance(DT_NO_DLF, 2, 200, seed=7)
        assert a.num_tested == b.num_tested and a.passed == b.passed
