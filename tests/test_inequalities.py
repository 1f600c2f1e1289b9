import numpy as np
import pytest
from hypothesis import given, strategies as st

from lambda_saga import check_norm_power_inequality, cp_dp, recursion_bound_trace


class TestConstants:
    def test_base_case(self):
        consts = cp_dp(2)
        assert (consts.c_p, consts.d_p) == (8.0, 3.0)

    def test_order_four(self):
        consts = cp_dp(4)
        assert (consts.c_p, consts.d_p) == (39.0, 18.0)

    def test_order_six_hand_evaluated(self):
        # C_6 = 3*6 + (4/6)(5*39 + 18) = 160, D_6 = 1 + (4/6)(39 + 5*18) = 87
        consts = cp_dp(6)
        assert (consts.c_p, consts.d_p) == (160.0, 87.0)

    @pytest.mark.parametrize("p", [2, 4, 6, 8, 10, 12])
    def test_d_never_exceeds_c(self, p):
        consts = cp_dp(p)
        assert consts.d_p <= consts.c_p

    @pytest.mark.parametrize("p", [0, 1, 3, -2])
    def test_rejects_non_even(self, p):
        with pytest.raises(ValueError):
            cp_dp(p)


class TestNormPowerInequality:
    def test_zero_perturbation_is_equality(self):
        a = np.array([1.5, -2.0, 0.5])
        holds, slack = check_norm_power_inequality(a, np.zeros(3), 2)
        assert holds
        assert slack == 0.0

    def test_zero_base_vector(self):
        b = np.array([2.0, 1.0])
        holds, slack = check_norm_power_inequality(np.zeros(2), b, 2)
        nb4 = float(b @ b) ** 2
        assert holds
        assert slack == pytest.approx(2.0 * nb4)  # RHS = 3||b||^4, LHS = ||b||^4

    @pytest.mark.parametrize("p", [2, 4])
    def test_stacked_pairs_match_single_pairs(self, p):
        rng = np.random.default_rng(7 + p)
        a = rng.standard_normal((50, 3))
        b = rng.standard_normal((50, 3))
        holds, slack = check_norm_power_inequality(a, b, p)
        assert holds.shape == slack.shape == (50,)
        for i in range(50):
            one = check_norm_power_inequality(a[i], b[i], p)
            assert one == (bool(holds[i]), float(slack[i]))

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_bulk_random_pairs(self, p, d):
        rng = np.random.default_rng(1000 + 10 * p + d)
        for _ in range(2000):
            a = rng.standard_normal(d)
            b = rng.standard_normal(d)
            holds, _ = check_norm_power_inequality(a, b, p)
            assert holds

    @given(
        st.lists(st.floats(-50, 50), min_size=3, max_size=3),
        st.lists(st.floats(-50, 50), min_size=3, max_size=3),
        st.sampled_from([2, 4, 6]),
    )
    def test_hypothesis_vectors(self, a, b, p):
        holds, _ = check_norm_power_inequality(np.array(a), np.array(b), p)
        assert holds


class TestRecursionBound:
    def test_plateau_on_reference_parameters(self):
        trace = recursion_bound_trace(
            a=1.0, b=1.0, alpha=1.0, beta=1.5, z1=1.0, n_max=100_000
        )
        assert np.isfinite(trace.sup_scaled)
        assert trace.plateaued
        # W_n = n Z_n grows like 2 sqrt(n), so the scaled sequence tends to 2
        assert trace.sup_scaled == pytest.approx(2.0, abs=0.01)

    def test_zero_start_zero_forcing(self):
        trace = recursion_bound_trace(
            a=1.0, b=0.0, alpha=1.0, beta=1.5, z1=0.0, n_max=1000
        )
        assert np.all(trace.z == 0.0)
        assert trace.sup_scaled == 0.0

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError, match="1 < beta < 2"):
            recursion_bound_trace(a=1.0, b=1.0, alpha=1.0, beta=2.5, z1=1.0, n_max=100)

    def test_rejects_a_above_cap(self):
        with pytest.raises(ValueError, match="2\\*\\*alpha"):
            recursion_bound_trace(a=3.0, b=1.0, alpha=1.0, beta=1.5, z1=1.0, n_max=100)

    def test_rejects_beta_at_a_plus_one_when_alpha_one(self):
        with pytest.raises(ValueError, match="a \\+ 1"):
            recursion_bound_trace(a=0.6, b=1.0, alpha=1.0, beta=1.7, z1=1.0, n_max=100)

    def test_doubling_inputs_doubles_trajectory_exactly(self):
        base = recursion_bound_trace(a=1.0, b=0.5, alpha=0.9, beta=1.6, z1=0.3,
                                     n_max=5000)
        doubled = recursion_bound_trace(a=1.0, b=1.0, alpha=0.9, beta=1.6, z1=0.6,
                                        n_max=5000)
        assert np.array_equal(doubled.z, 2.0 * base.z)
