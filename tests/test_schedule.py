import pytest
from hypothesis import given, strategies as st

from lambda_saga import StepSchedule, validate_rate_conditions


class TestGamma:
    def test_first_step_equals_c(self):
        assert StepSchedule(1.0, 1.0).gamma(1) == 1.0

    def test_direct_evaluation(self):
        assert StepSchedule(1.0, 1.0).gamma(4) == 0.25

    def test_fractional_exponent(self):
        # oracle: 2 / 16**0.75 = 2 / 8 evaluated by hand
        assert StepSchedule(2.0, 0.75).gamma(16) == pytest.approx(0.25, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        sched = StepSchedule(0.7, 0.8)
        values = sched.gammas(1, 50)
        assert all(values[n - 1] == sched.gamma(n) for n in range(1, 51))

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            StepSchedule(1.0, 1.0).gamma(0)


class TestValidation:
    def test_accepts_alpha_one(self):
        sched = StepSchedule(1.0, 1.0)
        assert (sched.c, sched.alpha) == (1.0, 1.0)

    def test_rejects_alpha_half(self):
        with pytest.raises(ValueError, match="alpha must exceed 1/2"):
            StepSchedule(1.0, 0.5)

    def test_rejects_negative_c(self):
        with pytest.raises(ValueError, match="c must be positive"):
            StepSchedule(-1.0, 0.75)

    def test_rejects_alpha_above_one(self):
        with pytest.raises(ValueError, match="alpha"):
            StepSchedule(1.0, 1.2)


@given(
    c=st.floats(min_value=1e-3, max_value=1e3),
    alpha=st.floats(min_value=0.51, max_value=1.0),
    n=st.integers(min_value=1, max_value=10**6),
)
def test_gamma_monotone_decreasing(c, alpha, n):
    sched = StepSchedule(c, alpha)
    assert sched.gamma(n + 1) <= sched.gamma(n)


class TestRateConditions:
    def test_l2_condition_holds(self):
        report = validate_rate_conditions(StepSchedule(1.0, 1.0), mu=0.9, p=1)
        assert report.l2_rate_ok  # 2*0.9 = 1.8 <= 2 and > 1

    def test_l2_condition_fails_below_one(self):
        report = validate_rate_conditions(StepSchedule(1.0, 1.0), mu=0.4, p=1)
        assert not report.l2_rate_ok  # 2*0.4 = 0.8 <= 1
        assert any("> 1" in m for m in report.messages)

    def test_l2p_condition_fails_above_cap(self):
        report = validate_rate_conditions(StepSchedule(1.0, 1.0), mu=1.5, p=2)
        assert not report.l2p_rate_ok  # p*c*mu = 3 > 2

    def test_boundary_equality_accepted(self):
        # 2*c*mu == 2**alpha exactly when c = 2**(alpha-1) and mu = 1
        alpha = 0.75
        report = validate_rate_conditions(
            StepSchedule(2 ** (alpha - 1), alpha), mu=1.0, p=1
        )
        assert report.l2_rate_ok
        assert report.messages == ()

    def test_pure_function(self):
        a = validate_rate_conditions(StepSchedule(0.8, 0.9), mu=1.1, p=3)
        b = validate_rate_conditions(StepSchedule(0.8, 0.9), mu=1.1, p=3)
        assert a == b

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            validate_rate_conditions(StepSchedule(1.0, 1.0), mu=-1.0, p=1)
        with pytest.raises(ValueError):
            validate_rate_conditions(StepSchedule(1.0, 1.0), mu=1.0, p=0)
