import numpy as np
import pytest
from scipy import integrate

from pmrisk import DomainError, Rng, normal_cdf, normal_quantile, t_cdf
from pmrisk.ghdist import _log_bessel_point, _log_bessel_terms
from pmrisk.statkit import normal_pdf, t_pdf

# Oracle values, frozen from adaptive quadrature of the respective densities
# (see the quadrature recomputation inside the tests that keep the oracle live).
PHI_1 = 0.8413447460685429
PHI_196 = 0.9750021048517795
Q_975 = 1.959963984540054
T_1178_AT_1 = 0.8312952547973111
K0_1 = 0.4210244382406774


def _normal_pdf(t):
    return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)


class TestNormalCdf:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_quadrature_oracle_values(self):
        assert abs(normal_cdf(1.0) - PHI_1) <= 1e-12
        assert abs(normal_cdf(1.96) - PHI_196) <= 1e-12
        live, _ = integrate.quad(_normal_pdf, -np.inf, 1.0)
        assert abs(normal_cdf(1.0) - live) <= 1e-8  # quad err ~3e-9

    def test_reflection_identity(self):
        xs = np.linspace(-8.0, 8.0, 101)
        assert np.all(np.abs(normal_cdf(xs) + normal_cdf(-xs) - 1.0) <= 1e-12)

    def test_nondecreasing(self):
        xs = np.linspace(-10.0, 10.0, 2001)
        assert np.all(np.diff(normal_cdf(xs)) >= 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            normal_cdf(np.inf)
        with pytest.raises(DomainError):
            normal_cdf(np.nan)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_inverse_identity(self):
        assert abs(normal_quantile(normal_cdf(1.5)) - 1.5) <= 1e-10

    def test_bisection_oracle_value(self):
        assert abs(normal_quantile(0.975) - Q_975) <= 1e-9

    def test_round_trip_grid(self):
        ps = np.linspace(1e-6, 1.0 - 1e-6, 97)
        assert np.max(np.abs(normal_cdf(normal_quantile(ps)) - ps)) <= 1e-10

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(DomainError):
            normal_quantile(p)


class TestTCdf:
    def test_symmetry_at_zero(self):
        for nu in (0.7, 1.0, 11.78, 250.0):
            assert t_cdf(0.0, nu) == 0.5

    def test_cauchy_closed_form(self):
        assert abs(t_cdf(1.0, 1.0) - 0.75) <= 1e-12

    def test_quadrature_oracle_fractional_dof(self):
        assert abs(t_cdf(1.0, 11.78) - T_1178_AT_1) <= 1e-10

    def test_limits_to_normal(self):
        xs = np.linspace(-4.0, 4.0, 33)
        assert np.max(np.abs(t_cdf(xs, 1e6) - normal_cdf(xs))) < 1e-3

    def test_rejects_bad_dof(self):
        with pytest.raises(DomainError):
            t_cdf(0.3, 0.0)
        with pytest.raises(DomainError):
            t_cdf(0.3, -2.0)


class TestDensities:
    @pytest.mark.parametrize("nu", [1.0, 3.0, 11.78])
    def test_t_pdf_is_the_cdf_slope(self, nu):
        xs = np.linspace(-30.0, 0.0, 31)  # lower half: no cancellation near 1
        h = 1e-5
        slope = (t_cdf(xs + h, nu) - t_cdf(xs - h, nu)) / (2.0 * h)
        assert np.allclose(t_pdf(xs, nu), slope, rtol=1e-6, atol=0.0)
        assert np.array_equal(t_pdf(xs, nu), t_pdf(-xs, nu))

    def test_cauchy_closed_form(self):
        assert abs(t_pdf(1.0, 1.0) - 1.0 / (2.0 * np.pi)) <= 1e-15

    def test_normal_pdf_is_the_cdf_slope(self):
        xs = np.linspace(-8.0, 0.0, 17)
        h = 1e-5
        slope = (normal_cdf(xs + h) - normal_cdf(xs - h)) / (2.0 * h)
        assert np.allclose(normal_pdf(xs), slope, rtol=1e-6, atol=0.0)
        assert np.array_equal(normal_pdf(xs), normal_pdf(-xs))

    def test_reject_nonfinite(self):
        with pytest.raises(DomainError):
            t_pdf(np.nan, 3.0)
        with pytest.raises(DomainError):
            normal_pdf(np.inf)


# e^x K_order(x), as the GH density evaluates it (through its logarithm):
# the kernel at the sample points and the normaliser's point evaluator; each
# test checks both
SCALED_K = (
    lambda order, x: float(np.exp(_log_bessel_terms(order, np.array([x]))[0][0])),
    lambda order, x: float(np.exp(_log_bessel_point(order, x)[0])),
)


class TestBesselK:
    def test_half_integer_closed_form(self):
        for scaled_k in SCALED_K:
            assert abs(scaled_k(0.5, 2.0) - np.sqrt(np.pi / 4.0)) <= 1e-12

    def test_symmetry_in_order(self):
        for scaled_k in SCALED_K:
            assert abs(scaled_k(-0.7, 1.3) - scaled_k(0.7, 1.3)) <= 1e-14

    def test_integral_representation_oracle(self):
        live, _ = integrate.quad(lambda t: np.exp(-np.cosh(t)), 0.0, 30.0)
        for scaled_k in SCALED_K:
            k0 = scaled_k(0.0, 1.0) * np.exp(-1.0)
            assert abs(k0 - K0_1) <= 1e-10
            assert abs(k0 - live) <= 1e-7

    @pytest.mark.parametrize("order", [-2.0, -0.5, 0.7, 1.5, 3.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0, 50.0])
    def test_recurrence(self, order, x):
        # e^x is common to all three terms, so the scaled K obeys the recurrence too
        for scaled_k in SCALED_K:
            lhs = scaled_k(order + 1.0, x)
            rhs = scaled_k(order - 1.0, x) + (2.0 * order / x) * scaled_k(order, x)
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)


class TestRng:
    def test_same_key_same_stream(self):
        a = Rng(42, 7).generator().standard_normal(16)
        b = Rng(42, 7).generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(42, 7).generator().standard_normal(16)
        b = Rng(42, 8).generator().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_split_is_deterministic_and_injective_in_practice(self):
        children = {Rng(1).split(i).stream for i in range(10_000)}
        assert len(children) == 10_000
        assert Rng(1).split(5) == Rng(1).split(5)
