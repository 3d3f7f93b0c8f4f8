import hashlib

import numpy as np
import pytest
from scipy import special, stats

from pmrisk import (
    CalibrationError,
    CityPortfolio,
    CopulaSpec,
    DomainError,
    Rng,
    cholesky_factor,
    gh_moments,
    gh_quantile,
    marginal_transform,
    portfolio_concentration,
    scaling_factor,
    t_cdf,
)
from pmrisk.copula import CopulaDraw, copula_uniforms, dependent_vector
from pmrisk.ghdist import HermiteTable, TableQuantiles

from conftest import GH_ROWS, MOMENTS_OVERFLOW, NU, SIGMA, model_draw



class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky_factor(np.eye(4)), np.eye(4))

    def test_two_by_two_closed_form(self):
        rho = 0.5
        L = cholesky_factor(np.array([[1.0, rho], [rho, 1.0]]))
        expected = np.array([[1.0, 0.0], [rho, np.sqrt(1.0 - rho**2)]])
        assert np.allclose(L, expected, atol=1e-15, rtol=0.0)

    def test_preset_matrix_round_trip(self):
        L = cholesky_factor(SIGMA)
        assert np.all(np.tril(L) == L)
        assert np.max(np.abs(L @ L.T - SIGMA)) <= 1e-12

    def test_non_pd_reports_pivot(self):
        bad = np.array([[1.0, 0.99, 0.0], [0.99, 1.0, 0.99], [0.0, 0.99, 1.0]])
        with pytest.raises(CalibrationError, match="pivot"):
            cholesky_factor(bad)

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            cholesky_factor(np.array([[1.0, 0.2], [0.3, 1.0]]))


def _with_copula(spec):
    """A portfolio of the first GH rows under ``spec``; only its copula is drawn."""
    d = spec.dimension
    return CityPortfolio(names=tuple(GH_ROWS)[:d], weights=np.full(d, 1.0 / d),
                         pm0=np.full(d, 100.0), scale=np.ones(d),
                         marginals=tuple(GH_ROWS.values())[:d], copula=spec)


class TestSampleCopula:
    def test_fixed_seed_reproducible(self, portfolio):
        a = model_draw(portfolio, Rng(5), 64)
        b = model_draw(portfolio, Rng(5), 64)
        assert np.array_equal(a.v, b.v) and np.array_equal(a.y, b.y)

    def test_marginal_is_student_t(self):
        spec = CopulaSpec(family="t", sigma=np.eye(3), nu=NU)
        draw = model_draw(_with_copula(spec), Rng(8), 100_000)
        stat = stats.kstest(draw.v[:, 0], lambda x: t_cdf(x, NU))
        assert stat.pvalue > 0.01

    def test_kendall_tau_matches_arcsine_relation(self, portfolio):
        draw = model_draw(portfolio, Rng(13), 1_000_000)
        tau = stats.kendalltau(draw.v[:, 0], draw.v[:, 2]).statistic
        expected = 2.0 / np.pi * np.arcsin(SIGMA[0, 2])  # Bj-Cd entry 0.744
        assert abs(tau - expected) <= 0.005

    def test_normal_family_equals_t_path_without_mixing(self):
        sigma = SIGMA.copy()
        normal_draw = model_draw(_with_copula(CopulaSpec(family="normal", sigma=sigma)),
                                 Rng(3), 256)
        t_draw = model_draw(_with_copula(CopulaSpec(family="t", sigma=sigma, nu=NU)),
                            Rng(3), 256)
        L = cholesky_factor(sigma)
        # the normal path is L z; the t path is L z divided by sqrt(Y/nu)
        assert np.array_equal(normal_draw.v, normal_draw.z @ L.T)
        recovered = t_draw.v * np.sqrt(t_draw.y / NU)[:, None]
        assert np.allclose(t_draw.z @ L.T, recovered, atol=0.0, rtol=1e-15)

    def test_mixing_variable_chi_square_mean(self, single_city):
        # Y at the identity tilt is chi^2_nu; 0.02 is ~4 s.e. of the mean at 1e6 draws
        y = model_draw(single_city, Rng(2), 1_000_000).y
        assert abs(y.mean() - NU) <= 0.02

    def test_mixing_variable_chi_square_variance(self, single_city):
        n = 1_000_000
        y = model_draw(single_city, Rng(2), n).y
        # Var(S^2) ~ (mu4 - sigma^4)/n with mu4 = sigma^4 (3 + 12/nu) for chi^2
        se = np.sqrt((8.0 * NU**2 + 48.0 * NU) / n)
        assert abs(y.var() - 2.0 * NU) <= 5.0 * se

    def test_independent_uniforms_pass_chi_square(self):
        spec = CopulaSpec(family="normal", sigma=np.eye(5))
        draw = model_draw(_with_copula(spec), Rng(17), 100_000)
        u = copula_uniforms(spec, draw.v).ravel()
        counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
        expected = u.size / 20.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, 19)


class TestMarginalTransform:
    def test_zero_variate_gives_median(self, portfolio):
        z = np.zeros((1, 5))
        y = np.full(1, NU)  # V = L z / sqrt(y/nu) = 0
        draw = CopulaDraw(z=z, y=y, v=dependent_vector(portfolio.copula, portfolio.chol, z, y))
        r = marginal_transform(portfolio, draw)
        for d, marginal in enumerate(portfolio.marginals):
            assert abs(r[0, d] - gh_quantile(marginal, 0.5)) <= 1e-9

    def test_increasing_in_variate(self, single_city):
        grid = np.linspace(-6.0, 6.0, 41)
        draw = CopulaDraw(z=grid[:, None], y=None, v=grid[:, None])
        # bypass the mixing variable: feed V directly through a normal-family twin
        normal_twin = CityPortfolio(
            names=single_city.names,
            weights=single_city.weights,
            pm0=single_city.pm0,
            scale=single_city.scale,
            marginals=single_city.marginals,
            copula=CopulaSpec(family="normal", sigma=np.eye(1)),
        )
        r = marginal_transform(normal_twin, draw)
        assert np.all(np.diff(r[:, 0]) > 0.0)

    def test_composed_oracle_chain(self, portfolio):
        z = np.array([[2.0, 0.0, 0.0, 0.0, 0.0]])
        y = np.full(1, NU)
        v = dependent_vector(portfolio.copula, portfolio.chol, z, y)
        draw = CopulaDraw(z=z, y=y, v=v)
        r = marginal_transform(portfolio, draw)
        expected = gh_quantile(portfolio.marginals[0], t_cdf(2.0, NU))
        assert abs(r[0, 0] - expected) <= 1e-6


def _twin(portfolio, copula=None, scale=None):
    return CityPortfolio(
        names=portfolio.names,
        weights=portfolio.weights,
        pm0=portfolio.pm0,
        scale=portfolio.scale if scale is None else np.asarray(scale, dtype=float),
        marginals=portfolio.marginals,
        copula=portfolio.copula if copula is None else copula,
    )


_MAP_CASES = {
    "paper": lambda p: p,
    "t3": lambda p: _twin(p, copula=CopulaSpec(family="t", sigma=SIGMA, nu=3.0)),
    "normal": lambda p: _twin(p, copula=CopulaSpec(family="normal", sigma=SIGMA)),
    "scaled": lambda p: _twin(p, scale=[0.5, 1.7, 1.0, 2.3, 0.8]),
}

# Knot count and sha256 of the knots and the coefficients, in (power, row,
# city) order, of each case's map, built from 128 start intervals on the GH
# tables of test_ghdist.TABLE_FINGERPRINTS (numpy 2.4, scipy 1.17, x86-64).
MAP_FINGERPRINTS = {
    "normal": (1020, "fa838dd805c1093441c31b07f4acf096957e1e70740be60075326b4c57c5930b"),
    "paper": (941, "086a6a4a5ebd16be794b87253c732c9fe89ef71e0319440cce54d9a069944b1b"),
    "scaled": (1025, "f810df7c1f5914a0ccb2aa7e6c41683a2f21bc1338028e21d355fad84095c4d2"),
    "t3": (903, "120fdf927e6aa6e6c3779acefb0a7bebbf993d5800fd6e623f90b317153759f9"),
}


def _flat_index_call(table, x):
    """The reference evaluation: one flat index row * D + column into the
    coefficients laid out (4, K + 1, D), as ``HermiteTable`` read them before
    it read one column at a time."""
    coef = np.ascontiguousarray(table.coef.transpose(0, 2, 1))
    row = table.rows(x)
    d = x - table.anchors[row]
    row *= coef.shape[2]
    row += np.arange(coef.shape[2])
    r = coef[3].take(row)
    for j in (2, 1, 0):
        r *= d
        r += coef[j].take(row)
    return r


def _flat_index_value_and_slope(table, x):
    coef = table.coef.transpose(0, 2, 1)
    row = table.rows(x)
    c0, c1, c2, c3 = coef[:, row, np.arange(coef.shape[2])]
    d = x - table.anchors[row]
    return ((c3 * d + c2) * d + c1) * d + c0, (3.0 * c3 * d + 2.0 * c2) * d + c1


def _mapped(portfolio, v):
    cols = np.repeat(np.asarray(v, dtype=float)[:, None], portfolio.dimension, axis=1)
    return marginal_transform(portfolio, CopulaDraw(z=cols, y=None, v=cols))


def _exact_chain(portfolio, v):
    u = copula_uniforms(portfolio.copula, np.asarray(v, dtype=float))
    return np.stack(
        [gh_quantile(m, u) * s for m, s in zip(portfolio.marginals, portfolio.scale)], axis=1
    )


class TestLogRatioMap:
    """The tabulated map against the exact chain s * G^{-1}(clip(F(v)))."""

    @pytest.fixture(params=sorted(_MAP_CASES))
    def case(self, request, portfolio):
        return _MAP_CASES[request.param](portfolio)

    @pytest.mark.parametrize("name", sorted(_MAP_CASES))
    def test_map_matches_fingerprint(self, name, portfolio):
        table = _MAP_CASES[name](portfolio).log_ratio_map
        # coefficients in (power, row, city) order, whatever the stored layout
        coef = np.ascontiguousarray(table.coef.transpose(0, 2, 1))
        digest = hashlib.sha256(table.knots.tobytes() + coef.tobytes())
        assert (table.knots.size, digest.hexdigest()) == MAP_FINGERPRINTS[name]

    def test_matches_exact_chain(self, case):
        x = np.sort(np.random.default_rng(3).uniform(-14.0, 14.0, 60_000))
        v = np.sinh(x)
        u = copula_uniforms(case.copula, v)
        err = np.max(np.abs(_mapped(case, v) - _exact_chain(case, v)), axis=1)
        inner = (u >= 1e-6) & (u <= 1.0 - 1e-6)
        outer = (u >= 1e-9) & (u <= 1.0 - 1e-9)
        assert inner.sum() > 1000
        assert err[inner].max() <= 1e-8
        assert err[outer].max() <= 1e-6

    def test_constant_and_exact_beyond_the_clip(self, case):
        far = np.array([-1e300, -1e6, -1e3, 1e3, 1e6, 1e300])
        u = copula_uniforms(case.copula, far)
        far = far[(u <= 1e-15) | (u >= 1.0 - 1e-15)]
        assert {-1e300, 1e300} <= set(far)
        assert np.array_equal(_mapped(case, far), _exact_chain(case, far))

    def test_nondecreasing(self, case):
        v = np.sinh(np.linspace(-14.0, 14.0, 200_001))
        assert np.all(np.diff(_mapped(case, v), axis=0) >= 0.0)

    def test_build_solves_all_cities_in_one_call_per_round(self, portfolio, monkeypatch):
        calls = []
        solve = TableQuantiles.__call__

        def spy(self, u):
            calls.append((self._coef.shape, u.size))
            return solve(self, u)

        monkeypatch.setattr(TableQuantiles, "__call__", spy)
        table = _twin(portfolio).log_ratio_map
        # one exact-chain evaluation for the start grid and one per refinement
        # round, each on the stacked tables of all five cities
        stacked = TableQuantiles(portfolio.marginals)._coef.shape
        assert [shape for shape, _ in calls] == [stacked] * 3
        # the size of the build, not its time
        assert table.knots.size <= 1000
        assert sum(size for _, size in calls) <= 2000

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_variates(self, portfolio, bad):
        with pytest.raises(DomainError):
            _mapped(portfolio, np.array([0.0, bad]))

    def test_built_on_first_use(self, portfolio):
        fresh = _twin(portfolio)
        assert "log_ratio_map" not in vars(fresh)
        _mapped(fresh, np.zeros(1))
        assert "log_ratio_map" in vars(fresh)

    def test_value_and_slope(self, portfolio):
        table = portfolio.log_ratio_map
        knots = table.knots
        # interior points, and each interior knot, so its differences straddle it
        x = np.concatenate([np.random.default_rng(5).uniform(knots[0] + 1e-3, knots[-1] - 1e-3,
                                                            5000), knots[1:-1]])
        v = np.sinh(x)[:, None] * np.ones(portfolio.dimension)
        value, slope = table.value_and_slope(v)
        assert np.array_equal(value, table(v))
        h = 1e-6 * np.hypot(1.0, v)
        central = (table(v + h) - table(v - h)) / (2.0 * h)
        assert np.all(slope > 0.0)
        assert np.max(np.abs(central / slope - 1.0)) <= 1e-6
        far = np.concatenate([[-1e300, -1e3, 1e3, 1e300], np.sinh(knots[[0, -1]]) * (1.0 + 1e-9)])
        far = far[:, None] * np.ones(portfolio.dimension)
        value, slope = table.value_and_slope(far)
        assert np.array_equal(value, table(far))
        assert np.all(slope == 0.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_columnwise_read_equals_flat_index(self, case, order):
        table = case.log_ratio_map
        knots = table.knots
        x = np.random.default_rng(6).uniform(knots[0] - 1.0, knots[-1] + 1.0,
                                             (20_000, case.dimension))
        # every knot, and the next float above it, in every column
        x[: knots.size] = knots[:, None]
        x[knots.size : 2 * knots.size] = np.nextafter(knots, np.inf)[:, None]
        x = np.asarray(x, order=order)
        value = HermiteTable.__call__(table, x)
        assert value.flags.c_contiguous
        assert np.array_equal(value, _flat_index_call(table, np.ascontiguousarray(x)))
        assert np.array_equal(table(np.sinh(x)), _flat_index_call(table, np.arcsinh(np.sinh(x))))

    def test_single_city_read_equals_flat_index(self, single_city):
        table = single_city.log_ratio_map
        x = np.random.default_rng(9).uniform(table.knots[0] - 1.0, table.knots[-1] + 1.0, 30_000)
        reference = _flat_index_call(table, x[:, None])
        assert np.array_equal(HermiteTable.__call__(table, x[:, None]), reference)
        assert np.array_equal(HermiteTable.__call__(table, x), reference[:, 0])

    def test_one_row_equals_flat_index(self, case):
        table = case.log_ratio_map
        for z in np.random.default_rng(7).standard_normal((50, case.dimension)) * 3.0:
            x = np.arcsinh(z)
            value, slope = table.value_and_slope(z)
            ref_value, ref_slope = _flat_index_value_and_slope(table, x)
            assert value.shape == slope.shape == (case.dimension,)
            assert np.array_equal(value, ref_value)
            assert np.array_equal(slope, ref_slope / np.hypot(1.0, z))
            assert np.array_equal(table(z), _flat_index_call(table, x))

    def test_bucket_index_equals_searchsorted(self, case):
        table = case.log_ratio_map
        knots = table.knots
        near = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
        x = np.concatenate([
            np.arcsinh(np.random.default_rng(4).standard_normal(50_000) * 5.0),
            near,
            [-1e300, -1e3, knots[0] - 1.0, knots[-1] + 1.0, 1e3, 1e300],
        ])
        assert np.array_equal(table.rows(x), np.searchsorted(knots, x, side="right"))


class TestMixingQuantile:
    """The tabulated log G^{-1}(Phi(s)) for Gamma(nu/2, 1)."""

    @pytest.fixture(params=[NU, 3.0])
    def case(self, request, portfolio):
        return _twin(portfolio, copula=CopulaSpec(family="t", sigma=SIGMA, nu=request.param))

    def test_matches_gamma_inverse(self, case):
        shape = case.copula.nu / 2.0
        s = np.linspace(-8.0, 8.0, 400_001)
        lower = s <= 0.0
        exact = np.where(lower,
                         special.gammaincinv(shape, special.ndtr(np.minimum(s, 0.0))),
                         special.gammainccinv(shape, special.ndtr(-np.maximum(s, 0.0))))
        rel = np.abs(np.exp(case.mixing_quantile(s)) / exact - 1.0)
        assert rel.max() <= 1e-10

    def test_constant_beyond_the_clip(self, case):
        table = case.mixing_quantile
        s_end = -special.ndtri(1e-16)
        below = table(np.array([-1e300, -40.0, -s_end - 1e-9, -s_end]))
        above = table(np.array([s_end, s_end + 1e-9, 40.0, 1e300]))
        assert np.all(below == below[0]) and np.all(above == above[0])

    def test_nondecreasing(self, case):
        s = np.linspace(-9.0, 9.0, 200_001)
        assert np.all(np.diff(case.mixing_quantile(s)) >= 0.0)

    def test_columnwise_read_equals_flat_index(self, case):
        table = case.mixing_quantile
        s = np.random.default_rng(8).standard_normal(30_000) * 4.0
        assert np.array_equal(table(s), _flat_index_call(table, s[:, None])[:, 0])

    def test_bucket_index_equals_searchsorted(self, case):
        table = case.mixing_quantile
        knots = table.knots
        near = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
        x = np.concatenate([np.random.default_rng(5).standard_normal(50_000) * 4.0, near,
                            [-1e300, -20.0, 20.0, 1e300]])
        assert np.array_equal(table.rows(x), np.searchsorted(knots, x, side="right"))

    def test_normal_family_has_none(self, portfolio):
        normal = _twin(portfolio, copula=CopulaSpec(family="normal", sigma=SIGMA))
        with pytest.raises(DomainError):
            normal.mixing_quantile


class TestPortfolioConcentration:
    def test_baseline_with_preset_weights(self, portfolio):
        c = portfolio_concentration(portfolio, np.zeros(5))
        assert abs(c - 100.0) <= 1e-10
        assert abs(portfolio.baseline() - 100.0) <= 1e-10

    def test_single_city_doubling(self, single_city):
        c = portfolio_concentration(single_city, np.array([np.log(2.0)]))
        assert abs(c - 200.0) <= 1e-12

    def test_linear_in_weights(self, portfolio):
        r = np.array([0.1, -0.2, 0.3, 0.0, -0.1])
        c1 = portfolio_concentration(portfolio, r)
        doubled = CityPortfolio(
            names=portfolio.names,
            weights=2.0 * portfolio.weights,
            pm0=portfolio.pm0,
            scale=portfolio.scale,
            marginals=portfolio.marginals,
            copula=portfolio.copula,
        )
        assert abs(portfolio_concentration(doubled, r) - 2.0 * c1) <= 1e-10

    def test_increasing_in_each_log_ratio(self, portfolio):
        r = np.zeros(5)
        base = portfolio_concentration(portfolio, r)
        for d in range(5):
            bumped = r.copy()
            bumped[d] += 0.1
            assert portfolio_concentration(portfolio, bumped) > base


class TestScalingFactor:
    def test_identity_at_own_volatility(self):
        params = GH_ROWS["Bj"]
        _, var = gh_moments(params)
        assert abs(scaling_factor(np.sqrt(var), params) - 1.0) <= 1e-12

    def test_linear(self):
        params = GH_ROWS["Bj"]
        _, var = gh_moments(params)
        assert abs(scaling_factor(2.0 * np.sqrt(var), params) - 2.0) <= 1e-12

    def test_beijing_value(self):
        params = GH_ROWS["Bj"]
        _, var = gh_moments(params)
        assert abs(scaling_factor(0.5, params) - 0.5 / np.sqrt(var)) <= 1e-12

    def test_rejects_nonpositive_volatility(self):
        with pytest.raises(DomainError):
            scaling_factor(0.0, GH_ROWS["Bj"])

    @pytest.mark.parametrize("law", MOMENTS_OVERFLOW)
    def test_rejects_law_whose_variance_overflows(self, law):
        with pytest.raises(DomainError):
            scaling_factor(0.5, law)


class TestValidation:
    def test_weights_must_not_be_all_zero(self):
        with pytest.raises(DomainError):
            CityPortfolio(
                names=("a",),
                weights=np.array([0.0]),
                pm0=np.array([100.0]),
                scale=np.array([1.0]),
                marginals=(GH_ROWS["Bj"],),
                copula=CopulaSpec(family="t", sigma=np.eye(1), nu=NU),
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            CityPortfolio(
                names=("a", "b"),
                weights=np.array([0.5, 0.5]),
                pm0=np.array([100.0, 100.0]),
                scale=np.array([1.0, 1.0]),
                marginals=(GH_ROWS["Bj"], GH_ROWS["Tj"]),
                copula=CopulaSpec(family="t", sigma=np.eye(3), nu=NU),
            )

    def test_copula_requires_nu_for_t(self):
        with pytest.raises(DomainError):
            CopulaSpec(family="t", sigma=np.eye(2))

    def test_copula_rejects_unit_offdiagonal(self):
        with pytest.raises(DomainError):
            CopulaSpec(family="normal", sigma=np.array([[1.0, 1.0], [1.0, 1.0]]))
