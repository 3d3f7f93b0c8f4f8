import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from pmrisk import (
    CityPortfolio,
    CopulaSpec,
    DomainError,
    IsParams,
    Rng,
    StratificationScheme,
    aoa_allocate,
    calibrate_is,
    gh_cdf,
    likelihood_ratio,
    marginal_transform,
    portfolio_concentration,
    sis_estimate,
    stratified_sample,
)
from pmrisk import estimators
from pmrisk.cli import _parse_tau_grid
from pmrisk.copula import CopulaDraw, dependent_vector
from pmrisk.estimators import (
    CHUNK,
    MIX,
    N_MIN,
    ONE_CELL,
    CommonDraws,
    SisSample,
    _concentration_and_gradient,
    _draw_scores,
    _TailBins,
    _mixing_mode,
    _tilted,
    default_scheme,
    inverse_form,
    proportional_ep_at,
    shared_estimates,
)
from pmrisk.statkit import normal_cdf, normal_quantile

from conftest import CAR_ROWS, GH_ROWS, NU, sis_pools, tail_bin_routes

CAR_001 = 352.03  # reference threshold for the 1% tail of the preset


class TestLikelihoodRatio:
    def test_identity_tilt_is_exactly_one(self, portfolio):
        weight = CommonDraws(portfolio, ONE_CELL, 4096, Rng(1)).pool(IsParams.identity(5)).weight
        assert np.all(weight == 1.0)

    def test_unbiased_mean_one(self, portfolio):
        params = IsParams(mean_shift=np.full(5, 0.5), theta=1.5)
        weight = CommonDraws(portfolio, ONE_CELL, 1_000_000, Rng(4)).pool(params).weight
        se = weight.std(ddof=1) / np.sqrt(weight.size)
        assert abs(weight.mean() - 1.0) <= 3.0 * se

    def test_matches_direct_density_ratio(self):
        # independent route: explicit normal + gamma densities at fixed points
        rng = np.random.default_rng(0)
        mu = np.array([0.7, -0.2, 0.4])
        theta = 1.3
        z = rng.normal(size=(8, 3)) + mu
        y = stats.gamma.rvs(a=NU / 2.0, scale=theta, size=8, random_state=rng)
        draw = CopulaDraw(z=z, y=y, v=z)
        w = likelihood_ratio(draw, IsParams(mean_shift=mu, theta=theta), NU)
        log_orig = stats.norm.logpdf(z).sum(axis=1) + stats.gamma.logpdf(y, a=NU / 2.0, scale=2.0)
        log_tilt = stats.norm.logpdf(z - mu).sum(axis=1) + stats.gamma.logpdf(
            y, a=NU / 2.0, scale=theta
        )
        expected = np.exp(log_orig - log_tilt)
        assert np.max(np.abs(w / expected - 1.0)) <= 1e-12


class TestNaiveEstimate:
    def test_zero_threshold_probability_one(self, portfolio):
        ep, _ = sis_estimate(portfolio, 0.0, IsParams.identity(5), ONE_CELL, 2000, Rng(2))
        assert ep.estimate == 1.0

    def test_preset_tail_level(self, portfolio):
        ep, _ = sis_estimate(portfolio, 239.32, IsParams.identity(5), ONE_CELL, 100_000, Rng(3))
        se = ep.halfwidth95 / 1.96
        assert abs(ep.estimate - 0.05) <= 3.0 * se

    def test_single_city_analytic_tail(self, single_city):
        ep, _ = sis_estimate(single_city, 150.0, IsParams.identity(1), ONE_CELL, 100_000, Rng(4))
        exact = 1.0 - gh_cdf(single_city.marginals[0], np.log(1.5))
        assert abs(ep.estimate - exact) <= 3.0 * ep.halfwidth95 / 1.96

    @pytest.mark.parametrize("n", [2000, 20_000])
    def test_naive_variance_of_a_naive_pool(self, portfolio, n):
        # both sum the tail's squared CE residuals: naive_variance over n, variance over n - 1
        _, ce = sis_estimate(portfolio, 239.32, IsParams.identity(5), ONE_CELL, n, Rng(6))
        assert ce.naive_variance / ce.variance == pytest.approx((n - 1) / n, rel=1e-10)

    def test_empty_tail_flagged(self, single_city):
        ep, ce = sis_estimate(single_city, 1e9, IsParams.identity(1), ONE_CELL, 2000, Rng(5))
        assert ep.estimate == 0.0
        assert ce.empty_tail and np.isnan(ce.estimate)

    def test_rejects_tiny_budget(self, portfolio):
        with pytest.raises(DomainError):
            sis_estimate(portfolio, 100.0, IsParams.identity(5), ONE_CELL, 1, Rng(0))


class TestCalibrateIs:
    def test_positive_shift_and_subcritical_theta(self, portfolio):
        params = calibrate_is(portfolio, CAR_001)
        assert np.all(params.mean_shift > 0.0)
        assert 0.0 < params.theta < 2.0
        assert params.warning is None

    def test_shift_grows_with_threshold(self, portfolio):
        near = calibrate_is(portfolio, 101.0)
        far = calibrate_is(portfolio, CAR_001)
        assert np.linalg.norm(near.mean_shift) < np.linalg.norm(far.mean_shift)

    def test_rejects_subbaseline_threshold(self, portfolio):
        with pytest.raises(DomainError):
            calibrate_is(portfolio, portfolio.baseline())

    # mean shift and theta of the HL-RF design point, recorded on the log-CDF GH
    # tables; the design point follows the log-ratio map, so a change of the
    # tables or the map re-records them
    @pytest.mark.parametrize("tau, shift, theta", [
        (150.0, [0.6068237289943931, 0.17393919048836645, 0.03344720874786212,
                 0.07131798758426412, 0.052299410244953125], 1.9166809653381454),
        (352.03, [1.8835073142755028, 0.5208625301017675, 0.04846373256953175,
                  0.1495689236173013, 0.1273000019700841], 1.210670252560015),
        (600.78, [2.2979942059348333, 0.5877991919279049, 0.039622608164662516,
                  0.14535414136749636, 0.13070885685004122], 0.8412949195724624),
    ], ids=["150.0", "352.03", "600.78"])
    def test_matches_recorded_design_point(self, portfolio, tau, shift, theta):
        params = calibrate_is(portfolio, tau)
        assert params.warning is None
        assert np.allclose(params.mean_shift, shift, rtol=1e-8, atol=0.0)
        assert abs(params.theta / theta - 1.0) <= 1e-8

    def test_fallback_to_identity_on_numeric_failure(self, portfolio, monkeypatch):
        import pmrisk.estimators as est

        def boom(*args, **kwargs):
            raise est.NumericError("synthetic gradient failure")

        monkeypatch.setattr(est, "_concentration_and_gradient", boom)
        params = est.calibrate_is(portfolio, 352.03)
        assert params.theta == 2.0 and not np.any(params.mean_shift)
        assert params.warning is not None

    def test_unreachable_threshold_falls_back_to_identity(self, portfolio):
        # the map is constant beyond its end knots, so C is bounded and its
        # gradient vanishes once the HL-RF steps leave the tabulated range
        params = calibrate_is(portfolio, 1e9)
        assert params.theta == 2.0 and not np.any(params.mean_shift)
        assert params.warning == ("IS calibration failed (degenerate concentration gradient); "
                                  "using the identity tilt")

    def test_one_row_evaluations_per_call(self, portfolio, monkeypatch):
        import pmrisk.estimators as est

        shapes = []

        def counted(pf, z, y):
            shapes.append(np.shape(z))
            return _concentration_and_gradient(pf, z, y)

        monkeypatch.setattr(est, "_concentration_and_gradient", counted)
        for _, tau, _ in CAR_ROWS:
            shapes.clear()
            assert est.calibrate_is(portfolio, tau).warning is None
            assert 1 <= len(shapes) <= 18
            assert set(shapes) == {(portfolio.dimension,)}

    @pytest.mark.parametrize("tau", [tau for _, tau, _ in CAR_ROWS])
    def test_design_point_is_the_constrained_mode(self, portfolio, tau):
        # on the constraint, and along the gradient of C there: u = mu / sqrt(y*/nu)
        # with y* the tilted gamma mode theta (nu/2 - 1)
        params = calibrate_is(portfolio, tau)
        assert params.warning is None
        u = params.mean_shift / np.sqrt(params.theta * (NU / 2.0 - 1.0) / NU)
        conc, grad = _concentration_and_gradient(portfolio, u, NU)
        assert abs(conc - tau) <= 1e-12 * tau
        cos = grad @ u / (np.linalg.norm(grad) * np.linalg.norm(u))
        assert 1.0 - cos <= 1e-10

    def test_concentration_depends_on_scaled_shift_only(self, portfolio):
        w = np.array([0.5, 0.3, 0.1, 0.6, 0.5])
        w /= np.linalg.norm(w)
        for t, y in ((0.7, 3.0), (2.5, 9.78), (4.0, 20.0)):
            x = t / np.sqrt(y / NU)
            assert _concentration_and_gradient(portfolio, t * w, y)[0] == pytest.approx(
                _concentration_and_gradient(portfolio, x * w, NU)[0], rel=1e-12)
        # the same C as the sampler's batch path
        rows = np.outer([0.5, 1.5], w)
        y = np.full(2, 8.0)
        draw = CopulaDraw(z=rows, y=y, v=dependent_vector(portfolio.copula, portfolio.chol, rows, y))
        np.testing.assert_allclose(
            [_concentration_and_gradient(portfolio, r, 8.0)[0] for r in rows],
            portfolio_concentration(portfolio, marginal_transform(portfolio, draw)),
            rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("t, y", [(0.0, NU), (0.7, 3.0), (2.5, 9.78), (4.0, 20.0)])
    def test_gradient_matches_central_differences(self, portfolio, t, y):
        z = t * np.array([0.5, 0.3, 0.1, 0.6, 0.5])
        _, grad = _concentration_and_gradient(portfolio, z, y)
        h = 1e-5
        steps = h * np.eye(portfolio.dimension)
        central = [(_concentration_and_gradient(portfolio, z + e, y)[0]
                    - _concentration_and_gradient(portfolio, z - e, y)[0]) / (2.0 * h)
                   for e in steps]
        np.testing.assert_allclose(grad, central, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("tau", [150.0, CAR_001, 600.0])
    def test_closed_form_mixing_mode(self, portfolio, tau):
        # brute force: the nested search over y that the closed form replaces
        w = np.full(5, 1.0 / np.sqrt(5.0))

        def shift(y):
            return optimize.brentq(
                lambda t: _concentration_and_gradient(portfolio, t * w, y)[0] - tau,
                0.0, 64.0, xtol=1e-12)

        def objective(log_y):
            y = np.exp(log_y)
            return 0.5 * shift(y) ** 2 + y / 2.0 - (NU / 2.0 - 1.0) * log_y

        brute = optimize.minimize_scalar(objective, bounds=(np.log(0.05 * NU), np.log(2.0 * NU)),
                                         method="bounded", options={"xatol": 1e-8})
        y_star = _mixing_mode(shift(NU), NU)
        assert y_star == pytest.approx(np.exp(brute.x), rel=1e-4)

    def test_variance_no_worse_than_naive(self, portfolio):
        params = calibrate_is(portfolio, CAR_001)
        ep_nv, _ = sis_estimate(portfolio, CAR_001, IsParams.identity(5), ONE_CELL, 50_000, Rng(6))
        ep_is, _ = sis_estimate(portfolio, CAR_001, params, ONE_CELL, 50_000, Rng(6))
        assert ep_is.variance < ep_nv.variance


class TestInverseForm:
    @staticmethod
    def _point(portfolio, params):
        """u at y = nu: the mean shift over sqrt(y*/nu), y* the gamma mode theta (nu/2 - 1)."""
        if portfolio.copula.family == "normal":
            return params.mean_shift
        return params.mean_shift / np.sqrt(params.theta * (NU / 2.0 - 1.0) / NU)

    @staticmethod
    def _radius(portfolio, alpha):
        if portfolio.copula.family == "normal":
            return -stats.norm.ppf(alpha)
        return -stats.t.ppf(alpha, NU)

    def _check_point(self, portfolio, alpha):
        tau, params = inverse_form(portfolio, alpha)
        assert params.warning is None
        u = self._point(portfolio, params)
        conc, grad = _concentration_and_gradient(portfolio, u, NU)
        assert np.linalg.norm(u) == pytest.approx(self._radius(portfolio, alpha), rel=1e-12)
        cos = grad @ u / (np.linalg.norm(grad) * np.linalg.norm(u))
        assert 1.0 - cos <= 1e-10
        assert conc == pytest.approx(tau, rel=1e-10)
        return tau

    @pytest.mark.parametrize("alpha, car", [(alpha, car) for alpha, car, _ in CAR_ROWS])
    def test_point_lies_just_below_the_reference_car(self, portfolio, alpha, car):
        # exact for a C linear in u; C is convex along the tail, so the point sits below
        assert 0.94 * car < self._check_point(portfolio, alpha) < car

    @pytest.mark.parametrize("alpha", [alpha for alpha, _, _ in CAR_ROWS] + [0.49])
    def test_point_on_the_normal_family(self, normal_portfolio, alpha):
        self._check_point(normal_portfolio, alpha)

    def test_point_near_the_median(self, portfolio):
        assert self._check_point(portfolio, 0.49) > portfolio.baseline()

    def test_radius_stays_finite_below_1e_16(self, portfolio):
        # 1 - 1e-20 rounds to 1, where the upper-tail quantile is infinite
        assert np.isinf(stats.norm.ppf(1.0 - 1e-20))
        # four exchangeable independent cities keep each variate at radius / 2,
        # inside the log-ratio map's range, so the point exists
        exchangeable = CityPortfolio(
            names=("A", "B", "C", "D"), weights=np.full(4, 0.25), pm0=np.full(4, 100.0),
            scale=np.ones(4), marginals=(GH_ROWS["Bj"],) * 4,
            copula=CopulaSpec(family="normal", sigma=np.eye(4)))
        self._check_point(exchangeable, 1e-20)
        # on the preset the point would lie past the map's end knots, where C is
        # flat: the solve fails, and the caller falls back to a pilot
        assert inverse_form(portfolio, 1e-20) is None

    @pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan")])
    def test_rejects_alpha_outside_the_unit_interval(self, portfolio, alpha):
        with pytest.raises(DomainError):
            inverse_form(portfolio, alpha)


class TestCommonDraws:
    @pytest.mark.parametrize("family", ["t", "normal"])
    @pytest.mark.parametrize("estimator", ["naive", "is", "sis"])
    def test_retilt_equals_a_fresh_pool(self, portfolio, normal_portfolio, family, estimator):
        model = portfolio if family == "t" else normal_portfolio
        n = CHUNK + 1000  # two chunks
        scheme = default_scheme(model, n) if estimator == "sis" else ONE_CELL
        tilts = ([IsParams.identity(5)] if estimator == "naive"
                 else [calibrate_is(model, tau) for tau in (CAR_001, 600.78)])
        counts = aoa_allocate(n, scheme.probs, np.ones(scheme.n_strata), 1)
        labels = np.repeat(np.arange(scheme.n_strata), counts)
        draws = CommonDraws(model, scheme, n, Rng(5))
        for params in tilts:  # each tilt re-reads the same draws
            # the pool drawn afresh: chunk c through the engine's tilt step on
            # fresh draws from split(1).split(c)
            conc, weight = zip(*(
                _tilted(model, *_draw_scores(model, scheme, labels[start:start + CHUNK] + 1,
                                             Rng(5).split(1).split(c)), params)
                for c, start in enumerate(range(0, n, CHUNK))))
            fresh = SisSample(conc=np.concatenate(conc), weight=np.concatenate(weight),
                              stratum=labels, probs=scheme.probs, counts=counts)
            pool = draws.pool(params)
            for column in ("conc", "weight", "stratum", "counts", "probs"):
                assert getattr(pool, column).tobytes() == getattr(fresh, column).tobytes()


def _engine_chunks(run) -> list:
    """((portfolio, scheme, labels, rng), tilt, (C, W)) of each chunk the engine
    draws and tilts while ``run()`` runs, in order."""
    draws, tilts = [], []
    draw_scores, tilted = estimators._draw_scores, estimators._tilted
    estimators._draw_scores = lambda *args: draws.append(args) or draw_scores(*args)
    estimators._tilted = lambda *args: tilts.append((args[3], tilted(*args))) or tilts[-1][1]
    try:
        run()
    finally:
        estimators._draw_scores, estimators._tilted = draw_scores, tilted
    assert len(draws) == len(tilts)
    return [(args, *tilt) for args, tilt in zip(draws, tilts)]


class TestTiltStep:
    @pytest.mark.parametrize("family", ["t", "normal"])
    @pytest.mark.parametrize("estimator", ["naive", "is", "sis"])
    def test_engine_matches_the_closed_forms(self, portfolio, normal_portfolio, family,
                                             estimator):
        # the fused step's (C, W) against the draw's Z and Y taken through the
        # closed forms: V = L Z / sqrt(Y/nu), the map, C and likelihood_ratio
        model = portfolio if family == "t" else normal_portfolio
        n = CHUNK + 1000  # two chunks: a pool's, a one-cell stage's, or a pilot and a stage
        scheme = default_scheme(model, n) if estimator == "sis" else ONE_CELL
        tilts = ([IsParams.identity(5)] if estimator == "naive"
                 else [calibrate_is(model, tau) for tau in (CAR_001, 600.78)])
        for params in tilts:
            chunks = _engine_chunks(lambda: (
                CommonDraws(model, scheme, n, Rng(5)).pool(params),
                sis_estimate(model, CAR_001, params, scheme, n, Rng(6))))
            assert len(chunks) == 4
            for (_, chunk_scheme, labels, rng), tilt, (conc, weight) in chunks:
                assert tilt is params
                draw = stratified_sample(model, chunk_scheme, labels, params, rng)
                v = dependent_vector(model.copula, model.chol, draw.z, draw.y)
                ref = portfolio_concentration(model, marginal_transform(
                    model, CopulaDraw(z=draw.z, y=draw.y, v=v)))
                np.testing.assert_allclose(conc, ref, rtol=1e-13, atol=0.0)
                np.testing.assert_allclose(weight, likelihood_ratio(draw, params, model.copula.nu),
                                           rtol=1e-13, atol=0.0)
                if estimator == "naive":
                    assert np.all(weight == 1.0)


class TestIsEstimate:
    def test_identity_tilt_bitwise_equal_to_naive(self, portfolio):
        ep_nv, ce_nv = sis_estimate(portfolio, CAR_001, IsParams.identity(5), ONE_CELL,
                                    20_000, Rng(7))
        ep_is, ce_is = sis_estimate(portfolio, CAR_001, IsParams.identity(5), ONE_CELL,
                                    20_000, Rng(7))
        assert ep_is.estimate == ep_nv.estimate
        assert ep_is.variance == ep_nv.variance
        assert ce_is.estimate == ce_nv.estimate
        assert ce_is.variance == ce_nv.variance

    def test_variance_reduction_at_one_percent_tail(self, portfolio):
        params = calibrate_is(portfolio, CAR_001)
        _, ce_nv = sis_estimate(portfolio, CAR_001, IsParams.identity(5), ONE_CELL,
                                100_000, Rng(8))
        _, ce_is = sis_estimate(portfolio, CAR_001, params, ONE_CELL, 100_000, Rng(8))
        assert (ce_nv.halfwidth95 / ce_is.halfwidth95) ** 2 >= 5.0

    def test_two_replications_suffice(self, portfolio):
        # one cell has no per-stratum floor: naive and IS keep accepting n = 2
        params = IsParams(mean_shift=np.full(5, 0.5), theta=1.5)
        for ep, ce in (sis_estimate(portfolio, 100.0, IsParams.identity(5), ONE_CELL, 2, Rng(0)),
                       sis_estimate(portfolio, 100.0, params, ONE_CELL, 2, Rng(0))):
            assert ep.n == ce.n == 2
            assert np.isfinite(ep.estimate) and np.isfinite(ep.variance)

    def test_single_city_analytic_with_variance_gain(self, single_city):
        tau = 465.0  # ~1% tail for the Beijing marginal
        exact = 1.0 - gh_cdf(single_city.marginals[0], np.log(tau / 100.0))
        assert 0.005 <= exact <= 0.015
        params = calibrate_is(single_city, tau)
        ep_is, _ = sis_estimate(single_city, tau, params, ONE_CELL, 50_000, Rng(9))
        ep_nv, _ = sis_estimate(single_city, tau, IsParams.identity(1), ONE_CELL, 50_000, Rng(9))
        assert abs(ep_is.estimate - exact) <= 3.0 * ep_is.halfwidth95 / 1.96
        assert ep_is.variance <= ep_nv.variance / 10.0


class TestStratifiedSample:
    def test_first_stratum_bounded_projection(self, portfolio):
        scheme = StratificationScheme((4, 1))
        draw = stratified_sample(
            portfolio, scheme, np.ones(4000, dtype=int), IsParams.identity(5), Rng(10)
        )
        xi = draw.z @ np.eye(5)[0]
        assert np.all(xi < normal_quantile(0.25))
        # a mixed label vector: every row lands in its own slice
        labels = np.random.default_rng(0).integers(1, 5, size=4000)
        draw = stratified_sample(portfolio, scheme, labels, IsParams.identity(5), Rng(10))
        xi = draw.z @ np.eye(5)[0]
        edges = np.concatenate([[-np.inf], normal_quantile(np.array([0.25, 0.5, 0.75])), [np.inf]])
        assert np.all((edges[labels - 1] < xi) & (xi < edges[labels]))

    def test_drift_axis_follows_the_mean_shift(self, portfolio):
        mu = np.array([0.5, 0.3, 0.1, 0.6, 0.5])
        params = IsParams(mean_shift=mu, theta=1.5)
        draw = stratified_sample(portfolio, StratificationScheme((4, 1)),
                                 np.ones(4000, dtype=int), params, Rng(10))
        assert np.all((draw.z - mu) @ (mu / np.linalg.norm(mu)) < normal_quantile(0.25))

    @pytest.mark.parametrize("counts", [(1, 1), (4, 1), (1, 3), (4, 3)])
    def test_draw_wastes_no_variate(self, portfolio, monkeypatch, counts):
        # D - 1 complement normals, one normal per one-slice axis, one uniform per
        # stratified axis, and nothing else
        calls = []
        generator = Rng.generator

        class Spy:
            def __init__(self, g):
                self.g = g

            def standard_normal(self, size):
                calls.append(("standard_normal", size))
                return self.g.standard_normal(size)

            def random(self, size):
                calls.append(("random", size))
                return self.g.random(size)

        monkeypatch.setattr(Rng, "generator", lambda rng: Spy(generator(rng)))
        m = 120
        labels = np.arange(m) % (counts[0] * counts[1]) + 1
        params = IsParams(mean_shift=np.array([0.5, 0.3, 0.1, 0.6, 0.5]), theta=1.5)
        stratified_sample(portfolio, StratificationScheme(counts), labels, params, Rng(3))
        one_slice = counts.count(1)
        assert calls == ([("standard_normal", (m, 4 + one_slice))]
                         + [("random", m)] * (2 - one_slice))

    def test_identity_tilt_one_cell_z_is_the_normal_block(self, portfolio):
        draw = stratified_sample(portfolio, ONE_CELL, np.ones(1000, dtype=int),
                                 IsParams.identity(5), Rng(3))
        normals = Rng(3).generator().standard_normal((1000, 6))
        assert draw.z.tobytes() == np.ascontiguousarray(normals[:, :5]).tobytes()

    def test_law_off_every_axis(self, portfolio):
        # stratum 1 of (4, 1): the drift score stays in its slice, the complement
        # of w keeps its N(0, I - w w') law and is uncorrelated with the drift score
        mu = np.array([0.5, 0.3, 0.1, 0.6, 0.5])
        w = mu / np.linalg.norm(mu)
        n = 40_000
        draw = stratified_sample(portfolio, StratificationScheme((4, 1)), np.ones(n, dtype=int),
                                 IsParams(mean_shift=mu, theta=1.5), Rng(14))
        x = (draw.z - mu) @ w
        assert np.all(x < normal_quantile(0.25))
        c = draw.z - mu - np.outer(x, w)
        cov = np.eye(5) - np.outer(w, w)
        var = np.diag(cov)
        assert np.all(np.abs(c.mean(axis=0)) <= 3.0 * np.sqrt(var / n))
        se = np.sqrt((np.outer(var, var) + cov**2) / n)
        assert np.all(np.abs(c.T @ c / n - cov) <= 3.0 * se)
        cross = c.T @ (x - x.mean()) / n
        assert np.all(np.abs(cross) <= 3.0 * np.sqrt(var * x.var() / n))

    def test_mixing_axis_bounds_the_mixing_variable(self, portfolio):
        # stratum 2 of (1, 4): Y / theta between the IS law's 25% and 50% quantiles
        params = IsParams(mean_shift=np.full(5, 0.5), theta=1.5)
        draw = stratified_sample(portfolio, StratificationScheme((1, 4)),
                                 np.full(4000, 2), params, Rng(12))
        lo, hi = stats.gamma.ppf([0.25, 0.5], NU / 2.0)
        assert np.all((lo * (1 - 1e-8) < draw.y / 1.5) & (draw.y / 1.5 < hi * (1 + 1e-8)))

    def test_scheme_is_a_two_axis_grid(self):
        assert StratificationScheme((3, 2)).n_strata == 6
        for counts in ((4,), (1, 1, 1), (0, 2), (2, -1)):
            with pytest.raises(DomainError):
                StratificationScheme(counts)

    def test_equiprobable_probabilities(self):
        scheme = StratificationScheme((8, 1))
        assert np.allclose(scheme.probs, 1.0 / 8.0)

    def test_pooled_projection_moments(self, portfolio):
        # the drift axis follows the mean shift, here e_2
        scheme = StratificationScheme((10, 1))
        params = IsParams(mean_shift=0.5 * np.eye(5)[1], theta=2.0)
        parts = [
            stratified_sample(portfolio, scheme, np.full(10_000, i + 1), params, Rng(11).split(i))
            for i in range(10)
        ]
        xi = np.concatenate([(p.z - params.mean_shift) @ np.eye(5)[1] for p in parts])
        n = xi.size
        assert abs(xi.mean()) <= 3.0 / np.sqrt(n)
        assert abs(xi.var() - 1.0) <= 3.0 * np.sqrt(2.0 / n)

    def test_invalid_stratum_index(self, portfolio):
        scheme = StratificationScheme((4, 1))
        with pytest.raises(DomainError):
            stratified_sample(portfolio, scheme, np.array([0]), IsParams.identity(5), Rng(0))
        with pytest.raises(DomainError):
            stratified_sample(portfolio, scheme, np.array([5]), IsParams.identity(5), Rng(0))
        with pytest.raises(DomainError):
            stratified_sample(
                portfolio, scheme, np.array([1, 2, 5, 3]), IsParams.identity(5), Rng(0)
            )


class TestAoaAllocate:
    def test_proportional_example(self):
        alloc = aoa_allocate(400, np.array([0.5, 0.5]), np.array([1.0, 3.0]), 2)
        assert alloc.tolist() == [100, 300]

    def test_equal_sigma_proportional_to_p(self):
        alloc = aoa_allocate(100, np.array([0.25, 0.75]), np.array([2.0, 2.0]), 2)
        assert alloc.tolist() == [25, 75]

    def test_zero_sigma_gets_floor(self):
        alloc = aoa_allocate(100, np.array([0.5, 0.5]), np.array([0.0, 3.0]), 2)
        assert alloc.tolist() == [2, 98]

    def test_sums_to_budget_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = int(rng.integers(2, 30))
            probs = rng.random(k) + 0.01
            probs /= probs.sum()
            sigma = rng.random(k) * rng.integers(0, 2, size=k)
            budget = int(rng.integers(k * 5, 5000))
            alloc = aoa_allocate(budget, probs, sigma, 5)
            assert alloc.sum() == budget
            assert np.all(alloc >= 5)

    def test_permutation_equivariance(self):
        # tie-free scores; exact remainder ties cannot be label-equivariant
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        sigma = np.array([1.0, 0.55, 2.0, 0.27])
        perm = np.array([2, 0, 3, 1])
        base = aoa_allocate(977, probs, sigma, 3)
        shuffled = aoa_allocate(977, probs[perm], sigma[perm], 3)
        assert np.array_equal(shuffled, base[perm])

    def test_infeasible_floor(self):
        with pytest.raises(DomainError):
            aoa_allocate(10, np.array([0.5, 0.5]), np.array([1.0, 1.0]), 6)


class TestSisEstimate:
    def test_single_stratum_equals_is(self, portfolio):
        params = calibrate_is(portfolio, CAR_001)
        scheme = StratificationScheme((1, 1))
        ep_s, ce_s = sis_estimate(portfolio, CAR_001, params, scheme, 20_000, Rng(12))
        ep_i, ce_i = sis_estimate(portfolio, CAR_001, params, ONE_CELL, 20_000, Rng(12))
        assert ep_s.estimate == ep_i.estimate
        assert ce_s.estimate == ce_i.estimate

    def test_budget_spent_exactly(self, portfolio):
        params = calibrate_is(portfolio, CAR_001)
        scheme = default_scheme(portfolio, 30_001)
        ep, _ = sis_estimate(portfolio, CAR_001, params, scheme, 30_001, Rng(13))
        assert ep.n == 30_001

    def test_beats_is_at_rare_threshold(self, portfolio):
        params = calibrate_is(portfolio, CAR_001)
        scheme = default_scheme(portfolio, 100_000)
        _, ce_nv = sis_estimate(portfolio, CAR_001, IsParams.identity(5), ONE_CELL,
                                100_000, Rng(14))
        _, ce_is = sis_estimate(portfolio, CAR_001, params, ONE_CELL, 100_000, Rng(14))
        _, ce_sis = sis_estimate(portfolio, CAR_001, params, scheme, 100_000, Rng(14))
        assert (ce_nv.halfwidth95 / ce_sis.halfwidth95) ** 2 >= 50.0
        assert ce_sis.halfwidth95 < ce_is.halfwidth95

    def test_agrees_with_naive_at_moderate_threshold(self, portfolio):
        tau = 239.32
        params = calibrate_is(portfolio, tau)
        scheme = default_scheme(portfolio, 50_000)
        ep_nv, _ = sis_estimate(portfolio, tau, IsParams.identity(5), ONE_CELL, 50_000, Rng(15))
        ep_sis, _ = sis_estimate(portfolio, tau, params, scheme, 50_000, Rng(15))
        joint = np.hypot(ep_nv.halfwidth95, ep_sis.halfwidth95) / 1.96
        assert abs(ep_nv.estimate - ep_sis.estimate) <= 3.0 * joint

    def test_both_stages_cover_the_floor(self, portfolio):
        # the pilot, a quarter of the budget, must give each of the 32 strata N_MIN rows
        params, scheme = calibrate_is(portfolio, CAR_001), StratificationScheme((8, 4))
        assert sis_estimate(portfolio, CAR_001, params, scheme, 1_280, Rng(16))[0].n == 1_280
        with pytest.raises(DomainError):
            sis_estimate(portfolio, CAR_001, params, scheme, 1_279, Rng(16))

    @pytest.mark.parametrize("family", ["t", "normal"])
    def test_default_scheme_keeps_its_grids(self, portfolio, normal_portfolio, family):
        # the grids every CaR pool is drawn on, so these pin the CaR bytes
        model = portfolio if family == "t" else normal_portfolio
        want = {"t": [(4, 2), (10, 5), (12, 6), (24, 10), (24, 10)],
                "normal": [(10, 1), (22, 1), (22, 1), (22, 1), (22, 1)]}[family]
        budgets = (1_000, 5_000, 10_000, 100_000, 200_000)
        assert [default_scheme(model, n).counts for n in budgets] == want


def _reference_rows(portfolio, scheme, params, alloc, rng):
    """A stage's rows as the reference draw gives them: (C, W, 0-based labels), chunk c
    of ``CHUNK`` stratum-ordered labels from ``stratified_sample`` on ``rng.split(c)``."""
    strata = np.repeat(np.arange(scheme.n_strata), alloc)
    conc, weight = [], []
    for c, start in enumerate(range(0, strata.size, estimators.CHUNK)):
        draw = stratified_sample(portfolio, scheme, strata[start:start + estimators.CHUNK] + 1,
                                 params, rng.split(c))
        conc.append(portfolio_concentration(portfolio, marginal_transform(portfolio, draw)))
        weight.append(likelihood_ratio(draw, params, portfolio.copula.nu))
    return np.concatenate(conc), np.concatenate(weight), strata


def _pooled_sis_estimate(portfolio, tau, params, scheme, total_n, rng):
    """``sis_estimate`` with every row kept: on one cell one stage on ``rng.split(2)``,
    else a quarter-budget proportional pilot on ``rng.split(1)`` and the rest
    allocated from the pilot's rows on ``rng.split(2)``, pooled as 2I cells of
    probability w_s p_i; then the pooled ``SisSample``'s estimates.  The allocation's
    deviations are written out from the rows."""
    cells, probs = scheme.n_strata, scheme.probs
    if cells == 1:
        conc, weight, labels = _reference_rows(portfolio, scheme, params, [total_n], rng.split(2))
        pool = SisSample(conc=conc, weight=weight, stratum=labels, probs=probs,
                         counts=np.array([total_n]))
        return pool, pool.estimates(tau)
    pilot_n = total_n // 4
    pilot = aoa_allocate(pilot_n, probs, np.ones(cells), N_MIN)
    conc, weight, labels = _reference_rows(portfolio, scheme, params, pilot, rng.split(1))
    y = np.where(conc > tau, weight, 0.0)
    resid = conc * y - (np.sum(conc * y) / y.sum()) * y
    sigma = np.array([resid[labels == i].std(ddof=1) for i in range(cells)])
    mixed = (1.0 - MIX) * sigma / (probs @ sigma) + MIX
    alloc = aoa_allocate(total_n - pilot_n, probs, mixed, N_MIN)
    rest = _reference_rows(portfolio, scheme, params, alloc, rng.split(2))
    shares = np.repeat([pilot_n, total_n - pilot_n], cells) / total_n
    pool = SisSample(conc=np.concatenate([conc, rest[0]]),
                     weight=np.concatenate([weight, rest[1]]),
                     stratum=np.concatenate([labels, rest[2] + cells]),
                     probs=np.tile(probs, 2) * shares, counts=np.concatenate([pilot, alloc]))
    return pool, pool.estimates(tau)


class TestStreamedTailSums:
    @pytest.mark.parametrize("counts", [(1, 1), (8, 4)])
    def test_each_shared_row_equals_its_prefix_rows(self, portfolio, monkeypatch, counts):
        # rows at their own tau, tilt and allocation off one draw: row k's estimates
        # are those of the pooled first n_{k,i} rows of each stratum, block A's
        # (row 0's allocation, on split(1)) and then block B's (on split(2))
        monkeypatch.setattr(estimators, "CHUNK", 700)
        scheme, n = StratificationScheme(counts), 6_000
        rows = []
        for tau in (CAR_001, 600.78, 414.22):
            params = calibrate_is(portfolio, tau)
            pool = CommonDraws(portfolio, scheme, n, Rng(40)).pool(params)
            rows.append((tau, params, pool.allocation(tau, n)))
        allocs = np.array([alloc for _, _, alloc in rows])
        if scheme.n_strata > 1:
            assert ((allocs[1] > allocs[0]).any() and (allocs[1] < allocs[0]).any()
                    and not (allocs == allocs[0]).all())
        with sis_pools() as pools:
            got = shared_estimates(portfolio, scheme, rows, Rng(41))
        assert pools == []
        block_b = allocs.max(axis=0) - allocs[0]
        for (tau, params, alloc), (ep, ce) in zip(rows, got):
            conc, weight, labels, rank = [], [], [], []
            for block, before, rng in ((allocs[0], 0 * block_b, Rng(41).split(1)),
                                       (block_b, allocs[0], Rng(41).split(2))):
                if not block.any():
                    continue
                c, w, lab = _reference_rows(portfolio, scheme, params, block, rng)
                conc.append(c)
                weight.append(w)
                labels.append(lab)
                rank.append(before[lab] + np.arange(lab.size) - (np.cumsum(block) - block)[lab])
            labels, rank = np.concatenate(labels), np.concatenate(rank)
            keep = rank < alloc[labels]
            pool = SisSample(conc=np.concatenate(conc)[keep], weight=np.concatenate(weight)[keep],
                             stratum=labels[keep], probs=scheme.probs, counts=alloc)
            assert np.array_equal(np.bincount(pool.stratum, minlength=scheme.n_strata), alloc)
            want = pool.estimates(tau)
            assert want[1].n == n and not want[1].empty_tail
            for g, w in zip((ep, ce), want):
                for field in ("estimate", "variance", "halfwidth95"):
                    assert getattr(g, field) == pytest.approx(getattr(w, field), rel=1e-13)
            assert ce.naive_variance == pytest.approx(want[1].naive_variance, rel=1e-13)

    @pytest.mark.parametrize("estimator, counts, tau", [
        ("naive", (1, 1), CAR_001),
        ("is", (1, 1), CAR_001),
        ("sis", (8, 4), CAR_001),
        ("sis", (8, 4), 600.78),
    ])
    def test_sis_estimate_equals_the_pooled_rows(self, portfolio, monkeypatch,
                                                 estimator, counts, tau):
        # small chunks, so every stage's tail sums gather several chunks
        monkeypatch.setattr(estimators, "CHUNK", 700)
        scheme = StratificationScheme(counts)
        params = (IsParams.identity(5) if estimator == "naive"
                  else calibrate_is(portfolio, tau))
        pool, want = _pooled_sis_estimate(portfolio, tau, params, scheme, 6_000, Rng(31))
        with sis_pools() as pools:
            got = sis_estimate(portfolio, tau, params, scheme, 6_000, Rng(31))
        assert pools == []
        hits = np.bincount(pool.stratum[pool.conc > tau], minlength=scheme.n_strata)
        assert hits.sum() > 0
        if estimator == "sis" and tau > 500.0:
            assert (hits == 0).any()  # a stratum without a hit
        for g, w in zip(got, want):
            assert g.n == w.n == 6_000 and g.empty_tail == w.empty_tail
            for field in ("estimate", "variance", "halfwidth95"):
                assert getattr(g, field) == pytest.approx(getattr(w, field), rel=1e-13)
        assert np.isnan(got[0].naive_variance)
        assert got[1].naive_variance == pytest.approx(want[1].naive_variance, rel=1e-13)
        # the VR column's reference, from the pooled rows as the pool weights them
        tail = pool.conc > tau
        naive = pool.sample_weight[tail] @ (pool.conc[tail] - want[1].estimate) ** 2
        assert got[1].naive_variance == pytest.approx(naive / want[0].estimate**2, rel=1e-12)

    @pytest.mark.parametrize("estimator", ["naive", "sis"])
    def test_streamed_curve_equals_the_pooled_sample(self, portfolio, monkeypatch, estimator):
        monkeypatch.setattr(estimators, "CHUNK", 1_000)
        grid = np.arange(100.0, 901.0, 10.0)
        if estimator == "naive":
            params, scheme = IsParams.identity(5), ONE_CELL
        else:
            params, scheme = calibrate_is(portfolio, 300.0), default_scheme(portfolio, 8_000)
        pooled = CommonDraws(portfolio, scheme, 8_000, Rng(32)).pool(params)
        with sis_pools() as pools:
            ep, halfwidth, hits = proportional_ep_at(portfolio, params, scheme, 8_000,
                                                     Rng(32), grid)
        assert pools == []
        want_ep, want_halfwidth, want_hits = pooled.ep_at(grid)
        assert np.array_equal(hits, want_hits) and hits[0] > hits[-1]
        np.testing.assert_allclose(ep, want_ep, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(halfwidth, want_halfwidth, rtol=1e-13, atol=0.0)
        assert np.all(np.diff(ep) <= 0.0)
        # one threshold reads as one grid point
        one = proportional_ep_at(portfolio, params, scheme, 8_000, Rng(32), grid[20])
        assert [np.ndim(v) for v in one] == [0, 0, 0]
        assert one[2] == hits[20] and one[0] == pytest.approx(ep[20], rel=1e-13)


def _edge_rows(grid: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Concentrations on every threshold, one ulp either side, below the first
    and above the last, and uniform between, shuffled."""
    span = grid[-1] - grid[0] + 1.0
    rows = np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                           [grid[0] - 1.0, grid[0] - 1e6 * span, grid[-1] + 1.0,
                            grid[-1] + 1e6 * span],
                           rng.uniform(grid[0] - 0.1 * span, grid[-1] + 0.1 * span, 5_000)])
    return rng.permutation(rows)


class TestTailBins:
    """Each route bins a row as ``searchsorted(grid, C, side="left")`` does."""

    @staticmethod
    def _binned(grid, rows):
        with tail_bin_routes() as routes:
            got = _TailBins(grid, 3, ce=False).bins(rows)
        assert np.array_equal(got, np.searchsorted(np.atleast_1d(grid), rows, side="left"))
        return routes

    @pytest.mark.parametrize("text, points", [("100:900:10", 81), ("0.1:7.3:0.1", 73),
                                              ("0:1000:0.1", 10_001)])
    def test_cli_grids_bin_by_arithmetic(self, text, points):
        grid = np.array(_parse_tau_grid(text))
        assert grid.size == points
        assert self._binned(grid, _edge_rows(grid, np.random.default_rng(1))) == ["arithmetic"]

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(start=st.floats(-1e3, 1e3), step=st.floats(1e-3, 1e2), count=st.integers(2, 3_000),
           seed=st.integers(0, 2**32 - 1))
    def test_start_stop_step_grids_bin_by_arithmetic(self, start, step, count, seed):
        grid = np.array([start + k * step for k in range(count)])  # as _parse_tau_grid builds it
        assert self._binned(grid, _edge_rows(grid, np.random.default_rng(seed))) == ["arithmetic"]

    def test_non_uniform_grid_bins_by_searchsorted(self):
        grid = np.array([100.0, 150.0, 175.0, 400.0, 900.0])
        rows = _edge_rows(grid, np.random.default_rng(2))
        assert self._binned(grid, rows) == ["searchsorted"]

    @pytest.mark.parametrize("tau", [352.03, [352.03]])
    def test_one_threshold_bins_by_comparison(self, tau):
        # a NaN row goes above the threshold, where searchsorted puts it
        rows = np.append(_edge_rows(np.atleast_1d(tau), np.random.default_rng(3)), np.nan)
        assert self._binned(tau, rows) == ["one threshold"]

    def test_batch_failing_the_check_bins_by_searchsorted(self):
        # a NaN or -inf row fails the arithmetic check, and the batch falls back
        grid = np.array(_parse_tau_grid("100:900:10"))
        rows = _edge_rows(grid, np.random.default_rng(4))
        for bad in (np.nan, -np.inf):
            assert self._binned(grid, np.append(rows, bad)) == ["searchsorted"]
        assert self._binned(grid, np.append(rows, np.inf)) == ["arithmetic"]

    def test_streamed_curve_chunks_bin_by_arithmetic(self, portfolio, monkeypatch):
        monkeypatch.setattr(estimators, "CHUNK", 1_000)
        grid = np.array(_parse_tau_grid("100:900:10"))
        scheme = default_scheme(portfolio, 8_000)
        with tail_bin_routes() as routes:
            proportional_ep_at(portfolio, calibrate_is(portfolio, 300.0), scheme, 8_000,
                               Rng(32), grid)
        assert routes == ["arithmetic"] * 8

    @pytest.mark.parametrize("tau", [[300.0, 200.0, 100.0], [100.0, np.nan], [100.0, 100.0],
                                     [[100.0, 200.0]], np.nan])
    def test_readers_refuse_a_grid_not_finite_and_increasing(self, portfolio, tau):
        # a naive pool read [300, 200, 100] as EP 0.0954 at tau = 100 (0.5834 in
        # increasing order), and [100, nan] as EP 0 at nan
        pool = CommonDraws(portfolio, ONE_CELL, 5_000, Rng(1)).pool(IsParams.identity(5))
        for read in (pool.ep_at, pool.tail_sums):
            with pytest.raises(DomainError, match="finite and strictly increasing"):
                read(tau)
        with pytest.raises(DomainError, match="finite and strictly increasing"):
            proportional_ep_at(portfolio, IsParams.identity(5), ONE_CELL, 5_000, Rng(1), tau)


class TestComposer:
    @staticmethod
    def _pool(counts, probs, seed):
        rng = np.random.default_rng(seed)
        labels = np.repeat(np.arange(len(counts)), counts)
        conc = rng.uniform(0.0, 2.0, size=labels.size) + labels
        weight = rng.lognormal(0.0, 0.5, size=labels.size)
        return SisSample(conc=conc, weight=weight, stratum=labels,
                         probs=np.asarray(probs, dtype=float), counts=np.asarray(counts))

    def test_matches_per_stratum_loop(self):
        # unequal allocations; stratum 0 has conc < 2 and no hit above tau
        pool = self._pool([40, 170, 25, 90], [0.1, 0.4, 0.2, 0.3], 1)
        tau = 2.5
        n = pool.counts.sum()
        parts = []
        for i, p in enumerate(pool.probs):
            c, w = pool.conc[pool.stratum == i], pool.weight[pool.stratum == i]
            y = np.where(c > tau, w, 0.0)
            parts.append((p, y, c * y))
        assert not parts[0][1].any() and parts[1][1].any()
        ep = sum(p * y.mean() for p, y, _ in parts)
        ep_var = sum(p**2 * y.var(ddof=1) / y.size for p, y, _ in parts)
        ratio = sum(p * x.mean() for p, _, x in parts) / ep
        ce_var = sum(p**2 * (x - ratio * y).var(ddof=1) / y.size for p, y, x in parts) / ep**2
        got_ep, got_ce = pool.estimates(tau)
        for got, want in ((got_ep.estimate, ep), (got_ep.variance, ep_var * n),
                          (got_ce.estimate, ratio), (got_ce.variance, ce_var * n)):
            assert got == pytest.approx(want, rel=1e-12)
        assert got_ep.halfwidth95 == pytest.approx(1.96 * np.sqrt(ep_var), rel=1e-12)

    def test_one_cell_is_textbook_is(self):
        pool = self._pool([500], [1.0], 2)
        tau = 1.5
        n = 500
        y = np.where(pool.conc > tau, pool.weight, 0.0)
        x = pool.conc * y
        ratio = x.sum() / y.sum()
        ep, ce = pool.estimates(tau)
        assert ep.estimate == pytest.approx(y.mean(), rel=1e-12)
        assert ep.variance == pytest.approx(np.sum((y - y.mean()) ** 2) / (n - 1), rel=1e-12)
        assert ce.estimate == pytest.approx(ratio, rel=1e-12)
        ce_var = np.sum((x - ratio * y) ** 2) / (n - 1) / y.mean() ** 2
        assert ce.variance == pytest.approx(ce_var, rel=1e-12)
        assert ce.halfwidth95 == pytest.approx(1.96 * np.sqrt(ce_var / n), rel=1e-12)


    def test_grid_sums_match_per_threshold_loop(self):
        pool = self._pool([40, 170, 25, 90], [0.1, 0.4, 0.2, 0.3], 3)
        # thresholds below, between, on and above the sample
        grid = np.concatenate([[-1.0], np.sort(pool.conc[::37]), np.linspace(0.5, 4.5, 9), [9.0]])
        grid = np.unique(grid)
        hits, sums = pool.tail_sums(grid)
        ep, halfwidth, total_hits = pool.ep_at(grid)
        for j, tau in enumerate(grid):
            tail = pool.conc > tau
            y = np.where(tail, pool.weight, 0.0)
            x = pool.conc * y
            want = [np.bincount(pool.stratum, weights=m, minlength=4)
                    for m in (y, y * y, x, x * x, x * y, x * pool.conc)]
            assert np.array_equal(hits[j], np.bincount(pool.stratum[tail], minlength=4))
            assert total_hits[j] == tail.sum()
            np.testing.assert_allclose(sums[:, j], want, rtol=1e-12, atol=0.0)
            one_ep, one_halfwidth, one_hits = pool.ep_at(tau)
            assert one_hits == tail.sum()
            assert ep[j] == pytest.approx(one_ep, rel=1e-12)
            assert halfwidth[j] == pytest.approx(one_halfwidth, rel=1e-12)


    def test_grid_ep_constant_where_no_row_lies_between_thresholds(self):
        # 240 strata; no row between 1 and 10, so the 60 thresholds there share
        # one tail and must share one EP (a matrix-vector product breaks ties)
        rng = np.random.default_rng(3)
        counts = np.full(240, 6)
        labels = np.repeat(np.arange(240), counts)
        conc = np.where(rng.random(labels.size) < 0.5, rng.uniform(0.0, 1.0, labels.size),
                        rng.uniform(10.0, 11.0, labels.size))
        pool = SisSample(conc=conc, weight=rng.lognormal(0.0, 0.5, labels.size),
                         stratum=labels, probs=np.full(240, 1.0 / 240), counts=counts)
        grid = np.concatenate([np.linspace(0.0, 0.9, 21), np.linspace(1.5, 9.5, 60)])
        ep, _, hits = pool.ep_at(grid)
        assert np.all(np.diff(ep) <= 0.0)
        assert np.all(ep[21:] == ep[21]) and np.all(hits[21:] == hits[21])

class TestCrossEstimatorAgreement:
    def test_unbiasedness_chain_thirty_runs(self, portfolio):
        tau = 300.0
        params = calibrate_is(portfolio, tau)
        scheme = default_scheme(portfolio, 10_000)
        d = []
        for k in range(30):
            ep_nv, _ = sis_estimate(portfolio, tau, IsParams.identity(5), ONE_CELL,
                                    10_000, Rng(1000 + k))
            ep_is, _ = sis_estimate(portfolio, tau, params, ONE_CELL, 10_000, Rng(2000 + k))
            ep_sis, _ = sis_estimate(portfolio, tau, params, scheme, 10_000, Rng(3000 + k))
            for a, b in ((ep_nv, ep_is), (ep_nv, ep_sis), (ep_is, ep_sis)):
                joint = np.hypot(a.halfwidth95, b.halfwidth95) / 1.96
                assert abs(a.estimate - b.estimate) <= 3.0 * joint
                d.append((a.estimate - b.estimate) / joint)
        # each pair's 30 differences in joint SEs are N(0, 1) for unbiased estimators
        # with honest SEs: their mean lies within 3 SE of 0, their mean square below
        # the 99.9% chi-square point
        for pair in np.array(d).reshape(30, 3).T:
            assert abs(pair.mean()) <= 3.0 / np.sqrt(pair.size), pair
            assert pair @ pair <= stats.chi2.ppf(0.999, pair.size), pair

    def test_variance_ordering_at_rare_threshold(self, portfolio):
        params = calibrate_is(portfolio, CAR_001)
        scheme = default_scheme(portfolio, 20_000)
        ordered = 0
        runs = 10
        for k in range(runs):
            _, ce_nv = sis_estimate(portfolio, CAR_001, IsParams.identity(5), ONE_CELL,
                                    20_000, Rng(4000 + k))
            _, ce_is = sis_estimate(portfolio, CAR_001, params, ONE_CELL, 20_000, Rng(5000 + k))
            _, ce_sis = sis_estimate(portfolio, CAR_001, params, scheme, 20_000, Rng(6000 + k))
            if ce_sis.variance <= ce_is.variance <= ce_nv.variance:
                ordered += 1
        assert ordered >= int(0.95 * runs)


MIXING_SLICES = 10
T_MAX = 40.0  # drift bracket: normal_cdf(-40) is 0 in double precision


def _cmc_ep(portfolio, tau: float, n: int, rng: Rng) -> tuple[float, float]:
    """Five-city EP at tau by conditional Monte Carlo along the drift axis, and its SE.

    z = w t + B r, with w the ``calibrate_is`` mean shift normalised and B the
    Householder complement ``stratified_sample`` builds.  With L w > 0 every
    V_d, and so C, increases with t, hence P(C > tau | r, y) = Phi(-t*) for
    the root C(t*) = tau.  y comes from the ``calibrate_is`` gamma tilt,
    proportionally stratified on its normal score, with its likelihood ratio.
    The root is a vectorised Newton solve of log C(t) = log tau, slope from
    the map's own cubic, safeguarded by each row's bracket.
    """
    params = calibrate_is(portfolio, tau)
    dim, nu, theta = portfolio.dimension, portfolio.copula.nu, params.theta
    w = params.mean_shift / np.linalg.norm(params.mean_shift)
    lw = portfolio.chol @ w
    assert np.all(lw > 0.0), lw
    v = w.copy()
    v[0] += 1.0 if w[0] >= 0.0 else -1.0
    complement = (np.eye(dim) - np.outer(v, v) / abs(v[0]))[:, 1:]
    g = rng.generator()
    cells = np.arange(n) % MIXING_SLICES
    u = np.clip((cells + g.random(n)) / MIXING_SLICES, 1e-16, 1.0 - 1e-16)
    y = theta * np.exp(portfolio.mixing_quantile(normal_quantile(u)))
    weight_y = (theta / 2.0) ** (nu / 2.0) * np.exp(y * (1.0 / theta - 0.5))
    scale = np.sqrt(y / nu)[:, None]
    drift = lw / scale  # dV/dt per row
    rest = g.standard_normal((n, dim - 1)) @ (portfolio.chol @ complement).T / scale
    contrib = portfolio.weights * portfolio.pm0
    t = np.full(n, np.linalg.norm(params.mean_shift))
    lo, hi = np.full(n, -T_MAX), np.full(n, T_MAX)  # log C < log tau at lo, >= at hi
    for _ in range(60):
        r, slope = portfolio.log_ratio_map.value_and_slope(drift * t[:, None] + rest)
        terms = np.exp(r) * contrib
        conc = terms.sum(axis=1)
        gap = np.log(conc / tau)
        lo, hi = np.where(gap < 0.0, t, lo), np.where(gap < 0.0, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t - gap * conc / (terms * slope * drift).sum(axis=1)
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        converged = np.abs(step - t) <= 1e-12 * np.maximum(np.abs(t), 1.0)
        t = step
        if converged.all():
            break
    assert converged.all(), np.count_nonzero(~converged)
    ep_rows = weight_y * normal_cdf(-t)
    var = sum(ep_rows[cells == i].var(ddof=1) for i in range(MIXING_SLICES))
    return float(ep_rows.mean()), float(np.sqrt(var / (MIXING_SLICES * n)))


class TestFiveCityOracle:
    # EP and SE at the reference CaRs from 10 x 1e5 oracle rows, as ROADMAP.md records
    # them; those at 239.32, 414.22 and 515.27 from Rng(101) to Rng(110)
    RECORDED = {239.32: (5.02286e-2, 6.8e-6), 352.03: (1.00996e-2, 1.5e-6),
                414.22: (5.05801e-3, 1.0e-6), 515.27: (1.99951e-3, 4.4e-7),
                600.78: (1.04412e-3, 1.9e-7)}

    @pytest.mark.parametrize("tau", [tau for _, tau, _ in CAR_ROWS])
    def test_proportional_pools_match_the_cmc_oracle(self, portfolio, tau):
        oracle, oracle_se = _cmc_ep(portfolio, tau, 100_000, Rng(1))
        recorded, recorded_se = self.RECORDED[tau]
        assert abs(oracle - recorded) <= 4.0 * np.hypot(oracle_se, recorded_se)
        params = calibrate_is(portfolio, tau)
        for scheme in (ONE_CELL, default_scheme(portfolio, 10_000)):
            eps = np.array([CommonDraws(portfolio, scheme, 10_000,
                                        Rng(seed)).pool(params).ep_at(tau)[0]
                            for seed in range(1, 41)])
            se = eps.std(ddof=1) / np.sqrt(eps.size)
            assert abs(eps.mean() - oracle) <= 4.0 * np.hypot(se, oracle_se), (
                scheme.counts, eps.mean(), oracle, se, oracle_se)

    @pytest.mark.parametrize("tau", [CAR_001, 600.78])
    def test_pool_allocated_ccar_matches_the_cmc_oracle(self, portfolio, tau):
        # a CCaR's sampler: one stage at a 1e4 CaR pool's tilt, allocated by that
        # pool's tail sums, drawn on a stream of its own
        oracle, oracle_se = self.RECORDED[tau]
        params, scheme = calibrate_is(portfolio, tau), default_scheme(portfolio, 10_000)
        eps = []
        for seed in range(1, 41):
            pool = CommonDraws(portfolio, scheme, 10_000, Rng(seed).split(1)).pool(params)
            row = (tau, params, pool.allocation(tau, 10_000))
            (ep, _), = shared_estimates(portfolio, scheme, [row], Rng(seed).split(2))
            eps.append(ep.estimate)
        se = np.std(eps, ddof=1) / np.sqrt(len(eps))
        assert abs(np.mean(eps) - oracle) <= 4.0 * np.hypot(se, oracle_se), (
            np.mean(eps), oracle, se, oracle_se)
