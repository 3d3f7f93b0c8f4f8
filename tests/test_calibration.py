from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, special, stats

from pmrisk import (
    ConcentrationSeries,
    DataError,
    GhParams,
    Rng,
    compute_log_ratios,
    fit_gh_marginal,
    fit_t_copula,
    gh_cdf,
    gh_quantile,
    split_train_holdout,
)
from pmrisk import calibration
from pmrisk import ghdist
from pmrisk.calibration import LogRatioPanel, _negloglik_grad, _unpack
from pmrisk.copula import marginal_transform
from pmrisk.ghdist import gh_logpdf

from conftest import GH_ROWS, NU, SIGMA, model_draw

# Two 225-row draws, stored: the Cd law's at Rng(21) and the Tj law's at Rng(147),
# made by gh_quantile (see the file's header).  Fit outcomes on samples this short
# can flip when the GH tables behind gh_quantile move by an ulp.
STORED_DRAWS = dict(zip(("Cd", "Tj"), np.loadtxt(Path(__file__).parent / "data"
                                                 / "gh_fit_draws.txt", unpack=True)))


def _series(city, days, values):
    return ConcentrationSeries(city=city, days=np.array(days), values=np.array(values))


def _synthetic_panel(portfolio, n, seed):
    draw = model_draw(portfolio, Rng(seed), n)
    values = marginal_transform(portfolio, draw)
    return LogRatioPanel(
        cities=portfolio.names,
        days=np.arange(n),
        values=values,
        mask=np.ones_like(values, dtype=bool),
    )


class TestComputeLogRatios:
    def test_constant_series(self):
        panel = compute_log_ratios([_series("a", [1, 2, 3], [100.0, 100.0, 100.0])])
        assert panel.n_rows == 2
        assert np.allclose(panel.values[:, 0], 0.0)

    def test_single_pair_value(self):
        panel = compute_log_ratios([_series("a", [1, 2], [100.0, 110.0])])
        assert abs(panel.values[0, 0] - np.log(1.1)) <= 1e-12

    def test_year_with_two_missing_days(self):
        # pair-counting oracle: pairs (d, d+1) with both endpoints present
        days = [d for d in range(1, 366) if d not in (361, 362)]
        present = set(days)
        expected = sum(1 for d in days if d + 1 in present)
        assert expected == 361
        panel = compute_log_ratios([_series("a", days, [100.0] * len(days))])
        assert panel.n_rows == expected
        assert 360 not in panel.days and 361 not in panel.days and 362 not in panel.days

    def test_cross_city_alignment(self):
        a = _series("a", [1, 2, 3, 4], [100.0] * 4)
        b = _series("b", [1, 2, 4, 5], [100.0] * 4)
        panel = compute_log_ratios([a, b])
        # a has pairs at days 1,2,3; b at days 1,4
        assert panel.complete_rows().shape[0] == 1
        assert panel.city_ratios(0).size == 3
        assert panel.city_ratios(1).size == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            _series("a", [1, 2], [100.0, -5.0])

    def test_requires_two_observations(self):
        with pytest.raises(DataError):
            compute_log_ratios([_series("a", [1], [100.0])])


def _negloglik(x, samples):
    """The negative log-likelihood at search point x, as gh_logpdf gives it."""
    return -float(np.sum(gh_logpdf(_unpack(x), samples)))


def _scipy_terms(order, z):
    """log kve, K_{order-1}/K_order and a four-point central difference of
    log kve in the order, where scipy holds all of them; else NaN."""
    with np.errstate(all="ignore"):
        k = special.kve(order, z)
        ratio = special.kve(order - 1.0, z) / k
        step = 1e-3
        logs = [np.log(special.kve(order + i * step, z)) for i in (-2, -1, 1, 2)]
        d_order = (logs[0] - 8.0 * logs[1] + 8.0 * logs[2] - logs[3]) / (12.0 * step)
        return np.log(k), ratio, d_order


class TestBesselKernel:
    # the search box: lam in [-50, 50], so nu = lam - 1/2 in [-50.5, 49.5]
    ORDERS = np.concatenate([np.linspace(-50.5, 49.5, 41), np.linspace(-3.0, 3.0, 25)])

    def test_matches_scipy_over_the_box(self):
        z = np.logspace(-12, 9, 85)
        checked = 0
        for order in self.ORDERS:
            log_k, ratio, d_order = ghdist._log_bessel_terms(order, z)
            ref_log_k, ref_ratio, ref_d = _scipy_terms(order, z)
            held = np.isfinite(ref_log_k) & np.isfinite(ref_ratio) & (ref_ratio > 0)
            held &= np.isfinite(ref_d)
            checked += np.count_nonzero(held)
            log_k, ratio, d_order = log_k[held], ratio[held], d_order[held]
            ref_log_k, ref_ratio, ref_d = ref_log_k[held], ref_ratio[held], ref_d[held]
            assert np.all(np.abs(log_k - ref_log_k)
                          <= 1e-12 * np.maximum(1.0, np.abs(ref_log_k)))
            assert np.all(np.abs(ratio / ref_ratio - 1.0) <= 1e-11)
            assert np.all(np.abs(d_order - ref_d) <= 1e-8 * np.maximum(1.0, np.abs(ref_d)))
        assert checked > 0.9 * self.ORDERS.size * z.size

    def test_holds_where_kve_fails(self):
        # past z = 2^30 kve is NaN: the two-term Hankel asymptote of log kve
        # (DLMF 10.40.2), exact to O(z^-2), is the reference there, and the
        # order ratio is 1 - (2 nu - 1) / (2 z) to O(nu^2 / z^2)
        big = np.logspace(9.5, 20.0, 22)
        assert np.all(np.isnan(special.kve(0.3, big)))
        for order in self.ORDERS:
            log_k, ratio, d_order = ghdist._log_bessel_terms(order, big)
            hankel = 0.5 * np.log(np.pi / (2.0 * big)) + np.log1p((4.0 * order**2 - 1.0)
                                                                   / (8.0 * big))
            assert np.all(np.isfinite(d_order))
            assert np.all(np.abs(log_k - hankel) <= 1e-12 * np.abs(log_k))
            assert np.all(np.abs(ratio - 1.0 + (2.0 * order - 1.0) / (2.0 * big)) <= 1e-11)
        # kve overflows at a large order and a small z; there K_nu(z) is
        # Gamma(nu) (2/z)^nu / 2 to relative O(z^2 / nu), and d log K / d nu
        # is digamma(nu) + log(2/z)
        tiny = np.logspace(-12.0, -9.0, 7)
        for order in (40.0, -45.5, 49.5):
            assert np.all(np.isinf(special.kve(order, tiny)))
            log_k, ratio, d_order = ghdist._log_bessel_terms(order, tiny)
            nu = abs(order)
            series = special.gammaln(nu) + nu * np.log(2.0 / tiny) - np.log(2.0) + tiny
            assert np.all(np.abs(log_k - series) <= 1e-12 * series)
            assert np.all(np.abs(np.abs(d_order) - special.digamma(nu) - np.log(2.0 / tiny))
                          <= 1e-9)
            assert np.all(np.isfinite(ratio) & (ratio > 0.0))

    def test_wide_batch_is_split_into_node_sets(self):
        # alpha = e^50 next to a tiny z: one node set would need ~1e12 nodes;
        # the grouped batch gives each row what it gets alone
        z = np.concatenate([np.logspace(-8.0, 21.0, 60), [3.0, 1e-8, 2e15]])
        for order in (-7.3, 0.5, 1.7, 49.5):
            together = ghdist._log_bessel_terms(order, z)
            alone = [ghdist._log_bessel_terms(order, z[i:i + 1]) for i in range(z.size)]
            for got, ref in zip(together, zip(*alone)):
                ref = np.concatenate(ref)
                assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
        r, peak = np.hypot(z, 1.0), np.arcsinh(1.0 / z)
        groups = ghdist._kernel_groups(z, r, peak, 1.0)
        assert len(groups) > 1
        # a node set past _KERNEL_NODES nodes holds only rows that need its
        # step alone, and none whose own end is more than _KERNEL_SHARE short
        for rows, step, end in groups:
            if end / step <= ghdist._KERNEL_NODES:
                continue
            for i in rows:
                ((_, own_step, own_end),) = ghdist._kernel_groups(z[i:i + 1], r[i:i + 1],
                                                                  peak[i:i + 1], 1.0)
                assert own_step == step and end - ghdist._KERNEL_SHARE <= own_end <= end


class TestFitGhMarginal:
    def test_refit_dominates_generating_likelihood(self, single_city):
        rng = Rng(51)
        u = rng.generator().random(5000)
        samples = gh_quantile(GH_ROWS["Bj"], np.clip(u, 1e-12, 1 - 1e-12))
        fit = fit_gh_marginal(samples, rng=Rng(52))
        generating = float(np.sum(gh_logpdf(GH_ROWS["Bj"], samples)))
        assert fit.loglik >= generating - 0.5

    def test_symmetric_data_profile_comparison(self):
        sym = GhParams(lam=1.0, alpha=2.5, delta=0.7, beta=0.0, mu=0.1)
        u = Rng(53).generator().random(4000)
        samples = gh_quantile(sym, np.clip(u, 1e-12, 1 - 1e-12))
        fit = fit_gh_marginal(samples, rng=Rng(54))

        def profile_nll(x):
            lam, g, log_delta, mu = x
            return _negloglik(np.array([lam, g, log_delta, 0.0, mu]), samples)

        res = optimize.minimize(
            profile_nll,
            np.array([1.0, np.log(2.5), np.log(0.7), 0.1]),
            method="Nelder-Mead",
            options={"maxfev": 1200, "xatol": 1e-5, "fatol": 1e-4},
        )
        assert fit.loglik >= -res.fun - 1e-6  # nested model
        assert fit.loglik - (-res.fun) <= 1.0

    def test_beats_normal_fit_on_heavy_tails(self):
        u = Rng(55).generator().random(3000)
        samples = gh_quantile(GH_ROWS["Bj"], np.clip(u, 1e-12, 1 - 1e-12))
        fit = fit_gh_marginal(samples, rng=Rng(56))
        normal_ll = float(np.sum(stats.norm.logpdf(samples, samples.mean(), samples.std())))
        assert fit.loglik >= normal_ll

    @pytest.mark.parametrize("x", [
        [1.0, 0.5, -1.0, 0.3, 0.2],
        [-1.5, 0.5, -1.0, 0.3, 0.2],  # lambda < 0
        [0.7, -3.0, -1.0, 2.0, 0.2],  # |beta| / alpha = 0.9997
        [0.7, 1.0, np.log(1e-6), -0.5, 0.2],  # delta = 1e-6
        [2.5, 1.2, np.log(1e-6), -1.0, 0.6],
    ])
    def test_analytic_gradient_matches_finite_differences(self, x):
        u = Rng(65).generator().random(250)
        samples = gh_quantile(GH_ROWS["Bj"], np.clip(u, 1e-12, 1 - 1e-12))
        x = np.array(x)
        value, grad = _negloglik_grad(x, samples)
        assert abs(value - _negloglik(x, samples)) <= 1e-10 * abs(value)
        h = 1e-6
        fd = np.array([
            (_negloglik(x + h * e, samples) - _negloglik(x - h * e, samples)) / (2 * h)
            for e in np.eye(5)
        ])
        # 1.5e-7 at most over these points; the forward difference in the
        # Bessel order that the exact lambda derivative replaced read 7.4e-7
        assert np.max(np.abs(grad - fd)) <= 5e-7 * np.linalg.norm(fd)

    def test_variance_gamma_ridge(self):
        # delta -> 0 is the variance-gamma limit; the fit must find the ridge
        vg = GhParams(lam=2.0, alpha=4.0, delta=1e-6, beta=-1.0, mu=0.3)
        u = Rng(66).generator().random(1000)
        samples = gh_quantile(vg, np.clip(u, 1e-12, 1 - 1e-12))
        fit = fit_gh_marginal(samples, rng=Rng(67))

        def profile_nll(x):
            lam, g, beta, mu = x
            return _negloglik(np.array([lam, g, np.log(vg.delta), beta, mu]), samples)

        res = optimize.minimize(
            profile_nll,
            np.array([vg.lam, np.log(vg.gamma), vg.beta, vg.mu]),
            method="Nelder-Mead",
            options={"maxfev": 2000, "xatol": 1e-6, "fatol": 1e-7},
        )
        assert fit.loglik >= -res.fun - 1e-6
        assert fit.candidate == "ridge"

    def test_polish_reruns_a_stalled_stop(self):
        # on this Cd draw the first tight L-BFGS-B run from the best screened
        # point stops on its relative-reduction test with a gradient of 3.3
        u = Rng(4).generator().random(225)
        samples = gh_quantile(GH_ROWS["Cd"], np.clip(u, 1e-12, 1 - 1e-12))
        screened = [calibration._lbfgsb(samples, x0, calibration._SCREEN)
                    for x0 in calibration._start_points(samples, Rng(4).split(100))]
        x0 = min(screened, key=lambda res: res.fun).x
        once = calibration._lbfgsb(samples, x0, calibration._POLISH)
        assert calibration._projected_gradient(once) > 1.0
        res, spent = calibration._polish(samples, x0)
        assert res.fun <= once.fun - 0.1
        assert calibration._projected_gradient(res) <= calibration._RESTART_GTOL
        assert spent > once.nfev

    def test_ridge_polish_above_the_interior_is_not_rerun(self):
        # on this Tj draw the ridge start stops about 430 nats above the
        # interior optimum with a gradient near 5e3; its reruns would spend
        # as many evaluations again and still end above that optimum
        samples = STORED_DRAWS["Tj"]
        screened = [calibration._lbfgsb(samples, x0, calibration._SCREEN)
                    for x0 in calibration._start_points(samples, Rng(147).split(100))]
        interior, _ = calibration._polish(samples, min(screened, key=lambda r: r.fun).x)
        start = interior.x.copy()
        start[2] = np.log(np.std(samples)) + calibration._RIDGE_LOG_DELTA
        start[0] = max(start[0], 1.0)
        once = calibration._lbfgsb(samples, start, calibration._POLISH)
        assert once.fun > interior.fun + 100.0
        assert calibration._projected_gradient(once) > calibration._RESTART_GTOL
        rerun, spent_rerun = calibration._polish(samples, start)
        assert rerun.fun > interior.fun and spent_rerun > once.nfev
        res, spent = calibration._polish(samples, start, lead=interior.fun)
        assert res.fun == once.fun and spent == once.nfev

    def test_reports_box_bound(self):
        # a 225-row draw of the Cd law whose fit runs beta onto the box
        samples = STORED_DRAWS["Cd"]
        fit = fit_gh_marginal(samples, rng=Rng(21).split(100))
        assert fit.at_bound == ("beta",)
        assert fit.params.beta == -50.0

    def test_evaluation_count(self, monkeypatch):
        calls = []
        objective = calibration._negloglik_grad

        def counted(x, samples):
            calls.append(1)
            return objective(x, samples)

        monkeypatch.setattr(calibration, "_negloglik_grad", counted)
        u = Rng(68).generator().random(250)
        samples = gh_quantile(GH_ROWS["Bj"], np.clip(u, 1e-12, 1 - 1e-12))
        fit = fit_gh_marginal(samples, rng=Rng(69))
        assert np.isfinite(fit.loglik)
        # 97 evaluations here; the earlier schedule (below) made 151
        assert 0 < len(calls) <= 110
        assert fit.evaluations == len(calls)

    # log-likelihood reached by the earlier schedule of the search: a
    # 15-iteration screen, the ridge candidate started from the screened
    # point, polishes stopped at ftol 1e-13 and never rerun
    @pytest.mark.parametrize("city, seed, recorded", [
        ("Bj", 1, -230.61725066487452),
        ("Bj", 2, -251.03011721106128),
        ("Tj", 1, -181.80430793510638),
        ("Tj", 2, -202.8023439665314),
        ("Cd", 1, -165.53498437374708),
        ("Cd", 2, -183.24197858852585),
        ("Hs", 1, -156.90697994832263),
        ("Hs", 2, -176.77777099783336),
        ("Xt", 1, -160.54159466265207),
        ("Xt", 2, -181.25059555981977),
    ])
    def test_reaches_recorded_optimum(self, city, seed, recorded):
        u = Rng(seed).generator().random(225)
        samples = gh_quantile(GH_ROWS[city], np.clip(u, 1e-12, 1 - 1e-12))
        fit = fit_gh_marginal(samples, rng=Rng(seed).split(100))
        assert fit.loglik >= recorded - 1e-3

    def test_small_sample_warning(self):
        u = Rng(57).generator().random(60)
        samples = gh_quantile(GH_ROWS["Hs"], np.clip(u, 1e-12, 1 - 1e-12))
        fit = fit_gh_marginal(samples, rng=Rng(58))
        assert fit.warning is not None


class TestFitTCopula:
    def test_recovers_generating_dependence(self, portfolio):
        panel = _synthetic_panel(portfolio, 10_000, 59)
        fit = fit_t_copula(panel, list(portfolio.marginals))
        assert np.max(np.abs(fit.spec.sigma - SIGMA)) <= 0.03
        assert 8.0 <= fit.spec.nu <= 17.0
        assert fit.loglik_t > fit.loglik_normal

    def test_output_is_valid_correlation(self, portfolio):
        panel = _synthetic_panel(portfolio, 2000, 60)
        fit = fit_t_copula(panel, list(portfolio.marginals))
        s = fit.spec.sigma
        assert np.allclose(s, s.T)
        assert np.allclose(np.diag(s), 1.0)
        assert np.all(np.linalg.eigvalsh(s) > 0.0)

    def test_comonotone_panel_flags_near_singularity(self):
        bj = GH_ROWS["Bj"]
        u = Rng(61).generator().random(500)
        col = gh_quantile(bj, np.clip(u, 1e-12, 1 - 1e-12))
        values = np.column_stack([col, col, col])
        panel = LogRatioPanel(
            cities=("a", "b", "c"),
            days=np.arange(500),
            values=values,
            mask=np.ones_like(values, dtype=bool),
        )
        fit = fit_t_copula(panel, [bj, bj, bj])
        off = fit.spec.sigma[0, 1]
        assert 0.999 <= off < 1.0
        assert fit.warning is not None

    def test_independent_columns_near_zero(self, portfolio):
        from pmrisk import CityPortfolio, CopulaSpec

        indep = CityPortfolio(
            names=portfolio.names,
            weights=portfolio.weights,
            pm0=portfolio.pm0,
            scale=portfolio.scale,
            marginals=portfolio.marginals,
            copula=CopulaSpec(family="t", sigma=np.eye(5), nu=NU),
        )
        panel = _synthetic_panel(indep, 20_000, 62)
        fit = fit_t_copula(panel, list(indep.marginals))
        off = fit.spec.sigma[~np.eye(5, dtype=bool)]
        assert np.max(np.abs(off)) <= 0.03

    def test_pseudo_observations_uniform(self, portfolio):
        panel = _synthetic_panel(portfolio, 20_000, 63)
        u = gh_cdf(portfolio.marginals[0], panel.values[:, 0])
        assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_requires_enough_rows(self, portfolio):
        panel = _synthetic_panel(portfolio, 50, 64)
        with pytest.raises(DataError):
            fit_t_copula(panel, list(portfolio.marginals))


class TestSplitTrainHoldout:
    @staticmethod
    def _panel(n):
        values = np.arange(2 * n, dtype=float).reshape(n, 2)
        return LogRatioPanel(
            cities=("a", "b"),
            days=np.arange(n),
            values=values,
            mask=np.ones_like(values, dtype=bool),
        )

    def test_sizes(self):
        train, hold = split_train_holdout(self._panel(10), 0.9, Rng(1))
        assert train.n_rows == 9 and hold.n_rows == 1

    def test_deterministic(self):
        a_train, _ = split_train_holdout(self._panel(100), 0.9, Rng(2))
        b_train, _ = split_train_holdout(self._panel(100), 0.9, Rng(2))
        assert np.array_equal(a_train.days, b_train.days)

    def test_partition(self):
        panel = self._panel(37)
        train, hold = split_train_holdout(panel, 0.8, Rng(3))
        merged = np.sort(np.concatenate([train.days, hold.days]))
        assert np.array_equal(merged, panel.days)
