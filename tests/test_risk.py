import dataclasses

import numpy as np
import pytest

from pmrisk import (
    DomainError,
    EstimateResult,
    RiskQuery,
    Rng,
    build_report,
    compute_ccar,
    exceedance_curve,
    gh_quantile,
    solve_car,
    variance_reduction_factor,
    weighted_quantile,
)
from pmrisk.cli import main
from pmrisk.errors import UsageError
from pmrisk.estimators import proportional_sis_sample
from pmrisk.risk import queries, solve_cars

from conftest import CAR_ROWS

ALPHAS = [alpha for alpha, _, _ in CAR_ROWS]


def _spy_pools(monkeypatch) -> list:
    """Record (is the identity tilt, pool) for each proportional pool ``risk`` draws."""
    pools = []

    def spy(portfolio, is_params, *args, **kwargs):
        pool = proportional_sis_sample(portfolio, is_params, *args, **kwargs)
        identity = is_params.theta == 2.0 and not is_params.mean_shift.any()
        pools.append((identity, pool))
        return pool

    monkeypatch.setattr("pmrisk.risk.proportional_sis_sample", spy)
    return pools


class TestWeightedQuantile:
    def test_unweighted_matches_order_statistic(self):
        values = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        w = np.full(5, 0.2)
        assert weighted_quantile(values, w, 0.5) == 3.0
        assert weighted_quantile(values, w, 0.9) == 5.0

    def test_weights_shift_the_cut(self):
        values = np.array([1.0, 2.0, 3.0])
        w = np.array([0.98, 0.01, 0.01])
        assert weighted_quantile(values, w, 0.5) == 1.0

    def test_absolute_tail_mode(self):
        values = np.arange(1.0, 101.0)
        w = np.full(100, 0.01)
        assert weighted_quantile(values, w, 0.95) == 95.0

    def test_rejects_bad_q(self):
        with pytest.raises(DomainError):
            weighted_quantile(np.array([1.0]), np.array([1.0]), 0.0)

    def test_rejects_zero_total_mass(self):
        with pytest.raises(DomainError):
            weighted_quantile(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0.5)


class TestRiskQuery:
    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            RiskQuery(alpha=0.6, estimator="sis", budget=10_000, rng=Rng(0))

    def test_rejects_small_budget(self):
        with pytest.raises(DomainError):
            RiskQuery(alpha=0.05, estimator="sis", budget=10, rng=Rng(0))

    def test_rejects_unknown_estimator(self):
        with pytest.raises(DomainError):
            RiskQuery(alpha=0.05, estimator="qmc", budget=10_000, rng=Rng(0))

    @pytest.mark.parametrize("rng", [Rng(0), Rng(42, 7), Rng(2**63, 2**64 - 1)])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.01, 0.6, float("nan")])
    def test_rejects_alpha_out_of_range_whatever_rng(self, alpha, rng):
        with pytest.raises(UsageError):
            RiskQuery(alpha=alpha, estimator="sis", budget=10_000, rng=rng)


class TestQueries:
    def test_rows_distinct_largest_first_on_own_streams(self):
        rows = queries([0.01, 0.05, 0.01, 0.002], "is", 5000, 7)
        assert [q.alpha for q in rows] == [0.05, 0.01, 0.002]
        assert [q.rng for q in rows] == [Rng(Rng(0, 7).split(10 + k).stream) for k in range(3)]
        assert [q.rng for q in queries([0.05], "is", 5000, 8)] != [rows[0].rng]
        assert all(q.estimator == "is" and q.budget == 5000 for q in rows)

    @pytest.mark.parametrize("alphas,budget", [([], 5000), ([0.05, 0.5], 5000),
                                               ([0.05], 999)])
    def test_rejects_bad_rows(self, alphas, budget):
        with pytest.raises(UsageError):
            queries(alphas, "sis", budget, 0)


class TestSolveCar:
    def test_monotone_in_alpha(self, portfolio):
        cars = [solve_car(portfolio, RiskQuery(alpha, "sis", 20_000, Rng(31)))[0]
                for alpha in (0.05, 0.01, 0.001)]
        assert cars[0] < cars[1] < cars[2]

    def test_deterministic(self, portfolio):
        a = solve_car(portfolio, RiskQuery(0.01, "is", 20_000, Rng(5)))[0]
        b = solve_car(portfolio, RiskQuery(0.01, "is", 20_000, Rng(5)))[0]
        assert a == b

    def test_estimators_agree(self, portfolio):
        target = {est: solve_car(portfolio, RiskQuery(0.05, est, 50_000, Rng(9)))[0]
                  for est in ("naive", "is", "sis")}
        spread = max(target.values()) - min(target.values())
        assert spread <= 0.02 * np.mean(list(target.values()))

    @pytest.mark.parametrize("estimator", ["is", "sis"])
    @pytest.mark.parametrize("budget, seeds", [(5_000, range(1, 11)), (20_000, range(1, 11)),
                                               (100_000, (1,))])
    def test_stops_at_every_sensible_budget(self, portfolio, estimator, budget, seeds):
        # at budget 5000 a fixed relative stop, tighter than the quantile's noise,
        # two-cycled until CAR_MAX_ITER on some of these (alpha, seed) pairs
        for seed in seeds:
            for alpha, car_ref, _ in CAR_ROWS:
                car = solve_car(portfolio, RiskQuery(alpha, estimator, budget, Rng(seed)))[0]
                # the paper's band, widened to this budget's Monte Carlo error
                band = (0.03 if alpha <= 0.002 else 0.015) * np.sqrt(100_000 / budget)
                assert abs(car / car_ref - 1.0) <= band, (alpha, seed, car)

    @pytest.mark.parametrize("estimator", ["naive", "is", "sis"])
    def test_returns_the_pool_its_car_is_read_from(self, portfolio, estimator):
        query = RiskQuery(0.01, estimator, 5_000, Rng(2))
        tau, pool = solve_car(portfolio, query)
        assert tau == weighted_quantile(pool.conc, pool.sample_weight, 1.0 - query.alpha)

    def test_start_pool_replaces_the_pilot(self, portfolio, monkeypatch):
        _, start = solve_car(portfolio, RiskQuery(0.05, "sis", 5_000, Rng(2)))
        pools = _spy_pools(monkeypatch)
        solve_car(portfolio, RiskQuery(0.01, "sis", 5_000, Rng(3)), start=start)
        assert pools and not any(identity for identity, _ in pools)
        # naive reads its CaR off the start pool and draws nothing
        drawn = len(pools)
        tau, pool = solve_car(portfolio, RiskQuery(0.01, "naive", 5_000, Rng(3)), start=start)
        assert pool is start and len(pools) == drawn
        assert tau == weighted_quantile(start.conc, start.sample_weight, 0.99)

    @pytest.mark.parametrize("alpha", [0.05, 0.001])
    def test_single_city_matches_closed_form(self, single_city, alpha):
        # one city: C = 100 exp(X), so CaR_alpha = 100 exp(G^-1(1 - alpha)) exactly
        exact = 100.0 * np.exp(gh_quantile(single_city.marginals[0], 1.0 - alpha))
        cars = np.array([solve_car(single_city, RiskQuery(alpha, "sis", 5_000, Rng(seed)))[0]
                         for seed in range(1, 41)])
        se = cars.std(ddof=1) / np.sqrt(cars.size)
        assert abs(cars.mean() - exact) <= 3.0 * se, (cars.mean(), exact, se)


class TestComputeCcar:
    def test_ccar_above_car(self, portfolio):
        query = RiskQuery(0.05, "sis", 20_000, Rng(3))
        tau = solve_car(portfolio, query)[0]
        ce = compute_ccar(portfolio, query, tau)
        assert ce.estimate > tau

    def test_alpha_ordering(self, portfolio):
        out = {}
        for alpha in (0.05, 0.01):
            query = RiskQuery(alpha, "sis", 20_000, Rng(4))
            tau = solve_car(portfolio, query)[0]
            out[alpha] = compute_ccar(portfolio, query, tau).estimate
        assert out[0.01] > out[0.05]

    def test_calibration_warning_reaches_the_list(self, portfolio, monkeypatch):
        import pmrisk.risk as risk_mod

        query = RiskQuery(0.01, "is", 4000, Rng(5))
        plain = compute_ccar(portfolio, query, 352.03)
        calibrate = risk_mod.calibrate_is

        def failing(pf, tau):
            return dataclasses.replace(calibrate(pf, tau),
                                       warning="IS calibration failed (synthetic)")

        monkeypatch.setattr(risk_mod, "calibrate_is", failing)
        warnings = []
        assert compute_ccar(portfolio, query, 352.03, warnings=warnings) == plain
        assert warnings == ["alpha=0.01: IS calibration failed (synthetic)"]
        compute_ccar(portfolio, RiskQuery(0.01, "naive", 4000, Rng(5)), 352.03,
                     warnings=warnings)
        assert len(warnings) == 1  # naive calibrates nothing


class TestExceedanceCurve:
    def test_monotone_nonincreasing_all_estimators(self, portfolio):
        grid = np.arange(100.0, 501.0, 50.0)
        for est in ("naive", "is", "sis"):
            pts = exceedance_curve(portfolio, grid, est, 4000, 11)
            eps = [p.ep for p in pts]
            assert all(a >= b for a, b in zip(eps, eps[1:])), est

    def test_ep_at_car_level(self, portfolio):
        tau5 = solve_car(portfolio, RiskQuery(0.05, "sis", 50_000, Rng(8)))[0]
        tau1 = solve_car(portfolio, RiskQuery(0.01, "sis", 50_000, Rng(8)))[0]
        pts = exceedance_curve(portfolio, np.array([tau5, tau1]), "sis", 50_000, 8)
        for point, alpha in zip(pts, (0.05, 0.01)):
            assert abs(point.ep - alpha) <= 3.0 * point.halfwidth95

    def test_rejects_unsorted_grid(self, portfolio):
        with pytest.raises(DomainError):
            exceedance_curve(portfolio, np.array([200.0, 150.0]), "naive", 1000, 0)

    def test_grid_below_baseline_degrades_gracefully(self, portfolio):
        # thresholds under the current concentration: EP ~ 1, tilt stays mild
        pts = exceedance_curve(portfolio, np.array([50.0, 80.0]), "sis", 4000, 6)
        assert pts[0].ep > 0.9
        assert pts[0].ep >= pts[1].ep


class TestVarianceReduction:
    @staticmethod
    def _result(halfwidth, n=1000):
        return EstimateResult(estimate=1.0, variance=1.0, halfwidth95=halfwidth, n=n)

    def test_identity(self):
        assert variance_reduction_factor(self._result(0.2), self._result(0.2)) == 1.0

    def test_halved_width_quadruples(self):
        assert variance_reduction_factor(self._result(0.2), self._result(0.1)) == 4.0

    def test_zero_width_flags_infinite(self):
        assert variance_reduction_factor(self._result(0.2), self._result(0.0)) == np.inf

    def test_requires_equal_budgets(self):
        with pytest.raises(DomainError):
            variance_reduction_factor(self._result(0.2, 1000), self._result(0.1, 2000))

    def test_pool_vr_agrees_with_naive_runs(self, portfolio):
        # at CaR_0.01 over 20 streams: the SIS CCaR's own VR against one from a naive run
        tau, budget = 352.03, 10_000
        pooled, run_based = [], []
        for s in range(20):
            ce = compute_ccar(portfolio, RiskQuery(0.01, "sis", budget, Rng(s)), tau)
            naive = compute_ccar(portfolio, RiskQuery(0.01, "naive", budget, Rng(1000 + s)), tau)
            pooled.append(ce.naive_variance / ce.variance)
            run_based.append(variance_reduction_factor(naive, ce))
        se = np.std(run_based, ddof=1) / np.sqrt(len(run_based))
        assert abs(np.mean(pooled) - np.mean(run_based)) <= 3.0 * se
        assert np.std(pooled) < np.std(run_based)


class TestReport:
    def test_rows_sorted_and_consistent(self, portfolio):
        rows = build_report(portfolio, queries([0.01, 0.05], "sis", 20_000, 21))
        alphas = [r.alpha for r in rows]
        assert alphas == sorted(alphas, reverse=True)
        for row in rows:
            assert row.ccar > row.car
            assert row.vr_factor > 1.0

    def test_byte_identical_repeat(self, portfolio):
        a = build_report(portfolio, queries([0.05], "is", 20_000, 33))
        b = build_report(portfolio, queries([0.05], "is", 20_000, 33))
        assert a == b

    def test_sis_report_draws_no_naive_reference(self, portfolio, monkeypatch):
        estimators = []

        def spy(portfolio, query, *args, **kwargs):
            estimators.append(query.estimator)
            return compute_ccar(portfolio, query, *args, **kwargs)

        monkeypatch.setattr("pmrisk.risk.compute_ccar", spy)
        rows = build_report(portfolio, queries([0.05, 0.01], "sis", 20_000, 21))
        assert estimators == ["sis", "sis"]
        assert all(np.isfinite(row.vr_factor) and row.vr_factor > 1.0 for row in rows)

    def test_sis_report_draws_one_pilot(self, portfolio, monkeypatch):
        pools = _spy_pools(monkeypatch)
        build_report(portfolio, queries(ALPHAS, "sis", 5_000, 3))
        assert [identity for identity, _ in pools].count(True) == 1
        assert pools[0][0]

    def test_first_row_is_the_one_alpha_row_and_later_rows_chain(self, portfolio):
        rows = build_report(portfolio, queries(ALPHAS, "sis", 5_000, 3))
        assert rows[0] == build_report(portfolio, queries(ALPHAS[:1], "sis", 5_000, 3))[0]
        # row 1 on its own stream but from its own pilot, not from row 0's pool
        alone = queries(ALPHAS, "sis", 5_000, 3)[1]
        assert rows[1].car != solve_car(portfolio, alone)[0]

    def test_car_writes_the_report_car_column(self, portfolio, tmp_path, monkeypatch):
        pools = _spy_pools(monkeypatch)
        out = tmp_path / "car.csv"
        argv = ["car", "--preset", "paper", "--estimator", "sis", "--alpha",
                ",".join(map(repr, ALPHAS)), "--budget", "5000", "--seed", "3",
                "--out", str(out)]
        assert main(argv) == 0
        body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert body[0] == "alpha,car"
        assert [identity for identity, _ in pools].count(True) == 1
        rows = build_report(portfolio, queries(ALPHAS, "sis", 5_000, 3))
        assert [float(line.split(",")[1]) for line in body[1:]] == [r.car for r in rows]

    def test_simulate_writes_the_report_rows(self, portfolio, tmp_path):
        out = tmp_path / "report.csv"
        argv = ["simulate", "--preset", "paper", "--estimator", "sis", "--alpha",
                ",".join(map(repr, ALPHAS)), "--budget", "5000", "--seed", "3",
                "--out", str(out)]
        assert main(argv) == 0
        body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert body[0] == "alpha,car,ccar,ccar_ci_pct,vr_factor"
        rows = build_report(portfolio, queries(ALPHAS, "sis", 5_000, 3))
        assert [tuple(map(float, line.split(","))) for line in body[1:]] == [
            dataclasses.astuple(row) for row in rows]

    def test_naive_rows_read_the_first_pilot(self, portfolio, monkeypatch):
        pools = _spy_pools(monkeypatch)
        rows = build_report(portfolio, queries([0.05, 0.01, 0.001], "naive", 5_000, 5))
        assert len(pools) == 1
        pilot = pools[0][1]
        assert [r.car for r in rows] == [
            weighted_quantile(pilot.conc, pilot.sample_weight, 1.0 - r.alpha) for r in rows]

    @pytest.mark.parametrize("estimator", ["is", "sis"])
    def test_chain_stops_at_budget_5000(self, portfolio, estimator):
        # ten sets of explicit row streams, as queries() derives one set per seed
        for s in range(1, 11):
            runs = [RiskQuery(alpha=alpha, estimator=estimator, budget=5_000,
                              rng=Rng(100 * s + k))
                    for k, alpha in enumerate(ALPHAS)]
            for (alpha, car_ref, _), car in zip(CAR_ROWS, solve_cars(portfolio, runs)):
                band = (0.03 if alpha <= 0.002 else 0.015) * np.sqrt(100_000 / 5_000)
                assert abs(car / car_ref - 1.0) <= band, (alpha, s, car)

    def test_naive_estimator_reports_unit_vr(self, portfolio):
        rows = build_report(portfolio, queries([0.05], "naive", 20_000, 5))
        assert rows[0].vr_factor == 1.0
        assert rows[0].ccar > rows[0].car
