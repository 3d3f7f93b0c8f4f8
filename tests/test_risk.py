import dataclasses
import warnings

import numpy as np
import pytest

from pmrisk import (
    DomainError,
    RiskQuery,
    Rng,
    build_report,
    compute_ccar,
    exceedance_curve,
    gh_cdf,
    gh_quantile,
    solve_car,
)
from pmrisk.cli import main
from pmrisk.errors import UsageError
from pmrisk.estimators import (
    ONE_CELL,
    CommonDraws,
    IsParams,
    SisSample,
    calibrate_is,
    default_scheme,
    inverse_form,
    sis_estimate,
)
from pmrisk.risk import _STREAM_CAR, ESTIMATORS, queries, solve_cars

from conftest import CAR_ROWS, stage_rows

ALPHAS = [alpha for alpha, _, _ in CAR_ROWS]


def _spy_pools(monkeypatch) -> list:
    """Record (is the identity tilt, pool) for each pool ``risk`` draws: every
    ``CommonDraws.pool``, the pilots' and the re-tilts of a solve's draws."""
    pools = []

    def record(is_params, pool):
        pools.append((is_params.theta == 2.0 and not is_params.mean_shift.any(), pool))
        return pool

    retilt = CommonDraws.pool
    monkeypatch.setattr(CommonDraws, "pool", lambda draws, is_params: record(
        is_params, retilt(draws, is_params)))
    return pools


def _redrawn_solve(portfolio, query, start=None, rng=None) -> tuple[float, SisSample]:
    """The CaR loop with a fresh pool per round: the first tau from ``start`` or an
    identity-tilt pilot, then each round calibrated at the current tau and drawn
    anew on ``rng`` (the query's CaR stream by default), stopping as ``solve_car``
    does."""
    rng = query.rng.split(_STREAM_CAR) if rng is None else rng
    pool = start
    if pool is None:
        pool = CommonDraws(portfolio, ONE_CELL, query.budget,
                           rng).pool(IsParams.identity(portfolio.dimension))
    tau = pool.quantile(query.alpha)
    scheme = default_scheme(portfolio, query.budget) if query.estimator == "sis" else ONE_CELL
    while query.estimator != "naive":
        pool = CommonDraws(portfolio, scheme, query.budget,
                           rng).pool(calibrate_is(portfolio, tau))
        ep, halfwidth, _ = pool.ep_at(tau)
        tau = pool.quantile(query.alpha)
        if abs(ep - query.alpha) <= halfwidth:
            break
    return tau, pool


def _one_stratum_pool(values, weights) -> SisSample:
    """A pool whose ``sample_weight`` is ``weights`` exactly: one stratum, counts [1]."""
    values = np.asarray(values, dtype=float)
    return SisSample(conc=values, weight=np.asarray(weights, dtype=float),
                     stratum=np.zeros(values.size, dtype=int), probs=np.array([1.0]),
                     counts=np.array([1]))


class _PoolReaders:
    """A pool seen only through its readers and the draws and tilt it was made
    from: its columns, and any other attribute, are missing."""

    def __init__(self, pool: SisSample):
        self._pool = pool

    def __getattr__(self, name):
        if name not in ("ep_at", "quantile", "estimates", "draws", "tilt"):
            raise AttributeError(name)
        return getattr(self._pool, name)


class TestPoolInterface:
    @pytest.mark.parametrize("estimator", ["naive", "is", "sis"])
    def test_car_chain_reads_pools_only_through_their_readers(self, portfolio, monkeypatch,
                                                              estimator):
        rows = queries([0.05, 0.01], estimator, 5000, 3)
        report, cars = build_report(portfolio, rows), solve_cars(portfolio, rows)
        wrapped = []

        def readers_only(pool):
            wrapped.append(_PoolReaders(pool))
            return wrapped[-1]

        retilt = CommonDraws.pool
        monkeypatch.setattr(CommonDraws, "pool",
                            lambda draws, is_params: readers_only(retilt(draws, is_params)))
        assert build_report(portfolio, rows) == report
        assert solve_cars(portfolio, rows) == cars
        assert wrapped


class TestWeightedQuantile:
    def test_unweighted_matches_order_statistic(self):
        pool = _one_stratum_pool([5.0, 1.0, 3.0, 2.0, 4.0], np.full(5, 0.2))
        assert pool.quantile(0.5) == 3.0
        assert pool.quantile(0.1) == 5.0

    def test_weights_shift_the_cut(self):
        pool = _one_stratum_pool([1.0, 2.0, 3.0], [0.98, 0.01, 0.01])
        assert pool.quantile(0.5) == 1.0

    def test_absolute_tail_mode(self):
        pool = _one_stratum_pool(np.arange(1.0, 101.0), np.full(100, 0.01))
        assert pool.quantile(0.05) == 95.0

    def test_rejects_bad_q(self):
        with pytest.raises(DomainError):
            _one_stratum_pool([1.0], [1.0]).quantile(1.0)

    def test_rejects_zero_total_mass(self):
        with pytest.raises(DomainError):
            _one_stratum_pool([1.0, 2.0], [0.0, 0.0]).quantile(0.5)

    @staticmethod
    def _stable_quantile(pool: SisSample, alpha: float) -> float:
        """``quantile`` as written with a stable sort of the concentrations."""
        order = np.argsort(pool.conc, kind="stable")
        cum = np.cumsum(pool.sample_weight[order])
        idx = int(np.searchsorted(-(cum[-1] - cum), -(1.0 - (1.0 - alpha)), side="left"))
        return float(pool.conc[order[min(idx, pool.conc.size - 1)]])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_a_stable_sort_on_random_pools(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(200, 400, 22)
        counts[-1] += 10_000 - counts.sum()
        labels = np.repeat(np.arange(22), counts)
        pool = SisSample(conc=rng.lognormal(5.0, 0.4, labels.size),
                         weight=rng.lognormal(0.0, 1.0, labels.size), stratum=labels,
                         probs=np.full(22, 1.0 / 22), counts=counts)
        for alpha in (0.3, 0.05, 0.01, 0.001, 1e-4, 1e-6):
            assert pool.quantile(alpha) == self._stable_quantile(pool, alpha)

    def test_matches_a_stable_sort_on_tied_concentrations(self):
        # 10k rows on 40 distinct values, dyadic weights: every partial sum is
        # exact, so ties may sort in any order
        rng = np.random.default_rng(4)
        pool = _one_stratum_pool(rng.integers(0, 40, 10_000).astype(float),
                                 rng.integers(1, 64, 10_000) / 2.0**20)
        total = pool.sample_weight.sum()
        for alpha in np.concatenate([np.linspace(0.01, 0.99, 99) * total, [1e-9]]):
            assert pool.quantile(alpha) == self._stable_quantile(pool, alpha)


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

    @pytest.mark.parametrize("budget", [5000.5, np.float64(5000.0), True, "5000"])
    def test_rejects_non_integer_budget(self, budget):
        with pytest.raises(UsageError, match="integer"):
            RiskQuery(alpha=0.05, estimator="sis", budget=budget, rng=Rng(0))

    def test_accepts_numpy_integer_budget(self):
        assert RiskQuery(alpha=0.05, estimator="sis", budget=np.int64(5000), rng=Rng(0)).budget == 5000

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

    @pytest.mark.parametrize("seed", [2**64, -1, np.int64(-1), 1.0, True])
    def test_seed_outside_64_bits_is_a_usage_error(self, portfolio, seed):
        # Rng keys on the seed modulo 2**64: 2**64 would draw seed 0's rows
        with pytest.raises(UsageError, match="seed"):
            queries([0.05], "sis", 5000, seed)
        with pytest.raises(UsageError, match="seed"):
            exceedance_curve(portfolio, np.array([200.0, 300.0]), "naive", 1000, seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_every_64_bit_seed_is_accepted(self, portfolio, seed):
        (row,) = queries([0.05], "sis", 5000, seed)
        assert row.rng == Rng(Rng(0, seed).split(10).stream)
        assert len(exceedance_curve(portfolio, np.array([200.0, 300.0]), "naive", 1000,
                                    seed)) == 2


    @pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(5)])
    def test_numpy_integer_seeds_draw_the_python_int_streams(self, portfolio, seed):
        # Rng keys on Python ints: numpy ones overflowed in its 64-bit stream mixing
        grid = np.array([200.0, 300.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = queries([0.05, 0.01], "sis", 5000, seed)
            curve = exceedance_curve(portfolio, grid, "is", 2000, seed)
        assert rows == queries([0.05, 0.01], "sis", 5000, int(seed))
        assert all(type(q.rng.seed) is int and type(q.rng.stream) is int for q in rows)
        assert curve == exceedance_curve(portfolio, grid, "is", 2000, int(seed))


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
        assert tau == pool.quantile(query.alpha)

    def test_start_pool_replaces_the_pilot(self, portfolio, monkeypatch):
        _, start = solve_car(portfolio, RiskQuery(0.05, "sis", 5_000, Rng(2)))
        pools = _spy_pools(monkeypatch)
        solve_car(portfolio, RiskQuery(0.01, "sis", 5_000, Rng(3)), start=start)
        assert pools and not any(identity for identity, _ in pools)
        # naive reads its CaR off the start pool and draws nothing
        drawn = len(pools)
        tau, pool = solve_car(portfolio, RiskQuery(0.01, "naive", 5_000, Rng(3)), start=start)
        assert pool is start and len(pools) == drawn
        assert tau == start.quantile(0.01)

    @pytest.mark.parametrize("estimator", ["naive", "is", "sis"])
    def test_without_the_form_start_rounds_equal_fresh_pools(self, portfolio, monkeypatch,
                                                             estimator):
        # a failed inverse-FORM solve falls back to the pilot, and re-tilting the
        # solve's common draws gives each round's fresh pool bit for bit; a chained
        # solve re-tilts the first solve's draws, as fresh draws on its CaR stream
        monkeypatch.setattr("pmrisk.risk.inverse_form", lambda portfolio, alpha: None)
        for seed in (1, 2):
            first, second = (RiskQuery(alpha, estimator, 5_000, Rng(seed, k))
                             for k, alpha in enumerate((0.05, 0.001)))
            tau, pool = solve_car(portfolio, first)
            ref_tau, ref_pool = _redrawn_solve(portfolio, first)
            assert tau == ref_tau and pool.ep_at(tau) == ref_pool.ep_at(tau)
            tau, chained = solve_car(portfolio, second, start=pool)
            ref_tau, ref_chained = _redrawn_solve(portfolio, second, start=pool,
                                                  rng=first.rng.split(_STREAM_CAR))
            assert tau == ref_tau and chained.ep_at(tau) == ref_chained.ep_at(tau)

    def test_an_is_pilot_is_drawn_once(self, portfolio, monkeypatch):
        # without the FORM start, IS rounds re-tilt the pilot's draws (same
        # scheme, same stream) instead of drawing them a second time
        monkeypatch.setattr("pmrisk.risk.inverse_form", lambda portfolio, alpha: None)
        query = RiskQuery(0.01, "is", 5_000, Rng(1))
        with stage_rows() as drawn:
            tau, pool = solve_car(portfolio, query)
        assert sum(drawn) == 5_000
        ref_tau, ref_pool = _redrawn_solve(portfolio, query)
        assert tau == ref_tau
        for column in ("conc", "weight", "stratum", "counts", "probs"):
            assert getattr(pool, column).tobytes() == getattr(ref_pool, column).tobytes()

    def test_one_alpha_solve_starts_at_the_form_point(self, portfolio, monkeypatch):
        query = RiskQuery(0.01, "sis", 5_000, Rng(4))
        tau0, tilt = inverse_form(portfolio, query.alpha)
        pools = _spy_pools(monkeypatch)
        solve_car(portfolio, query)
        # no pilot: round 1 samples at the FORM tilt on the CaR stream
        first = CommonDraws(portfolio, default_scheme(portfolio, 5_000), 5_000,
                            query.rng.split(_STREAM_CAR)).pool(tilt)
        assert not any(identity for identity, _ in pools)
        assert pools[0][1].ep_at(tau0) == first.ep_at(tau0)

    @pytest.mark.parametrize("change", ["portfolio", "budget", "scheme"])
    def test_a_start_pool_of_other_draws_is_never_retilted(self, portfolio, change):
        # a start pool drawn for another portfolio, budget or scheme only gives the
        # first tau: the rounds draw afresh on the query's own CaR stream
        _, start = solve_car(portfolio, RiskQuery(0.05, "sis", 5_000, Rng(2)))
        pf, query = portfolio, RiskQuery(0.01, "sis", 5_000, Rng(3))
        if change == "portfolio":
            pf = dataclasses.replace(portfolio, pm0=2.0 * portfolio.pm0)
        elif change == "budget":
            query = dataclasses.replace(query, budget=6_000)
        else:
            query = dataclasses.replace(query, estimator="is")
        with stage_rows() as drawn:
            tau, pool = solve_car(pf, query, start=start)
        assert sum(drawn) == query.budget and pool.draws is not start.draws
        ref_tau, ref_pool = _redrawn_solve(pf, query, start=start)
        assert tau == ref_tau and pool.ep_at(tau) == ref_pool.ep_at(tau)

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

    @pytest.mark.parametrize("grid", [[300.0, 200.0, 100.0], [100.0, np.nan]])
    def test_bad_grid_is_a_usage_error_before_any_draw(self, portfolio, grid):
        # the samplers refuse such a grid too, with DomainError: this check comes first
        with pytest.raises(UsageError):
            exceedance_curve(portfolio, np.array(grid), "sis", 1000, 0)

    @pytest.mark.parametrize("grid", [[100.0, np.nan], [np.nan], [-np.inf, 200.0],
                                      [100.0, np.inf]])
    def test_rejects_nonfinite_threshold(self, portfolio, grid):
        with pytest.raises(UsageError, match="finite"):
            exceedance_curve(portfolio, np.array(grid), "naive", 1000, 0)

    @pytest.mark.parametrize("budget", [5000.5, np.float64(5000.0), False])
    def test_rejects_non_integer_budget(self, portfolio, budget):
        with pytest.raises(UsageError, match="integer"):
            exceedance_curve(portfolio, np.array([200.0]), "naive", budget, 0)

    def test_grid_below_baseline_degrades_gracefully(self, portfolio):
        # thresholds under the current concentration: EP ~ 1, tilt stays mild
        pts = exceedance_curve(portfolio, np.array([50.0, 80.0]), "sis", 4000, 6)
        assert pts[0].ep > 0.9
        assert pts[0].ep >= pts[1].ep


class TestZeroWeightReduction:
    # Direction 16: one city at weight 1 and the others at 0 make C = PM0 exp(s X),
    # X that city's GH law, so P(C > c) = 1 - G(log(c / PM0) / s) exactly
    @pytest.mark.parametrize("city", range(5))
    def test_car_exceedance_matches_the_city_law(self, portfolio, city):
        one = dataclasses.replace(portfolio, weights=np.eye(5)[city])
        law, pm0, scale = one.marginals[city], one.pm0[city], one.scale[city]
        for estimator in ESTIMATORS:
            for alpha in (0.01, 0.001):
                for seed in (1, 2, 3):
                    (query,) = queries([alpha], estimator, 20_000, seed)
                    car, pool = solve_car(one, query)
                    exact = 1.0 - gh_cdf(law, np.log(car / pm0) / scale)
                    halfwidth = pool.ep_at(car)[1]
                    assert abs(exact - alpha) <= 4.0 * halfwidth, (
                        estimator, alpha, seed, exact, halfwidth)


class TestPm0Scaling:
    """Doubling every PM0 doubles every C exactly (a power-of-two scale, so no
    rounding), and the HL-RF steps that place the tilts do not change under it.
    So with the thresholds doubled too, a curve keeps every bit, and a report's
    CaR and CCaR double exactly."""

    @staticmethod
    def _doubled(portfolio):
        return dataclasses.replace(portfolio, pm0=2.0 * portfolio.pm0)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_curve_keeps_every_bit(self, portfolio, estimator):
        grid = np.arange(100.0, 901.0, 10.0)
        want = exceedance_curve(portfolio, grid, estimator, 50_000, 3)
        got = exceedance_curve(self._doubled(portfolio), 2.0 * grid, estimator, 50_000, 3)
        assert [p.tau for p in got] == [2.0 * p.tau for p in want]
        assert ([(p.ep, p.halfwidth95, p.hits) for p in got]
                == [(p.ep, p.halfwidth95, p.hits) for p in want])
        assert want[0].hits > want[-1].hits > 0

    def test_sis_report_doubles_car_and_ccar(self, portfolio):
        rows = queries([0.05, 0.01, 0.001], "sis", 10_000, 1)
        want = build_report(portfolio, rows)
        got = build_report(self._doubled(portfolio), rows)
        for g, w in zip(got, want):
            assert g.car == 2.0 * w.car and g.ccar == 2.0 * w.ccar
            assert g.ccar_ci_pct == w.ccar_ci_pct and g.vr_factor == w.vr_factor


class TestVarianceReduction:
    def test_pool_vr_agrees_with_naive_runs(self, portfolio):
        # at CaR_0.01 over 20 streams: the SIS CCaR's own VR against one from a naive run
        tau, budget = 352.03, 10_000
        pooled, run_based = [], []
        for s in range(20):
            ce = compute_ccar(portfolio, RiskQuery(0.01, "sis", budget, Rng(s)), tau)
            naive = compute_ccar(portfolio, RiskQuery(0.01, "naive", budget, Rng(1000 + s)), tau)
            pooled.append(ce.naive_variance / ce.variance)
            run_based.append((naive.halfwidth95 / ce.halfwidth95) ** 2)
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

    def test_sis_report_draws_no_pilot(self, portfolio, monkeypatch):
        # row 0 starts from the inverse-FORM point, later rows from their neighbour's pool
        pools = _spy_pools(monkeypatch)
        build_report(portfolio, queries(ALPHAS, "sis", 5_000, 3))
        assert pools and [identity for identity, _ in pools].count(True) == 0

    def test_first_row_is_the_one_alpha_row_and_later_rows_chain(self, portfolio):
        rows = build_report(portfolio, queries(ALPHAS, "sis", 5_000, 3))
        assert rows[0] == build_report(portfolio, queries(ALPHAS[:1], "sis", 5_000, 3))[0]
        # row 1 on its own stream but from its own start, not from row 0's pool
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
        assert pools and [identity for identity, _ in pools].count(True) == 0
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

    def test_a_report_draws_its_car_rows_once(self, portfolio, monkeypatch):
        # one CommonDraws for the run's CaR rounds, one AOA sample per CCaR
        made, init = [], CommonDraws.__init__
        monkeypatch.setattr(CommonDraws, "__init__",
                            lambda draws, *args: made.append(args[2]) or init(draws, *args))
        with stage_rows() as drawn:
            build_report(portfolio, queries(ALPHAS, "sis", 10_000, 1))
        assert made == [10_000]
        assert sum(drawn) == 10_000 + 5 * 10_000

    @pytest.mark.parametrize("estimator", ["is", "sis"])
    def test_each_ccar_samples_at_its_rows_final_tilt(self, portfolio, monkeypatch,
                                                       estimator):
        # calibrate_is runs only in CaR rounds, once in each but the run's first
        # (the inverse-FORM tilt), and each CCaR samples at the tilt of its row's
        # last pool, not at a tilt of its own
        events = []
        calibrate, retilt, sample = calibrate_is, CommonDraws.pool, sis_estimate

        def calibrated(pf, tau):
            events.append(("calibrate", calibrate(pf, tau)))
            return events[-1][1]

        monkeypatch.setattr("pmrisk.risk.calibrate_is", calibrated)
        monkeypatch.setattr(CommonDraws, "pool", lambda draws, is_params: events.append(
            ("pool", is_params)) or retilt(draws, is_params))
        monkeypatch.setattr("pmrisk.risk.sis_estimate", lambda pf, tau, is_params, *args:
                            events.append(("ccar", is_params)) or sample(pf, tau, is_params,
                                                                          *args))
        for seed in (1, 2, 3):
            events.clear()
            build_report(portfolio, queries(ALPHAS, estimator, 10_000, seed))
            rounds = [(kind, params) for kind, params in events if kind != "ccar"]
            pools = sum(kind == "pool" for kind, _ in rounds)
            assert [kind for kind, _ in rounds] == ["pool"] + ["calibrate", "pool"] * (pools - 1)
            assert all(made is used for (_, made), (_, used) in zip(rounds[1::2], rounds[2::2]))
            ccars = [k for k, (kind, _) in enumerate(events) if kind == "ccar"]
            assert len(ccars) == len(ALPHAS)
            for k in ccars:
                assert events[k - 1][0] == "pool" and events[k][1] is events[k - 1][1]

    def test_later_rows_retilt_the_first_rows_draws(self, portfolio):
        rows = queries(ALPHAS[:3], "sis", 5_000, 3)
        cars = solve_cars(portfolio, rows)
        # row 0 keeps the bits of a one-alpha run
        assert cars[0] == solve_cars(portfolio, rows[:1])[0]
        # later rows redraw, round by round, the random numbers of row 0's CaR stream
        car, pool = solve_car(portfolio, rows[0])
        for query, want in zip(rows[1:], cars[1:]):
            car, pool = _redrawn_solve(portfolio, query, start=pool,
                                       rng=rows[0].rng.split(_STREAM_CAR))
            assert car == want

    def test_naive_rows_read_the_first_pilot(self, portfolio, monkeypatch):
        pools = _spy_pools(monkeypatch)
        rows = build_report(portfolio, queries([0.05, 0.01, 0.001], "naive", 5_000, 5))
        assert len(pools) == 1
        pilot = pools[0][1]
        assert [r.car for r in rows] == [pilot.quantile(r.alpha) for r in rows]

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
