"""Risk measures on top of the estimators: CaR, CCaR, curves, VR reporting.

CaR_alpha is the weighted (1-alpha)-quantile of a simulated pool,
``SisSample.quantile(alpha)``, so P(C > CaR_alpha) is approximately alpha;
CCaR_alpha is the conditional excess at that threshold.  For the IS/SIS
estimators the quantile pass is iterated with re-calibrated tilt parameters on
common random numbers until the previous threshold is a plausible
alpha-quantile of the new pool: its stratified EP there (``SisSample.ep_at``)
lies within its own 95% halfwidth of alpha.  So the loop stops at the
quantile's Monte Carlo noise at any budget.  A run draws its CaR random
numbers once (``CommonDraws``) and each round re-tilts them.  No pool column
is read here, apart from the curve pilot's interpolated quantile.

Only a quantile keeps rows, each pool a ``CommonDraws.pool``: the CaR rounds'
and the identity-tilt pilots'.  A CCaR (``shared_estimates``) and a curve
(``proportional_ep_at``) are read from running per-stratum tail sums.

A run's rows are one chain (``solve_cars``).  The first IS/SIS row takes its
first threshold and tilt from the inverse-FORM point (``inverse_form``), and
draws an identity-tilt pilot only where that solve fails, as naive does.  Each
later row starts from the final pool that ``solve_car`` returned for the
previous row and re-tilts that pool's draws (row 0's) where its scheme and
budget match theirs, else draws its own.  Each CCaR is one stage at its
row's final tilt (``SisSample.tilt``; the paper calibrates at the CaR, which
lies in the same 95% interval), allocated by that pool's tail sums at the
CaR, and a report's CCaRs re-tilt one draw on row 0's CCaR stream.

``_design`` picks every tilt and stratification a query samples with, the
pilots' identity tilt included, and each query function appends its warnings
to the caller's ``warnings`` list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copula import CityPortfolio
from .errors import NumericError, UsageError
from .estimators import (
    ONE_CELL,
    CommonDraws,
    EstimateResult,
    IsParams,
    SisSample,
    StratificationScheme,
    calibrate_is,
    default_scheme,
    inverse_form,
    proportional_ep_at,
    shared_estimates,
    sis_estimate,
)
from .statkit import Rng

ESTIMATORS = ("naive", "is", "sis")

# smallest replication budget of a CaR/CCaR query
MIN_BUDGET = 1000

# CaR fixed-point loop: fail after this many rounds without stopping
CAR_MAX_ITER = 8

# fixed substream labels so every query draws from its own independent stream
_STREAM_CAR = 1
_STREAM_CCAR = 2
_STREAM_CURVE = 4


@dataclass(frozen=True)
class RiskQuery:
    """One CaR/CCaR row, validated when built: ``queries`` builds a run's rows.

    ``solve_car`` and ``compute_ccar`` draw from fixed substreams of ``rng``;
    in a run of ``queries``' rows, only row 0's substreams are drawn.
    """

    alpha: float
    estimator: str
    budget: int
    rng: Rng

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise UsageError(f"alpha {self.alpha} outside (0, 0.5)")
        if self.estimator not in ESTIMATORS:
            raise UsageError(f"estimator must be one of {ESTIMATORS}")
        _check_budget(self.budget, MIN_BUDGET)


def _check_budget(budget, least: int) -> None:
    """An integer replication count of at least ``least``; numpy integers pass, bool does not."""
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)):
        raise UsageError(f"budget must be an integer, got {budget!r}")
    if budget < least:
        raise UsageError(f"budget must be at least {least}")


def _check_seed(seed) -> None:
    """An integer in [0, 2**64): ``Rng`` keys on the seed modulo 2**64, so others alias."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise UsageError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def queries(alphas, estimator: str, budget: int, seed: int) -> list[RiskQuery]:
    """A run's rows: distinct alphas, largest first, each on its own stream."""
    _check_seed(seed)
    unique = sorted({float(a) for a in alphas}, reverse=True)
    if not unique:
        raise UsageError("alpha list must be nonempty")
    # row k's stream, from the run's seed; a run draws on row 0's alone (its
    # CaR and CCaR draws), and a chained row's first tilt comes from its neighbour's pool
    return [RiskQuery(alpha=a, estimator=estimator, budget=budget,
                      rng=Rng(Rng(0, seed).split(10 + k).stream))
            for k, a in enumerate(unique)]


@dataclass(frozen=True)
class RiskRow:
    alpha: float
    car: float
    ccar: float
    ccar_ci_pct: float
    vr_factor: float


def _note(warnings: list[str] | None, message: str) -> None:
    if warnings is not None and message not in warnings:
        warnings.append(message)


def _design(portfolio: CityPortfolio, estimator: str, tau: float | None, budget: int,
            warnings: list[str] | None, label: str = "",
            tilt: IsParams | None = None) -> tuple[IsParams, StratificationScheme]:
    """(tilt, scheme) of an estimator at threshold tau, which naive does not use.

    Naive samples the identity tilt on one cell, IS the ``calibrate_is`` tilt
    at tau (or ``tilt``, when given) on one cell and SIS that tilt on the
    budget's default grid.  A calibration warning goes to ``warnings``,
    prefixed with ``label``.
    """
    if estimator == "naive":
        return IsParams.identity(portfolio.dimension), ONE_CELL
    params = calibrate_is(portfolio, tau) if tilt is None else tilt
    if params.warning:
        _note(warnings, label + params.warning)
    return params, default_scheme(portfolio, budget) if estimator == "sis" else ONE_CELL


def solve_car(portfolio: CityPortfolio, query: RiskQuery, *,
              start: SisSample | None = None,
              warnings: list[str] | None = None) -> tuple[float, SisSample]:
    """(tau, final pool): tau with P(C > tau) ~= alpha under the query's estimator.

    The first tau is the weighted (1 - alpha)-quantile of ``start`` when it is
    given.  Without it, IS/SIS take the first tau and the first round's tilt
    from ``inverse_form``; naive, and IS/SIS where that solve fails, take the
    quantile of a fresh identity-tilt pilot.  Naive returns that tau.  IS/SIS
    then loop: each round tilts at the current tau (``calibrate_is``, or the
    FORM tilt in the first round) and re-tilts the solve's ``CommonDraws``:
    ``start.draws`` where they were drawn for this portfolio, scheme and
    budget, else ones drawn once on the query's CaR stream (a pilot's, where
    its scheme is the rounds'); so every round samples on the same random
    numbers, bit for bit as a fresh draw of them.
    The loop stops once the new pool's stratified EP at the previous tau lies
    within its 95% halfwidth of alpha, i.e. once that tau is inside the pool's
    test-inversion interval for the alpha-quantile (Glynn 1996), and returns
    the new pool's quantile.  ``NumericError`` with the trace after
    ``CAR_MAX_ITER`` rounds.  The returned pool is the one tau was read from,
    the next row's ``start``; its ``tilt`` is the stopping round's, the one
    ``compute_ccar`` samples at.  IS-calibration warnings are appended to
    ``warnings`` when it is given.
    """
    rng = query.rng.split(_STREAM_CAR)
    form = None
    if start is None and query.estimator != "naive":
        form = inverse_form(portfolio, query.alpha)
    pool, draws = start, None if start is None else start.draws
    if pool is None and form is None:
        params, scheme = _design(portfolio, "naive", None, query.budget, warnings)
        draws = CommonDraws(portfolio, scheme, query.budget, rng)
        pool = draws.pool(params)
    tau, tilt = form or (pool.quantile(query.alpha), None)

    trace = [tau]
    while query.estimator != "naive":
        if len(trace) > CAR_MAX_ITER:
            raise NumericError(f"CaR iteration did not converge; trace: {trace}")
        params, scheme = _design(portfolio, query.estimator, tau, query.budget, warnings,
                                 f"alpha={query.alpha}: ", tilt)
        tilt = None
        if (draws is None or draws.portfolio is not portfolio
                or draws.scheme.counts != scheme.counts or draws.counts.sum() != query.budget):
            draws = CommonDraws(portfolio, scheme, query.budget, rng)
        pool = draws.pool(params)
        ep, halfwidth, _ = pool.ep_at(tau)
        tau = pool.quantile(query.alpha)
        trace.append(tau)
        if abs(ep - query.alpha) <= halfwidth:
            break
    return tau, pool


def solve_cars(portfolio: CityPortfolio, rows: list[RiskQuery], *,
               warnings: list[str] | None = None) -> list[float]:
    """Each row's CaR, solved in order as one ``solve_car`` chain.

    Only row 0 starts without a pool (from the inverse-FORM point, or from a
    pilot for naive, whose rows all read that pilot's quantiles).  Rows from
    ``queries`` run largest alpha first, so each later row starts from a pool
    tilted just below its own threshold.  IS/SIS rows of one scheme and budget
    all re-tilt the ``CommonDraws`` of row 0's CaR stream, so their CaRs
    correlate.
    """
    cars, pool = [], None
    for query in rows:
        tau, pool = solve_car(portfolio, query, start=pool, warnings=warnings)
        cars.append(tau)
    return cars


def compute_ccar(portfolio: CityPortfolio, query: RiskQuery, tau: float, *,
                 pool: SisSample | None = None,
                 warnings: list[str] | None = None) -> EstimateResult:
    """Conditional excess at tau = CaR_alpha, with a 95% confidence interval.

    With ``pool``, the final pool of the query's CaR solve, as ``build_report``
    reads its first row (``_ccars``); without, IS/SIS sample ``sis_estimate``
    at ``calibrate_is``'s tilt at tau on the query's CCaR stream.
    IS-calibration warnings are appended to ``warnings`` when it is given.
    """
    if pool is not None:
        return _ccars(portfolio, [query], [(tau, pool)], warnings)[0]
    params, scheme = _design(portfolio, query.estimator, tau, query.budget, warnings,
                             f"alpha={query.alpha}: ")
    return sis_estimate(portfolio, tau, params, scheme, query.budget,
                        query.rng.split(_STREAM_CCAR))[1]


def _ccars(portfolio: CityPortfolio, rows: list[RiskQuery], solves,
           warnings: list[str] | None) -> list[EstimateResult]:
    """CE results of rows solved to (tau, final pool): each one stage at its pool's
    tilt, allocated by the pool's tail sums at tau (``SisSample.allocation``), the
    rows of one estimator and budget re-tilting one draw on the first one's CCaR
    stream (``shared_estimates``)."""
    ces = [None] * len(rows)
    for key in dict.fromkeys((query.estimator, query.budget) for query in rows):
        group = [k for k, query in enumerate(rows) if (query.estimator, query.budget) == key]
        ccar_rows = []
        for query, (tau, pool) in ((rows[k], solves[k]) for k in group):
            params, scheme = _design(portfolio, query.estimator, tau, query.budget, warnings,
                                     f"alpha={query.alpha}: ", pool.tilt)
            # one cell needs no allocation (a naive row's pool may be a neighbour's)
            alloc = pool.allocation(tau, query.budget) if scheme.n_strata > 1 else [query.budget]
            ccar_rows.append((tau, params, alloc))
        draw = shared_estimates(portfolio, scheme, ccar_rows,
                                rows[group[0]].rng.split(_STREAM_CCAR))
        for k, (_, ce) in zip(group, draw):
            ces[k] = ce
    return ces


@dataclass(frozen=True)
class CurvePoint:
    tau: float
    ep: float
    halfwidth95: float
    hits: int


def exceedance_curve(portfolio: CityPortfolio, tau_grid, estimator: str, budget: int,
                     seed: int, *, warnings: list[str] | None = None) -> list[CurvePoint]:
    """EP with confidence halfwidths on a threshold grid, from one shared run.

    All grid points reuse the same sample, which makes the EP column exactly
    nonincreasing.  IS/SIS use one moderate tilt for the whole grid: the
    reference threshold sits near the 90% quantile of a short pilot (clamped
    into the grid), and the gamma scale stays above 1.2 so the likelihood
    ratio keeps a finite second moment everywhere on the curve, not just in
    the deep tail.  SIS spreads the budget proportionally over the strata;
    allocation tuned to a single threshold would starve the rest of the grid.
    IS-calibration warnings are appended to ``warnings`` when it is given.
    """
    grid = np.asarray(tau_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise UsageError("tau grid must be a nonempty vector")
    if not np.all(np.isfinite(grid)):
        raise UsageError("tau grid must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise UsageError("tau grid must be strictly increasing")
    if estimator not in ESTIMATORS:
        raise UsageError(f"estimator must be one of {ESTIMATORS}")
    _check_budget(budget, 2)
    _check_seed(seed)

    rng = Rng(seed).split(_STREAM_CURVE)
    ref = None
    if estimator != "naive":
        params, scheme = _design(portfolio, "naive", None, 2048, warnings)
        pilot = CommonDraws(portfolio, scheme, 2048, rng.split(5)).pool(params)
        # clamp into the grid but never below the calibration domain.  Interpolated, not
        # ``pilot.quantile(0.1)``: its order statistic would move every IS/SIS curve
        ref = max(min(max(float(np.quantile(pilot.conc, 0.9)), grid[0]), grid[-1]),
                  portfolio.baseline() * 1.05)
    params, scheme = _design(portfolio, estimator, ref, budget, warnings)
    params = IsParams(mean_shift=params.mean_shift, theta=max(params.theta, 1.2))
    ep, halfwidth, hits = proportional_ep_at(portfolio, params, scheme, budget, rng, grid)
    return [CurvePoint(tau=float(t), ep=float(e), halfwidth95=float(h), hits=int(k))
            for t, e, h, k in zip(grid, ep, halfwidth, hits)]


def build_report(portfolio: CityPortfolio, rows: list[RiskQuery], *,
                 warnings: list[str] | None = None) -> tuple[RiskRow, ...]:
    """Table rows: one per query with CaR, CCaR, CI% and VR.

    The CaRs are the ``solve_cars`` chain, as ``pmrisk car`` writes them,
    and the CCaRs the rows' ``_ccars``, each at the tilt of its CaR's stopping
    round, calibrated at a tau inside the CaR's 95% test-inversion interval,
    not at the CaR.  Row 0 is a one-alpha run's row, and rows that mix
    estimators or budgets share one CCaR draw per estimator and budget.  VR
    is the CCaR's ``naive_variance`` over its ``variance``, both from the
    CCaR's own sample, and 1 for naive.  Calibration warnings are appended
    to ``warnings`` when it is given.
    """
    solves = []
    for query in rows:
        solves.append(solve_car(portfolio, query, start=solves[-1][1] if solves else None,
                                warnings=warnings))
    report = []
    for query, (tau, _), ce in zip(rows, solves, _ccars(portfolio, rows, solves, warnings)):
        if ce.empty_tail:
            raise NumericError(f"empty tail at alpha={query.alpha}; increase the budget")
        if query.estimator == "naive":
            vr = 1.0
        else:
            vr = ce.naive_variance / ce.variance if ce.variance > 0.0 else float("inf")
        report.append(RiskRow(alpha=float(query.alpha), car=float(tau), ccar=float(ce.estimate),
                              ccar_ci_pct=float(100.0 * ce.halfwidth95 / ce.estimate),
                              vr_factor=float(vr)))
    return tuple(report)
