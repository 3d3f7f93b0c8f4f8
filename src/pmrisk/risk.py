"""Risk measures on top of the estimators: CaR, CCaR, curves, VR reporting.

CaR_alpha is the weighted empirical (1-alpha)-quantile of the simulated
concentration sample, so P(C > CaR_alpha) is approximately alpha; CCaR_alpha
is the conditional excess at that threshold.  For the IS/SIS estimators the
quantile pass is iterated with re-calibrated tilt parameters on common random
numbers until the previous threshold is a plausible alpha-quantile of the new
pool: its stratified EP there lies within its own 95% halfwidth of alpha.  So
the loop stops at the quantile's Monte Carlo noise at any budget.

A run's rows are one chain (``solve_cars``): only the first row draws an
identity-tilt pilot, and each later row starts from the final pool that
``solve_car`` returned for the previous row, then runs the same loop on its
own stream.

``_design`` picks every tilt and stratification a query samples with, apart
from the identity-tilt pilot, and each query function appends its warnings
to the caller's ``warnings`` list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copula import CityPortfolio
from .errors import DomainError, NumericError, UsageError
from .estimators import (
    ONE_CELL,
    EstimateResult,
    IsParams,
    SisSample,
    StratificationScheme,
    calibrate_is,
    default_scheme,
    proportional_sis_sample,
    sis_estimate,
)
from .statkit import Rng

_ESTIMATORS = ("naive", "is", "sis")

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

    ``solve_car`` and ``compute_ccar`` draw from fixed substreams of ``rng``.
    """

    alpha: float
    estimator: str
    budget: int
    rng: Rng

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise UsageError(f"alpha {self.alpha} outside (0, 0.5)")
        if self.estimator not in _ESTIMATORS:
            raise UsageError(f"estimator must be one of {_ESTIMATORS}")
        if self.budget < MIN_BUDGET:
            raise UsageError(f"budget must be at least {MIN_BUDGET}")


def queries(alphas, estimator: str, budget: int, seed: int) -> list[RiskQuery]:
    """A run's rows: distinct alphas, largest first, each on its own stream."""
    unique = sorted({float(a) for a in alphas}, reverse=True)
    if not unique:
        raise UsageError("alpha list must be nonempty")
    # row k's stream, from the run's seed: a chained row's first tilt comes
    # from its neighbour's pool, its rounds and CCaR from its own stream
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


def weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Smallest sample value with simulated mass at most 1 - q strictly above it.

    The weights are an unbiased probability decomposition (total mass 1 in
    expectation), so the cut is placed against 1 - q itself rather than
    against a fraction of the weight sum.  That keeps the noisy bulk mass
    out of the tail comparison, which matters for importance weights whose
    sum is itself random.
    """
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie in (0, 1)")
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    if cum[-1] <= 0.0:
        raise DomainError("weights must have positive total mass")
    tail_above = cum[-1] - cum  # mass strictly above each sorted value
    idx = int(np.searchsorted(-tail_above, -(1.0 - q), side="left"))
    return float(values[order[min(idx, values.shape[0] - 1)]])


def _note(warnings: list[str] | None, message: str) -> None:
    if warnings is not None and message not in warnings:
        warnings.append(message)


def _design(portfolio: CityPortfolio, estimator: str, tau: float | None, budget: int,
            warnings: list[str] | None,
            label: str = "") -> tuple[IsParams, StratificationScheme]:
    """(tilt, scheme) of an estimator at threshold tau, which naive does not use.

    Naive samples the identity tilt on one cell, IS the ``calibrate_is`` tilt
    on one cell and SIS that tilt on the budget's default grid.  A calibration
    warning goes to ``warnings``, prefixed with ``label``.
    """
    if estimator == "naive":
        return IsParams.identity(portfolio.dimension), ONE_CELL
    params = calibrate_is(portfolio, tau)
    if params.warning:
        _note(warnings, label + params.warning)
    return params, default_scheme(portfolio, budget) if estimator == "sis" else ONE_CELL


def solve_car(portfolio: CityPortfolio, query: RiskQuery, *,
              start: SisSample | None = None,
              warnings: list[str] | None = None) -> tuple[float, SisSample]:
    """(tau, final pool): tau with P(C > tau) ~= alpha under the query's estimator.

    The first tau is the weighted (1 - alpha)-quantile of a starting pool:
    ``start`` when given, else a fresh identity-tilt pilot.  Naive returns
    that tau.  IS/SIS then loop: each round calibrates the tilt at the current
    tau, draws a fresh pool on the same random numbers and takes its quantile.
    The loop stops once the new pool's stratified EP at the previous tau lies
    within its 95% halfwidth of alpha, i.e. once that tau is inside the pool's
    test-inversion interval for the alpha-quantile (Glynn 1996), and returns
    the new pool's quantile.  ``NumericError`` with the trace after
    ``CAR_MAX_ITER`` rounds.  The returned pool is the one tau was read from,
    the next row's ``start``.  IS-calibration warnings are appended to
    ``warnings`` when it is given.
    """
    rng = query.rng.split(_STREAM_CAR)
    q = 1.0 - query.alpha

    pool = start
    if pool is None:
        pool = proportional_sis_sample(portfolio, IsParams.identity(portfolio.dimension),
                                       ONE_CELL, query.budget, rng)
    tau = weighted_quantile(pool.conc, pool.sample_weight, q)

    trace = [tau]
    while query.estimator != "naive":
        if len(trace) > CAR_MAX_ITER:
            raise NumericError(f"CaR iteration did not converge; trace: {trace}")
        design = _design(portfolio, query.estimator, tau, query.budget, warnings,
                         f"alpha={query.alpha}: ")
        pool = proportional_sis_sample(portfolio, *design, query.budget, rng)
        ep, halfwidth, _ = pool.ep_at(tau)
        tau = weighted_quantile(pool.conc, pool.sample_weight, q)
        trace.append(tau)
        if abs(ep - query.alpha) <= halfwidth:
            break
    return tau, pool


def solve_cars(portfolio: CityPortfolio, rows: list[RiskQuery], *,
               warnings: list[str] | None = None) -> list[float]:
    """Each row's CaR, solved in order as one ``solve_car`` chain.

    Only row 0 draws a pilot, so naive rows all read its quantiles.  Rows from
    ``queries`` run largest alpha first, so each later row starts from a pool
    tilted just below its own threshold.
    """
    cars, pool = [], None
    for query in rows:
        tau, pool = solve_car(portfolio, query, start=pool, warnings=warnings)
        cars.append(tau)
    return cars


def compute_ccar(portfolio: CityPortfolio, query: RiskQuery, tau: float, *,
                 warnings: list[str] | None = None) -> EstimateResult:
    """Conditional excess at tau = CaR_alpha, with a 95% confidence interval.

    IS-calibration warnings are appended to ``warnings`` when it is given.
    """
    params, scheme = _design(portfolio, query.estimator, tau, query.budget, warnings,
                             f"alpha={query.alpha}: ")
    return sis_estimate(portfolio, tau, params, scheme, query.budget,
                        query.rng.split(_STREAM_CCAR))[1]


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
    if np.any(np.diff(grid) <= 0.0):
        raise UsageError("tau grid must be strictly increasing")
    if estimator not in _ESTIMATORS:
        raise UsageError(f"estimator must be one of {_ESTIMATORS}")
    if budget < 2:
        raise UsageError("budget must be at least 2")

    rng = Rng(seed).split(_STREAM_CURVE)
    ref = None
    if estimator != "naive":
        identity = IsParams.identity(portfolio.dimension)
        pilot = proportional_sis_sample(portfolio, identity, ONE_CELL, 2048, rng.split(5)).conc
        # clamp into the grid but never below the calibration domain
        ref = max(min(max(float(np.quantile(pilot, 0.9)), grid[0]), grid[-1]),
                  portfolio.baseline() * 1.05)
    params, scheme = _design(portfolio, estimator, ref, budget, warnings)
    params = IsParams(mean_shift=params.mean_shift, theta=max(params.theta, 1.2))
    pool = proportional_sis_sample(portfolio, params, scheme, budget, rng)

    ep, halfwidth, hits = pool.ep_at(grid)
    return [CurvePoint(tau=float(t), ep=float(e), halfwidth95=float(h), hits=int(k))
            for t, e, h, k in zip(grid, ep, halfwidth, hits)]


def variance_reduction_factor(naive: EstimateResult, other: EstimateResult) -> float:
    """VR = (naive halfwidth / competing halfwidth)^2 at equal budgets."""
    if naive.n != other.n:
        raise DomainError("variance reduction requires equal budgets")
    if naive.empty_tail or other.empty_tail:
        raise DomainError("variance reduction undefined for empty-tail estimates")
    if other.halfwidth95 == 0.0:
        return float("inf")
    return (naive.halfwidth95 / other.halfwidth95) ** 2


def build_report(portfolio: CityPortfolio, rows: list[RiskQuery], *,
                 warnings: list[str] | None = None) -> tuple[RiskRow, ...]:
    """Table rows: one per query with CaR, CCaR, CI% and VR.

    The CaRs are one ``solve_cars`` chain, as ``pmrisk car`` writes them.
    VR is the CCaR's ``naive_variance`` over its ``variance``, both from the
    CCaR's own sample, and 1 for naive.  Calibration warnings are appended to
    ``warnings`` when it is given.
    """
    report = []
    for query, tau in zip(rows, solve_cars(portfolio, rows, warnings=warnings)):
        ce = compute_ccar(portfolio, query, tau, warnings=warnings)
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
