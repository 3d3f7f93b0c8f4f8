"""Risk measures on top of the estimators: CaR, CCaR, curves, VR reporting.

CaR_alpha is the weighted empirical (1-alpha)-quantile of the simulated
concentration sample, so P(C > CaR_alpha) is approximately alpha; CCaR_alpha
is the conditional excess at that threshold.  For the IS/SIS estimators the
quantile pass is iterated with re-calibrated tilt parameters on common random
numbers until the threshold stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .copula import CityPortfolio
from .errors import DomainError, NumericError
from .estimators import (
    EstimateResult,
    IsParams,
    calibrate_is,
    default_scheme,
    is_estimate,
    naive_estimate,
    proportional_sis_sample,
    simulate_tilted,
    sis_estimate,
)
from .statkit import Rng

_ESTIMATORS = ("naive", "is", "sis")

# smallest replication budget of a CaR/CCaR query
MIN_BUDGET = 1000

# fixed substream labels so every query draws from its own independent stream
_STREAM_CAR = 1
_STREAM_CCAR = 2
_STREAM_VR = 3
_STREAM_CURVE = 4


@dataclass(frozen=True)
class RiskQuery:
    """One (alpha, estimator, budget, seed) risk request."""

    alpha: float
    estimator: str
    budget: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise DomainError("alpha must lie in (0, 0.5)")
        if self.estimator not in _ESTIMATORS:
            raise DomainError(f"estimator must be one of {_ESTIMATORS}")
        if self.budget < MIN_BUDGET:
            raise DomainError(f"budget must be at least {MIN_BUDGET}")


@dataclass(frozen=True)
class RiskRow:
    alpha: float
    car: float
    ccar: float
    ccar_ci_pct: float
    vr_factor: float


@dataclass(frozen=True)
class RiskReport:
    rows: tuple[RiskRow, ...]
    estimator: str
    budget: int
    seed: int
    model_hash: str
    warnings: tuple[str, ...] = field(default=())


def weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float, *,
                      total_mass: float | None = None) -> float:
    """Smallest sample value whose cumulative weight fraction reaches q.

    With ``total_mass`` given (e.g. 1.0 when the weights are an unbiased
    probability decomposition), the cut is placed where the simulated mass
    strictly above the value drops to (1-q) * total_mass.  That keeps the
    noisy bulk mass out of the tail comparison, which matters for importance
    weights whose sum is itself random.
    """
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie in (0, 1)")
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    if cum[-1] <= 0.0:
        raise DomainError("weights must have positive total mass")
    if total_mass is None:
        idx = int(np.searchsorted(cum, q * cum[-1], side="left"))
    else:
        tail_above = cum[-1] - cum  # mass strictly above each sorted value
        idx = int(np.searchsorted(-tail_above, -(1.0 - q) * total_mass, side="left"))
    return float(values[order[min(idx, values.shape[0] - 1)]])


def _note(warnings: list[str] | None, message: str) -> None:
    if warnings is not None and message not in warnings:
        warnings.append(message)


def solve_car(portfolio: CityPortfolio, alpha: float, estimator: str, budget: int,
              seed: int, *, rel_tol: float = 1e-3, max_iter: int = 8,
              warnings: list[str] | None = None) -> float:
    """Threshold tau with P(C > tau) ~= alpha under the requested estimator.

    IS-calibration warnings are appended to ``warnings`` when it is given.
    """
    query = RiskQuery(alpha=alpha, estimator=estimator, budget=budget, seed=seed)
    rng = Rng(seed).split(_STREAM_CAR)
    q = 1.0 - query.alpha

    conc, weight = simulate_tilted(
        portfolio, IsParams.identity(portfolio.dimension), budget, rng
    )
    tau = weighted_quantile(conc, weight / budget, q, total_mass=1.0)
    if estimator == "naive":
        return tau

    trace = [tau]
    for _ in range(max_iter):
        params = calibrate_is(portfolio, tau)
        if params.warning:
            _note(warnings, f"alpha={alpha}: {params.warning}")
        if estimator == "is":
            conc, weight = simulate_tilted(portfolio, params, budget, rng)
            tau_new = weighted_quantile(conc, weight / budget, q, total_mass=1.0)
        else:
            pool = proportional_sis_sample(
                portfolio, params, default_scheme(portfolio, params, budget),
                budget, rng,
            )
            tau_new = weighted_quantile(pool.conc, pool.sample_weight, q, total_mass=1.0)
        trace.append(tau_new)
        if abs(tau_new - tau) <= rel_tol * abs(tau):
            return tau_new
        tau = tau_new
    raise NumericError(f"CaR iteration did not stabilize; trace: {trace}")


def compute_ccar(portfolio: CityPortfolio, alpha: float, tau: float, estimator: str,
                 budget: int, seed: int) -> EstimateResult:
    """Conditional excess at tau = CaR_alpha, with a 95% confidence interval."""
    RiskQuery(alpha=alpha, estimator=estimator, budget=budget, seed=seed)
    rng = Rng(seed).split(_STREAM_CCAR)
    if estimator == "naive":
        _, ce = naive_estimate(portfolio, tau, budget, rng)
        return ce
    params = calibrate_is(portfolio, tau)
    if estimator == "is":
        _, ce = is_estimate(portfolio, tau, params, budget, rng)
        return ce
    scheme = default_scheme(portfolio, params, budget)
    _, ce = sis_estimate(portfolio, tau, params, scheme, budget, rng)
    return ce


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
        raise DomainError("tau grid must be a nonempty vector")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("tau grid must be strictly increasing")
    if estimator not in _ESTIMATORS:
        raise DomainError(f"estimator must be one of {_ESTIMATORS}")
    if budget < 2:
        raise DomainError("budget must be at least 2")

    rng = Rng(seed).split(_STREAM_CURVE)
    baseline = portfolio.baseline()
    pool = None
    if estimator == "naive":
        conc, weight = simulate_tilted(
            portfolio, IsParams.identity(portfolio.dimension), budget, rng
        )
    else:
        pilot, _ = simulate_tilted(
            portfolio, IsParams.identity(portfolio.dimension), 2048, rng.split(5)
        )
        ref = float(np.quantile(pilot, 0.9))
        # clamp into the grid but never below the calibration domain
        ref = max(min(max(ref, grid[0]), grid[-1]), baseline * 1.05)
        calibrated = calibrate_is(portfolio, ref)
        if calibrated.warning:
            _note(warnings, calibrated.warning)
        params = IsParams(mean_shift=calibrated.mean_shift, theta=max(calibrated.theta, 1.2))
        if estimator == "is":
            conc, weight = simulate_tilted(portfolio, params, budget, rng)
        else:
            pool = proportional_sis_sample(
                portfolio, params, default_scheme(portfolio, params, budget),
                budget, rng,
            )
            conc = pool.conc

    points = []
    n = conc.shape[0]
    for tau in grid:
        hits = int((conc > tau).sum())
        if pool is not None:
            ep, halfwidth = pool.ep_at(float(tau))
        else:
            y = np.where(conc > tau, weight, 0.0)
            ep = float(y.mean())
            var = max(float((y * y).mean()) - ep**2, 0.0) * n / max(n - 1, 1)
            halfwidth = 1.96 * np.sqrt(var / n)
        points.append(
            CurvePoint(tau=float(tau), ep=float(ep), halfwidth95=float(halfwidth),
                       hits=hits)
        )
    return points


def variance_reduction_factor(naive: EstimateResult, other: EstimateResult) -> float:
    """VR = (naive halfwidth / competing halfwidth)^2 at equal budgets."""
    if naive.n != other.n:
        raise DomainError("variance reduction requires equal budgets")
    if naive.empty_tail or other.empty_tail:
        raise DomainError("variance reduction undefined for empty-tail estimates")
    if other.halfwidth95 == 0.0:
        return float("inf")
    return (naive.halfwidth95 / other.halfwidth95) ** 2


def build_report(portfolio: CityPortfolio, alphas, estimator: str, budget: int,
                 seed: int, model_hash: str) -> RiskReport:
    """Table-shaped report: one row per alpha with CaR, CCaR, CI% and VR."""
    alphas = sorted(set(float(a) for a in alphas), reverse=True)
    if not alphas:
        raise DomainError("alpha list must be nonempty")
    rows = []
    warnings: list[str] = []
    for k, alpha in enumerate(alphas):
        # distinct substreams per row keep rows independent and reproducible
        row_seed_car = Rng(seed).split(10 + k)
        tau = solve_car(portfolio, alpha, estimator, budget, row_seed_car.stream,
                        warnings=warnings)
        ce = compute_ccar(portfolio, alpha, tau, estimator, budget, row_seed_car.stream)
        if ce.empty_tail:
            raise NumericError(f"empty tail at alpha={alpha}; increase the budget")
        if estimator == "naive":
            vr = 1.0
        else:
            ce_naive = compute_ccar(
                portfolio, alpha, tau, "naive",
                budget, Rng(seed).split(_STREAM_VR).split(k).stream,
            )
            if ce_naive.empty_tail:
                vr = float("inf")
                _note(warnings, f"alpha={alpha}: naive reference saw no exceedances; VR unbounded")
            else:
                vr = variance_reduction_factor(ce_naive, ce)
        if ce.warning:
            _note(warnings, f"alpha={alpha}: {ce.warning}")
        rows.append(
            RiskRow(
                alpha=float(alpha),
                car=float(tau),
                ccar=float(ce.estimate),
                ccar_ci_pct=float(100.0 * ce.halfwidth95 / ce.estimate),
                vr_factor=float(vr),
            )
        )
    return RiskReport(
        rows=tuple(rows),
        estimator=estimator,
        budget=budget,
        seed=seed,
        model_hash=model_hash,
        warnings=tuple(warnings),
    )
