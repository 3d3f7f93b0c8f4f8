"""Exceeding-probability and conditional-excess estimators.

Three routes to EP = P(C > tau) and CE = E[C | C > tau]:

* naive Monte Carlo,
* importance sampling (IS): mean shift on the normal vector plus a gamma
  scale tilt on the chi-square mixing variable, reweighted by the exact
  likelihood ratio, and
* stratified importance sampling (SIS): the IS density stratified on a grid
  over the drift direction and the mixing-variable score, with the
  replication budget spread over four stages by adaptive optimal allocation.

The naive estimator is the IS estimator at the identity tilt (mu = 0,
theta = 2), where the likelihood ratio is exactly 1; both therefore share one
code path and produce bitwise-identical results under a shared seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize, special

from .copula import (
    CityPortfolio,
    CopulaDraw,
    dependent_vector,
    marginal_transform,
    portfolio_concentration,
)
from .errors import DomainError, NumericError
from .statkit import Rng, normal_quantile

CHUNK = 1 << 16

# SIS defaults: equiprobable strata, four stages consuming ~10/20/30/40% of
# the total budget, at least N_MIN replications per stratum per stage.
N_STRATA = 22
N_MIN = 10
STAGE_FRACTIONS = (0.1, 0.2, 0.3, 0.4)


@dataclass(frozen=True, eq=False)
class IsParams:
    """Mean shift for Z and gamma scale for Y defining the tilted density."""

    mean_shift: np.ndarray
    theta: float
    warning: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "mean_shift", np.asarray(self.mean_shift, dtype=float))
        if not np.all(np.isfinite(self.mean_shift)):
            raise DomainError("mean shift must be finite")
        if not np.isfinite(self.theta) or not 0.0 < self.theta <= 2.0:
            raise DomainError("theta must lie in (0, 2]")

    @classmethod
    def identity(cls, dimension: int) -> "IsParams":
        return cls(mean_shift=np.zeros(dimension), theta=2.0)

    @property
    def is_identity(self) -> bool:
        return self.theta == 2.0 and not np.any(self.mean_shift != 0.0)


@dataclass(frozen=True, eq=False)
class StratificationScheme:
    """Equiprobable strata along projections of the Gaussianized inputs.

    Each row of ``directions`` is a unit vector, rows mutually orthogonal;
    axis j is cut into ``counts[j]`` equiprobable slices and a stratum is one
    cell of the product grid (flat 1-based index, C order).  Direction
    vectors of length D act on Z - mu alone; length D + 1 (t copula only)
    adds a coordinate for the normal score of the chi-square mixing variable,
    which carries most of the residual likelihood-ratio variance.
    """

    directions: np.ndarray
    counts: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self):
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if len(self.counts) != dirs.shape[0]:
            raise DomainError("need one stratum count per direction")
        if any(c < 1 for c in self.counts):
            raise DomainError("stratum counts must be at least 1")
        gram = dirs @ dirs.T
        if not np.allclose(gram, np.eye(dirs.shape[0]), atol=1e-9):
            raise DomainError("directions must be orthonormal unit vectors")
        total = int(np.prod(self.counts))
        if self.probs.shape != (total,):
            raise DomainError("probs must have one entry per grid cell")
        if np.any(self.probs <= 0.0) or not np.isclose(self.probs.sum(), 1.0, atol=1e-12):
            raise DomainError("stratum probabilities must be positive and sum to 1")

    @classmethod
    def equiprobable(cls, direction: np.ndarray, n_strata: int = N_STRATA) -> "StratificationScheme":
        """Single-direction scheme with I equiprobable slices."""
        direction = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(direction)
        if norm <= 0.0:
            raise DomainError("stratification direction must be nonzero")
        if n_strata < 1:
            raise DomainError("need at least one stratum")
        return cls(
            directions=direction[None, :] / norm,
            counts=(n_strata,),
            probs=np.full(n_strata, 1.0 / n_strata),
        )

    @classmethod
    def grid(cls, directions, counts) -> "StratificationScheme":
        dirs = np.atleast_2d(np.asarray(directions, dtype=float))
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(norms <= 0.0):
            raise DomainError("stratification directions must be nonzero")
        total = int(np.prod([int(c) for c in counts]))
        return cls(
            directions=dirs / norms[:, None],
            counts=tuple(counts),
            probs=np.full(total, 1.0 / total),
        )

    @property
    def n_strata(self) -> int:
        return self.probs.shape[0]

    def cell(self, stratum: int) -> tuple[int, ...]:
        """0-based grid cell of a flat 1-based stratum index."""
        if not 1 <= stratum <= self.n_strata:
            raise DomainError(f"stratum must lie in 1..{self.n_strata}")
        return tuple(int(i) for i in np.unravel_index(stratum - 1, self.counts))


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with its variance on the per-replication scale.

    ``variance`` is n * Var(estimator), so halfwidth95 =
    1.96 * sqrt(variance / n) for every estimator; for SIS the variance is
    composed from the per-stratum terms first.
    """

    estimate: float
    variance: float
    halfwidth95: float
    n: int
    estimator: str
    empty_tail: bool = False
    warning: str | None = None


def likelihood_ratio(draw: CopulaDraw, is_params: IsParams, nu: float | None):
    """Exact density ratio W of the original to the tilted sampling law.

    The normal factor is exp(-mu'z + mu'mu/2) evaluated at the tilted draw z;
    the chi-square factor is (theta/2)^(nu/2) * exp(-y/2 + y/theta).  At the
    identity tilt every factor is exactly 1.
    """
    mu = is_params.mean_shift
    w = np.exp(-(draw.z @ mu) + 0.5 * (mu @ mu))
    if draw.y is not None:
        if nu is None:
            raise DomainError("nu is required for t-copula draws")
        theta = is_params.theta
        w = w * ((theta / 2.0) ** (nu / 2.0) * np.exp(draw.y * (1.0 / theta - 0.5)))
    return w


def _chunk_spans(n: int) -> list[tuple[int, int]]:
    return [(s, min(s + CHUNK, n)) for s in range(0, n, CHUNK)]


def _draw_tilted_chunk(portfolio: CityPortfolio, is_params: IsParams, rng: Rng,
                       m: int) -> CopulaDraw:
    g = rng.generator()
    spec = portfolio.copula
    z = g.standard_normal((m, portfolio.dimension)) + is_params.mean_shift
    y = None
    if spec.family == "t":
        y = is_params.theta * g.standard_gamma(spec.nu / 2.0, size=m)
    return CopulaDraw(z=z, y=y, v=dependent_vector(spec, portfolio.chol, z, y))


def simulate_tilted(portfolio: CityPortfolio, is_params: IsParams, n: int,
                    rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Concentrations and likelihood ratios for n replications under the tilt.

    Replications are generated in fixed-size chunks with per-chunk substreams,
    so results do not depend on how the chunks are executed, and rerunning
    with the same rng reuses the same underlying draws (common random
    numbers) no matter how the tilt parameters change.
    """
    conc = np.empty(n)
    weight = np.empty(n)
    nu = portfolio.copula.nu
    for c, (s, e) in enumerate(_chunk_spans(n)):
        draw = _draw_tilted_chunk(portfolio, is_params, rng.split(c), e - s)
        conc[s:e] = portfolio_concentration(portfolio, marginal_transform(portfolio, draw))
        weight[s:e] = likelihood_ratio(draw, is_params, nu)
    return conc, weight


def _tail_sums(conc: np.ndarray, weight: np.ndarray, tau: float) -> dict:
    hit = conc > tau
    y = np.where(hit, weight, 0.0)
    x = np.where(hit, conc * weight, 0.0)
    return {
        "n": conc.shape[0],
        "hits": int(hit.sum()),
        "sy": float(y.sum()),
        "syy": float((y * y).sum()),
        "sx": float(x.sum()),
        "sxx": float((x * x).sum()),
        "sxy": float((x * y).sum()),
    }


def _ep_ce_from_sums(sums: dict, estimator: str,
                     warning: str | None = None) -> tuple[EstimateResult, EstimateResult]:
    n = sums["n"]
    ep_mean = sums["sy"] / n
    ep_var = max(sums["syy"] - n * ep_mean**2, 0.0) / (n - 1)
    ep = EstimateResult(
        estimate=float(ep_mean),
        variance=float(ep_var),
        halfwidth95=float(1.96 * np.sqrt(ep_var / n)),
        n=n,
        estimator=estimator,
        warning=warning,
    )
    if sums["hits"] == 0 or sums["sy"] <= 0.0:
        ce = EstimateResult(
            estimate=float("nan"), variance=float("nan"), halfwidth95=float("nan"),
            n=n, estimator=estimator, empty_tail=True, warning=warning,
        )
        return ep, ce
    ratio = sums["sx"] / sums["sy"]
    resid_ss = max(sums["sxx"] - 2.0 * ratio * sums["sxy"] + ratio**2 * sums["syy"], 0.0)
    ce_var = resid_ss / (n - 1) / ep_mean**2  # delta method for the ratio
    ce = EstimateResult(
        estimate=float(ratio),
        variance=float(ce_var),
        halfwidth95=float(1.96 * np.sqrt(ce_var / n)),
        n=n,
        estimator=estimator,
        warning=warning,
    )
    return ep, ce


def is_estimate(portfolio: CityPortfolio, tau: float, is_params: IsParams, n: int,
                rng: Rng) -> tuple[EstimateResult, EstimateResult]:
    """IS estimates of EP and CE at threshold tau."""
    if n < 2:
        raise DomainError("need at least 2 replications")
    if not np.isfinite(tau) or tau < 0.0:
        raise DomainError("tau must be a nonnegative finite threshold")
    conc, weight = simulate_tilted(portfolio, is_params, n, rng)
    return _ep_ce_from_sums(_tail_sums(conc, weight, tau), "is", is_params.warning)


def naive_estimate(portfolio: CityPortfolio, tau: float, n: int,
                   rng: Rng) -> tuple[EstimateResult, EstimateResult]:
    """Naive Monte Carlo estimates of EP and CE at threshold tau."""
    ep, ce = is_estimate(portfolio, tau, IsParams.identity(portfolio.dimension), n, rng)
    return replace(ep, estimator="naive"), replace(ce, estimator="naive")


def _concentration_at(portfolio: CityPortfolio, z: np.ndarray, y: float) -> float:
    spec = portfolio.copula
    z_row = z[None, :]
    y_arr = np.array([y]) if spec.family == "t" else None
    draw = CopulaDraw(z=z_row, y=y_arr, v=dependent_vector(spec, portfolio.chol, z_row, y_arr))
    return float(portfolio_concentration(portfolio, marginal_transform(portfolio, draw))[0])


def _growth_direction(portfolio: CityPortfolio, z: np.ndarray, y: float) -> np.ndarray:
    d = portfolio.dimension
    grad = np.empty(d)
    h = 1e-4
    for j in range(d):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        grad[j] = (_concentration_at(portfolio, zp, y) - _concentration_at(portfolio, zm, y)) / (2 * h)
    norm = np.linalg.norm(grad)
    if not np.isfinite(norm) or norm <= 0.0:
        raise NumericError("degenerate concentration gradient")
    return grad / norm


def calibrate_is(portfolio: CityPortfolio, tau: float, *, refine_rounds: int = 3) -> IsParams:
    """IS parameters from the constrained mode of the original density.

    Finds (z*, y*) maximizing the joint log-density of (Z, Y) subject to
    C(z, y) >= tau by a coordinate search: z restricted to the ray along the
    direction of steepest concentration growth (refreshed each round), y
    optimized on its own axis.  The mean shift is z*; theta places the tilted
    gamma mode at y*.  Any numerical failure degrades to the identity tilt
    with a warning instead of raising.
    """
    if not np.isfinite(tau):
        raise DomainError("tau must be finite")
    baseline = portfolio.baseline()
    if tau <= baseline:
        raise DomainError(f"tau must exceed the baseline concentration {baseline:.6g}")

    spec = portfolio.copula
    nu = spec.nu if spec.family == "t" else None
    shape = nu / 2.0 if nu is not None else None
    y_mode = max(nu - 2.0, 1e-2) if nu is not None else 1.0

    def neg_logdensity(t: float, y: float) -> float:
        val = 0.5 * t * t
        if shape is not None:
            val += y / 2.0 - (shape - 1.0) * np.log(y)
        return val

    try:
        direction = _growth_direction(portfolio, np.zeros(portfolio.dimension), y_mode)
        t_star, y_star = 1.0, y_mode
        for _ in range(refine_rounds):

            def shift_size(y: float) -> float:
                def gap(t: float) -> float:
                    return _concentration_at(portfolio, t * direction, y) - tau

                lo, hi = 0.0, 4.0
                while gap(hi) < 0.0:
                    hi *= 2.0
                    if hi > 1e4:
                        raise NumericError("cannot bracket the IS design point")
                while gap(lo) > 0.0:
                    lo -= 4.0
                    if lo < -1e4:
                        raise NumericError("cannot bracket the IS design point")
                return float(optimize.brentq(gap, lo, hi, xtol=1e-9))

            if nu is not None:
                res = optimize.minimize_scalar(
                    lambda ly: neg_logdensity(shift_size(np.exp(ly)), np.exp(ly)),
                    bounds=(np.log(0.05 * nu), np.log(max(2.0 * nu, y_mode * 1.5))),
                    method="bounded",
                    options={"xatol": 1e-4},
                )
                y_star = float(np.exp(res.x))
            t_star = shift_size(y_star)
            new_direction = _growth_direction(portfolio, t_star * direction, y_star)
            if np.linalg.norm(new_direction - direction) < 1e-3:
                direction = new_direction
                break
            direction = new_direction
        t_star = max(t_star, 0.0)
        mean_shift = t_star * direction
        if shape is not None and shape > 1.0:
            theta = float(np.clip(y_star / (shape - 1.0), 0.05, 2.0))
        elif shape is not None:
            theta = float(np.clip(2.0 * y_star / nu, 0.05, 2.0))
        else:
            theta = 2.0
        return IsParams(mean_shift=mean_shift, theta=theta)
    except (NumericError, ValueError, FloatingPointError) as exc:
        return IsParams(
            mean_shift=np.zeros(portfolio.dimension),
            theta=2.0,
            warning=f"IS calibration failed ({exc}); using the identity tilt",
        )


def _padded_directions(scheme: StratificationScheme, dim: int, family: str) -> np.ndarray:
    dirs = scheme.directions
    gauss_dim = dim + 1 if family == "t" else dim
    if dirs.shape[1] == gauss_dim:
        return dirs
    if dirs.shape[1] == dim and family == "t":
        return np.hstack([dirs, np.zeros((dirs.shape[0], 1))])
    raise DomainError(
        f"direction length {dirs.shape[1]} incompatible with dimension {dim} ({family})"
    )


def stratified_sample(portfolio: CityPortfolio, scheme: StratificationScheme,
                      stratum: int, is_params: IsParams, rng: Rng,
                      n: int = 1) -> CopulaDraw:
    """Draws from the IS density conditioned on stratum ``stratum`` (1-based).

    Each scheme direction's projection of the Gaussianized inputs (Z - mu,
    plus the normal score of Y for the t family) is forced into its slice of
    the grid cell via the conditional quantile xi = normal_quantile((i-1+U)/I);
    the orthogonal complement stays unconditioned.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    cell = scheme.cell(stratum)
    g = rng.generator()
    spec = portfolio.copula
    dim = portfolio.dimension
    dirs = _padded_directions(scheme, dim, spec.family)
    gauss = g.standard_normal((n, dirs.shape[1]))
    for w, slices, idx in zip(dirs, scheme.counts, cell):
        u = g.random(n)
        grid = np.clip((idx + u) / slices, 1e-16, 1.0 - 1e-16)
        xi = normal_quantile(grid)
        gauss += np.outer(xi - gauss @ w, w)
    z = is_params.mean_shift + gauss[:, :dim]
    y = None
    if spec.family == "t":
        # mixing variable through its IS-law quantile at the normal score
        score = np.clip(special.ndtr(gauss[:, dim]), 1e-16, 1.0 - 1e-16)
        y = is_params.theta * special.gammaincinv(spec.nu / 2.0, score)
    return CopulaDraw(z=z, y=y, v=dependent_vector(spec, portfolio.chol, z, y))


# grid ladder for default_scheme, largest first: (drift slices, mixing slices)
_GRID_LADDER = ((24, 10), (20, 8), (16, 8), (12, 6), (10, 5), (8, 4), (6, 3),
                (4, 2), (3, 2), (2, 1), (1, 1))


def default_scheme(portfolio: CityPortfolio, is_params: IsParams, budget: int, *,
                   n_min: int = N_MIN) -> StratificationScheme:
    """Stratification grid for a budget: IS drift direction x mixing score.

    Picks the largest ladder grid whose per-stratum floor fits into the
    smallest AOA stage.  The normal-copula family has no mixing variable and
    gets the drift direction alone.
    """
    dim = portfolio.dimension
    drift = np.linalg.norm(is_params.mean_shift)
    w_z = np.zeros(dim)
    if drift > 0.0:
        w_z = is_params.mean_shift / drift
    else:
        w_z[0] = 1.0
    max_cells = int(budget * min(STAGE_FRACTIONS)) // n_min
    if portfolio.copula.family == "normal":
        slices = max(min(N_STRATA, int(max_cells)), 1)
        return StratificationScheme.equiprobable(w_z, slices)
    w1 = np.concatenate([w_z, [0.0]])
    w2 = np.zeros(dim + 1)
    w2[dim] = 1.0
    for counts in _GRID_LADDER:
        if int(np.prod(counts)) <= max_cells:
            if counts == (1, 1):
                return StratificationScheme.grid([w1], (1,))
            return StratificationScheme.grid([w1, w2], counts)
    return StratificationScheme.grid([w1], (1,))


def aoa_allocate(budget: int, probs: np.ndarray, sigma: np.ndarray,
                 n_min: int) -> np.ndarray:
    """Allocate ``budget`` replications proportionally to p_i * sigma_i.

    Every stratum is floored at ``n_min`` and the integerized counts sum to
    the budget exactly (largest-remainder rounding, ties broken by index).
    """
    probs = np.asarray(probs, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n_strata = probs.shape[0]
    if sigma.shape != probs.shape:
        raise DomainError("probs and sigma must have matching shapes")
    if np.any(sigma < 0.0):
        raise DomainError("sigma estimates must be nonnegative")
    if budget < n_strata * n_min:
        raise DomainError(
            f"budget {budget} cannot cover the floor {n_min} in all {n_strata} strata"
        )
    score = probs * sigma
    if score.sum() <= 0.0:
        score = probs.copy()

    floored = np.zeros(n_strata, dtype=bool)
    target = np.empty(n_strata)
    while True:
        free = ~floored
        remaining = budget - n_min * floored.sum()
        target[floored] = n_min
        target[free] = remaining * score[free] / score[free].sum()
        newly = free & (target < n_min)
        if not newly.any():
            break
        floored |= newly

    alloc = np.full(n_strata, n_min, dtype=int)
    free = ~floored
    if free.any():
        base = np.floor(target[free]).astype(int)
        shortfall = budget - n_min * floored.sum() - base.sum()
        remainder = target[free] - base
        order = np.lexsort((np.arange(remainder.size), -remainder))
        base[order[:shortfall]] += 1
        alloc[free] = base
    return alloc


class _StratumSums:
    __slots__ = ("n", "hits", "sy", "syy", "sx", "sxx", "sxy")

    def __init__(self):
        self.n = 0
        self.hits = 0
        self.sy = self.syy = self.sx = self.sxx = self.sxy = 0.0

    def add(self, conc: np.ndarray, weight: np.ndarray, tau: float) -> None:
        hit = conc > tau
        y = np.where(hit, weight, 0.0)
        x = np.where(hit, conc * weight, 0.0)
        self.n += conc.shape[0]
        self.hits += int(hit.sum())
        self.sy += float(y.sum())
        self.syy += float((y * y).sum())
        self.sx += float(x.sum())
        self.sxx += float((x * x).sum())
        self.sxy += float((x * y).sum())

    def residual_sigma(self, ratio: float) -> float:
        if self.n < 2:
            return 0.0
        ss = self.sxx - 2.0 * ratio * self.sxy + ratio**2 * self.syy
        mean = (self.sx - ratio * self.sy) / self.n
        var = max(ss / self.n - mean**2, 0.0) * self.n / (self.n - 1)
        return float(np.sqrt(var))

    def indicator_sigma(self) -> float:
        if self.n < 2:
            return 0.0
        var = max(self.syy / self.n - (self.sy / self.n) ** 2, 0.0) * self.n / (self.n - 1)
        return float(np.sqrt(var))


def _stage_budgets(total_n: int) -> list[int]:
    raw = np.asarray(STAGE_FRACTIONS) * total_n
    base = np.floor(raw).astype(int)
    shortfall = total_n - base.sum()
    remainder = raw - base
    order = np.lexsort((np.arange(remainder.size), -remainder))
    base[order[:shortfall]] += 1
    return base.tolist()


def _run_sis(portfolio: CityPortfolio, tau: float, is_params: IsParams,
             scheme: StratificationScheme, total_n: int, rng: Rng,
             n_min: int) -> list[_StratumSums]:
    n_strata = scheme.n_strata
    probs = scheme.probs
    sums = [_StratumSums() for _ in range(n_strata)]

    def sample_into(stage: int, alloc: np.ndarray) -> None:
        for i in range(n_strata):
            need = int(alloc[i])
            base = rng.split(stage + 1).split(i)
            for c, (s, e) in enumerate(_chunk_spans(need)):
                draw = stratified_sample(
                    portfolio, scheme, i + 1, is_params, base.split(c), e - s
                )
                conc = portfolio_concentration(
                    portfolio, marginal_transform(portfolio, draw)
                )
                weight = likelihood_ratio(draw, is_params, portfolio.copula.nu)
                sums[i].add(conc, weight, tau)

    budgets = _stage_budgets(total_n)
    sample_into(0, aoa_allocate(budgets[0], probs, np.ones(n_strata), n_min))
    for stage in range(1, len(budgets)):
        total_sy = sum(s.sy for s in sums)
        total_sx = sum(s.sx for s in sums)
        if total_sy > 0.0:
            ratio = total_sx / total_sy
            sigma = np.array([s.residual_sigma(ratio) for s in sums])
        else:
            sigma = np.array([s.indicator_sigma() for s in sums])
        sample_into(stage, aoa_allocate(budgets[stage], probs, sigma, n_min))
    return sums


def _sis_results(sums: list[_StratumSums], probs: np.ndarray, estimator: str,
                 warning: str | None) -> tuple[EstimateResult, EstimateResult]:
    n_total = sum(s.n for s in sums)
    ep_mean = float(sum(p * s.sy / s.n for p, s in zip(probs, sums)))
    ep_var = float(
        sum(p**2 * s.indicator_sigma() ** 2 / s.n for p, s in zip(probs, sums))
    )
    ep = EstimateResult(
        estimate=float(ep_mean),
        variance=float(ep_var * n_total),
        halfwidth95=float(1.96 * np.sqrt(ep_var)),
        n=n_total,
        estimator=estimator,
        warning=warning,
    )
    hits = sum(s.hits for s in sums)
    numer = float(sum(p * s.sx / s.n for p, s in zip(probs, sums)))
    if hits == 0 or ep_mean <= 0.0 or numer <= 0.0:
        ce = EstimateResult(
            estimate=float("nan"), variance=float("nan"), halfwidth95=float("nan"),
            n=n_total, estimator=estimator, empty_tail=True, warning=warning,
        )
        return ep, ce
    ratio = numer / ep_mean
    ce_var = float(
        sum(p**2 * s.residual_sigma(ratio) ** 2 / s.n for p, s in zip(probs, sums))
    ) / ep_mean**2
    ce = EstimateResult(
        estimate=float(ratio),
        variance=float(ce_var * n_total),
        halfwidth95=float(1.96 * np.sqrt(ce_var)),
        n=n_total,
        estimator=estimator,
        warning=warning,
    )
    return ep, ce


def sis_estimate(portfolio: CityPortfolio, tau: float, is_params: IsParams,
                 scheme: StratificationScheme, total_n: int, rng: Rng, *,
                 n_min: int = N_MIN) -> tuple[EstimateResult, EstimateResult]:
    """SIS estimates of EP and CE at threshold tau.

    Four stages consume the total budget; the first allocates proportionally
    to the stratum probabilities, later stages rebalance via ``aoa_allocate``
    with standard deviations pooled over everything sampled so far.  A single
    stratum degenerates to plain importance sampling and is delegated to
    ``is_estimate`` (same draws, same budget, one stage).
    """
    if not np.isfinite(tau) or tau < 0.0:
        raise DomainError("tau must be a nonnegative finite threshold")
    if scheme.n_strata == 1:
        if total_n < max(2, n_min):
            raise DomainError("budget below the stratum floor")
        ep, ce = is_estimate(portfolio, tau, is_params, total_n, rng)
        return replace(ep, estimator="sis"), replace(ce, estimator="sis")
    if total_n < scheme.n_strata * n_min * len(STAGE_FRACTIONS):
        raise DomainError(
            "budget cannot cover the per-stratum floor in every stage"
        )
    sums = _run_sis(portfolio, tau, is_params, scheme, total_n, rng, n_min)
    return _sis_results(sums, scheme.probs, "sis", is_params.warning)


@dataclass(frozen=True, eq=False)
class SisSample:
    """Pooled SIS sample with stratum bookkeeping.

    ``sample_weight`` is p_i W / n_i, so plain weighted sums over the pool are
    unbiased for the corresponding expectations; ``stratum`` holds 0-based
    labels for per-stratum variance composition.
    """

    conc: np.ndarray
    weight: np.ndarray
    sample_weight: np.ndarray
    stratum: np.ndarray
    probs: np.ndarray
    counts: np.ndarray

    def ep_at(self, tau: float) -> tuple[float, float]:
        """Stratified EP estimate and 95% halfwidth at one threshold."""
        y = np.where(self.conc > tau, self.weight, 0.0)
        n_strata = self.probs.shape[0]
        sy = np.bincount(self.stratum, weights=y, minlength=n_strata)
        syy = np.bincount(self.stratum, weights=y * y, minlength=n_strata)
        means = sy / self.counts
        with np.errstate(invalid="ignore"):
            variances = np.maximum(syy / self.counts - means**2, 0.0)
        variances *= self.counts / np.maximum(self.counts - 1, 1)
        ep = float(self.probs @ means)
        var = float(np.sum(self.probs**2 * variances / self.counts))
        return ep, 1.96 * np.sqrt(var)


def proportional_sis_sample(portfolio: CityPortfolio, is_params: IsParams,
                            scheme: StratificationScheme, total_n: int,
                            rng: Rng) -> SisSample:
    """Single-stage stratified sample with allocation proportional to p.

    Uniform coverage of all strata suits whole-distribution targets such as
    quantile inversion, where adaptive allocation at one threshold would
    starve the rest of the support.
    """
    if total_n < scheme.n_strata:
        raise DomainError("budget below one replication per stratum")
    if scheme.n_strata == 1:
        conc, weight = simulate_tilted(portfolio, is_params, total_n, rng)
        return SisSample(
            conc=conc,
            weight=weight,
            sample_weight=weight / total_n,
            stratum=np.zeros(total_n, dtype=int),
            probs=np.ones(1),
            counts=np.array([total_n]),
        )
    alloc = aoa_allocate(total_n, scheme.probs, np.ones(scheme.n_strata), 1)
    nu = portfolio.copula.nu
    concs, weights = [], []
    for i in range(scheme.n_strata):
        parts_c, parts_w = [], []
        base = rng.split(1).split(i)
        for c, (s, e) in enumerate(_chunk_spans(int(alloc[i]))):
            draw = stratified_sample(portfolio, scheme, i + 1, is_params, base.split(c), e - s)
            parts_c.append(
                portfolio_concentration(portfolio, marginal_transform(portfolio, draw))
            )
            parts_w.append(likelihood_ratio(draw, is_params, nu))
        concs.append(np.concatenate(parts_c))
        weights.append(np.concatenate(parts_w))
    conc = np.concatenate(concs)
    weight = np.concatenate(weights)
    sample_w = np.concatenate(
        [p * w / w.shape[0] for p, w in zip(scheme.probs, weights)]
    )
    labels = np.concatenate(
        [np.full(int(alloc[i]), i, dtype=int) for i in range(scheme.n_strata)]
    )
    return SisSample(
        conc=conc,
        weight=weight,
        sample_weight=sample_w,
        stratum=labels,
        probs=scheme.probs.copy(),
        counts=alloc.copy(),
    )
