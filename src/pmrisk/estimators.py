"""Exceeding-probability and conditional-excess estimators.

Three routes to EP = P(C > tau) and CE = E[C | C > tau]:

* naive Monte Carlo,
* importance sampling (IS): mean shift on the normal vector plus a gamma
  scale tilt on the chi-square mixing variable, reweighted by the exact
  likelihood ratio, and
* stratified importance sampling (SIS): the IS density stratified on a grid
  over the drift direction and the mixing-variable score, with the
  replication budget allocated over the strata from a pilot's tail sums.

All three run on one engine: labels -> draw -> tilt -> tail sums ->
readers.  Naive is IS at the identity tilt (mu = 0, theta = 2, where the
likelihood ratio is exactly 1), and IS is SIS on a one-cell scheme, so the
three differ only in the tilt and the scheme they pass in to ``sis_estimate``.

* One chunk loop (``_stage``).  A stage turns an allocation (replications
  per stratum) into stratum labels, ordered by stratum, and draws each chunk
  of ``CHUNK`` rows' tilt-free scores and mixing values (``_draw_scores``);
  ``_tilted`` maps each to (C, W) with one matrix per tilt, A = L [w | B],
  and no Z: city-major variates for the map, log W from the drift score.
  ``stratified_sample`` draws the same variates and adds Z.
* Each stage's allocation is fixed before it is drawn, so a stage is plain
  stratified sampling.  Its chunks are tilted as drawn and binned into the
  caller's accumulator, not kept (``_binned``, ``shared_estimates``), and
  one composer each reads EP and CE (``_estimates``) or EP on a grid
  (``_ep_reading``).
* One accumulator (``_TailBins``) bins each chunk's concentrations and
  likelihood ratios once into per-(threshold bin, stratum) counts and
  moment sums, at one threshold or at every threshold of a curve; the tail
  sums above each threshold are their reverse cumulative sums.  A row's bin
  takes no search: C > tau at one threshold, arithmetic on an evenly spaced
  grid (every CLI grid), and ``searchsorted`` only for any other grid.
* A chunk's arrays are its own, so the chunk loop reuses them in place
  where nothing else holds them (the variates' shift and divide, the map's
  values, the exps of r and log W); public functions never change theirs.
* Only a quantile needs rows: ``CommonDraws`` keeps one proportional stage's
  tilt-free chunks, and ``pool`` tilts them into a pooled ``SisSample``, whose
  ``quantile`` reads a CaR and whose ``estimates`` and ``ep_at`` bin it with
  the same accumulator and composers.  A run's CaR rounds re-tilt one draw
  (the pool keeps its ``draws`` and ``tilt``); an identity-tilt pilot is one
  ``pool`` call.

A draw makes no root solve or search: the mixing variable at normal score
s is theta exp(q(s)), with q the tabulated ``CityPortfolio.mixing_quantile``,
and the log-ratios come from the tabulated ``log_ratio_map``.  ``calibrate_is``
finds its design point by HL-RF steps on one-row evaluations that return C
and its exact gradient from the map's own slope; the mixing coordinate of
the design point has a closed form (``_mixing_mode``).  ``inverse_form`` runs
the same loop on the sphere of radius t_nu^-1(1 - alpha) for a CaR's first
threshold and tilt.

A scheme is the paper's grid, ``counts = (drift slices, mixing slices)``:
the drift axis is the direction of the IS mean shift, the mixing axis the
normal score of the chi-square mixing variable (t family only).

Stream layout: a stage draws from ``rng.split(1)``, a second stage (an
allocated one, a one-cell estimate's only one, or block B) from
``rng.split(2)``, and chunk c from ``.split(c)`` of that.  A
chunk of m rows draws ``standard_normal((m, D - 1 + k))`` for the scores it
does not stratify, k its one-slice axes (drift, and mixing for the t
family), then one ``random(m)`` per stratified axis, drift first.  So
``ONE_CELL`` draws no uniform, and at the identity tilt Z is the first D
normal columns.  ``CHUNK`` bounds the working set of a draw: at 2**16 rows
the peak memory of a 2e5-row curve sample rose by 15%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .copula import (
    CityPortfolio,
    CopulaDraw,
    marginal_transform,
    portfolio_concentration,
)
from .errors import DomainError, NumericError
from .statkit import Rng, normal_quantile, t_quantile

CHUNK = 1 << 14

# SIS defaults: equiprobable strata, at least N_MIN replications per stratum per
# stage, a MIX share of proportional allocation in an allocated stage, and
# PILOT_SHARE of the budget for sis_estimate's pilot.
N_STRATA = 22
N_MIN = 10
MIX = 0.3
PILOT_SHARE = 0.25

# cap on the HL-RF steps of calibrate_is
_HLRF_STEPS = 100


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


@dataclass(frozen=True, eq=False)
class StratificationScheme:
    """Equiprobable strata on the grid ``counts = (drift slices, mixing slices)``.

    The drift axis is the projection of Z - mu onto mu / |mu| (e_1 at
    mu = 0); the mixing axis is the normal score of the chi-square mixing
    variable, which carries most of the residual likelihood-ratio variance.
    A stratum is one cell of the grid (flat 1-based index, C order), so
    every cell has probability 1 / n_strata.  ``cells[:, i]`` is stratum
    i + 1's (drift slice, mixing slice), 0-based.
    """

    counts: tuple[int, int]
    cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != 2 or min(counts) < 1:
            raise DomainError("a scheme needs two stratum counts, each at least 1")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "cells",
                           np.stack(np.unravel_index(np.arange(counts[0] * counts[1]), counts)))

    @property
    def n_strata(self) -> int:
        return self.counts[0] * self.counts[1]

    @property
    def probs(self) -> np.ndarray:
        return np.full(self.n_strata, 1.0 / self.n_strata)


ONE_CELL = StratificationScheme((1, 1))


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with its variance on the per-replication scale.

    ``variance`` is n * Var(estimator), so halfwidth95 =
    1.96 * sqrt(variance / n) for every estimator; for SIS the variance is
    composed from the per-stratum terms first.  On a CE result,
    ``naive_variance`` estimates the same scale for naive Monte Carlo at the
    same threshold, Var(C | C > tau) / P(C > tau), from this result's own
    weighted sample; it is NaN elsewhere.
    """

    estimate: float
    variance: float
    halfwidth95: float
    n: int
    empty_tail: bool = False
    naive_variance: float = float("nan")


def likelihood_ratio(draw: CopulaDraw, is_params: IsParams, nu: float | None):
    """Exact density ratio W of the original to the tilted sampling law.

    The normal factor is exp(-mu'z + mu'mu/2) at the tilted draw z, the
    chi-square one (theta/2)^(nu/2) exp(-y/2 + y/theta), both exactly 1 at the
    identity tilt.  The reference for ``_tilted``'s W from the drift score.
    """
    mu = is_params.mean_shift
    w = np.exp(-(draw.z @ mu) + 0.5 * (mu @ mu))
    if draw.y is not None:
        if nu is None:
            raise DomainError("nu is required for t-copula draws")
        theta = is_params.theta
        w = w * ((theta / 2.0) ** (nu / 2.0) * np.exp(draw.y * (1.0 / theta - 0.5)))
    return w


def _concentration_and_gradient(portfolio: CityPortfolio, z: np.ndarray, y: float):
    """C at one point z of shape (D,) with mixing variable y, and its gradient in z.

    With v = L z / sqrt(y/nu) (y unused for the normal family), the gradient is
    L'(w_d PM0_d exp(r_d) r_d'(v_d)) / sqrt(y/nu), r' the log-ratio map's slope.
    """
    scale = np.sqrt(y / portfolio.copula.nu) if portfolio.copula.family == "t" else 1.0
    r, slope = portfolio.log_ratio_map.value_and_slope(portfolio.chol @ z / scale)
    contrib = portfolio.weights * portfolio.pm0 * np.exp(r)
    return portfolio_concentration(portfolio, r), portfolio.chol.T @ (contrib * slope) / scale


def _mixing_mode(x: float, nu: float) -> float:
    """The y minimizing x^2 y / (2 nu) + y / 2 - (nu/2 - 1) log y, in calibrate_is's bounds.

    That is the negative log-density of (t w, y) along the constraint
    C(t w, y) = tau once t = x sqrt(y / nu); it is convex for nu > 2 and
    increasing otherwise.
    """
    lo, hi = 0.05 * nu, max(2.0 * nu, 1.5 * max(nu - 2.0, 1e-2))
    return float(np.clip((nu - 2.0) / (1.0 + x * x / nu), lo, hi))


def _hlrf(portfolio: CityPortfolio, radius: float,
          tau: float | None = None) -> tuple[np.ndarray, float]:
    """(u, C): a point u with the gradient g of C at (u, y = nu) parallel to u.

    With ``tau``, the Hasofer-Lind-Rackwitz-Fiessler iteration
    u <- [(g.u - (C(u) - tau)) / |g|^2] g from u = radius g(0) / |g(0)|, which
    also solves C(u) = tau.  Without, the inverse-FORM iteration
    u <- radius g / |g|, which keeps |u| = radius.  One ``_concentration_and_gradient``
    call per step; the loop stops once a step moves u by <= 1e-12 max(|u|, 1), and
    C is read at the step's start.  ``NumericError`` for a zero or non-finite
    gradient, or after ``_HLRF_STEPS`` steps.
    """
    y_ref = portfolio.copula.nu if portfolio.copula.family == "t" else 1.0  # y at which z = u
    u = np.zeros(portfolio.dimension)
    for step in range(_HLRF_STEPS):
        conc, grad = _concentration_and_gradient(portfolio, u, y_ref)
        norm2 = grad @ grad
        if not np.isfinite(norm2) or norm2 <= 0.0:
            raise NumericError("degenerate concentration gradient")
        if tau is None or step == 0:
            new = grad * (radius / np.sqrt(norm2))
        else:
            new = grad * ((grad @ u - (conc - tau)) / norm2)
        moved, u = np.linalg.norm(new - u), new
        if moved <= 1e-12 * max(np.linalg.norm(u), 1.0):
            return u, conc
    raise NumericError("the IS design point did not converge")


def _tilt_at(portfolio: CityPortfolio, u: np.ndarray) -> IsParams:
    """The tilt of the design point u at y = nu: y* from ``_mixing_mode``, z* = sqrt(y*/nu) u."""
    nu = portfolio.copula.nu if portfolio.copula.family == "t" else None
    if nu is None:
        return IsParams(mean_shift=u, theta=2.0)
    y_star = _mixing_mode(np.linalg.norm(u), nu)
    # the tilted gamma(nu/2, theta) law has its mode at y*, or its mean for nu <= 2
    theta = y_star / (nu / 2.0 - 1.0) if nu > 2.0 else 2.0 * y_star / nu
    return IsParams(mean_shift=np.sqrt(y_star / nu) * u, theta=float(np.clip(theta, 0.05, 2.0)))


def calibrate_is(portfolio: CityPortfolio, tau: float) -> IsParams:
    """IS parameters from the constrained mode of the original density.

    Finds (z*, y*) maximizing the joint log-density of (Z, Y) subject to
    C(z, y) >= tau.  The mean shift is z*; theta places the tilted gamma mode
    at y*.  Any numerical failure degrades to the identity tilt with a
    warning instead of raising.

    The variates are L z / sqrt(y/nu), so C(z, y) depends on y only through
    u = z / sqrt(y/nu): the point u of {C(u, nu) = tau} nearest the origin
    fixes the direction w = u / |u| and x = |u|, after which y* has a closed
    form (``_mixing_mode``) and z* = x sqrt(y*/nu) w.  That point is found by
    the Hasofer-Lind-Rackwitz-Fiessler iteration (``_hlrf``), which solves
    the constraint and the direction (g parallel to u) in one loop, from
    u = 4 g(0) / |g(0)|.
    """
    if not np.isfinite(tau):
        raise DomainError("tau must be finite")
    baseline = portfolio.baseline()
    if tau <= baseline:
        raise DomainError(f"tau must exceed the baseline concentration {baseline:.6g}")
    try:
        return _tilt_at(portfolio, _hlrf(portfolio, 4.0, tau)[0])
    except (NumericError, ValueError, FloatingPointError) as exc:
        return IsParams(
            mean_shift=np.zeros(portfolio.dimension),
            theta=2.0,
            warning=f"IS calibration failed ({exc}); using the identity tilt",
        )


def inverse_form(portfolio: CityPortfolio, alpha: float) -> tuple[float, IsParams] | None:
    """(tau, tilt) of the inverse-FORM point for exceedance probability alpha, or None.

    The point u of radius b = -t_nu^-1(alpha) (-Phi^-1(alpha) for the normal
    family) at which grad C is parallel to u, at y = nu (Der Kiureghian, Zhang
    & Li 1994): were C linear in u, P(C > C(u)) would be alpha exactly, since
    w.U is t_nu for a unit w.  tau is C there and the tilt is ``calibrate_is``'s
    at that point, from the same loop (``_hlrf``) and tail (``_tilt_at``).
    b is taken from the lower tail, so it stays finite for alpha below 1e-16.
    None where the loop fails (a degenerate gradient or no convergence).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    spec = portfolio.copula
    radius = -(t_quantile(alpha, spec.nu) if spec.family == "t" else normal_quantile(alpha))
    try:
        u, tau = _hlrf(portfolio, radius)
        return tau, _tilt_at(portfolio, u)
    except (NumericError, ValueError, FloatingPointError):
        return None


def _slice_scores(cells: np.ndarray, slices: int, u: np.ndarray) -> np.ndarray:
    """Normal scores conditioned into equiprobable slice ``cells`` (0-based) of ``slices``."""
    return normal_quantile(np.clip((cells + u) / slices, 1e-16, 1.0 - 1e-16))


def _draw_scores(portfolio: CityPortfolio, scheme: StratificationScheme,
                 strata, rng: Rng) -> tuple[np.ndarray, np.ndarray | None]:
    """The tilt-free part of ``stratified_sample``: (scores, mixing values).

    ``scores`` has the drift score, the D - 1 complement scores and, for the t
    family, the normal score s of Y; ``mixing`` is exp(q(s)), Y at theta = 1
    (None for the normal family).
    """
    labels = np.asarray(strata)
    if labels.ndim != 1 or labels.size == 0 or not np.issubdtype(labels.dtype, np.integer):
        raise DomainError("strata must be a nonempty vector of integer labels")
    if labels.min() < 1 or labels.max() > scheme.n_strata:
        raise DomainError(f"stratum must lie in 1..{scheme.n_strata}")
    spec = portfolio.copula
    drift_slices, mixing_slices = scheme.counts
    if mixing_slices > 1 and spec.family != "t":
        raise DomainError("only the t copula has a mixing axis to stratify")
    g = rng.generator()
    dim = portfolio.dimension
    m = labels.shape[0]
    width = dim + 1 if spec.family == "t" else dim
    # the normals fill the score columns lo:hi, between the stratified axes
    lo, hi = int(drift_slices > 1), width - int(mixing_slices > 1)
    scores = normals = g.standard_normal((m, hi - lo))
    if hi - lo < width:
        scores = np.empty((m, width))
        scores[:, lo:hi] = normals
        drift_cells, mixing_cells = scheme.cells.take(labels - 1, axis=1)
        if lo:
            scores[:, 0] = _slice_scores(drift_cells, drift_slices, g.random(m))
        if hi < width:
            scores[:, dim] = _slice_scores(mixing_cells, mixing_slices, g.random(m))
    # the mixing variable through its IS-law quantile at the normal score, before the scale
    mixing = np.exp(portfolio.mixing_quantile(scores[:, dim])) if spec.family == "t" else None
    return scores, mixing


def _frame(mean_shift: np.ndarray) -> np.ndarray:
    """[w | B], orthonormal with first column w = mu / |mu| (e_1 at mu = 0): B is
    the Householder reflection I - v v' / |v_1|, v = w + sign(w_1) e_1, which
    maps e_1 to -sign(w_1) w, with its first column set to w."""
    norm = np.linalg.norm(mean_shift)
    w = mean_shift / norm if norm > 0.0 else np.eye(mean_shift.size)[0]
    v = w.copy()
    v[0] += 1.0 if w[0] >= 0.0 else -1.0
    frame = np.eye(w.size) - np.outer(v, v) / abs(v[0])
    frame[:, 0] = w
    return frame


def _variates(portfolio: CityPortfolio, scores: np.ndarray, mixing: np.ndarray | None,
              is_params: IsParams) -> np.ndarray:
    """V' = (A s' + b) / sqrt(theta mixing / nu) of ``_draw_scores``'s (scores, mixing):
    (D, m), city-major, with A = L [w | B] and b = L mu formed per call, and no Z."""
    mu, chol = is_params.mean_shift, portfolio.chol
    v = (chol @ _frame(mu)) @ scores[:, :mu.size].T
    v += (chol @ mu)[:, None]
    if mixing is not None:
        v /= np.sqrt(is_params.theta * mixing / portfolio.copula.nu)
    return v


def stratified_sample(portfolio: CityPortfolio, scheme: StratificationScheme,
                      strata, is_params: IsParams, rng: Rng) -> CopulaDraw:
    """Draws from the IS density, row i conditioned on stratum ``strata[i]``.

    ``strata`` is a vector of 1-based flat stratum labels (C order over the
    grid).  Z = mu + [w | B] s, [w | B] an orthonormal frame of w = mu / |mu|
    (e_1 at mu = 0) and s the drift and D - 1 complement scores; the t family
    adds the normal score of Y.  A stratified axis's score is the conditional
    quantile xi = normal_quantile((i-1+U)/I) of its slice, any other score a
    standard normal, so a one-slice axis draws no uniform.

    The engine's draw (``_draw_scores``) and variates (``_variates``, column-
    major, the bits its tilt step maps), with Z and Y = theta mixing added.
    """
    scores, mixing = _draw_scores(portfolio, scheme, strata, rng)
    mu = is_params.mean_shift
    return CopulaDraw(z=scores[:, :mu.size] @ _frame(mu).T + mu,
                      y=None if mixing is None else is_params.theta * mixing,
                      v=_variates(portfolio, scores, mixing, is_params).T)


# grid ladder for default_scheme, largest first: (drift slices, mixing slices)
_GRID_LADDER = ((24, 10), (20, 8), (16, 8), (12, 6), (10, 5), (8, 4), (6, 3),
                (4, 2), (3, 2), (2, 1), (1, 1))


def default_scheme(portfolio: CityPortfolio, budget: int) -> StratificationScheme:
    """Stratification grid for a budget: IS drift axis x mixing score.

    Picks the largest ladder grid whose per-stratum floor fits into a tenth
    of the budget, well inside ``sis_estimate``'s pilot.  The normal-copula
    family has no mixing variable and gets the drift axis alone.
    """
    max_cells = max(int(budget * 0.1) // N_MIN, 1)
    if portfolio.copula.family == "normal":
        return StratificationScheme((min(N_STRATA, max_cells), 1))
    return StratificationScheme(next(c for c in _GRID_LADDER if c[0] * c[1] <= max_cells))


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


@dataclass(frozen=True, eq=False)
class SisSample:
    """Pooled stratified sample, one entry per replication.

    ``stratum`` holds 0-based labels and ``counts`` the rows per stratum.
    ``sample_weight`` is p_i W / n_i, so plain weighted sums over the pool are
    unbiased for the corresponding expectations.  Only a CaR needs the rows
    (``quantile``); the tail readers bin them as the streamed estimators do.
    A ``CommonDraws.pool`` keeps its ``draws`` and its ``tilt``, so a CaR
    chain can re-tilt the one and sample its CCaR at the other, allocated
    by ``allocation``.
    """

    conc: np.ndarray
    weight: np.ndarray
    stratum: np.ndarray
    probs: np.ndarray
    counts: np.ndarray
    draws: CommonDraws | None = None
    tilt: IsParams | None = None

    @property
    def sample_weight(self) -> np.ndarray:
        return (self.probs / np.maximum(self.counts, 1))[self.stratum] * self.weight

    def tail_sums(self, tau, *, ce: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """Per-stratum tail hits and tail sums at one threshold or an increasing grid.

        Returns (hits, sums): ``hits[..., i]`` counts the rows of stratum i
        with C > tau, and ``sums[m, ..., i]`` sums moment m over them: W, W^2
        and, with ``ce``, x, x^2, x W and x C for x = C W.  The middle axis
        runs over the grid and is absent for a scalar tau.  The pool is binned
        once by ``_TailBins``, as the streamed estimators bin their chunks.
        """
        bins = _TailBins(tau, self.probs.shape[0], ce)
        bins.add(self.stratum, self.conc, self.weight)
        return bins.above()

    def ep_at(self, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stratified EP, its 95% halfwidth and the tail hit count.

        At one threshold or at each threshold of an increasing grid, shaped
        as in ``tail_sums``.
        """
        return _ep_reading(self.probs, self.counts, *self.tail_sums(tau, ce=False))

    def quantile(self, alpha: float) -> float:
        """Smallest concentration with at most alpha of the sample weight mass strictly above it.

        The mass above is compared with alpha, not a fraction of the weight sum:
        the weights are an unbiased probability decomposition whose sum is
        itself random, and this keeps the noisy bulk out of the tail comparison.

        The sort need not be stable.  Sorts differ only in the order of equal
        concentrations; a pool's concentrations are continuous, so ties have
        probability zero, its sort order is unique, and every cumulative mass
        is the same sum in the same order.  Within a tie the returned value
        is the same whichever row it is read from, so only the cumulative
        mass at a tie's end can round differently (not at all for weights
        whose partial sums are exact, such as dyadic ones).
        """
        if not 0.0 < alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        order = np.argsort(self.conc)
        cum = np.cumsum(self.sample_weight[order])
        if cum[-1] <= 0.0:
            raise DomainError("weights must have positive total mass")
        tail_above = cum[-1] - cum  # mass strictly above each sorted value
        # cut at 1 - (1 - alpha), not alpha: an ulp there moves a quantile by one row
        idx = int(np.searchsorted(-tail_above, -(1.0 - (1.0 - alpha)), side="left"))
        return float(self.conc[order[min(idx, self.conc.shape[0] - 1)]])

    def estimates(self, tau: float) -> tuple[EstimateResult, EstimateResult]:
        """EP and CE results at tau from the per-stratum tail sums (``_estimates``)."""
        return _estimates(self.probs, self.counts, self.tail_sums(tau)[1])

    def allocation(self, tau: float, budget: int) -> np.ndarray:
        """``_allocation`` of ``budget`` at tau with this pool as its pilot."""
        return _allocation(budget, self.probs, self.counts, self.tail_sums(tau)[1])


class _TailBins:
    """Running row counts and moment sums per (threshold bin, stratum).

    Bin b of a threshold grid tau_0 < ... < tau_{K-1} holds the rows with b
    thresholds strictly below their C, i.e. tau_{b-1} < C <= tau_b with
    tau_{-1} = -inf and tau_K = inf: ``searchsorted(grid, C, side="left")``.
    ``add`` bins a batch of rows (0-based labels, C, W) once, then adds one
    ``np.add.at`` per moment, which adds the rows in order as one
    ``np.bincount`` over all of them would.  So a sample binned chunk by
    chunk has the sums of the pooled sample, bit for bit, and the streamed
    estimators keep no rows.  ``above`` reads the tail sums above every
    threshold by a reverse cumulative sum over the bins.

    The grid must be finite and strictly increasing (``DomainError``
    otherwise).  A bin is found without a search.  One threshold bins by
    C > tau.  A grid of K >= 2 thresholds within a quarter step of
    tau_0 + k h, h their mean step (every ``start:stop:step`` grid), bins by
    arithmetic: b = ceil((C - tau_0) / h) (times 1 / h), clipped to [0, K],
    is then off by at most one, so one comparison with the grid on each side
    fixes it, and the rows that moved are checked against the grid.  A batch
    that fails the check (a NaN or -inf C), and any other grid, bins by
    ``searchsorted``.  Every route gives ``searchsorted``'s bins.
    """

    def __init__(self, tau, n_strata: int, ce: bool):
        self.scalar = np.ndim(tau) == 0
        self.grid = np.atleast_1d(np.asarray(tau, dtype=float))
        if self.grid.ndim != 1 or not (np.all(np.isfinite(self.grid))
                                       and np.all(self.grid[1:] > self.grid[:-1])):
            raise DomainError("thresholds must be finite and strictly increasing")
        self.ce = ce
        self.binned = np.zeros((7 if ce else 3, self.grid.size + 1, n_strata))
        # the arithmetic route's 1 / h, and the grid between -inf and inf ends,
        # so that tau_{b-1} is low[b] and tau_b is high[b]
        self.scale = None
        k = self.grid.size
        if k >= 2:
            step = (self.grid[-1] - self.grid[0]) / (k - 1)
            if np.all(np.abs(self.grid - (self.grid[0] + step * np.arange(k))) <= 0.25 * step):
                self.scale = 1.0 / step
            bounds = np.concatenate([[-np.inf], self.grid, [np.inf]])
            self.low, self.high = bounds[:-1], bounds[1:]

    def bins(self, conc: np.ndarray) -> np.ndarray:
        """Each row's bin: the number of thresholds strictly below its C."""
        if self.grid.size == 1:
            return ~(conc <= self.grid[0])  # not C > tau: NaN goes above, as searchsorted puts it
        if self.scale is None:
            return self.searched_bins(conc)
        guess = conc - self.grid[0]
        guess *= self.scale
        np.ceil(guess, out=guess)
        # fmax/fmin, not clip: a NaN C gets a valid bin here and fails the check
        np.fmax(guess, 0.0, out=guess)
        np.fmin(guess, self.grid.size, out=guess)
        bins = guess.astype(np.intp)
        down = conc <= self.low.take(bins)
        up = ~(conc <= self.high.take(bins))
        moved = np.flatnonzero(down | up)
        if moved.size:
            c, b = conc[moved], bins[moved] + up[moved] - down[moved]
            if not (np.all(self.low.take(b) < c) and np.all(c <= self.high.take(b))):
                return self.searched_bins(conc)
            bins[moved] = b
        return bins

    def searched_bins(self, conc: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.grid, conc, side="left")

    def add(self, stratum: np.ndarray, conc: np.ndarray, weight: np.ndarray) -> None:
        n_strata = self.binned.shape[2]
        cell = self.bins(conc) * n_strata + stratum
        flat = self.binned.reshape(len(self.binned), -1)
        flat[0] += np.bincount(cell, minlength=flat.shape[1])
        moments = [weight, weight * weight]
        if self.ce:
            x = conc * weight
            moments += [x, x * x, x * weight, x * conc]
        for row, moment in zip(flat[1:], moments):
            np.add.at(row, cell, moment)

    def above(self) -> tuple[np.ndarray, np.ndarray]:
        """(hits, sums) above each threshold, shaped as in ``SisSample.tail_sums``."""
        above = np.cumsum(self.binned[:, :0:-1], axis=1)[:, ::-1]
        if self.scalar:
            above = above[:, 0]
        return above[0], above[1:]


def _stratum_var(n: np.ndarray, s: np.ndarray, ss: np.ndarray) -> np.ndarray:
    """Per-stratum sample variances (n - 1 divisor) from sums and sums of squares."""
    return np.maximum(ss - s * s / np.maximum(n, 1), 0.0) / np.maximum(n - 1, 1)


def _stratified_mean(probs: np.ndarray, counts: np.ndarray, s: np.ndarray,
                     ss: np.ndarray):
    """Stratified mean sum_i p_i s_i / n_i and its variance, over the last axis.

    Every row is reduced in the same order, so a grid's nonincreasing tail
    sums give a nonincreasing mean (a matrix-vector product may not).
    """
    n = np.maximum(counts, 1)
    mean = np.sum(probs * (s / n), axis=-1)
    var = np.sum(probs**2 * _stratum_var(counts, s, ss) / n, axis=-1)
    return mean, var


def _ep_reading(probs: np.ndarray, counts: np.ndarray, hits: np.ndarray,
                sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified EP, its 95% halfwidth and the total hit count from EP tail sums."""
    ep, var = _stratified_mean(probs, counts, *sums)
    return ep, 1.96 * np.sqrt(var), hits.sum(axis=-1).astype(int)


def _residual_sums(sums: np.ndarray, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-stratum sums and sums of squares of x - ratio * y."""
    sy, syy, sx, sxx, sxy = sums[:5]
    return sx - ratio * sy, sxx - 2.0 * ratio * sxy + ratio**2 * syy


def _estimates(probs: np.ndarray, counts: np.ndarray,
               sums: np.ndarray) -> tuple[EstimateResult, EstimateResult]:
    """EP and CE results from the per-stratum tail sums at one threshold.

    ``variance`` is n times the stratified variance; the CE variance is the
    delta-method variance of the ratio of the two stratified means, and its
    ``naive_variance`` E[(C - CE)^2 1{C > tau}] / EP^2 from the sample's
    weights, sum_i p_i / n_i (sum x C - 2 CE sum x + CE^2 sum W) / EP^2.
    """
    n = int(counts.sum())

    def result(estimate: float, var: float, **flags) -> EstimateResult:
        return EstimateResult(estimate=float(estimate), variance=float(var * n),
                              halfwidth95=float(1.96 * np.sqrt(var)), n=n, **flags)

    ep, ep_var = _stratified_mean(probs, counts, sums[0], sums[1])
    numer = float(probs @ (sums[2] / np.maximum(counts, 1)))
    if ep <= 0.0 or numer <= 0.0:
        return result(ep, ep_var), result(float("nan"), float("nan"), empty_tail=True)
    ratio = numer / ep
    _, resid_var = _stratified_mean(probs, counts, *_residual_sums(sums, ratio))
    spread = np.maximum(sums[5] - 2.0 * ratio * sums[2] + ratio**2 * sums[0], 0.0)
    naive_var = probs @ (spread / np.maximum(counts, 1)) / ep**2
    return result(ep, ep_var), result(ratio, resid_var / ep**2,
                                      naive_variance=float(naive_var))


def _aoa_sigma(counts: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Per-stratum deviations of the CE residual for an allocation; ones before any tail hit."""
    total_sy = sums[0].sum()
    if total_sy <= 0.0:
        return np.ones(counts.shape[0])
    s, ss = _residual_sums(sums, sums[2].sum() / total_sy)
    return np.sqrt(_stratum_var(counts, s, ss))


def _allocation(budget: int, probs: np.ndarray, counts: np.ndarray,
                sums: np.ndarray) -> np.ndarray:
    """n_i ~ p_i ((1 - MIX) sigma_i / sum_j p_j sigma_j + MIX) from a pilot's CE tail sums
    (``_aoa_sigma``; Etore & Jourdain 2010), floored at N_MIN on more than one cell."""
    sigma = _aoa_sigma(counts, sums)
    if probs @ sigma > 0.0:
        sigma = (1.0 - MIX) * sigma / (probs @ sigma) + MIX
    return aoa_allocate(budget, probs, sigma, N_MIN if probs.size > 1 else 0)


def _stage(portfolio: CityPortfolio, scheme: StratificationScheme, alloc: np.ndarray,
           rng: Rng):
    """A stage's chunks of ``CHUNK`` labels at allocation ``alloc``, ordered by stratum:
    (0-based labels, scores, mixing), chunk c from ``_draw_scores`` on ``rng.split(c)``."""
    stratum = np.repeat(np.arange(scheme.n_strata), alloc)
    for c, start in enumerate(range(0, stratum.size, CHUNK)):
        labels = stratum[start:start + CHUNK]
        yield (labels, *_draw_scores(portfolio, scheme, labels + 1, rng.split(c)))


def _tilted(portfolio: CityPortfolio, scores: np.ndarray, mixing: np.ndarray | None,
            is_params: IsParams) -> tuple[np.ndarray, np.ndarray]:
    """(C, W) of one of ``_stage``'s chunks under ``is_params``, with no Z.

    C maps the city-major variates (``_variates``), the exp taken in place.
    log W = -|mu| s_1 - |mu|^2 / 2 (z.mu = |mu| s_1 + |mu|^2, [w | B] being
    orthonormal), plus (nu/2) log(theta/2) + (1 - theta/2) mixing for the t
    family.  So W is ``likelihood_ratio``'s, and log W is 0 at the identity tilt.
    """
    v = _variates(portfolio, scores, mixing, is_params)
    r = marginal_transform(portfolio, CopulaDraw(z=None, y=None, v=v.T))
    norm, theta = np.linalg.norm(is_params.mean_shift), is_params.theta
    log_w = scores[:, 0] * -norm - 0.5 * norm * norm
    if mixing is not None:
        log_w += (1.0 - 0.5 * theta) * mixing
        log_w += 0.5 * portfolio.copula.nu * np.log(0.5 * theta)
    return np.exp(r, out=r) @ (portfolio.weights * portfolio.pm0), np.exp(log_w, out=log_w)


def _binned(portfolio: CityPortfolio, is_params: IsParams, scheme: StratificationScheme,
            alloc: np.ndarray, rng: Rng, tau, ce: bool) -> tuple[np.ndarray, np.ndarray]:
    """Tail sums above tau (``_TailBins.above``) of a stage drawn at ``alloc`` on
    ``rng``: its chunks are tilted, binned and not kept."""
    bins = _TailBins(tau, scheme.n_strata, ce)
    for labels, scores, mixing in _stage(portfolio, scheme, alloc, rng):
        bins.add(labels, *_tilted(portfolio, scores, mixing, is_params))
    return bins.above()


def shared_estimates(portfolio: CityPortfolio, scheme: StratificationScheme, rows,
                     rng: Rng) -> list[tuple[EstimateResult, EstimateResult]]:
    """EP and CE results of rows (tau, tilt, allocation n_k) read off one draw.

    Block A, n_0, is drawn on ``rng.split(1)`` and block B, max_k n_k - n_0
    more rows, on ``rng.split(2)``.  Row k re-tilts and bins the first n_{k,i}
    rows of each stratum i (A's, then B's) as the chunks pass, so row 0 reads
    what a one-row call draws, and the rows correlate (Glasserman 2004, 4.2).
    """
    allocs = np.array([alloc for _, _, alloc in rows])
    if allocs.shape[1] != scheme.n_strata:
        raise DomainError("an allocation needs one count per stratum")
    bins = [_TailBins(tau, scheme.n_strata, ce=True) for tau, _, _ in rows]
    blocks = ((np.zeros_like(allocs[0]), allocs[0]), (allocs[0], allocs.max(axis=0) - allocs[0]))
    for block, (before, alloc) in enumerate(blocks):
        first, seen = np.cumsum(alloc) - alloc, 0  # each stratum's first row in the block
        for labels, scores, mixing in _stage(portfolio, scheme, alloc, rng.split(block + 1)):
            rank = before[labels] + np.arange(seen, seen + labels.size) - first[labels]
            seen += labels.size
            for (_, tilt, _), limit, acc in zip(rows, allocs, bins):
                keep = rank < limit[labels]
                if keep.any():
                    keep = slice(None) if keep.all() else keep
                    acc.add(labels[keep], *_tilted(portfolio, scores[keep],
                                                   None if mixing is None else mixing[keep], tilt))
    return [_estimates(scheme.probs, alloc, acc.above()[1]) for alloc, acc in zip(allocs, bins)]


def sis_estimate(portfolio: CityPortfolio, tau: float, is_params: IsParams,
                 scheme: StratificationScheme, total_n: int,
                 rng: Rng) -> tuple[EstimateResult, EstimateResult]:
    """SIS estimates of EP and CE at threshold tau: a pilot, then one allocated stage.

    A ``PILOT_SHARE`` proportional pilot on ``rng.split(1)``, then the rest
    allocated from its tail sums (``_allocation``) on ``rng.split(2)``.  The
    stages' weights w_s = n_s / total_n are fixed in advance, so they compose
    as 2I cells of probability w_s p_i.  A one-cell scheme has no pilot and
    needs two replications: IS, or naive Monte Carlo at ``IsParams.identity``.
    No row is kept.
    """
    if not np.isfinite(tau) or tau < 0.0:
        raise DomainError("tau must be a nonnegative finite threshold")
    cells, probs = scheme.n_strata, scheme.probs
    pilot_n = int(PILOT_SHARE * total_n) if cells > 1 else 0
    if total_n < 2 or cells > 1 and min(pilot_n, total_n - pilot_n) < cells * N_MIN:
        raise DomainError("budget cannot cover two replications and the floor in both stages")
    pilot = aoa_allocate(pilot_n, probs, np.ones(cells), N_MIN if cells > 1 else 0)
    pilot_sums = _binned(portfolio, is_params, scheme, pilot, rng.split(1), tau, True)[1]
    alloc = _allocation(total_n - pilot_n, probs, pilot, pilot_sums)
    sums = _binned(portfolio, is_params, scheme, alloc, rng.split(2), tau, True)[1]
    weights = np.repeat([pilot_n, total_n - pilot_n], cells) / total_n
    return _estimates(np.tile(probs, 2) * weights, np.concatenate([pilot, alloc]),
                      np.concatenate([pilot_sums, sums], axis=-1))


def proportional_ep_at(portfolio: CityPortfolio, is_params: IsParams,
                       scheme: StratificationScheme, total_n: int, rng: Rng,
                       tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``CommonDraws(...).pool(is_params).ep_at(tau)``, from running tail sums.

    One proportional stage (at floor 1, on ``rng.split(1)``), binned and not
    kept, so the result is the pooled one bit for bit (see ``_TailBins``) at a chunk's memory.
    """
    counts = aoa_allocate(total_n, scheme.probs, np.ones(scheme.n_strata), 1)
    return _ep_reading(scheme.probs, counts,
                       *_binned(portfolio, is_params, scheme, counts, rng.split(1), tau, False))


class CommonDraws:
    """The random numbers of one proportional pool, drawn once and re-tilted.

    Keeps the tilt-free chunks (``_stage``) of ``proportional_ep_at``'s stage:
    p_i total_n rows in stratum i, at least one, on ``rng.split(1)``.
    ``pool(is_params)`` tilts them into a pooled ``SisSample``, so a run's
    CaR rounds, which differ only in the tilt, draw once.  Uniform
    coverage suits a quantile, where AOA at one threshold would starve the
    rest of the support.
    """

    def __init__(self, portfolio: CityPortfolio, scheme: StratificationScheme,
                 total_n: int, rng: Rng):
        self.portfolio, self.scheme = portfolio, scheme
        self.counts = aoa_allocate(total_n, scheme.probs, np.ones(scheme.n_strata), 1)
        labels, scores, mixing = zip(*_stage(portfolio, scheme, self.counts, rng.split(1)))
        self.stratum = np.concatenate(labels)
        self.chunks = tuple(zip(scores, mixing))

    def pool(self, is_params: IsParams) -> SisSample:
        conc, weight = zip(*(_tilted(self.portfolio, scores, mixing, is_params)
                             for scores, mixing in self.chunks))
        return SisSample(conc=np.concatenate(conc), weight=np.concatenate(weight),
                         stratum=self.stratum, probs=self.scheme.probs, counts=self.counts,
                         draws=self, tilt=is_params)
