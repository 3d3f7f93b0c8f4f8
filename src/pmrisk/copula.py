"""Copula variates and the map from them to concentration.

The portfolio model: a normal or t copula drives D dependent uniforms, each
pushed through its city's GH quantile and scaled, and the next-day overall
concentration is the weighted sum of PM0_d * exp(r_d).

For a fixed portfolio the log-ratio r_d = s_d * G_d^{-1}(F(v)) is a fixed
monotone function of the variate v alone.  ``CityPortfolio.log_ratio_map``
tabulates it once for all cities (cubic Hermite in asinh(v) with exact
slopes), so a draw costs one table lookup per city instead of the driving
CDF plus a root of the GH table's log-cubic.  The build evaluates that exact
chain for all cities together: each round is one batched solve of the D
cities' GH quantiles (``ghdist.TableQuantiles``) at the knots and midpoints
of the intervals it checks next, and an interval that fails its midpoint
check is cut at once into as many parts as the cubic's h**4 error law asks
for, so the paper preset's map is built in three rounds.  The GH tables hold
log F and log S, which are close to linear in the tails, so the chain is
smooth there too and the paper preset's map needs under a thousand knots.
Likewise the t family's mixing variable at normal score s is a fixed
multiple of G^{-1}(Phi(s)) for the Gamma(nu/2, 1) law G;
``CityPortfolio.mixing_quantile`` tabulates its log on a uniform grid in s.
Both are ``ghdist.HermiteTable``s, which find each entry's interval through
a bucket table in O(1) and evaluate the cubic by Horner's rule, one city
column at a time from that column's own coefficient tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from .errors import CalibrationError, DomainError
from .ghdist import GhParams, HermiteTable, TableQuantiles, gh_moments
from .statkit import normal_cdf, normal_pdf, normal_quantile, t_cdf, t_pdf, t_quantile

# Uniforms are clamped before the GH quantile: IS pushes V deep into the
# tails where F(V) rounds to exactly 0 or 1 in float64.
_UNIFORM_CLIP = 1e-15

# Log-ratio map: an interval is cut while the error at its midpoint exceeds
# _MAP_TOL and the exact chain's own rounding there (one ulp of F(v), carried
# through the GH density), down to a width of _MAP_MIN_WIDTH in asinh(v).  The
# rounding term matters only in the far upper tail, where F(v) lies within a
# few ulps of 1 and the chain moves in steps of up to ~3e-2.  On the preset and
# test maps no interval reaches the width floor; it stays as the refinement's
# safeguard.  The build starts from _MAP_START_INTERVALS equal intervals and
# cuts one that misses by a factor e into ceil(margin e**(1/4)) equal parts,
# at least 2 and none narrower than the floor.  The margin is
# _MAP_FIRST_MARGIN on the start grid and _MAP_LATER_MARGIN after: an
# interval that fails once its parent was cut is one where the h**4 law
# missed, and a round costs more than the evaluations a wider cut adds.
_MAP_TOL = 1e-10
_MAP_ULP = 2.0**-52
_MAP_MIN_WIDTH = 1e-4
_MAP_START_INTERVALS = 128
_MAP_FIRST_MARGIN = 1.2
_MAP_LATER_MARGIN = 2.0

# Mixing-quantile table: knots at most _MIX_WIDTH apart in the normal score
# s, out to where Phi(s) reaches _MIX_CLIP (|s| = 8.22); constant beyond.
_MIX_CLIP = 1e-16
_MIX_WIDTH = 1.0 / 64.0


def cholesky_factor(sigma) -> np.ndarray:
    """Lower-triangular L with L L' = sigma; reports the failing pivot."""
    mat = np.asarray(sigma, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError("correlation matrix must be square")
    if not np.all(np.isfinite(mat)):
        raise DomainError("correlation matrix must be finite")
    if not np.allclose(mat, mat.T, atol=1e-12, rtol=0.0):
        raise DomainError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(mat), 1.0, atol=1e-12, rtol=0.0):
        raise DomainError("correlation matrix must have a unit diagonal")
    d = mat.shape[0]
    lower = np.zeros_like(mat)
    for j in range(d):
        pivot = mat[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= 0.0:
            raise CalibrationError(
                f"matrix is not positive definite: pivot {j} is {pivot:.3e}"
            )
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < d:
            lower[j + 1 :, j] = (mat[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


@dataclass(frozen=True, eq=False)
class CopulaSpec:
    """Dependence family: 'normal' or 't' with correlation sigma (and nu for t)."""

    family: str
    sigma: np.ndarray
    nu: float | None = None

    def __post_init__(self):
        if self.family not in ("normal", "t"):
            raise DomainError(f"unknown copula family {self.family!r}")
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        off = self.sigma[~np.eye(self.sigma.shape[0], dtype=bool)]
        if off.size and (np.any(off <= -1.0) or np.any(off >= 1.0)):
            raise DomainError("off-diagonal correlations must lie in (-1, 1)")
        cholesky_factor(self.sigma)  # symmetry, unit diagonal, PD
        if self.family == "t":
            if self.nu is None or not np.isfinite(self.nu) or self.nu <= 0.0:
                raise DomainError("t copula requires nu > 0")

    @property
    def dimension(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True, eq=False)
class CityPortfolio:
    """Weighted city portfolio with per-city marginals and a shared copula.

    Weights are population shares and are used as given; the engine never
    renormalizes them.
    """

    names: tuple[str, ...]
    weights: np.ndarray
    pm0: np.ndarray
    scale: np.ndarray
    marginals: tuple[GhParams, ...]
    copula: CopulaSpec

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "pm0", np.asarray(self.pm0, dtype=float))
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))
        d = len(self.names)
        for arr, label in ((self.weights, "weights"), (self.pm0, "pm0"), (self.scale, "scale")):
            if arr.shape != (d,):
                raise DomainError(f"{label} must have one entry per city")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{label} must be finite")
        if np.any(self.weights < 0.0) or not np.any(self.weights > 0.0):
            raise DomainError("weights must be nonnegative with at least one positive")
        if np.any(self.pm0 <= 0.0):
            raise DomainError("initial concentrations must be positive")
        if np.any(self.scale <= 0.0):
            raise DomainError("scaling factors must be positive")
        if len(self.marginals) != d:
            raise DomainError("need one marginal law per city")
        if self.copula.dimension != d:
            raise DomainError(
                f"copula dimension {self.copula.dimension} != city count {d}"
            )

    @property
    def dimension(self) -> int:
        return len(self.names)

    @cached_property
    def chol(self) -> np.ndarray:
        return cholesky_factor(self.copula.sigma)

    @cached_property
    def log_ratio_map(self) -> "LogRatioMap":
        """Tabulated v -> r for all cities, built on first use."""
        return _tabulate_log_ratios(self)

    @cached_property
    def mixing_quantile(self) -> HermiteTable:
        """Tabulated s -> log G^{-1}(Phi(s)) for the t family, built on first use.

        G is the Gamma(nu/2, 1) law, so 2 exp(table(s)) is the chi-square
        mixing variable at normal score s.
        """
        if self.copula.family != "t":
            raise DomainError("only the t copula has a mixing variable")
        return _tabulate_mixing_quantile(self.copula.nu)

    def baseline(self) -> float:
        """Current overall concentration (all log-ratios at zero)."""
        return float(self.weights @ self.pm0)


@dataclass(frozen=True, eq=False)
class CopulaDraw:
    """Batch of copula draws.

    ``z`` is the normal matrix fed to the correlation factor (already
    mean-shifted when drawn under an IS density), ``y`` the chi-square mixing
    draws (t family only), ``v`` the dependent variates L z / sqrt(y/nu).
    The engine's tilt step forms only ``v`` and passes None for the others.
    """

    z: np.ndarray | None
    y: np.ndarray | None
    v: np.ndarray


def dependent_vector(spec: CopulaSpec, chol: np.ndarray, z: np.ndarray,
                     y: np.ndarray | None) -> np.ndarray:
    corr = z @ chol.T
    if spec.family == "t":
        corr /= np.sqrt(y / spec.nu)[:, None]
    return corr


def copula_uniforms(spec: CopulaSpec, v: np.ndarray) -> np.ndarray:
    """Map dependent variates to clamped uniforms via the driving CDF F."""
    if spec.family == "t":
        u = t_cdf(v, spec.nu)
    else:
        u = normal_cdf(v)
    return np.clip(u, _UNIFORM_CLIP, 1.0 - _UNIFORM_CLIP)


class LogRatioMap(HermiteTable):
    """r_d = s_d * G_d^{-1}(clip(F(v))) for every city d, as one table in asinh(v).

    The knots are shared by all cities.  Rows 0 and K hold the exact values
    at the clipped uniforms, which is what the chain gives beyond the clip.
    Called on an (n, D) variate matrix, it returns the (n, D) log-ratios in its
    memory order, so column-major variates are read a contiguous city at a time.
    """

    def __call__(self, v: np.ndarray) -> np.ndarray:
        x = np.arcsinh(v, order="K")  # this call's own, so the values go into it
        return super().__call__(x, out=x)

    def value_and_slope(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The log-ratios at v and their derivatives in v (through d asinh(v)/dv)."""
        r, slope = super().value_and_slope(np.arcsinh(v))
        return r, slope / np.hypot(1.0, v)


def _exact_log_ratios(portfolio: CityPortfolio, quantiles: TableQuantiles, x: np.ndarray,
                      v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Points of the chain s * G^{-1}(u) at x = asinh(v), u = clip(F(v)).

    Row i is (x_i, then per city the chain, its slope in x and its rounding),
    so (n, 1 + 3D); ``quantiles`` holds the stacked GH tables of
    ``portfolio.marginals`` and solves all D cities at once.  The slope is
    s_d f_F(v) cosh(x) / g_d(r_d / s_d), with g_d the density of the GH
    table itself; the rounding is one ulp of u through the same density.
    """
    spec = portfolio.copula
    dens = t_pdf(v, spec.nu) if spec.family == "t" else normal_pdf(v)
    dens = dens * np.sqrt(1.0 + v * v)
    q, density = quantiles(u)
    inv_density = portfolio.scale / density
    return np.hstack([x[:, None], q * portfolio.scale, dens[:, None] * inv_density,
                      _MAP_ULP * u[:, None] * inv_density])


def _tabulate_log_ratios(portfolio: CityPortfolio) -> LogRatioMap:
    spec = portfolio.copula
    quantiles = TableQuantiles(portfolio.marginals)
    clip = np.array([_UNIFORM_CLIP, 1.0 - _UNIFORM_CLIP])
    v_ends = t_quantile(clip, spec.nu) if spec.family == "t" else normal_quantile(clip)
    # The points alternate knot, midpoint, knot, ...: interval i runs from
    # point 2i to point 2i + 2, and its check is at point 2i + 1.
    x = np.linspace(np.arcsinh(v_ends[0]), np.arcsinh(v_ends[1]), 2 * _MAP_START_INTERVALS + 1)
    v = np.sinh(x)
    v[[0, -1]] = v_ends
    u = copula_uniforms(spec, v)
    u[[0, -1]] = clip  # F(v_ends) may miss the clip by an ulp
    points = _exact_log_ratios(portfolio, quantiles, x, v, u)
    d = portfolio.dimension
    value, slope, rounding = slice(1, d + 1), slice(d + 1, 2 * d + 1), slice(2 * d + 1, None)

    pending = np.arange(_MAP_START_INTERVALS)  # intervals still to check
    margin = _MAP_FIRST_MARGIN
    while True:
        k = 2 * pending
        lo, mid, hi = points[k], points[k + 1], points[k + 2]
        h = hi[:, :1] - lo[:, :1]
        miss = np.abs(0.5 * (lo[:, value] + hi[:, value]) + 0.125 * h * (lo[:, slope] - hi[:, slope])
                      - mid[:, value])
        bound = np.maximum(mid[:, rounding], _MAP_TOL)
        # one no wider than twice the floor is kept as is
        split = np.any(miss > bound, axis=1) & (h[:, 0] > 2.0 * _MAP_MIN_WIDTH)
        if not split.any():
            break
        k, h = k[split], h[split, 0]
        # The midpoint miss of a cubic Hermite falls as h**4, so an interval
        # that misses by a factor e is cut into about e**(1/4) equal parts.
        excess = np.max(miss[split] / bound[split], axis=1)
        parts = np.ceil(margin * np.sqrt(np.sqrt(excess)))
        parts = np.clip(parts, 2, h // _MAP_MIN_WIDTH).astype(np.intp)
        margin = _MAP_LATER_MARGIN
        # The parts' knots and midpoints lie at j / (2 parts) of the interval
        # for j = 1 .. 2 parts - 1; j = parts is the interval's own midpoint.
        added = 2 * parts - 2
        block = np.repeat(np.arange(k.size), added)
        j = _ragged_arange(added) + 1
        j += j >= parts[block]
        x_new = lo[split, 0][block] + h[block] * (j / (2.0 * parts[block]))
        v_new = np.sinh(x_new)
        new = _exact_log_ratios(portfolio, quantiles, x_new, v_new, copula_uniforms(spec, v_new))
        points = np.insert(points, k[block] + np.where(j < parts[block], 1, 2), new, axis=0)
        # each split interval's parts, renumbered past the points added before it
        first = (k + np.cumsum(added) - added) // 2
        pending = np.repeat(first, parts) + _ragged_arange(parts)
    x, y, m = points[::2, 0], points[::2, value], points[::2, slope]

    # Cap the slopes at three times the neighbouring secants, which keeps each
    # cubic monotone, also where the far upper tail steps (see _MAP_TOL).
    secant = np.diff(y, axis=0) / np.diff(x)[:, None]
    np.minimum(m[:-1], 3.0 * secant, out=m[:-1])
    np.minimum(m[1:], 3.0 * secant, out=m[1:])
    return LogRatioMap.from_knots(x, y, m)


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """0 .. c - 1 for each count c, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _tabulate_mixing_quantile(nu: float) -> HermiteTable:
    """Cubic Hermite table of log Q(s), Q(s) = G^{-1}(Phi(s)), G = Gamma(nu/2, 1).

    The knot values come from the lower-tail inverse below s = 0 and the
    upper-tail inverse above it: G^{-1}(Phi(s)) loses accuracy once Phi(s)
    is within a few ulps of 1.  The slopes are exact:
    phi(s) / (g(Q) Q) with g the Gamma density.
    """
    shape = nu / 2.0
    s_end = -float(special.ndtri(_MIX_CLIP))
    s = np.linspace(-s_end, s_end, int(np.ceil(2.0 * s_end / _MIX_WIDTH)) + 1)
    lower = s <= 0.0
    q = np.empty_like(s)
    q[lower] = special.gammaincinv(shape, special.ndtr(s[lower]))
    q[~lower] = special.gammainccinv(shape, special.ndtr(-s[~lower]))
    log_q = np.log(q)
    slope = np.exp(q - shape * log_q + special.gammaln(shape)
                   - 0.5 * s * s - 0.5 * np.log(2.0 * np.pi))
    return HermiteTable.from_knots(s, log_q[:, None], slope[:, None])


def marginal_transform(portfolio: CityPortfolio, draw: CopulaDraw) -> np.ndarray:
    """Log-ratio matrix r with r_d = s_d * G_d^{-1}(F(V_d)).

    Evaluated through ``portfolio.log_ratio_map``; V must be finite.
    """
    v = np.asarray(draw.v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise DomainError("copula variates must be finite")
    return portfolio.log_ratio_map(v)


def portfolio_concentration(portfolio: CityPortfolio, r: np.ndarray) -> np.ndarray:
    """Overall next-day concentration C = sum_d w_d PM0_d exp(r_d)."""
    r = np.asarray(r, dtype=float)
    contrib = portfolio.weights * portfolio.pm0
    if r.ndim == 1:
        return float(np.exp(r) @ contrib)
    return np.exp(r) @ contrib


def scaling_factor(sigma_d: float, marginal: GhParams) -> float:
    """s_d = sigma_d / sqrt(var of the marginal)."""
    sigma_d = float(sigma_d)
    if not np.isfinite(sigma_d) or sigma_d <= 0.0:
        raise DomainError("daily volatility must be positive")
    _, variance = gh_moments(marginal)
    return sigma_d / np.sqrt(variance)
