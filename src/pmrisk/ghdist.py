"""Generalized hyperbolic marginal law: density, CDF, quantile, moments.

Parametrization is the five-parameter (lam, alpha, delta, beta, mu) form with
density

    f(x) = a * (delta^2 + (x-mu)^2)^((lam-1/2)/2)
             * K_{lam-1/2}(alpha * sqrt(delta^2 + (x-mu)^2)) * exp(beta*(x-mu))

    a = (alpha^2-beta^2)^(lam/2)
        / (sqrt(2*pi) * alpha^(lam-1/2) * delta^lam * K_lam(delta*sqrt(alpha^2-beta^2)))

The CDF has no closed form.  Each parameter set gets a lazily built table:
adaptive Gauss-Legendre panels accumulate the CDF on a support interval chosen
so both tail masses are below 1e-16, and a cubic Hermite spline (slopes = the
exact density, so the interpolant is monotone up to quadrature error)
represents it.  Each refinement round checks every panel but integrates only
the children of the panels it splits, so no abscissa is evaluated twice.  The
check at each panel midpoint compares the local cubic Hermite value with the
quadrature CDF there, which is the build-time check of the cache error budget.
Quantiles run Newton from an inverse-table initial guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.interpolate import CubicHermiteSpline

from .errors import DomainError, NumericError

# CDF table tolerances: interpolation checked to _INTERP_TOL at every panel
# midpoint, so round-trip error stays ~two orders under the 1e-8 contract.
_INTERP_TOL = 2e-11
_SPLIT_TOL_REL = 1e-14
_TAIL_MASS = 1e-17
_MAX_REFINE_ROUNDS = 60

_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class GhParams:
    """Parameters of the generalized hyperbolic law (dimensionless log-ratios)."""

    lam: float
    alpha: float
    delta: float
    beta: float
    mu: float

    def __post_init__(self):
        vals = (self.lam, self.alpha, self.delta, self.beta, self.mu)
        if not all(np.isfinite(v) for v in vals):
            raise DomainError("GH parameters must be finite")
        if self.alpha <= abs(self.beta):
            raise DomainError(
                f"require alpha > |beta|, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.delta <= 0.0:
            raise DomainError(f"require delta > 0, got delta={self.delta}")

    @property
    def gamma(self) -> float:
        return float(np.sqrt(self.alpha**2 - self.beta**2))


def _log_kve(order: float, z):
    """log(kve(order, z)), with the large-argument asymptote where kve fails.

    scipy's kve returns NaN once z exceeds about 2e9.  There (and where it
    would underflow to 0) the two-term Hankel expansion of log K is used; it
    is exact for order 1/2 and off by O(z**-2) otherwise.  Where kve is finite
    and positive the result is log(kve) bit for bit; where it overflows (small
    z, large order) it stays +inf.
    """
    k = special.kve(order, z)
    lost = np.isnan(k) | (k == 0.0)
    if not np.any(lost):
        return np.log(k)
    zl = np.where(lost, z, 1.0)
    asym = 0.5 * np.log(np.pi / (2.0 * zl)) + np.log1p((4.0 * order**2 - 1.0) / (8.0 * zl))
    with np.errstate(divide="ignore"):
        return np.where(lost, asym, np.log(k))


def _log_norm_const(p: GhParams) -> float:
    zeta = p.delta * p.gamma
    log_k = float(_log_kve(p.lam, zeta) - zeta)
    return (
        p.lam * np.log(p.gamma)
        - 0.5 * np.log(2.0 * np.pi)
        - (p.lam - 0.5) * np.log(p.alpha)
        - p.lam * np.log(p.delta)
        - log_k
    )


def gh_logpdf(p: GhParams, x):
    """Log-density; safe in the far tails via exponentially scaled Bessel K."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("x must be finite")
    q = np.hypot(p.delta, arr - p.mu)
    aq = p.alpha * q
    out = (
        _log_norm_const(p)
        + (p.lam - 0.5) * np.log(q)
        + _log_kve(p.lam - 0.5, aq)
        - aq
        + p.beta * (arr - p.mu)
    )
    if np.ndim(x) == 0:
        return float(out)
    return out


def gh_pdf(p: GhParams, x):
    """Density of the GH law; strictly positive for finite x."""
    out = np.exp(gh_logpdf(p, x))
    if np.ndim(x) == 0:
        return float(out)
    return out


def gh_moments(p: GhParams) -> tuple[float, float]:
    """Mean and variance via Bessel-K ratios of the GIG mixing law."""
    zeta = p.delta * p.gamma
    k0 = special.kve(p.lam, zeta)
    r1 = special.kve(p.lam + 1.0, zeta) / k0
    r2 = special.kve(p.lam + 2.0, zeta) / k0
    ew = p.delta / p.gamma * r1
    var_w = (p.delta / p.gamma) ** 2 * (r2 - r1**2)
    mean = p.mu + p.beta * ew
    variance = ew + p.beta**2 * var_w
    return float(mean), float(variance)


def _support_bounds(p: GhParams) -> tuple[float, float]:
    # Expand from mu until the one-sided tail mass estimate pdf(x)/rate drops
    # below _TAIL_MASS; the tail decay rate is alpha -/+ beta per side.
    def expand(direction: float, rate: float) -> float:
        step = max(1.0, p.delta)
        x = p.mu + direction * step
        target = np.log(_TAIL_MASS * rate)
        for _ in range(200):
            if gh_logpdf(p, x) < target:
                return x
            step *= 2.0
            x = p.mu + direction * step
        raise NumericError("could not bracket the GH support")

    lo = expand(-1.0, p.alpha + p.beta)
    hi = expand(+1.0, p.alpha - p.beta)
    return lo, hi


def _initial_edges(p: GhParams, lo: float, hi: float) -> np.ndarray:
    edges = [np.linspace(lo, hi, 193), np.array([p.mu])]
    # geometric ladder resolves the peak when delta is tiny (Tianjin-like fits)
    scales = p.delta * 2.0 ** np.arange(-4, 40, dtype=float)
    scales = scales[scales < (hi - lo)]
    edges.append(p.mu + scales)
    edges.append(p.mu - scales)
    merged = np.unique(np.concatenate(edges))
    return merged[(merged >= lo) & (merged <= hi)]


def _panel_integrals(pdf_vals_fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * _GL16_NODES[None, :]
    vals = pdf_vals_fn(nodes.ravel()).reshape(nodes.shape)
    return half * (vals @ _GL16_WEIGHTS)


class _GhTables:
    """CDF/quantile tables for one parameter set."""

    def __init__(self, params: GhParams):
        self.params = params
        pdf = lambda x: np.exp(gh_logpdf(params, x))
        lo, hi = _support_bounds(params)
        edges = _initial_edges(params, lo, hi)
        dens = pdf(edges)
        whole = _panel_integrals(pdf, edges[:-1], edges[1:])
        left, right = np.empty_like(whole), np.empty_like(whole)
        new = np.arange(whole.size)

        # Each round checks every panel but integrates only the new ones: the
        # children of the panels split last round, whose whole is their
        # parent's left or right half.
        for _ in range(_MAX_REFINE_ROUNDS):
            a, b = edges[new], edges[new + 1]
            mid = 0.5 * (a + b)
            left[new] = _panel_integrals(pdf, a, mid)
            right[new] = _panel_integrals(pdf, mid, b)
            refined = left + right
            cdf = np.concatenate([[0.0], np.cumsum(refined)])
            total = cdf[-1]
            split_err = np.abs(whole - refined)
            # cubic Hermite interpolant at the midpoint against the quadrature
            hermite_mid = 0.5 * refined + np.diff(edges) / 8.0 * (dens[:-1] - dens[1:])
            interp_err = np.abs(hermite_mid - left)
            bad = (split_err > _SPLIT_TOL_REL * total + 1e-16) | (
                interp_err > _INTERP_TOL
            )
            if not bad.any():
                break
            split = np.flatnonzero(bad)
            first = split + np.arange(split.size)  # first child's index after the split
            mid = 0.5 * (edges[split] + edges[split + 1])
            edges = np.insert(edges, split + 1, mid)
            dens = np.insert(dens, split + 1, pdf(mid))
            whole = np.insert(whole, split + 1, right[split])
            whole[first] = left[split]
            left = np.insert(left, split + 1, 0.0)
            right = np.insert(right, split + 1, 0.0)
            new = np.sort(np.concatenate([first, first + 1]))
        else:
            raise NumericError("GH CDF table did not converge while refining panels")

        if abs(total - 1.0) > 1e-8:
            raise NumericError(
                f"GH density integrates to {total!r}, not 1; parametrization mismatch"
            )

        self.x_lo = float(edges[0])
        self.x_hi = float(edges[-1])
        self.edges = edges
        self.cdf_values = cdf / total
        self.spline = CubicHermiteSpline(edges, self.cdf_values, dens / total)
        self.spline_deriv = self.spline.derivative()

    def cdf(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        out = self.spline(np.clip(arr, self.x_lo, self.x_hi))
        out = np.clip(out, 0.0, 1.0)
        out = np.where(arr <= self.x_lo, 0.0, out)
        out = np.where(arr >= self.x_hi, 1.0, out)
        return out

    def quantile(self, u) -> np.ndarray:
        arr = np.asarray(u, dtype=float).ravel()
        x = np.interp(arr, self.cdf_values, self.edges)
        # each entry stops on its own residual, so its result does not depend
        # on the other entries of the batch
        active = np.arange(arr.size)
        for _ in range(8):
            xa = x[active]
            resid = self.spline(xa) - arr[active]
            dens = np.maximum(self.spline_deriv(xa), 1e-300)
            x[active] = np.clip(xa - resid / dens, self.x_lo, self.x_hi)
            active = active[np.abs(resid) >= 1e-13]
            if active.size == 0:
                break
        resid = self.spline(x) - arr
        stuck = np.abs(resid) > 1e-10
        if np.any(stuck):
            x[stuck] = self._bisect(arr[stuck])
        return x.reshape(np.shape(u))

    def _bisect(self, u: np.ndarray) -> np.ndarray:
        lo = np.full_like(u, self.x_lo)
        hi = np.full_like(u, self.x_hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            high = self.spline(mid) >= u
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
        return 0.5 * (lo + hi)


@lru_cache(maxsize=64)
def _tables(params: GhParams) -> _GhTables:
    return _GhTables(params)


def gh_cdf(p: GhParams, x):
    """CDF of the GH law, absolute error well inside 1e-9."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("x must be finite")
    out = _tables(p).cdf(arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def gh_quantile(p: GhParams, u):
    """Inverse CDF for u in (0, 1); round-trips through gh_cdf within 1e-8."""
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("u must lie strictly inside (0, 1)")
    out = _tables(p).quantile(arr)
    if np.ndim(u) == 0:
        return float(out)
    return out
