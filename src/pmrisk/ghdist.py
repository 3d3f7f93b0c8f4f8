"""Generalized hyperbolic marginal law: density, CDF, quantile, moments.

Parametrization is the five-parameter (lam, alpha, delta, beta, mu) form with
density

    f(x) = a * (delta^2 + (x-mu)^2)^((lam-1/2)/2)
             * K_{lam-1/2}(alpha * sqrt(delta^2 + (x-mu)^2)) * exp(beta*(x-mu))

    a = (alpha^2-beta^2)^(lam/2)
        / (sqrt(2*pi) * alpha^(lam-1/2) * delta^lam * K_lam(delta*sqrt(alpha^2-beta^2)))

The CDF has no closed form.  Each parameter set gets a lazily built table:
adaptive panels accumulate the CDF on a support interval chosen so both tail
masses are below 1e-16.  The table stores log F, summed from the left, and
log S, summed from the right, as cubic Hermite splines on the panel edges
(slopes g/F and g/S from the exact density g).  Both start from the tail mass
beyond the support, so both logs are finite, and both are close to linear in
the tails, so the law keeps its relative precision there.  ``lower`` (log F)
serves the half below the median and ``upper`` (log S, as the log-CDF of the
mirrored law -X) the half above it.  Each panel and its two halves are
integrated by 6-point Gauss-Legendre.  Each refinement round checks every
panel but integrates only the children of the panels it splits, so no abscissa
is evaluated twice.  A panel is split when its halves disagree with its whole
(the quadrature check) or when the served side's log-cubic at its midpoint,
exponentiated, misses the quadrature CDF there by more than an absolute 2e-11
(the interpolation check, the build-time check of the cache error budget).
The interpolation check sets the panel count: on the preset and fitted laws no
split is left to the quadrature check, which stays as the rule's safeguard.
A quantile is the root of one panel's log-cubic, and ``TableQuantiles`` finds
the roots for any number of laws in one masked Newton solve; ``gh_quantile``
is its one-law case.

Bessel K has two evaluators, shared with the GH fit: a trapezoidal kernel at
the sample points (``_log_bessel_terms``, with the order ratio and derivative
the fit needs) and, at the normaliser's one argument, scipy's kve
(``_log_bessel_point``), or the kernel where kve is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import special

from .errors import DomainError, NumericError
from .statkit import _as_finite_array, _scalar_like

# CDF table tolerances: the served interpolant is checked to an absolute
# _INTERP_TOL at every panel midpoint, so round-trip error stays ~two orders
# under the 1e-8 contract.
_INTERP_TOL = 2e-11
_SPLIT_TOL_REL = 1e-14
_TAIL_MASS = 1e-17
_MAX_REFINE_ROUNDS = 60
# Quantile: Newton stops below _SOLVE_TOL of the panel width (error ~ step**2).
_SOLVE_TOL = 1e-9
_SOLVE_STEPS = 60

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)
# The Bessel-K kernel of the density (see _log_bessel_terms).  A node set
# holds up to _KERNEL_NODES nodes, or more for rows that need more alone
# (see _kernel_groups).  Exponents are floored at -500: exp is slow below
# that and its subnormal results slower, and no term that counts is that
# small (a row's sum is at least about e^-t*, t* < 120 for z > 1e-50)
_KERNEL_DROP = 38.0
_KERNEL_NODES = 64
_KERNEL_MAX_STEP = 0.22
_KERNEL_SHARE = 4.0
_KERNEL_FLOOR = -500.0
# orders of _log_bessel_point's one kve call, relative to lambda; a four-point
# central difference of step 1e-3 (error O(step^4)) gives d log K_lam / d lam
_ORDER_STEP = 1e-3
_POINT_ORDERS = np.array([0.0, -1.0, -2.0 * _ORDER_STEP, -_ORDER_STEP, _ORDER_STEP,
                          2.0 * _ORDER_STEP])


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


def _log_bessel_terms(order: float, z: np.ndarray):
    """log kve(order, z), K_{order-1}/K_order and d/d(order) log K_order at
    each entry of the vector z, from one trapezoidal rule per group of rows.

    kve(nu, z) = int_0^inf exp(-z (cosh t - 1)) cosh(nu t) dt, and the two
    other terms are the same integral with cosh((nu - 1) t) and
    t sinh(nu t) in place of cosh(nu t).  The integrands are even and entire
    in t, so the trapezoidal rule from t = 0 converges exponentially in
    1/step (Trefethen & Weideman 2014); a step of min(0.22, 0.5 / sqrt(max(z,
    a))), with a = max(|nu|, |nu - 1|), holds all three to about 1e-13.
    Every row is scaled by exp(a t) and divided by its peak, at
    t* = asinh(a / z), so the sums neither overflow nor underflow, and its
    nodes run until its integrand is e^-38 below the peak.  A group's
    exponentials come from one (rows x 3)(3 x nodes) product and its three
    sums from one (rows x nodes)(nodes x 3) product (see _kernel_groups for
    how rows share a node set).  Unlike kve, the kernel stays finite past
    z = 2^30 and where K_nu overflows.
    """
    p, p1 = abs(order), abs(order - 1.0)
    a = max(p, p1)
    r = np.hypot(z, a)
    peak = np.arcsinh(a / z)
    # each row's (coefficient of cosh t - 1, of t, constant) in its log-integrand;
    # the constant, a^2 / (r + z) - a t*, is minus the log of the peak
    rows = np.empty((z.size, 3))
    rows[:, 0] = -z
    rows[:, 1] = a
    np.subtract(a * a / (r + z), a * peak, out=rows[:, 2])
    sums = np.empty((z.size, 3))
    for group, step, end in _kernel_groups(z, r, peak, a):
        t = step * np.arange(int(np.ceil(end / step)) + 1)
        nodes = np.empty((3, t.size))
        nodes[0] = np.sinh(0.5 * t)
        nodes[0] *= 2.0 * nodes[0]  # cosh t - 1, without the cancellation
        nodes[1] = t
        nodes[2] = 1.0
        e = rows[group] @ nodes
        np.maximum(e, _KERNEL_FLOOR, out=e)
        np.exp(e, out=e)
        weight = np.full(t.size, 0.5 * step)  # the cosh halves fold in here
        weight[0] *= 0.5
        lead = np.exp((p - a) * t) * weight
        cols = np.empty((t.size, 3))
        cols[:, 0] = lead * (1.0 + np.exp(-2.0 * p * t))
        cols[:, 1] = np.exp((p1 - a) * t) * weight * (1.0 + np.exp(-2.0 * p1 * t))
        cols[:, 2] = -np.copysign(t, order) * lead * np.expm1(-2.0 * p * t)
        sums[group] = e @ cols
    s0 = sums[:, 0]
    return np.log(s0) - rows[:, 2], sums[:, 1] / s0, sums[:, 2] / s0


def _kernel_step(z_max: float, a: float) -> float:
    return min(_KERNEL_MAX_STEP, 0.5 / np.sqrt(max(z_max, a)))


def _kernel_groups(z, r, peak, a):
    """(rows, step, end) of each node set of _log_bessel_terms.

    A group shares one step, set by its largest z, and one end, set by its
    smallest, so rows are grouped by z: up to _KERNEL_NODES nodes, or, for a
    first row that needs more, the rows at its step whose ends are within
    _KERNEL_SHARE of its own (the rows near mu of a law with a tiny delta).
    An empty batch has no node set.
    """
    if z.size == 0:
        return []
    # arccosh(1 + d), without rounding 1 + d: the end is decreasing in z
    d = _KERNEL_DROP / r
    end = peak + np.log1p(d + np.sqrt(d * (d + 2.0)))
    step, end_max = _kernel_step(z.max(), a), end.max()
    if end_max <= _KERNEL_NODES * step:
        return [(slice(None), step, end_max)]
    by_z = np.argsort(z, kind="stable")
    z_sorted = z[by_z]
    less_end = -end[by_z]  # increasing
    # rows up to z_same have the step of every smaller z
    z_same = max(a, (0.5 / _KERNEL_MAX_STEP) ** 2)
    groups = []
    first = 0
    while first < z.size:
        row = by_z[first]
        if end[row] <= _KERNEL_NODES * _kernel_step(z[row], a):
            # rows up to z_top share this row's end within _KERNEL_NODES nodes:
            # _kernel_step(z_top) = 0.5 / sqrt(z_top) = end / _KERNEL_NODES
            last = np.searchsorted(z_sorted, (0.5 * _KERNEL_NODES / end[row]) ** 2, "right")
        elif z[row] <= z_same:
            last = min(np.searchsorted(z_sorted, z_same, "right"),
                       np.searchsorted(less_end, _KERNEL_SHARE - end[row], "right"))
        else:
            last = first + 1
        last = max(int(last), first + 1)
        groups.append((by_z[first:last], _kernel_step(z_sorted[last - 1], a), end[row]))
        first = last
    return groups


def _log_bessel_point(order: float, z: float):
    """The three terms of _log_bessel_terms at one argument.  Where scipy's
    kve is finite and positive at all six orders, they come from one kve
    call and a four-point central difference in the order; elsewhere
    (past z ~ 2e9, or where K overflows) from the kernel at that one z."""
    k = special.kve(order + _POINT_ORDERS, z)
    if not np.all(np.isfinite(k) & (k > 0.0)):
        return tuple(term[0] for term in _log_bessel_terms(order, np.array([z])))
    log_k = np.log(k)
    d_order = (log_k[2] - 8.0 * log_k[3] + 8.0 * log_k[4] - log_k[5]) / (12.0 * _ORDER_STEP)
    return log_k[0], k[1] / k[0], d_order


def _log_norm_const(p: GhParams) -> float:
    zeta = p.delta * p.gamma
    log_k = float(_log_bessel_point(p.lam, zeta)[0] - zeta)
    return (
        p.lam * np.log(p.gamma)
        - 0.5 * np.log(2.0 * np.pi)
        - (p.lam - 0.5) * np.log(p.alpha)
        - p.lam * np.log(p.delta)
        - log_k
    )


def gh_logpdf(p: GhParams, x):
    """Log-density; safe in the far tails via exponentially scaled Bessel K."""
    arr = _as_finite_array(x, "x")
    q = np.hypot(p.delta, arr - p.mu)
    aq = p.alpha * q
    log_k, _, _ = _log_bessel_terms(p.lam - 0.5, aq.ravel())
    out = (
        _log_norm_const(p)
        + (p.lam - 0.5) * np.log(q)
        + log_k.reshape(aq.shape)
        - aq
        + p.beta * (arr - p.mu)
    )
    return _scalar_like(out, x)


def gh_pdf(p: GhParams, x):
    """Density of the GH law; strictly positive for finite x."""
    return _scalar_like(np.exp(gh_logpdf(p, x)), x)


def gh_moments(p: GhParams) -> tuple[float, float]:
    """Mean and variance via Bessel-K ratios of the GIG mixing law.

    Raises DomainError where the ratios cannot be formed: kve overflows for a
    large order at a small argument and is NaN past an argument of about 2e9.
    """
    zeta = p.delta * p.gamma
    with np.errstate(invalid="ignore", over="ignore"):
        k0 = special.kve(p.lam, zeta)
        r1 = special.kve(p.lam + 1.0, zeta) / k0
        r2 = special.kve(p.lam + 2.0, zeta) / k0
        ew = p.delta / p.gamma * r1
        var_w = (p.delta / p.gamma) ** 2 * (r2 - r1**2)
    mean = float(p.mu + p.beta * ew)
    variance = float(ew + p.beta**2 * var_w)
    if not (np.isfinite(mean) and np.isfinite(variance) and variance > 0.0):
        raise DomainError(f"GH moments of {p} are out of reach: mean {mean}, variance {variance}")
    return mean, variance


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
    # geometric ladder resolves the peak when delta is tiny (Tianjin-like fits)
    scales = p.delta * 2.0 ** np.arange(-4, 40, dtype=float)
    scales = scales[scales < (hi - lo)]
    ladder = np.concatenate([[p.mu], p.mu + scales, p.mu - scales])
    ladder = ladder[(ladder > lo) & (ladder < hi)]
    # A grid point within the smallest rung of a ladder point (a few ulps from
    # it on some laws) would leave a panel so narrow that its quadrature nodes
    # round onto its edges; without such points no initial panel is narrower
    # than a rung.  The support bounds stay.
    grid = np.linspace(lo, hi, 193)
    near = np.abs(grid[:, None] - ladder).min(axis=1) < scales[0]
    near[[0, -1]] = False
    return np.unique(np.concatenate([grid[~near], ladder]))


def _panel_integrals(pdf_vals_fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = pdf_vals_fn(nodes.ravel()).reshape(nodes.shape)
    return half * (vals @ _GL_WEIGHTS)


@dataclass(frozen=True, eq=False)
class HermiteTable:
    """Piecewise cubic on an increasing knot grid, constant beyond both ends.

    ``coef[j, c, k]`` (shape (4, D, K + 1), so each power's table of each
    column is contiguous) is, for column c, the coefficient of power j of
    the cubic in x - ``anchors[k]`` that applies where
    ``searchsorted(knots, x, 'right') == k``.  Rows 0 and K are constants.
    Called on an (n, D) matrix (or one row of D), or an (n,) vector when
    D = 1, it returns the values in the same shape, in ``out`` when given
    (which may be x itself), else C-ordered.  It reads one column at a time: the
    column's rows, then four gathers from that column's own tables and
    Horner's rule, so a column-major input is read contiguously.

    A row is found in O(1): a table of equal-width buckets over the knot
    range gives the first row of x's bucket, and the buckets are narrow
    enough that none holds two knots, so one comparison with the next knot
    finishes the search.  The result is exactly ``searchsorted``'s.
    """

    knots: np.ndarray
    anchors: np.ndarray
    coef: np.ndarray

    @classmethod
    def from_knots(cls, x: np.ndarray, y: np.ndarray, m: np.ndarray) -> "HermiteTable":
        """Cubic Hermite spline through values y with slopes m, both (K, D), at knots x."""
        h = np.diff(x)
        y, m = y.T, m.T
        secant = np.diff(y, axis=1) / h
        coef = np.zeros((4, y.shape[0], x.shape[0] + 1))
        coef[0, :, 0] = y[:, 0]
        coef[0, :, -1] = y[:, -1]
        inner = coef[..., 1:-1]
        inner[0] = y[:, :-1]
        inner[1] = m[:, :-1]
        inner[2] = (3.0 * secant - 2.0 * m[:, :-1] - m[:, 1:]) / h
        inner[3] = (m[:, :-1] + m[:, 1:] - 2.0 * secant) / (h * h)
        return cls(knots=x, anchors=np.concatenate([x[:1], x]), coef=coef)

    @cached_property
    def _buckets(self) -> tuple[float, float, int, np.ndarray, np.ndarray]:
        """(origin, 1 / width, bucket count, first row per bucket, knots + [inf])."""
        knots = self.knots
        width = np.diff(knots).min()
        while True:
            scale = 1.0 / width
            n = int((knots[-1] - knots[0]) * scale) + 1
            home = _bucket_of(knots, knots[0], scale, n)
            if np.all(np.diff(home) > 0):
                break
            width *= 0.5  # rounding put two knots into one bucket
        first = np.searchsorted(home, np.arange(n), side="left")
        return knots[0], scale, n, first, np.append(knots, np.inf)

    def rows(self, x: np.ndarray) -> np.ndarray:
        """``searchsorted(knots, x, 'right')``, by bucket lookup."""
        origin, scale, n, first, upper = self._buckets
        row = first.take(_bucket_of(x, origin, scale, n))
        row += x >= upper.take(row)
        return row

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        columns = self.coef.shape[1]
        out = np.empty(x.shape) if out is None else out
        cells = out.reshape(-1, columns)
        for col, xc in enumerate(x.reshape(-1, columns).T):
            row = self.rows(xc)
            d = xc - self.anchors[row]
            c3, c2, c1, c0 = self.coef[::-1, col]
            r = c3.take(row)
            for cj in (c2, c1):
                r *= d
                r += cj.take(row)
            r *= d
            np.add(r, c0.take(row), out=cells[:, col])
        return out

    def value_and_slope(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``__call__``'s values, to the bit, and the cubic's derivative at x (0 beyond the ends)."""
        row = self.rows(x)
        c0, c1, c2, c3 = self.coef[:, np.arange(self.coef.shape[1]), row]
        d = x - self.anchors[row]
        return ((c3 * d + c2) * d + c1) * d + c0, (3.0 * c3 * d + 2.0 * c2) * d + c1


def _bucket_of(x: np.ndarray, origin: float, scale: float, n: int) -> np.ndarray:
    # monotone in x, so a knot in an earlier bucket lies below every x in a later one
    bucket = x - origin
    bucket *= scale
    np.maximum(bucket, 0.0, out=bucket)
    np.minimum(bucket, n - 1, out=bucket)
    return bucket.astype(np.intp)


class _SearchedTable(HermiteTable):
    """A HermiteTable whose rows come from ``searchsorted``: a GH table's panel
    widths span up to six decades on fits with a tiny delta, too many for
    buckets."""

    def rows(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.knots, x, side="right")


class _GhTables:
    """Log-CDF tables of one parameter set, one per side of the median.

    ``lower`` is the cubic Hermite table of log F on the panel edges (slopes
    g/F); ``upper`` that of log S on the mirrored edges -x (slopes g/S), the
    log-CDF of the mirrored law -X.  ``lower`` serves x below ``median``, the
    first edge where F exceeds 1/2, and u up to ``median_cdf``, F there;
    ``upper`` the rest.  F and S start from the tail mass beyond the support,
    pdf/(alpha -/+ beta) as in ``_support_bounds``, so every log is finite.
    """

    def __init__(self, params: GhParams):
        pdf = lambda x: np.exp(gh_logpdf(params, x))
        lo, hi = _support_bounds(params)
        edges = _initial_edges(params, lo, hi)
        dens = pdf(edges)
        tail_lo = dens[0] / (params.alpha + params.beta)
        tail_hi = dens[-1] / (params.alpha - params.beta)
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
            cdf = tail_lo + np.concatenate([[0.0], np.cumsum(refined)])
            survival = tail_hi + np.append(np.cumsum(refined[::-1])[::-1], 0.0)
            split_err = np.abs(whole - refined)
            # each side's log-cubic at the midpoint against the quadrature, on
            # the panels where that side is served
            h8 = np.diff(edges) / 8.0
            lower_err = np.abs(_served_mid(cdf, dens, h8) - (cdf[:-1] + left))
            upper_err = np.abs(_served_mid(survival, -dens, h8) - (survival[1:] + right))
            bad = ((split_err > _SPLIT_TOL_REL * cdf[-1] + 1e-16)
                   | ((lower_err > _INTERP_TOL) & (cdf[:-1] <= 0.5))
                   | ((upper_err > _INTERP_TOL) & (survival[1:] <= 0.5)))
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

        total = cdf[-1] + tail_hi
        if abs(total - 1.0) > 1e-8:
            raise NumericError(
                f"GH density integrates to {total!r}, not 1; parametrization mismatch"
            )

        log_f, log_s = np.log(cdf / total), np.log(survival / total)
        k = np.searchsorted(cdf, 0.5 * total, side="right")
        self.median, self.median_cdf = edges[k], np.exp(log_f[k])
        self.lower = _SearchedTable.from_knots(edges, log_f[:, None], (dens / cdf)[:, None])
        self.upper = _SearchedTable.from_knots(-edges[::-1], log_s[::-1, None],
                                               (dens / survival)[::-1, None])


def _served_mid(values, dens, h8):
    """exp of the cubic Hermite of log(values), slopes dens/values, at each
    panel's midpoint (h8 = panel width / 8): the interpolant a side serves."""
    logs, slopes = np.log(values), dens / values
    return np.exp(0.5 * (logs[:-1] + logs[1:]) + h8 * (slopes[:-1] - slopes[1:]))


@lru_cache(maxsize=64)
def _tables(params: GhParams) -> _GhTables:
    return _GhTables(params)


def gh_cdf(p: GhParams, x):
    """CDF of the GH law: absolute error within 2e-11, and relative error within
    about 1e-5 in both tails (read off log F below the median, log S above)."""
    arr = _as_finite_array(x, "x")
    flat = arr.ravel()
    t = _tables(p)
    below = flat < t.median
    out = np.empty_like(flat)
    out[below] = np.exp(t.lower(flat[below]))
    # the sides can differ by a few ulps at the median; the larger value keeps F monotone
    out[~below] = np.maximum(-np.expm1(t.upper(-flat[~below])), t.median_cdf)
    return _scalar_like(out.reshape(arr.shape), x)


class TableQuantiles:
    """The inverse CDF tables of D GH laws, stacked for one batched solve.

    Called on n uniforms in (0, 1), it returns the (n, D) x solving
    log F_d(x) = log u on each law d's table, and the table's density there,
    u times the log-cubic's slope.  Entries up to the law's ``median_cdf``
    are solved on its lower table, the rest as log(1 - u) (1 - u is exact in
    floating point above 1/2) on its upper one, so the two sides meet at a
    knot, where both hold the quadrature sums, as ``gh_cdf``'s do.  An entry
    below a side's first knot value (u under the tail mass beyond the
    support) is solved at that knot, the support bound.
    One ``searchsorted`` over the knot values of all 2D sides finds each
    entry's panel among the stacked rows of all 2D tables (a law's lower
    rows, then its upper rows), and one safeguarded Newton iteration on the
    panels' log-cubics runs over the whole (n, D) batch.  An entry that has
    converged is frozen, so each entry's iterates, and its result, do not
    depend on the rest of the batch: ``gh_quantile`` is the one-law case.
    """

    def __init__(self, laws):
        tables = [_tables(law) for law in laws]
        sides = [side for t in tables for side in (t.lower, t.upper)]
        self._split = np.array([t.median_cdf for t in tables])
        # Side j = 2 law + (upper side).  Complex numbers sort by real part,
        # then by imaginary part, so the keys (j, knot value) list every
        # side's knot values in turn, and one search over them finds each
        # entry's knot on its own side.
        values = [side.coef[0, 0, 1:] for side in sides]
        self._keys = np.empty(sum(v.size for v in values), dtype=complex)
        self._keys.real = np.repeat(np.arange(len(values)), [v.size for v in values])
        self._keys.imag = np.concatenate(values)
        self._first = np.array([v[0] for v in values])
        self._coef = np.concatenate([side.coef[:, 0] for side in sides], axis=1)
        self._anchors = np.concatenate([side.anchors for side in sides])
        # Each row's panel width and right knot value.  A side's last row is a
        # constant that no u in (0, 1) reaches, so its entries are never read.
        self._width = np.append(np.diff(self._anchors), 0.0)
        self._next = np.append(self._coef[0, 1:], 0.0)

    def __call__(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # law-major (D, n): each law's entries read its own tables in turn
        upper = u > self._split[:, None]
        side = upper + np.arange(0, upper.shape[0] * 2, 2)[:, None]
        # 1 - u is exact where it is read; below a side's first knot value the
        # solve lands on the support bound
        target = np.where(upper, np.log(1.0 - u), np.log(u))
        np.maximum(target, self._first[side], out=target)
        key = np.empty(upper.shape, dtype=complex)
        key.real, key.imag = side, target
        # a side's rows are its knots' and one more, so side j's rows start j past its knots
        row = np.searchsorted(self._keys, key, side="right") + side
        c = self._coef.take(row, axis=1)
        c0, c1, c2, c3 = c
        c0 -= target  # the cubic minus log q: less rounding than subtracting it last
        width = self._width.take(row)
        d = width * c0 / (c0 + target - self._next.take(row))  # the secant's root
        width = width.ravel()
        _newton(c.reshape(4, -1), d.reshape(-1), np.zeros_like(width), width.copy(),
                _SOLVE_TOL * width, _SOLVE_STEPS)
        x = self._anchors.take(row) + d
        slope = (3.0 * c3 * d + 2.0 * c2) * d + c1
        return np.where(upper, -x, x).T, (np.exp(target) * slope).T


def _newton(c, d, lo, hi, tol, steps):
    """Safeguarded Newton on the cubics c (4, m) from d, moving d in place.

    A step outside the bracket [lo, hi] bisects it.  An entry whose step is
    within its tol is frozen; once fewer than an eighth are active they go on
    as compacted copies, which changes no entry's iterates.
    """
    c0, c1, c2, c3 = c
    c2x2, c3x3 = 2.0 * c2, 3.0 * c3
    active = np.ones(d.shape, dtype=bool)
    for i in range(steps):
        f = ((c3 * d + c2) * d + c1) * d + c0
        below = f < 0.0
        np.copyto(lo, d, where=below)
        np.copyto(hi, d, where=~below)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = d - f / ((c3x3 * d + c2x2) * d + c1)
        # the bracket test is inclusive, so a converged iterate stands; NaN bisects
        np.copyto(step, 0.5 * (lo + hi), where=~((step >= lo) & (step <= hi)))
        moved = np.abs(step - d) > tol
        np.copyto(d, step, where=active)
        active &= moved
        left = np.count_nonzero(active)
        if left == 0:
            return
        if 8 * left < d.size:
            at = np.flatnonzero(active)
            rest = d[at]
            _newton(c[:, at], rest, lo[at], hi[at], tol[at], steps - i - 1)
            d[at] = rest
            return
    raise NumericError("GH quantile did not converge on its table panel")


def gh_quantile(p: GhParams, u):
    """Inverse CDF for u in (0, 1); round-trips through gh_cdf within 1e-8.
    Below the tail mass beyond the support (under 1e-17) it is the support bound."""
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("u must lie strictly inside (0, 1)")
    out, _ = TableQuantiles((p,))(arr.ravel())
    return _scalar_like(out.reshape(arr.shape), u)
