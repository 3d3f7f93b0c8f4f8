"""Model calibration: log-ratio panels, GH marginal MLE, t-copula fitting.

Two-stage inference-functions-for-margins pipeline: each city's marginal is
fitted by likelihood maximization on its own complete day pairs, then the
copula is fitted on pseudo-observations from the complete cross-city rows
(Kendall-tau inversion for the correlation matrix, profile likelihood for the
degrees of freedom).  The GH likelihood shares ghdist's Bessel evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .copula import CopulaSpec, cholesky_factor
from .errors import CalibrationError, DataError, DomainError, UsageError
from .ghdist import GhParams, _log_bessel_point, _log_bessel_terms, gh_cdf
from .statkit import Rng, normal_quantile, t_quantile


@dataclass(frozen=True, eq=False)
class ConcentrationSeries:
    """Daily concentrations for one city; absent days are gaps."""

    city: str
    days: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "days", np.asarray(self.days, dtype=int))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.days.shape != self.values.shape or self.days.ndim != 1:
            raise DataError(f"{self.city}: days and values must be aligned vectors")
        if self.days.size and np.any(np.diff(self.days) <= 0):
            raise DataError(f"{self.city}: day indices must be strictly increasing")
        bad = np.flatnonzero(~(self.values > 0.0))
        if bad.size:
            raise DataError(
                f"{self.city}: nonpositive concentration at day {self.days[bad[0]]}"
            )


@dataclass(frozen=True, eq=False)
class LogRatioPanel:
    """Log-ratios aligned across cities on the union of pair-start days.

    ``mask`` records which (day, city) ratios exist; rows complete across all
    cities feed the copula fit, per-city columns feed the marginal fits.
    """

    cities: tuple[str, ...]
    days: np.ndarray
    values: np.ndarray
    mask: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def complete_rows(self) -> np.ndarray:
        return self.values[self.mask.all(axis=1)]

    def city_ratios(self, index: int) -> np.ndarray:
        return self.values[self.mask[:, index], index]

    def subset(self, rows: np.ndarray) -> "LogRatioPanel":
        rows = np.asarray(rows, dtype=int)
        return LogRatioPanel(
            cities=self.cities,
            days=self.days[rows],
            values=self.values[rows],
            mask=self.mask[rows],
        )


def compute_log_ratios(series_list: list[ConcentrationSeries]) -> LogRatioPanel:
    """One log-ratio per consecutive-day pair; gaps drop the spanning pairs."""
    if not series_list:
        raise DataError("no concentration series given")
    pairs = []
    for s in series_list:
        if s.days.size < 2:
            raise DataError(f"{s.city}: need at least 2 observations")
        pair = np.diff(s.days) == 1
        pairs.append((s.days[:-1][pair], np.log(s.values[1:] / s.values[:-1])[pair]))
    days = np.unique(np.concatenate([start for start, _ in pairs]))
    values = np.full((days.size, len(series_list)), np.nan)
    mask = np.zeros(values.shape, dtype=bool)
    for j, (start, ratios) in enumerate(pairs):
        rows = np.searchsorted(days, start)
        values[rows, j] = ratios
        mask[rows, j] = True
    return LogRatioPanel(
        cities=tuple(s.city for s in series_list), days=days, values=values, mask=mask
    )


@dataclass(frozen=True)
class GhFit:
    """A GH marginal fit and how its search went.

    ``evaluations`` counts likelihood-and-gradient evaluations over the whole
    search, ``candidate`` names the polish that won ("interior" or "ridge")
    and ``at_bound`` the search coordinates that ended on the +-50 box.
    """

    params: GhParams
    loglik: float
    evaluations: int
    candidate: str
    at_bound: tuple[str, ...]
    warning: str | None = None


def _unpack(x: np.ndarray) -> GhParams:
    lam, g, log_delta, beta, mu = x
    alpha = float(np.hypot(beta, np.exp(g)))  # keeps alpha > |beta|
    return GhParams(lam=float(lam), alpha=alpha, delta=float(np.exp(log_delta)),
                    beta=float(beta), mu=float(mu))


# optimizer box for (lam, log gamma, log delta, beta); mu is left unbounded:
# with every entry boxed, L-BFGS-B takes a unit first step along the raw
# gradient, far outside the range where the likelihood is finite
_BOX = 50.0
_BOUNDS = [(-_BOX, _BOX)] * 4 + [(None, None)]
# names of the boxed coordinates, as GhFit.at_bound reports them
_BOXED = ("lam", "log_gamma", "log_delta", "beta")
# The search stays below z = alpha * q = 2^30.  That keeps the normaliser's
# argument delta * gamma <= z below where kve turns NaN, so it stays on its
# kve point, and it keeps fits off the near-normal limit (delta, gamma ->
# infinity), where the density's -alpha q + delta gamma cancel to noise and
# the law's CDF table cannot be built (without this bound 4 of 240 bench fits
# ran to log gamma = log delta = 50 on that noise)
_MAX_Z = 2.0**30
# log(delta) of the second polish candidate, relative to log(std): the
# variance-gamma ridge (delta -> 0) on which some samples have their optimum
_RIDGE_LOG_DELTA = -12.0
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
# the screen only ranks the starts' basins; a polish step stops once it gains
# under 1e-11 relative, about 2e-9 nats at a log-likelihood near 200
_SCREEN = {"maxiter": 8, "ftol": 1e-6, "gtol": 1e-3}
_POLISH = {"maxiter": 500, "ftol": 1e-11, "gtol": 1e-7}
# a polish that stops with a larger projected gradient is rerun from its end
# point, at most _RESTARTS times
_RESTART_GTOL = 1e-3
_RESTARTS = 3


def _negloglik_grad(x: np.ndarray, samples: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative log-likelihood and its gradient in x = (lam, log gamma,
    log delta, beta, mu).

    With z = alpha * q, q = hypot(delta, x - mu), nu = lam - 1/2 and
    r = K_{nu-1}(z) / K_nu(z), the recurrence K'_nu = -K_{nu-1} - (nu/z) K_nu
    gives d log K_nu(z) / dz = -r - nu/z, from which the (gamma, delta,
    beta, mu) derivatives are closed form.  The sample terms (log K_nu, r and
    d log K_nu / d nu, which gives the lambda derivative exactly) come from
    ghdist's kernel and the normaliser's K_lam(delta * gamma) from its point
    evaluator, as in gh_logpdf.  Bessel functions enter only as
    exponentially scaled values and their ratios, so delta * gamma -> 0 stays
    finite.  A point where the likelihood is not finite, or whose parameters
    GhParams rejects, gets a 1e18 penalty with a zero gradient, which makes
    the line search step back.
    """
    lam, g, log_delta, beta, mu = x
    gamma, delta = np.exp(g), np.exp(log_delta)
    alpha = np.hypot(beta, gamma)
    nu = lam - 0.5
    n = samples.size
    dx = samples - mu
    q = np.hypot(delta, dx)
    z = alpha * q
    zeta = delta * gamma
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_k_lam, rho, d_lam_norm = _log_bessel_point(lam, zeta)
        log_k_nu, r, d_nu = _log_bessel_terms(nu, z)
        log_q = np.log(q)
        log_alpha = np.log(alpha)
        loglik = n * (lam * g - _LOG_SQRT_2PI - nu * log_alpha - lam * log_delta
                      - log_k_lam + zeta) + np.sum(nu * log_q + log_k_nu - z + beta * dx)
        # d loglik / d alpha, the route by which beta and gamma enter the tails
        d_alpha = -(2.0 * n * nu + np.sum(z * r)) / alpha
        slope = alpha * r / q
        grad = np.array([
            n * (g - log_alpha - log_delta - d_lam_norm) + np.sum(log_q + d_nu),
            n * (2.0 * lam + zeta * rho) + gamma * gamma / alpha * d_alpha,
            n * zeta * rho - delta * delta * np.sum(slope),
            beta / alpha * d_alpha + np.sum(dx),
            np.sum(slope * dx) - n * beta,
        ])
    # alpha rounds to |beta| once gamma is below |beta| * 1e-8: outside GhParams
    if not (np.isfinite(loglik) and np.all(np.isfinite(grad)) and alpha > abs(beta)
            and z.max() < _MAX_Z):
        return 1e18, np.zeros(5)
    return -float(loglik), -grad


def _start_points(samples: np.ndarray, rng: Rng) -> list[np.ndarray]:
    from scipy import stats  # imported here: it doubles the import time of the simulator

    m = float(np.mean(samples))
    med = float(np.median(samples))
    s = max(float(np.std(samples)), 1e-3)
    sk = float(stats.skew(samples))
    beta0 = float(np.clip(2.0 * sk / s, -3.0, 3.0))
    starts = [
        np.array([1.0, np.log(1.0 / s), np.log(s), 0.0, m]),
        np.array([-0.5, np.log(1.0 / s), np.log(0.8 * s), 0.0, med]),
        np.array([1.0, np.log(1.5 / s), np.log(s), beta0, med]),
        np.array([0.2, np.log(1.0 / s), np.log(1.5 * s), 0.5 * beta0, m]),
    ]
    g = rng.generator()
    starts.append(starts[0] + 0.25 * g.standard_normal(5))
    return starts


def _lbfgsb(samples: np.ndarray, x0: np.ndarray, options: dict):
    from scipy import optimize  # imported here: only fit needs it

    return optimize.minimize(_negloglik_grad, x0, args=(samples,), jac=True,
                             method="L-BFGS-B", bounds=_BOUNDS, options=options)


def _projected_gradient(res) -> float:
    """Largest gradient entry at ``res.x`` that a step inside the box can follow."""
    grad = res.jac.copy()
    boxed = grad[:4]
    boxed[(np.abs(res.x[:4]) >= _BOX) & (np.sign(boxed) == -np.sign(res.x[:4]))] = 0.0
    return float(np.max(np.abs(grad)))


def _polish(samples: np.ndarray, x0: np.ndarray, lead: float = np.inf):
    """Tight L-BFGS-B from ``x0``; returns the result and the evaluations spent.

    The relative-reduction stop also fires after one poor step along a flat
    ridge (alpha -> |beta|, or a coordinate running to the box), so a stop
    that leaves a projected gradient above _RESTART_GTOL is rerun from where
    it ended, without the stale curvature pairs, while that gains.  A stop at
    or above ``lead``, the value it has to beat, is not rerun.
    """
    res = _lbfgsb(samples, x0, _POLISH)
    spent = res.nfev
    for _ in range(_RESTARTS):
        if _projected_gradient(res) <= _RESTART_GTOL or not res.fun < lead:
            break
        again = _lbfgsb(samples, res.x, _POLISH)
        spent += again.nfev
        if not again.fun < res.fun:
            break
        res = again
    return res, spent


def fit_gh_marginal(samples, *, rng: Rng) -> GhFit:
    """GH parameters maximizing the log-likelihood of ``samples``.

    Bounded L-BFGS-B with an analytic gradient on an unconstrained scale
    (log gamma, log delta).  A short screen runs from each of five
    moment-informed starts, and the best screened point is polished to tight
    tolerance (see _polish).  That interior optimum, moved onto the
    variance-gamma ridge (delta -> 0) where the optimum of some samples lies,
    is polished again, with lam raised to 1 if it is lower, since that limit
    needs lam > 0.  The better polish wins.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise DataError("samples must be a vector with at least 2 entries")
    if not np.all(np.isfinite(samples)):
        raise DataError("samples must be finite")
    warning = None if samples.size >= 100 else "fewer than 100 samples; fit is fragile"

    screened = [_lbfgsb(samples, x0, _SCREEN) for x0 in _start_points(samples, rng)]
    best = min(screened, key=lambda res: res.fun)
    if not best.fun < 1e17:
        trace = [(res.fun, res.message) for res in screened]
        raise CalibrationError(f"GH likelihood maximization failed; trace: {trace}")
    interior, spent_interior = _polish(samples, best.x)
    ridge = interior.x.copy()
    ridge[2] = np.log(max(float(np.std(samples)), 1e-3)) + _RIDGE_LOG_DELTA
    ridge[0] = max(ridge[0], 1.0)  # the variance-gamma limit needs lam > 0
    ridge, spent_ridge = _polish(samples, ridge, lead=interior.fun)
    candidate, best = min((("interior", interior), ("ridge", ridge)),
                          key=lambda pair: pair[1].fun)
    return GhFit(
        params=_unpack(best.x),
        loglik=-best.fun,
        evaluations=sum(res.nfev for res in screened) + spent_interior + spent_ridge,
        candidate=candidate,
        at_bound=tuple(name for name, v in zip(_BOXED, best.x) if abs(v) >= _BOX),
        warning=warning,
    )


def _nearest_correlation(mat: np.ndarray) -> tuple[np.ndarray, bool]:
    # eigenvalue clipping followed by diagonal renormalization
    sym = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    floor = 1e-6 * float(eigvals.max())
    clipped = eigvals < floor
    if not clipped.any():
        np.fill_diagonal(sym, 1.0)
        return sym, False
    rebuilt = (eigvecs * np.maximum(eigvals, floor)) @ eigvecs.T
    scale = 1.0 / np.sqrt(np.diag(rebuilt))
    rebuilt = rebuilt * np.outer(scale, scale)
    np.fill_diagonal(rebuilt, 1.0)
    return 0.5 * (rebuilt + rebuilt.T), True


def _mvt_logdensity(x: np.ndarray, sigma: np.ndarray, nu: float) -> float:
    d = x.shape[1]
    chol = cholesky_factor(sigma)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    q = np.sum(np.linalg.solve(chol, x.T) ** 2, axis=0)
    const = (
        gammaln((nu + d) / 2.0)
        - gammaln(nu / 2.0)
        - 0.5 * d * np.log(nu * np.pi)
        - 0.5 * logdet
    )
    return float(np.sum(const - 0.5 * (nu + d) * np.log1p(q / nu)))


def _t_marginal_logdensity(x: np.ndarray, nu: float) -> float:
    const = gammaln((nu + 1.0) / 2.0) - gammaln(nu / 2.0) - 0.5 * np.log(nu * np.pi)
    return float(np.sum(const - 0.5 * (nu + 1.0) * np.log1p(x**2 / nu)))


def t_copula_loglik(u: np.ndarray, sigma: np.ndarray, nu: float) -> float:
    x = t_quantile(u, nu)
    return _mvt_logdensity(x, sigma, nu) - _t_marginal_logdensity(x, nu)


def normal_copula_loglik(u: np.ndarray, sigma: np.ndarray) -> float:
    x = normal_quantile(u)
    chol = cholesky_factor(sigma)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    q = np.sum(np.linalg.solve(chol, x.T) ** 2, axis=0) - np.sum(x**2, axis=1)
    return float(-0.5 * (u.shape[0] * logdet + np.sum(q)))


# search interval of the profile likelihood for the t-copula nu
_NU_BOUNDS = (0.5, 200.0)


@dataclass(frozen=True)
class CopulaFit:
    spec: CopulaSpec
    loglik_t: float
    loglik_normal: float
    warning: str | None = None


def fit_t_copula(panel: LogRatioPanel, marginals: list[GhParams]) -> CopulaFit:
    """t-copula fit: Kendall-tau inversion for sigma, profile likelihood for nu.

    Pseudo-observations come from the supplied marginal CDFs on complete
    rows.  The normal-copula log-likelihood at the same sigma is reported for
    family comparison.
    """
    from scipy import optimize, stats  # imported here: only fit needs them

    rows = panel.complete_rows()
    if rows.shape[0] < 100:
        raise DataError(f"need at least 100 complete rows, have {rows.shape[0]}")
    d = rows.shape[1]
    if len(marginals) != d:
        raise DomainError("need one marginal per panel column")
    u = np.column_stack(
        [gh_cdf(marginals[j], rows[:, j]) for j in range(d)]
    )
    u = np.clip(u, 1e-12, 1.0 - 1e-12)

    sigma = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            tau_ij = stats.kendalltau(u[:, i], u[:, j]).statistic
            sigma[i, j] = sigma[j, i] = np.sin(0.5 * np.pi * tau_ij)
    sigma = np.clip(sigma, -1.0 + 1e-10, 1.0 - 1e-10)
    np.fill_diagonal(sigma, 1.0)
    sigma, projected = _nearest_correlation(sigma)
    warning = None
    if projected:
        warning = "correlation matrix projected to positive definite (near-singular dependence)"
    try:
        cholesky_factor(sigma)
    except CalibrationError as exc:
        raise CalibrationError(f"projection failed to restore definiteness: {exc}") from exc

    res = optimize.minimize_scalar(
        lambda lnu: -t_copula_loglik(u, sigma, float(np.exp(lnu))),
        bounds=(np.log(_NU_BOUNDS[0]), np.log(_NU_BOUNDS[1])),
        method="bounded",
        options={"xatol": 1e-5},
    )
    nu_hat = float(np.exp(res.x))
    return CopulaFit(
        spec=CopulaSpec(family="t", sigma=sigma, nu=nu_hat),
        loglik_t=-float(res.fun),
        loglik_normal=normal_copula_loglik(u, sigma),
        warning=warning,
    )


def split_train_holdout(panel: LogRatioPanel, fraction: float,
                        rng: Rng) -> tuple[LogRatioPanel, LogRatioPanel]:
    """Random row split: ceil(fraction * n) training rows, rest held out."""
    if not 0.0 < fraction < 1.0:
        raise UsageError(f"train fraction {fraction} outside (0, 1)")
    n = panel.n_rows
    perm = rng.generator().permutation(n)
    n_train = int(np.ceil(fraction * n))
    train = np.sort(perm[:n_train])
    hold = np.sort(perm[n_train:])
    return panel.subset(train), panel.subset(hold)
