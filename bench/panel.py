"""Synthetic ``day,city,pm25`` panel for the ``fit-panel`` workload.

Daily log-ratios are drawn from the paper preset's model (t copula with GH
marginals) using numpy and scipy only, so the input does not change when the
engine under test changes.  Concentrations are cumulative from PM0 = 100 and
about 2% of the city-days are written as ``NA``.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

CITIES = ("Bj", "Tj", "Cd", "Hs", "Xt")

# (lam, alpha, delta, beta, mu) per city, t-copula correlation and nu of the
# paper preset.
GH = (
    (0.1894, 2.4296, 0.7561, -1.0516, 0.5075),
    (1.8041, 3.3702, 0.0066, -0.8673, 0.2959),
    (1.1848, 6.4420, 0.5492, -4.0233, 0.7318),
    (1.7675, 4.8022, 0.4498, -1.7954, 0.4339),
    (2.0100, 3.9889, 0.0500, -1.0875, 0.3041),
)
SIGMA = np.array(
    [
        [1.000, 0.710, 0.744, 0.487, 0.577],
        [0.710, 1.000, 0.549, 0.709, 0.623],
        [0.744, 0.549, 1.000, 0.382, 0.463],
        [0.487, 0.709, 0.382, 1.000, 0.729],
        [0.577, 0.623, 0.463, 0.729, 1.000],
    ]
)
NU = 11.78
NA_SHARE = 0.02


def _gh_quantile_table(lam, alpha, delta, beta, mu):
    """Grid and CDF values for inverse-CDF sampling by interpolation.

    The grid is sinh-spaced around mu, so it resolves peaks as narrow as the
    Tianjin fit (delta = 0.0066) and still reaches +-60 log points.
    """
    law = stats.genhyperbolic(p=lam, a=alpha * delta, b=beta * delta, loc=mu, scale=delta)
    c = 0.002
    s = np.linspace(-np.arcsinh(60.0 / c), np.arcsinh(60.0 / c), 60001)
    x = mu + c * np.sinh(s)
    pdf = law.pdf(x)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(x))])
    return x, cdf / cdf[-1]


def log_ratios(n_days: int, seed: int) -> np.ndarray:
    """(n_days - 1, 5) matrix of model log-ratios."""
    g = np.random.Generator(np.random.PCG64([seed, 0]))
    n = n_days - 1
    z = g.standard_normal((n, len(CITIES)))
    y = g.chisquare(NU, size=n)
    v = (z @ np.linalg.cholesky(SIGMA).T) / np.sqrt(y / NU)[:, None]
    u = stats.t.cdf(v, NU)
    out = np.empty_like(u)
    for j, params in enumerate(GH):
        x, cdf = _gh_quantile_table(*params)
        out[:, j] = np.interp(u[:, j], cdf, x)
    return out


def write_csv(path, n_days: int, seed: int) -> None:
    """Write the long-format panel; the same seed gives the same bytes."""
    r = log_ratios(n_days, seed)
    pm = 100.0 * np.exp(np.vstack([np.zeros((1, len(CITIES))), np.cumsum(r, axis=0)]))
    missing = np.random.Generator(np.random.PCG64([seed, 1])).random(pm.shape) < NA_SHARE
    lines = ["day,city,pm25"]
    for day in range(n_days):
        for j, city in enumerate(CITIES):
            value = "NA" if missing[day, j] else repr(float(pm[day, j]))
            lines.append(f"{day + 1},{city},{value}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
