"""Distribution primitives and the reproducible random-number source.

Everything here is a thin, validated layer over scipy.special / numpy so the
rest of the engine has one place to get CDFs and quantiles with consistent
domain checking, and one reproducible random source.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index as _as_int

import numpy as np
from scipy import special

from .errors import DomainError

_MASK64 = (1 << 64) - 1


def _mix64(a: int, b: int) -> int:
    # splitmix64 finalizer; avalanches (stream, index) into a fresh stream id
    x = (a * 0x9E3779B97F4A7C15 + b + 1) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class Rng:
    """Counter-based random source keyed by (seed, stream).

    Identical (seed, stream) pairs always reproduce the same variate
    sequence; distinct streams are statistically independent (Philox keys).
    Instances are immutable; ``split`` derives child streams so chunked or
    stratified sampling stays reproducible regardless of execution order.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):  # Python ints: numpy ones overflow in _mix64's products
        for name in ("seed", "stream"):
            object.__setattr__(self, name, _as_int(getattr(self, name)))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def split(self, index: int) -> "Rng":
        if index < 0:
            raise DomainError("split index must be nonnegative")
        return Rng(self.seed, _mix64(self.stream & _MASK64, index))


def _as_finite_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def _positive_nu(nu) -> float:
    nu = float(nu)
    if not np.isfinite(nu) or nu <= 0.0:
        raise DomainError("nu must be a positive finite real")
    return nu


def _scalar_like(value: np.ndarray, template) -> float | np.ndarray:
    if np.ndim(template) == 0:
        return float(value)
    return value


def normal_cdf(x):
    """Standard normal CDF Phi(x); accepts scalars or arrays."""
    arr = _as_finite_array(x, "x")
    return _scalar_like(special.ndtr(arr), x)


def normal_pdf(x):
    """Standard normal density phi(x)."""
    arr = _as_finite_array(x, "x")
    return _scalar_like(np.exp(-0.5 * arr * arr) / np.sqrt(2.0 * np.pi), x)


def normal_quantile(p):
    """Inverse of ``normal_cdf`` for p in (0, 1)."""
    arr = _as_finite_array(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie strictly inside (0, 1)")
    return _scalar_like(special.ndtri(arr), p)


def t_cdf(x, nu):
    """Student-t CDF with (possibly non-integer) degrees of freedom nu > 0."""
    arr = _as_finite_array(x, "x")
    nu = _positive_nu(nu)
    return _scalar_like(special.stdtr(nu, arr), x)


def t_pdf(x, nu):
    """Student-t density with (possibly non-integer) degrees of freedom nu > 0."""
    arr = _as_finite_array(x, "x")
    nu = _positive_nu(nu)
    log_const = (special.gammaln((nu + 1.0) / 2.0) - special.gammaln(nu / 2.0)
                 - 0.5 * np.log(nu * np.pi))
    return _scalar_like(np.exp(log_const - 0.5 * (nu + 1.0) * np.log1p(arr * arr / nu)), x)


def t_quantile(p, nu):
    """Inverse of ``t_cdf``; used by the copula calibration."""
    arr = _as_finite_array(p, "p")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie strictly inside (0, 1)")
    nu = _positive_nu(nu)
    return _scalar_like(special.stdtrit(nu, arr), p)

