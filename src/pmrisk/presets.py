"""Built-in portfolio presets and the fitted-model document format.

The "paper" preset is the five-city Beijing-Tianjin-Hebei portfolio with its
published t-copula and GH marginal fits; it is the reference configuration
for the reproduction runs and the golden-file tests.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .copula import CityPortfolio, CopulaSpec
from .errors import DataError, DomainError, UsageError
from .ghdist import GhParams

MODEL_SCHEMA = "pmrisk-model.v1"

_PAPER_CITIES = ("Bj", "Tj", "Cd", "Hs", "Xt")

_PAPER_GH = {
    "Bj": GhParams(lam=0.1894, alpha=2.4296, delta=0.7561, beta=-1.0516, mu=0.5075),
    "Tj": GhParams(lam=1.8041, alpha=3.3702, delta=0.0066, beta=-0.8673, mu=0.2959),
    "Cd": GhParams(lam=1.1848, alpha=6.4420, delta=0.5492, beta=-4.0233, mu=0.7318),
    "Hs": GhParams(lam=1.7675, alpha=4.8022, delta=0.4498, beta=-1.7954, mu=0.4339),
    "Xt": GhParams(lam=2.0100, alpha=3.9889, delta=0.0500, beta=-1.0875, mu=0.3041),
}

# Bj-Tj upper entry is mirrored from the lower triangle (0.710).
_PAPER_SIGMA = np.array(
    [
        [1.000, 0.710, 0.744, 0.487, 0.577],
        [0.710, 1.000, 0.549, 0.709, 0.623],
        [0.744, 0.549, 1.000, 0.382, 0.463],
        [0.487, 0.709, 0.382, 1.000, 0.729],
        [0.577, 0.623, 0.463, 0.729, 1.000],
    ]
)

_PAPER_NU = 11.78
_PAPER_WEIGHTS = np.array([0.4132, 0.2726, 0.0732, 0.0914, 0.1496])


def paper_portfolio() -> CityPortfolio:
    """The five-city reference portfolio: PM0 = 100, s = 1, t copula."""
    d = len(_PAPER_CITIES)
    return CityPortfolio(
        names=_PAPER_CITIES,
        weights=_PAPER_WEIGHTS.copy(),
        pm0=np.full(d, 100.0),
        scale=np.ones(d),
        marginals=tuple(_PAPER_GH[c] for c in _PAPER_CITIES),
        copula=CopulaSpec(family="t", sigma=_PAPER_SIGMA.copy(), nu=_PAPER_NU),
    )


def portfolio_to_doc(portfolio: CityPortfolio, meta: dict | None = None) -> dict:
    doc = {
        "schema": MODEL_SCHEMA,
        "copula": {
            "family": portfolio.copula.family,
            "nu": portfolio.copula.nu,
            "sigma": [[float(v) for v in row] for row in portfolio.copula.sigma],
        },
        "cities": [
            {
                "name": name,
                "weight": float(portfolio.weights[i]),
                "pm0": float(portfolio.pm0[i]),
                "scale": float(portfolio.scale[i]),
                "gh": {
                    "lam": portfolio.marginals[i].lam,
                    "alpha": portfolio.marginals[i].alpha,
                    "delta": portfolio.marginals[i].delta,
                    "beta": portfolio.marginals[i].beta,
                    "mu": portfolio.marginals[i].mu,
                },
            }
            for i, name in enumerate(portfolio.names)
        ],
    }
    if meta:
        doc["meta"] = meta
    return doc


def portfolio_from_doc(doc: dict) -> CityPortfolio:
    try:
        if doc.get("schema") != MODEL_SCHEMA:
            raise DataError(f"unsupported model schema {doc.get('schema')!r}")
        cop = doc["copula"]
        cities = doc["cities"]
        names = tuple(c["name"] for c in cities)
        return CityPortfolio(
            names=names,
            weights=np.array([c["weight"] for c in cities], dtype=float),
            pm0=np.array([c["pm0"] for c in cities], dtype=float),
            scale=np.array([c["scale"] for c in cities], dtype=float),
            marginals=tuple(
                GhParams(
                    lam=c["gh"]["lam"],
                    alpha=c["gh"]["alpha"],
                    delta=c["gh"]["delta"],
                    beta=c["gh"]["beta"],
                    mu=c["gh"]["mu"],
                )
                for c in cities
            ),
            copula=CopulaSpec(
                family=cop["family"],
                sigma=np.array(cop["sigma"], dtype=float),
                nu=cop.get("nu"),
            ),
        )
    except KeyError as exc:
        raise DataError(f"model document is missing key {exc}") from exc
    except DomainError:
        raise  # a ValueError subclass: a value outside its domain keeps its own message
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc


def model_hash(doc: dict) -> str:
    """Stable content hash of a model document (metadata excluded)."""
    core = {k: v for k, v in doc.items() if k != "meta"}
    canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_model(path) -> tuple[CityPortfolio, str]:
    """Read a fitted-model JSON file; returns (portfolio, content hash)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    return portfolio_from_doc(doc), model_hash(doc)


def resolve_portfolio(preset: str | None, model_path) -> tuple[CityPortfolio, str]:
    """Resolve the single portfolio source of a run configuration."""
    if (preset is None) == (model_path is None):
        raise UsageError("exactly one of preset or model file must be given")
    if preset is not None:
        if preset != "paper":
            raise UsageError(f"unknown preset {preset!r}")
        portfolio = paper_portfolio()
        return portfolio, model_hash(portfolio_to_doc(portfolio))
    return load_model(model_path)
