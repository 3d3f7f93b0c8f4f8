"""Command-line surface: data ingestion, fitting, reproduction runs, curves.

Subcommands::

    pmrisk fit      --csv data.csv --out model.json [--seed N]
    pmrisk simulate (--preset paper | --model F) --estimator sis
                    --alpha 0.05,0.01 --budget 100000 --seed 42 --out report.csv
    pmrisk car      (--preset paper | --model F) --estimator is
                    --alpha 0.05 --budget 100000 --seed 42 --out car.csv
    pmrisk curve    (--preset paper | --model F) --estimator sis
                    --tau-grid 100:700:20 --budget 5000 --seed 42 --out curve.csv

Exit codes: 0 success, 1 usage, 2 data error, 3 numeric/convergence error.
Artifacts embed the seed and the model hash and are written atomically, so a
rerun with the same configuration reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from .calibration import (
    ConcentrationSeries,
    compute_log_ratios,
    fit_gh_marginal,
    fit_t_copula,
    split_train_holdout,
)
from .copula import CityPortfolio, CopulaSpec
from .errors import CalibrationError, DataError, DomainError, NumericError, UsageError
from .ghdist import gh_logpdf
from .presets import portfolio_to_doc, resolve_portfolio
from .risk import build_report, exceedance_curve, queries, solve_cars
from .statkit import Rng

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

MAX_GRID_POINTS = 10_001


def ingest_csv(path) -> list[ConcentrationSeries]:
    """Parse the long-format concentration schema ``day,city,pm25``.

    ``pm25`` is a decimal or the literal ``NA``; NA rows become explicit gaps.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        if [h.strip() for h in header] != ["day", "city", "pm25"]:
            raise DataError(f"{path}:1: expected header 'day,city,pm25'")
        per_city: dict[str, dict[int, float]] = {}
        seen: dict[tuple[str, int], int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            day_s, city, pm_s = (f.strip() for f in row)
            try:
                day = int(day_s)
            except ValueError:
                raise DataError(f"{path}:{lineno}: day {day_s!r} is not an integer") from None
            if day < 1:
                raise DataError(f"{path}:{lineno}: day must be 1-based, got {day}")
            if not city:
                raise DataError(f"{path}:{lineno}: empty city name")
            key = (city, day)
            if key in seen:
                raise DataError(
                    f"{path}:{lineno}: duplicate entry for {city} day {day}"
                    f" (first at line {seen[key]})"
                )
            seen[key] = lineno
            series = per_city.setdefault(city, {})
            if pm_s == "NA":
                continue  # explicit gap
            try:
                pm = float(pm_s)
            except ValueError:
                raise DataError(f"{path}:{lineno}: pm25 {pm_s!r} is not a number or NA") from None
            if pm <= 0.0:
                raise DataError(f"{path}:{lineno}: nonpositive concentration {pm} for {city}")
            series[day] = pm
    if not per_city:
        raise DataError(f"{path}: no data rows")
    out = []
    for city, obs in per_city.items():
        days = np.array(sorted(obs), dtype=int)
        out.append(
            ConcentrationSeries(city=city, days=days, values=np.array([obs[d] for d in days]))
        )
    return out


@contextlib.contextmanager
def _atomic_out(path: str):
    """A text file that replaces ``path`` when the block completes.

    The temporary file is opened on entry, and a directory is refused there, so
    an unwritable path fails before any work; it is removed however the block
    exits.
    """
    if os.path.isdir(path):
        raise DataError(f"cannot write {path}: it is a directory")
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _metadata_lines(args: argparse.Namespace, digest: str) -> list[str]:
    lines = [
        "# pmrisk artifact v1",
        f"# command: {args.command}",
        f"# estimator: {args.estimator}",
        f"# budget: {args.budget}",
        f"# seed: {args.seed}",
        f"# model_sha256: {digest}",
    ]
    if args.command in ("simulate", "car"):
        lines.append("# alphas: " + ",".join(repr(float(a)) for a in args.alpha))
    if args.command == "curve":
        lines.append("# tau_grid: " + ",".join(repr(float(t)) for t in args.tau_grid))
    return lines


def run(args: argparse.Namespace) -> None:
    """Execute a parsed simulate/car/curve command and write its artifact."""
    # a bad alpha or budget is reported before any model file is read
    rows = [] if args.command == "curve" else queries(
        args.alpha, args.estimator, args.budget, args.seed)
    portfolio, digest = resolve_portfolio(args.preset, args.model)
    warnings: list[str] = []
    with _atomic_out(args.out) as out:
        out.write("\n".join(_metadata_lines(args, digest)) + "\n")
        if args.command == "simulate":
            out.write("alpha,car,ccar,ccar_ci_pct,vr_factor\n")
            for row in build_report(portfolio, rows, warnings=warnings):
                out.write(
                    f"{row.alpha!r},{row.car!r},{row.ccar!r},"
                    f"{row.ccar_ci_pct!r},{row.vr_factor!r}\n"
                )
        elif args.command == "car":
            out.write("alpha,car\n")
            for query, tau in zip(rows, solve_cars(portfolio, rows, warnings=warnings)):
                out.write(f"{query.alpha!r},{tau!r}\n")
        else:
            points = exceedance_curve(
                portfolio, np.array(args.tau_grid), args.estimator, args.budget, args.seed,
                warnings=warnings,
            )
            out.write("tau,ep,ep_halfwidth,hits\n")
            for p in points:
                out.write(f"{p.tau!r},{p.ep!r},{p.halfwidth95!r},{p.hits}\n")
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)


def fit(csv_path: str, out_path: str, seed: int, train_fraction: float = 0.9) -> None:
    """Run the calibration pipeline on a CSV and write the fitted model."""
    series = ingest_csv(csv_path)
    panel = compute_log_ratios(series)
    train, holdout = split_train_holdout(panel, train_fraction, Rng(seed))
    with _atomic_out(out_path) as out:
        d = len(panel.cities)
        fits = [fit_gh_marginal(train.city_ratios(j), rng=Rng(seed).split(100 + j))
                for j in range(d)]
        marginals = [f.params for f in fits]
        warnings = [f"{city}: {f.warning}" for city, f in zip(panel.cities, fits) if f.warning]
        if d == 1:
            copula = CopulaSpec(family="t", sigma=np.eye(1), nu=10.0)
            meta_copula = {"note": "single city; dimension-1 identity dependence"}
        else:
            cfit = fit_t_copula(train, marginals)
            copula = cfit.spec
            meta_copula = {
                "loglik_t": cfit.loglik_t,
                "loglik_normal": cfit.loglik_normal,
            }
            if cfit.warning:
                meta_copula["warning"] = cfit.warning
                warnings.append(cfit.warning)
        # out-of-sample evidence for the fitted marginals
        holdout_logliks = {}
        for j, city in enumerate(panel.cities):
            ratios = holdout.city_ratios(j)
            holdout_logliks[city] = {
                "loglik": float(np.sum(gh_logpdf(marginals[j], ratios))),
                "rows": int(ratios.size),
            }
        portfolio = CityPortfolio(
            names=panel.cities,
            weights=np.full(d, 1.0 / d),
            pm0=np.full(d, 100.0),
            scale=np.ones(d),
            marginals=tuple(marginals),
            copula=copula,
        )
        doc = portfolio_to_doc(
            portfolio,
            meta={
                "source_csv": os.path.basename(str(csv_path)),
                "seed": seed,
                "train_rows": train.n_rows,
                "holdout_rows": holdout.n_rows,
                "marginal_logliks": {
                    panel.cities[j]: fits[j].loglik for j in range(d)
                },
                "marginal_search": {
                    city: {"evaluations": f.evaluations, "candidate": f.candidate,
                           "at_bound": list(f.at_bound)}
                    for city, f in zip(panel.cities, fits)
                },
                "holdout_logliks": holdout_logliks,
                "copula": meta_copula,
            },
        )
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# argparse keeps the message of an ArgumentTypeError; any other error of a
# type= function becomes a generic "invalid value" message
def _parse_alpha_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}") from None


def _parse_tau_grid(text: str) -> tuple[float, ...]:
    """The points of ``start:stop:step``, refused above ``MAX_GRID_POINTS`` before
    they are built: a curve bins (points + 1) x strata cells per moment, so a
    huge grid would exhaust memory here and again in the sampler."""
    try:
        start, stop, step = (float(f) for f in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}; expected start:stop:step") from None
    if not np.all(np.isfinite([start, stop, step])) or step <= 0.0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    count = np.floor((stop - start) / step + 1e-9) + 1  # inf when the ratio overflows
    if not count <= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return tuple(start + k * step for k in range(int(count)))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pmrisk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model from a concentration CSV")
    p_fit.add_argument("--csv", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--train-fraction", type=float, default=0.9)

    for name in ("simulate", "car", "curve"):
        p = sub.add_parser(name)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--preset", choices=["paper"])
        source.add_argument("--model")
        p.add_argument("--estimator", choices=["naive", "is", "sis"], default="sis")
        p.add_argument("--alpha", type=_parse_alpha_list,
                       default="0.05,0.01,0.005,0.002,0.001")
        p.add_argument("--budget", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tau-grid", type=_parse_tau_grid, required=name == "curve")
        p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "fit":
            fit(args.csv, args.out, args.seed, args.train_fraction)
        else:
            run(args)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, DomainError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, CalibrationError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
