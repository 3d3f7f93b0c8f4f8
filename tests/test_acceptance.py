"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.stats import genhyperbolic

import pmrisk
from pmrisk import (
    IsParams,
    RiskQuery,
    Rng,
    build_report,
    cholesky_factor,
    compute_ccar,
    exceedance_curve,
    gh_cdf,
    gh_quantile,
    is_estimate,
    naive_estimate,
    queries,
    sis_estimate,
    solve_car,
    variance_reduction_factor,
)
from pmrisk.calibration import LogRatioPanel, fit_gh_marginal, fit_t_copula
from pmrisk.copula import CityPortfolio, marginal_transform
from pmrisk.estimators import (
    ONE_CELL,
    calibrate_is,
    default_scheme,
    proportional_sis_sample,
)
from pmrisk.ghdist import _log_kve

from conftest import CAR_ROWS, GH_ROWS, SIGMA, model_draw

BUDGET = 100_000
SEED = 20140042


def test_criterion_1_preset_rows_reproduction(portfolio):
    worst_car = worst_ccar = 0.0
    for alpha, car_ref, ccar_ref in CAR_ROWS:
        band = 0.03 if alpha <= 0.002 else 0.015
        start = time.perf_counter()
        query = RiskQuery(alpha, "sis", BUDGET, Rng(SEED))
        car = solve_car(portfolio, query)[0]
        ccar = compute_ccar(portfolio, query, car).estimate
        elapsed = time.perf_counter() - start
        car_err = abs(car / car_ref - 1.0)
        ccar_err = abs(ccar / ccar_ref - 1.0)
        worst_car = max(worst_car, car_err)
        worst_ccar = max(worst_ccar, ccar_err)
        assert car_err <= band, (alpha, car, car_ref)
        assert ccar_err <= band, (alpha, ccar, ccar_ref)
        assert elapsed < 30.0, f"alpha={alpha} took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1 (preset CaR/CCaR rows, SIS @1e5): PASS: worst CaR err "
        f"{100*worst_car:.2f}%, worst CCaR err {100*worst_ccar:.2f}%"
    )


def test_criterion_1_report_rows(portfolio):
    # the rows simulate writes: one CaR chain, then each row's CCaR
    rows = build_report(portfolio, queries([a for a, _, _ in CAR_ROWS], "sis", BUDGET, SEED))
    for row, (alpha, car_ref, ccar_ref) in zip(rows, CAR_ROWS):
        band = 0.03 if alpha <= 0.002 else 0.015
        assert row.alpha == alpha
        assert abs(row.car / car_ref - 1.0) <= band, (alpha, row.car, car_ref)
        assert abs(row.ccar / ccar_ref - 1.0) <= band, (alpha, row.ccar, ccar_ref)
    print("\nACCEPTANCE 1 (build_report rows, SIS @1e5): PASS")


def test_criterion_2_variance_reduction_ordering(portfolio):
    vr_rows = {}
    for alpha, car_ref, _ in CAR_ROWS:
        params = calibrate_is(portfolio, car_ref)
        scheme = default_scheme(portfolio, BUDGET)
        _, ce_nv = naive_estimate(portfolio, car_ref, BUDGET, Rng(SEED + 1))
        _, ce_is = is_estimate(portfolio, car_ref, params, BUDGET, Rng(SEED + 1))
        _, ce_sis = sis_estimate(portfolio, car_ref, params, scheme, BUDGET, Rng(SEED + 1))
        vr_is = variance_reduction_factor(ce_nv, ce_is)
        vr_sis = variance_reduction_factor(ce_nv, ce_sis)
        vr_rows[alpha] = (vr_is, vr_sis)
        assert vr_sis > vr_is, (alpha, vr_is, vr_sis)
    vr_is_01, vr_sis_01 = vr_rows[0.01]
    assert vr_is_01 >= 5.0
    assert vr_sis_01 >= 50.0
    summary = ", ".join(
        f"a={a}: IS {v[0]:.0f}/SIS {v[1]:.0f}" for a, v in sorted(vr_rows.items(), reverse=True)
    )
    print(f"\nACCEPTANCE 2 (VR ordering): PASS: {summary}")


def test_criterion_3_figure2_regime(portfolio):
    grid = np.arange(100.0, 701.0, 20.0)
    naive_pts = exceedance_curve(portfolio, grid, "naive", 5000, 42)
    sis_pts = exceedance_curve(portfolio, grid, "sis", 5000, 42)

    def degenerate(p):
        return p.hits == 0 or p.halfwidth95 >= 0.7 * p.ep

    naive_bad = [p.tau for p in naive_pts if p.tau > 540.0 and degenerate(p)]
    assert naive_bad, "naive curve stayed tight beyond 540"
    assert not any(degenerate(p) for p in naive_pts if p.tau < 460.0)
    for p in sis_pts:
        assert p.ep > 0.0
        assert p.halfwidth95 < p.ep  # CI stays clear of zero out to 700
    tighter = all(s.halfwidth95 < n.halfwidth95 for s, n in zip(sis_pts, naive_pts))
    assert tighter
    print(
        f"\nACCEPTANCE 3 (Figure 2 @5000): PASS: naive degenerate at "
        f"{len(naive_bad)} points starting tau={naive_bad[0]:.0f}; SIS EP(700)="
        f"{sis_pts[-1].ep:.2e}±{sis_pts[-1].halfwidth95:.1e}, tighter everywhere"
    )


def test_criterion_4_identity_tilt_equivalence(portfolio):
    identity = IsParams.identity(portfolio.dimension)
    weight = proportional_sis_sample(portfolio, identity, ONE_CELL, 8192, Rng(77)).weight
    assert np.all(weight == 1.0)
    ep_nv, ce_nv = naive_estimate(portfolio, 352.03, 40_000, Rng(78))
    ep_is, ce_is = is_estimate(portfolio, 352.03, identity, 40_000, Rng(78))
    assert (ep_is.estimate, ep_is.variance, ep_is.halfwidth95) == (
        ep_nv.estimate, ep_nv.variance, ep_nv.halfwidth95,
    )
    assert (ce_is.estimate, ce_is.variance) == (ce_nv.estimate, ce_nv.variance)
    print("\nACCEPTANCE 4 (identity tilt): PASS: W == 1 exactly, estimates bitwise equal")


def test_criterion_5_single_city_analytic_oracle(single_city):
    taus = np.array([105.0, 200.0, 300.0, 500.0, 800.0])
    marginal = single_city.marginals[0]
    exact = 1.0 - gh_cdf(marginal, np.log(taus / 100.0))
    assert exact[0] >= 0.5 and exact[-1] <= 2e-3 and exact[-1] >= 1e-3  # span check
    n = 30_000
    for tau, target in zip(taus, exact):
        ep_nv, _ = naive_estimate(single_city, tau, n, Rng(95))
        assert abs(ep_nv.estimate - target) <= 3.0 * ep_nv.halfwidth95 / 1.96

        params = calibrate_is(single_city, tau)
        ep_is, _ = is_estimate(single_city, tau, params, n, Rng(96))
        assert abs(ep_is.estimate - target) <= 3.0 * ep_is.halfwidth95 / 1.96

        scheme = default_scheme(single_city, n)
        ep_sis, _ = sis_estimate(single_city, tau, params, scheme, n, Rng(97))
        assert abs(ep_sis.estimate - target) <= 3.0 * ep_sis.halfwidth95 / 1.96
    print(
        f"\nACCEPTANCE 5 (analytic oracle): PASS: EP span "
        f"[{exact[-1]:.2e}, {exact[0]:.3f}] matched by all three estimators"
    )


def test_criterion_6_numerics_suite():
    for city, params in GH_ROWS.items():
        us = np.concatenate([[1e-6], np.linspace(0.005, 0.995, 41), [1.0 - 1e-6]])
        back = gh_cdf(params, gh_quantile(params, us))
        assert np.max(np.abs(back - us)) <= 1e-8, city

        oracle = genhyperbolic(
            p=params.lam, a=params.alpha * params.delta, b=params.beta * params.delta,
            loc=params.mu, scale=params.delta,
        )
        total = (
            integrate.quad(oracle.pdf, params.mu - 60.0, params.mu, limit=300)[0]
            + integrate.quad(oracle.pdf, params.mu, params.mu + 60.0, limit=300)[0]
        )
        assert abs(total - 1.0) <= 1e-8, city

    # the scaled K = e^x K that the GH density evaluates; e^x is common to all
    # three terms, so the recurrence holds for it as written
    def scaled_k(order, x):
        return np.exp(_log_kve(order, x))

    for order in (-2.0, 0.3, 1.7, 4.0):
        for x in (0.2, 2.0, 30.0):
            lhs = scaled_k(order + 1.0, x)
            rhs = scaled_k(order - 1.0, x) + (2.0 * order / x) * scaled_k(order, x)
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)

    lower = cholesky_factor(SIGMA)
    assert np.max(np.abs(lower @ lower.T - SIGMA)) <= 1e-12
    print("\nACCEPTANCE 6 (numerics suite): PASS: round trips, normalization, recurrence, Cholesky")


def test_criterion_7_calibration_round_trip(portfolio):
    start = time.perf_counter()
    values = marginal_transform(portfolio, model_draw(portfolio, Rng(314), 10_000))
    panel = LogRatioPanel(
        cities=portfolio.names,
        days=np.arange(values.shape[0]),
        values=values,
        mask=np.ones_like(values, dtype=bool),
    )
    refit_marginals = tuple(
        fit_gh_marginal(panel.city_ratios(j), rng=Rng(315).split(j)).params
        for j in range(5)
    )
    copula_fit = fit_t_copula(panel, list(refit_marginals))
    refit = CityPortfolio(
        names=portfolio.names,
        weights=portfolio.weights,
        pm0=portfolio.pm0,
        scale=portfolio.scale,
        marginals=refit_marginals,
        copula=copula_fit.spec,
    )
    query = RiskQuery(0.05, "sis", BUDGET, Rng(316))
    car_preset = solve_car(portfolio, query)[0]
    car_refit = solve_car(refit, query)[0]
    elapsed = time.perf_counter() - start
    rel = abs(car_refit / car_preset - 1.0)
    assert rel <= 0.05, (car_preset, car_refit)
    assert elapsed < 300.0, f"round trip took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 7 (calibration round trip): PASS: CaR_0.05 preset "
        f"{car_preset:.2f} vs refit {car_refit:.2f} ({100*rel:.2f}%), "
        f"nu_hat={copula_fit.spec.nu:.2f}, {elapsed:.0f}s"
    )


def test_criterion_8_cli_determinism(tmp_path):
    args = [
        sys.executable, "-m", "pmrisk.cli", "simulate", "--preset", "paper",
        "--estimator", "sis", "--alpha", "0.05", "--budget", "8000", "--seed", "5",
    ]
    outputs = []
    for name, threads in (("one.csv", "1"), ("many.csv", "4")):
        out = tmp_path / name
        env = {
            "PATH": "/usr/bin:/bin",
            "OMP_NUM_THREADS": threads,
            "OPENBLAS_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
            # The child imports the same pmrisk as this session: src/ or site-packages.
            "PYTHONPATH": str(Path(pmrisk.__file__).resolve().parent.parent),
        }
        proc = subprocess.run(
            args + ["--out", str(out)], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    print("\nACCEPTANCE 8 (determinism): PASS: byte-identical across thread counts")
