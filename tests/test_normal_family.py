"""Normal-copula family coverage: the mixing-variable-free code paths."""

import numpy as np
import pytest

from pmrisk import (
    CityPortfolio,
    CopulaSpec,
    DomainError,
    IsParams,
    Rng,
    calibrate_is,
    gh_cdf,
    sis_estimate,
)
from pmrisk.estimators import (
    ONE_CELL,
    CommonDraws,
    StratificationScheme,
    _concentration_and_gradient,
    default_scheme,
)

from conftest import GH_ROWS


@pytest.fixture(scope="module")
def normal_single():
    return CityPortfolio(
        names=("Bj",),
        weights=np.array([1.0]),
        pm0=np.array([100.0]),
        scale=np.array([1.0]),
        marginals=(GH_ROWS["Bj"],),
        copula=CopulaSpec(family="normal", sigma=np.eye(1)),
    )


def test_identity_weight_is_one(normal_portfolio):
    pool = CommonDraws(normal_portfolio, ONE_CELL, 2048, Rng(1)).pool(IsParams.identity(5))
    assert np.all(pool.weight == 1.0)


def test_calibration_keeps_theta_at_two(normal_portfolio):
    params = calibrate_is(normal_portfolio, 300.0)
    assert params.theta == 2.0
    assert np.all(params.mean_shift > 0.0)


@pytest.mark.parametrize("tau", [150.0, 300.0, 500.0, 900.0])
def test_design_point_is_the_constrained_mode(normal_portfolio, tau):
    # the most likely z with C(z) = tau lies along the gradient of C there
    params = calibrate_is(normal_portfolio, tau)
    assert params.warning is None and params.theta == 2.0
    conc, grad = _concentration_and_gradient(normal_portfolio, params.mean_shift, 1.0)
    assert abs(conc - tau) <= 1e-12 * tau
    cos = grad @ params.mean_shift / (np.linalg.norm(grad) * np.linalg.norm(params.mean_shift))
    assert 1.0 - cos <= 1e-10
    # no mixing variable: y is not read
    same = _concentration_and_gradient(normal_portfolio, params.mean_shift, 7.0)
    assert same[0] == conc and np.array_equal(same[1], grad)


def test_single_city_analytic_tail(normal_single):
    # with F = Phi the EP closed form is the same marginal tail
    tau = 300.0
    exact = 1.0 - gh_cdf(normal_single.marginals[0], np.log(3.0))
    ep, _ = sis_estimate(normal_single, tau, IsParams.identity(1), ONE_CELL, 100_000, Rng(2))
    assert abs(ep.estimate - exact) <= 3.0 * ep.halfwidth95 / 1.96


def test_estimators_agree_and_reduce_variance(normal_portfolio):
    tau = 300.0
    params = calibrate_is(normal_portfolio, tau)
    scheme = default_scheme(normal_portfolio, 50_000)
    assert scheme.counts[1] == 1  # no mixing axis
    ep_nv, ce_nv = sis_estimate(normal_portfolio, tau, IsParams.identity(5), ONE_CELL,
                                50_000, Rng(3))
    ep_is, ce_is = sis_estimate(normal_portfolio, tau, params, ONE_CELL, 50_000, Rng(3))
    ep_sis, ce_sis = sis_estimate(normal_portfolio, tau, params, scheme, 50_000, Rng(3))
    for a, b in ((ep_nv, ep_is), (ep_nv, ep_sis)):
        joint = np.hypot(a.halfwidth95, b.halfwidth95) / 1.96
        assert abs(a.estimate - b.estimate) <= 3.0 * joint
    assert ce_is.halfwidth95 < ce_nv.halfwidth95
    assert ce_sis.halfwidth95 < ce_is.halfwidth95


def test_mixing_direction_rejected(normal_portfolio):
    from pmrisk import stratified_sample

    scheme = StratificationScheme((1, 4))
    with pytest.raises(DomainError):
        stratified_sample(normal_portfolio, scheme, np.array([1]), IsParams.identity(5), Rng(0))
