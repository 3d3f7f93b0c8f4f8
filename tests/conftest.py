import contextlib
import os

# One BLAS/OpenMP thread, as CI runs the suite: unpinned, OpenBLAS wakes its
# thread pool on every L-BFGS-B iteration of the GH fits.  This must run before
# numpy loads; criterion 8 sets its own thread counts in its child processes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from pmrisk import (CityPortfolio, CopulaSpec, GhParams, IsParams, ghdist, paper_portfolio,
                    stratified_sample)
from pmrisk import estimators
from pmrisk.estimators import ONE_CELL, SisSample, _TailBins

# Five-city GH fits (lam, alpha, delta, beta, mu)
GH_ROWS = {
    "Bj": GhParams(lam=0.1894, alpha=2.4296, delta=0.7561, beta=-1.0516, mu=0.5075),
    "Tj": GhParams(lam=1.8041, alpha=3.3702, delta=0.0066, beta=-0.8673, mu=0.2959),
    "Cd": GhParams(lam=1.1848, alpha=6.4420, delta=0.5492, beta=-4.0233, mu=0.7318),
    "Hs": GhParams(lam=1.7675, alpha=4.8022, delta=0.4498, beta=-1.7954, mu=0.4339),
    "Xt": GhParams(lam=2.0100, alpha=3.9889, delta=0.0500, beta=-1.0875, mu=0.3041),
}

# Laws whose moments' Bessel-K ratios cannot be formed
MOMENTS_OVERFLOW = [
    GhParams(lam=1.0, alpha=1e5, delta=1e5, beta=0.0, mu=0.0),  # kve is NaN at 1e10
    GhParams(lam=40.0, alpha=2.0, delta=1e-8, beta=0.5, mu=0.0),  # kve overflows
]

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

CAR_ROWS = [
    # (alpha, CaR, CCaR) reference rows for the preset portfolio
    (0.05, 239.32, 315.34),
    (0.01, 352.03, 461.16),
    (0.005, 414.22, 543.20),
    (0.002, 515.27, 677.76),
    (0.001, 600.78, 791.60),
]


def model_draw(portfolio, rng, n):
    """n draws of the model law: the sampling engine at the identity tilt on one cell."""
    return stratified_sample(portfolio, ONE_CELL, np.ones(n, dtype=int),
                             IsParams.identity(portfolio.dimension), rng)


@contextlib.contextmanager
def kernel_node_sets():
    """Within the block, each Bessel-kernel call of ghdist appends to the
    yielded list one entry per node set: its rows x nodes."""
    calls, groups = [], ghdist._kernel_groups

    def counted(z, *args):
        found = groups(z, *args)
        calls.append([np.arange(z.size)[rows].size * (int(np.ceil(end / step)) + 1)
                      for rows, step, end in found])
        return found

    ghdist._kernel_groups = counted
    try:
        yield calls
    finally:
        ghdist._kernel_groups = groups


@contextlib.contextmanager
def sis_pools():
    """Within the block, each ``SisSample`` built appends its row count to the
    yielded list."""
    rows, init = [], SisSample.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rows.append(self.conc.size)

    SisSample.__init__ = counted
    try:
        yield rows
    finally:
        SisSample.__init__ = init


@contextlib.contextmanager
def stage_rows():
    """Within the block, each chunk drawn through the chunk loop
    (``estimators._stage``) appends its row count to the yielded list."""
    rows, stage = [], estimators._stage

    def counted(*args):
        for chunk in stage(*args):
            rows.append(chunk[0].size)
            yield chunk

    estimators._stage = counted
    try:
        yield rows
    finally:
        estimators._stage = stage


@contextlib.contextmanager
def tail_bin_routes():
    """Within the block, each batch of rows that ``_TailBins`` bins appends its
    route to the yielded list: "one threshold", "arithmetic" or "searchsorted"."""
    routes, bins, searched = [], _TailBins.bins, _TailBins.searched_bins

    def counted_bins(self, conc):
        routes.append("one threshold" if self.grid.size == 1 else "arithmetic")
        return bins(self, conc)

    def counted_searched(self, conc):
        routes[-1] = "searchsorted"
        return searched(self, conc)

    _TailBins.bins, _TailBins.searched_bins = counted_bins, counted_searched
    try:
        yield routes
    finally:
        _TailBins.bins, _TailBins.searched_bins = bins, searched


@pytest.fixture(scope="session")
def portfolio():
    return paper_portfolio()


@pytest.fixture(scope="session")
def single_city():
    """One-city portfolio whose EP has the closed form 1 - G(log(tau/100))."""
    return CityPortfolio(
        names=("Bj",),
        weights=np.array([1.0]),
        pm0=np.array([100.0]),
        scale=np.array([1.0]),
        marginals=(GH_ROWS["Bj"],),
        copula=CopulaSpec(family="t", sigma=np.eye(1), nu=NU),
    )


@pytest.fixture(scope="session")
def normal_portfolio():
    """The preset's cities, weights and correlation under a normal copula."""
    names = ("Bj", "Tj", "Cd", "Hs", "Xt")
    return CityPortfolio(
        names=names,
        weights=np.array([0.4132, 0.2726, 0.0732, 0.0914, 0.1496]),
        pm0=np.full(5, 100.0),
        scale=np.ones(5),
        marginals=tuple(GH_ROWS[c] for c in names),
        copula=CopulaSpec(family="normal", sigma=SIGMA.copy()),
    )
