import hashlib
import warnings

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import genhyperbolic

from pmrisk import DomainError, GhParams, gh_cdf, gh_moments, gh_pdf, gh_quantile, ghdist

from conftest import GH_ROWS, MOMENTS_OVERFLOW, kernel_node_sets

# Frozen from quad integration of an independent density implementation
# (scipy.stats.genhyperbolic under the parameter map p=lam, a=alpha*delta,
# b=beta*delta, loc=mu, scale=delta), inverted by bisection where needed.
BJ_CDF_AT_1 = 0.9364146411153027
BJ_QUANTILE_99 = 1.5357785768839118
BJ_MEAN = 0.0027822728318448
BJ_VAR = 0.6201976513339142

SYMMETRIC = GhParams(lam=0.5, alpha=2.0, delta=0.8, beta=0.0, mu=0.3)

# delta like the fits that end on the variance-gamma ridge: the table's panels
# span about six decades of width
VG_RIDGE = GhParams(lam=1.3, alpha=2.5, delta=3e-6, beta=-0.9, mu=0.25)

# a fit on the variance-gamma ridge, as some bench-panel fits end (delta
# <= 4e-6): every table batch has about 100 rows near mu that need more than
# _KERNEL_NODES Bessel-kernel nodes each
RIDGE_FIT = GhParams(lam=1.78, alpha=3.9, delta=3.5e-6, beta=-1.29, mu=0.3)

# Edge count and sha256 of the two log-CDF sides' coefficients of each preset
# city's table, built with the 6-point rule on initial edges that keep every
# grid point a rung away from every ladder point (numpy 2.4, scipy 1.17, x86-64).
TABLE_FINGERPRINTS = {
    "Bj": (589, "2ae761ea30e7ea970cf5303c582dcb4f1f55a83b6559d83d75fdd4ebbaa20f69"),
    "Cd": (584, "8d91da8b2159c1e55825989844dee649b5eb526ac7230504b4ce18f9e69049ab"),
    "Hs": (545, "ace38c6b4cd117139cd7002f4a21ba2676f2504da4c8284dea1fe17023d8acd6"),
    "Tj": (639, "7839957a41ffc4840549ed3d19cfac037ae8aa39d647824cd4cbcaf2d17fe448"),
    "Xt": (602, "b17042d71febb032f38174a2009acf8fe78bd877472852bd2eca583eba315cdb"),
}

# Laws whose `linspace` grid has points a few ulps from a ladder rung
# mu +- delta * 2**k: the Tj fit of bench/panel.py's panel at seed 305 (fit
# seed 101; a grid point 6.7e-15 from mu - delta/4) and a strongly skewed law
# (grid points next to mu - 1).
RUNG_NEIGHBOURS = {
    "fit_tj": GhParams(lam=-1.986734963991677, alpha=1.5153215501286896,
                       delta=1.075010770937169, beta=-0.8069117782112646,
                       mu=0.311627560903487),
    "skewed": GhParams(lam=-20.0, alpha=3.0, delta=2.0, beta=-1.0, mu=0.1),
}


def _kve_logpdf(p, x):
    """The GH log-density written out with scipy's kve for both Bessel terms."""
    q = np.hypot(p.delta, x - p.mu)
    zeta = p.delta * p.gamma
    log_norm = (p.lam * np.log(p.gamma) - 0.5 * np.log(2.0 * np.pi)
                - (p.lam - 0.5) * np.log(p.alpha) - p.lam * np.log(p.delta)
                - np.log(special.kve(p.lam, zeta)) + zeta)
    return (log_norm + (p.lam - 0.5) * np.log(q) + np.log(special.kve(p.lam - 0.5, p.alpha * q))
            - p.alpha * q + p.beta * (x - p.mu))


def _oracle_frozen(params):
    return genhyperbolic(
        p=params.lam,
        a=params.alpha * params.delta,
        b=params.beta * params.delta,
        loc=params.mu,
        scale=params.delta,
    )


def _knot_cdf(table):
    """The CDF at a table's edges, read off its lower side."""
    return np.exp(table.lower.coef[0, 0, 1:])


class TestValidation:
    def test_rejects_alpha_not_dominating_beta(self):
        with pytest.raises(DomainError):
            GhParams(lam=0.0, alpha=1.0, delta=0.5, beta=1.0, mu=0.0)
        with pytest.raises(DomainError):
            GhParams(lam=0.0, alpha=1.0, delta=0.5, beta=-1.5, mu=0.0)

    def test_rejects_boundary_delta(self):
        with pytest.raises(DomainError):
            GhParams(lam=0.0, alpha=1.0, delta=0.0, beta=0.0, mu=0.0)


class TestPdf:
    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_integrates_to_one(self, city):
        params = GH_ROWS[city]
        pdf = _oracle_frozen(params).pdf
        lo, hi = params.mu - 60.0, params.mu + 60.0
        total = (
            integrate.quad(lambda x: gh_pdf(params, x), lo, params.mu, limit=300)[0]
            + integrate.quad(lambda x: gh_pdf(params, x), params.mu, hi, limit=300)[0]
        )
        assert abs(total - 1.0) <= 1e-8
        # cross-check one bulk point against the independent implementation
        assert abs(gh_pdf(params, params.mu + 0.4) - pdf(params.mu + 0.4)) <= 1e-10

    def test_symmetric_when_beta_zero(self):
        for dx in (0.1, 1.0, 3.0):
            left = gh_pdf(SYMMETRIC, SYMMETRIC.mu - dx)
            right = gh_pdf(SYMMETRIC, SYMMETRIC.mu + dx)
            assert abs(left - right) <= 1e-13 * max(left, 1e-30)

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    @pytest.mark.parametrize("x", [-10.0, 0.0, 10.0])
    def test_strictly_positive(self, city, x):
        assert gh_pdf(GH_ROWS[city], x) > 0.0

    def test_empty_input_gives_empty_output(self):
        params = GH_ROWS["Bj"]
        assert ghdist.gh_logpdf(params, np.array([])).shape == (0,)
        assert gh_pdf(params, np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("law", [*GH_ROWS.values(), RIDGE_FIT],
                             ids=[*GH_ROWS, "ridge_fit"])
    def test_matches_kve_at_every_table_edge(self, law):
        edges = ghdist._tables(law).lower.knots
        assert np.max(np.abs(ghdist.gh_logpdf(law, edges) - _kve_logpdf(law, edges))) <= 1e-12

    def test_far_tail_follows_closed_form(self):
        # lam = 1 gives Bessel order 1/2 in the density, where K has a closed
        # form; alpha*q ~ 3e9 is past where scipy's kve returns NaN
        p = GhParams(lam=1.0, alpha=1.5, delta=1.0, beta=0.3, mu=0.2)
        x = np.array([2e9, -2e9])
        q = np.hypot(p.delta, x - p.mu)
        exact = (
            np.log(p.gamma / (2.0 * p.alpha * p.delta * special.k1(p.delta * p.gamma)))
            - p.alpha * q
            + p.beta * (x - p.mu)
        )
        got = ghdist.gh_logpdf(p, x)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - exact) <= 1e-12 * np.abs(exact))

    def test_far_norm_constant_follows_closed_form(self):
        # lam = 1/2: the normalising constant's K_{1/2}(delta*gamma) at 3e9
        p = GhParams(lam=0.5, alpha=3e9, delta=1.0, beta=0.0, mu=0.0)
        zeta = p.delta * p.gamma
        log_k = 0.5 * np.log(np.pi / (2.0 * zeta)) - zeta
        exact = 0.5 * np.log(p.gamma) - 0.5 * np.log(2.0 * np.pi) - log_k
        assert abs(ghdist._log_norm_const(p) - exact) <= 1e-12 * abs(exact)


class TestCdf:
    def test_limits(self):
        params = GH_ROWS["Bj"]
        assert gh_cdf(params, -40.0) <= 1e-9
        assert gh_cdf(params, 40.0) >= 1.0 - 1e-9

    def test_symmetric_median(self):
        assert abs(gh_cdf(SYMMETRIC, SYMMETRIC.mu) - 0.5) <= 1e-9

    def test_beijing_against_quadrature_oracle(self):
        assert abs(gh_cdf(GH_ROWS["Bj"], 1.0) - BJ_CDF_AT_1) <= 1e-8

    def test_nondecreasing(self):
        params = GH_ROWS["Tj"]
        xs = np.linspace(-6.0, 6.0, 2001)
        assert np.all(np.diff(gh_cdf(params, xs)) >= 0.0)

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_knots_against_adaptive_quadrature(self, city):
        # At a table knot gh_cdf returns the summed panel quadrature itself;
        # between knots the cubic adds up to _INTERP_TOL.  The oracle is scipy's
        # adaptive quad of the density, split at the peak mu.
        law = GH_ROWS[city]
        knots = ghdist._tables(law).lower.knots
        pdf = lambda x: gh_pdf(law, x)
        tol = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
        below_mu = integrate.quad(pdf, -np.inf, law.mu, **tol)[0]
        for dx in (-2.0, -0.5, -0.05, -0.005, 0.005, 0.05, 0.5, 2.0):
            x = knots[np.argmin(np.abs(knots - (law.mu + dx)))]
            if x < law.mu:
                exact = integrate.quad(pdf, -np.inf, x, **tol)[0]
            else:
                exact = below_mu + integrate.quad(pdf, law.mu, x, **tol)[0]
            assert abs(gh_cdf(law, x) - exact) <= 1e-12


class TestAgainstQuadrature:
    """The tables against scipy's adaptive quad of the density."""

    TOL = dict(epsabs=1e-16, epsrel=1e-12, limit=200)

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_relative_error_in_both_tails(self, city):
        # Below the median gh_cdf carries F itself; above it, F rounds to ulps of
        # 1, so the upper tail is read through the quantile: the survival S at
        # gh_quantile(1 - q) is 1 - (1 - q), exact in floating point.
        law = GH_ROWS[city]
        pdf = lambda x: gh_pdf(law, x)
        for q in (1e-15, 1e-12, 1e-9):
            x = gh_quantile(law, q)
            exact = integrate.quad(pdf, -np.inf, x, **self.TOL)[0]
            assert abs(gh_cdf(law, x) / exact - 1.0) <= 1e-5
            u = 1.0 - q
            exact = integrate.quad(pdf, gh_quantile(law, u), np.inf, **self.TOL)[0]
            assert abs(exact / (1.0 - u) - 1.0) <= 1e-5

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_absolute_error_in_the_body(self, city):
        law = GH_ROWS[city]
        pdf = lambda x: gh_pdf(law, x)
        xs = gh_quantile(law, np.concatenate([[1e-6, 1e-4], np.linspace(0.01, 0.99, 15),
                                              [1.0 - 1e-4, 1.0 - 1e-6]]))
        # F summed over the gaps between sorted points, from the lower tail up
        edges = np.concatenate([[-np.inf], xs])
        exact = np.cumsum([integrate.quad(pdf, a, b, **self.TOL)[0]
                           for a, b in zip(edges[:-1], edges[1:])])
        assert np.max(np.abs(gh_cdf(law, xs) - exact)) <= 2e-11


class TestTailEdges:
    """Beyond the tables' knots: clamped, finite and monotone."""

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_quantile_clamps_to_the_support(self, city):
        law = GH_ROWS[city]
        knots = ghdist._tables(law).lower.knots
        us = np.array([1e-300, 1e-200, 1e-17, 1e-15, 0.5, 1.0 - 1e-15, 1.0 - 1e-16])
        xs = gh_quantile(law, us)
        assert np.all(np.isfinite(xs)) and np.all(np.diff(xs) >= 0.0)
        assert xs[0] == xs[1] == knots[0] and xs[-1] <= knots[-1]

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_cdf_is_finite_and_monotone_out_to_the_bounds(self, city):
        law = GH_ROWS[city]
        tables = ghdist._tables(law)
        lo, hi = tables.lower.knots[[0, -1]]
        med = tables.median
        xs = np.sort(np.concatenate([
            [-1e3, lo - 1.0, lo, np.nextafter(lo, np.inf), hi, hi + 1.0, 1e3],
            [np.nextafter(med, -np.inf), med, np.nextafter(med, np.inf)],
            np.linspace(lo, hi, 4001)]))
        f = gh_cdf(law, xs)
        assert np.all(np.isfinite(f)) and np.all(np.diff(f) >= 0.0)
        assert 0.0 < f[0] < 1e-16 and f[-1] == 1.0

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_sides_meet_at_the_median_knot(self, city):
        # the lower side serves u up to the knot's CDF and the upper side the
        # rest; at a knot both hold the quadrature sums, so the quantile steps
        # across the switch by rounding only (between knots the two sides'
        # log-cubics differ by up to 2e-11 in F)
        law = GH_ROWS[city]
        tables = ghdist._tables(law)
        m = tables.median_cdf
        us = np.array([np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
                       np.nextafter(m, 0.0), m, np.nextafter(m, 1.0), m + 1e-12])
        xs = gh_quantile(law, us)
        assert np.all(np.diff(xs) >= -1e-14)
        assert np.max(np.abs(xs[3:6] - tables.median)) <= 1e-14

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_quantile_inverts_cdf_on_the_support(self, city):
        # Above 1 - 1e-6 the CDF keeps only ulps of 1 of the survival, so x is
        # not recoverable from it to 1e-8 there.
        law = GH_ROWS[city]
        lo, hi = ghdist._tables(law).lower.knots[[0, -1]]
        xs = np.linspace(lo, hi, 2001)
        f = gh_cdf(law, xs)
        keep = (f > 0.0) & (f <= 1.0 - 1e-6)
        assert keep.sum() > 500
        assert np.max(np.abs(gh_quantile(law, f[keep]) - xs[keep])) <= 1e-8


class TestTableBuild:
    @pytest.mark.parametrize("law", list(GH_ROWS.values()) + list(RUNG_NEIGHBOURS.values()),
                             ids=list(GH_ROWS) + list(RUNG_NEIGHBOURS))
    def test_refinement_evaluates_each_abscissa_once(self, law, monkeypatch):
        calls = []
        real = ghdist.gh_logpdf

        def recording(p, x):
            if np.ndim(x):  # the scalar probes of _support_bounds are not panel work
                calls.append(np.array(x, dtype=float).ravel())
            return real(p, x)

        monkeypatch.setattr(ghdist, "gh_logpdf", recording)
        ghdist._GhTables(law)
        # the initial pass (edges, then the whole/left/right panel nodes) and
        # every refinement round
        assert len(calls) > 4
        seen = np.concatenate(calls)
        assert np.unique(seen).size == seen.size

    def test_density_evaluations_per_knot(self, monkeypatch):
        # a split adds one edge and two children's halves: 4 * 6 + 1 points
        points = []
        real = ghdist.gh_logpdf

        def counting(p, x):
            points.append(np.size(x))
            return real(p, x)

        monkeypatch.setattr(ghdist, "gh_logpdf", counting)
        knots = sum(ghdist._GhTables(law).lower.knots.size for law in GH_ROWS.values())
        assert sum(points) <= 30 * knots

    @pytest.mark.parametrize("law", [GH_ROWS[city] for city in sorted(GH_ROWS)] + [VG_RIDGE],
                             ids=sorted(GH_ROWS) + ["vg_ridge"])
    def test_sixteen_point_rule_gives_the_same_knots(self, law, monkeypatch):
        # the interpolation check, not the quadrature, sets the panels
        shipped = ghdist._GhTables(law)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        monkeypatch.setattr(ghdist, "_GL_NODES", nodes)
        monkeypatch.setattr(ghdist, "_GL_WEIGHTS", weights)
        reference = ghdist._GhTables(law)
        assert shipped.lower.knots.tobytes() == reference.lower.knots.tobytes()
        assert np.max(np.abs(_knot_cdf(shipped) - _knot_cdf(reference))) <= 4e-15

    def test_ridge_rows_share_node_sets(self):
        # one node set per row near mu made 100 sets in one 1,470-row batch
        with kernel_node_sets() as calls:
            ghdist._GhTables(RIDGE_FIT)
        assert max(map(len, calls)) <= 5

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_table_matches_fingerprint(self, city):
        table = ghdist._GhTables(GH_ROWS[city])
        digest = hashlib.sha256(table.lower.coef.tobytes() + table.upper.coef.tobytes())
        assert (table.lower.knots.size, digest.hexdigest()) == TABLE_FINGERPRINTS[city]


class TestQuantile:
    def test_round_trip_point(self):
        params = GH_ROWS["Bj"]
        assert abs(gh_quantile(params, gh_cdf(params, 0.3)) - 0.3) <= 1e-7

    def test_symmetric_median(self):
        assert abs(gh_quantile(SYMMETRIC, 0.5) - SYMMETRIC.mu) <= 1e-8

    def test_beijing_bisection_oracle(self):
        assert abs(gh_quantile(GH_ROWS["Bj"], 0.99) - BJ_QUANTILE_99) <= 1e-7

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_round_trip_grid(self, city):
        params = GH_ROWS[city]
        us = np.concatenate(
            [[1e-6, 1e-4], np.linspace(0.01, 0.99, 25), [1.0 - 1e-4, 1.0 - 1e-6]]
        )
        back = gh_cdf(params, gh_quantile(params, us))
        assert np.max(np.abs(back - us)) <= 1e-8

    def test_strictly_increasing(self):
        params = GH_ROWS["Xt"]
        us = np.linspace(1e-5, 1.0 - 1e-5, 301)
        qs = gh_quantile(params, us)
        assert np.all(np.diff(qs) > 0.0)

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_tail_value_does_not_depend_on_batch(self, city):
        params = GH_ROWS[city]
        tails = [1e-15, 1.0 - 1e-15]
        alone = [gh_quantile(params, np.array([u]))[0] for u in tails]
        mixed = gh_quantile(params, np.array([0.3, tails[0], 0.5, 0.9, tails[1]]))
        assert alone == [mixed[1], mixed[4]]

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_upper_tail_matches_mirrored_law(self, city):
        # X and -X ~ GH(lam, alpha, delta, -beta, -mu): the quantile at 1 - e is
        # minus the mirror's at e, which the CDF alone (ulps of 1) cannot give
        params = GH_ROWS[city]
        mirror = GhParams(lam=params.lam, alpha=params.alpha, delta=params.delta,
                          beta=-params.beta, mu=-params.mu)
        for e in (1e-15, 1e-12, 1e-9):
            upper = gh_quantile(params, 1.0 - e)
            assert abs(upper + gh_quantile(mirror, 1.0 - (1.0 - e))) <= 1e-8

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_out_of_range(self, u):
        with pytest.raises(DomainError):
            gh_quantile(GH_ROWS["Bj"], u)


def _solve_grid(law):
    """Both tail probes, every knot's CDF value inside (0, 1), and both sides of 1/2."""
    knots = _knot_cdf(ghdist._tables(law))
    return np.concatenate([[1e-15, 1e-12], knots[(knots > 0.0) & (knots < 1.0)],
                           [0.5, np.nextafter(0.5, 1.0), 1.0 - 1e-12, 1.0 - 1e-15]])


def _per_side_solve(laws, u):
    """The reference solve: each law-side's entries found by a ``searchsorted``
    of their own, in a loop over the sides, as ``TableQuantiles`` found them
    before its one search over all sides; then the same secant start and
    Newton iteration, on (n, D) arrays."""
    stacked = ghdist.TableQuantiles(laws)
    tables = [ghdist._tables(law) for law in laws]
    upper = u[:, None] > np.array([t.median_cdf for t in tables])
    log_q = (np.log(u), np.log(1.0 - u))
    row = np.empty(upper.shape, dtype=np.intp)
    target = np.empty(upper.shape)
    base = 0
    for j, side in enumerate(side for t in tables for side in (t.lower, t.upper)):
        values = side.coef[0, 0, 1:]
        law, which = divmod(j, 2)
        at = np.flatnonzero(upper[:, law] == which)
        qs = np.maximum(log_q[which][at], values[0])
        target[at, law] = qs
        row[at, law] = base + np.searchsorted(values, qs, side="right")
        base += values.size + 1
    c = stacked._coef[:, row]
    c0, c1, c2, c3 = c
    c0 -= target
    width = stacked._width[row]
    d = width * c0 / (c0 + target - stacked._next[row])
    width = width.ravel()
    ghdist._newton(c.reshape(4, -1), d.reshape(-1), np.zeros_like(width), width.copy(),
                   ghdist._SOLVE_TOL * width, ghdist._SOLVE_STEPS)
    x = stacked._anchors[row] + d
    slope = (3.0 * c3 * d + 2.0 * c2) * d + c1
    return np.where(upper, -x, x), np.exp(target) * slope


class TestBatchedSolve:
    LAWS = tuple(GH_ROWS[city] for city in sorted(GH_ROWS)) + (VG_RIDGE,)

    def test_one_search_equals_per_side_searches(self):
        rng = np.random.default_rng(12)
        u = np.concatenate([np.unique(np.concatenate([_solve_grid(law) for law in self.LAWS])),
                            rng.uniform(size=20_000), 10.0 ** -rng.uniform(0.0, 300.0, 2000),
                            1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 2000)])
        u = u[(u > 0.0) & (u < 1.0)]
        laws = self.LAWS + tuple(RUNG_NEIGHBOURS.values())
        x, dens = ghdist.TableQuantiles(laws)(u)
        ref_x, ref_dens = _per_side_solve(laws, u)
        assert x.tobytes() == ref_x.tobytes() and dens.tobytes() == ref_dens.tobytes()

    def test_batch_equals_one_law_and_one_value_calls(self):
        grids = [_solve_grid(law) for law in self.LAWS]
        u = np.unique(np.concatenate(grids))
        x, dens = ghdist.TableQuantiles(self.LAWS)(u)
        for d, (law, grid) in enumerate(zip(self.LAWS, grids)):
            one_law = ghdist.TableQuantiles((law,))
            x1, dens1 = one_law(u)
            assert x1.tobytes() == x[:, d].tobytes() and dens1.tobytes() == dens[:, d].tobytes()
            own = np.searchsorted(u, grid)
            alone = [one_law(u[[i]]) for i in own]
            assert np.concatenate([a[0] for a in alone]).tobytes() == x[own, d].tobytes()
            assert np.concatenate([a[1] for a in alone]).tobytes() == dens[own, d].tobytes()


class TestHarshParameters:
    def test_heavy_skew_round_trip(self):
        harsh = GhParams(lam=-3.0, alpha=50.0, delta=3.0, beta=-49.0, mu=-2.0)
        us = np.concatenate([[1e-6], np.linspace(0.02, 0.98, 25), [1.0 - 1e-6]])
        back = gh_cdf(harsh, gh_quantile(harsh, us))
        assert np.max(np.abs(back - us)) <= 1e-8

    def test_tiny_scale_round_trip(self):
        spiky = GhParams(lam=2.5, alpha=4.0, delta=1e-4, beta=0.5, mu=10.0)
        us = np.linspace(0.001, 0.999, 51)
        back = gh_cdf(spiky, gh_quantile(spiky, us))
        assert np.max(np.abs(back - us)) <= 1e-8

    def test_variance_gamma_ridge_round_trip(self):
        ridge = VG_RIDGE
        us = np.concatenate([[1e-12, 1e-9, 1e-6], np.linspace(0.02, 0.98, 49),
                             [1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]])
        xs = gh_quantile(ridge, us)
        assert np.all(np.diff(xs) > 0.0)
        assert np.max(np.abs(gh_cdf(ridge, xs) - us)) <= 1e-8


class TestMoments:
    def test_symmetric_mean_is_mu(self):
        mean, _ = gh_moments(SYMMETRIC)
        assert abs(mean - SYMMETRIC.mu) <= 1e-12

    def test_beijing_against_quadrature(self):
        mean, var = gh_moments(GH_ROWS["Bj"])
        assert abs(mean - BJ_MEAN) <= 1e-8
        assert abs(var - BJ_VAR) <= 1e-6 * BJ_VAR

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_variance_positive(self, city):
        _, var = gh_moments(GH_ROWS[city])
        assert var > 0.0

    @pytest.mark.parametrize("law", MOMENTS_OVERFLOW)
    def test_rejects_law_whose_bessel_ratios_overflow(self, law):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(DomainError):
                gh_moments(law)

    @pytest.mark.parametrize("city", sorted(GH_ROWS))
    def test_negative_skew_lowers_mean(self, city):
        skewed = GH_ROWS[city]
        flat = GhParams(
            lam=skewed.lam, alpha=skewed.alpha, delta=skewed.delta, beta=0.0, mu=skewed.mu
        )
        assert gh_moments(skewed)[0] < gh_moments(flat)[0]
