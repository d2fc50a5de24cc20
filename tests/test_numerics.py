"""Numerical kernel checks: Laplace inversion, quadrature, special functions.

Frozen reference values were produced by independent oracles (mpmath
arbitrary-precision series and quadrature); see the repository notes for the
generating script.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctrwpricer import AccuracyError, QuadSpec, TailBoundError
from ctrwpricer.errors import InvalidParametersError
from ctrwpricer.european import Contract, PayoffKind, european_price
from ctrwpricer.numerics import (
    DEFAULT_QUAD,
    LaplaceFn,
    _panel_value,
    _phased_panels,
    _slice_nodes,
    bessel_i1_scaled,
    expm1_complex,
    integrate_panels,
    integrate_real_line,
    integrate_semi_infinite,
    laplace_invert,
    laplace_invert_euler,
    laplace_invert_talbot,
    log_normal_cdf,
    normal_cdf,
    over_spots,
    poisson_difference_pmf,
)
from ctrwpricer.riskneutral import MarketParams


def i1_scaled_series(u: float) -> float:
    """Power-series oracle: e^{-u} sum_k (u/2)^{2k+1} / (k! (k+1)!)."""
    total, term = 0.0, u / 2.0
    for k in range(1, 80):
        total += term
        term *= (u / 2.0) ** 2 / (k * (k + 1))
        if term < 1e-20 * max(total, 1.0):
            break
    return math.exp(-u) * total


class TestLaplaceInversion:
    def test_textbook_exponential_pair(self):
        val = laplace_invert(LaplaceFn(lambda s: 1.0 / (s + 2.0), abscissa=-2.0), 1.0)
        assert abs(val - 0.13533528323661269) <= 1e-9 * 0.14

    def test_textbook_step_pair(self):
        assert abs(laplace_invert(lambda s: 1.0 / s, 7.3) - 1.0) <= 1e-8

    def test_textbook_sine_pair(self):
        val = laplace_invert(lambda s: 1.0 / (s * s + 1.0), math.pi / 2.0)
        assert abs(val - 1.0) <= 1e-8

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_three_pair_families_relative_error(self, t):
        pairs = [
            (LaplaceFn(lambda s: 1.0 / (s + 1.0), abscissa=-1.0), math.exp(-t)),
            (LaplaceFn(lambda s: 1.0 / (s + 1.0) ** 2, abscissa=-1.0), t * math.exp(-t)),
            (LaplaceFn(lambda s: 1.0 / (s * s + 1.0), abscissa=0.0), math.sin(t)),
        ]
        for fhat, exact in pairs:
            val = laplace_invert(fhat, t)
            assert abs(val - exact) <= 1e-8 * abs(exact)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_euler_agrees_with_talbot(self, t):
        for fhat in (lambda s: 1.0 / (s + 2.0), lambda s: 1.0 / (s * (s + 1.0))):
            tv = laplace_invert_talbot(fhat, t)
            ev = laplace_invert_euler(fhat, t)
            assert abs(tv - ev) <= 1e-7

    def test_abscissa_shift_handles_growing_transform(self):
        # f(t) = e^{t} has its singularity at s=1, right of the default contour
        f = LaplaceFn(lambda s: 1.0 / (s - 1.0), abscissa=1.0)
        val = laplace_invert(f, 2.0)
        assert abs(val - math.exp(2.0)) <= 1e-7 * math.exp(2.0)

    def test_invalid_time_rejected(self):
        with pytest.raises(InvalidParametersError):
            laplace_invert(lambda s: 1.0 / s, 0.0)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_euler_invalid_time_rejected(self, t):
        with pytest.raises(InvalidParametersError):
            laplace_invert_euler(lambda s: 1.0 / s, t)

    def test_deterministic(self):
        f = lambda s: 1.0 / (s + 0.3) ** 2
        assert laplace_invert(f, 3.0) == laplace_invert(f, 3.0)


class TestTalbotSingleCall:
    """laplace_invert evaluates its transform once, on the 72 nodes of the
    32- and 40-node contours, and reproduces the two separate passes."""

    PAIRS = [
        (LaplaceFn(lambda s: 1.0 / (s + 2.0), abscissa=-2.0), 1.0),
        (lambda s: 1.0 / s, 7.3),
        (lambda s: 1.0 / (s * s + 1.0), math.pi / 2.0),
        (LaplaceFn(lambda s: 1.0 / (s - 1.0), abscissa=1.0), 2.0),
    ]

    def test_one_call_on_72_nodes(self):
        sizes = []

        def counted(s):
            sizes.append(s.size)
            return 1.0 / (s + 0.5)

        laplace_invert(counted, 1.3)
        assert sizes == [72]

    @pytest.mark.parametrize("fhat, t", PAIRS)
    def test_bit_equal_to_the_working_pass(self, fhat, t):
        assert laplace_invert(fhat, t) == laplace_invert_talbot(fhat, t, 32)

    def test_error_carries_the_two_pass_values(self):
        step = lambda s: np.exp(-s) / s     # unit step at t = 1: no convergence there
        with pytest.raises(AccuracyError) as exc:
            laplace_invert(step, 1.0)
        best = laplace_invert_talbot(step, 1.0, 32)
        assert exc.value.best == best
        assert exc.value.bound == abs(best - laplace_invert_talbot(step, 1.0, 40))

    def test_handle_writing_into_nodes_raises_and_corrupts_nothing(self):
        f = lambda s: 1.0 / (s + 0.5)
        before = laplace_invert(f, 2.7)

        def scribbler(s):
            s *= 2.0
            return 1.0 / (s + 0.5)

        with pytest.raises(ValueError):
            laplace_invert(scribbler, 2.7)
        assert laplace_invert(f, 2.7) == before

    def test_non_finite_transform_raises(self):
        with pytest.raises(AccuracyError) as exc:
            laplace_invert(lambda s: np.full(s.shape, np.nan + 0j), 1.0)
        assert math.isnan(exc.value.best)
        assert exc.value.bound == math.inf

    def test_rows_equal_single_inversions(self):
        rows = [lambda s: 1.0 / (s + 1.0), lambda s: 1.0 / (s * s + 1.0), lambda s: 1.0 / s]
        batch = laplace_invert(lambda s: np.stack([f(s) for f in rows]), 2.5)
        assert batch.shape == (3,)
        assert list(batch) == [laplace_invert(f, 2.5) for f in rows]

    def test_failing_rows_raise_with_per_row_arrays(self):
        rows = [lambda s: 1.0 / (s + 1.0),
                lambda s: np.exp(-s) / s,
                lambda s: np.full(s.shape, np.nan + 0j)]
        with pytest.raises(AccuracyError) as exc:
            laplace_invert(lambda s: np.stack([f(s) for f in rows]), 1.0)
        best, bound = exc.value.best, exc.value.bound
        assert best.shape == bound.shape == (3,)
        assert best[0] == laplace_invert(rows[0], 1.0)
        assert best[1] == laplace_invert_talbot(rows[1], 1.0, 32)
        assert bound[1] == abs(best[1] - laplace_invert_talbot(rows[1], 1.0, 40))
        assert math.isnan(best[2]) and bound[2] == math.inf


class TestSpecialFunctions:
    def test_i1_scaled_at_zero(self):
        assert bessel_i1_scaled(0.0) == 0.0

    def test_i1_scaled_at_one(self):
        assert abs(bessel_i1_scaled(1.0) - 0.20791041534970845) <= 1e-12

    def test_i1_scaled_large_argument(self):
        assert abs(bessel_i1_scaled(700.0) - 0.015070519444716847) <= 1e-12
        asym = 1.0 / math.sqrt(2.0 * math.pi * 700.0) * (1.0 - 3.0 / (8.0 * 700.0))
        assert abs(bessel_i1_scaled(700.0) - asym) <= 1e-6

    @pytest.mark.parametrize("u", np.geomspace(1e-3, 30.0, 20))
    def test_i1_scaled_matches_series_oracle(self, u):
        assert abs(bessel_i1_scaled(u) - i1_scaled_series(u)) <= 1e-12 * max(
            1.0, i1_scaled_series(u)
        )

    def test_normal_cdf_reference_points(self):
        assert normal_cdf(0.0) == 0.5
        assert abs(normal_cdf(1.96) - 0.97500210485177956) <= 1e-15
        assert abs(normal_cdf(-8.0) - 6.2209605742717841e-16) <= 1e-25

    @given(st.floats(-30.0, 30.0))
    def test_normal_cdf_symmetry(self, z):
        assert abs(normal_cdf(z) + normal_cdf(-z) - 1.0) <= 1e-15

    def test_log_normal_cdf_deep_tail(self):
        # direct cdf underflows near z=-40; the log form must not
        assert abs(log_normal_cdf(-8.0) - math.log(6.2209605742717841e-16)) <= 1e-10
        assert math.isfinite(log_normal_cdf(-300.0))

    @given(st.floats(-20.0, 3.0), st.floats(-20.0, 20.0))
    def test_expm1_complex_matches_reference(self, re, im):
        w = complex(re, im)
        ref = complex(np.expm1(re) * math.cos(im) - 2.0 * math.sin(im / 2.0) ** 2,
                      math.exp(re) * math.sin(im))
        got = expm1_complex(w)
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


class TestSemiInfiniteQuadrature:
    def test_plain_exponential(self):
        val = integrate_semi_infinite(lambda u: np.exp(-u), bumps=[(0.0, 4.0)])
        assert abs(val - 1.0) <= 1e-10

    def test_gaussian_moment(self):
        val = integrate_semi_infinite(lambda u: u * np.exp(-u * u), bumps=[(0.0, 1.0)])
        assert abs(val - 0.5) <= 1e-10

    @pytest.mark.parametrize(
        "c, exact",
        [(0.0125, 0.012578451540634377), (1.0, 1.7182818284590452)],
    )
    def test_bessel_mass_identity(self, c, exact):
        # int_0^inf 2 I1(2u) e^{-u^2/c} du = e^c - 1, written with the scaled
        # Bessel function so nothing overflows
        g = lambda u: 2.0 * bessel_i1_scaled(2.0 * u) * np.exp(2.0 * u - u * u / c)
        val = integrate_semi_infinite(g, bumps=[(c, math.sqrt(c / 2.0) + 1e-12)])
        assert abs(val - exact) <= 1e-9 * max(1.0, exact)

    def test_integrand_sees_whole_panels(self):
        sizes = []

        def g(u):
            sizes.append(u.size)
            return np.exp(-u)

        integrate_semi_infinite(g, bumps=[(0.0, 4.0)])
        assert min(sizes) >= 32

    @pytest.mark.parametrize("bumps", [[(0.0, 0.0)], [(1.0, 1.0), (0.0, -1.0)], []])
    def test_non_positive_bump_width_rejected(self, bumps):
        with pytest.raises(InvalidParametersError):
            integrate_semi_infinite(lambda u: np.exp(-u), bumps=bumps)

    def test_non_converging_panel_raises_with_finite_bound(self):
        # a jump at u = 1/3 is never resolved to 1e-10 within 4096 nodes
        step = lambda u: (u < 1.0 / 3.0).astype(float)
        with pytest.raises(AccuracyError) as exc:
            integrate_semi_infinite(step, QuadSpec(max_nodes=4096), bumps=[(0.0, 1.0)])
        best, bound = exc.value.best, exc.value.bound
        assert math.isfinite(best) and math.isfinite(bound) and bound > 0.0
        assert abs(best - 1.0 / 3.0) <= bound

    def test_node_budget_counts_every_row(self):
        # five panels, one with a jump that no refinement resolves: the
        # default budget of 2^21 nodes x rows per block gives up at about
        # 16 MB a block, where a 2^24 budget per row would need several GB
        step = lambda u: (u < 1.0 / 3.0).astype(float)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(AccuracyError) as exc:
                integrate_panels(step, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 128 * 2**20
        best, bound = exc.value.best, exc.value.bound
        assert math.isfinite(best) and math.isfinite(bound) and bound > 0.0
        assert abs(best - 1.0 / 3.0) <= bound


class TestBatchedSemiInfinite:
    """A batched integrand, one row per spot, on one panel grid: each row is
    judged by its own tolerance and frozen where its single integral stops."""

    WS = np.array([0.0, 5.0, 20.0, 60.0])

    @staticmethod
    def damped(u, w):
        # e^{-u} cos(w u), a row per frequency: the faster rows need finer slices
        return np.exp(-u) * np.cos(w * u)

    def test_rows_equal_single_integrals(self):
        asked = []

        def g(u, w):
            asked.append(np.size(w))
            return self.damped(u, w)

        bumps = [(0.0, 1.0)]
        batch = integrate_semi_infinite(g, bumps=bumps, params=(self.WS,))
        assert batch.shape == self.WS.shape
        singles = [integrate_semi_infinite(lambda u: self.damped(u, w), bumps=bumps)
                   for w in self.WS]
        assert list(batch) == singles
        w, top = self.WS, 14.0  # the truncation point of the (0, 1) bump
        exact = (1.0 - np.exp(-top) * (np.cos(w * top) - w * np.sin(w * top))) / (1.0 + w * w)
        assert np.max(np.abs(batch - exact)) <= 1e-9
        # the rows converge at different refinements: once one is frozen,
        # only the rest are evaluated
        assert any(size < len(self.WS) for size in asked)

    def test_non_converging_row_raises_with_per_row_arrays(self):
        # row 1 jumps at u = 1/3, which no refinement within 4096 nodes resolves
        def g(u, step):  # step: 0 for the smooth row, 1 for the jump
            return np.where(step, (u < 1.0 / 3.0).astype(float), np.exp(-u))

        spec = QuadSpec(max_nodes=4096)
        with pytest.raises(AccuracyError) as exc:
            integrate_semi_infinite(g, spec, bumps=[(0.0, 1.0)], params=(np.array([0.0, 1.0]),))
        best, bound = exc.value.best, exc.value.bound
        assert best.shape == bound.shape == (2,)
        assert best[0] == integrate_semi_infinite(lambda u: np.exp(-u), spec, bumps=[(0.0, 1.0)])
        assert 0.0 <= bound[0] <= spec.rel_tol  # within its own tolerance, |value| < 1
        with pytest.raises(AccuracyError) as alone:
            integrate_semi_infinite(lambda u: (u < 1.0 / 3.0).astype(float), spec,
                                    bumps=[(0.0, 1.0)])
        assert (best[1], bound[1]) == (alone.value.best, alone.value.bound)
        assert abs(best[1] - 1.0 / 3.0) <= bound[1]

    def test_wide_column_stays_within_the_node_budget(self):
        # every call of g, the first one-slice pass included, holds at most
        # max_nodes nodes x spots, however many spots the column has
        ws = np.linspace(0.0, 3.0, 2000)
        spec = QuadSpec(max_nodes=1 << 12)
        sizes = []

        def g(u, w):
            sizes.append(u.size * np.size(w))
            return np.exp(-u) * np.cos(w * u)

        batch = integrate_semi_infinite(g, spec, bumps=[(0.0, 1.0)], params=(ws,))
        assert max(sizes) <= spec.max_nodes
        for i in (0, 999, 1999):
            single = integrate_semi_infinite(lambda u: np.exp(-u) * np.cos(ws[i] * u), spec,
                                             bumps=[(0.0, 1.0)])
            assert batch[i] == single

    def test_column_budget_counts_only_rows_still_refining(self):
        # fig2's rho = 2 market at tight tolerances: 2^10 nodes is the
        # budget at which each of the 41 spots converges alone, and at a
        # 41st of it every spot fails.  A budget counted over all 41 rows
        # would refuse the column; counting the rows still refining, and
        # splitting them into calls that fit, prices it spot for spot.
        m = MarketParams.from_rho_sigma(2.0, 0.04, 0.1)
        c = Contract(PayoffKind.VANILLA_CALL, 1.0, 0.25)
        xs = np.log(np.linspace(0.8, 1.2, 41))
        spec = QuadSpec(rel_tol=1e-13, abs_tol=1e-15, max_nodes=1 << 10)
        singles = [european_price(m, c, float(x), spec=spec) for x in xs]
        assert list(european_price(m, c, xs, spec=spec)) == singles
        tight = QuadSpec(rel_tol=1e-13, abs_tol=1e-15, max_nodes=(1 << 10) // 41)
        for x in xs:
            with pytest.raises(AccuracyError):
                european_price(m, c, float(x), spec=tight)


class TestPoissonDifferencePmf:
    @pytest.mark.parametrize("lam_t", [0.25, 38.0, 2000.0])
    @pytest.mark.parametrize("up_share", [0.5, 0.55, 0.9, 1.0])
    def test_matches_scipy_skellam(self, lam_t, up_share):
        # scipy.stats is a test-side oracle only; at lam_t = 2000 and
        # up_share = 0.9 the e^{-z} I_m(z) closed form underflows to zero
        from scipy import stats

        up, down = lam_t * up_share, lam_t * (1.0 - up_share)
        m_max = int(math.ceil(lam_t + 12.0 * math.sqrt(lam_t) + 44.0))
        got = poisson_difference_pmf(m_max, up, down)
        m = np.arange(-m_max, m_max + 1)
        # scipy's skellam gives NaN for a zero mean; the law is then Poisson
        want = stats.poisson.pmf(m, up) if down == 0.0 else stats.skellam.pmf(m, up, down)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13
        assert abs(got.sum() - 1.0) <= 1e-11


    @pytest.mark.parametrize("m_max, up, down", [
        (60, 0.0, 3.0), (60, 3.0, 0.0), (200, 10.0, 5.0), (4000, 1500.0, 1400.0),
        (6000, 3000.0, 2000.0), (6000, 2500.0, 0.0), (6000, 0.5, 5000.0)])
    def test_matches_log_gamma_form(self, m_max, up, down):
        # the xlogy/gammaln form through scipy.special, a test-time oracle
        from scipy import special

        n = np.arange(m_max + 1)
        want = np.correlate(*(np.exp(special.xlogy(n, mu) - mu - special.gammaln(n + 1))
                              for mu in (up, down)), "full")
        got = poisson_difference_pmf(m_max, up, down)
        assert got.shape == want.shape
        # both forms round log n! (4.6e4 at n = 6000) on their own, and exp
        # turns each ulp of it into that much relative error of the pmf
        tol = 1e-15 + 4.0 * np.spacing(math.lgamma(m_max + 1.0))
        big = want > 1e-300
        assert np.all(got[~big] <= 1e-290)
        assert np.max(np.abs(got[big] - want[big]) / want[big]) <= tol
        if down == 0.0:  # the net count is never negative
            assert np.all(got[:m_max] == 0.0)
        if up == 0.0:
            assert np.all(got[m_max + 1:] == 0.0)


def direct_rows(g, spots, w):
    """The rows 2 Re(g(w) e^{-iwx}), one per spot x, from one cosine and
    sine per node and spot."""
    phase, f = np.multiply.outer(spots, w), g(w)
    return 2.0 * (np.cos(phase) * f.real + np.sin(phase) * f.imag)


def per_panel_reference(g, omega, spec, spots, osc_hint=0.0, direct=False):
    """The interior of ``integrate_real_line`` refined one panel at a time:
    each panel from its phase seed until its worst spot moved by at most
    its tolerance, the values added in panel order.  Each panel is
    contracted against the spots' phases alone or, if ``direct``, summed
    over their ``direct_rows``.  Returns the sum and each panel's number of
    passes."""
    edges = [0.0, min(1.0, omega)]
    while edges[-1] < omega:
        edges.append(min(2.0 * edges[-1], omega))

    def value(lo, hi, slices):
        if direct:
            return _panel_value(lambda w: direct_rows(g, spots, w), *_slice_nodes(lo, hi, slices))
        return _phased_panels(g, np.array([lo]), np.array([hi]), np.array([slices]), spots)[0]

    total, passes = 0.0, []
    for lo, hi in zip(edges[:-1], edges[1:]):
        tol = 0.5 * spec.abs_tol * max((hi - lo) / omega, 1e-3)
        slices = max(1, math.ceil((hi - lo) * osc_hint / 40.0))
        prev = value(lo, hi, slices)
        n = 1
        while True:
            slices, n = 2 * slices, n + 1
            cur = value(lo, hi, slices)
            if np.abs(cur - prev).max() <= tol:
                break
            prev = cur
        total = total + cur
        passes.append(n)
    return total, passes


def per_window_reference(g, tail_order, spec, spots):
    """The truncation search of ``integrate_real_line`` one window per call
    of g: windows [w, 4w], 48 nodes each, from w = 64, each giving the tail
    constant max |2 Re(g(w) e^{-iwx})| w^p over the spots (``direct_rows``),
    until the tail bound meets half the absolute tolerance.  Returns Omega
    and the windows' first nodes."""
    p, budget = tail_order, 0.5 * spec.abs_tol
    omega, starts = 64.0, []
    while True:
        samples = np.geomspace(omega, 4.0 * omega, 48)
        starts.append(omega)
        c_est = float(np.max(np.abs(direct_rows(g, spots, samples)) * samples**p))
        if c_est == 0.0:
            return omega, starts
        needed = (2.0 * c_est / ((p - 1.0) * budget)) ** (1.0 / (p - 1.0))
        if needed <= omega:
            return omega, starts
        omega = min(needed, 4.0 * omega)


def probed(g):
    """g, recording the size of every call and the first node of the decay
    probe, geomspace(Omega, 8 Omega, 16)."""
    sizes, probe = [], []

    def seen(w):
        sizes.append(w.size)
        if w.size == 16:
            probe.append(float(w[0]))
        return g(w)
    return seen, sizes, probe


# spot x_i phases e^{-w^2/2} by e^{-i w x_i}; x = 60 oscillates far faster
# than the others and needs more refinement than the rest of the column
FIVE_XS = np.array([0.0, 0.5, 1.0, 3.0, 60.0])


def gaussian(w):
    return np.exp(-0.5 * w * w)


class TestRealLineQuadrature:
    def test_lorentzian(self):
        val = integrate_real_line(lambda w: 1.0 / (1.0 + w * w), 2.0, DEFAULT_QUAD, spots=[0.0])
        assert abs(val[0] - math.pi) <= 1e-9

    def test_gaussian(self):
        val = integrate_real_line(gaussian, 4.0, DEFAULT_QUAD, spots=[0.0])
        assert abs(val[0] - math.sqrt(2.0 * math.pi)) <= 1e-9

    def test_complex_integrand_real_result(self):
        # e^{-w^2/2 - iw} integrates to sqrt(2 pi) e^{-1/2}
        val = integrate_real_line(gaussian, 4.0, DEFAULT_QUAD, spots=[1.0])
        assert abs(val[0] - math.sqrt(2.0 * math.pi) * math.exp(-0.5)) <= 1e-9

    def test_tail_bound_violation_detected(self):
        # claims cubic decay but only decays like 1/w^1.2: the probe must object
        g = lambda w: 1.0 / (1.0 + abs(w)) ** 1.2
        with pytest.raises(TailBoundError):
            integrate_real_line(g, 3.0, QuadSpec(rel_tol=1e-9, abs_tol=1e-8), spots=[0.0])

    def test_decay_probe_contradiction_detected(self):
        # quartic decay up to the truncation point, then a bump near w = 1000
        # that only the probe beyond it samples
        g = lambda w: 1.0 / (1.0 + w * w) ** 2 + 1e-3 * np.exp(-(((w - 1000.0) / 50.0) ** 2))
        with pytest.raises(TailBoundError, match="contradicts") as exc:
            integrate_real_line(g, 4.0, QuadSpec(abs_tol=1e-6), spots=[0.0])
        assert exc.value.best is None and exc.value.bound > 0.0

    @pytest.mark.parametrize("tail_order", [1.0, 0.5])
    def test_tail_order_must_exceed_one(self, tail_order):
        with pytest.raises(InvalidParametersError):
            integrate_real_line(lambda w: 1.0 / (1.0 + w * w), tail_order, DEFAULT_QUAD,
                                spots=[0.0])

    @pytest.mark.parametrize("spots", [[0.0], FIVE_XS], ids=["one", "five"])
    def test_result_is_complex_one_entry_per_spot(self, spots):
        val = integrate_real_line(gaussian, 4.0, DEFAULT_QUAD, spots=spots)
        assert isinstance(val, np.ndarray) and val.dtype == complex
        assert val.shape == (len(spots),)

    def test_fourier_pairs_of_a_column(self):
        val = integrate_real_line(gaussian, 4.0, DEFAULT_QUAD, spots=FIVE_XS)
        exact = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * FIVE_XS * FIVE_XS)
        assert np.max(np.abs(val - exact)) <= 1e-9
        for x, v in zip(FIVE_XS, val):
            single = integrate_real_line(gaussian, 4.0, DEFAULT_QUAD, spots=[x])
            assert abs(v - single[0]) <= 1e-9

    def test_evaluates_non_negative_nodes_only(self):
        # g(-w) = conj g(w) is taken on trust, never evaluated; the result's
        # imaginary part is exactly 0, for one spot and a column
        xs = np.array([0.0, 1.0, 3.0])
        seen = []

        def g(w):
            seen.append(np.array(w))
            return gaussian(w)

        column = integrate_real_line(g, 4.0, DEFAULT_QUAD, spots=xs)
        single = integrate_real_line(g, 4.0, DEFAULT_QUAD, spots=xs[1:2])
        assert min(float(np.min(w)) for w in seen) >= 0.0
        assert np.all(column.imag == 0.0) and np.all(single.imag == 0.0)
        exact = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * xs * xs)
        assert np.max(np.abs(column - exact)) <= 1e-9

    @pytest.mark.parametrize("osc_hint, spots",
                             [(0.0, np.array([1.0])), (0.0, FIVE_XS), (5.0, FIVE_XS)],
                             ids=["single", "five-spots", "five-spots-seeded"])
    def test_rounds_equal_a_per_panel_loop(self, osc_hint, spots):
        # every panel, refined with the others in one call of g per round,
        # keeps the bits it gets refined alone; the rounds are as many as
        # the slowest panel's passes.  A |w|^-4 tail puts Omega near 3000.
        g = lambda w: 1.0 / (1.0 + w * w) ** 2
        seen, sizes, probe = probed(g)
        got = integrate_real_line(seen, 4.0, DEFAULT_QUAD, osc_hint, spots=spots)
        want, passes = per_panel_reference(g, probe[0], DEFAULT_QUAD, spots, osc_hint)
        np.testing.assert_array_equal(np.real(got), want)
        assert len([n for n in sizes if n % 32 == 0]) == max(passes)
        assert min(passes) < max(passes)  # some panels are frozen early

    @pytest.mark.parametrize("case", ["single", "five-spots-real", "five-spots", "past-the-batch"])
    def test_tail_search_equals_a_per_window_loop(self, case):
        # the windows [w, 4w] at w = 64, 256 and 1024 come from one call of
        # 144 nodes, any other window and the probe from calls of their
        # own; Omega, and so every panel and the result, is what sampling
        # one window per call gives.  A |w|^-4 tail puts Omega near 3000;
        # a |w|^-3 tail needs windows up to w = 65,536 and Omega near 2e5
        p, spots, g = 4.0, FIVE_XS, lambda w: 1.0 / (1.0 + w * w) ** 2
        if case == "single":
            spots = np.array([1.0])
        elif case == "five-spots":
            g = lambda w: (1.0 + 0.5j * w) / (1.0 + w * w) ** 2.5
        elif case == "past-the-batch":
            g, p, spots = lambda w: 1.0 / (1.0 + w * w) ** 1.5, 3.0, np.array([1.0])
        seen, sizes, probe = probed(g)
        got = integrate_real_line(seen, p, DEFAULT_QUAD, spots=spots)
        omega, starts = per_window_reference(g, p, DEFAULT_QUAD, spots)
        batched = 0
        while batched < min(3, len(starts)) and starts[batched] == 64.0 * 4.0**batched:
            batched += 1
        assert probe == [omega]
        assert sizes[0] == 144 and sizes.count(48) == len(starts) - batched
        # only the last case goes on along the grid past the batch's windows
        assert (starts[3:4] == [4096.0]) == (case == "past-the-batch")
        want, _ = per_panel_reference(g, omega, DEFAULT_QUAD, spots)
        np.testing.assert_array_equal(np.real(got), want)

    @pytest.mark.parametrize("f", [gaussian, lambda w: gaussian(w) * (1.0 + 1j * w)],
                             ids=["real", "complex"])
    def test_spot_phases_match_the_direct_phases(self, f):
        # contracting g against each spot's phase per slice gives what the
        # rows g(w) e^{-iwx}, one cosine and sine per node, give on the same
        # panels, up to rounding of the row's largest value (max |g| = 1
        # for both g).  Both g vanish at w = 64, so Omega is 64 and no
        # probe runs
        phased = integrate_real_line(f, 4.0, DEFAULT_QUAD, 60.0, spots=FIVE_XS)
        omega, _ = per_window_reference(f, 4.0, DEFAULT_QUAD, FIVE_XS)
        assert omega == 64.0
        direct, _ = per_panel_reference(f, omega, DEFAULT_QUAD, FIVE_XS, 60.0, direct=True)
        assert phased.shape == FIVE_XS.shape and np.all(phased.imag == 0.0)
        assert np.max(np.abs(phased - direct)) <= 1e-14

    def test_repeated_spot_gets_the_nodes_of_one_spot(self):
        # a column [x, x, x] is one spot's integral three times: the same
        # tail samples, probe and refinement, so g sees the same nodes
        x = math.log(95.0)
        g = lambda w: np.exp(1j * 4.6 * w) / (1.0 + w * w) ** 2

        def nodes(spots):
            seen = []

            def recorded(w):
                seen.append(w.copy())
                return g(w)
            return seen, integrate_real_line(recorded, 4.0, DEFAULT_QUAD, 5.0, spots=spots)
        one, single = nodes(np.array([x]))
        three, column = nodes(np.array([x, x, x]))
        assert len(one) == len(three)
        for a, b in zip(one, three):
            np.testing.assert_array_equal(a, b)
        assert np.max(np.abs(column - single[0])) <= 1e-15

    @pytest.mark.parametrize("osc_hint", [0.0, 60.0])
    def test_no_call_exceeds_the_node_budget(self, osc_hint):
        # a call's largest array, the seeded first pass included: its
        # nodes, its slices x spots or its 32 x spots offset table per
        # panel.  2^10 splits the first two rounds over two calls each and
        # gives the same bits, and a panel whose seeded first pass alone
        # exceeds it is never evaluated
        def run(spec):
            sizes = []

            def g(w):
                sizes.append(w.size)
                return gaussian(w)
            return lambda: integrate_real_line(g, 4.0, spec, osc_hint, spots=FIVE_XS), sizes

        spec = QuadSpec(max_nodes=1 << 10)
        price, sizes = run(spec)
        if osc_hint == 0.0:
            whole, rounds = run(DEFAULT_QUAD)
            assert list(price()) == list(whole())
            assert len([n for n in sizes if n % 32 == 0]) > len([n for n in rounds if n % 32 == 0])
        else:
            with pytest.raises(AccuracyError) as exc:
                price()
            assert exc.value.best.shape == FIVE_XS.shape and exc.value.bound == math.inf
        assert max(max(n, n // 32 * FIVE_XS.size, 32 * FIVE_XS.size)
                   for n in sizes if n % 32 == 0) <= spec.max_nodes

    def test_phased_calls_keep_every_array_within_the_budget(self):
        # given spots, a call's arrays are its nodes, its slices x spots and
        # a 32 x spots offset table per panel: 2^8 splits the rounds, keeps
        # the bits, and no array of a call exceeds it
        def run(spec):
            sizes = []

            def g(w):
                sizes.append(w.size)
                return gaussian(w)
            got = integrate_real_line(g, 4.0, spec, 5.0, spots=FIVE_XS)
            return got, [n for n in sizes if n % 32 == 0]

        spec = QuadSpec(max_nodes=1 << 8)
        got, passes = run(spec)
        want, rounds = run(DEFAULT_QUAD)
        assert list(got) == list(want) and len(passes) > len(rounds)
        assert max(max(n, n // 32 * FIVE_XS.size, 32 * FIVE_XS.size) for n in passes) \
            <= spec.max_nodes

    def test_column_past_the_table_budget_is_refused_before_its_tables(self):
        # 70,000 spots: a one-slice first pass has 32 nodes and 70,000
        # slices x spots, within 2^21, but its offset table holds 2.24M
        # entries, so every panel is refused before any table is built (a
        # dozen of them would take about 430 MB)
        xs = np.linspace(0.0, 3.0, 70_000)
        tracemalloc.start()
        try:
            with pytest.raises(AccuracyError) as exc:
                integrate_real_line(gaussian, 4.0, DEFAULT_QUAD, spots=xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        assert exc.value.best.shape == xs.shape and exc.value.bound == math.inf

    def test_tail_samples_of_a_wide_column_fit_the_budget(self):
        # 200,000 spots: the 144 tail-sample nodes x spots would be 28.8M
        # entries, 230 MB a block, so the rows are formed in chunks of spots
        # of at most 2^21 entries, and the column is refused with its peak
        # well under 128 MB (154 MB when the 48- and 16-node samples were a
        # block each)
        xs = np.linspace(0.0, 3.0, 200_000)
        tracemalloc.start()
        try:
            with pytest.raises(AccuracyError) as exc:
                integrate_real_line(gaussian, 4.0, DEFAULT_QUAD, spots=xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        assert exc.value.best.shape == xs.shape and exc.value.bound == math.inf

    def test_node_budget_exhaustion_raises(self):
        spec = QuadSpec(rel_tol=1e-9, abs_tol=1e-10, max_nodes=1 << 10)
        with pytest.raises(AccuracyError):
            integrate_real_line(lambda w: np.cos(500.0 * w) / (1.0 + w * w), 2.0, spec, spots=[0.0])


class TestSpots:
    def test_scalar_gives_a_float(self):
        shapes = []

        def price(xs):
            shapes.append(xs.shape)
            return 2.0 * xs
        value = over_spots(price, 0.5)
        assert shapes == [(1,)]
        assert type(value) is float and value == 1.0

    def test_column_keeps_its_shape(self):
        prices = over_spots(lambda xs: xs, [0.1, 0.2, 0.3])
        assert prices.dtype == float
        np.testing.assert_array_equal(prices, [0.1, 0.2, 0.3])

    def test_two_dimensional_rejected(self):
        with pytest.raises(InvalidParametersError):
            over_spots(lambda xs: xs, np.zeros((2, 2)))


class TestQuadSpec:
    def test_tolerances_must_be_positive(self):
        with pytest.raises(InvalidParametersError):
            QuadSpec(rel_tol=0.0, abs_tol=1e-10)
        with pytest.raises(InvalidParametersError):
            QuadSpec(rel_tol=1e-9, abs_tol=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_tolerances_must_be_finite(self, bad):
        with pytest.raises(InvalidParametersError):
            QuadSpec(rel_tol=bad, abs_tol=1e-10)
        with pytest.raises(InvalidParametersError):
            QuadSpec(rel_tol=1e-9, abs_tol=bad)
