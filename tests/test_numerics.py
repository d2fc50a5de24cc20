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
from ctrwpricer.numerics import (
    DEFAULT_QUAD,
    LaplaceFn,
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
    poisson_difference_pmf,
)


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

    def test_deterministic(self):
        f = lambda s: 1.0 / (s + 0.3) ** 2
        assert laplace_invert(f, 3.0) == laplace_invert(f, 3.0)


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


class TestRealLineQuadrature:
    def test_lorentzian(self):
        val = integrate_real_line(lambda w: 1.0 / (1.0 + w * w), 2.0, DEFAULT_QUAD)
        assert abs(val - math.pi) <= 1e-9

    def test_gaussian(self):
        val = integrate_real_line(lambda w: np.exp(-0.5 * w * w), 4.0, DEFAULT_QUAD)
        assert abs(val - math.sqrt(2.0 * math.pi)) <= 1e-9

    def test_complex_integrand_real_result(self):
        # e^{-w^2/2 - iw} integrates to sqrt(2 pi) e^{-1/2}
        g = lambda w: np.exp(-0.5 * w * w - 1j * w)
        val = integrate_real_line(g, 4.0, DEFAULT_QUAD)
        assert abs(val - math.sqrt(2.0 * math.pi) * math.exp(-0.5)) <= 1e-9

    def test_tail_bound_violation_detected(self):
        # claims cubic decay but only decays like 1/w^1.2: the probe must object
        g = lambda w: 1.0 / (1.0 + abs(w)) ** 1.2
        with pytest.raises(TailBoundError):
            integrate_real_line(g, 3.0, QuadSpec(rel_tol=1e-9, abs_tol=1e-8))

    def test_scalar_integrand_returns_complex_scalar(self):
        val = integrate_real_line(lambda w: np.exp(-0.5 * w * w), 4.0, DEFAULT_QUAD)
        assert isinstance(val, complex)

    def test_batched_fourier_pairs(self):
        # row i is e^{-w^2/2} e^{-i w x_i}; x = 60 oscillates far faster than
        # the others and forces extra panel refinement for the whole batch
        xs = np.array([0.0, 0.5, 1.0, 3.0, 60.0])
        g = lambda w: np.exp(-0.5 * w * w)[None, :] * np.exp(-1j * np.outer(xs, w))
        val = integrate_real_line(g, 4.0, DEFAULT_QUAD)
        assert isinstance(val, np.ndarray) and val.shape == xs.shape
        exact = math.sqrt(2.0 * math.pi) * np.exp(-0.5 * xs * xs)
        assert np.max(np.abs(val - exact)) <= 1e-9
        for x, v in zip(xs, val):
            single = integrate_real_line(
                lambda w: np.exp(-0.5 * w * w - 1j * w * x), 4.0, DEFAULT_QUAD)
            assert abs(v - single) <= 1e-9

    def test_batch_tail_bound_violation_detected(self):
        # one row decays like 1/w^1.2 against a declared cubic tail: the
        # whole batch is refused
        g = lambda w: np.vstack([np.exp(-0.5 * w * w), 1.0 / (1.0 + np.abs(w)) ** 1.2])
        with pytest.raises(TailBoundError):
            integrate_real_line(g, 3.0, QuadSpec(rel_tol=1e-9, abs_tol=1e-8))

    def test_node_budget_exhaustion_raises(self):
        spec = QuadSpec(rel_tol=1e-9, abs_tol=1e-10, max_nodes=1 << 10)
        with pytest.raises(AccuracyError):
            integrate_real_line(lambda w: np.cos(500.0 * w) / (1.0 + w * w), 2.0, spec)


class TestQuadSpec:
    def test_tolerances_must_be_positive(self):
        with pytest.raises(InvalidParametersError):
            QuadSpec(rel_tol=0.0, abs_tol=1e-10)
        with pytest.raises(InvalidParametersError):
            QuadSpec(rel_tol=1e-9, abs_tol=-1.0)
