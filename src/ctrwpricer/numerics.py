"""Numerical kernel: Laplace-transform inversion, quadrature, special functions.

The inversion routines implement two independent algorithms so that every
transform used by the pricing modules can be cross-checked:

* fixed-Talbot deformation of the Bromwich contour (primary, deterministic
  node set for a given number of terms), and
* the Euler-accelerated Bromwich series of Abate and Whitt (secondary).

Both assume the transform is analytic to the right of a known abscissa and
real-valued in the time domain.  Every integral runs on one engine of
32-point Gauss-Legendre panels refined by slice doubling, with vectorised
integrands.  Special functions are thin wrappers over scipy.special, which
the first of them to run imports: only the exponential closed forms,
Black-Scholes and the Gumbel law need it, and it takes longer to import
than numpy and this package together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, InvalidParametersError, TailBoundError

__all__ = [
    "QuadSpec",
    "LaplaceFn",
    "laplace_invert",
    "laplace_invert_talbot",
    "laplace_invert_euler",
    "bessel_i1_scaled",
    "normal_cdf",
    "log_normal_cdf",
    "log_gamma",
    "expm1_complex",
    "expm1_ratio",
    "poisson_difference_pmf",
    "integrate_semi_infinite",
    "integrate_panels",
    "integrate_real_line",
]

TALBOT_TERMS = 32          # primary inversion: number of contour nodes
TALBOT_CHECK_TERMS = 40    # node count of the internal error-estimate pass
EULER_TERMS = 24           # secondary inversion: Euler-sum truncation


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances of the Gauss-Legendre panel engine, and its node budget;
    Laplace inversion reads the tolerances for its threshold."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-10
    max_nodes: int = 1 << 21       # nodes x rows of one block: 16 MB of floats

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InvalidParametersError("tolerances must be positive")


DEFAULT_QUAD = QuadSpec()


@dataclass(frozen=True)
class LaplaceFn:
    """A Laplace transform handle plus the abscissa of convergence.

    ``handle`` must accept a complex numpy array of s-values and evaluate
    elementwise; every transform in this package is written that way.
    """

    handle: Callable[[np.ndarray], np.ndarray]
    abscissa: float = 0.0


# ----------------------------------------------------------------------
# special functions
# ----------------------------------------------------------------------

_special = None   # scipy.special, bound by the first call below


def _scipy_special():
    global _special
    from scipy import special as _special
    return _special


def bessel_i1_scaled(u):
    """e^{-u} I_1(u) for u >= 0 (vectorised)."""
    return (_special or _scipy_special()).i1e(u)


def normal_cdf(z):
    """Standard normal CDF (vectorised)."""
    return (_special or _scipy_special()).ndtr(z)


def log_normal_cdf(z):
    """log of the standard normal CDF, stable deep in the left tail."""
    return (_special or _scipy_special()).log_ndtr(z)


def log_gamma(z):
    """Principal branch of log Gamma(z) for complex z (vectorised)."""
    return (_special or _scipy_special()).loggamma(z)


def expm1_complex(w):
    """exp(w) - 1 for complex w without cancellation near w = 0."""
    w = np.asarray(w, dtype=complex)
    re, im = w.real, w.imag
    real = np.expm1(re) * np.cos(im) - 2.0 * np.sin(im / 2.0) ** 2
    imag = np.exp(re) * np.sin(im)
    out = real + 1j * imag
    return out if out.shape else complex(out)


def expm1_ratio(w):
    """(e^w - 1)/w for complex w (vectorised), equal to 1 at w = 0."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-8
    return np.where(small, 1.0 + w / 2.0 + w * w / 6.0,
                    expm1_complex(w) / np.where(small, 1.0, w))


def poisson_difference_pmf(m_max: int, up: float, down: float) -> np.ndarray:
    """Skellam pmf P(N_up - N_down = m), m = -m_max .. m_max: the correlation
    of two Poisson pmfs, exact for a zero mean and for far-apart large means,
    where the e^{-z} I_m(z) form leaves the double range."""
    n = np.arange(m_max + 1)
    # log n! one integer at a time: a cumulative sum of logs drifts by 1e-10
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(m_max + 1)])

    def pmf(mu):
        if mu == 0.0:
            return (n == 0).astype(float)
        return np.exp(n * math.log(mu) - mu - log_fact)

    return np.correlate(pmf(up), pmf(down), "full")


# ----------------------------------------------------------------------
# Laplace inversion
# ----------------------------------------------------------------------

def _as_laplace_fn(f) -> LaplaceFn:
    if isinstance(f, LaplaceFn):
        return f
    return LaplaceFn(handle=f)


def _talbot_sum(fhat, t: float, M: int) -> float:
    """Fixed-Talbot rule with M nodes at time t > 0."""
    r = 2.0 * M / (5.0 * t)
    theta = np.arange(1, M) * (math.pi / M)
    cot = 1.0 / np.tan(theta)
    s = r * theta * (cot + 1j)
    sigma = theta + (theta * cot - 1.0) * cot
    values = np.asarray(fhat(s), dtype=complex)
    terms = np.real(np.exp(t * s) * (1.0 + 1j * sigma) * values)
    head = 0.5 * math.exp(r * t) * np.real(complex(fhat(np.array([r + 0j]))[0]))
    return (2.0 / (5.0 * t)) * (head + terms.sum())


def laplace_invert_talbot(f, t: float, terms: int = TALBOT_TERMS) -> float:
    """Invert a Laplace transform at t > 0 with the fixed-Talbot rule.

    A nonzero abscissa of convergence shifts the evaluation: positive, so
    the deformed contour stays inside the region of analyticity; negative,
    so a decaying f(t) is inverted as the O(1) function e^{-abscissa*t}f(t)
    instead of being swamped by the contour's e^{2M/5} rounding
    amplification.
    """
    lf = _as_laplace_fn(f)
    if t <= 0:
        raise InvalidParametersError("inversion time must be positive")
    if lf.abscissa != 0.0:
        a = lf.abscissa + 1.0 if lf.abscissa > 0.0 else lf.abscissa
        return math.exp(a * t) * _talbot_sum(lambda s: lf.handle(s + a), t, terms)
    return _talbot_sum(lf.handle, t, terms)


def _euler_weights(M: int) -> np.ndarray:
    # binomial averaging weights of the Euler transformation
    xi = np.zeros(2 * M + 1)
    xi[0] = 0.5
    xi[1 : M + 1] = 1.0
    xi[2 * M] = 2.0 ** (-M)
    for k in range(1, M):
        xi[2 * M - k] = xi[2 * M - k + 1] + 2.0 ** (-M) * math.comb(M, k)
    signs = (-1.0) ** np.arange(2 * M + 1)
    return signs * xi


def laplace_invert_euler(f, t: float, terms: int = EULER_TERMS) -> float:
    """Invert with the Euler-accelerated Bromwich series (cross-check rule)."""
    lf = _as_laplace_fn(f)
    if t <= 0:
        raise InvalidParametersError("inversion time must be positive")
    M = terms
    shift = lf.abscissa
    a = M * math.log(10.0) / 3.0
    k = np.arange(0, 2 * M + 1)
    s = (a + 1j * math.pi * k) / t + shift
    values = np.asarray(lf.handle(s), dtype=complex)
    eta = _euler_weights(M)
    return (10.0 ** (M / 3.0) / t) * float(np.dot(eta, values.real)) * math.exp(shift * t)


def laplace_invert(f, t: float, spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Primary inversion entry point with an internal error estimate.

    Runs the fixed-Talbot rule at the working order and once more at a
    higher order; the difference between the two node sets serves as the
    error estimate.  The working order balances truncation against the
    contour's e^{2M/5} rounding amplification, which floors the achievable
    relative accuracy in double precision, so the acceptance threshold
    floors at that plateau rather than at the quadrature tolerances.
    Raises AccuracyError, carrying the best value and the estimate, when
    the estimate sits above the threshold.
    """
    lf = _as_laplace_fn(f)
    best = laplace_invert_talbot(lf, t, TALBOT_TERMS)
    check = laplace_invert_talbot(lf, t, TALBOT_CHECK_TERMS)
    err = abs(best - check)
    scale = max(abs(best), abs(check), 1e-300)
    if err > max(spec.rel_tol * scale * 10.0, 1e-7 * scale, 10.0 * spec.abs_tol):
        raise AccuracyError(
            f"Laplace inversion did not converge at t={t}: "
            f"estimate {best!r}, error bound {err!r}",
            best=best,
            bound=err,
        )
    return best


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

def integrate_semi_infinite(
    g,
    spec: QuadSpec = DEFAULT_QUAD,
    bumps: Sequence[tuple[float, float]] | None = None,
) -> float:
    """Integrate g over (0, infinity) for integrands with known mass location.

    ``g`` takes an array of nodes and returns one value per node.
    ``bumps`` is a list of (center, width) pairs describing where the
    integrand carries mass; decay beyond ``center + 14 * width`` must be at
    least Gaussian in (u - center)/width.  The upper limit is truncated
    there, and ``integrate_panels`` integrates up to it with panel edges at
    0 and at each bump's center and left edge (``center - 14 * width``).
    """
    if bumps is None:
        bumps = [(0.0, 1.0)]
    if not bumps or any(w <= 0 for _, w in bumps):
        raise InvalidParametersError("each bump needs a positive width")
    upper = max(c + 14.0 * w for c, w in bumps)
    pts = {p for c, w in bumps for p in (max(c - 14.0 * w, 0.0), max(c, 0.0)) if 0.0 < p < upper}
    return integrate_panels(g, [0.0, *sorted(pts), upper], spec)


def integrate_panels(g, edges: Sequence[float], spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Integrate g (an array of nodes to one value each) over [edges[0], edges[-1]].

    Each gap between edges, best placed at g's kinks and around its mass,
    is a panel mapped onto [0, 1] as one row of a batch, so a refinement
    evaluates all panels in one call of g.  They are refined together until
    each moved by at most its share of max(abs_tol, rel_tol |value|), with
    |value| from a one-slice pass; past the node budget, AccuracyError
    carries the sum and the summed last changes as its bound.
    """
    lo = np.asarray(edges[:-1], dtype=float)[:, None]
    width = np.diff(np.asarray(edges, dtype=float))[:, None]

    def rows(t):
        return width * np.asarray(g((lo + width * t).ravel()), dtype=float).reshape(len(width), -1)

    first = _panel_value(rows, 0.0, 1.0, 1)
    tol = max(spec.abs_tol, spec.rel_tol * abs(float(first.sum()))) / len(width)
    try:
        return float(_integrate_panel(rows, 0.0, 1.0, tol, spec.max_nodes, prev=first).sum())
    except AccuracyError as exc:  # the rows are panels: report their sum
        raise AccuracyError(f"quadrature over [{edges[0]!r}, {edges[-1]!r}] did not converge "
                            f"(a panel last moved by {exc.bound!r})",
                            best=float(exc.best.sum()), bound=len(width) * exc.bound) from None


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _panel_value(g, lo: float, hi: float, slices: int) -> np.ndarray:
    """Composite 32-point Gauss-Legendre over [lo, hi] with equal slices.

    ``g`` returns an (n_x, nodes) block; the result has one entry per row.
    """
    half = 0.5 * (hi - lo) / slices
    mid = lo + half * (2.0 * np.arange(slices) + 1.0)[:, None]
    nodes = (mid + half * _GL_NODES[None, :]).ravel()
    vals = g(nodes)
    return (vals.reshape(vals.shape[0], slices, -1) @ _GL_WEIGHTS).sum(axis=1) * half


def _integrate_panel(g, lo: float, hi: float, tol: float, max_nodes: int,
                     start_slices: int = 1, prev: np.ndarray | None = None) -> np.ndarray:
    """Double [lo, hi]'s slices until no row moves by more than tol, or
    until the next block would hold more than max_nodes nodes x rows;
    ``prev`` is the value at ``start_slices`` slices, if known."""
    slices = max(1, start_slices)
    if prev is None:
        prev = _panel_value(g, lo, hi, slices)
    while True:
        slices *= 2
        cur = _panel_value(g, lo, hi, slices)
        delta = float(np.max(np.abs(cur - prev)))
        if delta <= tol:
            return cur
        if slices * 64 * cur.shape[0] > max_nodes:
            raise AccuracyError(
                f"panel [{lo!r}, {hi!r}] did not converge "
                f"(last refinement changed by {delta!r})",
                best=cur,
                bound=delta,
            )
        prev = cur


def integrate_real_line(g, tail_order: float, spec: QuadSpec = DEFAULT_QUAD,
                        osc_hint: float | None = None):
    """Integrate g over the whole real line, for one integrand or a batch.

    ``g(w)`` returns either one value per node (shape ``(N,)``; the result
    is a complex scalar) or a batch of integrands, one row each (shape
    ``(n_x, N)``; the result is a complex array of shape ``(n_x,)``).

    The caller guarantees |g(w)| <= C |w|^-tail_order for large |w| with
    tail_order > 1.  C is estimated by sampling, the domain is truncated
    where the analytic tail bound  2 C Omega^(1-p) / (p - 1)  drops below
    half the absolute tolerance, and the interior is integrated as
    \\int_0^Omega (g(w) + g(-w)) dw  on geometrically growing panels, each
    refined until converged.  The symmetric pairing keeps the imaginary
    part at rounding level for conjugate-symmetric integrands.  For a
    batch, the tail constant, the decay probe and each panel's convergence
    test take the worst row, so every entry carries the same certificate
    as a single integral would; g is called one panel at a time, so memory
    stays at one panel's nodes times n_x.

    ``osc_hint`` is an optional bound on the phase speed of g in radians
    per unit of w; it seeds each panel with enough slices to resolve the
    oscillation instead of discovering it by repeated refinement.
    """
    p = float(tail_order)
    if p <= 1.0:
        raise InvalidParametersError("tail_order must exceed 1")
    batched = None

    def paired(w):
        nonlocal batched
        vals = np.asarray(g(w), dtype=complex) + np.asarray(g(-w), dtype=complex)
        batched = vals.ndim == 2
        return vals if batched else vals[None, :]

    tail_budget = 0.5 * spec.abs_tol

    # grow the truncation point until the tail bound is met
    omega = 64.0
    c_est = 0.0
    for _ in range(64):
        samples = np.geomspace(omega, 4.0 * omega, 48)
        c_est = float(np.max(np.abs(paired(samples)) * samples**p))
        if c_est == 0.0:
            break
        needed = (2.0 * c_est / ((p - 1.0) * tail_budget)) ** (1.0 / (p - 1.0))
        if needed <= omega:
            break
        omega = min(needed, 4.0 * omega)
    else:
        raise TailBoundError(
            "could not find a truncation point satisfying the tail bound",
            best=None,
            bound=c_est,
        )

    # sanity-check the declared decay beyond the truncation point
    if c_est > 0.0:
        probe = np.geomspace(omega, 8.0 * omega, 16)
        worst = float(np.max(np.abs(paired(probe)) * probe**p))
        if worst > 10.0 * c_est:
            raise TailBoundError(
                f"sampled decay beyond Omega={omega!r} contradicts "
                f"tail_order={p!r} (coefficient {worst!r} vs {c_est!r})",
                best=None,
                bound=worst,
            )

    # geometric panels: [0, h], [h, 2h], [2h, 4h], ...
    edges = [0.0, min(1.0, omega)]
    while edges[-1] < omega:
        edges.append(min(2.0 * edges[-1], omega))
    interior_budget = 0.5 * spec.abs_tol
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        tol = interior_budget * max((hi - lo) / omega, 1e-3)
        start = 1
        if osc_hint:
            start = max(1, math.ceil((hi - lo) * osc_hint / 40.0))
        total += _integrate_panel(paired, lo, hi, tol, spec.max_nodes, start)
    return total if batched else complex(total[0])
