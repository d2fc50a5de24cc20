"""Numerical kernel: Laplace-transform inversion, quadrature, special functions.

The inversion routines implement two independent algorithms so that every
transform used by the pricing modules can be cross-checked:

* fixed-Talbot deformation of the Bromwich contour (primary, deterministic
  node set for a given number of terms; the working and check orders share
  one cached node set, so an inversion calls its transform once), and
* the Euler-accelerated Bromwich series of Abate and Whitt (secondary).

Both assume the transform is analytic to the right of a known abscissa and
real-valued in the time domain.  Every integral runs on one engine of
32-point Gauss-Legendre panels refined by slice doubling (one loop,
``_refine``), with vectorised integrands, and a column of spots costs one
call.  An inversion takes a batch, one row per spot, and judges each row
by its own threshold; a panel integral hands its integrand each spot's
constants as rows (``as_rows``: a single spot's as floats), refines each
spot until its own tolerance holds and freezes it there, as its single
integral would stop, and splits every call of the integrand to fit the
node budget.  The real-line integral takes one form: a spot-free
integrand, one value per node, and the spots, whose phases e^{-iwx} it
applies itself, per Gauss-Legendre slice rather than per node.  It holds
the column to its worst spot, samples its first three tail windows in one
call, refines all its panels together, one call of the integrand per
round, and charges the budget a call's nodes, slices x spots or 32 x
spots table per panel, never nodes x spots; it forms the tail samples'
nodes x spots in chunks of spots within the budget.  Every pricer takes
its spots through one adapter (``over_spots``), and every estimate in an
AccuracyError is mapped as its price is (``mapped``).  Special functions
are thin wrappers over scipy.special, which the first of them to run
imports: only the exponential closed forms, Black-Scholes and the Gumbel
law need it, and it takes longer to import than numpy and this package
together.
"""

from __future__ import annotations

import functools
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
    "as_rows",
    "mapped",
    "over_spots",
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
    # the largest array of one call of an integrand: nodes x rows, or for a
    # real-line integral its nodes, slices x spots or 32 x panels x spots;
    # 16 MB per array of floats
    max_nodes: int = 1 << 21

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise InvalidParametersError("tolerances must be positive and finite")


DEFAULT_QUAD = QuadSpec()


@dataclass(frozen=True)
class LaplaceFn:
    """A Laplace transform handle plus the abscissa of convergence.

    ``handle`` must accept a complex numpy array of s-values and evaluate
    elementwise; every transform in this package is written that way.  It
    may return one row per spot (shape ``(n_x, nodes)``), which
    ``laplace_invert`` inverts row by row.  The s-array may be read-only.
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


def as_rows(x):
    """Values, one per spot, as rows: an (n, 1) column, or for one spot its
    float, which numpy combines with an array on its faster scalar path.
    Every formula over spots takes either, so one spot and a column of them
    run the same code and each spot's entry comes out the same."""
    if isinstance(x, float):
        return x
    x = np.asarray(x, dtype=float)
    return float(x.ravel()[0]) if x.size == 1 else x.reshape(-1, 1)


def mapped(value, post, post_bound=None):
    """``post(value())``.  An AccuracyError from ``value`` that carries an
    estimate leaves with ``post`` of its best value and, given ``post_bound``,
    that of its bound: the estimate of the mapped price, not of ``value``."""
    try:
        result = value()
    except AccuracyError as exc:
        if exc.best is not None:
            exc.best = post(exc.best)
            if post_bound is not None:
                exc.bound = post_bound(exc.bound)
        raise
    return post(result)


def over_spots(price, x):
    """``price`` of x's log-prices as a 1-D array, shaped like x (a float for
    a scalar x), and so is an AccuracyError's estimate, one entry per spot or
    one for all.  A non-finite or 2-D x raises InvalidParametersError; an
    empty column prices to an empty array without calling ``price``."""
    xs = np.asarray(x, dtype=float)
    if not (math.isfinite(xs) if xs.ndim == 0 else xs.ndim == 1 and np.isfinite(xs).all()):
        raise InvalidParametersError("x must be a finite log-price or a 1-D array of them")
    if xs.size == 0:
        return np.empty(0)

    def shaped(a):
        a = np.asarray(a).reshape(-1)
        if xs.ndim == 0:
            return float(a[0])
        return a if a.size == xs.size else np.full(xs.shape, a[0])
    return mapped(lambda: price(xs.reshape(-1)), shaped, shaped)


# ----------------------------------------------------------------------
# Laplace inversion
# ----------------------------------------------------------------------

def _as_laplace_fn(f) -> LaplaceFn:
    if isinstance(f, LaplaceFn):
        return f
    return LaplaceFn(handle=f)


@functools.lru_cache(maxsize=64)
def _talbot_rule(t: float, orders: tuple):
    """Fixed-Talbot contours of each order M at time t > 0, on one node set.

    Returns the nodes, per order its M - 1 body nodes then its head node r,
    and per order the body weights e^{ts}(1 + i sigma) and the head factor
    e^{rt}/2.  The arrays are cached, so they are read-only.
    """
    nodes, parts = [], []
    for M in orders:
        r = 2.0 * M / (5.0 * t)
        theta = np.arange(1, M) * (math.pi / M)
        cot = 1.0 / np.tan(theta)
        s = r * theta * (cot + 1j)
        sigma = theta + (theta * cot - 1.0) * cot
        weights = np.exp(t * s) * (1.0 + 1j * sigma)
        weights.flags.writeable = False
        nodes += [s, [r + 0j]]
        parts.append((weights, 0.5 * math.exp(r * t)))
    nodes = np.concatenate(nodes)
    nodes.flags.writeable = False
    return nodes, tuple(parts)


def _talbot(f, t: float, orders: tuple) -> list:
    """The fixed-Talbot inverse at t of each order, from one call of the
    transform on all their nodes; one value per row of a batched handle.

    A nonzero abscissa of convergence shifts the evaluation: positive, so
    the deformed contour stays inside the region of analyticity; negative,
    so a decaying f(t) is inverted as the O(1) function e^{-abscissa*t}f(t)
    instead of being swamped by the contour's e^{2M/5} rounding
    amplification.
    """
    lf = _as_laplace_fn(f)
    if not 0.0 < t < math.inf:
        raise InvalidParametersError("inversion time must be positive and finite")
    nodes, parts = _talbot_rule(float(t), orders)
    a = 0.0
    if lf.abscissa != 0.0:
        a = lf.abscissa + 1.0 if lf.abscissa > 0.0 else lf.abscissa
        nodes = nodes + a
    values = np.asarray(lf.handle(nodes), dtype=complex)
    sums, start = [], 0
    for weights, head in parts:
        stop = start + weights.size
        terms = np.real(weights * values[..., start:stop]).sum(axis=-1)
        total = (2.0 / (5.0 * t)) * (head * np.real(values[..., stop]) + terms)
        sums.append(math.exp(a * t) * total if a else total)
        start = stop + 1
    return sums


def laplace_invert_talbot(f, t: float, terms: int = TALBOT_TERMS) -> float:
    """Invert a Laplace transform at t > 0 with the fixed-Talbot rule of
    ``terms`` nodes; see ``_talbot`` for the abscissa shift."""
    return _talbot(f, t, (terms,))[0]


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
    if not 0.0 < t < math.inf:
        raise InvalidParametersError("inversion time must be positive and finite")
    M = terms
    shift = lf.abscissa
    a = M * math.log(10.0) / 3.0
    k = np.arange(0, 2 * M + 1)
    s = (a + 1j * math.pi * k) / t + shift
    values = np.asarray(lf.handle(s), dtype=complex)
    eta = _euler_weights(M)
    return (10.0 ** (M / 3.0) / t) * float(np.dot(eta, values.real)) * math.exp(shift * t)


def laplace_invert(f, t: float, spec: QuadSpec = DEFAULT_QUAD):
    """Primary inversion entry point with an internal error estimate.

    Runs the fixed-Talbot rule at the working order and at a higher order,
    both from one call of the transform on their joint node set; the
    difference between the two serves as the error estimate.  The working
    order balances truncation against the contour's e^{2M/5} rounding
    amplification, which floors the achievable relative accuracy in double
    precision, so the acceptance threshold floors at that plateau rather
    than at the quadrature tolerances.  A handle returning one row per spot
    (shape ``(n_x, nodes)``) gets one value per row, each judged by its own
    threshold.  Raises AccuracyError, carrying the best values and the
    estimates (inf where a value is not finite), when any row fails.
    """
    best, check = _talbot(f, t, (TALBOT_TERMS, TALBOT_CHECK_TERMS))
    with np.errstate(invalid="ignore"):  # inf - inf: non-finite rows fail below
        err = np.abs(best - check)
    scale = np.maximum(np.maximum(np.abs(best), np.abs(check)), 1e-300)
    threshold = np.maximum(np.maximum(spec.rel_tol * scale * 10.0, 1e-7 * scale),
                           10.0 * spec.abs_tol)
    finite = np.isfinite(best) & np.isfinite(check)
    if (~finite | (err > threshold)).any():
        bound = np.where(finite, err, np.inf)[()]
        raise AccuracyError(
            f"Laplace inversion did not converge at t={t}: "
            f"estimate {best!r}, error bound {bound!r}",
            best=best,
            bound=bound,
        )
    return best


# ----------------------------------------------------------------------
# quadrature
# ----------------------------------------------------------------------

def integrate_semi_infinite(g, spec: QuadSpec = DEFAULT_QUAD, *,
                            bumps: Sequence[tuple[float, float]], params: tuple | None = None):
    """Integrate g over (0, infinity) for integrands with known mass location.

    ``g`` is one integrand or, given ``params``, one per spot, as
    ``integrate_panels`` takes them.  ``bumps`` is a list of (center, width)
    pairs describing where every integrand carries mass; decay beyond
    ``center + 14 * width`` must be at least Gaussian in (u - center)/width.
    The upper limit is truncated there, and ``integrate_panels`` integrates
    up to it with panel edges at 0 and at each bump's center and left edge
    (``center - 14 * width``), one grid for all spots.
    """
    if not bumps or any(w <= 0 for _, w in bumps):
        raise InvalidParametersError("each bump needs a positive width")
    upper = max(c + 14.0 * w for c, w in bumps)
    pts = {p for c, w in bumps for p in (max(c - 14.0 * w, 0.0), max(c, 0.0)) if 0.0 < p < upper}
    return integrate_panels(g, [0.0, *sorted(pts), upper], spec, params)


def integrate_panels(g, edges: Sequence[float], spec: QuadSpec = DEFAULT_QUAD,
                     params: tuple | None = None):
    """Integrate g over [edges[0], edges[-1]], for one integrand or a batch.

    ``g(u)`` returns one value per node, and the result is a float.  Given
    ``params``, a tuple of floats or of arrays of one entry per spot, g is
    one integrand per spot: ``g(u, *args)``, each arg a param's entries for
    the spots being refined as rows (``as_rows``), returns their values as
    rows, shape ``(spots, N)`` (``(N,)`` for one spot), and the result has
    one entry per spot, in the shape of ``params[0]``.  Each gap between
    edges, best placed at g's kinks and around its mass, is a panel mapped
    onto [0, 1], one grid for all spots.  A spot's panels are refined
    together (``_refine``) until each moved by at most its share of
    max(abs_tol, rel_tol |value|), |value| from a one-slice pass, and the
    spot is then frozen, so each entry equals its single integral.  No call
    of g holds more than max_nodes nodes x panels x spots, and AccuracyError
    (the sums, and the summed last changes as their bound, shaped as the
    result) is raised only where one spot alone would exceed that.
    """
    e = np.asarray(edges, dtype=float)
    lo, width = e[:-1, None], np.diff(e)[:, None]
    n_p = len(width)
    n_x = 1 if params is None else np.size(params[0])
    every = () if params is None else [as_rows(p) for p in params]  # the args of all spots

    def panels(slices: int, rows: np.ndarray) -> np.ndarray:
        """Each panel's value per spot of ``rows``, shape (spots, panels)."""
        args = every if rows.size == n_x else [as_rows(p[rows]) for p in params]

        def block(t):
            vals = np.asarray(g((lo + width * t).ravel(), *args), dtype=float)
            return (width * vals.reshape(-1, n_p, t.size)).reshape(-1, t.size)
        return _panel_value(block, *_unit_slice_nodes(slices)).reshape(-1, n_p)

    def tol(first, _):
        return np.maximum(spec.abs_tol, spec.rel_tol * np.abs(first.sum(axis=1))) / n_p

    def shaped(a):  # one entry per spot, as the result is shaped
        return float(a[0]) if params is None else a.reshape(np.shape(params[0]))

    parts, change, converged = _refine(panels, n_x, n_p, tol, spec.max_nodes)
    total = parts.sum(axis=1)
    if not converged:
        raise AccuracyError(f"quadrature over [{edges[0]!r}, {edges[-1]!r}] did not converge "
                            f"(a panel last moved by {float(change.max())!r})",
                            best=shaped(total), bound=shaped(n_p * change))
    return shaped(total)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _slice_mids(lo, hi, slices) -> tuple:
    """Half a slice's width of each panel [lo, hi] cut into equal slices,
    and the midpoints of all their slices, panel after panel."""
    half = 0.5 * (hi - lo) / slices
    panel = np.repeat(np.arange(np.size(half)), slices)  # the panel of each slice
    j = np.arange(panel.size) - np.repeat(np.cumsum(slices) - slices, slices)
    h = np.reshape(half, -1)[panel]
    return half, np.reshape(lo, -1)[panel] + h * (2.0 * j + 1.0), h


def _slice_nodes(lo, hi, slices) -> tuple:
    """Half a slice's width and the 32-point Gauss-Legendre nodes of
    [lo, hi] cut into equal slices.  Given arrays, panel i is [lo[i], hi[i]]
    in slices[i] slices: its half-width is the i-th, its nodes come i-th in
    the concatenation, and each is what the panel alone would give."""
    half, mid, h = _slice_mids(lo, hi, slices)
    return half, (mid[:, None] + h[:, None] * _GL_NODES[None, :]).ravel()


@functools.lru_cache(maxsize=16)
def _unit_slice_nodes(slices: int) -> tuple:
    """``_slice_nodes`` of [0, 1], onto which ``integrate_panels`` maps
    every panel; cached, so the nodes are read-only."""
    half, nodes = _slice_nodes(0.0, 1.0, slices)
    nodes.flags.writeable = False
    return half, nodes


def _panel_value(g, half: float, nodes: np.ndarray) -> np.ndarray:
    """Composite 32-point Gauss-Legendre on the nodes of ``_slice_nodes``.

    ``g`` returns an (n_x, nodes) block; the result has one entry per row.
    """
    vals = g(nodes)
    return (vals.reshape(vals.shape[0], -1, _GL_NODES.size) @ _GL_WEIGHTS).sum(axis=1) * half


def _phase_rows(f: np.ndarray, w: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The (n_x, nodes) block Re(f(w) e^{-iwx}), one row per spot, from one
    cosine and one sine per node and spot."""
    phase = np.multiply.outer(xs, w)
    block = np.cos(phase)
    block *= f.real
    np.sin(phase, out=phase)
    phase *= f.imag
    block += phase
    return block


def _phased_panels(g, lo, hi, slices, xs: np.ndarray) -> np.ndarray:
    """The composite rule's sums of 2 Re(g(w) e^{-iwx}) over panels, one
    row per panel and one entry per spot x, from one call of g on the
    nodes of ``_slice_nodes`` (lo, hi and slices given as arrays).

    A node is its slice's midpoint c plus half t, t a Gauss-Legendre node
    of [-1, 1], so its phase e^{-iwx} is e^{-icx} e^{-i half t x}.  Per
    panel, one (slices x 32) @ (32 x n_x) product of g with the weighted
    offset table, and per slice one phase per spot, stand in for the
    phases of every node and spot.  A panel's row is what it alone gives:
    the products are per panel, and the rest is elementwise or summed
    within a panel."""
    half, mid, h = _slice_mids(lo, hi, slices)
    f = np.reshape(g((mid[:, None] + h[:, None] * _GL_NODES[None, :]).ravel()), (-1, 32))
    # the rule is symmetric, so the table's first 16 rows are the conjugates
    # of its last 16, mirrored
    offset = np.multiply.outer(np.multiply.outer(half, _GL_NODES[16:]), xs)
    table = np.empty((half.size, 32, xs.size), dtype=complex)
    table[:, 16:].real = np.cos(offset) * _GL_WEIGHTS[16:, None]
    table[:, 16:].imag = np.sin(offset) * -_GL_WEIGHTS[16:, None]
    table[:, :16] = table[:, :15:-1].conj()
    first = np.cumsum(slices) - slices  # each panel's first slice
    inner = np.empty((mid.size, xs.size), dtype=complex)
    for panel, a, b in zip(table, first, first + slices):
        np.matmul(f[a:b], panel, out=inner[a:b])
    phase = np.multiply.outer(mid, xs)
    vals = np.cos(phase)
    vals *= inner.real
    np.sin(phase, out=phase)
    phase *= inner.imag
    vals += phase
    return np.add.reduceat(vals, first, axis=0) * (2.0 * half)[:, None]


# the truncation search's first windows [w, 4w], 48 nodes each, as
# np.geomspace gives them one window at a time: an odd number of windows,
# so their one call never holds a multiple of 32 nodes
_TAIL_STARTS = (64.0, 256.0, 1024.0)
_TAIL_WINDOWS = np.concatenate([np.geomspace(w, 4.0 * w, 48) for w in _TAIL_STARTS])
_TAIL_WINDOWS.flags.writeable = False


def _refine(parts, n: int, k: int, tol, max_nodes: int, unit=None, floor: int = 0) -> tuple:
    """Slice doubling for n integrals of k parts each: the one refinement
    loop of every integral here.

    Pass m (1, 2, 4, ...) cuts each integral into m times its first slice
    count of 32-node slices, and costs its largest array, max(m x ``unit``,
    ``floor``): ``unit`` is one int for all integrals or an array of n, by
    default 32 k (one slice's nodes x parts), and ``floor`` is the size of
    an array every pass allocates whatever its slices.  ``parts(m, rows)``
    gives pass m of the k parts of each integral in the index array
    ``rows``, shape ``(len(rows), k)``; ``tol(first, rows)`` maps their
    first pass to the array of their tolerances.  Each pass evaluates
    every integral still refining, in as few calls of ``parts`` as keep
    each within max_nodes.  An integral is refined until none of its parts
    moved by more than its tolerance, and is then frozen.  One whose first
    pass alone would exceed max_nodes is never evaluated (its parts stay
    0), and the loop stops unconverged once the next doubling of one
    integral alone would exceed max_nodes.  Returns the parts (n, k), each
    integral's last change (its parts' largest; inf before a second pass),
    and whether every integral converged.
    """
    if unit is None:
        unit = 32 * k
    # an int unit keeps the cost checks scalar: an array of n for
    # integrate_panels too made each of its batched calls about a quarter
    # slower, in numpy bookkeeping that an int skips
    shared = isinstance(unit, int)

    def evaluate(rows, m):
        cost = max(unit * m, floor) if shared else np.maximum(unit[rows] * m, floor)
        if (cost * rows.size if shared else cost.sum()) <= max_nodes:
            return parts(m, rows)
        cuts, used = [0], 0  # greedy: each call takes integrals while they fit
        for i, c in enumerate(np.broadcast_to(cost, rows.shape)):
            if used + c > max_nodes and i > cuts[-1]:
                cuts.append(i)
                used = 0
            used += c
        cuts.append(rows.size)
        return np.concatenate([parts(m, rows[a:b]) for a, b in zip(cuts[:-1], cuts[1:])])

    fits = (max(unit, floor) if shared else np.maximum(unit, floor)) <= max_nodes
    rows = np.arange(n if fits else 0) if shared else np.flatnonzero(fits)  # the integrals refining
    left_out = rows.size < n
    out = None  # (parts, change) of every integral, once one is frozen early or left out
    if left_out:
        out = (np.zeros((n, k)), np.full(n, np.inf))
        if rows.size == 0:
            return (*out, False)
    m = 1
    cur = evaluate(rows, m)
    delta, tol = None, tol(cur, rows)
    converged = False
    while max((unit if shared else unit[rows].max()) * 2 * m, floor) <= max_nodes:
        prev, m = cur, 2 * m
        cur = evaluate(rows, m)
        delta = np.abs(cur - prev).max(axis=1)
        done = delta <= tol
        converged = bool(done.all())
        if converged:
            break
        if done.any():  # freeze these at the refinement they converged at
            out = out or (np.empty((n, k)), np.empty(n))
            out[0][rows[done]], out[1][rows[done]] = cur[done], delta[done]
            rows, cur, delta, tol = rows[~done], cur[~done], delta[~done], tol[~done]
    if delta is None:  # no second pass
        delta = np.full(rows.size, np.inf)
    if out is None:
        return cur, delta, converged
    out[0][rows], out[1][rows] = cur, delta
    return (*out, converged and not left_out)


def integrate_real_line(g, tail_order: float, spec: QuadSpec = DEFAULT_QUAD,
                        osc_hint: float = 0.0, *, spots):
    """Integrate g(w) e^{-iwx} over the whole real line at each of the
    spots x, a 1-D array of n_x reals; the result is a complex array of
    shape (n_x,) whose imaginary part is exactly 0.

    ``g(w)`` is spot-free: it returns one value per node.  The caller
    guarantees g(-w) = conj(g(w)), as for the transform of any real
    function; g is then evaluated once per node for the whole column, at
    w >= 0 only, and the interior is integrated as
    \\int_0^Omega 2 Re(g(w) e^{-iwx}) dw.  The integral applies each
    spot's phase itself, per Gauss-Legendre slice rather than per node
    (``_phased_panels``), so no nodes x n_x block is formed inside a panel.

    The caller also guarantees |g(w)| <= C |w|^-tail_order for large |w|
    with tail_order > 1.  C is estimated by sampling windows [w, 4w] of 48
    nodes, and the domain is truncated where the analytic tail bound
    2 C Omega^(1-p) / (p - 1) drops below half the absolute tolerance.
    The search starts at w = 64 and grows w fourfold while the bound is
    far from met, so its first windows, w = 64, 256 and 1024, are sampled
    in one call of g; a window off that grid, or past it, and the decay
    probe beyond Omega take one call each.  The sampled rows
    g(w) e^{-iwx} are formed in chunks of spots of at most max_nodes
    entries.  The interior is integrated on geometrically growing panels,
    each refined until converged and then frozen (``_refine``, each panel
    one integral whose parts are the n_x spots).  The tail constant, the
    decay probe and each panel's convergence test take the worst spot, so
    every entry carries the certificate its single-spot call would.  Each
    refinement round calls g once on the nodes of every panel still
    refining, split only where an array of the call would exceed
    max_nodes: its nodes, its slices x n_x or its 32 x n_x offset table
    per panel; every panel's value, and so the result, is what refining
    the panels one by one gives.  AccuracyError carries the sum of every
    panel's current value as ``best``, shaped as the result, and the
    summed last changes plus the tail budget as ``bound``.

    ``osc_hint`` bounds the phase speed of g in radians per unit of w; it
    seeds each panel with enough slices to resolve the oscillation instead
    of discovering it by repeated refinement (0 seeds one slice).  A panel
    whose seeded first pass alone exceeds the node budget is never handed
    to g, and the integral raises AccuracyError.
    """
    p = float(tail_order)
    if p <= 1.0:
        raise InvalidParametersError("tail_order must exceed 1")
    spots = np.asarray(spots, dtype=float)
    n_x = spots.size

    def sampled(w, windows: int = 1) -> np.ndarray:
        """max |2 Re(g(w) e^{-iwx})| w^p over every spot, per window of
        equally many of the nodes w, from one call of g; the rows are
        formed in chunks of spots of at most max_nodes entries each."""
        wp = w**p
        f, step, worst = g(w), max(1, spec.max_nodes // w.size), np.zeros(windows)
        for a in range(0, n_x, step):
            block = _phase_rows(f, w, spots[a:a + step])
            block *= 2.0
            np.abs(block, out=block)
            block *= wp
            worst = np.maximum(worst, block.reshape(block.shape[0], windows, -1).max(axis=(0, 2)))
        return worst

    tail_budget = 0.5 * spec.abs_tol

    # grow the truncation point until the tail bound is met: the windows
    # [w, 4w] at w = 64 4^j come from one call while the point stays on
    # that grid, and any other window from a call of its own
    on_grid = sampled(_TAIL_WINDOWS, len(_TAIL_STARTS))
    omega = 64.0
    c_est = 0.0
    for j in range(64):
        if j < len(_TAIL_STARTS) and omega == _TAIL_STARTS[j]:
            c_est = float(on_grid[j])
        else:
            c_est = float(sampled(np.geomspace(omega, 4.0 * omega, 48))[0])
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
        worst = float(sampled(np.geomspace(omega, 8.0 * omega, 16))[0])
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
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    tol = 0.5 * spec.abs_tol * np.maximum((hi - lo) / omega, 1e-3)
    start = np.maximum(1.0, np.ceil((hi - lo) * osc_hint / 40.0))

    def panels(m, rows):
        """Pass m of each panel of ``rows``, from one call of g on all their
        nodes, shape (panels, n_x)."""
        return _phased_panels(g, lo[rows], hi[rows], (start[rows] * m).astype(int), spots)

    # a pass's largest array per first-pass slice is its nodes or its
    # slices x spots, and never less than its 32 x spots offset table
    parts, change, converged = _refine(panels, lo.size, n_x, lambda _, rows: tol[rows],
                                       spec.max_nodes, start * max(32, n_x), 32 * n_x)
    total = np.zeros(n_x, dtype=complex)
    for part in parts:  # in panel order, one panel's values at a time
        total += part
    if not converged:
        bad = int(np.argmax(change > tol))
        raise AccuracyError(f"panel [{float(lo[bad])!r}, {float(hi[bad])!r}] did not converge "
                            f"within the budget of {spec.max_nodes} (last refinement changed by "
                            f"{float(change[bad])!r})",
                            best=total, bound=float(change.sum()) + tail_budget)
    return total
