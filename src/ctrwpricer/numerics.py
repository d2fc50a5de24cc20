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
call.  Every integral needs two passes to be judged, so the first two
come from one call of the integrand wherever both fit the node budget.
An inversion takes a batch, one row per spot, and judges each row by its
own threshold; a panel integral hands its integrand each spot's
constants as rows (``as_rows``: a single spot's as floats), refines each
spot until its own tolerance holds and freezes it there, as its single
integral would stop, and splits every call of the integrand to fit the
node budget.  The real-line integral takes one form: a stack of
integrands, one per model, each a factor of its own applied to one
spot-free factor they share (one value per node), and the spots, whose
phases e^{-iwx} it applies itself, per Gauss-Legendre slice rather than
per node; one model is a stack of one.  It holds the column to its
worst spot, samples every model's first three tail windows in one call,
refines all panels of all models together, one call of the shared
factor per round on each distinct panel geometry, and charges the budget
a call's nodes, slices x spots or 32 x spots table per panel, never
nodes x spots; it forms the tail samples' nodes x spots in chunks of
spots within the budget.  Every model keeps the nodes and values of its
own integral, and a stack raises what its first failing model would
raise alone.  Every finite-horizon pricer of ``european``, ``american``
and ``fourier`` takes its spots through one adapter (``over_spots``); the
perpetual formulas and the Monte Carlo entries take one float log-price
and check it themselves.  Every estimate in an AccuracyError is mapped as
its price is (``mapped``).  Special functions are thin wrappers over
scipy.special, which the first of them to run imports: only the
exponential closed forms, Black-Scholes and the Gumbel law need it, and
it takes longer to import than numpy and this package together.
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
    spot is then frozen, so each entry equals its single integral.  The
    one- and two-slice passes come from one call of g, on 96 nodes per
    panel, wherever they fit the budget together.  No call of g holds
    more than max_nodes nodes x panels x spots, and AccuracyError (the
    sums, and the summed last changes as their bound, shaped as the
    result) is raised only where one spot alone would exceed that.
    """
    e = np.asarray(edges, dtype=float)
    lo, width = e[:-1, None], np.diff(e)[:, None]
    n_p = len(width)
    n_x = 1 if params is None else np.size(params[0])
    every = () if params is None else [as_rows(p) for p in params]  # the args of all spots

    def panels(passes: tuple, rows: np.ndarray) -> list:
        """Each pass's panel values per spot of ``rows``, shape (spots,
        panels), from one call of g on the nodes of all the passes."""
        args = every if rows.size == n_x else [as_rows(p[rows]) for p in params]
        halves, t = _unit_pass_nodes(passes)
        vals = np.asarray(g((lo + width * t).ravel(), *args), dtype=float)
        vals = vals.reshape(-1, n_p, t.size)
        out, a = [], 0
        for m, half in zip(passes, halves):
            b = a + 32 * m
            out.append(_gl_sums((width * vals[..., a:b]).reshape(-1, b - a), half).reshape(-1, n_p))
            a = b
        return out

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
def _unit_pass_nodes(passes: tuple) -> tuple:
    """``_slice_nodes`` of [0, 1], onto which ``integrate_panels`` maps
    every panel, in each pass's slice count: their half-widths, and all
    their nodes, pass after pass; cached, so the nodes are read-only."""
    rules = [_slice_nodes(0.0, 1.0, m) for m in passes]
    nodes = np.concatenate([each for _, each in rules])
    nodes.flags.writeable = False
    return tuple(half for half, _ in rules), nodes


def _gl_sums(vals: np.ndarray, half: float) -> np.ndarray:
    """Composite 32-point Gauss-Legendre of an (n_x, nodes) block of
    values on the nodes of ``_slice_nodes``, one entry per row."""
    return (vals.reshape(vals.shape[0], -1, _GL_NODES.size) @ _GL_WEIGHTS).sum(axis=1) * half


def _phased_panels(g, lo, hi, slices, xs: np.ndarray, factors, model=None) -> np.ndarray:
    """The composite rule's sums of 2 Re(F(w) e^{-iwx}) over panels, one
    row per panel and one entry per spot x, from one call of g on the
    nodes of ``_slice_nodes`` (lo, hi and slices given as arrays).  Panel
    i's F(w) is factors[model[i]](w, g(w)), each factor called once on the
    nodes of all its panels; without ``model`` every panel takes
    factors[0].

    A node is its slice's midpoint c plus half t, t a Gauss-Legendre node
    of [-1, 1], so its phase e^{-iwx} is e^{-icx} e^{-i half t x}.  Per
    panel, one (slices x 32) @ (32 x n_x) product of F with the weighted
    offset table, and per slice one phase per spot, stand in for the
    phases of every node and spot.  Panels of one geometry (lo, hi,
    slices), whichever factors they take, share one evaluation of g on
    their nodes, one offset table and one set of slice phases.  A panel's
    row is what it alone gives: the products are per panel, and the rest
    is elementwise or summed within a panel."""
    if model is None:  # one integrand: no two panels share a geometry
        lo_u, hi_u, sl_u, which = lo, hi, slices, None
    else:
        ids, firsts, which = {}, [], np.empty(np.size(lo), dtype=int)
        for i, key in enumerate(zip(lo.tolist(), hi.tolist(), slices.tolist())):
            which[i] = ids.setdefault(key, len(firsts))
            if which[i] == len(firsts):
                firsts.append(i)
        lo_u, hi_u, sl_u = lo[firsts], hi[firsts], slices[firsts]
    half, mid, h = _slice_mids(lo_u, hi_u, sl_u)
    w = mid[:, None] + h[:, None] * _GL_NODES[None, :]
    gw = np.reshape(g(w.ravel()), (-1, 32))
    # the rule is symmetric, so the table's first 16 rows are the conjugates
    # of its last 16, mirrored
    offset = np.multiply.outer(np.multiply.outer(half, _GL_NODES[16:]), xs)
    table = np.empty((half.size, 32, xs.size), dtype=complex)
    np.multiply(np.cos(offset), _GL_WEIGHTS[16:, None], out=table[:, 16:].real)
    np.multiply(np.sin(offset, out=offset), -_GL_WEIGHTS[16:, None], out=table[:, 16:].imag)
    np.conjugate(table[:, :15:-1], out=table[:, :16])
    phase = np.multiply.outer(mid, xs)
    cos = np.cos(phase)
    sin = np.sin(phase, out=phase)

    def sums(factor, u, sl, owned: bool):
        """The rows of the panels of geometries ``u`` (None: all), whose
        slices are ``sl``; ``owned``: the slice phases are theirs alone."""
        f = np.reshape(factor(w[sl].ravel(), gw[sl].ravel()), (-1, 32))
        n_sl = sl_u if u is None else sl_u[u]
        first = np.cumsum(n_sl) - n_sl  # each panel's first slice
        inner = np.empty((f.shape[0], xs.size), dtype=complex)
        # one stacked product per run of panels of equal slice counts: numpy
        # takes each panel's (slices x 32) @ (32 x n_x) product as the
        # panel's own call would
        runs = [0, *(np.flatnonzero(np.diff(n_sl)) + 1).tolist(), n_sl.size]
        counts, starts = n_sl.tolist(), first.tolist()
        for i, j in zip(runs[:-1], runs[1:]):
            count, a = counts[i], starts[i]
            b = a + (j - i) * count
            np.matmul(f[a:b].reshape(j - i, count, 32), table[i:j] if u is None else table[u[i:j]],
                      out=inner[a:b].reshape(j - i, count, xs.size))
        c, s = (cos, sin) if owned else (cos[sl], sin[sl])
        c *= inner.real
        s *= inner.imag
        c += s
        return np.add.reduceat(c, first, axis=0) * (2.0 * (half if u is None else half[u]))[:, None]

    if which is None:
        return sums(factors[0], None, slice(None), True)
    out = np.empty((np.size(lo), xs.size))
    start_u = np.cumsum(sl_u) - sl_u
    for m, factor in enumerate(factors):
        rows = np.flatnonzero(model == m)
        if rows.size:
            u = which[rows]
            n_sl = sl_u[u]
            # the slices of the geometries u, in their order
            sl = np.arange(n_sl.sum()) + np.repeat(start_u[u] - (np.cumsum(n_sl) - n_sl), n_sl)
            out[rows] = sums(factor, u, sl, False)
    return out


# the truncation search's first windows [w, 4w], 48 nodes each, as
# np.geomspace gives them one window at a time: an odd number of windows,
# so their one call never holds a multiple of 32 nodes
_TAIL_STARTS = (64.0, 256.0, 1024.0)
_TAIL_WINDOWS = np.concatenate([np.geomspace(w, 4.0 * w, 48) for w in _TAIL_STARTS])[None]
_TAIL_WINDOWS.flags.writeable = False


def _refine(parts, n: int, k: int, tol, max_nodes: int, unit=None, floor: int = 0,
            group=None) -> tuple:
    """Slice doubling for n integrals of k parts each: the one refinement
    loop of every integral here.

    Pass m (1, 2, 4, ...) cuts each integral into m times its first slice
    count of 32-node slices, and costs its largest array, max(m x ``unit``,
    ``floor``): ``unit`` is one int for all integrals or an array of n, by
    default 32 k (one slice's nodes x parts), and ``floor`` is the size of
    an array every pass allocates whatever its slices.  ``parts(passes,
    rows)`` gives each pass m of the tuple ``passes`` of the k parts of
    each integral in the index array ``rows``, a list of one
    ``(len(rows), k)`` array per pass, from one call of the integrand;
    ``tol(first, rows)`` maps their first pass to the array of their
    tolerances.  Every integral needs a second pass to be judged, so the
    first two are evaluated together, at the sum of their costs, wherever
    the costliest integral's two fit max_nodes, and one after the other
    where only its second fits.  Each later pass evaluates every integral
    still refining.  An evaluation takes as few calls of ``parts`` as keep
    each within max_nodes; a part's value is the same whichever call
    gives it.  An integral is refined until none of its parts moved by
    more than its tolerance, and is then frozen.  One whose first pass
    alone would exceed max_nodes is never evaluated (its parts stay 0),
    and the loop stops unconverged once the next doubling of one integral
    alone would exceed max_nodes.  Given ``group``, an array of n labels
    0, 1, ... (ascending), that stop is per group: a group whose costliest
    refining integral cannot double stops there, and the others go on, so
    each group ends as it would refined alone.  Returns the parts (n, k),
    each integral's last change (its parts' largest; inf before a second
    pass), and whether every integral converged.
    """
    if unit is None:
        unit = 32 * k
    # an int unit keeps the cost checks scalar: an array of n for
    # integrate_panels too made each of its batched calls about a quarter
    # slower, in numpy bookkeeping that an int skips
    shared = isinstance(unit, int)

    def cost(rows, passes):
        """The cost of ``passes`` of each integral of ``rows``: one int
        for all of them or an array of one per integral."""
        if shared:
            return sum(max(unit * m, floor) for m in passes)
        u = unit[rows]
        c = np.maximum(u * passes[0], floor)
        for m in passes[1:]:
            c += np.maximum(u * m, floor)
        return c

    def widest(rows, passes) -> bool:
        """Whether ``passes`` of the costliest integral of ``rows`` fit: a
        pass's cost grows with the unit, so that is the largest unit's."""
        u = unit if shared else float(unit[rows].max())
        return sum(max(u * m, floor) for m in passes) <= max_nodes

    def evaluate(rows, passes):
        c = cost(rows, passes)
        if (c * rows.size if shared else c.sum()) <= max_nodes:
            return parts(passes, rows)
        cuts, used = [0], 0  # greedy: each call takes integrals while they fit
        for i, ci in enumerate(np.broadcast_to(c, rows.shape)):
            if used + ci > max_nodes and i > cuts[-1]:
                cuts.append(i)
                used = 0
            used += ci
        cuts.append(rows.size)
        calls = [parts(passes, rows[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        return [np.concatenate(each) for each in zip(*calls)]

    def doubling(rows, m) -> np.ndarray:
        """Whether each integral of ``rows`` goes on to pass m: whether the
        costliest of its group fits."""
        costliest = np.zeros(group[-1] + 1)
        np.maximum.at(costliest, group[rows], unit[rows])
        return np.maximum(costliest * m, floor)[group[rows]] <= max_nodes

    fits = cost(slice(None), (1,)) <= max_nodes
    rows = np.arange(n if fits else 0) if shared else np.flatnonzero(fits)  # the integrals refining
    left_out = rows.size < n
    out = None  # (parts, change) of every integral, once one is frozen early or left out
    if left_out:
        out = (np.zeros((n, k)), np.full(n, np.inf))
        if rows.size == 0:
            return (*out, False)
    cur, *ahead = evaluate(rows, (1, 2) if widest(rows, (1, 2)) else (1,))
    m, delta, tol = 1, None, tol(cur, rows)
    converged = stopped = False
    while ahead or group is not None or widest(rows, (2 * m,)):
        if not ahead and group is not None:
            go = doubling(rows, 2 * m)
            if not go.any():
                break
            if not go.all():  # these groups stop here, unconverged
                stopped = True
                out = out or (np.empty((n, k)), np.empty(n))
                out[0][rows[~go]] = cur[~go]
                out[1][rows[~go]] = np.inf if delta is None else delta[~go]
                rows, cur, tol = rows[go], cur[go], tol[go]
                delta = None if delta is None else delta[go]
        prev, m = cur, 2 * m
        cur = ahead.pop() if ahead else evaluate(rows, (m,))[0]
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
    return (*out, converged and not (left_out or stopped))


def integrate_real_line(g, tail_order, spec: QuadSpec, osc_hint, *, spots, factors):
    """Integrate a stack of integrands F_m(w) e^{-iwx} over the whole real
    line at each of the spots x, a 1-D array of n_x reals, in one
    refinement; the result is a list of one complex array of shape (n_x,)
    per integrand, whose imaginary part is exactly 0 (an empty stack gives
    an empty list).

    F_m(w) = f_m(w, g(w)): ``factors`` holds one callable f_m per model,
    and ``tail_order`` and ``osc_hint`` one entry per factor.  g, the factor
    the models share, is spot-free: it returns one value per node.  The
    caller guarantees g(-w) = conj(g(w)), as for the transform of any real
    function, and each f_m must be Hermitian like g; g is then evaluated
    once per node for the whole column, at w >= 0 only, and the interior is
    integrated as \\int_0^Omega 2 Re(F_m(w) e^{-iwx}) dw.  The integral
    applies each spot's phase itself, per Gauss-Legendre slice rather than
    per node (``_phased_panels``), so no nodes x n_x block is formed inside
    a panel.  Each model keeps its own truncation point, tail order, phase
    seed, tolerances and panels, so its nodes and every value below are
    those of its own integral of F_m.  Each call of g serves all models: the
    tail windows on the shared grid and, in each round, every panel
    geometry (lo, hi, slices) that any model is refining, once, with its
    offset table and slice phases; each model's factor is called once on
    its own nodes.  A stack raises what the first of its models that fails
    would raise alone, with that model's message, ``best`` and ``bound``;
    an AccuracyError also carries the model's position as ``index``.

    The caller also guarantees |F_m(w)| <= C |w|^-p for large |w|, p the
    model's tail order, with p > 1.  C is estimated by sampling windows
    [w, 4w] of 48 nodes, and the domain is truncated where the analytic
    tail bound 2 C Omega^(1-p) / (p - 1) drops below half the absolute
    tolerance.  The search starts at w = 64 and grows w fourfold while the
    bound is far from met, so its first windows, w = 64, 256 and 1024, are
    sampled in one call of g, for every model; each round of windows off
    that grid, or past it, takes one call, and so do the decay probes
    beyond every Omega.  The sampled rows F_m(w) e^{-iwx} are formed in
    chunks of spots of at most max_nodes entries.  The interior is
    integrated on geometrically growing panels, each refined until
    converged and then frozen (``_refine``, each panel one integral whose
    parts are the n_x spots).  The tail constant, the decay probe and each
    panel's convergence test take the worst spot, so every entry carries
    the certificate its single-spot call would.  Each refinement round calls
    g once on the nodes of every panel still refining, split only where an
    array of the call would exceed max_nodes: a call is charged, over all
    models, the sum per panel of its nodes, its slices x n_x or its
    32 x n_x offset table, whichever is largest; the first round takes
    every panel's first two passes where they fit together.  Every panel's
    value, and so the result, is what refining the panels one by one
    gives.  AccuracyError carries the sum of every panel's current value
    as ``best``, shaped as the result, and the summed last changes plus
    the tail budget as ``bound``.

    Each ``osc_hint`` bounds the phase speed of F_m(w) e^{-iwx} in radians
    per unit of w; it seeds each panel with a slice per 40 radians, enough
    to resolve the oscillation instead of discovering it by repeated
    refinement (0 seeds one slice).  It sets only the cost: every panel
    is still judged by its second pass.  A panel whose seeded first pass
    alone exceeds the node budget is never handed to g, and the integral
    raises AccuracyError.
    """
    if not len(tail_order) == len(osc_hint) == len(factors):
        raise InvalidParametersError("a stack takes one tail order and one phase seed per factor")
    p = [float(order) for order in tail_order]
    spots = np.asarray(spots, dtype=float)
    n_x = spots.size
    tail_budget = 0.5 * spec.abs_tol
    # the error each model's own integral raises, once it is known
    failed = [None if q > 1.0 else InvalidParametersError("tail_order must exceed 1") for q in p]

    def sampled(w: np.ndarray, models: list, windows: int = 1) -> list:
        """Per model, max |2 Re(F(w) e^{-iwx})| w^p over every spot, per
        window of equally many of its nodes: w holds one row of nodes for
        all the models or one row each, and g is called once on all rows.
        The rows are formed in chunks of spots of at most max_nodes
        entries, each spot's phases once per row of w."""
        shared = w.shape[0] == 1
        gw = g(w[0]) if shared else np.reshape(g(w.ravel()), w.shape)
        rows, worst = [], []  # per model its nodes, F and w^p
        for j, i in enumerate(models):
            wj, gj = (w[0], gw) if shared else (w[j], gw[j])
            rows.append((wj, factors[i](wj, gj), wj**p[i]))
            worst.append(0.0)
        step = max(1, spec.max_nodes // w.shape[1])
        for a in range(0, n_x, step):
            for j, (wj, f, wp) in enumerate(rows):
                if j == 0 or not shared:
                    cos = np.multiply.outer(spots[a:a + step], wj)
                    sin = np.sin(cos)
                    np.cos(cos, out=cos)
                last = not shared or j == len(rows) - 1  # the phases are not needed again
                block = cos if last else cos.copy()
                block *= f.real
                s = sin if last else sin.copy()
                s *= f.imag
                block += s
                block *= 2.0
                np.abs(block, out=block)
                block *= wp
                worst[j] = np.maximum(worst[j], block.reshape(-1, windows, wj.size // windows)
                                      .max(axis=(0, 2)))
        return worst

    def beyond(models: list, ratio: float, num: int) -> np.ndarray:
        """Each model's row np.geomspace(Omega, ratio Omega, num)."""
        if len(models) == 1:  # the scalar form is the cheaper and gives the same bits
            return np.geomspace(omega[models[0]], ratio * omega[models[0]], num)[None]
        om = np.array([omega[i] for i in models])
        return np.geomspace(om, ratio * om, num, axis=-1)

    # grow each truncation point until its tail bound is met, window by
    # window [w, 4w]: those at w = 64 4^j come from one call while a point
    # stays on that grid, and each round of calls samples every model's
    # next window off it
    omega, c_est, windows = [64.0] * len(factors), [0.0] * len(factors), [0] * len(factors)

    def searches_on(i, c: float) -> bool:
        """Whether model i's search goes on past a window of estimate c."""
        c_est[i] = c
        windows[i] += 1
        if c == 0.0:
            return False
        needed = (2.0 * c / ((p[i] - 1.0) * tail_budget)) ** (1.0 / (p[i] - 1.0))
        if needed <= omega[i]:
            return False
        omega[i] = min(needed, 4.0 * omega[i])
        if windows[i] < 64:
            return True
        failed[i] = TailBoundError("could not find a truncation point satisfying the tail bound",
                                   best=None, bound=c)
        return False

    searching = [i for i, err in enumerate(failed) if err is None]
    if searching:
        on_grid = dict(zip(searching, sampled(_TAIL_WINDOWS, searching, len(_TAIL_STARTS))))
    while searching:
        off = []
        for i in searching:
            while windows[i] < len(_TAIL_STARTS) and omega[i] == _TAIL_STARTS[windows[i]]:
                if not searches_on(i, float(on_grid[i][windows[i]])):
                    break
            else:
                off.append(i)
        if not off:
            break
        searching = [i for i, c in zip(off, sampled(beyond(off, 4.0, 48), off))
                     if searches_on(i, float(c[0]))]

    # sanity-check the declared decay beyond each truncation point
    probed = [i for i, err in enumerate(failed) if err is None and c_est[i] > 0.0]
    if probed:
        for i, worst in zip(probed, sampled(beyond(probed, 8.0, 16), probed)):
            worst = float(worst[0])
            if worst > 10.0 * c_est[i]:
                failed[i] = TailBoundError(
                    f"sampled decay beyond Omega={omega[i]!r} contradicts "
                    f"tail_order={p[i]!r} (coefficient {worst!r} vs {c_est[i]!r})",
                    best=None,
                    bound=worst,
                )

    # geometric panels per model: [0, h], [h, 2h], [2h, 4h], ...
    models = [i for i, err in enumerate(failed) if err is None]
    lo, hi, tol, start, own = [], [], [], [], []
    for i in models:
        edges = [0.0, min(1.0, omega[i])]
        while edges[-1] < omega[i]:
            edges.append(min(2.0 * edges[-1], omega[i]))
        lo.append(np.array(edges[:-1]))
        hi.append(np.array(edges[1:]))
        tol.append(0.5 * spec.abs_tol * np.maximum((hi[-1] - lo[-1]) / omega[i], 1e-3))
        start.append(np.maximum(1.0, np.ceil((hi[-1] - lo[-1]) * osc_hint[i] / 40.0)))
        at = own[-1].stop if own else 0
        own.append(slice(at, at + lo[-1].size))  # the model's panels in the stack
    group = None  # each panel's model, in a stack of more than one
    if len(models) > 1:
        group = np.repeat(np.arange(len(models)), [each.size for each in lo])
        lo, hi, tol, start = (np.concatenate(each) for each in (lo, hi, tol, start))
    elif models:
        lo, hi, tol, start = lo[0], hi[0], tol[0], start[0]
    live = [factors[i] for i in models]

    def panels(passes, rows):
        """Each pass of each panel of ``rows``, shape (panels, n_x), from
        one call of g on all their distinct geometries."""
        every = np.concatenate([rows] * len(passes))
        slices = np.concatenate([start[rows] * m for m in passes]).astype(int)
        sums = _phased_panels(g, lo[every], hi[every], slices, spots, live,
                              None if group is None else group[every])
        return [sums[k * rows.size:(k + 1) * rows.size] for k in range(len(passes))]

    # a pass's largest array per first-pass slice is its nodes or its
    # slices x spots, and never less than its 32 x spots offset table
    results = [None] * len(factors)
    if models:
        parts, change, converged = _refine(panels, lo.size, n_x, lambda _, rows: tol[rows],
                                           spec.max_nodes, start * max(32, n_x), 32 * n_x, group)
        for i, at in zip(models, own):
            total = np.zeros(n_x, dtype=complex)
            for part in parts[at]:  # in panel order, one panel's values at a time
                total += part
            results[i] = total
            if not (converged or np.all(change[at] <= tol[at])):
                bad = at.start + int(np.argmax(change[at] > tol[at]))
                failed[i] = AccuracyError(
                    f"panel [{float(lo[bad])!r}, {float(hi[bad])!r}] did not converge "
                    f"within the budget of {spec.max_nodes} (last refinement changed by "
                    f"{float(change[bad])!r})",
                    best=total, bound=float(change[at].sum()) + tail_budget)
    for i, err in enumerate(failed):
        if err is not None:
            if isinstance(err, AccuracyError):
                err.index = i
            raise err
    return results
