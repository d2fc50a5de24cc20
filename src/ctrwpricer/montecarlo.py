"""Monte Carlo oracle: exact simulation of the pure-jump log-price.

Between jumps the log-price is constant, so terminal states can be drawn
without discretisation error: a Poisson jump count, then the sum of that
many iid jumps (``densities.sample_sum``).  Families closed under
convolution draw that sum in one step, so their cost per path does not
grow with lam*T; the tempered power tail draws its whole increment as a
difference of two inverse-Gaussian variables.  The first-passage
estimator draws every jump.  It, and the families summed jump by jump,
refuse a block expected to make more than ``densities.MAX_JUMP_DRAWS``
draws.  Paths are organised in fixed-size blocks, each driven by its own
counter-based Philox stream keyed on (seed, block index) (Salmon et al.
2011, "Parallel random numbers: as easy as 1, 2, 3"), so a block's draws
do not depend on which thread makes them, or when.

The blocks run on one thread per core the process may use; numpy's
generators release the interpreter lock while they draw.  With W threads,
worker w takes blocks w, w + W, ... in order, the calling thread being
worker 0, so a one-block call starts no thread.  A failing block raises
what a serial run raises, the error of the lowest-numbered failing block.
The families summed jump by jump run no more blocks at once than keep
their expected draws together within ``densities.MAX_JUMP_DRAWS``.  A
non-finite log-price or log-strike, or a horizon ``check_horizon`` refuses,
is refused before any block is drawn.

Each estimator's worker reduces its block, where it was drawn, to the
count, mean and sum of squared deviations of its discounted payoffs (of
each antithetic pair's mean payoff), by numpy's pairwise reductions.  The
estimate merges these triples in block order (Chan, Golub & LeVeque 1983,
"Algorithms for computing the sample variance"), so it holds nothing per
path beyond the blocks in flight, whatever the path count, and has the
same bits at any thread count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .densities import (
    MAX_JUMP_DRAWS,
    SUMMED_BY_JUMP,
    check_draw_budget,
    sample,
    sample_sum,
    symmetry_point,
)
from .errors import InvalidParametersError, UnsupportedFamilyError
from .european import Contract
from .riskneutral import MarketParams

__all__ = [
    "MCConfig",
    "MCEstimate",
    "simulate_terminal",
    "price_european_mc",
    "price_american_binary_put_mc",
    "martingale_check",
]

BLOCK = 1 << 14  # paths per substream
# threads that run blocks: one per core this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@dataclass(frozen=True)
class MCConfig:
    paths: int = 100_000
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        if self.paths < 100:
            raise InvalidParametersError("need at least 100 paths for a usable standard error")
        if not (0 <= self.seed < 2**63):
            raise InvalidParametersError("seed must fit in a non-negative 63-bit integer")


@dataclass(frozen=True)
class MCEstimate:
    value: float
    std_error: float
    paths: int
    seed: int

    def within(self, target: float, n_se: float = 3.0) -> bool:
        return abs(self.value - target) <= n_se * self.std_error


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def _blocks(paths: int):
    for block, lo in enumerate(range(0, paths, BLOCK)):
        yield block, min(BLOCK, paths - lo)


def _map_blocks(run_block, paths: int, width: int) -> list:
    """``run_block(block, n)`` of every block of ``paths``, in block order,
    on ``min(width, blocks)`` threads, the calling thread among them.

    Worker w runs blocks w, w + width, ... in order and stops at its first
    failing block; the lowest-numbered failing block's error is raised.
    """
    blocks = list(_blocks(paths))
    width = min(width, len(blocks))
    results = [None] * len(blocks)
    errors = [None] * len(blocks)

    def work(w):
        for i in range(w, len(blocks), width):
            try:
                results[i] = run_block(*blocks[i])
            except Exception as exc:  # re-raised on the calling thread below
                errors[i] = exc
                return

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, width)]
    for t in threads:
        t.start()
    try:
        work(0)
    finally:
        for t in threads:
            t.join()
    failed = next((exc for exc in errors if exc is not None), None)
    if failed is not None:
        raise failed
    return results


def _width(draws_per_block: float) -> int:
    """Blocks to run at once: one per worker, but no more than keep their
    expected jump draws together within MAX_JUMP_DRAWS."""
    if draws_per_block <= 0.0:
        return _WORKERS
    return max(1, min(_WORKERS, int(MAX_JUMP_DRAWS // draws_per_block)))


def _check_start(params: MarketParams, x0: float, horizon: float) -> None:
    if not math.isfinite(x0):
        raise InvalidParametersError("x0 must be a finite log-price")
    params.check_horizon(horizon)  # within numpy's Poisson draw, which stops near 9.2e18


def _terminal_block(params: MarketParams, x0: float, lam_t: float,
                    rng: np.random.Generator, n: int,
                    pivot: float | None) -> np.ndarray:
    # Draw for the full block even when fewer paths are needed: the sum
    # sampler makes several bulk draws whose stream offsets depend on the
    # counts, so slicing a full block is the only way a partial block can
    # be a prefix of the same block drawn in a longer run.
    counts = rng.poisson(lam_t, size=BLOCK)
    sums = sample_sum(params.density, rng, counts, lam_t)
    counts, sums = counts[:n], sums[:n]
    if pivot is None:
        return x0 + sums
    mirrored = 2.0 * pivot * counts - sums
    return x0 + np.stack([sums, mirrored], axis=1)


def _terminal_blocks(params: MarketParams, x0: float, horizon: float,
                     config: MCConfig, reduce) -> list:
    """``reduce`` of each block's terminal log-prices, in block order."""
    _check_start(params, x0, horizon)
    pivot = None
    if config.antithetic:
        pivot = symmetry_point(params.density)
        if pivot is None:
            raise UnsupportedFamilyError(
                "antithetic sampling needs a jump law symmetric about a point"
            )
    lam_t = params.lam * horizon
    draws = BLOCK * lam_t if params.density.family in SUMMED_BY_JUMP else 0.0

    def run_block(block, n):
        xt = _terminal_block(params, x0, lam_t, _block_rng(config.seed, block), n, pivot)
        # a payoff or moment past the double range is inf or NaN: the CLI refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            return reduce(xt)

    return _map_blocks(run_block, config.paths, _width(draws))


def simulate_terminal(params: MarketParams, x0: float, horizon: float,
                      config: MCConfig) -> np.ndarray:
    """Terminal log-prices; shape (paths,) or (paths, 2) with antithetic pairs."""
    return np.concatenate(_terminal_blocks(params, x0, horizon, config, lambda xt: xt))


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one block's payoffs,
    an antithetic pair's payoffs (a row of two) taken as their mean."""
    if values.ndim == 2:
        values = values.mean(axis=1)
    mean = values.mean()
    dev = values - mean
    return values.shape[0], float(mean), float(np.multiply(dev, dev, out=dev).sum())


def _estimate(blocks: list, config: MCConfig) -> MCEstimate:
    """Mean and standard error from the blocks' ``_moments``, merged in
    block order (Chan, Golub & LeVeque 1983); the standard error is
    sqrt(M2 / (n - 1)) / sqrt(n) for the n merged payoffs."""
    n, mean, m2 = blocks[0]
    for nb, mean_b, m2_b in blocks[1:]:
        total = n + nb
        delta = mean_b - mean
        mean += delta * nb / total
        m2 += m2_b + delta * delta * n * nb / total
        n = total
    return MCEstimate(mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n), config.paths, config.seed)


def price_european_mc(params: MarketParams, contract: Contract, x0: float,
                      config: MCConfig) -> MCEstimate:
    """Discounted-payoff estimator for any European contract."""
    disc = math.exp(-params.r * contract.t_bar)
    payoff = contract.payoff.value
    blocks = _terminal_blocks(params, x0, contract.t_bar, config,
                              lambda xt: _moments(disc * payoff(xt)))
    return _estimate(blocks, config)


def price_american_binary_put_mc(params: MarketParams, k: float, x0: float,
                                 horizon: float, config: MCConfig) -> MCEstimate:
    """First-passage estimator for the American binary put.

    The claim pays 1 at the first jump time tau <= horizon with
    X(tau) <= k; the estimator discounts each hit at its exact hit time.
    Antithetic pairing is not defined for a first-passage payoff and is
    rejected.
    """
    if config.antithetic:
        raise UnsupportedFamilyError("antithetic sampling is not defined for first passage")
    _check_start(params, x0, horizon)
    if not math.isfinite(k):
        raise InvalidParametersError("k must be a finite log-strike")
    if x0 <= k:
        return MCEstimate(1.0, 0.0, config.paths, config.seed)
    check_draw_budget(BLOCK * params.lam * horizon, "first-passage simulation")

    def run_block(block, n):
        rng = _block_rng(config.seed, block)
        # Full-block simulation keeps partial blocks prefix-stable; the
        # survivor set, and with it every draw size, would otherwise
        # depend on the total path count.
        t = np.zeros(BLOCK)
        x = np.full(BLOCK, x0)
        out = np.zeros(BLOCK)
        alive = np.arange(BLOCK)
        while alive.size:
            t[alive] += rng.exponential(1.0 / params.lam, size=alive.size)
            expired = t[alive] > horizon
            alive = alive[~expired]
            if not alive.size:
                break
            x[alive] += sample(params.density, rng, alive.size)
            hit = x[alive] <= k
            hit_idx = alive[hit]
            out[hit_idx] = np.exp(-params.r * t[hit_idx])
            alive = alive[~hit]
        return _moments(out[:n])

    return _estimate(_map_blocks(run_block, config.paths, _WORKERS), config)


def martingale_check(params: MarketParams, x0: float, horizon: float,
                     config: MCConfig) -> dict:
    """Estimate E[e^{-r T} S_T] - S_0, which must vanish under a risk-neutral lam."""
    # the discount and spot are formed in each block, once the horizon and x0 are admitted
    blocks = _terminal_blocks(params, x0, horizon, config, lambda xt: _moments(
        math.exp(-params.r * horizon) * np.exp(xt) - math.exp(x0)))
    drift = _estimate(blocks, config)
    return {
        "drift": drift.value,
        "std_error": drift.std_error,
        "passed": abs(drift.value) <= 3.0 * drift.std_error,
        "paths": config.paths,
        "seed": config.seed,
    }
