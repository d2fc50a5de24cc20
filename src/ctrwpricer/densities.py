"""Jump-size distributions for the pure-jump log-price process.

Each family is parameterised by a location/scale-like pair (a, b).  The
characteristic function convention is

    char_fn(d, w) = E[exp(i w J)]

for a single jump J, extended to complex w where the defining integral
converges.  In particular ``char_fn(d, -1j)`` is E[e^J], the one-jump
exponential moment that drives risk-neutral calibration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergentMomentError,
    DomainError,
    InvalidParametersError,
    UnsupportedFamilyError,
    ValidationError,
)
from .numerics import expm1_ratio, log_gamma

__all__ = ["Family", "JumpDensity", "char_fn", "exp_moment", "pdf", "mean_var",
           "fit_from_moments", "sample", "sample_sum", "check_draw_budget",
           "symmetry_point", "MAX_JUMP_DRAWS", "SUMMED_BY_JUMP"]

EULER_GAMMA = float(np.euler_gamma)

# Expected jump draws that the blocks of paths in flight may make together:
# one block is refused above it, and montecarlo runs no more blocks at once
# than stay within it.  The per-jump summation holds the jumps, their
# cumulative sum and its shifted copy, 24 bytes a draw, so the blocks in
# flight at this budget peak near 200 MB together, on any number of cores.
MAX_JUMP_DRAWS = 1 << 23


class Family(enum.Enum):
    EXPONENTIAL = "exp"        # two-sided exponential, scales a (up) and b (down)
    DISCRETE = "discrete"      # +b with prob a, -b with prob 1-a
    CONSTANT = "constant"      # uniform on [a, b]
    GAUSSIAN = "gaussian"      # mean a, std b
    LOGISTIC = "logistic"      # location a, scale b
    GUMBEL = "gumbel"          # location a, scale b
    PARETO_HALF = "pareto"     # two-sided Pareto-like tail, index 1/2


@dataclass(frozen=True)
class JumpDensity:
    family: Family
    a: float
    b: float

    def __post_init__(self):
        f, a, b = self.family, self.a, self.b
        ok = {
            Family.EXPONENTIAL: a > 0 and b > 0,
            Family.DISCRETE: 0 <= a <= 1 and b > 0,
            Family.CONSTANT: a < b,
            Family.GAUSSIAN: b > 0,
            Family.LOGISTIC: b > 0,
            Family.GUMBEL: b > 0,
            Family.PARETO_HALF: 0 <= a <= 1 and 0 < b < 1,
        }[f]
        if not (ok and math.isfinite(a) and math.isfinite(b)):
            raise InvalidParametersError(
                f"invalid parameters (a={a!r}, b={b!r}) for family {f.value}"
            )

    @classmethod
    def exponential(cls, a: float, b: float) -> "JumpDensity":
        return cls(Family.EXPONENTIAL, a, b)

    def to_dict(self) -> dict:
        return {"family": self.family.value, "a": self.a, "b": self.b}

    @classmethod
    def from_dict(cls, d: dict) -> "JumpDensity":
        return cls(Family(d["family"]), float(d["a"]), float(d["b"]))


# Families not closed under convolution: sample_sum draws each of their jumps.
SUMMED_BY_JUMP = frozenset({Family.CONSTANT, Family.LOGISTIC, Family.GUMBEL})


def _guard_pole(den, what: str):
    if np.any(np.abs(den) < 1e-300):
        raise DomainError(f"characteristic function pole hit for {what}")


def char_fn(d: JumpDensity, omega):
    """One-jump characteristic function at real or complex omega (vectorised)."""
    w = np.asarray(omega, dtype=complex)
    a, b = d.a, d.b
    if d.family is Family.EXPONENTIAL:
        den = (1.0 - 1j * w * a) * (1.0 + 1j * w * b)
        _guard_pole(den, "two-sided exponential")
        out = 1.0 / den
    elif d.family is Family.DISCRETE:
        out = a * np.exp(1j * b * w) + (1.0 - a) * np.exp(-1j * b * w)
    elif d.family is Family.CONSTANT:
        out = np.exp(1j * b * w) * expm1_ratio(1j * (a - b) * w)
    elif d.family is Family.GAUSSIAN:
        out = np.exp(-0.5 * b * b * w * w + 1j * a * w)
    elif d.family is Family.LOGISTIC:
        z = 1j * b * w
        _guard_pole(_pole_distance(1.0 - z) * _pole_distance(1.0 + z), "logistic")
        # Gamma(1-z) Gamma(1+z) = pi z / sin(pi z), even in z; on the half
        # plane Im zeta >= 0 this form cannot overflow
        zeta = np.where(z.imag >= 0.0, z, -z)
        out = np.exp(1j * a * w + 1j * np.pi * zeta) / expm1_ratio(2j * np.pi * zeta)
    elif d.family is Family.GUMBEL:
        z = 1j * b * w
        _guard_pole(_pole_distance(1.0 - z), "gumbel")
        out = np.exp(1j * a * w + log_gamma(1.0 - z))
    elif d.family is Family.PARETO_HALF:
        sp = 2.0 * math.sqrt(math.pi)
        out = 1.0 - sp * (a * np.sqrt(1.0 - 1j * w * b)
                          + (1.0 - a) * np.sqrt(1.0 + 1j * w * b) - 1.0)
    else:  # pragma: no cover
        raise UnsupportedFamilyError(str(d.family))
    return out if out.shape else complex(out)


def _pole_distance(z):
    # distance of Gamma arguments from the poles at 0, -1, -2, ...
    z = np.asarray(z, dtype=complex)
    near = (np.abs(z.imag) < 1e-12) & (z.real < 0.5)
    dist = np.where(near, np.abs(z.real - np.round(z.real)) + np.abs(z.imag), 1.0)
    return np.where(near & (np.round(z.real) <= 0), dist, 1.0)


def exp_moment(d: JumpDensity) -> float:
    """E[e^J] for one jump; raises DivergentMomentError when infinite."""
    a, b = d.a, d.b
    if d.family is Family.EXPONENTIAL and a >= 1.0:
        raise DivergentMomentError(
            f"E[e^J] diverges for two-sided exponential with a={a!r} >= 1"
        )
    if d.family in (Family.LOGISTIC, Family.GUMBEL) and b >= 1.0:
        raise DivergentMomentError(
            f"E[e^J] diverges for {d.family.value} with b={b!r} >= 1"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        val = char_fn(d, -1j)
    if not (math.isfinite(val.real) and math.isfinite(val.imag)):
        raise DivergentMomentError(f"E[e^J] is not finite in double precision: {val!r}")
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)) or val.real <= 0.0:
        raise DivergentMomentError(f"exponential moment came out non-positive: {val!r}")
    return float(val.real)


def pdf(d: JumpDensity, x):
    """Jump-size density h(x) (vectorised).

    The Discrete family is purely atomic and has no density; the
    Pareto-half family returns the defining non-normalisable kernel.
    """
    x = np.asarray(x, dtype=float)
    a, b = d.a, d.b
    if d.family is Family.EXPONENTIAL:
        out = np.exp(np.where(x >= 0, -x / a, x / b)) / (a + b)
    elif d.family is Family.DISCRETE:
        raise UnsupportedFamilyError("the two-point family has no density")
    elif d.family is Family.CONSTANT:
        out = np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
    elif d.family is Family.GAUSSIAN:
        z = (x - a) / b
        out = np.exp(-0.5 * z * z) / (b * math.sqrt(2.0 * math.pi))
    elif d.family is Family.LOGISTIC:
        # sech^2 written through e^{-|z|} so large |x| underflows quietly
        z = np.abs(x - a) / (2.0 * b)
        sech = 2.0 * np.exp(-z) / (1.0 + np.exp(-2.0 * z))
        out = sech * sech / (4.0 * b)
    elif d.family is Family.GUMBEL:
        u = np.minimum(-(x - a) / b, 700.0)
        out = np.exp(u - np.exp(u)) / b
    elif d.family is Family.PARETO_HALF:
        ax = np.abs(x)
        coef = np.where(x >= 0, a, 1.0 - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(ax > 0,
                           math.sqrt(b) * coef * np.exp(-ax / b) / ax**1.5,
                           np.inf)
    else:  # pragma: no cover
        raise UnsupportedFamilyError(str(d.family))
    return out if out.shape else float(out)


def mean_var(d: JumpDensity) -> tuple[float, float]:
    """(mean, variance) of one jump.

    The Pareto-half family has a finite mean and variance even though the
    kernel is not normalisable in the usual sense; the values follow from
    the characteristic function.
    """
    a, b = d.a, d.b
    f = d.family
    if f is Family.EXPONENTIAL:
        return a - b, a * a + b * b
    if f is Family.DISCRETE:
        return (2.0 * a - 1.0) * b, 4.0 * a * (1.0 - a) * b * b
    if f is Family.CONSTANT:
        return 0.5 * (a + b), (b - a) ** 2 / 12.0
    if f is Family.GAUSSIAN:
        return a, b * b
    if f is Family.LOGISTIC:
        return a, math.pi**2 * b * b / 3.0
    if f is Family.GUMBEL:
        return a + b * EULER_GAMMA, math.pi**2 * b * b / 6.0
    if f is Family.PARETO_HALF:
        sp = math.sqrt(math.pi)
        m1 = sp * (2.0 * a - 1.0) * b
        return m1, 0.5 * sp * b * b - m1 * m1
    raise UnsupportedFamilyError(str(f))  # pragma: no cover


def fit_from_moments(family: Family, mu1: float, mu2: float) -> JumpDensity:
    """Invert mean_var: find (a, b) matching a target mean and variance."""
    if mu2 <= 0.0:
        raise InvalidParametersError("target variance must be positive")
    if family is Family.EXPONENTIAL:
        disc = 2.0 * mu2 - mu1 * mu1
        if disc <= 0.0:
            raise InvalidParametersError(
                "two-sided exponential needs mu1^2 < 2 mu2"
            )
        a = 0.5 * (mu1 + math.sqrt(disc))
        return JumpDensity(family, a, a - mu1)
    if family is Family.DISCRETE:
        b = math.sqrt(mu2 + mu1 * mu1)
        return JumpDensity(family, 0.5 * (1.0 + mu1 / b), b)
    if family is Family.CONSTANT:
        half = math.sqrt(3.0 * mu2)
        return JumpDensity(family, mu1 - half, mu1 + half)
    if family is Family.GAUSSIAN:
        return JumpDensity(family, mu1, math.sqrt(mu2))
    if family is Family.LOGISTIC:
        return JumpDensity(family, mu1, math.sqrt(3.0 * mu2) / math.pi)
    if family is Family.GUMBEL:
        b = math.sqrt(6.0 * mu2) / math.pi
        return JumpDensity(family, mu1 - b * EULER_GAMMA, b)
    if family is Family.PARETO_HALF:
        sp = math.sqrt(math.pi)
        b = math.sqrt(2.0 * (mu2 + mu1 * mu1) / sp)
        return JumpDensity(family, 0.5 * (1.0 + mu1 / (sp * b)), b)
    raise UnsupportedFamilyError(str(family))  # pragma: no cover


def sample(d: JumpDensity, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw jump sizes without rejection (vectorised)."""
    a, b = d.a, d.b
    f = d.family
    if f is Family.EXPONENTIAL:
        up = rng.random(size) < a / (a + b)
        mags = rng.exponential(1.0, size)
        return np.where(up, a * mags, -b * mags)
    if f is Family.DISCRETE:
        return np.where(rng.random(size) < a, b, -b)
    if f is Family.CONSTANT:
        return rng.uniform(a, b, size)
    if f is Family.GAUSSIAN:
        return a + b * rng.standard_normal(size)
    if f is Family.LOGISTIC:
        return rng.logistic(a, b, size)
    if f is Family.GUMBEL:
        return rng.gumbel(a, b, size)
    raise UnsupportedFamilyError(
        f"sampling is not available for family {f.value}"
    )


def check_draw_budget(expected: float, what: str) -> None:
    """Refuse, before drawing, a block of paths expected to make too many jump draws."""
    if not expected <= MAX_JUMP_DRAWS:
        raise ValidationError(
            f"{what} expects {expected:.4g} jump draws per block (paths * lam*T), "
            f"above the budget of {MAX_JUMP_DRAWS}"
        )


def sample_sum(d: JumpDensity, rng: np.random.Generator, counts: np.ndarray,
               lam_t: float) -> np.ndarray:
    """Per path, the sum of ``counts[i]`` iid jumps, with counts ~ Poisson(lam_t).

    Families closed under convolution draw the sum given its count
    (Cont & Tankov 2004, ch. 6), so the cost does not grow with lam_t:
    exponential as a binomial up/down split of two gamma sums, two-point
    as a binomial, Gaussian as one scaled normal.  The tempered power
    tail has infinite activity and no count: its increment is the
    difference of two inverse-Gaussian variables (Michael, Schucany &
    Haas 1976), drawn from lam_t alone.  The other families
    (``SUMMED_BY_JUMP``) draw every jump and are refused when
    counts.size * lam_t exceeds MAX_JUMP_DRAWS.  Draw sizes depend only
    on ``counts``, so equal counts and streams give equal sums.
    """
    a, b = d.a, d.b
    f = d.family
    if f is Family.PARETO_HALF:
        scale = 2.0 * math.sqrt(math.pi) * lam_t
        return (_wald(rng, scale * a, b, counts.size)
                - _wald(rng, scale * (1.0 - a), b, counts.size))
    if f in SUMMED_BY_JUMP:
        check_draw_budget(counts.size * lam_t, f"summing {f.value} jumps one by one")
        total = int(counts.sum())
        if not total:
            return np.zeros(counts.size)
        ends = np.cumsum(counts)
        cum = np.concatenate(([0.0], np.cumsum(sample(d, rng, total))))
        return cum[ends] - cum[ends - counts]
    sums = np.zeros(counts.size)
    nz = np.flatnonzero(counts)  # paths without jumps need no draw
    n = counts[nz]
    if f is Family.EXPONENTIAL:
        up = rng.binomial(n, a / (a + b))
        sums[nz] = a * rng.standard_gamma(up) - b * rng.standard_gamma(n - up)
    elif f is Family.DISCRETE:
        sums[nz] = b * (2 * rng.binomial(n, a) - n)
    else:
        sums[nz] = a * n + b * np.sqrt(n) * rng.standard_normal(n.size)
    return sums


def _wald(rng: np.random.Generator, c: float, b: float, size: int) -> np.ndarray:
    # inverse Gaussian with mean c*b/2 and shape c^2*b/2; as c -> 0 it
    # tends to the point mass at 0, which numpy's wald does not accept
    shape = 0.5 * c * c * b
    if shape == 0.0:
        return np.zeros(size)
    return rng.wald(0.5 * c * b, shape, size)


def symmetry_point(d: JumpDensity) -> float | None:
    """Reflection point x0 with J and 2*x0 - J equal in law, if one exists."""
    f, a, b = d.family, d.a, d.b
    if f is Family.GAUSSIAN or f is Family.LOGISTIC:
        return a
    if f is Family.CONSTANT:
        return 0.5 * (a + b)
    if f is Family.DISCRETE and abs(a - 0.5) < 1e-15:
        return 0.0
    if f is Family.EXPONENTIAL and abs(a - b) < 1e-15:
        return 0.0
    if f is Family.PARETO_HALF and abs(a - 0.5) < 1e-15:
        return 0.0
    return None
