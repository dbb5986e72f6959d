"""The q-Gaussian distribution family with 1 < q < 3.

Density, normalization constant, complementary CDF of the absolute value,
the tail-exponent relations, and an exact sampler used for synthetic
validation.  The location parameter is fixed at zero throughout the
absolute-returns pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import Hyp2F1Args, gamma_ratio, hyp2f1, hyp2f1_tail_remainder

__all__ = [
    "QGaussianParams",
    "TailExponent",
    "exp_q",
    "normalization",
    "pdf",
    "ccdf_abs",
    "q_to_tail",
    "tail_to_q",
    "sample",
]


@dataclass(frozen=True)
class QGaussianParams:
    """Parameter triple (q, beta, mu) of one heavy-tailed distribution.

    q is the entropic index controlling tail weight, beta the inverse
    temperature setting the scale, mu the location (zero everywhere in the
    returns pipeline).
    """

    q: float
    beta: float
    mu: float = 0.0

    def __post_init__(self):
        if not 1.0 < self.q < 3.0:
            raise ValueError(f"q must lie in (1, 3), got q={self.q}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got beta={self.beta}")

    @property
    def b_exponent(self) -> float:
        """The decay exponent 1/(q-1) of the density kernel."""
        return 1.0 / (self.q - 1.0)


@dataclass(frozen=True)
class TailExponent:
    """Asymptotic exceedance exponent alpha: P(|X| > x) ~ x^(-alpha)."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"tail exponent must be positive, got {self.alpha}")


def exp_q(q: float, x):
    """Deformed exponential [1 + (1-q)x]_+^(1/(1-q)); plain exp at q = 1.

    Accepts scalars or numpy arrays; a scalar x returns a float.  The
    positive-part cutoff applies where 1 + (1-q)x <= 0 (only reachable for
    q < 1 on negative-kernel arguments, or q > 1 on positive ones).
    """
    x = np.asarray(x, dtype=float)
    if q == 1.0:
        out = np.exp(x)
    else:
        base = 1.0 + (1.0 - q) * x
        out = np.zeros_like(base)
        pos = base > 0.0
        out[pos] = base[pos] ** (1.0 / (1.0 - q))
    return out if out.ndim else float(out)


def normalization(params: QGaussianParams) -> float:
    """Normalization constant A(q, beta) of the density.

    A = sqrt((q-1) beta / pi) * G(1/(q-1)) / G((3-q)/(2(q-1))), evaluated
    through the log-space gamma ratio so the q -> 1 limit, where both
    gamma arguments diverge, stays finite.
    """
    q, beta = params.q, params.beta
    b = params.b_exponent
    return math.sqrt((q - 1.0) * beta / math.pi) * gamma_ratio(b, b - 0.5)


def pdf(params: QGaussianParams, x):
    """Density A(q, beta) exp_q(-beta (x - mu)^2); scalar or array x.

    Strictly positive everywhere for q > 1 and symmetric about mu.  A scalar
    x returns a float.
    """
    d = np.asarray(x, dtype=float) - params.mu
    return normalization(params) * exp_q(params.q, -params.beta * d * d)


def ccdf_abs(params: QGaussianParams, x):
    """Exceedance probability P(|X| > x) for x >= 0; scalar or array.

    Equals 1 - 2 A(q,beta) x 2F1(1/2, 1/(q-1); 3/2; -beta(q-1)x^2), with
    mu = 0 required.  Monotonically non-increasing, 1 at x = 0, -> 0 as
    x -> infinity.
    """
    if params.mu != 0.0:
        raise ValueError("ccdf_abs is defined for mu = 0 distributions only")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0):
        raise ValueError(f"ccdf_abs requires x >= 0, got x={x}")
    q, beta, b = params.q, params.beta, params.b_exponent
    amp = normalization(params)
    s = beta * (q - 1.0) * xs * xs
    # Splitting point: beta (3-q) x^2 = 1 is (up to the Student-t scale map)
    # |t-statistic| = 1, where the exceedance probability is still >= ~0.3.
    head = beta * (3.0 - q) * xs * xs <= 1.0
    tail = ~head
    out = np.empty_like(s)
    out[head] = 1.0 - 2.0 * amp * xs[head] * hyp2f1(Hyp2F1Args(0.5, b, 1.5, -s[head]))
    # Past that point the direct form suffers 1 - (1 - eps) cancellation, so
    # use the identity 1 - 2 A x * (leading term of 2F1) = 0: what is left is
    # the remainder, accurate to full relative precision arbitrarily far
    # into the tail.
    out[tail] = 2.0 * amp * xs[tail] * hyp2f1_tail_remainder(b, -s[tail])
    np.clip(out, 0.0, 1.0, out=out)
    return out if out.ndim else float(out)


def q_to_tail(q: float) -> TailExponent:
    """Tail exponent alpha = (3-q)/(q-1) of the exceedance probability."""
    if not 1.0 < q < 3.0:
        raise ValueError(f"q must lie in (1, 3), got q={q}")
    return TailExponent((3.0 - q) / (q - 1.0))


def tail_to_q(alpha: TailExponent) -> float:
    """Entropic index q = (3 + alpha)/(1 + alpha); inverse of q_to_tail."""
    a = alpha.alpha
    return (3.0 + a) / (1.0 + a)


def sample(params: QGaussianParams, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. variates, deterministically for a fixed seed.

    A q-Gaussian with 1 < q < 3 is a Student-t with nu = (3-q)/(q-1)
    degrees of freedom rescaled by 1/sqrt(beta(3-q)); the t variate is
    built explicitly as a standard normal over the square root of a
    chi-squared over nu, all from one seeded PCG64 generator.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    q, beta = params.q, params.beta
    nu = (3.0 - q) / (q - 1.0)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(n)
    chi2 = rng.chisquare(nu, n)
    # In place, in the order normal / sqrt(chi2 / nu) / sqrt(beta(3-q)) + mu.
    chi2 /= nu
    np.sqrt(chi2, out=chi2)
    draws /= chi2
    draws /= math.sqrt(beta * (3.0 - q))
    draws += params.mu
    return draws
