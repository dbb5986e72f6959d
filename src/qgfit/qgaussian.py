"""The q-Gaussian distribution family with 1 < q < 3.

Density, normalization constant, complementary CDF of the absolute value,
the tail-exponent relation, and an exact sampler used for synthetic
validation.  Every distribution is centred at zero, as the absolute-returns
pipeline needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import hyp2f1, hyp2f1_tail_remainder

__all__ = [
    "QGaussianParams",
    "normalization",
    "pdf",
    "ccdf_abs",
    "tail_to_q",
    "sample",
]

# Chi-square draws made at once by `sample`.
_CHI2_BLOCK = 65536


@dataclass(frozen=True)
class QGaussianParams:
    """Parameter pair (q, beta) of one zero-centred heavy-tailed distribution.

    q is the entropic index controlling tail weight, beta the inverse
    temperature setting the scale.
    """

    q: float
    beta: float

    def __post_init__(self):
        if not 1.0 < self.q < 3.0:
            raise ValueError(f"q must lie in (1, 3), got q={self.q}")
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"beta must lie in (0, inf), got beta={self.beta}")

    @property
    def b_exponent(self) -> float:
        """The decay exponent 1/(q-1) of the density kernel."""
        return 1.0 / (self.q - 1.0)


def normalization(params: QGaussianParams) -> float:
    """Normalization constant A(q, beta) of the density.

    A = sqrt((q-1) beta / pi) * G(1/(q-1)) / G((3-q)/(2(q-1))), with the
    gamma ratio taken in log space so the q -> 1 limit, where both gamma
    values overflow, stays finite.
    """
    q, beta = params.q, params.beta
    b = params.b_exponent
    return math.sqrt((q - 1.0) * beta / math.pi) * math.exp(math.lgamma(b) - math.lgamma(b - 0.5))


def pdf(params: QGaussianParams, x):
    """Density A(q, beta) [1 + (q-1) beta x^2]^(-1/(q-1)); scalar or array x.

    Strictly positive everywhere for q > 1 and symmetric about 0.  A scalar
    x returns a float.
    """
    xs = np.asarray(x, dtype=float)
    # The power runs on a 1-d array even for scalar x: numpy's 0-d power can
    # round differently, and scalar and array calls must agree bit for bit.
    d = np.atleast_1d(xs)
    # A kernel past float range is inf, and its power the exact limit 0.
    with np.errstate(over="ignore"):
        kernel = 1.0 + (params.q - 1.0) * (params.beta * d * d)
    out = normalization(params) * kernel ** -params.b_exponent
    return out if xs.ndim else float(out[0])


def ccdf_abs(params: QGaussianParams, x):
    """Exceedance probability P(|X| > x) for x >= 0; scalar or array.

    Equals 1 - 2 A(q,beta) x 2F1(1/2, 1/(q-1); 3/2; -beta(q-1)x^2).
    Monotonically non-increasing, 1 at x = 0, -> 0 as x -> infinity.
    """
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
    out[head] = 1.0 - 2.0 * amp * xs[head] * hyp2f1(b, -s[head])
    # Past that point the direct form suffers 1 - (1 - eps) cancellation, so
    # use the identity 1 - 2 A x * (leading term of 2F1) = 0: what is left is
    # the remainder, accurate to full relative precision arbitrarily far
    # into the tail.
    out[tail] = 2.0 * amp * xs[tail] * hyp2f1_tail_remainder(b, -s[tail])
    np.clip(out, 0.0, 1.0, out=out)
    return out if out.ndim else float(out)


def tail_to_q(alpha: float) -> float:
    """Entropic index q = (3 + alpha)/(1 + alpha) of the tail exponent alpha > 0.

    Inverts alpha = (3-q)/(q-1), the exponent of P(|X| > x) ~ x^(-alpha).
    """
    if not alpha > 0.0:
        raise ValueError(f"tail exponent must be positive, got {alpha}")
    return (3.0 + alpha) / (1.0 + alpha)


def sample(params: QGaussianParams, n: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """Draw n i.i.d. variates, deterministically for a fixed seed.

    A q-Gaussian with 1 < q < 3 is a Student-t with nu = (3-q)/(q-1)
    degrees of freedom rescaled by 1/sqrt(beta(3-q)); the t variate is
    built explicitly as a standard normal over the square root of a
    chi-squared over nu, all from one seeded PCG64 generator: the n normals
    first, then the n chi-squares.  The draws are written into `out`, a
    C-contiguous float64 array of n values, if one is given, and returned.
    The chi-squares are drawn in blocks, so a call holds 8 bytes a draw
    and one block.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    q, beta = params.q, params.beta
    nu = (3.0 - q) / (q - 1.0)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(n, out=out)  # numpy checks out's size and type first
    for start in range(0, n, _CHI2_BLOCK):
        # Drawn block by block, the chi-squares continue one stream, value for
        # value those of one chisquare(nu, n).  In place, in the order
        # normal / sqrt(chi2 / nu) / sqrt(beta(3-q)).
        chi2 = rng.chisquare(nu, min(_CHI2_BLOCK, n - start))
        chi2 /= nu
        np.sqrt(chi2, out=chi2)
        draws[start : start + len(chi2)] /= chi2
        del chi2  # freed before the next block is drawn
    draws /= math.sqrt(beta * (3.0 - q))
    return draws
