"""Log-gamma, gamma ratios, and the Gauss hypergeometric function.

The heavy-tail CDF family 2F1(1/2, b; 3/2; z) with b > 1/2 and z <= 0 is a
regularized incomplete beta function.  With s = -z and the large-s leading
term L(s) = (sqrt(pi)/2) G(b-1/2)/G(b) / sqrt(s),

    2F1(1/2, b; 3/2; -s)   = L(s) I(s/(1+s); 1/2, b-1/2)
    L(s) - 2F1(..; -s)     = L(s) I(1/(1+s); b-1/2, 1/2)

and both are evaluated over arrays of z by `scipy.special.betainc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

__all__ = [
    "Hyp2F1Args",
    "ln_gamma",
    "gamma_ratio",
    "hyp2f1",
    "hyp2f1_tail_remainder",
]


@dataclass(frozen=True)
class Hyp2F1Args:
    """Arguments (a, b; c; z) of the Gauss hypergeometric function.

    The absolute-returns CDF generates the family a = 1/2, c = 3/2,
    b > 1/2, z <= 0; that is the regime this module is built for.  z may be
    a scalar or an array.
    """

    a: float
    b: float
    c: float
    z: float | np.ndarray

    def __post_init__(self):
        if self.c <= 0.0 and self.c == math.floor(self.c):
            raise ValueError(f"c must not be zero or a negative integer, got c={self.c}")


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0 (`math.lgamma`)."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gamma_ratio(p: float, r: float) -> float:
    """Gamma(p) / Gamma(r) for positive p, r, evaluated in log space.

    Stays finite where both Gamma values individually overflow, e.g. the
    normalization ratio whose arguments blow up as the tail index
    approaches the Gaussian limit.
    """
    if not (p > 0.0 and r > 0.0):
        raise ValueError(f"gamma_ratio requires positive arguments, got ({p}, {r})")
    return math.exp(math.lgamma(p) - math.lgamma(r))


def _leading_term(b: float, s: np.ndarray) -> np.ndarray:
    """Large-s leading behavior L(s) of 2F1(1/2, b; 3/2; -s) for s > 0."""
    return 0.5 * math.sqrt(math.pi) * gamma_ratio(b - 0.5, b) / np.sqrt(s)


def hyp2f1_tail_remainder(b: float, z):
    """Gap between 2F1(1/2, b; 3/2; z) and its large-|z| leading term.

    Returns (sqrt(pi)/2) G(b-1/2)/G(b) (-z)^(-1/2) - 2F1(1/2, b; 3/2; z)
    for b > 1/2 and z < 0, scalar or array z.  It is the leading term times
    the regularized incomplete beta I(1/(1-z); b-1/2, 1/2), so there is no
    cancellation even where the two quantities agree to many digits.
    """
    if not b > 0.5:
        raise ValueError(f"tail remainder requires b > 1/2, got b={b}")
    s = -np.asarray(z, dtype=float)
    if not np.all(s > 0.0):
        raise ValueError(f"tail remainder requires z < 0, got z={z}")
    out = _leading_term(b, s) * betainc(b - 0.5, 0.5, 1.0 / (1.0 + s))
    return out if out.ndim else float(out)


def hyp2f1(args: Hyp2F1Args):
    """Evaluate 2F1(1/2, b; 3/2; z) for b > 1/2 and z <= 0; scalar or array z.

    Only the CDF family a = 1/2, c = 3/2 is supported: it equals the
    leading term times I(-z/(1-z); 1/2, b-1/2), and 1 at z = 0.
    """
    a, b, c = args.a, args.b, args.c
    if not (a == 0.5 and c == 1.5):
        raise ValueError(f"only the CDF family a=1/2, c=3/2 is supported, got a={a}, c={c}")
    if not b > 0.5:
        raise ValueError(f"CDF family requires b > 1/2, got b={b}")
    s = -np.asarray(args.z, dtype=float)
    if np.any(s < 0.0):
        raise ValueError(f"hyp2f1 requires z <= 0, got z={args.z}")
    out = np.ones_like(s)
    pos = s > 0.0
    sp = s[pos]
    out[pos] = _leading_term(b, sp) * betainc(0.5, b - 0.5, sp / (1.0 + sp))
    return out if out.ndim else float(out)
