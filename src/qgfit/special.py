"""The Gauss hypergeometric function of the CDF family.

The heavy-tail CDF family 2F1(1/2, b; 3/2; z) with b > 1/2 and z <= 0 is a
regularized incomplete beta function.  With s = -z and the large-s leading
term L(s) = (sqrt(pi)/2) G(b-1/2)/G(b) / sqrt(s),

    2F1(1/2, b; 3/2; -s)   = L(s) I(s/(1+s); 1/2, b-1/2)
    L(s) - 2F1(..; -s)     = L(s) I(1/(1+s); b-1/2, 1/2)

and both are evaluated over arrays of z by `scipy.special.betainc`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

__all__ = [
    "hyp2f1",
    "hyp2f1_tail_remainder",
]


def _leading_term(b: float, s: np.ndarray) -> np.ndarray:
    """Large-s leading behavior L(s) of 2F1(1/2, b; 3/2; -s) for s > 0."""
    # G(b-1/2)/G(b) in log space: both overflow for b past ~171.
    return 0.5 * math.sqrt(math.pi) * math.exp(math.lgamma(b - 0.5) - math.lgamma(b)) / np.sqrt(s)


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


def hyp2f1(b: float, z):
    """Evaluate 2F1(1/2, b; 3/2; z) for b > 1/2 and z <= 0; scalar or array z.

    This is the CDF family a = 1/2, c = 3/2: it equals the leading term
    times I(-z/(1-z); 1/2, b-1/2), and 1 at z = 0.
    """
    if not b > 0.5:
        raise ValueError(f"CDF family requires b > 1/2, got b={b}")
    s = -np.asarray(z, dtype=float)
    if np.any(s < 0.0):
        raise ValueError(f"hyp2f1 requires z <= 0, got z={z}")
    out = np.ones_like(s)
    pos = s > 0.0
    sp = s[pos]
    out[pos] = _leading_term(b, sp) * betainc(0.5, b - 0.5, sp / (1.0 + sp))
    return out if out.ndim else float(out)
