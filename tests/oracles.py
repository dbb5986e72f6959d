"""Independent high-precision oracles used to freeze expected test values.

Everything here deliberately avoids the code paths under test: mpmath
arbitrary-precision arithmetic, quadrature of integral representations,
and scipy reference routines.  Run as a script to print the frozen
constants embedded in the test modules.
"""

import mpmath as mp

mp.mp.dps = 40


def hyp2f1_family(b, z):
    """2F1(1/2, b; 3/2; z) through its integral representation."""
    b, z = mp.mpf(b), mp.mpf(z)
    return mp.quad(lambda u: (1 - z * u * u) ** (-b), [0, 1])


def gamma_ratio(p, r):
    return mp.gamma(mp.mpf(p)) / mp.gamma(mp.mpf(r))


def qgaussian_pdf(q, beta, x):
    """Normalized q-Gaussian density evaluated in arbitrary precision."""
    q, beta, x = mp.mpf(q), mp.mpf(beta), mp.mpf(x)
    amp = mp.sqrt((q - 1) * beta / mp.pi) * mp.gamma(1 / (q - 1)) / mp.gamma(
        (3 - q) / (2 * (q - 1))
    )
    return amp * (1 + (q - 1) * beta * x * x) ** (-1 / (q - 1))


# Working precision of the CCDF oracle: its closed form cancels down to
# values near 1e-300, which still keep about 60 significant digits.
CCDF_DPS = 360

# The frozen CCDF grid of tests/test_qgaussian.py.
CCDF_QS = ("1.01", "1.05", "1.5", "2.0", "2.5", "2.95")
CCDF_BETAS = ("1e-3", "1", "1e3")
CCDF_XS = ("1e-2", "1e-1", "1", "1e1", "1e2", "1e3", "1e4")
# Smallest CCDF value the frozen tests hold to a relative bound.
CCDF_FLOOR = 1e-300


def qgaussian_ccdf_abs(q, beta, x):
    """P(|X| > x) for the q-Gaussian from the paper's closed form.

    1 - 2 A x 2F1(1/2, b; 3/2; -beta(q-1)x^2) with b = 1/(q-1), at
    CCDF_DPS digits.  Arguments are taken as exact binary floats.
    """
    with mp.workdps(CCDF_DPS):
        q, beta, x = mp.mpf(float(q)), mp.mpf(float(beta)), mp.mpf(float(x))
        b = 1 / (q - 1)
        half = mp.mpf(1) / 2
        amp = mp.sqrt((q - 1) * beta / mp.pi) * mp.gamma(b) / mp.gamma(b - half)
        z = beta * (q - 1) * x * x
        return 1 - 2 * amp * x * mp.hyp2f1(half, b, 3 * half, -z)


def qgaussian_ccdf_abs_beta(q, beta, x):
    """The same CCDF as the regularized incomplete beta I(1/(1+z); b-1/2, 1/2)."""
    with mp.workdps(CCDF_DPS):
        q, beta, x = mp.mpf(float(q)), mp.mpf(float(beta)), mp.mpf(float(x))
        b = 1 / (q - 1)
        z = beta * (q - 1) * x * x
        return mp.betainc(b - mp.mpf(1) / 2, mp.mpf(1) / 2, 0, 1 / (1 + z), regularized=True)


def _check_ccdf_forms():
    """Largest relative gap between the two CCDF forms, and the points compared.

    Only grid points whose CCDF exceeds CCDF_FLOOR are compared: below it
    the closed form cancels past CCDF_DPS digits.
    """
    worst, compared = mp.mpf(0), 0
    for q in CCDF_QS:
        for beta in CCDF_BETAS:
            for x in CCDF_XS:
                inc = qgaussian_ccdf_abs_beta(q, beta, x)
                if inc > CCDF_FLOOR:
                    hyp = qgaussian_ccdf_abs(q, beta, x)
                    worst = max(worst, abs(hyp - inc) / inc)
                    compared += 1
    return worst, compared


if __name__ == "__main__":
    print("gamma_ratio(100.5, 100)  =", mp.nstr(gamma_ratio("100.5", 100), 18))
    print("2F1(1/2,2;3/2;-1/4)      =", mp.nstr(hyp2f1_family(2, mp.mpf(-1) / 4), 18))
    print("arctan(2)/2              =", mp.nstr(mp.atan(2) / 2, 18))
    gap, compared = _check_ccdf_forms()
    print(f"ccdf: 2F1 form against betainc form at {compared} points, "
          f"largest relative gap {mp.nstr(gap, 3)}")
    print("CCDF_FROZEN = {")
    for q in CCDF_QS:
        for beta in CCDF_BETAS:
            values = [repr(float(qgaussian_ccdf_abs(q, beta, x))) for x in CCDF_XS]
            print(f"    ({q}, {beta}): [")
            print("        " + ", ".join(values[:4]) + ",")
            print("        " + ", ".join(values[4:]) + ",")
            print("    ],")
    print("}")
