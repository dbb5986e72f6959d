"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is stated inline next to its assertion.
"""

import json
import math
import time

import numpy as np
from scipy import integrate

from qgfit import cli
from qgfit.datasets import TABLE1_ROWS
from qgfit.estimation import (
    ScaleFitResult,
    estimate_tail_exponent,
    fit_qgaussian_ccdf,
    scaling_report,
)
from qgfit.qgaussian import QGaussianParams, ccdf_abs, pdf, sample, tail_to_q
from qgfit.returns import EmpiricalCCDF, empirical_ccdf


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def test_criterion_1_bundled_scaling_exponents(tmp_path):
    """Scaling report on the bundled table lands in the published bands."""
    table_dir = tmp_path / "t1"
    assert cli.main(["table1", "--out", str(table_dir)]) == 0
    out = tmp_path / "scaling"
    start = time.perf_counter()
    status = cli.main(
        ["scaling", "--fits", str(table_dir / "table1.csv"), "--out", str(out)]
    )
    elapsed = time.perf_counter() - start
    assert status == 0
    report = json.loads((out / "scaling.json").read_text())
    tau = abs(report["tau_fit"]["exponent"])
    gamma = abs(report["gamma_fit"]["exponent"])
    delta = abs(report["delta_fit"]["exponent"])
    ok = (
        0.071 <= tau <= 0.091
        and 0.096 <= gamma <= 0.116
        and 1.14 <= delta <= 1.44
        and elapsed < 1.0
    )
    _report(
        1,
        ok,
        f"|tau|={tau:.4f} in [0.071,0.091], |gamma|={gamma:.4f} in [0.096,0.116], "
        f"|delta|={delta:.4f} in [1.14,1.44], runtime {elapsed:.2f}s < 1s",
    )
    assert 0.071 <= tau <= 0.091
    assert 0.096 <= gamma <= 0.116
    assert 1.14 <= delta <= 1.44
    assert elapsed < 1.0


def test_criterion_2_cauchy_closed_form():
    """ccdf_abs at q=2, beta=1 equals 1 - (2/pi) arctan(x) to 1e-10."""
    params = QGaussianParams(2.0, 1.0)
    start = time.perf_counter()
    worst = 0.0
    for x in np.geomspace(1e-2, 1e4, 50):
        exact = 1.0 - (2.0 / math.pi) * math.atan(float(x))
        worst = max(worst, abs(ccdf_abs(params, float(x)) - exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(2, ok, f"worst |diff|={worst:.2e} <= 1e-10 at 50 points, runtime {elapsed:.2f}s < 1s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_3_normalization_by_quadrature():
    """The density integrates to 1 within 1e-8 for every bundled (q, beta)."""
    start = time.perf_counter()
    worst = 0.0
    for _, q, beta in TABLE1_ROWS:
        params = QGaussianParams(q, beta)
        half, _ = integrate.quad(lambda t: pdf(params, t), 0.0, np.inf, limit=400)
        worst = max(worst, abs(2.0 * half - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(3, ok, f"worst |integral-1|={worst:.2e} <= 1e-8 over 9 pairs, runtime {elapsed:.1f}s < 10s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_4_ccdf_matches_tail_quadrature():
    """Closed-form exceedance equals 1 - 2*integral(pdf) to 1e-8 absolute."""
    params = QGaussianParams(1.53, 1.78)
    worst = 0.0
    for x in np.geomspace(1e-2, 1e3, 13):
        body, _ = integrate.quad(lambda t: pdf(params, t), 0.0, float(x), limit=400)
        worst = max(worst, abs(ccdf_abs(params, float(x)) - (1.0 - 2.0 * body)))
    ok = worst <= 1e-8
    _report(4, ok, f"worst |diff|={worst:.2e} <= 1e-8 at (q=1.53, beta=1.78), x in [1e-2, 1e3]")
    assert worst <= 1e-8


def test_criterion_5_tail_slope_law():
    """Log-log slope at x=1e3 equals -(3-q)/(q-1) within 5%."""
    worst = 0.0
    for q in (1.35, 1.53, 2.0):
        params = QGaussianParams(q, 1.0)
        h = 0.05
        slope = (
            math.log(ccdf_abs(params, 1e3 * math.exp(h)))
            - math.log(ccdf_abs(params, 1e3 * math.exp(-h)))
        ) / (2.0 * h)
        target = -(3.0 - q) / (q - 1.0)
        worst = max(worst, abs(slope - target) / abs(target))
    ok = worst <= 0.05
    _report(5, ok, f"worst slope error {worst:.2%} <= 5% for q in {{1.35, 1.53, 2.0}}")
    assert worst <= 0.05


def test_criterion_6_synthetic_round_trip():
    """Fits on 1e6 draws at (1.5, 1.5) stay within +-0.02 / +-0.10, 5 seeds."""
    start = time.perf_counter()
    worst_q = worst_beta = 0.0
    for seed in range(5):
        draws = sample(QGaussianParams(1.5, 1.5), 10**6, seed=seed)
        ccdf = empirical_ccdf(draws, dt=1)
        fit = fit_qgaussian_ccdf(ccdf)
        worst_q = max(worst_q, abs(fit.q - 1.5))
        worst_beta = max(worst_beta, abs(fit.beta - 1.5))
    elapsed = time.perf_counter() - start
    ok = worst_q <= 0.02 and worst_beta <= 0.10 and elapsed < 120.0
    _report(
        6,
        ok,
        f"worst |dq|={worst_q:.4f} <= 0.02, worst |dbeta|={worst_beta:.4f} <= 0.10, "
        f"runtime {elapsed:.0f}s < 120s",
    )
    assert worst_q <= 0.02
    assert worst_beta <= 0.10
    assert elapsed < 120.0


def test_criterion_7_two_route_consistency():
    """Least-squares q and tail-relation q agree within 0.05 on model curves."""
    worst = 0.0
    for q in (1.35, 1.53):
        x = np.geomspace(1e-2, 1e3, 60)
        params = QGaussianParams(q, 1.0)
        ccdf = EmpiricalCCDF(
            dt=1, thresholds=x, probabilities=ccdf_abs(params, x), n_samples=0
        )
        q_ls = fit_qgaussian_ccdf(ccdf).q
        q_tail = tail_to_q(estimate_tail_exponent(ccdf))
        worst = max(worst, abs(q_ls - q_tail))
    ok = worst <= 0.05
    _report(7, ok, f"worst |q_ls - q_tail|={worst:.4f} <= 0.05 for q in {{1.35, 1.53}}")
    assert worst <= 0.05


def test_criterion_8_full_pipeline_property():
    """A synthetic multi-company corpus generated on the bundled (q, beta)
    ladder is recovered: monotone parameter decay and scaling exponents
    within 2 standard errors of the generating ladder's exponents."""
    n_companies = 8
    n_per_company = 500_000
    base_seed = 20260809

    fits = []
    for i, (dt, q, beta) in enumerate(TABLE1_ROWS):
        parts = [
            sample(QGaussianParams(q, beta), n_per_company, seed=base_seed + 100 * i + c)
            for c in range(n_companies)
        ]
        pooled = np.concatenate(parts)
        ccdf = empirical_ccdf(pooled, dt=dt)
        fits.append(fit_qgaussian_ccdf(ccdf))

    qs = [f.q for f in fits]
    betas = [f.beta for f in fits]
    q_monotone = all(a >= b for a, b in zip(qs, qs[1:]))
    beta_monotone = all(a >= b for a, b in zip(betas, betas[1:]))

    recovered = scaling_report(fits)
    generating = scaling_report(
        [
            ScaleFitResult(dt=dt, q=q, beta=beta, residual=0.0, n_points=0, converged=True)
            for dt, q, beta in TABLE1_ROWS
        ]
    )
    details = []
    bands_ok = True
    for name in ("tau_fit", "gamma_fit", "delta_fit"):
        rec = getattr(recovered, name)
        gen = getattr(generating, name)
        band = 2.0 * math.hypot(rec.stderr, gen.stderr)
        inside = abs(rec.exponent - gen.exponent) <= band
        bands_ok &= inside
        details.append(f"{name} |diff|={abs(rec.exponent - gen.exponent):.4f}<={band:.4f}")

    ok = q_monotone and beta_monotone and bands_ok
    _report(
        8,
        ok,
        f"q monotone={q_monotone}, beta monotone={beta_monotone}, " + ", ".join(details),
    )
    assert q_monotone
    assert beta_monotone
    assert bands_ok
