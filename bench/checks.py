"""Reference results and output checks, computed without qgfit.

The fit reference repeats the pipeline from the generated prices with numpy
(log returns, unit-variance normalization, pooling, the 100-exceedance grid
cap, log-spaced exceedance curve) and fits each curve with an independent
model and optimizer: the closed-form Student-t tail
P(|X| > x) = 2 stdtr(nu, -x sqrt(beta (3-q))), nu = (3-q)/(q-1), minimised
by bounded `least_squares` in (q, log10 beta) from three starts.  At the
seed commit this reaches the same optimum as qgfit's Nelder-Mead fit to
about 1e-9 in q, so the tolerances below admit any optimizer that finds the
same minimum while staying far inside the +-0.02 statistical band.

The synth reference replays the documented sampler stream of
`qgfit synth` (normal over sqrt(chi-square/nu), one PCG64 generator, the
float64 range guard of the walk) with numpy.

Every check returns a list of problems; an empty list means the output is
correct.  `bench/run.py` keeps numpy out of its own process (a child's peak
RSS as wait4 reports it starts from the parent's) and calls this module as
a helper process instead:

    python3 bench/checks.py prepare WORKLOAD SEED DIR   # inputs + reference
    python3 bench/checks.py check DIR/manifest.json OUT...  # problems per command
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares
from scipy.special import stdtr

import inputs

GRID_MIN, GRID_COUNT, MIN_TAIL_EXCEEDANCES = 1e-2, 60, 100
Q_BOUNDS, LOG10_BETA_BOUNDS = (1.01, 2.99), (-4.0, 4.0)

# Tolerances, also stated in BENCHMARK.json.
FIT_Q_ABS = 1e-5
FIT_BETA_REL = 1e-4
CURVE_REL = 1e-9  # curve files print 12 significant digits
SCALING_REL, SCALING_ABS = 1e-9, 1e-12
SYNTH_REL = 1e-12
SYNTH_STRIDE = 9973  # a prime, so sampled rows do not align with any dt


# ---------------------------------------------------------------- references


def reference_curves(prices: list[np.ndarray], ladder) -> list[dict]:
    """Pooled exceedance curve per dt of the ladder."""
    curves = []
    for dt in ladder:
        parts = []
        for p in prices:
            logw = np.log(p)
            r = logw[dt:] - logw[:-dt]
            parts.append((r - np.mean(r)) / np.std(r))
        pooled = np.concatenate(parts)
        pooled = (pooled - np.mean(pooled)) / np.std(pooled)
        absr = np.sort(np.abs(pooled))
        n = len(absr)
        top = float(absr[-1])
        if n > 10 * MIN_TAIL_EXCEEDANCES and absr[-MIN_TAIL_EXCEEDANCES] > GRID_MIN:
            top = float(absr[-MIN_TAIL_EXCEEDANCES])
        x = np.geomspace(GRID_MIN, top, GRID_COUNT)
        p = (n - np.searchsorted(absr, x, side="right")) / n
        keep = p > 0
        curves.append({"dt": dt, "x": x[keep].tolist(), "p": p[keep].tolist(), "n": n})
    return curves


def model_ccdf(q: float, beta: float, x: np.ndarray) -> np.ndarray:
    nu = (3.0 - q) / (q - 1.0)
    return 2.0 * stdtr(nu, -np.asarray(x) * math.sqrt(beta * (3.0 - q)))


def log_residuals(q: float, beta: float, x, p) -> np.ndarray:
    """log10 model minus log10 empirical exceedance, the least-squares residuals."""
    return np.log10(np.maximum(model_ccdf(q, beta, np.asarray(x)), 1e-300)) - np.log10(p)


def reference_fit(x: list[float], p: list[float]) -> dict:
    def residuals(v):
        return log_residuals(v[0], 10.0 ** v[1], x, p)

    bounds = ([Q_BOUNDS[0], LOG10_BETA_BOUNDS[0]], [Q_BOUNDS[1], LOG10_BETA_BOUNDS[1]])
    best = min(
        (
            least_squares(residuals, [q0, 0.0], bounds=bounds, xtol=1e-15, ftol=1e-15, gtol=1e-15)
            for q0 in (1.2, 1.5, 2.0)
        ),
        key=lambda r: r.cost,
    )
    return {"q": float(best.x[0]), "beta": float(10.0 ** best.x[1]), "residual": 2.0 * best.cost}


def fit_reference(prices: list[np.ndarray], ladder) -> dict:
    curves = reference_curves(prices, ladder)
    fits = [dict(dt=c["dt"], **reference_fit(c["x"], c["p"])) for c in curves]
    return {"curves": curves, "fits": fits}


def synth_prices(q: float, beta: float, n: int, seed: int) -> np.ndarray:
    """The price walk `qgfit synth` documents for these arguments."""
    nu = (3.0 - q) / (q - 1.0)
    rng = np.random.default_rng(seed)
    normal = rng.standard_normal(n - 1)
    chi2 = rng.chisquare(nu, n - 1)
    increments = normal / np.sqrt(chi2 / nu) / math.sqrt(beta * (3.0 - q))
    log_price = np.concatenate([[0.0], np.cumsum(increments)])
    half_range = 0.5 * (log_price.max() - log_price.min())
    if half_range > 600.0:
        log_price = np.concatenate([[0.0], np.cumsum(600.0 / half_range * increments)])
    if log_price.max() > 600.0 or log_price.min() < -600.0:
        log_price -= 0.5 * (log_price.max() + log_price.min())
    return 100.0 * np.exp(log_price)


def synth_reference(q: float, beta: float, n: int, seed: int) -> dict:
    prices = synth_prices(q, beta, n, seed)
    rows = list(range(0, n, SYNTH_STRIDE)) + [n - 1]
    return {"n": n, "rows": rows, "prices": prices[rows].tolist()}


# -------------------------------------------------------------------- checks


def _close(a, b, rel: float, abs_tol: float = 0.0) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.abs(b) + abs_tol))


def check_fit(out: Path, reference: dict) -> list[str]:
    try:
        rows = json.loads((out / "fits.json").read_text(encoding="utf-8"))
        got = {int(r["dt"]): (float(r["q"]), float(r["beta"])) for r in rows}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"fits.json unreadable: {exc}"]
    problems = []
    ladder = [ref["dt"] for ref in reference["fits"]]
    if sorted(got) != ladder:
        problems.append(f"fits.json dts {sorted(got)} != {ladder}")
    for ref, curve in zip(reference["fits"], reference["curves"]):
        if ref["dt"] not in got:
            continue
        q, beta = got[ref["dt"]]
        if abs(q - ref["q"]) <= FIT_Q_ABS and abs(beta - ref["beta"]) <= FIT_BETA_REL * ref["beta"]:
            continue
        # Elsewhere only a fit at least as good passes: the reference
        # optimizer then stopped in a worse local minimum.
        residual = float(np.sum(log_residuals(q, beta, curve["x"], curve["p"]) ** 2))
        if not residual <= ref["residual"] * (1.0 + 1e-9):
            problems.append(
                f"dt={ref['dt']}: (q, beta)=({q!r}, {beta!r}), reference "
                f"({ref['q']!r}, {ref['beta']!r}); residual {residual!r} > {ref['residual']!r}"
            )
    for curve in reference["curves"]:
        problems += _check_curve(out / f"ccdf_dt{curve['dt']}.csv", curve, got.get(curve["dt"]))
    return problems


def _check_curve(path: Path, curve: dict, fitted) -> list[str]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        x = [float(r["x"]) for r in rows]
        emp = [float(r["ccdf_empirical"]) for r in rows]
        model = [float(r["ccdf_fitted"]) for r in rows]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path.name} unreadable: {exc}"]
    if not (_close(x, curve["x"], CURVE_REL) and _close(emp, curve["p"], CURVE_REL)):
        return [f"{path.name}: empirical curve differs from the reference"]
    if fitted is not None and not _close(model, model_ccdf(*fitted, np.asarray(x)), CURVE_REL):
        return [f"{path.name}: fitted column differs from the model at the fitted (q, beta)"]
    return []


def _power_law(xs, ys) -> tuple[float, float]:
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), math.exp(intercept)


def check_scaling(out: Path, fits_path: Path) -> list[str]:
    """scaling.json against the three log-log regressions of the fits file."""
    try:
        rows = json.loads(fits_path.read_text(encoding="utf-8"))
        report = json.loads((out / "scaling.json").read_text(encoding="utf-8"))
        dt = np.array([r["dt"] for r in rows], dtype=float)
        qm1 = np.array([r["q"] for r in rows]) - 1.0
        inv_beta = 1.0 / np.array([r["beta"] for r in rows])
        expected = {
            "tau_fit": _power_law(dt, qm1),
            "gamma_fit": _power_law(dt, inv_beta),
            "delta_fit": _power_law(qm1, inv_beta),
        }
        problems = []
        for key, (exponent, amplitude) in expected.items():
            got = (float(report[key]["exponent"]), float(report[key]["amplitude"]))
            if not _close(got, (exponent, amplitude), SCALING_REL, SCALING_ABS):
                problems.append(f"scaling.json {key} {got} != {(exponent, amplitude)}")
        return problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"scaling output unreadable: {exc}"]


def check_synth(path: Path, reference: dict) -> list[str]:
    try:
        lines = path.read_bytes().splitlines()
        header, body = lines[0], lines[1:]
        stamps = np.array([line.split(b",", 1)[0] for line in body], dtype=np.int64)
        sampled = [float(body[i].split(b",", 1)[1]) for i in reference["rows"]]
    except (OSError, ValueError, IndexError) as exc:
        return [f"{path.name} unreadable: {exc}"]
    problems = []
    if header != b"timestamp,price":
        problems.append(f"{path.name}: header {header!r}")
    if len(body) != reference["n"]:
        problems.append(f"{path.name}: {len(body)} rows, expected {reference['n']}")
    if not np.all(np.diff(stamps) > 0):
        problems.append(f"{path.name}: timestamps not increasing")
    if not _close(sampled, reference["prices"], SYNTH_REL):
        problems.append(f"{path.name}: sampled prices differ from the reference")
    return problems


# ------------------------------------------------------------------- helpers


def _intact(directory: Path, manifest: dict) -> bool:
    return all(
        (directory / f["file"]).is_file()
        and hashlib.sha256((directory / f["file"]).read_bytes()).hexdigest() == f["sha256"]
        for f in manifest["inputs"]
    )


def prepare(workload: str, seed: int, directory: Path) -> None:
    """Write DIR/manifest.json with the inputs and reference of one workload and seed.

    A manifest whose input digests still match is kept, so each seed's
    inputs are generated once.
    """
    path = directory / "manifest.json"
    if path.is_file() and _intact(directory, json.loads(path.read_text(encoding="utf-8"))):
        return
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    manifest = {"workload": workload, "seed": seed}
    if workload in inputs.FIT_WORKLOADS:
        instruments, ladder = inputs.FIT_WORKLOADS[workload]
        records, prices = inputs.write_instruments(instruments, seed, directory)
        manifest.update(
            kind="fit",
            inputs=records,
            ladder=list(ladder),
            default_ladder=ladder == inputs.DEFAULT_LADDER,
            reference=fit_reference(prices, ladder),
        )
    else:
        reference = synth_reference(seed=seed, **inputs.SYNTH_ARGS)
        manifest.update(kind="synth", inputs=[], args=inputs.SYNTH_ARGS, reference=reference)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(manifest), encoding="utf-8")
    tmp.replace(path)


def check_pass(manifest: dict, out: Path) -> list[list[str]]:
    """Problems of each command of one pass, in command order."""
    if manifest["kind"] == "fit":
        return [check_fit(out, manifest["reference"]), check_scaling(out, out / "fits.json")]
    return [check_synth(out / "synth.csv", manifest["reference"])]


def main(argv: list[str]) -> int:
    if argv[:1] == ["prepare"] and len(argv) == 4:
        prepare(argv[1], int(argv[2]), Path(argv[3]))
        return 0
    if argv[:1] == ["check"] and len(argv) >= 2:
        manifest = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        print(json.dumps([check_pass(manifest, Path(out)) for out in argv[2:]]))
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
