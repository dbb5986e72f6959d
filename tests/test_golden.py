"""Golden pin: `fit` then `scaling` on a fixed input must keep their numbers.

The input is three price walks of 20,000 ticks, generated here with numpy
alone (not with `qgfit.sample`), so the pin does not move when the sampler
does.  Increments are Student-t (3 degrees of freedom) with a volatility held
for blocks of 2,000 ticks and drawn as 1/sqrt(chi2(4)/4), so q stays well
above the fitting floor at every scale of the default ladder.

`tests/data/golden_fits.json` and `golden_scaling.json` were written by this
pipeline and are compared with the bench tolerances: |dq| <= 1e-5,
|dbeta|/beta <= 1e-4 and exponents to 1e-4.

Regenerate the files only when a change is meant to move the numbers:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from qgfit import cli

DATA = Path(__file__).parent / "data"
GOLDEN_FITS = DATA / "golden_fits.json"
GOLDEN_SCALING = DATA / "golden_scaling.json"

N_WALKS = 3
N_TICKS = 20_000
BLOCK = 2_000
# sha256 over the generated CSV bytes: a mismatch means numpy's generator
# stream changed, not the pipeline.
INPUT_DIGEST = "c1c59787b007b174"


def write_inputs(directory: Path) -> tuple[list[str], str]:
    """Write the fixed walks as price CSVs; return their paths and a digest."""
    rng = np.random.default_rng(20170221)
    digest = hashlib.sha256()
    paths = []
    for i in range(N_WALKS):
        vol = 1.0 / np.sqrt(rng.chisquare(4.0, N_TICKS // BLOCK + 1) / 4.0)
        steps = 2e-3 * np.repeat(vol, BLOCK)[: N_TICKS - 1] * rng.standard_t(3.0, N_TICKS - 1)
        prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
        text = "timestamp,price\n" + "".join(
            f"{t},{p:.17g}\n" for t, p in enumerate(prices)
        )
        path = directory / f"walk{i}.csv"
        path.write_text(text, encoding="utf-8")
        digest.update(text.encode())
        paths.append(str(path))
    return paths, digest.hexdigest()[:16]


def run_pipeline(directory: Path) -> tuple[list[dict], dict, str]:
    """Run `fit` and `scaling` in-process; return fits, scaling report, digest."""
    inputs, digest = write_inputs(directory)
    fit_out, scaling_out = directory / "fit", directory / "scaling"
    assert cli.main(["fit", "--input", *inputs, "--out", str(fit_out)]) == 0
    fits_path = fit_out / "fits.json"
    assert cli.main(["scaling", "--fits", str(fits_path), "--out", str(scaling_out)]) == 0
    fits = json.loads(fits_path.read_text(encoding="utf-8"))
    scaling = json.loads((scaling_out / "scaling.json").read_text(encoding="utf-8"))
    return fits, scaling, digest


def test_fit_and_scaling_match_golden(tmp_path):
    fits, scaling, digest = run_pipeline(tmp_path)
    assert digest == INPUT_DIGEST, "numpy's generator stream changed; the input is not the pinned one"
    golden_fits = json.loads(GOLDEN_FITS.read_text(encoding="utf-8"))
    golden_scaling = json.loads(GOLDEN_SCALING.read_text(encoding="utf-8"))

    assert [f["dt"] for f in fits] == [g["dt"] for g in golden_fits]
    for fit, gold in zip(fits, golden_fits):
        assert fit["n_points"] == gold["n_points"], fit["dt"]
        assert abs(fit["q"] - gold["q"]) <= 1e-5, fit["dt"]
        assert abs(fit["beta"] - gold["beta"]) <= 1e-4 * gold["beta"], fit["dt"]
    for name in ("tau_fit", "gamma_fit", "delta_fit"):
        assert scaling[name]["exponent"] == pytest.approx(
            golden_scaling[name]["exponent"], abs=1e-4
        ), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        fits, scaling, digest = run_pipeline(Path(tmp))
    DATA.mkdir(exist_ok=True)
    GOLDEN_FITS.write_text(json.dumps(fits, indent=2) + "\n", encoding="utf-8")
    GOLDEN_SCALING.write_text(json.dumps(scaling, indent=2) + "\n", encoding="utf-8")
    print(f"input digest {digest}; wrote {GOLDEN_FITS} and {GOLDEN_SCALING}", file=sys.stderr)
