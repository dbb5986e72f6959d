"""The traced bench run still reports every per-layer metric BENCHMARK.json names.

`bench/traced.py` wraps the public functions of the qgfit layers by name and
`bench/run.py` turns their aggregates into per-layer metrics; a metric whose
function is gone silently drops out of the result.  This test runs
`traced.py` on a small `fit`, `scaling` and `synth`, feeds the three dumps
to `run.layer_metrics`, and requires every `per_layer` name of
BENCHMARK.json.  It only reads `bench/`.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgfit

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SRC = Path(qgfit.__file__).parents[1]
# Metrics `run.py` adds outside `layer_metrics`: the import times it reads
# from `python -X importtime` (metric -> module) and the tracing overhead.
IMPORT_METRICS = {"import.qgfit.cli.s": "qgfit.cli", "import.numpy.s": "numpy",
                  "import.scipy.optimize.s": "scipy.optimize"}
OUTSIDE_LAYER_METRICS = set(IMPORT_METRICS) | {"trace.overhead_s"}


def load_run_module():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no bench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def child_env():
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def traced(spans, *argv):
    done = subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), str(spans), *map(str, argv)],
        capture_output=True, text=True, env=child_env(),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    rng = np.random.default_rng(4)
    prices = 100.0 * np.exp(np.cumsum(1e-2 * rng.standard_t(3, 5000)))
    walk = tmp / "walk.csv"
    walk.write_text(
        "timestamp,price\n" + "".join(f"{t},{p:.17g}\n" for t, p in enumerate(prices)),
        encoding="utf-8",
    )
    out = tmp / "o"
    return [
        traced(tmp / "fit.json", "fit", "--input", walk, "--dt", "1,2,4", "--out", out),
        traced(tmp / "scaling.json", "scaling", "--fits", out / "fits.json", "--out", out),
        traced(tmp / "synth.json", "synth", "--q", 1.5, "--beta", 1, "--n", 1000, "--out", out),
    ]


def test_every_per_layer_metric_is_reported(dumps):
    run = load_run_module()
    children = [run.Child(0.0, 0.0, 0.0, 0, False, d["started"], d["dumped"]) for d in dumps]
    layer_pass = run.Pass(BENCH, traced=True, children=children, dumps=dumps)
    reported = set(run.layer_metrics(layer_pass)) | OUTSIDE_LAYER_METRICS
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in reported]
    assert not missing, f"per-layer metrics no traced function reports: {missing}"


def test_cli_import_loads_the_timed_modules():
    code = "import sys, qgfit.cli; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert done.returncode == 0, done.stderr
    assert set(IMPORT_METRICS.values()) <= set(done.stdout.split())
