"""End-to-end tests of the command-line interface.

Commands run in this process through `cli.main`; a few cases run
`python -m qgfit.cli` as a subprocess to cover the real entry point.
"""

import builtins
import csv
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import qgfit
from qgfit import cli, estimation
from qgfit.estimation import Q_BOUNDS
from qgfit.qgaussian import QGaussianParams, ccdf_abs

TABLE1_FIRST = "4,1.53,1.78"
TABLE1_LAST = "780,1.35,1.03"


def run_python(*args):
    # The child imports the same qgfit as this process, installed or not.
    package_root = str(Path(qgfit.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def run_cli(*argv):
    return run_python("-m", "qgfit.cli", *map(str, argv))


def run(*argv):
    """Run one CLI command in this process and return its exit code."""
    return cli.main([str(a) for a in argv])


BLOCK_ROWS = cli._CSV_BLOCK_ROWS


def synth_csv_reference(q, beta, n, seed):
    """The bytes of synth.csv as documented, rebuilt without the CLI.

    Increments are standard normals over sqrt(chi-square/nu), drawn in that
    order from one PCG64 generator, scaled by 1/sqrt(beta(3-q)).  The log
    walk starts at 0; if it spans more than 1200, its increments are scaled
    so that it spans exactly 1200, and if it then leaves [-600, 600] it is
    recentred.  Prices are 100 exp(log price), written by csv.writer as
    `timestamp,price` rows with integer ticks from 0 and %.17g prices.
    """
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
    prices = 100.0 * np.exp(log_price)
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(["timestamp", "price"])
    writer.writerows((t, f"{p:.17g}") for t, p in enumerate(prices))
    return text.getvalue().encode("utf-8")


# Each row format the commands write, with the csv.writer field that formats
# each value alike: the value through a format spec, or None for the value itself.
ROW_FORMATS = {
    "%d,%.17g": (None, ".17g"),  # synth.csv
    "%.12g,%.12g,%.12g": (".12g", ".12g", ".12g"),  # curves, pdfplot.csv
    "%d,%.10g,%.10g": (None, ".10g", ".10g"),  # table.csv
    "%d,%.2f,%.2f": (None, ".2f", ".2f"),  # table1.csv
    "%r,%r,%r": (None, None, None),  # scaling CSVs
}
EDGE_FLOATS = [5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 1e308, -1e308, 0.1]


def csv_writer_reference(header, specs, columns):
    """CSV bytes of `columns` built by csv.writer, each field formatted by its spec."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(
        [v if spec is None else format(v, spec) for v, spec in zip(row, specs)]
        for row in zip(*columns)
    )
    return text.getvalue().encode("utf-8")


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestTable1:
    def test_emits_published_rows(self, tmp_path):
        out = tmp_path / "o"
        assert run("table1", "--out", out) == 0
        lines = (out / "table1.csv").read_text().strip().splitlines()
        assert lines[0] == "dt,q,beta"
        assert len(lines) == 10
        assert lines[1] == TABLE1_FIRST
        assert lines[-1] == TABLE1_LAST

    def test_reinvocation_identical(self, tmp_path):
        out = tmp_path / "o"
        run("table1", "--out", out)
        first = (out / "table1.csv").read_bytes()
        run("table1", "--out", out)
        assert (out / "table1.csv").read_bytes() == first

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "table1.csv").mkdir()
        assert run("table1", "--out", tmp_path) == 1
        assert str(tmp_path / "table1.csv") in capsys.readouterr().err


# Bytes `synth` may hold beyond its 9 a price: one block of 65,536 chi-square
# draws or walk sums (512 KiB), or one 4,096-row block of CSV text and its
# Python numbers (about 0.5 MB).  Two float64 arrays of the walk's size would
# hold 8 more bytes a price, 1.6 MB at 200,000 prices.
SYNTH_FIXED_BYTES = 1024 * 1024


class TestSynth:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("synth", "--q", 1.5, "--beta", 1, "--n", 5000, "--seed", 9, "--out", a) == 0
        assert run("synth", "--q", 1.5, "--beta", 1, "--n", 5000, "--seed", 9, "--out", b) == 0
        assert (a / "synth.csv").read_bytes() == (b / "synth.csv").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", "--q", 1.5, "--beta", 1, "--n", 5000, "--seed", 1, "--out", a)
        run("synth", "--q", 1.5, "--beta", 1, "--n", 5000, "--seed", 2, "--out", b)
        assert (a / "synth.csv").read_bytes() != (b / "synth.csv").read_bytes()

    @pytest.mark.parametrize(
        "q, beta, n, seed, branch",
        [
            (1.5, 1.0, 50_000, 3, "plain"),
            (1.9, 0.5, 20_000, 4, "rescale"),
            (1.3, 0.01, BLOCK_ROWS, 3, "recentre"),
            (1.5, 1.0, 2, 9, "plain"),
            (1.2, 3.0, BLOCK_ROWS + 1, 5, "plain"),
            (2.5, 10.0, 2 * BLOCK_ROWS + 3, 6, "rescale"),
        ],
    )
    def test_bytes_match_documented_walk(self, tmp_path, capsys, q, beta, n, seed, branch):
        argv = ["synth", "--q", q, "--beta", beta, "--n", n, "--seed", seed, "--out", tmp_path]
        assert run(*argv) == 0
        written = (tmp_path / "synth.csv").read_bytes()
        assert written == synth_csv_reference(q, beta, n, seed)
        # the case exercises the branch it is labelled with
        assert ("increments scaled" in capsys.readouterr().err) == (branch == "rescale")
        assert (written.split(b"\r\n")[1] == b"0,100") == (branch == "plain")

    @pytest.mark.parametrize("q", [2.95, 2.99])
    def test_non_finite_prices_are_numerical_error(self, tmp_path, capsys, q):
        # chi-square draws underflow to 0 near q = 3, so some increments are infinite
        out = tmp_path / "o"
        assert run("synth", "--q", q, "--beta", 1, "--n", 100_000, "--seed", 1, "--out", out) == 3
        assert f"q={q}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "q, beta, seed",
        [
            (2.96875, 1.0, 87),  # a chi-square draw of 0 makes one increment infinite
            (2.99, 1e-300, 1),  # dividing by sqrt(beta (3 - q)) overflows
        ],
    )
    def test_non_finite_walk_fails_before_any_warning(self, tmp_path, capsys, q, beta, seed):
        out = tmp_path / "o"
        assert run("synth", "--q", q, "--beta", beta, "--n", 81, "--seed", seed, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"qgfit: numerical failure: synth at q={q}, beta={beta} ")
        assert "warning" not in err and err.count("\n") == 1
        assert not out.exists()

    def test_flattened_walk_is_numerical_error(self, tmp_path, capsys):
        # the rescale to float64 range leaves most increments below the
        # resolution of the price, so the walk would repeat prices
        out = tmp_path / "o"
        assert run("synth", "--q", 2.9, "--beta", 1, "--n", 100_000, "--seed", 1, "--out", out) == 3
        err = capsys.readouterr().err
        assert "q=2.9" in err and "equal to the one before" in err
        assert not out.exists()

    def test_walk_holds_9_bytes_per_price(self, tmp_path, capsys):
        # a float64 walk, into which the increments are drawn and summed,
        # and the repeated-price mask of one byte a price
        n = 200_000
        argv = ["synth", "--q", 2.0, "--beta", 1, "--n", n, "--seed", 1]
        assert run(*argv, "--out", tmp_path / "a") == 0  # imports and first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert run(*argv, "--out", tmp_path / "b") == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert "increments scaled" in capsys.readouterr().err  # the rescale branch too
        assert peak <= 9 * n + SYNTH_FIXED_BYTES

    def test_out_under_regular_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / "o"

        def unexpected(*args, **kwargs):
            raise AssertionError("sampled before --out was checked")

        monkeypatch.setattr(cli, "sample", unexpected)
        assert run("synth", "--q", 1.5, "--beta", 1, "--n", 100, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == (
            f"qgfit: usage error: cannot write output under {out}: "
            f"[Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: {str(blocker)!r}\n"
        )
        assert ".qgfit-" not in err  # the stage directory's random name

    def test_n_too_small(self, tmp_path):
        assert run("synth", "--q", 1.5, "--beta", 1, "--n", 1, "--out", tmp_path / "o") == 1

    # Sizes whose allocation fails at once: 2**60 float64 values span 2**63 bytes.
    @pytest.mark.parametrize("n", [2**60, 2**62])
    def test_n_past_memory_is_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "o"
        assert run("synth", "--q", 1.5, "--beta", 1, "--n", n, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"qgfit: usage error: --n {n} prices do not fit in memory: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("synth", "--q", 1.5, "--beta", 1, "--n", 10, "--seed", -1, "--out", out) == 1
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_params(self, tmp_path):
        assert run("synth", "--q", 3.5, "--beta", 1, "--n", 100, "--out", tmp_path / "o") == 1

    def test_infinite_beta_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("synth", "--q", 1.5, "--beta", "inf", "--n", 10, "--out", out) == 1
        assert "usage error: beta must lie in (0, inf), got beta=inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--beta", "-1e+308", "beta must lie in (0, inf), got beta=-1e+308"),
            ("--beta", "-inf", "beta must lie in (0, inf), got beta=-inf"),
            ("--beta", "-1", "beta must lie in (0, inf), got beta=-1.0"),
            ("--q", "-1E5", "q must lie in (1, 3), got q=-100000.0"),
            ("--q", "-inf", "q must lie in (1, 3), got q=-inf"),
        ],
    )
    def test_negative_value_in_any_float_form_is_checked(
        self, tmp_path, capsys, flag, value, message
    ):
        # argparse took "-1e+308" and "-inf" for flags and named no value
        out = tmp_path / "o"
        flags = {"--q": "1.5", "--beta": "1", flag: value}
        assert run("synth", *itertools.chain(*flags.items()), "--n", 10, "--out", out) == 1
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()


# Bytes `fit` may hold beyond its 24 a tick: one scale's grid, fit and curve
# text, and the pair lists of its output writers, about 60 kB.  A series that
# kept its ticks would peak 8 more bytes a tick, 1.6 MB at 200,000 ticks.
FIT_FIXED_BYTES = 256 * 1024


class TestFit:
    def test_two_company_bundle_shapes(self, tmp_path):
        for seed, name in [(5, "alpha"), (6, "bravo")]:
            out = tmp_path / name
            run("synth", "--q", 1.5, "--beta", 1, "--n", 30000, "--seed", seed, "--out", out)
            (out / "synth.csv").rename(tmp_path / f"{name}.csv")
        inputs_before = {
            name: (tmp_path / f"{name}.csv").read_bytes() for name in ("alpha", "bravo")
        }
        out = tmp_path / "fits"
        status = run(
            "fit",
            "--input", tmp_path / "alpha.csv", tmp_path / "bravo.csv",
            "--dt", "4,16",
            "--out", out,
        )
        assert status == 0
        table = (out / "table.csv").read_text().strip().splitlines()
        assert table[0] == "dt,q,beta"
        assert len(table) == 3
        assert (out / "ccdf_dt4.csv").is_file()
        assert (out / "ccdf_dt16.csv").is_file()
        fits = json.loads((out / "fits.json").read_text())
        assert [f["dt"] for f in fits] == [4, 16]
        assert all("converged" in f and "residual" in f for f in fits)
        rows = read_csv_rows(out / "ccdf_dt4.csv")
        assert set(rows[0]) == {"x", "ccdf_empirical", "ccdf_fitted"}
        # input files are never mutated
        for name, before in inputs_before.items():
            assert (tmp_path / f"{name}.csv").read_bytes() == before
        # the whole command is deterministic given (inputs, flags)
        rerun = tmp_path / "fits2"
        status = run(
            "fit",
            "--input", tmp_path / "alpha.csv", tmp_path / "bravo.csv",
            "--dt", "4,16",
            "--out", rerun,
        )
        assert status == 0
        assert (rerun / "fits.json").read_bytes() == (out / "fits.json").read_bytes()

    def test_round_trip_recovers_q(self, tmp_path):
        # geometric walk with heavy-tailed increments: the dt=1 fit has to
        # land on the generating index
        gen = tmp_path / "gen"
        status = run(
            "synth", "--q", 1.5, "--beta", 1, "--n", 1_000_000, "--seed", 12, "--out", gen
        )
        assert status == 0
        out = tmp_path / "fits"
        assert run("fit", "--input", gen / "synth.csv", "--dt", "1", "--out", out) == 0
        fits = json.loads((out / "fits.json").read_text())
        assert fits[0]["q"] == pytest.approx(1.5, abs=0.02)

    def test_heavy_tail_walk_converges(self, tmp_path, capsys):
        # the optimum's finite-difference gradient sits near 1.8e-6 here, which
        # a gradient tolerance of 1e-6 reported as a failed fit
        rng = np.random.default_rng(7)
        rng.standard_normal(200_000)
        rng.standard_t(3, 200_000)
        prices = 100.0 * np.exp(np.cumsum(1e-3 * rng.standard_t(1.5, 200_000)))
        path = tmp_path / "walk.csv"
        path.write_text(
            "timestamp,price\n" + "".join(f"{t},{p:.17g}\n" for t, p in enumerate(prices)),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert run("fit", "--input", path, "--dt", "4", "--out", out) == 0
        assert "did not converge" not in capsys.readouterr().err
        [fit] = json.loads((out / "fits.json").read_text())
        assert fit["converged"]
        assert fit["q"] == pytest.approx(1.7709649, abs=1e-6)

    def test_missing_input_no_partial_output(self, tmp_path):
        out = tmp_path / "fits"
        res = run_cli("fit", "--input", tmp_path / "absent.csv", "--out", out)
        assert res.returncode == 2
        assert not out.exists()

    def test_degenerate_series_rejected(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text(
            "timestamp,price\n" + "".join(f"{t},50.0\n" for t in range(200)),
            encoding="utf-8",
        )
        assert run("fit", "--input", path, "--dt", "1", "--out", tmp_path / "o") == 2
        assert "data error" in capsys.readouterr().err

    def test_steady_growth_rejected(self, tmp_path, capsys):
        # log returns all 2e-4 up to rounding of the log prices
        path = tmp_path / "growth.csv"
        prices = 100.0 * np.exp(2e-4 * np.arange(5000))
        path.write_text(
            "timestamp,price\n" + "".join(f"{t},{p:.17g}\n" for t, p in enumerate(prices)),
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert run("fit", "--input", path, "--dt", "1,4,16", "--out", out) == 2
        assert "zero variance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "second, dt, message",
        [
            ("short", 390, "dt=390 must be smaller than the series length 300"),
            ("constant", 4, "returns have zero variance (up to rounding of their mean); "
             "cannot normalize"),
        ],
    )
    def test_per_scale_failure_names_input_and_dt(
        self, tmp_path, capsys, monkeypatch, second, dt, message
    ):
        # the bad input comes second, and is named as given; a Gaussian walk's
        # fit at dt=4 may warn first
        monkeypatch.chdir(tmp_path)
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        write_walk(tmp_path / "a" / "walk.csv", n=3000)
        if second == "short":
            write_walk(tmp_path / "b" / "walk.csv", n=300)
        else:
            (tmp_path / "b" / "walk.csv").write_text(
                "timestamp,price\n" + "".join(f"{t},5\n" for t in range(3000)), encoding="utf-8"
            )
        assert run("fit", "--input", "a/walk.csv", "b/walk.csv", "--dt", "4,390") == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"qgfit: data error: b/walk.csv at dt={dt}: {message}"
        assert not (tmp_path / "out").exists()

    # 10**9 float64 points span 7.45 GiB, and 10**20 are past the address space
    @pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
    @pytest.mark.parametrize("count", [10**9, 10**20])
    def test_grid_count_past_memory_is_usage_error(self, tmp_path, count):
        # Under a 2 GiB address-space limit every such allocation fails at
        # once; without one, an overcommitting machine might kill the process.
        walk = write_walk(tmp_path / "walk.csv")
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        limited_main = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
            "from qgfit.cli import main; sys.exit(main())"
        )
        res = run_python(
            "-c", limited_main, "fit", "--input", str(walk), "--dt", "1",
            "--grid-count", str(count), "--out", str(out),
        )
        assert res.returncode == 1
        assert res.stderr.startswith(
            f"qgfit: usage error: --grid-count {count} points do not fit in memory: "
        )
        assert "Traceback" not in res.stderr
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    def test_grid_past_memory_during_fit_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # a grid that can be allocated once but not as the fit's working set
        def no_memory(ccdf):
            raise MemoryError(f"Unable to allocate {len(ccdf)} points")

        monkeypatch.setattr(estimation, "fit_qgaussian_ccdf", no_memory)
        out = tmp_path / "o"
        walk = write_walk(tmp_path / "walk.csv")
        assert run("fit", "--input", walk, "--dt", "1", "--grid-count", 20, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == (
            "qgfit: out of memory: pooled returns at dt=1: 1999 returns on a 20-point grid: "
            "Unable to allocate 20 points\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "module, target, error, argv, message",
        [
            (estimation, "empirical_ccdf", MemoryError("Unable to allocate 160 B"),
             ["fit", "--dt", "1,2"],
             "pooled returns at dt=1: 1999 returns on a 20-point grid: Unable to allocate 160 B"),
            (cli, "read_price_csv", MemoryError("Unable to allocate 16 kB"), ["fit", "--dt", "1"],
             "Unable to allocate 16 kB"),
            (cli, "sample", MemoryError(), ["synth", "--q", "1.5", "--beta", "1", "--n", "100"],
             "allocation failed"),
        ],
        ids=["ccdf", "read", "sample"],
    )
    def test_out_of_memory_is_one_line(
        self, tmp_path, capsys, monkeypatch, module, target, error, argv, message
    ):
        def no_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, target, no_memory)
        walk = write_walk(tmp_path / "walk.csv")
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        if argv[0] == "fit":
            argv = [*argv, "--input", walk, "--grid-count", 20]
        assert run(*argv, "--out", out) == 1
        assert capsys.readouterr().err == f"qgfit: out of memory: {message}\n"
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid-min", 50],
             "grid maximum 3.211401847634107 does not exceed grid minimum 50.0"),
            (["--grid-min", 3, "--grid-count", 8], "need at least 8 CCDF points, got 7"),
        ],
        ids=["grid_past_data", "too_few_points"],
    )
    def test_pooled_scale_failure_names_dt(self, tmp_path, capsys, flags, message):
        walk = write_walk(tmp_path / "walk.csv")
        out = tmp_path / "o"
        assert run("fit", "--input", walk, "--dt", "1,2,4", *flags, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"qgfit: data error: pooled returns at dt=1: {message}\n"
        assert not out.exists()

    def test_fit_peaks_at_24_bytes_per_tick(self, tmp_path, capsys):
        # an unbroken grid: reading holds loadtxt's records (16) and the log
        # prices (8); each scale the log prices, the returns and one array of
        # their size (np.std's temporary or the sorted |r|)
        n = 200_000
        walk = tmp_path / "walk"
        assert run("synth", "--q", 1.5, "--beta", 1, "--n", n, "--seed", 1, "--out", walk) == 0
        argv = ["fit", "--input", walk / "synth.csv", "--dt", "1,4,16"]
        assert run(*argv, "--out", tmp_path / "a") == 0  # imports and first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert run(*argv, "--out", tmp_path / "b") == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert "warning" not in capsys.readouterr().err
        assert peak <= 25 * n + FIT_FIXED_BYTES


class TestScaling:
    def test_bundled_table_exponents(self, tmp_path):
        t1 = tmp_path / "t1"
        run("table1", "--out", t1)
        out = tmp_path / "sc"
        assert run("scaling", "--fits", t1 / "table1.csv", "--out", out) == 0
        report = json.loads((out / "scaling.json").read_text())
        assert abs(report["tau_fit"]["exponent"]) == pytest.approx(0.081, abs=0.01)
        assert abs(report["gamma_fit"]["exponent"]) == pytest.approx(0.106, abs=0.01)
        assert abs(report["delta_fit"]["exponent"]) == pytest.approx(1.29, abs=0.15)
        for name in ("scaling_q_vs_dt", "scaling_invbeta_vs_dt", "scaling_invbeta_vs_q"):
            rows = read_csv_rows(out / f"{name}.csv")
            assert len(rows) == 9
            assert "fitted" in rows[0]

    # Each law's scaling.json key, plot file and plot header, as README lists them.
    PLOTS = {
        "tau_fit": ("scaling_q_vs_dt", ["dt", "q_minus_1", "fitted"]),
        "gamma_fit": ("scaling_invbeta_vs_dt", ["dt", "inv_beta", "fitted"]),
        "delta_fit": ("scaling_invbeta_vs_q", ["q_minus_1", "inv_beta", "fitted"]),
    }

    def test_laws_table_matches_report(self):
        hints = typing.get_type_hints(estimation.ScalingReport)
        report_fits = [
            f.name
            for f in dataclasses.fields(estimation.ScalingReport)
            if hints[f.name] is estimation.PowerLawFit
        ]
        assert [law[0] for law in estimation._SCALING_LAWS] == report_fits == list(self.PLOTS)

    @pytest.mark.parametrize("source", ["table1", "fits_json"])
    def test_plots_hold_the_regressed_columns(self, tmp_path, source):
        if source == "table1":
            run("table1", "--out", tmp_path / "t1")
            fits_path = tmp_path / "t1" / "table1.csv"
        else:
            run("synth", "--q", 1.5, "--beta", 1, "--n", 20000, "--seed", 3, "--out", tmp_path)
            fits_dir = tmp_path / "fits"
            status = run(
                "fit", "--input", tmp_path / "synth.csv", "--dt", "4,8,16,30", "--out", fits_dir
            )
            assert status == 0
            fits_path = fits_dir / "fits.json"
        out = tmp_path / "sc"
        assert run("scaling", "--fits", fits_path, "--out", out) == 0
        report = json.loads((out / "scaling.json").read_text())
        assert list(report) == list(self.PLOTS)
        fits = estimation.load_scale_fits(fits_path)
        expected = {
            "dt": [float(f.dt) for f in fits],
            "q_minus_1": [f.q - 1.0 for f in fits],
            "inv_beta": [1.0 / f.beta for f in fits],
        }
        for key, (name, header) in self.PLOTS.items():
            with open(out / f"{name}.csv", newline="", encoding="utf-8") as fh:
                lines = list(csv.reader(fh))
            assert lines[0] == header
            x, y, fitted = ([float(v) for v in column] for column in zip(*lines[1:]))
            assert (x, y) == (expected[header[0]], expected[header[1]])
            line = estimation.fit_power_law(x, y)
            assert report[key] == {
                "exponent": line.exponent,
                "amplitude": line.amplitude,
                "stderr": line.stderr,
                "r_squared": line.r_squared,
            }
            assert fitted == line.fitted(x)

    def test_two_rows_rejected(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("dt,q,beta\n4,1.5,1.7\n8,1.49,1.6\n", encoding="utf-8")
        assert run("scaling", "--fits", path, "--out", tmp_path / "o") == 2

    def test_exact_power_law_rows(self, tmp_path):
        rows = ["dt,q,beta"]
        for dt in (4, 8, 16, 30, 60):
            rows.append(f"{dt},{1.0 + 0.6 * dt ** -0.081},{1.0 / (0.5 * dt ** 0.106)}")
        path = tmp_path / "exact.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("scaling", "--fits", path, "--out", out) == 0
        report = json.loads((out / "scaling.json").read_text())
        assert report["tau_fit"]["stderr"] == pytest.approx(0.0, abs=1e-9)
        assert report["gamma_fit"]["stderr"] == pytest.approx(0.0, abs=1e-9)

    def test_repeated_dt_rejected(self, tmp_path, capsys):
        path = tmp_path / "repeat.csv"
        path.write_text("dt,q,beta\n4,1.5,1.7\n8,1.49,1.6\n4,1.45,1.5\n", encoding="utf-8")
        assert run("scaling", "--fits", path, "--out", tmp_path / "o") == 2
        assert "distinct time scales" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, detail",
        [
            ("4,1.5,1\n8,1.4,1\n", "need fits at 3 or more distinct time scales"),
            (
                "4,1.5,1\n8,1.5,1\n16,1.5,1\n",
                "q is the same at every scale: 1/beta against q - 1 (delta) is undefined",
            ),
        ],
        ids=["two_scales", "one_q"],
    )
    def test_report_failure_names_file(self, tmp_path, capsys, rows, detail):
        path = tmp_path / "fits.csv"
        path.write_text("dt,q,beta\n" + rows, encoding="utf-8")
        out = tmp_path / "o"
        assert run("scaling", "--fits", path, "--out", out) == 2
        assert capsys.readouterr().err == f"qgfit: data error: {path}: {detail}\n"
        assert not out.exists()

    # Fits files inside the search box whose regression leaves float64's range:
    # three nearly equal q make the delta slope huge, and dt near 1e9 makes
    # the fitted 1/beta column overflow.
    @pytest.mark.parametrize(
        "fits, detail",
        [
            (
                '[{"dt":1,"q":1.5,"beta":10000},{"dt":2,"q":1.5000000001,"beta":1},'
                '{"dt":4,"q":1.5000000002,"beta":0.0001}]',
                "1/beta against q - 1 (delta): the amplitude exp(31920604653.83063) "
                "leaves float64's range",
            ),
            (
                '[{"dt":1,"q":1.5,"beta":0.0001},{"dt":2,"q":1.5000000001,"beta":1},'
                '{"dt":4,"q":1.5000000002,"beta":10000}]',
                "1/beta against q - 1 (delta): the amplitude exp(-31920604653.83063) "
                "leaves float64's range",
            ),
            (
                '[{"dt":769230769,"q":1.4,"beta":10000},{"dt":1000000000,"q":1.5,"beta":1},'
                '{"dt":1300000000,"q":1.6,"beta":0.0001}]',
                "1/beta against dt (gamma): the fitted line leaves float64's range "
                "at x=769230769.0",
            ),
        ],
        ids=["amplitude_overflow", "amplitude_underflow", "fitted_overflow"],
    )
    def test_regression_past_float64_is_data_error(self, tmp_path, capsys, fits, detail):
        path = tmp_path / "fits.json"
        path.write_text(fits, encoding="utf-8")
        out = tmp_path / "o"
        assert run("scaling", "--fits", path, "--out", out) == 2
        assert capsys.readouterr() == ("", f"qgfit: data error: {path}: {detail}\n")
        assert not out.exists()

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        t1 = tmp_path / "t1"
        run("table1", "--out", t1)
        out = tmp_path / "sc"
        (out / "scaling.json").mkdir(parents=True)
        assert run("scaling", "--fits", t1 / "table1.csv", "--out", out) == 1
        assert str(out / "scaling.json") in capsys.readouterr().err

    def test_malformed_input(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
        assert run("scaling", "--fits", path, "--out", tmp_path / "o") == 2


class TestPdfPlot:
    @pytest.fixture
    def model_ccdf_file(self, tmp_path):
        x = np.geomspace(0.05, 20.0, 300)
        params = QGaussianParams(1.53, 1.78)
        rows = zip(x.tolist(), ccdf_abs(params, x).tolist())
        path = tmp_path / "model_ccdf.csv"
        path.write_text(
            "x,ccdf,n_samples\n" + "".join(f"{v:.12g},{p:.12g},0\n" for v, p in rows),
            encoding="utf-8",
        )
        return path

    def test_numeric_matches_model(self, tmp_path, model_ccdf_file):
        out = tmp_path / "o"
        status = run(
            "pdfplot", "--ccdf", model_ccdf_file, "--q", 1.53, "--beta", 1.78, "--out", out
        )
        assert status == 0
        rows = read_csv_rows(out / "pdfplot.csv")
        for row in rows:
            if 0.1 <= float(row["x"]) <= 10.0:
                assert float(row["pdf_numeric"]) == pytest.approx(
                    float(row["pdf_model"]), rel=0.01
                )

    def test_three_point_input(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x,ccdf,n_samples\n0.5,0.8,10\n1.0,0.5,10\n2.0,0.2,10\n")
        out = tmp_path / "o"
        assert run("pdfplot", "--ccdf", path, "--q", 1.5, "--beta", 1.0, "--out", out) == 0
        assert len(read_csv_rows(out / "pdfplot.csv")) == 2

    def test_two_point_curve_names_file(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("x,ccdf\n0.5,0.8\n1.0,0.5\n")
        out = tmp_path / "o"
        assert run("pdfplot", "--ccdf", path, "--q", 1.5, "--beta", 1.0, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"qgfit: data error: {path}: need at least 3 CCDF points to differentiate\n"
        )
        assert not out.exists()

    def test_n_samples_column_ignored(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x,ccdf,n_samples\n0.5,0.8,abc\n1.0,0.5,abc\n2.0,0.2,abc\n")
        out = tmp_path / "o"
        assert run("pdfplot", "--ccdf", path, "--q", 1.5, "--beta", 1.0, "--out", out) == 0

    def test_nonnegative_densities(self, tmp_path, model_ccdf_file):
        out = tmp_path / "o"
        run("pdfplot", "--ccdf", model_ccdf_file, "--q", 1.4, "--beta", 0.7, "--out", out)
        assert all(float(r["pdf_numeric"]) >= 0.0 for r in read_csv_rows(out / "pdfplot.csv"))

    def test_infinite_beta_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("x,ccdf\n0.5,0.8\n1.0,0.5\n2.0,0.2\n")
        out = tmp_path / "o"
        assert run("pdfplot", "--ccdf", path, "--q", 1.5, "--beta", "inf", "--out", out) == 1
        assert "usage error: beta must lie in (0, inf), got beta=inf" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_ccdf(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        out = tmp_path / "o"
        assert run("pdfplot", "--ccdf", path, "--q", 1.5, "--beta", 1.0, "--out", out) == 2

    def test_chains_from_fit_output(self, tmp_path):
        # the per-scale curve files written by `fit` feed straight into pdfplot
        gen = tmp_path / "gen"
        run("synth", "--q", 1.5, "--beta", 1, "--n", 50000, "--seed", 8, "--out", gen)
        fits = tmp_path / "fits"
        assert run("fit", "--input", gen / "synth.csv", "--dt", "1", "--out", fits) == 0
        row = json.loads((fits / "fits.json").read_text())[0]
        out = tmp_path / "plots"
        status = run(
            "pdfplot", "--ccdf", fits / "ccdf_dt1.csv",
            "--q", row["q"], "--beta", row["beta"], "--out", out,
        )
        assert status == 0
        assert (out / "pdfplot.csv").is_file()

    def test_json_curve_matches_csv_curve(self, tmp_path):
        # `fit --format json` writes the curve in full float64, `--format csv` in %.12g
        gen = tmp_path / "gen"
        assert run("synth", "--q", 1.5, "--beta", 1, "--n", 20000, "--seed", 2, "--out", gen) == 0
        plots = {}
        for fmt in ("csv", "json"):
            fits = tmp_path / f"fits_{fmt}"
            argv = ["--input", gen / "synth.csv", "--dt", 1, "--format", fmt, "--out", fits]
            assert run("fit", *argv) == 0
            out = tmp_path / f"plot_{fmt}"
            curve = fits / f"ccdf_dt1.{fmt}"
            assert run("pdfplot", "--ccdf", curve, "--q", 1.5, "--beta", 1, "--out", out) == 0
            rows = read_csv_rows(out / "pdfplot.csv")
            plots[fmt] = {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}
        curve = json.loads((tmp_path / "fits_json" / "ccdf_dt1.json").read_text())
        x, p = np.array(curve["x"]), np.array(curve["ccdf_empirical"])
        # %.12g moves each CSV value by at most 5e-12 relative, so the density
        # (p[i] - p[i+1]) / (x[i+1] - x[i]) moves by at most the bound below,
        # and each pdfplot.csv value is rounded to %.12g once more (1e-11 a pair).
        # x and pdf_model, at the geometric midpoints, move by less than 1e-10.
        bound = {
            "x": 1e-10,
            "pdf_numeric": 5e-12 * ((p[:-1] + p[1:]) / (p[:-1] - p[1:]))
            + 5e-12 * (x[:-1] + x[1:]) / (x[1:] - x[:-1])
            + 1e-11,
            "pdf_model": 1e-10,
        }
        for key, tolerance in bound.items():
            got, want = plots["json"][key], plots["csv"][key]
            assert len(got) == len(want) == len(x) - 1
            assert np.all(np.abs(got - want) <= tolerance * np.abs(got)), key
        assert not np.array_equal(plots["json"]["pdf_numeric"], plots["csv"]["pdf_numeric"])

    @pytest.mark.parametrize(
        "text, detail",
        [
            ('{"ccdf_empirical": [0.8, 0.5, 0.2]}',
             "expected a JSON object with lists x and ccdf_empirical"),
            ('{"x": [0.5, 1, 2], "ccdf": [0.8, 0.5, 0.2]}',
             "expected a JSON object with lists x and ccdf_empirical"),
            ('[[0.5, 0.8], [1, 0.5], [2, 0.2]]',
             "expected a JSON object with lists x and ccdf_empirical"),
            ('{"x": ["0.5", 1, 2], "ccdf_empirical": [0.8, 0.5, 0.2]}',
             'x[0] must be a number, got "0.5"'),
            ('{"x": [0.5, 1, 2], "ccdf_empirical": [0.8, true, 0.2]}',
             "ccdf_empirical[1] must be a number, got true"),
            ('{"x": [0.5, 1, 2], "ccdf_empirical": [0.8, 0.5, null]}',
             "ccdf_empirical[2] must be a number, got null"),
            ('{"x": [0.5, 1, 1' + "0" * 400 + '], "ccdf_empirical": [0.8, 0.5, 0.2]}',
             "x[2] must be a number, got an integer past float range"),
            ('{"x": [0.5, 1, 2], "ccdf_empirical": [0.8, 0.5, NaN]}',
             "thresholds and probabilities must be finite"),
            ('{"x": [0.5, 1, 2], ', "Expecting property name enclosed in double quotes"),
        ],
        ids=["no_x", "ccdf_key", "not_object", "string", "bool", "null", "huge_int", "nan",
             "truncated"],
    )
    def test_bad_json_curve_is_data_error_naming_file(self, tmp_path, capsys, text, detail):
        path = tmp_path / "curve.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "o"
        assert run("pdfplot", "--ccdf", path, "--q", 1.5, "--beta", 1, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qgfit: data error: {path}: {detail}")
        assert err.count("\n") == 1
        assert not out.exists()


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'from_cfg'}\n# comment\n", encoding="utf-8")
        assert run("table1", "--config", cfg) == 0
        assert (tmp_path / "from_cfg" / "table1.csv").is_file()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'from_cfg'}\n", encoding="utf-8")
        assert run("table1", "--config", cfg, "--out", tmp_path / "from_flag") == 0
        assert (tmp_path / "from_flag" / "table1.csv").is_file()
        assert not (tmp_path / "from_cfg").exists()

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a key value pair\n", encoding="utf-8")
        assert run("table1", "--config", cfg, "--out", tmp_path / "o") == 1

    def test_config_values_match_flags(self, tmp_path):
        walk = write_walk(tmp_path / "walk.csv", n=5000)
        flags, from_cfg = tmp_path / "flags", tmp_path / "cfg"
        assert run("fit", "--input", walk, "--dt", "2,8", "--grid-count", 20, "--out", flags) == 0
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {walk}\ndt = 2,8\ngrid-count = 20\n", encoding="utf-8")
        assert run("fit", "--config", cfg, "--out", from_cfg) == 0
        for name in ("table.csv", "fits.json", "ccdf_dt2.csv", "ccdf_dt8.csv"):
            assert (from_cfg / name).read_bytes() == (flags / name).read_bytes()

        walk_flags = ["synth", "--q", 1.5, "--beta", 1, "--n", 100]
        assert run(*walk_flags, "--seed", 5, "--out", flags) == 0
        cfg.write_text("seed = 5\n", encoding="utf-8")
        assert run(*walk_flags, "--config", cfg, "--out", from_cfg) == 0
        assert (from_cfg / "synth.csv").read_bytes() == (flags / "synth.csv").read_bytes()

    @pytest.mark.parametrize("config", [False, True], ids=["flags", "config"])
    def test_repeated_input_is_usage_error(self, tmp_path, capsys, monkeypatch, config):
        # argparse would keep only the last flag's files and fit them alone
        def unexpected(path):
            raise AssertionError("an input was read before the flags were checked")

        monkeypatch.setattr(cli, "read_price_csv", unexpected)
        a, b = write_walk(tmp_path / "a.csv"), write_walk(tmp_path / "b.csv", n=3000)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {a}\n", encoding="utf-8")
        out = tmp_path / "o"
        argv = ["fit", "--input", a, "--input", b, "--dt", 1, "--out", out]
        assert run(*argv, *(["--config", cfg] if config else [])) == 1
        err = capsys.readouterr().err
        assert err.endswith(
            "argument --input: given more than once; list every file after one --input\n"
        )
        assert not out.exists()

    def test_inputs_after_one_flag_are_pooled(self, tmp_path):
        a, b = write_walk(tmp_path / "a.csv"), write_walk(tmp_path / "b.csv", n=3000)
        out = tmp_path / "o"
        assert run("fit", "--input", a, b, "--dt", 1, "--format", "json", "--out", out) == 0
        assert json.loads((out / "ccdf_dt1.json").read_text())["n_samples"] == 1999 + 2999

    def test_one_input_flag_replaces_config_input(self, tmp_path):
        a, b = write_walk(tmp_path / "a.csv"), write_walk(tmp_path / "b.csv", n=3000)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {a}\n", encoding="utf-8")
        flag, from_cfg = tmp_path / "flag", tmp_path / "cfg"
        assert run("fit", "--input", b, "--dt", 1, "--format", "json", "--out", flag) == 0
        argv = ["fit", "--config", cfg, "--input", b, "--dt", 1, "--format", "json"]
        assert run(*argv, "--out", from_cfg) == 0
        assert json.loads((from_cfg / "ccdf_dt1.json").read_text())["n_samples"] == 2999
        for name in ("fits.json", "ccdf_dt1.json"):
            assert (from_cfg / name).read_bytes() == (flag / name).read_bytes()

    @pytest.mark.parametrize(
        "line, flag",
        [
            ("grid-count = abc", "--grid-count"),
            ("grid-count = 4", "--grid-count"),
            ("seed = 1.5", "--seed"),
            ("seed = -1", "--seed"),
            ("grid-min = low", "--grid-min"),
            ("dt = 4,2", "--dt"),
            ("dt = 0,4", "--dt"),
            ("format = xml", "--format"),
        ],
    )
    def test_bad_config_value_names_flag(self, tmp_path, capsys, line, flag):
        # each key is read by the command that declares its flag
        if flag == "--seed":
            command = ["synth", "--q", 1.5, "--beta", 1, "--n", 10]
        else:
            command = ["fit", "--input", write_walk(tmp_path / "walk.csv")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run(*command, "--config", cfg, "--out", out) == 1
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_mark_ignored(self, tmp_path, monkeypatch):
        # as for tables: the first key is not read as "\ufeffout"
        monkeypatch.chdir(tmp_path)
        Path("bom.cfg").write_bytes(b"\xef\xbb\xbfout = cfgout\n")
        assert run("table1", "--config", "bom.cfg") == 0
        assert (tmp_path / "cfgout" / "table1.csv").is_file()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, detail",
        [
            ("missing", "cannot open: "),
            ("directory", "cannot open: "),
            ("read_fault", f"cannot read: {os.strerror(errno.EIO)}"),
            ("undecodable", "'utf-8' codec can't decode byte 0xff"),
        ],
    )
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, monkeypatch, kind, detail):
        cfg = tmp_path / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        elif kind != "missing":
            cfg.write_bytes(b"seed = 1\nout = o\xff\n" if kind == "undecodable" else b"seed = 1\n")
        if kind == "read_fault":
            fail_at_read(monkeypatch, cfg)
        out = tmp_path / "o"
        assert run("table1", "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"qgfit: usage error: {cfg}: {detail}")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_shared_keys_ignored(self, tmp_path):
        # bad values for fit's flags, which table1 and synth do not read
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"runner = bogus\ncommand = fit\nq = 9\nout = {tmp_path / 'from_cfg'}\n"
            "dt = 0\ngrid-min = -1\ninput = absent.csv\n",
            encoding="utf-8",
        )
        assert run("table1", "--config", cfg) == 0
        assert (tmp_path / "from_cfg" / "table1.csv").is_file()
        out = tmp_path / "synth"
        assert run("synth", "--config", cfg, "--q", 1.5, "--beta", 1, "--n", 10, "--out", out) == 0


class TestUsage:
    def test_unknown_command(self):
        assert run_cli("bogus").returncode == 1

    def test_no_command(self):
        assert run_cli().returncode == 1

    @pytest.mark.parametrize("command", ["fit", "scaling", "table1", "synth", "pdfplot"])
    def test_help_lists_defaults(self, command):
        # only flags that have a default show one, so no "(default: None)"
        defaults = {
            "fit": ["4,8,16,30,60,120,240,390,780", "0.01", "60", "csv", "out"],
            "synth": ["0", "out"],
        }.get(command, ["out"])
        res = run_cli(command, "--help")
        assert res.returncode == 0
        text = " ".join(res.stdout.split())
        assert re.findall(r"\(default: (.*?)\)", text) == defaults

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--input", "missing.csv"],
            ["table1", "--dt", "0"],
            ["scaling", "--fits", "fits.json", "--seed", "1"],
            ["synth", "--q", "1.5", "--beta", "1", "--n", "10", "--format", "json"],
            ["pdfplot", "--ccdf", "c.csv", "--q", "1.5", "--beta", "1", "--grid-count", "20"],
            ["fit", "--input", "walk.csv", "--seed", "1"],
        ],
        ids=lambda argv: f"{argv[0]}{[a for a in argv if a.startswith('--')][-1]}",
    )
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert run(*argv, "--out", out) == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_table_lists_each_commands_flags(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| command | reads |\n| --- | --- |\n")[1].split("\n\n")[0]
        rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.MULTILINE))
        _, commands = cli.build_parser()
        assert set(rows) == set(commands)
        for name, sub in commands.items():
            flags = [
                flag
                for action in sub._actions
                for flag in action.option_strings
                if flag.startswith("--") and flag not in ("--help", "--config")
            ]
            assert rows[name].split(", ") == [f"`{flag}`" for flag in flags], name

    def test_readme_shell_examples_parse(self):
        # every `qgfit` line of the CLI section's shell block, as a shell splits it
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```sh\n(.*?)```", readme.split("\n## CLI\n")[1], re.DOTALL)[1]
        lines = [line for line in block.splitlines() if line.startswith("qgfit ")]
        commands = {cli.parse_args(shlex.split(line)[1:]).command for line in lines}
        assert commands == set(cli.build_parser()[1])

    def test_fit_requires_input(self, tmp_path):
        assert run("fit", "--out", tmp_path / "o") == 1

    def test_json_format_fit_outputs(self, tmp_path):
        gen = tmp_path / "gen"
        run("synth", "--q", 1.6, "--beta", 1, "--n", 20000, "--seed", 4, "--out", gen)
        out = tmp_path / "fits"
        status = run(
            "fit", "--input", gen / "synth.csv", "--dt", "2", "--format", "json", "--out", out
        )
        assert status == 0
        payload = json.loads((out / "ccdf_dt2.json").read_text())
        assert payload["dt"] == 2
        assert len(payload["ccdf_fitted"]) == len(payload["x"])


def write_walk(path, n=2000, bad=None):
    """A random-walk price CSV; `bad` replaces the price at tick n // 2."""
    rng = np.random.default_rng(8)
    prices = [f"{p:.17g}" for p in 100.0 * np.exp(np.cumsum(1e-2 * rng.standard_normal(n)))]
    if bad is not None:
        prices[n // 2] = bad
    path.write_text(
        "timestamp,price\n" + "".join(f"{t},{p}\n" for t, p in enumerate(prices)),
        encoding="utf-8",
    )
    return path


class TestSearchBoxEdge:
    def test_pinned_fit_warns(self, tmp_path, capsys, monkeypatch):
        # Gaussian increments have no heavy tail, so some scales end on q = 1.01
        path = write_walk(tmp_path / "walk.csv", n=20_000)
        out = tmp_path / "o"
        assert run("fit", "--input", path, "--dt", "1,4,16,64", "--out", out) == 0
        warned = re.findall(r"fit at dt=(\d+) ended on the search-box edge", capsys.readouterr().err)
        fits = json.loads((out / "fits.json").read_text())
        pinned = [str(f["dt"]) for f in fits if abs(f["q"] - Q_BOUNDS[0]) <= 1e-6 * Q_BOUNDS[0]]
        assert pinned
        assert warned == pinned

        # a fit the optimizer reports as failed warns too, and fits.json says so
        minimize = estimation.minimize

        def failed(*args, **kwargs):
            result = minimize(*args, **kwargs)
            result.success = False
            return result

        monkeypatch.setattr(estimation, "minimize", failed)
        out = tmp_path / "failed"
        assert run("fit", "--input", path, "--dt", "1,4", "--out", out) == 0
        warned = re.findall(r"fit at dt=(\d+) did not converge", capsys.readouterr().err)
        assert warned == ["1", "4"]
        assert [f["converged"] for f in json.loads((out / "fits.json").read_text())] == [False] * 2


# An integer that float() cannot hold.
HUGE_INT = "1" + "0" * 400


def fits_json(tmp_path, **first):
    """A three-row fits.json whose first row also holds `first`."""
    rows = [{"dt": 4, "q": 1.5, "beta": 1.7}, {"dt": 8, "q": 1.49, "beta": 1.6},
            {"dt": 16, "q": 1.45, "beta": 1.5}]
    rows[0].update(first)
    path = tmp_path / "fits.json"
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
    return path


class TestBadInputExitCodes:
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_nonfinite_price_is_data_error(self, tmp_path, capsys, bad):
        path = write_walk(tmp_path / "walk.csv", bad=bad)
        out = tmp_path / "o"
        assert cli.main(["fit", "--input", str(path), "--dt", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "prices must be finite" in err
        assert str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ['{"dt": 4, "q": 1.5, "beta": 1.7}', "[4, 8, 16]", '[{"dt": 4, "q": null, "beta": 1.7}]'],
        ids=["object", "list_of_numbers", "null_q"],
    )
    def test_fits_json_wrong_shape_is_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "fits.json"
        path.write_text(text + "\n", encoding="utf-8")
        assert cli.main(["scaling", "--fits", str(path), "--out", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, written",
        [("dt", 4.5, "4.5"), ("dt", True, "true"), ("n_points", 60.5, "60.5")],
        ids=["dt", "bool", "n"],
    )
    def test_fits_json_non_integer_is_data_error(self, tmp_path, capsys, field, value, written):
        # int() would turn these into a different scale or count
        path = fits_json(tmp_path, **{field: value})
        out = tmp_path / "o"
        assert cli.main(["scaling", "--fits", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be an integer, got {written}" in err and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"residual": -3, "n_points": -7}, "fit residual must be non-negative, got -3.0"),
            ({"n_points": -7}, "n_points must be non-negative, got -7"),
            ({"residual": math.nan}, "fit residual must be finite"),  # json reads NaN
        ],
        ids=["residual", "n_points", "nan_residual"],
    )
    def test_fits_json_negative_diagnostic_is_data_error(self, tmp_path, capsys, fields, message):
        path = fits_json(tmp_path, **fields)
        out = tmp_path / "o"
        assert cli.main(["scaling", "--fits", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"qgfit: data error: cannot parse fits file {path}: fit 1: {message}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "value, written", [("false", '"false"'), (0, "0"), (None, "null")], ids=["false", "0", "None"]
    )
    def test_fits_json_non_boolean_converged_is_data_error(self, tmp_path, capsys, value, written):
        # bool("false") is True
        path = fits_json(tmp_path, converged=value)
        out = tmp_path / "o"
        assert cli.main(["scaling", "--fits", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"qgfit: data error: cannot parse fits file {path}: fit 1: "
            f"converged must be true or false, got {written}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ('"dt": 8, "q": 1.49, "beta": true', "beta must be a number, got true"),
            ('"dt": 8, "q": "1.49", "beta": 1.6', 'q must be a number, got "1.49"'),
            ('"dt": 8, "q": null, "beta": 1.6', "q must be a number, got null"),
            ('"dt": 8, "beta": 1.6', "missing q"),
            ('"dt": 8, "q": 1.49, "beta": 1.6, "residual": true',
             "residual must be a number, got true"),
            ('"dt": "8", "q": 1.49, "beta": 1.6', 'dt must be an integer, got "8"'),
            (f'"dt": 8, "q": {HUGE_INT}, "beta": 1.6',
             "q must be a number, got an integer past float range"),
            (f'"dt": {HUGE_INT}, "q": 1.49, "beta": 1.6',
             "dt must be a number, got an integer past float range"),
        ],
        ids=["bool_beta", "string_q", "null_q", "missing_q", "bool_residual", "string_dt",
             "huge_q", "huge_dt"],
    )
    def test_fits_json_field_not_a_number_is_data_error(self, tmp_path, capsys, row, message):
        # float() would read true as 1.0 and "1.49" as 1.49, and overflow on HUGE_INT
        path = tmp_path / "fits.json"
        path.write_text(
            f'[{{"dt": 4, "q": 1.5, "beta": 1.7}}, {{{row}}}, {{"dt": 16, "q": 1.45, "beta": 1.5}}]',
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert cli.main(["scaling", "--fits", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"qgfit: data error: cannot parse fits file {path}: fit 2: {message}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("fits.json", '{"dt": 4}', "expected a JSON list of objects with dt, q and beta"),
            ("fits.csv", "a,b\n1,2\n", "expected columns dt,q,beta, got ['a', 'b']"),
        ],
        ids=["json", "csv"],
    )
    def test_fits_shape_error_names_path_once(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert cli.main(["scaling", "--fits", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"qgfit: data error: cannot parse fits file {path}: {message}\n"
        )

    @pytest.mark.parametrize(
        "name, dt, message",
        [
            ("fits.csv", "0", "dt must be a positive integer, got 0"),
            ("fits.csv", "-4", "dt must be a positive integer, got -4"),
            ("fits.json", "0", "dt must be a positive integer, got 0"),
            ("fits.json", "-4", "dt must be a positive integer, got -4"),
            ("fits.csv", HUGE_INT, "in column 'dt'"),
            ("fits.csv", "4.5", "in column 'dt'"),
            ("fits.csv", "4.0", "in column 'dt'"),
            ("fits.csv", str(2**63), "in column 'dt'"),
            ("fits.json", str(2**63), "dt must be at most 2**63 - 1, got 9223372036854775808"),
            ("fits.csv", "1" + "0" * 20, "in column 'dt'"),
            ("fits.json", "1" + "0" * 20, "dt must be at most 2**63 - 1, got 1" + "0" * 20),
        ],
        ids=[
            "csv_zero", "csv_negative", "json_zero", "json_negative", "csv_huge", "csv_4.5",
            "csv_4.0", "csv_past_int64", "json_past_int64", "csv_1e20", "json_1e20",
        ],
    )
    def test_fits_bad_dt_is_data_error(self, tmp_path, capsys, name, dt, message):
        if name == "fits.json":
            path = fits_json(tmp_path, dt=int(dt))
        else:
            path = tmp_path / name
            path.write_text(f"dt,q,beta\n{dt},1.5,1.7\n8,1.49,1.6\n16,1.45,1.5\n", encoding="utf-8")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            # as the installed command runs: numpy's deprecation warnings ignored
            warnings.simplefilter("ignore", DeprecationWarning)
            assert cli.main(["scaling", "--fits", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"qgfit: data error: cannot parse fits file {path}: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["fits.csv", "fits.json"])
    def test_fits_largest_dt_is_read(self, tmp_path, name):
        # the last int64, which a fits CSV's dt column can hold, loads from either format
        if name == "fits.json":
            path = fits_json(tmp_path, dt=2**63 - 1)
        else:
            path = tmp_path / name
            rows = f"dt,q,beta\n{2**63 - 1},1.5,1.7\n8,1.49,1.6\n16,1.45,1.5\n"
            path.write_text(rows, encoding="utf-8")
        assert cli.main(["scaling", "--fits", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_fits_json_whole_float_dt_is_read(self, tmp_path):
        path = fits_json(tmp_path, dt=4.0, converged=False)
        assert cli.main(["scaling", "--fits", str(path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "rows",
        ["0.5,nan\n1.0,0.5\n2.0,0.2\n", "0.5,0.8\n1.0,0.5\ninf,0.2\n"],
        ids=["nan_ccdf", "inf_x"],
    )
    def test_nonfinite_ccdf_is_data_error(self, tmp_path, capsys, rows):
        path = tmp_path / "ccdf.csv"
        path.write_text("x,ccdf\n" + rows, encoding="utf-8")
        out = tmp_path / "o"
        argv = ["pdfplot", "--ccdf", str(path), "--q", "1.5", "--beta", "1", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["fits.csv", "fits.json"])
    def test_fits_value_error_names_fit(self, tmp_path, capsys, name):
        path = tmp_path / name
        if name == "fits.json":
            rows = [{"dt": 4, "q": 1.5, "beta": 1.7}, {"dt": 0, "q": 1.49, "beta": 1.6}]
            path.write_text(json.dumps(rows), encoding="utf-8")
        else:
            path.write_text("dt,q,beta\n4,1.5,1.7\n0,1.49,1.6\n", encoding="utf-8")
        assert cli.main(["scaling", "--fits", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"qgfit: data error: cannot parse fits file {path}: "
            "fit 2: dt must be a positive integer, got 0\n"
        )

    def test_nonfinite_fit_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "fits.csv"
        path.write_text("dt,q,beta\n4,nan,1.7\n8,1.49,1.6\n16,1.45,1.5\n", encoding="utf-8")
        assert cli.main(["scaling", "--fits", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert str(path) in err

    @pytest.mark.parametrize(
        "spelling, ladder",
        [
            pytest.param("flag", ",", id="flag"),
            pytest.param("config", "", id="config"),
            # an empty item is a typo, not a shorter ladder
            pytest.param("flag", "4,,16", id="flag-inner_item"),
            pytest.param("flag", "4,8,", id="flag-last_item"),
            pytest.param("config", "4,,16", id="config-inner_item"),
            pytest.param("config", "4,8,", id="config-last_item"),
        ],
    )
    def test_empty_dt_ladder_is_usage_error(self, tmp_path, capsys, spelling, ladder):
        path = write_walk(tmp_path / "walk.csv")
        out = tmp_path / "o"
        argv = ["fit", "--input", str(path), "--out", str(out)]
        if spelling == "flag":
            argv += ["--dt", ladder]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"dt={ladder}\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert cli.main(argv) == 1
        assert "--dt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_non_integer_dt_item_is_usage_error(self, tmp_path, capsys, spelling):
        path = write_walk(tmp_path / "walk.csv")
        out = tmp_path / "o"
        argv = ["fit", "--input", str(path), "--out", str(out)]
        if spelling == "flag":
            argv += ["--dt", "4,x,16"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("dt=4,x,16\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.endswith(
            "\nqgfit fit: error: argument --dt: expects a comma-separated integer list: "
            "invalid literal for int() with base 10: 'x'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["dot", "symlink", "hardlink"])
    def test_same_input_twice_is_usage_error(self, tmp_path, capsys, monkeypatch, spelling):
        # pooling a walk twice moves the grid cap and so the fitted q
        path = write_walk(tmp_path / "walk.csv")
        again = os.path.join(tmp_path, ".", "walk.csv")
        if spelling != "dot":
            again = tmp_path / "link.csv"
            link = again.symlink_to if spelling == "symlink" else again.hardlink_to
            try:
                link(path)
            except (OSError, NotImplementedError) as exc:  # not permitted, or no os.link
                pytest.skip(f"cannot make a {spelling}: {exc}")

        def unexpected(p):
            raise AssertionError(f"{p} was parsed before the inputs were compared")

        monkeypatch.setattr(cli, "read_price_csv", unexpected)
        out = tmp_path / "o"
        assert run("fit", "--input", path, again, "--dt", "1", "--out", out) == 1
        assert capsys.readouterr().err == (
            f"qgfit: usage error: --input {path} and {again} are the same file\n"
        )
        assert not out.exists()

    def test_negative_grid_min_is_usage_error(self, tmp_path, capsys):
        path = write_walk(tmp_path / "walk.csv")
        argv = ["fit", "--input", str(path), "--grid-min", "-1", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 1
        assert "grid minimum must be positive" in capsys.readouterr().err
        # the grid is checked before the input is looked for
        out = tmp_path / "o"
        argv = ["fit", "--input", str(tmp_path / "absent.csv"), "--out", str(out)]
        assert cli.main([*argv, "--grid-min", "2", "--grid-max", "1"]) == 1
        assert "must exceed minimum" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bound", ["--grid-min", "--grid-max"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_grid_bound_is_usage_error(self, tmp_path, capsys, bound, value):
        path = write_walk(tmp_path / "walk.csv")
        out = tmp_path / "o"
        argv = ["fit", "--input", str(path), "--dt", "1", bound, value, "--out", str(out)]
        assert cli.main(argv) == 1
        name = "minimum must be positive and" if bound == "--grid-min" else "maximum must be"
        assert capsys.readouterr().err == f"qgfit: usage error: grid {name} finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["table1", "scaling", "synth", "pdfplot"])
    def test_invalid_grid_is_usage_error_on_every_command(self, tmp_path, capsys, command):
        # only fit reads the grid; the other commands do not accept its flags
        own = {"scaling": ["--fits", "x"], "synth": ["--q", "1.5", "--beta", "1", "--n", "9"],
               "pdfplot": ["--ccdf", "x", "--q", "1.5", "--beta", "1"]}.get(command, [])
        out = tmp_path / "o"
        assert cli.main([command, *own, "--grid-min", "-1", "--out", str(out)]) == 1
        assert "unrecognized arguments: --grid-min -1" in capsys.readouterr().err
        assert cli.main([command, *own, "--grid-min", "2", "--grid-max", "1"]) == 1
        assert "unrecognized arguments: --grid-min 2 --grid-max 1" in capsys.readouterr().err
        assert not out.exists()

    def test_out_under_regular_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        path = write_walk(tmp_path / "walk.csv")
        out = tmp_path / "walk.csv" / "o"

        def unexpected(p):
            raise AssertionError(f"{p} was parsed before --out was checked")

        # the bad --out is reported before any input is parsed
        monkeypatch.setattr(cli, "read_price_csv", unexpected)
        assert cli.main(["fit", "--input", str(path), "--dt", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"cannot write output under {out}: " in err
        assert err.endswith(f"{os.strerror(errno.ENOTDIR)}: {str(path)!r}\n")
        assert ".qgfit-" not in err

    @pytest.mark.parametrize("command", ["table1", "scaling", "pdfplot"])
    def test_out_under_regular_file_is_usage_error_before_input(
        self, tmp_path, capsys, monkeypatch, command
    ):
        out = tmp_path / "file" / "o"
        out.parent.write_text("x")
        own = {
            "scaling": ["--fits", tmp_path / "fits.csv"],
            "pdfplot": ["--ccdf", tmp_path / "curve.csv", "--q", 1.5, "--beta", 1],
        }.get(command, [])

        def unexpected(*args, **kwargs):
            raise AssertionError("input read or output written before --out was checked")

        for name in ("load_scale_fits", "read_ccdf_csv", "_write_rows"):
            monkeypatch.setattr(cli, name, unexpected)
        for target in (out, out.parent, out / "deeper"):
            assert run(command, *own, "--out", target) == 1
            err = capsys.readouterr().err
            assert f"cannot write output under {target}: " in err
            assert err.endswith(f"{os.strerror(errno.ENOTDIR)}: {str(out.parent)!r}\n")
            assert ".qgfit-" not in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize(
        "flag, name",
        [("--input", "prices.csv"), ("--fits", "fits.csv"), ("--fits", "fits.json"),
         ("--ccdf", "curve.csv"), ("--ccdf", "curve.json")],
        ids=["input", "fits_csv", "fits_json", "ccdf", "ccdf_json"],
    )
    def test_unopenable_input_is_data_error(self, tmp_path, capsys, kind, flag, name):
        path = tmp_path / name
        if kind == "directory":
            path.mkdir()
        command = {"--input": ["fit"], "--fits": ["scaling"]}.get(
            flag, ["pdfplot", "--q", 1.5, "--beta", 1]
        )
        out = tmp_path / "o"
        assert run(*command, flag, path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("qgfit: data error: ")
        assert f"{path}: cannot open: " in err
        assert not out.exists()
        assert not list(tmp_path.rglob(".qgfit-*"))

    @pytest.mark.parametrize(
        "flag, name, text",
        [
            ("--input", "prices.csv", "timestamp,price\n0,1.0\n1,2.0\n2,4.0\n"),
            ("--input", "prices.csv.gz", "timestamp,price\n0,1.0\n1,2.0\n2,4.0\n"),
            ("--fits", "fits.csv", "dt,q,beta\n4,1.5,1.7\n8,1.49,1.6\n16,1.45,1.5\n"),
            ("--fits", "fits.json", '[\n{"dt": 4, "q": 1.5, "beta": 1.7}\n]\n'),
            ("--ccdf", "curve.csv", "x,ccdf\n0.5,0.8\n1.0,0.5\n2.0,0.2\n"),
            ("--ccdf", "curve.json", '{\n"x": [0.5, 1, 2],\n"ccdf_empirical": [0.8, 0.5, 0.2]}\n'),
        ],
        ids=["input", "input_gz_name", "fits_csv", "fits_json", "ccdf", "ccdf_json"],
    )
    def test_read_fault_is_data_error(self, tmp_path, capsys, monkeypatch, flag, name, text):
        # the file opens, but a read fails partway: not an output error
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        command = {"--input": ["fit", "--dt", "1"], "--fits": ["scaling"]}.get(
            flag, ["pdfplot", "--q", 1.5, "--beta", 1]
        )
        out = tmp_path / "o"
        fail_at_read(monkeypatch, path)
        assert run(*command, flag, path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("qgfit: data error: ")
        assert f"{path}: cannot read: {os.strerror(errno.EIO)}" in err
        assert not out.exists()
        assert not list(tmp_path.rglob(".qgfit-*"))


class _EIOAfterFirstLine(io.TextIOWrapper):
    """A text file whose first line reads and whose every later read fails with EIO."""

    served = False

    def _fail(self):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    def __next__(self):
        if self.served:
            self._fail()
        self.served = True
        return super().__next__()

    def read(self, size=-1):
        self._fail()

    def readline(self, size=-1):
        self._fail()


def fail_at_read(monkeypatch, path):
    """Make `path` fail with EIO after its first line, however it is opened for reading."""
    real_open = io.open

    def faulty_open(file, mode="r", *args, encoding=None, newline=None, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) == path and "r" in mode:
            return _EIOAfterFirstLine(real_open(file, "rb"), encoding=encoding, newline=newline)
        return real_open(file, mode, *args, encoding=encoding, newline=newline, **kwargs)

    monkeypatch.setattr(builtins, "open", faulty_open)
    monkeypatch.setattr(io, "open", faulty_open)
    # np.loadtxt opens a path through numpy's own opener
    monkeypatch.setattr(np.lib._datasource, "open", faulty_open)


def snapshot(directory):
    """Every file under `directory` by relative path, with its bytes."""
    return {
        p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()
    }


def fail_at_write(monkeypatch, root, k):
    """Make the k-th file opened for writing under `root` fail with ENOSPC."""
    real_open = io.open
    opened = []

    def faulty_open(file, mode="r", *args, **kwargs):
        if (
            isinstance(file, (str, os.PathLike))
            and set(mode) & set("wxa")
            and Path(file).is_relative_to(root)
        ):
            opened.append(file)
            if len(opened) == k:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))
        return real_open(file, mode, *args, **kwargs)

    # open() and Path.write_text() both end in io.open
    monkeypatch.setattr(builtins, "open", faulty_open)
    monkeypatch.setattr(io, "open", faulty_open)


class TestWriteRows:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        row_format=st.sampled_from(sorted(ROW_FORMATS)),
        n=st.sampled_from([0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]),
        floats=st.lists(
            st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS),
            min_size=1,
            max_size=20,
        ),
        ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=20),
        seed=st.integers(0, 2**32 - 1),
        as_arrays=st.booleans(),
    )
    def test_bytes_match_csv_writer(self, row_format, n, floats, ints, seed, as_arrays):
        # columns as the commands pass them: lists or ndarrays, and synth's ticks as a range
        rng = np.random.default_rng(seed)
        columns = []
        for field in row_format.split(","):
            pool = ints if field == "%d" else floats
            columns.append([pool[i] for i in rng.integers(len(pool), size=n)])
        passed = [np.array(c) if as_arrays else c for c in columns]
        if row_format == "%d,%.17g":
            passed[0] = range(seed, seed + n)
            columns[0] = list(passed[0])
        specs = ROW_FORMATS[row_format]
        header = ["a", "b", "c"][: len(specs)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            cli._write_rows(path, header, row_format, *passed)
            written = path.read_bytes()
        assert written == csv_writer_reference(header, specs, columns)


class TestOutputStage:
    """Files move into --out only when the command succeeds."""

    @pytest.fixture(params=["fit", "scaling"])
    def runs(self, request, tmp_path):
        """The argv, without --out, of an earlier run and of a run with other output."""
        if request.param == "fit":
            old = ["fit", "--input", write_walk(tmp_path / "a.csv", n=2000), "--dt", "1,4,16"]
            new = ["fit", "--input", write_walk(tmp_path / "b.csv", n=3000), "--dt", "1,4,16"]
            return old, new
        exact = tmp_path / "exact.csv"
        exact.write_text(
            "dt,q,beta\n"
            + "".join(f"{dt},{1 + 0.6 * dt**-0.081},{2 * dt**-0.106}\n" for dt in (4, 8, 16, 30)),
            encoding="utf-8",
        )
        run("table1", "--out", tmp_path / "t1")
        return ["scaling", "--fits", tmp_path / "t1" / "table1.csv"], ["scaling", "--fits", exact]

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "fresh"])
    def test_write_fault_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch, runs, existing):
        old, new = runs
        out = tmp_path / "o"
        if existing:
            assert run(*old, "--out", out) == 0
        before = snapshot(out) if existing else None
        probe = tmp_path / "probe"
        assert run(*new, "--out", probe) == 0
        written = snapshot(probe)
        if existing:
            assert written.keys() == before.keys()
            assert all(written[name] != before[name] for name in before)
        capsys.readouterr()
        for k in range(1, len(written) + 1):
            with monkeypatch.context() as patch:
                fail_at_write(patch, tmp_path, k)
                assert run(*new, "--out", out) == 1
            printed = capsys.readouterr()
            assert f"cannot write output under {out}: " in printed.err
            assert "No space left" in printed.err
            assert printed.out == ""  # no "wrote" line for files that were not written
            if existing:
                assert snapshot(out) == before
            else:
                assert not out.exists()
            assert not list(tmp_path.rglob(".qgfit-*"))
        assert run(*new, "--out", out) == 0
        assert snapshot(out) == written

    def test_other_files_in_out_are_kept(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        assert run("table1", "--out", out) == 0
        assert run("scaling", "--fits", out / "table1.csv", "--out", out) == 0
        assert (out / "notes.txt").read_text(encoding="utf-8") == "kept"
        assert sorted(p.name for p in out.iterdir()) == [
            "notes.txt", "scaling.json", "scaling_invbeta_vs_dt.csv",
            "scaling_invbeta_vs_q.csv", "scaling_q_vs_dt.csv", "table1.csv",
        ]


class TestProcessEntry:
    """The collector stays off while qgfit imports; only the process entry freezes the heap."""

    @pytest.mark.parametrize(
        "call, frozen", [("cli.main()", True), ("cli.main(sys.argv[1:])", False)]
    )
    def test_only_process_entry_freezes(self, tmp_path, call, frozen):
        code = f"import gc, sys\nfrom qgfit import cli\nprint({call}, gc.get_freeze_count())"
        res = run_python("-c", code, "table1", "--out", tmp_path)
        status, count = res.stdout.splitlines()[-1].split()
        assert (status, int(count) > 0) == ("0", frozen)
        assert (tmp_path / "table1.csv").is_file()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_import_keeps_callers_collector_setting(self, enabled):
        # Collections started once numpy is loading: none, since the pause
        # ends by moving its objects to the oldest generation unscanned.
        code = (
            "import gc, sys\n"
            f"gc.enable() if {enabled} else gc.disable()\n"
            "runs = []\n"
            "def count(phase, info):\n"
            "    runs.append(phase == 'start' and 'numpy' in sys.modules)\n"
            "gc.callbacks.append(count)\n"
            "import qgfit\n"
            "print(gc.isenabled(), sum(runs), hasattr(qgfit, 'gc'))"
        )
        res = run_python("-c", code)
        enabled_after, collections, has_gc = res.stdout.split()
        assert (enabled_after, has_gc) == (str(enabled), "False")
        assert int(collections) == 0

    def test_commands_load_no_high_precision_module(self, tmp_path):
        # README: nothing high-precision runs in the production path, and
        # scipy.stats alone once cost more than a second of import
        unwanted = ["scipy.stats", "scipy.integrate", "scipy.interpolate", "mpmath"]
        code = (
            "import sys\nfrom qgfit import cli\n"
            "out = sys.argv[1]\n"
            "for argv in [\n"
            "    ['synth', '--q', '1.5', '--beta', '1', '--n', '5000', '--out', out],\n"
            "    ['fit', '--input', out + '/synth.csv', '--dt', '1,2,4', '--out', out],\n"
            "    ['scaling', '--fits', out + '/fits.json', '--out', out],\n"
            "    ['pdfplot', '--ccdf', out + '/ccdf_dt1.csv', '--q', '1.5', '--beta', '1',\n"
            "     '--out', out],\n"
            "    ['table1', '--out', out],\n"
            "]:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print(*sorted(set(sys.argv[2:]) & set(sys.modules)))"
        )
        res = run_python("-c", code, tmp_path, *unwanted)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == ""
        assert (tmp_path / "pdfplot.csv").is_file()

    def test_import_leaves_callers_frozen_objects_frozen(self):
        code = (
            "import gc\n"
            "kept = [[] for _ in range(1000)]\n"
            "gc.freeze()\n"
            "before = gc.get_freeze_count()\n"
            "import qgfit\n"
            "print(before, gc.get_freeze_count())"
        )
        before, after = map(int, run_python("-c", code).stdout.split())
        # a few frozen objects may be freed meanwhile; unfreezing leaves none
        assert before > 1000 and after > before // 2
