"""End-to-end tests of the command-line interface.

Commands run in this process through `cli.main`; a few cases run
`python -m qgfit.cli` as a subprocess to cover the real entry point.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgfit
from qgfit import cli
from qgfit.qgaussian import QGaussianParams, ccdf_abs
from qgfit.returns import EmpiricalCCDF, write_ccdf_csv

TABLE1_FIRST = "4,1.53,1.78"
TABLE1_LAST = "780,1.35,1.03"


def run_cli(*argv):
    # The child imports the same qgfit as this process, installed or not.
    package_root = str(Path(qgfit.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qgfit.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def run(*argv):
    """Run one CLI command in this process and return its exit code."""
    return cli.main([str(a) for a in argv])


SYNTH_BLOCK_ROWS = cli._SYNTH_BLOCK_ROWS


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
            (1.3, 0.01, SYNTH_BLOCK_ROWS, 3, "recentre"),
            (1.5, 1.0, 2, 9, "plain"),
            (1.2, 3.0, SYNTH_BLOCK_ROWS + 1, 5, "plain"),
            (2.5, 10.0, 2 * SYNTH_BLOCK_ROWS + 3, 6, "rescale"),
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

    @pytest.mark.filterwarnings(
        "ignore:divide by zero encountered:RuntimeWarning",
        "ignore:invalid value encountered:RuntimeWarning",
        "ignore:overflow encountered:RuntimeWarning",
    )
    @pytest.mark.parametrize("q", [2.95, 2.99])
    def test_non_finite_prices_are_numerical_error(self, tmp_path, capsys, q):
        # chi-square draws underflow to 0 near q = 3, so some increments are infinite
        out = tmp_path / "o"
        assert run("synth", "--q", q, "--beta", 1, "--n", 100_000, "--seed", 1, "--out", out) == 3
        assert f"q={q}" in capsys.readouterr().err
        assert not out.exists()

    def test_out_under_regular_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / "o"

        def unexpected(*args, **kwargs):
            raise AssertionError("sampled before --out was checked")

        monkeypatch.setattr(cli, "sample", unexpected)
        assert run("synth", "--q", 1.5, "--beta", 1, "--n", 100, "--out", out) == 1
        assert str(out) in capsys.readouterr().err

    def test_n_too_small(self, tmp_path):
        assert run("synth", "--q", 1.5, "--beta", 1, "--n", 1, "--out", tmp_path / "o") == 1

    def test_invalid_params(self, tmp_path):
        assert run("synth", "--q", 3.5, "--beta", 1, "--n", 100, "--out", tmp_path / "o") == 1


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

    def test_malformed_input(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n7,8,9\n", encoding="utf-8")
        assert run("scaling", "--fits", path, "--out", tmp_path / "o") == 2


class TestPdfPlot:
    @pytest.fixture
    def model_ccdf_file(self, tmp_path):
        x = np.geomspace(0.05, 20.0, 300)
        params = QGaussianParams(1.53, 1.78)
        ccdf = EmpiricalCCDF(
            dt=4, thresholds=x, probabilities=ccdf_abs(params, x), n_samples=0
        )
        path = tmp_path / "model_ccdf.csv"
        write_ccdf_csv(ccdf, path)
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

    def test_nonnegative_densities(self, tmp_path, model_ccdf_file):
        out = tmp_path / "o"
        run("pdfplot", "--ccdf", model_ccdf_file, "--q", 1.4, "--beta", 0.7, "--out", out)
        assert all(float(r["pdf_numeric"]) >= 0.0 for r in read_csv_rows(out / "pdfplot.csv"))

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


class TestUsage:
    def test_unknown_command(self):
        assert run_cli("bogus").returncode == 1

    def test_no_command(self):
        assert run_cli().returncode == 1

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

    def test_nonfinite_fit_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "fits.csv"
        path.write_text("dt,q,beta\n4,nan,1.7\n8,1.49,1.6\n16,1.45,1.5\n", encoding="utf-8")
        assert cli.main(["scaling", "--fits", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert str(path) in err

    def test_negative_grid_min_is_usage_error(self, tmp_path, capsys):
        path = write_walk(tmp_path / "walk.csv")
        argv = ["fit", "--input", str(path), "--grid-min", "-1", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 1
        assert "grid minimum must be positive" in capsys.readouterr().err

    def test_out_under_regular_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        path = write_walk(tmp_path / "walk.csv")
        out = tmp_path / "walk.csv" / "o"

        def unexpected(p):
            raise AssertionError(f"{p} was parsed before --out was checked")

        # the bad --out is reported before any input is parsed
        monkeypatch.setattr(cli, "read_price_csv", unexpected)
        assert cli.main(["fit", "--input", str(path), "--dt", "1", "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err
