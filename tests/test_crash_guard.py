"""Generated inputs sent through `cli.main`: each run ends in an exit code.

Every command must turn whatever it is given into an exit code of 0 to 3,
raise nothing out of `main`, and leave no `.qgfit-*` stage directory behind.
The inputs are fits JSON, CSV tables, --config files and synth flags, the
kinds of input behind the tracebacks mended by hand in the past.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qgfit import cli

GUARD = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# Integers at the edges of int64 and of float range.
BIG_INT = st.sampled_from([10**400, -(10**400), 2**63 - 1, 2**63])
JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(), BIG_INT, st.floats(), st.text(max_size=4)
)
FIT_FIELDS = ("dt", "q", "beta", "residual", "n_points", "converged")
# Fits inside the search box at three or more scales, with sound diagnostics
# or none.
FITS = st.lists(
    st.fixed_dictionaries(
        {"dt": st.integers(1, 1000), "q": st.floats(1.01, 2.99), "beta": st.floats(1e-4, 1e4)},
        optional={
            "residual": st.floats(0.0, 10.0),
            "n_points": st.integers(0, 100),
            "converged": st.booleans(),
        },
    ),
    min_size=3,
    max_size=8,
)


def damaged_fits(fits, i, name, value):
    """Sound fits JSON but for one field of one fit."""
    fits[i % len(fits)][name] = value
    return json.dumps(fits)


FITS_JSON = st.one_of(
    FITS.map(json.dumps),
    st.builds(
        damaged_fits,
        FITS,
        st.integers(0, 10),
        st.sampled_from(FIT_FIELDS[:4]),
        st.one_of(BIG_INT, JSON_VALUE),
    ),
    st.lists(st.dictionaries(st.sampled_from(FIT_FIELDS), JSON_VALUE), max_size=8).map(json.dumps),
    JSON_VALUE.map(json.dumps),
    st.text(max_size=30),
)

COLUMNS = ("timestamp", "price", "x", "ccdf", "ccdf_empirical", "dt", "q", "beta", "other")
CELL = st.one_of(
    st.integers(-3, 10**4).map(str),
    st.floats().map(repr),
    st.floats(1e-3, 1e3).map(repr),
    st.sampled_from(["", " ", "x", "inf", "-nan", '"1"', "1e400", "4.5", "4.0", "9" * 20]),
    st.text(alphabet=',"\r\n 0123456789.-e', max_size=6),
)


def csv_text(header, rows, newline="\n"):
    """CSV lines of `header` and `rows`; a row of no cells is a blank line."""
    return newline.join([",".join(header), *(",".join(map(str, row)) for row in rows), ""])


def table(columns, plausible_rows):
    """A CSV table for a reader of `columns`: plausible, damaged or arbitrary."""
    header = st.one_of(
        st.permutations(columns), st.lists(st.sampled_from(COLUMNS), max_size=4)
    )
    rows = st.lists(st.lists(CELL, max_size=4), max_size=40)
    newline = st.sampled_from(["\n", "\r\n"])

    def damaged(rows, i, cell, newline):
        rows[i % len(rows)][i % len(columns)] = cell
        rows.insert(i % len(rows), [])
        return csv_text(columns, rows, newline)

    return st.one_of(
        plausible_rows.map(lambda rows: csv_text(columns, rows)),
        st.builds(damaged, plausible_rows, st.integers(0, 100), CELL, newline),
        st.builds(csv_text, header, rows, newline),
    )


PRICE_ROWS = st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=60).map(
    lambda prices: [[t, repr(p)] for t, p in enumerate(prices)]
)
FITS_ROWS = st.lists(
    st.tuples(st.integers(1, 1000), st.floats(1.01, 2.99), st.floats(1e-4, 1e4)).map(list),
    min_size=3,
    max_size=9,
)
# Increasing thresholds with non-increasing exceedance probabilities in (0, 1].
CURVE_ROWS = st.integers(3, 30).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n, unique=True),
        st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n),
    )
).map(lambda xp: [[x, p] for x, p in zip(sorted(xp[0]), sorted(xp[1], reverse=True))])

FLAG_VALUE = st.one_of(
    st.integers(-5, 5000).map(str),
    st.floats().map(repr),
    st.sampled_from(["1,2", "4,1", ",", "csv", "json", "1e-3", "nan"]),
    st.text(max_size=6),
)
# --out is left out: the argv's --out must be the only place the guard writes.
CONFIG_KEYS = [
    flag[2:] for flag, _, _ in cli._FLAGS if flag != "--out"
] + ["other", "# comment"]
CONFIG = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(CONFIG_KEYS), FLAG_VALUE).map(lambda kv: "=".join(kv)),
        st.text(max_size=10),
    ),
    max_size=6,
).map("\n".join)

WALK = "timestamp,price\n" + "".join(f"{t},{100 + (t * 37 % 11) - 5}\n" for t in range(200))
REQUIRED = {
    "fit": ["--input", "walk.csv", "--dt", "1"],
    "scaling": ["--fits", "fits.csv"],
    "table1": [],
    "synth": ["--q", "1.5", "--beta", "1", "--n", "50"],
    "pdfplot": ["--ccdf", "curve.csv", "--q", "1.5", "--beta", "1"],
}


def run_guarded(files: dict[str, str], argv: list[str]) -> None:
    """Write `files` to a fresh directory, run `argv` there with --out in it, check the end."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8", newline="")
        named = [str(root / a) if a in files else a for a in argv]
        assert cli.main([*named, "--out", str(root / "out")]) in (0, 1, 2, 3)
        assert not list(root.rglob(".qgfit-*"))


@GUARD
@given(FITS_JSON)
def test_scaling_on_generated_fits_json(text):
    run_guarded({"fits.json": text}, ["scaling", "--fits", "fits.json"])


@GUARD
@given(table(["timestamp", "price"], PRICE_ROWS))
def test_fit_on_generated_table(text):
    run_guarded({"walk.csv": text}, ["fit", *REQUIRED["fit"]])


@GUARD
@given(table(["dt", "q", "beta"], FITS_ROWS))
def test_scaling_on_generated_table(text):
    run_guarded({"fits.csv": text}, ["scaling", *REQUIRED["scaling"]])


@GUARD
@given(table(["x", "ccdf"], CURVE_ROWS))
def test_pdfplot_on_generated_table(text):
    run_guarded({"curve.csv": text}, ["pdfplot", *REQUIRED["pdfplot"]])


@GUARD
@given(st.sampled_from(sorted(REQUIRED)), CONFIG)
def test_generated_config_file(command, config):
    files = {
        "walk.csv": WALK,
        "fits.csv": "dt,q,beta\n4,1.5,1.7\n8,1.49,1.6\n16,1.45,1.5\n",
        "curve.csv": "x,ccdf\n0.5,0.8\n1.0,0.5\n2.0,0.2\n",
        "run.cfg": config,
    }
    run_guarded(files, [command, *REQUIRED[command], "--config", "run.cfg"])


# In-range values, or any float, with the edges that st.floats() seldom
# draws in 200 examples sampled outright.
EDGE_FLOAT = st.floats() | st.sampled_from(
    [math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 2.2e-308]
)
Q = st.floats(1.01, 2.99) | EDGE_FLOAT
BETA = st.floats(1e-3, 1e3) | EDGE_FLOAT
SYNTH_FLAGS = st.one_of(
    st.tuples(Q, BETA, st.integers(2, 3000), st.integers(0, 2**70)).map(
        lambda flags: list(map(repr, flags))
    ),
    st.tuples(FLAG_VALUE, FLAG_VALUE, st.integers(-2, 3000).map(str), FLAG_VALUE).map(list),
)


@GUARD
@given(SYNTH_FLAGS)
def test_synth_on_generated_flags(flags):
    q, beta, n, seed = flags
    run_guarded({}, ["synth", "--q", q, "--beta", beta, "--n", n, "--seed", seed])


PDFPLOT_FLAGS = st.one_of(
    st.tuples(Q, BETA).map(lambda flags: list(map(repr, flags))),
    st.tuples(FLAG_VALUE, FLAG_VALUE).map(list),
)


@GUARD
@given(PDFPLOT_FLAGS)
def test_pdfplot_on_generated_flags(flags):
    q, beta = flags
    curve = "x,ccdf\n0.5,0.8\n1.0,0.5\n2.0,0.2\n1e3,1e-6\n"
    run_guarded({"curve.csv": curve}, ["pdfplot", "--ccdf", "curve.csv", "--q", q, "--beta", beta])
