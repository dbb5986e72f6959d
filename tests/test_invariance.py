"""Whole-path invariances of `qgfit fit`, run in-process through `cli.main`.

Each property fits a small generated panel twice, once as generated and
once changed in a way the pipeline must not see, and compares the outputs:
byte for byte, as printed, or in the numbers two formats carry.  A panel
holds 2-4 heavy-tailed walks of at most 3,000 ticks from tick 0, some on
gapped tick grids, fitted over a ladder of 2-4 scales.  The five properties
take about 3 s together.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgfit import cli

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

# Few examples: each one runs `fit` twice on up to 12,000 ticks.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=12)


@st.composite
def panels(draw):
    """Walks as (ticks, prices) pairs, ticks from 0, and a --dt ladder."""
    walks = []
    for _ in range(draw(st.integers(2, 4))):
        n = draw(st.integers(500, 3000))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        prices = 100.0 * np.exp(np.cumsum(1e-2 * rng.standard_t(3, n)))
        if draw(st.booleans()):  # n of n + n // 4 ticks, so dt pairs go missing
            ticks = np.sort(rng.choice(n + n // 4, size=n, replace=False))
            ticks -= ticks[0]
        else:
            ticks = np.arange(n)
        walks.append((ticks, prices))
    ladder = sorted(draw(st.sets(st.integers(1, 40), min_size=2, max_size=4)))
    return walks, ladder


def write_walks(directory, walks):
    """One `timestamp,price` CSV per walk, in order; their paths."""
    paths = []
    for i, (ticks, prices) in enumerate(walks):
        path = directory / f"walk{i}.csv"
        rows = "".join(f"{t},{p!r}\n" for t, p in zip(ticks.tolist(), prices.tolist()))
        path.write_text("timestamp,price\n" + rows, encoding="utf-8")
        paths.append(path)
    return paths


def fit(inputs, ladder, out, flags=()):
    """Exit code, stdout with `out` named OUT, stderr, and the files `fit` wrote, by name."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["fit", "--input", *map(str, inputs), "--dt", ",".join(map(str, ladder)), *flags]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    return code, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(), files


def fit_both(walks, changed_walks, ladder, changed_ladder=None, changed_flags=()):
    """`fit` on `walks`, then on `changed_walks` with `changed_flags`; the first must succeed."""
    with tempfile.TemporaryDirectory() as tmp:
        base_dir, changed_dir = Path(tmp, "base"), Path(tmp, "changed")
        base_dir.mkdir()
        changed_dir.mkdir()
        base = fit(write_walks(base_dir, walks), ladder, base_dir / "out")
        changed_inputs = write_walks(changed_dir, changed_walks)
        changed = fit(changed_inputs, changed_ladder or ladder, changed_dir / "out", changed_flags)
    assert base[0] == 0, base[2]
    return base, changed


@PROPERTY
@given(panels(), st.data())
def test_input_order_does_not_change_outputs(panel, data):
    walks, ladder = panel
    order = data.draw(st.permutations(range(len(walks))))
    base, permuted = fit_both(walks, [walks[i] for i in order], ladder)
    assert permuted == base


@PROPERTY
@given(panels(), st.data())
def test_tick_shift_does_not_change_outputs(panel, data):
    # each walk moves by its own constant, up to either end of int64
    walks, ladder = panel
    shifted = []
    for ticks, prices in walks:
        low, high = INT64_MIN, INT64_MAX - int(ticks[-1])
        shift = data.draw(st.sampled_from([low, high]) | st.integers(low, high))
        shifted.append((ticks + np.int64(shift), prices))
    base, moved = fit_both(walks, shifted, ladder)
    assert moved == base


@PROPERTY
@given(panels(), st.data())
def test_one_scale_alone_matches_its_ladder_row(panel, data):
    walks, ladder = panel
    i = data.draw(st.integers(0, len(ladder) - 1))
    dt = ladder[i]
    (_, _, _, files), (code, _, _, alone) = fit_both(walks, walks, ladder, changed_ladder=[dt])
    assert code == 0
    assert alone[f"ccdf_dt{dt}.csv"] == files[f"ccdf_dt{dt}.csv"]
    assert json.loads(alone["fits.json"]) == [json.loads(files["fits.json"])[i]]
    header, row = alone["table.csv"].splitlines()
    assert files["table.csv"].splitlines()[i + 1] == row


def scale_prices(walks, k):
    """The walks with every price times 2**k, which is exact, though its log rounds differently."""
    return [(ticks, prices * 2.0**k) for ticks, prices in walks]


def curve_columns(text):
    """The columns of a curve CSV's text, by name, as printed."""
    header, *rows = text.decode().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


@PROPERTY
@given(panels(), st.integers(-64, 64))
def test_price_power_of_two_leaves_curves_as_printed(panel, k):
    # The grid top follows the largest |return|, so x may move by rounding.
    walks, ladder = panel
    base, scaled = fit_both(walks, scale_prices(walks, k), ladder)
    assert scaled[0] == 0, scaled[2]
    for dt in ladder:
        name = f"ccdf_dt{dt}.csv"
        curve, scaled_curve = curve_columns(base[3][name]), curve_columns(scaled[3][name])
        assert scaled_curve["ccdf_empirical"] == curve["ccdf_empirical"]
        xs, scaled_xs = np.array(curve["x"], float), np.array(scaled_curve["x"], float)
        assert np.all(np.abs(scaled_xs - xs) <= 1e-11 * xs)


# A defect, kept as a failing case: doubling every price of this panel moves
# the fitted beta at dt=16 by 2.9e-8 relative, though no curve moves as
# printed.  L-BFGS-B with finite-difference gradients ends that far apart on
# objectives that differ by rounding; a gtol of 1e-10 in place of 1e-5 does
# not bring such panels under 1e-8.  Once this passes, make it a property.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="fit endpoints move by rounding")
def test_price_doubling_moves_fits_by_1e8_at_most():
    walks = []
    for seed, n in ((0, 3000), (100, 2000)):
        rng = np.random.default_rng(seed)
        walks.append((np.arange(n), 100.0 * np.exp(np.cumsum(1e-2 * rng.standard_t(3, n)))))
    base, doubled = fit_both(walks, scale_prices(walks, 1), [4, 16, 32])
    assert doubled[0] == 0, doubled[2]
    fits, doubled_fits = json.loads(base[3]["fits.json"]), json.loads(doubled[3]["fits.json"])
    assert [f["dt"] for f in doubled_fits] == [4, 16, 32]
    for fit_, doubled_fit in zip(fits, doubled_fits):
        for name in ("q", "beta"):
            assert abs(doubled_fit[name] - fit_[name]) <= 1e-8 * fit_[name]


@PROPERTY
@given(panels())
def test_json_curves_carry_the_csv_numbers(panel):
    walks, ladder = panel
    (_, out, err, files), (code, json_out, json_err, json_files) = fit_both(
        walks, walks, ladder, changed_flags=["--format", "json"]
    )
    assert (code, json_out, json_err) == (0, out, err)
    for name in ("fits.json", "table.csv"):
        assert json_files[name] == files[name]
    for dt in ladder:
        curve = json.loads(json_files[f"ccdf_dt{dt}.json"])
        assert (curve["id"], curve["dt"]) == ("pooled", dt)
        printed = curve_columns(files[f"ccdf_dt{dt}.csv"])
        assert list(printed) == ["x", "ccdf_empirical", "ccdf_fitted"]
        for name, column in printed.items():
            assert column == tuple(format(v, ".12g") for v in curve[name])
