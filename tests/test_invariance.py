"""Whole-path invariances of `qgfit fit`, run in-process through `cli.main`.

Each property fits a small generated panel twice, once as generated and
once changed in a way the pipeline must not see, and compares the outputs
byte for byte.  A panel holds 2-4 heavy-tailed walks of at most 3,000
ticks from tick 0, some on gapped tick grids, fitted over a ladder of 2-4
scales.  The three properties take about 2 s together.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
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


def fit(inputs, ladder, out):
    """Exit code, stdout with `out` named OUT, stderr, and the files `fit` wrote, by name."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["fit", "--input", *map(str, inputs), "--dt", ",".join(map(str, ladder))]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    return code, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue(), files


def fit_both(walks, changed_walks, ladder, changed_ladder=None):
    """`fit` on `walks`, then on `changed_walks`; the first run must succeed."""
    with tempfile.TemporaryDirectory() as tmp:
        base_dir, changed_dir = Path(tmp, "base"), Path(tmp, "changed")
        base_dir.mkdir()
        changed_dir.mkdir()
        base = fit(write_walks(base_dir, walks), ladder, base_dir / "out")
        changed_inputs = write_walks(changed_dir, changed_walks)
        changed = fit(changed_inputs, changed_ladder or ladder, changed_dir / "out")
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
