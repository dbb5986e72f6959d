"""Seeded price CSVs for the benchmark, generated without qgfit.

Each instrument is a geometric random walk whose log increments are scaled
Student-t draws (a q-Gaussian with nu = (3-q)/(q-1) degrees of freedom),
written as `timestamp,price` rows with `%.17g` prices and CRLF line ends,
the layout `qgfit synth` writes.  Only numpy is used, so the bytes a seed
produces do not depend on the code under test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Per-tick scale of the log increments: small enough that a million ticks
# of a q = 1.7 walk stay far inside float64 price range.
INCREMENT_SCALE = 1e-3
START_PRICE = 100.0


@dataclass(frozen=True)
class Instrument:
    name: str
    q: float
    ticks: int


# The default ladder of `qgfit fit`.
DEFAULT_LADDER = (4, 8, 16, 30, 60, 120, 240, 390, 780)
# A 5000-tick series holds only about six independent returns at dt = 780,
# so whether the long-scale pooled fits end at the q = 1.01 floor (and cost
# seconds each in the slow tail series) is a coin flip per seed: over five
# seeds `fit` took 6 to 14 s.  The panel therefore stops at dt = 120, where
# every instrument still has 40 independent returns.
PANEL_LADDER = (4, 8, 16, 30, 60, 120)

# Fit workloads: instruments and dt ladder.  q = 1.6 for the large walk
# rather than 1.5: at q = 1.5 about one seed in six drives the dt = 780 fit
# onto the q floor, which adds 40% to the run.
FIT_WORKLOADS = {
    "fit_large": ([Instrument("large", 1.6, 1_000_000)], DEFAULT_LADDER),
    "fit_panel": (
        [
            Instrument(f"panel{i:02d}", float(q), 5_000)
            for i, q in enumerate(np.linspace(1.3, 1.7, 32))
        ],
        PANEL_LADDER,
    ),
}
# Arguments of the synth workload, besides --seed.
SYNTH_ARGS = {"q": 1.5, "beta": 1.0, "n": 1_000_000}


def walk_prices(rng: np.random.Generator, q: float, ticks: int) -> np.ndarray:
    """Prices of a Student-t log walk starting at START_PRICE."""
    nu = (3.0 - q) / (q - 1.0)
    steps = INCREMENT_SCALE * rng.standard_t(nu, ticks - 1)
    return START_PRICE * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


def csv_bytes(prices: np.ndarray) -> bytes:
    rows = "".join(f"{t},{p:.17g}\r\n" for t, p in enumerate(prices.tolist()))
    return ("timestamp,price\r\n" + rows).encode("ascii")


def write_instruments(
    instruments: list[Instrument], seed: int, directory: Path
) -> tuple[list[dict], list[np.ndarray]]:
    """Write one CSV per instrument; return each file's record and the prices.

    A record holds the file name, q, row count and sha256.  Instrument i
    draws from its own stream spawned from `seed`, so adding an instrument
    never changes the others.
    """
    streams = np.random.SeedSequence(seed).spawn(len(instruments))
    records, prices = [], []
    for inst, stream in zip(instruments, streams):
        walk = walk_prices(np.random.default_rng(stream), inst.q, inst.ticks)
        data = csv_bytes(walk)
        (directory / f"{inst.name}.csv").write_bytes(data)
        records.append(
            {
                "file": f"{inst.name}.csv",
                "q": inst.q,
                "rows": inst.ticks,
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        )
        prices.append(walk)
    return records, prices
