"""Command-line surface: fit, scaling, table1, synth, pdfplot.

Batch-oriented and deterministic: every command writes plot-ready CSV/JSON
files under --out and never opens a display.  Exit codes: 0 success,
1 usage error, 2 data/parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datasets import DEFAULT_DT_LADDER, TABLE1_ROWS
from .estimation import (
    BETA_BOUNDS,
    Q_BOUNDS,
    ScaleFitResult,
    fit_qgaussian_ccdf,
    load_scale_fits,
    scale_fits_to_csv,
    scale_fits_to_json,
    scaling_report,
)
from .qgaussian import QGaussianParams, ccdf_abs, pdf, sample
from .returns import (
    DegenerateSeriesError,
    GridSpec,
    PriceDataError,
    empirical_ccdf,
    log_returns,
    normalize,
    numerical_pdf,
    pool,
    read_ccdf_csv,
    read_price_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

# Largest half-range of log prices the synthetic walk may span before the
# increments are rescaled to keep exp() inside float64.
_MAX_LOG_PRICE_HALF_RANGE = 600.0
# Relative distance from a search-box edge at which a fit counts as pinned.
_BOX_EDGE_RTOL = 1e-6
# Rows formatted into one string per write of synth.csv: the whole file is
# never held as row strings.
_SYNTH_BLOCK_ROWS = 4096


class UsageError(Exception):
    """Invalid flag combination or value."""


class NumericalError(Exception):
    """A computation produced non-finite values."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this tool reserves 2 for
    # data errors, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one invocation: flags over config file over defaults."""

    inputs: tuple[str, ...]
    dt_ladder: tuple[int, ...]
    grid: GridSpec
    out: Path
    seed: int
    format: str

    def __post_init__(self):
        if not self.dt_ladder:
            raise UsageError("--dt needs at least one time scale")
        if not all(a < b for a, b in zip(self.dt_ladder, self.dt_ladder[1:])):
            raise UsageError("--dt values must be strictly increasing")
        if self.dt_ladder[0] < 1:
            raise UsageError("--dt values must be positive")
        if self.grid.count < 8:
            raise UsageError("--grid-count must be at least 8")
        if self.format not in ("csv", "json"):
            raise UsageError(f"--format must be csv or json, got {self.format}")


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = _parse_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(flag, key, default, cast):
        if flag is not None:
            return flag
        if key in cfg:
            try:
                return cast(cfg[key])
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from exc
        return default

    inputs = getattr(args, "input", None)
    if inputs is None and "input" in cfg:
        inputs = [p for p in cfg["input"].replace(",", " ").split() if p]
    dt = pick(getattr(args, "dt", None), "dt", ",".join(map(str, DEFAULT_DT_LADDER)), str)
    try:
        ladder = tuple(int(part) for part in str(dt).split(",") if part != "")
    except ValueError as exc:
        raise UsageError(f"--dt expects a comma-separated integer list: {exc}") from exc
    grid_min = pick(getattr(args, "grid_min", None), "grid-min", 1e-2, float)
    grid_max = pick(getattr(args, "grid_max", None), "grid-max", None, float)
    grid_count = pick(getattr(args, "grid_count", None), "grid-count", 60, int)
    try:
        grid = GridSpec(min=grid_min, max=grid_max, count=grid_count)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return RunConfig(
        inputs=tuple(inputs or ()),
        dt_ladder=ladder,
        grid=grid,
        out=Path(pick(getattr(args, "out", None), "out", "out", str)),
        seed=pick(getattr(args, "seed", None), "seed", 0, int),
        format=pick(getattr(args, "format", None), "format", "csv", str),
    )


def _add_shared_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", nargs="+", metavar="PATH", help="input CSV file(s)")
    sub.add_argument("--dt", help="comma-separated ladder of time scales in ticks")
    sub.add_argument("--grid-min", type=float, dest="grid_min", help="lowest threshold")
    sub.add_argument("--grid-max", type=float, dest="grid_max", help="highest threshold")
    sub.add_argument("--grid-count", type=int, dest="grid_count", help="grid points")
    sub.add_argument("--out", help="output directory (default: out)")
    sub.add_argument("--seed", type=int, help="random seed (default: 0)")
    sub.add_argument("--format", choices=["csv", "json"], help="plot-file format")
    sub.add_argument("--config", help="key=value config file; flags take precedence")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qgfit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="fit (q, beta) per time scale from price CSVs")
    _add_shared_flags(p_fit)

    p_scaling = subs.add_parser("scaling", help="power-law scaling report from a fits table")
    p_scaling.add_argument("--fits", required=True, help="fits file (.csv dt,q,beta or .json)")
    _add_shared_flags(p_scaling)

    p_table = subs.add_parser("table1", help="emit the bundled reference dt,q,beta table")
    _add_shared_flags(p_table)

    p_synth = subs.add_parser("synth", help="generate a synthetic price series")
    p_synth.add_argument("--q", type=float, required=True)
    p_synth.add_argument("--beta", type=float, required=True)
    p_synth.add_argument("--n", type=int, required=True, help="number of price samples")
    _add_shared_flags(p_synth)

    p_pdf = subs.add_parser("pdfplot", help="numerical density of a CCDF file vs the model")
    p_pdf.add_argument("--ccdf", required=True, help="CCDF CSV with columns x,ccdf")
    p_pdf.add_argument("--q", type=float, required=True)
    p_pdf.add_argument("--beta", type=float, required=True)
    _add_shared_flags(p_pdf)

    parser.set_defaults(runner=None)
    p_fit.set_defaults(runner=cmd_fit)
    p_scaling.set_defaults(runner=cmd_scaling)
    p_table.set_defaults(runner=cmd_table1)
    p_synth.set_defaults(runner=cmd_synth)
    p_pdf.set_defaults(runner=cmd_pdfplot)
    return parser


def _check_out_dir(out: Path) -> None:
    """Raise UsageError now if `out` could not be created later; create nothing.

    The nearest existing ancestor of `out` (or `out` itself) must be a
    directory this process can write into.
    """
    existing = out
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise UsageError(
            f"cannot create output directory {out}: {existing} is not a writable directory"
        )


def _make_out_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc}") from exc


def _write_rows(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_fit_curve(config: RunConfig, dt: int, ccdf, fitted: ScaleFitResult) -> None:
    model = ccdf_abs(QGaussianParams(fitted.q, fitted.beta), ccdf.thresholds).tolist()
    if config.format == "json":
        payload = {
            "id": "pooled",
            "dt": dt,
            "n_samples": ccdf.n_samples,
            "x": [float(v) for v in ccdf.thresholds],
            "ccdf_empirical": [float(v) for v in ccdf.probabilities],
            "ccdf_fitted": model,
        }
        (config.out / f"ccdf_dt{dt}.json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    else:
        _write_rows(
            config.out / f"ccdf_dt{dt}.csv",
            ["x", "ccdf_empirical", "ccdf_fitted"],
            (
                (f"{x:.12g}", f"{p:.12g}", f"{m:.12g}")
                for x, p, m in zip(ccdf.thresholds, ccdf.probabilities, model)
            ),
        )


def _on_box_edge(fit: ScaleFitResult) -> bool:
    """True when q or beta lies within _BOX_EDGE_RTOL of a search-box edge."""
    return any(
        abs(value - edge) <= _BOX_EDGE_RTOL * edge
        for value, bounds in ((fit.q, Q_BOUNDS), (fit.beta, BETA_BOUNDS))
        for edge in bounds
    )


def cmd_fit(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if not config.inputs:
        raise UsageError("fit requires at least one --input file")
    _check_out_dir(config.out)
    missing = [p for p in config.inputs if not Path(p).is_file()]
    if missing:
        raise PriceDataError(f"input file(s) not found: {', '.join(missing)}")
    series = [read_price_csv(p) for p in config.inputs]

    fits: list[ScaleFitResult] = []
    curves = []
    for dt in config.dt_ladder:
        pooled = pool([normalize(log_returns(s, dt)) for s in series])
        ccdf = empirical_ccdf(pooled, dt, config.grid)
        del pooled  # not held while this scale is fitted and the next one built
        fit = fit_qgaussian_ccdf(ccdf)
        if not fit.converged:
            print(f"warning: fit at dt={dt} did not converge", file=sys.stderr)
        if _on_box_edge(fit):
            print(
                f"warning: fit at dt={dt} ended on the search-box edge "
                f"(q={fit.q:.6g}, beta={fit.beta:.6g})",
                file=sys.stderr,
            )
        fits.append(fit)
        curves.append((dt, ccdf, fit))

    _make_out_dir(config.out)
    scale_fits_to_csv(fits, config.out / "table.csv")
    scale_fits_to_json(fits, config.out / "fits.json")
    for dt, ccdf, fit in curves:
        _write_fit_curve(config, dt, ccdf, fit)
    print(f"wrote {len(fits)} fits to {config.out}")
    return EXIT_OK


def _fitted_column(fit, xs) -> list[float]:
    return [fit.amplitude * float(x) ** fit.exponent for x in xs]


def cmd_scaling(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    fits_path = Path(args.fits)
    if not fits_path.is_file():
        raise PriceDataError(f"fits file not found: {fits_path}")
    try:
        fits = load_scale_fits(fits_path)
    except (ValueError, KeyError, TypeError) as exc:
        raise PriceDataError(f"cannot parse fits file {fits_path}: {exc}") from exc
    if len(fits) < 3:
        raise PriceDataError(f"scaling needs at least 3 fits, got {len(fits)}")

    report = scaling_report(fits)
    _make_out_dir(config.out)

    def fit_dict(p):
        return {
            "exponent": p.exponent,
            "amplitude": p.amplitude,
            "stderr": p.exponent_stderr,
            "r_squared": p.r_squared,
        }

    (config.out / "scaling.json").write_text(
        json.dumps(
            {
                "tau_fit": fit_dict(report.tau_fit),
                "gamma_fit": fit_dict(report.gamma_fit),
                "delta_fit": fit_dict(report.delta_fit),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    dts = [float(f.dt) for f in fits]
    q_excess = [f.q - 1.0 for f in fits]
    inv_beta = [1.0 / f.beta for f in fits]
    _write_rows(
        config.out / "scaling_q_vs_dt.csv",
        ["dt", "q_minus_1", "fitted"],
        zip(dts, q_excess, _fitted_column(report.tau_fit, dts)),
    )
    _write_rows(
        config.out / "scaling_invbeta_vs_dt.csv",
        ["dt", "inv_beta", "fitted"],
        zip(dts, inv_beta, _fitted_column(report.gamma_fit, dts)),
    )
    _write_rows(
        config.out / "scaling_invbeta_vs_q.csv",
        ["q_minus_1", "inv_beta", "fitted"],
        zip(q_excess, inv_beta, _fitted_column(report.delta_fit, q_excess)),
    )
    print(f"wrote scaling report to {config.out}")
    return EXIT_OK


def cmd_table1(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    _make_out_dir(config.out)
    _write_rows(
        config.out / "table1.csv",
        ["dt", "q", "beta"],
        ((dt, f"{q:.2f}", f"{beta:.2f}") for dt, q, beta in TABLE1_ROWS),
    )
    print(f"wrote {config.out / 'table1.csv'}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if args.n < 2:
        raise UsageError(f"synth needs n >= 2 price samples, got {args.n}")
    try:
        params = QGaussianParams(args.q, args.beta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    _check_out_dir(config.out)
    increments = sample(params, args.n - 1, seed=config.seed)
    log_price = np.zeros(args.n)
    np.cumsum(increments, out=log_price[1:])
    half_range = 0.5 * (log_price.max() - log_price.min())
    if half_range > _MAX_LOG_PRICE_HALF_RANGE:
        # A heavy-tailed walk this long leaves float64 price range; shrink the
        # increments.  The repeated-price check below catches a shrink that
        # drops most increments below the resolution of the price.
        scale = _MAX_LOG_PRICE_HALF_RANGE / half_range
        print(
            f"warning: log-price range too wide for float64; increments scaled by {scale:.3g}",
            file=sys.stderr,
        )
        increments *= scale
        np.cumsum(increments, out=log_price[1:])
    if log_price.max() > _MAX_LOG_PRICE_HALF_RANGE or log_price.min() < -_MAX_LOG_PRICE_HALF_RANGE:
        # start price stays at 100 unless the walk wanders too far from it
        log_price -= 0.5 * (log_price.max() + log_price.min())
    prices = np.exp(log_price, out=log_price)
    prices *= 100.0
    if not np.isfinite(prices).all():
        raise NumericalError(
            f"synth at q={args.q} gives non-finite prices: near q = 3 the "
            f"chi-square draws underflow to 0, which makes increments infinite"
        )
    repeats = np.count_nonzero(prices[1:] == prices[:-1])
    if repeats:
        raise NumericalError(
            f"synth at q={args.q} writes {repeats} of {args.n - 1} prices equal to "
            f"the one before: the increments fall below float64's price resolution"
        )

    _make_out_dir(config.out)
    with open(config.out / "synth.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("timestamp,price\r\n")
        for start in range(0, args.n, _SYNTH_BLOCK_ROWS):
            block = prices[start : start + _SYNTH_BLOCK_ROWS].tolist()
            fh.write("".join(f"{t},{p:.17g}\r\n" for t, p in enumerate(block, start)))
    print(f"wrote {config.out / 'synth.csv'}")
    return EXIT_OK


def cmd_pdfplot(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    ccdf_path = Path(args.ccdf)
    if not ccdf_path.is_file():
        raise PriceDataError(f"CCDF file not found: {ccdf_path}")
    try:
        params = QGaussianParams(args.q, args.beta)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    ccdf = read_ccdf_csv(ccdf_path)
    xs, numeric = numerical_pdf(ccdf)
    model = 2.0 * pdf(params, xs)  # folded density of |r|
    _make_out_dir(config.out)
    _write_rows(
        config.out / "pdfplot.csv",
        ["x", "pdf_numeric", "pdf_model"],
        (
            (f"{x:.12g}", f"{n:.12g}", f"{m:.12g}")
            for x, n, m in zip(xs, numeric, model)
        ),
    )
    print(f"wrote {config.out / 'pdfplot.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.runner(args)
    except UsageError as exc:
        print(f"qgfit: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PriceDataError, DegenerateSeriesError, FileNotFoundError) as exc:
        print(f"qgfit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"qgfit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"qgfit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
