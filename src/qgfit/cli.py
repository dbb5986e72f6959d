"""Command-line surface: fit, scaling, table1, synth, pdfplot.

Batch-oriented and deterministic: every command writes plot-ready CSV/JSON
files under --out and never opens a display.  Exit codes: 0 success,
1 usage error or out of memory, 2 data/parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .datasets import DEFAULT_DT_LADDER, TABLE1_ROWS
from .estimation import (
    _MIN_FIT_POINTS,
    _SCALING_LAWS,
    ScaleFitResult,
    fit_ladder,
    load_scale_fits,
    scaling_report,
)
from .qgaussian import QGaussianParams, ccdf_abs, pdf, sample
from .returns import (
    GridSpec,
    _naming,
    _reading,
    numerical_pdf,
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
# Rows formatted by one `%` per write of a CSV file: the whole file is never
# held as row strings.
_CSV_BLOCK_ROWS = 4096
# Increments summed at once while `synth` finds its walk's range.
_WALK_BLOCK = 65536
# What numpy raises for an array past memory, or past the address space.
_NO_ROOM = (MemoryError, ValueError)


class UsageError(Exception):
    """Invalid flag combination or value."""


class NumericalError(Exception):
    """A computation produced non-finite values."""


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each flag's default to its help, unless the default is None."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


class _NegativeNumber:
    """argparse's test of whether an argument that starts with '-' is a value, not a flag.

    Any form float() reads is one (-1e+308, -inf), where argparse's own
    pattern takes only digits and a point.
    """

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return text.startswith("-")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_HelpFormatter, **kwargs)
        self._negative_number_matcher = _NegativeNumber

    # argparse exits with status 2 on bad flags; this tool reserves 2 for
    # data errors, so usage problems are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _Once(argparse.Action):
    """Action of a list flag that may be given once: argparse would keep only its last list.

    Until the flag is parsed its dest holds the default itself, a --config
    file's list included, so that list is replaced as any default is.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not self.default:
            raise argparse.ArgumentError(
                self, f"given more than once; list every file after one {self.option_strings[0]}"
            )
        setattr(namespace, self.dest, values)


def _dt_ladder(text: str) -> tuple[int, ...]:
    """Type of --dt: comma-separated ticks, at least 1 and strictly increasing; none is empty."""
    # an empty item too: int("") fails
    with _naming("expects a comma-separated integer list", argparse.ArgumentTypeError):
        ladder = tuple(map(int, text.split(",")))
    if not all(a < b for a, b in zip(ladder, ladder[1:])):
        raise argparse.ArgumentTypeError("values must be strictly increasing")
    if ladder[0] < 1:
        raise argparse.ArgumentTypeError("values must be positive")
    return ladder


def _at_least(low: int):
    """Type of an integer flag whose values start at `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _plot_format(text: str) -> str:
    """Type of --format.  argparse checks `choices` only on typed flags, not on defaults."""
    if text not in ("csv", "json"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 'csv', 'json')")
    return text


# Each flag once: its name, the commands that read it, and its argparse
# settings.  A command's --help lists its flags in this order, then --config,
# whose keys are the command's flags that are not required.  String defaults
# pass through `type` like typed values, so a default read from --config is
# checked by the same function as a flag.
_FLAGS = (
    (
        "--input",
        "fit",
        dict(
            action=_Once, nargs="+", metavar="PATH", help="input CSV file(s), all after one --input"
        ),
    ),
    (
        "--dt",
        "fit",
        dict(
            type=_dt_ladder,
            default=",".join(map(str, DEFAULT_DT_LADDER)),
            help="comma-separated ladder of time scales in ticks",
        ),
    ),
    ("--grid-min", "fit", dict(type=float, default=GridSpec.min, help="lowest threshold")),
    ("--grid-max", "fit", dict(type=float, help="highest threshold; none caps it by the sample")),
    (
        "--grid-count",
        "fit",
        dict(type=_at_least(_MIN_FIT_POINTS), default=GridSpec.count, help="grid points"),
    ),
    ("--format", "fit", dict(type=_plot_format, default="csv", help="plot files: csv or json")),
    ("--fits", "scaling", dict(type=Path, required=True, help="dt,q,beta CSV table or fits.json")),
    (
        "--ccdf",
        "pdfplot",
        dict(
            type=Path,
            required=True,
            help="CSV with columns x and ccdf (or ccdf_empirical), or a JSON curve of fit",
        ),
    ),
    ("--q", "synth pdfplot", dict(type=float, required=True, help="entropic index, 1 < q < 3")),
    ("--beta", "synth pdfplot", dict(type=float, required=True, help="width, 0 < beta < inf")),
    ("--n", "synth", dict(type=_at_least(2), required=True, help="number of prices")),
    ("--seed", "synth", dict(type=_at_least(0), default=0, help="random seed")),
    (
        "--out",
        "fit scaling table1 synth pdfplot",
        dict(type=Path, default="out", help="output directory"),
    ),
)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The qgfit parser and its subcommand parsers by name."""
    parser = _Parser(prog="qgfit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, runner, summary in (
        ("fit", cmd_fit, "fit (q, beta) per time scale from price CSVs"),
        ("scaling", cmd_scaling, "power-law scaling report from a fits table"),
        ("table1", cmd_table1, "emit the bundled reference dt,q,beta table"),
        ("synth", cmd_synth, "generate a synthetic price series"),
        ("pdfplot", cmd_pdfplot, "numerical density of a CCDF file vs the model"),
    ):
        sub = subs.add_parser(name, help=summary)
        for flag, readers, settings in _FLAGS:
            if name in readers.split():
                sub.add_argument(flag, **settings)
        sub.add_argument("--config", help="key=value file of this command's optional flags")
        sub.set_defaults(runner=runner)
    return parser, subs.choices


def _parse_config_file(path: str, command: str) -> dict[str, object]:
    """Parser defaults, by flag dest, from the key=value lines of `command`'s optional flags.

    `input` lists paths separated by commas or spaces; other values stay
    strings for the flags' types to convert.  Other keys are ignored.
    """
    keys = {
        flag[2:]
        for flag, readers, settings in _FLAGS
        if command in readers.split() and not settings.get("required")
    }
    values: dict[str, object] = {}
    with _naming(path, UsageError), _reading(path) as fh:  # not opened, not read, or not UTF-8
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in keys:
            dest = key.replace("-", "_")
            values[dest] = value.replace(",", " ").split() if key == "input" else value
    return values


def parse_args(argv=None) -> argparse.Namespace:
    """Parse argv with flags over the --config file over the parser defaults.

    The file's values become defaults of the chosen subcommand and argv is
    parsed again.
    """
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        commands[args.command].set_defaults(**_parse_config_file(args.config, args.command))
        args = parser.parse_args(argv)
    return args


@contextmanager
def _output_dir(out: Path):
    """A stage directory for a command's files, renamed into `out` if the command succeeds.

    Made in `out` or its nearest existing ancestor before any input is read,
    it checks that `out` is writable and keeps each rename on one filesystem.
    It is always removed.  An OSError is a UsageError: readers raise ValueError.
    """
    existing = next((p for p in (out, *out.parents) if p.exists()), out)
    with _naming(f"cannot write output under {out}", UsageError, OSError):
        try:
            stage = Path(tempfile.mkdtemp(prefix=".qgfit-", dir=existing))
        except OSError as exc:  # named by the path that exists, not by the stage's random name
            raise OSError(exc.errno, exc.strerror, str(existing)) from exc
        try:
            yield stage
            out.mkdir(parents=True, exist_ok=True)
            for path in sorted(stage.iterdir()):
                os.replace(path, out / path.name)
        finally:
            shutil.rmtree(stage, ignore_errors=True)


def _write_rows(path: Path, header: list[str], row_format: str, *columns) -> None:
    """CSV of `header` and the equal-length `columns`, each row `row_format % row`, CRLF-ended.

    An ndarray block becomes Python numbers, so `%r` writes a float's shortest repr.
    """
    width = len(columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [column[start : start + _CSV_BLOCK_ROWS] for column in columns]
            rows = len(block[0])
            fields = [None] * (rows * width)
            for i, part in enumerate(block):
                fields[i::width] = part.tolist() if isinstance(part, np.ndarray) else part
            fh.write((row_format + "\r\n") * rows % tuple(fields))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_fit_curve(stage: Path, fmt: str, ccdf, fitted: ScaleFitResult) -> None:
    columns = {
        "x": ccdf.thresholds.tolist(),
        "ccdf_empirical": ccdf.probabilities.tolist(),
        "ccdf_fitted": ccdf_abs(QGaussianParams(fitted.q, fitted.beta), ccdf.thresholds).tolist(),
    }
    name = f"ccdf_dt{ccdf.dt}.{fmt}"
    if fmt == "json":
        _write_json(
            stage / name, {"id": "pooled", "dt": ccdf.dt, "n_samples": ccdf.n_samples, **columns}
        )
    else:
        _write_rows(stage / name, list(columns), "%.12g,%.12g,%.12g", *columns.values())


def cmd_fit(args: argparse.Namespace, stage: Path) -> str:
    with _naming(None, UsageError):
        grid = GridSpec(min=args.grid_min, max=args.grid_max, count=args.grid_count)
    # as synth checks --n, before any input is read
    with _naming(f"--grid-count {grid.count} points do not fit in memory", UsageError, _NO_ROOM):
        np.empty(grid.count)
    if not args.input:
        raise UsageError("fit requires at least one --input file")
    spellings = {}  # by real path: a file given twice would be pooled twice
    for path in args.input:
        real = os.path.realpath(path)
        if real in spellings:
            raise UsageError(f"--input {spellings[real]} and {path} are the same file")
        spellings[real] = path
    series = {path: read_price_csv(path) for path in args.input}  # keys distinct: checked above

    fits = []
    for ccdf, fit in fit_ladder(series, args.dt, grid):
        _write_fit_curve(stage, args.format, ccdf, fit)
        if not fit.converged:
            print(f"warning: fit at dt={fit.dt} did not converge", file=sys.stderr)
        if fit.at_bound:
            print(
                f"warning: fit at dt={fit.dt} ended on the search-box edge "
                f"(q={fit.q:.6g}, beta={fit.beta:.6g})",
                file=sys.stderr,
            )
        fits.append(fit)

    columns = ([f.dt for f in fits], [f.q for f in fits], [f.beta for f in fits])
    _write_rows(stage / "table.csv", ["dt", "q", "beta"], "%d,%.10g,%.10g", *columns)
    _write_json(stage / "fits.json", [asdict(f) for f in fits])
    return f"wrote {len(fits)} fits to {args.out}"


def cmd_scaling(args: argparse.Namespace, stage: Path) -> str:
    fits = load_scale_fits(args.fits)
    with _naming(args.fits):  # too few scales, or one q at every scale
        report = scaling_report(fits)
    payload = {}
    for key, _, plot, x, y in _SCALING_LAWS:
        p, xs, ys = getattr(report, key), report.columns[x], report.columns[y]
        payload[key] = {
            "exponent": p.exponent,
            "amplitude": p.amplitude,
            "stderr": p.exponent_stderr,
            "r_squared": p.r_squared,
        }
        # the line is in range at xs: the report checked
        _write_rows(stage / f"{plot}.csv", [x, y, "fitted"], "%r,%r,%r", xs, ys, p.fitted(xs))
    _write_json(stage / "scaling.json", payload)
    return f"wrote scaling report to {args.out}"


def cmd_table1(args: argparse.Namespace, stage: Path) -> str:
    _write_rows(stage / "table1.csv", ["dt", "q", "beta"], "%d,%.2f,%.2f", *zip(*TABLE1_ROWS))
    return f"wrote {args.out / 'table1.csv'}"


def _flag_params(args: argparse.Namespace) -> QGaussianParams:
    """The model of --q and --beta; a value out of range is a UsageError."""
    with _naming(None, UsageError):
        return QGaussianParams(args.q, args.beta)


def cmd_synth(args: argparse.Namespace, stage: Path) -> str:
    params = _flag_params(args)
    with _naming(f"--n {args.n} prices do not fit in memory", UsageError, _NO_ROOM):
        log_price = np.empty(args.n)

    # The increments are drawn into the walk's buffer and summed there in
    # place once their scale is known, so the walk is the one n-value array.
    log_price[0] = 0.0
    increments = log_price[1:]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sample(params, args.n - 1, seed=args.seed, out=increments)
        # The walk's range, summed block by block from the carry: the same
        # values as one cumsum, as cumsum adds in order.  numpy's reductions
        # keep a NaN, which Python's min and max would drop.
        low = high = carry = 0.0
        for start in range(0, args.n - 1, _WALK_BLOCK):
            walk = increments[start : start + _WALK_BLOCK].copy()
            walk[0] += carry
            np.cumsum(walk, out=walk)
            low, high, carry = np.minimum(low, walk.min()), np.maximum(high, walk.max()), walk[-1]
            del walk  # freed before the next block is copied
    if not (np.isfinite(low) and np.isfinite(high)):
        raise NumericalError(
            f"synth at q={args.q}, beta={args.beta} gives a non-finite walk: chi-square "
            f"draws underflow to 0 near q = 3, and a small beta overflows the increments"
        )
    half_range = 0.5 * (high - low)
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
    np.cumsum(increments, out=increments)
    if log_price.max() > _MAX_LOG_PRICE_HALF_RANGE or log_price.min() < -_MAX_LOG_PRICE_HALF_RANGE:
        # start price stays at 100 unless the walk wanders too far from it
        log_price -= 0.5 * (log_price.max() + log_price.min())
    prices = np.exp(log_price, out=log_price)
    prices *= 100.0
    repeats = np.count_nonzero(prices[1:] == prices[:-1])
    if repeats:
        raise NumericalError(
            f"synth at q={args.q} writes {repeats} of {args.n - 1} prices equal to "
            f"the one before: the increments fall below float64's price resolution"
        )

    _write_rows(stage / "synth.csv", ["timestamp", "price"], "%d,%.17g", range(args.n), prices)
    return f"wrote {args.out / 'synth.csv'}"


def cmd_pdfplot(args: argparse.Namespace, stage: Path) -> str:
    params = _flag_params(args)
    ccdf = read_ccdf_csv(args.ccdf)
    with _naming(args.ccdf):  # too few points
        xs, numeric = numerical_pdf(ccdf)
    model = 2.0 * pdf(params, xs)  # folded density of |r|
    header = ["x", "pdf_numeric", "pdf_model"]
    _write_rows(stage / "pdfplot.csv", header, "%.12g,%.12g,%.12g", xs, numeric, model)
    return f"wrote {args.out / 'pdfplot.csv'}"


def main(argv=None) -> int:
    """Run one command; with `argv` None, as the process entry, on `sys.argv`.

    As the process entry it first freezes the heap left by the imports, so
    no later collection scans it, the ones at interpreter exit included.
    Frozen objects are never freed: no output may wait on the collector to
    be closed.  An in-process caller passes a list and its heap is left as
    it was.
    """
    if argv is None:
        gc.freeze()
    try:
        args = parse_args(argv)
        with _output_dir(args.out) as stage:
            summary = args.runner(args, stage)
        print(summary)  # once the files are in --out
        return EXIT_OK
    except SystemExit as exc:  # argparse: --help, or a usage error already printed
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"qgfit: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"qgfit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # bad input data, named by its file or its scale
        print(f"qgfit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # numpy names the allocation; a bare MemoryError names nothing
        print(f"qgfit: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
