"""Print every benchmark metric by name and unit, then the per-layer view.

    python3 bench/report.py --seed 1 --seconds 30

Runs each workload once untraced and once traced (as `bench/run.py` does
with --trace 0 and --trace 1), prints all end-to-end and per-layer metrics
with their units, and then the baseline rows of the roadmap: import, CSV
parse, returns + normalize + pool, CCDF build, one fit, one `ccdf_abs`
evaluation, scaling report and output writes.  For each workload it also
checks that the layers' self times account for the traced wall time up to
the tracing overhead.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run


def _value(results: dict, workload: str, trace: bool, metric: str):
    entry = results[workload, trace]["result"]["metrics"].get(metric)
    return None if entry is None else entry["value"]


def _command_wall(results: dict, workload: str, index: int) -> float:
    """Median wall time of one command over the untraced passes, in reference seconds."""
    passes = results[workload, False]["detail"]["passes"]
    return statistics.median(p["command_wall_ref_s"][index] for p in passes if not p["traced"])


def print_metrics(results: dict) -> None:
    for (workload, trace), out in results.items():
        res = out["result"]
        kind = "per-layer (traced)" if trace else "end-to-end"
        print(f"\n== {workload} {kind}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for problem in out["detail"]["problems"]:
            print(f"   problem: {problem}")
        for name, m in res["metrics"].items():
            print(f"   {name:40s} {m['value']:>16.6g} {m['unit']}")


def print_accounting(results: dict) -> None:
    print("\n== self-time accounting (traced pass)")
    for workload in run.WORKLOAD_NAMES:
        names = ("trace.wall_s", "python.start_exit_s", "trace.unattributed_s", "trace.overhead_s")
        values = [_value(results, workload, True, n) for n in names]
        if None in values:
            continue
        wall, start_exit, rest, overhead = values
        layers = wall - start_exit - rest
        verdict = "within" if abs(rest) <= abs(overhead) else "NOT within"
        print(f"   {workload:12s} traced wall {wall:.3f} s = layer self times {layers:.3f} s"
              f" + interpreter start/exit {start_exit:.3f} s + tracer glue {rest:.3f} s"
              f" ({verdict} overhead {overhead:.3f} s)")


def print_baseline(results: dict) -> None:
    def v(workload, metric, trace=True):
        return _value(results, workload, trace, metric)

    def per_call(workload, seconds, calls):
        s, n = v(workload, seconds), v(workload, calls)
        return s / n if s is not None and n else None

    def add(*values):
        return None if None in values else sum(values)

    returns_layers = ("returns.log_returns.s", "returns.normalize.s", "returns.pool.s")
    rows = [
        ("import qgfit.cli (fresh interpreter)", v("fit_large", "setup_s", False), "s"),
        ("import qgfit.cli (-X importtime)", v("fit_large", "import.qgfit.cli.s"), "s"),
        ("  of which scipy.optimize", v("fit_large", "import.scipy.optimize.s"), "s"),
        ("qgfit synth --n 1e6", _command_wall(results, "synth_large", 0), "s"),
        ("qgfit fit, 1e6 prices, 9 scales", _command_wall(results, "fit_large", 0), "s"),
        ("  CSV parse (read_price_csv)", v("fit_large", "returns.read_price_csv.s"), "s"),
        ("  returns + normalize + pool", add(*(v("fit_large", m) for m in returns_layers)), "s"),
        ("  CCDF build, 9 scales", v("fit_large", "returns.empirical_ccdf.s"), "s"),
        ("  9 fits", v("fit_large", "estimation.fit_qgaussian_ccdf.s"), "s"),
        ("one fit_qgaussian_ccdf, fit_large",
         per_call("fit_large", "estimation.fit_qgaussian_ccdf.s",
                  "estimation.fit_qgaussian_ccdf.calls"), "s"),
        ("one fit_qgaussian_ccdf, fit_panel",
         per_call("fit_panel", "estimation.fit_qgaussian_ccdf.s",
                  "estimation.fit_qgaussian_ccdf.calls"), "s"),
        ("one ccdf_abs evaluation, fit_panel",
         v("fit_panel", "qgaussian.ccdf_abs.us_per_point"), "us"),
        ("scaling report (load + regressions)",
         add(v("fit_large", "estimation.load_scale_fits.s"),
             v("fit_large", "estimation.scaling_report.s")), "s"),
        ("output writes + grid cap, fit", v("fit_large", "cli.fit.self_s"), "s"),
        ("walk + row writer, synth", v("synth_large", "cli.synth.self_s"), "s"),
    ]
    print("\n== baseline rows (untraced figures in reference seconds, as the end-to-end"
          " metrics;\n   traced figures in seconds, with wrapper cost: see trace.overhead_s)")
    for label, value, unit in rows:
        shown = "absent" if value is None else f"{value:.4g} {unit}"
        print(f"   {label:40s} {shown}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if not run.have_sources():
        return 2
    results = {}
    for workload in run.WORKLOAD_NAMES:
        for trace in (False, True):
            results[workload, trace] = run.run(workload, args.seed, args.seconds, trace)
    print(f"machine: {results['fit_large', False]['detail']['machine']}")
    print_metrics(results)
    print_accounting(results)
    print_baseline(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
