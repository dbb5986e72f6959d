"""End-to-end benchmark of the qgfit CLI, with an optional traced run.

    python3 bench/run.py --workload fit_large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is not installed, so
every command runs as `python -m qgfit.cli` with PYTHONPATH set to `src`.
One driver process runs the workload's commands one after another in a
closed loop (the next command starts when the previous one exits); passes
over the command list repeat while another pass still fits in `--seconds`,
and at least one pass always runs.

--trace 0 reports the end-to-end metrics of untraced passes: the median
over passes of wall and CPU time, the median set-up time (fresh
`import qgfit.cli` interpreters before each pass) and pass peak RSS, and
the share of operations that succeeded.  --trace 1 alternates an untraced
and a traced pass and reports per-layer metrics; the traced pass runs each
command in `bench/traced.py`, which wraps the layers' public functions and
calls `cli.main(argv)` in-process.

Every child runs pinned to one vCPU, and --trace 0 reports its times in
reference seconds.  On a shared host the speed of a vCPU drifts by up to
1.6x for seconds to minutes at a time, through contention that the guest
does not see as steal time and that the two vCPUs do not share: the wall
time of `qgfit synth --n 1000000` spread 24% (IQR/median) over 32
back-to-back runs.  A thread of this process, pinned to the children's
vCPU, therefore times a fixed pure-Python loop in thread CPU time every
CALIBRATION_PERIOD_S while the children run (about 1% of the vCPU, which
the children's times include), and each child's wall and CPU time are
scaled by CALIBRATION_REF_S over the median loop time during its life:
its time on a host that runs the loop in CALIBRATION_REF_S.  The loop does
not depend on the code under test, so two commits are scaled alike; over
the same 32 runs the scaled time spread 5.5%.  Raw times are kept in the
detail record.

Inputs and reference results come from `bench/checks.py prepare`, once per
seed, and every pass's outputs are checked by `bench/checks.py check` after
the timed loop.  An operation (one CLI command) fails on a non-zero exit, a
timeout or a failed check.  This process imports only the standard library
and never holds large data: Linux starts a child's peak RSS, as wait4
reports it, from the peak RSS of the process that spawned it.

The last line of standard output is the result object; the line before it
records the machine, the code under test and the input digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter, thread_time

START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = BENCH / "_work"

WORKLOAD_NAMES = ("fit_large", "fit_panel", "synth_large")
# A run exits within 180 s of its start: children are killed when this
# budget, counted from process start, runs out.  Passes stop early enough to
# leave CHECK_RESERVE_S for checking their outputs.
RUN_BUDGET_S = 170.0
CHECK_RESERVE_S = 30.0
IMPORTTIME_REPEATS = 3
SETUP_PROBES_PER_ROUND = 2
# Calibration loop: CALIBRATION_LOOPS iterations, timed every
# CALIBRATION_PERIOD_S.  CALIBRATION_REF_S is its thread CPU time on a quiet
# 2-vCPU Xeon VM, so reference seconds read close to that host's seconds.
CALIBRATION_LOOPS = 5_000
CALIBRATION_PERIOD_S = 0.05
CALIBRATION_REF_S = 350e-6
IMPORT_PROBE = "import qgfit.cli"
IMPORT_MARK = "qgfit-bench-import-start"


# ------------------------------------------------------------------ children


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    timed_out: bool
    start: float
    end: float
    scale: float = 1.0  # reference seconds per second; see the module doc

    @property
    def wall_ref(self) -> float:
        return self.wall * self.scale

    @property
    def cpu_ref(self) -> float:
        return self.cpu * self.scale


def run_child(argv: list[str], log: Path, deadline: float) -> Child:
    """Run one process to completion, killing it at the deadline; usage comes from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = max(deadline - perf_counter(), 1.0)
    timed_out = threading.Event()
    with open(log, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall=end - start,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        code=proc.returncode,
        timed_out=timed_out.is_set(),
        start=start,
        end=end,
    )


class Calibrator:
    """Times the calibration loop on the children's vCPU while they run."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, loop s)
        self._stop = threading.Event()
        self._first = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "Calibrator":
        self._thread.start()
        self._first.wait()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.is_set():
            began = thread_time()
            total = 0
            for i in range(CALIBRATION_LOOPS):
                total += i * i % 7
            self.samples.append((perf_counter(), thread_time() - began))
            self._first.set()
            self._stop.wait(CALIBRATION_PERIOD_S)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per second over [start, end]."""
        during = [d for t, d in self.samples if start <= t <= end]
        during = during or [d for t, d in self.samples if t <= end][-1:]
        return CALIBRATION_REF_S / statistics.median(during)

    def run(self, argv: list[str], log: Path, deadline: float) -> Child:
        child = run_child(argv, log, deadline)
        child.scale = self.scale(child.start, child.end)
        return child


def helper(args: list[str], deadline: float) -> str:
    """Run `bench/checks.py` (numpy and scipy live there) and return its output."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "checks.py"), *args],
        capture_output=True,
        text=True,
        timeout=max(deadline - perf_counter(), 1.0),
    )
    if done.returncode != 0:
        raise SystemExit(f"bench: checks.py {args[0]} failed:\n{done.stderr}")
    return done.stdout


# ----------------------------------------------------------------- workloads


def prepare(name: str, seed: int, deadline: float) -> tuple[Path, dict]:
    """This seed's inputs and reference; other seeds' caches for the workload go."""
    base = WORK / name
    if base.is_dir():
        for old in base.iterdir():
            if old.name != f"seed-{seed}":
                shutil.rmtree(old, ignore_errors=True)
    directory = base / f"seed-{seed}"
    helper(["prepare", name, str(seed), str(directory)], deadline)
    return directory, json.loads((directory / "manifest.json").read_text(encoding="utf-8"))


def commands(directory: Path, manifest: dict, out: Path) -> list[list[str]]:
    """The workload's qgfit command lines, writing into `out`."""
    if manifest["kind"] == "fit":
        files = [str(directory / f["file"]) for f in manifest["inputs"]]
        ladder = ",".join(map(str, manifest["ladder"]))
        dt = [] if manifest["default_ladder"] else ["--dt", ladder]
        return [
            ["fit", "--input", *files, *dt, "--out", str(out)],
            ["scaling", "--fits", str(out / "fits.json"), "--out", str(out)],
        ]
    flags = [x for key, value in manifest["args"].items() for x in (f"--{key}", str(value))]
    return [["synth", "--seed", str(manifest["seed"]), *flags, "--out", str(out)]]


# --------------------------------------------------------------------- passes


@dataclass
class Pass:
    out: Path
    traced: bool
    children: list = field(default_factory=list)
    dumps: list = field(default_factory=list)  # traced passes: one per clean exit
    problems: list = field(default_factory=list)  # per command run
    output_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.children)

    @property
    def wall_ref(self) -> float:
        return sum(c.wall_ref for c in self.children)

    @property
    def cpu_ref(self) -> float:
        return sum(c.cpu_ref for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)

    @property
    def failed(self) -> int:
        return sum(bool(p) for p in self.problems)


def run_pass(cmds: list[list[str]], out: Path, traced: bool, meter: Calibrator,
             deadline: float) -> Pass:
    """Run the commands once; outputs stay in `out` for the checks."""
    result = Pass(out, traced)
    for i, cmd in enumerate(cmds):
        log = out.parent / f"{out.name}-log{i}.txt"
        spans = out.parent / f"{out.name}-spans{i}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"), str(spans), *cmd]
        else:
            argv = [sys.executable, "-m", "qgfit.cli", *cmd]
        child = meter.run(argv, log, deadline)
        result.children.append(child)
        if child.timed_out:
            result.problems.append([f"{cmd[0]}: timed out"])
        elif child.code != 0:
            tail = log.read_text(errors="replace")[-500:]
            result.problems.append([f"{cmd[0]}: exit {child.code}: {tail}"])
        else:
            result.problems.append([])
            if traced:
                result.dumps.append(json.loads(spans.read_text(encoding="utf-8")))
        if perf_counter() >= deadline:
            break
    if out.is_dir():
        result.output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return result


def check_outputs(passes: list[Pass], manifest_path: Path, deadline: float) -> None:
    """Add each command's output problems to the commands that exited cleanly."""
    outs = [str(p.out) for p in passes]
    found = json.loads(helper(["check", str(manifest_path), *outs], deadline))
    for p, per_command in zip(passes, found):
        for i, problems in enumerate(per_command[: len(p.problems)]):
            if not p.problems[i]:
                p.problems[i] = problems


def setup_probe(scratch: Path, meter: Calibrator, deadline: float) -> Child:
    """A fresh interpreter importing qgfit.cli: the set-up every command pays."""
    log = scratch / "setup.txt"
    child = meter.run([sys.executable, "-c", IMPORT_PROBE], log, deadline)
    if child.code != 0:
        raise SystemExit(f"bench: `{IMPORT_PROBE}` failed:\n{log.read_text(errors='replace')}")
    return child


def import_times(scratch: Path, deadline: float) -> dict[str, float]:
    """Cumulative import times from `python -X importtime`, medians of runs."""
    code = f"import sys; sys.stderr.write('{IMPORT_MARK}\\n'); {IMPORT_PROBE}"
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        log = scratch / "importtime.txt"
        run_child([sys.executable, "-X", "importtime", "-c", code], log, deadline)
        lines = log.read_text(errors="replace").splitlines()
        lines = lines[lines.index(IMPORT_MARK) + 1:] if IMPORT_MARK in lines else []
        found = {"import.qgfit.cli.s": 0.0}
        for line in lines:
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            cumulative = float(parts[1]) / 1e6
            module = parts[2]
            if module == " " + module.strip():  # top level of the import statement
                found["import.qgfit.cli.s"] += cumulative
            if module.strip() in ("numpy", "scipy.optimize"):
                found.setdefault(f"import.{module.strip()}.s", cumulative)
        for key, value in found.items():
            samples.setdefault(key, []).append(value)
    return {k: statistics.median(v) for k, v in samples.items()}


# -------------------------------------------------------------------- metrics


def _merge(dumps: list[dict]) -> dict:
    stats: dict[str, dict] = {}
    counters: dict[str, float] = {}
    installed: set[str] = set()
    for d in dumps:
        installed.update(d["installed"])
        for name, s in d["stats"].items():
            acc = stats.setdefault(name, dict.fromkeys(s, 0))
            for k, v in s.items():
                acc[k] += v
        for name, v in d["counters"].items():
            counters[name] = counters.get(name, 0) + v
    return {"stats": stats, "counters": counters, "installed": installed}


# Per-layer metrics taken straight from one wrapped function's aggregates:
# metric name -> (wrapped name, aggregate field).
STAT_METRICS = {
    "returns.read_price_csv.s": ("returns.read_price_csv", "total_s"),
    "returns.log_returns.s": ("returns.log_returns", "total_s"),
    "returns.normalize.s": ("returns.normalize", "total_s"),
    "returns.pool.s": ("returns.pool", "total_s"),
    "returns.empirical_ccdf.s": ("returns.empirical_ccdf", "total_s"),
    "estimation.fit_qgaussian_ccdf.s": ("estimation.fit_qgaussian_ccdf", "total_s"),
    "estimation.fit_qgaussian_ccdf.calls": ("estimation.fit_qgaussian_ccdf", "calls"),
    "qgaussian.ccdf_abs.s": ("qgaussian.ccdf_abs", "total_s"),
    "qgaussian.normalization.calls": ("qgaussian.normalization", "calls"),
    "special.hyp2f1.calls": ("special.hyp2f1", "calls"),
    "special.hyp2f1.s": ("special.hyp2f1", "total_s"),
    "special.hyp2f1_tail_remainder.calls": ("special.hyp2f1_tail_remainder", "calls"),
    "special.hyp2f1_tail_remainder.s": ("special.hyp2f1_tail_remainder", "total_s"),
    "cli.fit.self_s": ("cli.fit", "self_s"),
    "qgaussian.sample.s": ("qgaussian.sample", "total_s"),
    "cli.synth.self_s": ("cli.synth", "self_s"),
    "estimation.load_scale_fits.s": ("estimation.load_scale_fits", "total_s"),
    "estimation.scaling_report.s": ("estimation.scaling_report", "total_s"),
}

PER_LAYER_UNITS = {
    **{name: ("count" if name.endswith(".calls") else "s") for name in STAT_METRICS},
    "returns.read_price_csv.rows": "count",
    "estimation.model_calls": "count",
    "estimation.model_points": "count",
    "estimation.minimize.nfev": "count",
    "estimation.restart_useful_frac": "ratio",
    "qgaussian.ccdf_abs.us_per_point": "us",
    "cli.output_bytes": "B",
    "python.start_exit_s": "s",
    "import.qgfit.cli.s": "s",
    "import.scipy.optimize.s": "s",
    "import.numpy.s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(traced: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass; metrics of vanished functions are absent."""
    merged = _merge(traced.dumps)
    stats, counters, installed = merged["stats"], merged["counters"], merged["installed"]
    m: dict[str, float] = {}
    for metric, (name, key) in STAT_METRICS.items():
        if name in installed:
            m[metric] = stats[name][key]
    counted = {
        "returns.read_price_csv.rows": "returns.read_price_csv",
        "estimation.model_calls": "estimation.model",
        "estimation.model_points": "estimation.model",
        "estimation.minimize.nfev": "estimation.minimize",
    }
    for metric, name in counted.items():
        if name in installed:
            m[metric] = counters.get(metric, 0)
    if "estimation.minimize" in installed:
        restarts = counters.get("estimation.restarts", 0)
        m["estimation.restart_useful_frac"] = (
            counters.get("estimation.restarts_useful", 0) / restarts if restarts else 0.0
        )
    if "qgaussian.ccdf_abs" in installed:
        points = counters.get("qgaussian.ccdf_abs.points", 0)
        total = stats["qgaussian.ccdf_abs"]["total_s"]
        m["qgaussian.ccdf_abs.us_per_point"] = 1e6 * total / points if points else 0.0
    m["cli.output_bytes"] = traced.output_bytes
    m["python.start_exit_s"] = sum(
        (d["started"] - child.start) + (child.end - d["dumped"])
        for child, d in zip(traced.children, traced.dumps)
    )
    m["trace.wall_s"] = traced.wall
    m["trace.unattributed_s"] = (
        traced.wall - m["python.start_exit_s"] - sum(s["self_s"] for s in stats.values())
    )
    return m


def trace_spans(traced: Pass) -> list[dict]:
    """Spans of one traced pass, each command under a parent-timed process span."""
    spans = []
    for i, (child, dump) in enumerate(zip(traced.children, traced.dumps)):
        root = f"p{i}"
        spans += [
            {"id": root, "name": "process", "start": child.start, "end": child.end,
             "parent": None},
            {"id": f"{root}.start", "name": "python.start", "start": child.start,
             "end": dump["started"], "parent": root},
            {"id": f"{root}.exit", "name": "python.exit", "start": dump["dumped"],
             "end": child.end, "parent": root},
        ]
        for s in dump["spans"]:
            spans.append({**s, "id": f"p{i}.{s['id']}",
                          "parent": root if s["parent"] is None else f"p{i}.{s['parent']}"})
    return spans


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(directory: Path, manifest: dict, scratch: Path, seconds: float, trace: bool,
            meter: Calibrator, deadline: float) -> tuple[list[Pass], list[Pass], list[Child]]:
    """Untraced passes, traced passes and set-up probes of one run.

    Rounds (SETUP_PROBES_PER_ROUND set-up probes and an untraced pass, or
    an untraced and a traced pass) repeat while another one of median length still ends
    inside `seconds`; the first always runs.
    """
    setup_probe(scratch, meter, deadline)  # warm-up: bytecode and page cache
    plain: list[Pass] = []
    traced: list[Pass] = []
    probes: list[Child] = []
    lengths: list[float] = []
    began = perf_counter()
    while True:
        started_round = perf_counter()
        if not trace:
            probes += [setup_probe(scratch, meter, deadline) for _ in range(SETUP_PROBES_PER_ROUND)]
        for is_traced in (False, True) if trace else (False,):
            out = scratch / f"out{len(plain) + len(traced)}"
            p = run_pass(commands(directory, manifest, out), out, is_traced, meter, deadline)
            (traced if is_traced else plain).append(p)
        lengths.append(perf_counter() - started_round)
        ends = perf_counter() - began + statistics.median(lengths)
        if ends > seconds or perf_counter() >= deadline:
            return plain, traced, probes


def run(name: str, seed: int, seconds: float, trace: bool, started: float | None = None) -> dict:
    """Run one workload and return the result object plus a detail record.

    Every child is killed RUN_BUDGET_S after `started` (default: now).
    """
    deadline = (perf_counter() if started is None else started) + RUN_BUDGET_S
    directory, manifest = prepare(name, seed, deadline)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})  # this thread, and the children it starts
    try:
        with Calibrator(cpu) as meter:
            plain, traced, probes = measure(
                directory, manifest, scratch, seconds, trace, meter, deadline - CHECK_RESERVE_S
            )
        passes = plain + traced
        check_outputs(passes, directory / "manifest.json", deadline)
        attempted = sum(len(p.problems) for p in passes)
        failed = sum(p.failed for p in passes)

        layers = {}
        if trace:
            per_pass = [layer_metrics(p) for p in traced if not p.failed]
            metrics = {
                key: _metric(statistics.median(m[key] for m in per_pass), PER_LAYER_UNITS[key])
                for key in (per_pass[0] if per_pass else ())
            }
            for key, value in import_times(scratch, deadline).items():
                metrics[key] = _metric(value, "s")
            # In reference seconds, or the host's drift between the two
            # passes would swamp the wrappers' cost.
            overhead = (statistics.median(p.wall_ref for p in traced)
                        - statistics.median(p.wall_ref for p in plain))
            metrics["trace.overhead_s"] = _metric(overhead, "s")
            layers = _merge(traced[-1].dumps)["stats"]
            spans = json.dumps(trace_spans(traced[-1]))
            (WORK / f"trace-{name}.json").write_text(spans, encoding="utf-8")
        else:
            metrics = {
                "wall_s": _metric(statistics.median(p.wall_ref for p in plain), "s"),
                "cpu_s": _metric(statistics.median(p.cpu_ref for p in plain), "s"),
                "setup_s": _metric(statistics.median(c.wall_ref for c in probes), "s"),
                "peak_rss_mb": _metric(statistics.median(p.rss_mb for p in plain), "MB"),
                "success_frac": _metric((attempted - failed) / attempted, "ratio"),
            }
        detail = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "machine": {**machine_record(), "pinned_cpu": cpu},
            "inputs": [{k: f[k] for k in ("file", "rows", "sha256")} for f in manifest["inputs"]],
            "commands": commands(directory, manifest, Path("OUT")),
            "passes": [
                {"traced": p.traced, "wall_s": p.wall, "wall_ref_s": p.wall_ref,
                 "cpu_ref_s": p.cpu_ref, "rss_mb": p.rss_mb, "failed": p.failed,
                 "command_wall_s": [c.wall for c in p.children],
                 "command_wall_ref_s": [c.wall_ref for c in p.children]}
                for p in passes
            ],
            "setup_probes": [{"wall_s": c.wall, "wall_ref_s": c.wall_ref} for c in probes],
            "calibration_loop_s": statistics.median(d for _, d in meter.samples),
            "problems": [x for p in passes for problems in p.problems for x in problems][:20],
            "layers": layers,
        }
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return {"result": result, "detail": detail}
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(scratch, ignore_errors=True)


def have_sources() -> bool:
    if (SRC / "qgfit" / "cli.py").is_file():
        return True
    print(f"bench: no qgfit sources under {SRC}; run from a source checkout", file=sys.stderr)
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not have_sources():
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), started=START)
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
