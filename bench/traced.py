"""Run one qgfit CLI command in-process with its layers wrapped in timers.

    PYTHONPATH=src python3 bench/traced.py SPANS.json fit --input a.csv --out o

Before `cli.main(argv)` runs, every public function of `returns`,
`estimation`, `qgaussian` and `special` is replaced by a timing wrapper
where the `cli`, `estimation` and `qgaussian` namespaces refer to it, as
are the `cmd_*` commands of `cli` and the `minimize` that `estimation`
calls.  Spans (name, start, end, parent, self time) stay in memory and are
written to SPANS.json when the command ends, together with per-function
call counts, busy time, self time and failures.  Functions called once per
model point keep only those aggregates.  A function that no longer exists,
or that none of those namespaces sees, is skipped and missing from
`installed`.  Times are `time.perf_counter` values, which share one
monotonic clock with the parent process; `started` and `dumped` mark where
interpreter start-up ends and exit begins.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # end of interpreter start-up, as near as a script can see

import importlib
import inspect
import json
import sys

LAYER_MODULES = ("returns", "estimation", "qgaussian", "special")
# Namespaces whose references to a wrapped function are replaced: calls made
# inside `returns` or `special` (pool -> normalize, hyp2f1 -> ln_gamma) stay
# unwrapped, which keeps the wrapper cost off the innermost loops.
NAMESPACES = ("qgfit.cli", "qgfit.estimation", "qgfit.qgaussian")
# Called once or more per model point (about 10^5 times per fit command):
# aggregates only, no span per call.
PER_POINT = {"qgaussian.ccdf_abs", "qgaussian.normalization", "qgaussian.exp_q", "qgaussian.pdf"}


class Tracer:
    """Spans and per-function aggregates of one process, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, failures]
        self.counters: dict[str, float] = {}
        self.minimize_funs: list[float] = []
        # Each frame: [time covered by finished children, id of nearest span].
        self._stack: list[list] = [[0.0, None]]
        self._next_id = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, keep_spans: bool, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_spans:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                stat[3] += failed
                if keep_spans:
                    self.spans.append(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent[1],
                            "self": duration - frame[0],
                        }
                    )
            if after is not None:
                after(result)
            return result

        return wrapper

    def dump(self, path: str, installed: list[str]) -> None:
        payload = {
            "started": STARTED,
            "dumped": perf_counter(),
            "spans": self.spans,
            "stats": {
                name: dict(zip(("calls", "total_s", "self_s", "failures"), s))
                for name, s in self.stats.items()
            },
            "counters": self.counters,
            "installed": installed,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _after_hooks(tracer: Tracer) -> dict:
    def rows(series):
        tracer.count("returns.read_price_csv.rows", len(series))

    def points(result):
        tracer.count("qgaussian.ccdf_abs.points", _points(result))

    def minimized(result):
        tracer.count("estimation.minimize.nfev", int(result.nfev))
        tracer.minimize_funs.append(float(result.fun))

    def fitted(_):
        funs = tracer.minimize_funs
        if len(funs) >= 2:
            tracer.count("estimation.restarts")
            tracer.count("estimation.restarts_useful", funs[1] < funs[0])
        funs.clear()

    return {
        "returns.read_price_csv": rows,
        "qgaussian.ccdf_abs": points,
        "estimation.minimize": minimized,
        "estimation.fit_qgaussian_ccdf": fitted,
    }


def _points(result) -> int:
    """Model points in a ccdf_abs result: an array's size, or 1 for a scalar."""
    return getattr(result, "size", 1)


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function where the namespaces see it; return the names wrapped."""
    namespaces = [sys.modules[n] for n in NAMESPACES if n in sys.modules]
    hooks = _after_hooks(tracer)
    targets = []  # (traced name, original function, attribute name)
    for short in LAYER_MODULES:
        module = sys.modules.get(f"qgfit.{short}")
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                targets.append((f"{short}.{attr}", fn, attr))
    estimation = sys.modules.get("qgfit.estimation")
    if callable(getattr(estimation, "minimize", None)):
        targets.append(("estimation.minimize", estimation.minimize, "minimize"))
    cli = sys.modules["qgfit.cli"]
    for attr, fn in vars(cli).copy().items():
        if attr.startswith("cmd_") and inspect.isfunction(fn):
            targets.append((f"cli.{attr[4:]}", fn, attr))

    installed = []
    for name, original, attr in targets:
        holders = [ns for ns in namespaces if getattr(ns, attr, None) is original]
        if not holders:
            continue
        keep_spans = name not in PER_POINT and not name.startswith("special.")
        wrapped = tracer.wrap(name, original, keep_spans, hooks.get(name))
        for ns in holders:
            setattr(ns, attr, wrapped)
        installed.append(name)

    # Model points requested by the fit, counted where estimation calls the
    # model so the count does not depend on how ccdf_abs is vectorised.
    if estimation is not None and hasattr(estimation, "ccdf_abs"):
        model = estimation.ccdf_abs

        def counted_model(*args, **kwargs):
            result = model(*args, **kwargs)
            tracer.count("estimation.model_calls")
            tracer.count("estimation.model_points", _points(result))
            return result

        estimation.ccdf_abs = counted_model
        installed.append("estimation.model")
    return installed


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    import_span = tracer.wrap("import", importlib.import_module, keep_spans=True)
    cli = import_span("qgfit.cli")
    installed = install(tracer)
    status = tracer.wrap("cli.main", cli.main, keep_spans=True)(cli_argv)
    tracer.dump(spans_path, installed)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
