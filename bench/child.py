"""In-process helpers that ``bench/run.py`` starts as fresh child processes.

Each mode runs the ``ngridsim`` package from the checkout's ``src/`` (put on
``PYTHONPATH`` by ``run.py``) and reports as JSON on its last stdout line, or
into a file for ``trace``, whose stdout belongs to the CLI:

``probe KIND PATH``
    Set-up only: ``import ngridsim.cli`` plus input loading (``scenario``:
    ``config.load_scenario``; ``features``: ``sor.load_feature_rows``).
``trace OUT_JSON -- CLI_ARGS...``
    Wrap each layer's public functions with spans and counters, then run
    ``ngridsim.cli.main(CLI_ARGS)`` in this process.
``speedup SCENARIO``
    Time ``run_simulation`` serial and with ``workers=2``, twice each, untraced.

The probe's end time, which the parent compares with its own spawn time, is
read from ``CLOCK_MONOTONIC``, which all processes on one Linux host share.
"""

from __future__ import annotations

import json
import sys
import time
from time import perf_counter


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (module, function) pairs timed as spans. Each wrapper replaces the function
# in every ngridsim module that imported it, so callers such as ``cli`` and
# ``harness`` reach the wrapped name.
SPANS = (
    ("config", "load_scenario"),
    ("fleet", "validate_fleet"),
    ("harness", "compute_shadow"),
    ("harness", "sample_outages"),
    ("harness", "run_replication"),
    ("harness", "run_simulation"),
    ("harness", "emit_report"),
    ("sor", "load_feature_rows"),
    ("sor", "train"),
    ("sor", "build_sor_table"),
    ("sor", "evaluate"),
    ("metrics", "metric_report"),
)


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus work counters.

    The dispatch steps run hundreds of thousands of times, so they are only
    counted, never timed. A connected step counts as a prefix step when it
    runs inside a replication on an n-Grid whose feeder has its first outage
    later that day: its result is already in the no-outage shadow.
    Not thread-safe: trace serial runs only.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts = {"connected_steps": 0, "islanded_steps": 0, "prefix_steps": 0,
                       "stumps": 0, "train_row_stumps": 0, "samples": 0}
        self._first_outage: dict[str, int] = {}

    def _span(self, name, fn):
        def wrapped(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][1:3] = [start, perf_counter()]
                self._stack.pop()
            self._observe(name, args, result)
            return result
        return wrapped

    def _observe(self, name, args, result):
        if name == "harness.sample_outages":
            for ev in result:
                first = self._first_outage.get(ev.feeder_id, ev.start_hour)
                self._first_outage[ev.feeder_id] = min(first, ev.start_hour)
        elif name == "harness.run_replication":
            self._first_outage.clear()
        elif name == "sor.train":
            self.counts["stumps"] += len(result.stumps)
            self.counts["train_row_stumps"] += len(args[0]) * len(result.stumps)
        elif name == "metrics.metric_report":
            self.counts["samples"] += len(args[0])

    def _connected(self, fn):
        counts, first_outage = self.counts, self._first_outage.get

        def connected_step(ngrid, state, hour, *rest):
            counts["connected_steps"] += 1
            if hour < first_outage(ngrid.feeder_id, -1):
                counts["prefix_steps"] += 1
            return fn(ngrid, state, hour, *rest)
        return connected_step

    def _islanded(self, fn):
        counts = self.counts

        def islanded_step(*args):
            counts["islanded_steps"] += 1
            return fn(*args)
        return islanded_step

    def install(self) -> None:
        import ngridsim.cli  # noqa: F401  (loads every module to patch)
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ngridsim"]
        wrappers = {}  # id(original) -> wrapper; modules keep the originals alive
        for mod, name in SPANS:
            original = getattr(sys.modules[f"ngridsim.{mod}"], name)
            wrappers[id(original)] = self._span(f"{mod}.{name}", original)
        harness = sys.modules["ngridsim.harness"]
        wrappers[id(harness.connected_step)] = self._connected(harness.connected_step)
        wrappers[id(harness.islanded_step)] = self._islanded(harness.islanded_step)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])


def _probe(kind: str, path: str) -> dict:
    import ngridsim
    import ngridsim.cli  # noqa: F401
    if kind == "scenario":
        from ngridsim.config import load_scenario
        load_scenario(path)
    else:
        from ngridsim.sor import load_feature_rows
        load_feature_rows(path, require_label=True)
    return {"end": monotonic(), "file": ngridsim.__file__}


def _trace(out_path: str, cli_args: list[str]) -> int:
    start = perf_counter()
    import ngridsim.cli
    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    rc = ngridsim.cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump({"rc": rc, "import_s": import_s,
                   "spans": tracer.spans, "counts": tracer.counts}, fh)
    return rc


def _speedup(path: str) -> dict:
    from ngridsim.config import load_scenario
    from ngridsim.harness import run_simulation
    scenario = load_scenario(path)
    times = {None: 0.0, 2: 0.0}
    for workers in (None, 2, 2, None):  # ABBA, so drift hits both alike
        start = perf_counter()
        run_simulation(scenario, workers=workers)
        times[workers] += perf_counter() - start
    return {"serial_s": times[None], "workers2_s": times[2]}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "probe":
        print(json.dumps(_probe(argv[1], argv[2])))
    elif mode == "trace":
        if argv[2] != "--":
            raise SystemExit("usage: trace OUT_JSON -- CLI_ARGS...")
        return _trace(argv[1], argv[3:])
    elif mode == "speedup":
        print(json.dumps(_speedup(argv[1])))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
