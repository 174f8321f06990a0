"""ngridsim benchmark: end-to-end CLI timings and a traced per-layer run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload simulate-demo --seed 20230223 --seconds 40 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` drives the CLI as a user would: a closed loop of one client,
each operation a fresh ``python -m ngridsim.cli`` process (``risk-model``:
``sor train``, ``sor score``, ``sor eval`` in turn) against this checkout's
``src/``. Before each operation a fresh set-up probe process times
``import ngridsim.cli`` plus input loading. It reports every end-to-end
metric in ``BENCHMARK.json``: medians over the operations, whose count is
``attempted``. ``reps_per_s`` is the replications asked for (times the
repair points of a sweep) per second of ``wall_s - setup_s``; ``risk-model``
has no replications and counts train -> score -> eval pipelines instead.

``--trace 1`` runs the workload serially, twice untraced and twice traced,
each as fresh processes. The traced process wraps each layer's public
functions from ``bench/child.py`` (nothing in ``src/`` changes) and reports
every per-layer metric in ``BENCHMARK.json``; ``bench/layers.json`` says
which end-to-end metric each one should move, and on which workload. A layer
the workload never calls reports 0.

Inputs come from ``--seed``. The Monte Carlo workloads take the case-study
fleet built with that seed, and keep the case study's risk table and
outage-sampling seed, so every seed dispatches the same outage log and does
the same amount of work. At the default seed the bundle is the one
``ngridsim demo`` writes.

Every operation's outputs are checked: against ``bench/reference/`` (the
outputs of the commit that defined this benchmark) at the default seed (numbers within 1e-9 relative, ``outages.csv`` exactly), and at
any seed for determinism across operations, ENS >= 0 and sweep ENS
non-decreasing in repair time. The traced run checks that the CLI's outputs
equal the in-process serial run's. Work counters must repeat exactly across
all runs of one workload and seed of the same ``src/`` in a checkout (kept
in ``.bench_runs/``). Any failure counts as a failed operation.

Machine facts, the resolved ``ngridsim.__file__`` and every sample are
printed as a JSON line before the result, which is the last line.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from child import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
REFERENCE = BENCH / "reference"
PY = sys.executable

DEFAULT_SEED = 20230223
SWEEP_REPAIR = "1,2,3,4,5"
REL_TOL = 1e-9
ABS_TOL = 1e-12
# A timed run makes at least MIN_OPS operations, then starts another only while
# it would end within --seconds, so a run lasts about --seconds on any commit.
# After MAX_SECONDS it starts none, so that a slow commit still ends in 180 s.
MIN_OPS = 3
MAX_SECONDS = 120

# Sizes per workload; --smoke shrinks them so every path runs in seconds.
SIZES = {
    "simulate-demo": {"reps": 100},
    "sweep-sor": {"reps": 10},
    "risk-model": {"stumps": 200, "train_feeders": 100, "holdout_feeders": 40},
}
SMOKE_SIZES = {
    "simulate-demo": {"reps": 2},
    "sweep-sor": {"reps": 2},
    "risk-model": {"stumps": 5, "train_feeders": 100, "holdout_feeders": 40},
}


class BenchError(Exception):
    """The benchmark cannot run here, so it prints no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# ---------------------------------------------------------------------------
# Inputs

def write_demo_bundle(seed: int, reps: int, precharge: str, out: Path) -> tuple[Path, int]:
    """Returns the scenario path and the feeder count."""
    from ngridsim import casestudy
    scenario = casestudy.build_case_study(replications=reps, master_seed=seed)
    default = casestudy.build_case_study(replications=reps)
    scenario.sor = default.sor
    scenario.master_seed = default.master_seed
    scenario.precharge = precharge
    return Path(casestudy.write_bundle(scenario, out)), len(scenario.fleet.feeders)


REGIONS = ("coast", "east", "hills", "north", "south", "west")
VEGETATION = ("high", "low", "medium")


def write_features(path: Path, seed: int, n_feeders: int, prefix: str) -> int:
    """Feeder-hour features with 0/1 outage labels from a logistic model:
    three numeric columns and two ``cat:`` columns. Returns the row count."""
    import numpy as np
    rng = np.random.default_rng([seed, ord(prefix)])
    region_effect = dict(zip(REGIONS, (0.6, -0.2, 0.9, 0.0, -0.4, 0.3)))
    veg_effect = dict(zip(VEGETATION, (0.8, -0.5, 0.1)))
    labels = []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feeder_id", "hour", "label", "wind_mps", "temp_c",
                         "load_factor", "cat:region", "cat:vegetation"])
        for f in range(n_feeders):
            region = REGIONS[rng.integers(len(REGIONS))]
            veg = VEGETATION[rng.integers(len(VEGETATION))]
            storm = 8.0 * rng.random()
            for h in range(24):
                wind = abs(rng.normal(4.0 + storm * math.exp(-((h - 14) ** 2) / 18.0), 2.0))
                temp = 18.0 + 8.0 * math.sin(math.pi * (h - 8) / 12.0) + rng.normal(0.0, 2.0)
                load = min(1.0, max(0.0, 0.55 + 0.3 * math.sin(math.pi * (h - 11) / 12.0)
                                    + rng.normal(0.0, 0.08)))
                logit = (-3.2 + 0.28 * wind + 0.05 * (temp - 18.0) + 1.2 * load
                         + region_effect[region] + veg_effect[veg])
                label = int(rng.random() < 1.0 / (1.0 + math.exp(-logit)))
                labels.append(label)
                writer.writerow([f"{prefix}{f + 1:03d}", h, label, f"{wind:.3f}",
                                 f"{temp:.2f}", f"{load:.3f}", region, veg])
    if len(set(labels)) != 2:
        raise BenchError(f"{path}: generated labels hold one class only")
    return len(labels)


class Workload:
    """Generated inputs plus the CLI commands of one operation."""

    def __init__(self, name: str, seed: int, smoke: bool, inputs: Path):
        self.name = name
        self.size = size = (SMOKE_SIZES if smoke else SIZES)[name]
        inputs.mkdir(parents=True)
        self.input_bytes = 0
        if name == "risk-model":
            self.train = inputs / "train.csv"
            self.holdout = inputs / "holdout.csv"
            write_features(self.train, seed, size["train_feeders"], "T")
            self.holdout_rows = write_features(self.holdout, seed, size["holdout_feeders"], "H")
            self.stumps = size["stumps"]
            self.probe = ("features", self.train)
            self.units = 1  # one train -> score -> eval pipeline
        else:
            precharge = "sor" if name == "sweep-sor" else "full"
            self.scenario, self.feeders = write_demo_bundle(seed, size["reps"], precharge, inputs)
            self.input_bytes = sum(p.stat().st_size for p in inputs.iterdir())
            self.reps = size["reps"]
            self.probe = ("scenario", self.scenario)
            self.units = self.reps * (len(SWEEP_REPAIR.split(",")) if name == "sweep-sor" else 1)

    def commands(self, out: Path, serial: bool = False) -> list[list[str]]:
        if self.name == "simulate-demo":
            return [["simulate", "--scenario", str(self.scenario), "--out", str(out)]]
        if self.name == "sweep-sor":
            workers = [] if serial else ["--workers", "2"]
            return [["sweep", "--scenario", str(self.scenario), "--repair", SWEEP_REPAIR,
                     "--out", str(out)] + workers]
        model = str(out / "model.json")
        return [["sor", "train", "--data", str(self.train), "--out", model,
                 "--stumps", str(self.stumps)],
                ["sor", "score", "--model", model, "--data", str(self.holdout),
                 "--out", str(out / "sor.csv")],
                ["sor", "eval", "--model", model, "--data", str(self.holdout)]]


# ---------------------------------------------------------------------------
# Processes

def spawn(argv: list[str], out: Path, tag: str) -> tuple[int, float]:
    """Run one child to exit; stdout and stderr go to ``out/<tag>.*``.
    Returns (exit code, peak RSS in MB)."""
    with open(out / f"{tag}.stdout", "wb") as so, open(out / f"{tag}.stderr", "wb") as se:
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (out / f"{tag}.stderr").read_text(errors="replace")[-2000:]
        print(f"{tag}: exit {proc.returncode}: {tail}", file=sys.stderr)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_cli(commands: list[list[str]], out: Path, traced: bool = False) -> tuple[bool, float, float]:
    """One operation: each command as a fresh CLI process, in turn; if
    ``traced``, the CLI runs in-process under the tracer, which writes
    ``out/trace<k>.json``. Returns (all exited 0, wall seconds, peak RSS MB)."""
    out.mkdir(parents=True)
    start = perf_counter()
    peak = 0.0
    for k, argv in enumerate(commands):
        prefix = ([PY, str(BENCH / "child.py"), "trace", str(out / f"trace{k}.json"), "--"]
                  if traced else [PY, "-m", "ngridsim.cli"])
        rc, rss = spawn(prefix + argv, out, f"cmd{k}")
        peak = max(peak, rss)
        if rc != 0:
            return False, perf_counter() - start, peak
    return True, perf_counter() - start, peak


def probe(workload: Workload, out: Path, tag: str) -> tuple[float, dict | None]:
    """Set-up time: spawn of a fresh process to the end of its input loading."""
    kind, path = workload.probe
    start = monotonic()
    rc, _ = spawn([PY, str(BENCH / "child.py"), "probe", kind, str(path)], out, tag)
    if rc != 0:
        return monotonic() - start, None
    info = json.loads((out / f"{tag}.stdout").read_text().splitlines()[-1])
    expected = SRC / "ngridsim" / "__init__.py"
    if Path(info["file"]).resolve() != expected.resolve():
        raise BenchError(f"child imported {info['file']}, not the checkout's {expected}")
    return info["end"] - start, info


# ---------------------------------------------------------------------------
# Correctness

def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def csv_cell_equal(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= max(REL_TOL * max(abs(x), abs(y)), ABS_TOL)


def compare_csv(got: Path, want: Path) -> list[str]:
    a, b = read_csv(got), read_csv(want)
    if len(a) != len(b):
        return [f"{got.name}: {len(a)} rows, expected {len(b)}"]
    for i, (ra, rb) in enumerate(zip(a, b)):
        if len(ra) != len(rb) or not all(csv_cell_equal(x, y) for x, y in zip(ra, rb)):
            return [f"{got.name} row {i}: {ra} != {rb}"]
    return []


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def outage_counts(out: Path) -> dict:
    rows = read_csv(out / "outages.csv")[1:]
    return {"outage_events": len(rows),
            "disturbed_feeder_reps": len({(r[0], r[1]) for r in rows})}


EXACT = {"outages.csv"}  # compared byte for byte; other outputs within REL_TOL


def output_files(workload: Workload, out: Path) -> list[str]:
    """Names of the checked output files of one operation in ``out``. For
    ``risk-model`` the stump count and ``sor eval`` lines are written there
    as CSV from the CLI's stdout first."""
    if workload.name == "risk-model":
        trained = (out / "cmd0.stdout").read_text().split()  # trained <n> stumps on ...
        (out / "stumps.csv").write_text(f"stumps\n{trained[1]}\n")
        metrics = [line.split(":") for line in (out / "cmd2.stdout").read_text().splitlines()]
        (out / "eval.csv").write_text("".join(f"{k},{v.strip()}\n" for k, v in metrics))
        return ["stumps.csv", "eval.csv", "sor.csv"]
    sweep = ["sweep.csv"] if workload.name == "sweep-sor" else []
    return ["summary.csv", "fleet_series.csv"] + sweep + ["outages.csv"]


def check_outputs(workload: Workload, out: Path) -> list[str]:
    """Checks that hold at any seed."""
    problems = []
    if workload.name == "risk-model":
        stumps = int(read_csv(out / "stumps.csv")[1][0])
        if stumps != workload.stumps:
            problems.append(f"trained {stumps} stumps, asked for {workload.stumps}")
        values = [float(v) for _, v in read_csv(out / "eval.csv")]
        if len(values) != 4 or not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"sor eval values out of [0, 1]: {values}")
        table = read_csv(out / "sor.csv")[1:]
        if len(table) != workload.holdout_rows or not all(0.0 < float(r[2]) < 1.0 for r in table):
            problems.append("sor.csv has the wrong rows or a probability outside (0, 1)")
        return problems
    summary = read_csv(out / "summary.csv")
    series = read_csv(out / "fleet_series.csv")
    ens_col = series[0].index("ens_kw")
    if float(summary[1][0]) < 0 or any(float(r[ens_col]) < 0 for r in series[1:]):
        problems.append("negative ENS")
    if workload.name == "sweep-sor":
        ens = [float(r[1]) for r in read_csv(out / "sweep.csv")[1:]]
        if len(ens) != len(SWEEP_REPAIR.split(",")) or any(b < a for a, b in zip(ens, ens[1:])):
            problems.append(f"sweep ENS not non-decreasing in repair time: {ens}")
    return problems


def same_outputs(names: list[str], got: Path, want: Path) -> list[str]:
    """``got`` holds the outputs of ``want``: numbers within 1e-9 relative,
    EXACT files byte for byte (``want`` may hold their SHA-256 digests)."""
    problems = []
    for name in names:
        if name not in EXACT:
            problems += compare_csv(got / name, want / name)
            continue
        digest = want / f"{name}.sha256"
        expected = digest.read_text().split()[0] if digest.exists() else sha256(want / name)
        if sha256(got / name) != expected:
            problems.append(f"{name} differs")
    return problems


def check_counters(key: str, counters: dict) -> list[str]:
    """Exact work counters must repeat across every run of one workload and
    seed in this checkout; the first run to see a counter records it."""
    path = WORK / "counters.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    known = seen.setdefault(key, {})
    problems = [f"{name} = {value}, an earlier run saw {known[name]}"
                for name, value in counters.items() if known.get(name, value) != value]
    known.update({k: v for k, v in counters.items() if k not in known})
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


# ---------------------------------------------------------------------------
# Runs

def machine_facts() -> dict:
    import numpy
    import yaml
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__, "pyyaml": yaml.__version__,
            "yaml_csafeloader": hasattr(yaml, "CSafeLoader")}


def timed_run(workload: Workload, seconds: float, run_dir: Path, seed: int,
              smoke: bool) -> tuple[dict, dict]:
    """Closed loop of set-up probes and CLI operations for ``seconds``."""
    setup, wall, rss = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    first = None
    key = counter_key(workload, seed)
    begin = perf_counter()
    iteration: list[float] = []
    while True:
        started = perf_counter()
        out = run_dir / f"op{attempted}"
        setup_s, info = probe(workload, run_dir, f"probe{attempted}")
        ok, wall_s, rss_mb = run_cli(workload.commands(out), out)
        attempted += 1
        setup.append(setup_s)
        wall.append(wall_s)
        rss.append(rss_mb)
        found = [] if info else ["set-up probe failed"]
        if ok:
            names = output_files(workload, out)
            found += check_outputs(workload, out)
            first = first or out
            if seed == DEFAULT_SEED and not smoke:
                found += same_outputs(names, out, REFERENCE / workload.name)
            elif first != out:
                found += same_outputs(names, out, first)
            if workload.name != "risk-model":
                found += check_counters(key, outage_counts(out))
        else:
            found.append("CLI exited non-zero")
        if found:
            failed += 1
            problems += [f"op{attempted - 1}: {p}" for p in found]
        iteration.append(perf_counter() - started)
        elapsed = perf_counter() - begin
        if elapsed > MAX_SECONDS or (attempted >= (1 if smoke else MIN_OPS) and
                                     elapsed + statistics.median(iteration) > seconds):
            break
    wall_med, setup_med = statistics.median(wall), statistics.median(setup)
    metrics = {"wall_s": wall_med, "setup_s": setup_med,
               "reps_per_s": workload.units / max(wall_med - setup_med, 1e-9),
               "peak_rss_mb": statistics.median(rss)}
    record = {"samples": {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss},
              "attempted": attempted, "failed": failed, "problems": problems,
              "ngridsim_file": info["file"] if info else None}
    return metrics, record


def counter_key(workload: Workload, seed: int) -> str:
    """Counters are compared only between runs of the same workload sizes
    and program source."""
    source = hashlib.sha256()
    for path in sorted((SRC / "ngridsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    size = json.dumps(workload.size, sort_keys=True)
    return f"{workload.name} {size} seed={seed} src={source.hexdigest()[:16]}"


def span_stats(traces: list[dict]) -> dict:
    """Per span name: total and self time, call count, per-call durations.
    Self time is a span's duration minus its child spans'."""
    stats: dict[str, dict] = {}
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            s = stats.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0, "durations": []})
            s["total"] += end - start
            s["self"] += end - start - child_time[i]
            s["calls"] += 1
            s["durations"].append(end - start)
    return stats


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def speedup(workload: Workload, run_dir: Path) -> float | None:
    """Serial over ``workers=2`` time of ``run_simulation``; None if it failed."""
    rc, _ = spawn([PY, str(BENCH / "child.py"), "speedup", str(workload.scenario)],
                  run_dir, "speedup")
    if rc != 0:
        return None
    times = json.loads((run_dir / "speedup.stdout").read_text().splitlines()[-1])
    return times["serial_s"] / times["workers2_s"]


def traced_run(workload: Workload, run_dir: Path, seed: int, smoke: bool) -> tuple[dict, dict]:
    """Serial runs untraced and traced in ABBA order, so that drift hits both
    alike; per-layer metrics from the first traced one. Every output must
    equal the traced run's, including the CLI's own ``--workers 2`` run for
    ``sweep-sor``, and the two traced runs must count the same work."""
    problems: list[str] = []
    _, info = probe(workload, run_dir, "probe")
    walls: dict[bool, float] = {False: 0.0, True: 0.0}
    outputs, counted, traces = [], [], []
    failed = 0
    for k, traced in enumerate((False, True, True, False)):
        out = run_dir / f"{'traced' if traced else 'plain'}{k}"
        commands = workload.commands(out, serial=True)
        ok, wall, _ = run_cli(commands, out, traced)
        if traced:
            run_traces = [json.loads((out / f"trace{i}.json").read_text())
                          for i in range(len(commands))] if ok else []
            traces = traces or run_traces
            counted.append([t["counts"] for t in run_traces])
        walls[traced] += wall
        failed += int(not ok)
        outputs.append(out)
    if workload.commands(run_dir, serial=True) != workload.commands(run_dir):
        ok, _, _ = run_cli(workload.commands(run_dir / "cli"), run_dir / "cli")
        failed += int(not ok)
        outputs.append(run_dir / "cli")
    attempted = len(outputs)
    traced_out = outputs[1]
    if not failed:
        names = output_files(workload, traced_out)
        problems += check_outputs(workload, traced_out)
        for out in outputs:
            output_files(workload, out)
            problems += same_outputs(names, out, traced_out)
        if seed == DEFAULT_SEED and not smoke:
            problems += same_outputs(names, traced_out, REFERENCE / workload.name)
        if counted[0] != counted[1]:
            problems.append(f"the two traced runs counted different work: {counted}")
    else:
        problems.append("a CLI or traced process exited non-zero")

    counts = {k: sum(t["counts"][k] for t in traces) for k in traces[0]["counts"]} if traces else {}
    stats = span_stats(traces)
    zero = {"total": 0.0, "self": 0.0, "calls": 0, "durations": []}

    def span(name: str) -> dict:
        return stats.get(name, zero)

    parallel_speedup = 0.0
    if workload.name == "sweep-sor":
        parallel_speedup = speedup(workload, run_dir)
        attempted += 1
        if parallel_speedup is None:
            failed += 1
            parallel_speedup = 0.0
    mc = workload.name != "risk-model"
    outages = outage_counts(traced_out) if mc and not failed else {}
    if outages:
        gate = {k: counts[k] for k in ("connected_steps", "islanded_steps")} | outages
        problems += check_counters(counter_key(workload, seed), gate)
    steps = counts.get("connected_steps", 0) + counts.get("islanded_steps", 0)
    dispatch_time = (span("harness.run_replication")["total"]
                     + span("harness.compute_shadow")["total"])
    replications = span("harness.run_replication")["durations"]
    metrics = {
        "cli.import_s": statistics.median(t["import_s"] for t in traces) if traces else 0.0,
        "config.load_scenario_s": span("config.load_scenario")["total"],
        "config.input_bytes": workload.input_bytes,
        "fleet.validate_fleet_s": span("fleet.validate_fleet")["total"],
        "harness.compute_shadow_s": span("harness.compute_shadow")["total"],
        "harness.compute_shadow_calls": span("harness.compute_shadow")["calls"],
        "harness.run_simulation_calls": span("harness.run_simulation")["calls"],
        "harness.sample_outages_s": span("harness.sample_outages")["total"],
        "harness.outage_events": outages.get("outage_events", 0),
        "harness.disturbed_feeder_reps": outages.get("disturbed_feeder_reps", 0),
        "harness.disturbed_share": (outages["disturbed_feeder_reps"]
                                    / (workload.feeders * workload.reps) if outages else 0.0),
        "harness.run_replication_s": span("harness.run_replication")["total"],
        "harness.run_replication_s.p50": percentile(replications, 0.5),
        "harness.run_replication_s.p90": percentile(replications, 0.9),
        "harness.run_simulation_self_s": span("harness.run_simulation")["self"],
        "harness.emit_report_s": span("harness.emit_report")["total"],
        "harness.parallel_speedup": parallel_speedup,
        "dispatch.connected_steps": counts.get("connected_steps", 0),
        "dispatch.islanded_steps": counts.get("islanded_steps", 0),
        "dispatch.prefix_steps": counts.get("prefix_steps", 0),
        "dispatch.useful_step_share": 1.0 - counts.get("prefix_steps", 0) / steps if steps else 0.0,
        "dispatch.step_us": 1e6 * dispatch_time / steps if steps else 0.0,
        "sor.load_feature_rows_s": span("sor.load_feature_rows")["total"],
        "sor.train_s": span("sor.train")["total"],
        "sor.stumps": counts.get("stumps", 0),
        "sor.train_row_stumps": counts.get("train_row_stumps", 0),
        "sor.build_sor_table_s": span("sor.build_sor_table")["total"],
        "sor.evaluate_s": span("sor.evaluate")["total"],
        "metrics.metric_report_s": span("metrics.metric_report")["total"],
        "metrics.samples": counts.get("samples", 0),
        "trace.overhead": walls[True] / walls[False],
    }
    if problems:
        failed = max(failed, 1)
    record = {"samples": {"untraced_wall_s": walls[False], "traced_wall_s": walls[True]},
              "spans": {k: {"total_s": v["total"], "self_s": v["self"], "calls": v["calls"]}
                        for k, v in stats.items()},
              "attempted": attempted, "failed": failed, "problems": problems,
              "ngridsim_file": info["file"] if info else None}
    return metrics, record


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (SRC / "ngridsim" / "__init__.py").is_file():
        raise BenchError(f"no ngridsim package under {SRC}: run from a full checkout")
    spec = load_spec()
    if workload_name not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload_name!r}")
    run_dir = WORK / (workload_name + ("-smoke" if smoke else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    workload = Workload(workload_name, seed, smoke, run_dir / "inputs")
    if trace:
        metrics, record = traced_run(workload, run_dir, seed, smoke)
    else:
        metrics, record = timed_run(workload, seconds, run_dir, seed, smoke)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    record.update(workload=workload_name, seed=seed, trace=int(trace), smoke=smoke,
                  machine=machine_facts())
    print(json.dumps(record))
    correct = record["failed"] == 0 and not record["problems"]
    return {"correct": correct, "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}


def smoke() -> int:
    """Every workload at tiny sizes, timed and traced: each must be correct
    and emit every metric BENCHMARK.json names, and bench/layers.json must map
    exactly the per-layer metrics."""
    spec = load_spec()
    problems = []
    layers = json.loads((BENCH / "layers.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    if set(layers) != per_layer:
        problems.append(f"layers.json differs from per_layer: {set(layers) ^ per_layer}")
    for name, entry in layers.items():
        if not set(entry["moves"]) <= end_to_end or not set(entry["on"]) <= workloads:
            problems.append(f"layers.json {name}: unknown metric or workload")
    for workload in sorted(workloads):
        for trace in (False, True):
            result = run(workload, DEFAULT_SEED, 0, trace, smoke=True)
            names = per_layer if trace else end_to_end
            values = result["metrics"]
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: not correct")
            if set(values) != names or not all(math.isfinite(v["value"]) for v in values.values()):
                problems.append(f"{workload} trace={int(trace)}: metrics {sorted(values)}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload, check every metric is emitted")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))  # inputs are generated with the checkout's own code
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
        result = run(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
