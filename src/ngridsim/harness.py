"""Scenario assembly, Monte Carlo outage sampling, replication execution,
fleet aggregation, repair-time sweeps, and report emission.

Randomness is fully determined by (master_seed, replication_index,
feeder_id): each feeder gets its own counter-based stream, so adding feeders
or changing the repair time never perturbs another feeder's draws. One
uniform is pre-drawn per feeder-hour and the Bernoulli comparison is applied
only while no outage is active, which keeps outage *starts* identical across
repair-time sweep points.

The no-outage shadow (every n-Grid grid-tied all day) is outage-independent,
so it is computed once per scenario and shared across replications and
across the points of a repair-time sweep. It steps the whole fleet as one
block with :func:`ngridsim.dispatch.step`, the struct-of-arrays dispatch
kernel, and keeps each feeder's n-Grids as a block of their own: their
arrays, their states before every hour, and their hourly served load and
PV. A replication re-dispatches only feeders that see an outage, and only
from the feeder's first outage hour, stepping the feeder's block from the
shadow states there. After the feeder's last islanded hour it stops as soon
as, after a connected hour, every n-Grid's state on the feeder equals the
shadow's state after that hour, exactly: from then on connected dispatch
repeats the shadow, whose stored values fill the remaining hours. An n-Grid
that rejoined the shadow earlier is stepped on with its feeder and repeats
the shadow's values bit for bit, because the same kernel computed them.
Each hour's fleet totals are summed in the same order as a from-hour-0
re-dispatch of one n-Grid after another, so results are bit-identical to it.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .dispatch import FleetArrays, FleetState, ramp, step
from .fleet import Fleet, validate_fleet
from .sor import SorTable
from .tables import ValidationError, write_table


SOR_LOOKAHEAD_HOURS = 4
SERIES_FIELDS = ("load_kw", "pv_kw", "ens_kw", "spilled_kw",
                 "ru_total_kw", "ru_avail_kw", "rd_total_kw", "rd_avail_kw")


@dataclass
class Scenario:
    fleet: Fleet
    sor: SorTable
    horizon: int = 24
    repair_hours: float = 1.0
    replications: int = 1
    master_seed: int = 0
    sr_delivery_hours: float = 1.0
    derate: dict[tuple[str, int], float] | None = None
    precharge: str = "full"

    def derate_at(self, feeder_id: str, hour: int) -> float:
        if self.derate is None:
            return 1.0
        return self.derate.get((feeder_id, hour), 1.0)

    def target_fraction(self, feeder_id: str, hour: int) -> float:
        """Connected-mode recharge target as a fraction of capacity: 1 under
        ``full`` precharge, and under ``sor`` the worst outage risk over the
        next ``SOR_LOOKAHEAD_HOURS`` hours."""
        if self.precharge == "full":
            return 1.0
        if self.precharge != "sor":
            raise ValueError(f"unknown precharge mode {self.precharge!r}")
        hours = range(hour + 1, min(hour + 1 + SOR_LOOKAHEAD_HOURS, self.horizon))
        return max([0.0] + [self.sor.get(feeder_id, h) for h in hours])


# Placeholders: bench/child.py's tracer looks these two names up here and
# wraps them by identity; they go when the benchmark drops that lookup. The
# per-n-Grid steppers are the kernel's test oracle, in tests/scalar_dispatch.py.
def connected_step(*args, **kwargs):
    raise NotImplementedError("the per-n-Grid steppers are in tests/scalar_dispatch.py")


def islanded_step(*args, **kwargs):
    raise NotImplementedError("the per-n-Grid steppers are in tests/scalar_dispatch.py")


def _run_problems(scenario: Scenario) -> list[str]:
    """Checks on the settings a shared shadow does not depend on."""
    problems = []
    if not (math.isfinite(scenario.repair_hours) and scenario.repair_hours > 0):
        problems.append(f"repair_hours must be finite and > 0, got {scenario.repair_hours}")
    if scenario.replications < 1:
        problems.append(f"replications must be >= 1, got {scenario.replications}")
    return problems


def validate_scenario(scenario: Scenario) -> list[str]:
    report = validate_fleet(scenario.fleet, scenario.horizon) + _run_problems(scenario)
    if not (math.isfinite(scenario.sr_delivery_hours) and scenario.sr_delivery_hours > 0):
        report.append(f"sr_delivery_hours must be finite and > 0, "
                      f"got {scenario.sr_delivery_hours}")
    try:
        scenario.sor.check_complete([f.id for f in scenario.fleet.feeders], scenario.horizon)
    except ValueError as exc:
        report.append(str(exc))
    if scenario.derate:
        for (f, h), factor in scenario.derate.items():
            if not (0.0 < factor <= 1.0):
                report.append(f"derate factor {factor} out of (0, 1] for feeder {f!r} hour {h}")
    if scenario.precharge not in ("full", "sor"):
        report.append(f"unknown precharge policy {scenario.precharge!r}")
    return report


@dataclass(frozen=True)
class OutageEvent:
    feeder_id: str
    start_hour: int
    duration_hours: int


@dataclass
class FleetSeries:
    """Hourly fleet totals; all arrays have length H."""

    load_kw: np.ndarray
    pv_kw: np.ndarray
    ens_kw: np.ndarray
    spilled_kw: np.ndarray
    ru_total_kw: np.ndarray
    ru_avail_kw: np.ndarray
    rd_total_kw: np.ndarray
    rd_avail_kw: np.ndarray

    @classmethod
    def zeros(cls, horizon: int) -> "FleetSeries":
        return cls(*(np.zeros(horizon) for _ in SERIES_FIELDS))

    def add_(self, other: "FleetSeries") -> None:
        for name in SERIES_FIELDS:
            getattr(self, name).__iadd__(getattr(other, name))

    def scaled(self, factor: float) -> "FleetSeries":
        return FleetSeries(*(getattr(self, name) * factor for name in SERIES_FIELDS))


@dataclass
class SimulationReport:
    mean_series: FleetSeries
    total_ens_mwh: float
    total_spilled_mwh: float
    max_ru_total_kw: float
    outage_logs: list[list[OutageEvent]]
    per_rep_ens_mwh: list[float]
    per_rep_spilled_mwh: list[float]


def feeder_rng(master_seed: int, replication_index: int, feeder_id: str) -> np.random.Generator:
    """Independent, reproducible stream per (seed, replication, feeder)."""
    tag = zlib.crc32(feeder_id.encode("utf-8"))
    return np.random.default_rng([master_seed, replication_index, tag])


def sample_outages(sor: SorTable, repair_hours: float, horizon: int,
                   rng_for_feeder) -> list[OutageEvent]:
    """Bernoulli scan per feeder-hour; new draws are suppressed while an
    outage is active. ``rng_for_feeder`` maps a feeder id to its Generator.

    One uniform is drawn for every hour up front, so the set of potential
    start hours does not depend on the repair duration.
    """
    duration = max(1, math.ceil(repair_hours))
    events: list[OutageEvent] = []
    for feeder_id in sor.feeder_ids:
        u = rng_for_feeder(feeder_id).random(horizon)
        active_until = 0
        for h in range(horizon):
            if h < active_until:
                continue
            if u[h] < sor.get(feeder_id, h):
                events.append(OutageEvent(feeder_id=feeder_id, start_hour=h,
                                          duration_hours=min(duration, horizon - h)))
                active_until = h + duration
    return events


def islanded_mask(events: list[OutageEvent], feeder_id: str, horizon: int) -> np.ndarray:
    mask = np.zeros(horizon, dtype=bool)
    for ev in events:
        if ev.feeder_id == feeder_id:
            mask[ev.start_hour:ev.start_hour + ev.duration_hours] = True
    return mask


@dataclass
class _FeederShadow:
    """One feeder's no-outage run. ``load_kw`` to ``rd_kw`` are its hourly
    totals, summed in the feeder's listing order. The rest holds its n-Grids
    in fleet order, as a replication steps them: their arrays, their
    recharge target fractions ``(H, n)``, their states before every hour
    (``states[h]``, with ``states[H]`` after the last hour) and their hourly
    load, PV, ENS and spill ``(n, 4, H)``."""

    load_kw: np.ndarray
    pv_kw: np.ndarray
    ru_kw: np.ndarray
    rd_kw: np.ndarray
    block: FleetArrays
    frac: np.ndarray
    states: FleetState
    rows: np.ndarray


@dataclass
class _Shadow:
    """The no-outage trajectory per feeder, and the fleet series it sums to."""

    per_feeder: dict[str, _FeederShadow]
    baseline: FleetSeries


# The series a replication re-dispatches, in the order of _FeederShadow.rows.
_ROW_FIELDS = ("load_kw", "pv_kw", "ens_kw", "spilled_kw")


def _fold(total: np.ndarray, rows) -> np.ndarray:
    """``total`` plus each of ``rows`` in turn, so every element is summed
    in row order."""
    for row in rows:
        total = total + row
    return total


def compute_shadow(scenario: Scenario) -> _Shadow:
    H = scenario.horizon
    fleet = scenario.fleet

    def per_row(value_at) -> np.ndarray:
        """(H, N) from a value per (feeder, hour), computed once per feeder."""
        by_feeder = {f: [value_at(f, h) for h in range(H)]
                     for f in {ng.feeder_id for ng in fleet.ngrids}}
        return np.array([by_feeder[ng.feeder_id] for ng in fleet.ngrids],
                        dtype=float).reshape(-1, H).T.copy()

    arrays = FleetArrays.build(fleet.ngrids, H)
    frac = per_row(scenario.target_fraction)
    history, flows = [arrays.initial_state()], []
    for h in range(H):
        out, state = step(arrays, history[-1], h, False, frac[h])
        history.append(state)
        flows.append(out)
    states = FleetState(*map(np.stack, zip(*history)))
    ru, rd = ramp(arrays, FleetState(*(a[1:] for a in states)),
                  np.stack([f.bess_kw for f in flows]), np.stack([f.ev_kw for f in flows]),
                  per_row(scenario.derate_at), scenario.sr_delivery_hours)
    # (N, 4, H): each n-Grid's served load, PV, ramp-up and ramp-down.
    rows = np.stack([np.stack([f.served for f in flows]).T, arrays.pv.T, ru.T, rd.T], axis=1)

    row_of = {ng.id: r for r, ng in enumerate(fleet.ngrids)}
    per_feeder: dict[str, _FeederShadow] = {}
    baseline = FleetSeries.zeros(H)
    for feeder in fleet.feeders:
        load, pv, ru_kw, rd_kw = _fold(np.zeros((4, H)),
                                       (rows[row_of[nid]] for nid in feeder.ngrid_ids))
        on = [r for r, ng in enumerate(fleet.ngrids) if ng.feeder_id == feeder.id]
        feeder_rows = rows[on]
        feeder_rows[:, 2:] = 0.0  # no ENS or spill while grid-tied
        per_feeder[feeder.id] = _FeederShadow(
            load, pv, ru_kw, rd_kw, arrays.take(on), frac[:, on],
            FleetState(*(a[:, on] for a in states)), feeder_rows)
        baseline.load_kw += load
        baseline.pv_kw += pv
        baseline.ru_total_kw += ru_kw
        baseline.rd_total_kw += rd_kw
    baseline.ru_avail_kw += baseline.ru_total_kw
    baseline.rd_avail_kw += baseline.rd_total_kw
    return _Shadow(per_feeder, baseline)


def run_replication(scenario: Scenario, replication_index: int,
                    shadow: _Shadow | None = None) -> tuple[FleetSeries, list[OutageEvent]]:
    """Sample outages, dispatch the disturbed feeders, and return fleet
    totals plus the outage log for one replication.

    N-Grids on feeders with no outage this replication follow the shadow
    exactly. A disturbed feeder's n-Grids are stepped together from their
    shadow states at the feeder's first outage hour, and stop once all of
    them have rejoined the shadow after the last one; every hour they skip
    takes its shadow values.
    """
    if shadow is None:
        shadow = compute_shadow(scenario)
    H = scenario.horizon
    events = sample_outages(
        scenario.sor, scenario.repair_hours, H,
        lambda fid: feeder_rng(scenario.master_seed, replication_index, fid))

    series = FleetSeries.zeros(H)
    series.add_(shadow.baseline)

    disturbed = sorted({ev.feeder_id for ev in events})
    for feeder_id in disturbed:
        fs = shadow.per_feeder[feeder_id]
        mask = islanded_mask(events, feeder_id, H)
        islanded_hours = np.flatnonzero(mask)
        first, last = int(islanded_hours[0]), int(islanded_hours[-1])
        # Islanded n-Grids deliver no ramp capacity; healthy-feeder
        # contributions are identical in total and available series.
        series.ru_avail_kw -= np.where(mask, fs.ru_kw, 0.0)
        series.rd_avail_kw -= np.where(mask, fs.rd_kw, 0.0)
        series.load_kw -= fs.load_kw
        series.pv_kw -= fs.pv_kw
        rows = fs.rows.copy()
        state = FleetState(*(a[first] for a in fs.states))
        for h in range(first, H):
            flows, state = step(fs.block, state, h, mask[h], fs.frac[h])
            rows[:, 0, h] = flows.served + flows.ens
            rows[:, 2, h] = flows.ens
            rows[:, 3, h] = flows.spilled
            # Connected dispatch depends only on the state, so once every
            # row's state is the shadow's, every later hour is the shadow's.
            # A row that rejoined earlier repeats the shadow's bits, since
            # the same kernel computed the shadow.
            if h > last and all(map(np.array_equal, state, (a[h + 1] for a in fs.states))):
                break
        # Rows are in fleet order, so each hour's sum keeps the order of a
        # from-hour-0 re-dispatch of one n-Grid after another.
        totals = _fold(np.stack([getattr(series, name) for name in _ROW_FIELDS]), rows)
        for name, total in zip(_ROW_FIELDS, totals):
            setattr(series, name, total)
    return series, events


def run_simulation(scenario: Scenario, workers: int | None = None,
                   shadow: _Shadow | None = None) -> SimulationReport:
    """Run all replications in index order, folding each into the running
    fleet totals as it finishes, and average the fleet series element-wise.

    ``workers`` is accepted for compatibility and ignored: the replications
    are short pure-Python work that threads do not speed up. A given
    ``shadow`` must come from a scenario that differs from this one at most
    in repair time, replication count and seed; with one, only the repair
    time and the replication count are validated.
    """
    problems = validate_scenario(scenario) if shadow is None else _run_problems(scenario)
    if problems:
        raise ValidationError("; ".join(problems))
    if shadow is None:
        shadow = compute_shadow(scenario)
    total = FleetSeries.zeros(scenario.horizon)
    outage_logs, per_rep_ens, per_rep_spilled = [], [], []
    for i in range(scenario.replications):
        series, events = run_replication(scenario, i, shadow)
        total.add_(series)
        outage_logs.append(events)
        per_rep_ens.append(float(series.ens_kw.sum()) / 1000.0)
        per_rep_spilled.append(float(series.spilled_kw.sum()) / 1000.0)
    mean = total.scaled(1.0 / scenario.replications)
    return SimulationReport(
        mean_series=mean,
        total_ens_mwh=float(mean.ens_kw.sum()) / 1000.0,
        total_spilled_mwh=float(mean.spilled_kw.sum()) / 1000.0,
        max_ru_total_kw=float(mean.ru_total_kw.max()),
        outage_logs=outage_logs,
        per_rep_ens_mwh=per_rep_ens,
        per_rep_spilled_mwh=per_rep_spilled,
    )


def sweep_repair_time(scenario: Scenario,
                      repair_values: list[float]) -> list[tuple[float, float, float]]:
    """Re-run the simulation per repair time with identical seeds, so only
    the outage durations change. Rows: (repair_hours, ens MWh, spilled MWh)."""
    return [(value, report.total_ens_mwh, report.total_spilled_mwh)
            for value, report in sweep_reports(scenario, repair_values)]


def sweep_reports(scenario: Scenario,
                  repair_values: list[float]) -> list[tuple[float, SimulationReport]]:
    """One (repair_hours, report) pair per repair time, as
    :func:`sweep_repair_time` describes. The shadow does not depend on the
    repair time, so every run shares one."""
    if not repair_values:
        raise ValidationError("repair_values must be non-empty")
    if any(b <= a for a, b in zip(repair_values, repair_values[1:])):
        raise ValidationError("repair_values must be strictly increasing")
    variants = [replace(scenario, repair_hours=value) for value in repair_values]
    # The variants differ only in repair time: validate the first in full and
    # the others' repair times before the shared shadow is computed.
    problems = validate_scenario(variants[0])
    problems += [p for variant in variants[1:] for p in _run_problems(variant)]
    if problems:
        raise ValidationError("; ".join(problems))
    shadow = compute_shadow(scenario)
    return [(variant.repair_hours, run_simulation(variant, shadow=shadow))
            for variant in variants]


def emit_report(report: SimulationReport,
                sweep: list[tuple[float, float, float]] | None,
                out_dir) -> list[str]:
    """Write fleet_series.csv, summary.csv, outages.csv, and (when a sweep is
    given) sweep.csv. Output is byte-identical for identical inputs."""
    os.makedirs(out_dir, exist_ok=True)
    series = report.mean_series
    tables = [
        ("fleet_series.csv", ("hour",) + SERIES_FIELDS,
         ([h] + [getattr(series, name)[h] for name in SERIES_FIELDS]
          for h in range(len(series.load_kw)))),
        ("summary.csv", ("total_ens_mwh", "total_spilled_mwh", "max_ru_total_kw"),
         [(report.total_ens_mwh, report.total_spilled_mwh, report.max_ru_total_kw)]),
        ("outages.csv", ("replication", "feeder_id", "start_hour", "duration_hours"),
         ((rep, ev.feeder_id, ev.start_hour, ev.duration_hours)
          for rep, events in enumerate(report.outage_logs) for ev in events)),
    ]
    if sweep:
        tables.append(("sweep.csv", ("repair_hours", "total_ens_mwh", "total_spilled_mwh"),
                       sweep))
    written = []
    try:
        for name, header, rows in tables:
            written.append(os.path.join(out_dir, name))
            write_table(written[-1], header, rows)
    except OSError as exc:
        raise OSError(f"failed writing report to {out_dir}: {exc}") from exc
    return written
