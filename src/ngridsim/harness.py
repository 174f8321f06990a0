"""Scenario assembly, Monte Carlo outage sampling, replication execution,
fleet aggregation, repair-time sweeps, and report emission.

Randomness is fully determined by (master_seed, replication_index,
feeder_id): each feeder gets its own counter-based stream, so adding feeders
or changing the repair time never perturbs another feeder's draws. One
uniform is pre-drawn per feeder-hour and the Bernoulli comparison is applied
only while no outage is active, which keeps outage *starts* identical across
repair-time sweep points.

The no-outage shadow (the whole fleet grid-tied all day, stepped as one
block by :func:`ngridsim.dispatch.step`) is computed once per scenario and
shared by all replications and repair-time sweep points. Each feeder with
an outage in a replication is a group of rows, one per n-Grid on it; groups
queue into chunks of ``ROW_BUDGET`` rows, and a chunk is stepped hour by
hour with at most two kernel calls an hour, one on its islanded rows and
one on its connected rows. A group starts from the shadow's states at its
first outage hour and, after its last islanded hour, drops out once every
row's state equals the shadow's after a connected hour: the kernel computes
each row on its own, so from then on connected dispatch repeats the shadow,
whose values fill the hours a row is not stepped. Each hour's totals are
summed in the order of a from-hour-0 re-dispatch of one n-Grid after
another, so results are bit-identical to it, whatever the chunks.
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
    """Bernoulli draw per feeder-hour, suppressed while an outage is active;
    ``rng_for_feeder`` maps a feeder id to its Generator. One uniform is
    drawn for every hour up front, so the set of potential start hours
    does not depend on the repair duration."""
    duration = max(1, math.ceil(repair_hours))
    events: list[OutageEvent] = []
    for feeder_id, p in sor.by_feeder.items():
        u = rng_for_feeder(feeder_id).random(horizon)
        active_until = 0
        for h in np.flatnonzero(u < p[:horizon]).tolist():
            if h >= active_until:
                events.append(OutageEvent(feeder_id=feeder_id, start_hour=h,
                                          duration_hours=min(duration, horizon - h)))
                active_until = h + duration
    return events


def islanded_masks(events: list[OutageEvent], horizon: int) -> list[tuple[str, np.ndarray]]:
    """(feeder id, islanded hours) per disturbed feeder, in feeder id order."""
    masks: dict[str, np.ndarray] = {}
    for ev in events:
        masks.setdefault(ev.feeder_id, np.zeros(horizon, dtype=bool))[
            ev.start_hour:ev.start_hour + ev.duration_hours] = True
    return sorted(masks.items())


@dataclass
class _Shadow:
    """The no-outage run, n-Grids in fleet order: arrays, recharge target
    fractions ``(H, N)``, states before each hour (``states[H]`` after the
    last) and served load, PV, ENS (0) and spill (0) ``rows`` ``(4, H, N)``.
    Per feeder: its n-Grids' ``feeder_rows`` and its load, PV, ramp-up and
    ramp-down ``totals`` ``(4, H)`` in listing order; ``baseline`` is the
    fleet series, ``(8, H)`` in ``SERIES_FIELDS`` order."""

    arrays: FleetArrays
    frac: np.ndarray
    states: FleetState
    rows: np.ndarray
    feeder_rows: dict[str, np.ndarray]
    totals: dict[str, np.ndarray]
    baseline: np.ndarray


# A chunk takes (replication, disturbed feeder) groups until it holds this
# many rows, so a kernel call holds fewer than it plus the largest feeder's.
ROW_BUDGET = 2048


def _fold(total: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``total`` plus each of ``rows`` along their last axis in turn, so
    every element is summed in row order (``np.cumsum`` adds left to right)."""
    return np.cumsum(np.concatenate([total[..., None], rows], axis=-1), axis=-1)[..., -1]


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
    # (4, H, N): each n-Grid's served load, PV, ramp-up and ramp-down.
    rows = np.stack([np.stack([f.served for f in flows]), arrays.pv, ru, rd])

    row_of = {ng.id: r for r, ng in enumerate(fleet.ngrids)}
    totals = {f.id: _fold(np.zeros((4, H)), rows[..., [row_of[nid] for nid in f.ngrid_ids]])
              for f in fleet.feeders}
    feeder_rows = {f.id: np.array(sorted(map(row_of.get, f.ngrid_ids)), dtype=np.intp)
                   for f in fleet.feeders}
    rows[2:] = 0.0  # no ENS or spill while grid-tied
    load, pv, ru_kw, rd_kw = _fold(np.zeros((4, H)), np.array(
        list(totals.values())).reshape(-1, 4, H).transpose(1, 2, 0))
    baseline = np.array([load, pv, *np.zeros((2, H)), ru_kw, ru_kw, rd_kw, rd_kw])
    return _Shadow(arrays, frac, states, rows, feeder_rows, totals, baseline)


def _step_chunk(shadow: _Shadow, chunk: list[tuple[np.ndarray, str, np.ndarray]]) -> None:
    """Step the rows of every (replication's series, disturbed feeder,
    islanded hours) group of ``chunk`` together, as the module docstring
    describes, then fold each into its series (as _Shadow.baseline)."""
    H = len(shadow.frac)
    sizes = [len(shadow.feeder_rows[f]) for _, f, _ in chunk]
    idx = np.concatenate([shadow.feeder_rows[f] for _, f, _ in chunk])
    group = np.repeat(np.arange(len(chunk)), sizes)
    masks = np.array([mask for _, _, mask in chunk])
    first, last = masks.argmax(axis=1), H - 1 - masks[:, ::-1].argmax(axis=1)
    islanded, start = masks[group], first[group]
    state = FleetState(*(a[start, idx] for a in shadow.states))
    out = shadow.rows.take(idx, 2)
    done = np.zeros(len(chunk), dtype=bool)
    for h in range(int(first.min()), H):
        live = np.flatnonzero((start <= h) & ~done[group])
        for mode in (True, False):
            sel = live[islanded[live, h] == mode]
            if sel.size:
                flows, new = step(shadow.arrays, FleetState(*(a.take(sel, 0) for a in state)),
                                  h, mode, shadow.frac[h].take(idx[sel]), idx[sel])
                for a, b in zip(state, new):
                    a[sel] = b
                out[0, h, sel] = flows.served + flows.ens
                out[2, h, sel] = flows.ens
                out[3, h, sel] = flows.spilled
        check = live[last[group[live]] < h]
        same = (state.bess[check] == shadow.states.bess[h + 1].take(idx[check])) & (
            (state.ev[check] == shadow.states.ev[h + 1].take(idx[check], 0)).all(axis=1)) & (
            (state.tasks[check] == shadow.states.tasks[h + 1].take(idx[check], 0)).all(axis=1))
        done[group[check]] = True
        done[group[check[~same]]] = False
        if done.all():
            break
    for (series, feeder_id, mask), rows in zip(chunk, np.split(out, np.cumsum(sizes)[:-1], 2)):
        totals = shadow.totals[feeder_id]
        # Islanded n-Grids deliver no ramp-up or ramp-down capacity (rows 5
        # and 7); healthy-feeder contributions are identical in total and
        # available series.
        series[5::2] -= np.where(mask, totals[2:], 0.0)
        series[:2] -= totals[:2]
        # Rows are in fleet order, so each hour's sum keeps the order of a
        # from-hour-0 re-dispatch of one n-Grid after another.
        series[:4] = _fold(series[:4], rows)


def _replications(scenario: Scenario, shadow: _Shadow, indices):
    """(series, events) for each replication index in order, the series as
    ``_Shadow.baseline``, once all its disturbed feeders are folded in."""
    H = scenario.horizon
    pending, chunk, queued = [], [], 0
    for i in indices:
        events = sample_outages(
            scenario.sor, scenario.repair_hours, H,
            lambda fid: feeder_rng(scenario.master_seed, i, fid))
        series = shadow.baseline.copy()
        pending.append((series, events))
        for feeder_id, mask in islanded_masks(events, H):
            chunk.append((series, feeder_id, mask))
            queued += len(shadow.feeder_rows[feeder_id])
            if queued >= ROW_BUDGET:
                _step_chunk(shadow, chunk)
                chunk, queued = [], 0
        # Replications before the first one with a group still queued are whole.
        while pending and not (chunk and pending[0][0] is chunk[0][0]):
            yield pending.pop(0)
    if chunk:
        _step_chunk(shadow, chunk)
    yield from pending


def run_replication(scenario: Scenario, replication_index: int,
                    shadow: _Shadow | None = None) -> tuple[FleetSeries, list[OutageEvent]]:
    """Sample outages, dispatch the disturbed feeders, and return fleet
    totals plus the outage log for one replication: the path of
    :func:`run_simulation` on a chunk of this replication alone."""
    if shadow is None:
        shadow = compute_shadow(scenario)
    series, events = next(_replications(scenario, shadow, [replication_index]))
    return FleetSeries(*series), events


def run_simulation(scenario: Scenario, workers: int | None = None,
                   shadow: _Shadow | None = None) -> SimulationReport:
    """Run all replications in index order, folding each into the running
    fleet totals as it finishes, and average the fleet series element-wise.

    ``workers`` is accepted for compatibility and ignored: replications run
    serially, in chunks. A given ``shadow`` must come from a scenario that
    differs from this one at most in repair time, replication count and
    seed; with one, only the repair time and the replication count are
    validated.
    """
    problems = validate_scenario(scenario) if shadow is None else _run_problems(scenario)
    if problems:
        raise ValidationError("; ".join(problems))
    if shadow is None:
        shadow = compute_shadow(scenario)
    total = np.zeros((len(SERIES_FIELDS), scenario.horizon))
    outage_logs, per_rep_ens, per_rep_spilled = [], [], []
    for series, events in _replications(scenario, shadow, range(scenario.replications)):
        total += series
        outage_logs.append(events)
        per_rep_ens.append(float(series[2].sum()) / 1000.0)
        per_rep_spilled.append(float(series[3].sum()) / 1000.0)
    mean = FleetSeries(*(total * (1.0 / scenario.replications)))
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
