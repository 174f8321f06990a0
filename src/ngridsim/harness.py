"""Scenario assembly, Monte Carlo outage sampling, replication execution,
fleet aggregation, repair-time sweeps, and report emission.

Randomness is fully determined by (master_seed, replication_index,
feeder_id): each feeder gets its own counter-based stream, so adding feeders
or changing the repair time never perturbs another feeder's draws. One
uniform is pre-drawn per feeder-hour and the Bernoulli comparison is applied
only while no outage is active, which keeps outage *starts* identical across
repair-time sweep points.

A simulation is a sweep of one repair time. A sweep validates once,
computes the no-outage shadow (the whole fleet grid-tied all day, stepped
as one block by :func:`ngridsim.dispatch.step`) once, and runs one Monte
Carlo pass for all its points. Each feeder with an outage at a repair time
in a replication is a group of rows, one per n-Grid on it; the groups of
every point and replication queue into the same chunks of ``ROW_BUDGET``
rows, and a chunk is stepped hour by hour with at most two kernel calls an
hour, one on its islanded rows and one on its connected rows. A group
starts from the shadow's states at its first outage hour and, after its
last islanded hour, drops out once every row's state equals the shadow's
after a connected hour, as connected dispatch then repeats the shadow.
A replication's series is the shadow's baseline plus, at each hour a group
is stepped, its feeder's load, ENS and spill summed over its n-Grids in
``fleet.yaml`` listing order from 0.0, less the shadow's feeder totals;
groups add in feeder id order, and islanded hours lose the feeder's ramp.
So results are bit-identical to a from-hour-0 re-dispatch summed by the
same rule, whatever the chunks.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .dispatch import FleetArrays, FleetState, ramp, step
from .fleet import Fleet, validate_fleet
from .sor import SorTable
from .tables import ValidationError, write_table


SOR_LOOKAHEAD_HOURS = 4


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


# Placeholders: bench/child.py's tracer looks these two names up here and
# wraps them by identity; they go when the benchmark drops that lookup. The
# per-n-Grid steppers are the kernel's test oracle, in tests/scalar_dispatch.py.
def connected_step(*args, **kwargs):
    raise NotImplementedError("the per-n-Grid steppers are in tests/scalar_dispatch.py")


def islanded_step(*args, **kwargs):
    raise NotImplementedError("the per-n-Grid steppers are in tests/scalar_dispatch.py")


def _repair_problems(repair_hours: float) -> list[str]:
    if math.isfinite(repair_hours) and repair_hours > 0:
        return []
    return [f"repair_hours must be finite and > 0, got {repair_hours}"]


def validate_scenario(scenario: Scenario) -> list[str]:
    report = validate_fleet(scenario.fleet, scenario.horizon)
    report += _repair_problems(scenario.repair_hours)
    if scenario.replications < 1:
        report.append(f"replications must be >= 1, got {scenario.replications}")
    if not (math.isfinite(scenario.sr_delivery_hours) and scenario.sr_delivery_hours > 0):
        report.append(f"sr_delivery_hours must be finite and > 0, "
                      f"got {scenario.sr_delivery_hours}")
    want = {(f.id, h) for f in scenario.fleet.feeders for h in range(scenario.horizon)}
    have = {(f, h) for f in scenario.sor.feeder_ids for h in range(scenario.sor.horizon)}
    if missing := want - have:
        f, h = min(missing)
        report.append(f"SoR table missing entry for feeder {f!r} hour {h}")
    elif extra := have - want:
        f, h = min(extra)
        report.append(f"SoR table has entry outside scenario: feeder {f!r} hour {h}")
    for (f, h), factor in (scenario.derate or {}).items():
        if (f, h) not in want:
            report.append(f"derate row outside scenario: feeder {f!r} hour {h}")
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


SERIES_FIELDS = tuple(f.name for f in fields(FleetSeries))


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
    for feeder_id, p in zip(sor.feeder_ids, sor.probabilities):
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
    fractions ``(H, N)`` and states before each hour (``states[H]`` after
    the last). Per feeder: its n-Grids' ``feeder_rows`` and its load, PV,
    ramp-up and ramp-down ``totals`` ``(4, H)`` summed in listing order;
    ``baseline`` is the fleet series, ``(8, H)`` in ``SERIES_FIELDS`` order."""

    arrays: FleetArrays
    frac: np.ndarray
    states: FleetState
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
    # Per (feeder, hour), feeders in SoR table order: the recharge target
    # fraction (1 under ``full`` precharge; under ``sor`` the worst risk over
    # the next SOR_LOOKAHEAD_HOURS hours, kept on ties as Python's ``max``
    # keeps its first operand) and the derate factor.
    risk = scenario.sor.probabilities
    if scenario.precharge == "full":
        target = np.ones(risk.shape)
    elif scenario.precharge == "sor":
        target = np.zeros(risk.shape)
        for k in range(1, min(SOR_LOOKAHEAD_HOURS, H) + 1):
            ahead, now = risk[:, k:H], target[:, :H - k]
            now[...] = np.where(ahead > now, ahead, now)
    else:
        raise ValueError(f"unknown precharge mode {scenario.precharge!r}")
    derate = np.ones(risk.shape)
    row_of_feeder = {f: i for i, f in enumerate(scenario.sor.feeder_ids)}
    for (f, h), factor in (scenario.derate or {}).items():
        derate[row_of_feeder[f], h] = factor
    feeder_of_row = np.array([row_of_feeder[ng.feeder_id] for ng in fleet.ngrids], dtype=np.intp)

    arrays = FleetArrays.build(fleet.ngrids, H)
    frac = target[feeder_of_row, :H].T.copy()
    history, flows = [arrays.initial_state()], []
    for h in range(H):
        out, state = step(arrays, history[-1], h, False, frac[h])
        history.append(state)
        flows.append(out)
    states = FleetState(*map(np.stack, zip(*history)))
    ru, rd = ramp(arrays, FleetState(*(a[1:] for a in states)),
                  np.stack([f.bess_kw for f in flows]), np.stack([f.ev_kw for f in flows]),
                  derate[feeder_of_row, :H].T.copy(), scenario.sr_delivery_hours)
    # (4, H, N): each n-Grid's served load, PV, ramp-up and ramp-down.
    rows = np.stack([np.stack([f.served for f in flows]), arrays.pv, ru, rd])

    row_of = {ng.id: r for r, ng in enumerate(fleet.ngrids)}
    feeder_rows = {f.id: np.array([row_of[nid] for nid in f.ngrid_ids], dtype=np.intp)
                   for f in fleet.feeders}
    totals = {f: _fold(np.zeros((4, H)), rows[..., r]) for f, r in feeder_rows.items()}
    load, pv, ru_kw, rd_kw = _fold(np.zeros((4, H)), np.array(
        list(totals.values())).reshape(-1, 4, H).transpose(1, 2, 0))
    baseline = np.array([load, pv, *np.zeros((2, H)), ru_kw, ru_kw, rd_kw, rd_kw])
    return _Shadow(arrays, frac, states, feeder_rows, totals, baseline)


def _step_chunk(shadow: _Shadow, series: np.ndarray, chunk: list) -> None:
    """Step the rows of every (series offset, disturbed feeder, islanded
    hours) group of ``chunk`` together, as the module docstring describes;
    an offset is the flat index of a series' first element in ``series``."""
    H = len(shadow.frac)
    sizes = [len(shadow.feeder_rows[f]) for _, f, _ in chunk]
    idx = np.concatenate([shadow.feeder_rows[f] for _, f, _ in chunk])
    group = np.repeat(np.arange(len(chunk)), sizes)
    masks = np.array([mask for _, _, mask in chunk])
    load = np.array([shadow.totals[f][0] for _, f, _ in chunk])
    # The flat index of each group's load, ENS and spill at hour 0.
    at = np.array([offset for offset, _, _ in chunk]) + np.array([[0], [2 * H], [3 * H]])
    first, last = masks.argmax(axis=1), H - 1 - masks[:, ::-1].argmax(axis=1)
    islanded, start = masks[group], first[group]
    state = FleetState(*(a[start, idx] for a in shadow.states))
    now = np.empty((3, len(idx)))  # this hour's load, ENS and spill per row
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
                now[:, sel] = flows.served + flows.ens, flows.ens, flows.spilled
        # Each stepped group's rows summed from 0.0 in index order, less the
        # shadow's feeder load (its ENS and spill are 0), added in group order.
        change = np.array([np.bincount(group[live], w, len(chunk)) for w in now[:, live]], float)
        change[0] -= load[:, h]
        stepped = np.flatnonzero((first <= h) & ~done)
        np.add.at(series.reshape(-1), at[:, stepped] + h, change[:, stepped])
        check = live[last[group[live]] < h]
        same = (state.bess[check] == shadow.states.bess[h + 1].take(idx[check])) & (
            (state.ev[check] == shadow.states.ev[h + 1].take(idx[check], 0)).all(axis=1)) & (
            (state.tasks[check] == shadow.states.tasks[h + 1].take(idx[check], 0)).all(axis=1))
        done[group[check]] = True
        done[group[check[~same]]] = False
        if done.all():
            break


def _monte_carlo(scenario: Scenario, shadow: _Shadow, repair_values: list[float],
                 indices) -> tuple[np.ndarray, list[list[list[OutageEvent]]]]:
    """Series ``(P, R, 8, H)``, each ``[p, r]`` as ``_Shadow.baseline``, and
    outage logs ``[p][r]`` for repair time ``repair_values[p]`` and
    replication ``indices[r]``. Replications go in order, each over every
    repair time, and all their groups queue into the same chunks."""
    H = scenario.horizon
    series = np.tile(shadow.baseline, (len(repair_values), len(indices), 1, 1))
    logs = [[] for _ in repair_values]
    chunk, queued = [], 0
    for r, i in enumerate(indices):
        for p, value in enumerate(repair_values):
            events = sample_outages(scenario.sor, value, H,
                                    lambda fid: feeder_rng(scenario.master_seed, i, fid))
            logs[p].append(events)
            for feeder_id, mask in islanded_masks(events, H):
                # Islanded n-Grids deliver no ramp-up or ramp-down capacity
                # (rows 5 and 7): the total series keep their contribution.
                series[p, r, 5::2] -= np.where(mask, shadow.totals[feeder_id][2:], 0.0)
                chunk.append((np.ravel_multi_index((p, r, 0, 0), series.shape), feeder_id, mask))
                queued += len(shadow.feeder_rows[feeder_id])
                if queued >= ROW_BUDGET:
                    _step_chunk(shadow, series, chunk)
                    chunk, queued = [], 0
    if chunk:
        _step_chunk(shadow, series, chunk)
    return series, logs


def check_repair_values(repair_values: list[float]) -> None:
    """Raise ValidationError unless the sweep's repair times are a
    non-empty, strictly increasing list."""
    if not repair_values:
        raise ValidationError("repair_values must be non-empty")
    if any(b <= a for a, b in zip(repair_values, repair_values[1:])):
        raise ValidationError("repair_values must be strictly increasing")


def _validate(scenario: Scenario, repair_values: list[float]) -> None:
    """Raise ValidationError unless ``repair_values`` pass
    :func:`check_repair_values` and the scenario is valid at each."""
    check_repair_values(repair_values)
    # Only the repair time differs between the points: validate the first in
    # full and the others' repair times.
    problems = validate_scenario(replace(scenario, repair_hours=repair_values[0]))
    problems += [p for value in repair_values[1:] for p in _repair_problems(value)]
    if problems:
        raise ValidationError("; ".join(problems))


def run_replication(scenario: Scenario,
                    replication_index: int) -> tuple[FleetSeries, list[OutageEvent]]:
    """Sample outages, dispatch the disturbed feeders, and return fleet
    totals plus the outage log for one replication: the Monte Carlo pass of
    :func:`sweep_reports` on this replication and repair time alone."""
    _validate(scenario, [scenario.repair_hours])
    series, logs = _monte_carlo(scenario, compute_shadow(scenario),
                                [scenario.repair_hours], [replication_index])
    return FleetSeries(*series[0, 0]), logs[0][0]


def run_simulation(scenario: Scenario, workers: int | None = None) -> SimulationReport:
    """The scenario's report: a sweep of its own repair time alone.
    ``workers`` is accepted for compatibility and ignored: replications run
    serially, in chunks."""
    return sweep_reports(scenario, [scenario.repair_hours])[0][1]


def sweep_reports(scenario: Scenario,
                  repair_values: list[float]) -> list[tuple[float, SimulationReport]]:
    """One (repair_hours, report) pair per repair time, with identical
    seeds, so only the outage durations change. Every point shares one
    shadow and one Monte Carlo pass; each point's replications are summed
    in index order and averaged element-wise."""
    _validate(scenario, repair_values)
    series, logs = _monte_carlo(scenario, compute_shadow(scenario), repair_values,
                                range(scenario.replications))
    reports = []
    for value, runs, outage_logs in zip(repair_values, series, logs):
        total = _fold(np.zeros(runs.shape[1:]), np.moveaxis(runs, 0, -1))
        mean = FleetSeries(*(total * (1.0 / len(runs))))
        reports.append((value, SimulationReport(
            mean_series=mean,
            total_ens_mwh=float(mean.ens_kw.sum()) / 1000.0,
            total_spilled_mwh=float(mean.spilled_kw.sum()) / 1000.0,
            max_ru_total_kw=float(mean.ru_total_kw.max()),
            outage_logs=outage_logs,
            per_rep_ens_mwh=[float(s[2].sum()) / 1000.0 for s in runs],
            per_rep_spilled_mwh=[float(s[3].sum()) / 1000.0 for s in runs],
        )))
    return reports


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
