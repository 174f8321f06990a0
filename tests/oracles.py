"""Independent brute-force oracles used to cross-check the implementation.

These deliberately avoid the library's algorithms: ROC AUC by explicit pair
counting, average precision by explicit threshold sweeps, power balance
recomputed from the outcome fields alone, outage sampling as a scan over
every feeder-hour, and a replication that re-dispatches every disturbed
n-Grid from hour 0 instead of resuming from the shadow.
"""

from __future__ import annotations

import math

import numpy as np

from ngridsim.harness import (SERIES_FIELDS, FleetSeries, OutageEvent,
                              SimulationReport, feeder_rng, sample_outages)
from scalar_dispatch import (PrechargePolicy, connected_step, initial_state,
                             islanded_step)


def roc_auc_pairs(labels, scores):
    """O(n^2) concordant-pair count with half credit for ties."""
    pos = [s for lbl, s in zip(labels, scores) if lbl == 1]
    neg = [s for lbl, s in zip(labels, scores) if lbl == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def prc_auc_steps(labels, scores):
    """Average precision by explicit descending-threshold sweep."""
    n_pos = sum(labels)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for lbl, s in zip(labels, scores) if s >= t and lbl == 1)
        predicted = sum(1 for s in scores if s >= t)
        precision = tp / predicted
        recall = tp / n_pos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


def power_balance_residual(outcome):
    supply = (outcome.pv_kw + max(outcome.bess_kw, 0.0) + max(outcome.ev_kw, 0.0)
              + max(outcome.grid_kw, 0.0))
    use = (outcome.served_load_kw + max(-outcome.bess_kw, 0.0) + max(-outcome.ev_kw, 0.0)
           + max(-outcome.grid_kw, 0.0) + outcome.spilled_kw)
    return supply - use


def sample_outages_scan(sor, repair_hours, horizon, rng_for_feeder):
    """``harness.sample_outages`` as a scan over every feeder-hour, with one
    table lookup per hour and the suppression test before the draw."""
    duration = max(1, math.ceil(repair_hours))
    events = []
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


def replication_from_hour0(scenario, replication_index, shadow):
    """One replication with every n-Grid on a disturbed feeder dispatched
    from its initial state through every hour; returns (series, events) like
    ``harness.run_replication``. The series is the shadow's baseline plus,
    per disturbed feeder in id order, its n-Grids' load, ENS and spill summed
    from 0.0 in listing order less the shadow's feeder totals, and less its
    ramp totals at islanded hours. At an hour where the re-dispatch repeats
    the shadow that change is 0.0, which keeps the baseline's bits."""
    H = scenario.horizon
    events = sample_outages(
        scenario.sor, scenario.repair_hours, H,
        lambda fid: feeder_rng(scenario.master_seed, replication_index, fid))

    series = FleetSeries(*shadow.baseline.copy())

    policy = PrechargePolicy(mode=scenario.precharge, sor=scenario.sor)
    disturbed = sorted({ev.feeder_id for ev in events})
    listed = {f.id: f.ngrid_ids for f in scenario.fleet.feeders}
    for feeder_id in disturbed:
        load, _, ru_kw, rd_kw = shadow.totals[feeder_id]
        mask = np.zeros(H, dtype=bool)
        for ev in events:
            if ev.feeder_id == feeder_id:
                mask[ev.start_hour:ev.start_hour + ev.duration_hours] = True
        series.ru_avail_kw -= np.where(mask, ru_kw, 0.0)
        series.rd_avail_kw -= np.where(mask, rd_kw, 0.0)
        feeder_load, ens, spilled = np.zeros((3, H))
        for ngrid in map(scenario.fleet.ngrid, listed[feeder_id]):
            state = initial_state(ngrid)
            for h in range(H):
                if mask[h]:
                    outcome, state = islanded_step(ngrid, state, h)
                else:
                    outcome, state = connected_step(ngrid, state, h, policy)
                feeder_load[h] += outcome.served_load_kw + outcome.ens_kw
                ens[h] += outcome.ens_kw
                spilled[h] += outcome.spilled_kw
        series.load_kw += feeder_load - load
        series.ens_kw += ens
        series.spilled_kw += spilled
    return series, events


def simulation_from_hour0(scenario, shadow):
    """``harness.run_simulation``'s report from :func:`replication_from_hour0`
    run for each replication in index order."""
    total = np.zeros((len(SERIES_FIELDS), scenario.horizon))
    outage_logs, per_rep_ens, per_rep_spilled = [], [], []
    for i in range(scenario.replications):
        series, events = replication_from_hour0(scenario, i, shadow)
        total += [getattr(series, name) for name in SERIES_FIELDS]
        outage_logs.append(events)
        per_rep_ens.append(float(series.ens_kw.sum()) / 1000.0)
        per_rep_spilled.append(float(series.spilled_kw.sum()) / 1000.0)
    mean = FleetSeries(*(total * (1.0 / scenario.replications)))
    return SimulationReport(mean, float(mean.ens_kw.sum()) / 1000.0,
                            float(mean.spilled_kw.sum()) / 1000.0,
                            float(mean.ru_total_kw.max()), outage_logs,
                            per_rep_ens, per_rep_spilled)
