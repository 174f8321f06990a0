"""Independent brute-force oracles used to cross-check the implementation.

These deliberately avoid the library's algorithms: ROC AUC by explicit pair
counting, average precision by explicit threshold sweeps, power balance
recomputed from the outcome fields alone, and a replication that
re-dispatches every disturbed n-Grid from hour 0 instead of resuming from
the shadow.
"""

from __future__ import annotations

import numpy as np

from ngridsim.harness import (FleetSeries, feeder_rng, islanded_mask,
                              sample_outages)
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


def replication_from_hour0(scenario, replication_index, shadow):
    """One replication with every n-Grid on a disturbed feeder dispatched
    from its initial state through every hour; returns (series, events)
    like ``harness.run_replication``."""
    H = scenario.horizon
    events = sample_outages(
        scenario.sor, scenario.repair_hours, H,
        lambda fid: feeder_rng(scenario.master_seed, replication_index, fid))

    series = FleetSeries.zeros(H)
    series.add_(shadow.baseline)

    policy = PrechargePolicy(mode=scenario.precharge, sor=scenario.sor)
    disturbed = sorted({ev.feeder_id for ev in events})
    for feeder_id in disturbed:
        fs = shadow.per_feeder[feeder_id]
        mask = islanded_mask(events, feeder_id, H)
        series.ru_avail_kw -= np.where(mask, fs.ru_kw, 0.0)
        series.rd_avail_kw -= np.where(mask, fs.rd_kw, 0.0)
        series.load_kw -= fs.load_kw
        series.pv_kw -= fs.pv_kw
        for ngrid in (ng for ng in scenario.fleet.ngrids if ng.feeder_id == feeder_id):
            state = initial_state(ngrid)
            for h in range(H):
                if mask[h]:
                    outcome, state = islanded_step(ngrid, state, h)
                else:
                    outcome, state = connected_step(ngrid, state, h, policy)
                series.load_kw[h] += outcome.served_load_kw + outcome.ens_kw
                series.pv_kw[h] += outcome.pv_kw
                series.ens_kw[h] += outcome.ens_kw
                series.spilled_kw[h] += outcome.spilled_kw
    return series, events
