"""Independent brute-force oracles used to cross-check the implementation.

These deliberately avoid the library's algorithms: ROC AUC by explicit pair
counting, average precision by explicit threshold sweeps, power balance
recomputed from the outcome fields alone, each outage stream from its own
``np.random.default_rng``, outage sampling as a scan over every
feeder-hour, a feeder's islanded hours as an exact distribution over every
mask, and a replication that re-dispatches every disturbed n-Grid
from hour 0 instead of resuming from the shadow, each distinct pattern's
change weighed by how often it was drawn.
"""

from __future__ import annotations

import collections
import math
import zlib

import numpy as np

from ngridsim.harness import (FleetSeries, OutageEvent, SimulationReport,
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


def feeder_rng(master_seed, replication_index, feeder_id):
    """The stream of one (seed, replication, feeder), as ``harness._uniforms``
    draws it for a whole pass: ``np.random.default_rng([master_seed,
    replication_index, crc32(feeder_id)])``."""
    tag = zlib.crc32(feeder_id.encode("utf-8"))
    return np.random.default_rng([master_seed, replication_index, tag])


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


def feeder_mask_probabilities(probabilities, duration):
    """Every islanded-hour mask of one feeder with hourly outage
    probabilities ``probabilities``, as a tuple of bools, mapped to its exact
    probability under the suppression rule: an outage lasts ``duration``
    hours and no outage starts while one is active. A dynamic program over
    hours whose state is (mask so far, outage hours left); masks of
    probability 0 are left out."""
    states = {((), 0): 1.0}
    for q in probabilities:
        after = {}
        for (mask, left), p in states.items():
            branches = ([(True, left - 1, p)] if left else
                        [(True, duration - 1, p * q), (False, 0, p * (1.0 - q))])
            for islanded, hours_left, weight in branches:
                if weight:
                    key = (mask + (islanded,), hours_left)
                    after[key] = after.get(key, 0.0) + weight
        states = after
    masks = {}
    for (mask, _), p in states.items():
        masks[mask] = masks.get(mask, 0.0) + p
    return masks


def mask_probabilities(probabilities, duration):
    """:func:`feeder_mask_probabilities` of each row of ``probabilities``
    ``(F, H)``, joined: feeders draw from independent streams, so a joint
    mask, the feeders' masks end to end, has the product probability."""
    joint = {(): 1.0}
    for row in probabilities.tolist():
        joint = {mask + own: p * q for mask, p in joint.items()
                 for own, q in feeder_mask_probabilities(row, duration).items()}
    return joint


def islanded_masks(events, horizon):
    """(feeder id, islanded hours) per disturbed feeder, in feeder id order."""
    masks = {}
    for ev in events:
        masks.setdefault(ev.feeder_id, np.zeros(horizon, dtype=bool))[
            ev.start_hour:ev.start_hour + ev.duration_hours] = True
    return sorted(masks.items())


def replication_patterns(scenario, replication_index):
    """One replication's events, and its disturbed feeders' (feeder index,
    islanded hours as a tuple) patterns in feeder order."""
    events = sample_outages(
        scenario.sor, scenario.repair_hours, scenario.horizon,
        lambda fid: feeder_rng(scenario.master_seed, replication_index, fid))
    return events, sorted((scenario.sor.feeder_ids.index(f), tuple(mask.tolist()))
                          for f, mask in islanded_masks(events, scenario.horizon))


def feeder_change(scenario, shadow, pattern):
    """The change ``(5, H)`` that a (feeder index, mask) pattern makes to
    the series rows load, ENS, spill, ``ru_avail`` and ``rd_avail``: every
    n-Grid on the feeder dispatched from its initial state through every
    hour, islanded where the mask is set, its load, ENS and spill summed
    from 0.0 in fleet order, the load less the shadow's feeder load, and at
    islanded hours minus the feeder's ramp totals. At an hour where the
    re-dispatch repeats the shadow the change is 0.0."""
    feeder_id, mask = scenario.sor.feeder_ids[pattern[0]], pattern[1]
    policy = PrechargePolicy(mode=scenario.precharge, sor=scenario.sor)
    change = np.zeros((5, scenario.horizon))
    for ngrid in (ng for ng in scenario.fleet.ngrids if ng.feeder_id == feeder_id):
        state = initial_state(ngrid)
        for h in range(scenario.horizon):
            if mask[h]:
                outcome, state = islanded_step(ngrid, state, h)
            else:
                outcome, state = connected_step(ngrid, state, h, policy)
            change[0, h] += outcome.served_load_kw + outcome.ens_kw
            change[1, h] += outcome.ens_kw
            change[2, h] += outcome.spilled_kw
    load, _, ru_kw, rd_kw = shadow.totals[pattern[0]]
    change[0] -= load
    change[3:] = np.where(mask, -np.array([ru_kw, rd_kw]), 0.0)
    return change


def weighed_mean(shadow, counts, changes, replications):
    """The mean series: the shadow's baseline plus, over the patterns of
    ``counts`` in sorted order, each count x change summed from 0.0, over
    ``replications``."""
    total = np.zeros((5, shadow.baseline.shape[1]))
    for pattern in sorted(counts):
        total = total + counts[pattern] * changes[pattern]
    series = shadow.baseline.copy()
    series[[0, 2, 3, 5, 7]] += total / replications
    return FleetSeries(*series)


def replication_from_hour0(scenario, replication_index, shadow):
    """One replication with every n-Grid on a disturbed feeder dispatched
    from its initial state through every hour; returns (series, events) like
    ``harness.run_replication``: the shadow's baseline plus each disturbed
    feeder's :func:`feeder_change`, summed from 0.0 in feeder order. At an
    hour where no re-dispatch leaves the shadow the series keeps the
    baseline's bits."""
    events, patterns = replication_patterns(scenario, replication_index)
    changes = {pattern: feeder_change(scenario, shadow, pattern) for pattern in patterns}
    return weighed_mean(shadow, dict.fromkeys(patterns, 1), changes, 1), events


def simulation_from_hour0(scenario, shadow):
    """``harness.run_simulation``'s report from the patterns of every
    replication in index order: the mean series weighs each pattern's
    :func:`feeder_change` by how many replications drew it, and a
    replication's ENS and spill is each of its patterns' day totals,
    ``change[1:3].sum(-1)``, added in feeder order from 0.0."""
    logs = [replication_patterns(scenario, i) for i in range(scenario.replications)]
    counts = collections.Counter(pattern for _, patterns in logs for pattern in patterns)
    changes = {pattern: feeder_change(scenario, shadow, pattern) for pattern in counts}
    mean = weighed_mean(shadow, counts, changes, scenario.replications)
    outages = [(i, ev.feeder_id, ev.start_hour, ev.duration_hours)
               for i, (events, _) in enumerate(logs) for ev in events]
    columns = tuple(np.array(column) for column in zip(*outages)) or (np.array([]),) * 4
    energy = np.array([sum((changes[pattern][1:3].sum(-1) for pattern in patterns), np.zeros(2))
                       for _, patterns in logs]) / 1000.0
    return SimulationReport(mean, float(mean.ens_kw.sum()) / 1000.0,
                            float(mean.spilled_kw.sum()) / 1000.0,
                            float(mean.ru_total_kw.max()), columns,
                            energy[:, 0].copy(), energy[:, 1].copy())
