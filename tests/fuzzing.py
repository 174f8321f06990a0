"""Randomized n-Grid/state generation and invariant checks for dispatch.

Shared by the unit tests and the acceptance suite. The checks are written
against the outcome and the pre-step state snapshot only, independent of the
dispatch implementation's internals.
"""

from __future__ import annotations

import random

from ngridsim.fleet import DeferrableTask, ElectricVehicle, Fleet, HvacAsset, NGrid, StorageUnit
from oracles import power_balance_residual
from scalar_dispatch import NGridState, arrives, plugged

H = 24
TOL = 1e-9


def random_islanded_case(rng: random.Random):
    """One random n-Grid, state, and hour for an islanded step."""
    hour = rng.randrange(H)
    base = [rng.uniform(0.0, 6.0) for _ in range(H)]
    pv = [rng.uniform(0.0, 8.0) for _ in range(H)]

    bess = None
    if rng.random() < 0.7:
        cap = rng.uniform(2.0, 15.0)
        eta = 1.0 if rng.random() < 0.5 else rng.uniform(0.85, 1.0)
        bess = StorageUnit(cap, rng.uniform(1.0, 6.0), rng.uniform(0.0, cap),
                           eta_charge=eta, eta_discharge=eta)
    evs = []
    for _ in range(rng.randrange(0, 3)):
        cap = rng.uniform(5.0, 60.0)
        plugged = rng.random() < 0.6
        plug = set(range(H)) if plugged else set(range(H)) - {hour}
        p_max = rng.uniform(1.0, 8.0)
        rng.uniform(0.0, cap)  # unused: it fixes the stream position of every later draw
        evs.append(ElectricVehicle(battery=StorageUnit(cap, p_max, rng.uniform(0.0, cap)),
                                   plug_hours=frozenset(plug)))
    hvac = None
    if rng.random() < 0.6:
        norm = rng.uniform(0.5, 3.0)
        hvac = HvacAsset((norm,) * H, (rng.uniform(0.0, norm),) * H)
    tasks = []
    for _ in range(rng.randrange(0, 3)):
        earliest = rng.randrange(0, H)
        # Bias windows toward containing the hour, including deadline == hour.
        if rng.random() < 0.5:
            earliest = min(earliest, hour)
            deadline = hour if rng.random() < 0.5 else rng.randrange(hour, H)
        else:
            deadline = rng.randrange(earliest, H)
        tasks.append(DeferrableTask(rng.uniform(0.5, 4.0), rng.uniform(0.3, 2.0),
                                    earliest, deadline))

    ngrid = NGrid(id="FZ", feeder_id="F1", base_load=base, pv=pv, bess=bess,
                  evs=tuple(evs), hvac=hvac, deferrables=tuple(tasks))
    state = NGridState(
        bess_soc_kwh=rng.uniform(0.0, bess.capacity_kwh) if bess else 0.0,
        ev_soc_kwh=[rng.uniform(0.0, ev.battery.capacity_kwh) for ev in evs],
        deferred_energy_kwh=[rng.uniform(0.0, t.energy_kwh) for t in tasks])
    return ngrid, state, hour


def random_fleet(rng: random.Random, n_feeders: int, ngrids_per_feeder: int,
                 max_evs: int = 2, horizon: int = H) -> Fleet:
    """A small fleet of n-Grids with ``horizon``-hour profiles: BESS and EVs
    with efficiencies below 1 and power limits low enough that some never
    refill, up to ``max_evs`` EVs per n-Grid that arrive mid-day, per-hour
    HVAC, and deferrable tasks. ``Fleet.ngrids`` is shuffled, so the
    feeders' n-Grids interleave in fleet order."""
    feeders, ngrids = [], []
    for f in range(n_feeders):
        feeders.append(f"F{f}")
        for n in range(ngrids_per_feeder):
            peak = rng.uniform(0.0, 9.0)
            pv = [max(0.0, peak * (1.0 - abs(h - 12.5) / 6.0)) for h in range(horizon)]
            bess = None
            if rng.random() < 0.7:
                cap = rng.uniform(2.0, 15.0)
                bess = StorageUnit(cap, rng.uniform(0.3, 6.0), rng.uniform(0.0, cap),
                                   eta_charge=rng.uniform(0.85, 1.0),
                                   eta_discharge=rng.uniform(0.85, 1.0))
            evs = []
            for _ in range(rng.randrange(0, max_evs + 1)):
                cap = rng.uniform(5.0, 60.0)
                leave, back = rng.randrange(0, 12), rng.randrange(12, horizon)
                p_max, eta_c, eta_d = (rng.uniform(1.0, 8.0), rng.uniform(0.85, 1.0),
                                       rng.uniform(0.85, 1.0))
                evs.append(ElectricVehicle(
                    battery=StorageUnit(cap, p_max, rng.uniform(0.0, cap),
                                        eta_charge=eta_c, eta_discharge=eta_d),
                    plug_hours=frozenset(range(leave)) | frozenset(range(back, horizon))))
            hvac = None
            if rng.random() < 0.6:
                norm = [rng.uniform(0.5, 3.0) for _ in range(horizon)]
                hvac = HvacAsset(norm, [rng.uniform(0.0, x) for x in norm])
            tasks = []
            for _ in range(rng.randrange(0, 3)):
                earliest = rng.randrange(0, horizon)
                tasks.append(DeferrableTask(rng.uniform(0.5, 4.0), rng.uniform(0.3, 2.0),
                                            earliest, rng.randrange(earliest, horizon)))
            ngrids.append(NGrid(
                id=f"N{f}-{n}", feeder_id=f"F{f}",
                base_load=[rng.uniform(0.0, 5.0) for _ in range(horizon)],
                pv=pv, bess=bess, evs=tuple(evs), hvac=hvac,
                deferrables=tuple(tasks)))
    rng.shuffle(ngrids)
    return Fleet(feeders=tuple(feeders), ngrids=tuple(ngrids))


def snapshot_pre_dispatch(ngrid: NGrid, state: NGridState, hour: int):
    """SoC as the dispatcher sees it after EV arrival resets."""
    ev_soc = list(state.ev_soc_kwh)
    for i, ev in enumerate(ngrid.evs):
        if arrives(ev, hour):
            ev_soc[i] = ev.battery.soc_kwh
    return state.bess_soc_kwh, ev_soc


def check_islanded_invariants(ngrid, pre_bess_soc, pre_ev_soc, outcome, state):
    """Raise AssertionError on any violated islanded-hour invariant."""
    hour = outcome.hour
    assert abs(power_balance_residual(outcome)) <= TOL, "power balance violated"
    assert outcome.ens_kw >= -TOL and outcome.spilled_kw >= -TOL
    assert min(outcome.ens_kw, outcome.spilled_kw) <= TOL, "ENS and spill both positive"

    if ngrid.bess is not None:
        assert -TOL <= state.bess_soc_kwh <= ngrid.bess.capacity_kwh + TOL
    for i, ev in enumerate(ngrid.evs):
        assert -TOL <= state.ev_soc_kwh[i] <= ev.battery.capacity_kwh + TOL
        if not plugged(ev, hour):
            assert outcome.ev_kw_each[i] == 0.0, "unplugged EV exchanged power"
    assert abs(outcome.bess_kw) <= (ngrid.bess.p_max_kw if ngrid.bess else 0.0) + TOL

    # Priority order, transcribed from the published line order.
    ev_discharge = sum(max(p, 0.0) for p in outcome.ev_kw_each)
    if ev_discharge > TOL and ngrid.bess is not None:
        bess_limit = min(ngrid.bess.p_max_kw, pre_bess_soc * ngrid.bess.eta_discharge)
        assert outcome.bess_kw >= bess_limit - TOL, "EV discharged before BESS saturated"

    def ev_charge_limit(i):
        b = ngrid.evs[i].battery
        return min(b.p_max_kw, (b.capacity_kwh - pre_ev_soc[i]) / b.eta_charge)

    if -outcome.bess_kw > TOL:  # BESS charging
        for i, ev in enumerate(ngrid.evs):
            if plugged(ev, hour):
                assert -outcome.ev_kw_each[i] >= ev_charge_limit(i) - TOL, \
                    "BESS charged before EV saturated"

    p_min = ngrid.hvac.p_min_kw[hour] if ngrid.hvac else 0.0
    p_norm = ngrid.hvac.p_normal_kw[hour] if ngrid.hvac else 0.0
    if outcome.hvac_kw > p_min + TOL:
        if ngrid.bess is not None:
            b = ngrid.bess
            limit = min(b.p_max_kw, (b.capacity_kwh - pre_bess_soc) / b.eta_charge)
            assert -outcome.bess_kw >= limit - TOL, "HVAC restored before BESS saturated"
        for i, ev in enumerate(ngrid.evs):
            if plugged(ev, hour):
                assert -outcome.ev_kw_each[i] >= ev_charge_limit(i) - TOL, \
                    "HVAC restored before EV saturated"
    if outcome.deferrable_kw > TOL:
        assert outcome.hvac_kw >= p_norm - TOL, "deferrable served before HVAC restored"
