"""Bundled synthetic case-study scenario.

Shape mirrors the reference fleet layout: 10 feeders, 50 residential
n-Grids each, 750 EVs plugged roughly 19:00-07:00, half of the n-Grids with
a stationary battery. Profiles and the hourly risk table are synthetic
(deterministic given the seed): a residential load shape, a midday PV bell,
and a daytime-storm risk bump. Absolute energy totals therefore differ from
any particular utility dataset; the scenario is meant for order-of-magnitude
and shape checks, not value reproduction.
"""

from __future__ import annotations

import math

import numpy as np

from .config import write_bundle  # noqa: F401  (bench/run.py calls it here)
from .fleet import DeferrableTask, ElectricVehicle, Fleet, HvacAsset, NGrid, StorageUnit
from .harness import Scenario
from .sor import SorTable

N_FEEDERS = 10
NGRIDS_PER_FEEDER = 50
N_EVS = 750

_BASE_SHAPE = [0.50, 0.45, 0.40, 0.40, 0.40, 0.50, 0.70, 0.90, 0.80, 0.70,
               0.60, 0.60, 0.60, 0.60, 0.60, 0.70, 0.90, 1.20, 1.50, 1.60,
               1.50, 1.20, 0.90, 0.60]
_PV_SHAPE = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.8, 1.6, 2.4,
             3.1, 3.6, 3.9, 4.0, 3.7, 3.2, 2.4, 1.4, 0.5, 0.0,
             0.0, 0.0, 0.0, 0.0]


def storm_sor(rng: np.random.Generator, horizon: int = 24) -> list[float]:
    """Daytime-storm risk shape: small background, gaussian bump mid-afternoon."""
    peak = 0.03 + 0.09 * rng.random()
    center = 13.0 + 2.0 * rng.random()
    values = []
    for h in range(horizon):
        bump = peak * math.exp(-((h - center) ** 2) / (2.0 * 3.0 ** 2))
        values.append(round(0.002 + bump, 6))
    return values


def build_case_study(replications: int = 100, master_seed: int = 20230223,
                     repair_hours: float = 1.0) -> Scenario:
    """Assemble the case-study fleet and scenario in memory."""
    rng = np.random.default_rng(master_seed)
    horizon = 24

    feeders = []
    ngrids = []
    ev_budget = N_EVS
    total_sites = N_FEEDERS * NGRIDS_PER_FEEDER
    for f in range(N_FEEDERS):
        feeder_id = f"F{f + 1:02d}"
        feeders.append(feeder_id)
        for k in range(NGRIDS_PER_FEEDER):
            site = f * NGRIDS_PER_FEEDER + k
            nid = f"N{site + 1:03d}"
            load_scale = 0.8 + 0.4 * rng.random()
            pv_scale = 0.8 + 0.4 * rng.random()
            base = tuple(v * load_scale for v in _BASE_SHAPE)
            pv = tuple(v * pv_scale for v in _PV_SHAPE)

            bess = None
            if site % 2 == 0:  # half the sites have a stationary battery
                bess = StorageUnit(capacity_kwh=10.0, p_max_kw=5.0, soc_kwh=10.0)

            n_ev = 2 if site < (N_EVS - total_sites) else 1
            ev_budget -= n_ev
            evs = []
            for e in range(n_ev):
                arrive = 19 + int(rng.integers(-1, 2))   # 18..20
                depart = 7 + int(rng.integers(-1, 2))    # 6..8, exclusive
                plug = set(range(0, depart)) | set(range(arrive, horizon))
                evs.append(ElectricVehicle(
                    battery=StorageUnit(capacity_kwh=60.0, p_max_kw=7.0,
                                        soc_kwh=24.0 + 12.0 * rng.random()),
                    plug_hours=frozenset(plug)))

            hvac = HvacAsset(p_normal_kw=(1.0,) * horizon, p_min_kw=(0.3,) * horizon)
            tasks = ()
            if site % 5 in (0, 1):  # 40% of sites run one deferrable task
                tasks = (DeferrableTask(energy_kwh=2.0, power_kw=1.0,
                                        earliest_hour=9, deadline_hour=16),)
            ngrids.append(NGrid(id=nid, feeder_id=feeder_id, base_load=base, pv=pv,
                                bess=bess, evs=tuple(evs), hvac=hvac, deferrables=tasks))
    assert ev_budget == 0, "EV allocation must total exactly 750"

    entries = {}
    for f in range(N_FEEDERS):
        for h, p in enumerate(storm_sor(rng, horizon)):
            entries[(f"F{f + 1:02d}", h)] = p
    sor = SorTable(entries)

    return Scenario(fleet=Fleet(feeders=tuple(feeders), ngrids=tuple(ngrids)),
                    sor=sor, repair_hours=repair_hours, replications=replications,
                    master_seed=master_seed)
