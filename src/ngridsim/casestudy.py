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

import json
import math
import os

import numpy as np
import yaml

from .config import DERATE_COLUMNS, PROFILE_COLUMNS
from .fleet import DeferrableTask, ElectricVehicle, Fleet, HvacAsset, NGrid, StorageUnit
from .harness import Scenario
from .sor import SorTable, save_sor_table
from .tables import write_table

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
                    sor=sor, horizon=horizon, repair_hours=repair_hours,
                    replications=replications, master_seed=master_seed)


def write_bundle(scenario: Scenario, out_dir) -> str:
    """Write the scenario out as the file set the CLI consumes; returns the
    scenario file path."""
    os.makedirs(out_dir, exist_ok=True)

    write_table(os.path.join(out_dir, "profiles.csv"), PROFILE_COLUMNS,
                ([ng.id, h, ng.base_load[h], ng.pv[h]]
                 for ng in scenario.fleet.ngrids for h in range(scenario.horizon)))
    save_sor_table(scenario.sor, os.path.join(out_dir, "sor.csv"))

    def plug_ranges(hours: frozenset[int]) -> str:
        parts = []
        for h in sorted(hours):
            if parts and parts[-1][1] == h - 1:
                parts[-1][1] = h
            else:
                parts.append([h, h])
        return ",".join(f"{a}-{b}" if a != b else str(a) for a, b in parts)

    def efficiencies(unit: StorageUnit) -> dict:
        """The efficiencies that differ from the loader's default of 1."""
        return {name: getattr(unit, name) for name in ("eta_charge", "eta_discharge")
                if getattr(unit, name) != 1.0}

    def hourly(profile: tuple[float, ...]):
        """A constant profile as its one value, any other as its list."""
        return profile[0] if len(set(profile)) == 1 else list(profile)

    # Each feeder lists the n-Grids that name it, in fleet order.
    members = {feeder_id: [] for feeder_id in scenario.fleet.feeders}
    for ng in scenario.fleet.ngrids:
        members[ng.feeder_id].append(ng)
    fleet_doc = {"feeders": []}
    for feeder_id, ngrids in members.items():
        fdoc = {"id": feeder_id, "ngrids": []}
        for ng in ngrids:
            ndoc = {"id": ng.id}
            if ng.bess is not None:
                ndoc["bess"] = {"capacity_kwh": ng.bess.capacity_kwh,
                                "p_max_kw": ng.bess.p_max_kw,
                                "soc0_kwh": ng.bess.soc_kwh, **efficiencies(ng.bess)}
            if ng.evs:
                ndoc["evs"] = [{"capacity_kwh": ev.battery.capacity_kwh,
                                "p_max_kw": ev.battery.p_max_kw,
                                "soc_arrival_kwh": ev.battery.soc_kwh,
                                "plug_hours": plug_ranges(ev.plug_hours),
                                **efficiencies(ev.battery)}
                               for ev in ng.evs]
            if ng.hvac is not None:
                ndoc["hvac"] = {"p_normal": hourly(ng.hvac.p_normal_kw),
                                "p_min": hourly(ng.hvac.p_min_kw)}
            if ng.deferrables:
                ndoc["deferrables"] = [{"energy_kwh": t.energy_kwh, "power_kw": t.power_kw,
                                        "earliest": t.earliest_hour, "deadline": t.deadline_hour}
                                       for t in ng.deferrables]
            fdoc["ngrids"].append(ndoc)
        fleet_doc["feeders"].append(fdoc)
    with open(os.path.join(out_dir, "fleet.json"), "w") as fh:
        json.dump(fleet_doc, fh, indent=1)
        fh.write("\n")

    scenario_doc = {
        "horizon": scenario.horizon,
        "repair_hours": scenario.repair_hours,
        "replications": scenario.replications,
        "seed": scenario.master_seed,
        "sr_delivery_hours": scenario.sr_delivery_hours,
        "precharge": scenario.precharge,
        "fleet": "fleet.json",
        "profiles": "profiles.csv",
        "sor": "sor.csv",
    }
    if scenario.derate is not None:
        write_table(os.path.join(out_dir, "derate.csv"), DERATE_COLUMNS,
                    ([f, h, factor] for (f, h), factor in sorted(scenario.derate.items())))
        scenario_doc["derate"] = "derate.csv"
    path = os.path.join(out_dir, "scenario.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_doc, fh, sort_keys=False)
    return path
