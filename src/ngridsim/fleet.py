"""Domain model for prosumer nano-grid fleets.

A nano-grid (n-Grid) is a single prosumer site: base electric load, rooftop
PV, optionally a stationary battery, one or more EVs with plug schedules, an
adjustable HVAC load, and deferrable tasks. N-Grids hang off distribution
feeders; a feeder fault islands every n-Grid on it. Membership is stored
once, as each n-Grid's ``feeder_id``: a fleet's feeders are ids, and a
feeder's n-Grids are the fleet's n-Grids that name it, in fleet order.

The records are plain data: an hourly profile is a tuple of floats, indexed
by hour 0..H-1, and no record checks itself. :func:`validate_fleet` holds
every rule a well-formed fleet obeys. All values here are immutable after
construction, so one fleet serves every replication and sweep point. The
evolving dispatch state (battery SoC, remaining task energy) lives in
:class:`ngridsim.dispatch.FleetState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class StorageUnit:
    """A battery: energy capacity, symmetric power limit, starting SoC.

    ``soc_kwh`` is where the SoC starts: at hour 0 for a BESS, and at the
    first hour of each plug interval for an EV's battery. The evolving SoC
    is tracked in dispatch state, never mutated on this object.
    """

    capacity_kwh: float
    p_max_kw: float
    soc_kwh: float
    eta_charge: float = 1.0
    eta_discharge: float = 1.0


@dataclass(frozen=True)
class ElectricVehicle:
    """EV battery usable only while plugged in.

    SoC resets to ``battery.soc_kwh`` at the first hour of each contiguous
    plug interval (driving consumption between intervals is not tracked).
    """

    battery: StorageUnit
    plug_hours: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "plug_hours", frozenset(self.plug_hours))


@dataclass(frozen=True)
class HvacAsset:
    """Adjustable HVAC load: occupant-set demand and a comfort-floor demand."""

    p_normal_kw: tuple[float, ...]
    p_min_kw: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "p_normal_kw", tuple(self.p_normal_kw))
        object.__setattr__(self, "p_min_kw", tuple(self.p_min_kw))


@dataclass(frozen=True)
class DeferrableTask:
    """A shiftable load: fixed energy need, fixed power, a service window."""

    energy_kwh: float
    power_kw: float
    earliest_hour: int
    deadline_hour: int


@dataclass(frozen=True)
class NGrid:
    """One prosumer site and everything behind its meter."""

    id: str
    feeder_id: str
    base_load: tuple[float, ...]
    pv: tuple[float, ...]
    bess: StorageUnit | None = None
    evs: tuple[ElectricVehicle, ...] = ()
    hvac: HvacAsset | None = None
    deferrables: tuple[DeferrableTask, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "base_load", tuple(self.base_load))
        object.__setattr__(self, "pv", tuple(self.pv))
        object.__setattr__(self, "evs", tuple(self.evs))
        object.__setattr__(self, "deferrables", tuple(self.deferrables))


@dataclass(frozen=True)
class Fleet:
    """Feeder ids and n-Grids. A feeder's n-Grids are those whose
    ``feeder_id`` names it, in fleet order."""

    feeders: tuple[str, ...]
    ngrids: tuple[NGrid, ...]

    def __post_init__(self):
        object.__setattr__(self, "feeders", tuple(self.feeders))
        object.__setattr__(self, "ngrids", tuple(self.ngrids))


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


def validate_fleet(fleet: Fleet, horizon: int) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    Violations are data, not failures: an empty list means the fleet is
    well-formed and every downstream structural precondition holds.
    """
    report: list[str] = []
    feeder_ids: set[str] = set()
    for feeder_id in fleet.feeders:
        if feeder_id in feeder_ids:
            report.append(f"duplicate feeder id {feeder_id!r}")
        feeder_ids.add(feeder_id)

    seen: set[str] = set()
    for ng in fleet.ngrids:
        where = f"n-Grid {ng.id!r}"
        if ng.id in seen:
            report.append(f"duplicate n-Grid id {ng.id!r}")
        seen.add(ng.id)
        if ng.feeder_id not in feeder_ids:
            report.append(f"{where} references unknown feeder {ng.feeder_id!r}")

        profiles = [("base_load", ng.base_load), ("pv", ng.pv)]
        if ng.hvac is not None:
            profiles += [("hvac p_normal", ng.hvac.p_normal_kw),
                         ("hvac p_min", ng.hvac.p_min_kw)]
        for name, profile in profiles:
            if len(profile) != horizon:
                report.append(f"{where} {name} length {len(profile)} != horizon {horizon}")
            if not all(math.isfinite(v) and v >= 0.0 for v in profile):
                report.append(f"{where} {name} has negative or non-finite values")
        if ng.hvac is not None:
            for h, (p_normal, p_min) in enumerate(zip(ng.hvac.p_normal_kw, ng.hvac.p_min_kw)):
                if p_min > p_normal:
                    report.append(f"{where} HVAC: p_min {p_min} > p_normal {p_normal} "
                                  f"at hour {h}")

        # Each unit's SoC is named by its fleet-file key.
        units = [("BESS", "soc0_kwh", ng.bess)] if ng.bess is not None else []
        units += [(f"EV {i}", "soc_arrival_kwh", ev.battery) for i, ev in enumerate(ng.evs)]
        for name, soc_key, unit in units:
            for field in ("capacity_kwh", "p_max_kw"):
                if not _positive(getattr(unit, field)):
                    report.append(f"{where} {name}: {field} must be finite and > 0")
            if not (0.0 <= unit.soc_kwh <= unit.capacity_kwh):
                report.append(f"{where} {name}: {soc_key} outside [0, capacity_kwh]")
            for field in ("eta_charge", "eta_discharge"):
                if not (0.0 < getattr(unit, field) <= 1.0):
                    report.append(f"{where} {name}: {field} outside (0, 1]")
        for i, ev in enumerate(ng.evs):
            if any(h < 0 or h >= horizon for h in ev.plug_hours):
                report.append(f"{where} EV {i}: plug hour outside horizon")

        for i, task in enumerate(ng.deferrables):
            for field in ("energy_kwh", "power_kw"):
                if not _positive(getattr(task, field)):
                    report.append(f"{where} task {i}: {field} must be finite and > 0")
            if not (0 <= task.earliest_hour <= task.deadline_hour < horizon):
                report.append(f"{where} task {i}: window [{task.earliest_hour}, "
                              f"{task.deadline_hour}] invalid for horizon {horizon}")
    return report
