"""Domain model for prosumer nano-grid fleets.

A nano-grid (n-Grid) is a single prosumer site: base electric load, rooftop
PV, optionally a stationary battery, one or more EVs with plug schedules, an
adjustable HVAC load, and deferrable tasks. N-Grids hang off distribution
feeders; a feeder fault islands every n-Grid on it. Membership is stored
once, as each n-Grid's ``feeder_id``: a fleet's feeders are ids, and a
feeder's n-Grids are the fleet's n-Grids that name it, in fleet order.

All values here are immutable after construction, so one fleet serves
every replication and sweep point. The evolving dispatch state (battery
SoC, remaining task energy) lives in :class:`ngridsim.dispatch.FleetState`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


DEFAULT_HORIZON = 24


def _finite_nonneg(values) -> bool:
    return all(math.isfinite(v) and v >= 0.0 for v in values)


@dataclass(frozen=True)
class HourlyProfile:
    """A non-negative kW time series indexed by hour 0..H-1."""

    values: tuple[float, ...]

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(float(v) for v in values))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, hour: int) -> float:
        return self.values[hour]

    @classmethod
    def constant(cls, value: float, horizon: int = DEFAULT_HORIZON) -> "HourlyProfile":
        return cls([value] * horizon)

    @classmethod
    def zeros(cls, horizon: int = DEFAULT_HORIZON) -> "HourlyProfile":
        return cls.constant(0.0, horizon)


@dataclass(frozen=True)
class StorageUnit:
    """A battery: energy capacity, symmetric power limit, initial SoC.

    ``soc_kwh`` here is the *initial* state of charge; the evolving SoC is
    tracked in dispatch state, never mutated on this object.
    """

    capacity_kwh: float
    p_max_kw: float
    soc_kwh: float
    eta_charge: float = 1.0
    eta_discharge: float = 1.0

    def check(self) -> list[str]:
        errs = []
        if not (self.capacity_kwh > 0):
            errs.append("capacity_kwh must be > 0")
        if not (self.p_max_kw > 0):
            errs.append("p_max_kw must be > 0")
        if not (0.0 <= self.soc_kwh <= self.capacity_kwh):
            errs.append("soc_kwh outside [0, capacity_kwh]")
        if not (0.0 < self.eta_charge <= 1.0):
            errs.append("eta_charge outside (0, 1]")
        if not (0.0 < self.eta_discharge <= 1.0):
            errs.append("eta_discharge outside (0, 1]")
        return errs


@dataclass(frozen=True)
class ElectricVehicle:
    """EV battery usable only while plugged in.

    SoC resets to ``soc_on_arrival_kwh`` at the first hour of each contiguous
    plug interval (driving consumption between intervals is not tracked).
    """

    battery: StorageUnit
    plug_hours: frozenset[int]
    soc_on_arrival_kwh: float

    def __post_init__(self):
        object.__setattr__(self, "plug_hours", frozenset(self.plug_hours))

    def check(self) -> list[str]:
        errs = self.battery.check()
        if not (0.0 <= self.soc_on_arrival_kwh <= self.battery.capacity_kwh):
            errs.append("soc_on_arrival_kwh outside [0, capacity]")
        return errs


@dataclass(frozen=True)
class HvacAsset:
    """Adjustable HVAC load: occupant-set demand and a comfort-floor demand."""

    p_normal_kw: HourlyProfile
    p_min_kw: HourlyProfile

    def check(self) -> list[str]:
        errs = []
        if len(self.p_normal_kw) != len(self.p_min_kw):
            errs.append("HVAC profile lengths differ")
            return errs
        for h in range(len(self.p_normal_kw)):
            if not (0.0 <= self.p_min_kw[h] <= self.p_normal_kw[h]):
                errs.append(f"HVAC bound violated at hour {h}: "
                            f"p_min {self.p_min_kw[h]} > p_normal {self.p_normal_kw[h]}")
        return errs


@dataclass(frozen=True)
class DeferrableTask:
    """A shiftable load: fixed energy need, fixed power, a service window."""

    energy_kwh: float
    power_kw: float
    earliest_hour: int
    deadline_hour: int

    def check(self, horizon: int) -> list[str]:
        errs = []
        if not (self.energy_kwh > 0):
            errs.append("deferrable energy_kwh must be > 0")
        if not (self.power_kw > 0):
            errs.append("deferrable power_kw must be > 0")
        if not (0 <= self.earliest_hour <= self.deadline_hour < horizon):
            errs.append(f"deferrable window [{self.earliest_hour}, {self.deadline_hour}] "
                        f"invalid for horizon {horizon}")
        return errs


@dataclass(frozen=True)
class NGrid:
    """One prosumer site and everything behind its meter."""

    id: str
    feeder_id: str
    base_load: HourlyProfile
    pv: HourlyProfile
    bess: StorageUnit | None = None
    evs: tuple[ElectricVehicle, ...] = ()
    hvac: HvacAsset | None = None
    deferrables: tuple[DeferrableTask, ...] = ()

    def __post_init__(self):
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


def validate_fleet(fleet: Fleet, horizon: int = DEFAULT_HORIZON) -> list[str]:
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
        if ng.id in seen:
            report.append(f"duplicate n-Grid id {ng.id!r}")
        seen.add(ng.id)
        if ng.feeder_id not in feeder_ids:
            report.append(f"n-Grid {ng.id!r} references unknown feeder {ng.feeder_id!r}")
        for name, prof in (("base_load", ng.base_load), ("pv", ng.pv)):
            if len(prof) != horizon:
                report.append(f"n-Grid {ng.id!r} {name} length {len(prof)} != horizon {horizon}")
            if not _finite_nonneg(prof.values):
                report.append(f"n-Grid {ng.id!r} {name} has negative or non-finite values")
        if ng.bess is not None:
            report.extend(f"n-Grid {ng.id!r} BESS: {e}" for e in ng.bess.check())
        for i, ev in enumerate(ng.evs):
            report.extend(f"n-Grid {ng.id!r} EV {i}: {e}" for e in ev.check())
            if any(h < 0 or h >= horizon for h in ev.plug_hours):
                report.append(f"n-Grid {ng.id!r} EV {i}: plug hour outside horizon")
        if ng.hvac is not None:
            report.extend(f"n-Grid {ng.id!r} HVAC: {e}" for e in ng.hvac.check())
            if len(ng.hvac.p_normal_kw) != horizon:
                report.append(f"n-Grid {ng.id!r} HVAC profile length != horizon {horizon}")
        for i, task in enumerate(ng.deferrables):
            report.extend(f"n-Grid {ng.id!r} task {i}: {e}" for e in task.check(horizon))
    return report
