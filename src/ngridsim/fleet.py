"""Domain model for prosumer nano-grid fleets.

A nano-grid (n-Grid) is a single prosumer site: base electric load, rooftop
PV, optionally a stationary battery, one or more EVs with plug schedules, an
adjustable HVAC load, and deferrable tasks. N-Grids hang off distribution
feeders; a feeder fault islands every n-Grid on it.

All values here are immutable after construction and safe to share across
parallel replications. Mutable per-replication state lives in
:mod:`ngridsim.dispatch`.
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

    def plugged(self, hour: int) -> bool:
        return hour in self.plug_hours

    def arrives(self, hour: int) -> bool:
        """True when this hour starts a contiguous plug interval."""
        return hour in self.plug_hours and (hour - 1) not in self.plug_hours

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
class Feeder:
    """A distribution circuit; one fault takes down all its n-Grids."""

    id: str
    ngrid_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "ngrid_ids", tuple(self.ngrid_ids))


@dataclass(frozen=True)
class Fleet:
    feeders: tuple[Feeder, ...]
    ngrids: tuple[NGrid, ...]

    def __post_init__(self):
        object.__setattr__(self, "feeders", tuple(self.feeders))
        object.__setattr__(self, "ngrids", tuple(self.ngrids))
        # Lookup indexes; with duplicate ids (which validate_fleet reports)
        # the first n-Grid wins, as a scan in fleet order would find it.
        by_id: dict[str, NGrid] = {}
        on_feeder: dict[str, list[NGrid]] = {}
        for ng in self.ngrids:
            by_id.setdefault(ng.id, ng)
            on_feeder.setdefault(ng.feeder_id, []).append(ng)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_on_feeder", on_feeder)

    def ngrid(self, ngrid_id: str) -> NGrid:
        return self._by_id[ngrid_id]

    def ngrids_on(self, feeder_id: str) -> list[NGrid]:
        """N-Grids declaring ``feeder_id``, in fleet order."""
        return list(self._on_feeder.get(feeder_id, ()))


def validate_fleet(fleet: Fleet, horizon: int = DEFAULT_HORIZON) -> list[str]:
    """Check every structural invariant; returns one message per violation.

    Violations are data, not failures: an empty list means the fleet is
    well-formed and every downstream structural precondition holds.
    """
    report: list[str] = []
    feeder_ids = {f.id for f in fleet.feeders}
    ngrid_by_id: dict[str, NGrid] = {}

    for ng in fleet.ngrids:
        if ng.id in ngrid_by_id:
            report.append(f"duplicate n-Grid id {ng.id!r}")
        ngrid_by_id[ng.id] = ng
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

    seen: set[str] = set()
    for feeder in fleet.feeders:
        for nid in feeder.ngrid_ids:
            if nid in seen:
                report.append(f"n-Grid {nid!r} listed under more than one feeder")
            seen.add(nid)
            ng = ngrid_by_id.get(nid)
            if ng is None:
                report.append(f"feeder {feeder.id!r} lists unknown n-Grid {nid!r}")
            elif ng.feeder_id != feeder.id:
                report.append(f"n-Grid {nid!r} on feeder {feeder.id!r} but declares "
                              f"feeder {ng.feeder_id!r}")
        if len(set(feeder.ngrid_ids)) != len(feeder.ngrid_ids):
            report.append(f"feeder {feeder.id!r} lists duplicate n-Grid ids")
    uncovered = set(ngrid_by_id) - seen
    for nid in sorted(uncovered):
        report.append(f"n-Grid {nid!r} not covered by any feeder")
    return report
