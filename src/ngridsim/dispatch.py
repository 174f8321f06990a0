"""Per-n-Grid, per-hour dispatch: islanded priority policy, connected-mode
recharge, spinning-reserve offers, and ramp-capacity accounting.

Islanded hours follow a fixed priority order: defer the deferrable tasks,
drop HVAC to its comfort floor, then cover any deficit with BESS discharge
before EV discharge (residual is energy not served); with a PV surplus,
charge EVs before the BESS, then restore HVAC toward normal, then serve
deferrable tasks in-window, and spill whatever remains.

Connected hours serve everything from the grid, run deferrable tasks at
their earliest in-window hours, and recharge storage toward full (or toward
a risk-weighted target under the ``sor`` precharge policy).

State objects are mutated in place and returned; hours must be stepped
sequentially per n-Grid. Different n-Grids are independent.

:func:`islanded_step` and :func:`connected_step` step one n-Grid. The Monte
Carlo harness instead steps a block of n-Grids at once with :func:`step`, a
numpy kernel over struct-of-arrays data (:class:`FleetArrays`), and takes
ramp capacity for a whole grid-tied day at once with :func:`ramp`. The kernel
repeats the scalar steppers' float operations in their order, per row: a
Python ``min``/``max`` becomes a ``where`` that keeps the same operand on
ties and signed zeros, and a sum over EVs or tasks adds the slots in order,
starting from 0.0. Each row's results therefore equal the scalar steppers'
bit for bit, and the scalar steppers are its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .fleet import NGrid
from .sor import SorTable

_EPS = 1e-9
SOR_LOOKAHEAD_HOURS = 4


@dataclass
class NGridState:
    """Mutable per-replication state for one n-Grid."""

    bess_soc_kwh: float
    ev_soc_kwh: list[float]
    deferred_energy_kwh: list[float]

    def copy(self) -> "NGridState":
        return NGridState(self.bess_soc_kwh, list(self.ev_soc_kwh),
                          list(self.deferred_energy_kwh))


def initial_state(ngrid: NGrid) -> NGridState:
    return NGridState(
        bess_soc_kwh=ngrid.bess.soc_kwh if ngrid.bess is not None else 0.0,
        ev_soc_kwh=[ev.soc_on_arrival_kwh for ev in ngrid.evs],
        deferred_energy_kwh=[t.energy_kwh for t in ngrid.deferrables],
    )


@dataclass(slots=True)
class DispatchOutcome:
    """Power flows for one n-Grid hour. Sign convention: bess/ev positive =
    discharge, grid positive = import; all zero-or-positive otherwise."""

    hour: int
    connected: bool
    served_load_kw: float
    ens_kw: float
    spilled_kw: float
    pv_kw: float
    bess_kw: float
    ev_kw: float
    hvac_kw: float
    deferrable_kw: float
    grid_kw: float
    ev_kw_each: tuple[float, ...] = ()


@dataclass(frozen=True)
class SrOffer:
    bess_sr_kw: float
    ev_sr_kw: float
    hvac_sr_kw: float

    @property
    def total_sr_kw(self) -> float:
        return self.bess_sr_kw + self.ev_sr_kw + self.hvac_sr_kw


@dataclass(frozen=True)
class RampCapacity:
    ru_kw: float
    rd_kw: float


@dataclass(frozen=True)
class PrechargePolicy:
    """Connected-mode recharge target. ``full`` charges toward capacity;
    ``sor`` charges toward capacity scaled by the worst outage risk over the
    next ``SOR_LOOKAHEAD_HOURS`` hours."""

    mode: str = "full"
    sor: SorTable | None = None

    def target_fraction(self, feeder_id: str, hour: int, horizon: int) -> float:
        if self.mode == "full":
            return 1.0
        if self.mode != "sor":
            raise ValueError(f"unknown precharge mode {self.mode!r}")
        if self.sor is None:
            raise ValueError("sor precharge policy needs a SoR table")
        worst = 0.0
        for h in range(hour + 1, min(hour + 1 + SOR_LOOKAHEAD_HOURS, horizon)):
            worst = max(worst, self.sor.get(feeder_id, h))
        return worst


def _check_state(ngrid: NGrid, state: NGridState) -> None:
    if ngrid.bess is not None:
        if not (-_EPS <= state.bess_soc_kwh <= ngrid.bess.capacity_kwh + _EPS):
            raise ValueError(f"n-Grid {ngrid.id!r}: BESS SoC {state.bess_soc_kwh} out of bounds")
    for i, ev in enumerate(ngrid.evs):
        if not (-_EPS <= state.ev_soc_kwh[i] <= ev.battery.capacity_kwh + _EPS):
            raise ValueError(f"n-Grid {ngrid.id!r}: EV {i} SoC {state.ev_soc_kwh[i]} out of bounds")
    for i, task in enumerate(ngrid.deferrables):
        if not (-_EPS <= state.deferred_energy_kwh[i] <= task.energy_kwh + _EPS):
            raise ValueError(f"n-Grid {ngrid.id!r}: task {i} remaining energy out of bounds")


def _apply_ev_arrivals(ngrid: NGrid, state: NGridState, hour: int) -> None:
    # SoC resets at the first hour of each contiguous plug interval.
    for i, ev in enumerate(ngrid.evs):
        if ev.arrives(hour):
            state.ev_soc_kwh[i] = ev.soc_on_arrival_kwh


def _discharge_caps(ngrid: NGrid, state: NGridState, hour: int) -> list[float]:
    caps = []
    for i, ev in enumerate(ngrid.evs):
        if ev.plugged(hour):
            b = ev.battery
            caps.append(min(b.p_max_kw, state.ev_soc_kwh[i] * b.eta_discharge))
        else:
            caps.append(0.0)
    return caps


def _charge_caps(ngrid: NGrid, state: NGridState, hour: int) -> list[float]:
    caps = []
    for i, ev in enumerate(ngrid.evs):
        if ev.plugged(hour):
            b = ev.battery
            caps.append(min(b.p_max_kw, (b.capacity_kwh - state.ev_soc_kwh[i]) / b.eta_charge))
        else:
            caps.append(0.0)
    return caps


def _sum(values: list[float]) -> float:
    """``values`` added left to right, starting from 0.0. Python 3.12's
    ``sum`` compensates float rounding, which would change last bits."""
    total = 0.0
    for v in values:
        total += v
    return total


def _allocate(amount: float, caps: list[float]) -> list[float]:
    """Split ``amount`` across EVs proportionally to each one's headroom."""
    total = _sum(caps)
    if total <= 0.0:
        return [0.0] * len(caps)
    if amount >= total:
        return list(caps)
    return [amount * c / total for c in caps]


def islanded_step(ngrid: NGrid, state: NGridState, hour: int) -> tuple[DispatchOutcome, NGridState]:
    """One islanded hour under the fixed priority order.

    Deferrable tasks whose deadline falls in an islanded hour and cannot be
    completed have their remaining energy booked as energy not served at the
    deadline; a due task may absorb surplus beyond its rated power so the due
    demand can complete (keeps unserved energy and spill mutually exclusive).
    """
    _check_state(ngrid, state)
    _apply_ev_arrivals(ngrid, state, hour)

    pv = ngrid.pv[hour]
    base = ngrid.base_load[hour]
    hvac_min = ngrid.hvac.p_min_kw[hour] if ngrid.hvac is not None else 0.0
    hvac_norm = ngrid.hvac.p_normal_kw[hour] if ngrid.hvac is not None else 0.0

    demand = base + hvac_min
    hvac_kw = hvac_min
    bess_kw = 0.0
    ev_alloc = [0.0] * len(ngrid.evs)
    deferrable_kw = 0.0
    ens = 0.0
    spilled = 0.0

    residual = demand - pv
    if residual >= 0.0:
        # Deficit: BESS first, then plugged EVs, remainder is unserved.
        if ngrid.bess is not None and residual > 0.0:
            b = ngrid.bess
            cap = min(b.p_max_kw, state.bess_soc_kwh * b.eta_discharge)
            bess_kw = min(residual, cap)
            state.bess_soc_kwh -= bess_kw / b.eta_discharge
            residual -= bess_kw
        if residual > 0.0 and ngrid.evs:
            caps = _discharge_caps(ngrid, state, hour)
            ev_alloc = _allocate(residual, caps)
            for i, d in enumerate(ev_alloc):
                state.ev_soc_kwh[i] -= d / ngrid.evs[i].battery.eta_discharge
            residual -= _sum(ev_alloc)
        ens = max(residual, 0.0)
        served = demand - ens
    else:
        # Surplus: EVs charge first, then BESS, then HVAC restore, then
        # deferrable tasks; the rest spills.
        surplus = -residual
        if ngrid.evs:
            caps = _charge_caps(ngrid, state, hour)
            charges = _allocate(surplus, caps)
            for i, c in enumerate(charges):
                state.ev_soc_kwh[i] += c * ngrid.evs[i].battery.eta_charge
                ev_alloc[i] = -c
            surplus -= _sum(charges)
        if ngrid.bess is not None and surplus > 0.0:
            b = ngrid.bess
            cap = min(b.p_max_kw, (b.capacity_kwh - state.bess_soc_kwh) / b.eta_charge)
            charge = min(surplus, cap)
            state.bess_soc_kwh += charge * b.eta_charge
            bess_kw = -charge
            surplus -= charge
        if surplus > 0.0 and hvac_norm > hvac_min:
            restore = min(surplus, hvac_norm - hvac_min)
            hvac_kw = hvac_min + restore
            surplus -= restore
        for i, task in enumerate(ngrid.deferrables):
            if surplus <= 0.0:
                break
            remaining = state.deferred_energy_kwh[i]
            if remaining <= 0.0 or not (task.earliest_hour <= hour <= task.deadline_hour):
                continue
            cap = remaining if hour == task.deadline_hour else min(task.power_kw, remaining)
            serve = min(surplus, cap)
            state.deferred_energy_kwh[i] = remaining - serve
            deferrable_kw += serve
            surplus -= serve
        spilled = max(surplus, 0.0)
        served = demand + hvac_kw - hvac_min + deferrable_kw

    # Deadline shortfall: energy a task can no longer receive is unserved.
    for i, task in enumerate(ngrid.deferrables):
        if hour == task.deadline_hour and state.deferred_energy_kwh[i] > 0.0:
            ens += state.deferred_energy_kwh[i]
            state.deferred_energy_kwh[i] = 0.0

    outcome = DispatchOutcome(
        hour=hour, connected=False, served_load_kw=served, ens_kw=ens,
        spilled_kw=spilled, pv_kw=pv, bess_kw=bess_kw, ev_kw=_sum(ev_alloc),
        hvac_kw=hvac_kw, deferrable_kw=deferrable_kw, grid_kw=0.0,
        ev_kw_each=tuple(ev_alloc),
    )
    return outcome, state


def connected_step(ngrid: NGrid, state: NGridState, hour: int,
                   policy: PrechargePolicy | None = None) -> tuple[DispatchOutcome, NGridState]:
    """One grid-tied hour: full service, task scheduling, storage recharge."""
    _check_state(ngrid, state)
    _apply_ev_arrivals(ngrid, state, hour)
    if policy is None:
        policy = PrechargePolicy()
    horizon = len(ngrid.base_load)

    pv = ngrid.pv[hour]
    base = ngrid.base_load[hour]
    hvac_kw = ngrid.hvac.p_normal_kw[hour] if ngrid.hvac is not None else 0.0

    deferrable_kw = 0.0
    for i, task in enumerate(ngrid.deferrables):
        remaining = state.deferred_energy_kwh[i]
        if remaining <= 0.0 or not (task.earliest_hour <= hour <= task.deadline_hour):
            continue
        # At the deadline the grid clears whatever is left so no task demand
        # survives the horizon unserved while connected.
        serve = remaining if hour == task.deadline_hour else min(task.power_kw, remaining)
        state.deferred_energy_kwh[i] = remaining - serve
        deferrable_kw += serve

    frac = policy.target_fraction(ngrid.feeder_id, hour, horizon)
    bess_kw = 0.0
    if ngrid.bess is not None:
        b = ngrid.bess
        target = b.capacity_kwh * frac
        if target > state.bess_soc_kwh:
            charge = min(b.p_max_kw, (target - state.bess_soc_kwh) / b.eta_charge)
            state.bess_soc_kwh += charge * b.eta_charge
            bess_kw = -charge
    ev_alloc = [0.0] * len(ngrid.evs)
    for i, ev in enumerate(ngrid.evs):
        if not ev.plugged(hour):
            continue
        b = ev.battery
        target = b.capacity_kwh * frac
        if target > state.ev_soc_kwh[i]:
            charge = min(b.p_max_kw, (target - state.ev_soc_kwh[i]) / b.eta_charge)
            state.ev_soc_kwh[i] += charge * b.eta_charge
            ev_alloc[i] = -charge

    served = base + hvac_kw + deferrable_kw
    total_charge = -bess_kw - _sum(ev_alloc)
    grid_kw = served + total_charge - pv

    outcome = DispatchOutcome(
        hour=hour, connected=True, served_load_kw=served, ens_kw=0.0,
        spilled_kw=0.0, pv_kw=pv, bess_kw=bess_kw, ev_kw=_sum(ev_alloc),
        hvac_kw=hvac_kw, deferrable_kw=deferrable_kw, grid_kw=grid_kw,
        ev_kw_each=tuple(ev_alloc),
    )
    return outcome, state


def _storage_sr(p_max: float, power_kw: float, soc_kwh: float,
                delivery_hours: float, derate: float) -> float:
    # Discharging/idle: headroom to the (derated) power limit. Charging: the
    # unit can stop charging, worth its current charge power. Either way the
    # offer is capped by deliverable stored energy.
    if power_kw >= 0.0:
        headroom = max(p_max * derate - power_kw, 0.0)
    else:
        headroom = -power_kw
    return min(headroom, max(soc_kwh, 0.0) / delivery_hours)


def sr_capacity(ngrid: NGrid, state: NGridState, outcome: DispatchOutcome,
                delivery_hours: float = 1.0, derate: float = 1.0) -> SrOffer:
    """Spinning-reserve offer for a grid-tied hour (islanded n-Grids offer
    nothing and calling this for one is an error)."""
    if not outcome.connected:
        raise ValueError(f"n-Grid {ngrid.id!r} is islanded at hour {outcome.hour}; no SR offer")
    bess_sr = 0.0
    if ngrid.bess is not None:
        bess_sr = _storage_sr(ngrid.bess.p_max_kw, outcome.bess_kw,
                              state.bess_soc_kwh, delivery_hours, derate)
    ev_sr = 0.0
    for i, ev in enumerate(ngrid.evs):
        if ev.plugged(outcome.hour):
            ev_sr += _storage_sr(ev.battery.p_max_kw, outcome.ev_kw_each[i],
                                 state.ev_soc_kwh[i], delivery_hours, derate)
    hvac_sr = 0.0
    if ngrid.hvac is not None:
        hvac_sr = max(outcome.hvac_kw - ngrid.hvac.p_min_kw[outcome.hour], 0.0)
    return SrOffer(bess_sr_kw=bess_sr, ev_sr_kw=ev_sr, hvac_sr_kw=hvac_sr)


def ramp_capacity(ngrid: NGrid, state: NGridState, outcome: DispatchOutcome,
                  delivery_hours: float = 1.0, derate: float = 1.0) -> RampCapacity:
    """Ramp-up = the SR offer; ramp-down = storage charging headroom.
    Both are zero while islanded."""
    if not outcome.connected:
        return RampCapacity(0.0, 0.0)
    ru = sr_capacity(ngrid, state, outcome, delivery_hours, derate).total_sr_kw

    def rd_part(p_max: float, power_kw: float, soc_kwh: float, capacity_kwh: float) -> float:
        power_room = max(p_max * derate + power_kw, 0.0)
        energy_room = max(capacity_kwh - soc_kwh, 0.0) / delivery_hours
        return min(power_room, energy_room)

    rd = 0.0
    if ngrid.bess is not None:
        rd += rd_part(ngrid.bess.p_max_kw, outcome.bess_kw,
                      state.bess_soc_kwh, ngrid.bess.capacity_kwh)
    for i, ev in enumerate(ngrid.evs):
        if ev.plugged(outcome.hour):
            rd += rd_part(ev.battery.p_max_kw, outcome.ev_kw_each[i],
                          state.ev_soc_kwh[i], ev.battery.capacity_kwh)
    return RampCapacity(ru_kw=ru, rd_kw=rd)


# ---------------------------------------------------------------------------
# Block kernel: the steppers above on many n-Grids at once.

# FleetArrays fields indexed by hour first, shape (H, N[, slots]).
_HOURLY = frozenset({"base_load", "pv", "hvac_min", "hvac_normal",
                     "plugged", "arrives", "in_window", "due"})


@dataclass(frozen=True, eq=False)
class FleetArrays:
    """A block of n-Grids as struct-of-arrays, one row per n-Grid.

    Hourly profiles and masks are ``(H, N)`` or ``(H, N, slots)``; unit
    parameters are ``(N,)`` or ``(N, slots)``. EVs and deferrable tasks fill
    zero-padded slots in their n-Grid's order. A missing BESS, EV slot or
    HVAC has zero capacity, power and profile; its efficiencies are 1.
    """

    ids: tuple[str, ...]
    base_load: np.ndarray
    pv: np.ndarray
    hvac_min: np.ndarray
    hvac_normal: np.ndarray
    has_bess: np.ndarray
    bess_capacity: np.ndarray
    bess_p_max: np.ndarray
    bess_eta_c: np.ndarray
    bess_eta_d: np.ndarray
    bess_soc: np.ndarray  # initial SoC
    ev_capacity: np.ndarray
    ev_p_max: np.ndarray
    ev_eta_c: np.ndarray
    ev_eta_d: np.ndarray
    ev_arrival_soc: np.ndarray
    plugged: np.ndarray
    arrives: np.ndarray  # first hour of each contiguous plug interval
    task_energy: np.ndarray
    task_power: np.ndarray
    in_window: np.ndarray
    due: np.ndarray  # the task's deadline hour

    @classmethod
    def build(cls, ngrids, horizon: int) -> "FleetArrays":
        n = len(ngrids)
        n_ev = max((len(ng.evs) for ng in ngrids), default=0)
        n_task = max((len(ng.deferrables) for ng in ngrids), default=0)

        def hourly(profiles) -> np.ndarray:
            return np.array(profiles, dtype=float).reshape(n, horizon).T.copy()

        def bess(attr: str, missing: float) -> np.ndarray:
            return np.array([getattr(ng.bess, attr) if ng.bess is not None else missing
                             for ng in ngrids], dtype=float)

        no_hvac = (0.0,) * horizon
        ev = {name: np.full((n, n_ev), pad) for name, pad in
              (("capacity_kwh", 0.0), ("p_max_kw", 0.0), ("eta_charge", 1.0),
               ("eta_discharge", 1.0), ("soc", 0.0))}
        plugged = np.zeros((horizon, n, n_ev), dtype=bool)
        task_energy, task_power = np.zeros((n, n_task)), np.zeros((n, n_task))
        in_window = np.zeros((horizon, n, n_task), dtype=bool)
        due = np.zeros((horizon, n, n_task), dtype=bool)
        for r, ng in enumerate(ngrids):
            for e, vehicle in enumerate(ng.evs):
                for name in ("capacity_kwh", "p_max_kw", "eta_charge", "eta_discharge"):
                    ev[name][r, e] = getattr(vehicle.battery, name)
                ev["soc"][r, e] = vehicle.soc_on_arrival_kwh
                plugged[[h for h in vehicle.plug_hours if 0 <= h < horizon], r, e] = True
            for t, task in enumerate(ng.deferrables):
                task_energy[r, t], task_power[r, t] = task.energy_kwh, task.power_kw
                in_window[task.earliest_hour:task.deadline_hour + 1, r, t] = True
                due[task.deadline_hour, r, t] = True
        arrives = plugged.copy()
        arrives[1:] &= ~plugged[:-1]
        return cls(
            ids=tuple(ng.id for ng in ngrids),
            base_load=hourly([ng.base_load.values for ng in ngrids]),
            pv=hourly([ng.pv.values for ng in ngrids]),
            hvac_min=hourly([ng.hvac.p_min_kw.values if ng.hvac is not None else no_hvac
                             for ng in ngrids]),
            hvac_normal=hourly([ng.hvac.p_normal_kw.values if ng.hvac is not None else no_hvac
                                for ng in ngrids]),
            has_bess=np.array([ng.bess is not None for ng in ngrids], dtype=bool),
            bess_capacity=bess("capacity_kwh", 0.0), bess_p_max=bess("p_max_kw", 0.0),
            bess_eta_c=bess("eta_charge", 1.0), bess_eta_d=bess("eta_discharge", 1.0),
            bess_soc=bess("soc_kwh", 0.0),
            ev_capacity=ev["capacity_kwh"], ev_p_max=ev["p_max_kw"],
            ev_eta_c=ev["eta_charge"], ev_eta_d=ev["eta_discharge"], ev_arrival_soc=ev["soc"],
            plugged=plugged, arrives=arrives, task_energy=task_energy, task_power=task_power,
            in_window=in_window, due=due)

    def take(self, rows) -> "FleetArrays":
        """A contiguous copy of the given rows, in the given order."""
        return FleetArrays(ids=tuple(self.ids[r] for r in rows), **{
            f.name: getattr(self, f.name)[:, rows] if f.name in _HOURLY
            else getattr(self, f.name)[rows]
            for f in fields(self) if f.name != "ids"})

    def initial_state(self) -> "FleetState":
        """:func:`initial_state` of every row."""
        return FleetState(self.bess_soc.copy(), self.ev_arrival_soc.copy(),
                          self.task_energy.copy())


class FleetState(NamedTuple):
    """Dispatch state of a block, in kWh: BESS SoC ``(N,)``, EV SoC ``(N, E)``
    and remaining deferrable-task energy ``(N, T)``."""

    bess: np.ndarray
    ev: np.ndarray
    tasks: np.ndarray


class Flows(NamedTuple):
    """One hour of a block, in kW: served load, energy not served and spilled
    PV ``(N,)``, and BESS ``(N,)`` and EV ``(N, E)`` power (positive =
    discharge), as :class:`DispatchOutcome` holds them for one n-Grid."""

    served: np.ndarray
    ens: np.ndarray
    spilled: np.ndarray
    bess_kw: np.ndarray
    ev_kw: np.ndarray


def _min(a, b):
    """Python's ``min(a, b)`` elementwise: ``a`` unless ``b < a``."""
    return np.where(b < a, b, a)


def _max(a, b):
    """Python's ``max(a, b)`` elementwise: ``a`` unless ``b > a``."""
    return np.where(b > a, b, a)


def _slot_sum(slots: np.ndarray, start=0.0) -> np.ndarray:
    """``start`` plus each slot along the last axis, in slot order, as
    :func:`_sum` adds a list."""
    if slots.shape[-1] == 0:
        return np.zeros(slots.shape[:-1]) + start
    total = start + slots[..., 0]
    for k in range(1, slots.shape[-1]):
        total = total + slots[..., k]
    return total


def _allocate_rows(amount: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """:func:`_allocate` per row: ``amount`` (N,) over slot headroom ``caps`` (N, E)."""
    total = _slot_sum(caps)
    share = amount[:, None] * caps / np.where(total > 0.0, total, 1.0)[:, None]
    alloc = np.where((amount >= total)[:, None], caps, share)
    return np.where((total <= 0.0)[:, None], 0.0, alloc)


def _check_rows(fa: FleetArrays, state: FleetState) -> None:
    """:func:`_check_state` on every row; the error names the first bad n-Grid."""
    bess_ok = ~fa.has_bess | ((state.bess >= -_EPS) & (state.bess <= fa.bess_capacity + _EPS))
    ev_ok = (state.ev >= -_EPS) & (state.ev <= fa.ev_capacity + _EPS)
    task_ok = (state.tasks >= -_EPS) & (state.tasks <= fa.task_energy + _EPS)
    if bess_ok.all() and ev_ok.all() and task_ok.all():
        return
    r = int(np.flatnonzero(~(bess_ok & ev_ok.all(axis=1) & task_ok.all(axis=1)))[0])
    name = fa.ids[r]
    if not bess_ok[r]:
        raise ValueError(f"n-Grid {name!r}: BESS SoC {float(state.bess[r])} out of bounds")
    bad_ev = np.flatnonzero(~ev_ok[r])
    if bad_ev.size:
        i = int(bad_ev[0])
        raise ValueError(f"n-Grid {name!r}: EV {i} SoC {float(state.ev[r, i])} out of bounds")
    i = int(np.flatnonzero(~task_ok[r])[0])
    raise ValueError(f"n-Grid {name!r}: task {i} remaining energy out of bounds")


def step(fa: FleetArrays, state: FleetState, hour: int, islanded: bool,
         frac: np.ndarray) -> tuple[Flows, FleetState]:
    """One hour for every row of ``fa``: :func:`islanded_step` when
    ``islanded``, else :func:`connected_step` toward each row's recharge
    target fraction ``frac`` (N,). Each row's flows and new state equal the
    scalar stepper's bit for bit. ``state`` is left unchanged."""
    _check_rows(fa, state)
    ev = np.where(fa.arrives[hour], fa.ev_arrival_soc, state.ev)
    if islanded:
        return _islanded_rows(fa, state.bess, ev, state.tasks.copy(), hour)
    return _connected_rows(fa, state.bess, ev, state.tasks, hour, frac)


def _islanded_rows(fa, bess, ev, tasks, hour):
    # A quantity that a row's branch does not touch is +0.0, and x - 0.0 == x
    # bit for bit, so only additions and selections need a row mask.
    plugged = fa.plugged[hour]
    hvac_min, hvac_normal = fa.hvac_min[hour], fa.hvac_normal[hour]
    demand = fa.base_load[hour] + hvac_min
    residual = demand - fa.pv[hour]
    deficit = residual >= 0.0
    surplus_rows = ~deficit

    # Deficit: BESS first, then plugged EVs; the remainder is unserved.
    discharging = deficit & fa.has_bess & (residual > 0.0)
    bess_kw = np.where(discharging,
                       _min(residual, _min(fa.bess_p_max, bess * fa.bess_eta_d)), 0.0)
    bess = bess - bess_kw / fa.bess_eta_d
    residual = residual - bess_kw
    caps = np.where(plugged, _min(fa.ev_p_max, ev * fa.ev_eta_d), 0.0)
    ev_kw = np.where((deficit & (residual > 0.0))[:, None], _allocate_rows(residual, caps), 0.0)
    ev = ev - ev_kw / fa.ev_eta_d
    residual = residual - _slot_sum(ev_kw)
    ens = np.where(deficit, _max(residual, 0.0), 0.0)
    deficit_served = demand - ens

    # Surplus: EVs charge, then the BESS, then HVAC restores, then tasks run.
    surplus = -residual
    caps = np.where(plugged, _min(fa.ev_p_max, (fa.ev_capacity - ev) / fa.ev_eta_c), 0.0)
    ev_charge = np.where(surplus_rows[:, None], _allocate_rows(surplus, caps), 0.0)
    ev = np.where(surplus_rows[:, None], ev + ev_charge * fa.ev_eta_c, ev)
    surplus = surplus - _slot_sum(ev_charge)
    charging = surplus_rows & fa.has_bess & (surplus > 0.0)
    charge = np.where(charging, _min(surplus, _min(
        fa.bess_p_max, (fa.bess_capacity - bess) / fa.bess_eta_c)), 0.0)
    bess = np.where(charging, bess + charge * fa.bess_eta_c, bess)
    surplus = surplus - charge
    restoring = surplus_rows & (surplus > 0.0) & (hvac_normal > hvac_min)
    restore = np.where(restoring, _min(surplus, hvac_normal - hvac_min), 0.0)
    hvac_kw = np.where(restoring, hvac_min + restore, hvac_min)
    surplus = surplus - restore
    deferrable = np.zeros(len(fa.ids))
    window, due = fa.in_window[hour], fa.due[hour]
    for t in range(tasks.shape[1]):
        remaining = tasks[:, t]
        serving = surplus_rows & (surplus > 0.0) & (remaining > 0.0) & window[:, t]
        cap = np.where(due[:, t], remaining, _min(fa.task_power[:, t], remaining))
        serve = np.where(serving, _min(surplus, cap), 0.0)
        remaining = remaining - serve
        deferrable = deferrable + serve
        surplus = surplus - serve
        # Deadline shortfall: energy the task can no longer receive is unserved.
        short = due[:, t] & (remaining > 0.0)
        ens = np.where(short, ens + remaining, ens)
        tasks[:, t] = np.where(short, 0.0, remaining)
    served = np.where(deficit, deficit_served, demand + hvac_kw - hvac_min + deferrable)
    spilled = np.where(surplus_rows, _max(surplus, 0.0), 0.0)
    bess_kw = np.where(charging, -charge, bess_kw)
    ev_kw = np.where(surplus_rows[:, None], -ev_charge, ev_kw)
    return Flows(served, ens, spilled, bess_kw, ev_kw), FleetState(bess, ev, tasks)


def _connected_rows(fa, bess, ev, tasks, hour, frac):
    # Tasks run at their earliest in-window hours; the deadline clears the rest.
    serving = (tasks > 0.0) & fa.in_window[hour]
    serve = np.where(serving, np.where(fa.due[hour], tasks, _min(fa.task_power, tasks)), 0.0)
    tasks = tasks - serve
    served = fa.base_load[hour] + fa.hvac_normal[hour] + _slot_sum(serve)

    target = fa.bess_capacity * frac
    charging = fa.has_bess & (target > bess)
    charge = np.where(charging, _min(fa.bess_p_max, (target - bess) / fa.bess_eta_c), 0.0)
    bess = np.where(charging, bess + charge * fa.bess_eta_c, bess)
    target = fa.ev_capacity * frac[:, None]
    charging = fa.plugged[hour] & (target > ev)
    ev_charge = np.where(charging, _min(fa.ev_p_max, (target - ev) / fa.ev_eta_c), 0.0)
    ev = np.where(charging, ev + ev_charge * fa.ev_eta_c, ev)
    zeros = np.zeros(len(fa.ids))
    return (Flows(served, zeros, zeros, 0.0 - charge, 0.0 - ev_charge),
            FleetState(bess, ev, tasks))


def _storage_sr_rows(p_max, power_kw, soc_kwh, delivery_hours, derate):
    headroom = np.where(power_kw >= 0.0, _max(p_max * derate - power_kw, 0.0), -power_kw)
    return _min(headroom, _max(soc_kwh, 0.0) / delivery_hours)


def _rd_part_rows(p_max, power_kw, soc_kwh, capacity_kwh, delivery_hours, derate):
    power_room = _max(p_max * derate + power_kw, 0.0)
    energy_room = _max(capacity_kwh - soc_kwh, 0.0) / delivery_hours
    return _min(power_room, energy_room)


def ramp(fa: FleetArrays, state: FleetState, bess_kw: np.ndarray, ev_kw: np.ndarray,
         derate: np.ndarray, delivery_hours: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ramp_capacity` of every row at every hour, all taken as
    connected: ``state`` is the state after each hour, ``bess_kw`` and
    ``ev_kw`` the storage flows and ``derate`` the derate factors, each
    ``(H, N[, E])``. Returns ramp-up and ramp-down in kW, ``(H, N)``."""
    ev_derate = derate[..., None]
    bess_ru = np.where(fa.has_bess, _storage_sr_rows(
        fa.bess_p_max, bess_kw, state.bess, delivery_hours, derate), 0.0)
    ev_ru = _slot_sum(np.where(fa.plugged, _storage_sr_rows(
        fa.ev_p_max, ev_kw, state.ev, delivery_hours, ev_derate), 0.0))
    hvac_ru = _max(fa.hvac_normal - fa.hvac_min, 0.0)
    bess_rd = np.where(fa.has_bess, _rd_part_rows(
        fa.bess_p_max, bess_kw, state.bess, fa.bess_capacity, delivery_hours, derate), 0.0)
    ev_rd = np.where(fa.plugged, _rd_part_rows(
        fa.ev_p_max, ev_kw, state.ev, fa.ev_capacity, delivery_hours, ev_derate), 0.0)
    return bess_ru + ev_ru + hvac_ru, _slot_sum(ev_rd, start=0.0 + bess_rd)
