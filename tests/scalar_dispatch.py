"""Per-n-Grid, per-hour dispatch: the scalar reading of the policy that
:func:`ngridsim.dispatch.step` and :func:`ngridsim.dispatch.ramp` apply to a
block of n-Grids at once.

The library runs the block kernel only. These steppers step one n-Grid with
plain Python floats, in the same order of operations, and are the kernel's
byte-for-byte test oracle. State objects are mutated in place and returned;
hours must be stepped sequentially per n-Grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from ngridsim.fleet import ElectricVehicle, NGrid
from ngridsim.harness import SOR_LOOKAHEAD_HOURS
from ngridsim.sor import SorTable

_EPS = 1e-9


def plugged(ev: ElectricVehicle, hour: int) -> bool:
    return hour in ev.plug_hours


def arrives(ev: ElectricVehicle, hour: int) -> bool:
    """True when this hour starts a contiguous plug interval."""
    return hour in ev.plug_hours and (hour - 1) not in ev.plug_hours


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
        ev_soc_kwh=[ev.battery.soc_kwh for ev in ngrid.evs],
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
        if arrives(ev, hour):
            state.ev_soc_kwh[i] = ev.battery.soc_kwh


def _discharge_caps(ngrid: NGrid, state: NGridState, hour: int) -> list[float]:
    caps = []
    for i, ev in enumerate(ngrid.evs):
        if plugged(ev, hour):
            b = ev.battery
            caps.append(min(b.p_max_kw, state.ev_soc_kwh[i] * b.eta_discharge))
        else:
            caps.append(0.0)
    return caps


def _charge_caps(ngrid: NGrid, state: NGridState, hour: int) -> list[float]:
    caps = []
    for i, ev in enumerate(ngrid.evs):
        if plugged(ev, hour):
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
        if not plugged(ev, hour):
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
        if plugged(ev, outcome.hour):
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
        if plugged(ev, outcome.hour):
            rd += rd_part(ev.battery.p_max_kw, outcome.ev_kw_each[i],
                          state.ev_soc_kwh[i], ev.battery.capacity_kwh)
    return RampCapacity(ru_kw=ru, rd_kw=rd)
