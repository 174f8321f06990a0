"""Hourly n-Grid dispatch as a numpy kernel over a block of n-Grids.

Islanded hours follow a fixed priority order: defer the deferrable tasks,
drop HVAC to its comfort floor, then cover any deficit with BESS discharge
before EV discharge (residual is energy not served); with a PV surplus,
charge EVs before the BESS, then restore HVAC toward normal, then serve
deferrable tasks in-window, and spill whatever remains. Connected hours
serve everything from the grid, run deferrable tasks at their earliest
in-window hours, and recharge storage toward a fraction of capacity, one
per row (:func:`ngridsim.harness.compute_shadow` sets it from the scenario's
precharge policy).

:class:`FleetArrays` holds a block of n-Grids as struct-of-arrays, one row
per n-Grid. :func:`step` advances any set of its rows by one hour, and
:func:`ramp` takes ramp capacity for a whole grid-tied day at once. Each
row repeats the float operations of the per-n-Grid steppers in
``tests/scalar_dispatch.py``, the kernel's test oracle, in their order: a
Python ``min``/``max`` becomes a ``where`` that keeps the same operand on
ties and signed zeros, and a sum over EVs or tasks adds the slots in order
from 0.0. So each row equals the oracle bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

_EPS = 1e-9

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
               ("eta_discharge", 1.0), ("soc_kwh", 0.0))}
        plugged = np.zeros((horizon, n, n_ev), dtype=bool)
        task_energy, task_power = np.zeros((n, n_task)), np.zeros((n, n_task))
        in_window = np.zeros((horizon, n, n_task), dtype=bool)
        due = np.zeros((horizon, n, n_task), dtype=bool)
        for r, ng in enumerate(ngrids):
            for e, vehicle in enumerate(ng.evs):
                for name, column in ev.items():
                    column[r, e] = getattr(vehicle.battery, name)
                plugged[[h for h in vehicle.plug_hours if 0 <= h < horizon], r, e] = True
            for t, task in enumerate(ng.deferrables):
                task_energy[r, t], task_power[r, t] = task.energy_kwh, task.power_kw
                in_window[task.earliest_hour:task.deadline_hour + 1, r, t] = True
                due[task.deadline_hour, r, t] = True
        arrives = plugged.copy()
        arrives[1:] &= ~plugged[:-1]
        return cls(
            ids=tuple(ng.id for ng in ngrids),
            base_load=hourly([ng.base_load for ng in ngrids]),
            pv=hourly([ng.pv for ng in ngrids]),
            hvac_min=hourly([ng.hvac.p_min_kw if ng.hvac is not None else no_hvac
                             for ng in ngrids]),
            hvac_normal=hourly([ng.hvac.p_normal_kw if ng.hvac is not None else no_hvac
                                for ng in ngrids]),
            has_bess=np.array([ng.bess is not None for ng in ngrids], dtype=bool),
            bess_capacity=bess("capacity_kwh", 0.0), bess_p_max=bess("p_max_kw", 0.0),
            bess_eta_c=bess("eta_charge", 1.0), bess_eta_d=bess("eta_discharge", 1.0),
            bess_soc=bess("soc_kwh", 0.0),
            ev_capacity=ev["capacity_kwh"], ev_p_max=ev["p_max_kw"],
            ev_eta_c=ev["eta_charge"], ev_eta_d=ev["eta_discharge"], ev_arrival_soc=ev["soc_kwh"],
            plugged=plugged, arrives=arrives, task_energy=task_energy, task_power=task_power,
            in_window=in_window, due=due)

    def initial_state(self) -> "FleetState":
        """Every row's starting state: BESS at its initial SoC, EVs at their
        arrival SoC and every deferrable task's energy still to serve."""
        return FleetState(self.bess_soc.copy(), self.ev_arrival_soc.copy(),
                          self.task_energy.copy())


_ROW_FIELDS = tuple(f.name for f in fields(FleetArrays) if f.name != "ids")  # step gathers


class FleetState(NamedTuple):
    """Dispatch state of a block, in kWh: BESS SoC ``(N,)``, EV SoC ``(N, E)``
    and remaining deferrable-task energy ``(N, T)``."""

    bess: np.ndarray
    ev: np.ndarray
    tasks: np.ndarray


class Flows(NamedTuple):
    """One hour of a block, in kW: served load, energy not served and spilled
    PV ``(N,)``, and BESS ``(N,)`` and EV ``(N, E)`` power (positive =
    discharge)."""

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
    """``start`` plus each slot along the last axis, in slot order, as a
    left-to-right loop adds a list (``np.sum`` is pairwise)."""
    if slots.shape[-1] == 0:
        return np.zeros(slots.shape[:-1]) + start
    total = start + slots[..., 0]
    for k in range(1, slots.shape[-1]):
        total = total + slots[..., k]
    return total


def _allocate_rows(amount: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Split ``amount`` (N,) across each row's slots in proportion to their
    headroom ``caps`` (N, E); a row with no headroom gets nothing."""
    total = _slot_sum(caps)
    share = amount[:, None] * caps / np.where(total > 0.0, total, 1.0)[:, None]
    alloc = np.where((amount >= total)[:, None], caps, share)
    return np.where((total <= 0.0)[:, None], 0.0, alloc)


def _check_rows(at, state: FleetState, ids, rows) -> None:
    """Every stored energy within [0, capacity] up to ``_EPS``; the error
    names the first bad n-Grid of ``rows``, from the block's ``ids``."""
    bess_ok = ~at.has_bess | ((state.bess >= -_EPS) & (state.bess <= at.bess_capacity + _EPS))
    ev_ok = (state.ev >= -_EPS) & (state.ev <= at.ev_capacity + _EPS)
    task_ok = (state.tasks >= -_EPS) & (state.tasks <= at.task_energy + _EPS)
    if bess_ok.all() and ev_ok.all() and task_ok.all():
        return
    r = int(np.flatnonzero(~(bess_ok & ev_ok.all(axis=1) & task_ok.all(axis=1)))[0])
    name = ids[rows[r]]
    if not bess_ok[r]:
        raise ValueError(f"n-Grid {name!r}: BESS SoC {float(state.bess[r])} out of bounds")
    bad_ev = np.flatnonzero(~ev_ok[r])
    if bad_ev.size:
        i = int(bad_ev[0])
        raise ValueError(f"n-Grid {name!r}: EV {i} SoC {float(state.ev[r, i])} out of bounds")
    i = int(np.flatnonzero(~task_ok[r])[0])
    raise ValueError(f"n-Grid {name!r}: task {i} remaining energy out of bounds")


def step(fa: FleetArrays, state: FleetState, hour: int, islanded: bool,
         frac: np.ndarray, rows: np.ndarray | None = None) -> tuple[Flows, FleetState]:
    """One hour for the ``rows`` of ``fa`` (an index array; every row by
    default): the islanded priority order when ``islanded``, else grid-tied
    service and recharge toward each row's target fraction ``frac`` of
    capacity. ``state`` and ``frac`` hold the rows in the order of ``rows``,
    as do the results; ``state`` is left unchanged."""
    if rows is None:
        rows = np.arange(len(fa.ids))
    at = SimpleNamespace(**{
        name: (getattr(fa, name)[hour] if name in _HOURLY else getattr(fa, name)).take(rows, 0)
        for name in _ROW_FIELDS})
    _check_rows(at, state, fa.ids, rows)
    ev = np.where(at.arrives, at.ev_arrival_soc, state.ev)
    if islanded:
        return _islanded_rows(at, state.bess, ev, state.tasks.copy())
    return _connected_rows(at, state.bess, ev, state.tasks, frac)


def _islanded_rows(at, bess, ev, tasks):
    # A quantity that a row's branch does not touch is +0.0, and x - 0.0 == x
    # bit for bit, so only additions and selections need a row mask.
    hvac_min, hvac_normal = at.hvac_min, at.hvac_normal
    demand = at.base_load + hvac_min
    residual = demand - at.pv
    deficit = residual >= 0.0
    surplus_rows = ~deficit

    # Deficit: BESS first, then plugged EVs; the remainder is unserved.
    discharging = deficit & at.has_bess & (residual > 0.0)
    bess_kw = np.where(discharging,
                       _min(residual, _min(at.bess_p_max, bess * at.bess_eta_d)), 0.0)
    bess = bess - bess_kw / at.bess_eta_d
    residual = residual - bess_kw
    caps = np.where(at.plugged, _min(at.ev_p_max, ev * at.ev_eta_d), 0.0)
    ev_kw = np.where((deficit & (residual > 0.0))[:, None], _allocate_rows(residual, caps), 0.0)
    ev = ev - ev_kw / at.ev_eta_d
    residual = residual - _slot_sum(ev_kw)
    ens = np.where(deficit, _max(residual, 0.0), 0.0)
    deficit_served = demand - ens

    # Surplus: EVs charge, then the BESS, then HVAC restores, then tasks run.
    surplus = -residual
    caps = np.where(at.plugged, _min(at.ev_p_max, (at.ev_capacity - ev) / at.ev_eta_c), 0.0)
    ev_charge = np.where(surplus_rows[:, None], _allocate_rows(surplus, caps), 0.0)
    ev = np.where(surplus_rows[:, None], ev + ev_charge * at.ev_eta_c, ev)
    surplus = surplus - _slot_sum(ev_charge)
    charging = surplus_rows & at.has_bess & (surplus > 0.0)
    charge = np.where(charging, _min(surplus, _min(
        at.bess_p_max, (at.bess_capacity - bess) / at.bess_eta_c)), 0.0)
    bess = np.where(charging, bess + charge * at.bess_eta_c, bess)
    surplus = surplus - charge
    restoring = surplus_rows & (surplus > 0.0) & (hvac_normal > hvac_min)
    restore = np.where(restoring, _min(surplus, hvac_normal - hvac_min), 0.0)
    hvac_kw = np.where(restoring, hvac_min + restore, hvac_min)
    surplus = surplus - restore
    deferrable = np.zeros(len(bess))
    for t in range(tasks.shape[1]):
        remaining = tasks[:, t]
        serving = surplus_rows & (surplus > 0.0) & (remaining > 0.0) & at.in_window[:, t]
        # A due task may take surplus beyond its rated power, so ENS and
        # spill never both occur.
        cap = np.where(at.due[:, t], remaining, _min(at.task_power[:, t], remaining))
        serve = np.where(serving, _min(surplus, cap), 0.0)
        remaining = remaining - serve
        deferrable = deferrable + serve
        surplus = surplus - serve
        # Deadline shortfall: energy the task can no longer receive is unserved.
        short = at.due[:, t] & (remaining > 0.0)
        ens = np.where(short, ens + remaining, ens)
        tasks[:, t] = np.where(short, 0.0, remaining)
    served = np.where(deficit, deficit_served, demand + hvac_kw - hvac_min + deferrable)
    spilled = np.where(surplus_rows, _max(surplus, 0.0), 0.0)
    bess_kw = np.where(charging, -charge, bess_kw)
    ev_kw = np.where(surplus_rows[:, None], -ev_charge, ev_kw)
    return Flows(served, ens, spilled, bess_kw, ev_kw), FleetState(bess, ev, tasks)


def _connected_rows(at, bess, ev, tasks, frac):
    # Tasks run at their earliest in-window hours; the deadline clears the rest.
    serving = (tasks > 0.0) & at.in_window
    serve = np.where(serving, np.where(at.due, tasks, _min(at.task_power, tasks)), 0.0)
    tasks = tasks - serve
    served = at.base_load + at.hvac_normal + _slot_sum(serve)

    target = at.bess_capacity * frac
    charging = at.has_bess & (target > bess)
    charge = np.where(charging, _min(at.bess_p_max, (target - bess) / at.bess_eta_c), 0.0)
    bess = np.where(charging, bess + charge * at.bess_eta_c, bess)
    target = at.ev_capacity * frac[:, None]
    charging = at.plugged & (target > ev)
    ev_charge = np.where(charging, _min(at.ev_p_max, (target - ev) / at.ev_eta_c), 0.0)
    ev = np.where(charging, ev + ev_charge * at.ev_eta_c, ev)
    zeros = np.zeros(len(bess))
    return (Flows(served, zeros, zeros, 0.0 - charge, 0.0 - ev_charge),
            FleetState(bess, ev, tasks))


def _storage_sr_rows(p_max, power_kw, soc_kwh, delivery_hours, derate):
    # Reserve: headroom to the derated power limit, or when charging the
    # charge power it can stop; capped by deliverable stored energy.
    headroom = np.where(power_kw >= 0.0, _max(p_max * derate - power_kw, 0.0), -power_kw)
    return _min(headroom, _max(soc_kwh, 0.0) / delivery_hours)


def _rd_part_rows(p_max, power_kw, soc_kwh, capacity_kwh, delivery_hours, derate):
    power_room = _max(p_max * derate + power_kw, 0.0)
    energy_room = _max(capacity_kwh - soc_kwh, 0.0) / delivery_hours
    return _min(power_room, energy_room)


def ramp(fa: FleetArrays, state: FleetState, bess_kw: np.ndarray, ev_kw: np.ndarray,
         derate: np.ndarray, delivery_hours: float) -> tuple[np.ndarray, np.ndarray]:
    """Ramp-up and ramp-down capacity of every row at every hour, all taken
    as connected: ``state`` is the state after each hour, ``bess_kw`` and
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
