import ast
import copy
import dataclasses
import pathlib
import random

import numpy as np
import pytest

import ngridsim
from ngridsim import harness
from ngridsim.dispatch import FleetArrays, FleetState, ramp, step
from ngridsim.fleet import (DeferrableTask, ElectricVehicle, Fleet, HourlyProfile,
                            HvacAsset, NGrid, StorageUnit, validate_fleet)
from ngridsim.sor import SorTable
from fuzzing import (TOL, check_islanded_invariants, random_fleet,
                     random_islanded_case, snapshot_pre_dispatch)
from oracles import power_balance_residual
from scalar_dispatch import (DispatchOutcome, NGridState, PrechargePolicy, arrives,
                             connected_step, initial_state, islanded_step,
                             ramp_capacity, sr_capacity)

H = 24


def make_ngrid(base=0.0, pv=0.0, bess=None, evs=(), hvac=None, deferrables=()):
    return NGrid(id="T1", feeder_id="F1",
                 base_load=HourlyProfile.constant(base, H),
                 pv=HourlyProfile.constant(pv, H),
                 bess=bess, evs=tuple(evs), hvac=hvac, deferrables=tuple(deferrables))


def always_plugged_ev(capacity, p_max, soc):
    return ElectricVehicle(battery=StorageUnit(capacity, p_max, soc),
                           plug_hours=frozenset(range(H)), soc_on_arrival_kwh=soc)


class TestIslandedStep:
    def test_bess_covers_deficit(self):
        ng = make_ngrid(base=5.0, pv=2.0, bess=StorageUnit(20.0, 5.0, 10.0))
        out, state = islanded_step(ng, initial_state(ng), 0)
        assert out.bess_kw == pytest.approx(3.0)
        assert out.ens_kw == 0.0
        assert state.bess_soc_kwh == pytest.approx(7.0)

    def test_energy_limited_discharge_leaves_ens(self):
        ng = make_ngrid(base=5.0, pv=0.0, bess=StorageUnit(20.0, 5.0, 1.0))
        out, _ = islanded_step(ng, initial_state(ng), 0)
        assert out.bess_kw == pytest.approx(1.0)
        assert out.ens_kw == pytest.approx(4.0)

    def test_saturated_sinks_spill(self):
        ng = make_ngrid(base=0.0, pv=3.0, bess=StorageUnit(10.0, 5.0, 10.0))
        out, _ = islanded_step(ng, initial_state(ng), 0)
        assert out.spilled_kw == pytest.approx(3.0)
        assert out.ens_kw == 0.0

    def test_surplus_routed_ev_first(self):
        ev = always_plugged_ev(capacity=10.0, p_max=2.0, soc=8.0)  # 2 kWh headroom
        ng = make_ngrid(base=1.0, pv=6.0, bess=StorageUnit(10.0, 5.0, 0.0), evs=[ev])
        out, _ = islanded_step(ng, initial_state(ng), 0)
        assert out.ev_kw == pytest.approx(-2.0)
        assert out.bess_kw == pytest.approx(-3.0)
        assert out.spilled_kw == 0.0

    def test_hvac_curtailed_then_restored(self):
        hvac = HvacAsset(HourlyProfile.constant(2.0, H), HourlyProfile.constant(0.5, H))
        # Deficit hour: HVAC held at floor.
        ng = make_ngrid(base=1.0, pv=1.0, hvac=hvac)
        out, _ = islanded_step(ng, initial_state(ng), 0)
        assert out.hvac_kw == pytest.approx(0.5)
        assert out.ens_kw == pytest.approx(0.5)
        # Big surplus: restored to normal, rest spills.
        ng = make_ngrid(base=1.0, pv=6.0, hvac=hvac)
        out, _ = islanded_step(ng, initial_state(ng), 0)
        assert out.hvac_kw == pytest.approx(2.0)
        assert out.spilled_kw == pytest.approx(3.0)

    def test_deferrable_served_only_from_surplus(self):
        task = DeferrableTask(energy_kwh=3.0, power_kw=1.0, earliest_hour=0, deadline_hour=23)
        ng = make_ngrid(base=0.0, pv=2.0, deferrables=[task])
        out, state = islanded_step(ng, initial_state(ng), 5)
        assert out.deferrable_kw == pytest.approx(1.0)  # power-capped
        assert out.spilled_kw == pytest.approx(1.0)
        assert state.deferred_energy_kwh[0] == pytest.approx(2.0)

    def test_deadline_shortfall_becomes_ens(self):
        task = DeferrableTask(energy_kwh=3.0, power_kw=1.0, earliest_hour=0, deadline_hour=5)
        ng = make_ngrid(base=2.0, pv=0.0, deferrables=[task])
        out, state = islanded_step(ng, initial_state(ng), 5)
        assert out.ens_kw == pytest.approx(2.0 + 3.0)  # unmet base plus expired task
        assert state.deferred_energy_kwh[0] == 0.0

    def test_ev_proportional_allocation(self):
        ev1 = always_plugged_ev(capacity=50.0, p_max=4.0, soc=40.0)
        ev2 = always_plugged_ev(capacity=50.0, p_max=2.0, soc=40.0)
        ng = make_ngrid(base=3.0, pv=0.0, evs=[ev1, ev2])
        out, _ = islanded_step(ng, initial_state(ng), 0)
        assert out.ev_kw_each[0] == pytest.approx(2.0)
        assert out.ev_kw_each[1] == pytest.approx(1.0)
        assert out.ens_kw == 0.0

    def test_boundary_net_load_zero_is_noop(self):
        ng = make_ngrid(base=2.0, pv=2.0, bess=StorageUnit(10.0, 5.0, 5.0))
        out, _ = islanded_step(ng, initial_state(ng), 0)
        assert out.bess_kw == 0.0
        assert out.ens_kw == 0.0 and out.spilled_kw == 0.0

    def test_bad_state_rejected(self):
        ng = make_ngrid(bess=StorageUnit(10.0, 5.0, 5.0))
        state = initial_state(ng)
        state.bess_soc_kwh = 12.0
        with pytest.raises(ValueError):
            islanded_step(ng, state, 0)

    def test_fuzz_invariants(self):
        rng = random.Random(42)
        for _ in range(500):
            ngrid, state, hour = random_islanded_case(rng)
            pre_bess, pre_ev = snapshot_pre_dispatch(ngrid, state, hour)
            out, state = islanded_step(ngrid, state, hour)
            check_islanded_invariants(ngrid, pre_bess, pre_ev, out, state)


class TestConnectedStep:
    def test_recharges_toward_full(self):
        ng = make_ngrid(base=4.0, pv=1.0, bess=StorageUnit(10.0, 5.0, 8.0))
        out, state = connected_step(ng, initial_state(ng), 0)
        assert out.bess_kw == pytest.approx(-2.0)
        assert out.grid_kw == pytest.approx(5.0)
        assert state.bess_soc_kwh == pytest.approx(10.0)

    def test_surplus_exported_not_spilled(self):
        ng = make_ngrid(base=0.0, pv=5.0, bess=StorageUnit(10.0, 5.0, 10.0))
        out, _ = connected_step(ng, initial_state(ng), 0)
        assert out.grid_kw == pytest.approx(-5.0)
        assert out.spilled_kw == 0.0 and out.ens_kw == 0.0

    def test_deferrable_served_at_earliest_hour(self):
        task = DeferrableTask(energy_kwh=3.0, power_kw=1.0, earliest_hour=10, deadline_hour=14)
        ng = make_ngrid(base=1.0, deferrables=[task])
        state = initial_state(ng)
        out, state = connected_step(ng, state, 9)
        assert out.deferrable_kw == 0.0
        out, state = connected_step(ng, state, 10)
        assert out.deferrable_kw == pytest.approx(1.0)
        assert state.deferred_energy_kwh[0] == pytest.approx(2.0)

    def test_power_balance(self):
        ev = always_plugged_ev(capacity=60.0, p_max=7.0, soc=30.0)
        hvac = HvacAsset(HourlyProfile.constant(1.5, H), HourlyProfile.constant(0.5, H))
        ng = make_ngrid(base=2.0, pv=1.0, bess=StorageUnit(10.0, 5.0, 3.0),
                        evs=[ev], hvac=hvac)
        out, _ = connected_step(ng, initial_state(ng), 0)
        assert abs(power_balance_residual(out)) <= 1e-9

    def test_sor_precharge_policy_limits_target(self):
        from ngridsim.sor import SorTable
        table = SorTable({("F1", h): (0.5 if h == 2 else 0.0) for h in range(H)})
        policy = PrechargePolicy(mode="sor", sor=table)
        ng = make_ngrid(base=1.0, bess=StorageUnit(10.0, 5.0, 0.0))
        out, state = connected_step(ng, initial_state(ng), 0, policy)
        # Worst next-hours risk is 0.5 -> target 5 kWh from empty.
        assert state.bess_soc_kwh == pytest.approx(5.0)
        assert out.bess_kw == pytest.approx(-5.0)


class TestSrCapacity:
    def _outcome(self, connected=True, hour=0, bess_kw=0.0, ev_each=(), hvac_kw=0.0):
        return DispatchOutcome(hour=hour, connected=connected, served_load_kw=0.0,
                               ens_kw=0.0, spilled_kw=0.0, pv_kw=0.0, bess_kw=bess_kw,
                               ev_kw=sum(ev_each), hvac_kw=hvac_kw, deferrable_kw=0.0,
                               grid_kw=0.0, ev_kw_each=tuple(ev_each))

    def test_discharging_headroom(self):
        ng = make_ngrid(bess=StorageUnit(30.0, 5.0, 20.0))
        state = NGridState(bess_soc_kwh=20.0, ev_soc_kwh=[], deferred_energy_kwh=[])
        offer = sr_capacity(ng, state, self._outcome(bess_kw=2.0))
        assert offer.bess_sr_kw == pytest.approx(3.0)

    def test_charging_mode_capped_by_stored_energy(self):
        ng = make_ngrid(bess=StorageUnit(30.0, 5.0, 2.0))
        state = NGridState(bess_soc_kwh=2.0, ev_soc_kwh=[], deferred_energy_kwh=[])
        offer = sr_capacity(ng, state, self._outcome(bess_kw=-4.0))
        assert offer.bess_sr_kw == pytest.approx(2.0)

    def test_unplugged_ev_offers_nothing(self):
        ev = ElectricVehicle(battery=StorageUnit(60.0, 7.0, 30.0),
                             plug_hours=frozenset({5}), soc_on_arrival_kwh=30.0)
        ng = make_ngrid(evs=[ev])
        state = NGridState(bess_soc_kwh=0.0, ev_soc_kwh=[30.0], deferred_energy_kwh=[])
        offer = sr_capacity(ng, state, self._outcome(hour=0, ev_each=(0.0,)))
        assert offer.ev_sr_kw == 0.0

    def test_hvac_comfort_floor_cap(self):
        hvac = HvacAsset(HourlyProfile.constant(3.0, H), HourlyProfile.constant(1.0, H))
        ng = make_ngrid(hvac=hvac)
        state = NGridState(bess_soc_kwh=0.0, ev_soc_kwh=[], deferred_energy_kwh=[])
        offer = sr_capacity(ng, state, self._outcome(hvac_kw=3.0))
        assert offer.hvac_sr_kw == pytest.approx(2.0)

    def test_islanded_offer_is_error(self):
        ng = make_ngrid()
        state = NGridState(bess_soc_kwh=0.0, ev_soc_kwh=[], deferred_energy_kwh=[])
        with pytest.raises(ValueError):
            sr_capacity(ng, state, self._outcome(connected=False))

    def test_components_bounded_by_p_max(self):
        rng = random.Random(1)
        for _ in range(100):
            p_max = rng.uniform(1.0, 8.0)
            cap = rng.uniform(2.0, 40.0)
            soc = rng.uniform(0.0, cap)
            power = rng.uniform(-p_max, p_max)
            ng = make_ngrid(bess=StorageUnit(cap, p_max, soc))
            state = NGridState(bess_soc_kwh=soc, ev_soc_kwh=[], deferred_energy_kwh=[])
            offer = sr_capacity(ng, state, self._outcome(bess_kw=power))
            assert 0.0 <= offer.bess_sr_kw <= p_max + 1e-12


class TestRampCapacity:
    def _outcome(self, **kw):
        return TestSrCapacity()._outcome(**kw)

    def test_islanded_zero(self):
        ng = make_ngrid(bess=StorageUnit(10.0, 5.0, 10.0))
        state = NGridState(bess_soc_kwh=10.0, ev_soc_kwh=[], deferred_energy_kwh=[])
        ramp = ramp_capacity(ng, state, self._outcome(connected=False))
        assert (ramp.ru_kw, ramp.rd_kw) == (0.0, 0.0)

    def test_idle_full_bess(self):
        ng = make_ngrid(bess=StorageUnit(10.0, 5.0, 10.0))
        state = NGridState(bess_soc_kwh=10.0, ev_soc_kwh=[], deferred_energy_kwh=[])
        ramp = ramp_capacity(ng, state, self._outcome())
        assert ramp.ru_kw == pytest.approx(5.0)
        assert ramp.rd_kw == 0.0

    def test_idle_empty_bess(self):
        ng = make_ngrid(bess=StorageUnit(10.0, 5.0, 0.0))
        state = NGridState(bess_soc_kwh=0.0, ev_soc_kwh=[], deferred_energy_kwh=[])
        ramp = ramp_capacity(ng, state, self._outcome())
        assert ramp.ru_kw == 0.0
        assert ramp.rd_kw == pytest.approx(5.0)

    def test_ru_non_increasing_in_delivery_hours(self):
        ng = make_ngrid(bess=StorageUnit(10.0, 5.0, 4.0))
        state = NGridState(bess_soc_kwh=4.0, ev_soc_kwh=[], deferred_energy_kwh=[])
        outcome = self._outcome(bess_kw=1.0)
        values = [ramp_capacity(ng, state, outcome, delivery_hours=d).ru_kw
                  for d in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_derate_scales_power_limits(self):
        ng = make_ngrid(bess=StorageUnit(20.0, 5.0, 10.0))
        state = NGridState(bess_soc_kwh=10.0, ev_soc_kwh=[], deferred_energy_kwh=[])
        full = ramp_capacity(ng, state, self._outcome())
        derated = ramp_capacity(ng, state, self._outcome(), derate=0.5)
        assert derated.ru_kw == pytest.approx(full.ru_kw * 0.5)
        assert derated.rd_kw == pytest.approx(full.rd_kw * 0.5)


class TestSufficiency:
    def test_enough_storage_means_zero_ens(self):
        ng = make_ngrid(base=2.0, pv=0.0, bess=StorageUnit(60.0, 5.0, 60.0))
        state = initial_state(ng)
        total_ens = 0.0
        for h in range(H):
            out, state = islanded_step(ng, state, h)
            total_ens += out.ens_kw
        assert total_ens == 0.0

    def test_soc_stays_in_bounds_under_random_outage_patterns(self):
        rng = random.Random(9)
        ev = always_plugged_ev(capacity=30.0, p_max=4.0, soc=10.0)
        ng = make_ngrid(base=3.0, pv=2.0, bess=StorageUnit(10.0, 5.0, 5.0), evs=[ev])
        for _ in range(50):
            state = initial_state(ng)
            for h in range(H):
                if rng.random() < 0.5:
                    _, state = islanded_step(ng, state, h)
                else:
                    _, state = connected_step(ng, state, h)
                assert -1e-9 <= state.bess_soc_kwh <= 10.0 + 1e-9
                assert -1e-9 <= state.ev_soc_kwh[0] <= 30.0 + 1e-9


def stored_kwh(power_kw, unit):
    """Energy a storage unit gains for a power flow (positive = discharge)."""
    return -power_kw * unit.eta_charge if power_kw < 0.0 else -power_kw / unit.eta_discharge


class TestWholeHorizon:
    @pytest.mark.parametrize("precharge", ["full", "sor"])
    def test_fuzz_ledgers_over_mixed_days(self, precharge):
        """Random days from all connected to all islanded: every hour keeps
        power balance and SoC bounds, and over the day the storage and task
        energy ledgers close."""
        rng = random.Random(f"horizon-{precharge}")
        for case in range(150):
            fleet = random_fleet(rng, n_feeders=1, ngrids_per_feeder=4)
            share = case % 5 / 4  # islanded share: 0, 1/4, ..., 1
            mask = [rng.random() < share for _ in range(H)]
            sor = SorTable({("F0", h): rng.random() for h in range(H)})
            policy = PrechargePolicy(mode=precharge, sor=sor)
            for ngrid in fleet.ngrids:
                state = initial_state(ngrid)
                bess_start, bess_flow = state.bess_soc_kwh, 0.0
                ev_start, ev_flow = list(state.ev_soc_kwh), [0.0] * len(ngrid.evs)
                task_kwh = 0.0
                for h in range(H):
                    for i, ev in enumerate(ngrid.evs):
                        if arrives(ev, h):  # close the ledger, then reset
                            assert state.ev_soc_kwh[i] - ev_start[i] == \
                                pytest.approx(ev_flow[i], abs=TOL)
                            ev_start[i], ev_flow[i] = ev.soc_on_arrival_kwh, 0.0
                    if mask[h]:
                        out, state = islanded_step(ngrid, state, h)
                    else:
                        out, state = connected_step(ngrid, state, h, policy)
                    assert abs(power_balance_residual(out)) <= TOL
                    if ngrid.bess is not None:
                        assert -TOL <= state.bess_soc_kwh <= ngrid.bess.capacity_kwh + TOL
                        bess_flow += stored_kwh(out.bess_kw, ngrid.bess)
                    for i, ev in enumerate(ngrid.evs):
                        assert -TOL <= state.ev_soc_kwh[i] <= ev.battery.capacity_kwh + TOL
                        ev_flow[i] += stored_kwh(out.ev_kw_each[i], ev.battery)
                    task_kwh += (out.served_load_kw + out.ens_kw
                                 - ngrid.base_load[h] - out.hvac_kw)
                assert state.bess_soc_kwh - bess_start == pytest.approx(bess_flow, abs=TOL)
                for i in range(len(ngrid.evs)):
                    assert state.ev_soc_kwh[i] - ev_start[i] == pytest.approx(ev_flow[i], abs=TOL)
                assert task_kwh == pytest.approx(
                    sum(t.energy_kwh for t in ngrid.deferrables), abs=TOL)
                assert state.deferred_energy_kwh == [0.0] * len(ngrid.deferrables)


def with_signed_zeros(rng, fleet):
    """``fleet`` with some inputs set to -0.0, which validation accepts: a
    BESS's or EV's starting SoC, and load, PV and HVAC floor hours (half of
    the zero-valued ones, a tenth of the others)."""
    def flip(profile):
        return HourlyProfile([-0.0 if rng.random() < (0.5 if v == 0.0 else 0.1) else v
                              for v in profile.values])

    ngrids = []
    for ng in fleet.ngrids:
        bess = ng.bess
        if bess is not None and rng.random() < 0.3:
            bess = dataclasses.replace(bess, soc_kwh=-0.0)
        evs = tuple(dataclasses.replace(ev, soc_on_arrival_kwh=-0.0) if rng.random() < 0.3
                    else ev for ev in ng.evs)
        hvac = ng.hvac and HvacAsset(ng.hvac.p_normal_kw, flip(ng.hvac.p_min_kw))
        ngrids.append(dataclasses.replace(ng, base_load=flip(ng.base_load), pv=flip(ng.pv),
                                          bess=bess, evs=evs, hvac=hvac))
    return Fleet(fleet.feeders, tuple(ngrids))


def padded_bits(values, width):
    """Bytes of ``values`` as float64, zero-padded to ``width`` slots."""
    return np.array(list(values) + [0.0] * (width - len(values)), dtype=float).tobytes()


class TestKernel:
    """The block kernel repeats the scalar steppers bit for bit."""

    @pytest.mark.parametrize("precharge", ["full", "sor"])
    def test_fuzz_matches_scalar_steppers(self, precharge):
        """Random 4-n-Grid days (0-3 EVs, 0-2 tasks, efficiencies below 1,
        a BESS or HVAC sometimes missing, every other day with -0.0
        inputs), islanded share from 0 to 1: every
        hour's served load, ENS, spill, storage flows, state and, for
        connected hours, the ramp over the whole day equal the scalar
        steppers' by bytes; padding state slots stay +0.0."""
        rng = random.Random(f"kernel-{precharge}")
        for case in range(100):
            fleet = random_fleet(rng, n_feeders=1, ngrids_per_feeder=4, max_evs=3)
            if case % 2:
                fleet = with_signed_zeros(rng, fleet)
                assert validate_fleet(fleet, H) == []
            n = len(fleet.ngrids)
            share = case % 5 / 4  # islanded share: 0, 1/4, ..., 1
            mask = [rng.random() < share for _ in range(H)]
            policy = PrechargePolicy(mode=precharge,
                                     sor=SorTable({("F0", h): rng.random() for h in range(H)}))
            derate = np.array([[rng.uniform(0.5, 1.0)] * n for _ in range(H)])
            delivery_hours = rng.choice([0.5, 1.0, 2.0])
            arrays = FleetArrays.build(fleet.ngrids, H)
            frac = np.array([[policy.target_fraction("F0", h, H)] * n for h in range(H)])
            n_ev, n_task = arrays.ev_capacity.shape[1], arrays.task_energy.shape[1]

            state, after, flows = arrays.initial_state(), [], []
            for h in range(H):
                out, state = step(arrays, state, h, mask[h], frac[h])
                after.append(state)
                flows.append(out)
            ru, rd = ramp(arrays, FleetState(*map(np.stack, zip(*after))),
                          np.stack([f.bess_kw for f in flows]),
                          np.stack([f.ev_kw for f in flows]), derate, delivery_hours)

            for r, ngrid in enumerate(fleet.ngrids):
                scalar = initial_state(ngrid)
                for h in range(H):
                    if mask[h]:
                        out, scalar = islanded_step(ngrid, scalar, h)
                    else:
                        out, scalar = connected_step(ngrid, scalar, h, policy)
                    got, where = flows[h], (case, ngrid.id, h)
                    for name, value in (("served", out.served_load_kw), ("ens", out.ens_kw),
                                        ("spilled", out.spilled_kw), ("bess_kw", out.bess_kw)):
                        assert getattr(got, name)[r].tobytes() == np.float64(value).tobytes(), \
                            (where, name)
                    assert got.ev_kw[r, :len(ngrid.evs)].tobytes() == \
                        padded_bits(out.ev_kw_each, len(ngrid.evs)), where
                    assert after[h].bess[r].tobytes() == np.float64(scalar.bess_soc_kwh).tobytes()
                    assert after[h].ev[r].tobytes() == padded_bits(scalar.ev_soc_kwh, n_ev)
                    assert after[h].tasks[r].tobytes() == \
                        padded_bits(scalar.deferred_energy_kwh, n_task), where
                    if not mask[h]:
                        want = ramp_capacity(ngrid, scalar, out, delivery_hours, derate[h, r])
                        assert ru[h, r].tobytes() == np.float64(want.ru_kw).tobytes(), where
                        assert rd[h, r].tobytes() == np.float64(want.rd_kw).tobytes(), where

    @pytest.mark.parametrize("part", ["bess", "ev", "tasks"])
    def test_corrupt_state_names_ngrid(self, part):
        ev = always_plugged_ev(capacity=10.0, p_max=2.0, soc=5.0)
        task = DeferrableTask(energy_kwh=3.0, power_kw=1.0, earliest_hour=0, deadline_hour=23)
        healthy = make_ngrid(base=1.0)
        corrupt = NGrid(id="BAD", feeder_id="F1", base_load=HourlyProfile.constant(1.0, H),
                        pv=HourlyProfile.zeros(H), bess=StorageUnit(10.0, 5.0, 5.0),
                        evs=(ev,), deferrables=(task,))
        arrays = FleetArrays.build([healthy, corrupt], H)
        state = arrays.initial_state()
        getattr(state, part)[1] = -1.0
        for islanded in (False, True):
            with pytest.raises(ValueError, match="n-Grid 'BAD'"):
                step(arrays, state, 0, islanded, np.ones(2))


# Names of the per-n-Grid dispatch path, which lives in tests/scalar_dispatch.py.
SCALAR_NAMES = {"NGridState", "DispatchOutcome", "SrOffer", "RampCapacity", "PrechargePolicy",
                "initial_state", "islanded_step", "connected_step", "_storage_sr",
                "sr_capacity", "ramp_capacity", "_check_state", "_apply_ev_arrivals",
                "_discharge_caps", "_charge_caps", "_sum", "_allocate"}


def test_library_holds_one_dispatch_implementation():
    """No library module defines or imports a name of the scalar dispatch
    path, apart from the two placeholders in harness, and the package
    exports none of them."""
    found = []
    for path in sorted(pathlib.Path(ngridsim.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                names = []
            found += [(path.name, name) for name in names if name in SCALAR_NAMES]
    assert found == [("harness.py", "connected_step"), ("harness.py", "islanded_step")]
    assert not SCALAR_NAMES & set(dir(ngridsim))
    assert harness.connected_step is not harness.islanded_step
    for placeholder in (harness.connected_step, harness.islanded_step):
        with pytest.raises(NotImplementedError, match="tests/scalar_dispatch.py"):
            placeholder()
