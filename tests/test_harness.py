import filecmp
import math
import random
import threading
from dataclasses import replace

import numpy as np
import pytest

from fuzzing import random_fleet
from ngridsim import harness
from ngridsim.casestudy import build_case_study, write_bundle
from ngridsim.cli import main
from ngridsim.config import load_scenario
from ngridsim.fleet import (Feeder, Fleet, HourlyProfile, NGrid, StorageUnit,
                            validate_fleet)
from ngridsim.harness import (SERIES_FIELDS, FleetSeries, OutageEvent,
                              Scenario, ValidationError, compute_shadow,
                              emit_report, feeder_rng, islanded_masks,
                              run_replication, run_simulation, sample_outages,
                              sweep_reports, validate_scenario)
from ngridsim.sor import SorTable
from oracles import (replication_from_hour0, sample_outages_scan,
                     simulation_from_hour0)
from scalar_dispatch import (PrechargePolicy, connected_step, initial_state,
                             islanded_step, ramp_capacity)
from test_cli import write_tiny_bundle

H = 24


def flat_sor(feeders, p=0.0, overrides=None):
    entries = {(f, h): p for f in feeders for h in range(H)}
    if overrides:
        entries.update(overrides)
    return SorTable(entries)


def single_ngrid_scenario(load=2.0, pv=0.0, bess=None, sor=None, **kw):
    ng = NGrid(id="N1", feeder_id="F1",
               base_load=HourlyProfile.constant(load, H),
               pv=HourlyProfile.constant(pv, H), bess=bess)
    fleet = Fleet(feeders=(Feeder("F1", ("N1",)),), ngrids=(ng,))
    if sor is None:
        sor = flat_sor(["F1"])
    return Scenario(fleet=fleet, sor=sor, horizon=H, **kw)


class TestSampleOutages:
    def rng_factory(self, seed=0, rep=0):
        return lambda fid: feeder_rng(seed, rep, fid)

    def test_zero_sor_is_empty(self):
        sor = flat_sor(["F1", "F2"])
        assert sample_outages(sor, 1.0, H, self.rng_factory()) == []

    def test_certain_event(self):
        sor = flat_sor(["F1"], overrides={("F1", 5): 1.0})
        events = sample_outages(sor, 1.0, H, self.rng_factory())
        assert events == [OutageEvent("F1", 5, 1)]

    def test_suppression_while_active(self):
        sor = flat_sor(["F1"], p=1.0)
        events = sample_outages(sor, 4.0, H, self.rng_factory())
        assert [e.start_hour for e in events] == [0, 4, 8, 12, 16, 20]

    def test_truncated_at_horizon(self):
        sor = flat_sor(["F1"], overrides={("F1", 22): 1.0})
        events = sample_outages(sor, 5.0, H, self.rng_factory())
        assert events == [OutageEvent("F1", 22, 2)]

    def test_deterministic_given_stream(self):
        sor = flat_sor(["F1", "F2"], p=0.2)
        a = sample_outages(sor, 2.0, H, self.rng_factory(seed=7, rep=3))
        b = sample_outages(sor, 2.0, H, self.rng_factory(seed=7, rep=3))
        assert a == b

    def test_start_draws_independent_of_repair_time(self):
        # First start per feeder never depends on the repair duration.
        sor = flat_sor(["F1", "F2", "F3"], p=0.15)
        for rep in range(50):
            firsts = {}
            for repair in (1.0, 3.0, 5.0):
                events = sample_outages(sor, repair, H, self.rng_factory(rep=rep))
                for f in ("F1", "F2", "F3"):
                    starts = [e.start_hour for e in events if e.feeder_id == f]
                    firsts.setdefault(f, set()).add(starts[0] if starts else None)
            assert all(len(v) == 1 for v in firsts.values())

    @pytest.mark.parametrize("repair", [0.5, 1.0, 2.5, 24.0, 30.5])
    def test_matches_scan_oracle(self, repair):
        """Random tables mixing certain, impossible and random hours: the
        same events in the same order as a scan over every feeder-hour,
        also over a horizon shorter than the table's."""
        rng = random.Random(f"outages-{repair}")
        seen_hour_23 = False
        for case in range(40):
            feeders = [f"F{k}" for k in rng.sample(range(20), rng.randint(1, 5))]
            entries = {(f, h): rng.choice([0.0, 1.0, 0.5 * rng.random()])
                       for f in feeders for h in range(H)}
            if case % 4 == 0:  # the first feeder fails at hour 23 only
                entries.update({(feeders[0], h): float(h == H - 1) for h in range(H)})
            sor = SorTable(entries)
            for rep in range(3):
                for horizon in (H, H - 5):
                    got = sample_outages(sor, repair, horizon, self.rng_factory(case, rep))
                    want = sample_outages_scan(sor, repair, horizon,
                                               self.rng_factory(case, rep))
                    assert got == want, (case, rep, horizon)
                    seen_hour_23 |= any(ev.start_hour == H - 1 for ev in got)
        assert seen_hour_23

    def test_empirical_frequency(self):
        sor = flat_sor(["F1"], overrides={("F1", 0): 0.3})
        hits = 0
        n = 10_000
        for rep in range(n):
            events = sample_outages(sor, 1.0, H, self.rng_factory(seed=99, rep=rep))
            hits += any(e.start_hour == 0 for e in events)
        assert 0.286 <= hits / n <= 0.314  # 3-sigma binomial band around 0.3


def test_islanded_masks():
    """One mask per disturbed feeder, in feeder id order, covering each of
    its outages."""
    events = [OutageEvent("F2", 3, 2), OutageEvent("F10", 23, 1),
              OutageEvent("F2", 10, 3), OutageEvent("F1", 0, 24)]
    masks = islanded_masks(events, H)
    assert [f for f, _ in masks] == ["F1", "F10", "F2"]
    assert [np.flatnonzero(mask).tolist() for _, mask in masks] == \
        [list(range(H)), [23], [3, 4, 10, 11, 12]]
    assert islanded_masks([], H) == []


class TestRunReplication:
    def test_zero_sor_no_loss(self):
        scenario = single_ngrid_scenario(bess=StorageUnit(10.0, 5.0, 10.0))
        series, events = run_replication(scenario, 0)
        assert events == []
        assert np.all(series.ens_kw == 0.0)
        assert np.all(series.spilled_kw == 0.0)
        np.testing.assert_array_equal(series.ru_avail_kw, series.ru_total_kw)
        np.testing.assert_array_equal(series.rd_avail_kw, series.rd_total_kw)

    def test_full_day_outage_no_storage(self):
        sor = flat_sor(["F1"], overrides={("F1", 0): 1.0})
        scenario = single_ngrid_scenario(load=2.0, sor=sor, repair_hours=24.0)
        series, events = run_replication(scenario, 0)
        assert events == [OutageEvent("F1", 0, 24)]
        assert series.ens_kw.sum() == pytest.approx(48.0)
        assert np.all(series.ru_avail_kw == 0.0)

    def test_full_day_outage_bess_offsets(self):
        sor = flat_sor(["F1"], overrides={("F1", 0): 1.0})
        scenario = single_ngrid_scenario(load=2.0, sor=sor, repair_hours=24.0,
                                         bess=StorageUnit(10.0, 5.0, 10.0))
        series, _ = run_replication(scenario, 0)
        assert series.ens_kw.sum() == pytest.approx(38.0)

    def test_additivity_over_ngrids(self):
        ngrids = tuple(
            NGrid(id=f"N{i}", feeder_id="F1",
                  base_load=HourlyProfile.constant(1.0 + i, H),
                  pv=HourlyProfile.zeros(H))
            for i in range(3))
        fleet = Fleet(feeders=(Feeder("F1", tuple(n.id for n in ngrids)),), ngrids=ngrids)
        sor = flat_sor(["F1"], overrides={("F1", 3): 1.0})
        scenario = Scenario(fleet=fleet, sor=sor, horizon=H, repair_hours=2.0)
        series, _ = run_replication(scenario, 0)
        # Hours 3 and 4 islanded: per-hour fleet ENS is the sum of each
        # n-Grid's unserved constant load.
        assert series.ens_kw[3] == pytest.approx(1.0 + 2.0 + 3.0)
        assert series.ens_kw[4] == pytest.approx(6.0)
        assert series.ens_kw.sum() == pytest.approx(12.0)

    def test_healthy_feeder_ramp_unchanged(self):
        ng1 = NGrid(id="N1", feeder_id="F1", base_load=HourlyProfile.constant(1.0, H),
                    pv=HourlyProfile.zeros(H), bess=StorageUnit(10.0, 5.0, 10.0))
        ng2 = NGrid(id="N2", feeder_id="F2", base_load=HourlyProfile.constant(1.0, H),
                    pv=HourlyProfile.zeros(H), bess=StorageUnit(10.0, 5.0, 10.0))
        fleet = Fleet(feeders=(Feeder("F1", ("N1",)), Feeder("F2", ("N2",))),
                      ngrids=(ng1, ng2))
        sor = flat_sor(["F1", "F2"], overrides={("F1", 5): 1.0})
        scenario = Scenario(fleet=fleet, sor=sor, horizon=H, repair_hours=1.0)
        series, _ = run_replication(scenario, 0)
        # Islanded hour: only F1's contribution drops out.
        assert series.ru_total_kw[5] == pytest.approx(10.0)
        assert series.ru_avail_kw[5] == pytest.approx(5.0)
        for h in range(H):
            if h != 5:
                assert series.ru_avail_kw[h] == series.ru_total_kw[h]

    def test_feeder_without_ngrids(self):
        """A feeder with no n-Grids can fail, alone in a chunk or with
        others, and its outages change no series."""
        ng = NGrid(id="N1", feeder_id="F1", base_load=HourlyProfile.constant(1.0, H),
                   pv=HourlyProfile.constant(0.5, H), bess=StorageUnit(5.0, 1.0, 5.0))
        fleet = Fleet(feeders=(Feeder("F1", ("N1",)), Feeder("F2", ())), ngrids=(ng,))
        assert validate_fleet(fleet, H) == []
        for f1_fails in (False, True):
            overrides = {("F2", 3): 1.0, ("F1", 5): float(f1_fails)}
            scenario = Scenario(fleet=fleet, sor=flat_sor(["F1", "F2"], overrides=overrides),
                                horizon=H, repair_hours=2.0)
            shadow = compute_shadow(scenario)
            got, events = run_replication(scenario, 0)
            want, want_events = replication_from_hour0(scenario, 0, shadow)
            assert events == want_events == \
                [OutageEvent("F1", 5, 2)] * f1_fails + [OutageEvent("F2", 3, 2)]
            for name in SERIES_FIELDS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestShadowTables:
    """The shadow's per-row recharge targets and ramp derating, against the
    scalar steppers' per-(feeder, hour) lookups."""

    @pytest.mark.parametrize("seed", range(4))
    def test_precharge_targets_match_policy(self, seed):
        """Every n-Grid-hour's target equals ``PrechargePolicy.target_fraction``
        by bytes: ties, +0.0 against -0.0, and high risk in the last
        lookahead hours, where the window is cut at the horizon."""
        rng = random.Random(f"targets-{seed}")
        fleet = random_fleet(rng, n_feeders=4, ngrids_per_feeder=2)
        levels = [0.0, -0.0, 0.25, 0.25, 0.5, 1.0]
        entries = {(f.id, h): rng.choice(levels + [rng.random()])
                   for f in fleet.feeders for h in range(H)}
        entries.update({("F0", h): -0.0 for h in range(H)})  # never above the 0.0 start
        entries.update({("F1", h): [0.7, 0.7, -0.0, 0.9][h - H + 4] for h in range(H - 4, H)})
        sor = SorTable(entries)
        for precharge in ("full", "sor"):
            frac = compute_shadow(Scenario(fleet=fleet, sor=sor, horizon=H,
                                           precharge=precharge)).frac
            policy = PrechargePolicy(mode=precharge, sor=sor)
            want = np.array([[policy.target_fraction(ng.feeder_id, h, H) for ng in fleet.ngrids]
                             for h in range(H)])
            assert frac.tobytes() == want.tobytes(), precharge
            if precharge == "full":
                assert (frac == 1.0).all()
        assert not np.signbit(frac).any() and (frac[H - 4:] > 0.0).any()

    def test_derate_reaches_ramp_totals(self):
        """Two feeders derated at different hours: each feeder's ramp-up and
        ramp-down totals, and the fleet's, equal the scalar ramp capacity of
        a grid-tied day summed in listing order, by bytes."""
        fleet = random_fleet(random.Random("derate"), n_feeders=2, ngrids_per_feeder=3)
        derate = {("F0", 8): 0.5, ("F0", 21): 0.75, ("F1", 2): 0.6, ("F1", 19): 0.25}
        scenario = Scenario(fleet=fleet, sor=flat_sor(["F0", "F1"], p=0.1), horizon=H,
                            derate=derate, sr_delivery_hours=1.5, precharge="sor")
        shadow = compute_shadow(scenario)
        plain = compute_shadow(replace(scenario, derate=None))
        policy = PrechargePolicy(mode="sor", sor=scenario.sor)
        fleet_ru, fleet_rd = np.zeros(H), np.zeros(H)
        for feeder in fleet.feeders:
            ru, rd = np.zeros(H), np.zeros(H)
            for nid in feeder.ngrid_ids:
                ngrid = fleet.ngrid(nid)
                state = initial_state(ngrid)
                for h in range(H):
                    out, state = connected_step(ngrid, state, h, policy)
                    cap = ramp_capacity(ngrid, state, out, 1.5, derate.get((feeder.id, h), 1.0))
                    ru[h] += cap.ru_kw
                    rd[h] += cap.rd_kw
            totals = shadow.totals[feeder.id]
            assert totals[2].tobytes() == ru.tobytes() and totals[3].tobytes() == rd.tobytes()
            derated = [h for f, h in derate if f == feeder.id]
            changed = np.flatnonzero((totals[2:] != plain.totals[feeder.id][2:]).any(axis=0))
            assert set(changed) == set(derated)
            fleet_ru, fleet_rd = fleet_ru + ru, fleet_rd + rd
        for row, want in ((4, fleet_ru), (5, fleet_ru), (6, fleet_rd), (7, fleet_rd)):
            assert shadow.baseline[row].tobytes() == want.tobytes()


@pytest.fixture
def step_log(monkeypatch):
    """Records (n-Grid ids of the stepped rows, hour, islanded) for every
    kernel step on given rows the harness makes through its module-level
    ``step``; the shadow's whole-fleet steps are not recorded."""
    log = []
    kernel = harness.step

    def counted(block, state, hour, islanded, frac, rows=None):
        if rows is not None:
            log.append((tuple(block.ids[r] for r in rows), hour, islanded))
        return kernel(block, state, hour, islanded, frac, rows)

    monkeypatch.setattr(harness, "step", counted)
    return log


def ngrid_hours(step_log):
    """The hours each logged n-Grid was stepped at, in call order; no
    n-Grid is stepped twice in one hour."""
    hours = {}
    for ids, hour, _ in step_log:
        for nid in ids:
            hours.setdefault(nid, []).append(hour)
    for nid, stepped in hours.items():
        assert len(set(stepped)) == len(stepped), (nid, stepped)
    return hours


class TestIncrementalReplication:
    """Resuming from the shadow and stopping at reconvergence must give
    bit-identical series to re-dispatching every disturbed n-Grid from
    hour 0."""

    @staticmethod
    def random_scenario(seed, precharge):
        rng = random.Random(seed)
        fleet = random_fleet(rng, n_feeders=3, ngrids_per_feeder=3)
        entries = {(f.id, h): rng.uniform(0.0, 0.4) for f in fleet.feeders for h in range(H)}
        # F0 is certain to fail late in the day, so its last outage is cut
        # off at hour 23.
        entries.update({("F0", h): 1.0 for h in (21, 22, 23)})
        return Scenario(fleet=fleet, sor=SorTable(entries), horizon=H,
                        repair_hours=rng.choice([1.0, 2.5, 4.0]),
                        master_seed=seed, precharge=precharge)

    @pytest.mark.parametrize("precharge", ["full", "sor"])
    def test_bit_identical_to_from_hour0_oracle(self, precharge, step_log):
        seen = {"several outages": False, "ends at hour 23": False,
                "reconverged": False, "never reconverged": False}
        for seed in range(12):
            scenario = self.random_scenario(seed, precharge)
            shadow = compute_shadow(scenario)
            for rep in range(4):
                step_log.clear()
                got, events = run_replication(scenario, rep)
                want, want_events = replication_from_hour0(scenario, rep, shadow)
                assert events == want_events
                for name in SERIES_FIELDS:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), \
                        (seed, rep, name)
                last = {}
                for ev in events:
                    last[ev.feeder_id] = ev.start_hour + ev.duration_hours - 1
                    seen["ends at hour 23"] |= last[ev.feeder_id] == H - 1
                seen["several outages"] |= len(events) > len(last)
                # Every n-Grid of a disturbed feeder is stepped at the same
                # run of hours, from the feeder's first outage hour on; no
                # other n-Grid is stepped.
                hours = ngrid_hours(step_log)
                first = {ev.feeder_id: ev.start_hour for ev in reversed(events)}
                for feeder in scenario.fleet.feeders:
                    stepped = [hours.pop(nid, []) for nid in feeder.ngrid_ids]
                    if feeder.id not in first:
                        assert stepped == [[]] * len(stepped), (seed, rep, feeder.id)
                        continue
                    final = max(stepped[0])
                    assert stepped == [list(range(first[feeder.id], final + 1))] * len(stepped)
                    if last[feeder.id] < H - 2:
                        seen["reconverged"] |= final < H - 1
                        seen["never reconverged"] |= final == H - 1
                assert hours == {}
        assert all(seen.values()), seen

    @pytest.mark.parametrize("k", [0, 9, 23])
    def test_no_step_before_first_outage(self, k, step_log):
        """F1 is islanded from hour k for two hours (one when k = 23). N2
        holds no state and rejoins the shadow after its first connected
        hour; N1's BESS refills at 0.5 kW and rejoins one hour later. The
        feeder is stepped from hour k up to the first hour after its outage
        at which both match the shadow, and F2 is never stepped."""
        n1 = NGrid(id="N1", feeder_id="F1", base_load=HourlyProfile.constant(1.0, H),
                   pv=HourlyProfile.constant(0.5, H), bess=StorageUnit(10.0, 0.5, 10.0))
        n2 = NGrid(id="N2", feeder_id="F1", base_load=HourlyProfile.constant(2.0, H),
                   pv=HourlyProfile.zeros(H))
        n3 = NGrid(id="N3", feeder_id="F2", base_load=HourlyProfile.constant(1.0, H),
                   pv=HourlyProfile.zeros(H), bess=StorageUnit(10.0, 5.0, 10.0))
        fleet = Fleet(feeders=(Feeder("F1", ("N1", "N2")), Feeder("F2", ("N3",))),
                      ngrids=(n1, n2, n3))
        sor = flat_sor(["F1", "F2"], overrides={("F1", k): 1.0})
        scenario = Scenario(fleet=fleet, sor=sor, horizon=H, repair_hours=2.0)
        step_log.clear()
        run_replication(scenario, 0)

        # The stopping hour, found with the scalar steppers alone.
        last = min(k + 1, H - 1)
        states = {ng.id: initial_state(ng) for ng in (n1, n2)}
        shadow_states = {ng.id: initial_state(ng) for ng in (n1, n2)}
        stop = H - 1
        for h in range(H):
            for ng in (n1, n2):
                if k <= h <= last:
                    _, states[ng.id] = islanded_step(ng, states[ng.id], h)
                else:
                    _, states[ng.id] = connected_step(ng, states[ng.id], h)
                _, shadow_states[ng.id] = connected_step(ng, shadow_states[ng.id], h)
            if h > last and states == shadow_states:
                stop = h
                break
        assert stop == {0: 3, 9: 12, 23: 23}[k]
        hours = ngrid_hours(step_log)
        assert hours == {"N1": list(range(k, stop + 1)), "N2": list(range(k, stop + 1))}


class TestUndisturbedHours:
    """A replication's series keeps the shadow baseline's bits wherever its
    stepped hours change nothing: PV at every hour, and every series at
    each hour before its first outage starts."""

    @staticmethod
    def assert_baseline_kept(scenario, replications):
        """Checks every replication at three repair times; returns how many
        had an outage that starts after hour 0."""
        shadow = compute_shadow(scenario)
        values = [1.0, 2.5, 4.0]
        series, logs = harness._monte_carlo(scenario, shadow, values, range(replications))
        late = 0
        for p, value in enumerate(values):
            for r in range(replications):
                got = series[p, r]
                assert got[1].tobytes() == shadow.baseline[1].tobytes(), (value, r)
                first = min((ev.start_hour for ev in logs[p][r]), default=H)
                assert got[:, :first].tobytes() == shadow.baseline[:, :first].tobytes(), \
                    (value, r, first)
                late += 0 < first < H
        return late

    @pytest.mark.parametrize("precharge", ["full", "sor"])
    def test_random_fleets(self, precharge):
        for seed in range(6):
            scenario = TestIncrementalReplication.random_scenario(seed, precharge)
            assert self.assert_baseline_kept(scenario, 4) > 0, seed

    def test_demo(self):
        assert self.assert_baseline_kept(build_case_study(replications=20), 20) > 0


def assert_same_report(got, want):
    """Every series, total, outage log and per-replication figure, by bytes."""
    for name in SERIES_FIELDS:
        assert getattr(got.mean_series, name).tobytes() == \
            getattr(want.mean_series, name).tobytes(), name
    for name in ("total_ens_mwh", "total_spilled_mwh", "max_ru_total_kw"):
        assert np.float64(getattr(got, name)).tobytes() == \
            np.float64(getattr(want, name)).tobytes(), name
    assert got.outage_logs == want.outage_logs
    for name in ("per_rep_ens_mwh", "per_rep_spilled_mwh"):
        assert np.array(getattr(got, name)).tobytes() == \
            np.array(getattr(want, name)).tobytes(), name


@pytest.fixture
def chunk_log(monkeypatch, step_log):
    """``step_log`` with a ("chunk", groups) entry before the kernel steps
    of each chunk, ``groups`` being its (series offset, feeder id) pairs;
    the offset names the group's repair time and replication."""
    stepper = harness._step_chunk

    def logged(shadow, series, chunk):
        if chunk:
            step_log.append(("chunk", [(offset, f) for offset, f, _ in chunk]))
        return stepper(shadow, series, chunk)

    monkeypatch.setattr(harness, "_step_chunk", logged)
    return step_log


def chunks(log):
    """The logged chunks as (groups, kernel calls) pairs."""
    found = []
    for entry in log:
        if entry[0] == "chunk":
            found.append((entry[1], []))
        else:
            found[-1][1].append(entry)
    return found


class TestChunks:
    """Replications stepped in chunks of (replication, disturbed feeder)
    groups give the report of one re-dispatch from hour 0 per replication,
    whatever the row budget."""

    @staticmethod
    def sparse_scenario(seed, n_feeders, per_feeder, replications, precharge, starts=1.0):
        """About ``starts`` outage starts per replication, so that with one
        some replications have none; F0 fails at hour 23 half the time."""
        rng = random.Random(seed)
        fleet = random_fleet(rng, n_feeders=n_feeders, ngrids_per_feeder=per_feeder)
        entries = {(f.id, h): rng.uniform(0.0, 2.0 * starts / (n_feeders * H))
                   for f in fleet.feeders for h in range(H)}
        entries[("F0", H - 1)] = 0.5
        return Scenario(fleet=fleet, sor=SorTable(entries), horizon=H,
                        repair_hours=rng.choice([1.0, 2.5, 4.0]),
                        replications=replications, master_seed=seed, precharge=precharge)

    @pytest.mark.parametrize("precharge", ["full", "sor"])
    def test_budget_changes_no_bit(self, precharge, monkeypatch, chunk_log):
        """Row budgets from one row, through one feeder's rows, to the whole
        run in one chunk: reports equal by bytes, and every chunk steps
        each hour with at most one islanded and one connected call of
        fewer than the budget plus one feeder's rows."""
        seen = {"chunk of one replication": False, "chunk of several replications": False,
                "replication over several chunks": False, "replication with no outage": False}
        n = 3  # rows per feeder
        for seed in range(3):
            scenario = self.sparse_scenario(seed, 4, n, 16, precharge)
            shadow = compute_shadow(scenario)
            want = simulation_from_hour0(scenario, shadow)
            seen["replication with no outage"] |= [] in want.outage_logs
            for budget in (1, 3, 7, 10**6):
                monkeypatch.setattr(harness, "ROW_BUDGET", budget)
                chunk_log.clear()
                assert_same_report(run_simulation(scenario), want)
                chunks_of = {}
                logged = chunks(chunk_log)
                for k, (groups, calls) in enumerate(logged):
                    reps = {offset for offset, _ in groups}
                    seen["chunk of one replication"] |= len(reps) == 1
                    seen["chunk of several replications"] |= len(reps) > 1
                    for rep in reps:
                        chunks_of[rep] = chunks_of.get(rep, 0) + 1
                    # A chunk closes at the group that brings it to the budget.
                    assert n * len(groups) - n < budget
                    assert n * len(groups) >= budget or k == len(logged) - 1
                    modes = {}
                    for ids, hour, islanded in calls:
                        assert len(ids) < budget + n
                        assert islanded not in modes.setdefault(hour, set())
                        modes[hour].add(islanded)
                seen["replication over several chunks"] |= max(chunks_of.values()) > 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("precharge", ["full", "sor"])
    def test_sweep_points_share_chunks(self, precharge, monkeypatch, chunk_log):
        """A sweep runs every repair time's groups through the same chunks:
        each point's report equals the from-hour-0 simulation at its repair
        time by bytes, whatever the row budget."""
        seen = {"chunk of two repair times": False}
        values = [1.0, 2.5, 4.0]

        def point(offset):
            """The repair-time index of a group's series offset in the pass's
            flat ``(P, R, 8, H)`` series."""
            return offset // (scenario.replications * len(SERIES_FIELDS) * H)

        for seed in range(3):
            scenario = self.sparse_scenario(seed, 4, 3, 8, precharge)
            shadow = compute_shadow(scenario)
            wants = [simulation_from_hour0(replace(scenario, repair_hours=value), shadow)
                     for value in values]
            for budget in (1, 3, 7, 10**6):
                monkeypatch.setattr(harness, "ROW_BUDGET", budget)
                chunk_log.clear()
                runs = sweep_reports(scenario, values)
                assert [value for value, _ in runs] == values
                for (_, got), want in zip(runs, wants):
                    assert_same_report(got, want)
                for groups, _ in chunks(chunk_log):
                    seen["chunk of two repair times"] |= len({point(s) for s, _ in groups}) > 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("precharge", ["full", "sor"])
    def test_feeders_of_one(self, precharge, monkeypatch):
        """One n-Grid per feeder, at the default budget and at one row."""
        default = harness.ROW_BUDGET
        for seed in range(3):
            scenario = self.sparse_scenario(seed, 12, 1, 12, precharge, starts=6.0)
            shadow = compute_shadow(scenario)
            want = simulation_from_hour0(scenario, shadow)
            for budget in (default, 1):
                monkeypatch.setattr(harness, "ROW_BUDGET", budget)
                assert_same_report(run_simulation(scenario), want)


class TestRunSimulation:
    def test_single_replication_equals_its_series(self):
        sor = flat_sor(["F1"], overrides={("F1", 2): 1.0})
        scenario = single_ngrid_scenario(load=1.5, sor=sor, replications=1)
        report = run_simulation(scenario)
        series, _ = run_replication(scenario, 0)
        np.testing.assert_array_equal(report.mean_series.ens_kw, series.ens_kw)
        assert report.total_ens_mwh == pytest.approx(series.ens_kw.sum() / 1000.0)

    def test_deterministic_scenario_zero_variance(self):
        sor = flat_sor(["F1"], overrides={("F1", 2): 1.0})
        scenario = single_ngrid_scenario(load=1.5, sor=sor, replications=5)
        report = run_simulation(scenario)
        assert len(set(report.per_rep_ens_mwh)) == 1

    def test_serial_and_parallel_identical(self):
        sor = flat_sor(["F1"], p=0.2)
        scenario = single_ngrid_scenario(load=2.0, sor=sor, replications=20,
                                         master_seed=11, bess=StorageUnit(5.0, 2.0, 5.0))
        serial = run_simulation(scenario)
        parallel = run_simulation(scenario, workers=4)
        for name in ("load_kw", "ens_kw", "spilled_kw", "ru_avail_kw"):
            np.testing.assert_array_equal(getattr(serial.mean_series, name),
                                          getattr(parallel.mean_series, name))
        assert serial.outage_logs == parallel.outage_logs

    def test_workers_start_no_threads(self, tmp_path, monkeypatch):
        """``workers`` is accepted and selects no code path: replications
        run serially, in the library and through the CLI."""
        def refuse(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        sor = flat_sor(["F1"], p=0.2)
        scenario = single_ngrid_scenario(sor=sor, replications=8, master_seed=11,
                                         bess=StorageUnit(5.0, 2.0, 5.0))
        assert len(run_simulation(scenario, workers=4).outage_logs) == 8
        assert main(["simulate", "--scenario", str(write_tiny_bundle(tmp_path / "tiny")),
                     "--out", str(tmp_path / "out"), "--workers", "4"]) == 0

    def test_same_report_after_bundle_round_trip(self, tmp_path):
        """A fleet file lists n-Grids only under their feeders, so a fleet
        whose n-Grid order differs from its listings reloads in listing
        order; each feeder's n-Grids are summed in listing order, so the
        report does not change by a bit. Values have at most 6 decimals,
        which the CSVs hold exactly."""
        for seed in range(5):
            rng = random.Random(seed)
            shuffled = random_fleet(rng, n_feeders=3, ngrids_per_feeder=6)
            fleet = Fleet(shuffled.feeders, tuple(
                replace(ng, base_load=HourlyProfile(round(v, 6) for v in ng.base_load.values),
                        pv=HourlyProfile(round(v, 6) for v in ng.pv.values))
                for ng in shuffled.ngrids))
            scenario = Scenario(fleet=fleet, sor=flat_sor([f.id for f in fleet.feeders], 0.3),
                                horizon=H, repair_hours=2.0, replications=30, master_seed=seed)
            again = load_scenario(write_bundle(scenario, tmp_path / str(seed)))
            assert [ng.id for ng in again.fleet.ngrids] != [ng.id for ng in fleet.ngrids]
            assert_same_report(run_simulation(again), run_simulation(scenario))

    def test_scalar_steppers_not_called(self, monkeypatch):
        """Simulations and sweeps dispatch through the block kernel only."""
        def refuse(*args):
            raise AssertionError("scalar stepper called")

        monkeypatch.setattr(harness, "connected_step", refuse)
        monkeypatch.setattr(harness, "islanded_step", refuse)
        sor = flat_sor(["F1"], p=0.3)
        scenario = single_ngrid_scenario(sor=sor, replications=5, master_seed=3,
                                         bess=StorageUnit(5.0, 1.0, 5.0))
        assert sum(len(log) for log in run_simulation(scenario).outage_logs) > 0
        assert len(sweep_reports(scenario, [1.0, 3.0])) == 2

    def test_invalid_scenario_raises(self):
        scenario = single_ngrid_scenario(repair_hours=-1.0)
        with pytest.raises(ValidationError):
            run_simulation(scenario)


class TestSweep:
    def test_single_value_matches_run_simulation(self):
        sor = flat_sor(["F1"], overrides={("F1", 0): 1.0})
        scenario = single_ngrid_scenario(load=2.0, sor=sor, replications=2)
        (value, got), = sweep_reports(scenario, [1.0])
        assert value == 1.0
        assert_same_report(got, run_simulation(scenario))

    def test_zero_sor_all_zero(self):
        scenario = single_ngrid_scenario()
        runs = sweep_reports(scenario, [1.0, 2.0, 3.0])
        assert all(r.total_ens_mwh == 0.0 and r.total_spilled_mwh == 0.0 for _, r in runs)

    def test_storage_free_linear_growth(self):
        sor = flat_sor(["F1"], overrides={("F1", 0): 1.0})
        scenario = single_ngrid_scenario(load=2.0, sor=sor, replications=1)
        ens = [r.total_ens_mwh for _, r in sweep_reports(scenario, [1.0, 2.0, 3.0, 4.0, 5.0])]
        diffs = [b - a for a, b in zip(ens, ens[1:])]
        for d in diffs:
            assert abs(d - 0.002) < 1e-9  # one extra hour of 2 kW per repair hour

    def test_one_shadow_shared_across_repair_times(self, monkeypatch):
        calls = []
        original = harness.compute_shadow
        monkeypatch.setattr(harness, "compute_shadow",
                            lambda scenario: calls.append(1) or original(scenario))
        sor = flat_sor(["F1"], p=0.3)
        scenario = single_ngrid_scenario(load=2.0, sor=sor, replications=3, master_seed=5,
                                         bess=StorageUnit(5.0, 1.0, 5.0))
        runs = sweep_reports(scenario, [1.0, 2.0, 4.0])
        assert len(calls) == 1
        for value, report in runs:
            alone = run_simulation(replace(scenario, repair_hours=value))
            for name in SERIES_FIELDS:
                np.testing.assert_array_equal(getattr(report.mean_series, name),
                                              getattr(alone.mean_series, name))

    def test_bad_repair_lists_rejected(self):
        scenario = single_ngrid_scenario()
        with pytest.raises(ValidationError):
            sweep_reports(scenario, [])
        with pytest.raises(ValidationError):
            sweep_reports(scenario, [2.0, 1.0])
        with pytest.raises(ValidationError, match="repair_hours"):
            sweep_reports(scenario, [1.0, float("nan")])

    def test_fleet_validated_once(self, monkeypatch):
        calls = []
        original = harness.validate_fleet
        monkeypatch.setattr(harness, "validate_fleet",
                            lambda *args: calls.append(1) or original(*args))
        sweep_reports(single_ngrid_scenario(), [1.0, 2.0, 3.0])
        assert len(calls) == 1


class TestEmitReport:
    def _report(self, replications=2):
        sor = flat_sor(["F1"], overrides={("F1", 1): 1.0})
        scenario = single_ngrid_scenario(load=2.0, sor=sor, replications=replications)
        return run_simulation(scenario)

    def test_files_written(self, tmp_path):
        report = self._report()
        written = emit_report(report, None, tmp_path)
        names = {p.split("/")[-1] for p in written}
        assert names == {"fleet_series.csv", "summary.csv", "outages.csv"}
        lines = (tmp_path / "fleet_series.csv").read_text().splitlines()
        assert len(lines) == 1 + H
        assert lines[0] == ("hour,load_kw,pv_kw,ens_kw,spilled_kw,"
                            "ru_total_kw,ru_avail_kw,rd_total_kw,rd_avail_kw")

    def test_sweep_file_only_when_sweep_given(self, tmp_path):
        report = self._report()
        emit_report(report, [(1.0, 0.1, 0.2)], tmp_path / "a")
        assert (tmp_path / "a" / "sweep.csv").exists()
        emit_report(report, None, tmp_path / "b")
        assert not (tmp_path / "b" / "sweep.csv").exists()

    def test_byte_identical_rewrites(self, tmp_path):
        report = self._report()
        emit_report(report, None, tmp_path / "x")
        emit_report(self._report(), None, tmp_path / "y")
        for name in ("fleet_series.csv", "summary.csv", "outages.csv"):
            assert filecmp.cmp(tmp_path / "x" / name, tmp_path / "y" / name, shallow=False)


class TestValidateScenario:
    def test_sor_completeness_checked(self):
        ng = NGrid(id="N1", feeder_id="F1", base_load=HourlyProfile.constant(1.0, H),
                   pv=HourlyProfile.zeros(H))
        fleet = Fleet(feeders=(Feeder("F1", ("N1",)),), ngrids=(ng,))
        sor = SorTable({("F1", h): 0.0 for h in range(H - 1)})  # hour 23 missing
        scenario = Scenario(fleet=fleet, sor=sor, horizon=H)
        problems = validate_scenario(scenario)
        assert any("missing" in p for p in problems)

    @pytest.mark.parametrize("field", ["repair_hours", "sr_delivery_hours"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_scalars_rejected(self, field, value):
        problems = validate_scenario(single_ngrid_scenario(**{field: value}))
        assert any(field in p for p in problems)

    def test_derate_range_checked(self):
        scenario = single_ngrid_scenario(derate={("F1", 0): 1.5})
        assert any("derate" in p for p in validate_scenario(scenario))

    @pytest.mark.parametrize("key", [("F99", 3), ("F1", 30), ("F1", -1)])
    def test_derate_row_outside_scenario(self, key):
        scenario = single_ngrid_scenario(derate={("F1", 0): 0.9, key: 0.5})
        assert validate_scenario(scenario) == \
            [f"derate row outside scenario: feeder {key[0]!r} hour {key[1]}"]
        for run in (run_simulation, lambda scenario: run_replication(scenario, 0)):
            with pytest.raises(ValidationError, match="derate row outside scenario"):
                run(scenario)
