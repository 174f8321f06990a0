import collections
import filecmp
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fuzzing import random_fleet
from ngridsim import harness
from ngridsim.casestudy import build_case_study, write_bundle
from ngridsim.cli import main
from ngridsim.config import load_scenario
from ngridsim.fleet import Fleet, NGrid, StorageUnit, validate_fleet
from ngridsim.harness import (SERIES_FIELDS, FleetSeries, OutageEvent,
                              Scenario, ValidationError, compute_shadow,
                              emit_report, run_replication, run_simulation,
                              sample_outages, sweep_reports, validate_scenario)
from ngridsim.sor import SorTable
from oracles import (feeder_mask_probabilities, feeder_rng, islanded_masks,
                     mask_probabilities, replication_from_hour0, sample_outages_scan,
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
               base_load=(load,) * H, pv=(pv,) * H, bess=bess)
    fleet = Fleet(feeders=("F1",), ngrids=(ng,))
    if sor is None:
        sor = flat_sor(["F1"])
    return Scenario(fleet=fleet, sor=sor, horizon=H, **kw)


def chi_square(observed, expected, n):
    """Pearson's statistic of ``observed`` counts of ``n`` draws against
    ``expected`` probabilities, per mask, and its degrees of freedom. Masks
    expected below 5 draws are pooled into one cell, which joins the least
    expected other cell when it too expects below 5. A mask drawn that has
    probability 0 gives an infinite statistic."""
    if any(key not in expected for key in observed):
        return math.inf, 0
    cells = sorted((n * p, observed.get(key, 0)) for key, p in expected.items())
    small = [cell for cell in cells if cell[0] < 5]
    cells = [cell for cell in cells if cell[0] >= 5]
    rest = (sum(e for e, _ in small), sum(o for _, o in small))
    if rest[0] >= 5 or not cells:
        cells.append(rest)
    else:
        cells[0] = (cells[0][0] + rest[0], cells[0][1] + rest[1])
    return sum((o - e) ** 2 / e for e, o in cells), len(cells) - 1


def seed_words(n):
    """``n``'s little-endian 32-bit words, as ``SeedSequence`` splits an int."""
    return [(n >> 32 * k) & 0xFFFFFFFF for k in range(max(1, -(-n.bit_length() // 32)))]


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

    @pytest.mark.parametrize("seed, rep", [
        (0, 0), (2**32 - 1, 3), (2**32, 3), (2**64 + 5, 3), (7, 2**33 + 1)])
    def test_stream_of_python_int_seed(self, seed, rep):
        """The pass's drawer gives the stream of the Python-int list, and of
        its 32-bit words, also for values that take more than one word (a
        five-word key runs ``SeedSequence``'s pool overflow)."""
        feeder_ids = ("F1", "feeder-7")
        got = harness._uniforms(seed, [rep], feeder_ids, 48)
        for f, feeder_id in enumerate(feeder_ids):
            key = [seed, rep, zlib.crc32(feeder_id.encode("utf-8"))]
            want = np.random.default_rng(key).random(48)
            assert got[0, f].tobytes() == want.tobytes()
            words = np.array([w for n in key for w in seed_words(n)], dtype=np.uint32)
            assert got[0, f].tobytes() == np.random.default_rng(words).random(48).tobytes()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            harness._uniforms(-1, [0], ("F1",), H)
        with pytest.raises(ValueError):
            harness._uniforms(0, [-1], ("F1",), H)

    @pytest.mark.parametrize("horizon", [1, 48])
    def test_uniforms_mixed_word_counts(self, horizon):
        """One call whose replications take one and two 32-bit words: every
        stream equals its own Generator's, in the caller's order."""
        indices = [0, 2**32 + 3, 5, 2**40 + 1, 2**32 - 1]
        feeder_ids = ("F1", "feeder-7", "x")
        got = harness._uniforms(20230223, indices, feeder_ids, horizon)
        assert got.shape == (len(indices), len(feeder_ids), horizon)
        for r, i in enumerate(indices):
            for f, feeder_id in enumerate(feeder_ids):
                want = feeder_rng(20230223, i, feeder_id).random(horizon)
                assert got[r, f].tobytes() == want.tobytes(), (i, feeder_id)

    def test_uniforms_no_feeders(self):
        assert harness._uniforms(3, range(4), (), H).shape == (4, 0, H)

    def test_pass_matches_scan_oracle(self):
        """A pass's outages for several repair times and replications at
        once equal the scan over every feeder-hour of each, event by event,
        and its islanded hours cover exactly those events' hours."""
        rng = random.Random("pass-outages")
        seen_hour_23 = False
        for case in range(30):
            feeders = [f"F{k}" for k in rng.sample(range(20), rng.randint(1, 5))]
            entries = {(f, h): rng.choice([0.0, 1.0, 0.5 * rng.random()])
                       for f in feeders for h in range(H)}
            if case % 3 == 0:  # the first feeder fails at hour 23 only
                entries.update({(feeders[0], h): float(h == H - 1) for h in range(H)})
            sor = SorTable(entries)
            repairs = sorted(rng.uniform(0.5, 6.0) for _ in range(3))
            indices = rng.sample(range(1000), 4)
            for horizon in (H, rng.randint(1, H - 1)):
                hits = harness._uniforms(case, indices, sor.feeder_ids, horizon) \
                    < sor.probabilities[:, :horizon]
                rows, islanded = harness._outages(
                    hits, [max(1, math.ceil(v)) for v in repairs])
                assert len(rows) == len(repairs)
                assert all(point.tolist() == sorted(point.tolist()) for point in rows)
                for p, repair in enumerate(repairs):
                    for r, i in enumerate(indices):
                        want = sample_outages_scan(sor, repair, horizon,
                                                   self.rng_factory(case, i))
                        got = [OutageEvent(sor.feeder_ids[f], h, n)
                               for rep, f, h, n in rows[p].tolist() if rep == r]
                        assert got == want, (case, repair, i, horizon)
                        masks = dict(islanded_masks(want, horizon))
                        for f, feeder_id in enumerate(sor.feeder_ids):
                            assert islanded[p, r, f].tolist() == masks.get(
                                feeder_id, np.zeros(horizon, dtype=bool)).tolist()
                        seen_hour_23 |= any(ev.start_hour == H - 1 for ev in want)
        assert seen_hour_23

    def test_pass_draws_exact_mask_distribution(self):
        """Over 20,000 replications of random 2-3-feeder tables, risky on at
        most 6 feeder-hours in a 6-hour window, the pass's joint islanded
        masks at each repair time follow the suppression rule's exact
        distribution: the chi-square statistic stays within dof + 6
        sqrt(2 dof). The same draw exceeds that bound against the
        distributions of the next hour's risk and of 0.9 times the risk, so
        the test can fail."""
        rng = random.Random("mask-distribution")
        n, durations = 20_000, [1, 2, 3]
        for case in range(6):
            feeders = [f"F{k}" for k in range(rng.randint(2, 3))]
            first = rng.randint(0, H - 6)
            risky = rng.sample([(f, h) for f in feeders for h in range(first, first + 6)],
                               rng.randint(1, 6))
            entries = {(f, h): 0.0 for f in feeders for h in range(H)}
            entries.update({key: 1.0 if rng.random() < 1 / 6 else rng.uniform(0.05, 0.6)
                            for key in risky})
            sor = SorTable(entries)
            hits = harness._uniforms(case, range(n), sor.feeder_ids, H) < sor.probabilities
            _, islanded = harness._outages(hits, durations)
            for p, d in enumerate(durations):
                # Each replication's joint mask, its feeders' masks end to end, as bytes.
                observed = collections.Counter(
                    map(bytes, np.packbits(islanded[p].reshape(n, -1), axis=1)))
                for table, fits in ((sor.probabilities, True),
                                    (np.roll(sor.probabilities, -1, axis=1), False),
                                    (0.9 * sor.probabilities, False)):
                    expected = {np.packbits(mask).tobytes(): prob
                                for mask, prob in mask_probabilities(table, d).items()}
                    assert abs(math.fsum(expected.values()) - 1.0) <= 1e-12
                    stat, dof = chi_square(observed, expected, n)
                    assert (stat <= dof + 6 * math.sqrt(2 * dof)) == fits, (case, d, stat, dof)

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
                  base_load=(1.0 + i,) * H, pv=(0.0,) * H)
            for i in range(3))
        fleet = Fleet(feeders=("F1",), ngrids=ngrids)
        sor = flat_sor(["F1"], overrides={("F1", 3): 1.0})
        scenario = Scenario(fleet=fleet, sor=sor, horizon=H, repair_hours=2.0)
        series, _ = run_replication(scenario, 0)
        # Hours 3 and 4 islanded: per-hour fleet ENS is the sum of each
        # n-Grid's unserved constant load.
        assert series.ens_kw[3] == pytest.approx(1.0 + 2.0 + 3.0)
        assert series.ens_kw[4] == pytest.approx(6.0)
        assert series.ens_kw.sum() == pytest.approx(12.0)

    def test_healthy_feeder_ramp_unchanged(self):
        ng1 = NGrid(id="N1", feeder_id="F1", base_load=(1.0,) * H,
                    pv=(0.0,) * H, bess=StorageUnit(10.0, 5.0, 10.0))
        ng2 = NGrid(id="N2", feeder_id="F2", base_load=(1.0,) * H,
                    pv=(0.0,) * H, bess=StorageUnit(10.0, 5.0, 10.0))
        fleet = Fleet(feeders=("F1", "F2"), ngrids=(ng1, ng2))
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
        """A feeder with no n-Grids can fail, alone in a batch or with
        others, and its outages change no series."""
        ng = NGrid(id="N1", feeder_id="F1", base_load=(1.0,) * H,
                   pv=(0.5,) * H, bess=StorageUnit(5.0, 1.0, 5.0))
        fleet = Fleet(feeders=("F1", "F2"), ngrids=(ng,))
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
        entries = {(f, h): rng.choice(levels + [rng.random()])
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
        a grid-tied day summed in fleet order, by bytes."""
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
            for ngrid in (ng for ng in fleet.ngrids if ng.feeder_id == feeder):
                state = initial_state(ngrid)
                for h in range(H):
                    out, state = connected_step(ngrid, state, h, policy)
                    cap = ramp_capacity(ngrid, state, out, 1.5, derate.get((feeder, h), 1.0))
                    ru[h] += cap.ru_kw
                    rd[h] += cap.rd_kw
            k = scenario.sor.feeder_ids.index(feeder)
            totals = shadow.totals[k]
            assert totals[2].tobytes() == ru.tobytes() and totals[3].tobytes() == rd.tobytes()
            derated = [h for f, h in derate if f == feeder]
            changed = np.flatnonzero((totals[2:] != plain.totals[k][2:]).any(axis=0))
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
        entries = {(f, h): rng.uniform(0.0, 0.4) for f in fleet.feeders for h in range(H)}
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
                    stepped = [hours.pop(ng.id, []) for ng in scenario.fleet.ngrids
                               if ng.feeder_id == feeder]
                    if feeder not in first:
                        assert stepped == [[]] * len(stepped), (seed, rep, feeder)
                        continue
                    final = max(stepped[0])
                    assert stepped == [list(range(first[feeder], final + 1))] * len(stepped)
                    if last[feeder] < H - 2:
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
        n1 = NGrid(id="N1", feeder_id="F1", base_load=(1.0,) * H,
                   pv=(0.5,) * H, bess=StorageUnit(10.0, 0.5, 10.0))
        n2 = NGrid(id="N2", feeder_id="F1", base_load=(2.0,) * H,
                   pv=(0.0,) * H)
        n3 = NGrid(id="N3", feeder_id="F2", base_load=(1.0,) * H,
                   pv=(0.0,) * H, bess=StorageUnit(10.0, 5.0, 10.0))
        fleet = Fleet(feeders=("F1", "F2"), ngrids=(n1, n2, n3))
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
    each hour before its first outage starts. ``_monte_carlo`` over one
    replication index returns that replication's series as its mean: the
    baseline plus its patterns' changes, summed from 0.0, over 1, which adds
    0.0 wherever no pattern changes an hour."""

    @staticmethod
    def assert_baseline_kept(scenario, replications):
        """Checks every replication at three repair times; returns how many
        had an outage that starts after hour 0."""
        shadow = compute_shadow(scenario)
        values = [1.0, 2.5, 4.0]
        late = 0
        for r in range(replications):
            means, _, outages = harness._monte_carlo(scenario, shadow, values, [r])
            for p, value in enumerate(values):
                got = means[p]
                assert got[1].tobytes() == shadow.baseline[1].tobytes(), (value, r)
                first = min(outages[p][:, 2].tolist(), default=H)
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
    """Every series, total, outage column and per-replication figure, by
    bytes."""
    for name in SERIES_FIELDS:
        assert getattr(got.mean_series, name).tobytes() == \
            getattr(want.mean_series, name).tobytes(), name
    for name in ("total_ens_mwh", "total_spilled_mwh", "max_ru_total_kw"):
        assert np.float64(getattr(got, name)).tobytes() == \
            np.float64(getattr(want, name)).tobytes(), name
    assert len(got.outages) == len(want.outages) == 4
    for a, b in zip(got.outages, want.outages):
        assert a.tolist() == b.tolist()
    for name in ("per_rep_ens_mwh", "per_rep_spilled_mwh"):
        assert getattr(got, name).dtype == np.float64, name
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.fixture
def batch_log(monkeypatch, step_log):
    """``step_log`` with a ("batch", patterns) entry before the kernel steps
    of each batch of patterns, ``patterns`` being its (feeder index,
    islanded hours as a tuple) pairs."""
    stepper = harness._step_patterns

    def logged(shadow, feeders, masks):
        step_log.append(("batch", [(int(f), tuple(mask.tolist()))
                                   for f, mask in zip(feeders, masks)]))
        return stepper(shadow, feeders, masks)

    monkeypatch.setattr(harness, "_step_patterns", logged)
    return step_log


def batches(log):
    """The logged batches as (patterns, kernel calls) pairs."""
    found = []
    for entry in log:
        if entry[0] == "batch":
            found.append((entry[1], []))
        else:
            found[-1][1].append(entry)
    return found


def outage_logs(report, replications):
    """The report's outages as one event list per replication."""
    logs = [[] for _ in range(replications)]
    for rep, f, h, n in zip(*(column.tolist() for column in report.outages)):
        logs[rep].append(OutageEvent(f, h, n))
    return logs


def patterns_of(events, feeder_ids):
    """A replication's (feeder index in ``feeder_ids``, islanded hours as a
    tuple) patterns."""
    return [(feeder_ids.index(f), tuple(mask.tolist())) for f, mask in islanded_masks(events, H)]


class TestChunks:
    """A pass that steps its distinct (feeder, islanded hours) patterns in
    batches gives the report of one re-dispatch from hour 0 per
    replication, whatever the row budget."""

    @staticmethod
    def sparse_scenario(seed, n_feeders, per_feeder, replications, precharge, starts=1.0):
        """About ``starts`` outage starts per replication, so that with one
        some replications have none; F0 fails at hour 23 half the time."""
        rng = random.Random(seed)
        fleet = random_fleet(rng, n_feeders=n_feeders, ngrids_per_feeder=per_feeder)
        entries = {(f, h): rng.uniform(0.0, 2.0 * starts / (n_feeders * H))
                   for f in fleet.feeders for h in range(H)}
        entries[("F0", H - 1)] = 0.5
        return Scenario(fleet=fleet, sor=SorTable(entries), horizon=H,
                        repair_hours=rng.choice([1.0, 2.5, 4.0]),
                        replications=replications, master_seed=seed, precharge=precharge)

    @pytest.mark.parametrize("precharge", ["full", "sor"])
    def test_budget_changes_no_bit(self, precharge, monkeypatch, batch_log):
        """Row budgets from one row, through one feeder's rows, to the whole
        pass in one batch, with the default draw block and with blocks of
        one replication (4 streams of 4 feeders): reports equal by bytes,
        each distinct pattern is stepped in exactly one batch, batches close
        at the budget and not at a draw block, and every batch steps each
        hour with at most one islanded and one connected call of fewer than
        the budget plus one feeder's rows."""
        seen = {"batch of one pattern": False, "batch of several patterns": False,
                "replication over several batches": False,
                "pattern of several replications": False, "replication with no outage": False}
        n = 3  # rows per feeder
        default_block = harness.DRAW_BLOCK
        for seed in range(3):
            scenario = self.sparse_scenario(seed, 4, n, 16, precharge)
            shadow = compute_shadow(scenario)
            want = simulation_from_hour0(scenario, shadow)
            logs = outage_logs(want, scenario.replications)
            seen["replication with no outage"] |= [] in logs
            groups = [patterns_of(events, scenario.sor.feeder_ids) for events in logs]
            flat = [pattern for patterns in groups for pattern in patterns]
            seen["pattern of several replications"] |= len(set(flat)) < len(flat)
            for block, budget in itertools.product((default_block, 4), (1, 3, 7, 10**6)):
                monkeypatch.setattr(harness, "DRAW_BLOCK", block)
                monkeypatch.setattr(harness, "ROW_BUDGET", budget)
                batch_log.clear()
                assert_same_report(run_simulation(scenario), want)
                logged = batches(batch_log)
                batch_of = {pattern: k for k, (patterns, _) in enumerate(logged)
                            for pattern in patterns}
                assert sorted(batch_of) == sorted(set(flat))
                assert sum(len(patterns) for patterns, _ in logged) == len(batch_of)
                for patterns in groups:
                    seen["replication over several batches"] |= \
                        len({batch_of[pattern] for pattern in patterns}) > 1
                for k, (patterns, calls) in enumerate(logged):
                    seen["batch of one pattern"] |= len(patterns) == 1
                    seen["batch of several patterns"] |= len(patterns) > 1
                    # A batch closes at the pattern that brings it to the budget.
                    assert n * len(patterns) - n < budget
                    assert n * len(patterns) >= budget or k == len(logged) - 1
                    modes = {}
                    for ids, hour, islanded in calls:
                        assert len(ids) < budget + n
                        assert islanded not in modes.setdefault(hour, set())
                        modes[hour].add(islanded)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("precharge", ["full", "sor"])
    def test_sweep_points_share_chunks(self, precharge, monkeypatch, batch_log):
        """A sweep steps every repair time's patterns in the same batches:
        each point's report equals the from-hour-0 simulation at its repair
        time by bytes, whatever the row budget, and a pattern met at several
        repair times is stepped once."""
        seen = {"batch of two repair times": False, "pattern of two repair times": False}
        values = [1.0, 2.5, 4.0]
        for seed in range(3):
            scenario = self.sparse_scenario(seed, 4, 3, 8, precharge)
            shadow = compute_shadow(scenario)
            wants = [simulation_from_hour0(replace(scenario, repair_hours=value), shadow)
                     for value in values]
            points = [{pattern for events in outage_logs(want, scenario.replications)
                       for pattern in patterns_of(events, scenario.sor.feeder_ids)}
                      for want in wants]
            seen["pattern of two repair times"] |= \
                sum(len(point) for point in points) > len(set().union(*points))
            for budget in (1, 3, 7, 10**6):
                monkeypatch.setattr(harness, "ROW_BUDGET", budget)
                batch_log.clear()
                runs = sweep_reports(scenario, values)
                assert [value for value, _ in runs] == values
                for (_, got), want in zip(runs, wants):
                    assert_same_report(got, want)
                stepped = [pattern for patterns, _ in batches(batch_log) for pattern in patterns]
                assert sorted(stepped) == sorted(set().union(*points))
                for patterns, _ in batches(batch_log):
                    seen["batch of two repair times"] |= \
                        not any(set(patterns) <= point for point in points)
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


class TestSharing:
    """A pass steps each distinct (feeder, islanded hours) pattern once, and
    draws each (replication, feeder) stream once."""

    @staticmethod
    def f1_at_hour(k):
        """F1 of three 3-n-Grid feeders fails at hour k in each of 16
        replications and no other feeder ever fails."""
        fleet = random_fleet(random.Random(k), n_feeders=3, ngrids_per_feeder=3)
        sor = SorTable({(f, h): float(f == "F1" and h == k)
                        for f in fleet.feeders for h in range(H)})
        return Scenario(fleet=fleet, sor=sor, horizon=H, repair_hours=2.0,
                        replications=16, master_seed=k)

    @staticmethod
    def assert_f1_stepped_once(scenario, k, calls):
        """F1's n-Grids, and no other, are stepped once an hour from hour k."""
        hours = ngrid_hours(calls)
        assert set(hours) == {ng.id for ng in scenario.fleet.ngrids if ng.feeder_id == "F1"}
        stepped = hours.popitem()[1]
        assert stepped == list(range(k, stepped[-1] + 1))
        assert all(h == stepped for h in hours.values())

    @pytest.mark.parametrize("k", [0, 9, 23])
    def test_one_pattern_stepped_once(self, k, monkeypatch, batch_log):
        """F1's one pattern is stepped in one batch, once an hour from hour
        k, whatever the budget and however many replications share it, and
        the report is the from-hour-0 one, by bytes."""
        scenario = self.f1_at_hour(k)
        want = simulation_from_hour0(scenario, compute_shadow(scenario))
        for budget in (1, harness.ROW_BUDGET):
            monkeypatch.setattr(harness, "ROW_BUDGET", budget)
            batch_log.clear()
            assert_same_report(run_simulation(scenario), want)
            logged = batches(batch_log)
            assert len(logged) == 1
            patterns, calls = logged[0]
            assert [f for f, _ in patterns] == [scenario.sor.feeder_ids.index("F1")]
            self.assert_f1_stepped_once(scenario, k, calls)

    @pytest.mark.parametrize("k", [0, 9, 23])
    def test_pattern_stepped_once_per_pass(self, k, monkeypatch, step_log):
        """One replication per draw block and one row per batch, with two
        repair times that round to the same duration: F1's pattern recurs
        in every block at both points and is still stepped once an hour
        across the whole pass, and each point's report is the from-hour-0
        one, by bytes."""
        scenario = self.f1_at_hour(k)
        shadow = compute_shadow(scenario)
        values = [1.5, 2.0]
        wants = [simulation_from_hour0(replace(scenario, repair_hours=value), shadow)
                 for value in values]
        monkeypatch.setattr(harness, "ROW_BUDGET", 1)
        monkeypatch.setattr(harness, "DRAW_BLOCK", 1)
        step_log.clear()
        runs = sweep_reports(scenario, values)
        for (_, got), want in zip(runs, wants):
            assert_same_report(got, want)
        self.assert_f1_stepped_once(scenario, k, step_log)

    def test_draw_block_changes_no_bit(self, monkeypatch):
        """Drawing one replication at a time, or a few, gives the report of
        one draw for the whole pass, by bytes: the sums carried across draw
        blocks, the last of which may be partial (12 streams of 4 feeders
        are blocks of 3, 3, 3 and 1 replications), keep every bit."""
        scenario = TestChunks.sparse_scenario(4, 4, 2, 10, "sor", starts=3.0)
        values = [1.0, 2.5, 4.0]
        want = sweep_reports(scenario, values)
        for block in (1, 9, 12):
            monkeypatch.setattr(harness, "DRAW_BLOCK", block)
            got = sweep_reports(scenario, values)
            for (_, a), (_, b) in zip(got, want):
                assert_same_report(a, b)

    def test_sweep_draws_each_stream_once(self, monkeypatch):
        """A P-point sweep draws each of its R x F streams once, not P
        times."""
        drawn = []
        real = harness._uniforms

        def counted(seed, indices, feeder_ids, horizon):
            drawn.extend((seed, i, f) for i in indices for f in feeder_ids)
            return real(seed, indices, feeder_ids, horizon)

        monkeypatch.setattr(harness, "_uniforms", counted)
        scenario = TestChunks.sparse_scenario(5, 4, 2, 6, "full", starts=3.0)
        sweep_reports(scenario, [1.0, 2.5, 4.0, 6.0])
        assert sorted(drawn) == sorted((5, i, f) for i in range(6)
                                       for f in scenario.fleet.feeders)


def test_pass_memory_flat_in_replications(monkeypatch):
    """A pass keeps no replication's series: between 512 and 8,192
    replications, a two-point sweep's peak traced memory grows by less than
    one replication's series (8 x H float64s) per added replication. Small
    draw blocks keep the per-block arrays small beside that growth, and
    outages at two hours only keep the patterns few."""
    monkeypatch.setattr(harness, "DRAW_BLOCK", 64)
    fleet = random_fleet(random.Random(23), n_feeders=2, ngrids_per_feeder=2)
    sor = flat_sor(fleet.feeders, overrides={(f, h): 0.5 for f in fleet.feeders for h in (8, 16)})
    scenario = Scenario(fleet=fleet, sor=sor, horizon=H, master_seed=23, precharge="sor")

    def peak(replications):
        tracemalloc.start()
        try:
            reports = sweep_reports(replace(scenario, replications=replications), [1.0, 3.0])
            return tracemalloc.get_traced_memory()[1], reports
        finally:
            tracemalloc.stop()

    small, _ = peak(512)
    large, reports = peak(8192)
    assert (large - small) / (8192 - 512) < len(SERIES_FIELDS) * H * 8
    assert all(len(report.outages[0]) > 8192 for _, report in reports)


def test_pass_memory_flat_in_patterns(monkeypatch):
    """A pass keeps no table of its patterns' changes: on a fleet where
    nearly every drawn pattern is new (8 feeders of one n-Grid, 72 hours at
    risk 0.04 each, repair 1 h), peak traced memory grows by less than one
    table row (5 x H float64s) per added distinct pattern between 512 and
    4,096 replications. Draw blocks of 256 streams and batches of 1,024
    rows keep the per-block and per-batch arrays small beside that growth,
    and both runs fill whole batches."""
    monkeypatch.setattr(harness, "DRAW_BLOCK", 256)
    monkeypatch.setattr(harness, "ROW_BUDGET", 1024)
    horizon = 72
    fleet = random_fleet(random.Random(31), n_feeders=8, ngrids_per_feeder=1, horizon=horizon)
    sor = SorTable({(f, h): 0.04 for f in fleet.feeders for h in range(horizon)})
    scenario = Scenario(fleet=fleet, sor=sor, horizon=horizon, master_seed=31)

    def peak(replications):
        tracemalloc.start()
        try:
            report = run_simulation(replace(scenario, replications=replications))
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    def distinct_patterns(report):
        """(feeder, outage start hours) per disturbed (replication, feeder):
        at a repair time of 1 h the start hours are the islanded hours."""
        starts = {}
        for rep, f, start, _ in zip(*(column.tolist() for column in report.outages)):
            starts.setdefault((rep, f), []).append(start)
        return len({(f, tuple(hours)) for (_, f), hours in starts.items()})

    small, small_report = peak(512)
    large, large_report = peak(4096)
    added = distinct_patterns(large_report) - distinct_patterns(small_report)
    assert distinct_patterns(small_report) > 1024 and added > 20000
    assert (large - small) / added < 5 * horizon * 8


def test_pass_memory_per_outage_row():
    """A pass holds each outage row in its point's array: on one n-Grid
    failing with risk 0.9 in each of 4 hours, about 72,000 outage rows from
    20,000 replications and at most 15 patterns, the traced peak stays below
    86 bytes per row. Four intp columns are 32 bytes a row, held twice while
    a point's draw blocks are joined, about 75 bytes with the keys; a fifth
    column, or one more copy of a point's rows, passes the bound."""
    horizon = 4
    ngrid = NGrid(id="N1", feeder_id="F1", base_load=(2.0,) * horizon, pv=(0.5,) * horizon,
                  bess=StorageUnit(5.0, 2.0, 5.0))
    scenario = Scenario(fleet=Fleet(("F1",), (ngrid,)),
                        sor=SorTable({("F1", h): 0.9 for h in range(horizon)}),
                        horizon=horizon, replications=20_000, master_seed=5)
    tracemalloc.start()
    try:
        report = run_simulation(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(report.outages[0])
    assert rows > 70_000
    assert peak / rows < 86, peak / rows


@pytest.mark.parametrize("precharge", ["full", "sor"])
def test_mean_matches_exact_series(precharge):
    """The Monte Carlo mean of 2,000 replications against the exact mean
    of every series-hour. Per feeder, every islanded-hour mask of
    ``feeder_mask_probabilities`` is stepped with ``_step_patterns``;
    feeders draw independently, so the exact mean and variance of a
    series-hour are sums over feeders of sum p * c and
    sum p * c**2 - (sum p * c)**2 over the masks' changes c. Every
    series-hour is within 4 standard errors, and one of variance 0 equals
    the exact mean."""
    rng = random.Random("exact")
    fleet = random_fleet(rng, n_feeders=3, ngrids_per_feeder=3)
    entries = {(f, h): 0.0 for f in fleet.feeders for h in range(H)}
    for f in fleet.feeders:
        entries.update({(f, h): 0.25 for h in rng.sample(range(H), rng.choice([2, 3]))})
    scenario = Scenario(fleet=fleet, sor=SorTable(entries), horizon=H, repair_hours=2.0,
                        replications=2000, master_seed=11, precharge=precharge)
    shadow = compute_shadow(scenario)
    mean, var = shadow.baseline.copy(), np.zeros((len(SERIES_FIELDS), H))
    changed = [0, 2, 3, 5, 7]  # load, ENS, spill, ru_avail and rd_avail
    for f, risk in enumerate(scenario.sor.probabilities[:, :H].tolist()):
        masks = {mask: p for mask, p in feeder_mask_probabilities(risk, 2).items() if any(mask)}
        change = harness._step_patterns(shadow, np.full(len(masks), f), np.array(list(masks)))
        p = np.array(list(masks.values()))[:, None, None]
        first = (p * change).sum(axis=0)
        mean[changed] += first
        var[changed] += (p * change ** 2).sum(axis=0) - first ** 2
    report = run_simulation(scenario)
    got = np.array([getattr(report.mean_series, name) for name in SERIES_FIELDS])
    exact = var == 0.0
    assert got[exact].tobytes() == mean[exact].tobytes()
    z = (got[~exact] - mean[~exact]) / np.sqrt(var[~exact] / scenario.replications)
    assert (~exact).sum() > H and np.abs(z).max() < 4.0, np.abs(z).max()


@pytest.mark.parametrize("precharge", ["full", "sor"])
@pytest.mark.parametrize("seed", range(3))
def test_keys_wider_than_63_bits(seed, precharge):
    """A 72-hour day: a pattern's key, 32 feeder bits and 72 mask bits,
    is wider than an int64, and F0 often fails after hour 63. The report
    equals the from-hour-0 one by bytes."""
    horizon = 72
    rng = random.Random(f"wide-{seed}")
    fleet = random_fleet(rng, n_feeders=3, ngrids_per_feeder=2, horizon=horizon)
    entries = {(f, h): rng.uniform(0.0, 0.06) for f in fleet.feeders for h in range(horizon)}
    entries[("F0", 68)] = 0.5
    scenario = Scenario(fleet=fleet, sor=SorTable(entries), horizon=horizon,
                        repair_hours=rng.choice([1.0, 2.5, 4.0]), replications=8,
                        master_seed=seed, precharge=precharge)
    want = simulation_from_hour0(scenario, compute_shadow(scenario))
    assert (want.outages[2] > 63).any()
    assert_same_report(run_simulation(scenario), want)


def test_simulate_leaves_numpy_random_unloaded(tmp_path):
    """A ``simulate`` run draws its outages without ``numpy.random``, whose
    first use costs a fresh process a lazy import. numpy 1.x imports it
    with ``numpy`` itself, and there this test checks nothing."""
    scenario = write_tiny_bundle(tmp_path / "tiny")
    script = (
        "import sys\n"
        "import numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from ngridsim.cli import main\n"
        f"code = main(['simulate', '--scenario', {str(scenario)!r}, "
        f"'--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, eager, 'numpy.random' in sys.modules)\n")
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    code, eager, loaded = run.stdout.split()[-3:]
    assert code == "0"
    if eager == "False":
        assert loaded == "False"


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
        assert [c.tolist() for c in serial.outages] == [c.tolist() for c in parallel.outages]

    def test_workers_start_no_threads(self, tmp_path, monkeypatch):
        """``workers`` is accepted and selects no code path: replications
        run serially, in the library and through the CLI."""
        def refuse(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        sor = flat_sor(["F1"], p=0.2)
        scenario = single_ngrid_scenario(sor=sor, replications=8, master_seed=11,
                                         bess=StorageUnit(5.0, 2.0, 5.0))
        assert len(run_simulation(scenario, workers=4).per_rep_ens_mwh) == 8
        assert main(["simulate", "--scenario", str(write_tiny_bundle(tmp_path / "tiny")),
                     "--out", str(tmp_path / "out"), "--workers", "4"]) == 0

    def test_same_report_after_bundle_round_trip(self, tmp_path):
        """A fleet file lists n-Grids only under their feeders, so a fleet
        whose feeders' n-Grids interleave reloads grouped by feeder. Each
        feeder keeps its n-Grids' fleet order, in which they are summed, so
        the report does not change by a bit. Values have at most 6 decimals,
        which the CSVs hold exactly."""
        for seed in range(5):
            rng = random.Random(seed)
            shuffled = random_fleet(rng, n_feeders=3, ngrids_per_feeder=6)
            fleet = Fleet(shuffled.feeders, tuple(
                replace(ng, base_load=tuple(round(v, 6) for v in ng.base_load),
                        pv=tuple(round(v, 6) for v in ng.pv))
                for ng in shuffled.ngrids))
            scenario = Scenario(fleet=fleet, sor=flat_sor(fleet.feeders, 0.3),
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
        assert len(run_simulation(scenario).outages[0]) > 0
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
        ng = NGrid(id="N1", feeder_id="F1", base_load=(1.0,) * H,
                   pv=(0.0,) * H)
        fleet = Fleet(feeders=("F1",), ngrids=(ng,))
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
