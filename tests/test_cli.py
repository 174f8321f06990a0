import filecmp
import hashlib
import json
import random
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from fuzzing import random_fleet
from ngridsim import casestudy, harness
from ngridsim.cli import main
from ngridsim.config import load_fleet, load_scenario, parse_plug_hours
from ngridsim.dispatch import FleetArrays
from ngridsim.fleet import Fleet, validate_fleet
from ngridsim.harness import Scenario, ValidationError, validate_scenario
from ngridsim.sor import SorTable

H = 24


def write_tiny_bundle(root):
    """A one-feeder, one-n-Grid scenario with a certain hour-2 outage."""
    root.mkdir(parents=True, exist_ok=True)
    profile_lines = ["ngrid_id,hour,load_kw,pv_kw"]
    profile_lines += [f"N1,{h},2.0,0.5" for h in range(H)]
    (root / "profiles.csv").write_text("\n".join(profile_lines) + "\n")
    sor_lines = ["feeder_id,hour,probability"]
    sor_lines += [f"F1,{h},{1.0 if h == 2 else 0.0}" for h in range(H)]
    (root / "sor.csv").write_text("\n".join(sor_lines) + "\n")
    (root / "fleet.json").write_text(
        '{"feeders": [{"id": "F1", "ngrids": [{\n'
        ' "id": "N1",\n'
        ' "bess": {"capacity_kwh": 10.0, "p_max_kw": 5.0, "soc0_kwh": 10.0},\n'
        ' "evs": [{"capacity_kwh": 60.0, "p_max_kw": 7.0, "soc_arrival_kwh": 30.0,\n'
        '          "plug_hours": "0-6,19-23"}],\n'
        ' "hvac": {"p_normal": 1.0, "p_min": 0.3},\n'
        ' "deferrables": [{"energy_kwh": 2.0, "power_kw": 1.0, "earliest": 9, "deadline": 16}]\n'
        '}]}]}\n')
    (root / "scenario.yaml").write_text(
        "fleet: fleet.json\n"
        "profiles: profiles.csv\n"
        "sor: sor.csv\n"
        "repair_hours: 1.0\n"
        "replications: 3\n"
        "seed: 7\n")
    return root / "scenario.yaml"


def rounded(profile):
    """``profile`` to 6 decimals, which the CSVs' 10 significant digits
    hold exactly."""
    return tuple(round(v, 6) for v in profile)


class TestConfigLoading:
    def test_plug_hours_parsing(self):
        assert parse_plug_hours("0-6,19-23") == set(range(7)) | set(range(19, 24))
        assert parse_plug_hours([1, 2, 3]) == {1, 2, 3}
        with pytest.raises(ValueError, match="reversed"):
            parse_plug_hours("9-3")

    def test_scenario_round_trip(self, tmp_path):
        scenario = load_scenario(write_tiny_bundle(tmp_path / "tiny"))
        assert scenario.replications == 3
        assert scenario.master_seed == 7
        ng, = scenario.fleet.ngrids
        assert ng.bess.capacity_kwh == 10.0
        assert ng.evs[0].plug_hours == frozenset(range(7)) | frozenset(range(19, 24))
        assert ng.hvac.p_normal_kw[5] == 1.0
        assert ng.deferrables[0].deadline_hour == 16
        assert scenario.sor.get("F1", 2) == 1.0

    def test_omitted_settings_take_scenario_defaults(self, tmp_path):
        """A scenario file naming only its fleet, profiles and SoR table
        loads with every other ``Scenario`` field at its default."""
        path = write_tiny_bundle(tmp_path / "tiny")
        path.write_text("fleet: fleet.json\nprofiles: profiles.csv\nsor: sor.csv\n")
        scenario = load_scenario(path)
        for field in fields(Scenario):
            if field.name not in ("fleet", "sor"):
                assert getattr(scenario, field.name) == field.default, field.name
        assert validate_scenario(scenario) == []

    def test_bundle_round_trip(self, tmp_path):
        """``casestudy.write_bundle`` writes what ``load_scenario`` reads:
        efficiencies below 1, per-hour HVAC, derate and every setting.
        Values have at most 6 decimals."""
        rng = random.Random("bundle")
        shuffled = random_fleet(rng, n_feeders=3, ngrids_per_feeder=3)
        # Grouped by feeder, the only order a fleet file holds.
        fleet = Fleet(shuffled.feeders, tuple(
            replace(ng, base_load=rounded(ng.base_load), pv=rounded(ng.pv))
            for f in shuffled.feeders for ng in shuffled.ngrids if ng.feeder_id == f))
        sor = SorTable({(f, h): round(rng.random(), 6) for f in fleet.feeders for h in range(H)})
        derate = {(f, h): round(rng.uniform(0.5, 1.0), 6)
                  for f in fleet.feeders for h in rng.sample(range(H), 3)}
        scenario = Scenario(fleet=fleet, sor=sor, horizon=H, repair_hours=2.5, replications=7,
                            master_seed=99, sr_delivery_hours=0.5, derate=derate,
                            precharge="sor")
        again = load_scenario(casestudy.write_bundle(scenario, tmp_path / "bundle"))
        assert validate_scenario(again) == []
        assert again.fleet.feeders == fleet.feeders
        want, got = FleetArrays.build(fleet.ngrids, H), FleetArrays.build(again.fleet.ngrids, H)
        for field in fields(FleetArrays):
            np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name),
                                          err_msg=field.name)
        for name in ("horizon", "repair_hours", "replications", "master_seed",
                     "sr_delivery_hours", "precharge", "derate"):
            assert getattr(again, name) == getattr(scenario, name), name
        assert again.sor == sor
        assert (want.bess_eta_c[want.has_bess] < 1.0).all() and (want.ev_eta_d < 1.0).any()
        assert (want.hvac_normal != want.hvac_normal[0]).any()

    def test_case_study_fleet_round_trip(self, tmp_path):
        """The case study's fleet reloads from its bundle as an equal fleet,
        every EV's starting SoC included."""
        scenario = casestudy.build_case_study(5)
        fleet = Fleet(scenario.fleet.feeders, tuple(
            replace(ng, base_load=rounded(ng.base_load), pv=rounded(ng.pv))
            for ng in scenario.fleet.ngrids))
        path = casestudy.write_bundle(replace(scenario, fleet=fleet), tmp_path)
        assert load_scenario(path).fleet == fleet

    def test_case_study_bundle_bytes(self, tmp_path):
        """The demo bundle, which the benchmark writes for every input,
        keeps its bytes: the SHA-256 of each file."""
        casestudy.write_bundle(casestudy.build_case_study(100), tmp_path)
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in tmp_path.iterdir()}
        assert digests == {
            "fleet.json": "908cc280c72a63405c0455d3631473dcdca541b79299a0843e3ff2b2ad30c8d8",
            "profiles.csv": "66355a2a446649559375172ec7c006d6420cabf8c3277c6afa5b57821d95266a",
            "scenario.yaml": "ea00938c9f4ff7ac7f216be7b545dcf63de5d155b9c78f3c613e4d7081c852a6",
            "sor.csv": "ecbfa3141b884c29ac0fddf4673b5380e1f5cd8adabd0c30009f865d0b6d669d",
        }

    def test_missing_profile_hour_named(self, tmp_path):
        path = write_tiny_bundle(tmp_path / "tiny")
        profiles = path.parent / "profiles.csv"
        lines = profiles.read_text().splitlines()
        profiles.write_text("\n".join(lines[:-1]) + "\n")  # drop hour 23
        with pytest.raises(ValidationError, match="hour 23"):
            load_scenario(path)


class TestCliExitCodes:
    def test_simulate_success(self, tmp_path, capsys):
        scenario = write_tiny_bundle(tmp_path / "tiny")
        code = main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "total ENS" in out
        assert (tmp_path / "out" / "fleet_series.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_bad_config_is_validation_error(self, tmp_path):
        scenario = write_tiny_bundle(tmp_path / "tiny")
        sor = scenario.parent / "sor.csv"
        sor.write_text(sor.read_text().replace("F1,2,1.0", "F1,2,2.5"))
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == 1

    def test_sweep_writes_sweep_csv(self, tmp_path, capsys):
        scenario = write_tiny_bundle(tmp_path / "tiny")
        code = main(["sweep", "--scenario", str(scenario), "--repair", "1,2,3",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "repair_hours,total_ens_mwh,total_spilled_mwh"
        assert len(lines) == 4

    def test_sweep_rejects_unsorted_values(self, tmp_path):
        scenario = write_tiny_bundle(tmp_path / "tiny")
        assert main(["sweep", "--scenario", str(scenario), "--repair", "3,1",
                     "--out", str(tmp_path / "out")]) == 1

    def test_sweep_names_bad_repair_item(self, tmp_path, capsys):
        scenario = write_tiny_bundle(tmp_path / "tiny")
        assert main(["sweep", "--scenario", str(scenario), "--repair", "1,x",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "validation error: --repair: 'x' is not a number\n"

    def test_metrics_subcommand(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("label,score\n1,0.9\n0,0.2\n1,0.7\n0,0.4\n")
        assert main(["metrics", "--scores", str(scores)]) == 0
        out = capsys.readouterr().out
        assert "roc_auc: 1.000000" in out
        assert "fm:      1.000000" in out

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_metrics_non_finite_threshold(self, tmp_path, capsys, threshold):
        scores = tmp_path / "scores.csv"
        scores.write_text("label,score\n1,0.9\n0,0.2\n")
        assert main(["metrics", "--scores", str(scores), "--threshold", threshold]) == 1
        err = capsys.readouterr().err
        assert err == f"validation error: threshold must be finite, got {threshold}\n"

    def test_metrics_bad_header(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("y,p\n1,0.9\n")
        assert main(["metrics", "--scores", str(scores)]) == 1

    def test_workers_flag_matches_serial(self, tmp_path):
        scenario = write_tiny_bundle(tmp_path / "tiny")
        main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "a")])
        main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "b"),
              "--workers", "4"])
        for name in ("fleet_series.csv", "summary.csv", "outages.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False)


class TestLoaderErrors:
    """Malformed inputs end in exit 1 with the file and field named."""

    def run(self, scenario, tmp_path, capsys):
        code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def test_missing_fleet_field(self, tmp_path, capsys):
        scenario = write_tiny_bundle(tmp_path / "tiny")
        fleet = scenario.parent / "fleet.json"
        fleet.write_text(fleet.read_text().replace('"capacity_kwh": 10.0, ', ""))
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert "fleet.json" in err and "'N1'" in err and "'capacity_kwh'" in err

    def test_malformed_yaml(self, tmp_path, capsys):
        scenario = write_tiny_bundle(tmp_path / "tiny")
        scenario.write_text(scenario.read_text().replace("seed: 7", "seed: [7"))
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert "scenario.yaml" in err and "malformed YAML" in err
        # One line, naming where the parser gave up: the end of the file. The
        # problem's wording differs between PyYAML's C and Python parsers.
        assert err.count("\n") == 1
        assert "expected ',' or ']'" in err and err.endswith(" at line 7, column 1\n")

    def test_yaml_control_character(self, tmp_path, capsys):
        """PyYAML's reader rejects a control character with no line mark:
        its two-line text is reported on one line."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        scenario.write_text(scenario.read_text().replace("seed: 7", "seed: 7\x01"))
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert "malformed YAML: unacceptable character #x0001" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, text, where", [
        ("fleet.json", '{"feeders": [\n {"id": [F1"}]}\n', "line 2 column 10"),
        ("fleet.yaml", "feeders:\n- id: F1\n  ngrids:\n  - id: N1\n", "line 1 column 1"),
    ], ids=["json", "yaml-fleet"])
    def test_malformed_fleet_json(self, tmp_path, capsys, name, text, where):
        """The fleet file is JSON only: a YAML one is malformed JSON, reported
        with the decoder's line and column."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        scenario.write_text(scenario.read_text().replace("fleet.json", name))
        (scenario.parent / name).write_text(text)
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert name in err and "malformed JSON" in err and where in err

    def test_nan_repair_hours(self, tmp_path, capsys):
        scenario = write_tiny_bundle(tmp_path / "tiny")
        scenario.write_text(scenario.read_text().replace("repair_hours: 1.0", "repair_hours: .nan"))
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert "repair_hours" in err and "finite" in err

    @pytest.mark.parametrize("old, new, field, got", [
        ("seed: 7", "seed: 7\nhorizon: 24.9", "horizon", "24.9"),
        ("replications: 3", "replications: 2.7", "replications", "2.7"),
        ("replications: 3", "replications: yes", "replications", "True"),
        ("seed: 7", "seed: true", "seed", "True"),
        ("repair_hours: 1.0", "repair_hours: true", "repair_hours", "True"),
        ("seed: 7", "seed: 7\nsr_delivery_hours: yes", "sr_delivery_hours", "True"),
    ], ids=["horizon-float", "replications-float", "replications-bool", "seed-bool",
            "repair_hours-bool", "sr_delivery_hours-bool"])
    def test_scalar_of_wrong_type(self, tmp_path, capsys, old, new, field, got):
        """A count, seed or duration YAML reads as the wrong type is refused,
        not truncated or read as 1."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        scenario.write_text(scenario.read_text().replace(old, new))
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert "scenario.yaml" in err and f"field {field!r}" in err and got in err
        assert not (tmp_path / "out").exists()

    def test_duration_as_exponent_string(self, tmp_path):
        """YAML 1.1 reads ``1e3`` as a string; as a duration it is 1000 hours."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        scenario.write_text(scenario.read_text().replace("repair_hours: 1.0", "repair_hours: 1e3")
                            + "sr_delivery_hours: 5e-1\n")
        loaded = load_scenario(scenario)
        assert (loaded.repair_hours, loaded.sr_delivery_hours) == (1000.0, 0.5)

    SIMULATE = ["simulate", "--scenario", "{root}/scenario.yaml", "--out", "{root}/out"]

    @pytest.mark.parametrize("fault", ["non-numeric cell", "short row", "extra cell"])
    @pytest.mark.parametrize("name, line, column, argv", [
        ("profiles.csv", 7, "pv_kw", SIMULATE),
        ("sor.csv", 5, "probability", SIMULATE),
        ("derate.csv", 3, "factor", SIMULATE),
        ("scores.csv", 3, "score", ["metrics", "--scores", "{root}/scores.csv"]),
        ("train.csv", 3, "gust",
         ["sor", "train", "--data", "{root}/train.csv", "--out", "{root}/model.json"]),
    ], ids=["profiles", "sor", "derate", "scores", "train"])
    def test_malformed_csv_row(self, tmp_path, capsys, name, line, column, argv, fault):
        """Each CSV input: the last cell of one row is non-numeric, missing,
        or followed by an extra cell."""
        root = tmp_path / "tiny"
        scenario = write_tiny_bundle(root)
        scenario.write_text(scenario.read_text() + "derate: derate.csv\n")
        (root / "derate.csv").write_text("feeder_id,hour,factor\nF1,0,0.9\nF1,1,0.8\n")
        (root / "scores.csv").write_text("label,score\n1,0.9\n0,0.2\n1,0.7\n")
        (root / "train.csv").write_text("feeder_id,hour,label,gust\n" + "".join(
            f"F1,{h},{h % 2},{10.0 + 20.0 * (h % 2)}\n" for h in range(12)))
        path = root / name
        lines = path.read_text().splitlines()
        cells = lines[line - 1].split(",")
        faulty = {"non-numeric cell": cells[:-1] + ["abc"], "short row": cells[:-1],
                  "extra cell": cells + ["0"]}
        lines[line - 1] = ",".join(faulty[fault])
        path.write_text("\n".join(lines) + "\n")
        code = main([arg.format(root=root) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert name in err and f"line {line}," in err and repr(column) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row", ["F99,3,0.5", "F1,30,0.5"])
    def test_derate_row_outside_scenario(self, tmp_path, capsys, row):
        scenario = write_tiny_bundle(tmp_path / "tiny")
        scenario.write_text(scenario.read_text() + "derate: derate.csv\n")
        (scenario.parent / "derate.csv").write_text(f"feeder_id,hour,factor\nF1,0,0.9\n{row}\n")
        code, err = self.run(scenario, tmp_path, capsys)
        feeder, hour, _ = row.split(",")
        assert code == 1
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert f"derate row outside scenario: feeder {feeder!r} hour {hour}" in err

    def test_duplicate_derate_row(self, tmp_path, capsys):
        """A (feeder, hour) given twice is refused, not settled by its last
        factor."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        scenario.write_text(scenario.read_text() + "derate: derate.csv\n")
        path = scenario.parent / "derate.csv"
        path.write_text("feeder_id,hour,factor\nF1,3,0.5\nF1,3,0.9\n")
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert f"{path}: duplicate entry for feeder 'F1' hour 3" in err

    def test_duplicate_feeder_id(self, tmp_path, capsys):
        """Two ``- id: F1`` blocks: the fleet is rejected instead of the
        first block's n-Grid dropping out of the results."""
        root = tmp_path / "dup"
        scenario = write_tiny_bundle(root)
        (root / "profiles.csv").write_text("ngrid_id,hour,load_kw,pv_kw\n" + "".join(
            f"N{n},{h},{n}.0,0.0\n" for n in (1, 2) for h in range(H)))
        (root / "sor.csv").write_text(
            "feeder_id,hour,probability\n" + "".join(f"F1,{h},0.0\n" for h in range(H)))
        (root / "fleet.json").write_text(
            '{"feeders": [{"id": "F1", "ngrids": [{"id": "N1"}]},\n'
            '             {"id": "F1", "ngrids": [{"id": "N2"}]}]}\n')
        fleet = load_fleet(root / "fleet.json", root / "profiles.csv", H)
        assert [ng.id for ng in fleet.ngrids] == ["N1", "N2"]
        assert validate_fleet(fleet, H) == ["duplicate feeder id 'F1'"]
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert err == f"validation error: {root / 'fleet.json'}: duplicate feeder id 'F1'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, named", [
        ('"plug_hours": "0-6,19-23"', '"plug_hours": "9-3"',
         "n-Grid 'N1': plug hour range '9-3' is reversed"),
        ('"p_normal": 1.0', '"p_normal": [1.0, 1.0]',
         "n-Grid 'N1' hvac p_normal length 2 != horizon 24"),
        ('"p_normal": 1.0', '"p_normal": "abc"',
         "n-Grid 'N1': hvac p_normal: expected a number or a list of 24 numbers"),
        ('"earliest": 9,', '"earliest": Infinity,',
         "n-Grid 'N1': task 0 earliest: expected an integer hour, got inf"),
        ('"p_max_kw": 5.0', '"p_max_kw": true',
         "n-Grid 'N1': BESS p_max_kw: expected a number, got True"),
        ('"p_normal": 1.0', '"p_normal": true',
         "n-Grid 'N1': hvac p_normal: expected a number or a list of 24 numbers"),
        ('"earliest": 9,', '"earliest": 9.7,',
         "n-Grid 'N1': task 0 earliest: expected an integer hour, got 9.7"),
        ('"plug_hours": "0-6,19-23"', '"plug_hours": [0, 1.5, 19]',
         "n-Grid 'N1': plug_hours: expected an integer hour, got 1.5"),
    ], ids=["reversed-plug-hours", "hvac-length", "hvac-text", "infinite-hour", "bool-bess-power",
            "bool-hvac", "fractional-hour", "fractional-plug-hour"])
    def test_fleet_field_named_with_file(self, tmp_path, capsys, old, new, named):
        """A fleet number is a JSON number and an hour a JSON integer: a bool
        or a fraction is named with its file, n-Grid and key."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        fleet = scenario.parent / "fleet.json"
        fleet.write_text(fleet.read_text().replace(old, new))
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert err == f"validation error: {fleet}: {named}\n"

    @pytest.mark.parametrize("old, new, named", [
        ('"p_normal": 1.0', '"p_normal": Infinity',
         "hvac p_normal has negative or non-finite values"),
        ('"p_max_kw": 5.0', '"p_max_kw": Infinity', "BESS: p_max_kw must be finite and > 0"),
        ('"capacity_kwh": 10.0', '"capacity_kwh": Infinity',
         "BESS: capacity_kwh must be finite and > 0"),
        ('"power_kw": 1.0', '"power_kw": Infinity', "task 0: power_kw must be finite and > 0"),
        ('"energy_kwh": 2.0', '"energy_kwh": Infinity',
         "task 0: energy_kwh must be finite and > 0"),
    ], ids=["hvac-p-normal", "bess-p-max", "bess-capacity", "task-power", "task-energy"])
    def test_non_finite_fleet_number(self, tmp_path, capsys, old, new, named):
        """An infinite number in the fleet file is named with its file and
        key before any dispatch, instead of running to infinite or wrong
        series."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        fleet = scenario.parent / "fleet.json"
        fleet.write_text(fleet.read_text().replace(old, new, 1))
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert err == f"validation error: {fleet}: n-Grid 'N1' {named}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new, named", [
        ('"plug_hours": "0-6,19-23"', '"plug_hours": "0-6,19-30"',
         "EV 0: plug hour outside horizon"),
        ('"soc0_kwh": 10.0', '"soc0_kwh": 99', "BESS: soc0_kwh outside [0, capacity_kwh]"),
        ('"soc_arrival_kwh": 30.0', '"soc_arrival_kwh": 999',
         "EV 0: soc_arrival_kwh outside [0, capacity_kwh]"),
    ], ids=["plug-hour", "bess-soc", "ev-soc"])
    def test_fleet_value_named_with_file(self, tmp_path, capsys, old, new, named):
        """A fleet value out of range is named with the fleet file and the
        key the file gives it."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        fleet = scenario.parent / "fleet.json"
        fleet.write_text(fleet.read_text().replace(old, new, 1))
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert err == f"validation error: {fleet}: n-Grid 'N1' {named}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, old, new, problem", [
        ("fleet.json", ' "evs": ', ' "bess": {"capacity_kwh": 20.0, "p_max_kw": 5.0},\n "evs": ',
         "repeated key 'bess'"),
        ("scenario.yaml", "seed: 7\n", "seed: 7\nseed: 8\n", "repeated key 'seed' at line 7"),
    ], ids=["two-bess", "two-seeds"])
    def test_repeated_yaml_key(self, tmp_path, capsys, name, old, new, problem):
        """A key given twice in one mapping is an error, not its last value.
        The JSON decoder gives no position for a key, so only YAML's is named
        with its line."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        path = scenario.parent / name
        path.write_text(path.read_text().replace(old, new))
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert err == f"validation error: {path}: {problem}\n"

    @pytest.mark.parametrize("setting, argv, seed", [("seed: -1", [], -1),
                                                     ("seed: 7", ["--seed", "-3"], -3)],
                             ids=["file", "flag"])
    def test_negative_seed(self, tmp_path, capsys, setting, argv, seed):
        """A negative seed is reported by field before any dispatch, not by
        numpy's first outage draw: from the file with the file and its key,
        from the flag by the Scenario field."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        problem = f"master_seed must be >= 0, got {seed}"
        assert validate_scenario(replace(load_scenario(scenario), master_seed=seed)) == [problem]
        scenario.write_text(scenario.read_text().replace("seed: 7", setting))
        code = main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out"), *argv])
        assert code == 1
        if not argv:
            problem = f"{scenario}: field 'seed': must be >= 0, got {seed}"
        assert capsys.readouterr().err == f"validation error: {problem}\n"

    @pytest.mark.parametrize("key, value, problem", [
        ("replications", "0", "must be >= 1, got 0"),
        ("seed", "-3", "must be >= 0, got -3"),
        ("repair_hours", "-2.5", "must be finite and > 0, got -2.5"),
        ("sr_delivery_hours", "0", "must be finite and > 0, got 0.0"),
        ("precharge", "soon", "must be 'full' or 'sor', got 'soon'"),
    ], ids=["replications", "seed", "repair_hours", "sr_delivery_hours", "precharge"])
    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--repair", "1,2"]],
                             ids=["simulate", "sweep"])
    def test_setting_named_with_file(self, tmp_path, capsys, key, value, problem, command):
        """A scenario setting out of range is named with the scenario file
        and the file's own key for it, before any output is written."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        lines = scenario.read_text().splitlines(keepends=True)
        scenario.write_text("".join(line for line in lines if not line.startswith(f"{key}:"))
                            + f"{key}: {value}\n")
        code = main([*command, "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == \
            f"validation error: {scenario}: field {key!r}: {problem}\n"
        assert not (tmp_path / "out").exists()

    def test_reps_flag_named_by_field(self, tmp_path, capsys):
        """``--reps 0`` is not in the file: it is named by the Scenario
        field."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out"),
                     "--reps", "0"])
        assert code == 1
        assert capsys.readouterr().err == "validation error: replications must be >= 1, got 0\n"

    def test_zero_horizon(self, tmp_path, capsys):
        """``horizon: 0`` is named in the scenario file, not blamed on the
        profiles' hours."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        scenario.write_text(scenario.read_text() + "horizon: 0\n")
        code, err = self.run(scenario, tmp_path, capsys)
        assert code == 1
        assert err == f"validation error: {scenario}: field 'horizon': must be >= 1, got 0\n"

    @pytest.mark.parametrize("name, argv", [
        ("profiles.csv", SIMULATE),
        ("scenario.yaml", SIMULATE),
        ("fleet.json", SIMULATE),
        ("model.json", ["sor", "eval", "--model", "{root}/model.json",
                        "--data", "{root}/train.csv"]),
    ], ids=["csv", "yaml", "json", "model"])
    def test_not_utf8(self, tmp_path, capsys, name, argv):
        root = tmp_path / "tiny"
        write_tiny_bundle(root)
        TestSorCli.write_training_csv(root / "train.csv")
        assert main(["sor", "train", "--data", str(root / "train.csv"),
                     "--out", str(root / "model.json"), "--stumps", "3"]) == 0
        capsys.readouterr()
        path = root / name
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
        code = main([arg.format(root=root) for arg in argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert name in err and "not UTF-8" in err
        assert "Traceback" not in err


class TestSweepReuse:
    @pytest.mark.parametrize("repair, points, shadows", [("1,2,3", 3, 1), ("2,3", 3, 1)])
    def test_series_match_simulate(self, tmp_path, monkeypatch, capsys, repair, points,
                                   shadows):
        """The sweep's series files are the scenario's own simulation (repair
        1 h), run as a point of the sweep's one shadow and one Monte Carlo
        pass whether or not the sweep lists it; sweep.csv and the printout
        hold only the listed times."""
        scenario = write_tiny_bundle(tmp_path / "tiny")
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "sim")]) == 0
        calls = {"_monte_carlo": [], "compute_shadow": []}

        def counted(name):
            original = getattr(harness, name)

            def wrapper(*args):
                calls[name].append(args)
                return original(*args)
            monkeypatch.setattr(harness, name, wrapper)

        counted("_monte_carlo")
        counted("compute_shadow")
        assert main(["sweep", "--scenario", str(scenario), "--repair", repair,
                     "--out", str(tmp_path / "swp")]) == 0
        assert [len(args[2]) for args in calls["_monte_carlo"]] == [points]
        assert len(calls["compute_shadow"]) == shadows
        listed = [float(v) for v in repair.split(",")]
        lines = (tmp_path / "swp" / "sweep.csv").read_text().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:]] == listed
        printed = [line for line in capsys.readouterr().out.splitlines() if "repair" in line]
        assert [line.split()[1] for line in printed] == repair.split(",")
        for name in ("fleet_series.csv", "summary.csv", "outages.csv"):
            assert filecmp.cmp(tmp_path / "sim" / name, tmp_path / "swp" / name,
                               shallow=False)


class TestSorCli:
    @staticmethod
    def write_training_csv(path, n=120):
        import random
        rng = random.Random(0)
        lines = ["feeder_id,hour,label,gust,cat:season"]
        for i in range(n):
            gust = rng.uniform(0.0, 40.0)
            season = rng.choice(["winter", "summer"])
            label = 1 if gust > 20.0 else 0
            lines.append(f"F{i % 4},{i % 24},{label},{gust:.3f},{season}")
        path.write_text("\n".join(lines) + "\n")

    def test_train_score_eval_pipeline(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        self.write_training_csv(data)
        model = tmp_path / "model.json"
        assert main(["sor", "train", "--data", str(data), "--out", str(model),
                     "--stumps", "40"]) == 0
        assert model.exists()

        assert main(["sor", "eval", "--model", str(model), "--data", str(data)]) == 0
        out = capsys.readouterr().out
        assert "roc_auc: 1.000000" in out

        # Scoring needs exactly one row per feeder-hour.
        score_data = tmp_path / "score.csv"
        lines = ["feeder_id,hour,gust,cat:season"]
        lines += [f"F1,{h},{5.0 + h},winter" for h in range(24)]
        score_data.write_text("\n".join(lines) + "\n")
        sor_out = tmp_path / "sor.csv"
        assert main(["sor", "score", "--model", str(model), "--data", str(score_data),
                     "--out", str(sor_out)]) == 0
        text = sor_out.read_text().splitlines()
        assert text[0] == "feeder_id,hour,probability"
        assert len(text) == 25

    @pytest.mark.parametrize("fault, named", [
        ("no stumps", "top level: missing field 'stumps'"),
        ("stump without kind", "stump #1: missing field 'kind'"),
        ("top-level list", "expected a JSON object"),
        ("malformed JSON", "malformed JSON"),
        ("null threshold", "stump #0: field 'threshold' must be a finite number, got None"),
        ("misspelled kind", "stump #0: field 'kind' must be 'numeric' or 'categorical'"),
        ("NaN leaf", "stump #2: field 'right_value' must be a finite number, got nan"),
        ("numeric levels", "stump #1: field 'levels' must be a list of strings"),
        ("repeated key", "model.json: repeated key 'learning_rate'"),
    ], ids=["no-stumps", "no-kind", "list", "bad-json", "null-threshold", "kind-Numeric",
            "nan-leaf", "numeric-levels", "repeated-key"])
    def test_malformed_model(self, tmp_path, capsys, fault, named):
        """A bad model file ends in exit 1 naming the file, the stump and the field."""
        data = tmp_path / "train.csv"
        self.write_training_csv(data)
        model = tmp_path / "model.json"
        assert main(["sor", "train", "--data", str(data), "--out", str(model),
                     "--stumps", "3"]) == 0
        capsys.readouterr()
        doc = json.loads(model.read_text())
        assert [s["kind"] for s in doc["stumps"]] == ["numeric"] * 3
        if fault == "no stumps":
            del doc["stumps"]
        elif fault == "stump without kind":
            del doc["stumps"][1]["kind"]
        elif fault == "null threshold":
            doc["stumps"][0]["threshold"] = None
        elif fault == "misspelled kind":
            doc["stumps"][0]["kind"] = "Numeric"
        elif fault == "NaN leaf":
            doc["stumps"][2]["right_value"] = float("nan")
        elif fault == "numeric levels":
            doc["stumps"][1].update(kind="categorical", threshold=None, levels=[1, 2])
        text = json.dumps([doc] if fault == "top-level list" else doc)
        if fault == "repeated key":
            text = text.replace('"learning_rate": ', '"learning_rate": 0.5, "learning_rate": ')
        model.write_text(text.replace('"', "'", 2) if fault == "malformed JSON" else text)
        assert main(["sor", "eval", "--model", str(model), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert "model.json" in err and named in err
        assert "Traceback" not in err

    def test_eval_non_finite_threshold(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        self.write_training_csv(data)
        model = tmp_path / "model.json"
        assert main(["sor", "train", "--data", str(data), "--out", str(model),
                     "--stumps", "3"]) == 0
        capsys.readouterr()
        assert main(["sor", "eval", "--model", str(model), "--data", str(data),
                     "--threshold", "nan"]) == 1
        assert capsys.readouterr().err == "validation error: threshold must be finite, got nan\n"

    def test_feature_named_twice(self, tmp_path, capsys):
        """Columns ``gust`` and ``cat:gust`` both name feature ``gust``; here
        they split the rows alike, so the two splits tie on gain."""
        data = tmp_path / "train.csv"
        data.write_text("feeder_id,hour,label,gust,cat:gust\n" + "".join(
            f"F1,{h},{int(h % 2 == (h % 5 > 0))},{h % 2}.5,{'ab'[h % 2]}\n" for h in range(40)))
        assert main(["sor", "train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                     "--stumps", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert "train.csv" in err and "'cat:gust'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_missing_feature_names_data_file(self, tmp_path, capsys, command):
        """Data lacking a column the model uses: exit 1 naming file and column."""
        self.write_training_csv(tmp_path / "train.csv")
        model = tmp_path / "model.json"
        assert main(["sor", "train", "--data", str(tmp_path / "train.csv"), "--out", str(model),
                     "--stumps", "3"]) == 0
        capsys.readouterr()
        data = tmp_path / "holdout.csv"
        data.write_text("feeder_id,hour,label,cat:season\n" + "".join(
            f"F1,{h},{h % 2},winter\n" for h in range(24)))
        argv = ["sor", command, "--model", str(model), "--data", str(data)]
        assert main(argv + (["--out", str(tmp_path / "sor.csv")] if command == "score" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert "holdout.csv" in err and "column 'gust'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rate", ["nan", "inf", "-0.1", "0"])
    def test_train_rejects_learning_rate(self, tmp_path, capsys, rate):
        """A learning rate that is not finite and > 0 ends in exit 1 naming
        the field, with no model written and no numpy warning."""
        data = tmp_path / "train.csv"
        self.write_training_csv(data)
        model = tmp_path / "model.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sor", "train", "--data", str(data), "--out", str(model),
                         f"--learning-rate={rate}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert "learning_rate" in err and "Traceback" not in err
        assert not model.exists()

    def test_train_single_class_fails_validation(self, tmp_path):
        data = tmp_path / "train.csv"
        data.write_text("feeder_id,hour,label,gust\nF1,0,1,5.0\nF1,1,1,9.0\n")
        assert main(["sor", "train", "--data", str(data),
                     "--out", str(tmp_path / "m.json")]) == 1


class TestDemo:
    def test_demo_bundle_loads(self, tmp_path):
        assert main(["demo", "--out", str(tmp_path / "demo"), "--reps", "2"]) == 0
        scenario = load_scenario(tmp_path / "demo" / "scenario.yaml")
        assert scenario.replications == 2
        assert len(scenario.fleet.ngrids) == 500
        assert sum(len(n.evs) for n in scenario.fleet.ngrids) == 750
