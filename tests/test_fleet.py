import math

from ngridsim.dispatch import FleetArrays
from ngridsim.fleet import (DeferrableTask, ElectricVehicle, Fleet, HvacAsset, NGrid,
                            StorageUnit, validate_fleet)

H = 24


def make_ngrid(nid="N1", feeder="F1", base=1.0, pv=0.0, **kwargs):
    return NGrid(id=nid, feeder_id=feeder,
                 base_load=(base,) * H, pv=(pv,) * H, **kwargs)


def two_feeder_fleet():
    a = make_ngrid("N1", "F1")
    b = make_ngrid("N2", "F2", bess=StorageUnit(10.0, 5.0, 5.0))
    return Fleet(feeders=("F1", "F2"), ngrids=(a, b))


class TestValidateFleet:
    def test_well_formed(self):
        assert validate_fleet(two_feeder_fleet(), H) == []

    def test_unknown_feeder_named(self):
        ng = make_ngrid("N1", "F9")
        fleet = Fleet(feeders=("F1",), ngrids=(ng,))
        report = validate_fleet(fleet, H)
        assert any("F9" in v for v in report)

    def test_hvac_bound_named(self):
        p_norm = [1.0] * H
        p_min = [0.5] * H
        p_min[3], p_norm[3] = 2.0, 1.0
        ng = make_ngrid("N1", "F1", hvac=HvacAsset(p_norm, p_min))
        fleet = Fleet(feeders=("F1",), ngrids=(ng,))
        report = validate_fleet(fleet, H)
        assert len(report) == 1
        assert "HVAC" in report[0] and "hour 3" in report[0]

    def test_profile_length_mismatch(self):
        ng = NGrid(id="N1", feeder_id="F1", base_load=(1.0,) * 12, pv=(0.0,) * H)
        fleet = Fleet(feeders=("F1",), ngrids=(ng,))
        assert any("length" in v for v in validate_fleet(fleet, H))

    def test_duplicate_ngrid_id_named(self):
        fleet = Fleet(feeders=("F1", "F2"),
                      ngrids=(make_ngrid("N1", "F1"), make_ngrid("N1", "F2", base=2.0)))
        assert validate_fleet(fleet, H) == ["duplicate n-Grid id 'N1'"]

    def test_duplicate_feeder_id_named(self):
        """Two feeders under one id would share one SoR row and one
        feeder's n-Grids, so the fleet is rejected."""
        fleet = Fleet(feeders=("F1", "F2", "F1"),
                      ngrids=(make_ngrid("N1", "F1"), make_ngrid("N2", "F1", base=2.0)))
        assert validate_fleet(fleet, H) == ["duplicate feeder id 'F1'"]

    def test_bad_storage_and_window(self):
        ng = make_ngrid("N1", "F1", bess=StorageUnit(10.0, 5.0, 12.0),
                        deferrables=(DeferrableTask(2.0, 1.0, 10, 30),))
        fleet = Fleet(feeders=("F1",), ngrids=(ng,))
        report = validate_fleet(fleet, H)
        assert any("soc0_kwh" in v for v in report)
        assert any("window" in v for v in report)

    def test_non_finite_numbers_named(self):
        """Each number must be finite: one message per bad field, naming it,
        and a profile of the wrong length is named like any other."""
        ev = ElectricVehicle(StorageUnit(60.0, 7.0, math.nan), frozenset({0}))
        ng = make_ngrid("N1", "F1", pv=math.nan, bess=StorageUnit(math.inf, math.inf, 5.0),
                        evs=(ev,), hvac=HvacAsset((1.0,) * H, (math.nan,) * (H - 1)),
                        deferrables=(DeferrableTask(math.inf, math.nan, 9, 16),))
        assert validate_fleet(Fleet(("F1",), (ng,)), H) == [
            "n-Grid 'N1' pv has negative or non-finite values",
            "n-Grid 'N1' hvac p_min length 23 != horizon 24",
            "n-Grid 'N1' hvac p_min has negative or non-finite values",
            "n-Grid 'N1' BESS: capacity_kwh must be finite and > 0",
            "n-Grid 'N1' BESS: p_max_kw must be finite and > 0",
            "n-Grid 'N1' EV 0: soc_arrival_kwh outside [0, capacity_kwh]",
            "n-Grid 'N1' task 0: energy_kwh must be finite and > 0",
            "n-Grid 'N1' task 0: power_kw must be finite and > 0",
        ]


class TestEvPlugModel:
    def test_arrival_detection(self):
        ev = ElectricVehicle(battery=StorageUnit(60.0, 7.0, 30.0),
                             plug_hours=frozenset(range(0, 7)) | frozenset(range(19, 24)))
        arrays = FleetArrays.build([make_ngrid(evs=(ev,))], H)
        arrives, plugged = arrays.arrives[:, 0, 0], arrays.plugged[:, 0, 0]
        assert arrives[0]
        assert not arrives[3]
        assert arrives[19]
        assert not arrives[20]
        assert not plugged[12]
        assert list(arrives.nonzero()[0]) == [0, 19]
