from ngridsim.dispatch import FleetArrays
from ngridsim.fleet import (DeferrableTask, ElectricVehicle, Fleet, HourlyProfile,
                            HvacAsset, NGrid, StorageUnit, validate_fleet)

H = 24


def make_ngrid(nid="N1", feeder="F1", base=1.0, pv=0.0, **kwargs):
    return NGrid(id=nid, feeder_id=feeder,
                 base_load=HourlyProfile.constant(base, H),
                 pv=HourlyProfile.constant(pv, H), **kwargs)


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
        ng = make_ngrid("N1", "F1", hvac=HvacAsset(HourlyProfile(p_norm), HourlyProfile(p_min)))
        fleet = Fleet(feeders=("F1",), ngrids=(ng,))
        report = validate_fleet(fleet, H)
        assert len(report) == 1
        assert "HVAC" in report[0] and "hour 3" in report[0]

    def test_profile_length_mismatch(self):
        ng = NGrid(id="N1", feeder_id="F1", base_load=HourlyProfile.constant(1.0, 12),
                   pv=HourlyProfile.zeros(H))
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
        assert any("soc_kwh" in v for v in report)
        assert any("window" in v for v in report)


class TestEvPlugModel:
    def test_arrival_detection(self):
        ev = ElectricVehicle(battery=StorageUnit(60.0, 7.0, 30.0),
                             plug_hours=frozenset(range(0, 7)) | frozenset(range(19, 24)),
                             soc_on_arrival_kwh=30.0)
        arrays = FleetArrays.build([make_ngrid(evs=(ev,))], H)
        arrives, plugged = arrays.arrives[:, 0, 0], arrays.plugged[:, 0, 0]
        assert arrives[0]
        assert not arrives[3]
        assert arrives[19]
        assert not arrives[20]
        assert not plugged[12]
        assert list(arrives.nonzero()[0]) == [0, 19]
