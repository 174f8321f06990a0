"""Scenario and fleet file loading.

Scenario files are YAML with scalar settings plus paths (relative to the
scenario file) for the fleet config, the profiles CSV, the SoR CSV, and an
optional derate CSV. Fleet configs are YAML: feeders with per-n-Grid blocks
declaring BESS, EVs (plug hours as ranges like ``0-6,19-23``), HVAC
(constant or per-hour list), and deferrable tasks. Profiles come from a
``ngrid_id,hour,load_kw,pv_kw`` CSV with one row per n-Grid hour.
"""

from __future__ import annotations

import os
from dataclasses import fields

import yaml

from .fleet import (DeferrableTask, ElectricVehicle, Feeder, Fleet,
                    HourlyProfile, HvacAsset, NGrid, StorageUnit)
from .harness import Scenario
from .sor import load_sor_table
from .tables import ValidationError, read_table

PROFILE_COLUMNS = ("ngrid_id", "hour", "load_kw", "pv_kw")
DERATE_COLUMNS = ("feeder_id", "hour", "factor")
SCENARIO_DEFAULTS = {f.name: f.default for f in fields(Scenario)}


def parse_plug_hours(spec) -> set[int]:
    """``"0-6,19-23"`` (or a list of ints) -> set of hour indices."""
    if isinstance(spec, (list, tuple)):
        return {int(h) for h in spec}
    hours: set[int] = set()
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValidationError(f"plug hour range {part!r} is reversed")
            hours.update(range(lo, hi + 1))
        else:
            hours.add(int(part))
    return hours


def _profile(value, horizon: int, where: str) -> HourlyProfile:
    if isinstance(value, (int, float)):
        return HourlyProfile.constant(float(value), horizon)
    if isinstance(value, (list, tuple)):
        if len(value) != horizon:
            raise ValidationError(f"{where}: profile length {len(value)} != horizon {horizon}")
        return HourlyProfile(value)
    raise ValidationError(f"{where}: expected a number or a list of {horizon} numbers")


def load_profiles(path, horizon: int) -> dict[str, tuple[HourlyProfile, HourlyProfile]]:
    """Per-n-Grid (load, pv) profiles from CSV; every hour must be present."""
    hours_of: dict[str, list] = {}  # n-Grid id -> (load_kw, pv_kw) per hour
    for rec in read_table(path, PROFILE_COLUMNS,
                          {"hour": int, "load_kw": float, "pv_kw": float}.get):
        nid, h = rec["ngrid_id"], rec["hour"]
        if nid not in hours_of:
            hours_of[nid] = [None] * horizon
        if not (0 <= h < horizon):
            raise ValidationError(f"{path}: hour {h} out of range for n-Grid {nid!r}")
        if hours_of[nid][h] is not None:
            raise ValidationError(f"{path}: duplicate row for n-Grid {nid!r} hour {h}")
        hours_of[nid][h] = (rec["load_kw"], rec["pv_kw"])
    profiles = {}
    for nid, hours in hours_of.items():
        if None in hours:
            raise ValidationError(f"{path}: n-Grid {nid!r} missing hour {hours.index(None)}")
        profiles[nid] = (HourlyProfile(load for load, _ in hours),
                         HourlyProfile(pv for _, pv in hours))
    return profiles


# The C parser, when PyYAML was built with it, yields the same documents
# several times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ValidationError(f"{path}: malformed YAML: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None


def _parse_ngrid(ndoc, nid: str, feeder_id: str, profiles, horizon: int) -> NGrid:
    base_load, pv = profiles[nid]
    bess = None
    if "bess" in ndoc and ndoc["bess"] is not None:
        b = ndoc["bess"]
        bess = StorageUnit(capacity_kwh=float(b["capacity_kwh"]),
                           p_max_kw=float(b["p_max_kw"]),
                           soc_kwh=float(b.get("soc0_kwh", b["capacity_kwh"])),
                           eta_charge=float(b.get("eta_charge", 1.0)),
                           eta_discharge=float(b.get("eta_discharge", 1.0)))
    evs = []
    for edoc in ndoc.get("evs", []) or []:
        battery = StorageUnit(capacity_kwh=float(edoc["capacity_kwh"]),
                              p_max_kw=float(edoc["p_max_kw"]),
                              soc_kwh=float(edoc["soc_arrival_kwh"]),
                              eta_charge=float(edoc.get("eta_charge", 1.0)),
                              eta_discharge=float(edoc.get("eta_discharge", 1.0)))
        evs.append(ElectricVehicle(battery=battery,
                                   plug_hours=frozenset(parse_plug_hours(edoc["plug_hours"])),
                                   soc_on_arrival_kwh=float(edoc["soc_arrival_kwh"])))
    hvac = None
    if "hvac" in ndoc and ndoc["hvac"] is not None:
        hdoc = ndoc["hvac"]
        hvac = HvacAsset(p_normal_kw=_profile(hdoc["p_normal"], horizon, f"n-Grid {nid} hvac"),
                         p_min_kw=_profile(hdoc["p_min"], horizon, f"n-Grid {nid} hvac"))
    tasks = []
    for tdoc in ndoc.get("deferrables", []) or []:
        tasks.append(DeferrableTask(energy_kwh=float(tdoc["energy_kwh"]),
                                    power_kw=float(tdoc["power_kw"]),
                                    earliest_hour=int(tdoc["earliest"]),
                                    deadline_hour=int(tdoc["deadline"])))
    return NGrid(id=nid, feeder_id=feeder_id, base_load=base_load, pv=pv,
                 bess=bess, evs=tuple(evs), hvac=hvac, deferrables=tuple(tasks))


def load_fleet(fleet_path, profiles_path, horizon: int) -> Fleet:
    doc = _load_yaml(fleet_path)
    if not isinstance(doc, dict) or "feeders" not in doc:
        raise ValidationError(f"{fleet_path}: expected a top-level 'feeders' list")
    profiles = load_profiles(profiles_path, horizon)

    feeders = []
    ngrids = []
    # ``where`` names the block being read, so a missing or malformed field
    # is reported with its file and owner instead of as a bare KeyError.
    where = "feeders"
    try:
        for i, fdoc in enumerate(doc["feeders"]):
            where = f"feeder #{i}"
            feeder_id = str(fdoc["id"])
            ngrid_ids = []
            for j, ndoc in enumerate(fdoc.get("ngrids", [])):
                where = f"feeder {feeder_id!r} n-Grid #{j}"
                nid = str(ndoc["id"])
                if nid not in profiles:
                    raise ValidationError(f"{profiles_path}: no profile rows for n-Grid {nid!r}")
                where = f"n-Grid {nid!r}"
                ngrids.append(_parse_ngrid(ndoc, nid, feeder_id, profiles, horizon))
                ngrid_ids.append(nid)
            feeders.append(Feeder(id=feeder_id, ngrid_ids=tuple(ngrid_ids)))
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(
            f"{fleet_path}: {where}: missing required field {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(f"{fleet_path}: {where}: {exc}") from None
    return Fleet(feeders=tuple(feeders), ngrids=tuple(ngrids))


def load_derate(path) -> dict[tuple[str, int], float]:
    return {(rec["feeder_id"], rec["hour"]): rec["factor"]
            for rec in read_table(path, DERATE_COLUMNS,
                                  {"hour": int, "factor": float}.get)}


def load_scenario(path) -> Scenario:
    doc = _load_yaml(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a YAML mapping")
    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(key: str):
        if key not in doc:
            raise ValidationError(f"{path}: missing required key {key!r}")
        return os.path.join(base_dir, str(doc[key]))

    def scalar(key: str, convert, name: str | None = None):
        """``doc[key]`` converted, else Scenario's default for ``name or key``."""
        try:
            return convert(doc.get(key, SCENARIO_DEFAULTS[name or key]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}: field {key!r}: {exc}") from None

    horizon = scalar("horizon", int)
    fleet = load_fleet(resolve("fleet"), resolve("profiles"), horizon)
    sor = load_sor_table(resolve("sor"))
    derate = None
    if doc.get("derate"):
        derate = load_derate(os.path.join(base_dir, str(doc["derate"])))
    return Scenario(
        fleet=fleet,
        sor=sor,
        horizon=horizon,
        repair_hours=scalar("repair_hours", float),
        replications=scalar("replications", int),
        master_seed=scalar("seed", int, "master_seed"),
        sr_delivery_hours=scalar("sr_delivery_hours", float),
        derate=derate,
        precharge=scalar("precharge", str),
    )
