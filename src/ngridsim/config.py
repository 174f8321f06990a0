"""Scenario and fleet files: their loaders and :func:`write_bundle`, which
writes a scenario as the files the loaders read.

Scenario files are YAML with scalar settings plus paths (relative to the
scenario file) for the fleet config, the profiles CSV, the SoR CSV, and an
optional derate CSV; any other key is refused. The SoR table holds every
feeder at every hour, so its hour count sets the horizon. Fleet configs are
JSON: feeders with per-n-Grid blocks declaring BESS, EVs (plug hours as
ranges like ``0-6,19-23`` or a list of hours, and the SoC at each plug-in
as ``soc_arrival_kwh``), HVAC (constant or per-hour list), and deferrable
tasks. Every fleet number is a JSON number (not a bool or a string) and
every hour a JSON integer. Profiles come from a ``ngrid_id,hour,load_kw,pv_kw``
CSV with one row per hour of each n-Grid the fleet lists; every profile is
a tuple of floats. A key may appear once per YAML mapping or JSON object: a
repeated one is reported, with its line in YAML (JSON files are read by
:func:`ngridsim.tables.read_json`). The loaders check form and that each
profile value is finite and >= 0. :func:`ngridsim.harness.validate_scenario`
checks values (an HVAC profile's length, the SoR table's cover of the fleet,
a derate factor, a setting), and :func:`load_scenario` reports each problem
after its input's file name, a setting's after the scenario file's key.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields

import yaml

from .fleet import DeferrableTask, ElectricVehicle, Fleet, HvacAsset, NGrid, StorageUnit
from .harness import Scenario, validate_scenario
from .sor import load_sor_table, save_sor_table
from .tables import ValidationError, read_feeder_hours, read_json, read_table, write_table

PROFILE_COLUMNS = ("ngrid_id", "hour", "load_kw", "pv_kw")
DERATE_COLUMNS = ("feeder_id", "hour", "factor")
SCENARIO_DEFAULTS = {f.name: f.default for f in fields(Scenario)}


def _number(value, name: str) -> float:
    """A fleet number: ``json`` gives int or float, and bool is an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    return float(value)


def _hour(value, name: str) -> int:
    """An hour index: a JSON integer, not 9.7, 9.0 or true."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name}: expected an integer hour, got {value!r}")
    return value


def _integer(value) -> int:
    """A scenario count or seed: a YAML integer, not 2.7, 2.0, yes or "3"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _hours(value) -> float:
    """A scenario duration: a YAML number or a string ``float`` reads, such
    as ``1e3`` (YAML 1.1 reads a float with no dot as a string); not a bool."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _kw(cell: str) -> float:
    """A profile cell: a finite number >= 0."""
    if not (math.isfinite(value := float(cell)) and value >= 0.0):
        raise ValueError(f"expected a finite number >= 0, got {cell!r}")
    return value


def parse_plug_hours(spec) -> set[int]:
    """``"0-6,19-23"`` (or a list of ints) -> set of hour indices."""
    if isinstance(spec, (list, tuple)):
        return {_hour(h, "plug_hours") for h in spec}
    hours: set[int] = set()
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"plug hour range {part!r} is reversed")
            hours.update(range(lo, hi + 1))
        else:
            hours.add(int(part))
    return hours


def _plug_ranges(hours: frozenset[int]) -> str:
    """The inverse of :func:`parse_plug_hours`: ``"0-6,19-23"``."""
    parts = []
    for h in sorted(hours):
        if parts and parts[-1][1] == h - 1:
            parts[-1][1] = h
        else:
            parts.append([h, h])
    return ",".join(f"{a}-{b}" if a != b else str(a) for a, b in parts)


def _profile(value, horizon: int, field: str) -> tuple[float, ...]:
    if isinstance(value, list):
        return tuple(_number(v, f"{field} hour {h}") for h, v in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field}: expected a number or a list of {horizon} numbers")
    return (float(value),) * horizon


def _hourly(profile: tuple[float, ...]):
    """A constant profile as its one value, any other as its list."""
    return profile[0] if len(set(profile)) == 1 else list(profile)


def load_profiles(path, horizon: int) -> dict[str, tuple[tuple[float, ...], tuple[float, ...]]]:
    """Per-n-Grid (load, pv) profiles from CSV; every hour must be present."""
    hours_of: dict[str, list] = {}  # n-Grid id -> (load_kw, pv_kw) per hour
    for rec in read_table(path, PROFILE_COLUMNS,
                          {"hour": int, "load_kw": _kw, "pv_kw": _kw}.get):
        nid, h = rec["ngrid_id"], rec["hour"]
        if nid not in hours_of:
            hours_of[nid] = [None] * horizon
        if not (0 <= h < horizon):
            raise ValidationError(f"{path}: n-Grid {nid!r} hour {h} out of range 0-{horizon - 1}")
        if hours_of[nid][h] is not None:
            raise ValidationError(f"{path}: duplicate row for n-Grid {nid!r} hour {h}")
        hours_of[nid][h] = (rec["load_kw"], rec["pv_kw"])
    profiles = {}
    for nid, hours in hours_of.items():
        if None in hours:
            raise ValidationError(f"{path}: n-Grid {nid!r} missing hour {hours.index(None)}")
        profiles[nid] = (tuple(load for load, _ in hours), tuple(pv for _, pv in hours))
    return profiles


# The C parser, when PyYAML was built with it, yields the same documents
# several times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _UniqueKeyLoader(_YAML_LOADER):
    """The safe loader, refusing a key that repeats within one mapping
    instead of keeping its last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode):
                key = (key_node.tag, key_node.value)
                if key in seen:
                    raise ValidationError(f"repeated key {key_node.value!r} "
                                          f"at line {key_node.start_mark.line + 1}")
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _load_yaml(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=_UniqueKeyLoader)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        except yaml.YAMLError as exc:
            # PyYAML's own text spans several lines: keep the problem and its
            # position, or, for an error with no position, its text on one line.
            mark = getattr(exc, "problem_mark", None)
            detail = (" ".join(str(exc).split()) if mark is None else
                      f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}")
            raise ValidationError(f"{path}: malformed YAML: {detail}") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None


def _battery(doc, owner: str, soc_key: str, soc_default=None) -> StorageUnit:
    """A BESS or EV block's battery. Its starting SoC is field ``soc_key``,
    required unless ``soc_default`` is given."""
    soc = doc[soc_key] if soc_default is None else doc.get(soc_key, soc_default)
    return StorageUnit(capacity_kwh=_number(doc["capacity_kwh"], f"{owner} capacity_kwh"),
                       p_max_kw=_number(doc["p_max_kw"], f"{owner} p_max_kw"),
                       soc_kwh=_number(soc, f"{owner} {soc_key}"),
                       eta_charge=_number(doc.get("eta_charge", 1.0), f"{owner} eta_charge"),
                       eta_discharge=_number(doc.get("eta_discharge", 1.0),
                                             f"{owner} eta_discharge"))


def _efficiencies(unit: StorageUnit) -> dict:
    """The efficiencies that differ from :func:`_battery`'s default of 1."""
    return {name: getattr(unit, name) for name in ("eta_charge", "eta_discharge")
            if getattr(unit, name) != 1.0}


def _parse_ngrid(ndoc, nid: str, feeder_id: str, profiles, horizon: int) -> NGrid:
    base_load, pv = profiles[nid]
    bess = None
    if "bess" in ndoc and ndoc["bess"] is not None:
        b = ndoc["bess"]
        bess = _battery(b, "BESS", "soc0_kwh", b["capacity_kwh"])
    evs = []
    for i, edoc in enumerate(ndoc.get("evs", []) or []):
        evs.append(ElectricVehicle(
            battery=_battery(edoc, f"EV {i}", "soc_arrival_kwh"),
            plug_hours=frozenset(parse_plug_hours(edoc["plug_hours"]))))
    hvac = None
    if "hvac" in ndoc and ndoc["hvac"] is not None:
        hdoc = ndoc["hvac"]
        hvac = HvacAsset(p_normal_kw=_profile(hdoc["p_normal"], horizon, "hvac p_normal"),
                         p_min_kw=_profile(hdoc["p_min"], horizon, "hvac p_min"))
    tasks = []
    for i, tdoc in enumerate(ndoc.get("deferrables", []) or []):
        tasks.append(DeferrableTask(
            energy_kwh=_number(tdoc["energy_kwh"], f"task {i} energy_kwh"),
            power_kw=_number(tdoc["power_kw"], f"task {i} power_kw"),
            earliest_hour=_hour(tdoc["earliest"], f"task {i} earliest"),
            deadline_hour=_hour(tdoc["deadline"], f"task {i} deadline")))
    return NGrid(id=nid, feeder_id=feeder_id, base_load=base_load, pv=pv,
                 bess=bess, evs=tuple(evs), hvac=hvac, deferrables=tuple(tasks))


def load_fleet(fleet_path, profiles_path, horizon: int) -> Fleet:
    doc = read_json(fleet_path)
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
            feeders.append(feeder_id)
            for j, ndoc in enumerate(fdoc.get("ngrids", [])):
                where = f"feeder {feeder_id!r} n-Grid #{j}"
                nid = str(ndoc["id"])
                if nid not in profiles:
                    raise ValidationError(f"{profiles_path}: no profile rows for n-Grid {nid!r}")
                where = f"n-Grid {nid!r}"
                ngrids.append(_parse_ngrid(ndoc, nid, feeder_id, profiles, horizon))
    except ValidationError:  # the profiles file's, which names that file
        raise
    except KeyError as exc:
        raise ValidationError(
            f"{fleet_path}: {where}: missing required field {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{fleet_path}: {where}: {exc}") from None
    if unlisted := profiles.keys() - {ng.id for ng in ngrids}:
        nid = next(nid for nid in profiles if nid in unlisted)
        raise ValidationError(f"{profiles_path}: n-Grid {nid!r} is not in {fleet_path}")
    return Fleet(feeders=tuple(feeders), ngrids=tuple(ngrids))


def load_scenario(path) -> Scenario:
    doc = _load_yaml(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a YAML mapping")
    known = {*SCENARIO_DEFAULTS, "profiles", "seed"} - {"master_seed"}
    if unknown := [key for key in doc if key not in known]:
        raise ValidationError(f"{path}: unknown key {unknown[0]!r}")
    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(key: str):
        if key not in doc:
            raise ValidationError(f"{path}: missing required key {key!r}")
        if not (isinstance(doc[key], str) and doc[key]):
            raise ValidationError(f"{path}: field {key!r}: expected a file path, got {doc[key]!r}")
        return os.path.join(base_dir, doc[key])

    def scalar(key: str, convert, name: str | None = None):
        """``doc[key]`` converted, else Scenario's default for ``name or key``."""
        try:
            return convert(doc.get(key, SCENARIO_DEFAULTS[name or key]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}: field {key!r}: {exc}") from None

    sor = load_sor_table(sor_path := resolve("sor"))
    fleet_path = resolve("fleet")
    fleet = load_fleet(fleet_path, resolve("profiles"), sor.horizon)
    derate_path = resolve("derate") if "derate" in doc else None
    scenario = Scenario(
        fleet=fleet,
        sor=sor,
        repair_hours=scalar("repair_hours", _hours),
        replications=scalar("replications", _integer),
        master_seed=scalar("seed", _integer, "master_seed"),
        sr_delivery_hours=scalar("sr_delivery_hours", _hours),
        derate=derate_path and read_feeder_hours(derate_path, DERATE_COLUMNS),
        precharge=scalar("precharge", str),
    )
    # Each problem is named by its input's file, a setting by this file's key.
    files = {"fleet": fleet_path, "sor": sor_path, "derate": derate_path,
             "master_seed": f"{path}: field 'seed'"}
    if problems := validate_scenario(scenario):
        raise ValidationError("; ".join(f"{files.get(field, f'{path}: field {field!r}')}: "
                                        f"{problem}" for field, problem in problems))
    return scenario


def write_bundle(scenario: Scenario, out_dir) -> str:
    """Write the scenario out as the file set :func:`load_scenario` reads;
    returns the scenario file path."""
    os.makedirs(out_dir, exist_ok=True)

    write_table(os.path.join(out_dir, "profiles.csv"), PROFILE_COLUMNS,
                ([ng.id, h, ng.base_load[h], ng.pv[h]]
                 for ng in scenario.fleet.ngrids for h in range(scenario.horizon)))
    save_sor_table(scenario.sor, os.path.join(out_dir, "sor.csv"))

    # Each feeder lists the n-Grids that name it, in fleet order.
    members = {feeder_id: [] for feeder_id in scenario.fleet.feeders}
    for ng in scenario.fleet.ngrids:
        members[ng.feeder_id].append(ng)
    fleet_doc = {"feeders": []}
    for feeder_id, ngrids in members.items():
        fdoc = {"id": feeder_id, "ngrids": []}
        for ng in ngrids:
            ndoc = {"id": ng.id}
            if ng.bess is not None:
                ndoc["bess"] = {"capacity_kwh": ng.bess.capacity_kwh,
                                "p_max_kw": ng.bess.p_max_kw,
                                "soc0_kwh": ng.bess.soc_kwh, **_efficiencies(ng.bess)}
            if ng.evs:
                ndoc["evs"] = [{"capacity_kwh": ev.battery.capacity_kwh,
                                "p_max_kw": ev.battery.p_max_kw,
                                "soc_arrival_kwh": ev.battery.soc_kwh,
                                "plug_hours": _plug_ranges(ev.plug_hours),
                                **_efficiencies(ev.battery)}
                               for ev in ng.evs]
            if ng.hvac is not None:
                ndoc["hvac"] = {"p_normal": _hourly(ng.hvac.p_normal_kw),
                                "p_min": _hourly(ng.hvac.p_min_kw)}
            if ng.deferrables:
                ndoc["deferrables"] = [{"energy_kwh": t.energy_kwh, "power_kw": t.power_kw,
                                        "earliest": t.earliest_hour, "deadline": t.deadline_hour}
                                       for t in ng.deferrables]
            fdoc["ngrids"].append(ndoc)
        fleet_doc["feeders"].append(fdoc)
    with open(os.path.join(out_dir, "fleet.json"), "w") as fh:
        json.dump(fleet_doc, fh, indent=1)
        fh.write("\n")

    scenario_doc = {
        "repair_hours": scenario.repair_hours,
        "replications": scenario.replications,
        "seed": scenario.master_seed,
        "sr_delivery_hours": scenario.sr_delivery_hours,
        "precharge": scenario.precharge,
        "fleet": "fleet.json",
        "profiles": "profiles.csv",
        "sor": "sor.csv",
    }
    if scenario.derate is not None:
        write_table(os.path.join(out_dir, "derate.csv"), DERATE_COLUMNS,
                    ([f, h, factor] for (f, h), factor in sorted(scenario.derate.items())))
        scenario_doc["derate"] = "derate.csv"
    path = os.path.join(out_dir, "scenario.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_doc, fh, sort_keys=False)
    return path
