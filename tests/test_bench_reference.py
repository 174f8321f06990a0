"""The benchmark's Monte Carlo outputs still match ``bench/reference/``.

The inputs are built as ``bench/run.py`` builds them at its default seed:
the case study of ``casestudy.build_case_study``, written as a bundle by
``config.write_bundle`` and run through the CLI. Numbers must agree within
1e-9 relative or 1e-12 absolute, and ``outages.csv`` by its SHA-256. The
test only reads ``bench/``.
"""

import csv
import hashlib
from pathlib import Path

import pytest

from ngridsim import casestudy
from ngridsim.cli import main
from ngridsim.config import write_bundle

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Workload name -> (replications, precharge, CLI arguments after the scenario).
WORKLOADS = {
    "simulate-demo": (100, "full", ["simulate"]),
    "sweep-sor": (10, "sor", ["sweep", "--repair", "1,2,3,4,5"]),
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def cell_equal(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= max(REL_TOL * max(abs(x), abs(y)), ABS_TOL)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_match_reference(name, tmp_path):
    reps, precharge, command = WORKLOADS[name]
    scenario = casestudy.build_case_study(replications=reps)
    scenario.precharge = precharge
    path = write_bundle(scenario, tmp_path / "bundle")
    out = tmp_path / "out"
    assert main([command[0], "--scenario", path, "--out", str(out)] + command[1:]) == 0
    want_dir = REFERENCE / name
    names = sorted(p.name for p in want_dir.iterdir())
    assert "outages.csv.sha256" in names and "fleet_series.csv" in names
    for ref in names:
        if ref.endswith(".sha256"):
            got = out / ref.removesuffix(".sha256")
            digest = (want_dir / ref).read_text().split()[0]
            assert hashlib.sha256(got.read_bytes()).hexdigest() == digest, ref
            continue
        got, want = read_csv(out / ref), read_csv(want_dir / ref)
        assert len(got) == len(want), ref
        for i, (a, b) in enumerate(zip(got, want)):
            assert len(a) == len(b) and all(map(cell_equal, a, b)), (ref, i, a, b)
