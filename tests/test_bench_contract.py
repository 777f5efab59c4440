"""The benchmark's workloads run on this source tree.

`perfbench/workloads.py` is loaded from its file as it stands, and a few
operations of each workload go through that workload's own `record`
check: one `scan` row, one `onion` family, and one cage case and one
orbit case of `census`.  A change to the API of `src/` that the
benchmark calls fails here, before a benchmark run.  One whole pass of
each workload, every operation after the workload's `warm_up`, must
also give its digest, which does not depend on the seed.
"""

import importlib.util
import random
from pathlib import Path

import pytest

# the `census` digest at the commit that added this check; seeds 0, 5 and
# 7 all give it
CENSUS_DIGEST = (
    "8a5e9193c630b3e72bc8b868f6155e657500dde9f873481ef0f3b0c50d6cbe0d")
# the `onion` digest at the commit that added this check; seeds 0, 1 and
# 5 all give it
ONION_DIGEST = (
    "96c9bdd5930bef006720b6c48be8cc1dd34671782b97157135765705cb9edf55")

WORKLOADS_PY = (Path(__file__).resolve().parents[1] / "perfbench"
                / "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_records_ok(workload, items):
    records = []
    for item in items:
        ok, record = workload.record(item, workload.run(item))
        assert ok, record
        records.append(record)
    return records


def test_scan_row(workloads):
    scan = workloads.Scan(random.Random(0))
    assert_records_ok(scan, scan.items[:1])


def test_onion_family(workloads):
    onion = workloads.Onion(random.Random(0))
    assert_records_ok(onion, onion.items[:1])


def test_census_cage_and_orbit_cases(workloads):
    census = workloads.Census(random.Random(0))
    first = {}
    for item in census.items:
        first.setdefault(item[0], item)
    assert sorted(first) == ["cage", "orbit"]
    assert_records_ok(census, first.values())


def assert_pass_gives(workload, digest):
    """One whole pass after `warm_up`, as the benchmark runs it: every
    record ok, and the pass's digest."""
    workload.warm_up()
    records = assert_records_ok(workload, workload.items)
    assert workload.digest(workload.items, records) == digest


def test_scan_pass_gives_its_digest(workloads):
    """All 894 rows of the default icosidodecahedron scan."""
    scan = workloads.Scan(random.Random(0))
    assert len(scan.items) == 894
    assert_pass_gives(scan, workloads.SCAN_DIGEST)


def test_onion_pass_gives_its_digest(workloads):
    """Both families, C60 and C80, four iterations each."""
    onion = workloads.Onion(random.Random(0))
    assert sorted(onion.items) == ["c60", "c80"]
    assert_pass_gives(onion, ONION_DIGEST)


def test_census_pass_gives_its_digest(workloads):
    """Every case of a `census` pass, 167 rotations of each small cage and
    501 orbit cases, as one benchmark pass runs them."""
    census = workloads.Census(random.Random(0))
    assert len(census.items) == 1002
    assert_pass_gives(census, CENSUS_DIGEST)
