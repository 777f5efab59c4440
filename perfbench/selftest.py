"""Tests of the benchmark itself (not part of the icofold test suite).

    python3 -m pytest -q perfbench/selftest.py

Runs every workload once untraced and once traced, with different seeds,
two at a time; expect about three minutes on two cores.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ("scan", "onion", "census")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    digests = re.search(r"digests? ([0-9a-f ]+)$",
                        next(l for l in lines if "digest" in l)).group(1)
    return {"result": json.loads(lines[-1]), "digests": digests.split()}


@pytest.fixture(scope="module")
def runs() -> dict:
    jobs = [(w, seed, trace) for w in WORKLOADS
            for seed, trace in ((101, 0), (202, 1))]
    with ThreadPoolExecutor(max_workers=2) as pool:
        outputs = list(pool.map(lambda job: _run(*job), jobs))
    return dict(zip(jobs, outputs))


def test_metric_names_are_well_formed():
    spec = _spec()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            assert NAME.fullmatch(entry["name"]), entry["name"]


def test_benchmark_json_lists_exactly_the_printed_metrics(runs):
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for (workload, _, trace), out in runs.items():
        listed = {m["name"]: m["unit"] for m in
                  spec["per_layer" if trace else "end_to_end"]}
        printed = {name: metric["unit"]
                   for name, metric in out["result"]["metrics"].items()}
        assert printed == listed, (workload, trace)


def test_every_run_is_correct(runs):
    for job, out in runs.items():
        result = out["result"]
        assert result["correct"] and result["failed"] == 0, job
        assert result["attempted"] >= 1


def test_seeds_and_tracing_leave_outputs_unchanged(runs):
    # the untraced run and the traced run use different seeds; the traced
    # run prints the digests of its untraced, traced and counting passes
    for workload in WORKLOADS:
        untraced = runs[(workload, 101, 0)]["digests"]
        traced = runs[(workload, 202, 1)]["digests"]
        assert len(untraced) == 1 and len(traced) == 3
        assert set(traced) == set(untraced), workload


def test_top_level_spans_cover_the_traced_pass(runs):
    for workload in WORKLOADS:
        metrics = runs[(workload, 202, 1)]["result"]["metrics"]
        wall = metrics["trace.wall_s"]["value"]
        uncovered = metrics["trace.uncovered_s"]["value"]
        assert 0 <= uncovered < 0.05 * wall, (workload, uncovered, wall)


def test_counting_passes_repeat_exactly():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from tracing import Tracer
    from worker import run_pass
    from workloads import Census, Scan

    for kind in (Scan, Census):
        workload = kind(random.Random(7))
        workload.items = workload.items[:60]
        workload.expected_digest = None  # the recorded one covers all rows
        workload.warm_up()  # fills the group's per-fold caches
        counts = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install_counts()
            try:
                assert run_pass(workload)["failed"] == 0
            finally:
                tracer.uninstall()
            counts.append(tracer.take()[1])
        assert counts[0] == counts[1]
        assert counts[0]["golden.ext_add"] > 0


def test_host_speed_correction():
    sys.path.insert(0, HERE)
    from hostspeed import WINDOW_S, Sampler

    sampler = Sampler("interpreter")
    REFERENCE_KERNEL_S = sampler.reference_s
    # kernel runs at t = 0, 1, ..., 9 s; the host is twice as slow from 5 s
    for t in range(10):
        sampler.starts[t] = float(t)
        sampler.durations[t] = REFERENCE_KERNEL_S * (1 if t < 5 else 2)
    sampler.count[0] = 10
    assert sampler.inside(2.0, 4.0) == 2 * REFERENCE_KERNEL_S
    assert sampler.factor(1.0, 2.0) == 1.0
    assert sampler.factor(7.0, 8.0) == 0.5
    # no kernel run near: the median over the whole run
    assert sampler.factor(20.0, 20.0 + WINDOW_S) == 1 / 1.5
