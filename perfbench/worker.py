"""One workload in one single-threaded process; started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is `setup` (set up, print "ready", exit), `measure` (untraced passes for
SECONDS) or `trace` (one untraced, one traced and one counting pass).
The process prints "ready INSIDE FACTOR" once set-up is done, so the parent
can time set-up from process start and correct it for the host's speed:
INSIDE is the seconds the host-speed kernel took during set-up and FACTOR
the correction (see hostspeed.py; 0 and 1 in a traced run).  The last
line is one JSON object.  `measure` also reports its times corrected for
the host's speed.
icofold is imported from this checkout's `src/` and nowhere else.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import traceback
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _import_program():
    sys.path.insert(0, SRC)
    import icofold
    if os.path.dirname(os.path.dirname(os.path.abspath(icofold.__file__))) \
            != SRC:
        raise ImportError(f"icofold was imported from {icofold.__file__}, "
                          f"not from {SRC}")


def run_pass(workload, sampler=None) -> dict:
    """Every operation once, in the workload's order, each output checked.

    An output is checked and reduced to a short record right after its
    operation, outside the timed region, so the pass holds no outputs.
    `wall_s` is the pass time without those checks.  With a host-speed
    sampler, `corrected_wall_s` and `corrected_op_s` are the same times
    corrected for the host's speed (see hostspeed.py).
    """
    intervals, records, failed, check_s = [], [], 0, 0.0
    begin = perf_counter()
    for item in workload.items:
        t0 = perf_counter()
        try:
            out = workload.run(item)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            out = None
        t1 = perf_counter()
        ok, record = (False, None) if out is None else \
            workload.record(item, out)
        del out
        failed += not ok
        records.append(record)
        intervals.append((t0, t1))
        check_s += perf_counter() - t1
    wall = perf_counter() - begin - check_s
    digest = workload.digest(workload.items, records)
    expected = getattr(workload, "expected_digest", None)
    if expected is not None and digest != expected:
        failed = len(records)
    result = {"wall_s": wall, "op_s": [t1 - t0 for t0, t1 in intervals],
              "failed": failed, "attempted": len(records), "digest": digest}
    if sampler is not None:
        net = [t1 - t0 - sampler.inside(t0, t1) for t0, t1 in intervals]
        corrected = [s * sampler.factor(t0, t1)
                     for s, (t0, t1) in zip(net, intervals)]
        loop_s = wall - sum(result["op_s"])
        result["corrected_op_s"] = corrected
        result["corrected_wall_s"] = (loop_s + sum(net)) \
            * sum(corrected) / sum(net)
    return result


def measure(workload, seconds: float, sampler) -> dict:
    """Whole passes: another one only if it should end within SECONDS."""
    passes = []
    begin = perf_counter()
    while True:
        passes.append(run_pass(workload, sampler))
        elapsed = perf_counter() - begin
        if elapsed + median(p["wall_s"] for p in passes) > seconds:
            break
    digests = {p["digest"] for p in passes}
    return {
        "pass_s": [p["corrected_wall_s"] for p in passes],
        "op_s": [s for p in passes for s in p["corrected_op_s"]],
        "raw_pass_s": [p["wall_s"] for p in passes],
        "raw_op_s": [s for p in passes for s in p["op_s"]],
        "ops_per_pass": len(workload.items),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "digest": digests.pop() if len(digests) == 1 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
    }


def trace(workload, tracer, setup_spans) -> dict:
    from tracing import count_within, span_totals, top_level_seconds

    plain = run_pass(workload)
    tracer.install_spans()
    try:
        traced = run_pass(workload)
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    tracer.install_counts()
    try:
        counted = run_pass(workload)
    finally:
        tracer.uninstall()
    _, calls = tracer.take()

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload.name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "setup": setup_spans, "pass": spans}, handle)

    totals = span_totals(spans)
    setup_totals = span_totals(setup_spans)

    def get(name, field, table=totals):
        return table.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    search = "cages.trivalence_threshold_search"
    # a union is tried when detect_cage runs the threshold search on it
    unions = count_within(spans, search, "cages.detect_cage")
    layers = {
        "engine.generate_array.calls": get("engine.generate_array", "calls"),
        "engine.generate_array.self_s": get("engine.generate_array",
                                            "self_s"),
        "engine.build_shells.s": get("engine.build_shells", "s"),
        "geometry.norm2.calls": calls.get("geometry.norm2", 0),
        "engine.candidate_points": counts.get("engine.candidate_points", 0),
        "engine.points": counts.get("engine.points", 0),
        "engine.dedup_ratio": ratio(counts.get("engine.points", 0),
                                    counts.get("engine.candidate_points", 0)),
        "engine.classify_length.self_s": get("engine.classify_length",
                                             "self_s"),
        "engine.bands.s": get("engine.bands", "s"),
        "golden.ext_add.calls": calls.get("golden.ext_add", 0),
        "golden.ext_mul.calls": calls.get("golden.ext_mul", 0),
        "golden.gold_add.calls": calls.get("golden.gold_add", 0),
        "golden.gold_mul.calls": calls.get("golden.gold_mul", 0),
        "cages.as_coords.s": get("cages.as_coords", "s"),
        f"{search}.calls": get(search, "calls"),
        f"{search}.self_s": get(search, "self_s"),
        f"{search}.points": counts.get(f"{search}.points", 0),
        f"{search}.pair_bytes": counts.get(f"{search}.pair_bytes", 0),
        f"{search}.hit_ratio": ratio(counts.get(f"{search}.hits", 0),
                                     get(search, "calls")),
        "cages.detect_cage.calls": get("cages.detect_cage", "calls"),
        "cages.detect_cage.s": get("cages.detect_cage", "s"),
        "cages.detect_cage.unions_tried": unions,
        "cages.detect_cage.unions_per_call": ratio(
            unions, get("cages.detect_cage", "calls")),
        "cages.face_census.calls": get("cages.face_census", "calls"),
        "cages.face_census.s": get("cages.face_census", "s"),
        "cages.face_census.faces": counts.get("cages.face_census.faces", 0),
        "onion.build_onion.self_s": get("onion.build_onion", "self_s"),
        "onion.members": counts.get("onion.members", 0),
        "groups.orbit.calls": get("groups.orbit", "calls"),
        "groups.orbit.s": get("groups.orbit", "s"),
        "groups.stabilizer_order.s": get("groups.stabilizer_order", "s"),
        "geometry.mat_apply.calls": get("geometry.mat_apply", "calls"),
        "groups.full_group.s": get("groups.full_group", "s", setup_totals),
        "configs.builtin.s": get("configs.builtin", "s", setup_totals),
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "trace.uncovered_s": traced["wall_s"] - top_level_seconds(spans),
        "trace.spans": len(spans),
    }
    digests = [plain["digest"], traced["digest"], counted["digest"]]
    return {
        "layers": layers,
        "untraced_wall_s": plain["wall_s"],
        "attempted": plain["attempted"] + traced["attempted"]
        + counted["attempted"],
        "failed": plain["failed"] + traced["failed"] + counted["failed"],
        "digest": digests[0] if len(set(digests)) == 1 else None,
        "digests": digests,
        "missing": tracer.missing,
        "spans_file": os.path.relpath(path, ROOT),
    }


def main(argv) -> int:
    name, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    from hostspeed import Sampler

    # Set-up is interpreter work (imports, exact-arithmetic constructions),
    # timed by the parent; sample the host speed over it so the parent can
    # correct it.  A traced run reports raw times and is not sampled.
    setup_sampler = Sampler("interpreter")
    begin = perf_counter()
    if mode != "trace":
        setup_sampler.start()
    _import_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    if mode == "trace":
        tracer.install_spans()  # set-up spans: full_group, builtin
    try:
        workload = WORKLOADS[name](random.Random(seed))
    finally:
        tracer.uninstall()
    setup_spans, _ = tracer.take()
    if mode == "trace":
        print("ready 0 1", flush=True)
        # no warm-up: the untraced pass that comes first fills the caches
        result = trace(workload, tracer, setup_spans)
    else:
        setup_sampler.stop()
        end = perf_counter()
        # kernel seconds to take out of set-up, and the factor to scale by
        print(f"ready {setup_sampler.inside(begin, end)!r} "
              f"{setup_sampler.factor(begin, end)!r}", flush=True)
        if mode == "setup":
            return 0
        sampler = Sampler(workload.reference_kernel)
        sampler.start()
        try:
            workload.warm_up()
            result = measure(workload, seconds, sampler)
        finally:
            sampler.stop()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
