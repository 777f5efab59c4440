"""icofold benchmark: one workload per call, metrics as JSON on the last line.

    python3 perfbench/run.py --workload scan|onion|census --seed N \
        --seconds S --trace 0|1

`--trace 0` prints the end-to-end metrics (see BENCHMARK.json), `--trace 1`
the per-layer metrics of a separate traced run.  The workload runs in a
child process (perfbench/worker.py) with one thread; set-up is timed in
fresh child processes from process start to "ready", several times,
corrected for host speed, and the median is reported.  Every operation's output is checked; the counts
go to `attempted` and `failed`, and `correct` is false when any check
failed or the untraced, traced and counting passes disagree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan", "onion", "census")
SETUP_SAMPLES = 10  # fresh processes timed for setup_s, after one uncounted
DEADLINE_S = 175.0  # the command must end within 180 s
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"s": "s", "self_s": "s", "pair_bytes": "B",
               "dedup_ratio": "ratio", "hit_ratio": "ratio",
               "unions_per_call": "count", "wall_s": "s",
               "overhead_s": "s", "uncovered_s": "s"}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    # glibc raises its mmap threshold each time a large block is freed, so
    # which arrays stay on the heap, and the peak RSS, would depend on the
    # order of earlier work.  Fix it at 4 MiB, the size from which numpy
    # asks for transparent huge pages: such arrays are then mapped on
    # their own and unmapped when freed, so no heap region keeps a huge
    # page request that the kernel may act on later, at its own time.
    env["MALLOC_MMAP_THRESHOLD_"] = str(4 * 1024 * 1024)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, mode: str, deadline: float) -> tuple[float, str]:
    """Start a worker; return (set-up seconds, last stdout line).

    Set-up is the time from process start to the worker's "ready" line,
    less the host-speed kernel runs inside it and scaled by the factor the
    worker reports with that line (see hostspeed.py).
    """
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               args.workload, str(args.seed), str(args.seconds), mode]
    begin = perf_counter()
    # unbuffered, so reading the "ready" line takes nothing that follows it
    proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                   max(0.0, deadline - perf_counter()))
        line = proc.stdout.readline() if ready else b""
        raw_s = perf_counter() - begin
        fields = line.split()
        if len(fields) != 3 or fields[0] != b"ready":
            raise BenchError(f"{mode} worker did not finish set-up")
        inside, factor = map(float, fields[1:])
        setup_s = (raw_s - inside) * factor
        out, _ = proc.communicate(
            timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def tail(samples_ms, ops_per_pass: int) -> tuple[float, float, int]:
    """The tail of each pass, and its median over the passes.

    A pass's tail is its highest percentile with at least ten samples
    beyond it, or its maximum with fewer than eleven operations.  The
    percentile depends only on the operations in one pass, so it is the
    same on every run of a workload however many passes fit.  The median
    over passes leaves out a pass that a short stall of the host slowed.
    Returns (value, percentile, samples beyond it in one pass).
    """
    n = ops_per_pass
    percentile, rank = 100.0, n
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            percentile, rank = p, math.ceil(p / 100 * n)
            break
    tails = [sorted(samples_ms[i:i + n])[rank - 1]
             for i in range(0, len(samples_ms), n)]
    return median(tails), percentile, n - rank


def end_to_end(args, deadline) -> tuple[dict, dict]:
    run_worker(args, "setup", deadline)  # uncounted: writes bytecode caches
    # half the samples before the measurement and half after it, so they
    # see more than one few-second state of the host
    setups = [run_worker(args, "setup", deadline)[0]
              for _ in range(SETUP_SAMPLES // 2)]
    setup_s, line = run_worker(args, "measure", deadline)
    setups.append(setup_s)
    setups += [run_worker(args, "setup", deadline)[0]
               for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    result = json.loads(line)
    op_ms = [s * 1e3 for s in result["op_s"]]
    tail_ms, percentile, beyond = tail(op_ms, result["ops_per_pass"])
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(result["pass_s"]),
        "op_p50_ms": median(op_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw_ms = [s * 1e3 for s in result["raw_op_s"]]
    print(f"# {args.workload}: {len(result['pass_s'])} pass(es) of "
          f"{result['ops_per_pass']} ops, digest {result['digest']}")
    print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"# raw, not corrected for host speed: wall_s "
          f"{median(result['raw_pass_s']):.6g} op_p50_ms "
          f"{median(raw_ms):.6g} op_tail_ms "
          f"{tail(raw_ms, result['ops_per_pass'])[0]:.6g}")
    print(f"# op_tail_ms is the median over {len(result['pass_s'])} "
          f"pass(es) of p{percentile:g} of {result['ops_per_pass']} ops, "
          f"{beyond} samples beyond it")
    print(f"# fail_ratio {result['failed'] / result['attempted']:g} "
          f"({result['failed']}/{result['attempted']})")
    units = END_TO_END_UNITS
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, \
        result


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def per_layer(args, deadline) -> tuple[dict, dict]:
    _, line = run_worker(args, "trace", deadline)
    result = json.loads(line)
    layers = result["layers"]
    print(f"# {args.workload} traced: digests {' '.join(map(str, result['digests']))}")
    print(f"# untraced pass {result['untraced_wall_s']:.4f} s, traced pass "
          f"{layers['trace.wall_s']:.4f} s, spans in {result['spans_file']}")
    if result["missing"]:
        print(f"# not found, not traced: {', '.join(result['missing'])}")
    for name, value in layers.items():
        print(f"# {name} = {value:.6g} {layer_unit(name)}")
    return {k: {"value": v, "unit": layer_unit(k)}
            for k, v in layers.items()}, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = perf_counter() + DEADLINE_S
    try:
        if args.trace:
            metrics, result = per_layer(args, deadline)
        else:
            metrics, result = end_to_end(args, deadline)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    correct = result["failed"] == 0 and result["digest"] is not None
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
