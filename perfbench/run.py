"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in a child process (child.py) whose BLAS and OpenMP
pools are pinned to one thread before numpy loads. Peak resident memory is
that child's own, read from os.wait4 when it is reaped. With --trace 0 the
result holds the end-to-end metrics; with --trace 1 the per-layer metrics
of a traced run. Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170

# The workloads BENCHMARK.json declares.
WORKLOADS = {
    "train_desk": "desk training (64x64, width 0.25, GI at end, float64): the users' and "
                  "test suite's dominant cost, led by depthwise conv and train-mode batch norm",
    "infer_256": "one 256x256 frame per request through preprocess and an infer-mode "
                 "forward: the deployment path, with no backward or optimizer",
    "eval_audit": "gipad eval then gipad audit on a desk checkpoint: the only workload "
                  "that runs data, metrics and audit, at batch 256 and batch 1",
}
# Runnable by hand but not declared: the run budget of BENCHMARK.json holds
# three workloads at a run length that is steady on a shared host.
OPTIONAL_WORKLOADS = {
    "train_gi_single": "GI at begin and end, float32: the only workload where the paper's "
                       "operator does most of the work, and the only float32 path",
}

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)


def spawn(argv, timeout):
    """Run the child with single-threaded pools; return (exit code, rusage).

    The child's stdout joins this process's stderr, so that this process's
    stdout carries only the result."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    pid = os.posix_spawn(sys.executable, [sys.executable, CHILD, *argv], env,
                         file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
    deadline = time.monotonic() + timeout
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status), usage
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            return None, usage
        time.sleep(0.05)


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted({**WORKLOADS, **OPTIONAL_WORKLOADS}))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gipad", "__init__.py")):
        print("error: src/gipad not found next to perfbench/", file=sys.stderr)
        return 2
    units = declared("per_layer" if args.trace else "end_to_end")
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    result_path = os.path.join(workdir, "result.json")
    os.makedirs(workdir, exist_ok=True)
    try:
        code, usage = spawn(["--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--workdir", workdir, "--result", result_path],
                            CHILD_TIMEOUT_S)
        if code != 0 or not os.path.exists(result_path):
            print(f"error: workload process ended with code {code}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            child = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = dict(child["metrics"])
    if not args.trace:
        values["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for problem in child["problems"] + child["failures"]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = child["attempted"], child["failed"]
    print(json.dumps({"environment": child["environment"], "info": child.get("info", {}),
                      "fail_frac": failed / attempted}))
    print(json.dumps({
        "correct": child["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
