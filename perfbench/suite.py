"""Run every workload over several seeds and summarise the results.

    python3 perfbench/suite.py                      # all workloads, seeds 1-10
    python3 perfbench/suite.py --workloads infer_256 --seeds 1-5
    python3 perfbench/suite.py --declare            # rewrite BENCHMARK.json
    python3 perfbench/suite.py --record-golden      # rewrite golden/*.json

Each (workload, seed) pair is one run.py process with tracing off; then one
traced run per workload gives the per-layer view. The summary prints every
end-to-end metric by name and unit with its median, quartiles and spread
(interquartile range over median), the traced-minus-untraced operation time
as the tracing overhead, and the layers with the most self time. All runs,
with the environment record, go to the --out JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

RUN_SECONDS = 40


def declaration():
    import spans

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in run.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in run.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in spans.per_layer_declarations()],
    }


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    record = json.loads(lines[-2])
    record.update(json.loads(lines[-1]), workload=workload, seed=seed, trace=trace, wall_s=wall)
    if not record["correct"]:
        sys.stderr.write(proc.stderr)
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(workload, runs, traced):
    bounds = {name: bound for name, _, _, bound in run.END_TO_END}
    print(f"\n== {workload}: {len(runs)} runs, "
          f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} "
          f"operations failed, all correct: {all(r['correct'] for r in runs)}")
    out = {}
    for name, unit, _, _ in run.END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        print(f"  {name:<14} {med:12.4f} {unit:<4} q1 {q1:.4f} q3 {q3:.4f} "
              f"spread {spread:6.2%} (bound {bounds[name]:.0%})")
    print(f"  wall per run: max {max(r['wall_s'] for r in runs):.1f} s, "
          f"median {statistics.median(r['wall_s'] for r in runs):.1f} s")
    infos = [r["info"] for r in runs]
    for key in sorted({k for info in infos for k, v in info.items() if not isinstance(v, list)}):
        vals = [info[key] for info in infos if key in info]
        print(f"  {key:<22} median {statistics.median(vals):.4f} over {len(vals)} runs")
    if traced:
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        untraced = statistics.median(info["op_ms_p50"] for info in infos)
        overhead = m["trace.op_ms_p50"] / untraced - 1
        out["tracing_overhead"] = overhead
        print(f"  traced op {m['trace.op_ms_p50']:.1f} ms vs untraced median "
              f"{untraced:.1f} ms: tracing overhead {overhead:+.1%}; "
              f"coverage p50 {m['trace.coverage_p50']:.3f} min {m['trace.coverage_min']:.3f} "
              f"over {m['trace.ops']} ops; traced run correct: {traced['correct']}")
        selfs = sorted(((v, k[:-len(".self_s")]) for k, v in m.items()
                        if k.endswith(".self_s") and v > 0), reverse=True)
        total = sum(v for v, _ in selfs)
        for v, name in selfs[:12]:
            extra = "".join(f" {stat} {m[f'{name}.{stat}']:.3f}" for stat in
                            ("gflop_per_s", "gb_per_s", "useful_tap_frac")
                            if f"{name}.{stat}" in m)
            print(f"    {name:<36} self {v:8.3f} s {v / total:6.1%} "
                  f"calls {m[name + '.calls']:>6}{extra}{' (computed)' if extra else ''}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out", "suite.json"))
    parser.add_argument("--declare", action="store_true",
                        help="write BENCHMARK.json from the declarations and exit")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite the golden outputs of the chosen workloads and exit")
    args = parser.parse_args()

    if args.record_golden:
        for workload in args.workloads.split(","):
            workdir = os.path.join(run.WORK, f"golden-{workload}")
            code, _ = run.spawn(["--workload", workload, "--workdir", workdir, "--record-golden",
                                 os.path.join(HERE, "golden", f"{workload}.json")], 3600)
            shutil.rmtree(workdir, ignore_errors=True)
            if code != 0:
                raise SystemExit(f"{workload}: recording golden outputs failed ({code})")
        return 0

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if args.declare:
        with open(bench_path, "w", encoding="utf-8") as fh:
            json.dump(declaration(), fh, indent=2)
            fh.write("\n")
        return 0
    with open(bench_path, encoding="utf-8") as fh:
        if json.load(fh) != declaration():
            print("warning: BENCHMARK.json differs from the declarations; "
                  "run with --declare", file=sys.stderr)

    seeds = parse_seeds(args.seeds)
    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = None if args.no_trace else run_once(workload, seeds[0], args.seconds, 1)
        report["environment"] = runs[0]["environment"]
        report["workloads"][workload] = {
            "summary": summarise(workload, runs, traced), "runs": runs, "traced": traced}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
