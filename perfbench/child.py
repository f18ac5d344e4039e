"""One workload in its own process; started by run.py.

run.py sets the BLAS thread variables to 1 before this process starts, so
numpy loads with single-threaded pools. The result goes to the JSON file
named by --result; the process's own stdout is the run's log.

With --record-golden PATH it instead writes the golden outputs of every
variant of the workload to PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import N_VARIANTS, WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_OPS = 3

# Spans each workload must fire in a traced run.
MODEL_FORWARD = ("ops.conv2d.depthwise", "ops.conv2d.dense", "ops.group_involution_forward",
                 "ops.generate_kernels", "tensor.batch_norm_forward.infer",
                 "tensor.pointwise_conv", "tensor.activation", "net.Model.forward",
                 "net.SqueezeExcite.forward", "data.preprocess")
TRAINING = MODEL_FORWARD + (
    "data.generate_synth", "data.read_image", "train.train", "train.load_split_tensors",
    "train.loss_and_logit_grad", "train.adam_step", "train.score_batches",
    "net.Model.backward", "net.SqueezeExcite.backward", "ops.conv2d_backward.depthwise",
    "ops.conv2d_backward.dense", "ops.gi_backward", "ops.generate_kernels_backward",
    "tensor.batch_norm_forward.train", "tensor.batch_norm_backward",
    "tensor.pointwise_conv_backward", "tensor.activation_grad")
EXPECTED_SPANS = {
    "train_desk": TRAINING,
    "train_gi_single": TRAINING,
    "infer_256": MODEL_FORWARD + ("net.save_checkpoint", "net.load_checkpoint"),
    "eval_audit": MODEL_FORWARD + (
        "data.generate_synth", "data.read_image", "net.save_checkpoint",
        "net.load_checkpoint", "train.load_split_tensors", "train.score_batches",
        "metrics.eer", "metrics.youden_max", "metrics.auc_roc", "metrics.metric_report",
        "audit.audit_run", "audit.sample_stats", "cli.main.eval", "cli.main.audit"),
}
MIN_COVERAGE = 0.9


def src_line_count():
    """Non-blank, non-comment lines of the package source."""
    total = 0
    pkg = os.path.join(ROOT, "src", "gipad")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for line in fh
                             if line.strip() and not line.strip().startswith("#"))
    return total


def environment():
    import platform

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_lines": src_line_count(),
    }


def clear(workdir):
    """Empty the scratch directory, so that every set-up starts alike."""
    for entry in os.listdir(workdir):
        path = os.path.join(workdir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path)


def run_ops(wl, seconds, tracer):
    """Closed loop: the next operation starts when the previous one ends."""
    durations, failures, outputs = [], [], []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < MIN_OPS:
        wl.prepare(i)
        t0 = time.perf_counter()
        try:
            out = tracer.request(wl.op, i) if tracer and wl.traced_as_request else wl.op(i)
            dt = time.perf_counter() - t0
            ok, why = wl.check(i, out)
        except Exception:  # any failure of the program counts against fail_frac
            dt = time.perf_counter() - t0
            out, ok, why = None, False, traceback.format_exc()
        durations.append(dt)
        outputs.append(out)
        if not ok:
            failures.append(f"op {i}: {why}")
            print(f"FAILED op {i}: {why}", file=sys.stderr)
        i += 1
    return durations, failures, outputs


def run(args):
    wl = WORKLOADS[args.workload](args.workdir, args.seed)
    result = {"environment": environment(), "workload": wl.name, "seed": args.seed,
              "variant": wl.variant}
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        result["info"] = {"bindings": tracer.bindings}
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        clear(args.workdir)
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    durations, failures, outputs = run_ops(wl, args.seconds, tracer)
    result.update(attempted=len(durations), failed=len(failures), failures=failures[:5])
    problems = []
    if args.trace:
        metrics = spans.per_layer_metrics(tracer, durations)
        counts = tracer.aggregate()
        silent = [s for s in EXPECTED_SPANS[wl.name] if s not in counts]
        if silent:
            problems.append(f"declared spans recorded no calls: {silent}")
        coverage = metrics["trace.coverage_p50"]
        if coverage < MIN_COVERAGE:
            problems.append(f"trace coverage {coverage:.3f} below {MIN_COVERAGE}")
        os.makedirs(args.trace_dir, exist_ok=True)
        tracer.write(os.path.join(args.trace_dir, f"spans-{wl.name}-seed{args.seed}.csv"))
        result["metrics"] = metrics
    else:
        result["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": wl.items_per_op * len(durations) / sum(durations),
        }
        result["info"] = {"ops": len(durations),
                          "op_ms_p50": statistics.median(durations) * 1e3,
                          "op_s": durations,
                          **wl.info(durations, outputs)}
    result["problems"] = problems
    result["correct"] = not failures and not problems
    return result


def record_golden(args):
    cls = WORKLOADS[args.workload]
    variants = {}
    for variant in range(N_VARIANTS):
        wl = cls(args.workdir, variant)
        clear(args.workdir)
        wl.setup()
        variants[str(variant)] = wl.record()
        print(f"{cls.name} variant {variant}: recorded", flush=True)
    golden = {"workload": cls.name, "dtype": np.dtype(cls.dtype).name,
              "environment": environment(), "variants": variants}
    with open(args.record_golden, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-dir", default=os.path.join(ROOT, ".perfbench_out"))
    parser.add_argument("--result")
    parser.add_argument("--record-golden")
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    if args.record_golden:
        record_golden(args)
        return 0
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
