"""Command-line front end: synth | train | eval | audit | flops | gradcam.

Every subcommand resolves its configuration from defaults, then an optional
`key = value` config file, then flags (flags win), echoes the fully resolved
view to <outdir>/config.resolved before doing any work, and exits 0 on
success, 2 on configuration errors, 3 on data errors, 4 on violated
internal invariants.

Heavy imports happen inside the handlers so that --threads can pin the BLAS
thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

FIELD_DEFS = {
    # model
    "groups": (int, 120),
    "reduce": (int, 4),
    "gi_kernel": (int, 5),
    "placement": (str, "end"),
    "width_multiplier": (float, 1.0),
    "input_size": (int, 256),
    "label_smoothing": (float, 0.05),
    # trainer
    "lr": (float, 1e-4),
    "beta1": (float, 0.9),
    "beta2": (float, 0.999),
    "adam_eps": (float, 1e-8),
    "batch_size": (int, 32),
    "max_epochs": (int, 100),
    "patience": (int, 5),
    "precision": (str, "double"),
    # data
    "manifest": (str, ""),
    "subject_disjoint": (bool, False),
    "train": (int, 512),
    "dev": (int, 128),
    "test": (int, 128),
    "size": (int, 64),
    # eval
    "checkpoint": (str, ""),
    "threshold": (str, "dev_eer"),
    "tau": (float, 0.5),
    "eval_batch": (int, 256),
    "aggregate": (str, "none"),
    # audit
    "split": (str, "test"),
    "max_samples": (int, 256),
    "export_fields": (bool, False),
    # flops grid
    "grid_groups": (str, ""),
    "grid_reduce": (str, ""),
    "grid_placement": (str, ""),
    "grid_sizes": (str, ""),
    # gradcam
    "image": (str, ""),
    "class_index": (int, 1),
    # shared
    "seed": (int, 0),
    "outdir": (str, ""),
    "threads": (int, 0),
}

_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def _convert(name, raw):
    from .errors import ConfigError

    typ, _ = FIELD_DEFS[name]
    if typ is bool:
        low = str(raw).strip().lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"config key {name}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {name}: {exc}") from exc


def read_config_file(path):
    from .errors import ConfigError, DataError

    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in FIELD_DEFS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _convert(key, raw.strip())
    return values


def resolve_config(args):
    """Merge defaults < config file < flags; returns (values, provenance)."""
    values = {name: default for name, (_, default) in FIELD_DEFS.items()}
    provenance = {name: "default" for name in FIELD_DEFS}
    if getattr(args, "config", None):
        for key, val in read_config_file(args.config).items():
            values[key] = val
            provenance[key] = "file"
    for key in FIELD_DEFS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            values[key] = flag_val
            provenance[key] = "flag"
    return values, provenance


def default_outdir(seed):
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return os.path.join("runs", f"{stamp}-seed{seed}")


def echo_resolved(outdir, values, provenance):
    os.makedirs(outdir, exist_ok=True)
    lines = []
    for key in sorted(FIELD_DEFS):
        val = values[key]
        rendered = str(val).lower() if isinstance(val, bool) else str(val)
        lines.append(f"{key} = {rendered}  # {provenance[key]}")
    with open(os.path.join(outdir, "config.resolved"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def apply_threads(n):
    if n and n > 0:
        if "numpy" in sys.modules:
            print(f"warning: --threads {n} has no effect: numpy is already loaded in "
                  "this process, so its thread pools are fixed", file=sys.stderr)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            os.environ[var] = str(n)


def _prepare(args):
    values, provenance = resolve_config(args)
    apply_threads(values["threads"])
    outdir = values["outdir"] or default_outdir(values["seed"])
    values["outdir"] = outdir
    echo_resolved(outdir, values, provenance)
    return values


def _model_config(values):
    from .net import ModelConfig

    return ModelConfig(
        groups=values["groups"], reduce=values["reduce"], gi_kernel=values["gi_kernel"],
        placement=values["placement"], width_multiplier=values["width_multiplier"],
        input_size=values["input_size"], label_smoothing=values["label_smoothing"])


def _train_config(values):
    from .train import TrainConfig

    return TrainConfig(
        lr=values["lr"], beta1=values["beta1"], beta2=values["beta2"],
        adam_eps=values["adam_eps"], batch_size=values["batch_size"],
        max_epochs=values["max_epochs"], patience=values["patience"],
        label_smoothing=values["label_smoothing"], seed=values["seed"],
        precision=values["precision"])


def _load_rows(values):
    from .data import load_manifest
    from .errors import ConfigError

    if not values["manifest"]:
        raise ConfigError("--manifest is required")
    rows = load_manifest(values["manifest"], subject_disjoint=values["subject_disjoint"])
    root = os.path.dirname(os.path.abspath(values["manifest"]))
    return rows, root


def cmd_synth(args):
    values = _prepare(args)
    from .data import SynthSpec, generate_synth

    spec = SynthSpec(seed=values["seed"], train=values["train"], dev=values["dev"],
                     test=values["test"], size=values["size"])
    rows = generate_synth(spec, values["outdir"])
    print(f"wrote {len(rows)} patches under {values['outdir']}")
    return 0


def cmd_train(args):
    values = _prepare(args)
    from .net import build_model, param_count
    from .tensor import make_rng
    from .train import train_and_checkpoint

    rows, root = _load_rows(values)
    model = build_model(_model_config(values), make_rng(values["seed"]))
    model.seed = values["seed"]
    print(f"model parameters: {param_count(model)}")
    history = train_and_checkpoint(model, rows, _train_config(values), root, values["outdir"])
    print(f"stopped after epoch {len(history.dev_loss)} ({history.stop_reason}), "
          f"best epoch {history.best_epoch}, best dev loss "
          f"{history.dev_loss[history.best_epoch - 1]:.6f}")
    return 0


def cmd_eval(args):
    values = _prepare(args)
    import json

    from .data import split_rows
    from .errors import ConfigError
    from .metrics import (OperatingPoint, metric_report, operating_point_from_dev,
                          write_scores_csv)
    from .net import load_checkpoint
    from .train import load_split_tensors, score_batches

    rows, root = _load_rows(values)
    model = load_checkpoint(values["checkpoint"])
    test_rows = split_rows(rows, "test")
    if not test_rows:
        raise ConfigError("eval requires a test split")
    x_test, y_test = load_split_tensors(root, test_rows, model.cfg.input_size)
    test_scores = score_batches(model, x_test, values["eval_batch"])
    if values["threshold"] == "dev_eer":
        dev_rows = split_rows(rows, "dev")
        if not dev_rows:
            raise ConfigError("--threshold dev_eer requires a dev split in the manifest")
        x_dev, y_dev = load_split_tensors(root, dev_rows, model.cfg.input_size)
        op = operating_point_from_dev(score_batches(model, x_dev, values["eval_batch"]), y_dev)
    elif values["threshold"] == "fixed":
        op = OperatingPoint(values["tau"], "fixed")
    else:
        raise ConfigError(f"--threshold must be dev_eer or fixed, got {values['threshold']!r}")
    scores, labels = test_scores, y_test.astype(int)
    if values["aggregate"] == "prefix":
        from .metrics import aggregate_by_prefix
        scores, labels = aggregate_by_prefix([r.path for r in test_rows], scores, labels)
    elif values["aggregate"] != "none":
        raise ConfigError(f"--aggregate must be none or prefix, got {values['aggregate']!r}")
    report = metric_report(scores, labels, op)
    write_scores_csv(os.path.join(values["outdir"], "scores.csv"),
                     test_scores, y_test.astype(int), [r.split for r in test_rows])
    with open(os.path.join(values["outdir"], "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps({k: report[k] for k in
                      ("accuracy", "auc", "eer", "hter", "acer", "threshold")}, indent=2))
    return 0


def cmd_audit(args):
    values = _prepare(args)
    from .audit import audit_run, save_report
    from .net import load_checkpoint

    rows, root = _load_rows(values)
    model = load_checkpoint(values["checkpoint"])
    export = os.path.join(values["outdir"], "field.t4") if values["export_fields"] else None
    report = audit_run(model, rows, max_samples=values["max_samples"], data_root=root,
                       split=values["split"], export_field_path=export)
    save_report(values["outdir"], report)
    d_an = report.effect_sizes.get("anisotropy")
    d_hf = report.effect_sizes.get("hf_lf")
    print(f"cohens_d anisotropy (attack-bonafide): {d_an}")
    print(f"cohens_d hf_lf (attack-bonafide): {d_hf}")
    return 0


# Published reference costs (params in M, GFLOPs) for matching full-scale
# configurations, keyed by (groups, reduce, placement, input_size).
REFERENCE_COSTS = {
    (16, 4, "end", 256): (3.476, 0.623),
    (30, 4, "end", 256): (3.497, 0.626),
    (60, 4, "end", 256): (3.543, 0.631),
    (120, 4, "end", 256): (3.635, 0.643),
    (240, 4, "end", 256): (3.818, 0.666),
    (120, 1, "end", 256): (5.775, 0.919),
    (120, 8, "end", 256): (3.303, 0.600),
    (120, 4, "begin", 256): (2.975, 0.645),
    (120, 4, "end", 64): (3.635, 0.043),
    (120, 4, "end", 128): (3.635, 0.163),
    (120, 4, "end", 512): (3.635, 2.563),
}


def cmd_flops(args):
    values = _prepare(args)
    import csv

    from .errors import GipadError
    from .net import ModelConfig, build_model, model_flops, param_count
    from .tensor import make_rng

    def parse_grid(raw, default, conv):
        return [conv(tok) for tok in raw.split(",") if tok.strip()] if raw else default

    grid_groups = parse_grid(values["grid_groups"], [values["groups"]], int)
    grid_reduce = parse_grid(values["grid_reduce"], [values["reduce"]], int)
    grid_place = parse_grid(values["grid_placement"], [values["placement"]], str)
    grid_sizes = parse_grid(values["grid_sizes"], [values["input_size"]], int)

    out_path = os.path.join(values["outdir"], "flops.csv")
    wrote = 0
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["groups", "reduce", "placement", "input_size",
                         "params", "flops", "params_m", "gflops",
                         "ref_params_m", "ref_gflops", "status"])
        for g in grid_groups:
            for r in grid_reduce:
                for place in grid_place:
                    for size in grid_sizes:
                        row = [g, r, place, size]
                        try:
                            cfg = ModelConfig(
                                groups=g, reduce=r, placement=place, input_size=size,
                                gi_kernel=values["gi_kernel"],
                                width_multiplier=values["width_multiplier"])
                            model = build_model(cfg, make_rng(0))
                            params = param_count(model)
                            flops = model_flops(model, size)
                            ref = REFERENCE_COSTS.get((g, r, place, size), ("", ""))
                            row += [params, flops, f"{params / 1e6:.3f}",
                                    f"{flops / 1e9:.3f}", ref[0], ref[1], "ok"]
                            wrote += 1
                        except GipadError as exc:
                            row += ["", "", "", "", "", "", f"error: {exc}"]
                        writer.writerow(row)
    print(f"wrote {wrote} grid rows to {out_path}")
    return 0


def cmd_gradcam(args):
    values = _prepare(args)
    import numpy as np

    from .data import denormalize, preprocess, read_image, write_pgm, write_ppm
    from .errors import ConfigError
    from .net import gradcam, load_checkpoint

    if not values["image"]:
        raise ConfigError("--image is required")
    model = load_checkpoint(values["checkpoint"])
    frame = read_image(values["image"])
    x = preprocess(frame, model.cfg.input_size)[None]
    heat = gradcam(model, x, values["class_index"])
    write_pgm(os.path.join(values["outdir"], "heatmap.pgm"),
              np.round(heat * 255).astype(np.uint8))
    base = np.clip(denormalize(x[0]), 0.0, 1.0)
    overlay = base * 0.5
    overlay[:, :, 0] += 0.5 * heat  # red channel carries the activation
    write_ppm(os.path.join(values["outdir"], "overlay.ppm"),
              np.round(np.clip(overlay, 0.0, 1.0) * 255).astype(np.uint8))
    print(f"wrote heatmap.pgm and overlay.ppm under {values['outdir']}")
    return 0


def _add_shared(sub):
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--outdir")
    sub.add_argument("--threads", type=int)


def build_parser():
    parser = argparse.ArgumentParser(prog="gipad", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate the synthetic texture benchmark")
    _add_shared(p)
    p.add_argument("--train", type=int)
    p.add_argument("--dev", type=int)
    p.add_argument("--test", type=int)
    p.add_argument("--size", type=int)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="train a model on a manifest")
    _add_shared(p)
    p.add_argument("--manifest")
    p.add_argument("--subject-disjoint", dest="subject_disjoint", action="store_const",
                   const=True)
    p.add_argument("--groups", type=int)
    p.add_argument("--reduce", type=int)
    p.add_argument("--gi-kernel", dest="gi_kernel", type=int)
    p.add_argument("--placement", choices=("begin", "end", "both", "none"))
    p.add_argument("--width-multiplier", dest="width_multiplier", type=float)
    p.add_argument("--input-size", dest="input_size", type=int)
    p.add_argument("--label-smoothing", dest="label_smoothing", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--precision", choices=("double", "single"))
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("eval", help="score a test split and report metrics")
    _add_shared(p)
    p.add_argument("--manifest")
    p.add_argument("--checkpoint")
    p.add_argument("--threshold", choices=("dev_eer", "fixed"))
    p.add_argument("--tau", type=float)
    p.add_argument("--eval-batch", dest="eval_batch", type=int)
    p.add_argument("--aggregate", choices=("none", "prefix"))
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("audit", help="kernel audit over a manifest split")
    _add_shared(p)
    p.add_argument("--manifest")
    p.add_argument("--checkpoint")
    p.add_argument("--split", choices=("train", "dev", "test"))
    p.add_argument("--max-samples", dest="max_samples", type=int)
    p.add_argument("--export-fields", dest="export_fields", action="store_const", const=True)
    p.set_defaults(func=cmd_audit)

    p = subs.add_parser("flops", help="parameter/FLOP table over a config grid")
    _add_shared(p)
    p.add_argument("--grid-groups", dest="grid_groups")
    p.add_argument("--grid-reduce", dest="grid_reduce")
    p.add_argument("--grid-placement", dest="grid_placement")
    p.add_argument("--grid-sizes", dest="grid_sizes")
    p.add_argument("--groups", type=int)
    p.add_argument("--reduce", type=int)
    p.add_argument("--gi-kernel", dest="gi_kernel", type=int)
    p.add_argument("--placement", choices=("begin", "end", "both", "none"))
    p.add_argument("--width-multiplier", dest="width_multiplier", type=float)
    p.add_argument("--input-size", dest="input_size", type=int)
    p.set_defaults(func=cmd_flops)

    p = subs.add_parser("gradcam", help="class activation heatmap for one image")
    _add_shared(p)
    p.add_argument("--checkpoint")
    p.add_argument("--image")
    p.add_argument("--class-index", dest="class_index", type=int)
    p.set_defaults(func=cmd_gradcam)

    return parser


def main(argv=None) -> int:
    from .errors import ConfigError, DataError, InternalError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
