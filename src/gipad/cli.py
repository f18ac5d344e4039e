"""Command-line front end: synth | train | eval | audit | flops | gradcam.

Every subcommand resolves its configuration from defaults, then an optional
`key = value` config file, then flags (flags win), echoes the fully resolved
view to <outdir>/config.resolved before doing any work, and exits 0 on
success, 2 on configuration errors, 3 on data errors, 4 on violated
internal invariants.

The settings come from `config`, which loads no numpy; heavy imports happen
inside the handlers, so that --threads can pin the BLAS thread pools before
numpy loads.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .config import (SPLITS, ModelConfig, Setting, SynthSpec, TrainConfig, convert, dump,
                     parse, settings)
from .errors import ConfigError, DataError, GipadError, InternalError, read_input, write_output

# The config objects' settings come from their dataclasses.
OBJECT_SETTINGS = {cls: settings(cls) for cls in (ModelConfig, TrainConfig, SynthSpec)}
SETTINGS = {
    **{key: s for group in OBJECT_SETTINGS.values() for key, s in group.items()},
    # settings that belong to no config object
    "manifest": Setting(str, ""),
    "subject_disjoint": Setting(bool, False),
    "checkpoint": Setting(str, ""),
    "threshold": Setting(str, "dev_eer", ("dev_eer", "fixed")),
    "tau": Setting(float, 0.5),
    "aggregate": Setting(str, "none", ("none", "prefix")),
    "split": Setting(str, "test", SPLITS),
    "max_samples": Setting(int, 256),
    "export_fields": Setting(bool, False),
    "grid_groups": Setting(str, ""),
    "grid_reduce": Setting(str, ""),
    "grid_placement": Setting(str, ""),
    "grid_sizes": Setting(str, ""),
    "image": Setting(str, ""),
    "class_index": Setting(int, 1),
    "outdir": Setting(str, ""),
    "threads": Setting(int, 0),
}


def make(cls, values):
    """The config object `cls` from resolved values."""
    return cls(**{key: values[key] for key in OBJECT_SETTINGS[cls]})


def read_config_file(path):
    text = read_input(path, "config", text=True)
    return {key: convert(key, raw, SETTINGS[key])
            for key, raw in parse(text, path, SETTINGS).items()}


def resolve_config(args):
    """Merge defaults < config file < flags; returns (values, provenance)."""
    values = {key: s.default for key, s in SETTINGS.items()}
    provenance = dict.fromkeys(SETTINGS, "default")
    if getattr(args, "config", None):
        for key, val in read_config_file(args.config).items():
            values[key] = val
            provenance[key] = "file"
    for key, s in SETTINGS.items():
        raw = getattr(args, key, None)
        if raw is not None:
            values[key] = convert(key, raw, s)
            provenance[key] = "flag"
    return values, provenance


def default_outdir(seed):
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return os.path.join("runs", f"{stamp}-seed{seed}")


def echo_resolved(outdir, values, provenance):
    text = dump({key: values[key] for key in sorted(SETTINGS)}, provenance)
    write_output(os.path.join(outdir, "config.resolved"), [text.encode("utf-8")])


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


def _load_rows(values):
    from .data import load_manifest

    if not values["manifest"]:
        raise ConfigError("--manifest is required")
    rows = load_manifest(values["manifest"], subject_disjoint=values["subject_disjoint"])
    root = os.path.dirname(os.path.abspath(values["manifest"]))
    return rows, root


def cmd_synth(args):
    values = _prepare(args)
    from .data import generate_synth

    rows = generate_synth(make(SynthSpec, values), values["outdir"])
    print(f"wrote {len(rows)} patches under {values['outdir']}")
    return 0


def cmd_train(args):
    values = _prepare(args)
    from .net import build_model, param_count
    from .tensor import make_rng
    from .train import train_and_checkpoint

    rows, root = _load_rows(values)
    train_config = make(TrainConfig, values)  # checks the seed before make_rng reads it
    model = build_model(make(ModelConfig, values), make_rng(values["seed"]))
    model.seed = values["seed"]
    print(f"model parameters: {param_count(model)}")
    history = train_and_checkpoint(model, rows, train_config, root, values["outdir"])
    print(f"stopped after epoch {len(history.dev_loss)} ({history.stop_reason}), "
          f"best epoch {history.best_epoch}, best dev loss "
          f"{history.dev_loss[history.best_epoch - 1]:.6f}")
    return 0


def cmd_eval(args):
    """Score the test split, and the dev split for a dev-EER threshold, then
    write scores.csv and metrics.json. `train.score_batches` reads and scores
    each split one batch at a time, so memory holds one batch of frames and
    activations whatever the split's size."""
    values = _prepare(args)
    import json

    import numpy as np

    from .data import split_rows
    from .metrics import (OperatingPoint, metric_report, operating_point_from_dev,
                          write_scores_csv)
    from .net import freeze, load_checkpoint
    from .train import score_batch_size, score_batches

    rows, root = _load_rows(values)
    model = freeze(load_checkpoint(values["checkpoint"]))

    def score_split(split, chosen):
        # an overflowing forward is reported below, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            p, y = score_batches(model, root, chosen)
        if not np.all(np.isfinite(p)):
            raise DataError(f"{values['checkpoint']}: the forward pass overflows on the "
                            f"{split} split and gives non-finite scores")
        print(f"eval: scored {len(chosen)} {split} frames in batches of "
              f"{score_batch_size(model)}", file=sys.stderr)
        return p, y

    test_rows = split_rows(rows, "test")
    if not test_rows:
        raise ConfigError("eval requires a test split")
    test_scores, y_test = score_split("test", test_rows)
    if values["threshold"] == "dev_eer":
        dev_rows = split_rows(rows, "dev")
        if not dev_rows:
            raise ConfigError("--threshold dev_eer requires a dev split in the manifest")
        op = operating_point_from_dev(*score_split("dev", dev_rows))
    else:
        op = OperatingPoint(values["tau"], "fixed")
    scores, labels = test_scores, y_test.astype(int)
    if values["aggregate"] == "prefix":
        from .metrics import aggregate_by_prefix
        scores, labels = aggregate_by_prefix([r.path for r in test_rows], scores, labels)
        # synth names a class's frames <label>_<counter>, which gives one group
        if 1 in ((labels == 0).sum(), (labels == 1).sum()):
            print(f"warning: --aggregate prefix left a class with a single group: "
                  f"{len(test_rows)} test frames became {len(labels)} groups", file=sys.stderr)
    report = metric_report(scores, labels, op)
    write_scores_csv(os.path.join(values["outdir"], "scores.csv"),
                     test_scores, y_test.astype(int), [r.split for r in test_rows])
    write_output(os.path.join(values["outdir"], "metrics.json"),
                 [json.dumps(report, indent=2).encode("utf-8")])
    print(json.dumps({k: report[k] for k in
                      ("accuracy", "auc", "eer", "hter", "acer", "threshold")}, indent=2))
    return 0


def cmd_audit(args):
    values = _prepare(args)
    from .audit import audit_run, save_report
    from .net import freeze, load_checkpoint

    rows, root = _load_rows(values)
    model = freeze(load_checkpoint(values["checkpoint"]))
    export = os.path.join(values["outdir"], "field.t4") if values["export_fields"] else None
    report = audit_run(model, rows, max_samples=values["max_samples"], data_root=root,
                       split=values["split"], export_field_path=export)
    save_report(values["outdir"], report)
    d_an = report.effect_sizes.get("anisotropy")
    d_hf = report.effect_sizes.get("hf_lf")
    print(f"cohens_d anisotropy (attack-bonafide): {d_an}")
    print(f"cohens_d hf_lf (attack-bonafide): {d_hf}")
    return 0


# Published reference costs (params in M, GFLOPs) of the full-scale model
# (width 1.0, GI kernel 5), keyed by (groups, reduce, placement, input_size).
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
    import itertools

    from .data import write_csv
    from .net import build_model, model_flops, param_count
    from .tensor import make_rng

    # each grid axis: the comma-separated values of its flag, else the single setting
    axes = {"groups": "grid_groups", "reduce": "grid_reduce", "placement": "grid_placement",
            "input_size": "grid_sizes"}
    grids = [[convert(key, tok.strip(), SETTINGS[key])
              for tok in values[grid].split(",") if tok.strip()] or [values[key]]
             for key, grid in axes.items()]
    # a value ModelConfig rejects exits 2 here; only points that fail to build get error rows
    points = [(point, make(ModelConfig, {**values, **dict(zip(axes, point))}))
              for point in itertools.product(*grids)]

    rows = []
    for point, cfg in points:
        try:
            model = build_model(cfg, make_rng(0))
            params, flops = param_count(model), model_flops(model, cfg.input_size)
        except GipadError as exc:
            rows.append([*point, "", "", "", "", "", "", f"error: {exc}"])
            continue
        full_scale = (cfg.width_multiplier, cfg.gi_kernel) == (1.0, 5)
        ref = REFERENCE_COSTS.get(point, ("", "")) if full_scale else ("", "")
        # str keeps a reference such as 3.476 as published, not as %.17g
        rows.append([*point, params, flops, f"{params / 1e6:.3f}", f"{flops / 1e9:.3f}",
                     *map(str, ref), "ok"])
    out_path = os.path.join(values["outdir"], "flops.csv")
    write_csv(out_path, ["groups", "reduce", "placement", "input_size", "params", "flops",
                         "params_m", "gflops", "ref_params_m", "ref_gflops", "status"], rows)
    print(f"wrote {sum(row[-1] == 'ok' for row in rows)} grid rows to {out_path}")
    return 0


def cmd_gradcam(args):
    values = _prepare(args)
    import numpy as np

    from .data import denormalize, preprocess, read_image, write_image
    from .net import freeze, gradcam, load_checkpoint

    if not values["image"]:
        raise ConfigError("--image is required")
    model = freeze(load_checkpoint(values["checkpoint"]))
    frame = read_image(values["image"])
    x = preprocess(frame, model.cfg.input_size)[None]
    heat = gradcam(model, x, values["class_index"])
    write_image(os.path.join(values["outdir"], "heatmap.pgm"),
                np.round(heat * 255).astype(np.uint8))
    base = np.clip(denormalize(x[0]), 0.0, 1.0)
    overlay = base * 0.5
    overlay[:, :, 0] += 0.5 * heat  # red channel carries the activation
    write_image(os.path.join(values["outdir"], "overlay.ppm"),
                np.round(np.clip(overlay, 0.0, 1.0) * 255).astype(np.uint8))
    print(f"wrote heatmap.pgm and overlay.ppm under {values['outdir']}")
    return 0


# Each subcommand: handler, help line, and the settings it takes as flags
# beside --config, --seed, --outdir and --threads.
COMMANDS = {
    "synth": (cmd_synth, "generate the synthetic texture benchmark",
              ("train", "dev", "test", "size")),
    "train": (cmd_train, "train a model on a manifest",
              ("manifest", "subject_disjoint", *OBJECT_SETTINGS[ModelConfig],
               "label_smoothing", "lr", "batch_size", "max_epochs", "patience", "precision")),
    "eval": (cmd_eval, "score a test split and report metrics",
             ("manifest", "checkpoint", "threshold", "tau", "aggregate")),
    "audit": (cmd_audit, "kernel audit over a manifest split",
              ("manifest", "checkpoint", "split", "max_samples", "export_fields")),
    "flops": (cmd_flops, "parameter/FLOP table over a config grid",
              ("grid_groups", "grid_reduce", "grid_placement", "grid_sizes",
               *OBJECT_SETTINGS[ModelConfig])),
    "gradcam": (cmd_gradcam, "class activation heatmap for one image",
                ("checkpoint", "image", "class_index")),
}


@functools.cache
def build_parser():
    """Flags carry raw text; `resolve_config` converts it like config file text.
    Built once per process: every `main` call parses with the same parser."""
    parser = argparse.ArgumentParser(prog="gipad", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, keys) in COMMANDS.items():
        p = subs.add_parser(name, help=help_line)
        p.add_argument("--config", help="key = value config file")
        for key in ("seed", "outdir", "threads", *keys):
            flag = "--" + key.replace("_", "-")
            if SETTINGS[key].type is bool:
                p.add_argument(flag, dest=key, action="store_const", const="true")
            else:
                p.add_argument(flag, dest=key, choices=SETTINGS[key].choices)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        # readers and writers wrap their faults as a DataError naming the
        # file; an OSError that reaches here came from neither
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
