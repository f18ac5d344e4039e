"""End-to-end subcommand runs through the installed entry point."""

import csv
import errno
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from gipad import metrics
from gipad.tensor import checksum64


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "gipad", *args],
                          capture_output=True, text=True, cwd=cwd)


def synth_args(outdir, seed=7, counts=(16, 8, 8), size=32):
    return ["synth", "--seed", str(seed), "--train", str(counts[0]),
            "--dev", str(counts[1]), "--test", str(counts[2]),
            "--size", str(size), "--outdir", str(outdir)]


TRAIN_FLAGS = ["--width-multiplier", "0.25", "--input-size", "32",
               "--groups", "24", "--max-epochs", "1", "--batch-size", "8"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "data"
    proc = run_cli(*synth_args(dataset))
    assert proc.returncode == 0, proc.stderr
    rundir = root / "run"
    proc = run_cli("train", "--manifest", str(dataset / "manifest.csv"),
                   "--outdir", str(rundir), "--seed", "7", *TRAIN_FLAGS)
    assert proc.returncode == 0, proc.stderr
    return {"dataset": dataset, "rundir": rundir}


class TestSynth:
    def test_counts_and_manifest(self, tmp_path):
        out = tmp_path / "ds"
        proc = run_cli(*synth_args(out, counts=(6, 3, 3), size=16))
        assert proc.returncode == 0, proc.stderr
        patches = sorted(str(p.relative_to(out)) for p in out.rglob("*.ppm"))
        assert len(patches) == 12
        assert (out / "manifest.csv").exists()
        assert (out / "config.resolved").exists()

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*synth_args(a, counts=(4, 2, 2), size=16)).returncode == 0
        assert run_cli(*synth_args(b, counts=(4, 2, 2), size=16)).returncode == 0
        for rel in sorted(p.relative_to(a) for p in a.rglob("*.ppm")):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_rerun_from_resolved_config(self, tmp_path):
        a = tmp_path / "a"
        assert run_cli(*synth_args(a, counts=(4, 2, 2), size=16)).returncode == 0
        b = tmp_path / "b"
        proc = run_cli("synth", "--config", str(a / "config.resolved"),
                       "--outdir", str(b))
        assert proc.returncode == 0, proc.stderr
        for rel in sorted(p.relative_to(a) for p in a.rglob("*.ppm")):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_missing_outdir_created(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "ds"
        assert run_cli(*synth_args(out, counts=(2, 1, 1), size=16)).returncode == 0
        assert out.exists()


class TestTrain:
    def test_outputs(self, workspace):
        rundir = workspace["rundir"]
        assert (rundir / "model.ckpt").exists()
        assert (rundir / "config.resolved").exists()
        with open(rundir / "history.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "dev_loss", "dev_acc"]
        assert 2 <= len(rows) <= 101

    def test_rerun_from_resolved_config(self, workspace, tmp_path):
        # every model and trainer key goes through the config file reader
        rundir, again = workspace["rundir"], tmp_path / "again"
        proc = run_cli("train", "--config", str(rundir / "config.resolved"),
                       "--outdir", str(again))
        assert proc.returncode == 0, proc.stderr
        assert (again / "history.csv").read_bytes() == (rundir / "history.csv").read_bytes()

    def test_divisibility_error_exit_2(self, workspace, tmp_path):
        proc = run_cli("train", "--manifest", str(workspace["dataset"] / "manifest.csv"),
                       "--outdir", str(tmp_path / "bad"), "--groups", "7",
                       "--input-size", "32", "--width-multiplier", "1.0")
        assert proc.returncode == 2
        assert "divisible" in proc.stderr

    def test_missing_manifest_exit_3(self, tmp_path):
        proc = run_cli("train", "--manifest", str(tmp_path / "nope.csv"),
                       "--outdir", str(tmp_path / "out"), *TRAIN_FLAGS)
        assert proc.returncode == 3

    def test_missing_train_frame_exit_3(self, tmp_path, capsys):
        """A train frame deleted after synth is found at its batch: exit 3
        naming the file, and neither model.ckpt nor history.csv written."""
        from gipad import cli

        dataset, outdir = tmp_path / "data", tmp_path / "run"
        assert cli.main(synth_args(dataset)) == 0
        frame = sorted((dataset / "train").glob("*.ppm"))[5]
        frame.unlink()
        capsys.readouterr()
        assert cli.main(["train", "--manifest", str(dataset / "manifest.csv"),
                         "--outdir", str(outdir), *TRAIN_FLAGS]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot read image ") and frame.name in err
        assert sorted(os.listdir(outdir)) == ["config.resolved"]

    def test_param_count_diff_matches_formula(self, workspace, tmp_path):
        from gipad import net

        dataset = workspace["dataset"]
        counts = {}
        for placement in ("none", "end"):
            outdir = tmp_path / placement
            proc = run_cli("train", "--manifest", str(dataset / "manifest.csv"),
                           "--outdir", str(outdir), "--placement", placement,
                           "--seed", "7", *TRAIN_FLAGS)
            assert proc.returncode == 0, proc.stderr
            line = next(l for l in proc.stdout.splitlines() if "model parameters" in l)
            counts[placement] = int(line.split(":")[1])
        assert counts["end"] - counts["none"] == net.gi_block_params(240, 4, 24, 5)


class TestEval:
    def test_scores_and_metrics(self, workspace, tmp_path):
        dataset, rundir = workspace["dataset"], workspace["rundir"]
        evaldir = tmp_path / "eval"
        proc = run_cli("eval", "--manifest", str(dataset / "manifest.csv"),
                       "--checkpoint", str(rundir / "model.ckpt"),
                       "--outdir", str(evaldir))
        assert proc.returncode == 0, proc.stderr
        scores, labels, splits = metrics.read_scores_csv(evaldir / "scores.csv")
        assert len(scores) == 8  # test split size
        assert set(splits) == {"test"}
        with open(evaldir / "metrics.json", encoding="utf-8") as fh:
            report = json.load(fh)
        # recompute offline from the score CSV; must agree exactly
        op = metrics.OperatingPoint(report["threshold"], report["threshold_source"])
        again = metrics.metric_report(scores, labels, op)
        for key in ("accuracy", "auc", "eer", "far", "frr", "hter", "yi",
                    "apcer", "bpcer", "acer"):
            assert report[key] == again[key], key

    def test_fixed_threshold(self, workspace, tmp_path):
        dataset, rundir = workspace["dataset"], workspace["rundir"]
        proc = run_cli("eval", "--manifest", str(dataset / "manifest.csv"),
                       "--checkpoint", str(rundir / "model.ckpt"),
                       "--threshold", "fixed", "--tau", "0.5",
                       "--outdir", str(tmp_path / "ev"))
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "ev" / "metrics.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["threshold"] == 0.5

    def test_prefix_aggregation(self, workspace, tmp_path):
        # synthetic filenames share one counter prefix per (split, label),
        # so prefix aggregation collapses the test split to one score each
        dataset, rundir = workspace["dataset"], workspace["rundir"]
        proc = run_cli("eval", "--manifest", str(dataset / "manifest.csv"),
                       "--checkpoint", str(rundir / "model.ckpt"),
                       "--aggregate", "prefix", "--outdir", str(tmp_path / "agg"))
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "agg" / "metrics.json", encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["n_bonafide"] == 1 and report["n_attack"] == 1
        warnings = [l for l in proc.stderr.splitlines() if l.startswith("warning:")]
        assert len(warnings) == 1
        assert "single group" in warnings[0] and "8 test frames became 2 groups" in warnings[0]

    def test_overflowing_forward_is_a_data_error(self, workspace, tmp_path, capsys):
        from gipad import cli, net

        model = net.load_checkpoint(workspace["rundir"] / "model.ckpt")
        head = model.layers[-1][1]
        head.params["w"][...] = 1e308
        head.params["b"][...] = 1e308
        net.save_checkpoint(tmp_path / "big.ckpt", model)
        outdir = tmp_path / "ev"
        assert cli.main(["eval", "--manifest", str(workspace["dataset"] / "manifest.csv"),
                         "--checkpoint", str(tmp_path / "big.ckpt"),
                         "--outdir", str(outdir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "big.ckpt" in err and "test split" in err
        assert sorted(os.listdir(outdir)) == ["config.resolved"]

    # the workspace model (width 0.25, 32x32) has at most 32 KiB of
    # activation per sample, its block1 expansion: 16 channels at 16x16
    SAMPLE_BYTES = 32 * 1024

    def test_streamed_scores_match_one_batch(self, workspace, tmp_path, monkeypatch, capsys):
        from gipad import cli, train

        args = ["eval", "--manifest", str(workspace["dataset"] / "manifest.csv"),
                "--checkpoint", str(workspace["rundir"] / "model.ckpt")]
        assert cli.main([*args, "--outdir", str(tmp_path / "one")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "eval: scored 8 test frames in batches of 128",
            "eval: scored 8 dev frames in batches of 128"]
        monkeypatch.setattr(train, "SCORE_BYTES", 3 * self.SAMPLE_BYTES)
        assert cli.main([*args, "--outdir", str(tmp_path / "three")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "eval: scored 8 test frames in batches of 3",
            "eval: scored 8 dev frames in batches of 3"]
        one = metrics.read_scores_csv(tmp_path / "one" / "scores.csv")
        three = metrics.read_scores_csv(tmp_path / "three" / "scores.csv")
        np.testing.assert_allclose(three[0], one[0], rtol=1e-12, atol=0)
        assert list(three[1]) == list(one[1]) and list(three[2]) == list(one[2])

    def test_memory_does_not_grow_with_the_split(self, workspace, tmp_path, monkeypatch,
                                                 capsys):
        """eval holds one batch of frames and activations at a time: from the
        first frame read on, four batches' worth of frames peak no higher
        than one batch, within a margin of a tenth of one batch's frames."""
        import gc
        import tracemalloc

        from gipad import cli, data, train

        batch = 4
        monkeypatch.setattr(train, "SCORE_BYTES", batch * self.SAMPLE_BYTES)
        dataset = workspace["dataset"]
        rows = data.load_manifest(dataset / "manifest.csv")
        # every dev and test frame as a test frame, the classes alternating
        rows = [r for r in rows if r.split != "train"]
        rows = [r for pair in zip(*(sorted((r for r in rows if r.label == label),
                                          key=lambda r: r.path)
                                   for label in ("bonafide", "attack"))) for r in pair]
        assert len(rows) == 4 * batch

        load, first_read = train.load_split_tensors, [True]

        def load_after_reset(*args, **kwargs):
            if first_read[0]:  # the peak from here on is the scoring's, not the checkpoint's
                tracemalloc.reset_peak()
                first_read[0] = False
            return load(*args, **kwargs)

        monkeypatch.setattr(train, "load_split_tensors", load_after_reset)

        def peak(n):
            first_read[0] = True
            manifest = tmp_path / f"m{n}.csv"
            manifest.write_text("path,label,split,subject\n" + "".join(
                f"{dataset / r.path},{r.label},test,{r.subject}\n" for r in rows[:n]),
                encoding="utf-8")
            # collecting first has the collector run at the same points of
            # every run, whatever cyclic garbage the process left before
            gc.collect()
            tracemalloc.start()
            try:
                code = cli.main(["eval", "--manifest", str(manifest),
                                 "--checkpoint", str(workspace["rundir"] / "model.ckpt"),
                                 "--threshold", "fixed", "--outdir", str(tmp_path / "ev")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak

        peak(batch)  # caches and lazy imports, which stay allocated
        one, four = peak(batch), peak(4 * batch)
        frames = batch * 3 * 32 * 32 * 8
        assert four <= one + frames // 10, (one, four)
        capsys.readouterr()

    def test_missing_dev_split_rejected(self, workspace, tmp_path):
        dataset, rundir = workspace["dataset"], workspace["rundir"]
        stripped = tmp_path / "nodev.csv"
        lines = (dataset / "manifest.csv").read_text().splitlines()
        keep = [lines[0]] + [l for l in lines[1:] if ",dev," not in l]
        stripped.write_text("\n".join(keep) + "\n", encoding="utf-8")
        # image paths are relative to the manifest, so keep it in the dataset dir
        target = dataset / "nodev.csv"
        target.write_text(stripped.read_text(), encoding="utf-8")
        proc = run_cli("eval", "--manifest", str(target),
                       "--checkpoint", str(rundir / "model.ckpt"),
                       "--outdir", str(tmp_path / "ev2"))
        assert proc.returncode == 2
        assert "dev" in proc.stderr


class TestAudit:
    def test_report_bundle(self, workspace, tmp_path):
        dataset, rundir = workspace["dataset"], workspace["rundir"]
        auditdir = tmp_path / "audit"
        proc = run_cli("audit", "--manifest", str(dataset / "manifest.csv"),
                       "--checkpoint", str(rundir / "model.ckpt"),
                       "--outdir", str(auditdir), "--max-samples", "6",
                       "--export-fields")
        assert proc.returncode == 0, proc.stderr
        with open(auditdir / "audit.json", encoding="utf-8") as fh:
            report = json.load(fh)
        for name in ("hf_lf", "anisotropy", "dc_offset", "position_variance"):
            assert name in report["cohens_d"]
            assert name in report["per_class"]
        assert (auditdir / "hist_hf_lf.csv").exists()
        assert (auditdir / "field.t4").exists()
        assert (auditdir / "field.t4.meta").exists()

    def test_placement_none_checkpoint_rejected(self, workspace, tmp_path):
        dataset = workspace["dataset"]
        rundir = tmp_path / "plain"
        proc = run_cli("train", "--manifest", str(dataset / "manifest.csv"),
                       "--outdir", str(rundir), "--placement", "none",
                       "--seed", "7", *TRAIN_FLAGS)
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("audit", "--manifest", str(dataset / "manifest.csv"),
                       "--checkpoint", str(rundir / "model.ckpt"),
                       "--outdir", str(tmp_path / "a"))
        assert proc.returncode == 2

    # 1e308 gives a finite field whose mean kernel overflows; 1e200 a finite
    # mean kernel whose energy overflows
    @pytest.mark.parametrize("bias", [1e308, 1e200])
    def test_overflowing_kernels_are_a_data_error(self, workspace, tmp_path, capsys, bias):
        from gipad import cli, net

        model = net.load_checkpoint(workspace["rundir"] / "model.ckpt")
        model.end_gi.params["expand_b"][...] = bias
        net.save_checkpoint(tmp_path / "big.ckpt", model)
        outdir = tmp_path / "a"
        assert cli.main(["audit", "--manifest", str(workspace["dataset"] / "manifest.csv"),
                         "--checkpoint", str(tmp_path / "big.ckpt"), "--outdir", str(outdir),
                         "--max-samples", "4", "--export-fields"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "gi_end" in err and ".ppm" in err
        assert sorted(os.listdir(outdir)) == ["config.resolved"]


class TestFlops:
    def test_size_grid_ratios(self, tmp_path):
        proc = run_cli("flops", "--grid-sizes", "64,128,256,512",
                       "--outdir", str(tmp_path / "f"))
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "f" / "flops.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        flops = [int(r["flops"]) for r in rows]
        for nxt, cur in zip(flops[1:], flops):
            assert 3.7 <= nxt / cur <= 4.0
        assert rows[1]["ref_gflops"] == "0.163"

    def test_reduce_grid_params_decreasing(self, tmp_path):
        proc = run_cli("flops", "--grid-reduce", "1,4,8", "--outdir", str(tmp_path / "f"))
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "f" / "flops.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        params = [int(r["params"]) for r in rows]
        assert params[0] > params[1] > params[2]

    def test_groups_grid_params_increasing_and_errors_continue(self, tmp_path):
        proc = run_cli("flops", "--grid-groups", "16,30,60,120,240,7",
                       "--outdir", str(tmp_path / "f"))
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "f" / "flops.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        good = [int(r["params"]) for r in rows if r["status"] == "ok"]
        assert len(good) == 5
        assert all(a < b for a, b in zip(good, good[1:]))
        assert rows[-1]["status"].startswith("error")

    @pytest.mark.parametrize("flags, ref", [
        ([], "3.476"),
        (["--width-multiplier", "0.25", "--gi-kernel", "3"], ""),
        (["--width-multiplier", "0.25"], ""),
        (["--gi-kernel", "3"], ""),
    ], ids=["full_scale", "width_and_kernel", "width", "kernel"])
    def test_reference_costs_only_for_the_full_scale_model(self, tmp_path, flags, ref):
        from gipad import cli

        assert cli.main(["flops", "--grid-groups", "16", *flags,
                         "--outdir", str(tmp_path / "f")]) == 0
        with open(tmp_path / "f" / "flops.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] == "ok"
        assert row["ref_params_m"] == ref


class TestThreads:
    FLAGS = ["flops", "--grid-sizes", "64", "--threads", "1"]

    def test_warns_when_numpy_is_loaded(self, tmp_path, capsys):
        from gipad import cli

        assert cli.main(self.FLAGS + ["--outdir", str(tmp_path / "f")]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: --threads 1 has no effect") == 1

    def test_silent_in_a_fresh_process(self, tmp_path):
        proc = run_cli(*self.FLAGS, "--outdir", str(tmp_path / "f"))
        assert proc.returncode == 0, proc.stderr
        assert "warning" not in proc.stderr

    def test_config_resolved_before_numpy_loads(self, tmp_path):
        # config.py's invariant: a handler resolves its whole configuration,
        # config file included, before anything imports numpy
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tau = 0.4\nthreshold = fixed\n", encoding="utf-8")
        script = (
            "import sys\n"
            "from gipad import cli\n"
            "args = cli.build_parser().parse_args(sys.argv[1:])\n"
            "values = cli._prepare(args)\n"
            "assert (values['threads'], values['tau']) == (1, 0.4), values\n"
            "assert 'numpy' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script, "eval", "--threads", "1",
                               "--config", str(cfg), "--outdir", str(tmp_path / "o")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestGradcam:
    def test_outputs(self, workspace, tmp_path):
        dataset, rundir = workspace["dataset"], workspace["rundir"]
        image = next((dataset / "test").glob("*.ppm"))
        camdir = tmp_path / "cam"
        proc = run_cli("gradcam", "--checkpoint", str(rundir / "model.ckpt"),
                       "--image", str(image), "--outdir", str(camdir))
        assert proc.returncode == 0, proc.stderr
        from gipad.data import read_image
        heat = read_image(camdir / "heatmap.pgm")
        assert heat.shape == (32, 32)  # model input size
        overlay = read_image(camdir / "overlay.ppm")
        assert overlay.shape == (32, 32, 3)

    def test_deterministic(self, workspace, tmp_path):
        dataset, rundir = workspace["dataset"], workspace["rundir"]
        image = next((dataset / "test").glob("*.ppm"))
        outs = []
        for name in ("c1", "c2"):
            camdir = tmp_path / name
            proc = run_cli("gradcam", "--checkpoint", str(rundir / "model.ckpt"),
                           "--image", str(image), "--outdir", str(camdir))
            assert proc.returncode == 0, proc.stderr
            outs.append((camdir / "heatmap.pgm").read_bytes())
        assert outs[0] == outs[1]


class TestConfigHandling:
    def test_main_parses_with_one_parser(self, tmp_path, monkeypatch, capsys):
        """The parser is built once per process, not left as garbage by each call."""
        import argparse

        from gipad import cli

        used, parse = [], argparse.ArgumentParser.parse_args

        def spy(self, *args, **kwargs):
            used.append(self)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        for run in ("a", "b"):  # no manifest: exit 2 once the flags are parsed
            assert cli.main(["eval", "--outdir", str(tmp_path / run)]) == 2
        assert len(used) == 2 and used[0] is used[1]
        capsys.readouterr()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_thing = 3\n", encoding="utf-8")
        proc = run_cli("synth", "--config", str(cfg), "--outdir", str(tmp_path / "o"))
        assert proc.returncode == 2

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 3\ntrain = 4\ndev = 2\ntest = 2\nsize = 16\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        proc = run_cli("synth", "--config", str(cfg), "--seed", "9",
                       "--outdir", str(out))
        assert proc.returncode == 0, proc.stderr
        resolved = (out / "config.resolved").read_text()
        assert "seed = 9  # flag" in resolved
        assert "train = 4  # file" in resolved
        assert "patience = 5  # default" in resolved

    def test_file_values_checked_like_flags(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        for line in ("threshold = sideways", "aggregate = all", "tau = nan", "lr = inf"):
            cfg.write_text(line + "\n", encoding="utf-8")
            proc = run_cli("synth", "--config", str(cfg), "--outdir", str(tmp_path / "o"))
            assert proc.returncode == 2, line
            assert "config error" in proc.stderr



# Inputs that once escaped as raw tracebacks (exit 1) or with a wrong exit
# code, with the documented exit code each must map to: 2 for configuration,
# 3 for data errors.
TRAIN_ARGS = ["train", "--manifest", "{manifest}", *TRAIN_FLAGS]
GRADCAM_ARGS = ["gradcam", "--checkpoint", "{ckpt}", "--image", "{image}"]
BAD_CKPT_ARGS = ["eval", "--manifest", "{manifest}", "--checkpoint", "{tmp}/bad.ckpt"]
BAD_MANIFEST_ARGS = ["eval", "--manifest", "{tmp}/bad.ppm", "--checkpoint", "{ckpt}"]


def offset_from_the_end(entry):
    """A manifest entry with its offset rewritten as a negative index to the
    same container, which is the last one when the entry is the last line."""
    name, _, *dims = entry.group().split(b",")
    return b",".join([name, b"%d" % -(20 + 8 * math.prod(map(int, dims))), *dims])


BAD_INPUTS = {
    "empty_image": (["gradcam", "--checkpoint", "{ckpt}", "--image", "{tmp}/bad.ppm"], b"", 3),
    "truncated_header": (["gradcam", "--checkpoint", "{ckpt}", "--image", "{tmp}/bad.ppm"],
                         b"P6\n4", 3),
    "non_numeric_header": (["gradcam", "--checkpoint", "{ckpt}", "--image", "{tmp}/bad.ppm"],
                           b"P6\nab cd\n255\n", 3),
    "batch_size_0": (["train", "--manifest", "{manifest}", *TRAIN_FLAGS, "--batch-size", "0"],
                     None, 2),
    "max_epochs_0": (["train", "--manifest", "{manifest}", *TRAIN_FLAGS, "--max-epochs", "0"],
                     None, 2),
    # the scoring batch is worked out from the model; the flag that set it is gone
    "eval_batch_flag_removed": (["eval", "--manifest", "{manifest}", "--checkpoint", "{ckpt}",
                                 "--eval-batch", "64"], None, 2),
    "missing_checkpoint": (["eval", "--manifest", "{manifest}",
                            "--checkpoint", "{tmp}/missing.ckpt"], None, 3),
    # checkpoints edited as (block, pattern, replacement) under a valid checksum
    "checkpoint_config_not_int": (["eval", "--manifest", "{manifest}",
                                   "--checkpoint", "{tmp}/bad.ckpt"],
                                  (0, rb"groups = \S+", b"groups = xx"), 3),
    "checkpoint_offset_not_int": (["eval", "--manifest", "{manifest}",
                                   "--checkpoint", "{tmp}/bad.ckpt"], (1, rb",0,", b",zz,"), 3),
    # the same values under other dims, and the last container read from the end
    "checkpoint_dims_transposed": (BAD_CKPT_ARGS, (1, rb"stem\.kernel,0,8,3,3,3",
                                                   b"stem.kernel,0,3,8,3,3"), 3),
    "checkpoint_offset_negative": (BAD_CKPT_ARGS,
                                   (1, rb"[^\n]+(?=\n\Z)", offset_from_the_end), 3),
    "checkpoint_offset_past_the_end": (BAD_CKPT_ARGS, (1, rb"stem\.kernel,0,",
                                                       b"stem.kernel,99999999,"), 3),
    "checkpoint_placement_unknown": (BAD_CKPT_ARGS,
                                     (0, rb"placement = \S+", b"placement = sideways"), 3),
    "checkpoint_groups_indivisible": (BAD_CKPT_ARGS, (0, rb"groups = \S+", b"groups = 7"), 3),
    "checkpoint_width_nan": (BAD_CKPT_ARGS,
                             (0, rb"width_multiplier = \S+", b"width_multiplier = nan"), 3),
    # a width that once reached numpy's allocator (MemoryError, exit 1)
    "checkpoint_width_huge": (BAD_CKPT_ARGS,
                              (0, rb"width_multiplier = \S+", b"width_multiplier = 1e9"), 3),
    "width_multiplier_huge": ([*TRAIN_ARGS, "--width-multiplier", "1e9"], None, 2),
    "lr_nan": ([*TRAIN_ARGS, "--lr", "nan"], None, 2),
    "lr_inf": ([*TRAIN_ARGS, "--lr", "inf"], None, 2),
    "width_multiplier_nan": ([*TRAIN_ARGS, "--width-multiplier", "nan"], None, 2),
    "width_multiplier_inf": ([*TRAIN_ARGS, "--width-multiplier", "inf"], None, 2),
    # 8 groups divide the 8 channels that a width of 0 or -1 once silently built
    "width_multiplier_0": ([*TRAIN_ARGS, "--groups", "8", "--width-multiplier", "0"], None, 2),
    "width_multiplier_negative": ([*TRAIN_ARGS, "--groups", "8", "--width-multiplier", "-1"],
                                  None, 2),
    "groups_0": ([*TRAIN_ARGS, "--groups", "0"], None, 2),
    "synth_size_0": (["synth", "--train", "1", "--dev", "1", "--test", "1", "--size", "0"],
                     None, 2),
    # a frame numpy cannot allocate (once exit 1)
    "synth_size_huge": (["synth", "--train", "1", "--dev", "1", "--test", "1",
                         "--size", "10000000"], None, 2),
    "tau_nan": (["eval", "--manifest", "{manifest}", "--checkpoint", "{ckpt}",
                 "--threshold", "fixed", "--tau", "nan"], None, 2),
    "class_index_2": ([*GRADCAM_ARGS, "--class-index", "2"], None, 2),
    "class_index_negative": ([*GRADCAM_ARGS, "--class-index", "-1"], None, 2),
    "max_samples_negative": (["audit", "--manifest", "{manifest}", "--checkpoint", "{ckpt}",
                              "--max-samples", "-1"], None, 2),
    # an --outdir below a regular file (the payload) cannot be created
    "synth_outdir_under_file": (["synth", "--train", "1", "--dev", "1", "--test", "1",
                                 "--outdir", "{tmp}/bad.ppm/out"], b"", 3),
    "eval_outdir_under_file": (["eval", "--manifest", "{manifest}", "--checkpoint", "{ckpt}",
                                "--outdir", "{tmp}/bad.ppm/out"], b"", 3),
    "flops_grid_size_0": (["flops", "--grid-sizes", "0"], None, 2),
    # numpy's seeding refuses a negative seed with a ValueError (once exit 1)
    "synth_seed_negative": (["synth", "--train", "1", "--dev", "1", "--test", "1",
                             "--seed", "-1"], None, 2),
    "train_seed_negative": ([*TRAIN_ARGS, "--seed", "-1"], None, 2),
    # a manifest given as the payload
    "manifest_not_utf8": (BAD_MANIFEST_ARGS,
                          b"path,label,split,subject\n\xff.ppm,bonafide,test,s1\n", 3),
    "manifest_path_nul": (BAD_MANIFEST_ARGS,
                          b"path,label,split,subject\na\x00.ppm,bonafide,test,s1\n", 3),
    "manifest_field_over_limit": (BAD_MANIFEST_ARGS, b"path,label,split,subject\n"
                                  + b"a" * 200000 + b",bonafide,test,s1\n", 3),
    "config_checkpoint_nul": (["eval", "--manifest", "{manifest}", "--config", "{tmp}/bad.ppm"],
                              b"checkpoint = model\x00.ckpt\n", 2),
}


# what the error message of a case must name besides "error:"
NAMED_IN_ERROR = {"checkpoint_offset_past_the_end": ("bad.ckpt", "'stem.kernel'")}


def edit_checkpoint(raw, block, pattern, replacement):
    """Checkpoint bytes with the first match of `pattern` in its config (block
    0) or manifest (block 1) text replaced, and the checksum recomputed."""
    pos, blocks = 4, []
    for _ in range(2):
        (size,) = struct.unpack_from("<I", raw, pos)
        blocks.append(raw[pos + 4:pos + 4 + size])
        pos += 4 + size
    blocks[block] = re.sub(pattern, replacement, blocks[block], count=1)
    return resign(raw[:4] + b"".join(struct.pack("<I", len(b)) + b for b in blocks)
                  + raw[pos:-8])


def resign(body):
    """Checkpoint bytes: `body` followed by its checksum trailer."""
    return body + struct.pack("<Q", checksum64(body))


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_code(case, workspace, tmp_path, capsys):
    from gipad import cli

    argv, payload, code = BAD_INPUTS[case]
    if isinstance(payload, bytes):
        (tmp_path / "bad.ppm").write_bytes(payload)
    elif payload is not None:
        raw = (workspace["rundir"] / "model.ckpt").read_bytes()
        (tmp_path / "bad.ckpt").write_bytes(edit_checkpoint(raw, *payload))
    subs = {"tmp": tmp_path, "manifest": workspace["dataset"] / "manifest.csv",
            "ckpt": workspace["rundir"] / "model.ckpt",
            "image": next((workspace["dataset"] / "test").glob("*.ppm"))}
    argv = [a.format(**subs) for a in argv]
    if "--outdir" not in argv:
        argv += ["--outdir", str(tmp_path / "out")]
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an unknown flag
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    for part in ("error:", *NAMED_IN_ERROR.get(case, ())):
        assert part in err


# A write fault after the first chunk at each writer: (the command, beside
# --outdir, and the file under the outdir at which its write fails).
SYNTH_SMALL = ["synth", "--train", "2", "--dev", "2", "--test", "2", "--size", "16"]
EVAL_ARGS = ["eval", "--manifest", "{manifest}", "--checkpoint", "{ckpt}"]
AUDIT_ARGS = ["audit", "--manifest", "{manifest}", "--checkpoint", "{ckpt}",
              "--max-samples", "4", "--export-fields"]
WRITE_FAULTS = {
    "config_resolved": (["flops"], "config.resolved"),
    "flops_csv": (["flops"], "flops.csv"),
    "synth_manifest": (SYNTH_SMALL, "manifest.csv"),
    "synth_frame": (SYNTH_SMALL, "dev/*_00001.ppm"),
    "history_csv": (TRAIN_ARGS, "history.csv"),
    "checkpoint": (TRAIN_ARGS, "model.ckpt"),
    "scores_csv": (EVAL_ARGS, "scores.csv"),
    "metrics_json": (EVAL_ARGS, "metrics.json"),
    "audit_json": (AUDIT_ARGS, "audit.json"),
    "audit_map_t4": (AUDIT_ARGS, "mean_kernel.t4"),
    "audit_map_pgm": (AUDIT_ARGS, "mean_energy.pgm"),
    "audit_histogram": (AUDIT_ARGS, "hist_hf_lf.csv"),
    "field_t4": (AUDIT_ARGS, "field.t4"),
    "field_sidecar": (AUDIT_ARGS, "field.t4.meta"),
    "heatmap_pgm": (GRADCAM_ARGS, "heatmap.pgm"),
}


class FullDisk:
    """A file opened for writing whose disk fills up once it has written its
    first chunk."""

    def __init__(self, fh):
        self.fh = fh

    def writelines(self, chunks):
        self.fh.write(next(iter(chunks)))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("case", sorted(WRITE_FAULTS))
def test_write_fault_exit_code(case, workspace, tmp_path, monkeypatch, capsys):
    """A write fault exits 3 naming the file, leaves the file of an earlier
    run byte-identical, and leaves no temporary file."""
    from gipad import cli, errors

    argv, pattern = WRITE_FAULTS[case]
    subs = {"manifest": workspace["dataset"] / "manifest.csv",
            "ckpt": workspace["rundir"] / "model.ckpt",
            "image": next((workspace["dataset"] / "test").glob("*.ppm"))}
    outdir = tmp_path / "out"
    argv = [*(a.format(**subs) for a in argv), "--outdir", str(outdir)]
    assert cli.main(argv) == 0
    (path,) = outdir.glob(pattern)
    good, files = path.read_bytes(), sorted(outdir.rglob("*"))

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        # the temporary file of `path` is <name>.<pid>.tmp beside it
        if "w" in mode and file.rsplit(".", 2)[0] == str(path):
            return FullDisk(fh)
        return fh

    capsys.readouterr()
    monkeypatch.setattr(errors, "open", full_disk_open, raising=False)
    assert cli.main(argv) == 3
    assert f"data error: cannot write {path}: [Errno 28]" in capsys.readouterr().err
    assert path.read_bytes() == good
    assert sorted(outdir.rglob("*")) == files


class TestOneClassAudit:
    def test_describes_the_class_it_gets(self, workspace, tmp_path):
        """An audit describes the kernels of whatever rows it gets: a split
        with one class exits 0, with null effect sizes and an empty class."""
        dataset = workspace["dataset"]
        manifest = tmp_path / "bonafide.csv"
        manifest.write_text("path,label,split,subject\n" + "".join(
            f"{path},bonafide,test,s{i}\n"
            for i, path in enumerate(sorted((dataset / "test").glob("bonafide_*.ppm")))),
            encoding="utf-8")
        proc = run_cli("audit", "--manifest", str(manifest),
                       "--checkpoint", str(workspace["rundir"] / "model.ckpt"),
                       "--outdir", str(tmp_path / "a"))
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "a" / "audit.json", encoding="utf-8") as fh:
            report = json.load(fh)
        for name, effect in report["cohens_d"].items():
            assert effect is None
            assert report["per_class"][name]["attack"] == {"mean": None, "std": None, "n": 0}
            assert report["per_class"][name]["bonafide"]["n"] == 4


# Seeded random-input testing of the exit-code contract, after Miller,
# Fredriksen & So, "An empirical study of the reliability of UNIX utilities"
# (CACM 1990).
FUZZ_SEED = 2
FUZZ_CASES = 20  # per input


def mutate(raw, rng):
    """`raw` with one byte flipped, inserted or deleted, or cut short there.

    The position is drawn log-uniformly, so headers are hit about as often
    as bodies.
    """
    pos = int(len(raw) ** rng.random()) - 1
    op = rng.integers(4)
    if op == 0:
        return raw[:pos] + bytes([raw[pos] ^ 1 << int(rng.integers(8))]) + raw[pos + 1:]
    if op == 1:
        return raw[:pos] + bytes([int(rng.integers(256))]) + raw[pos:]
    if op == 2:
        return raw[:pos] + raw[pos + 1:]
    return raw[:pos]


def test_fuzzed_inputs_keep_the_exit_code_contract(workspace, tmp_path, capsys):
    """Every mutated input exits 0, 2, 3 or 4 without raising, and a corrupt
    image or checkpoint is a data error (3), never a configuration error (2)."""
    from gipad import cli

    data = tmp_path / "data"
    shutil.copytree(workspace["dataset"], data)
    ckpt = workspace["rundir"] / "model.ckpt"
    image = next((data / "test").glob("*.ppm"))
    config = f"manifest = {data / 'manifest.csv'}\ncheckpoint = {ckpt}\nthreshold = dev_eer\n"
    raw_ckpt = ckpt.read_bytes()
    with_ckpt = [["gradcam", "--checkpoint", "{path}", "--image", "{image}"]]
    # input: (its bytes, its mutation, the commands it is fed to in turn)
    inputs = {
        "image": (image.read_bytes(), mutate,
                  [["gradcam", "--checkpoint", "{ckpt}", "--image", "{path}"]]),
        "manifest": ((data / "manifest.csv").read_bytes(), mutate,
                     [["eval", "--manifest", "{path}", "--checkpoint", "{ckpt}"],
                      ["audit", "--manifest", "{path}", "--checkpoint", "{ckpt}",
                       "--max-samples", "4"]]),
        "config": (config.encode(), mutate, [["eval", "--config", "{path}"]]),
        "checkpoint": (raw_ckpt, mutate, with_ckpt),
        # a recomputed checksum lets the mutation reach the checkpoint's parsers
        "checkpoint_resigned": (raw_ckpt, lambda raw, rng: resign(mutate(raw[:-8], rng)),
                                with_ckpt),
    }
    rng = np.random.default_rng(FUZZ_SEED)
    failures = []
    for name, (raw, mutation, commands) in inputs.items():
        path = data / f"fuzz_{name}"
        for case in range(FUZZ_CASES):
            path.write_bytes(mutation(raw, rng))
            argv = [a.format(path=path, ckpt=ckpt, image=image)
                    for a in commands[case % len(commands)]]
            try:
                code = cli.main([*argv, "--outdir", str(tmp_path / "out")])
            except Exception as exc:  # a traceback is what this test looks for
                code = repr(exc)
            if code not in (0, 2, 3, 4) or (code == 2 and name not in ("manifest", "config")):
                failures.append((name, case, code))
    capsys.readouterr()
    assert not failures
