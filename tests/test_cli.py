"""End-to-end subcommand runs through the installed entry point."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gipad import metrics


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



# Inputs that once escaped as raw tracebacks (exit 1), with the documented
# exit code each must map to: 2 for configuration, 3 for data errors.
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
    "eval_batch_0": (["eval", "--manifest", "{manifest}", "--checkpoint", "{ckpt}",
                      "--eval-batch", "0"], None, 2),
    "missing_checkpoint": (["eval", "--manifest", "{manifest}",
                            "--checkpoint", "{tmp}/missing.ckpt"], None, 3),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_code(case, workspace, tmp_path, capsys):
    from gipad import cli

    argv, image, code = BAD_INPUTS[case]
    if image is not None:
        (tmp_path / "bad.ppm").write_bytes(image)
    subs = {"tmp": tmp_path, "manifest": workspace["dataset"] / "manifest.csv",
            "ckpt": workspace["rundir"] / "model.ckpt"}
    argv = [a.format(**subs) for a in argv] + ["--outdir", str(tmp_path / "out")]
    assert cli.main(argv) == code
    assert "error:" in capsys.readouterr().err
