"""The four benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the run seed in `setup`, then the
benchmark calls `op` repeatedly and times each call. `check` compares the
output of every operation with golden values stored in `golden/`.

Every input comes from the variant `seed % N_VARIANTS`, so the same seed
always gives the same inputs and the golden files cover every seed. See
README.md for why each workload exists and what it should move.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
N_VARIANTS = 8

# Desk-scale model and data (README "End-to-end example"): 64x64 patches,
# width 0.25, batch 32.
DESK_SIZE = 64
DESK_WIDTH = 0.25
# One training operation is `train.train` on this many images for a fixed
# number of epochs. Each step has the desk shapes; the split is smaller than
# the desk's 512 so that a run holds several operations.
TRAIN_IMAGES = 96
DEV_IMAGES = 32
TRAIN_EPOCHS = 2

# Inference requests cycle through a pool of non-square frames.
FRAME_SHAPES = ((240, 320), (320, 240), (300, 400), (360, 480))
FRAMES_PER_SHAPE = 4
# Tail latency percentiles, each reported once a run has ten requests beyond it.
TAIL_PERCENTILES = (80, 90)
TAIL_BEYOND = 10

# Evaluation over a test split larger than the desk's 128.
EVAL_TEST = 192
EVAL_DEV = 64
AUDIT_SAMPLES = 96

# A freshly built model has identity batch norms and identity generated
# kernels (the expand layer starts at zero). The set-up of the inference and
# evaluation workloads moves them by small seeded amounts, as training would,
# so that the generated kernels vary with position and batch-norm folding is
# not exact by accident. Shapes, and so the cost, are unchanged. Activations
# are larger at full width, so its expand weights are smaller.
DESK_EXPAND_SCALE = 0.02
FULL_EXPAND_SCALE = 0.002
BN_SCALE = 0.05


def tolerance(dtype):
    """Relative tolerance for golden comparisons: half the dtype's digits."""
    return math.sqrt(np.finfo(dtype).eps)


def close(a, b, rtol):
    """Recursive comparison of JSON-like values; floats within a relative
    tolerance, so that tiny probabilities are checked as closely as others."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if isinstance(a, int) and isinstance(b, int):
            return a == b
        return math.isfinite(a) and math.isfinite(b) and math.isclose(a, b, rel_tol=rtol)
    return False


def load_golden(name):
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def trained_like(model, rng, expand_scale):
    """Seeded small moves of batch-norm statistics and generator weights."""
    for name, arr in model.parameters():
        if name.endswith(".expand_w"):
            arr[...] = rng.normal(0.0, expand_scale, arr.shape)
        elif name.endswith(".gamma"):
            arr *= 1.0 + rng.normal(0.0, BN_SCALE, arr.shape)
        elif name.endswith(".beta"):
            arr += rng.normal(0.0, BN_SCALE, arr.shape)
    for name, arr in model.named_state():
        if name.endswith(".running_mean"):
            arr += rng.normal(0.0, BN_SCALE, arr.shape)
        else:
            arr *= np.exp(rng.normal(0.0, BN_SCALE, arr.shape))


class Workload:
    name = ""
    dtype = np.float64
    items_per_op = 1
    # whether a traced run marks each operation as a benchmark request span
    traced_as_request = False

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.variant = seed % N_VARIANTS
        golden = load_golden(self.name)
        self.golden = None if golden is None else golden["variants"].get(str(self.variant))

    def subdir(self, name):
        path = os.path.join(self.workdir, name)
        os.makedirs(path, exist_ok=True)
        return path

    def setup(self):
        raise NotImplementedError

    def prepare(self, i):
        """Untimed work before operation i."""

    def op(self, i):
        raise NotImplementedError

    def observed(self, i, out):
        """JSON-like output of operation i, compared with the golden value."""
        raise NotImplementedError

    def check(self, i, out):
        if self.golden is None:
            return False, "no golden value for this variant"
        got = self.observed(i, out)
        want = self.expected(i)
        rtol = tolerance(self.dtype)
        if close(got, want, rtol):
            return True, ""
        return False, f"output {got!r} differs from golden {want!r} (rtol {rtol:.1e})"

    def expected(self, i):
        return self.golden

    def info(self, durations, outputs):
        """Figures of this workload beyond the end-to-end metrics."""
        return {}

    def record(self):
        """Golden value of this variant."""
        self.prepare(0)
        return self.observed(0, self.op(0))


class TrainWorkload(Workload):
    """`train.train` on desk-shaped data for a fixed number of epochs."""
    placement = "end"
    precision = "double"
    items_per_op = TRAIN_IMAGES * TRAIN_EPOCHS

    def setup(self):
        from gipad.data import SynthSpec, generate_synth
        from gipad.net import ModelConfig, build_model
        from gipad.tensor import make_rng
        from gipad.train import TrainConfig

        self.data_dir = self.subdir("data")
        spec = SynthSpec(seed=self.variant, train=TRAIN_IMAGES, dev=DEV_IMAGES, test=1,
                         size=DESK_SIZE)
        self.rows = generate_synth(spec, self.data_dir)
        cfg = ModelConfig(placement=self.placement, width_multiplier=DESK_WIDTH,
                          input_size=DESK_SIZE)
        self.model = build_model(cfg, make_rng(self.variant))
        self.initial = {name: arr.copy() for name, arr in self._arrays()}
        # patience above the epoch count: early stopping never ends a run
        self.cfg = TrainConfig(batch_size=32, max_epochs=TRAIN_EPOCHS,
                               patience=TRAIN_EPOCHS + 1, seed=self.variant,
                               precision=self.precision)

    def _arrays(self):
        yield from self.model.parameters()
        yield from self.model.named_state()

    def prepare(self, i):
        for name, arr in self._arrays():
            arr[...] = self.initial[name]

    def op(self, i):
        from gipad.train import train

        history, _ = train(self.model, self.rows, self.cfg, self.data_dir)
        return history

    def observed(self, i, history):
        return {"train_loss": history.train_loss, "dev_loss": history.dev_loss}

    def check(self, i, history):
        losses = history.train_loss + history.dev_loss
        if len(history.dev_loss) != TRAIN_EPOCHS or not all(map(math.isfinite, losses)):
            return False, f"expected {TRAIN_EPOCHS} finite epochs, got {losses}"
        return super().check(i, history)


class TrainDesk(TrainWorkload):
    name = "train_desk"


class TrainGiSingle(TrainWorkload):
    name = "train_gi_single"
    placement = "both"
    precision = "single"
    dtype = np.float32


class Infer256(Workload):
    """One frame per request: preprocess, forward, live probability."""
    name = "infer_256"
    traced_as_request = True

    def setup(self):
        from gipad.data import synth_patch
        from gipad.net import ModelConfig, build_model, load_checkpoint, save_checkpoint
        from gipad.tensor import derived_rng, make_rng

        model_dir = self.subdir("model")
        model = build_model(ModelConfig(), make_rng(self.variant))
        trained_like(model, derived_rng(self.variant, "trained"), FULL_EXPAND_SCALE)
        path = os.path.join(model_dir, "model.ckpt")
        save_checkpoint(path, model)
        self.model = load_checkpoint(path)
        shapes = [s for s in FRAME_SHAPES for _ in range(FRAMES_PER_SHAPE)]
        order = derived_rng(self.variant, "frames").permutation(len(shapes))
        self.frames = []
        for index in order:
            h, w = shapes[index]
            patch, _ = synth_patch(self.variant, "test", int(index), max(h, w))
            self.frames.append(patch[:h, :w])

    def op(self, i):
        from gipad.data import preprocess
        from gipad.train import live_probability

        x = preprocess(self.frames[i % len(self.frames)], self.model.cfg.input_size)[None]
        logits = self.model.forward(x, train=False, record=False)
        return float(live_probability(logits)[0])

    def observed(self, i, score):
        return score

    def expected(self, i):
        return self.golden[i % len(self.golden)]

    def record(self):
        return [self.op(i) for i in range(len(self.frames))]

    def info(self, durations, outputs):
        ms = np.asarray(durations) * 1e3
        return {f"op_ms_p{q}": float(np.percentile(ms, q)) for q in TAIL_PERCENTILES
                if len(ms) * (100 - q) / 100 >= TAIL_BEYOND}


class EvalAudit(Workload):
    """`gipad eval` then `gipad audit` on a desk-width checkpoint."""
    name = "eval_audit"
    items_per_op = EVAL_TEST + EVAL_DEV + AUDIT_SAMPLES

    def setup(self):
        from gipad.data import SynthSpec, generate_synth
        from gipad.net import ModelConfig, build_model, save_checkpoint
        from gipad.tensor import derived_rng, make_rng

        data_dir = self.subdir("data")
        spec = SynthSpec(seed=self.variant, train=1, dev=EVAL_DEV, test=EVAL_TEST,
                         size=DESK_SIZE)
        generate_synth(spec, data_dir)
        self.manifest = os.path.join(data_dir, "manifest.csv")
        cfg = ModelConfig(width_multiplier=DESK_WIDTH, input_size=DESK_SIZE)
        model = build_model(cfg, make_rng(self.variant))
        trained_like(model, derived_rng(self.variant, "trained"), DESK_EXPAND_SCALE)
        self.checkpoint = os.path.join(data_dir, "model.ckpt")
        save_checkpoint(self.checkpoint, model)
        self.eval_dir = os.path.join(self.workdir, "eval")
        self.audit_dir = os.path.join(self.workdir, "audit")

    def prepare(self, i):
        for path in (self.eval_dir, self.audit_dir):
            shutil.rmtree(path, ignore_errors=True)

    def op(self, i):
        import time

        from gipad import cli

        shared = ["--manifest", self.manifest, "--checkpoint", self.checkpoint]
        t0 = time.perf_counter()
        rc_eval = cli.main(["eval", *shared, "--outdir", self.eval_dir])
        t1 = time.perf_counter()
        rc_audit = cli.main(["audit", *shared, "--max-samples", str(AUDIT_SAMPLES),
                             "--outdir", self.audit_dir])
        t2 = time.perf_counter()
        return {"rc": [rc_eval, rc_audit], "eval_s": t1 - t0, "audit_s": t2 - t1}

    def observed(self, i, out):
        result = {"rc": out["rc"]}
        for key, path in (("metrics", os.path.join(self.eval_dir, "metrics.json")),
                          ("audit", os.path.join(self.audit_dir, "audit.json"))):
            with open(path, encoding="utf-8") as fh:
                result[key] = json.load(fh)
        return result

    def check(self, i, out):
        if out["rc"] != [0, 0]:
            return False, f"exit codes {out['rc']}"
        return super().check(i, out)

    def info(self, durations, outputs):
        done = [out for out in outputs if out is not None]
        if not done:
            return {}
        return {
            "eval_images_per_s": (EVAL_TEST + EVAL_DEV) * len(done) / sum(
                out["eval_s"] for out in done),
            "audit_samples_per_s": AUDIT_SAMPLES * len(done) / sum(
                out["audit_s"] for out in done),
        }


WORKLOADS = {cls.name: cls for cls in (TrainDesk, TrainGiSingle, Infer256, EvalAudit)}
