"""Training loop: smoothed binary cross-entropy on the live-class
probability, Adam updates, early stopping on raw per-epoch dev loss.

The two-logit head is reduced to a single probability p = softmax(s)[live];
binary cross-entropy with smoothed targets on p is then identical to
two-class cross-entropy with label smoothing, so both views of the
objective hold at once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .data import load_frame_tensor, split_rows, write_csv
from .errors import ConfigError, InternalError
from .net import Model, sample_activation_bytes, save_checkpoint
from .tensor import derived_rng

PROB_CLAMP = 1e-7
# Each training image is mirrored left-right with this probability per epoch.
FLIP_PROB = 0.5
# Bytes of the largest activation of one scoring batch (see score_batch_size):
# 32 desk samples, or one full-width 256x256 sample, in float64. The value is
# set by a sweep of 1 to 16 MiB on eval_audit (BENCH_14.json).
SCORE_BYTES = 4 * 1024 * 1024


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    dev_loss: list = field(default_factory=list)
    dev_acc: list = field(default_factory=list)
    best_epoch: int = 0  # 1-based
    stop_reason: str = ""

    def rows(self):
        for i, (tl, dl, da) in enumerate(zip(self.train_loss, self.dev_loss, self.dev_acc), 1):
            yield i, tl, dl, da


def write_history_csv(path, history: TrainHistory) -> None:
    write_csv(path, ["epoch", "train_loss", "dev_loss", "dev_acc"], history.rows())


def smooth_labels(y: np.ndarray, eps: float) -> np.ndarray:
    """Map hard {0,1} labels to y*(1-eps) + eps/2."""
    return y * (1.0 - eps) + eps / 2.0


def bce_loss(p: np.ndarray, y: np.ndarray, eps: float = 0.0):
    """Binary cross-entropy with optional label smoothing.

    p is clamped to [1e-7, 1-1e-7] before the logs; the returned gradient is
    dL/dp of the clamped loss (zero where the clamp is active).

    Returns (loss, dL_dp).
    """
    n = p.shape[0]
    y_s = smooth_labels(np.asarray(y, dtype=np.float64), eps)
    inside = (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = -np.mean(y_s * np.log(pc) + (1.0 - y_s) * np.log(1.0 - pc))
    grad = -(y_s / pc - (1.0 - y_s) / (1.0 - pc)) / n
    grad = np.where(inside, grad, 0.0)
    return loss, grad


def live_probability(logits: np.ndarray) -> np.ndarray:
    """softmax(logits)[live class]; class index 1 is bonafide."""
    d = logits[:, 1] - logits[:, 0]
    out = np.empty_like(d, dtype=np.float64)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ed = np.exp(d[~pos])
    out[~pos] = ed / (1.0 + ed)
    return out


def loss_and_logit_grad(logits: np.ndarray, y: np.ndarray, eps: float):
    """Smoothed BCE on the live probability plus its gradient w.r.t. logits."""
    p = live_probability(logits)
    loss, dl_dp = bce_loss(p, y, eps)
    dp = dl_dp * p * (1.0 - p)
    grad = np.stack([-dp, dp], axis=1)
    return loss, grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def adam_init(params) -> dict:
    """Fresh first/second-moment state for a {name: array} mapping."""
    return {"t": 0,
            "m": {k: np.zeros_like(v) for k, v in params.items()},
            "v": {k: np.zeros_like(v) for k, v in params.items()}}


def adam_step(params: dict, grads: dict, state: dict, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place."""
    state["t"] += 1
    t = state["t"]
    b1, b2 = cfg.beta1, cfg.beta2
    for key, theta in params.items():
        g = grads[key]
        m = state["m"][key]
        v = state["v"][key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        theta -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


# ---------------------------------------------------------------------------
# Early stopping
# ---------------------------------------------------------------------------

def early_stopping_step(best, best_epoch, epoch, loss, patience: int):
    """The stopping rule for one epoch: returns (best, best_epoch, stop), where
    stop means the dev loss has not strictly improved for `patience` epochs."""
    if loss < best:
        best, best_epoch = loss, epoch
    return best, best_epoch, epoch - best_epoch >= patience


def run_early_stopping(dev_losses, patience: int, max_epochs: int):
    """Replay the stopping rule over a dev-loss trace; returns (epochs_run,
    best_epoch, stop_reason), both epoch numbers 1-based."""
    best, best_epoch = np.inf, 0
    for epoch, loss in enumerate(dev_losses[:max_epochs], 1):
        best, best_epoch, stop = early_stopping_step(best, best_epoch, epoch, loss, patience)
        if stop:
            return epoch, best_epoch, "early_stop"
    return min(len(dev_losses), max_epochs), best_epoch, "max_epochs"


# ---------------------------------------------------------------------------
# Batching and evaluation
# ---------------------------------------------------------------------------

def load_split_tensors(root, rows, size: int, dtype=np.float64):
    """Read and preprocess one batch of rows; returns (x, y), x (n, 3, size, size)."""
    x = np.stack([load_frame_tensor(root, row, size) for row in rows], dtype=dtype)
    y = np.array([row.y for row in rows], dtype=np.float64)
    return x, y


def score_batch_size(model: Model, dtype=np.float64) -> int:
    """Samples per scoring forward: as many as keep the batch's largest
    activation within SCORE_BYTES at `dtype`, and at least one."""
    per_sample = sample_activation_bytes(model, model.cfg.input_size, np.dtype(dtype).itemsize)
    return max(1, SCORE_BYTES // per_sample)


def score_batches(model: Model, root, rows, dtype=np.float64):
    """Live-class probabilities in infer mode and labels of the non-empty
    `rows`, read from disk and scored score_batch_size(model, dtype) rows at
    a time: 32 for the desk model in float64, one for the full-width model at
    256x256. Memory then holds one batch of frames and activations whatever
    the number of rows. Returns (p, y)."""
    batch = score_batch_size(model, dtype)
    scores, labels = [], []
    for start in range(0, len(rows), batch):
        x, y = load_split_tensors(root, rows[start:start + batch], model.cfg.input_size, dtype)
        scores.append(live_probability(model.forward(x, train=False, record=False)))
        labels.append(y)
    return np.concatenate(scores), np.concatenate(labels)


def train(model: Model, rows, cfg: TrainConfig, data_root="."):
    """Fit `model` on the manifest's train split, early-stopping on dev loss;
    each step and score_batches read one batch of frames from disk at a time.

    Returns (history, best_params) where best_params maps parameter and
    running-stat names to copies taken at the best-dev-loss epoch; the model
    is left holding those best values.
    """
    train_split = split_rows(rows, "train")
    dev_split = split_rows(rows, "dev")
    if not train_split or not dev_split:
        raise ConfigError("training requires non-empty train and dev splits")
    dtype = np.float64 if cfg.precision == "double" else np.float32
    if cfg.precision == "single":
        model.astype(dtype)

    rng = derived_rng(cfg.seed, "train")
    params = dict(model.parameters())
    opt = adam_init(params)
    history = TrainHistory()
    best_loss = np.inf
    best_params = None

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_split))
        flips = rng.random(len(train_split)) < FLIP_PROB
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = load_split_tensors(data_root, [train_split[i] for i in idx],
                                        model.cfg.input_size, dtype)
            fb = flips[idx]
            xb[fb] = xb[fb][:, :, :, ::-1]
            logits = model.forward(xb, train=True)
            loss, grad_logits = loss_and_logit_grad(logits, yb, cfg.label_smoothing)
            if not np.isfinite(loss):
                raise InternalError(f"non-finite training loss at epoch {epoch}")
            model.backward(grad_logits.astype(dtype))
            adam_step(params, dict(model.gradients()), opt, cfg)
            epoch_loss += loss * len(idx)
        epoch_loss /= len(train_split)

        p_dev, y_dev = score_batches(model, data_root, dev_split, dtype)
        dev_loss, _ = bce_loss(p_dev, y_dev, cfg.label_smoothing)
        dev_acc = float(np.mean((p_dev >= 0.5) == (y_dev == 1.0)))
        history.train_loss.append(float(epoch_loss))
        history.dev_loss.append(float(dev_loss))
        history.dev_acc.append(dev_acc)

        best_loss, history.best_epoch, stop = early_stopping_step(
            best_loss, history.best_epoch, epoch, dev_loss, cfg.patience)
        if history.best_epoch == epoch:
            best_params = {name: arr.copy() for name, arr in model.parameters()}
            best_params.update({name: arr.copy() for name, arr in model.named_state()})
        if stop:
            history.stop_reason = "early_stop"
            break
    else:
        history.stop_reason = "max_epochs"

    if best_params is not None:
        restore = dict(model.parameters())
        restore.update(dict(model.named_state()))
        for name, arr in restore.items():
            arr[...] = best_params[name]
    return history, best_params


def train_and_checkpoint(model, rows, cfg, data_root, outdir):
    """Run train() and write history.csv plus the best checkpoint."""
    history, _ = train(model, rows, cfg, data_root)
    write_history_csv(os.path.join(outdir, "history.csv"), history)
    save_checkpoint(os.path.join(outdir, "model.ckpt"), model)
    return history
