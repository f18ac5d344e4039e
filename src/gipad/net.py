"""Configurable backbone: inverted-residual stages in the MobileNetV3-Large
layout, with a group-involution block inserted at the stem and/or just
before global average pooling, followed by a two-logit linear head.

Layers hold their parameters in a `params` dict with a parallel `grads`
dict; non-learnable state (batch-norm running statistics) lives in `state`.
Backward passes are hand-derived and run in reverse layer order, so a model
is trained without any autograd machinery.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import ops
from .errors import ConfigError, DataError
from .tensor import (
    activation,
    activation_grad,
    batch_norm_backward,
    batch_norm_forward,
    checksum64,
    global_avg_pool,
    global_avg_pool_backward,
    make_rng,
    pointwise_conv,
    pointwise_conv_backward,
    tensor4_from_bytes,
    tensor4_to_bytes,
)

# MobileNetV3-Large stage table: kernel, expansion width, output width,
# squeeze-excitation, nonlinearity, stride.
STAGES = (
    (3, 16, 16, False, "relu", 1),
    (3, 64, 24, False, "relu", 2),
    (3, 72, 24, False, "relu", 1),
    (5, 72, 40, True, "relu", 2),
    (5, 120, 40, True, "relu", 1),
    (5, 120, 40, True, "relu", 1),
    (3, 240, 80, False, "hardswish", 2),
    (3, 200, 80, False, "hardswish", 1),
    (3, 184, 80, False, "hardswish", 1),
    (3, 184, 80, False, "hardswish", 1),
    (3, 480, 112, True, "hardswish", 1),
    (3, 672, 112, True, "hardswish", 1),
    (5, 672, 160, True, "hardswish", 2),
    (5, 960, 160, True, "hardswish", 1),
    (5, 960, 160, True, "hardswish", 1),
)
STEM_WIDTH = 16
FINAL_WIDTH = 960
SE_RATIO = 4

PLACEMENTS = ("begin", "end", "both", "none")

CHECKPOINT_MAGIC = b"GICK"


@dataclass
class ModelConfig:
    groups: int = 120
    reduce: int = 4
    gi_kernel: int = 5
    placement: str = "end"
    width_multiplier: float = 1.0
    input_size: int = 256
    num_classes: int = 2
    label_smoothing: float = 0.05

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if self.gi_kernel % 2 == 0 or self.gi_kernel < 1:
            raise ConfigError(f"gi_kernel must be odd and positive, got {self.gi_kernel}")
        if self.input_size < 32:
            raise ConfigError(f"input_size must be >= 32, got {self.input_size}")


def make_divisible(v: float, divisor: int = 8) -> int:
    """Round channel widths to a multiple of `divisor`, never below 90% of v."""
    new_v = max(divisor, int(v + divisor / 2) // divisor * divisor)
    if new_v < 0.9 * v:
        new_v += divisor
    return new_v


def kaiming_uniform(rng, shape, fan_in, dtype=np.float64):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# Leaf layers
# ---------------------------------------------------------------------------

class Layer:
    """Leaf layer: params/grads/state dicts plus forward/backward."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.state: dict[str, np.ndarray] = {}
        self._ctx = None

    def zero_grads(self):
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _accumulate(self, key, value):
        if key not in self.grads:
            self.grads[key] = np.zeros_like(self.params[key])
        self.grads[key] += value

    def forward(self, x, train=False, record=None):
        raise NotImplementedError

    def backward(self, grad_y):
        raise NotImplementedError


class Conv(Layer):
    """Grouped k x k convolution with "same"-style zero padding, no bias."""

    def __init__(self, c_in, c_out, k, stride=1, groups=1, rng=None):
        super().__init__()
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride, self.groups = stride, groups
        fan_in = (c_in // groups) * k * k
        self.params["kernel"] = kaiming_uniform(rng, (c_out, c_in // groups, k, k), fan_in)

    def forward(self, x, train=False, record=None):
        record = train if record is None else record
        w = ops.ConvWeights(self.params["kernel"], self.groups)
        y, ctx = ops.conv2d(x, w, stride=self.stride, pad=self.k // 2)
        self._ctx = ctx if record else None
        return y

    def backward(self, grad_y):
        grad_x, grad_k, _ = ops.conv2d_backward(grad_y, self._ctx)
        self._accumulate("kernel", grad_k)
        return grad_x


class Pointwise(Layer):
    """1x1 convolution; bias optional (off inside BN-normalized blocks)."""

    def __init__(self, c_in, c_out, bias=False, rng=None):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.params["w"] = kaiming_uniform(rng, (c_out, c_in), c_in)
        if bias:
            self.params["b"] = np.zeros(c_out)

    def forward(self, x, train=False, record=None):
        record = train if record is None else record
        self._ctx = x if record else None
        return pointwise_conv(x, self.params["w"], self.params.get("b"))

    def backward(self, grad_y):
        grad_x, grad_w, grad_b = pointwise_conv_backward(grad_y, self._ctx, self.params["w"])
        self._accumulate("w", grad_w)
        if "b" in self.params:
            self._accumulate("b", grad_b)
        return grad_x


class BatchNorm(Layer):
    def __init__(self, c):
        super().__init__()
        self.params["gamma"] = np.ones(c)
        self.params["beta"] = np.zeros(c)
        self.state["running_mean"] = np.zeros(c)
        self.state["running_var"] = np.ones(c)

    def forward(self, x, train=False, record=None):
        y, ctx, new_mean, new_var = batch_norm_forward(
            x, self.params["gamma"], self.params["beta"],
            self.state["running_mean"], self.state["running_var"], train, record=record)
        if train:
            self.state["running_mean"] = new_mean
            self.state["running_var"] = new_var
        self._ctx = ctx
        return y

    def backward(self, grad_y):
        grad_x, grad_gamma, grad_beta = batch_norm_backward(grad_y, self._ctx)
        self._accumulate("gamma", grad_gamma)
        self._accumulate("beta", grad_beta)
        return grad_x


class Act(Layer):
    def __init__(self, kind):
        super().__init__()
        self.kind = kind

    def forward(self, x, train=False, record=None):
        record = train if record is None else record
        self._ctx = x if record else None
        return activation(x, self.kind)

    def backward(self, grad_y):
        return grad_y * activation_grad(self._ctx, self.kind)


class SqueezeExcite(Layer):
    """Channel gating: pooled descriptor -> bottleneck MLP -> hardsigmoid scale."""

    def __init__(self, c, rng=None):
        super().__init__()
        mid = make_divisible(c // SE_RATIO)
        self.c, self.mid = c, mid
        self.params["w1"] = kaiming_uniform(rng, (mid, c), c)
        self.params["b1"] = np.zeros(mid)
        self.params["w2"] = kaiming_uniform(rng, (c, mid), mid)
        self.params["b2"] = np.zeros(c)

    def forward(self, x, train=False, record=None):
        record = train if record is None else record
        z = x.mean(axis=(2, 3))
        h1 = z @ self.params["w1"].T + self.params["b1"]
        a1 = activation(h1, "relu")
        h2 = a1 @ self.params["w2"].T + self.params["b2"]
        gate = activation(h2, "hardsigmoid")
        self._ctx = (x, z, h1, a1, h2, gate) if record else None
        return x * gate[:, :, None, None]

    def backward(self, grad_y):
        x, z, h1, a1, h2, gate = self._ctx
        hw = x.shape[2] * x.shape[3]
        grad_gate = (grad_y * x).sum(axis=(2, 3))
        grad_x = grad_y * gate[:, :, None, None]
        grad_h2 = grad_gate * activation_grad(h2, "hardsigmoid")
        self._accumulate("w2", grad_h2.T @ a1)
        self._accumulate("b2", grad_h2.sum(axis=0))
        grad_a1 = grad_h2 @ self.params["w2"]
        grad_h1 = grad_a1 * activation_grad(h1, "relu")
        self._accumulate("w1", grad_h1.T @ z)
        self._accumulate("b1", grad_h1.sum(axis=0))
        grad_z = grad_h1 @ self.params["w1"]
        grad_x += grad_z[:, :, None, None] / hw
        return grad_x


class GroupInvolution(Layer):
    """Kernel generator plus content-adaptive depthwise application.

    The expand layer starts at zero with a center-tap bias, so the freshly
    built operator is the identity; training moves it away from the delta.
    """

    def __init__(self, c, k, groups, reduce, rng=None):
        super().__init__()
        if c % groups != 0:
            raise ConfigError(f"channels {c} not divisible by groups {groups}")
        if c % reduce != 0:
            raise ConfigError(f"channels {c} not divisible by reduce ratio {reduce}")
        self.c, self.k, self.groups, self.reduce = c, k, groups, reduce
        squeezed = c // reduce
        self.params["squeeze_w"] = kaiming_uniform(rng, (squeezed, c), c)
        self.params["squeeze_b"] = np.zeros(squeezed)
        self.params["gamma"] = np.ones(squeezed)
        self.params["beta"] = np.zeros(squeezed)
        self.params["expand_w"] = np.zeros((groups * k * k, squeezed))
        delta = np.zeros(k * k)
        delta[(k // 2) * k + k // 2] = 1.0
        self.params["expand_b"] = np.tile(delta, groups)
        self.state["running_mean"] = np.zeros(squeezed)
        self.state["running_var"] = np.ones(squeezed)
        self.last_field = None

    def _generator_params(self):
        return ops.GeneratorParams(
            squeeze_w=self.params["squeeze_w"], squeeze_b=self.params["squeeze_b"],
            gamma=self.params["gamma"], beta=self.params["beta"],
            running_mean=self.state["running_mean"], running_var=self.state["running_var"],
            expand_w=self.params["expand_w"], expand_b=self.params["expand_b"],
            k=self.k, groups=self.groups, reduce=self.reduce)

    def forward(self, x, train=False, record=None, capture=False):
        record = train if record is None else record
        gen = self._generator_params()
        field, gen_ctx, new_mean, new_var = ops.generate_kernels(x, gen, train, record=record)
        if train:
            self.state["running_mean"] = new_mean
            self.state["running_var"] = new_var
        if capture:
            self.last_field = field
        gmap = ops.GroupMap(self.c, self.groups)
        y, gi_ctx = ops.group_involution_forward(x, field, gmap)
        self._ctx = (gen_ctx, gi_ctx) if record else None
        return y

    def backward(self, grad_y):
        gen_ctx, gi_ctx = self._ctx
        grad_x, grad_field = ops.gi_backward(grad_y, gi_ctx)
        grad_x_gen, grads = ops.generate_kernels_backward(grad_field, gen_ctx)
        # the input feeds both the windows and the generator
        grad_x += grad_x_gen
        for key, val in grads.items():
            self._accumulate(key, val)
        return grad_x


class GlobalPool(Layer):
    def forward(self, x, train=False, record=None):
        self._spatial = x.shape[2:]
        return global_avg_pool(x)

    def backward(self, grad_y):
        return global_avg_pool_backward(grad_y, self._spatial)


class Linear(Layer):
    """Classification head on pooled (n, c, 1, 1) features."""

    def __init__(self, c_in, c_out, rng=None):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.params["w"] = kaiming_uniform(rng, (c_out, c_in), c_in)
        self.params["b"] = np.zeros(c_out)

    def forward(self, x, train=False, record=None):
        record = train if record is None else record
        z = x.reshape(x.shape[0], -1)
        self._ctx = z if record else None
        return z @ self.params["w"].T + self.params["b"]

    def backward(self, grad_y):
        self._accumulate("w", grad_y.T @ self._ctx)
        self._accumulate("b", grad_y.sum(axis=0))
        grad_z = grad_y @ self.params["w"]
        return grad_z[:, :, None, None]


class Block:
    """Inverted residual: expand 1x1 -> depthwise -> (SE) -> project 1x1."""

    def __init__(self, c_in, c_exp, c_out, k, stride, use_se, act, rng):
        self.residual = stride == 1 and c_in == c_out
        seq = []
        if c_exp != c_in:
            seq += [("expand", Pointwise(c_in, c_exp, rng=rng)),
                    ("expand_bn", BatchNorm(c_exp)),
                    ("expand_act", Act(act))]
        seq += [("depth", Conv(c_exp, c_exp, k, stride=stride, groups=c_exp, rng=rng)),
                ("depth_bn", BatchNorm(c_exp)),
                ("depth_act", Act(act))]
        if use_se:
            seq += [("se", SqueezeExcite(c_exp, rng=rng))]
        seq += [("project", Pointwise(c_exp, c_out, rng=rng)),
                ("project_bn", BatchNorm(c_out))]
        self.seq = seq

    def sublayers(self):
        return self.seq

    def forward(self, x, train=False, record=None):
        y = x
        for _, layer in self.seq:
            y = layer.forward(y, train=train, record=record)
        return y + x if self.residual else y

    def backward(self, grad_y):
        g = grad_y
        for _, layer in reversed(self.seq):
            g = layer.backward(g)
        return g + grad_y if self.residual else g


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class Model:
    """Ordered layer list ending in global pooling and a linear head."""

    def __init__(self, cfg: ModelConfig | None, layers, seed=0):
        self.cfg = cfg
        self.layers = list(layers)
        self.seed = seed
        self.begin_gi = None
        self.end_gi = None
        self.last_pre_gap = None
        for name, layer in self.layers:
            if isinstance(layer, GroupInvolution):
                if name.startswith("gi_begin"):
                    self.begin_gi = layer
                else:
                    self.end_gi = layer

    def named_leaves(self):
        for name, layer in self.layers:
            if isinstance(layer, Block):
                for sub, leaf in layer.sublayers():
                    yield f"{name}.{sub}", leaf
            else:
                yield name, layer

    def parameters(self):
        for name, leaf in self.named_leaves():
            for key, arr in leaf.params.items():
                yield f"{name}.{key}", arr

    def named_state(self):
        for name, leaf in self.named_leaves():
            for key, arr in leaf.state.items():
                yield f"{name}.{key}", arr

    def zero_grads(self):
        for _, leaf in self.named_leaves():
            leaf.zero_grads()

    def gradients(self):
        for name, leaf in self.named_leaves():
            for key, arr in leaf.grads.items():
                yield f"{name}.{key}", arr

    def astype(self, dtype):
        """Cast every parameter, gradient, and running statistic in place;
        single precision is permitted for training only."""
        for _, leaf in self.named_leaves():
            leaf.params = {k: v.astype(dtype) for k, v in leaf.params.items()}
            leaf.grads = {k: v.astype(dtype) for k, v in leaf.grads.items()}
            leaf.state = {k: v.astype(dtype) for k, v in leaf.state.items()}
        return self

    def forward(self, x, train=False, record=None, capture_fields=False):
        if self.cfg is not None and x.shape[2:] != (self.cfg.input_size, self.cfg.input_size):
            raise ConfigError(
                f"model built for {self.cfg.input_size}x{self.cfg.input_size} input, "
                f"got {x.shape[2]}x{x.shape[3]}")
        y = x
        for _, layer in self.layers:
            if isinstance(layer, GlobalPool):
                self.last_pre_gap = y
            if isinstance(layer, GroupInvolution):
                y = layer.forward(y, train=train, record=record, capture=capture_fields)
            else:
                y = layer.forward(y, train=train, record=record)
        return y

    def backward(self, grad_logits):
        g = grad_logits
        for _, layer in reversed(self.layers):
            g = layer.backward(g)
        return g


def build_model(cfg: ModelConfig, rng=None) -> Model:
    """Construct the backbone for `cfg`; raises ConfigError on divisibility
    violations, naming the offending channel/group pair."""
    seed = 0
    if rng is None:
        rng = make_rng(seed)
    elif isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = make_rng(seed)
    width = cfg.width_multiplier
    stem_ch = make_divisible(STEM_WIDTH * width)
    final_ch = make_divisible(FINAL_WIDTH * width)
    layers = [
        ("stem", Conv(3, stem_ch, 3, stride=2, rng=rng)),
        ("stem_bn", BatchNorm(stem_ch)),
        ("stem_act", Act("hardswish")),
    ]
    if cfg.placement in ("begin", "both"):
        g_begin = min(cfg.groups, stem_ch)
        if stem_ch % g_begin != 0:
            raise ConfigError(
                f"stem channels {stem_ch} not divisible by begin groups {g_begin}")
        layers += [
            ("gi_begin", GroupInvolution(stem_ch, cfg.gi_kernel, g_begin, cfg.reduce, rng=rng)),
            ("gi_begin_bn", BatchNorm(stem_ch)),
            ("gi_begin_act", Act("hardswish")),
        ]
    ch = stem_ch
    for i, (k, exp, out, use_se, act, stride) in enumerate(STAGES):
        c_exp = make_divisible(exp * width)
        c_out = make_divisible(out * width)
        layers.append((f"block{i}", Block(ch, c_exp, c_out, k, stride, use_se, act, rng)))
        ch = c_out
    layers += [
        ("final", Pointwise(ch, final_ch, rng=rng)),
        ("final_bn", BatchNorm(final_ch)),
        ("final_act", Act("hardswish")),
    ]
    if cfg.placement in ("end", "both"):
        if final_ch % cfg.groups != 0:
            raise ConfigError(
                f"final channels {final_ch} not divisible by groups {cfg.groups}")
        layers += [
            ("gi_end", GroupInvolution(final_ch, cfg.gi_kernel, cfg.groups, cfg.reduce, rng=rng)),
            ("gi_end_bn", BatchNorm(final_ch)),
            ("gi_end_act", Act("hardswish")),
        ]
    layers += [
        ("pool", GlobalPool()),
        ("head", Linear(final_ch, cfg.num_classes, rng=rng)),
    ]
    return Model(cfg, layers, seed=seed)


def param_count(model: Model) -> int:
    """Number of learnable scalars (running statistics excluded)."""
    return sum(arr.size for _, arr in model.parameters())


def gi_block_params(c: int, reduce: int, groups: int, k: int) -> int:
    """Learnable scalars added by one adaptive block at width c: the kernel
    generator (squeeze + BN + expand) plus the batch norm that follows the
    spatial op."""
    squeezed = c // reduce
    generator = (squeezed * c + squeezed) + 2 * squeezed + \
        (groups * k * k * squeezed + groups * k * k)
    return generator + 2 * c


def model_flops_breakdown(model: Model, input_size: int):
    """(resolution-scaling FLOPs, resolution-independent FLOPs).

    The constant part collects layers that run on pooled 1x1 descriptors:
    squeeze-excitation bottlenecks and the classification head.
    """
    scaling = 0
    constant = 0
    h = w = input_size
    c = 3
    for name, leaf in model.named_leaves():
        if isinstance(leaf, Conv):
            kind = "depthwise" if leaf.groups == leaf.c_in else "conv"
            spec = {"kind": kind, "c_out": leaf.c_out, "k": leaf.k,
                    "stride": leaf.stride, "groups": leaf.groups}
            scaling += ops.layer_flops(spec, (c, h, w))
            h = (h + 2 * (leaf.k // 2) - leaf.k) // leaf.stride + 1
            w = (w + 2 * (leaf.k // 2) - leaf.k) // leaf.stride + 1
            c = leaf.c_out
        elif isinstance(leaf, Pointwise):
            scaling += ops.layer_flops({"kind": "pointwise", "c_out": leaf.c_out}, (c, h, w))
            c = leaf.c_out
        elif isinstance(leaf, SqueezeExcite):
            constant += ops.layer_flops({"kind": "linear", "in": leaf.c, "out": leaf.mid}, None)
            constant += ops.layer_flops({"kind": "linear", "in": leaf.mid, "out": leaf.c}, None)
        elif isinstance(leaf, GroupInvolution):
            spec = {"kind": "gi", "k": leaf.k, "groups": leaf.groups, "reduce": leaf.reduce}
            scaling += ops.layer_flops(spec, (c, h, w))
        elif isinstance(leaf, GlobalPool):
            h = w = 1
        elif isinstance(leaf, Linear):
            constant += ops.layer_flops({"kind": "linear", "in": leaf.c_in, "out": leaf.c_out},
                                        None)
    return scaling, constant


def model_flops(model: Model, input_size: int) -> int:
    scaling, constant = model_flops_breakdown(model, input_size)
    return scaling + constant


def gradcam(model: Model, x, class_index: int):
    """Class activation heatmap over the last pre-pooling feature map.

    The pooled feature map feeds the linear head directly, so the gradient
    of logit[class_index] w.r.t. map channel c is W[class_index, c] / (h*w)
    at every position; channel weights are the spatial mean of that
    gradient. Returns an (input, input)-sized map normalized to [0, 1].
    """
    from .data import resize_bilinear

    if x.shape[0] != 1:
        raise ConfigError(f"gradcam expects a single sample, got batch of {x.shape[0]}")
    head = model.layers[-1][1]
    if not isinstance(head, Linear) or not isinstance(model.layers[-2][1], GlobalPool):
        raise ConfigError("gradcam requires a model ending in global pooling plus a linear head")
    model.forward(x, train=False, record=False)
    amap = model.last_pre_gap[0]
    h, w = amap.shape[1:]
    weights = head.params["w"][class_index] / (h * w)
    cam = np.maximum(np.einsum("c,chw->hw", weights, amap), 0.0)
    lo, hi = cam.min(), cam.max()
    if hi - lo < 1e-12:
        cam = np.full_like(cam, 1.0 if hi > 0 else 0.0)
    else:
        cam = (cam - lo) / (hi - lo)
    size = x.shape[2]
    return resize_bilinear(cam, size)


# ---------------------------------------------------------------------------
# Checkpoints: length-prefixed config text, length-prefixed manifest of
# (name, offset, dims) entries, tensor containers, trailing 64-bit checksum.
# ---------------------------------------------------------------------------

def _config_text(cfg: ModelConfig, seed: int) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in dc_fields(cfg)]
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


_CFG_CONVERT = {
    "groups": int, "reduce": int, "gi_kernel": int, "placement": str,
    "width_multiplier": float, "input_size": int, "num_classes": int,
    "label_smoothing": float,
}


def _parse_config_text(text: str):
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    seed = int(values.pop("seed", "0"))
    kwargs = {name: conv(values[name]) for name, conv in _CFG_CONVERT.items() if name in values}
    return ModelConfig(**kwargs), seed


def _pad4(shape):
    dims = list(shape) + [1] * (4 - len(shape))
    return tuple(dims[:4])


def save_checkpoint(path, model: Model) -> None:
    entries = list(model.parameters()) + list(model.named_state())
    blobs = []
    manifest_lines = []
    offset = 0
    for name, arr in entries:
        blob = tensor4_to_bytes(np.ascontiguousarray(arr, dtype=np.float64).reshape(_pad4(arr.shape)))
        dims = ",".join(str(d) for d in _pad4(arr.shape))
        manifest_lines.append(f"{name},{offset},{dims}")
        blobs.append(blob)
        offset += len(blob)
    config_block = _config_text(model.cfg, model.seed).encode("utf-8")
    manifest_block = ("\n".join(manifest_lines) + "\n").encode("utf-8")
    body = (CHECKPOINT_MAGIC
            + struct.pack("<I", len(config_block)) + config_block
            + struct.pack("<I", len(manifest_block)) + manifest_block
            + b"".join(blobs))
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<Q", checksum64(body)))


def load_checkpoint(path) -> Model:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    body, trailer = raw[:-8], raw[-8:]
    if struct.unpack("<Q", trailer)[0] != checksum64(body):
        raise DataError(f"{path}: checksum mismatch, file corrupted")
    pos = 4
    (clen,) = struct.unpack_from("<I", body, pos)
    pos += 4
    cfg, seed = _parse_config_text(body[pos:pos + clen].decode("utf-8"))
    pos += clen
    (mlen,) = struct.unpack_from("<I", body, pos)
    pos += 4
    manifest = body[pos:pos + mlen].decode("utf-8").splitlines()
    pos += mlen
    model = build_model(cfg, make_rng(seed))
    model.seed = seed
    arrays = dict(model.parameters())
    arrays.update(dict(model.named_state()))
    blobs = memoryview(body)[pos:]
    seen = set()
    for line in manifest:
        parts = line.split(",")
        name, offset = parts[0], int(parts[1])
        if name not in arrays:
            raise DataError(f"{path}: checkpoint entry {name!r} not present in model")
        target = arrays[name]
        loaded = tensor4_from_bytes(blobs[offset:])
        if loaded.size != target.size:
            raise DataError(f"{path}: entry {name!r} has {loaded.size} values, "
                            f"model expects {target.size}")
        target[...] = loaded.reshape(target.shape)
        seen.add(name)
    missing = set(arrays) - seen
    if missing:
        raise DataError(f"{path}: checkpoint missing entries {sorted(missing)[:4]}")
    return model
