"""Configurable backbone: inverted-residual stages in the MobileNetV3-Large
layout, with a group-involution block inserted at the stem and/or just
before global average pooling, followed by a two-logit linear head.

Layers are thin wrappers over the functional ops in `tensor` and `ops`: each
holds its parameters in a `params` dict, non-learnable state (batch-norm
running statistics) in `state`, and in `_ctx` what its backward needs from
its last recorded forward, until that backward has used it. Each batch norm
applies the activation that follows it, MobileNetV3's conv -> BN ->
activation step, and keeps only its normalized input, from which its
backward rebuilds the pre-activation. A `Sequence` runs named layers in
order, with an optional residual: each inverted-residual `Block` is one, and
so is the `Model`. Backward passes are hand-derived and run in reverse layer
order; each writes its parameter gradients into the parallel `grads` dict,
so a model is trained without any autograd machinery.

`freeze` builds the inference-only copy that eval, audit and gradcam run:
every conv with its batch norm folded in, and plain copies of the rest.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import asdict

import numpy as np

from . import config, ops
from .config import ModelConfig
from .errors import ConfigError, DataError, InternalError, read_input, write_output
from .tensor import (
    activation,
    activation_grad,
    batch_norm_affine,
    batch_norm_backward,
    batch_norm_forward,
    checksum64,
    global_avg_pool,
    global_avg_pool_backward,
    make_rng,
    pointwise_conv,
    pointwise_conv_backward,
    tensor4_from_bytes,
    tensor4_parts,
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

# The head's two logits; `train.live_probability` reads their difference.
NUM_CLASSES = 2

CHECKPOINT_MAGIC = b"GICK"


def make_divisible(v: float, divisor: int = 8) -> int:
    """Round channel widths to a multiple of `divisor`, never below 90% of v."""
    new_v = max(divisor, int(v + divisor / 2) // divisor * divisor)
    if new_v < 0.9 * v:
        new_v += divisor
    return new_v


def kaiming_uniform(rng, shape, fan_in):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


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
        # a depthwise output goes to NCHW memory when training or recording,
        # the order its batch norm's sums and so training results are fixed
        # on; plain inference keeps it channels-last, for the next 1x1 conv
        depthwise = self.groups == self.c_in == self.c_out
        return np.ascontiguousarray(y) if (train or record) and depthwise else y

    def backward(self, grad_y):
        grad_x, self.grads["kernel"], _ = ops.conv2d_backward(grad_y, self._ctx)
        return grad_x


class Pointwise(Layer):
    """1x1 convolution; bias optional (off inside BN-normalized blocks)."""
    k = stride = 1  # the shape rule of a Conv, which `layer_shapes` reads

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
        grad_x, self.grads["w"], grad_b = pointwise_conv_backward(
            grad_y, self._ctx, self.params["w"])
        if "b" in self.params:
            self.grads["b"] = grad_b
        return grad_x


class BatchNorm(Layer):
    """Per-channel batch norm, then the activation `act` in place on its fresh
    output (none when act is None): the conv -> BN -> activation step of
    MobileNetV3. A recorded forward keeps only batch_norm_forward's context."""

    def __init__(self, c, act=None):
        super().__init__()
        self.act = act
        self.params["gamma"] = np.ones(c)
        self.params["beta"] = np.zeros(c)
        self.state["running_mean"] = np.zeros(c)
        self.state["running_var"] = np.ones(c)

    def forward(self, x, train=False, record=None):
        y, self._ctx, new_mean, new_var = batch_norm_forward(
            x, self.params["gamma"], self.params["beta"],
            self.state["running_mean"], self.state["running_var"], train, record=record)
        if train:
            self.state["running_mean"] = new_mean
            self.state["running_var"] = new_var
        return y if self.act is None else activation(y, self.act, out=y)

    def backward(self, grad_y):
        if self.act is not None:
            # the pre-activation, rebuilt from xhat with the train-mode
            # forward's own arithmetic, so bit for bit
            _, xhat, _, gamma = self._ctx
            pre = xhat * gamma[None, :, None, None]
            pre += self.params["beta"][None, :, None, None]
            grad_y = grad_y * activation_grad(pre, self.act)
            del pre  # not held through the batch-norm adjoint
        grad_x, self.grads["gamma"], self.grads["beta"] = batch_norm_backward(grad_y, self._ctx)
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
        z = global_avg_pool(x)
        h1 = pointwise_conv(z, self.params["w1"], self.params["b1"])
        a1 = activation(h1, "relu")
        h2 = pointwise_conv(a1, self.params["w2"], self.params["b2"])
        gate = activation(h2, "hardsigmoid")
        self._ctx = (x, z, h1, a1, h2, gate) if record else None
        return x * gate

    def backward(self, grad_y):
        x, z, h1, a1, h2, gate = self._ctx
        grad_gate = (grad_y * x).sum(axis=(2, 3), keepdims=True)
        grad_h2 = grad_gate * activation_grad(h2, "hardsigmoid")
        grad_a1, self.grads["w2"], self.grads["b2"] = pointwise_conv_backward(
            grad_h2, a1, self.params["w2"])
        grad_h1 = grad_a1 * activation_grad(h1, "relu")
        grad_z, self.grads["w1"], self.grads["b1"] = pointwise_conv_backward(
            grad_h1, z, self.params["w1"])
        grad_x = grad_y * gate
        grad_x += global_avg_pool_backward(grad_z, x.shape[2:])
        return grad_x


class GroupInvolution(Layer):
    """Kernel generator plus content-adaptive depthwise application.

    The expand layer starts at zero with a center-tap bias, so the freshly
    built operator is the identity; training moves it away from the delta.
    """

    def __init__(self, c, k, groups, reduce, rng=None):
        super().__init__()
        self.gmap = ops.GroupMap(c, groups)
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

    def field(self, x, train=False, record=False):
        """(kernel field generated from x, generator context); train mode
        updates the generator's batch-norm running statistics."""
        fld, gen_ctx, new_mean, new_var = ops.generate_kernels(
            x, self.params, self.state, self.k, train, record=record)
        if train:
            self.state["running_mean"] = new_mean
            self.state["running_var"] = new_var
        return fld, gen_ctx

    def forward(self, x, train=False, record=None):
        record = train if record is None else record
        fld, gen_ctx = self.field(x, train, record)
        y, gi_ctx = ops.group_involution_forward(x, fld, self.gmap)
        self._ctx = (gen_ctx, gi_ctx) if record else None
        return np.ascontiguousarray(y) if train or record else y  # as a depthwise Conv

    def backward(self, grad_y):
        gen_ctx, gi_ctx = self._ctx
        grad_x, grad_field = ops.gi_backward(grad_y, gi_ctx)
        grad_x_gen, self.grads = ops.generate_kernels_backward(grad_field, gen_ctx)
        # the input feeds both the windows and the generator
        grad_x += grad_x_gen
        return grad_x


class GlobalPool(Layer):
    def forward(self, x, train=False, record=None):
        self._ctx = x.shape[2:]
        return global_avg_pool(x)

    def backward(self, grad_y):
        return global_avg_pool_backward(grad_y, self._ctx)


class Linear(Layer):
    """Classification head on pooled (n, c, 1, 1) features."""

    def __init__(self, c_in, c_out, rng=None):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.params["w"] = kaiming_uniform(rng, (c_out, c_in), c_in)
        self.params["b"] = np.zeros(c_out)

    def forward(self, x, train=False, record=None):
        record = train if record is None else record
        self._ctx = x if record else None
        return pointwise_conv(x, self.params["w"], self.params["b"]).reshape(x.shape[0], -1)

    def backward(self, grad_y):
        grad_x, self.grads["w"], self.grads["b"] = pointwise_conv_backward(
            grad_y[:, :, None, None], self._ctx, self.params["w"])
        return grad_x


class Sequence:
    """Named layers run in order, with the input optionally added to the
    output (a residual); layers may themselves be Sequences."""

    def __init__(self, layers, residual=False):
        self.layers = list(layers)
        self.residual = residual

    def named_leaves(self, prefix=""):
        for name, layer in self.layers:
            if isinstance(layer, Sequence):
                yield from layer.named_leaves(f"{prefix}{name}.")
            else:
                yield prefix + name, layer

    def forward(self, x, train=False, record=None, until=None):
        y = x
        for _, layer in self.layers:
            if layer is until:
                break
            y = layer.forward(y, train=train, record=record)
        if self.residual:
            # in place: the last layer (a batch norm, or the frozen model's
            # folded conv) returns a fresh array
            y += x
        return y

    def backward(self, grad_y, prefix=""):
        g = grad_y
        for name, layer in reversed(self.layers):
            if isinstance(layer, Sequence):
                g = layer.backward(g, f"{prefix}{name}.")
            elif layer._ctx is None:
                raise InternalError(f"backward of {prefix}{name} without its context: "
                                    "already used by a backward, or never recorded")
            else:
                g = layer.backward(g)
                layer._ctx = None  # used: freed now, so one forward backpropagates once
        return g + grad_y if self.residual else g


class Block(Sequence):
    """Inverted residual: expand 1x1 -> depthwise -> (SE) -> project 1x1."""

    def __init__(self, c_in, c_exp, c_out, k, stride, use_se, act, rng):
        seq = []
        if c_exp != c_in:
            seq += [("expand", Pointwise(c_in, c_exp, rng=rng)),
                    ("expand_bn", BatchNorm(c_exp, act))]
        seq += [("depth", Conv(c_exp, c_exp, k, stride=stride, groups=c_exp, rng=rng)),
                ("depth_bn", BatchNorm(c_exp, act))]
        if use_se:
            seq += [("se", SqueezeExcite(c_exp, rng=rng))]
        seq += [("project", Pointwise(c_exp, c_out, rng=rng)),
                ("project_bn", BatchNorm(c_out))]
        super().__init__(seq, residual=stride == 1 and c_in == c_out)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class Model(Sequence):
    """The backbone's layer sequence, ending in global pooling and a linear head."""

    def __init__(self, cfg: ModelConfig | None, layers):
        super().__init__(layers)
        self.cfg = cfg
        self.seed = 0  # the initialisation seed, which checkpoints carry

    @property
    def end_gi(self):
        """The GroupInvolution before pooling, or None."""
        return dict(self.layers).get("gi_end")

    def _named_arrays(self, kind):
        for name, leaf in self.named_leaves():
            for key, arr in getattr(leaf, kind).items():
                yield f"{name}.{key}", arr

    def parameters(self):
        return self._named_arrays("params")

    def named_state(self):
        return self._named_arrays("state")

    def gradients(self):
        return self._named_arrays("grads")

    def astype(self, dtype):
        """Cast every parameter, gradient, and running statistic in place;
        single precision is permitted for training only."""
        for _, leaf in self.named_leaves():
            leaf.params = {k: v.astype(dtype) for k, v in leaf.params.items()}
            leaf.grads = {k: v.astype(dtype) for k, v in leaf.grads.items()}
            leaf.state = {k: v.astype(dtype) for k, v in leaf.state.items()}
        return self

    def forward(self, x, train=False, record=None, until=None):
        """Logits for x; with `until` set to one of `layers`, the input of
        that layer instead."""
        if until is not None and not any(layer is until for _, layer in self.layers):
            raise InternalError(f"forward until a {type(until).__name__} that is not one of "
                                f"this model's layers")
        if self.cfg is not None and x.shape[2:] != (self.cfg.input_size, self.cfg.input_size):
            raise ConfigError(
                f"model built for {self.cfg.input_size}x{self.cfg.input_size} input, "
                f"got {x.shape[2]}x{x.shape[3]}")
        for _, leaf in self.named_leaves():  # the last forward's contexts go first
            leaf._ctx = None
        return super().forward(x, train, record, until)


# ---------------------------------------------------------------------------
# Frozen inference model: what eval, audit and gradcam run
# ---------------------------------------------------------------------------

class FoldedConv(Layer):
    """A Conv or Pointwise with the infer-mode BatchNorm after it folded in:
    the kernel scaled per output channel, the bias beta - running_mean*scale.
    The batch norm's activation, if any, runs in place on the fresh output,
    which stays channels-last."""

    def __init__(self, conv, bn):
        super().__init__()
        scale, self.bias = batch_norm_affine(bn.params["gamma"], bn.params["beta"],
                                             bn.state["running_mean"], bn.state["running_var"])
        if "b" in conv.params:
            self.bias = self.bias + scale * conv.params["b"]
        self.act = bn.act
        self.c_out, self.k, self.stride = conv.c_out, conv.k, conv.stride
        if isinstance(conv, Conv):
            self.weights = ops.ConvWeights(conv.params["kernel"] * scale[:, None, None, None],
                                           conv.groups)
        else:
            self.weights = conv.params["w"] * scale[:, None]

    def forward(self, x, train=False, record=None):
        if isinstance(self.weights, ops.ConvWeights):
            y, _ = ops.conv2d(x, self.weights, self.bias, stride=self.stride, pad=self.k // 2)
        else:
            y = pointwise_conv(x, self.weights, self.bias)
        return y if self.act is None else activation(y, self.act, out=y)


class FrozenModel(Model):
    """The inference-only model that `freeze` builds: no backward, and a
    forward that rejects train and record."""

    def forward(self, x, train=False, record=None, until=None):
        if train or record:
            raise InternalError("a frozen model runs inference only: train and record "
                                "are not available")
        return super().forward(x, until=until)

    def backward(self, grad_logits):
        raise InternalError("a frozen model has no backward pass")


def _frozen_steps(seq):
    steps = []
    for name, layer in seq:
        prev = steps[-1][1] if steps else None
        if isinstance(layer, BatchNorm) and isinstance(prev, (Conv, Pointwise)):
            steps[-1] = (steps[-1][0], FoldedConv(prev, layer))
        elif isinstance(layer, Sequence):
            steps.append((name, copy.copy(layer)))
            steps[-1][1].layers = _frozen_steps(layer.layers)
        else:
            steps.append((name, copy.deepcopy(layer)))
    return steps


def freeze(model: Model) -> FrozenModel:
    """An inference-only copy of `model`, built once per command: each Conv
    or Pointwise takes the infer-mode BatchNorm after it (FoldedConv), each
    nested Sequence (a Block) is a copy whose own layers are frozen the same
    way, and every other layer, the GroupInvolution and its BatchNorm among
    them, is deep-copied and runs in infer mode. The live model is not
    changed. Activations stay channels-last between layers. Logits agree
    with the live infer-mode forward within 1e-12 relative (5e-15 measured
    on the desk model, 2e-14 on the full-width model at 256x256)."""
    return FrozenModel(model.cfg, _frozen_steps(model.layers))


def build_model(cfg: ModelConfig, rng: np.random.Generator) -> Model:
    """Construct the backbone for `cfg` with weights drawn from `rng`; raises
    ConfigError on divisibility violations, naming the offending channel/group pair."""
    width = cfg.width_multiplier
    stem_ch = make_divisible(STEM_WIDTH * width)
    final_ch = make_divisible(FINAL_WIDTH * width)
    layers = [
        ("stem", Conv(3, stem_ch, 3, stride=2, rng=rng)),
        ("stem_bn", BatchNorm(stem_ch, "hardswish")),
    ]
    if cfg.placement in ("begin", "both"):
        g_begin = min(cfg.groups, stem_ch)
        if stem_ch % g_begin != 0:
            raise ConfigError(
                f"stem channels {stem_ch} not divisible by begin groups {g_begin}")
        layers += [
            ("gi_begin", GroupInvolution(stem_ch, cfg.gi_kernel, g_begin, cfg.reduce, rng=rng)),
            ("gi_begin_bn", BatchNorm(stem_ch, "hardswish")),
        ]
    ch = stem_ch
    for i, (k, exp, out, use_se, act, stride) in enumerate(STAGES):
        c_exp = make_divisible(exp * width)
        c_out = make_divisible(out * width)
        layers.append((f"block{i}", Block(ch, c_exp, c_out, k, stride, use_se, act, rng)))
        ch = c_out
    layers += [
        ("final", Pointwise(ch, final_ch, rng=rng)),
        ("final_bn", BatchNorm(final_ch, "hardswish")),
    ]
    if cfg.placement in ("end", "both"):
        layers += [
            ("gi_end", GroupInvolution(final_ch, cfg.gi_kernel, cfg.groups, cfg.reduce, rng=rng)),
            ("gi_end_bn", BatchNorm(final_ch, "hardswish")),
        ]
    layers += [
        ("pool", GlobalPool()),
        ("head", Linear(final_ch, NUM_CLASSES, rng=rng)),
    ]
    return Model(cfg, layers)


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


def layer_shapes(model: Model, input_size: int):
    """Each leaf layer of `model`, live or frozen, with the (channels, h, w)
    of one sample's input to it: the one walk over the model's shapes."""
    shape = (3, input_size, input_size)
    for _, leaf in model.named_leaves():
        yield leaf, shape
        c, h, w = shape
        if isinstance(leaf, (Conv, Pointwise, FoldedConv)):
            k, stride = leaf.k, leaf.stride
            shape = (leaf.c_out, (h + 2 * (k // 2) - k) // stride + 1,
                     (w + 2 * (k // 2) - k) // stride + 1)
        elif isinstance(leaf, GlobalPool):
            shape = (c, 1, 1)


def sample_activation_bytes(model: Model, input_size: int, itemsize: int = 8) -> int:
    """Bytes of the largest activation of one sample, the input included, at
    `itemsize` bytes a value: 128 KiB for the desk model (width 0.25, 64x64)
    and 8 MiB for the full-width model at 256x256, both in float64."""
    return itemsize * max(c * h * w for _, (c, h, w) in layer_shapes(model, input_size))


def model_flops_breakdown(model: Model, input_size: int):
    """(resolution-scaling FLOPs, resolution-independent FLOPs).

    The constant part collects layers that run on pooled 1x1 descriptors:
    squeeze-excitation bottlenecks and the classification head.
    """
    scaling = 0
    constant = 0
    for leaf, shape in layer_shapes(model, input_size):
        if isinstance(leaf, Conv):
            kind = "depthwise" if leaf.groups == leaf.c_in else "conv"
            spec = {"kind": kind, "c_out": leaf.c_out, "k": leaf.k,
                    "stride": leaf.stride, "groups": leaf.groups}
            scaling += ops.layer_flops(spec, shape)
        elif isinstance(leaf, Pointwise):
            scaling += ops.layer_flops({"kind": "pointwise", "c_out": leaf.c_out}, shape)
        elif isinstance(leaf, SqueezeExcite):
            constant += ops.layer_flops({"kind": "linear", "in": leaf.c, "out": leaf.mid}, None)
            constant += ops.layer_flops({"kind": "linear", "in": leaf.mid, "out": leaf.c}, None)
        elif isinstance(leaf, GroupInvolution):
            spec = {"kind": "gi", "k": leaf.k, "groups": leaf.groups, "reduce": leaf.reduce}
            scaling += ops.layer_flops(spec, shape)
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
    if class_index not in range(NUM_CLASSES):
        raise ConfigError(f"class_index must be 0 or 1, got {class_index}")
    (_, pool), (_, head) = model.layers[-2:]
    if not isinstance(head, Linear) or not isinstance(pool, GlobalPool):
        raise ConfigError("gradcam requires a model ending in global pooling plus a linear head")
    amap = model.forward(x, train=False, record=False, until=pool)[0]
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

def _pad4(shape):
    dims = list(shape) + [1] * (4 - len(shape))
    return tuple(dims[:4])


def save_checkpoint(path, model: Model) -> None:
    """Write `model` as a checkpoint, each array from its own memory. Every
    array is checked first, so that a rejected one leaves no file."""
    parts, manifest_lines, offset = [], [], 0
    for name, arr in (*model.parameters(), *model.named_state()):
        header, body = tensor4_parts(arr.reshape(_pad4(arr.shape)))
        manifest_lines.append(f"{name},{offset}," + ",".join(str(d) for d in body.shape))
        parts += [header, body]
        offset += len(header) + body.nbytes
    config_block = config.dump({**asdict(model.cfg), "seed": model.seed}).encode("utf-8")
    manifest_block = ("\n".join(manifest_lines) + "\n").encode("utf-8")
    parts.insert(0, CHECKPOINT_MAGIC
                 + struct.pack("<I", len(config_block)) + config_block
                 + struct.pack("<I", len(manifest_block)) + manifest_block)
    write_output(path, [*parts, struct.pack("<Q", checksum64(*parts))])


def load_checkpoint(path) -> Model:
    raw = memoryview(read_input(path, "checkpoint"))
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    body, trailer = raw[:-8], raw[-8:]
    if struct.unpack("<Q", trailer)[0] != checksum64(body):
        raise DataError(f"{path}: checksum mismatch, file corrupted")
    try:
        pos = 4
        (clen,) = struct.unpack_from("<I", body, pos)
        pos += 4
        values = config.parse(str(body[pos:pos + clen], "utf-8"), path)
        cfg = config.build(ModelConfig, values)
        seed = int(values.get("seed", "0"))
        pos += clen
        (mlen,) = struct.unpack_from("<I", body, pos)
        pos += 4
        manifest = [(parts[0], int(parts[1]), tuple(int(d) for d in parts[2:])) for parts in
                    (line.split(",") for line in str(body[pos:pos + mlen], "utf-8").splitlines())]
        pos += mlen
        model = build_model(cfg, make_rng(seed))
    except (ConfigError, ValueError, IndexError, struct.error) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc}") from exc
    model.seed = seed
    arrays = dict(model.parameters())
    arrays.update(dict(model.named_state()))
    blobs = body[pos:]
    seen = set()
    for name, offset, dims in manifest:
        if name not in arrays:
            raise DataError(f"{path}: checkpoint entry {name!r} not present in model")
        target = arrays[name]
        shape = _pad4(target.shape)
        if dims != shape or offset < 0:
            raise DataError(f"{path}: manifest entry {name!r} has dims {dims} at offset "
                            f"{offset}, model expects {shape} at an offset of 0 or more")
        try:
            loaded = tensor4_from_bytes(blobs[offset:])
        except DataError as exc:
            raise DataError(f"{path}: manifest entry {name!r} at offset {offset}: {exc}") from exc
        if loaded.shape != shape:
            raise DataError(f"{path}: entry {name!r} holds a container of dims {loaded.shape}, "
                            f"model expects {shape}")
        target[...] = loaded.reshape(target.shape)
        seen.add(name)
    missing = set(arrays) - seen
    if missing:
        raise DataError(f"{path}: checkpoint missing entries {sorted(missing)[:4]}")
    return model
