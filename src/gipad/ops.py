"""Spatial operators: convolution, involution, group involution, and the
kernel generator, each with an analytic backward pass.

All spatial ops use zero padding. The location-adaptive operators run at
stride 1 with "same" padding; strided downsampling stays with plain
convolution. A kernel field is a rank-6 array H[n, g, u, v, i, j]: one k x k
kernel per (sample, group, position), shared by every channel of its group.

Depthwise conv and group involution (GI) share one tap engine over the padded
input viewed as (n, G, S, h, w). Its weights broadcast as per-channel kernels
(1, C, k, k, 1, 1) for depthwise conv or as the field (n, G, k, k, h, w) for
GI. Taps reading only padding are skipped: 16 of 25 for k = 5 on 2 x 2 maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InternalError
from .tensor import (
    activation,
    activation_grad,
    batch_norm_backward,
    batch_norm_forward,
    crop_pad,
    pointwise_conv,
    pointwise_conv_backward,
    write_tensor4,
    zero_pad,
)


@dataclass
class ConvWeights:
    """Grouped convolution kernel K[c_out, c_in_per_group, u, v].

    groups == 1 is standard convolution; groups == channels is depthwise.
    """
    kernel: np.ndarray
    groups: int = 1

    def __post_init__(self):
        c_out, _, kh, kw = self.kernel.shape
        if kh != kw or kh % 2 == 0:
            raise ConfigError(f"kernel must be square with odd size, got {kh}x{kw}")
        if c_out % self.groups != 0:
            raise ConfigError(f"c_out {c_out} not divisible by groups {self.groups}")

    @property
    def k(self) -> int:
        return self.kernel.shape[2]

    @property
    def c_out(self) -> int:
        return self.kernel.shape[0]

    @property
    def c_in(self) -> int:
        return self.kernel.shape[1] * self.groups


@dataclass(frozen=True)
class GroupMap:
    """Contiguous channel-to-group partition: group_of(c) = c // (C // G)."""
    channels: int
    groups: int

    def __post_init__(self):
        if self.channels % self.groups != 0:
            raise ConfigError(
                f"channels {self.channels} not divisible by groups {self.groups}")

    @property
    def group_size(self) -> int:
        return self.channels // self.groups

    def group_of(self, c: int) -> int:
        return c // self.group_size


@dataclass
class GeneratorParams:
    """Weights of the per-position kernel generator.

    squeeze (pointwise C -> C/r) -> batch norm -> relu ->
    expand (pointwise C/r -> G*k*k), reshaped into the kernel field.
    """
    squeeze_w: np.ndarray
    squeeze_b: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    expand_w: np.ndarray
    expand_b: np.ndarray
    k: int
    groups: int
    reduce: int

    def __post_init__(self):
        if self.expand_w.shape[0] != self.groups * self.k * self.k:
            raise ConfigError(
                f"expand layer must emit groups*k*k = {self.groups * self.k * self.k} "
                f"channels, got {self.expand_w.shape[0]}")


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ConfigError(f"output size collapsed: input {size}, k={k}, stride={stride}, pad={pad}")
    return out


def _live_taps(xg, k, stride, pad, out_hw):
    """Window index of every tap (u, v) whose strided window over the padded
    xg reads at least one input cell; the other taps read only padding."""
    axes = []
    for padded, out in zip(xg.shape[3:], out_hw):
        # live if the first read past the leading pad comes before the trailing pad
        first = [(u, max(0, -((u - pad) // stride))) for u in range(k)]
        axes.append([(u, slice(u, u + stride * out, stride)) for u, i in first
                     if i < out and u + stride * i < padded - pad])
    return [(u, v, (Ellipsis, su, sv)) for u, su in axes[0] for v, sv in axes[1]]


def _tap_forward(xg, wt, stride, pad, out_hw):
    """y[n,g,s,i,j] = sum_{u,v} wt[n,g,u,v,i,j] * xg[n,g,s,stride*i+u,stride*j+v],
    accumulated tap by tap through one buffer into a contiguous output."""
    y = np.zeros(xg.shape[:3] + tuple(out_hw), dtype=np.result_type(xg, wt))
    buf = np.empty_like(y)
    for u, v, win in _live_taps(xg, wt.shape[2], stride, pad, out_hw):
        np.multiply(wt[:, :, None, u, v], xg[win], out=buf)
        y += buf
    return y


def _tap_adjoint(grad_y, xg, wt, stride, pad):
    """Adjoint of _tap_forward: (grad_xg, grad_wt), grad_wt shaped like wt."""
    grad_xg = np.zeros_like(xg)
    grad_wt = np.zeros_like(wt)
    buf = np.empty_like(grad_y)
    # sum over the axes along which wt broadcasts, keep the others
    dims = (wt.shape[0], wt.shape[1], wt.shape[4], wt.shape[5])
    spec = "ngshw,ngshw->" + "".join(a for a, d in zip("nghw", dims) if d > 1 or a == "g")
    for u, v, win in _live_taps(xg, wt.shape[2], stride, pad, grad_y.shape[3:]):
        tap = grad_wt[:, :, u, v]
        tap[...] = np.einsum(spec, grad_y, xg[win]).reshape(tap.shape)
        np.multiply(wt[:, :, None, u, v], grad_y, out=buf)
        grad_xg[win] += buf
    return grad_xg, grad_wt


def _is_depthwise(weights: ConvWeights, c_in: int) -> bool:
    return weights.groups == c_in and weights.c_out == c_in


def conv2d(x, weights: ConvWeights, bias=None, stride: int = 1, pad: int = 0):
    """Grouped 2-D convolution with zero padding.

    Returns (y, ctx); ctx feeds conv2d_backward. Depthwise shapes (one group
    per channel, multiplier 1) run on the tap engine.
    """
    n, c_in, h, w = x.shape
    g = weights.groups
    if c_in != weights.c_in:
        raise ConfigError(
            f"conv expects {weights.c_in} input channels ({g} groups), got {c_in}")
    k = weights.k
    h_out = _out_size(h, k, stride, pad)
    w_out = _out_size(w, k, stride, pad)
    xp = zero_pad(x, pad)
    if _is_depthwise(weights, c_in):
        wt = weights.kernel.reshape(1, c_in, k, k, 1, 1)
        y = _tap_forward(xp[:, :, None], wt, stride, pad, (h_out, w_out))[:, :, 0]
    else:
        xg = xp.reshape(n, g, c_in // g, *xp.shape[2:])
        kg = weights.kernel.reshape(g, weights.c_out // g, c_in // g, k, k)
        y = np.zeros((n, g, weights.c_out // g, h_out, w_out), dtype=x.dtype)
        for u, v, win in _live_taps(xg, k, stride, pad, (h_out, w_out)):
            y += np.einsum("ngihw,goi->ngohw", xg[win], kg[:, :, :, u, v])
        y = y.reshape(n, weights.c_out, h_out, w_out)
    if bias is not None:
        y += bias[None, :, None, None]
    ctx = (xp, weights, stride, pad, x.shape, (h_out, w_out), bias is not None)
    return y, ctx


def conv2d_backward(grad_y, ctx):
    """Adjoint of conv2d; returns (grad_x, grad_kernel, grad_bias)."""
    xp, weights, stride, pad, x_shape, (h_out, w_out), has_bias = ctx
    n, c_in, h, w = x_shape
    g = weights.groups
    k = weights.k
    if grad_y.shape != (n, weights.c_out, h_out, w_out):
        raise InternalError(f"grad_y shape {grad_y.shape} does not match saved forward context")
    if _is_depthwise(weights, c_in):
        wt = weights.kernel.reshape(1, c_in, k, k, 1, 1)
        grad_xg, grad_k = _tap_adjoint(grad_y[:, :, None], xp[:, :, None], wt, stride, pad)
        grad_xp = grad_xg[:, :, 0]
    else:
        grad_xp = np.zeros_like(xp)
        xg = xp.reshape(n, g, c_in // g, *xp.shape[2:])
        gy = grad_y.reshape(n, g, weights.c_out // g, h_out, w_out)
        kg = weights.kernel.reshape(g, weights.c_out // g, c_in // g, k, k)
        grad_k = np.zeros_like(kg)
        grad_xg = grad_xp.reshape(xg.shape)
        for u, v, win in _live_taps(xg, k, stride, pad, (h_out, w_out)):
            grad_k[:, :, :, u, v] = np.einsum("ngohw,ngihw->goi", gy, xg[win])
            grad_xg[win] += np.einsum("ngohw,goi->ngihw", gy, kg[:, :, :, u, v])
    grad_x = crop_pad(grad_xp, pad)
    grad_bias = grad_y.sum(axis=(0, 2, 3)) if has_bias else None
    return grad_x, grad_k.reshape(weights.kernel.shape), grad_bias


def involution_forward(x, field):
    """Channel-shared, location-specific filtering (single group).

    field is H[n, 1, u, v, i, j]; every channel at (i, j) is filtered by the
    same k x k kernel generated for that position.
    """
    if field.ndim != 6 or field.shape[1] != 1:
        raise ConfigError(f"involution needs a single-group field, got shape {field.shape}")
    return group_involution_forward(x, field, GroupMap(x.shape[1], 1))[0]


def group_involution_forward(x, field, gmap: GroupMap):
    """Location-specific depthwise filtering with one kernel per channel group.

    y[n,c,i,j] = sum_{u,v} H[n, g(c), u, v, i, j] * x[n, c, i+u-r, j+v-r]
    (stride 1, same zero padding, no channel mixing).

    Returns (y, ctx); ctx feeds gi_backward.
    """
    n, c, h, w = x.shape
    if c != gmap.channels:
        raise ConfigError(f"input has {c} channels but group map covers {gmap.channels}")
    if field.ndim != 6 or field.shape[0] != n or field.shape[1] != gmap.groups:
        raise ConfigError(f"field {field.shape} does not match {gmap.groups} groups, batch {n}")
    if field.shape[4:] != (h, w):
        raise ConfigError(f"field spatial dims {field.shape[4:]} != input {(h, w)}")
    r = field.shape[2] // 2
    xg = zero_pad(x, r).reshape(n, gmap.groups, gmap.group_size, h + 2 * r, w + 2 * r)
    return _tap_forward(xg, field, 1, r, (h, w)).reshape(n, c, h, w), (xg, field, gmap, (h, w))


def gi_backward(grad_y, ctx):
    """Adjoint of group_involution_forward.

    grad_field[n,g,u,v,i,j] = sum_{c in group g} grad_y[n,c,i,j] * x[n,c,i+u-r,j+v-r]
    grad_x gathers each output gradient back through the kernel taps that
    read the corresponding input cell.
    """
    xg, field, gmap, (h, w) = ctx
    n = xg.shape[0]
    if grad_y.shape != (n, gmap.channels, h, w):
        raise InternalError(f"grad_y shape {grad_y.shape} does not match saved forward context")
    r = field.shape[2] // 2
    grad_xg, grad_field = _tap_adjoint(grad_y.reshape(xg.shape[:3] + (h, w)), xg, field, 1, r)
    grad_x = crop_pad(grad_xg.reshape(n, gmap.channels, h + 2 * r, w + 2 * r), r)
    return grad_x, grad_field


def generate_kernels(x, params: GeneratorParams, train: bool = False, record=None):
    """Produce the kernel field H[n, g, u, v, i, j] from the feature map itself.

    Returns (field, ctx, new_running_mean, new_running_var). ctx feeds
    generate_kernels_backward and is recorded when `record` is true
    (defaults to `train`); either batch-norm mode can be recorded.
    """
    n, c, h, w = x.shape
    if c % params.reduce != 0:
        raise ConfigError(f"channels {c} not divisible by reduce ratio {params.reduce}")
    if params.squeeze_w.shape != (c // params.reduce, c):
        raise ConfigError(
            f"squeeze weights {params.squeeze_w.shape} do not fit {c} -> {c // params.reduce}")
    record = train if record is None else record
    s = pointwise_conv(x, params.squeeze_w, params.squeeze_b)
    b, bn_ctx, new_mean, new_var = batch_norm_forward(
        s, params.gamma, params.beta, params.running_mean, params.running_var, train,
        record=record)
    a = activation(b, "relu")
    e = pointwise_conv(a, params.expand_w, params.expand_b)
    k = params.k
    fld = e.reshape(n, params.groups, k, k, h, w)
    ctx = (x, b, bn_ctx, a, params) if record else None
    return fld, ctx, new_mean, new_var


def generate_kernels_backward(grad_field, ctx):
    """Adjoint of generate_kernels.

    Returns (grad_x, grads) where grads has keys squeeze_w, squeeze_b,
    gamma, beta, expand_w, expand_b.
    """
    x, b, bn_ctx, a, params = ctx
    n, _, _, _, h, w = grad_field.shape
    grad_e = grad_field.reshape(n, params.groups * params.k * params.k, h, w)
    grad_a, grad_ew, grad_eb = pointwise_conv_backward(grad_e, a, params.expand_w)
    grad_b = grad_a * activation_grad(b, "relu")
    grad_s, grad_gamma, grad_beta = batch_norm_backward(grad_b, bn_ctx)
    grad_x, grad_sw, grad_sb = pointwise_conv_backward(grad_s, x, params.squeeze_w)
    grads = {"squeeze_w": grad_sw, "squeeze_b": grad_sb, "gamma": grad_gamma,
             "beta": grad_beta, "expand_w": grad_ew, "expand_b": grad_eb}
    return grad_x, grads


# ---------------------------------------------------------------------------
# FLOP accounting. Convention: 1 multiply-accumulate = 2 FLOPs. Only
# MAC-bearing layers are counted (batch norm, activations and pooling are
# ignored, matching the usual mobile-network accounting).
# ---------------------------------------------------------------------------

LAYER_KINDS = ("conv", "pointwise", "depthwise", "involution", "gi", "linear")
MAC_FLOPS = 2


def layer_flops(layer: dict, input_shape) -> int:
    """FLOPs of one layer applied to an input of shape (channels, h, w).

    `layer` is a dict with key "kind" in LAYER_KINDS plus the fields that
    kind needs: c_out/k/stride/pad/groups for conv-like kinds, reduce and
    groups for the adaptive kinds, in/out for linear.
    """
    kind = layer.get("kind")
    if kind not in LAYER_KINDS:
        raise ConfigError(f"unknown layer kind {kind!r}")
    if kind == "linear":
        return MAC_FLOPS * layer["in"] * layer["out"]
    c, h, w = input_shape
    if kind == "pointwise":
        return MAC_FLOPS * h * w * c * layer["c_out"]
    k = layer["k"]
    if kind == "conv":
        stride = layer.get("stride", 1)
        pad = layer.get("pad", k // 2)
        groups = layer.get("groups", 1)
        h_out = _out_size(h, k, stride, pad)
        w_out = _out_size(w, k, stride, pad)
        return MAC_FLOPS * h_out * w_out * layer["c_out"] * (c // groups) * k * k
    if kind == "depthwise":
        stride = layer.get("stride", 1)
        pad = layer.get("pad", k // 2)
        h_out = _out_size(h, k, stride, pad)
        w_out = _out_size(w, k, stride, pad)
        return MAC_FLOPS * h_out * w_out * c * k * k
    # involution / gi: generator cost plus the spatial application term,
    # which is linear in each of c, k*k, h and w.
    groups = layer["groups"] if kind == "gi" else 1
    reduce = layer["reduce"]
    squeezed = c // reduce
    gen = MAC_FLOPS * h * w * (c * squeezed + squeezed * groups * k * k)
    apply_cost = MAC_FLOPS * c * k * k * h * w
    return gen + apply_cost


def gi_application_flops(c: int, k: int, h: int, w: int) -> int:
    """Spatial application term of involution-style ops alone."""
    return MAC_FLOPS * c * k * k * h * w


def export_kernel_field(path, field_arr: np.ndarray) -> None:
    """Write a kernel field as a tensor container with dims (n*G, k*k, h, w)
    plus a sidecar text header naming (n, G, k)."""
    n, g, k, _, h, w = field_arr.shape
    write_tensor4(path, field_arr.reshape(n * g, k * k, h, w))
    with open(str(path) + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"n = {n}\nG = {g}\nk = {k}\n")
