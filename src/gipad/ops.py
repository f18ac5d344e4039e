"""Spatial operators: convolution, involution, group involution, and the
kernel generator, each with an analytic backward pass.

All spatial ops use zero padding. The location-adaptive operators run at
stride 1 with "same" padding; strided downsampling stays with plain
convolution. A kernel field is a rank-6 array H[n, g, u, v, i, j]: one k x k
kernel per (sample, group, position), shared by every channel of its group.

Per-channel filtering runs on one tap engine over the padded input viewed as
(n, G, S, h, w): depthwise conv with weights (1, C, k, k, 1, 1), GI with the
field (n, G, k, k, h, w). It skips taps that read only padding (16 of 25 for
k = 5 on 2 x 2 maps), runs its taps over cache-sized blocks of output, and
stores its arrays channels-last, as (n, h, w, S, G) and (k, k, n, h, w, G),
so numpy's innermost loop runs over groups instead of a short output row;
logical shapes, tap order and results are the NCHW ones. Its output is an
NCHW view of that memory where G or S is 1 (depthwise, one group), else a
C-contiguous copy. Channel mixing (the stem and every other non-depthwise
conv, grouped included) is im2col plus tensor.pointwise_conv with the
block-diagonal (c_out, c_in*k*k) kernel matrix; its adjoint is
pointwise_conv_backward plus a col2im scatter over the taps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InternalError
from .tensor import (
    activation,
    activation_grad,
    batch_norm_backward,
    batch_norm_forward,
    crop_pad,
    pointwise_conv,
    pointwise_conv_backward,
    zero_pad,
)


# Output bytes per block of the tap loop: about a core's share of L2, so that a
# block and its product buffer stay cached across all k*k taps. A sweep of 64
# to 384 KiB on a 2 MiB-L2 host ran fastest at 256 KiB on desk and 256x256 maps.
BLOCK_BYTES = 256 * 1024


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
    """Contiguous channel-to-group partition: channel c is in group c // (C // G)."""
    channels: int
    groups: int

    def __post_init__(self):
        if self.channels % self.groups != 0:
            raise ConfigError(
                f"channels {self.channels} not divisible by groups {self.groups}")


def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ConfigError(f"output size collapsed: input {size}, k={k}, stride={stride}, pad={pad}")
    return out


@functools.lru_cache(maxsize=256)
def _live_taps(padded_hw, k, stride, pad, out_hw):
    """Window index of every tap (u, v) whose strided window over a map of padded
    spatial shape padded_hw reads an input cell; the other taps read only padding.
    Cached, as the same few shapes recur in every pass: on a batch-1 forward
    building them was about 7% of the time."""
    axes = []
    for padded, out in zip(padded_hw, out_hw):
        # live if the first read past the leading pad comes before the trailing pad
        first = [(u, max(0, -((u - pad) // stride))) for u in range(k)]
        axes.append([(u, slice(u, u + stride * out, stride)) for u, i in first
                     if i < out and u + stride * i < padded - pad])
    return tuple((u, v, (Ellipsis, su, sv)) for u, su in axes[0] for v, sv in axes[1])


def _row_tiled(wt, w_out):
    """Per-channel kernels (wt with one output column) tiled over an output
    row, stored (n, k, k, h, w_out, G), so that a tap's product with a
    channels-last operand runs over whole output rows in numpy's inner loop,
    not over G elements at a time; the values and so the results are the same.
    A field (GI) wider than one column is returned as it is."""
    if wt.shape[5] != 1:
        return wt
    wm = np.ascontiguousarray(np.broadcast_to(
        wt.transpose(0, 2, 3, 4, 5, 1), (*wt.shape[:1], *wt.shape[2:5], w_out, wt.shape[1])))
    return wm.transpose(0, 5, 1, 2, 3, 4)


def _tap_forward(x, wt, stride, pad, out_hw, bias=None):
    """y[n,g,s,i,j] = sum_{u,v} wt[n,g,u,v,i,j] * xg[n,g,s,stride*i+u,stride*j+v]
    over the zero-padded x viewed as xg (n, G, S, h, w), tap by tap through one
    buffer; each sum starts from its channel's bias, or from zero. Returns
    (y, xg, wt): y NCHW (see the module notes); xg and wt, stored
    channels-last, feed _tap_adjoint.

    The taps run over blocks of about BLOCK_BYTES of output, whole samples
    or bands of output rows of one sample, so that a block and its buffer
    stay in cache across all k*k taps; each output still gets its taps in
    the same order, so the result does not depend on the block size."""
    n, c, h, w = x.shape
    g = wt.shape[1]
    h_out, w_out = out_hw
    xg = np.zeros((n, h + 2 * pad, w + 2 * pad, c // g, g), x.dtype).transpose(0, 4, 3, 1, 2)
    xg[..., pad:pad + h, pad:pad + w] = x.reshape(n, g, c // g, h, w)
    wt = np.ascontiguousarray(wt.transpose(2, 3, 0, 4, 5, 1)).transpose(2, 5, 0, 1, 3, 4)
    # stored (n, h_out, w_out, S, G), the memory order of xg
    ys = np.zeros((n, h_out, w_out, c // g, g), np.result_type(xg, wt))
    # at stride 1 each tap reads whole rows of xg, so tiled kernels pay
    wm = _row_tiled(wt, w_out) if stride == 1 else wt
    start = None if bias is None else bias.reshape(g, c // g).T
    row_bytes = ys[0, 0].nbytes
    if h_out * row_bytes <= BLOCK_BYTES:  # whole samples
        samples, rows = BLOCK_BYTES // (h_out * row_bytes), h_out
    else:  # bands of rows of one sample
        samples, rows = 1, max(1, BLOCK_BYTES // row_bytes)
    buf = np.empty(ys[:samples, :rows].size, ys.dtype)
    taps = _live_taps(xg.shape[3:], wt.shape[2], stride, pad, out_hw)
    for i, r0 in itertools.product(range(0, n, samples), range(0, h_out, rows)):
        ns, r1 = slice(i, i + samples), min(r0 + rows, h_out)
        yb = ys[ns, r0:r1]
        if start is not None:  # while the block is in cache
            yb[...] = start
        bb = buf[:yb.size].reshape(yb.shape).transpose(0, 4, 3, 1, 2)
        yb = yb.transpose(0, 4, 3, 1, 2)
        # a field (GI) is sliced to the block; per-channel kernels broadcast
        wb = wm[ns if wm.shape[0] > 1 else slice(None), ...,
                slice(r0, r1) if wm.shape[4] > 1 else slice(None), :]
        for u, v, win in taps:
            rows_in = slice(u + stride * r0, u + stride * r1, stride)
            np.multiply(wb[:, :, None, u, v], xg[ns, ..., rows_in, win[2]], out=bb)
            yb += bb
    del buf  # before any NCHW copy of ys, which would otherwise raise peak memory
    return ys.transpose(0, 4, 3, 1, 2).reshape(n, c, h_out, w_out), xg, wt


def _tap_adjoint(grad_y, xg, wt, stride, pad):
    """Adjoint of _tap_forward, given the xg and wt it returned: (grad_x,
    grad_wt), grad_x the NCHW crop of the padded gradient (not made
    contiguous) and grad_wt shaped like wt."""
    n, g, s, hp, wp = xg.shape
    gy = grad_y.reshape(n, g, s, *grad_y.shape[2:])
    gy = np.ascontiguousarray(gy.transpose(0, 3, 4, 2, 1)).transpose(0, 4, 3, 1, 2)
    grad_xg = np.zeros_like(xg)
    # stored as (n, h, w, G, k, k), the memory order of the generator's output,
    # so that the generator's backward reads the field gradient without a copy
    a, _, k, _, b, c = wt.shape
    grad_wt = np.zeros((a, b, c, g, k, k), wt.dtype).transpose(0, 3, 4, 5, 1, 2)
    # sum over the axes along which wt broadcasts, keep the others
    dims = (wt.shape[0], wt.shape[1], wt.shape[4], wt.shape[5])
    spec = "ngshw,ngshw->" + "".join(a for a, d in zip("nghw", dims) if d > 1 or a == "g")
    taps = _live_taps(xg.shape[3:], wt.shape[2], stride, pad, gy.shape[3:])
    for u, v, win in taps:
        tap = grad_wt[:, :, u, v]
        tap[...] = np.einsum(spec, gy, xg[win]).reshape(tap.shape)
    # grad_x is scattered in blocks of whole samples; gy is channels-last at
    # any stride, so tiled kernels pay here at every stride
    wm = _row_tiled(wt, gy.shape[4])
    samples = max(1, BLOCK_BYTES // gy[0].nbytes)
    buf = np.empty_like(gy[:samples])
    for i in range(0, n, samples):
        ns = slice(i, i + samples)
        gb, gxb, bb = gy[ns], grad_xg[ns], buf[:len(gy[ns])]
        wb = wm[ns] if wm.shape[0] > 1 else wm
        for u, v, win in taps:
            np.multiply(wb[:, :, None, u, v], gb, out=bb)
            gxb[win] += bb
    grad_x = grad_xg[..., pad:hp - pad, pad:wp - pad].reshape(n, g * s, hp - 2 * pad, wp - 2 * pad)
    return grad_x, grad_wt


def _kernel_matrix(weights: ConvWeights):
    """Grouped kernel as one (c_out, c_in*k*k) matrix, zero off the group blocks."""
    g = weights.groups
    blocks = weights.kernel.reshape(g, weights.c_out // g, 1, -1)
    return (blocks * np.eye(g, dtype=blocks.dtype)[:, None, :, None]).reshape(weights.c_out, -1)


def _is_depthwise(weights: ConvWeights, c_in: int) -> bool:
    return weights.groups == c_in and weights.c_out == c_in


def conv2d(x, weights: ConvWeights, bias=None, stride: int = 1, pad: int = 0):
    """Grouped 2-D convolution with zero padding.

    Returns (y, ctx); y is an NCHW view of channels-last memory, and ctx
    feeds conv2d_backward and holds the padded input (depthwise: one group per
    channel, multiplier 1, on the tap engine, whose sums start from the bias)
    or the im2col patch matrix (every other conv, through pointwise_conv).
    """
    n, c_in, h, w = x.shape
    if c_in != weights.c_in:
        raise ConfigError(
            f"conv expects {weights.c_in} input channels ({weights.groups} groups), got {c_in}")
    k = weights.k
    h_out = _out_size(h, k, stride, pad)
    w_out = _out_size(w, k, stride, pad)
    if _is_depthwise(weights, c_in):
        wt = weights.kernel.reshape(1, c_in, k, k, 1, 1)
        y, xp, _ = _tap_forward(x, wt, stride, pad, (h_out, w_out), bias)
    else:
        # im2col: patches[n, (c, u, v), i, j] = xp[n, c, stride*i+u, stride*j+v],
        # stored channels-last so that pointwise_conv reads it without a copy
        win = sliding_window_view(zero_pad(x, pad), (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
        xp = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
        xp = xp.reshape(n, h_out, w_out, -1).transpose(0, 3, 1, 2)
        y = pointwise_conv(xp, _kernel_matrix(weights), bias)
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
        grad_x, grad_k = _tap_adjoint(grad_y, xp, wt, stride, pad)
    else:
        grad_p, grad_m, _ = pointwise_conv_backward(grad_y, xp, _kernel_matrix(weights))
        # col2im: scatter each tap's patch gradient back over the padded input
        grad_p = grad_p.reshape(n, c_in, k, k, h_out, w_out)
        grad_xp = np.zeros((n, c_in, h + 2 * pad, w + 2 * pad), grad_p.dtype)
        for u, v, win in _live_taps(grad_xp.shape[2:], k, stride, pad, (h_out, w_out)):
            grad_xp[win] += grad_p[:, :, u, v]
        grad_x = crop_pad(grad_xp, pad)
        grad_k = grad_m.reshape(g, weights.c_out // g, g, -1)[np.arange(g), :, np.arange(g)]
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

    Returns (y, ctx); y is the tap engine's NCHW output (module notes), and
    ctx feeds gi_backward.
    """
    n, c, h, w = x.shape
    if c != gmap.channels:
        raise ConfigError(f"input has {c} channels but group map covers {gmap.channels}")
    if field.ndim != 6 or field.shape[0] != n or field.shape[1] != gmap.groups:
        raise ConfigError(f"field {field.shape} does not match {gmap.groups} groups, batch {n}")
    if field.shape[4:] != (h, w):
        raise ConfigError(f"field spatial dims {field.shape[4:]} != input {(h, w)}")
    y, xg, field = _tap_forward(x, field, 1, field.shape[2] // 2, (h, w))
    return y, (xg, field, gmap, (h, w))


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
    return _tap_adjoint(grad_y, xg, field, 1, field.shape[2] // 2)


def generate_kernels(x, params, running, k, train: bool = False, record=None):
    """Produce the kernel field H[n, g, u, v, i, j] from the feature map itself.

    The generator is squeeze (pointwise C -> C/r) -> batch norm -> relu ->
    expand (pointwise C/r -> G*k*k), reshaped into the field. `params` holds
    squeeze_w, squeeze_b, gamma, beta, expand_w and expand_b, and `running`
    the batch norm's running_mean and running_var: a GroupInvolution layer's
    own `params` and `state`. G is read from expand_w's G*k*k rows.

    Returns (field, ctx, new_running_mean, new_running_var). ctx feeds
    generate_kernels_backward and is recorded when `record` is true
    (defaults to `train`); either batch-norm mode can be recorded.
    """
    n, c, h, w = x.shape
    squeeze_w, expand_w = params["squeeze_w"], params["expand_w"]
    if squeeze_w.shape[1] != c:
        raise ConfigError(f"squeeze weights {squeeze_w.shape} do not fit {c} input channels")
    if expand_w.shape[0] % (k * k) != 0:
        raise ConfigError(
            f"expand layer must emit a multiple of k*k = {k * k} channels, "
            f"got {expand_w.shape[0]}")
    record = train if record is None else record
    s = pointwise_conv(x, squeeze_w, params["squeeze_b"])
    b, bn_ctx, new_mean, new_var = batch_norm_forward(
        s, params["gamma"], params["beta"], running["running_mean"], running["running_var"],
        train, record=record)
    a = activation(b, "relu")
    e = pointwise_conv(a, expand_w, params["expand_b"])
    fld = e.reshape(n, expand_w.shape[0] // (k * k), k, k, h, w)
    ctx = (x, b, bn_ctx, a, squeeze_w, expand_w) if record else None
    return fld, ctx, new_mean, new_var


def generate_kernels_backward(grad_field, ctx):
    """Adjoint of generate_kernels.

    Returns (grad_x, grads) where grads has the keys of generate_kernels'
    `params`: squeeze_w, squeeze_b, gamma, beta, expand_w, expand_b.
    """
    x, b, bn_ctx, a, squeeze_w, expand_w = ctx
    n, _, _, _, h, w = grad_field.shape
    grad_e = grad_field.reshape(n, expand_w.shape[0], h, w)
    grad_a, grad_ew, grad_eb = pointwise_conv_backward(grad_e, a, expand_w)
    grad_b = grad_a * activation_grad(b, "relu")
    grad_s, grad_gamma, grad_beta = batch_norm_backward(grad_b, bn_ctx)
    grad_x, grad_sw, grad_sb = pointwise_conv_backward(grad_s, x, squeeze_w)
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
    if kind in ("conv", "depthwise"):
        # depthwise: one group per channel, c_out = c
        if kind == "depthwise":
            c_out, groups = c, c
        else:
            c_out, groups = layer["c_out"], layer.get("groups", 1)
        stride = layer.get("stride", 1)
        pad = layer.get("pad", k // 2)
        h_out = _out_size(h, k, stride, pad)
        w_out = _out_size(w, k, stride, pad)
        return MAC_FLOPS * h_out * w_out * c_out * (c // groups) * k * k
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

