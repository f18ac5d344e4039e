"""Rank-4 tensor primitives every other module composes.

A tensor here is a plain numpy array of shape (batch, channel, height,
width) in either memory order: the live model's per-channel layers keep
C-contiguous NCHW arrays, pointwise_conv and the tap engine in ops return
NCHW views of channels-last memory, and every primitive accepts both. The
binary container below is row-major NCHW. The verification/test path runs in float64;
training may opt into float32. There is no autograd: each primitive that
needs a gradient ships a hand-derived backward companion.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .errors import ConfigError, DataError, read_input, write_output

T4_MAGIC = b"T4D1"
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

ACTIVATIONS = ("relu", "hardswish", "hardsigmoid")
# Elements per block of hardswish: 256 KiB of float64, so that its gate
# buffer stays in cache (a sweep of 8K to 128K elements ran fastest here)
ACT_BLOCK = 32 * 1024


def tensor4(data, dtype=np.float64) -> np.ndarray:
    """Validate and return `data` as a rank-4 array of the given dtype."""
    arr = np.asarray(data, dtype=dtype)
    if arr.ndim != 4:
        raise ConfigError(f"expected rank-4 array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("tensor contains non-finite entries")
    return arr


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64); identical seed gives an identical stream."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def derived_rng(seed: int, *key) -> np.random.Generator:
    """Independent substream for (seed, key); key parts may be ints or strings."""
    parts = [int(seed)]
    for part in key:
        if isinstance(part, str):
            parts.extend(part.encode("utf-8"))
        else:
            parts.append(int(part))
    return np.random.default_rng(parts)


def zero_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad both spatial dims by `pad` on each side."""
    if pad < 0:
        raise ConfigError(f"pad must be non-negative, got {pad}")
    if pad == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    out[:, :, pad:pad + h, pad:pad + w] = x
    return out


def crop_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Inverse of zero_pad: drop `pad` rows/cols from every spatial border."""
    if pad == 0:
        return x
    return x[:, :, pad:-pad, pad:-pad]


def pointwise_conv(x: np.ndarray, weights: np.ndarray, bias=None) -> np.ndarray:
    """1x1 convolution: y[n,o,i,j] = bias[o] + sum_c weights[o,c] * x[n,c,i,j].

    The package's one affine map: every 1x1 convolution, squeeze-excitation
    and the linear head (on pooled (n, c, 1, 1) maps) call it. Each call is
    one 2-D matmul of x's channels-last (n*h*w, c) matrix with weights.T,
    whatever the batch and map size; y is an NCHW view of that product."""
    n, c, h, w = x.shape
    if weights.ndim != 2 or weights.shape[1] != c:
        raise ConfigError(
            f"pointwise weights {weights.shape} do not match {c} input channels")
    y = np.matmul(x.transpose(0, 2, 3, 1).reshape(-1, c), weights.T)
    if bias is not None:
        y += bias
    return y.reshape(n, h, w, -1).transpose(0, 3, 1, 2)


def pointwise_conv_backward(grad_y, x, weights):
    """Adjoint of pointwise_conv; returns (grad_x, grad_weights, grad_bias),
    the first two each one matmul over the channels-last matrices."""
    n, c, h, w = x.shape
    gy = grad_y.transpose(0, 2, 3, 1).reshape(-1, weights.shape[0])
    grad_x = np.matmul(gy, weights).reshape(n, h, w, c).transpose(0, 3, 1, 2)
    grad_w = np.matmul(x.transpose(1, 0, 2, 3).reshape(c, -1), gy).T
    grad_b = grad_y.sum(axis=(0, 2, 3))
    return grad_x, grad_w, grad_b


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over spatial positions, keeping 1x1 spatial dims."""
    return x.mean(axis=(2, 3), keepdims=True)


def global_avg_pool_backward(grad_y, spatial_shape):
    """Spread the pooled gradient uniformly back over (h, w)."""
    h, w = spatial_shape
    return np.broadcast_to(grad_y / (h * w), grad_y.shape[:2] + (h, w)).copy()


def _hardsigmoid(x, out=None):
    y = np.add(x, 3.0, out=out)
    y /= 6.0
    return np.clip(y, 0.0, 1.0, out=y)


def activation(x: np.ndarray, kind: str, out=None) -> np.ndarray:
    """Elementwise nonlinearity; hardsigmoid(t) = clamp((t+3)/6, 0, 1) and
    hardswish(t) = t * hardsigmoid(t). The result goes to `out` when given,
    which may be x itself."""
    if kind == "relu":
        return np.maximum(x, 0.0, out=out)
    if kind == "hardsigmoid":
        return _hardsigmoid(x, out)
    if kind == "hardswish":
        out = np.empty_like(x) if out is None else out
        for xb, yb, gate in _blocks(x, out):
            np.multiply(xb, _hardsigmoid(xb, gate), out=yb)
        return out
    raise ConfigError(f"unknown activation kind {kind!r}")


def _blocks(x, out):
    # (x block, out block, gate buffer) over blocks of x's memory order, the
    # gate one cache-sized buffer that every block reuses
    gate = np.empty(min(x.size, ACT_BLOCK), x.dtype)
    with np.nditer([x, out], ["external_loop", "buffered", "zerosize_ok"],
                   [["readonly"], ["writeonly"]], order="K", buffersize=ACT_BLOCK) as it:
        for xb, yb in it:
            yield xb, yb, gate[:xb.size]


def activation_grad(x: np.ndarray, kind: str) -> np.ndarray:
    """d activation / d x evaluated at x (subgradient 0 at kinks)."""
    if kind == "relu":
        return (x > 0.0).astype(x.dtype)
    if kind == "hardsigmoid":
        return ((x > -3.0) & (x < 3.0)).astype(x.dtype) / 6.0
    if kind == "hardswish":
        # hardsigmoid(x) + x*[-3 < x < 3]/6, block by block as in activation
        out = np.empty_like(x)
        for xb, yb, inner in _blocks(x, out):
            np.multiply(xb, (xb > -3.0) & (xb < 3.0), out=inner)
            inner /= 6.0
            np.add(_hardsigmoid(xb, yb), inner, out=yb)
        return out
    raise ConfigError(f"unknown activation kind {kind!r}")


def batch_norm_affine(gamma, beta, running_mean, running_var):
    """(scale, shift) per channel of infer-mode batch norm, y = x*scale + shift."""
    scale = gamma * (1.0 / np.sqrt(running_var + BN_EPS))
    return scale, beta - running_mean * scale


def batch_norm_forward(x, gamma, beta, running_mean, running_var, train, record=None):
    """Per-channel batch normalization.

    Train mode normalizes by biased batch statistics and returns updated
    running stats (momentum 0.1, i.e. new = 0.9*old + 0.1*batch). Infer mode
    normalizes by the running stats and returns them unchanged.

    Returns (y, ctx, new_running_mean, new_running_var). ctx feeds
    batch_norm_backward; it is recorded when `record` is true (defaults to
    `train`), so gradients can also be taken through a frozen-statistics
    forward pass.
    """
    if gamma.shape[0] != x.shape[1]:
        raise ConfigError(f"batch norm sized for {gamma.shape[0]} channels, input has {x.shape[1]}")
    record = train if record is None else record
    if train:
        mean = x.mean(axis=(0, 2, 3))
        xhat = x - mean[None, :, None, None]
        # two passes: E[x^2] - E[x]^2 cancels catastrophically when |mean| >> std
        var = np.einsum("nchw,nchw->c", xhat, xhat) / (x.size // x.shape[1])
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std[None, :, None, None]
        y = xhat * gamma[None, :, None, None]
        y += beta[None, :, None, None]
        new_mean = (1.0 - BN_MOMENTUM) * running_mean + BN_MOMENTUM * mean
        new_var = (1.0 - BN_MOMENTUM) * running_var + BN_MOMENTUM * var
    else:
        inv_std = 1.0 / np.sqrt(running_var + BN_EPS)
        scale, shift = batch_norm_affine(gamma, beta, running_mean, running_var)
        y = x * scale[None, :, None, None]
        y += shift[None, :, None, None]
        xhat = (x - running_mean[None, :, None, None]) * inv_std[None, :, None, None] \
            if record else None
        new_mean, new_var = running_mean, running_var
    ctx = ("train" if train else "infer", xhat, inv_std, gamma) if record else None
    return y, ctx, new_mean, new_var


def batch_norm_backward(grad_y, ctx):
    """Adjoint of batch_norm_forward; returns (grad_x, grad_gamma, grad_beta).

    Train mode carries the batch-statistics coupling terms:
      dx = gamma*inv_std * (dy - mean(dy) - xhat * mean(dy*xhat)),
    the two means taken from grad_beta and grad_gamma; infer mode is the
    plain affine adjoint dx = gamma*inv_std*dy.
    """
    mode, xhat, inv_std, gamma = ctx
    grad_gamma = np.einsum("nchw,nchw->c", grad_y, xhat)
    grad_beta = grad_y.sum(axis=(0, 2, 3))
    scale = (gamma * inv_std)[None, :, None, None]
    if mode == "train":
        count = grad_y.size // grad_y.shape[1]
        grad_x = xhat * (-grad_gamma / count)[None, :, None, None]
        grad_x += grad_y
        grad_x -= (grad_beta / count)[None, :, None, None]
        grad_x *= scale
    else:
        grad_x = grad_y * scale
    return grad_x, grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Binary container: 16-byte header (magic "T4D1", four u32 LE dims) followed
# by float64 LE entries in row-major (n, c, h, w) order.
# ---------------------------------------------------------------------------

def tensor4_parts(arr: np.ndarray):
    """(header, body) of the binary container of a rank-4 array; the body is
    the array's own memory when that is already C-ordered float64."""
    body = np.ascontiguousarray(tensor4(arr), dtype="<f8")
    return T4_MAGIC + struct.pack("<4I", *body.shape), body


def tensor4_from_bytes(blob: bytes) -> np.ndarray:
    """Parse one binary container; raises DataError on malformed input."""
    if len(blob) < 20 or blob[:4] != T4_MAGIC:
        raise DataError("not a tensor container (bad magic or truncated header)")
    dims = struct.unpack("<4I", blob[4:20])
    expected = 20 + 8 * math.prod(dims)  # Python integers: four u32 dims overflow int64
    if len(blob) < expected:
        raise DataError(f"tensor container truncated: need {expected} bytes, have {len(blob)}")
    data = np.frombuffer(blob[20:expected], dtype="<f8").reshape(dims)
    if not np.all(np.isfinite(data)):
        raise DataError("tensor container holds non-finite entries")
    return data.astype(np.float64, copy=False)


def write_tensor4(path, arr) -> None:
    """Serialize first, so that a rejected array leaves no file behind."""
    write_output(path, tensor4_parts(arr))


def read_tensor4(path) -> np.ndarray:
    return tensor4_from_bytes(read_input(path, "tensor container"))


def checksum64(*chunks) -> int:
    """64-bit content checksum (BLAKE2b-8) of the chunks' bytes in turn, used
    as the checkpoint trailer."""
    digest = hashlib.blake2b(digest_size=8)
    for chunk in chunks:
        digest.update(chunk)
    return struct.unpack("<Q", digest.digest())[0]
