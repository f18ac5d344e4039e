"""Rank-4 tensor primitives every other module composes.

A tensor here is a plain numpy array in (batch, channel, height, width)
row-major layout. The verification/test path runs in float64; training may
opt into float32. There is no autograd: each primitive that needs a
gradient ships a hand-derived backward companion.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import ConfigError, DataError

T4_MAGIC = b"T4D1"
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

ACTIVATIONS = ("relu", "hardswish", "hardsigmoid", "sigmoid")


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
    """1x1 convolution: y[n,o,i,j] = bias[o] + sum_c weights[o,c] * x[n,c,i,j]."""
    if weights.ndim != 2 or weights.shape[1] != x.shape[1]:
        raise ConfigError(
            f"pointwise weights {weights.shape} do not match {x.shape[1]} input channels")
    y = np.einsum("oc,nchw->nohw", weights, x, optimize=True)
    if bias is not None:
        y += bias[None, :, None, None]
    return y


def pointwise_conv_backward(grad_y, x, weights):
    """Adjoint of pointwise_conv; returns (grad_x, grad_weights, grad_bias)."""
    grad_x = np.einsum("oc,nohw->nchw", weights, grad_y, optimize=True)
    grad_w = np.einsum("nohw,nchw->oc", grad_y, x, optimize=True)
    grad_b = grad_y.sum(axis=(0, 2, 3))
    return grad_x, grad_w, grad_b


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over spatial positions, keeping 1x1 spatial dims."""
    return x.mean(axis=(2, 3), keepdims=True)


def global_avg_pool_backward(grad_y, spatial_shape):
    """Spread the pooled gradient uniformly back over (h, w)."""
    h, w = spatial_shape
    return np.broadcast_to(grad_y / (h * w), grad_y.shape[:2] + (h, w)).copy()


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise nonlinearity; hardsigmoid(t) = clamp((t+3)/6, 0, 1)."""
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "hardsigmoid":
        return np.clip((x + 3.0) / 6.0, 0.0, 1.0)
    if kind == "hardswish":
        return x * np.clip((x + 3.0) / 6.0, 0.0, 1.0)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    raise ConfigError(f"unknown activation kind {kind!r}")


def activation_grad(x: np.ndarray, kind: str) -> np.ndarray:
    """d activation / d x evaluated at x (subgradient 0 at kinks)."""
    if kind == "relu":
        return (x > 0.0).astype(x.dtype)
    if kind == "hardsigmoid":
        return ((x > -3.0) & (x < 3.0)).astype(x.dtype) / 6.0
    if kind == "hardswish":
        inner = ((x > -3.0) & (x < 3.0)).astype(x.dtype)
        return np.clip((x + 3.0) / 6.0, 0.0, 1.0) + x * inner / 6.0
    if kind == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-x))
        return s * (1.0 - s)
    raise ConfigError(f"unknown activation kind {kind!r}")


def batch_norm_forward(x, gamma, beta, running_mean, running_var, train,
                       momentum=BN_MOMENTUM, eps=BN_EPS, record=None):
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
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std[None, :, None, None]
        y = xhat * gamma[None, :, None, None]
        y += beta[None, :, None, None]
        new_mean = (1.0 - momentum) * running_mean + momentum * mean
        new_var = (1.0 - momentum) * running_var + momentum * var
    else:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        scale = gamma * inv_std
        y = x * scale[None, :, None, None]
        y += (beta - running_mean * scale)[None, :, None, None]
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

def tensor4_to_bytes(arr: np.ndarray) -> bytes:
    """Serialize a rank-4 array into the flat binary container."""
    arr = tensor4(arr)
    header = T4_MAGIC + struct.pack("<4I", *arr.shape)
    body = arr.astype("<f8").tobytes(order="C")
    return header + body


def tensor4_from_bytes(blob: bytes) -> np.ndarray:
    """Parse one binary container; raises DataError on malformed input."""
    if len(blob) < 20 or blob[:4] != T4_MAGIC:
        raise DataError("not a tensor container (bad magic or truncated header)")
    dims = struct.unpack("<4I", blob[4:20])
    count = int(np.prod(dims))
    expected = 20 + 8 * count
    if len(blob) < expected:
        raise DataError(f"tensor container truncated: need {expected} bytes, have {len(blob)}")
    data = np.frombuffer(blob[20:expected], dtype="<f8").reshape(dims)
    return tensor4(data)


def write_tensor4(path, arr) -> None:
    with open(path, "wb") as fh:
        fh.write(tensor4_to_bytes(arr))


def read_tensor4(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return tensor4_from_bytes(fh.read())


def checksum64(data: bytes) -> int:
    """64-bit content checksum (BLAKE2b-8), used as the checkpoint trailer."""
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return struct.unpack("<Q", digest)[0]
