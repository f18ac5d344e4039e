"""Independent reference implementations used as test oracles.

Everything here is written from the operator definitions with naive loops
or direct summation, deliberately sharing no code with the package under
test. Slow is fine; these run at desk scale only.
"""

import numpy as np


def conv2d_ref(x, kernel, bias=None, stride=1, pad=0, groups=1):
    """Nested-loop grouped convolution with zero padding."""
    n, c_in, h, w = x.shape
    c_out, c_in_g, k, _ = kernel.shape
    r_out = c_out // groups
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    y = np.zeros((n, c_out, h_out, w_out))
    for ni in range(n):
        for o in range(c_out):
            g = o // r_out
            for i in range(h_out):
                for j in range(w_out):
                    acc = 0.0 if bias is None else bias[o]
                    for ig in range(c_in_g):
                        ci = g * c_in_g + ig
                        for u in range(k):
                            for v in range(k):
                                ii = i * stride + u - pad
                                jj = j * stride + v - pad
                                if 0 <= ii < h and 0 <= jj < w:
                                    acc += kernel[o, ig, u, v] * x[ni, ci, ii, jj]
                    y[ni, o, i, j] = acc
    return y


def involution_ref(x, field):
    """Nested-loop channel-shared location-specific filtering (G = 1)."""
    n, c, h, w = x.shape
    k = field.shape[2]
    r = k // 2
    y = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for u in range(k):
                        for v in range(k):
                            ii, jj = i + u - r, j + v - r
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += field[ni, 0, u, v, i, j] * x[ni, ci, ii, jj]
                    y[ni, ci, i, j] = acc
    return y


def gi_ref(x, field, groups):
    """Nested-loop group involution: one kernel per (sample, group, position)."""
    n, c, h, w = x.shape
    k = field.shape[2]
    r = k // 2
    size = c // groups
    y = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            g = ci // size
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for u in range(k):
                        for v in range(k):
                            ii, jj = i + u - r, j + v - r
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += field[ni, g, u, v, i, j] * x[ni, ci, ii, jj]
                    y[ni, ci, i, j] = acc
    return y


def dft2_ref(kernel):
    """Direct O(k^4) two-dimensional DFT by explicit summation."""
    k = kernel.shape[0]
    out = np.zeros((k, k), dtype=complex)
    for fu in range(k):
        for fv in range(k):
            acc = 0.0 + 0.0j
            for u in range(k):
                for v in range(k):
                    acc += kernel[u, v] * np.exp(-2j * np.pi * (fu * u + fv * v) / k)
            out[fu, fv] = acc
    return out


def bilinear_ref(image, size):
    """Per-pixel bilinear resampling with half-pixel centers and border clamp."""
    squeeze = image.ndim == 2
    img = image[:, :, None] if squeeze else image
    h, w, c = img.shape
    out = np.zeros((size, size, c))
    for i in range(size):
        for j in range(size):
            sy = (i + 0.5) * (h / size) - 0.5
            sx = (j + 0.5) * (w / size) - 0.5
            y0 = min(max(int(np.floor(sy)), 0), h - 1)
            x0 = min(max(int(np.floor(sx)), 0), w - 1)
            y1 = min(y0 + 1, h - 1)
            x1 = min(x0 + 1, w - 1)
            wy = min(max(sy - y0, 0.0), 1.0)
            wx = min(max(sx - x0, 0.0), 1.0)
            for ch in range(c):
                top = img[y0, x0, ch] * (1 - wx) + img[y0, x1, ch] * wx
                bot = img[y1, x0, ch] * (1 - wx) + img[y1, x1, ch] * wx
                out[i, j, ch] = top * (1 - wy) + bot * wy
    return out[:, :, 0] if squeeze else out


def max_rel_err(analytic, numeric):
    """Largest entrywise deviation, relative to the block's gradient scale.

    Normalizing per entry blows up on entries that are pure finite-difference
    noise, so each deviation is measured against the largest magnitude seen
    in either block. The 1e-6 floor absorbs blocks whose true gradient is
    identically zero (central differences resolve nothing below ~1e-9 there).
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-6)
    return np.abs(analytic - numeric).max() / scale


def fd_grad(f, arr, eps=1e-6):
    """Central finite differences of scalar f with respect to every entry."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = f()
        flat[i] = old - eps
        down = f()
        flat[i] = old
        gflat[i] = (up - down) / (2 * eps)
    return grad


def fd_grad_sampled(f, arr, indices, eps=1e-6):
    """Central finite differences at selected flat indices only."""
    flat = arr.reshape(-1)
    out = np.zeros(len(indices))
    for pos, i in enumerate(indices):
        old = flat[i]
        flat[i] = old + eps
        up = f()
        flat[i] = old - eps
        down = f()
        flat[i] = old
        out[pos] = (up - down) / (2 * eps)
    return out


# ---------------------------------------------------------------------------
# Scalar reference evaluation of a built model, layer by layer, using only
# the naive ops above plus direct formula transcriptions.
# ---------------------------------------------------------------------------

def _bn_ref(x, gamma, beta, mean, var, eps=1e-5):
    y = np.zeros_like(x)
    for ci in range(x.shape[1]):
        y[:, ci] = gamma[ci] * (x[:, ci] - mean[ci]) / np.sqrt(var[ci] + eps) + beta[ci]
    return y


def _act_ref(x, kind):
    def hsig(t):
        return min(max((t + 3.0) / 6.0, 0.0), 1.0)

    out = np.zeros_like(x)
    flat_in = x.reshape(-1)
    flat_out = out.reshape(-1)
    for i, t in enumerate(flat_in):
        if kind == "relu":
            flat_out[i] = max(t, 0.0)
        elif kind == "hardsigmoid":
            flat_out[i] = hsig(t)
        elif kind == "hardswish":
            flat_out[i] = t * hsig(t)
        else:
            flat_out[i] = 1.0 / (1.0 + np.exp(-t))
    return out


def _pointwise_ref(x, w, b=None):
    n, c, h, wd = x.shape
    c_out = w.shape[0]
    y = np.zeros((n, c_out, h, wd))
    for ni in range(n):
        for o in range(c_out):
            for i in range(h):
                for j in range(wd):
                    acc = 0.0 if b is None else b[o]
                    for ci in range(c):
                        acc += w[o, ci] * x[ni, ci, i, j]
                    y[ni, o, i, j] = acc
    return y


def _se_ref(layer, x):
    n, c, h, w = x.shape
    y = np.zeros_like(x)
    for ni in range(n):
        z = np.array([x[ni, ci].mean() for ci in range(c)])
        h1 = layer.params["w1"] @ z + layer.params["b1"]
        a1 = np.maximum(h1, 0.0)
        h2 = layer.params["w2"] @ a1 + layer.params["b2"]
        gate = np.clip((h2 + 3.0) / 6.0, 0.0, 1.0)
        for ci in range(c):
            y[ni, ci] = x[ni, ci] * gate[ci]
    return y


def _gi_layer_ref(layer, x):
    s = _pointwise_ref(x, layer.params["squeeze_w"], layer.params["squeeze_b"])
    b = _bn_ref(s, layer.params["gamma"], layer.params["beta"],
                layer.state["running_mean"], layer.state["running_var"])
    a = _act_ref(b, "relu")
    e = _pointwise_ref(a, layer.params["expand_w"], layer.params["expand_b"])
    n, _, h, w = x.shape
    k = layer.k
    field = e.reshape(n, layer.groups, k, k, h, w)
    return gi_ref(x, field, layer.groups)


def _leaf_ref(leaf, y):
    from gipad import net

    if isinstance(leaf, net.Conv):
        return conv2d_ref(y, leaf.params["kernel"], stride=leaf.stride,
                          pad=leaf.k // 2, groups=leaf.groups)
    if isinstance(leaf, net.Pointwise):
        return _pointwise_ref(y, leaf.params["w"], leaf.params.get("b"))
    if isinstance(leaf, net.BatchNorm):
        y = _bn_ref(y, leaf.params["gamma"], leaf.params["beta"],
                    leaf.state["running_mean"], leaf.state["running_var"])
        return y if leaf.act is None else _act_ref(y, leaf.act)
    if isinstance(leaf, net.Act):
        return _act_ref(y, leaf.kind)
    if isinstance(leaf, net.SqueezeExcite):
        return _se_ref(leaf, y)
    if isinstance(leaf, net.GroupInvolution):
        return _gi_layer_ref(leaf, y)
    if isinstance(leaf, net.GlobalPool):
        n, c = y.shape[:2]
        pooled = np.zeros((n, c, 1, 1))
        for ni in range(n):
            for ci in range(c):
                pooled[ni, ci, 0, 0] = y[ni, ci].mean()
        return pooled
    if isinstance(leaf, net.Linear):
        z = y.reshape(y.shape[0], -1)
        return z @ leaf.params["w"].T + leaf.params["b"]
    raise AssertionError(f"reference_forward: unhandled layer {type(leaf).__name__}")


def reference_forward(model, x):
    """Evaluate a model in infer mode using only the oracle implementations."""
    from gipad import net

    y = x
    for _, layer in model.layers:
        if isinstance(layer, net.Sequence):
            y_in = y
            for _, leaf in layer.layers:
                y = _leaf_ref(leaf, y)
            if layer.residual:
                y = y + y_in
        else:
            y = _leaf_ref(layer, y)
    return y
