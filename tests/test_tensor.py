"""Rank-4 primitives: padding, pointwise conv, pooling, activations,
batch norm, and the binary tensor container."""

import io
import struct
import tracemalloc

import numpy as np
import pytest

from gipad import tensor
from gipad.errors import ConfigError, DataError


class TestZeroPad:
    def test_ones_pad_one(self):
        x = np.ones((1, 1, 2, 2))
        y = tensor.zero_pad(x, 1)
        assert y.shape == (1, 1, 4, 4)
        assert y[0, 0, 1:3, 1:3].sum() == 4.0
        assert y.sum() == 4.0

    def test_pad_zero_is_identity(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 5))
        assert tensor.zero_pad(x, 0) is x

    def test_sum_preserved(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 5, 4))
        # direct summation oracle
        assert tensor.zero_pad(x, 3).sum() == pytest.approx(x.sum(), rel=1e-12)

    def test_crop_back_identity(self):
        x = np.random.default_rng(2).standard_normal((2, 2, 3, 3))
        np.testing.assert_array_equal(tensor.crop_pad(tensor.zero_pad(x, 2), 2), x)

    def test_negative_pad_rejected(self):
        with pytest.raises(ConfigError):
            tensor.zero_pad(np.zeros((1, 1, 2, 2)), -1)


class TestPointwiseConv:
    def test_identity_weights(self):
        x = np.random.default_rng(3).standard_normal((2, 4, 3, 3))
        y = tensor.pointwise_conv(x, np.eye(4), np.zeros(4))
        np.testing.assert_allclose(y, x, atol=0)

    def test_all_half_weights(self):
        x = np.ones((1, 3, 2, 2))
        y = tensor.pointwise_conv(x, np.full((2, 3), 0.5), np.zeros(2))
        np.testing.assert_allclose(y, 1.5)

    def test_channel_difference_cancels(self):
        x = np.random.default_rng(4).standard_normal((1, 1, 3, 3)).repeat(2, axis=1)
        y = tensor.pointwise_conv(x, np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(y, 0.0, atol=1e-15)

    def test_linearity_without_bias(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((3, 2))
        x1 = rng.standard_normal((1, 2, 3, 3))
        x2 = rng.standard_normal((1, 2, 3, 3))
        a, b = 1.7, -0.3
        lhs = tensor.pointwise_conv(a * x1 + b * x2, w)
        rhs = a * tensor.pointwise_conv(x1, w) + b * tensor.pointwise_conv(x2, w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            tensor.pointwise_conv(np.zeros((1, 3, 2, 2)), np.zeros((2, 4)))


def pointwise_backward_sums(grad_y, x, w):
    """pointwise_conv_backward by explicit sums over every index."""
    n, c, h, wd = x.shape
    o = w.shape[0]
    gx = np.zeros(x.shape)
    gw = np.zeros(w.shape)
    gb = np.zeros(o)
    for ni in range(n):
        for i in range(h):
            for j in range(wd):
                for oi in range(o):
                    gb[oi] += grad_y[ni, oi, i, j]
                    for ci in range(c):
                        gx[ni, ci, i, j] += w[oi, ci] * grad_y[ni, oi, i, j]
                        gw[oi, ci] += grad_y[ni, oi, i, j] * x[ni, ci, i, j]
    return gx, gw, gb


def field_ordered_grad(rng, n, groups, k, h, w):
    """A (n, G*k*k, h, w) gradient stored in (n, h, w, G, k, k) order, the
    layout of the field gradient that gi_backward hands the generator."""
    stored = rng.standard_normal((n, h, w, groups, k, k))
    return stored.transpose(0, 3, 4, 5, 1, 2).reshape(n, groups * k * k, h, w)


class TestPointwiseConvBackward:
    # (x shape, output channels, gradient layout)
    CASES = {
        "contiguous": ((2, 3, 4, 5), 4, "c"),
        "field_ordered": ((2, 5, 3, 4), 2 * 3 * 3, "field"),
        "pooled": ((3, 6, 1, 1), 4, "c"),
    }

    def _case(self, name, seed):
        shape, o, layout = self.CASES[name]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape)
        w = rng.standard_normal((o, shape[1]))
        n, _, h, wd = shape
        if layout == "field":
            gy = field_ordered_grad(rng, n, 2, 3, h, wd)
            assert not gy.flags.c_contiguous
        else:
            gy = rng.standard_normal((n, o, h, wd))
        return x, w, gy

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_explicit_sums(self, name):
        x, w, gy = self._case(name, 40)
        for got, want in zip(tensor.pointwise_conv_backward(gy, x, w),
                             pointwise_backward_sums(gy, x, w)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_adjoint_identities(self, name):
        x, w, gy = self._case(name, 41)
        b = np.random.default_rng(42).standard_normal(w.shape[0])
        gx, gw, gb = tensor.pointwise_conv_backward(gy, x, w)
        y = tensor.pointwise_conv(x, w)
        lhs = float((y * gy).sum())
        # y is linear in x and in w separately; the bias enters as a constant map
        assert abs(lhs - float((x * gx).sum())) <= 1e-12 * abs(lhs)
        assert abs(lhs - float((w * gw).sum())) <= 1e-12 * abs(lhs)
        bias_part = float(((tensor.pointwise_conv(x, w, b) - y) * gy).sum())
        assert abs(bias_part - float((b * gb).sum())) <= 1e-12 * abs(bias_part)


class TestGlobalAvgPool:
    def test_constant(self):
        y = tensor.global_avg_pool(np.full((2, 3, 4, 4), 2.5))
        assert y.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(y, 2.5)

    def test_direct_mean(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
        assert tensor.global_avg_pool(x)[0, 0, 0, 0] == pytest.approx(2.5)

    def test_mean_consistency(self):
        x = np.random.default_rng(6).standard_normal((2, 5, 3, 4))
        pooled = tensor.global_avg_pool(x)
        assert pooled.mean() == pytest.approx(x.mean(), rel=1e-12)

    def test_channel_permutation_commutes(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 6, 3, 3))
        perm = rng.permutation(6)
        a = tensor.global_avg_pool(x)[:, perm]
        b = tensor.global_avg_pool(x[:, perm])
        np.testing.assert_array_equal(a, b)


class TestActivation:
    def test_relu(self):
        np.testing.assert_allclose(
            tensor.activation(np.array([[[[-1.0, 2.0]]]]), "relu"), [[[[0.0, 2.0]]]])

    def test_hardswish_boundaries(self):
        x = np.array([[[[0.0, 3.0, -3.0, -4.0]]]])
        np.testing.assert_allclose(
            tensor.activation(x, "hardswish"), [[[[0.0, 3.0, 0.0, 0.0]]]])

    def test_hardsigmoid_clamp(self):
        x = np.array([[[[-3.0, 0.0, 3.0, 9.0]]]])
        np.testing.assert_allclose(
            tensor.activation(x, "hardsigmoid"), [[[[0.0, 0.5, 1.0, 1.0]]]])

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            tensor.activation(np.zeros((1, 1, 1, 1)), "gelu")

    @pytest.mark.parametrize("kind", tensor.ACTIVATIONS)
    def test_grad_matches_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        x = rng.uniform(-5, 5, size=(1, 2, 4, 4))
        # keep clear of the kinks where the subgradient is taken
        x[np.abs(x) < 1e-3] = 0.5
        x[np.abs(np.abs(x) - 3.0) < 1e-3] = 0.5
        h = 1e-7
        fd = (tensor.activation(x + h, kind) - tensor.activation(x - h, kind)) / (2 * h)
        np.testing.assert_allclose(tensor.activation_grad(x, kind), fd, atol=1e-6)

    def test_hardswish_grad_is_blocked(self):
        # through one cache-sized gate buffer: no input-sized temporaries, and
        # the bits and memory order of the unblocked formula
        x = np.random.default_rng(9).uniform(-5, 5, size=(8, 16, 32, 32))
        x.flat[:4] = [-3.0, 3.0, 0.0, -0.0]
        for xl in (x, np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)):
            inner = ((xl > -3.0) & (xl < 3.0)).astype(xl.dtype)
            want = tensor.activation(xl, "hardsigmoid") + xl * inner / 6.0
            tracemalloc.start()
            try:
                got = tensor.activation_grad(xl, "hardswish")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * xl.nbytes
            assert got.tobytes() == want.tobytes() and got.strides == xl.strides


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 3, 5, 5)) * 4.0 + 2.0
        gamma, beta = np.ones(3), np.zeros(3)
        y, _, _, _ = tensor.batch_norm_forward(x, gamma, beta, np.zeros(3), np.ones(3), True)
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-6
        assert np.abs(y.var(axis=(0, 2, 3)) - 1.0).max() < 1e-4

    def test_zero_gamma_gives_beta(self):
        x = np.random.default_rng(10).standard_normal((4, 2, 3, 3))
        beta = np.array([1.5, -2.0])
        y, _, _, _ = tensor.batch_norm_forward(x, np.zeros(2), beta, np.zeros(2), np.ones(2), True)
        np.testing.assert_allclose(y[:, 0], 1.5)
        np.testing.assert_allclose(y[:, 1], -2.0)

    def test_infer_is_affine(self):
        x = np.random.default_rng(11).standard_normal((2, 2, 3, 3))
        gamma = np.array([2.0, 0.5])
        beta = np.array([1.0, -1.0])
        y, _, _, _ = tensor.batch_norm_forward(
            x, gamma, beta, np.zeros(2), np.ones(2), train=False)
        expected = gamma[None, :, None, None] * x / np.sqrt(1 + tensor.BN_EPS) \
            + beta[None, :, None, None]
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_running_stats_update(self):
        x = np.random.default_rng(12).standard_normal((16, 2, 4, 4)) * 3.0 + 1.0
        rm, rv = np.zeros(2), np.ones(2)
        _, _, new_m, new_v = tensor.batch_norm_forward(
            x, np.ones(2), np.zeros(2), rm, rv, train=True)
        batch_mean = x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(new_m, 0.9 * rm + 0.1 * batch_mean)
        assert not np.allclose(new_v, rv)

    def test_size_mismatch(self):
        with pytest.raises(ConfigError):
            tensor.batch_norm_forward(np.zeros((1, 3, 2, 2)), np.ones(2), np.zeros(2),
                                      np.zeros(2), np.ones(2), True)

    def test_train_large_mean_matches_two_pass(self):
        # one-pass E[x^2] - E[x]^2 loses about 1e-8 of the variance here
        x = np.random.default_rng(13).standard_normal((8, 3, 5, 5)) + 1e4
        gamma, beta = np.array([1.5, 0.5, -2.0]), np.array([0.1, 0.0, -0.3])
        y, _, _, new_v = tensor.batch_norm_forward(
            x, gamma, beta, np.zeros(3), np.ones(3), train=True)
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = ((x - mean) ** 2).mean(axis=(0, 2, 3), keepdims=True)
        expected = gamma[None, :, None, None] * (x - mean) / np.sqrt(var + tensor.BN_EPS) \
            + beta[None, :, None, None]
        np.testing.assert_allclose(y, expected, rtol=0, atol=1e-10)
        np.testing.assert_allclose(new_v, 0.9 + 0.1 * var.ravel(), rtol=1e-12)

    def test_infer_output_independent_of_record(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 4, 4))
        args = (x, rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(3),
                rng.uniform(0.5, 2.0, 3), False)
        y_rec, ctx, _, _ = tensor.batch_norm_forward(*args, record=True)
        y_bare, none, _, _ = tensor.batch_norm_forward(*args, record=False)
        assert ctx is not None and none is None
        np.testing.assert_array_equal(y_rec, y_bare)

    @pytest.mark.parametrize("train", [True, False])
    def test_same_values_in_either_memory_order(self, train):
        # the same x and grad_y stored NCHW-contiguous and channels-last
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 4, 5, 6)) * 2.0 + 0.5
        gy = rng.standard_normal(x.shape)
        args = (rng.uniform(0.5, 1.5, 4), rng.standard_normal(4), rng.standard_normal(4),
                rng.uniform(0.5, 2.0, 4), train)
        outs = []
        for to_layout in (np.ascontiguousarray,
                          lambda a: np.ascontiguousarray(a.transpose(0, 2, 3, 1))
                          .transpose(0, 3, 1, 2)):
            xl = to_layout(x)
            assert xl.flags.c_contiguous == (to_layout is np.ascontiguousarray)
            y, ctx, mean, var = tensor.batch_norm_forward(xl, *args, record=True)
            outs.append((y, mean, var, *tensor.batch_norm_backward(to_layout(gy), ctx)))
        for a, b in zip(*outs):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestPurity:
    def test_ops_bitwise_repeatable(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 4, 5, 5))
        w = rng.standard_normal((3, 4))
        for compute in (lambda: tensor.zero_pad(x, 2),
                        lambda: tensor.pointwise_conv(x, w),
                        lambda: tensor.global_avg_pool(x),
                        lambda: tensor.activation(x, "hardswish")):
            np.testing.assert_array_equal(compute(), compute())

    def test_rng_stream_reproducible(self):
        a = tensor.make_rng(42).standard_normal(8)
        b = tensor.make_rng(42).standard_normal(8)
        np.testing.assert_array_equal(a, b)
        c = tensor.derived_rng(42, "train").standard_normal(8)
        d = tensor.derived_rng(42, "train").standard_normal(8)
        np.testing.assert_array_equal(c, d)
        assert not np.array_equal(a, c)


class TestContainer:
    def test_roundtrip(self):
        x = np.random.default_rng(14).standard_normal((2, 3, 4, 5))
        blob = b"".join(tensor.tensor4_parts(x))
        np.testing.assert_array_equal(tensor.tensor4_from_bytes(blob), x)

    def test_header_layout(self):
        x = np.arange(24.0).reshape(1, 2, 3, 4)
        blob = b"".join(tensor.tensor4_parts(x))
        assert blob[:4] == b"T4D1"
        assert struct.unpack("<4I", blob[4:20]) == (1, 2, 3, 4)
        assert len(blob) == 20 + 24 * 8
        first = struct.unpack("<d", blob[20:28])[0]
        assert first == 0.0

    def test_file_roundtrip(self, tmp_path):
        x = np.random.default_rng(15).standard_normal((1, 1, 2, 2))
        path = tmp_path / "t.t4"
        tensor.write_tensor4(path, x)
        np.testing.assert_array_equal(tensor.read_tensor4(path), x)

    def test_bad_magic(self):
        with pytest.raises(DataError):
            tensor.tensor4_from_bytes(b"NOPE" + b"\x00" * 32)

    def test_truncated(self):
        x = np.zeros((1, 1, 2, 2))
        blob = b"".join(tensor.tensor4_parts(x))
        with pytest.raises(DataError):
            tensor.tensor4_from_bytes(blob[:-4])

    def test_non_finite_rejected(self, tmp_path):
        x = np.zeros((1, 1, 1, 2))
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(ConfigError):
            b"".join(tensor.tensor4_parts(x))
        with pytest.raises(ConfigError):
            tensor.write_tensor4(tmp_path / "t.t4", x)
        assert not (tmp_path / "t.t4").exists()

    def test_non_finite_bytes_are_data_errors(self):
        blob = b"".join(tensor.tensor4_parts(np.zeros((1, 1, 1, 2))))
        blob = blob[:20] + struct.pack("<d", np.nan) + blob[28:]
        with pytest.raises(DataError, match="non-finite"):
            tensor.tensor4_from_bytes(blob)

    def test_overflowing_dims(self):
        # 65536**4 wraps to 0 in int64; the count must not
        blob = b"T4D1" + struct.pack("<4I", *[65536] * 4) + bytes(8)
        with pytest.raises(DataError, match="truncated"):
            tensor.tensor4_from_bytes(blob)
