"""Forward contracts of the spatial operators against nested-loop oracles,
reduction cases, the kernel generator, and the FLOP model."""

import numpy as np
import pytest

from gipad import ops
from gipad.errors import ConfigError

from oracles import conv2d_ref, gi_ref, involution_ref


def random_generator_params(rng, c, k, groups, reduce):
    """(params, running, k) for ops.generate_kernels."""
    squeezed = c // reduce
    params = {"squeeze_w": rng.standard_normal((squeezed, c)) * 0.3,
              "squeeze_b": rng.standard_normal(squeezed) * 0.1,
              "gamma": rng.uniform(0.5, 1.5, squeezed),
              "beta": rng.standard_normal(squeezed) * 0.1}
    running = {"running_mean": rng.standard_normal(squeezed) * 0.1,
               "running_var": rng.uniform(0.5, 2.0, squeezed)}
    params["expand_w"] = rng.standard_normal((groups * k * k, squeezed)) * 0.3
    params["expand_b"] = rng.standard_normal(groups * k * k) * 0.1
    return params, running, k


class TestConv2d:
    def test_center_delta_identity(self):
        x = np.random.default_rng(0).standard_normal((1, 1, 5, 5))
        kernel = np.zeros((1, 1, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        y, _ = ops.conv2d(x, ops.ConvWeights(kernel), pad=1)
        np.testing.assert_allclose(y, x, atol=0)

    def test_ones_kernel_corner_coverage(self):
        x = np.ones((1, 1, 2, 2))
        kernel = np.ones((1, 1, 3, 3))
        y, _ = ops.conv2d(x, ops.ConvWeights(kernel), pad=1)
        np.testing.assert_allclose(y, 4.0)

    def test_depthwise_equals_per_channel_calls(self):
        rng = np.random.default_rng(1)
        c = 4
        x = rng.standard_normal((2, c, 6, 6))
        kernel = rng.standard_normal((c, 1, 3, 3))
        y, _ = ops.conv2d(x, ops.ConvWeights(kernel, groups=c), pad=1)
        for ci in range(c):
            single, _ = ops.conv2d(x[:, ci:ci + 1], ops.ConvWeights(kernel[ci:ci + 1]), pad=1)
            np.testing.assert_allclose(y[:, ci:ci + 1], single, atol=1e-12)

    @pytest.mark.parametrize("groups,stride,k,c_in,c_out,hw", [
        pytest.param(1, 1, 3, 4, 8, (7, 6), id="1-1-3"),
        pytest.param(2, 1, 3, 4, 8, (7, 6), id="2-1-3"),
        pytest.param(4, 2, 5, 4, 8, (7, 6), id="4-2-5"),
        pytest.param(1, 2, 3, 4, 8, (7, 6), id="1-2-3"),
        # stem-like: 3 channels, stride 2; on the odd side the last window reads padding
        pytest.param(1, 2, 3, 3, 8, (9, 7), id="stem-odd"),
        pytest.param(1, 2, 3, 3, 8, (8, 10), id="stem-even"),
        pytest.param(1, 2, 5, 3, 4, (8, 6), id="k5-even"),
        # a channel multiplier keeps groups == c_in off the depthwise path
        pytest.param(3, 1, 3, 3, 6, (5, 6), id="multiplier"),
    ])
    def test_matches_nested_loop(self, groups, stride, k, c_in, c_out, hw):
        rng = np.random.default_rng(10 + groups + stride + k)
        x = rng.standard_normal((2, c_in, *hw))
        kernel = rng.standard_normal((c_out, c_in // groups, k, k))
        bias = rng.standard_normal(c_out)
        y, _ = ops.conv2d(x, ops.ConvWeights(kernel, groups), bias=bias, stride=stride,
                          pad=k // 2)
        ref = conv2d_ref(x, kernel, bias=bias, stride=stride, pad=k // 2, groups=groups)
        np.testing.assert_allclose(y, ref, atol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ConfigError):
            ops.conv2d(np.zeros((1, 3, 4, 4)), ops.ConvWeights(np.zeros((2, 2, 3, 3))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ops.ConvWeights(np.zeros((2, 2, 4, 4)))


class TestInvolution:
    def test_delta_field_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 3, 4, 4))
        field = np.zeros((1, 1, 3, 3, 4, 4))
        field[:, :, 1, 1] = 1.0
        np.testing.assert_allclose(ops.involution_forward(x, field), x, atol=0)

    def test_uniform_field_on_linear_ramp(self):
        # symmetric mean of a linear function equals the function (interior)
        h = w = 6
        a, b = 0.7, -0.3
        ramp = a * np.arange(h)[:, None] + b * np.arange(w)[None, :]
        x = np.stack([ramp, 2 * ramp])[None]
        field = np.full((1, 1, 3, 3, h, w), 1.0 / 9.0)
        y = ops.involution_forward(x, field)
        np.testing.assert_allclose(y[:, :, 1:-1, 1:-1], x[:, :, 1:-1, 1:-1], atol=1e-12)

    def test_channels_share_kernel(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((1, 1, 5, 5))
        x = base.repeat(4, axis=1)
        field = rng.standard_normal((1, 1, 3, 3, 5, 5))
        y = ops.involution_forward(x, field)
        for ci in range(1, 4):
            np.testing.assert_array_equal(y[:, ci], y[:, 0])

    def test_matches_nested_loop(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 5, 4))
        field = rng.standard_normal((2, 1, 3, 3, 5, 4))
        np.testing.assert_allclose(
            ops.involution_forward(x, field), involution_ref(x, field), atol=1e-12)


class TestGroupInvolution:
    def test_single_group_equals_involution(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 5, 5))
        field = rng.standard_normal((2, 1, 3, 3, 5, 5))
        y, _ = ops.group_involution_forward(x, field, ops.GroupMap(4, 1))
        np.testing.assert_allclose(y, ops.involution_forward(x, field), atol=1e-12)

    def test_per_channel_groups(self):
        rng = np.random.default_rng(6)
        c = 4
        x = rng.standard_normal((1, c, 4, 4))
        field = rng.standard_normal((1, c, 3, 3, 4, 4))
        y, _ = ops.group_involution_forward(x, field, ops.GroupMap(c, c))
        for ci in range(c):
            single = ops.involution_forward(x[:, ci:ci + 1], field[:, ci:ci + 1])
            np.testing.assert_allclose(y[:, ci:ci + 1], single, atol=1e-12)

    def test_matches_nested_loop(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 4, 3, 3))
        field = rng.standard_normal((1, 2, 3, 3, 3, 3))
        y, _ = ops.group_involution_forward(x, field, ops.GroupMap(4, 2))
        np.testing.assert_allclose(y, gi_ref(x, field, 2), atol=1e-12)

    def test_group_mismatch(self):
        with pytest.raises(ConfigError):
            ops.GroupMap(5, 2)
        with pytest.raises(ConfigError):
            ops.group_involution_forward(
                np.zeros((1, 4, 3, 3)), np.zeros((1, 3, 3, 3, 3, 3)), ops.GroupMap(4, 2))


class TestGenerateKernels:
    def test_shape_contract(self):
        rng = np.random.default_rng(8)
        c, k, groups, reduce = 8, 3, 4, 2
        gen = random_generator_params(rng, c, k, groups, reduce)
        x = rng.standard_normal((2, c, 5, 6))
        field, _, _, _ = ops.generate_kernels(x, *gen, train=False)
        assert field.shape == (2, groups, k, k, 5, 6)

    def test_zero_expand_zero_field(self):
        rng = np.random.default_rng(9)
        c, k, groups, reduce = 4, 3, 2, 2
        gen = random_generator_params(rng, c, k, groups, reduce)
        gen[0]["expand_w"][:] = 0.0
        gen[0]["expand_b"][:] = 0.0
        x = rng.standard_normal((1, c, 4, 4))
        field, _, _, _ = ops.generate_kernels(x, *gen, train=False)
        np.testing.assert_array_equal(field, 0.0)
        y, _ = ops.group_involution_forward(x, field, ops.GroupMap(c, groups))
        np.testing.assert_array_equal(y, 0.0)

    def test_constant_input_matches_depthwise_conv(self):
        rng = np.random.default_rng(10)
        c, k, groups, reduce = 6, 3, 3, 2
        gen = random_generator_params(rng, c, k, groups, reduce)
        x = np.ones((1, c, 5, 5)) * rng.standard_normal((1, c, 1, 1))
        field, _, _, _ = ops.generate_kernels(x, *gen, train=False)
        # spatially constant input -> spatially constant field
        assert np.abs(field - field[:, :, :, :, :1, :1]).max() < 1e-12
        y, _ = ops.group_involution_forward(x, field, ops.GroupMap(c, groups))
        kernel = np.zeros((c, 1, k, k))
        size = c // groups
        for ci in range(c):
            kernel[ci, 0] = field[0, ci // size, :, :, 0, 0]
        y_conv, _ = ops.conv2d(x, ops.ConvWeights(kernel, groups=c), pad=k // 2)
        np.testing.assert_allclose(y, y_conv, atol=1e-12)

    def test_reduce_mismatch(self):
        rng = np.random.default_rng(11)
        gen = random_generator_params(rng, 4, 3, 2, 2)
        with pytest.raises(ConfigError):
            ops.generate_kernels(rng.standard_normal((1, 6, 4, 4)), *gen)


class TestLayerFlops:
    def test_pointwise_closed_form(self):
        spec = {"kind": "pointwise", "c_out": 32}
        assert ops.layer_flops(spec, (16, 8, 8)) == 2 * 8 * 8 * 16 * 32 == 65536

    def test_depthwise_closed_form(self):
        spec = {"kind": "depthwise", "k": 3, "stride": 1}
        assert ops.layer_flops(spec, (8, 4, 4)) == 2 * 8 * 9 * 16 == 2304

    def test_gi_application_linear_in_height(self):
        spec = {"kind": "gi", "k": 5, "groups": 4, "reduce": 4}
        base = ops.layer_flops(spec, (16, 8, 8))
        doubled = ops.layer_flops(spec, (16, 16, 8))
        assert doubled == 2 * base

    def test_gi_application_term_scaling(self):
        # application term alone is exactly linear in c, k^2, h, w
        base = ops.gi_application_flops(8, 3, 4, 4)
        assert ops.gi_application_flops(16, 3, 4, 4) == 2 * base
        assert ops.gi_application_flops(8, 3, 8, 4) == 2 * base
        assert ops.gi_application_flops(8, 3, 4, 8) == 2 * base

    def test_linear(self):
        assert ops.layer_flops({"kind": "linear", "in": 960, "out": 2}, None) == 3840

    def test_conv_grouped(self):
        spec = {"kind": "conv", "c_out": 8, "k": 3, "stride": 2, "groups": 2}
        # 7x7 input, stride 2, pad 1 -> 4x4 output
        assert ops.layer_flops(spec, (4, 7, 7)) == 2 * 4 * 4 * 8 * 2 * 9

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ops.layer_flops({"kind": "fft"}, (1, 1, 1))
