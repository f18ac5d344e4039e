"""Hand-derived backward passes against central finite differences, plus
the adjoint identities of the linear operators."""

import numpy as np
import pytest

from gipad import net, ops, tensor, train

from oracles import conv2d_ref, fd_grad, gi_ref, max_rel_err

FD_TOL = 1e-4


def check_grad(analytic, f, arr, eps=1e-6, tol=FD_TOL):
    numeric = fd_grad(f, arr, eps)
    # central differences of a loss L resolve nothing below ~machine_eps*L/h;
    # a block whose analytic and numeric entries both sit under that bound
    # has a true gradient of zero (e.g. a bias ahead of train-mode batch norm)
    noise = 1e-13 * max(1.0, abs(f())) / eps
    if max(np.abs(analytic).max(), np.abs(numeric).max()) < noise:
        return
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"gradient mismatch: {err:.3e}"


class TestGiBackward:
    def test_zero_grad_y(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4, 3, 3))
        field = rng.standard_normal((1, 2, 3, 3, 3, 3))
        _, ctx = ops.group_involution_forward(x, field, ops.GroupMap(4, 2))
        gx, gf = ops.gi_backward(np.zeros((1, 4, 3, 3)), ctx)
        np.testing.assert_array_equal(gx, 0.0)
        np.testing.assert_array_equal(gf, 0.0)

    def test_scalar_degenerate(self):
        # 1x1x1x1 input with k=1: y = H*x, so grad_x = H*g and grad_field = x*g
        x = np.array(2.5).reshape(1, 1, 1, 1)
        field = np.array(-1.25).reshape(1, 1, 1, 1, 1, 1)
        y, ctx = ops.group_involution_forward(x, field, ops.GroupMap(1, 1))
        assert y[0, 0, 0, 0] == pytest.approx(-3.125)
        g = np.array(0.7).reshape(1, 1, 1, 1)
        gx, gf = ops.gi_backward(g, ctx)
        assert gx[0, 0, 0, 0] == pytest.approx(-1.25 * 0.7)
        assert gf[0, 0, 0, 0, 0, 0] == pytest.approx(2.5 * 0.7)

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 8, 6, 6))
        field = rng.standard_normal((2, 4, 3, 3, 6, 6))
        probe = rng.standard_normal((2, 8, 6, 6))
        gmap = ops.GroupMap(8, 4)

        def loss():
            y, _ = ops.group_involution_forward(x, field, gmap)
            return float((y * probe).sum())

        y, ctx = ops.group_involution_forward(x, field, gmap)
        gx, gf = ops.gi_backward(probe, ctx)
        check_grad(gx, loss, x)
        check_grad(gf, loss, field)

    @pytest.mark.parametrize("seed", range(6))
    def test_adjoint_identities(self, seed):
        # the operator is linear in x with the field held fixed, and linear
        # in the field with x held fixed; each side satisfies its own
        # adjoint identity <g, f(x,H)> = <grad, input>
        rng = np.random.default_rng(100 + seed)
        c = int(rng.choice([4, 6, 8]))
        g_count = int(rng.choice([d for d in (1, 2, c) if c % d == 0]))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        k = int(rng.choice([3, 5]))
        x = rng.standard_normal((2, c, h, w))
        field = rng.standard_normal((2, g_count, k, k, h, w))
        y, ctx = ops.group_involution_forward(x, field, ops.GroupMap(c, g_count))
        gy = rng.standard_normal(y.shape)
        gx, gf = ops.gi_backward(gy, ctx)
        lhs = float((gy * y).sum())
        assert abs(lhs - float((gx * x).sum())) <= 1e-10 * abs(lhs)
        assert abs(lhs - float((gf * field).sum())) <= 1e-10 * abs(lhs)


class TestConvBackward:
    def test_zero_grad_y(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 2, 4, 4))
        w = ops.ConvWeights(rng.standard_normal((3, 2, 3, 3)))
        y, ctx = ops.conv2d(x, w, bias=np.zeros(3), pad=1)
        gx, gk, gb = ops.conv2d_backward(np.zeros_like(y), ctx)
        np.testing.assert_array_equal(gx, 0.0)
        np.testing.assert_array_equal(gk, 0.0)
        np.testing.assert_array_equal(gb, 0.0)

    def test_1x1_reduces_to_matrix_products(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 4, 4))
        kernel = rng.standard_normal((5, 3, 1, 1))
        y, ctx = ops.conv2d(x, ops.ConvWeights(kernel))
        gy = rng.standard_normal(y.shape)
        gx, gk, _ = ops.conv2d_backward(gy, ctx)
        w2 = kernel[:, :, 0, 0]
        np.testing.assert_allclose(gx, np.einsum("oc,nohw->nchw", w2, gy), atol=1e-12)
        np.testing.assert_allclose(gk[:, :, 0, 0],
                                   np.einsum("nohw,nchw->oc", gy, x), atol=1e-12)

    @pytest.mark.parametrize("groups,stride", [(1, 1), (2, 1), (1, 2), (4, 2)])
    def test_finite_differences(self, groups, stride):
        rng = np.random.default_rng(4 + groups + stride)
        c_in, c_out, k = 4, 4, 3
        x = rng.standard_normal((2, c_in, 5, 5))
        kernel = rng.standard_normal((c_out, c_in // groups, k, k))
        bias = rng.standard_normal(c_out)
        probe_shape = ops.conv2d(x, ops.ConvWeights(kernel, groups), bias=bias,
                                 stride=stride, pad=1)[0].shape
        probe = rng.standard_normal(probe_shape)

        def loss():
            y, _ = ops.conv2d(x, ops.ConvWeights(kernel, groups), bias=bias,
                              stride=stride, pad=1)
            return float((y * probe).sum())

        _, ctx = ops.conv2d(x, ops.ConvWeights(kernel, groups), bias=bias,
                            stride=stride, pad=1)
        gx, gk, gb = ops.conv2d_backward(probe, ctx)
        check_grad(gx, loss, x)
        check_grad(gk, loss, kernel)
        check_grad(gb, loss, bias)


class TestTapEngineSmallMaps:
    """Maps smaller than the kernel radius, where some taps read only padding."""

    @pytest.mark.parametrize("hw", [(1, 1), (2, 2), (2, 3)])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise(self, hw, k, stride):
        rng = np.random.default_rng(hw[0] * 100 + hw[1] * 10 + k + stride)
        c = 3
        x = rng.standard_normal((2, c, *hw))
        kernel = rng.standard_normal((c, 1, k, k))
        w = ops.ConvWeights(kernel, groups=c)
        y, ctx = ops.conv2d(x, w, stride=stride, pad=k // 2)
        np.testing.assert_allclose(
            y, conv2d_ref(x, kernel, stride=stride, pad=k // 2, groups=c), atol=1e-12)
        probe = rng.standard_normal(y.shape)

        def loss():
            return float((ops.conv2d(x, w, stride=stride, pad=k // 2)[0] * probe).sum())

        gx, gk, _ = ops.conv2d_backward(probe, ctx)
        check_grad(gx, loss, x)
        check_grad(gk, loss, kernel)

    @pytest.mark.parametrize("hw", [(1, 1), (2, 2), (2, 3)])
    @pytest.mark.parametrize("k", [3, 5])
    def test_group_involution(self, hw, k):
        rng = np.random.default_rng(hw[0] * 100 + hw[1] * 10 + k)
        c, g = 4, 2
        x = rng.standard_normal((2, c, *hw))
        field = rng.standard_normal((2, g, k, k, *hw))
        gmap = ops.GroupMap(c, g)
        y, ctx = ops.group_involution_forward(x, field, gmap)
        np.testing.assert_allclose(y, gi_ref(x, field, g), atol=1e-12)
        probe = rng.standard_normal(y.shape)

        def loss():
            return float((ops.group_involution_forward(x, field, gmap)[0] * probe).sum())

        gx, gf = ops.gi_backward(probe, ctx)
        check_grad(gx, loss, x)
        check_grad(gf, loss, field)


class TestGeneratorBackward:
    @pytest.mark.parametrize("train_mode", [True, False])
    def test_finite_differences(self, train_mode):
        from test_spatial import random_generator_params

        rng = np.random.default_rng(5)
        c, k, groups, reduce = 4, 3, 2, 2
        params = random_generator_params(rng, c, k, groups, reduce)
        x = rng.standard_normal((2, c, 4, 4))
        probe = rng.standard_normal((2, groups, k, k, 4, 4))

        def loss():
            fld, _, _, _ = ops.generate_kernels(x, params, train=train_mode)
            return float((fld * probe).sum())

        _, ctx, _, _ = ops.generate_kernels(x, params, train=train_mode, record=True)
        gx, grads = ops.generate_kernels_backward(probe, ctx)
        check_grad(gx, loss, x)
        for key in ("squeeze_w", "squeeze_b", "gamma", "beta", "expand_w", "expand_b"):
            check_grad(grads[key], loss, getattr(params, key))


class TestLayerBackward:
    def _layer_check(self, layer, x, seed, train=True, tol=FD_TOL):
        rng = np.random.default_rng(seed)
        y = layer.forward(x, train=train, record=True)
        probe = rng.standard_normal(y.shape)

        def loss():
            return float((layer.forward(x, train=train, record=False) * probe).sum())

        layer.zero_grads()
        gx = layer.backward(probe)
        check_grad(gx, loss, x, tol=tol)
        for key, grad in layer.grads.items():
            check_grad(grad, loss, layer.params[key], tol=tol)

    def test_se_block(self):
        rng = np.random.default_rng(6)
        layer = net.SqueezeExcite(8, rng=rng)
        x = rng.standard_normal((2, 8, 4, 4))
        self._layer_check(layer, x, seed=60)

    def test_batch_norm_train(self):
        layer = net.BatchNorm(3)
        rng = np.random.default_rng(7)
        layer.params["gamma"] = rng.uniform(0.5, 1.5, 3)
        layer.params["beta"] = rng.standard_normal(3) * 0.2
        x = rng.standard_normal((4, 3, 3, 3))
        # running stats are replaced every train forward; gradients unaffected
        self._layer_check(layer, x, seed=70)

    def test_batch_norm_infer(self):
        layer = net.BatchNorm(3)
        rng = np.random.default_rng(8)
        layer.state["running_mean"] = rng.standard_normal(3) * 0.3
        layer.state["running_var"] = rng.uniform(0.5, 2.0, 3)
        x = rng.standard_normal((2, 3, 4, 4))
        self._layer_check(layer, x, seed=80, train=False)

    def test_group_involution_layer(self):
        rng = np.random.default_rng(9)
        layer = net.GroupInvolution(4, 3, 2, 2, rng=rng)
        # move off the all-zero expand init so the test is not vacuous
        layer.params["expand_w"] = rng.standard_normal(layer.params["expand_w"].shape) * 0.3
        x = rng.standard_normal((2, 4, 4, 4))
        self._layer_check(layer, x, seed=90)

    def test_linear_and_pool(self):
        rng = np.random.default_rng(10)
        pool = net.GlobalPool()
        head = net.Linear(4, 2, rng=rng)
        x = rng.standard_normal((3, 4, 5, 5))
        probe = rng.standard_normal((3, 2))

        def loss():
            return float((head.forward(pool.forward(x), record=False) * probe).sum())

        head.forward(pool.forward(x), record=True)
        head.zero_grads()
        gx = pool.backward(head.backward(probe))
        check_grad(gx, loss, x)
        check_grad(head.grads["w"], loss, head.params["w"])
        check_grad(head.grads["b"], loss, head.params["b"])


class TestLossGradients:
    def test_bce_closed_form(self):
        loss, _ = train.bce_loss(np.array([0.5]), np.array([1.0]), 0.0)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_perfect_prediction_hits_clamp_floor(self):
        loss, _ = train.bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.0)
        assert loss <= 1.1e-7

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(0.05, 0.95, size=12)
        y = (rng.random(12) < 0.5).astype(np.float64)
        _, grad = train.bce_loss(p, y, 0.05)

        def loss():
            return float(train.bce_loss(p, y, 0.05)[0])

        numeric = fd_grad(loss, p, eps=1e-7)
        assert max_rel_err(grad, numeric) < 1e-6

    def test_smoothing_penalizes_confident_predictions(self):
        p = np.array([0.999, 0.001])
        y = np.array([1.0, 0.0])
        plain, _ = train.bce_loss(p, y, 0.0)
        smoothed, _ = train.bce_loss(p, y, 0.05)
        assert plain < smoothed

    def test_logit_gradient_matches_fd(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((6, 2))
        y = (rng.random(6) < 0.5).astype(np.float64)
        _, grad = train.loss_and_logit_grad(logits, y, 0.05)

        def loss():
            return float(train.loss_and_logit_grad(logits, y, 0.05)[0])

        numeric = fd_grad(loss, logits, eps=1e-7)
        assert max_rel_err(grad, numeric) < 1e-6


class TestEndToEnd:
    def test_tiny_model_loss_gradients(self):
        # batch norm on running statistics (infer mode) per the verification
        # protocol; a couple of entries of every parameter tensor are probed
        cfg = net.ModelConfig(width_multiplier=0.25, input_size=32, groups=24)
        model = net.build_model(cfg, tensor.make_rng(21))
        rng = np.random.default_rng(22)
        for _ in range(2):  # move running stats off their init values
            model.forward(rng.standard_normal((4, 3, 32, 32)), train=True)
        x = rng.standard_normal((2, 3, 32, 32))
        y = np.array([1.0, 0.0])

        def loss():
            logits = model.forward(x, train=False, record=False)
            return float(train.loss_and_logit_grad(logits, y, 0.05)[0])

        logits = model.forward(x, train=False, record=True)
        _, gl = train.loss_and_logit_grad(logits, y, 0.05)
        model.zero_grads()
        model.backward(gl)
        grads = dict(model.gradients())
        params = dict(model.parameters())
        pick = np.random.default_rng(23)
        worst = 0.0
        for name, arr in params.items():
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            scale = max(np.abs(gflat).max(), 1e-12)
            for i in pick.integers(0, flat.size, size=2):
                old = flat[i]
                flat[i] = old + 1e-6
                up = loss()
                flat[i] = old - 1e-6
                down = loss()
                flat[i] = old
                fd = (up - down) / 2e-6
                worst = max(worst, abs(fd - gflat[i]) / max(scale, abs(fd)))
        assert worst < 1e-3, f"end-to-end gradient mismatch: {worst:.3e}"
