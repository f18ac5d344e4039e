"""Hand-derived backward passes against central finite differences, plus
the adjoint identities of the linear operators."""

import tracemalloc

import numpy as np
import pytest

from gipad import net, ops, tensor, train
from gipad.errors import InternalError

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

    @pytest.mark.parametrize("groups,stride,k,c_in,c_out,hw", [
        pytest.param(1, 1, 3, 4, 4, (5, 5), id="1-1"),
        pytest.param(2, 1, 3, 4, 4, (5, 5), id="2-1"),
        pytest.param(1, 2, 3, 4, 4, (5, 5), id="1-2"),
        pytest.param(4, 2, 3, 4, 4, (5, 5), id="4-2"),
        # stem-like: 3 channels, stride 2; on the odd side the last window reads padding
        pytest.param(1, 2, 3, 3, 4, (7, 6), id="stem-odd"),
        pytest.param(1, 2, 3, 3, 4, (6, 8), id="stem-even"),
        pytest.param(1, 2, 5, 3, 2, (6, 5), id="k5-even"),
        # a channel multiplier keeps groups == c_in off the depthwise path
        pytest.param(3, 1, 3, 3, 6, (4, 5), id="multiplier"),
    ])
    def test_finite_differences(self, groups, stride, k, c_in, c_out, hw):
        rng = np.random.default_rng(4 + groups + stride)
        x = rng.standard_normal((2, c_in, *hw))
        kernel = rng.standard_normal((c_out, c_in // groups, k, k))
        bias = rng.standard_normal(c_out)
        probe_shape = ops.conv2d(x, ops.ConvWeights(kernel, groups), bias=bias,
                                 stride=stride, pad=k // 2)[0].shape
        probe = rng.standard_normal(probe_shape)

        def loss():
            y, _ = ops.conv2d(x, ops.ConvWeights(kernel, groups), bias=bias,
                              stride=stride, pad=k // 2)
            return float((y * probe).sum())

        _, ctx = ops.conv2d(x, ops.ConvWeights(kernel, groups), bias=bias,
                            stride=stride, pad=k // 2)
        gx, gk, gb = ops.conv2d_backward(probe, ctx)
        check_grad(gx, loss, x)
        check_grad(gk, loss, kernel)
        check_grad(gb, loss, bias)


# ops.BLOCK_BYTES for the blocked tap-engine cases, from the bytes of one
# output row and of one output sample: one row per block, bands of two rows
# (the last one shorter on odd maps), one sample per block
BLOCKS = {"row": lambda row, sample: row,
          "two_rows": lambda row, sample: 2 * row + 8,
          "sample": lambda row, sample: sample + 8}


def tap_cases(small, larger, blocked, biased=None):
    """Parameters (*case, block): block None for the small and larger cases,
    which keep the ids they had before block was a parameter, and a BLOCKS
    key for the blocked ones. With `biased` (blocked cases) each parameter
    set ends in a bias flag, true only for those cases."""
    params = [pytest.param(*case, None, id=f"hw{i}") for i, case in enumerate(small)]
    for i, case in enumerate(larger, len(params)):
        params.append(pytest.param(*case, None, id="-".join(map(str, case[:-1])) + f"-hw{i}"))
    for i, (*case, block) in enumerate(blocked, len(params)):
        params.append(pytest.param(*case, block, id=f"{block}-hw{i}"))
    if biased is None:
        return params
    params = [pytest.param(*p.values, False, id=p.id) for p in params]
    for i, (*case, block) in enumerate(biased, len(params)):
        params.append(pytest.param(*case, block, True, id=f"bias-{block}-hw{i}"))
    return params


def assert_unchanged_by_blocks(monkeypatch, block, y, outs, run):
    """run() again under the BLOCK_BYTES that BLOCKS[block] gives for y's
    rows and samples: its outputs must equal outs bit for bit."""
    row = y[0, :, 0].nbytes
    monkeypatch.setattr(ops, "BLOCK_BYTES", BLOCKS[block](row, row * y.shape[2]))
    for want, got in zip(outs, run()):
        assert want.shape == got.shape and want.tobytes() == got.tobytes()


class TestTapEngineSmallMaps:
    """Maps smaller than the kernel radius, where some taps read only padding,
    and larger maps with the group count above, equal to and below the output
    width."""

    @pytest.mark.parametrize("c, hw, block, biased", tap_cases(
        [(3, (1, 1)), (3, (2, 2)), (3, (2, 3))],
        [(16, (9, 9)), (9, (8, 8)), (8, (8, 8)), (3, (8, 8))],
        [(16, (9, 9), "row"), (6, (9, 7), "two_rows"), (8, (8, 8), "sample")],
        biased=[(16, (9, 9), "row"), (6, (9, 7), "two_rows"), (8, (8, 8), "sample")]))
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise(self, monkeypatch, c, hw, block, biased, k, stride):
        rng = np.random.default_rng(hw[0] * 100 + hw[1] * 10 + k + stride)
        x = rng.standard_normal((2, c, *hw))
        kernel = rng.standard_normal((c, 1, k, k))
        bias = rng.standard_normal(c) if biased else None
        w = ops.ConvWeights(kernel, groups=c)
        y, ctx = ops.conv2d(x, w, bias, stride=stride, pad=k // 2)
        np.testing.assert_allclose(
            y, conv2d_ref(x, kernel, bias, stride=stride, pad=k // 2, groups=c), atol=1e-12)
        probe = rng.standard_normal(y.shape)

        def loss():
            return float((ops.conv2d(x, w, bias, stride=stride, pad=k // 2)[0] * probe).sum())

        gx, gk, gb = ops.conv2d_backward(probe, ctx)
        assert gk.flags.c_contiguous
        check_grad(gx, loss, x)
        check_grad(gk, loss, kernel)
        if biased:
            check_grad(gb, loss, bias)
        if block:
            def run():
                y, ctx = ops.conv2d(x, w, bias, stride=stride, pad=k // 2)
                return (y, *ops.conv2d_backward(probe, ctx)[:2])
            assert_unchanged_by_blocks(monkeypatch, block, y, (y, gx, gk), run)

    @pytest.mark.parametrize("c, g, hw, block", tap_cases(
        [(4, 2, (1, 1)), (4, 2, (2, 2)), (4, 2, (2, 3))],
        [(12, 6, (3, 3)), (6, 6, (2, 4)), (4, 2, (5, 5))],
        [(12, 6, (3, 3), "row"), (6, 3, (7, 5), "two_rows"), (4, 4, (6, 6), "sample")]))
    @pytest.mark.parametrize("k", [3, 5])
    def test_group_involution(self, monkeypatch, c, g, hw, block, k):
        rng = np.random.default_rng(hw[0] * 100 + hw[1] * 10 + k)
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
        if block:
            def run():
                y, ctx = ops.group_involution_forward(x, field, gmap)
                return (y, *ops.gi_backward(probe, ctx))
            assert_unchanged_by_blocks(monkeypatch, block, y, (y, gx, gf), run)


class TestGeneratorBackward:
    @pytest.mark.parametrize("train_mode", [True, False])
    def test_finite_differences(self, train_mode):
        from test_spatial import random_generator_params

        rng = np.random.default_rng(5)
        c, k, groups, reduce = 4, 3, 2, 2
        params, running, _ = random_generator_params(rng, c, k, groups, reduce)
        x = rng.standard_normal((2, c, 4, 4))
        probe = rng.standard_normal((2, groups, k, k, 4, 4))

        def loss():
            fld, _, _, _ = ops.generate_kernels(x, params, running, k, train=train_mode)
            return float((fld * probe).sum())

        _, ctx, _, _ = ops.generate_kernels(x, params, running, k, train=train_mode, record=True)
        gx, grads = ops.generate_kernels_backward(probe, ctx)
        check_grad(gx, loss, x)
        for key in ("squeeze_w", "squeeze_b", "gamma", "beta", "expand_w", "expand_b"):
            check_grad(grads[key], loss, params[key])


class TestLayerBackward:
    def _layer_check(self, layer, x, seed, train=True, tol=FD_TOL):
        rng = np.random.default_rng(seed)
        x_before = x.copy()
        # an unrecorded forward may work in place on its own output, never on x
        plain = layer.forward(x, train=train, record=False)
        assert x.tobytes() == x_before.tobytes()
        y = layer.forward(x, train=train, record=True)
        assert plain.tobytes() == y.tobytes()
        probe = rng.standard_normal(y.shape)

        def loss():
            return float((layer.forward(x, train=train, record=False) * probe).sum())

        gx = layer.backward(probe)
        check_grad(gx, loss, x, tol=tol)
        for key, grad in layer.grads.items():
            check_grad(grad, loss, layer.params[key], tol=tol)

    def test_se_block(self):
        rng = np.random.default_rng(6)
        layer = net.SqueezeExcite(8, rng=rng)
        x = rng.standard_normal((2, 8, 4, 4))
        self._layer_check(layer, x, seed=60)

    @pytest.mark.parametrize("act", [None, "relu", "hardswish"])
    def test_batch_norm_train(self, act):
        layer = net.BatchNorm(3, act)
        rng = np.random.default_rng(7)
        layer.params["gamma"] = rng.uniform(0.5, 1.5, 3)
        layer.params["beta"] = rng.standard_normal(3) * 0.2
        x = rng.standard_normal((4, 3, 3, 3))
        # running stats are replaced every train forward; gradients unaffected
        self._layer_check(layer, x, seed=70)

    @pytest.mark.parametrize("act", [None, "relu", "hardswish"])
    def test_batch_norm_infer(self, act):
        layer = net.BatchNorm(3, act)
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
        gx = pool.backward(head.backward(probe))
        check_grad(gx, loss, x)
        check_grad(head.grads["w"], loss, head.params["w"])
        check_grad(head.grads["b"], loss, head.params["b"])


class TestBatchNormActivation:
    """BatchNorm(c, act) keeps only xhat and rebuilds its pre-activation in
    the backward, bit for bit the BatchNorm(c) then Act(act) pair."""

    @pytest.mark.parametrize("act", ["relu", "hardswish"])
    def test_train_mode_bits_match_the_separate_pair(self, act):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 6, 5, 5)) * 2.0 + 0.3
        probe = rng.standard_normal(x.shape)
        fused, bn, sep = net.BatchNorm(6, act), net.BatchNorm(6), net.Act(act)
        fused.params["gamma"] = rng.uniform(0.5, 1.5, 6)
        fused.params["beta"] = rng.standard_normal(6)
        bn.params = {k: v.copy() for k, v in fused.params.items()}
        y = fused.forward(x, train=True, record=True)
        np.testing.assert_array_equal(y, sep.forward(bn.forward(x, train=True, record=True),
                                                     train=True, record=True))
        np.testing.assert_array_equal(fused.backward(probe), bn.backward(sep.backward(probe)))
        for key in ("gamma", "beta"):
            np.testing.assert_array_equal(fused.grads[key], bn.grads[key], err_msg=key)

    def test_recorded_forward_holds_xhat_and_output_only(self):
        x = np.random.default_rng(14).standard_normal((8, 16, 32, 32))
        layer = net.BatchNorm(16, "hardswish")
        tracemalloc.start()
        try:
            y = layer.forward(x, train=True, record=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert y.shape == x.shape
        assert held < 2.5 * x.nbytes


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


def both_placements_model(seed):
    cfg = net.ModelConfig(width_multiplier=0.25, input_size=32, groups=24, placement="both")
    return net.build_model(cfg, tensor.make_rng(seed))


class TestBackwardWritesGradients:
    def test_repeated_backward_gives_equal_gradients(self):
        # each backward writes its gradients: a second forward and backward
        # of the same input leaves them unchanged (train-mode batch norm
        # reads only batch statistics, so the second forward is the first)
        model = both_placements_model(24)
        x = np.random.default_rng(25).standard_normal((2, 3, 32, 32))
        logits = model.forward(x, train=True)
        _, gl = train.loss_and_logit_grad(logits, np.array([1.0, 0.0]), 0.05)
        first_gx = model.backward(gl)
        first = {name: arr.copy() for name, arr in model.gradients()}
        assert set(first) == {name for name, _ in model.parameters()}
        np.testing.assert_array_equal(model.forward(x, train=True), logits)
        np.testing.assert_array_equal(model.backward(gl), first_gx)
        for name, arr in model.gradients():
            np.testing.assert_array_equal(arr, first[name], err_msg=name)

    @pytest.mark.parametrize("kwargs, backwards", [({"train": True}, 2), ({}, 1)],
                             ids=["second_backward", "never_recorded"])
    def test_backward_without_its_context_is_an_internal_error(self, kwargs, backwards):
        # a backward frees each context it uses, so a recorded forward is
        # backpropagated once; the error names the first leaf it reaches
        model = both_placements_model(26)
        logits = model.forward(np.random.default_rng(27).standard_normal((2, 3, 32, 32)),
                               **kwargs)
        for _ in range(backwards - 1):
            model.backward(np.ones_like(logits))
        with pytest.raises(InternalError, match="backward of head without its context"):
            model.backward(np.ones_like(logits))

    def test_the_error_names_a_nested_leaf_by_its_dotted_name(self):
        model = both_placements_model(28)
        logits = model.forward(np.random.default_rng(29).standard_normal((2, 3, 32, 32)),
                               train=True)
        dict(model.named_leaves())["block1.expand_bn"]._ctx = None
        with pytest.raises(InternalError, match=r"backward of block1\.expand_bn without"):
            model.backward(np.ones_like(logits))


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
