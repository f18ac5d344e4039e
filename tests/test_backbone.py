"""Backbone construction, parameter/FLOP accounting, forward contracts,
checkpoints, and Grad-CAM."""

import tracemalloc

import numpy as np
import pytest

from gipad import config, net, ops, tensor
from gipad.errors import ConfigError, DataError, InternalError

from oracles import reference_forward

REF_PARAMS_M = 3.635
REF_GFLOPS = 0.643


def tiny_cfg(**kw):
    base = dict(width_multiplier=0.25, input_size=32, groups=24)
    base.update(kw)
    return net.ModelConfig(**base)


class TestBuild:
    def test_default_params_within_soft_target(self):
        model = net.build_model(net.ModelConfig(), tensor.make_rng(0))
        count = net.param_count(model)
        assert abs(count / 1e6 - REF_PARAMS_M) / REF_PARAMS_M < 0.15

    def test_begin_fewer_params_than_end(self):
        begin = net.build_model(net.ModelConfig(placement="begin"), tensor.make_rng(0))
        end = net.build_model(net.ModelConfig(placement="end"), tensor.make_rng(0))
        assert net.param_count(begin) < net.param_count(end)

    def test_tiny_model_forward_shape(self):
        model = net.build_model(net.ModelConfig(width_multiplier=0.25, input_size=64),
                                tensor.make_rng(1))
        x = np.random.default_rng(0).standard_normal((3, 3, 64, 64))
        assert model.forward(x).shape == (3, 2)

    def test_group_divisibility_error(self):
        with pytest.raises(ConfigError, match="960"):
            net.build_model(net.ModelConfig(groups=7), tensor.make_rng(0))

    def test_begin_group_divisibility_error(self):
        with pytest.raises(ConfigError, match="stem"):
            net.build_model(net.ModelConfig(placement="begin", groups=3), tensor.make_rng(0))

    def test_placement_none_has_no_gi(self):
        model = net.build_model(net.ModelConfig(placement="none", width_multiplier=0.25,
                                                input_size=32), tensor.make_rng(0))
        assert model.end_gi is None and "gi_begin" not in dict(model.layers)

    def test_placement_both(self):
        model = net.build_model(tiny_cfg(placement="both"), tensor.make_rng(0))
        assert model.end_gi is not None
        assert isinstance(dict(model.layers)["gi_begin"], net.GroupInvolution)

    def test_bad_placement_rejected(self):
        with pytest.raises(ConfigError):
            net.ModelConfig(placement="middle")

    @pytest.mark.parametrize("kwargs", [
        {"width_multiplier": 0.0}, {"width_multiplier": -1.0},
        {"width_multiplier": float("nan")}, {"width_multiplier": float("inf")},
        {"groups": 0}, {"reduce": 0},
        {"width_multiplier": 1e9}, {"width_multiplier": 4.5},
        {"gi_kernel": 13}, {"input_size": 4096},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            net.ModelConfig(**kwargs)

    def test_largest_config_accepted(self):
        cfg = net.ModelConfig(width_multiplier=config.MAX_WIDTH_MULTIPLIER,
                              gi_kernel=config.MAX_GI_KERNEL, input_size=config.MAX_INPUT_SIZE)
        assert cfg.input_size == 2048


class TestParamCount:
    def test_head_closed_form(self):
        model = net.build_model(net.ModelConfig(placement="none"), tensor.make_rng(0))
        head = model.layers[-1][1]
        assert sum(v.size for v in head.params.values()) == 960 * 2 + 2 == 1922

    def test_invariant_to_input_size(self):
        a = net.build_model(net.ModelConfig(input_size=64), tensor.make_rng(0))
        b = net.build_model(net.ModelConfig(input_size=256), tensor.make_rng(0))
        assert net.param_count(a) == net.param_count(b)

    def test_reduce_ordering(self):
        counts = [net.param_count(net.build_model(net.ModelConfig(reduce=r), tensor.make_rng(0)))
                  for r in (1, 4, 8)]
        assert counts[0] > counts[1] > counts[2]

    def test_gi_block_formula_matches_diff(self):
        end = net.build_model(net.ModelConfig(), tensor.make_rng(0))
        none = net.build_model(net.ModelConfig(placement="none"), tensor.make_rng(0))
        diff = net.param_count(end) - net.param_count(none)
        assert diff == net.gi_block_params(960, 4, 120, 5)

    def test_gi_block_formula_tiny(self):
        end = net.build_model(tiny_cfg(), tensor.make_rng(0))
        none = net.build_model(tiny_cfg(placement="none"), tensor.make_rng(0))
        diff = net.param_count(end) - net.param_count(none)
        assert diff == net.gi_block_params(240, 4, 24, 5)


class TestFlops:
    def test_resolution_ratios(self):
        model = net.build_model(net.ModelConfig(), tensor.make_rng(0))
        flops = {s: net.model_flops(model, s) for s in (64, 128, 256, 512)}
        for hi, lo in ((512, 256), (256, 128), (128, 64)):
            assert 3.7 <= flops[hi] / flops[lo] <= 4.0

    def test_quadratic_identity(self):
        # everything except pooled-descriptor layers is exactly quadratic in
        # resolution, so flops(2S) - 4*flops(S) = -3 * constant part
        model = net.build_model(net.ModelConfig(), tensor.make_rng(0))
        _, const = net.model_flops_breakdown(model, 128)
        assert net.model_flops(model, 256) - 4 * net.model_flops(model, 128) == -3 * const

    def test_monotone_in_groups(self):
        flops = [net.model_flops(net.build_model(net.ModelConfig(groups=g), tensor.make_rng(0)),
                                 256) for g in (16, 30, 60, 120, 240)]
        assert all(a < b for a, b in zip(flops, flops[1:]))

    def test_default_gflops_within_soft_target(self):
        model = net.build_model(net.ModelConfig(), tensor.make_rng(0))
        gflops = net.model_flops(model, 256) / 1e9
        assert abs(gflops - REF_GFLOPS) / REF_GFLOPS < 0.15

    def test_single_pointwise_model_closed_form(self):
        rng = tensor.make_rng(1)
        model = net.Model(None, [("pw", net.Pointwise(3, 7, rng=rng)),
                                 ("pool", net.GlobalPool()),
                                 ("head", net.Linear(7, 2, rng=rng))])
        assert net.model_flops(model, 16) == 2 * 16 * 16 * 3 * 7 + 2 * 7 * 2


class TestForward:
    def test_identical_rows_identical_logits(self):
        model = net.build_model(tiny_cfg(), tensor.make_rng(2))
        one = np.random.default_rng(1).standard_normal((1, 3, 32, 32))
        x = np.concatenate([one, one])
        logits = model.forward(x)
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_batch_permutation(self):
        model = net.build_model(tiny_cfg(), tensor.make_rng(2))
        x = np.random.default_rng(2).standard_normal((4, 3, 32, 32))
        perm = [2, 0, 3, 1]
        np.testing.assert_allclose(model.forward(x)[perm], model.forward(x[perm]), atol=1e-10)

    def test_wrong_input_size(self):
        model = net.build_model(tiny_cfg(), tensor.make_rng(2))
        with pytest.raises(ConfigError):
            model.forward(np.zeros((1, 3, 16, 16)))

    def test_matches_layerwise_reference(self):
        # composed nested-loop oracle over every layer of a tiny model
        model = net.build_model(tiny_cfg(), tensor.make_rng(3))
        rng = np.random.default_rng(3)
        for _ in range(2):  # make batch-norm statistics non-trivial
            model.forward(rng.standard_normal((2, 3, 32, 32)), train=True)
        x = rng.standard_normal((1, 3, 32, 32))
        np.testing.assert_allclose(model.forward(x), reference_forward(model, x), atol=1e-9)

    def test_pointwise_permutation_wiring(self):
        # permuting one layer's output channels together with the next
        # layer's input channels leaves the logits unchanged
        rng = tensor.make_rng(4)
        pw = net.Pointwise(3, 5, bias=True, rng=rng)
        bn = net.BatchNorm(5)
        act = net.Act("hardswish")
        pool = net.GlobalPool()
        head = net.Linear(5, 2, rng=rng)
        bn.state["running_mean"] = np.random.default_rng(5).standard_normal(5) * 0.2
        bn.state["running_var"] = np.random.default_rng(6).uniform(0.5, 2.0, 5)
        model = net.Model(None, [("pw", pw), ("bn", bn), ("act", act),
                                 ("pool", pool), ("head", head)])
        x = np.random.default_rng(7).standard_normal((2, 3, 6, 6))
        base = model.forward(x)
        perm = np.random.default_rng(8).permutation(5)
        pw.params["w"] = pw.params["w"][perm]
        pw.params["b"] = pw.params["b"][perm]
        for key in ("gamma", "beta"):
            bn.params[key] = bn.params[key][perm]
        for key in ("running_mean", "running_var"):
            bn.state[key] = bn.state[key][perm]
        head.params["w"] = head.params["w"][:, perm]
        np.testing.assert_allclose(model.forward(x), base, atol=1e-12)


class TestContexts:
    def test_forward_drops_the_last_forwards_contexts_first(self):
        # so a training step's recorded arrays are not held beside the next
        # step's, nor through dev scoring
        model = net.build_model(tiny_cfg(placement="both"), tensor.make_rng(48))
        x = np.random.default_rng(49).standard_normal((2, 3, 32, 32))
        model.forward(x, train=True)
        stem = model.layers[0][1]
        held = []

        def first_layer(*args, **kwargs):
            held.extend(name for name, leaf in model.named_leaves() if leaf._ctx is not None)
            return net.Conv.forward(stem, *args, **kwargs)

        stem.forward = first_layer
        for kwargs in ({"train": True}, {}):
            model.forward(x, **kwargs)
        assert held == []

    def test_backward_frees_each_context_once_used(self):
        # a leaf's context goes as soon as its backward returns, so the
        # contexts of later layers are not held through an earlier layer's
        # backward, nor past the step
        model = net.build_model(tiny_cfg(placement="both"), tensor.make_rng(50))
        leaves = list(model.named_leaves())
        held, ran = [], []

        def wrap(i, leaf):
            def backward(grad_y):
                ran.append(leaves[i][0])
                held.extend(name for name, later in leaves[i + 1:] if later._ctx is not None)
                return type(leaf).backward(leaf, grad_y)
            leaf.backward = backward

        for i, (_, leaf) in enumerate(leaves):
            wrap(i, leaf)
        logits = model.forward(np.random.default_rng(51).standard_normal((2, 3, 32, 32)),
                               train=True)
        model.backward(np.ones_like(logits))
        assert ran == [name for name, _ in reversed(leaves)]
        assert held == []
        assert [name for name, leaf in leaves if leaf._ctx is not None] == []


class TestForwardUntil:
    def test_stops_before_the_given_layer(self):
        model = net.build_model(tiny_cfg(), tensor.make_rng(30))
        x = np.random.default_rng(30).standard_normal((2, 3, 32, 32))
        (_, pool), (_, head) = model.layers[-2:]
        features = model.forward(x, until=pool)
        assert features.shape == (2, 240, 1, 1)
        np.testing.assert_array_equal(head.forward(pool.forward(features)), model.forward(x))

    def test_generated_field_is_the_applied_one(self):
        model = net.build_model(tiny_cfg(), tensor.make_rng(31))
        gi = model.end_gi
        gi.params["expand_w"][...] = np.random.default_rng(31).standard_normal(
            gi.params["expand_w"].shape) * 0.1
        x = model.forward(np.random.default_rng(32).standard_normal((1, 3, 32, 32)), until=gi)
        fld, _ = gi.field(x)
        applied, _ = ops.group_involution_forward(x, fld, ops.GroupMap(gi.c, gi.groups))
        np.testing.assert_array_equal(applied, gi.forward(x))

    def test_layer_not_in_the_model_is_an_internal_error(self):
        model = net.build_model(tiny_cfg(), tensor.make_rng(33))
        frozen = net.freeze(model)
        x = np.zeros((1, 3, 32, 32))
        with pytest.raises(InternalError, match="not one of this model's layers"):
            model.forward(x, until=frozen.end_gi)
        with pytest.raises(InternalError, match="not one of this model's layers"):
            frozen.forward(x, until=model.end_gi)


def trained_like(model, seed, expand_scale):
    """Small seeded moves of every batch norm and of the generators' expand
    weights, as training would make: with identity batch norms folding would
    be exact by accident, and with a zero expand layer every kernel is the
    identity."""
    rng = np.random.default_rng(seed)
    for name, arr in model.parameters():
        if name.endswith(".expand_w"):
            arr[...] = rng.normal(0.0, expand_scale, arr.shape)
        elif name.endswith(".gamma"):
            arr *= 1.0 + rng.normal(0.0, 0.05, arr.shape)
        elif name.endswith(".beta"):
            arr += rng.normal(0.0, 0.05, arr.shape)
    for name, arr in model.named_state():
        if name.endswith(".running_mean"):
            arr += rng.normal(0.0, 0.05, arr.shape)
        else:
            arr *= np.exp(rng.normal(0.0, 0.05, arr.shape))
    return model


def max_rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# the frozen model's parity bound against the live infer-mode forward; it
# measures 2e-14 on the full-width model at 256x256 and 5e-15 on the desk model
FROZEN_RTOL = 1e-12


class TestFrozen:
    @pytest.fixture(scope="class", params=["desk", "desk_both", "full_256"])
    def models(self, request):
        if request.param.startswith("desk"):
            placement = "both" if request.param == "desk_both" else "end"
            cfg = net.ModelConfig(width_multiplier=0.25, input_size=64, placement=placement)
            n, scale = 4, 0.02
        else:
            cfg, n, scale = net.ModelConfig(), 1, 0.002
        live = trained_like(net.build_model(cfg, tensor.make_rng(40)), 41, scale)
        x = np.random.default_rng(42).standard_normal((n, 3, cfg.input_size, cfg.input_size))
        return live, net.freeze(live), x

    def test_logits_match_live(self, models):
        live, frozen, x = models
        assert max_rel(frozen.forward(x), live.forward(x, train=False, record=False)) \
            < FROZEN_RTOL

    def test_end_gi_input_and_field_match_live(self, models):
        live, frozen, x = models
        want = live.forward(x[:1], until=live.end_gi)
        got = frozen.forward(x[:1], until=frozen.end_gi)
        assert frozen.end_gi is not live.end_gi
        assert max_rel(got, want) < FROZEN_RTOL
        assert max_rel(frozen.end_gi.field(got)[0], live.end_gi.field(want)[0]) < FROZEN_RTOL

    def test_live_model_unchanged(self):
        live = trained_like(net.build_model(tiny_cfg(), tensor.make_rng(43)), 44, 0.02)
        x = np.random.default_rng(45).standard_normal((2, 3, 32, 32))
        before = [arr.copy() for _, arr in (*live.parameters(), *live.named_state())]
        logits = live.forward(x)
        net.freeze(live).forward(x)
        after = [arr for _, arr in (*live.parameters(), *live.named_state())]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
        assert live.forward(x).tobytes() == logits.tobytes()

    def test_inference_only(self):
        frozen = net.freeze(net.build_model(tiny_cfg(), tensor.make_rng(46)))
        x = np.zeros((1, 3, 32, 32))
        for kwargs in ({"train": True}, {"record": True}):
            with pytest.raises(InternalError, match="inference only"):
                frozen.forward(x, **kwargs)
        with pytest.raises(InternalError, match="no backward"):
            frozen.backward(np.zeros((1, 2)))

    def test_tap_layers_copy_to_nchw_memory_when_training_or_recording(self):
        # training's batch-norm sums are fixed on NCHW memory, so the live tap
        # layers copy the engine's channels-last output to it when training or
        # recording; plain inference keeps it for the next 1x1 conv
        rng = tensor.make_rng(47)
        x = rng.standard_normal((2, 8, 5, 5))
        for layer in (net.Conv(8, 8, 3, groups=8, rng=rng),
                      net.GroupInvolution(8, 3, 8, 2, rng=rng),
                      net.GroupInvolution(8, 3, 1, 2, rng=rng)):
            y_train, y_record = layer.forward(x, train=True), layer.forward(x, record=True)
            y_infer = layer.forward(x)
            assert y_train.flags.c_contiguous and y_record.flags.c_contiguous
            assert y_infer.transpose(0, 2, 3, 1).flags.c_contiguous
            # a new GroupInvolution is the identity, whatever its generator's mode
            assert y_train.tobytes() == y_record.tobytes() == y_infer.tobytes()


# The desk model's (width 0.25, 64x64) arrays in checkpoint order, leaf by
# leaf: parameters, then running statistics after "|". Checkpoints written
# by earlier versions load only while these names and shapes stay the same.
DESK_ARRAYS = """
stem kernel=8x3x3x3
stem_bn gamma=8 beta=8 | running_mean=8 running_var=8
block0.depth kernel=8x1x3x3
block0.depth_bn gamma=8 beta=8 | running_mean=8 running_var=8
block0.project w=8x8
block0.project_bn gamma=8 beta=8 | running_mean=8 running_var=8
block1.expand w=16x8
block1.expand_bn gamma=16 beta=16 | running_mean=16 running_var=16
block1.depth kernel=16x1x3x3
block1.depth_bn gamma=16 beta=16 | running_mean=16 running_var=16
block1.project w=8x16
block1.project_bn gamma=8 beta=8 | running_mean=8 running_var=8
block2.expand w=24x8
block2.expand_bn gamma=24 beta=24 | running_mean=24 running_var=24
block2.depth kernel=24x1x3x3
block2.depth_bn gamma=24 beta=24 | running_mean=24 running_var=24
block2.project w=8x24
block2.project_bn gamma=8 beta=8 | running_mean=8 running_var=8
block3.expand w=24x8
block3.expand_bn gamma=24 beta=24 | running_mean=24 running_var=24
block3.depth kernel=24x1x5x5
block3.depth_bn gamma=24 beta=24 | running_mean=24 running_var=24
block3.se w1=8x24 b1=8 w2=24x8 b2=24
block3.project w=16x24
block3.project_bn gamma=16 beta=16 | running_mean=16 running_var=16
block4.expand w=32x16
block4.expand_bn gamma=32 beta=32 | running_mean=32 running_var=32
block4.depth kernel=32x1x5x5
block4.depth_bn gamma=32 beta=32 | running_mean=32 running_var=32
block4.se w1=8x32 b1=8 w2=32x8 b2=32
block4.project w=16x32
block4.project_bn gamma=16 beta=16 | running_mean=16 running_var=16
block5.expand w=32x16
block5.expand_bn gamma=32 beta=32 | running_mean=32 running_var=32
block5.depth kernel=32x1x5x5
block5.depth_bn gamma=32 beta=32 | running_mean=32 running_var=32
block5.se w1=8x32 b1=8 w2=32x8 b2=32
block5.project w=16x32
block5.project_bn gamma=16 beta=16 | running_mean=16 running_var=16
block6.expand w=64x16
block6.expand_bn gamma=64 beta=64 | running_mean=64 running_var=64
block6.depth kernel=64x1x3x3
block6.depth_bn gamma=64 beta=64 | running_mean=64 running_var=64
block6.project w=24x64
block6.project_bn gamma=24 beta=24 | running_mean=24 running_var=24
block7.expand w=48x24
block7.expand_bn gamma=48 beta=48 | running_mean=48 running_var=48
block7.depth kernel=48x1x3x3
block7.depth_bn gamma=48 beta=48 | running_mean=48 running_var=48
block7.project w=24x48
block7.project_bn gamma=24 beta=24 | running_mean=24 running_var=24
block8.expand w=48x24
block8.expand_bn gamma=48 beta=48 | running_mean=48 running_var=48
block8.depth kernel=48x1x3x3
block8.depth_bn gamma=48 beta=48 | running_mean=48 running_var=48
block8.project w=24x48
block8.project_bn gamma=24 beta=24 | running_mean=24 running_var=24
block9.expand w=48x24
block9.expand_bn gamma=48 beta=48 | running_mean=48 running_var=48
block9.depth kernel=48x1x3x3
block9.depth_bn gamma=48 beta=48 | running_mean=48 running_var=48
block9.project w=24x48
block9.project_bn gamma=24 beta=24 | running_mean=24 running_var=24
block10.expand w=120x24
block10.expand_bn gamma=120 beta=120 | running_mean=120 running_var=120
block10.depth kernel=120x1x3x3
block10.depth_bn gamma=120 beta=120 | running_mean=120 running_var=120
block10.se w1=32x120 b1=32 w2=120x32 b2=120
block10.project w=32x120
block10.project_bn gamma=32 beta=32 | running_mean=32 running_var=32
block11.expand w=168x32
block11.expand_bn gamma=168 beta=168 | running_mean=168 running_var=168
block11.depth kernel=168x1x3x3
block11.depth_bn gamma=168 beta=168 | running_mean=168 running_var=168
block11.se w1=40x168 b1=40 w2=168x40 b2=168
block11.project w=32x168
block11.project_bn gamma=32 beta=32 | running_mean=32 running_var=32
block12.expand w=168x32
block12.expand_bn gamma=168 beta=168 | running_mean=168 running_var=168
block12.depth kernel=168x1x5x5
block12.depth_bn gamma=168 beta=168 | running_mean=168 running_var=168
block12.se w1=40x168 b1=40 w2=168x40 b2=168
block12.project w=40x168
block12.project_bn gamma=40 beta=40 | running_mean=40 running_var=40
block13.expand w=240x40
block13.expand_bn gamma=240 beta=240 | running_mean=240 running_var=240
block13.depth kernel=240x1x5x5
block13.depth_bn gamma=240 beta=240 | running_mean=240 running_var=240
block13.se w1=64x240 b1=64 w2=240x64 b2=240
block13.project w=40x240
block13.project_bn gamma=40 beta=40 | running_mean=40 running_var=40
block14.expand w=240x40
block14.expand_bn gamma=240 beta=240 | running_mean=240 running_var=240
block14.depth kernel=240x1x5x5
block14.depth_bn gamma=240 beta=240 | running_mean=240 running_var=240
block14.se w1=64x240 b1=64 w2=240x64 b2=240
block14.project w=40x240
block14.project_bn gamma=40 beta=40 | running_mean=40 running_var=40
final w=240x40
final_bn gamma=240 beta=240 | running_mean=240 running_var=240
gi_end squeeze_w=60x240 squeeze_b=60 gamma=60 beta=60
gi_end expand_w=3000x60 expand_b=3000 | running_mean=60 running_var=60
gi_end_bn gamma=240 beta=240 | running_mean=240 running_var=240
head w=2x240 b=2
"""


def desk_arrays():
    want = {"params": [], "state": []}
    for line in DESK_ARRAYS.strip().splitlines():
        name, *tokens = line.split()
        kind = "params"
        for token in tokens:
            if token == "|":
                kind = "state"
                continue
            key, dims = token.split("=")
            want[kind].append((f"{name}.{key}", tuple(int(d) for d in dims.split("x"))))
    return want


def traced_peak(fn, *args):
    """(result, peak bytes that tracemalloc saw allocated while fn ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = net.build_model(tiny_cfg(), tensor.make_rng(9))
        rng = np.random.default_rng(9)
        model.forward(rng.standard_normal((2, 3, 32, 32)), train=True)
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, model)
        loaded = net.load_checkpoint(path)
        assert loaded.cfg == model.cfg
        for (na, a), (nb, b) in zip(model.parameters(), loaded.parameters()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        for (na, a), (nb, b) in zip(model.named_state(), loaded.named_state()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        x = rng.standard_normal((1, 3, 32, 32))
        np.testing.assert_array_equal(model.forward(x), loaded.forward(x))

    def test_checksum_detects_corruption(self, tmp_path):
        model = net.build_model(tiny_cfg(), tensor.make_rng(10))
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, model)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="checksum"):
            net.load_checkpoint(path)

    def test_desk_array_names_and_shapes_are_stable(self):
        model = net.build_model(net.ModelConfig(width_multiplier=0.25, input_size=64),
                                tensor.make_rng(0))
        want = desk_arrays()
        assert [(name, arr.shape) for name, arr in model.parameters()] == want["params"]
        assert [(name, arr.shape) for name, arr in model.named_state()] == want["state"]

    def test_save_holds_no_copy_of_the_arrays(self, tmp_path):
        # the arrays go to the file from their own memory: nothing near the
        # file's size is allocated (three copies of it were before)
        model = net.build_model(tiny_cfg(), tensor.make_rng(12))
        path = tmp_path / "m.ckpt"
        _, peak = traced_peak(net.save_checkpoint, path, model)
        assert peak < 0.5 * path.stat().st_size

    def test_load_holds_the_file_bytes_once(self, tmp_path):
        # the file's bytes and the built model, about twice the file, with
        # no second copy of the bytes (three times the file before)
        path = tmp_path / "m.ckpt"
        net.save_checkpoint(path, net.build_model(tiny_cfg(), tensor.make_rng(13)))
        model, peak = traced_peak(net.load_checkpoint, path)
        assert peak < 2.5 * path.stat().st_size
        assert net.param_count(model) > 0

    def test_save_rejects_non_finite_before_opening_the_file(self, tmp_path):
        model = net.build_model(tiny_cfg(), tensor.make_rng(14))
        dict(model.named_state())["final_bn.running_var"][0] = np.inf
        path = tmp_path / "m.ckpt"
        with pytest.raises(ConfigError, match="non-finite"):
            net.save_checkpoint(path, model)
        assert not path.exists()


    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"junk bytes")
        with pytest.raises(DataError):
            net.load_checkpoint(path)


def hand_model(rng_seed=11):
    """Pointwise -> act -> pool -> head, small enough for a symbolic oracle."""
    rng = tensor.make_rng(rng_seed)
    pw = net.Pointwise(3, 4, bias=True, rng=rng)
    model = net.Model(None, [("pw", pw), ("act", net.Act("relu")),
                             ("pool", net.GlobalPool()),
                             ("head", net.Linear(4, 2, rng=rng))])
    return model, pw


class TestGradcam:
    def test_uniform_for_constant_map(self):
        model, pw = hand_model()
        pw.params["w"][:] = 0.0
        pw.params["b"][:] = 1.0  # constant positive feature map
        head = model.layers[-1][1]
        head.params["w"][:] = np.abs(head.params["w"])
        x = np.random.default_rng(12).standard_normal((1, 3, 8, 8))
        heat = net.gradcam(model, x, class_index=1)
        assert heat.shape == (8, 8)
        assert np.all(heat == heat[0, 0])

    def test_range_and_shape(self):
        model = net.build_model(tiny_cfg(), tensor.make_rng(13))
        x = np.random.default_rng(13).standard_normal((1, 3, 32, 32))
        heat = net.gradcam(model, x, 0)
        assert heat.shape == (32, 32)
        assert heat.min() >= 0.0 and heat.max() <= 1.0

    def test_deterministic(self):
        model = net.build_model(tiny_cfg(), tensor.make_rng(14))
        x = np.random.default_rng(14).standard_normal((1, 3, 32, 32))
        np.testing.assert_array_equal(net.gradcam(model, x, 1), net.gradcam(model, x, 1))

    def test_matches_manual_chain_rule(self):
        # two learnable layers (pointwise, head); the map gradient w.r.t.
        # channel c is W[class, c]/(h*w) everywhere, so the oracle is direct
        from oracles import bilinear_ref

        model, pw = hand_model(15)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 3, 6, 6))
        heat = net.gradcam(model, x, class_index=1)

        amap = np.maximum(
            np.einsum("oc,nchw->nohw", pw.params["w"], x)[0]
            + pw.params["b"][:, None, None], 0.0)
        w_head = model.layers[-1][1].params["w"]
        alpha = w_head[1] / (6 * 6)
        cam = np.maximum((alpha[:, None, None] * amap).sum(axis=0), 0.0)
        cam = (cam - cam.min()) / (cam.max() - cam.min())
        expected = bilinear_ref(cam, 6)
        np.testing.assert_allclose(heat, expected, atol=1e-10)

    def test_requires_pool_head_tail(self):
        model, _ = hand_model()
        truncated = net.Model(None, model.layers[:-1])
        with pytest.raises(ConfigError):
            net.gradcam(truncated, np.zeros((1, 3, 4, 4)), 0)
