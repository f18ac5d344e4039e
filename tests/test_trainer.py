"""Adam, early stopping, the training loop, and its determinism."""

import numpy as np
import pytest

from gipad import data, net, tensor, train
from gipad.errors import ConfigError


def make_dataset(tmp_path, seed=5, counts=(32, 8, 8), size=32):
    spec = data.SynthSpec(seed=seed, train=counts[0], dev=counts[1], test=counts[2],
                          size=size)
    rows = data.generate_synth(spec, tmp_path)
    return rows


def tiny_model(seed=1, placement="end"):
    cfg = net.ModelConfig(width_multiplier=0.25, input_size=32, groups=24, placement=placement)
    return net.build_model(cfg, tensor.make_rng(seed))


class TestAdam:
    def test_first_step_is_signed_lr(self):
        cfg = train.TrainConfig(lr=1e-3)
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([50.0, -80.0])}
        state = train.adam_init(params)
        train.adam_step(params, grads, state, cfg)
        np.testing.assert_allclose(params["w"], [1.0 - 1e-3, -2.0 + 1e-3], atol=1e-9)

    def test_zero_gradient_fixed_point(self):
        cfg = train.TrainConfig()
        params = {"w": np.array([0.3, 0.4])}
        state = train.adam_init(params)
        for _ in range(5):
            train.adam_step(params, {"w": np.zeros(2)}, state, cfg)
        np.testing.assert_array_equal(params["w"], [0.3, 0.4])

    def test_three_step_scalar_trace(self):
        # hand-computed bias-corrected Adam on a constant gradient g = 1:
        # m_hat = 1 and v_hat = 1 at every step, so each update is
        # -lr / (1 + eps), from theta_0 = 0
        lr, eps = 0.1, 1e-8
        cfg = train.TrainConfig(lr=lr, adam_eps=eps)
        params = {"w": np.array([0.0])}
        state = train.adam_init(params)
        expected = 0.0
        for _ in range(3):
            train.adam_step(params, {"w": np.array([1.0])}, state, cfg)
            expected -= lr / (1.0 + eps)
            assert params["w"][0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"lr": float("nan")}, {"lr": float("inf")}, {"lr": 0.0}, {"adam_eps": 0.0},
    {"beta1": 1.0}, {"beta2": 1.0}, {"label_smoothing": float("nan")}, {"precision": "half"},
])
def test_invalid_train_config_rejected(kwargs):
    with pytest.raises(ConfigError):
        train.TrainConfig(**kwargs)


class TestEarlyStopping:
    def test_forced_trace(self):
        losses = [1.0, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99]
        run, best, reason = train.run_early_stopping(losses, patience=5, max_epochs=100)
        assert (run, best, reason) == (7, 2, "early_stop")

    def test_strictly_decreasing_runs_out(self):
        losses = [1.0 / (i + 1) for i in range(30)]
        run, best, reason = train.run_early_stopping(losses, patience=5, max_epochs=30)
        assert (run, best, reason) == (30, 30, "max_epochs")

    def test_best_is_minimum_and_not_after_stop(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            losses = list(rng.uniform(0.1, 1.0, size=rng.integers(3, 25)))
            run, best, _ = train.run_early_stopping(losses, patience=3, max_epochs=100)
            assert best <= run
            assert losses[best - 1] == min(losses[:run])


class TestLossChain:
    def test_live_probability_is_softmax(self):
        logits = np.array([[0.3, 1.2], [2.0, -1.0]])
        p = train.live_probability(logits)
        ref = np.exp(logits[:, 1]) / np.exp(logits).sum(axis=1)
        np.testing.assert_allclose(p, ref, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        p = train.live_probability(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [0.0, 1.0], atol=1e-12)

    def test_smoothing_maps_targets(self):
        np.testing.assert_allclose(train.smooth_labels(np.array([0.0, 1.0]), 0.05),
                                   [0.025, 0.975])


class TestTrainLoop:
    def test_descent_on_frozen_batch(self):
        # one optimizer step at a small lr lowers the loss on the same batch;
        # over 10 seeds, at most one failure tolerated (Adam's first step is
        # a signed step of size lr on every coordinate, so lr must be small
        # for the first-order term to dominate)
        failures = 0
        for seed in range(10):
            model = tiny_model(seed)
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal((4, 3, 32, 32))
            y = np.array([1.0, 0.0, 1.0, 0.0])
            cfg = train.TrainConfig(lr=1e-5)
            params = dict(model.parameters())
            state = train.adam_init(params)
            logits = model.forward(x, train=True)
            loss0, grad = train.loss_and_logit_grad(logits, y, 0.05)
            model.backward(grad)
            train.adam_step(params, dict(model.gradients()), state, cfg)
            # compare in the same (batch-statistics) mode the step was taken in
            logits1 = model.forward(x, train=True, record=False)
            loss1, _ = train.loss_and_logit_grad(logits1, y, 0.05)
            if loss1 >= loss0:
                failures += 1
        assert failures <= 1

    def test_requires_both_splits(self, tmp_path):
        rows = make_dataset(tmp_path)
        train_only = [r for r in rows if r.split == "train"]
        with pytest.raises(ConfigError):
            train.train(tiny_model(), train_only, train.TrainConfig(), str(tmp_path))

    def test_history_and_best_checkpoint(self, tmp_path):
        rows = make_dataset(tmp_path)
        cfg = train.TrainConfig(seed=3, max_epochs=3, batch_size=16)
        model = tiny_model(3)
        history, best = train.train(model, rows, cfg, str(tmp_path))
        assert len(history.dev_loss) <= 3
        assert history.stop_reason in ("early_stop", "max_epochs")
        assert history.dev_loss[history.best_epoch - 1] == min(history.dev_loss)
        # the trainer ran the rule that run_early_stopping replays
        assert train.run_early_stopping(history.dev_loss, cfg.patience, cfg.max_epochs) == \
            (len(history.dev_loss), history.best_epoch, history.stop_reason)
        # the model holds the best parameters
        current = dict(model.parameters())
        for name, arr in current.items():
            np.testing.assert_array_equal(arr, best[name])

    def test_fixed_seed_reproducible(self, tmp_path):
        rows = make_dataset(tmp_path)
        cfg = train.TrainConfig(seed=11, max_epochs=2, batch_size=16)
        h1, _ = train.train(tiny_model(11), rows, cfg, str(tmp_path))
        h2, _ = train.train(tiny_model(11), rows, cfg, str(tmp_path))
        assert h1.train_loss == h2.train_loss
        assert h1.dev_loss == h2.dev_loss
        assert h1.dev_acc == h2.dev_acc

    def test_single_precision_runs(self, tmp_path):
        # both adaptive blocks: their generators read the cast arrays, not stale copies
        rows = make_dataset(tmp_path)
        cfg = train.TrainConfig(seed=2, max_epochs=1, batch_size=16, precision="single")
        model = tiny_model(2, placement="both")
        history, _ = train.train(model, rows, cfg, str(tmp_path))
        assert np.isfinite(history.train_loss[0])
        arrays = [*model.parameters(), *model.gradients(), *model.named_state()]
        assert len(list(model.gradients())) == len(list(model.parameters()))
        assert [name for name, arr in arrays if arr.dtype != np.float32] == []

    def test_memory_does_not_grow_with_the_split(self, tmp_path):
        """train reads one batch of frames at a time: over one epoch, four
        batches of train rows peak no higher than one batch, within a margin
        of a tenth of one batch's frames."""
        import gc
        import tracemalloc

        batch = 8
        rows = make_dataset(tmp_path, counts=(4 * batch, 4, 1))
        train_rows = data.split_rows(rows, "train")
        dev_rows = data.split_rows(rows, "dev")
        cfg = train.TrainConfig(seed=3, max_epochs=1, batch_size=batch)

        def peak(n):
            model = tiny_model(3)
            gc.collect()
            tracemalloc.start()
            try:
                # every step but the first runs while the last step's gradients
                # are held; a step beforehand has both runs hold them throughout
                model.forward(np.zeros((batch, 3, 32, 32)), train=True)
                model.backward(np.zeros((batch, 2)))
                tracemalloc.reset_peak()
                train.train(model, train_rows[:n] + dev_rows, cfg, str(tmp_path))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(batch)  # caches and lazy imports, which stay allocated
        one, four = peak(batch), peak(4 * batch)
        frames = batch * 3 * 32 * 32 * 8
        assert four <= one + frames // 10, (one, four)

    def test_history_csv_format(self, tmp_path):
        history = train.TrainHistory(train_loss=[0.5, 0.4], dev_loss=[0.6, 0.45],
                                     dev_acc=[0.7, 0.8], best_epoch=2,
                                     stop_reason="max_epochs")
        path = tmp_path / "history.csv"
        train.write_history_csv(path, history)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,dev_loss,dev_acc"
        assert lines[1].startswith("1,0.5")
        assert len(lines) == 3
        rows = data.read_csv(path, "history", lines[0].split(","))
        assert [[float(v) for v in f] for _, f in rows] == [list(r) for r in history.rows()]


class TestScoreBatchSize:
    """The scoring batch comes from the model's largest activation per sample."""

    def desk_model(self):
        cfg = net.ModelConfig(width_multiplier=0.25, input_size=64)
        return net.build_model(cfg, tensor.make_rng(0))

    def test_desk_model(self):
        # block1's expansion, 16 channels at 32x32 in float64
        model = self.desk_model()
        assert net.sample_activation_bytes(model, 64) == 128 * 1024
        assert train.score_batch_size(model) == train.SCORE_BYTES // (128 * 1024)
        assert train.score_batch_size(net.freeze(model)) == train.score_batch_size(model)

    def test_full_width_model_at_256(self):
        # block1's expansion, 64 channels at 128x128 in float64
        model = net.build_model(net.ModelConfig(), tensor.make_rng(0))
        assert net.sample_activation_bytes(model, 256) == 8 * 1024 * 1024
        assert train.score_batch_size(model) == 1
        assert train.score_batch_size(net.freeze(model)) == 1

    def test_single_precision_takes_twice_the_samples(self):
        model = self.desk_model()
        assert train.score_batch_size(model, np.float32) == \
            2 * train.score_batch_size(model, np.float64)
