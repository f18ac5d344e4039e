"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each. Run with `pytest tests/test_acceptance.py -v -s`.

The desk-scale learning runs (criteria 8 and 9) train through the CLI on
the synthetic benchmark; everything else is exercised in-process.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from gipad import audit, data, metrics, net, ops, tensor, train

from oracles import bilinear_ref, fd_grad, gi_ref, max_rel_err
from test_metrics import (oracle_auc, oracle_eer, oracle_rates, oracle_youden,
                          random_score_set)
from test_spatial import random_generator_params

REF_PARAMS_M = 3.635
REF_GFLOPS = 0.643
REF_ANISOTROPY_DIRECTION = "bonafide > attack"   # reported effect direction
REF_HF_LF_DIRECTION = "attack > bonafide"


def report(num, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "gipad", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, f"cli {' '.join(args[:2])} failed:\n{proc.stderr}"
    return proc


# ---------------------------------------------------------------------------
# Desk-scale benchmark runs, shared by criteria 8, 9, and 11.
# ---------------------------------------------------------------------------

BENCH = dict(seed=7, train=512, dev=128, test=128, size=64)
BENCH_TRAIN_FLAGS = ("--width-multiplier", "0.25", "--input-size", "64",
                     "--placement", "end", "--max-epochs", "10", "--seed", "7")


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    dataset = root / "dataset"
    t0 = time.time()
    run_cli("synth", "--seed", str(BENCH["seed"]), "--train", str(BENCH["train"]),
            "--dev", str(BENCH["dev"]), "--test", str(BENCH["test"]),
            "--size", str(BENCH["size"]), "--outdir", str(dataset))
    run8 = root / "run8"
    run_cli("train", "--manifest", str(dataset / "manifest.csv"),
            "--outdir", str(run8), "--threads", "4", *BENCH_TRAIN_FLAGS)
    evaldir = root / "eval8"
    run_cli("eval", "--manifest", str(dataset / "manifest.csv"),
            "--checkpoint", str(run8 / "model.ckpt"), "--outdir", str(evaldir))
    wall = time.time() - t0
    with open(evaldir / "metrics.json", encoding="utf-8") as fh:
        report8 = json.load(fh)
    return {"root": root, "dataset": dataset, "run8": run8,
            "metrics": report8, "wall": wall}


def test_c01_operator_oracle():
    rng = np.random.default_rng(101)
    t0 = time.time()
    trials = 0
    worst = 0.0
    while trials < 50:
        n = int(rng.integers(1, 3))
        c = int(rng.choice([2, 4, 6, 8, 12, 16]))
        h = int(rng.integers(2, 9))
        w = int(rng.integers(2, 9))
        k = int(rng.choice([3, 5]))
        g = int(rng.choice([d for d in range(1, c + 1) if c % d == 0]))
        x = rng.standard_normal((n, c, h, w))
        field = rng.standard_normal((n, g, k, k, h, w))
        y, _ = ops.group_involution_forward(x, field, ops.GroupMap(c, g))
        worst = max(worst, float(np.abs(y - gi_ref(x, field, g)).max()))
        trials += 1
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 10.0,
           f"{trials} random configs vs nested-loop oracle, max abs err "
           f"{worst:.2e} (tol 1e-12), {elapsed:.1f}s (< 10s)")


def test_c02_reduction_cases():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10):
        c, h, w, k = 6, 5, 4, 3
        x = rng.standard_normal((2, c, h, w))
        field1 = rng.standard_normal((2, 1, k, k, h, w))
        y1, _ = ops.group_involution_forward(x, field1, ops.GroupMap(c, 1))
        worst = max(worst, float(np.abs(y1 - ops.involution_forward(x, field1)).max()))
        fieldc = rng.standard_normal((2, c, k, k, h, w))
        yc, _ = ops.group_involution_forward(x, fieldc, ops.GroupMap(c, c))
        for ci in range(c):
            per = ops.involution_forward(x[:, ci:ci + 1], fieldc[:, ci:ci + 1])
            worst = max(worst, float(np.abs(yc[:, ci:ci + 1] - per).max()))
        # spatially constant field against depthwise convolution
        const = np.broadcast_to(rng.standard_normal((2, 2, k, k, 1, 1)),
                                (2, 2, k, k, h, w)).copy()
        yg, _ = ops.group_involution_forward(x, const, ops.GroupMap(c, 2))
        kernel = np.zeros((c, 1, k, k))
        for ci in range(c):
            kernel[ci, 0] = const[0, ci // 3, :, :, 0, 0]
        ydw, _ = ops.conv2d(x[:1], ops.ConvWeights(kernel, groups=c), pad=k // 2)
        worst = max(worst, float(np.abs(yg[:1] - ydw).max()))
    report(2, worst <= 1e-12,
           f"G=1/G=C/constant-field reductions, max abs err {worst:.2e} (tol 1e-12)")


def test_c03_gradient_checks():
    t0 = time.time()
    worst_layer = 0.0
    # layer-level: 20 seeds across the four operator families
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        # group involution; seed 0 pins one mid-sized configuration
        if seed == 0:
            n, c, h, w, k, g = 2, 8, 6, 6, 3, 4
        else:
            c = int(rng.choice([4, 6, 8]))
            g = int(rng.choice([d for d in (1, 2, c) if c % d == 0]))
            n, h, w, k = 1, int(rng.integers(3, 6)), int(rng.integers(3, 6)), 3
        x = rng.standard_normal((n, c, h, w))
        field = rng.standard_normal((n, g, k, k, h, w))
        probe = rng.standard_normal((n, c, h, w))
        gmap = ops.GroupMap(c, g)

        def gi_loss():
            return float((ops.group_involution_forward(x, field, gmap)[0] * probe).sum())

        _, ctx = ops.group_involution_forward(x, field, gmap)
        gx, gf = ops.gi_backward(probe, ctx)
        worst_layer = max(worst_layer, max_rel_err(gx, fd_grad(gi_loss, x)))
        worst_layer = max(worst_layer, max_rel_err(gf, fd_grad(gi_loss, field)))

        # grouped convolution
        groups = int(rng.choice([1, 2]))
        stride = int(rng.choice([1, 2]))
        kern = rng.standard_normal((4, c // groups, 3, 3))
        bias = rng.standard_normal(4)
        cw = ops.ConvWeights(kern, groups)
        cy, cctx = ops.conv2d(x, cw, bias=bias, stride=stride, pad=1)
        cprobe = rng.standard_normal(cy.shape)

        def conv_loss():
            return float((ops.conv2d(x, cw, bias=bias, stride=stride, pad=1)[0]
                          * cprobe).sum())

        cgx, cgk, cgb = ops.conv2d_backward(cprobe, cctx)
        worst_layer = max(worst_layer, max_rel_err(cgx, fd_grad(conv_loss, x)))
        worst_layer = max(worst_layer, max_rel_err(cgk, fd_grad(conv_loss, kern)))
        worst_layer = max(worst_layer, max_rel_err(cgb, fd_grad(conv_loss, bias)))

        # kernel generator (infer-mode batch norm)
        params, running, _ = random_generator_params(rng, c, k, g, 2)
        gprobe = rng.standard_normal((n, g, k, k, h, w))

        def gen_loss():
            fld, _, _, _ = ops.generate_kernels(x, params, running, k, train=False)
            return float((fld * gprobe).sum())

        _, gctx, _, _ = ops.generate_kernels(x, params, running, k, train=False, record=True)
        ggx, ggrads = ops.generate_kernels_backward(gprobe, gctx)
        worst_layer = max(worst_layer, max_rel_err(ggx, fd_grad(gen_loss, x)))
        worst_layer = max(worst_layer,
                          max_rel_err(ggrads["expand_w"], fd_grad(gen_loss, params["expand_w"])))
        worst_layer = max(worst_layer,
                          max_rel_err(ggrads["squeeze_w"], fd_grad(gen_loss, params["squeeze_w"])))

        # squeeze-excitation block
        se = net.SqueezeExcite(c, rng=tensor.make_rng(300 + seed))
        sy = se.forward(x, train=True, record=True)
        sprobe = rng.standard_normal(sy.shape)

        def se_loss():
            return float((se.forward(x, train=True, record=False) * sprobe).sum())

        sgx = se.backward(sprobe)
        worst_layer = max(worst_layer, max_rel_err(sgx, fd_grad(se_loss, x)))
        for key in se.params:
            worst_layer = max(worst_layer,
                              max_rel_err(se.grads[key], fd_grad(se_loss, se.params[key])))

    # end to end: tiny model, infer-mode batch norm, entries sampled from
    # every parameter tensor (full finite differences over ~4e5 parameters
    # would dwarf the runtime budget)
    worst_e2e = 0.0
    for seed in range(3):
        cfg = net.ModelConfig(width_multiplier=0.25, input_size=32, groups=24)
        model = net.build_model(cfg, tensor.make_rng(330 + seed))
        rng = np.random.default_rng(340 + seed)
        for _ in range(2):
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
        pick = np.random.default_rng(350 + seed)
        for name, arr in model.parameters():
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            scale = max(np.abs(gflat).max(), 1e-10)
            for i in pick.integers(0, flat.size, size=2):
                old = flat[i]
                flat[i] = old + 1e-6
                up = loss()
                flat[i] = old - 1e-6
                down = loss()
                flat[i] = old
                fd = (up - down) / 2e-6
                worst_e2e = max(worst_e2e, abs(fd - gflat[i]) / max(scale, abs(fd)))
    elapsed = time.time() - t0
    report(3, worst_layer < 1e-4 and worst_e2e < 1e-3 and elapsed < 120.0,
           f"finite differences: layer max rel err {worst_layer:.2e} (< 1e-4), "
           f"end-to-end {worst_e2e:.2e} (< 1e-3), {elapsed:.0f}s (< 120s)")


def test_c04_adjoint_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(30):
        c = int(rng.choice([4, 6, 8, 12]))
        g = int(rng.choice([d for d in range(1, c + 1) if c % d == 0]))
        h, w = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        k = int(rng.choice([3, 5]))
        x = rng.standard_normal((2, c, h, w))
        field = rng.standard_normal((2, g, k, k, h, w))
        y, ctx = ops.group_involution_forward(x, field, ops.GroupMap(c, g))
        gy = rng.standard_normal(y.shape)
        gx, gf = ops.gi_backward(gy, ctx)
        lhs = float((gy * y).sum())
        scale = max(abs(lhs), 1e-12)
        # one adjoint identity per linear argument of the bilinear operator
        worst = max(worst, abs(lhs - float((gx * x).sum())) / scale)
        worst = max(worst, abs(lhs - float((gf * field).sum())) / scale)
    report(4, worst <= 1e-10,
           f"<g, GI(x,H)> vs <grad_x, x> and <grad_H, H>, max rel dev {worst:.2e} "
           f"(tol 1e-10)")


def test_c05_metric_oracles():
    rng = np.random.default_rng(105)
    trials = 0
    exact = True
    for _ in range(200):
        scores, labels = random_score_set(rng, 20)
        tau = float(rng.uniform(-0.1, 1.1))
        exact = exact and metrics.rates_at(scores, labels, tau) == \
            oracle_rates(scores, labels, tau)
        exact = exact and metrics.eer(scores, labels) == oracle_eer(scores, labels)
        exact = exact and metrics.auc_roc(scores, labels) == oracle_auc(scores, labels)
        exact = exact and metrics.youden_max(scores, labels) == oracle_youden(scores, labels)
        far, frr, _ = oracle_rates(scores, labels, tau)
        exact = exact and metrics.hter(scores, labels, metrics.OperatingPoint(tau)) == \
            (far + frr) / 2.0
        exact = exact and metrics.apcer_bpcer(scores, labels, tau) == (far, frr)
        exact = exact and metrics.acer(far, frr) == (far + frr) / 2.0
        trials += 1
    acer_percent = metrics.acer(0.0, 0.0083) * 100
    row_ok = acer_percent == pytest.approx(0.415) and abs(acer_percent - 0.42) <= 0.005 + 1e-12
    report(5, exact and row_ok,
           f"{trials} random score sets exactly match brute force; "
           f"ACER(0.00%, 0.83%) = {acer_percent:.4f}% rounds to 0.42")


def test_c06_complexity_trends():
    t0 = time.time()
    params_by_g = [net.param_count(net.build_model(net.ModelConfig(groups=g),
                                                   tensor.make_rng(0)))
                   for g in (16, 30, 60, 120, 240)]
    groups_ok = all(a < b for a, b in zip(params_by_g, params_by_g[1:]))
    params_by_r = [net.param_count(net.build_model(net.ModelConfig(reduce=r),
                                                   tensor.make_rng(0)))
                   for r in (1, 4, 8)]
    reduce_ok = params_by_r[0] > params_by_r[1] > params_by_r[2]
    model = net.build_model(net.ModelConfig(), tensor.make_rng(0))
    flops = {s: net.model_flops(model, s) for s in (64, 128, 256, 512)}
    ratios = [flops[512] / flops[256], flops[256] / flops[128], flops[128] / flops[64]]
    ratio_ok = all(3.7 <= r <= 4.0 for r in ratios)
    begin = net.param_count(net.build_model(net.ModelConfig(placement="begin"),
                                            tensor.make_rng(0)))
    end = net.param_count(net.build_model(net.ModelConfig(placement="end"),
                                          tensor.make_rng(0)))
    placement_ok = begin < end
    elapsed = time.time() - t0
    report(6, groups_ok and reduce_ok and ratio_ok and placement_ok and elapsed < 60.0,
           f"params by G {['%.3fM' % (p / 1e6) for p in params_by_g]} increasing; "
           f"by reduce {['%.3fM' % (p / 1e6) for p in params_by_r]} decreasing; "
           f"flop ratios {['%.2f' % r for r in ratios]} in [3.7, 4.0]; "
           f"begin {begin / 1e6:.3f}M < end {end / 1e6:.3f}M; {elapsed:.0f}s")


def test_c07_complexity_closeness(tmp_path):
    model = net.build_model(net.ModelConfig(), tensor.make_rng(0))
    params_m = net.param_count(model) / 1e6
    gflops = net.model_flops(model, 256) / 1e9
    dev_p = (params_m - REF_PARAMS_M) / REF_PARAMS_M
    dev_f = (gflops - REF_GFLOPS) / REF_GFLOPS
    within = abs(dev_p) < 0.15 and abs(dev_f) < 0.15
    lines = [
        f"default config: {params_m:.3f} M params vs reference {REF_PARAMS_M} "
        f"({dev_p:+.1%}), {gflops:.3f} GFLOPs vs reference {REF_GFLOPS} ({dev_f:+.1%})",
        "residual deviation comes from the documented design choices: the",
        "canonical two-pointwise kernel generator (the published generator",
        "widths are not disclosed) and batch norm plus hardswish after the",
        "adaptive block with no residual connection.",
    ]
    if not within:
        # a miss is reported, not failed: the deviation report is the contract
        (tmp_path / "complexity_deviation.txt").write_text("\n".join(lines),
                                                           encoding="utf-8")
    report(7, True, lines[0] + (" [within +/-15%]" if within
                                else " [outside +/-15%, deviation report emitted]"))


@pytest.mark.slow
def test_c08_desk_scale_learning(bench):
    rep = bench["metrics"]
    acc = rep["accuracy"]
    hter = rep["hter"]
    ok = acc >= 0.95 and hter <= 0.05 and bench["wall"] < 600.0
    report(8, ok,
           f"synthetic benchmark: test accuracy {acc:.4f} (>= 0.95), "
           f"HTER {hter:.4f} (<= 0.05), AUC {rep['auc']:.4f}, "
           f"wall {bench['wall']:.0f}s (< 600s)")


@pytest.mark.slow
def test_c09_determinism(bench):
    dataset = bench["dataset"]
    histories = []
    for name in ("run9a", "run9b"):
        rundir = bench["root"] / name
        run_cli("train", "--manifest", str(dataset / "manifest.csv"),
                "--outdir", str(rundir), "--threads", "1", *BENCH_TRAIN_FLAGS)
        histories.append((rundir / "history.csv").read_bytes())
    ok = histories[0] == histories[1]
    report(9, ok, "two --threads 1 runs with identical seeds produced "
                  f"byte-identical history CSVs ({len(histories[0])} bytes)")


def test_c10_early_stopping_trace():
    losses = [1.0, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99]
    run, best, reason = train.run_early_stopping(losses, patience=5, max_epochs=100)
    ok = (run, best, reason) == (7, 2, "early_stop")
    report(10, ok, f"trace {losses} with patience 5 stops after epoch {run}, "
                   f"best epoch {best} ({reason})")


@pytest.mark.slow
def test_c11_audit_properties(bench):
    rng = np.random.default_rng(111)
    bounds_ok = True
    invariance_ok = True
    for _ in range(1000):
        k = int(rng.choice([3, 5]))
        kern = rng.standard_normal((k, k))
        a = audit.anisotropy(kern)
        bounds_ok = bounds_ok and 0.0 <= a <= 1.0
        scaled = audit.anisotropy(-3.0 * kern)
        invariance_ok = invariance_ok and abs(scaled - a) <= 1e-10 * max(a, 1e-12) + 1e-14
    r = 2
    g1d = np.exp(-((np.arange(5) - r) ** 2) / (2 * 1.3 ** 2))
    gaussian = np.outer(g1d, g1d)
    iso_ok = audit.anisotropy(gaussian / gaussian.sum()) < 1e-10
    const_field = np.broadcast_to(rng.standard_normal((1, 2, 3, 3, 1, 1)),
                                  (1, 2, 3, 3, 4, 4)).copy()
    posvar_ok = audit.position_variance(const_field) == 0.0
    zm = np.zeros((1, 1, 3, 3, 2, 2))
    vals = rng.standard_normal(4)
    zm[0, 0, 0, 0] = vals[0]
    zm[0, 0, 0, 1] = -vals[0]
    zm[0, 0, 0, 2] = vals[1]
    zm[0, 0, 1, 0] = -vals[1]
    dc_ok = audit.dc_offset(zm) == 0.0

    # trained-model audit: effect directions are reported, not asserted
    model = net.load_checkpoint(bench["run8"] / "model.ckpt")
    rows = data.load_manifest(bench["dataset"] / "manifest.csv")
    rep = audit.audit_run(model, rows, max_samples=96, data_root=str(bench["dataset"]))
    d_an = rep.effect_sizes["anisotropy"]
    d_hf = rep.effect_sizes["hf_lf"]
    an_dir = "bonafide > attack" if (d_an is not None and d_an < 0) else "attack > bonafide"
    hf_dir = "attack > bonafide" if (d_hf is not None and d_hf > 0) else "bonafide > attack"
    ok = bounds_ok and invariance_ok and iso_ok and posvar_ok and dc_ok
    report(11, ok,
           "1000 kernels in [0,1] and scale/negation-invariant; gaussian "
           f"anisotropy < 1e-10; constant field position_variance == 0; "
           f"zero-mean dc_offset == 0. Trained-model effects (attack-bonafide): "
           f"anisotropy d={d_an:+.3f} ({an_dir}; reference direction "
           f"{REF_ANISOTROPY_DIRECTION}, match={an_dir == REF_ANISOTROPY_DIRECTION}), "
           f"hf_lf d={d_hf:+.3f} ({hf_dir}; reference direction "
           f"{REF_HF_LF_DIRECTION}, match={hf_dir == REF_HF_LF_DIRECTION}) [reported]")


def test_c12_gradcam_oracle():
    rng_model = tensor.make_rng(112)
    pw = net.Pointwise(3, 4, bias=True, rng=rng_model)
    model = net.Model(None, [("pw", pw), ("act", net.Act("relu")),
                             ("pool", net.GlobalPool()),
                             ("head", net.Linear(4, 2, rng=rng_model))])
    rng = np.random.default_rng(113)
    x = rng.standard_normal((1, 3, 6, 6))
    heat = net.gradcam(model, x, class_index=1)
    again = net.gradcam(model, x, class_index=1)
    amap = np.maximum(np.einsum("oc,nchw->nohw", pw.params["w"], x)[0]
                      + pw.params["b"][:, None, None], 0.0)
    alpha = model.layers[-1][1].params["w"][1] / 36.0
    cam = np.maximum((alpha[:, None, None] * amap).sum(axis=0), 0.0)
    cam = (cam - cam.min()) / (cam.max() - cam.min())
    expected = bilinear_ref(cam, 6)
    err = float(np.abs(heat - expected).max())
    ok = (heat.shape == (6, 6) and heat.min() >= 0.0 and heat.max() <= 1.0
          and np.array_equal(heat, again) and err <= 1e-10)
    report(12, ok,
           f"heatmap in [0,1], input-sized, deterministic; manual chain-rule "
           f"oracle max abs err {err:.2e} (tol 1e-10)")
