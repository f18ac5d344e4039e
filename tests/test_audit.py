"""Kernel indicators against direct-summation DFT oracles, plus the
capture-and-aggregate audit pass."""

import copy
import json
import math

import numpy as np
import pytest

from gipad import audit, data, net, tensor
from gipad.errors import ConfigError, UndefinedMetricError

from oracles import dft2_ref


def gaussian_kernel(k=5, sigma=1.2):
    r = k // 2
    g = np.exp(-((np.arange(k) - r) ** 2) / (2 * sigma ** 2))
    kern = np.outer(g, g)
    return kern / kern.sum()


class TestDcOffset:
    def test_zero_mean_kernels(self):
        field = np.random.default_rng(0).standard_normal((1, 2, 3, 3, 4, 4))
        field -= field.mean(axis=(2, 3), keepdims=True)
        assert abs(audit.dc_offset(field)) < 1e-15

    def test_constant(self):
        assert audit.dc_offset(np.full((1, 1, 3, 3, 2, 2), 0.7)) == pytest.approx(0.7)

    def test_matches_flat_mean(self):
        field = np.random.default_rng(1).standard_normal((2, 3, 3, 3, 5, 5))
        assert audit.dc_offset(field) == pytest.approx(
            float(np.mean(field.reshape(-1))), abs=1e-15)

    def test_linear_in_field(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((1, 2, 3, 3, 4, 4))
        b = rng.standard_normal((1, 2, 3, 3, 4, 4))
        assert audit.dc_offset(2.0 * a + b) == pytest.approx(
            2.0 * audit.dc_offset(a) + audit.dc_offset(b), abs=1e-12)


class TestPositionVariance:
    def test_constant_field_is_zero(self):
        field = np.random.default_rng(3).standard_normal((1, 2, 3, 3, 1, 1))
        field = np.broadcast_to(field, (1, 2, 3, 3, 6, 6)).copy()
        assert audit.position_variance(field) <= 1e-15

    def test_single_alternating_tap(self):
        # one tap alternates +-1 over positions (variance 1), all others 0;
        # the mean over G*k*k taps divides it down
        g, k, h, w = 2, 3, 2, 2
        field = np.zeros((1, g, k, k, h, w))
        field[0, 0, 0, 0] = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert audit.position_variance(field) == pytest.approx(1.0 / (g * k * k))

    def test_matches_two_pass_oracle(self):
        field = np.random.default_rng(4).standard_normal((2, 2, 3, 3, 4, 5))
        total = 0.0
        count = 0
        for n in range(2):
            for g in range(2):
                for u in range(3):
                    for v in range(3):
                        vals = field[n, g, u, v].reshape(-1)
                        mean = sum(vals) / len(vals)
                        total += sum((x - mean) ** 2 for x in vals) / len(vals)
                        count += 1
        assert audit.position_variance(field) == pytest.approx(total / count, rel=1e-12)

    def test_single_position_is_zero(self):
        field = np.random.default_rng(5).standard_normal((1, 1, 3, 3, 1, 1))
        assert audit.position_variance(field) == 0.0


class TestHfLf:
    def test_constant_kernel_all_dc(self):
        assert audit.hf_lf_ratio(np.full((5, 5), 0.2)) == pytest.approx(0.0, abs=1e-20)

    def test_pure_high_frequency_overflows(self):
        # even-grid checkerboard puts every coefficient at the Nyquist bin
        u, v = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        checker = (-1.0) ** (u + v)
        assert math.isinf(audit.hf_lf_ratio(checker))
        # odd grid: a bi-cosine at frequency 2 leaves the low disc empty
        grid = np.arange(5)
        wave = np.cos(2 * np.pi * 2 * grid / 5)
        assert math.isinf(audit.hf_lf_ratio(np.outer(wave, wave)))

    def test_horizontal_edge_matches_dft_oracle(self):
        kern = np.zeros((5, 5))
        kern[:, 0] = -1.0
        kern[:, 4] = 1.0
        energy = np.abs(dft2_ref(kern)) ** 2
        freqs = np.fft.fftfreq(5) * 5
        fu, fv = np.meshgrid(freqs, freqs, indexing="ij")
        low = fu ** 2 + fv ** 2 <= 1.0
        expected = energy[~low].sum() / energy[low].sum()
        assert audit.hf_lf_ratio(kern) == pytest.approx(expected, rel=1e-10)

    def test_all_zero_rejected(self):
        with pytest.raises(UndefinedMetricError):
            audit.hf_lf_ratio(np.zeros((5, 5)))

    def test_scale_and_negation_invariant(self):
        rng = np.random.default_rng(6)
        kern = rng.standard_normal((5, 5))
        base = audit.hf_lf_ratio(kern)
        assert audit.hf_lf_ratio(-kern) == pytest.approx(base, rel=1e-12)
        assert audit.hf_lf_ratio(3.7 * kern) == pytest.approx(base, rel=1e-12)

    def test_dihedral_invariance(self):
        rng = np.random.default_rng(7)
        kern = rng.standard_normal((5, 5))
        base = audit.hf_lf_ratio(kern)
        variants = [np.rot90(kern, r) for r in range(4)]
        variants += [np.flipud(v) for v in variants]
        for v in variants:
            assert audit.hf_lf_ratio(np.ascontiguousarray(v)) == \
                pytest.approx(base, rel=1e-10)

    def test_too_small_kernel(self):
        with pytest.raises(ConfigError):
            audit.hf_lf_ratio(np.ones((2, 2)))


class TestAnisotropy:
    def test_gaussian_isotropic(self):
        assert audit.anisotropy(gaussian_kernel()) < 1e-10

    def test_row_sinusoid_fully_oriented(self):
        grid = np.arange(5)
        wave = np.cos(2 * np.pi * grid / 5)
        kern = np.tile(wave[:, None], (1, 5))  # varies along rows only
        assert audit.anisotropy(kern) == pytest.approx(1.0, abs=1e-12)

    def test_oriented_edge_matches_moment_oracle(self):
        kern = np.zeros((5, 5))
        kern[:, 0] = -1.0
        kern[:, 4] = 1.0
        energy = np.abs(dft2_ref(kern)) ** 2
        freqs = np.fft.fftfreq(5) * 5
        m = np.zeros((2, 2))
        for a in range(5):
            for b in range(5):
                if a == 0 and b == 0:
                    continue
                f = np.array([freqs[a], freqs[b]])
                m += energy[a, b] * np.outer(f, f)
        lam = np.linalg.eigvalsh(m)
        expected = (lam[1] - lam[0]) / (lam[1] + lam[0])
        assert audit.anisotropy(kern) == pytest.approx(expected, rel=1e-10)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(8)
        kern = rng.standard_normal((5, 5))
        base = audit.anisotropy(kern)
        assert audit.anisotropy(np.ascontiguousarray(np.rot90(kern))) == \
            pytest.approx(base, rel=1e-10)

    def test_scale_negation_invariant_and_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = int(rng.choice([3, 5]))
            kern = rng.standard_normal((k, k))
            a = audit.anisotropy(kern)
            assert 0.0 <= a <= 1.0
            assert audit.anisotropy(-2.5 * kern) == pytest.approx(a, rel=1e-10)

    def test_degenerate_zero(self):
        assert audit.anisotropy(np.zeros((3, 3))) == 0.0


class TestCohensD:
    def test_equal_means_zero(self):
        assert audit.cohens_d([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == 0.0

    def test_hand_computed(self):
        assert audit.cohens_d([2.0, 4.0], [0.0, 2.0]) == pytest.approx(np.sqrt(2.0))

    def test_antisymmetric(self):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal(8), rng.standard_normal(6) + 0.5
        assert audit.cohens_d(a, b) == pytest.approx(-audit.cohens_d(b, a), rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(UndefinedMetricError):
            audit.cohens_d([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(UndefinedMetricError):
            audit.cohens_d([1.0], [1.0, 2.0])


def test_sample_stats_matches_public_indicators():
    field = np.random.default_rng(5).standard_normal((1, 3, 5, 5, 4, 6))
    indicators, mean_kernel = audit.sample_stats(field)
    np.testing.assert_array_equal(mean_kernel, field.mean(axis=(0, 1, 4, 5)))
    assert tuple(indicators) == audit.INDICATORS
    assert indicators == {
        "hf_lf": audit.hf_lf_ratio(mean_kernel),
        "anisotropy": audit.anisotropy(mean_kernel),
        "dc_offset": audit.dc_offset(field),
        "position_variance": audit.position_variance(field),
    }


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("audit_data")
    spec = data.SynthSpec(seed=4, train=4, dev=4, test=12, size=32)
    rows = data.generate_synth(spec, root)
    cfg = net.ModelConfig(width_multiplier=0.25, input_size=32, groups=24)
    model = net.build_model(cfg, tensor.make_rng(4))
    return model, rows, str(root)


class TestAuditRun:
    def test_identity_init_model(self, small_run):
        # freshly built generator emits center deltas everywhere
        model, rows, root = small_run
        report = audit.audit_run(model, rows, max_samples=4, data_root=root)
        k = model.cfg.gi_kernel
        for label in ("bonafide", "attack"):
            assert report.per_class["anisotropy"][label]["mean"] == pytest.approx(0.0, abs=1e-12)
            assert report.per_class["position_variance"][label]["mean"] == \
                pytest.approx(0.0, abs=1e-15)
            assert report.per_class["dc_offset"][label]["mean"] == \
                pytest.approx(1.0 / k ** 2, rel=1e-12)

    def test_counts_match_split(self, small_run):
        model, rows, root = small_run
        report = audit.audit_run(model, rows, max_samples=100, data_root=root)
        test_rows = data.split_rows(rows, "test")
        assert report.counts["bonafide"] + report.counts["attack"] == len(test_rows)
        assert report.counts["bonafide"] == sum(1 for r in test_rows if r.label == "bonafide")

    def test_effect_sizes_present(self, small_run):
        model, rows, root = small_run
        report = audit.audit_run(model, rows, max_samples=100, data_root=root)
        assert set(report.effect_sizes) == set(audit.INDICATORS)

    def test_requires_end_placement(self, small_run):
        _, rows, root = small_run
        plain = net.build_model(net.ModelConfig(placement="none", width_multiplier=0.25,
                                                input_size=32), tensor.make_rng(0))
        with pytest.raises(ConfigError):
            audit.audit_run(plain, rows, data_root=root)

    def test_report_files(self, small_run, tmp_path):
        model, rows, root = small_run
        report = audit.audit_run(model, rows, max_samples=6, data_root=root)
        audit.save_report(tmp_path, report)
        with open(tmp_path / "audit.json", encoding="utf-8") as fh:
            blob = json.load(fh)
        assert set(blob["cohens_d"]) == set(audit.INDICATORS)
        assert (tmp_path / "mean_kernel.pgm").exists()
        assert (tmp_path / "mean_energy.t4").exists()
        hist = (tmp_path / "hist_anisotropy.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count_bonafide,count_attack"
        assert len(hist) == 1 + audit.HISTOGRAM_BINS
        want = report.histograms["anisotropy"]
        rows = [f for _, f in data.read_csv(tmp_path / "hist_anisotropy.csv", "histogram",
                                             hist[0].split(","))]
        assert [float(f[0]) for f in rows] == want["edges"][:-1]
        assert [float(f[1]) for f in rows] == want["edges"][1:]
        assert [int(f[2]) for f in rows] == want["bonafide"]
        assert [int(f[3]) for f in rows] == want["attack"]

    def test_hf_lf_overflow_left_out_and_counted(self, small_run, tmp_path):
        # the expand weights start at zero, so every position and group gets
        # this kernel, whose energy lies wholly at frequency (2, 2)
        model, rows, root = small_run
        model = copy.deepcopy(model)
        k, groups = model.cfg.gi_kernel, model.end_gi.groups
        w = np.cos(2 * np.pi * 2 * np.arange(k) / k)
        model.end_gi.params["expand_b"] = np.tile(np.outer(w, w).ravel(), groups)
        report = audit.audit_run(model, rows, max_samples=6, data_root=root)
        assert report.overflow_counts == report.counts
        assert report.per_class["hf_lf"]["bonafide"] == {"mean": None, "std": None, "n": 0}
        assert report.per_class["hf_lf"]["attack"] == {"mean": None, "std": None, "n": 0}
        assert report.effect_sizes["hf_lf"] is None
        assert report.histograms["hf_lf"] is None
        assert report.per_class["anisotropy"]["bonafide"]["n"] == report.counts["bonafide"]
        audit.save_report(tmp_path, report)
        assert not (tmp_path / "hist_hf_lf.csv").exists()
        assert (tmp_path / "hist_anisotropy.csv").exists()

    def test_field_export_shape(self, small_run, tmp_path):
        model, rows, root = small_run
        path = tmp_path / "field.t4"
        audit.audit_run(model, rows, max_samples=1, data_root=root,
                        export_field_path=path)
        arr = tensor.read_tensor4(path)
        k = model.cfg.gi_kernel
        g = model.end_gi.groups
        assert arr.shape[0] == g and arr.shape[1] == k * k
        meta = (tmp_path / "field.t4.meta").read_text()
        assert f"G = {g}" in meta and f"k = {k}" in meta
