"""Preprocessing, image I/O, manifests, and the synthetic benchmark."""

import numpy as np
import pytest

from gipad import data
from gipad.config import MAX_INPUT_SIZE
from gipad.errors import ConfigError, DataError

from oracles import bilinear_ref


class TestCenterCrop:
    def test_landscape_frame(self):
        frame = np.zeros((720, 1280, 3), dtype=np.uint8)
        frame[:, 280, 0] = 7  # first retained column
        out = data.center_crop(frame)
        assert out.shape == (720, 720, 3)
        assert out[0, 0, 0] == 7

    def test_square_unchanged(self):
        frame = np.random.default_rng(0).integers(0, 255, (64, 64, 3), dtype=np.uint8)
        np.testing.assert_array_equal(data.center_crop(frame), frame)

    def test_portrait_floor_offset(self):
        frame = np.arange(101 * 50 * 3, dtype=np.float64).reshape(101, 50, 3)
        out = data.center_crop(frame)
        assert out.shape == (50, 50, 3)
        np.testing.assert_array_equal(out, frame[25:75])

    def test_always_square_min_side(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m, n = rng.integers(1, 40, 2)
            out = data.center_crop(np.zeros((m, n, 3)))
            assert out.shape[:2] == (min(m, n), min(m, n))


class TestResize:
    def test_constant_image(self):
        img = np.full((5, 7, 3), 0.6)
        np.testing.assert_allclose(data.resize_bilinear(img, 12), 0.6, atol=1e-12)

    def test_upsample_ramp_matches_closed_form(self):
        ramp = (0.3 * np.arange(8)[:, None] + 0.1 * np.arange(8)[None, :])
        out = data.resize_bilinear(ramp, 16)
        np.testing.assert_allclose(out, bilinear_ref(ramp, 16), atol=1e-9)

    def test_downsample_preserves_channel_means(self):
        # smooth image: means within 2 percent
        yy, xx = np.meshgrid(np.linspace(0, 1, 64), np.linspace(0, 1, 64), indexing="ij")
        img = np.stack([0.4 + 0.2 * yy, 0.5 + 0.1 * xx, 0.45 + 0.1 * yy * xx], axis=2)
        out = data.resize_bilinear(img, 16)
        for c in range(3):
            assert abs(out[:, :, c].mean() - img[:, :, c].mean()) / img[:, :, c].mean() < 0.02

    def test_matches_reference_random(self):
        rng = np.random.default_rng(2)
        img = rng.random((6, 9, 3))
        np.testing.assert_allclose(data.resize_bilinear(img, 5), bilinear_ref(img, 5),
                                   atol=1e-12)
        # at its own size an image comes back unchanged, as a copy
        for same in (rng.random((9, 9, 3)), rng.standard_normal((9, 9))):
            out = data.resize_bilinear(same, 9)
            np.testing.assert_allclose(out, bilinear_ref(same, 9), rtol=0, atol=1e-12)
            assert out.tobytes() == same.tobytes() and not np.shares_memory(out, same)

    def test_values_stay_in_range(self):
        rng = np.random.default_rng(3)
        img = rng.random((7, 7))
        out = data.resize_bilinear(img, 21)
        assert out.min() >= img.min() - 1e-12 and out.max() <= img.max() + 1e-12


class TestNormalize:
    def test_midpoint_maps_to_zero(self):
        img = np.full((2, 2, 3), 127.5)
        np.testing.assert_allclose(data.normalize(img), 0.0, atol=1e-12)

    def test_endpoint_maps_to_one(self):
        img = np.full((2, 2, 3), 255, dtype=np.uint8)
        np.testing.assert_allclose(data.normalize(img), 1.0, atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        img = rng.random((4, 4, 3))
        back = data.denormalize(data.normalize(img))
        np.testing.assert_allclose(back, img, atol=1e-6)

    def test_output_layout(self):
        out = data.normalize(np.zeros((5, 6, 3), dtype=np.uint8))
        assert out.shape == (3, 5, 6)


def preprocess_ref(frame, size):
    """The preprocess chain on the scalar oracle: crop, scale by 1/255 once
    when the whole frame is 8-bit data, resize, map to [-1, 1], gray to three
    channels."""
    crop = data.center_crop(frame).astype(np.float64)
    if np.issubdtype(frame.dtype, np.integer) or frame.max() > 1.5:
        crop = crop / 255.0
    out = (bilinear_ref(crop, size) - 0.5) / 0.5
    if out.ndim == 2:
        out = out[:, :, None].repeat(3, axis=2)
    return out.transpose(2, 0, 1)


class TestPreprocess:
    @pytest.mark.parametrize("shape,size", [
        ((240, 320, 3), 256), ((320, 240, 3), 256), ((300, 400, 3), 256), ((360, 480, 3), 256),
        ((61, 47), 33),  # gray, odd sizes
        ((37, 53, 3), 29),
        ((50, 70, 3), 64),  # upsampling
        ((150, 200, 3), 64),  # down by more than 2: some rows are not read
        ((64, 80, 3), 64),  # already at size once cropped
    ])
    def test_matches_oracle_chain(self, shape, size):
        frame = np.random.default_rng(sum(shape)).integers(0, 256, shape, dtype=np.uint8)
        out = data.preprocess(frame, size)
        assert out.shape == (3, size, size)
        assert np.array_equal(out, preprocess_ref(frame, size))

    @pytest.mark.parametrize("top", [1.0, 255.0])
    def test_float_frames_match_oracle_chain(self, top):
        # a unit-range frame is used as it is; a 0-255 one is scaled to it
        frame = np.random.default_rng(7).random((45, 60, 3)) * top
        assert np.array_equal(data.preprocess(frame, 40), preprocess_ref(frame, 40))

    def test_large_float_frame_is_scaled_once(self):
        frame = np.random.default_rng(8).random((30, 40, 3)) * 1000.0
        frame[0, 0, 0] = 1000.0
        out = data.preprocess(frame, 20)
        assert np.array_equal(out, preprocess_ref(frame, 20))
        assert out.max() > 1.0  # 1000/255 maps above 1; 1000/255**2 would not


class TestImageIO:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, (9, 7, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        data.write_image(path, img)
        np.testing.assert_array_equal(data.read_image(path), img)

    def test_pgm_roundtrip(self, tmp_path):
        img = np.random.default_rng(6).integers(0, 256, (5, 8), dtype=np.uint8)
        path = tmp_path / "x.pgm"
        data.write_image(path, img)
        np.testing.assert_array_equal(data.read_image(path), img)

    def test_missing_file(self):
        with pytest.raises(DataError):
            data.read_image("/nonexistent/frame.ppm")

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # made by hand\n2\t# width\n\n1 255\n\x07#")
        np.testing.assert_array_equal(data.read_image(path), [[7, 35]])

    def test_must_begin_with_magic(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b" P5 2 1 255\n\x07#")
        with pytest.raises(DataError, match="header"):
            data.read_image(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n4 4\n255\nshort")
        with pytest.raises(DataError, match="truncated"):
            data.read_image(path)


class TestManifest:
    def _write(self, tmp_path, body):
        path = tmp_path / "m.csv"
        path.write_text("path,label,split,subject\n" + body, encoding="utf-8")
        return path

    def test_three_rows(self, tmp_path):
        path = self._write(tmp_path, "a.ppm,bonafide,train,s1\n"
                                     "b.ppm,attack,dev,s2\n"
                                     "c.ppm,bonafide,test,s3\n")
        rows = data.load_manifest(path)
        assert len(rows) == 3
        assert rows[0].y == 1 and rows[1].y == 0

    def test_unknown_label_names_line(self, tmp_path):
        path = self._write(tmp_path, "a.ppm,bonafide,train,s1\nb.ppm,spoofed,dev,s2\n")
        with pytest.raises(DataError, match=":3"):
            data.load_manifest(path)

    def test_duplicate_path(self, tmp_path):
        path = self._write(tmp_path, "a.ppm,bonafide,train,s1\na.ppm,attack,dev,s2\n")
        with pytest.raises(DataError, match="duplicate"):
            data.load_manifest(path)

    def test_subject_leakage(self, tmp_path):
        path = self._write(tmp_path, "a.ppm,bonafide,train,s1\nb.ppm,attack,test,s1\n")
        with pytest.raises(DataError, match="subject"):
            data.load_manifest(path, subject_disjoint=True)
        assert len(data.load_manifest(path)) == 2  # fine without the flag

    def test_field_over_csv_limit_names_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label,split,subject\na.ppm,bonafide,train,s1\n"
                        + "b" * 200000 + ".ppm,attack,dev,s2\n", encoding="utf-8")
        with pytest.raises(DataError, match="manifest.csv:3:"):
            data.load_manifest(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("file,y\n", encoding="utf-8")
        with pytest.raises(DataError, match="first line"):
            data.load_manifest(path)


class TestSynth:
    def test_pure_function_of_seed_and_index(self):
        a, la = data.synth_patch(7, "train", 3, 32)
        b, lb = data.synth_patch(7, "train", 3, 32)
        np.testing.assert_array_equal(a, b)
        assert la == lb
        c, _ = data.synth_patch(8, "train", 3, 32)
        assert not np.array_equal(a, c)

    def test_regenerate_byte_identical(self, tmp_path):
        spec = data.SynthSpec(seed=3, train=6, dev=4, test=4, size=24)
        rows1 = data.generate_synth(spec, tmp_path / "a")
        rows2 = data.generate_synth(spec, tmp_path / "b")
        assert [r.path for r in rows1] == [r.path for r in rows2]
        for row in rows1:
            assert (tmp_path / "a" / row.path).read_bytes() == \
                (tmp_path / "b" / row.path).read_bytes()

    def test_size_above_input_limit_rejected(self):
        # a frame larger than the largest input size would only be resized down
        data.SynthSpec(size=MAX_INPUT_SIZE)
        with pytest.raises(ConfigError, match="patch size"):
            data.SynthSpec(size=MAX_INPUT_SIZE + 1)

    def test_split_counts_and_balance(self, tmp_path):
        spec = data.SynthSpec(seed=1, train=9, dev=5, test=4, size=16)
        rows = data.generate_synth(spec, tmp_path / "d")
        for split, want in (("train", 9), ("dev", 5), ("test", 4)):
            got = data.split_rows(rows, split)
            assert len(got) == want
            bona = sum(1 for r in got if r.label == "bonafide")
            assert abs(bona - (len(got) - bona)) <= 1

    def test_attacks_carry_more_high_frequency_energy(self):
        # DFT oracle over the generated set: mean energy outside the
        # low-frequency disc must be strictly higher for attacks
        size = 32
        hf = {"bonafide": [], "attack": []}
        freqs = np.fft.fftfreq(size) * size
        fu, fv = np.meshgrid(freqs, freqs, indexing="ij")
        outside = np.sqrt(fu ** 2 + fv ** 2) > size / 8
        for idx in range(120):
            patch, label = data.synth_patch(11, "train", idx, size)
            gray = patch.astype(np.float64).mean(axis=2) / 255.0
            spec = np.abs(np.fft.fft2(gray - gray.mean())) ** 2
            hf[label].append(spec[outside].sum())
        assert np.mean(hf["attack"]) > np.mean(hf["bonafide"])

    def test_not_separable_on_mean_intensity(self):
        means, labels = [], []
        for idx in range(150):
            patch, label = data.synth_patch(13, "train", idx, 32)
            means.append(patch.mean())
            labels.append(1 if label == "bonafide" else 0)
        means = np.array(means)
        labels = np.array(labels)
        best = 0.0
        for t in np.unique(means):
            for sign in (1, -1):
                best = max(best, np.mean((sign * means >= sign * t) == labels))
        assert best < 0.65

    def test_manifest_subjects_disjoint(self, tmp_path):
        spec = data.SynthSpec(seed=2, train=4, dev=4, test=4, size=16)
        data.generate_synth(spec, tmp_path / "d")
        rows = data.load_manifest(tmp_path / "d" / "manifest.csv", subject_disjoint=True)
        assert len(rows) == 12
