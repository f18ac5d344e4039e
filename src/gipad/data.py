"""Frame ingestion, the desk-scale synthetic benchmark, and the one reader and
writer of each image and CSV file gipad handles: `read_image`/`write_image`
for PGM/PPM, `read_csv`/`write_csv` for manifests, scores, histories,
histograms and the FLOP table.

Frames arrive as individual binary PGM (P5) or PPM (P6) files. Preprocessing
is: center crop to the smaller frame dimension, one conversion of the crop to
float64 in unit range, separable bilinear resize with half-pixel centers, then
mapping to [-1, 1] with per-channel mean/std 0.5, in place.

The synthetic generator replaces the licensed face datasets: both classes
share a smooth low-frequency base with mild oriented gradients; attack
patches additionally carry a high-frequency overlay (halftone dots, moire
gratings, or specular banding), mimicking the sharp broadband texture of
replayed or printed media.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass

import numpy as np

from .config import SPLITS, SynthSpec
from .errors import ConfigError, DataError, read_input, write_output
from .tensor import derived_rng

LABELS = ("bonafide", "attack")
CHANNEL_MEAN = 0.5
CHANNEL_STD = 0.5

MANIFEST_HEADER = ["path", "label", "split", "subject"]


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def center_crop(frame: np.ndarray) -> np.ndarray:
    """Square crop of side min(height, width), centered with floored offsets."""
    m, n = frame.shape[:2]
    rho = min(m, n)
    top = (m - rho) // 2
    left = (n - rho) // 2
    return frame[top:top + rho, left:left + rho]


def resize_bilinear(image: np.ndarray, size: int) -> np.ndarray:
    """Bilinear resize to size x size using half-pixel sample centers.

    Works on (h, w) or (h, w, c) arrays, in float64; output values stay within
    the input range because interpolation weights are convex. A size x size
    input is returned as a float64 copy: every sample then falls on a pixel
    center.
    """
    if size < 1:
        raise ConfigError(f"target size must be >= 1, got {size}")
    if image.shape[:2] == (size, size):
        return image.astype(np.float64)
    h, w = image.shape[:2]
    img = np.asarray(image, dtype=np.float64).reshape(h, w, -1)
    coords_y = (np.arange(size) + 0.5) * (h / size) - 0.5
    coords_x = (np.arange(size) + 0.5) * (w / size) - 0.5
    y0 = np.clip(np.floor(coords_y), 0, h - 1).astype(int)
    x0 = np.clip(np.floor(coords_x), 0, w - 1).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(coords_y - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(coords_x - x0, 0.0, 1.0)[:, None]
    # separable: each source row that an output row reads is interpolated
    # along x once, then each output row blends two of those rows
    rows, pick = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    src = img if len(rows) == h else img[rows]
    along_x = np.take(src, x0, axis=1)
    along_x *= 1 - wx
    along_x += np.take(src, x1, axis=1) * wx
    out = np.take(along_x, pick[:size], axis=0)
    out *= 1 - wy
    out += np.take(along_x, pick[size:], axis=0) * wy
    return out.reshape(size, size, *image.shape[2:])


def _to_unit_range(image: np.ndarray, frame: np.ndarray) -> np.ndarray:
    # a new float64 copy of image (a frame or its crop), divided by 255 when
    # the frame holds 8-bit data: an integer dtype, or floats above 1.5 (e.g.
    # 127.5); other floats are taken as already unit-range
    arr = image.astype(np.float64)
    if np.issubdtype(frame.dtype, np.integer) or frame.max() > 1.5:
        arr /= 255.0
    return arr


def _unit_to_slice(img: np.ndarray) -> np.ndarray:
    # [0, 1] to [-1, 1] in place, then a (3, h, w) view, gray repeated
    img -= CHANNEL_MEAN
    img /= CHANNEL_STD
    return (img[:, :, None].repeat(3, axis=2) if img.ndim == 2 else img).transpose(2, 0, 1)


def normalize(image: np.ndarray) -> np.ndarray:
    """Map an 8-bit or unit-range (h, w, 3) image to a (3, h, w) slice in [-1, 1]."""
    return _unit_to_slice(_to_unit_range(image, image))


def denormalize(chw: np.ndarray) -> np.ndarray:
    """Inverse of normalize, back to a unit-range (h, w, c) image."""
    return (chw.transpose(1, 2, 0) * CHANNEL_STD) + CHANNEL_MEAN


def preprocess(frame: np.ndarray, size: int) -> np.ndarray:
    """Crop, resize and normalize one frame into a (3, size, size) slice; the
    crop is converted to float64 once, and scaled as the whole frame asks."""
    img = _to_unit_range(center_crop(frame), frame)
    return _unit_to_slice(img if img.shape[:2] == (size, size) else resize_bilinear(img, size))


# ---------------------------------------------------------------------------
# PPM / PGM
# ---------------------------------------------------------------------------

def write_image(path, image: np.ndarray) -> None:
    """Binary 8-bit writer: P5 for a uint8 (h, w) image, P6 for (h, w, 3)."""
    arr = np.ascontiguousarray(image, dtype=np.uint8)
    magic = "P5" if arr.ndim == 2 else "P6"
    write_output(path, [f"{magic}\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"), arr])


def read_image(path) -> np.ndarray:
    """Read a binary PGM/PPM; returns uint8 (h, w) or (h, w, 3)."""
    raw = read_input(path, "image")
    # the magic, then width, height and maxval, each after whitespace or `#`
    # comments, then one whitespace byte before the pixels
    header = re.match(rb"(P[56])" + rb"(?:\s|#[^\n]*\n)+(\d{1,9})" * 3 + rb"\s", raw)
    if header is None:
        raise DataError(f"{path}: malformed PGM/PPM header")
    magic, pos = header[1], header.end()
    width, height, maxval = (int(v) for v in header.groups()[1:])
    if maxval != 255:
        raise DataError(f"{path}: only binary 8-bit PGM/PPM supported")
    if width < 1 or height < 1:
        raise DataError(f"{path}: image size {width}x{height} is empty")
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    body = raw[pos:pos + need]
    if len(body) != need:
        raise DataError(f"{path}: truncated pixel data")
    arr = np.frombuffer(body, dtype=np.uint8)
    if channels == 3:
        return arr.reshape(height, width, 3)
    return arr.reshape(height, width)


# ---------------------------------------------------------------------------
# CSV files and manifests
# ---------------------------------------------------------------------------

def write_csv(path, header, rows) -> None:
    """The one CSV writer: UTF-8, the header line, then `rows`; every float is
    written as %.17g, so it reads back exactly."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([f"{v:.17g}" if isinstance(v, (float, np.floating)) else v
                      for v in row] for row in rows)
    write_output(path, [text.getvalue().encode("utf-8")])


def read_csv(path, what, header) -> list:
    """The one CSV reader: (line number, fields) for each row after the header
    line, which must equal `header`; every row must have as many fields."""
    reader = csv.reader(io.StringIO(read_input(path, what, text=True), newline=""))
    try:
        rows = [(reader.line_num, fields) for fields in reader]
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows or rows[0][1] != header:
        raise DataError(f"{path}: first line must be '{','.join(header)}'")
    for lineno, fields in rows[1:]:
        if len(fields) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}")
    return rows[1:]


@dataclass(frozen=True)
class ManifestRow:
    path: str
    label: str
    split: str
    subject: str

    @property
    def y(self) -> int:
        return 1 if self.label == "bonafide" else 0


def load_manifest(path, subject_disjoint: bool = False) -> list[ManifestRow]:
    """Parse and validate a manifest CSV (header: path,label,split,subject)."""
    out = []
    seen_paths = set()
    subjects_by_split = {s: set() for s in SPLITS}
    for lineno, row in read_csv(path, "manifest", MANIFEST_HEADER):
        p, label, split, subject = (field.strip() for field in row)
        if label not in LABELS:
            raise DataError(f"{path}:{lineno}: unknown label {label!r}")
        if split not in SPLITS:
            raise DataError(f"{path}:{lineno}: unknown split {split!r}")
        if p in seen_paths:
            raise DataError(f"{path}:{lineno}: duplicate path {p!r}")
        seen_paths.add(p)
        subjects_by_split[split].add(subject)
        out.append(ManifestRow(p, label, split, subject))
    if subject_disjoint:
        for a in range(len(SPLITS)):
            for b in range(a + 1, len(SPLITS)):
                shared = subjects_by_split[SPLITS[a]] & subjects_by_split[SPLITS[b]]
                if shared:
                    raise DataError(
                        f"{path}: subject(s) {sorted(shared)[:3]} appear in both "
                        f"{SPLITS[a]} and {SPLITS[b]} splits")
    return out


def split_rows(rows, split: str) -> list[ManifestRow]:
    return [r for r in rows if r.split == split]


# ---------------------------------------------------------------------------
# Synthetic benchmark
# ---------------------------------------------------------------------------

_SPLIT_IDS = {"train": 0, "dev": 1, "test": 2}


def synth_patch(seed: int, split: str, index: int, size: int):
    """One synthetic patch as uint8 (size, size, 3) plus its label.

    Pure function of (seed, split, index): even indices are bonafide, odd
    are attack, keeping every split balanced within one sample.
    """
    rng = derived_rng(seed, _SPLIT_IDS[split], index)
    label = "bonafide" if index % 2 == 0 else "attack"
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")

    base = rng.uniform(0.35, 0.65)
    img = np.full((size, size), base)
    for _ in range(3):  # smooth low-frequency blobs
        cy, cx = rng.uniform(0, size, 2)
        sigma = rng.uniform(size / 4, size / 2)
        amp = rng.uniform(-0.06, 0.06)
        img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma ** 2))
    theta = rng.uniform(0, np.pi)
    cycles = rng.uniform(1.0, 3.0)
    phase = rng.uniform(0, 2 * np.pi)
    proj = np.cos(theta) * xx + np.sin(theta) * yy
    img += 0.10 * np.sin(2 * np.pi * cycles * proj / size + phase)

    if label == "attack":
        kind = rng.integers(0, 3)
        amp = rng.uniform(0.18, 0.26)
        if kind == 0:  # halftone dot lattice
            period = rng.uniform(3.0, 5.0)
            img += amp * np.sin(2 * np.pi * xx / period) * np.sin(2 * np.pi * yy / period)
        elif kind == 1:  # moire pair of near-identical gratings
            period = rng.uniform(3.0, 5.0)
            t1 = rng.uniform(0, np.pi)
            t2 = t1 + rng.uniform(0.08, 0.25)
            p1 = np.cos(t1) * xx + np.sin(t1) * yy
            p2 = np.cos(t2) * xx + np.sin(t2) * yy
            img += amp * 0.5 * (np.sin(2 * np.pi * p1 / period) + np.sin(2 * np.pi * p2 / period))
        else:  # sharp specular banding
            period = rng.uniform(4.0, 6.0)
            tilt = rng.uniform(-0.2, 0.2)
            p = yy + tilt * xx
            img += amp * np.tanh(4.0 * np.sin(2 * np.pi * p / period))

    tint = rng.uniform(0.92, 1.08, size=3)
    rgb = np.clip(img[:, :, None] * tint[None, None, :], 0.0, 1.0)
    return np.round(rgb * 255.0).astype(np.uint8), label


def generate_synth(spec: SynthSpec, outdir) -> list[ManifestRow]:
    """Materialize the synthetic dataset under `outdir` and return its rows.

    Patch bytes are a pure function of (spec.seed, split, index); the
    manifest is written to <outdir>/manifest.csv.
    """
    rows = []
    for split in SPLITS:
        for index in range(getattr(spec, split)):
            patch, label = synth_patch(spec.seed, split, index, spec.size)
            rel = os.path.join(split, f"{label}_{index:05d}.ppm")
            write_image(os.path.join(outdir, rel), patch)
            rows.append(ManifestRow(rel, label, split, f"{split}-{index:04d}"))
    write_csv(os.path.join(outdir, "manifest.csv"), MANIFEST_HEADER,
              ([r.path, r.label, r.split, r.subject] for r in rows))
    return rows


def load_frame_tensor(root, row: ManifestRow, size: int) -> np.ndarray:
    """Load and preprocess one manifest row into a (3, size, size) slice."""
    return preprocess(read_image(os.path.join(root, row.path)), size)
