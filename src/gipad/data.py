"""Frame ingestion and the desk-scale synthetic benchmark.

Frames arrive as individual binary PGM (P5) or PPM (P6) files. Preprocessing
is: adaptive center crop to the smaller frame dimension, bilinear resize with
half-pixel centers, then mapping to [-1, 1] with per-channel mean/std 0.5.

The synthetic generator replaces the licensed face datasets: both classes
share a smooth low-frequency base with mild oriented gradients; attack
patches additionally carry a high-frequency overlay (halftone dots, moire
gratings, or specular banding), mimicking the sharp broadband texture of
replayed or printed media.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

LABELS = ("bonafide", "attack")
SPLITS = ("train", "dev", "test")
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

    Works on (h, w) or (h, w, c) float arrays; output values stay within the
    input range because interpolation weights are convex.
    """
    if size < 1:
        raise ConfigError(f"target size must be >= 1, got {size}")
    squeeze = image.ndim == 2
    img = image.astype(np.float64)
    if squeeze:
        img = img[:, :, None]
    h, w = img.shape[:2]
    coords_y = (np.arange(size) + 0.5) * (h / size) - 0.5
    coords_x = (np.arange(size) + 0.5) * (w / size) - 0.5
    y0 = np.clip(np.floor(coords_y), 0, h - 1).astype(int)
    x0 = np.clip(np.floor(coords_x), 0, w - 1).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(coords_y - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(coords_x - x0, 0.0, 1.0)[None, :, None]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bot = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    out = top * (1 - wy) + bot * wy
    return out[:, :, 0] if squeeze else out


def _to_unit_range(image: np.ndarray) -> np.ndarray:
    # integer dtype is 8-bit pixel data; floats above 1.5 are treated as
    # 8-bit-range values (e.g. 127.5), anything else as already unit-range
    arr = image.astype(np.float64)
    if np.issubdtype(image.dtype, np.integer) or arr.max() > 1.5:
        return arr / 255.0
    return arr


def normalize(image: np.ndarray) -> np.ndarray:
    """Map an 8-bit or unit-range (h, w, 3) image to a (3, h, w) slice in [-1, 1]."""
    img = _to_unit_range(image)
    img = (img - CHANNEL_MEAN) / CHANNEL_STD
    if img.ndim == 2:
        img = img[:, :, None].repeat(3, axis=2)
    return img.transpose(2, 0, 1)


def denormalize(chw: np.ndarray) -> np.ndarray:
    """Inverse of normalize, back to a unit-range (h, w, c) image."""
    return (chw.transpose(1, 2, 0) * CHANNEL_STD) + CHANNEL_MEAN


def preprocess(frame: np.ndarray, size: int) -> np.ndarray:
    """Crop, resize and normalize one frame into a (3, size, size) slice."""
    resized = resize_bilinear(center_crop(_to_unit_range(frame)), size)
    return normalize(resized)


# ---------------------------------------------------------------------------
# PPM / PGM
# ---------------------------------------------------------------------------

def write_ppm(path, image: np.ndarray) -> None:
    """Binary P6 writer for uint8 (h, w, 3) images."""
    arr = np.asarray(image, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def write_pgm(path, image: np.ndarray) -> None:
    """Binary P5 writer for uint8 (h, w) images."""
    arr = np.asarray(image, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def read_image(path) -> np.ndarray:
    """Read a binary PGM/PPM; returns uint8 (h, w) or (h, w, 3)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read image {path}: {exc}") from exc
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    try:
        magic, width, height, maxval = fields[0], *(int(f) for f in fields[1:])
    except ValueError as exc:
        raise DataError(f"{path}: malformed PGM/PPM header") from exc
    pos += 1  # single whitespace after maxval
    if magic not in (b"P5", b"P6") or maxval != 255:
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
# Manifests
# ---------------------------------------------------------------------------

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
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    if not rows or rows[0] != MANIFEST_HEADER:
        raise DataError(f"{path}: first line must be '{','.join(MANIFEST_HEADER)}'")
    out = []
    seen_paths = set()
    subjects_by_split = {s: set() for s in SPLITS}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
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


def write_manifest(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        for row in rows:
            writer.writerow([row.path, row.label, row.split, row.subject])


def split_rows(rows, split: str) -> list[ManifestRow]:
    return [r for r in rows if r.split == split]


# ---------------------------------------------------------------------------
# Synthetic benchmark
# ---------------------------------------------------------------------------

@dataclass
class SynthSpec:
    seed: int = 7
    train: int = 512
    dev: int = 128
    test: int = 128
    size: int = 64

    def __post_init__(self):
        for split in SPLITS:
            if getattr(self, split) < 1:
                raise ConfigError(f"synthetic {split} count must be >= 1")


_SPLIT_IDS = {"train": 0, "dev": 1, "test": 2}


def synth_patch(seed: int, split: str, index: int, size: int):
    """One synthetic patch as uint8 (size, size, 3) plus its label.

    Pure function of (seed, split, index): even indices are bonafide, odd
    are attack, keeping every split balanced within one sample.
    """
    rng = np.random.default_rng([int(seed), _SPLIT_IDS[split], int(index)])
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
    os.makedirs(outdir, exist_ok=True)
    rows = []
    for split in SPLITS:
        split_dir = os.path.join(outdir, split)
        os.makedirs(split_dir, exist_ok=True)
        for index in range(getattr(spec, split)):
            patch, label = synth_patch(spec.seed, split, index, spec.size)
            rel = os.path.join(split, f"{label}_{index:05d}.ppm")
            try:
                write_ppm(os.path.join(outdir, rel), patch)
            except OSError as exc:
                raise DataError(f"cannot write patch {rel}: {exc}") from exc
            rows.append(ManifestRow(rel, label, split, f"{split}-{index:04d}"))
    write_manifest(os.path.join(outdir, "manifest.csv"), rows)
    return rows


def load_frame_tensor(root, row: ManifestRow, size: int) -> np.ndarray:
    """Load and preprocess one manifest row into a (3, size, size) slice."""
    return preprocess(read_image(os.path.join(root, row.path)), size)
