"""Forensics on the generated kernels: spectral and spatial indicators,
class-wise aggregates, and effect sizes.

`sample_stats` defines what one audited sample yields: the averaged kernel
and four indicators of the kernel field that the end-placement adaptive
block generates (batch norm in infer mode):

* hf_lf: spectral energy outside the low-frequency disc (integer frequency
  radius <= 1, DC included) divided by the energy inside it;
* anisotropy: normalized eigenvalue spread of the spectral second-moment
  matrix over non-DC bins, 0 = isotropic, 1 = perfectly oriented;
* dc_offset: mean kernel weight over positions, groups, and taps;
* position_variance: mean over (group, tap) of the variance of a tap across
  spatial positions.

hf_lf and anisotropy are evaluated on the per-sample kernel averaged over
positions and groups; position_variance needs the unaveraged field by
definition; dc_offset is linear, so either view gives the same number.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import dump
from .data import split_rows, write_csv, write_image
from .errors import ConfigError, DataError, UndefinedMetricError, write_output
from .tensor import write_tensor4

LF_RADIUS = 1.0
DEGENERATE_ENERGY = 1e-15
HISTOGRAM_BINS = 30
INDICATORS = ("hf_lf", "anisotropy", "dc_offset", "position_variance")

RATIO_OVERFLOW = "ratio_overflow"


def dc_offset(field_arr: np.ndarray) -> float:
    """Mean of all kernel weights in the field."""
    if field_arr.size == 0:
        raise ConfigError("empty kernel field")
    return float(field_arr.mean())


def position_variance(field_arr: np.ndarray) -> float:
    """Spatial non-stationarity: variance of each tap across positions,
    averaged over groups and taps. A single spatial position gives 0.

    Each tap is shifted by its first position's value before the variance
    (which a shift leaves unchanged), so a spatially constant field comes
    out exactly zero instead of float-summation residue."""
    n, g, k, k2, h, w = field_arr.shape
    if h * w < 2:
        return 0.0
    taps = field_arr.reshape(n * g * k * k2, h * w)
    shifted = taps - taps[:, :1]
    return float(shifted.var(axis=1).mean())


def kernel_energy(kernel: np.ndarray) -> np.ndarray:
    """k x k DFT magnitude-squared of a single kernel."""
    return np.abs(np.fft.fft2(kernel)) ** 2


def _spectrum(kernel: np.ndarray):
    """DFT energy of a square k x k kernel (k >= 3) and its integer frequencies fu, fv."""
    k = kernel.shape[0]
    if k < 3 or kernel.shape != (k, k):
        raise ConfigError(f"kernel must be square with k >= 3, got {kernel.shape}")
    f = np.fft.fftfreq(k) * k
    fu, fv = np.meshgrid(f, f, indexing="ij")
    return kernel_energy(kernel), fu, fv


def hf_lf_ratio(kernel: np.ndarray) -> float:
    """High-to-low frequency energy ratio of one k x k kernel.

    Low frequency = bins with integer frequency radius <= 1 (DC included).
    Returns math.inf when the low band is numerically empty; raises on an
    all-zero kernel, whose spectrum carries no information.
    """
    energy, fu, fv = _spectrum(kernel)
    if energy.sum() < DEGENERATE_ENERGY:
        raise UndefinedMetricError("all-zero kernel has no defined HF/LF ratio")
    low = fu * fu + fv * fv <= LF_RADIUS ** 2
    lf = energy[low].sum()
    hf = energy[~low].sum()
    if lf < DEGENERATE_ENERGY:
        return math.inf
    return float(hf / lf)


def anisotropy(kernel: np.ndarray) -> float:
    """Orientation selectivity in [0, 1] from the spectral second moments.

    M = sum over non-DC bins of E(f) * f f^T; returns (l1 - l2) / (l1 + l2)
    of M's eigenvalues, and 0 when non-DC energy is numerically zero.
    """
    energy, fu, fv = _spectrum(kernel)
    nondc = (fu != 0) | (fv != 0)
    e = energy[nondc]
    if e.sum() < DEGENERATE_ENERGY:
        return 0.0
    u = fu[nondc]
    v = fv[nondc]
    m_uu = (e * u * u).sum()
    m_vv = (e * v * v).sum()
    m_uv = (e * u * v).sum()
    # eigenvalues of the symmetric 2x2 moment matrix
    half_trace = (m_uu + m_vv) / 2.0
    radius = np.sqrt(((m_uu - m_vv) / 2.0) ** 2 + m_uv ** 2)
    lam1, lam2 = half_trace + radius, half_trace - radius
    return float((lam1 - lam2) / (lam1 + lam2))


def cohens_d(a, b) -> float:
    """Standardized mean difference (a minus b) with pooled std."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise UndefinedMetricError("cohens_d needs at least two samples per group")
    na, nb = a.size, b.size
    pooled = np.sqrt(((na - 1) * a.var(ddof=1) + (nb - 1) * b.var(ddof=1)) / (na + nb - 2))
    if pooled == 0.0:
        raise UndefinedMetricError("cohens_d undefined for zero pooled standard deviation")
    return float((a.mean() - b.mean()) / pooled)


@dataclass
class AuditReport:
    per_class: dict
    effect_sizes: dict
    mean_kernel: np.ndarray
    mean_energy: np.ndarray
    histograms: dict
    counts: dict
    overflow_counts: dict


def sample_stats(field_arr: np.ndarray) -> tuple[dict, np.ndarray]:
    """(indicators keyed by INDICATORS in order, kernel averaged over positions
    and groups) of one generated field (single sample)."""
    mean_kernel = field_arr.mean(axis=(0, 1, 4, 5))
    indicators = {
        "hf_lf": hf_lf_ratio(mean_kernel),
        "anisotropy": anisotropy(mean_kernel),
        "dc_offset": dc_offset(field_arr),
        "position_variance": position_variance(field_arr),
    }
    return indicators, mean_kernel


def export_kernel_field(path, field_arr: np.ndarray) -> None:
    """Write a kernel field as a tensor container with dims (n*G, k*k, h, w)
    plus a `key = value` sidecar naming n, G and k."""
    n, g, k, _, h, w = field_arr.shape
    write_tensor4(path, field_arr.reshape(n * g, k * k, h, w))
    write_output(f"{path}.meta", [dump({"n": n, "G": g, "k": k}).encode("utf-8")])


def audit_run(model, rows, max_samples: int = 256, data_root=".", split="test",
              export_field_path=None) -> AuditReport:
    """Generate kernel fields over a manifest split and aggregate indicators.

    Per sample, the model runs in infer mode up to the end-placement adaptive
    block, whose kernel generator then gives the field; statistics are
    aggregated per class with Cohen's d reported as attack minus bonafide.
    A non-finite indicator value is left out of that indicator's aggregates;
    samples whose HF/LF overflows are also counted separately. A non-finite
    field, mean kernel or kernel energy, of a sample or averaged, is a fault
    of the checkpoint's weights and raises DataError before anything is
    written; the first sample's field goes to `export_field_path` after that.
    """
    from .data import load_frame_tensor

    if model.end_gi is None:
        raise ConfigError("kernel audit requires a model with an end-placement adaptive block")
    if max_samples < 1:
        raise ConfigError(f"max_samples must be >= 1, got {max_samples}")
    chosen = split_rows(rows, split)[:max_samples]
    if not chosen:
        raise ConfigError(f"no rows in split {split!r}")
    values = {name: {"bonafide": [], "attack": []} for name in INDICATORS}
    overflow = {"bonafide": 0, "attack": 0}
    kernels, energies = [], []
    first_field = None
    for row in chosen:
        x = load_frame_tensor(data_root, row, model.cfg.input_size)[None]
        # an overflowing field is reported by _check_finite, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            fld, _ = model.end_gi.field(model.forward(x, until=model.end_gi))
            indicators, mean_kernel = sample_stats(fld)
            energy = kernel_energy(mean_kernel)
        where = os.path.join(data_root, row.path)
        _check_finite(where, (("field", fld), ("mean kernel", mean_kernel),
                              ("kernel energy", energy)))
        if first_field is None:
            first_field = fld
        kernels.append(mean_kernel)
        energies.append(energy)
        for name, val in indicators.items():
            if math.isfinite(val):
                values[name][row.label].append(val)
            elif name == "hf_lf":
                overflow[row.label] += 1
    per_class = {}
    for name in INDICATORS:
        per_class[name] = {}
        for label in ("bonafide", "attack"):
            arr = np.asarray(values[name][label], dtype=np.float64)
            per_class[name][label] = {
                "mean": float(arr.mean()) if arr.size else None,
                "std": float(arr.std(ddof=1)) if arr.size > 1 else None,
                "n": int(arr.size),
            }
    effects = {}
    for name in INDICATORS:
        try:
            effects[name] = cohens_d(values[name]["attack"], values[name]["bonafide"])
        except UndefinedMetricError:
            effects[name] = None
    histograms = {name: _histogram(values[name]) for name in INDICATORS}
    counts = {label: sum(1 for r in chosen if r.label == label)
              for label in ("bonafide", "attack")}
    with np.errstate(over="ignore"):
        mean_kernel, mean_energy = np.mean(kernels, axis=0), np.mean(energies, axis=0)
    _check_finite(f"{len(chosen)} {split} samples", (("averaged kernel", mean_kernel),
                                                      ("averaged energy", mean_energy)))
    if export_field_path is not None:
        export_kernel_field(export_field_path, first_field)
    return AuditReport(
        per_class=per_class,
        effect_sizes=effects,
        mean_kernel=mean_kernel,
        mean_energy=mean_energy,
        histograms=histograms,
        counts=counts,
        overflow_counts=overflow,
    )


def _check_finite(where, arrays):
    for what, arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{where}: gi_end generates a non-finite {what}; "
                            f"the checkpoint's generator weights overflow")


def _histogram(by_label):
    pooled = np.asarray(by_label["bonafide"] + by_label["attack"], dtype=np.float64)
    if pooled.size == 0:
        return None
    lo, hi = float(pooled.min()), float(pooled.max())
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    bona, _ = np.histogram(by_label["bonafide"], bins=edges)
    attack, _ = np.histogram(by_label["attack"], bins=edges)
    return {"edges": edges.tolist(), "bonafide": bona.tolist(), "attack": attack.tolist()}


def normalize_unit(img: np.ndarray) -> np.ndarray:
    """Per-image min-max map to [0, 1]; constant images map to 0."""
    lo, hi = img.min(), img.max()
    if hi - lo < 1e-15:
        return np.zeros_like(img)
    return (img - lo) / (hi - lo)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return RATIO_OVERFLOW
    return value


def report_to_dict(report: AuditReport) -> dict:
    return {
        "per_class": report.per_class,
        "cohens_d": {k: _json_safe(v) for k, v in report.effect_sizes.items()},
        "counts": report.counts,
        "hf_lf_overflow": report.overflow_counts,
        "mean_kernel": report.mean_kernel.tolist(),
        "mean_energy": report.mean_energy.tolist(),
    }


def save_report(outdir, report: AuditReport) -> None:
    """JSON report, PGM/tensor exports of the mean maps, histogram CSVs."""
    write_output(os.path.join(outdir, "audit.json"),
                 [json.dumps(report_to_dict(report), indent=2).encode("utf-8")])
    for name in ("mean_kernel", "mean_energy"):
        arr = getattr(report, name)
        write_image(os.path.join(outdir, f"{name}.pgm"),
                    np.round(normalize_unit(arr) * 255).astype(np.uint8))
        write_tensor4(os.path.join(outdir, f"{name}.t4"), arr.reshape(1, 1, *arr.shape))
    for name, hist in report.histograms.items():
        if hist is None:
            continue
        edges = hist["edges"]
        write_csv(os.path.join(outdir, f"hist_{name}.csv"),
                  ["bin_lo", "bin_hi", "count_bonafide", "count_attack"],
                  zip(edges[:-1], edges[1:], hist["bonafide"], hist["attack"]))
