"""Threshold error rates, ROC statistics, and ISO-style PAD metrics.

Scores follow the convention "higher means more bonafide"; labels are 1 for
bonafide and 0 for attack. All rates are fractions internally; rendering to
percent happens only at the reporting boundary. An attack score exactly at
the threshold counts as a false accept (the boundary belongs to acceptance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LABELS, read_csv, write_csv
from .errors import DataError, UndefinedMetricError


@dataclass(frozen=True)
class OperatingPoint:
    """A threshold fixed before test labels are seen."""
    threshold: float
    source: str = "dev_eer"  # or "fixed"


def _split_scores(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    bona = scores[labels == 1]
    attack = scores[labels == 0]
    return bona, attack


def _require_both(bona, attack, what):
    if bona.size == 0 or attack.size == 0:
        raise UndefinedMetricError(
            f"{what} needs at least one bonafide and one attack score "
            f"(got {bona.size} / {attack.size})")


def rates_at(scores, labels, tau: float):
    """(FAR, FRR, accuracy) at threshold tau.

    FAR counts attack scores >= tau; FRR counts bonafide scores < tau.
    """
    bona, attack = _split_scores(scores, labels)
    _require_both(bona, attack, "rates_at")
    far = np.count_nonzero(attack >= tau) / attack.size
    frr = np.count_nonzero(bona < tau) / bona.size
    correct = np.count_nonzero(bona >= tau) + np.count_nonzero(attack < tau)
    return far, frr, correct / (bona.size + attack.size)


def _sweep(bona, attack):
    """Candidate thresholds and, at each, the counts of bonafide and attack
    scores accepted (score >= tau); each class is sorted once.

    The candidates are one point below all scores, the midpoints between
    adjacent distinct scores, and one point above all scores.
    """
    uniq = np.unique(np.concatenate([bona, attack]))
    taus = np.concatenate(([uniq[0] - 1.0], (uniq[:-1] + uniq[1:]) / 2.0, [uniq[-1] + 1.0]))
    accepted = [x.size - np.searchsorted(np.sort(x), taus, side="left") for x in (bona, attack)]
    return taus, *accepted


def eer(scores, labels):
    """(EER, tau) from the threshold sweep: tau minimizes |FAR - FRR|,
    ties resolved toward the smaller threshold; EER = (FAR + FRR) / 2."""
    bona, attack = _split_scores(scores, labels)
    _require_both(bona, attack, "eer")
    taus, acc_bona, acc_attack = _sweep(bona, attack)
    far = acc_attack / attack.size
    frr = (bona.size - acc_bona) / bona.size
    i = int(np.argmin(np.abs(far - frr)))
    return float((far[i] + frr[i]) / 2.0), taus[i]


def hter(scores, labels, op: OperatingPoint) -> float:
    """Half total error rate at a pre-fixed operating point."""
    far, frr, _ = rates_at(scores, labels, op.threshold)
    return (far + frr) / 2.0


def auc_roc(scores, labels) -> float:
    """Mann-Whitney statistic: P(bonafide score > attack score) + half ties."""
    bona, attack = _split_scores(scores, labels)
    _require_both(bona, attack, "auc_roc")
    attack = np.sort(attack)
    below = np.searchsorted(attack, bona, side="left")
    ties = np.searchsorted(attack, bona, side="right") - below
    return float(below.sum() + 0.5 * ties.sum()) / (bona.size * attack.size)


def youden_max(scores, labels) -> float:
    """Max over swept thresholds of TPR - FPR, bonafide as the positive class."""
    bona, attack = _split_scores(scores, labels)
    _require_both(bona, attack, "youden_max")
    _, acc_bona, acc_attack = _sweep(bona, attack)
    return float(np.max(acc_bona / bona.size - acc_attack / attack.size))


def apcer_bpcer(scores, labels, tau: float):
    """ISO PAD error pair: (APCER, BPCER) = (FAR, FRR) at tau."""
    far, frr, _ = rates_at(scores, labels, tau)
    return far, frr


def acer(apcer: float, bpcer: float) -> float:
    return (apcer + bpcer) / 2.0


def operating_point_from_dev(dev_scores, dev_labels) -> OperatingPoint:
    """Standard PAD protocol: fix the test threshold at the dev-set EER."""
    _, tau = eer(dev_scores, dev_labels)
    return OperatingPoint(tau, "dev_eer")


def metric_report(scores, labels, op: OperatingPoint) -> dict:
    """Full metric bundle at the given operating point (fractions)."""
    bona, attack = _split_scores(scores, labels)
    _require_both(bona, attack, "metric_report")
    far, frr, acc = rates_at(scores, labels, op.threshold)
    eer_val, _ = eer(scores, labels)
    _, _, acc_05 = rates_at(scores, labels, 0.5)
    return {
        "accuracy": acc,
        "accuracy_at_0.5": acc_05,
        "auc": auc_roc(scores, labels),
        "eer": eer_val,
        "far": far,
        "frr": frr,
        "hter": (far + frr) / 2.0,
        "yi": youden_max(scores, labels),
        "apcer": far,
        "bpcer": frr,
        "acer": acer(far, frr),
        "threshold": op.threshold,
        "threshold_source": op.source,
        "n_bonafide": int(bona.size),
        "n_attack": int(attack.size),
    }


# ---------------------------------------------------------------------------
# Score files: CSV with header score,label,split
# ---------------------------------------------------------------------------

SCORES_HEADER = ["score", "label", "split"]


def write_scores_csv(path, scores, labels, splits) -> None:
    write_csv(path, SCORES_HEADER,
              ((s, "bonafide" if y == 1 else "attack", sp)
               for s, y, sp in zip(scores, labels, splits)))


def read_scores_csv(path):
    """Returns (scores, labels, splits) arrays from a score CSV."""
    scores, labels, splits = [], [], []
    for lineno, (score, label, split) in read_csv(path, "scores", SCORES_HEADER):
        if label not in LABELS:
            raise DataError(f"{path}:{lineno}: unknown label {label!r}")
        try:
            scores.append(float(score))
        except ValueError:
            raise DataError(f"{path}:{lineno}: score {score!r} is not a number") from None
        labels.append(1 if label == "bonafide" else 0)
        splits.append(split)
    return np.array(scores), np.array(labels), splits


def aggregate_by_prefix(paths, scores, labels):
    """Optional video-level view: frames sharing a path prefix (the name up
    to a trailing _<digits> counter) are averaged into one score."""
    groups: dict[str, list[int]] = {}
    for i, p in enumerate(paths):
        stem = p.rsplit(".", 1)[0]
        base, _, tail = stem.rpartition("_")
        key = base if base and tail.isdigit() else stem
        groups.setdefault(key, []).append(i)
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    agg_scores, agg_labels = [], []
    for key in sorted(groups):
        idx = groups[key]
        members = labels[idx]
        if not np.all(members == members[0]):
            raise DataError(f"prefix group {key!r} mixes bonafide and attack frames")
        agg_scores.append(scores[idx].mean())
        agg_labels.append(int(members[0]))
    return np.array(agg_scores), np.array(agg_labels)
