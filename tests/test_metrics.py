"""Metric implementations against exhaustive brute-force oracles."""

import numpy as np
import pytest

from gipad import data, metrics
from gipad.errors import DataError, UndefinedMetricError


# ---------------------------------------------------------------------------
# Brute-force oracles: plain loops over samples and candidate thresholds.
# ---------------------------------------------------------------------------

def oracle_rates(scores, labels, tau):
    fa = fr = n_b = n_a = correct = 0
    for s, y in zip(scores, labels):
        if y == 1:
            n_b += 1
            if s < tau:
                fr += 1
            else:
                correct += 1
        else:
            n_a += 1
            if s >= tau:
                fa += 1
            else:
                correct += 1
    return fa / n_a, fr / n_b, correct / (n_a + n_b)


def oracle_candidates(scores):
    uniq = sorted(set(scores))
    cands = [uniq[0] - 1.0]
    for a, b in zip(uniq, uniq[1:]):
        cands.append((a + b) / 2.0)
    cands.append(uniq[-1] + 1.0)
    return cands


def oracle_eer(scores, labels):
    best_gap, best = None, None
    for tau in oracle_candidates(scores):
        far, frr, _ = oracle_rates(scores, labels, tau)
        gap = abs(far - frr)
        if best_gap is None or gap < best_gap:
            best_gap, best = gap, ((far + frr) / 2.0, tau)
    return best


def oracle_auc(scores, labels):
    bona = [s for s, y in zip(scores, labels) if y == 1]
    attack = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for b in bona:
        for a in attack:
            if b > a:
                total += 1.0
            elif b == a:
                total += 0.5
    return total / (len(bona) * len(attack))


def oracle_youden(scores, labels):
    bona = [s for s, y in zip(scores, labels) if y == 1]
    attack = [s for s, y in zip(scores, labels) if y == 0]
    best = None
    for tau in oracle_candidates(scores):
        tpr = sum(1 for s in bona if s >= tau) / len(bona)
        fpr = sum(1 for s in attack if s >= tau) / len(attack)
        if best is None or tpr - fpr > best:
            best = tpr - fpr
    return best


def random_score_set(rng, n_max=20):
    n = int(rng.integers(4, n_max + 1))
    # duplicate-heavy grids exercise the tie handling
    scores = rng.choice(np.round(np.linspace(0, 1, 7), 3), size=n)
    labels = np.zeros(n, dtype=int)
    labels[rng.permutation(n)[:int(rng.integers(1, n))] ] = 1
    if labels.sum() == n:
        labels[0] = 0
    return scores.astype(np.float64), labels


class TestRates:
    def test_separable(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([1, 1, 0, 0])
        assert metrics.rates_at(scores, labels, 0.5) == (0.0, 0.0, 1.0)

    def test_threshold_below_everything(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([1, 1, 0, 0])
        far, frr, _ = metrics.rates_at(scores, labels, -np.inf)
        assert far == 1.0 and frr == 0.0

    def test_boundary_counts_as_accept(self):
        far, _, _ = metrics.rates_at(np.array([0.5, 0.9]), np.array([0, 1]), 0.5)
        assert far == 1.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            scores, labels = random_score_set(rng, 10)
            tau = float(rng.choice(scores)) + float(rng.uniform(-0.2, 0.2))
            assert metrics.rates_at(scores, labels, tau) == \
                oracle_rates(scores, labels, tau)

    def test_empty_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            metrics.rates_at(np.array([0.1, 0.2]), np.array([1, 1]), 0.5)


class TestEer:
    def test_separable_zero(self):
        val, _ = metrics.eer(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0]))
        assert val == 0.0

    def test_degenerate_half(self):
        val, _ = metrics.eer(np.full(6, 0.5), np.array([1, 1, 1, 0, 0, 0]))
        assert val == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(120):
            scores, labels = random_score_set(rng, 12)
            assert metrics.eer(scores, labels) == oracle_eer(scores, labels)


class TestHter:
    def test_zero(self):
        op = metrics.OperatingPoint(0.5)
        assert metrics.hter(np.array([0.9, 0.1]), np.array([1, 0]), op) == 0.0

    def test_arithmetic_mean(self):
        # FAR 0.02, FRR 0.04 -> HTER 0.03
        scores = np.concatenate([np.full(96, 0.8), np.full(4, 0.2),    # bonafide
                                 np.full(98, 0.1), np.full(2, 0.9)])   # attacks
        labels = np.concatenate([np.ones(100, dtype=int), np.zeros(100, dtype=int)])
        assert metrics.hter(scores, labels, metrics.OperatingPoint(0.5)) == \
            pytest.approx(0.03)

    def test_dev_calibrated_two_stage(self):
        # dev fixes the threshold; the shifted test set is scored at it
        dev_scores = np.array([0.8, 0.7, 0.3, 0.2])
        dev_labels = np.array([1, 1, 0, 0])
        op = metrics.operating_point_from_dev(dev_scores, dev_labels)
        assert op.threshold == 0.5  # midpoint between 0.3 and 0.7
        test_scores = np.array([0.65, 0.45, 0.55, 0.35])
        test_labels = np.array([1, 1, 0, 0])
        far, frr, _ = metrics.rates_at(test_scores, test_labels, op.threshold)
        assert (far, frr) == (0.5, 0.5)
        assert metrics.hter(test_scores, test_labels, op) == 0.5

    def test_bounded_by_far_frr(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores, labels = random_score_set(rng)
            tau = float(rng.uniform(0, 1))
            far, frr, _ = metrics.rates_at(scores, labels, tau)
            h = metrics.hter(scores, labels, metrics.OperatingPoint(tau))
            assert min(far, frr) - 1e-15 <= h <= max(far, frr) + 1e-15


class TestAuc:
    def test_separable(self):
        assert metrics.auc_roc(np.array([0.9, 0.8, 0.1]), np.array([1, 1, 0])) == 1.0

    def test_all_equal_half(self):
        assert metrics.auc_roc(np.full(5, 0.3), np.array([1, 1, 0, 0, 0])) == 0.5

    def test_matches_all_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            scores, labels = random_score_set(rng, 15)
            assert metrics.auc_roc(scores, labels) == pytest.approx(
                oracle_auc(scores, labels), abs=1e-12)

    def test_negation_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores, labels = random_score_set(rng)
            assert metrics.auc_roc(scores, labels) == pytest.approx(
                metrics.auc_roc(-scores, 1 - labels), abs=1e-12)


class TestYouden:
    def test_separable(self):
        assert metrics.youden_max(np.array([0.9, 0.8, 0.1]), np.array([1, 1, 0])) == 1.0

    def test_all_equal_zero(self):
        assert metrics.youden_max(np.full(4, 0.2), np.array([1, 0, 1, 0])) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            scores, labels = random_score_set(rng, 14)
            assert metrics.youden_max(scores, labels) == oracle_youden(scores, labels)


class TestAcer:
    def test_reference_row(self):
        # APCER 0.00%, BPCER 0.83% -> ACER 0.415% which renders as 0.42
        value = metrics.acer(0.0, 0.0083) * 100
        assert value == pytest.approx(0.415)
        assert abs(value - 0.42) <= 0.005 + 1e-12

    def test_mean_identity(self):
        assert metrics.acer(0.07, 0.07) == 0.07

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            scores, labels = random_score_set(rng)
            tau = float(rng.uniform(0, 1))
            apcer, bpcer = metrics.apcer_bpcer(scores, labels, tau)
            far, frr, _ = oracle_rates(scores, labels, tau)
            assert (apcer, bpcer) == (far, frr)


class TestInvariances:
    def test_monotone_transform(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            scores, labels = random_score_set(rng)
            warped = np.exp(2.0 * scores) + 1.0
            assert metrics.auc_roc(scores, labels) == pytest.approx(
                metrics.auc_roc(warped, labels), abs=1e-12)
            assert metrics.eer(scores, labels)[0] == pytest.approx(
                metrics.eer(warped, labels)[0], abs=1e-12)
            assert metrics.youden_max(scores, labels) == pytest.approx(
                metrics.youden_max(warped, labels), abs=1e-12)


class TestReportAndFiles:
    def test_report_keys(self):
        scores = np.array([0.9, 0.8, 0.3, 0.1])
        labels = np.array([1, 1, 0, 0])
        rep = metrics.metric_report(scores, labels, metrics.OperatingPoint(0.5))
        for key in ("accuracy", "auc", "eer", "far", "frr", "hter", "yi",
                    "apcer", "bpcer", "acer", "threshold", "n_bonafide", "n_attack"):
            assert key in rep
        assert rep["n_bonafide"] == 2 and rep["n_attack"] == 2

    def test_scores_csv_roundtrip(self, tmp_path):
        path = tmp_path / "scores.csv"
        scores = np.array([0.123456789012345, 0.5])
        labels = np.array([1, 0])
        metrics.write_scores_csv(path, scores, labels, ["test", "test"])
        s2, l2, sp2 = metrics.read_scores_csv(path)
        np.testing.assert_array_equal(s2, scores)
        np.testing.assert_array_equal(l2, labels)
        assert sp2 == ["test", "test"]
        rows = data.read_csv(path, "scores", metrics.SCORES_HEADER)
        assert [(line, float(f[0])) for line, f in rows] == [(2, scores[0]), (3, scores[1])]

    def test_scores_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n", encoding="utf-8")
        with pytest.raises(DataError):
            metrics.read_scores_csv(path)

    @pytest.mark.parametrize("row, line", [
        ("high,bonafide,test", 3),
        ("9" * 200000 + ",attack,test", 3),
        ("0.5,attack", 3),
    ], ids=["score_not_a_number", "field_over_limit", "missing_field"])
    def test_scores_csv_bad_row_names_its_line(self, tmp_path, row, line):
        path = tmp_path / "bad.csv"
        path.write_text(f"score,label,split\n0.5,bonafide,test\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"bad.csv:{line}:"):
            metrics.read_scores_csv(path)

    def test_aggregate_by_prefix(self):
        paths = ["v1_000.ppm", "v1_001.ppm", "v2_000.ppm"]
        scores = np.array([0.8, 0.6, 0.2])
        labels = np.array([1, 1, 0])
        agg_s, agg_l = metrics.aggregate_by_prefix(paths, scores, labels)
        np.testing.assert_allclose(sorted(agg_s), [0.2, 0.7])
        assert sorted(agg_l) == [0, 1]

    def test_aggregate_rejects_mixed_groups(self):
        with pytest.raises(DataError):
            metrics.aggregate_by_prefix(["v1_0.ppm", "v1_1.ppm"],
                                        np.array([0.5, 0.5]), np.array([1, 0]))
