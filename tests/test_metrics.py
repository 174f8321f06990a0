import random

import pytest
from hypothesis import given, strategies as st

from ngridsim.metrics import (LabeledScore, final_metric, metric_report,
                              prc_auc, precision_recall_f1, roc_auc)
from oracles import prc_auc_steps, roc_auc_pairs


def samples(labels, scores):
    return [LabeledScore(label=l, score=s) for l, s in zip(labels, scores)]


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc(samples([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.1])) == 1.0

    def test_three_of_four_concordant(self):
        assert roc_auc(samples([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.2])) == pytest.approx(0.75)

    def test_single_tied_pair(self):
        assert roc_auc(samples([1, 0], [0.5, 0.5])) == pytest.approx(0.5)

    def test_degenerate_input_raises(self):
        with pytest.raises(ValueError):
            roc_auc(samples([1, 1], [0.2, 0.9]))
        with pytest.raises(ValueError):
            roc_auc(samples([0, 0], [0.2, 0.9]))

    def test_matches_pair_oracle_with_ties(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 30)
            labels = [rng.randint(0, 1) for _ in range(n)]
            if sum(labels) in (0, n):
                labels[0] = 1 - labels[0]
            scores = [rng.choice([0.0, 0.25, 0.5, 0.5, 0.75, 1.0, rng.random()])
                      for _ in range(n)]
            got = roc_auc(samples(labels, scores))
            assert got == pytest.approx(roc_auc_pairs(labels, scores), abs=1e-12)

    def test_rank_invariance(self):
        labels = [1, 0, 1, 0, 1, 0]
        scores = [0.9, 0.8, 0.8, 0.4, 0.3, 0.1]
        squashed = [s ** 3 for s in scores]  # strictly increasing transform
        assert roc_auc(samples(labels, scores)) == pytest.approx(
            roc_auc(samples(labels, squashed)), abs=1e-12)

    def test_label_inversion(self):
        rng = random.Random(3)
        labels = [rng.randint(0, 1) for _ in range(20)]
        labels[0], labels[1] = 0, 1
        scores = [round(rng.random(), 2) for _ in range(20)]
        a = roc_auc(samples(labels, scores))
        b = roc_auc(samples([1 - l for l in labels], scores))
        assert a == pytest.approx(1.0 - b, abs=1e-12)


class TestPrecisionRecallF1:
    def test_confusion_counts(self):
        p, r, f1 = precision_recall_f1(samples([1, 1, 1, 0], [0.9, 0.8, 0.1, 0.7]))
        assert (p, r, f1) == pytest.approx((2 / 3, 2 / 3, 2 / 3))

    def test_all_correct(self):
        assert precision_recall_f1(samples([1, 0], [0.9, 0.1])) == pytest.approx((1, 1, 1))

    def test_zero_over_zero_convention(self):
        assert precision_recall_f1(samples([0, 0], [0.1, 0.2])) == (0.0, 0.0, 0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            precision_recall_f1([])

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_raises(self, threshold):
        """A NaN threshold would predict nothing and an infinite one all or
        nothing, silently: each is refused, naming the threshold."""
        with pytest.raises(ValueError, match="threshold must be finite"):
            precision_recall_f1(samples([1, 0], [0.9, 0.1]), threshold)

    def test_threshold_outside_unit_interval(self):
        """A finite threshold outside [0, 1] predicts all or nothing."""
        assert precision_recall_f1(samples([1, 0], [0.9, 0.1]), 1.5) == (0.0, 0.0, 0.0)
        assert precision_recall_f1(samples([1, 0], [0.9, 0.1]), -0.5) == \
            pytest.approx((0.5, 1.0, 2 / 3))


class TestPrcAuc:
    def test_all_positives_first(self):
        assert prc_auc(samples([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.1])) == 1.0

    def test_single_positive_found_last(self):
        assert prc_auc(samples([0, 1], [0.9, 0.1])) == pytest.approx(0.5)

    def test_interleaved(self):
        assert prc_auc(samples([1, 0, 1], [0.9, 0.8, 0.7])) == pytest.approx(5 / 6)

    def test_no_positives_raises(self):
        with pytest.raises(ValueError):
            prc_auc(samples([0, 0], [0.1, 0.9]))

    def test_matches_step_oracle_with_ties(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 30)
            labels = [rng.randint(0, 1) for _ in range(n)]
            if sum(labels) == 0:
                labels[0] = 1
            scores = [rng.choice([0.0, 0.2, 0.5, 0.5, 0.9, rng.random()]) for _ in range(n)]
            got = prc_auc(samples(labels, scores))
            assert got == pytest.approx(prc_auc_steps(labels, scores), abs=1e-12)


class TestFinalMetric:
    def test_table_values(self):
        assert final_metric(0.939, 0.856, 0.944) == pytest.approx(0.9156, abs=1e-12)

    def test_unit_and_zero(self):
        assert final_metric(1, 1, 1) == pytest.approx(1.0)
        assert final_metric(0, 0, 0) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            final_metric(1.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            final_metric(0.5, -0.1, 0.5)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_bounded_by_inputs(self, a, b, c):
        fm = final_metric(a, b, c)
        assert min(a, b, c) - 1e-12 <= fm <= max(a, b, c) + 1e-12


class TestMetricReport:
    def test_perfect_classifier(self):
        rep = metric_report(samples([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.1]))
        assert (rep.roc_auc, rep.f1, rep.prc_auc, rep.fm) == pytest.approx((1, 1, 1, 1))

    def test_anti_perfect(self):
        rep = metric_report(samples([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]))
        assert rep.roc_auc == 0.0

    def test_fm_consistency_and_oracle(self):
        rng = random.Random(5)
        labels = [rng.randint(0, 1) for _ in range(50)]
        labels[0], labels[1] = 0, 1
        scores = [round(rng.random(), 2) for _ in range(50)]
        rep = metric_report(samples(labels, scores))
        assert rep.roc_auc == pytest.approx(roc_auc_pairs(labels, scores), abs=1e-12)
        assert rep.prc_auc == pytest.approx(prc_auc_steps(labels, scores), abs=1e-12)
        assert rep.fm == pytest.approx(
            0.4 * rep.roc_auc + 0.3 * rep.f1 + 0.3 * rep.prc_auc, abs=1e-12)

    def test_both_aucs_one_iff_strict_separation(self):
        strict = samples([1, 1, 0], [0.9, 0.8, 0.7])
        rep = metric_report(strict)
        assert rep.roc_auc == 1.0 and rep.prc_auc == 1.0
        tied = samples([1, 0], [0.5, 0.5])
        rep = metric_report(tied)
        assert rep.roc_auc < 1.0 and rep.prc_auc < 1.0
