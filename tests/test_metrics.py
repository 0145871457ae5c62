"""Metric formula anchors, time-course pooling, bootstrap and word tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erpcoder import metrics
from erpcoder.data import TrialMeta
from oracles import pearson_naive


class TestR2Mod:
    def test_intercept_anchor(self):
        assert metrics.r2_mod(50.0, 50.0, 30.0) == 0.0

    def test_autoencoder_anchor(self):
        assert metrics.r2_mod(30.0, 50.0, 30.0) == 1.0

    def test_hand_value(self):
        # 1 - (40-30)/(50-30)
        assert metrics.r2_mod(40.0, 50.0, 30.0) == 0.5

    def test_worse_than_intercept_negative(self):
        assert metrics.r2_mod(60.0, 50.0, 30.0) < 0.0

    def test_ceiling_violation_rejected(self):
        with pytest.raises(ValueError, match="ceiling"):
            metrics.r2_mod(40.0, 30.0, 30.0)


class TestTimecourse:
    def test_model_equals_intercept_gives_zero(self, rng):
        preds = rng.normal(size=(6, 3, 10))
        actual = rng.normal(size=(6, 3, 10))
        series = metrics.timepoint_correlation_increase(preds, preds.copy(), actual,
                                                        np.arange(10.0))
        np.testing.assert_array_equal(series.values, np.zeros(10))

    def test_perfect_predictions_hit_r1_bound(self, rng):
        actual = rng.normal(size=(6, 3, 10))
        intercept = np.broadcast_to(actual.mean(axis=0), actual.shape).copy()
        series = metrics.timepoint_correlation_increase(actual.copy(), intercept, actual,
                                                        np.arange(10.0))
        r_int = metrics.pooled_timepoint_correlation(intercept, actual)
        np.testing.assert_allclose(series.values, 1.0 - r_int, atol=1e-12)

    def test_pooled_r_matches_bruteforce_flat_vector(self, rng):
        preds = rng.normal(size=(7, 4, 5))
        actual = rng.normal(size=(7, 4, 5))
        r = metrics.pooled_timepoint_correlation(preds, actual)
        t = 2
        assert r[t] == pytest.approx(
            pearson_naive(preds[:, :, t].ravel(), actual[:, :, t].ravel()), abs=1e-12)

    def test_zero_variance_timepoint_flagged_as_zero(self, rng):
        preds = rng.normal(size=(5, 2, 4))
        preds[:, :, 1] = 3.14  # constant at t=1
        actual = rng.normal(size=(5, 2, 4))
        r = metrics.pooled_timepoint_correlation(preds, actual)
        assert r[1] == 0.0
        assert r[0] == pytest.approx(
            pearson_naive(preds[:, :, 0].ravel(), actual[:, :, 0].ravel()), abs=1e-12)
        assert r[0] != 0.0

    def test_affine_invariance_of_pooled_r(self, rng):
        preds = rng.normal(size=(6, 3, 8))
        actual = rng.normal(size=(6, 3, 8))
        r1 = metrics.pooled_timepoint_correlation(preds, actual)
        r2 = metrics.pooled_timepoint_correlation(2.5 * preds + 7.0, actual)
        np.testing.assert_allclose(r1, r2, atol=1e-12)

    def test_self_correlation_is_one(self, rng):
        actual = rng.normal(size=(6, 3, 8))
        r = metrics.pooled_timepoint_correlation(actual.copy(), actual)
        np.testing.assert_allclose(r, np.ones(8), atol=1e-12)


class TestSmoothing:
    def test_window_one_identity(self, rng):
        v = rng.normal(size=9)
        np.testing.assert_array_equal(metrics.moving_average_smooth(v, 1), v)

    def test_constant_unchanged(self):
        v = np.full(7, 2.5)
        np.testing.assert_array_equal(metrics.moving_average_smooth(v, 3), v)

    def test_edge_truncated_means(self):
        out = metrics.moving_average_smooth(np.array([0.0, 3.0, 0.0]), 3)
        np.testing.assert_allclose(out, [1.5, 1.0, 1.5])

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            metrics.moving_average_smooth(np.zeros(5), 4)

    def test_series_wrapper_keeps_axis(self, rng):
        series = metrics.TimecourseSeries(rng.normal(size=5), 1, np.arange(5.0))
        smoothed = metrics.moving_average_smooth(series, 3)
        assert smoothed.smoothing_window == 3
        np.testing.assert_array_equal(smoothed.ms_axis, series.ms_axis)


class TestBootstrapCI:
    def test_degenerate_equal_folds_collapse(self):
        low, high = metrics.bootstrap_ci([4.2, 4.2, 4.2, 4.2, 4.2], seed=1)
        assert low == high == 4.2

    def test_deterministic(self, rng):
        vals = rng.normal(size=5)
        assert metrics.bootstrap_ci(vals, seed=9) == metrics.bootstrap_ci(vals, seed=9)

    def test_brackets_fold_mean(self, rng):
        for _ in range(50):
            vals = rng.normal(size=5)
            low, high = metrics.bootstrap_ci(vals, n_boot=2000,
                                             seed=int(rng.integers(2**31)))
            assert low <= vals.mean() <= high

    def test_is_95_percent_percentile_interval(self, rng):
        vals = rng.normal(size=6)
        idx = np.random.default_rng(3).integers(0, 6, size=(500, 6))
        expected = np.quantile(vals[idx].mean(axis=1), [0.025, 0.975])
        assert metrics.bootstrap_ci(vals, n_boot=500, seed=3) == tuple(expected)

    def test_too_few_values_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            metrics.bootstrap_ci([1.0])


def word_meta(n):
    return [
        TrialMeta(f"s{i % 2}", i // 4, i % 4 + 1, f"w{i}",
                  "content" if i % 2 else "function", "NN" if i % 2 else "DT", False)
        for i in range(n)
    ]


class TestPerWordCorrelations:
    def test_equal_prediction_r_one(self, rng):
        actual = rng.normal(size=(3, 4, 10))
        preds = actual.copy()
        preds[1] = -actual[1]
        table = metrics.per_word_correlations(preds, actual, word_meta(3))
        rs = [row["pearson_r"] for row in table.rows]
        assert rs[0] == pytest.approx(1.0, abs=1e-12)
        assert rs[1] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_trial_flagged(self, rng):
        actual = rng.normal(size=(2, 3, 5))
        preds = actual.copy()
        preds[0] = 7.0
        table = metrics.per_word_correlations(preds, actual, word_meta(2))
        assert table.rows[0]["zero_variance"] == 1
        assert table.rows[0]["pearson_r"] == 0.0

    def test_affine_invariance_per_word(self, rng):
        actual = rng.normal(size=(4, 3, 6))
        preds = rng.normal(size=(4, 3, 6))
        t1 = metrics.per_word_correlations(preds, actual, word_meta(4))
        t2 = metrics.per_word_correlations(0.3 * preds + 2.0, actual, word_meta(4))
        for a, b in zip(t1.rows, t2.rows):
            assert a["pearson_r"] == pytest.approx(b["pearson_r"], abs=1e-12)

    def test_coding_scheme(self, tmp_path, rng):
        actual = rng.normal(size=(2, 3, 5))
        table = metrics.per_word_correlations(
            actual.copy(), actual, word_meta(2), model_name="fs",
            sources=("frequency", "surprisal"))
        row = table.rows[0]
        assert row["has_frequency"] == 1 and row["has_surprisal"] == 1
        assert row["has_semantic_distance"] == -1
        assert row["has_static_embedding"] == -1 and row["has_contextual_embedding"] == -1
        assert row["word_type"] == -1  # function word
        assert table.rows[1]["word_type"] == 1

        out = tmp_path / "words.tsv"
        table.to_tsv(out)
        text = out.read_text().splitlines()
        assert text[0].startswith("#")
        header = next(l for l in text if not l.startswith("#")).split("\t")
        assert "word_type" in header and "has_frequency" in header

    def test_summary_means_by_class(self, rng):
        actual = rng.normal(size=(4, 2, 6))
        table = metrics.per_word_correlations(actual.copy(), actual, word_meta(4))
        summary = metrics.content_function_summary(table)
        assert summary["content"]["n"] == 2 and summary["function"]["n"] == 2
        assert summary["content"]["mean_r"] == pytest.approx(1.0, abs=1e-12)


class TestFoldReport:
    def test_report_consistency(self):
        report = metrics.fold_report(
            "demo", [40.0, 42.0], [50.0, 52.0], [30.0, 30.0], seed=5)
        assert report.r2_mod == pytest.approx(
            np.mean([metrics.r2_mod(40, 50, 30), metrics.r2_mod(42, 52, 30)]))
        assert report.ci_low <= report.r2_mod <= report.ci_high
        d = report.to_json_dict()
        assert d["per_fold"]["r2_mod"] == report.per_fold["r2_mod"]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_ci_brackets_mean_property(self, seed):
        r = np.random.default_rng(seed)
        vals = r.normal(size=5)
        low, high = metrics.bootstrap_ci(vals, n_boot=1000, seed=seed)
        assert low <= vals.mean() <= high
