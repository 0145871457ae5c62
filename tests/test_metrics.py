"""Metric formula anchors, time-course pooling, bootstrap and word tables."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erpcoder import autoencoder, metrics
from erpcoder.data import CHUNK_ROWS, TrialMeta
from oracles import bad_rows, pearson_naive, sample_rows, trial_correlations_per_trial


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


def chunk_rows(n_trials):
    return [slice(i, i + CHUNK_ROWS) for i in range(0, n_trials, CHUNK_ROWS)]


def pooled_r(preds, actual):
    """The accumulator's r of ``preds`` against ``actual``, over chunks of
    CHUNK_ROWS trials in chunk order."""
    correlation = metrics.TimepointCorrelation(actual)
    return correlation.r([correlation.chunk(rows, preds[rows])[0]
                          for rows in chunk_rows(len(actual))])


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
        np.testing.assert_allclose(series.values, 1.0 - pooled_r(intercept, actual),
                                   atol=1e-12)

    # trial counts on either side of the chunk edges (CHUNK_ROWS 32)
    @pytest.mark.parametrize("n_trials", [7, 1, 31, 32, 33, 65])
    def test_pooled_r_matches_bruteforce_flat_vector(self, rng, n_trials):
        # a drifting prediction, so each chunk's own first value is far from
        # the others' and the shift corrections matter
        preds = rng.normal(size=(n_trials, 4, 5)) + np.linspace(0, 40, n_trials)[:, None, None]
        actual = rng.normal(size=(n_trials, 4, 5)) + 0.5 * preds + 3.0
        r = pooled_r(preds, actual)
        for t in range(5):
            assert r[t] == pytest.approx(
                pearson_naive(preds[:, :, t].ravel(), actual[:, :, t].ravel()), abs=1e-12)

    @pytest.mark.parametrize("n_trials, value", [(5, 3.14), (1, 3.14), (31, 0.1), (33, 0.1),
                                                 (65, 0.1), (33, 1 / 3), (65, -2.9),
                                                 (97, 0.7)])
    def test_zero_variance_timepoint_flagged_as_zero(self, rng, n_trials, value):
        # a plain mean of the constant need not equal it (0.1 x 93 values does
        # not), which would leave a centred variance of a few ulp; here the
        # constant spans up to four chunks of 96 values
        preds = rng.normal(size=(n_trials, 3, 4))
        preds[:, :, 1] = value  # constant at t=1
        actual = rng.normal(size=(n_trials, 3, 4))
        actual[:, :, 3] = value  # constant at t=3
        r = pooled_r(preds, actual)
        assert r[1] == 0.0 and r[3] == 0.0
        assert r[0] == pytest.approx(
            pearson_naive(preds[:, :, 0].ravel(), actual[:, :, 0].ravel()), abs=1e-12)
        assert r[0] != 0.0

    @pytest.mark.parametrize("n_trials", [1, 17, 40, 70])
    def test_increase_is_the_difference_of_two_pooled_rs(self, rng, n_trials):
        # the shared means and sums of squares of actual, and the chunk of
        # actual centred once for both predictions, change no bit
        actual = rng.normal(size=(n_trials, 3, 7))
        preds = 0.4 * actual + rng.normal(size=actual.shape)
        intercept = rng.normal(size=actual.shape)
        series = metrics.timepoint_correlation_increase(preds, intercept, actual,
                                                        np.arange(7.0))
        expected = pooled_r(preds, actual) - pooled_r(intercept, actual)
        assert series.values.tobytes() == expected.tobytes()

    def test_chunk_sums_of_a_prediction_do_not_depend_on_its_companions(self, rng):
        actual = rng.normal(size=(40, 3, 7))
        preds = [rng.normal(size=actual.shape) for _ in range(2)]
        correlation = metrics.TimepointCorrelation(actual)
        rows = slice(32, 40)
        both = correlation.chunk(rows, preds[0][rows], preds[1][rows])
        for x, sums in zip(preds, both):
            (alone,) = correlation.chunk(rows, x[rows])
            for a, b in zip(sums, alone):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_prediction_shape_mismatch_rejected(self, rng):
        actual = rng.normal(size=(5, 3, 7))
        correlation = metrics.TimepointCorrelation(actual)
        with pytest.raises(ValueError,
                           match=r"prediction shape \(4, 3, 7\) != actual \(5, 3, 7\)"):
            correlation.chunk(slice(0, 5), actual[:4])
        with pytest.raises(ValueError, match="prediction shape"):
            metrics.timepoint_correlation_increase(actual, actual[:, :2], actual,
                                                   np.arange(7.0))
        with pytest.raises(ValueError, match="no values to pool"):
            metrics.TimepointCorrelation(actual[:0])

    @pytest.mark.parametrize("n", [1, 2])
    def test_timecourse_bits_same_on_one_and_two_workers(self, rng, monkeypatch, n):
        # chunks scored as pool jobs, threads switching as often as the
        # interpreter allows, give the library's serial bits
        actual = rng.normal(size=(100, 3, 7))
        preds = 0.4 * actual + rng.normal(size=actual.shape)
        intercept = rng.normal(size=actual.shape)
        expected = metrics.timepoint_correlation_increase(preds, intercept, actual,
                                                          np.arange(7.0))
        correlation = metrics.TimepointCorrelation(actual)
        monkeypatch.setattr(autoencoder, "_worker_count", lambda n_jobs: min(n, n_jobs))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            chunks = autoencoder._map_chunks(
                lambda rows: correlation.chunk(rows, preds[rows], intercept[rows]), len(actual))
        finally:
            sys.setswitchinterval(interval)
        series = correlation.increase(chunks, np.arange(7.0))
        assert series.values.tobytes() == expected.values.tobytes()

    # one block, a block edge and a partial last block (TRIAL_BLOCK 16)
    @pytest.mark.parametrize("n_trials", [1, 16, 41])
    def test_pooled_variance_is_var_to_rounding(self, rng, n_trials):
        x = 5.0 + 0.01 * rng.normal(size=(n_trials, 32, 200))
        assert metrics.pooled_variance(x) == pytest.approx(float(x.var()), rel=1e-12)

    @pytest.mark.parametrize("order", ["sorted", "unsorted", "repeated"])
    def test_pooled_variance_of_rows_is_var_of_the_rows(self, rng, order):
        x = 5.0 + 0.01 * rng.normal(size=(60, 32, 200))
        idx = sample_rows(rng, 60, 41, order)
        assert metrics.pooled_variance(x, rows=idx) == \
            pytest.approx(float(x[idx].var()), rel=1e-12)

    def test_pooled_variance_of_rows_holds_less_than_two_blocks(self, rng):
        # 75 of 100 trials; a copy of them would take 3.7 MiB, two blocks 1.6 MiB
        x = rng.normal(size=(100, 32, 200))
        idx = rng.permutation(100)[:75]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            metrics.pooled_variance(x, rows=idx)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2 * metrics.TRIAL_BLOCK * x[0].nbytes

    @pytest.mark.parametrize("rows, message", bad_rows(40))
    def test_pooled_variance_refuses_bad_rows(self, rng, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            metrics.pooled_variance(rng.normal(size=(40, 2, 3)), rows=rows)

    def test_affine_invariance_of_pooled_r(self, rng):
        preds = rng.normal(size=(40, 3, 8))
        actual = rng.normal(size=(40, 3, 8))
        np.testing.assert_allclose(pooled_r(preds, actual), pooled_r(2.5 * preds + 7.0, actual),
                                   atol=1e-12)

    def test_self_correlation_is_one(self, rng):
        actual = rng.normal(size=(40, 3, 8))
        np.testing.assert_allclose(pooled_r(actual.copy(), actual), np.ones(8), atol=1e-12)


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

    def test_window_longer_than_the_series_rejected(self):
        # every value would be the mean of the whole series
        np.testing.assert_array_equal(metrics.moving_average_smooth(np.full(5, 2.0), 5),
                                      np.full(5, 2.0))
        with pytest.raises(ValueError, match=r"^smoothing window 7 is longer than the series "
                                             r"\(5 samples\)$"):
            metrics.moving_average_smooth(np.zeros(5), 7)

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


def word_table(preds, actual, meta, **kw):
    return metrics.word_level_table(metrics.trial_correlations(preds, actual), meta, **kw)


class TestTrialCorrelations:
    """The whole set of trials scored at once, against the former per-trial loop."""

    def test_bits_of_the_per_trial_loop_at_paper_geometry(self, rng):
        actual = rng.normal(size=(40, 32, 200)) + 3.0
        preds = 0.3 * actual + rng.normal(size=actual.shape)
        preds[3] = 1 / 3  # constant prediction
        actual[5] = -2.9  # constant actual epoch
        actual[7, -1, -1] = actual[7, 0, 0]  # equal end values, not constant
        got = metrics.trial_correlations(preds, actual)
        assert got == trial_correlations_per_trial(preds, actual)
        assert [flag for _, flag in got].count(True) == 2
        assert all(type(r) is float and type(flag) is bool for r, flag in got)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.1, 1 / 3, -2.9]))
    def test_bits_of_the_per_trial_loop(self, n, c, t, seed, value):
        # values on a coarse grid, so constant and equal-ended epochs turn up
        rng = np.random.default_rng(seed)
        preds = rng.choice([value, 1.0, -0.5], size=(n, c, t), p=[0.8, 0.1, 0.1])
        actual = rng.choice([value, 2.0], size=(n, c, t), p=[0.7, 0.3])
        assert metrics.trial_correlations(preds, actual) == \
            trial_correlations_per_trial(preds, actual)


class TestPerWordCorrelations:
    def test_equal_prediction_r_one(self, rng):
        actual = rng.normal(size=(3, 4, 10))
        preds = actual.copy()
        preds[1] = -actual[1]
        table = word_table(preds, actual, word_meta(3))
        rs = [row["pearson_r"] for row in table.rows]
        assert rs[0] == pytest.approx(1.0, abs=1e-12)
        assert rs[1] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("value", [7.0, 1 / 3, -2.9])
    @pytest.mark.parametrize("side", ["preds", "actual"])
    def test_zero_variance_trial_flagged(self, rng, value, side):
        # a plain mean of 6,400 values of 1/3 or -2.9 is off by a rounding
        # error, which left a constant epoch's r at ~1e-17, unflagged
        actual = rng.normal(size=(2, 32, 200))
        actual[1, -1, -1] = actual[1, 0, 0]  # equal end values, not constant
        preds = actual.copy()
        (preds if side == "preds" else actual)[0] = value
        table = word_table(preds, actual, word_meta(2))
        assert table.rows[0]["zero_variance"] == 1
        assert table.rows[0]["pearson_r"] == 0.0
        assert table.rows[1]["zero_variance"] == 0 and table.rows[1]["pearson_r"] == 1.0

    def test_table_from_trial_correlations_in_chunks(self, rng):
        # export-words scores each chunk of trials as it is decoded
        actual = rng.normal(size=(5, 3, 4))
        preds = rng.normal(size=actual.shape)
        preds[2] = 1.5
        meta = word_meta(5)
        chunks = [metrics.trial_correlations(preds[rows], actual[rows])
                  for rows in (slice(0, 2), slice(2, 5))]
        table = metrics.word_level_table([r for chunk in chunks for r in chunk], meta,
                                         model_name="m", sources=("frequency",))
        expected = word_table(preds, actual, meta, model_name="m", sources=("frequency",))
        assert table == expected and table.rows[2]["zero_variance"] == 1
        with pytest.raises(ValueError, match="4 meta records for 5 trials"):
            metrics.word_level_table(chunks[0] + chunks[1], meta[:4])
        with pytest.raises(ValueError, match=r"prediction shape \(4, 3, 4\) != actual"):
            metrics.trial_correlations(preds[:4], actual)

    def test_affine_invariance_per_word(self, rng):
        actual = rng.normal(size=(4, 3, 6))
        preds = rng.normal(size=(4, 3, 6))
        t1 = word_table(preds, actual, word_meta(4))
        t2 = word_table(0.3 * preds + 2.0, actual, word_meta(4))
        for a, b in zip(t1.rows, t2.rows):
            assert a["pearson_r"] == pytest.approx(b["pearson_r"], abs=1e-12)

    def test_coding_scheme(self, tmp_path, rng):
        actual = rng.normal(size=(2, 3, 5))
        table = word_table(actual.copy(), actual, word_meta(2), model_name="fs",
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
        table = word_table(actual.copy(), actual, word_meta(4))
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
