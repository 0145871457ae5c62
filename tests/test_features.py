"""Feature construction and standardization tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erpcoder import data, features


def trial(sid, pos, token, word_class="content", artifact=False):
    return data.TrialMeta(
        subject_id="s1", sentence_id=sid, word_position=pos, token=token,
        word_class=word_class, pos_tag="NN", artifact=artifact,
    )


class TestFrequency:
    def test_equal_counts_equal_values(self):
        col = features.frequency_feature(["a", "b"], {"a": 5, "b": 5})
        assert col[0] == col[1]

    def test_smoothed_values(self):
        # counts 0 and 9 with total 10, vocab 2 -> log(1/12), log(10/12)
        col = features.frequency_feature(["zzz", "hi"], {"hi": 9, "lo": 1})
        assert col[0] == pytest.approx(math.log(1 / 12), abs=1e-15)
        assert col[1] == pytest.approx(math.log(10 / 12), abs=1e-15)

    def test_monotone_in_count(self):
        counts = {f"t{i}": i for i in range(1, 20)}
        col = features.frequency_feature([f"t{i}" for i in range(1, 20)], counts)
        assert np.all(np.diff(col) > 0)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            features.frequency_feature(["a"], {})


class TestSurprisal:
    def make_table(self):
        return data.TokenFeatureTable(
            index={(0, 1): 0, (0, 2): 1},
            columns={"surprisal": np.array([0.0, 3.5])},
        )

    def test_zero_surprisal_accepted(self):
        col = features.surprisal_feature([trial(0, 1, "a")], self.make_table())
        assert col[0] == 0.0

    def test_missing_key_named(self):
        with pytest.raises(ValueError, match=r"\(7,3\)"):
            features.surprisal_feature([trial(7, 3, "x")], self.make_table())

    def test_negative_rejected(self):
        table = data.TokenFeatureTable(
            index={(0, 2): 0}, columns={"surprisal": np.array([-0.1])})
        with pytest.raises(ValueError, match="must be >= 0"):
            features.surprisal_feature([trial(0, 2, "a")], table)

    def test_join_preserves_trial_order(self, rng):
        n = 30
        keys = [(int(i // 5), int(i % 5) + 1) for i in range(n)]
        vals = rng.uniform(0, 10, size=n)
        table = data.TokenFeatureTable(
            index={k: i for i, k in enumerate(keys)}, columns={"surprisal": vals})
        order = rng.permutation(n)
        trials = [trial(keys[i][0], keys[i][1], "w") for i in order]
        col = features.surprisal_feature(trials, table)
        np.testing.assert_array_equal(col, vals[order])


def emb_table(d=2, **vectors):
    return data.EmbeddingTable(d, {k: np.asarray(v, dtype=float) for k, v in vectors.items()})


class TestSemanticDistance:
    def test_diagonal_target_of_orthogonal_context(self):
        # context [1,0] and [0,1] average to [.5,.5]; target [1,1] is parallel
        table = emb_table(a=[1.0, 0.0], b=[0.0, 1.0], c=[1.0, 1.0])
        tokens = {0: {1: "a", 2: "b", 3: "c"}}
        col = features.semantic_distance([trial(0, 3, "c")], table, tokens)
        assert col[0] == pytest.approx(0.0, abs=1e-12)  # an imputed lone trial reads 1.0

    def test_orthogonal_target(self):
        table = emb_table(a=[1.0, 0.0], b=[0.0, 1.0])
        tokens = {0: {1: "a", 2: "b"}}
        col = features.semantic_distance([trial(0, 2, "b")], table, tokens)
        assert col[0] == pytest.approx(1.0, abs=1e-12)

    def test_identical_vectors_zero(self):
        table = emb_table(a=[0.3, 0.4])
        tokens = {0: {1: "a", 2: "a"}}
        col = features.semantic_distance([trial(0, 2, "a")], table, tokens)
        assert col[0] == pytest.approx(0.0, abs=1e-12)

    def test_oov_target_imputed_with_mean(self):
        table = emb_table(a=[1.0, 0.0], b=[1.0, 1.0])
        tokens = {0: {1: "a", 2: "b", 3: "zz"}}
        trials = [trial(0, 2, "b"), trial(0, 3, "zz")]
        col = features.semantic_distance(trials, table, tokens)
        assert col[0] == pytest.approx(1.0 - np.sqrt(0.5), abs=1e-12)
        assert col[1] == col[0]  # mean of the single valid distance

    def test_zero_norm_vector_is_oov(self):
        table = emb_table(a=[0.0, 0.0], b=[1.0, 0.0], c=[1.0, 1.0])
        tokens = {0: {1: "a", 2: "b"}, 1: {1: "b", 2: "c"}}
        col = features.semantic_distance([trial(0, 2, "b"), trial(1, 2, "c")], table, tokens)
        # trial 0's whole context is OOV: it takes trial 1's distance, the mean
        assert col[1] == pytest.approx(1.0 - np.sqrt(0.5), abs=1e-12)
        assert col[0] == col[1]

    def test_first_word_rejected_by_default(self):
        table = emb_table(a=[1.0, 0.0])
        with pytest.raises(ValueError, match="word_position >= 2"):
            features.semantic_distance([trial(0, 1, "a")], table, {0: {1: "a"}})

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), n_ctx=st.integers(1, 6), dim=st.integers(1, 5))
    def test_range_property(self, seed, n_ctx, dim):
        r = np.random.default_rng(seed)
        vecs = {f"w{i}": r.normal(size=dim) for i in range(n_ctx + 1)}
        table = emb_table(dim, **vecs)
        tokens = {0: {p + 1: f"w{p}" for p in range(n_ctx + 1)}}
        col = features.semantic_distance([trial(0, n_ctx + 1, f"w{n_ctx}")], table, tokens)
        assert 0.0 <= col[0] <= 2.0

    def test_zero_iff_positive_multiple_of_context(self, rng):
        ctx = rng.normal(size=4)
        table = emb_table(4, a=ctx, pos=2.5 * ctx, neg=-ctx)
        tokens = {0: {1: "a", 2: "pos"}, 1: {1: "a", 2: "neg"}}
        col_pos = features.semantic_distance([trial(0, 2, "pos")], table, tokens)
        col_neg = features.semantic_distance([trial(1, 2, "neg")], table, tokens)
        assert col_pos[0] == pytest.approx(0.0, abs=1e-12)
        assert col_neg[0] == pytest.approx(2.0, abs=1e-12)


class TestEmbeddingBlocks:
    def test_present_token_raw_vector(self, rng):
        v = rng.normal(size=3)
        block = features.static_embedding_feature([trial(0, 2, "tok")], emb_table(3, tok=v))
        np.testing.assert_array_equal(block[0], v)

    def test_oov_zero_vector(self):
        block = features.static_embedding_feature(
            [trial(0, 2, "nope"), trial(0, 3, "tok")], emb_table(3, tok=[1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(block, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])

    def test_contextual_shape_audit(self, rng):
        n, d = 12, 5
        keys = [(0, i + 1) for i in range(n)]
        table = data.TokenFeatureTable(
            index={k: i for i, k in enumerate(keys)},
            columns={"contextual_embedding": rng.normal(size=(n, d))},
        )
        trials = [trial(0, i + 1, "w") for i in range(n)]
        block = features.contextual_embedding_feature(trials, table)
        assert block.shape == (n, d)

    def test_contextual_missing_row_rejected(self):
        table = data.TokenFeatureTable(
            index={(0, 1): 0}, columns={"contextual_embedding": np.zeros((1, 2))})
        with pytest.raises(ValueError, match="missing"):
            features.contextual_embedding_feature([trial(0, 9, "w")], table)


class TestAssemble:
    def test_constant_spec(self):
        spec = features.FeatureSpec(("constant",))
        fm = features.assemble(spec, [trial(0, 1, "a"), trial(0, 2, "b")])
        assert fm.names == ["constant"]
        np.testing.assert_array_equal(fm.values, np.ones((2, 1)))

    def test_constant_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            features.FeatureSpec(("constant", "frequency"))

    def test_frequency_surprisal_names(self):
        spec = features.FeatureSpec(("frequency", "surprisal"))
        table = data.TokenFeatureTable(
            index={(0, 1): 0, (0, 2): 1}, columns={"surprisal": np.array([1.0, 2.0])})
        fm = features.assemble(
            spec, [trial(0, 1, "a"), trial(0, 2, "b")],
            counts_table={"a": 3, "b": 4}, token_features=table)
        assert fm.names == ["frequency", "surprisal"]
        assert fm.values.shape == (2, 2)

    def test_missing_input_named(self):
        spec = features.FeatureSpec(("frequency",))
        with pytest.raises(ValueError, match="counts table"):
            features.assemble(spec, [trial(0, 1, "a")])

    def test_permutation_equivariance(self, rng):
        spec = features.FeatureSpec(("frequency", "surprisal"))
        keys = [(0, i + 1) for i in range(8)]
        table = data.TokenFeatureTable(
            index={k: i for i, k in enumerate(keys)},
            columns={"surprisal": rng.uniform(0, 5, size=8)},
        )
        trials = [trial(0, i + 1, f"t{i}") for i in range(8)]
        counts = {f"t{i}": i + 1 for i in range(8)}
        fm = features.assemble(spec, trials, counts_table=counts, token_features=table)
        perm = rng.permutation(8)
        fm_p = features.assemble(spec, [trials[i] for i in perm],
                                 counts_table=counts, token_features=table)
        np.testing.assert_array_equal(fm_p.values, fm.values[perm])


class TestStandardizer:
    def test_train_column_stats(self, rng):
        fm = features.FeatureMatrix(rng.normal(5, 3, size=(40, 3)), ["a", "b", "c"])
        train = np.arange(30)
        std = features.fit_standardizer(fm, train)
        out = features.apply_standardizer(fm, std)
        sub = out[train]
        assert np.all(np.abs(sub.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(sub.std(axis=0) - 1.0) < 1e-10)

    def test_constant_column_exempt(self):
        fm = features.FeatureMatrix(np.ones((10, 1)), ["constant"])
        std = features.fit_standardizer(fm, np.arange(10))
        out = features.apply_standardizer(fm, std)
        np.testing.assert_array_equal(out, np.ones((10, 1)))

    def test_fit_never_reads_held_out_rows(self, rng):
        # poison the dev rows; fitting on train rows must stay NaN-free
        values = rng.normal(size=(20, 2))
        train = np.arange(15)
        dev = np.arange(15, 20)
        fm = features.FeatureMatrix(values.copy(), ["a", "b"])
        fm.values[dev] = np.nan  # bypass constructor NaN check deliberately
        std = features.fit_standardizer(fm, train)
        assert np.all(np.isfinite(std.mean)) and np.all(np.isfinite(std.scale))
        clean = features.FeatureMatrix(values.copy(), ["a", "b"])
        std_clean = features.fit_standardizer(clean, train)
        np.testing.assert_array_equal(std.mean, std_clean.mean)

    def test_nan_matrix_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            features.FeatureMatrix(np.array([[np.nan]]), ["x"])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            features.FeatureMatrix(np.array([[0.0, bad]]), ["x", "y"])
