"""I/O round-trips, filtering, and fold-splitting tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erpcoder import checkpoint, data

_DELETE = object()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


def make_meta(n, subjects=("s1", "s2"), words_per_sentence=5, artifact_every=None):
    meta = []
    for i in range(n):
        meta.append(
            data.TrialMeta(
                subject_id=subjects[i % len(subjects)],
                sentence_id=i // words_per_sentence,
                word_position=i % words_per_sentence + 1,
                token=f"w{i % 7}",
                word_class="content" if i % 2 else "function",
                pos_tag="NN" if i % 2 else "DT",
                artifact=(artifact_every is not None and i % artifact_every == 0),
            )
        )
    return meta


def make_dataset(rng, n=10, c=4, t=20, rate=250.0, start=-40.0):
    end = start + t / rate * 1000.0
    return data.ErpDataset(rng.normal(size=(n, c, t)), rate, start, end)


class TestErpRoundTrip:
    def test_save_load_bit_identical(self, rng, tmp_path):
        ds = make_dataset(rng)
        meta = make_meta(10)
        base = tmp_path / "set"
        data.save_erp(base, ds, meta)
        ds2, meta2 = data.load_erp(base)
        np.testing.assert_array_equal(ds2.data, ds.data)
        assert ds2.sampling_rate_hz == ds.sampling_rate_hz
        assert meta2 == meta

    def test_truncated_payload_rejected(self, rng, tmp_path):
        ds = make_dataset(rng)
        base = tmp_path / "set"
        data.save_erp(base, ds, make_meta(10))
        bin_path = tmp_path / "set.erp.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-16])
        with pytest.raises(data.FormatError, match="expected 6400 bytes.*found 6384"):
            data.load_erp(base)

    def test_standard_geometry_sidecar_accepted(self, rng, tmp_path):
        # 250 Hz, -100..700 ms, 200 timepoints
        ds = data.ErpDataset(rng.normal(size=(3, 32, 200)), 250.0, -100.0, 700.0)
        base = tmp_path / "standard"
        data.save_erp(base, ds, make_meta(3))
        ds2, _ = data.load_erp(base)
        assert ds2.n_timepoints == 200
        assert ds2.time_axis_ms()[0] == -100.0

    def test_inconsistent_epoch_metadata_rejected(self, rng):
        with pytest.raises(ValueError, match="implies 200 timepoints"):
            data.ErpDataset(rng.normal(size=(2, 4, 100)), 250.0, -100.0, 700.0)

    def test_missing_sidecar_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            data.load_erp(tmp_path / "nope")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, rng, tmp_path, bad):
        ds = make_dataset(rng)
        ds.data[3, 1, 7] = bad
        ds.data[5, 0, 0] = bad
        base = tmp_path / "set"
        data.save_erp(base, ds, make_meta(10))
        with pytest.raises(data.FormatError,
                           match=r"2 non-finite values.*first at .* \(3, 1, 7\)"):
            data.load_erp(base)


class TestCheckpointFormat:
    def _save(self, tmp_path, rng):
        base = tmp_path / "ck"
        checkpoint.save_checkpoint(
            base, "test", {}, {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)})
        return base

    def test_round_trip(self, tmp_path, rng):
        base = self._save(tmp_path, rng)
        kind, _, tensors = checkpoint.load_checkpoint(base, expect_kind="test")
        assert kind == "test"
        assert {k: v.shape for k, v in tensors.items()} == {"a": (2, 3), "b": (4,)}

    def test_negative_dimension_rejected(self, tmp_path, rng):
        # np.prod([-1]) == -1 used to load a silently truncated tensor
        base = self._save(tmp_path, rng)
        manifest_path = tmp_path / "ck.ckpt.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["tensors"][1]["shape"] = [-1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(data.FormatError, match=r"'b' has negative dimension in shape \[-1\]"):
            checkpoint.load_checkpoint(base)

    def test_trailing_payload_bytes_rejected(self, tmp_path, rng):
        base = self._save(tmp_path, rng)
        bin_path = tmp_path / "ck.ckpt.bin"
        bin_path.write_bytes(bin_path.read_bytes() + b"\x00" * 8)
        with pytest.raises(data.FormatError, match="tensors cover 80 bytes, payload has 88"):
            checkpoint.load_checkpoint(base)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(tensors=5), "manifest 'tensors' is missing or not a JSON array"),
        (lambda m: m.update(meta=[]), "manifest 'meta' is missing or not a JSON object"),
        (lambda m: m.pop("kind"), "manifest 'kind' is missing"),
        (lambda m: m["tensors"][0].update(shape="ab"), "an integer list 'shape'"),
        (lambda m: m["tensors"][0].update(shape=[2, 3.0]), "an integer list 'shape'"),
        (lambda m: m["tensors"][0].pop("name"), "needs a string 'name'"),
        (lambda m: m["tensors"][1].update(offset=True), "an integer 'offset'"),
        (lambda m: m["tensors"][1].update(name="a"), "tensor names repeat"),
    ], ids=["tensors_not_list", "meta_not_object", "no_kind", "shape_string",
            "shape_float", "no_name", "offset_bool", "repeated_name"])
    def test_malformed_manifest_rejected(self, tmp_path, rng, edit, message):
        base = self._save(tmp_path, rng)
        manifest_path = tmp_path / "ck.ckpt.json"
        manifest = json.loads(manifest_path.read_text())
        edit(manifest)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(data.FormatError, match=message):
            checkpoint.load_checkpoint(base)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_manifest_fails_only_as_format_error(self, tmp_path_factory, draw):
        # any one edit of a valid manifest either loads or raises FormatError
        base = tmp_path_factory.mktemp("ck") / "ck"
        checkpoint.save_checkpoint(base, "test", {"spec": {"n": 1}},
                                   {"a": np.zeros((2, 3)), "b": np.ones(4)})
        manifest_path = checkpoint.checkpoint_files(base)[0]
        manifest = json.loads(manifest_path.read_text())
        paths, stack = [], [((), manifest)]
        while stack:
            path, node = stack.pop()
            paths.append(path)
            children = node.items() if isinstance(node, dict) else (
                enumerate(node) if isinstance(node, list) else ())
            stack.extend((path + (k,), v) for k, v in children)
        path = draw.draw(st.sampled_from(sorted(paths, key=repr)))
        value = draw.draw(st.one_of(st.just(_DELETE), _JSON))
        if not path:
            manifest = None if value is _DELETE else value
        else:
            parent = manifest
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        manifest_path.write_text(json.dumps(manifest))
        try:
            checkpoint.load_checkpoint(base, expect_kind="test")
        except (data.FormatError, FileNotFoundError):
            pass


class TestFiltering:
    def test_no_flags_identity(self, rng):
        ds = make_dataset(rng)
        meta = make_meta(10)
        ds2, meta2 = data.filter_artifacts(ds, meta, include_first_word=True)
        assert ds2.n_trials == 10
        assert meta2 == meta

    def test_first_word_exclusion_counts(self, rng):
        ds = make_dataset(rng, n=10)
        meta = make_meta(10, words_per_sentence=3)  # positions 1,2,3 cycling
        ds2, meta2 = data.filter_artifacts(ds, meta, include_first_word=False)
        n_first = sum(1 for m in meta if m.word_position == 1)
        assert n_first == 4
        assert ds2.n_trials == 6
        assert all(m.word_position != 1 for m in meta2)

    def test_artifacts_removed_and_order_preserved(self, rng):
        ds = make_dataset(rng, n=12)
        meta = make_meta(12, artifact_every=4)
        ds2, meta2 = data.filter_artifacts(ds, meta)
        assert ds2.n_trials == 9
        kept = [i for i, m in enumerate(meta) if not m.artifact]
        np.testing.assert_array_equal(ds2.data, ds.data[kept])
        assert [m.token for m in meta2] == [meta[i].token for i in kept]


class TestFolds:
    def test_even_split(self):
        fa = data.kfold_split(10, 5, seed=1)
        for f in range(5):
            assert len(fa.test_indices(f)) == 2

    def test_deterministic(self):
        a = data.kfold_split(23, 4, seed=7)
        b = data.kfold_split(23, 4, seed=7)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)
        assert a.digest() == b.digest()
        c = data.kfold_split(23, 4, seed=8)
        assert c.digest() != a.digest()

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 200), k=st.integers(2, 10), seed=st.integers(0, 2**31))
    def test_partition_property(self, n, k, seed):
        if k > n:
            return
        fa = data.kfold_split(n, k, seed)
        all_test = np.concatenate([fa.test_indices(f) for f in range(k)])
        assert sorted(all_test.tolist()) == list(range(n))
        sizes = [len(fa.test_indices(f)) for f in range(k)]
        assert max(sizes) - min(sizes) <= 1

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError, match="at least k items"):
            data.kfold_split(3, 5, seed=0)

    def test_train_dev_split(self):
        train, dev = data.train_dev_split(20, 0.1, seed=3)
        assert len(dev) == 2 and len(train) == 18
        assert sorted(np.concatenate([train, dev]).tolist()) == list(range(20))
        train2, dev2 = data.train_dev_split(20, 0.1, seed=3)
        np.testing.assert_array_equal(dev, dev2)


class TestEmbeddings:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 0.0\nb 0.0 1.0\n")
        table = data.load_embeddings(p)
        assert table.dimension == 2
        assert len(table.entries) == 2
        np.testing.assert_array_equal(table.get("a"), [1.0, 0.0])

    def test_ragged_row_rejected_with_line(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0 0.0\nb 0.0 1.0 2.0\n")
        with pytest.raises(data.FormatError, match="line 2: expected 2 values, got 3"):
            data.load_embeddings(p)

    def test_duplicate_last_wins_with_warning(self, tmp_path, caplog):
        p = tmp_path / "emb.txt"
        p.write_text("a 1.0\na 2.0\n")
        with caplog.at_level("WARNING"):
            table = data.load_embeddings(p)
        assert table.get("a")[0] == 2.0
        assert any("duplicate token" in r.message for r in caplog.records)

    def test_round_trip(self, rng, tmp_path):
        table = data.EmbeddingTable(3, {"x": rng.normal(size=3), "y": rng.normal(size=3)})
        p = tmp_path / "emb.txt"
        data.save_embeddings(p, table)
        table2 = data.load_embeddings(p)
        np.testing.assert_array_equal(table2.get("x"), table.get("x"))
        np.testing.assert_array_equal(table2.get("y"), table.get("y"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, bad):
        p = tmp_path / "emb.txt"
        p.write_text(f"a 1.0 0.0\nb 1.0 {bad}\n")
        with pytest.raises(data.FormatError, match=f"emb.txt: line 2: non-finite value '{bad}'"):
            data.load_embeddings(p)


class TestTokenFeatures:
    def test_scalar_and_vector_columns(self, tmp_path):
        p = tmp_path / "t.feat.tsv"
        p.write_text(
            "sentence_id\tword_position\tsurprisal\temb.0\temb.1\n"
            "0\t1\t2.5\t0.1\t0.2\n"
            "0\t2\t1.5\t0.3\t0.4\n"
        )
        t = data.load_token_features(p)
        assert t.has_column("surprisal") and t.has_column("emb")
        assert t.lookup("surprisal", (0, 2)) == 1.5
        np.testing.assert_array_equal(t.rows_for("emb", [(0, 2), (0, 1)]),
                                      [[0.3, 0.4], [0.1, 0.2]])

    def test_missing_key_listed(self, tmp_path):
        p = tmp_path / "t.feat.tsv"
        p.write_text("sentence_id\tword_position\tsurprisal\n0\t1\t2.5\n")
        t = data.load_token_features(p)
        with pytest.raises(ValueError, match=r"\(7,3\)"):
            t.rows_for("surprisal", [(7, 3)])

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "t.feat.tsv"
        p.write_text("sentence_id\tword_position\tx\n0\t1\t1.0\n0\t1\t2.0\n")
        with pytest.raises(data.FormatError, match="duplicate key"):
            data.load_token_features(p)

    def test_round_trip_bit_identical(self, rng, tmp_path):
        index = {(0, 1): 0, (0, 2): 1, (1, 1): 2}
        cols = {"surprisal": rng.normal(size=3) ** 2, "ctx": rng.normal(size=(3, 4))}
        t = data.TokenFeatureTable(index=index, columns=cols)
        p = tmp_path / "t.feat.tsv"
        data.save_token_features(p, t)
        t2 = data.load_token_features(p)
        np.testing.assert_array_equal(t2.columns["surprisal"], cols["surprisal"])
        np.testing.assert_array_equal(t2.columns["ctx"], cols["ctx"])
        assert t2.index == index

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, bad):
        p = tmp_path / "t.feat.tsv"
        p.write_text(f"sentence_id\tword_position\tsurprisal\n0\t1\t2.5\n0\t2\t{bad}\n")
        with pytest.raises(data.FormatError,
                           match=f"t.feat.tsv: line 3: non-finite value '{bad}'"):
            data.load_token_features(p)


class TestCounts:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "counts.tsv"
        data.save_counts(p, {"the": 100, "dog": 7})
        assert data.load_counts(p) == {"the": 100, "dog": 7}

    def test_bad_count_rejected(self, tmp_path):
        p = tmp_path / "counts.tsv"
        p.write_text("the\tlots\n")
        with pytest.raises(data.FormatError, match="line 1"):
            data.load_counts(p)


# Valid files of each table format; the fuzz tests splice noise into them.
_VALID_TABLES = {
    "load_embeddings": "the 0.5 -1.25 3\ndog 1e-3 2 0\n",
    "load_token_features": ("sentence_id\tword_position\tsurprisal\tvec.0\tvec.1\n"
                            "0\t1\t2.5\t0.1\t-0.2\n0\t2\t1.5\t0.3\t0.4\n"),
    "load_counts": "the\t100\ndog\t7\n",
}
_TABLE_PIECES = st.sampled_from([
    "\t", " ", "\n", "\r", "\x0c", "\x85", " ", "0", "1", "9", "-", "+", ".", "e", "_",
    "a", "vec", ".0", ".1", ".²", "²", "٣", "nan", "inf", "1e999", "9" * 5000,
    "sentence_id\tword_position", "\U0001F600"])


class TestTableLoaderFuzz:
    """Any file handed to a table loader loads or fails as a format error."""

    @pytest.mark.parametrize("loader", sorted(_VALID_TABLES))
    def test_undecodable_bytes_are_format_error(self, tmp_path, loader):
        path = tmp_path / "table.txt"
        path.write_bytes(_VALID_TABLES[loader].encode() + b"\xff\n")
        with pytest.raises(data.FormatError, match=f"^{path}: not a text file"):
            getattr(data, loader)(path)

    def test_non_ascii_digit_suffix_is_a_scalar_column(self, tmp_path):
        path = tmp_path / "tokens.feat.tsv"
        path.write_text("sentence_id\tword_position\tvec.²\n0\t1\t2.5\n")
        table = data.load_token_features(path)
        np.testing.assert_array_equal(table.columns["vec.²"], [2.5])

    @pytest.mark.parametrize("loader", sorted(_VALID_TABLES))
    @settings(max_examples=300, deadline=None)
    @given(draw=st.data())
    def test_spliced_table_fails_only_as_format_error(self, tmp_path_factory, loader, draw):
        valid = _VALID_TABLES[loader].encode()
        cut = draw.draw(st.integers(0, len(valid)))
        drop = draw.draw(st.integers(0, len(valid) - cut))
        noise = draw.draw(st.one_of(
            st.lists(_TABLE_PIECES, max_size=12).map(lambda p: "".join(p).encode()),
            st.binary(max_size=12)))
        path = tmp_path_factory.mktemp("table") / "table.txt"
        path.write_bytes(valid[:cut] + noise + valid[cut + drop:])
        try:
            getattr(data, loader)(path)
        except (data.FormatError, FileNotFoundError):
            pass
