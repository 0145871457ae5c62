"""I/O round-trips, filtering, and fold-splitting tests."""

import hashlib
import json
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erpcoder import autoencoder, checkpoint, data, encoding, features, synth

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


class TestReadJson:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                                         "1" + "0" * 400])
    def test_non_finite_number_rejected(self, tmp_path, literal):
        path = tmp_path / "f.json"
        path.write_text(f'{{"a": [1, {literal}]}}')
        with pytest.raises(data.FormatError,
                           match=f"^{path}: invalid JSON: non-finite number {literal:.40}$"):
            data.read_json(path)

    def test_finite_numbers_keep_their_type(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"a": [1, -2.5, 1e308, 12345678901234567890]}')
        value = data.read_json(path)["a"]
        assert value == [1, -2.5, 1e308, 12345678901234567890]
        assert [type(v) for v in value] == [int, float, float, int]


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

    @pytest.mark.parametrize("char", ["\u2028", "\x85", "\x1c", "\x0c", "\x0b"])
    def test_meta_tokens_with_unicode_line_separators_round_trip(self, tmp_path, char):
        # tables break lines only at \n, \r and \r\n; any other character is data
        meta = make_meta(4)
        meta[1] = data.TrialMeta("s1", 0, 2, f"a{char}b", "content", "NN", False)
        meta[2] = data.TrialMeta("s2", 0, 3, char, "function", f"D{char}T", True)
        data.save_meta(tmp_path / "set.meta.tsv", meta)
        assert data.load_meta(tmp_path / "set.meta.tsv") == meta
        data.save_counts(tmp_path / "counts.tsv", {f"a{char}b": 3})
        assert data.load_counts(tmp_path / "counts.tsv") == {f"a{char}b": 3}

    def test_truncated_payload_rejected(self, rng, tmp_path):
        ds = make_dataset(rng)
        base = tmp_path / "set"
        data.save_erp(base, ds, make_meta(10))
        bin_path = tmp_path / "set.erp.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-16])
        with pytest.raises(data.FormatError, match="expected 6400 bytes.*found 6384"):
            data.load_erp(base)

    def test_shape_beyond_the_payload_rejected_before_allocating(self, rng, tmp_path):
        # 8e15 bytes claimed: the size check comes first, so no MemoryError
        base = tmp_path / "set"
        data.save_erp(base, make_dataset(rng), make_meta(10))
        sidecar_path = data.erp_files(base)[0]
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["shape"] = [10**6, 10**6, 10**3]
        sidecar_path.write_text(json.dumps(sidecar))
        with pytest.raises(data.FormatError,
                           match=r"expected 8000000000000000 bytes.*found 6400"):
            data.load_erp(base)

    def test_payload_is_the_arrays_bytes(self, rng, tmp_path):
        # a Fortran-ordered array is written in C order, as tobytes() gives it
        ds = make_dataset(rng)
        ds.data = np.asfortranarray(ds.data)
        base = tmp_path / "set"
        data.save_erp(base, ds, make_meta(10))
        payload = data.erp_files(base)[1].read_bytes()
        assert payload == ds.data.astype("<f8").tobytes(order="C")
        loaded, _ = data.load_erp(base)
        assert loaded.data.flags.c_contiguous and loaded.data.tobytes() == payload

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


N_KEPT_ROWS = 2 * data.CHUNK_ROWS + 5  # two full scratch blocks and a partial one
KEEP_MASKS = {
    "all": np.ones(N_KEPT_ROWS, dtype=bool),
    "none": np.zeros(N_KEPT_ROWS, dtype=bool),
    "first_and_last_dropped": np.arange(N_KEPT_ROWS) % (N_KEPT_ROWS - 1) != 0,
    "alternating": np.arange(N_KEPT_ROWS) % 2 == 1,
}


class TestKeptRowsLoad:
    """``load_erp(base, keep=...)`` reads only the kept trials, in one pass that
    checks and hashes the whole payload."""

    @staticmethod
    def _save(rng, tmp_path, mask, nan_at=()):
        # the artifact flags are the mask, so filter_artifacts keeps the same rows
        ds = make_dataset(rng, n=len(mask), c=3, t=5)
        for index in nan_at:
            ds.data[index] = np.nan
        meta = [replace(m, artifact=not k) for m, k in zip(make_meta(len(mask)), mask)]
        base = tmp_path / "set"
        data.save_erp(base, ds, meta)
        return base

    @pytest.mark.parametrize("name", list(KEEP_MASKS))
    def test_equals_filtered_plain_load(self, rng, tmp_path, name):
        mask = KEEP_MASKS[name]
        base = self._save(rng, tmp_path, mask)
        expected, expected_meta = data.filter_artifacts(*data.load_erp(base))
        seen = []
        hasher = hashlib.sha256()
        loaded, meta = data.load_erp(base, keep=lambda m: seen.append(m) or mask,
                                     hasher=hasher)
        assert loaded.data.shape == expected.data.shape == (mask.sum(), 3, 5)
        assert loaded.data.tobytes() == expected.data.tobytes()
        assert loaded.data.flags.c_contiguous
        assert (loaded.sampling_rate_hz, loaded.epoch_start_ms, loaded.epoch_end_ms) == (
            expected.sampling_rate_hz, expected.epoch_start_ms, expected.epoch_end_ms)
        assert meta == expected_meta
        assert seen == [data.load_meta(data.erp_files(base)[2])]  # every trial's meta
        assert hasher.hexdigest() == hashlib.sha256(
            data.erp_files(base)[1].read_bytes()).hexdigest()

    def test_plain_load_hashes_the_file(self, rng, tmp_path):
        base = self._save(rng, tmp_path, KEEP_MASKS["all"])
        hasher = hashlib.sha256()
        data.load_erp(base, hasher=hasher)
        assert hasher.hexdigest() == hashlib.sha256(
            data.erp_files(base)[1].read_bytes()).hexdigest()

    # a dropped row holding the first non-finite value, and a later row holding another
    @pytest.mark.parametrize("name, row, later", [
        ("first_and_last_dropped", 0, 40), ("alternating", 2 * data.CHUNK_ROWS + 2, 67),
        ("none", 50, 60)])
    def test_non_finite_dropped_row_named_in_file_rows(self, rng, tmp_path, name, row, later):
        mask = KEEP_MASKS[name]
        assert not mask[row]
        base = self._save(rng, tmp_path, mask, nan_at=[(row, 2, 4), (later, 0, 1)])
        with pytest.raises(data.FormatError,
                           match=rf"set\.erp\.bin: 2 non-finite values \(NaN or inf\); first "
                                 rf"at \(trial, channel, timepoint\) \({row}, 2, 4\)$"):
            data.load_erp(base, keep=lambda m: mask)

    @pytest.mark.parametrize("change", [-16, 8], ids=["truncated", "trailing"])
    @pytest.mark.parametrize("keep", [None, lambda m: KEEP_MASKS["alternating"]],
                             ids=["plain", "kept"])
    def test_wrong_size_rejected_before_allocating(self, rng, tmp_path, monkeypatch,
                                                   change, keep):
        base = self._save(rng, tmp_path, KEEP_MASKS["alternating"])
        payload = data.erp_files(base)[1]
        raw = payload.read_bytes()
        payload.write_bytes(raw[:change] if change < 0 else raw + b"\0" * change)

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(data.np, "empty", no_allocation)
        with pytest.raises(data.FormatError,
                           match=rf"expected {len(raw)} bytes.*found {len(raw) + change}$"):
            data.load_erp(base, keep=keep)

    @staticmethod
    def _break_meta(meta_path, fault):
        if fault == "missing":
            meta_path.unlink()
        else:  # one row short
            meta_path.write_text("\n".join(meta_path.read_text().splitlines()[:-1]) + "\n")

    @pytest.mark.parametrize("keep", [None, lambda m: KEEP_MASKS["alternating"]],
                             ids=["plain", "kept"])
    @pytest.mark.parametrize("payload_fault", ["truncated", "nan"])
    @pytest.mark.parametrize("meta_fault", ["missing", "short"])
    def test_payload_faults_come_before_meta_faults(self, rng, tmp_path, keep,
                                                    payload_fault, meta_fault):
        # the meta table is read before the payload's values, to pick the rows,
        # but its faults are raised after the payload's, as before
        base = self._save(rng, tmp_path, KEEP_MASKS["alternating"], nan_at=[(3, 1, 1)])
        _, payload, meta_path = data.erp_files(base)
        if payload_fault == "truncated":
            payload.write_bytes(payload.read_bytes()[:-8])
        self._break_meta(meta_path, meta_fault)
        message = "expected .* bytes" if payload_fault == "truncated" else "1 non-finite"
        with pytest.raises(data.FormatError, match=message):
            data.load_erp(base, keep=keep)

    @pytest.mark.parametrize("keep", [None, lambda m: KEEP_MASKS["alternating"]],
                             ids=["plain", "kept"])
    @pytest.mark.parametrize("meta_fault, error, message", [
        ("missing", FileNotFoundError, r"set\.meta\.tsv"),
        ("short", data.FormatError, rf"{N_KEPT_ROWS - 1} meta rows for {N_KEPT_ROWS} trials"),
    ])
    def test_meta_faults_raised_after_a_sound_payload(self, rng, tmp_path, keep, meta_fault,
                                                      error, message):
        base = self._save(rng, tmp_path, KEEP_MASKS["alternating"])
        self._break_meta(data.erp_files(base)[2], meta_fault)
        with pytest.raises(error, match=message):
            data.load_erp(base, keep=keep)

    class RecordingHasher:
        """A sha256 that keeps every block it is given, and can be made to fail."""

        def __init__(self, fail_at=None):
            self.sha256, self.blocks, self.fail_at = hashlib.sha256(), [], fail_at

        def update(self, block):
            if len(self.blocks) == self.fail_at:
                raise RuntimeError("hasher failed")
            self.blocks.append(block)
            self.sha256.update(block)

    @staticmethod
    def hash_threads():
        return [t for t in threading.enumerate() if t.name == "erpcoder-hash"]

    @pytest.mark.parametrize("name", ["first_and_last_dropped", "alternating", "none"])
    def test_hashed_beside_the_read_in_file_order(self, rng, tmp_path, name):
        # the hashing thread runs beside the reads with threads switching as often
        # as the interpreter allows; it sees the file's bytes in order, the kept
        # blocks where they lie in the loaded array
        mask = KEEP_MASKS[name]
        base = self._save(rng, tmp_path, mask)
        hasher = self.RecordingHasher()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            loaded, _ = data.load_erp(base, keep=lambda m: mask, hasher=hasher)
        finally:
            sys.setswitchinterval(interval)
        raw = data.erp_files(base)[1].read_bytes()
        assert b"".join(bytes(b) for b in hasher.blocks) == raw
        assert hasher.sha256.hexdigest() == hashlib.sha256(raw).hexdigest()
        in_place = [b for b in hasher.blocks if np.shares_memory(b, loaded.data)]
        assert sum(len(b) for b in in_place) == mask.sum()  # only dropped rows are copied
        assert not self.hash_threads()

    @pytest.mark.parametrize("fault", ["nan", "read", "hasher"])
    def test_hashing_thread_joined_on_every_exit_path(self, rng, tmp_path, monkeypatch,
                                                      fault):
        mask = KEEP_MASKS["alternating"]
        base = self._save(rng, tmp_path, mask, nan_at=[(3, 1, 1)] if fault == "nan" else ())
        hasher = self.RecordingHasher(fail_at=2 if fault == "hasher" else None)
        if fault == "read":
            fill, calls = data._fill, []

            def failing_fill(*args):
                calls.append(1)
                if len(calls) == 3:
                    raise data.FormatError("read fault")
                fill(*args)

            monkeypatch.setattr(data, "_fill", failing_fill)
        error, message = {"nan": (data.FormatError, "1 non-finite"),
                          "read": (data.FormatError, "read fault"),
                          "hasher": (RuntimeError, "hasher failed")}[fault]
        with pytest.raises(error, match=message):
            data.load_erp(base, keep=lambda m: mask, hasher=hasher)
        assert not self.hash_threads()
        if fault == "nan":  # every byte is hashed before the values' fault is raised
            assert hasher.sha256.hexdigest() == hashlib.sha256(
                data.erp_files(base)[1].read_bytes()).hexdigest()

    def test_keep_mask_of_wrong_length_rejected(self, rng, tmp_path):
        base = self._save(rng, tmp_path, KEEP_MASKS["all"])
        with pytest.raises(ValueError, match="keep mask of shape"):
            data.load_erp(base, keep=lambda m: np.ones(3, dtype=bool))


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

    def test_payload_is_the_tensors_bytes_in_order(self, tmp_path, rng):
        tensors = {"z": rng.normal(size=(3, 2)).T, "a": rng.normal(size=5)}
        checkpoint.save_checkpoint(tmp_path / "ck", "test", {}, tensors)
        manifest_path, payload_path = checkpoint.checkpoint_files(tmp_path / "ck")
        assert payload_path.read_bytes() == b"".join(
            t.astype("<f8").tobytes(order="C") for t in tensors.values())
        entries = json.loads(manifest_path.read_text())["tensors"]
        assert [(e["name"], e["offset"]) for e in entries] == [("z", 0), ("a", 48)]

    def test_negative_dimension_rejected(self, tmp_path, rng):
        # np.prod([-1]) == -1 used to load a silently truncated tensor, and a
        # zero dimension an empty one, which no checkpoint kind can hold
        for dim in (-1, 0):
            base = self._save(tmp_path, rng)
            manifest_path = tmp_path / "ck.ckpt.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["tensors"][1]["shape"] = [dim]
            manifest_path.write_text(json.dumps(manifest))
            with pytest.raises(data.FormatError,
                               match=rf"'b' has a dimension below 1 in shape \[{dim}\]"):
                checkpoint.load_checkpoint(base)

    def test_trailing_payload_bytes_rejected(self, tmp_path, rng):
        base = self._save(tmp_path, rng)
        bin_path = tmp_path / "ck.ckpt.bin"
        bin_path.write_bytes(bin_path.read_bytes() + b"\x00" * 8)
        with pytest.raises(data.FormatError,
                           match=r"ck\.ckpt\.bin: expected 80 bytes for shape \(10,\), found 88"):
            checkpoint.load_checkpoint(base)

    def test_shapes_beyond_the_payload_rejected_before_allocating(self, tmp_path, rng,
                                                                  monkeypatch):
        # 2**61 values (2**64 bytes) claimed: the size check comes first
        base = self._save(tmp_path, rng)
        manifest_path = tmp_path / "ck.ckpt.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["tensors"][1]["shape"] = [2**61 - 6]
        manifest_path.write_text(json.dumps(manifest))

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(data.np, "empty", no_allocation)
        with pytest.raises(data.FormatError,
                           match=rf"ck\.ckpt\.bin: expected {2**64} bytes for shape "
                                 rf"\({2**61},\), found 80$"):
            checkpoint.load_checkpoint(base)

    def test_payload_read_once_into_one_array(self, tmp_path, rng, monkeypatch):
        base = self._save(tmp_path, rng)
        opened = []
        path_open = data.Path.open

        def counting_open(path, *args, **kwargs):
            opened.append(path.name)
            return path_open(path, *args, **kwargs)

        monkeypatch.setattr(data.Path, "open", counting_open)
        monkeypatch.setattr(data.Path, "read_bytes", None)
        _, _, tensors = checkpoint.load_checkpoint(base)
        assert [name for name in opened if name.endswith(".bin")] == ["ck.ckpt.bin"]
        a, b = tensors["a"], tensors["b"]
        assert a.base is not None and a.base is b.base and a.base.shape == (10,)
        np.testing.assert_array_equal(a.base, np.concatenate([a.ravel(), b]))

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(tensors=5), r"ck\.ckpt\.json: manifest: 'tensors' needs list"),
        (lambda m: m.update(meta=[]), r"ck\.ckpt\.json: manifest: 'meta' needs dict"),
        (lambda m: m.pop("kind"), r"ck\.ckpt\.json: manifest is missing 'kind'"),
        (lambda m: m["tensors"][0].update(shape="ab"),
         r"ck\.ckpt\.json: tensor entry 0: 'shape' needs tuple\[int, \.\.\.\]"),
        (lambda m: m["tensors"][0].update(shape=[2, 3.0]),
         r"ck\.ckpt\.json: tensor entry 0: 'shape' needs tuple\[int, \.\.\.\]"),
        (lambda m: m["tensors"][0].pop("name"), r"ck\.ckpt\.json: tensor entry 0 is missing 'name'"),
        (lambda m: m["tensors"][1].update(offset=True),
         r"ck\.ckpt\.json: tensor entry 1: 'offset' needs int"),
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

    @pytest.mark.parametrize("flag", ["true", "yes", "2", " 1"])
    def test_artifact_flag_other_than_0_or_1_rejected(self, tmp_path, flag):
        # a flag read as "not 1" would keep a flagged epoch as a clean trial
        path = tmp_path / "set.meta.tsv"
        data.save_meta(path, make_meta(3))
        lines = path.read_text().split("\n")
        lines[2] = lines[2].rsplit("\t", 1)[0] + "\t" + flag
        path.write_text("\n".join(lines))
        with pytest.raises(data.FormatError,
                           match=f"^{path}: line 3: artifact flag '{flag}' is not 0 or 1$"):
            data.load_meta(path)


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
        np.testing.assert_array_equal(t.rows_for("surprisal", [(0, 2)]), [1.5])
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

    def test_repeated_token_rejected_with_both_lines(self, tmp_path):
        p = tmp_path / "counts.tsv"
        p.write_text("the\t100\ndog\t7\nthe\t3\n")
        with pytest.raises(data.FormatError, match="counts.tsv: line 3: token 'the' is "
                                                   "listed again, first at line 1$"):
            data.load_counts(p)

    @pytest.mark.parametrize("bad", [-5, -1])
    def test_negative_count_rejected(self, tmp_path, bad):
        p = tmp_path / "counts.tsv"
        p.write_text(f"the\t100\ndog\t{bad}\n")
        with pytest.raises(data.FormatError, match=f"counts.tsv: line 2: negative count {bad}$"):
            data.load_counts(p)


# Valid files of each table format; the fuzz tests splice noise into them.
_VALID_TABLES = {
    "load_embeddings": "the 0.5 -1.25 3\ndog 1e-3 2 0\n",
    "load_token_features": ("sentence_id\tword_position\tsurprisal\tvec.0\tvec.1\n"
                            "0\t1\t2.5\t0.1\t-0.2\n0\t2\t1.5\t0.3\t0.4\n"),
    "load_counts": "the\t100\ndog\t7\n",
    "load_meta": ("subject_id\tsentence_id\tword_position\ttoken\tword_class\tpos_tag\t"
                  "artifact\ns1\t0\t1\tthe\tfunction\tDT\t0\ns1\t0\t2\tdog\tcontent\tNN\t1\n"),
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

    def test_overlong_component_number_is_format_error(self, tmp_path):
        # int() refuses strings of more than 4300 digits with a plain ValueError
        path = tmp_path / "tokens.feat.tsv"
        path.write_text(f"sentence_id\tword_position\tvec.0\tvec.{'9' * 5000}\n0\t1\t1\t2\n")
        with pytest.raises(data.FormatError, match="vector column 'vec' has component 9+ "
                                                   "where 1 was expected"):
            data.load_token_features(path)

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


class _Literal(str):
    """A number written into JSON text as it is, e.g. one json.dumps cannot write."""


_RAW = "\x00literal\x00"
_LITERALS = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
                             "1" + "0" * 400]).map(_Literal)


def _draw_mutated_json(draw, doc, under=(), extra=st.nothing()) -> str:
    """``doc`` as JSON text with one node at or below the path ``under`` deleted or
    replaced by a drawn value: any JSON (NaN and infinities included), a
    non-finite or overflowing number literal, or one of ``extra``. The node is
    found by a walk down from ``under`` that stops at each level with
    probability 1/4, so that shallow fields are hit about as often as the
    many leaves of a deep one."""
    path, node = tuple(under), doc
    for key in under:
        node = node[key]
    while isinstance(node, (dict, list)) and node and draw.draw(st.integers(0, 3)):
        key = draw.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        path, node = path + (key,), node[key]
    value = draw.draw(st.one_of(st.just(_DELETE), _JSON, _LITERALS, extra))
    literal = value if isinstance(value, _Literal) else None
    value = _RAW if literal else value
    if not path:
        doc = None if value is _DELETE else value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    text = json.dumps(doc)
    return text.replace(json.dumps(_RAW), literal) if literal else text


class TestJsonFileFuzz:
    """Any edit of an ERP sidecar or of a checkpoint's ``meta`` loads or fails as
    a format error."""

    @settings(max_examples=300, deadline=None)
    @given(draw=st.data())
    def test_mutated_sidecar_fails_only_as_format_error(self, tmp_path_factory, draw):
        base = tmp_path_factory.mktemp("erp") / "set"
        rng = np.random.default_rng(0)
        data.save_erp(base, make_dataset(rng, n=2, c=2, t=5), make_meta(2))
        sidecar_path = data.erp_files(base)[0]
        # shapes whose product wraps in int64
        overflowing = st.lists(st.integers(2**21, 2**62), min_size=3, max_size=3)
        sidecar_path.write_text(_draw_mutated_json(
            draw, json.loads(sidecar_path.read_text()), extra=overflowing))
        try:
            data.load_erp(base)
        except (data.FormatError, FileNotFoundError):
            pass

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        """An autoencoder with intercepts, an encoding model with a tuner and a
        ground truth, each saved once: kind -> (base path, loader)."""
        root = tmp_path_factory.mktemp("checkpoints")
        sources = ("frequency", "static_embedding")
        sd = synth.generate(synth.SynthConfig(
            n_subjects=2, n_sentences=6, words_per_sentence=3, n_channels=4,
            n_timepoints=30, vocab_size=10, static_dim=3, contextual_dim=3, driving=sources))
        synth.write_dataset_dir(sd, root)
        decoder = sd.ground_truth.decoder
        spec = autoencoder.AutoencoderSpec("beta", True, 4, 30)
        autoencoder.save_autoencoder(
            root / "ae", autoencoder.init_params(spec, seed=0, subjects=("s00", "s01")))
        dataset, meta = data.filter_artifacts(sd.dataset, sd.meta, include_first_word=False)
        fm = features.assemble(features.FeatureSpec(sources), meta, counts_table=sd.counts,
                               embeddings=sd.embeddings, sentence_tokens=sd.sentence_tokens)
        model, _ = encoding.train(encoding.freeze(decoder, dataset, meta), fm, sources, epochs=1)
        assert "tuner.w1" in model.params
        encoding.save_encoding_model(root / "model", model)
        return {"autoencoder": (root / "ae", autoencoder.load_autoencoder),
                "encoding_model": (root / "model",
                                   lambda base: encoding.load_encoding_model(base, decoder)),
                "synth_truth": (root / "truth", synth.load_ground_truth)}

    @pytest.mark.parametrize("kind", ["autoencoder", "encoding_model", "synth_truth"])
    @settings(max_examples=200, deadline=None)
    @given(draw=st.data())
    def test_mutated_meta_fails_only_as_format_error(self, saved, tmp_path_factory, kind,
                                                     draw):
        source, load = saved[kind]
        base = tmp_path_factory.mktemp("ck") / "ck"
        manifest_path, payload_path = checkpoint.checkpoint_files(base)
        source_manifest, source_payload = checkpoint.checkpoint_files(source)
        payload_path.write_bytes(source_payload.read_bytes())
        manifest_path.write_text(_draw_mutated_json(
            draw, json.loads(source_manifest.read_text()), under=("meta",)))
        try:
            load(base)
        except (data.FormatError, FileNotFoundError):
            pass
