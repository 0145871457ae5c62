"""Synthetic generator and oracle-bound tests."""

import copy
import dataclasses
import json
import re

import numpy as np
import pytest

from erpcoder import autoencoder, encoding, features, nn, synth
from erpcoder.autoencoder import decode
from erpcoder.checkpoint import load_checkpoint, save_checkpoint
from erpcoder.data import (CHUNK_ROWS, ErpDataset, FormatError, filter_artifacts, load_counts,
                           load_embeddings, load_erp, load_token_features)

import oracles


def small_config(**kw):
    base = dict(n_subjects=2, n_sentences=25, words_per_sentence=4,
                n_channels=6, n_timepoints=30, architecture="beta",
                noise_sd=0.05, driving=("frequency", "surprisal"), seed=17)
    base.update(kw)
    return synth.SynthConfig(**base)


class TestGenerate:
    def test_bit_identical_regeneration(self):
        a = synth.generate(small_config())
        b = synth.generate(small_config())
        np.testing.assert_array_equal(a.dataset.data, b.dataset.data)
        np.testing.assert_array_equal(a.ground_truth.latents, b.ground_truth.latents)
        assert a.meta == b.meta

    def test_zero_noise_equals_decoded_latents(self):
        sd = synth.generate(small_config(noise_sd=0.0))
        decoded = decode(sd.ground_truth.decoder, sd.ground_truth.latents)
        np.testing.assert_array_equal(sd.dataset.data, decoded)

    # 65 trials leave a one-trial chunk, 200 an eight-trial one (CHUNK_ROWS 32)
    @pytest.mark.parametrize("n_sentences", [13, 40])
    @pytest.mark.parametrize("noise_sd", [0.0, 0.3])
    def test_chunked_epochs_equal_one_decode_and_one_draw(self, monkeypatch, n_sentences,
                                                          noise_sd):
        # the noise generator's state as generation reaches the epochs
        seen = []
        noisy_epochs = synth._noisy_epochs

        def recording(decoder, latents, sd, rng):
            seen.append(copy.deepcopy(rng.bit_generator.state))
            return noisy_epochs(decoder, latents, sd, rng)

        monkeypatch.setattr(synth, "_noisy_epochs", recording)
        config = small_config(n_subjects=1, n_sentences=n_sentences, words_per_sentence=5,
                              n_channels=4, noise_sd=noise_sd)
        assert config.n_trials % CHUNK_ROWS != 0
        sd = synth.generate(config)
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = seen[0]
        signal = decode(sd.ground_truth.decoder, sd.ground_truth.latents)  # every trial at once
        expected = signal + rng.standard_normal(signal.shape) * noise_sd
        assert sd.dataset.data.tobytes() == expected.tobytes()

    def test_residual_variance_matches_noise(self):
        # law of large numbers at >= 1e5 elements: within 5%
        config = small_config(n_subjects=4, n_sentences=50, words_per_sentence=5,
                              n_channels=8, n_timepoints=50, noise_sd=0.07)
        sd = synth.generate(config)
        assert sd.dataset.data.size >= 1e5
        residual = sd.dataset.data - decode(sd.ground_truth.decoder,
                                            sd.ground_truth.latents)
        assert float(residual.var()) == pytest.approx(0.07**2, rel=0.05)

    def test_filtering_paths_populated(self):
        sd = synth.generate(small_config(artifact_rate=0.2))
        assert any(m.artifact for m in sd.meta)
        assert any(m.word_position == 1 for m in sd.meta)
        assert {m.word_class for m in sd.meta} == {"content", "function"}

    def test_class_distinct_surprisal(self):
        sd = synth.generate(small_config())
        keys = [(m.sentence_id, m.word_position) for m in sd.meta]
        surp = sd.token_features.rows_for("surprisal", keys)
        content = [s for s, m in zip(surp, sd.meta) if m.word_class == "content"]
        function = [s for s, m in zip(surp, sd.meta) if m.word_class == "function"]
        assert np.mean(content) > np.mean(function) + 1.0

    def test_calibrated_snr(self):
        config = synth.calibrate_noise(small_config(), target_snr=2.0)
        sd = synth.generate(config)
        signal = decode(sd.ground_truth.decoder, sd.ground_truth.latents)
        noise = sd.dataset.data - signal
        snr = float(signal.var() / noise.var())
        assert snr == pytest.approx(2.0, rel=0.1)

    def test_driven_latent_mask(self):
        sd = synth.generate(small_config(driven_latent_timepoints=(1, 2)))
        for w in sd.ground_truth.interface_weights.values():
            assert np.all(w[:, 0, :] == 0.0)
            assert np.any(w[:, 1, :] != 0.0)

    def test_bad_driven_timepoint_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            synth.generate(small_config(driven_latent_timepoints=(99,)))

    @pytest.mark.parametrize("source", ["semantic_distance", "static_embedding",
                                        "contextual_embedding"])
    def test_driving_columns_are_standardized_source_blocks(self, source):
        sd = synth.generate(small_config(driving=("frequency", source)))
        block = features.source_block(
            source, sd.meta, counts_table=sd.counts, token_features=sd.token_features,
            embeddings=sd.embeddings, sentence_tokens=sd.sentence_tokens,
            allow_first_word=True)
        width = {"semantic_distance": 1, "static_embedding": sd.config.static_dim,
                 "contextual_embedding": sd.config.contextual_dim}
        assert block.shape == (len(sd.meta), width[source])
        sd_cols = block.std(axis=0)
        expected = (block - block.mean(axis=0)) / np.where(sd_cols == 0.0, 1.0, sd_cols)
        np.testing.assert_array_equal(sd.ground_truth.driving_columns[source], expected)
        assert np.abs(expected.mean(axis=0)).max() < 1e-12


class TestConfig:
    def test_json_round_trip(self):
        config = small_config(driving=("surprisal", "static_embedding"),
                              drive_scales=(1.0, 2.5), driven_latent_timepoints=(0, 1))
        text = json.dumps(config.to_json_dict())
        assert synth.SynthConfig.from_json_dict(json.loads(text)) == config
        assert synth.SynthConfig.from_json_dict(config.to_json_dict()) == config

    @pytest.mark.parametrize("payload, message", [
        ({"n_subject": 2}, "unknown key 'n_subject'"),
        ({"n_subjects": "two"}, "synth config: 'n_subjects' needs int, got 'two'"),
        ({"n_subjects": True}, "synth config: 'n_subjects' needs int"),
        ({"vocab_size": 2.5}, "synth config: 'vocab_size' needs int"),
        ({"noise_sd": "1"}, "synth config: 'noise_sd' needs float"),
        ({"driving": "frequency"}, "synth config: 'driving' needs tuple"),
        ({"drive_scales": [1.0, None]}, "synth config: 'drive_scales' needs tuple"),
        ({"driven_latent_timepoints": [0.5]},
         "synth config: 'driven_latent_timepoints' needs tuple"),
        ([{"n_subjects": 2}], "synth config is not a JSON object, got list"),
        ("beta", "synth config is not a JSON object, got str"),
    ], ids=["unknown_key", "int_as_string", "int_as_bool", "int_as_float", "float_as_string",
            "tuple_as_string", "tuple_with_null", "int_tuple_with_float", "list",
            "string"])
    def test_from_json_rejects_malformed_config(self, payload, message):
        with pytest.raises(FormatError, match=message):
            synth.SynthConfig.from_json_dict(payload)

    def test_json_numbers_and_nulls_accepted(self):
        config = synth.SynthConfig.from_json_dict(
            {"noise_sd": 1, "drive_scales": [1, 0.5], "driven_latent_timepoints": None})
        assert config.noise_sd == 1 and config.drive_scales == (1, 0.5)

    @pytest.mark.parametrize("driving", [("constant",), ("frequency", "bogus")])
    def test_non_driving_sources_rejected(self, driving):
        with pytest.raises(ValueError, match="driving sources"):
            small_config(driving=driving)

    @pytest.mark.parametrize("kw, message", [
        ({"sampling_rate_hz": 0.0}, "sampling_rate_hz must be > 0, got 0.0"),
        ({"sampling_rate_hz": -250.0}, "sampling_rate_hz must be > 0, got -250.0"),
        ({"artifact_rate": 1.5}, "artifact_rate must be in [0, 1), got 1.5"),
        ({"artifact_rate": 1.0}, "artifact_rate must be in [0, 1), got 1.0"),
        ({"artifact_rate": -0.1}, "artifact_rate must be in [0, 1), got -0.1"),
        ({"latent_bias_sd": -1.0}, "latent_bias_sd must be >= 0, got -1.0"),
        ({"drive_scales": (1.0, -0.5)}, "drive_scales[1] must be >= 0, got -0.5"),
        ({"driving": ("frequency", "frequency")},
         "driving sources ['frequency', 'frequency'] repeat a source"),
    ], ids=["rate_zero", "rate_negative", "artifact_rate_above_1", "artifact_rate_1",
            "artifact_rate_negative", "latent_bias_sd_negative", "drive_scale_negative",
            "repeated_source"])
    def test_setting_that_makes_no_valid_dataset_rejected(self, kw, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**kw)

    def test_boundary_settings_accepted(self):
        sd = synth.generate(small_config(artifact_rate=0.0, latent_bias_sd=0.0))
        assert not any(m.artifact for m in sd.meta)
        np.testing.assert_array_equal(sd.ground_truth.latent_bias, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["sampling_rate_hz", "epoch_start_ms", "noise_sd",
                                       "latent_bias_sd", "artifact_rate", "drive_scales[1]"])
    def test_non_finite_float_rejected(self, field, bad):
        kw = {"drive_scales": (1.0, bad)} if field == "drive_scales[1]" else {field: bad}
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be finite, got {bad}$"):
            small_config(**kw)


class TestTimeMajorGenerate:
    """Generation and the oracle bounds decode time-major in CHUNK_ROWS-trial
    blocks: the same bits on one worker or three, and as the batch-first ops
    give to rounding."""

    @pytest.mark.parametrize("architecture", ["alpha", "beta"])
    def test_identical_on_one_and_three_workers(self, monkeypatch, architecture):
        config = small_config(n_channels=4, n_timepoints=40, architecture=architecture)
        runs = []
        for n in (1, 3):
            monkeypatch.setattr(autoencoder, "_worker_count", lambda n_jobs, n=n: min(n, n_jobs))
            sd = synth.generate(config)
            runs.append((sd.dataset.data.tobytes(),
                         json.dumps(synth.oracle_bounds(sd.ground_truth, sd.dataset))))
        assert runs[0] == runs[1]

    def test_decoded_epochs_match_batch_first_ops(self):
        sd = synth.generate(small_config(noise_sd=0.0))
        decoder = sd.ground_truth.decoder
        h = sd.ground_truth.latents
        for i, step in enumerate(decoder.plan.decoder):
            h, _ = nn.convtranspose1d_forward(h, decoder.tensors[f"dec{i}.kernels"],
                                              decoder.tensors[f"dec{i}.bias"], step.stride,
                                              step.padding)
            h = np.tanh(h) if step.activation else h
        np.testing.assert_allclose(sd.dataset.data, h, rtol=0, atol=1e-12)


def assert_matches_reference(bounds, reference, rel=1e-12, atol=0.0):
    assert bounds["ridge_fallback"] == reference["ridge_fallback"]
    assert bounds["mse"].keys() == reference["mse"].keys()
    pairs = [(bounds["mse_floor"], reference["mse_floor"])]
    pairs += [(bounds["mse"][key], value) for key, value in reference["mse"].items()]
    for got, want in pairs:
        assert abs(got - want) <= max(rel * abs(want), atol), (got, want)


class TestOracleBounds:
    """The bounds in the frozen true decoder's Gram form, against decoding
    every eval trial through the whole decoder (tests/oracles.py)."""

    @pytest.mark.parametrize("architecture", ["alpha", "beta"])
    @pytest.mark.parametrize("rows", ["default", "disjoint"])
    def test_gram_form_matches_decoded_reference(self, architecture, rows):
        sd = synth.generate(small_config(n_timepoints=40, architecture=architecture, noise_sd=1.0))
        n = sd.dataset.n_trials
        kw = {} if rows == "default" else {"fit_rows": np.arange(0, n, 2),
                                           "eval_rows": np.arange(1, n, 2)}
        assert_matches_reference(
            synth.oracle_bounds(sd.ground_truth, sd.dataset, **kw),
            oracles.decoded_oracle_bounds(sd.ground_truth, sd.dataset, **kw))

    @pytest.mark.parametrize("architecture", ["alpha", "beta"])
    def test_near_noiseless_within_cancellation_bound(self, architecture):
        # hᵀGh - 2hᵀr + c cancels to the residual: the absolute error scales
        # with the mean squared epoch value c/n_out, not with the 1e-12 floor
        sd = synth.generate(small_config(n_timepoints=40, architecture=architecture,
                                          noise_sd=1e-6))
        bounds = synth.oracle_bounds(sd.ground_truth, sd.dataset)
        assert bounds["mse_floor"] == pytest.approx(1e-12, rel=0.05)
        frozen = encoding.freeze(sd.ground_truth.decoder, sd.dataset)
        scale = frozen.c.mean() / frozen.n_out
        assert_matches_reference(
            bounds, oracles.decoded_oracle_bounds(sd.ground_truth, sd.dataset),
            rel=0.0, atol=2 * np.finfo(float).eps * scale)

    def test_decodes_no_epoch(self, monkeypatch):
        sd = synth.generate(small_config())

        def refuse(*args, **kwargs):
            raise AssertionError("oracle_bounds decoded epochs")

        for module in (autoencoder, encoding, synth):
            for name in ("_decode", "decode"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        bounds = synth.oracle_bounds(sd.ground_truth, sd.dataset)
        assert all(np.isfinite(v) for v in bounds["best_possible_r2_mod"].values())

    @pytest.mark.parametrize("eval_rows", [None, "in range"])
    def test_dataset_of_other_trials_rejected(self, monkeypatch, eval_rows):
        # the artifact-filtered set is not the generated one, whatever the rows
        sd = synth.generate(small_config(n_sentences=50, artifact_rate=0.2))
        ds, _ = filter_artifacts(sd.dataset, sd.meta)
        assert ds.n_trials < sd.dataset.n_trials
        monkeypatch.setattr(synth, "freeze", None)  # any work would raise TypeError
        rows = None if eval_rows is None else np.arange(ds.n_trials)
        with pytest.raises(ValueError, match=rf"^dataset has {ds.n_trials} trials, the "
                                             rf"ground truth {sd.dataset.n_trials}: "):
            synth.oracle_bounds(sd.ground_truth, ds, eval_rows=rows, fit_rows=rows)

    def test_geometry_mismatch_rejected(self):
        sd = synth.generate(small_config())
        ds = sd.dataset
        short = ErpDataset(ds.data[:, :, :20], ds.sampling_rate_hz, ds.epoch_start_ms,
                           ds.epoch_start_ms + 20 / ds.sampling_rate_hz * 1000.0)
        with pytest.raises(ValueError, match=r"^decoder geometry 6x30 != dataset 6x20$"):
            synth.oracle_bounds(sd.ground_truth, short)

    @pytest.mark.parametrize("which", ["fit_rows", "eval_rows"])
    @pytest.mark.parametrize("rows, message", [
        ([], "must be a non-empty 1-D list of trial indices"),
        (np.zeros((2, 2), dtype=int), "must be a non-empty 1-D list of trial indices"),
        ([0, 200], r"must be trial indices in range\(200\)"),
        ([-1, 3], r"must be trial indices in range\(200\)"),
        ([0.0, 1.0], r"must be trial indices in range\(200\)"),
        ([True] * 200, r"must be trial indices in range\(200\)")])
    def test_bad_rows_rejected(self, monkeypatch, which, rows, message):
        sd = synth.generate(small_config())
        assert sd.dataset.n_trials == 200
        monkeypatch.setattr(synth, "freeze", None)  # any work would raise TypeError
        with pytest.raises(ValueError, match=f"^{which} {message}$"):
            synth.oracle_bounds(sd.ground_truth, sd.dataset, **{which: rows})

    def test_full_set_floor_and_anchors(self):
        sd = synth.generate(small_config())
        bounds = synth.oracle_bounds(sd.ground_truth, sd.dataset)
        full_key = "frequency+surprisal"
        assert bounds["mse"][full_key] == pytest.approx(bounds["mse_floor"], rel=1e-6)
        assert bounds["best_possible_r2_mod"][full_key] == pytest.approx(1.0, abs=1e-6)
        assert bounds["best_possible_r2_mod"]["intercept"] == 0.0
        assert bounds["mse_floor"] == pytest.approx(sd.config.noise_sd**2, rel=0.1)

    def test_bounds_monotone_nonincreasing(self):
        sd = synth.generate(small_config())
        bounds = synth.oracle_bounds(sd.ground_truth, sd.dataset)
        keys = ["intercept", "frequency", "frequency+surprisal"]
        values = [bounds["mse"][k] for k in keys]
        assert values[0] >= values[1] >= values[2]

    def test_bounds_on_separate_rows(self):
        sd = synth.generate(small_config())
        n = sd.dataset.n_trials
        fit = np.arange(0, n, 2)
        ev = np.arange(1, n, 2)
        bounds = synth.oracle_bounds(sd.ground_truth, sd.dataset,
                                     fit_rows=fit, eval_rows=ev)
        assert bounds["mse"]["frequency"] >= bounds["mse"]["frequency+surprisal"]

    @pytest.mark.parametrize("architecture", ["alpha", "beta"])
    def test_subset_frozen_alone_matches_every_trial_frozen(self, monkeypatch, architecture):
        # the kept trials alone are frozen; the reference freezes every trial
        # and gathers the kept rows of r and c, its adjoint pass running other
        # 32-trial blocks, so the two agree within 1e-12, not bit for bit
        sd = synth.generate(small_config(n_sentences=50, n_timepoints=40, noise_sd=1.0,
                                         artifact_rate=0.2, architecture=architecture))
        kept = np.flatnonzero(~np.array([m.artifact for m in sd.meta]))
        assert 0 < len(kept) < sd.dataset.n_trials
        frozen_rows = []

        def freeze_every_trial(decoder, dataset, meta=None, *, rows=None):
            frozen_rows.append(rows)
            whole = encoding.freeze(decoder, dataset, meta)
            return dataclasses.replace(whole, r=whole.r[rows], c=whole.c[rows])

        bounds = synth.oracle_bounds(sd.ground_truth, sd.dataset, fit_rows=kept, eval_rows=kept)
        monkeypatch.setattr(synth, "freeze", freeze_every_trial)
        reference = synth.oracle_bounds(sd.ground_truth, sd.dataset, fit_rows=kept,
                                        eval_rows=kept)
        np.testing.assert_array_equal(frozen_rows[0], kept)
        assert_matches_reference(bounds, reference)

    def test_degenerate_features_use_ridge(self):
        sd = synth.generate(small_config())
        # duplicate a column to force singular normal equations
        cols = sd.ground_truth.driving_columns
        cols["frequency"] = np.hstack([cols["frequency"], cols["frequency"]])
        sd.ground_truth.interface_weights["frequency"] = np.zeros(0)  # unused here
        bounds = synth.oracle_bounds(sd.ground_truth, sd.dataset)
        assert bounds["ridge_fallback"]
        assert np.isfinite(bounds["mse"]["frequency"])
        assert_matches_reference(
            bounds, oracles.decoded_oracle_bounds(sd.ground_truth, sd.dataset))


class TestDiskRoundTrip:
    def test_write_and_reload(self, tmp_path):
        sd = synth.generate(small_config())
        synth.write_dataset_dir(sd, tmp_path)
        ds, meta = load_erp(tmp_path / "data")
        np.testing.assert_array_equal(ds.data, sd.dataset.data)
        assert meta == sd.meta
        counts = load_counts(tmp_path / "counts.tsv")
        assert counts == sd.counts
        emb = load_embeddings(tmp_path / "embeddings.txt")
        assert emb.dimension == sd.embeddings.dimension
        np.testing.assert_array_equal(emb.get("tok000"), sd.embeddings.get("tok000"))
        tf = load_token_features(tmp_path / "tokens.feat.tsv")
        np.testing.assert_array_equal(tf.columns["surprisal"],
                                      sd.token_features.columns["surprisal"])

    def test_ground_truth_round_trip(self, tmp_path):
        sd = synth.generate(small_config())
        synth.write_dataset_dir(sd, tmp_path)
        truth = synth.load_ground_truth(tmp_path / "truth")
        np.testing.assert_array_equal(truth.latents, sd.ground_truth.latents)
        np.testing.assert_array_equal(
            truth.interface_weights["frequency"],
            sd.ground_truth.interface_weights["frequency"])
        for k, v in sd.ground_truth.decoder.tensors.items():
            np.testing.assert_array_equal(truth.decoder.tensors[k], v)
        decoded = decode(truth.decoder, truth.latents)
        np.testing.assert_array_equal(decoded, decode(sd.ground_truth.decoder,
                                                      sd.ground_truth.latents))

    @pytest.mark.parametrize("tensor", ["decoder.dec1.bias", "interface.frequency",
                                        "columns.frequency", "latent_bias", "latents"])
    def test_missing_truth_tensor_rejected(self, tmp_path, tensor):
        synth.write_dataset_dir(synth.generate(small_config()), tmp_path)
        kind, meta, tensors = load_checkpoint(tmp_path / "truth")
        del tensors[tensor]
        save_checkpoint(tmp_path / "truth", kind, meta, tensors)
        with pytest.raises(FormatError,
                           match=f"truth.ckpt.json: checkpoint has no tensor '{tensor}'"):
            synth.load_ground_truth(tmp_path / "truth")

    @pytest.mark.parametrize("tensor, edit", [
        ("latent_bias", lambda t: t[:, :-1]),
        ("latents", lambda t: t[:, :-1]),
        ("interface.frequency", lambda t: t[:-1]),
        ("columns.frequency", lambda t: t[:-1]),  # trial count differs from `latents`
        ("columns.surprisal", lambda t: np.hstack([t, t])),  # width differs from interface
    ], ids=["latent_bias", "latents", "interface", "columns_rows", "columns_width"])
    def test_wrong_truth_tensor_shape_rejected(self, tmp_path, tensor, edit):
        synth.write_dataset_dir(synth.generate(small_config()), tmp_path)
        kind, meta, tensors = load_checkpoint(tmp_path / "truth")
        expected = tensors[tensor].shape
        tensors[tensor] = edit(tensors[tensor])
        save_checkpoint(tmp_path / "truth", kind, meta, tensors)
        with pytest.raises(FormatError) as err:
            synth.load_ground_truth(tmp_path / "truth")
        assert str(err.value) == (
            f"{tmp_path / 'truth.ckpt.json'}: tensor {tensor!r} has shape "
            f"{list(tensors[tensor].shape)}, expected {list(expected)}")

    def test_truth_with_the_dropped_meta_keys_loads(self, tmp_path):
        # earlier writers also stored the noise sd, whose square is mse_floor,
        # and the driven latent timepoints, which config.json holds
        sd = synth.generate(small_config(driven_latent_timepoints=(1, 2)))
        synth.write_dataset_dir(sd, tmp_path)
        path = tmp_path / "truth.ckpt.json"
        manifest = json.loads(path.read_text())
        assert sorted(manifest["meta"]) == ["decoder_plan", "decoder_spec", "driving",
                                            "mse_floor"]
        manifest["meta"].update(noise_sd=sd.config.noise_sd, driven_latent_timepoints=[1, 2])
        path.write_text(json.dumps(manifest))
        truth, expected = synth.load_ground_truth(tmp_path / "truth"), sd.ground_truth
        assert truth.mse_floor == expected.mse_floor
        pairs = [(truth.latents, expected.latents),
                 (truth.latent_bias, expected.latent_bias)]
        pairs += [(truth.decoder.tensors[k], v) for k, v in expected.decoder.tensors.items()]
        for s in sd.config.driving:
            pairs += [(truth.interface_weights[s], expected.interface_weights[s]),
                      (truth.driving_columns[s], expected.driving_columns[s])]
        assert len(truth.decoder.tensors) == len(expected.decoder.tensors)
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tensor", ["decoder.dec7.bias", "decoder.intercepts",
                                        "interface.static_embedding", "noise"])
    def test_extra_truth_tensor_rejected(self, tmp_path, tensor):
        synth.write_dataset_dir(synth.generate(small_config()), tmp_path)
        kind, meta, tensors = load_checkpoint(tmp_path / "truth")
        save_checkpoint(tmp_path / "truth", kind, meta, {**tensors, tensor: np.ones((2, 3))})
        with pytest.raises(FormatError) as err:
            synth.load_ground_truth(tmp_path / "truth")
        assert str(err.value) == (
            f"{tmp_path / 'truth.ckpt.json'}: checkpoint has unexpected tensor {tensor!r}")

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("mse_floor"), "meta is missing 'mse_floor'"),
        (lambda m: m.update(mse_floor="0.1"), "meta: 'mse_floor' needs float"),
        (lambda m: m.update(driving="frequency"), "meta: 'driving' needs tuple[str, ...]"),
        (lambda m: m["decoder_spec"].update(n_timepoints="30"),
         "meta 'decoder_spec': 'n_timepoints' needs int"),
    ], ids=["no_mse_floor", "floor_string", "driving_string", "spec_length_string"])
    def test_malformed_truth_meta_rejected(self, tmp_path, edit, message):
        synth.write_dataset_dir(synth.generate(small_config()), tmp_path)
        path = tmp_path / "truth.ckpt.json"
        manifest = json.loads(path.read_text())
        edit(manifest["meta"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError) as err:
            synth.load_ground_truth(tmp_path / "truth")
        assert str(err.value).startswith(f"{path}: {message}")
