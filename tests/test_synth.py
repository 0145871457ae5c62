"""Synthetic generator and oracle-bound tests."""

import json
import re

import numpy as np
import pytest

from erpcoder import features, synth
from erpcoder.autoencoder import decode
from erpcoder.checkpoint import load_checkpoint, save_checkpoint
from erpcoder.data import (FormatError, load_counts, load_embeddings, load_erp,
                           load_token_features)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["sampling_rate_hz", "epoch_start_ms", "noise_sd",
                                       "latent_bias_sd", "artifact_rate", "drive_scales[1]"])
    def test_non_finite_float_rejected(self, field, bad):
        kw = {"drive_scales": (1.0, bad)} if field == "drive_scales[1]" else {field: bad}
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be finite, got {bad}$"):
            small_config(**kw)


class TestOracleBounds:
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

    def test_degenerate_features_use_ridge(self):
        sd = synth.generate(small_config())
        # duplicate a column to force singular normal equations
        cols = sd.ground_truth.driving_columns
        cols["frequency"] = np.hstack([cols["frequency"], cols["frequency"]])
        sd.ground_truth.interface_weights["frequency"] = np.zeros(0)  # unused here
        bounds = synth.oracle_bounds(sd.ground_truth, sd.dataset)
        assert bounds["ridge_fallback"]
        assert np.isfinite(bounds["mse"]["frequency"])


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

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("noise_sd"), "meta is missing 'noise_sd'"),
        (lambda m: m.update(mse_floor="0.1"), "meta: 'mse_floor' needs float"),
        (lambda m: m.update(driving="frequency"), "meta: 'driving' needs tuple[str, ...]"),
        (lambda m: m.update(driven_latent_timepoints=[0.5]),
         "meta: 'driven_latent_timepoints' needs tuple[int, ...] | None"),
        (lambda m: m["decoder_spec"].update(n_timepoints="30"),
         "meta 'decoder_spec': 'n_timepoints' needs int"),
    ], ids=["no_noise_sd", "floor_string", "driving_string", "timepoints_float",
            "spec_length_string"])
    def test_malformed_truth_meta_rejected(self, tmp_path, edit, message):
        synth.write_dataset_dir(synth.generate(small_config()), tmp_path)
        path = tmp_path / "truth.ckpt.json"
        manifest = json.loads(path.read_text())
        edit(manifest["meta"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError) as err:
            synth.load_ground_truth(tmp_path / "truth")
        assert str(err.value).startswith(f"{path}: {message}")
