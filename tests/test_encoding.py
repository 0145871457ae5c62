"""Frozen-decoder encoding model tests: composition, training, search, suite."""

import copy
import dataclasses
import json
import re
import sys

import numpy as np
import pytest

from erpcoder import autoencoder, encoding, features, metrics, nn, synth
from erpcoder.autoencoder import (AutoencoderSpec, _decoder_forward, _stack_backward, decode,
                                  init_params)
from erpcoder.checkpoint import load_checkpoint, save_checkpoint
from erpcoder.data import (ErpDataset, FormatError, TrialMeta, filter_artifacts, keep_mask,
                           kfold_split)
from oracles import bad_rows, sample_rows, time_major


@pytest.fixture(scope="module")
def small_synth():
    config = synth.SynthConfig(
        n_subjects=2, n_sentences=30, words_per_sentence=4,
        n_channels=6, n_timepoints=30, architecture="beta",
        driving=("frequency", "surprisal"), seed=3)
    config = synth.calibrate_noise(config, target_snr=2.0)
    sd = synth.generate(config)
    ds, meta = filter_artifacts(sd.dataset, sd.meta, include_first_word=False)
    return sd, ds, meta


def assemble_for(sd, meta, sources):
    return features.assemble(
        features.FeatureSpec(tuple(sources)), meta, counts_table=sd.counts,
        token_features=sd.token_features, embeddings=sd.embeddings,
        sentence_tokens=sd.sentence_tokens)


def feature_rows(fm, rows):
    """A copy of rows ``rows`` of the feature matrix ``fm``."""
    return features.FeatureMatrix(fm.values[rows], fm.names)


def quick_fit(sd, ds, meta, sources, decoder=None, **kw):
    kw.setdefault("epochs", 150)
    kw.setdefault("batch_size", 32)
    kw.setdefault("lr", 0.005)
    kw.setdefault("seed", 5)
    kw.setdefault("weight_decay", 1e-5)
    if decoder is None:
        decoder = sd.ground_truth.decoder
    fm = assemble_for(sd, meta, sources)
    model, hist = encoding.train(encoding.freeze(decoder, ds, meta), fm, sources, **kw)
    return model, hist, fm


class TestPrediction:
    def test_matches_manual_composition_bitwise(self, small_synth, rng):
        sd, ds, meta = small_synth
        model, _, fm = quick_fit(sd, ds, meta, ("frequency",), epochs=3)
        preds = encoding.predict_erp(model, fm)
        f_std = features.apply_standardizer(fm, model.standardizer)
        z = (np.einsum("ctd,nd->nct", model.params["interface.weights"], f_std)
             + model.params["interface.bias"])
        manual = decode(model.decoder, z)
        np.testing.assert_array_equal(preds, manual)

    def test_zero_parameters_give_zero_prediction(self, small_synth):
        sd, ds, meta = small_synth
        model, _, fm = quick_fit(sd, ds, meta, ("frequency",), epochs=2,
                                 decoder=copy.deepcopy(sd.ground_truth.decoder))
        for t in model.params.values():
            t[:] = 0.0
        for t in model.decoder.tensors.values():
            t[:] = 0.0
        np.testing.assert_array_equal(
            encoding.predict_erp(model, fm), np.zeros((fm.n_trials, 6, 30)))

    def test_constant_model_predicts_one_epoch_for_all_trials(self, small_synth):
        sd, ds, meta = small_synth
        model, _, fm = quick_fit(sd, ds, meta, ("constant",), epochs=2)
        preds = encoding.predict_erp(model, fm)
        for n in range(1, preds.shape[0]):
            np.testing.assert_array_equal(preds[n], preds[0])

    def test_map_predictions_decodes_every_pair_per_chunk(self, small_synth):
        # fn sees each chunk's predictions under both models, with the bits of
        # each model's own full prediction
        sd, ds, meta = small_synth
        pairs = [quick_fit(sd, ds, meta, sources, epochs=2)[::2]
                 for sources in (("frequency",), ("constant",))]
        full = [encoding.predict_erp(model, fm) for model, fm in pairs]
        seen = encoding.map_predictions(
            lambda rows, *preds: [rows, *(p.copy() for p in preds)], pairs)
        assert [rows for rows, *_ in seen] == [
            slice(i, i + autoencoder.CHUNK_ROWS)
            for i in range(0, ds.n_trials, autoencoder.CHUNK_ROWS)]
        for rows, *preds in seen:
            assert len(preds) == 2
            for pred, expected in zip(preds, full):
                assert pred.tobytes() == expected[rows].tobytes()
        model, fm = pairs[0]
        with pytest.raises(ValueError, match="feature matrices of"):
            encoding.map_predictions(lambda rows, *preds: None,
                                     [(model, fm), (model, feature_rows(fm, np.arange(3)))])

    def test_predict_erp_is_decode_of_the_model_latents(self, small_synth):
        sd, ds, meta = small_synth
        model, _, fm = quick_fit(sd, ds, meta, ("frequency", "surprisal"), epochs=2)
        latents = time_major(encoding._latents(model, fm))  # (N, C_lat, T_lat)
        assert encoding.predict_erp(model, fm).tobytes() == \
            decode(model.decoder, latents).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_map_predictions_chunks_are_predict_erp_rows(self, small_synth, rng, monkeypatch,
                                                         workers):
        # a decoder with subject intercepts, so each chunk takes its own trials'
        # subjects
        sd, ds, meta = small_synth
        decoder = init_params(AutoencoderSpec("beta", True, 6, 30), seed=7,
                              subjects=("s00", "s01"))
        decoder.tensors["intercepts"][:] = rng.normal(size=(2, 6))
        fm = assemble_for(sd, meta, ("frequency",))
        model, _ = encoding.train(encoding.freeze(decoder, ds, meta), fm, ("frequency",),
                                  epochs=2, batch_size=32, lr=0.005, seed=1)
        subjects = [m.subject_id for m in meta]
        monkeypatch.setattr(autoencoder, "_worker_count", lambda n_jobs: min(workers, n_jobs))
        full = encoding.predict_erp(model, fm, subjects)
        seen = encoding.map_predictions(lambda rows, pred: (rows, pred.copy()), [(model, fm)],
                                        subjects)
        assert [rows for rows, _ in seen] == [
            slice(i, i + autoencoder.CHUNK_ROWS)
            for i in range(0, ds.n_trials, autoencoder.CHUNK_ROWS)]
        for rows, pred in seen:
            assert pred.shape == full[rows].shape
            assert pred.tobytes() == full[rows].tobytes()

    def test_width_mismatch_rejected(self, small_synth):
        sd, ds, meta = small_synth
        model, _, _ = quick_fit(sd, ds, meta, ("frequency",), epochs=2)
        wrong = assemble_for(sd, meta, ("frequency", "surprisal"))
        with pytest.raises(ValueError, match="do not match"):
            encoding.predict_erp(model, wrong)


class TestTraining:
    def test_decoder_frozen_bitwise(self, small_synth):
        sd, ds, meta = small_synth
        before = sd.ground_truth.decoder.decoder_digest()
        model, _, _ = quick_fit(sd, ds, meta, ("frequency", "surprisal"), epochs=10)
        assert sd.ground_truth.decoder.decoder_digest() == before
        assert model.decoder_digest == before

    def test_synthetic_recovery_r2(self, small_synth):
        # trained with the true features: r2_mod against the oracle floor >= 0.9
        sd, ds, meta = small_synth
        kept = np.flatnonzero(keep_mask(sd.meta, include_first_word=False))
        bounds = synth.oracle_bounds(sd.ground_truth, sd.dataset,
                                     fit_rows=kept, eval_rows=kept)
        model_i, _, fm_i = quick_fit(sd, ds, meta, ("constant",))
        frozen = encoding.freeze(sd.ground_truth.decoder, ds, meta)
        mse_i = encoding.model_mse(model_i, frozen, fm_i)
        model, _, fm = quick_fit(sd, ds, meta, ("frequency", "surprisal"))
        mse = encoding.model_mse(model, frozen, fm)
        r2 = metrics.r2_mod(mse, mse_i, bounds["mse_floor"])
        assert r2 >= 0.9

    def test_monotone_nesting(self, small_synth):
        sd, ds, meta = small_synth
        kept = np.flatnonzero(keep_mask(sd.meta, include_first_word=False))
        bounds = synth.oracle_bounds(sd.ground_truth, sd.dataset,
                                     fit_rows=kept, eval_rows=kept)
        model_i, _, fm_i = quick_fit(sd, ds, meta, ("constant",))
        frozen = encoding.freeze(sd.ground_truth.decoder, ds, meta)
        mse_i = encoding.model_mse(model_i, frozen, fm_i)
        r2 = {}
        for sources in [("frequency",), ("surprisal",), ("frequency", "surprisal")]:
            model, _, fm = quick_fit(sd, ds, meta, sources)
            r2[sources] = metrics.r2_mod(
                encoding.model_mse(model, frozen, fm), mse_i, bounds["mse_floor"])
        full = r2[("frequency", "surprisal")]
        assert full >= r2[("frequency",)] - 0.01
        assert full >= r2[("surprisal",)] - 0.01
        # and never above the oracle's reachable bound (plus slack)
        assert full <= bounds["best_possible_r2_mod"]["frequency+surprisal"] + 0.02

    def test_intercept_model_hits_constant_predictor_optimum(self, small_synth):
        sd, ds, meta = small_synth
        model, _, fm = quick_fit(sd, ds, meta, ("constant",), epochs=200)
        mse = encoding.model_mse(model, encoding.freeze(sd.ground_truth.decoder, ds, meta), fm)
        residual_var = float(((ds.data - ds.data.mean(axis=0)) ** 2).mean())
        assert mse == pytest.approx(residual_var, rel=0.02)

    def test_early_stopping_reproducible(self, small_synth):
        sd, ds, meta = small_synth
        model, hist, fm = quick_fit(sd, ds, meta, ("frequency",), epochs=25)
        assert hist.best_epoch == int(np.argmin(hist.dev_mse))
        assert hist.dev_mse[hist.best_epoch] == min(hist.dev_mse)
        replay, hist2, _ = quick_fit(sd, ds, meta, ("frequency",),
                                     epochs=hist.best_epoch + 1)
        assert list(replay.params) == list(model.params)
        for name, tensor in model.params.items():
            np.testing.assert_array_equal(replay.params[name], tensor)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_divergence_names_value_epoch_and_batch(self, small_synth, monkeypatch, bad):
        sd, ds, meta = small_synth
        n_batches = -(-(ds.n_trials - round(ds.n_trials * 0.1)) // 32)
        mse = encoding.FrozenDecoder.mse
        calls = []

        def diverging_mse(frozen, h, rows):
            calls.append(None)
            loss, grad = mse(frozen, h, rows)
            # one dev loss follows each epoch's batches: fail epoch 1, batch 1
            return (bad if len(calls) == n_batches + 3 else loss), grad

        monkeypatch.setattr(encoding.FrozenDecoder, "mse", diverging_mse)
        with pytest.raises(RuntimeError, match=f"diverged to {bad} at epoch 1, batch 1$"):
            quick_fit(sd, ds, meta, ("frequency",), epochs=3)

    def test_unfiltered_trials_rejected(self, small_synth):
        sd, _, _ = small_synth
        fm = assemble_for(sd, sd.meta[:4], ("frequency",))
        with pytest.raises(ValueError, match="sentence-initial|artifact"):
            encoding.train(encoding.freeze(sd.ground_truth.decoder, sd.dataset.subset(range(4)),
                                           sd.meta[:4]), fm, ("frequency",), epochs=1)

    def test_sources_decide_the_tuner(self, small_synth):
        sd, ds, meta = small_synth
        model, _, fm = quick_fit(sd, ds, meta, ("frequency", "static_embedding"), epochs=1)
        n_embed = sum(name.startswith("static_embedding.") for name in fm.names)
        assert n_embed > 0
        assert model.params["tuner.w1"].shape == (64, n_embed)
        assert model.params["interface.weights"].shape[2] == 64 + 1  # tuned block + frequency
        scalar, _, _ = quick_fit(sd, ds, meta, ("frequency", "surprisal"), epochs=1)
        assert not [name for name in scalar.params if name.startswith("tuner.")]

    @pytest.mark.parametrize("columns, sources, expected", [
        (("frequency",), ("surprisal",), ["surprisal"]),
        (("frequency", "surprisal"), ("surprisal", "frequency"), ["surprisal", "frequency"]),
        (("frequency",), ("frequency", "static_embedding"),
         ["frequency", "static_embedding.0"]),
        (("static_embedding",), ("contextual_embedding",), ["contextual_embedding.0"]),
    ], ids=["other_scalar", "other_order", "missing_embedding", "other_embedding"])
    def test_sources_not_matching_the_columns_rejected(self, small_synth, columns, sources,
                                                       expected):
        sd, ds, meta = small_synth
        fm = assemble_for(sd, meta, columns)
        frozen = encoding.freeze(sd.ground_truth.decoder, ds, meta)
        message = (f"feature columns {fm.names} are not the columns {expected} "
                   f"of sources {list(sources)}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            encoding.train(frozen, fm, sources, epochs=1)

    @pytest.mark.parametrize("schedule, message", [
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"lr": 0.0}, "lr must be finite and > 0, got 0.0"),
        ({"lr": np.nan}, "lr must be finite and > 0, got nan"),
        ({"weight_decay": -5.0}, "weight_decay must be finite and >= 0, got -5.0"),
        ({"weight_decay": np.inf}, "weight_decay must be finite and >= 0, got inf"),
    ], ids=["batch_size", "epochs", "lr_zero", "lr_nan", "wd_negative", "wd_inf"])
    def test_empty_training_schedule_rejected(self, small_synth, schedule, message):
        sd, ds, meta = small_synth
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quick_fit(sd, ds, meta, ("frequency",), **schedule)

    def test_decoder_mutated_after_freeze_rejected(self, small_synth):
        sd, ds, meta = small_synth
        decoder = copy.deepcopy(sd.ground_truth.decoder)
        frozen = encoding.freeze(decoder, ds, meta)
        decoder.tensors["dec0.bias"][0] += 1e-12
        fm = assemble_for(sd, meta, ("frequency",))
        with pytest.raises(RuntimeError, match="^frozen decoder was mutated after freeze$"):
            encoding.train(frozen, fm, ("frequency",), epochs=1)

    def test_subject_intercepts_route_through_decode(self, small_synth, rng):
        sd, ds, meta = small_synth
        spec = AutoencoderSpec("beta", True, 6, 30)
        decoder = init_params(spec, seed=7, subjects=("s00", "s01"))
        decoder.tensors["intercepts"][:] = rng.normal(size=(2, 6))
        fm = assemble_for(sd, meta, ("frequency",))
        model, _ = encoding.train(encoding.freeze(decoder, ds, meta), fm, ("frequency",),
                                  epochs=3, batch_size=32, lr=0.005, seed=1)
        subj = [m.subject_id for m in meta]
        preds = encoding.predict_erp(model, fm, subj)
        flipped = encoding.predict_erp(model, fm, ["s01"] * len(meta))
        first_s00 = next(i for i, m in enumerate(meta) if m.subject_id == "s00")
        assert np.any(preds[first_s00] != flipped[first_s00])
        with pytest.raises(ValueError, match="subject_ids required"):
            encoding.predict_erp(model, fm)
        with pytest.raises(ValueError, match="unknown subject_id"):
            encoding.predict_erp(model, fm, ["zz"] * len(meta))

    def test_composed_gradient_matches_finite_differences(self, rng, monkeypatch):
        # tuner -> interface -> frozen decoder on a tiny instance
        monkeypatch.setattr(encoding, "TUNER_WIDTH", 4)
        decoder = init_params(AutoencoderSpec("beta", False, 4, 20), seed=8)
        n_embed, n_scalar = 3, 1
        f = rng.normal(size=(2, 4))
        target = rng.normal(size=(2, 4, 20))
        embed_cols = np.arange(3)
        scalar_cols = np.array([3])
        params = encoding._init_trainable(np.random.default_rng(0), n_embed, n_scalar,
                                          decoder.plan.latent_channels,
                                          decoder.plan.latent_timepoints)

        def loss_for(name):
            def fn(x):
                trial = {k: (x if k == name else v) for k, v in params.items()}
                z, ctxs = encoding._forward(trial, f, embed_cols, scalar_cols)
                y, dec_ctxs = _decoder_forward(decoder, z)
                loss, gl = nn.mse_loss(y, time_major(target))
                gz, _ = _stack_backward(dec_ctxs, gl)
                grads = encoding._backward(trial, gz, ctxs)
                return loss, grads[name]
            return fn

        for name in params:
            err = nn.finite_difference_check(loss_for(name), params[name].copy())
            assert err < 1e-4, f"{name}: rel err {err}"


def paper_geometry_set(rng, arch, intercepts, n=150):
    """A random decoder at 32x200 (random intercepts if enabled) and n random epochs."""
    subjects = ("s0", "s1", "s2")
    decoder = init_params(AutoencoderSpec(arch, intercepts, 32, 200), seed=4,
                          subjects=subjects if intercepts else None)
    if intercepts:
        decoder.tensors["intercepts"][:] = rng.normal(size=(3, 32))
    meta = [TrialMeta(subjects[i % 3], i, 2, "w", "content", "NN", False) for i in range(n)]
    dataset = ErpDataset(rng.normal(size=(n, 32, 200)), 250.0, -100.0, 700.0)
    return decoder, dataset, meta


GRAM_SETTINGS = [("alpha", False), ("alpha", True), ("beta", False), ("beta", True)]
GRAM_IDS = ["alpha", "alpha-intercepts", "beta", "beta-intercepts"]


class TestGramReadout:
    """The Gram-form output layer against the full decoder's time-major transposed
    convolution, intercepts, mse_loss and backward pass."""

    @pytest.mark.parametrize("arch, intercepts", GRAM_SETTINGS, ids=GRAM_IDS)
    def test_loss_and_gradient_match_full_decoder(self, rng, arch, intercepts):
        decoder, ds, meta = paper_geometry_set(rng, arch, intercepts)
        frozen = encoding.freeze(decoder, ds, meta)  # 150 trials: a ragged pass
        plan = decoder.plan
        last = len(plan.decoder) - 1
        step = plan.decoder[last]
        z = rng.normal(size=(ds.n_trials, plan.latent_channels, plan.latent_timepoints))
        h_tm, _ = frozen.hidden(time_major(z))
        order = rng.permutation(ds.n_trials)
        for rows in (order[:64], order[64:128], order[128:]):  # the last batch is ragged
            loss, grad = frozen.mse(h_tm[:, :, rows], rows)
            y, ctx = nn.convtranspose1d_time_major_forward(
                h_tm[:, :, rows], decoder.tensors[f"dec{last}.kernels"],
                decoder.tensors[f"dec{last}.bias"], step.stride, step.padding)
            if intercepts:
                y = y + decoder.tensors["intercepts"][rows % 3].T  # (C, N) columns
            full_loss, grad_y = nn.mse_loss(y, time_major(ds.data[rows]))
            full_grad = nn.convtranspose1d_time_major_backward(ctx, grad_y)
            assert loss == pytest.approx(full_loss, rel=1e-12, abs=0)
            assert np.abs(grad - full_grad.input_grad).max() <= \
                1e-12 * np.abs(full_grad.input_grad).max()

    @pytest.mark.parametrize("arch", ["alpha", "beta"])
    def test_mse_is_the_gram_formula_bit_for_bit(self, rng, arch):
        # loss (hᵀ(Gh - 2r) + c)/n and gradient (2/n)(Gh - r), with r read as one
        # transposed view of the gathered rows; batches on both sides of the
        # CHUNK_ROWS (32) edge, which a blocked gather of r would cross
        decoder, ds, meta = paper_geometry_set(rng, arch, False)
        frozen = encoding.freeze(decoder, ds, meta)
        for size in (1, 31, 32, 33, 34, 67, 128):
            rows = rng.permutation(ds.n_trials)[:size]
            h = rng.normal(size=frozen.r.shape[1:] + (len(rows),))
            loss, grad = frozen.mse(h, rows)
            gh = nn.gram_band_matmul(frozen.band, h)
            r = frozen.r[rows].transpose(1, 2, 0)
            n = len(rows) * frozen.n_out
            assert loss == float((np.vdot(h, np.ascontiguousarray(r * -2.0 + gh))
                                  + frozen.c[rows].sum()) / n)
            np.testing.assert_array_equal(grad, (gh - r) * (2.0 / n))

    @pytest.mark.parametrize("arch, intercepts", GRAM_SETTINGS, ids=GRAM_IDS)
    def test_dense_gram_is_zero_outside_kept_band(self, rng, arch, intercepts):
        decoder, ds, meta = paper_geometry_set(rng, arch, intercepts, n=4)
        frozen = encoding.freeze(decoder, ds, meta)
        last = len(decoder.plan.decoder) - 1
        step = decoder.plan.decoder[last]
        kernels = decoder.tensors[f"dec{last}.kernels"]
        c_hid = kernels.shape[0]
        t_hid = frozen.r.shape[1]
        w = nn.gram_bandwidth(step.kernel, step.stride)
        assert w == 1
        assert frozen.band.shape == (t_hid, c_hid, 3 * c_hid)  # no dense (H, H) matrix
        cols, _ = nn.convtranspose1d_time_major_forward(
            time_major(np.eye(c_hid * t_hid).reshape(-1, c_hid, t_hid)), kernels,
            np.zeros(kernels.shape[1]), step.stride, step.padding)
        a = time_major(cols).reshape(c_hid * t_hid, -1).T
        gram = (a.T @ a).reshape(c_hid, t_hid, c_hid, t_hid).transpose(1, 3, 0, 2)
        t = np.arange(t_hid)
        assert not np.any(gram[np.abs(t[:, None] - t[None, :]) > w])
        kept = frozen.band.reshape(t_hid, c_hid, 3, c_hid)
        for d in range(3):
            tt = t[(t + d - 1 >= 0) & (t + d - 1 < t_hid)]
            np.testing.assert_allclose(kept[tt, :, d, :], gram[tt, tt + d - 1],
                                       rtol=0, atol=1e-12 * np.abs(gram).max())

    @pytest.mark.parametrize("arch, intercepts", GRAM_SETTINGS, ids=GRAM_IDS)
    def test_model_mse_matches_full_decoder(self, rng, arch, intercepts):
        decoder, ds, meta = paper_geometry_set(rng, arch, intercepts)
        fm = features.FeatureMatrix(rng.normal(size=(ds.n_trials, 1)), ["frequency"])
        frozen = encoding.freeze(decoder, ds, meta)
        model, _ = encoding.train(frozen, fm, ("frequency",), epochs=2, batch_size=32, lr=0.01,
                                  seed=2)
        subj = np.array([m.subject_id for m in meta])
        full, _ = nn.mse_loss(
            encoding.predict_erp(model, fm, list(subj) if intercepts else None), ds.data)
        rows = np.arange(5, 140)
        full_rows, _ = nn.mse_loss(
            encoding.predict_erp(model, feature_rows(fm, rows),
                                 list(subj[rows]) if intercepts else None),
            ds.data[rows])
        assert encoding.model_mse(model, frozen, fm) == pytest.approx(full, rel=1e-12, abs=0)
        assert encoding.model_mse(model, frozen, fm, rows=rows) == \
            pytest.approx(full_rows, rel=1e-12, abs=0)

    @pytest.mark.parametrize("arch, intercepts", GRAM_SETTINGS, ids=GRAM_IDS)
    def test_model_mse_in_chunks_matches_one_pass(self, rng, arch, intercepts, monkeypatch):
        # chunks of CHUNK_ROWS trials summed in chunk order against one Gram-form
        # pass over all the trials; the same bits on one worker or three
        decoder, ds, meta = paper_geometry_set(rng, arch, intercepts)
        fm = features.FeatureMatrix(rng.normal(size=(ds.n_trials, 1)), ["frequency"])
        frozen = encoding.freeze(decoder, ds, meta)
        model, _ = encoding.train(frozen, fm, ("frequency",), epochs=2, batch_size=32, lr=0.01,
                                  seed=2)
        rows = rng.permutation(ds.n_trials)[:101]
        for idx in (np.arange(ds.n_trials), rows):
            one_pass, _ = frozen.mse(
                frozen.hidden(encoding._latents(model, feature_rows(fm, idx)))[0], idx)
            chunked = []
            for n in (1, 3):
                monkeypatch.setattr(autoencoder, "_worker_count",
                                    lambda n_jobs, n=n: min(n, n_jobs))
                chunked.append(encoding.model_mse(model, frozen, fm, rows=idx))
            assert chunked[0] == chunked[1]
            assert chunked[0] == pytest.approx(one_pass, rel=1e-12, abs=0)

    @pytest.mark.parametrize("arch", ["alpha", "beta"])
    def test_near_noiseless_cancellation_error_bounded(self, arch):
        # hᵀGh - 2hᵀr + c cancels to the residual, so the absolute error scales
        # with the mean squared epoch value c/n_out, not with the residual; at
        # noise_sd 1e-6 it measured at most 2 eps c/n_out (4 seeds, both
        # architectures), a relative error up to ~6e-6 of the 1e-12 residual
        config = synth.SynthConfig(n_subjects=2, n_sentences=8, words_per_sentence=5,
                                   architecture=arch, noise_sd=1e-6, seed=1)
        sd = synth.generate(config)
        decoder, ds = sd.ground_truth.decoder, sd.dataset
        frozen = encoding.freeze(decoder, ds, sd.meta)
        rows = np.arange(ds.n_trials)
        loss, _ = frozen.mse(frozen.hidden(time_major(sd.ground_truth.latents))[0], rows)
        full, _ = nn.mse_loss(decode(decoder, sd.ground_truth.latents), ds.data)
        assert full == pytest.approx(1e-12, rel=0.05)
        scale = frozen.c.mean() / frozen.n_out
        assert abs(loss - full) <= 8 * np.finfo(float).eps * scale

    def test_training_gradient_matches_finite_differences(self, rng, monkeypatch):
        # tuner -> interface -> hidden decoder layers -> Gram-form MSE, as train runs it
        monkeypatch.setattr(encoding, "TUNER_WIDTH", 4)
        decoder = init_params(AutoencoderSpec("beta", False, 4, 20), seed=8)
        f = rng.normal(size=(3, 4))
        meta = [TrialMeta("s0", i, 2, "w", "content", "NN", False) for i in range(3)]
        frozen = encoding.freeze(
            decoder, ErpDataset(rng.normal(size=(3, 4, 20)), 250.0, -100.0, -20.0), meta)
        params = encoding._init_trainable(np.random.default_rng(0), 3, 1,
                                          decoder.plan.latent_channels,
                                          decoder.plan.latent_timepoints)
        rows = np.arange(3)

        def loss_for(name):
            def fn(x):
                trial = {k: (x if k == name else v) for k, v in params.items()}
                z, ctxs = encoding._forward(trial, f, np.arange(3), np.array([3]))
                h, hidden_ctxs = frozen.hidden(z)
                loss, grad_h = frozen.mse(h, rows)
                gz, _ = _stack_backward(hidden_ctxs, grad_h)
                return loss, encoding._backward(trial, gz, ctxs)[name]
            return fn

        for name in params:
            err = nn.finite_difference_check(loss_for(name), params[name].copy())
            assert err < 1e-4, f"{name}: rel err {err}"

    def test_model_of_another_decoder_rejected(self, small_synth):
        sd, ds, meta = small_synth
        model, _, fm = quick_fit(sd, ds, meta, ("frequency",), epochs=1)
        other = init_params(AutoencoderSpec("beta", False, 6, 30), seed=12345)
        with pytest.raises(ValueError, match="^model fit against decoder .*, not the frozen "):
            encoding.model_mse(model, encoding.freeze(other, ds, meta), fm)

    @pytest.mark.parametrize("arch", ["alpha", "beta"])
    def test_freeze_without_meta(self, rng, arch):
        # a decoder without intercepts needs no trial records, and gets the same
        # bits; training still needs them, to check the trials are filtered
        decoder, ds, meta = paper_geometry_set(rng, arch, False, n=40)
        with_meta, without = encoding.freeze(decoder, ds, meta), encoding.freeze(decoder, ds)
        assert without.meta is None and encoding.freeze(decoder, ds, rows=[3, 1]).meta is None
        np.testing.assert_array_equal(without.r, with_meta.r)
        np.testing.assert_array_equal(without.c, with_meta.c)
        fm = features.FeatureMatrix(rng.normal(size=(ds.n_trials, 1)), ["frequency"])
        with pytest.raises(ValueError, match="training needs the trials' meta records"):
            encoding.train(without, fm, ("frequency",), epochs=1)

    @pytest.mark.parametrize("arch", ["alpha", "beta"])
    def test_decoder_with_intercepts_needs_meta(self, rng, arch):
        decoder, ds, _ = paper_geometry_set(rng, arch, True, n=4)
        with pytest.raises(ValueError, match="decoder has intercepts enabled; meta records"):
            encoding.freeze(decoder, ds)

    def test_geometry_mismatch_rejected(self, small_synth):
        sd, ds, meta = small_synth
        other = init_params(AutoencoderSpec("beta", False, 6, 40), seed=1)
        with pytest.raises(ValueError, match="decoder geometry 6x40 != dataset 6x30"):
            encoding.freeze(other, ds, meta)


class TestWeightDecaySearch:
    def test_default_grid_and_folds(self):
        # the documented protocol: grid {1e-5, 1e-3, 1e-1}, 5 folds
        assert encoding.WEIGHT_DECAY_GRID == (1e-5, 1e-3, 1e-1)
        import inspect

        sig = inspect.signature(encoding.weight_decay_search)
        assert sig.parameters["k"].default == 5

    def test_single_element_grid_trivial(self, small_synth, monkeypatch):
        sd, ds, meta = small_synth
        fm = assemble_for(sd, meta, ("frequency",))
        monkeypatch.setattr(encoding, "WEIGHT_DECAY_GRID", (1e-3,))
        chosen, table = encoding.weight_decay_search(
            encoding.freeze(sd.ground_truth.decoder, ds, meta), fm, ("frequency",),
            k=2, seed=1, epochs=3, lr=0.005)
        assert chosen == 1e-3
        assert len(table) == 2

    def test_noiseless_data_prefers_least_shrinkage(self):
        config = synth.SynthConfig(
            n_subjects=2, n_sentences=30, words_per_sentence=4,
            n_channels=6, n_timepoints=30, architecture="beta",
            noise_sd=1e-4, driving=("frequency",), seed=3)
        sd = synth.generate(config)
        ds, meta = filter_artifacts(sd.dataset, sd.meta, include_first_word=False)
        fm = assemble_for(sd, meta, ("frequency",))
        chosen, table = encoding.weight_decay_search(
            encoding.freeze(sd.ground_truth.decoder, ds, meta), fm, ("frequency",),
            k=3, seed=2, epochs=40, lr=0.005)
        assert chosen == 1e-5
        assert len(table) == 3 * 3  # |grid| x k

    def test_deterministic(self, small_synth):
        sd, ds, meta = small_synth
        fm = assemble_for(sd, meta, ("frequency",))
        frozen = encoding.freeze(sd.ground_truth.decoder, ds, meta)
        a = encoding.weight_decay_search(frozen, fm, ("frequency",), k=2, seed=4, epochs=3,
                                         lr=0.005)
        b = encoding.weight_decay_search(frozen, fm, ("frequency",), k=2, seed=4, epochs=3,
                                         lr=0.005)
        assert a == b

    @pytest.mark.parametrize("setting, message", [
        ({"lr": 0.0}, "lr must be finite and > 0, got 0.0"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
    ], ids=["lr", "batch_size"])
    def test_bad_schedule_rejected_before_any_fit(self, small_synth, monkeypatch, setting,
                                                  message):
        sd, ds, meta = small_synth
        fm = assemble_for(sd, meta, ("frequency",))
        frozen = encoding.freeze(sd.ground_truth.decoder, ds, meta)
        fits = []
        monkeypatch.setattr(encoding, "train", lambda *a, **kw: fits.append(a))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            encoding.weight_decay_search(frozen, fm, ("frequency",), k=2, epochs=2, **setting)
        assert fits == []

    def test_tie_breaks_to_smaller_weight_decay(self):
        # 1e-3 and 1e-5 tie on the mean; the larger 1e-1 is worse
        per_wd = [[2.0, 2.5], [1.0, 3.0], [3.0, 1.0]]
        chosen, table, mses = encoding._grid_search((1e-1, 1e-3, 1e-5), per_wd)
        assert chosen == 1e-5
        assert mses == [3.0, 1.0]
        assert table[:2] == [{"weight_decay": 1e-1, "fold": 0, "mse": 2.0},
                             {"weight_decay": 1e-1, "fold": 1, "mse": 2.5}]
        assert len(table) == 6


class TestSuite:
    def test_roster_of_one(self, small_synth):
        sd, ds, meta = small_synth
        result = encoding.run_model_suite(
            sd.ground_truth.decoder, ds, meta, [("frequency", ("frequency",))],
            counts_table=sd.counts, token_features=sd.token_features,
            embeddings=sd.embeddings, sentence_tokens=sd.sentence_tokens,
            k=2, seed=1, wd_grid=(1e-5,), epochs=5, lr=0.005, n_boot=200,
            ceiling_mse=sd.ground_truth.mse_floor)
        assert list(result["entries"]) == ["frequency"]
        report = result["entries"]["frequency"]["report"]
        assert report.fold_digest == result["fold_digest"]

    def test_empty_grid_rejected_before_any_fit(self, small_synth, monkeypatch):
        sd, ds, meta = small_synth
        fits = []
        monkeypatch.setattr(encoding, "train", lambda *a, **kw: fits.append(a))
        with pytest.raises(ValueError, match="^weight decay grid is empty$"):
            encoding.run_model_suite(
                sd.ground_truth.decoder, ds, meta, [("frequency", ("frequency",))],
                counts_table=sd.counts, k=2, seed=1, wd_grid=(),
                epochs=2, ceiling_mse=sd.ground_truth.mse_floor)
        assert fits == []

    @pytest.mark.parametrize("setting, message", [
        ({"wd_grid": (1e-5, -1.0)}, "weight_decay must be finite and >= 0, got -1.0"),
        ({"lr": 0.0}, "lr must be finite and > 0, got 0.0"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
    ], ids=["decay", "lr", "epochs"])
    def test_bad_schedule_rejected_before_freezing(self, small_synth, monkeypatch, setting,
                                                   message):
        # a negative decay used to freeze the decoder and run the intercept
        # anchor's fits before the first fit at that decay refused it
        sd, ds, meta = small_synth
        calls = []
        monkeypatch.setattr(encoding, "freeze", lambda *a, **kw: calls.append("freeze"))
        monkeypatch.setattr(encoding, "train", lambda *a, **kw: calls.append("train"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            encoding.run_model_suite(
                sd.ground_truth.decoder, ds, meta, [("frequency", ("frequency",))],
                counts_table=sd.counts, k=2, seed=1,
                **{"wd_grid": (1e-5,), "epochs": 2, **setting},
                ceiling_mse=sd.ground_truth.mse_floor)
        assert calls == []

    def test_repeated_entry_name_rejected_before_any_fit(self, small_synth, monkeypatch):
        # two entries named "x" used to run both, and the second replaced the first
        sd, ds, meta = small_synth
        fits = []
        monkeypatch.setattr(encoding, "train", lambda *a, **kw: fits.append(a))
        with pytest.raises(ValueError, match=r"^suite roster repeats entry names \['x'\]$"):
            encoding.run_model_suite(
                sd.ground_truth.decoder, ds, meta,
                [("x", ("constant",)), ("frequency", ("frequency",)), ("x", ("frequency",))],
                counts_table=sd.counts, k=2, seed=1, wd_grid=(1e-5,), epochs=2,
                ceiling_mse=sd.ground_truth.mse_floor)
        assert fits == []

    @pytest.mark.parametrize("sources, message", [
        (("frequncy",), "unknown feature sources ['frequncy']"),
        ((), "feature spec needs at least one source"),
        (("frequency", "frequency"), "duplicate sources"),
        (("constant", "frequency"), "constant is mutually exclusive with all other sources"),
    ], ids=["unknown", "empty", "repeated", "constant_and_other"])
    def test_bad_entry_sources_rejected_before_any_fit(self, small_synth, monkeypatch,
                                                       sources, message):
        # such an entry used to be skipped with a warning, as a missing table is
        sd, ds, meta = small_synth
        fits = []
        monkeypatch.setattr(encoding, "train", lambda *a, **kw: fits.append(a))
        with pytest.raises(ValueError, match=re.escape(f"suite roster entry 'bad': {message}")):
            encoding.run_model_suite(
                sd.ground_truth.decoder, ds, meta,
                [("intercept", ("constant",)), ("bad", sources)],
                counts_table=sd.counts, k=2, seed=1, wd_grid=(1e-5,), epochs=2,
                ceiling_mse=sd.ground_truth.mse_floor)
        assert fits == []

    @pytest.mark.parametrize("ceiling", [-5.0, float("nan"), float("inf")])
    def test_bad_ceiling_rejected_before_freezing(self, small_synth, monkeypatch, ceiling):
        # a negative ceiling used to run, and gave every entry an r2_mod near 0
        sd, ds, meta = small_synth

        def no_freeze(*args, **kwargs):
            raise AssertionError("the suite froze its decoder")

        monkeypatch.setattr(encoding, "freeze", no_freeze)
        with pytest.raises(ValueError, match=re.escape(
                f"ceiling_mse must be finite and >= 0, got {ceiling}")):
            encoding.run_model_suite(
                sd.ground_truth.decoder, ds, meta, [("frequency", ("frequency",))],
                counts_table=sd.counts, k=2, seed=1, wd_grid=(1e-5,), epochs=2,
                ceiling_mse=ceiling)

    def test_standard_roster_has_nine_entries(self):
        roster = encoding.standard_roster()
        assert len(roster) == 9
        assert roster[0] == ("intercept", ("constant",))

    def test_shared_folds_and_missing_source_skipped(self, small_synth):
        sd, ds, meta = small_synth
        roster = [
            ("intercept", ("constant",)),
            ("frequency", ("frequency",)),
            ("freq+static", ("frequency", "static_embedding")),
        ]
        with pytest.warns(UserWarning, match="skipped"):
            result = encoding.run_model_suite(
                sd.ground_truth.decoder, ds, meta, roster,
                counts_table=sd.counts, token_features=sd.token_features,
                embeddings=None,  # static_embedding becomes unassemblable
                sentence_tokens=sd.sentence_tokens,
                k=2, seed=1, wd_grid=(1e-5,), epochs=5, lr=0.005, n_boot=200,
                ceiling_mse=sd.ground_truth.mse_floor)
        assert [s["name"] for s in result["skipped"]] == ["freq+static"]
        digests = {e["report"].fold_digest for e in result["entries"].values()}
        assert digests == {result["fold_digest"]}
        assert result["entries"]["intercept"]["report"].r2_mod == pytest.approx(0.0)

    @staticmethod
    def run_standard_roster(sd, ds, meta, monkeypatch, embeddings):
        """The standard roster's suite, with the feature matrices of its fits and
        the ``semantic_distance`` calls it made."""
        calls, fitted = [], []
        distance, fold_mses = features.semantic_distance, encoding._fold_mses
        monkeypatch.setattr(features, "semantic_distance",
                            lambda *a, **kw: calls.append(a) or distance(*a, **kw))
        monkeypatch.setattr(encoding, "_fold_mses",
                            lambda frozen, folds, groups, **kw:
                            fitted.extend(groups) or fold_mses(frozen, folds, groups, **kw))
        result = encoding.run_model_suite(
            sd.ground_truth.decoder, ds, meta, encoding.standard_roster(),
            counts_table=sd.counts, token_features=sd.token_features, embeddings=embeddings,
            sentence_tokens=sd.sentence_tokens, k=2, seed=1, wd_grid=(1e-5,), epochs=1,
            lr=0.005, n_boot=200, ceiling_mse=sd.ground_truth.mse_floor)
        return result, fitted, calls

    def test_each_source_block_built_once(self, small_synth, monkeypatch):
        # semantic_distance is in four entries of the standard roster
        sd, ds, meta = small_synth
        result, fitted, calls = self.run_standard_roster(sd, ds, meta, monkeypatch,
                                                         sd.embeddings)
        assert len(calls) == 1
        assert list(result["entries"]) == [name for name, _ in encoding.standard_roster()]
        assert len(fitted) == 9  # the intercept anchor and one group per other entry
        for fm, sources, _, _ in fitted:
            expected = assemble_for(sd, meta, sources)
            assert fm.names == expected.names
            np.testing.assert_array_equal(fm.values, expected.values)

    def test_failing_source_skips_every_entry_listing_it(self, small_synth, monkeypatch):
        # without embeddings, semantic_distance and static_embedding fail; each
        # entry is skipped with the error features.assemble gives for it
        sd, ds, meta = small_synth
        expected = []
        for name, sources in encoding.standard_roster():
            try:
                features.assemble(features.FeatureSpec(sources), meta, counts_table=sd.counts,
                                  token_features=sd.token_features, embeddings=None,
                                  sentence_tokens=sd.sentence_tokens)
            except ValueError as e:
                expected.append({"name": name, "reason": str(e)})
        assert len(expected) == 5
        with pytest.warns(UserWarning) as warned:
            result, _, calls = self.run_standard_roster(sd, ds, meta, monkeypatch, None)
        assert result["skipped"] == expected
        assert [str(w.message) for w in warned] == [
            f"suite entry {s['name']!r} skipped: {s['reason']}" for s in expected]
        assert calls == []
        assert len(result["entries"]) == 4

    def test_suite_runs_wd_search_when_unpinned(self, small_synth):
        sd, ds, meta = small_synth
        result = encoding.run_model_suite(
            sd.ground_truth.decoder, ds, meta, [("frequency", ("frequency",))],
            counts_table=sd.counts, token_features=sd.token_features,
            embeddings=sd.embeddings, sentence_tokens=sd.sentence_tokens,
            k=2, seed=1, epochs=3, lr=0.005, n_boot=200,
            ceiling_mse=sd.ground_truth.mse_floor)
        entry = result["entries"]["frequency"]
        assert entry["weight_decay"] in encoding.WEIGHT_DECAY_GRID
        assert len(entry["wd_table"]) == 3 * 2  # |grid| x k

    def test_combined_model_beats_single_sources(self, small_synth):
        sd, ds, meta = small_synth
        roster = [
            ("freq", ("frequency",)),
            ("surp", ("surprisal",)),
            ("freq+surp", ("frequency", "surprisal")),
        ]
        result = encoding.run_model_suite(
            sd.ground_truth.decoder, ds, meta, roster,
            counts_table=sd.counts, token_features=sd.token_features,
            embeddings=sd.embeddings, sentence_tokens=sd.sentence_tokens,
            k=3, seed=1, wd_grid=(1e-5,), epochs=80, batch_size=32, lr=0.005,
            n_boot=500, ceiling_mse=sd.ground_truth.mse_floor)
        r2 = {name: e["report"].r2_mod for name, e in result["entries"].items()}
        assert r2["freq+surp"] > r2["freq"]
        assert r2["freq+surp"] > r2["surp"]


class TestParallelFits:
    """The fits of a search or suite give the same bits on one thread or three."""

    @staticmethod
    def with_workers(monkeypatch, n, fn, *args, **kwargs):
        # threads switch as often as the interpreter allows, so that a write
        # to shared state would show in the results
        monkeypatch.setattr(autoencoder, "_worker_count", lambda n_jobs: min(n, n_jobs))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def suite_json(result) -> str:
        return json.dumps({name: {**e, "report": e["report"].to_json_dict()}
                           for name, e in result["entries"].items()})

    @pytest.mark.parametrize("weight_decay", [None, 1e-3])
    def test_suite_identical_serial_and_parallel(self, small_synth, monkeypatch,
                                                 weight_decay):
        sd, ds, meta = small_synth
        roster = [("intercept", ("constant",)), ("frequency", ("frequency",)),
                  ("freq+surp", ("frequency", "surprisal"))]
        runs = [self.with_workers(
            monkeypatch, n, encoding.run_model_suite, sd.ground_truth.decoder, ds, meta,
            roster, counts_table=sd.counts, token_features=sd.token_features,
            embeddings=sd.embeddings, sentence_tokens=sd.sentence_tokens, k=3, seed=2,
            wd_grid=encoding.WEIGHT_DECAY_GRID if weight_decay is None else (weight_decay,),
            epochs=4, batch_size=32, lr=0.005, n_boot=200,
            ceiling_mse=sd.ground_truth.mse_floor) for n in (1, 3)]
        serial, parallel = (self.suite_json(r) for r in runs)
        assert serial == parallel
        # a fixed weight decay is a one-value grid: every entry but the intercept has a table
        assert sum(e["wd_table"] is not None for e in runs[1]["entries"].values()) == 2

    def test_weight_decay_search_identical_serial_and_parallel(self, small_synth,
                                                               monkeypatch):
        sd, ds, meta = small_synth
        fm = assemble_for(sd, meta, ("frequency", "surprisal"))
        serial, parallel = (self.with_workers(
            monkeypatch, n, encoding.weight_decay_search,
            encoding.freeze(sd.ground_truth.decoder, ds, meta), fm, ("frequency", "surprisal"),
            k=3, seed=4, epochs=4, batch_size=32, lr=0.005)
            for n in (1, 3))
        assert json.dumps(serial) == json.dumps(parallel)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_raises_the_serial_runs_error(self, small_synth, monkeypatch):
        sd, ds, meta = small_synth
        fm = assemble_for(sd, meta, ("frequency",))
        messages = []
        for n in (1, 3):
            with pytest.raises(RuntimeError, match="training loss diverged") as err:
                self.with_workers(monkeypatch, n, encoding.weight_decay_search,
                                  encoding.freeze(sd.ground_truth.decoder, ds, meta), fm,
                                  ("frequency",), k=3, seed=4, epochs=3, batch_size=32,
                                  lr=1e200)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def assert_same_fit(got, want):
    """Two (EncodingModel, TrainHistory) fits with the same bits."""
    (model, history), (other, other_history) = got, want
    assert list(model.params) == list(other.params)
    for name, tensor in other.params.items():
        assert model.params[name].tobytes() == tensor.tobytes(), name
    assert model.standardizer.mean.tobytes() == other.standardizer.mean.tobytes()
    assert model.standardizer.scale.tobytes() == other.standardizer.scale.tobytes()
    assert history == other_history


class TestFitOnRows:
    """Freezing and fitting on rows read in place give the bits of copies of
    those rows."""

    @pytest.mark.parametrize("arch, intercepts", GRAM_SETTINGS, ids=GRAM_IDS)
    def test_freeze_on_rows_equals_freeze_of_subset(self, rng, arch, intercepts):
        # 70 of 150 trials, unsorted and with a repeat: three chunks, one ragged
        decoder, ds, meta = paper_geometry_set(rng, arch, intercepts)
        idx = np.concatenate([rng.permutation(150)[:69], [5]])
        frozen = encoding.freeze(decoder, ds, meta, rows=idx)
        subset = encoding.freeze(decoder, ds.subset(idx), [meta[i] for i in idx])
        assert frozen.r.tobytes() == subset.r.tobytes()
        assert frozen.c.tobytes() == subset.c.tobytes()
        assert frozen.band.tobytes() == subset.band.tobytes()
        assert frozen.meta == subset.meta and frozen.digest == subset.digest

    @pytest.mark.parametrize("sources", [("frequency", "surprisal"),
                                         ("frequency", "static_embedding")],
                             ids=["scalar", "tuner"])
    @pytest.mark.parametrize("intercepts", [False, True], ids=["plain", "intercepts"])
    def test_train_on_rows_equals_train_on_copies(self, small_synth, sources, intercepts):
        sd, ds, meta = small_synth
        decoder = sd.ground_truth.decoder
        if intercepts:
            subjects = tuple(sorted({m.subject_id for m in meta}))
            decoder = init_params(dataclasses.replace(decoder.spec, intercepts=True), seed=3,
                                  subjects=subjects)
            decoder.tensors.update(sd.ground_truth.decoder.tensors)
            decoder.tensors["intercepts"] = np.random.default_rng(1).normal(
                size=(len(subjects), ds.n_channels))
        fm = assemble_for(sd, meta, sources)
        frozen = encoding.freeze(decoder, ds, meta)
        tr = kfold_split(ds.n_trials, 3, seed=2).train_indices(1)
        kw = dict(epochs=3, batch_size=32, lr=0.005, weight_decay=1e-3, seed=9)
        copies = dataclasses.replace(frozen, r=frozen.r[tr], c=frozen.c[tr],
                                     meta=[frozen.meta[i] for i in tr])
        assert_same_fit(encoding.train(frozen, fm, sources, rows=tr, **kw),
                        encoding.train(copies, feature_rows(fm, tr), sources, **kw))

    def test_filter_check_reads_the_rows_alone(self, small_synth):
        # a sentence-initial trial outside rows does not stop the fit
        sd, _, _ = small_synth
        clean = np.flatnonzero(keep_mask(sd.meta, include_first_word=False))
        first = next(i for i, m in enumerate(sd.meta) if m.word_position == 1)
        frozen = encoding.freeze(sd.ground_truth.decoder, sd.dataset, sd.meta)
        fm = assemble_for(sd, sd.meta, ("frequency",))
        encoding.train(frozen, fm, ("frequency",), rows=clean, epochs=1)
        with pytest.raises(ValueError, match="exclude sentence-initial words"):
            encoding.train(frozen, fm, ("frequency",), rows=[*clean, first], epochs=1)

    @pytest.mark.parametrize("rows, message", [
        ([], "rows must be a non-empty 1-D list of trial indices"),
        (np.zeros((2, 2), dtype=int), "rows must be a non-empty 1-D list of trial indices"),
        ([0, 10**6], "rows must be trial indices in range"),
        ([-1, 3], "rows must be trial indices in range"),
        ([0.0, 1.0], "rows must be trial indices in range"),
    ], ids=["empty", "2d", "above", "negative", "float"])
    def test_bad_rows_rejected_before_any_step(self, small_synth, monkeypatch, rows, message):
        sd, ds, meta = small_synth
        frozen = encoding.freeze(sd.ground_truth.decoder, ds, meta)
        fm = assemble_for(sd, meta, ("frequency",))
        monkeypatch.setattr(nn, "adam_step", lambda *a, **kw: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            encoding.train(frozen, fm, ("frequency",), rows=rows, epochs=1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            encoding.freeze(sd.ground_truth.decoder, ds, meta, rows=rows)

    @pytest.mark.parametrize("order", ["sorted", "unsorted", "repeated"])
    @pytest.mark.parametrize("intercepts", [False, True], ids=["plain", "intercepts"])
    def test_model_mse_on_rows_equals_model_mse_of_copies(self, rng, order, intercepts):
        # 70 of 150 trials at 32x200: three chunks, one ragged
        decoder, ds, meta = paper_geometry_set(rng, "beta", intercepts)
        fm = features.FeatureMatrix(rng.normal(size=(ds.n_trials, 2)), ["frequency", "surprisal"])
        frozen = encoding.freeze(decoder, ds, meta)
        model, _ = encoding.train(frozen, fm, ("frequency", "surprisal"), epochs=1,
                                  batch_size=32, lr=0.01, seed=2)
        idx = sample_rows(rng, ds.n_trials, 70, order)
        copies = encoding.freeze(decoder, ds.subset(idx), [meta[i] for i in idx])
        assert encoding.model_mse(model, frozen, fm, rows=idx) == \
            encoding.model_mse(model, copies, feature_rows(fm, idx))

    @pytest.mark.parametrize("rows, message", bad_rows(40))
    def test_bad_rows_rejected_by_model_mse_and_fit_standardizer(self, rng, rows, message):
        decoder, ds, meta = paper_geometry_set(rng, "beta", False, n=40)
        fm = features.FeatureMatrix(rng.normal(size=(40, 1)), ["frequency"])
        frozen = encoding.freeze(decoder, ds, meta)
        model, _ = encoding.train(frozen, fm, ("frequency",), epochs=1, seed=2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            encoding.model_mse(model, frozen, fm, rows=rows)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            features.fit_standardizer(fm, rows)


class TestCheckpoint:
    def test_round_trip_predictions_identical(self, small_synth, tmp_path):
        sd, ds, meta = small_synth
        model, _, fm = quick_fit(sd, ds, meta, ("frequency", "static_embedding"),
                                 epochs=4)
        encoding.save_encoding_model(tmp_path / "m", model)
        loaded = encoding.load_encoding_model(tmp_path / "m", sd.ground_truth.decoder)
        np.testing.assert_array_equal(
            encoding.predict_erp(loaded, fm), encoding.predict_erp(model, fm))
        assert loaded.sources == model.sources
        assert list(loaded.params) == list(model.params)

    def test_tensor_order_interface_tuner_standardizer(self, small_synth, tmp_path):
        sd, ds, meta = small_synth
        model, _, _ = quick_fit(sd, ds, meta, ("frequency", "static_embedding"), epochs=2)
        assert "tuner.w1" in model.params
        encoding.save_encoding_model(tmp_path / "m", model)
        manifest = json.loads((tmp_path / "m.ckpt.json").read_text())
        assert [t["name"] for t in manifest["tensors"]] == [
            "interface.weights", "interface.bias", "tuner.w1", "tuner.b1", "tuner.w2",
            "tuner.b2", "standardizer.mean", "standardizer.scale"]
        loaded = encoding.load_encoding_model(tmp_path / "m", sd.ground_truth.decoder)
        encoding.save_encoding_model(tmp_path / "again", loaded)
        for suffix in (".ckpt.json", ".ckpt.bin"):
            assert ((tmp_path / f"again{suffix}").read_bytes()
                    == (tmp_path / f"m{suffix}").read_bytes())

    @pytest.mark.parametrize("sources", [("constant",), ("frequency", "static_embedding")],
                             ids=["no_tuner", "tuner"])
    def test_checkpoint_with_the_dropped_meta_keys_loads(self, small_synth, tmp_path, sources):
        # earlier writers also stored the decoder's spec, a "frozen" flag and a
        # tuner record, none of which a reader needs; their checkpoints still load
        sd, ds, meta = small_synth
        model, _, _ = quick_fit(sd, ds, meta, sources, epochs=2)
        encoding.save_encoding_model(tmp_path / "m", model)
        path = tmp_path / "m.ckpt.json"
        manifest = json.loads(path.read_text())
        assert sorted(manifest["meta"]) == [
            "decoder_digest", "feature_names", "sources", "weight_decay"]
        manifest["meta"].update(
            decoder_spec=model.decoder.spec.to_json_dict(), frozen=True,
            tuner={"enabled": len(sources) > 1, "hidden_size": 64, "output_size": None})
        path.write_text(json.dumps(manifest))
        loaded = encoding.load_encoding_model(tmp_path / "m", sd.ground_truth.decoder)
        assert list(loaded.params) == list(model.params)
        for name, t in model.params.items():
            assert loaded.params[name].tobytes() == t.tobytes(), name
        assert loaded.standardizer.mean.tobytes() == model.standardizer.mean.tobytes()
        assert loaded.standardizer.scale.tobytes() == model.standardizer.scale.tobytes()

    @pytest.mark.parametrize("sources, tensor", [
        (("constant",), "tuner.w1"),  # a tuner on a model whose sources have no embedding
        (("frequency",), "interface.extra"),
        (("frequency", "static_embedding"), "standardizer.offset"),
    ], ids=["tuner_on_constant", "interface", "standardizer"])
    def test_extra_tensor_rejected(self, small_synth, tmp_path, sources, tensor):
        sd, ds, meta = small_synth
        model, _, _ = quick_fit(sd, ds, meta, sources, epochs=2)
        encoding.save_encoding_model(tmp_path / "m", model)
        kind, ckpt_meta, tensors = load_checkpoint(tmp_path / "m")
        save_checkpoint(tmp_path / "m", kind, ckpt_meta, {**tensors, tensor: np.ones((64, 1))})
        with pytest.raises(FormatError) as err:
            encoding.load_encoding_model(tmp_path / "m", sd.ground_truth.decoder)
        assert str(err.value) == (
            f"{tmp_path / 'm.ckpt.json'}: checkpoint has unexpected tensor {tensor!r}")

    @pytest.mark.parametrize("tensor", ["interface.weights", "standardizer.scale"])
    def test_missing_tensor_rejected(self, small_synth, tmp_path, tensor):
        sd, ds, meta = small_synth
        model, _, _ = quick_fit(sd, ds, meta, ("frequency",), epochs=2)
        encoding.save_encoding_model(tmp_path / "m", model)
        kind, ckpt_meta, tensors = load_checkpoint(tmp_path / "m")
        del tensors[tensor]
        save_checkpoint(tmp_path / "m", kind, ckpt_meta, tensors)
        with pytest.raises(FormatError,
                           match=f"m.ckpt.json: checkpoint has no tensor '{tensor}'"):
            encoding.load_encoding_model(tmp_path / "m", sd.ground_truth.decoder)

    @pytest.mark.parametrize("tensor, stored, expected", [
        ("interface.weights", [3, 10, 2], [10, 3, 2]),  # axes swapped, same byte count
        ("interface.bias", [10, 2], [10, 3]),  # not the decoder's latent geometry
        ("standardizer.mean", [3], [2]),  # not the feature count
    ])
    def test_wrong_tensor_shape_rejected(self, small_synth, tmp_path, tensor, stored,
                                         expected):
        sd, ds, meta = small_synth
        model, _, _ = quick_fit(sd, ds, meta, ("frequency", "surprisal"), epochs=2)
        encoding.save_encoding_model(tmp_path / "m", model)
        kind, ckpt_meta, tensors = load_checkpoint(tmp_path / "m")
        tensors[tensor] = np.resize(tensors[tensor].ravel(), stored)
        save_checkpoint(tmp_path / "m", kind, ckpt_meta, tensors)
        with pytest.raises(FormatError, match=re.escape(
                f"m.ckpt.json: tensor '{tensor}' has shape {stored}, expected {expected}")):
            encoding.load_encoding_model(tmp_path / "m", sd.ground_truth.decoder)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_standardizer_scale_rejected(self, small_synth, tmp_path, bad):
        # a zero scale would standardize the features to inf or NaN
        sd, ds, meta = small_synth
        model, _, _ = quick_fit(sd, ds, meta, ("frequency",), epochs=2)
        encoding.save_encoding_model(tmp_path / "m", model)
        kind, ckpt_meta, tensors = load_checkpoint(tmp_path / "m")
        tensors["standardizer.scale"][0] = bad
        save_checkpoint(tmp_path / "m", kind, ckpt_meta, tensors)
        with pytest.raises(FormatError, match=re.escape(
                "m.ckpt.json: tensor 'standardizer.scale' holds a value <= 0")):
            encoding.load_encoding_model(tmp_path / "m", sd.ground_truth.decoder)

    def test_wrong_decoder_rejected(self, small_synth, tmp_path):
        sd, ds, meta = small_synth
        model, _, _ = quick_fit(sd, ds, meta, ("frequency",), epochs=2)
        encoding.save_encoding_model(tmp_path / "m", model)
        other = init_params(AutoencoderSpec("beta", False, 6, 30), seed=12345)
        with pytest.raises(ValueError, match="does not match"):
            encoding.load_encoding_model(tmp_path / "m", other)
