"""Acceptance suite: one test per criterion, each printing a pass line.

These are the exit criteria for the toolkit. Each test pins the tolerance it
was specified with; nothing here is calibrated after the fact.
"""

import inspect
import json
import time
from pathlib import Path

import numpy as np
import pytest

from erpcoder import autoencoder as ae
from erpcoder import cli, encoding, features, metrics, nn, synth
from erpcoder.data import filter_artifacts, keep_mask, load_erp
from erpcoder.checkpoint import file_digest
from oracles import time_major


def _report(n, detail):
    print(f"[criterion {n}] PASS: {detail}")


# ---------------------------------------------------------------------------
# 1. Kernel correctness
# ---------------------------------------------------------------------------


def test_criterion_1_kernel_correctness():
    start = time.time()
    # the time-major ops that pretraining, decoding and the frozen-decoder fits
    # run, on random geometries drawn batch-first and swapped by time_major
    rng = np.random.default_rng(101)
    worst = 0.0
    n_instances = 100
    for i in range(n_instances):
        kind = i % 4
        if kind == 0:  # conv1d, all gradients
            c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            t = int(rng.integers(4, 10))
            k = int(rng.integers(1, min(t, 4) + 1))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            x = time_major(rng.normal(size=(1, c_in, t)))
            w = rng.normal(size=(c_out, c_in, k))
            b = rng.normal(size=c_out)
            y0, _ = nn.conv1d_time_major_forward(x, w, b, stride=stride, padding=pad)
            target = rng.normal(size=y0.shape)

            def run(xx, ww, bb):
                y, ctx = nn.conv1d_time_major_forward(xx, ww, bb, stride=stride, padding=pad)
                loss, gl = nn.mse_loss(y, target)
                return loss, nn.conv1d_time_major_backward(ctx, gl)

            worst = max(
                worst,
                nn.finite_difference_check(
                    lambda v: (lambda r: (r[0], r[1].input_grad))(run(v, w, b)), x),
                nn.finite_difference_check(
                    lambda v: (lambda r: (r[0], r[1].param_grads["kernels"]))(run(x, v, b)), w),
                nn.finite_difference_check(
                    lambda v: (lambda r: (r[0], r[1].param_grads["bias"]))(run(x, w, v)), b),
            )
        elif kind == 1:  # transposed conv, all gradients
            c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            t = int(rng.integers(2, 7))
            k = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, min(2, (k + (t - 1) * stride) // 2) + 1))
            if (t - 1) * stride + k - 2 * pad < 1:
                pad = 0
            x = time_major(rng.normal(size=(1, c_in, t)))
            w = rng.normal(size=(c_in, c_out, k))
            b = rng.normal(size=c_out)
            y0, _ = nn.convtranspose1d_time_major_forward(x, w, b, stride=stride, padding=pad)
            target = rng.normal(size=y0.shape)

            def run_t(xx, ww, bb):
                y, ctx = nn.convtranspose1d_time_major_forward(xx, ww, bb, stride=stride,
                                                               padding=pad)
                loss, gl = nn.mse_loss(y, target)
                return loss, nn.convtranspose1d_time_major_backward(ctx, gl)

            worst = max(
                worst,
                nn.finite_difference_check(
                    lambda v: (lambda r: (r[0], r[1].input_grad))(run_t(v, w, b)), x),
                nn.finite_difference_check(
                    lambda v: (lambda r: (r[0], r[1].param_grads["kernels"]))(run_t(x, v, b)), w),
                nn.finite_difference_check(
                    lambda v: (lambda r: (r[0], r[1].param_grads["bias"]))(run_t(x, w, v)), b),
            )
        elif kind == 2:  # maxpool (unique maxima) feeding a tanh head
            c = int(rng.integers(1, 4))
            t = int(rng.integers(4, 10))
            window = int(rng.integers(2, min(t, 4) + 1))
            stride = int(rng.integers(1, 3))
            # distinct, well-separated values in a non-saturating range
            x = rng.permutation(c * t).astype(float).reshape(1, c, t)
            x = (x - x.mean()) / (c * t) * 3.0
            x = time_major(x + rng.normal(scale=0.001, size=x.shape))
            y0, _ = nn.maxpool1d_time_major_forward(x, window, stride)
            target = rng.normal(size=y0.shape)

            def run_p(xx):
                y, ctx = nn.maxpool1d_time_major_forward(xx, window, stride)
                a, tctx = nn.tanh_forward(y)
                loss, gl = nn.mse_loss(a, target)
                g = nn.tanh_backward(tctx, gl).input_grad
                return loss, nn.maxpool1d_time_major_backward(ctx, g).input_grad

            worst = max(worst, nn.finite_difference_check(run_p, x))
        else:  # dense + tanh, all gradients
            d, h = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            x = rng.normal(size=(1, d)) * 0.7
            w = rng.normal(size=(h, d))
            b = rng.normal(size=h)
            target = rng.normal(size=(1, h))

            def run_d(xx, ww, bb):
                y, ctx = nn.dense_forward(xx, ww, bb)
                a, tctx = nn.tanh_forward(y)
                loss, gl = nn.mse_loss(a, target)
                g = nn.tanh_backward(tctx, gl).input_grad
                return loss, nn.dense_backward(ctx, g)

            worst = max(
                worst,
                nn.finite_difference_check(
                    lambda v: (lambda r: (r[0], r[1].input_grad))(run_d(v, w, b)), x),
                nn.finite_difference_check(
                    lambda v: (lambda r: (r[0], r[1].param_grads["weight"]))(run_d(x, v, b)), w),
                nn.finite_difference_check(
                    lambda v: (lambda r: (r[0], r[1].param_grads["bias"]))(run_d(x, w, v)), b),
            )
    assert worst < 1e-4, f"worst finite-difference relative error {worst}"

    # adjoint identity at 64-bit precision
    worst_adjoint = 0.0
    for _ in range(100):
        c_in, c_out = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        t_out = int(rng.integers(1, 9))
        k = int(rng.integers(1, 7))
        stride = int(rng.integers(1, 4))
        pad = int(rng.integers(0, 3))
        t = (t_out - 1) * stride + k - 2 * pad
        if t < 1 or k > t + 2 * pad:
            continue
        x = time_major(rng.normal(size=(1, c_in, t)))
        w = rng.normal(size=(c_out, c_in, k))
        y = time_major(rng.normal(size=(1, c_out, t_out)))
        cx, _ = nn.conv1d_time_major_forward(x, w, np.zeros(c_out), stride=stride, padding=pad)
        if cx.shape != y.shape:
            continue
        ty, _ = nn.convtranspose1d_time_major_forward(y, w, np.zeros(c_in), stride=stride,
                                                      padding=pad)
        lhs, rhs = float((cx * y).sum()), float((x * ty).sum())
        worst_adjoint = max(worst_adjoint,
                            abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    assert worst_adjoint < 1e-10, f"worst adjoint relative error {worst_adjoint}"

    elapsed = time.time() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"worst grad rel err {worst:.2e}, worst adjoint rel err "
               f"{worst_adjoint:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Geometry
# ---------------------------------------------------------------------------


def test_criterion_2_geometry():
    rng = np.random.default_rng(2)
    expected = {"alpha": (5, 9), "beta": (10, 20)}
    for arch, latent in expected.items():
        spec = ae.AutoencoderSpec(arch, False, 32, 200)
        plan = ae.build_layer_plan(spec)
        assert (plan.latent_channels, plan.latent_timepoints) == latent
        params = ae.init_params(spec, seed=1)
        x = rng.normal(size=(2, 32, 200))
        z = ae.encode(params, x)
        assert z.shape == (2, *latent)
        assert ae.reconstruct(params, x).shape == (2, 32, 200)
    _report(2, "alpha -> 5x9, beta -> 10x20, reconstruct -> 32x200")


# ---------------------------------------------------------------------------
# 3. r2_mod anchors
# ---------------------------------------------------------------------------


def test_criterion_3_r2_mod_anchors():
    assert abs(metrics.r2_mod(50.0, 50.0, 30.0) - 0.0) < 1e-12
    assert abs(metrics.r2_mod(30.0, 50.0, 30.0) - 1.0) < 1e-12
    assert abs(metrics.r2_mod(40.0, 50.0, 30.0) - 0.5) < 1e-12
    _report(3, "anchors 0, 1 and 0.5 exact to 1e-12")


# ---------------------------------------------------------------------------
# 4. Frozen-decoder contract
# ---------------------------------------------------------------------------


def test_criterion_4_frozen_decoder(tmp_path):
    config = synth.SynthConfig(
        n_subjects=2, n_sentences=25, words_per_sentence=4,
        n_channels=6, n_timepoints=30, architecture="beta",
        noise_sd=0.05, driving=("frequency",), seed=44)
    sd = synth.generate(config)
    ds, meta = filter_artifacts(sd.dataset, sd.meta, include_first_word=False)
    decoder = sd.ground_truth.decoder

    ae.save_autoencoder(tmp_path / "decoder_before", decoder)
    hash_before = (file_digest(tmp_path / "decoder_before.ckpt.bin"),
                   file_digest(tmp_path / "decoder_before.ckpt.json"))
    digest_before = decoder.decoder_digest()

    fm = features.assemble(features.FeatureSpec(("frequency",)), meta,
                           counts_table=sd.counts)
    model, _ = encoding.train(encoding.freeze(decoder, ds, meta), fm, ("frequency",),
                              epochs=30, batch_size=32, lr=0.005, seed=3)

    ae.save_autoencoder(tmp_path / "decoder_after", decoder)
    hash_after = (file_digest(tmp_path / "decoder_after.ckpt.bin"),
                  file_digest(tmp_path / "decoder_after.ckpt.json"))
    assert hash_after == hash_before
    assert decoder.decoder_digest() == digest_before == model.decoder_digest
    _report(4, f"decoder checkpoint hash {hash_before[0][:12]}... unchanged")


# ---------------------------------------------------------------------------
# 5. Synthetic recovery
# ---------------------------------------------------------------------------


def test_criterion_5_synthetic_recovery():
    start = time.time()
    config = synth.SynthConfig(
        n_subjects=4, n_sentences=50, words_per_sentence=5,
        n_channels=8, n_timepoints=50, architecture="beta",
        driving=("frequency", "surprisal"), seed=11)
    config = synth.calibrate_noise(config, target_snr=2.0)
    sd = synth.generate(config)
    assert config.n_trials == 1000
    kept = np.flatnonzero(keep_mask(sd.meta, include_first_word=False))
    ds, meta = filter_artifacts(sd.dataset, sd.meta, include_first_word=False)
    bounds = synth.oracle_bounds(sd.ground_truth, sd.dataset,
                                 fit_rows=kept, eval_rows=kept)
    decoder = sd.ground_truth.decoder

    def fit(sources):
        fm = features.assemble(features.FeatureSpec(tuple(sources)), meta,
                               counts_table=sd.counts,
                               token_features=sd.token_features,
                               embeddings=sd.embeddings,
                               sentence_tokens=sd.sentence_tokens)
        model, _ = encoding.train(encoding.freeze(decoder, ds, meta), fm, sources, epochs=200,
                                  batch_size=128, lr=0.005, weight_decay=1e-5,
                                  seed=5)
        return encoding.model_mse(model, encoding.freeze(decoder, ds, meta), fm)

    mse_intercept = fit(("constant",))
    floor = bounds["mse_floor"]
    r2 = {"intercept": 0.0}
    for subset in [("frequency",), ("frequency", "surprisal")]:
        key = "+".join(subset)
        r2[key] = metrics.r2_mod(fit(subset), mse_intercept, floor)
        gap = abs(r2[key] - bounds["best_possible_r2_mod"][key])
        assert gap <= 0.05, f"{key}: fitted {r2[key]:.4f} vs bound " \
                            f"{bounds['best_possible_r2_mod'][key]:.4f} (gap {gap:.4f})"

    full = r2["frequency+surprisal"]
    assert full - r2["frequency"] >= 0.03
    assert full - r2["intercept"] >= 0.03

    elapsed = time.time() - start
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s"
    _report(5, f"full model r2 {full:.4f} vs bound "
               f"{bounds['best_possible_r2_mod']['frequency+surprisal']:.4f}; "
               f"nested gaps {full - r2['frequency']:.3f}/{full:.3f}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Protocol reproduction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def protocol_synth():
    config = synth.SynthConfig(
        n_subjects=2, n_sentences=30, words_per_sentence=4,
        n_channels=6, n_timepoints=30, architecture="beta",
        noise_sd=0.06, driving=("frequency", "surprisal"), seed=66)
    sd = synth.generate(config)
    ds, meta = filter_artifacts(sd.dataset, sd.meta, include_first_word=False)
    return sd, ds, meta


def test_criterion_6_weight_decay_protocol(protocol_synth):
    sd, ds, meta = protocol_synth
    assert encoding.WEIGHT_DECAY_GRID == (1e-5, 1e-3, 1e-1)
    assert inspect.signature(encoding.weight_decay_search).parameters["k"].default == 5

    fm = features.assemble(features.FeatureSpec(("frequency",)), meta,
                           counts_table=sd.counts)
    runs = [
        encoding.weight_decay_search(
            encoding.freeze(sd.ground_truth.decoder, ds, meta), fm, ("frequency",),
            seed=9, epochs=8, batch_size=64, lr=0.005)
        for _ in range(2)
    ]
    chosen, table = runs[0]
    assert runs[0] == runs[1], "weight decay search is not seed-deterministic"
    evaluated = {(row["weight_decay"], row["fold"]) for row in table}
    assert evaluated == {(wd, f) for wd in (1e-5, 1e-3, 1e-1) for f in range(5)}
    assert chosen in (1e-5, 1e-3, 1e-1)
    _report(6, f"wd grid x 5 folds evaluated exactly, deterministic, chose {chosen:g}"
               " (suite fold sharing checked separately)")


def test_criterion_6_suite_fold_sharing(protocol_synth):
    sd, ds, meta = protocol_synth
    result = encoding.run_model_suite(
        sd.ground_truth.decoder, ds, meta, encoding.standard_roster(),
        counts_table=sd.counts, token_features=sd.token_features,
        embeddings=sd.embeddings, sentence_tokens=sd.sentence_tokens,
        k=5, seed=10, wd_grid=(1e-5,), epochs=8, batch_size=64, lr=0.005,
        n_boot=500, ceiling_mse=sd.ground_truth.mse_floor)
    assert len(result["entries"]) == 9 and not result["skipped"]
    digests = {entry["report"].fold_digest for entry in result["entries"].values()}
    assert digests == {result["fold_digest"]}, "fold assignment not shared"
    _report(6, f"9 roster entries share fold digest {result['fold_digest'][:12]}...")


# ---------------------------------------------------------------------------
# 7. Timecourse sanity
# ---------------------------------------------------------------------------


def test_criterion_7_timecourse_peak():
    # beta on 200 timepoints: latent step = 40 ms; steps 8..10 cover 220-340 ms
    config = synth.SynthConfig(
        n_subjects=2, n_sentences=40, words_per_sentence=4,
        n_channels=8, n_timepoints=200, architecture="beta",
        driving=("frequency", "surprisal"), driven_latent_timepoints=(8, 9, 10),
        seed=23)
    config = synth.calibrate_noise(config, target_snr=2.0)
    sd = synth.generate(config)
    ds, meta = filter_artifacts(sd.dataset, sd.meta, include_first_word=False)

    def fit(sources, epochs):
        fm = features.assemble(features.FeatureSpec(tuple(sources)), meta,
                               counts_table=sd.counts,
                               token_features=sd.token_features,
                               embeddings=sd.embeddings,
                               sentence_tokens=sd.sentence_tokens)
        model, _ = encoding.train(encoding.freeze(sd.ground_truth.decoder, ds, meta), fm, sources,
                                  epochs=epochs, batch_size=32, lr=0.005,
                                  weight_decay=1e-5, seed=5)
        return encoding.predict_erp(model, fm)

    preds = fit(("frequency", "surprisal"), 120)
    preds_int = fit(("constant",), 40)
    series = metrics.timepoint_correlation_increase(
        preds, preds_int, ds.data, ms_axis=ds.time_axis_ms())
    smoothed = metrics.moving_average_smooth(series, 9)
    peak = smoothed.peak_ms()
    assert 200.0 - 40.0 <= peak <= 350.0 + 40.0, f"peak at {peak} ms"
    _report(7, f"correlation-increase peak at {peak:.0f} ms inside 160-390 ms")


# ---------------------------------------------------------------------------
# 8. Bootstrap CI
# ---------------------------------------------------------------------------


def test_criterion_8_bootstrap_ci():
    low, high = metrics.bootstrap_ci([3.3] * 5, seed=0)
    assert low == high == 3.3

    rng = np.random.default_rng(88)
    hits = 0
    n_trials = 1000
    for i in range(n_trials):
        values = rng.normal(loc=rng.normal(), scale=abs(rng.normal()) + 0.1, size=5)
        lo, hi = metrics.bootstrap_ci(values, n_boot=1000, seed=i)
        hits += lo <= values.mean() <= hi
    assert hits >= 0.99 * n_trials, f"CI covered the fold mean in {hits}/{n_trials}"
    _report(8, f"degenerate CI collapses; fold-mean coverage {hits}/{n_trials}")


# ---------------------------------------------------------------------------
# 9. End-to-end determinism through the CLI
# ---------------------------------------------------------------------------


def _run_cli_pipeline(root: Path, config_path: Path) -> None:
    def run(args):
        code = cli.main([str(a) for a in args])
        assert code == 0, f"command failed: {args}"

    run(["synth", "--config", config_path, "--out", root / "d"])
    run(["pretrain", "--data", root / "d" / "data", "--arch", "beta",
         "--epochs", 20, "--lr", 0.003, "--seed", 1, "--out", root / "m"])
    run(["fit", "--decoder", root / "m" / "autoencoder", "--data", root / "d" / "data",
         "--sources", "constant", "--epochs", 15, "--lr", 0.005, "--seed", 2,
         "--out", root / "e0"])
    run(["fit", "--decoder", root / "m" / "autoencoder", "--data", root / "d" / "data",
         "--sources", "frequency,surprisal",
         "--features", root / "d" / "tokens.feat.tsv",
         "--counts", root / "d" / "counts.tsv", "--wd", 1e-5,
         "--epochs", 15, "--lr", 0.005, "--seed", 2, "--out", root / "e1"])
    run(["evaluate", "--model", root / "e1" / "model",
         "--intercept", root / "e0" / "model",
         "--autoencoder", root / "m" / "autoencoder", "--data", root / "d" / "data",
         "--features", root / "d" / "tokens.feat.tsv",
         "--counts", root / "d" / "counts.tsv", "--out", root / "v"])
    run(["timecourse", "--model", root / "e1" / "model",
         "--intercept", root / "e0" / "model",
         "--autoencoder", root / "m" / "autoencoder", "--data", root / "d" / "data",
         "--features", root / "d" / "tokens.feat.tsv",
         "--counts", root / "d" / "counts.tsv", "--window", 5, "--out", root / "t"])
    run(["export-words", "--model", root / "e1" / "model",
         "--autoencoder", root / "m" / "autoencoder", "--data", root / "d" / "data",
         "--features", root / "d" / "tokens.feat.tsv",
         "--counts", root / "d" / "counts.tsv", "--out", root / "w"])


def test_criterion_9_cli_determinism(tmp_path):
    config = {
        "n_subjects": 2, "n_sentences": 25, "words_per_sentence": 4,
        "n_channels": 6, "n_timepoints": 30, "sampling_rate_hz": 250.0,
        "epoch_start_ms": -100.0, "architecture": "beta", "noise_sd": 0.05,
        "driving": ["frequency", "surprisal"], "drive_scales": None,
        "driven_latent_timepoints": None, "vocab_size": 30, "static_dim": 5,
        "contextual_dim": 6, "artifact_rate": 0.05, "latent_bias_sd": 0.5, "seed": 4,
    }
    config_path = tmp_path / "synth.json"
    config_path.write_text(json.dumps(config))

    for run_dir in ("runA", "runB"):
        _run_cli_pipeline(tmp_path / run_dir, config_path)

    a_files = sorted(p for p in (tmp_path / "runA").rglob("*") if p.is_file())
    compared = 0
    for a in a_files:
        rel = a.relative_to(tmp_path / "runA")
        b = tmp_path / "runB" / rel
        assert b.exists(), f"missing {rel} in rerun"
        if a.name == "manifest.json":
            # manifests differ only in the run-directory prefix of input paths
            norm_a = a.read_text().replace(str(tmp_path / "runA"), "RUN")
            norm_b = b.read_text().replace(str(tmp_path / "runB"), "RUN")
            assert norm_a == norm_b, f"manifest {rel} differs beyond paths"
        else:
            assert a.read_bytes() == b.read_bytes(), f"{rel} differs between reruns"
            compared += 1
    assert compared >= 20
    # and the ERP payload itself round-trips losslessly
    ds_a, _ = load_erp(tmp_path / "runA" / "d" / "data")
    ds_b, _ = load_erp(tmp_path / "runB" / "d" / "data")
    np.testing.assert_array_equal(ds_a.data, ds_b.data)
    _report(9, f"{compared} artifacts bit-identical across CLI reruns")
