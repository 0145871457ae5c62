"""Architecture geometry, intercepts, pretraining and selection tests."""

import itertools
import json
import os
import re
import sys
import threading
import time

import numpy as np
import pytest

from erpcoder import autoencoder as ae
from erpcoder import cli, nn, synth
from erpcoder.checkpoint import load_checkpoint, save_checkpoint
from erpcoder.data import ErpDataset, FormatError, TrialMeta, kfold_split
from oracles import bad_rows, sample_rows, time_major


def meta_rows(n, subjects=("s1", "s2"), words=5):
    return [
        TrialMeta(subjects[i % len(subjects)], i // words, i % words + 1,
                  f"w{i % 9}", "content", "NN", False)
        for i in range(n)
    ]


def lowrank_dataset(rng, spec, n=400, rank=3, noise=0.002, gen_seed=999):
    """ERP-shaped data decoded from low-dimensional latents plus tiny noise."""
    gen = ae.init_params(ae.AutoencoderSpec(spec.architecture, False, spec.n_channels,
                                            spec.n_timepoints), seed=gen_seed)
    plan = gen.plan
    basis = rng.normal(size=(rank, plan.latent_channels, plan.latent_timepoints))
    coef = rng.normal(size=(n, rank))
    z = np.einsum("nd,dct->nct", coef, basis)
    x = ae.decode(gen, z) + rng.normal(0, noise, size=(n, spec.n_channels, spec.n_timepoints))
    end = spec.n_timepoints / 250.0 * 1000.0 - 100.0
    return ErpDataset(x, 250.0, -100.0, end)


class TestLayerPlans:
    def test_beta_latent_geometry(self):
        plan = ae.build_layer_plan(ae.AutoencoderSpec("beta", False, 32, 200))
        assert (plan.latent_channels, plan.latent_timepoints) == (10, 20)

    def test_alpha_latent_geometry(self):
        plan = ae.build_layer_plan(ae.AutoencoderSpec("alpha", False, 32, 200))
        assert (plan.latent_channels, plan.latent_timepoints) == (5, 9)

    @pytest.mark.parametrize("arch", ["alpha", "beta"])
    def test_reconstruct_shape_homomorphism(self, arch, rng):
        spec = ae.AutoencoderSpec(arch, False, 32, 200)
        params = ae.init_params(spec, seed=3)
        x = rng.normal(size=(2, 32, 200))
        y = ae.reconstruct(params, x)
        assert y.shape == x.shape

    def test_incompatible_length_rejected_with_equation(self):
        with pytest.raises(ValueError, match=r"\(201 - 5\) % 5"):
            ae.build_layer_plan(ae.AutoencoderSpec("beta", False, 32, 201))

    def test_edited_stored_plan_is_rejected(self, tmp_path):
        # the plan a checkpoint stores must be the one its spec builds
        config = synth.SynthConfig(n_subjects=1, n_sentences=6, words_per_sentence=3,
                                   n_channels=4, n_timepoints=20, seed=3)
        synth.write_dataset_dir(synth.generate(config), tmp_path)
        ae.save_autoencoder(tmp_path / "ae",
                            ae.init_params(ae.AutoencoderSpec("beta", False, 4, 20), seed=1))
        ae.load_autoencoder(tmp_path / "ae")
        synth.load_ground_truth(tmp_path / "truth")
        for base, key in (("ae", "plan"), ("truth", "decoder_plan")):
            path = tmp_path / f"{base}.ckpt.json"
            manifest = json.loads(path.read_text())
            tconv = manifest["meta"][key]["decoder"][0]["tconv"]
            assert tconv[4] is True
            tconv[4] = False  # drop dec0's tanh
            path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="ae.ckpt.json: stored layer plan differs"):
            ae.load_autoencoder(tmp_path / "ae")
        with pytest.raises(FormatError, match="truth.ckpt.json: stored layer plan differs"):
            synth.load_ground_truth(tmp_path / "truth")
        assert cli.main(["fit", "--decoder", str(tmp_path / "ae"),
                         "--data", str(tmp_path / "data"), "--sources", "constant",
                         "--out", str(tmp_path / "o")]) == 4
        assert not (tmp_path / "o").exists()


class TestIntercepts:
    def test_disabled_decode_ignores_subject(self, rng):
        params = ae.init_params(ae.AutoencoderSpec("beta", False, 8, 50), seed=1)
        z = rng.normal(size=(3, 10, 5))
        np.testing.assert_array_equal(ae.decode(params, z), ae.decode(params, z))

    def test_zero_table_neutral(self, rng):
        spec_i = ae.AutoencoderSpec("beta", True, 8, 50)
        spec_o = ae.AutoencoderSpec("beta", False, 8, 50)
        with_i = ae.init_params(spec_i, seed=5, subjects=("a", "b"))
        without = ae.init_params(spec_o, seed=5)
        x = rng.normal(size=(4, 8, 50))
        y_i = ae.reconstruct(with_i, x, ["a", "b", "a", "b"])
        y_o = ae.reconstruct(without, x)
        np.testing.assert_array_equal(y_i, y_o)

    def test_zero_params_output_is_intercept(self):
        spec = ae.AutoencoderSpec("beta", True, 8, 50)
        params = ae.init_params(spec, seed=5, subjects=("a", "b"))
        for k in params.tensors:
            params.tensors[k][:] = 0.0
        b = np.arange(16, dtype=float).reshape(2, 8)
        params.tensors["intercepts"][:] = b
        y = ae.decode(params, np.zeros((2, 10, 5)), ["b", "a"])
        np.testing.assert_array_equal(y[0], np.broadcast_to(b[1][:, None], (8, 50)))
        np.testing.assert_array_equal(y[1], np.broadcast_to(b[0][:, None], (8, 50)))

    def test_unknown_subject_rejected(self):
        params = ae.init_params(ae.AutoencoderSpec("beta", True, 8, 50),
                                seed=5, subjects=("a",))
        with pytest.raises(ValueError, match="unknown subject_id 'zz'"):
            ae.decode(params, np.zeros((1, 10, 5)), ["zz"])


class TestReconstructionMse:
    def test_chunked_matches_unchunked_with_intercepts(self, rng):
        # 2*CHUNK_ROWS + 37 trials in a shuffled order: two full chunks and a
        # ragged last one, each mixing both subjects' intercepts
        n = 2 * ae.CHUNK_ROWS + 37
        params = ae.init_params(ae.AutoencoderSpec("beta", True, 4, 20), seed=3,
                                subjects=("s1", "s2"))
        params.tensors["intercepts"][:] = rng.normal(size=(2, 4))
        dataset = ErpDataset(rng.normal(size=(n + 5, 4, 20)), 250.0, -100.0, -20.0)
        meta = meta_rows(n + 5)
        idx = rng.permutation(n + 5)[:n]
        x = dataset.data[idx]
        unchunked, _ = nn.mse_loss(ae.reconstruct(params, x, [meta[i].subject_id for i in idx]),
                                   x)
        assert ae.reconstruction_mse(params, dataset, meta, rows=idx) == \
            pytest.approx(unchunked, rel=1e-12, abs=0)


class TestLatentGradients:
    def test_every_latent_unit_reaches_output(self, rng):
        # finite differences: perturbing any latent unit must change the output
        params = ae.init_params(ae.AutoencoderSpec("beta", False, 8, 50), seed=11)
        z = rng.normal(size=(1, 10, 5))
        base = ae.decode(params, z)
        eps = 1e-4
        for c in range(10):
            for t in range(5):
                zp = z.copy()
                zp[0, c, t] += eps
                delta = np.abs(ae.decode(params, zp) - base).max()
                assert delta > 1e-9, f"latent unit ({c},{t}) is dead"

    def test_intercept_gradient_matches_finite_differences(self, rng):
        # the per-subject/per-electrode table is trained jointly; check its grad
        spec = ae.AutoencoderSpec("beta", True, 4, 20)
        params = ae.init_params(spec, seed=3, subjects=("a", "b"))
        x = time_major(rng.normal(size=(5, 4, 20)) * 0.5)
        subj_rows = np.array([0, 1, 0, 1, 1])

        def fn(table):
            z, _ = ae._encoder_forward(params, x)
            y, _ = ae._decoder_forward(params, z)
            y = y + table[subj_rows].T  # (C, N) columns
            loss, gl = nn.mse_loss(y, x)
            grad = np.zeros_like(table)
            np.add.at(grad, subj_rows, gl.sum(axis=0).T)
            return loss, grad

        assert nn.finite_difference_check(fn, rng.normal(size=(2, 4))) < 1e-6

    def test_stack_gradient_matches_finite_differences(self, rng):
        params = ae.init_params(ae.AutoencoderSpec("beta", False, 4, 20), seed=2)
        x0 = rng.normal(size=(20, 4, 2)) * 0.5  # time-major
        target = rng.normal(size=(20, 4, 2))

        def fn(x):
            z, enc_ctxs = ae._encoder_forward(params, x)
            y, dec_ctxs = ae._decoder_forward(params, z)
            loss, gl = nn.mse_loss(y, target)
            gz, _ = ae._stack_backward(dec_ctxs, gl)
            gx, _ = ae._stack_backward(enc_ctxs, gz)
            return loss, gx

        assert nn.finite_difference_check(fn, x0) < 1e-4


class TestPretrain:
    def test_learns_lowrank_data(self, rng):
        spec = ae.AutoencoderSpec("beta", False, 8, 50)
        ds = lowrank_dataset(rng, spec)
        meta = meta_rows(ds.n_trials)
        params, hist = ae.pretrain(spec, ds, meta, epochs=100, batch_size=128,
                                   lr=0.003, seed=7)
        recon = ae.reconstruct(params, ds.data)
        mse = float(((recon - ds.data) ** 2).mean())
        r2 = 1.0 - mse / float(ds.data.var())
        assert r2 >= 0.95

        # loss non-increasing over the first five epochs in a moving-average sense
        first = hist.train_mse[:5]
        assert np.mean(first[-2:]) <= np.mean(first[:2])

        # dev MSE beats predicting the mean of the dev data
        assert min(hist.dev_mse) < float(ds.data.var())

    def test_seeded_determinism(self, rng):
        spec = ae.AutoencoderSpec("beta", False, 8, 50)
        ds = lowrank_dataset(rng, spec, n=120)
        meta = meta_rows(120)
        p1, h1 = ae.pretrain(spec, ds, meta, epochs=5, seed=3)
        p2, h2 = ae.pretrain(spec, ds, meta, epochs=5, seed=3)
        for k in p1.tensors:
            np.testing.assert_array_equal(p1.tensors[k], p2.tensors[k])
        assert h1.train_mse == h2.train_mse

    def test_history_tracks_best_epoch(self, rng):
        spec = ae.AutoencoderSpec("beta", False, 8, 50)
        ds = lowrank_dataset(rng, spec, n=120)
        params, hist = ae.pretrain(spec, ds, meta_rows(120), epochs=8, seed=3)
        assert hist.best_epoch == int(np.argmin(hist.dev_mse))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_divergence_names_value_epoch_and_batch(self, rng, monkeypatch, bad):
        # 108 training trials in batches of 64, run as shards of 32 trials: shard
        # losses 32+32 and 32+12 per epoch (the dev set is scored without
        # mse_loss), so the 7th shard loss, whichever shard computes it, lies in
        # epoch 1, batch 1
        assert ae.CHUNK_ROWS == 32
        spec = ae.AutoencoderSpec("beta", False, 8, 50)
        ds = lowrank_dataset(rng, spec, n=120)
        mse_loss = nn.mse_loss
        calls = itertools.count(1)  # atomic: shards call it from two threads

        def diverging_mse(pred, target):
            loss, grad = mse_loss(pred, target)
            return (bad if next(calls) == 7 else loss), grad

        monkeypatch.setattr(nn, "mse_loss", diverging_mse)
        with pytest.raises(RuntimeError, match=f"diverged to {bad} at epoch 1, batch 1$"):
            ae.pretrain(spec, ds, meta_rows(120), epochs=3, batch_size=64, seed=3)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_diverged_dev_score_names_value_and_epoch(self, rng, monkeypatch, bad):
        # a last step that diverges shows only in that epoch's dev score
        spec = ae.AutoencoderSpec("beta", False, 8, 50)
        ds = lowrank_dataset(rng, spec, n=120)
        scores = iter([1.0, bad])
        monkeypatch.setattr(ae, "reconstruction_mse", lambda *args, **kw: next(scores))
        with pytest.raises(RuntimeError, match=f"^dev MSE diverged to {bad} at epoch 1$"):
            ae.pretrain(spec, ds, meta_rows(120), epochs=2, batch_size=64, seed=3)

    @pytest.mark.parametrize("lr", [0.0, -0.01, np.nan, np.inf])
    def test_bad_learning_rate_rejected_before_any_step(self, rng, monkeypatch, lr):
        spec = ae.AutoencoderSpec("beta", False, 8, 50)
        ds = lowrank_dataset(rng, spec, n=40)
        monkeypatch.setattr(nn, "adam_step", lambda *args, **kw: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match=f"^lr must be finite and > 0, got {lr}$"):
            ae.pretrain(spec, ds, meta_rows(40), epochs=1, lr=lr)

    def test_empty_dataset_rejected(self):
        spec = ae.AutoencoderSpec("beta", False, 8, 50)
        ds = ErpDataset(np.zeros((0, 8, 50)), 250.0, -100.0, 100.0)
        with pytest.raises(ValueError, match="empty"):
            ae.pretrain(spec, ds, [], epochs=1)


def per_op_step(params, x, subject_ids):
    """Loss and gradients of one pretraining step on the (N, C, T) epochs ``x``,
    walked op by op with the time-major nn ops and no ``autoencoder`` walker:
    the reference for the sharded step."""
    def walk(steps, prefix, h):
        ctxs = []
        for i, step in enumerate(steps):
            name = f"{prefix}{i}"
            if isinstance(step, ae.PoolStep):
                h, ctx = nn.maxpool1d_time_major_forward(h, step.window, step.stride)
            else:
                op = (nn.conv1d_time_major_forward if isinstance(step, ae.ConvStep)
                      else nn.convtranspose1d_time_major_forward)
                h, ctx = op(h, params.tensors[f"{name}.kernels"], params.tensors[f"{name}.bias"],
                            step.stride, step.padding)
            ctxs.append((name, ctx))
            if not isinstance(step, ae.PoolStep) and step.activation:
                h, ctx = nn.tanh_forward(h)
                ctxs.append((name, ctx))
        return h, ctxs

    x = time_major(x)
    z, enc_ctxs = walk(params.plan.encoder, "enc", x)
    y, dec_ctxs = walk(params.plan.decoder, "dec", z)
    grads = {}
    if params.spec.intercepts:
        subject_rows = ae._subject_rows(params, subject_ids)
        y = y + params.tensors["intercepts"][subject_rows].T  # (C, N) columns
    loss, g = nn.mse_loss(y, x)
    if params.spec.intercepts:
        grads["intercepts"] = np.zeros_like(params.tensors["intercepts"])
        np.add.at(grads["intercepts"], subject_rows, g.sum(axis=0).T)
    backward = {nn.Conv1dTimeMajorCtx: nn.conv1d_time_major_backward,
                nn.ConvTranspose1dTimeMajorCtx: nn.convtranspose1d_time_major_backward,
                nn.TanhCtx: nn.tanh_backward,
                nn.MaxPool1dTimeMajorCtx: nn.maxpool1d_time_major_backward}
    for name, ctx in reversed(enc_ctxs + dec_ctxs):
        lg = backward[type(ctx)](ctx, g)
        grads.update({f"{name}.{k}": v for k, v in lg.param_grads.items()})
        g = lg.input_grad
    return loss, grads


def step_operands(rng, arch, intercepts, n_trials=150, n_batch=20):
    spec = ae.AutoencoderSpec(arch, intercepts, 8, 40)
    params = ae.init_params(spec, seed=3, subjects=("s1", "s2") if intercepts else None)
    if intercepts:
        params.tensors["intercepts"][:] = rng.normal(size=(2, 8))
    x_all = rng.normal(size=(n_trials, 8, 40))
    subject_ids = np.array(["s1", "s2"] * (n_trials // 2))
    return params, x_all, subject_ids, rng.permutation(n_trials)[:n_batch]


def assert_grads_close(grads, expected, rel=1e-12):
    assert grads.keys() == expected.keys()
    for name, g in expected.items():
        assert np.abs(grads[name] - g).max() <= rel * np.abs(g).max(), name


class TestShardedStep:
    """A pretraining step in shards against one time-major pass over the batch."""

    @pytest.mark.parametrize("arch", ae.ARCHITECTURES)
    @pytest.mark.parametrize("n_batch", [100, 20])  # an uneven last shard; under one shard
    def test_loss_and_gradients_match_the_full_batch(self, rng, arch, n_batch):
        params, x_all, subject_ids, batch = step_operands(rng, arch, True, n_batch=n_batch)
        loss, n_out, grads = ae._reconstruction_step(params, x_all, subject_ids, batch)

        x = x_all[batch]
        x_tm = time_major(x)
        z, enc_ctxs = ae._encoder_forward(params, x_tm)
        y, dec_ctxs = ae._decoder_forward(params, z)
        full_loss, grad_y = nn.mse_loss(ae._add_intercepts(params, y, subject_ids[batch]), x_tm)
        gz, full = ae._stack_backward(dec_ctxs, grad_y)
        full.update(ae._stack_backward(enc_ctxs, gz, rows=x)[1])
        full["intercepts"] = np.zeros((2, 8))
        np.add.at(full["intercepts"], ae._subject_rows(params, subject_ids[batch]),
                  grad_y.sum(axis=0).T)

        assert n_out == x.size
        assert loss == pytest.approx(full_loss, rel=1e-12, abs=0)
        assert_grads_close(grads, full)
        if n_batch <= ae.CHUNK_ROWS:  # one shard of weight 1: the same bits
            assert loss == full_loss
            assert all(np.array_equal(grads[name], g) for name, g in full.items())


class TestTimeMajorShard:
    """A sharded pretraining step against the nn ops walked one by one."""

    @pytest.mark.parametrize("arch", ae.ARCHITECTURES)
    @pytest.mark.parametrize("intercepts", [False, True])
    @pytest.mark.parametrize("n_batch", [20, 100])  # one shard; four, the last uneven
    def test_loss_and_gradients_match_per_op_walk(self, rng, arch, intercepts, n_batch):
        params, x_all, subject_ids, batch = step_operands(rng, arch, intercepts,
                                                          n_batch=n_batch)
        loss, _, grads = ae._reconstruction_step(params, x_all, subject_ids, batch)
        expected_loss, expected = per_op_step(params, x_all[batch], subject_ids[batch])
        assert loss == pytest.approx(expected_loss, rel=1e-12, abs=0)
        assert_grads_close(grads, expected)

    @pytest.mark.parametrize("arch", ae.ARCHITECTURES)
    def test_first_kernel_gradient_from_rows_matches_windows(self, rng, arch):
        # the data's (N, C, T) rows give the first convolution's kernel gradient
        # per tap; the windowed form over the time-major input gives the same
        params, x_all, _, batch = step_operands(rng, arch, False)
        x = x_all[batch]
        z, enc_ctxs = ae._encoder_forward(params, time_major(x))
        gz = rng.normal(size=z.shape)
        gx, from_rows = ae._stack_backward(enc_ctxs, gz, rows=x)
        assert gx is None
        windowed_gx, windowed = ae._stack_backward(enc_ctxs, gz)
        assert windowed_gx.shape == (40, 8, len(batch))
        assert_grads_close(from_rows, windowed)

    def test_stack_gradient_matches_finite_differences(self, rng):
        params = ae.init_params(ae.AutoencoderSpec("alpha", False, 4, 40), seed=2)
        target = rng.normal(size=(40, 4, 2))

        def fn(x):
            z, enc_ctxs = ae._encoder_forward(params, x)
            y, dec_ctxs = ae._decoder_forward(params, z)
            loss, gl = nn.mse_loss(y, target)
            gz, _ = ae._stack_backward(dec_ctxs, gl)
            return loss, ae._stack_backward(enc_ctxs, gz)[0]

        assert nn.finite_difference_check(fn, rng.normal(size=(40, 4, 2)) * 0.5) < 1e-4


class TestTimeMajorDecode:
    """decode, encode and reconstruct run time-major in fixed CHUNK_ROWS-trial
    blocks: a trial's bits do not depend on how the trials are split at block
    boundaries, or on the number of workers."""

    @pytest.mark.parametrize("arch", ae.ARCHITECTURES)
    def test_one_call_equals_aligned_chunks(self, rng, arch):
        spec = ae.AutoencoderSpec(arch, True, 8, 40)
        params = ae.init_params(spec, seed=5, subjects=("a", "b"))
        params.tensors["intercepts"][:] = rng.normal(size=(2, 8))
        n = 2 * ae.CHUNK_ROWS + 9
        plan = params.plan
        z = rng.normal(size=(n, plan.latent_channels, plan.latent_timepoints))
        x = rng.normal(size=(n, 8, 40))
        ids = ["a", "b", "b"] * (n // 3) + ["a"] * (n % 3)
        whole = (ae.decode(params, z, ids), ae.encode(params, x), ae.reconstruct(params, x, ids))
        for start in range(0, n, ae.CHUNK_ROWS):
            rows = slice(start, start + ae.CHUNK_ROWS)
            part = (ae.decode(params, z[rows], ids[rows]), ae.encode(params, x[rows]),
                    ae.reconstruct(params, x[rows], ids[rows]))
            for got, full in zip(part, whole):
                assert got.tobytes() == full[rows].tobytes()

    def test_identical_on_one_and_three_workers(self, rng, monkeypatch):
        params = ae.init_params(ae.AutoencoderSpec("beta", False, 8, 40), seed=5)
        z = rng.normal(size=(3 * ae.CHUNK_ROWS + 1, 10, 4))
        runs = []
        for n in (1, 3):
            monkeypatch.setattr(ae, "_worker_count", lambda n_jobs, n=n: min(n, n_jobs))
            runs.append(ae.decode(params, z).tobytes())
        assert runs[0] == runs[1]

    def test_matches_the_nn_ops_walked_one_by_one(self, rng):
        params = ae.init_params(ae.AutoencoderSpec("alpha", False, 8, 40), seed=5)
        x = rng.normal(size=(40, 8, 40))
        h = time_major(x)
        for i, step in enumerate(params.plan.encoder):
            if isinstance(step, ae.PoolStep):
                h, _ = nn.maxpool1d_time_major_forward(h, step.window, step.stride)
            else:
                h, _ = nn.conv1d_time_major_forward(h, params.tensors[f"enc{i}.kernels"],
                                                    params.tensors[f"enc{i}.bias"], step.stride,
                                                    step.padding)
                h = np.tanh(h) if step.activation else h
        np.testing.assert_allclose(ae.encode(params, x), time_major(h), rtol=0, atol=1e-12)
        for i, step in enumerate(params.plan.decoder):
            h, _ = nn.convtranspose1d_time_major_forward(h, params.tensors[f"dec{i}.kernels"],
                                                         params.tensors[f"dec{i}.bias"],
                                                         step.stride, step.padding)
            h = np.tanh(h) if step.activation else h
        np.testing.assert_allclose(ae.reconstruct(params, x), time_major(h), rtol=0, atol=1e-12)

    def test_unbatched_epochs_rejected(self):
        params = ae.init_params(ae.AutoencoderSpec("beta", False, 8, 40), seed=5)
        with pytest.raises(ValueError, match=r"expected a batch of \(N, C, T\) epochs"):
            ae.decode(params, np.zeros((10, 4)))


class TestSelectArchitecture:
    def test_generating_architecture_wins_and_report_shape(self, rng):
        # data decoded from a beta-geometry generator: beta should beat alpha
        spec = ae.AutoencoderSpec("beta", False, 8, 40)
        gen = ae.init_params(spec, seed=21)
        n = 240
        z = rng.normal(size=(n, 10, 4))
        x = ae.decode(gen, z) + rng.normal(0, 0.01, size=(n, 8, 40))
        ds = ErpDataset(x, 250.0, -100.0, 60.0)
        meta = meta_rows(n)
        candidates = [
            ae.AutoencoderSpec("alpha", False, 8, 40),
            ae.AutoencoderSpec("beta", False, 8, 40),
        ]
        report = ae.select_architecture(ds, meta, candidates, k=3, seed=4,
                                        epochs=40, lr=0.003)
        assert report["winner"] == "beta"
        for name in ("alpha", "beta"):
            assert len(report["candidates"][name]["per_fold"]) == 3
        assert report["candidates"]["beta"]["mean_mse"] < report["candidates"]["alpha"]["mean_mse"]

    def test_seeded_determinism(self, rng):
        spec = ae.AutoencoderSpec("beta", True, 8, 40)
        ds = lowrank_dataset(rng, spec, n=60)
        candidates = [spec, ae.AutoencoderSpec("alpha", False, 8, 40)]
        a = ae.select_architecture(ds, meta_rows(60), candidates, k=3, seed=6, epochs=2)
        b = ae.select_architecture(ds, meta_rows(60), candidates, k=3, seed=6, epochs=2)
        assert a == b
        assert set(a["candidates"]) == {"beta:intercepts", "alpha"}


class TestParallelFits:
    """Independent fits run on a thread pool with the serial run's results."""

    def test_select_architecture_identical_serial_and_parallel(self, rng, monkeypatch):
        spec = ae.AutoencoderSpec("beta", True, 8, 40)
        ds = lowrank_dataset(rng, spec, n=60)
        candidates = [spec, ae.AutoencoderSpec("alpha", False, 8, 40)]
        reports = []
        for n in (1, 3):
            monkeypatch.setattr(ae, "_worker_count", lambda n_jobs, n=n: min(n, n_jobs))
            reports.append(json.dumps(ae.select_architecture(
                ds, meta_rows(60), candidates, k=3, seed=6, epochs=2)))
        assert reports[0] == reports[1]

    def test_worker_count_follows_affinity_and_job_count(self):
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        assert ae._worker_count(10**6) == cpus
        assert ae._worker_count(1) == 1

    def test_results_in_job_order(self, monkeypatch):
        monkeypatch.setattr(ae, "_worker_count", lambda n_jobs: 3)

        def job(i):
            time.sleep(0.002 * (i % 4))
            return i * i, threading.current_thread().name

        results = ae._run_jobs(job, [(i,) for i in range(12)])
        assert [r for r, _ in results] == [i * i for i in range(12)]
        # the calling thread is one of the three workers
        names = {name for _, name in results}
        assert names <= {threading.current_thread().name, "erpcoder-fit-1", "erpcoder-fit-2"}
        assert len(names) > 1

    def test_one_job_runs_on_the_calling_thread_and_no_jobs_on_none(self):
        results = ae._run_jobs(lambda i: (i, threading.current_thread().name), [(7,)])
        assert results == [(7, threading.current_thread().name)]
        assert ae._run_jobs(lambda i: i, []) == []

    def test_nested_call_runs_its_jobs_in_order_on_the_job_thread(self, monkeypatch):
        monkeypatch.setattr(ae, "_worker_count", lambda n_jobs: min(3, n_jobs))

        def outer(i):
            ran = []

            def inner(j):
                ran.append(j)
                return threading.get_ident()

            idents = ae._run_jobs(inner, [(j,) for j in range(6)])
            return ran, set(idents), threading.get_ident()

        for ran, inner_idents, ident in ae._run_jobs(outer, [(i,) for i in range(5)]):
            assert ran == list(range(6))
            assert inner_idents == {ident}

    def test_pretraining_shards_run_on_their_fold_thread(self, rng, monkeypatch):
        # select_architecture's fold jobs call pretrain, whose shards are jobs of
        # a nested _run_jobs call: each runs on the thread of its fold
        monkeypatch.setattr(ae, "_worker_count", lambda n_jobs: min(2, n_jobs))
        run_jobs = ae._run_jobs
        depth = threading.local()
        ran = []  # (nesting depth, caller thread, job thread)

        def recording(fn, jobs):
            level = getattr(depth, "level", 0)
            caller = threading.get_ident()

            def job(*args):
                depth.level = level + 1
                try:
                    ran.append((level, caller, threading.get_ident()))
                    return fn(*args)
                finally:
                    depth.level = level

            return run_jobs(job, jobs)

        spec = ae.AutoencoderSpec("beta", False, 8, 40)
        ds = lowrank_dataset(rng, spec, n=150)  # decodes on the pool before recording
        monkeypatch.setattr(ae, "_run_jobs", recording)
        ae.select_architecture(ds, meta_rows(150), [spec], k=3, seed=6, epochs=1)
        folds = [r for r in ran if r[0] == 0]
        shards = [r for r in ran if r[0] > 0]
        assert len(folds) == 3
        assert len({thread for _, _, thread in folds}) == 2
        assert len(shards) > len(folds)
        assert all(caller == thread for _, caller, thread in shards)

    def test_pretrain_identical_on_one_two_and_three_workers(self, rng, monkeypatch):
        # batches of 4 and 2 shards and a dev set of 2 chunks, with intercepts;
        # the first run has one worker per CPU of the affinity mask
        spec = ae.AutoencoderSpec("beta", True, 8, 40)
        ds = lowrank_dataset(rng, spec, n=300)
        meta = meta_rows(300, subjects=("s1", "s2", "s3"))
        runs = []
        for n in (None, 1, 2, 3):
            if n is not None:
                monkeypatch.setattr(ae, "_worker_count", lambda n_jobs, n=n: min(n, n_jobs))
            params, history = ae.pretrain(spec, ds, meta, epochs=2, seed=4)
            runs.append((params.tensors, history, ae.reconstruction_mse(params, ds, meta)))
        (tensors, history, mse), *others = runs
        for other_tensors, other_history, other_mse in others:
            assert other_tensors.keys() == tensors.keys()
            for name, t in tensors.items():
                assert other_tensors[name].tobytes() == t.tobytes(), name
            assert other_history == history
            assert other_mse == mse

    def test_every_job_runs_once_under_contention(self, monkeypatch):
        # more workers than CPUs, switching threads as often as the interpreter
        # allows: a job claimed twice or never shows in the counts
        monkeypatch.setattr(ae, "_worker_count", lambda n_jobs: 4)
        runs = [0] * 3000

        def job(i):
            runs[i] += 1
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = ae._run_jobs(job, [(i,) for i in range(3000)])
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(3000))
        assert runs == [1] * 3000

    def test_first_failure_in_job_order_raises_and_cancels_the_rest(self, monkeypatch):
        monkeypatch.setattr(ae, "_worker_count", lambda n_jobs: 3)
        ran = []

        def job(i):
            ran.append(i)
            if i == 0:
                time.sleep(0.1)  # job 1 fails first in time, job 0 first in order
                raise RuntimeError("job 0 failed")
            if i == 1:
                raise RuntimeError("job 1 failed")
            time.sleep(0.02)

        with pytest.raises(RuntimeError, match="^job 0 failed$"):
            ae._run_jobs(job, [(i,) for i in range(40)])
        assert len(ran) < 40


class TestFitOnRows:
    """Pretraining on rows read in place gives the bits of pretraining on a
    copy of those rows."""

    @pytest.mark.parametrize("arch, intercepts, fold", [
        ("beta", False, "fold"), ("alpha", False, "fold"), ("beta", True, "fold"),
        ("beta", True, "no_s3")], ids=["beta", "alpha", "beta-intercepts",
                                      "intercepts-without-a-subject"])
    def test_pretrain_on_rows_equals_pretrain_on_copies(self, rng, arch, intercepts, fold):
        spec = ae.AutoencoderSpec(arch, intercepts, 8, 40)
        ds = lowrank_dataset(rng, spec, n=150)
        meta = meta_rows(150, subjects=("s1", "s2", "s3"))
        if fold == "fold":
            tr = kfold_split(150, 5, seed=3).train_indices(2)
        else:  # a fold that holds none of s3's trials: its table has two rows
            tr = np.array([i for i, m in enumerate(meta) if m.subject_id != "s3"])
        kw = dict(epochs=2, batch_size=48, lr=0.003, seed=11)
        params, history = ae.pretrain(spec, ds, meta, rows=tr, **kw)
        copies, copies_history = ae.pretrain(spec, ds.subset(tr), [meta[i] for i in tr], **kw)
        assert params.subjects == copies.subjects
        if fold == "no_s3":
            assert params.subjects == ("s1", "s2")
        assert list(params.tensors) == list(copies.tensors)
        for name, t in copies.tensors.items():
            assert params.tensors[name].tobytes() == t.tobytes(), name
        assert history == copies_history

    @pytest.mark.parametrize("rows, message", [
        ([], "rows must be a non-empty 1-D list of trial indices"),
        (np.zeros((2, 2), dtype=int), "rows must be a non-empty 1-D list of trial indices"),
        ([0, 40], r"rows must be trial indices in range\(40\)"),
        ([-1, 3], r"rows must be trial indices in range\(40\)"),
        ([0.0, 1.0], r"rows must be trial indices in range\(40\)"),
    ], ids=["empty", "2d", "above", "negative", "float"])
    def test_bad_rows_rejected_before_any_step(self, rng, monkeypatch, rows, message):
        spec = ae.AutoencoderSpec("beta", False, 8, 50)
        ds = lowrank_dataset(rng, spec, n=40)
        monkeypatch.setattr(nn, "adam_step", lambda *args, **kw: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            ae.pretrain(spec, ds, meta_rows(40), rows=rows, epochs=1)

    @pytest.mark.parametrize("order", ["sorted", "unsorted", "repeated"])
    @pytest.mark.parametrize("intercepts", [False, True], ids=["plain", "intercepts"])
    def test_reconstruction_mse_on_rows_equals_mse_of_subset(self, rng, order, intercepts):
        # 2 * CHUNK_ROWS + 9 of 150 trials: two full chunks and a ragged one
        spec = ae.AutoencoderSpec("beta", intercepts, 8, 40)
        subjects = ("s1", "s2", "s3")
        params = ae.init_params(spec, seed=5, subjects=subjects if intercepts else None)
        if intercepts:
            params.tensors["intercepts"][:] = rng.normal(size=(3, 8))
        ds, meta = lowrank_dataset(rng, spec, n=150), meta_rows(150, subjects=subjects)
        idx = sample_rows(rng, 150, 2 * ae.CHUNK_ROWS + 9, order)
        assert ae.reconstruction_mse(params, ds, meta, rows=idx) == \
            ae.reconstruction_mse(params, ds.subset(idx), [meta[i] for i in idx])

    @pytest.mark.parametrize("rows, message", bad_rows(40))
    def test_bad_rows_rejected_by_reconstruction_mse(self, rng, rows, message):
        spec = ae.AutoencoderSpec("beta", False, 8, 50)
        params, ds = ae.init_params(spec, seed=5), lowrank_dataset(rng, spec, n=40)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ae.reconstruction_mse(params, ds, meta_rows(40), rows=rows)

    def test_select_architecture_scores_the_held_out_rows(self, rng):
        # each fold's mse is the score of a copy of its held-out trials, and
        # its r2 takes their variance
        spec = ae.AutoencoderSpec("beta", True, 8, 40)
        ds, meta = lowrank_dataset(rng, spec, n=60), meta_rows(60)
        report = ae.select_architecture(ds, meta, [spec], k=3, seed=6, epochs=1)
        folds = kfold_split(60, 3, 6)
        seed = int(np.random.default_rng(6).integers(2**63))
        tr, te = folds.train_indices(0), folds.test_indices(0)
        params, _ = ae.pretrain(spec, ds, meta, rows=tr, epochs=1, seed=seed)
        mse = ae.reconstruction_mse(params, ds.subset(te), [meta[i] for i in te])
        first = report["candidates"]["beta:intercepts"]["per_fold"][0]
        assert first["mse"] == mse
        assert first["r2"] == pytest.approx(1.0 - mse / ds.data[te].var(), rel=1e-12, abs=0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        spec = ae.AutoencoderSpec("beta", True, 8, 50)
        params = ae.init_params(spec, seed=1, subjects=("s1", "s2"))
        params.tensors["intercepts"][:] = rng.normal(size=(2, 8))
        ae.save_autoencoder(tmp_path / "model", params)
        loaded = ae.load_autoencoder(tmp_path / "model")
        assert loaded.spec == spec
        assert loaded.plan == params.plan
        assert loaded.subjects == ("s1", "s2")
        for k in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[k], params.tensors[k])

    @pytest.mark.parametrize("tensor", ["enc0.kernels", "enc2.bias", "dec1.kernels",
                                        "intercepts"])
    def test_missing_tensor_rejected(self, tmp_path, tensor):
        params = ae.init_params(ae.AutoencoderSpec("beta", True, 8, 50), seed=1,
                                subjects=("s1",))
        ae.save_autoencoder(tmp_path / "model", params)
        kind, meta, tensors = load_checkpoint(tmp_path / "model")
        del tensors[tensor]
        save_checkpoint(tmp_path / "model", kind, meta, tensors)
        with pytest.raises(FormatError,
                           match=f"model.ckpt.json: checkpoint has no tensor '{tensor}'"):
            ae.load_autoencoder(tmp_path / "model")

    @pytest.mark.parametrize("intercepts, tensor", [
        (False, "dec7.bias"), (False, "intercepts"), (True, "enc9.kernels")])
    def test_extra_tensor_rejected(self, tmp_path, intercepts, tensor):
        # an extra decoder tensor used to load, change decoder_digest() and be
        # written back out by save_autoencoder
        params = ae.init_params(ae.AutoencoderSpec("beta", intercepts, 8, 50), seed=1,
                                subjects=("s1",))
        ae.save_autoencoder(tmp_path / "model", params)
        kind, meta, tensors = load_checkpoint(tmp_path / "model")
        save_checkpoint(tmp_path / "model", kind, meta, {**tensors, tensor: np.ones((1, 8))})
        with pytest.raises(FormatError) as err:
            ae.load_autoencoder(tmp_path / "model")
        assert str(err.value) == (
            f"{tmp_path / 'model.ckpt.json'}: checkpoint has unexpected tensor {tensor!r}")

    @pytest.mark.parametrize("tensor, stored, expected", [
        ("dec1.kernels", [32, 16, 9], [16, 32, 9]),  # same byte count, axes swapped
        ("enc0.bias", [16, 1], [16]),
        ("intercepts", [1, 32], [2, 32]),
    ])
    def test_wrong_tensor_shape_rejected(self, tmp_path, tensor, stored, expected):
        params = ae.init_params(ae.AutoencoderSpec("beta", True, 32, 200), seed=1,
                                subjects=("s1", "s2"))
        ae.save_autoencoder(tmp_path / "model", params)
        kind, meta, tensors = load_checkpoint(tmp_path / "model")
        tensors[tensor] = np.resize(tensors[tensor].ravel(), stored)
        save_checkpoint(tmp_path / "model", kind, meta, tensors)
        with pytest.raises(FormatError, match=re.escape(
                f"model.ckpt.json: tensor '{tensor}' has shape {stored}, expected {expected}")):
            ae.load_autoencoder(tmp_path / "model")

    def test_init_builds_the_loader_shapes(self):
        spec = ae.AutoencoderSpec("alpha", True, 32, 200)
        params = ae.init_params(spec, seed=1, subjects=("a", "b", "c"))
        assert {k: v.shape for k, v in params.tensors.items()} == ae.tensor_shapes(spec, 3)

    def test_decoder_digest_stable(self, tmp_path):
        params = ae.init_params(ae.AutoencoderSpec("beta", False, 8, 50), seed=1)
        d1 = params.decoder_digest()
        params.tensors["enc0.kernels"][0, 0, 0] += 1.0  # encoder change is invisible
        assert params.decoder_digest() == d1
        params.tensors["dec0.kernels"][0, 0, 0] += 1.0
        assert params.decoder_digest() != d1
