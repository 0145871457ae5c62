"""Architecture geometry, intercepts, pretraining and selection tests."""

import json
import os
import re
import threading
import time

import numpy as np
import pytest

from erpcoder import autoencoder as ae
from erpcoder import cli, nn, synth
from erpcoder.checkpoint import load_checkpoint, save_checkpoint
from erpcoder.data import ErpDataset, FormatError, TrialMeta


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
        assert ae.reconstruction_mse(params, dataset, meta, idx) == \
            pytest.approx(unchunked, rel=1e-12, abs=0)

    def test_no_trials_rejected(self):
        params = ae.init_params(ae.AutoencoderSpec("beta", False, 4, 20), seed=3)
        dataset = ErpDataset(np.zeros((2, 4, 20)), 250.0, -100.0, -20.0)
        with pytest.raises(ValueError, match="no trials to score"):
            ae.reconstruction_mse(params, dataset, meta_rows(2), [])


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
        x = rng.normal(size=(5, 4, 20)) * 0.5
        subj_rows = np.array([0, 1, 0, 1, 1])

        def fn(table):
            z, _ = ae._encoder_forward(params, x)
            y, _ = ae._decoder_forward(params, z)
            y = y + table[subj_rows][:, :, None]
            loss, gl = nn.mse_loss(y, x)
            grad = np.zeros_like(table)
            np.add.at(grad, subj_rows, gl.sum(axis=-1))
            return loss, grad

        assert nn.finite_difference_check(fn, rng.normal(size=(2, 4))) < 1e-6

    def test_stack_gradient_matches_finite_differences(self, rng):
        params = ae.init_params(ae.AutoencoderSpec("beta", False, 4, 20), seed=2)
        x0 = rng.normal(size=(2, 4, 20)) * 0.5
        target = rng.normal(size=(2, 4, 20))

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
        assert hist.restored_to_best

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_divergence_names_value_epoch_and_batch(self, rng, monkeypatch, bad):
        # 108 training trials in batches of 32: 4 batch losses and one dev loss
        # per epoch, so the 7th loss is epoch 1, batch 1
        spec = ae.AutoencoderSpec("beta", False, 8, 50)
        ds = lowrank_dataset(rng, spec, n=120)
        mse_loss = nn.mse_loss
        calls = []

        def diverging_mse(pred, target):
            calls.append(None)
            loss, grad = mse_loss(pred, target)
            return (bad if len(calls) == 7 else loss), grad

        monkeypatch.setattr(nn, "mse_loss", diverging_mse)
        with pytest.raises(RuntimeError, match=f"diverged to {bad} at epoch 1, batch 1$"):
            ae.pretrain(spec, ds, meta_rows(120), epochs=3, batch_size=32, seed=3)

    def test_empty_dataset_rejected(self):
        spec = ae.AutoencoderSpec("beta", False, 8, 50)
        ds = ErpDataset(np.zeros((0, 8, 50)), 250.0, -100.0, 100.0)
        with pytest.raises(ValueError, match="empty"):
            ae.pretrain(spec, ds, [], epochs=1)


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
        assert all(name.startswith("erpcoder-fit") for _, name in results)

    def test_one_job_runs_on_a_pool_of_one_and_no_jobs_on_none(self):
        results = ae._run_jobs(lambda i: (i, threading.current_thread().name), [(7,)])
        assert results[0][0] == 7 and results[0][1].startswith("erpcoder-fit")
        assert ae._run_jobs(lambda i: i, []) == []

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
