"""CLI pipeline, exit codes, manifests, and determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from erpcoder import cli, metrics
from erpcoder.autoencoder import AutoencoderSpec, init_params, load_autoencoder, save_autoencoder
from erpcoder.checkpoint import load_checkpoint, save_checkpoint
from erpcoder.data import (ErpDataset, TrialMeta, filter_artifacts, load_counts, load_erp,
                           load_token_features, save_erp)
from erpcoder.encoding import load_encoding_model, predict_erp
from erpcoder.features import FeatureSpec, assemble


SYNTH_CONFIG = {
    "n_subjects": 2, "n_sentences": 25, "words_per_sentence": 4,
    "n_channels": 6, "n_timepoints": 40, "sampling_rate_hz": 250.0,
    "epoch_start_ms": -100.0, "architecture": "beta", "noise_sd": 0.05,
    "driving": ["frequency", "surprisal"], "drive_scales": None,
    "driven_latent_timepoints": None, "vocab_size": 30, "static_dim": 5,
    "contextual_dim": 6, "artifact_rate": 0.05, "latent_bias_sd": 0.5, "seed": 4,
}


def write_config(tmp_path) -> Path:
    p = tmp_path / "synth.json"
    p.write_text(json.dumps(SYNTH_CONFIG))
    return p


def run(args) -> int:
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One complete pipeline run shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("pipeline")
    config = write_config(root)
    assert run(["synth", "--config", config, "--out", root / "d"]) == 0
    assert run(["pretrain", "--data", root / "d" / "data", "--arch", "beta",
                "--epochs", 20, "--lr", 0.003, "--seed", 1, "--out", root / "m"]) == 0
    assert run(["fit", "--decoder", root / "m" / "autoencoder",
                "--data", root / "d" / "data", "--sources", "constant",
                "--epochs", 15, "--lr", 0.005, "--seed", 2, "--out", root / "e0"]) == 0
    assert run(["fit", "--decoder", root / "m" / "autoencoder",
                "--data", root / "d" / "data", "--sources", "frequency,surprisal",
                "--features", root / "d" / "tokens.feat.tsv",
                "--counts", root / "d" / "counts.tsv",
                "--wd", 1e-5, "--epochs", 15, "--lr", 0.005, "--seed", 2,
                "--out", root / "e1"]) == 0
    return root


class TestPipeline:
    def test_outputs_exist(self, pipeline):
        assert (pipeline / "d" / "data.erp.bin").exists()
        assert (pipeline / "m" / "autoencoder.ckpt.bin").exists()
        assert (pipeline / "e1" / "model.ckpt.json").exists()
        for sub in ("d", "m", "e0", "e1"):
            assert (pipeline / sub / "manifest.json").exists()

    def test_manifest_contents(self, pipeline):
        manifest = json.loads((pipeline / "e1" / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["config"]["sources"] == ["frequency", "surprisal"]
        assert manifest["config"]["seed"] == 2
        hashed = [f["sha256"] for group in manifest["inputs"].values() for f in group]
        assert all(len(h) == 64 for h in hashed)
        assert "out" not in manifest["config"]

    def test_evaluate_and_reports(self, pipeline, capsys):
        assert run(["evaluate", "--model", pipeline / "e1" / "model",
                    "--intercept", pipeline / "e0" / "model",
                    "--autoencoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data",
                    "--features", pipeline / "d" / "tokens.feat.tsv",
                    "--counts", pipeline / "d" / "counts.tsv",
                    "--out", pipeline / "v"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # results go to files, stdout stays clean
        report = json.loads((pipeline / "v" / "report.json").read_text())
        assert report["mse_intercept"] > report["mse_autoencoder"]
        manifest = json.loads((pipeline / "v" / "manifest.json").read_text())
        assert manifest["config"] == {}
        assert set(manifest["inputs"]) == {"autoencoder", "model", "intercept", "data",
                                           "token_features", "counts"}
        assert "r2_mod" in report

    def test_timecourse_and_words(self, pipeline):
        common = ["--autoencoder", pipeline / "m" / "autoencoder",
                  "--data", pipeline / "d" / "data",
                  "--features", pipeline / "d" / "tokens.feat.tsv",
                  "--counts", pipeline / "d" / "counts.tsv"]
        assert run(["timecourse", "--model", pipeline / "e1" / "model",
                    "--intercept", pipeline / "e0" / "model", *common,
                    "--window", 5, "--out", pipeline / "t"]) == 0
        lines = (pipeline / "t" / "timecourse.tsv").read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split("\t") == ["timepoint", "ms", "increase", "increase_smoothed"]
        n_rows = sum(1 for l in lines if not l.startswith("#")) - 1
        assert n_rows == 40

        assert run(["export-words", "--model", pipeline / "e1" / "model", *common,
                    "--out", pipeline / "w"]) == 0
        summary = json.loads((pipeline / "w" / "word_class_summary.json").read_text())
        assert set(summary) == {"content", "function"}

    def test_timecourse_on_intercept_decoder(self, pipeline, tmp_path):
        data = pipeline / "d" / "data"
        tables = {"token_features": pipeline / "d" / "tokens.feat.tsv",
                  "counts": pipeline / "d" / "counts.tsv"}
        assert run(["pretrain", "--data", data, "--arch", "beta", "--intercepts",
                    "--epochs", 5, "--lr", 0.003, "--seed", 1, "--out", tmp_path / "mi"]) == 0
        ae_path = tmp_path / "mi" / "autoencoder"
        for name, sources in (("e0", "constant"), ("e1", "frequency,surprisal")):
            assert run(["fit", "--decoder", ae_path, "--data", data, "--sources", sources,
                        "--features", tables["token_features"], "--counts", tables["counts"],
                        "--epochs", 5, "--lr", 0.005, "--seed", 2,
                        "--out", tmp_path / name]) == 0
        assert run(["timecourse", "--model", tmp_path / "e1" / "model",
                    "--intercept", tmp_path / "e0" / "model", "--autoencoder", ae_path,
                    "--data", data, "--features", tables["token_features"],
                    "--counts", tables["counts"], "--window", 5, "--out", tmp_path / "t"]) == 0

        ae = load_autoencoder(ae_path)
        assert ae.spec.intercepts and np.any(ae.tensors["intercepts"])
        dataset, meta = filter_artifacts(*load_erp(data), include_first_word=False)
        subjects = [m.subject_id for m in meta]
        assert len(set(subjects)) == 2

        def predict(name):
            model = load_encoding_model(tmp_path / name / "model", ae)
            fm = assemble(FeatureSpec(model.sources), meta,
                          counts_table=load_counts(tables["counts"]),
                          token_features=load_token_features(tables["token_features"]))
            return predict_erp(model, fm, subjects)

        series = metrics.timepoint_correlation_increase(
            predict("e1"), predict("e0"), dataset.data, dataset.time_axis_ms())
        smoothed = metrics.moving_average_smooth(series, 5)
        rows = [line.split("\t") for line in
                (tmp_path / "t" / "timecourse.tsv").read_text().splitlines()
                if not line.startswith("#")][1:]
        written = np.array([[float(v) for v in row[1:]] for row in rows])
        np.testing.assert_array_equal(
            written, np.stack([series.ms_axis, series.values, smoothed.values], axis=1))

    def test_suite_command(self, pipeline):
        config = {
            "data": str(pipeline / "d" / "data"),
            "decoder": str(pipeline / "m" / "autoencoder"),
            "counts": str(pipeline / "d" / "counts.tsv"),
            "token_features": str(pipeline / "d" / "tokens.feat.tsv"),
            "roster": [
                {"name": "intercept", "sources": ["constant"]},
                {"name": "frequency", "sources": ["frequency"]},
            ],
            "folds": 2, "seed": 3, "weight_decay": 1e-5, "epochs": 8, "lr": 0.005,
        }
        p = pipeline / "suite.json"
        p.write_text(json.dumps(config))
        assert run(["suite", "--config", p, "--out", pipeline / "r"]) == 0
        summary = (pipeline / "r" / "summary.tsv").read_text()
        assert "intercept" in summary and "frequency" in summary
        suite = json.loads((pipeline / "r" / "suite.json").read_text())
        assert len(suite["fold_digest"]) == 64

    def test_select_arch_report_layout(self, pipeline):
        assert run(["select-arch", "--data", pipeline / "d" / "data",
                    "--folds", 2, "--epochs", 4, "--lr", 0.003, "--seed", 5,
                    "--out", pipeline / "s"]) == 0
        report = json.loads((pipeline / "s" / "report.json").read_text())
        assert set(report["candidates"]) == {"alpha", "beta"}
        for entry in report["candidates"].values():
            assert "mean_mse" in entry and "mean_r2" in entry
            assert len(entry["per_fold"]) == 2
        assert report["winner"] in ("alpha", "beta")

    def test_select_arch_intercept_variants(self, pipeline):
        assert run(["select-arch", "--data", pipeline / "d" / "data",
                    "--intercepts", "--folds", 2, "--epochs", 3, "--lr", 0.003,
                    "--seed", 5, "--out", pipeline / "si"]) == 0
        report = json.loads((pipeline / "si" / "report.json").read_text())
        assert set(report["candidates"]) == {
            "alpha", "alpha:intercepts", "beta", "beta:intercepts"}


class TestExitCodes:
    def test_unknown_flag_is_2(self, tmp_path, capsys):
        assert run(["synth", "--config", "x.json", "--out", tmp_path, "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_file_is_3(self, tmp_path, capsys):
        code = run(["pretrain", "--data", tmp_path / "nope", "--out", tmp_path / "o"])
        assert code == 3
        assert "error: MissingFile:" in capsys.readouterr().err

    def test_format_violation_is_4(self, tmp_path, capsys):
        base = tmp_path / "bad"
        (tmp_path / "bad.erp.json").write_text(
            '{"dtype": "f64le", "shape": [2, 2, 10], "sampling_rate_hz": 250.0,'
            ' "epoch_start_ms": 0.0, "epoch_end_ms": 40.0}')
        (tmp_path / "bad.erp.bin").write_bytes(b"\x00" * 16)  # truncated
        code = run(["pretrain", "--data", base, "--out", tmp_path / "o"])
        assert code == 4
        assert "error: FormatViolation:" in capsys.readouterr().err

    def test_nan_payload_is_4(self, tmp_path, capsys):
        rows = np.ones((2, 2, 10))
        rows[1, 0, 4] = np.nan
        meta = [TrialMeta("s1", 0, i + 1, "w", "content", "NN", False) for i in range(2)]
        save_erp(tmp_path / "nan", ErpDataset(rows, 250.0, 0.0, 40.0), meta)
        code = run(["pretrain", "--data", tmp_path / "nan", "--out", tmp_path / "o"])
        assert code == 4
        err = capsys.readouterr().err
        assert "error: FormatViolation:" in err and "non-finite" in err

    @pytest.mark.parametrize("config", [{"n_subject": 2}, {"n_subjects": "two"}, [1, 2]],
                             ids=["unknown_key", "wrong_type", "not_object"])
    def test_malformed_synth_config_is_4(self, tmp_path, capsys, config):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(config))
        assert run(["synth", "--config", path, "--out", tmp_path / "o"]) == 4
        assert "error: FormatViolation: synth config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit", [
        lambda m: m.update(tensors=5),
        lambda m: m.update(meta=[]),
        lambda m: m["tensors"][0].update(shape="ab"),
        lambda m: m["tensors"][0].pop("name"),
    ], ids=["tensors_5", "meta_list", "shape_ab", "no_name"])
    def test_malformed_decoder_manifest_is_4(self, pipeline, tmp_path, capsys, edit):
        for suffix in (".ckpt.json", ".ckpt.bin"):
            (tmp_path / f"ae{suffix}").write_bytes(
                (pipeline / "m" / f"autoencoder{suffix}").read_bytes())
        manifest = json.loads((tmp_path / "ae.ckpt.json").read_text())
        edit(manifest)
        (tmp_path / "ae.ckpt.json").write_text(json.dumps(manifest))
        code = run(["fit", "--decoder", tmp_path / "ae", "--data", pipeline / "d" / "data",
                    "--sources", "constant", "--out", tmp_path / "o"])
        assert code == 4
        assert "error: FormatViolation:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.update(roster=[1]), "roster entry 0 is not a JSON object"),
        (lambda c: c["roster"][1].pop("sources"), "roster entry 1 is missing 'sources'"),
        (lambda c: c["roster"][0].update(sources="constant"), "roster entry 0: 'sources' needs"),
        (lambda c: c["roster"][0].update(name=7), "roster entry 0: 'name' needs str"),
        (lambda c: c.update(roster={"name": "x"}), "suite config: 'roster' needs list"),
        (lambda c: c.update(data=5), "suite config: 'data' needs str"),
        (lambda c: c.pop("decoder"), "suite config is missing 'decoder'"),
    ], ids=["roster_int", "no_sources", "sources_string", "name_int", "roster_object",
            "data_int", "no_decoder"])
    def test_malformed_suite_config_is_4(self, pipeline, tmp_path, capsys, edit, message):
        config = {"data": str(pipeline / "d" / "data"),
                  "decoder": str(pipeline / "m" / "autoencoder"),
                  "roster": [{"name": "intercept", "sources": ["constant"]},
                             {"name": "frequency", "sources": ["frequency"]}]}
        edit(config)
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        assert run(["suite", "--config", path, "--out", tmp_path / "o"]) == 4
        err = capsys.readouterr().err
        assert f"error: FormatViolation: {path}: suite config" in err and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("folds", "5"), ("folds", True), ("seed", 1.5), ("epochs", "3"), ("batch", 32.0),
        ("lr", "0.01"), ("dev_fraction", None), ("weight_decay", "x"),
        ("ceiling_mse", "abc"), ("ceiling_mse", [0.1, "a"]), ("counts", 5),
        ("embeddings", ["e.txt"]), ("token_features", None),
    ])
    def test_suite_config_value_of_wrong_type_is_4(self, pipeline, tmp_path, capsys, key, value):
        config = {"data": str(pipeline / "d" / "data"),
                  "decoder": str(pipeline / "m" / "autoencoder"),
                  "roster": [{"name": "intercept", "sources": ["constant"]},
                             {"name": "frequency", "sources": ["frequency"]}],
                  "folds": 2, "epochs": 1, "counts": str(pipeline / "d" / "counts.tsv"),
                  key: value}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        assert run(["suite", "--config", path, "--out", tmp_path / "o"]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: FormatViolation: {path}: suite config: {key!r} needs ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["synth", "suite"])
    def test_invalid_json_config_is_4(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text("{bad")
        assert run([command, "--config", path, "--out", tmp_path / "o"]) == 4
        assert f"error: FormatViolation: {path}: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("spec"), "meta is missing 'spec'"),
        (lambda m: m["spec"].update(n_channels="six"), "meta 'spec': 'n_channels' needs int"),
        (lambda m: m["spec"].update(intercepts=0), "meta 'spec': 'intercepts' needs bool"),
        (lambda m: m["spec"].pop("architecture"), "meta 'spec' is missing 'architecture'"),
        (lambda m: m.update(subjects=5), "meta: 'subjects' needs tuple[str, ...] | None"),
        (lambda m: m.pop("plan"), "meta is missing 'plan'"),
        (lambda m: m["spec"].update(architecture="gamma"),
         "meta 'spec': unknown architecture 'gamma'"),
    ], ids=["no_spec", "n_channels_string", "intercepts_int", "no_architecture",
            "subjects_int", "no_plan", "unknown_architecture"])
    def test_malformed_decoder_meta_is_4(self, pipeline, tmp_path, capsys, edit, message):
        manifest = self._copy_checkpoint(pipeline / "m" / "autoencoder", tmp_path / "ae")
        edit(manifest["meta"])
        (tmp_path / "ae.ckpt.json").write_text(json.dumps(manifest))
        code = run(["fit", "--decoder", tmp_path / "ae", "--data", pipeline / "d" / "data",
                    "--sources", "constant", "--out", tmp_path / "o"])
        assert code == 4
        err = capsys.readouterr().err
        assert f"error: FormatViolation: {tmp_path / 'ae.ckpt.json'}: {message}" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("weight_decay"), "meta is missing 'weight_decay'"),
        (lambda m: m.update(sources="constant"), "meta: 'sources' needs tuple[str, ...]"),
        (lambda m: m.update(decoder_digest=None), "meta: 'decoder_digest' needs str"),
        (lambda m: m["tuner"].update(hidden_size="64"), "meta 'tuner': 'hidden_size' needs int"),
        (lambda m: m["tuner"].update(output_size=1.5),
         "meta 'tuner': 'output_size' needs int | None"),
        (lambda m: m.update(sources=["bogus"]),
         "meta 'sources': unknown feature sources ['bogus']"),
        (lambda m: m["tuner"].update(enabled=0), "meta 'tuner': 'enabled' needs bool"),
        (lambda m: m["tuner"].update(hidden_size=64.0), "meta 'tuner': 'hidden_size' needs int"),
        # well-typed, but not the record the sources imply
        (lambda m: m["tuner"].update(enabled=True),
         "meta 'tuner' is {'enabled': True, 'hidden_size': 64, 'output_size': None}, "
         "sources ['constant'] imply {'enabled': False, 'hidden_size': 64, 'output_size': None}"),
        (lambda m: m["tuner"].update(hidden_size=32),
         "meta 'tuner' is {'enabled': False, 'hidden_size': 32, 'output_size': None}, "),
        # the constant model's record, under an embedding source and column
        (lambda m: m.update(sources=["static_embedding"], feature_names=["static_embedding.0"]),
         "meta 'tuner' is {'enabled': False, 'hidden_size': 64, 'output_size': None}, "
         "sources ['static_embedding'] imply {'enabled': True, "),
        # well-typed sources that are not those of the stored columns
        (lambda m: m.update(sources=["frequency"]),
         "meta 'sources': feature columns ['constant'] are not the columns ['frequency'] "
         "of sources ['frequency']"),
    ], ids=["no_weight_decay", "sources_string", "digest_null", "hidden_size_string",
            "output_size_float", "unknown_source", "enabled_int", "hidden_size_float",
            "tuner_without_embedding", "hidden_size_32", "embedding_without_tuner",
            "sources_not_the_columns"])
    def test_malformed_model_meta_is_4(self, pipeline, tmp_path, capsys, edit, message):
        manifest = self._copy_checkpoint(pipeline / "e0" / "model", tmp_path / "model")
        edit(manifest["meta"])
        (tmp_path / "model.ckpt.json").write_text(json.dumps(manifest))
        code = run(["export-words", "--model", tmp_path / "model",
                    "--autoencoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data", "--out", tmp_path / "o"])
        assert code == 4
        err = capsys.readouterr().err
        assert f"error: FormatViolation: {tmp_path / 'model.ckpt.json'}: {message}" in err

    def test_missing_model_tensor_is_4(self, pipeline, tmp_path, capsys):
        self._copy_checkpoint(pipeline / "e0" / "model", tmp_path / "model")
        kind, meta, tensors = load_checkpoint(tmp_path / "model")
        del tensors["standardizer.scale"]
        save_checkpoint(tmp_path / "model", kind, meta, tensors)
        code = run(["export-words", "--model", tmp_path / "model",
                    "--autoencoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data", "--out", tmp_path / "o"])
        assert code == 4
        assert (f"error: FormatViolation: {tmp_path / 'model.ckpt.json'}: checkpoint has no "
                f"tensor 'standardizer.scale'") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nan_decoder_tensor_is_4(self, pipeline, tmp_path, capsys):
        self._copy_checkpoint(pipeline / "m" / "autoencoder", tmp_path / "ae")
        kind, meta, tensors = load_checkpoint(tmp_path / "ae")
        tensors["dec1.kernels"][2, 3, 4] = np.nan
        save_checkpoint(tmp_path / "ae", kind, meta, tensors)
        code = run(["fit", "--decoder", tmp_path / "ae", "--data", pipeline / "d" / "data",
                    "--sources", "constant", "--out", tmp_path / "o"])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: FormatViolation: {tmp_path / 'ae.ckpt.bin'}: tensor 'dec1.kernels' has 1 "
            f"non-finite values (NaN or inf); first at index (2, 3, 4)"]
        assert not (tmp_path / "o").exists()

    def test_inf_model_tensor_is_4(self, pipeline, tmp_path, capsys):
        self._copy_checkpoint(pipeline / "e1" / "model", tmp_path / "model")
        kind, meta, tensors = load_checkpoint(tmp_path / "model")
        tensors["interface.weights"][0, 1, 1] = np.inf
        tensors["interface.weights"][3, 0, 0] = -np.inf
        save_checkpoint(tmp_path / "model", kind, meta, tensors)
        code = run(["evaluate", "--model", tmp_path / "model",
                    "--intercept", pipeline / "e0" / "model",
                    "--autoencoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data",
                    "--features", pipeline / "d" / "tokens.feat.tsv",
                    "--counts", pipeline / "d" / "counts.tsv", "--out", tmp_path / "o"])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: FormatViolation: {tmp_path / 'model.ckpt.bin'}: tensor 'interface.weights' "
            f"has 2 non-finite values (NaN or inf); first at index (0, 1, 1)"]
        assert not (tmp_path / "o").exists()

    def test_wrongly_shaped_decoder_tensor_is_4(self, pipeline, tmp_path, capsys):
        # [16, 6, 9] stored as [6, 16, 9]: the payload still tiles, the kernels do not fit
        self._copy_checkpoint(pipeline / "m" / "autoencoder", tmp_path / "ae")
        kind, meta, tensors = load_checkpoint(tmp_path / "ae")
        tensors["dec1.kernels"] = tensors["dec1.kernels"].reshape(6, 16, 9)
        save_checkpoint(tmp_path / "ae", kind, meta, tensors)
        code = run(["fit", "--decoder", tmp_path / "ae", "--data", pipeline / "d" / "data",
                    "--sources", "constant", "--out", tmp_path / "o"])
        assert code == 4
        assert (f"error: FormatViolation: {tmp_path / 'ae.ckpt.json'}: tensor 'dec1.kernels' "
                f"has shape [6, 16, 9], expected [16, 6, 9]") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s.update(shape=5), "sidecar: 'shape' needs tuple[int, ...], got 5"),
        (lambda s: s.update(shape=[2, 2.0, 10]), "sidecar: 'shape' needs tuple[int, ...]"),
        (lambda s: s.update(sampling_rate_hz="250"), "sidecar: 'sampling_rate_hz' needs float"),
        (lambda s: s.update(dtype=None), "sidecar: 'dtype' needs str"),
        (lambda s: s.pop("epoch_end_ms"), "sidecar is missing 'epoch_end_ms'"),
        (lambda s: s.clear() or s.update(a=[1]), "sidecar is missing 'dtype'"),
    ], ids=["shape_int", "shape_float", "rate_string", "dtype_null", "no_epoch_end",
            "other_keys"])
    def test_malformed_sidecar_is_4(self, tmp_path, capsys, edit, message):
        meta = [TrialMeta("s1", 0, i + 1, "w", "content", "NN", False) for i in range(2)]
        save_erp(tmp_path / "set", ErpDataset(np.ones((2, 2, 10)), 250.0, 0.0, 40.0), meta)
        sidecar_path = tmp_path / "set.erp.json"
        sidecar = json.loads(sidecar_path.read_text())
        edit(sidecar)
        sidecar_path.write_text(json.dumps(sidecar))
        assert run(["pretrain", "--data", tmp_path / "set", "--out", tmp_path / "o"]) == 4
        assert f"error: FormatViolation: {sidecar_path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        # 8 * (2**61 + 5) wraps to 40 in int64, the payload's value count
        (lambda s: s.update(shape=[8, 2**61 + 5, 1]),
         f"set.erp.bin: expected {64 * (2**61 + 5)} bytes for shape (8, {2**61 + 5}, 1), "
         f"found 320"),
        (lambda s: s.update(sampling_rate_hz=0),
         "set.erp.json: epoch 0.0..40.0 ms at 0.0 Hz implies 0 timepoints, data has 10"),
        (lambda s: s.update(epoch_start_ms=-1e308, epoch_end_ms=1e308),
         "set.erp.json: epoch -1e+308..1e+308 ms at 250.0 Hz implies inf timepoints"),
    ], ids=["shape_wraps_in_int64", "rate_zero", "span_overflows"])
    def test_sidecar_geometry_mismatch_is_4(self, tmp_path, capsys, edit, message):
        meta = [TrialMeta("s1", 0, i + 1, "w", "content", "NN", False) for i in range(2)]
        save_erp(tmp_path / "set", ErpDataset(np.ones((2, 2, 10)), 250.0, 0.0, 40.0), meta)
        sidecar_path = tmp_path / "set.erp.json"
        sidecar = json.loads(sidecar_path.read_text())
        edit(sidecar)
        sidecar_path.write_text(json.dumps(sidecar))
        assert run(["pretrain", "--data", tmp_path / "set", "--out", tmp_path / "o"]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"error: FormatViolation: {tmp_path / message}")

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("file", ["synth_config", "suite_config", "sidecar", "manifest"])
    def test_non_finite_json_number_is_4(self, pipeline, tmp_path, capsys, file, literal):
        # json.loads reads each literal as a float (1e400 as inf) unless told not to;
        # "@" marks the number the literal replaces
        if file == "synth_config":
            path, doc = tmp_path / "synth.json", {**SYNTH_CONFIG, "noise_sd": "@"}
            args = ["synth", "--config", path]
        elif file == "suite_config":
            path = tmp_path / "suite.json"
            doc = {"data": str(pipeline / "d" / "data"),
                   "decoder": str(pipeline / "m" / "autoencoder"), "folds": 2, "epochs": 1,
                   "roster": [{"name": "intercept", "sources": ["constant"]}], "lr": "@"}
            args = ["suite", "--config", path]
        elif file == "sidecar":
            meta = [TrialMeta("s1", 0, i + 1, "w", "content", "NN", False) for i in range(2)]
            save_erp(tmp_path / "set", ErpDataset(np.ones((2, 2, 10)), 250.0, 0.0, 40.0), meta)
            path = tmp_path / "set.erp.json"
            doc = {**json.loads(path.read_text()), "sampling_rate_hz": "@"}
            args = ["pretrain", "--data", tmp_path / "set"]
        else:
            doc = self._copy_checkpoint(pipeline / "e0" / "model", tmp_path / "model")
            doc["meta"]["weight_decay"] = "@"
            path = tmp_path / "model.ckpt.json"
            args = ["export-words", "--model", tmp_path / "model",
                    "--autoencoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data"]
        path.write_text(json.dumps(doc).replace('"@"', literal))
        assert run([*args, "--out", tmp_path / "o"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: FormatViolation: {path}: invalid JSON: non-finite number {literal}"]
        assert not (tmp_path / "o").exists()

    def test_suite_config_unknown_key_is_4(self, pipeline, tmp_path, capsys):
        # a misspelt "epochs" used to be ignored, and the suite ran the 200-epoch default
        config = {"data": str(pipeline / "d" / "data"),
                  "decoder": str(pipeline / "m" / "autoencoder"), "folds": 2,
                  "roster": [{"name": "intercept", "sources": ["constant"]}], "epoch": 1}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        assert run(["suite", "--config", path, "--out", tmp_path / "o"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: FormatViolation: {path}: suite config has unknown key 'epoch'"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subjects, message", [
        (None, "must list the subjects of the intercept table, got None"),
        ([], "must list the subjects of the intercept table, got []"),
        (["s00", "s00"], "repeats ['s00']"),
    ], ids=["null", "empty", "repeated"])
    def test_intercept_checkpoint_subjects_checked(self, pipeline, tmp_path, capsys, subjects,
                                                   message):
        # a one-row table where the meta lists no subject: a zero-row table
        # would already fail the checkpoint's own shape check
        spec = AutoencoderSpec("beta", True, 6, 40)
        save_autoencoder(tmp_path / "ae", init_params(spec, seed=0, subjects=subjects or ["s00"]))
        kind, meta, tensors = load_checkpoint(tmp_path / "ae")
        save_checkpoint(tmp_path / "ae", kind, {**meta, "subjects": subjects}, tensors)
        code = run(["fit", "--decoder", tmp_path / "ae", "--data", pipeline / "d" / "data",
                    "--sources", "constant", "--epochs", 1, "--out", tmp_path / "o"])
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: FormatViolation: {tmp_path / 'ae.ckpt.json'}: meta 'subjects' {message}"]
        assert not (tmp_path / "o").exists()

    def test_spec_whose_plan_does_not_build_is_4(self, pipeline, tmp_path, capsys):
        manifest = self._copy_checkpoint(pipeline / "m" / "autoencoder", tmp_path / "ae")
        manifest["meta"]["spec"]["n_timepoints"] = 7  # the first pool does not tile it
        (tmp_path / "ae.ckpt.json").write_text(json.dumps(manifest))
        code = run(["fit", "--decoder", tmp_path / "ae", "--data", pipeline / "d" / "data",
                    "--sources", "constant", "--out", tmp_path / "o"])
        assert code == 4
        assert (f"error: FormatViolation: {tmp_path / 'ae.ckpt.json'}: meta 'spec': encoder "
                f"step 1: (7 - 5) % 5 = 2, pooling does not tile") in capsys.readouterr().err

    def test_model_of_another_decoder_is_4(self, pipeline, tmp_path, capsys):
        save_autoencoder(tmp_path / "ae", init_params(AutoencoderSpec("beta", False, 6, 40), 9))
        code = run(["export-words", "--model", pipeline / "e0" / "model",
                    "--autoencoder", tmp_path / "ae", "--data", pipeline / "d" / "data",
                    "--out", tmp_path / "o"])
        assert code == 4
        err = capsys.readouterr().err
        assert (f"error: FormatViolation: {pipeline / 'e0' / 'model.ckpt.json'}: decoder hash "
                in err and "does not match" in err)

    @staticmethod
    def _copy_checkpoint(source: Path, dest: Path) -> dict:
        """Copy a checkpoint's two files to ``dest``; returns its parsed manifest."""
        for suffix in (".ckpt.json", ".ckpt.bin"):
            dest.with_name(dest.name + suffix).write_bytes(
                source.with_name(source.name + suffix).read_bytes())
        return json.loads(source.with_name(source.name + ".ckpt.json").read_text())

    @pytest.mark.parametrize("command", [["evaluate", "--intercept", "i"],
                                         ["timecourse", "--intercept", "i"],
                                         ["export-words"]], ids=lambda c: c[0])
    def test_analysis_commands_take_no_seed(self, tmp_path, capsys, command):
        args = [*command, "--model", "m", "--autoencoder", "a", "--data", "d",
                "--out", tmp_path]
        assert run([*args, "--seed", 0]) == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
        assert run(args) == 3  # the same command without --seed parses

    def test_bad_sources_is_1(self, pipeline, capsys):
        code = run(["fit", "--decoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data", "--sources", "nonsense",
                    "--out", pipeline / "x"])
        assert code == 1
        assert "error: InvalidInput:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--batch", -5, "batch_size must be >= 1, got -5"),
        ("--epochs", 0, "epochs must be >= 1, got 0"),
    ], ids=["batch", "epochs"])
    def test_empty_training_schedule_is_1(self, pipeline, tmp_path, capsys, flag, value,
                                          message):
        code = run(["pretrain", "--data", pipeline / "d" / "data", "--arch", "beta",
                    flag, value, "--out", tmp_path / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: InvalidInput: {message}"]
        assert not (tmp_path / "o").exists()

    def test_failed_fit_leaves_no_out(self, pipeline, tmp_path, capsys):
        code = run(["fit", "--decoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data", "--sources", "constant",
                    "--epochs", 0, "--out", tmp_path / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: InvalidInput: epochs must be >= 1, got 0"]
        assert not (tmp_path / "o").exists()

    def test_non_finite_feature_is_4(self, pipeline, tmp_path, capsys):
        table = (pipeline / "d" / "tokens.feat.tsv").read_text().splitlines()
        row = table[1].split("\t")
        row[2] = "inf"
        bad = tmp_path / "bad.feat.tsv"
        bad.write_text("\n".join([table[0], "\t".join(row)] + table[2:]) + "\n")
        code = run(["fit", "--decoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data", "--sources", "surprisal",
                    "--features", bad, "--out", tmp_path / "o"])
        assert code == 4
        err = capsys.readouterr().err
        assert "error: FormatViolation:" in err and "line 2: non-finite value 'inf'" in err
        assert not (tmp_path / "o").exists()


class TestInputImmutability:
    def test_fit_leaves_inputs_untouched(self, pipeline, tmp_path):
        inputs = [pipeline / "d" / "data.erp.bin", pipeline / "d" / "data.meta.tsv",
                  pipeline / "d" / "counts.tsv",
                  pipeline / "m" / "autoencoder.ckpt.bin"]
        before = [p.read_bytes() for p in inputs]
        assert run(["fit", "--decoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data", "--sources", "frequency",
                    "--counts", pipeline / "d" / "counts.tsv",
                    "--wd-search", "--folds", 2, "--epochs", 3, "--lr", 0.005,
                    "--seed", 6, "--out", tmp_path / "ws"]) == 0
        assert [p.read_bytes() for p in inputs] == before
        report = json.loads((tmp_path / "ws" / "fit_report.json").read_text())
        assert report["weight_decay"] in (1e-5, 1e-3, 1e-1)
        assert len(report["wd_table"]) == 6  # grid of 3 x 2 folds


class TestDeterminism:
    def test_rerun_fit_bit_identical(self, pipeline, tmp_path):
        args = ["fit", "--decoder", pipeline / "m" / "autoencoder",
                "--data", pipeline / "d" / "data", "--sources", "frequency",
                "--counts", pipeline / "d" / "counts.tsv",
                "--wd", 1e-3, "--epochs", 6, "--lr", 0.005, "--seed", 7]
        assert run([*args, "--out", tmp_path / "a"]) == 0
        assert run([*args, "--out", tmp_path / "b"]) == 0
        for name in ("model.ckpt.bin", "model.ckpt.json", "history.json",
                     "fit_report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()
