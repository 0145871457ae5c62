"""CLI pipeline, exit codes, manifests, and determinism."""

import argparse
import hashlib
import inspect
import io
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from erpcoder import autoencoder, cli, encoding, metrics, nn
from erpcoder.autoencoder import AutoencoderSpec, init_params, load_autoencoder, save_autoencoder
from erpcoder.checkpoint import load_checkpoint, save_checkpoint
from erpcoder.data import (ErpDataset, TrialMeta, filter_artifacts, keep_mask, load_counts,
                           load_erp, load_token_features, save_erp)
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


def assert_digests_match_files(out_dir: Path) -> None:
    """Every input digest in ``out_dir``'s manifest is the sha256 of the named file."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    entries = [entry for group in manifest["inputs"].values() for entry in group]
    assert entries
    for entry in entries:
        assert entry["sha256"] == hashlib.sha256(
            Path(entry["path"]).read_bytes()).hexdigest(), entry["path"]


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


# Each subcommand's flags in declaration order (the order of --help):
# (option strings, dest, type, default, required, choices, nargs); nargs 0 is
# a switch
def _flag(option, dest=None, type=None, default=None, required=False, choices=None, nargs=None):
    return ((option,), dest or option[2:].replace("-", "_"), type, default, required, choices,
            nargs)


TABLE_FLAGS = [_flag("--features", "token_features"), _flag("--counts"),
               _flag("--embeddings")]
TRAINING_FLAGS = [_flag("--seed", type=int, default=0), _flag("--epochs", type=int),
                  _flag("--batch", type=int), _flag("--lr", type=float)]
OUT = _flag("--out", required=True)
SWITCH = {"default": False, "nargs": 0}
ANALYSIS_FLAGS = [_flag("--autoencoder", required=True), _flag("--data", required=True),
                  *TABLE_FLAGS]
FLAGS = {
    "synth": [_flag("--config", required=True), _flag("--seed", type=int), OUT],
    "pretrain": [_flag("--data", required=True),
                 _flag("--arch", default="beta", choices=("alpha", "beta")),
                 _flag("--intercepts", **SWITCH), *TRAINING_FLAGS, OUT],
    "select-arch": [_flag("--data", required=True), _flag("--intercepts", **SWITCH),
                    _flag("--folds", type=int, default=5), *TRAINING_FLAGS, OUT],
    "fit": [_flag("--decoder", required=True), _flag("--data", required=True),
            _flag("--sources", required=True), *TABLE_FLAGS, _flag("--wd", type=float),
            _flag("--wd-search", **SWITCH),
            _flag("--folds", type=int),  # None: not given, as a fit without --wd-search needs
            *TRAINING_FLAGS, OUT],
    "suite": [_flag("--config", required=True), OUT],
    "evaluate": [_flag("--model", required=True), _flag("--intercept", required=True),
                 *ANALYSIS_FLAGS, OUT],
    "timecourse": [_flag("--model", required=True), _flag("--intercept", required=True),
                   *ANALYSIS_FLAGS, _flag("--window", type=cli._smoothing_window, default=9),
                   OUT],
    "export-words": [_flag("--model", required=True), *ANALYSIS_FLAGS, OUT],
}


class TestParser:
    @staticmethod
    def subcommands() -> dict:
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return sub.choices

    def test_subcommands(self):
        assert list(self.subcommands()) == list(FLAGS)

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_flag_inventory(self, command):
        parser = self.subcommands()[command]
        flags = [(tuple(a.option_strings), a.dest, a.type, a.default, a.required, a.choices,
                  a.nargs)
                 for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert flags == FLAGS[command]
        exclusive = [[a.dest for a in group._group_actions]
                     for group in parser._mutually_exclusive_groups]
        assert exclusive == ([["wd", "wd_search"]] if command == "fit" else [])


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

    def test_fit_without_folds_records_the_search_default(self, pipeline):
        # manifests stay as they were before fit refused --folds without --wd-search
        for fit in ("e0", "e1"):
            config = json.loads((pipeline / fit / "manifest.json").read_text())["config"]
            assert (config["wd_search"], config["folds"]) == (False, 5)

    @pytest.mark.parametrize("command", ["m", "e0", "e1"])
    def test_manifest_digests_are_the_input_files_sha256(self, pipeline, command):
        # pretrain, fit without tables, fit with both tables
        assert_digests_match_files(pipeline / command)

    def test_evaluate_reads_the_payload_once(self, pipeline, tmp_path, monkeypatch):
        payload = pipeline / "d" / "data.erp.bin"
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == payload:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        assert run(["evaluate", "--model", pipeline / "e1" / "model",
                    "--intercept", pipeline / "e0" / "model",
                    "--autoencoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data",
                    "--features", pipeline / "d" / "tokens.feat.tsv",
                    "--counts", pipeline / "d" / "counts.tsv",
                    "--out", tmp_path / "v"]) == 0
        monkeypatch.undo()
        assert len(opened) == 1
        assert_digests_match_files(tmp_path / "v")

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_command_opens_each_checkpoint_payload_once(self, pipeline, tmp_path, monkeypatch,
                                                        command):
        payloads = {pipeline / sub / f"{name}.ckpt.bin"
                    for sub, name in (("m", "autoencoder"), ("e0", "model"), ("e1", "model"))}
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) in payloads:
                opened.append(Path(file))
            return real_open(file, *args, **kwargs)

        args = {"fit": ["fit", "--decoder", pipeline / "m" / "autoencoder",
                        "--sources", "constant", "--epochs", 1],
                "evaluate": ["evaluate", "--model", pipeline / "e1" / "model",
                             "--intercept", pipeline / "e0" / "model",
                             "--autoencoder", pipeline / "m" / "autoencoder",
                             "--features", pipeline / "d" / "tokens.feat.tsv",
                             "--counts", pipeline / "d" / "counts.tsv"]}[command]
        monkeypatch.setattr(io, "open", counting_open)
        assert run([*args, "--data", pipeline / "d" / "data", "--out", tmp_path / "o"]) == 0
        monkeypatch.undo()
        expected = 1 if command == "fit" else 3  # the decoder; and both models
        assert len(opened) == len(set(opened)) == expected
        assert_digests_match_files(tmp_path / "o")

    def test_checkpoint_payload_hashed_as_read_is_the_file_sha256(self, pipeline):
        base = pipeline / "m" / "autoencoder"
        payload_sha256 = hashlib.sha256()
        load_checkpoint(base, hasher=payload_sha256)
        assert payload_sha256.hexdigest() == hashlib.sha256(
            (pipeline / "m" / "autoencoder.ckpt.bin").read_bytes()).hexdigest()

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

    def test_timecourse_same_bits_on_one_and_two_workers(self, pipeline, tmp_path,
                                                        monkeypatch):
        args = ["timecourse", "--model", pipeline / "e1" / "model",
                "--intercept", pipeline / "e0" / "model",
                "--autoencoder", pipeline / "m" / "autoencoder",
                "--data", pipeline / "d" / "data",
                "--features", pipeline / "d" / "tokens.feat.tsv",
                "--counts", pipeline / "d" / "counts.tsv"]
        written = []
        for n in (1, 2):
            monkeypatch.setattr(autoencoder, "_worker_count", lambda n_jobs, n=n: min(n, n_jobs))
            assert run([*args, "--out", tmp_path / f"t{n}"]) == 0
            written.append((tmp_path / f"t{n}" / "timecourse.tsv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("command", ["evaluate", "timecourse", "export-words"])
    def test_geometry_mismatch_fails_before_any_decode(self, pipeline, tmp_path, capsys,
                                                       monkeypatch, command):
        # the data holds 5 of the decoder's 6 channels; the check runs once the
        # inputs are loaded, before a decoder pass or a frozen decoder
        dataset, meta = load_erp(pipeline / "d" / "data")
        narrow = ErpDataset(dataset.data[:, :5].copy(), dataset.sampling_rate_hz,
                            dataset.epoch_start_ms, dataset.epoch_end_ms)
        save_erp(tmp_path / "narrow", narrow, meta)

        def no_decode(*args, **kwargs):
            raise AssertionError("decoded before the geometry check")

        monkeypatch.setattr(encoding, "decode", no_decode)
        monkeypatch.setattr(encoding, "freeze", no_decode)
        intercept = ([] if command == "export-words"
                     else ["--intercept", pipeline / "e0" / "model"])
        code = run([command, "--model", pipeline / "e1" / "model", *intercept,
                    "--autoencoder", pipeline / "m" / "autoencoder",
                    "--data", tmp_path / "narrow",
                    "--features", pipeline / "d" / "tokens.feat.tsv",
                    "--counts", pipeline / "d" / "counts.tsv", "--out", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err == \
            "error: InvalidInput: decoder geometry 6x40 != dataset 5x40\n"
        assert not (tmp_path / "o").exists()

    def test_words_are_the_per_word_correlations_of_the_full_prediction(self, pipeline,
                                                                         tmp_path):
        # export-words scores each chunk as it is decoded; the table is the same
        tables = ["--features", pipeline / "d" / "tokens.feat.tsv",
                  "--counts", pipeline / "d" / "counts.tsv"]
        assert run(["export-words", "--model", pipeline / "e1" / "model",
                    "--autoencoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data", *tables, "--out", tmp_path / "w"]) == 0
        dataset, meta = filter_artifacts(*load_erp(pipeline / "d" / "data"),
                                         include_first_word=False)
        model = load_encoding_model(pipeline / "e1" / "model",
                                    load_autoencoder(pipeline / "m" / "autoencoder"))
        fm = assemble(FeatureSpec(model.sources), meta,
                      counts_table=load_counts(pipeline / "d" / "counts.tsv"),
                      token_features=load_token_features(pipeline / "d" / "tokens.feat.tsv"))
        metrics.word_level_table(
            metrics.trial_correlations(predict_erp(model, fm), dataset.data), meta,
            model_name="+".join(model.sources),
            sources=model.sources).to_tsv(tmp_path / "expected.tsv")
        assert (tmp_path / "w" / "words.tsv").read_bytes() == \
               (tmp_path / "expected.tsv").read_bytes()

    def test_suite_command(self, pipeline, monkeypatch):
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
        results, run_model_suite = [], encoding.run_model_suite
        monkeypatch.setattr(encoding, "run_model_suite",
                            lambda *a, **kw: results.append(run_model_suite(*a, **kw))
                            or results[-1])
        assert run(["suite", "--config", p, "--out", pipeline / "r"]) == 0
        summary = (pipeline / "r" / "summary.tsv").read_text()
        assert "intercept" in summary and "frequency" in summary
        suite = json.loads((pipeline / "r" / "suite.json").read_text())
        assert len(suite["fold_digest"]) == 64
        # suite.json is the one record: each entry's whole report, no report files
        (result,) = results
        assert suite["entries"] == {name: entry["report"].to_json_dict()
                                    for name, entry in result["entries"].items()}
        assert list(suite["entries"]) == ["frequency", "intercept"]
        assert suite["entries"]["frequency"]["metadata"]["weight_decay"] == 1e-5
        assert sorted(f.name for f in (pipeline / "r").iterdir()) == [
            "manifest.json", "suite.json", "summary.tsv"]

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

    @pytest.mark.parametrize("key, value", [("static_dim", 0), ("static_dim", -1),
                                            ("contextual_dim", 0)])
    def test_empty_embedding_width_is_1(self, tmp_path, capsys, key, value):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({**SYNTH_CONFIG, key: value}))
        assert run(["synth", "--config", path, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: InvalidInput: {key} must be >= 1"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("sampling_rate_hz", 0, "sampling_rate_hz must be > 0, got 0"),
        ("sampling_rate_hz", -250.0, "sampling_rate_hz must be > 0, got -250.0"),
        ("artifact_rate", 1.5, "artifact_rate must be in [0, 1), got 1.5"),
        ("latent_bias_sd", -1, "latent_bias_sd must be >= 0, got -1"),
        ("driving", ["frequency", "frequency"],
         "driving sources ['frequency', 'frequency'] repeat a source"),
    ], ids=["rate_zero", "rate_negative", "artifact_rate", "latent_bias_sd", "repeated_source"])
    def test_synth_config_that_makes_no_dataset_is_1(self, tmp_path, capsys, key, value,
                                                     message):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({**SYNTH_CONFIG, key: value}))
        assert run(["synth", "--config", path, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: InvalidInput: {message}"]
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
        ("lr", "0.01"), ("weight_decay", "x"),
        ("ceiling_mse", "abc"), ("ceiling_mse", [0.1, "a"]), ("ceiling_mse", [0.1, 0.1]),
        ("counts", 5),
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
        (lambda m: m.update(sources=["bogus"]),
         "meta 'sources': unknown feature sources ['bogus']"),
        # the constant model's tensors, under an embedding source and column
        (lambda m: m.update(sources=["static_embedding"], feature_names=["static_embedding.0"]),
         "checkpoint has no tensor 'tuner.w1'"),
        # well-typed sources that are not those of the stored columns
        (lambda m: m.update(sources=["frequency"]),
         "meta 'sources': feature columns ['constant'] are not the columns ['frequency'] "
         "of sources ['frequency']"),
    ], ids=["no_weight_decay", "sources_string", "digest_null", "unknown_source",
            "embedding_without_tuner", "sources_not_the_columns"])
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

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_extra_checkpoint_tensor_is_4(self, pipeline, tmp_path, capsys, command):
        # an autoencoder's extra tensor used to load, change the decoder's
        # digest and be written back out
        if command == "fit":
            source, tensor = pipeline / "m" / "autoencoder", "dec7.bias"
            args = ["fit", "--decoder", tmp_path / "ckpt", "--data", pipeline / "d" / "data",
                    "--sources", "constant"]
        else:
            source, tensor = pipeline / "e0" / "model", "tuner.w1"  # the constant model's
            args = ["evaluate", "--model", pipeline / "e1" / "model",
                    "--intercept", tmp_path / "ckpt",
                    "--autoencoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data",
                    "--features", pipeline / "d" / "tokens.feat.tsv",
                    "--counts", pipeline / "d" / "counts.tsv"]
        self._copy_checkpoint(source, tmp_path / "ckpt")
        kind, meta, tensors = load_checkpoint(tmp_path / "ckpt")
        save_checkpoint(tmp_path / "ckpt", kind, meta, {**tensors, tensor: np.ones((6, 1))})
        assert run([*args, "--out", tmp_path / "o"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: FormatViolation: {tmp_path / 'ckpt.ckpt.json'}: checkpoint has "
            f"unexpected tensor {tensor!r}"]
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
        # -250 Hz over 0..-40 ms implies the 10 timepoints, on a decreasing axis
        (lambda s: s.update(sampling_rate_hz=-250.0, epoch_end_ms=-40.0),
         "set.erp.json: sampling rate -250.0 Hz is not > 0"),
        (lambda s: s.update(epoch_start_ms=-1e308, epoch_end_ms=1e308),
         "set.erp.json: epoch -1e+308..1e+308 ms at 250.0 Hz implies inf timepoints"),
    ], ids=["shape_wraps_in_int64", "rate_zero", "rate_negative", "span_overflows"])
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

    # a misspelt "epochs" used to be ignored, and the suite ran the 200-epoch
    # default; the dev split is a constant, no longer a config key
    @pytest.mark.parametrize("key, value", [("epoch", 1), ("dev_fraction", 0.1)])
    def test_suite_config_unknown_key_is_4(self, pipeline, tmp_path, capsys, key, value):
        config = {"data": str(pipeline / "d" / "data"),
                  "decoder": str(pipeline / "m" / "autoencoder"), "folds": 2,
                  "roster": [{"name": "intercept", "sources": ["constant"]}], key: value}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        assert run(["suite", "--config", path, "--out", tmp_path / "o"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: FormatViolation: {path}: suite config has unknown key {key!r}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("names, message", [
        (["x", "x"], "suite roster repeats entry names ['x']"),
        ([""], "suite roster entry 0: name '' is empty or not printable"),
    ], ids=["repeated", "empty"])
    def test_suite_roster_name_that_loses_a_report_is_4(self, tmp_path, capsys, names,
                                                        message):
        # checked as the config loads, before the (missing) data and decoder
        config = {"data": str(tmp_path / "no_data"), "decoder": str(tmp_path / "no_decoder"),
                  "roster": [{"name": name, "sources": ["constant"]} for name in names]}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        assert run(["suite", "--config", path, "--out", tmp_path / "o"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: FormatViolation: {path}: {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["fr\0eq", "\ud800", "fr\teq", "fr\neq", "fr\req",
                                      "fr\u2028eq", "\udc80"],
                             ids=["nul_byte", "lone_surrogate", "tab", "line_feed",
                                  "carriage_return", "line_separator", "lone_low_surrogate"])
    def test_suite_roster_name_that_is_no_table_field_is_4(self, tmp_path, capsys, name):
        # a tab or line break used to split the name's summary.tsv row, and "\udc80"
        # failed only after every fit, as summary.tsv was written; now each is
        # refused as the config loads, before the (missing) data and decoder
        config = {"data": str(tmp_path / "no_data"), "decoder": str(tmp_path / "no_decoder"),
                  "roster": [{"name": "intercept", "sources": ["constant"]},
                             {"name": name, "sources": ["constant"]}]}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        assert run(["suite", "--config", path, "--out", tmp_path / "o"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: FormatViolation: {path}: suite roster entry 1: name {name!r} is empty "
            "or not printable"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("roster, message", [
        ([{"name": "typo", "sources": ["frequncy"]}],
         "suite roster entry 'typo': unknown feature sources ['frequncy']"),
        ([{"name": "none", "sources": []}],
         "suite roster entry 'none': feature spec needs at least one source"),
        ([{"name": "intercept", "sources": ["constant"]},
          {"name": "twice", "sources": ["frequency", "frequency"]}],
         "suite roster entry 'twice': duplicate sources"),
        ([{"name": "mixed", "sources": ["constant", "frequency"]}],
         "suite roster entry 'mixed': constant is mutually exclusive"),
        ([], "suite roster is empty"),
    ], ids=["unknown_source", "no_sources", "repeated_source", "constant_and_other",
            "empty_roster"])
    def test_suite_roster_that_fits_no_model_is_4(self, pipeline, tmp_path, capsys,
                                                  monkeypatch, roster, message):
        # such an entry used to be skipped, and an empty roster ran the standard
        # one; both exited 0. Now the config is refused before any work runs.
        def no_work(*args, **kwargs):
            raise AssertionError("the suite froze its decoder")

        monkeypatch.setattr(encoding, "freeze", no_work)
        config = {"data": str(pipeline / "d" / "data"),
                  "decoder": str(pipeline / "m" / "autoencoder"),
                  "counts": str(pipeline / "d" / "counts.tsv"), "folds": 2, "epochs": 1,
                  "roster": roster}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        assert run(["suite", "--config", path, "--out", tmp_path / "o"]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: FormatViolation: {path}: {message}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("window", [4, 0, -3])
    def test_bad_timecourse_window_is_2(self, pipeline, tmp_path, capsys, monkeypatch,
                                        window):
        # found as the command line is parsed, not after two full predictions
        def no_read(*args, **kwargs):
            raise AssertionError("timecourse read its data")

        monkeypatch.setattr(cli, "load_erp", no_read)
        code = run(["timecourse", "--model", pipeline / "e1" / "model",
                    "--intercept", pipeline / "e0" / "model",
                    "--autoencoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data", "--window", window,
                    "--out", tmp_path / "o"])
        assert code == 2
        assert (f"argument --window: smoothing window must be odd and >= 1, got {window}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_timecourse_window_longer_than_the_epoch_is_1(self, tmp_path, capsys,
                                                          monkeypatch):
        # a wider window made every smoothed value the mean of the whole series;
        # it is refused after the data is read, before any decode
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({**SYNTH_CONFIG, "n_sentences": 4, "n_channels": 2,
                                      "n_timepoints": 200}))
        assert run(["synth", "--config", config, "--out", tmp_path / "d"]) == 0
        assert run(["pretrain", "--data", tmp_path / "d" / "data", "--epochs", 1,
                    "--out", tmp_path / "m"]) == 0
        assert run(["fit", "--decoder", tmp_path / "m" / "autoencoder",
                    "--data", tmp_path / "d" / "data", "--sources", "constant",
                    "--epochs", 1, "--out", tmp_path / "e"]) == 0
        capsys.readouterr()
        args = ["timecourse", "--model", tmp_path / "e" / "model",
                "--intercept", tmp_path / "e" / "model",
                "--autoencoder", tmp_path / "m" / "autoencoder",
                "--data", tmp_path / "d" / "data"]
        assert run([*args, "--window", 199, "--out", tmp_path / "t199"]) == 0
        assert (tmp_path / "t199" / "timecourse.tsv").exists()
        capsys.readouterr()

        def no_decode(*args, **kwargs):
            raise AssertionError("timecourse decoded a prediction")

        monkeypatch.setattr(encoding, "map_predictions", no_decode)
        assert run([*args, "--window", 201, "--out", tmp_path / "t201"]) == 1
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("error:")] == [
            "error: InvalidInput: smoothing window 201 is longer than the series (200 samples)"]
        assert not (tmp_path / "t201").exists()

    def test_suite_roster_names_are_no_file_names(self, pipeline, tmp_path):
        # a name is a key of suite.json and a field of summary.tsv, never a file
        # name, so "/", "+" beside "_" and a name over 255 bytes all run
        names = ["a/b", "a+b", "a_b", "x" * 300]
        config = {"data": str(pipeline / "d" / "data"),
                  "decoder": str(pipeline / "m" / "autoencoder"), "folds": 2, "epochs": 1,
                  "ceiling_mse": 1e-9,
                  "roster": [{"name": name, "sources": ["constant"]} for name in names]}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(config))
        assert run(["suite", "--config", path, "--out", tmp_path / "o"]) == 0
        assert sorted(json.loads((tmp_path / "o" / "suite.json").read_text())["entries"]) == \
            sorted(names)
        rows = (tmp_path / "o" / "summary.tsv").read_text().splitlines()[3:]
        assert [row.split("\t")[0] for row in rows] == names
        assert sorted(f.name for f in (tmp_path / "o").iterdir()) == [
            "manifest.json", "suite.json", "summary.tsv"]

    @pytest.mark.parametrize("command", ["synth", "export-words"])
    def test_out_that_cannot_be_written_is_1(self, pipeline, tmp_path, capsys, command):
        # an OSError other than a missing input is one error line, not a traceback
        blocker = tmp_path / "file"
        blocker.write_text("")
        if command == "synth":
            args = ["synth", "--config", write_config(tmp_path)]
        else:
            args = ["export-words", "--model", pipeline / "e1" / "model",
                    "--autoencoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data",
                    "--features", pipeline / "d" / "tokens.feat.tsv",
                    "--counts", pipeline / "d" / "counts.tsv"]
        assert run([*args, "--out", blocker / "o"]) == 1
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("error:")] == [
            f"error: OSError: [Errno 20] Not a directory: '{blocker / 'o'}'"]

    @pytest.mark.parametrize("args", [["suite", "--config", "suite.json", "--folds", 2],
                                      ["pretrain", "--data", "d", "--dev-fraction", 0.2]],
                             ids=["suite_folds", "pretrain_dev_fraction"])
    def test_removed_flag_is_2(self, tmp_path, capsys, args):
        assert run([*args, "--out", tmp_path / "o"]) == 2
        assert f"unrecognized arguments: {' '.join(map(str, args[3:]))}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fn", [autoencoder.pretrain, autoencoder.select_architecture,
                                    encoding.train, encoding.weight_decay_search,
                                    encoding.run_model_suite], ids=lambda fn: fn.__name__)
    def test_training_defaults_are_the_library_defaults(self, fn):
        params = inspect.signature(fn).parameters
        defaults = {"epochs": autoencoder.EPOCHS, "batch_size": autoencoder.BATCH_SIZE,
                    "lr": autoencoder.LR}
        assert {key: params[key].default for key in defaults} == defaults
        assert cli._hyper({}) == defaults

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

    def test_wd_with_wd_search_is_2(self, pipeline, tmp_path, capsys):
        code = run(["fit", "--decoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data", "--sources", "constant",
                    "--wd", 5, "--wd-search", "--out", tmp_path / "o"])
        assert code == 2
        assert "argument --wd-search: not allowed with argument --wd" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_folds_without_wd_search_is_1(self, tmp_path, capsys):
        # refused before any input is read: the inputs named do not exist
        for decay in ([], ["--wd", 1e-5]):
            code = run(["fit", "--decoder", tmp_path / "ae", "--data", tmp_path / "d",
                        "--sources", "constant", *decay, "--folds", 3, "--out", tmp_path / "o"])
            assert code == 1
            assert capsys.readouterr().err.splitlines() == [
                "error: InvalidInput: --folds needs --wd-search, whose folds it sets"]
            assert not (tmp_path / "o").exists()

    def test_bad_sources_is_1(self, pipeline, capsys):
        code = run(["fit", "--decoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data", "--sources", "nonsense",
                    "--out", pipeline / "x"])
        assert code == 1
        assert "error: InvalidInput:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--batch", -5, "batch_size must be >= 1, got -5"),
        ("--epochs", 0, "epochs must be >= 1, got 0"),
        ("--lr", -0.01, "lr must be finite and > 0, got -0.01"),
    ], ids=["batch", "epochs", "lr"])
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

    @pytest.mark.parametrize("command, flags, message", [
        ("pretrain", ["--lr", 0], "lr must be finite and > 0, got 0.0"),
        ("select-arch", ["--epochs", 0], "epochs must be >= 1, got 0"),
        ("fit", ["--wd", -5], "weight_decay must be finite and >= 0, got -5.0"),
        ("fit", ["--wd-search", "--batch", 0], "batch_size must be >= 1, got 0"),
        ("suite", {"lr": 0.0}, "lr must be finite and > 0, got 0.0"),
        ("suite", {"weight_decay": -1.0}, "weight_decay must be finite and >= 0, got -1.0"),
    ], ids=["pretrain_lr", "select_arch_epochs", "fit_wd", "fit_wd_search_batch", "suite_lr",
            "suite_wd"])
    def test_bad_schedule_is_1_before_any_input_is_read(self, pipeline, tmp_path, capsys,
                                                        monkeypatch, command, flags, message):
        # each used to read and hash the whole ERP payload (fit and suite the
        # decoder too, and fit froze it) before the library refused the schedule
        calls = []
        for module, name in ((cli, "load_erp"), (autoencoder, "load_checkpoint"),
                             (encoding, "load_checkpoint"), (encoding, "freeze"),
                             (encoding, "train")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, name=name, original=original, **kw:
                                calls.append(name) or original(*a, **kw))
        decoder, data = pipeline / "m" / "autoencoder", pipeline / "d" / "data"
        if command == "suite":
            path = tmp_path / "suite.json"
            path.write_text(json.dumps({
                "data": str(data), "decoder": str(decoder), "folds": 2, "epochs": 1,
                "roster": [{"name": "intercept", "sources": ["constant"]}], **flags}))
            args = ["suite", "--config", path]
        elif command == "fit":
            args = ["fit", "--decoder", decoder, "--data", data, "--sources", "constant", *flags]
        else:
            args = [command, "--data", data, *flags]
        assert run([*args, "--out", tmp_path / "o"]) == 1
        assert [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("error:")] == [f"error: InvalidInput: {message}"]
        assert calls == []
        assert not (tmp_path / "o").exists()

    def test_diverged_pretraining_is_a_run_failure(self, pipeline, tmp_path, capsys):
        # one step at a huge learning rate: the loss it takes is finite, the dev
        # score after it is not
        code = run(["pretrain", "--data", pipeline / "d" / "data", "--arch", "beta",
                    "--epochs", 1, "--batch", 100000, "--lr", 1e200, "--out", tmp_path / "o"])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: RunFailure: dev MSE diverged to ")
        assert errors[0].endswith(" at epoch 0")
        assert not (tmp_path / "o").exists()

    def test_negative_count_is_4(self, pipeline, tmp_path, capsys):
        lines = (pipeline / "d" / "counts.tsv").read_text().splitlines()
        token, _ = lines[1].split("\t")
        bad = tmp_path / "counts.tsv"
        bad.write_text("\n".join([lines[0], f"{token}\t-5"] + lines[2:]) + "\n")
        code = run(["fit", "--decoder", pipeline / "m" / "autoencoder",
                    "--data", pipeline / "d" / "data", "--sources", "frequency",
                    "--counts", bad, "--out", tmp_path / "o"])
        assert code == 4
        assert (f"error: FormatViolation: {bad}: line 2: negative count -5"
                in capsys.readouterr().err)
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


class TestPeakMemory:
    """Each command's peak allocation, measured with tracemalloc: one array of
    the epochs of the trials it keeps, plus an allowance of chunks; for
    ``timecourse`` that array is the data, as it holds no full prediction.
    The fixture's set runs at the paper's 32 x 200 geometry with 600 trials,
    where one epoch array outweighs the allowance, so a second array could
    not hide in it. At this size the allowance also holds what grows with
    the trial count but is no epoch array: the frozen decoder's ``r`` and the
    one-pass temporaries of ``encoding.model_mse``. The pool runs one worker,
    so that the allowance does not grow with the CPU count, and pretraining
    steps a batch of one chunk. The fold loops of ``select-arch`` and
    ``suite`` read each fold's training trials in place: a copy of 80% of
    the epochs, about 23 MiB here, would exceed the allowance; the 20% that
    ``select-arch`` gathers for a fold's held-out variance fits in it."""

    EPOCH_BYTES = 32 * 200 * 8
    ALLOWANCE = 10 * autoencoder.CHUNK_ROWS * EPOCH_BYTES  # 15.6 MiB

    @pytest.fixture(scope="class")
    def measured(self, tmp_path_factory):
        """(command -> peak bytes above its start, every trial's meta)."""
        root = tmp_path_factory.mktemp("memory")
        config = root / "synth.json"
        config.write_text(json.dumps(
            {**SYNTH_CONFIG, "n_subjects": 6, "n_channels": 32, "n_timepoints": 200}))
        d, m, e0, e1 = root / "d", root / "m", root / "e0", root / "e1"
        suite = root / "suite.json"
        suite.write_text(json.dumps({
            "data": str(d / "data"), "decoder": str(m / "autoencoder"),
            "counts": str(d / "counts.tsv"), "token_features": str(d / "tokens.feat.tsv"),
            "embeddings": str(d / "embeddings.txt"), "epochs": 1, "weight_decay": 1e-3}))
        tables = ["--features", d / "tokens.feat.tsv", "--counts", d / "counts.tsv"]
        analysis = ["--model", e1 / "model", "--autoencoder", m / "autoencoder",
                    "--data", d / "data", *tables]
        fit = ["fit", "--decoder", m / "autoencoder", "--data", d / "data", "--epochs", 1]
        steps = {
            "synth": ["synth", "--config", config, "--out", d],
            "pretrain": ["pretrain", "--data", d / "data", "--epochs", 1,
                         "--batch", autoencoder.CHUNK_ROWS, "--out", m],
            "fit": [*fit, "--sources", "frequency,surprisal", *tables, "--out", e1],
            "fit_intercept": [*fit, "--sources", "constant", "--out", e0],
            "evaluate": ["evaluate", *analysis, "--intercept", e0 / "model",
                         "--out", root / "v"],
            "timecourse": ["timecourse", *analysis, "--intercept", e0 / "model",
                           "--out", root / "t"],
            "export-words": ["export-words", *analysis, "--out", root / "w"],
            "select-arch": ["select-arch", "--data", d / "data", "--folds", 5, "--epochs", 1,
                            "--batch", autoencoder.CHUNK_ROWS, "--out", root / "s"],
            "suite": ["suite", "--config", suite, "--out", root / "u"],
        }
        peaks = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(autoencoder, "_worker_count", lambda n_jobs: 1)
            tracemalloc.start()
            try:
                for name, args in steps.items():
                    tracemalloc.reset_peak()
                    start = tracemalloc.get_traced_memory()[0]
                    assert run(args) == 0, name
                    peaks[name] = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        return peaks, load_erp(d / "data")[1]

    # command: (epoch arrays, the trials it keeps: all, or include_first_word)
    @pytest.mark.parametrize("command, arrays, first_words", [
        ("synth", 1, "all"), ("pretrain", 1, True), ("fit", 1, False),
        ("evaluate", 1, False), ("timecourse", 1, False), ("export-words", 1, False),
        ("select-arch", 1, True), ("suite", 1, False)])
    def test_peak_is_kept_epoch_arrays_plus_blocks(self, measured, command, arrays,
                                                   first_words):
        peaks, meta = measured
        kept = len(meta) if first_words == "all" else int(keep_mask(meta, first_words).sum())
        kept_bytes = kept * self.EPOCH_BYTES
        assert kept_bytes > self.ALLOWANCE  # a copy of the kept array would show
        assert peaks[command] <= arrays * kept_bytes + self.ALLOWANCE, (
            f"{command}: peak {peaks[command] / 2**20:.1f} MiB, "
            f"{arrays} x {kept_bytes / 2**20:.1f} MiB epoch arrays allowed")


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


class TestTimeMajorOnly:
    def test_no_command_calls_the_batch_first_conv1d_forward(self, tmp_path, monkeypatch):
        # nn.conv1d_forward stays only for the benchmark's tracer test: every
        # command, select-arch and the suite included, runs the time-major ops
        def refuse(*args, **kwargs):
            raise AssertionError("nn.conv1d_forward was called")

        monkeypatch.setattr(nn, "conv1d_forward", refuse)
        config = write_config(tmp_path)
        d, m = tmp_path / "d", tmp_path / "m"
        data = ["--data", d / "data"]
        tables = ["--counts", d / "counts.tsv"]
        assert run(["synth", "--config", config, "--out", d]) == 0
        assert run(["pretrain", *data, "--epochs", 20, "--lr", 0.003, "--seed", 1,
                    "--out", m]) == 0
        assert run(["select-arch", *data, "--intercepts", "--folds", 2, "--epochs", 1,
                    "--out", tmp_path / "s"]) == 0
        fit = ["fit", "--decoder", m / "autoencoder", *data, "--epochs", 2, "--lr", 0.005]
        assert run([*fit, "--sources", "constant", "--out", tmp_path / "e0"]) == 0
        assert run([*fit, "--sources", "frequency", *tables, "--wd-search", "--folds", 2,
                    "--out", tmp_path / "e1"]) == 0
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({
            "data": str(d / "data"), "decoder": str(m / "autoencoder"),
            "counts": str(d / "counts.tsv"), "folds": 2, "epochs": 1, "ceiling_mse": 1e-9,
            "roster": [{"name": "intercept", "sources": ["constant"]},
                       {"name": "frequency", "sources": ["frequency"]}]}))
        assert run(["suite", "--config", suite, "--out", tmp_path / "r"]) == 0
        analysis = ["--autoencoder", m / "autoencoder", *data, *tables,
                    "--model", tmp_path / "e1" / "model"]
        intercept = ["--intercept", tmp_path / "e0" / "model"]
        assert run(["evaluate", *analysis, *intercept, "--out", tmp_path / "v"]) == 0
        assert run(["timecourse", *analysis, *intercept, "--out", tmp_path / "t"]) == 0
        assert run(["export-words", *analysis, "--out", tmp_path / "w"]) == 0


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
