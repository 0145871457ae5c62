"""CLI pipeline, exit codes, manifests, and determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from erpcoder import cli
from erpcoder.data import ErpDataset, TrialMeta, save_erp


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
