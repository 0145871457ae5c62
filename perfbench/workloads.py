"""The benchmark's workloads: their inputs, set-up, timed repetitions and checks.

Inputs come from ``erpcoder.synth.generate`` at the default ``SynthConfig``
(4 subjects x 50 sentences x 5 words = 1000 epochs of 32 x 200) with the
workload seed, written to disk before any timed region. The program then
only sees those files, loaded through its own loaders during set-up.

- ``pretrain``: ``autoencoder.pretrain`` for ``alpha`` then ``beta`` on the
  951 artifact-filtered trials, batch 128, then each model's reconstruction
  score. The encoder convolutions and pooling run here; no suite fan-out.
- ``suite``: ``encoding.run_model_suite`` over ``standard_roster()`` and the
  weight-decay grid with 5 shared folds on the 759 trials left after also
  dropping sentence-initial words, against the ground-truth beta decoder and
  the noise floor as ceiling: 8 x 3 x 5 + 5 = 125 fits. No ``conv1d`` runs;
  the frozen-decoder transposed convolutions, MSE, the tuner and many small
  independent fits do. Then ``synth.oracle_bounds`` gives the best r2_mod
  each nested subset of the driving features can reach, for comparison.
- ``pipeline``: the CLI in-process, one subcommand after another: synth,
  pretrain (alpha), fit (constant), fit (frequency,surprisal), evaluate,
  timecourse, export-words. Training is short, so I/O, hashing, feature
  parsing and the analysis loops carry weight.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "erpcoder"
LAYERS = ("nn", "autoencoder", "encoding", "features", "data", "checkpoint",
          "metrics", "synth", "cli")
ARCHS = ("alpha", "beta")
BATCH = 128

PRETRAIN_EPOCHS = 2
SUITE_EPOCHS = 2
SUITE_FOLDS = 5
WD_GRID = (1e-5, 1e-3, 1e-1)
PIPELINE_PRETRAIN_EPOCHS = 2
PIPELINE_FIT_EPOCHS = 3
PIPELINE_ANALYSIS = ("evaluate", "timecourse", "export-words")


class Failed(Exception):
    """A timed call into the program raised; the repetition stops."""


@dataclass
class Tally:
    """Operations attempted and failed: timed calls and output checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def call(self, fn, *args, **kwargs):
        """Time one call into the program; returns (result, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            self.failed += 1
            self.problems.append(f"{fn.__name__}: {type(e).__name__}: {e}")
            raise Failed from e
        return result, time.perf_counter() - t0


@dataclass
class Rep:
    """Timings of one repetition of a workload."""

    wall_s: float = 0.0
    train_s: float = 0.0
    trial_epochs: int = 0
    analysis_s: float = 0.0


# ---------------------------------------------------------------------------
# Inputs and set-up
# ---------------------------------------------------------------------------


def import_package(fresh: bool) -> dict:
    """Import erpcoder (again, from its source, when ``fresh``); {layer: module}."""
    if fresh:
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def generate_inputs(seed: int, out: Path) -> None:
    """Generate and write the inputs in a child process (this file run as a
    script), so the workload's peak memory does not include generation."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, __file__, str(seed), str(out)], env=env, check=True)


@dataclass
class Loaded:
    """What set-up hands to the workloads."""

    mods: dict
    inputs: Path
    dataset: object  # every generated trial, as the ground truth is defined
    ae: tuple  # (dataset, meta): artifact-filtered, for pretraining
    enc: tuple  # (dataset, meta): also without sentence-initial words, for fits
    counts: dict
    embeddings: object
    token_features: object
    sentence_tokens: dict
    truth: object
    decoder_digest: str = ""


def set_up(inputs: Path) -> Loaded:
    """Import erpcoder, load every input through its loaders, warm up both architectures."""
    mods = import_package(fresh=True)
    data, ae_mod = mods["data"], mods["autoencoder"]
    dataset, meta = data.load_erp(inputs / "data")
    ae = data.filter_artifacts(dataset, meta, include_first_word=True)
    loaded = Loaded(
        mods=mods, inputs=inputs, dataset=dataset, ae=ae,
        enc=data.filter_artifacts(dataset, meta, include_first_word=False),
        counts=data.load_counts(inputs / "counts.tsv"),
        embeddings=data.load_embeddings(inputs / "embeddings.txt"),
        token_features=data.load_token_features(inputs / "tokens.feat.tsv"),
        sentence_tokens=mods["features"].build_sentence_tokens(meta),
        truth=mods["synth"].load_ground_truth(inputs / "truth"))
    loaded.decoder_digest = loaded.truth.decoder.decoder_digest()
    for arch in ARCHS:
        spec = ae_mod.AutoencoderSpec(arch, False, dataset.n_channels, dataset.n_timepoints)
        ae_mod.reconstruct(ae_mod.init_params(spec, seed=0), ae[0].data[:BATCH])
    return loaded


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Pretrain:
    name = "pretrain"
    min_reps = 1

    def run(self, ld: Loaded, seed: int, tally: Tally, rep: Rep, work: Path):
        ae = ld.mods["autoencoder"]
        dataset, meta = ld.ae
        outputs = []
        for arch in ARCHS:
            spec = ae.AutoencoderSpec(arch, False, dataset.n_channels, dataset.n_timepoints)
            (params, history), dt = tally.call(
                ae.pretrain, spec, dataset, meta, epochs=PRETRAIN_EPOCHS,
                batch_size=BATCH, seed=seed)
            rep.train_s += dt
            rep.trial_epochs += dataset.n_trials * PRETRAIN_EPOCHS
            mse, dt = tally.call(ae.reconstruction_mse, params, dataset, meta)
            rep.analysis_s += dt
            outputs.append((arch, history, mse))
        return outputs

    def check(self, ld: Loaded, tally: Tally, outputs) -> None:
        for arch, history, mse in outputs:
            curves = [*history.train_mse, *history.dev_mse, mse]
            tally.check(all(math.isfinite(v) for v in curves),
                        f"pretrain {arch}: non-finite history or reconstruction MSE")
            tally.check(history.train_mse[-1] < history.train_mse[0],
                        f"pretrain {arch}: train MSE {history.train_mse} did not fall")


class Suite:
    name = "suite"
    min_reps = 1

    def __init__(self):
        self.roster_size = 0

    def expected_fits(self) -> int:
        return (self.roster_size - 1) * len(WD_GRID) * SUITE_FOLDS + SUITE_FOLDS

    def run(self, ld: Loaded, seed: int, tally: Tally, rep: Rep, work: Path):
        enc = ld.mods["encoding"]
        dataset, meta = ld.enc
        roster = enc.standard_roster()
        self.roster_size = len(roster)
        result, dt = tally.call(
            enc.run_model_suite, ld.truth.decoder, dataset, meta, roster,
            counts_table=ld.counts, token_features=ld.token_features,
            embeddings=ld.embeddings, sentence_tokens=ld.sentence_tokens,
            k=SUITE_FOLDS, seed=seed, wd_grid=WD_GRID, epochs=SUITE_EPOCHS,
            batch_size=BATCH, ceiling_mse=ld.truth.mse_floor)
        rep.train_s += dt
        # each weight decay of each entry, and the intercept, trains on every
        # fold's training part once: (k - 1) * n trials per (entry, wd)
        fit_groups = (len(roster) - 1) * len(WD_GRID) + 1
        rep.trial_epochs += fit_groups * (SUITE_FOLDS - 1) * dataset.n_trials * SUITE_EPOCHS
        # the best r2_mod each nested subset of the driving features can reach
        bounds, dt = tally.call(ld.mods["synth"].oracle_bounds, ld.truth, ld.dataset)
        rep.analysis_s += dt
        return result, bounds

    def check(self, ld: Loaded, tally: Tally, outputs) -> None:
        result, bounds = outputs
        entries = result["entries"]
        reports = {name: e["report"] for name, e in entries.items()}
        tally.check(not result["skipped"] and len(entries) == self.roster_size,
                    f"suite skipped entries: {result['skipped']}")
        tally.check({r.fold_digest for r in reports.values()} == {result["fold_digest"]},
                    "suite entries do not share one fold assignment")
        tally.check(reports["intercept"].r2_mod == 0.0,
                    f"intercept r2_mod {reports['intercept'].r2_mod} is not exactly 0")
        tally.check(all(math.isfinite(v) for r in reports.values()
                        for v in (r.r2_mod, r.ci_low, r.ci_high)),
                    "suite r2_mod or CI not finite")
        tally.check(ld.truth.decoder.decoder_digest() == ld.decoder_digest,
                    "frozen decoder changed during the suite")
        fits = result["k"] + sum(len(e["wd_table"]) for e in entries.values()
                                 if e["wd_table"] is not None)
        tally.check(fits == self.expected_fits(),
                    f"suite reports {fits} fits, expected {self.expected_fits()}")
        tally.check(all(math.isfinite(v) for v in bounds["best_possible_r2_mod"].values()),
                    "oracle r2_mod bounds not finite")


def _digests(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


class Pipeline:
    name = "pipeline"
    min_reps = 2  # artifacts are compared across repetitions

    def __init__(self):
        self.reference: dict[str, str] | None = None
        self.count = 0

    def run(self, ld: Loaded, seed: int, tally: Tally, rep: Rep, work: Path):
        cli = ld.mods["cli"]
        self.count += 1
        out = work / f"pipeline{self.count}"
        d, m, e0, e1 = out / "d", out / "m", out / "e0", out / "e1"
        data = d / "data"
        tables = ["--features", d / "tokens.feat.tsv", "--counts", d / "counts.tsv"]
        models = ["--autoencoder", m / "autoencoder", "--data", data, *tables]
        fit = ["--decoder", m / "autoencoder", "--data", data,
               "--epochs", PIPELINE_FIT_EPOCHS, "--seed", seed]
        steps = [
            ("synth", "--config", ld.inputs / "config.json", "--seed", seed, "--out", d),
            ("pretrain", "--data", data, "--arch", "alpha",
             "--epochs", PIPELINE_PRETRAIN_EPOCHS, "--seed", seed, "--out", m),
            ("fit", *fit, "--sources", "constant", "--out", e0),
            ("fit", *fit, "--sources", "frequency,surprisal", *tables, "--wd", 1e-5,
             "--out", e1),
            ("evaluate", "--model", e1 / "model", "--intercept", e0 / "model", *models,
             "--out", out / "v"),
            ("timecourse", "--model", e1 / "model", "--intercept", e0 / "model", *models,
             "--window", 9, "--out", out / "t"),
            ("export-words", "--model", e1 / "model", *models, "--out", out / "w"),
        ]
        for step in steps:
            code, dt = tally.call(cli.main, [str(a) for a in step])
            if code != 0:
                tally.check(False, f"erpcoder {step[0]} exited with code {code}")
                raise Failed
            if step[0] in ("pretrain", "fit"):
                rep.train_s += dt
            elif step[0] in PIPELINE_ANALYSIS:
                rep.analysis_s += dt
        n_ae, n_enc = ld.ae[0].n_trials, ld.enc[0].n_trials
        rep.trial_epochs += (n_ae * PIPELINE_PRETRAIN_EPOCHS
                             + 2 * n_enc * PIPELINE_FIT_EPOCHS)
        return out

    def check(self, ld: Loaded, tally: Tally, out: Path) -> None:
        digests = _digests(out)
        shutil.rmtree(out)
        if self.reference is None:
            # the synth subcommand must reproduce the generated inputs exactly
            inputs = _digests(ld.inputs)
            tally.check(all(digests.get(f"d/{k}") == v for k, v in inputs.items()),
                        "synth subcommand output differs from the generated inputs")
            self.reference = digests
        tally.check(len(digests) >= 20 and digests == self.reference,
                    "pipeline artifacts differ between repetitions with the same seed")


WORKLOADS = {w.name: w for w in (Pretrain, Suite, Pipeline)}


if __name__ == "__main__":
    synth = import_package(fresh=False)["synth"]
    synth.write_dataset_dir(synth.generate(synth.SynthConfig(seed=int(sys.argv[1]))), sys.argv[2])
