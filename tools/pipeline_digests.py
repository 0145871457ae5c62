"""Run the erpcoder CLI pipeline on a small synthetic set; print artifact digests.

Eleven commands run in a fresh directory, with paths relative to it so that
the manifests do not depend on where the run happens: ``synth``,
``pretrain`` (beta), ``pretrain --intercepts`` (alpha),
``select-arch --intercepts``, three ``fit`` runs (constant; frequency and
surprisal from the tables; ``--wd-search`` with a contextual embedding), a
three-entry ``suite`` (semantic distance and a static embedding in its
last entry), ``evaluate``, ``timecourse`` and ``export-words``. All five
feature sources drive the synthetic set. The output is one
``<sha256>  <path>`` line per artifact, sorted by path, so two checkouts
compare with ``diff``::

    python tools/pipeline_digests.py --src src > head.txt
    python tools/pipeline_digests.py --src ../base/src > base.txt
    diff base.txt head.txt

``--src`` names the directory that holds the ``erpcoder`` package to run
(default: this checkout's ``src``). A command that fails stops the script
with a message naming it and exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

SYNTH_CONFIG = {
    "n_subjects": 2, "n_sentences": 16, "words_per_sentence": 4, "n_channels": 6,
    "n_timepoints": 40, "noise_sd": 0.05, "vocab_size": 24, "static_dim": 4,
    "contextual_dim": 5, "seed": 11,
    "driving": ["frequency", "surprisal", "semantic_distance", "static_embedding",
                "contextual_embedding"],
}
SUITE_CONFIG = {
    "data": "d/data", "decoder": "m/autoencoder", "counts": "d/counts.tsv",
    "embeddings": "d/embeddings.txt", "token_features": "d/tokens.feat.tsv",
    "roster": [{"name": "intercept", "sources": ["constant"]},
               {"name": "frequency", "sources": ["frequency"]},
               {"name": "freq+semdist+static",
                "sources": ["frequency", "semantic_distance", "static_embedding"]}],
    "folds": 2, "seed": 3, "epochs": 2, "lr": 0.005,
}
TABLES = ["--features", "d/tokens.feat.tsv", "--counts", "d/counts.tsv",
          "--embeddings", "d/embeddings.txt"]
TRAIN = ["--epochs", "3", "--lr", "0.005"]
FIT = ["fit", "--decoder", "m/autoencoder", "--data", "d/data", *TRAIN, "--seed", "2"]
ANALYSIS = ["--model", "e1/model", "--autoencoder", "m/autoencoder", "--data", "d/data",
            *TABLES]
COMMANDS = [
    ["synth", "--config", "synth.json", "--out", "d"],
    ["pretrain", "--data", "d/data", "--arch", "beta", *TRAIN, "--seed", "1", "--out", "m"],
    ["pretrain", "--data", "d/data", "--arch", "alpha", "--intercepts", *TRAIN,
     "--seed", "1", "--out", "mi"],
    ["select-arch", "--data", "d/data", "--intercepts", "--folds", "2", "--epochs", "2",
     "--seed", "5", "--out", "s"],
    [*FIT, "--sources", "constant", "--out", "e0"],
    [*FIT, "--sources", "frequency,surprisal", *TABLES, "--wd", "1e-5", "--out", "e1"],
    [*FIT, "--sources", "frequency,contextual_embedding", *TABLES, "--wd-search",
     "--folds", "2", "--out", "e2"],
    ["suite", "--config", "suite.json", "--out", "r"],
    ["evaluate", *ANALYSIS, "--intercept", "e0/model", "--out", "v"],
    ["timecourse", *ANALYSIS, "--intercept", "e0/model", "--window", "5", "--out", "t"],
    ["export-words", *ANALYSIS, "--out", "w"],
]


def run_pipeline(src: Path, root: Path) -> dict[str, str]:
    """Run every command under ``root``; returns {relative path: sha256}."""
    sys.path.insert(0, str(src.resolve()))
    from erpcoder import cli

    (root / "synth.json").write_text(json.dumps(SYNTH_CONFIG))
    (root / "suite.json").write_text(json.dumps(SUITE_CONFIG))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for command in COMMANDS:
            with open(os.devnull, "w") as null, contextlib.redirect_stderr(null):
                code = cli.main(command)
            if code != 0:
                sys.exit(f"erpcoder {' '.join(command)} exited with {code}")
    finally:
        os.chdir(cwd)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the erpcoder package")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for path, digest in run_pipeline(args.src, Path(tmp)).items():
            print(f"{digest}  {path}")


if __name__ == "__main__":
    main()
