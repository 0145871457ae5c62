"""Run the erpcoder CLI pipeline on a small synthetic set; print artifact digests.

Thirteen commands run in a fresh directory, with paths relative to it so
that the manifests do not depend on where the run happens: ``synth``,
``pretrain`` (beta), ``pretrain --intercepts`` (alpha),
``select-arch --intercepts``, three ``fit`` runs on the beta decoder
(constant; frequency and surprisal from the tables; ``--wd-search`` with a
contextual embedding), a three-entry ``suite`` (semantic distance and a
static embedding in its last entry), ``evaluate``, ``timecourse`` and
``export-words``, then a ``fit --wd-search`` with a static embedding on the
alpha decoder with subject intercepts and ``export-words`` of that model.
All five feature sources drive the synthetic set. The output is one
``<sha256>  <path>`` line per artifact, sorted by path, so two checkouts
compare with ``diff``::

    python tools/pipeline_digests.py --src src > head.txt
    python tools/pipeline_digests.py --src ../base/src > base.txt
    diff base.txt head.txt

``--src`` names the directory that holds the ``erpcoder`` package to run
(default: this checkout's ``src``). ``--compare BASE_SRC`` runs the package
in ``BASE_SRC`` too and prints, instead of the digests, a Markdown table
of the artifacts that differ between the two runs with the largest
relative difference of their numbers: JSON values, TSV fields, and the
float64 tensors of a ``.ckpt.bin`` payload. Its last line gives the
largest relative difference over all numeric artifacts, byte-identical
ones counting as 0, and names the artifacts that could not be compared::

    python tools/pipeline_digests.py --src src --compare ../base/src

A command that fails stops the script with a message naming it and exit
status 1.
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

import numpy as np

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
    ["fit", "--decoder", "mi/autoencoder", "--data", "d/data", *TRAIN, "--seed", "2",
     "--sources", "frequency,static_embedding", *TABLES, "--wd-search", "--folds", "2",
     "--out", "e3"],
    ["export-words", "--model", "e3/model", "--autoencoder", "mi/autoencoder",
     "--data", "d/data", *TABLES, "--out", "w3"],
]


def run_pipeline(src: Path, root: Path) -> dict[str, str]:
    """Run every command of the package in ``src`` under ``root``; returns
    {relative path: sha256}."""
    for name in [n for n in sys.modules if n.split(".")[0] == "erpcoder"]:
        del sys.modules[name]
    sys.path.insert(0, str(src.resolve()))
    try:
        from erpcoder import cli
    finally:
        sys.path.pop(0)

    root.mkdir()
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


def numbers(path: Path) -> list[float] | None:
    """The numbers in a JSON, TSV or ``.ckpt.bin`` artifact, in file order; None
    for any other file."""
    if path.name.endswith(".ckpt.bin"):
        return np.frombuffer(path.read_bytes(), dtype="<f8").tolist()
    if path.suffix == ".json":
        found: list[float] = []

        def walk(value):
            if isinstance(value, dict):
                for v in value.values():
                    walk(v)
            elif isinstance(value, list):
                for v in value:
                    walk(v)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                found.append(float(value))

        walk(json.loads(path.read_text()))
        return found
    if path.suffix == ".tsv":
        found = []
        for field in path.read_text().replace("\n", "\t").split("\t"):
            with contextlib.suppress(ValueError):
                found.append(float(field))
        return found
    return None


def largest_relative_difference(a: Path, b: Path) -> float | str:
    """max |x - y| / max(|x|, |y|) over the numbers of two versions of an
    artifact, or why they cannot be compared."""
    x, y = numbers(a), numbers(b)
    if x is None:
        return "not a JSON, TSV or checkpoint payload"
    if len(x) != len(y):
        return f"{len(x)} numbers against {len(y)}"
    x, y = np.array(x), np.array(y)
    scale = np.maximum(np.abs(x), np.abs(y))
    diff = np.abs(x - y)
    rel = np.divide(diff, scale, out=np.where(diff > 0, np.inf, 0.0), where=scale > 0)
    return float(rel.max(initial=0.0))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the erpcoder package")
    parser.add_argument("--compare", type=Path, metavar="BASE_SRC",
                        help="also run the package in BASE_SRC; print the artifacts that "
                             "differ and the largest relative difference of their numbers")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        head = run_pipeline(args.src, Path(tmp) / "head")
        if args.compare is None:
            for path, digest in head.items():
                print(f"{digest}  {path}")
            return
        base = run_pipeline(args.compare, Path(tmp) / "base")
        rows = []
        worst = 0.0
        uncompared = []
        for path in sorted(set(head) | set(base)):
            if path not in head or path not in base:
                diff = f"only in {'head' if path in head else 'base'}"
            elif head[path] == base[path]:
                continue
            else:
                diff = largest_relative_difference(Path(tmp) / "base" / path,
                                                   Path(tmp) / "head" / path)
            if isinstance(diff, float):
                worst = max(worst, diff)
                diff = f"{diff:.3g}" if diff else "0: the numbers agree, other text differs"
            elif numbers(Path(tmp) / ("head" if path in head else "base") / path) is not None:
                uncompared.append(path)
            rows.append(f"| {path} | {diff} |")
        if rows:
            print("| artifact | largest relative difference |")
            print("|---|---|")
            print("\n".join(rows))
        else:
            print(f"All {len(head)} artifacts are byte-identical.")
        print()
        print(f"Largest relative difference over all numeric artifacts: {worst:.3g}"
              + (f"; not compared: {', '.join(uncompared)}" if uncompared else ""))


if __name__ == "__main__":
    main()
