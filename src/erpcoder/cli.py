"""Command-line entry point.

Subcommands: ``synth``, ``pretrain``, ``select-arch``, ``fit``, ``suite``,
``evaluate``, ``timecourse``, ``export-words``. Every run validates its
inputs, writes outputs only under ``--out``, and drops a ``manifest.json``
(resolved config plus input hashes) next to them. Progress goes to standard
error; standard output stays clean.

Exit codes: 0 success, 2 usage error, 3 missing file, 4 file format
violation, 1 anything else. Failures print one line:
``error: <ErrorClass>: <message>``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, autoencoder, encoding, metrics, synth
from .checkpoint import checkpoint_files, file_digest
from .data import (FormatError, checked_fields, erp_files, filter_artifacts, load_counts,
                   load_embeddings, load_erp, load_token_features, read_json, write_json)
from .features import FeatureSpec, assemble, build_sentence_tokens


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _manifest(out_dir: Path, command: str, config: dict, inputs: dict[str, list]) -> None:
    hashed = {}
    for label, paths in inputs.items():
        hashed[label] = [
            {"path": str(p), "sha256": file_digest(p)} for p in paths
        ]
    write_json(out_dir / "manifest.json", {
        "command": command,
        "config": config,
        "inputs": hashed,
        "version": __version__,
    })


# feature table: path key (flag dest or suite config key), assemble keyword, loader
_TABLES = (("counts", "counts_table", load_counts),
           ("embeddings", "embeddings", load_embeddings),
           ("token_features", "token_features", load_token_features))


def _load_inputs(data, paths: dict, include_first_word: bool = False):
    """Load the ERP dataset at ``data`` and the tables ``paths`` (``vars(args)`` or a
    suite config) names. Returns the dataset and meta without artifacts (and
    without sentence-initial words unless ``include_first_word``), the table
    keywords of ``assemble``/``run_model_suite`` (``sentence_tokens`` built
    before filtering) and the manifest inputs."""
    dataset, meta = load_erp(data)
    tables = {"sentence_tokens": build_sentence_tokens(meta)}
    dataset, meta = filter_artifacts(dataset, meta, include_first_word=include_first_word)
    inputs = {"data": erp_files(data)}
    for key, keyword, load in _TABLES:
        if paths.get(key):
            tables[keyword] = load(paths[key])
            inputs[key] = [paths[key]]
    return dataset, meta, tables, inputs


def _add_table_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", dest="token_features", help="token feature table (.feat.tsv)")
    p.add_argument("--counts", help="frequency counts TSV")
    p.add_argument("--embeddings", help="embedding text file")


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--dev-fraction", type=float, default=None, dest="dev_fraction")


_TRAIN_DEFAULTS = {"epochs": 200, "batch_size": 128, "lr": 0.001, "dev_fraction": 0.1}


def _hyper(args, config: dict | None = None) -> dict:
    """Training hyperparameters: a flag overrides ``config`` (a suite config),
    which overrides ``_TRAIN_DEFAULTS``."""
    config = config or {}
    out = {}
    for key, name in (("epochs", "epochs"), ("batch_size", "batch"),
                      ("lr", "lr"), ("dev_fraction", "dev_fraction")):
        value = getattr(args, name, None)
        out[key] = config.get(name, _TRAIN_DEFAULTS[key]) if value is None else value
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    config = synth.SynthConfig.from_json_dict(read_json(args.config))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    _progress(f"generating synthetic dataset ({config.n_trials} trials, seed {config.seed})")
    data = synth.generate(config)
    out = Path(args.out)
    synth.write_dataset_dir(data, out)
    _manifest(out, "synth", config.to_json_dict(), {"config": [args.config]})
    _progress(f"wrote dataset under {out}")
    return 0


def _cmd_pretrain(args) -> int:
    # autoencoders reconstruct every clean epoch, sentence-initial words included
    dataset, meta, _, inputs = _load_inputs(args.data, {}, include_first_word=True)
    spec = autoencoder.AutoencoderSpec(
        args.arch, args.intercepts, dataset.n_channels, dataset.n_timepoints)
    hyper = _hyper(args)
    _progress(f"pretraining {args.arch} autoencoder on {dataset.n_trials} trials")
    params, history = autoencoder.pretrain(spec, dataset, meta, seed=args.seed, **hyper)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    autoencoder.save_autoencoder(out / "autoencoder", params)
    write_json(out / "history.json", history.to_json_dict())
    recon_mse = autoencoder.reconstruction_mse(params, dataset, meta)
    write_json(out / "pretrain_report.json", {
        "architecture": args.arch,
        "intercepts": args.intercepts,
        "best_epoch": history.best_epoch,
        "best_dev_mse": min(history.dev_mse),
        "reconstruction_mse": recon_mse,
        "r2": 1.0 - recon_mse / float(dataset.data.var()),
    })
    _manifest(out, "pretrain",
              {"arch": args.arch, "intercepts": args.intercepts, "seed": args.seed, **hyper},
              inputs)
    _progress(f"best dev MSE {min(history.dev_mse):.6g} at epoch {history.best_epoch}")
    return 0


def _cmd_select_arch(args) -> int:
    dataset, meta, _, inputs = _load_inputs(args.data, {}, include_first_word=True)
    hyper = _hyper(args)
    candidates = None
    if args.intercepts:
        # cross each architecture with and without subject/electrode intercepts
        candidates = [
            autoencoder.AutoencoderSpec(arch, icpt, dataset.n_channels,
                                        dataset.n_timepoints)
            for arch in autoencoder.ARCHITECTURES for icpt in (False, True)
        ]
    _progress(f"cross-validating architectures on {dataset.n_trials} trials")
    report = autoencoder.select_architecture(
        dataset, meta, candidates, k=args.folds, seed=args.seed, **hyper)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report)
    for name, entry in report["candidates"].items():
        _progress(f"  {name}: mean MSE {entry['mean_mse']:.6g}, "
                  f"mean R2 {entry['mean_r2']:.4f}")
    _progress(f"winner: {report['winner']}")
    _manifest(out, "select-arch",
              {"folds": args.folds, "seed": args.seed,
               "intercepts": args.intercepts, **hyper},
              inputs)
    return 0


def _parse_sources(text: str) -> tuple[str, ...]:
    sources = tuple(s.strip() for s in text.split(",") if s.strip())
    FeatureSpec(sources)  # validate early
    return sources


def _cmd_fit(args) -> int:
    sources = _parse_sources(args.sources)
    decoder = autoencoder.load_autoencoder(args.decoder)
    dataset, meta, tables, inputs = _load_inputs(args.data, vars(args))
    fm = assemble(FeatureSpec(sources), meta, **tables)
    frozen = encoding.freeze(decoder, dataset, meta)
    hyper = _hyper(args)

    wd_table = None
    if args.wd_search:
        _progress("searching weight decay over the default grid")
        wd, wd_table = encoding.weight_decay_search(
            frozen, fm, sources, k=args.folds, seed=args.seed, **hyper)
        _progress(f"chosen weight decay: {wd:g}")
    else:
        wd = args.wd if args.wd is not None else 0.0

    _progress(f"fitting encoding model ({'+'.join(sources)}) on {dataset.n_trials} trials")
    model, history = encoding.train(
        frozen, fm, sources, weight_decay=wd, seed=args.seed, **hyper)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    encoding.save_encoding_model(out / "model", model)
    write_json(out / "history.json", history.to_json_dict())
    report = {
        "sources": list(sources),
        "weight_decay": wd,
        "best_epoch": history.best_epoch,
        "best_dev_mse": min(history.dev_mse),
        "train_mse": encoding.model_mse(model, frozen, fm),
    }
    if wd_table is not None:
        report["wd_table"] = wd_table
    write_json(out / "fit_report.json", report)
    _manifest(out, "fit",
              {"sources": list(sources), "weight_decay": wd,
               "wd_search": bool(args.wd_search), "seed": args.seed,
               "folds": args.folds, **hyper},
              {"decoder": checkpoint_files(args.decoder), **inputs})
    _progress(f"best dev MSE {min(history.dev_mse):.6g} at epoch {history.best_epoch}")
    return 0


# the optional keys of a suite config and their JSON types
_SUITE_KEYS = {"folds": int, "seed": int, "epochs": int, "batch": int, "lr": float,
               "dev_fraction": float, "weight_decay": float | None,
               "ceiling_mse": float | tuple[float, ...] | None,
               "counts": str, "embeddings": str, "token_features": str, "roster": list | None}


def _cmd_suite(args) -> int:
    where = f"{args.config}: suite config"
    config = checked_fields(read_json(args.config), {"data": str, "decoder": str}, where,
                            optional=_SUITE_KEYS)
    roster = None
    if config.get("roster"):
        roster = []
        for i, entry in enumerate(config["roster"]):
            entry = checked_fields(entry, {"name": str, "sources": tuple[str, ...]},
                                   f"{where} roster entry {i}")
            roster.append((entry["name"], tuple(entry["sources"])))
    decoder = autoencoder.load_autoencoder(config["decoder"])
    dataset, meta, tables, inputs = _load_inputs(config["data"], config)
    hyper = _hyper(args, config)
    k = args.folds if args.folds is not None else config.get("folds", 5)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    wd = args.wd if args.wd is not None else config.get("weight_decay")

    _progress(f"running model suite on {dataset.n_trials} trials, {k} folds")
    result = encoding.run_model_suite(
        decoder, dataset, meta, roster, k=k, seed=seed, weight_decay=wd,
        ceiling_mse=config.get("ceiling_mse"), **tables, **hyper)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = encoding.suite_summary_rows(result)
    lines = ["# model comparison suite: r2_mod x fold mean with bootstrap CI",
             f"# shared fold digest: {result['fold_digest']}",
             "\t".join(["model", "sources", "weight_decay", "r2_mod",
                        "ci_low", "ci_high", "mse_model"])]
    for row in rows:
        lines.append("\t".join([
            row["model"], row["sources"], repr(float(row["weight_decay"])),
            repr(row["r2_mod"]), repr(row["ci_low"]), repr(row["ci_high"]),
            repr(row["mse_model"])]))
    (out / "summary.tsv").write_text("\n".join(lines) + "\n")
    for name, entry in result["entries"].items():
        safe = name.replace("+", "_")
        entry["report"].write(out / f"report_{safe}.json")
    write_json(out / "suite.json", {
        "fold_digest": result["fold_digest"],
        "k": result["k"],
        "entries": {n: {"sources": e["sources"], "weight_decay": e["weight_decay"],
                        "r2_mod": e["report"].r2_mod}
                    for n, e in result["entries"].items()},
        "skipped": result["skipped"],
    })
    _manifest(out, "suite", {"folds": k, "seed": seed, "weight_decay": wd, **hyper},
              {"config": [args.config], "decoder": checkpoint_files(config["decoder"]),
               **inputs})
    for row in rows:
        _progress(f"  {row['model']}: r2_mod {row['r2_mod']:.4f} "
                  f"[{row['ci_low']:.4f}, {row['ci_high']:.4f}]")
    return 0


def _load_analysis(args):
    """Inputs of ``evaluate``, ``timecourse`` and ``export-words``: the autoencoder,
    the filtered dataset and meta, (model, features) for ``--model`` and for
    ``--intercept`` (None for a command without one), and the manifest inputs."""
    ae_params = autoencoder.load_autoencoder(args.autoencoder)
    dataset, meta, tables, inputs = _load_inputs(args.data, vars(args))
    inputs["autoencoder"] = checkpoint_files(args.autoencoder)

    def fitted(label, path):
        model = encoding.load_encoding_model(path, ae_params)
        inputs[label] = checkpoint_files(path)
        return model, assemble(FeatureSpec(model.sources), meta, **tables)

    model = fitted("model", args.model)
    intercept = fitted("intercept", args.intercept) if hasattr(args, "intercept") else None
    return ae_params, dataset, meta, model, intercept, inputs


def _cmd_evaluate(args) -> int:
    (ae_params, dataset, meta, (model, fm), (intercept, fm_intercept),
     inputs) = _load_analysis(args)
    frozen = encoding.freeze(ae_params, dataset, meta)
    mse_model = encoding.model_mse(model, frozen, fm)
    mse_intercept = encoding.model_mse(intercept, frozen, fm_intercept)
    mse_ae = autoencoder.reconstruction_mse(ae_params, dataset, meta)
    report = metrics.EvalReport(
        model_name="+".join(model.sources),
        mse_model=mse_model,
        mse_intercept=mse_intercept,
        mse_autoencoder=mse_ae,
        r2_mod=metrics.r2_mod(mse_model, mse_intercept, mse_ae),
        metadata={"n_trials": dataset.n_trials,
                  "pooling": "trials x channels jointly"},
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write(out / "report.json")
    _manifest(out, "evaluate", {}, inputs)
    _progress(f"r2_mod {report.r2_mod:.4f} "
              f"(model {mse_model:.6g}, intercept {mse_intercept:.6g}, "
              f"autoencoder {mse_ae:.6g})")
    return 0


def _cmd_timecourse(args) -> int:
    _, dataset, meta, (model, fm), (intercept, fm_intercept), inputs = _load_analysis(args)
    subj = [m.subject_id for m in meta]
    preds = encoding.predict_erp(model, fm, subj)
    preds_int = encoding.predict_erp(intercept, fm_intercept, subj)
    series = metrics.timepoint_correlation_increase(
        preds, preds_int, dataset.data, ms_axis=dataset.time_axis_ms())
    smoothed = metrics.moving_average_smooth(series, args.window)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_timecourse_tsv(out / "timecourse.tsv", series, smoothed)
    _manifest(out, "timecourse", {"window": args.window}, inputs)
    _progress(f"peak increase {smoothed.values.max():.4f} at {smoothed.peak_ms():.0f} ms")
    return 0


def _cmd_export_words(args) -> int:
    _, dataset, meta, (model, fm), _, inputs = _load_analysis(args)
    preds = encoding.predict_erp(model, fm, [m.subject_id for m in meta])
    table = metrics.per_word_correlations(
        preds, dataset.data, meta, model_name="+".join(model.sources),
        sources=model.sources)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.to_tsv(out / "words.tsv")
    summary = metrics.content_function_summary(table)
    write_json(out / "word_class_summary.json", summary)
    _manifest(out, "export-words", {}, inputs)
    means = {cls: "n/a" if s["mean_r"] is None else f"{s['mean_r']:.4f}"
             for cls, s in summary.items()}
    _progress(f"mean r: content {means['content']}, function {means['function']}")
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erpcoder",
        description="Convolutional autoencoders and word-feature encoding models "
                    "for ERP epochs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pretrain", help="pretrain an autoencoder")
    p.add_argument("--data", required=True, help="ERP dataset base path")
    p.add_argument("--arch", choices=autoencoder.ARCHITECTURES, default="beta")
    p.add_argument("--intercepts", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    _add_hyper_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("select-arch", help="cross-validate candidate architectures")
    p.add_argument("--data", required=True)
    p.add_argument("--intercepts", action="store_true",
                   help="also evaluate intercept variants of each architecture")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_hyper_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select_arch)

    p = sub.add_parser("fit", help="fit an encoding model against a frozen decoder")
    p.add_argument("--decoder", required=True, help="autoencoder checkpoint base path")
    p.add_argument("--data", required=True)
    p.add_argument("--sources", required=True,
                   help="comma-separated feature sources, e.g. frequency,surprisal")
    _add_table_flags(p)
    p.add_argument("--wd", type=float, default=None)
    p.add_argument("--wd-search", action="store_true", dest="wd_search")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_hyper_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("suite", help="run the model-comparison suite")
    p.add_argument("--config", required=True)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--wd", type=float, default=None)
    _add_hyper_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("evaluate", help="score a fitted model against its anchors")
    p.add_argument("--model", required=True)
    p.add_argument("--intercept", required=True, help="intercept model checkpoint")
    p.add_argument("--autoencoder", required=True)
    p.add_argument("--data", required=True)
    _add_table_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("timecourse", help="per-timepoint correlation increase")
    p.add_argument("--model", required=True)
    p.add_argument("--intercept", required=True)
    p.add_argument("--autoencoder", required=True)
    p.add_argument("--data", required=True)
    _add_table_flags(p)
    p.add_argument("--window", type=int, default=9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_timecourse)

    p = sub.add_parser("export-words", help="per-word correlation table")
    p.add_argument("--model", required=True)
    p.add_argument("--autoencoder", required=True)
    p.add_argument("--data", required=True)
    _add_table_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_words)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: MissingFile: {e}", file=sys.stderr)
        return 3
    except FormatError as e:
        print(f"error: FormatViolation: {e}", file=sys.stderr)
        return 4
    except (ValueError, KeyError) as e:
        print(f"error: InvalidInput: {e}", file=sys.stderr)
        return 1
    except RuntimeError as e:
        print(f"error: RunFailure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
