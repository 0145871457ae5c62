"""Command-line entry point.

Subcommands: ``synth``, ``pretrain``, ``select-arch``, ``fit``, ``suite``,
``evaluate``, ``timecourse``, ``export-words``. Every run validates its
inputs, writes outputs only under ``--out``, and drops a ``manifest.json``
(resolved config plus input hashes) next to them. Progress goes to standard
error; standard output stays clean.

Each input's sha256 is taken when the command loads it, so the manifest
describes the bytes the command used. The ERP payload is read once, in
file order, by :func:`data.load_erp`: it hashes every byte as it reads it
and keeps only the trials the command uses (no artifacts, and no
sentence-initial words unless the command includes them), so no unfiltered
copy forms. A checkpoint's ``.ckpt.bin`` is hashed as
:func:`checkpoint.load_checkpoint` reads it, so writing the manifest opens
no payload again.

Memory. A command holds at most one array of the kept trials' epochs plus
a few blocks of trials: ``synth`` generates into its one array,
``pretrain`` takes its r² denominator blockwise, and ``export-words``
scores each chunk of predictions as it is decoded. ``timecourse`` decodes
the model and the intercept model a chunk at a time and scores both chunks
as they are decoded, so it holds the data and no full prediction.

Each training command checks its schedule and weight decay right after
parsing its flags or reading its config, before any input is read:
:func:`autoencoder._check_schedule`, or :func:`encoding._check_grid` at
every decay of the grid that ``fit --wd-search`` or ``suite`` fits (exit 1,
nothing written). ``select-arch``, ``fit --wd-search`` and ``suite`` hold
their fold count to :func:`data.check_fold_count` the same way: at least
2 before any input is read, and at most the kept trials before any freeze
or pretraining.

Before any decode, ``evaluate``, ``timecourse`` and ``export-words`` check
that the autoencoder decodes epochs of the dataset's channels and
timepoints (:func:`autoencoder.check_geometry`), and ``timecourse`` that
its ``--window`` is no longer than the epoch
(:func:`metrics.check_smoothing_window`); exit 1, nothing written.

:func:`build_parser` declares each flag once: ``--out`` on every
subcommand, ``--seed``, ``--epochs``, ``--batch`` and ``--lr`` on the
training commands, and the model, data and table flags of the three
analysis commands. ``fit --folds`` sets the folds of ``--wd-search`` and is
refused without it; a fit's manifest records 5 when it is not given.

``suite`` writes one record, ``suite.json``, whose ``entries`` map each
roster name to its entry's full report, and ``summary.tsv``, the same
comparison as a table. A roster name is a key and a table field, never a
file name; :func:`encoding.check_roster` checks the roster as the config
loads, before the decoder or the data is read (exit 4). The config's
``weight_decay`` becomes the one-value grid ``wd_grid=(wd,)``.

Exit codes: 0 success, 2 usage error, 3 missing file, 4 file format
violation, 1 anything else (an invalid value, a failed run, or an
operating-system error such as an output that cannot be written).
Failures print one line: ``error: <ErrorClass>: <message>``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, autoencoder, encoding, metrics, synth
from .checkpoint import checkpoint_files, file_digest
from .data import (FormatError, check_fold_count, checked_fields, erp_files, keep_mask,
                   load_counts, load_embeddings, load_erp, load_token_features, read_json,
                   write_json)
from .features import FeatureSpec, assemble, build_sentence_tokens


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _hashed(paths) -> list[dict]:
    """The manifest entries of input files ``paths``, hashed as they are now."""
    return [{"path": str(p), "sha256": file_digest(p)} for p in paths]


def _load_hashed(load, basepath, *args):
    """``load(basepath, *args)`` of a checkpoint loader, and the manifest entries
    of the checkpoint's ``.ckpt.json`` and ``.ckpt.bin``; the payload is hashed
    as the loader reads it, so it is opened once."""
    payload_sha256 = hashlib.sha256()
    loaded = load(basepath, *args, hasher=payload_sha256)
    manifest, payload = checkpoint_files(basepath)
    return loaded, [*_hashed([manifest]),
                    {"path": str(payload), "sha256": payload_sha256.hexdigest()}]


def _manifest(out_dir: Path, command: str, config: dict, inputs: dict[str, list]) -> None:
    """Write ``manifest.json``; ``inputs`` maps each label to its files'
    ``{"path", "sha256"}`` entries, taken when the command loaded them."""
    write_json(out_dir / "manifest.json", {
        "command": command,
        "config": config,
        "inputs": inputs,
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
    before filtering) and the manifest inputs, hashed as loaded."""
    tables, payload_sha256 = {}, hashlib.sha256()

    def keep(meta):
        # sentence tokens come from every trial, filtered out or not
        tables["sentence_tokens"] = build_sentence_tokens(meta)
        return keep_mask(meta, include_first_word)

    dataset, meta = load_erp(data, keep=keep, hasher=payload_sha256)
    sidecar, payload, meta_table = erp_files(data)
    inputs = {"data": [*_hashed([sidecar]),
                       {"path": str(payload), "sha256": payload_sha256.hexdigest()},
                       *_hashed([meta_table])]}
    for key, keyword, load in _TABLES:
        if paths.get(key):
            tables[keyword] = load(paths[key])
            inputs[key] = _hashed([paths[key]])
    return dataset, meta, tables, inputs


def _out_dir(path) -> Path:
    """The output directory ``path``, made with its parents if it is missing."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _hyper(values: dict) -> dict:
    """Training hyperparameters from ``values`` (``vars(args)`` or a suite
    config), with the library's default schedule for those it leaves unset."""
    return {key: default if values.get(name) is None else values[name]
            for key, name, default in (("epochs", "epochs", autoencoder.EPOCHS),
                                       ("batch_size", "batch", autoencoder.BATCH_SIZE),
                                       ("lr", "lr", autoencoder.LR))}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    config = synth.SynthConfig.from_json_dict(read_json(args.config))
    inputs = {"config": _hashed([args.config])}
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    _progress(f"generating synthetic dataset ({config.n_trials} trials, seed {config.seed})")
    data = synth.generate(config)
    out = Path(args.out)
    synth.write_dataset_dir(data, out)
    _manifest(out, "synth", config.to_json_dict(), inputs)
    _progress(f"wrote dataset under {out}")
    return 0


def _cmd_pretrain(args) -> int:
    hyper = _hyper(vars(args))
    autoencoder._check_schedule(**hyper)
    # autoencoders reconstruct every clean epoch, sentence-initial words included
    dataset, meta, _, inputs = _load_inputs(args.data, {}, include_first_word=True)
    spec = autoencoder.AutoencoderSpec(
        args.arch, args.intercepts, dataset.n_channels, dataset.n_timepoints)
    _progress(f"pretraining {args.arch} autoencoder on {dataset.n_trials} trials")
    params, history = autoencoder.pretrain(spec, dataset, meta, seed=args.seed, **hyper)
    out = _out_dir(args.out)
    autoencoder.save_autoencoder(out / "autoencoder", params)
    write_json(out / "history.json", history.to_json_dict())
    recon_mse = autoencoder.reconstruction_mse(params, dataset, meta)
    write_json(out / "pretrain_report.json", {
        "architecture": args.arch,
        "intercepts": args.intercepts,
        "best_epoch": history.best_epoch,
        "best_dev_mse": min(history.dev_mse),
        "reconstruction_mse": recon_mse,
        "r2": 1.0 - recon_mse / metrics.pooled_variance(dataset.data),
    })
    _manifest(out, "pretrain",
              {"arch": args.arch, "intercepts": args.intercepts, "seed": args.seed, **hyper},
              inputs)
    _progress(f"best dev MSE {min(history.dev_mse):.6g} at epoch {history.best_epoch}")
    return 0


def _cmd_select_arch(args) -> int:
    hyper = _hyper(vars(args))
    autoencoder._check_schedule(**hyper)
    check_fold_count(args.folds)
    dataset, meta, _, inputs = _load_inputs(args.data, {}, include_first_word=True)
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
    out = _out_dir(args.out)
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
    if args.folds is not None and not args.wd_search:
        raise ValueError("--folds needs --wd-search, whose folds it sets")
    folds = 5 if args.folds is None else args.folds
    sources = _parse_sources(args.sources)
    wd = args.wd if args.wd is not None else 0.0
    hyper = _hyper(vars(args))
    encoding._check_grid(encoding.WEIGHT_DECAY_GRID if args.wd_search else (wd,), **hyper)
    check_fold_count(folds)
    decoder, decoder_inputs = _load_hashed(autoencoder.load_autoencoder, args.decoder)
    dataset, meta, tables, inputs = _load_inputs(args.data, vars(args))
    if args.wd_search:
        check_fold_count(folds, dataset.n_trials)
    fm = assemble(FeatureSpec(sources), meta, **tables)
    frozen = encoding.freeze(decoder, dataset, meta)

    wd_table = None
    if args.wd_search:
        _progress("searching weight decay over the default grid")
        wd, wd_table = encoding.weight_decay_search(
            frozen, fm, sources, k=folds, seed=args.seed, **hyper)
        _progress(f"chosen weight decay: {wd:g}")

    _progress(f"fitting encoding model ({'+'.join(sources)}) on {dataset.n_trials} trials")
    model, history = encoding.train(
        frozen, fm, sources, weight_decay=wd, seed=args.seed, **hyper)
    out = _out_dir(args.out)
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
               "folds": folds, **hyper},
              {"decoder": decoder_inputs, **inputs})
    _progress(f"best dev MSE {min(history.dev_mse):.6g} at epoch {history.best_epoch}")
    return 0


# the optional keys of a suite config and their JSON types
_SUITE_KEYS = {"folds": int, "seed": int, "epochs": int, "batch": int, "lr": float,
               "weight_decay": float | None, "ceiling_mse": float | None,
               "counts": str, "embeddings": str, "token_features": str, "roster": list | None}


def _cmd_suite(args) -> int:
    where = f"{args.config}: suite config"
    config = checked_fields(read_json(args.config), {"data": str, "decoder": str}, where,
                            optional=_SUITE_KEYS)
    config_inputs = _hashed([args.config])
    roster = config.get("roster")
    if roster is not None:
        entries = [checked_fields(entry, {"name": str, "sources": tuple[str, ...]},
                                  f"{where} roster entry {i}") for i, entry in enumerate(roster)]
        roster = [(entry["name"], tuple(entry["sources"])) for entry in entries]
        try:  # before the decoder or the data is read
            encoding.check_roster(roster)
        except ValueError as e:
            raise FormatError(f"{args.config}: {e}") from None
    k, seed, wd = config.get("folds", 5), config.get("seed", 0), config.get("weight_decay")
    wd_grid = encoding.WEIGHT_DECAY_GRID if wd is None else (wd,)
    hyper = _hyper(config)
    encoding._check_grid(wd_grid, **hyper)
    check_fold_count(k)
    decoder, decoder_inputs = _load_hashed(autoencoder.load_autoencoder, config["decoder"])
    dataset, meta, tables, inputs = _load_inputs(config["data"], config)

    _progress(f"running model suite on {dataset.n_trials} trials, {k} folds")
    result = encoding.run_model_suite(
        decoder, dataset, meta, roster, k=k, seed=seed, wd_grid=wd_grid,
        ceiling_mse=config.get("ceiling_mse"), **tables, **hyper)

    out = _out_dir(args.out)
    lines = ["# model comparison suite: r2_mod x fold mean with bootstrap CI",
             f"# shared fold digest: {result['fold_digest']}",
             "\t".join(["model", "sources", "weight_decay", "r2_mod",
                        "ci_low", "ci_high", "mse_model"])]
    for name, entry in result["entries"].items():
        report = entry["report"]
        lines.append("\t".join([
            name, "+".join(entry["sources"]), repr(float(entry["weight_decay"])),
            repr(report.r2_mod), repr(report.ci_low), repr(report.ci_high),
            repr(report.mse_model)]))
        _progress(f"  {name}: r2_mod {report.r2_mod:.4f} "
                  f"[{report.ci_low:.4f}, {report.ci_high:.4f}]")
    (out / "summary.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_json(out / "suite.json", {
        "fold_digest": result["fold_digest"],
        "k": result["k"],
        "entries": {n: e["report"].to_json_dict() for n, e in result["entries"].items()},
        "skipped": result["skipped"],
    })
    _manifest(out, "suite", {"folds": k, "seed": seed, "weight_decay": wd, **hyper},
              {"config": config_inputs, "decoder": decoder_inputs, **inputs})
    return 0


def _load_analysis(args):
    """Inputs of ``evaluate``, ``timecourse`` and ``export-words``: the autoencoder,
    the filtered dataset and meta, (model, features) for ``--model`` and for
    ``--intercept`` (None for a command without one), and the manifest inputs."""
    ae_params, ae_inputs = _load_hashed(autoencoder.load_autoencoder, args.autoencoder)
    dataset, meta, tables, inputs = _load_inputs(args.data, vars(args))
    autoencoder.check_geometry(ae_params.spec, dataset)  # before any decode
    inputs["autoencoder"] = ae_inputs

    def fitted(label, path):
        model, inputs[label] = _load_hashed(encoding.load_encoding_model, path, ae_params)
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
    out = _out_dir(args.out)
    report.write(out / "report.json")
    _manifest(out, "evaluate", {}, inputs)
    _progress(f"r2_mod {report.r2_mod:.4f} "
              f"(model {mse_model:.6g}, intercept {mse_intercept:.6g}, "
              f"autoencoder {mse_ae:.6g})")
    return 0


def _cmd_timecourse(args) -> int:
    _, dataset, meta, (model, fm), (intercept, fm_intercept), inputs = _load_analysis(args)
    metrics.check_smoothing_window(args.window, dataset.n_timepoints)  # before any decode
    # both models decoded and scored a chunk at a time, the data's chunk centred once
    correlation = metrics.TimepointCorrelation(dataset.data)
    chunks = encoding.map_predictions(correlation.chunk, [(model, fm), (intercept, fm_intercept)],
                                      [m.subject_id for m in meta])
    series = correlation.increase(chunks, dataset.time_axis_ms())
    smoothed = metrics.moving_average_smooth(series, args.window)
    out = _out_dir(args.out)
    metrics.write_timecourse_tsv(out / "timecourse.tsv", series, smoothed)
    _manifest(out, "timecourse", {"window": args.window}, inputs)
    _progress(f"peak increase {smoothed.values.max():.4f} at {smoothed.peak_ms():.0f} ms")
    return 0


def _cmd_export_words(args) -> int:
    _, dataset, meta, (model, fm), _, inputs = _load_analysis(args)
    chunks = encoding.map_predictions(
        lambda rows, preds: metrics.trial_correlations(preds, dataset.data[rows]),
        [(model, fm)], [m.subject_id for m in meta])
    table = metrics.word_level_table(
        [r for chunk in chunks for r in chunk], meta, model_name="+".join(model.sources),
        sources=model.sources)
    out = _out_dir(args.out)
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


def _smoothing_window(text: str) -> int:
    """``timecourse --window``: an odd number of samples, at least 1
    (:func:`metrics.check_smoothing_window`), checked as the command line is
    parsed, before any input is read."""
    try:
        window = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        metrics.check_smoothing_window(window)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return window


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erpcoder",
        description="Convolutional autoencoders and word-feature encoding models "
                    "for ERP epochs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def training_flags(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--batch", type=int, default=None)
        p.add_argument("--lr", type=float, default=None)

    def table_flags(p):
        p.add_argument("--features", dest="token_features",
                       help="token feature table (.feat.tsv)")
        p.add_argument("--counts", help="frequency counts TSV")
        p.add_argument("--embeddings", help="embedding text file")

    p = command("synth", _cmd_synth, "generate a synthetic dataset with ground truth")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = command("pretrain", _cmd_pretrain, "pretrain an autoencoder")
    p.add_argument("--data", required=True, help="ERP dataset base path")
    p.add_argument("--arch", choices=autoencoder.ARCHITECTURES, default="beta")
    p.add_argument("--intercepts", action="store_true")
    training_flags(p)

    p = command("select-arch", _cmd_select_arch, "cross-validate candidate architectures")
    p.add_argument("--data", required=True)
    p.add_argument("--intercepts", action="store_true",
                   help="also evaluate intercept variants of each architecture")
    p.add_argument("--folds", type=int, default=5)
    training_flags(p)

    p = command("fit", _cmd_fit, "fit an encoding model against a frozen decoder")
    p.add_argument("--decoder", required=True, help="autoencoder checkpoint base path")
    p.add_argument("--data", required=True)
    p.add_argument("--sources", required=True,
                   help="comma-separated feature sources, e.g. frequency,surprisal")
    table_flags(p)
    decay = p.add_mutually_exclusive_group()
    decay.add_argument("--wd", type=float, default=None)
    decay.add_argument("--wd-search", action="store_true", dest="wd_search")
    p.add_argument("--folds", type=int, default=None)
    training_flags(p)

    command("suite", _cmd_suite, "run the model-comparison suite").add_argument(
        "--config", required=True)

    for name, func, help in (
            ("evaluate", _cmd_evaluate, "score a fitted model against its anchors"),
            ("timecourse", _cmd_timecourse, "per-timepoint correlation increase"),
            ("export-words", _cmd_export_words, "per-word correlation table")):
        p = command(name, func, help)
        p.add_argument("--model", required=True)
        if name != "export-words":
            p.add_argument("--intercept", required=True, help="intercept model checkpoint")
        p.add_argument("--autoencoder", required=True)
        p.add_argument("--data", required=True)
        table_flags(p)
    sub.choices["timecourse"].add_argument("--window", type=_smoothing_window, default=9)

    for p in sub.choices.values():
        p.add_argument("--out", required=True)
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
    except OSError as e:  # an output the OS would not write, say
        print(f"error: OSError: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
