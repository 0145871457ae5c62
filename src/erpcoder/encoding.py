"""Encoding models: word features -> latent space -> frozen convolutional decoder.

A pre-trained decoder is frozen bitwise (verified by content hash before and
after training). Features reach its latent space through an interface map:
one linear transformation per latent channel, i.e. weights (T_lat x D) and a
bias (T_lat) for each channel. Embedding feature blocks may first pass
through a tuner, a one-hidden-layer tanh MLP; scalar features are
concatenated after the tuned block.

Training minimizes MSE between predicted and observed epochs over the
interface and tuner parameters only, with Adam, optional L2 weight decay,
and best-dev-epoch early stopping (weights are restored to the best epoch).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .autoencoder import (AutoencoderParams, TrainHistory, _add_intercepts,
                          _decoder_forward, _fit_epochs, _stack_backward,
                          reconstruction_mse)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import ErpDataset, TrialMeta, kfold_split, train_dev_split
from .features import (FeatureMatrix, FeatureSpec, Standardizer, apply_standardizer,
                       assemble, fit_standardizer)
from .metrics import EvalReport, fold_report


@dataclass(frozen=True)
class TunerConfig:
    """One-hidden-layer tanh MLP applied to the embedding feature block."""

    enabled: bool = False
    hidden_size: int = 64
    output_size: int | None = None  # None: same as hidden_size

    @property
    def out_dim(self) -> int:
        return self.output_size if self.output_size is not None else self.hidden_size

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "TunerConfig":
        return cls(bool(d["enabled"]), int(d["hidden_size"]),
                   None if d["output_size"] is None else int(d["output_size"]))


@dataclass
class InterfaceMap:
    """Per-latent-channel linear maps: z[c, t] = weights[c, t, :] . f + bias[c, t]."""

    weights: np.ndarray  # (C_lat, T_lat, D_in)
    bias: np.ndarray  # (C_lat, T_lat)


@dataclass
class EncodingModel:
    decoder: AutoencoderParams
    decoder_digest: str
    interface: InterfaceMap
    tuner_config: TunerConfig
    tuner: dict[str, np.ndarray] | None
    feature_names: list[str]
    sources: tuple[str, ...]
    embed_cols: np.ndarray
    scalar_cols: np.ndarray
    standardizer: Standardizer
    weight_decay: float


def _split_columns(matrix_names: list[str], sources) -> tuple[np.ndarray, np.ndarray]:
    """Embedding-block vs scalar column indices, in matrix order."""
    spec = FeatureSpec(tuple(sources))
    embed = []
    scalar = []
    for i, name in enumerate(matrix_names):
        base = name.split(".")[0]
        (embed if base in spec.embedding_sources else scalar).append(i)
    return np.array(embed, dtype=int), np.array(scalar, dtype=int)


def _init_trainable(rng: np.random.Generator, n_embed: int, n_scalar: int,
                    latent_channels: int, latent_timepoints: int,
                    tuner_config: TunerConfig) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    d_in = n_scalar + (tuner_config.out_dim if tuner_config.enabled else n_embed)
    if tuner_config.enabled:
        h, o = tuner_config.hidden_size, tuner_config.out_dim
        s1 = 1.0 / np.sqrt(max(n_embed, 1))
        params["tuner.w1"] = rng.uniform(-s1, s1, size=(h, n_embed))
        params["tuner.b1"] = rng.uniform(-s1, s1, size=h)
        s2 = 1.0 / np.sqrt(h)
        params["tuner.w2"] = rng.uniform(-s2, s2, size=(o, h))
        params["tuner.b2"] = rng.uniform(-s2, s2, size=o)
    si = 1.0 / np.sqrt(max(d_in, 1))
    params["interface.weights"] = rng.uniform(
        -si, si, size=(latent_channels, latent_timepoints, d_in))
    params["interface.bias"] = np.zeros((latent_channels, latent_timepoints))
    return params


def _forward(params: dict[str, np.ndarray], decoder: AutoencoderParams,
             f_std: np.ndarray, embed_cols: np.ndarray, scalar_cols: np.ndarray,
             tuner_config: TunerConfig, subject_ids=None, record: bool = False):
    """Features (already standardized) -> predicted epochs, with backward contexts."""
    femb = f_std[:, embed_cols]
    fscal = f_std[:, scalar_cols]
    ctxs: dict = {}
    if tuner_config.enabled:
        h1, c1 = nn.dense_forward(femb, params["tuner.w1"], params["tuner.b1"])
        a1, ct = nn.tanh_forward(h1)
        tuned, c2 = nn.dense_forward(a1, params["tuner.w2"], params["tuner.b2"])
        ctxs["tuner"] = (c1, ct, c2)
    else:
        tuned = femb
    u = np.hstack([tuned, fscal])
    w = params["interface.weights"]
    if u.shape[1] != w.shape[2]:
        raise ValueError(
            f"interface expects width {w.shape[2]}, features provide {u.shape[1]}")
    z = np.einsum("ctd,nd->nct", w, u, optimize=True) + params["interface.bias"]
    y, ctxs["decoder"] = _decoder_forward(decoder, z, record=record)
    y = _add_intercepts(decoder, y, subject_ids)
    ctxs["u"] = u
    ctxs["n_tuned"] = tuned.shape[1]
    return y, ctxs


def _backward(params: dict[str, np.ndarray], grad_y: np.ndarray, ctxs: dict,
              tuner_config: TunerConfig) -> dict[str, np.ndarray]:
    """Gradients for interface and tuner; the decoder is frozen."""
    gz, _ = _stack_backward(ctxs["decoder"], grad_y, need_param_grads=False)
    u = ctxs["u"]
    w = params["interface.weights"]
    grads = {
        "interface.weights": np.einsum("nct,nd->ctd", gz, u, optimize=True),
        "interface.bias": gz.sum(axis=0),
    }
    if tuner_config.enabled:
        du = np.einsum("ctd,nct->nd", w, gz, optimize=True)
        de = du[:, : ctxs["n_tuned"]]
        c1, ct, c2 = ctxs["tuner"]
        lg2 = nn.dense_backward(c2, de)
        grads["tuner.w2"] = lg2.param_grads["weight"]
        grads["tuner.b2"] = lg2.param_grads["bias"]
        ga = nn.tanh_backward(ct, lg2.input_grad)
        lg1 = nn.dense_backward(c1, ga.input_grad)
        grads["tuner.w1"] = lg1.param_grads["weight"]
        grads["tuner.b1"] = lg1.param_grads["bias"]
    return grads


def _model_params(model: EncodingModel) -> dict[str, np.ndarray]:
    params = {"interface.weights": model.interface.weights,
              "interface.bias": model.interface.bias}
    if model.tuner is not None:
        params.update(model.tuner)
    return params


def predict_erp(model: EncodingModel, features: FeatureMatrix,
                subject_ids=None) -> np.ndarray:
    """Predicted epochs for raw (unstandardized) features with matching columns."""
    if features.standardized:
        raise ValueError("pass raw features; the model applies its own standardizer")
    if features.names != model.feature_names:
        raise ValueError(
            f"feature columns {features.names} do not match the model's "
            f"{model.feature_names}")
    f_std = apply_standardizer(features, model.standardizer).values
    y, _ = _forward(_model_params(model), model.decoder, f_std, model.embed_cols,
                    model.scalar_cols, model.tuner_config, subject_ids)
    return y


def _check_filtered(meta: list[TrialMeta]) -> None:
    if any(m.artifact for m in meta):
        raise ValueError("training trials must be artifact-filtered first")
    if any(m.word_position == 1 for m in meta):
        raise ValueError("training trials must exclude sentence-initial words")


def train(decoder: AutoencoderParams, dataset: ErpDataset, meta: list[TrialMeta],
          features: FeatureMatrix, sources, *, tuner: TunerConfig | None = None,
          epochs: int = 200, batch_size: int = 128, lr: float = 0.001,
          weight_decay: float = 0.0, seed: int = 0, dev_fraction: float = 0.1
          ) -> tuple[EncodingModel, TrainHistory]:
    """Fit interface (and tuner) to predict epochs from features.

    The decoder is frozen: its parameter hash is checked before and after.
    Deterministic given the seed; ``history.best_epoch`` is a 0-based epoch
    index, and retraining with ``epochs = best_epoch + 1`` reproduces the
    restored parameters exactly.
    """
    sources = tuple(sources)
    if features.n_trials != dataset.n_trials or len(meta) != dataset.n_trials:
        raise ValueError(
            f"got {dataset.n_trials} trials, {len(meta)} meta rows, "
            f"{features.n_trials} feature rows")
    _check_filtered(meta)
    spec = FeatureSpec(sources)
    embed_cols, scalar_cols = _split_columns(features.names, sources)
    if tuner is None:
        tuner = TunerConfig(enabled=bool(spec.embedding_sources))
    if tuner.enabled and not spec.embedding_sources:
        raise ValueError("tuner enabled but the feature spec has no embedding source")

    digest_before = decoder.decoder_digest()
    rng = np.random.default_rng(seed)
    train_idx, dev_idx = train_dev_split(
        dataset.n_trials, dev_fraction, seed=int(rng.integers(2**63)))
    standardizer = fit_standardizer(features, train_idx)
    f_std = apply_standardizer(features, standardizer).values
    params = _init_trainable(rng, len(embed_cols), len(scalar_cols),
                             decoder.plan.latent_channels,
                             decoder.plan.latent_timepoints, tuner)

    subject_ids = [m.subject_id for m in meta] if decoder.spec.intercepts else None

    def forward(idx, record):
        subj = [subject_ids[i] for i in idx] if subject_ids is not None else None
        return _forward(params, decoder, f_std[idx], embed_cols, scalar_cols,
                        tuner, subj, record=record)

    def backward(grad_y, ctxs, idx):
        return _backward(params, grad_y, ctxs, tuner)

    history = _fit_epochs(params, dataset.data, train_idx, dev_idx, rng, forward, backward,
                          epochs=epochs, batch_size=batch_size, lr=lr,
                          weight_decay=weight_decay)

    if decoder.decoder_digest() != digest_before:
        raise RuntimeError("frozen decoder was mutated during training")

    model = EncodingModel(
        decoder=decoder,
        decoder_digest=digest_before,
        interface=InterfaceMap(params["interface.weights"], params["interface.bias"]),
        tuner_config=tuner,
        tuner={k: v for k, v in params.items() if k.startswith("tuner.")} or None,
        feature_names=list(features.names),
        sources=sources,
        embed_cols=embed_cols,
        scalar_cols=scalar_cols,
        standardizer=standardizer,
        weight_decay=weight_decay,
    )
    return model, history


def model_mse(model: EncodingModel, dataset: ErpDataset, meta: list[TrialMeta],
              features: FeatureMatrix, indices=None) -> float:
    """MSE of the model's predictions over the given trials."""
    idx = np.arange(dataset.n_trials) if indices is None else np.asarray(indices)
    subj = [meta[i].subject_id for i in idx] if model.decoder.spec.intercepts else None
    preds = predict_erp(model, features.take(idx), subj)
    loss, _ = nn.mse_loss(preds, dataset.data[idx])
    return loss


# ---------------------------------------------------------------------------
# Weight-decay search and the model-comparison suite
# ---------------------------------------------------------------------------

WEIGHT_DECAY_GRID = (1e-5, 1e-3, 1e-1)


def _fold_mses(decoder: AutoencoderParams, dataset: ErpDataset, meta: list[TrialMeta],
               features: FeatureMatrix, sources, folds, seeds, **train_kwargs
               ) -> list[float]:
    """Held-out MSE per fold of a model trained on the fold's complement.

    Fold ``f`` trains with seed ``seeds[f]``; ``train_kwargs`` go to :func:`train`.
    """
    mses = []
    for f, run_seed in enumerate(seeds):
        tr = folds.train_indices(f)
        model, _ = train(decoder, dataset.subset(tr), [meta[i] for i in tr],
                         features.take(tr), sources, seed=run_seed, **train_kwargs)
        mses.append(model_mse(model, dataset, meta, features, folds.test_indices(f)))
    return mses


def _grid_search(grid, fold_mses) -> tuple[float, list[dict], list[float]]:
    """Pick the weight decay with the lowest mean of ``fold_mses(index, wd)``.

    Ties break to the smaller weight decay. Returns (chosen_wd, table, the
    chosen wd's per-fold MSEs), with one table row per (weight_decay, fold).
    """
    runs = [(wd, fold_mses(i, wd)) for i, wd in enumerate(grid)]
    table = [{"weight_decay": wd, "fold": f, "mse": m}
             for wd, mses in runs for f, m in enumerate(mses)]
    chosen, mses = min(runs, key=lambda run: (float(np.mean(run[1])), run[0]))
    return chosen, table, mses


def weight_decay_search(decoder: AutoencoderParams, dataset: ErpDataset,
                        meta: list[TrialMeta], features: FeatureMatrix, sources, *,
                        grid=WEIGHT_DECAY_GRID, k: int = 5, seed: int = 0,
                        tuner: TunerConfig | None = None, epochs: int = 200,
                        batch_size: int = 128, lr: float = 0.001,
                        dev_fraction: float = 0.1) -> tuple[float, list[dict]]:
    """Choose the weight decay with the best mean held-out MSE over k folds.

    Deterministic given the seed; ties break to the smaller weight decay.
    Returns (chosen_wd, table) with one row per (weight_decay, fold).
    """
    grid = tuple(grid)
    if not grid:
        raise ValueError("weight decay grid is empty")
    folds = kfold_split(dataset.n_trials, k, seed)
    seed_rng = np.random.default_rng(seed)
    seeds = [int(seed_rng.integers(2**63)) for _ in range(len(grid) * k)]
    chosen, table, _ = _grid_search(grid, lambda i, wd: _fold_mses(
        decoder, dataset, meta, features, sources, folds, seeds[i * k : (i + 1) * k],
        tuner=tuner, epochs=epochs, batch_size=batch_size, lr=lr, weight_decay=wd,
        dev_fraction=dev_fraction))
    return chosen, table


def standard_roster() -> list[tuple[str, tuple[str, ...]]]:
    """The model-comparison roster: intercept, frequency, and combinations."""
    f = "frequency"
    return [
        ("intercept", ("constant",)),
        ("frequency", (f,)),
        ("freq+surprisal", (f, "surprisal")),
        ("freq+semdist", (f, "semantic_distance")),
        ("freq+static", (f, "static_embedding")),
        ("freq+contextual", (f, "contextual_embedding")),
        ("freq+surp+semdist", (f, "surprisal", "semantic_distance")),
        ("freq+surp+semdist+static", (f, "surprisal", "semantic_distance", "static_embedding")),
        ("freq+surp+semdist+contextual",
         (f, "surprisal", "semantic_distance", "contextual_embedding")),
    ]


def run_model_suite(decoder: AutoencoderParams, dataset: ErpDataset,
                    meta: list[TrialMeta], roster=None, *,
                    counts_table=None, token_features=None, embeddings=None,
                    sentence_tokens=None, k: int = 5, seed: int = 0,
                    weight_decay: float | None = None, wd_grid=WEIGHT_DECAY_GRID,
                    epochs: int = 200, batch_size: int = 128, lr: float = 0.001,
                    dev_fraction: float = 0.1, n_boot: int = 10000,
                    ceiling_mse=None) -> dict:
    """Cross-validated comparison of roster models sharing one fold assignment.

    Every entry is trained per fold and scored against the per-fold intercept
    model and autoencoder ceiling (the reconstruction MSE of ``decoder``'s
    containing autoencoder, or ``ceiling_mse`` when the true floor is known,
    e.g. on synthetic data). With ``weight_decay=None`` each entry runs the
    weight-decay grid search over the same folds and reports the best.
    Entries whose feature sources cannot be assembled are skipped with a
    warning. Returns a dict with per-entry :class:`EvalReport` data.
    """
    if roster is None:
        roster = standard_roster()
    folds = kfold_split(dataset.n_trials, k, seed)
    fold_digest = folds.digest()

    def derived_seed(*parts: int) -> int:
        # entry-local seeding: results stay identical if entries run in parallel
        return int(np.random.default_rng((seed, *parts)).integers(2**63))

    def assemble_for(sources) -> FeatureMatrix:
        return assemble(FeatureSpec(tuple(sources)), meta, counts_table=counts_table,
                        token_features=token_features, embeddings=embeddings,
                        sentence_tokens=sentence_tokens)

    def fold_mses(features, sources, wd, entry_code: int, wd_code: int) -> list[float]:
        return _fold_mses(
            decoder, dataset, meta, features, sources, folds,
            [derived_seed(entry_code, wd_code, f) for f in range(k)], epochs=epochs,
            batch_size=batch_size, lr=lr, weight_decay=wd, dev_fraction=dev_fraction)

    # shared anchors: per-fold intercept model and autoencoder ceiling
    intercept_features = assemble_for(("constant",))
    intercept_mse = fold_mses(intercept_features, ("constant",), 0.0, 0, 0)
    if ceiling_mse is None:
        ae_mse = [reconstruction_mse(decoder, dataset, meta, folds.test_indices(f))
                  for f in range(k)]
    elif isinstance(ceiling_mse, (int, float, np.floating)):
        ae_mse = [float(ceiling_mse)] * k
    else:
        ae_mse = [float(v) for v in ceiling_mse]
        if len(ae_mse) != k:
            raise ValueError(f"ceiling_mse needs {k} fold values, got {len(ae_mse)}")

    result: dict = {"fold_digest": fold_digest, "k": k, "entries": {}, "skipped": []}
    for entry_idx, (name, sources) in enumerate(roster, start=1):
        try:
            features = assemble_for(sources)
        except ValueError as e:
            warnings.warn(f"suite entry {name!r} skipped: {e}", stacklevel=2)
            result["skipped"].append({"name": name, "reason": str(e)})
            continue
        wd_table = None
        if sources == ("constant",):
            chosen_wd = 0.0
            model_fold_mse = intercept_mse
        elif weight_decay is not None:
            chosen_wd = weight_decay
            model_fold_mse = fold_mses(features, sources, weight_decay, entry_idx, 0)
        else:
            chosen_wd, wd_table, model_fold_mse = _grid_search(
                wd_grid, lambda wd_idx, wd: fold_mses(features, sources, wd, entry_idx, wd_idx))
        report = fold_report(name, model_fold_mse, intercept_mse, ae_mse,
                             fold_digest=fold_digest, n_boot=n_boot, seed=seed,
                             metadata={"sources": list(sources),
                                       "weight_decay": chosen_wd})
        result["entries"][name] = {
            "sources": list(sources),
            "weight_decay": chosen_wd,
            "wd_table": wd_table,
            "report": report,
        }
    return result


def suite_summary_rows(result: dict) -> list[dict]:
    """Flatten a suite result for tabular output."""
    rows = []
    for name, entry in result["entries"].items():
        report: EvalReport = entry["report"]
        rows.append({
            "model": name,
            "sources": "+".join(entry["sources"]),
            "weight_decay": entry["weight_decay"],
            "r2_mod": report.r2_mod,
            "ci_low": report.ci_low,
            "ci_high": report.ci_high,
            "mse_model": report.mse_model,
            "fold_digest": report.fold_digest,
        })
    return rows


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_encoding_model(basepath, model: EncodingModel) -> None:
    tensors = dict(_model_params(model))
    tensors["standardizer.mean"] = model.standardizer.mean
    tensors["standardizer.scale"] = model.standardizer.scale
    meta = {
        "decoder_digest": model.decoder_digest,
        "decoder_spec": model.decoder.spec.to_json_dict(),
        "frozen": True,
        "sources": list(model.sources),
        "feature_names": model.feature_names,
        "tuner": model.tuner_config.to_json_dict(),
        "weight_decay": model.weight_decay,
    }
    save_checkpoint(basepath, "encoding_model", meta, tensors)


def load_encoding_model(basepath, decoder: AutoencoderParams) -> EncodingModel:
    """Load a fitted model, verifying it references this exact frozen decoder."""
    _, meta, tensors = load_checkpoint(basepath, expect_kind="encoding_model")
    digest = decoder.decoder_digest()
    if digest != meta["decoder_digest"]:
        raise ValueError(
            f"decoder hash {digest[:12]}... does not match the checkpoint's "
            f"{meta['decoder_digest'][:12]}...")
    sources = tuple(meta["sources"])
    names = list(meta["feature_names"])
    embed_cols, scalar_cols = _split_columns(names, sources)
    tuner_tensors = {k: v for k, v in tensors.items() if k.startswith("tuner.")}
    return EncodingModel(
        decoder=decoder,
        decoder_digest=meta["decoder_digest"],
        interface=InterfaceMap(tensors["interface.weights"], tensors["interface.bias"]),
        tuner_config=TunerConfig.from_json_dict(meta["tuner"]),
        tuner=tuner_tensors or None,
        feature_names=names,
        sources=sources,
        embed_cols=embed_cols,
        scalar_cols=scalar_cols,
        standardizer=Standardizer(tensors["standardizer.mean"],
                                  tensors["standardizer.scale"], names),
        weight_decay=float(meta["weight_decay"]),
    )
