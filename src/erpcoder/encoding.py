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

Gram form. Both decoders end in a transposed convolution with no
activation, so with the decoder frozen a prediction is ``A h + b`` (plus
the subject intercept): ``h`` is the decoder's last hidden activation (640
values for ``beta``, 600 for ``alpha`` at 32x200) and ``A`` a fixed linear
map. A :class:`Readout` holds ``G = AᵀA`` and, per trial, ``r = Aᵀ(y - b -
intercept)`` and ``c = ||y - b - intercept||²``. A trial's squared error is
then ``hᵀGh - 2hᵀr + c`` and its gradient ``2(Gh - r)``, so no epoch is
decoded. Training, its dev MSE and :func:`model_mse` (and so the CLI
``fit``, ``suite`` and ``evaluate``) minimise and report the MSE in this
form. The tests hold its loss and gradient to the full decoder's within
1e-12 relative; about 5e-16 is measured. Its absolute error scales with
``c``, not with the residual: it measured at most 2 x machine epsilon x
the mean of ``c`` per epoch value, which on near-noiseless data (residual
MSE 1e-12) is a relative error up to ~6e-6. :func:`predict_erp`, and so
``timecourse`` and ``export-words``, still decode full epochs.

``G`` is stored as a block band in time, not as a dense ``H x H`` matrix.
Hidden positions more than ``w = ceil(K/s) - 1`` steps apart (output kernel
``K``, stride ``s``) write no common output value, so their block of ``G``
is zero; ``w`` is 1 for both decoders (``beta`` 9/5, ``alpha`` 8/4). The
readout keeps ``2w+1`` blocks per hidden time step, ``(T_hid, C_hid,
(2w+1)·C_hid)``, sliced from the dense ``G`` it builds once, after checking
that every block outside the band is exactly zero. ``Gh`` is one matmul
batched over time (:func:`nn.gram_band_matmul`), with 1/13 (``beta``) and
1/17 (``alpha``) of the dense product's multiply-adds.

Parallel fits. :func:`weight_decay_search` (so CLI ``fit --wd-search``) and
:func:`run_model_suite` (CLI ``suite``; its intercept anchor and every
entry's fits in one list) build one list of independent (entry, weight
decay, fold) fits and run it on a thread pool, as
:func:`autoencoder.select_architecture` does for its pretraining folds. The
pool has one thread per CPU in the process's affinity mask (``taskset``
limits it), at most one per fit. Each fit's seed is fixed before any fit
runs, the decoder, readout and features are only read, and results come
back in list order, so they are bit-identical to a serial run; the first
fit in list order that raises re-raises, and fits not yet started are
cancelled. :func:`train`, :func:`model_mse` and :func:`predict_erp` run on
the calling thread. Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``), or
pool threads and BLAS threads compete for the same CPUs.
"""

from __future__ import annotations

import typing
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .autoencoder import (AutoencoderParams, TrainHistory, _add_intercepts, _fit_epochs,
                          _run_jobs, _stack_backward, _stack_forward, reconstruction_mse)
from .checkpoint import checkpoint_files, load_checkpoint, require_tensors, save_checkpoint
from .data import (ErpDataset, FormatError, TrialMeta, checked_fields, kfold_split,
                   train_dev_split)
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
    def from_json_dict(cls, d, where: str) -> "TunerConfig":
        """Config from parsed JSON; a missing field or one of the wrong JSON type
        raises :class:`FormatError` naming ``where`` and the field."""
        return cls(**checked_fields(d, typing.get_type_hints(cls), where))


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


@dataclass
class Readout:
    """The frozen decoder's output layer in Gram form against a set of epochs.

    Row ``i`` of ``r`` and ``c`` belongs to trial ``i`` of the epochs it was
    built from; ``n_out`` is the number of values in one epoch.
    """

    decoder_digest: str
    band: np.ndarray  # (T_hid, C_hid, (2w+1)·C_hid): AᵀA as a block band in time
    r: np.ndarray  # (N, H): Aᵀ(y - b - intercept)
    c: np.ndarray  # (N,): ||y - b - intercept||²
    n_out: int

    @property
    def n_trials(self) -> int:
        return len(self.c)

    def take(self, rows) -> "Readout":
        return Readout(self.decoder_digest, self.band, self.r[rows], self.c[rows], self.n_out)

    def mse(self, h: np.ndarray, rows) -> tuple[float, np.ndarray]:
        """MSE of the epochs decoded from ``h`` against trials ``rows``, and its
        gradient w.r.t. ``h``."""
        hf = h.reshape(len(rows), -1)
        r = self.r[rows]
        gh = nn.gram_band_matmul(self.band, h).reshape(hf.shape)
        n = hf.shape[0] * self.n_out
        loss = float((np.vdot(hf, gh - 2.0 * r) + self.c[rows].sum()) / n)
        return loss, ((2.0 / n) * (gh - r)).reshape(h.shape)


def build_readout(decoder: AutoencoderParams, dataset: ErpDataset,
                  meta: list[TrialMeta]) -> Readout:
    """The :class:`Readout` of ``decoder`` against every trial of ``dataset``.

    ``AᵀA`` comes from :func:`nn.transposed_conv_gram_band`. ``r`` and ``c``
    are built a batch of rows at a time through the output layer's own
    kernels: ``Aᵀ`` is the convolution with the same kernels, so neither the
    dense ``A`` nor a full-size residual forms.
    """
    if len(meta) != dataset.n_trials:
        raise ValueError(f"{len(meta)} meta records for {dataset.n_trials} trials")
    spec = decoder.spec
    if (dataset.n_channels, dataset.n_timepoints) != (spec.n_channels, spec.n_timepoints):
        raise ValueError(
            f"decoder geometry {spec.n_channels}x{spec.n_timepoints} != dataset "
            f"{dataset.n_channels}x{dataset.n_timepoints}")
    last = len(decoder.plan.decoder) - 1
    step = decoder.plan.decoder[last]
    if step.activation:
        raise ValueError("the decoder's output layer is not linear")
    kernels = decoder.tensors[f"dec{last}.kernels"]
    bias = decoder.tensors[f"dec{last}.bias"]
    c_hid = kernels.shape[0]
    t_hid = nn.conv_output_length(dataset.n_timepoints, step.kernel, step.stride, step.padding)
    band = nn.transposed_conv_gram_band(kernels, step.stride, step.padding, t_hid)

    subject_ids = [m.subject_id for m in meta] if spec.intercepts else None
    r = np.empty((dataset.n_trials, c_hid * t_hid))
    c = np.empty(dataset.n_trials)
    chunk = 128  # rows per pass: one batch of epochs, 6.5 MB at 32x200
    for start in range(0, dataset.n_trials, chunk):
        rows = slice(start, start + chunk)
        y = dataset.data[rows]
        subj = subject_ids[rows] if spec.intercepts else None
        e = y - _add_intercepts(decoder, np.broadcast_to(bias[:, None], y.shape), subj)
        adjoint, _ = nn.conv1d_forward(e, kernels, np.zeros(c_hid), step.stride, step.padding)
        r[rows] = adjoint.reshape(len(e), -1)
        c[rows] = np.einsum("nct,nct->n", e, e)
    return Readout(decoder.decoder_digest(), band, r, c,
                   dataset.n_channels * dataset.n_timepoints)


def _readout(decoder: AutoencoderParams, data, meta: list[TrialMeta], digest: str) -> Readout:
    """``data`` itself if it is a :class:`Readout` of the decoder with content
    hash ``digest``, else the readout of the dataset ``data``."""
    if not isinstance(data, Readout):
        return build_readout(decoder, data, meta)
    if data.decoder_digest != digest:
        raise ValueError(
            f"readout built for decoder {data.decoder_digest[:12]}..., not {digest[:12]}...")
    return data


def _split_columns(matrix_names: list[str], sources) -> tuple[np.ndarray, np.ndarray]:
    """Embedding-block vs scalar column indices, in matrix order."""
    spec = FeatureSpec(tuple(sources))
    embed = []
    scalar = []
    for i, name in enumerate(matrix_names):
        base = name.split(".")[0]
        (embed if base in spec.embedding_sources else scalar).append(i)
    return np.array(embed, dtype=int), np.array(scalar, dtype=int)


def _trainable_shapes(n_embed: int, n_scalar: int, latent_channels: int,
                      latent_timepoints: int, tuner_config: TunerConfig
                      ) -> dict[str, tuple[int, ...]]:
    """Shape of each trainable tensor, in initialisation order."""
    shapes: dict[str, tuple[int, ...]] = {}
    if tuner_config.enabled:
        h, o = tuner_config.hidden_size, tuner_config.out_dim
        shapes.update({"tuner.w1": (h, n_embed), "tuner.b1": (h,),
                       "tuner.w2": (o, h), "tuner.b2": (o,)})
    d_in = n_scalar + (tuner_config.out_dim if tuner_config.enabled else n_embed)
    shapes["interface.weights"] = (latent_channels, latent_timepoints, d_in)
    shapes["interface.bias"] = (latent_channels, latent_timepoints)
    return shapes


def _init_trainable(rng: np.random.Generator, n_embed: int, n_scalar: int,
                    latent_channels: int, latent_timepoints: int,
                    tuner_config: TunerConfig) -> dict[str, np.ndarray]:
    """Centered-uniform weights with scale 1/sqrt(fan_in), the fan-in being a
    weight's last axis; each tuner bias takes its weight's scale, and the
    interface bias starts at zero."""
    params: dict[str, np.ndarray] = {}
    for name, shape in _trainable_shapes(n_embed, n_scalar, latent_channels,
                                         latent_timepoints, tuner_config).items():
        if name == "interface.bias":
            params[name] = np.zeros(shape)
            continue
        if not name.startswith("tuner.b"):
            scale = 1.0 / np.sqrt(max(shape[-1], 1))
        params[name] = rng.uniform(-scale, scale, size=shape)
    return params


def _forward(params: dict[str, np.ndarray], decoder: AutoencoderParams,
             f_std: np.ndarray, embed_cols: np.ndarray, scalar_cols: np.ndarray,
             tuner_config: TunerConfig, subject_ids=None, record: bool = False,
             hidden: bool = False):
    """Features (already standardized) -> predicted epochs, with backward contexts.

    With ``hidden`` the decoder stops before its output layer, returning the
    last hidden activation ``h`` that a :class:`Readout` scores.
    """
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
    z = (u @ w.reshape(-1, w.shape[2]).T).reshape(len(u), *w.shape[:2]) + params["interface.bias"]
    steps = decoder.plan.decoder[:-1] if hidden else decoder.plan.decoder
    y, ctxs["decoder"] = _stack_forward(steps, decoder.tensors, "dec", z, record)
    if not hidden:
        y = _add_intercepts(decoder, y, subject_ids)
    ctxs["u"] = u
    ctxs["n_tuned"] = tuned.shape[1]
    return y, ctxs


def _backward(params: dict[str, np.ndarray], grad_y: np.ndarray, ctxs: dict,
              tuner_config: TunerConfig) -> dict[str, np.ndarray]:
    """Gradients for interface and tuner from those of :func:`_forward`'s output;
    the decoder is frozen."""
    gz, _ = _stack_backward(ctxs["decoder"], grad_y, need_param_grads=False)
    u = ctxs["u"]
    w = params["interface.weights"]
    gz_flat = gz.reshape(len(u), -1)
    grads = {
        "interface.weights": (gz_flat.T @ u).reshape(w.shape),
        "interface.bias": gz.sum(axis=0),
    }
    if tuner_config.enabled:
        du = gz_flat @ w.reshape(-1, w.shape[2])
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


def _model_forward(model: EncodingModel, features: FeatureMatrix, subject_ids=None,
                   hidden: bool = False) -> np.ndarray:
    """:func:`_forward` of the model on raw (unstandardized) features with matching columns."""
    if features.standardized:
        raise ValueError("pass raw features; the model applies its own standardizer")
    if features.names != model.feature_names:
        raise ValueError(
            f"feature columns {features.names} do not match the model's "
            f"{model.feature_names}")
    f_std = apply_standardizer(features, model.standardizer).values
    y, _ = _forward(_model_params(model), model.decoder, f_std, model.embed_cols,
                    model.scalar_cols, model.tuner_config, subject_ids, hidden=hidden)
    return y


def predict_erp(model: EncodingModel, features: FeatureMatrix,
                subject_ids=None) -> np.ndarray:
    """Predicted epochs for raw (unstandardized) features with matching columns."""
    return _model_forward(model, features, subject_ids)


def _check_filtered(meta: list[TrialMeta]) -> None:
    if any(m.artifact for m in meta):
        raise ValueError("training trials must be artifact-filtered first")
    if any(m.word_position == 1 for m in meta):
        raise ValueError("training trials must exclude sentence-initial words")


def train(decoder: AutoencoderParams, dataset: ErpDataset | Readout, meta: list[TrialMeta],
          features: FeatureMatrix, sources, *, tuner: TunerConfig | None = None,
          epochs: int = 200, batch_size: int = 128, lr: float = 0.001,
          weight_decay: float = 0.0, seed: int = 0, dev_fraction: float = 0.1
          ) -> tuple[EncodingModel, TrainHistory]:
    """Fit interface (and tuner) to predict epochs from features.

    ``dataset`` is the trials' epochs or their :class:`Readout` against
    ``decoder``; the MSE is minimised in Gram form either way. The decoder
    is frozen: its parameter hash is checked before and after.
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
    readout = _readout(decoder, dataset, meta, digest_before)
    rng = np.random.default_rng(seed)
    train_idx, dev_idx = train_dev_split(
        dataset.n_trials, dev_fraction, seed=int(rng.integers(2**63)))
    standardizer = fit_standardizer(features, train_idx)
    f_std = apply_standardizer(features, standardizer).values
    params = _init_trainable(rng, len(embed_cols), len(scalar_cols),
                             decoder.plan.latent_channels,
                             decoder.plan.latent_timepoints, tuner)

    def forward(idx, record):
        return _forward(params, decoder, f_std[idx], embed_cols, scalar_cols, tuner,
                        record=record, hidden=True)

    def backward(grad_h, ctxs, idx):
        return _backward(params, grad_h, ctxs, tuner)

    history = _fit_epochs(params, readout.mse, train_idx, dev_idx, rng, forward, backward,
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


def model_mse(model: EncodingModel, dataset: ErpDataset | Readout, meta: list[TrialMeta],
              features: FeatureMatrix, indices=None) -> float:
    """MSE of the model's predictions over the given trials, in Gram form.

    ``dataset`` is the epochs or their :class:`Readout` against the model's decoder.
    """
    readout = _readout(model.decoder, dataset, meta, model.decoder_digest)
    idx = np.arange(readout.n_trials) if indices is None else np.asarray(indices)
    h = _model_forward(model, features.take(idx), hidden=True)
    loss, _ = readout.mse(h, idx)
    return loss


# ---------------------------------------------------------------------------
# Weight-decay search and the model-comparison suite
# ---------------------------------------------------------------------------

WEIGHT_DECAY_GRID = (1e-5, 1e-3, 1e-1)


def _fold_mses(decoder: AutoencoderParams, readout: Readout, meta: list[TrialMeta],
               folds, groups, **train_kwargs) -> list[list[float]]:
    """Held-out MSE per fold of models trained on each fold's complement.

    ``groups`` is a list of (features, sources, weight_decay, seeds), one
    seed per fold; fold ``f`` of a group trains with seed ``seeds[f]``, and
    ``train_kwargs`` go to :func:`train`. Every fold of every group is one job
    of one :func:`_run_jobs` call, groups in order and folds within them.
    Returns the per-fold MSEs of each group.
    """
    def fold_mse(features, sources, weight_decay, f, run_seed) -> float:
        tr = folds.train_indices(f)
        model, _ = train(decoder, readout.take(tr), [meta[i] for i in tr],
                         features.take(tr), sources, weight_decay=weight_decay,
                         seed=run_seed, **train_kwargs)
        return model_mse(model, readout, meta, features, folds.test_indices(f))

    mses = _run_jobs(fold_mse, [(features, sources, wd, f, run_seed)
                                for features, sources, wd, seeds in groups
                                for f, run_seed in enumerate(seeds)])
    return [mses[g * folds.k : (g + 1) * folds.k] for g in range(len(groups))]


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


def weight_decay_search(decoder: AutoencoderParams, dataset: ErpDataset | Readout,
                        meta: list[TrialMeta], features: FeatureMatrix, sources, *,
                        grid=WEIGHT_DECAY_GRID, k: int = 5, seed: int = 0,
                        tuner: TunerConfig | None = None, epochs: int = 200,
                        batch_size: int = 128, lr: float = 0.001,
                        dev_fraction: float = 0.1) -> tuple[float, list[dict]]:
    """Choose the weight decay with the best mean held-out MSE over k folds.

    ``dataset`` is the epochs or their :class:`Readout` against ``decoder``.
    Deterministic given the seed; ties break to the smaller weight decay.
    Returns (chosen_wd, table) with one row per (weight_decay, fold).
    """
    grid = tuple(grid)
    if not grid:
        raise ValueError("weight decay grid is empty")
    readout = _readout(decoder, dataset, meta, decoder.decoder_digest())
    folds = kfold_split(readout.n_trials, k, seed)
    seed_rng = np.random.default_rng(seed)
    seeds = [int(seed_rng.integers(2**63)) for _ in range(len(grid) * k)]
    per_wd = _fold_mses(
        decoder, readout, meta, folds,
        [(features, sources, wd, seeds[i * k : (i + 1) * k]) for i, wd in enumerate(grid)],
        tuner=tuner, epochs=epochs, batch_size=batch_size, lr=lr, dev_fraction=dev_fraction)
    chosen, table, _ = _grid_search(grid, lambda i, wd: per_wd[i])
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
    readout = build_readout(decoder, dataset, meta)
    folds = kfold_split(dataset.n_trials, k, seed)
    fold_digest = folds.digest()

    def derived_seed(*parts: int) -> int:
        # job-local seeding: results do not depend on the order fits run in
        return int(np.random.default_rng((seed, *parts)).integers(2**63))

    def assemble_for(sources) -> FeatureMatrix:
        return assemble(FeatureSpec(tuple(sources)), meta, counts_table=counts_table,
                        token_features=token_features, embeddings=embeddings,
                        sentence_tokens=sentence_tokens)

    def group(features, sources, wd, entry_code: int, wd_code: int) -> tuple:
        return features, sources, wd, [derived_seed(entry_code, wd_code, f) for f in range(k)]

    # shared anchors: per-fold intercept model (group 0) and autoencoder ceiling
    groups = [group(assemble_for(("constant",)), ("constant",), 0.0, 0, 0)]
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
    kept = []  # (name, sources, index of the entry's first group)
    for entry_idx, (name, sources) in enumerate(roster, start=1):
        try:
            features = assemble_for(sources)
        except ValueError as e:
            warnings.warn(f"suite entry {name!r} skipped: {e}", stacklevel=2)
            result["skipped"].append({"name": name, "reason": str(e)})
            continue
        kept.append((name, sources, len(groups)))
        if sources == ("constant",):
            continue
        if weight_decay is not None:
            groups.append(group(features, sources, weight_decay, entry_idx, 0))
        else:
            groups += [group(features, sources, wd, entry_idx, wd_idx)
                       for wd_idx, wd in enumerate(wd_grid)]

    mses = _fold_mses(decoder, readout, meta, folds, groups, epochs=epochs,
                      batch_size=batch_size, lr=lr, dev_fraction=dev_fraction)
    intercept_mse = mses[0]
    for name, sources, first in kept:
        wd_table = None
        if sources == ("constant",):
            chosen_wd = 0.0
            model_fold_mse = intercept_mse
        elif weight_decay is not None:
            chosen_wd = weight_decay
            model_fold_mse = mses[first]
        else:
            chosen_wd, wd_table, model_fold_mse = _grid_search(
                wd_grid, lambda wd_idx, wd: mses[first + wd_idx])
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
    where = checkpoint_files(basepath)[0]
    meta = checked_fields(meta, {
        "decoder_digest": str, "sources": tuple[str, ...], "feature_names": tuple[str, ...],
        "tuner": dict, "weight_decay": float}, f"{where}: meta")
    digest = decoder.decoder_digest()
    if digest != meta["decoder_digest"]:
        raise ValueError(
            f"decoder hash {digest[:12]}... does not match the checkpoint's "
            f"{meta['decoder_digest'][:12]}...")
    sources = tuple(meta["sources"])
    names = list(meta["feature_names"])
    try:
        embed_cols, scalar_cols = _split_columns(names, sources)
    except ValueError as e:
        raise FormatError(f"{where}: meta 'sources': {e}") from None
    tuner_config = TunerConfig.from_json_dict(meta["tuner"], f"{where}: meta 'tuner'")
    plan = decoder.plan
    require_tensors(tensors, {
        **_trainable_shapes(len(embed_cols), len(scalar_cols), plan.latent_channels,
                            plan.latent_timepoints, tuner_config),
        "standardizer.mean": (len(names),), "standardizer.scale": (len(names),)}, where)
    tuner_tensors = {k: v for k, v in tensors.items() if k.startswith("tuner.")}
    return EncodingModel(
        decoder=decoder,
        decoder_digest=meta["decoder_digest"],
        interface=InterfaceMap(tensors["interface.weights"], tensors["interface.bias"]),
        tuner_config=tuner_config,
        tuner=tuner_tensors or None,
        feature_names=names,
        sources=sources,
        embed_cols=embed_cols,
        scalar_cols=scalar_cols,
        standardizer=Standardizer(tensors["standardizer.mean"],
                                  tensors["standardizer.scale"], names),
        weight_decay=float(meta["weight_decay"]),
    )
