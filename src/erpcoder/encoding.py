"""Encoding models: word features -> latent space -> frozen convolutional decoder.

A pre-trained decoder is frozen bitwise (verified by content hash before and
after training). Features reach its latent space through an interface map:
one linear transformation per latent channel, i.e. weights (T_lat x D) and a
bias (T_lat) for each channel. When the sources include an embedding, its
columns first pass through a tuner, a one-hidden-layer tanh MLP of
:data:`TUNER_WIDTH` hidden and output units; scalar features are
concatenated after the tuned block. The sources alone decide the trainable
tensors: there is no tuner setting.

Training minimizes MSE between predicted and observed epochs over the
interface and tuner parameters only, with Adam, optional L2 weight decay,
and best-dev-epoch early stopping (weights are restored to the best epoch).

Gram form. Both decoders end in a transposed convolution with no
activation, so with the decoder frozen a prediction is ``A h + b`` (plus
the subject intercept): ``h`` is the decoder's last hidden activation (640
values for ``beta``, 600 for ``alpha`` at 32x200) and ``A`` a fixed linear
map. :func:`freeze` pairs the decoder with a set of epochs once, as a
:class:`FrozenDecoder` that holds ``G = AᵀA`` and, per trial, ``r = Aᵀ(y -
b - intercept)`` and ``c = ||y - b - intercept||²``. A trial's squared
error is then ``hᵀGh - 2hᵀr + c`` and its gradient ``2(Gh - r)``, so no
epoch is decoded. Training, its dev MSE and :func:`model_mse` (and so the
CLI ``fit``, ``suite`` and ``evaluate``) take a frozen decoder and
minimise and report the MSE in this form. The tests hold its loss and
gradient to the full decoder's within 1e-12 relative; about 5e-16 is
measured. Its absolute error scales with ``c``, not with the residual: it
measured at most 2 x machine epsilon x the mean of ``c`` per epoch value,
which on near-noiseless data (residual MSE 1e-12) is a relative error up
to ~6e-6. :func:`predict_erp`, and so ``timecourse`` and ``export-words``,
still decode full epochs.

``G`` is stored as a block band in time, not as a dense ``H x H`` matrix.
Hidden positions more than ``w = ceil(K/s) - 1`` steps apart (output kernel
``K``, stride ``s``) write no common output value, so their block of ``G``
is zero; ``w`` is 1 for both decoders (``beta`` 9/5, ``alpha`` 8/4). The
frozen decoder keeps ``2w+1`` blocks per hidden time step, ``(T_hid, C_hid,
(2w+1)·C_hid)``, sliced from the dense ``G`` it builds once, after checking
that every block outside the band is exactly zero. ``Gh`` is ``2w+1``
matmuls batched over time (:func:`nn.gram_band_matmul`), with 1/13
(``beta``) and 1/17 (``alpha``) of the dense product's multiply-adds.

Time-major fits. A fit runs in one layout from the interface map to the
loss: latents, hidden activations and every gradient between them are
``(T, C, N)``, the trials in the last axis. The interface map writes the
latents directly as one 2-D product ``Wᵗ uᵀ`` (``Wᵗ`` is ``(T_lat·C_lat,
D)``), the hidden transposed convolutions are
:func:`nn.convtranspose1d_time_major_forward` and its backward pass, and
``G`` applies to time-shifted views, so no step transposes or pads a copy.
``r`` keeps one row per trial, time-major within it: a batch is gathered
as whole rows, which measured several times faster than gathering columns
of a ``(T, C, N_trials)`` array, and is read through a transposed view.
:func:`predict_erp` transposes its latents once and decodes in the ``(N,
C, T)`` layout of :func:`autoencoder.decode`.

Parallel fits. :func:`weight_decay_search` (so CLI ``fit --wd-search``) and
:func:`run_model_suite` (CLI ``suite``; its intercept anchor and every
entry's fits in one list) build one list of independent (entry, weight
decay, fold) fits against one frozen decoder and run it on a thread pool,
as :func:`autoencoder.select_architecture` does for its pretraining folds.
The pool has one thread per CPU in the process's affinity mask
(``taskset`` limits it), at most one per fit. Each fit's seed is fixed
before any fit runs, the frozen decoder and the features are only read,
and results come back in list order, so they are bit-identical to a
serial run; the first fit in list order that raises re-raises, and fits
not yet started are cancelled. :func:`train`, :func:`model_mse` and
:func:`predict_erp` run on the calling thread. Pin BLAS to one thread
(``OPENBLAS_NUM_THREADS=1``), or pool threads and BLAS threads compete for
the same CPUs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .autoencoder import (CHUNK_ROWS, AutoencoderParams, TrainHistory, _add_intercepts,
                          _cross_validate, _fit_epochs, _stack_backward, decode,
                          reconstruction_mse)
from .checkpoint import checkpoint_files, load_checkpoint, require_tensors, save_checkpoint
from .data import (ErpDataset, FormatError, TrialMeta, checked_fields, kfold_split,
                   train_dev_split)
from .features import (FeatureMatrix, FeatureSpec, Standardizer, apply_standardizer,
                       assemble, column_names, fit_standardizer)
from .metrics import EvalReport, fold_report


TUNER_WIDTH = 64  # hidden and output units of the embedding tuner


@dataclass
class EncodingModel:
    """A fitted encoding model: the frozen decoder it drives and the tensors
    training fit.

    ``params`` holds ``interface.weights`` (C_lat, T_lat, D_in) and
    ``interface.bias`` (C_lat, T_lat), so that z[c, t] = weights[c, t, :] . u +
    bias[c, t] for the interface input ``u``, plus ``tuner.w1``, ``tuner.b1``,
    ``tuner.w2`` and ``tuner.b2`` exactly when the sources include an
    embedding.
    """

    decoder: AutoencoderParams
    decoder_digest: str
    params: dict[str, np.ndarray]
    feature_names: list[str]
    sources: tuple[str, ...]
    standardizer: Standardizer
    weight_decay: float


@dataclass
class FrozenDecoder:
    """A pre-trained decoder, frozen, against a set of epochs: its output layer
    in Gram form.

    ``digest`` is the decoder's content hash when :func:`freeze` built this.
    Row ``i`` of ``meta``, ``r`` and ``c`` belongs to trial ``i`` of the
    epochs; ``n_out`` is the number of values in one epoch. Latents, hidden
    activations and their gradients are time-major, ``(T, C, N)`` with the
    trials in the last axis.
    """

    decoder: AutoencoderParams
    digest: str
    meta: list[TrialMeta]
    band: np.ndarray  # (T_hid, C_hid, (2w+1)·C_hid): AᵀA as a block band in time
    r: np.ndarray  # (N, T_hid, C_hid): Aᵀ(y - b - intercept)
    c: np.ndarray  # (N,): ||y - b - intercept||²
    n_out: int

    @property
    def n_trials(self) -> int:
        return len(self.c)

    def take(self, rows) -> "FrozenDecoder":
        return replace(self, meta=[self.meta[i] for i in rows], r=self.r[rows], c=self.c[rows])

    def hidden(self, z: np.ndarray):
        """Latents ``(T_lat, C_lat, N)`` -> the last hidden activation ``h``
        ``(T_hid, C_hid, N)``: every decoder step but the output layer, with
        their (parameter prefix, context) pairs for
        :func:`autoencoder._stack_backward`."""
        ctxs = []
        for i, step in enumerate(self.decoder.plan.decoder[:-1]):
            name = f"dec{i}"
            z, ctx = nn.convtranspose1d_time_major_forward(
                z, self.decoder.tensors[f"{name}.kernels"], self.decoder.tensors[f"{name}.bias"],
                step.stride, step.padding)
            ctxs.append((name, ctx))
            if step.activation:
                z, ctx = nn.tanh_forward(z)
                ctxs.append((name, ctx))
        return z, ctxs

    def mse(self, h: np.ndarray, rows) -> tuple[float, np.ndarray]:
        """MSE of the epochs decoded from ``h`` against trials ``rows``, and its
        gradient w.r.t. ``h``."""
        gh = nn.gram_band_matmul(self.band, h)
        r = self.r[rows].transpose(1, 2, 0)
        n = h.shape[2] * self.n_out
        # Gh - 2r bit for bit, in one contiguous buffer: r's rows are gathered
        # into time-major order once, not twice
        gh_2r = np.multiply(r, -2.0, order="C")
        gh_2r += gh
        loss = float((np.vdot(h, gh_2r) + self.c[rows].sum()) / n)
        gh -= r
        gh *= 2.0 / n  # (2/n)(Gh - r), bit for bit, in Gh's buffer
        return loss, gh


def freeze(decoder: AutoencoderParams, dataset: ErpDataset,
           meta: list[TrialMeta]) -> FrozenDecoder:
    """``decoder`` frozen against every trial of ``dataset``, described by ``meta``.

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

    subject_ids = [m.subject_id for m in meta]
    r = np.empty((dataset.n_trials, t_hid, c_hid))
    c = np.empty(dataset.n_trials)
    for start in range(0, dataset.n_trials, CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        y = dataset.data[rows]
        e = y - _add_intercepts(decoder, np.broadcast_to(bias[:, None], y.shape),
                                subject_ids[rows])
        adjoint, _ = nn.conv1d_forward(e, kernels, np.zeros(c_hid), step.stride, step.padding)
        r[rows] = adjoint.transpose(0, 2, 1)
        c[rows] = np.einsum("nct,nct->n", e, e)
    return FrozenDecoder(decoder, decoder.decoder_digest(), list(meta), band, r, c,
                         dataset.n_channels * dataset.n_timepoints)


def _split_columns(matrix_names: list[str], sources) -> tuple[np.ndarray, np.ndarray]:
    """Embedding-block vs scalar column indices, in matrix order. The names
    must be exactly those :func:`features.assemble` gives ``sources``, an
    embedding source having at least one column; others raise ``ValueError``."""
    spec = FeatureSpec(tuple(sources))
    bases = [name.split(".")[0] for name in matrix_names]
    expected = [n for s in spec.sources for n in column_names(s, max(bases.count(s), 1))]
    if list(matrix_names) != expected:
        raise ValueError(f"feature columns {matrix_names} are not the columns {expected} "
                         f"of sources {list(spec.sources)}")
    embed = [i for i, base in enumerate(bases) if base in spec.embedding_sources]
    scalar = [i for i, base in enumerate(bases) if base not in spec.embedding_sources]
    return np.array(embed, dtype=int), np.array(scalar, dtype=int)


def _trainable_shapes(n_embed: int, n_scalar: int, latent_channels: int,
                      latent_timepoints: int) -> dict[str, tuple[int, ...]]:
    """Shape of each trainable tensor, in initialisation order: the tuner's
    when there is an embedding column, then the interface's."""
    shapes: dict[str, tuple[int, ...]] = {}
    w = TUNER_WIDTH if n_embed else 0
    if w:
        shapes.update({"tuner.w1": (w, n_embed), "tuner.b1": (w,),
                       "tuner.w2": (w, w), "tuner.b2": (w,)})
    shapes["interface.weights"] = (latent_channels, latent_timepoints, n_scalar + w)
    shapes["interface.bias"] = (latent_channels, latent_timepoints)
    return shapes


def _init_trainable(rng: np.random.Generator, n_embed: int, n_scalar: int,
                    latent_channels: int, latent_timepoints: int) -> dict[str, np.ndarray]:
    """Centered-uniform weights with scale 1/sqrt(fan_in), the fan-in being a
    weight's last axis; each tuner bias takes its weight's scale, and the
    interface bias starts at zero."""
    params: dict[str, np.ndarray] = {}
    for name, shape in _trainable_shapes(n_embed, n_scalar, latent_channels,
                                         latent_timepoints).items():
        if name == "interface.bias":
            params[name] = np.zeros(shape)
            continue
        if not name.startswith("tuner.b"):
            scale = 1.0 / np.sqrt(max(shape[-1], 1))
        params[name] = rng.uniform(-scale, scale, size=shape)
    return params


def _forward(params: dict[str, np.ndarray], f_std: np.ndarray, embed_cols: np.ndarray,
             scalar_cols: np.ndarray):
    """Features (already standardized) -> time-major latents ``(T_lat, C_lat,
    N)``, with backward contexts."""
    femb = f_std[:, embed_cols]
    fscal = f_std[:, scalar_cols]
    ctxs: dict = {}
    if "tuner.w1" in params:
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
    # one 2-D np.dot: with one feature column, `@` takes a several times slower path
    wt = w.transpose(1, 0, 2).reshape(-1, w.shape[2])  # (T_lat·C_lat, D)
    z = np.dot(wt, u.T).reshape(w.shape[1], w.shape[0], len(u))
    z += params["interface.bias"].T[:, :, None]
    ctxs["u"] = u
    ctxs["wt"] = wt
    ctxs["n_tuned"] = tuned.shape[1]
    return z, ctxs


def _backward(params: dict[str, np.ndarray], gz: np.ndarray, ctxs: dict
              ) -> dict[str, np.ndarray]:
    """Gradients for interface and tuner from those of :func:`_forward`'s latents."""
    u = ctxs["u"]
    c_lat, t_lat, d_in = params["interface.weights"].shape
    gz_flat = gz.reshape(-1, len(u))  # (T_lat·C_lat, N)
    grads = {
        "interface.weights": np.dot(gz_flat, u).reshape(t_lat, c_lat, d_in).transpose(1, 0, 2),
        "interface.bias": gz.sum(axis=2).T,
    }
    if "tuner.w1" in params:
        du = np.dot(gz_flat.T, ctxs["wt"])
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


def _latents(model: EncodingModel, features: FeatureMatrix) -> np.ndarray:
    """The model's time-major latents for raw (unstandardized) features with
    matching columns."""
    if features.names != model.feature_names:
        raise ValueError(
            f"feature columns {features.names} do not match the model's "
            f"{model.feature_names}")
    f_std = apply_standardizer(features, model.standardizer)
    embed_cols, scalar_cols = _split_columns(model.feature_names, model.sources)
    z, _ = _forward(model.params, f_std, embed_cols, scalar_cols)
    return z


def predict_erp(model: EncodingModel, features: FeatureMatrix,
                subject_ids=None) -> np.ndarray:
    """Predicted epochs for raw (unstandardized) features with matching columns."""
    z = np.ascontiguousarray(_latents(model, features).transpose(2, 1, 0))
    return decode(model.decoder, z, subject_ids)


def _check_filtered(meta: list[TrialMeta]) -> None:
    if any(m.artifact for m in meta):
        raise ValueError("training trials must be artifact-filtered first")
    if any(m.word_position == 1 for m in meta):
        raise ValueError("training trials must exclude sentence-initial words")


def train(frozen: FrozenDecoder, features: FeatureMatrix, sources, *,
          epochs: int = 200, batch_size: int = 128, lr: float = 0.001,
          weight_decay: float = 0.0, seed: int = 0,
          dev_fraction: float = 0.1) -> tuple[EncodingModel, TrainHistory]:
    """Fit interface (and tuner) to predict the epochs of ``frozen`` from features.

    The MSE is minimised in Gram form. The decoder stays frozen: its content
    hash is checked against ``frozen.digest`` before and after.
    Deterministic given the seed; ``history.best_epoch`` is a 0-based epoch
    index, and retraining with ``epochs = best_epoch + 1`` reproduces the
    restored parameters exactly.
    """
    sources = tuple(sources)
    if features.n_trials != frozen.n_trials:
        raise ValueError(f"got {frozen.n_trials} trials, {features.n_trials} feature rows")
    _check_filtered(frozen.meta)
    embed_cols, scalar_cols = _split_columns(features.names, sources)
    if frozen.decoder.decoder_digest() != frozen.digest:
        raise RuntimeError("frozen decoder was mutated after freeze")

    rng = np.random.default_rng(seed)
    train_idx, dev_idx = train_dev_split(
        frozen.n_trials, dev_fraction, seed=int(rng.integers(2**63)))
    standardizer = fit_standardizer(features, train_idx)
    f_std = apply_standardizer(features, standardizer)
    plan = frozen.decoder.plan
    params = _init_trainable(rng, len(embed_cols), len(scalar_cols), plan.latent_channels,
                             plan.latent_timepoints)

    def forward(idx):
        z, ctxs = _forward(params, f_std[idx], embed_cols, scalar_cols)
        h, ctxs["decoder"] = frozen.hidden(z)
        return h, ctxs

    def backward(grad_h, ctxs, idx):
        gz, _ = _stack_backward(ctxs["decoder"], grad_h)
        return _backward(params, gz, ctxs)

    history = _fit_epochs(params, frozen.mse, train_idx, dev_idx, rng, forward, backward,
                          epochs=epochs, batch_size=batch_size, lr=lr,
                          weight_decay=weight_decay)

    if frozen.decoder.decoder_digest() != frozen.digest:
        raise RuntimeError("frozen decoder was mutated during training")

    model = EncodingModel(
        decoder=frozen.decoder,
        decoder_digest=frozen.digest,
        params=params,
        feature_names=list(features.names),
        sources=sources,
        standardizer=standardizer,
        weight_decay=weight_decay,
    )
    return model, history


def model_mse(model: EncodingModel, frozen: FrozenDecoder, features: FeatureMatrix,
              indices=None) -> float:
    """MSE of the model's predictions over the given trials of ``frozen``, in Gram form."""
    if model.decoder_digest != frozen.digest:
        raise ValueError(f"model fit against decoder {model.decoder_digest[:12]}..., "
                         f"not the frozen {frozen.digest[:12]}...")
    idx = np.arange(frozen.n_trials) if indices is None else np.asarray(indices)
    h, _ = frozen.hidden(_latents(model, features.take(idx)))
    loss, _ = frozen.mse(h, idx)
    return loss


# ---------------------------------------------------------------------------
# Weight-decay search and the model-comparison suite
# ---------------------------------------------------------------------------

WEIGHT_DECAY_GRID = (1e-5, 1e-3, 1e-1)


def _fold_mses(frozen: FrozenDecoder, folds, groups, **train_kwargs) -> list[list[float]]:
    """Held-out MSE per fold of models trained on each fold's complement, for
    each group (features, sources, weight_decay, seeds) of
    :func:`_cross_validate`; ``train_kwargs`` go to :func:`train`."""
    def fold_mse(features, sources, weight_decay, f, run_seed) -> float:
        tr = folds.train_indices(f)
        model, _ = train(frozen.take(tr), features.take(tr), sources,
                         weight_decay=weight_decay, seed=run_seed, **train_kwargs)
        return model_mse(model, frozen, features, folds.test_indices(f))

    return _cross_validate(fold_mse, folds, groups)


def _grid_search(grid, per_wd) -> tuple[float, list[dict], list[float]]:
    """Pick the weight decay of ``grid`` with the lowest mean fold MSE, ``per_wd``
    holding one list of fold MSEs per weight decay, in grid order.

    Ties break to the smaller weight decay. Returns (chosen_wd, table, the
    chosen wd's per-fold MSEs), with one table row per (weight_decay, fold).
    """
    runs = list(zip(grid, per_wd))
    table = [{"weight_decay": wd, "fold": f, "mse": m}
             for wd, mses in runs for f, m in enumerate(mses)]
    chosen, mses = min(runs, key=lambda run: (float(np.mean(run[1])), run[0]))
    return chosen, table, mses


def weight_decay_search(frozen: FrozenDecoder, features: FeatureMatrix, sources, *,
                        k: int = 5, seed: int = 0, epochs: int = 200,
                        batch_size: int = 128, lr: float = 0.001,
                        dev_fraction: float = 0.1) -> tuple[float, list[dict]]:
    """Choose the weight decay of :data:`WEIGHT_DECAY_GRID` with the best mean
    held-out MSE over k folds.

    Deterministic given the seed; ties break to the smaller weight decay.
    Returns (chosen_wd, table) with one row per (weight_decay, fold).
    """
    grid = WEIGHT_DECAY_GRID
    folds = kfold_split(frozen.n_trials, k, seed)
    seed_rng = np.random.default_rng(seed)
    seeds = [int(seed_rng.integers(2**63)) for _ in range(len(grid) * k)]
    per_wd = _fold_mses(
        frozen, folds,
        [(features, sources, wd, seeds[i * k : (i + 1) * k]) for i, wd in enumerate(grid)],
        epochs=epochs, batch_size=batch_size, lr=lr, dev_fraction=dev_fraction)
    chosen, table, _ = _grid_search(grid, per_wd)
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
    wd_grid = tuple(wd_grid)
    if weight_decay is None and not wd_grid:
        raise ValueError("weight decay grid is empty")
    frozen = freeze(decoder, dataset, meta)
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

    mses = _fold_mses(frozen, folds, groups, epochs=epochs,
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
                wd_grid, mses[first : first + len(wd_grid)])
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


def _tuner_record(params) -> dict:
    """The checkpoint's ``tuner`` record for the trainable tensors ``params`` names."""
    return {"enabled": "tuner.w1" in params, "hidden_size": TUNER_WIDTH, "output_size": None}


def save_encoding_model(basepath, model: EncodingModel) -> None:
    # interface.* before tuner.*, whatever order training built them in
    tensors = dict(sorted(model.params.items(),
                          key=lambda item: not item[0].startswith("interface.")))
    tensors["standardizer.mean"] = model.standardizer.mean
    tensors["standardizer.scale"] = model.standardizer.scale
    meta = {
        "decoder_digest": model.decoder_digest,
        "decoder_spec": model.decoder.spec.to_json_dict(),
        "frozen": True,
        "sources": list(model.sources),
        "feature_names": model.feature_names,
        "tuner": _tuner_record(model.params),
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
        raise FormatError(
            f"{where}: decoder hash {digest[:12]}... does not match the checkpoint's "
            f"{meta['decoder_digest'][:12]}...")
    sources = tuple(meta["sources"])
    names = list(meta["feature_names"])
    try:
        embed_cols, scalar_cols = _split_columns(names, sources)
    except ValueError as e:
        raise FormatError(f"{where}: meta 'sources': {e}") from None
    plan = decoder.plan
    trainable = _trainable_shapes(len(embed_cols), len(scalar_cols), plan.latent_channels,
                                  plan.latent_timepoints)
    checked_fields(meta["tuner"], {"enabled": bool, "hidden_size": int,
                                   "output_size": int | None}, f"{where}: meta 'tuner'")
    implied = _tuner_record(trainable)
    if meta["tuner"] != implied:  # strict, as checked_fields has checked the types
        raise FormatError(
            f"{where}: meta 'tuner' is {meta['tuner']}, sources {list(sources)} imply {implied}")
    require_tensors(tensors, {**trainable, "standardizer.mean": (len(names),),
                              "standardizer.scale": (len(names),)}, where)
    if not (tensors["standardizer.scale"] > 0).all():
        raise FormatError(f"{where}: tensor 'standardizer.scale' holds a value <= 0")
    return EncodingModel(
        decoder=decoder,
        decoder_digest=meta["decoder_digest"],
        params={name: tensors[name] for name in trainable},
        feature_names=names,
        sources=sources,
        standardizer=Standardizer(tensors["standardizer.mean"], tensors["standardizer.scale"]),
        weight_decay=float(meta["weight_decay"]),
    )
