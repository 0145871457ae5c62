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
minimise and report the MSE in this form. One chunked scorer,
:meth:`FrozenDecoder.score`, has two callers: :func:`model_mse`, for a
model's latents, and :func:`synth.oracle_bounds`, for the true and the
projected latents of a synthetic set. A decoder without subject
intercepts can be frozen without trial records (``freeze(decoder,
dataset)``, as :func:`autoencoder.decode` takes no subject ids); such a
frozen decoder scores but does not train, as training checks the
records. The tests hold its loss and
gradient to the full decoder's within 1e-12 relative; about 5e-16 is
measured. Its absolute error scales with ``c``, not with the residual: it
measured at most 2 x machine epsilon x the mean of ``c`` per epoch value,
which on near-noiseless data (residual MSE 1e-12) is a relative error up
to ~6e-6. The analyses of predicted epochs, ``timecourse`` and
``export-words``, still decode them, a chunk of trials at a time
(:func:`map_predictions`), and score each chunk as it is decoded:
``timecourse`` decodes each chunk under the model and the intercept model
in one pool job and scores both against the chunk's data, so neither
holds a full prediction.

``G`` is stored as a block band in time, not as a dense ``H x H`` matrix.
Hidden positions more than ``w = ceil(K/s) - 1`` steps apart (output kernel
``K``, stride ``s``) write no common output value, so their block of ``G``
is zero; ``w`` is 1 for both decoders (``beta`` 9/5, ``alpha`` 8/4). The
frozen decoder keeps ``2w+1`` blocks per hidden time step, ``(T_hid, C_hid,
(2w+1)·C_hid)``, summed once from the products of the output kernel's tap
pairs that write a common output value (:func:`nn.transposed_conv_gram_band`),
so no dense ``G`` forms. ``Gh`` multiplies each step's blocks with the
``2w+1`` hidden steps around it, one matmul batched over time plus ``2w``
edge products (:func:`nn.gram_band_matmul`), with 1/13 (``beta``) and 1/17
(``alpha``) of the dense product's multiply-adds.

Time-major fits. A fit runs in one layout from the interface map to the
loss: latents, hidden activations and every gradient between them are
``(T, C, N)``, the trials in the last axis. The interface map writes the
latents directly as one 2-D product ``Wᵗ uᵀ`` (``Wᵗ`` is ``(T_lat·C_lat,
D)``), the hidden transposed convolutions are
:func:`nn.convtranspose1d_time_major_forward` and its backward pass, walked
by the autoencoder's own :func:`autoencoder._stack_forward` and
:func:`autoencoder._stack_backward`, and
``Gh`` is :func:`nn.gram_band_matmul`. In this layout each of those is a
few matmuls on strided views of consecutive time steps, so no step pads
a copy. ``r`` keeps one row per trial, time-major within it: a batch is
gathered as whole rows, which measured several times faster than
gathering columns of a ``(T, C, N_trials)`` array, then transposed once
into a contiguous ``(T, C, N)`` buffer that both ``Gh - 2r`` and ``Gh -
r`` read.
:func:`freeze` builds ``r`` and ``c`` time-major too. There is one decode
path for predictions, the decoder's own time-major pass over the fixed
:data:`autoencoder.CHUNK_ROWS`-trial blocks that keep a trial's bits
independent of how the trials are split: :func:`map_predictions` runs it
on each block of a model's time-major latents, and :func:`predict_erp`
is :func:`autoencoder.decode` of the same latents, so a trial gets the
same bits from both.

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
not yet started are never started. :func:`train` runs on the calling
thread; :func:`freeze`, :meth:`FrozenDecoder.score`,
:func:`map_predictions` and :func:`predict_erp` work a chunk of
:data:`autoencoder.CHUNK_ROWS` trials per pool job. Pin BLAS to one
thread (``OPENBLAS_NUM_THREADS=1``), or pool threads and BLAS threads
compete for the same CPUs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .autoencoder import (BATCH_SIZE, DEV_FRACTION, EPOCHS, LR, AutoencoderParams,
                          TrainHistory, _add_intercepts, _cross_validate, _decode,
                          _fit_epochs, _map_chunks, _stack_backward, _stack_forward, _take,
                          check_geometry, decode, reconstruction_mse)
from .checkpoint import checkpoint_files, load_checkpoint, require_tensors, save_checkpoint
from .data import (ErpDataset, FormatError, TrialMeta, checked_fields, kfold_split,
                   train_dev_split)
from .features import (FeatureMatrix, FeatureSpec, Standardizer, apply_standardizer,
                       column_names, fit_standardizer, from_blocks, source_block)
from .metrics import fold_report


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
    Row ``i`` of ``meta`` (None when frozen without trial records), ``r`` and
    ``c`` belongs to trial ``i`` of the epochs; ``n_out``, from the decoder's
    spec, is the number of values in one epoch. Latents, hidden activations
    and their gradients are time-major, ``(T, C, N)`` with the trials in the
    last axis.
    """

    decoder: AutoencoderParams
    digest: str
    meta: list[TrialMeta] | None
    band: np.ndarray  # (T_hid, C_hid, (2w+1)·C_hid): AᵀA as a block band in time
    r: np.ndarray  # (N, T_hid, C_hid): Aᵀ(y - b - intercept)
    c: np.ndarray  # (N,): ||y - b - intercept||²

    @property
    def n_trials(self) -> int:
        return len(self.c)

    @property
    def n_out(self) -> int:
        return self.decoder.spec.n_channels * self.decoder.spec.n_timepoints

    def take(self, rows) -> "FrozenDecoder":
        meta = None if self.meta is None else [self.meta[i] for i in rows]
        return replace(self, meta=meta, r=self.r[rows], c=self.c[rows])

    def hidden(self, z: np.ndarray):
        """Latents ``(T_lat, C_lat, N)`` -> the last hidden activation ``h``
        ``(T_hid, C_hid, N)``: every decoder step but the output layer, walked
        by :func:`autoencoder._stack_forward`, with their (parameter prefix,
        context) pairs for :func:`autoencoder._stack_backward`."""
        return _stack_forward(self.decoder.plan.decoder[:-1], self.decoder.tensors, "dec", z)

    def mse(self, h: np.ndarray, rows) -> tuple[float, np.ndarray]:
        """MSE of the epochs decoded from ``h`` against trials ``rows``, and its
        gradient w.r.t. ``h``."""
        gh = nn.gram_band_matmul(self.band, h)
        # the batch's rows of r, time-major in one contiguous buffer that both
        # Gh - 2r and Gh - r read: one transposing copy, since a copy in
        # CHUNK_ROWS-row blocks measured no faster on one thread and slower
        # on two pool threads
        r = np.ascontiguousarray(self.r[rows].transpose(1, 2, 0))
        n = h.shape[2] * self.n_out
        gh_2r = r * -2.0
        gh_2r += gh
        loss = float((np.vdot(h, gh_2r) + self.c[rows].sum()) / n)
        gh -= r
        gh *= 2.0 / n  # (2/n)(Gh - r), bit for bit, in Gh's buffer
        return loss, gh

    def score(self, z: np.ndarray, rows: np.ndarray) -> float:
        """MSE of the epochs decoded from the time-major latents ``z``
        ``(T_lat, C_lat, len(rows))`` against trials ``rows``: each chunk of
        :data:`autoencoder.CHUNK_ROWS` trials is scored as a pool job, and
        their squared errors are summed in chunk order, so no hidden
        activation larger than a chunk's forms."""
        def squared_error(chunk) -> float:
            # the chunk's MSE times its trial count: its squared error over n_out
            h, _ = self.hidden(z[:, :, chunk])
            return self.mse(h, rows[chunk])[0] * h.shape[2]

        return sum(_map_chunks(squared_error, len(rows))) / len(rows)


def freeze(decoder: AutoencoderParams, dataset: ErpDataset,
           meta: list[TrialMeta] | None = None) -> FrozenDecoder:
    """``decoder`` frozen against every trial of ``dataset``, described by ``meta``.

    ``meta`` names each trial's subject for the decoder's subject intercepts;
    a decoder without them may take None, one with them raises
    ``ValueError``. ``AᵀA`` comes from :func:`nn.transposed_conv_gram_band`.
    ``r`` and ``c`` are built a chunk of rows per pool job, time-major,
    through the output layer's own kernels: ``Aᵀ`` is the convolution with
    the same kernels (:func:`nn.conv1d_time_major_forward`), so neither the
    dense ``A`` nor a full-size residual forms.
    """
    spec = decoder.spec
    if meta is None and spec.intercepts:
        raise ValueError("decoder has intercepts enabled; meta records required")
    if meta is not None and len(meta) != dataset.n_trials:
        raise ValueError(f"{len(meta)} meta records for {dataset.n_trials} trials")
    check_geometry(spec, dataset)
    last = len(decoder.plan.decoder) - 1
    step = decoder.plan.decoder[last]
    if step.activation:
        raise ValueError("the decoder's output layer is not linear")
    kernels = decoder.tensors[f"dec{last}.kernels"]
    bias = decoder.tensors[f"dec{last}.bias"]
    c_hid = kernels.shape[0]
    t_hid = nn.conv_output_length(dataset.n_timepoints, step.kernel, step.stride, step.padding)
    band = nn.transposed_conv_gram_band(kernels, step.stride, step.padding, t_hid)

    subject_ids = None if meta is None else [m.subject_id for m in meta]
    r = np.empty((dataset.n_trials, t_hid, c_hid))
    c = np.empty(dataset.n_trials)

    def fill(rows):
        e = nn._swap_layout(dataset.data[rows])
        e -= _add_intercepts(decoder, bias[:, None], _take(subject_ids, rows))
        adjoint, _ = nn.conv1d_time_major_forward(e, kernels, np.zeros(c_hid), step.stride,
                                                  step.padding)
        r[rows] = adjoint.transpose(2, 0, 1)
        c[rows] = np.einsum("tcn,tcn->n", e, e)

    _map_chunks(fill, dataset.n_trials)
    meta = None if meta is None else list(meta)
    return FrozenDecoder(decoder, decoder.decoder_digest(), meta, band, r, c)


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


def map_predictions(fn, models: list[tuple[EncodingModel, FeatureMatrix]],
                    subject_ids=None) -> list:
    """``fn(rows, *preds)`` for each chunk ``rows`` of :data:`autoencoder.CHUNK_ROWS`
    trials, ``preds`` being their predicted epochs under each (model, raw
    features) pair of ``models`` in turn, the features' columns matching the
    model's. Each pool job decodes one chunk of every model's time-major
    latents (:func:`autoencoder._decode`) and hands ``fn`` each ``(n, C, T)``
    transpose of the result, a view; results come back in chunk order. No
    prediction larger than a chunk forms unless ``fn`` keeps one."""
    n_trials = {features.n_trials for _, features in models}
    if len(n_trials) != 1:
        raise ValueError(f"feature matrices of {sorted(n_trials)} trials; one count expected")
    latents = [(model.decoder, _latents(model, features)) for model, features in models]

    def job(rows):
        subjects = _take(subject_ids, rows)
        return fn(rows, *(_decode(decoder, z[:, :, rows], subjects).transpose(2, 1, 0)
                          for decoder, z in latents))

    return _map_chunks(job, n_trials.pop())


def predict_erp(model: EncodingModel, features: FeatureMatrix,
                subject_ids=None) -> np.ndarray:
    """Predicted epochs for raw (unstandardized) features with matching columns,
    decoded a chunk per pool job by :func:`autoencoder.decode`."""
    return decode(model.decoder, _latents(model, features).transpose(2, 1, 0), subject_ids)


def _check_filtered(meta: list[TrialMeta] | None) -> None:
    if meta is None:
        raise ValueError("training needs the trials' meta records to check their filtering")
    if any(m.artifact for m in meta):
        raise ValueError("training trials must be artifact-filtered first")
    if any(m.word_position == 1 for m in meta):
        raise ValueError("training trials must exclude sentence-initial words")


def train(frozen: FrozenDecoder, features: FeatureMatrix, sources, *,
          epochs: int = EPOCHS, batch_size: int = BATCH_SIZE, lr: float = LR,
          weight_decay: float = 0.0, seed: int = 0) -> tuple[EncodingModel, TrainHistory]:
    """Fit interface (and tuner) to predict the epochs of ``frozen`` from features.

    The MSE is minimised in Gram form; the parameters of the best epoch on a
    :data:`autoencoder.DEV_FRACTION` dev split are kept. The decoder stays
    frozen: its content hash is checked against ``frozen.digest`` before and
    after.
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
        frozen.n_trials, DEV_FRACTION, seed=int(rng.integers(2**63)))
    standardizer = fit_standardizer(features, train_idx)
    f_std = apply_standardizer(features, standardizer)
    plan = frozen.decoder.plan
    params = _init_trainable(rng, len(embed_cols), len(scalar_cols), plan.latent_channels,
                             plan.latent_timepoints)

    def step(batch):
        z, ctxs = _forward(params, f_std[batch], embed_cols, scalar_cols)
        h, dec_ctxs = frozen.hidden(z)
        loss, grad_h = frozen.mse(h, batch)
        gz, _ = _stack_backward(dec_ctxs, grad_h, need_param_grads=False)
        # h's size weights the batch in the epoch's train MSE: like the
        # batch's number of epoch values, it is proportional to its trials
        return loss, h.size, _backward(params, gz, ctxs)

    def score(idx):
        h, _ = frozen.hidden(_forward(params, f_std[idx], embed_cols, scalar_cols)[0])
        return frozen.mse(h, idx)[0]

    history = _fit_epochs(params, step, score, train_idx, dev_idx, rng, epochs=epochs,
                          batch_size=batch_size, lr=lr, weight_decay=weight_decay)

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
    """MSE of the model's predictions over the given trials of ``frozen``, in Gram
    form, scored a chunk of trials per pool job by :meth:`FrozenDecoder.score`."""
    if model.decoder_digest != frozen.digest:
        raise ValueError(f"model fit against decoder {model.decoder_digest[:12]}..., "
                         f"not the frozen {frozen.digest[:12]}...")
    idx = np.arange(frozen.n_trials) if indices is None else np.asarray(indices)
    if len(idx) == 0:
        raise ValueError("no trials to score")
    return frozen.score(_latents(model, features.take(idx)), idx)


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
                        k: int = 5, seed: int = 0, epochs: int = EPOCHS,
                        batch_size: int = BATCH_SIZE, lr: float = LR
                        ) -> tuple[float, list[dict]]:
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
        epochs=epochs, batch_size=batch_size, lr=lr)
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
                    epochs: int = EPOCHS, batch_size: int = BATCH_SIZE, lr: float = LR,
                    n_boot: int = 10000, ceiling_mse: float | None = None) -> dict:
    """Cross-validated comparison of roster models sharing one fold assignment.

    Every entry is trained per fold and scored against the per-fold intercept
    model and autoencoder ceiling: the reconstruction MSE of ``decoder``'s
    containing autoencoder on each test fold, or the number ``ceiling_mse``
    in every fold when the true floor is known, e.g. on synthetic data. Each
    entry runs the weight-decay grid search over the same folds and reports
    the best, over ``wd_grid`` with ``weight_decay=None`` and over the
    one-value grid ``(weight_decay,)`` otherwise. Each source's feature block
    is built once, for every entry that lists it. An entry whose blocks
    cannot be built (a table not supplied, say) is skipped with a warning; a
    name that two entries share, or sources that make no
    :class:`features.FeatureSpec`, raise ``ValueError`` before any fit.
    Returns a dict with per-entry :class:`metrics.EvalReport` data.
    """
    roster = standard_roster() if roster is None else list(roster)
    names = [name for name, _ in roster]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"suite roster repeats entry names {repeated}")
    for name, sources in roster:
        try:
            FeatureSpec(tuple(sources))
        except ValueError as e:
            raise ValueError(f"suite roster entry {name!r}: {e}") from None
    grid = tuple(wd_grid) if weight_decay is None else (weight_decay,)
    if not grid:
        raise ValueError("weight decay grid is empty")
    frozen = freeze(decoder, dataset, meta)
    folds = kfold_split(dataset.n_trials, k, seed)
    fold_digest = folds.digest()

    def derived_seed(*parts: int) -> int:
        # job-local seeding: results do not depend on the order fits run in
        return int(np.random.default_rng((seed, *parts)).integers(2**63))

    blocks: dict = {}  # each source's block, or the ValueError building it raised

    def assemble_for(sources) -> FeatureMatrix:
        # as features.assemble, but each source's block is built once per suite;
        # the roster's sources are checked above
        for source in sources:
            if source not in blocks:
                try:
                    blocks[source] = source_block(
                        source, meta, counts_table=counts_table, token_features=token_features,
                        embeddings=embeddings, sentence_tokens=sentence_tokens)
                except ValueError as e:
                    blocks[source] = e
            if isinstance(blocks[source], ValueError):
                raise blocks[source]
        return from_blocks(sources, blocks)

    def group(features, sources, wd, entry_code: int, wd_code: int) -> tuple:
        return features, sources, wd, [derived_seed(entry_code, wd_code, f) for f in range(k)]

    # shared anchors: per-fold intercept model (group 0) and autoencoder ceiling
    groups = [group(assemble_for(("constant",)), ("constant",), 0.0, 0, 0)]
    if ceiling_mse is None:
        ae_mse = [reconstruction_mse(decoder, dataset, meta, folds.test_indices(f))
                  for f in range(k)]
    else:
        ae_mse = [float(ceiling_mse)] * k

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
        if sources != ("constant",):
            groups += [group(features, sources, wd, entry_idx, wd_idx)
                       for wd_idx, wd in enumerate(grid)]

    mses = _fold_mses(frozen, folds, groups, epochs=epochs, batch_size=batch_size, lr=lr)
    intercept_mse = mses[0]
    for name, sources, first in kept:
        if sources == ("constant",):
            chosen_wd, wd_table, model_fold_mse = 0.0, None, intercept_mse
        else:
            chosen_wd, wd_table, model_fold_mse = _grid_search(
                grid, mses[first : first + len(grid)])
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


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_encoding_model(basepath, model: EncodingModel) -> None:
    # interface.* before tuner.*, whatever order training built them in
    tensors = dict(sorted(model.params.items(),
                          key=lambda item: not item[0].startswith("interface.")))
    tensors["standardizer.mean"] = model.standardizer.mean
    tensors["standardizer.scale"] = model.standardizer.scale
    meta = {
        "decoder_digest": model.decoder_digest,
        "sources": list(model.sources),
        "feature_names": model.feature_names,
        "weight_decay": model.weight_decay,
    }
    save_checkpoint(basepath, "encoding_model", meta, tensors)


def load_encoding_model(basepath, decoder: AutoencoderParams, hasher=None) -> EncodingModel:
    """Load a fitted model, verifying it references this exact frozen decoder;
    ``hasher`` takes its payload's bytes (:func:`checkpoint.load_checkpoint`)."""
    _, meta, tensors = load_checkpoint(basepath, expect_kind="encoding_model",
                                       hasher=hasher)
    where = checkpoint_files(basepath)[0]
    meta = checked_fields(meta, {
        "decoder_digest": str, "sources": tuple[str, ...], "feature_names": tuple[str, ...],
        "weight_decay": float}, f"{where}: meta")
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
