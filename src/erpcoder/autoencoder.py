"""Convolutional autoencoders over ERP epochs.

Two named architectures are supported, distinguished by their latent
geometry: ``alpha`` compresses a 32x200 epoch to 5 latent channels x 9
latent timepoints, ``beta`` to 10 x 20. Encoders interleave 1D convolutions
(tanh) with max pooling; decoders mirror the geometry with transposed
convolutions, using the pooling factors as upsampling strides, and end in a
linear output layer. Optional per-subject, per-electrode intercepts are
added at the decoder output and trained jointly.

Kernel sizes, paddings and channel ladders inside each architecture are a
design choice recorded here in the layer plans; only the latent geometry is
fixed by the architecture names.

Time-major passes. Every pass through the autoencoder runs time-major,
``(T, C, N)`` with the trials in the columns, on the windowed-GEMM kernels
of :mod:`erpcoder.nn`: :func:`_stack_forward` and :func:`_stack_backward`
walk the encoder, the decoder and a frozen decoder's hidden layers in that
one layout, and intercepts are added as ``(C, N)`` columns. ``(N, C, T)``
stays at the data boundary: the data themselves and the signatures of
:func:`encode`, :func:`decode` and :func:`reconstruct`, which transpose
each block of trials in and out. The first convolution's kernel gradient
is the one exception: it is summed per tap from the trials' own ``(N, C,
T)`` rows, faster there than the windowed form.

A trial's bits in a time-major GEMM depend on how many trials share the
call, so every pass over trials runs in fixed blocks of :data:`CHUNK_ROWS`
trials (a constant of :mod:`erpcoder.data`, which reads ERP payloads in
blocks of as many trials), one :func:`_run_jobs` job each
(:func:`_map_chunks`): a trial decoded in one call and in chunks split at
block boundaries, or on any number of workers, gets the same bits.

Data-parallel pretraining. A minibatch MSE and its gradient are the
trial-weighted means of those of any split of the batch. :func:`pretrain`
therefore runs every batch, and the dev set it scores each epoch, as shards
of :data:`CHUNK_ROWS` trials: forward pass, :func:`nn.mse_loss` on the
shard's own rows and backward pass. The step's loss is ``Σ (nₛ/n_b)·lossₛ``
and each gradient ``Σ (nₛ/n_b)·gₛ``, summed in shard order on the calling
thread, so no batch-sized prediction or gradient forms. The shard size is
a constant, not a setting, so the results do not depend on the number of
CPUs: one worker or three give the same bits, and they differ from an
unsharded step only by summation order. :func:`reconstruction_mse`,
:func:`encode`, :func:`decode` and :func:`reconstruct`, and through them
:func:`encoding.predict_erp` and :func:`synth.generate`, map their
whole-dataset passes over the same blocks; :func:`encoding.map_predictions`,
:func:`encoding.freeze` and :meth:`encoding.FrozenDecoder.score` (so
:func:`encoding.model_mse` and :func:`synth.oracle_bounds`) do too.

Folds read in place. :func:`pretrain` trains on ``rows`` of the dataset it
is given, gathering each batch and dev score at those trials, so each
fold of :func:`select_architecture` pretrains on its training trials with
no copy of their epochs and gets the bits of pretraining on a copy.

One geometry rule, :func:`check_geometry`, holds a spec to a dataset's
channels and timepoints for :func:`pretrain`, :func:`encoding.freeze` and
the CLI's analysis commands.
"""

from __future__ import annotations

import functools
import os
import threading
import typing
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import nn
from .checkpoint import (checkpoint_files, load_checkpoint, require_tensors,
                         save_checkpoint, tensor_dict_digest)
from .data import (CHUNK_ROWS, ErpDataset, FormatError, TrialMeta, checked_fields,
                   checked_rows, kfold_split, train_dev_split)

ARCHITECTURES = ("alpha", "beta")

# Share of the trials that pretrain and encoding.train hold out to pick the
# best epoch; a protocol constant, not a setting.
DEV_FRACTION = 0.1
# The default training schedule of pretraining and of the encoding-model fits.
EPOCHS = 200
BATCH_SIZE = 128
LR = 1e-3


@dataclass(frozen=True)
class AutoencoderSpec:
    architecture: str = "beta"
    intercepts: bool = False
    n_channels: int = 32
    n_timepoints: int = 200

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; choose from {ARCHITECTURES}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d, where: str) -> "AutoencoderSpec":
        """Spec from parsed JSON; a missing field, one of the wrong JSON type or an
        unknown architecture raises :class:`FormatError` naming ``where`` and the field."""
        fields = checked_fields(d, typing.get_type_hints(cls), where)
        if fields["architecture"] not in ARCHITECTURES:
            raise FormatError(f"{where}: unknown architecture {fields['architecture']!r}; "
                              f"choose from {ARCHITECTURES}")
        return cls(**fields)


def check_geometry(spec: AutoencoderSpec, dataset: ErpDataset) -> None:
    """``ValueError`` unless the autoencoder of ``spec`` takes and decodes epochs
    of ``dataset``'s channels and timepoints."""
    if (dataset.n_channels, dataset.n_timepoints) != (spec.n_channels, spec.n_timepoints):
        raise ValueError(
            f"decoder geometry {spec.n_channels}x{spec.n_timepoints} != dataset "
            f"{dataset.n_channels}x{dataset.n_timepoints}")


@dataclass(frozen=True)
class ConvStep:
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    activation: bool = True


@dataclass(frozen=True)
class PoolStep:
    window: int
    stride: int


@dataclass(frozen=True)
class TransposedConvStep:
    out_channels: int
    kernel: int
    stride: int
    padding: int
    activation: bool


@dataclass(frozen=True)
class LayerPlan:
    """Encoder/decoder stage descriptors plus the geometry they imply."""

    in_channels: int
    in_timepoints: int
    encoder: tuple
    decoder: tuple[TransposedConvStep, ...]
    latent_channels: int
    latent_timepoints: int

    def to_json_dict(self) -> dict:
        def step(s):
            if isinstance(s, PoolStep):
                return {"pool": [s.window, s.stride]}
            kind = "conv" if isinstance(s, ConvStep) else "tconv"
            return {kind: [s.out_channels, s.kernel, s.stride, s.padding, s.activation]}
        return {**asdict(self), "encoder": [step(s) for s in self.encoder],
                "decoder": [step(s) for s in self.decoder]}


_ENCODERS = {
    "beta": (ConvStep(16, kernel=9, padding=4), PoolStep(5, 5),
             ConvStep(10, kernel=5, padding=2), PoolStep(2, 2)),
    "alpha": (ConvStep(12, kernel=9, padding=4), PoolStep(4, 4),
              ConvStep(5, kernel=5, padding=2), PoolStep(5, 5),
              ConvStep(5, kernel=2, padding=0)),
}

# Decoder out_channels of the final step is filled in with the input channel
# count when the plan is built; each stride mirrors one pooling factor.
_DECODERS = {
    "beta": (TransposedConvStep(16, kernel=4, stride=2, padding=1, activation=True),
             TransposedConvStep(-1, kernel=9, stride=5, padding=2, activation=False)),
    "alpha": (TransposedConvStep(5, kernel=2, stride=1, padding=0, activation=True),
              TransposedConvStep(12, kernel=5, stride=5, padding=0, activation=True),
              TransposedConvStep(-1, kernel=8, stride=4, padding=2, activation=False)),
}

@functools.lru_cache(maxsize=32)
def build_layer_plan(spec: AutoencoderSpec) -> LayerPlan:
    """Instantiate the named architecture at the requested input geometry."""
    encoder = _ENCODERS[spec.architecture]
    decoder = tuple(
        replace(step, out_channels=spec.n_channels) if step.out_channels < 0 else step
        for step in _DECODERS[spec.architecture]
    )

    t = spec.n_timepoints
    channels = spec.n_channels
    for i, step in enumerate(encoder):
        if isinstance(step, ConvStep):
            padded = t + 2 * step.padding
            if step.kernel > padded:
                raise ValueError(
                    f"encoder step {i}: kernel {step.kernel} > {t} + 2*{step.padding}")
            if (padded - step.kernel) % step.stride != 0:
                raise ValueError(
                    f"encoder step {i}: ({t} + 2*{step.padding} - {step.kernel}) % "
                    f"{step.stride} != 0")
            t = nn.conv_output_length(t, step.kernel, step.stride, step.padding)
            channels = step.out_channels
        else:
            if step.window > t:
                raise ValueError(f"encoder step {i}: pool window {step.window} > length {t}")
            if (t - step.window) % step.stride != 0:
                raise ValueError(
                    f"encoder step {i}: ({t} - {step.window}) % {step.stride} = "
                    f"{(t - step.window) % step.stride}, pooling does not tile")
            t = (t - step.window) // step.stride + 1
    latent_channels, latent_timepoints = channels, t

    for i, step in enumerate(decoder):
        t = nn.convtranspose_output_length(t, step.kernel, step.stride, step.padding)
        channels = step.out_channels
    if t != spec.n_timepoints or channels != spec.n_channels:
        raise ValueError(
            f"decoder restores {channels} x {t} but input is "
            f"{spec.n_channels} x {spec.n_timepoints}; the architecture "
            f"{spec.architecture!r} needs an input length its pools tile exactly"
        )
    return LayerPlan(spec.n_channels, spec.n_timepoints, encoder, decoder,
                     latent_channels, latent_timepoints)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class AutoencoderParams:
    spec: AutoencoderSpec
    tensors: dict[str, np.ndarray]
    subjects: tuple[str, ...] | None = None

    @property
    def plan(self) -> LayerPlan:
        return build_layer_plan(self.spec)

    def decoder_tensors(self) -> dict[str, np.ndarray]:
        return {k: v for k, v in self.tensors.items() if k.startswith("dec")}

    def decoder_digest(self) -> str:
        return tensor_dict_digest(self.decoder_tensors())


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    scale = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-scale, scale, size=shape)


def tensor_shapes(spec: AutoencoderSpec, n_subjects: int = 0) -> dict[str, tuple[int, ...]]:
    """Shape of each tensor the layer plan of ``spec`` needs, in initialisation
    order; the intercept table, if enabled, has one row per subject."""
    plan = build_layer_plan(spec)
    shapes: dict[str, tuple[int, ...]] = {}
    in_ch = plan.in_channels
    for i, step in enumerate(plan.encoder):
        if isinstance(step, ConvStep):
            shapes[f"enc{i}.kernels"] = (step.out_channels, in_ch, step.kernel)
            shapes[f"enc{i}.bias"] = (step.out_channels,)
            in_ch = step.out_channels
    for i, step in enumerate(plan.decoder):
        shapes[f"dec{i}.kernels"] = (in_ch, step.out_channels, step.kernel)
        shapes[f"dec{i}.bias"] = (step.out_channels,)
        in_ch = step.out_channels
    if spec.intercepts:
        shapes["intercepts"] = (n_subjects, spec.n_channels)
    return shapes


def init_params(spec: AutoencoderSpec, seed, subjects=None) -> AutoencoderParams:
    """Seeded centered-uniform init with scale 1/sqrt(fan_in); intercepts start at zero."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if spec.intercepts and subjects is None:
        raise ValueError("intercepts enabled but no subject list supplied")
    subject_order = tuple(subjects) if spec.intercepts else None
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(spec, len(subject_order or ())).items():
        if name == "intercepts":
            tensors[name] = np.zeros(shape)
            continue
        if name.endswith(".kernels"):  # encoder (C_out, C_in, K), decoder (C_in, C_out, K)
            fan_in = shape[1 if name.startswith("enc") else 0] * shape[2]
        tensors[name] = _uniform(rng, shape, fan_in)
    return AutoencoderParams(spec, tensors, subject_order)


# ---------------------------------------------------------------------------
# Forward / backward over the layer stacks
# ---------------------------------------------------------------------------


def _stack_forward(steps, tensors: dict[str, np.ndarray], prefix: str, h):
    """Run time-major ``(T, C, N)`` activations ``h`` through encoder or decoder
    steps; returns the output and each layer's (parameter prefix, context) for
    :func:`_stack_backward`."""
    ctxs = []
    for i, step in enumerate(steps):
        name = f"{prefix}{i}"
        if isinstance(step, PoolStep):
            h, ctx = nn.maxpool1d_time_major_forward(h, step.window, step.stride)
        else:
            conv = (nn.conv1d_time_major_forward if isinstance(step, ConvStep)
                    else nn.convtranspose1d_time_major_forward)
            h, ctx = conv(h, tensors[f"{name}.kernels"], tensors[f"{name}.bias"],
                          stride=step.stride, padding=step.padding)
        ctxs.append((name, ctx))
        if not isinstance(step, PoolStep) and step.activation:
            h, ctx = nn.tanh_forward(h)
            ctxs.append((name, ctx))
    return h, ctxs


def _encoder_forward(params: AutoencoderParams, x):
    return _stack_forward(params.plan.encoder, params.tensors, "enc", x)


def _decoder_forward(params: AutoencoderParams, z):
    return _stack_forward(params.plan.decoder, params.tensors, "dec", z)


def _stack_backward(ctxs, grad, rows=None, need_param_grads: bool = True):
    """Walk (parameter prefix, context) pairs from :func:`_stack_forward` in
    reverse; returns (input_grad, param_grads).

    ``rows``, the stack's input as ``(N, C, T)``, marks that input as data:
    the bottom convolution then takes its kernel gradient from ``rows``
    (:func:`nn.conv1d_time_major_backward`) and skips its input gradient, and
    the returned input_grad is None. ``need_param_grads=False`` (a frozen
    decoder) walks the input gradient alone.
    """
    param_grads: dict[str, np.ndarray] = {}
    g = grad
    for depth, (name, ctx) in reversed(list(enumerate(ctxs))):
        if isinstance(ctx, nn.Conv1dTimeMajorCtx):
            lg = nn.conv1d_time_major_backward(ctx, g, rows if depth == 0 else None)
        elif isinstance(ctx, nn.ConvTranspose1dTimeMajorCtx):
            lg = nn.convtranspose1d_time_major_backward(ctx, g, need_param_grads)
        elif isinstance(ctx, nn.TanhCtx):
            lg = nn.tanh_backward(ctx, g)
        else:
            lg = nn.maxpool1d_time_major_backward(ctx, g)
        param_grads.update({f"{name}.{k}": v for k, v in lg.param_grads.items()})
        g = lg.input_grad
    return g, param_grads


def _subject_rows(params: AutoencoderParams, subject_ids) -> np.ndarray:
    lookup = {s: i for i, s in enumerate(params.subjects)}
    rows = []
    for s in subject_ids:
        if s not in lookup:
            raise ValueError(f"unknown subject_id {s!r}; known: {list(params.subjects)}")
        rows.append(lookup[s])
    return np.array(rows, dtype=int)


def _add_intercepts(params: AutoencoderParams, y, subject_ids):
    """Add subject/electrode intercepts to decoded time-major ``(T, C, N)``
    epochs, as ``(C, N)`` columns, if enabled; without intercepts
    ``subject_ids`` is ignored."""
    if not params.spec.intercepts:
        return y
    if subject_ids is None:
        raise ValueError("decoder has intercepts enabled; subject_ids required")
    return y + params.tensors["intercepts"][_subject_rows(params, subject_ids)].T


def _decode(params: AutoencoderParams, z, subject_ids):
    """Time-major latents -> decoded time-major epochs, intercepts added."""
    return _add_intercepts(params, _decoder_forward(params, z)[0], subject_ids)


def _map_time_major(fn, x, out_shape: tuple[int, ...]) -> np.ndarray:
    """The ``(N, *out_shape)`` array whose :data:`CHUNK_ROWS`-row blocks are
    ``fn(rows, x_rows)``, ``x_rows`` being rows ``rows`` of the ``(N, C, T)``
    array ``x`` made time-major and ``fn``'s result transposed back; one
    :func:`_map_chunks` job per block, so the bits do not depend on the
    worker count or on how a caller splits ``x`` at block boundaries."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected a batch of (N, C, T) epochs, got shape {x.shape}")
    out = np.empty((len(x), *out_shape))

    def job(rows):
        out[rows] = fn(rows, nn._swap_layout(x[rows])).transpose(2, 1, 0)

    _map_chunks(job, len(x))
    return out


def encode(params: AutoencoderParams, erp) -> np.ndarray:
    """Compress (N,C,T) epochs to the latent geometry."""
    plan = params.plan
    return _map_time_major(lambda rows, x: _encoder_forward(params, x)[0], erp,
                           (plan.latent_channels, plan.latent_timepoints))


def decode(params: AutoencoderParams, latent, subject_ids=None) -> np.ndarray:
    """Reconstruct (N,C,T) epochs from (N,C_lat,T_lat) latents, adding
    subject/electrode intercepts, one subject per epoch, if enabled."""
    spec = params.spec
    return _map_time_major(lambda rows, z: _decode(params, z, _take(subject_ids, rows)),
                           latent, (spec.n_channels, spec.n_timepoints))


def reconstruct(params: AutoencoderParams, erp, subject_ids=None) -> np.ndarray:
    spec = params.spec
    return _map_time_major(
        lambda rows, x: _decode(params, _encoder_forward(params, x)[0],
                                _take(subject_ids, rows)),
        erp, (spec.n_channels, spec.n_timepoints))


def _take(subject_ids, rows):
    return None if subject_ids is None else subject_ids[rows]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainHistory:
    """Per-epoch train/dev MSE with best-epoch bookkeeping."""

    train_mse: list[float] = field(default_factory=list)
    dev_mse: list[float] = field(default_factory=list)
    best_epoch: int = -1

    def to_json_dict(self) -> dict:
        return asdict(self)


def _check_schedule(*, epochs: int, batch_size: int, lr: float,
                    weight_decay: float = 0.0) -> None:
    """``ValueError`` for ``epochs`` or ``batch_size`` below 1, an ``lr`` that
    is not finite and positive, or a ``weight_decay`` that is not finite and
    non-negative: the schedule :func:`_fit_epochs` refuses before any step,
    and that the cross-validated searches refuse before any fit."""
    for name, value in (("epochs", epochs), ("batch_size", batch_size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    if not (np.isfinite(weight_decay) and weight_decay >= 0):
        raise ValueError(f"weight_decay must be finite and >= 0, got {weight_decay}")


def _dev_split(rows: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(train, dev) trials of ``rows``: the :data:`DEV_FRACTION` split drawn
    over ``len(rows)`` with a seed from ``rng``, mapped through ``rows``."""
    train_idx, dev_idx = train_dev_split(len(rows), DEV_FRACTION,
                                         seed=int(rng.integers(2**63)))
    return rows[train_idx], rows[dev_idx]


def _fit_epochs(params: dict[str, np.ndarray], step, score, train_idx: np.ndarray,
                dev_idx: np.ndarray, rng: np.random.Generator, *, epochs: int,
                batch_size: int, lr: float, weight_decay: float = 0.0) -> TrainHistory:
    """Adam on an MSE; restores ``params`` to the best dev epoch.

    ``step(batch)`` returns (loss, n_out, grads) for trials ``batch``: their
    MSE, the number of values that weights the batch in the epoch's train
    MSE, and the gradients of ``params``. ``score(idx)`` returns the MSE of
    trials ``idx``. Each epoch draws one permutation of ``train_idx`` from
    ``rng``. Without dev trials the epoch's train MSE stands in for the dev
    MSE. A schedule :func:`_check_schedule` refuses raises ``ValueError``
    before any step; a non-finite batch loss or epoch dev MSE raises
    ``RuntimeError``.
    """
    _check_schedule(epochs=epochs, batch_size=batch_size, lr=lr, weight_decay=weight_decay)
    state = nn.adam_init(params, lr=lr)
    history = TrainHistory()
    best: tuple[float, int, dict] = (np.inf, -1, {})
    for epoch in range(epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        se_sum = 0.0
        n_elem = 0
        for b, start in enumerate(range(0, len(order), batch_size)):
            batch_loss, n_out, grads = step(order[start : start + batch_size])
            if not np.isfinite(batch_loss):
                raise RuntimeError(
                    f"training loss diverged to {batch_loss} at epoch {epoch}, batch {b}")
            se_sum += batch_loss * n_out
            n_elem += n_out
            nn.adam_step(params, grads, state, weight_decay=weight_decay)
        history.train_mse.append(se_sum / n_elem)

        dev_loss = score(dev_idx) if len(dev_idx) else history.train_mse[-1]
        if not np.isfinite(dev_loss):
            raise RuntimeError(f"dev MSE diverged to {dev_loss} at epoch {epoch}")
        history.dev_mse.append(dev_loss)
        if dev_loss < best[0]:
            best = (dev_loss, epoch, {k: v.copy() for k, v in params.items()})

    # epoch 0 always sets a best: its dev MSE is finite, so below inf
    params.update(best[2])
    history.best_epoch = best[1]
    return history


def _worker_count(n_jobs: int) -> int:
    """Threads for ``n_jobs`` independent jobs: one per CPU this process may
    run on (its affinity mask, so ``taskset`` limits it), at most one per job."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_jobs)


_job_state = threading.local()  # .running: this thread is inside a _run_jobs job


def _run_jobs(fn, jobs) -> list:
    """``[fn(*job) for job in jobs]``, with the jobs run on :func:`_worker_count`
    workers: the calling thread and one ``erpcoder-fit`` thread per further worker.

    Results come back in job order. The jobs must be independent: each one
    derives its randomness from its own seed, and shared arrays are only
    read. Workers claim jobs in job order; once a job has raised, no
    further job starts, and the first job in job order that raised
    re-raises here. ``nn`` ops hold no shared state, and BLAS calls and
    large ufunc loops release the GIL, so jobs overlap; the results are
    bit-identical to a serial run. A call from inside a job runs its jobs
    in order on that job's thread, so that nested fan-out (the shards of a
    pretraining fold of :func:`select_architecture`) adds no threads beyond
    one per CPU.
    """
    jobs = list(jobs)
    nested = getattr(_job_state, "running", False)
    workers = 1 if nested else _worker_count(len(jobs))
    results: list = [None] * len(jobs)
    errors: dict[int, BaseException] = {}
    unclaimed = iter(range(len(jobs)))
    lock = threading.Lock()  # guards unclaimed and errors

    def work():
        _job_state.running = True
        try:
            while True:
                with lock:
                    i = None if errors else next(unclaimed, None)
                if i is None:
                    return
                try:
                    results[i] = fn(*jobs[i])
                except BaseException as e:  # re-raised below, first in job order
                    with lock:
                        errors[i] = e
        finally:
            _job_state.running = nested

    threads = [threading.Thread(target=work, name=f"erpcoder-fit-{w}")
               for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _map_chunks(fn, n: int) -> list:
    """``fn(chunk)`` for each slice of :data:`CHUNK_ROWS` consecutive rows that
    tiles ``range(n)``, as :func:`_run_jobs` jobs; results in chunk order."""
    return _run_jobs(fn, [(slice(start, start + CHUNK_ROWS),)
                          for start in range(0, n, CHUNK_ROWS)])


def _cross_validate(fit_score, folds, groups) -> list[list]:
    """The k results ``fit_score(*args, f, seeds[f])`` of each group ``(*args, seeds)``,
    from one :func:`_run_jobs` call over groups in order and folds within them."""
    results = _run_jobs(fit_score, [(*args, f, seed) for *args, seeds in groups
                                    for f, seed in enumerate(seeds)])
    return [results[g * folds.k : (g + 1) * folds.k] for g in range(len(groups))]


def pretrain(spec: AutoencoderSpec, dataset: ErpDataset, meta: list[TrialMeta], *,
             rows=None, epochs: int = EPOCHS, batch_size: int = BATCH_SIZE, lr: float = LR,
             seed: int = 0) -> tuple[AutoencoderParams, TrainHistory]:
    """Train the autoencoder under MSE on trials ``rows`` of ``dataset``
    (every trial when None); keep the best dev epoch's parameters.

    Deterministic given the seed: init, dev split (:data:`DEV_FRACTION` of
    the trials) and batch order all derive from one seeded generator. The
    trials are read in place: the dev split is drawn over ``len(rows)`` and
    mapped through ``rows``, every batch and dev score gathers the epochs
    and subject ids at those trials, and the intercept table has one row
    per subject of their meta, so the result has the bits of pretraining on
    ``dataset.subset(rows)`` and its meta. ``rows`` that are empty, not 1-D
    or outside ``range(n_trials)`` raise ``ValueError`` before any step.
    Each batch, and the dev set, runs as :data:`CHUNK_ROWS`-trial shards on
    the pool (see the module docstring).
    """
    if dataset.n_trials == 0:
        raise ValueError("dataset is empty")
    check_geometry(spec, dataset)
    if len(meta) != dataset.n_trials:
        raise ValueError(f"{len(meta)} meta records for {dataset.n_trials} trials")
    rows = checked_rows(rows, dataset.n_trials)

    rng = np.random.default_rng(seed)
    subjects = (tuple(sorted({meta[i].subject_id for i in rows})) if spec.intercepts
                else None)
    params = init_params(spec, rng, subjects)
    train_idx, dev_idx = _dev_split(rows, rng)
    step = functools.partial(_reconstruction_step, params, dataset.data,
                             np.array([m.subject_id for m in meta]))
    score = functools.partial(reconstruction_mse, params, dataset, meta)
    history = _fit_epochs(params.tensors, step, score, train_idx, dev_idx, rng,
                          epochs=epochs, batch_size=batch_size, lr=lr)
    return params, history


def _reconstruction_step(params: AutoencoderParams, x_all: np.ndarray,
                         subject_ids: np.ndarray, batch: np.ndarray):
    """(loss, n_out, grads) of one pretraining step on trials ``batch`` of
    ``x_all``: the reconstruction MSE, its number of values and the gradients
    of ``params.tensors``, from :data:`CHUNK_ROWS`-trial shards summed in
    shard order (see the module docstring). A shard runs time-major; the
    first convolution's kernel gradient reads the shard's own ``(N, C, T)``
    rows."""
    def shard(chunk):
        rows = batch[chunk]
        x = x_all[rows]
        x_tm = nn._swap_layout(x)
        z, enc_ctxs = _encoder_forward(params, x_tm)
        loss, gz, grads = _decoder_step(params, z, x_tm, subject_ids[rows])
        grads.update(_stack_backward(enc_ctxs, gz, rows=x)[1])
        return len(rows) / len(batch), loss, grads

    loss, grads = 0.0, {}
    for weight, shard_loss, shard_grads in _map_chunks(shard, len(batch)):
        loss += weight * shard_loss
        for name, g in shard_grads.items():
            grads[name] = grads[name] + weight * g if name in grads else weight * g
    return loss, len(batch) * x_all[0].size, grads


def _decoder_step(params: AutoencoderParams, z, x, subject_ids):
    """(loss, latent gradient, decoder and intercept gradients) of a shard's
    reconstruction of the time-major epochs ``x`` from latents ``z``. Its
    epoch-sized temporaries are freed on return, before the encoder's
    backward pass."""
    y, dec_ctxs = _decoder_forward(params, z)
    loss, grad_y = nn.mse_loss(_add_intercepts(params, y, subject_ids), x)
    del y  # the backward pass reads grad_y alone: free the prediction first
    gz, grads = _stack_backward(dec_ctxs, grad_y)
    if params.spec.intercepts:
        grads["intercepts"] = np.zeros_like(params.tensors["intercepts"])
        np.add.at(grads["intercepts"], _subject_rows(params, subject_ids), grad_y.sum(axis=0).T)
    return loss, gz, grads


def reconstruction_mse(params: AutoencoderParams, dataset: ErpDataset,
                       meta: list[TrialMeta], indices=None) -> float:
    """Mean squared reconstruction error over the given trials, their
    :data:`CHUNK_ROWS`-trial chunks reconstructed time-major and scored as
    pool jobs, summed in chunk order."""
    idx = np.arange(dataset.n_trials) if indices is None else np.asarray(indices)
    if len(idx) == 0:
        raise ValueError("no trials to score")

    def squared_error(chunk) -> float:
        rows = idx[chunk]
        x = nn._swap_layout(dataset.data[rows])
        diff = _decode(params, _encoder_forward(params, x)[0],
                       [meta[i].subject_id for i in rows])
        diff -= x
        return float(np.vdot(diff, diff))

    se = sum(_map_chunks(squared_error, len(idx)))
    return se / (len(idx) * dataset.n_channels * dataset.n_timepoints)


def select_architecture(dataset: ErpDataset, meta: list[TrialMeta],
                        candidates=None, k: int = 5, seed: int = 0, *,
                        epochs: int = EPOCHS, batch_size: int = BATCH_SIZE,
                        lr: float = LR) -> dict:
    """K-fold cross-validated reconstruction comparison of candidate specs.

    Returns a JSON-ready report with per-fold MSE and pooled R^2
    (1 - MSE/variance) per candidate, and the winner by mean MSE.
    """
    if candidates is None:
        candidates = [
            AutoencoderSpec(a, False, dataset.n_channels, dataset.n_timepoints)
            for a in ARCHITECTURES
        ]
    candidates = list(candidates)
    folds = kfold_split(dataset.n_trials, k, seed)
    seed_rng = np.random.default_rng(seed)
    seeds = [int(seed_rng.integers(2**63)) for _ in range(len(candidates) * k)]

    def fold_result(spec: AutoencoderSpec, f: int, run_seed: int) -> dict:
        tr = folds.train_indices(f)
        te = folds.test_indices(f)
        params, _ = pretrain(spec, dataset, meta, rows=tr, epochs=epochs,
                             batch_size=batch_size, lr=lr, seed=run_seed)
        mse = reconstruction_mse(params, dataset, meta, te)
        var = float(dataset.data[te].var())
        return {"fold": f, "mse": mse, "r2": 1.0 - mse / var}

    results = _cross_validate(fold_result, folds, [(spec, seeds[c * k : (c + 1) * k])
                                                   for c, spec in enumerate(candidates)])
    report: dict = {"folds": k, "fold_digest": folds.digest(), "candidates": {}}
    for spec, per_fold in zip(candidates, results):
        name = spec.architecture + (":intercepts" if spec.intercepts else "")
        report["candidates"][name] = {
            "per_fold": per_fold,
            "mean_mse": float(np.mean([p["mse"] for p in per_fold])),
            "mean_r2": float(np.mean([p["r2"] for p in per_fold])),
        }
    report["winner"] = min(report["candidates"],
                           key=lambda n: report["candidates"][n]["mean_mse"])
    return report


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_autoencoder(basepath, params: AutoencoderParams) -> None:
    meta = {
        "spec": params.spec.to_json_dict(),
        "plan": params.plan.to_json_dict(),
        "subjects": list(params.subjects) if params.subjects else None,
    }
    save_checkpoint(basepath, "autoencoder", meta, params.tensors)


def checked_spec(meta: dict, spec_key: str, plan_key: str, where) -> AutoencoderSpec:
    """The spec ``meta[spec_key]`` of the checkpoint manifest ``where``; the plan
    ``meta[plan_key]`` it stores must be the one the spec builds."""
    spec = AutoencoderSpec.from_json_dict(meta[spec_key], f"{where}: meta {spec_key!r}")
    try:
        plan = build_layer_plan(spec)
    except ValueError as e:
        raise FormatError(f"{where}: meta {spec_key!r}: {e}") from None
    if meta[plan_key] != plan.to_json_dict():
        raise FormatError(
            f"{where}: stored layer plan differs from the one the {spec.architecture!r} "
            f"architecture builds at {spec.n_channels}x{spec.n_timepoints}")
    return spec


def load_autoencoder(basepath, hasher=None) -> AutoencoderParams:
    """The autoencoder checkpoint ``basepath``; ``hasher`` takes its payload's
    bytes (:func:`checkpoint.load_checkpoint`)."""
    _, meta, tensors = load_checkpoint(basepath, expect_kind="autoencoder", hasher=hasher)
    where = checkpoint_files(basepath)[0]
    meta = checked_fields(meta, {"spec": dict, "plan": dict, "subjects": tuple[str, ...] | None},
                          f"{where}: meta")
    spec = checked_spec(meta, "spec", "plan", where)
    subjects = tuple(meta["subjects"]) if meta["subjects"] else None
    if spec.intercepts and subjects is None:
        raise FormatError(f"{where}: meta 'subjects' must list the subjects of the "
                          f"intercept table, got {meta['subjects']!r}")
    if subjects is not None and len(set(subjects)) != len(subjects):
        repeated = sorted({s for s in subjects if subjects.count(s) > 1})
        raise FormatError(f"{where}: meta 'subjects' repeats {repeated}")
    require_tensors(tensors, tensor_shapes(spec, len(subjects or ())), where)
    return AutoencoderParams(spec, tensors, subjects)
