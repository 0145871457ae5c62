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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .checkpoint import load_checkpoint, save_checkpoint, tensor_dict_digest
from .data import ErpDataset, TrialMeta, train_dev_split, kfold_split

ARCHITECTURES = ("alpha", "beta")


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
        return {
            "architecture": self.architecture,
            "intercepts": self.intercepts,
            "n_channels": self.n_channels,
            "n_timepoints": self.n_timepoints,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AutoencoderSpec":
        return cls(d["architecture"], bool(d["intercepts"]),
                   int(d["n_channels"]), int(d["n_timepoints"]))


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
        enc = []
        for step in self.encoder:
            if isinstance(step, ConvStep):
                enc.append({"conv": [step.out_channels, step.kernel, step.stride,
                                     step.padding, step.activation]})
            else:
                enc.append({"pool": [step.window, step.stride]})
        dec = [{"tconv": [s.out_channels, s.kernel, s.stride, s.padding, s.activation]}
               for s in self.decoder]
        return {
            "in_channels": self.in_channels,
            "in_timepoints": self.in_timepoints,
            "encoder": enc,
            "decoder": dec,
            "latent_channels": self.latent_channels,
            "latent_timepoints": self.latent_timepoints,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "LayerPlan":
        encoder = []
        for item in d["encoder"]:
            if "conv" in item:
                c, k, s, p, a = item["conv"]
                encoder.append(ConvStep(int(c), int(k), int(s), int(p), bool(a)))
            else:
                w, s = item["pool"]
                encoder.append(PoolStep(int(w), int(s)))
        decoder = tuple(
            TransposedConvStep(int(c), int(k), int(s), int(p), bool(a))
            for c, k, s, p, a in (item["tconv"] for item in d["decoder"])
        )
        return cls(int(d["in_channels"]), int(d["in_timepoints"]), tuple(encoder),
                   decoder, int(d["latent_channels"]), int(d["latent_timepoints"]))


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

LATENT_CHANNELS = {"alpha": 5, "beta": 10}


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
    if latent_channels != LATENT_CHANNELS[spec.architecture]:
        raise ValueError(
            f"latent channels {latent_channels} != {LATENT_CHANNELS[spec.architecture]}")
    return LayerPlan(spec.n_channels, spec.n_timepoints, encoder, decoder,
                     latent_channels, latent_timepoints)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class AutoencoderParams:
    spec: AutoencoderSpec
    plan: LayerPlan
    tensors: dict[str, np.ndarray]
    subjects: tuple[str, ...] | None = None

    def decoder_tensors(self) -> dict[str, np.ndarray]:
        return {k: v for k, v in self.tensors.items() if k.startswith("dec")}

    def decoder_digest(self) -> str:
        return tensor_dict_digest(self.decoder_tensors())

    def copy(self) -> "AutoencoderParams":
        return AutoencoderParams(
            self.spec, self.plan, {k: v.copy() for k, v in self.tensors.items()},
            self.subjects,
        )


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    scale = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-scale, scale, size=shape)


def init_params(spec: AutoencoderSpec, seed, subjects=None) -> AutoencoderParams:
    """Seeded centered-uniform init with scale 1/sqrt(fan_in)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    plan = build_layer_plan(spec)
    tensors: dict[str, np.ndarray] = {}
    in_ch = plan.in_channels
    for i, step in enumerate(plan.encoder):
        if isinstance(step, ConvStep):
            fan_in = in_ch * step.kernel
            tensors[f"enc{i}.kernels"] = _uniform(rng, (step.out_channels, in_ch, step.kernel), fan_in)
            tensors[f"enc{i}.bias"] = _uniform(rng, (step.out_channels,), fan_in)
            in_ch = step.out_channels
    for i, step in enumerate(plan.decoder):
        fan_in = in_ch * step.kernel
        tensors[f"dec{i}.kernels"] = _uniform(rng, (in_ch, step.out_channels, step.kernel), fan_in)
        tensors[f"dec{i}.bias"] = _uniform(rng, (step.out_channels,), fan_in)
        in_ch = step.out_channels
    subject_order = None
    if spec.intercepts:
        if subjects is None:
            raise ValueError("intercepts enabled but no subject list supplied")
        subject_order = tuple(subjects)
        tensors["intercepts"] = np.zeros((len(subject_order), spec.n_channels))
    return AutoencoderParams(spec, plan, tensors, subject_order)


# ---------------------------------------------------------------------------
# Forward / backward over the layer stacks
# ---------------------------------------------------------------------------


def _encoder_forward(params: AutoencoderParams, x, record: bool = False):
    ctxs = []
    h = x
    for i, step in enumerate(params.plan.encoder):
        if isinstance(step, ConvStep):
            h, ctx = nn.conv1d_forward(
                h, params.tensors[f"enc{i}.kernels"], params.tensors[f"enc{i}.bias"],
                stride=step.stride, padding=step.padding)
            if record:
                ctxs.append(("conv", i, ctx))
            if step.activation:
                h, tctx = nn.tanh_forward(h)
                if record:
                    ctxs.append(("tanh", i, tctx))
        else:
            h, pctx = nn.maxpool1d_forward(h, step.window, step.stride)
            if record:
                ctxs.append(("pool", i, pctx))
    return h, ctxs


def _decoder_forward(params: AutoencoderParams, z, record: bool = False):
    ctxs = []
    h = z
    for i, step in enumerate(params.plan.decoder):
        h, ctx = nn.convtranspose1d_forward(
            h, params.tensors[f"dec{i}.kernels"], params.tensors[f"dec{i}.bias"],
            stride=step.stride, padding=step.padding)
        if record:
            ctxs.append(("tconv", i, ctx))
        if step.activation:
            h, tctx = nn.tanh_forward(h)
            if record:
                ctxs.append(("tanh", i, tctx))
    return h, ctxs


def _stack_backward(ctxs, grad, need_param_grads: bool = True,
                    need_input_grad: bool = True):
    """Walk recorded contexts in reverse; returns (input_grad, param_grads).

    With ``need_input_grad=False`` a convolution at the bottom of the stack
    skips its input gradient, and the returned input_grad is None.
    """
    param_grads: dict[str, np.ndarray] = {}
    g = grad
    for depth, (kind, i, ctx) in reversed(list(enumerate(ctxs))):
        if kind == "conv":
            lg = nn.conv1d_backward(ctx, g, need_input_grad=need_input_grad or depth > 0)
            if need_param_grads:
                param_grads[f"enc{i}.kernels"] = lg.param_grads["kernels"]
                param_grads[f"enc{i}.bias"] = lg.param_grads["bias"]
        elif kind == "tconv":
            lg = nn.convtranspose1d_backward(ctx, g, need_param_grads=need_param_grads)
            if need_param_grads:
                param_grads[f"dec{i}.kernels"] = lg.param_grads["kernels"]
                param_grads[f"dec{i}.bias"] = lg.param_grads["bias"]
        elif kind == "tanh":
            lg = nn.tanh_backward(ctx, g)
        else:
            lg = nn.maxpool1d_backward(ctx, g)
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


def encode(params: AutoencoderParams, erp) -> np.ndarray:
    """Compress (N,C,T) or (C,T) epochs to the latent geometry."""
    z, _ = _encoder_forward(params, erp)
    return z


def decode(params: AutoencoderParams, latent, subject_ids=None) -> np.ndarray:
    """Reconstruct epochs from latents, adding subject/electrode intercepts if enabled."""
    y, _ = _decoder_forward(params, latent)
    if params.spec.intercepts:
        if subject_ids is None:
            raise ValueError("decoder has intercepts enabled; subject_ids required")
        table = params.tensors["intercepts"]
        if y.ndim == 2:
            rows = _subject_rows(params, [subject_ids])
            y = y + table[rows[0]][:, None]
        else:
            rows = _subject_rows(params, subject_ids)
            y = y + table[rows][:, :, None]
    return y


def reconstruct(params: AutoencoderParams, erp, subject_ids=None) -> np.ndarray:
    return decode(params, encode(params, erp), subject_ids)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainHistory:
    """Per-epoch train/dev MSE with best-epoch bookkeeping."""

    train_mse: list[float] = field(default_factory=list)
    dev_mse: list[float] = field(default_factory=list)
    best_epoch: int = -1
    restored_to_best: bool = False

    def to_json_dict(self) -> dict:
        return {
            "train_mse": self.train_mse,
            "dev_mse": self.dev_mse,
            "best_epoch": self.best_epoch,
            "restored_to_best": self.restored_to_best,
        }


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def pretrain(spec: AutoencoderSpec, dataset: ErpDataset, meta: list[TrialMeta], *,
             epochs: int = 200, batch_size: int = 128, lr: float = 0.001,
             seed: int = 0, dev_fraction: float = 0.1
             ) -> tuple[AutoencoderParams, TrainHistory]:
    """Train the autoencoder under MSE; keep the best dev epoch's parameters.

    Deterministic given the seed: init, dev split and batch order all derive
    from one seeded generator.
    """
    if dataset.n_trials == 0:
        raise ValueError("dataset is empty")
    if (dataset.n_channels, dataset.n_timepoints) != (spec.n_channels, spec.n_timepoints):
        raise ValueError(
            f"spec geometry {spec.n_channels}x{spec.n_timepoints} != dataset "
            f"{dataset.n_channels}x{dataset.n_timepoints}")
    if len(meta) != dataset.n_trials:
        raise ValueError(f"{len(meta)} meta records for {dataset.n_trials} trials")

    rng = np.random.default_rng(seed)
    subjects = tuple(sorted({m.subject_id for m in meta})) if spec.intercepts else None
    params = init_params(spec, rng, subjects)
    subj_rows = (
        _subject_rows(params, [m.subject_id for m in meta]) if spec.intercepts else None
    )
    train_idx, dev_idx = train_dev_split(
        dataset.n_trials, dev_fraction, seed=int(rng.integers(2**63)))

    state = nn.adam_init(params.tensors, lr=lr)
    history = TrainHistory()
    best = (np.inf, -1, None)
    x_all = dataset.data

    for epoch in range(epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        se_sum = 0.0
        n_elem = 0
        for b, batch in enumerate(_batches(order, batch_size)):
            xb = x_all[batch]
            z, enc_ctxs = _encoder_forward(params, xb, record=True)
            yb, dec_ctxs = _decoder_forward(params, z, record=True)
            if spec.intercepts:
                yb = yb + params.tensors["intercepts"][subj_rows[batch]][:, :, None]
            loss, gl = nn.mse_loss(yb, xb)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"pretraining loss diverged to {loss} at epoch {epoch}, batch {b}")
            se_sum += loss * yb.size
            n_elem += yb.size
            gz, dec_grads = _stack_backward(dec_ctxs, gl)
            _, enc_grads = _stack_backward(enc_ctxs, gz, need_input_grad=False)
            grads = {**enc_grads, **dec_grads}
            if spec.intercepts:
                gi = np.zeros_like(params.tensors["intercepts"])
                np.add.at(gi, subj_rows[batch], gl.sum(axis=-1))
                grads["intercepts"] = gi
            nn.adam_step(params.tensors, grads, state)
        history.train_mse.append(se_sum / n_elem)

        if len(dev_idx):
            xd = x_all[dev_idx]
            yd = reconstruct(
                params, xd,
                [meta[i].subject_id for i in dev_idx] if spec.intercepts else None)
            dev_loss, _ = nn.mse_loss(yd, xd)
        else:
            dev_loss = history.train_mse[-1]
        history.dev_mse.append(dev_loss)
        if dev_loss < best[0]:
            best = (dev_loss, epoch, {k: v.copy() for k, v in params.tensors.items()})

    if best[2] is not None:
        params.tensors.update({k: v.copy() for k, v in best[2].items()})
        history.best_epoch = best[1]
        history.restored_to_best = True
    return params, history


def reconstruction_mse(params: AutoencoderParams, dataset: ErpDataset,
                       meta: list[TrialMeta], indices=None) -> float:
    """Mean squared reconstruction error over the given trials."""
    idx = np.arange(dataset.n_trials) if indices is None else np.asarray(indices)
    x = dataset.data[idx]
    subject_ids = [meta[i].subject_id for i in idx] if params.spec.intercepts else None
    loss, _ = nn.mse_loss(reconstruct(params, x, subject_ids), x)
    return loss


def select_architecture(dataset: ErpDataset, meta: list[TrialMeta],
                        candidates=None, k: int = 5, seed: int = 0, *,
                        epochs: int = 200, batch_size: int = 128, lr: float = 0.001,
                        dev_fraction: float = 0.1) -> dict:
    """K-fold cross-validated reconstruction comparison of candidate specs.

    Returns a JSON-ready report with per-fold MSE and pooled R^2
    (1 - MSE/variance) per candidate, and the winner by mean MSE.
    """
    if candidates is None:
        candidates = [
            AutoencoderSpec(a, False, dataset.n_channels, dataset.n_timepoints)
            for a in ARCHITECTURES
        ]
    if dataset.n_trials < k:
        raise ValueError(f"need at least k={k} trials, got {dataset.n_trials}")
    folds = kfold_split(dataset.n_trials, k, seed)
    seed_rng = np.random.default_rng(seed)
    report: dict = {"folds": k, "fold_digest": folds.digest(), "candidates": {}}
    for spec in candidates:
        name = spec.architecture + (":intercepts" if spec.intercepts else "")
        per_fold = []
        for f in range(k):
            run_seed = int(seed_rng.integers(2**63))
            tr = folds.train_indices(f)
            te = folds.test_indices(f)
            params, _ = pretrain(
                spec, dataset.subset(tr), [meta[i] for i in tr],
                epochs=epochs, batch_size=batch_size, lr=lr, seed=run_seed,
                dev_fraction=dev_fraction)
            mse = reconstruction_mse(params, dataset, meta, te)
            var = float(dataset.data[te].var())
            per_fold.append({"fold": f, "mse": mse, "r2": 1.0 - mse / var})
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


def load_autoencoder(basepath) -> AutoencoderParams:
    _, meta, tensors = load_checkpoint(basepath, expect_kind="autoencoder")
    spec = AutoencoderSpec.from_json_dict(meta["spec"])
    plan = LayerPlan.from_json_dict(meta["plan"])
    subjects = tuple(meta["subjects"]) if meta.get("subjects") else None
    return AutoencoderParams(spec, plan, tensors, subjects)
