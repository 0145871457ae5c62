"""Synthetic ERP datasets with known ground truth.

Generation walks the real pipeline backwards: word-level tables (counts,
surprisal, static and contextual embeddings) are drawn from seeded
distributions; the driving feature columns are computed with the same
feature code the models use; true per-latent-channel interface weights map
them to latent codes; a fixed randomly-initialized decoder of the requested
architecture turns latents into epochs; Gaussian noise is added on top,
in place, so the dataset's array is the only epoch-sized array that forms
(:func:`_noisy_epochs`). Because every stage is known, closed-form
performance bounds are available for any nested subset of the driving
features.

Content and function word classes get distinct surprisal distributions so
class-level summaries have a detectable ground-truth gap. Artifact flags and
sentence-initial words are populated so filtering paths are exercised.
"""

from __future__ import annotations

import typing
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .autoencoder import (AutoencoderParams, AutoencoderSpec, build_layer_plan, checked_spec,
                          decode, init_params, tensor_shapes)
from .checkpoint import checkpoint_files, load_checkpoint, require_tensors, save_checkpoint
from .data import (CHUNK_ROWS, EmbeddingTable, ErpDataset, TokenFeatureTable, TrialMeta,
                   checked_fields, checked_rows, save_counts, save_embeddings, save_erp,
                   save_token_features, write_json)
from .encoding import freeze
from .features import SOURCES, source_block

CONTENT_TAGS = ("NN", "VB", "JJ", "RB")
FUNCTION_TAGS = ("DT", "IN", "PR", "CC")


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int = 4
    n_sentences: int = 50
    words_per_sentence: int = 5
    n_channels: int = 32
    n_timepoints: int = 200
    sampling_rate_hz: float = 250.0
    epoch_start_ms: float = -100.0
    architecture: str = "beta"
    noise_sd: float = 1.0
    driving: tuple[str, ...] = ("frequency", "surprisal")
    drive_scales: tuple[float, ...] | None = None
    driven_latent_timepoints: tuple[int, ...] | None = None
    vocab_size: int = 60
    static_dim: int = 8
    contextual_dim: int = 12
    artifact_rate: float = 0.05
    latent_bias_sd: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("n_subjects", "n_sentences", "words_per_sentence", "n_channels",
                     "n_timepoints", "vocab_size", "static_dim", "contextual_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # standard deviations, of noise and of the latent bias and drives
        scales = {name: getattr(self, name) for name in ("noise_sd", "latent_bias_sd")}
        scales.update((f"drive_scales[{i}]", v) for i, v in enumerate(self.drive_scales or ()))
        floats = {name: getattr(self, name)
                  for name in ("sampling_rate_hz", "epoch_start_ms", "artifact_rate")}
        for name, value in {**floats, **scales}.items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sampling_rate_hz <= 0:
            raise ValueError(f"sampling_rate_hz must be > 0, got {self.sampling_rate_hz}")
        for name, value in scales.items():
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        # a rate of 1 would flag every trial
        if not 0 <= self.artifact_rate < 1:
            raise ValueError(f"artifact_rate must be in [0, 1), got {self.artifact_rate}")
        if self.drive_scales is not None and len(self.drive_scales) != len(self.driving):
            raise ValueError("drive_scales must align with driving sources")
        drivers = [s for s in SOURCES if s != "constant"]
        if not set(self.driving) <= set(drivers):
            raise ValueError(f"driving sources {list(self.driving)} must be among {drivers}")
        if len(set(self.driving)) != len(self.driving):
            raise ValueError(f"driving sources {list(self.driving)} repeat a source")

    @property
    def epoch_end_ms(self) -> float:
        return self.epoch_start_ms + self.n_timepoints / self.sampling_rate_hz * 1000.0

    @property
    def n_trials(self) -> int:
        return self.n_subjects * self.n_sentences * self.words_per_sentence

    def scales(self) -> tuple[float, ...]:
        return self.drive_scales if self.drive_scales is not None else (1.0,) * len(self.driving)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d) -> "SynthConfig":
        """Config from parsed JSON. Anything but an object, an unknown key or a value
        of the wrong JSON type raises :class:`FormatError` naming the key."""
        fields = checked_fields(d, {}, "synth config", optional=typing.get_type_hints(cls))
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})


@dataclass
class GroundTruth:
    decoder: AutoencoderParams
    interface_weights: dict[str, np.ndarray]  # per driving source: (C, T_lat, d_s)
    latent_bias: np.ndarray  # (C, T_lat)
    latents: np.ndarray  # (n_trials, C, T_lat)
    driving_columns: dict[str, np.ndarray]  # standardized columns, (n_trials, d_s)
    mse_floor: float  # noise variance


@dataclass
class SynthData:
    config: SynthConfig
    dataset: ErpDataset
    meta: list[TrialMeta]
    counts: dict[str, int]
    embeddings: EmbeddingTable
    token_features: TokenFeatureTable
    sentence_tokens: dict[int, dict[int, str]]
    ground_truth: GroundTruth


def _standardize_columns(block: np.ndarray) -> np.ndarray:
    mean = block.mean(axis=0)
    sd = block.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return (block - mean) / sd


def _noisy_epochs(decoder: AutoencoderParams, latents: np.ndarray, noise_sd: float,
                  rng: np.random.Generator) -> np.ndarray:
    """``decode(decoder, latents) + rng.standard_normal(shape) * noise_sd``, bit for
    bit, in one array: :func:`autoencoder.decode` decodes into it a chunk of
    :data:`data.CHUNK_ROWS` trials per pool job, then the noise is added in
    place, chunk by chunk in stream order. Chunked draws continue one
    ``standard_normal`` stream, so no signal or noise array forms beside the
    result."""
    epochs = decode(decoder, latents)
    for start in range(0, len(latents), CHUNK_ROWS):
        block = epochs[start:start + CHUNK_ROWS]
        block += rng.standard_normal(block.shape) * noise_sd
    return epochs


def generate(config: SynthConfig) -> SynthData:
    """Deterministic synthetic generation; identical configs are bit-identical."""
    rng = np.random.default_rng(config.seed)

    # vocabulary: frequent ranks become function words
    tokens = [f"tok{i:03d}" for i in range(config.vocab_size)]
    counts = {
        tok: int(20000.0 / (rank + 1) ** 1.2) + 1 for rank, tok in enumerate(tokens)
    }
    n_function = max(1, int(0.4 * config.vocab_size))
    word_class = {
        tok: ("function" if rank < n_function else "content")
        for rank, tok in enumerate(tokens)
    }
    pos_tag = {}
    for rank, tok in enumerate(tokens):
        tags = FUNCTION_TAGS if word_class[tok] == "function" else CONTENT_TAGS
        pos_tag[tok] = tags[rank % len(tags)]

    # sentences shared by all subjects
    sentence_words = rng.integers(0, config.vocab_size,
                                  size=(config.n_sentences, config.words_per_sentence))
    sentence_tokens = {
        sid: {pos + 1: tokens[sentence_words[sid, pos]]
              for pos in range(config.words_per_sentence)}
        for sid in range(config.n_sentences)
    }

    # per-(sentence, position) tables: surprisal higher for content words
    keys = [(sid, pos + 1) for sid in range(config.n_sentences)
            for pos in range(config.words_per_sentence)]
    surprisal_vals = np.empty(len(keys))
    for i, (sid, pos) in enumerate(keys):
        tok = sentence_tokens[sid][pos]
        shift = 4.0 if word_class[tok] == "content" else 1.0
        surprisal_vals[i] = shift + rng.gamma(2.0, 1.0)
    contextual = rng.normal(size=(len(keys), config.contextual_dim))
    token_features = TokenFeatureTable(
        index={k: i for i, k in enumerate(keys)},
        columns={"surprisal": surprisal_vals, "contextual_embedding": contextual},
    )
    static_vectors = rng.normal(size=(config.vocab_size, config.static_dim))
    for rank, tok in enumerate(tokens):
        if word_class[tok] == "content":
            static_vectors[rank, 0] += 0.8
    embeddings = EmbeddingTable(
        config.static_dim, {tok: static_vectors[i] for i, tok in enumerate(tokens)})

    # trials: subjects x sentences x words, artifact flags populated
    meta: list[TrialMeta] = []
    artifact_draws = rng.uniform(size=config.n_trials)
    i = 0
    for s in range(config.n_subjects):
        subject = f"s{s:02d}"
        for sid in range(config.n_sentences):
            for pos in range(config.words_per_sentence):
                tok = sentence_tokens[sid][pos + 1]
                meta.append(TrialMeta(
                    subject_id=subject, sentence_id=sid, word_position=pos + 1,
                    token=tok, word_class=word_class[tok], pos_tag=pos_tag[tok],
                    artifact=bool(artifact_draws[i] < config.artifact_rate)))
                i += 1

    # driving columns, computed with the production feature code
    driving_columns = {
        source: _standardize_columns(source_block(
            source, meta, counts_table=counts, token_features=token_features,
            embeddings=embeddings, sentence_tokens=sentence_tokens,
            allow_first_word=True))
        for source in config.driving
    }

    # true decoder and interface
    spec = AutoencoderSpec(config.architecture, False, config.n_channels,
                           config.n_timepoints)
    decoder = init_params(spec, seed=int(rng.integers(2**63)))
    c_lat, t_lat = decoder.plan.latent_channels, decoder.plan.latent_timepoints
    if config.driven_latent_timepoints is not None:
        bad = [t for t in config.driven_latent_timepoints if not 0 <= t < t_lat]
        if bad:
            raise ValueError(f"driven latent timepoints {bad} outside [0, {t_lat})")

    latents = np.zeros((config.n_trials, c_lat, t_lat))
    interface_weights: dict[str, np.ndarray] = {}
    for source, scale in zip(config.driving, config.scales()):
        cols = driving_columns[source]
        w = rng.normal(0.0, scale / np.sqrt(cols.shape[1]), size=(c_lat, t_lat, cols.shape[1]))
        if config.driven_latent_timepoints is not None:
            mask = np.zeros(t_lat, dtype=bool)
            mask[list(config.driven_latent_timepoints)] = True
            w[:, ~mask, :] = 0.0
        interface_weights[source] = w
        latents += np.einsum("ctd,nd->nct", w, cols, optimize=True)
    latent_bias = rng.normal(0.0, config.latent_bias_sd, size=(c_lat, t_lat))
    latents += latent_bias

    dataset = ErpDataset(_noisy_epochs(decoder, latents, config.noise_sd, rng),
                         config.sampling_rate_hz, config.epoch_start_ms, config.epoch_end_ms)

    truth = GroundTruth(
        decoder=decoder,
        interface_weights=interface_weights,
        latent_bias=latent_bias,
        latents=latents,
        driving_columns=driving_columns,
        mse_floor=config.noise_sd**2,
    )
    return SynthData(config, dataset, meta, counts, embeddings, token_features,
                     sentence_tokens, truth)


def signal_variance(config: SynthConfig) -> float:
    """Pooled variance of the noise-free signal for this config."""
    clean = generate(replace(config, noise_sd=0.0))
    return float(clean.dataset.data.var())


def calibrate_noise(config: SynthConfig, target_snr: float) -> SynthConfig:
    """Set noise_sd so that signal variance / noise variance == target_snr."""
    if target_snr <= 0:
        raise ValueError("target_snr must be positive")
    return replace(config, noise_sd=float(np.sqrt(signal_variance(config) / target_snr)))


# ---------------------------------------------------------------------------
# Closed-form performance bounds
# ---------------------------------------------------------------------------


def oracle_bounds(truth: GroundTruth, dataset: ErpDataset,
                  fit_rows=None, eval_rows=None) -> dict:
    """Best achievable MSE and r2 per nested driving-feature subset.

    The subsets are the nested chain of the driving sources: none
    (``intercept``), the first, the first two, and so on. For each subset
    the true latents are projected onto the feature span by
    closed-form normal equations (fit on ``fit_rows``), decoded with the true
    decoder, and scored on ``eval_rows``; ``mse_floor`` scores the true
    latents themselves. Because the decoder is mildly
    nonlinear, raw projections can violate nesting by a hair; bounds are
    therefore the running minimum along the nested chain (any superset can
    realize a subset's map by zeroing the extra weights).

    ``dataset`` must be the generated set whose trials ``truth`` describes,
    with every trial: another trial count or epoch geometry, or rows that
    are empty or outside ``range(n_trials)``, raise ``ValueError`` before
    any work. The true decoder is frozen once against the trials of
    ``eval_rows`` alone (:func:`encoding.freeze` with ``rows``), and every
    bound is scored in its Gram form, ``hᵀGh - 2hᵀr + c`` per trial, a chunk
    of ``eval_rows`` per pool job
    (:meth:`encoding.FrozenDecoder.score`): the latents pass through the
    decoder's hidden layers only, and no epoch is decoded. That form cancels
    to the residual, so its absolute error scales with the mean squared
    epoch value ``c/n_out``, not with the residual: within about 2 x
    machine epsilon x ``c/n_out`` per value, a relative error of ~1e-16 at
    ``noise_sd`` 1 and up to ~1e-7 at ``noise_sd`` 1e-6.
    """
    n = truth.latents.shape[0]
    if dataset.n_trials != n:
        raise ValueError(f"dataset has {dataset.n_trials} trials, the ground truth {n}: "
                         "oracle bounds need the generated set")
    fit_rows = checked_rows(fit_rows, n, "fit_rows")
    every = eval_rows is None
    eval_rows = checked_rows(eval_rows, n, "eval_rows")
    # frozen against the scored trials alone, its row i being trial eval_rows[i]
    frozen = freeze(truth.decoder, dataset, rows=None if every else eval_rows)
    scored = np.arange(len(eval_rows))
    driving = tuple(truth.driving_columns)
    subsets = [driving[:i] for i in range(len(driving) + 1)]

    z_flat = truth.latents.reshape(n, -1)
    c_lat, t_lat = truth.latents.shape[1], truth.latents.shape[2]

    def gram_mse(latents: np.ndarray) -> float:
        # (n_eval, C_lat, T_lat) latents, read time-major a chunk at a time
        return frozen.score(latents.transpose(2, 1, 0), scored)

    mse_floor = gram_mse(truth.latents[eval_rows])

    result: dict = {
        "mse_floor": mse_floor,
        "mse": {},
        "best_possible_r2_mod": {},
        "ridge_fallback": False,
    }
    running = np.inf
    for subset in subsets:
        blocks = [np.ones((n, 1))]
        blocks += [truth.driving_columns[s] for s in subset]
        f = np.hstack(blocks)
        ff = f[fit_rows]
        a = ff.T @ ff
        b = ff.T @ z_flat[fit_rows]
        try:
            if np.linalg.cond(a) > 1e12:
                raise np.linalg.LinAlgError("ill-conditioned")
            beta = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            beta = np.linalg.solve(a + 1e-8 * np.eye(a.shape[0]), b)
            result["ridge_fallback"] = True
        z_hat = (f[eval_rows] @ beta).reshape(len(eval_rows), c_lat, t_lat)
        running = min(running, gram_mse(z_hat))
        result["mse"]["+".join(subset) or "intercept"] = running
    mse_empty = result["mse"]["intercept"]
    denom = mse_empty - mse_floor
    for key, mse in result["mse"].items():
        result["best_possible_r2_mod"][key] = (
            1.0 - (mse - mse_floor) / denom if denom > 0 else float("nan"))
    return result


# ---------------------------------------------------------------------------
# On-disk output (all dataio formats)
# ---------------------------------------------------------------------------


def write_dataset_dir(synth: SynthData, outdir) -> None:
    """Write the dataset (``data``), tables and ground truth (``truth``) under
    ``outdir``."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    save_erp(out / "data", synth.dataset, synth.meta)
    save_counts(out / "counts.tsv", synth.counts)
    save_embeddings(out / "embeddings.txt", synth.embeddings)
    save_token_features(out / "tokens.feat.tsv", synth.token_features)
    write_json(out / "config.json", synth.config.to_json_dict())
    truth = synth.ground_truth
    tensors: dict[str, np.ndarray] = {"latent_bias": truth.latent_bias,
                                      "latents": truth.latents}
    for s, w in truth.interface_weights.items():
        tensors[f"interface.{s}"] = w
    for s, cols in truth.driving_columns.items():
        tensors[f"columns.{s}"] = cols
    for name, t in truth.decoder.tensors.items():
        tensors[f"decoder.{name}"] = t
    save_checkpoint(out / "truth", "synth_truth", {
        "driving": list(truth.driving_columns),
        "mse_floor": truth.mse_floor,
        "decoder_spec": truth.decoder.spec.to_json_dict(),
        "decoder_plan": truth.decoder.plan.to_json_dict(),
    }, tensors)


def load_ground_truth(basepath) -> GroundTruth:
    """Reload a ground-truth checkpoint written by :func:`write_dataset_dir`."""
    _, meta, tensors = load_checkpoint(basepath, expect_kind="synth_truth")
    where = checkpoint_files(basepath)[0]
    meta = checked_fields(meta, {
        "decoder_spec": dict, "decoder_plan": dict, "driving": tuple[str, ...],
        "mse_floor": float}, f"{where}: meta")
    spec = checked_spec(meta, "decoder_spec", "decoder_plan", where)
    plan = build_layer_plan(spec)
    lat = (plan.latent_channels, plan.latent_timepoints)
    # every tensor of the decoder's autoencoder, as the writer saves them all
    shapes = {
        **{f"decoder.{n}": shape for n, shape in tensor_shapes(spec).items()},
        **{f"{kind}.{s}": None for s in meta["driving"] for kind in ("interface", "columns")},
        "latent_bias": lat, "latents": None}
    require_tensors(tensors, shapes, where)
    # the trial count comes from `latents`, each source's width from its interface
    n = tensors["latents"].shape[0] if tensors["latents"].ndim else 0
    shapes["latents"] = (n, *lat)
    for s in meta["driving"]:
        interface = tensors[f"interface.{s}"]
        d = interface.shape[-1] if interface.ndim else 0
        shapes.update({f"interface.{s}": (*lat, d), f"columns.{s}": (n, d)})
    require_tensors(tensors, shapes, where)
    decoder_tensors = {
        name[len("decoder."):]: t for name, t in tensors.items()
        if name.startswith("decoder.")
    }
    decoder = AutoencoderParams(spec, decoder_tensors)
    return GroundTruth(
        decoder=decoder,
        interface_weights={s: tensors[f"interface.{s}"] for s in meta["driving"]},
        latent_bias=tensors["latent_bias"],
        latents=tensors["latents"],
        driving_columns={s: tensors[f"columns.{s}"] for s in meta["driving"]},
        mse_floor=float(meta["mse_floor"]),
    )
