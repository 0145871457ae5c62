"""Word-level feature matrices for encoding models.

Sources: ``frequency`` (add-one smoothed log relative frequency),
``surprisal`` (joined from a precomputed token feature table),
``semantic_distance`` (cosine distance between a word's embedding and the
pointwise mean of its preceding words' embeddings), ``static_embedding``,
``contextual_embedding`` (precomputed, one row per sentence/word position,
produced externally under the incremental-prefix convention), and
``constant`` (all ones, for intercept-only models).

Standardization is fit on explicitly supplied training rows only, so fold
protocols cannot leak dev/test statistics. :func:`apply_standardizer`
returns a plain array, so a :class:`FeatureMatrix` always holds raw values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EmbeddingTable, TokenFeatureTable, TrialMeta, checked_rows

SOURCES = ("frequency", "surprisal", "semantic_distance",
           "static_embedding", "contextual_embedding", "constant")
EMBEDDING_SOURCES = ("static_embedding", "contextual_embedding")


@dataclass(frozen=True)
class FeatureSpec:
    """Ordered list of feature sources for one model variant."""

    sources: tuple[str, ...]

    def __post_init__(self):
        if not self.sources:
            raise ValueError("feature spec needs at least one source")
        unknown = [s for s in self.sources if s not in SOURCES]
        if unknown:
            raise ValueError(f"unknown feature sources {unknown}; known: {list(SOURCES)}")
        if len(set(self.sources)) != len(self.sources):
            raise ValueError(f"duplicate sources in {self.sources}")
        if "constant" in self.sources and len(self.sources) > 1:
            raise ValueError("constant is mutually exclusive with all other sources")

    @property
    def embedding_sources(self) -> tuple[str, ...]:
        return tuple(s for s in self.sources if s in EMBEDDING_SOURCES)


@dataclass
class FeatureMatrix:
    """Trials x D raw feature values, one name per column."""

    values: np.ndarray
    names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"feature matrix must be 2-dim, got shape {self.values.shape}")
        if self.values.shape[1] != len(self.names):
            raise ValueError(f"{len(self.names)} names for {self.values.shape[1]} columns")
        if not np.isfinite(self.values).all():
            raise ValueError("feature matrix contains non-finite values (NaN or inf) "
                             "after construction")

    @property
    def n_trials(self) -> int:
        return self.values.shape[0]


@dataclass
class Standardizer:
    """Per-column centering/scaling fit on training rows; constant columns exempt."""

    mean: np.ndarray
    scale: np.ndarray


def fit_standardizer(matrix: FeatureMatrix, rows) -> Standardizer:
    """The standardizer of trials ``rows`` of ``matrix``, checked by
    :func:`data.checked_rows`."""
    sub = matrix.values[checked_rows(rows, matrix.n_trials)]
    mean = sub.mean(axis=0)
    sd = sub.std(axis=0)
    constant = sd == 0.0
    mean[constant] = 0.0
    scale = np.where(constant, 1.0, sd)
    return Standardizer(mean=mean, scale=scale)


def apply_standardizer(matrix: FeatureMatrix, std: Standardizer, rows=None) -> np.ndarray:
    """The standardized values of trials ``rows`` of ``matrix`` (every trial
    when None), trials x D. The caller checks ``rows`` and that ``matrix``
    has the columns ``std`` was fit on."""
    values = matrix.values if rows is None else matrix.values[rows]
    return (values - std.mean) / std.scale


# ---------------------------------------------------------------------------
# Individual sources
# ---------------------------------------------------------------------------


def frequency_feature(tokens: list[str], counts_table: dict[str, int]) -> np.ndarray:
    """Add-one smoothed log relative frequency: log((count+1) / (total+V))."""
    if not counts_table:
        raise ValueError("frequency counts table is empty")
    total = sum(counts_table.values())
    vocab = len(counts_table)
    denom = total + vocab
    return np.array([
        math.log((counts_table.get(tok, 0) + 1) / denom) for tok in tokens
    ])


def surprisal_feature(trials: list[TrialMeta], table: TokenFeatureTable) -> np.ndarray:
    """Join the table's ``surprisal`` column onto trials; values must be
    non-negative."""
    if not table.has_column("surprisal"):
        raise ValueError("token feature table has no 'surprisal' column")
    keys = [(m.sentence_id, m.word_position) for m in trials]
    values = table.rows_for("surprisal", keys)
    values = np.asarray(values, dtype=np.float64).reshape(len(trials))
    negative = np.flatnonzero(values < 0)
    if negative.size:
        i = int(negative[0])
        raise ValueError(
            f"surprisal must be >= 0; trial {i} {keys[i]} has {values[i]}"
        )
    return values


def build_sentence_tokens(meta: list[TrialMeta]) -> dict[int, dict[int, str]]:
    """Map sentence_id -> word_position -> token from (unfiltered) metadata."""
    sentences: dict[int, dict[int, str]] = {}
    for m in meta:
        sentences.setdefault(m.sentence_id, {})[m.word_position] = m.token
    return sentences


def _embedding_or_none(table: EmbeddingTable, token: str) -> np.ndarray | None:
    vec = table.get(token)
    if vec is None or not np.any(vec):
        return None  # zero-norm vectors are treated as out-of-vocabulary
    return vec


def semantic_distance(trials: list[TrialMeta], embeddings: EmbeddingTable,
                      sentence_tokens: dict[int, dict[int, str]],
                      allow_first_word: bool = False) -> np.ndarray:
    """Cosine distance between each word and the mean of its preceding words.

    Out-of-vocabulary context words are skipped in the average; when the
    target word or the entire context is OOV the value is imputed with the
    mean distance over the non-imputed trials (1.0 if every trial is imputed).
    """
    raw = np.full(len(trials), np.nan)
    imputed = np.zeros(len(trials), dtype=bool)
    for i, m in enumerate(trials):
        if m.word_position < 2:
            if not allow_first_word:
                raise ValueError(
                    f"semantic distance needs word_position >= 2; trial {i} has "
                    f"position {m.word_position} (exclude first words upstream)"
                )
            imputed[i] = True
            continue
        positions = sentence_tokens.get(m.sentence_id, {})
        context = [
            _embedding_or_none(embeddings, positions[p])
            for p in range(1, m.word_position)
            if p in positions
        ]
        context = [v for v in context if v is not None]
        target = _embedding_or_none(embeddings, m.token)
        if target is None or not context:
            imputed[i] = True
            continue
        c = np.mean(context, axis=0)
        norm = np.linalg.norm(c) * np.linalg.norm(target)
        if norm == 0.0:
            imputed[i] = True
            continue
        raw[i] = 1.0 - float(c @ target) / norm
    valid = raw[~imputed]
    fill = float(valid.mean()) if valid.size else 1.0
    raw[imputed] = fill
    return np.clip(raw, 0.0, 2.0)


def static_embedding_feature(trials: list[TrialMeta], embeddings: EmbeddingTable) -> np.ndarray:
    """Per-trial embedding lookup; OOV tokens get a zero vector."""
    block = np.zeros((len(trials), embeddings.dimension))
    for i, m in enumerate(trials):
        vec = embeddings.get(m.token)
        if vec is not None:
            block[i] = vec
    return block


def contextual_embedding_feature(trials: list[TrialMeta],
                                 table: TokenFeatureTable) -> np.ndarray:
    """Join the table's precomputed ``contextual_embedding`` columns onto
    trials; missing rows are an error."""
    if not table.has_column("contextual_embedding"):
        raise ValueError("token feature table has no 'contextual_embedding' column")
    keys = [(m.sentence_id, m.word_position) for m in trials]
    block = table.rows_for("contextual_embedding", keys)
    if block.ndim == 1:
        block = block[:, None]
    return np.asarray(block, dtype=np.float64)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def source_block(source: str, trials: list[TrialMeta], *,
                 counts_table: dict[str, int] | None = None,
                 token_features: TokenFeatureTable | None = None,
                 embeddings: EmbeddingTable | None = None,
                 sentence_tokens: dict[int, dict[int, str]] | None = None,
                 allow_first_word: bool = False) -> np.ndarray:
    """One source's (trials x width) block.

    ``allow_first_word`` lets semantic distance impute sentence-initial words.
    """
    def need(value, what):
        if value is None:
            raise ValueError(f"feature source needs {what}, which was not supplied")
        return value

    if source == "constant":
        return np.ones((len(trials), 1))
    if source == "frequency":
        col = frequency_feature([m.token for m in trials], need(counts_table, "a counts table"))
        return col[:, None]
    if source == "surprisal":
        return surprisal_feature(trials, need(token_features, "a token feature table"))[:, None]
    if source == "semantic_distance":
        col = semantic_distance(trials, need(embeddings, "an embedding table"),
                                need(sentence_tokens, "sentence token sequences"),
                                allow_first_word=allow_first_word)
        return col[:, None]
    if source == "static_embedding":
        return static_embedding_feature(trials, need(embeddings, "an embedding table"))
    if source == "contextual_embedding":
        return contextual_embedding_feature(trials, need(token_features, "a token feature table"))
    raise ValueError(f"unknown feature source {source!r}; known: {list(SOURCES)}")


def column_names(source: str, width: int) -> list[str]:
    """Names of a ``width``-column block of ``source``: ``<source>.0`` ...
    ``<source>.<width-1>`` for an embedding source, else its own name."""
    return [f"{source}.{i}" for i in range(width)] if source in EMBEDDING_SOURCES else [source]


def from_blocks(sources, blocks: dict[str, np.ndarray]) -> FeatureMatrix:
    """The feature matrix of ``sources`` from each source's (trials x width)
    block in ``blocks``, columns in source order."""
    return FeatureMatrix(np.hstack([blocks[s] for s in sources]),
                         [name for s in sources for name in column_names(s, blocks[s].shape[1])])


def assemble(spec: FeatureSpec, trials: list[TrialMeta], *,
             counts_table: dict[str, int] | None = None,
             token_features: TokenFeatureTable | None = None,
             embeddings: EmbeddingTable | None = None,
             sentence_tokens: dict[int, dict[int, str]] | None = None) -> FeatureMatrix:
    """Build the feature matrix for ``spec``, columns in source order."""
    blocks = {source: source_block(source, trials, counts_table=counts_table,
                                   token_features=token_features, embeddings=embeddings,
                                   sentence_tokens=sentence_tokens)
              for source in spec.sources}
    return from_blocks(spec.sources, blocks)
