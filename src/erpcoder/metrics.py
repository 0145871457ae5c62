"""Model-comparison metrics and analyses.

``r2_mod`` rescales variance explained between an intercept-only model (0)
and the autoencoder reconstruction ceiling (1). Time-course series report,
per timepoint, the increase in Pearson correlation of a model over the
intercept model, pooled over trials and channels jointly (pooling scope is
recorded in the output). Confidence intervals across folds come from a
seeded percentile bootstrap. Per-word correlation tables carry +/-1 model
coding so external mixed-effects software can consume them directly.

Every statistic over a set of epochs works in blocks of trials, so none
needs more memory than its inputs plus a block. The pooled time course
(:class:`TimepointCorrelation`) takes the actual data's means and sums of
squares once, then takes five sums per timepoint from each chunk of
predictions, each chunk measured from its own first value, and merges them
in chunk order; so the CLI ``timecourse`` scores the model and the intercept
model a chunk at a time as they are decoded, and holds the data and no full
prediction. The per-word r needs only its own trial
(:func:`trial_correlations`), so the CLI ``export-words`` scores each chunk
of predictions as it is decoded too. :func:`pooled_variance` gives the
pooled variance without a full-size temporary.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import CHUNK_ROWS, TrialMeta, write_json
from .features import SOURCES

MODEL_CODING_FAMILIES = tuple(s for s in SOURCES if s != "constant")
CI_ALPHA = 0.05  # fold intervals are 95% percentile bootstrap intervals
TRIAL_BLOCK = 16  # trials per block of the pooled time-course sums


def r2_mod(mse_model: float, mse_intercept: float, mse_autoencoder: float) -> float:
    """1 - (MSE_model - MSE_autoencoder) / (MSE_intercept - MSE_autoencoder).

    0 at the intercept model, 1 at the autoencoder ceiling; may be negative
    for models worse than the intercept.
    """
    denom = mse_intercept - mse_autoencoder
    if denom <= 0:
        raise ValueError(
            f"autoencoder ceiling violated: mse_intercept ({mse_intercept}) must "
            f"exceed mse_autoencoder ({mse_autoencoder})"
        )
    return 1.0 - (mse_model - mse_autoencoder) / denom


@dataclass
class TimecourseSeries:
    """Per-timepoint correlation increase over the intercept model, smoothed
    with a centered window of ``smoothing_window`` samples, and each
    timepoint's millisecond offset from word onset (``ms_axis``)."""

    values: np.ndarray
    smoothing_window: int
    ms_axis: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.ms_axis = np.asarray(self.ms_axis, dtype=np.float64)
        if self.ms_axis.shape != self.values.shape:
            raise ValueError(
                f"ms axis length {self.ms_axis.shape} != series {self.values.shape}")

    def __len__(self) -> int:
        return len(self.values)

    def peak_ms(self) -> float:
        return float(self.ms_axis[int(np.argmax(self.values))])


def _trial_blocks(n_trials: int) -> list[slice]:
    return [slice(i, i + TRIAL_BLOCK) for i in range(0, n_trials, TRIAL_BLOCK)]


class ChunkSums(NamedTuple):
    """One prediction's sums over a chunk of trials, per timepoint: ``m`` values
    each, measured from ``k``, the chunk's first trial's first channel, as
    ``sx`` = Σ(x−k), ``sxx`` = Σ(x−k)² and ``sxy`` = Σ(x−k)(y−ȳ), where ``sy``
    = Σ(y−ȳ) is the actual data's."""

    m: int
    k: np.ndarray
    sx: np.ndarray
    sxx: np.ndarray
    sxy: np.ndarray
    sy: np.ndarray


class TimepointCorrelation:
    """The Pearson r of predictions against ``actual`` at each timepoint, pooled
    over trials x channels, accumulated a chunk of trials at a time; 0.0 at a
    timepoint where either side has zero variance.

    The actual data's per-timepoint mean ȳ and sum of squares ``syy`` are
    taken here, once, over blocks of ``TRIAL_BLOCK`` trials, measured from its
    first value at each timepoint. :meth:`chunk` then takes any chunk's
    :class:`ChunkSums`, each chunk measured from its own first value, so no
    prediction's mean is needed before it is scored; :meth:`r` merges them in
    chunk order with the shifted-sum corrections (Chan, Golub & LeVeque 1983),
    where the exact mean enters. A constant timepoint thus has centred values,
    and so a variance, of exactly 0. The r of a prediction depends only on its
    chunks' sums, so the same chunks give the same bits on any number of
    workers, and a caller can score each chunk of predictions as it is
    decoded, holding none of them whole.
    """

    def __init__(self, actual: np.ndarray):
        n_trials, n_channels, n_timepoints = actual.shape
        if n_trials * n_channels == 0:
            raise ValueError(f"no values to pool at each timepoint, shape {actual.shape}")
        self.actual = actual
        blocks, d = _trial_blocks(n_trials), np.empty((TRIAL_BLOCK, n_channels, n_timepoints))

        def centred(b, centre) -> np.ndarray:
            rows = actual[b]
            return np.subtract(rows, centre, out=d[:len(rows)])

        origin = actual[0, 0]
        shifted = sum(np.einsum("nct->t", centred(b, origin)) for b in blocks)
        self.mean_y = origin + shifted / (n_trials * n_channels)
        self.syy = 0.0
        for b in blocks:
            c = centred(b, self.mean_y)
            self.syy = self.syy + np.einsum("nct,nct->t", c, c)

    def chunk(self, rows: slice, *preds: np.ndarray) -> list[ChunkSums]:
        """The :class:`ChunkSums` of each of ``preds``, the predictions of the
        trials ``rows``, whose actual data is centred once for all of them."""
        dy = self.actual[rows] - self.mean_y
        sy, dx = np.einsum("nct->t", dy), np.empty_like(dy)
        sums = []
        for x in preds:
            if x.shape != dy.shape:
                raise ValueError(f"prediction shape {x.shape} != actual {dy.shape}")
            k = x[0, 0].copy()  # a copy, so that the sums keep no chunk alive
            np.subtract(x, k, out=dx)
            sums.append(ChunkSums(dx.shape[0] * dx.shape[1], k, np.einsum("nct->t", dx),
                                  np.einsum("nct,nct->t", dx, dx),
                                  np.einsum("nct,nct->t", dx, dy), sy))
        return sums

    def r(self, chunks) -> np.ndarray:
        """The pooled r of one prediction at each timepoint from its
        :class:`ChunkSums`, one per chunk, in chunk order."""
        first = chunks[0].k
        shift = sum(c.m * (c.k - first) + c.sx for c in chunks)
        mean = first + shift / sum(c.m for c in chunks)
        sxx, sxy = 0.0, 0.0
        for c in chunks:
            d = mean - c.k  # the chunk's shift to the mean
            sxx = sxx + (c.sxx - 2.0 * d * c.sx + c.m * d * d)
            sxy = sxy + (c.sxy - d * c.sy)
        # a sum of squared deviations that rounds below 0 is 0
        denom = np.sqrt(np.maximum(sxx, 0.0) * self.syy)
        return np.divide(sxy, denom, out=np.zeros_like(denom), where=denom != 0.0)

    def increase(self, chunks: list[list[ChunkSums]],
                 ms_axis: np.ndarray) -> TimecourseSeries:
        """The unsmoothed series of the first prediction's r minus the second's,
        from each chunk's :meth:`chunk` of the two, in chunk order."""
        r_model, r_intercept = (self.r(sums) for sums in zip(*chunks))
        return TimecourseSeries(r_model - r_intercept, 1, ms_axis)


def pooled_variance(x: np.ndarray) -> float:
    """The variance of all values of ``x``, ``x.var()`` up to rounding: the mean,
    then the mean squared deviation from it, each summed over blocks of
    ``TRIAL_BLOCK`` trials (first-axis entries) in block order, so no
    temporary is larger than a block."""
    blocks = _trial_blocks(len(x))
    mean = sum(float(x[b].sum()) for b in blocks) / x.size
    squares = 0.0
    for b in blocks:
        d = x[b] - mean
        d *= d
        squares += float(d.sum())
    return squares / x.size


def timepoint_correlation_increase(model_preds: np.ndarray, intercept_preds: np.ndarray,
                                   actual: np.ndarray,
                                   ms_axis: np.ndarray) -> TimecourseSeries:
    """Per-timepoint pooled r of the model minus that of the intercept model,
    unsmoothed, on the epoch's millisecond axis ``ms_axis``: both scored by
    one :class:`TimepointCorrelation` of ``actual``, over chunks of
    :data:`data.CHUNK_ROWS` trials, as the CLI ``timecourse`` scores them."""
    for preds in (model_preds, intercept_preds):
        if preds.shape != actual.shape:
            raise ValueError(f"prediction shape {preds.shape} != actual {actual.shape}")
    correlation = TimepointCorrelation(actual)
    chunks = [correlation.chunk(rows, model_preds[rows], intercept_preds[rows])
              for rows in (slice(i, i + CHUNK_ROWS) for i in range(0, len(actual), CHUNK_ROWS))]
    return correlation.increase(chunks, ms_axis)


def moving_average_smooth(series, window: int):
    """Centered moving average with edge truncation; window must be odd."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"smoothing window must be odd and >= 1, got {window}")
    if isinstance(series, TimecourseSeries):
        smoothed = moving_average_smooth(series.values, window)
        return TimecourseSeries(smoothed, window, series.ms_axis)
    v = np.asarray(series, dtype=np.float64)
    half = window // 2
    out = np.empty_like(v)
    for i in range(len(v)):
        out[i] = v[max(0, i - half) : i + half + 1].mean()
    return out


def bootstrap_ci(per_fold_values, n_boot: int = 10000,
                 seed: int = 0) -> tuple[float, float]:
    """Seeded 95% percentile bootstrap interval of the mean over fold-level
    values."""
    values = np.asarray(per_fold_values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise ValueError(f"need at least 2 fold values, got shape {values.shape}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, values.size, size=(n_boot, values.size))
    means = values[idx].mean(axis=1)
    low, high = np.quantile(means, [CI_ALPHA / 2.0, 1.0 - CI_ALPHA / 2.0])
    return float(low), float(high)


# ---------------------------------------------------------------------------
# Per-word correlations
# ---------------------------------------------------------------------------


@dataclass
class WordLevelTable:
    """One row per evaluated trial: per-word r plus +/-1 model/word-type coding."""

    rows: list[dict]
    model_name: str

    def to_tsv(self, path) -> None:
        columns = ["trial", "subject_id", "sentence_id", "word_position", "token",
                   "word_class", "pos_tag", "pearson_r", "zero_variance", "word_type"]
        columns += [f"has_{fam}" for fam in MODEL_CODING_FAMILIES]
        lines = [
            "# per-word Pearson correlation between predicted and actual epochs",
            f"# model: {self.model_name}",
            "# word_type: content=+1, function=-1; has_<feature>: included=+1, absent=-1",
            "\t".join(columns),
        ]
        for row in self.rows:
            lines.append("\t".join(str(row[c]) for c in columns))
        Path(path).write_text("\n".join(lines) + "\n")


def trial_correlations(preds: np.ndarray, actual: np.ndarray) -> list[tuple[float, bool]]:
    """Per trial, the Pearson r of its flattened predicted epoch against its
    actual one, and whether either has zero variance (r is then 0.0). An epoch
    whose values are all equal has zero variance, even where a rounded mean
    leaves centred values. The whole set is scored at once, each sum taken
    along a trial's row, as one trial's flattened epoch would be summed."""
    if preds.shape != actual.shape:
        raise ValueError(f"prediction shape {preds.shape} != actual {actual.shape}")
    a, b = preds.reshape(len(preds), -1), actual.reshape(len(actual), -1)
    flagged = (a == a[:, :1]).all(axis=1) | (b == b[:, :1]).all(axis=1)
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    denom = np.sqrt((a * a).sum(axis=1) * (b * b).sum(axis=1))
    flagged |= denom == 0.0
    r = np.divide((a * b).sum(axis=1), denom, out=np.zeros_like(denom), where=~flagged)
    return [(float(v), bool(f)) for v, f in zip(r, flagged)]


def word_level_table(correlations: list[tuple[float, bool]], meta: list[TrialMeta], *,
                     model_name: str = "model",
                     sources: tuple[str, ...] = ()) -> WordLevelTable:
    """The per-word table of the trials ``meta`` describes, from their
    :func:`trial_correlations`."""
    if len(correlations) != len(meta):
        raise ValueError(f"{len(meta)} meta records for {len(correlations)} trials")
    coding = {fam: (1 if fam in sources else -1) for fam in MODEL_CODING_FAMILIES}
    rows = []
    for i, (m, (r, flagged)) in enumerate(zip(meta, correlations)):
        row = {
            "trial": i,
            "subject_id": m.subject_id,
            "sentence_id": m.sentence_id,
            "word_position": m.word_position,
            "token": m.token,
            "word_class": m.word_class,
            "pos_tag": m.pos_tag,
            "pearson_r": r,
            "zero_variance": int(flagged),
            "word_type": 1 if m.word_class == "content" else -1,
        }
        for fam, code in coding.items():
            row[f"has_{fam}"] = code
        rows.append(row)
    return WordLevelTable(rows, model_name)


def content_function_summary(table: WordLevelTable) -> dict:
    """Mean per-word r by word class (None for a class with no words)."""
    out = {}
    for cls in ("content", "function"):
        rs = [row["pearson_r"] for row in table.rows if row["word_class"] == cls]
        out[cls] = {"n": len(rs), "mean_r": float(np.mean(rs)) if rs else None}
    return out


# ---------------------------------------------------------------------------
# Evaluation reports
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    """Fold-level MSEs and normalized variance explained for one model."""

    model_name: str
    mse_model: float
    mse_intercept: float
    mse_autoencoder: float
    r2_mod: float
    per_fold: dict[str, list[float]] = field(default_factory=dict)
    ci_low: float = float("nan")
    ci_high: float = float("nan")
    fold_digest: str = ""
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The report's fields; a CI bound that is not finite becomes null."""
        out = asdict(self)
        for bound in ("ci_low", "ci_high"):
            if not math.isfinite(out[bound]):
                out[bound] = None
        return out

    def write(self, path) -> None:
        write_json(path, self.to_json_dict())


def fold_report(model_name: str, mse_model: list[float], mse_intercept: list[float],
                mse_autoencoder: list[float], *, fold_digest: str = "",
                n_boot: int = 10000, seed: int = 0,
                metadata: dict | None = None) -> EvalReport:
    """Aggregate per-fold MSEs into a report with a 95% bootstrap CI over fold
    r2 (see :func:`bootstrap_ci`)."""
    r2_folds = [
        r2_mod(m, i, a) for m, i, a in zip(mse_model, mse_intercept, mse_autoencoder)
    ]
    low, high = bootstrap_ci(r2_folds, n_boot=n_boot, seed=seed)
    meta = {"pooling": "trials x channels jointly", **(metadata or {})}
    return EvalReport(
        model_name=model_name,
        mse_model=float(np.mean(mse_model)),
        mse_intercept=float(np.mean(mse_intercept)),
        mse_autoencoder=float(np.mean(mse_autoencoder)),
        r2_mod=float(np.mean(r2_folds)),
        per_fold={
            "mse_model": [float(v) for v in mse_model],
            "mse_intercept": [float(v) for v in mse_intercept],
            "mse_autoencoder": [float(v) for v in mse_autoencoder],
            "r2_mod": [float(v) for v in r2_folds],
        },
        ci_low=low,
        ci_high=high,
        fold_digest=fold_digest,
        metadata=meta,
    )


def write_timecourse_tsv(path, series: TimecourseSeries,
                         smoothed: TimecourseSeries) -> None:
    """Write ``series`` and its ``smoothed`` counterpart as one row per
    timepoint: index, ms offset, raw and smoothed increase."""
    lines = [
        "# per-timepoint increase in pooled Pearson r over the intercept model",
        "# pooling: trials x channels jointly",
        f"# smoothed: centered moving average, window {smoothed.smoothing_window}",
        "timepoint\tms\tincrease\tincrease_smoothed",
    ]
    for t in range(len(series)):
        lines.append("\t".join([str(t)] + [repr(float(v[t])) for v in (
            series.ms_axis, series.values, smoothed.values)]))
    Path(path).write_text("\n".join(lines) + "\n")
