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
takes the actual data's means and sums of squares once
(:func:`pooled_timepoint_scorer`), then scores one prediction at a time, so
the CLI ``timecourse`` holds the data and one model's prediction, never
two. The per-word r needs only its own trial (:func:`trial_correlations`),
so the CLI ``export-words`` scores each chunk of predictions as it is
decoded and holds no full prediction. :func:`pooled_variance` gives the
pooled variance without a full-size temporary.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import TrialMeta, write_json
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


def _pearson_flagged(a: np.ndarray, b: np.ndarray) -> tuple[float, bool]:
    """Pearson r with zero-variance inputs mapped to (0.0, flagged=True); an input whose
    values are all equal is one, even where a rounded mean leaves centred values.
    Unequal end values settle most inputs without a pass over them."""
    if any(v[-1] == v[0] and (v == v[0]).all() for v in (a, b)):
        return 0.0, True
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0.0:
        return 0.0, True
    return float((a * b).sum() / denom), False


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


def pooled_timepoint_scorer(actual: np.ndarray):
    """The function ``r(pred)``: the Pearson r of ``pred`` against ``actual``
    at each timepoint, pooled over trials x channels; 0.0 at a timepoint
    where either side has zero variance.

    Two passes over blocks of ``TRIAL_BLOCK`` trials, summed in block order,
    so no temporary is larger than a block: the per-timepoint means, then the
    sums of the centred products, each block centred into one buffer per
    side. Those of ``actual`` are taken once, here, and shared by every call,
    so each r is bitwise that of its prediction alone, and a caller can score
    predictions one after another, each freed before the next is made. Each
    side is measured from its first value at each timepoint, which leaves r
    unchanged and makes the centred values of a constant timepoint, and so
    its variance, exactly 0.
    """
    n_trials, n_channels, n_timepoints = actual.shape
    if n_trials * n_channels == 0:
        raise ValueError(f"no values to pool at each timepoint, shape {actual.shape}")
    blocks, block_shape = _trial_blocks(n_trials), (TRIAL_BLOCK, n_channels, n_timepoints)

    def centred(x, b, centre, buf) -> np.ndarray:
        rows = x[b]
        return np.subtract(rows, centre, out=buf[:len(rows)])

    def mean(x, buf):
        origin = x[0, 0]
        shifted = sum(np.einsum("nct->t", centred(x, b, origin, buf)) for b in blocks)
        return origin + shifted / (n_trials * n_channels)

    dy = np.empty(block_shape)
    mean_y, syy = mean(actual, dy), 0.0
    for b in blocks:
        d = centred(actual, b, mean_y, dy)
        syy = syy + np.einsum("nct,nct->t", d, d)

    def r(x: np.ndarray) -> np.ndarray:
        if x.shape != actual.shape:
            raise ValueError(f"prediction shape {x.shape} != actual {actual.shape}")
        dy, dx = np.empty(block_shape), np.empty(block_shape)
        mean_x, sxy, sxx = mean(x, dx), 0.0, 0.0
        for b in blocks:
            cy, cx = centred(actual, b, mean_y, dy), centred(x, b, mean_x, dx)
            sxy = sxy + np.einsum("nct,nct->t", cx, cy)
            sxx = sxx + np.einsum("nct,nct->t", cx, cx)
        denom = np.sqrt(sxx * syy)
        return np.divide(sxy, denom, out=np.zeros_like(denom), where=denom != 0.0)

    return r


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
    one :func:`pooled_timepoint_scorer` of ``actual``."""
    r = pooled_timepoint_scorer(actual)
    return TimecourseSeries(r(model_preds) - r(intercept_preds), 1, ms_axis)


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
    actual one, and whether either has zero variance (r is then 0.0)."""
    if preds.shape != actual.shape:
        raise ValueError(f"prediction shape {preds.shape} != actual {actual.shape}")
    return [_pearson_flagged(p.ravel(), a.ravel()) for p, a in zip(preds, actual)]


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
