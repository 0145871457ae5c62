"""Dataset and table I/O, artifact filtering, and fold splitting.

File formats
------------
ERP dataset   ``<name>.erp.json`` sidecar (shape, dtype tag ``f64le``,
              sampling metadata) plus ``<name>.erp.bin`` holding raw
              little-endian 64-bit floats in C order.
Trial meta    ``<name>.meta.tsv`` with columns subject_id, sentence_id,
              word_position, token, word_class, pos_tag, artifact.
Features      ``<name>.feat.tsv``: sentence_id, word_position, then feature
              columns; a vector-valued feature ``f`` of width D appears as
              ``f.0 ... f.{D-1}``.
Embeddings    whitespace-separated text, one ``token v1 ... vD`` per line
              (GloVe convention).
Counts        TSV ``token<TAB>count``.

Loaders are reentrant and the loaded structures are immutable by convention;
round-trips are bit-identical.
"""

from __future__ import annotations

import json
import logging
import math
import types
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

WORD_CLASSES = ("content", "function")


class FormatError(ValueError):
    """A file violated one of the documented on-disk formats."""


def read_json(path):
    """The parsed JSON content of ``path``; :class:`FormatError` if it is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from e


def json_fits(value, hint) -> bool:
    """Whether a parsed JSON value fits a type hint: bool, int, float, str, dict, list,
    tuple[X, ...] or X | None. Any JSON number fits float; true and false fit no
    number type."""
    if value is None:
        return type(None) in typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, (list, tuple))
                and all(json_fits(v, typing.get_args(hint)[0]) for v in value))
    return type(value) in ((int, float) if hint is float else (hint,))


def checked_fields(obj, fields: dict, where) -> dict:
    """The ``fields`` (key: type hint) of the parsed JSON object ``obj``.

    Raises :class:`FormatError` naming ``where`` and the key unless ``obj``
    is an object holding every key with a value that :func:`json_fits` its
    hint. Other keys are ignored.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{where} is not a JSON object, got {type(obj).__name__}")
    for key, hint in fields.items():
        if key not in obj:
            raise FormatError(f"{where} is missing {key!r}")
        if not json_fits(obj[key], hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise FormatError(f"{where}: {key!r} needs {name}, got {obj[key]!r:.80}")
    return {key: obj[key] for key in fields}


# ---------------------------------------------------------------------------
# Core records
# ---------------------------------------------------------------------------


@dataclass
class ErpDataset:
    """Trials x channels x timepoints of ERP amplitudes (microvolts)."""

    data: np.ndarray
    sampling_rate_hz: float
    epoch_start_ms: float
    epoch_end_ms: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError(f"ERP data must be 3-dim, got shape {self.data.shape}")
        expected = round(
            (self.epoch_end_ms - self.epoch_start_ms) / 1000.0 * self.sampling_rate_hz
        )
        if expected != self.n_timepoints:
            raise ValueError(
                f"epoch {self.epoch_start_ms}..{self.epoch_end_ms} ms at "
                f"{self.sampling_rate_hz} Hz implies {expected} timepoints, "
                f"data has {self.n_timepoints}"
            )

    @property
    def n_trials(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_timepoints(self) -> int:
        return self.data.shape[2]

    def time_axis_ms(self) -> np.ndarray:
        """Millisecond offset of each sample from stimulus onset."""
        step = 1000.0 / self.sampling_rate_hz
        return self.epoch_start_ms + step * np.arange(self.n_timepoints)

    def subset(self, indices) -> "ErpDataset":
        return replace(self, data=self.data[np.asarray(indices)])


@dataclass(frozen=True)
class TrialMeta:
    """One record per trial, in dataset row order."""

    subject_id: str
    sentence_id: int
    word_position: int
    token: str
    word_class: str
    pos_tag: str
    artifact: bool

    def __post_init__(self):
        if self.word_class not in WORD_CLASSES:
            raise ValueError(f"word_class must be one of {WORD_CLASSES}, got {self.word_class!r}")
        if self.word_position < 1:
            raise ValueError(f"word_position is 1-based, got {self.word_position}")


@dataclass
class EmbeddingTable:
    dimension: int
    entries: dict[str, np.ndarray]

    def get(self, token: str) -> np.ndarray | None:
        return self.entries.get(token)


@dataclass
class TokenFeatureTable:
    """Named per-token feature columns keyed by (sentence_id, word_position).

    Scalar columns have shape (n,), vector columns (n, width).
    """

    index: dict[tuple[int, int], int]
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.index)

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def lookup(self, name: str, key: tuple[int, int]) -> np.ndarray | float:
        return self.columns[name][self.index[key]]

    def rows_for(self, name: str, keys: list[tuple[int, int]]) -> np.ndarray:
        missing = [k for k in keys if k not in self.index]
        if missing:
            shown = ", ".join(f"({s},{w})" for s, w in missing[:5])
            raise ValueError(
                f"token feature table column {name!r} missing {len(missing)} keys; first: {shown}"
            )
        rows = np.array([self.index[k] for k in keys], dtype=int)
        return self.columns[name][rows]


@dataclass
class FoldAssignment:
    """A partition of item indices into k folds with sizes differing by at most 1."""

    n_items: int
    k: int
    fold_of: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)

    def digest(self) -> str:
        """Hash for verifying fold sharing across model runs."""
        import hashlib

        h = hashlib.sha256()
        h.update(f"{self.n_items}:{self.k}:".encode())
        h.update(self.fold_of.astype("<i8").tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# ERP dataset + metadata round-trip
# ---------------------------------------------------------------------------


def erp_files(basepath) -> tuple[Path, Path, Path]:
    """The ``<base>.erp.json``, ``<base>.erp.bin`` and ``<base>.meta.tsv`` of a dataset."""
    base = Path(basepath)
    return tuple(base.parent / (base.name + suffix)
                 for suffix in (".erp.json", ".erp.bin", ".meta.tsv"))


def save_erp(basepath, dataset: ErpDataset, meta: list[TrialMeta]) -> None:
    """Write ``<base>.erp.json``, ``<base>.erp.bin`` and ``<base>.meta.tsv``."""
    if len(meta) != dataset.n_trials:
        raise ValueError(f"{len(meta)} meta records for {dataset.n_trials} trials")
    sidecar_path, payload_path, meta_path = erp_files(basepath)
    sidecar_path.parent.mkdir(parents=True, exist_ok=True)
    sidecar = {
        "dtype": "f64le",
        "epoch_end_ms": dataset.epoch_end_ms,
        "epoch_start_ms": dataset.epoch_start_ms,
        "sampling_rate_hz": dataset.sampling_rate_hz,
        "shape": list(dataset.data.shape),
    }
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    payload_path.write_bytes(np.ascontiguousarray(dataset.data, dtype="<f8").tobytes())
    save_meta(meta_path, meta)


def load_erp(basepath) -> tuple[ErpDataset, list[TrialMeta]]:
    """Read a dataset written by :func:`save_erp`. Round-trips bit-identically."""
    sidecar_path, payload_path, meta_path = erp_files(basepath)
    if not sidecar_path.exists():
        raise FileNotFoundError(str(sidecar_path))
    sidecar = checked_fields(read_json(sidecar_path), {
        "dtype": str, "shape": tuple[int, ...], "sampling_rate_hz": float,
        "epoch_start_ms": float, "epoch_end_ms": float}, f"{sidecar_path}: sidecar")
    if sidecar["dtype"] != "f64le":
        raise FormatError(f"{sidecar_path}: unsupported dtype tag {sidecar['dtype']!r}")
    shape = tuple(sidecar["shape"])
    if len(shape) != 3 or any(s < 1 for s in shape):
        raise FormatError(f"{sidecar_path}: shape must be 3 positive ints, got {shape}")

    if not payload_path.exists():
        raise FileNotFoundError(str(payload_path))
    payload = payload_path.read_bytes()
    expected_bytes = int(np.prod(shape)) * 8
    if len(payload) != expected_bytes:
        raise FormatError(
            f"{payload_path}: expected {expected_bytes} bytes for shape {shape}, "
            f"found {len(payload)}"
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    finite = np.isfinite(data)
    if not finite.all():
        first = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise FormatError(
            f"{payload_path}: {int(finite.size - finite.sum())} non-finite values "
            f"(NaN or inf); first at (trial, channel, timepoint) {first}"
        )
    dataset = ErpDataset(
        data,
        sampling_rate_hz=float(sidecar["sampling_rate_hz"]),
        epoch_start_ms=float(sidecar["epoch_start_ms"]),
        epoch_end_ms=float(sidecar["epoch_end_ms"]),
    )
    meta = load_meta(meta_path)
    if len(meta) != dataset.n_trials:
        raise FormatError(
            f"{Path(basepath)}: {len(meta)} meta rows for {dataset.n_trials} trials in payload"
        )
    return dataset, meta


META_COLUMNS = ("subject_id", "sentence_id", "word_position", "token",
                "word_class", "pos_tag", "artifact")


def save_meta(path, meta: list[TrialMeta]) -> None:
    lines = ["\t".join(META_COLUMNS)]
    for m in meta:
        lines.append(
            "\t".join([
                m.subject_id, str(m.sentence_id), str(m.word_position), m.token,
                m.word_class, m.pos_tag, "1" if m.artifact else "0",
            ])
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_meta(path) -> list[TrialMeta]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    lines = _read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty metadata file")
    header = tuple(lines[0].split("\t"))
    if header != META_COLUMNS:
        raise FormatError(f"{path}: header {header} != expected {META_COLUMNS}")
    meta = []
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != len(META_COLUMNS):
            raise FormatError(f"{path}: line {i}: expected {len(META_COLUMNS)} fields, got {len(parts)}")
        try:
            meta.append(
                TrialMeta(
                    subject_id=parts[0],
                    sentence_id=int(parts[1]),
                    word_position=int(parts[2]),
                    token=parts[3],
                    word_class=parts[4],
                    pos_tag=parts[5],
                    artifact=parts[6] == "1",
                )
            )
        except ValueError as e:
            raise FormatError(f"{path}: line {i}: {e}") from e
    return meta


# ---------------------------------------------------------------------------
# Artifact / first-word filtering
# ---------------------------------------------------------------------------


def keep_mask(meta: list[TrialMeta], include_first_word: bool) -> np.ndarray:
    """Boolean mask of trials surviving artifact (and optionally first-word) removal."""
    mask = np.array([not m.artifact for m in meta], dtype=bool)
    if not include_first_word:
        mask &= np.array([m.word_position != 1 for m in meta], dtype=bool)
    return mask


def filter_artifacts(dataset: ErpDataset, meta: list[TrialMeta],
                     include_first_word: bool = True) -> tuple[ErpDataset, list[TrialMeta]]:
    """Drop artifact trials (and first words unless included), preserving order."""
    if len(meta) != dataset.n_trials:
        raise ValueError(f"{len(meta)} meta records for {dataset.n_trials} trials")
    mask = keep_mask(meta, include_first_word)
    kept = np.flatnonzero(mask)
    return dataset.subset(kept), [meta[i] for i in kept]


# ---------------------------------------------------------------------------
# Fold splitting
# ---------------------------------------------------------------------------


def kfold_split(n_items: int, k: int, seed: int) -> FoldAssignment:
    """Shuffle item indices with a seeded PRNG and deal them round-robin."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n_items:
        raise ValueError(f"k={k} folds need at least k items, got {n_items}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_items)
    fold_of = np.empty(n_items, dtype=int)
    fold_of[perm] = np.arange(n_items) % k
    return FoldAssignment(n_items=n_items, k=k, fold_of=fold_of)


def train_dev_split(n_items: int, dev_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded split of range(n_items); both halves are returned sorted."""
    if not 0.0 <= dev_fraction < 1.0:
        raise ValueError(f"dev_fraction must be in [0, 1), got {dev_fraction}")
    if dev_fraction == 0.0:
        return np.arange(n_items), np.empty(0, dtype=int)
    n_dev = min(max(1, round(n_items * dev_fraction)), n_items - 1)
    perm = np.random.default_rng(seed).permutation(n_items)
    return np.sort(perm[n_dev:]), np.sort(perm[:n_dev])


# ---------------------------------------------------------------------------
# Embedding and token-feature tables
# ---------------------------------------------------------------------------


def _text_lines(path: Path):
    """``(line_no, line)`` for each line of text file ``path``, counting from 1;
    bytes that do not decode raise :class:`FormatError`."""
    with path.open() as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: not a text file: {e}") from None


def _read_lines(path: Path) -> list[str]:
    """The lines of text file ``path``; bytes that do not decode raise :class:`FormatError`."""
    try:
        return path.read_text().splitlines()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not a text file: {e}") from None


def _parse_floats(fields: list[str], path, line_no: int) -> list[float]:
    """Parse one table row's values; NaN and infinities are format violations."""
    try:
        values = [float(v) for v in fields]
    except ValueError as e:
        raise FormatError(f"{path}: line {line_no}: {e}") from e
    for text, value in zip(fields, values):
        if not math.isfinite(value):
            raise FormatError(f"{path}: line {line_no}: non-finite value {text!r}")
    return values


def load_embeddings(path) -> EmbeddingTable:
    """Read ``token v1 ... vD`` text; dimension fixed by the first row."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    entries: dict[str, np.ndarray] = {}
    dimension = None
    for i, line in _text_lines(path):
        parts = line.split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if dimension is None:
            dimension = len(values)
            if dimension == 0:
                raise FormatError(f"{path}: line {i}: no vector values")
        elif len(values) != dimension:
            raise FormatError(
                f"{path}: line {i}: expected {dimension} values, got {len(values)}"
            )
        vec = np.array(_parse_floats(values, path, i))
        if token in entries:
            log.warning("%s: line %d: duplicate token %r, keeping last", path, i, token)
        entries[token] = vec
    if dimension is None:
        raise FormatError(f"{path}: empty embedding file")
    return EmbeddingTable(dimension=dimension, entries=entries)


def _group_feature_columns(names: list[str], path) -> list[tuple[str, list[str]]]:
    """Group ``f.0 ... f.{D-1}`` header runs into vector columns."""
    groups: list[tuple[str, list[str]]] = []
    for name in names:
        base, dot, idx = name.rpartition(".")
        if dot and idx.isascii() and idx.isdigit():
            if groups and groups[-1][0] == base:
                expected = len(groups[-1][1])
                if int(idx) != expected:
                    raise FormatError(
                        f"{path}: vector column {base!r} has component {idx} where "
                        f"{expected} was expected"
                    )
                groups[-1][1].append(name)
                continue
            if int(idx) != 0:
                raise FormatError(f"{path}: vector column {base!r} must start at {base}.0")
            groups.append((base, [name]))
        else:
            groups.append((name, [name]))
    return groups


def load_token_features(path) -> TokenFeatureTable:
    """Read a ``.feat.tsv`` table keyed by (sentence_id, word_position)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    lines = _read_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty feature table")
    header = lines[0].split("\t")
    if header[:2] != ["sentence_id", "word_position"]:
        raise FormatError(
            f"{path}: first two columns must be sentence_id, word_position, got {header[:2]}"
        )
    groups = _group_feature_columns(header[2:], path)
    width = len(header)

    index: dict[tuple[int, int], int] = {}
    raw_rows: list[list[float]] = []
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != width:
            raise FormatError(f"{path}: line {i}: expected {width} fields, got {len(parts)}")
        try:
            key = (int(parts[0]), int(parts[1]))
        except ValueError as e:
            raise FormatError(f"{path}: line {i}: {e}") from e
        values = _parse_floats(parts[2:], path, i)
        if key in index:
            raise FormatError(f"{path}: line {i}: duplicate key {key}")
        index[key] = len(raw_rows)
        raw_rows.append(values)

    matrix = np.array(raw_rows, dtype=np.float64).reshape(len(raw_rows), width - 2)
    columns: dict[str, np.ndarray] = {}
    offset = 0
    for base, members in groups:
        span = matrix[:, offset : offset + len(members)]
        columns[base] = span[:, 0].copy() if len(members) == 1 else span.copy()
        offset += len(members)
    return TokenFeatureTable(index=index, columns=columns)


def save_token_features(path, table: TokenFeatureTable) -> None:
    header = ["sentence_id", "word_position"]
    blocks = []
    for name, col in table.columns.items():
        if col.ndim == 1:
            header.append(name)
            blocks.append(col[:, None])
        else:
            header.extend(f"{name}.{i}" for i in range(col.shape[1]))
            blocks.append(col)
    matrix = np.hstack(blocks)
    keys = sorted(table.index, key=lambda k: table.index[k])
    lines = ["\t".join(header)]
    for key, row in zip(keys, matrix):
        lines.append("\t".join([str(key[0]), str(key[1])] + [repr(float(v)) for v in row]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_counts(path) -> dict[str, int]:
    """Read a ``token<TAB>count`` frequency table."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    counts: dict[str, int] = {}
    for i, line in _text_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{path}: line {i}: expected token<TAB>count")
        try:
            counts[parts[0]] = int(parts[1])
        except ValueError as e:
            raise FormatError(f"{path}: line {i}: {e}") from e
    return counts


def save_counts(path, counts: dict[str, int]) -> None:
    lines = [f"{tok}\t{n}" for tok, n in counts.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def save_embeddings(path, table: EmbeddingTable) -> None:
    lines = []
    for token, vec in table.entries.items():
        lines.append(" ".join([token] + [repr(float(v)) for v in vec]))
    Path(path).write_text("\n".join(lines) + "\n")
