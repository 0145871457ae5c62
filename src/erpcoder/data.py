"""Dataset and table I/O, artifact filtering, and fold splitting.

File formats
------------
ERP dataset   ``<name>.erp.json`` sidecar (shape, dtype tag ``f64le``,
              sampling metadata) plus ``<name>.erp.bin`` holding raw
              little-endian 64-bit floats in C order.
Trial meta    ``<name>.meta.tsv`` with columns subject_id, sentence_id,
              word_position, token, word_class, pos_tag, artifact (0 or 1).
Features      ``<name>.feat.tsv``: sentence_id, word_position, then feature
              columns; a vector-valued feature ``f`` of width D appears as
              ``f.0 ... f.{D-1}``.
Embeddings    whitespace-separated text, one ``token v1 ... vD`` per line
              (GloVe convention).
Counts        TSV ``token<TAB>count``.

Loaders are reentrant and the loaded structures are immutable by convention;
round-trips are bit-identical. The four text tables are read by one
reader, :func:`_text_lines` and :func:`_table_rows`: a missing file raises
``FileNotFoundError``, bytes that do not decode :class:`FormatError`, and
lines that hold no field are skipped; a header, where the format has one,
is the first line, blank or not. This module owns the f64 payload layout of
``.erp.bin`` and ``.ckpt.bin`` files, arrays as C-contiguous little-endian f64
values one after another: one writer, and one reader that checks the file's
size before it allocates anything, then reads the file once, in order,
straight into one array.

An ERP payload is read a run of trials at a time (:func:`load_erp`): the
trials a keep mask drops pass through a scratch buffer of
:data:`CHUNK_ROWS` trials, so a filtered load holds one array of the kept
trials and no unfiltered copy. Every value is checked finite, and a caller
that records the payload's sha256 (the CLI manifest) has every byte hashed
as it is read, on a helper thread beside the reads and checks, so the file
is opened once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import os
import queue
import threading
import types
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

WORD_CLASSES = ("content", "function")

# Trials per block: of an ERP payload as it is read and checked (load_erp), and
# per pool job when a pretraining batch is trained, or a set of trials is
# encoded, decoded, scored or paired with a decoder (autoencoder.pretrain,
# encode, decode, reconstruct and reconstruction_mse, encoding.freeze, model_mse,
# map_predictions and predict_erp, synth.generate and oracle_bounds), and per
# chunk of the pooled time course (metrics.TimepointCorrelation): 1.6 MB of
# epochs at 32x200, and a quarter of a batch-128 pretraining step. The
# time-major GEMMs give a trial bits that depend on how many trials share the
# call, so the block size is fixed.
CHUNK_ROWS = 32

# Blocks of a payload that may wait for the hashing thread as it is read
# (_hashing_beside): 6.4 MB of CHUNK_ROWS-trial blocks at 32x200.
HASH_QUEUE = 4


class FormatError(ValueError):
    """A file violated one of the documented on-disk formats."""


def _finite(parse):
    """A number hook of ``json.loads``: ``parse(text)``, or ValueError unless the
    literal is a finite float, so that ``NaN``, ``Infinity``, ``-Infinity`` and
    literals that overflow (``1e400``, or an integer of 400 digits) fail."""
    def hook(text: str):
        if not math.isfinite(float(text)):
            raise ValueError(f"non-finite number {text:.40}")
        return parse(text)
    return hook


def read_json(path):
    """The parsed JSON content of ``path``; :class:`FormatError` if it is not JSON
    or holds a number that is not finite."""
    try:
        return json.loads(Path(path).read_text(), parse_float=_finite(float),
                          parse_int=_finite(int), parse_constant=_finite(float))
    except (ValueError, RecursionError) as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from e


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON with sorted keys, a two-space indent and a trailing
    newline; a non-finite number raises ValueError, since :func:`read_json`
    would reject the file."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def json_fits(value, hint) -> bool:
    """Whether a parsed JSON value fits a type hint: bool, int, float, str, dict, list,
    tuple[X, ...], None or a union of these (X | Y). Any JSON number fits float;
    true and false fit no number type."""
    if isinstance(hint, types.UnionType):
        return any(json_fits(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, (list, tuple))
                and all(json_fits(v, typing.get_args(hint)[0]) for v in value))
    return type(value) in ((int, float) if hint is float else (hint,))


def checked_fields(obj, fields: dict, where, optional: dict | None = None) -> dict:
    """The ``fields`` (key: type hint) of the parsed JSON object ``obj``, and
    the keys of ``optional`` it holds.

    Raises :class:`FormatError` naming ``where`` and the key unless ``obj``
    is an object holding every key of ``fields``, with each value of a key
    of ``fields`` or ``optional`` fitting its hint (:func:`json_fits`).
    Other keys are ignored, unless ``optional`` is given (a config): then
    any other key is an error too.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{where} is not a JSON object, got {type(obj).__name__}")
    hints = {**fields, **(optional or {})}
    if optional is not None:
        for key in obj:
            if key not in hints:
                raise FormatError(f"{where} has unknown key {key!r}")
    for key, hint in hints.items():
        if key not in obj:
            if key in fields:
                raise FormatError(f"{where} is missing {key!r}")
        elif not json_fits(obj[key], hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise FormatError(f"{where}: {key!r} needs {name}, got {obj[key]!r:.80}")
    return {key: obj[key] for key in hints if key in obj}


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
        expected = (self.epoch_end_ms - self.epoch_start_ms) / 1000.0 * self.sampling_rate_hz
        if not (math.isfinite(expected) and round(expected) == self.n_timepoints):
            raise ValueError(
                f"epoch {self.epoch_start_ms}..{self.epoch_end_ms} ms at "
                f"{self.sampling_rate_hz} Hz implies {expected:.6g} timepoints, "
                f"data has {self.n_timepoints}"
            )
        if not self.sampling_rate_hz > 0:
            raise ValueError(f"sampling rate {self.sampling_rate_hz} Hz is not > 0")

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

    def subset(self, rows) -> "ErpDataset":
        """A copy of trials ``rows``."""
        return replace(self, data=self.data[np.asarray(rows)])


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

    def has_column(self, name: str) -> bool:
        return name in self.columns

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
    write_json(sidecar_path, sidecar)
    _write_f64(payload_path, [dataset.data])
    save_meta(meta_path, meta)


def _f64(values) -> np.ndarray:
    """``values`` in the payload layout, C-contiguous little-endian f64."""
    return np.ascontiguousarray(values, dtype="<f8")


def _write_f64(path, arrays) -> None:
    """Write the payload ``path``: each of ``arrays`` as :func:`_f64`, in order."""
    with Path(path).open("wb") as f:
        for values in arrays:
            f.write(_f64(values).data)


def _open_f64(path, shape: tuple[int, ...]):
    """The payload ``path``, opened unbuffered for reading; :class:`FormatError`
    naming the expected and found byte counts, before anything is allocated,
    unless the file's size fits ``shape``."""
    if not Path(path).exists():
        raise FileNotFoundError(str(path))
    expected = math.prod(shape) * 8
    f = Path(path).open("rb", buffering=0)
    found = os.fstat(f.fileno()).st_size
    if found != expected:
        f.close()
        raise FormatError(f"{path}: expected {expected} bytes for shape {shape}, found {found}")
    return f


def _fill(f, values: np.ndarray, path, shape) -> None:
    """Read the next ``values.nbytes`` bytes of the payload ``f`` of ``shape``
    into ``values``. One raw read returns at most ~2 GiB on Linux, hence the
    loop; a file that shrank since :func:`_open_f64` is a :class:`FormatError`."""
    buf = memoryview(values.reshape(-1).view(np.uint8))
    done = 0
    while done < len(buf):
        n = f.readinto(buf[done:])
        if not n:
            raise FormatError(f"{path}: expected {math.prod(shape) * 8} bytes for shape "
                              f"{shape}, found {f.tell()}")
        done += n


def _read_f64(path, shape: tuple[int, ...], hasher=None) -> np.ndarray:
    """The payload ``path`` read once into one array of ``shape``, after
    :func:`_open_f64`'s size check; ``hasher`` (a ``hashlib`` object), if
    given, takes the bytes read, so its digest is the file's."""
    with _open_f64(path, shape) as f:
        values = np.empty(shape, dtype="<f8")
        _fill(f, values, path, shape)
    if hasher is not None:
        hasher.update(values)
    return values


def _non_finite_error(place: str, count: int, index: str, first) -> FormatError:
    return FormatError(f"{place}{count} non-finite values (NaN or inf); "
                       f"first at {index} {first}")


def _require_finite(values: np.ndarray, place: str, index: str = "index") -> None:
    """:class:`FormatError` ``"<place><count> non-finite values (NaN or inf);
    first at <index> <first>"`` unless every value of ``values`` is finite."""
    finite = np.isfinite(values)
    if not finite.all():
        first = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise _non_finite_error(place, int(finite.size - finite.sum()), index, first)


@contextlib.contextmanager
def _hashing_beside(hasher):
    """Gives ``feed(block)``, which hands ``block`` to one helper thread that
    passes it to ``hasher`` (a ``hashlib`` object, whose ``update`` releases the
    interpreter lock), so hashing runs beside the caller's reads and checks.
    Blocks are hashed in the order fed; at most :data:`HASH_QUEUE` wait, so
    ``feed`` blocks while the thread catches up. The caller must not change
    a block once fed. The thread is joined when the context exits, normally
    or not, and an error it met is raised then. With no ``hasher`` it gives
    None, and no thread starts."""
    if hasher is None:
        yield None
        return
    blocks: queue.Queue = queue.Queue(maxsize=HASH_QUEUE)
    failed: list[BaseException] = []

    def work():
        while (block := blocks.get()) is not None:
            if not failed:
                try:
                    hasher.update(block)
                except BaseException as e:  # raised on the caller's thread
                    failed.append(e)

    thread = threading.Thread(target=work, name="erpcoder-hash")
    thread.start()
    try:
        yield blocks.put
    finally:
        blocks.put(None)
        thread.join()
    if failed:
        raise failed[0]


def _read_rows(f, path, shape: tuple[int, ...], keep: np.ndarray, hasher=None) -> np.ndarray:
    """The rows (first-axis entries) of the open payload ``f`` of ``shape`` that
    ``keep`` marks, in one array, read in file order in one pass.

    Each run of kept rows is read straight into its place in the array; each
    run of other rows passes through a scratch buffer of at most
    :data:`CHUNK_ROWS` rows. Every value, kept or not, is checked finite a
    block of :data:`CHUNK_ROWS` rows at a time, and every byte goes to
    ``hasher`` (a ``hashlib`` object), if given, in file order, on a helper
    thread beside the reads (:func:`_hashing_beside`): a kept block as it
    lies in the array, a scratch block as a copy. A value that is not finite
    raises :class:`FormatError` once the whole payload is read, with the
    count over the payload and the first one's index in file rows.
    """
    n = shape[0]
    values = np.empty((int(keep.sum()), *shape[1:]), dtype="<f8")
    scratch = np.empty((min(CHUNK_ROWS, n - len(values)), *shape[1:]), dtype="<f8")
    edges = [0, *(np.flatnonzero(keep[1:] != keep[:-1]) + 1).tolist(), n]

    def blocks():  # (first file row, values, whether they are scratch) in file order
        at = 0
        for start, stop in zip(edges, edges[1:]):
            if keep[start]:
                run = values[at:at + stop - start]
                at += stop - start
                _fill(f, run, path, shape)
                yield from ((start + i, run[i:i + CHUNK_ROWS], False)
                            for i in range(0, len(run), CHUNK_ROWS))
            else:
                for lo in range(start, stop, CHUNK_ROWS):
                    block = scratch[:min(CHUNK_ROWS, stop - lo)]
                    _fill(f, block, path, shape)
                    yield lo, block, True

    bad, first = 0, None
    with _hashing_beside(hasher) as feed:
        for row, block, in_scratch in blocks():
            if feed is not None:
                feed(block.copy() if in_scratch else block)
            finite = np.isfinite(block)
            if not finite.all():
                bad += int(finite.size - finite.sum())
                if first is None:
                    index = np.argwhere(~finite)[0]
                    first = (row + int(index[0]), *(int(i) for i in index[1:]))
    if bad:
        raise _non_finite_error(f"{path}: ", bad, "(trial, channel, timepoint)", first)
    return values


def load_erp(basepath, keep=None, hasher=None) -> tuple[ErpDataset, list[TrialMeta]]:
    """Read a dataset written by :func:`save_erp`. Round-trips bit-identically.

    The payload is read once, in file order, by :func:`_read_rows`, after
    its size is checked. ``keep``, if given, is called with every trial's
    meta and returns the boolean mask of the trials to load (such as
    :func:`keep_mask`): only their rows are read into ``data`` and only
    their meta is returned, as :func:`filter_artifacts` would give them, so
    no unfiltered array forms. Every payload value is checked finite, and
    ``hasher`` (a ``hashlib`` object), if given, takes every payload byte,
    so its digest is the whole file's.

    The checks run in file order: the sidecar, the payload (size, then
    values), then the meta table. The meta table is read before the values
    only so that ``keep`` can pick the rows; its faults are raised after the
    payload's.
    """
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

    with _open_f64(payload_path, shape) as f:
        meta, meta_fault = None, None
        try:
            meta = load_meta(meta_path)
            if len(meta) != shape[0]:
                raise FormatError(f"{Path(basepath)}: {len(meta)} meta rows for "
                                  f"{shape[0]} trials in payload")
        except (FileNotFoundError, FormatError) as e:
            meta_fault = e  # raised below, after the payload's own checks
        if meta_fault is not None:
            rows = np.zeros(shape[0], dtype=bool)
        elif keep is None:
            rows = np.ones(shape[0], dtype=bool)
        else:
            rows = np.asarray(keep(meta), dtype=bool)
            if rows.shape != (shape[0],):
                raise ValueError(f"keep mask of shape {rows.shape} for {shape[0]} trials")
        data = _read_rows(f, payload_path, shape, rows, hasher)
    try:
        dataset = ErpDataset(data, float(sidecar["sampling_rate_hz"]),
                             float(sidecar["epoch_start_ms"]), float(sidecar["epoch_end_ms"]))
    except ValueError as e:
        raise FormatError(f"{sidecar_path}: {e}") from None
    if meta_fault is not None:
        raise meta_fault
    return dataset, meta if keep is None else [m for m, k in zip(meta, rows) if k]


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
    lines = _text_lines(path)
    _, first = next(lines, (0, None))
    if first is None:
        raise FormatError(f"{path}: empty metadata file")
    header = tuple(first.split("\t"))
    if header != META_COLUMNS:
        raise FormatError(f"{path}: header {header} != expected {META_COLUMNS}")
    meta = []
    for i, parts in _table_rows(lines, "\t"):
        if len(parts) != len(META_COLUMNS):
            raise FormatError(f"{path}: line {i}: expected {len(META_COLUMNS)} fields, got {len(parts)}")
        if parts[6] not in ("0", "1"):
            raise FormatError(f"{path}: line {i}: artifact flag {parts[6]!r} is not 0 or 1")
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


def check_fold_count(k: int, n_items: int | None = None) -> None:
    """The one fold-count rule: ``ValueError`` unless ``k`` is at least 2 and,
    given the number of items, at most that."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n_items is not None and k > n_items:
        raise ValueError(f"k={k} folds need at least k items, got {n_items}")


def kfold_split(n_items: int, k: int, seed: int) -> FoldAssignment:
    """Shuffle item indices with a seeded PRNG and deal them round-robin;
    :func:`check_fold_count` holds ``k`` to ``n_items``."""
    check_fold_count(k, n_items)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_items)
    fold_of = np.empty(n_items, dtype=int)
    fold_of[perm] = np.arange(n_items) % k
    return FoldAssignment(n_items=n_items, k=k, fold_of=fold_of)


def checked_rows(rows, n: int, name: str = "rows") -> np.ndarray:
    """``rows`` as an index array into ``range(n)``, every index when None;
    ``ValueError`` naming ``name`` unless they are a non-empty 1-D list of
    integers in ``range(n)``."""
    rows = np.arange(n) if rows is None else np.asarray(rows)
    if rows.ndim != 1 or len(rows) == 0:
        raise ValueError(f"{name} must be a non-empty 1-D list of trial indices")
    if rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n:
        raise ValueError(f"{name} must be trial indices in range({n})")
    return rows


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


def _text_lines(path):
    r"""``(line_no, line)`` for each line of text file ``path``, counting from 1,
    without its line break. Lines break at ``\n``, ``\r`` and ``\r\n`` only, not
    at U+2028, a form feed or the other breaks of ``str.splitlines``; a
    missing file raises ``FileNotFoundError`` naming it, and bytes that do
    not decode raise :class:`FormatError`."""
    if not Path(path).exists():
        raise FileNotFoundError(str(path))
    with Path(path).open() as fh:
        try:
            for i, line in enumerate(fh, start=1):
                yield i, line.rstrip("\n")
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: not a text file: {e}") from None


def _table_rows(lines, sep):
    """``(line_no, fields)`` for each row of ``lines`` (:func:`_text_lines`), its
    fields split at ``sep`` as ``str.split`` splits them; a line that holds no
    field (empty, or only whitespace when ``sep`` is None) is no row."""
    for i, line in lines:
        if line and (fields := line.split(sep)):
            yield i, fields


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
    entries: dict[str, np.ndarray] = {}
    dimension = None
    for i, parts in _table_rows(_text_lines(path), None):
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
            component = idx.lstrip("0") or "0"  # int(idx) in text, free of its digit limit
            if groups and groups[-1][0] == base:
                expected = len(groups[-1][1])
                if component != str(expected):
                    raise FormatError(
                        f"{path}: vector column {base!r} has component {idx} where "
                        f"{expected} was expected"
                    )
                groups[-1][1].append(name)
                continue
            if component != "0":
                raise FormatError(f"{path}: vector column {base!r} must start at {base}.0")
            groups.append((base, [name]))
        else:
            groups.append((name, [name]))
    return groups


def load_token_features(path) -> TokenFeatureTable:
    """Read a ``.feat.tsv`` table keyed by (sentence_id, word_position)."""
    lines = _text_lines(path)
    _, first = next(lines, (0, None))
    if first is None:
        raise FormatError(f"{path}: empty feature table")
    header = first.split("\t")
    if header[:2] != ["sentence_id", "word_position"]:
        raise FormatError(
            f"{path}: first two columns must be sentence_id, word_position, got {header[:2]}"
        )
    groups = _group_feature_columns(header[2:], path)
    width = len(header)

    index: dict[tuple[int, int], int] = {}
    raw_rows: list[list[float]] = []
    for i, parts in _table_rows(lines, "\t"):
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
    """Read a ``token<TAB>count`` frequency table; counts are integers >= 0 and
    each token is listed once."""
    counts: dict[str, int] = {}
    line_of: dict[str, int] = {}
    for i, parts in _table_rows(_text_lines(path), "\t"):
        if len(parts) != 2:
            raise FormatError(f"{path}: line {i}: expected token<TAB>count")
        try:
            count = int(parts[1])
        except ValueError as e:
            raise FormatError(f"{path}: line {i}: {e}") from e
        if count < 0:
            raise FormatError(f"{path}: line {i}: negative count {count}")
        if parts[0] in line_of:
            raise FormatError(f"{path}: line {i}: token {parts[0]!r} is listed again, "
                              f"first at line {line_of[parts[0]]}")
        counts[parts[0]] = count
        line_of[parts[0]] = i
    return counts


def save_counts(path, counts: dict[str, int]) -> None:
    lines = [f"{tok}\t{n}" for tok, n in counts.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def save_embeddings(path, table: EmbeddingTable) -> None:
    lines = []
    for token, vec in table.entries.items():
        lines.append(" ".join([token] + [repr(float(v)) for v in vec]))
    Path(path).write_text("\n".join(lines) + "\n")
