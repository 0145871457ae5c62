"""Parameter checkpoints: a JSON manifest plus one little-endian f64 payload.

``<base>.ckpt.json`` describes the checkpoint kind, any structured metadata,
and the tensors in a stable order (name, shape, byte offset);
``<base>.ckpt.bin`` concatenates the tensor payloads. Stable ordering means
checkpoints from identical runs are byte-identical and diff cleanly.

:mod:`erpcoder.data` owns the payload layout: this module writes and reads
``.ckpt.bin`` through its f64 codec, and a loaded checkpoint's tensors are
views of the one array the payload was read into.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from .data import (FormatError, _read_f64, _require_finite, _write_f64, checked_fields,
                   read_json, write_json)


def checkpoint_files(basepath) -> tuple[Path, Path]:
    """The ``<base>.ckpt.json`` manifest and ``<base>.ckpt.bin`` payload of a checkpoint."""
    base = Path(basepath)
    return base.parent / (base.name + ".ckpt.json"), base.parent / (base.name + ".ckpt.bin")


def tensor_dict_digest(tensors: dict[str, np.ndarray]) -> str:
    """Content hash of a named tensor collection, insensitive to memory layout."""
    h = hashlib.sha256()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def save_checkpoint(basepath, kind: str, meta: dict,
                    tensors: dict[str, np.ndarray]) -> None:
    """Write ``<base>.ckpt.json`` + ``<base>.ckpt.bin`` in insertion order."""
    manifest_path, payload_path = checkpoint_files(basepath)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    entries, offset = [], 0
    for name, arr in tensors.items():
        entries.append({"name": name, "offset": offset, "shape": list(np.shape(arr))})
        offset += np.size(arr) * 8
    write_json(manifest_path, {"kind": kind, "meta": meta, "tensors": entries})
    _write_f64(payload_path, tensors.values())


def load_checkpoint(basepath, expect_kind: str | None = None, hasher=None
                    ) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Read a checkpoint; returns (kind, meta, tensors), the tensors views of the one
    array the payload is read into. A manifest or payload that is malformed, or a
    tensor value that is NaN or infinite, raises :class:`FormatError`.
    ``hasher`` (a ``hashlib`` object), if given, takes the payload's bytes as
    they are read, so a caller that records the payload's digest (the CLI
    manifest) opens it once."""
    manifest_path, payload_path = checkpoint_files(basepath)
    if not manifest_path.exists():
        raise FileNotFoundError(str(manifest_path))
    manifest = checked_fields(read_json(manifest_path),
                              {"kind": str, "meta": dict, "tensors": list},
                              f"{manifest_path}: manifest")
    if expect_kind is not None and manifest["kind"] != expect_kind:
        raise FormatError(
            f"{manifest_path}: checkpoint kind {manifest['kind']!r}, expected {expect_kind!r}"
        )
    entries = []
    for i, entry in enumerate(manifest["tensors"]):
        entry = checked_fields(entry, {"name": str, "offset": int, "shape": tuple[int, ...]},
                               f"{manifest_path}: tensor entry {i}")
        name, start, shape = entry["name"], entry["offset"], tuple(entry["shape"])
        if any(s < 1 for s in shape):  # no checkpoint kind holds an empty tensor
            raise FormatError(
                f"{manifest_path}: tensor {name!r} has a dimension below 1 in "
                f"shape {list(shape)}")
        entries.append((start, start + math.prod(shape) * 8, name, shape))
    if len({name for _, _, name, _ in entries}) != len(entries):
        raise FormatError(f"{manifest_path}: tensor names repeat")
    # the tensors must tile the payload: no gap, no overlap, no missing or
    # trailing bytes (the last two are _read_f64's size check)
    covered = 0
    for start, end, name, _ in sorted(entries):
        if start != covered:
            raise FormatError(
                f"{payload_path}: tensor {name!r} starts at byte {start}, but the tensors "
                f"before it end at byte {covered}")
        covered = end
    payload = _read_f64(payload_path, (covered // 8,), hasher)
    tensors = {name: payload[start // 8:end // 8].reshape(shape)
               for start, end, name, shape in entries}
    for name, arr in tensors.items():
        _require_finite(arr, f"{payload_path}: tensor {name!r} has ")
    return manifest["kind"], manifest["meta"], tensors


def require_tensors(tensors: dict[str, np.ndarray], shapes: dict, where) -> None:
    """Check that ``tensors`` holds exactly the tensors ``shapes`` names, a map
    from tensor name to its expected shape (None: any shape).

    Raises :class:`FormatError` naming the checkpoint manifest ``where`` and
    the first tensor that is missing or whose shape differs, with both shapes,
    or else the first tensor that ``shapes`` does not name.
    """
    for name, shape in shapes.items():
        if name not in tensors:
            raise FormatError(f"{where}: checkpoint has no tensor {name!r}")
        if shape is not None and tensors[name].shape != tuple(shape):
            raise FormatError(f"{where}: tensor {name!r} has shape "
                              f"{list(tensors[name].shape)}, expected {list(shape)}")
    for name in tensors:
        if name not in shapes:
            raise FormatError(f"{where}: checkpoint has unexpected tensor {name!r}")
