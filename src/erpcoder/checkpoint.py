"""Parameter checkpoints: a JSON manifest plus one little-endian f64 payload.

``<base>.ckpt.json`` describes the checkpoint kind, any structured metadata,
and the tensors in a stable order (name, shape, byte offset);
``<base>.ckpt.bin`` concatenates the tensor payloads. Stable ordering means
checkpoints from identical runs are byte-identical and diff cleanly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .data import FormatError


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
    entries = []
    payload = bytearray()
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "offset": len(payload), "shape": list(arr.shape)})
        payload.extend(arr.tobytes())
    manifest = {"kind": kind, "meta": meta, "tensors": entries}
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    payload_path.write_bytes(bytes(payload))


def load_checkpoint(basepath, expect_kind: str | None = None
                    ) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Read a checkpoint; returns (kind, meta, tensors)."""
    manifest_path, payload_path = checkpoint_files(basepath)
    if not manifest_path.exists():
        raise FileNotFoundError(str(manifest_path))
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"{manifest_path}: invalid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: manifest is not a JSON object")
    for key, kind, name in (("kind", str, "string"), ("meta", dict, "object"),
                            ("tensors", list, "array")):
        if not isinstance(manifest.get(key), kind):
            raise FormatError(f"{manifest_path}: manifest {key!r} is missing or not a JSON {name}")
    if expect_kind is not None and manifest["kind"] != expect_kind:
        raise FormatError(
            f"{manifest_path}: checkpoint kind {manifest['kind']!r}, expected {expect_kind!r}"
        )
    if not payload_path.exists():
        raise FileNotFoundError(str(payload_path))
    payload = payload_path.read_bytes()
    entries = []
    for entry in manifest["tensors"]:
        # type() rather than isinstance(): JSON true/false must not pass as integers
        if not (isinstance(entry, dict) and type(entry.get("name")) is str
                and type(entry.get("offset")) is int and type(entry.get("shape")) is list
                and all(type(s) is int for s in entry["shape"])):
            raise FormatError(f"{manifest_path}: tensor entry {entry!r:.80} needs a string "
                              f"'name', an integer 'offset' and an integer list 'shape'")
        name, start, shape = entry["name"], entry["offset"], tuple(entry["shape"])
        if any(s < 0 for s in shape):
            raise FormatError(
                f"{manifest_path}: tensor {name!r} has negative dimension in "
                f"shape {list(shape)}")
        entries.append((start, start + math.prod(shape) * 8, name, shape))
    if len({name for _, _, name, _ in entries}) != len(entries):
        raise FormatError(f"{manifest_path}: tensor names repeat")
    # the tensors must tile the payload: no gap, no overlap, no missing or trailing bytes
    covered = 0
    for start, end, name, _ in sorted(entries):
        if start != covered:
            raise FormatError(
                f"{payload_path}: tensor {name!r} starts at byte {start}, but the tensors "
                f"before it end at byte {covered}")
        covered = end
    if covered != len(payload):
        raise FormatError(
            f"{payload_path}: tensors cover {covered} bytes, payload has {len(payload)}")
    tensors = {
        name: np.frombuffer(payload[start:end], dtype="<f8").reshape(shape).copy()
        for start, end, name, shape in entries
    }
    return manifest["kind"], manifest["meta"], tensors
