"""Versioned model checkpoints: exact float64 round-trip via npz."""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from ..errors import DataError

FORMAT_VERSION = 3
_META_KEY = "__meta__"


def save_checkpoint(path: str | Path, kind: str, meta: dict, arrays: dict[str, np.ndarray]):
    """Write arrays plus a JSON header describing the model."""
    if _META_KEY in arrays:
        raise DataError(f"array name {_META_KEY!r} is reserved")
    header = {"format_version": FORMAT_VERSION, "kind": kind, "meta": meta}
    payload = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
    payload[_META_KEY] = np.frombuffer(json.dumps(header, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(path: str | Path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Return (kind, meta, arrays); raises DataError on a bad file, header or version."""
    # the file is opened here because numpy leaks its own handle on a truncated zip
    with open(path, "rb") as fh, _open_archive(fh, path) as data:
        if _META_KEY not in data:
            raise DataError(f"{path}: not a model checkpoint (missing header)")
        try:
            header = json.loads(data[_META_KEY].tobytes())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: checkpoint header is not JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise DataError(f"{path}: checkpoint header must be a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {header.get('format_version')}")
        if not isinstance(header.get("kind"), str) or not isinstance(header.get("meta"), dict):
            raise DataError(f"{path}: checkpoint header needs a string kind and an object meta")
        arrays = {name: data[name] for name in data.files if name != _META_KEY}
    return header["kind"], header["meta"], arrays


def _open_archive(fh, path) -> np.lib.npyio.NpzFile:
    """The .npz archive in `fh`; any other file is a one-line DataError."""
    try:
        archive = np.load(fh, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):  # text, empty or truncated file
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):  # a bare `np.save` array loads as one
        raise DataError(f"{path}: not a model checkpoint (not an .npz archive)")
    return archive
