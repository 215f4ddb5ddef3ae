"""Versioned model checkpoints: exact float64 round-trip via npz.

A network (parser or tagger) is its config, its header and its parameters:
`save_network` writes the header's keys and the config beside the arrays,
and `load_network` rebuilds the network from them.
"""

from __future__ import annotations

import json
import typing
import zipfile
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..schema import from_dict, to_dict

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


def save_network(path: str | Path, model) -> None:
    """Write `model`'s header keys and its `config` under the model's kind."""
    meta = {**to_dict(model.header), "config": to_dict(model.config)}
    save_checkpoint(path, model.KIND, meta, model.params.state_arrays())


def load_network(path: str | Path, cls):
    """Rebuild a `cls` network from its checkpoint; the header and config
    classes are the ones `cls(config, header)` is annotated with."""
    kind, meta, arrays = load_checkpoint(path)
    if kind != cls.KIND:
        raise DataError(f"{path}: expected a {cls.KIND} checkpoint, got {kind!r}")
    inputs = typing.get_type_hints(cls.__init__)
    header = from_dict(inputs["header"], meta, f"{path} header", extra={"config"}, require_all=True)
    config = from_dict(inputs["config"], meta.get("config"), f"{path} config", require_all=True)
    model = cls(config, header)
    model.params.load_arrays(arrays)
    return model


def _open_archive(fh, path) -> np.lib.npyio.NpzFile:
    """The .npz archive in `fh`; any other file is a one-line DataError."""
    try:
        archive = np.load(fh, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):  # text, empty or truncated file
        archive = None
    if not isinstance(archive, np.lib.npyio.NpzFile):  # a bare `np.save` array loads as one
        raise DataError(f"{path}: not a model checkpoint (not an .npz archive)")
    return archive
