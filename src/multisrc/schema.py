"""One codec for every config dataclass (the experiment JSON and checkpoint
headers) and one writer for every row table.

`from_dict` rejects a non-object section, an unknown or missing key and a
value of the wrong type with a one-line DataError.  Checkpoint headers are
read with `require_all`: `to_dict` wrote every field, and a default filled
in for a lost one would rebuild a different model.  `to_tsv` writes a list
of row dataclasses under a header of their field names.
"""

from __future__ import annotations

import dataclasses
import types
import typing

from .errors import DataError

to_dict = dataclasses.asdict


def from_dict(cls, raw, where: str, extra=frozenset(), require_all=False, _path: str = ""):
    """Build dataclass `cls` from `raw`; keys in `extra` are allowed and ignored.

    `where` names the whole input in every error; a nested section or field
    is named by its dotted path, e.g. `trainer.epochs`.
    """
    section = _path or where
    prefix = f"{where}: " if _path else ""
    if not isinstance(raw, dict):
        raise DataError(f"{prefix}{section} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in raw.items():
        if key in extra:
            continue
        if key not in fields:
            raise DataError(f"{prefix}unknown key {key!r} in {section}")
        kwargs[key] = _decode(hints[key], value, where, require_all,
                              f"{_path}.{key}" if _path else key)
    for f in fields.values():
        required = require_all or (
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        )
        if required and f.name not in raw:
            raise DataError(f"{prefix}{section} lacks required key {f.name!r}")
    return cls(**kwargs)


# the Python types a JSON value may have for each field type
_ACCEPTS = {int: int, float: (int, float), str: str, list: list}


def _decode(hint, value, where: str, require_all: bool, path: str):
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value, where, require_all=require_all, _path=path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value, where, require_all, path)
    kind = origin or hint
    if kind not in _ACCEPTS:
        raise TypeError(f"{path}: the config codec cannot read type {hint}")
    # bool is a subclass of int, but true is not a number here
    if not isinstance(value, _ACCEPTS[kind]) or isinstance(value, bool):
        raise DataError(f"{where}: {path} must be {kind.__name__}, got {value!r}")
    if kind is list:
        return [_decode(args[0], v, where, require_all, f"{path}[{i}]")
                for i, v in enumerate(value)]
    return value


def to_tsv(cls, rows) -> str:
    """A header of `cls`'s field names, then one line per row: floats as
    `.12g`, booleans as 0/1, None (not measured) as an empty cell, anything
    else through `str`."""
    names = [f.name for f in dataclasses.fields(cls)]
    lines = ["\t".join(names)]
    lines += ["\t".join(_cell(getattr(row, name)) for name in names) for row in rows]
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)
