"""Flat key=value configuration files.

One assignment per line, snake_case keys matching the simulation or
economic parameter field names; blank lines and '#' comments are
ignored. ``coerce_fields`` types the values by the consumer's dataclass
and rejects unknown keys, so typos in sweep scripts fail loudly.
"""

from __future__ import annotations

import dataclasses
import re
import typing
from pathlib import Path
from typing import Any


class ConfigFormatError(ValueError):
    """A line is not a key=value assignment."""


# The one spelling of each number type: an int is an optional '+' and ASCII
# digits with no leading zero, a float is ASCII with no '_' or outer space.
_SPELLED = {int: re.compile(r"\+?(0|[1-9][0-9]*)").fullmatch,
            float: lambda raw: raw.isascii() and "_" not in raw and raw == raw.strip()}


def parse_kv_text(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigFormatError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigFormatError(f"line {lineno}: empty key")
        if key in mapping:
            raise ConfigFormatError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def load_kv_file(path: str | Path) -> dict[str, str]:
    return parse_kv_text(Path(path).read_text(encoding="utf-8"))


def coerce_fields(
    cls: type, mapping: dict[str, str], error: type[Exception]
) -> dict[str, Any]:
    """Keyword arguments for dataclass ``cls`` parsed from string values.

    Each value is parsed by its field's annotated type: ``bool`` from
    true/1/yes or false/0/no, ``int`` with ``int()`` (exact for 64-bit
    seeds), ``float`` with ``float()``; any other field keeps the stripped
    string. A number must have its one spelling (``_SPELLED``): ``int()``
    alone also reads '07', ' 7', '0_7' or an Arabic-Indic seven as 7. An
    unknown key or an unparseable value raises ``error``; range checks are
    left to ``cls``.
    """
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs: dict[str, Any] = {}
    for key, raw in mapping.items():
        if key not in names:
            raise error(f"unknown {cls.__name__} parameter {key!r}")
        kind = hints[key]
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered not in ("true", "1", "yes", "false", "0", "no"):
                raise error(f"{key}: cannot parse {raw!r} as a boolean")
            kwargs[key] = lowered in ("true", "1", "yes")
        elif kind in _SPELLED:
            try:
                if not _SPELLED[kind](raw):
                    raise ValueError(raw)
                kwargs[key] = kind(raw)
            except ValueError as exc:
                raise error(f"{key}: cannot parse {raw!r} as {kind.__name__}") from exc
        else:
            kwargs[key] = raw.strip()
    return kwargs

