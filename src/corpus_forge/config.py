"""The one loader for config sections. Each section is a frozen dataclass:
its fields are the section's keys, its defaults the only defaults, and its
`__post_init__` checks ranges."""

from __future__ import annotations

import dataclasses
import types
import typing
from enum import Enum
from pathlib import Path
from typing import Any

# Field metadata for a field the program sets and a config file may not.
NOT_A_KEY = {"config_key": False}

_JSON_NAMES = {type(None): "null", bool: "boolean", int: "integer", float: "number",
               str: "string", list: "array", dict: "object", Path: "string"}


@dataclasses.dataclass(frozen=True)
class Issue:
    level: str  # "error" | "warning"
    message: str


class ConfigValidationError(ValueError):
    def __init__(self, issues: list[Issue]):
        self.issues = issues
        super().__init__("; ".join(i.message for i in issues))


class _WrongType(Exception):
    pass


def config_keys(cls) -> dict[str, dataclasses.Field]:
    """The fields of section `cls` that a config may set, by name."""
    return {f.name: f for f in dataclasses.fields(cls) if f.metadata.get("config_key", True)}


def path_values(value: Any, where: str = "") -> typing.Iterator[tuple[str, Path]]:
    """Every Path in `value`, a section, by its dotted key (`datasets[0].path`)."""
    if isinstance(value, Path):
        yield where, value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from path_values(getattr(value, f.name), f"{where}.{f.name}".lstrip("."))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from path_values(item, f"{where}[{i}]")


def _convert(hint: Any, value: Any, where: str, base: Path, errors: list[str]) -> Any:
    """`value` as type `hint`, or _WrongType; nested sections append to `errors`."""
    nullable = typing.get_origin(hint) in (typing.Union, types.UnionType)
    if nullable:
        if value is None:
            return None
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    origin = typing.get_origin(hint)
    if origin in (list, tuple, frozenset):
        expected = "array"
        if isinstance(value, list):
            item = typing.get_args(hint)[0]
            return origin(_convert(item, v, f"{where}[{i}]", base, errors)
                          for i, v in enumerate(value))
    elif dataclasses.is_dataclass(hint):
        expected = "object"
        if isinstance(value, dict):
            return _load(hint, value, where, base, errors)
    elif issubclass(hint, Enum):
        expected = "one of " + ", ".join(repr(e.value) for e in hint)
        if isinstance(value, str) and value in hint._value2member_map_:
            return hint(value)
    else:
        expected = _JSON_NAMES[hint]
        # A JSON number may be an int or a float, and bool is an int subclass.
        kinds = {float: (int, float), Path: str}.get(hint, hint)
        if isinstance(value, kinds) and (hint is bool or not isinstance(value, bool)):
            return base / value if hint is Path else hint(value)
    got = next(name for kind, name in _JSON_NAMES.items() if isinstance(value, kind))
    shown = f" {value!r}" if isinstance(value, (str, int, float)) else ""
    raise _WrongType(f"expected {expected}{' or null' if nullable else ''}, got {got}{shown}")


def _load(cls, data: dict, where: str, base: Path, errors: list[str]) -> Any:
    """`cls` built from `data`, or None after appending to `errors`."""
    label = where or "top level"
    keys = config_keys(cls)
    hints = typing.get_type_hints(cls)
    before = len(errors)
    for key in [k for k in data if k not in keys]:
        errors.append(f"{label}: unknown key {key!r}; valid keys: {', '.join(keys)}")
    values = {}
    for name, f in keys.items():
        path = f"{where}.{name}" if where else name
        if name in data:
            try:
                values[name] = _convert(hints[name], data[name], path, base, errors)
            except _WrongType as exc:
                errors.append(f"{path}: {exc}")
        elif isinstance(f.default, Path):
            values[name] = base / f.default
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            errors.append(f"{label}: missing key {name!r}")
    if len(errors) > before:
        return None
    try:
        return cls(**values)
    except ValueError as exc:
        errors.append(f"{label}: {exc}")
        return None


def load_section(cls, data: Any, where: str, base: Path) -> Any:
    """Section `cls` from the JSON value `data`, labelled `where` in errors,
    with relative paths resolved against `base`. Raises ConfigValidationError
    naming every unknown or missing key, wrong type and out-of-range value."""
    errors: list[str] = []
    try:
        section = _convert(cls, data, where, base, errors)
    except _WrongType as exc:
        errors.append(f"{where or 'top level'}: {exc}")
    if errors:
        raise ConfigValidationError([Issue("error", message) for message in errors])
    return section
