"""Typed readers for the scenario JSON, and the one exception for bad input."""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, fields
from typing import Sequence


class ValidationError(Exception):
    """The input is at fault; the message names the JSON path, command-line
    flag, file or CSV line that is."""


def check_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValidationError(f"{path}: unknown field(s) {', '.join(unknown)}")


def require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ValidationError(f"{path}.{key}: missing")
    return obj[key]


def read_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    return value


def read_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{path}: expected true or false, got {value!r}")
    return value


def read_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{path}: expected a string, got {value!r}")
    return value


def read_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list")
    return value


def read_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected an object")
    return value


def read_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    return float(value)


def read_pair(value, path: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValidationError(f"{path}: expected [x, y]")
    return (read_number(value[0], f"{path}[0]"), read_number(value[1], f"{path}[1]"))


def check(ok: bool, path: str, rule: str, value) -> None:
    """Reject a value that breaks a range rule: `<path>: <rule>, got <value>`."""
    if not ok:
        raise ValidationError(f"{path}: {rule}, got {value!r}")


def check_one_of(value, choices: Sequence[str], path: str) -> None:
    """Reject a value not among `choices`: `<path>: must be a, b or c, got <value>`."""
    check(value in choices, path, f"must be {', '.join(choices[:-1])} or {choices[-1]}", value)


# the reader for each declared field type, and the JSON type it returns unchanged
_READERS = {"int": (read_int, int), "float": (read_number, None), "str": (read_str, str),
            "bool": (read_bool, bool), "tuple[float, float]": (read_pair, None)}


@functools.cache
def _field_specs(datacls, extra: tuple[str, ...]) -> tuple[set[str], tuple[tuple, ...]]:
    """The keys allowed beside `extra`, and (JSON key, field name, reader,
    exact type, optional, required) for each field of `datacls`; worked out once."""
    specs = []
    for f in fields(datacls):
        kind, _, optional = f.type.partition(" | ")
        specs.append((f.metadata.get("json", f.name), f.name, *_READERS[kind], bool(optional),
                      f.default is MISSING))
    return {key for key, *_ in specs} | set(extra), tuple(specs)


def read_fields(datacls, obj, path: str, extra: tuple[str, ...] = ()) -> dict:
    """Keyword arguments for the dataclass `datacls` from the JSON object `obj`.

    Each field is read by its declared type under its JSON key (the field
    name, or `metadata["json"]`). A field without a default must be present;
    an optional one (`X | None`) may be null. Keys other than the fields'
    and `extra` are rejected.
    """
    obj = read_object(obj, path)
    allowed, specs = _field_specs(datacls, extra)
    if not obj.keys() <= allowed:
        check_keys(obj, allowed, path)
    out = {}
    for key, name, reader, exact, optional, required in specs:
        if key in obj:
            value = obj[key]
            # exactly its field's type needs no reader: a bool is no int here
            if type(value) is not exact and (value is not None or not optional):
                value = reader(value, f"{path}.{key}")
            out[name] = value
        elif required:
            require(obj, key, path)
    return out
