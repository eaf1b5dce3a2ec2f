"""Checks on JSON input from files; each raises ValueError with a one-line reason.

The CLI maps ValueError to exit status 2, so a malformed config, scenario
or event is reported as bad input, never as a finding.
"""

from __future__ import annotations


def json_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def json_field(data: dict, key: str, where: str):
    """The value of a required key of a JSON object."""
    if key not in json_object(data, where):
        raise ValueError(f"{where} is missing {key!r}")
    return data[key]


def json_int(value, where: str) -> int:
    """A non-negative JSON integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{where} must be a non-negative integer, got {value!r}")
    return value


def json_text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where} must be text, got {value!r}")
    return value


def json_bool(value, where: str) -> bool:
    """A JSON boolean; text such as "false" is not one."""
    if not isinstance(value, bool):
        raise ValueError(f"{where} must be true or false, got {value!r}")
    return value


def json_list(value, where: str) -> list:
    """A JSON list; a tuple (a built-in default) passes too."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where} must be a JSON list, got {type(value).__name__}")
    return value


def json_names(value, where: str, known=None) -> tuple[str, ...]:
    """A list of non-empty strings, each one of ``known`` when given."""
    for name in json_list(value, where):
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where} must list non-empty strings, got {name!r}")
        if known is not None and name not in known:
            raise ValueError(f"{where} names unknown {name!r}; known: {', '.join(known)}")
    return tuple(value)


def json_keys(data, where: str, known) -> dict:
    """A JSON object whose every key is one of ``known``."""
    for key in json_object(data, where):
        if key not in known:
            raise ValueError(f"{where} has unknown key {key!r}; known: {', '.join(known)}")
    return data


def json_version(data: dict, where: str, expected: str) -> None:
    """An absent ``schema_version``, or the one this reader's writer emits."""
    version = data.get("schema_version", expected)
    if version != expected:
        raise ValueError(f"{where} schema_version must be {expected!r}, got {version!r}")
