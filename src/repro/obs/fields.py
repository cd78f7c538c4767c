"""The one strict reader of every JSON file the program reads.

Ledger rows, a run's ``run.json``, postmortems, trace JSONL rows and
the ``--faults``/``--chaos`` plan files are all read back through
:func:`check_object`: every key of the schema must be present, no other
key may appear, and each value must have its exact JSON type (a boolean
is not a number, a string of digits is not an integer). A fault raises
a one-line ``ValueError`` naming the key; callers prefix the file and
line or section. Nothing is coerced to a default, so a corrupt artifact
can never read as an idle run, and values come back as written, so a
payload read and written again is byte-identical. Plan files, whose
keys are optional, go through :func:`check_known`, and every
one-object file is opened by :func:`load_object`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar, cast

_T = TypeVar("_T")

_KINDS: dict[str, tuple[Callable[[object], bool], str]] = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool),
            "an integer"),
    "number": (lambda v: isinstance(v, (int, float))
               and not isinstance(v, bool), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "array": (lambda v: isinstance(v, list), "an array"),
}

_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               bool: "a boolean", int: "an integer", float: "a number",
               type(None): "null"}


def _check_value(value: object, kind: str, what: str) -> None:
    if kind.endswith("?"):
        if value is None:
            return
        kind = kind[:-1]
    if kind[0] in "{[":
        _check_value(value, "object" if kind[0] == "{" else "array", what)
        items = (value.items() if isinstance(value, dict)
                 else enumerate(cast(list[object], value)))
        for name, item in items:
            _check_value(item, kind[1:-1], f"{what} entry {name!r}")
        return
    test, expected = _KINDS[kind]
    if not test(value):
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise ValueError(f"{what} must be {expected}, got {got}")


def check_object(payload: object, schema: Mapping[str, str],
                 what: str = "payload") -> dict[str, Any]:
    """``payload`` itself, once it matches ``schema`` (key → kind).

    Every schema key is required and no other key may appear. A kind is
    ``int``, ``number``, ``str``, ``bool``, ``object`` or ``array``; a
    trailing ``?`` also allows ``null``, ``{k}`` is an object whose every
    value is of kind ``k`` and ``[k]`` an array whose every item is.
    """
    _check_value(payload, "object", what)
    checked = cast(dict[str, Any], payload)
    for key, kind in schema.items():
        if key not in checked:
            raise ValueError(f"missing key {key!r}")
        _check_value(checked[key], kind, f"key {key!r}")
    for key in sorted(checked):
        if key not in schema:
            raise ValueError(f"unexpected key {key!r}")
    return checked


def check_known(payload: object, schema: Mapping[str, str],
                what: str) -> dict[str, Any]:
    """``payload`` once each key it holds is a ``schema`` key of its kind.

    Unlike :func:`check_object` any key may be absent, so the reader's
    defaults apply; a key outside ``schema`` is an unknown ``what``
    field.
    """
    _check_value(payload, "object", what)
    checked = cast(dict[str, Any], payload)
    unknown = sorted(set(checked) - set(schema))
    if unknown:
        raise ValueError(f"unknown {what} field(s): {unknown}")
    return check_object(checked, {key: schema[key] for key in checked},
                        what)


def load_object(path: str | Path,
                parse: Callable[[dict[str, Any]], _T]) -> _T:
    """``parse`` of the JSON object held by the file at ``path``.

    A file that cannot be read, is empty, is not JSON or holds no
    object, and any ``ValueError`` from ``parse``, raises a one-line
    ``ValueError`` prefixed with the path.
    """
    file = Path(path)
    try:
        text = file.read_text(encoding="utf-8")
        if not text.strip():
            raise ValueError(f"empty {file.name}")
        payload = json.loads(text)
        if not isinstance(payload, dict):
            got = _JSON_NAMES.get(type(payload), type(payload).__name__)
            raise ValueError(f"{file.name} must be an object, got {got} "
                             "— expected one JSON object")
        return parse(payload)
    except OSError as exc:
        raise ValueError(f"{file}: cannot read {file.name} "
                         f"({exc.strerror or exc})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{file}: {file.name} is not valid JSON ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{file}: {exc}") from None
