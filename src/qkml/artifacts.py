"""Deterministic artifact writing, model documents, and the config casting rule.

Every file the CLI produces goes through a temp-file-then-rename in the
destination directory, so a crash never leaves a half-written artifact
and reruns with identical inputs produce byte-identical outputs
(canonical JSON: sorted keys, repr-exact floats).
"""

from __future__ import annotations

import functools
import hashlib
import json
import numbers
import os
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints


def write_bytes_atomic(path, data: bytes) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_text_atomic(path, text: str) -> Path:
    return write_bytes_atomic(path, text.encode("utf-8"))


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json_atomic(path, obj) -> Path:
    return write_text_atomic(path, canonical_json(obj))


def to_document(kind: str, version: int = 1, **body) -> str:
    """A qkml-``kind`` model document of any version: sorted keys on one
    compact line, which json writes in C.  Readers take any whitespace, so
    indented documents of earlier releases still load."""
    doc = {"format": f"qkml-{kind}", "version": version, **body}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def from_document(text: str, kind: str, versions=(1,)) -> dict:
    doc = json.loads(text)
    if not (isinstance(doc, dict) and doc.get("format") == f"qkml-{kind}"
            and doc.get("version") in versions):
        raise ValueError(f"not a qkml-{kind} version {' or '.join(map(str, versions))} document")
    return doc


def read_json(path):
    """The JSON document in the file ``path``.  A file that is not UTF-8
    JSON raises ValueError naming it; a missing one, FileNotFoundError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None


def config_sha256(obj) -> str:
    """Hash of the canonical JSON form of a resolved configuration."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


_WANT = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def cast_value(kind, value, name: str):
    """``value`` as ``kind``, the one casting rule for config values: an int
    takes an integer, an integral float or an integer numeral such as "4";
    a float any int, float or numeral; neither takes a bool; a bool takes
    only True or False and a str only a string.  ``Optional[kind]`` also
    takes None, and ``list[kind]`` or ``Tuple[kind, ...]`` a list or tuple
    cast element by element.  Anything else raises ValueError naming ``name``."""
    nullable = get_origin(kind) is Union
    if nullable:
        if value is None:
            return None
        kind = get_args(kind)[0]
    if get_origin(kind) in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list{' or null' * nullable}, got {value!r}")
        return get_origin(kind)(cast_value(get_args(kind)[0], v, name) for v in value)
    try:
        if isinstance(value, str) and kind in (int, float):
            return kind(value)
        if kind in (bool, str):
            ok = isinstance(value, kind)
        else:
            ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and (
                kind is float or isinstance(value, numbers.Integral) or float(value).is_integer()
            )
        if ok:
            return kind(value)
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be {_WANT[kind]}{' or null' * nullable}, got {value!r}")


@functools.lru_cache(maxsize=None)
def field_kinds(cls) -> dict:
    """The resolved type hints of the class ``cls``, resolved once per
    class; callers must not change the dict."""
    return get_type_hints(cls)


def cast_fields(obj, **minimum) -> None:
    """Cast every field of the frozen dataclass instance ``obj`` to its
    annotated kind with ``cast_value``, then refuse a field named in
    ``minimum`` whose value is below it (None passes)."""
    for name, kind in field_kinds(type(obj)).items():
        object.__setattr__(obj, name, cast_value(kind, getattr(obj, name), name))
    for name, low in minimum.items():
        value = getattr(obj, name)
        if value is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def require_fields(cls, doc: dict, optional=()) -> None:
    """Refuse ``doc`` as the fields of the dataclass ``cls``: ValueError
    unless it is an object whose keys all name fields, KeyError unless it
    names every field not in ``optional`` (``cls(**doc)`` would fill in a
    default)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} document must be an object, got {doc!r}")
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(doc) - names)
    if unknown:
        raise ValueError(f"{cls.__name__} document has unknown key(s) {unknown}")
    missing = sorted(names - set(doc) - set(optional))
    if missing:
        raise KeyError(f"{cls.__name__} document lacks {', '.join(missing)}")
