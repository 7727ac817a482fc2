"""Deterministic artifact writing.

Every file the CLI produces goes through a temp-file-then-rename in the
destination directory, so a crash never leaves a half-written artifact
and reruns with identical inputs produce byte-identical outputs
(canonical JSON: sorted keys, repr-exact floats).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path


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


def config_sha256(obj) -> str:
    """Hash of the canonical JSON form of a resolved configuration."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def require_fields(cls, doc: dict, optional=()) -> None:
    """Raise KeyError unless ``doc`` names every field of the dataclass
    ``cls`` that is not ``optional``; ``cls(**doc)`` would fill defaults."""
    missing = sorted({f.name for f in fields(cls)} - set(doc) - set(optional))
    if missing:
        raise KeyError(f"{cls.__name__} document lacks {', '.join(missing)}")
