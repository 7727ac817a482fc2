"""Fidelity kernel: k(x, x') = |<phi(x')|phi(x)>|^2 over feature-map states.

``embedding_matrix`` simulates the feature map for a whole row matrix, a
block of rows at a time (``accel.row_blocks``); all pairwise overlaps of
the states are then evaluated by BLAS products (``accel.fidelity_gram``,
``accel.fidelity_cross``).  ``gram_from_states`` and ``cross_from_states``
work on states already embedded, so one embedding of a train set feeds
both its Gram matrix and a test-by-train cross kernel.  ``cross_from_rows``
embeds test rows one block at a time against embedded train states, so the
test states are never all held, and conjugates each block in place for its
product; ``gram_matrix`` and ``cross_kernel`` embed their rows themselves.
Entries are clamped to [0, 1]; drift beyond CLAMP_TOL outside that
interval, or a NaN, indicates a broken embedding and raises.

Gram matrices can be exported to a small binary container (magic
``QKGM``) with a JSON sidecar carrying the feature-map description and
content hashes, so a cached kernel can be verified before reuse: one
read, hashed, then the header check ``load_gram`` runs too.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import accel
from .artifacts import canonical_json, read_json, write_bytes_atomic, write_text_atomic
from .feature_maps import FeatureMapSpec, check_rows, embed, embed_rows

CLAMP_TOL = 1e-9
PSD_TOL = -1e-8

_MAGIC = b"QKGM"
_VERSION = 1
_HEADER = struct.Struct("<4sIQ")  # magic, version, row count n


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric fidelity matrix over one set of rows."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"gram matrix must be square, got shape {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _owning(entries: np.ndarray) -> GramMatrix:
    """A read-only GramMatrix over a fresh square array no caller holds, uncopied."""
    entries.flags.writeable = False
    gram = object.__new__(GramMatrix)
    object.__setattr__(gram, "entries", entries)
    return gram


def kernel_entry(spec: FeatureMapSpec, x: Sequence, x_prime: Sequence) -> float:
    """Single fidelity value between two feature vectors."""
    a = embed(spec, x).amplitudes[None]
    b = embed(spec, x_prime).amplitudes[None]
    return float(cross_from_states(a, b)[0, 0])


def _clamp_unit(values: np.ndarray) -> np.ndarray:
    """Clamp ``values`` to [0, 1] in place; error out when anything drifts
    past CLAMP_TOL or is NaN (a NaN min or max fails both comparisons).
    An empty matrix passes as it is."""
    low, high = (float(values.min()), float(values.max())) if values.size else (0.0, 0.0)
    if not (low >= -CLAMP_TOL and high <= 1.0 + CLAMP_TOL):
        raise ValueError(
            f"fidelity outside [0, 1] beyond tolerance {CLAMP_TOL}: "
            f"range [{low}, {high}]"
        )
    return np.clip(values, 0.0, 1.0, out=values)


def embedding_matrix(spec: FeatureMapSpec, rows: np.ndarray) -> np.ndarray:
    """Embed every row once; returns an (n, 2**q) complex matrix."""
    rows = check_rows(spec, rows)
    n = rows.shape[0]
    if n == 0:
        raise ValueError("no rows to embed")
    out = np.empty((n, 1 << spec.num_qubits), dtype=np.complex128)
    for block in accel.row_blocks(n, 4 << spec.num_qubits):
        out[block] = embed_rows(spec, rows[block])
    return out


def gram_from_states(states: np.ndarray) -> GramMatrix:
    """All pairwise fidelities of one (n, 2**q) state matrix."""
    entries = _clamp_unit(accel.fidelity_gram(states))
    # Self-fidelity is exactly 1; drop the float noise of the matmul.
    np.fill_diagonal(entries, 1.0)
    return _owning(entries)


def cross_from_states(test_states: np.ndarray, train_states: np.ndarray) -> np.ndarray:
    """Fidelities of every test state against every train state."""
    if test_states.shape[1] != train_states.shape[1]:
        raise ValueError("test and train rows use different register widths")
    return _clamp_unit(accel.fidelity_cross(test_states, train_states))


def cross_from_rows(spec: FeatureMapSpec, rows_test: np.ndarray,
                    train_states: np.ndarray) -> np.ndarray:
    """Fidelities of every test row against every train state, the test
    rows embedded and compared one block at a time."""
    rows = check_rows(spec, rows_test)
    out = np.empty((len(rows), len(train_states)))
    for block in accel.row_blocks(len(rows), max(train_states.shape)):
        accel.fidelity_cross(embedding_matrix(spec, rows[block]), train_states, out[block])
    return _clamp_unit(out)


def gram_matrix(spec: FeatureMapSpec, rows: np.ndarray) -> GramMatrix:
    """All pairwise fidelities for one row set."""
    return gram_from_states(embedding_matrix(spec, rows))


def cross_kernel(
    spec: FeatureMapSpec, rows_test: np.ndarray, rows_train: np.ndarray
) -> np.ndarray:
    """Fidelities of every test row against every train row."""
    return cross_from_rows(spec, rows_test, embedding_matrix(spec, rows_train))


def kernel_bytes(spec: FeatureMapSpec, n_train: int, n_test: int = 0) -> int:
    """Peak bytes of the kernel path: train states and the embedding's own
    blocks, plus the larger phase (the Gram is released before the test
    rows stream): the Gram and its imaginary part, or the cross kernel and
    one block of test rows, conjugated in place, with their products."""
    dim = 1 << spec.num_qubits
    rows = _largest_block(n_test, max(dim, n_train))
    embed = max(_largest_block(n, 4 * dim) for n in (n_train, rows))
    return 16 * dim * (n_train + 8 * embed) + max(
        16 * n_train**2, 8 * n_train * n_test + rows * (16 * dim + 24 * n_train))


def _largest_block(n, width):
    return max(b.stop - b.start for b in accel.row_blocks(n, width))


def check_psd(gram: GramMatrix) -> float:
    """Smallest eigenvalue (symmetric matrices only)."""
    return float(np.linalg.eigvalsh(gram.entries)[0])


def matrix_sha256(rows: np.ndarray) -> str:
    """Content hash of a float64 row-major matrix."""
    arr = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(str(arr.shape).encode())
    digest.update(arr)
    return digest.hexdigest()


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta")


def save_gram(
    path,
    gram: GramMatrix,
    spec: FeatureMapSpec,
    input_sha256: Optional[str] = None,
) -> Path:
    """Write the binary container and its JSON sidecar.

    Layout: magic ``QKGM``, little-endian uint32 version (1), uint64 row
    count n, then n*n float64 entries row-major.  The sidecar records the
    feature-map fields, the hash of the source row matrix (when given)
    and the hash of the container file itself.
    """
    path = Path(path)
    blob = bytearray(_HEADER.size + 8 * gram.size**2)
    _HEADER.pack_into(blob, 0, _MAGIC, _VERSION, gram.size)
    np.frombuffer(blob, "<f8", offset=_HEADER.size).reshape(gram.entries.shape)[...] = gram.entries
    write_bytes_atomic(path, blob)
    meta = {
        "format": _MAGIC.decode(),
        "version": _VERSION,
        "n": gram.size,
        "feature_map": asdict(spec),
        "input_sha256": input_sha256,
        "file_sha256": hashlib.sha256(blob).hexdigest(),
    }
    sidecar = _sidecar_path(path)
    write_text_atomic(sidecar, canonical_json(meta))
    return sidecar


def _row_count(path: Path, raw: bytes) -> int:
    """Row count of the QKGM bytes ``raw`` after checking magic, version and length."""
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a QKGM file (bad magic {raw[:4]!r})")
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated QKGM header ({len(raw)} bytes, expected {_HEADER.size})")
    _, version, n = _HEADER.unpack_from(raw)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported QKGM version {version}")
    expected = _HEADER.size + 8 * n * n
    if len(raw) != expected:
        raise ValueError(
            f"{path}: truncated or padded QKGM file "
            f"({len(raw)} bytes, expected {expected})"
        )
    return n


def load_gram(path) -> GramMatrix:
    """Read a QKGM container (no sidecar verification)."""
    path = Path(path)
    raw = path.read_bytes()
    n = _row_count(path, raw)
    return _owning(np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(n, n))


def verify_gram(path) -> dict:
    """Check the container against its sidecar hashes; returns metadata.

    Raises ValueError on a missing or malformed sidecar, hash mismatch or
    malformed container, so any tampered byte is caught before use.
    """
    path = Path(path)
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise ValueError(f"{path}: missing sidecar {sidecar.name}")
    meta = read_json(sidecar)
    fm = meta.get("feature_map") if isinstance(meta, dict) else None
    if not (isinstance(fm, dict) and isinstance(fm.get("kind"), str)
            and {"file_sha256", "n"} <= meta.keys()):
        raise ValueError(f"{sidecar}: not a QKGM sidecar with file_sha256, n and a feature_map kind")
    raw = path.read_bytes()
    actual = hashlib.sha256(raw).hexdigest()
    if actual != meta["file_sha256"]:
        raise ValueError(
            f"{path}: hash mismatch (sidecar {meta['file_sha256']}, file {actual})"
        )
    n = _row_count(path, raw)
    if n != meta["n"]:
        raise ValueError(f"{path}: sidecar row count {meta['n']} != container {n}")
    return meta
