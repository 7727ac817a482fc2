"""Fidelity kernel: k(x, x') = |<phi(x')|phi(x)>|^2 over feature-map states.

``embedding_matrix`` simulates the feature map, a block of rows at a time
(``accel.row_blocks``).  Every kernel here takes its states from one helper:
zz's (n, 2**q) statevectors, whose overlaps are BLAS products
(``accel.fidelity_gram``, ``accel.fidelity_cross``), or the q real one-qubit
states of angle_y's product state, each fidelity the square of a product of
q rank-2 products, with no 2**q array.  ``train_kernel`` embeds a train set
once for its Gram and its states, which ``cross_from_rows`` alone reads: it
refuses states of another map or qubit count and streams test rows against
them; ``gram_matrix`` and ``cross_kernel`` embed their rows themselves.
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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import accel
from .artifacts import canonical_json, read_json, write_bytes_atomic, write_text_atomic
from .feature_maps import ZZ, FeatureMapSpec, check_rows, embed, embed_rows  # tracing tools patch embed

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
    return float(cross_kernel(spec, [x], [x_prime])[0, 0])


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


def _states(spec: FeatureMapSpec, rows: np.ndarray) -> np.ndarray:
    """zz's (n, 2**q) statevectors, or angle_y's q real one-qubit states, (n, q, 2)."""
    if spec.kind == ZZ:
        return embedding_matrix(spec, rows)
    one = embedding_matrix(replace(spec, num_qubits=1), check_rows(spec, rows).reshape(-1, 1))
    return np.ascontiguousarray(one.real).reshape(-1, spec.num_qubits, 2)


def _fidelities(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """|<a_i|b_j>|^2 of two ``_states`` arrays into ``out``; of one-qubit states,
    the squared product over qubits of rank-2 products into one reused buffer."""
    out = np.empty((len(a), len(b))) if out is None else out
    if a.ndim == 2:
        return accel.fidelity_cross(a, b, out)
    np.matmul(a[:, 0], b[:, 0].T, out=out)
    factor = np.empty_like(out)
    for k in range(1, a.shape[1]):
        out *= np.matmul(a[:, k], b[:, k].T, out=factor)
    return np.square(out, out=out)


def train_kernel(spec: FeatureMapSpec, rows: np.ndarray):
    """(``_states``, Gram) of the train rows; the states are for ``cross_from_rows`` alone."""
    states = _states(spec, rows)
    entries = _clamp_unit(accel.fidelity_gram(states) if states.ndim == 2 else _fidelities(states, states))
    # Self-fidelity is exactly 1; drop the float noise of the matmul.
    np.fill_diagonal(entries, 1.0)
    return states, _owning(entries)


def cross_from_rows(spec: FeatureMapSpec, rows_test: np.ndarray,
                    train_states: np.ndarray, keep: Optional[np.ndarray] = None) -> np.ndarray:
    """Fidelities of every test row against ``train_kernel``'s states for the
    same spec (others are refused), the test rows embedded and compared one
    block at a time.  ``keep`` (ascending indices) first moves those states
    to the front of ``train_states`` in place, in ascending blocks that read
    only rows not yet overwritten, and the test rows meet that prefix alone."""
    shape = (1 << spec.num_qubits,) if spec.kind == ZZ else (spec.num_qubits, 2)
    if train_states.shape[1:] != shape:
        raise ValueError(f"train states of shape {train_states.shape} are not {spec.kind} states of "
                         f"a {spec.num_qubits}-qubit register, whose rows have shape {shape}")
    if keep is not None:
        for block in accel.row_blocks(len(keep), train_states.shape[1]):
            train_states[block] = train_states[keep[block]]
        train_states = train_states[: len(keep)]
    rows = check_rows(spec, rows_test)
    out = np.empty((len(rows), len(train_states)))
    for block in accel.row_blocks(len(rows), max(train_states.shape)):
        _fidelities(_states(spec, rows[block]), train_states, out[block])
    return _clamp_unit(out)


def gram_matrix(spec: FeatureMapSpec, rows: np.ndarray) -> GramMatrix:
    """All pairwise fidelities for one row set."""
    return train_kernel(spec, rows)[1]


def cross_kernel(
    spec: FeatureMapSpec, rows_test: np.ndarray, rows_train: np.ndarray
) -> np.ndarray:
    """Fidelities of every test row against every train row."""
    return cross_from_rows(spec, rows_test, _states(spec, rows_train))


def kernel_bytes(spec: FeatureMapSpec, n_train: int, n_test: int = 0) -> int:
    """Peak bytes of ``train_kernel``, the Gram's release and ``cross_from_rows(..., keep)``:
    its states (q pairs of reals a row for angle_y) and the embedding's blocks, plus the larger
    phase: the Gram and its imaginary part or factor, or all n_train cross columns of n_test rows
    (the support count is known after SMO) and one test block, conjugated, with its products."""
    dim = 1 << spec.num_qubits if spec.kind == ZZ else spec.num_qubits
    rows = _largest_block(n_test, max(dim, n_train))
    block = max(_largest_block(n, 4 * dim) for n in (n_train, rows))
    return 16 * dim * (n_train + 8 * block) + max(
        16 * n_train**2, 8 * n_train * n_test + rows * (16 * dim + 24 * n_train))


def _largest_block(n, width):
    return max((b.stop - b.start for b in accel.row_blocks(n, width)), default=0)


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
