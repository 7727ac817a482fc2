"""Data-encoding circuits mapping feature vectors to register states.

Two families:

* ``angle_y`` -- one RY(x_i) per qubit per repetition.  The induced
  fidelity kernel factorises as prod_i cos^2((x_i - x'_i) / 2).
* ``zz`` -- per repetition: H on every qubit, RZ(x_i) on qubit i, then
  for each entangled pair (i, j): CNOT(i, j), RZ((pi - x_i) * (pi - x_j))
  on j, CNOT(i, j).

Entanglement patterns: ``linear`` pairs (i, i+1); ``ring`` additionally
closes (n-1, 0) when n >= 3 (for n <= 2 the closing pair would duplicate
the only linear pair).  Inputs are expected pre-scaled to [0, pi] by the
dataset pipeline, but any finite angles are accepted.

``build_feature_circuit`` spells the map out gate by gate for
``run_circuit``, which applies each gate in its dense 2x2 form and is the
reference.  ``embed_rows`` simulates a whole row matrix at once, and is
what ``embed`` (its 1-row call) and the kernels use.  For zz it relies
on the identity CNOT(i, j) RZ_j(phi) CNOT(i, j) = diag(e^{-i phi/2},
e^{+i phi/2}) on the parity bit_i XOR bit_j: the CNOTs only permute
amplitudes, so each pair term is one diagonal phase, as is each RZ, and
one repetition is U_Phi(x) H^q with U_Phi(x) = D a diagonal.  D is built
once per row block as a Kronecker product, low qubit first: qubit q >= 1
enters by one multiply with a per-row 2x2 table over (bit q, bit q-1),
its RZ phase times the phase of the linear pair (q-1, q).  Only a ring's
closing pair (n-1, 0) is a multiply of the whole block: one broadcast
product, phase first, over a view with one axis for bit n-1 and one for
bit 0, so each amplitude is multiplied once, by its row's phase for the
parity of those two bits.  H^q|0...0> is 2^(-q/2) in every entry, so
the first repetition is Ds = D 2^(-q/2), and each later one is an
unnormalised Walsh-Hadamard transform (q add/subtract passes) followed
by one multiply by Ds.  Each amplitude gets element-wise operations
only, so a row's bytes do not depend on the block's row count.  The states agree with ``run_circuit`` and with
the layer-by-layer loop in ``tests/helpers.py`` to 1e-12 per amplitude,
and so do the fidelity kernel entries built from them, but not bit for
bit: the butterflies scale once at the end instead of by 1/sqrt(2) per
H gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import accel
from .artifacts import cast_fields
from .statevector import (
    MAX_QUBITS,
    Circuit,
    StateVector,
    cnot,
    h,
    ry,
    ry_matrices,
    run_circuit,  # not called here; tracing tools patch it by module and name
    rz,
    rz_phases,
    zero_rows,
)

ANGLE_Y = "angle_y"
ZZ = "zz"
_KINDS = (ANGLE_Y, ZZ)

LINEAR = "linear"
RING = "ring"
_PATTERNS = (LINEAR, RING)

_DEFAULT_REPS = {ANGLE_Y: 1, ZZ: 2}


@dataclass(frozen=True)
class FeatureMapSpec:
    """Feature-map family, register width, depth and entanglement layout.

    ``repetitions=None`` selects the family default (1 for angle_y,
    2 for zz).  ``entanglement`` only matters for the zz family.
    """

    kind: str
    num_qubits: int
    repetitions: Optional[int] = None
    entanglement: str = LINEAR

    def __post_init__(self):
        cast_fields(self, repetitions=1)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {self.num_qubits}")
        if self.repetitions is None:
            object.__setattr__(self, "repetitions", _DEFAULT_REPS[self.kind])
        if self.entanglement not in _PATTERNS:
            raise ValueError(f"unknown entanglement pattern {self.entanglement!r}")


def entangled_pairs(num_qubits: int, pattern: str) -> list:
    """Ordered (control, target) pairs for the given pattern."""
    pairs = [(i, i + 1) for i in range(num_qubits - 1)]
    if pattern == RING and num_qubits >= 3:
        pairs.append((num_qubits - 1, 0))
    return pairs


def check_rows(spec: FeatureMapSpec, rows) -> np.ndarray:
    """The rows as a float64 (n, num_qubits) matrix of finite values whose
    zz pair angles are finite too."""
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.num_qubits:
        raise ValueError(
            f"feature rows must be a 2-d matrix with {spec.num_qubits} "
            f"columns, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("feature rows contain non-finite values")
    # Only values of 1e150 or more can make a pair angle overflow.
    if spec.kind == ZZ and not np.all(np.abs(x) < 1e150):
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(_pair_angles(spec, x))):
                raise ValueError("zz pair angles (pi - x_i)(pi - x_j) overflow to inf")
    return x


def _pair_angles(spec: FeatureMapSpec, x: np.ndarray) -> np.ndarray:
    """Per row, (pi - x_i)(pi - x_j) of each pair (i, j) of ``entangled_pairs``."""
    pairs = entangled_pairs(spec.num_qubits, spec.entanglement)
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return (math.pi - x[:, i]) * (math.pi - x[:, j])


def build_feature_circuit(spec: FeatureMapSpec, x: Sequence) -> Circuit:
    """Encoding circuit for one feature vector."""
    vec = check_rows(spec, [x])[0]
    gates = []
    if spec.kind == ANGLE_Y:
        for _ in range(spec.repetitions):
            for q in range(spec.num_qubits):
                gates.append(ry(vec[q], q))
    else:
        pairs = entangled_pairs(spec.num_qubits, spec.entanglement)
        for _ in range(spec.repetitions):
            for q in range(spec.num_qubits):
                gates.append(h(q))
            for q in range(spec.num_qubits):
                gates.append(rz(vec[q], q))
            for i, j in pairs:
                gates.append(cnot(i, j))
                gates.append(rz((math.pi - vec[i]) * (math.pi - vec[j]), j))
                gates.append(cnot(i, j))
    return Circuit(spec.num_qubits, tuple(gates))


def _walsh_hadamard(states: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """H^q times 2^(q/2) on every row of `states`, out of place through
    the buffers `a` and `b`; returns the one holding the result.  Each of
    the q passes pairs the amplitudes on the lowest bit and writes their
    sum and difference to the top bit, so the other bits move down one
    place and after q passes every bit is back where it started.  This
    way round every write is contiguous."""
    rows, dim = states.shape
    for _ in range(dim.bit_length() - 1):
        out = b if states is a else a
        low = states.reshape(rows, dim >> 1, 2)
        top = out.reshape(rows, 2, dim >> 1)
        np.add(low[..., 0], low[..., 1], out=top[:, 0])
        np.subtract(low[..., 0], low[..., 1], out=top[:, 1])
        states = out
    return states


def embed_rows(spec: FeatureMapSpec, rows) -> np.ndarray:
    """States of every row of an (n, num_qubits) matrix as an (n, 2**q)
    block.  angle_y applies its RY layers to |0...0> rows, and row r
    equals ``run_circuit(build_feature_circuit(spec, rows[r]))`` bit for
    bit.  zz builds the diagonal D of one repetition once, as a
    Kronecker product that takes in each linear pair phase with its
    higher qubit's RZ phase, then multiplies in a ring's closing pair.
    It starts from Ds = D 2^(-q/2) and runs each later repetition as
    Walsh-Hadamard butterflies and one multiply by Ds; row r equals the
    gate path to 1e-12 per amplitude.  Either way a row's bytes do not
    depend on the other rows of the block."""
    x = check_rows(spec, rows)
    if spec.kind == ANGLE_Y:
        states = zero_rows(x.shape[0], spec.num_qubits)
        for _ in range(spec.repetitions):
            for q in range(spec.num_qubits):
                accel.apply_single_qubit_rows(states, q, ry_matrices(x[:, q]))
        return states
    n = x.shape[0]
    qubit_phases = rz_phases(x)
    pair_phases = rz_phases(_pair_angles(spec, x))
    # D, built low qubit first from qubit 0's phases.  Qubit q >= 1 comes
    # in by one multiply with a per-row table over (bit q, bit q-1): its
    # RZ phase times the phase of the linear pair (q-1, q) on their
    # parity.  np.multiply, not `*`: numpy may compute `a * <temporary>`
    # in the temporary's memory with the operands swapped once it is
    # large, and a complex product's last bit depends on their order.
    diag = qubit_phases[:, 0]
    for q in range(1, spec.num_qubits):
        pair = pair_phases[:, q - 1, accel.PARITY]
        table = np.multiply(qubit_phases[:, q, :, None], pair)
        diag = (table[..., None] * diag.reshape(n, 1, 2, -1)).reshape(n, -1)
    # The ring's closing pair (q-1, 0) is the only multiply of the block;
    # it and the scaling to Ds write in place, so D and Ds share one array.
    if pair_phases.shape[1] == spec.num_qubits:
        ring = diag.reshape(n, 2, -1, 2)
        np.multiply(pair_phases[:, -1, accel.PARITY].reshape(n, 2, 1, 2), ring, out=ring)
    states = scaled = np.multiply(2.0 ** (-spec.num_qubits / 2), diag, out=diag)
    if spec.repetitions > 1:
        a, b = np.empty_like(scaled), np.empty_like(scaled)
    for _ in range(1, spec.repetitions):
        mixed = _walsh_hadamard(states, a, b)
        # Ds first, into the spare buffer, and never Ds * <temporary>:
        # numpy may compute that in the temporary's memory with the
        # operands swapped, and a complex product's last bit depends on
        # their order.
        states = b if mixed is a else a
        np.multiply(scaled, mixed, out=states)
    return states


def embed(spec: FeatureMapSpec, x: Sequence) -> StateVector:
    """The encoded state of one feature vector."""
    return StateVector(spec.num_qubits, embed_rows(spec, [x])[0])
