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
only the H layers mix amplitudes.  The first H layer acts on |0...0>
and leaves one amplitude in every entry, so the first repetition starts
from a product state: that amplitude times the Kronecker product of the
RZ phases.  Each amplitude still gets the same floating-point operations
in the same order as applying the layers one by one, so the states are
bit for bit those of the layer-by-layer loop, and of ``run_circuit``
except for the sign of an amplitude part that is exactly zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import accel
from .statevector import (
    MAX_QUBITS,
    Circuit,
    StateVector,
    cnot,
    h,
    run_circuit,  # not called here; tracing tools patch it by module and name
    ry,
    ry_layer_rows,
    rz,
    rz_phases,
    single_qubit_matrix,
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
        if self.kind not in _KINDS:
            raise ValueError(f"unknown feature map kind {self.kind!r}")
        n = int(self.num_qubits)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {n}")
        object.__setattr__(self, "num_qubits", n)
        reps = self.repetitions
        if reps is None:
            reps = _DEFAULT_REPS[self.kind]
        reps = int(reps)
        if reps < 1:
            raise ValueError(f"repetitions must be >= 1, got {reps}")
        object.__setattr__(self, "repetitions", reps)
        if self.entanglement not in _PATTERNS:
            raise ValueError(f"unknown entanglement pattern {self.entanglement!r}")


def entangled_pairs(num_qubits: int, pattern: str) -> list:
    """Ordered (control, target) pairs for the given pattern."""
    pairs = [(i, i + 1) for i in range(num_qubits - 1)]
    if pattern == RING and num_qubits >= 3:
        pairs.append((num_qubits - 1, 0))
    return pairs


def _check_features(spec: FeatureMapSpec, x: Sequence) -> np.ndarray:
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != spec.num_qubits:
        raise ValueError(
            f"feature vector must have length {spec.num_qubits}, "
            f"got shape {vec.shape}"
        )
    if not np.all(np.isfinite(vec)):
        raise ValueError("feature vector contains non-finite values")
    return vec


def check_rows(spec: FeatureMapSpec, rows) -> np.ndarray:
    """The rows as a float64 (n, num_qubits) matrix of finite values."""
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.num_qubits:
        raise ValueError(
            f"feature rows must be a 2-d matrix with {spec.num_qubits} "
            f"columns, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("feature rows contain non-finite values")
    return x


def build_feature_circuit(spec: FeatureMapSpec, x: Sequence) -> Circuit:
    """Encoding circuit for one feature vector."""
    vec = _check_features(spec, x)
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


def _hadamard_layer(states: np.ndarray) -> None:
    hadamard = single_qubit_matrix(h(0))
    for q in range(states.shape[1].bit_length() - 1):
        accel.apply_single_qubit_rows(states, q, hadamard)


@functools.lru_cache(maxsize=None)
def _plus_amplitude(num_qubits: int) -> complex:
    """The amplitude that every entry of H^q|0...0> gets from the dense
    kernel: each H step adds an exact zero to the product, so there is
    one."""
    plus = zero_rows(1, num_qubits)
    _hadamard_layer(plus)
    return complex(plus[0, 0])


def embed_rows(spec: FeatureMapSpec, rows) -> np.ndarray:
    """States of every row of an (n, num_qubits) matrix as an (n, 2**q)
    block.  Every amplitude gets the floating-point operations of applying
    the circuit layer by layer to |0...0> rows, in the same order, so
    row r equals ``run_circuit(build_feature_circuit(spec, rows[r]))`` bit
    for bit, except that an amplitude part that is exactly zero (a
    feature exactly 0 or pi can cause one) may carry the other sign."""
    x = check_rows(spec, rows)
    if spec.kind == ANGLE_Y:
        states = zero_rows(x.shape[0], spec.num_qubits)
        for _ in range(spec.repetitions):
            ry_layer_rows(states, x)
        return states
    qubit_phases = rz_phases(x)
    pairs = entangled_pairs(spec.num_qubits, spec.entanglement)
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    pair_phases = rz_phases((math.pi - x[:, i]) * (math.pi - x[:, j]))
    # H on |0...0> gives every entry the same amplitude, so the first RZ
    # layer is that amplitude times the Kronecker product of the qubit
    # phases, built low qubit first.
    states = np.full((1, 1), _plus_amplitude(spec.num_qubits))
    for q in range(spec.num_qubits):
        phase = qubit_phases[:, q]
        states = np.concatenate([phase[:, :1] * states, phase[:, 1:] * states], axis=1)
    for rep in range(spec.repetitions):
        if rep:
            _hadamard_layer(states)
            for q in range(spec.num_qubits):
                accel.apply_parity_phase_rows(states, (q,), qubit_phases[:, q])
        for p, pair in enumerate(pairs):
            accel.apply_parity_phase_rows(states, pair, pair_phases[:, p])
    return states


def embed(spec: FeatureMapSpec, x: Sequence) -> StateVector:
    """The encoded state of one feature vector."""
    vec = _check_features(spec, x)
    return StateVector(spec.num_qubits, embed_rows(spec, vec[None])[0])
