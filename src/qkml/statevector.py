"""Dense statevector simulator for small qubit registers.

Basis convention: computational basis state ``|b_{n-1} ... b_1 b_0>`` is
stored at amplitude index ``sum_q b_q * 2**q``, i.e. qubit 0 is the least
significant bit of the index.  Gates act by unitary application on
complex128 amplitudes.  ``StateVector`` is immutable: ``apply_gate`` and
``run_circuit`` return a new state.  The row-block functions at the end
simulate many registers of one width at once, in place; ``run_circuit``
is their 1-row case, applying each gate in its dense form, and serves as
the gate-level reference for the embedding shortcuts built on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import accel

MAX_QUBITS = 20

H = "h"
RX = "rx"
RY = "ry"
RZ = "rz"
CNOT = "cnot"
CZ = "cz"

_ROTATIONS = (RX, RY, RZ)
_TWO_QUBIT = (CNOT, CZ)
_KINDS = (H,) + _ROTATIONS + _TWO_QUBIT

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    """One gate instance: kind, target qubit(s) and optional angle.

    ``targets`` holds (qubit,) for single-qubit kinds and
    (control, target) for cnot / (qubit, qubit) for cz.  Rotation kinds
    carry an angle in radians; the others must not.
    """

    kind: str
    targets: tuple
    angle: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        want = 2 if self.kind in _TWO_QUBIT else 1
        if len(targets) != want:
            raise ValueError(
                f"{self.kind} gate takes {want} qubit(s), got {len(targets)}"
            )
        if len(set(targets)) != len(targets):
            raise ValueError(f"{self.kind} gate targets must be distinct: {targets}")
        if any(t < 0 for t in targets):
            raise ValueError(f"negative qubit index in {targets}")
        if self.kind in _ROTATIONS:
            if self.angle is None:
                raise ValueError(f"{self.kind} gate requires an angle")
            angle = float(self.angle)
            if not math.isfinite(angle):
                raise ValueError(f"{self.kind} angle must be finite, got {angle!r}")
            object.__setattr__(self, "angle", angle)
        elif self.angle is not None:
            raise ValueError(f"{self.kind} gate takes no angle")


def h(qubit: int) -> Gate:
    return Gate(H, (qubit,))


def rx(angle: float, qubit: int) -> Gate:
    return Gate(RX, (qubit,), angle)


def ry(angle: float, qubit: int) -> Gate:
    return Gate(RY, (qubit,), angle)


def rz(angle: float, qubit: int) -> Gate:
    return Gate(RZ, (qubit,), angle)


def cnot(control: int, target: int) -> Gate:
    return Gate(CNOT, (control, target))


def cz(a: int, b: int) -> Gate:
    return Gate(CZ, (a, b))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed-width register."""

    num_qubits: int
    gates: tuple = ()

    def __post_init__(self):
        n = int(self.num_qubits)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {n}")
        object.__setattr__(self, "num_qubits", n)
        gates = tuple(self.gates)
        for g in gates:
            if not isinstance(g, Gate):
                raise TypeError(f"expected Gate, got {type(g).__name__}")
            if max(g.targets) >= n:
                raise ValueError(
                    f"gate {g.kind} targets {g.targets} out of range for "
                    f"{n} qubit(s)"
                )
        object.__setattr__(self, "gates", gates)


@dataclass(frozen=True)
class StateVector:
    """Immutable register state: 2**num_qubits complex128 amplitudes."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubit(s), got shape {amps.shape}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def init_zero(num_qubits: int) -> StateVector:
    """Prepare |0...0>."""
    return StateVector(num_qubits, zero_rows(1, num_qubits)[0])


def single_qubit_matrix(gate: Gate) -> np.ndarray:
    """2x2 unitary for a single-qubit gate."""
    if gate.kind == H:
        return np.array(
            [[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=np.complex128
        )
    if gate.kind == RY:
        return ry_matrices(gate.angle)
    if gate.kind == RZ:
        return np.diag(rz_phases(gate.angle))
    if gate.kind == RX:
        half = gate.angle / 2.0
        c, s = math.cos(half), math.sin(half)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    raise ValueError(f"{gate.kind} has no single-qubit matrix")


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate, returning the new state."""
    return run_circuit(Circuit(state.num_qubits, (gate,)), state)


def run_circuit(circuit: Circuit, state: Optional[StateVector] = None) -> StateVector:
    """Apply every gate of the circuit in order, starting from |0...0>
    when no initial state is given."""
    if state is None:
        states = zero_rows(1, circuit.num_qubits)
    elif state.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"circuit acts on {circuit.num_qubits} qubit(s) but state has "
            f"{state.num_qubits}"
        )
    else:
        states = state.amplitudes[None].copy()
    run_circuit_rows(circuit, states)
    return StateVector(circuit.num_qubits, states[0])


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>; raises on register width mismatch."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"inner product of {a.num_qubits}- and {b.num_qubits}-qubit states"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def z_expectation(state: StateVector, qubit: int) -> float:
    """<Z_qubit>: +1 weight on basis states with the bit clear, -1 set."""
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.num_qubits}")
    return float(z_expectation_rows(state.amplitudes[None])[0, qubit])


# -- row blocks ---------------------------------------------------------------
#
# Many registers of one width at once: an (rows, 2**n) complex128 block with
# one state per row, updated in place by the gate kernels in ``accel``.  A
# row ends up bit for bit equal to the same gates run by ``run_circuit`` on
# that row alone (``accel`` notes the one exception for phase shortcuts,
# the sign of an exact zero).  Callers simulate long row sets in blocks of
# ``accel.row_blocks`` at 4 entries an amplitude (2^14 amplitudes, 256 KiB).


def zero_rows(rows: int, num_qubits: int) -> np.ndarray:
    """A block of ``rows`` copies of |0...0>."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
    states = np.zeros((rows, 1 << num_qubits), dtype=np.complex128)
    states[:, 0] = 1.0
    return states


def ry_matrices(angles) -> np.ndarray:
    """RY unitaries, shape ``angles.shape + (2, 2)``; ``single_qubit_matrix``
    builds its RY from this and its RZ from ``rz_phases``."""
    half = np.asarray(angles, dtype=np.float64) / 2.0
    c = np.cos(half)
    s = np.sin(half)
    u = np.stack([c, -s, s, c], axis=-1).astype(np.complex128)
    return u.reshape(half.shape + (2, 2))


def rz_phases(angles) -> np.ndarray:
    """Diagonals of RZ unitaries, shape ``angles.shape + (2,)``: the phase
    on bit value 0, then on bit value 1."""
    half = np.asarray(angles, dtype=np.float64) / 2.0
    c = np.cos(half)
    s = np.sin(half)
    phases = np.empty(half.shape + (2,), dtype=np.complex128)
    phases.real = c[..., None]
    phases.imag[..., 0] = -s
    phases.imag[..., 1] = s
    return phases


def ry_layer_rows(states: np.ndarray, angles: np.ndarray) -> None:
    """RY(angles[r, q]) on qubit q of row r, for every qubit, in place."""
    for q in range(angles.shape[1]):
        accel.apply_single_qubit_rows(states, q, ry_matrices(angles[:, q]))


def run_circuit_rows(circuit: Circuit, states: np.ndarray) -> None:
    """Apply every gate of the circuit to each row of the block, in place."""
    if states.ndim != 2 or states.shape[1] != 1 << circuit.num_qubits:
        raise ValueError(
            f"expected a (rows, {1 << circuit.num_qubits}) block, got shape "
            f"{states.shape}"
        )
    for gate in circuit.gates:
        if gate.kind == CNOT:
            accel.apply_cnot_rows(states, *gate.targets)
        elif gate.kind == CZ:
            accel.apply_cz_rows(states, *gate.targets)
        else:
            accel.apply_single_qubit_rows(
                states, gate.targets[0], single_qubit_matrix(gate)
            )


def z_expectation_rows(states: np.ndarray) -> np.ndarray:
    """(rows, n) matrix of <Z_q> for every row and qubit: the sum of the
    basis probabilities, +1 weighted where bit q is clear and -1 where set."""
    dim = states.shape[1]
    idx = np.arange(dim)
    qubits = np.arange(dim.bit_length() - 1)
    signs = 1.0 - 2.0 * ((idx >> qubits[:, None]) & 1)
    probs = np.abs(states) ** 2
    return np.vecdot(probs[:, None, :], signs)
