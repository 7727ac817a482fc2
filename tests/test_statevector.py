"""Simulator: gate semantics, invariants, and the full-matrix oracle."""

import numpy as np
import pytest

from qkml import accel
from qkml import statevector as sv

import helpers

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_init_zero_one_qubit():
    state = sv.init_zero(1)
    np.testing.assert_array_equal(state.amplitudes, [1.0 + 0.0j, 0.0])


def test_init_zero_two_qubits():
    state = sv.init_zero(2)
    np.testing.assert_array_equal(state.amplitudes, [1.0, 0.0, 0.0, 0.0])


def test_init_zero_norm():
    assert sv.init_zero(3).norm() == 1.0


@pytest.mark.parametrize("bad", [0, -1, 21])
def test_init_zero_rejects_bad_counts(bad):
    with pytest.raises(ValueError):
        sv.init_zero(bad)


def test_hadamard_on_zero():
    state = sv.apply_gate(sv.init_zero(1), sv.h(0))
    np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)


def test_ry_pi_flips_to_one():
    state = sv.apply_gate(sv.init_zero(1), sv.ry(np.pi, 0))
    np.testing.assert_allclose(state.amplitudes, [0.0, 1.0], atol=1e-12)


def test_cnot_on_basis_state():
    # |10> means qubit 0 set (LSB): index 1.  CNOT(0,1) flips qubit 1 -> index 3.
    amps = np.zeros(4, dtype=np.complex128)
    amps[1] = 1.0
    state = sv.StateVector(2, amps)
    out = sv.apply_gate(state, sv.cnot(0, 1))
    np.testing.assert_array_equal(out.amplitudes, [0.0, 0.0, 0.0, 1.0])


def test_apply_gate_rejects_out_of_range_target():
    with pytest.raises(ValueError):
        sv.apply_gate(sv.init_zero(1), sv.h(1))


def test_rotation_requires_angle():
    with pytest.raises(ValueError):
        sv.Gate("ry", (0,))


def test_non_rotation_rejects_angle():
    with pytest.raises(ValueError):
        sv.Gate("h", (0,), 0.5)


def test_empty_circuit_is_identity():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = sv.StateVector(2, amps)
    out = sv.run_circuit(sv.Circuit(2), state)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_double_hadamard_returns_input():
    circuit = sv.Circuit(1, (sv.h(0), sv.h(0)))
    out = sv.run_circuit(circuit)
    np.testing.assert_allclose(out.amplitudes, [1.0, 0.0], atol=1e-12)


def test_bell_state():
    circuit = sv.Circuit(2, (sv.h(0), sv.cnot(0, 1)))
    out = sv.run_circuit(circuit)
    np.testing.assert_allclose(
        out.amplitudes, [INV_SQRT2, 0.0, 0.0, INV_SQRT2], atol=1e-12
    )


def test_run_circuit_rejects_qubit_mismatch():
    with pytest.raises(ValueError):
        sv.run_circuit(sv.Circuit(2), sv.init_zero(1))


def test_inner_product_self_is_one():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = sv.StateVector(3, amps)
    assert sv.inner_product(state, state) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_inner_product_orthogonal_basis():
    one = sv.apply_gate(sv.init_zero(1), sv.ry(np.pi, 0))
    assert sv.inner_product(sv.init_zero(1), one) == pytest.approx(0.0, abs=1e-12)


def test_inner_product_with_plus_state():
    plus = sv.apply_gate(sv.init_zero(1), sv.h(0))
    assert sv.inner_product(sv.init_zero(1), plus) == pytest.approx(
        INV_SQRT2, abs=1e-12
    )


def test_inner_product_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        sv.inner_product(sv.init_zero(1), sv.init_zero(2))


def test_z_expectation_zero_state():
    assert sv.z_expectation(sv.init_zero(1), 0) == 1.0


def test_z_expectation_one_state():
    one = sv.apply_gate(sv.init_zero(1), sv.ry(np.pi, 0))
    assert sv.z_expectation(one, 0) == pytest.approx(-1.0, abs=1e-12)


def test_z_expectation_plus_state():
    plus = sv.apply_gate(sv.init_zero(1), sv.h(0))
    assert sv.z_expectation(plus, 0) == pytest.approx(0.0, abs=1e-12)


def test_z_expectation_rejects_bad_qubit():
    with pytest.raises(ValueError):
        sv.z_expectation(sv.init_zero(2), 2)


def test_gate_inverses_return_input():
    rng = np.random.default_rng(21)
    for _ in range(20):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = sv.StateVector(3, amps)
        theta = float(rng.uniform(0, 2 * np.pi))
        pairs = [
            (sv.h(1), sv.h(1)),
            (sv.ry(theta, 0), sv.ry(-theta, 0)),
            (sv.cnot(2, 0), sv.cnot(2, 0)),
        ]
        for fwd, back in pairs:
            out = sv.apply_gate(sv.apply_gate(state, fwd), back)
            np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-10)


def test_norm_preserved_on_random_circuits():
    rng = np.random.default_rng(5)
    for _ in range(5):
        circuit = helpers.random_circuit(rng, 10, 50)
        out = sv.run_circuit(circuit)
        assert abs(out.norm() - 1.0) < 1e-9


def test_matches_explicit_matrix_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        circuit = helpers.random_circuit(rng, n, int(rng.integers(1, 12)))
        got = sv.run_circuit(circuit).amplitudes
        want = helpers.brute_run(circuit)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_statevector_amplitudes_read_only():
    state = sv.init_zero(2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


# -- row blocks ------------------------------------------------------------------


def test_zero_rows_and_block_rows(monkeypatch):
    block = sv.zero_rows(3, 2)
    assert block.tobytes() == np.stack([sv.init_zero(2).amplitudes] * 3).tobytes()
    with pytest.raises(ValueError):
        sv.zero_rows(1, sv.MAX_QUBITS + 1)
    # Registers are blocked at 4 entries an amplitude: 2^13 one-qubit rows;
    # two rows at the widest, one only when there is one.
    assert accel.row_blocks(1 << 14, 4 << 1) == [slice(0, 1 << 13), slice(1 << 13, 1 << 14)]
    assert accel.row_blocks(3, 4 << sv.MAX_QUBITS) == [slice(0, 3)]
    assert accel.row_blocks(1, 4 << sv.MAX_QUBITS) == [slice(0, 1)]
    monkeypatch.setattr(accel, "_BLOCK", 3 * (4 << 2))
    assert accel.row_blocks(7, 4 << 2) == [slice(0, 3), slice(3, 7)]


def test_run_circuit_rows_bytes_equal_run_circuit():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        circuit = helpers.random_circuit(rng, n, int(rng.integers(1, 15)))
        starts = [helpers.random_circuit(rng, n, 6) for _ in range(4)]
        block = np.stack([sv.run_circuit(c).amplitudes for c in starts])
        sv.run_circuit_rows(circuit, block)
        want = [sv.run_circuit(circuit, sv.run_circuit(c)).amplitudes for c in starts]
        assert block.tobytes() == np.stack(want).tobytes()


def test_run_circuit_rows_rejects_width_mismatch():
    with pytest.raises(ValueError):
        sv.run_circuit_rows(sv.Circuit(2, (sv.h(0),)), sv.zero_rows(2, 3))


def test_rotation_rows_match_single_qubit_matrix():
    angles = np.array([0.0, 0.3, -2.0, np.pi, 7.5])
    ry = sv.ry_matrices(angles)
    rz = sv.rz_phases(angles)
    for k, a in enumerate(angles):
        assert ry[k].tobytes() == sv.single_qubit_matrix(sv.ry(a, 0)).tobytes()
        assert rz[k].tobytes() == np.diag(sv.single_qubit_matrix(sv.rz(a, 0))).tobytes()


def test_z_expectation_rows_bytes_equal_z_expectation():
    rng = np.random.default_rng(24)
    for n in range(1, 7):
        states = [sv.run_circuit(helpers.random_circuit(rng, n, 10)) for _ in range(5)]
        got = sv.z_expectation_rows(np.stack([s.amplitudes for s in states]))
        want = [[helpers.z_expectation_dot(s.amplitudes, q) for q in range(n)] for s in states]
        assert got.tobytes() == np.array(want).tobytes()
        single = [[sv.z_expectation(s, q) for q in range(n)] for s in states]
        assert np.array(single).tobytes() == got.tobytes()


@pytest.mark.parametrize("kind,targets,angle,message", [
    ("swap", (0, 1), None, "unknown gate kind 'swap'"),
    ("cnot", (0,), None, "cnot gate takes 2 qubit(s), got 1"),
    ("h", (0, 1), None, "h gate takes 1 qubit(s), got 2"),
    ("cz", (1, 1), None, "cz gate targets must be distinct: (1, 1)"),
    ("ry", (-1,), 0.5, "negative qubit index in (-1,)"),
    ("rz", (0,), float("nan"), "rz angle must be finite, got nan"),
    ("rx", (0,), float("inf"), "rx angle must be finite, got inf"),
], ids=["unknown-kind", "cnot-one-target", "h-two-targets", "repeated-target",
        "negative-index", "nan-angle", "inf-angle"])
def test_gate_refuses_a_malformed_gate(kind, targets, angle, message):
    with pytest.raises(ValueError) as err:
        sv.Gate(kind, targets, angle)
    assert str(err.value) == message


def test_circuit_refuses_width_21_and_an_entry_that_is_not_a_gate():
    with pytest.raises(ValueError, match=r"num_qubits must be in \[1, 20\], got 21"):
        sv.Circuit(sv.MAX_QUBITS + 1)
    with pytest.raises(TypeError, match="expected Gate, got tuple"):
        sv.Circuit(2, (sv.h(0), ("h", (1,))))


def test_statevector_refuses_the_wrong_amplitude_count():
    with pytest.raises(ValueError, match=r"expected 4 amplitudes for 2 qubit\(s\), got shape \(3,\)"):
        sv.StateVector(2, np.zeros(3))


def test_two_qubit_gate_has_no_single_qubit_matrix():
    with pytest.raises(ValueError, match="cnot has no single-qubit matrix"):
        sv.single_qubit_matrix(sv.cnot(0, 1))
