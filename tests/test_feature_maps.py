"""Feature maps: circuit structure, embeddings, and the analytic oracle."""

import warnings

import numpy as np
import pytest

from qkml import accel, qkernel
from qkml import feature_maps as fm
from qkml import statevector as sv

import helpers


def test_default_repetitions_per_kind():
    assert fm.FeatureMapSpec(fm.ANGLE_Y, 3).repetitions == 1
    assert fm.FeatureMapSpec(fm.ZZ, 3).repetitions == 2


def test_spec_validation():
    with pytest.raises(ValueError):
        fm.FeatureMapSpec("amplitude", 2)
    with pytest.raises(ValueError):
        fm.FeatureMapSpec(fm.ANGLE_Y, 0)
    with pytest.raises(ValueError):
        fm.FeatureMapSpec(fm.ANGLE_Y, 2, repetitions=0)
    with pytest.raises(ValueError):
        fm.FeatureMapSpec(fm.ZZ, 2, entanglement="star")


def test_entangled_pairs_linear():
    assert fm.entangled_pairs(4, fm.LINEAR) == [(0, 1), (1, 2), (2, 3)]


def test_entangled_pairs_ring_closes_only_from_three_qubits():
    assert fm.entangled_pairs(2, fm.RING) == [(0, 1)]
    assert fm.entangled_pairs(3, fm.RING) == [(0, 1), (1, 2), (2, 0)]


def test_angle_y_zero_vector_embeds_to_all_zero_state():
    spec = fm.FeatureMapSpec(fm.ANGLE_Y, 2, repetitions=1)
    state = fm.embed(spec, [0.0, 0.0])
    np.testing.assert_allclose(state.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_angle_y_pi_embeds_to_one_state():
    spec = fm.FeatureMapSpec(fm.ANGLE_Y, 1)
    state = fm.embed(spec, [np.pi])
    np.testing.assert_allclose(state.amplitudes, [0.0, 1.0], atol=1e-12)


def test_angle_y_half_pi_amplitudes():
    spec = fm.FeatureMapSpec(fm.ANGLE_Y, 1)
    state = fm.embed(spec, [np.pi / 2])
    np.testing.assert_allclose(
        state.amplitudes, [np.cos(np.pi / 4), np.sin(np.pi / 4)], atol=1e-12
    )


def test_angle_y_circuit_is_one_ry_per_qubit_per_repetition():
    spec = fm.FeatureMapSpec(fm.ANGLE_Y, 3, repetitions=2)
    circuit = fm.build_feature_circuit(spec, [0.1, 0.2, 0.3])
    assert len(circuit.gates) == 6
    assert all(g.kind == "ry" for g in circuit.gates)
    assert [g.angle for g in circuit.gates[:3]] == [0.1, 0.2, 0.3]


def test_zz_pair_gate_angle_vanishes_at_pi():
    spec = fm.FeatureMapSpec(fm.ZZ, 2, repetitions=1)
    circuit = fm.build_feature_circuit(spec, [np.pi, np.pi])
    # layer layout: H H RZ RZ CNOT RZ CNOT; gates[5] is the pair phase
    assert [g.kind for g in circuit.gates] == [
        "h", "h", "rz", "rz", "cnot", "rz", "cnot",
    ]
    assert circuit.gates[5].angle == 0.0


def test_zz_zero_vector_single_repetition_uniform_probs():
    spec = fm.FeatureMapSpec(fm.ZZ, 2, repetitions=1)
    state = fm.embed(spec, [0.0, 0.0])
    np.testing.assert_allclose(
        np.abs(state.amplitudes) ** 2, [0.25, 0.25, 0.25, 0.25], atol=1e-12
    )


def test_zz_ring_adds_closing_pair_gates():
    lin = fm.build_feature_circuit(
        fm.FeatureMapSpec(fm.ZZ, 3, repetitions=1), [0.1, 0.2, 0.3]
    )
    ring = fm.build_feature_circuit(
        fm.FeatureMapSpec(fm.ZZ, 3, repetitions=1, entanglement=fm.RING),
        [0.1, 0.2, 0.3],
    )
    assert len(ring.gates) == len(lin.gates) + 3


def test_embed_rejects_wrong_length():
    spec = fm.FeatureMapSpec(fm.ANGLE_Y, 2)
    with pytest.raises(ValueError):
        fm.embed(spec, [0.1])


def test_embed_rejects_non_finite():
    spec = fm.FeatureMapSpec(fm.ANGLE_Y, 2)
    with pytest.raises(ValueError):
        fm.embed(spec, [0.1, np.nan])


def test_zz_rows_whose_pair_angles_overflow_are_rejected_up_front():
    # (pi - 1e200)^2 overflows to inf, which would make every phase NaN.
    spec = fm.FeatureMapSpec(fm.ZZ, 2)
    rows = np.array([[1e200, 1e200], [0.5, 0.3]])
    calls = (
        lambda: fm.embed_rows(spec, rows),
        lambda: fm.embed(spec, rows[0]),
        lambda: qkernel.gram_matrix(spec, rows),
        lambda: qkernel.cross_kernel(spec, rows[1:], rows),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="pair angles"):
                call()
        # Only the pairs of the pattern count: (2, 0) closes the ring alone.
        far = [[1e200, 0.0, 1e200]]
        linear = fm.FeatureMapSpec(fm.ZZ, 3, entanglement=fm.LINEAR)
        assert fm.embed_rows(linear, far).shape == (1, 8)
        with pytest.raises(ValueError, match="pair angles"):
            fm.embed_rows(fm.FeatureMapSpec(fm.ZZ, 3, entanglement=fm.RING), far)
        assert fm.embed_rows(fm.FeatureMapSpec(fm.ANGLE_Y, 2), rows).shape == (2, 4)


@pytest.mark.parametrize("kind", [fm.ANGLE_Y, fm.ZZ])
def test_complex_rows_are_refused_by_their_dtype(kind):
    # numpy only warned (ComplexWarning) and dropped the imaginary parts, so
    # the Gram of x + 1j*y was the Gram of x.
    spec = fm.FeatureMapSpec(kind, 3)
    x = np.random.default_rng(15).uniform(0, np.pi, size=(4, 3))
    z = x + 1j * np.random.default_rng(16).uniform(0, np.pi, size=(4, 3))
    calls = (
        (lambda: qkernel.embedding_matrix(spec, z), "complex128"),
        (lambda: qkernel.gram_matrix(spec, z), "complex128"),
        (lambda: qkernel.cross_kernel(spec, z, x), "complex128"),
        (lambda: qkernel.cross_kernel(spec, x, z.astype(np.complex64)), "complex64"),
        (lambda: qkernel.cross_kernel(spec, x, z.tolist()), "complex128"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, dtype in calls:
            with pytest.raises(ValueError, match=f"^feature rows must be real, got dtype {dtype}$"):
                call()


def test_embeddings_normalized():
    rng = np.random.default_rng(9)
    for kind in (fm.ANGLE_Y, fm.ZZ):
        for _ in range(10):
            n = int(rng.integers(1, 9))
            spec = fm.FeatureMapSpec(kind, n)
            x = rng.uniform(0, np.pi, size=n)
            state = fm.embed(spec, x)
            assert abs(state.norm() - 1.0) < 1e-9


def test_embed_deterministic():
    spec = fm.FeatureMapSpec(fm.ZZ, 3)
    x = [0.3, 1.1, 2.9]
    a = fm.embed(spec, x)
    b = fm.embed(spec, x)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_angle_y_fidelity_matches_product_formula():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        spec = fm.FeatureMapSpec(fm.ANGLE_Y, n)
        x = rng.uniform(0, np.pi, size=n)
        x_prime = rng.uniform(0, np.pi, size=n)
        fid = abs(sv.inner_product(fm.embed(spec, x_prime), fm.embed(spec, x))) ** 2
        assert fid == pytest.approx(helpers.angle_y_kernel(x, x_prime), abs=1e-10)


def test_zz_embedding_matches_matrix_oracle():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        spec = fm.FeatureMapSpec(fm.ZZ, n)
        x = rng.uniform(0, np.pi, size=n)
        circuit = fm.build_feature_circuit(spec, x)
        np.testing.assert_allclose(
            fm.embed(spec, x).amplitudes, helpers.brute_run(circuit), atol=1e-10
        )


def test_spec_rejects_registers_wider_than_the_simulator():
    assert fm.FeatureMapSpec(fm.ZZ, sv.MAX_QUBITS).num_qubits == sv.MAX_QUBITS
    with pytest.raises(ValueError, match=r"num_qubits must be in \[1, 20\], got 21"):
        fm.FeatureMapSpec(fm.ZZ, sv.MAX_QUBITS + 1)


def test_embed_is_one_row_of_embed_rows():
    rng = np.random.default_rng(31)
    x = rng.uniform(0, np.pi, size=(3, 4))
    for kind in (fm.ANGLE_Y, fm.ZZ):
        spec = fm.FeatureMapSpec(kind, 4)
        block = fm.embed_rows(spec, x)
        for r in range(3):
            assert fm.embed(spec, x[r]).amplitudes.tobytes() == block[r].tobytes()


def test_zz_embed_rows_makes_no_dense_kernel_call(monkeypatch):
    rng = np.random.default_rng(32)
    x = rng.uniform(0, np.pi, size=(5, 4))
    specs = [fm.FeatureMapSpec(fm.ZZ, 4, repetitions=r, entanglement=fm.RING) for r in (1, 2, 3)]
    wants = [helpers.embed_zz_layers(spec, x) for spec in specs]
    seen = []

    def record(states, target, u):
        seen.append(states.shape[0])

    monkeypatch.setattr(accel, "apply_single_qubit_rows", record)
    for spec, want in zip(specs, wants):
        np.testing.assert_allclose(fm.embed_rows(spec, x), want, rtol=0, atol=1e-12)
    assert seen == []


@pytest.mark.parametrize("entanglement", [fm.LINEAR, fm.RING])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 10])
def test_only_the_ring_closing_pair_is_a_block_multiply(q, entanglement):
    rng = np.random.default_rng(33)
    x = rng.uniform(0, np.pi, size=(5, q))
    spec = fm.FeatureMapSpec(fm.ZZ, q, repetitions=2, entanglement=entanglement)
    want = helpers.embed_zz_layers(spec, x)
    np.testing.assert_allclose(fm.embed_rows(spec, x), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("q", [1, 2, 10, 20])
def test_hadamard_layer_on_zero_state_has_one_amplitude(q):
    plus = sv.zero_rows(1, q)
    for target in range(q):
        accel.apply_single_qubit_rows(plus, target, sv.single_qubit_matrix(sv.h(0)))
    assert plus.tobytes() == np.full_like(plus, plus[0, 0]).tobytes()


@pytest.mark.parametrize("q", range(1, 13))
def test_walsh_hadamard_butterflies_equal_dense_hadamard_layer(q):
    rng = np.random.default_rng(40 + q)
    block = rng.normal(size=(3, 1 << q)) + 1j * rng.normal(size=(3, 1 << q))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    dense = block.copy()
    for target in range(q):
        accel.apply_single_qubit_rows(dense, target, sv.single_qubit_matrix(sv.h(0)))
    a, b = np.empty_like(block), np.empty_like(block)
    before = block.copy()
    got = fm._walsh_hadamard(block, a, b)
    assert got is a or got is b
    assert block.tobytes() == before.tobytes()
    np.testing.assert_allclose(got * 2.0 ** (-q / 2), dense, rtol=0, atol=1e-12)


def _zz_diagonal(spec, x):
    """D of one zz repetition, entry by entry from the basis index bits:
    the RZ phase of every qubit times the pair phase of every parity."""
    q = spec.num_qubits
    bits = (np.arange(1 << q)[:, None] >> np.arange(q)) & 1
    qubit_phases = sv.rz_phases(x)
    diag = np.ones((x.shape[0], 1 << q), dtype=np.complex128)
    for k in range(q):
        diag *= qubit_phases[:, k, bits[:, k]]
    for i, j in fm.entangled_pairs(q, spec.entanglement):
        phases = sv.rz_phases((np.pi - x[:, i]) * (np.pi - x[:, j]))
        diag *= phases[:, bits[:, i] ^ bits[:, j]]
    return diag


@pytest.mark.parametrize("entanglement", [fm.LINEAR, fm.RING])
@pytest.mark.parametrize("q", [1, 2, 3, 7, 10])
def test_one_repetition_state_is_the_scaled_diagonal(q, entanglement):
    rng = np.random.default_rng(50 + q)
    x = np.vstack([rng.uniform(0, np.pi, size=(4, q)), [0.0] * q, [np.pi] * q])
    spec = fm.FeatureMapSpec(fm.ZZ, q, repetitions=1, entanglement=entanglement)
    np.testing.assert_allclose(
        fm.embed_rows(spec, x), _zz_diagonal(spec, x) * 2.0 ** (-q / 2), rtol=0, atol=1e-12
    )
