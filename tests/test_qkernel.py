"""Fidelity kernel entries, Gram assembly, and the QKGM container."""

import numpy as np
import pytest

from qkml import qkernel
from qkml.feature_maps import ANGLE_Y, ZZ, FeatureMapSpec

import helpers


def test_kernel_entry_self_is_one():
    rng = np.random.default_rng(2)
    for kind in (ANGLE_Y, ZZ):
        spec = FeatureMapSpec(kind, 3)
        x = rng.uniform(0, np.pi, size=3)
        assert qkernel.kernel_entry(spec, x, x) == pytest.approx(1.0, abs=1e-9)


def test_kernel_entry_orthogonal_angle_y():
    spec = FeatureMapSpec(ANGLE_Y, 1)
    assert qkernel.kernel_entry(spec, [0.0], [np.pi]) == pytest.approx(0.0, abs=1e-12)


def test_kernel_entry_half_overlap():
    spec = FeatureMapSpec(ANGLE_Y, 1)
    assert qkernel.kernel_entry(spec, [0.0], [np.pi / 2]) == pytest.approx(
        0.5, abs=1e-12
    )


def test_kernel_entry_rejects_dim_mismatch():
    spec = FeatureMapSpec(ANGLE_Y, 2)
    with pytest.raises(ValueError):
        qkernel.kernel_entry(spec, [0.0], [0.0, 1.0])


def test_gram_single_row():
    gram = qkernel.gram_matrix(FeatureMapSpec(ANGLE_Y, 1), np.array([[0.7]]))
    np.testing.assert_array_equal(gram.entries, [[1.0]])


def test_gram_orthogonal_pair_is_identity():
    gram = qkernel.gram_matrix(FeatureMapSpec(ANGLE_Y, 1), np.array([[0.0], [np.pi]]))
    np.testing.assert_allclose(gram.entries, np.eye(2), atol=1e-12)


def test_gram_unit_diagonal_symmetric_psd():
    rng = np.random.default_rng(8)
    for kind in (ANGLE_Y, ZZ):
        x = rng.uniform(0, np.pi, size=(6, 3))
        gram = qkernel.gram_matrix(FeatureMapSpec(kind, 3), x)
        np.testing.assert_allclose(np.diag(gram.entries), 1.0, atol=1e-9)
        np.testing.assert_allclose(gram.entries, gram.entries.T, atol=1e-12)
        assert qkernel.check_psd(gram) >= qkernel.PSD_TOL


def test_gram_matches_analytic_formula():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, np.pi, size=(8, 4))
    gram = qkernel.gram_matrix(FeatureMapSpec(ANGLE_Y, 4), x)
    want = np.empty((8, 8))
    for i in range(8):
        for j in range(8):
            want[i, j] = helpers.angle_y_kernel(x[i], x[j])
    np.testing.assert_allclose(gram.entries, want, atol=1e-10)


def test_gram_rejects_empty_input():
    with pytest.raises(ValueError):
        qkernel.gram_matrix(FeatureMapSpec(ANGLE_Y, 1), np.empty((0, 1)))


def test_cross_kernel_equals_gram_on_same_rows():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, np.pi, size=(5, 2))
    spec = FeatureMapSpec(ZZ, 2)
    gram = qkernel.gram_matrix(spec, x)
    cross = qkernel.cross_kernel(spec, x, x)
    np.testing.assert_allclose(cross, gram.entries, atol=1e-12)


def test_cross_kernel_identical_row_hits_one():
    rng = np.random.default_rng(7)
    train = rng.uniform(0, np.pi, size=(4, 2))
    spec = FeatureMapSpec(ANGLE_Y, 2)
    cross = qkernel.cross_kernel(spec, train[2:3], train)
    assert cross[0, 2] == pytest.approx(1.0, abs=1e-9)


def test_cross_kernel_analytic_values():
    spec = FeatureMapSpec(ANGLE_Y, 1)
    cross = qkernel.cross_kernel(
        spec, np.array([[0.0]]), np.array([[np.pi / 2], [np.pi]])
    )
    np.testing.assert_allclose(cross, [[0.5, 0.0]], atol=1e-12)


def test_cross_kernel_entries_in_unit_interval():
    rng = np.random.default_rng(14)
    spec = FeatureMapSpec(ZZ, 3)
    a = rng.uniform(0, np.pi, size=(6, 3))
    b = rng.uniform(0, np.pi, size=(9, 3))
    cross = qkernel.cross_kernel(spec, a, b)
    assert cross.min() >= 0.0 and cross.max() <= 1.0


def test_zz_kernel_matches_unitary_oracle():
    rng = np.random.default_rng(10)
    from qkml import feature_maps as fm

    for _ in range(20):
        n = int(rng.integers(2, 5))
        spec = FeatureMapSpec(ZZ, n)
        x = rng.uniform(0, np.pi, size=n)
        x_prime = rng.uniform(0, np.pi, size=n)
        a = helpers.brute_run(fm.build_feature_circuit(spec, x))
        b = helpers.brute_run(fm.build_feature_circuit(spec, x_prime))
        want = abs(np.vdot(b, a)) ** 2
        assert qkernel.kernel_entry(spec, x, x_prime) == pytest.approx(
            want, abs=1e-10
        )


def test_clamp_rejects_drift_beyond_tolerance():
    with pytest.raises(ValueError):
        qkernel._clamp_unit(np.array([1.0 + 5e-9]))
    with pytest.raises(ValueError):
        qkernel._clamp_unit(np.array([-5e-9]))
    out = qkernel._clamp_unit(np.array([1.0 + 5e-10, -5e-10]))
    np.testing.assert_array_equal(out, [1.0, 0.0])


def test_gram_container_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    x = rng.uniform(0, np.pi, size=(6, 2))
    spec = FeatureMapSpec(ZZ, 2)
    gram = qkernel.gram_matrix(spec, x)
    path = tmp_path / "kernel.qkgm"
    sidecar = qkernel.save_gram(path, gram, spec, qkernel.matrix_sha256(x))
    assert sidecar.exists()
    loaded = qkernel.load_gram(path)
    np.testing.assert_array_equal(loaded.entries, gram.entries)
    meta = qkernel.verify_gram(path)
    assert meta["n"] == 6
    assert meta["feature_map"]["kind"] == "zz"


def test_verify_detects_tampering(tmp_path):
    gram = qkernel.gram_matrix(
        FeatureMapSpec(ANGLE_Y, 1), np.array([[0.1], [0.9]])
    )
    path = tmp_path / "kernel.qkgm"
    qkernel.save_gram(path, gram, FeatureMapSpec(ANGLE_Y, 1))
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="hash mismatch"):
        qkernel.verify_gram(path)


def test_load_rejects_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bogus.qkgm"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError, match="magic"):
        qkernel.load_gram(path)
    gram = qkernel.gram_matrix(FeatureMapSpec(ANGLE_Y, 1), np.array([[0.4]]))
    good = tmp_path / "good.qkgm"
    qkernel.save_gram(good, gram, FeatureMapSpec(ANGLE_Y, 1))
    good.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(ValueError, match="truncated"):
        qkernel.load_gram(good)


def test_verify_requires_sidecar(tmp_path):
    gram = qkernel.gram_matrix(FeatureMapSpec(ANGLE_Y, 1), np.array([[0.4]]))
    path = tmp_path / "kernel.qkgm"
    qkernel.save_gram(path, gram, FeatureMapSpec(ANGLE_Y, 1))
    qkernel._sidecar_path(path).unlink()
    with pytest.raises(ValueError, match="sidecar"):
        qkernel.verify_gram(path)


def test_matrix_sha256_distinguishes_shape():
    flat = np.arange(4.0)
    assert qkernel.matrix_sha256(flat.reshape(2, 2)) != qkernel.matrix_sha256(
        flat.reshape(1, 4)
    )


# -- row-block embedding against the gate-level simulator -----------------------
# angle_y states are bit for bit the gate path's.  zz states, and the Gram
# and cross kernel built from them, agree with the gate path and with the
# layer-by-layer oracle to ZZ_ATOL: the Walsh-Hadamard butterflies scale
# once at the end instead of by 1/sqrt(2) per H gate.

ZZ_ATOL = 1e-12


def _gate_path(spec, rows):
    from qkml import feature_maps as fm
    from qkml.statevector import run_circuit

    return np.stack(
        [run_circuit(fm.build_feature_circuit(spec, r)).amplitudes for r in rows]
    )


def _assert_zz_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=ZZ_ATOL)


@pytest.mark.parametrize("reps", [1, 2, 3])
@pytest.mark.parametrize("entanglement", ["linear", "ring"])
@pytest.mark.parametrize("q", [1, 2, 3, 6, 10])
@pytest.mark.parametrize("kind", [ANGLE_Y, ZZ])
def test_embedding_matrix_bytes_equal_gate_path(kind, q, entanglement, reps):
    rng = np.random.default_rng(q * 10 + reps)
    x = np.vstack(
        [rng.uniform(0, np.pi, size=(4, q)), rng.uniform(-7.0, 7.0, size=(2, q))]
    )
    spec = FeatureMapSpec(kind, q, repetitions=reps, entanglement=entanglement)
    # A 1-row block too: the gate kernels must not round differently there.
    for rows in (x[:1], x):
        got = qkernel.embedding_matrix(spec, rows)
        if kind == ANGLE_Y:
            assert got.tobytes() == _gate_path(spec, rows).tobytes()
        else:
            _assert_zz_close(got, _gate_path(spec, rows))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_embedding_matrix_bytes_equal_across_block_edges(monkeypatch, n):
    from qkml import feature_maps as fm
    from qkml import statevector as sv

    rng = np.random.default_rng(n)
    x = rng.uniform(0, np.pi, size=(n, 3))
    spec = FeatureMapSpec(ZZ, 3, repetitions=2, entanglement="ring")
    whole = fm.embed_rows(spec, x)
    monkeypatch.setattr(sv, "BLOCK_AMPLITUDES", 64 << 3)
    assert sv.block_rows(3) == 64
    assert qkernel.embedding_matrix(spec, x).tobytes() == whole.tobytes()


def test_embedding_matrix_on_boundary_angles_equals_gate_path():
    # Scaled features sit exactly at 0 and pi at the column extremes.
    rng = np.random.default_rng(21)
    x = rng.choice([0.0, np.pi / 2, np.pi, 1.0], size=(40, 4))
    spec = FeatureMapSpec(ZZ, 4, repetitions=2)
    got = qkernel.embedding_matrix(spec, x)
    want = _gate_path(spec, x)
    _assert_zz_close(got, want)
    _assert_zz_close(
        qkernel.gram_from_states(got).entries, qkernel.gram_from_states(want).entries
    )


@pytest.mark.parametrize("reps", [1, 2, 3])
@pytest.mark.parametrize("entanglement", ["linear", "ring"])
@pytest.mark.parametrize("q", range(1, 13))
def test_zz_embedding_matrix_bytes_equal_layer_oracle(q, entanglement, reps):
    rng = np.random.default_rng(100 * q + 10 * reps + len(entanglement))
    spec = FeatureMapSpec(ZZ, q, repetitions=reps, entanglement=entanglement)
    for n in (1, 5, 37):
        edges = rng.uniform(0, np.pi, size=(n, q))
        pick = rng.integers(3, size=(n, q))
        edges[pick == 0] = 0.0
        edges[pick == 1] = np.pi
        spread = rng.uniform(0, np.pi, size=(n, q)), rng.uniform(-7.0, 7.0, size=(n, q))
        for x in spread + (edges,):
            got = qkernel.embedding_matrix(spec, x)
            want = helpers.embed_zz_layers(spec, x)
            _assert_zz_close(got, want)
            _assert_zz_close(
                qkernel.gram_from_states(got).entries,
                qkernel.gram_from_states(want).entries,
            )
            _assert_zz_close(
                qkernel.cross_from_states(got[: n // 2 + 1], got),
                qkernel.cross_from_states(want[: n // 2 + 1], want),
            )


def test_embedding_matrix_rejects_bad_rows():
    spec = FeatureMapSpec(ZZ, 2)
    with pytest.raises(ValueError):
        qkernel.embedding_matrix(spec, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        qkernel.embedding_matrix(spec, np.array([[0.1, np.inf]]))


def test_state_based_kernels_equal_row_based_wrappers():
    rng = np.random.default_rng(22)
    spec = FeatureMapSpec(ZZ, 3)
    train = rng.uniform(0, np.pi, size=(7, 3))
    test = rng.uniform(0, np.pi, size=(4, 3))
    states = qkernel.embedding_matrix(spec, train)
    gram = qkernel.gram_from_states(states)
    assert gram.entries.tobytes() == qkernel.gram_matrix(spec, train).entries.tobytes()
    cross = qkernel.cross_from_states(qkernel.embedding_matrix(spec, test), states)
    assert cross.tobytes() == qkernel.cross_kernel(spec, test, train).tobytes()


def test_kernel_bytes_counts_states_gram_and_cross():
    spec = FeatureMapSpec(ZZ, 3)
    assert qkernel.kernel_bytes(spec, 10) == 10 * 8 * 16 + 8 * 10 * 10
    assert qkernel.kernel_bytes(spec, 10, 5) == 15 * 8 * 16 + 8 * 10 * 15
