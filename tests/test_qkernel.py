"""Fidelity kernel entries, Gram assembly, and the QKGM container."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from qkml import accel, qkernel
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


def test_gram_matrix_refuses_a_matrix_that_is_not_square():
    with pytest.raises(ValueError, match="square"):
        qkernel.GramMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        qkernel.GramMatrix(np.zeros(4))


def test_gram_matrix_copies_a_caller_array_and_is_read_only():
    given = np.eye(3)
    gram = qkernel.GramMatrix(given)
    given[0, 1] = 0.5
    assert gram.entries[0, 1] == 0.0
    assert not np.shares_memory(gram.entries, given)
    assert not gram.entries.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        gram.entries[0, 0] = 2.0


def test_gram_from_states_and_load_gram_keep_their_fresh_array(monkeypatch, tmp_path):
    # No n x n copy: the Gram holds the array the product returned, and a
    # loaded Gram the entries of the one read of the file.
    built = []
    fidelity_gram = accel.fidelity_gram
    monkeypatch.setattr(accel, "fidelity_gram", lambda s: built.append(fidelity_gram(s)) or built[0])
    states = qkernel.embedding_matrix(FeatureMapSpec(ZZ, 4), np.random.default_rng(7).uniform(
        0, np.pi, size=(600, 4)))
    gram = qkernel.gram_from_states(states)
    assert gram.entries is built[0] and not gram.entries.flags.writeable
    path = tmp_path / "kernel.qkgm"
    qkernel.save_gram(path, gram, FeatureMapSpec(ZZ, 4))
    peak, loaded = _traced_peak(qkernel.load_gram, path)
    assert loaded.entries.tobytes() == gram.entries.tobytes()
    assert not loaded.entries.flags.writeable
    assert peak < 1.1 * path.stat().st_size


def test_cross_from_states_refuses_different_register_widths():
    a = qkernel.embedding_matrix(FeatureMapSpec(ANGLE_Y, 1), np.array([[0.3]]))
    b = qkernel.embedding_matrix(FeatureMapSpec(ANGLE_Y, 2), np.array([[0.3, 0.4]]))
    with pytest.raises(ValueError, match="register widths"):
        qkernel.cross_from_states(a, b)


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


def test_nan_fidelities_are_rejected():
    # Rows whose pair angles overflow are refused before they are embedded
    # (tests/test_feature_maps.py), so a NaN amplitude is planted instead.
    spec = FeatureMapSpec(ZZ, 2)
    states = qkernel.embedding_matrix(spec, np.array([[0.5, 0.3], [0.1, 0.2], [2.0, 1.0]]))
    states[0, 1] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="fidelity outside"):
            qkernel.gram_from_states(states)
        with pytest.raises(ValueError, match="fidelity outside"):
            qkernel.cross_from_states(states[1:], states)
    with pytest.raises(ValueError, match="fidelity outside"):
        qkernel._clamp_unit(np.array([0.5, np.nan]))


def test_cross_from_rows_against_no_train_states_is_empty():
    spec = FeatureMapSpec(ZZ, 3)
    rows = np.random.default_rng(12).uniform(0, np.pi, size=(4, 3))
    cross = qkernel.cross_from_rows(spec, rows, np.empty((0, 8), dtype=np.complex128))
    assert cross.shape == (4, 0)
    assert qkernel._clamp_unit(np.empty((0, 0))).shape == (0, 0)


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


def test_load_rejects_another_version(tmp_path):
    path = tmp_path / "v2.qkgm"
    path.write_bytes(struct.pack("<4sIQ", b"QKGM", 2, 0))
    with pytest.raises(ValueError, match="unsupported QKGM version 2"):
        qkernel.load_gram(path)


def test_verify_rejects_a_sidecar_row_count_that_differs(tmp_path):
    path = tmp_path / "kernel.qkgm"
    gram = qkernel.gram_matrix(FeatureMapSpec(ANGLE_Y, 1), np.array([[0.4], [0.6]]))
    sidecar = qkernel.save_gram(path, gram, FeatureMapSpec(ANGLE_Y, 1))
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "n": 3}))
    with pytest.raises(ValueError, match="sidecar row count 3 != container 2"):
        qkernel.verify_gram(path)


def test_verify_gram_peak_memory_stays_near_the_file_size(tmp_path):
    # One read of the container, hashed and header-checked, not a load
    # and copy of the matrix: the peak stays under 1.5 times the file.
    entries = np.random.default_rng(29).uniform(size=(600, 600))
    path = tmp_path / "kernel.qkgm"
    qkernel.save_gram(path, qkernel.GramMatrix(entries), FeatureMapSpec(ANGLE_Y, 1))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        qkernel.verify_gram(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 16 + 8 * 600 * 600
    assert peak < 1.5 * size


def test_save_gram_peak_memory_stays_near_the_file_size(tmp_path):
    # One buffer holds the header and the entries; no second copy of them.
    gram = qkernel.GramMatrix(np.random.default_rng(31).uniform(size=(600, 600)))
    path = tmp_path / "kernel.qkgm"
    peak, _ = _traced_peak(qkernel.save_gram, path, gram, FeatureMapSpec(ANGLE_Y, 1))
    assert path.stat().st_size == 16 + 8 * 600 * 600
    assert peak < 1.5 * path.stat().st_size


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

    rng = np.random.default_rng(n)
    x = rng.uniform(0, np.pi, size=(n, 3))
    spec = FeatureMapSpec(ZZ, 3, repetitions=2, entanglement="ring")
    whole = fm.embed_rows(spec, x)
    monkeypatch.setattr(accel, "_BLOCK", 64 * (4 << 3))
    assert accel.row_blocks(129, 4 << 3)[0] == slice(0, 64)
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


def _largest_block(n, width):
    return max(b.stop - b.start for b in accel.row_blocks(n, width))


def test_kernel_bytes_counts_states_gram_and_cross():
    # Train states and the embedding's eight blocks (one of all 10 rows
    # here), plus the larger phase: the Gram and its imaginary part, or,
    # with test rows, the cross kernel and one block of them (all 5 here):
    # states, conjugated in place, and products.
    spec = FeatureMapSpec(ZZ, 3)
    embed = _largest_block(10, 4 << 3)
    assert embed == 10
    base = 10 * 8 * 16 + 8 * 16 * 8 * embed
    gram = 2 * 8 * 10 * 10
    assert qkernel.kernel_bytes(spec, 10) == base + gram
    cross = 8 * 10 * 5 + 5 * (16 * 8 + 24 * 10)
    assert cross > gram
    assert qkernel.kernel_bytes(spec, 10, 5) == base + cross
    assert qkernel.kernel_bytes(spec, 10, 1) == base + gram


@pytest.mark.parametrize("q", range(1, 14))
def test_embedding_and_quanv_blocks_hold_two_to_the_14_amplitudes(monkeypatch, q):
    # Up to 13 qubits both loops hold 2^14 amplitudes a block; the rule is
    # written out here apart from accel.row_blocks.
    from qkml import hybrid

    rule = max(1, 2**14 >> q)
    x = np.random.default_rng(q).uniform(0, np.pi, size=(3 * rule, q))
    sizes = []
    embed_rows = qkernel.embed_rows
    for module in (qkernel, hybrid):
        monkeypatch.setattr(module, "embed_rows",
                            lambda spec, rows: sizes.append(len(rows)) or embed_rows(spec, rows))
    qkernel.embedding_matrix(FeatureMapSpec(ANGLE_Y, q), x)
    hybrid.quanv_transform_batch(hybrid.QuanvSpec(window=q, stride=q, layers=0), x)
    assert sizes == [rule] * 6


def _traced_peak(fn, *args):
    """Peak bytes allocated while ``fn(*args)`` runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("repetitions, blocks", [(1, 3.0), (2, 3.75), (3, 3.75)])
@pytest.mark.parametrize("entanglement", ["linear", "ring"])
def test_zz_embedding_holds_at_most_three_blocks_besides_its_output(entanglement,
                                                                   repetitions, blocks):
    # At q=10 a row block is 16 rows, 256 KiB.  D, the ring's pair and Ds
    # share one block-sized array, and the two Walsh-Hadamard buffers exist
    # only from the second repetition on; numpy's iterator buffers add half a
    # block.
    spec = FeatureMapSpec(ZZ, 10, repetitions, entanglement)
    x = np.random.default_rng(10).uniform(0, np.pi, size=(64, 10))
    block = 16 * (16 << 10)
    assert accel.row_blocks(64, 4 << 10)[0] == slice(0, 16)
    qkernel.embedding_matrix(spec, x)  # first-call allocations out of the count
    peak, states = _traced_peak(qkernel.embedding_matrix, spec, x)
    assert peak - states.nbytes < blocks * block


@pytest.mark.parametrize("q, n_train, n_test", [(10, 400, 278), (6, 300, 500), (2, 800, 200),
                                                (13, 40, 30), (3, 3, 1000)])
def test_streamed_kernel_path_peaks_within_kernel_bytes(q, n_train, n_test):
    rng = np.random.default_rng(q)
    spec = FeatureMapSpec(ZZ, q, repetitions=2)
    train = rng.uniform(0, np.pi, size=(n_train, q))
    test = rng.uniform(0, np.pi, size=(n_test, q))

    def kernel_path():
        # The CLI's order: the Gram is released before the test rows stream.
        states = qkernel.embedding_matrix(spec, train)
        qkernel.gram_from_states(states)
        return qkernel.cross_from_rows(spec, test, states)

    peak, _ = _traced_peak(kernel_path)
    assert peak <= qkernel.kernel_bytes(spec, n_train, n_test)


@pytest.mark.parametrize("q, n", [(10, 300), (13, 40), (6, 200), (2, 500)])
def test_gram_from_states_holds_a_block_and_two_n_by_n_arrays(q, n):
    # No copy of the real or imaginary parts: the rows are rewritten in
    # place a quarter block at a time, then m and the real part are n x n.
    states = qkernel.embedding_matrix(FeatureMapSpec(ZZ, q), np.random.default_rng(q).uniform(
        0, np.pi, size=(n, q)))
    peak, gram = _traced_peak(qkernel.gram_from_states, states)
    assert peak <= 16 * accel._BLOCK + 2 * gram.entries.nbytes


@pytest.mark.parametrize("q, n_train, n_test", [(10, 400, 278), (6, 300, 500), (2, 800, 200)])
def test_streamed_cross_holds_one_block_and_its_output(q, n_train, n_test):
    rng = np.random.default_rng(q)
    spec = FeatureMapSpec(ZZ, q)
    states = qkernel.embedding_matrix(spec, rng.uniform(0, np.pi, size=(n_train, q)))
    test = rng.uniform(0, np.pi, size=(n_test, q))
    peak, cross = _traced_peak(qkernel.cross_from_rows, spec, test, states)
    rows = _largest_block(n_test, max(states.shape))
    # A block's states, conjugated in place, its products and their
    # squares, and the embedding's own blocks.
    block = rows * (16 << q) + rows * 24 * n_train + 8 * 16 * (_largest_block(rows, 4 << q) << q)
    assert peak <= cross.nbytes + block
    assert cross.tobytes() == qkernel.cross_from_states(
        qkernel.embedding_matrix(spec, test), states).tobytes()
