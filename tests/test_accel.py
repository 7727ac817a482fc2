"""The numpy kernels in ``qkml.accel`` paired with independent oracles.

Gates must match the element-wise loops in ``tests/helpers.py``
bitwise (single-qubit gates for real matrices; complex ones to 1e-12),
every row of a multi-row gate block must be byte-equal to that row run
alone as a 1-row block, the Gram/cross matrices (a BLAS reduction)
must match a per-pair ``np.vdot`` to 1e-12, the Gram also the complex
matmul oracle, the blocked Gram and cross kernel the one-shot products
in ``tests/helpers.py`` byte for byte, and the SMO solver must stay
in its box, keep sum(alpha y) = 0, close the KKT gap to its tolerance and
reach at least the dual of the random-partner loop solver in
``tests/helpers.py``.
"""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import helpers
from qkml import accel, qkernel
from qkml.feature_maps import RING, ZZ, FeatureMapSpec


def _random_state(rng, n_qubits):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return (amps / np.linalg.norm(amps)).astype(np.complex128)


def _random_unitary(rng):
    theta = rng.uniform(0, 2 * np.pi)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _vdot_fidelities(a_states, b_states):
    return np.array(
        [[abs(np.vdot(b, a)) ** 2 for b in b_states] for a in a_states]
    )


def test_active_backend_is_known():
    assert accel.active_backend() == "numpy"


def test_backend_env_var_is_ignored():
    env = dict(os.environ, QKML_BACKEND="numba")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", "import qkml; print(qkml.active_backend())"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "numpy"


def _one_row(kernel, amps, *args):
    """Run a row kernel on ``amps`` as a 1-row block; returns the new row."""
    block = amps[None].copy()
    kernel(block, *args)
    return block[0]


def test_single_qubit_pair_bitwise_equal():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        amps = _random_state(rng, n)
        target = int(rng.integers(n))
        u = _random_unitary(rng)
        np.testing.assert_array_equal(
            _one_row(accel.apply_single_qubit_rows, amps, target, u),
            helpers._apply_1q_loops(amps, target, u),
        )


def test_single_qubit_pair_close_for_complex_matrices():
    # The loop oracle is bitwise only for real matrices (see its docstring).
    rng = np.random.default_rng(8)
    for trial in range(60):
        n = int(rng.integers(1, 7))
        amps = _random_state(rng, n)
        target = int(rng.integers(n))
        theta = float(rng.uniform(0, 2 * np.pi))
        u = (helpers._rot("rx", theta), helpers._rot("rz", theta),
             _random_complex_unitary(rng))[trial % 3]
        np.testing.assert_allclose(
            _one_row(accel.apply_single_qubit_rows, amps, target, u),
            helpers._apply_1q_loops(amps, target, u),
            rtol=0,
            atol=1e-12,
        )


def test_two_qubit_pairs_bitwise_equal():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        amps = _random_state(rng, n)
        c, t = rng.choice(n, size=2, replace=False)
        c, t = int(c), int(t)
        np.testing.assert_array_equal(
            _one_row(accel.apply_cnot_rows, amps, c, t),
            helpers._apply_cnot_loops(amps, c, t),
        )
        np.testing.assert_array_equal(
            _one_row(accel.apply_cz_rows, amps, c, t),
            helpers._apply_cz_loops(amps, c, t),
        )


def _random_block(rng, rows, n_qubits):
    return np.stack([_random_state(rng, n_qubits) for _ in range(rows)])


def _random_complex_unitary(rng):
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
    return phase[:, None] * _random_unitary(rng) * np.exp(1j * rng.uniform(0, 2 * np.pi))


# A multi-row block is held to its rows run one at a time as 1-row blocks
# (which the loop oracles above pin), byte for byte, with complex entries.


def test_single_qubit_rows_bytes_equal_per_row_kernel():
    rng = np.random.default_rng(2)
    for trial in range(36):
        n = 1 + trial % 6
        rows = int(rng.integers(2, 6))
        block = _random_block(rng, rows, n)
        target = int(rng.integers(n))
        per_row = np.stack([_random_complex_unitary(rng) for _ in range(rows)])
        theta = float(rng.uniform(0, 2 * np.pi))
        shared = (helpers._rot("rz", theta), helpers._rot("rx", theta),
                  _random_complex_unitary(rng))[trial // 6 % 3]
        want = [
            _one_row(
                accel.apply_single_qubit_rows,
                _one_row(accel.apply_single_qubit_rows, amps, target, u),
                target,
                shared,
            )
            for amps, u in zip(block, per_row)
        ]
        accel.apply_single_qubit_rows(block, target, per_row)
        accel.apply_single_qubit_rows(block, target, shared)
        assert block.tobytes() == np.stack(want).tobytes()


def test_two_qubit_rows_bytes_equal_per_row_kernel():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        block = _random_block(rng, 3, n)
        c, t = (int(q) for q in rng.choice(n, size=2, replace=False))
        want = [
            _one_row(accel.apply_cz_rows, _one_row(accel.apply_cnot_rows, amps, c, t), t, c)
            for amps in block
        ]
        accel.apply_cnot_rows(block, c, t)
        accel.apply_cz_rows(block, t, c)
        assert block.tobytes() == np.stack(want).tobytes()


def test_gram_pair_close_and_symmetric():
    rng = np.random.default_rng(2)
    states = np.vstack([_random_state(rng, 3) for _ in range(12)])
    g = accel.fidelity_gram(states)
    np.testing.assert_allclose(g, _vdot_fidelities(states, states), atol=1e-12)
    np.testing.assert_array_equal(g, g.T)


@pytest.mark.parametrize("n", [1, 2, 37, 130])
@pytest.mark.parametrize("q", [1, 2, 5, 10])
def test_real_gram_matches_complex_gram_on_zz_states(q, n):
    rng = np.random.default_rng(60 + q)
    spec = FeatureMapSpec(ZZ, q, repetitions=2, entanglement=RING)
    states = qkernel.embedding_matrix(spec, rng.uniform(0, np.pi, size=(n, q)))
    before = states.copy()
    g = accel.fidelity_gram(states)
    assert states.tobytes() == before.tobytes()
    assert accel.fidelity_gram(np.asfortranarray(states)).tobytes() == g.tobytes()
    np.testing.assert_allclose(g, helpers.fidelity_gram_complex(states), rtol=0, atol=1e-12)
    np.testing.assert_allclose(g, _vdot_fidelities(states, states), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(g, g.T)


_GRAM_SIZES = [1, 2, 63, 64, 65, 130, 141]


@pytest.mark.parametrize("n", _GRAM_SIZES[:-1])
def test_gram_mirror_bytes_equal_tril_index_form(n):
    # The Gram is exactly symmetric as built, with no mirror pass.  Each
    # case takes the sizes from n up to the next case's, 1-140 in all.
    rng = np.random.default_rng(70 + n)
    sizes = range(n, _GRAM_SIZES[_GRAM_SIZES.index(n) + 1])
    for q in (1, 2, 6, 10):
        spec = FeatureMapSpec(ZZ, q, repetitions=2, entanglement=RING)
        zz = qkernel.embedding_matrix(spec, rng.uniform(0, np.pi, size=(sizes[-1], q)))
        for states in (_unit_rows(rng, sizes[-1], 1 << q), zz):
            for m in sizes:
                g = accel.fidelity_gram(states[:m])
                want = g.copy()
                low = np.tril_indices(m, -1)
                want[low] = want.T[low]
                assert g.tobytes() == want.tobytes()


def _block(width):
    """Rows in a block of ``width`` entries a row (``accel.row_blocks``)."""
    return max(2, accel._BLOCK // width)


def _edge_sizes(block):
    return [1, block - 1, block, block + 1, 2 * block + 1]


def _unit_rows(rng, n, dim):
    states = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


@pytest.mark.parametrize("q", [1, 2, 6, 10, 13])
def test_gram_row_rewrite_goes_apart_and_back_bytes_equal(q):
    rng = np.random.default_rng(80 + q)
    for n in _edge_sizes(_block(4 << q)):
        x = rng.normal(size=(n, 2 << q))
        before = x.copy()
        accel._parts_apart(x, True)
        assert x[:, : 1 << q].tobytes() == before[:, 0::2].tobytes(), n
        assert x[:, 1 << q :].tobytes() == before[:, 1::2].tobytes(), n
        accel._parts_apart(x, False)
        assert x.tobytes() == before.tobytes(), n


@pytest.mark.parametrize("q", [1, 2, 6, 10, 13])
def test_gram_bytes_equal_one_shot_oracle(q):
    # The edge sizes of the row rewrite, where the n x n Gram stays small
    # (below q = 6 its blocks are thousands of rows), and a few more.
    rng = np.random.default_rng(90 + q)
    sizes = _edge_sizes(_block(4 << q)) + [2, 3, 37, 130, 400, 1000]
    for n in sorted({n for n in sizes if n <= 1100 and n << q <= 1 << 20}):
        states = _unit_rows(rng, n, 1 << q)
        before = states.copy()
        want = helpers.fidelity_gram_one_shot(states).tobytes()
        assert accel.fidelity_gram(states).tobytes() == want, n
        assert states.tobytes() == before.tobytes()
        assert accel.fidelity_gram(np.asfortranarray(states)).tobytes() == want, n
        states.flags.writeable = False
        assert accel.fidelity_gram(states).tobytes() == want, n


@pytest.mark.parametrize("q, n_b", [(1, 5), (2, 5), (6, 5), (10, 5), (13, 5), (2, 3000)])
def test_cross_bytes_equal_one_shot_oracle(q, n_b):
    rng = np.random.default_rng(100 + q)
    b_states = _unit_rows(rng, n_b, 1 << q)
    for n in _edge_sizes(_block(max(1 << q, n_b))):
        a_states = _unit_rows(rng, n, 1 << q)
        for a in (a_states, np.asfortranarray(a_states)):
            for b in (b_states, np.asfortranarray(b_states)):
                want = helpers.fidelity_cross_one_shot(a, b)
                assert accel.fidelity_cross(a, b).tobytes() == want.tobytes(), n


def test_cross_pair_close():
    rng = np.random.default_rng(3)
    a_states = np.vstack([_random_state(rng, 3) for _ in range(5)])
    b_states = np.vstack([_random_state(rng, 3) for _ in range(7)])
    np.testing.assert_allclose(
        accel.fidelity_cross(a_states, b_states),
        _vdot_fidelities(a_states, b_states),
        atol=1e-12,
    )


def _random_smo_problem(rng, n):
    pts = rng.normal(size=(n, 2))
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    kmat = np.exp(-sq)
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    y[0], y[1] = 1.0, -1.0  # force both classes
    return kmat, y


def _dual(kmat, y, alphas):
    v = alphas * y
    return alphas.sum() - 0.5 * v @ kmat @ v


def test_smo_reaches_loop_oracle_dual_within_box_balance_and_kkt():
    rng = np.random.default_rng(4)
    for trial in range(10):
        n = int(rng.integers(4, 16))
        kmat, y = _random_smo_problem(rng, n)
        for c_arr in (
            np.full(n, 1.0 if trial % 2 == 0 else 0.3),
            np.where(y > 0, 2.0, 0.25),
            rng.uniform(0.1, 2.0, size=n),
        ):
            for tol in (1e-3, 1e-5):
                alphas, _, _ = accel.smo_solve(kmat, y, c_arr, tol)
                assert np.all(alphas >= 0.0)
                assert np.all(alphas <= c_arr)
                assert abs(np.dot(alphas, y)) <= 1e-12
                assert helpers.smo_kkt_gap(kmat, y, c_arr, alphas) <= tol
            # Both solvers stop early; at tol 1e-5 neither stops far enough
            # from the optimum for the loop solver to come out ahead.
            oracle, _, _ = helpers._smo_loops(
                kmat, y, c_arr, 1e-5, 5, helpers.lcg_seed_state(trial)
            )
            want = _dual(kmat, y, oracle)
            assert _dual(kmat, y, alphas) >= want - 1e-9 * abs(want)


def _zz_smo_problem(rng, n):
    """The Gram of zz-embedded two-moons-like points and their labels."""
    t = rng.uniform(0.0, np.pi, size=n)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    pts = np.stack([np.cos(t) + (y < 0), np.sin(t) * y - 0.25 * (y < 0)], axis=1)
    pts += rng.normal(scale=0.2, size=pts.shape)
    spec = FeatureMapSpec(ZZ, 2, repetitions=2, entanglement=RING)
    return accel.fidelity_gram(qkernel.embedding_matrix(spec, pts)), y


def test_smo_fused_selection_bitwise_equal_two_pass_oracle():
    rng = np.random.default_rng(8)
    problems = [_random_smo_problem(rng, n) for n in (2, 5, 16, 40)]
    problems += [_zz_smo_problem(rng, n) for n in (60, 200)]
    for kmat, y in problems:
        n = len(y)
        for c_arr in (np.ones(n), np.where(y > 0, 1.0, 3.0), rng.uniform(0.1, 2.0, size=n)):
            for tol in (1e-3, 1e-6):
                alphas, bias, iterations = accel.smo_solve(kmat, y, c_arr, tol)
                want = helpers.smo_solve_two_pass(kmat, y, c_arr, tol)
                assert alphas.tobytes() == want[0].tobytes()
                assert (bias, iterations) == want[1:]
    assert iterations > 100


def test_smo_first_step_takes_second_order_pair_lower_pair_on_tie(monkeypatch):
    # At alpha = 0 every violation is equal, so the gain -b^2/a alone picks
    # the partner: the sample with the largest kernel entry.  The pair
    # anchored at the I_up maximiser (0) is (0, 3); the mirror pair
    # anchored at the I_low minimiser (2) is (1, 2).  Their gains tie
    # exactly, and the lower index pair wins, for either labelling.
    kmat = np.array([
        [1.0, 0.3, 0.1, 0.5],
        [0.3, 1.0, 0.5, 0.1],
        [0.1, 0.5, 1.0, 0.3],
        [0.5, 0.1, 0.3, 1.0],
    ])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    monkeypatch.setattr(accel, "smo_iteration_bound", lambda n: 1)
    for labels in (y, -y):
        alphas, _, iterations = accel.smo_solve(kmat, labels, np.ones(4), 1e-3)
        assert iterations == 1
        np.testing.assert_array_equal(np.flatnonzero(alphas), [0, 3])


def _run_traced(func, call):
    """(``call()``, the line numbers of ``func`` that it executed)."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is func.__code__ else None)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, seen


def test_smo_lower_clips_keep_an_opposite_label_pair_feasible():
    # On this problem opposite-label steps overshoot below 0 on either side
    # and are clipped there: the ``a_j < 0`` and ``a_i < 0`` branches.
    kmat, y = _random_smo_problem(np.random.default_rng(1094), 16)
    c_arr = np.full(16, 10.0)
    source, first = inspect.getsourcelines(accel._smo_step)
    clips = {
        first + k
        for k, line in enumerate(source)
        if line.strip() in ("a_j, a_i = 0.0, diff", "a_i, a_j = 0.0, -diff")
    }
    assert len(clips) == 2
    (alphas, _, _), ran = _run_traced(
        accel._smo_step, lambda: accel.smo_solve(kmat, y, c_arr, 1e-3)
    )
    assert clips <= ran
    assert np.all(alphas >= 0.0) and np.all(alphas <= c_arr)
    assert abs(np.dot(alphas, y)) <= 1e-12
    assert helpers.smo_kkt_gap(kmat, y, c_arr, alphas) < 1e-3


def test_smo_respects_per_sample_box():
    rng = np.random.default_rng(5)
    kmat, y = _random_smo_problem(rng, 12)
    c_arr = np.where(y > 0, 0.25, 2.0)
    alphas, _, _ = accel.smo_solve(kmat, y, c_arr, 1e-4)
    assert np.all(alphas >= 0.0)
    assert np.all(alphas <= c_arr + 1e-12)
