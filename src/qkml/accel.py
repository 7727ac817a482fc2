"""Hot numeric kernels, one numpy implementation each.

Gate application, fidelity matrices, the SMO dual solver and the Gini
split scan.  Element-wise loop versions of the gate and SMO kernels and a
one-feature-at-a-time split scan in ``tests/helpers.py`` are the oracles
they are tested against.
"""

from __future__ import annotations

import itertools

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# Reproducible integer stream for SMO's second-index choice.
#
# A fixed 31-bit LCG rather than numpy's Generator.  It pins the SMO
# partner sequence, so trained alphas, and with them the c03/c04 results
# and the byte-identical reports, stay what they are.  Replacing the
# random-partner sweep (and this stream with it) by second-order working
# set selection is a separate solver change.
# ---------------------------------------------------------------------------

_LCG_MOD = 2147483648  # 2^31
_LCG_MUL = 1103515245
_LCG_INC = 12345


def seed_to_state(seed: int) -> int:
    """Fold an arbitrary Python int seed into the LCG state range."""
    return (int(seed) ^ 0x5DEECE66D) % _LCG_MOD


def _lcg_next(state):
    return (_LCG_MUL * state + _LCG_INC) % _LCG_MOD


# ---------------------------------------------------------------------------
# Gate kernels.  states is a C-contiguous (rows, 2^n) complex128 block
# holding one register per row (qubit q is bit q of the basis index) and
# is updated in place; a single register is the 1-row block.  Every
# amplitude gets the same floating-point operations in the same operand
# order (scalar first) whatever the row count, so each row comes out bit
# for bit equal to running that row on its own.  A diagonal phase skips
# the zero off-diagonal terms of the dense 2x2 form, so an amplitude that
# is exactly zero can differ from that form in its sign.
# ---------------------------------------------------------------------------


def _bits_view(states, fixed):
    """View of the amplitudes whose basis index has bit q == b for every
    (q, b) in `fixed`; axis 0 stays the row axis."""
    rows, dim = states.shape
    n = dim.bit_length() - 1
    index = [slice(None)] * (n + 1)
    for q, b in fixed.items():
        index[n - q] = b
    return states.reshape((rows,) + (2,) * n)[tuple(index)]


def _per_row(values, view):
    """A (rows,) or (1,) array shaped to broadcast against `view`."""
    return values.reshape((-1,) + (1,) * (view.ndim - 1))


def apply_single_qubit_rows(states, target, u):
    """u is one (2, 2) unitary for every row or a (rows, 2, 2) stack."""
    u = u.reshape(-1, 2, 2)
    a = _bits_view(states, {target: 0})
    b = _bits_view(states, {target: 1})
    u00, u01, u10, u11 = (_per_row(u[:, i, j], a) for i in (0, 1) for j in (0, 1))
    top = u00 * a
    top += u01 * b
    # A fresh product, not np.multiply(..., out=b): numpy may pick another
    # loop for the aliased output and round differently on small views.
    bottom = u11 * b
    bottom += u10 * a
    a[...] = top
    b[...] = bottom


def apply_cnot_rows(states, control, target):
    lo = _bits_view(states, {control: 1, target: 0})
    hi = _bits_view(states, {control: 1, target: 1})
    swap = lo.copy()
    lo[...] = hi
    hi[...] = swap


def apply_cz_rows(states, control, target):
    both = _bits_view(states, {control: 1, target: 1})
    np.negative(both, out=both)


def apply_parity_phase_rows(states, qubits, phases):
    """Multiply each amplitude by phases[:, p], p the parity of its bits
    at `qubits`; phases is (rows, 2).  One qubit gives RZ; a pair (i, j)
    gives CNOT(i, j) RZ_j CNOT(i, j), whose CNOTs only permute."""
    for bits in itertools.product((0, 1), repeat=len(qubits)):
        view = _bits_view(states, dict(zip(qubits, bits)))
        view[...] = _per_row(phases[:, sum(bits) % 2], view) * view


# ---------------------------------------------------------------------------
# Fidelity matrices.  states is (n, dim) complex128 with unit rows; the
# result holds |<s_i|s_j>|^2 from one BLAS matmul.  The Gram copies its
# upper triangle onto the lower so the output is exactly symmetric.
# ---------------------------------------------------------------------------


def fidelity_gram(states):
    g = fidelity_cross(states, states)
    low = np.tril_indices(g.shape[0], -1)
    g[low] = g.T[low]
    return g


def fidelity_cross(a_states, b_states):
    inner = a_states.conj() @ b_states.T
    return inner.real**2 + inner.imag**2


# ---------------------------------------------------------------------------
# SMO dual solver over a precomputed kernel matrix.
#
# Simplified two-multiplier SMO: sweep all rows, analytically update a
# violating pair (the partner drawn from the LCG stream), keep the cached
# margin vector f = K @ (alpha * y) incremental.  The box constraint is
# per-sample (c_arr), which makes class weighting a caller-side concern.
# Terminates after `max_passes` consecutive sweeps without a change, or
# at the hard sweep cap (safety net; reported back to the caller).
# ---------------------------------------------------------------------------

_SMO_SWEEP_CAP = 20000
_SMO_MIN_STEP = 1e-7


def smo_solve(kmat, y, c_arr, tol, max_passes, lcg_state):
    n = kmat.shape[0]
    alphas = np.zeros(n, dtype=np.float64)
    f = np.zeros(n, dtype=np.float64)
    b = 0.0
    state = lcg_state
    clean = 0
    sweeps = 0
    while clean < max_passes and sweeps < _SMO_SWEEP_CAP:
        sweeps += 1
        changed = 0
        for i in range(n):
            e_i = f[i] + b - y[i]
            r_i = y[i] * e_i
            if not (
                (r_i < -tol and alphas[i] < c_arr[i])
                or (r_i > tol and alphas[i] > 0.0)
            ):
                continue
            state = (_LCG_MUL * state + _LCG_INC) % _LCG_MOD
            j = state % (n - 1)
            if j >= i:
                j += 1
            e_j = f[j] + b - y[j]
            ai_old = alphas[i]
            aj_old = alphas[j]
            c_i = c_arr[i]
            c_j = c_arr[j]
            if y[i] != y[j]:
                lo = max(0.0, aj_old - ai_old)
                hi = min(c_j, c_i + aj_old - ai_old)
            else:
                lo = max(0.0, ai_old + aj_old - c_i)
                hi = min(c_j, ai_old + aj_old)
            if lo >= hi:
                continue
            eta = kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j]
            if eta <= 0.0:
                continue
            aj_new = aj_old + y[j] * (e_i - e_j) / eta
            if aj_new < lo:
                aj_new = lo
            elif aj_new > hi:
                aj_new = hi
            if abs(aj_new - aj_old) < _SMO_MIN_STEP:
                continue
            ai_new = ai_old + y[i] * y[j] * (aj_old - aj_new)
            b1 = (
                b
                - e_i
                - y[i] * (ai_new - ai_old) * kmat[i, i]
                - y[j] * (aj_new - aj_old) * kmat[i, j]
            )
            b2 = (
                b
                - e_j
                - y[i] * (ai_new - ai_old) * kmat[i, j]
                - y[j] * (aj_new - aj_old) * kmat[j, j]
            )
            if 0.0 < ai_new < c_i:
                b = b1
            elif 0.0 < aj_new < c_j:
                b = b2
            else:
                b = (b1 + b2) / 2.0
            di = y[i] * (ai_new - ai_old)
            dj = y[j] * (aj_new - aj_old)
            f += di * kmat[i] + dj * kmat[j]
            alphas[i] = ai_new
            alphas[j] = aj_new
            changed += 1
        if changed == 0:
            clean += 1
        else:
            clean = 0
    return alphas, b, sweeps


# ---------------------------------------------------------------------------
# Best Gini split over k candidate feature columns, each sorted ascending.
#
# Split positions sit at boundaries between distinct consecutive values;
# the threshold is their midpoint, samples with value <= threshold go
# left.  Every admissible position of every row is scored in one pass and
# the first strict minimum in feature-major order wins, so equal scores
# resolve to the lowest row, then the lowest threshold.  Returns (score, threshold,
# row) where score is the weighted child impurity; row is -1 when no
# admissible split exists.
# ---------------------------------------------------------------------------


def scan_best_split(values, labels, min_leaf):
    """Scan a sorted ``(k, n)`` value block and its row-aligned 0/1 labels.

    A 1-d column and its labels are the ``k = 1`` case.
    """
    values = np.atleast_2d(values)
    labels = np.atleast_2d(labels)
    n = values.shape[1]
    # Position p puts the first p rows left; only p in [first, last]
    # leaves min_leaf rows on each side.
    first, last = min_leaf, n - min_leaf
    boundary = values[:, first:last + 1] > values[:, first - 1:last]
    if not boundary.any():
        return np.inf, 0.0, -1
    ones = labels.cumsum(axis=1)
    lo = ones[:, first - 1:last].astype(np.float64)
    pl = np.arange(first, last + 1, dtype=np.float64)
    pr = n - pl
    lz = pl - lo
    ro = ones[:, -1:] - lo
    rz = pr - ro
    score = (
        pl * (1.0 - (lz * lz + lo * lo) / (pl * pl))
        + pr * (1.0 - (rz * rz + ro * ro) / (pr * pr))
    ) / n
    row, pos = divmod(int(np.where(boundary, score, np.inf).argmin()), last - first + 1)
    p = first + pos
    thr = (values[row, p - 1] + values[row, p]) / 2.0
    return float(score[row, pos]), float(thr), row
