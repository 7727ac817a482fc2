"""Hot numeric kernels, one numpy implementation each.

Gate application, fidelity matrices and the SMO dual solver.
Element-wise loop versions of the gate kernels in ``tests/helpers.py``
are the oracles they are tested against; the SMO solver is checked
against the dual reached by the random-partner loop solver kept there,
and bit for bit against the two-pass working-set selection kept there.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


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


# Parity of each bit pattern of a qubit pair.
PARITY = np.array([[0, 1], [1, 0]])


# ---------------------------------------------------------------------------
# Fidelity matrices.  states is (n, dim) complex128 with unit rows; the
# result holds |<s_i|s_j>|^2.  The cross kernel is one complex BLAS matmul
# per block of a-rows.  The Gram is built from two real BLAS products:
# Re<a|b> is the dot product of the interleaved (re, im) rows, x @ x.T on
# one array so that numpy takes its symmetric (syrk) path, and Im<a|b> is
# m - m.T with m = re @ im.T, for which the rows are rewritten in place to
# [re | im] and back, so no copy of either part is held.  OpenBLAS picks
# its kernels by shape, not stride, so m is one product and no block is a
# single row (numpy's matrix-vector path): the bits are those of the
# whole-matrix products.  The Gram is exactly symmetric as built: syrk
# fills its lower triangle from its upper, and m - m.T is exactly
# antisymmetric, since IEEE a - b is -(b - a).
# ---------------------------------------------------------------------------

_BLOCK = 1 << 16  # entries of a block of rows: 1 MiB of complex128


def row_blocks(n, width):
    """The blocks of every row-blocked loop: slices of ``n`` rows of ``width``
    entries, about _BLOCK entries a slice, one row only when ``n`` is 1."""
    starts = list(range(0, n - 1, max(2, _BLOCK // width))) or [0]
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def fidelity_gram(states):
    """The rows of ``states`` are rewritten in place while it runs and then
    restored; a read-only or non-contiguous input is copied first."""
    states = np.require(states, np.complex128, ["C", "W"])
    dim = states.shape[1]
    x = states.view(np.float64)
    _parts_apart(x, True)
    try:
        imag = x[:, :dim] @ x[:, dim:].T
    finally:
        _parts_apart(x, False)
    imag = imag - imag.T
    g = x @ x.T
    imag *= imag
    g *= g
    g += imag
    return g


def _parts_apart(x, apart):
    """Rewrite the rows of the (n, 2 * dim) float view ``x`` in place, a
    quarter block at a time, from (re, im) pairs to [re | im] or back."""
    dim = x.shape[1] // 2
    halves, pairs = (np.s_[:, :dim], np.s_[:, dim:]), (np.s_[:, 0::2], np.s_[:, 1::2])
    to, frm = (halves, pairs) if apart else (pairs, halves)
    for rows in row_blocks(len(x), 4 * dim):
        block = x[rows].copy()
        for t, f in zip(to, frm):
            x[rows][t] = block[f]


def fidelity_cross(a_states, b_states, out=None):
    """|<a_i|b_j>|^2 into ``out`` (a new array when None), a-rows by block."""
    out = np.empty((len(a_states), len(b_states))) if out is None else out
    for rows in row_blocks(len(a_states), max(a_states.shape[1], len(b_states))):
        inner = a_states[rows].conj() @ b_states.T
        np.square(inner.real, out=out[rows])
        out[rows] += np.square(inner.imag)
    return out


# ---------------------------------------------------------------------------
# SMO dual solver over a precomputed kernel matrix.
#
# LIBSVM's SMO with second-order working-set selection (WSS2; Fan, Chen &
# Lin, JMLR 6:1889, 2005) on the dual min 1/2 a'Qa - e'a, Q_ij =
# y_i y_j K_ij, 0 <= a_i <= c_arr[i], y'a = 0.  The gradient G = Qa - e
# is cached and updated from two kernel rows per step.  With v = -y G,
# the pair is taken from I_up = {a_t < C_t, y_t = +1 or a_t > 0, y_t = -1}
# and I_low (the same with the signs of y swapped); the solve stops when
# max(v | I_up) - min(v | I_low) < tol.
#
# Selection is label-symmetric: the WSS2 pair anchored at the I_up
# maximiser and the mirror pair anchored at the I_low minimiser are both
# scored, in one pass over a (2, n) array, the larger gain wins (exact
# ties: the lower (min, max) index pair) and the pair is updated in
# ascending index order.  A partner t of the first anchor needs t in I_low
# and v_t < m, the second t in I_up and v_t > M: for finite v, exactly the
# candidates whose gap m - v_t or v_t - M is positive.  A step changes
# alphas only at its pair, so I_up and I_low are updated there alone.
# Flipping every label swaps the two candidates, so it yields
# bitwise-equal alphas and an exactly negated bias whenever the box is the
# same for both classes.
# The box is per-sample (c_arr), which makes class weighting a caller-side
# concern.
# ---------------------------------------------------------------------------

_TAU = 1e-12


def smo_iteration_bound(n):
    """LIBSVM's cap on SMO steps for an n-row problem."""
    return max(10**7, 100 * n)


def smo_solve(kmat, y, c_arr, tol):
    """Returns (alphas, bias, iterations); iterations equals
    smo_iteration_bound(n) when the solve stopped at the bound."""
    n = kmat.shape[0]
    kdiag = kmat.diagonal()
    alphas = np.zeros(n, dtype=np.float64)
    grad = np.full(n, -1.0)
    pos = y > 0
    # I_low and I_up at alphas = 0, the partner sets of the two anchors.
    sides = np.stack([~pos, pos]) & (c_arr > 0.0)
    low, up = sides
    gap = np.empty((2, n))
    bound = smo_iteration_bound(n)
    it = 0
    while True:
        v = -y * grad
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(v_up.argmax())
        j = int(v_low.argmin())
        m, big_m = v_up[i], v_low[j]
        if m - big_m < tol or it >= bound:
            break
        # Row 0 scores the partners of i, row 1 those of j, by the
        # second-order gain -gap^2 / a.
        ij = np.array([i, j])
        a = kdiag[ij, None] + kdiag - 2.0 * kmat[ij]
        a[a <= 0.0] = _TAU
        np.subtract(m, v, out=gap[0])
        np.subtract(v, big_m, out=gap[1])
        score = np.where(sides & (gap > 0.0), -(gap * gap) / a, np.inf)
        ti, tj = score.argmin(axis=1).tolist()
        gain_i, gain_j = score[0, ti], score[1, tj]
        pair_i = (min(i, ti), max(i, ti))
        pair_j = (min(j, tj), max(j, tj))
        if gain_i < gain_j or (gain_i == gain_j and pair_i <= pair_j):
            p, q = pair_i
        else:
            p, q = pair_j
        _smo_step(p, q, kmat, kdiag, y, c_arr, alphas, grad)
        for t in (p, q):
            below, above = alphas[t] < c_arr[t], alphas[t] > 0.0
            up[t], low[t] = (below, above) if pos[t] else (above, below)
        it += 1
    free = up & low
    bias = v[free].mean() if free.any() else (m + big_m) / 2.0
    return alphas, float(bias), it


def _smo_step(i, j, kmat, kdiag, y, c_arr, alphas, grad):
    """Solve the two-variable subproblem on (i, j) with LIBSVM's clipping
    to the boxes [0, c_arr[i]] x [0, c_arr[j]]; updates alphas and grad."""
    c_i, c_j = c_arr[i], c_arr[j]
    old_i, old_j = alphas[i], alphas[j]
    a_i, a_j = old_i, old_j
    quad = kdiag[i] + kdiag[j] - 2.0 * kmat[i, j]
    if quad <= 0.0:
        quad = _TAU
    if y[i] != y[j]:
        delta = (-grad[i] - grad[j]) / quad
        diff = a_i - a_j
        a_i += delta
        a_j += delta
        if diff > 0.0:
            if a_j < 0.0:
                a_j, a_i = 0.0, diff
        elif a_i < 0.0:
            a_i, a_j = 0.0, -diff
        if diff > c_i - c_j:
            if a_i > c_i:
                a_i, a_j = c_i, c_i - diff
        elif a_j > c_j:
            a_j, a_i = c_j, c_j + diff
    else:
        delta = (grad[i] - grad[j]) / quad
        total = a_i + a_j
        a_i -= delta
        a_j += delta
        if total > c_i:
            if a_i > c_i:
                a_i, a_j = c_i, total - c_i
        elif a_j < 0.0:
            a_j, a_i = 0.0, total
        if total > c_j:
            if a_j > c_j:
                a_j, a_i = c_j, total - c_j
        elif a_i < 0.0:
            a_i, a_j = 0.0, total
    alphas[i], alphas[j] = a_i, a_j
    grad += y * ((y[i] * (a_i - old_i)) * kmat[i] + (y[j] * (a_j - old_j)) * kmat[j])
