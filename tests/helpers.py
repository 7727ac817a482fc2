"""Shared test oracles.

Everything here is an independent re-derivation used to cross-check the
package: full-matrix circuit simulation via Kronecker products, the
closed-form product kernel for per-qubit RY embeddings, an
exhaustive feasible-grid search of the SVM dual, element-wise loop
versions of the gate kernels in ``qkml.accel``, the per-view parity
phase and the layer-by-layer zz embedding, the complex-matmul fidelity
Gram, the one-shot real-arithmetic Gram and cross kernel that the blocked
``qkml.accel`` forms must match byte for byte, the strptime date parser, the random-partner SMO
loop whose dual ``qkml.accel.smo_solve`` must match or beat and the
two-pass working-set selection it must match bit for bit, a
dot-product Z expectation, and
the one-feature-at-a-time tree builder and per-row tree walk that
``qkml.trees`` must match node for node, the dense-net training loop
that ``qkml.hybrid`` must match bit for bit, and the row-by-row feature
engineering that ``qkml.dataset.engineer_features`` must match byte for
byte.
"""

import itertools
import math
from datetime import datetime
from typing import Tuple

import numpy as np

from qkml import accel, dataset
from qkml import statevector as sv
from qkml import trees
from qkml.feature_maps import entangled_pairs
from qkml.hybrid import DenseNet, TrainConfig, TrainHistory

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


def _embed_1q(u: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Lift a 2x2 operator to 2^n x 2^n; qubit 0 is the LSB of the index."""
    full = np.eye(2 ** (n - 1 - qubit), dtype=np.complex128)
    full = np.kron(full, u)
    return np.kron(full, np.eye(2**qubit, dtype=np.complex128))


def _rot(kind: str, theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    if kind == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == "ry":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "rz":
        return np.array(
            [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]],
            dtype=np.complex128,
        )
    raise ValueError(kind)


def gate_unitary(gate, n: int) -> np.ndarray:
    """Explicit 2^n x 2^n matrix for one gate."""
    if gate.kind == "h":
        return _embed_1q(_H, gate.targets[0], n)
    if gate.kind in ("rx", "ry", "rz"):
        return _embed_1q(_rot(gate.kind, gate.angle), gate.targets[0], n)
    control, target = gate.targets
    flip = _X if gate.kind == "cnot" else _Z
    return _embed_1q(_P0, control, n) + _embed_1q(_P1, control, n) @ _embed_1q(
        flip, target, n
    )


def circuit_unitary(circuit) -> np.ndarray:
    """Product of the per-gate matrices, in application order."""
    n = circuit.num_qubits
    full = np.eye(2**n, dtype=np.complex128)
    for gate in circuit.gates:
        full = gate_unitary(gate, n) @ full
    return full


def brute_run(circuit, amplitudes=None) -> np.ndarray:
    """Simulate by explicit matrix-vector products."""
    if amplitudes is None:
        amplitudes = np.zeros(2**circuit.num_qubits, dtype=np.complex128)
        amplitudes[0] = 1.0
    return circuit_unitary(circuit) @ amplitudes


def random_circuit(rng, num_qubits: int, n_gates: int):
    """Mixed random circuit over the full gate set."""
    gates = []
    kinds = ["h", "rx", "ry", "rz", "cnot", "cz"]
    n_kinds = len(kinds) if num_qubits > 1 else 4  # 2-qubit gates need 2 qubits
    for _ in range(n_gates):
        kind = kinds[int(rng.integers(n_kinds))]
        if kind == "h":
            gates.append(sv.h(int(rng.integers(num_qubits))))
        elif kind in ("rx", "ry", "rz"):
            ctor = {"rx": sv.rx, "ry": sv.ry, "rz": sv.rz}[kind]
            gates.append(
                ctor(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(num_qubits)))
            )
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            ctor = sv.cnot if kind == "cnot" else sv.cz
            gates.append(ctor(int(a), int(b)))
    return sv.Circuit(num_qubits, tuple(gates))


def angle_y_kernel(x, x_prime) -> float:
    """Closed form for the per-qubit RY embedding kernel."""
    x = np.asarray(x, dtype=np.float64)
    x_prime = np.asarray(x_prime, dtype=np.float64)
    return float(np.prod(np.cos((x - x_prime) / 2.0) ** 2))


def best_root_split(x, y, min_leaf: int = 1):
    """Exhaustive enumeration of (feature, midpoint) split candidates.

    Scores use the same arithmetic shape as the implementation under
    test so exact-tie cases resolve identically: ascending feature, then
    ascending threshold, first strict improvement wins.  Returns
    (score, feature, threshold) or None when nothing is admissible.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = y.shape[0]
    best = None
    for f in range(x.shape[1]):
        vals = np.unique(x[:, f])
        for lo_v, hi_v in zip(vals[:-1], vals[1:]):
            thr = (lo_v + hi_v) / 2.0
            mask = x[:, f] <= thr
            nl = int(mask.sum())
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            lo = float(y[mask].sum())
            lz = float(nl) - lo
            ro = float(y[~mask].sum())
            rz = float(nr) - ro
            pl, pr = float(nl), float(nr)
            score = (
                pl * (1.0 - (lz * lz + lo * lo) / (pl * pl))
                + pr * (1.0 - (rz * rz + ro * ro) / (pr * pr))
            ) / float(n)
            if best is None or score < best[0]:
                best = (score, f, thr)
    return best


def grid_oracle_best(kmat, y_signed, c: float, step: float = 0.01) -> float:
    """Maximum dual objective over the feasible grid.

    Enumerates the first n-1 alphas on the step grid and solves the last
    one from the balance constraint sum(alpha_i * y_i) = 0 in integer
    grid units, so only exactly feasible points are scored.
    """
    y = np.asarray(y_signed, dtype=np.int64)
    n = y.shape[0]
    m = int(round(c / step)) + 1
    q = np.asarray(kmat, dtype=np.float64) * np.outer(y, y)
    shape = (m,) * (n - 1)
    total = m ** (n - 1)
    best = -np.inf
    chunk = 200_000
    for lo in range(0, total, chunk):
        flat = np.arange(lo, min(lo + chunk, total))
        digits = np.stack(np.unravel_index(flat, shape), axis=1)
        balance = digits @ y[:-1]
        last = -balance * y[-1]
        ok = (last >= 0) & (last < m)
        if not ok.any():
            continue
        units = np.concatenate([digits[ok], last[ok, None]], axis=1)
        alphas = units * step
        obj = alphas.sum(axis=1) - 0.5 * np.einsum(
            "bi,ij,bj->b", alphas, q, alphas
        )
        best = max(best, float(obj.max()))
    return best


# -- element-wise loop oracles for qkml.accel ---------------------------------
# Same arithmetic, same order, one amplitude or one row at a time: the
# numpy kernels must match them bit for bit.


def _apply_1q_loops(amps, target, u):
    """Bitwise equal to ``accel.apply_single_qubit_rows`` on a 1-row block
    for real 2x2 ``u`` only.

    With complex entries (RX, RZ) the scalar complex products here and the
    ufunc products there can differ in the last bits; compare those to a
    tolerance.
    """
    n = amps.shape[0]
    out = np.empty_like(amps)
    step = 1 << target
    for base in range(0, n, step << 1):
        for off in range(step):
            i0 = base + off
            i1 = i0 + step
            a = amps[i0]
            b = amps[i1]
            out[i0] = u[0, 0] * a + u[0, 1] * b
            out[i1] = u[1, 0] * a + u[1, 1] * b
    return out


def _apply_cnot_loops(amps, control, target):
    n = amps.shape[0]
    out = amps.copy()
    cbit = 1 << control
    tbit = 1 << target
    for i in range(n):
        if i & cbit and not i & tbit:
            j = i | tbit
            out[i] = amps[j]
            out[j] = amps[i]
    return out


def _apply_cz_loops(amps, control, target):
    n = amps.shape[0]
    out = amps.copy()
    cbit = 1 << control
    tbit = 1 << target
    for i in range(n):
        if i & cbit and i & tbit:
            out[i] = -amps[i]
    return out


# -- per-view zz oracle for qkml.feature_maps ------------------------------------
# Every zz layer applied to |0...0> rows in turn, with the dense H kernel
# and one multiply per bit-pattern view for each phase:
# ``feature_maps.embed_rows`` must match it to 1e-12.


def parity_phase_views(states, qubits, phases):
    """Multiply each amplitude by phases[:, p], p the parity of its bits at
    ``qubits`` (one qubit or a pair), one multiply per bit-pattern view."""
    for bits in itertools.product((0, 1), repeat=len(qubits)):
        view = accel._bits_view(states, dict(zip(qubits, bits)))
        view[...] = accel._per_row(phases[:, sum(bits) % 2], view) * view


def embed_zz_layers(spec, rows):
    """zz states of an (n, q) row matrix, every repetition applied gate
    layer by gate layer to |0...0> rows: H, then RZ per qubit, then the
    pair phases, each phase by ``parity_phase_views``."""
    x = np.asarray(rows, dtype=np.float64)
    states = sv.zero_rows(x.shape[0], spec.num_qubits)
    hadamard = sv.single_qubit_matrix(sv.h(0))
    qubit_phases = sv.rz_phases(x)
    pairs = entangled_pairs(spec.num_qubits, spec.entanglement)
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    pair_phases = sv.rz_phases((math.pi - x[:, i]) * (math.pi - x[:, j]))
    for _ in range(spec.repetitions):
        for q in range(spec.num_qubits):
            accel.apply_single_qubit_rows(states, q, hadamard)
        for q in range(spec.num_qubits):
            parity_phase_views(states, (q,), qubit_phases[:, q])
        for p, pair in enumerate(pairs):
            parity_phase_views(states, pair, pair_phases[:, p])
    return states


# -- fidelity and date oracles ------------------------------------------------
# The Gram as one complex BLAS matmul: ``accel.fidelity_gram`` builds it
# from real products and must match it to 1e-12.  The Gram and cross
# kernel as whole-matrix products on contiguous copies: the blocked forms
# in ``accel`` must match their bytes.  The strptime loop over
# every date format: ``dataset._parse_date`` must give the same date or
# raise the same exception with the same message.


def fidelity_gram_complex(states):
    """|<s_i|s_j>|^2 from conj(states) @ states.T, upper triangle copied
    onto the lower."""
    inner = states.conj() @ states.T
    g = inner.real**2 + inner.imag**2
    low = np.tril_indices(g.shape[0], -1)
    g[low] = g.T[low]
    return g


def fidelity_gram_one_shot(states):
    """The Gram from whole contiguous copies of the real and imaginary
    parts, in one product each, its lower triangle copied from its upper
    through index arrays; ``accel.fidelity_gram`` must match its bytes,
    so it is exactly symmetric with no mirror pass of its own."""
    states = np.ascontiguousarray(states, dtype=np.complex128)
    re, im = states.real.copy(), states.imag.copy()
    imag = re @ im.T
    del re, im
    imag = imag - imag.T
    x = states.view(np.float64)
    g = x @ x.T
    imag *= imag
    g *= g
    g += imag
    low = np.tril_indices(len(g), -1)
    g[low] = g.T[low]
    return g


def fidelity_cross_one_shot(a_states, b_states):
    """The cross kernel as one complex matmul over every a-row;
    ``accel.fidelity_cross`` must match its bytes."""
    inner = a_states.conj() @ b_states.T
    return inner.real**2 + inner.imag**2


def parse_date_strptime(cell):
    """A date cell through ``datetime.strptime`` alone; None when blank."""
    text = cell.strip()
    if not text:
        return None
    for fmt in dataset._DATE_FORMATS:
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise ValueError(f"unparseable date {cell!r}")


# -- feature-engineering oracle -----------------------------------------------
# The row-by-row loop that ``dataset.engineer_features`` replaced by
# column-wise parsing: every feature of every row, in spec order, through
# the one-cell parsers below.  The column-wise version must give the same
# features bytes, labels and summary, and raise the same errors.


def parse_number_cell(cell):
    """A numeric cell as a finite float; None when blank, raises otherwise."""
    text = cell.strip().replace("$", "").replace(",", "").replace(" ", "")
    if text in ("", "-"):
        return None
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {cell!r}")
    return value


def engineer_features_rows(table, config):
    """``dataset.engineer_features`` one row and one feature at a time."""
    status_col = table.column_index(config.status_column)
    col_idx = {}
    for spec in config.features:
        for name in filter(None, (spec.column, spec.start, spec.end)):
            col_idx[name] = table.column_index(name)

    freq_maps = {}
    n_total = len(table.rows)
    for spec in config.features:
        if spec.type == "frequency":
            counts = {}
            for row in table.rows:
                key = row[col_idx[spec.column]].strip()
                counts[key] = counts.get(key, 0) + 1
            freq_maps[spec.name] = {k: v / n_total for k, v in counts.items()}

    rows_out = []
    labels = []
    dropped_blank = 0
    dropped_bad = 0
    for row in table.rows:
        status = row[status_col].strip().lower()
        if status in dataset.STATUS_EXIT:
            label = 1
        elif status in dataset.STATUS_CLOSED:
            label = 0
        else:
            raise ValueError(
                f"status {status!r} survived filtering but has no label mapping"
            )
        values = []
        drop_row = False
        for spec in config.features:
            if spec.type == "frequency":
                values.append(freq_maps[spec.name][row[col_idx[spec.column]].strip()])
                continue
            try:
                if spec.type == "numeric":
                    v = parse_number_cell(row[col_idx[spec.column]])
                else:
                    start = parse_date_strptime(row[col_idx[spec.start]])
                    end = parse_date_strptime(row[col_idx[spec.end]])
                    v = (
                        None
                        if start is None or end is None
                        else float((end - start).days)
                    )
            except ValueError:
                dropped_bad += 1
                drop_row = True
                break
            if v is None:
                if spec.blank == dataset.BLANK_DROP:
                    dropped_blank += 1
                    drop_row = True
                    break
                v = 0.0
            values.append(v)
        if drop_row:
            continue
        rows_out.append(values)
        labels.append(label)

    if not rows_out:
        raise ValueError(
            f"feature engineering dropped all {n_total} rows "
            f"(blank: {dropped_blank}, unparseable: {dropped_bad})"
        )
    names = tuple(spec.name for spec in config.features)
    ds = dataset.Dataset(
        np.asarray(rows_out, dtype=np.float64),
        np.asarray(labels, dtype=np.int64),
        names,
    )
    summary = {
        "rows_in": n_total,
        "rows_out": ds.n_rows,
        "dropped_blank": dropped_blank,
        "dropped_unparseable": dropped_bad,
        "feature_names": list(names),
    }
    return ds, summary


def z_expectation_dot(amps, qubit):
    """<Z_qubit> as one dot product of +-1 signs with the probabilities."""
    idx = np.arange(amps.shape[0])
    probs = np.abs(amps) ** 2
    signs = 1.0 - 2.0 * ((idx >> qubit) & 1)
    return float(np.dot(signs, probs))


# -- random-partner SMO: the dual that qkml.accel.smo_solve must reach ----------
# Platt-style sweeps over every row, the partner index drawn from a fixed
# 31-bit LCG, stopping after `max_passes` sweeps without a change or at
# the sweep cap.  The package's solver was this algorithm before it moved
# to second-order working-set selection.

_LCG_MOD = 2147483648  # 2^31
_LCG_MUL = 1103515245
_LCG_INC = 12345
_SMO_SWEEP_CAP = 20000
_SMO_MIN_STEP = 1e-7


def lcg_seed_state(seed: int) -> int:
    """Fold an arbitrary Python int seed into the LCG state range."""
    return (int(seed) ^ 0x5DEECE66D) % _LCG_MOD


def _smo_loops(kmat, y, c_arr, tol, max_passes, lcg_state):
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
            for k in range(n):
                f[k] = f[k] + (di * kmat[i, k] + dj * kmat[j, k])
            alphas[i] = ai_new
            alphas[j] = aj_new
            changed += 1
        if changed == 0:
            clean += 1
        else:
            clean = 0
    return alphas, b, sweeps


def _wss2_partner(anchor, cand, gap, kdiag, kmat):
    """Best second index for `anchor` over the `cand` mask, scored by the
    second-order gain -gap^2 / a; returns (index, gain)."""
    a = kdiag[anchor] + kdiag - 2.0 * kmat[anchor]
    a[a <= 0.0] = accel._TAU
    score = np.where(cand, -(gap * gap) / a, np.inf)
    t = int(score.argmin())
    return t, score[t]


def smo_solve_two_pass(kmat, y, c_arr, tol):
    """``accel.smo_solve`` with each anchor's partner scored in a pass of
    its own and I_up, I_low rebuilt at every step: the bitwise oracle of
    the fused selection."""
    n = kmat.shape[0]
    kdiag = kmat.diagonal()
    alphas = np.zeros(n, dtype=np.float64)
    grad = np.full(n, -1.0)
    pos = y > 0
    bound = accel.smo_iteration_bound(n)
    it = 0
    while True:
        v = -y * grad
        below = alphas < c_arr
        above = alphas > 0.0
        up = np.where(pos, below, above)
        low = np.where(pos, above, below)
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(v_up.argmax())
        j = int(v_low.argmin())
        m, big_m = v_up[i], v_low[j]
        if m - big_m < tol or it >= bound:
            break
        ti, gain_i = _wss2_partner(i, low & (v < m), m - v, kdiag, kmat)
        tj, gain_j = _wss2_partner(j, up & (v > big_m), v - big_m, kdiag, kmat)
        pair_i = (min(i, ti), max(i, ti))
        pair_j = (min(j, tj), max(j, tj))
        if gain_i < gain_j or (gain_i == gain_j and pair_i <= pair_j):
            p, q = pair_i
        else:
            p, q = pair_j
        accel._smo_step(p, q, kmat, kdiag, y, c_arr, alphas, grad)
        it += 1
    free = up & low
    bias = v[free].mean() if free.any() else (m + big_m) / 2.0
    return alphas, float(bias), it


# -- tree oracles for qkml.trees ------------------------------------------------
# One argsort and one split scan per feature per node, and one row walked
# down one tree at a time: the array builder and router must reproduce
# these node for node and row for row.


def _scan_split_loops(values, labels, min_leaf):
    n = values.shape[0]
    if n < 2:
        return np.inf, 0.0, 0
    ones = np.cumsum(labels)
    total_one = int(ones[-1])
    p = np.arange(1, n)
    boundary = values[1:] > values[:-1]
    admissible = boundary & (p >= min_leaf) & (n - p >= min_leaf)
    if not admissible.any():
        return np.inf, 0.0, 0
    lo = ones[:-1].astype(np.float64)
    lz = p.astype(np.float64) - lo
    ro = float(total_one) - lo
    rz = (n - p).astype(np.float64) - ro
    pl = p.astype(np.float64)
    pr = (n - p).astype(np.float64)
    nf = float(n)
    with np.errstate(invalid="ignore"):
        score = (
            pl * (1.0 - (lz * lz + lo * lo) / (pl * pl))
            + pr * (1.0 - (rz * rz + ro * ro) / (pr * pr))
        ) / nf
    score = np.where(admissible, score, np.inf)
    best = int(np.argmin(score))
    thr = (values[best] + values[best + 1]) / 2.0
    return float(score[best]), float(thr), 1


def _build_loops(x, y, depth, config, rng, mtry):
    n = y.shape[0]
    ones = int(y.sum())
    zeros = n - ones
    if (
        ones == 0
        or zeros == 0
        or depth >= config.max_depth
        or n < config.min_samples_split
    ):
        return trees.TreeNode((zeros, ones), int(ones > zeros))

    d = x.shape[1]
    if mtry is not None and mtry < d:
        feats = np.sort(rng.choice(d, size=mtry, replace=False))
    else:
        feats = np.arange(d)

    best_score = math.inf
    best_feat = -1
    best_thr = 0.0
    for fidx in feats:
        col = x[:, fidx]
        order = np.argsort(col, kind="stable")
        score, thr, found = _scan_split_loops(
            np.ascontiguousarray(col[order]),
            np.ascontiguousarray(y[order]),
            config.min_samples_leaf,
        )
        if found and score < best_score:
            best_score = score
            best_feat = int(fidx)
            best_thr = float(thr)

    if best_feat < 0 or not best_score < trees._node_impurity(zeros, ones):
        return trees.TreeNode((zeros, ones), int(ones > zeros))

    mask = x[:, best_feat] <= best_thr
    left = _build_loops(x[mask], y[mask], depth + 1, config, rng, mtry)
    right = _build_loops(x[~mask], y[~mask], depth + 1, config, rng, mtry)
    return trees.TreeNode(
        class_counts=(zeros, ones),
        predicted_class=1 if ones > zeros else 0,
        feature_index=best_feat,
        threshold=best_thr,
        left=left,
        right=right,
    )


def train_tree_loops(features, labels, config=trees.TreeConfig(),
                     feature_subset_seed=None, mtry=None):
    x, y = trees._check_xy(features, labels)
    rng = None
    if mtry is not None and mtry < x.shape[1]:
        rng = np.random.default_rng(
            0 if feature_subset_seed is None else feature_subset_seed
        )
    return _build_loops(x, y, 0, config, rng, mtry)


def train_forest_loops(features, labels, tree_config=trees.TreeConfig(),
                       forest_config=trees.ForestConfig()):
    x, y = trees._check_xy(features, labels)
    n, d = x.shape
    mtry = forest_config.mtry
    if mtry is None:
        mtry = int(math.ceil(math.sqrt(d)))
    mtry = min(mtry, d)
    out = []
    for t in range(forest_config.n_trees):
        rng = np.random.default_rng(forest_config.seed + t)
        if forest_config.bootstrap:
            idx = rng.integers(0, n, size=n)
            xt, yt = x[idx], y[idx]
        else:
            xt, yt = x, y
        out.append(_build_loops(xt, yt, 0, tree_config, rng, mtry if mtry < d else None))
    return trees.ForestModel(tuple(out), tree_config, forest_config)


def predict_tree_walk(tree, row) -> int:
    vec = np.asarray(row, dtype=np.float64)
    node = tree
    while not node.is_leaf:
        node = node.left if vec[node.feature_index] <= node.threshold else node.right
    return node.predicted_class


def tree_depth_recursive(tree) -> int:
    """Edges on the longest root-to-leaf path, by recursion."""
    if tree.is_leaf:
        return 0
    return 1 + max(tree_depth_recursive(tree.left), tree_depth_recursive(tree.right))


def predict_forest_walk(model, row) -> int:
    votes = sum(predict_tree_walk(t, row) for t in model.trees)
    return 1 if 2 * votes > len(model.trees) else 0


def smo_kkt_gap(kmat, y, c_arr, alphas) -> float:
    """max(v | I_up) - min(v | I_low) with v = y - K (alpha y), computed
    afresh from the alphas; the SVM dual is solved when it is <= 0."""
    v = y - np.asarray(kmat) @ (alphas * y)
    below = alphas < c_arr
    above = alphas > 0.0
    up = np.where(y > 0, below, above)
    low = np.where(y > 0, above, below)
    return float(v[up].max() - v[low].min())


# -- dense-net oracle ---------------------------------------------------------
# The dense network's forward pass, softmax, loss, backprop and SGD loop as
# they were before ``qkml.hybrid`` computed each quantity once per pass:
# every step builds a DenseNet and computes a discarded loss, and each epoch
# runs four full forward passes.  ``qkml.hybrid`` must match it bit for bit.


def _forward_oracle(net: DenseNet, x: np.ndarray):
    """Returns (pre-activations, activations); ReLU hidden, linear head."""
    zs = []
    acts = [x]
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        zs.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        acts.append(a)
    return zs, acts


def predict_proba_oracle(net: DenseNet, features) -> np.ndarray:
    """Row-wise softmax over the head logits."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    _, acts = _forward_oracle(net, x)
    logits = acts[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def predict_classes_oracle(net: DenseNet, features) -> np.ndarray:
    return predict_proba_oracle(net, features).argmax(axis=1).astype(np.int64)


def cross_entropy_oracle(net: DenseNet, features, labels) -> float:
    """Mean softmax cross-entropy, computed in log-sum-exp form."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64)
    _, acts = _forward_oracle(net, x)
    logits = acts[-1]
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(x.shape[0]), y]))


def loss_and_gradients_oracle(net: DenseNet, features, labels):
    """(loss, weight grads, bias grads) for one batch."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    zs, acts = _forward_oracle(net, x)
    logits = acts[-1]
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), y]))
    probs = np.exp(logits - lse[:, None])
    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    for layer in range(len(net.weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (zs[layer - 1] > 0.0)
    return loss, grads_w, grads_b


def _accuracy_of_oracle(net, x, y) -> float:
    return float((predict_classes_oracle(net, x) == y).mean())


def train_dense_oracle(
    net: DenseNet,
    features,
    labels,
    config: TrainConfig = TrainConfig(),
    val_features=None,
    val_labels=None,
) -> Tuple[DenseNet, TrainHistory]:
    """Mini-batch SGD; returns the trained net and its history."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features/labels shape mismatch")
    if x.shape[1] != net.sizes[0]:
        raise ValueError(
            f"net expects {net.sizes[0]} inputs, data has {x.shape[1]}"
        )
    has_val = val_features is not None
    if has_val:
        xv = np.asarray(val_features, dtype=np.float64)
        yv = np.asarray(val_labels, dtype=np.int64)
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    n = x.shape[0]
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            current = DenseNet(net.sizes, tuple(weights), tuple(biases))
            _, gw, gb = loss_and_gradients_oracle(current, x[idx], y[idx])
            for layer in range(len(weights)):
                weights[layer] -= config.learning_rate * gw[layer]
                biases[layer] -= config.learning_rate * gb[layer]
        current = DenseNet(net.sizes, tuple(weights), tuple(biases))
        loss = cross_entropy_oracle(current, x, y)
        if not np.isfinite(loss):
            raise ValueError(
                f"training diverged: non-finite loss after epoch {epoch + 1} "
                f"(learning_rate={config.learning_rate})"
            )
        history.train_loss.append(loss)
        history.train_acc.append(_accuracy_of_oracle(current, x, y))
        if has_val:
            history.val_loss.append(cross_entropy_oracle(current, xv, yv))
            history.val_acc.append(_accuracy_of_oracle(current, xv, yv))
    return DenseNet(net.sizes, tuple(weights), tuple(biases)), history
