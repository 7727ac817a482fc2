"""Quanvolutional preprocessing plus a small dense softmax network.

The quanvolution slides a width-w window over each 1-d feature vector
(step = stride).  Each window is encoded by the angle_y feature map
(``feature_maps.embed_rows``, one RY angle per value on a w-qubit
register), then its frozen random circuit (seeded RY layer + CNOT chain,
repeated ``layers`` times) runs, and the per-qubit Z expectations are the
window's outputs, so each vector maps to num_windows * w values in
[-1, 1].  The circuit parameters are drawn once from ``circuit_seed``
and are never trained.  ``quanv_transform_batch`` simulates the
registers of all (row, window) pairs together as row blocks; each output
equals that window's circuit run on its own with ``run_circuit``.

The classifier is a fully connected ReLU network with a 2-way softmax
head, trained by mini-batch SGD on cross-entropy from a seeded
Xavier-uniform init and seeded epoch shuffles.  ``compare_hybrid`` trains
its two arms as one stack of nets on the same minibatches, so each step
runs one forward pass and one backprop for both.  The parameters of both
arms are views of one flat buffer and their gradients views of a second,
written with ``out=``, so the update is one call.  numpy runs a stacked
matmul as the same gemm per arm that a 2-d matmul runs; the first layer
keeps one matrix per arm, as the input widths differ and a product
zero-padded to a common width does not keep every bit.  The head's max,
label pick and argmax go column by column, exact for every width.  So
each arm is bit for bit what ``train_dense``, the one-arm case, gives it
alone, and a diverging arm raises what it raises alone: the classical
arm at once, the hybrid arm once the classical arm has finished.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import accel
from .artifacts import cast_fields, cast_value
from .dataset import Dataset, check_labels
from .feature_maps import ANGLE_Y, FeatureMapSpec, embed_rows
from .statevector import Circuit, cnot, ry, run_circuit_rows, z_expectation_rows
from .statevector import run_circuit  # not called here; tracing tools patch it by module and name


@dataclass(frozen=True)
class QuanvSpec:
    """Window geometry and frozen-circuit parameters."""

    window: int = 4
    stride: int = 4
    layers: int = 1
    circuit_seed: int = 0

    def __post_init__(self):
        cast_fields(self, window=1, stride=1, layers=0, circuit_seed=0)


def build_quanv_circuit(spec: QuanvSpec) -> Circuit:
    """The frozen mixing circuit (no data-encoding gates).

    Per layer: one seeded RY on every qubit (angles uniform on
    [0, 2*pi)), then a CNOT chain (q, q+1).  ``layers=0`` gives an empty
    circuit, i.e. the transform reduces to plain RY readout.
    """
    rng = np.random.default_rng(spec.circuit_seed)
    gates = []
    for _ in range(spec.layers):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=spec.window)
        for q in range(spec.window):
            gates.append(ry(angles[q], q))
        for q in range(spec.window - 1):
            gates.append(cnot(q, q + 1))
    return Circuit(spec.window, tuple(gates))


def quanv_output_width(spec: QuanvSpec, n_features: int) -> int:
    if n_features < spec.window:
        raise ValueError(f"need at least window={spec.window} features, got {n_features}")
    return ((n_features - spec.window) // spec.stride + 1) * spec.window


def quanv_transform(spec: QuanvSpec, x) -> np.ndarray:
    """Expectation readout of every window of one feature vector."""
    vec = np.asarray(x, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {vec.shape}")
    return quanv_transform_batch(spec, vec[None])[0]


def quanv_transform_batch(spec: QuanvSpec, features) -> np.ndarray:
    """Transform every row; the (row, window) registers are simulated
    together, a block at a time."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {x.shape}")
    width = quanv_output_width(spec, x.shape[1])
    w = spec.window
    mix = build_quanv_circuit(spec)
    encode = FeatureMapSpec(ANGLE_Y, w, 1)
    windows = sliding_window_view(x, w, axis=1)[:, :: spec.stride].reshape(-1, w)
    out = np.empty((windows.shape[0], w), dtype=np.float64)
    for block in accel.row_blocks(len(windows), 4 << w):
        states = embed_rows(encode, windows[block])
        run_circuit_rows(mix, states)
        out[block] = z_expectation_rows(states)
    return out.reshape(x.shape[0], width)


# -- dense network ------------------------------------------------------------


@dataclass(frozen=True)
class DenseNet:
    """Layer sizes plus weight/bias arrays (weights[i]: sizes[i] x sizes[i+1])."""

    sizes: tuple
    weights: tuple = field(repr=False)
    biases: tuple = field(repr=False)


def init_dense(sizes, seed: int = 0) -> DenseNet:
    """Xavier-uniform weights, zero biases, drawn layer by layer."""
    sizes = cast_value(Tuple[int, ...], tuple(sizes), "sizes")
    if len(sizes) < 2:
        raise ValueError("need at least input and output layer sizes")
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be >= 1, got {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return DenseNet(sizes, tuple(weights), tuple(biases))


def _stack(nets):
    """Copies of the weights and biases of k nets alike past the input, as views
    of one flat buffer.  Returns (weights, biases, buffer): weights lists the k
    first matrices, then one (k, fan_in, fan_out) array per later layer, and
    biases holds one (k, 1, fan_out) array per layer."""
    parts = [net.weights[0] for net in nets]
    parts += [np.stack(layer) for layer in zip(*(net.weights[1:] for net in nets))]
    parts += [np.stack(layer)[:, None] for layer in zip(*(net.biases for net in nets))]
    flat = np.concatenate([p.ravel() for p in parts])
    ends = itertools.accumulate(p.size for p in parts)
    views = [flat[end - p.size : end].reshape(p.shape) for p, end in zip(parts, ends)]
    k, first_bias = len(nets), len(parts) - len(nets[0].biases)
    return [views[:k]] + views[k:first_bias], views[first_bias:], flat


def _unstack(weights, biases, arm: int):
    """Arm ``arm``'s weights and biases out of a stack."""
    return (weights[0][arm], *(w[arm] for w in weights[1:])), tuple(b[arm, 0] for b in biases)


def _forward(weights, biases, xs) -> list:
    """Activations of every layer of a stack, input first; ReLU hidden, linear
    head.  ``xs`` lists each arm's input rows, later activations are (k, rows, width)."""
    z = np.empty((len(xs), xs[0].shape[0], biases[0].shape[-1]))
    for x, w, out in zip(xs, weights[0], z):
        np.matmul(x, w, out=out)
    acts = [xs]
    for i, b in enumerate(biases):
        if i:
            z = acts[-1] @ weights[i]
        z += b
        acts.append(z if i == len(biases) - 1 else np.maximum(z, 0.0, out=z))
    return acts


def _log_sum_exp(logits: np.ndarray):
    """(log-sum-exp, exp(logits - max), their sum) over the last axis, with
    keepdims; the softmax probabilities are the second over the third."""
    # Exact in any order, and many times faster than numpy's row-by-row max of a short axis.
    m = functools.reduce(np.maximum, [logits[..., j : j + 1] for j in range(logits.shape[-1])])
    expd = np.exp(logits - m)
    # Not column by column: from 8 terms on, numpy sums an axis pairwise.
    total = np.add.reduce(expd, axis=-1, keepdims=True)
    return m + np.log(total), expd, total


def _evaluate(weights, biases, xs, y) -> list:
    """Each arm's (mean cross-entropy, accuracy) from one forward pass.
    Accuracy is the argmax of the probabilities, not of the logits: the
    division can round two classes equal, and a tie goes to the first class,
    as does a row of NaN probabilities."""
    logits = _forward(weights, biases, xs)[-1]
    lse, expd, total = _log_sum_exp(logits)
    probs = expd / total
    picked, best, cls = logits[..., 0], probs[..., 0], np.zeros(probs.shape[:-1], np.int64)
    for j in range(1, logits.shape[-1]):  # column by column, exact for every width
        picked = np.where(y == j, logits[..., j], picked)
        better = probs[..., j] > best
        best, cls = np.where(better, probs[..., j], best), np.where(better, j, cls)
    # The row sum of a 2-d array and np.mean of each row round alike.
    losses = np.add.reduce(lse[..., 0] - picked, axis=-1) / y.shape[0]
    hits = np.count_nonzero(cls == y, axis=-1) / y.shape[0]
    return list(zip(losses.tolist(), hits.tolist()))


def _gradients(weights, biases, xs, onehot, grads_w, grads_b):
    """Write the weight and bias grads of each arm's mean cross-entropy on one
    batch into ``grads_w`` and ``grads_b``, laid out as the stack; ``onehot``
    is the batch's one-hot labels."""
    acts = _forward(weights, biases, xs)
    # From the log-sum-exp, not the probabilities (they round differently).
    delta = np.exp(acts[-1] - _log_sum_exp(acts[-1])[0])
    delta -= onehot
    delta /= onehot.shape[0]
    for layer in range(len(biases) - 1, 0, -1):
        np.matmul(acts[layer].swapaxes(1, 2), delta, out=grads_w[layer])
        np.add.reduce(delta, axis=1, keepdims=True, out=grads_b[layer])
        delta = delta @ weights[layer].swapaxes(1, 2)
        delta *= acts[layer] > 0.0  # acts[layer] = relu(z) is > 0 exactly where z is
    for x, d, g in zip(xs, delta, grads_w[0]):
        np.matmul(x.T, d, out=g)
    np.add.reduce(delta, axis=1, keepdims=True, out=grads_b[0])


def _rows(features) -> np.ndarray:
    return np.atleast_2d(np.asarray(features, dtype=np.float64))


def predict_proba(net: DenseNet, features) -> np.ndarray:
    """Row-wise softmax over the head logits."""
    _, expd, total = _log_sum_exp(_forward(*_stack([net])[:2], [_rows(features)])[-1][0])
    return expd / total


def predict_classes(net: DenseNet, features) -> np.ndarray:
    return predict_proba(net, features).argmax(axis=1).astype(np.int64)


def cross_entropy(net: DenseNet, features, labels) -> float:
    """Mean softmax cross-entropy, computed in log-sum-exp form."""
    return _evaluate(*_stack([net])[:2], [_rows(features)], check_labels(labels))[0][0]


def loss_and_gradients(net: DenseNet, features, labels):
    """(loss, weight grads, bias grads) for one batch."""
    x, y = _rows(features), check_labels(labels)
    grads_w, grads_b, _ = _stack([net])  # a fresh buffer per call, overwritten
    _gradients(*_stack([net])[:2], [x], np.eye(net.sizes[-1])[y], grads_w, grads_b)
    grads_w, grads_b = _unstack(grads_w, grads_b, 0)
    return cross_entropy(net, x, y), list(grads_w), list(grads_b)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 0.05
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        cast_fields(self, epochs=1, batch_size=1, seed=0)
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class TrainHistory:
    """Per-epoch evaluations of the whole sets (val lists empty without validation)."""

    train_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)


def train_dense(
    net: DenseNet, features, labels, config: TrainConfig = TrainConfig(),
    val_features=None, val_labels=None,
) -> Tuple[DenseNet, TrainHistory]:
    """Mini-batch SGD; returns the trained net and its history."""
    val = None if val_features is None else [val_features]
    return _train_arms([net], [features], labels, config, val, val_labels)[0]


def _train_arms(nets, inputs, labels, config: TrainConfig, val_inputs=None, val_labels=None):
    """Train net i on ``inputs[i]`` for every i in one loop; returns a (net,
    history) pair per arm.  An arm whose loss turns non-finite stops its
    history; the error is the first such arm's, raised at once for arm 0
    and otherwise once every earlier arm has finished."""
    y = check_labels(labels)
    xs = [np.asarray(x, dtype=np.float64) for x in inputs]
    for net, x in zip(nets, xs):
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("features/labels shape mismatch")
        if x.shape[1] != net.sizes[0]:
            raise ValueError(f"net expects {net.sizes[0]} inputs, data has {x.shape[1]}")
    sets = [(xs, y)]
    if val_inputs is not None:
        sets.append(([_rows(x) for x in val_inputs], check_labels(val_labels)))
    if not all(len(set_labels) for _, set_labels in sets):
        raise ValueError("training needs at least one train row and, if given, one validation row")
    weights, biases, params = _stack(nets)
    grads_w, grads_b, grads = _stack(nets)  # the same layout, overwritten each step
    onehot = np.eye(nets[0].sizes[-1])[y]
    rng = np.random.default_rng(config.seed)
    curves = [[] for _ in nets]  # per arm, one (loss, acc[, val loss, val acc]) per epoch
    diverged = {}  # arm -> the epoch after which its loss was not finite
    n, step = y.shape[0], config.batch_size
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(n)
        shuffled, hot = [x.take(perm, axis=0) for x in xs], onehot.take(perm, axis=0)
        for lo in range(0, n, step):
            batch = [x[lo : lo + step] for x in shuffled]
            _gradients(weights, biases, batch, hot[lo : lo + step], grads_w, grads_b)
            params -= np.multiply(grads, config.learning_rate, out=grads)
        for arm, row in enumerate(zip(*(_evaluate(weights, biases, *s) for s in sets))):
            if arm in diverged or not np.isfinite(row[0][0]):
                diverged.setdefault(arm, epoch)
            else:
                curves[arm].append(sum(row, ()))
        if 0 in diverged:
            break
    if diverged:
        raise ValueError(f"training diverged: non-finite loss after epoch "
                         f"{diverged[min(diverged)]} (learning_rate={config.learning_rate})")
    return [
        (DenseNet(net.sizes, *_unstack(weights, biases, arm)), TrainHistory(*map(list, zip(*r))))
        for arm, (net, r) in enumerate(zip(nets, curves))
    ]


def compare_hybrid(
    train_ds: Dataset, val_ds: Dataset, quanv: QuanvSpec, hidden=(16,),
    config: TrainConfig = TrainConfig(),
) -> dict:
    """Train the same dense architecture on raw features (classical arm) and
    on quanvolved features (hybrid arm) with identical seeds, both in one
    loop; returns both histories plus the trained nets, keyed by arm name."""
    hidden = cast_value(Tuple[int, ...], hidden, "hidden")
    # Quanvolve first, so a bad window fails before any arm trains.
    train = [train_ds.features, quanv_transform_batch(quanv, train_ds.features)]
    val = [val_ds.features, quanv_transform_batch(quanv, val_ds.features)]
    nets = [init_dense((x.shape[1],) + hidden + (2,), seed=config.seed) for x in train]
    trained = _train_arms(nets, train, train_ds.labels, config, val, val_ds.labels)
    arms = zip(("classical", "hybrid"), trained)
    return {arm: {"net": net, "history": hist} for arm, (net, hist) in arms}


def curves_csv(arms: dict) -> str:
    """Long-format training curves: epoch, arm, losses and accuracies."""
    lines = ["epoch,arm,train_loss,train_acc,val_loss,val_acc"]
    for arm in sorted(arms):
        hist = arms[arm]["history"]
        for e in range(len(hist.train_loss)):
            vl = repr(hist.val_loss[e]) if hist.val_loss else ""
            va = repr(hist.val_acc[e]) if hist.val_acc else ""
            lines.append(f"{e},{arm},{hist.train_loss[e]!r},{hist.train_acc[e]!r},{vl},{va}")
    return "\n".join(lines) + "\n"
