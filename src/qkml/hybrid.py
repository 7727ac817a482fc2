"""Quanvolutional preprocessing plus a small dense softmax network.

The quanvolution slides a width-w window over each 1-d feature vector
(step = stride).  Window values enter a w-qubit register as RY angles,
a frozen random circuit (seeded RY layer + CNOT chain, repeated
``layers`` times) mixes them, and the per-qubit Z expectations are the
window's outputs, so each vector maps to num_windows * w values in
[-1, 1].  The circuit parameters are drawn once from ``circuit_seed``
and are never trained.  ``quanv_transform_batch`` simulates the
registers of all (row, window) pairs together as row blocks; each output
equals that window's circuit run on its own with ``run_circuit``.

The classifier is a fully connected ReLU network with a 2-way softmax
head, trained by mini-batch SGD on cross-entropy.  Training is a pure
function of (data, config): Xavier-uniform init and epoch shuffling both
come from seeded generators.  Each step runs one forward pass and
backprop on the weight lists, and each epoch one forward pass per
evaluated set (train, and validation when given), whose loss and
accuracy come from one softmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifacts import cast_fields, cast_value
from .dataset import Dataset, check_labels
from .statevector import (
    Circuit,
    block_rows,
    cnot,
    run_circuit,  # not called here; tracing tools patch it by module and name
    run_circuit_rows,
    ry,
    ry_layer_rows,
    z_expectation_rows,
    zero_rows,
)


@dataclass(frozen=True)
class QuanvSpec:
    """Window geometry and frozen-circuit parameters."""

    window: int = 4
    stride: int = 4
    layers: int = 1
    circuit_seed: int = 0

    def __post_init__(self):
        cast_fields(self, window=1, stride=1, layers=0)


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
        raise ValueError(
            f"need at least window={spec.window} features, got {n_features}"
        )
    n_windows = (n_features - spec.window) // spec.stride + 1
    return n_windows * spec.window


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
    windows = sliding_window_view(x, w, axis=1)[:, :: spec.stride].reshape(-1, w)
    out = np.empty((windows.shape[0], w), dtype=np.float64)
    step = block_rows(w)
    for lo in range(0, windows.shape[0], step):
        block = windows[lo : lo + step]
        states = zero_rows(block.shape[0], w)
        ry_layer_rows(states, block)
        run_circuit_rows(mix, states)
        out[lo : lo + step] = z_expectation_rows(states)
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
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise ValueError("need at least input and output layer sizes")
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be >= 1, got {sizes}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return DenseNet(sizes, tuple(weights), tuple(biases))


def _forward(weights, biases, x: np.ndarray) -> list:
    """Activations of every layer, input first; ReLU hidden, linear head."""
    acts = [x]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b
        acts.append(z if i == last else np.maximum(z, 0.0))
    return acts


def _softmax(logits: np.ndarray):
    """(row-wise softmax, row-wise log-sum-exp) of the head logits."""
    m = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - m)
    total = expd.sum(axis=1, keepdims=True)
    return expd / total, (m + np.log(total))[:, 0]


def _evaluate(weights, biases, x, y):
    """(mean cross-entropy, accuracy) from one forward pass.  Accuracy is
    the argmax of the probabilities, not of the logits: the division can
    round two classes equal, and a tie goes to class 0."""
    logits = _forward(weights, biases, x)[-1]
    probs, lse = _softmax(logits)
    loss = float(np.mean(lse - logits[np.arange(x.shape[0]), y]))
    return loss, float((probs.argmax(axis=1) == y).mean())


def _gradients(weights, biases, x, y):
    """(weight grads, bias grads) of the mean cross-entropy on one batch."""
    n = x.shape[0]
    acts = _forward(weights, biases, x)
    logits = acts[-1]
    # From the log-sum-exp, not the softmax probabilities: they round differently.
    delta = np.exp(logits - _softmax(logits)[1][:, None])
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            # acts[layer] = relu(z) is > 0 exactly where z is.
            delta = (delta @ weights[layer].T) * (acts[layer] > 0.0)
    return grads_w, grads_b


def _batch(features, labels):
    return (
        np.atleast_2d(np.asarray(features, dtype=np.float64)),
        check_labels(labels),
    )


def predict_proba(net: DenseNet, features) -> np.ndarray:
    """Row-wise softmax over the head logits."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return _softmax(_forward(net.weights, net.biases, x)[-1])[0]


def predict_classes(net: DenseNet, features) -> np.ndarray:
    return predict_proba(net, features).argmax(axis=1).astype(np.int64)


def cross_entropy(net: DenseNet, features, labels) -> float:
    """Mean softmax cross-entropy, computed in log-sum-exp form."""
    return _evaluate(net.weights, net.biases, *_batch(features, labels))[0]


def loss_and_gradients(net: DenseNet, features, labels):
    """(loss, weight grads, bias grads) for one batch."""
    x, y = _batch(features, labels)
    grads_w, grads_b = _gradients(net.weights, net.biases, x, y)
    return cross_entropy(net, x, y), grads_w, grads_b


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 0.05
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        cast_fields(self, epochs=1, batch_size=1)
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class TrainHistory:
    """Per-epoch full-dataset evaluations (val lists empty without a
    validation set)."""

    train_loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)


def train_dense(
    net: DenseNet,
    features,
    labels,
    config: TrainConfig = TrainConfig(),
    val_features=None,
    val_labels=None,
) -> Tuple[DenseNet, TrainHistory]:
    """Mini-batch SGD; returns the trained net and its history."""
    x = np.asarray(features, dtype=np.float64)
    y = check_labels(labels)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("features/labels shape mismatch")
    if x.shape[1] != net.sizes[0]:
        raise ValueError(
            f"net expects {net.sizes[0]} inputs, data has {x.shape[1]}"
        )
    has_val = val_features is not None
    if has_val:
        xv, yv = _batch(val_features, val_labels)
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    n = x.shape[0]
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            gw, gb = _gradients(weights, biases, x[idx], y[idx])
            for layer in range(len(weights)):
                weights[layer] -= config.learning_rate * gw[layer]
                biases[layer] -= config.learning_rate * gb[layer]
        loss, acc = _evaluate(weights, biases, x, y)
        if not np.isfinite(loss):
            raise ValueError(
                f"training diverged: non-finite loss after epoch {epoch + 1} "
                f"(learning_rate={config.learning_rate})"
            )
        history.train_loss.append(loss)
        history.train_acc.append(acc)
        if has_val:
            loss, acc = _evaluate(weights, biases, xv, yv)
            history.val_loss.append(loss)
            history.val_acc.append(acc)
    return DenseNet(net.sizes, tuple(weights), tuple(biases)), history


def compare_hybrid(
    train_ds: Dataset,
    val_ds: Dataset,
    quanv: QuanvSpec,
    hidden=(16,),
    config: TrainConfig = TrainConfig(),
) -> dict:
    """Train the same dense architecture on raw features (classical arm)
    and on quanvolved features (hybrid arm) with identical seeds.

    Returns both histories plus the trained nets, keyed by arm name.
    """
    hidden = cast_value(Tuple[int, ...], hidden, "hidden")
    # Quanvolve first, so a bad window fails before the classical arm trains.
    inputs = {
        "classical": (train_ds.features, val_ds.features),
        "hybrid": (
            quanv_transform_batch(quanv, train_ds.features),
            quanv_transform_batch(quanv, val_ds.features),
        ),
    }
    arms = {}
    for name, (x_train, x_val) in inputs.items():
        net = init_dense((x_train.shape[1],) + hidden + (2,), seed=config.seed)
        net, history = train_dense(net, x_train, train_ds.labels, config, x_val, val_ds.labels)
        arms[name] = {"net": net, "history": history}
    return arms


def curves_csv(arms: dict) -> str:
    """Long-format training curves: epoch, arm, losses and accuracies."""
    lines = ["epoch,arm,train_loss,train_acc,val_loss,val_acc"]
    for arm in sorted(arms):
        hist = arms[arm]["history"]
        for e in range(len(hist.train_loss)):
            vl = repr(hist.val_loss[e]) if hist.val_loss else ""
            va = repr(hist.val_acc[e]) if hist.val_acc else ""
            lines.append(
                f"{e},{arm},{hist.train_loss[e]!r},{hist.train_acc[e]!r},{vl},{va}"
            )
    return "\n".join(lines) + "\n"
