"""Quanvolutional preprocessing and the dense classifier head."""

import itertools
import math

import numpy as np
import pytest

import helpers
from qkml.dataset import Dataset
from qkml.hybrid import (
    DenseNet,
    QuanvSpec,
    TrainConfig,
    build_quanv_circuit,
    compare_hybrid,
    cross_entropy,
    curves_csv,
    init_dense,
    loss_and_gradients,
    predict_classes,
    predict_proba,
    quanv_output_width,
    quanv_transform,
    quanv_transform_batch,
    train_dense,
)


# -- quanv circuit ------------------------------------------------------------


@pytest.mark.parametrize("make, message", [
    (lambda: QuanvSpec(circuit_seed=-1), "circuit_seed must be >= 0, got -1"),
    (lambda: TrainConfig(seed=-1), "seed must be >= 0, got -1"),
], ids=["quanv-circuit-seed", "train-seed"])
def test_a_negative_seed_is_refused_with_its_name(make, message):
    # Before, both were taken and the first draw failed inside numpy.
    with pytest.raises(ValueError, match=message):
        make()


def test_quanv_spec_validation():
    QuanvSpec(layers=0)  # degenerate depth is allowed
    with pytest.raises(ValueError):
        QuanvSpec(window=0)
    with pytest.raises(ValueError):
        QuanvSpec(stride=0)
    with pytest.raises(ValueError):
        QuanvSpec(layers=-1)


def test_zero_layer_circuit_is_empty():
    circ = build_quanv_circuit(QuanvSpec(window=3, layers=0))
    assert circ.gates == ()
    assert circ.num_qubits == 3


def test_circuit_same_seed_identical():
    a = build_quanv_circuit(QuanvSpec(window=3, layers=2, circuit_seed=9))
    b = build_quanv_circuit(QuanvSpec(window=3, layers=2, circuit_seed=9))
    assert a.gates == b.gates
    c = build_quanv_circuit(QuanvSpec(window=3, layers=2, circuit_seed=10))
    assert c.gates != a.gates


def test_circuit_gate_counts():
    circ = build_quanv_circuit(QuanvSpec(window=2, layers=1))
    kinds = [g.kind for g in circ.gates]
    assert kinds == ["ry", "ry", "cnot"]
    deep = build_quanv_circuit(QuanvSpec(window=3, layers=2))
    assert [g.kind for g in deep.gates] == ["ry", "ry", "ry", "cnot", "cnot"] * 2


# -- quanv transform ----------------------------------------------------------


def test_zero_patch_zero_layers_gives_plus_one():
    out = quanv_transform(QuanvSpec(window=3, stride=1, layers=0), np.zeros(5))
    assert out.shape == (9,)
    assert out == pytest.approx(np.ones(9), abs=1e-15)


def test_outputs_bounded_by_one():
    rng = np.random.default_rng(2)
    spec = QuanvSpec(window=3, stride=2, layers=2, circuit_seed=4)
    for _ in range(5):
        out = quanv_transform(spec, rng.uniform(0, math.pi, size=9))
        assert np.all(out <= 1.0 + 1e-12)
        assert np.all(out >= -1.0 - 1e-12)


def test_single_qubit_half_pi_reads_zero():
    out = quanv_transform(QuanvSpec(window=1, stride=1, layers=0), [math.pi / 2])
    assert abs(out[0]) < 1e-12


def test_zero_layer_window_one_is_cosine():
    x = np.array([0.3, 1.1, 2.9])
    out = quanv_transform(QuanvSpec(window=1, stride=1, layers=0), x)
    assert out == pytest.approx(np.cos(x), abs=1e-12)


def test_window_wider_than_vector_rejected():
    with pytest.raises(ValueError, match="window=4"):
        quanv_transform(QuanvSpec(window=4), np.zeros(3))
    with pytest.raises(ValueError, match="window=4"):
        quanv_output_width(QuanvSpec(window=4), 3)


def test_transform_requires_1d():
    with pytest.raises(ValueError, match="1-d"):
        quanv_transform(QuanvSpec(window=2), np.zeros((2, 2)))


def test_output_width_formula():
    assert quanv_output_width(QuanvSpec(window=4, stride=4), 17) == 16
    assert quanv_output_width(QuanvSpec(window=2, stride=1), 5) == 8
    assert quanv_output_width(QuanvSpec(window=3, stride=3), 3) == 3


def test_batch_matches_rowwise_and_threads_agree():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, math.pi, size=(7, 6))
    spec = QuanvSpec(window=2, stride=2, layers=1, circuit_seed=3)
    batch = quanv_transform_batch(spec, x)
    rows = np.vstack([quanv_transform(spec, row) for row in x])
    assert np.array_equal(batch, rows)
    with pytest.raises(ValueError, match="2-d"):
        quanv_transform_batch(spec, np.zeros(4))


def _per_window_path(spec, x):
    """Each window run as its own gate-level circuit (the reference)."""
    from qkml import statevector as sv

    mix = build_quanv_circuit(spec)
    w = spec.window
    out = []
    for row in x:
        vals = []
        for pos in range(0, x.shape[1] - w + 1, spec.stride):
            encode = tuple(sv.ry(float(row[pos + q]), q) for q in range(w))
            state = sv.run_circuit(sv.Circuit(w, encode + mix.gates))
            vals.extend(sv.z_expectation(state, q) for q in range(w))
        out.append(vals)
    return np.array(out, dtype=np.float64)


@pytest.mark.parametrize("layers", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 6])
def test_batch_bytes_equal_per_window_path(monkeypatch, window, stride, layers):
    from qkml import accel

    # Five windows per block, so blocks end inside rows.
    monkeypatch.setattr(accel, "_BLOCK", 5 * (4 << window))
    rng = np.random.default_rng(window * 9 + stride * 3 + layers)
    x = rng.uniform(0, math.pi, size=(4, window + 5))
    x[0, :2] = 0.0
    x[1, -2:] = math.pi
    spec = QuanvSpec(window=window, stride=stride, layers=layers, circuit_seed=window)
    got = quanv_transform_batch(spec, x)
    assert got.tobytes() == _per_window_path(spec, x).tobytes()


# -- dense network ------------------------------------------------------------


def test_init_dense_shapes_and_limits():
    net = init_dense((5, 7, 2), seed=1)
    assert net.sizes == (5, 7, 2)
    assert net.weights[0].shape == (5, 7)
    assert net.weights[1].shape == (7, 2)
    assert all(np.all(b == 0.0) for b in net.biases)
    lim0 = math.sqrt(6.0 / 12)
    assert np.all(np.abs(net.weights[0]) <= lim0)
    again = init_dense((5, 7, 2), seed=1)
    assert all(
        np.array_equal(a, b) for a, b in zip(net.weights, again.weights)
    )


def test_init_dense_validation():
    with pytest.raises(ValueError, match="at least"):
        init_dense((4,))
    with pytest.raises(ValueError, match=">= 1"):
        init_dense((4, 0, 2))


def test_init_dense_sizes_pass_the_config_casting_rule():
    # Integral values of any type build the same net; nothing is truncated.
    want = init_dense((2, 4, 2), seed=3)
    for sizes in ((2, 4.0, 2), [np.int64(2), np.int64(4), 2], np.array([2, 4, 2])):
        _assert_same_net(init_dense(sizes, seed=3), want)
    with pytest.raises(ValueError, match="sizes must be an integer, got 4.7"):
        init_dense((2, 4.7, 2))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    net = init_dense((4, 6, 2), seed=2)
    probs = predict_proba(net, rng.normal(size=(10, 4)))
    assert probs.shape == (10, 2)
    assert probs.sum(axis=1) == pytest.approx(np.ones(10), abs=1e-9)
    assert np.all(probs >= 0.0)


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(4)
    net = init_dense((3, 5, 2), seed=7)
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12)
    assert cross_entropy(net, x, y) >= 0.0


def test_gradients_match_central_differences():
    rng = np.random.default_rng(11)
    net = init_dense((4, 5, 3, 2), seed=11)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 2, size=6)
    _, gw, gb = loss_and_gradients(net, x, y)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        layer = int(rng.integers(0, len(net.weights)))
        i = int(rng.integers(0, net.weights[layer].shape[0]))
        j = int(rng.integers(0, net.weights[layer].shape[1]))

        def loss_with(delta, layer=layer, i=i, j=j):
            ws = [w.copy() for w in net.weights]
            ws[layer][i, j] += delta
            return cross_entropy(DenseNet(net.sizes, tuple(ws), net.biases), x, y)

        fd = (loss_with(eps) - loss_with(-eps)) / (2 * eps)
        a = gw[layer][i, j]
        worst = max(worst, abs(fd - a) / max(abs(fd), abs(a), 1e-8))
    assert worst < 1e-4
    # Bias gradients through the same oracle.
    for layer in range(len(net.biases)):
        j = int(rng.integers(0, net.biases[layer].shape[0]))

        def loss_with_b(delta, layer=layer, j=j):
            bs = [b.copy() for b in net.biases]
            bs[layer][j] += delta
            return cross_entropy(DenseNet(net.sizes, net.weights, tuple(bs)), x, y)

        fd = (loss_with_b(eps) - loss_with_b(-eps)) / (2 * eps)
        a = gb[layer][j]
        assert abs(fd - a) / max(abs(fd), abs(a), 1e-8) < 1e-4


def _blobs(n=60, seed=5):
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [
            rng.normal(loc=(-2.0, -2.0), scale=0.5, size=(half, 2)),
            rng.normal(loc=(2.0, 2.0), scale=0.5, size=(n - half, 2)),
        ]
    )
    y = np.array([0] * half + [1] * (n - half))
    return x, y


def test_train_single_epoch_records_one_row():
    x, y = _blobs(16)
    net = init_dense((2, 4, 2), seed=0)
    _, hist = train_dense(net, x, y, TrainConfig(epochs=1))
    assert len(hist.train_loss) == 1
    assert len(hist.train_acc) == 1
    assert hist.val_loss == [] and hist.val_acc == []


def test_train_separable_blobs():
    x, y = _blobs(60)
    net = init_dense((2, 8, 2), seed=1)
    trained, hist = train_dense(net, x, y, TrainConfig(epochs=50, seed=1))
    assert hist.train_acc[-1] >= 0.95
    assert len(hist.train_loss) == 50
    assert (predict_classes(trained, x) == y).mean() >= 0.95


def test_train_records_validation_series():
    x, y = _blobs(40)
    net = init_dense((2, 4, 2), seed=2)
    _, hist = train_dense(
        net, x, y, TrainConfig(epochs=3), val_features=x[:10], val_labels=y[:10]
    )
    assert len(hist.val_loss) == 3
    assert len(hist.val_acc) == 3


def test_train_divergence_aborts_with_diagnostic():
    x, y = _blobs(20)
    net = init_dense((2, 4, 2), seed=3)
    ws = [w.copy() for w in net.weights]
    ws[0][0, 0] = np.nan
    broken = DenseNet(net.sizes, tuple(ws), net.biases)
    with pytest.raises(ValueError, match="non-finite loss after epoch 1"):
        train_dense(broken, x, y, TrainConfig(epochs=3))


def test_train_refuses_an_empty_train_or_validation_set_before_any_epoch():
    # Refused up front: a mean over zero rows would warn and then read as
    # a diverged loss.
    x, y = _blobs(10)
    net = init_dense([2, 4, 2])
    empty_x, empty_y = np.zeros((0, 2)), np.zeros(0, dtype=int)
    for call in (lambda: train_dense(net, empty_x, empty_y),
                 lambda: train_dense(net, x, y, TrainConfig(epochs=1), empty_x, empty_y)):
        with pytest.raises(ValueError, match="at least one train row"):
            call()


def test_train_shape_mismatches():
    x, y = _blobs(10)
    net = init_dense((3, 4, 2), seed=0)
    with pytest.raises(ValueError, match="expects 3 inputs"):
        train_dense(net, x, y)
    net2 = init_dense((2, 4, 2), seed=0)
    with pytest.raises(ValueError, match="mismatch"):
        train_dense(net2, x, y[:-1])


@pytest.mark.parametrize("label", [-1, 2])
def test_labels_outside_zero_one_rejected(label):
    x, y = _blobs(10)
    bad = np.array(y)
    bad[0] = label
    net = init_dense((2, 4, 2), seed=0)
    cfg = TrainConfig(epochs=1)
    for call in (
        lambda: train_dense(net, x, bad, cfg),
        lambda: train_dense(net, x, y, cfg, x, bad),
        lambda: cross_entropy(net, x, bad),
        lambda: loss_and_gradients(net, x, bad),
    ):
        with pytest.raises(ValueError, match="0/1"):
            call()


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_train_config_trains_integral_floats_as_ints():
    # A config file may spell an int as 2.0; the dataclass casts it.
    x, y = _blobs(30)
    net = init_dense((2, 4, 2), seed=4)
    cfg = TrainConfig(epochs=2.0, batch_size=8.0)
    assert cfg == TrainConfig(epochs=2, batch_size=8)
    _assert_same_training(
        train_dense(net, x, y, cfg), train_dense(net, x, y, TrainConfig(epochs=2, batch_size=8))
    )


def test_train_deterministic_per_seed():
    x, y = _blobs(30)
    net = init_dense((2, 4, 2), seed=4)
    cfg = TrainConfig(epochs=5, seed=9)
    _, h1 = train_dense(net, x, y, cfg)
    _, h2 = train_dense(net, x, y, cfg)
    assert h1.train_loss == h2.train_loss
    _, h3 = train_dense(net, x, y, TrainConfig(epochs=5, seed=10))
    assert h3.train_loss != h1.train_loss


# -- the two-arm comparison ----------------------------------------------------


def _ring_dataset(n=40, seed=6):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    r = np.where(y == 1, 2.0, 0.7) + rng.normal(scale=0.1, size=n)
    ang = rng.uniform(0, 2 * math.pi, size=n)
    x = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    x = (x - x.min()) / (x.max() - x.min()) * math.pi
    return Dataset(x, y, ("a", "b"))


def test_compare_hybrid_arm_structure():
    train = _ring_dataset(32, seed=6)
    val = _ring_dataset(16, seed=7)
    spec = QuanvSpec(window=1, stride=1, layers=0)
    arms = compare_hybrid(train, val, spec, hidden=(4,), config=TrainConfig(epochs=2))
    assert sorted(arms) == ["classical", "hybrid"]
    for arm in arms.values():
        assert len(arm["history"].train_loss) == 2
        assert len(arm["history"].val_acc) == 2
    # Identical window geometry keeps the hybrid input width at d.
    assert arms["hybrid"]["net"].sizes[0] == quanv_output_width(spec, 2)


def test_compare_hybrid_rerun_bitwise_identical():
    train = _ring_dataset(24, seed=8)
    val = _ring_dataset(12, seed=9)
    spec = QuanvSpec(window=2, stride=1, layers=1, circuit_seed=5)
    cfg = TrainConfig(epochs=3, seed=1)
    a = compare_hybrid(train, val, spec, hidden=(4,), config=cfg)
    b = compare_hybrid(train, val, spec, hidden=(4,), config=cfg)
    assert curves_csv(a) == curves_csv(b)


def test_quanv_features_frozen_across_training():
    train = _ring_dataset(20, seed=10)
    val = _ring_dataset(10, seed=11)
    spec = QuanvSpec(window=2, stride=2, layers=1, circuit_seed=2)
    before = quanv_transform_batch(spec, train.features)
    compare_hybrid(train, val, spec, hidden=(4,), config=TrainConfig(epochs=2))
    after = quanv_transform_batch(spec, train.features)
    assert before.tobytes() == after.tobytes()


def test_curves_csv_layout():
    train = _ring_dataset(20, seed=12)
    val = _ring_dataset(10, seed=13)
    arms = compare_hybrid(
        train,
        val,
        QuanvSpec(window=1, stride=1, layers=0),
        hidden=(4,),
        config=TrainConfig(epochs=2),
    )
    text = curves_csv(arms)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,arm,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("0,classical,")
    assert lines[3].startswith("0,hybrid,")
    for ln in lines[1:]:
        assert len(ln.split(",")) == 6


# -- bitwise equality with the dense-net oracle --------------------------------


def _assert_same_net(net, want):
    assert net.sizes == want.sizes
    assert len(net.weights) == len(want.weights) and len(net.biases) == len(want.biases)
    for a, b in zip(net.weights + net.biases, want.weights + want.biases):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_training(got, want):
    (net, hist), (net_o, hist_o) = got, want
    _assert_same_net(net, net_o)
    assert repr(hist) == repr(hist_o)


@pytest.mark.parametrize("with_val", [False, True])
@pytest.mark.parametrize("batch_size", [1, 7, 32, 50])
@pytest.mark.parametrize("hidden", [(), (16,), (8, 4)])
def test_train_dense_bitwise_equals_oracle(hidden, batch_size, with_val):
    rng = np.random.default_rng(len(hidden) * 100 + batch_size)
    x = rng.normal(size=(45, 5))
    y = (x[:, 0] * x[:, 1] + 0.3 * rng.normal(size=45) > 0).astype(np.int64)
    val = (x[:13] + 0.1, y[:13]) if with_val else (None, None)
    net = init_dense((5,) + hidden + (2,), seed=batch_size)
    for lr in (0.05, 0.5, 2.0):
        cfg = TrainConfig(epochs=4, learning_rate=lr, batch_size=batch_size, seed=3)
        _assert_same_training(
            train_dense(net, x, y, cfg, *val),
            helpers.train_dense_oracle(net, x, y, cfg, *val),
        )


def test_divergence_message_equals_oracle():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    net = init_dense((3, 16, 2), seed=1)
    cfg = TrainConfig(epochs=20, learning_rate=1e4, batch_size=7, seed=2)
    messages = []
    with np.errstate(all="ignore"):
        for train in (train_dense, helpers.train_dense_oracle):
            with pytest.raises(ValueError, match="non-finite loss") as err:
                train(net, x, y, cfg, x[:10], y[:10])
            messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("hidden", [(), (16,), (8, 4)])
def test_public_dense_functions_equal_oracle(hidden):
    rng = np.random.default_rng(len(hidden))
    net = init_dense((4,) + hidden + (2,), seed=5)
    x = rng.normal(scale=3.0, size=(17, 4))
    y = rng.integers(0, 2, size=17)
    assert predict_proba(net, x).tobytes() == helpers.predict_proba_oracle(net, x).tobytes()
    assert predict_proba(net, x[0]).tobytes() == helpers.predict_proba_oracle(net, x[0]).tobytes()
    assert repr(cross_entropy(net, x, y)) == repr(helpers.cross_entropy_oracle(net, x, y))
    loss, gw, gb = loss_and_gradients(net, x, y)
    loss_o, gw_o, gb_o = helpers.loss_and_gradients_oracle(net, x, y)
    assert repr(loss) == repr(loss_o)
    for a, b in zip(gw + gb, gw_o + gb_o):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("hidden", [(), (6,)])
@pytest.mark.parametrize("width", range(2, 12))
def test_dense_functions_equal_oracle_for_every_head_width(width, hidden):
    # The head's max, label pick and argmax run column by column, and its
    # softmax sum is numpy's axis sum, which turns pairwise from 8 terms on.
    rng = np.random.default_rng(width * 10 + len(hidden))
    x = rng.normal(scale=2.0, size=(37, 5))
    y = (x[:, 0] + 0.5 * rng.normal(size=37) > 0).astype(np.int64)  # labels stay 0/1
    net = init_dense((5,) + hidden + (width,), seed=width)
    assert predict_proba(net, x).tobytes() == helpers.predict_proba_oracle(net, x).tobytes()
    assert predict_classes(net, x).tolist() == helpers.predict_classes_oracle(net, x).tolist()
    assert repr(cross_entropy(net, x, y)) == repr(helpers.cross_entropy_oracle(net, x, y))
    loss, gw, gb = loss_and_gradients(net, x, y)
    loss_o, gw_o, gb_o = helpers.loss_and_gradients_oracle(net, x, y)
    assert repr(loss) == repr(loss_o)
    for a, b in zip(gw + gb, gw_o + gb_o):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    cfg = TrainConfig(epochs=3, learning_rate=0.3, batch_size=8, seed=width)
    _assert_same_training(
        train_dense(net, x, y, cfg, x[:11] * 1.5, y[:11]),
        helpers.train_dense_oracle(net, x, y, cfg, x[:11] * 1.5, y[:11]),
    )


def test_overflowing_validation_logits_keep_the_oracle_accuracy():
    # Validation rows scaled to 1e308 overflow the hidden layer, so their
    # logits are inf or NaN and their probabilities all NaN; numpy's argmax
    # puts such a row in class 0, and so must the column-wise argmax.  The
    # train loss stays finite, so training runs on.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 4))
    y = (x[:, 0] > 0).astype(np.int64)
    xv = rng.normal(size=(12, 4))
    yv = np.zeros(12, dtype=np.int64)  # a row put in class 1 would cost a hit
    net = init_dense((4, 8, 2), seed=2)
    cfg = TrainConfig(epochs=3, batch_size=7, seed=1)
    with np.errstate(all="ignore"):
        xv *= 1e308
        got = train_dense(net, x, y, cfg, xv, yv)
        want = helpers.train_dense_oracle(net, x, y, cfg, xv, yv)
        nan_rows = np.isnan(helpers.predict_proba_oracle(got[0], xv)).all(axis=1)
    assert 0 < nan_rows.sum() < 12
    assert all(map(math.isfinite, got[1].train_loss))
    assert all(map(math.isnan, got[1].val_loss))
    _assert_same_training(got, want)


def test_loss_and_gradients_returns_fresh_arrays_per_call():
    rng = np.random.default_rng(4)
    net = init_dense((3, 5, 2), seed=4)
    x1, x2 = rng.normal(size=(9, 3)), rng.normal(size=(6, 3))
    y1, y2 = rng.integers(0, 2, size=9), rng.integers(0, 2, size=6)
    _, gw1, gb1 = loss_and_gradients(net, x1, y1)
    loss_and_gradients(net, x2, y2)
    _, gw_o, gb_o = helpers.loss_and_gradients_oracle(net, x1, y1)
    for a, b in zip(gw1 + gb1, gw_o + gb_o):
        assert a.tobytes() == b.tobytes()


def test_all_zero_net_ties_every_logit_to_class_zero():
    # With every weight and bias zero the hidden layer outputs 0 for any
    # input, and one full batch of one row per class has a zero gradient,
    # so training keeps the net at zero and every logit pair ties.
    rng = np.random.default_rng(8)
    zero = DenseNet((3, 4, 2), (np.zeros((3, 4)), np.zeros((4, 2))), (np.zeros(4), np.zeros(2)))
    x = rng.normal(size=(2, 3))
    xv = rng.normal(size=(4, 3))
    yv = np.array([1, 0, 0, 0])
    trained, hist = train_dense(
        zero, x, [0, 1], TrainConfig(epochs=3, batch_size=2), xv, yv
    )
    assert all(not a.any() for a in trained.weights + trained.biases)
    assert predict_classes(trained, rng.normal(size=(8, 3))).tolist() == [0] * 8
    assert hist.train_acc == [0.5] * 3
    assert hist.val_acc == [0.75] * 3
    assert cross_entropy(trained, xv, yv) == math.log(2.0)
    assert hist.val_loss == [math.log(2.0)] * 3


def test_accuracy_takes_argmax_of_probabilities_not_logits():
    # Head logits 0 and 2**-60 differ, but their exponentials both round
    # to 1.0, so the probabilities tie and the row goes to class 0.  Zero
    # inputs and one row per class give a zero gradient, so the net stays.
    net = DenseNet((2, 2), (np.zeros((2, 2)),), (np.array([0.0, 2.0**-60]),))
    x = np.zeros((4, 2))
    trained, hist = train_dense(
        net, x[:2], [0, 1], TrainConfig(epochs=2, batch_size=2), x, [1, 1, 1, 0]
    )
    assert trained.biases[0].tolist() == [0.0, 2.0**-60]
    assert predict_classes(trained, x).tolist() == [0] * 4
    assert hist.val_acc == [0.25, 0.25]


@pytest.mark.parametrize("with_val", [False, True])
def test_forward_runs_once_per_step_and_per_evaluated_set(monkeypatch, with_val):
    from qkml import hybrid

    calls = []
    forward = hybrid._forward

    def counted(*args):
        calls.append(args[2][0].shape[0])  # rows of the first arm's input
        return forward(*args)

    monkeypatch.setattr(hybrid, "_forward", counted)
    x, y = _blobs(10)
    val = (x[:4], y[:4]) if with_val else (None, None)
    train_dense(init_dense((2, 3, 2)), x, y, TrainConfig(epochs=2, batch_size=4), *val)
    epoch = [4, 4, 2, 10] + ([4] if with_val else [])
    assert calls == epoch * 2


def test_compare_hybrid_runs_one_forward_pass_per_step_for_both_arms(monkeypatch):
    from qkml import hybrid

    calls = []
    forward = hybrid._forward

    def counted(*args):
        calls.append([x.shape for x in args[2]])
        return forward(*args)

    monkeypatch.setattr(hybrid, "_forward", counted)
    train, val = _ring_dataset(10, seed=6), _ring_dataset(4, seed=7)
    spec = QuanvSpec(window=1, stride=1, layers=1)  # 2 features in, 2 out
    compare_hybrid(train, val, spec, hidden=(3,), config=TrainConfig(epochs=2, batch_size=4))
    epoch = [[(rows, 2)] * 2 for rows in (4, 4, 2, 10, 4)]
    assert calls == epoch * 2


# -- the stacked trainer against the one-arm oracle ------------------------------


def _wide_dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, math.pi, size=(n, d))
    y = (x[:, 0] + x[:, -1] + 0.5 * rng.normal(size=n) > math.pi).astype(np.int64)
    return Dataset(x, y, tuple(f"f{i}" for i in range(d)))


def _oracle_arms(train, val, spec, hidden, cfg):
    """Each arm trained alone by the oracle, classical first: {arm: (net, history)}."""
    from qkml import hybrid

    transform = hybrid.quanv_transform_batch  # looked up here, so a test can patch it
    arms = {}
    for name, x, xv in (
        ("classical", train.features, None if val is None else val.features),
        ("hybrid", transform(spec, train.features),
         None if val is None else transform(spec, val.features)),
    ):
        net = init_dense((x.shape[1],) + hidden + (2,), seed=cfg.seed)
        arms[name] = helpers.train_dense_oracle(
            net, x, train.labels, cfg, xv, None if val is None else val.labels
        )
    return arms


# (features, quanv geometry, hidden layers); the quanv widths are 16, 56, 17, 16 and 18.
_ARM_SHAPES = [
    (17, QuanvSpec(window=4, stride=4, circuit_seed=1), (16,)),  # hybrid narrower
    (17, QuanvSpec(window=4, stride=1, circuit_seed=2), (16,)),  # hybrid wider
    (17, QuanvSpec(window=1, stride=1, circuit_seed=3), (8, 4)),  # equal widths
    (17, QuanvSpec(window=4, stride=4, circuit_seed=4), (6, 5, 3)),
    # A width that zero padding to 18 columns would round differently on OpenBLAS.
    (8, QuanvSpec(window=3, stride=1, circuit_seed=5), ()),
]


@pytest.mark.parametrize("with_val", [False, True])
@pytest.mark.parametrize("batch_size", [1, 7, 39, 60])
@pytest.mark.parametrize("d, spec, hidden", _ARM_SHAPES)
def test_stacked_arms_bitwise_equal_oracle_per_arm(d, spec, hidden, batch_size, with_val):
    from qkml import hybrid

    train = _wide_dataset(60, d, seed=d + batch_size)
    val = _wide_dataset(13, d, seed=d + 1) if with_val else None
    cfg = TrainConfig(epochs=3, learning_rate=0.3, batch_size=batch_size, seed=batch_size)
    want = _oracle_arms(train, val, spec, hidden, cfg)
    if with_val:
        arms = compare_hybrid(train, val, spec, hidden, cfg)
        got = {name: (arm["net"], arm["history"]) for name, arm in arms.items()}
    else:
        inputs = [train.features, quanv_transform_batch(spec, train.features)]
        nets = [init_dense((x.shape[1],) + hidden + (2,), seed=cfg.seed) for x in inputs]
        got = dict(zip(("classical", "hybrid"), hybrid._train_arms(nets, inputs, train.labels, cfg)))
    assert sorted(got) == sorted(want)
    for name in want:
        _assert_same_training(got[name], want[name])


@pytest.mark.parametrize(
    "classical_scale, hybrid_scale, epoch, steps",
    [
        (1.0, 1e200, 1, 30),  # only the hybrid arm: raised once the classical arm has finished
        (1e10, 1.0, 4, 20),  # only the classical arm: raised at once
        (1e10, 1e200, 4, 20),  # both, the hybrid arm first: still the classical arm's error
    ],
)
def test_stacked_divergence_raises_what_the_arms_raise_in_order(
    monkeypatch, classical_scale, hybrid_scale, epoch, steps
):
    from qkml import hybrid

    # Inputs of both signs and a large scale make an arm diverge after a few epochs.
    train, val = _wide_dataset(40, 6, seed=1), _wide_dataset(10, 6, seed=2)
    train, val = (
        Dataset((ds.features - 1.5) * classical_scale, ds.labels, ds.feature_names)
        for ds in (train, val)
    )
    transform = hybrid.quanv_transform_batch
    monkeypatch.setattr(
        hybrid, "quanv_transform_batch", lambda spec, x: transform(spec, x) * hybrid_scale
    )
    spec = QuanvSpec(window=2, stride=2, circuit_seed=1)
    cfg = TrainConfig(epochs=6, batch_size=8, seed=4)  # 5 steps per epoch
    counted = []
    gradients = hybrid._gradients
    monkeypatch.setattr(hybrid, "_gradients", lambda *a: counted.append(1) or gradients(*a))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match=f"non-finite loss after epoch {epoch} ") as err:
            compare_hybrid(train, val, spec, (5,), cfg)
        assert len(counted) == steps
        # The oracle trains the arms one after the other.
        with pytest.raises(ValueError, match="non-finite loss") as want:
            _oracle_arms(train, val, spec, (5,), cfg)
    assert str(err.value) == str(want.value)


@pytest.mark.parametrize("rows", list(range(1, 40)) + [1112])
def test_stacked_matmul_runs_the_2d_gemm_per_arm(rows):
    # The stacked trainer relies on this numpy/BLAS property: a stacked
    # matmul, its swapped-axes forms and the batch sum give each arm the
    # bits of the 2-d operation.  If a BLAS breaks it, this names the cause.
    rng = np.random.default_rng(rows)
    for fan_in, fan_out in ((17, 16), (16, 16), (16, 2), (56, 16), (3, 1)):
        a = rng.normal(size=(2, rows, fan_in))
        w = rng.normal(size=(2, fan_in, fan_out))
        delta = rng.normal(size=(2, rows, fan_out))
        forward, grad = a @ w, a.swapaxes(1, 2) @ delta
        back, bias = delta @ w.swapaxes(1, 2), delta.sum(axis=1, keepdims=True)
        for arm in range(2):
            assert forward[arm].tobytes() == (a[arm] @ w[arm]).tobytes()
            assert grad[arm].tobytes() == (a[arm].T @ delta[arm]).tobytes()
            assert back[arm].tobytes() == (delta[arm] @ w[arm].T).tobytes()
            assert bias[arm, 0].tobytes() == delta[arm].sum(axis=0).tobytes()
        # The trainer keeps its weights in, and writes its first-layer outputs
        # and its gradients with out= into, C-contiguous views of one flat
        # buffer; an offset of one float leaves them 8-byte aligned only.
        shapes = [w.shape, (2, rows, fan_out), w.shape, (2, 1, fan_out)]
        sizes = [math.prod(shape) for shape in shapes]
        flat = np.full(1 + sum(sizes), np.nan)
        ends = itertools.accumulate(sizes, initial=1)
        w_view, out, grad_out, bias_out = (
            flat[lo : lo + n].reshape(shape) for shape, n, lo in zip(shapes, sizes, ends)
        )
        w_view[...] = w
        for arm in range(2):
            np.matmul(a[arm], w_view[arm], out=out[arm])
            np.matmul(a[arm].T, delta[arm], out=grad_out[arm])
        assert out.tobytes() == forward.tobytes()
        assert grad_out.tobytes() == grad.tobytes()
        np.matmul(a.swapaxes(1, 2), delta, out=grad_out)
        assert grad_out.tobytes() == grad.tobytes()
        assert (a @ w_view).tobytes() == forward.tobytes()
        assert (delta @ w_view.swapaxes(1, 2)).tobytes() == back.tobytes()
        np.add.reduce(delta, axis=1, keepdims=True, out=bias_out)
        assert bias_out.tobytes() == bias.tobytes()
