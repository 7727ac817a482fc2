"""SMO training: analytic cases, feasibility, oracles, serialization."""

import json
from pathlib import Path

import numpy as np
import pytest

from qkml import accel, qkernel, svm, synth
from qkml.feature_maps import ZZ, FeatureMapSpec

import helpers

DATA = Path(__file__).parent / "data"
XOR_X = np.array([[0.0, 0.0], [0.0, np.pi], [np.pi, 0.0], [np.pi, np.pi]])
XOR_Y = np.array([0, 1, 1, 0])


def _two_point_model(c=10.0):
    x = np.array([[1.0], [-1.0]])
    kmat = svm.linear_kernel(x, x)
    labels = np.array([1, 0])
    cfg = svm.SvmConfig(c=c, tolerance=1e-6, max_passes=20)
    return svm.train_svm(kmat, labels, cfg), kmat


def test_two_point_analytic_solution():
    model, kmat = _two_point_model()
    np.testing.assert_allclose(model.alphas, [0.5, 0.5], atol=1e-6)
    assert model.bias == pytest.approx(0.0, abs=1e-6)
    decision = svm.decision_function(model, kmat[0])
    assert decision[0] == pytest.approx(1.0, abs=1e-6)


def test_two_point_predicts_training_labels():
    model, kmat = _two_point_model()
    np.testing.assert_array_equal(svm.predict(model, kmat), [1, 0])


def test_duplicate_conflicting_labels_stay_bounded():
    x = np.array([[0.5], [0.5], [1.5]])
    kmat = svm.linear_kernel(x, x)
    cfg = svm.SvmConfig(c=0.1, max_passes=10)
    model = svm.train_svm(kmat, [0, 1, 1], cfg)
    assert np.all(model.alphas >= -1e-12)
    assert np.all(model.alphas <= 0.1 + 1e-12)


def test_training_rejects_single_class():
    kmat = np.eye(3)
    with pytest.raises(ValueError):
        svm.train_svm(kmat, [1, 1, 1])


def test_training_rejects_size_mismatch():
    with pytest.raises(ValueError):
        svm.train_svm(np.eye(3), [0, 1])


def test_non_psd_matrix_warns_but_trains():
    kmat = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.warns(RuntimeWarning, match="not PSD"):
        svm.train_svm(kmat, [0, 1])


def test_gram_matrix_input_skips_the_eigenvalue_check(monkeypatch):
    rng = np.random.default_rng(4)
    x = rng.uniform(0, np.pi, size=(12, 3))
    gram = qkernel.gram_matrix(FeatureMapSpec(ZZ, 3), x)
    labels = (x[:, 0] > np.pi / 2).astype(int)
    want = svm.train_svm(gram.entries, labels)

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called on a GramMatrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    got = svm.train_svm(gram, labels)
    assert got.alphas.tobytes() == want.alphas.tobytes()
    assert got.bias == want.bias
    with pytest.raises(AssertionError, match="eigvalsh"):
        svm.train_svm(gram.entries, labels)


def test_nan_kernel_is_rejected_before_smo(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("smo_solve reached with a NaN kernel")

    monkeypatch.setattr(accel, "smo_solve", refuse)
    kmat = np.eye(3)
    kmat[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        svm.train_svm(kmat, [0, 1, 1])


def test_decision_function_empty_model_sum():
    model = svm.SvmModel(
        config=svm.SvmConfig(),
        alphas=np.zeros(3),
        bias=0.3,
        signed_labels=np.array([1, -1, 1]),
        support_indices=np.array([], dtype=np.int64),
    )
    assert svm.decision_function(model, np.ones(3))[0] == pytest.approx(0.3)


def test_decision_sign_flips_with_labels():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 2))
    labels = (x[:, 0] > 0).astype(int)
    kmat = svm.rbf_kernel(x, x, 1.0)
    cfg = svm.SvmConfig(c=1.0, max_passes=20)
    model = svm.train_svm(kmat, labels, cfg, seed=5)
    flipped = svm.train_svm(kmat, 1 - labels, cfg, seed=5)
    d1 = svm.decision_function(model, kmat)
    d2 = svm.decision_function(flipped, kmat)
    np.testing.assert_allclose(d1, -d2, atol=1e-9)


def test_predict_sign_rule_and_tie():
    model = svm.SvmModel(
        config=svm.SvmConfig(),
        alphas=np.array([1.0]),
        bias=0.0,
        signed_labels=np.array([1]),
        support_indices=np.array([0]),
    )
    # kernel rows scale the single coefficient: +2, -0.5 and an exact 0 tie
    np.testing.assert_array_equal(
        svm.predict(model, np.array([[2.0], [-0.5], [0.0]])), [1, 0, 1]
    )


def _moons_with_zero_alphas(kernel):
    """A moons model of ``kernel`` whose alphas are partly exactly 0, its
    test rows and its full test-by-train kernel rows."""
    ds = synth.make_synthetic("moons", 120, noise=0.2, seed=3)
    x, y, x_test = ds.features[:90], ds.labels[:90], ds.features[90:]
    if kernel == svm.PRECOMPUTED:
        model = svm.train_svm(svm.rbf_kernel(x, x, 0.5), y, svm.SvmConfig(c=2.0))
        full = svm.rbf_kernel(x_test, x, 0.5)
    else:
        model = svm.train_svm_features(x, y, svm.SvmConfig(c=2.0, kernel=kernel))
        full = svm._feature_kernel(model.config, x_test, x)
    keep = np.flatnonzero(model.alphas)
    assert 0 < len(keep) < len(x)
    return model, keep, x_test, full


@pytest.mark.parametrize("kernel", [svm.PRECOMPUTED, svm.LINEAR, svm.RBF])
def test_support_model_predicts_as_the_full_model(kernel):
    model, keep, x_test, full = _moons_with_zero_alphas(kernel)
    support = svm.support_model(model)
    np.testing.assert_array_equal(support.alphas, model.alphas[keep])
    np.testing.assert_array_equal(support.signed_labels, model.signed_labels[keep])
    assert support.bias == model.bias
    assert support.support_indices.tolist() == np.flatnonzero(
        model.alphas[keep] > svm.SUPPORT_EPS).tolist()
    if kernel == svm.PRECOMPUTED:
        rows = full[:, keep]
    else:
        np.testing.assert_array_equal(support.train_features, model.train_features[keep])
        rows = svm._feature_kernel(model.config, x_test, support.train_features)
        np.testing.assert_array_equal(svm.predict_features(model, x_test), svm.predict(model, full))
    np.testing.assert_array_equal(svm.predict(support, rows), svm.predict(model, full))
    np.testing.assert_allclose(svm.decision_function(support, rows),
                               svm.decision_function(model, full), rtol=0, atol=1e-12)


def test_a_model_without_nonzero_alphas_predicts_from_its_bias():
    x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    # A tolerance above the initial KKT gap of 2 stops SMO before any step.
    model = svm.train_svm_features(x, [0, 1, 1], svm.SvmConfig(kernel=svm.LINEAR, tolerance=3.0))
    assert not model.alphas.any()
    support = svm.support_model(model)
    assert support.alphas.shape == support.train_features.shape[:1] == (0,)
    np.testing.assert_array_equal(svm.predict_features(model, x), [1, 1, 1])
    biased = svm.support_model(svm.SvmModel(
        config=svm.SvmConfig(), alphas=np.zeros(3), bias=-0.25,
        signed_labels=np.array([1, -1, 1]), support_indices=np.array([], dtype=np.int64)))
    np.testing.assert_array_equal(svm.decision_function(biased, np.empty((2, 0))), [-0.25, -0.25])
    np.testing.assert_array_equal(svm.predict(biased, np.empty((2, 0))), [0, 0])


def test_predict_empty_test_set():
    model, _ = _two_point_model()
    out = svm.predict(model, np.empty((0, 2)))
    assert out.shape == (0,)


def test_xor_with_zz_kernel_separates():
    gram = qkernel.gram_matrix(FeatureMapSpec(ZZ, 2), XOR_X)
    cfg = svm.SvmConfig(c=10.0, tolerance=1e-5, max_passes=30)
    model = svm.train_svm(gram, XOR_Y, cfg)
    np.testing.assert_array_equal(svm.predict(model, gram.entries), XOR_Y)


def test_dual_feasibility_on_random_problems():
    rng = np.random.default_rng(6)
    for trial in range(10):
        n = int(rng.integers(4, 20))
        x = rng.normal(size=(n, 2))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        c = float(rng.choice([0.1, 1.0, 5.0]))
        kmat = svm.rbf_kernel(x, x, 0.7)
        model = svm.train_svm(kmat, labels, svm.SvmConfig(c=c), seed=trial)
        assert np.all(model.alphas >= -1e-12)
        assert np.all(model.alphas <= c + 1e-12)
        assert abs(np.dot(model.alphas, model.signed_labels)) <= 1e-6


def test_kkt_consistency_within_tolerance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 2))
    labels = (x[:, 0] + x[:, 1] > 0).astype(int)
    kmat = svm.rbf_kernel(x, x, 1.0)
    tol = 1e-3
    cfg = svm.SvmConfig(c=1.0, tolerance=tol, max_passes=50)
    model = svm.train_svm(kmat, labels, cfg)
    margins = model.signed_labels * svm.decision_function(model, kmat)
    for alpha, margin in zip(model.alphas, margins):
        if alpha < svm.SUPPORT_EPS:
            assert margin >= 1.0 - 10 * tol
        elif alpha > 1.0 - 1e-8:
            assert margin <= 1.0 + 10 * tol
        else:
            assert margin == pytest.approx(1.0, abs=10 * tol)


def test_precomputed_linear_matrix_matches_linear_kernel_path():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(12, 3))
    labels = (x[:, 0] > 0).astype(int)
    cfg_pre = svm.SvmConfig(c=1.0, max_passes=20)
    cfg_lin = svm.SvmConfig(c=1.0, max_passes=20, kernel=svm.LINEAR)
    model_pre = svm.train_svm(svm.linear_kernel(x, x), labels, cfg_pre, seed=2)
    model_lin = svm.train_svm_features(x, labels, cfg_lin, seed=2)
    np.testing.assert_allclose(model_pre.alphas, model_lin.alphas, atol=1e-9)
    assert model_pre.bias == pytest.approx(model_lin.bias, abs=1e-9)
    rows = rng.normal(size=(40, 3))
    want = svm.predict(model_pre, svm.linear_kernel(rows, x))
    assert 0 < want.sum() < len(want)
    np.testing.assert_array_equal(svm.predict_features(model_lin, rows), want)


def test_class_weight_scales_the_box():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(16, 2))
    labels = rng.integers(0, 2, size=16)
    labels[:2] = [0, 1]
    kmat = svm.rbf_kernel(x, x, 1.0)
    cfg = svm.SvmConfig(c=1.0, class_weight=(0.25, 2.0), max_passes=20)
    model = svm.train_svm(kmat, labels, cfg)
    y01 = (model.signed_labels + 1) // 2
    caps = np.where(y01 == 1, 2.0, 0.25)
    assert np.all(model.alphas <= caps + 1e-12)


def test_support_indices_use_alpha_threshold():
    model, _ = _two_point_model()
    np.testing.assert_array_equal(model.support_indices, [0, 1])
    assert np.all(model.alphas[model.support_indices] > svm.SUPPORT_EPS)


def test_rbf_gamma_defaults_to_inverse_dimension():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(10, 4))
    labels = (x[:, 0] > 0).astype(int)
    model = svm.train_svm_features(
        x, labels, svm.SvmConfig(kernel=svm.RBF), seed=0
    )
    assert model.config.gamma == pytest.approx(0.25)


def test_training_is_deterministic_per_seed():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(14, 2))
    labels = rng.integers(0, 2, size=14)
    labels[:2] = [0, 1]
    kmat = svm.rbf_kernel(x, x, 1.0)
    a = svm.train_svm(kmat, labels, svm.SvmConfig(), seed=4)
    b = svm.train_svm(kmat, labels, svm.SvmConfig(), seed=4)
    c = svm.train_svm(kmat, labels, svm.SvmConfig(), seed=5)
    for other in (b, c):
        np.testing.assert_array_equal(a.alphas, other.alphas)
        assert a.bias == other.bias


def test_flipped_labels_give_equal_alphas_and_negated_bias():
    rng = np.random.default_rng(14)
    for trial in range(10):
        n = int(rng.integers(4, 30))
        x = rng.normal(size=(n, 2))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        kmat = svm.rbf_kernel(x, x, 0.8)
        cfg = svm.SvmConfig(c=float(rng.choice([0.1, 1.0, 5.0])))
        model = svm.train_svm(kmat, labels, cfg)
        flipped = svm.train_svm(kmat, 1 - labels, cfg)
        np.testing.assert_array_equal(model.alphas, flipped.alphas)
        assert flipped.bias == -model.bias


def test_bias_is_bound_midpoint_when_no_vector_is_free():
    x = np.array([[0.0], [0.1], [1.0], [1.2], [0.4]])
    labels = np.array([0, 1, 0, 1, 1])
    kmat = svm.rbf_kernel(x, x, 1.0)
    c = 1e-3
    model = svm.train_svm(kmat, labels, svm.SvmConfig(c=c))
    assert np.all((model.alphas == 0.0) | (model.alphas == c))
    # At the bounds every multiplier bounds the bias from one side: below
    # by v_t for t in I_up, above by v_t for t in I_low, v = y - K(alpha y).
    y = model.signed_labels.astype(np.float64)
    v = y - kmat @ (model.alphas * y)
    at_c = model.alphas == c
    up = np.where(y > 0, ~at_c, at_c)
    midpoint = (v[up].max() + v[~up].min()) / 2.0
    assert model.bias == pytest.approx(midpoint, rel=1e-12, abs=1e-15)


def test_two_c_clipping_reaches_both_class_weighted_caps():
    # Class-0 points around the origin with two class-1 points among them
    # and a class-1 cluster far away: the inner class-1 points end at the
    # class-1 cap, most class-0 points at the class-0 cap.
    rng = np.random.default_rng(15)
    x = np.vstack([
        rng.normal(size=(24, 2)),
        [[0.0, 0.0], [0.3, -0.2]],
        rng.normal(loc=3.0, scale=0.5, size=(4, 2)),
    ])
    labels = np.r_[np.zeros(24, dtype=int), np.ones(6, dtype=int)]
    kmat = svm.rbf_kernel(x, x, 0.5)
    tol = 1e-5
    cfg = svm.SvmConfig(c=1.0, tolerance=tol, class_weight=(0.25, 2.0))
    model = svm.train_svm(kmat, labels, cfg)
    y = model.signed_labels.astype(np.float64)
    caps = np.where(labels == 1, 2.0, 0.25)
    assert np.all(model.alphas >= 0.0)
    assert np.all(model.alphas <= caps)
    assert np.count_nonzero(model.alphas[labels == 0] == 0.25) >= 10
    assert np.count_nonzero(model.alphas[labels == 1] == 2.0) >= 1
    assert abs(np.dot(model.alphas, y)) <= 1e-12
    assert helpers.smo_kkt_gap(kmat, y, caps, model.alphas) < tol
    oracle, _, _ = helpers._smo_loops(kmat, y, caps, tol, 50, helpers.lcg_seed_state(0))
    got = svm.dual_objective(kmat, labels, model.alphas)
    want = svm.dual_objective(kmat, labels, oracle)
    assert got >= want - 1e-9 * abs(want)


def test_iteration_bound_warns(monkeypatch):
    monkeypatch.setattr(accel, "smo_iteration_bound", lambda n: 1)
    rng = np.random.default_rng(16)
    x = rng.normal(size=(12, 2))
    labels = (x[:, 0] > 0).astype(int)
    kmat = svm.rbf_kernel(x, x, 1.0)
    with pytest.warns(RuntimeWarning, match="iteration bound"):
        model = svm.train_svm(kmat, labels, svm.SvmConfig())
    assert np.count_nonzero(model.alphas) == 2


def test_smo_dual_matches_grid_oracle_small():
    rng = np.random.default_rng(12)
    c = 0.1
    for trial in range(5):
        n = int(rng.integers(3, 7))
        x = rng.normal(size=(n, 2))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        kmat = svm.rbf_kernel(x, x, 0.9)
        cfg = svm.SvmConfig(c=c, tolerance=1e-5, max_passes=50)
        model = svm.train_svm(kmat, labels, cfg, seed=trial)
        got = svm.dual_objective(kmat, labels, model.alphas)
        want = helpers.grid_oracle_best(kmat, model.signed_labels, c)
        assert got == pytest.approx(want, abs=1e-3)


def test_serialization_round_trip():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(8, 2))
    labels = rng.integers(0, 2, size=8)
    labels[:2] = [0, 1]
    cfg = svm.SvmConfig(
        c=2.0, kernel=svm.RBF, gamma=0.3, class_weight=(1.0, 1.5)
    )
    model = svm.train_svm_features(x, labels, cfg, seed=1)
    text = svm.model_to_text(model)
    back = svm.model_from_text(text)
    np.testing.assert_array_equal(back.alphas, model.alphas)
    assert back.bias == model.bias
    assert back.config == model.config
    assert back.kernel_sha256 == model.kernel_sha256
    np.testing.assert_array_equal(back.train_features, model.train_features)
    np.testing.assert_array_equal(
        svm.predict_features(back, x), svm.predict_features(model, x)
    )


def test_precomputed_model_text_round_trips_without_train_features():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    gram = svm.rbf_kernel(x, x, 0.5)
    model = svm.train_svm(gram, [0, 1, 0, 1], svm.SvmConfig(c=2.0))
    text = svm.model_to_text(model)
    assert json.loads(text)["train_features"] is None
    back = svm.model_from_text(text)
    assert back.train_features is None
    assert svm.model_to_text(back) == text
    np.testing.assert_array_equal(svm.predict(back, gram), svm.predict(model, gram))


def test_model_text_config_keys_and_missing_key():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    cfg = svm.SvmConfig(c=2.0, kernel=svm.RBF, gamma=0.3, class_weight=(1.0, 1.5))
    text = svm.model_to_text(svm.train_svm_features(x, [0, 1, 0, 1], cfg, seed=1))
    doc = json.loads(text)
    assert doc["config"] == {
        "c": 2.0, "class_weight": [1.0, 1.5], "gamma": 0.3,
        "kernel": svm.RBF, "max_passes": 50, "tolerance": 1e-3,
    }
    for key in ("c", "tolerance", "max_passes", "kernel", "gamma"):
        partial = dict(doc, config={k: v for k, v in doc["config"].items() if k != key})
        with pytest.raises(KeyError, match=key):
            svm.model_from_text(json.dumps(partial))
    # Documents from before class weights existed still load, unweighted.
    del doc["config"]["class_weight"]
    assert svm.model_from_text(json.dumps(doc)).config.class_weight is None


@pytest.mark.parametrize("config,message", [
    ({"extra": 1}, r"has unknown key\(s\) \['extra'\]"),
    ([1], "must be an object"),
], ids=["unknown-key", "list"])
def test_model_text_refuses_an_unknown_key_or_a_config_that_is_not_an_object(config, message):
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    doc = json.loads(svm.model_to_text(
        svm.train_svm_features(x, [0, 1, 0, 1], svm.SvmConfig(kernel=svm.LINEAR))))
    doc["config"] = {**doc["config"], **config} if isinstance(config, dict) else config
    with pytest.raises(ValueError, match=f"SvmConfig document {message}"):
        svm.model_from_text(json.dumps(doc))


def test_indented_version_1_text_loads_and_rewrites_as_one_line():
    # Written indented by the release before every document went compact.
    text = (DATA / "svm_v1.json").read_text()
    assert "\n  " in text and json.loads(text)["version"] == 1
    d = synth.make_synthetic("moons", 10, noise=0.2, seed=3)
    cfg = svm.SvmConfig(c=2.0, kernel=svm.RBF, class_weight=(1.0, 2.0))
    model = svm.train_svm_features(d.features, d.labels, cfg)
    old = svm.model_from_text(text)
    assert old.config == model.config and old.bias == model.bias
    assert old.kernel_sha256 == model.kernel_sha256
    for name in ("alphas", "signed_labels", "support_indices", "train_features"):
        np.testing.assert_array_equal(getattr(old, name), getattr(model, name))
    rewritten = svm.model_to_text(old)
    assert "\n" not in rewritten and rewritten == svm.model_to_text(model)
    assert json.loads(rewritten) == json.loads(text)


def test_model_from_text_rejects_other_documents():
    with pytest.raises(ValueError):
        svm.model_from_text('{"format": "something-else", "version": 1}')


@pytest.mark.parametrize("text", ["[]", "3"])
def test_model_from_text_rejects_json_that_is_not_an_object(text):
    with pytest.raises(ValueError, match="^not a qkml-svm version 1 document$"):
        svm.model_from_text(text)


def test_config_validation():
    with pytest.raises(ValueError):
        svm.SvmConfig(c=0.0)
    with pytest.raises(ValueError):
        svm.SvmConfig(tolerance=-1e-3)
    with pytest.raises(ValueError):
        svm.SvmConfig(kernel="poly")
    with pytest.raises(ValueError):
        svm.SvmConfig(gamma=0.0)
    with pytest.raises(ValueError):
        svm.SvmConfig(class_weight=(1.0,))
    with pytest.raises(ValueError):
        svm.SvmConfig(class_weight=(1.0, -2.0))


@pytest.mark.parametrize("call, message", [
    (lambda m: svm.train_svm_features(XOR_X, XOR_Y, svm.SvmConfig()), "needs a linear or rbf"),
    (lambda m: svm.train_svm(np.ones((2, 3)), [0, 1], svm.SvmConfig()), r"square, got shape \(2, 3\)"),
    (lambda m: svm.train_svm(np.eye(2), [0, 1], svm.SvmConfig(kernel="rbf")), "takes a precomputed"),
    (lambda m: svm.decision_function(m, np.ones((1, 3))), "3 columns, model was trained on 2"),
    (lambda m: svm.predict_features(m, XOR_X), "no stored training features"),
], ids=["features-precomputed", "not-square", "matrix-rbf", "row-width", "no-features"])
def test_each_refusal_names_its_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call(_two_point_model()[0])
