"""Release gate: one test family per numbered release criterion.

conftest.py rolls the ``test_cNN_*`` outcomes into a per-criterion
verdict printed at the end of the run.  Oracles come from helpers.py
(explicit matrices, closed forms, exhaustive enumeration), never from
the modules under test.  Frozen hyperparameters carry the measured
values they were frozen against.
"""

import functools
import json
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from qkml import dataset as dsmod
from qkml import hybrid as hmod
from qkml import metrics, qkernel, svm, synth, trees
from qkml import statevector as sv
from qkml.cli import main
from qkml.feature_maps import ANGLE_Y, ZZ, FeatureMapSpec, build_feature_circuit

import helpers

DATA = Path(__file__).parent / "data"
FIXTURE_CSV = DATA / "startups_12.csv"


def _write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=2))
    return str(p)


# -- criterion 1: report arithmetic at display rounding --------------------------

# Reference class rows (precision, recall, printed f1) for the four
# model families on the startup-funding task, class 0 then class 1.
_CLASS_ROWS = [
    pytest.param(0.60, 0.58, "0.59", id="dt-c0"),
    pytest.param(0.73, 0.75, "0.74", id="dt-c1"),
    pytest.param(0.61, 0.54, "0.57", id="rf-c0"),
    pytest.param(0.72, 0.78, "0.75", id="rf-c1"),
    pytest.param(
        0.57,
        0.66,
        "0.62",
        id="svm-c0",
        marks=pytest.mark.xfail(
            strict=True,
            reason="reference row is inconsistent at display precision: the "
            "harmonic mean of 0.57 and 0.66 is 0.6117, which prints as 0.61; "
            "0.62 can only come from higher-precision rates",
        ),
    ),
    pytest.param(0.76, 0.68, "0.72", id="svm-c1"),
    pytest.param(0.58, 0.52, "0.55", id="qsvm-c0"),
    pytest.param(0.72, 0.78, "0.75", id="qsvm-c1"),
]


@pytest.mark.parametrize("precision,recall,printed_f1", _CLASS_ROWS)
def test_c01_class_row_f1_is_rounded_harmonic_mean(precision, recall, printed_f1):
    f1 = 2.0 * precision * recall / (precision + recall)
    assert metrics.format_rate(f1) == printed_f1


def test_c01_macro_and_weighted_averages_reproduce():
    # Averaging the decision-tree class f1s (0.59, 0.74) with supports
    # (432, 668) must reproduce the printed averages exactly at display
    # rounding: macro 0.665 -> 0.67, weighted 0.68109 -> 0.68.
    macro = (0.59 + 0.74) / 2.0
    weighted = (432 * 0.59 + 668 * 0.74) / (432 + 668)
    assert metrics.format_rate(macro) == "0.67"
    assert metrics.format_rate(weighted) == "0.68"
    assert metrics.round_half_up(macro, 2) == 0.67
    assert metrics.round_half_up(weighted, 2) == 0.68


# -- criterion 2: kernel values against independent oracles ----------------------


def test_c02_angle_y_kernel_matches_product_formula():
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        x = rng.uniform(0.0, np.pi, size=n)
        x_prime = rng.uniform(0.0, np.pi, size=n)
        got = qkernel.kernel_entry(FeatureMapSpec(ANGLE_Y, n), x, x_prime)
        assert got == pytest.approx(helpers.angle_y_kernel(x, x_prime), abs=1e-10)


def test_c02_zz_kernel_matches_full_unitary_oracle():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        spec = FeatureMapSpec(ZZ, n)
        x = rng.uniform(0.0, np.pi, size=n)
        x_prime = rng.uniform(0.0, np.pi, size=n)
        a = helpers.brute_run(build_feature_circuit(spec, x))
        b = helpers.brute_run(build_feature_circuit(spec, x_prime))
        want = abs(np.vdot(b, a)) ** 2
        assert qkernel.kernel_entry(spec, x, x_prime) == pytest.approx(
            want, abs=1e-10
        )


@pytest.mark.parametrize("kind", [ANGLE_Y, ZZ])
def test_c02_gram_symmetric_unit_diagonal_near_psd(kind):
    rng = np.random.default_rng(22)
    rows = rng.uniform(0.0, np.pi, size=(50, 3))
    gram = qkernel.gram_matrix(FeatureMapSpec(kind, 3), rows)
    m = gram.entries
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 1.0)
    assert qkernel.check_psd(gram) >= -1e-8


# -- criterion 3: SMO against analytic and exhaustive dual oracles ---------------


def test_c03_two_point_analytic_solution():
    # Antipodal unit points with opposite labels: the dual optimum is
    # alpha = (0.5, 0.5) with zero bias.
    x = np.array([[1.0], [-1.0]])
    kmat = svm.linear_kernel(x, x)
    cfg = svm.SvmConfig(c=10.0, tolerance=1e-6, max_passes=20)
    model = svm.train_svm(kmat, [1, 0], cfg)
    np.testing.assert_allclose(model.alphas, [0.5, 0.5], atol=1e-6)
    assert model.bias == pytest.approx(0.0, abs=1e-6)


def test_c03_dual_objective_matches_feasible_grid_oracle():
    # C = 0.1 keeps the exhaustive grid literal: 11 levels per alpha,
    # 11^(n-1) feasible candidates at the largest size.
    rng = np.random.default_rng(321)
    start = time.perf_counter()
    for trial in range(20):
        n = 2 + trial % 7
        feats = rng.normal(size=(n, 2))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.permutation(n)[: n // 2]] = 1
        kmat = svm.rbf_kernel(feats, feats, 0.5)
        cfg = svm.SvmConfig(c=0.1, tolerance=1e-5, max_passes=50)
        model = svm.train_svm(kmat, labels, cfg, seed=trial)
        w_smo = svm.dual_objective(kmat, labels, model.alphas)
        y_signed = np.where(labels == 1, 1, -1)
        w_grid = helpers.grid_oracle_best(kmat, y_signed, 0.1, step=0.01)
        assert abs(w_smo - w_grid) < 1e-3
    assert time.perf_counter() - start < 60.0


# -- criterion 4: quantum-kernel SVM tracks the RBF baseline ---------------------


def test_c04_zz_kernel_svm_tracks_rbf_on_moons():
    start = time.perf_counter()
    ds = synth.make_moons(300, noise=0.2, seed=7)
    train, test = dsmod.train_test_split(ds, 0.2, 7)
    scaler = dsmod.fit_scaler(train, "minmax_pi")
    train = dsmod.apply_scaler(scaler, train)
    test = dsmod.apply_scaler(scaler, test)

    spec = FeatureMapSpec(ZZ, 2)  # default two repetitions
    gram = qkernel.gram_matrix(spec, train.features)
    qmodel = svm.train_svm(gram, train.labels, svm.SvmConfig(c=5.0), seed=7)
    cross = qkernel.cross_kernel(spec, test.features, train.features)
    acc_q = metrics.accuracy(test.labels, svm.predict(qmodel, cross))

    rcfg = svm.SvmConfig(c=1.0, kernel=svm.RBF, gamma=1.0)
    rmodel = svm.train_svm_features(train.features, train.labels, rcfg, seed=7)
    acc_r = metrics.accuracy(
        test.labels, svm.predict_features(rmodel, test.features)
    )

    # Frozen configuration measured acc_q = 0.8500, acc_r = 0.8833.
    assert acc_q >= 0.80
    assert acc_r >= 0.80
    assert abs(acc_q - acc_r) <= 0.05
    assert time.perf_counter() - start < 120.0


# -- criterion 5: full startup-funding CSV (report-only, needs the real file) ----


def _full_csv():
    cand = os.environ.get("QKML_CRUNCHBASE_CSV")
    if cand and Path(cand).exists():
        return Path(cand)
    local = Path("data") / "investments_VC.csv"
    return local if local.exists() else None


@pytest.mark.skipif(
    _full_csv() is None,
    reason="full startup-funding CSV not present "
    "(set QKML_CRUNCHBASE_CSV or place data/investments_VC.csv)",
)
def test_c05_full_csv_pipeline_band_checks_are_report_only():
    """Runs the whole pipeline on the real export and reports deviations.

    Row counts and accuracy bands depend on the exact export revision
    and cleaning choices, so misses are printed, never failed; only the
    pipeline mechanics are asserted.
    """
    deviations = []
    table = dsmod.load_csv(_full_csv())
    table, summary = dsmod.filter_status(table)
    if summary["kept"] != 5497:
        deviations.append(
            f"status filter kept {summary['kept']} rows, reference says 5497"
        )
    ds, _ = dsmod.engineer_features(table, dsmod.default_feature_config())
    train, test = dsmod.train_test_split(ds, 0.2, 0)
    scaler = dsmod.fit_scaler(train, "minmax_pi")
    train = dsmod.apply_scaler(scaler, train)
    test = dsmod.apply_scaler(scaler, test)

    accs = {}
    tree = trees.train_tree(train.features, train.labels)
    accs["dt"] = metrics.accuracy(
        test.labels, trees.predict_tree_batch(tree, test.features)
    )
    forest = trees.train_forest(train.features, train.labels)
    accs["rf"] = metrics.accuracy(
        test.labels, trees.predict_forest_batch(forest, test.features)
    )
    rmodel = svm.train_svm_features(
        train.features, train.labels, svm.SvmConfig(kernel=svm.RBF), seed=0
    )
    accs["svm"] = metrics.accuracy(
        test.labels, svm.predict_features(rmodel, test.features)
    )

    # Quantum-kernel arm: 500-row training subsample, top-4 features.
    keep = dsmod.select_features(train, 4)
    qtrain = dsmod.take_features(train, keep)
    qtest = dsmod.take_features(test, keep)
    sub = dsmod.Dataset(
        qtrain.features[:500], qtrain.labels[:500], qtrain.feature_names
    )
    spec = FeatureMapSpec(ANGLE_Y, 4)
    gram = qkernel.gram_matrix(spec, sub.features)
    qmodel = svm.train_svm(gram, sub.labels, svm.SvmConfig(), seed=0)
    cross = qkernel.cross_kernel(spec, qtest.features, sub.features)
    accs["qsvm"] = metrics.accuracy(qtest.labels, svm.predict(qmodel, cross))

    for name, acc in accs.items():
        print(f"band-check: {name} accuracy {acc:.4f}")
        if not 0.60 <= acc <= 0.75:
            deviations.append(f"{name} accuracy {acc:.4f} outside [0.60, 0.75]")
    for line in deviations:
        print(f"band-check deviation: {line}")
        warnings.warn(line, UserWarning, stacklevel=1)
    # Mechanics only: every arm produced a full set of predictions.
    assert set(accs) == {"dt", "rf", "svm", "qsvm"}


# -- criterion 6: tree split scan against exhaustive enumeration -----------------


def test_c06_root_split_matches_exhaustive_enumeration():
    rng = np.random.default_rng(60)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        # Two decimals force duplicate values, exercising the skip rule.
        x = np.round(rng.uniform(0.0, 1.0, size=(n, 2)), 2)
        y = rng.integers(0, 2, size=n)
        tree = trees.train_tree(x, y)
        oracle = helpers.best_root_split(x, y)
        ones = int(y.sum())
        node_imp = trees.gini_impurity((n - ones, ones))
        if oracle is None or not oracle[0] < node_imp:
            assert tree.is_leaf
        else:
            assert not tree.is_leaf
            assert tree.feature_index == oracle[1]
            assert tree.threshold == oracle[2]


def test_c06_degenerate_forest_predicts_like_plain_tree():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(8, 40))
        x = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, size=n)
        tree = trees.train_tree(x, y)
        forest = trees.train_forest(
            x,
            y,
            forest_config=trees.ForestConfig(n_trees=1, mtry=2, bootstrap=False),
        )
        assert trees.tree_to_text(forest.trees[0]) == trees.tree_to_text(tree)
        queries = rng.normal(size=(64, 2))
        np.testing.assert_array_equal(
            trees.predict_forest_batch(forest, queries),
            trees.predict_tree_batch(tree, queries),
        )


# -- criterion 7: hybrid comparison on rings --------------------------------------

# Frozen run: rings n=200 seed 3, 80/20 split seed 3, minmax-pi scaling,
# quanv window 2 / stride 1 / 2 layers / circuit seed 11, one hidden
# layer of 48, lr 0.03, batch 8, 100 epochs, net seed 10.  Measured:
# classical 0.9312 train / 0.9250 val, hybrid 0.9750 train / 1.0000 val.
_QUANV = dict(window=2, stride=1, layers=2, circuit_seed=11)
_HID = (48,)
_TRAIN = dict(epochs=100, learning_rate=0.03, batch_size=8, seed=10)


def _rings_arms():
    ds = synth.make_rings(200, seed=3)
    train, test = dsmod.train_test_split(ds, 0.2, 3)
    scaler = dsmod.fit_scaler(train, "minmax_pi")
    train = dsmod.apply_scaler(scaler, train)
    test = dsmod.apply_scaler(scaler, test)
    return hmod.compare_hybrid(
        train,
        test,
        hmod.QuanvSpec(**_QUANV),
        hidden=_HID,
        config=hmod.TrainConfig(**_TRAIN),
    )


@functools.lru_cache(maxsize=None)
def _cached_arms():
    return _rings_arms()


def test_c07_both_arms_reach_train_accuracy_bar():
    start = time.perf_counter()
    arms = _cached_arms()
    elapsed = time.perf_counter() - start
    for arm in ("classical", "hybrid"):
        history = arms[arm]["history"]
        assert len(history.train_acc) == 100
        assert history.train_acc[-1] >= 0.90
    assert elapsed < 300.0


def test_c07_hybrid_validation_within_margin_of_classical():
    arms = _cached_arms()
    val_c = arms["classical"]["history"].val_acc[-1]
    val_h = arms["hybrid"]["history"].val_acc[-1]
    assert val_h >= val_c - 0.05


def test_c07_smoothed_training_loss_non_increasing_late():
    # 5-epoch moving average of the training loss must not rise over
    # the final half of the run, for either arm.
    arms = _cached_arms()
    for arm in ("classical", "hybrid"):
        loss = np.asarray(arms[arm]["history"].train_loss)
        ma = np.convolve(loss, np.ones(5) / 5.0, mode="valid")
        tail = ma[ma.shape[0] // 2 :]
        assert np.diff(tail).max() <= 0.0


def test_c07_gradients_match_finite_differences():
    # Check the live architecture: quanv features feeding the (2,48,2)
    # dense net used by the hybrid arm.
    rng = np.random.default_rng(70)
    rows = rng.uniform(0.0, np.pi, size=(12, 2))
    feats = hmod.quanv_transform_batch(hmod.QuanvSpec(**_QUANV), rows)
    labels = rng.integers(0, 2, size=12)
    net = hmod.init_dense((feats.shape[1],) + _HID + (2,), seed=10)
    _, grad_w, grad_b = hmod.loss_and_gradients(net, feats, labels)
    eps = 1e-5

    def fd(arr):
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + eps
        up, _, _ = hmod.loss_and_gradients(net, feats, labels)
        arr[idx] = orig - eps
        down, _, _ = hmod.loss_and_gradients(net, feats, labels)
        arr[idx] = orig
        return idx, (up - down) / (2.0 * eps)

    checks = 0
    for layer, w in enumerate(net.weights):
        for _ in range(8):
            idx, approx = fd(w)
            exact = grad_w[layer][idx]
            rel = abs(approx - exact) / max(abs(approx), abs(exact), 1e-8)
            assert rel < 1e-4
            checks += 1
    for layer, b in enumerate(net.biases):
        idx, approx = fd(b)
        exact = grad_b[layer][idx]
        rel = abs(approx - exact) / max(abs(approx), abs(exact), 1e-8)
        assert rel < 1e-4
        checks += 1
    assert checks >= 18


def test_c07_identical_seeds_give_identical_curves():
    first = hmod.curves_csv(_cached_arms())
    again = hmod.curves_csv(_rings_arms())
    assert first == again


# -- criterion 8: simulator against explicit matrix construction ------------------


def test_c08_circuits_match_matrix_oracle():
    rng = np.random.default_rng(80)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        circuit = helpers.random_circuit(rng, n, int(rng.integers(1, 13)))
        got = sv.run_circuit(circuit).amplitudes
        np.testing.assert_allclose(got, helpers.brute_run(circuit), atol=1e-10)


def test_c08_norm_preserved_on_deep_wide_circuits():
    rng = np.random.default_rng(81)
    for _ in range(10):
        circuit = helpers.random_circuit(rng, 10, 50)
        state = sv.run_circuit(circuit)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9


# -- criterion 9: CLI reruns are byte-identical -----------------------------------


def _xor_qsvm_config(tmp_path):
    return _write_config(
        tmp_path,
        {
            "dataset": {
                "synthetic": {"name": "xor", "n": 8, "noise": 0.0},
                "test_fraction": 0.2,
                "seed": 0,
            },
            "model": {"name": "qsvm", "feature_map": {"kind": "angle_y"}},
        },
    )


def _assert_rerun_identical(out, argv):
    """Run ``argv`` with ``--threads`` 1 and 2 into two ``--out`` folders
    under ``out``: both hold the same paths, with the same bytes in each."""
    files = []
    for threads in ("1", "2"):
        run = out / f"threads{threads}"
        assert main([*argv, "--out", str(run), "--threads", threads]) == 0
        files.append({str(p.relative_to(run)): p.read_bytes()
                      for p in sorted(run.rglob("*")) if p.is_file()})
    assert files[0] and files[0].keys() == files[1].keys()
    for name, blob in files[0].items():
        assert blob == files[1][name], name
    return out / "threads1"


def test_c09_ingest_rerun_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, {"dataset": {"csv": str(FIXTURE_CSV)}})
    out = _assert_rerun_identical(tmp_path, ["ingest", "--config", cfg])
    assert (out / "dataset" / "features.npy").exists()


def test_c09_benchmark_rerun_byte_identical_across_threads(tmp_path):
    models = [{"name": "dt"}, {"name": "rf", "n_trees": 5}, {"name": "svm"},
              {"name": "qsvm", "feature_map": {"kind": "zz"}}]
    for model in models:
        cfg = _write_config(tmp_path, {
            "dataset": {"synthetic": {"name": "xor", "n": 40}, "seed": 0},
            "model": model,
        }, name=f"{model['name']}.json")
        out = _assert_rerun_identical(tmp_path / model["name"], ["benchmark", "--config", cfg])
        assert json.loads((out / "report.json").read_text())["model"]["name"] == model["name"]


def test_c09_kernel_export_rerun_byte_identical_across_threads(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "dataset": {
                "synthetic": {"name": "blobs", "n": 24},
                "test_fraction": 0.2,
                "seed": 5,
            },
            "model": {"name": "qsvm", "feature_map": {"kind": "zz"}},
        },
    )
    out = _assert_rerun_identical(tmp_path, ["kernel", "--config", cfg])
    assert main(["kernel", "--verify", str(out / "gram.qkgm")]) == 0


def test_c09_hybrid_rerun_byte_identical_across_threads(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "dataset": {"synthetic": {"name": "rings", "n": 40}, "seed": 3},
            "hybrid": {
                "quanv": {"window": 2, "stride": 1, "layers": 1},
                "hidden": [8],
                "train": {"epochs": 2},
            },
        },
    )
    out = _assert_rerun_identical(tmp_path, ["hybrid", "--config", cfg])
    assert (out / "hybrid_manifest.json").exists()


def test_c09_report_rerender_byte_identical(tmp_path, capsys):
    cfg = _xor_qsvm_config(tmp_path)
    out = tmp_path / "out"
    assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--input", str(out / "report.json")]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--input", str(out / "report.json")]) == 0
    second = capsys.readouterr().out
    assert first == second == (out / "report.txt").read_text()
