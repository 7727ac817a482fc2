"""End-to-end command-line runs (in-process)."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import logging
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest

from qkml import __version__, accel, cli, config, metrics, qkernel, svm, trees
from qkml.cli import main
from qkml.config import ConfigError, resolve_config
from qkml.dataset import Dataset
from qkml.feature_maps import ZZ, FeatureMapSpec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import write_startup_csv  # noqa: E402

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURE_CSV = DATA / "startups_12.csv"


def _write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=2))
    return str(p)


def _moons_dt_config(tmp_path):
    return _write_config(
        tmp_path,
        {
            "dataset": {
                "synthetic": {"name": "moons", "n": 300, "noise": 0.2, "seed": 7},
                "test_fraction": 0.2,
                "seed": 7,
            },
            "model": {"name": "dt"},
        },
    )


# -- ingest --------------------------------------------------------------------


def test_ingest_fixture_keeps_seven_rows(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"dataset": {"csv": str(FIXTURE_CSV)}})
    out = tmp_path / "out"
    assert main(["ingest", "--config", cfg, "--out", str(out)]) == 0
    assert "ingest: 7 rows x 17 features" in capsys.readouterr().out
    summary = json.loads((out / "ingest_summary.json").read_text())
    assert summary["status_filter"]["kept"] == 7
    assert summary["status_filter"]["total"] == 12
    assert summary["status_filter"]["by_status"]["operating"] == 3
    assert summary["engineering"]["rows_out"] == 7
    assert summary["engineering"]["dropped_blank"] == 0
    assert summary["n_features"] == 17
    assert summary["class_counts"] == {"0": 4, "1": 3}
    assert (out / "dataset" / "features.npy").exists()


def test_ingest_rerun_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, {"dataset": {"csv": str(FIXTURE_CSV)}})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["ingest", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["ingest", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("ingest_summary.json", "dataset/features.npy", "dataset/labels.npy"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_ingest_missing_status_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,market\nx,Software\n")
    cfg = _write_config(tmp_path, {"dataset": {"csv": str(bad)}})
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'status' not found" in capsys.readouterr().err


def test_ingest_refuses_a_repeated_feature_name_before_writing(tmp_path, capsys):
    features = [{"type": "frequency", "column": c, "name": "f"} for c in ("market", "seed")]
    fc = tmp_path / "features.json"
    fc.write_text(json.dumps({"features": features}))
    cfg = _write_config(tmp_path, {"dataset": {"csv": str(FIXTURE_CSV), "feature_config": str(fc)}})
    out = tmp_path / "out"
    assert main(["ingest", "--config", cfg, "--out", str(out)]) == 2
    assert "error: feature config names the feature 'f' more than once" in capsys.readouterr().err
    assert not out.exists() or not any(out.rglob("*"))


@pytest.mark.parametrize("doc,message", [
    ({"features": [{"column": "market"}]}, "features[0] has no 'type'"),
    ({"features": ["market"]}, "features[0] must be a JSON object, got 'market'"),
    ({"features": [{"type": "frequency", "column": "market", "blnak": "drop"}]},
     "unknown key(s) in features[0]: ['blnak']"),
    ({"features": [{"type": "frequency", "column": "market"}], "blnak": "drop"},
     "unknown key(s) in the feature config: ['blnak']"),
], ids=["no-type", "string-item", "item-key", "top-level-key"])
def test_ingest_refuses_a_malformed_feature_config_before_writing(tmp_path, capsys, doc, message):
    fc = tmp_path / "features.json"
    fc.write_text(json.dumps(doc))
    cfg = _write_config(tmp_path, {"dataset": {"csv": str(FIXTURE_CSV), "feature_config": str(fc)}})
    out = tmp_path / "out"
    assert main(["ingest", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_feature_config_sets_the_features_and_their_order(tmp_path):
    csv = tmp_path / "startups.csv"
    write_startup_csv(csv, 300, 3)
    features = [
        {"type": "frequency", "column": "market"},
        {"type": "numeric", "column": "funding_total_usd", "blank": "drop"},
        {"type": "duration_days", "name": "days_founded_to_first_funding",
         "start": "founded_at", "end": "first_funding_at", "blank": "drop"},
    ]
    fc = tmp_path / "features.json"
    fc.write_text(json.dumps({"status_column": "status", "features": features}))
    dataset = {"csv": str(csv), "feature_config": str(fc)}
    cfg = _write_config(tmp_path, {"dataset": dataset, "model": {"name": "dt"}})
    out = tmp_path / "out"
    assert main(["ingest", "--config", cfg, "--out", str(out)]) == 0
    assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
    names = ["market_freq", "funding_total_usd", "days_founded_to_first_funding"]
    summary = json.loads((out / "ingest_summary.json").read_text())
    assert summary["engineering"]["feature_names"] == names
    assert json.loads((out / "report.json").read_text())["split"]["features"] == names


# -- benchmark -----------------------------------------------------------------


def test_benchmark_dt_on_moons(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["benchmark", "--config", _moons_dt_config(tmp_path), "--out", str(out)])
    assert rc == 0
    assert "precision" in capsys.readouterr().out
    doc = json.loads((out / "report.json").read_text())
    assert doc["report"]["accuracy"] >= 0.80
    assert doc["seed"] == 7
    assert len(doc["config_sha256"]) == 64
    assert (out / "report.txt").exists()
    assert (out / "confusion.csv").exists()


def test_benchmark_qsvm_angle_y_solves_xor(tmp_path):
    cfg = _write_config(
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
    out = tmp_path / "out"
    assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["train_accuracy"] == 1.0
    assert doc["model_info"]["feature_map"]["kind"] == "angle_y"
    assert doc["model_info"]["feature_map"]["num_qubits"] == 2


def test_benchmark_rerun_byte_identical(tmp_path):
    cfg = _moons_dt_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["benchmark", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["benchmark", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("report.txt", "report.json", "confusion.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_benchmark_rf_threads_do_not_change_bytes(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "dataset": {
                "synthetic": {"name": "moons", "n": 120, "seed": 2},
                "seed": 2,
            },
            "model": {"name": "rf", "n_trees": 15},
        },
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["benchmark", "--config", cfg, "--out", str(out_a), "--threads", "1"]) == 0
    assert main(["benchmark", "--config", cfg, "--out", str(out_b), "--threads", "2"]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_benchmark_csv_source_requires_ingest(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"dataset": {"csv": str(FIXTURE_CSV)}, "model": {"name": "dt"}},
    )
    assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "ingest" in capsys.readouterr().err


def _npy(arr) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _npz(arr) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, features=arr)
    return buf.getvalue()


@pytest.mark.parametrize("name,mutate", [
    ("features.npy", lambda x, y, names: b""),
    ("features.npy", lambda x, y, names: _npy(x)[:-8]),
    ("features.npy", lambda x, y, names: _npy(x + 1j)),
    ("features.npy", lambda x, y, names: _npy(np.full_like(x, np.nan))),
    ("features.npy", lambda x, y, names: _npy(x[:, 0])),
    ("labels.npy", lambda x, y, names: b""),
    ("labels.npy", lambda x, y, names: _npy(y[:-1])),
    ("labels.npy", lambda x, y, names: _npy(y + 2)),
    ("feature_names.json", lambda x, y, names: json.dumps(names[:-1]).encode()),
    ("feature_names.json", lambda x, y, names: b"5"),
    # An open bracket in the header padding: numpy's fallback parse raises TokenError.
    ("labels.npy", lambda x, y, names: _npy(y).replace(b"} ", b"}[", 1)),
    ("features.npy", lambda x, y, names: _npz(x)),
], ids=["empty", "truncated", "complex", "nan", "1-d", "empty-labels", "short-labels",
        "labels-2-3", "short-names", "names-not-a-list", "header-open-bracket", "npz-archive"])
def test_a_dataset_cache_ingest_cannot_write_is_named_in_one_error_line(
        tmp_path, capsys, name, mutate):
    cfg = _write_config(tmp_path, {"dataset": {"csv": str(FIXTURE_CSV)}, "model": {"name": "dt"}})
    out = tmp_path / "out"
    assert main(["ingest", "--config", cfg, "--out", str(out)]) == 0
    cache = out / "dataset"
    x, y = np.load(cache / "features.npy"), np.load(cache / "labels.npy")
    (cache / name).write_bytes(mutate(x, y, json.loads((cache / "feature_names.json").read_text())))
    capsys.readouterr()
    assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cache / name}: ") and err.count("\n") == 1
    assert not (out / "report.json").exists()


def test_benchmark_needs_model_section(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"dataset": {"synthetic": {"name": "moons"}}})
    assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "model" in capsys.readouterr().err


def test_synthetic_flag_overrides_csv_source(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"dataset": {"csv": str(FIXTURE_CSV), "seed": 4}, "model": {"name": "dt"}},
    )
    out = tmp_path / "out"
    rc = main(
        ["benchmark", "--config", cfg, "--out", str(out), "--synthetic", "moons"]
    )
    assert rc == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["split"]["features"] == ["x0", "x1"]


@pytest.mark.parametrize("model", [{"name": "rf", "n_trees": 5}, {"name": "dt"}],
                         ids=["rf", "dt"])
def test_tree_benchmark_never_routes_one_row_at_a_time(tmp_path, monkeypatch, model):
    def refuse(*args):
        raise AssertionError("per-row tree route")

    monkeypatch.setattr(trees, "predict_tree", refuse)
    monkeypatch.setattr(trees, "predict_forest", refuse)
    cfg = _write_config(tmp_path, {"model": model})
    out = tmp_path / "out"
    assert main(["benchmark", "--config", cfg, "--out", str(out), "--synthetic", "moons"]) == 0
    assert (out / "report.json").exists()


@pytest.mark.parametrize("source", ["csv", "moons"])
def test_dt_benchmark_reports_the_trees_depth_and_confusion(tmp_path, source):
    out = tmp_path / "out"
    if source == "csv":
        cfg = _write_config(tmp_path, {"dataset": {"csv": str(FIXTURE_CSV)}, "model": {"name": "dt"}})
        assert main(["ingest", "--config", cfg, "--out", str(out)]) == 0
        synthetic = None
    else:
        cfg = _write_config(tmp_path, {"model": {"name": "dt", "max_depth": 4}})
        synthetic = "moons"
    argv = ["benchmark", "--config", cfg, "--out", str(out)]
    # Seven of the fixture's 17 columns are constant on its train rows.
    warns = (pytest.warns(RuntimeWarning, match="dropping constant feature column")
             if source == "csv" else contextlib.nullcontext())
    with warns:
        assert main(argv + (["--synthetic", synthetic] if synthetic else [])) == 0
        resolved = resolve_config(config.load_config(cfg), None, synthetic)[0]
        train, test, _ = cli._splits(resolved, out)
    doc = json.loads((out / "report.json").read_text())
    tree = trees.train_tree(train.features, train.labels,
                            cli._typed(trees.TreeConfig, resolved["model"]))
    assert doc["model_info"] == {"depth": trees.tree_depth(tree)}
    want = metrics.confusion_matrix(test.labels, trees.predict_tree_batch(tree, test.features))
    assert doc["confusion"] == want.counts.tolist()


def test_dt_benchmark_reads_the_depth_from_the_node_table(tmp_path, monkeypatch):
    cfg = _moons_dt_config(tmp_path)
    resolved = resolve_config(config.load_config(cfg), None, None)[0]
    train, _, _ = cli._splits(resolved, tmp_path)
    want = trees.tree_depth(trees.train_tree(train.features, train.labels))

    def refuse(*args):
        raise AssertionError("TreeNodes built")

    monkeypatch.setattr(trees, "_build", refuse)
    out = tmp_path / "out"
    assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["model_info"] == {"depth": want}


@pytest.mark.parametrize("exc", ["plain", "numpy"])
def test_out_of_memory_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys, exc):
    def exhaust(*args):
        if exc == "plain":
            raise MemoryError
        np.empty(1 << 62, dtype=np.uint8)  # 4 EiB: more than any address space maps

    monkeypatch.setattr(trees, "train_forest", exhaust)
    cfg = _write_config(tmp_path, {"model": {"name": "rf", "n_trees": 3}})
    out = tmp_path / "out"
    assert main(["benchmark", "--config", cfg, "--out", str(out), "--synthetic", "moons"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the run ran out of memory")
    if exc == "numpy":
        assert "Unable to allocate 4.00 EiB" in err[0]
    assert not (out / "report.json").exists()


def test_seed_flag_changes_split(tmp_path):
    cfg = _moons_dt_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["benchmark", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["benchmark", "--config", cfg, "--out", str(out_b), "--seed", "8"]) == 0
    a = json.loads((out_a / "report.json").read_text())
    b = json.loads((out_b / "report.json").read_text())
    assert a["seed"] == 7 and b["seed"] == 8
    assert a["config_sha256"] != b["config_sha256"]


def test_stratified_split_with_subsample_keeps_both_classes(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "dataset": {
                "synthetic": {"name": "moons", "n": 200},
                "stratify": True,
                "subsample": 40,
                "seed": 3,
            },
            "model": {"name": "svm", "kernel": "rbf"},
        },
    )
    out = tmp_path / "o"
    assert main(["benchmark", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["split"]["train_rows"] == 40


# -- kernel --------------------------------------------------------------------


def _kernel_config(tmp_path, subsample=None):
    doc = {
        "dataset": {
            "synthetic": {"name": "blobs", "n": 10},
            "test_fraction": 0.2,
            "seed": 1,
        },
        "model": {"name": "qsvm", "feature_map": {"kind": "angle_y"}},
    }
    if subsample is not None:
        doc["dataset"]["subsample"] = subsample
    return _write_config(tmp_path, doc)


def test_kernel_export_then_verify(tmp_path, capsys):
    cfg = _kernel_config(tmp_path)
    out = tmp_path / "out"
    gram_path = out / "gram.qkgm"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    assert "kernel: wrote" in capsys.readouterr().out
    assert main(["kernel", "--verify", str(gram_path)]) == 0
    assert "verify: ok" in capsys.readouterr().out


@pytest.mark.parametrize("model", [None, {"name": "rf"}], ids=["no-config", "rf-config"])
def test_kernel_without_a_qsvm_model_maps_every_column_by_angle_y(tmp_path, model):
    out = tmp_path / "out"
    doc = {"dataset": {"synthetic": {"name": "moons", "n": 40}}, "model": model}
    source = ["--synthetic", "moons"] if model is None else ["--config", _write_config(tmp_path, doc)]
    assert main(["kernel", *source, "--out", str(out)]) == 0
    meta = json.loads((out / "gram.qkgm.meta").read_text())
    assert meta["feature_map"]["kind"] == "angle_y"
    assert meta["feature_map"]["num_qubits"] == 2


def test_kernel_single_row_gram_is_unit(tmp_path):
    cfg = _kernel_config(tmp_path, subsample=1)
    out = tmp_path / "out"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    gram = qkernel.load_gram(out / "gram.qkgm")
    assert gram.entries.shape == (1, 1)
    assert gram.entries[0, 0] == 1.0
    meta = qkernel.verify_gram(out / "gram.qkgm")
    assert meta["n"] == 1


def test_kernel_tamper_fails_verify(tmp_path, capsys):
    cfg = _kernel_config(tmp_path)
    out = tmp_path / "out"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    path = out / "gram.qkgm"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert main(["kernel", "--verify", str(path)]) == 2
    assert "hash mismatch" in capsys.readouterr().err


_ONE_BY_ONE = b"QKGM" + struct.pack("<IQd", 1, 1, 1.0)


def _sidecar_of(blob, **changes):
    meta = {"file_sha256": hashlib.sha256(blob).hexdigest(), "n": 1,
            "feature_map": {"kind": "zz"}}
    return {**meta, **changes}


def _short(size):
    blob = b"QKGM" + bytes(size - 4)
    return pytest.param(blob, _sidecar_of(blob), "truncated QKGM header", id=f"{size}-byte file")


def _bad_sidecar(meta, case):
    return pytest.param(_ONE_BY_ONE, meta, "gram.qkgm.meta: not a QKGM sidecar", id=case)


@pytest.mark.parametrize("blob, meta, message", [
    *map(_short, (4, 7, 8, 15)),
    _bad_sidecar([1], "sidecar list"),
    _bad_sidecar({k: v for k, v in _sidecar_of(_ONE_BY_ONE).items() if k != "feature_map"},
                 "no feature_map"),
    _bad_sidecar(_sidecar_of(_ONE_BY_ONE, feature_map="zz"), "feature_map string"),
    _bad_sidecar(_sidecar_of(_ONE_BY_ONE, feature_map={"kind": 3}), "kind number"),
    _bad_sidecar({"n": 1, "feature_map": {"kind": "zz"}}, "no file_sha256"),
])
def test_kernel_verify_exits_two_on_malformed_input(tmp_path, capsys, blob, meta, message):
    path = tmp_path / "gram.qkgm"
    path.write_bytes(blob)
    (tmp_path / "gram.qkgm.meta").write_text(json.dumps(meta))
    assert main(["kernel", "--verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert message in err


def test_kernel_verify_accepts_a_hand_built_container(tmp_path, capsys):
    path = tmp_path / "gram.qkgm"
    path.write_bytes(_ONE_BY_ONE)
    (tmp_path / "gram.qkgm.meta").write_text(json.dumps(_sidecar_of(_ONE_BY_ONE)))
    assert main(["kernel", "--verify", str(path)]) == 0
    assert capsys.readouterr().out == f"verify: ok ({path}, n=1, map=zz)\n"


def test_kernel_export_deterministic_across_threads(tmp_path):
    cfg = _kernel_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["kernel", "--config", cfg, "--out", str(out_a), "--threads", "1"]) == 0
    assert main(["kernel", "--config", cfg, "--out", str(out_b), "--threads", "3"]) == 0
    assert (out_a / "gram.qkgm").read_bytes() == (out_b / "gram.qkgm").read_bytes()


# -- hybrid --------------------------------------------------------------------


def _hybrid_config(tmp_path, epochs=1):
    return _write_config(
        tmp_path,
        {
            "dataset": {"synthetic": {"name": "rings", "n": 40}, "seed": 3},
            "hybrid": {
                "quanv": {"window": 2, "stride": 1, "layers": 1},
                "hidden": [8],
                "train": {"epochs": epochs},
            },
        },
    )


def test_hybrid_single_epoch_two_curve_rows(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["hybrid", "--config", _hybrid_config(tmp_path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "hybrid[classical]" in stdout and "hybrid[hybrid]" in stdout
    lines = (out / "curves.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,arm,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 3
    manifest = json.loads((out / "hybrid_manifest.json").read_text())
    assert manifest["quanv"]["window"] == 2
    assert set(manifest["arms"]) == {"classical", "hybrid"}


def test_hybrid_rerun_identical_curves(tmp_path):
    cfg = _hybrid_config(tmp_path, epochs=2)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["hybrid", "--config", cfg, "--out", str(out_a), "--threads", "1"]) == 0
    assert main(["hybrid", "--config", cfg, "--out", str(out_b), "--threads", "2"]) == 0
    for name in ("curves.csv", "hybrid_manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_hybrid_time_goes_to_stdout_not_the_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["hybrid", "--config", _hybrid_config(tmp_path), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["hybrid[classical]", "hybrid[hybrid]", "hybrid"]
    assert re.fullmatch(r"hybrid: quanv and training took \d+\.\d{3} s", lines[2])
    manifest = json.loads((out / "hybrid_manifest.json").read_text())
    assert set(manifest) == {"config_sha256", "seed", "split", "quanv", "hidden", "train", "arms"}


def test_hybrid_default_window_clamps_to_feature_count(tmp_path):
    # Default quanv window is 4; synthetic sources have 2 features.
    cfg = _write_config(
        tmp_path,
        {
            "dataset": {"synthetic": {"name": "rings", "n": 30}, "seed": 1},
            "hybrid": {"train": {"epochs": 1}},
        },
    )
    out = tmp_path / "out"
    assert main(["hybrid", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "hybrid_manifest.json").read_text())
    assert manifest["quanv"]["window"] == 2


def test_hybrid_logs_each_stage_with_its_sizes(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="qkml")
    out = tmp_path / "out"
    assert main(["hybrid", "--config", _hybrid_config(tmp_path, epochs=2), "--out", str(out)]) == 0
    stages = [r.getMessage() for r in caplog.records if r.name == "qkml"]
    assert stages[:2] == [
        "quanv: 40 rows x 1 windows of 2 qubits",
        "stacked training: 2 arms, input widths 2 and 2, 1 steps per epoch, 2 epochs",
    ]
    # The wall time is not deterministic; the step count is.
    assert len(stages) == 3
    assert re.fullmatch(r"quanv and stacked training took \d+\.\d{3} s for 2 steps", stages[2])


def _stage_logs(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "qkml"]


def test_ingest_benchmark_and_kernel_log_each_stage_with_its_sizes(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="qkml")
    out = str(tmp_path / "out")
    assert main(["ingest", "--config", _moons_dt_config(tmp_path), "--out", out]) == 0
    assert _stage_logs(caplog) == ["dataset: 300 rows x 2 features"]
    caplog.clear()
    assert main(["benchmark", "--config", _moons_dt_config(tmp_path), "--out", out]) == 0
    assert _stage_logs(caplog) == [
        "split: 240 train and 60 test rows x 2 features",
        "training dt: 240 rows x 2 features",
        "predicted 60 test and 240 train rows",
    ]
    caplog.clear()
    assert main(["kernel", "--config", _kernel_config(tmp_path), "--out", out]) == 0
    assert _stage_logs(caplog) == ["gram: 8 rows on 2 qubits, 512 bytes"]


@pytest.mark.parametrize("level,logged", [(None, False), ("INFO", True)])
def test_stage_logs_reach_stderr_only_at_info(tmp_path, level, logged):
    env = {k: v for k, v in os.environ.items() if k != "QKML_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if level:
        env["QKML_LOG"] = level
    argv = ["benchmark", "--config", _moons_dt_config(tmp_path), "--out", str(tmp_path / "o")]
    done = subprocess.run([sys.executable, "-m", "qkml.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert ("INFO qkml: training dt: 240 rows x 2 features" in done.stderr) == logged
    assert "INFO" not in done.stdout


def test_no_command_imports_numpy_ma(tmp_path):
    # Labels are checked element-wise: np.unique's hash path imports
    # numpy.ma, over a megabyte of a process's peak.
    script = """
import json, sys
from pathlib import Path
from qkml.cli import main
tmp = Path(sys.argv[1])
for name in ("qsvm", "svm", "rf", "dt"):
    cfg, out = tmp / (name + ".json"), str(tmp / name)
    cfg.write_text(json.dumps({
        "dataset": {"synthetic": {"name": "moons", "n": 60}, "seed": 3},
        "model": {"name": name, **({"feature_map": {"kind": "zz"}} if name == "qsvm" else {})},
        "hybrid": {"quanv": {"window": 2, "stride": 1, "layers": 1}, "hidden": [4],
                   "train": {"epochs": 1}}}))
    for argv in (["ingest"], ["kernel"], ["benchmark"], ["hybrid"]):
        assert main([*argv, "--config", str(cfg), "--out", out]) == 0, argv
    assert main(["kernel", "--verify", out + "/gram.qkgm"]) == 0
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_an_unknown_log_level_warns_and_falls_back(monkeypatch, caplog):
    monkeypatch.setenv("QKML_LOG", "loud")
    cli._setup_logging()
    assert caplog.messages == ["unknown QKML_LOG level 'LOUD', using WARNING"]


def test_a_logging_name_that_is_not_a_level_warns_too(monkeypatch, caplog):
    # logging.BASIC_FORMAT exists, but it is a format string, not a level.
    monkeypatch.setenv("QKML_LOG", "basic_format")
    cli._setup_logging()
    assert caplog.messages == ["unknown QKML_LOG level 'BASIC_FORMAT', using WARNING"]


def test_no_config_file_is_the_empty_config():
    assert config.load_config(None) == {}


# -- report --------------------------------------------------------------------


def test_report_rerenders_stored_results(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["benchmark", "--config", _moons_dt_config(tmp_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--input", str(out / "report.json")]) == 0
    assert capsys.readouterr().out == (out / "report.txt").read_text()


@pytest.mark.parametrize("text", ["{}", "[1]"])
def test_report_exits_two_on_a_document_that_is_not_a_report(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: not a qkml report (no 'confusion' entry)\n"


@pytest.mark.parametrize("counts,message", [
    (None, "'confusion' is not a matrix of integer counts"),
    ({}, "'confusion' is not a matrix of integer counts"),
    ([[None, 1], [0, 0]], "'confusion' is not a matrix of integer counts"),
    ([[0.5, 0], [0, 1]], "'confusion' is not a matrix of integer counts"),
    ([[0, 0], [0, 0]], "no samples"),
    ([[2**63, 0], [0, 1]], "'confusion' is not a matrix of integer counts"),
    ([[2**62, 2**62], [2**62, 2**62]], "'confusion' is not a matrix of integer counts"),
    ([[-1, 2], [0, 1]], "'confusion' is not a matrix of integer counts"),
], ids=["null", "object", "null-count", "fractional-count", "all-zero", "count-2-63",
        "total-2-64", "negative-count"])
def test_report_exits_two_on_confusion_counts_it_cannot_render(tmp_path, capsys, counts, message):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"confusion": counts}))
    assert main(["report", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1


@pytest.mark.parametrize("case,data", [
    ("sidecar", b"{not json"), ("report", b"{not json"), ("feature_config", b"{oops"),
    ("report", b"\xff{}"), ("config", b"\xff{}"),
], ids=["sidecar", "report", "feature-config", "report-not-utf8", "config-not-utf8"])
def test_an_input_that_is_not_utf8_json_is_named_in_one_error_line(tmp_path, capsys, case, data):
    gram = tmp_path / "g.qkgm"
    gram.write_bytes(b"QKGM")
    bad = tmp_path / ("g.qkgm.meta" if case == "sidecar" else f"{case}.json")
    bad.write_bytes(data)
    out = str(tmp_path / "out")
    fc_cfg = {"dataset": {"csv": str(FIXTURE_CSV), "feature_config": str(bad)}}
    argv = {
        "sidecar": ["kernel", "--verify", str(gram)],
        "report": ["report", "--input", str(bad)],
        "feature_config": ["ingest", "--config", _write_config(tmp_path, fc_cfg), "--out", out],
        "config": ["ingest", "--config", str(bad), "--out", out],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert f"{bad}: invalid JSON (" in err


# -- argument and config validation ---------------------------------------------


def test_malformed_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["benchmark", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_top_level_key_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"datasets": {}})
    rc = main(["ingest", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown top-level" in capsys.readouterr().err


def test_unknown_model_key_exits_two(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {
            "dataset": {"synthetic": {"name": "moons"}},
            "model": {"name": "dt", "depth": 3},
        },
    )
    rc = main(["benchmark", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


_MOONS = {"synthetic": {"name": "moons"}}


@pytest.mark.parametrize(
    "doc, message",
    [
        (None, "config file not found"),
        ([1, 2], "top level must be a JSON object"),
        ({"dataset": []}, "dataset must be a JSON object"),
        ({"dataset": {"synthetic": {"n": 50}}}, "dataset.synthetic needs a 'name'"),
        ({"dataset": {}}, "dataset needs either 'csv' or 'synthetic'"),
        ({"dataset": {**_MOONS, "csv": "x.csv"}}, "takes 'csv' or 'synthetic', not both"),
        ({"dataset": {**_MOONS, "test_fraction": 1.0}}, "test_fraction must be in (0, 1)"),
        ({"dataset": {**_MOONS, "scaling": "log"}}, "dataset.scaling must be"),
        ({"dataset": _MOONS, "model": {"c": 1.0}}, "model needs a 'name'"),
        ({"dataset": _MOONS, "model": {"name": "knn"}}, "unknown model 'knn'"),
        ({"dataset": _MOONS, "hybrid": {"hidden": [0]}}, "hybrid.hidden must be a list"),
        ({"dataset": _MOONS, "model": {"name": "rf", "bootstrap": "false"}},
         "model(rf).bootstrap must be true or false"),
        ({"dataset": _MOONS, "model": {"name": "dt", "max_depth": None}},
         "model(dt).max_depth must be an integer"),
        ({"dataset": _MOONS, "model": {"name": "svm", "c": None}}, "model(svm).c must be a number"),
        ({"dataset": _MOONS, "model": {"name": "svm", "class_weight": True}},
         "model(svm).class_weight must be a list"),
        ({"dataset": {"csv": 5}}, "dataset.csv must be a string or null"),
        ({"dataset": _MOONS, "model": {"name": "dt", "max_depth": 2.7}},
         "model(dt).max_depth must be an integer"),
        ({"dataset": _MOONS, "model": {"name": "qsvm", "feature_map": {"repetitions": 1.5}}},
         "model.feature_map.repetitions must be an integer or null"),
        ({"dataset": {**_MOONS, "feature_k": 1.5}}, "dataset.feature_k must be an integer"),
        ({"dataset": {**_MOONS, "stratify": "no"}}, "dataset.stratify must be true or false"),
        ({"dataset": _MOONS, "model": {"name": "svm", "class_weight": [True, 2]}},
         "model(svm).class_weight must be a number"),
        ({"dataset": _MOONS, "hybrid": {"hidden": [True]}}, "hybrid.hidden must be an integer"),
        ({"dataset": {**_MOONS, "test_fraction": 0}}, "dataset.test_fraction must be in (0, 1)"),
        ({"dataset": {**_MOONS, "test_fraction": -0.1}},
         "dataset.test_fraction must be in (0, 1)"),
    ],
    ids=["no-file", "top-level", "section", "synthetic-name", "no-source", "two-sources",
         "test-fraction", "scaling", "model-name", "unknown-model", "hidden",
         "bootstrap-string", "max-depth-null", "c-null", "class-weight-bool", "csv-int",
         "max-depth-fraction", "repetitions-fraction", "feature-k-fraction", "stratify-string",
         "class-weight-bool-factor", "hidden-bool", "test-fraction-zero",
         "test-fraction-negative"],
)
def test_config_errors_exit_two_with_their_message(tmp_path, capsys, doc, message):
    cfg = str(tmp_path / "missing.json") if doc is None else _write_config(tmp_path, doc)
    assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("subsample", 0), ("subsample", -5), ("feature_k", 0)])
@pytest.mark.parametrize("command, model", [
    ("ingest", None), ("benchmark", "dt"), ("benchmark", "svm"), ("benchmark", "qsvm"),
    ("kernel", "qsvm"), ("hybrid", None)])
def test_a_row_or_column_count_below_one_is_refused_before_any_work(tmp_path, capsys, command,
                                                                    model, key, value):
    # Unrefused, these runs failed late with messages that named no key:
    # "no rows to embed", "training diverged", "k must be >= 1".
    doc = {"dataset": {"synthetic": {"name": "moons", "n": 60}, key: value}}
    if model is not None:
        doc["model"] = {"name": model}
    out = tmp_path / "o"
    assert main([command, "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: dataset.{key} must be >= 1, got {value}"]
    assert not out.exists()


def _section_cases():
    """(section name, key, kind, doc builder) for every key of every section
    table that has a kind."""
    sections = [
        ("dataset", config._DATASET, lambda k, v: {"dataset": {**_MOONS, k: v}}),
        ("dataset.synthetic", config._SYNTHETIC,
         lambda k, v: {"dataset": {"synthetic": {"name": "moons", k: v}}}),
        ("model.feature_map", config._FEATURE_MAP,
         lambda k, v: {"dataset": _MOONS, "model": {"name": "qsvm", "feature_map": {k: v}}}),
        ("hybrid", config._HYBRID, lambda k, v: {"dataset": _MOONS, "hybrid": {k: v}}),
        ("hybrid.quanv", config._QUANV,
         lambda k, v: {"dataset": _MOONS, "hybrid": {"quanv": {k: v}}}),
        ("hybrid.train", config._TRAIN,
         lambda k, v: {"dataset": _MOONS, "hybrid": {"train": {k: v}}}),
    ] + [
        (f"model({m})", section,
         lambda k, v, m=m: {"dataset": _MOONS, "model": {"name": m, k: v}})
        for m, section in config._MODELS.items()
    ]
    return [
        pytest.param(name, key, kind, build, id=f"{name}.{key}")
        for name, (_, kinds), build in sections
        for key, kind in sorted(kinds.items())
    ]


@pytest.mark.parametrize("section, key, kind, build", _section_cases())
def test_every_config_key_refuses_a_wrong_kind(tmp_path, capsys, section, key, kind, build):
    # A dict is the wrong kind for every key; so is true, unless it is a bool.
    wrong = "false" if bool in (kind, *typing.get_args(kind)) else True
    for i, value in enumerate(({}, wrong)):
        cfg = _write_config(tmp_path, build(key, value), name=f"{i}.json")
        assert main(["ingest", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}.{key} must be ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "model, digest",
    [
        ("dt", "7b99ddcd2e67cc14f17e994e7e05cd939807449e3bdb0ec2737ff771912ff523"),
        ("rf", "b6ecf55c786b54a8a83fe0696576c86abf5e170563bf3a4fed2c945004d57d26"),
        ("svm", "4e1d6ea32eecdadea0a2acea8db4c4a12d37a2fe9fcb02953a62f2517f27cdae"),
        ("qsvm", "cc6b5e253aa229d096454a7a74ccbd8af3f735c625c307341ebd13da7cd5605d"),
        (None, "8da06d2687fc2f11e642f112b3384e22f5bc12a7cf9a828ad139f12c22d59f64"),
    ],
)
def test_default_resolutions_keep_their_hash(model, digest):
    doc = {"dataset": _MOONS}
    if model is not None:
        doc["model"] = {"name": model}
    assert resolve_config(doc)[1] == digest


@pytest.mark.parametrize(
    "command, as_ints, as_written",
    [
        (
            "benchmark",
            {"model": {"name": "rf", "n_trees": 5, "mtry": 1, "max_depth": 4}},
            {"model": {"name": "rf", "n_trees": 5.0, "mtry": 1.0, "max_depth": "4"}},
        ),
        (
            "benchmark",
            {"model": {"name": "qsvm", "c": 2.0,
                       "feature_map": {"kind": "zz", "repetitions": 1}}},
            {"model": {"name": "qsvm", "max_passes": "50", "c": 2,
                       "feature_map": {"kind": "zz", "repetitions": 1.0}}},
        ),
        (
            "hybrid",
            {"hybrid": {"quanv": {"window": 2, "stride": 1},
                        "train": {"epochs": 2, "batch_size": 16}}},
            {"hybrid": {"quanv": {"window": 2.0, "stride": "1"},
                        "train": {"epochs": 2.0, "batch_size": "16"}}},
        ),
        (
            "benchmark",
            {"dataset": {"synthetic": {"name": "moons", "n": 80}, "seed": 2,
                         "feature_k": 2, "subsample": 40}, "model": {"name": "dt"}},
            {"dataset": {"synthetic": {"name": "moons", "n": 80.0}, "seed": 2,
                         "feature_k": 2.0, "subsample": "40"}, "model": {"name": "dt"}},
        ),
    ],
    ids=["rf", "qsvm", "hybrid", "dataset"],
)
def test_integral_floats_and_numeric_strings_run_as_ints(tmp_path, command, as_ints, as_written):
    dataset = {"synthetic": {"name": "moons", "n": 80}, "seed": 2}
    outs = []
    for name, doc in (("ints", as_ints), ("written", as_written)):
        cfg = _write_config(tmp_path, {"dataset": dataset, **doc}, name=f"{name}.json")
        outs.append(tmp_path / name)
        assert main([command, "--config", cfg, "--out", str(outs[-1])]) == 0
    if command == "hybrid":
        artifacts = ["curves.csv", "hybrid_manifest.json"]
    else:
        artifacts = ["report.txt", "report.json", "confusion.csv"]
    for artifact in artifacts:
        ints, written = ((out / artifact).read_bytes() for out in outs)
        assert ints == written


def test_a_command_leaves_almost_no_cycles_for_the_collector(tmp_path):
    argv = ["benchmark", "--config", _moons_dt_config(tmp_path), "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        # The json encoder's closures remain; a parser per call left ~300 objects.
        assert gc.collect() < 100
    finally:
        gc.enable()


def test_commands_need_a_source():
    for command in ("ingest", "benchmark", "hybrid", "kernel"):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2


def test_each_subcommand_takes_its_pinned_options():
    # A new option is a deliberate edit of this table.
    common = {"--config", "--out", "--seed", "--threads", "--synthetic"}
    pinned = {"ingest": common, "benchmark": common, "hybrid": common,
              "kernel": common | {"--verify"}, "report": {"--input"}}
    subs, = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
               for name, sub in subs.choices.items()}
    assert options == pinned


def test_unknown_synthetic_name_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["benchmark", "--synthetic", "spirals", "--out", str(tmp_path / "o")])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert f"qkml {__version__}" in capsys.readouterr().out


def test_the_module_entry_point_runs_main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "qkml.cli", "--version"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, f"qkml {__version__}\n")


# -- quantum-kernel embedding reuse and the memory pre-flight --------------------


def _qsvm_zz_config(tmp_path):
    return _write_config(
        tmp_path,
        {
            "dataset": {"synthetic": {"name": "moons", "n": 60}, "seed": 4},
            "model": {"name": "qsvm", "feature_map": {"kind": "zz"}},
        },
    )


def test_benchmark_qsvm_embeds_each_row_once(tmp_path, monkeypatch):
    embedded = []
    real = qkernel.embedding_matrix

    def counting(spec, rows):
        embedded.append(len(rows))
        return real(spec, rows)

    monkeypatch.setattr(qkernel, "embedding_matrix", counting)
    out = tmp_path / "out"
    assert main(["benchmark", "--config", _qsvm_zz_config(tmp_path), "--out", str(out)]) == 0
    split = json.loads((out / "report.json").read_text())["split"]
    assert sum(embedded) == split["train_rows"] + split["test_rows"]


def test_qsvm_benchmark_reports_the_predictions_of_the_full_cross_kernel(tmp_path):
    cfg = _qsvm_zz_config(tmp_path)
    out = tmp_path / "out"
    assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
    resolved, _ = resolve_config(config.load_config(cfg), None, None)
    train, test, _ = cli._splits(resolved, out)
    spec = cli._kernel_spec(resolved["model"], train)
    gram = qkernel.gram_matrix(spec, train.features)
    model = svm.train_svm(gram, train.labels, cli._typed(svm.SvmConfig, resolved["model"],
                                                         kernel=svm.PRECOMPUTED))
    # Some train rows have alpha = 0, so the benchmark compares fewer.
    assert 0 < np.count_nonzero(model.alphas) < train.n_rows
    preds = svm.predict(model, qkernel.cross_kernel(spec, test.features, train.features))
    cm = metrics.confusion_matrix(test.labels, preds)
    doc = json.loads((out / "report.json").read_text())
    assert doc["confusion"] == cm.counts.tolist()
    assert doc["report"] == metrics.report_to_dict(metrics.report_from_confusion(cm))
    assert doc["train_accuracy"] == metrics.accuracy(train.labels, svm.predict(model, gram.entries))


def test_qsvm_benchmark_without_support_rows_predicts_from_the_bias(tmp_path):
    # A tolerance above the initial KKT gap of 2 leaves every alpha 0 and the
    # bias 0, so every row goes to class 1 and no test row is compared.
    cfg = _write_config(tmp_path, {
        "dataset": {"synthetic": {"name": "moons", "n": 60}, "seed": 4},
        "model": {"name": "qsvm", "tolerance": 3.0, "feature_map": {"kind": "zz"}}})
    out = tmp_path / "out"
    assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["model_info"]["support_vectors"] == 0
    assert [row[0] for row in doc["confusion"]] == [0, 0]


def test_qsvm_peaks_at_the_train_states_and_the_larger_kernel_phase():
    # zz on 10 qubits, 400 train and 278 test rows, every train row a
    # support row.  The Gram is released before the test rows stream and
    # each test block is conjugated in place, so the peak is the train
    # states plus the larger phase: two n x n matrices while the Gram is
    # built, or the cross kernel and one test block with its embedding
    # blocks or its products.  Labels, alphas, predictions and the checked
    # feature rows get 128 KiB.  Holding the Gram through the cross phase
    # exceeds it.
    q, n, n_test = 10, 400, 278
    rng = np.random.default_rng(5)
    x = rng.uniform(0, np.pi, size=(n + n_test, q))
    y = np.sin(x[:, 0]) * np.cos(x[:, 1]) + 0.3 * rng.normal(size=n + n_test) > 0.3
    names = tuple(f"f{i}" for i in range(q))
    train, test = Dataset(x[:n], y[:n], names), Dataset(x[n:], y[n:], names)
    model = {"name": "qsvm", "c": 1.0, "tolerance": 1e-3, "max_passes": 5,
             "class_weight": None, "feature_map": {"kind": "zz"}}
    spec = cli._kernel_spec(model, train)
    rows = max(b.stop - b.start for b in accel.row_blocks(n_test, max(1 << q, n)))
    tracemalloc.start()
    try:
        qkernel.embedding_matrix(spec, test.features[:rows])
        embed_block = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _, _, info = cli._train_and_predict(model, train, test, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info["support_vectors"] == n
    states, gram_phase = (16 << q) * n, 2 * 8 * n * n
    cross_phase = 8 * n_test * n + max(embed_block, rows * ((16 << q) + 24 * n))
    assert peak <= states + max(gram_phase, cross_phase) + (128 << 10)


@pytest.mark.parametrize("n,width,keep", [
    (700, 256, "random"), (700, 256, "all"), (700, 256, "none"), (700, 256, "last"),
    (5, 4, "random"), (1, 2, "all")])
def test_support_rows_move_to_the_front_in_place_a_block_at_a_time(n, width, keep):
    # The qsvm branch passes its alpha != 0 rows as cross_from_rows' keep.
    rng = np.random.default_rng(n + width)
    q = width.bit_length() - 1
    spec = FeatureMapSpec(ZZ, q)
    states = qkernel.embedding_matrix(spec, rng.uniform(0, np.pi, size=(n, q)))
    test = rng.uniform(0, np.pi, size=(5, q))
    index = {"random": np.flatnonzero(rng.random(n) < 0.7), "all": np.arange(n),
             "none": np.arange(0), "last": np.arange(n - 3, n)}[keep]
    gathered = states[index]
    peaks, crosses = [], []
    for args in ((gathered,), (states, index)):
        tracemalloc.start()
        try:
            crosses.append(qkernel.cross_from_rows(spec, test, *args))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert crosses[1].tobytes() == crosses[0].tobytes()
    assert states[: len(index)].tobytes() == gathered.tobytes()
    # One block of gathered rows, never a copy of every support row.
    assert peaks[1] <= peaks[0] + 16 * accel._BLOCK + 4096


def test_angle_y_qsvm_embeds_no_register_wider_than_one_qubit(tmp_path, monkeypatch):
    real = qkernel.embedding_matrix

    def one_qubit(spec, rows):
        assert spec.num_qubits == 1, f"embedded a {spec.num_qubits}-qubit register"
        return real(spec, rows)

    monkeypatch.setattr(qkernel, "embedding_matrix", one_qubit)
    cfg = _write_config(tmp_path, {"dataset": {"synthetic": {"name": "moons", "n": 60}, "seed": 4},
                                   "model": {"name": "qsvm"}})
    for command in ("benchmark", "kernel"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert qkernel.verify_gram(tmp_path / "out" / "gram.qkgm")["feature_map"]["kind"] == "angle_y"


def test_default_qsvm_config_on_all_seventeen_columns_runs_in_bounded_memory(tmp_path):
    # angle_y on 17 qubits, 1,112 train and 278 test rows: held as 17
    # one-qubit states a row, the kernel needs about two 1,112 x 1,112
    # matrices, where 2^17 amplitudes a row would need gigabytes.
    write_startup_csv(tmp_path / "startups.csv", 1900, 1)
    cfg = _write_config(tmp_path, {"dataset": {"csv": str(tmp_path / "startups.csv"), "seed": 1},
                                   "model": {"name": "qsvm"}})
    for command in ("ingest", "benchmark", "kernel"):
        tracemalloc.start()
        try:
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 20, command
    split = json.loads((tmp_path / "out" / "report.json").read_text())["split"]
    assert (split["train_rows"], split["test_rows"], len(split["features"])) == (1112, 278, 17)


def _no_embedding(monkeypatch):
    def refuse(spec, rows):
        raise AssertionError("embedding started")

    monkeypatch.setattr(qkernel, "embedding_matrix", refuse)


def _physical_memory(monkeypatch, nbytes):
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}
    monkeypatch.setattr(cli.os, "sysconf", lambda name: pages[name])


def test_qsvm_beyond_physical_memory_fails_before_embedding(monkeypatch):
    _no_embedding(monkeypatch)
    _physical_memory(monkeypatch, 8 << 30)
    names = tuple(f"f{i}" for i in range(20))
    train = Dataset(np.zeros((5000, 20)), np.arange(5000) % 2, names)
    test = Dataset(np.zeros((1000, 20)), np.arange(1000) % 2, names)
    model = {"name": "qsvm", "c": 1.0, "tolerance": 1e-3, "max_passes": 5,
             "class_weight": None, "feature_map": {"kind": "zz"}}
    with pytest.raises(ConfigError, match="feature_k.*subsample"):
        cli._train_and_predict(model, train, test, 0)


def test_an_unknown_model_name_is_a_config_error():
    # resolve_config refuses it first; this guards direct callers.
    names = ("f0", "f1")
    train = Dataset(np.zeros((4, 2)), np.arange(4) % 2, names)
    with pytest.raises(ConfigError, match="unknown model 'knn'"):
        cli._train_and_predict({"name": "knn"}, train, train, 0)


@pytest.mark.parametrize("command", ["kernel", "benchmark"])
def test_cli_exits_two_when_kernel_cannot_fit(tmp_path, monkeypatch, capsys, command):
    _no_embedding(monkeypatch)
    _physical_memory(monkeypatch, 4096)
    out = tmp_path / "out"
    assert main([command, "--config", _qsvm_zz_config(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dataset.feature_k" in err
    assert not (out / "gram.qkgm").exists() and not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["kernel", "benchmark"])
def test_an_angle_y_kernel_that_cannot_fit_names_subsample_alone(tmp_path, monkeypatch, capsys,
                                                                  command):
    # angle_y's estimate is the n x n matrices; fewer qubits hardly lower it.
    _no_embedding(monkeypatch)
    _physical_memory(monkeypatch, 4096)
    out = tmp_path / "out"
    doc = {"dataset": {"synthetic": {"name": "moons", "n": 100}},
           "model": {"name": "qsvm", "feature_map": {"kind": "angle_y"}}}
    assert main([command, "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dataset.subsample" in err and "feature_k" not in err
    assert not (out / "gram.qkgm").exists() and not (out / "report.json").exists()
