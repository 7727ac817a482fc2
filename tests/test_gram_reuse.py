"""``benchmark`` trains on the Gram that ``kernel`` exported for the same rows and map.

``qkml kernel`` writes the train Gram to ``<out>/gram.qkgm``.  A qsvm
``benchmark`` into the same ``--out`` reads that export back when its
sidecar records the run's feature map and train rows, checks it, and
trains on it instead of building the same Gram again
(``qkernel.train_kernel``).  These tests pin that the reports keep their
bytes, that no Gram is built and only the support and test rows are
embedded, and the rules for a bad or a foreign export.
"""

import contextlib
import hashlib
import io
import json
import logging
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from qkml import accel, qkernel
from qkml.cli import main
from qkml.feature_maps import ANGLE_Y, ZZ

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import write_startup_csv  # noqa: E402

REPORTS = ("report.json", "report.txt", "confusion.csv")
MOONS = {"synthetic": {"name": "moons", "n": 200}, "seed": 1}


@pytest.fixture(scope="module")
def startup(tmp_path_factory):
    """The dataset section of a 10-qubit run on a generated startup CSV."""
    csv = tmp_path_factory.mktemp("csv") / "startups.csv"
    write_startup_csv(csv, 600, seed=3)
    return {"csv": str(csv), "feature_k": 10, "subsample": 300, "seed": 1}


@pytest.fixture
def grams(monkeypatch):
    """Row counts of every Gram product: ``accel.fidelity_gram`` (zz) and the
    product of angle_y's states with themselves in ``qkernel._fidelities``."""
    built = []
    fidelity_gram, fidelities = accel.fidelity_gram, qkernel._fidelities

    def gram(states):
        built.append(len(states))
        return fidelity_gram(states)

    def products(a, b, out=None):
        if a is b:
            built.append(len(a))
        return fidelities(a, b, out)

    monkeypatch.setattr(accel, "fidelity_gram", gram)
    monkeypatch.setattr(qkernel, "_fidelities", products)
    return built


def _config(tmp_path, dataset, feature_map, name="cfg.json", **model):
    cfg = tmp_path / name
    cfg.write_text(json.dumps({"dataset": dataset,
                               "model": {"name": "qsvm", "feature_map": feature_map, **model}}))
    return cfg


def _run(cfg, out, *commands, threads=1):
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            argv = [command, "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
            assert main(argv) == 0, command


def _reports(out):
    return {name: (out / name).read_bytes() for name in REPORTS}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("source, feature_map", [
    ("startup", {"kind": "zz"}), ("startup", {"kind": "zz", "entanglement": "ring"}),
    ("moons", {"kind": "angle_y"}), ("moons", {"kind": "zz"})])
def test_benchmark_on_an_export_writes_the_same_reports(tmp_path, startup, grams, source,
                                                          feature_map, threads):
    dataset = startup if source == "startup" else MOONS
    cfg = _config(tmp_path, dataset, feature_map)
    setup = ("ingest",) if source == "startup" else ()
    _run(cfg, tmp_path / "fresh", *setup, "benchmark", threads=threads)
    _run(cfg, tmp_path / "reused", *setup, "kernel", threads=threads)
    grams.clear()
    _run(cfg, tmp_path / "reused", "benchmark", threads=threads)
    assert grams == []
    assert _reports(tmp_path / "reused") == _reports(tmp_path / "fresh")


@pytest.mark.parametrize("source, kind, fresh, reused", [
    ("moons", ZZ, 200, 113), ("moons", ANGLE_Y, 400, 194), ("startup", ZZ, 389, 313)])
def test_a_reused_gram_embeds_only_the_support_and_test_rows(tmp_path, monkeypatch, startup, grams,
                                                             source, kind, fresh, reused):
    # Without an export every train and test row is embedded and the Gram is
    # built once; with one, no Gram is built and the train rows embedded are
    # the support rows alone.  angle_y embeds q one-qubit rows a row.
    embedded = []
    embedding_matrix = qkernel.embedding_matrix
    monkeypatch.setattr(qkernel, "embedding_matrix",
                        lambda spec, rows: embedded.append(len(rows)) or embedding_matrix(spec, rows))
    cfg = _config(tmp_path, startup if source == "startup" else MOONS, {"kind": kind})
    out = tmp_path / "out"
    if source == "startup":
        _run(cfg, out, "ingest")
    _run(cfg, out, "benchmark")
    doc = json.loads((out / "report.json").read_text())
    q = 1 if kind == ZZ else doc["model_info"]["feature_map"]["num_qubits"]
    train, test = doc["split"]["train_rows"], doc["split"]["test_rows"]
    assert (sum(embedded), grams) == (fresh, [train]) and fresh == q * (train + test)
    _run(cfg, out, "kernel")
    embedded.clear(), grams.clear()
    _run(cfg, out, "benchmark")
    support = doc["model_info"]["support_vectors"]
    assert (sum(embedded), grams) == (reused, []) and reused == q * (support + test)
    assert support < train


def _export(tmp_path, cfg=None):
    """A moons zz ``--out`` with its export, and the config of the run."""
    cfg = cfg or _config(tmp_path, MOONS, {"kind": "zz"})
    out = tmp_path / "out"
    _run(cfg, out, "kernel")
    return cfg, out


def _resign(out, change):
    """Apply ``change`` to a copy of the exported entries and write them back,
    the container hash and row count updated in the sidecar."""
    path, sidecar = out / "gram.qkgm", out / "gram.qkgm.meta"
    entries = change(np.array(qkernel.load_gram(path).entries))
    blob = struct.pack("<4sIQ", b"QKGM", 1, len(entries)) + entries.astype("<f8").tobytes()
    path.write_bytes(blob)
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "n": len(entries),
                                   "file_sha256": hashlib.sha256(blob).hexdigest()}))


def _set(i, j, value):
    def change(m):
        m[i, j] = value
        return m
    return change


def _flip_last_byte(out):
    path = out / "gram.qkgm"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


_REFUSED = {
    "flipped container byte": _flip_last_byte,
    "asymmetric": lambda out: _resign(out, _set(0, 1, 0.5)),
    "entry above one": lambda out: _resign(out, lambda m: np.where((m > 0.5) & (m < 1), 1.5, m)),
    "entry below zero": lambda out: _resign(out, lambda m: np.where(m < 0.1, -1e-3, m)),
    "NaN entry": lambda out: _resign(out, lambda m: np.where(m < 0.1, np.nan, m)),
    "diagonal below one": lambda out: _resign(out, _set(3, 3, 0.5)),
    "one row short": lambda out: _resign(out, lambda m: m[1:, 1:]),
    "sidecar not JSON": lambda out: (out / "gram.qkgm.meta").write_text("{"),
    "no container": lambda out: (out / "gram.qkgm").unlink(),
}


@pytest.mark.parametrize("mutate", _REFUSED.values(), ids=_REFUSED.keys())
def test_a_matching_export_that_fails_a_check_exits_two_and_writes_nothing(tmp_path, capsys,
                                                                           mutate):
    cfg, out = _export(tmp_path)
    mutate(out)
    capsys.readouterr()
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out / "gram.qkgm") in err
    assert not any((out / name).exists() for name in REPORTS)


def test_a_re_signed_export_of_the_same_gram_is_reused(tmp_path, grams):
    # The refusals above come from the changed entries, not from re-signing.
    cfg, out = _export(tmp_path)
    _resign(out, lambda m: m)
    grams.clear()
    _run(cfg, out, "benchmark")
    assert grams == []


def _other_rows(tmp_path, key, value):
    return _config(tmp_path, {**MOONS, key: value}, {"kind": "zz"}, name=f"{key}.json")


_FOREIGN = {
    "no export": (None, "no export"),
    "other subsample": (lambda tmp: _other_rows(tmp, "subsample", 100), "other rows"),
    "other seed": (lambda tmp: _other_rows(tmp, "seed", 2), "other rows"),
    "other feature map": (lambda tmp: _config(tmp, MOONS, {"kind": "angle_y"}, name="a.json"),
                          "other rows"),
    "other entanglement": (lambda tmp: _config(tmp, MOONS, {"kind": "zz", "entanglement": "ring"},
                                               name="r.json"), "other rows"),
    "null input hash": ({"input_sha256": None}, "other rows"),
    "other sidecar version": ({"version": 2}, "other rows"),
}


@pytest.mark.parametrize("export, says", _FOREIGN.values(), ids=_FOREIGN.keys())
def test_an_export_for_other_rows_or_another_map_is_passed_over(tmp_path, caplog, grams, export,
                                                                says):
    cfg = _config(tmp_path, MOONS, {"kind": "zz"})
    _run(cfg, tmp_path / "fresh", "benchmark")
    out = tmp_path / "out"
    if isinstance(export, dict):
        _export(tmp_path)
        sidecar = out / "gram.qkgm.meta"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **export}))
    elif export is not None:
        _export(tmp_path, export(tmp_path))
    grams.clear()
    caplog.set_level(logging.INFO, logger="qkml.qkernel")
    _run(cfg, out, "benchmark")
    assert len(grams) == 1
    assert _reports(out) == _reports(tmp_path / "fresh")
    lines = [r.getMessage() for r in caplog.records if r.name == "qkml.qkernel"]
    assert len(lines) == 1 and says in lines[0] and "building the Gram" in lines[0]
    assert lines[0].startswith(str(out / "gram.qkgm"))


def test_kernel_builds_its_gram_even_over_a_matching_export(tmp_path, grams):
    cfg, out = _export(tmp_path)
    grams.clear()
    _run(cfg, out, "kernel")
    assert len(grams) == 1


def test_a_reused_gram_logs_that_it_is_reused(tmp_path, caplog):
    cfg, out = _export(tmp_path)
    caplog.set_level(logging.INFO, logger="qkml.qkernel")
    _run(cfg, out, "benchmark")
    assert [r.getMessage() for r in caplog.records if r.name == "qkml.qkernel"] == [
        f"{out / 'gram.qkgm'}: reusing its Gram"]


def test_a_reused_gram_without_support_rows_predicts_from_the_bias(tmp_path, grams):
    # A tolerance above the initial KKT gap keeps every alpha 0: no train row
    # is kept, so none is embedded for the cross kernel.
    cfg = _config(tmp_path, MOONS, {"kind": "zz"}, tolerance=3.0)
    _run(cfg, tmp_path / "fresh", "benchmark")
    cfg, out = _export(tmp_path, cfg)
    grams.clear()
    _run(cfg, out, "benchmark")
    assert grams == []
    assert json.loads((out / "report.json").read_text())["model_info"]["support_vectors"] == 0
    assert _reports(out) == _reports(tmp_path / "fresh")

