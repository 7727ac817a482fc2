"""Seeded input mutations: every file the CLI reads back, and every model config.

A fixed list of cases, drawn once from numpy's generator, truncates a
file, flips one of its bytes, drops a key or swaps a value for one of
another type.  The files are the QKGM container and its sidecar
(``kernel --verify``, and a qsvm ``benchmark``, which trains on that
export), ``report.json`` (``report --input``), the three dataset cache
files (``benchmark``, ``kernel`` and ``hybrid`` on a CSV source) and the
qsvm, rf, dt and svm configs (``benchmark``).  Each case must end in exit
0, or in exit 2 with one ``error:`` line and no traceback, and a
``benchmark`` that exits 0 must not have trained on a changed export.  This is grammar-free fuzzing in the manner of Miller,
Fredriksen & So, "An empirical study of the reliability of UNIX
utilities", CACM 33(12), 1990.  Swapped-in values come from a small set,
so no case allocates more than a few MB.
"""

import ast
import copy
import json
import shutil
import traceback
from pathlib import Path

import numpy as np
import pytest

from qkml import accel
from qkml.cli import main

FIXTURE_CSV = Path(__file__).parent / "data" / "startups_12.csv"

VALUES = (-1, 0, 0.5, 3, "x", None, [], {})

_DATASET_FILES = ("features.npy", "labels.npy", "feature_names.json")

# What each file is read back by.
_READERS = {
    "gram.qkgm": ["verify"],
    "gram.qkgm.meta": ["verify"],
    "report.json": ["report"],
    **{name: ["benchmark", "kernel", "hybrid"] for name in _DATASET_FILES},
}

# Cases on the export for ``benchmark`` are drawn apart, after the others,
# so that adding them changed no earlier case.
_EXPORT_READERS = {"gram.qkgm": ["benchmark"], "gram.qkgm.meta": ["benchmark"]}

_MODELS = {
    "qsvm": {"name": "qsvm", "c": 2.0, "tolerance": 0.001,
             "feature_map": {"kind": "zz", "repetitions": 2, "entanglement": "ring"}},
    "rf": {"name": "rf", "n_trees": 3, "max_depth": 3, "mtry": 1, "bootstrap": True},
    "dt": {"name": "dt", "max_depth": 4, "min_samples_split": 2, "min_samples_leaf": 1},
    "svm": {"name": "svm", "kernel": "rbf", "c": 1.0, "gamma": 0.5},
}

_SYNTHETIC = {"synthetic": {"name": "moons", "n": 40, "noise": 0.1, "seed": 1},
              "test_fraction": 0.25, "seed": 1, "stratify": True, "scaling": "standardize",
              "feature_k": 2, "subsample": 20}


def _file_cases(rng, readers, count):
    """``count`` cases on the files ``readers`` names, each read by one of its readers."""
    cases = []
    for _ in range(count):
        target = list(readers)[rng.integers(len(readers))]
        kinds = ("truncate", "flip") if target == "gram.qkgm" else ("truncate", "flip", "drop", "swap")
        command = readers[target][rng.integers(len(readers[target]))]
        cases.append((command, target, kinds[rng.integers(len(kinds))],
                      int(rng.integers(1 << 20)), int(rng.integers(1 << 20))))
    return cases


def _cases():
    """(command, target, kind, where, what): ``where`` picks the byte,
    key or value, ``what`` the flipped bits or the swapped-in value."""
    rng = np.random.default_rng(27)
    cases = _file_cases(rng, _READERS, 200)
    for _ in range(100):
        target = f"config:{list(_MODELS)[rng.integers(len(_MODELS))]}"
        cases.append(("benchmark", target, ("drop", "swap")[rng.integers(2)],
                      int(rng.integers(1 << 20)), int(rng.integers(1 << 20))))
    return cases


CASES = _cases()
EXPORT_CASES = _file_cases(np.random.default_rng(34), _EXPORT_READERS, 60)


def _paths(doc, prefix=()):
    """Key paths to every dict entry and list item of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _edit(doc, kind, where, what):
    """A copy of ``doc`` with one key dropped or one value swapped."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    *parent, key = paths[where % len(paths)]
    holder = doc
    for step in parent:
        holder = holder[step]
    if kind == "drop":
        del holder[key]
    else:
        holder[key] = VALUES[what % len(VALUES)]
    return doc


def _mutate(raw, name, kind, where, what):
    if kind == "truncate":
        return raw[: where % len(raw)]
    if kind == "flip":
        pos = where % len(raw)
        return raw[:pos] + bytes([raw[pos] ^ (1 + what % 255)]) + raw[pos + 1:]
    if name.endswith(".npy"):
        # The header is a dict literal after the 10-byte preamble.
        size = int.from_bytes(raw[8:10], "little")
        header = _edit(ast.literal_eval(raw[10:10 + size].decode("latin1")), kind, where, what)
        text = repr(header).encode("latin1")
        text += b" " * (-(len(text) + 11) % 64) + b"\n"
        return raw[:8] + len(text).to_bytes(2, "little") + text + raw[10 + size:]
    return json.dumps(_edit(json.loads(raw), kind, where, what)).encode()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A CSV source's dataset cache, Gram container and report, and its config."""
    root = tmp_path_factory.mktemp("base")
    cfg = root / "csv.json"
    cfg.write_text(json.dumps({
        "dataset": {"csv": str(FIXTURE_CSV), "test_fraction": 0.3, "feature_k": 2},
        "model": {"name": "qsvm", "feature_map": {"kind": "zz"}},
        "hybrid": {"quanv": {"window": 2}, "hidden": [4], "train": {"epochs": 2}},
    }))
    out = root / "out"
    for command in ("ingest", "kernel", "benchmark"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


def _argv(case, cfg, work):
    command, target, kind, where, what = case
    if target.startswith("config:"):
        doc = {"dataset": _SYNTHETIC, "model": _MODELS[target[7:]]}
        (work / "cfg.json").write_text(json.dumps(_edit(doc, kind, where, what)))
        return ["benchmark", "--config", str(work / "cfg.json"), "--out", str(work)]
    path = work / ("dataset" if target in _DATASET_FILES else "") / target
    path.write_bytes(_mutate(path.read_bytes(), target, kind, where, what))
    return {
        "verify": ["kernel", "--verify", str(work / "gram.qkgm")],
        "report": ["report", "--input", str(work / "report.json")],
    }.get(command, [command, "--config", str(cfg), "--out", str(work)])


def _same_export(work, out):
    """Whether the export under ``work`` holds what the one under ``out`` does."""
    changed, kept = work / "gram.qkgm", out / "gram.qkgm"
    meta = [json.loads(p.with_name("gram.qkgm.meta").read_text()) for p in (changed, kept)]
    return changed.read_bytes() == kept.read_bytes() and meta[0] == meta[1]


# Mutated inputs may warn (a constant column, say); only the exit is checked.
@pytest.mark.filterwarnings("ignore")
def test_every_mutated_input_exits_zero_or_two_with_one_error_line(base, tmp_path, capsys,
                                                                    monkeypatch):
    cfg, out = base
    grams = []
    fidelity_gram = accel.fidelity_gram
    monkeypatch.setattr(accel, "fidelity_gram", lambda s: grams.append(len(s)) or fidelity_gram(s))
    failures = []
    for case in CASES + EXPORT_CASES:
        work = tmp_path / "work"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(out, work)
        capsys.readouterr()
        grams.clear()
        try:
            rc = main(_argv(case, cfg, work))
        except Exception as exc:  # an exception escaping main is a failure
            failures.append((case, "".join(traceback.format_exception_only(exc)).strip()))
            continue
        err = capsys.readouterr().err
        if not (rc == 0 or (rc == 2 and err.startswith("error: ") and err.count("\n") == 1)):
            failures.append((case, rc, err))
        elif case in EXPORT_CASES and rc == 0 and not grams and not _same_export(work, out):
            failures.append((case, "trained on a changed export"))
    assert failures == []
