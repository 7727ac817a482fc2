"""Atomic writes, canonical JSON and the cached field kinds."""

import json
import typing

import numpy as np
import pytest

from qkml import artifacts, dataset, qkernel
from qkml.dataset import FeatureSpec
from qkml.feature_maps import ANGLE_Y, FeatureMapSpec


def test_a_failed_write_removes_its_temp_file_and_reraises(tmp_path):
    target = tmp_path / "out.bin"
    with pytest.raises(TypeError):
        artifacts.write_bytes_atomic(target, "text, not bytes")
    assert list(tmp_path.iterdir()) == []


def test_a_failed_rename_removes_its_temp_file_and_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")

    def refuse(src, dst):
        raise PermissionError("rename refused")

    monkeypatch.setattr(artifacts.os, "replace", refuse)
    with pytest.raises(PermissionError, match="rename refused"):
        artifacts.write_bytes_atomic(target, b"new")
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == b"old"


def test_field_kinds_resolves_each_class_once():
    assert artifacts.field_kinds(FeatureSpec) == typing.get_type_hints(FeatureSpec)
    assert artifacts.field_kinds(FeatureSpec) is artifacts.field_kinds(FeatureSpec)


def test_sidecar_and_feature_names_are_canonical_json(tmp_path):
    spec = FeatureMapSpec(ANGLE_Y, 1)
    path = tmp_path / "k.qkgm"
    sidecar = qkernel.save_gram(path, qkernel.gram_matrix(spec, np.array([[0.1], [0.5]])), spec)
    meta = json.loads(sidecar.read_text())
    assert sidecar.read_text() == json.dumps(meta, indent=2, sort_keys=True) + "\n"
    ds = dataset.Dataset(np.zeros((2, 2)), [0, 1], ("b", "a"))
    dataset.save_dataset(tmp_path / "cache", ds)
    assert (tmp_path / "cache" / "feature_names.json").read_text() == '[\n  "b",\n  "a"\n]\n'
