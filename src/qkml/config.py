"""Experiment configuration: JSON in, validated + defaulted dict out.

Configs are strict: unknown keys are rejected so typos fail fast rather
than silently running with defaults.  ``resolve_config`` fills every
default in place, applies the seed override, and returns the resolved
document together with its content hash; the hash lands in every
artifact so results can be traced back to their exact settings.

The model, feature-map, quanv and train sections take their keys and
defaults from the fields of the dataclasses they build (``TreeConfig``,
``ForestConfig``, ``SvmConfig``, ``FeatureMapSpec``, ``QuanvSpec``,
``TrainConfig``), less the fields the pipeline sets itself (``seed``,
``num_qubits``).  Two defaults differ from the dataclass: svm's
``kernel`` is rbf, and the feature map's ``kind`` is angle_y.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .artifacts import config_sha256
from .dataset import MINMAX_PI, STANDARDIZE
from .feature_maps import FeatureMapSpec
from .hybrid import QuanvSpec, TrainConfig
from .svm import SvmConfig
from .trees import ForestConfig, TreeConfig


class ConfigError(ValueError):
    """Malformed experiment configuration."""


_MODEL_NAMES = ("dt", "rf", "svm", "qsvm")

_DATASET_DEFAULTS = {
    "csv": None,
    "feature_config": None,
    "synthetic": None,
    "test_fraction": 0.2,
    "stratify": False,
    "scaling": MINMAX_PI,
    "feature_k": None,
    "subsample": None,
    "seed": 0,
}

_SYNTH_DEFAULTS = {"name": None, "n": 200, "noise": None, "seed": None}


def _defaults(*classes, skip=(), **overrides) -> dict:
    """The field defaults of config dataclasses, less the fields in `skip`,
    with `overrides` in place."""
    out = {f.name: f.default for c in classes for f in fields(c) if f.name not in skip}
    return {**out, **overrides}


# svm trains on features, so its kernel defaults to rbf, not precomputed.
_MODEL_DEFAULTS = {
    "dt": _defaults(TreeConfig),
    "rf": _defaults(TreeConfig, ForestConfig, skip=("seed",)),
    "svm": _defaults(SvmConfig, kernel="rbf"),
    "qsvm": _defaults(SvmConfig, skip=("kernel", "gamma"), feature_map=None),
}

_FEATURE_MAP_DEFAULTS = _defaults(FeatureMapSpec, skip=("num_qubits",), kind="angle_y")

_QUANV_DEFAULTS = _defaults(QuanvSpec)

_TRAIN_DEFAULTS = _defaults(TrainConfig, skip=("seed",))

_HYBRID_DEFAULTS = {"quanv": None, "hidden": [16], "train": None}


def _merge(section_name: str, defaults: dict, given) -> dict:
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError(f"{section_name} must be a JSON object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {section_name}: {sorted(unknown)}; "
            f"allowed: {sorted(defaults)}"
        )
    out = dict(defaults)
    out.update(given)
    return out


def load_config(path) -> dict:
    if path is None:
        return {}
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def resolve_config(doc: dict, seed_override=None, synthetic_override=None) -> tuple:
    """(resolved config, sha256 hash).  Applies defaults everywhere plus the
    --seed and --synthetic command-line overrides."""
    unknown = set(doc) - {"dataset", "model", "hybrid"}
    if unknown:
        raise ConfigError(
            f"unknown top-level key(s): {sorted(unknown)}; "
            "allowed: ['dataset', 'model', 'hybrid']"
        )

    dataset = _merge("dataset", _DATASET_DEFAULTS, doc.get("dataset"))
    if seed_override is not None:
        dataset["seed"] = int(seed_override)
    if synthetic_override is not None:
        dataset["csv"] = None
        dataset["synthetic"] = {"name": str(synthetic_override)}
    if dataset["synthetic"] is not None:
        synth = _merge("dataset.synthetic", _SYNTH_DEFAULTS, dataset["synthetic"])
        if not synth["name"]:
            raise ConfigError("dataset.synthetic needs a 'name'")
        if synth["seed"] is None:
            synth["seed"] = dataset["seed"]
        dataset["synthetic"] = synth
    if dataset["csv"] is None and dataset["synthetic"] is None:
        raise ConfigError("dataset needs either 'csv' or 'synthetic'")
    if dataset["csv"] is not None and dataset["synthetic"] is not None:
        raise ConfigError("dataset takes 'csv' or 'synthetic', not both")
    if not 0.0 < float(dataset["test_fraction"]) < 1.0:
        raise ConfigError(
            f"dataset.test_fraction must be in (0, 1), got {dataset['test_fraction']}"
        )
    if dataset["scaling"] not in (MINMAX_PI, STANDARDIZE):
        raise ConfigError(
            f"dataset.scaling must be {MINMAX_PI!r} or {STANDARDIZE!r}, "
            f"got {dataset['scaling']!r}"
        )

    resolved = {"dataset": dataset}

    model = doc.get("model")
    if model is not None:
        if not isinstance(model, dict) or "name" not in model:
            raise ConfigError("model needs a 'name'")
        name = model["name"]
        if name not in _MODEL_NAMES:
            raise ConfigError(
                f"unknown model {name!r}; choose from {list(_MODEL_NAMES)}"
            )
        body = {k: v for k, v in model.items() if k != "name"}
        merged = _merge(f"model({name})", _MODEL_DEFAULTS[name], body)
        if name == "qsvm":
            merged["feature_map"] = _merge(
                "model.feature_map",
                _FEATURE_MAP_DEFAULTS,
                merged.get("feature_map"),
            )
        merged["name"] = name
        resolved["model"] = merged

    # The hybrid section always resolves so `qkml hybrid` runs on defaults.
    merged = _merge("hybrid", _HYBRID_DEFAULTS, doc.get("hybrid"))
    merged["quanv"] = _merge("hybrid.quanv", _QUANV_DEFAULTS, merged["quanv"])
    merged["train"] = _merge("hybrid.train", _TRAIN_DEFAULTS, merged["train"])
    if not isinstance(merged["hidden"], list) or not all(
        isinstance(h, int) and h >= 1 for h in merged["hidden"]
    ):
        raise ConfigError("hybrid.hidden must be a list of positive ints")
    resolved["hybrid"] = merged

    return resolved, config_sha256(resolved)
