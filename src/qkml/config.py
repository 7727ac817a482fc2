"""Experiment configuration: JSON in, validated + defaulted + typed dict out.

Configs are strict: unknown keys are rejected so typos fail fast rather
than silently running with defaults.  ``resolve_config`` fills every
default in place, applies the seed override, casts every value with
``artifacts.cast_value``, and returns the resolved document together
with its content hash; the hash lands in every artifact so results can
be traced back to their exact settings.  ``4.0`` and ``"4"`` resolve to
the int 4 and ``1`` to the float 1.0, so a config and its canonical
spelling share one hash; a value of the wrong kind is a ValueError
naming its key.

Each section takes its keys, defaults and kinds from dataclass fields:
the dataset sections from ``DatasetSection`` and ``SyntheticSection``,
the others from the dataclasses they build (``TreeConfig``,
``ForestConfig``, ``SvmConfig``, ``FeatureMapSpec``, ``QuanvSpec``,
``TrainConfig``), less the fields the pipeline sets itself (``seed``,
``num_qubits``).  Two defaults differ from the dataclass: svm's
``kernel`` is rbf, and the feature map's ``kind`` is angle_y.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, get_type_hints

from .artifacts import cast_value, config_sha256, read_json
from .dataset import MINMAX_PI, STANDARDIZE
from .feature_maps import FeatureMapSpec
from .hybrid import QuanvSpec, TrainConfig
from .svm import SvmConfig
from .trees import ForestConfig, TreeConfig


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class DatasetSection:
    """Keys, defaults and kinds of the dataset section (less ``synthetic``)."""

    csv: Optional[str] = None
    feature_config: Optional[str] = None
    test_fraction: float = 0.2
    stratify: bool = False
    scaling: str = MINMAX_PI
    feature_k: Optional[int] = None
    subsample: Optional[int] = None
    seed: int = 0


@dataclass(frozen=True)
class SyntheticSection:
    """Keys, defaults and kinds of dataset.synthetic (null seed: the dataset's)."""

    name: Optional[str] = None
    n: int = 200
    noise: Optional[float] = None
    seed: Optional[int] = None


def _section(*classes, skip=(), **overrides) -> tuple:
    """(defaults, kinds) from the fields of config dataclasses, less those in
    `skip`, with `overrides` in place; a key that names no field has no kind."""
    defaults = {f.name: f.default for c in classes for f in fields(c) if f.name not in skip}
    kinds = {k: v for c in classes for k, v in get_type_hints(c).items() if k not in skip}
    return {**defaults, **overrides}, kinds


_DATASET = _section(DatasetSection, synthetic=None)

_SYNTHETIC = _section(SyntheticSection)

# svm trains on features, so its kernel defaults to rbf, not precomputed.
_MODELS = {
    "dt": _section(TreeConfig),
    "rf": _section(TreeConfig, ForestConfig, skip=("seed",)),
    "svm": _section(SvmConfig, kernel="rbf"),
    "qsvm": _section(SvmConfig, skip=("kernel", "gamma"), feature_map=None),
}

_FEATURE_MAP = _section(FeatureMapSpec, skip=("num_qubits",), kind="angle_y")

_QUANV = _section(QuanvSpec)

_TRAIN = _section(TrainConfig, skip=("seed",))

_HYBRID = ({"quanv": None, "hidden": [16], "train": None}, {"hidden": list[int]})


def _merge(section_name: str, section: tuple, given, **overrides) -> dict:
    """The section's defaults updated by `given` and then `overrides`,
    each value cast to its key's kind."""
    defaults, kinds = section
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
    out = {**defaults, **given, **overrides}
    for key, kind in kinds.items():
        out[key] = cast_value(kind, out[key], f"{section_name}.{key}")
    return out


def load_config(path) -> dict:
    if path is None:
        return {}
    path = Path(path)
    try:
        doc = read_json(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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

    overrides = {}
    if seed_override is not None:
        overrides["seed"] = seed_override
    if synthetic_override is not None:
        overrides.update(csv=None, synthetic={"name": synthetic_override})
    dataset = _merge("dataset", _DATASET, doc.get("dataset"), **overrides)
    if dataset["synthetic"] is not None:
        synth = _merge("dataset.synthetic", _SYNTHETIC, dataset["synthetic"])
        if not synth["name"]:
            raise ConfigError("dataset.synthetic needs a 'name'")
        if synth["seed"] is None:
            synth["seed"] = dataset["seed"]
        dataset["synthetic"] = synth
    if dataset["csv"] is None and dataset["synthetic"] is None:
        raise ConfigError("dataset needs either 'csv' or 'synthetic'")
    if dataset["csv"] is not None and dataset["synthetic"] is not None:
        raise ConfigError("dataset takes 'csv' or 'synthetic', not both")
    if not 0.0 < dataset["test_fraction"] < 1.0:
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
        if not isinstance(name, str) or name not in _MODELS:
            raise ConfigError(f"unknown model {name!r}; choose from {list(_MODELS)}")
        body = {k: v for k, v in model.items() if k != "name"}
        merged = _merge(f"model({name})", _MODELS[name], body)
        if name == "qsvm":
            merged["feature_map"] = _merge(
                "model.feature_map", _FEATURE_MAP, merged["feature_map"]
            )
        merged["name"] = name
        resolved["model"] = merged

    # The hybrid section always resolves so `qkml hybrid` runs on defaults.
    merged = _merge("hybrid", _HYBRID, doc.get("hybrid"))
    merged["quanv"] = _merge("hybrid.quanv", _QUANV, merged["quanv"])
    merged["train"] = _merge("hybrid.train", _TRAIN, merged["train"])
    if not all(h >= 1 for h in merged["hidden"]):
        raise ConfigError("hybrid.hidden must be a list of positive ints")
    resolved["hybrid"] = merged

    return resolved, config_sha256(resolved)
