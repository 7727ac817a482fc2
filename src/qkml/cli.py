"""Command-line pipeline driver.

Subcommands:

* ``ingest``    -- CSV or synthetic source -> cached numeric dataset.
* ``benchmark`` -- train/evaluate one model (dt, rf, svm, qsvm) on the
  cached dataset and write its classification report.
* ``kernel``    -- export the training Gram matrix as a QKGM container,
  or verify an existing container against its sidecar hashes.
* ``hybrid``    -- train classical vs quanvolutional arms and write the
  learning curves.
* ``report``    -- re-render a stored machine-readable report.

All artifacts are written atomically and deterministically: rerunning a
command with the same config, seed and inputs reproduces every byte.
``--threads`` is accepted for compatibility and has no effect.
Config values arrive cast by ``config.resolve_config``; a value it
refuses exits 2 with a one-line ``error:`` that names the key, and so
does a run that runs out of memory.
``QKML_LOG`` sets the log level; logs go to stderr so stdout stays
scriptable.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, dataset as dsmod, hybrid as hmod, metrics, qkernel, svm as svmmod, synth, trees
from .artifacts import read_json, write_json_atomic, write_text_atomic
from .config import _FEATURE_MAP, ConfigError, load_config, resolve_config
from .feature_maps import ZZ, FeatureMapSpec

log = logging.getLogger("qkml")


def _setup_logging() -> None:
    name = os.environ.get("QKML_LOG", "WARNING").strip().upper()
    level = getattr(logging, name, None)
    known = isinstance(level, int)
    logging.basicConfig(level=level if known else logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    if name and not known:
        log.warning("unknown QKML_LOG level %r, using WARNING", name)


# -- dataset plumbing ---------------------------------------------------------


def _build_dataset(dcfg: dict):
    """Materialise the configured source; returns (dataset, summary)."""
    if dcfg["csv"] is not None:
        fc = dsmod.default_feature_config()
        if dcfg["feature_config"] is not None:
            fc = dsmod.FeatureConfig.from_dict(read_json(dcfg["feature_config"]))
        table = dsmod.load_csv(dcfg["csv"])
        filtered, status_summary = dsmod.filter_status(table, fc.status_column)
        ds, eng_summary = dsmod.engineer_features(filtered, fc)
        summary = {"source": {"csv": dcfg["csv"]}, "status_filter": status_summary,
                   "engineering": eng_summary}
    else:
        synth_cfg = dcfg["synthetic"]
        ds = synth.make_synthetic(
            synth_cfg["name"], synth_cfg["n"], noise=synth_cfg["noise"], seed=synth_cfg["seed"]
        )
        summary = {"source": {"synthetic": synth_cfg}}
    summary["n_rows"] = ds.n_rows
    summary["n_features"] = ds.features.shape[1]
    summary["class_counts"] = {str(k): int((ds.labels == k).sum()) for k in (0, 1)}
    return ds, summary


def _dataset_cache_dir(out: Path) -> Path:
    return out / "dataset"


def _splits(resolved: dict, out: Path):
    """Split, scale (fit on train only), select and subsample the dataset:
    a synthetic source regenerates on the fly, a CSV source needs `ingest`.

    Returns (train, test, info); the returned info feeds the report
    artifacts."""
    dcfg = resolved["dataset"]
    if dcfg["synthetic"] is not None:
        ds, _ = _build_dataset(dcfg)
    else:
        ds = dsmod.load_dataset(_dataset_cache_dir(out))
    train, test = dsmod.train_test_split(
        ds, dcfg["test_fraction"], dcfg["seed"], dcfg["stratify"]
    )
    params = dsmod.fit_scaler(train, dcfg["scaling"])
    train = dsmod.apply_scaler(params, train)
    test = dsmod.apply_scaler(params, test)
    if dcfg["feature_k"] is not None:
        idx = dsmod.select_features(train, dcfg["feature_k"])
        train = dsmod.take_features(train, idx)
        test = dsmod.take_features(test, idx)
    if dcfg["subsample"] is not None and train.n_rows > dcfg["subsample"]:
        # Rows are already seed-shuffled by the split; take a prefix.
        train = dsmod.take_rows(train, np.arange(dcfg["subsample"]))
    info = {
        "train_rows": train.n_rows,
        "test_rows": test.n_rows,
        "features": list(train.feature_names),
        "scaling": dcfg["scaling"],
    }
    return train, test, info


def _typed(cls, section: dict, **fixed):
    """``cls`` from the keys of a resolved config section that name its
    fields, with ``fixed`` in place; the dataclass casts and validates."""
    names = {f.name for f in fields(cls)}
    return cls(**{**{k: v for k, v in section.items() if k in names}, **fixed})


def _kernel_spec(model_cfg: dict, train, n_test: int = 0) -> FeatureMapSpec:
    """The configured feature map on one qubit per feature of ``train``;
    a kernel run whose states, matrices and blocks exceed physical memory
    is refused here, before anything is embedded."""
    fm = (model_cfg or {}).get("feature_map") or _FEATURE_MAP[0]
    spec = _typed(FeatureMapSpec, fm, num_qubits=train.features.shape[1])
    need = qkernel.kernel_bytes(spec, train.n_rows, n_test)
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        qubits = "dataset.feature_k (fewer qubits) or " if spec.kind == ZZ else ""
        raise ConfigError(
            f"the quantum kernel needs about {need / 2**30:.1f} GiB for "
            f"{train.n_rows + n_test} rows on {spec.num_qubits} qubits, more than the "
            f"{have / 2**30:.1f} GiB of physical memory; lower {qubits}"
            "dataset.subsample (fewer train rows)"
        )
    return spec


# -- commands -----------------------------------------------------------------


def cmd_ingest(args, resolved: dict, cfg_hash: str, out: Path) -> int:
    ds, summary = _build_dataset(resolved["dataset"])
    log.info("dataset: %d rows x %d features", ds.n_rows, ds.features.shape[1])
    dsmod.save_dataset(_dataset_cache_dir(out), ds)
    summary = {"config_sha256": cfg_hash, "seed": resolved["dataset"]["seed"], **summary}
    write_json_atomic(out / "ingest_summary.json", summary)
    print(
        f"ingest: {ds.n_rows} rows x {ds.features.shape[1]} features "
        f"-> {_dataset_cache_dir(out)}"
    )
    return 0


def _train_and_predict(model_cfg: dict, train, test, seed: int, export=None):
    """Returns (test predictions, train predictions, model info dict); qsvm
    reuses the Gram at ``export`` when it was exported for these rows."""
    name = model_cfg["name"]
    if name in ("dt", "rf"):
        # dt is the one-tree forest: no bootstrap, every feature at each split.
        fcfg = (_typed(trees.ForestConfig, model_cfg, seed=seed) if name == "rf" else
                trees.ForestConfig(n_trees=1, mtry=train.features.shape[1], bootstrap=False))
        tcfg = _typed(trees.TreeConfig, model_cfg)
        forest = trees.train_forest(train.features, train.labels, tcfg, fcfg)
        pred = trees.predict_forest_batch(forest, np.vstack([test.features, train.features]))
        info = ({"n_trees": fcfg.n_trees} if name == "rf"
                else {"depth": trees.forest_depth(forest)})
        return pred[: test.n_rows], pred[test.n_rows :], info
    if name == "svm":
        cfg = _typed(svmmod.SvmConfig, model_cfg)
        model = svmmod.train_svm_features(train.features, train.labels, cfg, seed)
        return (
            svmmod.predict_features(model, test.features),
            svmmod.predict_features(model, train.features),
            {
                "support_vectors": int(model.support_indices.shape[0]),
                "kernel": cfg.kernel,
            },
        )
    if name == "qsvm":
        spec = _kernel_spec(model_cfg, train, test.n_rows)
        train_side, gram = qkernel.train_kernel(spec, train.features, export)
        cfg = _typed(svmmod.SvmConfig, model_cfg, kernel=svmmod.PRECOMPUTED)
        model = svmmod.train_svm(gram, train.labels, cfg, seed)
        # The Gram is released before the test rows stream.
        train_pred = svmmod.predict(model, gram.entries)
        del gram
        cross = qkernel.cross_from_rows(spec, test.features, train_side, np.flatnonzero(model.alphas))
        return (
            svmmod.predict(svmmod.support_model(model), cross),
            train_pred,
            {
                "support_vectors": int(model.support_indices.shape[0]),
                "feature_map": asdict(spec),
            },
        )
    raise ConfigError(f"unknown model {name!r}")


def cmd_benchmark(args, resolved: dict, cfg_hash: str, out: Path) -> int:
    if "model" not in resolved:
        raise ConfigError("benchmark needs a 'model' section in the config")
    train, test, info = _splits(resolved, out)
    n_feats, name = train.features.shape[1], resolved["model"]["name"]
    log.info("split: %d train and %d test rows x %d features", train.n_rows, test.n_rows, n_feats)
    log.info("training %s: %d rows x %d features", name, train.n_rows, n_feats)
    seed = resolved["dataset"]["seed"]
    preds, train_preds, model_info = _train_and_predict(resolved["model"], train, test, seed,
                                                         out / "gram.qkgm")
    log.info("predicted %d test and %d train rows", test.n_rows, train.n_rows)
    cm = metrics.confusion_matrix(test.labels, preds)
    report = metrics.report_from_confusion(cm)
    rendered = metrics.render_report(report)
    doc = {
        "config_sha256": cfg_hash,
        "seed": seed,
        "model": resolved["model"],
        "model_info": model_info,
        "split": info,
        "train_accuracy": metrics.accuracy(train.labels, train_preds),
        "confusion": cm.counts.tolist(),
        "report": metrics.report_to_dict(report),
    }
    write_text_atomic(out / "report.txt", rendered)
    write_json_atomic(out / "report.json", doc)
    write_text_atomic(out / "confusion.csv", metrics.confusion_to_csv(cm))
    print(rendered, end="")
    return 0


def cmd_kernel(args, resolved: dict, cfg_hash: str, out: Path) -> int:
    log.debug("kernel export under config %s", cfg_hash)
    train, _, _ = _splits(resolved, out)
    spec = _kernel_spec(resolved.get("model"), train)
    log.info("gram: %d rows on %d qubits, %d bytes", train.n_rows, spec.num_qubits,
             8 * train.n_rows**2)
    gram = qkernel.gram_matrix(spec, train.features)
    path = out / "gram.qkgm"
    sidecar = qkernel.save_gram(
        path, gram, spec, input_sha256=qkernel.matrix_sha256(train.features)
    )
    qkernel.verify_gram(path)  # self-check the fresh container
    print(f"kernel: wrote {path} (n={gram.size}) + {sidecar.name}")
    return 0


def cmd_verify(args) -> int:
    meta = qkernel.verify_gram(args.verify)
    print(
        f"verify: ok ({args.verify}, n={meta['n']}, "
        f"map={meta['feature_map']['kind']})"
    )
    return 0


def cmd_hybrid(args, resolved: dict, cfg_hash: str, out: Path) -> int:
    train, test, info = _splits(resolved, out)
    hcfg = resolved["hybrid"]
    quanv = _typed(hmod.QuanvSpec, hcfg["quanv"])
    n_feats = train.features.shape[1]
    if quanv.window > n_feats:
        log.warning("quanv window %d wider than %d features; clamping", quanv.window, n_feats)
        quanv = replace(quanv, window=n_feats)
    tcfg = _typed(hmod.TrainConfig, hcfg["train"], seed=resolved["dataset"]["seed"])
    width = hmod.quanv_output_width(quanv, n_feats)
    log.info("quanv: %d rows x %d windows of %d qubits",
             train.n_rows + test.n_rows, width // quanv.window, quanv.window)
    steps = -(-train.n_rows // tcfg.batch_size)
    log.info("stacked training: 2 arms, input widths %d and %d, %d steps per epoch, %d epochs",
             n_feats, width, steps, tcfg.epochs)
    started = time.monotonic()
    arms = hmod.compare_hybrid(train, test, quanv, hcfg["hidden"], tcfg)
    wall = time.monotonic() - started
    log.info("quanv and stacked training took %.3f s for %d steps", wall, steps * tcfg.epochs)
    write_text_atomic(out / "curves.csv", hmod.curves_csv(arms))
    manifest = {
        "config_sha256": cfg_hash,
        "seed": tcfg.seed,
        "split": info,
        "quanv": {**hcfg["quanv"], "window": quanv.window},
        "hidden": hcfg["hidden"],
        "train": hcfg["train"],
        "arms": {
            name: {f"final_{key}": values[-1] for key, values in asdict(arm["history"]).items()}
            for name, arm in sorted(arms.items())
        },
    }
    write_json_atomic(out / "hybrid_manifest.json", manifest)
    for name in sorted(arms):
        h = arms[name]["history"]
        print(f"hybrid[{name}]: train_acc={h.train_acc[-1]:.3f} val_acc={h.val_acc[-1]:.3f}")
    print(f"hybrid: quanv and training took {wall:.3f} s")
    return 0


def cmd_report(args) -> int:
    doc = read_json(args.input)
    if not (isinstance(doc, dict) and "confusion" in doc):
        raise ValueError(f"{args.input}: not a qkml report (no 'confusion' entry)")
    rows = doc["confusion"]
    if not (isinstance(rows, list)
            and all(isinstance(r, list) and all(type(v) is int and v >= 0 for v in r) for r in rows)
            and sum(map(sum, rows)) < 1 << 63):
        raise ValueError(f"{args.input}: 'confusion' is not a matrix of integer counts")
    cm = metrics.ConfusionMatrix(np.asarray(rows, dtype=np.int64))
    print(metrics.render_report(metrics.report_from_confusion(cm)), end="")
    return 0


# -- argument parsing ---------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", default=None, help="experiment config JSON")
    sub.add_argument("--out", default="qkml_out", help="artifact directory")
    sub.add_argument("--seed", type=int, default=None, help="override dataset seed")
    sub.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; no effect"
    )
    sub.add_argument(
        "--synthetic",
        default=None,
        choices=sorted(synth.generator_names()),
        help="use this synthetic source instead of the configured one",
    )


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  A parser's actions
    and groups refer back to it, so one built per ``main`` call leaves its
    cycles (~30 KB a command) to the cycle collector, and how long they
    wait for it moves the process's peak memory."""
    parser = argparse.ArgumentParser(
        prog="qkml",
        description="quantum-kernel ML pipeline (simulator, kernels, baselines)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ingest", help="build and cache the numeric dataset")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = subs.add_parser("benchmark", help="train one model and write its report")
    _add_common(p)
    p.set_defaults(func=cmd_benchmark)

    p = subs.add_parser("kernel", help="export or verify a QKGM gram container")
    _add_common(p)
    p.add_argument("--verify", default=None, help="verify an existing container")
    p.set_defaults(func=cmd_kernel)

    p = subs.add_parser("hybrid", help="compare classical and quanvolutional arms")
    _add_common(p)
    p.set_defaults(func=cmd_hybrid)

    p = subs.add_parser("report", help="re-render a stored report.json")
    p.add_argument("--input", required=True, help="path to report.json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    func = cmd_verify if getattr(args, "verify", None) is not None else args.func
    configured = func not in (cmd_report, cmd_verify)
    if configured and args.config is None and args.synthetic is None:
        usage = " or --verify PATH" if args.command == "kernel" else ""
        parser.error(f"{args.command} needs --config or --synthetic{usage}")
    try:
        if not configured:
            return func(args)
        resolved, cfg_hash = resolve_config(load_config(args.config), args.seed, args.synthetic)
        return func(args, resolved, cfg_hash, Path(args.out))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's _ArrayMemoryError too
        print(f"error: the run ran out of memory{str(exc) and ': '}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
