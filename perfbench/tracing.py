"""Span tracing of qkml's public functions, installed from outside the package.

Each wrapped function records a span (name, start, end, parent) or, for the
per-row functions ``embed`` and ``run_circuit``, only a call count.  Modules
import functions by name, so every wrapper is installed under each name a
caller looks up (``qkernel.embed``, ``hybrid.run_circuit``,
``cli.write_json_atomic``, ...).  Spans stay in memory until ``dump``.

Self time of a span is its duration minus the durations of its direct child
spans.  Busy time of a name sums only its outermost spans, so a wrapper that
calls a wrapper of the same layer (``write_json_atomic`` ->
``write_bytes_atomic``) is not counted twice.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import threading
import time

from qkml import accel, artifacts, cli, dataset, feature_maps, hybrid, metrics, qkernel, svm, synth, trees

_PREPARE = ("train_test_split", "fit_scaler", "apply_scaler", "select_features", "take_features")
_METRICS = ("confusion_matrix", "report_from_confusion", "render_report", "report_to_dict",
            "confusion_to_csv", "accuracy")
COMMANDS = ("ingest", "kernel", "kernel_verify", "benchmark", "hybrid")


def _count_nodes(node) -> int:
    return 1 if node.is_leaf else 1 + _count_nodes(node.left) + _count_nodes(node.right)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# -- hooks: counts taken from a wrapped call's arguments and result ----------

def _rows_embedded(t, result, args, kwargs):
    t.count("qkernel.rows_embedded", result.shape[0])


def _gram_entries(t, result, args, kwargs):
    t.count("qkernel.kernel_entries", result.size * result.size)


def _cross_entries(t, result, args, kwargs):
    t.count("qkernel.kernel_entries", result.size)


def _gram_bytes(t, result, args, kwargs):
    n = _arg(args, kwargs, 1, "gram").size
    t.count("qkernel.gram_bytes", 16 + 8 * n * n)


def _svm_model(t, result, args, kwargs):
    t.count("svm.support_vectors", result.support_indices.shape[0])
    gram = _arg(args, kwargs, 0, "gram")
    kmat = getattr(gram, "entries", gram)
    t.count("svm.dual_objective", svm.dual_objective(kmat, _arg(args, kwargs, 1, "labels"), result.alphas))


def _smo_sweeps(t, result, args, kwargs):
    t.count("svm.smo.sweeps", int(result[2]))


def _forest_nodes(t, result, args, kwargs):
    t.count("trees.nodes", sum(_count_nodes(tree) for tree in result.trees))


def _rows_routed(t, result, args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    t.count("trees.rows_routed", len(result) * len(model.trees))


def _epochs(t, result, args, kwargs):
    t.count("hybrid.epochs", len(result[1].train_loss))


def _rows_in_out(t, result, args, kwargs):
    t.count("dataset.rows_in", result[1]["rows_in"])
    t.count("dataset.rows_out", result[1]["rows_out"])


def _bytes_written(t, result, args, kwargs):
    t.count("artifacts.bytes_written", len(_arg(args, kwargs, 1, "data")))


def _circuit_counts(t, circuit, prefix):
    gates = len(circuit.gates)
    t.count("statevector.run_circuit.calls")
    t.count("statevector.gates_applied", gates)
    t.count("statevector.amp_bytes_computed", gates * (1 << circuit.num_qubits) * 32)
    if prefix:
        t.count(prefix)


# (span name, [(module, attribute), ...], hook)
_SPANS = (
    [("dataset." + name, [(dataset, name)], None)
     for name in ("load_csv", "filter_status", "save_dataset", "load_dataset") + _PREPARE]
    + [
        ("dataset.engineer_features", [(dataset, "engineer_features")], _rows_in_out),
        ("synth.make_synthetic", [(synth, "make_synthetic")], None),
        ("qkernel.embedding_matrix", [(qkernel, "embedding_matrix")], _rows_embedded),
        ("qkernel.gram_matrix", [(qkernel, "gram_matrix")], _gram_entries),
        ("qkernel.cross_kernel", [(qkernel, "cross_kernel")], _cross_entries),
        ("qkernel.save_gram", [(qkernel, "save_gram")], _gram_bytes),
        ("qkernel.verify_gram", [(qkernel, "verify_gram")], None),
        ("svm.train_svm", [(svm, "train_svm")], _svm_model),
        ("svm.smo", [(accel, "smo_solve")], _smo_sweeps),
        ("svm.predict", [(svm, "predict")], None),
        ("trees.train_forest", [(trees, "train_forest")], _forest_nodes),
        ("trees.predict_forest_batch", [(trees, "predict_forest_batch")], _rows_routed),
        ("hybrid.compare_hybrid", [(hybrid, "compare_hybrid")], None),
        ("hybrid.quanv_transform_batch", [(hybrid, "quanv_transform_batch")], None),
        ("hybrid.train_dense", [(hybrid, "train_dense")], _epochs),
        ("artifacts.write", [(artifacts, "write_bytes_atomic"), (qkernel, "write_bytes_atomic")],
         _bytes_written),
        ("artifacts.write", [(artifacts, "write_text_atomic"), (artifacts, "write_json_atomic"),
                             (qkernel, "write_text_atomic"), (cli, "write_text_atomic"),
                             (cli, "write_json_atomic")], None),
    ]
    + [("metrics." + name, [(metrics, name)], None) for name in _METRICS]
)


class Tracer:
    """Collects spans and counts; each is tagged with the current ``label``."""

    def __init__(self):
        self.label = "setup"
        self.spans = []
        self.counts = collections.defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = {"id": sid, "name": name, "parent": parent, "start": start,
                               "end": end, "label": self.label}

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counts[(self.label, name)] += n

    # -- installation --------------------------------------------------------

    def _spanned(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                # Hook work is its own span, so it counts as tracing overhead
                # rather than as self time of the caller.
                with self.span("trace.hook"):
                    hook(self, result, args, kwargs)
            return result
        return wrapper

    def _counted_embed(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count("feature_maps.embed.calls")
            return fn(*args, **kwargs)
        return wrapper

    def _counted_circuit(self, fn, prefix):
        @functools.wraps(fn)
        def wrapper(circuit, *args, **kwargs):
            _circuit_counts(self, circuit, prefix)
            return fn(circuit, *args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            return
        for name, sites, hook in _SPANS:
            wrapped = {}
            for owner, attr in sites:
                fn = getattr(owner, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._spanned(fn, name, hook)
                self._patch(owner, attr, wrapped[id(fn)])
        self._patch(qkernel, "embed", self._counted_embed(qkernel.embed))
        self._patch(feature_maps, "run_circuit",
                    self._counted_circuit(feature_maps.run_circuit, None))
        self._patch(hybrid, "run_circuit",
                    self._counted_circuit(hybrid.run_circuit, "hybrid.circuits_run"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        doc = {"spans": self.spans,
               "counts": [{"label": label, "name": name, "value": value}
                          for (label, name), value in sorted(self.counts.items())]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    # -- derived per-layer metrics --------------------------------------------

    def _times(self, label):
        """(busy, self) seconds per span name for spans carrying ``label``."""
        spans = [s for s in self.spans if s is not None and s["label"] == label]
        by_id = {s["id"]: s for s in spans}
        child_time = collections.defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        busy = collections.defaultdict(float)
        own = collections.defaultdict(float)
        for s in spans:
            duration = s["end"] - s["start"]
            own[s["name"]] += duration - child_time[s["id"]]
            parent = by_id.get(s["parent"])
            while parent is not None and parent["name"] != s["name"]:
                parent = by_id.get(parent["parent"])
            if parent is None:
                busy[s["name"]] += duration
        return busy, own

    def layer_self(self, label) -> dict:
        """Self seconds summed per layer (the span-name prefix)."""
        _, own = self._times(label)
        out = collections.defaultdict(float)
        for name, value in own.items():
            out[name.split(".")[0]] += value
        return dict(out)

    def iteration_metrics(self, label) -> dict:
        """Per-layer metrics of the spans and counts carrying ``label``."""
        busy, own = self._times(label)
        counts = collections.defaultdict(float,
                                         {n: v for (lab, n), v in self.counts.items() if lab == label})
        epochs = counts["hybrid.epochs"]
        out = {
            "dataset.load_csv.busy_s": busy["dataset.load_csv"],
            "dataset.engineer_features.busy_s": busy["dataset.engineer_features"],
            "dataset.prepare.busy_s": sum(busy["dataset." + n] for n in _PREPARE),
            "synth.make_synthetic.busy_s": busy["synth.make_synthetic"],
            "qkernel.embedding_matrix.busy_s": busy["qkernel.embedding_matrix"],
            "qkernel.gram_matrix.self_s": own["qkernel.gram_matrix"],
            "qkernel.cross_kernel.self_s": own["qkernel.cross_kernel"],
            "qkernel.save_gram.busy_s": busy["qkernel.save_gram"],
            "qkernel.verify_gram.busy_s": busy["qkernel.verify_gram"],
            "svm.train_svm.busy_s": busy["svm.train_svm"],
            "svm.train_svm.self_s": own["svm.train_svm"],
            "svm.smo.busy_s": busy["svm.smo"],
            "svm.predict.busy_s": busy["svm.predict"],
            "trees.train_forest.busy_s": busy["trees.train_forest"],
            "trees.predict_forest_batch.busy_s": busy["trees.predict_forest_batch"],
            "hybrid.quanv_transform_batch.busy_s": busy["hybrid.quanv_transform_batch"],
            "hybrid.train_dense.busy_s": busy["hybrid.train_dense"],
            "hybrid.epoch_s": busy["hybrid.train_dense"] / epochs if epochs else 0.0,
            "metrics.busy_s": sum(busy["metrics." + n] for n in _METRICS),
            "artifacts.write.busy_s": busy["artifacts.write"],
        }
        for name in ("dataset.rows_in", "dataset.rows_out", "feature_maps.embed.calls",
                     "statevector.run_circuit.calls", "statevector.gates_applied",
                     "statevector.amp_bytes_computed", "qkernel.rows_embedded",
                     "qkernel.kernel_entries", "qkernel.gram_bytes", "svm.smo.sweeps",
                     "svm.support_vectors", "svm.dual_objective", "trees.nodes",
                     "trees.rows_routed", "hybrid.circuits_run", "artifacts.bytes_written"):
            out[name] = counts[name]
        for command in COMMANDS:
            out[f"cli.{command}.self_s"] = own["cli." + command]
        return out

    def setup_metrics(self) -> dict:
        busy, _ = self._times("setup")
        return {"setup.dataset.busy_s": sum(v for n, v in busy.items() if n.startswith("dataset."))}
