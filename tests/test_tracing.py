"""The benchmark's span tracer installs onto and uninstalls from the package.

``perfbench/tracing.py`` patches qkml functions by module and name.  A name
it patches that the package no longer defines fails here, not only in
traced benchmark runs.
"""

import sys
from pathlib import Path

import numpy as np

from qkml import accel, artifacts, cli, dataset, feature_maps, hybrid, metrics, qkernel, svm, synth, trees

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402

_MODULES = (accel, artifacts, cli, dataset, feature_maps, hybrid, metrics, qkernel, svm, synth, trees)


def test_tracer_install_then_uninstall_restores_every_attribute():
    before = {m.__name__: dict(vars(m)) for m in _MODULES}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [(owner.__name__, attr) for owner, attr, _ in tracer._patches]
        assert ("qkml.hybrid", "train_dense") in patched
        assert ("qkml.hybrid", "run_circuit") in patched
        assert ("qkml.feature_maps", "run_circuit") in patched
        for module, attr in patched:
            assert vars(sys.modules[module])[attr] is not before[module][attr]
    finally:
        tracer.uninstall()
    for m in _MODULES:
        now = vars(m)
        assert set(now) == set(before[m.__name__])
        for attr, value in before[m.__name__].items():
            assert now[attr] is value, f"{m.__name__}.{attr}"


def _nodes(node):
    return 1 if node.is_leaf else 1 + _nodes(node.left) + _nodes(node.right)


def test_traced_forest_reports_its_nodes_routed_rows_and_busy_time():
    # The benchmark's forest metrics come from these spans and hooks; a
    # refactor that bypassed them would read 0 instead of failing.
    rng = np.random.default_rng(5)
    x, y = rng.uniform(size=(60, 3)), rng.integers(0, 2, size=60)
    tracer = tracing.Tracer()
    tracer.label = "forest"
    tracer.install()
    try:
        forest = trees.train_forest(x, y, trees.TreeConfig(max_depth=4),
                                    trees.ForestConfig(n_trees=5, seed=5))
        trees.predict_forest_batch(forest, x[:45])
    finally:
        tracer.uninstall()
    got = tracer.iteration_metrics("forest")
    assert got["trees.nodes"] == sum(_nodes(t) for t in forest.trees) > 5
    assert got["trees.rows_routed"] == 45 * 5
    assert got["trees.train_forest.busy_s"] > 0
    assert got["trees.predict_forest_batch.busy_s"] > 0
