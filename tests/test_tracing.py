"""The benchmark's span tracer installs onto and uninstalls from the package.

``perfbench/tracing.py`` patches qkml functions by module and name.  A name
it patches that the package no longer defines fails here, not only in
traced benchmark runs.
"""

import sys
from pathlib import Path

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
