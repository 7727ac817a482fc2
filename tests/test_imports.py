"""Import lint: every name a module of ``src/qkml`` imports is used in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qkml"

# (module, name) pairs imported on purpose and never read in the module.
UNUSED_ON_PURPOSE = {
    # Tracing tools patch ``run_circuit`` by module and name.
    ("feature_maps", "run_circuit"): "patched by tracing tools",
    ("hybrid", "run_circuit"): "patched by tracing tools",
    ("__init__", "active_backend"): "re-exported as qkml.active_backend",
}


def _imported(tree):
    """(bound name, line) of every import in the module, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree)
              if name not in used and (path.stem, name) not in UNUSED_ON_PURPOSE]
    assert unused == []


def test_each_name_kept_on_purpose_is_imported_and_unused():
    for (module, name) in UNUSED_ON_PURPOSE:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in {n for n, _ in _imported(tree)}
        assert name not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
