"""Import lint: every name a module of ``src/qkml`` imports is used in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qkml"

# (module, name) pairs imported on purpose and never read in the module.
UNUSED_ON_PURPOSE = {
    # Tracing tools patch ``run_circuit`` and ``embed`` by module and name.
    ("feature_maps", "run_circuit"): "patched by tracing tools",
    ("hybrid", "run_circuit"): "patched by tracing tools",
    ("qkernel", "embed"): "patched by tracing tools",
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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_binds_a_name_it_imports(path):
    # A local or parameter of the same name would pass for a use of the import.
    tree = ast.parse(path.read_text(), str(path))
    bound = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    bound |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
    assert sorted(bound & {name for name, _ in _imported(tree)}) == []


def test_each_name_kept_on_purpose_is_imported_and_unused():
    for (module, name) in UNUSED_ON_PURPOSE:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in {n for n, _ in _imported(tree)}
        assert name not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_cli_reaches_the_kernel_path_only_through_qkernel_and_svm():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    modules = {node.module.rsplit(".", 1)[-1] for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module}
    assert "accel" not in modules | {name for name, _ in _imported(tree)}


def test_only_qkernel_reads_its_private_names():
    # The train side's shape stays behind qkernel: no other module reads a
    # qkernel._name, through the module or by importing it.
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "qkernel":
            continue
        tree = ast.parse(path.read_text(), str(path))
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names if alias.name.rsplit(".", 1)[-1] == "qkernel"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")):
                reads.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("qkernel"):
                reads += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert reads == []
