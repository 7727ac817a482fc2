"""Golden artifact digests: the byte contract across commits.

c09 checks that two reruns within one checkout agree; this test pins the
bytes themselves.  Each case runs CLI commands into its own ``--out`` and
records the sha256 of every file written there.  The digests are keyed by
the core name of numpy's bundled OpenBLAS, because the kernels of
different cores round differently.  Under a core the file does not hold,
only the report files are compared: they keep their bytes across cores
(``tests/test_blas_kernels.py``).

After a change that means to move bytes, regenerate the current core's
entry with

    PYTHONPATH=src python tests/test_artifact_digests.py
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from qkml.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from inputs import write_startup_csv  # noqa: E402

DIGESTS = ROOT / "tests" / "data" / "artifact_digests.json"
REPORTS = ("report.json", "report.txt", "confusion.csv")
# A benchmark that trains on the exported Gram writes the reports of the
# benchmark that builds it.
EXPORT_CASES = {"moons/qsvm_zz_export": "moons/qsvm_zz", "startup/zz_ring_export": "startup/zz_ring"}

_MODELS = {
    "dt": {"name": "dt"},
    "rf": {"name": "rf", "n_trees": 11},
    "svm": {"name": "svm"},
    "qsvm_angle_y": {"name": "qsvm"},
    "qsvm_zz": {"name": "qsvm", "feature_map": {"kind": "zz"}},
}


def _cases():
    """(case name, config, commands run in order into one --out)."""
    for name in ("moons", "rings", "xor", "blobs"):
        dataset = {"synthetic": {"name": name, "n": 200}, "seed": 1}
        hybrid = {"quanv": {"window": 2, "stride": 1}}
        yield f"{name}/ingest", {"dataset": dataset}, ["ingest"]
        for key, model in _MODELS.items():
            yield f"{name}/{key}", {"dataset": dataset, "model": model}, ["benchmark"]
        yield f"{name}/kernel", {"dataset": dataset, "model": _MODELS["qsvm_zz"]}, ["kernel"]
        if name == "moons":
            yield "moons/kernel_angle_y", {"dataset": dataset, "model": _MODELS["qsvm_angle_y"]}, [
                "kernel"]
            yield "moons/qsvm_zz_export", {"dataset": dataset, "model": _MODELS["qsvm_zz"]}, [
                "kernel", "benchmark"]
        yield f"{name}/hybrid", {"dataset": dataset, "hybrid": hybrid}, ["hybrid"]
    # Ring differs from linear only from 3 qubits on, so this case reads a
    # CSV; its path is relative, so no artifact names the run directory.
    startup = {"csv": "startups.csv", "feature_k": 10, "subsample": 300, "seed": 1}
    ring = {"name": "qsvm", "feature_map": {"kind": "zz", "entanglement": "ring"}}
    yield "startup/zz_ring", {"dataset": startup, "model": ring}, ["ingest", "benchmark", "kernel"]
    yield "startup/zz_ring_export", {"dataset": startup, "model": ring}, [
        "ingest", "kernel", "benchmark"]
    yield "startup/angle_y", {"dataset": startup, "model": _MODELS["qsvm_angle_y"]}, [
        "ingest", "benchmark", "kernel"]


def _openblas():
    """numpy's bundled OpenBLAS library, or None if it has none."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                       "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            return lib
        except (OSError, AttributeError):
            continue
    return None


def _corename():
    lib = _openblas()
    return lib.scipy_openblas_get_corename64_().decode() if lib else ""


def _digests(workdir: Path) -> dict:
    """{case: {file under --out: sha256}} for every case, run in ``workdir``
    on one BLAS thread, as the benchmark runs: a threaded dgemm rounds the
    zz ring Gram of the startup case differently."""
    lib, cwd = _openblas(), os.getcwd()
    threads = lib.scipy_openblas_get_num_threads64_() if lib else None
    if lib:
        lib.scipy_openblas_set_num_threads64_(1)
    os.chdir(workdir)
    try:
        write_startup_csv("startups.csv", 600, seed=3)
        digests = {}
        for case, config, commands in _cases():
            cfg, out = Path(case + ".json"), Path(case)
            cfg.parent.mkdir(parents=True, exist_ok=True)
            cfg.write_text(json.dumps(config))
            for command in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, case
            digests[case] = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in sorted(out.rglob("*")) if p.is_file()}
        return digests
    finally:
        os.chdir(cwd)
        if lib:
            lib.scipy_openblas_set_num_threads64_(threads)


def test_every_artifact_keeps_its_golden_digest(tmp_path):
    golden, core = json.loads(DIGESTS.read_text()), _corename()
    known = core in golden

    def files(digests):
        return {f"{case}/{name}": digest for case, names in digests.items()
                for name, digest in names.items() if known or name in REPORTS}

    expected = files(golden[core] if known else next(iter(golden.values())))
    actual = files(_digests(tmp_path))
    moved = sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))
    note = "" if known else " (no digests for this core in the file: reports compared only)"
    assert moved == [], f"artifact bytes moved under OpenBLAS core {core!r}{note}: {moved}"
    for case, base in EXPORT_CASES.items():
        assert [actual[f"{case}/{name}"] for name in REPORTS] == [
            actual[f"{base}/{name}"] for name in REPORTS], case


if __name__ == "__main__":
    import tempfile

    golden = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        golden[_corename()] = _digests(Path(tmp))
    DIGESTS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS} for OpenBLAS core {_corename()!r}")
