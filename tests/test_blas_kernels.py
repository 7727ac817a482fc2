"""Artifacts across OpenBLAS kernels.

numpy's OpenBLAS picks its kernels by CPU at run time, and they round
differently, so byte-identical reruns hold on one machine and one BLAS
kernel.  Here ``kernel``, a zz ring qsvm ``benchmark`` and ``hybrid`` run
in two subprocesses, one on the default core type and one with
``OPENBLAS_CORETYPE=Sandybridge``: the reports must keep their bytes, Gram
entries must agree to the 1e-12 allowed for zz states, and the learning
curves to 1e-12 as well (measured on a 2-core x86-64 host, SkylakeX
against Sandybridge: Gram entries by at most 5.6e-16, curves by at most
2.2e-16).
"""

import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints the core name of numpy's bundled OpenBLAS ("" if it has none),
# then runs each command on the config in argv[1] into argv[2]/<command>.
_RUN = """
import ctypes, glob, os, sys
import numpy as np
from qkml.cli import main

name = ""
for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*")):
    try:
        corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        continue
    corename.restype = ctypes.c_char_p
    name = corename().decode()
print(name, flush=True)
for command in ("kernel", "benchmark", "hybrid"):
    out = os.path.join(sys.argv[2], command)
    if main([command, "--config", sys.argv[1], "--out", out]) != 0:
        sys.exit(f"{command} failed")
"""


def _run(cfg, out, coretype):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", _RUN, str(cfg), str(out)], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return proc.stdout.splitlines()[0]


def _gram(path):
    blob = path.read_bytes()
    n = struct.unpack_from("<Q", blob, 8)[0]
    return np.frombuffer(blob, dtype="<f8", offset=16).reshape(n, n)


def _curves(path):
    rows = list(csv.reader(path.read_text().splitlines()))
    return [r[:2] for r in rows], np.array([[float(v) for v in r[2:]] for r in rows[1:]])


def test_reports_keep_their_bytes_and_numbers_their_values_across_blas_kernels(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dataset": {"synthetic": {"name": "moons", "n": 300}},
        "model": {"name": "qsvm", "feature_map": {"kind": "zz", "entanglement": "ring"}},
        "hybrid": {"quanv": {"window": 2, "stride": 1}},
    }))
    a, b = tmp_path / "default", tmp_path / "sandybridge"
    names = _run(cfg, a, None), _run(cfg, b, "Sandybridge")
    if names[0] == names[1]:
        pytest.skip(f"OpenBLAS ran core type {names[0]!r} both times")
    for name in ("report.txt", "report.json", "confusion.csv"):
        assert (a / "benchmark" / name).read_bytes() == (b / "benchmark" / name).read_bytes(), name
    np.testing.assert_allclose(_gram(a / "kernel" / "gram.qkgm"),
                               _gram(b / "kernel" / "gram.qkgm"), rtol=0, atol=1e-12)
    (keys_a, curves_a), (keys_b, curves_b) = (_curves(d / "hybrid" / "curves.csv") for d in (a, b))
    assert keys_a == keys_b
    np.testing.assert_allclose(curves_a, curves_b, rtol=0, atol=1e-12)
