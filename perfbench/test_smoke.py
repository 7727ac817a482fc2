"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Run from the repository root.  Each case starts ``run.py`` as a user would.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, lines = _run("--workload", workload, "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace == "0":
        wanted["error_rate"] = "ratio"
    table = "\n".join(lines[:-1])
    for name, unit in wanted.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", table, re.M), name


def test_tampered_gram_is_counted_as_a_failure():
    proc, lines = _run("--workload", "startup_qsvm_wide", "--trace", "0", "--tiny",
                       "--tamper-gram")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "error_rate" in "\n".join(lines[:-1])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert lines == []
