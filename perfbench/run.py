#!/usr/bin/env python3
"""qkml benchmark: CLI workloads timed end to end and, traced, per layer.

    python3 perfbench/run.py --workload moons_qsvm --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from the root of a qkml checkout; the program is imported from its
``src`` directory.  Each workload runs in a fresh Python process (see
``workload.py``) with the BLAS thread variables pinned to 1, so the only
worker threads are the ones ``--threads`` asks for.  With ``--trace 0``
the set-up is also repeated in ``SETUP_PROBES`` short processes and
``setup_s`` is the median.  Metric names and units come from
``BENCHMARK.json``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs and
artifacts go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("moons_qsvm", "startup_qsvm_wide", "startup_classical")
SETUP_PROBES = 6
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Commands not in every workload; their times are per-layer metrics.
PER_LAYER_COMMANDS = ("ingest", "kernel", "kernel_verify", "hybrid")
MODELS = {"qsvm": "accuracy.qsvm", "rf": "accuracy.rf", "hybrid_arm": "accuracy.hybrid_arm",
          "classical_arm": "accuracy.classical_arm"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    env["QKML_BACKEND"] = "numpy"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _spawn(args, work: Path, deadline: float, setup_only: bool) -> dict:
    """Run one workload process; returns its result document."""
    if work.exists():
        shutil.rmtree(work)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload_name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--spawned", repr(time.monotonic())]
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    cmd += ["--tamper-gram"] * args.tamper_gram
    try:
        proc = subprocess.run(cmd, env=_child_env(), stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload_name} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{args.workload_name} process exited {proc.returncode}")
    return json.loads((work / "result.json").read_text())


def run_workload(args, deadline: float) -> dict:
    """Probe the set-up, run the workload once, and derive its metrics."""
    base = ROOT / ".perfbench_work" / f"{args.workload_name}-seed{args.seed}-trace{args.trace}"
    probes = []
    if not args.trace:
        for i in range(1 if args.tiny else SETUP_PROBES):
            probes.append(_spawn(args, base / f"setup{i}", deadline, setup_only=True))
    res = _spawn(args, base / "run", deadline, setup_only=False)
    attempted = res["attempted"] + sum(p["attempted"] for p in probes)
    failed = res["failed"] + sum(p["failed"] for p in probes)
    acc = res["accuracy"]
    m = {
        "setup_s": statistics.median([res["setup_s"]] + [p["setup_s"] for p in probes]),
        "cold_run_s": res["cold_run_s"],
        "run_s": res["run_s"],
        "cpu_s": res["cpu_s"],
        "cmd.benchmark_s": res["cmd_s"]["benchmark"],
        "run_ref": res["run_ref"],
        "cmd.benchmark_ref": res["cmd_ref"]["benchmark"],
        "ref_loop_s": res["ref_loop_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "error_rate": failed / attempted,
        "success_rate": 1.0 - failed / attempted,
        "accuracy": statistics.median(acc.values()) if acc else 0.0,
    }
    for command in PER_LAYER_COMMANDS:
        m[f"cmd.{command}_s"] = res["cmd_s"].get(command, 0.0)
    for model, name in MODELS.items():
        m[name] = acc.get(model, 0.0)
    m.update(res.get("layers", {}))
    return {"metrics": m, "attempted": attempted, "failed": failed, "result": res}


def _print_block(name: str, out: dict, units: dict) -> None:
    res = out["result"]
    machine = " ".join(f"{k}={v}" for k, v in res["machine"].items())
    warm = len(res["iterations"]) - 1
    print(f"== {name} (seed {res['seed']}, trace {res['trace']}, {warm} warm iterations) {machine}")
    for key, value in sorted(out["metrics"].items()):
        print(f"  {key:40s} {value:14.6g} {units.get(key, '')}")
    if "layer_self_s" in res:
        top = sorted(res["layer_self_s"].items(), key=lambda kv: -kv[1])
        print("  self time by layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    for err in res["errors"]:
        print(f"  FAILED: {err}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--tamper-gram", action="store_true",
                   help="corrupt the first exported gram.qkgm, for the smoke test")
    args = p.parse_args(argv)
    started = time.monotonic()
    try:
        if not (ROOT / "src" / "qkml" / "cli.py").is_file():
            raise BenchError(f"no qkml source under {ROOT / 'src'}; run from a qkml checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        units["error_rate"] = "ratio"
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        outs = {}
        for name in names:
            args.workload_name = name
            outs[name] = run_workload(args, started + DEADLINE_S * (len(outs) + 1))
            _print_block(name, outs[name], units)
        metrics = {}
        for name, out in outs.items():
            prefix = f"{name}/" if len(outs) > 1 else ""
            for m in wanted:
                metrics[prefix + m["name"]] = {"value": out["metrics"][m["name"]], "unit": m["unit"]}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = sum(o["failed"] for o in outs.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(o["attempted"] for o in outs.values()),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
