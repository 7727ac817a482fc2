"""One workload run in a fresh process: set up, iterate CLI commands, check.

Started by ``run.py``, which pins the BLAS thread variables and puts the
checkout's ``src`` on ``PYTHONPATH``.  Every command goes through the
public entry point ``qkml.cli.main(argv)`` in this process, so import and
first-call costs land in ``setup_s`` and ``cold_run_s``.  A fixed
reference loop is timed before the first command and after every command,
and each command's time is also given as a multiple of the median loop time
of its iteration (``*_ref``).  The result is
written as JSON to ``<work>/result.json``; spans, when traced, to
``<work>/spans.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import qkml
from qkml import cli

import inputs

# Minimum warm iterations, so every median has samples even when one
# iteration is longer than the time asked for.
MIN_WARM = 3
MIN_WARM_TRACE = 2
MOONS_ACCURACY_FLOOR = 0.80  # the c04 acceptance bar
ZZ = {"kind": "zz", "repetitions": 2, "entanglement": "linear"}


# The reference loop: about 10 ms of interpreted integer arithmetic and
# 10 ms of 2x2 gates on a 10-qubit numpy state vector on the reference
# machine (NOTES.md), timed REF_SAMPLES times at each gap between commands.
REF_PY_STEPS = 80_000
REF_GATE_PASSES = 30
REF_SAMPLES = 3
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def ref_loop() -> float:
    """Wall time of a fixed computation that calls no qkml code.

    The host's speed drifts by up to 1.5x over tens of seconds.  Timed
    beside every command, this loop tracks that drift, so a command's time
    divided by the loop's time measures the program rather than the host.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_PY_STEPS):
        total += i * i % 7
    state = np.zeros(1024, dtype=complex)
    state[0] = 1.0
    for _ in range(REF_GATE_PASSES):
        for q in range(10):
            state = np.matmul(_HADAMARD, state.reshape(1 << q, 2, -1)).reshape(-1)
    return time.perf_counter() - t0


class Plan:
    """A workload's inputs, set-up commands and per-iteration commands."""

    def __init__(self, name: str, work: Path, seed: int, tiny: bool):
        self.out = work / "out"
        self.setup_cmds = []
        self.commands = []  # (command name, argv)
        self.accuracy_floor = {}
        cfg = work / "config.json"
        if name == "moons_qsvm":
            doc = {"dataset": {"synthetic": {"name": "moons", "n": 300 if tiny else 1000},
                               "seed": seed},
                   "model": {"name": "qsvm", "feature_map": ZZ}}
            self.commands.append(("benchmark", self._common("benchmark", cfg, 1)))
            self.accuracy_floor["qsvm"] = MOONS_ACCURACY_FLOOR
        elif name == "startup_qsvm_wide":
            csv = work / "startups.csv"
            inputs.write_startup_csv(csv, 150 if tiny else 1900, seed)
            doc = {"dataset": {"csv": str(csv), "seed": seed, "feature_k": 10,
                               "subsample": 40 if tiny else 400},
                   "model": {"name": "qsvm", "feature_map": ZZ}}
            self.commands += [
                ("ingest", ["ingest", "--config", str(cfg), "--out", str(self.out)]),
                ("kernel", self._common("kernel", cfg, 1)),
                ("kernel_verify", ["kernel", "--verify", str(self.out / "gram.qkgm")]),
                ("benchmark", self._common("benchmark", cfg, 2)),
            ]
        elif name == "startup_classical":
            csv = work / "startups.csv"
            inputs.write_startup_csv(csv, 150 if tiny else 1900, seed)
            doc = {"dataset": {"csv": str(csv), "seed": seed},
                   "model": {"name": "rf", "n_trees": 5 if tiny else 51},
                   "hybrid": {"train": {"epochs": 5 if tiny else 100}}}
            self.setup_cmds.append(["ingest", "--config", str(cfg), "--out", str(self.out)])
            self.commands += [
                ("benchmark", self._common("benchmark", cfg, 1)),
                ("hybrid", self._common("hybrid", cfg, 1)),
            ]
        else:
            raise ValueError(f"unknown workload {name!r}")
        cfg.write_text(json.dumps(doc, indent=2))

    def _common(self, command, cfg, threads):
        return [command, "--config", str(cfg), "--out", str(self.out), "--threads", str(threads)]

    def accuracies(self) -> dict:
        """Test or validation accuracy of every model the iteration trained."""
        acc = {}
        names = {name for name, _ in self.commands}
        if "benchmark" in names:
            doc = json.loads((self.out / "report.json").read_text())
            acc[doc["model"]["name"]] = doc["report"]["accuracy"]
        if "hybrid" in names:
            arms = json.loads((self.out / "hybrid_manifest.json").read_text())["arms"]
            acc["hybrid_arm"] = arms["hybrid"]["final_val_acc"]
            acc["classical_arm"] = arms["classical"]["final_val_acc"]
        return acc

    def artifact_digests(self) -> dict:
        """sha256 of every artifact; the manifest's wall time is left out."""
        out = {}
        for path in sorted(p for p in self.out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.name == "hybrid_manifest.json":
                doc = json.loads(data)
                doc.pop("wall_time_s", None)
                data = json.dumps(doc, sort_keys=True).encode()
            out[str(path.relative_to(self.out))] = hashlib.sha256(data).hexdigest()
        return out


class Run:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def command(self, argv) -> str:
        """Call ``cli.main`` in-process; returns what it printed."""
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code
        except Exception:  # keep the run going; the failure is counted
            traceback.print_exc()
            rc = "exception"
        self.check(rc == 0, f"qkml {' '.join(argv)} exited {rc}")
        return stdout.getvalue()


def iterate(plan: Plan, run: Run, index: int, tracer, tamper: bool) -> dict:
    """Run the workload's commands once; returns the timings and the checks."""
    cmd_s = {}
    wall = cpu = 0.0
    verify_out = None
    refs = [ref_loop() for _ in range(REF_SAMPLES)]
    for name, argv in plan.commands:
        ctx = tracer.span("cli." + name) if tracer else contextlib.nullcontext()
        w0, c0 = time.perf_counter(), time.process_time()
        with ctx:
            text = run.command(argv)
        cmd_s[name] = time.perf_counter() - w0
        wall += cmd_s[name]
        cpu += time.process_time() - c0
        refs += [ref_loop() for _ in range(REF_SAMPLES)]
        if name == "kernel_verify":
            verify_out = text
        if name == "kernel" and tamper and index == 0:
            gram = plan.out / "gram.qkgm"
            blob = bytearray(gram.read_bytes())
            blob[-1] ^= 0xFF
            gram.write_bytes(bytes(blob))
    if verify_out is not None:
        run.check(verify_out.startswith("verify: ok"), f"kernel --verify said {verify_out!r}")
    acc = {}
    try:
        acc = plan.accuracies()
    except (OSError, KeyError, ValueError) as exc:
        run.check(False, f"cannot read accuracy: {exc}")
    for model, floor in plan.accuracy_floor.items():
        run.check(acc.get(model, 0.0) >= floor, f"{model} accuracy {acc.get(model)} < {floor}")
    # The median ignores the reference times that a burst of host noise hit.
    ref = statistics.median(refs)
    return {"wall": wall, "cpu": cpu, "cmd_s": cmd_s, "refs": refs, "ref": wall / ref,
            "cmd_ref": {name: t / ref for name, t in cmd_s.items()}, "accuracy": acc,
            "digests": plan.artifact_digests()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="directory for inputs and artifacts")
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() of the parent when it started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--tamper-gram", action="store_true",
                   help="corrupt gram.qkgm after the first export (smoke test)")
    args = p.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    run = Run()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    plan = Plan(args.workload, work, args.seed, args.tiny)
    for argv_ in plan.setup_cmds:
        run.command(argv_)
    setup_s = time.monotonic() - args.spawned
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setup_s,
              "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__, "backend": qkml.active_backend()}}
    if tracer:
        tracer.uninstall()
    if not args.setup_only:
        result.update(measure(plan, run, args, tracer))
    result.update(attempted=run.attempted, failed=run.failed, errors=run.errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer:
        tracer.dump(work / "spans.json")
    (work / "result.json").write_text(json.dumps(result, indent=2))
    return 0


def measure(plan: Plan, run: Run, args, tracer) -> dict:
    """Cold iteration, then warm ones until ``--seconds`` is used up.

    With tracing, the warm time is split: untraced iterations first, then
    traced ones, so the difference of their medians is the tracing cost.
    """
    start = time.perf_counter()
    iters = [iterate(plan, run, 0, None, args.tamper_gram)]
    phases = [("warm", args.seconds, MIN_WARM)]
    if tracer:
        phases = [("warm", args.seconds / 2, MIN_WARM_TRACE),
                  ("traced", args.seconds, MIN_WARM_TRACE)]
    warm = {}
    for phase, deadline, minimum in phases:
        if phase == "traced":
            tracer.install()
        done = warm.setdefault(phase, [])
        while len(done) < minimum or (
                time.perf_counter() - start + statistics.median(it["wall"] for it in done)
                <= deadline):
            label = f"iter{len(iters)}"
            if tracer:
                tracer.label = label
            it = iterate(plan, run, len(iters), tracer if phase == "traced" else None, False)
            it["label"] = label
            iters.append(it)
            done.append(it)
        if phase == "traced":
            tracer.uninstall()
    first = iters[0]["digests"]
    for i, it in enumerate(iters[1:], start=1):
        changed = sorted(k for k in set(first) | set(it["digests"])
                         if first.get(k) != it["digests"].get(k))
        run.check(not changed, f"iteration {i} artifacts differ from iteration 0: {changed}")

    med = statistics.median
    untraced = warm["warm"]
    out = {
        "iterations": [{k: v for k, v in it.items() if k != "digests"} for it in iters],
        "cold_run_s": iters[0]["wall"],
        "run_s": med(it["wall"] for it in untraced),
        "cpu_s": med(it["cpu"] for it in untraced),
        "cmd_s": {name: med(it["cmd_s"][name] for it in untraced) for name, _ in plan.commands},
        "run_ref": med(it["ref"] for it in untraced),
        "cmd_ref": {name: med(it["cmd_ref"][name] for it in untraced)
                    for name, _ in plan.commands},
        "ref_loop_s": med(r for it in untraced for r in it["refs"]),
        "accuracy": iters[-1]["accuracy"],
    }
    if tracer:
        traced = warm["traced"]
        per_iter = [tracer.iteration_metrics(it["label"]) for it in traced]
        # median_low keeps every count an observed value.
        layer = {name: statistics.median_low(m[name] for m in per_iter) for name in per_iter[0]}
        layer.update(tracer.setup_metrics())
        layer["trace.overhead_s"] = med(it["wall"] for it in traced) - out["run_s"]
        out["layers"] = layer
        self_by_layer = [tracer.layer_self(it["label"]) for it in traced]
        out["layer_self_s"] = {k: med(d.get(k, 0.0) for d in self_by_layer)
                               for k in set().union(*self_by_layer)}
    return out


if __name__ == "__main__":
    sys.exit(main())
