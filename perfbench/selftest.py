"""Self-test of the benchmark: every workload at toy size, both modes.

    python3 perfbench/selftest.py

Checks that each run prints a result whose metrics are exactly the ones
BENCHMARK.json names, each with its declared unit and a finite value; that
the runs are correct; that traced spans nest (each child's interval lies
inside its parent's) and reach every library module; and that without the
program's sources the benchmark exits non-zero and prints no result.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

from spans import LIBRARY, nesting_errors
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(proc, declared, label) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: incorrect run: {proc.stdout.strip().splitlines()[-2][-800:]}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        errors.append(f"{label}: metrics differ: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit:
            errors.append(f"{label}: {name} unit {m.get('unit')!r}, declared {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value!r}")
    return errors


def check_spans(path, label) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    tuples = [(s["id"], s["parent"], s["name"], s["start"], s["end"], s["tag"]) for s in spans]
    errors = [f"{label}: {e}" for e in nesting_errors(tuples)[:5]]
    seen = {s["name"].split(".", 1)[0] for s in spans}
    missing = [m for m in LIBRARY + ("cli",) if m not in seen]
    if missing:
        errors.append(f"{label}: no spans from {missing}")
    return errors


def check_without_sources() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    bare = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.py", file=sys.stderr)
        return 1
    errors = []
    scratch = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                label = f"{workload} trace={trace}"
                spans = os.path.join(scratch, f"{workload}.jsonl")
                args = ["--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--toy"]
                if trace:
                    args += ["--spans", spans]
                proc = _bench(ROOT, *args)
                errors += check_result(proc, declared[trace], label)
                if trace and proc.returncode == 0:
                    errors += check_spans(spans, label)
                print(f"{label}: {'ok' if not errors else 'FAILED'}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    errors += check_without_sources()
    for e in errors:
        print(e, file=sys.stderr)
    print("selftest " + ("passed" if not errors else f"failed ({len(errors)} errors)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
