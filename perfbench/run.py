"""branchfall benchmark: time to a correct result per CLI kind, per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload born_sampling --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py                      # every workload, as a table

One process runs one workload as a closed loop with a single client: it
calls `branchfall.cli.main(["run", cfg])` on each generated config of a
batch in turn and repeats the batch until the time is up.  With --trace 0
it prints the end-to-end metrics; with --trace 1 it alternates untraced
and traced batches and prints the per-layer metrics.  The last line of
standard output is the result as one JSON object; the line before it
records the machine, library versions, thread settings and failures.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is imported anywhere in this process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import checks
import layers
import workloads
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SETUP_FIRST = 3  # set-up timings before the first batch; one more precedes each batch

E2E_UNITS = {
    "wall_s": "s",
    **{f"run_s.{kind}": "s" for kind in workloads.KINDS},
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Fresh interpreter: what a user's `branchfall run` pays before its run starts.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import branchfall.cli; from branchfall.config import load_config; "
    "[load_config(p) for p in sys.argv[2:]]"
)


class Runner:
    """Writes a batch's configs into a scratch directory and runs them."""

    def __init__(self, cli, jobs, scratch, reference=None):
        self.cli = cli
        self.jobs = jobs
        self.reference = reference
        self.runs_root = os.path.join(scratch, "runs")
        self.paths = []
        for i, job in enumerate(jobs):
            path = os.path.join(scratch, f"{i:02d}-{job.kind}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(job.text + f"out = {self.runs_root}\n")
            self.paths.append(path)

    def run_one(self, path, tracer=None):
        """(exit code, seconds, run directory or None, error text)."""
        out, err = io.StringIO(), io.StringIO()
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(["run", path])
                else:
                    with tracer.span("cli.main"):
                        code = self.cli.main(["run", path])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed run; keep measuring the rest
            code = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        lines = out.getvalue().strip().splitlines()
        run_dir = lines[-1] if code in (0, 4) and lines else None
        return code, seconds, run_dir, error or err.getvalue().strip()

    def inspect(self, job, run_dir):
        """(summary, manifest) of a finished run, then delete its files."""
        try:
            with open(os.path.join(run_dir, "manifest.json"), "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            return checks.summarize(job.kind, run_dir, manifest), manifest
        finally:
            shutil.rmtree(self.runs_root, ignore_errors=True)

    def run_batch(self, tracer=None, counters=None) -> dict:
        times, failures = [], []
        payload, matches, files = 0, 0, 0
        for i, (job, path) in enumerate(zip(self.jobs, self.paths)):
            if counters is not None:
                counters.begin_run(i)
            code, seconds, run_dir, error = self.run_one(path, tracer)
            if counters is not None:
                counters.end_run()
            times.append((job.kind, seconds))
            ref = self.reference["configs"].get(job.key)
            problems = []
            if ref is None:
                problems.append("no reference values for this config")
            elif code != ref["exit_code"]:
                problems.append(f"exit code {code}, expected {ref['exit_code']}: {error[-300:]}")
            if run_dir is None:
                shutil.rmtree(self.runs_root, ignore_errors=True)
            else:
                try:
                    summary, manifest = self.inspect(job, run_dir)
                except (OSError, KeyError, ValueError) as exc:
                    problems.append(f"unreadable run output: {exc!r}")
                else:
                    payload += checks.payload_bytes(manifest)
                    got = checks.digests(manifest)
                    files += len(got)
                    if ref is not None:
                        problems += checks.mismatches(ref["values"], summary)
                        matches += sum(ref["digests"].get(n) == d for n, d in got.items())
            if problems:
                failures.append(f"{job.kind} {job.key}: " + "; ".join(problems[:3]))
        return {
            "wall": sum(s for _, s in times), "times": times, "failures": failures,
            "payload_bytes": payload, "digest_matches": matches, "files": files,
        }


def measure(runner, seconds, trace, package=None):
    """Closed loop over whole batches until the next one would overrun.

    With trace, batches alternate untraced and traced, starting untraced.
    Set-up is timed SETUP_FIRST times up front and once before each batch,
    so its samples span the run as the batches do.  Returns (batches,
    spans of the traced batches, set-up samples).
    """
    batches, all_spans = [], []
    start = time.perf_counter()
    setups = [time_setup(runner.paths) for _ in range(SETUP_FIRST)]
    took = []
    while True:
        traced = trace and len(batches) % 2 == 1
        t0 = time.perf_counter()
        setups.append(time_setup(runner.paths))
        if traced:
            counters = layers.Counters()
            tracer = Tracer(package, counters.hooks())
            tracer.install()
            try:
                b = runner.run_batch(tracer, counters)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            b["layers"] = layers.batch_metrics(spans, counters, b["payload_bytes"], b["digest_matches"])
            all_spans += spans
        else:
            b = runner.run_batch()
        b["traced"] = traced
        batches.append(b)
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(batches) >= (2 if trace else 1) and elapsed + statistics.median(took) > seconds:
            return batches, all_spans, setups


def upper_decile(values) -> float:
    """90th percentile of a run's samples (inclusive method).

    The shared host this was tuned on runs in two speed states about 1.5x
    apart, switching every few seconds, and some runs spend most of their
    time in the fast one.  Medians of a run's samples then jump between
    states from run to run; the upper decile tracks the usual state and
    varied about half as much across runs.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def time_setup(paths) -> float:
    """Wall time of a fresh interpreter importing branchfall and loading
    every config of the batch."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, SRC, *paths],
        capture_output=True, text=True, timeout=120,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return seconds


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _os_threads():
    try:
        with open("/proc/self/status", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "branchfall")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "os_threads": _os_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args) -> int:
    import branchfall
    import branchfall.cli

    jobs = workloads.batch(args.workload, args.seed, toy=args.toy)
    scratch = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        runner = Runner(branchfall.cli, jobs, scratch, load_reference())
        batches, spans, setups = measure(runner, args.seconds, args.trace, branchfall)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(b["times"]) for b in batches)
    failures = [f for b in batches for f in b["failures"]]
    plain = [b for b in batches if not b["traced"]]
    samples = {kind: [s for b in plain for k, s in b["times"] if k == kind] for kind in workloads.KINDS}
    if args.trace:
        traced = [b for b in batches if b["traced"]]
        overhead = statistics.median(b["wall"] for b in traced) - statistics.median(b["wall"] for b in plain)
        values, units = layers.combine([b["layers"] for b in traced], overhead), layers.UNITS
    else:
        values = {f"run_s.{kind}": upper_decile(samples[kind]) for kind in workloads.KINDS}
        values["wall_s"] = upper_decile([b["wall"] for b in plain])
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = E2E_UNITS
    metrics = {m: {"value": values[m], "unit": u} for m, u in units.items()}

    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, tag in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "tag": tag}) + "\n")
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "batches": len(batches),
        "runs_per_batch": len(jobs), "fail_frac": len(failures) / attempted,
        "payload_files": sum(b["files"] for b in batches),
        "payload_digest_matches": sum(b["digest_matches"] for b in batches),
        "run_s_samples": samples,
        "batch_walls": [b["wall"] for b in plain],
        "setup_samples": setups,
        "env": environment(), "failures": failures[:10],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; prints one table."""
    ok = True
    print(f"{'workload':15s} {'metric':45s} {'value':>14s} unit")
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: benchmark process failed\n{proc.stderr[-2000:]}", file=sys.stderr)
            ok = False
            continue
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        ok &= result["correct"]
        for metric, m in result["metrics"].items():
            print(f"{name:15s} {metric:45s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:15s} {'fail_frac':45s} {info['fail_frac']:14.6g} ratio")
        for failure in info["failures"]:
            print(f"{name:15s} FAILED {failure}")
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="every kind at probe size (self-test)")
    parser.add_argument("--spans", help="write the traced spans here as JSON lines")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "branchfall", "cli.py")):
        print(f"branchfall sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
