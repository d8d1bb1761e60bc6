"""Record reference values for every config the benchmark can run.

    python3 perfbench/record_reference.py

Runs each pooled config once and writes perfbench/reference.json: the exit
code, the checked result values and the payload digests.  Record only at a
commit whose physics is trusted; the benchmark then fails any run whose
values drift from these beyond the tolerance in checks.py.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run  # pins the BLAS threads before numpy loads
import workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    import branchfall.cli

    jobs = workloads.all_jobs()
    configs = {}
    scratch = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=run.ROOT)
    try:
        runner = run.Runner(branchfall.cli, jobs, scratch)
        for job, path in zip(jobs, runner.paths):
            code, seconds, run_dir, error = runner.run_one(path)
            if run_dir is None:
                print(f"{job.kind} {job.key}: exit {code}\n{error}", file=sys.stderr)
                return 1
            summary, manifest = runner.inspect(job, run_dir)
            configs[job.key] = {
                "kind": job.kind, "exit_code": code, "values": summary,
                "digests": run.checks.digests(manifest),
            }
            print(f"{job.kind:10s} {job.key} exit {code} {seconds:7.3f} s", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {"git_commit": run._git_commit(), "src_sha256": run._src_sha256(), "configs": configs}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(configs)} references to {os.path.relpath(run.REFERENCE, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
