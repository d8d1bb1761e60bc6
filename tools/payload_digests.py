"""Payload digests of every config the benchmark can run.

    python3 tools/payload_digests.py > digests.json
    python3 tools/payload_digests.py --keep runs-dir > digests.json

Runs each `perfbench.workloads.all_jobs()` config once through
`branchfall.cli.main(["run", ...])` with the source tree of this checkout
and prints one JSON object: {config key: {"exit_code": int, "files":
{payload name: sha256}}}.  Comparing two checkouts is one `diff` of their
outputs.  With --keep the run directories stay under the given directory,
one per config key, so payload columns can be compared value by value.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is imported: payload bits can depend
# on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from branchfall import cli  # noqa: E402
from perfbench import workloads  # noqa: E402


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest(job, out_dir: str, scratch: str) -> dict:
    """Run one job with its run directory under out_dir; exit code and digests."""
    cfg = os.path.join(scratch, f"{job.key}.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(job.text + f"out = {out_dir}\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", cfg])
    files = {}
    for run in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        for name in sorted(os.listdir(os.path.join(out_dir, run))):
            if name != "manifest.json":
                files[name] = _sha256(os.path.join(out_dir, run, name))
    return {"exit_code": code, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", metavar="DIR", help="keep each config's run directory under DIR/<key>")
    args = parser.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="payload-digests-")
    try:
        out = {}
        for job in workloads.all_jobs():
            out_dir = os.path.join(args.keep or scratch, job.key)
            out[job.key] = {"kind": job.kind, **digest(job, out_dir, scratch)}
            if not args.keep:
                shutil.rmtree(out_dir, ignore_errors=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
