"""Payload digests of every config the benchmark can run.

    python3 tools/payload_digests.py > digests.json
    python3 tools/payload_digests.py --keep runs-dir > digests.json
    python3 tools/payload_digests.py --kind explicit --kind bohm > digests.json
    python3 tools/payload_digests.py --compare runs-a runs-b > deviations.json

Runs each `perfbench.workloads.all_jobs()` config once through
`branchfall.cli.main(["run", ...])` with the source tree of this checkout
and prints one JSON object: {config key: {"exit_code": int, "files":
{payload name: sha256}}}.  Comparing two checkouts is one `diff` of their
outputs.  With --keep the run directories stay under the given directory,
one per config key, so payload columns can be compared value by value.
Each --kind (repeatable) keeps only the configs of that kind, so a one-kind
audit runs nothing else.

--compare reads two --keep directories and runs nothing.  Per config key it
prints the byte-identical payload files and, for every other file, the
largest absolute deviation per CSV column and per JSON number (list entries
share their list's path, `key[]`); a text value that differs, or a file,
row or key present on one side only, reads "differs".  "columns" holds the
largest deviation per file name and column over all configs.  As with
`diff`, --compare exits 0 when every payload file is byte-identical on the
two sides and 1 when any file differs or exists on one side only.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is imported: payload bits can depend
# on the BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
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


DIFFERS = "differs"


def _deviation(a, b):
    """|a - b| for two numbers (bools and text must be equal), else DIFFERS."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if numbers:
        return abs(float(a) - float(b))
    return 0.0 if a == b else DIFFERS


def _merge(into: dict, key: str, dev) -> None:
    """Keep the larger deviation of key; DIFFERS outranks any number."""
    old = into.get(key, 0.0)
    into[key] = DIFFERS if DIFFERS in (old, dev) else max(old, dev)


def _csv_deviations(path_a: str, path_b: str) -> dict:
    with open(path_a, newline="", encoding="utf-8") as fa, open(path_b, newline="", encoding="utf-8") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return {"<rows>": DIFFERS}
    out = {name: 0.0 for name in rows_a[0]}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, a, b in zip(rows_a[0], row_a, row_b):
            try:
                dev = _deviation(float(a), float(b))
            except ValueError:
                dev = _deviation(a, b)
            _merge(out, name, dev)
    return out


def _json_deviations(a, b, path: str, out: dict) -> dict:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key in a and key in b:
                _json_deviations(a[key], b[key], sub, out)
            else:
                _merge(out, sub, DIFFERS)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            _merge(out, f"{path}[]", DIFFERS)
        for x, y in zip(a, b):
            _json_deviations(x, y, f"{path}[]", out)
    else:
        _merge(out, path, _deviation(a, b))
    return out


def _file_deviations(path_a: str, path_b: str) -> dict:
    if path_a.endswith(".csv"):
        return _csv_deviations(path_a, path_b)
    if path_a.endswith(".json"):
        with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
            return _json_deviations(json.load(fa), json.load(fb), "", {})
    return {"<bytes>": DIFFERS}


def _payloads(config_dir: str) -> dict:
    """Payload name -> path over the run directories of one config."""
    files = {}
    for run in sorted(os.listdir(config_dir)):
        for name in sorted(os.listdir(os.path.join(config_dir, run))):
            if name != "manifest.json":
                files[name] = os.path.join(config_dir, run, name)
    return files


def compare(dir_a: str, dir_b: str) -> dict:
    """Per config key: identical payload files and per-column deviations of
    the others; plus the largest deviation per file and column."""
    configs, columns = {}, {}
    for key in sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b))):
        sides = [os.path.join(d, key) for d in (dir_a, dir_b)]
        files_a, files_b = (_payloads(p) if os.path.isdir(p) else {} for p in sides)
        same, differ = [], {}
        for name in sorted(set(files_a) | set(files_b)):
            if name not in files_a or name not in files_b:
                differ[name] = {"<file>": DIFFERS}
            elif _sha256(files_a[name]) == _sha256(files_b[name]):
                same.append(name)
            else:
                differ[name] = _file_deviations(files_a[name], files_b[name])
            for col, dev in differ.get(name, {}).items():
                _merge(columns.setdefault(name, {}), col, dev)
        configs[key] = {"identical": same, "deviations": differ}
    return {"configs": configs, "columns": columns}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", metavar="DIR", help="keep each config's run directory under DIR/<key>")
    parser.add_argument(
        "--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
        help="compare the payloads of two --keep directories column by column",
    )
    parser.add_argument(
        "--kind", action="append", choices=workloads.KINDS,
        help="run only the configs of this kind (repeatable; default: every kind)",
    )
    args = parser.parse_args(argv)
    if args.compare:
        result = compare(*args.compare)
        json.dump(result, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 1 if any(c["deviations"] for c in result["configs"].values()) else 0
    scratch = tempfile.mkdtemp(prefix="payload-digests-")
    try:
        out = {}
        for job in workloads.all_jobs():
            if args.kind and job.kind not in args.kind:
                continue
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
