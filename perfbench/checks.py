"""Correctness of one run: exit code and result values against references.

The values checked are the physics a run reports: the reduce verdict and
pass fractions, branch closure and leaf count, sample escapes and collapse
histories, final purity and horizon, worst KS distance, GRW hits.  Floats
must agree to a relative 1e-6 (absolute 1e-9 near zero).  That admits the
roundoff of a reordered sum, an FFT in place of a dense product or a fused
step, whose drift over a run stays below 1e-10, and rejects changed
physics, which moves these values at 1e-4 or more.  Integers and strings
must match exactly.

Payload SHA-256 digests are compared too, but only counted: a refactor
that changes roundoff legitimately changes payload bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os

REL_TOL = 1e-6
ABS_TOL = 1e-9


def _json(run_dir, name):
    with open(os.path.join(run_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _columns(run_dir, name) -> dict:
    with open(os.path.join(run_dir, name), "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {h: [row[i] for row in body] for i, h in enumerate(header)}


def _last_row(run_dir, name) -> dict:
    cols = _columns(run_dir, name)
    return {k: float(v[-1]) for k, v in cols.items()}


def summarize(kind: str, run_dir: str, manifest: dict) -> dict:
    """The values of a finished run that references pin down."""
    res = manifest["results"]
    if kind == "evolve":
        return {"rows": res["rows"], "final_purity": res["final_purity"],
                "last": _last_row(run_dir, "evolve.csv")}
    if kind == "sieve":
        cols = _columns(run_dir, "sieve.csv")
        return {"argmin_width": res["argmin_width"],
                "s_lin_sum": math.fsum(float(v) for v in cols["s_lin"])}
    if kind == "branch":
        out = _json(run_dir, "branch.json")
        cols = _columns(run_dir, "branches.csv")
        out["histories"] = sorted(cols["history"])
        return out
    if kind == "sample":
        out = _json(run_dir, "sample.json")
        cols = _columns(run_dir, "trajectories.csv")
        out["alphas"] = [int(a) for a in cols["alpha"]]
        out["x_sum"] = math.fsum(float(v) for v in cols["x"])
        return out
    if kind == "explicit":
        out = _json(run_dir, "explicit.json")
        return {"k": out["k"], "purity": out["purity"], "bin_mass": out["bin_mass"],
                "env_overlaps": out["env_overlaps"]}
    if kind == "grw":
        cols = _columns(run_dir, "hits.csv")
        return {"n_hits": res["n_hits"], "t": [float(v) for v in cols["t"]],
                "x0": [float(v) for v in cols["x0"]]}
    if kind == "bohm":
        out = _json(run_dir, "bohm.json")
        out["worst_ks"] = res["worst_ks"]
        return out
    if kind == "ehrenfest":
        return {"horizon": res["horizon"], "last": _last_row(run_dir, "evolve.csv"),
                "widths": _last_row(run_dir, "widths.csv")}
    if kind == "reduce":
        out = _json(run_dir, "reduction.json")
        return {
            "verdict": out["verdict"], "horizon_T": out["horizon_T"],
            "per_z0": [
                {k: r[k] for k in ("pass_fraction", "worst_dev", "n_escaped")}
                | {"n_violations": len(r["violations"])}
                for r in out["per_z0"]
            ],
        }
    raise KeyError(f"no summary for kind {kind!r}")


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Differences between two summaries, within the tolerance above."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for k in expected:
            out += mismatches(expected[k], actual[k], f"{path}.{k}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def digests(manifest: dict) -> dict:
    return {f["name"]: f["sha256"] for f in manifest["files"]}


def payload_bytes(manifest: dict) -> int:
    return sum(f["bytes"] for f in manifest["files"])
