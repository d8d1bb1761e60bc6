"""Command line entry points: run, validate, report.

Every run writes into its own fresh directory under the configured output
root: CSV payloads and JSON reports first, then a manifest with digests,
renamed into place atomically.  Payload bytes depend only on config + seed;
timestamps live in the manifest and the directory name alone.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .branching import BornSampler, BranchTree, ExplicitModel, branch_step, evolve_explicit
from .config import ConfigError, load_config, make_grid, make_potential, make_povm
from .dynamics import _SplitStep, evolve
from .ehrenfest import WidthSeries, classicality_horizon, ehrenfest_residual
from .errors import BranchfallError, EscapeSampled, ExplosionGuard
from .mechanisms import BohmEnsemble, GRWParams, _step_count, bohm_evolve, grw_evolve
from .pointer import predictability_sieve
from .qstate import PhasePoint, WaveFunction, coherent_state
from .reduction import ReductionSpec, verify_reduction

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_REDUCE_FAIL = 4


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)
    if not math.isfinite(f):
        raise ExplosionGuard("non-finite value bound for CSV output")
    return "%.17g" % f


_BLOCK_ROWS = 4096


def _write_csv(path: str, columns) -> None:
    """Write an ordered {name: 1-D sequence} mapping as CSV.

    One format per column, chosen from its dtype: bool as 1/0, integers with
    %d, floats with %.17g after one whole-column finite check; any other
    column goes cell by cell through _cell.  Every check runs before the
    file is opened, so a rejected payload leaves no file behind.  Rows are
    formatted and written _BLOCK_ROWS at a time, so memory does not grow
    with the row count.  Within a block, a typed column whose values repeat
    is formatted once per distinct value (_block_column); each row is then
    one call of the block's row template.
    """
    cols = [np.asarray(c) for c in columns.values()]
    n_rows = len(cols[0]) if cols else 0
    if any(c.ndim != 1 or len(c) != n_rows for c in cols):
        raise ValueError("CSV columns must be 1-D and of equal length")
    fmts = []
    for i, col in enumerate(cols):
        kind = col.dtype.kind
        if kind in "biu":
            fmts.append("%d")
        elif kind == "f":
            if not np.isfinite(col).all():
                raise ExplosionGuard("non-finite value bound for CSV output")
            fmts.append("%.17g")
        else:
            cols[i] = np.array([_cell(v) for v in col.tolist()], dtype=object)
            fmts.append("%s")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            parts = [_block_column(c[start:start + _BLOCK_ROWS], f) for c, f in zip(cols, fmts)]
            template = ",".join(f for f, _ in parts) + "\n"
            fh.write("".join(map(template.__mod__, zip(*(v for _, v in parts)))))


def _block_column(block: np.ndarray, fmt: str) -> tuple[str, list]:
    """Row-template format and row-order values of one block of a column.

    A typed column is deduplicated on its bit pattern, read through an
    unsigned view of the same width, so -0.0 and 0.0 stay apart.  When the
    block holds at most half as many distinct values as rows, each value is
    formatted once and the strings are gathered back into row order under
    "%s"; otherwise the values go to the row template as they are, which
    formats a row of distinct numbers faster than joining preformatted
    cells.
    """
    if fmt == "%s":
        return fmt, block.tolist()
    bits, inverse = np.unique(block.view(f"u{block.itemsize}"), return_inverse=True)
    if 2 * len(bits) > len(block):
        return fmt, block.tolist()
    cells = np.array(list(map(fmt.__mod__, bits.view(block.dtype).tolist())), dtype=object)
    return "%s", cells[inverse].tolist()


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        f = float(value)
        if math.isnan(f):
            raise ExplosionGuard("non-finite number NaN bound for JSON output")
        return f if math.isfinite(f) else ("inf" if f > 0 else "-inf")
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    return value


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False))
        fh.write("\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _reject_constant(token):
    raise ExplosionGuard(f"non-finite number {token} in JSON output")


# One pattern per exponent letter: a literal first character lets re skip
# ahead to each candidate, where a leading [eE] class tries every position.
_LONG_EXPONENTS = (re.compile(r"e[+-]?[0-9_]{3}"), re.compile(r"E[+-]?[0-9_]{3}"))
_LONG_LINE = 200
_SCAN_CHARS = 1 << 18


def _scan_lines(name: str, lines) -> None:
    for line in lines:
        for cell in line.rstrip("\n").split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise ExplosionGuard(f"non-finite value in {name}: {cell}")


def _longest_line(chunk: str) -> int:
    """Length of the longest line of an ASCII chunk split at its newlines,
    read off the offsets of its newline bytes."""
    ends = np.flatnonzero(np.frombuffer(chunk.encode("ascii"), dtype=np.uint8) == 10)
    return int(np.diff(ends, prepend=-1, append=len(chunk)).max()) - 1


def _clean(chunk: str) -> bool:
    """True when no cell of the chunk can parse to a non-finite float.

    That holds when the chunk is ASCII (float() also reads other Unicode
    digits), has no letter of nan/inf, no exponent of three or more digits
    (underscores count, as float() skips them) and no line of _LONG_LINE
    characters (a 309-digit integer parses to inf).  The conditions run in
    that order, so the exponent search and _longest_line only see ASCII
    chunks; neither runs a regex that tries every character.
    """
    return (
        chunk.isascii()
        and not any(letter in chunk for letter in "nNiI")
        and not any(p.search(chunk) for p in _LONG_EXPONENTS)
        and _longest_line(chunk) < _LONG_LINE
    )


def _scan_csv(path: str, name: str) -> None:
    """Run _scan_lines over every line after the header, chunk by chunk.

    Chunks end at line ends, and only a chunk that _clean cannot clear goes
    through the per-cell loop.  When that loop finds a non-finite value, or
    the file is not UTF-8, the loop runs once more over the whole file as
    one stream, so an abort raises exactly what it alone would raise.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()
            tail = ""
            while True:
                block = fh.read(_SCAN_CHARS)
                chunk = tail + block
                cut = chunk.rfind("\n") + 1 if block else len(chunk)
                chunk, tail = chunk[:cut], chunk[cut:]
                if chunk and not _clean(chunk):
                    _scan_lines(name, chunk.split("\n"))
                if not block:
                    return
    except (UnicodeDecodeError, ExplosionGuard):
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()
            _scan_lines(name, fh)
        raise


def _assert_finite_outputs(run_dir: str, names) -> None:
    """Defect scan: every number in every emitted file must be finite."""
    for name in names:
        path = os.path.join(run_dir, name)
        if name.endswith(".json"):
            with open(path, "r", encoding="utf-8") as fh:
                json.load(fh, parse_constant=_reject_constant)
        elif name.endswith(".csv"):
            _scan_csv(path, name)


def _new_run_dir(root: str, kind: str) -> str:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    base = f"{stamp}-{kind}"
    for suffix in range(1000):
        name = base if suffix == 0 else f"{base}-{suffix}"
        path = os.path.join(root, name)
        try:
            os.makedirs(path)
            return path
        except FileExistsError:
            continue
    raise RuntimeError("could not allocate a fresh run directory")


def _write_manifest(run_dir: str, cfg: dict, started: str, results: dict) -> None:
    files = sorted(
        name for name in os.listdir(run_dir)
        if os.path.isfile(os.path.join(run_dir, name)) and name != "manifest.json"
    )
    manifest = {
        "artifact": "branchfall",
        "version": __version__,
        "kind": cfg["kind"],
        "seed": cfg["seed"],
        "config": _jsonable(cfg),
        "started_at": started,
        "finished_at": _utc_now(),
        "files": [
            {
                "name": name,
                "bytes": os.path.getsize(os.path.join(run_dir, name)),
                "sha256": _sha256(os.path.join(run_dir, name)),
            }
            for name in files
        ],
        "results": _jsonable(results),
    }
    tmp = os.path.join(run_dir, "manifest.json.tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False))
        fh.write("\n")
    os.replace(tmp, os.path.join(run_dir, "manifest.json"))


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _packet(cfg, grid):
    return coherent_state(grid, cfg["q0"], cfg["p0"], cfg["sigma_x"])


def _run_evolve(cfg, run_dir):
    grid = make_grid(cfg)
    rec = evolve(
        _packet(cfg, grid), make_potential(cfg), cfg["lambda"],
        cfg["dt"], cfg["n_steps"], cfg["record_every"],
    )
    _write_csv(os.path.join(run_dir, "evolve.csv"), rec.as_columns())
    return {"rows": len(rec.times), "final_purity": float(rec.purity[-1])}, EXIT_OK


def _run_sieve(cfg, run_dir):
    grid = make_grid(cfg)
    result = predictability_sieve(
        grid, make_potential(cfg), cfg["lambda"], cfg["sigma_list"],
        PhasePoint(cfg["q0"], cfg["p0"]), cfg["horizon"], cfg["dt"],
    )
    _write_csv(os.path.join(run_dir, "sieve.csv"), result.as_columns())
    return {"argmin_width": float(result.argmin_width)}, EXIT_OK


def _run_branch(cfg, run_dir):
    grid = make_grid(cfg)
    potential = make_potential(cfg)
    povm = make_povm(cfg, grid)
    tree = BranchTree.from_state(
        _packet(cfg, grid).to_density(), povm, cfg["dt"], cfg["prune_epsilon"]
    )
    for _ in range(cfg["n_steps"]):
        tree = branch_step(
            tree, potential, cfg["lambda"], cfg["dt_int"],
            cfg["escape_tol"], cfg["leaf_cap"],
        )
    leaves = tree.snapshot()
    _write_csv(os.path.join(run_dir, "branches.csv"), {
        "history": ["/".join(str(a) for a in leaf["history"]) for leaf in leaves],
        "weight": [leaf["weight"] for leaf in leaves],
        "z_q": [leaf["z"][0] for leaf in leaves],
        "z_p": [leaf["z"][1] for leaf in leaves],
    })
    summary = {
        "n_leaves": len(tree.leaves),
        "closure": tree.weight_closure(),
        "dropped_weight": tree.dropped_weight,
        "escape_weight": tree.escape_weight,
        "n_steps": tree.n_steps,
    }
    _write_json(os.path.join(run_dir, "branch.json"), summary)
    return summary, EXIT_OK


def _run_sample(cfg, run_dir):
    grid = make_grid(cfg)
    potential = make_potential(cfg)
    povm = make_povm(cfg, grid)
    sampler = BornSampler(
        _packet(cfg, grid).to_density(), potential, cfg["lambda"], povm,
        cfg["dt"], cfg["dt_int"],
    )
    cols = {"traj_id": [], "t": [], "alpha": [], "x": [], "p": []}
    escapes = []
    for tid in range(cfg["n_traj"]):
        seed = np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(tid,))
        try:
            records, _ = sampler.trajectory(cfg["n_steps"], seed)
        except EscapeSampled as err:
            records = err.records
            escapes.append({"traj_id": tid, "t": float(err.time)})
        for t, alpha, z in records:
            cols["traj_id"].append(tid)
            cols["t"].append(t)
            cols["alpha"].append(-1 if alpha is None else alpha)
            cols["x"].append(z.q)
            cols["p"].append(z.p)
    _write_csv(os.path.join(run_dir, "trajectories.csv"), cols)
    summary = {"n_traj": cfg["n_traj"], "n_escaped": len(escapes), "escapes": escapes}
    _write_json(os.path.join(run_dir, "sample.json"), summary)
    return {"n_traj": cfg["n_traj"], "n_escaped": len(escapes)}, EXIT_OK


def _run_explicit(cfg, run_dir):
    grid = make_grid(cfg)
    model = ExplicitModel.from_wavefunction(
        _packet(cfg, grid), cfg["couplings"], cfg["env_energies"]
    )
    model, report = evolve_explicit(
        model, make_potential(cfg), cfg["dt"], cfg["n_steps"], cfg["bins"]
    )
    reduced = report.reduced_rho
    _write_csv(
        os.path.join(run_dir, "explicit.csv"),
        {"x": grid.x, "density": reduced.position_density()},
    )
    payload = {
        "k": model.k,
        "bin_bounds": report.bin_bounds,
        "bin_mass": report.bin_mass,
        "bin_centroids": report.bin_centroids,
        "env_overlaps": report.env_overlaps,
        "consistency_ratios": report.consistency_ratios,
        # Tr rho^2 of the Hermitian kernel, in O(N^2)
        "purity": float(np.sum(np.abs(reduced.elements) ** 2) * grid.dx**2),
    }
    _write_json(os.path.join(run_dir, "explicit.json"), payload)
    return {"k": model.k}, EXIT_OK


def _run_grw(cfg, run_dir):
    grid = make_grid(cfg)
    run = grw_evolve(
        _packet(cfg, grid), make_potential(cfg),
        GRWParams(cfg["hit_rate"], cfg["r_c"]), cfg["total_time"],
        cfg["seed"], cfg["dt_int"],
    )
    _write_csv(os.path.join(run_dir, "hits.csv"), {
        "t": [hit.time for hit in run.hits],
        "x0": [hit.center for hit in run.hits],
    })
    summary = {"n_hits": len(run.hits), "total_time": run.total_time}
    _write_json(os.path.join(run_dir, "grw.json"), summary)
    return summary, EXIT_OK


def _run_bohm(cfg, run_dir):
    grid = make_grid(cfg)
    potential = make_potential(cfg)
    n_snap = _step_count(cfg["total_time"], cfg["dt"])
    psi = _packet(cfg, grid)
    core = _SplitStep(grid, potential.values(grid), cfg["dt"])
    snapshots = [psi]
    for _ in range(n_snap):
        psi = WaveFunction(grid, core.run(psi.amplitudes), validate=False)
        snapshots.append(psi)
    times = np.arange(n_snap + 1) * cfg["dt"]
    ensemble = BohmEnsemble.from_state(snapshots[0], cfg["n_traj"], cfg["seed"])
    run = bohm_evolve(ensemble, snapshots, times, cfg["ode_dt"], cfg["checkpoints"])
    _write_csv(os.path.join(run_dir, "bohm.csv"), run.as_columns())
    summary = {
        "n_traj": cfg["n_traj"],
        "n_flagged": int(np.sum(run.node_flags)),
        "ks_distances": {"%.6g" % t: v for t, v in run.ks_distances.items()},
    }
    _write_json(os.path.join(run_dir, "bohm.json"), summary)
    return {"worst_ks": max(run.ks_distances.values())}, EXIT_OK


def _run_ehrenfest(cfg, run_dir):
    grid = make_grid(cfg)
    potential = make_potential(cfg)
    rec = evolve(
        _packet(cfg, grid), potential, cfg["lambda"],
        cfg["dt"], cfg["n_steps"], cfg["record_every"],
    )
    _write_csv(os.path.join(run_dir, "evolve.csv"), rec.as_columns())
    _write_csv(
        os.path.join(run_dir, "residual.csv"),
        ehrenfest_residual(rec, potential).as_columns(),
    )
    widths = WidthSeries.from_record(rec)
    _write_csv(os.path.join(run_dir, "widths.csv"), widths.as_columns())
    horizon = classicality_horizon(widths, (cfg["delta_x"], cfg["delta_p"]), cfg["l_v"])
    _write_json(os.path.join(run_dir, "horizon.json"), horizon.as_json())
    return {"horizon": horizon.as_json()}, EXIT_OK


def _run_reduce(cfg, run_dir):
    grid = make_grid(cfg)
    spec = ReductionSpec(
        delta_z=(cfg["delta_x"], cfg["delta_p"]),
        tau_c=cfg["tau_c"],
        d_c=tuple(PhasePoint(q, p) for q, p in cfg["d_c"]),
        epsilon=cfg["epsilon"],
        n_traj=cfg["n_traj"],
        dt=cfg["dt"],
        dt_int=cfg["dt_int"],
        potential=make_potential(cfg),
        lambda_rate=cfg["lambda"],
        povm=make_povm(cfg, grid),
        sigma_x=cfg["sigma_x"],
        l_v=cfg["l_v"],
    )
    report = verify_reduction(spec, cfg["seed"])
    with open(os.path.join(run_dir, "reduction.json"), "wb") as fh:
        fh.write(report.to_json_bytes())
        fh.write(b"\n")
    results = {"verdict": report.verdict, "horizon_T": report.as_json()["horizon_T"]}
    return results, EXIT_OK if report.verdict == "PASS" else EXIT_REDUCE_FAIL


_RUNNERS = {
    "evolve": _run_evolve,
    "sieve": _run_sieve,
    "branch": _run_branch,
    "sample": _run_sample,
    "explicit": _run_explicit,
    "grw": _run_grw,
    "bohm": _run_bohm,
    "ehrenfest": _run_ehrenfest,
    "reduce": _run_reduce,
}


def cmd_run(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
    except (OSError, ConfigError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    started = _utc_now()
    run_dir = _new_run_dir(cfg["out"], cfg["kind"])
    try:
        results, code = _RUNNERS[cfg["kind"]](cfg, run_dir)
        names = [n for n in os.listdir(run_dir) if n != "manifest.json"]
        _assert_finite_outputs(run_dir, names)
        results["exit_code"] = code
        _write_manifest(run_dir, cfg, started, results)
    except BranchfallError as err:
        print(f"numerical abort: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(run_dir)
    return code


def cmd_validate(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
    except (OSError, ConfigError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: kind={cfg['kind']} seed={cfg['seed']}")
    return EXIT_OK


def cmd_report(run_dir: str) -> int:
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.isfile(path):
        print(f"no manifest found in {run_dir}", file=sys.stderr)
        return EXIT_CONFIG
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    print(f"kind:      {manifest['kind']}")
    print(f"seed:      {manifest['seed']}")
    print(f"version:   {manifest['version']}")
    print(f"started:   {manifest['started_at']}")
    print(f"finished:  {manifest['finished_at']}")
    print("files:")
    for entry in manifest["files"]:
        print(f"  {entry['name']:20s} {entry['bytes']:>10d}  {entry['sha256'][:16]}")
    results = manifest.get("results", {})
    if results:
        print("results:")
        for key, value in sorted(results.items()):
            print(f"  {key} = {value}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="branchfall",
        description="Open-system branching experiments: run, validate, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="path to a key = value config file")
    p_rep = sub.add_parser("report", help="pretty-print a run directory manifest")
    p_rep.add_argument("run_dir", help="runs/<id> directory")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "validate":
        return cmd_validate(args.config)
    return cmd_report(args.run_dir)


if __name__ == "__main__":
    sys.exit(main())
