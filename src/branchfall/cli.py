"""Command line entry points: run, validate, report.

Every run writes into its own fresh directory under the configured output
root: CSV payloads and JSON reports first, then a manifest with the byte
count and sha256 each writer took of the bytes it wrote, renamed into place
atomically.  Payload bytes depend only on config + seed;
timestamps live in the manifest and the directory name alone.  Each writer
checks its whole payload before it opens the file and raises ExplosionGuard
(exit 3) on a NaN, or on an infinity bound for a CSV (JSON spells it "inf"),
so no payload or manifest holds a non-finite number.  CSV numbers are the
bytes of '%.17g' % v: one exact vectorised kernel (_format_g17) writes every
value in fixed notation (zero and 1e-4 <= |v| < 1e17), and only the rest,
in scientific notation, goes through % one value at a time.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .branching import BornSampler, BranchTree, ExplicitModel, branch_step, evolve_explicit
from .config import ConfigError, load_config, make_grid, make_potential, make_povm
from .dynamics import evolve
from .ehrenfest import WidthSeries, classicality_horizon, ehrenfest_residual
from .errors import BranchfallError, EscapeSampled, ExplosionGuard
from .mechanisms import BohmEnsemble, GRWParams, bohm_evolve, bohm_snapshots, grw_evolve
from .pointer import predictability_sieve
from .qstate import PhasePoint, coherent_state
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


def _decade_floor(k: int) -> float:
    """The smallest double at or above 10**k."""
    f = float(f"1e{k}")
    num, den = f.as_integer_ratio()
    at_or_above = num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0)
    return f if at_or_above else math.nextafter(f, math.inf)


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Group key of the lower edge of each binade, and the next decade edge.

    A double x with edges[i - 1] <= |x| < edges[i] has the decimal exponent
    i - 5, and %.17g writes it in fixed notation for i in 1 ... 21.  A
    binade [2^e, 2^(e+1)) holds at most one decade edge, so the top 12 bits
    of x (sign and exponent) give i up to one comparison: i = below[top] +
    (|x| >= next_edge[top]).  The key is 2 i + sign.
    """
    edges = np.array([_decade_floor(k) for k in range(-4, 18)])
    binades = np.append(np.ldexp(1.0, np.arange(2047) - 1023), np.inf)
    binades[0] = 0.0
    below = np.searchsorted(edges, binades, side="right")
    group = np.concatenate([2 * below, 2 * below + 1]).astype(np.uint8)
    return group, np.tile(np.append(edges, np.inf)[below], 2)


def _quad_words() -> np.ndarray:
    """ASCII of 0000 ... 9999 as uint32 words, then the same words with
    their trailing zeros as NULs (10000 + i)."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    words = np.concatenate([digits, np.where(trailing, 0, digits)]).astype(np.uint8)
    return words.view(np.uint32).ravel()


def _veltkamp(a):
    """Split doubles into 26-bit halves hi + lo = a (Veltkamp)."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_GROUP, _NEXT_EDGE = _group_tables()
# group key offset of the integral values, which print no fraction
_INTEGRAL = 46
# keys of the decimal exponents %.17g writes in scientific notation: below
# 1e-4 (zero apart, whose key is integral) and 1e17 on (44/45 only NaN)
_FALLBACK = (0, 1, 44, 45, 90, 91)
# 10^q is exact for q <= 22
_POW10 = 10.0 ** np.arange(23)
_POW10_HI, _POW10_LO = _veltkamp(_POW10)
_QUADS = _quad_words()
_CELL = 24  # bytes per cell: the longest %.17g of a double is 24 characters


def _format_g17(values: np.ndarray) -> np.ndarray:
    """'%.17g' % v of every finite double, as an (n, _CELL) uint8 matrix
    of NUL-padded ASCII cells in input order.

    Exact for every double, with no per-value Python in fixed notation
    (zero and 1e-4 <= |v| < 1e17): values are grouped by decimal exponent
    and sign with one stable sort.  The 17 significant digits are D =
    round-half-even(|v| 10^q), q = 16 - exponent in [0, 20]: Dekker's two-
    product gives |v| 10^q = p + err exactly, p >= 1e16 > 2^53 is an even
    integer, so D = p + rint(err).  D becomes ASCII through a table of
    4-digit words, and each group copies its integer digits, point and
    fraction into place; a fraction's trailing zeros come from the table as
    NULs.  No double in the domain lies within half a unit of the 17th digit
    below a power of ten, so D < 10^17.  The rest (below 1e-4 but not zero,
    1e17 and above) goes through % one value at a time.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    n = len(x)
    a = np.abs(x)
    top = x.view(np.uint64) >> 52
    key = _GROUP[top] + np.uint8(2) * (a >= _NEXT_EDGE[top])
    key += np.uint8(_INTEGRAL) * (x == np.trunc(x))
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=2 * _INTEGRAL)
    ends = np.cumsum(counts).tolist()
    starts = [0] + ends[:-1]
    a, key = a[order], key[order]
    for k in _FALLBACK:
        a[starts[k]:ends[k]] = 0.0
    q = 21 - np.minimum((key % _INTEGRAL) >> 1, 21)
    b, b_hi, b_lo = _POW10[q], _POW10_HI[q], _POW10_LO[q]
    a_hi, a_lo = _veltkamp(a)
    p = a * b
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    # D as five 4-digit words "000d dddd dddd dddd dddd"; in a fraction, a
    # word followed by zero words only takes its trailing-zero-free form
    lead = digits // 10**16
    rest = digits - lead * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    w1, w3 = hi8 // 10**4, lo8 // 10**4
    w2, w4 = hi8 - w1 * 10**4, lo8 - w3 * 10**4
    trim = (key < _INTEGRAL) * 10000
    words = np.stack([
        lead,
        w1 + trim * (lo8 == 0) * (w2 == 0),
        w2 + trim * (lo8 == 0),
        w3 + trim * (w4 == 0),
        w4 + trim,
    ], axis=1)
    src = _QUADS[words].view(np.uint8)
    out = np.zeros((n, _CELL), np.uint8)
    for k in np.flatnonzero(counts).tolist():
        if k in _FALLBACK:
            continue
        integral, group = divmod(k, _INTEGRAL)
        exp, neg = group // 2 - 5, group % 2
        cell, dig = out[starts[k]:ends[k]], src[starts[k]:ends[k]]
        # the integer digits, or the "0" of the padding below 1 (and of zero)
        lo, hi = (3, 4 + exp) if exp >= 0 else (0, 1)
        width = hi - lo
        if neg:
            cell[:, 0] = ord("-")
        cell[:, neg:neg + width] = dig[:, lo:hi]
        if not integral:
            cell[:, neg + width] = ord(".")
            cell[:, neg + width + 1:neg + width + 17 - exp] = dig[:, 4 + exp:]
    cells = np.empty(n, f"S{_CELL}")
    cells[order] = out.view(f"S{_CELL}").ravel()
    others = np.concatenate([order[starts[k]:ends[k]] for k in _FALLBACK])
    cells[others] = [b"%.17g" % v for v in x[others].tolist()]
    return cells.view(np.uint8).reshape(n, _CELL)


_BLOCK_ROWS = 4096


class Indexed(NamedTuple):
    """A CSV column given as its distinct values and, per row, the position
    of the row's value in them: row i holds values[index[i]].  The writer
    formats each value once.  A plain tuple stays a sequence of cells."""

    values: Sequence
    index: np.ndarray


def _checked_cells(given) -> np.ndarray:
    """A column's values, checked: a bool, integer or float array that
    _format_g17 writes, or else the cells as a NUL-padded uint8 matrix."""
    col = np.asarray(given)
    if col.ndim != 1:
        raise ValueError("CSV columns must be 1-D and of equal length")
    kind = col.dtype.kind
    if kind == "f" and not np.isfinite(col).all():
        raise ExplosionGuard("non-finite value bound for CSV output")
    if kind in "iu" and len(col) and not (-(2**53) < col.min() and col.max() < 2**53):
        # only an integer below 2^53 in magnitude is sure to be exact as a double
        cells = [b"%d" % v for v in col.tolist()]
    elif kind in "biuf":
        return col
    else:
        cells = [_cell(v).encode("utf-8") for v in given]
        if any(b"\0" in c for c in cells):
            raise ValueError("CSV text cells may not hold a NUL character")
    cells = np.array(cells, dtype="S")
    return cells.view(np.uint8).reshape(len(cells), cells.itemsize)


def _distinct_cells(column: Indexed) -> tuple[np.ndarray, np.ndarray]:
    """The formatted cells of an Indexed column's values, as a uint8 matrix
    cut to its widest cell, and its index, checked against them."""
    cells = _checked_cells(column.values)
    if cells.ndim == 1:
        cells = _format_g17(cells)
    width = np.flatnonzero(cells.any(axis=0))
    cells = np.ascontiguousarray(cells[:, :width[-1] + 1 if width.size else 1])
    index = np.asarray(column.index)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValueError("a CSV column index must be a 1-D integer array")
    # a negative index would wrap silently
    if len(index) and not (0 <= index.min() and index.max() < len(cells)):
        raise ValueError(f"CSV column index outside 0 ... {len(cells) - 1}")
    return cells, index


def _write_csv(path: str, columns) -> None:
    """Write an ordered {name: column} mapping as CSV.

    A column is a 1-D sequence, or an Indexed(values, index) pair whose
    values are formatted once and gathered per row.  Bool, integer and
    float values are written as '%.17g' % float(v), which is %d for bools
    (1/0) and for integers below 2^53 in magnitude; wider integers go
    through %d one by one.  Float values are checked finite whole, and any
    other column goes cell by cell through _cell, reading the values as
    given (a list mixing text and floats reaches numpy as text, a NaN as the
    string "nan"); a text cell may not hold a NUL, and an index must lie in
    0 ... len(values) - 1.  Every check runs before the file is opened, so a
    rejected payload leaves no file behind.  Rows are written _BLOCK_ROWS at
    a time, so memory does not grow with the row count: the plain numeric
    columns of a block are formatted in one _format_g17 call, the block's
    cells and separators go into one preallocated byte matrix, and its NUL
    padding is dropped.  The byte count and sha256 of what is written are
    recorded for the run directory's manifest.
    """
    cols = [
        _distinct_cells(given) if isinstance(given, Indexed) else (_checked_cells(given), None)
        for given in columns.values()
    ]
    lengths = {len(cells if index is None else index) for cells, index in cols}
    if len(lengths) > 1:
        raise ValueError("CSV columns must be 1-D and of equal length")
    n_rows = lengths.pop() if lengths else 0
    # cell width per column: a numeric column's cells come from _format_g17
    widths = [_CELL if cells.ndim == 1 else cells.shape[1] for cells, _ in cols]
    ends = np.cumsum(np.add(widths, 1)).tolist()
    header = (",".join(columns) + "\n").encode("utf-8")
    digest, size = hashlib.sha256(header), len(header)
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            numeric = [cells[start:stop] for cells, _ in cols if cells.ndim == 1]
            if numeric:
                numbers = np.concatenate(numeric, dtype=np.float64)
                formatted = iter(_format_g17(numbers).reshape(len(numeric), stop - start, _CELL))
            buf = np.empty((stop - start, ends[-1]), np.uint8)
            for (cells, index), width, end in zip(cols, widths, ends):
                if cells.ndim == 1:
                    buf[:, end - width - 1:end - 1] = next(formatted)
                else:
                    rows = slice(start, stop) if index is None else index[start:stop]
                    buf[:, end - width - 1:end - 1] = cells[rows]
                buf[:, end - 1] = ord(",")
            buf[:, -1] = ord("\n")
            data = buf[buf != 0]
            fh.write(data)
            digest.update(data)
            size += len(data)
    _record(path, size, digest.hexdigest())


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


# json.dumps layouts: reports and the manifest are indented, reduction.json
# is one compact line
_INDENTED = {"indent": 2}
_COMPACT = {"separators": (",", ":")}


def _write_json(path: str, obj, layout: dict) -> None:
    """Write obj as sorted-key JSON in the given layout.

    The text is built before the file is opened, so a payload that
    _jsonable rejects (a NaN) leaves no file behind; an infinity is written
    as the string "inf" or "-inf".  The byte count and sha256 of what is
    written are recorded for the run directory's manifest.
    """
    text = json.dumps(_jsonable(obj), sort_keys=True, allow_nan=False, **layout) + "\n"
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    _record(path, len(data), hashlib.sha256(data).hexdigest())


# (bytes, sha256) of each file the writers wrote, by file name, for each run
# directory cmd_run has open: the manifest takes its digests from here and
# does not read its payloads back
_WRITTEN: dict[str, dict[str, tuple[int, str]]] = {}


def _record(path: str, size: int, sha256: str) -> None:
    written = _WRITTEN.get(os.path.dirname(os.path.abspath(path)))
    if written is not None:
        written[os.path.basename(path)] = (size, sha256)


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
    """Write manifest.json: the run's config, times and results, and the
    byte count and sha256 of each payload as its writer recorded them.
    Every file in the run directory must have come from a writer."""
    written = _WRITTEN[os.path.abspath(run_dir)]
    files = []
    for name in sorted(os.listdir(run_dir)):
        if name not in written:
            raise RuntimeError(f"{name} in {run_dir} did not come from a payload writer")
        size, sha256 = written[name]
        files.append({"name": name, "bytes": size, "sha256": sha256})
    manifest = {
        "artifact": "branchfall",
        "version": __version__,
        "kind": cfg["kind"],
        "seed": cfg["seed"],
        "config": cfg,
        "started_at": started,
        "finished_at": _utc_now(),
        "files": files,
        "results": results,
    }
    tmp = os.path.join(run_dir, "manifest.json.tmp")
    _write_json(tmp, manifest, _INDENTED)
    os.replace(tmp, os.path.join(run_dir, "manifest.json"))


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _packet(cfg, grid):
    return coherent_state(grid, cfg["q0"], cfg["p0"], cfg["sigma_x"])


def _evolve_csv(cfg, run_dir, potential):
    """The run's evolve() record, written to evolve.csv."""
    rec = evolve(
        _packet(cfg, make_grid(cfg)), potential, cfg["lambda"],
        cfg["dt"], cfg["n_steps"], cfg["record_every"],
    )
    _write_csv(os.path.join(run_dir, "evolve.csv"), rec.as_columns())
    return rec


def _run_evolve(cfg, run_dir):
    rec = _evolve_csv(cfg, run_dir, make_potential(cfg))
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
    _write_json(os.path.join(run_dir, "branch.json"), summary, _INDENTED)
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
    _write_json(os.path.join(run_dir, "sample.json"), summary, _INDENTED)
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
        "purity": reduced._squares() * grid.dx**2,
    }
    _write_json(os.path.join(run_dir, "explicit.json"), payload, _INDENTED)
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
    _write_json(os.path.join(run_dir, "grw.json"), summary, _INDENTED)
    return summary, EXIT_OK


def _run_bohm(cfg, run_dir):
    snapshots, times = bohm_snapshots(
        _packet(cfg, make_grid(cfg)), make_potential(cfg), cfg["total_time"], cfg["dt"]
    )
    ensemble = BohmEnsemble.from_state(snapshots[0], cfg["n_traj"], cfg["seed"])
    run = bohm_evolve(ensemble, snapshots, times, cfg["ode_dt"], cfg["checkpoints"])
    # each trajectory id and time is formatted once, not once per row
    traj, step = run.row_index()
    _write_csv(os.path.join(run_dir, "bohm.csv"), {
        "traj_id": Indexed(np.arange(len(run.positions)), traj),
        "t": Indexed(run.times, step),
        "x": run.positions.ravel(),
    })
    summary = {
        "n_traj": cfg["n_traj"],
        "n_flagged": int(np.sum(run.node_flags)),
        "ks_distances": {"%.6g" % t: v for t, v in run.ks_distances.items()},
    }
    _write_json(os.path.join(run_dir, "bohm.json"), summary, _INDENTED)
    return {"worst_ks": max(run.ks_distances.values())}, EXIT_OK


def _run_ehrenfest(cfg, run_dir):
    potential = make_potential(cfg)
    rec = _evolve_csv(cfg, run_dir, potential)
    _write_csv(
        os.path.join(run_dir, "residual.csv"),
        ehrenfest_residual(rec, potential).as_columns(),
    )
    widths = WidthSeries.from_record(rec)
    _write_csv(os.path.join(run_dir, "widths.csv"), widths.as_columns())
    horizon = classicality_horizon(widths, (cfg["delta_x"], cfg["delta_p"]), cfg["l_v"])
    _write_json(os.path.join(run_dir, "horizon.json"), horizon.as_json(), _INDENTED)
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
    _write_json(os.path.join(run_dir, "reduction.json"), report.as_json(), _COMPACT)
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
    _WRITTEN[os.path.abspath(run_dir)] = {}
    try:
        results, code = _RUNNERS[cfg["kind"]](cfg, run_dir)
        results["exit_code"] = code
        _write_manifest(run_dir, cfg, started, results)
    except BranchfallError as err:
        print(f"numerical abort: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        del _WRITTEN[os.path.abspath(run_dir)]
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
