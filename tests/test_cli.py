"""Config parsing and the command-line front end.

Runs stay tiny here: 64-point grids, a handful of steps. The point is
exit codes, artifact layout, and byte determinism, not physics.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_finite_scan, reference_unitary, reference_write_csv

from branchfall import (
    BohmEnsemble,
    ExplicitModel,
    WaveFunction,
    bohm_evolve,
    cli,
    coherent_state,
    evolve_explicit,
)
from branchfall.cli import main
from branchfall.config import (
    ConfigError,
    load_config,
    make_grid,
    make_potential,
    make_povm,
    parse_config,
    validate_config,
)


def write_cfg(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


EVOLVE_BODY = """\
# harmonic packet, a few steps
kind = evolve
seed = 7
grid_n = 64
x_min = -8
x_max = 8
potential = harmonic
q0 = 1.0
p0 = 0.0
sigma_x = 0.7071
lambda = 0.1
dt = 0.01
n_steps = 20
record_every = 5
out = {out}
"""

SAMPLE_BODY = """\
kind = sample
seed = 11
grid_n = 64
x_min = -8
x_max = 8
potential = harmonic
q0 = 0.0
p0 = 0.0
sigma_x = 0.7071
window_x_lo = -4
window_x_hi = 4
window_p_lo = -6
window_p_hi = 6
cells_x = 2
cells_p = 2
lambda = 0.5
dt = 0.3
n_steps = 2
n_traj = 5
out = {out}
"""

REDUCE_BODY = """\
kind = reduce
seed = 21
grid_n = 96
x_min = -7
x_max = 7
mass = 4
potential = harmonic
sigma_x = 0.3536
window_x_lo = -5.6
window_x_hi = 5.6
window_p_lo = -17
window_p_hi = 17
cells_x = 4
cells_p = 4
lambda = 0.5
delta_x = {dx}
delta_p = {dp}
tau_c = 0.5
dt = 0.5
dt_int = 0.05
d_c = 1.5, 0.0
epsilon = 0.05
n_traj = 100
out = {out}
"""


def only_run_dir(out_dir):
    entries = os.listdir(out_dir)
    assert len(entries) == 1
    return os.path.join(out_dir, entries[0])


# ---------------------------------------------------------------- parsing


def test_parse_skips_comments_and_blanks():
    raw = parse_config("# header\n\nkind = evolve\n  # indented comment\nseed = 3\n")
    assert raw == {"kind": "evolve", "seed": "3"}


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="line 2.*duplicate key 'seed'"):
        parse_config("seed = 1\nseed = 2\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigError, match="line 1.*expected 'key = value'"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config("= 3\n")


def test_validate_requires_kind():
    with pytest.raises(ConfigError, match="missing required key 'kind'"):
        validate_config({})
    with pytest.raises(ConfigError, match="unknown kind 'warp'"):
        validate_config({"kind": "warp"})


def test_validate_rejects_unknown_key_by_name():
    with pytest.raises(ConfigError, match="unknown key 'lamda' for kind 'evolve'"):
        validate_config({"kind": "evolve", "lamda": "0.1"})


def test_validate_reports_missing_required():
    with pytest.raises(ConfigError, match="missing required key 'sigma_list'"):
        validate_config({"kind": "sieve", "lambda": "0.2"})


def test_validate_reports_bad_value():
    with pytest.raises(ConfigError, match="bad value for key 'dt'"):
        validate_config(
            {"kind": "evolve", "lambda": "0", "dt": "soon", "n_steps": "5"}
        )


def test_nan_scalar_key_exits_2_before_any_work(tmp_path, capsys):
    out = tmp_path / "runs"
    body = (
        "kind = ehrenfest\ngrid_n = 64\nx_min = -8\nx_max = 8\n"
        f"delta_x = 1.5\ndelta_p = 1.5\nl_v = {{l_v}}\nout = {out}\n"
    )
    assert main(["run", write_cfg(tmp_path, "nan.cfg", body.format(l_v="nan"))]) == 2
    assert "bad value for key 'l_v'" in capsys.readouterr().err
    assert not out.exists()
    # an infinite l_v (no position cap) stays valid
    assert validate_config(parse_config(body.format(l_v="inf")))["l_v"] == math.inf


# valid bodies, each spoiled by one non-positive step size or count below
_SPOILED_BODIES = {
    "bohm": "kind = bohm\ngrid_n = 128\nq0 = 1.0\nsigma_x = 0.7071\ntotal_time = 0.5\n",
    "grw": "kind = grw\ngrid_n = 64\nx_min = -8\nx_max = 8\nhit_rate = 1.0\nr_c = 0.5\n",
    "explicit": "kind = explicit\ngrid_n = 64\nx_min = -8\nx_max = 8\ncouplings = 0.2\ndt = 0.01\n",
    "sample": (
        "kind = sample\ngrid_n = 64\nx_min = -8\nx_max = 8\nwindow_x_lo = -4\n"
        "window_x_hi = 4\nwindow_p_lo = -6\nwindow_p_hi = 6\ncells_x = 2\ncells_p = 2\n"
        "lambda = 0.5\ndt = 0.3\nn_steps = 2\n"
    ),
}


@pytest.mark.parametrize(
    "kind, spoil",
    [
        pytest.param("bohm", "n_traj = 0", id="0"),
        pytest.param("bohm", "n_traj = -3", id="-3"),
        pytest.param("bohm", "ode_dt = 0", id="bohm-ode_dt-0"),
        pytest.param("bohm", "dt = inf", id="bohm-dt-inf"),
        pytest.param("bohm", "dt = 0.2", id="bohm-total_time-not-whole-dt"),
        pytest.param("bohm", "ode_dt = 0.04", id="bohm-dt-not-whole-ode_dt"),
        pytest.param("bohm", "dt = 1e-320", id="bohm-dt-count-overflows"),
        pytest.param("grw", "total_time = 1\ndt_int = 0", id="grw-dt_int-0"),
        pytest.param("grw", "total_time = 1\ndt_int = -0.01", id="grw-dt_int-negative"),
        pytest.param("grw", "total_time = -1", id="grw-total_time-negative"),
        pytest.param("explicit", "n_steps = -5", id="explicit-n_steps-negative"),
        pytest.param("sample", "n_traj = -2", id="sample-n_traj-negative"),
    ],
)
def test_bohm_without_trajectories_exits_2_before_any_work(tmp_path, capsys, kind, spoil):
    # and every other non-positive (or infinite) step size, time span or
    # count, and a bohm time span or snapshot step that is not a whole
    # number of the step below it
    out = tmp_path / "runs"
    body = _SPOILED_BODIES[kind] + f"{spoil}\nout = {out}\n"
    key = spoil.splitlines()[-1].split(" = ")[0]
    assert main(["run", write_cfg(tmp_path, "b.cfg", body)]) == 2
    assert f"bad value for key '{key}'" in capsys.readouterr().err
    assert not out.exists()


# valid bodies of the kinds with a window or a width key
_WIDE_BODIES = {
    "branch": SAMPLE_BODY.replace("kind = sample", "kind = branch").replace(
        "n_traj = 5\n", ""
    ),
    "sample": SAMPLE_BODY,
    "reduce": REDUCE_BODY.replace("{dx}", "1.5").replace("{dp}", "1.5"),
    "grw": _SPOILED_BODIES["grw"] + "total_time = 1\nout = {out}\n",
}


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("branch", "window_x_lo", "-inf"),
        ("branch", "window_x_hi", "inf"),
        ("sample", "window_p_lo", "-inf"),
        ("reduce", "window_p_hi", "inf"),
        ("branch", "sigma_x", "inf"),
        ("sample", "povm_sigma_x", "inf"),
        ("branch", "sigma_x", "1e300"),
        ("grw", "r_c", "1e300"),
    ],
)
def test_infinite_window_or_width_exits_2_before_any_work(tmp_path, capsys, kind, key, value):
    # each raised OverflowError or ZeroDivisionError inside the run before;
    # sigma_x, povm_sigma_x and r_c may not exceed the grid width
    out = tmp_path / "runs"
    lines = [ln for ln in _WIDE_BODIES[kind].splitlines() if not ln.startswith(f"{key} =")]
    body = "\n".join(lines + [f"{key} = {value}"]).format(out=out) + "\n"
    assert validate_config(parse_config(_WIDE_BODIES[kind].format(out=out)))
    assert main(["run", write_cfg(tmp_path, "w.cfg", body)]) == 2
    assert f"bad value for key '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("grid_n", "4"),
        ("grid_n", "600"),
        ("x_min", "-inf"),
        ("x_max", "inf"),
        ("x_min", "8"),
        ("mass", "0"),
        ("lambda", "-1"),
        ("lambda", "inf"),
        ("omega", "inf"),
        ("barrier", "inf"),
        ("half_separation", "-inf"),
    ],
)
def test_grid_and_physics_keys_outside_their_domain_exit_2(tmp_path, capsys, key, value):
    # each passed validate before; a key the run reads then failed there
    # (exit 2, or 3 for omega = inf), after the run directory existed
    out = tmp_path / "runs"
    lines = [ln for ln in EVOLVE_BODY.splitlines() if not ln.startswith(f"{key} =")]
    body = "\n".join(lines + [f"{key} = {value}"]).format(out=out) + "\n"
    cfg = write_cfg(tmp_path, "g.cfg", body)
    shown = "x_max" if key == "x_min" and value == "8" else key
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        assert f"bad value for key '{shown}'" in capsys.readouterr().err
    assert not out.exists()


def test_nan_in_float_list_key_rejected():
    with pytest.raises(ConfigError, match="bad value for key 'sigma_list'.*NaN"):
        validate_config({"kind": "sieve", "lambda": "0.2", "sigma_list": "0.5, NaN"})


def test_nan_in_pair_key_rejected():
    raw = parse_config(REDUCE_BODY.format(dx=1, dp=1, out="runs"))
    with pytest.raises(ConfigError, match="bad value for key 'd_c'.*NaN"):
        validate_config({**raw, "d_c": "1.5, 0.0; nan, 0.5"})


def test_validate_fills_defaults_and_types():
    cfg = validate_config({"kind": "evolve", "lambda": "0.5"})
    assert cfg["seed"] == 0 and isinstance(cfg["seed"], int)
    assert cfg["grid_n"] == 128
    assert cfg["dt"] == 0.01 and cfg["n_steps"] == 100
    assert cfg["lambda"] == 0.5
    # evolve has no POVM, so no povm_sigma_x sneaks in
    assert "povm_sigma_x" not in cfg


def test_povm_sigma_defaults_to_packet_width():
    base = {
        "kind": "sample",
        "lambda": "0.5",
        "dt": "0.3",
        "n_steps": "2",
        "sigma_x": "0.9",
        "window_x_lo": "-4",
        "window_x_hi": "4",
        "window_p_lo": "-6",
        "window_p_hi": "6",
        "cells_x": "2",
        "cells_p": "2",
    }
    cfg = validate_config(base)
    assert cfg["povm_sigma_x"] == 0.9
    cfg2 = validate_config({**base, "povm_sigma_x": "0.5"})
    assert cfg2["povm_sigma_x"] == 0.5


def test_list_and_pair_casters():
    cfg = validate_config(
        {
            "kind": "sieve",
            "lambda": "0.2",
            "sigma_list": "0.5, 0.7, 1.1",
        }
    )
    assert cfg["sigma_list"] == (0.5, 0.7, 1.1)
    cfg = validate_config(
        {
            "kind": "reduce",
            "sigma_x": "0.5",
            "window_x_lo": "-4",
            "window_x_hi": "4",
            "window_p_lo": "-6",
            "window_p_hi": "6",
            "cells_x": "2",
            "cells_p": "2",
            "lambda": "0.5",
            "delta_x": "1",
            "delta_p": "1",
            "tau_c": "1",
            "dt": "0.5",
            "dt_int": "0.05",
            "d_c": "1.5, 0.0; -1.5, 0.5",
        }
    )
    assert cfg["d_c"] == ((1.5, 0.0), (-1.5, 0.5))


def test_builders_construct_objects(tmp_path):
    cfg = load_config(
        write_cfg(tmp_path, "s.cfg", SAMPLE_BODY.format(out=tmp_path / "runs"))
    )
    grid = make_grid(cfg)
    assert grid.n_points == 64 and grid.mass == 1.0
    pot = make_potential(cfg)
    assert pot.name == "harmonic"
    povm = make_povm(cfg, grid)
    assert povm.partition.n_cells == 4
    with pytest.raises(ConfigError, match="unknown potential"):
        make_potential({**cfg, "potential": "mexican_hat"})


# ---------------------------------------------------------------- run: evolve


def test_run_evolve_on_fft_grid_needs_numpy_only(tmp_path):
    # the package declares numpy as its only dependency; scipy is for tests
    body = EVOLVE_BODY.replace("grid_n = 64", "grid_n = 256").format(out=tmp_path / "runs")
    path = write_cfg(tmp_path, "e.cfg", body)
    code = (
        'import sys; sys.modules["scipy"] = None; from branchfall import cli; '
        'sys.exit(cli.main(["run", sys.argv[1]]))'
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    done = subprocess.run(
        [sys.executable, "-c", code, path], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert os.path.isfile(os.path.join(only_run_dir(tmp_path / "runs"), "evolve.csv"))


def test_run_evolve_layout_and_header(tmp_path):
    out = tmp_path / "runs"
    path = write_cfg(tmp_path, "e.cfg", EVOLVE_BODY.format(out=out))
    assert main(["run", path]) == 0
    run_dir = only_run_dir(out)
    names = sorted(os.listdir(run_dir))
    assert names == ["evolve.csv", "manifest.json"]
    lines = Path(os.path.join(run_dir, "evolve.csv")).read_text().splitlines()
    assert lines[0] == "t,mean_x,mean_p,var_x,var_p,s_lin,purity"
    assert len(lines) == 1 + 5  # record_every=5 over 20 steps, plus t=0
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        assert all(abs(float(c)) < 1e6 for c in cells)


def test_manifest_digests_match_files(tmp_path):
    out = tmp_path / "runs"
    path = write_cfg(tmp_path, "e.cfg", EVOLVE_BODY.format(out=out))
    main(["run", path])
    run_dir = only_run_dir(out)
    manifest = json.loads(Path(os.path.join(run_dir, "manifest.json")).read_text())
    assert manifest["kind"] == "evolve"
    assert manifest["seed"] == 7
    assert manifest["results"]["exit_code"] == 0
    assert manifest["config"]["lambda"] == 0.1
    listed = [e["name"] for e in manifest["files"]]
    assert listed == sorted(listed)
    for entry in manifest["files"]:
        blob = Path(os.path.join(run_dir, entry["name"])).read_bytes()
        assert len(blob) == entry["bytes"]
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]


def test_no_files_escape_run_dir(tmp_path):
    out = tmp_path / "runs"
    path = write_cfg(tmp_path, "e.cfg", EVOLVE_BODY.format(out=out))
    main(["run", path])
    run_dir = only_run_dir(out)
    stray = []
    for root, _dirs, files in os.walk(tmp_path):
        for name in files:
            full = os.path.join(root, name)
            if full != path and not full.startswith(run_dir + os.sep):
                stray.append(full)
    assert stray == []


def test_rerun_payloads_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    path_a = write_cfg(tmp_path, "a.cfg", SAMPLE_BODY.format(out=out_a))
    path_b = write_cfg(tmp_path, "b.cfg", SAMPLE_BODY.format(out=out_b))
    assert main(["run", path_a]) == 0
    time.sleep(0.01)
    assert main(["run", path_b]) == 0
    dir_a, dir_b = only_run_dir(out_a), only_run_dir(out_b)
    for name in ("trajectories.csv", "sample.json"):
        blob_a = Path(os.path.join(dir_a, name)).read_bytes()
        blob_b = Path(os.path.join(dir_b, name)).read_bytes()
        assert blob_a == blob_b, f"{name} differs between identical runs"


EXPLICIT_BODY = """\
kind = explicit
grid_n = 64
x_min = -8
x_max = 8
q0 = 1.0
sigma_x = 0.7071
couplings = 0.3, 0.6
dt = 0.01
n_steps = 30
out = {out}
"""


def test_explicit_purity_is_the_trace_of_rho_squared(tmp_path):
    # explicit.json reads the purity as sum |rho|^2 dx^2: Tr rho^2 of the
    # reduced kernel, without the N^3 product
    out = tmp_path / "runs"
    path = write_cfg(tmp_path, "x.cfg", EXPLICIT_BODY.format(out=out))
    cfg = load_config(path)
    assert main(["run", path]) == 0
    got = json.loads(Path(only_run_dir(out), "explicit.json").read_text())["purity"]
    grid = make_grid(cfg)
    model = ExplicitModel.from_wavefunction(
        coherent_state(grid, cfg["q0"], cfg["p0"], cfg["sigma_x"]), cfg["couplings"], None
    )
    model, _ = evolve_explicit(model, make_potential(cfg), cfg["dt"], cfg["n_steps"], None)
    rho = model.reduced_density().elements
    want = float(np.real(np.trace(rho @ rho))) * grid.dx**2
    assert want < 0.99  # the qubits have decohered the packet
    assert abs(got - want) <= 1e-14


def test_bohm_run_matches_snapshots_of_the_reference_unitary(tmp_path):
    # the wave_output bohm shape (N = 192, below the FFT path of kernels)
    # with 50 trajectories: the run steps its snapshots with the split-step
    # core, the reference with the dense unfused Strang unitary
    out = tmp_path / "runs"
    body = (
        "kind = bohm\nseed = 5\ngrid_n = 192\nx_min = -12\nx_max = 12\nq0 = 1.0\n"
        "sigma_x = 0.7071\ntotal_time = 2.0\ndt = 0.05\node_dt = 0.0125\nn_traj = 50\n"
        f"out = {out}\n"
    )
    path = write_cfg(tmp_path, "b.cfg", body)
    cfg = load_config(path)
    assert main(["run", path]) == 0
    got = np.loadtxt(Path(only_run_dir(out), "bohm.csv"), delimiter=",", skiprows=1)
    grid = make_grid(cfg)
    u = reference_unitary(grid, make_potential(cfg), cfg["dt"])
    psi = coherent_state(grid, cfg["q0"], cfg["p0"], cfg["sigma_x"])
    snapshots = [psi]
    for _ in range(40):
        psi = WaveFunction(grid, u @ psi.amplitudes, validate=False)
        snapshots.append(psi)
    run = bohm_evolve(
        BohmEnsemble.from_state(snapshots[0], cfg["n_traj"], cfg["seed"]),
        snapshots, np.arange(41) * cfg["dt"], cfg["ode_dt"],
    )
    want = run.as_columns()
    assert np.array_equal(got[:, 0], want["traj_id"]) and np.array_equal(got[:, 1], want["t"])
    # measured 1.6e-14 on positions of order 1; the bound leaves 64 times that
    assert np.abs(got[:, 2] - want["x"]).max() <= 1e-12


def test_sample_initial_rows_use_sentinel_alpha(tmp_path):
    out = tmp_path / "runs"
    path = write_cfg(tmp_path, "s.cfg", SAMPLE_BODY.format(out=out))
    main(["run", path])
    run_dir = only_run_dir(out)
    lines = Path(os.path.join(run_dir, "trajectories.csv")).read_text().splitlines()
    assert lines[0] == "traj_id,t,alpha,x,p"
    zero_rows = [l for l in lines[1:] if float(l.split(",")[1]) == 0.0]
    assert len(zero_rows) == 5
    assert all(l.split(",")[2] == "-1" for l in zero_rows)
    later = [l for l in lines[1:] if float(l.split(",")[1]) > 0.0]
    assert all(int(l.split(",")[2]) >= 0 for l in later)


# ---------------------------------------------------------------- exit codes


def test_unknown_key_exits_2_and_names_it(tmp_path, capsys):
    path = write_cfg(tmp_path, "bad.cfg", "kind = evolve\nlamda = 0.1\n")
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "lamda" in err and "unknown key" in err
    # nothing written anywhere
    assert sorted(os.listdir(tmp_path)) == ["bad.cfg"]


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_boundary_abort_exits_3(tmp_path, capsys):
    body = (
        "kind = evolve\nseed = 1\ngrid_n = 32\nx_min = -4\nx_max = 4\n"
        "potential = free\nq0 = 0.0\np0 = 3.0\nsigma_x = 0.8\n"
        f"lambda = 0\ndt = 0.05\nn_steps = 40\nout = {tmp_path / 'runs'}\n"
    )
    path = write_cfg(tmp_path, "drift.cfg", body)
    assert main(["run", path]) == 3
    assert "numerical abort" in capsys.readouterr().err
    # aborted runs leave no manifest behind
    run_dir = only_run_dir(tmp_path / "runs")
    assert "manifest.json" not in os.listdir(run_dir)


def _nan_through_csv_writer(cfg, run_dir):
    cli._write_csv(os.path.join(run_dir, "evolve.csv"), {"t": [0.0], "x": [float("nan")]})
    return {}, cli.EXIT_OK


def _nan_past_the_writer(cfg, run_dir):
    with open(os.path.join(run_dir, "evolve.csv"), "w", encoding="utf-8") as fh:
        fh.write("t,x\n0,nan\n")
    return {}, cli.EXIT_OK


def _nan_through_json_writer(cfg, run_dir):
    cli._write_json(os.path.join(run_dir, "horizon.json"), {"T": float("nan")})
    return {}, cli.EXIT_OK


def _nan_in_results(cfg, run_dir):
    return {"horizon": {"T": float("nan")}}, cli.EXIT_OK


@pytest.mark.parametrize(
    "runner",
    [_nan_through_csv_writer, _nan_past_the_writer, _nan_through_json_writer, _nan_in_results],
)
def test_non_finite_output_exits_3(tmp_path, capsys, monkeypatch, runner):
    # caught by the CSV cell or JSON formatter, by the defect scan after the
    # run, or while the manifest's results are formatted
    monkeypatch.setitem(cli._RUNNERS, "evolve", runner)
    path = write_cfg(tmp_path, "e.cfg", EVOLVE_BODY.format(out=tmp_path / "runs"))
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert "numerical abort" in err and "non-finite" in err
    run_dir = only_run_dir(tmp_path / "runs")
    assert "manifest.json" not in os.listdir(run_dir)


# ---------------------------------------------------------------- CSV writer and defect scan

_FLOATS = [-0.0, 0.0, 5e-324, 1e300, -1e300, 3.0, -42.0, 0.1, 1.7976931348623157e308, 2.5e-17]


def _repeated_cells(n_rows):
    """Columns whose cells repeat within and across blocks: the bohm.csv
    layout (trajectory ids repeated, times tiled), signed zeros side by side,
    and repeated float32 and bool cells."""
    n_times = 161
    n_traj = -(-n_rows // n_times)
    times = np.arange(n_times) * 0.0125
    return {
        "traj_id": np.repeat(np.arange(n_traj), n_times)[:n_rows],
        "t": np.tile(times, n_traj)[:n_rows],
        "z": np.resize([0.0, -0.0, 0.0, -0.0, 1e-300], n_rows),
        "w": np.resize(np.array([0.1, -0.0, 0.0, 3.5], dtype=np.float32), n_rows),
        "flag": np.resize([True, True, False], n_rows),
    }


@pytest.mark.parametrize(
    "columns",
    [
        {
            "flag": np.array([True, False] * 5),
            "n": np.array([0, -1, 7, 2**62, -(2**40), 3, 4, 5, 6, 9]),
            "name": ["", "0/1", "3", "a b", "x"] * 2,
            "v": np.array(_FLOATS),
            "w": np.array([0.1, -0.0, 1e-40, 3.0, -1e30] * 2, dtype=np.float32),
        },
        {"flag": [True, False], "n": [3, -3], "v": [2.0, 1e16], "h": ["1/2", ""]},
        {"t": [], "x": np.empty(0)},
        {
            "i": np.arange(2 * cli._BLOCK_ROWS + 3),
            "x": np.random.default_rng(5).normal(size=2 * cli._BLOCK_ROWS + 3) * 1e3,
        },
        _repeated_cells(2 * cli._BLOCK_ROWS + 3),
    ],
    ids=["typed-arrays", "python-lists", "header-only", "several-blocks", "repeated-cells"],
)
def test_columnar_writer_matches_per_cell_writer(tmp_path, columns):
    cli._write_csv(str(tmp_path / "new.csv"), columns)
    reference_write_csv(str(tmp_path / "ref.csv"), list(columns), zip(*columns.values()))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_SCAN_CELLS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda f: "%.17g" % f),
    st.integers().map(str),
    st.sampled_from([
        "nan", "-Inf", "infinity", "NaN", "1e309", "-1e308", "1e-400", "1_0e3_08",
        "1e3_0", "1E+99", "\u0661e\u0663\u0660\u0669", "\u0661\u0662", "abc", "",
        " 2 ", "\u2028", "1\u2028nan", "\xe9",
    ]),
    st.integers(190, 400).map(lambda n: "9" * n),
    st.text(max_size=6),
)


@st.composite
def _csv_files(draw):
    rows = draw(st.lists(st.lists(_SCAN_CELLS, min_size=1, max_size=4), max_size=10))
    sep = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = sep.join(["a,b"] + [",".join(row) for row in rows]) + draw(st.sampled_from(["", sep]))
    data = text.encode("utf-8")
    if draw(st.sampled_from([False, False, False, True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _scan_outcome(scan):
    try:
        scan()
    except (cli.ExplosionGuard, UnicodeDecodeError) as err:
        return type(err), str(err)
    return None


@settings(max_examples=400, deadline=None)
@given(data=_csv_files(), chunk=st.integers(1, 64))
# a NaN decoded well before a byte that is not UTF-8, at the real chunk size
@example(data=b"a,b\n0,nan\n" + b"1,2\n" * 4000 + b"\xff\n", chunk=cli._SCAN_CHARS)
# an upper-case long exponent in a body with no lower-case e
@example(data=b"a,b\n1,2\n1E+309,3\n", chunk=64)
# an underscored long exponent closing a body with no trailing newline
@example(data=b"a,b\n1,2\n3,1e_309", chunk=64)
def test_defect_scan_agrees_with_per_cell_loop(data, chunk):
    # small chunks so that bodies span several, cut at arbitrary line ends
    with tempfile.TemporaryDirectory() as run_dir:
        path = os.path.join(run_dir, "data.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        with mock.patch.object(cli, "_SCAN_CHARS", chunk):
            new = _scan_outcome(lambda: cli._assert_finite_outputs(run_dir, ["data.csv"]))
        assert new == _scan_outcome(lambda: reference_finite_scan(path, "data.csv"))


@pytest.mark.parametrize(
    "chunk",
    [
        "", "a", "ab\n", "\n\n", "1,2\n3,4\n5,6",
        "x" * (cli._LONG_LINE - 1) + "\n",
        "1\n" + "x" * cli._LONG_LINE + "\n2",
        "y\n" + "x" * (cli._LONG_LINE + 1),
    ],
    ids=["empty", "one-char", "trailing-newline", "newlines-only", "no-trailing-newline",
         "long-line-minus-one", "long-line", "long-line-plus-one"],
)
def test_longest_line_matches_split(chunk):
    assert cli._longest_line(chunk) == max(map(len, chunk.split("\n")))


def test_reduce_fail_exits_4_with_report(tmp_path):
    out = tmp_path / "runs"
    path = write_cfg(
        tmp_path, "r.cfg", REDUCE_BODY.format(dx=0.05, dp=0.1, out=out)
    )
    assert main(["run", path]) == 4
    run_dir = only_run_dir(out)
    report = json.loads(Path(os.path.join(run_dir, "reduction.json")).read_text())
    assert report["verdict"] == "FAIL"
    assert report["per_z0"][0]["pass_fraction"] < 0.95
    manifest = json.loads(Path(os.path.join(run_dir, "manifest.json")).read_text())
    assert manifest["results"]["exit_code"] == 4


def test_reduce_pass_exits_0(tmp_path):
    out = tmp_path / "runs"
    path = write_cfg(
        tmp_path, "r.cfg", REDUCE_BODY.format(dx=1.2, dp=3.5, out=out)
    )
    assert main(["run", path]) == 0
    run_dir = only_run_dir(out)
    report = json.loads(Path(os.path.join(run_dir, "reduction.json")).read_text())
    assert report["verdict"] == "PASS"
    assert report["per_z0"][0]["pass_fraction"] == 1.0


# ---------------------------------------------------------------- validate / report


def test_validate_ok_and_bad(tmp_path, capsys):
    good = write_cfg(tmp_path, "g.cfg", EVOLVE_BODY.format(out=tmp_path))
    assert main(["validate", good]) == 0
    assert "ok: kind=evolve seed=7" in capsys.readouterr().out
    bad = write_cfg(tmp_path, "b.cfg", "kind = evolve\nlamda = 1\n")
    assert main(["validate", bad]) == 2
    assert "lamda" in capsys.readouterr().err


def test_report_prints_manifest_summary(tmp_path, capsys):
    out = tmp_path / "runs"
    path = write_cfg(tmp_path, "e.cfg", EVOLVE_BODY.format(out=out))
    main(["run", path])
    run_dir = only_run_dir(out)
    capsys.readouterr()
    assert main(["report", run_dir]) == 0
    text = capsys.readouterr().out
    assert "kind:      evolve" in text
    assert "evolve.csv" in text
    assert "exit_code = 0" in text


def test_report_missing_manifest_exits_2(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2
    assert "no manifest" in capsys.readouterr().err


# ---------------------------------------------------------------- other kinds


def test_run_sieve_writes_curves(tmp_path):
    out = tmp_path / "runs"
    body = (
        "kind = sieve\nseed = 1\ngrid_n = 64\nx_min = -8\nx_max = 8\n"
        "potential = harmonic\nlambda = 0.2\nsigma_list = 0.6, 0.7071, 1.1\n"
        f"q0 = 0.5\np0 = 0\nhorizon = 0.5\ndt = 0.01\nout = {out}\n"
    )
    path = write_cfg(tmp_path, "sv.cfg", body)
    assert main(["run", path]) == 0
    run_dir = only_run_dir(out)
    lines = Path(os.path.join(run_dir, "sieve.csv")).read_text().splitlines()
    assert lines[0] == "sigma,t,s_lin"
    manifest = json.loads(Path(os.path.join(run_dir, "manifest.json")).read_text())
    assert manifest["results"]["argmin_width"] in (0.6, 0.7071, 1.1)


def test_run_ehrenfest_writes_residuals_and_horizon(tmp_path):
    out = tmp_path / "runs"
    body = (
        "kind = ehrenfest\nseed = 2\ngrid_n = 64\nx_min = -8\nx_max = 8\n"
        "potential = harmonic\nq0 = 1.0\np0 = 0\nsigma_x = 0.7071\n"
        "lambda = 0.1\ndt = 0.01\nn_steps = 30\ndelta_x = 1.5\ndelta_p = 1.5\n"
        f"out = {out}\n"
    )
    path = write_cfg(tmp_path, "eh.cfg", body)
    assert main(["run", path]) == 0
    run_dir = only_run_dir(out)
    names = sorted(os.listdir(run_dir))
    assert names == [
        "evolve.csv",
        "horizon.json",
        "manifest.json",
        "residual.csv",
        "widths.csv",
    ]
    horizon = json.loads(Path(os.path.join(run_dir, "horizon.json")).read_text())
    assert horizon["T"] == "inf"
    lines = Path(os.path.join(run_dir, "residual.csv")).read_text().splitlines()
    assert lines[0] == "t,raw,relative,newton_gap"


def test_cli_has_no_nan_leakage(tmp_path):
    # every emitted number must parse finite; scan payload artifacts
    # (the manifest embeds config paths, so free-text there is fine)
    out = tmp_path / "runs"
    path = write_cfg(tmp_path, "s.cfg", SAMPLE_BODY.format(out=out))
    main(["run", path])
    run_dir = only_run_dir(out)
    for name in os.listdir(run_dir):
        if name == "manifest.json":
            continue
        blob = Path(os.path.join(run_dir, name)).read_text()
        assert "nan" not in blob.lower()
        assert "infinity" not in blob.lower()
