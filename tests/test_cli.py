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
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_unitary, reference_write_csv

from branchfall import (
    BohmEnsemble,
    ExplicitModel,
    WaveFunction,
    bohm_evolve,
    bohm_snapshots,
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
from branchfall.errors import ExplosionGuard
from branchfall.qstate import PhasePoint
from branchfall.reduction import PointResult, ReductionReport


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


@pytest.mark.parametrize(
    "key, spoiled, at_cap",
    [
        pytest.param("total_time", "1e300", "204.8\node_dt = 0.05", id="snapshots"),
        pytest.param("ode_dt", "1e-300", "5e-5", id="ode_steps"),
    ],
)
def test_bohm_past_its_work_caps_exits_2_before_any_work(tmp_path, capsys, key, spoiled, at_cap):
    # each passed validate before: at total_time = 1e300 the snapshot loop
    # never ended, and at ode_dt = 1e-300 the run exited 2 only after its
    # run directory existed; 4096 snapshots, and 10^4 ODE steps, stay valid
    out = tmp_path / "runs"
    body = _SPOILED_BODIES["bohm"].replace("total_time = 0.5\n", "") + f"out = {out}\n"
    if key != "total_time":
        body += "total_time = 0.5\n"
    cfg = write_cfg(tmp_path, "c.cfg", body + f"{key} = {spoiled}\n")
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        err = capsys.readouterr().err
        assert f"bad value for key '{key}'" in err and "exceeds the cap" in err
    assert not out.exists()
    assert validate_config(parse_config(body + f"{key} = {at_cap}\n"))


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


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("grw", "hit_rate", "inf"),
        ("grw", "hit_rate", "-1"),
        ("grw", "hit_rate", "1e300"),
        ("grw", "r_c", "1e-300"),
        ("grw", "r_c", "0.49"),
        ("grw", "dt_int", "1e-300"),
        ("grw", "dt_int", "9.9e-7"),
        ("reduce", "epsilon", "2"),
        ("reduce", "epsilon", "0"),
        ("reduce", "n_traj", "50"),
        ("reduce", "delta_x", "-1"),
        ("reduce", "delta_p", "0"),
        ("reduce", "l_v", "-1"),
    ],
)
def test_grw_and_reduce_keys_outside_their_domain_exit_2(tmp_path, capsys, kind, key, value):
    # each passed validate before: an infinite hit_rate drew zero waits
    # without end, 1e300 expects more than the 1e4 hits validate allows over
    # total_time, an r_c below 2 dx (0.5 here) is a hit width the grid
    # cannot resolve (at 1e-300, r_c**2 = 0 made the hit probabilities NaN),
    # a dt_int below 1e-6 declares more than the 1e6 substeps validate
    # allows over total_time (1e-300 ran for minutes), and the others
    # failed only at run, after the run directory existed (reduce's in
    # ReductionSpec)
    out = tmp_path / "runs"
    lines = [ln for ln in _WIDE_BODIES[kind].splitlines() if not ln.startswith(f"{key} =")]
    body = "\n".join(lines + [f"{key} = {value}"]).format(out=out) + "\n"
    cfg = write_cfg(tmp_path, "d.cfg", body)
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        assert f"bad value for key '{key}'" in capsys.readouterr().err
    assert not out.exists()
    if key.startswith("delta") or key == "l_v":
        # an infinite tolerance on one axis, or no position cap, stays valid
        assert validate_config(parse_config(body.replace(f"{key} = {value}", f"{key} = inf")))
    if key in ("r_c", "dt_int"):
        # r_c = 2 dx on the 0.25 grid, and 5e5 declared substeps, stay valid
        bound = {"r_c": "0.5", "dt_int": "2e-6"}[key]
        assert validate_config(parse_config(body.replace(f"{key} = {value}", f"{key} = {bound}")))


_CONTRACT_BODIES = {
    "sample": SAMPLE_BODY,
    "ehrenfest": (
        "kind = ehrenfest\ngrid_n = 64\nx_min = -8\nx_max = 8\nq0 = 1.0\nsigma_x = 0.7071\n"
        "lambda = 0.1\nn_steps = 30\ndelta_x = 1.5\ndelta_p = 1.5\nout = {out}\n"
    ),
}


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("sample", "seed", "-1"),
        ("sample", "cells_x", "0"),
        ("sample", "cells_p", "-2"),
        ("sample", "window_x_hi", "-4"),
        ("sample", "window_p_hi", "-7"),
        ("ehrenfest", "delta_x", "-1"),
        ("ehrenfest", "delta_p", "0"),
        ("ehrenfest", "l_v", "-1"),
        ("ehrenfest", "l_v", "0"),
    ],
)
def test_keys_that_run_rejects_exit_2_at_validate(tmp_path, capsys, kind, key, value):
    # each passed validate before: a negative seed, too few cells and an
    # unordered window then exited 2 at run, after the run directory
    # existed, and ehrenfest ran to exit 0 with a horizon of T = 0 (an l_v
    # at or below zero caps every position width below it)
    out = tmp_path / "runs"
    lines = [ln for ln in _CONTRACT_BODIES[kind].splitlines() if not ln.startswith(f"{key} =")]
    body = "\n".join(lines + [f"{key} = {value}"]).format(out=out) + "\n"
    cfg = write_cfg(tmp_path, "c.cfg", body)
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        assert f"bad value for key '{key}'" in capsys.readouterr().err
    assert not out.exists()
    if kind == "ehrenfest":
        # an infinite margin or l_v leaves its bound open and stays valid
        assert validate_config(parse_config(body.replace(f"{key} = {value}", f"{key} = inf")))


_SIEVE_BODY = (
    "kind = sieve\nseed = 1\ngrid_n = 64\nx_min = -8\nx_max = 8\n"
    "lambda = 0.2\nsigma_list = 0.6, 0.7071, 1.1\nhorizon = 0.5\nout = {out}\n"
)


_RULE_BODIES = {
    "ehrenfest": _CONTRACT_BODIES["ehrenfest"],
    "reduce": REDUCE_BODY.replace("{dx}", "1.2").replace("{dp}", "3.5"),
    "explicit": EXPLICIT_BODY,
    "sample": SAMPLE_BODY,
    "sieve": _SIEVE_BODY,
}


def _with_keys(kind, keys, out):
    lines = [ln for ln in _RULE_BODIES[kind].splitlines() if ln.split(" =")[0] not in keys]
    return "\n".join(lines + [f"{k} = {v}" for k, v in keys.items()]).format(out=out) + "\n"


_THIRTEEN = ", ".join(["0.1"] * 13)


@pytest.mark.parametrize(
    "kind, keys, key, message",
    [
        ("ehrenfest", {"n_steps": "1"}, "n_steps", "at least 3 snapshots"),
        ("ehrenfest", {"n_steps": "4", "record_every": "4"}, "n_steps", "at least 3 snapshots"),
        ("ehrenfest", {"n_steps": "60", "record_every": "7"}, "n_steps", "uniform time grid"),
        ("reduce", {"tau_c": "0.5", "dt": "1.5"}, "tau_c", "at least one collapse interval"),
        ("reduce", {"tau_c": "1e300", "dt": "1e-300"}, "tau_c", "is not a count"),
        ("explicit", {"couplings": _THIRTEEN}, "couplings", "desk-scale cap of 12"),
        ("explicit", {"couplings": ", ".join(["0.1"] * 30)}, "couplings", "desk-scale cap of 12"),
        ("sample", {"cells_x": "40", "cells_p": "40"}, "cells_x", "below the floor of 1"),
        ("sample", {"cells_p": "600"}, "cells_p", "below the floor of 1"),
        ("explicit", {"env_energies": "0.5"}, "env_energies", "match the number of qubits"),
        ("explicit", {"env_energies": "0.5, inf"}, "env_energies", "env_energies must be finite"),
        ("explicit", {"couplings": "0.3, inf"}, "couplings", "couplings must be finite"),
        ("sieve", {"sigma_list": ","}, "sigma_list", "sigma_list must be nonempty"),
        ("reduce", {"tau_c": "1.5e6", "dt": "1.5"}, "tau_c", "exceeds the cap of 10000"),
        ("reduce", {"tau_c": "1e300", "dt": "1.5"}, "tau_c", "exceeds the cap of 10000"),
        ("reduce", {"tau_c": "15001.5", "dt": "1.5"}, "tau_c", "exceeds the cap of 10000"),
    ],
    ids=["one-step", "two-records", "uneven-records", "tau_c-below-dt", "tau_c-over-dt-overflows",
         "13-qubits", "30-qubits", "cell-volume", "cell-volume-on-p",
         "one-env-energy-for-two-qubits",
         "infinite-env-energy", "infinite-coupling", "empty-sigma_list",
         "1e6-collapse-intervals", "1e300-over-dt", "one-interval-over-the-cap"],
)
def test_builder_rules_exit_2_at_validate(tmp_path, capsys, kind, keys, key, message):
    # validate runs the rule the builder keeps (ehrenfest_residual's
    # snapshots, verify_reduction's collapse intervals, ExplicitModel's
    # qubits, PhasePartition's cell volume, predictability_sieve's widths);
    # each passed validate before and exited 2 at run after the run
    # directory existed (30 qubits exited 1 with a MemoryError, and
    # tau_c / dt = inf with an OverflowError; 1e6 collapse intervals were
    # still running at 10 s, and 1e300 / 1.5 exited 2 at run when the
    # classical orbit's arrays could not be allocated)
    out = tmp_path / "runs"
    cfg = write_cfg(tmp_path, "r.cfg", _with_keys(kind, keys, out))
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        err = capsys.readouterr().err
        assert f"bad value for key '{key}'" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, keys",
    [
        ("ehrenfest", {"n_steps": "2"}),
        ("ehrenfest", {"n_steps": "63", "record_every": "7"}),
        ("ehrenfest", {"n_steps": "21", "record_every": "7"}),
        ("ehrenfest", {"n_steps": "30000000000", "record_every": "3", "dt": "1e-6"}),
        ("reduce", {"tau_c": "1.5", "dt": "1.5"}),
        ("explicit", {"couplings": ", ".join(["0.1"] * 12)}),
        ("sample", {"cells_x": "8", "cells_p": "12"}),
        ("explicit", {"env_energies": "0.5, -0.25"}),
        ("reduce", {"tau_c": "15000", "dt": "1.5"}),
    ],
)
def test_configs_inside_the_builder_rules_still_validate(tmp_path, kind, keys):
    # three or more uniformly spaced records, a horizon of one interval or
    # of 10,000 (the cap), 12 qubits, cells of volume d_x * d_p = 1 exactly
    # and one finite env_energy per qubit are inside the rules; the 10^10
    # records of a huge step count are checked without listing them
    assert validate_config(parse_config(_with_keys(kind, keys, tmp_path)))


def test_qubit_cap_is_checked_before_the_joint_state_is_built():
    # 30 qubits at N = 64 would need 64 * 2^30 amplitudes (1 TiB)
    grid = make_grid(validate_config(parse_config(EXPLICIT_BODY.format(out="runs"))))
    psi = coherent_state(grid, 0.0, 0.0, 0.7071)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="desk-scale cap of 12"):
            ExplicitModel.from_wavefunction(psi, [0.1] * 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize(
    "body, key, value",
    [
        (EVOLVE_BODY, "sigma_x", "0.45"),
        (SAMPLE_BODY, "povm_sigma_x", "0.2"),
        (_SIEVE_BODY, "sigma_list", "0.6, 0.49, 1.1"),
    ],
    ids=["sigma_x", "povm_sigma_x", "sigma_list"],
)
def test_under_resolved_packet_width_exits_2_at_validate(tmp_path, capsys, body, key, value):
    # each passed validate before, then coherent_state or build_povm refused
    # the width below 2 dx (here 2 * 16 / 64 = 0.5) at run, after the run
    # directory existed
    out = tmp_path / "runs"
    lines = [ln for ln in body.splitlines() if not ln.startswith(f"{key} =")]
    cfg = write_cfg(tmp_path, "w.cfg", "\n".join(lines + [f"{key} = {value}"]).format(out=out) + "\n")
    assert validate_config(parse_config(body.format(out=out)))
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        assert f"bad value for key '{key}'" in capsys.readouterr().err
    assert not out.exists()
    # exactly 2 dx is resolved
    assert validate_config(parse_config("\n".join(lines + [f"{key} = 0.5"]).format(out=out)))


def one_key(body, key, value, out):
    """body with key set to value (dropping any line of key), out filled in."""
    lines = [ln for ln in body.splitlines() if not ln.startswith(f"{key} =")]
    return "\n".join(lines + [f"{key} = {value}"]).format(out=out) + "\n"


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("branch", "window_x_lo", "-9"),
        ("branch", "window_p_lo", "-13"),
        ("sample", "window_x_hi", "8.5"),
        ("sample", "window_p_hi", "13"),
        ("reduce", "window_x_lo", "-7.5"),
        ("reduce", "window_p_hi", "22"),
    ],
)
def test_partition_outside_the_grid_exits_2_at_validate(tmp_path, capsys, kind, key, value):
    # each passed validate before, then build_povm refused the x-window
    # outside the grid or the p-window beyond pi / dx (12.6 on the 64-point
    # +-8 grids, 21.5 on reduce's 96-point +-7 grid) at run, after the run
    # directory existed
    out = tmp_path / "runs"
    cfg = write_cfg(tmp_path, "p.cfg", one_key(_WIDE_BODIES[kind], key, value, out))
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        assert f"bad value for key '{key}'" in capsys.readouterr().err
    assert not out.exists()
    # a window on the grid's edge, or at +-pi / dx, stays valid
    grid = make_grid(validate_config(parse_config(_WIDE_BODIES[kind].format(out=out))))
    edge = {"x_lo": grid.x_min, "x_hi": grid.x_max, "p_lo": -grid.p_max, "p_hi": grid.p_max}
    assert validate_config(parse_config(one_key(_WIDE_BODIES[kind], key, edge[key[7:]], out)))


# a valid body of every kind
_KIND_BODIES = {
    "evolve": EVOLVE_BODY,
    "sieve": _SIEVE_BODY,
    "branch": _WIDE_BODIES["branch"],
    "sample": SAMPLE_BODY,
    "explicit": _SPOILED_BODIES["explicit"] + "n_steps = 3\nout = {out}\n",
    "grw": _WIDE_BODIES["grw"],
    "bohm": _SPOILED_BODIES["bohm"] + "out = {out}\n",
    "ehrenfest": _CONTRACT_BODIES["ehrenfest"],
    "reduce": _WIDE_BODIES["reduce"],
}


@pytest.mark.parametrize("kind", sorted(_KIND_BODIES))
def test_potential_not_finite_on_the_grid_exits_2_at_validate(tmp_path, capsys, kind):
    # at omega = 1e155 the harmonic V = M omega^2 x^2 / 2 overflows to inf;
    # each kind passed validate before and failed only in its run, after
    # the run directory existed: evolve and sieve on a factored grid
    # (N >= 256) with an IndexError in the dephasing (exit 1), explicit with
    # "joint state not normalized: nan" and grw with "Probabilities contain
    # NaN" (exit 2), the others at a guard (exit 3)
    out = tmp_path / "runs"
    cfg = write_cfg(tmp_path, "v.cfg", one_key(_KIND_BODIES[kind], "omega", "1e155", out))
    for command in ("validate", "run"):
        assert main([command, cfg]) == 2
        assert "bad value for key 'potential'" in capsys.readouterr().err
    assert not out.exists()
    # omega = 1e150 keeps V and V' finite (below 1e302) on every grid here
    assert validate_config(parse_config(one_key(_KIND_BODIES[kind], "omega", "1e150", out)))


def test_double_well_not_finite_on_the_grid_exits_2_at_validate(tmp_path, capsys):
    # V = a (x^2 - b^2)^2 overflows at b = 1e100; the run then raised
    # IndexError in the factored dephasing of the 256-point grid
    body = EVOLVE_BODY.replace("grid_n = 64", "grid_n = 256").replace(
        "potential = harmonic", "potential = double_well"
    )
    out = tmp_path / "runs"
    cfg = write_cfg(tmp_path, "d.cfg", one_key(body, "half_separation", "1e100", out))
    assert main(["run", cfg]) == 2
    assert "double_well potential or its slope is not finite" in capsys.readouterr().err
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


def _recording(writer, written):
    def record(path, *args):
        written.append(os.path.basename(path))
        return writer(path, *args)

    return record


@pytest.mark.parametrize(
    "body",
    [
        EVOLVE_BODY,
        SAMPLE_BODY,
        REDUCE_BODY.replace("{dx}", "1.2").replace("{dp}", "3.5"),
        EXPLICIT_BODY,
        "kind = bohm\ngrid_n = 64\nx_min = -8\nx_max = 8\nq0 = 1.0\nsigma_x = 0.7071\n"
        "total_time = 0.2\nn_traj = 20\nout = {out}\n",
    ],
    ids=["evolve", "sample", "reduce", "explicit", "bohm"],
)
def test_every_payload_goes_through_a_writer(tmp_path, monkeypatch, body):
    # the writers hold the finite-output rule, so every file a run leaves
    # must have come from one; the manifest goes through its tmp file, and
    # its digests, taken as the writers wrote, are those of the files
    written = []
    for name in ("_write_csv", "_write_json"):
        monkeypatch.setattr(cli, name, _recording(getattr(cli, name), written))
    out = tmp_path / "runs"
    assert main(["run", write_cfg(tmp_path, "w.cfg", body.format(out=out))]) == 0
    run_dir = only_run_dir(out)
    manifest = json.loads(Path(run_dir, "manifest.json").read_text())
    payloads = sorted(set(written) - {"manifest.json.tmp"})
    assert payloads and [e["name"] for e in manifest["files"]] == payloads
    assert sorted(os.listdir(run_dir)) == sorted(payloads + ["manifest.json"])
    assert written.count("manifest.json.tmp") == 1 and len(written) == len(payloads) + 1
    for entry in manifest["files"]:
        blob = Path(run_dir, entry["name"]).read_bytes()
        assert entry["bytes"] == len(blob) and entry["sha256"] == hashlib.sha256(blob).hexdigest()
    assert cli._WRITTEN == {}


def test_a_file_no_writer_made_stops_the_manifest(tmp_path, monkeypatch):
    # the manifest takes its digests from the writers, so a file that did
    # not come through one cannot be listed
    def runner(cfg, run_dir):
        Path(run_dir, "stray.csv").write_text("t\n0\n")
        return {}, cli.EXIT_OK

    monkeypatch.setitem(cli._RUNNERS, "evolve", runner)
    path = write_cfg(tmp_path, "e.cfg", EVOLVE_BODY.format(out=tmp_path / "runs"))
    with pytest.raises(RuntimeError, match="stray.csv"):
        main(["run", path])
    assert cli._WRITTEN == {}
    assert os.listdir(only_run_dir(tmp_path / "runs")) == ["stray.csv"]


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


def _nan_through_csv_cell(cfg, run_dir):
    # a column mixing text and floats goes cell by cell through _cell
    cli._write_csv(os.path.join(run_dir, "branches.csv"), {"history": ["0/1", float("nan")]})
    return {}, cli.EXIT_OK


def _nan_through_json_writer(cfg, run_dir):
    cli._write_json(os.path.join(run_dir, "horizon.json"), {"T": float("nan")}, cli._INDENTED)
    return {}, cli.EXIT_OK


def _nan_in_reduction_report(cfg, run_dir):
    # the reduce runner, handed a report whose worst deviation is NaN
    reduce_cfg = validate_config(parse_config(REDUCE_BODY.format(dx=1.5, dp=1.5, out=cfg["out"])))
    point = PointResult(PhasePoint(1.5, 0.0), 1.0, float("nan"), (), 0)
    report = ReductionReport("0" * 64, (point,), "PASS", math.inf, reduce_cfg["seed"])
    with mock.patch.object(cli, "verify_reduction", lambda spec, seed: report):
        return cli._run_reduce(reduce_cfg, run_dir)


def _nan_in_results(cfg, run_dir):
    return {"horizon": {"T": float("nan")}}, cli.EXIT_OK


@pytest.mark.parametrize(
    "runner",
    [
        _nan_through_csv_writer,
        _nan_through_csv_cell,
        _nan_through_json_writer,
        _nan_in_reduction_report,
        _nan_in_results,
    ],
)
def test_non_finite_output_exits_3(tmp_path, capsys, monkeypatch, runner):
    # refused by the CSV column or cell check or the JSON formatter before
    # the payload's file is opened, or while the manifest's results are
    # formatted: the run directory stays empty, with no payload file, no
    # manifest and no manifest tmp file
    monkeypatch.setitem(cli._RUNNERS, "evolve", runner)
    path = write_cfg(tmp_path, "e.cfg", EVOLVE_BODY.format(out=tmp_path / "runs"))
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert "numerical abort" in err and "non-finite" in err
    assert os.listdir(only_run_dir(tmp_path / "runs")) == []


# ---------------------------------------------------------------- CSV writer

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


def _indexed_cells(n_rows):
    """The bohm.csv layout as Indexed columns: 161 times tiled and the
    trajectory ids repeated, across block edges, beside indexed signed
    zeros, values below 1e-4 that %.17g writes in scientific notation,
    integers, bools and text."""
    n_times = 161
    n_traj = -(-n_rows // n_times)
    rng = np.random.default_rng(3)
    return {
        "traj_id": cli.Indexed(np.arange(n_traj), np.repeat(np.arange(n_traj), n_times)[:n_rows]),
        "t": cli.Indexed(np.arange(n_times) * 0.0125, np.tile(np.arange(n_times), n_traj)[:n_rows]),
        "z": cli.Indexed(np.array([-0.0, 0.0, 5e-5, -3e-300, 1e17, 0.1]), rng.integers(0, 6, n_rows)),
        "n": cli.Indexed(np.array([0, -7, 2**62, 12]), rng.integers(0, 4, n_rows, dtype=np.uint16)),
        "flag": cli.Indexed(np.array([True, False]), rng.integers(0, 2, n_rows)),
        "h": cli.Indexed(["0/1", "", "a b"], rng.integers(0, 3, n_rows)),
        "x": rng.normal(size=n_rows),
    }


def _expanded(column):
    """A column's cell values row by row, as the per-cell writer reads them."""
    if isinstance(column, cli.Indexed):
        return [column.values[i] for i in column.index]
    return column


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
        # numpy reads this list as text; its cells keep their own types
        {"h": ["0/1", 0.1, 3, True, -0.0], "n": [1, 2, 3, 4, 5]},
        _indexed_cells(2 * cli._BLOCK_ROWS + 3),
        # an index may leave values unused, and the values may be a list
        {"t": cli.Indexed([0.5, 2.0, 1e-7], np.array([2, 2, 0])), "x": [1.0, 2.0, 3.0]},
        {"t": cli.Indexed(np.array([0.5, 1.0]), np.empty(0, int)), "x": np.empty(0)},
    ],
    ids=["typed-arrays", "python-lists", "header-only", "several-blocks", "repeated-cells",
         "mixed-list", "indexed-blocks", "indexed-list", "indexed-no-rows"],
)
def test_columnar_writer_matches_per_cell_writer(tmp_path, columns):
    cli._write_csv(str(tmp_path / "new.csv"), columns)
    rows = zip(*(_expanded(c) for c in columns.values()))
    reference_write_csv(str(tmp_path / "ref.csv"), list(columns), rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "column, error",
    [
        (cli.Indexed(np.array([1.0, 2.0]), np.array([0, -1, 1])), "outside 0 ... 1"),
        (cli.Indexed(np.array([1.0, 2.0]), np.array([0, 2])), "outside 0 ... 1"),
        (cli.Indexed(np.empty(0), np.array([0])), r"outside 0 ... -1"),
        (cli.Indexed(np.array([1.0, 2.0]), np.array([0.0, 1.0])), "1-D integer"),
        (cli.Indexed(np.array([1.0, 2.0]), np.array([True, False])), "1-D integer"),
        (cli.Indexed(np.array([1.0, 2.0]), np.array([[0, 1]])), "1-D integer"),
        (cli.Indexed(np.array([1.0, 2.0]), np.array([0, 1, 1, 0])), "equal length"),
        (cli.Indexed(np.array([1.0, np.inf]), np.array([0, 0])), "non-finite"),
        (cli.Indexed(["a", "b\0"], np.array([0, 0])), "NUL"),
    ],
    ids=["negative", "past-the-end", "no-values", "float-index", "bool-index", "2-d-index",
         "row-count", "unused-inf", "nul"],
)
def test_indexed_column_is_checked_before_the_file_opens(tmp_path, column, error):
    # a negative index would wrap silently, and even an unused value must be finite
    path = tmp_path / "bad.csv"
    with pytest.raises((ValueError, ExplosionGuard), match=error):
        cli._write_csv(str(path), {"c": column, "x": [1.0, 2.0, 3.0]})
    assert not path.exists()


def test_bohm_csv_is_the_columns_of_the_run(tmp_path):
    # the wave_output bohm shape: the indexed columns of the run write the
    # bytes of as_columns() written row by row
    out = tmp_path / "runs"
    body = (
        "kind = bohm\nseed = 11\ngrid_n = 192\nx_min = -12\nx_max = 12\nq0 = 1.0\n"
        "sigma_x = 0.7071\ntotal_time = 2.0\ndt = 0.05\node_dt = 0.0125\nn_traj = 500\n"
        f"out = {out}\n"
    )
    path = write_cfg(tmp_path, "b.cfg", body)
    cfg = load_config(path)
    assert main(["run", path]) == 0
    got = Path(only_run_dir(out), "bohm.csv").read_bytes()
    snapshots, times = bohm_snapshots(
        coherent_state(make_grid(cfg), cfg["q0"], cfg["p0"], cfg["sigma_x"]),
        make_potential(cfg), cfg["total_time"], cfg["dt"],
    )
    assert len(snapshots) == 41 and np.array_equal(times, np.arange(41) * cfg["dt"])
    run = bohm_evolve(
        BohmEnsemble.from_state(snapshots[0], cfg["n_traj"], cfg["seed"]),
        snapshots, times, cfg["ode_dt"],
    )
    cli._write_csv(str(tmp_path / "columns.csv"), run.as_columns())
    assert got == (tmp_path / "columns.csv").read_bytes()
    assert len(got.splitlines()) == 1 + 500 * 161


def _g17_cells(values):
    """The cells of cli._format_g17 as text, each free of inner NULs."""
    rows = [bytes(row).rstrip(b"\0") for row in cli._format_g17(values)]
    assert all(b"\0" not in row for row in rows)
    return [row.decode("ascii") for row in rows]


def _adversarial_doubles():
    """Edges of %.17g's fixed notation, exponent guesses and rounding."""
    out = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308]
    for edge in (1e-5, 1e-4):
        out += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    for k in range(-5, 18):
        ten_k = float(f"1e{k}")
        out += [ten_k, math.nextafter(ten_k, 0.0), math.nextafter(ten_k, math.inf)]
    # 17-digit ties (exact halves of the 17th digit) and their neighbours
    for tie in (123456789012345.125, 562949953421312.125, 1125899906842624.25,
                1234567890123456.25, 1234567890123456.75):
        out += [tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)]
    out += [2.0**53 - 2, 2.0**53, 2.0**53 + 2, 99999999999999984.0, 1.7976931348623157e308]
    out += np.array([0.1, 3.4e38, 1e-40, 16777217.0, -2.5e-5], dtype=np.float32).tolist()
    return out + [-v for v in out]


def test_vectorised_g17_matches_percent_on_adversarial_doubles():
    values = _adversarial_doubles()
    assert _g17_cells(np.array(values)) == ["%.17g" % v for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_vectorised_g17_matches_percent_on_any_double(values):
    assert _g17_cells(np.array(values)) == ["%.17g" % v for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=64))
def test_vectorised_g17_matches_percent_on_any_float32(values):
    single = np.array(values, dtype=np.float32)
    assert _g17_cells(single) == ["%.17g" % float(v) for v in single]


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
