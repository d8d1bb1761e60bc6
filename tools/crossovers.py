"""Stepper crossovers of branchfall.dynamics, timed on the host it runs on.

    python3 tools/crossovers.py            # full tables, 3 repeats
    python3 tools/crossovers.py --quick    # a few sizes, one repeat

Prints two tables, with one BLAS thread (pinned before numpy is imported):

GRW free flight: per grid size N and declared substeps S, the CPU time of
`grw_evolve` with every segment leapt by powers of the step
(`_SplitStep.leap`) over the time with every segment stepped
(`_SplitStep.run`), medians over seeds 1 ... repeats run in alternating
order.  The run is the wave-output template: a packet at q0 = 1 of width
0.7071 in the unit harmonic well on [-12, 12], hit_rate 2, r_c 0.5,
dt_int 0.01 and total_time S dt_int.  A cell marked `*` is one where
`dynamics._leap_path` leaps; `_LEAP_N3_PER_STEP` and `_LEAP_MAX_N` are
read from this table.

Density step: per N, the time of one `Propagator.step_elements` on the
dense path (the Strang unitary as a matrix) and on the packed-FFT path,
medians over chained steps of a pure packet (lambda 0.2, dt 0.01), and
whether `dynamics._fft_path` picks the FFT; `_FFT_MIN_N` is read from it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import platform
import statistics
import sys
import time
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from branchfall import GRWParams, GridSpec, coherent_state, grw_evolve, harmonic_potential  # noqa: E402
from branchfall import dynamics, mechanisms  # noqa: E402
from branchfall.dynamics import Propagator, _pack_kernel  # noqa: E402

GRW_N = (96, 128, 160, 192, 240, 256, 384, 512)
GRW_S = tuple(2**k for k in range(4, 13))
DENSITY_N = (96, 128, 160, 192, 240, 256, 384, 512)
DT_INT = 0.01


def _packet(n: int):
    grid = GridSpec(n, -12.0, 12.0, 1.0)
    return grid, coherent_state(grid, 1.0, 0.0, 0.7071), harmonic_potential(1.0, 1.0)


def grw_seconds(n: int, steps: int, seed: int, leap: bool) -> float:
    """CPU seconds of one grw_evolve with every segment leapt or stepped."""
    _, psi, pot = _packet(n)
    with mock.patch.object(mechanisms, "_leap_path", lambda *_: leap):
        start = time.process_time()
        grw_evolve(psi, pot, GRWParams(2.0, 0.5), steps * DT_INT, seed, DT_INT)
        return time.process_time() - start


def grw_table(sizes, counts, repeats: int) -> None:
    print("GRW free flight: leap / stepping CPU time (* where _leap_path leaps)")
    print(f"{'N':>5} " + " ".join(f"{s:>7}" for s in counts))
    for n in sizes:
        cells = []
        for steps in counts:
            leap, step = [], []
            for seed in range(1, repeats + 1):
                pair = [(leap, True), (step, False)]
                for times, mode in pair if seed % 2 else pair[::-1]:
                    times.append(grw_seconds(n, steps, seed, mode))
            ratio = statistics.median(leap) / statistics.median(step)
            mark = "*" if dynamics._leap_path(n, steps) else " "
            cells.append(f"{ratio:6.2f}{mark}")
        print(f"{n:>5} " + " ".join(cells), flush=True)


def density_ms(prop: Propagator, packed: np.ndarray, n_steps: int) -> float:
    """Median milliseconds of one step_elements over n_steps chained steps."""
    times = []
    for _ in range(n_steps):
        start = time.process_time()
        packed = prop.step_elements(packed)
        times.append(time.process_time() - start)
    return 1e3 * statistics.median(times)


def density_table(sizes, n_steps: int) -> None:
    print("Density step: dense against packed-FFT step_elements (ms)")
    print(f"{'N':>5} {'dense':>8} {'fft':>8} {'fft/dense':>9}  _fft_path")
    for n in sizes:
        grid, psi, pot = _packet(n)
        packed = _pack_kernel(psi.to_density().elements)
        prop = Propagator(grid, pot, 0.2, 0.01)
        prop.u, prop.u_dag = prop.core.dense, prop.core.dense.conj().T
        dense = density_ms(prop, packed, n_steps)
        prop.u = prop.u_dag = None
        fft = density_ms(prop, packed, n_steps)
        print(f"{n:>5} {dense:8.2f} {fft:8.2f} {fft / dense:9.2f}  {dynamics._fft_path(n)}",
              flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="a few sizes and one repeat, to check the script runs")
    args = parser.parse_args(argv)
    print(f"numpy {np.__version__}, {platform.machine()}, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    if args.quick:
        grw_table((96, 192), (16, 1024), repeats=1)
        density_table((96, 256), n_steps=3)
    else:
        grw_table(GRW_N, GRW_S, repeats=3)
        density_table(DENSITY_N, n_steps=40)
    return 0


if __name__ == "__main__":
    sys.exit(main())
