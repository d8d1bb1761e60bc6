"""Per-layer metrics from one traced batch: span aggregates plus counters.

Layers are branchfall's modules.  Span names come from spans.Tracer
(`<module>.<qualname>`); this module names the metrics users of the
benchmark see and says how each is computed.
"""

from __future__ import annotations

import statistics

from spans import ROOT, self_times

STEP = "dynamics.Propagator.step_elements"
STEP_SIZES = (96, 128, 256, 512)

# metric name -> unit, in the order the benchmark prints them
UNITS = {
    "dynamics.step_elements.calls": "count",
    "dynamics.step_elements.s": "s",
    **{f"dynamics.step_elements.us_per_call.n{n}": "us" for n in STEP_SIZES},
    "dynamics.propagator_build.calls": "count",
    "dynamics.propagator_build.s": "s",
    "dynamics.evolve.self_s": "s",
    "dynamics.unitary_step.calls": "count",
    "dynamics.unitary_step.s": "s",
    "branching.sample_trajectory.self_s": "s",
    "branching.branch_step.self_s": "s",
    "branching.intervals_evolved": "count",
    "branching.distinct_histories": "count",
    "branching.useful_interval_ratio": "ratio",
    "branching.evolve_explicit.s": "s",
    "pointer.build_povm.calls": "count",
    "pointer.build_povm.s": "s",
    "pointer.operator_bytes": "bytes",
    "pointer.project.calls": "count",
    "pointer.project.s": "s",
    "pointer.predictability_sieve.s": "s",
    "qstate.coherent_state.s": "s",
    "qstate.mean_phase_point.calls": "count",
    "qstate.mean_phase_point.s": "s",
    "mechanisms.grw_evolve.s": "s",
    "mechanisms.bohm_evolve.s": "s",
    "ehrenfest.ehrenfest_residual.s": "s",
    "ehrenfest.classicality_horizon.s": "s",
    "reduction.verify_reduction.self_s": "s",
    "reduction.classical_evolve.s": "s",
    "reduction.horizon_evolve.s": "s",
    "config.load_config.s": "s",
    "cli.self_s": "s",
    "cli.payload_bytes": "bytes",
    "cli.payload_digest_matches": "count",
    "trace.overhead_s": "s",
}

# metric -> (span name, statistic) for the plain span aggregates
_SPAN_METRICS = {
    "dynamics.step_elements.calls": (STEP, "calls"),
    "dynamics.step_elements.s": (STEP, "s"),
    "dynamics.propagator_build.calls": ("dynamics.Propagator.__init__", "calls"),
    "dynamics.propagator_build.s": ("dynamics.Propagator.__init__", "s"),
    "dynamics.evolve.self_s": ("dynamics.evolve", "self_s"),
    "dynamics.unitary_step.calls": ("dynamics.unitary_step", "calls"),
    "dynamics.unitary_step.s": ("dynamics.unitary_step", "s"),
    "branching.sample_trajectory.self_s": ("branching.sample_trajectory", "self_s"),
    "branching.branch_step.self_s": ("branching.branch_step", "self_s"),
    "branching.evolve_explicit.s": ("branching.evolve_explicit", "s"),
    "pointer.build_povm.calls": ("pointer.build_povm", "calls"),
    "pointer.build_povm.s": ("pointer.build_povm", "s"),
    "pointer.project.calls": ("pointer.POVMSet.project", "calls"),
    "pointer.project.s": ("pointer.POVMSet.project", "s"),
    "pointer.predictability_sieve.s": ("pointer.predictability_sieve", "s"),
    "qstate.coherent_state.s": ("qstate.coherent_state", "s"),
    "qstate.mean_phase_point.calls": ("qstate.mean_phase_point", "calls"),
    "qstate.mean_phase_point.s": ("qstate.mean_phase_point", "s"),
    "mechanisms.grw_evolve.s": ("mechanisms.grw_evolve", "s"),
    "mechanisms.bohm_evolve.s": ("mechanisms.bohm_evolve", "s"),
    "ehrenfest.ehrenfest_residual.s": ("ehrenfest.ehrenfest_residual", "s"),
    "ehrenfest.classicality_horizon.s": ("ehrenfest.classicality_horizon", "s"),
    "reduction.verify_reduction.self_s": ("reduction.verify_reduction", "self_s"),
    "reduction.classical_evolve.s": ("reduction.classical_evolve", "s"),
    "config.load_config.s": ("config.load_config", "s"),
    "cli.self_s": ("cli.main", "self_s"),
}


class Counters:
    """Work counters gathered by tracer hooks during one traced batch.

    Sampler intervals: every interval a `sample_trajectory` call evolves,
    keyed by the collapse history before it.  Two trajectories from the
    same initial state with the same history prefix evolve the same
    interval, so distinct keys are the intervals a history-reusing sampler
    would still have to evolve.
    """

    def __init__(self):
        self.run_index = 0
        self.intervals_evolved = 0
        self.histories: set = set()
        self.operator_bytes = 0  # largest POVM footprint of any one run
        self._povms: list = []

    def begin_run(self, index: int) -> None:
        self.run_index = index
        self._povms = []

    def end_run(self) -> None:
        total = 0
        for povm in self._povms:
            arrays = [povm.operators, povm.rest]
            # lazily built squares count once they exist
            arrays += [povm.__dict__[k] for k in ("squares", "_rest_square") if k in povm.__dict__]
            total += sum(a.nbytes for a in arrays)
        self.operator_bytes = max(self.operator_bytes, total)
        self._povms = []

    def _observe_sampler(self, args, result, error) -> None:
        if result is not None:
            records = result[0]
            n_evolved = len(records) - 1
        elif hasattr(error, "records"):
            records = error.records
            n_evolved = len(records)  # the interval that drew the escape
        else:
            return
        alphas = tuple(r[1] for r in records[1:])
        group = (self.run_index, id(args[0]))
        self.intervals_evolved += n_evolved
        for j in range(n_evolved):
            self.histories.add((group, alphas[:j]))

    def _observe_povm(self, args, result, error) -> None:
        if result is not None:
            self._povms.append(result)

    def hooks(self) -> dict:
        return {
            STEP: (lambda args: args[1].shape[0], None),
            "branching.sample_trajectory": (None, self._observe_sampler),
            "pointer.build_povm": (None, self._observe_povm),
        }


def batch_metrics(spans, counters: Counters, payload_bytes: int, digest_matches: int) -> dict:
    """Per-layer metrics of one traced batch (everything but trace.overhead_s)."""
    own = self_times(spans)
    parents = {sid: (parent, name) for sid, parent, name, *_ in spans}
    stats: dict[str, dict] = {}
    step_by_n: dict[int, list] = {}
    horizon_s = 0.0
    for sid, parent, name, start, end, tag in spans:
        s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["s"] += end - start
        s["self_s"] += own[sid]
        if name == STEP:
            acc = step_by_n.setdefault(tag, [0, 0.0])
            acc[0] += 1
            acc[1] += end - start
        if name == "dynamics.evolve" and _has_ancestor(parents, parent, "reduction.verify_reduction"):
            horizon_s += end - start
    out = {}
    for metric, (name, stat) in _SPAN_METRICS.items():
        out[metric] = stats.get(name, {}).get(stat, 0)
    for n in STEP_SIZES:
        calls, total = step_by_n.get(n, (0, 0.0))
        out[f"dynamics.step_elements.us_per_call.n{n}"] = 1e6 * total / calls if calls else 0.0
    distinct = len(counters.histories)
    evolved = counters.intervals_evolved
    out["branching.intervals_evolved"] = evolved
    out["branching.distinct_histories"] = distinct
    out["branching.useful_interval_ratio"] = distinct / evolved if evolved else 1.0
    out["pointer.operator_bytes"] = counters.operator_bytes
    out["reduction.horizon_evolve.s"] = horizon_s
    out["cli.payload_bytes"] = payload_bytes
    out["cli.payload_digest_matches"] = digest_matches
    return out


def _has_ancestor(parents, sid, name) -> bool:
    while sid != ROOT and sid in parents:
        sid, current = parents[sid]
        if current == name:
            return True
    return False


def combine(per_batch: list[dict], overhead_s: float) -> dict:
    """Median of each metric over the traced batches, plus trace overhead."""
    out = {m: statistics.median(b[m] for b in per_batch) for m in UNITS if m != "trace.overhead_s"}
    out["trace.overhead_s"] = overhead_s
    return out
