"""Per-layer metrics from the spans of traced rounds (see tracing.py).

Times are medians per call over every traced round, ``self`` is a span's
time minus the time of its child spans, counts are medians of per-round
call counts, and ``per_step`` divides a round's calls by its committed
steps (flow_engine.step calls).  A layer that a workload never calls
reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

D = ("grid_calculus.d.k1", "grid_calculus.d.k2")

IDENTITIES = ("epsilon-contraction-determinant", "volume-cube-root-relation",
              "dual-gram-inverse", "triple-self-duality", "t3-star-1forms",
              "t3-star-2forms", "star7-dual-lift", "g2-metric-blocks",
              "torsion-trace-vanishing")

# metric: (kind, spans).  Which metrics are printed, and their units, is
# decided by the per_layer list of BENCHMARK.json.
METRICS = {
    "flow_engine.step.ms": ("ms", ("flow_engine.step",)),
    "flow_engine.step.count": ("count", ("flow_engine.step",)),
    "flow_engine.steps_per_s": ("rate", ("flow_engine.step",)),
    "flow_engine.evaluate_rhs.ms": ("ms", ("flow_engine.evaluate_rhs",)),
    "flow_engine.evaluate_rhs.self_ms": ("self_ms", ("flow_engine.evaluate_rhs",)),
    "flow_engine.evaluate_rhs.per_step": ("per_step", ("flow_engine.evaluate_rhs",)),
    "flow_engine.stable_dt.ms": ("ms", ("flow_engine.stable_dt",)),
    "flow_engine.stable_dt.per_step": ("per_step", ("flow_engine.stable_dt",)),
    "flow_engine.diagnostics.ms": ("ms", ("flow_engine.diagnostics",)),
    "flow_engine.diagnostics.self_ms": ("self_ms", ("flow_engine.diagnostics",)),
    "flow_engine.diagnostics.count": ("count", ("flow_engine.diagnostics",)),
    "flow_engine.init_state.ms": ("ms", ("flow_engine.init_state",)),
    "initial_data.generate_initial.ms": ("ms", ("initial_data.generate_initial",)),
    "config.load.ms": ("ms", ("config.load",)),
    "grid_calculus.normalize.ms": ("ms", ("grid_calculus.normalize",)),
    "grid_calculus.normalize.self_ms": ("self_ms", ("grid_calculus.normalize",)),
    "grid_calculus.normalize.per_step": ("per_step", ("grid_calculus.normalize",)),
    "grid_calculus.d.ms": ("ms", D),
    "grid_calculus.d.k1.ms": ("ms", D[:1]),
    "grid_calculus.d.k2.ms": ("ms", D[1:]),
    "grid_calculus.d.per_step": ("per_step", D),
    "grid_calculus.codiff2.self_ms": ("self_ms", ("grid_calculus.codiff2",)),
    "grid_calculus.periods.ms": ("ms", ("grid_calculus.TripleField.periods",)),
    "grid_calculus.max_dabs.ms": ("ms", ("grid_calculus.TripleField.max_dabs",)),
    **{f"triple_algebra.{fn}.ms": ("ms", (f"triple_algebra.{fn}",))
       for fn in ("metric_density", "gram", "adj3", "star2", "star3")},
    **{f"triple_algebra.{fn}.us": ("us", (f"triple_algebra.{fn}",))
       for fn in ("metric_from_triple", "normalize", "hodge2", "dual_triple")},
    **{f"fiber_g2.{fn}.us": ("us", (f"fiber_g2.{fn}",))
       for fn in ("build_phi", "build_psi", "metric_from_phi", "hodge7", "torsion_trace",
                  "assemble_dphi")},
    "verify.run_suite.ms": ("ms", ("verify.run_suite",)),
    **{f"verify.{name}.ms": ("ms", (f"verify.{name}",)) for name in IDENTITIES},
    "cli.lift.ms": ("ms", ("cli.cmd_lift",)),
    "cli.cmd_flow.self_ms": ("self_ms", ("cli.cmd_flow",)),
    "snapshot.write_snapshot.ms": ("ms", ("snapshot.write_snapshot",)),
    "snapshot.write_snapshot.mb": ("mb", ("snapshot.write_snapshot",)),
    "snapshot.read_snapshot.ms": ("ms", ("snapshot.read_snapshot",)),
}

# the traced run's own time to solution, which run_bench.py fills in; its
# excess over the untraced run_s is the tracing overhead
TRACED_RUN_S = "traced.run_s"


def _load(path):
    """Per span name: (durations, self times, notes) of one round."""
    z = np.load(path)
    dur = z["end"] - z["start"]
    parent = z["parent"]
    inner = parent >= 0
    self_time = dur - np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
    return {str(label): (dur[z["name"] == k], self_time[z["name"] == k], z["note"][z["name"] == k])
            for k, label in enumerate(z["labels"])}


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(span_files, metrics) -> dict:
    """{metric: value} for each of ``metrics`` in METRICS, pooled over the rounds."""
    rounds = [_load(p) for p in span_files]
    empty = (np.zeros(0),) * 3

    def pooled(names, part):
        return np.concatenate([r.get(n, empty)[part] for r in rounds for n in names])

    def calls(r, names):
        return sum(len(r.get(n, empty)[0]) for n in names)

    def per_round(fn):
        return statistics.median(fn(r) for r in rounds)

    def steps(r):
        return calls(r, ("flow_engine.step",))

    kinds = {
        "ms": lambda names: 1e3 * _median(pooled(names, 0)),
        "us": lambda names: 1e6 * _median(pooled(names, 0)),
        "self_ms": lambda names: 1e3 * _median(pooled(names, 1)),
        "mb": lambda names: 1e-6 * _median(pooled(names, 2)),
        "count": lambda names: per_round(lambda r: calls(r, names)),
        "per_step": lambda names: per_round(
            lambda r: calls(r, names) / steps(r) if steps(r) else 0.0),
        "rate": lambda names: per_round(
            lambda r: calls(r, names) / float(r[names[0]][0].sum()) if calls(r, names) else 0.0),
    }
    return {m: kinds[METRICS[m][0]](METRICS[m][1]) for m in metrics}
