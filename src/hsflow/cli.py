"""Command-line surface: verify / flow / lift / report.

Exit codes: 0 success, 1 validation or verification failure, 2 numerical
abort (positivity degeneration), 3 I/O failure.

HSF_WORKERS is the number of threads ``hsflow flow`` computes with; it
defaults to the CPUs this process may run on and is recorded in artifacts.
The flow, not its initial data, runs in
``grid_calculus.slab_threads(HSF_WORKERS)``: a lattice of two or more
slabs of ``grid_calculus.SLAB_POINTS`` points hands the pieces and
derivative items of its right-hand side and guarded normalization to up to
HSF_WORKERS threads; a smaller one runs on one thread.  Results are
bit-identical at any value.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import flow_engine as fe
from . import grid_calculus as gc
from . import initial_data
from . import snapshot as snap
from . import triple_algebra as ta
from . import verify as verify_mod
from .errors import NotPositive, StepRejected, ValidationError

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_IO = 0, 1, 2, 3


def _workers() -> int:
    """HSF_WORKERS, or the number of CPUs this process may run on."""
    try:
        w = int(os.environ.get("HSF_WORKERS", len(os.sched_getaffinity(0))))
    except ValueError:
        raise ValidationError("HSF_WORKERS must be an integer")
    if w < 1:
        raise ValidationError("HSF_WORKERS must be >= 1")
    return w


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValidationError("--seed must be nonnegative")
    report = verify_mod.run_suite(args.trials, args.seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    if not report["passed"]:
        failing = [k for k, v in report["identities"].items() if not v["passed"]]
        print(f"FAILED identities: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_flow(args) -> int:
    cfg = config_mod.load(args.config)
    if args.out:
        cfg.out_dir = args.out
    workers = _workers()
    # the initial data come before the run directory, so degenerate data
    # leave none; their guarded normalization goes on to the first state,
    # and the field itself too: the holder is emptied as the run takes it
    initial = [initial_data._generate(
        cfg.lattice(), cfg.generator, cfg.amplitude, cfg.initial_seed, cfg.modes,
        cfg.flow.stencil_order, cfg.flow.degeneration_threshold)]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = cfg.config_hash()
    (out / "config.json").write_text(json.dumps(
        {"config": cfg.sections(), "config_hash": chash, "workers": workers},
        indent=2, sort_keys=True) + "\n")

    csv_path = out / "diagnostics.csv"
    fh = open(csv_path, "w", newline="")
    fh.write(f"# config_hash={chash}\n")
    writer = csv.writer(fh)
    writer.writerow(fe.DIAG_COLUMNS)

    def row_sink(row):
        writer.writerow([_fmt(row[k]) for k in fe.DIAG_COLUMNS])
        fh.flush()

    def checkpoint_sink(step_index, state):
        path = out / f"snap_{step_index:06d}.hsf"
        snap.write_snapshot(path, state.tf, state.time)
        snap.write_sidecar(path, {
            "config_hash": chash, "step": step_index, "time": state.time,
            "workers": workers, "stencil_order": cfg.flow.stencil_order,
            "diagnostics": state.diagnostics})

    try:
        with gc.slab_threads(workers):
            result = fe.run(cfg.flow, initial.pop(), row_sink, checkpoint_sink)
    finally:
        fh.close()
    if result.aborted:
        print(result.aborted, file=sys.stderr)
        return EXIT_NUMERICAL
    last = result.rows[-1]
    print(f"run complete: {last['step']} steps to t={last['time']:.6g}, "
          f"diagnostics in {csv_path}")
    return EXIT_OK


def _lift_report(tf: gc.TripleField, time: float, samples: int, seed: int,
                 order: int = 4) -> dict:
    """The lift checks of a state; ``order`` is the stencil order of the
    run that produced it, used for ``max_dw`` and the torsion."""
    from . import fiber_g2 as fg
    state = fe.FlowState(time, tf)
    q, _, mu = state.ensure_fields()
    dome = gc.d(tf.lattice, tf.c, 2, order)
    points = fe.draw_points(tf.lattice, samples, seed)
    # the dual triple's lift is the non-closed one; it runs first, so that its
    # lattice-sized temporaries are gone before the batch below is built
    torsion_worst = fe.dual_lift_torsion(state, points, order)
    star_worst = 0.0
    if points:
        at = tuple(np.transpose(points))   # one index array per lattice axis
        w = tf.c[at]
        phi = fg.build_phi(w)
        psi = fg.build_psi(ta._product(ta.adj3(q[at]), w), mu[at])   # sigma, as fe._dual
        g7, _ = fg.metric_from_phi(phi)
        star_worst = fg.check_star7(phi, psi, g7)
        torsion_worst = max(torsion_worst, float(np.abs(
            fg.torsion_trace(phi, fg.assemble_dphi(dome[at]), g7)).max()))
    return {"time": time, "points_sampled": len(points),
            "max_star7_residual": float(star_worst),
            "max_torsion_trace": float(torsion_worst),
            "max_dw": float(np.abs(dome).max()),
            "min_eig_Q": state.q_eig_min}


def cmd_lift(args) -> int:
    if args.samples < 0 or args.seed < 0:
        raise ValidationError("--samples and --seed must be nonnegative")
    tf, time = snap.read_snapshot(args.snapshot)
    try:
        sidecar = snap.read_sidecar(args.snapshot)
    except OSError:
        sidecar = None
    except ValueError as exc:   # not a JSON object
        raise ValidationError(f"{args.snapshot}: unreadable sidecar: {exc}") from exc
    # the run's stencil order; order 4 for a snapshot without one
    order = (sidecar or {}).get("stencil_order", 4)
    if order not in (2, 4):
        raise ValidationError(f"{args.snapshot}: sidecar stencil_order {order!r} is not 2 or 4")
    report = _lift_report(tf, time, args.samples, args.seed, order)
    report["snapshot"] = str(args.snapshot)
    if sidecar is not None:
        report["config_hash"] = sidecar.get("config_hash")
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    csv_path = run_dir / "diagnostics.csv"
    with open(csv_path, newline="") as fh:
        lines = [(n, row) for n, row in enumerate(csv.reader(fh), 1)
                 if row and not row[0].startswith("#")]
    if len(lines) < 2:
        raise ValidationError(f"{csv_path}: no diagnostics rows")
    (_, header), rows = lines[0], lines[1:]
    missing = [k for k in fe.DIAG_COLUMNS if k not in header]
    if missing:
        raise ValidationError(f"{csv_path}: no column {', '.join(missing)}")
    values = []
    for n, row in rows:   # a truncated file ends in a short or cut row
        if len(row) != len(header):
            raise ValidationError(
                f"{csv_path}: row at line {n} has {len(row)} fields, not {len(header)}")
        try:
            values.append([float(v) for v in row])
        except ValueError as exc:
            raise ValidationError(f"{csv_path}: row at line {n}: {exc}") from exc
    series = dict(zip(header, np.array(values).T))
    qd = series["q_dev"]
    tail = qd[len(qd) // 2:]
    monotone = bool(np.all(np.diff(tail) <= 1e-14)) if len(tail) > 1 else True
    summary = {
        "rows": len(rows),
        "t_final": float(series["time"][-1]),
        "max_dw_worst": float(series["max_dw"].max()),
        "period_drift_worst": float(series["period_drift"].max()),
        "max_abs_detQ_minus_1_worst": float(series["max_abs_detQ_minus_1"].max()),
        "torsion_sample_worst": float(series["torsion_sample"].max()),
        "q_dev_initial": float(qd[0]),
        "q_dev_final": float(qd[-1]),
        "q_dev_ratio": float(qd[-1] / qd[0]) if qd[0] else 0.0,
        "q_dev_tail_monotone": monotone,
    }
    (run_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    with open(run_dir / "report.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        columns = ("time", "q_dev", "rhs_l2", "max_dw", "period_drift")
        w.writerow(columns)
        for i in range(len(rows)):
            w.writerow([_fmt(series[k][i]) for k in columns])
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hsflow",
        description="Numerical laboratory for positive 2-form triples on "
                    "periodic 4-tori and their geometric flow.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the randomized identity suites")
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--out", help="also write the JSON report here")
    v.set_defaults(fn=cmd_verify)

    f = sub.add_parser("flow", help="integrate a configured flow experiment")
    f.add_argument("--config", required=True)
    f.add_argument("--out", help="override the configured output directory")
    f.set_defaults(fn=cmd_flow)

    l = sub.add_parser("lift", help="7-dimensional fiber checks on a snapshot")
    l.add_argument("--snapshot", required=True)
    l.add_argument("--samples", type=int, default=16)
    l.add_argument("--seed", type=int, default=0)
    l.set_defaults(fn=cmd_lift)

    r = sub.add_parser("report", help="summarize a run directory")
    r.add_argument("--run", required=True)
    r.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NotPositive, StepRejected) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
