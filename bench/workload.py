"""One round of a benchmark workload, in a fresh process started by run_bench.py.

    python3 bench/workload.py SPEC_JSON ROUND_DIR run|trace|probe

Set-up runs from process start, imports included, to the first timed call;
the run lasts from there until the workload's outputs are on disk.  Both
ends are CLOCK_MONOTONIC stamps, which the parent compares with the time it
started this process.  After the run, the outputs are checked and
ROUND_DIR/result.json is written.  ``trace`` also saves the spans of the
timed part to ROUND_DIR/spans.npz; ``probe`` stops at the end of set-up and
records only that stamp.  The benchmark's own modules are imported only when
needed (tracing) or after the run (reference), so that untraced set-up time
is the program's alone.
"""

import hashlib
import json
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from hsflow import cli, flow_engine as fe, grid_calculus as gc, initial_data, snapshot, verify

# tolerances of the output checks; "roundoff" ones are relative to the scale
CLOSED_TOL = 1e-10      # the program's own closedness gate
PERIOD_TOL = 1e-10
DET_TOL = 1e-12
ROUNDOFF = 1e-12
LIFT_TOL = 1e-9
# `hsflow verify --seed 38` exceeds the 1e-10 bound of this identity by
# roundoff (1.05e-10): an absolute bound on entries of an inverse Gram matrix
KNOWN_OVER_BOUND = "dual-gram-inverse"
KNOWN_EXCESS = 10.0


class SetupDone(BaseException):
    """Ends a set-up probe.  Not an Exception, so that neither hsflow's error
    handling nor _call catches it."""


def _call(argv, stdout_path) -> int:
    """hsflow's command-line entry point in-process; stdout goes to a file."""
    with open(stdout_path, "w") as out, redirect_stdout(out):
        try:
            return cli.main(argv)
        except Exception:   # an uncaught program error fails the operation
            traceback.print_exc()
            return -1


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.  Unlike ru_maxrss it
    does not carry over the parent's resident set from before exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_rows(csv_path):
    lines = [ln for ln in Path(csv_path).read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def snapshot_checks(path, tf, time_value):
    """The file has the HSF1 size and reads back bit-equal to the in-memory field."""
    import reference as ref
    size = Path(path).stat().st_size
    expected = ref.hsf1_size(tf.lattice.shape)
    back, t = snapshot.read_snapshot(path)
    same = back.c.tobytes() == np.ascontiguousarray(tf.c).tobytes() and t == time_value
    return [["snapshot size matches the HSF1 layout", size == expected, f"{size} vs {expected}"],
            ["snapshot reads back bit-equal", bool(same), str(path)]]


def reference_checks(tf, fields, seed, points=16):
    """Own metric density, metric, volume and Gram vs ``fields``, the
    (q, g, mu) that pointwise_normalize gave for ``tf``."""
    import reference as ref
    lat = tf.lattice
    rng = np.random.default_rng(seed)
    flat = rng.choice(lat.num_points, size=min(points, lat.num_points), replace=False)
    idx = np.unravel_index(flat, lat.shape)
    q, g, mu = fields
    rq, rg, rmu = ref.normalize(tf.c[idx])
    pairs = {"metric density": (rg * rmu[:, None, None], g[idx] * mu[idx][:, None, None]),
             "metric": (rg, g[idx]), "volume": (rmu, mu[idx]), "Gram matrix": (rq, q[idx])}
    out = []
    for what, (mine, theirs) in pairs.items():
        err = float(np.abs(mine - theirs).max())
        scale = max(1.0, float(np.abs(mine).max()))
        out.append([f"reference {what} at {len(flat)} points", err <= ROUNDOFF * scale,
                    f"{err:.3e}"])
    return out


def verify_checks(report_path, code):
    """Checks of one ``hsflow verify`` report, read whatever the exit code.

    Only the identity named in KNOWN_OVER_BOUND may exceed its registered
    bound, and then by less than KNOWN_EXCESS times; the exit code must
    agree with the report."""
    if not Path(report_path).exists():
        return [["verify wrote its report", False, f"exit code {code}"]]
    report = json.loads(Path(report_path).read_text())
    ids = report["identities"]
    bounds = {name: bound for name, (_, bound) in verify.CHECKS.items()}
    over = sorted(k for k, v in ids.items() if not v["max_residual"] <= bounds.get(k, -1.0))
    known = ids.get(KNOWN_OVER_BOUND, {}).get("max_residual", float("nan"))
    return [
        ["verify: the report lists every registered identity", set(ids) == set(bounds),
         f"{sorted(set(ids) ^ set(bounds))}"],
        [f"verify: every identity but {KNOWN_OVER_BOUND} within its bound",
         set(over) <= {KNOWN_OVER_BOUND}, f"over bound: {over}"],
        [f"verify: {KNOWN_OVER_BOUND} within {KNOWN_EXCESS:g}x its bound",
         known <= KNOWN_EXCESS * bounds.get(KNOWN_OVER_BOUND, -1.0), f"{known:.3e}"],
        ["verify: exit code and report agree",
         (code == 0) == (not over) == bool(report["passed"]),
         f"exit code {code}, passed={report['passed']}, over bound: {over}"],
    ]


def lift_checks(lift, samples):
    """Checks of one ``hsflow lift`` report."""
    return [["lift: star7 residual", lift["max_star7_residual"] <= LIFT_TOL,
             f"{lift['max_star7_residual']:.3e}"],
            ["lift: torsion trace", abs(lift["max_torsion_trace"]) <= LIFT_TOL,
             f"{lift['max_torsion_trace']:.3e}"],
            ["lift: every sample point checked", lift["points_sampled"] == samples,
             str(lift["points_sampled"])]]


def flow_checks(spec, run_dir, result):
    """Checks of one flow run's outputs; ``result`` is the FlowResult of fe.run."""
    import reference as ref
    rows = _read_rows(run_dir / "diagnostics.csv")
    final = result.final_state
    tf = final.tf
    steps = int(rows[-1]["step"])

    def worst(col):
        return max(r[col] for r in rows)

    out = [
        ["closedness max_dw over the run", worst("max_dw") <= CLOSED_TOL, f"{worst('max_dw'):.3e}"],
        ["period_drift over the run", worst("period_drift") <= PERIOD_TOL,
         f"{worst('period_drift'):.3e}"],
        ["max_abs_detQ_minus_1 at roundoff", worst("max_abs_detQ_minus_1") <= DET_TOL,
         f"{worst('max_abs_detQ_minus_1'):.3e}"],
        ["no step rejected, end time reached",
         result.aborted is None and abs(final.time - spec["t_end"]) <= ROUNDOFF * spec["t_end"],
         f"aborted={result.aborted!r} t={final.time!r} steps={steps}"],
    ]
    r = fe.rhs(final, spec["stencil_order"])
    rhs_periods = float(np.abs(r.mean(axis=(0, 1, 2, 3))).max())
    out.append(["periods of the final right-hand side vanish",
                rhs_periods <= ROUNDOFF * float(np.abs(r).max()), f"{rhs_periods:.3e}"])
    defect = ref.max_closedness_defect(tf.c, tf.lattice.h)
    out.append(["final state closed (own stencil)", defect <= CLOSED_TOL, f"{defect:.3e}"])
    drift = float(np.abs(tf.c.mean(axis=(0, 1, 2, 3)) - ref.standard_periods()).max())
    out.append(["final periods equal the standard triple's", drift <= ROUNDOFF, f"{drift:.3e}"])
    out += snapshot_checks(run_dir / f"snap_{steps:06d}.hsf", tf, final.time)
    # the final state's fields come from pointwise_normalize (the post-step guard)
    out += reference_checks(tf, final.ensure_fields(), spec["seed"])
    return out


def flow_round(spec, rd: Path, probe: bool):
    marks, captured = {}, {}
    init_state, run = fe.init_state, fe.run

    def timed_init_state(*args, **kwargs):
        state = init_state(*args, **kwargs)
        marks["setup_end"] = time.monotonic()
        if probe:
            raise SetupDone(marks["setup_end"])
        return state

    def capturing_run(*args, **kwargs):
        captured["result"] = run(*args, **kwargs)
        return captured["result"]

    fe.init_state, fe.run = timed_init_state, capturing_run
    code = _call(["flow", "--config", spec["config"], "--out", str(rd / "run")], rd / "flow.out")

    def checks(ok):
        if "flow" not in ok:
            return [], {}
        return (flow_checks(spec, rd / "run", captured["result"]),
                {"diagnostics.csv": _digest(rd / "run" / "diagnostics.csv")})

    return marks.get("setup_end"), [["flow", code]], checks


def pointwise_round(spec, rd: Path, probe: bool):
    lat = gc.Lattice(tuple(spec["n"]))
    tf = initial_data.generate_initial(lat, spec["generator"], spec["amplitude"],
                                       spec["data_seed"])
    snap = rd / "input.hsf"
    snapshot.write_snapshot(snap, tf, 0.0)
    setup_end = time.monotonic()
    if probe:
        raise SetupDone(setup_end)
    ops = [["verify", _call(["verify", "--trials", str(spec["trials"]),
                             "--seed", str(spec["verify_seed"]),
                             "--out", str(rd / "verify.json")], rd / "verify.out")],
           ["lift", _call(["lift", "--snapshot", str(snap), "--samples", str(spec["samples"]),
                           "--seed", str(spec["seed"])], rd / "lift.json")]]

    code_of = dict(ops)

    def checks(ok):
        out = snapshot_checks(snap, tf, 0.0)
        out += reference_checks(tf, gc.pointwise_normalize(tf), spec["seed"])
        out += verify_checks(rd / "verify.json", code_of["verify"])
        digests = {}
        if (rd / "verify.json").exists():
            digests["verify.json"] = _digest(rd / "verify.json")
        if "lift" in ok:
            out += lift_checks(json.loads((rd / "lift.json").read_text()), spec["samples"])
        return out, digests

    return setup_end, ops, checks


def main(spec_path, rd, mode):
    spec = json.loads(Path(spec_path).read_text())
    rd = Path(rd)
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    round_fn = flow_round if spec["kind"] == "flow" else pointwise_round
    try:
        setup_end, ops, checks = round_fn(spec, rd, mode == "probe")
    except SetupDone as stop:
        (rd / "result.json").write_text(json.dumps({"setup_end": stop.args[0]}))
        return 0
    done = time.monotonic()
    peak_rss_mb = _peak_rss_mb()
    if tracer:
        tracer.save(rd / "spans.npz")
    # flow and lift outputs of a failed operation are not checked; the
    # verify report is, whatever the exit code
    results, digests = checks({name for name, code in ops if code == 0})
    (rd / "result.json").write_text(json.dumps({
        "setup_end": setup_end, "done": done, "peak_rss_mb": peak_rss_mb,
        "ops": ops, "checks": results, "digests": digests}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
