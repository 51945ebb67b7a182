#!/usr/bin/env python3
"""Shows that the benchmark's output checks catch a broken output.

    python3 bench/selfcheck.py

Runs a short flow on the decay workload's inputs, then ``hsflow verify`` as
the pointwise workload runs it and a short ``hsflow lift`` on the flow's
final snapshot, all through hsflow's command line.  Each group of checks in
bench/workload.py is handed the true outputs, which must pass every check,
and then broken copies, which must fail exactly the checks named for them:

- flow checks: one lattice point of the final state moved by 1e-6;
- reference checks: the Gram matrix, metric or volume that hsflow gave,
  scaled by 1 + 1e-9;
- verify checks: a report with another identity over its bound, with the
  known identity far over it, or with an identity missing;
- lift checks: a star7 residual over its bound.

Exits 0 when every outcome is as expected.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run_bench  # noqa: E402
import workload  # noqa: E402
from hsflow import flow_engine as fe, grid_calculus as gc  # noqa: E402

REF = "reference {} at 16 points"
VERIFY_OTHER = f"verify: every identity but {workload.KNOWN_OVER_BOUND} within its bound"
VERIFY_KNOWN = (f"verify: {workload.KNOWN_OVER_BOUND} within "
                f"{workload.KNOWN_EXCESS:g}x its bound")
VERIFY_CODE = "verify: exit code and report agree"
LIFT_SAMPLES = 20


def _outcome(label, checks, expect) -> bool:
    failed = {name for name, passed, _ in checks if not passed}
    for name, passed, detail in checks:
        print(f"{label:48s} {'pass' if passed else 'FAIL'}  {name}: {detail}")
    if failed != expect:
        print(f"{label}: expected to fail {sorted(expect)}, failed {sorted(failed)}")
    return failed == expect


def flow_cases(out):
    spec = run_bench._flow_spec(out, 1, (64, 4, 4, 4), "t3-invariant", 7, 5e-5, 2)
    captured = {}
    run = fe.run
    fe.run = lambda *args, **kwargs: captured.setdefault("result", run(*args, **kwargs))
    code = workload._call(["flow", "--config", spec["config"], "--out", str(out / "run")],
                          out / "flow.out")
    fe.run = run
    if code != 0:
        raise RuntimeError(f"the flow run exited {code}")
    result = captured["result"]
    final = result.final_state
    c = final.tf.c.copy()
    c[3, 1, 2, 0, 1, 4] += 1e-6
    broken = fe.FlowResult(result.rows, fe.FlowState(
        final.time, gc.TripleField(c=c, lattice=final.tf.lattice)))
    cases = [("flow: true final state", workload.flow_checks(spec, out / "run", result), set()),
             ("flow: perturbed final state", workload.flow_checks(spec, out / "run", broken),
              {"final state closed (own stencil)", "final periods equal the standard triple's",
               "snapshot reads back bit-equal"})]
    fields = final.ensure_fields()
    for k, (what, spoiled) in enumerate((("q", {REF.format("Gram matrix")}),
                                         ("g", {REF.format("metric"),
                                                REF.format("metric density")}),
                                         ("mu", {REF.format("volume"),
                                                 REF.format("metric density")}))):
        wrong = list(fields)
        wrong[k] = fields[k] * (1 + 1e-9)
        cases.append((f"reference: {what} scaled by 1+1e-9",
                      workload.reference_checks(final.tf, wrong, spec["seed"]), spoiled))
    snapshot_path = out / "run" / f"snap_{int(result.rows[-1]['step']):06d}.hsf"
    return cases, snapshot_path


def verify_cases(out):
    spec = run_bench.pointwise_spec(out, 1)
    path = out / "verify.json"
    code = workload._call(["verify", "--trials", str(spec["trials"]),
                           "--seed", str(spec["verify_seed"]), "--out", str(path)],
                          out / "verify.out")
    cases = [("verify: true report", workload.verify_checks(path, code), set())]
    true = json.loads(path.read_text())

    def doctored(label, edit, expect, code=code):
        report = copy.deepcopy(true)
        edit(report["identities"])
        bad = out / f"verify_{len(cases)}.json"
        bad.write_text(json.dumps(report))
        cases.append((f"verify: {label}", workload.verify_checks(bad, code), expect))

    bound = true["identities"]["t3-star-2forms"]["bound"]
    doctored("t3-star-2forms over its bound",
             lambda ids: ids["t3-star-2forms"].update(max_residual=2 * bound),
             {VERIFY_OTHER} if code else {VERIFY_OTHER, VERIFY_CODE})
    doctored(f"{workload.KNOWN_OVER_BOUND} far over its bound",
             lambda ids: ids[workload.KNOWN_OVER_BOUND].update(max_residual=1e-6),
             {VERIFY_KNOWN} if code else {VERIFY_KNOWN, VERIFY_CODE})
    doctored("an identity missing", lambda ids: ids.pop("g2-metric-blocks"),
             {"verify: the report lists every registered identity"})
    doctored("exit code 0 with an identity over its bound",
             lambda ids: ids[workload.KNOWN_OVER_BOUND].update(max_residual=2e-10),
             {VERIFY_CODE}, code=0)
    return cases


def lift_cases(out, snapshot_path):
    path = out / "lift.json"
    code = workload._call(["lift", "--snapshot", str(snapshot_path),
                           "--samples", str(LIFT_SAMPLES), "--seed", "1"], path)
    if code != 0:
        raise RuntimeError(f"the lift run exited {code}")
    lift = json.loads(path.read_text())
    broken = dict(lift, max_star7_residual=2 * workload.LIFT_TOL)
    return [("lift: true report", workload.lift_checks(lift, LIFT_SAMPLES), set()),
            ("lift: star7 residual over its bound", workload.lift_checks(broken, LIFT_SAMPLES),
             {"lift: star7 residual"})]


def main() -> int:
    out = run_bench.OUT / "selfcheck"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cases, snapshot_path = flow_cases(out)
    cases += verify_cases(out)
    cases += lift_cases(out, snapshot_path)
    ok = all([_outcome(*case) for case in cases])
    print("selfcheck:", "checks behave as expected" if ok else "UNEXPECTED check outcome")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
