#!/usr/bin/env python3
"""hsflow benchmark: time to solution of flow runs and of the verify/lift checks.

    python3 bench/run_bench.py --workload decay-64x4x4x4 --seed 1 --seconds 25 --trace 0
    python3 bench/run_bench.py --seed 1          # every workload, untraced and traced

Run from the root of a checkout.  Each round of a workload is a fresh
process (bench/workload.py) that sets up the inputs, calls hsflow's command
line in-process and checks the outputs.  Rounds run one after another until
--seconds have passed, and at least two, so that outputs of equal inputs
can be compared.  No round starts that might not end within DEADLINE_S of
the start, so a --seconds that long is cut short.  Untraced runs follow
each round with a few set-up probes, processes that stop when set-up ends,
so that setup_s is a median over many set-ups.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with --trace 0, the per-layer metrics
named in BENCHMARK.json with --trace 1.  Operations are hsflow commands
(one flow run, or one verify plus one lift, per round).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_ROUNDS = 2
# A run ends within DEADLINE_S: no round starts unless twice the longest
# round so far still fits, and a round still running then is hung and killed.
DEADLINE_S = 170
CFL = 0.2
AMPLITUDE = 0.05

FLOW_INI = """\
[lattice]
n = {n}
[initial]
generator = {generator}
amplitude = {amplitude!r}
seed = {data_seed}
[flow]
cfl = {cfl!r}
t_end = {t_end!r}
max_steps = 100000
stencil_order = 4
diag_cadence = {diag_cadence}
fiber_samples = 4
seed = {seed}
"""


def _flow_spec(out, seed, n, generator, data_seed, t_end, diag_cadence):
    config = out / "flow.ini"
    config.write_text(FLOW_INI.format(
        n=" ".join(map(str, n)), generator=generator, amplitude=AMPLITUDE,
        data_seed=data_seed, cfl=CFL, t_end=t_end, diag_cadence=diag_cadence, seed=seed))
    return {"kind": "flow", "config": str(config), "t_end": t_end, "seed": seed,
            "stencil_order": 4, "ops": 1, "probes": 3}


def decay_spec(out, seed):
    # Criterion-6 data (initial seed 7).  Across initial seeds the first CFL
    # step varies fivefold and grows by 1-12% within 30 steps, so seeded data
    # would change the step count.  The seed picks the fiber sample points.
    return _flow_spec(out, seed, (64, 4, 4, 4), "t3-invariant", 7, 3.5e-4, 20)


def large_spec(out, seed):
    # Seeded data; the end time is 1.5 initial CFL steps, computed by the
    # benchmark's own algebra, so every seed takes exactly two steps.
    sys.path.insert(0, str(SRC))
    import reference as ref
    from hsflow import grid_calculus as gc, initial_data
    n = (32, 16, 16, 16)
    lat = gc.Lattice(n)
    tf = initial_data.generate_initial(lat, "exact-perturbation", AMPLITUDE, seed)
    t_end = 1.5 * ref.cfl_dt(tf.c, min(lat.h), CFL)
    # one probe per round: a set-up here costs seconds
    return dict(_flow_spec(out, seed, n, "exact-perturbation", seed, t_end, 10), probes=1)


def pointwise_spec(out, seed):
    # `hsflow verify` fails its dual-gram-inverse bound on about 1% of seeds
    # (an absolute 1e-10 bound on entries of an inverse Gram matrix).  A
    # verify seed that varied with the run's seed would make failures come
    # and go, so verify always runs on seed 38, where it fails every time
    # (residual 1.05e-10), and counts as one failed operation per round.
    # Its report is still checked: no other identity may exceed its bound.
    return {"kind": "pointwise", "n": [16, 8, 8, 8], "generator": "exact-perturbation",
            "amplitude": AMPLITUDE, "data_seed": seed, "seed": seed, "verify_seed": 38,
            "trials": 1000, "samples": 1000, "ops": 2, "probes": 3}


WORKLOADS = {
    "decay-64x4x4x4": decay_spec,
    "large-32x16x16x16": large_spec,
    "pointwise-verify-lift": pointwise_spec,
}


def _spawn(spec_path, rd: Path, mode: str, deadline: float):
    """Runs one workload process; returns (result.json or None, spawn stamp)."""
    rd.mkdir(parents=True)
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(rd / "child.log", "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "workload.py"), str(spec_path), str(rd), mode],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    result_path = rd / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        print(f"{rd.name}: workload process exited {proc.returncode}, see {rd / 'child.log'}",
              file=sys.stderr)
        return None, spawned
    return json.loads(result_path.read_text()), spawned


def run_round(spec_path, rd: Path, mode: str, ops: int, deadline: float) -> dict:
    res, spawned = _spawn(spec_path, rd, mode, deadline)
    if res is None:
        return {"attempted": ops, "failed": ops}
    res["attempted"] = len(res["ops"])
    res["failed"] = sum(code != 0 for _, code in res["ops"])
    if res["setup_end"] is not None:
        res["setup_s"] = res["setup_end"] - spawned
        res["run_s"] = res["done"] - res["setup_end"]
    return res


def probe_setup(spec_path, rd: Path, deadline: float) -> list:
    """Set-up time of one probe process, as a list of zero or one values."""
    res, spawned = _spawn(spec_path, rd, "probe", deadline)
    return [] if res is None else [res["setup_end"] - spawned]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    deadline = time.monotonic() + DEADLINE_S
    out = OUT / name / ("traced" if trace else "untraced")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = WORKLOADS[name](out, seed)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    rounds, setups, probes, longest = [], [], 0, 0.0
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        if len(rounds) >= MIN_ROUNDS and time.monotonic() + 2 * longest > deadline:
            print(f"{name}: stopped after {time.monotonic() - start:.1f} s, "
                  f"another round would not end before the deadline", file=sys.stderr)
            break
        began = time.monotonic()
        rounds.append(run_round(spec_path, out / f"round{len(rounds)}",
                                "trace" if trace else "run", spec["ops"], deadline))
        for _ in range(0 if trace else spec["probes"]):
            setups += probe_setup(spec_path, out / f"probe{probes}", deadline)
            probes += 1
        longest = max(longest, time.monotonic() - began)
    # rounds that ran to the end; a failed operation still takes its time
    good = [r for r in rounds if "run_s" in r]
    for k, r in enumerate(rounds):
        if "run_s" in r:
            print(f"{name} round {k}: setup_s {r['setup_s']:.4f} run_s {r['run_s']:.4f} "
                  f"peak_rss_mb {r['peak_rss_mb']:.1f}", file=sys.stderr)
    if setups:
        print(f"{name} probes: setup_s {' '.join(f'{v:.4f}' for v in setups)}", file=sys.stderr)
    if not good:
        print(f"{name}: no round completed", file=sys.stderr)
        return None
    failing = [f"round {k}: {c[0]} ({c[2]})" for k, r in enumerate(rounds)
               for c in r.get("checks", []) if not c[1]]
    for key in set().union(*(r["digests"] for r in good)):
        if len({r["digests"].get(key) for r in good}) != 1:
            failing.append(f"{key} differs between rounds with the same inputs")
    for line in failing:
        print(f"{name}: check failed: {line}", file=sys.stderr)
    # the metrics printed, and their units, are those BENCHMARK.json declares
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if trace:
        import layers
        values = layers.layer_metrics([out / f"round{k}" / "spans.npz"
                                       for k, r in enumerate(rounds) if "run_s" in r],
                                      [m for m in units if m != layers.TRACED_RUN_S])
        values[layers.TRACED_RUN_S] = statistics.median(r["run_s"] for r in good)
    else:
        setups += [r["setup_s"] for r in good]
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(r["run_s"] for r in good),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good)}
    return {"correct": not failing,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {m: {"value": values[m], "unit": units[m]} for m in units}}


def _print_table(name, trace, result):
    print(f"# {name} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, v in result["metrics"].items():
        print(f"{name:24s} {metric:48s} {v['value']:14.6g} {v['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hsflow" / "__init__.py").is_file():
        print(f"hsflow sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 32
    if args.workload != "all":
        result = run_workload(args.workload, seed, args.seconds, args.trace)
        if result is None:
            return 1
        _print_table(args.workload, args.trace, result)
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed, args.seconds, trace)
            if result is None:
                return 1
            _print_table(name, trace, result)
            results[f"{name}/{'traced' if trace else 'untraced'}"] = result
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
