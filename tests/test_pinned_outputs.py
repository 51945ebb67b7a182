"""Pinned outputs: ``hsflow verify`` reports, flow runs, a lift report and
the compiled tables' plans.

``pinned.json`` holds the SHA-256 digest of each output, the values behind
it, and the fingerprint of the numpy build and CPU that made them:

* the JSON text that ``hsflow verify --out`` writes for a few (trials,
  seed) pairs, one of them a failing seed;
* ``diagnostics.csv`` and the final snapshot of two short ``hsflow flow``
  runs, the exact-perturbation one at one and at two slab threads, with
  ``grid_calculus.SLAB_POINTS`` lowered so that its stages run in pieces:
  both must give the one digest;
* the ``hsflow lift`` report on that run's final snapshot, without its path.

On that fingerprint every digest must match, so the outputs stay
byte-identical.  On any other, roundoff may move the last bits: the verify
reports are compared field by field, every field but ``max_residual``
exactly, and the diagnostics rows, a few numbers of the final field and the
lift report to a relative 1e-12 (absolute 1e-12 for entries that are zero up
to roundoff); a warning names the difference.

The plans of the compiled tables (the evaluation groups and entries of every
``exterior.RowProducts`` table the flow, lift and verify use, the derivative
table and the G2 lift's embeddings) hold only integers and exact small
floats, so their ``repr`` digests are compared on any machine.

A change that alters the outputs on purpose re-pins in the same commit:

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import contextlib
import csv
import hashlib
import io
import json
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from hsflow import cli
from hsflow import fiber_g2 as fg
from hsflow import grid_calculus as gc
from hsflow import snapshot as snap
from hsflow import triple_algebra as ta
from hsflow import verify

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:   # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

PINNED = Path(__file__).with_name("pinned.json")
CASES = [(1000, 1), (1000, 38), (1000, 69), (200, 1)]

# name -> (lattice, generator, amplitude, initial seed); 20 steps of cfl 0.2 RK4 each
FLOWS = {"t3-16x4x4x4": ("16 4 4 4", "t3-invariant", 0.05, 7),
         "exact-8x8x4x4": ("8 8 4 4", "exact-perturbation", 0.05, 3)}
INI = """\
[lattice]
n = {n}

[initial]
generator = {generator}
amplitude = {amplitude}
seed = {seed}

[flow]
cfl = 0.2
max_steps = 20
diag_cadence = 5
fiber_samples = 4
seed = 1

[output]
dir = {out}
"""
# (workers, SLAB_POINTS): one thread on one piece, and two threads on eight pieces
THREADINGS = {"exact-8x8x4x4": [(1, gc.SLAB_POINTS), (2, 128)]}
LIFT = ("exact-8x8x4x4", 50, 0)   # the run's final snapshot, samples, seed
RTOL = ATOL = 1e-12
TABLES = ("GRAM", "ADJ3", "DENSITY", "DENSITY7", "hodge3(1)", "hodge3(3)", "product(3, 3, 6)",
          "product(3, 3, 1)", "product(3, 3, 4)", "D_TABLE", "PHI", "PSI", "DPHI")


def fingerprint() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def digest(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def report_text(trials: int, seed: int) -> str:
    """What ``hsflow verify --trials <trials> --seed <seed> --out`` writes."""
    return json.dumps(verify.run_suite(trials, seed), indent=2, sort_keys=True) + "\n"


def without_residuals(report: dict) -> dict:
    return {**report, "identities": {
        name: {k: v for k, v in entry.items() if k != "max_residual"}
        for name, entry in report["identities"].items()}}


def flow_run(name: str, directory: Path, workers: int = 1, slab_points: int = gc.SLAB_POINTS):
    """``hsflow flow`` of case ``name`` into ``directory``, at ``workers``
    threads and pieces of ``slab_points``: ``(diagnostics.csv bytes, final
    snapshot path)``."""
    n, generator, amplitude, seed = FLOWS[name]
    directory.mkdir()
    config = directory / "run.ini"
    config.write_text(INI.format(n=n, generator=generator, amplitude=amplitude, seed=seed,
                                 out=directory / "out"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HSF_WORKERS", str(workers))
        mp.setattr(gc, "SLAB_POINTS", slab_points)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["flow", "--config", str(config)]) == 0
    return (directory / "out" / "diagnostics.csv").read_bytes(), \
        directory / "out" / "snap_000020.hsf"


def rows(csv_bytes: bytes) -> list:
    lines = [r for r in csv.reader(io.StringIO(csv_bytes.decode())) if not r[0].startswith("#")]
    return [[float(v) for v in r] for r in lines[1:]]


def field_numbers(path) -> list:
    """The final field at the first and last lattice point, and its sum of squares."""
    c = snap.read_snapshot(path)[0].c
    return [*c[0, 0, 0, 0].ravel().tolist(), *c[-1, -1, -1, -1].ravel().tolist(),
            float(np.sum(c * c))]


def lift_text(path, samples: int, seed: int) -> str:
    """The report ``hsflow lift`` prints, without the snapshot's path."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["lift", "--snapshot", str(path), "--samples", str(samples),
                         "--seed", str(seed)]) == 0
    report = json.loads(out.getvalue())
    del report["snapshot"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def table_plans() -> dict:
    """``repr`` of each compiled table's plan."""
    tables = {"GRAM": ta.GRAM, "ADJ3": ta.ADJ3, "DENSITY": ta.DENSITY, "DENSITY7": fg.DENSITY7,
              "hodge3(1)": ta._hodge3_table(1), "hodge3(3)": ta._hodge3_table(3),
              # sigma = adj(Q) w, whole and a column at a time, and Q (-*d sigma)
              **{f"product{s}": ta._product_table(*s) for s in ((3, 3, 6), (3, 3, 1), (3, 3, 4))}}
    plans = {name: repr((t._groups, t._entries)) for name, t in tables.items()}
    plans.update(D_TABLE=repr(gc._D_TABLE), PHI=repr(fg._PHI), PSI=repr(fg._PSI),
                 DPHI=repr(fg._DPHI))
    return plans


def outputs(directory: Path) -> dict:
    """Every pinned flow and lift output, made under ``directory``."""
    flows, snapshots = {}, {}
    for name in FLOWS:
        runs = [flow_run(name, directory / f"{name}-{w}-{p}", w, p)
                for w, p in THREADINGS.get(name, [(1, gc.SLAB_POINTS)])]
        (text, path), others = runs[0], runs[1:]
        snapshots[name] = path
        flows[name] = {"diagnostics_sha256": digest(text),
                       "snapshot_sha256": digest(path.read_bytes()),
                       "rows": rows(text), "field": field_numbers(path),
                       "same_at_every_threading": all(
                           o == text and p.read_bytes() == path.read_bytes() for o, p in others)}
    name, samples, seed = LIFT
    text = lift_text(snapshots[name], samples, seed)
    return {"flow": flows, "lift": {"sha256": digest(text), "report": json.loads(text)}}


def pins(directory: Path) -> dict:
    entries = {}
    for trials, seed in CASES:
        text = report_text(trials, seed)
        entries[f"{trials}/{seed}"] = {"sha256": digest(text),
                                       "report": without_residuals(json.loads(text))}
    made = outputs(directory)
    for flow in made["flow"].values():
        assert flow.pop("same_at_every_threading")
    return {"fingerprint": fingerprint(), "verify": entries, **made,
            "tables": {name: digest(plan) for name, plan in table_plans().items()}}


def fingerprint_difference(pinned: dict, here: dict) -> str:
    parts = []
    for key in ("numpy", "machine"):
        if pinned[key] != here[key]:
            parts.append(f"{key} {pinned[key]} pinned, {here[key]} here")
    if pinned["cpu_features"] != here["cpu_features"]:
        lost = sorted(set(pinned["cpu_features"]) - set(here["cpu_features"]))
        gained = sorted(set(here["cpu_features"]) - set(pinned["cpu_features"]))
        parts.append(f"CPU features pinned but not here {lost}, here but not pinned {gained}")
    return "; ".join(parts)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.fixture(scope="module")
def difference(pinned):
    return fingerprint_difference(pinned["fingerprint"], fingerprint())


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize("trials,seed", CASES)
def test_verify_report_is_pinned(trials, seed, pinned, difference):
    pin = pinned["verify"][f"{trials}/{seed}"]
    text = report_text(trials, seed)
    if not difference:
        assert digest(text) == pin["sha256"]
    else:
        warnings.warn(f"verify report {trials}/{seed} compared without max_residual, "
                      f"not byte for byte: {difference}")
    assert without_residuals(json.loads(text)) == pin["report"]


@pytest.mark.parametrize("name", FLOWS)
def test_flow_outputs_are_pinned(name, pinned, difference, made):
    pin, got = pinned["flow"][name], made["flow"][name]
    assert got["same_at_every_threading"]
    if not difference:
        assert (got["diagnostics_sha256"], got["snapshot_sha256"]) == \
            (pin["diagnostics_sha256"], pin["snapshot_sha256"])
    else:
        warnings.warn(f"flow {name} compared to a relative {RTOL:g}, not byte for byte: "
                      f"{difference}")
    assert len(got["rows"]) == len(pin["rows"])
    np.testing.assert_allclose(got["rows"], pin["rows"], rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(got["field"], pin["field"], rtol=RTOL, atol=ATOL)


def test_lift_report_is_pinned(pinned, difference, made):
    pin, got = pinned["lift"], made["lift"]
    if not difference:
        assert got["sha256"] == pin["sha256"]
    else:
        warnings.warn(f"lift report compared to a relative {RTOL:g}, not byte for byte: "
                      f"{difference}")
    assert got["report"].keys() == pin["report"].keys()
    for key, value in pin["report"].items():
        if isinstance(value, str):
            assert got["report"][key] == value
        else:
            np.testing.assert_allclose(got["report"][key], value, rtol=RTOL, atol=ATOL,
                                       err_msg=key)


@pytest.fixture(scope="module")
def plans():
    return table_plans()


@pytest.mark.parametrize("name", TABLES)
def test_table_plan_is_pinned(name, pinned, plans):
    assert digest(plans[name]) == pinned["tables"][name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        PINNED.write_text(json.dumps(pins(Path(tmp)), indent=2, sort_keys=True) + "\n")
