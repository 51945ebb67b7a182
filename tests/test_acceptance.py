"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live).  The two expensive flow runs are shared module-scoped fixtures; the
determinism criterion repeats them and compares artifacts byte for byte.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from hsflow import cli
from hsflow import exterior
from hsflow import fiber_g2 as fg
from hsflow import flow_engine as fe
from hsflow import grid_calculus as gc
from hsflow import initial_data
from hsflow import triple_algebra as ta

RESULTS = []


def _line(num, name, ok, detail):
    msg = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    RESULTS.append(msg)
    print(msg)
    assert ok, msg


FIXED_POINT_INI = """\
[lattice]
n = 16 8 8 8
[initial]
generator = hyperkahler-standard
[flow]
cfl = 0.2
max_steps = 100
diag_cadence = 10
fiber_samples = 4
seed = 1
[output]
dir = {out}
"""

CONSERVATION_INI = """\
[lattice]
n = 64 4 4 4
[initial]
generator = t3-invariant
amplitude = 0.05
seed = 7
[flow]
cfl = 0.2
max_steps = 2000
diag_cadence = 20
fiber_samples = 4
seed = 1
[output]
dir = {out}
"""


def _run_cli_flow(tmp_root: Path, tag: str, ini: str):
    out = tmp_root / tag
    cfg = tmp_root / f"{tag}.ini"
    cfg.write_text(ini.format(out=out))
    t0 = time.perf_counter()
    code = cli.main(["flow", "--config", str(cfg)])
    elapsed = time.perf_counter() - t0
    assert code == 0, f"flow run {tag} exited {code}"
    return out, elapsed


def _read_rows(out_dir: Path):
    import csv
    with open(out_dir / "diagnostics.csv") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, worker_env):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def worker_env():
    import os
    old = os.environ.get("HSF_WORKERS")
    os.environ["HSF_WORKERS"] = "1"
    yield
    if old is None:
        os.environ.pop("HSF_WORKERS", None)
    else:
        os.environ["HSF_WORKERS"] = old


@pytest.fixture(scope="module")
def fixed_point_runs(workspace):
    a = _run_cli_flow(workspace, "fp_a", FIXED_POINT_INI)
    b = _run_cli_flow(workspace, "fp_b", FIXED_POINT_INI)
    return a, b


@pytest.fixture(scope="module")
def conservation_runs(workspace):
    a = _run_cli_flow(workspace, "cons_a", CONSERVATION_INI)
    b = _run_cli_flow(workspace, "cons_b", CONSERVATION_INI)
    return a, b


def test_criterion_1_epsilon_contraction(rng):
    t0 = time.perf_counter()
    s = rng.uniform(-10.0, 10.0, (1000, 3, 3))
    worst = ta.levi_civita_det_check(s)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _line(1, "epsilon-contraction determinant identity", ok,
          f"1000 matrices, residual={worst:.3e} <= 1e-10, {elapsed:.2f}s")


def test_criterion_2_volume_relation(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        m = oracles.random_positive_mix(rng, cond_max=100.0)
        t = m @ ta.standard_triple()
        _, mu_w = ta.metric_from_triple(t)
        expected = ta.det3(ta.gram(t)) ** (1.0 / 3.0)
        worst = max(worst, abs(mu_w - expected) / mu_w)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _line(2, "volume coefficient equals cube root of Gram determinant", ok,
          f"500 triples, relative residual={worst:.3e} <= 1e-9, {elapsed:.2f}s")


def test_criterion_3_t3_star_tables(rng):
    hat = ((1, 2), (2, 0), (0, 1))
    one = exterior.lex_tuples(3, 1)
    worst = 0.0
    for _ in range(200):
        m = rng.uniform(-1.0, 1.0, (3, 3))
        q = m @ m.T + 0.3 * np.eye(3)
        q /= ta.det3(q) ** (1.0 / 3.0)
        for basis in np.eye(3):
            got1 = fg.star3_t3(1, basis, q)
            ref1 = oracles.star_oracle(basis, q, one, hat, 3)
            got2 = fg.star3_t3(2, basis, q)
            ref2 = oracles.star_oracle(basis, q, hat, one, 3)
            worst = max(worst, float(np.abs(got1 - ref1).max()),
                        float(np.abs(got2 - ref2).max()))
    ok = worst <= 1e-10
    _line(3, "3-torus star tables vs generic-metric oracle", ok,
          f"200 unit-determinant metrics, residual={worst:.3e} <= 1e-10")


def test_criterion_4_g2_lift(rng):
    block_worst = star_worst = 0.0
    for _ in range(200):
        t = oracles.random_positive_mix(rng) @ ta.standard_triple()
        q, mu_w = ta.normalize(t)
        g4, _ = ta.metric_from_triple(t)
        phi = fg.build_phi(t)
        g7, _ = fg.metric_from_phi(phi)
        block_worst = max(block_worst,
                          float(np.abs(g7[:3, :3] - q).max()),
                          float(np.abs(g7[3:, 3:] - g4).max()),
                          float(np.abs(g7[:3, 3:]).max()))
        psi = fg.build_psi(ta.dual_triple(t, q), mu_w)
        star_worst = max(star_worst, fg.check_star7(phi, psi, g7))
    # torsion trace on lattice-sampled non-closed data
    lat = gc.Lattice((8, 4, 4, 4))
    x = lat.grids()
    c = np.broadcast_to(ta.standard_triple(), lat.shape + (3, 6)).copy()
    c += (0.15 * np.sin(2 * np.pi * x[0]) * np.ones(lat.shape))[..., None, None] \
        * rng.uniform(-1.0, 1.0, (3, 6))
    tf = gc.TripleField(lat, c)
    assert tf.max_dabs() > 1e-3
    dome = gc.d(lat, c, 2)
    q, g, mu = gc.pointwise_normalize(tf, threshold=1e-9)
    torsion_worst = 0.0
    for _ in range(50):
        idx = tuple(int(rng.integers(0, n)) for n in lat.shape)
        val = fg.torsion_trace(fg.build_phi(c[idx]),
                               fg.assemble_dphi(dome[idx]),
                               fg.metric7_block(q[idx], g[idx]))
        torsion_worst = max(torsion_worst, abs(val))
    ok = block_worst <= 1e-9 and star_worst <= 1e-9 and torsion_worst <= 1e-9
    _line(4, "7-dimensional lift: metric blocks, star identity, torsion trace",
          ok, f"blocks={block_worst:.3e} star7={star_worst:.3e} "
              f"torsion={torsion_worst:.3e} (all <= 1e-9, 200 triples)")


@pytest.mark.slow
def test_criterion_5_fixed_point(fixed_point_runs):
    (out, elapsed), _ = fixed_point_runs
    series = _read_rows(out)
    rhs_sup = 0.0
    lat = gc.Lattice((16, 8, 8, 8))
    state = fe.init_state(fe.FlowConfig(), gc.constant_triple_field(
        lat, ta.standard_triple()))
    rhs_sup = float(np.abs(fe.rhs(state)).max())
    drift = max(np.abs(series[k] - series[k][0]).max()
                for k in ("max_dw", "min_eig_Q", "max_abs_detQ_minus_1",
                          "period_drift", "rhs_l2", "q_dev", "torsion_sample"))
    ok = rhs_sup <= 1e-12 and drift <= 1e-11 and elapsed < 30.0
    _line(5, "constant standard triple is a fixed point", ok,
          f"sup|rhs|={rhs_sup:.3e} <= 1e-12, 100-step diagnostic drift="
          f"{drift:.3e} <= 1e-11, {elapsed:.1f}s < 30s")


@pytest.mark.slow
def test_criterion_6_structural_conservation(conservation_runs):
    (out, elapsed), _ = conservation_runs
    series = _read_rows(out)
    max_dw = series["max_dw"].max()
    drift = series["period_drift"].max()
    ok = max_dw <= 1e-10 and drift <= 1e-10 and elapsed < 300.0
    _line(6, "closedness and periods conserved over 2000 steps", ok,
          f"max_dw={max_dw:.3e}, period_drift={drift:.3e} (both <= 1e-10), "
          f"{elapsed:.0f}s < 300s")


def test_criterion_7_convergence_order():
    # analytic perturbation sampled exactly on each grid; the rhs converges
    # at the stencil order against a refined-grid reference
    def sample(n):
        lat = gc.Lattice((n, 4, 4, 4))
        x = lat.grids()
        c = np.broadcast_to(ta.standard_triple(), lat.shape + (3, 6)).copy()
        c[..., 0, 0] += 0.05 * 2 * np.pi * np.cos(2 * np.pi * x[0]) \
            * np.ones(lat.shape)
        c[..., 1, 1] += 0.05 * 2 * np.pi * np.sin(2 * np.pi * x[0]) \
            * np.ones(lat.shape)
        return lat, c

    lat_ref, c_ref = sample(256)
    r_ref = fe.evaluate_rhs(lat_ref, c_ref, 4)
    errs = {}
    for n in (32, 64):
        lat, c = sample(n)
        r = fe.evaluate_rhs(lat, c, 4)
        stride = 256 // n
        errs[n] = float(np.abs(r - r_ref[::stride]).max())
    ratio = errs[32] / errs[64]
    ok = abs(ratio - 16.0) <= 0.15 * 16.0
    _line(7, "rhs converges at stencil order under refinement", ok,
          f"err(32)={errs[32]:.3e}, err(64)={errs[64]:.3e}, "
          f"ratio={ratio:.2f} within 16 +- 15%")


@pytest.mark.slow
def test_criterion_8_empirical_decay(conservation_runs):
    # decay of the Gram-deviation diagnostic at desk scale; reported as an
    # observation, with no claim beyond the cited convergence setting
    (out, _), _ = conservation_runs
    series = _read_rows(out)
    q0, qT = series["q_dev"][0], series["q_dev"][-1]
    ok = qT <= 0.5 * q0
    _line(8, "Gram deviation at least halves over the run (observation)", ok,
          f"q_dev: {q0:.3e} -> {qT:.3e} (ratio {qT / q0:.3e} <= 0.5)")


@pytest.mark.slow
def test_criterion_9_determinism(fixed_point_runs, conservation_runs):
    pairs = [fixed_point_runs, conservation_runs]
    identical = True
    for (out_a, _), (out_b, _) in pairs:
        a = (out_a / "diagnostics.csv").read_bytes()
        b = (out_b / "diagnostics.csv").read_bytes()
        identical &= (a == b)
    ok = identical
    _line(9, "repeated runs produce byte-identical diagnostics", ok,
          f"fixed-point and conservation reruns compared ({'identical' if ok else 'differ'})")


def test_zz_summary():
    print()
    for msg in RESULTS:
        print(msg)
