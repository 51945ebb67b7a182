import numpy as np
import pytest

from hsflow import cli
from hsflow import fiber_g2
from hsflow import triple_algebra as ta
from hsflow import verify
from hsflow.errors import ValidationError


def test_full_suite_passes():
    report = verify.run_suite(trials=200, seed=1)
    assert report["passed"]
    for name, entry in report["identities"].items():
        assert entry["max_residual"] <= entry["bound"], name


def test_corrupted_star_table_is_named(monkeypatch):
    # negative control: a corrupted 3-torus star table must fail exactly the
    # table identities, by name
    true_star = fiber_g2.star3_t3

    def corrupted(degree, coeffs, q, tol=1e-8):
        out = true_star(degree, coeffs, q, tol)
        return out + (0.01 if degree == 1 else 0.0)

    monkeypatch.setattr(fiber_g2, "star3_t3", corrupted)
    report = verify.run_suite(trials=5, seed=2)
    assert not report["passed"]
    failing = {k for k, v in report["identities"].items() if not v["passed"]}
    assert failing == {"t3-star-1forms"}


def test_corrupted_dual_breaks_lift(monkeypatch):
    from hsflow import triple_algebra as ta
    true_dual = ta.dual_triple

    def wrong_dual(triple, q):
        return np.einsum('...ik,...km->...im', q, triple)

    monkeypatch.setattr(ta, "dual_triple", wrong_dual)
    report = verify.run_suite(trials=10, seed=3)
    failing = {k for k, v in report["identities"].items() if not v["passed"]}
    assert "star7-dual-lift" in failing or "dual-gram-inverse" in failing


@pytest.mark.parametrize("trials", [0, -5])
def test_nonpositive_trials_rejected(trials, capsys):
    with pytest.raises(ValidationError):
        verify.run_suite(trials=trials, seed=1)
    assert cli.main(["verify", "--trials", str(trials), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert "validation error" in captured.err and captured.out == ""


def _dw_after_triple(rng):
    verify.random_positive_triple(rng)
    return rng.uniform(-1.0, 1.0, (3, 4))


# Per check: the library function that first receives the drawn stack, the
# position of the stack among its arguments, and one trial's draw in the
# order the checks made them one trial at a time.
FIRST_CALL = {
    "epsilon-contraction-determinant": (
        ta, "levi_civita_det_check", 0, lambda rng: rng.uniform(-10.0, 10.0, (3, 3))),
    "volume-cube-root-relation": (ta, "metric_from_triple", 0, verify.random_positive_triple),
    "dual-gram-inverse": (ta, "normalize", 0, verify.random_positive_triple),
    "triple-self-duality": (ta, "metric_from_triple", 0, verify.random_positive_triple),
    "t3-star-1forms": (fiber_g2, "star3_t3", 2, verify.random_unit_det_spd),
    "t3-star-2forms": (fiber_g2, "star3_t3", 2, verify.random_unit_det_spd),
    "star7-dual-lift": (ta, "normalize", 0, verify.random_positive_triple),
    "g2-metric-blocks": (ta, "normalize", 0, verify.random_positive_triple),
    "torsion-trace-vanishing": (fiber_g2, "assemble_dphi", 0, _dw_after_triple),
}


@pytest.mark.parametrize("name", sorted(verify.CHECKS))
def test_checks_draw_like_per_trial_loops(name, monkeypatch):
    # the stack a check evaluates is, bit for bit, what a per-trial loop on
    # the same seed draws
    module, attr, pos, draw = FIRST_CALL[name]
    seen = []
    fn = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **kw: seen.append(a[pos]) or fn(*a, **kw))
    verify.CHECKS[name][0](np.random.default_rng(4), 30)
    rng = np.random.default_rng(4)
    expected = np.stack([draw(rng) for _ in range(30)])
    assert np.array_equal(np.reshape(seen[0], expected.shape), expected)


@pytest.mark.parametrize("name", sorted(verify.CHECKS))
def test_batched_residual_matches_per_trial_loop(name):
    # one trial at a time on one generator consumes the same draws; the
    # residuals are roundoff in O(1) quantities and agree to 1e-12 of them
    fn, bound = verify.CHECKS[name]
    batched = fn(np.random.default_rng(6), 40)
    rng = np.random.default_rng(6)
    per_trial = max(fn(rng, 1) for _ in range(40))
    assert abs(batched - per_trial) <= 1e-12
    assert batched <= bound and per_trial <= bound
