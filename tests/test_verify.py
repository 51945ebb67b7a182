import numpy as np
import pytest

import oracles
from hsflow import cli
from hsflow import fiber_g2
from hsflow import triple_algebra as ta
from hsflow import verify
from hsflow.errors import ValidationError

STD = ta.standard_triple()


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


def _oracle_triple(rng):
    return oracles.random_positive_mix(rng) @ STD


def _dw_after_triple(rng):
    _oracle_triple(rng)
    return rng.uniform(-1.0, 1.0, (3, 4))


# Per check: the library function that first receives the drawn stack, the
# position of the stack among its arguments, and one trial's draw in the
# order the checks made them one trial at a time.
FIRST_CALL = {
    "epsilon-contraction-determinant": (
        ta, "levi_civita_det_check", 0, lambda rng: rng.uniform(-10.0, 10.0, (3, 3))),
    "volume-cube-root-relation": (ta, "metric_from_triple", 0, _oracle_triple),
    "dual-gram-inverse": (ta, "normalize", 0, _oracle_triple),
    "triple-self-duality": (ta, "metric_from_triple", 0, _oracle_triple),
    "t3-star-1forms": (fiber_g2, "star3_t3", 2, verify.random_unit_det_spd),
    "t3-star-2forms": (fiber_g2, "star3_t3", 2, verify.random_unit_det_spd),
    "star7-dual-lift": (ta, "normalize", 0, _oracle_triple),
    "g2-metric-blocks": (ta, "normalize", 0, _oracle_triple),
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


def _oracle_mixes(rng, count, extra, cond_max=100.0):
    """The per-trial loop: a mix, then ``extra`` rows of three draws."""
    draws = [(oracles.random_positive_mix(rng, cond_max), rng.uniform(-1.0, 1.0, (extra, 3)))
             for _ in range(count)]
    return np.stack([m for m, _ in draws]), np.stack([r for _, r in draws])


def _assert_draws_like_loop(seed, count, extra, cond_max=100.0):
    rng = np.random.default_rng(seed)
    if seed % 2:
        rng.integers(9, dtype=np.uint32)   # leaves a buffered 32-bit half
    ref = np.random.default_rng(seed)
    ref.bit_generator.state = rng.bit_generator.state
    mixes, extras = verify.random_positive_mixes(rng, count, extra, cond_max)
    ref_mixes, ref_extras = _oracle_mixes(ref, count, extra, cond_max)
    assert mixes.shape == ref_mixes.shape and mixes.tobytes() == ref_mixes.tobytes()
    assert extras.shape == ref_extras.shape and extras.tobytes() == ref_extras.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.uniform() == ref.uniform()


@pytest.mark.parametrize("block", [None, 8])
@pytest.mark.parametrize("extra", [0, 4])
def test_sampler_draws_like_per_trial_loop(extra, block, monkeypatch):
    # bit for bit: the stack, the rows drawn after each mix and the generator
    # afterwards; blocks of 8 rows make candidates straddle blocks
    if block:
        monkeypatch.setattr(verify, "_BLOCK_ROWS", block)
    for seed in range(50):
        for count in (1, 7, 1000):
            _assert_draws_like_loop(seed, count, extra)


@pytest.mark.parametrize("extra", [0, 4])
def test_sampler_grows_blocks_under_strict_condition(extra):
    # cond <= 2 accepts ~4% of candidates, so the first block runs out
    for seed in range(10):
        _assert_draws_like_loop(seed, 40, extra, cond_max=2.0)
