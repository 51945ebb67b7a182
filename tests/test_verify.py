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


def _each(draw):
    """A stack of ``trials`` draws, one trial at a time."""
    return lambda rng, trials: np.stack([draw(rng) for _ in range(trials)])


def _dw_after_triples(rng, trials):
    # where the sampler leaves the generator is its own business, so this
    # block follows the sampler, not a per-trial loop
    verify.random_positive_mixes(rng, trials)
    return rng.uniform(-1.0, 1.0, (trials, 3, 4))


# Per check: the library function that first receives the drawn stack, the
# position of the stack among its arguments, and the stack as per-trial
# draws make it; the torsion data d(w_j) are one block drawn after the mixes.
FIRST_CALL = {
    "epsilon-contraction-determinant": (
        ta, "levi_civita_det_check", 0, _each(lambda rng: rng.uniform(-10.0, 10.0, (3, 3)))),
    "volume-cube-root-relation": (ta, "metric_from_triple", 0, _each(_oracle_triple)),
    "dual-gram-inverse": (ta, "normalize", 0, _each(_oracle_triple)),
    "triple-self-duality": (ta, "metric_from_triple", 0, _each(_oracle_triple)),
    "t3-star-1forms": (fiber_g2, "star3_t3", 2, _each(verify.random_unit_det_spd)),
    "t3-star-2forms": (fiber_g2, "star3_t3", 2, _each(verify.random_unit_det_spd)),
    "star7-dual-lift": (ta, "normalize", 0, _each(_oracle_triple)),
    "g2-metric-blocks": (ta, "normalize", 0, _each(_oracle_triple)),
    "torsion-trace-vanishing": (fiber_g2, "assemble_dphi", 0, _dw_after_triples),
}


@pytest.mark.parametrize("name", sorted(verify.CHECKS))
def test_checks_draw_like_per_trial_loops(name, monkeypatch):
    # the stack a check evaluates is, bit for bit, what per-trial draws on
    # the same seed make
    module, attr, pos, draw = FIRST_CALL[name]
    seen = []
    fn = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **kw: seen.append(a[pos]) or fn(*a, **kw))
    verify.CHECKS[name][0](np.random.default_rng(4), 30)
    expected = draw(np.random.default_rng(4), 30)
    assert np.array_equal(np.reshape(seen[0], expected.shape), expected)


@pytest.mark.parametrize("name", sorted(verify.CHECKS))
def test_batched_residual_matches_per_trial_loop(name, monkeypatch):
    # both sides evaluate the same inputs: the mixes are one fixed stack,
    # handed out whole or a row at a time, and every other draw is uniform,
    # one block or one trial at a time the same values; the residuals are
    # roundoff in O(1) quantities and agree to 1e-12 of them
    fixed = verify.random_positive_mixes(np.random.default_rng(5), 40)
    taken = [0]

    def take(rng, count):
        taken[0] += count
        return fixed[taken[0] - count:taken[0]]

    monkeypatch.setattr(verify, "random_positive_mixes", take)
    fn, bound = verify.CHECKS[name]
    batched = fn(np.random.default_rng(6), 40)
    taken[0] = 0
    rng = np.random.default_rng(6)
    per_trial = max(fn(rng, 1) for _ in range(40))
    assert abs(batched - per_trial) <= 1e-12
    assert batched <= bound and per_trial <= bound


class _ShortBlocks:
    """A generator that hands out at most ``block`` candidates a request."""

    def __init__(self, rng, block):
        self.rng, self.block = rng, block

    def uniform(self, low, high, size):
        return self.rng.uniform(low, high, (min(size[0], self.block),) + tuple(size[1:]))


def _assert_draws_like_loop(seed, count, extra, block=None, cond_max=100.0):
    # the mixes are, byte for byte, the ones a per-trial rejection loop on the
    # same seed accepts, also from a generator ``extra`` draws into its stream;
    # where the generator is left afterwards is not part of the contract
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    rng.uniform(size=extra)
    ref.uniform(size=extra)
    mixes = verify.random_positive_mixes(_ShortBlocks(rng, block) if block else rng,
                                         count, cond_max=cond_max)
    ref_mixes = np.stack([oracles.random_positive_mix(ref, cond_max) for _ in range(count)])
    assert mixes.shape == ref_mixes.shape and mixes.tobytes() == ref_mixes.tobytes()
    assert (np.linalg.det(mixes) >= 0.05).all() and (np.linalg.cond(mixes) <= cond_max).all()


@pytest.mark.parametrize("block", [None, 8])
@pytest.mark.parametrize("extra", [0, 4])
def test_sampler_draws_like_per_trial_loop(extra, block):
    # blocks of at most 8 candidates make the draw take many blocks
    for seed in range(50):
        for count in (1, 7, 1000):
            _assert_draws_like_loop(seed, count, extra, block)


@pytest.mark.parametrize("extra", [0, 4])
def test_sampler_grows_blocks_under_strict_condition(extra):
    # cond <= 2 passes ~4% of candidates, so the draw takes many blocks
    for seed in range(10):
        _assert_draws_like_loop(seed, 40, extra, cond_max=2.0)
