"""Randomized identity suites behind the ``verify`` subcommand.

Each check draws random inputs, evaluates one algebraic identity through the
library, measures the worst residual against an independent oracle (generic
defining relations, not the closed forms under test), and compares it to a
fixed bound.  The registry maps stable check names to (function, bound).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import exterior
from . import fiber_g2
from . import triple_algebra as ta
from .errors import ValidationError


def random_positive_mixes(rng, count: int, cond_max: float = 100.0,
                          det_min: float = 0.05) -> np.ndarray:
    """The first ``count`` candidates ``rng.uniform(-1, 1, (3, 3))`` with
    ``|det| >= det_min`` and condition number at most ``cond_max``, each
    negated where its determinant is negative, in the order drawn.

    Candidates come in blocks sized from the count still missing and are
    filtered a block at a time: about 87% pass at the defaults, so one
    block is usually enough and few surplus candidates pay for ``cond``.
    """
    mixes = []
    while count:
        m = rng.uniform(-1.0, 1.0, (count * 5 // 4 + 8, 3, 3))
        det = np.linalg.det(m)
        keep = np.abs(det) >= det_min
        m, det = m[keep], det[keep]
        ok = np.linalg.cond(m) <= cond_max
        mixes.append((m[ok] * np.sign(det[ok])[:, None, None])[:count])
        count -= len(mixes[-1])
    return np.concatenate(mixes)


def random_unit_det_spd(rng) -> np.ndarray:
    # drawn one by one: a batched q / det3(q) ** (1/3) differs from this in the last ulp
    m = rng.uniform(-1.0, 1.0, (3, 3))
    q = m @ m.T + 0.3 * np.eye(3)
    return q / ta.det3(q) ** (1.0 / 3.0)


def _triples(rng, trials: int) -> np.ndarray:
    """A (trials, 3, 6) stack of random positive triples."""
    return random_positive_mixes(rng, trials) @ ta.standard_triple()


def check_epsilon_contraction(rng, trials: int) -> float:
    return ta.levi_civita_det_check(rng.uniform(-10.0, 10.0, (trials, 3, 3)))


def check_volume_cube_root(rng, trials: int) -> float:
    t = _triples(rng, trials)
    _, mu_w = ta.metric_from_triple(t)
    expected = ta.det3(ta.gram(t)) ** (1.0 / 3.0)
    return float((np.abs(mu_w - expected) / mu_w).max())


def check_dual_gram_inverse(rng, trials: int) -> float:
    t = _triples(rng, trials)
    q, mu_w = ta.normalize(t)
    dual = ta.dual_triple(t, q)
    return float(np.abs(ta.gram(dual, mu_w) - ta.inv3(q)).max())


def check_self_duality(rng, trials: int) -> float:
    t = _triples(rng, trials)
    g, mu_w = ta.metric_from_triple(t)
    return float(np.abs(ta.hodge2(t, g, mu_w) - t).max())


def _t3_star_oracle(degree: int, q: np.ndarray) -> np.ndarray:
    """3-torus Hodge star straight from the defining relation, honest det
    factor; row b of the result is the star of the b-th basis form."""
    one = exterior.lex_tuples(3, 1)
    hat = ((1, 2), (2, 0), (0, 1))
    tuples, comp = (one, hat) if degree == 1 else (hat, one)
    h = np.linalg.inv(q)
    sq = np.sqrt(np.linalg.det(q))
    W = exterior.pairing_matrix(tuples, comp, 3)
    # the basis Gram matrix: column b is Lambda^k(h) applied to the b-th basis form
    G = np.swapaxes(exterior.apply_metric(h[..., None, :, :], np.eye(3), tuples), -1, -2)
    return np.swapaxes(np.linalg.solve(W, G), -1, -2) * sq[..., None, None]


def check_t3_star(degree: int, rng, trials: int) -> float:
    """The closed-form 3-torus star on ``degree``-forms against the oracle."""
    q = np.stack([random_unit_det_spd(rng) for _ in range(trials)])
    got = fiber_g2.star3_t3(degree, np.eye(3), q[:, None])   # every basis form
    return float(np.abs(got - _t3_star_oracle(degree, q)).max())


def check_star7_dual_lift(rng, trials: int) -> float:
    t = _triples(rng, trials)
    q, mu_w = ta.normalize(t)
    sigma = ta.dual_triple(t, q)
    phi = fiber_g2.build_phi(t)
    psi = fiber_g2.build_psi(sigma, mu_w)
    g7, _ = fiber_g2.metric_from_phi(phi)
    return fiber_g2.check_star7(phi, psi, g7)


def check_g2_metric_blocks(rng, trials: int) -> float:
    t = _triples(rng, trials)
    q, _ = ta.normalize(t)
    g4, _ = ta.metric_from_triple(t)
    g7, _ = fiber_g2.metric_from_phi(fiber_g2.build_phi(t))
    return float(max(np.abs(g7[..., :3, :3] - q).max(), np.abs(g7[..., 3:, 3:] - g4).max(),
                     np.abs(g7[..., :3, 3:]).max()))


def check_torsion_trace_vanishing(rng, trials: int) -> float:
    t = _triples(rng, trials)
    dw = rng.uniform(-1.0, 1.0, (trials, 3, 4))   # arbitrary non-closed data d(w_j)
    q, _ = ta.normalize(t)
    g4, _ = ta.metric_from_triple(t)
    phi = fiber_g2.build_phi(t)
    dphi = fiber_g2.assemble_dphi(dw)
    g7 = fiber_g2.metric7_block(q, g4)
    return float(np.abs(fiber_g2.torsion_trace(phi, dphi, g7)).max())


CHECKS = {
    "epsilon-contraction-determinant": (check_epsilon_contraction, 1e-10),
    "volume-cube-root-relation": (check_volume_cube_root, 1e-9),
    "dual-gram-inverse": (check_dual_gram_inverse, 1e-10),
    "triple-self-duality": (check_self_duality, 1e-10),
    "t3-star-1forms": (partial(check_t3_star, 1), 1e-10),
    "t3-star-2forms": (partial(check_t3_star, 2), 1e-10),
    "star7-dual-lift": (check_star7_dual_lift, 1e-9),
    "g2-metric-blocks": (check_g2_metric_blocks, 1e-9),
    "torsion-trace-vanishing": (check_torsion_trace_vanishing, 1e-9),
}

# identities whose sampling is per-triple rather than per-matrix get fewer
# draws so `verify --trials 1000` stays interactive
_TRIAL_SCALE = dict.fromkeys(
    ("star7-dual-lift", "g2-metric-blocks", "t3-star-1forms", "t3-star-2forms"), 0.2)


def run_suite(trials: int = 1000, seed: int = 1) -> dict:
    """Run every identity check; returns a report dict (see cli.cmd_verify).
    Each check draws the stack of its inputs on a fresh generator, the
    positive triples as filtered blocks of candidates
    (:func:`random_positive_mixes`), then evaluates its identity once on the
    stack."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    results, all_pass = {}, True
    for name, (fn, bound) in CHECKS.items():
        n = max(1, int(trials * _TRIAL_SCALE.get(name, 1.0)))
        rng = np.random.default_rng(seed)
        residual = float(fn(rng, n))
        passed = residual <= bound
        all_pass &= passed
        results[name] = {"max_residual": residual, "bound": bound,
                         "trials": n, "passed": passed}
    return {"passed": all_pass, "trials": trials, "seed": seed,
            "identities": results}
