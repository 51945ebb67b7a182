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


def random_mix(rng, cond_max: float = 100.0, det_min: float = 0.05) -> np.ndarray:
    """Random invertible 3x3 mix with positive determinant and bounded condition."""
    while True:
        m = rng.uniform(-1.0, 1.0, (3, 3))
        d = np.linalg.det(m)
        if abs(d) < det_min:
            continue
        if np.linalg.cond(m) > cond_max:
            continue
        return m if d > 0 else -m


def random_positive_triple(rng, cond_max: float = 100.0) -> np.ndarray:
    return random_mix(rng, cond_max) @ ta.standard_triple()


def random_unit_det_spd(rng) -> np.ndarray:
    m = rng.uniform(-1.0, 1.0, (3, 3))
    q = m @ m.T + 0.3 * np.eye(3)
    return q / ta.det3(q) ** (1.0 / 3.0)


def _triples(rng, trials: int) -> np.ndarray:
    """A (trials, 3, 6) stack of random positive triples, drawn one by one."""
    return np.stack([random_positive_triple(rng) for _ in range(trials)])


def check_epsilon_contraction(rng, trials: int) -> float:
    s = np.stack([rng.uniform(-10.0, 10.0, (3, 3)) for _ in range(trials)])
    return ta.levi_civita_det_check(s)


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
    h = np.linalg.inv(q)
    sq = np.sqrt(np.linalg.det(q))
    if degree == 1:
        W = exterior.pairing_matrix(one, hat, 3)
        G = exterior.metric_gram(h, one)
    else:
        W = exterior.pairing_matrix(hat, one, 3)
        G = exterior.metric_gram(h, hat)
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
    # arbitrary non-closed data d(w_j), drawn after each triple
    draws = [(random_positive_triple(rng), rng.uniform(-1.0, 1.0, (3, 4)))
             for _ in range(trials)]
    t = np.stack([tr for tr, _ in draws])
    q, _ = ta.normalize(t)
    g4, _ = ta.metric_from_triple(t)
    phi = fiber_g2.build_phi(t)
    dphi = fiber_g2.assemble_dphi(np.stack([dw for _, dw in draws]))
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
_TRIAL_SCALE = {
    "star7-dual-lift": 0.2,
    "g2-metric-blocks": 0.2,
    "t3-star-1forms": 0.2,
    "t3-star-2forms": 0.2,
}


def run_suite(trials: int = 1000, seed: int = 1) -> dict:
    """Run every identity check; returns a report dict (see cli.cmd_verify).
    Each check draws its inputs one trial at a time, then evaluates its
    identity once on the stack."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    results = {}
    all_pass = True
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
