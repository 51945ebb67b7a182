"""The paper's descent at an instant: the flow of a closed triple is the
Laplacian coflow of its lifted G2 structure on T³ × X⁴.

Lift the triple w to the 4-form psi = mu e0123 - sum dt^{jk} ∧ w_i
(``fiber_g2.build_psi(w, mu)``).  Its 7-dimensional star is phi' =
``build_phi(sigma)``, sigma = adj(Q) w, in the metric g7 = diag(adj(Q), g).
For T³-invariant forms the 7-dimensional d is the lattice d in the four base
directions, so the coflow's velocity d d* psi = d *7 d phi' is formed here
from ``assemble_dphi``, ``hodge7``, ``exterior.wedge_table`` and
``gc.partial``, independently of the flow engine.  Its dt^{jk} ∧ Λ²
components are those of d psi/dt = ``build_psi(evaluate_rhs(w), 0)``, and
the others (e0123, dt^j ∧ Λ³ and dt123 ∧ Λ¹) are exactly 0.

The data sit at 0.99 of the admissible amplitude, near the edge of the
positive cone, where the smallest Gram eigenvalue is about 0.04.
"""

from functools import lru_cache

import numpy as np
import pytest

from hsflow import exterior
from hsflow import fiber_g2 as fg
from hsflow import flow_engine as fe
from hsflow import grid_calculus as gc
from hsflow import initial_data
from hsflow import triple_algebra as ta

# the 7-dimensional d of a T³-invariant 3-form: e^a ∧ over the base directions 3..6
D7 = exterior.wedge_table([(3,), (4,), (5,), (6,)], fg.LAMBDA3_7, fg.LAMBDA4_7)
# the 4-form components that dt^{jk} ∧ Λ² spans, where psi holds the triple
COUPLED = sorted({p for p, *_ in fg._PSI})
UNCOUPLED = [p for p in range(35) if p not in COUPLED]
LATTICES = {"t3-invariant": (16, 4, 4, 4), "exact-perturbation": (8, 8, 4, 4)}


@lru_cache(maxsize=None)
def near_edge(generator: str, order: int) -> tuple:
    """A closed triple of ``generator`` (seed 3) at 0.99 of its admissible
    amplitude, and its lattice."""
    lat = gc.Lattice(LATTICES[generator])
    base = np.broadcast_to(ta.standard_triple(), lat.shape + (3, 6))
    dpot = gc.d(lat, initial_data._sample_potential(lat, generator, 1.0, 3, 1), 1, order)
    return lat, base + 0.99 * initial_data._max_admissible(lat, base, dpot, 1e-6) * dpot


def coflow_velocity(lat, sigma, g7, order: int) -> np.ndarray:
    """d *7 d phi' on the lattice, phi' = build_phi(sigma): (grid, 35)."""
    beta = fg.hodge7(fg.assemble_dphi(gc.d(lat, sigma, 2, order)), g7, 4)
    out = np.zeros(lat.shape + (35,))
    for a, m, p in zip(*np.nonzero(D7)):
        out[..., p] += D7[a, m, p] * gc.partial(lat, beta[..., m], a, order)
    return out


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("generator", sorted(LATTICES))
def test_flow_is_the_coflow_of_the_lift(generator, order, workers, monkeypatch):
    lat, w = near_edge(generator, order)
    if workers > 1:
        monkeypatch.setattr(gc, "SLAB_POINTS", 128)   # eight pieces on two threads
    with gc.slab_threads(workers):
        q, g, mu, _ = gc._normalize_fields(w, 1e-6)
        r = fe.evaluate_rhs(lat, w, order)
        adj = ta.adj3(q)
        sigma = np.einsum('...ik,...km->...im', adj, w)   # Q^-1 w, as det Q = 1
        g7 = fg.metric7_block(adj, g)
        velocity = coflow_velocity(lat, sigma, g7, order)
    dpsi = fg.build_psi(r, 0.0)
    scale = np.abs(dpsi).max()
    assert np.abs(velocity[..., COUPLED] - dpsi[..., COUPLED]).max() <= 1e-12 * scale
    assert not np.any(velocity[..., UNCOUPLED])
    # psi and phi' are each other's stars; the residual is relative to phi',
    # which grows as Q nears the cone's edge (3e-13 absolute here)
    phi = fg.build_phi(sigma)
    assert np.abs(fg.hodge7(phi, g7, 3) - fg.build_psi(w, mu)).max() <= 1e-13 * np.abs(phi).max()
