"""Initial triple fields for flow experiments.

All generators start from the constant standard triple and add discrete-exact
perturbations: 1-form potentials are sampled on the lattice and differentiated
with the same stencils the flow uses, so the result is closed to machine
precision from step zero, and its cohomology periods equal the standard
triple's exactly.
"""

from __future__ import annotations

import numpy as np

from . import grid_calculus as gc
from . import triple_algebra as ta
from .errors import NotPositive, ValidationError

GENERATORS = ("hyperkahler-standard", "t3-invariant", "exact-perturbation")


def _sample_potential(lat: gc.Lattice, generator: str, amplitude: float,
                      seed: int, modes: int) -> np.ndarray:
    """Random low-frequency 1-form potentials, one per triple slot: (grid, 3, 4)."""
    rng = np.random.default_rng(seed)
    x = lat.grids()
    pot = np.zeros(lat.shape + (3, 4))
    axes_allowed = (0,) if generator == "t3-invariant" else (0, 1, 2, 3)
    for i in range(3):
        for _ in range(modes):
            comp = int(rng.integers(1, 4))     # dx^0 potentials along x^0 are inert
            if generator == "t3-invariant":
                k = np.zeros(4, dtype=int)
                k[0] = int(rng.integers(1, 3))
            else:
                k = rng.integers(-1, 2, size=4)
                if not np.any(k):
                    k[int(rng.integers(0, 4))] = 1
            phase = rng.uniform(0.0, 2.0 * np.pi)
            acc = np.zeros(lat.shape)
            for a in axes_allowed:
                acc = acc + 2.0 * np.pi * k[a] * x[a] / lat.L[a]
            wave = np.sin(acc + phase)
            pot[..., i, comp] += amplitude * wave
    return pot


def _max_admissible(lat: gc.Lattice, base: np.ndarray, dpot: np.ndarray,
                    threshold: float) -> float:
    """Largest scale in [0, 1] keeping base + s * dpot positive (bisection)."""

    def ok(s):
        try:
            gc._normalize_fields(base + s * dpot, threshold)
            return True
        except NotPositive:
            return False

    lo, hi = 0.0, 1.0
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def generate_initial(lat: gc.Lattice, generator: str, amplitude: float = 0.0,
                     seed: int = 0, modes: int = 1, stencil_order: int = 4,
                     threshold: float = 1e-6) -> gc.TripleField:
    """Build a closed, positive triple field from a named generator.

    ``hyperkahler-standard`` ignores amplitude and returns the constant
    standard triple.  ``t3-invariant`` perturbs with potentials depending on
    x^0 only; ``exact-perturbation`` uses low-frequency modes in all four
    coordinates.  Raises NotPositive (reporting the maximum admissible
    amplitude for this seed) when the requested amplitude degenerates the
    triple somewhere.
    """
    tf = _generate(lat, generator, amplitude, seed, modes, stencil_order, threshold)
    tf.fields = None   # a caller may keep the field for long: hold no normalization for it
    return tf


def _generate(lat, generator, amplitude, seed, modes, stencil_order, threshold):
    """:func:`generate_initial`'s field, with the normalization its guard
    made attached (``TripleField.fields``) for a flow's first state."""
    if generator not in GENERATORS:
        raise ValidationError(f"unknown generator {generator!r}; "
                              f"choose one of {', '.join(GENERATORS)}")
    base, c = gc._fields(lat.shape, (3, 6), (3, 6))   # component-major, as flow states
    base[...] = ta.standard_triple()
    if generator == "hyperkahler-standard" or amplitude == 0.0:
        return gc.TripleField(lat, base)
    pot = _sample_potential(lat, generator, amplitude, seed, modes)
    dpot = gc.d(lat, pot, 1, stencil_order)
    np.add(base, dpot, out=c)
    try:
        return gc.TripleField(lat, c, (threshold, gc._normalize_fields(c, threshold)))
    except NotPositive as exc:
        frac = _max_admissible(lat, base, dpot, threshold)
        raise NotPositive(
            f"amplitude {amplitude:g} degenerates the triple ({exc}); "
            f"max admissible amplitude for this seed is about "
            f"{0.95 * frac * amplitude:.4g}") from exc
