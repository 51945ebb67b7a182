"""Discrete exterior calculus on flat periodic 4-torus lattices.

A scalar field is an array of shape ``(n0, n1, n2, n3)``; a degree-k form
field appends a trailing component axis over the same bases used by the
pointwise modules (1-forms ``(e0..e3)``, 2-forms ``(e01, e02, e03, e23, e31,
e12)``, 3-forms lexicographic).  Arrays are C-ordered, so x3 is the fastest
grid axis; any extra batch axes sit between the grid axes and the component
axis (a triple field is ``(n0, n1, n2, n3, 3, 6)``).

Derivatives are periodic central differences (2nd or 4th order).  Because
shifted stencils commute exactly, d ∘ d vanishes to roundoff and the period
integrals of exact forms vanish to roundoff — the discrete counterparts of
closedness and cohomology preservation that the flow engine relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exterior
from . import triple_algebra as ta

NCOMP = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}

_BASES = {
    0: ((),),
    1: ta.LAMBDA1_TUPLES,
    2: ta.LAMBDA2_TUPLES,
    3: ta.LAMBDA3_TUPLES,
    4: ((0, 1, 2, 3),),
}

_D_TABLE = {k: exterior.d_entries(_BASES[k], _BASES[k + 1], 4) for k in range(4)}

# axis pairs of the six coordinate 2-tori, matching the 2-form component order
PERIOD_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


@dataclass(frozen=True)
class Lattice:
    """Uniform periodic grid on a flat 4-torus: points per axis and period lengths."""

    n: tuple[int, int, int, int]
    L: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.n) != 4 or len(self.L) != 4:
            raise ValueError("lattice needs four axis sizes and four lengths")
        if any(int(m) < 4 for m in self.n):
            raise ValueError("need at least 4 points per axis for the stencils")
        if any(l <= 0 for l in self.L):
            raise ValueError("period lengths must be positive")
        object.__setattr__(self, 'n', tuple(int(m) for m in self.n))
        object.__setattr__(self, 'L', tuple(float(l) for l in self.L))

    @property
    def h(self) -> tuple[float, float, float, float]:
        return tuple(l / m for l, m in zip(self.L, self.n))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.n

    @property
    def num_points(self) -> int:
        return int(np.prod(self.n))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.n[axis]) * self.h[axis]

    def grids(self):
        """Coordinate arrays broadcastable to the grid shape."""
        out = []
        for a in range(4):
            shape = [1, 1, 1, 1]
            shape[a] = self.n[a]
            out.append(self.axis_coords(a).reshape(shape))
        return tuple(out)


def zeros_form(lat: Lattice, k: int, batch: tuple = ()) -> np.ndarray:
    return np.zeros(lat.shape + batch + (NCOMP[k],))


def partial(lat: Lattice, f: np.ndarray, axis: int, order: int = 4) -> np.ndarray:
    """Periodic central difference along a grid axis (axes 0..3 of the array).

    Grouped as differences of shifted copies, so fields constant along the
    axis are annihilated exactly, not merely to roundoff.
    """
    h = lat.h[axis]
    if order == 2:
        return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)
    if order == 4:
        inner = np.roll(f, -1, axis) - np.roll(f, 1, axis)
        outer = np.roll(f, -2, axis) - np.roll(f, 2, axis)
        return (8.0 * inner - outer) / (12.0 * h)
    raise ValueError("stencil order must be 2 or 4")


def d(lat: Lattice, f: np.ndarray, k: int, order: int = 4) -> np.ndarray:
    """Exterior derivative of a degree-k form field (component axis last)."""
    if k >= 4:
        raise ValueError("no 5-forms on a 4-manifold")
    out = np.zeros(f.shape[:-1] + (NCOMP[k + 1],))
    for dst, src, axis, sign in _D_TABLE[k]:
        out[..., dst] += sign * partial(lat, f[..., src], axis, order)
    return out


def codiff2(lat: Lattice, beta: np.ndarray, g: np.ndarray, mu_g: np.ndarray,
            order: int = 4, h: np.ndarray | None = None) -> np.ndarray:
    """Metric codifferential of a 2-form field: d* beta = -*4 d *4 beta.

    ``g`` is the pointwise metric field (grid..., 4, 4) and ``mu_g`` its
    volume coefficient sqrt(det g).  Pass ``h`` to reuse a precomputed
    inverse metric, as the flow does with the one its normalization keeps.
    Without it, ``g`` must be positive definite (NotPositive names the first
    point where it is not) and g^-1 comes from the same adjugate-over-
    determinant helper as ``hodge2``.  ``beta`` may carry one batch axis
    before the component axis (e.g. a whole triple at once).
    """
    if h is None:
        h = ta._inverse4(g, "codiff2: metric")
    starred = ta.star2(beta, h, mu_g)
    three = d(lat, starred, 2, order)
    return -ta.star3(three, g, mu_g)


def periods(lat: Lattice, w: np.ndarray) -> np.ndarray:
    """Integrals of a 2-form field over the six coordinate 2-tori.

    The (ab) period is the uniform Riemann sum of the (ab) component over the
    (a, b) plane, averaged over the transverse axes; for closed fields these
    are the cohomology pairings with the coordinate tori and are invariant,
    to roundoff, under adding any discrete-exact form.
    """
    mean = w.mean(axis=(0, 1, 2, 3))
    areas = np.array([lat.L[a] * lat.L[b] for a, b in PERIOD_PAIRS])
    return mean * areas


@dataclass
class TripleField:
    """Three 2-form fields sharing one lattice; the flow's state variable."""

    lattice: Lattice
    c: np.ndarray   # (n0, n1, n2, n3, 3, 6)

    def __post_init__(self):
        expected = self.lattice.shape + (3, 6)
        if self.c.shape != expected:
            raise ValueError(f"triple field shape {self.c.shape} != {expected}")

    def copy(self) -> "TripleField":
        return TripleField(self.lattice, self.c.copy())

    def max_dabs(self, order: int = 4) -> float:
        """Sup-norm of the exterior derivatives of the three forms."""
        return float(np.abs(d(self.lattice, self.c, 2, order)).max())

    def periods(self) -> np.ndarray:
        """(3, 6) array of the cohomology periods of each form."""
        return np.stack([periods(self.lattice, self.c[..., i, :]) for i in range(3)])


def constant_triple_field(lat: Lattice, triple: np.ndarray) -> TripleField:
    c = np.broadcast_to(np.asarray(triple, dtype=float), lat.shape + (3, 6)).copy()
    return TripleField(lat, c)


def _normalize_fields(c: np.ndarray, threshold: float | None = None):
    """``(q, g, mu, h, eig)``: see pointwise_normalize; ``h`` is the inverse
    metric.  The Gram eigenvalue guard runs exactly when a ``threshold`` is
    given; ``eig`` is then the eigenvalues' (per-point largest, overall
    smallest), else None."""
    g, s, cof, det = ta._metric_parts(c, 0.0)
    h = ta._adjugate4(cof) * (s / det)[..., None, None]   # g^-1 = s adj(K) / det K
    q = ta.gram(c, s)
    if threshold is None:
        return q, g, s, h, None
    lam = np.linalg.eigvalsh(q)
    min_eig = lam[..., 0]
    lowest = float(min_eig.min())
    ta._require_positive(min_eig > threshold,
                         f"Gram matrix eigenvalue {lowest:.3e} <= {threshold:g}")
    # a copy: a view would keep the whole (grid, 3) eigenvalue array alive
    return q, g, s, h, (lam[..., -1].copy(), lowest)


def pointwise_normalize(tf: TripleField, threshold: float = 1e-6):
    """Per-point metric, volume, and unit-determinant Gram of a triple field.

    Returns ``(q, g, mu_w)`` with shapes (grid, 3, 3), (grid, 4, 4), (grid,).
    The Gram matrix is taken against the triple's own Riemannian volume at
    every point, so det q = 1 everywhere.  Raises NotPositive, naming the
    first offending lattice index, when the metric density degenerates or the
    smallest Gram eigenvalue drops to ``threshold`` or below.
    """
    return _normalize_fields(tf.c, threshold)[:3]
