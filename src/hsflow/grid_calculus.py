"""Discrete exterior calculus on flat periodic 4-torus lattices.

A scalar field is an array of shape ``(n0, n1, n2, n3)``, x3 the fastest
axis; a degree-k form field appends a trailing component axis over the same
bases used by the pointwise modules (1-forms ``(e0..e3)``, 2-forms ``(e01,
e02, e03, e23, e31, e12)``, 3-forms lexicographic), and any batch axes sit
between the grid axes and the component axis (a triple field is ``(n0, n1,
n2, n3, 3, 6)``).  That is the layout of the API.  Inside the flow's
right-hand side the same shapes are views of component-major memory, ``(3,
6, n0, n1, n2, n3)``, where each component is one contiguous scalar field
that the stencils and pointwise kernels read without strides.

Derivatives are periodic central differences (2nd or 4th order).  Because
shifted stencils commute exactly, d ∘ d vanishes to roundoff and the period
integrals of exact forms vanish to roundoff — the discrete counterparts of
closedness and cohomology preservation that the flow engine relies on.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import exterior
from . import triple_algebra as ta
from .errors import NotPositive

NCOMP = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}

_BASES = {
    0: ((),),
    1: ta.LAMBDA1_TUPLES,
    2: ta.LAMBDA2_TUPLES,
    3: ta.LAMBDA3_TUPLES,
    4: ((0, 1, 2, 3),),
}

_D_TABLE = {k: exterior.d_entries(_BASES[k], _BASES[k + 1], 4) for k in range(4)}


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
        if not all(0 < l < math.inf for l in self.L):
            raise ValueError("period lengths must be positive and finite")
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


# Each slab holds at least SLAB_POINTS points.  One right-hand side in two
# slabs against one, on 2 cores (medians of 9 alternating runs): 8192 points
# 31 -> 30 ms (faster in 4 of 9), 16384 points 47-56 -> 42-52 ms (mixed),
# 32768 points 108-115 -> 83 ms, 65536 points 172-206 -> 112-117 ms.  Slabs
# of 32768 points stay well past that crossover; lattices under 65536
# points, 64x4x4x4 and 16x8x8x8 among them, run on one thread.
SLAB_POINTS = 32768
_pool, _workers = None, 1   # the threads of slab_threads, while it holds them


@contextmanager
def slab_threads(workers: int):
    """Run the slabs (see :func:`_slabs`) of the block's stages on up to
    ``workers`` threads, the calling one among them; on exit, also by a
    raise, shut the others down and put back the previous ones."""
    from concurrent.futures import ThreadPoolExecutor   # here: only hsflow flow needs it
    global _pool, _workers
    saved = _pool, _workers
    with ThreadPoolExecutor(workers, "hsflow-slab") as pool:
        _pool, _workers = pool, workers
        try:
            yield
        finally:
            _pool, _workers = saved


def _slabs(shape: tuple) -> list:
    """The slabs, ranges of axis-0 planes, in which the pointwise stages run
    on a lattice (or batch) of ``shape``: in :func:`slab_threads` of
    ``workers``, ``min(workers, points // SLAB_POINTS)`` of them, as even as
    can be; else one, ``...``.  Slabs start on the metric density's blocks
    (``triple_algebra._DENSITY_BLOCK``), so that it sums each block of points
    as a serial run does; a lattice that cannot be cut so is one slab."""
    points = math.prod(shape)
    count = min(_workers, points // SLAB_POINTS)
    if count < 2:
        return [...]
    # planes per block boundary, and the slabs' count in units of those
    unit = ta._DENSITY_BLOCK // math.gcd(ta._DENSITY_BLOCK, points // shape[0])
    units = shape[0] // unit
    count = min(count, units)
    if count < 2:
        return [...]
    bounds = [units * i // count * unit for i in range(count)] + [shape[0]]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _each(fn, items) -> None:
    """``fn(item)`` for every item: the first on the calling thread and the
    others on the slab threads, which there are when there are several.
    Returns when all are done and raises the first item's exception, if
    any.  ``fn`` must not submit to the slab threads.

    The calling thread takes a share, so ``n`` items occupy ``n - 1`` slab
    threads.  Each thread's allocator arena keeps what its share freed; with
    every share on the slab threads, the peak RSS of a 32x16x16x16 flow was
    7% higher (387 against 361 MB)."""
    futures = [_pool.submit(fn, item) for item in items[1:]]
    try:
        fn(items[0])
    finally:
        for future in futures:
            future.exception()   # waits, without raising
    for future in futures:
        future.result()


def _by_slab(shape: tuple, stage, *cores):
    """``stage(slab, *out)`` for every slab of a lattice of ``shape`` (see
    :func:`_slabs`); returns its outputs, one array per core (a shape such
    as ``(3, 6)``, or ``()`` for a scalar field).

    With one slab, ``out`` is all None: the stage's kernels make their own
    output arrays, and the stage returns them.  With several, ``out`` are
    the slab's parts of lattice-wide component-major arrays, which the
    stage's kernels write.  A NotPositive in a slab is raised again by the
    stage run as one slab, so that its message, which names the first
    failing lattice index of the whole lattice, is word for word a serial
    run's."""
    slabs = _slabs(shape)
    if len(slabs) == 1:
        return stage(..., *(None for _ in cores))
    outs = tuple(ta._pointwise(ta._component_major(core, shape), len(core)) for core in cores)
    try:
        _each(lambda at: stage(at, *(out[at] for out in outs)), slabs)
    except NotPositive:
        stage(..., *outs)
        raise
    return outs if len(outs) > 1 else outs[0]


def _shift_difference(rows: np.ndarray, s: int) -> np.ndarray:
    """``f[j + s] - f[j - s]`` along the last axis of ``rows``, periodic in
    each row.  The bulk is one subtraction over the flattened rows; the
    ``s`` entries at each end of a row, which wrap, are then overwritten."""
    out = np.empty(rows.shape)
    flat, flat_out = rows.reshape(rows.shape[:-2] + (-1,)), out.reshape(out.shape[:-2] + (-1,))
    np.subtract(flat[..., 2 * s:], flat[..., :-2 * s], out=flat_out[..., s:-s])
    np.subtract(rows[..., s:2 * s], rows[..., -s:], out=out[..., :s])
    np.subtract(rows[..., :s], rows[..., -2 * s:-s], out=out[..., -s:])
    return out


def partial(lat: Lattice, f: np.ndarray, axis: int, order: int = 4) -> np.ndarray:
    """Periodic central difference along a grid axis of a scalar field or a
    stack of them, ``(..., n0, n1, n2, n3)``: the grid axes are the last four.

    Grouped as differences of shifted values, so fields constant along the
    axis are annihilated exactly, not merely to roundoff.
    """
    if order not in (2, 4):
        raise ValueError("stencil order must be 2 or 4")
    f = np.asarray(f, dtype=float)
    step = int(np.prod(f.shape[f.ndim - 3 + axis:]))   # elements per step along the axis
    rows = f.reshape(f.shape[:-4] + (-1, f.shape[axis - 4] * step))
    out = _shift_difference(rows, step)
    if order == 2:
        out /= 2.0 * lat.h[axis]
    else:
        out *= 8.0
        out -= _shift_difference(rows, 2 * step)
        out /= 12.0 * lat.h[axis]
    return out.reshape(f.shape)


def _d(lat: Lattice, f: np.ndarray, k: int, order: int = 4) -> np.ndarray:
    """:func:`d`'s kernel: it differentiates component-major memory, which it
    copies ``f`` into unless ``f`` is already a view of it, and returns a
    view of component-major memory.

    Each output component sums its terms of the assembly table in table
    order.  On a lattice of several slabs (see :func:`_slabs`), the
    components are dealt out to one thread per slab, each summing into its
    own memory, so the result is the same at any worker count.
    """
    if k >= 4:
        raise ValueError("no 5-forms on a 4-manifold")
    tail = np.ndim(f) - 4
    f = ta._entries(f, tail)
    # the sums run on a flat view of the grid, which numpy updates in place
    # without a temporary copy
    out = ta._component_major(f.shape[:-5] + (NCOMP[k + 1],), (lat.num_points,), np.zeros)

    def components(share):   # the terms of every count-th output component
        for dst, src, axis, sign in _D_TABLE[k]:
            if dst % count != share:
                continue
            term = partial(lat, f[..., src, :, :, :, :], axis, order).reshape(out[..., dst, :].shape)
            if sign > 0:
                out[..., dst, :] += term
            else:
                out[..., dst, :] -= term
    count = len(_slabs(lat.shape))
    _each(components, range(count))
    return ta._pointwise(out.reshape(out.shape[:-1] + lat.shape), tail)


def d(lat: Lattice, f: np.ndarray, k: int, order: int = 4) -> np.ndarray:
    """Exterior derivative of a degree-k form field (component axis last),
    returned C-ordered."""
    return np.ascontiguousarray(_d(lat, f, k, order))


def codiff2(lat: Lattice, beta: np.ndarray, g: np.ndarray, mu_g: np.ndarray,
            order: int = 4) -> np.ndarray:
    """Metric codifferential of a 2-form field: d* beta = -*4 d *4 beta.

    ``g`` is the pointwise metric field (grid..., 4, 4) and ``mu_g`` its
    volume coefficient sqrt(det g).  ``g`` must be positive definite
    (NotPositive names the first point where it is not); g^-1 comes from the
    same adjugate-over-determinant helper as ``hodge2``.  ``beta`` may carry
    one batch axis before the component axis (e.g. a whole triple at once).
    The result is a view of component-major memory.
    """
    h = ta._inverse4(g, "codiff2: metric")
    # -*4 is *4 with the volume coefficient negated: x / -mu = -(x / mu) exactly
    return ta.star3(_d(lat, ta.star2(beta, h, mu_g), 2, order), g, np.negative(mu_g))


def periods(lat: Lattice, w: np.ndarray) -> np.ndarray:
    """Integrals of a 2-form field over the six coordinate 2-tori.

    The (ab) period is the uniform Riemann sum of the (ab) component over the
    (a, b) plane, averaged over the transverse axes; for closed fields these
    are the cohomology pairings with the coordinate tori and are invariant,
    to roundoff, under adding any discrete-exact form.
    """
    mean = w.mean(axis=(0, 1, 2, 3))
    areas = np.array([lat.L[a] * lat.L[b] for a, b in ta.LAMBDA2_TUPLES])
    return mean * areas


@dataclass
class TripleField:
    """Three 2-form fields sharing one lattice; the flow's state variable.

    ``fields`` is a guarded normalization of ``c`` made while the field was
    built, ``(threshold, _normalize_fields(c, threshold))``; the first
    request for it (:meth:`normalized`) takes it over, so it is computed
    once and not kept past its use.  ``c`` must not change in place while it
    is attached.
    """

    lattice: Lattice
    c: np.ndarray   # (n0, n1, n2, n3, 3, 6)
    fields: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        expected = self.lattice.shape + (3, 6)
        if self.c.shape != expected:
            raise ValueError(f"triple field shape {self.c.shape} != {expected}")

    def normalized(self, threshold: float):
        """``_normalize_fields(self.c, threshold)``: the attached
        ``fields`` when they were made at ``threshold``, else computed now."""
        kept, self.fields = self.fields, None
        if kept is not None and kept[0] == threshold:
            return kept[1]
        return _normalize_fields(self.c, threshold)

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
    metric.  ``q``, ``g`` and ``h`` are views of component-major memory, and
    ``c`` may be one.  The metric, ``h`` and ``q`` are computed per slab of
    the lattice (see :func:`_slabs`), on the slab threads when there are
    several, each slab writing its part of the lattice-wide arrays; every
    point's values are those of one serial run.

    The Gram eigenvalue guard runs exactly when a ``threshold`` is given.
    ``eig`` is then ``(top, lowest)``, else None.  ``lowest``, the smallest
    Gram eigenvalue anywhere, is LAPACK's value, and so are the guard's
    decision and the lowest value and first failing lattice index it
    reports; LAPACK runs only where the closed-form estimate of a point's
    smallest eigenvalue lies within its radius of the threshold or of the
    lattice minimum (see ``triple_algebra.SCREEN_MARGIN``).  ``top`` is an
    estimate, the bracket ``(lo, hi)`` that holds each point's largest Gram
    eigenvalue.
    """
    def slab(at, q, g, s, h):
        g, s, cof, det = ta._metric_parts(c[at], 0.0, g, s)
        h = ta._adjugate4(cof, np.multiply, s / det, h)   # g^-1 = s adj(K) / det K
        return ta.gram(c[at], s, q), g, s, h
    q, g, s, h = _by_slab(c.shape[:-2], slab, (3, 3), (4, 4), (), (4, 4))
    if threshold is None:
        return q, g, s, h, None
    bottom, top, radius = ta._gram_extremes(q)
    decides = max(threshold, float(np.min(bottom + radius)))
    index, lam = ta._screened_eigvalsh(q, bottom - radius <= decides)
    min_eig = lam[:, 0]
    lowest = float(min_eig.min())
    ok = np.ones(q.shape[:-2], dtype=bool)
    ok.flat[index] = min_eig > threshold
    ta._require_positive(ok, f"Gram matrix eigenvalue {lowest:.3e} <= {threshold:g}")
    return q, g, s, h, ((top - radius, top + radius), lowest)


def pointwise_normalize(tf: TripleField, threshold: float = 1e-6):
    """Per-point metric, volume, and unit-determinant Gram of a triple field.

    Returns ``(q, g, mu_w)`` with shapes (grid, 3, 3), (grid, 4, 4), (grid,).
    The Gram matrix is taken against the triple's own Riemannian volume at
    every point, so det q = 1 everywhere.  Raises NotPositive, naming the
    first offending lattice index, when the metric density degenerates or the
    smallest Gram eigenvalue drops to ``threshold`` or below.
    """
    return tf.normalized(threshold)[:3]
