"""Discrete exterior calculus on flat periodic 4-torus lattices.

A scalar field is an array of shape ``(n0, n1, n2, n3)``, x3 the fastest
axis; a degree-k form field appends a trailing component axis over the same
bases used by the pointwise modules (1-forms ``(e0..e3)``, 2-forms ``(e01,
e02, e03, e23, e31, e12)``, 3-forms lexicographic), and any batch axes sit
between the grid axes and the component axis (a triple field is ``(n0, n1,
n2, n3, 3, 6)``).  That is the layout of the API.  The flow's states and
right-hand side use the same shapes as views of component-major memory, ``(3,
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
        return math.prod(self.n)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.arange(self.n[axis]) * self.h[axis]

    def grids(self):
        """Coordinate arrays broadcastable to the grid shape."""
        return tuple(self.axis_coords(a).reshape([-1 if b == a else 1 for b in range(4)])
                     for a in range(4))


# Each slab holds at least SLAB_POINTS points, and each piece of a stage at most (256 kB
# per scalar temporary: see _pieces).  One right-hand side in two slabs against one, on
# 2 cores (medians of 9 alternating runs): 8192 points 31 -> 30 ms (faster in 4 of 9),
# 16384 points 47-56 -> 42-52 ms (mixed), 32768 points 108-115 -> 83 ms, 65536 points
# 172-206 -> 112-117 ms.  Slabs of 32768 points stay well past that crossover; lattices
# under 65536 points, 64x4x4x4 and 16x8x8x8 among them, run on one thread.
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
    ``workers``, ``min(workers, points // SLAB_POINTS, planes)`` of them,
    the planes split as evenly as can be; else one, ``...``.  Every
    pointwise kernel gives each point the same bits in any slab."""
    count = min(_workers, math.prod(shape) // SLAB_POINTS, shape[0])
    if count < 2:
        return [...]
    bounds = [shape[0] * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _pieces(shape: tuple, slab=...) -> list:
    """The ranges ``(a, b)`` of axis-0 planes covering ``slab`` (see :func:`_slabs`)
    of ``shape``, at most SLAB_POINTS points each (one plane if it holds more)."""
    planes = max(1, SLAB_POINTS // math.prod(shape[1:]))
    start, stop, _ = (slice(None) if slab is ... else slab).indices(shape[0])
    return [(a, min(a + planes, stop)) for a in range(start, stop, planes)]


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


def _fields(shape: tuple, *cores) -> tuple:
    """New component-major arrays seen as ``shape + core``, one per core (a
    shape such as ``(3, 6)``, or ``()`` for a scalar field)."""
    return tuple(ta._pointwise(np.empty(core + shape), len(core)) for core in cores)


def _by_slab(shape: tuple, stage, *arrays) -> None:
    """``stage(*parts)`` for every slab of a lattice of ``shape`` (see
    :func:`_slabs`), in its pieces (:func:`_pieces`), ``parts`` the piece's
    parts of ``arrays``, lattice-wide arrays that the stage reads or writes.
    A NotPositive in one of several pieces is raised again by the stage run
    on the whole lattice, so that its message, naming the first failing
    lattice index, is word for word that of a run in one piece."""
    def pieces(slab):
        for a, b in _pieces(shape, slab):
            stage(*(x[a:b] for x in arrays))
    try:
        _each(pieces, _slabs(shape))
    except NotPositive:
        if len(_pieces(shape)) > 1:
            stage(*arrays)
        raise


def _shift_difference(rows: np.ndarray, s: int) -> np.ndarray:
    """``f[j + s] - f[j - s]`` along the last axis of ``rows``, periodic in
    each row.  The bulk is one subtraction over the flattened rows; the
    ``s`` entries at each end of a row, which wrap, are then overwritten, for
    s <= 2 (the innermost grid axis) one offset at a time: a (rows, 2) block
    costs ~20 ns a row, a long strided run far less."""
    out = np.empty(rows.shape)
    flat, flat_out = rows.reshape(rows.shape[:-2] + (-1,)), out.reshape(out.shape[:-2] + (-1,))
    np.subtract(flat[..., 2 * s:], flat[..., :-2 * s], out=flat_out[..., s:-s])
    width = 1 if s <= 2 else s
    for a in range(0, s, width):   # out[a:b] and out[c:c + width] wrap
        b, c = a + width, rows.shape[-1] - s + a
        np.subtract(rows[..., a + s:b + s], rows[..., c:c + width], out=out[..., a:b])
        np.subtract(rows[..., a:b], rows[..., c - s:c - s + width], out=out[..., c:c + width])
    return out


def partial(lat: Lattice, f: np.ndarray, axis: int, order: int = 4) -> np.ndarray:
    """Periodic central difference along a grid axis of a scalar field or a
    stack of them, ``(..., n0, n1, n2, n3)``: the grid axes are the last four.

    Grouped as differences of shifted values, so fields constant along the
    axis are annihilated exactly, not merely to roundoff.  On a 4-point axis
    the wide difference f[j + 2] - f[j - 2] is +0 for finite f: not taken.
    """
    if order not in (2, 4):
        raise ValueError("stencil order must be 2 or 4")
    f = np.asarray(f, dtype=float)
    n, step = f.shape[axis - 4], math.prod(f.shape[f.ndim - 3 + axis:])   # elements per step
    rows = f.reshape(f.shape[:-4] + (-1, n * step))
    out = _shift_difference(rows, step)
    if order == 2:
        out /= 2.0 * lat.h[axis]
    else:
        out *= 8.0
        if 4 % n:
            out -= _shift_difference(rows, 2 * step)
        out /= 12.0 * lat.h[axis]
    return out.reshape(f.shape)


def _d(lat: Lattice, f: np.ndarray, k: int, order: int = 4, out=None) -> np.ndarray:
    """:func:`d`'s kernel: it differentiates component-major memory, which it
    copies ``f`` into unless ``f`` is already a view of it, and returns a
    view of component-major memory, ``out``'s when given (see :func:`_fields`).

    It runs in pieces (:func:`_pieces`), a term along axis 0 on its piece
    and ``order // 2`` wrapped halo planes each side (on the whole axis where
    those reach round it).  Each output component sums its terms of the
    assembly table in table order.  On a lattice of several slabs (see
    :func:`_slabs`), the components are dealt out to one thread per slab, each
    summing into its own memory, so the result is the same at any worker
    count or piece size.
    """
    if k >= 4:
        raise ValueError("no 5-forms on a 4-manifold")
    tail = np.ndim(f) - 4
    f = ta._entries(f, tail)
    # the sums run on a flat view of the grid, which numpy updates in place
    # without a temporary copy
    flat = f.shape[:-5] + (NCOMP[k + 1], lat.num_points)
    out = np.empty(flat) if out is None else ta._entries(out, tail).reshape(flat)
    out.fill(0.0)
    n0, halo, plane = lat.shape[0], order // 2, lat.num_points // lat.shape[0]

    def term(src, axis, a, b):   # the derivative of a source component on planes a to b
        g = f[..., src, :, :, :, :]
        if axis > 0:
            return partial(lat, g[..., a:b, :, :, :], axis, order)
        lo, hi = (0, n0) if b - a + 2 * halo >= n0 else (a - halo, b + halo)
        block = g[..., lo:hi, :, :, :] if 0 <= lo and hi <= n0 else np.take(
            g, range(lo, hi), axis=-4, mode="wrap")   # a halo that wraps
        return partial(lat, block, 0, order)[..., a - lo:b - lo, :, :, :]

    def components(share):   # the terms of every count-th output component
        for a, b in _pieces(lat.shape):
            for dst, src, axis, sign in _D_TABLE[k]:
                if dst % count == share:   # each term is dropped before the next is made
                    row = out[..., dst, a * plane:b * plane]
                    (np.add if sign > 0 else np.subtract)(
                        row, term(src, axis, a, b).reshape(row.shape), out=row)
    count = len(_slabs(lat.shape))
    _each(components, range(count))
    return ta._pointwise(out.reshape(out.shape[:-1] + lat.shape), tail)


def d(lat: Lattice, f: np.ndarray, k: int, order: int = 4) -> np.ndarray:
    """Exterior derivative of a degree-k form field (component axis last),
    returned C-ordered."""
    return np.ascontiguousarray(_d(lat, f, k, order))


def periods(lat: Lattice, w: np.ndarray) -> np.ndarray:
    """Integrals of a 2-form field over the six coordinate 2-tori.

    The (ab) period is the uniform Riemann sum of the (ab) component over the
    (a, b) plane, averaged over the transverse axes; for closed fields these
    are the cohomology pairings with the coordinate tori and are invariant,
    to roundoff, under adding any discrete-exact form.
    """
    return w.mean(axis=(0, 1, 2, 3)) * np.array([lat.L[a] * lat.L[b]
                                                 for a, b in ta.LAMBDA2_TUPLES])


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
    c: np.ndarray   # (n0, n1, n2, n3, 3, 6), in any memory layout
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

    def max_dabs(self, order: int = 4, out=None) -> float:
        """Sup-norm of the exterior derivatives of the three forms, which
        are written into ``out`` (:func:`_fields`, core ``(3, 4)``) when given."""
        dw = _d(self.lattice, self.c, 2, order, out)
        return float(np.abs(dw, out=dw).max())

    def periods(self) -> np.ndarray:
        """(3, 6) array of the cohomology periods of each form."""
        return np.stack([periods(self.lattice, self.c[..., i, :]) for i in range(3)])


def constant_triple_field(lat: Lattice, triple: np.ndarray) -> TripleField:
    c = np.broadcast_to(np.asarray(triple, dtype=float), lat.shape + (3, 6)).copy()
    return TripleField(lat, c)


def _normalize_fields(c: np.ndarray, threshold: float | None = None, out=None):
    """``(q, g, mu, eig)``: see pointwise_normalize.  ``q``, ``g`` and
    ``mu`` are written into ``out`` (:func:`_fields`), else new memory, and
    ``c`` may be component-major too.  The metric and ``q`` are computed per
    slab of the lattice (see :func:`_slabs`), on the slab threads when there
    are several, each slab writing its part of the lattice-wide arrays;
    every point's values are those of one serial run.

    The Gram eigenvalue guard runs exactly when a ``threshold`` is given.
    ``eig`` is then ``(top, lowest)``, else None.  ``lowest``, the smallest
    Gram eigenvalue anywhere, is LAPACK's value, and so are the guard's
    decision and the lowest value and first failing lattice index it
    reports; LAPACK runs only where the closed-form estimate of a point's
    smallest eigenvalue lies within its radius of the threshold or of the
    lattice minimum (see ``triple_algebra.SCREEN_MARGIN``).  ``top`` is an
    estimate, the bracket ``(lo, hi)`` that holds each point's largest Gram
    eigenvalue.  The guard's estimates are made per piece of the slabs, too.
    """
    def slab(q, g, s, c):
        ta.gram(c, ta.metric_from_triple(c, 0.0, g, s)[1], q)

    def extremes(q, *bounds):   # each estimate less and plus its radius
        bottom, top, radius = ta._gram_extremes(q)
        for o, e, op in zip(bounds, (bottom, bottom, top, top), (np.subtract, np.add) * 2):
            op(e, radius, out=o)
    q, g, s = out or _fields(c.shape[:-2], (3, 3), (4, 4), ())
    _by_slab(c.shape[:-2], slab, q, g, s, c)
    if threshold is None:
        return q, g, s, None
    bottom_lo, bottom_hi, top_lo, top_hi = bounds = _fields(c.shape[:-2], *[()] * 4)
    _by_slab(c.shape[:-2], extremes, q, *bounds)
    decides = max(threshold, float(np.min(bottom_hi)))
    index, lam = ta._screened_eigvalsh(q, bottom_lo <= decides)
    min_eig = lam[:, 0]
    lowest = float(min_eig.min())
    ok = np.ones(q.shape[:-2], dtype=bool)
    ok.flat[index] = min_eig > threshold
    ta._require_positive(ok, f"Gram matrix eigenvalue {lowest:.3e} <= {threshold:g}")
    return q, g, s, ((top_lo, top_hi), lowest)


def pointwise_normalize(tf: TripleField, threshold: float = 1e-6):
    """Per-point metric, volume, and unit-determinant Gram of a triple field.

    Returns ``(q, g, mu_w)`` with shapes (grid, 3, 3), (grid, 4, 4), (grid,).
    The Gram matrix is taken against the triple's own Riemannian volume at
    every point, so det q = 1 everywhere.  Raises NotPositive, naming the
    first offending lattice index, when the metric density degenerates or the
    smallest Gram eigenvalue drops to ``threshold`` or below.
    """
    return tf.normalized(threshold)[:3]
