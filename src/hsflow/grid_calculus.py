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
        object.__setattr__(self, 'h', tuple(l / m for l, m in zip(self.L, self.n)))   # spacings

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


# The one bound on a kernel's working set: each pointwise stage, row-product table and
# derivative item works on a piece of at most SLAB_POINTS points, and a lattice takes a
# thread per SLAB_POINTS points, up to the workers.  One right-hand side on two threads
# against one, on 2 cores (medians of 9 alternating runs): 8192 points 31 -> 30 ms (faster
# in 4 of 9), 16384 points 47-56 -> 42-52 ms (mixed), 32768 points 108-115 -> 83 ms, 65536
# points 172-206 -> 112-117 ms; so lattices under 65536 points run on one thread.
SLAB_POINTS = 32768
_pool, _workers = None, 1   # the threads of slab_threads, while it holds them


@contextmanager
def slab_threads(workers: int):
    """Run the block's stages (see :func:`_each`) on up to ``workers``
    threads, the calling one among them; on exit, also by a raise, shut the
    others down and put back the previous ones."""
    from concurrent.futures import ThreadPoolExecutor   # here: only hsflow flow needs it
    global _pool, _workers
    saved = _pool, _workers
    with ThreadPoolExecutor(workers, "hsflow-slab") as pool:
        _pool, _workers = pool, workers
        try:
            yield
        finally:
            _pool, _workers = saved


def _threads(shape: tuple) -> int:
    """Threads that the items of a lattice (or batch) of ``shape`` go to (see :func:`_each`)."""
    return max(1, min(_workers, math.prod(shape) // SLAB_POINTS, shape[0]))


def _pieces(shape: tuple) -> list:
    """The ranges ``(a, b)`` of axis-0 planes of ``shape``, at most
    SLAB_POINTS points each (one plane if it holds more)."""
    planes = max(1, SLAB_POINTS // math.prod(shape[1:]))
    return [(a, min(a + planes, shape[0])) for a in range(0, shape[0], planes)]


def _each(fn, items, shape: tuple) -> None:
    """``fn(item)`` for every item, each handed to whichever thread is free (a
    fixed share would wait for the slower core of a shared machine): the
    calling one and, on a lattice of ``shape`` that takes several threads
    (see :func:`_threads`), a slab thread for each but one.  Returns when all
    are done and raises an item's exception, if any.  ``fn`` must not submit
    to the slab threads.  With every item on the slab threads, whose arenas
    keep what their items freed, a 32x16x16x16 flow's RSS peaked 7% higher."""
    todo = iter(items)   # next() on it is one C call under the interpreter lock

    def drain():
        for item in todo:
            fn(item)
    futures = [_pool.submit(drain) for _ in range(min(_threads(shape), len(items)) - 1)]
    try:
        drain()
    finally:
        for future in futures:
            future.exception()   # waits, without raising
    for future in futures:
        future.result()


def _fields(shape: tuple, *cores) -> tuple:
    """New component-major arrays seen as ``shape + core``, one per core (a
    shape such as ``(3, 6)``, or ``()`` for a scalar field), 64-byte aligned."""
    return tuple(ta._pointwise(exterior.aligned(core + shape), len(core)) for core in cores)


def _by_slab(shape: tuple, stage, *arrays) -> None:
    """``stage(*parts)`` for every piece of a lattice of ``shape`` (see
    :func:`_pieces`, :func:`_each`), ``parts`` the piece's parts of
    ``arrays``, lattice-wide arrays that the stage reads or writes.  A
    NotPositive in one of several pieces is raised again by the stage run on
    the whole lattice, so that its message names the first failing index."""
    pieces = _pieces(shape)
    try:
        _each(lambda p: stage(*(x[p[0]:p[1]] for x in arrays)), pieces, shape)
    except NotPositive:
        if len(pieces) > 1:
            stage(*arrays)
        raise


def _shift_difference(rows: np.ndarray, s: int, out: np.ndarray, lo: int = 0) -> np.ndarray:
    """``f[j + s] - f[j - s]`` along the last axis of ``rows``, periodic in
    each row, into ``out`` for the j from ``lo`` that its last axis spans
    (all of each row when ``rows`` holds several).  The bulk is one
    subtraction over the flattened rows; the entries that wrap are then
    (over)written, for s <= 2 (the innermost grid axis) one offset at a
    time: a (rows, 2) block costs ~20 ns a row, a long strided run far less."""
    n, m = rows.shape[-1], out.shape[-1]
    flat, flat_out = rows.reshape(rows.shape[:-2] + (-1,)), out.reshape(out.shape[:-2] + (-1,))
    a = max(s - lo, 0)
    b = max(a, flat_out.shape[-1] - max(lo + m + s - n, 0))
    np.subtract(flat[..., a + lo + s:b + lo + s], flat[..., a + lo - s:b + lo - s],
                out=flat_out[..., a:b])
    width = 1 if s <= 2 else s
    for a in range(0, s, width):   # j from a wraps below, j from n - s + a above
        for j, plus, minus in ((a, a + s, n - s + a), (n - s + a, a, n - 2 * s + a)):
            x, y = max(j, lo), min(j + width, lo + m)
            if x < y:
                np.subtract(rows[..., plus + x - j:plus + y - j],
                            rows[..., minus + x - j:minus + y - j], out=out[..., x - lo:y - lo])
    return out


def _difference(lat: Lattice, f, axis: int, order: int, out, spare, a=0, b=None):
    """:func:`partial`'s difference of ``f`` on its axis-0 planes a to b,
    written into ``out``, scratch of their size; at order 4 the wide
    difference goes to ``spare``, 1-D memory of 7 elements more."""
    if order not in (2, 4):
        raise ValueError("stencil order must be 2 or 4")
    n, s = f.shape[axis - 4], math.prod(f.shape[f.ndim - 3 + axis:])   # elements per step
    f, lo = (f, a * s) if axis == 0 else (f[..., a:b, :, :, :], 0)
    rows = f.reshape(f.shape[:-4] + (-1, n * s))
    out = _shift_difference(rows, s, out.reshape(rows.shape[:-1] + (-1,)), lo)
    if order == 2:
        out /= 2.0 * lat.h[axis]
    else:
        out *= 8.0
        if 4 % n:
            out -= _shift_difference(rows, 2 * s, exterior.aligned(
                out.shape, max(2 * s - lo, 0), spare), lo)
        out /= 12.0 * lat.h[axis]
    return out


def partial(lat: Lattice, f: np.ndarray, axis: int, order: int = 4) -> np.ndarray:
    """Periodic central difference along a grid axis of a scalar field or a
    stack of them, ``(..., n0, n1, n2, n3)``: the grid axes are the last four.

    Grouped as differences of shifted values, so fields constant along the
    axis are annihilated exactly, not merely to roundoff.  On a 4-point axis
    the wide difference f[j + 2] - f[j - 2] is +0 for finite f: not taken.
    """
    f = np.asarray(f, dtype=float)
    return _difference(lat, f, axis, order, exterior.aligned(f.shape),
                       np.empty(f.size + 7) if order == 4 else None).reshape(f.shape)


def _d(lat: Lattice, f: np.ndarray, k: int, order: int = 4, out=None) -> np.ndarray:
    """:func:`d`'s kernel: it differentiates component-major memory, which it
    copies ``f`` into unless ``f`` is already a view of it, and returns a
    view of component-major memory, ``out``'s when given (see :func:`_fields`).

    Its items, (piece, output component) pairs, are handed out as
    :func:`_by_slab`'s pieces.  An item sums its terms of the assembly table
    in table order through two scratch rows, the first as ``0.0 +- term`` (a
    sum's sign of zero); an axis-0 term reads the lattice array's planes,
    split where the periodic wrap falls.  Any worker count or piece size
    gives the same bits."""
    if k >= 4:
        raise ValueError("no 5-forms on a 4-manifold")
    tail = np.ndim(f) - 4
    f = ta._entries(f, tail)
    batch, plane = f.shape[:-5], lat.num_points // lat.shape[0]
    # the sums run on a flat view of the grid, which numpy updates in place
    # without a temporary copy
    flat = batch + (NCOMP[k + 1], lat.num_points)
    out = exterior.aligned(flat) if out is None else ta._entries(out, tail).reshape(flat)

    def item(job):   # the terms of one output component on planes a to b
        (a, b), dst = job
        scratch = exterior.aligned(batch + ((b - a) * plane,))
        spare = np.empty(scratch.size + 7) if order == 4 else None
        row, total = out[..., dst, a * plane:b * plane], 0.0
        for src, axis, sign in (t[1:] for t in _D_TABLE[k] if t[0] == dst):
            term = _difference(lat, f[..., src, :, :, :, :], axis, order, scratch, spare, a, b)
            total = (np.add if sign > 0 else np.subtract)(total, term.reshape(row.shape), out=row)
    _each(item, [(p, dst) for p in _pieces(lat.shape) for dst in range(NCOMP[k + 1])],
          lat.shape)
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
    piece of the lattice (see :func:`_by_slab`), each writing its part of the
    lattice-wide arrays; every point's values are those of one serial run.

    The Gram eigenvalue guard runs exactly when a ``threshold`` is given.
    ``eig`` is then ``(top, lowest)``, else None.  ``lowest``, the smallest
    Gram eigenvalue anywhere, is LAPACK's value, and so are the guard's
    decision and the lowest value and first failing lattice index it
    reports; LAPACK runs only where the closed-form estimate of a point's
    smallest eigenvalue lies within its radius of the threshold or of the
    lattice minimum (see ``triple_algebra.SCREEN_MARGIN``).  ``top`` is an
    estimate, the bracket ``(lo, hi)`` that holds each point's largest Gram
    eigenvalue.  The guard's estimates are made per piece, too.
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
