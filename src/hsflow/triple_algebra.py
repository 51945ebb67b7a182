"""Pointwise algebra of 2-form triples on an oriented R^4 fiber.

Conventions, fixed once and shared by every module in the package:

* 2-forms are coefficient vectors of shape ``(..., 6)`` in the ordered basis
  ``(e01, e02, e03, e23, e31, e12)``.  In this order the standard triple
  ``w1 = e01 + e23, w2 = e02 + e31, w3 = e03 + e12`` is two-hot.
* Triples are stacks of shape ``(..., 3, 6)``.
* The orientation is ``e0123`` positive; a volume form is ``m * e0123`` with
  coefficient ``m > 0`` (plain floats/arrays stand in for volume forms).
* Symmetric 3x3 and 4x4 matrices are plain ``(..., 3, 3)`` / ``(..., 4, 4)``
  arrays; all operations broadcast over leading axes, so a lattice of fibers
  is just another batch shape.
* Matrix and form stacks computed here are component-major in memory: the
  result is a view ``(..., n, m)`` of an ``(n, m, ...)`` array, so each entry
  is one contiguous array over the batch.  Such views are accepted as inputs
  everywhere, and :func:`_entries` recovers the component arrays for free.
  Per-point products (the Gram matrix, matrix products, the Hodge stars) are
  signed sums of products of those rows, ``exterior.RowProducts`` tables
  whose signs come from the signed permutations below.

A triple is *positive* when its Gram matrix ``Q`` (pairwise wedge products
against the reference volume) is positive definite.  Positivity of ``Q``
alone does not guarantee the metric reconstruction succeeds: the ordered
triple must also be right-handed inside its span (an odd relabeling such as
``(w1, w2, -w3)`` of the standard triple keeps ``Q = I`` but flips the sign
of the metric density and is rejected by ``metric_from_triple``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import exterior
from .errors import NotPositive, SingularMatrix

# Ordered Lambda^2(R^4) basis; (3, 1) is deliberate, e31 = -e13.
LAMBDA2_TUPLES = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
LAMBDA1_TUPLES = ((0,), (1,), (2,), (3,))
LAMBDA3_TUPLES = exterior.lex_tuples(4, 3)

# Wedge pairing on Lambda^2: a ∧ b = (a . W2 b) e0123.  For the basis above
# this is the half-swap [[0, I], [I, 0]].
WEDGE2 = exterior.pairing_matrix(LAMBDA2_TUPLES, LAMBDA2_TUPLES, 4)

_W32 = exterior.pairing_matrix(LAMBDA3_TUPLES, LAMBDA1_TUPLES, 4)

EPS3 = np.array([[[exterior.tuple_parity((i, j, k)) for k in range(3)] for j in range(3)]
                 for i in range(3)], dtype=float)


def _signed_permutation(w: np.ndarray) -> tuple:
    """``(source, sign)`` of each column of ``x @ w`` for a signed permutation
    matrix ``w``: column p of the product is sign * column source of x."""
    src = np.abs(w).argmax(axis=0)
    return tuple(zip(src.tolist(), w[src, np.arange(w.shape[1])].tolist()))


_PAIRING_COLUMNS = _signed_permutation(WEDGE2)
# a signed permutation's inverse is its transpose: star3's is _W32^-T = _W32
_STAR3_COLUMNS = _signed_permutation(_W32)
# (coordinate missing from each lex 3-tuple, sign of e^I ∧ e^missing), for star3
_OMITTED = _signed_permutation(_W32.T)


# adj(s)_ik = (1/2) eps_kab eps_icd s_ac s_bd: two monomials of coefficient ±1 each
ADJ3 = exterior.RowProducts((3, 3), [
    (3 * i + k, 3 * a + c, 3 * b + d, EPS3[k, a, b] * EPS3[i, c, d])
    for i, k, a, b, c, d in np.ndindex((3,) * 6) if EPS3[k, a, b] and EPS3[i, c, d]], 2)
# Q mu = (1/2) w_i ∧ w_j over the flattened triple, on and above the diagonal:
# w_i ∧ w_j = sum_p sign w_i[src] w_j[p] over the columns (src, sign) of WEDGE2
GRAM = exterior.RowProducts((3, 3), [
    (3 * i + j, 6 * i + src, 6 * j + p, sign) for i in range(3) for j in range(i, 3)
    for p, (src, sign) in enumerate(_PAIRING_COLUMNS)], 2, symmetric=True)


@lru_cache(maxsize=None)
def _product_table(n: int, m: int, l: int) -> exterior.RowProducts:
    """(a b)_ij = sum_k a_ik b_kj over the rows of a (n, m), then of b (m, l)."""
    return exterior.RowProducts((n, l), [(l * i + j, m * i + k, n * m + l * k + j, 1)
                                         for i in range(n) for j in range(l) for k in range(m)])


# K_ab e0123 = (1/6) eps_ijk (e_a ⌟ w_i) ∧ (e_b ⌟ w_j) ∧ w_k as a cubic form: K.ravel() =
# DENSITY_COEF @ (x[f0] * x[f1] * x[f2]) over the flattened triple x, with (f0, f1, f2) the
# columns of DENSITY_FACTORS: 96 monomials, coefficients ±1/2, ±1
DENSITY = exterior.density_table(LAMBDA2_TUPLES, 4, [
    (i, j, k, EPS3[i, j, k]) for i, j, k in zip(*np.nonzero(EPS3))])
DENSITY_COEF, DENSITY_FACTORS = DENSITY.coef, DENSITY.factors


def _entries(a: np.ndarray, k: int = 2) -> np.ndarray:
    """The last ``k`` axes of ``a`` moved to the front, component-major: for a
    (..., n, m) stack ``e[i, j]`` is one contiguous array over the batch.  A
    view, not a copy, when ``a`` is a :func:`_pointwise` view of such an
    array."""
    a = np.asarray(a, dtype=float)
    core, batch = a.shape[a.ndim - k:], a.shape[:a.ndim - k]
    rows = a.reshape(-1, math.prod(core)).T
    if rows.strides[1] != rows.itemsize:   # not component-major yet
        rows = np.ascontiguousarray(rows)
    return rows.reshape(core + batch)


def _pointwise(e: np.ndarray, k: int = 2) -> np.ndarray:
    """Inverse of :func:`_entries` as a view: (n, m, ...) seen as (..., n, m)."""
    return np.moveaxis(e, tuple(range(k)), tuple(range(-k, 0)))


def _apply(table, *operands, divisor=None, out=None) -> np.ndarray:
    """``table`` (an ``exterior.RowProducts``, over a pointwise ``divisor``
    when given) at every point of ``operands``, (..., n, m) stacks of
    one batch whose rows it reads in turn; written into ``out``, a
    (..., *table.shape) view of component-major memory, or into a new one."""
    batch = np.shape(operands[0])[:-2]
    size = math.prod(batch)
    xs = [_entries(a).reshape(math.prod(np.shape(a)[-2:]), size) for a in operands]
    if out is None:
        out = _pointwise(exterior.aligned(table.shape + batch))
    rows = np.reshape(np.moveaxis(out, (-2, -1), (0, 1)), (len(table.coef), size), copy=False)
    if divisor is not None:
        divisor = np.broadcast_to(np.reshape(divisor, -1), (size,))
    table(xs, rows, divisor)
    return out


def _product(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """``a @ b`` at every point of (..., n, m) and (..., m, l) stacks of one
    batch (:func:`_apply`); each entry sums its products in order of k.
    ``out`` may be b itself, component-major: then each column j, which reads
    only column j of b, is made in n scratch rows and copied out."""
    (n, m), l = np.shape(a)[-2:], np.shape(b)[-1]
    if out is None or np.shares_memory(a, out) or not np.shares_memory(b, out):
        return _apply(_product_table(n, m, l), a, b, out=out)
    size = math.prod(np.shape(b)[:-2])
    xa, xb = _entries(a).reshape(n * m, size), _entries(b).reshape(m, l, size)
    rows = np.reshape(np.moveaxis(out, (-2, -1), (0, 1)), (n, l, size), copy=False)
    if (rows.ctypes.data, rows.shape, rows.strides) != (xb.ctypes.data, xb.shape, xb.strides):
        raise ValueError("out shares memory with b but is not b")
    column, table = exterior.aligned((n, size)), _product_table(n, m, 1)
    for j in range(l):
        table([xa, xb[:, j]], column)
        rows[:, j] = column
    return out


def two_form(c01=0.0, c02=0.0, c03=0.0, c23=0.0, c31=0.0, c12=0.0) -> np.ndarray:
    """Coefficient vector of a 2-form in the package basis order."""
    return np.array([c01, c02, c03, c23, c31, c12], dtype=float)


def standard_triple() -> np.ndarray:
    """The flat reference triple: w_i = e0 ∧ ei + ej ∧ ek (cyclic), Gram = I."""
    t = np.zeros((3, 6))
    for i in range(3):
        t[i, i] = 1.0
        t[i, 3 + i] = 1.0
    return t


def wedge22(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient c with a ∧ b = c * e0123; symmetric and bilinear."""
    return np.einsum('...m,mn,...n->...', a, WEDGE2, b)


def gram(triple: np.ndarray, mu=1.0, out=None) -> np.ndarray:
    """Gram matrix Q with w_i ∧ w_j = 2 Q_ij * (mu e0123): :data:`GRAM` over
    ``mu``, exactly symmetric; written into ``out``, a (..., 3, 3) view of
    component-major memory, when given."""
    return _apply(GRAM, np.asarray(triple, dtype=float), divisor=mu, out=out)


def is_positive(q: np.ndarray, tol: float = 0.0):
    """Whether all leading principal minors of the symmetric matrix exceed tol."""
    m1 = q[..., 0, 0]
    m2 = q[..., 0, 0] * q[..., 1, 1] - q[..., 0, 1] * q[..., 1, 0]
    m3 = det3(q)
    ok = (m1 > tol) & (m2 > tol) & (m3 > tol)
    return bool(ok) if np.ndim(ok) == 0 else ok


def det3(s: np.ndarray) -> np.ndarray:
    """Determinant of a 3x3 stack by cofactor expansion."""
    return (s[..., 0, 0] * (s[..., 1, 1] * s[..., 2, 2] - s[..., 1, 2] * s[..., 2, 1])
            - s[..., 0, 1] * (s[..., 1, 0] * s[..., 2, 2] - s[..., 1, 2] * s[..., 2, 0])
            + s[..., 0, 2] * (s[..., 1, 0] * s[..., 2, 1] - s[..., 1, 1] * s[..., 2, 0]))


def adj3(s: np.ndarray) -> np.ndarray:
    """Adjugate of a 3x3 stack; adj(s) @ s = det(s) I (:data:`ADJ3`)."""
    return _apply(ADJ3, np.asarray(s, dtype=float))


def inv3(s: np.ndarray) -> np.ndarray:
    """Inverse of a 3x3 stack via the adjugate; raises SingularMatrix on det == 0."""
    d = det3(s)
    if np.any(d == 0.0):
        raise SingularMatrix("3x3 matrix has zero determinant")
    return adj3(s) / d[..., None, None]


def levi_civita_det_check(s: np.ndarray) -> float:
    """Max residual of the contraction identity eps_ijk S_ip S_jq S_kl = det(S) eps_pql.

    Holds for every 3x3 matrix, symmetric or not; the return value is the
    worst absolute deviation over all (p, q, l) (and over any batch axes).
    """
    s = np.asarray(s, dtype=float)
    lhs = np.einsum('ijk,...ip,...jq,...kl->...pql', EPS3, s, s, s)
    rhs = det3(s)[..., None, None, None] * EPS3
    return float(np.abs(lhs - rhs).max())


def dual_triple(triple: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Dual triple s_i = (q^{-1})_{ik} w_k; its Gram against the same volume is q^{-1}."""
    return np.einsum('...ik,...km->...im', inv3(q), triple)


def rescale_triple(triple: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Linear mix w~_i = a_{ik} w_k.  Gram transforms as a Q a^T.

    The induced metric obeys g(a w) = det(a)^{1/3} g(w) for any invertible
    mix, so an ``a`` taking a constant-Q triple to Gram I changes the metric
    by the constant factor det(a)^{1/3}.
    """
    a = np.asarray(a, dtype=float)
    if np.any(det3(a) == 0.0):
        raise SingularMatrix("rescale matrix is singular")
    return np.einsum('...ik,...km->...im', a, triple)


def metric_density(triple: np.ndarray, out=None) -> np.ndarray:
    """Matrix K = g sqrt(det g) of the triple metric in the coordinate frame.

    K_ab * e0123 = (1/6) eps_ijk (e_a ⌟ w_i) ∧ (e_b ⌟ w_j) ∧ w_k.  Independent
    of any reference volume form.  Evaluated as the cubic form
    :data:`DENSITY`, into ``out`` when given (see :func:`_apply`).
    """
    return _apply(DENSITY, triple, out=out)


def _require_positive(ok, message: str, where: str = "lattice index") -> None:
    """Raise NotPositive with ``message`` unless every entry of ``ok`` holds;
    for a batch the message names the first failing ``where``."""
    if np.all(ok):
        return
    if np.ndim(ok):
        message += f" at {where} {tuple(int(v) for v in np.argwhere(~ok)[0])}"
    raise NotPositive(message)


def _minors4(e, s_columns: int = 4):
    """The 2x2 minors ``(s, c)`` of rows (0, 1) and (2, 3) of a 4x4 matrix
    with entries ``e[a, b]`` (arrays over a batch), keyed by column pair;
    ``s`` only on the first ``s_columns`` columns."""
    def minors(r, t, columns):
        return {(j, k): e[r, j] * e[t, k] - e[r, k] * e[t, j]
                for j in range(columns) for k in range(j + 1, columns)}
    return minors(0, 1, s_columns), minors(2, 3, 4)


def _pd_det4(e, s, c, what: str, tol: float = 0.0):
    """``(cof, det)`` of a symmetric 4x4 stack with entries ``e[a, b]`` and
    minors ``(s, c)`` (:func:`_minors4`): ``cof`` maps ``(a, b)`` to the
    cofactors of row 0 and (3, 3), ``det`` is row 0 times its cofactors.
    Raises NotPositive, naming ``what`` and the first failing batch index,
    unless every leading principal minor exceeds ``tol`` (the third is the
    (3, 3) cofactor)."""
    cof = {
        (0, 0): e[1, 1] * c[2, 3] - e[1, 2] * c[1, 3] + e[1, 3] * c[1, 2],
        (0, 1): -(e[1, 0] * c[2, 3] - e[1, 2] * c[0, 3] + e[1, 3] * c[0, 2]),
        (0, 2): e[1, 0] * c[1, 3] - e[1, 1] * c[0, 3] + e[1, 3] * c[0, 1],
        (0, 3): -(e[1, 0] * c[1, 2] - e[1, 1] * c[0, 2] + e[1, 2] * c[0, 1]),
        (3, 3): e[2, 0] * s[1, 2] - e[2, 1] * s[0, 2] + e[2, 2] * s[0, 1],
    }
    det = (e[0, 0] * cof[0, 0] + e[0, 1] * cof[0, 1]
           + e[0, 2] * cof[0, 2] + e[0, 3] * cof[0, 3])
    ok = (e[0, 0] > tol) & (s[0, 1] > tol) & (cof[3, 3] > tol) & (det > tol)
    _require_positive(ok, f"{what} not positive definite")
    return cof, det


def metric_from_triple(triple: np.ndarray, tol: float = 1e-12, g=None, mu_w=None):
    """Riemannian metric and volume coefficient determined by a positive triple.

    Returns ``(g, mu_w)`` where ``g`` solves K = g sqrt(det g) for the density
    of :func:`metric_density` (``g = K det(K)^{-1/6}``) and ``mu_w`` is the
    coefficient of the Riemannian volume form, ``mu_w = det(K)^{1/6}``, equal
    to ``det(gram(triple, mu))^{1/3} * mu`` for any reference volume ``mu``.
    A given ``g`` (a view of component-major memory) or ``mu_w`` is written
    into.

    Raises NotPositive unless every leading minor of the density exceeds
    ``tol`` (Gram positivity plus right-handedness of the triple in its span).
    """
    with np.errstate(invalid="ignore", over="ignore"):   # a non-finite triple fails the minors
        g = metric_density(triple, g)
        e = _entries(g)
        _, det = _pd_det4(e, *_minors4(e, 3), "metric density", tol)
    mu_w = det ** (1.0 / 6.0) if mu_w is None else np.power(det, 1.0 / 6.0, out=mu_w)
    # in place on a flat view, which numpy needs no copy for
    flat = np.reshape(np.moveaxis(g, (-2, -1), (0, 1)), (16, -1), copy=False)
    np.divide(flat, np.reshape(mu_w, -1), out=flat)
    return g, mu_w


def normalize(triple: np.ndarray):
    """Gram matrix against the triple's own Riemannian volume; det Q* = 1.

    Returns ``(q_star, mu_w)`` with ``q_star = gram(triple, mu_w)``.  This is
    the normalization that makes the determinant identically one, which the
    closed-form Hodge tables on the 3-torus fiber assume.
    """
    _, mu_w = metric_from_triple(triple)
    return gram(triple, mu_w), mu_w


@lru_cache(maxsize=None)
def _hodge3_table(forms: int) -> exterior.RowProducts:
    """``coeffs @ G @ w`` for ``forms`` rows of lex 3-form coefficients, w
    star3's signed permutation and G[k, l] = s_k s_l g[o_k, o_l] over the
    omitted coordinates (:data:`_OMITTED`)."""
    cell = [[(4 * a + b, sa * sb) for b, sb in _OMITTED] for a, sa in _OMITTED]
    return exterior.RowProducts((forms, 4), [
        (4 * i + p, 4 * i + k, 4 * forms + cell[k][src][0], cell[k][src][1] * sign)
        for i in range(forms) for p, (src, sign) in enumerate(_STAR3_COLUMNS) for k in range(4)])


def star3(coeffs: np.ndarray, g: np.ndarray, sqrt_det_g) -> np.ndarray:
    """Hodge star Lambda^3 -> Lambda^1 (lex 3-form basis in, 1-form basis out).

    Uses the complementary-minor identity: the Lambda^3 Gram of g^{-1} is
    D g D / det(g) with D the signs of the omitted coordinates (only their
    products enter), so only ``g`` itself is needed.  Evaluated as the
    table :func:`_hodge3_table`, whose term signs carry the star's, over
    ``sqrt_det_g``.  ``coeffs`` may carry one batch axis before the component axis
    (a triple); leading axes otherwise match the metric stack.  The result
    is a component-major view, (B, 4, ...) in memory.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    c = coeffs.reshape(g.shape[:-2] + (-1, 4))
    return _apply(_hodge3_table(c.shape[-2]), c, g, divisor=sqrt_det_g).reshape(coeffs.shape)


def hodge2(b: np.ndarray, g: np.ndarray, mu_g) -> np.ndarray:
    """Hodge star of a 2-form for metric ``g`` with volume coefficient ``mu_g``.

    Defining relation: beta ∧ hodge2(gamma) = <beta, gamma>_g * (mu_g e0123)
    for all 2-forms beta.  Requires ``mu_g = sqrt(det g)``; an involution and
    an isometry for Riemannian ``g``.  Uses the complementary-minor identity
    Lambda^2(g^{-1}) = W Lambda^2(g) W / det g, W = :data:`WEDGE2` (the
    half-swap, symmetric and its own inverse), so that *b = Lambda^2(g) W b
    / mu_g and no inverse is taken.  ``b`` may carry one batch axis before
    the component axis (a triple); leading axes otherwise match the metric
    stack.  Raises NotPositive, naming the first failing batch index, on an
    indefinite g.
    """
    b, g = np.asarray(b, dtype=float), np.asarray(g, dtype=float)
    e = _entries(g)
    _pd_det4(e, *_minors4(e, 3), "hodge2: metric")
    extra = (1,) * (b.ndim + 1 - g.ndim)   # the triple's axis, if any
    out = exterior.apply_metric(g.reshape(g.shape[:-2] + extra + (4, 4)), b @ WEDGE2,
                                LAMBDA2_TUPLES)
    return out / np.reshape(mu_g, np.shape(mu_g) + extra + (1,))


# The flow reads three things from the spectra of its Gram matrices q and
# metrics g: whether every smallest Gram eigenvalue clears the positivity
# threshold, the lattice minimum of those, and the worst point of
# lambda_max(q) / lambda_min(g) (the step size bound).  Closed-form
# estimates decide them wherever they can, and np.linalg.eigvalsh runs only
# where an estimate lies within its radius of a decision, which is then taken
# from LAPACK's values.  An estimate of an eigenvalue of a symmetric A, with
# spread S = |A - c I| (Frobenius norm) about its mean eigenvalue c, lies
# within
#
#     radius = SCREEN_MARGIN * (S + SCREEN_MARGIN**3 * (|c| + S))
#
# of the value LAPACK returns.  The first term covers the estimators' root
# error.  A characteristic-polynomial root is accurate only to about
# eps^(1/k) S where k roots nearly coincide; the estimators remove the trace,
# so that no more than three cluster, and take no square root of a clustered
# root, which leaves eps^(1/2) = 1.5e-8 as their worst case.  SCREEN_MARGIN
# is 8 times even eps^(1/4).  Over rotated spectra with clusters of every size
# and position, spreads S from 1e-14 to 10 times |c| and |c| from 1e-3 to
# 1e3, the error seen is below 1.1e-8 S + 2e-15 |c|.  The second term covers
# rounding in the estimate and LAPACK's own error, a few eps |A|;
# SCREEN_MARGIN**4 = 1e-12 is 4500 eps.
SCREEN_MARGIN = 1e-3


def _radius(spread, centre):
    """The trusted radius of an estimate (see SCREEN_MARGIN)."""
    return SCREEN_MARGIN * (spread + SCREEN_MARGIN ** 3 * (np.abs(centre) + spread))


def _cubic_extremes(p, q):
    """Smallest and largest root of w^3 + p w + q, whose three roots are
    real, by the trigonometric solution."""
    s = np.sqrt(np.maximum(-p / 3.0, 0.0))
    r = np.divide(-q, 2.0 * s ** 3, out=np.zeros_like(s), where=s > 0)
    c = np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3.0)
    return -s * (c + np.sqrt(3.0 * np.maximum(1.0 - c * c, 0.0))), 2.0 * s * c


def _gram_extremes(q: np.ndarray):
    """``(lo, hi, radius)``: estimates of the smallest and largest eigenvalue
    of each symmetric 3x3 matrix of a stack, and their radius.

    The trigonometric solution of the characteristic cubic (Kopp, Int. J.
    Mod. Phys. C 19 (2008) 523) of ``q - m I``, m the mean diagonal entry.
    The shifted diagonal is exact; the trace that rounding leaves in it is
    shifted out of the cubic rather than neglected.
    """
    e = _entries(q)
    m = (e[0, 0] + e[1, 1] + e[2, 2]) / 3.0
    b0, b1, b2 = e[0, 0] - m, e[1, 1] - m, e[2, 2] - m
    b01, b02, b12 = e[0, 1], e[0, 2], e[1, 2]
    t = (b0 + b1 + b2) / 3.0
    square = b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)
    e2 = 0.5 * (9.0 * t * t - square)
    det = (b0 * (b1 * b2 - b12 * b12) - b01 * (b01 * b2 - b12 * b02)
           + b02 * (b01 * b12 - b1 * b02))
    # x = w + t depresses x^3 - 3t x^2 + e2 x - det; the rest is dropped before the cubic
    p, r = e2 - 3.0 * t * t, e2 * t - 2.0 * t * t * t - det
    del b0, b1, b2, square, e2, det
    lo, hi = _cubic_extremes(p, r)
    centre = m + t
    return centre + lo, centre + hi, _radius(np.sqrt(np.maximum(-2.0 * p, 0.0)), centre)


def _metric_floor(g: np.ndarray):
    """``(lo, radius)``: an estimate of the smallest eigenvalue of each
    symmetric 4x4 matrix of a stack, and its radius.

    Solves the characteristic quartic of ``g - m I`` (m the mean diagonal
    entry, the trace rounding leaves shifted out as in
    :func:`_gram_extremes`) through its resolvent cubic, whose roots are the
    squares of a >= b >= c >= 0, the sums of the smallest eigenvalue with
    each other one taken in absolute value.  The smallest eigenvalue is
    -(a + b + c) / 2 when the quartic's linear coefficient q is positive and
    -(a + b - c) / 2 otherwise.  Only a^2, the largest root, is solved for:
    b^2 + c^2 is the spread squared less a^2, and bc = |q| / a, so
    (b +- c)^2 is known without the two small roots, which are ill-posed
    where they nearly coincide.
    """
    e = _entries(g)
    m = (e[0, 0] + e[1, 1] + e[2, 2] + e[3, 3]) / 4.0
    d = {(a, b): e[a, b] - m if a == b else e[a, b] for a in range(4) for b in range(4)}
    t = (d[0, 0] + d[1, 1] + d[2, 2] + d[3, 3]) / 4.0
    square = sum(d[a, a] * d[a, a] for a in range(4)) + 2.0 * sum(
        d[a, b] * d[a, b] for a in range(4) for b in range(a + 1, 4))
    s, c = _minors4(d)
    # the determinant by complementary minors, and the principal 3x3 minors' sum
    det = (s[0, 1] * c[2, 3] - s[0, 2] * c[1, 3] + s[0, 3] * c[1, 2]
           + s[1, 2] * c[0, 3] - s[1, 3] * c[0, 2] + s[2, 3] * c[0, 1])
    e3 = (d[1, 1] * c[2, 3] - d[1, 2] * c[1, 3] + d[1, 3] * c[1, 2]
          + d[0, 0] * c[2, 3] - d[0, 2] * c[0, 3] + d[0, 3] * c[0, 2]
          + d[3, 3] * s[0, 1] - d[3, 1] * s[0, 3] + d[3, 0] * s[1, 3]
          + d[2, 2] * s[0, 1] - d[2, 1] * s[0, 2] + d[2, 0] * s[1, 2])
    e2 = 0.5 * (16.0 * t * t - square)
    # x = w + t depresses x^4 - 4t x^3 + e2 x^2 - e3 x + det to w^4 + p w^2 + q w + r
    p = e2 - 6.0 * t * t
    q = 2.0 * e2 * t - 8.0 * t * t * t - e3
    r = det - e3 * t + e2 * t * t - 3.0 * t * t * t * t
    # the resolvent y^3 + 2p y^2 + (p^2 - 4r) y - q^2, depressed by y = z - 2p/3
    _, top = _cubic_extremes(-p * p / 3.0 - 4.0 * r,
                             8.0 * p * r / 3.0 - 2.0 * p * p * p / 27.0 - q * q)
    a2 = np.maximum(top - 2.0 * p / 3.0, 0.0)
    a = np.sqrt(a2)
    bc2 = np.divide(2.0 * q, a, out=np.zeros_like(a), where=a > 0)   # +-2bc
    centre = m + t
    return (centre - 0.5 * (a + np.sqrt(np.maximum(-2.0 * p - a2 + bc2, 0.0))),
            _radius(np.sqrt(np.maximum(-2.0 * p, 0.0)), centre))


def _screened_eigvalsh(m: np.ndarray, suspect) -> tuple:
    """``(index, lam)``: the flat batch indices where ``suspect`` holds,
    ascending, and ``np.linalg.eigvalsh`` of the matrices of stack ``m``
    there.

    Matrices with equal bytes are decomposed once; a constant field, where
    every point is a suspect, costs one call on one matrix.  LAPACK's value
    for a matrix does not depend on the rest of its batch, so each row of
    ``lam`` is bit for bit what a call on the whole stack gives there.
    """
    index = np.flatnonzero(suspect)
    n = m.shape[-1]
    picked = np.ascontiguousarray(m[np.unravel_index(index, m.shape[:-2])])
    bits = picked.reshape(len(index), n * n).view(np.uint64)
    if (bits == bits[:1]).all():
        return index, np.broadcast_to(np.linalg.eigvalsh(picked[:1]), (len(index), n))
    keys = bits.view(np.dtype((np.void, 8 * n * n))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return index, np.linalg.eigvalsh(picked[first])[inverse.ravel()]
