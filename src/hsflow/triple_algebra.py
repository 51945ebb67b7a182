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

A triple is *positive* when its Gram matrix ``Q`` (pairwise wedge products
against the reference volume) is positive definite.  Positivity of ``Q``
alone does not guarantee the metric reconstruction succeeds: the ordered
triple must also be right-handed inside its span (an odd relabeling such as
``(w1, w2, -w3)`` of the standard triple keeps ``Q = I`` but flips the sign
of the metric density and is rejected by ``metric_from_triple``).
"""

from __future__ import annotations

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
_W2INV = np.linalg.inv(WEDGE2)
_W32INV = np.linalg.inv(_W32)

EPS3 = np.zeros((3, 3, 3))
for _p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS3[_p] = 1.0
for _p in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
    EPS3[_p] = -1.0

# index bookkeeping for the Lambda^3 Gram shortcut (see star3)
_OMITTED = np.array([3, 2, 1, 0])           # coordinate missing from each lex 3-tuple
_SIGMA3 = np.array([-1.0, 1.0, -1.0, 1.0])  # (-1)^omitted

_W32INV_T = np.ascontiguousarray(_W32INV.T)


def _density_table() -> exterior.CubicMatrix:
    """The metric density as a cubic form in the 18 triple coefficients.

    Expands K_ab e0123 = (1/6) eps_ijk (e_a ⌟ w_i) ∧ (e_b ⌟ w_j) ∧ w_k over
    the interior and wedge tables.  Each monomial takes one coefficient from
    each form, so it is named by three indices into the flattened (3, 6)
    triple, one per form.
    """
    a, b, u, v, w, s = exterior.slot_terms(
        exterior.interior_table(LAMBDA2_TUPLES, LAMBDA1_TUPLES, 4),
        exterior.wedge_table(LAMBDA1_TUPLES, LAMBDA1_TUPLES, LAMBDA2_TUPLES), WEDGE2)
    perms = list(zip(*np.nonzero(EPS3)))   # w_i fills the first slot, w_j the second
    return exterior.CubicMatrix(
        4, np.tile(a, len(perms)), np.tile(b, len(perms)),
        np.concatenate([np.stack([6 * i + u, 6 * j + v, 6 * k + w]) for i, j, k in perms],
                       axis=1),
        np.concatenate([EPS3[i, j, k] * s for i, j, k in perms]), _DENSITY_BLOCK)


_DENSITY_BLOCK = 1024   # points per gather: 1024 x 96 monomials is 0.8 MB of temporaries
# K.ravel() = DENSITY_COEF @ (x[f0] * x[f1] * x[f2]) over the flattened triple x,
# with (f0, f1, f2) the columns of DENSITY_FACTORS: 96 monomials, coefficients ±1/2, ±1
DENSITY = _density_table()
DENSITY_COEF, DENSITY_FACTORS = DENSITY.coef, DENSITY.factors


def _apply_pointwise(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """matmul of a symmetric matrix stack onto vectors, with or without a
    trailing batch axis on the vectors ((..., m) or (..., B, m))."""
    if vec.ndim == mat.ndim - 1:
        return np.matmul(mat, vec[..., None])[..., 0]
    return np.matmul(vec, mat)


def _match_rank(scalar, like: np.ndarray) -> np.ndarray:
    """Append singleton axes so a pointwise scalar broadcasts against ``like``."""
    s = np.asarray(scalar, dtype=float)
    return s.reshape(s.shape + (1,) * (like.ndim - s.ndim))


def _entries(m: np.ndarray) -> np.ndarray:
    """A (..., n, n) stack as (n, n, ...): ``e[a, b]`` is one contiguous
    array over the batch, or a scalar for a single matrix."""
    m = np.asarray(m, dtype=float)
    batch = tuple(range(m.ndim - 2))
    return np.ascontiguousarray(m.transpose((m.ndim - 2, m.ndim - 1) + batch))


def _from_entries(e: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_entries`: (n, n, ...) back to a C-ordered (..., n, n)."""
    return np.ascontiguousarray(e.transpose(tuple(range(2, e.ndim)) + (0, 1)))


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


def gram(triple: np.ndarray, mu=1.0) -> np.ndarray:
    """Gram matrix Q with w_i ∧ w_j = 2 Q_ij * (mu e0123)."""
    triple = np.asarray(triple, dtype=float)
    q = np.matmul(np.matmul(triple, WEDGE2), np.swapaxes(triple, -1, -2))
    return q / (2.0 * np.asarray(mu)[..., None, None])


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
    """Adjugate of a 3x3 stack; adj(s) @ s = det(s) I."""
    out = np.empty(np.broadcast_shapes(s.shape), dtype=float)
    out[..., 0, 0] = s[..., 1, 1] * s[..., 2, 2] - s[..., 1, 2] * s[..., 2, 1]
    out[..., 0, 1] = s[..., 0, 2] * s[..., 2, 1] - s[..., 0, 1] * s[..., 2, 2]
    out[..., 0, 2] = s[..., 0, 1] * s[..., 1, 2] - s[..., 0, 2] * s[..., 1, 1]
    out[..., 1, 0] = s[..., 1, 2] * s[..., 2, 0] - s[..., 1, 0] * s[..., 2, 2]
    out[..., 1, 1] = s[..., 0, 0] * s[..., 2, 2] - s[..., 0, 2] * s[..., 2, 0]
    out[..., 1, 2] = s[..., 0, 2] * s[..., 1, 0] - s[..., 0, 0] * s[..., 1, 2]
    out[..., 2, 0] = s[..., 1, 0] * s[..., 2, 1] - s[..., 1, 1] * s[..., 2, 0]
    out[..., 2, 1] = s[..., 0, 1] * s[..., 2, 0] - s[..., 0, 0] * s[..., 2, 1]
    out[..., 2, 2] = s[..., 0, 0] * s[..., 1, 1] - s[..., 0, 1] * s[..., 1, 0]
    return out


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


def metric_density(triple: np.ndarray) -> np.ndarray:
    """Matrix K = g sqrt(det g) of the triple metric in the coordinate frame.

    K_ab * e0123 = (1/6) eps_ijk (e_a ⌟ w_i) ∧ (e_b ⌟ w_j) ∧ w_k.  Independent
    of any reference volume form.  Evaluated as the cubic form
    :data:`DENSITY`, one block of points at a time; a single fiber is a block
    of one.
    """
    triple = np.asarray(triple, dtype=float)
    return DENSITY(triple.reshape(triple.shape[:-2] + (18,)))


def _require_positive(ok, message: str, where: str = "lattice index") -> None:
    """Raise NotPositive with ``message`` unless every entry of ``ok`` holds;
    for a batch the message names the first failing ``where``."""
    if np.all(ok):
        return
    if np.ndim(ok):
        message += f" at {where} {tuple(int(v) for v in np.argwhere(~ok)[0])}"
    raise NotPositive(message)


def _pd_cofactors4(m: np.ndarray, what: str, tol: float = 0.0):
    """Cofactors and determinant of a symmetric 4x4 stack that must be
    positive definite.

    Returns ``(cof, det)``: ``cof`` maps ``(a, b)``, a <= b, to the (a, b)
    cofactor, built from the 2x2 minors of rows (0, 1) and (2, 3); ``det`` is
    row 0 times its cofactors.  Raises NotPositive, naming ``what`` and the
    first failing batch index, unless every leading principal minor exceeds
    ``tol`` (the third is the (3, 3) cofactor).
    """
    e = _entries(m)

    def minors(r, t):
        return {(j, k): e[r, j] * e[t, k] - e[r, k] * e[t, j]
                for j in range(4) for k in range(j + 1, 4)}

    s, c = minors(0, 1), minors(2, 3)
    cof = {
        (0, 0): e[1, 1] * c[2, 3] - e[1, 2] * c[1, 3] + e[1, 3] * c[1, 2],
        (0, 1): -(e[1, 0] * c[2, 3] - e[1, 2] * c[0, 3] + e[1, 3] * c[0, 2]),
        (0, 2): e[1, 0] * c[1, 3] - e[1, 1] * c[0, 3] + e[1, 3] * c[0, 1],
        (0, 3): -(e[1, 0] * c[1, 2] - e[1, 1] * c[0, 2] + e[1, 2] * c[0, 1]),
        (1, 1): e[0, 0] * c[2, 3] - e[0, 2] * c[0, 3] + e[0, 3] * c[0, 2],
        (1, 2): -(e[0, 0] * c[1, 3] - e[0, 1] * c[0, 3] + e[0, 3] * c[0, 1]),
        (1, 3): e[0, 0] * c[1, 2] - e[0, 1] * c[0, 2] + e[0, 2] * c[0, 1],
        (2, 2): e[3, 0] * s[1, 3] - e[3, 1] * s[0, 3] + e[3, 3] * s[0, 1],
        (2, 3): -(e[3, 0] * s[1, 2] - e[3, 1] * s[0, 2] + e[3, 2] * s[0, 1]),
        (3, 3): e[2, 0] * s[1, 2] - e[2, 1] * s[0, 2] + e[2, 2] * s[0, 1],
    }
    det = (e[0, 0] * cof[0, 0] + e[0, 1] * cof[0, 1]
           + e[0, 2] * cof[0, 2] + e[0, 3] * cof[0, 3])
    ok = (e[0, 0] > tol) & (s[0, 1] > tol) & (cof[3, 3] > tol) & (det > tol)
    _require_positive(ok, f"{what} not positive definite")
    return cof, det


def _adjugate4(cof: dict) -> np.ndarray:
    """The (..., 4, 4) adjugate from the cofactors of :func:`_pd_cofactors4`;
    each is copied to both sides of the diagonal, so it is exactly symmetric."""
    adj = np.empty((4, 4) + np.shape(cof[0, 0]))
    for (a, b), v in cof.items():
        adj[a, b] = adj[b, a] = v
    return _from_entries(adj)


def _inverse4(g: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a symmetric positive definite 4x4 stack, adj(g) / det g;
    NotPositive names ``what`` and the first failing batch index."""
    cof, det = _pd_cofactors4(g, what)
    return _adjugate4(cof) / np.asarray(det)[..., None, None]


def _metric_parts(triple: np.ndarray, tol: float):
    """``(g, s, cof, det)`` for a triple: the metric ``g = K / s`` with
    ``s = det(K)^{1/6}`` the volume coefficient, and the cofactors and
    determinant of its density ``K`` (see :func:`_pd_cofactors4`)."""
    K = metric_density(triple)
    cof, det = _pd_cofactors4(K, "metric density", tol)
    s = det ** (1.0 / 6.0)
    return K / s[..., None, None], s, cof, det


def metric_from_triple(triple: np.ndarray, tol: float = 1e-12):
    """Riemannian metric and volume coefficient determined by a positive triple.

    Returns ``(g, mu_w)`` where ``g`` solves K = g sqrt(det g) for the density
    of :func:`metric_density` (``g = K det(K)^{-1/6}``) and ``mu_w`` is the
    coefficient of the Riemannian volume form, ``mu_w = det(K)^{1/6}``, equal
    to ``det(gram(triple, mu))^{1/3} * mu`` for any reference volume ``mu``.

    Raises NotPositive unless every leading minor of the density exceeds
    ``tol`` (Gram positivity plus right-handedness of the triple in its span).
    """
    return _metric_parts(triple, tol)[:2]


def normalize(triple: np.ndarray):
    """Gram matrix against the triple's own Riemannian volume; det Q* = 1.

    Returns ``(q_star, mu_w)`` with ``q_star = gram(triple, mu_w)``.  This is
    the normalization that makes the determinant identically one, which the
    closed-form Hodge tables on the 3-torus fiber assume.
    """
    _, mu_w = metric_from_triple(triple)
    return gram(triple, mu_w), mu_w


def lambda2_gram(h: np.ndarray) -> np.ndarray:
    """Inner products of the Lambda^2 basis for inverse metric ``h`` (..., 6, 6).

    Entry (m, l) is the 2x2 minor of ``h`` on the index pairs of basis
    elements m and l.  The 21 entries on and above the diagonal are computed
    from the entries of ``h`` and copied below it (``h`` is symmetric).
    """
    e = _entries(h)
    out = np.empty((6, 6) + e.shape[2:])
    for m, (a, b) in enumerate(LAMBDA2_TUPLES):
        for l in range(m, 6):
            c, d = LAMBDA2_TUPLES[l]
            out[m, l] = out[l, m] = e[a, c] * e[b, d] - e[a, d] * e[b, c]
    return _from_entries(out)


def star2(coeffs: np.ndarray, h: np.ndarray, sqrt_det_g) -> np.ndarray:
    """Hodge star on 2-forms, fast path: no validation, caller supplies g^{-1}.

    ``coeffs`` may carry one batch axis before the component axis (a triple);
    leading axes otherwise match the metric stack.
    """
    raised = _apply_pointwise(lambda2_gram(h), np.asarray(coeffs, dtype=float))
    out = np.matmul(raised, _W2INV)
    return out * _match_rank(sqrt_det_g, out)


def star3(coeffs: np.ndarray, g: np.ndarray, sqrt_det_g) -> np.ndarray:
    """Hodge star Lambda^3 -> Lambda^1 (lex 3-form basis in, 1-form basis out).

    Uses the complementary-minor identity: the Lambda^3 Gram of g^{-1} is
    D g D / det(g) with D the signs of the omitted coordinates, so only ``g``
    itself is needed.  Batch axis handled as in :func:`star2`.
    """
    gsub = g[..., _OMITTED[:, None], _OMITTED[None, :]]
    G = (_SIGMA3[:, None] * _SIGMA3[None, :]) * gsub
    raised = _apply_pointwise(G, np.asarray(coeffs, dtype=float))
    out = np.matmul(raised, _W32INV_T)
    return out / _match_rank(sqrt_det_g, out)


def hodge2(b: np.ndarray, g: np.ndarray, mu_g) -> np.ndarray:
    """Hodge star of a 2-form for metric ``g`` with volume coefficient ``mu_g``.

    Defining relation: beta ∧ hodge2(gamma) = <beta, gamma>_g * (mu_g e0123)
    for all 2-forms beta.  Requires ``mu_g = sqrt(det g)``; an involution and
    an isometry for Riemannian ``g``.  Raises NotPositive on indefinite g.
    """
    return star2(b, _inverse4(g, "hodge2: metric"), mu_g)
