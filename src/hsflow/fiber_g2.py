"""Pointwise algebra on the 7-dimensional fiber of the 3-torus product.

The fiber coframe order is ``(dt1, dt2, dt3, e0, e1, e2, e3)`` — indices 0..2
for the flat 3-torus directions, 3..6 for the base R^4 — and the orientation
is ``dt123 ∧ e0123`` positive.  Degree-3 and degree-4 forms are dense vectors
of 35 coefficients over the lexicographic tuple bases.  From a positive
triple and its dual this module builds the associated 3-form and 4-form,
reconstructs the product metric, implements the 3-torus and 7-dimensional
Hodge stars, and evaluates the torsion trace.

Every function is pure and broadcasts over leading batch axes: ``hsflow
lift``, ``hsflow verify`` and the flow's torsion sample hand all their
points or trials to each kernel in one call.  The two costly kernels, the
metric density (a cubic form with 735 monomials) and the 7-dimensional
Hodge star, run ``_BLOCK`` points at a time, so their working set stays
bounded whatever the batch.  The star forms no Gram matrix: it applies
Lambda^3 of g^{-1} to a 3-form, and Lambda^3 of g to the complement of a
4-form (:func:`exterior.apply_metric`).
"""

from __future__ import annotations

import numpy as np

from . import exterior
from . import triple_algebra as ta
from .errors import DetNotOne

LAMBDA3_7 = exterior.lex_tuples(7, 3)
LAMBDA4_7 = exterior.lex_tuples(7, 4)
_LAMBDA2_7 = exterior.lex_tuples(7, 2)

_POS3 = {t: i for i, t in enumerate(LAMBDA3_7)}
_POS4 = {t: i for i, t in enumerate(LAMBDA4_7)}

# interior product and wedge structure tensors (built once; all small)
_INT3 = exterior.interior_table(LAMBDA3_7, _LAMBDA2_7, 7)        # e_a . Lambda^3 -> Lambda^2
_W22_4 = exterior.wedge_table(_LAMBDA2_7, _LAMBDA2_7, LAMBDA4_7)  # Lambda^2 ∧ Lambda^2
_W43 = exterior.pairing_matrix(LAMBDA4_7, LAMBDA3_7, 7)
_W34 = _W43.T       # a 3-form and a 4-form commute under the wedge

_BLOCK = 32   # points per block of the 7-dimensional kernels: 32 x 735 monomials is 188 kB


def _density_table() -> exterior.CubicMatrix:
    """The metric density as a cubic form in the 35 coefficients of phi:
    6 K_ab e(0..6) = (e_a ⌟ phi) ∧ (e_b ⌟ phi) ∧ phi, expanded over the
    nonzero entries of the interior, wedge and pairing tables."""
    a, b, u, v, w, s = exterior.slot_terms(_INT3, _W22_4, _W43)
    return exterior.CubicMatrix(7, a, b, np.stack([u, v, w]), s, _BLOCK)


# 735 monomials, coefficients ±1/2, ±1
DENSITY7 = _density_table()

# embedding of the R^4 2-form basis (package order) as signed sorted pairs on
# coframe indices 3..6
_X2_PAIRS = [(tuple(sorted(x + 3 for x in t)), exterior.tuple_parity(t))
             for t in ta.LAMBDA2_TUPLES]

_X3_TRIPLES = [tuple(x + 3 for x in t) for t in ta.LAMBDA3_TUPLES]

# 2-form pieces of the 3-torus: hat basis (dt23, dt31, dt12) paired with dt^j
_HAT_PAIRS = [(tuple(sorted(t)), exterior.tuple_parity(t)) for t in ((1, 2), (2, 0), (0, 1))]


def _set3(idx, sign, out, value):
    out[..., _POS3[idx]] += sign * value


def _set4(idx, sign, out, value):
    out[..., _POS4[idx]] += sign * value


def build_phi(triple: np.ndarray) -> np.ndarray:
    """3-form dt123 - dt1 ∧ w1 - dt2 ∧ w2 - dt3 ∧ w3 as 35 coefficients."""
    triple = np.asarray(triple, dtype=float)
    out = np.zeros(triple.shape[:-2] + (35,))
    out[..., _POS3[(0, 1, 2)]] = 1.0
    for i in range(3):
        for m, (pair, par) in enumerate(_X2_PAIRS):
            _set3((i,) + pair, -par, out, triple[..., i, m])
    return out


def build_psi(sigma: np.ndarray, mu_sigma) -> np.ndarray:
    """4-form mu_sigma - dt12 ∧ s3 - dt31 ∧ s2 - dt23 ∧ s1 as 35 coefficients."""
    sigma = np.asarray(sigma, dtype=float)
    mu_sigma = np.asarray(mu_sigma, dtype=float)
    out = np.zeros(np.broadcast_shapes(sigma.shape[:-2], mu_sigma.shape) + (35,))
    out[..., _POS4[(3, 4, 5, 6)]] = mu_sigma
    # psi couples s_i to the 3-torus 2-form omitting dt^i
    for i, (tpair, tsign) in enumerate(_HAT_PAIRS):
        for m, (pair, par) in enumerate(_X2_PAIRS):
            _set4(tpair + pair, -tsign * par, out, sigma[..., i, m])
    return out


def metric_density7(phi: np.ndarray) -> np.ndarray:
    """K_ab with K_ab * e(0..6) = (1/6)(e_a ⌟ phi) ∧ (e_b ⌟ phi) ∧ phi,
    evaluated as the cubic form :data:`DENSITY7`."""
    return DENSITY7(phi)


def metric_from_phi(phi: np.ndarray):
    """Metric and volume coefficient of a definite 3-form.

    Solves K = g sqrt(det g) in dimension 7 (det K = det(g)^{9/2}), giving
    ``g = K det(K)^{-1/9}`` and volume coefficient ``det(K)^{1/9}``.  Raises
    NotPositive, naming the first failing batch index, when the extraction
    fails.
    """
    K = metric_density7(phi)
    d = np.linalg.det(K)
    ta._require_positive(d > 0, "3-form is not definite (non-positive density determinant)",
                         "batch index")
    s = d ** (1.0 / 9.0)
    g = K / s[..., None, None]
    ta._require_positive(np.linalg.eigvalsh(g)[..., 0] > 0,
                         "3-form metric is not positive definite", "batch index")
    return g, s


def metric7_block(q: np.ndarray, g4: np.ndarray) -> np.ndarray:
    """Assemble the product metric diag(q, g4) on the fiber coframe."""
    q = np.asarray(q, dtype=float)
    g4 = np.asarray(g4, dtype=float)
    shape = np.broadcast_shapes(q.shape[:-2], g4.shape[:-2])
    out = np.zeros(shape + (7, 7))
    out[..., :3, :3] = q
    out[..., 3:, 3:] = g4
    return out


def star3_t3(degree: int, coeffs: np.ndarray, q: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Closed-form 3-torus Hodge star for the metric Q_ij dt^i dt^j, det Q = 1.

    Component order: 1-forms as (dt1, dt2, dt3), 2-forms in the hat basis
    (dt23, dt31, dt12).  With det Q = 1 the tables collapse to
    ``*dt-vector = Q^{-1} v`` (hat components out) and ``*hat-vector = Q w``
    (dt components out).  Raises DetNotOne outside the normalization.
    """
    q = np.asarray(q, dtype=float)
    if np.any(np.abs(ta.det3(q) - 1.0) > tol):
        raise DetNotOne("3-torus star tables require det Q = 1")
    coeffs = np.asarray(coeffs, dtype=float)
    if degree == 1:
        return np.einsum('...ij,...j->...i', ta.inv3(q), coeffs)
    if degree == 2:
        return np.einsum('...ij,...j->...i', q, coeffs)
    raise ValueError("degree must be 1 or 2")


def hodge7(coeffs: np.ndarray, g7: np.ndarray, degree: int) -> np.ndarray:
    """General 7-dimensional Hodge star on degree 3 or 4 forms.

    Defined by alpha ∧ *beta = <alpha, beta>_g vol_g.  Both degree spaces
    have 35 components, so the input degree must be given explicitly.
    Broadcasts over leading axes, evaluated ``_BLOCK`` points at a time;
    NotPositive names the first batch index whose metric is not positive
    definite.
    """
    if degree not in (3, 4):
        raise ValueError("degree must be 3 or 4")
    coeffs = np.asarray(coeffs, dtype=float)
    g7 = np.asarray(g7, dtype=float)
    ta._require_positive(np.linalg.eigvalsh(g7)[..., 0] > 0,
                         "hodge7 requires a positive definite metric", "batch index")
    shape = np.broadcast_shapes(coeffs.shape[:-1], g7.shape[:-2])
    c = np.broadcast_to(coeffs, shape + (35,)).reshape(-1, 35)
    g = np.broadcast_to(g7, shape + (7, 7)).reshape(-1, 7, 7)
    out = np.empty_like(c)
    for start in range(0, len(c), _BLOCK):
        cb, gb = c[start:start + _BLOCK], g[start:start + _BLOCK]
        if degree == 3:   # the pairing is a signed permutation: its inverse is the transpose
            out[start:start + _BLOCK] = exterior.star_via_pairing(
                cb, np.linalg.inv(gb), np.sqrt(np.linalg.det(gb)), LAMBDA3_7, _W43)
        else:             # Lambda^4(g^-1) = _W43 Lambda^3(g) _W43^T / det g
            out[start:start + _BLOCK] = exterior.apply_metric(
                gb, cb @ _W43, LAMBDA3_7) / np.sqrt(np.linalg.det(gb))[:, None]
    return out.reshape(shape + (35,))


def check_star7(phi: np.ndarray, psi: np.ndarray, g7: np.ndarray) -> float:
    """Sup-norm of *7(psi) - phi, over any batch; zero when psi is the
    dual-lift of phi's triple."""
    return float(np.abs(hodge7(psi, g7, 4) - phi).max())


def assemble_dphi(domega: np.ndarray) -> np.ndarray:
    """Exterior derivative of the lifted 3-form for t-independent triples.

    ``domega`` holds the three base-space 3-forms d(w_j), shape (..., 3, 4)
    over the lexicographic R^4 3-form basis.  Since d(dt^j ∧ w_j) =
    -dt^j ∧ d(w_j), the derivative of dt123 - dt^j ∧ w_j is +dt^j ∧ d(w_j).
    """
    domega = np.asarray(domega, dtype=float)
    out = np.zeros(domega.shape[:-2] + (35,))
    for j in range(3):
        for m, trip in enumerate(_X3_TRIPLES):
            _set4((j,) + trip, 1.0, out, domega[..., j, m])
    return out


def torsion_trace(phi: np.ndarray, dphi: np.ndarray, g7: np.ndarray) -> float:
    """Trace of the torsion tensor, (1/4) *7 (phi ∧ dphi).

    The star of a 7-form is its coefficient divided by sqrt(det g).  For any
    lifted triple the product phi ∧ dphi pairs a 1-dt-index 3-form against a
    1-dt-index 4-form, which can never fill all seven slots, so the trace
    vanishes identically for this ansatz.
    """
    top = np.einsum('...m,mn,...n->...', phi, _W34, dphi)
    val = 0.25 * top / np.sqrt(np.linalg.det(g7))
    return float(val) if np.ndim(val) == 0 else val
