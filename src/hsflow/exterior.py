"""Combinatorial tables for dense exterior algebra in low dimensions.

Degree-k forms are stored as flat coefficient vectors over an explicit ordered
basis of index tuples.  Basis tuples may be given in non-sorted order (the
4-dimensional 2-form basis uses ``(3, 1)`` for e31); all signs produced here
account for that.  Everything in this module is metric-free; metric-dependent
pieces (Gram matrices of form bases, Hodge stars) take the inverse metric as
input and broadcast over arbitrary leading axes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np


def tuple_parity(t) -> int:
    """Sign of the permutation sorting ``t``; 0 if an index repeats."""
    t = list(t)
    if len(set(t)) != len(t):
        return 0
    sign = 1
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            if t[i] > t[j]:
                sign = -sign
    return sign


def lex_tuples(n: int, k: int):
    """Sorted index tuples of the lexicographic degree-k basis on R^n."""
    return tuple(combinations(range(n), k))


def wedge_sign(i_tuple, j_tuple):
    """Return ``(sign, sorted_tuple)`` with e^I ∧ e^J = sign * e^sorted; sign 0 on overlap."""
    cat = tuple(i_tuple) + tuple(j_tuple)
    s = tuple_parity(cat)
    if s == 0:
        return 0, None
    return s, tuple(sorted(cat))


def pairing_matrix(tuples_a, tuples_b, n: int) -> np.ndarray:
    """Matrix W with e^{I_m} ∧ e^{J_l} = W[m, l] * e^{0...n-1}.

    Nonzero only for complementary index sets, so for complementary degrees W
    is a signed permutation matrix (hence W^{-1} = W^T).
    """
    full = tuple(range(n))
    W = np.zeros((len(tuples_a), len(tuples_b)))
    for m, I in enumerate(tuples_a):
        for l, J in enumerate(tuples_b):
            s, sorted_t = wedge_sign(I, J)
            if s and sorted_t == full:
                W[m, l] = s
    return W


def wedge_table(tuples_a, tuples_b, tuples_out) -> np.ndarray:
    """Dense structure tensor T with (α ∧ β)_p = T[m, l, p] α_m β_l."""
    pos = {}
    for p, K in enumerate(tuples_out):
        pos[tuple(sorted(K))] = (p, tuple_parity(K))
    T = np.zeros((len(tuples_a), len(tuples_b), len(tuples_out)))
    for m, I in enumerate(tuples_a):
        for l, J in enumerate(tuples_b):
            s, sorted_t = wedge_sign(I, J)
            if not s:
                continue
            p, par = pos[sorted_t]
            # coefficient against basis element K: e^K = par * e^sorted(K)
            T[m, l, p] = s * par
    return T


def interior_table(tuples_in, tuples_out, n: int) -> np.ndarray:
    """Structure tensor C with (e_a ⌟ β)_q = C[a, m, q] β_m."""
    pos = {}
    for q, K in enumerate(tuples_out):
        pos[tuple(sorted(K))] = (q, tuple_parity(K))
    C = np.zeros((n, len(tuples_in), len(tuples_out)))
    for m, I in enumerate(tuples_in):
        par_in = tuple_parity(I)
        I_sorted = tuple(sorted(I))
        for j, a in enumerate(I_sorted):
            rest = I_sorted[:j] + I_sorted[j + 1:]
            q, par_out = pos[rest]
            C[a, m, q] = par_in * par_out * (-1) ** j
    return C


def slot_terms(inner: np.ndarray, wedge: np.ndarray, pairing: np.ndarray):
    """Nonzero terms of (e_a ⌟ e^u) ∧ (e_b ⌟ e^v) ∧ e^w = s e^{0...n-1}.

    ``inner`` is the :func:`interior_table` of the degree-k basis, ``wedge``
    the :func:`wedge_table` of two (k-1)-forms and ``pairing`` the
    :func:`pairing_matrix` of their product against degree k.  Each product
    of basis forms has at most one nonzero coefficient, so the tables are
    read as lookups.  Returns integer arrays ``(a, b, u, v, w, s)``.
    """
    a, u, r = np.nonzero(inner)
    sign = inner[a, u, r]
    ia = np.repeat(np.arange(len(a)), len(a))
    ib = np.tile(np.arange(len(a)), len(a))
    pair = r[ia] * wedge.shape[1] + r[ib]
    p = np.abs(wedge).argmax(axis=-1).ravel()[pair]
    s = sign[ia] * sign[ib] * wedge.sum(axis=-1).ravel()[pair] * pairing.sum(axis=-1)[p]
    keep = np.flatnonzero(s)
    w = np.abs(pairing).argmax(axis=-1)[p[keep]]
    return a[ia[keep]], a[ib[keep]], u[ia[keep]], u[ib[keep]], w, s[keep].astype(np.intp)


class CubicMatrix:
    """A symmetric n x n matrix whose entries are cubic forms in a vector x.

    Built from terms ``(a, b, f, c)``: entry (a, b) gains
    ``c / 6 * x[f0] x[f1] x[f2]``.  The factors of each monomial are sorted
    and the integer coefficients of 6 M summed and rounded, so ``coef``
    (n * n rows, one column per monomial in lexicographic order of
    ``factors``) is exact.  M is evaluated ``block`` points at a time from
    its rows on and above the diagonal, which are then copied to both sides,
    so every result is exactly symmetric.
    """

    def __init__(self, n: int, a, b, factors, six_coef, block: int):
        f0, f1, f2 = factors
        f0, f1 = np.minimum(f0, f1), np.maximum(f0, f1)     # sort each monomial's factors
        f1, f2 = np.minimum(f1, f2), np.maximum(f1, f2)
        f0, f1 = np.minimum(f0, f1), np.maximum(f0, f1)
        nvar = int(f2.max()) + 1
        # one key per (entry, monomial); the summed integer coefficients of 6 M
        terms, at = np.unique(((a * n + b) * nvar + f0) * nvar ** 2 + f1 * nvar + f2,
                              return_inverse=True)
        six = np.rint(np.bincount(at, weights=six_coef))
        entry, mono = np.divmod(terms[six != 0], nvar ** 3)
        mono, col = np.unique(mono, return_inverse=True)
        self.coef = np.zeros((n * n, len(mono)))
        self.coef[entry, col] = six[six != 0] / 6.0
        self.factors = np.stack(np.unravel_index(mono, (nvar,) * 3))
        iu, ju = np.triu_indices(n)
        self._upper_t = np.ascontiguousarray(self.coef[iu * n + ju].T)
        upper_of = np.empty((n, n), dtype=np.intp)
        upper_of[iu, ju] = upper_of[ju, iu] = np.arange(len(iu))
        self._upper_of = upper_of.ravel()
        self.n, self.block = n, block

    def __call__(self, x: np.ndarray, out=None) -> np.ndarray:
        """M(x) for x of shape (..., nvar); shape (..., n, n), a view of an
        array that holds each entry contiguously over the points, ``out``'s
        when given.  The product with ``coef`` is point-major whatever x's
        layout, because BLAS's rounding depends on the operands' layout."""
        x = np.asarray(x, dtype=float)
        cols = np.moveaxis(x, -1, 0).reshape(x.shape[-1], -1)
        if out is None:
            out = np.moveaxis(np.empty((self.n, self.n) + x.shape[:-1]), (0, 1), (-2, -1))
        rows = np.reshape(np.moveaxis(out, (-2, -1), (0, 1)), (self.n * self.n, -1), copy=False)
        f0, f1, f2 = self.factors
        for start in range(0, cols.shape[1], self.block):
            block = cols[:, start:start + self.block]
            mono = np.take(block, f0, axis=0)
            mono *= np.take(block, f1, axis=0)
            mono *= np.take(block, f2, axis=0)
            np.take(np.ascontiguousarray(mono.T) @ self._upper_t, self._upper_of, axis=1,
                    out=rows[:, start:start + self.block].T)
        return out


@lru_cache(maxsize=16)
def _laplace_tables(tuples, n: int):
    """Index tables expanding det(h[I, J]) along the first index of I.

    Term c of the expansion is ``sign[c] * h[I_0, J_c] * G[I_rest, J_rest_c]``
    with G the Gram of the lexicographic degree-(k-1) basis; ``sign[c]``
    carries (-1)^c and the parities that sort the two remaining tuples.
    Returns ``(lower, row, sub_row, col, sub_col, sign)``, the column tables
    stacked over c.
    """
    k = len(tuples[0])
    lower = lex_tuples(n, k - 1)
    pos = {t: i for i, t in enumerate(lower)}

    def rest(t, c):   # position of t without its c-th index, and that tuple's parity
        r = t[:c] + t[c + 1:]
        return pos[tuple(sorted(r))], tuple_parity(r)

    row = np.array([I[0] for I in tuples], dtype=np.intp)
    sub_row, row_sign = np.array([rest(I, 0) for I in tuples]).T
    col = np.array([[J[c] for J in tuples] for c in range(k)], dtype=np.intp)
    sub_col, col_sign = np.array([[rest(J, c) for J in tuples]
                                  for c in range(k)]).transpose(2, 0, 1)
    sign = ((-1.0) ** np.arange(k))[:, None, None] * row_sign[:, None] * col_sign[:, None, :]
    return lower, row, sub_row, col, sub_col, sign


def metric_gram(h: np.ndarray, tuples) -> np.ndarray:
    """Gram matrix of the degree-k basis under the inner product induced by g.

    ``h`` is the inverse metric g^{-1}, shape (..., n, n).  Entry [m, l] is
    det(h[I_m, J_l]); the index tuples are used in their stored order, which
    bakes in the sign of non-sorted labels.  For k >= 3 the minors come by
    Laplace expansion from the Gram of degree k - 1.  Broadcasts over
    leading axes.
    """
    idx = np.array([list(t) for t in tuples], dtype=np.intp)
    k = idx.shape[1]
    if k == 0:
        shape = h.shape[:-2] + (1, 1)
        return np.ones(shape, dtype=h.dtype)
    if k >= 3:
        lower, row, sub_row, col, sub_col, sign = _laplace_tables(
            tuple(map(tuple, tuples)), h.shape[-1])
        G = metric_gram(h, lower)
        return sum(sign[c] * h[..., row[:, None], col[c][None, :]]
                   * G[..., sub_row[:, None], sub_col[c][None, :]] for c in range(k))
    sub = h[..., idx[:, None, :, None], idx[None, :, None, :]]
    if k == 1:
        return sub[..., 0, 0]
    return (sub[..., 0, 0] * sub[..., 1, 1]
            - sub[..., 0, 1] * sub[..., 1, 0])


def star_via_pairing(coeffs: np.ndarray, h: np.ndarray, sqrt_det_g: np.ndarray,
                     tuples_k, w_inv: np.ndarray) -> np.ndarray:
    """Hodge star from the defining relation α ∧ *β = <α, β>_g vol_g.

    ``w_inv`` is the inverse of ``pairing_matrix(tuples_k, tuples_{n-k}, n)``.
    Broadcasts: coeffs (..., m), h (..., n, n), sqrt_det_g (...).
    """
    G = metric_gram(h, tuples_k)
    raised = np.einsum('...ml,...l->...m', G, coeffs)
    out = np.einsum('pm,...m->...p', w_inv, raised)
    return out * sqrt_det_g[..., None] if np.ndim(sqrt_det_g) else out * sqrt_det_g


def d_entries(tuples_in, tuples_out, n: int):
    """Assembly table for the coefficientwise exterior derivative.

    Returns a list of ``(dst_comp, src_comp, axis, sign)``: the derivative of
    source component ``src_comp`` along ``axis`` contributes with ``sign`` to
    output component ``dst_comp``.
    """
    pos = {}
    for p, K in enumerate(tuples_out):
        pos[tuple(sorted(K))] = (p, tuple_parity(K))
    entries = []
    for m, I in enumerate(tuples_in):
        for a in range(n):
            s, sorted_t = wedge_sign((a,), I)
            if not s:
                continue
            p, par = pos[sorted_t]
            entries.append((p, m, a, s * par))
    return entries
