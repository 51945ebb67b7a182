"""Combinatorial tables for dense exterior algebra in low dimensions.

Degree-k forms are stored as flat coefficient vectors over an explicit ordered
basis of index tuples.  Basis tuples may be given in non-sorted order (the
4-dimensional 2-form basis uses ``(3, 1)`` for e31).  Every sign comes from
:func:`wedge_table`, which accounts for that: the interior, pairing and
derivative tables are read from it, and :func:`density_table`, the one
builder of a metric density, reads those.  Everything in this module is
metric-free but :func:`apply_metric`, the one kernel that applies Lambda^k of
a symmetric matrix to k-forms; it broadcasts over arbitrary leading axes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations

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


def wedge_table(tuples_a, tuples_b, tuples_out) -> np.ndarray:
    """Dense structure tensor T with (α ∧ β)_p = T[m, l, p] α_m β_l, the one
    place a sign is computed; ``tuples_out`` must hold every nonzero product."""
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


def pairing_matrix(tuples_a, tuples_b, n: int) -> np.ndarray:
    """Matrix W with e^{I_m} ∧ e^{J_l} = W[m, l] * e^{0...n-1}, for bases of
    complementary degree only: a signed permutation matrix, so W^{-1} = W^T."""
    return wedge_table(tuples_a, tuples_b, (tuple(range(n)),))[..., 0]


def interior_table(tuples_in, tuples_out, n: int) -> np.ndarray:
    """Structure tensor C with (e_a ⌟ β)_q = C[a, m, q] β_m: on the coordinate
    basis e_a ⌟ is the transpose of e^a ∧, so C is its wedge table transposed."""
    return wedge_table(lex_tuples(n, 1), tuples_out, tuples_in).transpose(0, 2, 1)


def aligned(shape, lead: int = 0, within=None) -> np.ndarray:
    """Float memory of ``shape`` whose flat element ``lead`` sits on a 64-byte
    boundary: a view of ``within``, 1-D float memory of 7 elements more, else
    new.  ``np.empty`` returns addresses 0 to 48 bytes past one, and numpy's
    AVX-512 loops write a misaligned output at about half speed: ``np.add`` of
    two 16384-element rows took 0.25-0.46 ns per element into an aligned
    ``out``, 0.47-0.63 ns into one 8 to 56 bytes off and 0.25-0.34 ns from an
    input 24 bytes off (2-vCPU Xeon VM with AVX-512, numpy 2.4)."""
    size = math.prod(shape)
    buf = np.empty(size + 7) if within is None else within
    at = -(buf.ctypes.data // 8 + lead) % 8
    return buf[at:at + size].reshape(shape)


class RowProducts:
    """Entries that are signed sums of products of component rows.

    Built from integer terms ``(e, f0, ..., fd, num)``: entry e, a flat index
    into ``shape``, gains ``num / den * x[f0] ... x[fd]``, of two or three
    factors.  Each term's factors are sorted and equal monomials summed, so
    ``coef`` (entries x monomials, in lexicographic order of ``factors``) is
    exact.  A ``symmetric`` (n, n) matrix is evaluated on and above its
    diagonal and copied below it.

    Evaluated by ufuncs on component rows, in one pass over the given points:
    the product of a monomial's factors but its last, once per distinct
    prefix and in order, and with it every entry adds or subtracts its
    product with the last factor.  So each entry sums its monomials in table
    order, then takes its one |coefficient| and, given a pointwise divisor,
    divides by it.  No gather, transpose or BLAS call is made: a point's
    bits do not depend on its piece, batch or layout.
    """

    def __init__(self, shape, terms, den=1, symmetric=False):
        entry, *factors, num = np.asarray(terms, dtype=np.intp).T
        factors = np.sort(factors, axis=0)   # each term's factors, ascending
        degree, nvar, size = len(factors), int(factors.max()) + 1, math.prod(shape)
        monos = nvar ** degree
        keys, at = np.unique(entry * monos
                             + np.ravel_multi_index(tuple(factors), (nvar,) * degree),
                             return_inverse=True)
        total = np.rint(np.bincount(at, weights=num))
        entry, mono = np.divmod(keys[total != 0], monos)
        mono, col = np.unique(mono, return_inverse=True)
        self.coef = np.zeros((size, len(mono)))
        self.coef[entry, col] = total[total != 0] / den
        self.factors = np.stack(np.unravel_index(mono, (nvar,) * degree))
        rows = mirrors = np.arange(size)
        if symmetric:
            iu, ju = np.triu_indices(shape[0])
            rows, mirrors = iu * shape[0] + ju, ju * shape[0] + iu
        evaluated = self.coef[rows]
        scale = np.abs(evaluated).max(axis=1)
        # the evaluated entries' terms, monomial by monomial in table order
        mono, at = np.nonzero(evaluated.T)
        if np.any(np.abs(evaluated[at, mono]) != scale[at]) or not np.all(scale):
            raise ValueError("each entry needs monomials of one |coefficient|")
        first = np.zeros(len(mono), dtype=bool)
        first[np.unique(at, return_index=True)[1]] = True
        prefixes, group = np.unique(np.ravel_multi_index(tuple(self.factors[:-1]),
                                                         (nvar,) * (degree - 1)),
                                    return_inverse=True)
        # per prefix: its factors and its terms (entry row, last factor, negated, entry's first)
        self._groups = [(tuple(map(int, np.unravel_index(p, (nvar,) * (degree - 1)))), [])
                        for p in prefixes]
        for k, e, neg, fst in zip(mono.tolist(), rows[at].tolist(),
                                  (evaluated[at, mono] < 0).tolist(), first.tolist()):
            self._groups[group[k]][1].append((e, int(self.factors[-1, k]), neg, fst))
        self._entries = list(zip(rows.tolist(), mirrors.tolist(), scale.tolist()))
        self.shape = tuple(shape)

    def __call__(self, xs, out: np.ndarray, divisor=None) -> np.ndarray:
        """The entries, written into the rows of ``out`` (entries, points);
        the rows of x are those of the (rows, points) arrays ``xs`` in turn.
        With a pointwise ``divisor`` (points,), each entry ends divided by
        it.  ``out`` must not share memory with an operand."""
        if any(np.shares_memory(rows, out) for rows in xs):
            raise ValueError("out shares memory with an operand")
        x = [r for rows in xs for r in rows]
        pair, term = aligned((2, out.shape[1]))   # a prefix product and a term
        entry = list(out)
        for prefix, terms in self._groups:
            p = x[prefix[0]] if len(prefix) == 1 else np.multiply(
                x[prefix[0]], x[prefix[1]], out=pair)
            for e, f, neg, first in terms:
                if first:
                    np.multiply(p, x[f], out=entry[e])
                    if neg:
                        np.negative(entry[e], out=entry[e])
                else:
                    np.multiply(p, x[f], out=term)
                    (np.subtract if neg else np.add)(entry[e], term, out=entry[e])
        for e, mirror, scale in self._entries:
            if scale != 1.0:
                entry[e] *= scale
            if divisor is not None:
                entry[e] /= divisor
            if mirror != e:
                entry[mirror][...] = entry[e]
        return out


def density_table(tuples_k, n: int, forms) -> RowProducts:
    """The metric density of degree-k forms on R^n (n = 3k - 2, the basis
    ``tuples_k``) as a cubic form in their coefficients, flattened form-major:
    6 K_ab e^{0...n-1} = sum s (e_a ⌟ x_i) ∧ (e_b ⌟ x_j) ∧ x_k over the
    ``(i, j, k, s)`` of ``forms``, exactly symmetric.  Each product of basis
    forms has at most one nonzero coefficient, so the interior, wedge and
    pairing tables are read as lookups."""
    k, m = len(tuples_k[0]), len(tuples_k)
    inner = interior_table(tuples_k, lex_tuples(n, k - 1), n)
    wedge = wedge_table(lex_tuples(n, k - 1), lex_tuples(n, k - 1), lex_tuples(n, n - k))
    pairing = pairing_matrix(lex_tuples(n, n - k), tuples_k, n)
    a, u, r = np.nonzero(inner)
    sign = inner[a, u, r]
    ia = np.repeat(np.arange(len(a)), len(a))
    ib = np.tile(np.arange(len(a)), len(a))
    pair = r[ia] * wedge.shape[1] + r[ib]
    p = np.abs(wedge).argmax(axis=-1).ravel()[pair]
    s = sign[ia] * sign[ib] * wedge.sum(axis=-1).ravel()[pair] * pairing.sum(axis=-1)[p]
    keep = np.flatnonzero(s)
    ia, ib, s = ia[keep], ib[keep], s[keep]
    w = np.abs(pairing).argmax(axis=-1)[p[keep]]
    return RowProducts((n, n), np.concatenate([np.stack(
        [n * a[ia] + a[ib], m * i + u[ia], m * j + u[ib], m * l + w, sf * s], axis=1)
        for i, j, l, sf in forms]), 6, symmetric=True)


@lru_cache(maxsize=16)
def _dense_table(tuples, n: int):
    """Where each basis k-form sits in the dense antisymmetric n^k tensor.

    Row p of ``pos`` holds the flat tensor index of every tuple with its
    indices permuted by the p-th permutation of ``range(k)``, ``sign[p]``
    that permutation's parity; row 0 is the identity, so the tuples in their
    stored order, which bakes in the sign of non-sorted labels.
    """
    perms = list(permutations(range(len(tuples[0]))))
    pos = np.array([[np.ravel_multi_index([t[i] for i in p], (n,) * len(p)) for t in tuples]
                    for p in perms], dtype=np.intp)
    return pos, np.array([float(tuple_parity(p)) for p in perms])


def apply_metric(h: np.ndarray, coeffs: np.ndarray, tuples) -> np.ndarray:
    """Lambda^k(h) applied to a k-form: ``out_J = sum_I det(h[J, I]) c_I``.

    The coefficients are spread to the dense antisymmetric tensor, each of
    its k indices is contracted with the symmetric matrix ``h`` by a batched
    ``matmul``, and the basis entries are read back.  Broadcasts: coeffs
    (..., m) over ``tuples``, h (..., n, n).
    """
    tuples = tuple(map(tuple, tuples))
    n, k = h.shape[-1], len(tuples[0])
    pos, sign = _dense_table(tuples, n)
    batch = np.broadcast_shapes(coeffs.shape[:-1], h.shape[:-2])
    t = np.zeros(batch + (n ** k,))
    t[..., pos] = coeffs[..., None, :] * sign[:, None]
    for _ in range(k):   # contract the leading index, then rotate it to the back
        t = np.swapaxes(h @ t.reshape(batch + (n, -1)), -1, -2)
    return t.reshape(batch + (n ** k,))[..., pos[0]]


def d_entries(tuples_in, tuples_out, n: int):
    """Assembly table of the exterior derivative, d(f e^I) = sum_a (df/dx^a)
    e^a ∧ e^I, from the wedge table: ``(dst_comp, src_comp, axis, sign)``, the
    derivative of component ``src_comp`` along ``axis`` added with ``sign`` to
    ``dst_comp``, in order of ``src_comp``, then of ``axis``."""
    T = wedge_table(lex_tuples(n, 1), tuples_in, tuples_out).transpose(1, 0, 2)
    m, a, p = np.nonzero(T)
    return list(zip(p.tolist(), m.tolist(), a.tolist(), T[m, a, p].astype(int).tolist()))
