"""Pointwise triple algebra from the defining relations, written without hsflow.

The benchmark checks the program's normalization against this module, and
uses it to fix the simulated end time of a workload from its initial data.

Forms are dicts mapping an index tuple ``I`` to the coefficient of
``dx^I = dx^I[0] ^ dx^I[1] ^ ...``.  A wedge product concatenates index
tuples and takes the parity of the permutation that sorts them.  The only
convention shared with hsflow is its documented array layout: 2-form
coefficients in the order (e01, e02, e03, e23, e31, e12), with e31 meaning
dx^3 ^ dx^1, and the HSF1 snapshot layout.
"""

from __future__ import annotations

import itertools
import struct

import numpy as np

BASIS2 = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
TOP = (0, 1, 2, 3)
HSF1_HEADER_BYTES = 4 + struct.calcsize("<4I4ddI")


def _sorted_sign(idx):
    """(sign, sorted tuple) of a monomial; sign 0 when an index repeats."""
    if len(set(idx)) < len(idx):
        return 0, idx
    lst, sign = list(idx), 1
    for i in range(len(lst)):
        for j in range(len(lst) - 1 - i):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                sign = -sign
    return sign, tuple(lst)


def wedge(a: dict, b: dict) -> dict:
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            sign, key = _sorted_sign(ia + ib)
            if sign:
                out[key] = out.get(key, 0.0) + sign * ca * cb
    return out


def interior(axis: int, form: dict) -> dict:
    """e_axis contracted into the first slot: e_a _| dx^I."""
    out = {}
    for idx, c in form.items():
        for pos, x in enumerate(idx):
            if x == axis:
                key = idx[:pos] + idx[pos + 1:]
                out[key] = out.get(key, 0.0) + (-1) ** pos * c
    return out


def _basis(m: int) -> dict:
    return {BASIS2[m]: 1.0}


# PAIR[m, n]: e0123 coefficient of beta_m ^ beta_n
PAIR = np.array([[wedge(_basis(m), _basis(n)).get(TOP, 0.0) for n in range(6)]
                 for m in range(6)])

# K_ab e0123 = (1/6) eps_ijk (e_a _| w_i) ^ (e_b _| w_j) ^ w_k.  With
# C[a, b, m, n, p] the e0123 coefficient of (e_a _| beta_m) ^ (e_b _| beta_n)
# ^ beta_p, K_ab = (1/6) sum_mnp C[a, b, m, n, p] D_mnp, where
# D_mnp = eps_ijk w_im w_jn w_kp is the determinant of columns (m, n, p) of
# the 3x6 coefficient matrix.  D is antisymmetric, so only m < n < p is kept.
_C = np.zeros((4, 4, 6, 6, 6))
for _a, _b, _m, _n, _p in itertools.product(range(4), range(4), *[range(6)] * 3):
    _form = wedge(wedge(interior(_a, _basis(_m)), interior(_b, _basis(_n))),
                  _basis(_p))
    _C[_a, _b, _m, _n, _p] = _form.get(TOP, 0.0)
COLUMN_TRIPLES = tuple(itertools.combinations(range(6), 3))
_A = np.zeros((len(COLUMN_TRIPLES), 4, 4))
for _t, _cols in enumerate(COLUMN_TRIPLES):
    for _perm in itertools.permutations(range(3)):
        _sign = _sorted_sign(_perm)[0]
        _A[_t] += _sign * _C[:, :, _cols[_perm[0]], _cols[_perm[1]], _cols[_perm[2]]]


def _det3(m: np.ndarray) -> np.ndarray:
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def metric_density(w: np.ndarray) -> np.ndarray:
    """K of triples w with shape (..., 3, 6); returns (..., 4, 4)."""
    minors = np.stack([_det3(w[..., :, cols]) for cols in COLUMN_TRIPLES], axis=-1)
    return np.einsum("...t,tab->...ab", minors, _A) / 6.0


def normalize(w: np.ndarray):
    """(q, g, mu): Gram against the triple's own volume, metric, volume.

    mu = det(K)^(1/6), g = K / mu and w_i ^ w_j = 2 q_ij mu e0123.
    """
    K = metric_density(w)
    mu = np.linalg.det(K) ** (1.0 / 6.0)
    g = K / mu[..., None, None]
    q = np.einsum("...im,mn,...jn->...ij", w, PAIR, w) / (2.0 * mu[..., None, None])
    return q, g, mu


def cfl_dt(w: np.ndarray, h: float, cfl: float) -> float:
    """cfl * h^2 / max(largest Gram eigenvalue / smallest metric eigenvalue)."""
    q, g, _ = normalize(w)
    lam = np.linalg.eigvalsh(q)[..., -1] / np.linalg.eigvalsh(g)[..., 0]
    return cfl * h * h / float(lam.max())


def _diff4(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Periodic 4th-order central difference, the stencil of the flow runs."""
    inner = np.roll(f, -1, axis) - np.roll(f, 1, axis)
    outer = np.roll(f, -2, axis) - np.roll(f, 2, axis)
    return (8.0 * inner - outer) / (12.0 * h)


def max_closedness_defect(c: np.ndarray, h) -> float:
    """sup |d w_i| over the lattice for a triple field c of shape (grid, 3, 6)."""
    worst = 0.0
    for i in range(3):
        form = {BASIS2[m]: c[..., i, m] for m in range(6)}
        for cell in itertools.combinations(range(4), 3):
            total = 0.0
            for idx, coeff in form.items():
                for axis in range(4):
                    sign, key = _sorted_sign((axis,) + idx)
                    if sign and key == cell:
                        total = total + sign * _diff4(coeff, axis, h[axis])
            worst = max(worst, float(np.abs(total).max()))
    return worst


def standard_periods() -> np.ndarray:
    """Periods (per unit torus area) of w_i = dx^0 ^ dx^i + dx^j ^ dx^k."""
    p = np.zeros((3, 6))
    for i in range(3):
        p[i, i] = 1.0
        p[i, 3 + i] = 1.0
    return p


def hsf1_size(shape) -> int:
    """Bytes of an HSF1 file holding one triple on a lattice of ``shape``."""
    return HSF1_HEADER_BYTES + 3 * int(np.prod(shape)) * 6 * 8
