"""Independent brute-force oracles used by the test suite.

Forms are dicts mapping index bitmasks to coefficients; signs come from
counting bit crossings.  Deliberately a different code path from the
package's tuple-table implementation so agreement is meaningful.
"""

from itertools import combinations, permutations

import numpy as np

# 2-form basis order shared with the package: (e01, e02, e03, e23, e31, e12)
PAIRS = [(0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2)]
TRIPLES4 = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def merge_sign(m1: int, m2: int) -> int:
    m1, m2 = int(m1), int(m2)
    if m1 & m2:
        return 0
    s = 1
    for b in range(m2.bit_length()):
        if m2 >> b & 1:
            if bin(m1 >> (b + 1)).count("1") % 2:
                s = -s
    return s


def wedge(f1: dict, f2: dict) -> dict:
    out = {}
    for m1, c1 in f1.items():
        for m2, c2 in f2.items():
            s = merge_sign(m1, m2)
            if s:
                k = m1 | m2
                out[k] = out.get(k, 0.0) + s * c1 * c2
    return out


def mono(*idx) -> dict:
    f = {0: 1.0}
    for i in idx:
        f = wedge(f, {1 << int(i): 1.0})
    return f


def scal(c, f: dict) -> dict:
    return {k: c * v for k, v in f.items()}


def add(*fs) -> dict:
    out = {}
    for f in fs:
        for k, v in f.items():
            out[k] = out.get(k, 0.0) + v
    return out


def interior(a: int, f: dict) -> dict:
    out = {}
    for m, c in f.items():
        if not (m >> a) & 1:
            continue
        s = -1 if bin(m & ((1 << a) - 1)).count("1") % 2 else 1
        out[m & ~(1 << a)] = out.get(m & ~(1 << a), 0.0) + s * c
    return out


def two4(c, shift: int = 0) -> dict:
    """2-form on R^4 from package-order coefficients, indices shifted by ``shift``."""
    return add(*[scal(ci, mono(*[x + shift for x in p]))
                 for ci, p in zip(c, PAIRS)])


def coeff(f: dict, *idx) -> float:
    """Coefficient of f against the (ordered) monomial e^{idx}."""
    s = 1
    m = 0
    for i in idx:
        s *= merge_sign(m, 1 << i)
        m |= 1 << i
    if s == 0:
        raise ValueError("repeated index")
    return s * f.get(m, 0.0)


def top_coeff(f: dict, n: int) -> float:
    return f.get((1 << n) - 1, 0.0)


EPS3 = np.zeros((3, 3, 3))
for _p in permutations(range(3)):
    _s = 1
    for _i in range(3):
        for _j in range(_i + 1, 3):
            if _p[_i] > _p[_j]:
                _s = -_s
    EPS3[_p] = _s


def wedge22_oracle(a, b) -> float:
    """Coefficient of a ∧ b on e0123 by direct term-by-term expansion."""
    return top_coeff(wedge(two4(a), two4(b)), 4)


def metric_density_oracle(triple) -> np.ndarray:
    """Direct evaluation of K_ab = (1/6) eps_ijk (e_a . w_i) ∧ (e_b . w_j) ∧ w_k."""
    oms = [two4(triple[i]) for i in range(3)]
    K = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            tot = 0.0
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        e = EPS3[i, j, k]
                        if not e:
                            continue
                        w = wedge(wedge(interior(a, oms[i]),
                                        interior(b, oms[j])), oms[k])
                        tot += e * top_coeff(w, 4)
            K[a, b] = tot / 6.0
    return K


def det3_cofactor(s) -> float:
    """Cofactor-expansion determinant, summed in a fixed independent order."""
    s = np.asarray(s)
    return float(
        s[0, 0] * (s[1, 1] * s[2, 2] - s[1, 2] * s[2, 1])
        - s[0, 1] * (s[1, 0] * s[2, 2] - s[1, 2] * s[2, 0])
        + s[0, 2] * (s[1, 0] * s[2, 1] - s[1, 1] * s[2, 0]))


def levi_civita_contraction(s) -> np.ndarray:
    """Full 27-term contraction eps_ijk S_ip S_jq S_kl as an explicit loop."""
    s = np.asarray(s)
    out = np.zeros((3, 3, 3))
    for p in range(3):
        for q in range(3):
            for l in range(3):
                acc = 0.0
                for i in range(3):
                    for j in range(3):
                        for k in range(3):
                            acc += EPS3[i, j, k] * s[i, p] * s[j, q] * s[k, l]
                out[p, q, l] = acc
    return out


def inner_2forms(beta, gamma, ginv) -> float:
    """<beta, gamma>_g on 2-forms via raised indices: (1/2) b^{ab} g_{raised} ..."""
    B = np.zeros((4, 4))
    G = np.zeros((4, 4))
    for m, (a, b) in enumerate(PAIRS):
        B[a, b] += beta[m]
        B[b, a] -= beta[m]
        G[a, b] += gamma[m]
        G[b, a] -= gamma[m]
    raised = ginv @ B @ ginv.T
    return 0.5 * float((raised * G).sum())


def random_positive_mix(rng, cond_max: float = 100.0, det_min: float = 0.05):
    while True:
        m = rng.uniform(-1.0, 1.0, (3, 3))
        det = np.linalg.det(m)
        if abs(det) < det_min or np.linalg.cond(m) > cond_max:
            continue
        return m if det > 0 else -m


def star_oracle(coeffs, g, tuples_k, tuples_comp, n):
    """Hodge star on R^n from the defining relation, bitmask combinatorics."""
    h = np.linalg.inv(g)
    sg = np.sqrt(np.linalg.det(g))
    mk = len(tuples_k)
    G = np.zeros((mk, mk))
    for i, I in enumerate(tuples_k):
        for j, J in enumerate(tuples_k):
            G[i, j] = np.linalg.det(h[np.ix_(I, J)])
    W = np.zeros((mk, len(tuples_comp)))
    for i, I in enumerate(tuples_k):
        for j, J in enumerate(tuples_comp):
            W[i, j] = top_coeff(wedge(mono(*I), mono(*J)), n)
    return np.linalg.solve(W, G @ np.asarray(coeffs) * sg)


def star7_oracle(coeffs, g7, tuples_k, tuples_comp):
    return star_oracle(coeffs, g7, tuples_k, tuples_comp, 7)


# Frozen six-product metric density, as the package evaluated it before it
# switched to a monomial table: reference for that table to roundoff.
_CMAT = np.zeros((6, 4, 4))
for _m, (_a, _b) in enumerate(PAIRS):
    _CMAT[_m, _a, _b] = 1.0
    _CMAT[_m, _b, _a] = -1.0
# metric-free duality on coefficients: eps^{cdef} Z_{ef} swaps the two halves
_SWAP = np.array([3, 4, 5, 0, 1, 2])


def metric_density_six_products(triple) -> np.ndarray:
    """K = (1/6) eps_ijk ... as six matrix products 2 B_i S_k B_j^T, batched.

    B_i is the antisymmetric matrix of w_i and S_k that of its half-swapped
    coefficients; the result is symmetrized, (K + K^T) / 2.
    """
    triple = np.asarray(triple, dtype=float)
    flat = _CMAT.reshape(6, 16)
    B = np.matmul(triple, flat).reshape(triple.shape[:-1] + (4, 4))
    S = np.matmul(triple[..., _SWAP], flat).reshape(triple.shape[:-1] + (4, 4))
    Bi = [B[..., i, :, :] for i in range(3)]
    Si = [S[..., i, :, :] for i in range(3)]
    Bt = [np.swapaxes(b, -1, -2) for b in Bi]

    def term(i, k, j):
        return np.matmul(np.matmul(Bi[i], Si[k]), Bt[j])

    k = (term(0, 2, 1) + term(1, 0, 2) + term(2, 1, 0)
         - term(0, 1, 2) - term(2, 0, 1) - term(1, 2, 0))
    k /= 6.0
    return 0.5 * (k + np.swapaxes(k, -1, -2))


# Frozen three-einsum 7-dimensional metric density, as the package evaluated
# it before it switched to a monomial table; its interior, wedge and pairing
# tables are rebuilt here from the bitmask algebra.
_L2_7 = list(combinations(range(7), 2))
_L3_7 = list(combinations(range(7), 3))
_L4_7 = list(combinations(range(7), 4))


def _coeff_vector(f: dict, tuples) -> np.ndarray:
    return np.array([coeff(f, *t) for t in tuples])


_INT3_7 = np.stack([np.stack([_coeff_vector(interior(a, mono(*I)), _L2_7) for I in _L3_7])
                    for a in range(7)])
_W22_7 = np.stack([np.stack([_coeff_vector(wedge(mono(*I), mono(*J)), _L4_7) for J in _L2_7])
                   for I in _L2_7])
_W43_7 = np.array([[top_coeff(wedge(mono(*I), mono(*J)), 7) for J in _L3_7] for I in _L4_7])


def metric_density7_einsum(phi) -> np.ndarray:
    """K_ab = (1/6)(e_a ⌟ phi) ∧ (e_b ⌟ phi) ∧ phi as three einsums, symmetrized."""
    ia = np.einsum('amq,...m->...aq', _INT3_7, phi)
    four = np.einsum('...am,...bn,mnp->...abp', ia, ia, _W22_7)
    k = np.einsum('...abp,pq,...q->...ab', four, _W43_7, phi) / 6.0
    return 0.5 * (k + np.swapaxes(k, -1, -2))
