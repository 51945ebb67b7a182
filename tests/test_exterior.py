from itertools import combinations

import numpy as np
import pytest

import oracles
from hsflow import exterior
from hsflow import grid_calculus as gc


def test_tuple_parity():
    assert exterior.tuple_parity((0, 1, 2)) == 1
    assert exterior.tuple_parity((3, 1)) == -1
    assert exterior.tuple_parity((2, 0, 1)) == 1
    assert exterior.tuple_parity((1, 1)) == 0


def test_wedge_sign_matches_bitmask_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(3, 8))
        ka = int(rng.integers(1, 3))
        kb = int(rng.integers(1, 3))
        I = tuple(rng.permutation(n)[:ka])
        J = tuple(rng.permutation(n)[:kb])
        s, sorted_t = exterior.wedge_sign(I, J)
        w = oracles.wedge(oracles.mono(*I), oracles.mono(*J))
        if s == 0:
            assert not any(abs(v) > 0 for v in w.values())
        else:
            assert oracles.coeff(w, *sorted_t) == s


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (7, 3)])
def test_pairing_matrix_signs(rng, n, k):
    ta_ = exterior.lex_tuples(n, k)
    tb_ = exterior.lex_tuples(n, n - k)
    W = exterior.pairing_matrix(ta_, tb_, n)
    for i, I in enumerate(ta_):
        for j, J in enumerate(tb_):
            expected = oracles.top_coeff(
                oracles.wedge(oracles.mono(*I), oracles.mono(*J)), n)
            assert W[i, j] == expected


def _gram(h, tuples):
    """Gram matrix of a degree-k basis through apply_metric on the identity
    basis: column l is Lambda^k(h) applied to the l-th basis form."""
    return np.swapaxes(exterior.apply_metric(h[..., None, :, :], np.eye(len(tuples)), tuples),
                       -1, -2)


def test_metric_gram_euclidean():
    tuples = exterior.lex_tuples(5, 2)
    G = _gram(np.eye(5), tuples)
    assert np.array_equal(G, np.eye(len(tuples)))


@pytest.mark.parametrize("k", [3, 4])
def test_metric_gram_laplace_against_det(rng, k):
    # minors by Laplace expansion against LAPACK determinants of the
    # gathered k x k blocks, on random 7x7 SPD stacks
    a = rng.uniform(-1, 1, (20, 7, 7))
    h = a @ np.swapaxes(a, -1, -2) + 0.3 * np.eye(7)
    for tuples in (exterior.lex_tuples(7, k), ((2, 0, 5, 1)[:k], (6, 3, 4, 0)[:k])):
        idx = np.array(tuples)
        expected = np.linalg.det(h[:, idx[:, None, :, None], idx[None, :, None, :]])
        got = _gram(h, tuples)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_metric_gram_unsorted_labels():
    # <e31, e31> for the identity must be +1 despite the reversed label
    G = _gram(np.eye(4), ((3, 1),))
    assert G[0, 0] == 1.0


def test_d_entries_unsorted_destination():
    # d(f e^1) along axis 3 is (d_3 f) e^3 ∧ e^1 = +(d_3 f) e31: the table
    # must respect the reversed (3, 1) label of the destination basis
    dst = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
    entries = exterior.d_entries(((1,),), dst, 4)
    by_axis = {axis: (dstc, sign) for dstc, _, axis, sign in entries}
    assert by_axis[3] == (4, 1)     # e3 ∧ e1 = +e31
    assert by_axis[0] == (0, 1)     # e0 ∧ e1 = +e01
    assert by_axis[2] == (5, -1)    # e2 ∧ e1 = -e12
    # against the sorted (1, 3) label the e31 sign flips
    entries_sorted = exterior.d_entries(
        ((1,),), ((0, 1), (0, 2), (0, 3), (2, 3), (1, 3), (1, 2)), 4)
    by_axis_sorted = {axis: (dstc, sign) for dstc, _, axis, sign in entries_sorted}
    assert by_axis_sorted[3] == (4, -1)


@pytest.mark.parametrize("k", range(4))
def test_derivative_table_matches_bitmask_oracle(k):
    # the entries and their order, by source component then axis, which is
    # the order in which grid_calculus._d sums its terms
    table = gc._D_TABLE[k]
    assert table == oracles.d_table(k)
    assert all(type(x) is int for entry in table for x in entry)


@pytest.mark.parametrize("n,tuples_in,tuples_out", [
    (4, oracles.PAIRS, [(0,), (1,), (2,), (3,)]),   # package labels, (3, 1) among them
    (7, list(combinations(range(7), 3)), list(combinations(range(7), 2)))])
def test_interior_table_matches_bitmask_oracle(n, tuples_in, tuples_out):
    C = exterior.interior_table(tuples_in, tuples_out, n)
    assert C.shape == (n, len(tuples_in), len(tuples_out))
    for a in range(n):
        for m, I in enumerate(tuples_in):
            f = oracles.interior(a, oracles.mono(*I))
            assert list(C[a, m]) == [oracles.coeff(f, *K) for K in tuples_out]
