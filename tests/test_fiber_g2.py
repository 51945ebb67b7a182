import numpy as np
import pytest

import oracles
from hsflow import exterior
from hsflow import fiber_g2 as fg
from hsflow import grid_calculus as gc
from hsflow import triple_algebra as ta
from hsflow.errors import DetNotOne, NotPositive

STD = ta.standard_triple()


def random_triple(rng, cond_max=100.0):
    return oracles.random_positive_mix(rng, cond_max) @ STD


def phi_oracle(triple):
    """Independent 7D expansion of dt123 - dt^i ∧ w_i."""
    f = oracles.mono(0, 1, 2)
    for i in range(3):
        f = oracles.add(f, oracles.scal(-1.0, oracles.wedge(
            oracles.mono(i), oracles.two4(triple[i], shift=3))))
    return f


def psi_oracle(sigma, mu):
    f = oracles.scal(mu, oracles.mono(3, 4, 5, 6))
    for tpair, s in (((1, 2), sigma[0]), ((2, 0), sigma[1]), ((0, 1), sigma[2])):
        f = oracles.add(f, oracles.scal(-1.0, oracles.wedge(
            oracles.mono(*tpair), oracles.two4(s, shift=3))))
    return f


def to_vec(f, tuples):
    return np.array([oracles.coeff(f, *t) for t in tuples])


class TestBuildPhi:
    def test_standard_seven_slots(self):
        phi = fg.build_phi(STD)
        assert np.count_nonzero(phi) == 7
        assert set(np.unique(phi)) == {-1.0, 0.0, 1.0}
        assert phi[fg._POS3[(0, 1, 2)]] == 1.0

    def test_zero_triple(self):
        phi = fg.build_phi(np.zeros((3, 6)))
        expected = np.zeros(35)
        expected[fg._POS3[(0, 1, 2)]] = 1.0
        assert np.array_equal(phi, expected)

    def test_random_matches_expansion_oracle(self, rng):
        for _ in range(10):
            t = rng.uniform(-1, 1, (3, 6))
            assert np.abs(fg.build_phi(t)
                          - to_vec(phi_oracle(t), fg.LAMBDA3_7)).max() < 1e-14


class TestBuildPsi:
    def test_standard_seven_slots(self):
        psi = fg.build_psi(STD, 1.0)
        assert np.count_nonzero(psi) == 7
        assert psi[fg._POS4[(3, 4, 5, 6)]] == 1.0

    def test_sign_of_sigma3_03_slot(self, rng):
        sigma = rng.uniform(-1, 1, (3, 6))
        psi = fg.build_psi(sigma, 1.0)
        # dt12 ∧ e03 slot: indices (0, 1, 3, 6) carry -sigma_3.c03
        assert psi[fg._POS4[(0, 1, 3, 6)]] == pytest.approx(-sigma[2, 2])

    def test_random_matches_expansion_oracle(self, rng):
        for _ in range(10):
            sigma = rng.uniform(-1, 1, (3, 6))
            mu = float(rng.uniform(0.5, 2.0))
            assert np.abs(fg.build_psi(sigma, mu)
                          - to_vec(psi_oracle(sigma, mu), fg.LAMBDA4_7)).max() < 1e-14


@pytest.mark.parametrize("entries,torus,base,tuples_out", [
    (fg._PHI, [(0,), (1,), (2,)], oracles.PAIRS, fg.LAMBDA3_7),          # dt^i ∧ w_i
    (fg._PSI, [(1, 2), (2, 0), (0, 1)], oracles.PAIRS, fg.LAMBDA4_7),    # hat(dt^i) ∧ s_i
    (fg._DPHI, [(0,), (1,), (2,)], oracles.TRIPLES4, fg.LAMBDA4_7)])    # dt^j ∧ d(w_j)
def test_embeddings_match_bitmask_oracle(entries, torus, base, tuples_out):
    # each (p, i, m, s): e^{torus_i} ∧ e^{base_m + 3} = s e^{tuples_out_p}, every (i, m) once
    assert sorted((i, m) for _, i, m, _ in entries) == [
        (i, m) for i in range(3) for m in range(len(base))]
    for p, i, m, s in entries:
        form = oracles.wedge(oracles.mono(*torus[i]), oracles.mono(*[x + 3 for x in base[m]]))
        assert oracles.coeff(form, *tuples_out[p]) == s != 0


class TestMetricFromPhi:
    def test_flat_model(self):
        g7, vol = fg.metric_from_phi(fg.build_phi(STD))
        assert np.array_equal(g7, np.eye(7))
        assert vol == 1.0

    def test_block_structure_diag_gram(self):
        t = STD.copy()
        t[0] *= 2.0            # Gram diag(4, 1, 1) against the raw volume
        q, mu_w = ta.normalize(t)
        g4, _ = ta.metric_from_triple(t)
        g7, vol = fg.metric_from_phi(fg.build_phi(t))
        assert np.abs(g7[:3, :3] - q).max() < 1e-12
        assert np.abs(g7[3:, 3:] - g4).max() < 1e-12
        assert vol == pytest.approx(mu_w, rel=1e-12)

    def test_block_offdiagonals_vanish(self, rng):
        for _ in range(100):
            t = random_triple(rng)
            g7, _ = fg.metric_from_phi(fg.build_phi(t))
            assert np.abs(g7[:3, 3:]).max() <= 1e-10

    def test_blocks_match_pointwise_metric(self, rng):
        for _ in range(50):
            t = random_triple(rng)
            q, _ = ta.normalize(t)
            g4, _ = ta.metric_from_triple(t)
            g7, _ = fg.metric_from_phi(fg.build_phi(t))
            assert np.abs(g7[:3, :3] - q).max() <= 1e-9
            assert np.abs(g7[3:, 3:] - g4).max() <= 1e-9

    def test_indefinite_rejected(self):
        t = STD.copy()
        t[2] *= -1.0
        with pytest.raises(NotPositive):
            fg.metric_from_phi(fg.build_phi(t))


class TestDensity7Table:
    """The monomial-table 7-dimensional density against the frozen einsums."""

    def test_table_shape_and_integer_coefficients(self):
        coef, (f0, f1, f2) = fg.DENSITY7.coef, fg.DENSITY7.factors
        assert coef.shape == (49, 735)
        assert np.array_equal(6.0 * coef, np.rint(6.0 * coef))
        assert set(np.unique(6.0 * coef)) == {-6.0, -3.0, 0.0, 3.0, 6.0}
        assert np.all(np.any(coef != 0.0, axis=0))
        # factors sorted within each monomial; no monomial listed twice
        assert np.all(f0 <= f1) and np.all(f1 <= f2) and f2.max() < 35
        assert len(set(zip(f0, f1, f2))) == 735
        rows = coef.reshape(7, 7, 735)
        assert np.array_equal(rows, rows.transpose(1, 0, 2))

    def check(self, phi):
        got = fg.metric_density7(phi)
        expected = oracles.metric_density7_einsum(phi)
        assert got.shape == expected.shape
        scale = np.abs(expected).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(got - expected) <= 1e-13 * scale)
        assert np.array_equal(got, np.swapaxes(got, -1, -2))

    def test_lifted_triples(self, rng):
        self.check(fg.build_phi(np.stack([random_triple(rng) for _ in range(200)])))

    def test_batch_over_several_blocks(self, rng):
        # 135 generic 3-forms near a lift, in one pass
        phi = fg.build_phi(np.broadcast_to(STD, (135, 3, 6)))
        self.check(phi + 0.2 * rng.uniform(-1, 1, phi.shape))

    def test_generic_definite_forms(self, rng):
        phi = fg.build_phi(np.stack([random_triple(rng) for _ in range(200)]))
        phi = phi + 0.005 * rng.uniform(-1, 1, phi.shape)
        self.check(phi)
        fg.metric_from_phi(phi)          # still definite

    def test_single_fiber(self, rng):
        self.check(fg.build_phi(random_triple(rng)))


class TestBatchFailures:
    """NotPositive names the first failing point of a batched call."""

    def test_metric_from_phi_names_batch_index(self, rng):
        t = np.stack([random_triple(rng) for _ in range(6)])
        t[3, 2] *= -1.0
        t[5, 2] *= -1.0
        with pytest.raises(NotPositive, match=r"batch index \(3,\)"):
            fg.metric_from_phi(fg.build_phi(t))

    def test_hodge7_names_batch_index(self):
        g7 = np.broadcast_to(np.eye(7), (2, 3, 7, 7)).copy()
        g7[1, 2] = -np.eye(7)
        with pytest.raises(NotPositive, match=r"batch index \(1, 2\)"):
            fg.hodge7(np.zeros(35), g7, 3)

    def test_single_fiber_names_no_index(self):
        with pytest.raises(NotPositive) as exc:
            fg.hodge7(np.zeros(35), -np.eye(7), 3)
        assert "index" not in str(exc.value)


class TestStar3T3:
    def test_euclidean_1form(self):
        out = fg.star3_t3(1, np.array([1.0, 0.0, 0.0]), np.eye(3))
        # *dt1 = dt23 -> first hat component
        assert np.array_equal(out, [1.0, 0.0, 0.0])

    def test_euclidean_2form(self):
        out = fg.star3_t3(2, np.array([0.0, 1.0, 0.0]), np.eye(3))
        # *dt31 = dt2
        assert np.array_equal(out, [0.0, 1.0, 0.0])

    def test_random_unit_det_vs_generic_oracle(self, rng):
        for _ in range(50):
            m = rng.uniform(-1, 1, (3, 3))
            q = m @ m.T + 0.3 * np.eye(3)
            q /= ta.det3(q) ** (1 / 3)
            for degree in (1, 2):
                for basis in np.eye(3):
                    got = fg.star3_t3(degree, basis, q)
                    ref = oracles.star_oracle(
                        basis, q,
                        exterior.lex_tuples(3, 1) if degree == 1
                        else ((1, 2), (2, 0), (0, 1)),
                        ((1, 2), (2, 0), (0, 1)) if degree == 1
                        else exterior.lex_tuples(3, 1), 3)
                    assert np.abs(got - ref).max() <= 1e-10

    def test_det_not_one_rejected(self):
        with pytest.raises(DetNotOne):
            fg.star3_t3(1, np.ones(3), 2.0 * np.eye(3))

    def test_round_trip(self, rng):
        m = rng.uniform(-1, 1, (3, 3))
        q = m @ m.T + 0.3 * np.eye(3)
        q /= ta.det3(q) ** (1 / 3)
        v = rng.uniform(-1, 1, 3)
        assert np.abs(fg.star3_t3(2, fg.star3_t3(1, v, q), q) - v).max() < 1e-12


class TestHodge7:
    def test_flat_dt123(self):
        c = np.zeros(35)
        c[fg._POS3[(0, 1, 2)]] = 1.0
        out = fg.hodge7(c, np.eye(7), 3)
        expected = np.zeros(35)
        expected[fg._POS4[(3, 4, 5, 6)]] = 1.0
        assert np.array_equal(out, expected)

    def test_split_product_formula_flat(self):
        # alpha = dt1 (k=1), beta = e01 (l=2): *7(alpha ∧ beta) =
        # (-1)^{l(k+1)} (*3 alpha) ∧ (*4 beta) = +dt23 ∧ e23
        c = np.zeros(35)
        c[fg._POS3[(0, 3, 4)]] = 1.0
        out = fg.hodge7(c, np.eye(7), 3)
        expected = np.zeros(35)
        expected[fg._POS4[(1, 2, 5, 6)]] = 1.0
        assert np.array_equal(out, expected)

    def test_split_product_formula_random_block(self, rng):
        m = rng.uniform(-1, 1, (3, 3))
        q = m @ m.T + 0.4 * np.eye(3)
        t = random_triple(rng)
        g4, _ = ta.metric_from_triple(t)
        g7 = fg.metric7_block(q, g4)
        worst = 0.0
        for k in range(4):           # T3 degree
            l = 3 - k                # X4 degree completing a 3-form
            if l > 4 or l < 0:
                continue
            for I in exterior.lex_tuples(3, k):
                for J in exterior.lex_tuples(4, l):
                    # build alpha ∧ beta as a 7D 3-form
                    idx = tuple(I) + tuple(j + 3 for j in J)
                    c = np.zeros(35)
                    c[fg._POS3[idx]] = 1.0
                    got = fg.hodge7(c, g7, 3)
                    # product formula via small-dimension stars
                    a3 = oracles.star_oracle(
                        _unit(len(exterior.lex_tuples(3, k)),
                              exterior.lex_tuples(3, k).index(I)),
                        q, exterior.lex_tuples(3, k), exterior.lex_tuples(3, 3 - k), 3)
                    b4 = oracles.star_oracle(
                        _unit(len(exterior.lex_tuples(4, l)),
                              exterior.lex_tuples(4, l).index(J)),
                        g4, exterior.lex_tuples(4, l), exterior.lex_tuples(4, 4 - l), 4)
                    sign = (-1.0) ** (l * (k + 1))
                    expected = np.zeros(35)
                    for ia, A in enumerate(exterior.lex_tuples(3, 3 - k)):
                        for ib, B in enumerate(exterior.lex_tuples(4, 4 - l)):
                            s, sorted_t = exterior.wedge_sign(
                                A, tuple(b + 3 for b in B))
                            if s:
                                expected[fg._POS4[sorted_t]] += (
                                    sign * s * a3[ia] * b4[ib])
                    worst = max(worst, float(np.abs(got - expected).max()))
        assert worst <= 1e-10

    def test_involution_signs(self, rng):
        t = random_triple(rng)
        q, _ = ta.normalize(t)
        g4, _ = ta.metric_from_triple(t)
        g7 = fg.metric7_block(q, g4)
        c3, c4 = rng.uniform(-1, 1, (2, 35))
        assert np.abs(fg.hodge7(fg.hodge7(c3, g7, 3), g7, 4) - c3).max() < 1e-10
        assert np.abs(fg.hodge7(fg.hodge7(c4, g7, 4), g7, 3) - c4).max() < 1e-10

    def test_against_bitmask_oracle(self, rng):
        t = random_triple(rng)
        g7, _ = fg.metric_from_phi(fg.build_phi(t))
        c = rng.uniform(-1, 1, 35)
        ref = oracles.star7_oracle(c, g7, fg.LAMBDA3_7, fg.LAMBDA4_7)
        assert np.abs(fg.hodge7(c, g7, 3) - ref).max() < 1e-10

    def test_generic_metrics_against_bitmask_oracle(self, rng):
        # 70 SPD metrics with no block structure: two full blocks and a partial one
        a = rng.uniform(-1, 1, (70, 7, 7))
        g7 = a @ np.swapaxes(a, -1, -2) + 0.3 * np.eye(7)
        assert 70 % fg._BLOCK and np.abs(g7[:, :3, 3:]).min() > 0
        c = rng.uniform(-1, 1, (70, 35))
        for degree, bases in ((3, (fg.LAMBDA3_7, fg.LAMBDA4_7)),
                              (4, (fg.LAMBDA4_7, fg.LAMBDA3_7))):
            got = fg.hodge7(c, g7, degree)
            for i in range(70):
                ref = oracles.star7_oracle(c[i], g7[i], *bases)
                assert np.abs(got[i] - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_t3_tables_match_restricted_hodge7(self, rng):
        # the closed-form 3-torus star equals the T3 factor of the full
        # 7-dimensional star on split forms: for alpha a hat-basis 2-form,
        # *7(alpha ∧ e0) = (-1)^{1(2+1)} (*3 alpha) ∧ (*4 e0)
        t = random_triple(rng)
        q, _ = ta.normalize(t)
        g4, _ = ta.metric_from_triple(t)
        g7 = fg.metric7_block(q, g4)
        star_e0 = oracles.star_oracle(                  # X4 3-form, lex basis
            np.eye(4)[0], g4, ta.LAMBDA1_TUPLES, ta.LAMBDA3_TUPLES, 4)
        hat_tuples = (((1, 2), 1), ((0, 2), -1), ((0, 1), 1))
        x3_tuples = [(3, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6)]
        for j, (pair, psign) in enumerate(hat_tuples):
            c = np.zeros(35)
            c[fg._POS3[pair + (3,)]] = psign           # hat(dt^j) ∧ e0
            got = fg.hodge7(c, g7, 3)
            table = fg.star3_t3(2, np.eye(3)[j], q)    # dt-components out
            expected = np.zeros(35)
            for k in range(3):
                for m, trip in enumerate(x3_tuples):
                    s, sorted_t = exterior.wedge_sign((k,), trip)
                    expected[fg._POS4[sorted_t]] += (
                        -1.0 * s * table[k] * star_e0[m])
            assert np.abs(got - expected).max() <= 1e-10

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositive):
            fg.hodge7(np.zeros(35), -np.eye(7), 3)

    def test_blocks_match_single_fibers(self, rng):
        # 70 points: two full blocks and a partial one
        t = np.stack([random_triple(rng) for _ in range(70)])
        g7, _ = fg.metric_from_phi(fg.build_phi(t))
        c = rng.uniform(-1, 1, (70, 35))
        for degree in (3, 4):
            batch = fg.hodge7(c, g7, degree)
            assert batch.shape == (70, 35)
            for i in range(70):
                one = fg.hodge7(c[i], g7[i], degree)
                assert np.abs(batch[i] - one).max() <= 1e-14 * np.abs(one).max()


def _unit(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestCheckStar7:
    def test_flat_model(self):
        phi = fg.build_phi(STD)
        psi = fg.build_psi(STD, 1.0)
        assert fg.check_star7(phi, psi, np.eye(7)) <= 1e-12

    def test_random_normalized_triples(self, rng):
        worst = 0.0
        for _ in range(100):
            t = random_triple(rng)
            q, mu_w = ta.normalize(t)
            sigma = ta.dual_triple(t, q)
            phi = fg.build_phi(t)
            psi = fg.build_psi(sigma, mu_w)
            g7, _ = fg.metric_from_phi(phi)
            worst = max(worst, fg.check_star7(phi, psi, g7))
        assert worst <= 1e-9

    def test_wrong_dual_negative_control(self, rng):
        # sigma_i = Q_ik w_k instead of the inverse: residual must blow up
        for _ in range(10):
            t = random_triple(rng)
            q, mu_w = ta.normalize(t)
            if np.abs(q - np.eye(3)).max() < 0.3:
                continue
            wrong = np.einsum('ik,km->im', q, t)
            phi = fg.build_phi(t)
            psi = fg.build_psi(wrong, mu_w)
            g7, _ = fg.metric_from_phi(phi)
            assert fg.check_star7(phi, psi, g7) > 0.1


class TestAssembleDphi:
    def test_closed_triple(self):
        assert np.array_equal(fg.assemble_dphi(np.zeros((3, 4))), np.zeros(35))

    def test_single_block_sign(self):
        dom = np.zeros((3, 4))
        dom[0, 3] = 1.0     # d(w_1) = e123
        out = fg.assemble_dphi(dom)
        assert np.count_nonzero(out) == 1
        # d(dt123 - dt^j ∧ w_j) = +dt^j ∧ dw_j, so the dt1 ∧ e123 slot is +1
        assert out[fg._POS4[(0, 4, 5, 6)]] == 1.0

    def test_derivative_of_phi_directly(self, rng):
        # finite-difference oracle: phi(t-independent field) differentiated on
        # the grid equals the embedded d of the triple
        lat = gc.Lattice((6, 6, 6, 6))
        x = lat.grids()
        c = np.broadcast_to(STD, lat.shape + (3, 6)).copy()
        bump = 0.1 * np.sin(2 * np.pi * x[1]) * np.ones(lat.shape)
        c[..., 0, 3] += bump    # w_1 += bump * e23, non-closed
        dome = gc.d(lat, c, 2, 4)
        idx = (2, 3, 1, 4)
        got = fg.assemble_dphi(dome[idx])
        # oracle: expand dt^j ∧ dw_j at the point with the bitmask algebra
        f = {}
        for j in range(3):
            three = oracles.add(*[
                oracles.scal(dome[idx][j, m], oracles.mono(*[v + 3 for v in tup]))
                for m, tup in enumerate(
                    [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])])
            f = oracles.add(f, oracles.wedge(oracles.mono(j), three))
        expected = np.array([oracles.coeff(f, *t) for t in fg.LAMBDA4_7])
        assert np.abs(got - expected).max() < 1e-13


class TestTorsionTrace:
    def test_closed_triple_exact_zero(self):
        phi = fg.build_phi(STD)
        assert fg.torsion_trace(phi, np.zeros(35), np.eye(7)) == 0.0

    def test_vanishes_on_lift_shape(self, rng):
        # any triple against any 1-dt-index 4-form: identically zero
        for _ in range(50):
            t = rng.uniform(-1, 1, (3, 6))
            dom = rng.uniform(-1, 1, (3, 4))
            phi = fg.build_phi(t)
            dphi = fg.assemble_dphi(dom)
            assert abs(fg.torsion_trace(phi, dphi, np.eye(7))) <= 1e-10

    def test_lattice_sampled_nonclosed(self, rng):
        lat = gc.Lattice((8, 4, 4, 4))
        x = lat.grids()
        c = np.broadcast_to(STD, lat.shape + (3, 6)).copy()
        c = c + 0.2 * np.sin(2 * np.pi * x[0])[..., None, None] * rng.uniform(
            -1, 1, (3, 6))
        tf = gc.TripleField(lat, c)
        assert tf.max_dabs() > 1e-3     # genuinely non-closed
        dome = gc.d(lat, c, 2, 4)
        q, g, mu = gc.pointwise_normalize(tf, threshold=1e-9)
        worst = 0.0
        for _ in range(20):
            idx = tuple(int(rng.integers(0, n)) for n in lat.shape)
            phi = fg.build_phi(c[idx])
            dphi = fg.assemble_dphi(dome[idx])
            g7 = fg.metric7_block(q[idx], g[idx])
            worst = max(worst, abs(fg.torsion_trace(phi, dphi, g7)))
        assert worst <= 1e-9

    def test_injected_component_negative_control(self, rng):
        # a pure-base 4-form component pairs with the dt123 slot of phi:
        # TrT = c / (4 sqrt(det g)); the spec's dt123 ∧ e^a slot pairs with
        # nothing in the lift and stays inert
        t = random_triple(rng)
        q, mu_w = ta.normalize(t)
        g4, _ = ta.metric_from_triple(t)
        g7 = fg.metric7_block(q, g4)
        phi = fg.build_phi(t)
        dphi = fg.assemble_dphi(rng.uniform(-1, 1, (3, 4)))
        dphi[fg._POS4[(3, 4, 5, 6)]] += 0.7
        got = fg.torsion_trace(phi, dphi, g7)
        expected = 0.25 * 0.7 / np.sqrt(np.linalg.det(g7))
        assert got == pytest.approx(expected, rel=1e-12)
        # hand computation of the same number via the bitmask wedge
        f = oracles.wedge(phi_oracle(t), oracles.scal(0.7, oracles.mono(3, 4, 5, 6)))
        by_hand = 0.25 * oracles.top_coeff(f, 7) / np.sqrt(np.linalg.det(g7))
        assert got == pytest.approx(by_hand, rel=1e-12)
