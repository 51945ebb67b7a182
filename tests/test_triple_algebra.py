import numpy as np
import pytest

import oracles
from hsflow import grid_calculus as gc
from hsflow import triple_algebra as ta
from hsflow.errors import NotPositive, SingularMatrix

E01 = ta.two_form(c01=1)
E23 = ta.two_form(c23=1)
STD = ta.standard_triple()


def random_triple(rng, cond_max=100.0):
    return oracles.random_positive_mix(rng, cond_max) @ STD


def close(got, expected):
    """Equal to roundoff: within 1e-14 of the largest entry of ``expected``."""
    return np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


class TestWedge22:
    def test_basis_pair(self):
        assert ta.wedge22(E01, E23) == 1.0

    def test_repeated_factor(self):
        assert ta.wedge22(E01, E01) == 0.0

    def test_hyperkahler_square(self):
        w = E01 + E23
        assert ta.wedge22(w, w) == 2.0

    def test_standard_triple_relation(self):
        # w_i ∧ w_j = 2 delta_ij e0123
        q = np.array([[ta.wedge22(STD[i], STD[j]) for j in range(3)]
                      for i in range(3)])
        assert np.array_equal(q, 2 * np.eye(3))

    def test_symmetric_bilinear(self, rng):
        a, b, c = rng.uniform(-1, 1, (3, 6))
        s, t = rng.uniform(-2, 2, 2)
        assert ta.wedge22(a, b) == pytest.approx(ta.wedge22(b, a), abs=1e-14)
        assert ta.wedge22(s * a + t * c, b) == pytest.approx(
            s * ta.wedge22(a, b) + t * ta.wedge22(c, b), abs=1e-12)

    def test_against_expansion_oracle(self, rng):
        for _ in range(50):
            a, b = rng.uniform(-1, 1, (2, 6))
            assert ta.wedge22(a, b) == pytest.approx(
                oracles.wedge22_oracle(a, b), abs=1e-13)


class TestGram:
    def test_standard(self):
        assert np.allclose(ta.gram(STD), np.eye(3), atol=1e-15)

    def test_scaled_by_constant(self):
        c = 1.7
        assert np.allclose(ta.gram(c * STD), c * c * np.eye(3), atol=1e-14)

    def test_against_all_pairs_oracle(self, rng):
        for _ in range(20):
            t = rng.uniform(-1, 1, (3, 6))
            q = ta.gram(t)
            for i in range(3):
                for j in range(3):
                    expected = 0.5 * oracles.wedge22_oracle(t[i], t[j])
                    assert q[i, j] == pytest.approx(expected, abs=1e-13)

    def test_mu_scaling(self, rng):
        t = rng.uniform(-1, 1, (3, 6))
        assert np.allclose(ta.gram(t, 2.0), 0.5 * ta.gram(t), atol=1e-15)


class TestIsPositive:
    def test_identity(self):
        assert ta.is_positive(np.eye(3), 0.0) is True

    def test_indefinite_diag(self):
        assert ta.is_positive(np.diag([1.0, 1.0, -1.0]), 0.0) is False

    def test_random_positive_triples(self, rng):
        for _ in range(50):
            q = ta.gram(random_triple(rng))
            assert ta.is_positive(q, 0.0)
            # eigenvalue cross-check
            assert np.linalg.eigvalsh(q)[0] > 0

    def test_agrees_with_eigenvalues(self, rng):
        for _ in range(200):
            s = rng.uniform(-2, 2, (3, 3))
            s = 0.5 * (s + s.T)
            assert ta.is_positive(s, 0.0) == bool(np.linalg.eigvalsh(s)[0] > 0)


class TestSmallMatrixOps:
    def test_det_identity(self):
        assert ta.det3(np.eye(3)) == 1.0

    def test_adj_diagonal(self):
        a, b, c = 2.0, 3.0, 5.0
        assert np.allclose(ta.adj3(np.diag([a, b, c])),
                           np.diag([b * c, a * c, a * b]))

    def test_inverse_roundtrip(self, rng):
        for _ in range(100):
            s = rng.uniform(-3, 3, (3, 3))
            s = 0.5 * (s + s.T)
            if abs(oracles.det3_cofactor(s)) < 1e-3:
                continue
            assert np.abs(ta.inv3(s) @ s - np.eye(3)).max() < 1e-12

    def test_det_matches_cofactor_oracle(self, rng):
        for _ in range(100):
            s = rng.uniform(-3, 3, (3, 3))
            assert ta.det3(s) == pytest.approx(oracles.det3_cofactor(s),
                                               abs=1e-13)

    def test_unit_det_inverse_is_adjugate(self, rng):
        s = rng.uniform(-1, 1, (3, 3))
        s = s @ s.T + np.eye(3)
        s = s / ta.det3(s) ** (1 / 3)
        assert np.allclose(ta.inv3(s), ta.adj3(s), atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            ta.inv3(np.zeros((3, 3)))


class TestLeviCivitaIdentity:
    def test_identity_matrix(self):
        assert ta.levi_civita_det_check(np.eye(3)) == 0.0

    def test_diagonal_exact(self, rng):
        for _ in range(20):
            assert ta.levi_civita_det_check(np.diag(rng.uniform(-5, 5, 3))) < 1e-12

    def test_thousand_random(self, rng):
        s = rng.uniform(-10, 10, (1000, 3, 3))
        assert ta.levi_civita_det_check(s) <= 1e-10

    def test_against_full_contraction_oracle(self, rng):
        for _ in range(10):
            s = rng.uniform(-10, 10, (3, 3))
            lhs = oracles.levi_civita_contraction(s)
            rhs = oracles.det3_cofactor(s) * oracles.EPS3
            assert np.abs(lhs - rhs).max() <= 1e-11
            assert ta.levi_civita_det_check(s) <= 1e-10


class TestDualTriple:
    def test_identity_gram_is_fixed(self):
        assert np.allclose(ta.dual_triple(STD, np.eye(3)), STD)

    def test_worked_scaling_example(self):
        t = STD.copy()
        t[0] *= 2.0
        q = ta.gram(t)
        assert np.allclose(q, np.diag([4.0, 1.0, 1.0]))
        dual = ta.dual_triple(t, q)
        # direct wedge recomputation of the dual's Gram
        qd = np.array([[0.5 * oracles.wedge22_oracle(dual[i], dual[j])
                        for j in range(3)] for i in range(3)])
        assert np.allclose(qd, np.diag([0.25, 1.0, 1.0]), atol=1e-14)

    def test_involution(self, rng):
        for _ in range(30):
            t = random_triple(rng)
            q = ta.gram(t)
            dual = ta.dual_triple(t, q)
            back = ta.dual_triple(dual, ta.gram(dual))
            assert np.abs(back - t).max() < 1e-12

    def test_gram_of_dual_is_inverse(self, rng):
        for _ in range(30):
            t = random_triple(rng)
            q, mu_w = ta.normalize(t)
            dual = ta.dual_triple(t, q)
            assert np.abs(ta.gram(dual, mu_w) - ta.inv3(q)).max() < 1e-10

    def test_singular_gram_raises(self):
        with pytest.raises(SingularMatrix):
            ta.dual_triple(STD, np.zeros((3, 3)))


class TestMetricFromTriple:
    def test_standard(self):
        g, mu_w = ta.metric_from_triple(STD)
        assert np.array_equal(g, np.eye(4))
        assert mu_w == 1.0

    def test_scaled_standard(self):
        c = 1.3
        g, mu_w = ta.metric_from_triple(c * STD)
        assert np.allclose(g, c * np.eye(4), atol=1e-12)
        assert mu_w == pytest.approx(c * c, abs=1e-12)

    def test_density_against_brute_force(self, rng):
        for _ in range(10):
            t = rng.uniform(-1, 1, (3, 6))
            assert np.abs(ta.metric_density(t)
                          - oracles.metric_density_oracle(t)).max() < 1e-12

    def test_volume_cube_root_relation(self, rng):
        for _ in range(50):
            m = oracles.random_positive_mix(rng)
            t = m @ STD
            _, mu_w = ta.metric_from_triple(t)
            q = ta.gram(t)
            assert abs(mu_w - ta.det3(q) ** (1 / 3)) / mu_w < 1e-9
            # same thing through the mixing matrix: Q = M M^T
            assert mu_w == pytest.approx(abs(np.linalg.det(m)) ** (2 / 3),
                                         rel=1e-9)

    def test_positive_definite_output(self, rng):
        for _ in range(30):
            g, mu_w = ta.metric_from_triple(random_triple(rng))
            assert np.linalg.eigvalsh(g)[0] > 0
            assert mu_w > 0

    def test_left_handed_triple_rejected(self):
        t = STD.copy()
        t[2] *= -1.0   # Gram stays I, orientation inside the span flips
        assert ta.is_positive(ta.gram(t), 0.0)
        with pytest.raises(NotPositive):
            ta.metric_from_triple(t)

    def test_degenerate_rejected(self):
        t = np.zeros((3, 6))
        with pytest.raises(NotPositive):
            ta.metric_from_triple(t)


class TestNormalize:
    def test_standard(self):
        q, mu_w = ta.normalize(STD)
        assert np.allclose(q, np.eye(3))
        assert mu_w == 1.0

    def test_scaled(self):
        c = 0.8
        q, mu_w = ta.normalize(c * STD)
        assert np.allclose(q, np.eye(3), atol=1e-13)
        assert mu_w == pytest.approx(c * c, abs=1e-13)

    def test_unit_determinant(self, rng):
        for _ in range(100):
            q, _ = ta.normalize(random_triple(rng))
            assert abs(ta.det3(q) - 1.0) <= 1e-10


class TestHodge2:
    def test_euclidean_basis_images(self):
        g = np.eye(4)
        # the basis order pairs complementary elements across the two halves
        images = {0: 3, 1: 4, 2: 5, 3: 0, 4: 1, 5: 2}
        for src, dst in images.items():
            b = np.zeros(6)
            b[src] = 1.0
            out = ta.hodge2(b, g, 1.0)
            expected = np.zeros(6)
            expected[dst] = 1.0
            assert np.array_equal(out, expected)

    def test_triple_self_duality(self, rng):
        for _ in range(30):
            t = random_triple(rng)
            g, mu_w = ta.metric_from_triple(t)
            for i in range(3):
                assert np.abs(ta.hodge2(t[i], g, mu_w) - t[i]).max() < 1e-10
        # a (N, 3, 6) stack of triples with its (N, 4, 4) metrics
        ts = np.stack([random_triple(rng) for _ in range(30)])
        g, mu_w = ta.metric_from_triple(ts)
        batched = ta.hodge2(ts, g, mu_w)
        assert batched.shape == ts.shape
        assert close(batched, ts)
        for n, i in np.ndindex(ts.shape[:2]):
            assert close(batched[n, i], ta.hodge2(ts[n, i], g[n], mu_w[n]))

    def test_defining_relation_raised_index_oracle(self, rng):
        for _ in range(30):
            t = random_triple(rng)
            g, mu_w = ta.metric_from_triple(t)
            ginv = np.linalg.inv(g)
            beta, gamma = rng.uniform(-1, 1, (2, 6))
            lhs = ta.wedge22(beta, ta.hodge2(gamma, g, mu_w))
            rhs = oracles.inner_2forms(beta, gamma, ginv) * mu_w
            assert abs(lhs - rhs) < 1e-10
        # (N, 6) forms with (N, 4, 4) metrics: the star whose pairing with
        # each basis form is its raised-index inner product with gamma
        g, mu_w = ta.metric_from_triple(np.stack([random_triple(rng) for _ in range(30)]))
        gamma = rng.uniform(-1, 1, (30, 6))
        batched = ta.hodge2(gamma, g, mu_w)
        w_inv = np.linalg.inv(oracles.pairing4(oracles.PAIRS, oracles.PAIRS))
        for n in range(30):
            ginv = np.linalg.inv(g[n])
            pairings = [oracles.inner_2forms(e, gamma[n], ginv) * mu_w[n] for e in np.eye(6)]
            assert close(batched[n], w_inv @ pairings)
            assert close(batched[n], ta.hodge2(gamma[n], g[n], mu_w[n]))

    def test_involution_and_isometry(self, rng):
        for _ in range(20):
            t = random_triple(rng)
            g, mu_w = ta.metric_from_triple(t)
            ginv = np.linalg.inv(g)
            beta, gamma = rng.uniform(-1, 1, (2, 6))
            sb, sg_ = ta.hodge2(beta, g, mu_w), ta.hodge2(gamma, g, mu_w)
            assert np.abs(ta.hodge2(sb, g, mu_w) - beta).max() < 1e-10
            assert oracles.inner_2forms(sb, sg_, ginv) == pytest.approx(
                oracles.inner_2forms(beta, gamma, ginv), abs=1e-10)

    def test_indefinite_metric_rejected(self):
        with pytest.raises(NotPositive):
            ta.hodge2(E01, np.diag([1.0, 1.0, 1.0, -1.0]), 1.0)

    def test_dual_triple_same_metric(self, rng):
        # the metric of the unit-determinant dual agrees with the original's
        for _ in range(20):
            t = random_triple(rng)
            q, _ = ta.normalize(t)
            dual = ta.dual_triple(t, q)
            g, _ = ta.metric_from_triple(t)
            gd, _ = ta.metric_from_triple(dual)
            assert np.abs(g - gd).max() < 1e-9


class TestRescaleTriple:
    def test_identity(self, rng):
        t = random_triple(rng)
        assert np.array_equal(ta.rescale_triple(t, np.eye(3)), t)

    def test_gram_congruence(self, rng):
        t = random_triple(rng)
        a = rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
        q = ta.gram(t)
        qr = ta.gram(ta.rescale_triple(t, a))
        assert np.abs(qr - a @ q @ a.T).max() < 1e-12

    def test_metric_scaling_law(self, rng):
        # g(a w) = det(a)^{1/3} g(w); checked via the metric on both sides
        c = 1.4
        for a in (np.diag([c, c, c]), oracles.random_positive_mix(rng)):
            t = random_triple(rng)
            g, mu_w = ta.metric_from_triple(t)
            g2, mu2 = ta.metric_from_triple(ta.rescale_triple(t, a))
            s = np.linalg.det(a) ** (1 / 3)
            assert np.abs(g2 - s * g).max() < 1e-10 * max(1.0, float(np.abs(g2).max()))
            assert mu2 == pytest.approx(s * s * mu_w, rel=1e-10)

    def test_diagonalizing_mix_gives_unit_gram(self, rng):
        for _ in range(20):
            t = random_triple(rng)
            q = ta.gram(t)
            a = np.linalg.inv(np.linalg.cholesky(q))
            qr = ta.gram(ta.rescale_triple(t, a))
            assert np.abs(qr - np.eye(3)).max() < 1e-10

    def test_singular_mix_rejected(self, rng):
        t = random_triple(rng)
        a = np.ones((3, 3))
        with pytest.raises(SingularMatrix):
            ta.rescale_triple(t, a)


class TestBatchedBroadcasting:
    def test_batched_matches_loop(self, rng):
        ts = np.stack([random_triple(rng) for _ in range(7)])
        q = ta.gram(ts)
        g, mu_w = ta.metric_from_triple(ts)
        for i in range(7):
            assert np.allclose(q[i], ta.gram(ts[i]), atol=1e-14)
            gi, mi = ta.metric_from_triple(ts[i])
            assert np.allclose(g[i], gi, atol=1e-14)
            assert mu_w[i] == pytest.approx(mi, abs=1e-14)


class TestDensityTable:
    """The monomial-table density against the frozen six-product formula."""

    def test_table_shape_and_coefficients(self):
        assert ta.DENSITY_COEF.shape == (16, 96)
        assert ta.DENSITY_FACTORS.shape == (3, 96)
        assert set(np.unique(ta.DENSITY_COEF)) == {-1.0, -0.5, 0.0, 0.5, 1.0}
        assert np.all(np.any(ta.DENSITY_COEF != 0.0, axis=0))
        f0, f1, f2 = ta.DENSITY_FACTORS
        # one coefficient from each form; no monomial listed twice
        assert f0.max() < 6 and 6 <= f1.min() and f1.max() < 12 and 12 <= f2.min()
        assert len(set(zip(f0, f1, f2))) == 96
        # K is symmetric as a polynomial: rows ab and ba agree
        rows = ta.DENSITY_COEF.reshape(4, 4, 96)
        assert np.array_equal(rows, rows.transpose(1, 0, 2))

    def test_lattice_against_six_products(self, rng, monkeypatch):
        monkeypatch.setattr(gc, "SLAB_POINTS", 3000)
        shape = (13, 7, 8, 11)   # 8008 points: three pieces of 2464 and one of 616
        assert gc._pieces(shape) == [(0, 4), (4, 8), (8, 12), (12, 13)]
        c = (np.broadcast_to(STD, shape + (3, 6))
             + 0.3 * rng.uniform(-1, 1, shape + (3, 6)))
        got, = gc._fields(shape, (4, 4))
        gc._by_slab(shape, lambda out, c: ta.metric_density(c, out), got, c)
        expected = oracles.metric_density_six_products(c)
        assert got.shape == shape + (4, 4)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.array_equal(got, np.swapaxes(got, -1, -2))

    def test_single_fibers_against_six_products(self, rng):
        for _ in range(50):
            t = random_triple(rng) if rng.uniform() < 0.5 else rng.uniform(-1, 1, (3, 6))
            got = ta.metric_density(t)
            expected = oracles.metric_density_six_products(t)
            assert got.shape == (4, 4)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_broadcast_batch_matches_fibers(self, rng):
        # the same ufuncs in the same order at every point, batched or not
        ts = np.stack([random_triple(rng) for _ in range(5)])
        batch = ta.metric_density(ts)
        for i in range(5):
            assert np.array_equal(batch[i], ta.metric_density(ts[i]))


class TestInverseMetric:
    """The inverse metric on 2-forms, Lambda^2(g^-1) = W Lambda^2(g) W / det g
    (W the wedge pairing), which hodge2 takes from the complementary minors
    of g: hodge2 is W Lambda^2(g^-1) mu, and no inverse is taken."""

    W = oracles.pairing4(oracles.PAIRS, oracles.PAIRS)

    def field(self, rng, shape=(6, 4, 4, 5)):
        x = rng.uniform(-1, 1, shape + (3, 6))
        return np.broadcast_to(STD, shape + (3, 6)) + 0.2 * x

    @staticmethod
    def star_matrix(g, mu):
        """hodge2 per point as a (..., 6, 6) matrix: column l stars basis form l."""
        return np.stack([ta.hodge2(e, g, mu) for e in np.eye(6)], -1)

    def test_normalization_inverse_metric(self, rng):
        # W * = Lambda^2(g^-1) mu is symmetric, and * * = 1 as g^-1 g = 1
        _, g, mu, _ = gc._normalize_fields(self.field(rng))
        star = self.star_matrix(g, mu)
        gram = self.W @ star
        assert np.abs(gram - np.swapaxes(gram, -1, -2)).max() <= 1e-14 * np.abs(gram).max()
        assert np.abs(star @ star - np.eye(6)).max() <= 1e-13
        expected = oracles.lambda_gram(np.linalg.inv(g), oracles.PAIRS) * mu[..., None, None]
        assert np.abs(gram - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_standard_triple_exact(self):
        lat = gc.Lattice((4, 4, 4, 4))
        _, g, mu, _ = gc._normalize_fields(gc.constant_triple_field(lat, STD).c)
        star = self.star_matrix(g, mu)
        assert np.array_equal(star, np.broadcast_to(self.W, star.shape))
        assert np.all(mu == 1.0)

    def test_adjugate_and_minors(self, rng):
        # the complementary minors of m are the adjugate of Lambda^2(m):
        # W Lambda^2(m) W = det(m) Lambda^2(m^-1)
        for _ in range(20):
            a = rng.uniform(-1, 1, (4, 4))
            m = a @ a.T + 0.5 * np.eye(4)
            e = ta._entries(m)
            _, det = ta._pd_det4(e, *ta._minors4(e), "test matrix")
            assert det == pytest.approx(np.linalg.det(m), rel=1e-13)
            minors = oracles.lambda_gram(m, oracles.PAIRS)
            inverse = oracles.lambda_gram(np.linalg.inv(m), oracles.PAIRS)
            assert np.abs(self.W @ minors @ self.W / det - inverse).max() <= 1e-13
            star = self.star_matrix(m, np.sqrt(det))
            assert np.abs(star - self.W @ inverse * np.sqrt(det)).max() <= 1e-13

    def test_indefinite_point_is_named(self):
        m = np.broadcast_to(np.eye(4), (3, 2, 4, 4)).copy()
        m[2, 1, 3, 3] = -1.0
        with pytest.raises(NotPositive, match=r"hodge2: metric not .* \(2, 1\)"):
            ta.hodge2(E01, m, 1.0)

    def test_lambda2_gram_entries_are_minors(self, rng):
        # entry (m, l) of W * / mu is det h[I_m, I_l] in the stored index
        # order of the basis
        _, g, mu, _ = gc._normalize_fields(self.field(rng, (4, 4, 4, 4)))
        h = np.linalg.inv(g)
        got = self.W @ self.star_matrix(g, mu) / mu[..., None, None]
        pairs = ta.LAMBDA2_TUPLES
        expected = np.stack([np.stack([np.linalg.det(h[..., I, :][..., :, J])
                                       for J in map(list, pairs)], -1)
                             for I in map(list, pairs)], -2)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        point = self.W @ self.star_matrix(g[1, 2, 3, 0], mu[1, 2, 3, 0]) / mu[1, 2, 3, 0]
        assert np.abs(point - got[1, 2, 3, 0]).max() <= 1e-14 * np.abs(point).max()


class TestProductKernels:
    """The per-point products of the right-hand side against per-point loops
    from their definitions (tests/oracles.py), to roundoff."""

    POINTS = 40

    @pytest.fixture
    def fields(self, rng):
        t = np.stack([random_triple(rng) for _ in range(self.POINTS)])
        q, mu = ta.normalize(t)
        return t, q, ta.metric_from_triple(t)[0], mu

    def test_gram(self, fields):
        t, q, _, mu = fields
        assert close(q, oracles.gram_loop(t, mu))
        assert np.array_equal(q, np.swapaxes(q, -1, -2))
        assert close(ta.gram(t), oracles.gram_loop(t, np.ones(self.POINTS)))

    def test_dual(self, fields):
        t, q, _, _ = fields
        assert close(ta._product(ta.adj3(q), t), oracles.dual_loop(q, t))

    def test_star3(self, fields, rng):
        _, _, g, _ = fields
        coeffs = rng.uniform(-1.0, 1.0, (self.POINTS, 3, 4))
        sqrt_det_g = np.sqrt(np.linalg.det(g))
        expected = oracles.star3_loop(coeffs, g)
        assert close(ta.star3(coeffs, g, sqrt_det_g), expected)
        assert close(ta.star3(coeffs[:, 1], g, sqrt_det_g), expected[:, 1])
        assert close(ta.star3(coeffs, g, -sqrt_det_g), -expected)

    def test_flux(self, fields, rng):
        _, q, _, _ = fields
        eta = rng.uniform(-1.0, 1.0, (self.POINTS, 3, 4))
        assert close(ta._product(q, eta), oracles.product_loop(q, eta))

    def test_written_over_an_operand(self, fields):
        # a product may be written over its right operand, which the flow's
        # sigma = adj(Q) x does over its stage input: the bytes of a call into
        # new memory; no other out may share memory with an operand
        t, q, _, mu = fields
        sigma = ta._pointwise(np.array(ta._entries(t)))   # component-major, as in the flow
        expected = ta._product(ta.adj3(q), sigma)
        assert ta._product(ta.adj3(q), sigma, sigma) is sigma
        assert sigma.tobytes() == expected.tobytes()
        rows = np.array(ta._entries(t))   # the Gram matrix over the first nine rows
        with pytest.raises(ValueError, match="shares memory"):
            ta.gram(ta._pointwise(rows), mu,
                    ta._pointwise(rows.reshape(18, -1)[:9].reshape((3, 3, -1))))
        adj = ta.adj3(q)
        with pytest.raises(ValueError, match="shares memory"):   # over the left operand
            ta._product(adj, ta.adj3(q), adj)
        shifted = ta._pointwise(np.array(ta._entries(t)))   # over b, one column along
        with pytest.raises(ValueError, match="is not b"):
            ta._product(adj, shifted[..., :5], shifted[..., 1:])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigma_over_its_stage_input_in_pieces(self, rng, workers, monkeypatch):
        # sigma = adj(Q) x over x, as the flow's stages make it, in four
        # pieces on one or two threads: the bytes of a call into new memory,
        # signed zeros among the inputs and the products
        lat = gc.Lattice((8, 4, 4, 4))
        x = rng.choice([-0.0, 0.0, 0.5, -1.5], lat.shape + (3, 6))
        q = rng.choice([-0.0, 0.0, 1.0, -2.0], lat.shape + (3, 3))
        expected = ta._product(ta.adj3(q), x).tobytes()
        sigma, = gc._fields(lat.shape, (3, 6))
        sigma[...] = x
        monkeypatch.setattr(gc, "SLAB_POINTS", 128)
        with gc.slab_threads(workers):
            assert len(gc._pieces(lat.shape)) == 4 and gc._threads(lat.shape) == workers
            gc._by_slab(lat.shape, lambda out, q, c: ta._product(ta.adj3(q), c, out),
                        sigma, q, sigma)
        assert np.ascontiguousarray(sigma).tobytes() == expected
