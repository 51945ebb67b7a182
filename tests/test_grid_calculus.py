import numpy as np
import pytest

import oracles
from hsflow import exterior
from hsflow import fiber_g2 as fg
from hsflow import grid_calculus as gc
from hsflow import initial_data
from hsflow import triple_algebra as ta
from hsflow.errors import NotPositive

STD = ta.standard_triple()


def smooth_scalar(lat, rng, modes=3):
    x = lat.grids()
    f = np.zeros(lat.shape)
    for _ in range(modes):
        k = rng.integers(-1, 2, size=4)
        amp = rng.uniform(-1, 1)
        phase = rng.uniform(0, 2 * np.pi)
        acc = sum(2 * np.pi * k[a] * x[a] / lat.L[a] for a in range(4))
        f = f + amp * np.sin(acc + phase)
    return f


def smooth_form(lat, rng, k):
    out = np.zeros(lat.shape + (gc.NCOMP[k],))
    for m in range(out.shape[-1]):
        out[..., m] = smooth_scalar(lat, rng)
    return out


class TestLattice:
    def test_spacings(self):
        lat = gc.Lattice((8, 16, 4, 4), (1.0, 2.0, 1.0, 3.0))
        assert lat.h == (0.125, 0.125, 0.25, 0.75)
        assert lat.num_points == 8 * 16 * 4 * 4

    def test_too_small_axis_rejected(self):
        with pytest.raises(ValueError):
            gc.Lattice((8, 8, 8, 2))


class TestPartial:
    def test_constant_exact_zero(self):
        lat = gc.Lattice((8, 8, 8, 8))
        f = np.full(lat.shape, 3.7)
        for order in (2, 4):
            assert np.abs(gc.partial(lat, f, 0, order)).max() == 0.0

    def test_sine_fourth_order(self):
        # truncation constant is h^4 f^(5) / 30, about 2e-5 for this mode
        lat = gc.Lattice((64, 4, 4, 4))
        x = lat.grids()
        f = np.sin(2 * np.pi * x[0] / lat.L[0]) * np.ones(lat.shape)
        exact = (2 * np.pi / lat.L[0]) * np.cos(2 * np.pi * x[0] / lat.L[0])
        err = np.abs(gc.partial(lat, f, 0, 4) - exact * np.ones(lat.shape)).max()
        assert err < 5e-5

    @pytest.mark.parametrize("order", [2, 4])
    def test_convergence_ratio(self, order):
        errs = []
        for n in (32, 64):
            lat = gc.Lattice((n, 4, 4, 4))
            x = lat.grids()
            f = np.sin(2 * np.pi * x[0]) * np.ones(lat.shape)
            exact = 2 * np.pi * np.cos(2 * np.pi * x[0]) * np.ones(lat.shape)
            errs.append(np.abs(gc.partial(lat, f, 0, order) - exact).max())
        ratio = errs[0] / errs[1]
        assert abs(ratio - 2 ** order) <= 0.15 * 2 ** order

    def test_commutativity(self, rng):
        lat = gc.Lattice((8, 8, 8, 8))
        f = smooth_scalar(lat, rng)
        a = gc.partial(lat, gc.partial(lat, f, 1, 4), 0, 4)
        b = gc.partial(lat, gc.partial(lat, f, 0, 4), 1, 4)
        assert np.abs(a - b).max() <= 1e-12


class TestExteriorDerivative:
    def test_constant_two_form(self):
        lat = gc.Lattice((6, 6, 6, 6))
        f = np.broadcast_to(ta.two_form(c01=2.0, c31=-1.0), lat.shape + (6,)).copy()
        assert np.abs(gc.d(lat, f, 2)).max() == 0.0

    def test_analytic_sign_into_basis_order(self):
        # d(sin(2 pi x2) e01) = 2 pi cos(2 pi x2) e2 ∧ e01 = +(...) e012
        lat = gc.Lattice((4, 4, 64, 4))
        x = lat.grids()
        f = np.zeros(lat.shape + (6,))
        f[..., 0] = np.sin(2 * np.pi * x[2]) * np.ones(lat.shape)
        df = gc.d(lat, f, 2)
        expected = 2 * np.pi * np.cos(2 * np.pi * x[2]) * np.ones(lat.shape)
        assert np.abs(df[..., 0] - expected).max() < 5e-5
        assert np.abs(df[..., 1:]).max() == 0.0

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_dd_vanishes(self, rng, k):
        lat = gc.Lattice((8, 8, 8, 8))
        f = smooth_form(lat, rng, k)
        dd = gc.d(lat, gc.d(lat, f, k), k + 1)
        assert np.abs(dd).max() <= 1e-13

    def test_batch_axis(self, rng):
        lat = gc.Lattice((6, 6, 6, 6))
        fs = np.stack([smooth_form(lat, rng, 1) for _ in range(3)], axis=-2)
        batched = gc.d(lat, fs, 1)
        for i in range(3):
            assert np.array_equal(batched[..., i, :], gc.d(lat, fs[..., i, :], 1))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_frozen_oracle_bit_for_bit(self, rng, k, order, batch):
        # no two extents or lengths alike, so a swapped axis or component fails
        lat = gc.Lattice((8, 4, 6, 5), (1.0, 2.0, 0.5, 1.5))
        f = rng.uniform(-1, 1, lat.shape + batch + (gc.NCOMP[k],))
        got = gc.d(lat, f, k, order)
        assert got.tobytes() == oracles.d_grid_first(f, k, lat.h, order).tobytes()


class TestCodiff2:
    """The two-star codifferential d* = -*d* of tests/oracles.py, the
    reference of the right-hand side's single star (tests/test_flow_engine.py)."""

    def test_flat_constant(self):
        lat = gc.Lattice((6, 6, 6, 6))
        g = np.broadcast_to(np.eye(4), lat.shape + (4, 4))
        beta = np.broadcast_to(ta.two_form(c01=1.0), lat.shape + (6,)).copy()
        assert np.abs(oracles.codiff2_oracle(beta, g, lat.h)).max() == 0.0

    def test_flat_analytic(self):
        # beta = sin(2 pi x1) e01: d* beta = 2 pi cos(2 pi x1) e0
        lat = gc.Lattice((4, 64, 4, 4))
        x = lat.grids()
        g = np.broadcast_to(np.eye(4), lat.shape + (4, 4))
        beta = np.zeros(lat.shape + (6,))
        beta[..., 0] = np.sin(2 * np.pi * x[1]) * np.ones(lat.shape)
        out = oracles.codiff2_oracle(beta, g, lat.h)
        expected = np.zeros(lat.shape + (4,))
        expected[..., 0] = 2 * np.pi * np.cos(2 * np.pi * x[1]) * np.ones(lat.shape)
        assert np.abs(out - expected).max() < 5e-5

    def test_flat_analytic_convergence(self):
        errs = []
        for n in (16, 32):
            lat = gc.Lattice((4, n, 4, 4))
            x = lat.grids()
            g = np.broadcast_to(np.eye(4), lat.shape + (4, 4))
            beta = np.zeros(lat.shape + (6,))
            beta[..., 0] = np.sin(2 * np.pi * x[1]) * np.ones(lat.shape)
            out = oracles.codiff2_oracle(beta, g, lat.h)
            expected = np.zeros(lat.shape + (4,))
            expected[..., 0] = (2 * np.pi * np.cos(2 * np.pi * x[1])
                                * np.ones(lat.shape))
            errs.append(np.abs(out - expected).max())
        assert abs(errs[0] / errs[1] - 16) <= 0.15 * 16

    def test_closed_self_dual_annihilated(self, rng):
        # each form of a closed triple field is self-dual for the pointwise
        # metric, so d* w_i = -*d w_i vanishes with dw_i
        lat = gc.Lattice((16, 4, 4, 4))
        x = lat.grids()
        pot = np.zeros(lat.shape + (3, 4))
        pot[..., 0, 1] = 0.05 * np.sin(2 * np.pi * x[0]) * np.ones(lat.shape)
        pot[..., 1, 2] = 0.05 * np.cos(2 * np.pi * x[0]) * np.ones(lat.shape)
        c = np.broadcast_to(STD, lat.shape + (3, 6)) + gc.d(lat, pot, 1)
        tf = gc.TripleField(lat, c)
        q, g, mu = gc.pointwise_normalize(tf)
        out = oracles.codiff2_oracle(tf.c, g, lat.h)
        assert np.abs(out).max() <= 1e-12

    def test_adjointness_flat(self, rng):
        lat = gc.Lattice((8, 8, 8, 8))
        g = np.broadcast_to(np.eye(4), lat.shape + (4, 4))
        alpha = smooth_form(lat, rng, 1)
        beta = smooth_form(lat, rng, 2)
        da = gc.d(lat, alpha, 1)
        dstar_b = oracles.codiff2_oracle(beta, g, lat.h)
        lhs = float((da * beta).sum())       # flat Lambda^2 Gram is the identity
        rhs = float((alpha * dstar_b).sum())
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-10 * scale

    def test_adjointness_curved(self, rng):
        # the discrete pairing <d alpha, beta> = <alpha, d* beta> reduces to
        # exact summation by parts even for varying metrics: the pointwise
        # star factors cancel algebraically, leaving constant-coefficient
        # wedge pairings under the lattice sum.  beta mixes the triple's
        # forms, so it is self-dual and d* beta = -*d beta is the right-hand
        # side's single star
        lat = gc.Lattice((16, 4, 4, 4))
        x = lat.grids()
        pot = np.zeros(lat.shape + (3, 4))
        pot[..., 0, 1] = 0.04 * np.sin(2 * np.pi * x[0]) * np.ones(lat.shape)
        pot[..., 2, 3] = 0.04 * np.cos(2 * np.pi * x[0]) * np.ones(lat.shape)
        c = np.broadcast_to(STD, lat.shape + (3, 6)) + gc.d(lat, pot, 1)
        q, g, mu = gc.pointwise_normalize(gc.TripleField(lat, c))
        h = np.linalg.inv(g)
        alpha = smooth_form(lat, rng, 1)
        beta = np.einsum('...i,...im->...m', smooth_form(lat, rng, 2)[..., :3], c)
        da = gc.d(lat, alpha, 1)
        dstar_b = -ta.star3(gc.d(lat, beta, 2), g, mu)
        oracle = oracles.codiff2_oracle(beta, g, lat.h)
        assert np.abs(dstar_b - oracle).max() <= 1e-13 * np.abs(oracle).max()
        G2 = oracles.lambda_gram(h, ta.LAMBDA2_TUPLES)
        lhs = float((np.einsum('...m,...mn,...n->...', da, G2, beta)
                     * mu).sum() * lat.cell_volume)
        rhs = float((np.einsum('...m,...mn,...n->...', alpha, h, dstar_b)
                     * mu).sum() * lat.cell_volume)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_not_positive_named_point(self):
        # the single star of the right-hand side names the failing lattice
        # point of a metric field
        lat = gc.Lattice((4, 4, 4, 4))
        g = np.broadcast_to(np.eye(4), lat.shape + (4, 4)).copy()
        g[1, 2, 3, 0] = -np.eye(4)
        mu = np.ones(lat.shape)
        beta = np.zeros(lat.shape + (6,))
        with pytest.raises(NotPositive, match=r"lattice index \(1, 2, 3, 0\)"):
            ta.hodge2(beta, g, mu)


class TestPeriods:
    def test_standard_form(self):
        lat = gc.Lattice((4, 4, 4, 4))
        tf = gc.constant_triple_field(lat, STD)
        assert np.array_equal(gc.periods(lat, tf.c[..., 0, :]),
                              [1, 0, 0, 1, 0, 0])
        assert np.array_equal(gc.periods(lat, tf.c[..., 1, :]),
                              [0, 1, 0, 0, 1, 0])

    def test_lengths_scale_areas(self):
        lat = gc.Lattice((4, 4, 4, 4), (2.0, 3.0, 1.0, 1.0))
        tf = gc.constant_triple_field(lat, STD)
        assert np.array_equal(gc.periods(lat, tf.c[..., 0, :]),
                              [6, 0, 0, 1, 0, 0])

    def test_exact_perturbation_invariance(self, rng):
        lat = gc.Lattice((8, 8, 8, 8))
        w = np.broadcast_to(STD[0], lat.shape + (6,)).copy()
        alpha = smooth_form(lat, rng, 1)
        perturbed = w + gc.d(lat, alpha, 1)
        assert np.abs(gc.periods(lat, perturbed)
                      - gc.periods(lat, w)).max() <= 1e-12

    def test_sinusoidal_closed_field(self, rng):
        lat = gc.Lattice((16, 4, 4, 4))
        w = np.broadcast_to(STD[0], lat.shape + (6,)).copy()
        alpha = smooth_form(lat, rng, 1)
        perturbed = w + gc.d(lat, alpha, 1)
        # direct summation oracle for one component
        comp = perturbed[..., 0]
        direct = comp.mean() * lat.L[0] * lat.L[1]
        assert gc.periods(lat, perturbed)[0] == pytest.approx(direct, abs=1e-14)
        assert gc.periods(lat, perturbed)[0] == pytest.approx(1.0, abs=1e-12)


class TestFourPointAxis:
    """On a 4-point axis j + 2 and j - 2 name one point; the wide difference
    of the 4th-order stencil, +0 for finite fields, is not taken."""

    @staticmethod
    def grouped(lat, f, axis):
        # the 4th-order stencil with both differences, as np.roll
        a = f.ndim - 4 + axis
        out = np.roll(f, -1, a) - np.roll(f, 1, a)
        out *= 8.0
        out -= np.roll(f, -2, a) - np.roll(f, 2, a)
        out /= 12.0 * lat.h[axis]
        return out

    def test_bytes_of_both_differences(self, rng):
        lat = gc.Lattice((8, 4, 6, 4), (1.0, 0.7, 1.3, 2.0))
        f = rng.uniform(-1.0, 1.0, (3,) + lat.shape)
        f[0, 1, 2] = -0.0
        for axis in range(4):
            assert gc.partial(lat, f, axis).tobytes() == self.grouped(lat, f, axis).tobytes()

    def test_constant_field_exact_zeros(self):
        lat = gc.Lattice((4, 4, 4, 4))
        for value in (0.3, -0.0):
            f = np.full(lat.shape, value)
            for axis, order in np.ndindex(4, 2):
                out = gc.partial(lat, f, axis, 2 * order + 2)
                assert np.all(out == 0.0) and not np.any(np.signbit(out))


class TestPieces:
    """The derivative runs in (piece, output component) items, pieces of
    whole axis-0 planes: a term along axis 0 differences the lattice array's
    planes, split where the periodic wrap falls, and every piece gives the
    bytes of one piece."""

    @pytest.mark.parametrize("n0", [4, 5, 8])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_bytes_of_the_oracle(self, rng, monkeypatch, n0, k, order, batch):
        # pieces of one and two planes, so pieces at both lattice ends and,
        # on 4 and 5 planes, axis-0 wraps that span every piece; many signed
        # zeros, so a first term not written as 0.0 +- term shows
        lat = gc.Lattice((n0, 5, 4, 6), (1.0, 0.7, 1.3, 2.0))
        f = rng.choice([-0.0, 0.0, -0.0, 0.5, -1.5], lat.shape + batch + (gc.NCOMP[k],))
        want = oracles.d_grid_first(f, k, lat.h, order).tobytes()
        plane = lat.num_points // n0
        for planes, workers in [(n0, 1), (1, 1), (1, 2), (2, 2)]:
            monkeypatch.setattr(gc, "SLAB_POINTS", planes * plane)
            with gc.slab_threads(workers):
                assert len(gc._pieces(lat.shape)) == -(-n0 // planes)
                assert gc.d(lat, f, k, order).tobytes() == want

    @pytest.mark.parametrize("n", [(8, 4, 4, 4), (6, 4, 4, 4), (4, 4, 4, 8)])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("order", [2, 4])
    def test_bytes_of_one_piece(self, rng, monkeypatch, n, k, order):
        lat = gc.Lattice(n, (1.0, 0.7, 1.3, 2.0))
        f = rng.uniform(-1.0, 1.0, lat.shape + (3, gc.NCOMP[k]))   # a triple's batch axis
        f[1, 2, 3, 0, 1, 3] = np.inf   # differentiated along axis 0: a wide difference on a
        # 4-point axis 0 would take inf - inf
        whole = gc.d(lat, f, k, order).tobytes()
        plane = lat.num_points // n[0]
        for planes, workers in [(1, 1), (1, 2), (2, 2), (3, 1)]:
            monkeypatch.setattr(gc, "SLAB_POINTS", planes * plane)
            with gc.slab_threads(workers):
                assert gc._threads(lat.shape) == workers
                pieces = gc._pieces(lat.shape)
                got = gc.d(lat, f, k, order).tobytes()
            assert len(pieces) == -(-n[0] // planes) and got == whole


class TestAlignment:
    """The kernels write 64-byte-aligned memory, where numpy's AVX-512
    loops run at full speed."""

    @staticmethod
    def start(a):
        return ta._entries(a, a.ndim - 4).ctypes.data % 64

    def test_aligned(self):
        within = np.empty(22)
        for lead in range(8):
            a = exterior.aligned((3, 5), lead)
            assert a.shape == (3, 5) and (a.ctypes.data + 8 * lead) % 64 == 0
            b = exterior.aligned((15,), lead, within)
            assert np.shares_memory(b, within) and (b.ctypes.data + 8 * lead) % 64 == 0

    def test_kernel_memory(self, monkeypatch):
        lat = gc.Lattice((8, 4, 4, 4))
        c = initial_data.generate_initial(lat, "exact-perturbation", 0.05, 3).c
        made, aligned = [], exterior.aligned

        def recorded(shape, lead=0, within=None):
            made.append((aligned(shape, lead, within), lead))
            return made[-1][0]
        monkeypatch.setattr(exterior, "aligned", recorded)
        arrays = [*gc._fields(lat.shape, (3, 6), ()), gc.d(lat, c, 2), ta.metric_density(c)]
        assert [self.start(a) for a in arrays] == [0] * 4
        # the table's scratch rows: a pair product and a term over all 512 points
        assert any(a.shape == (2, 512) for a, _ in made)
        assert all((a.ctypes.data + 8 * lead) % 64 == 0 for a, lead in made)


def table_sum(table, x):
    """An ``exterior.RowProducts`` symmetric table evaluated point-major on
    the rows of ``x`` (points, nvar): each entry's monomials gathered per
    point, summed one by one in table order with their signs, then scaled by
    its one |coefficient|, on and above the diagonal and mirrored."""
    n = table.shape[0]
    mono = x[:, table.factors[0]]
    for f in table.factors[1:]:
        mono = mono * x[:, f]
    out = np.empty((len(x), n, n))
    for a, b in zip(*np.triu_indices(n)):
        coef = table.coef[n * a + b]
        col = np.flatnonzero(coef)
        acc = np.sign(coef[col[0]]) * mono[:, col[0]]
        for k in col[1:]:
            acc = acc + np.sign(coef[k]) * mono[:, k]
        out[:, a, b] = out[:, b, a] = acc * np.abs(coef[col[0]])
    return out


def point_major_normalize(c):
    """``_normalize_fields`` without the guard, evaluated point-major on
    C-ordered arrays: the density and the Gram matrix as :func:`table_sum`s,
    the Gram matrix then over the volume, with the package's cofactor
    formulas for the determinant (``metric_from_triple``'s)."""
    x = c.reshape(-1, 18)
    K = table_sum(ta.DENSITY, x).reshape(c.shape[:-2] + (4, 4))
    e = ta._entries(K)
    _, det = ta._pd_det4(e, *ta._minors4(e, 3), "metric density")
    s = det ** (1.0 / 6.0)
    q = table_sum(ta.GRAM, x).reshape(c.shape[:-2] + (3, 3)) / s[..., None, None]
    return q, K / s[..., None, None], s


class TestPointwiseNormalize:
    @pytest.mark.parametrize("generator", ["exact-perturbation", "t3-invariant"])
    def test_point_major_bit_for_bit(self, generator):
        # the same bits whether the field is C-ordered or a view of
        # component-major memory
        lat = gc.Lattice((8, 4, 4, 4))
        c = initial_data.generate_initial(lat, generator, 0.05, 7).c
        expected = point_major_normalize(c)
        for layout in (c, ta._pointwise(ta._entries(c))):
            got = gc._normalize_fields(layout)[:3]
            for a, b in zip(got, expected):
                assert np.ascontiguousarray(a).tobytes() == b.tobytes()

    def test_constant_standard(self):
        lat = gc.Lattice((4, 4, 4, 4))
        q, g, mu = gc.pointwise_normalize(gc.constant_triple_field(lat, STD))
        assert np.abs(q - np.eye(3)).max() == 0.0
        assert np.abs(g - np.eye(4)).max() == 0.0
        assert np.abs(mu - 1.0).max() == 0.0

    def test_matches_scalar_loop(self, rng):
        lat = gc.Lattice((6, 4, 4, 4))
        x = lat.grids()
        scale = (1.0 + 0.2 * np.sin(2 * np.pi * x[0]) * np.ones(lat.shape))
        c = np.broadcast_to(STD, lat.shape + (3, 6)) * scale[..., None, None]
        q, g, mu = gc.pointwise_normalize(gc.TripleField(lat, c))
        for _ in range(10):
            idx = tuple(int(rng.integers(0, n)) for n in lat.shape)
            qi, mi = ta.normalize(c[idx])
            gi, _ = ta.metric_from_triple(c[idx])
            assert np.abs(q[idx] - qi).max() < 1e-13
            assert np.abs(g[idx] - gi).max() < 1e-13
            assert mu[idx] == pytest.approx(mi, abs=1e-14)
        assert np.abs(ta.det3(q) - 1.0).max() <= 1e-9

    def test_degenerate_point_is_named(self):
        lat = gc.Lattice((4, 4, 4, 4))
        c = np.broadcast_to(STD, lat.shape + (3, 6)).copy()
        # nearly kill w_1 at one point; the rescaled Gram degenerates there
        c[2, 1, 3, 0, 0] *= 1e-9
        with pytest.raises(NotPositive, match=r"2, 1, 3, 0"):
            gc.pointwise_normalize(gc.TripleField(lat, c))

    def test_whole_triple_scaling_is_conformal(self):
        # scaling the entire triple at a point is absorbed by the pointwise
        # volume normalization and must NOT trip the guard
        lat = gc.Lattice((4, 4, 4, 4))
        c = np.broadcast_to(STD, lat.shape + (3, 6)).copy()
        c[2, 1, 3, 0] *= 1e-6
        q, g, mu = gc.pointwise_normalize(gc.TripleField(lat, c))
        assert np.abs(q[2, 1, 3, 0] - np.eye(3)).max() < 1e-12
