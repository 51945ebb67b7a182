import contextlib
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from hsflow import fiber_g2 as fg
from hsflow import flow_engine as fe
from hsflow import grid_calculus as gc
from hsflow import initial_data
from hsflow import triple_algebra as ta
from hsflow.errors import NotPositive, StepRejected, ValidationError

STD = ta.standard_triple()


def t3_field(lat=None, amp=0.05, seed=7):
    lat = lat or gc.Lattice((16, 4, 4, 4))
    return initial_data.generate_initial(lat, "t3-invariant", amp, seed)


class TestConfigValidation:
    def test_dt_xor_cfl(self):
        with pytest.raises(ValidationError):
            fe.FlowConfig(dt=1e-4, cfl=0.2).validate()
        with pytest.raises(ValidationError):
            fe.FlowConfig(dt=None, cfl=None).validate()

    def test_cfl_range(self):
        with pytest.raises(ValidationError):
            fe.FlowConfig(cfl=1.5).validate()

    @pytest.mark.parametrize("bad", [{"fiber_samples": -2}, {"checkpoint_cadence": -1},
                                     {"degeneration_threshold": 0.0},
                                     {"degeneration_threshold": -1e-6}])
    def test_schema_limits(self, bad):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            fe.FlowConfig(**bad).validate()

    def test_good_config(self):
        fe.FlowConfig().validate()
        fe.FlowConfig(dt=1e-4, cfl=None, method="euler").validate()
        fe.FlowConfig(fiber_samples=0, checkpoint_cadence=0).validate()


class TestRhs:
    def test_standard_fixed_point(self):
        lat = gc.Lattice((8, 4, 4, 4))
        state = fe.init_state(fe.FlowConfig(), gc.constant_triple_field(lat, STD))
        assert np.abs(fe.rhs(state)).max() <= 1e-12

    def test_constant_gram_fixed_point(self, rng):
        lat = gc.Lattice((8, 4, 4, 4))
        for _ in range(5):
            t = oracles.random_positive_mix(rng) @ STD
            state = fe.init_state(fe.FlowConfig(), gc.constant_triple_field(lat, t))
            assert np.abs(fe.rhs(state)).max() <= 1e-12

    def test_matches_recomposed_pipeline(self):
        tf = t3_field()
        lat = tf.lattice
        state = fe.init_state(fe.FlowConfig(), tf)
        got = fe.rhs(state)
        # recompose from the public module-level operations, d* by the
        # two-star oracle
        q, g, mu = gc.pointwise_normalize(tf)
        sigma = np.einsum('...kl,...lm->...km', ta.inv3(q), tf.c)
        eta = oracles.codiff2_oracle(sigma, g, lat.h)
        zeta = np.einsum('...ik,...km->...im', q, eta)
        expected = gc.d(lat, zeta, 1)
        assert np.abs(got - expected).max() <= 1e-11

    def test_kept_per_stencil_order(self):
        tf = t3_field()
        state = fe.init_state(fe.FlowConfig(), tf)
        r4 = fe.rhs(state, 4)
        r2 = fe.rhs(state, 2)
        assert np.array_equal(r2, fe.evaluate_rhs(tf.lattice, tf.c, order=2))
        assert fe.rhs(state, 4) is r4
        assert not np.array_equal(r2, r4)

    def test_update_is_discrete_exact(self):
        tf = t3_field()
        state = fe.init_state(fe.FlowConfig(), tf)
        r = fe.rhs(state)
        assert np.abs(gc.d(tf.lattice, r, 2)).max() <= 1e-11
        for i in range(3):
            assert np.abs(gc.periods(tf.lattice, r[..., i, :])).max() <= 1e-13

    def test_dual_triple_is_self_dual(self, rng):
        # evaluate_rhs takes d* sigma = -*d sigma: sigma = Q^-1 w is self-dual
        # for the triple's metric pointwise, closed or not, as at mid-stages
        lat = gc.Lattice((8, 4, 4, 4))
        c = initial_data.generate_initial(lat, "exact-perturbation", 0.05, 7).c
        c = c + 0.05 * rng.uniform(-1.0, 1.0, c.shape)
        assert gc.TripleField(lat, c).max_dabs() > 0.1   # not closed
        q, g, _, _ = gc._normalize_fields(c)
        sigma = ta._product(ta.adj3(q), c)
        for _ in range(8):
            at = tuple(int(rng.integers(0, n)) for n in lat.shape)
            starred = oracles.star_oracle(sigma[at].T, g[at], ta.LAMBDA2_TUPLES,
                                          ta.LAMBDA2_TUPLES, 4).T
            assert np.abs(starred - sigma[at]).max() <= 1e-13 * np.abs(sigma[at]).max()


class TestLayout:
    """Fields are component-major inside the right-hand side and grid-first
    at the API; lattice indices must come out in grid order either way."""

    def planted(self, plant):
        lat = gc.Lattice((8, 4, 4, 4))
        c = np.broadcast_to(STD, lat.shape + (3, 6)).copy()
        if plant == "flip":        # (w1, w2, -w3): the metric density turns negative
            c[5, 1, 2, 3, 2] *= -1.0
        else:                      # w1 nearly gone: only the Gram guard sees it
            c[5, 1, 2, 3, 0] *= 1e-9
        return lat, c

    def test_mid_stage_names_index(self):
        lat, c = self.planted("flip")
        with pytest.raises(NotPositive, match=r"at lattice index \(5, 1, 2, 3\)"):
            fe.evaluate_rhs(lat, c)

    @pytest.mark.parametrize("plant,what", [("flip", "metric density"),
                                            ("collapse", "Gram matrix eigenvalue")])
    def test_step_rejection_names_index(self, plant, what):
        lat, c = self.planted(plant)
        state = fe.FlowState(0.0, gc.TripleField(lat, c))
        with pytest.raises(StepRejected, match=what + r".* at lattice index \(5, 1, 2, 3\)"):
            fe.step(state, 1e-6, fe.FlowConfig(dt=1e-6, cfl=None))

    def test_state_fields_are_views(self):
        tf = t3_field()
        state = fe.init_state(fe.FlowConfig(), tf)
        n = tf.lattice.shape
        assert state.q.shape == n + (3, 3) and state.mu.shape == n
        assert state.g.shape == n + (4, 4)
        fields = state.q, state.g   # read before the step releases them
        after = fe.step(state, 1e-6, fe.FlowConfig(dt=1e-6, cfl=None))
        for field in (*fields, tf.c, after.tf.c, after.q, after.g, fe.rhs(after)):
            # the component arrays are the field's own memory, not a copy
            assert np.shares_memory(ta._entries(field), field)

    def test_mid_stage_memory(self):
        # a guard on peak_rss_mb of large lattices: temporaries of one
        # right-hand side must not all be alive at once
        lat = gc.Lattice((16, 8, 8, 8))
        c = initial_data.generate_initial(lat, "exact-perturbation", 0.05, 7).c
        fe.evaluate_rhs(lat, c)
        tracemalloc.start()
        try:
            fe.evaluate_rhs(lat, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.3 * c.nbytes   # measured 4.06: the result is written over sigma

    @staticmethod
    def traced(n, workers, before, during):
        # tracemalloc figures, over c.nbytes, of ``during(before(lat, cfg, tf), cfg)``
        # on a run's data, traced from before the first state: the peak over
        # all live memory, and its growth over the memory live at ``during``'s
        # start.  The tables that every lattice shares are made first.
        cfg = fe.FlowConfig(dt=1e-5, cfl=None, max_steps=2, diag_cadence=1, fiber_samples=0)
        fe.diagnostics(fe.step(fe.init_state(cfg, t3_field()), 1e-5, cfg), cfg)
        lat = gc.Lattice(n)
        with gc.slab_threads(workers):
            tracemalloc.start()
            try:
                state = before(lat, cfg, initial_data.generate_initial(
                    lat, "exact-perturbation", 0.05, 7))
                live = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                during(state, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        nbytes = math.prod(n) * 18 * 8
        return peak / nbytes, (peak - live) / nbytes

    def step_peak(self, n, workers, kept):
        # the second RK4 step of a run; kept: a row evaluated the state's RHS first
        def before(lat, cfg, tf):
            state = fe.step(fe.init_state(cfg, tf), 1e-5, cfg)
            if kept:
                fe.rhs(state)
            return state
        return self.traced(n, workers, before, lambda state, cfg: fe.step(state, 1e-5, cfg))

    def test_step_memory(self):
        # one RK4 step of a run writes the run's right-hand-side memory, and
        # releases the stepped-from state's normalization and kept RHS once
        # k1 is made: c0, the sum (the new state's c), sigma (which holds the
        # stage input), d sigma and one normalization are what it keeps alive
        # at once.  Measured 6.09 over all live memory, 0.84 over the step's
        # start; the bounds here and below leave about 0.25 and 0.1 to spare
        peak, growth = self.step_peak((16, 8, 8, 8), 1, True)
        assert peak <= 6.35 and growth <= 0.95

    @pytest.mark.parametrize("n,workers,kept,peak,growth", [
        ((16, 8, 8, 8), 1, False, 6.35, 1.95), ((32, 16, 16, 16), 2, True, 5.9, 0.5),
        ((32, 16, 16, 16), 2, False, 5.9, 1.5)],
        ids=["16x8x8x8-1-unkept", "32x16x16x16-2-kept", "32x16x16x16-2-unkept"])
    def test_step_memory_with_k1_in_the_sum(self, n, workers, kept, peak, growth):
        # without a kept RHS the step evaluates k1 into the new state's
        # memory, so it keeps no more alive than with one; on 32x16x16x16 the
        # pointwise stages and the derivatives run in pieces of SLAB_POINTS
        # points.  Measured 6.09, 1.85 on 16x8x8x8 and 5.63, 0.41 (kept) and
        # 5.63-5.64, 1.40-1.42 (not) on 32x16x16x16 at 2 workers
        measured = self.step_peak(n, workers, kept)
        assert measured[0] <= peak and measured[1] <= growth

    @pytest.mark.parametrize("n,workers,peak", [((16, 8, 8, 8), 1, 6.35),
                                                ((32, 16, 16, 16), 2, 5.9)],
                             ids=["16x8x8x8-1", "32x16x16x16-2"])
    def test_run_memory(self, n, workers, peak):
        # a two-step run with a row after every step, handed its initial field:
        # one normalization alive at a time, and the initial field let go
        # after the first step.  Measured 6.07 on 16x8x8x8 and 5.63-5.64 on
        # 32x16x16x16 at 2 workers
        assert self.traced(n, workers, lambda lat, cfg, tf: [tf], lambda held, cfg: fe.run(
            cfg, held.pop()))[0] <= peak

    @pytest.mark.parametrize("n,workers,peak,growth", [((16, 8, 8, 8), 1, 6.2, 1.85),
                                                       ((32, 16, 16, 16), 2, 5.8, 1.45)],
                             ids=["16x8x8x8-1", "32x16x16x16-2"])
    def test_row_memory(self, n, workers, peak, growth):
        # a diagnostics row after a step: its RHS in new memory, the rest in
        # the run's right-hand-side memory, q_dev piece by piece.  Measured
        # 5.96, 1.73 on 16x8x8x8 (one piece) and 5.49-5.54, 1.26-1.32 on
        # 32x16x16x16 at 2 workers, as its threads take the items (5.64,
        # 1.42 with a halo copy per axis-0 term; 5.91, 1.69 with q_dev's nine
        # rows lattice-wide)
        measured = self.traced(n, workers, lambda lat, cfg, tf: fe.step(
            fe.init_state(cfg, tf), 1e-5, cfg), fe.diagnostics)
        assert measured[0] <= peak and measured[1] <= growth


class TestNonFinite:
    """A non-finite coefficient: the guard's normalization rejects the step
    and hsflow lift exits 2.  Derivatives do not decide: on a 4-point axis the
    stencil's wide difference, inf - inf there, is not taken, and an initial
    infinity reads as an unclosed field on every lattice."""

    LATTICES = (gc.Lattice((16, 4, 4, 4)), gc.Lattice((8, 6, 6, 6)))

    def field(self, lat, value):
        c = np.ascontiguousarray(
            initial_data.generate_initial(lat, "exact-perturbation", 0.05, 7).c)
        c[3, 1, 2, 0, 1, 2] = value
        return gc.TripleField(lat, c)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_step_rejected(self, value):
        for lat in self.LATTICES:
            state = fe.FlowState(0.0, self.field(lat, value))
            with pytest.raises(StepRejected, match=r"metric density.*\(3, 1, 2, 0\)"):
                fe.step(state, 1e-6, fe.FlowConfig(dt=1e-6, cfl=None))

    @pytest.mark.parametrize("value,error", [(np.inf, ValidationError), (np.nan, NotPositive)])
    def test_initial_state(self, value, error):
        for lat in self.LATTICES:
            with pytest.raises(error):
                fe.init_state(fe.FlowConfig(), self.field(lat, value))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_lift_exits_2(self, value, tmp_path, capsys):
        from hsflow import cli, snapshot
        path = tmp_path / "s.hsf"
        snapshot.write_snapshot(path, self.field(self.LATTICES[0], value))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["lift", "--snapshot", str(path)]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            "numerical abort: metric density not positive definite at lattice index (3, 1, 2, 0)"]


class TestStep:
    def test_fixed_point_unchanged(self):
        lat = gc.Lattice((8, 4, 4, 4))
        cfg = fe.FlowConfig(dt=1e-4, cfl=None)
        state = fe.init_state(cfg, gc.constant_triple_field(lat, STD))
        out = fe.step(state, 1e-4, cfg)
        assert np.abs(out.tf.c - state.tf.c).max() <= 1e-12

    def test_euler_is_one_rhs(self):
        tf = t3_field()
        cfg = fe.FlowConfig(dt=1e-5, cfl=None, method="euler")
        state = fe.init_state(cfg, tf)
        r = fe.rhs(state)
        out = fe.step(state, 1e-5, cfg)
        assert np.abs(out.tf.c - (tf.c + 1e-5 * r)).max() <= 1e-15

    def test_richardson_order(self):
        # one dt step vs two dt/2 steps differ at O(dt^5): halving dt cuts
        # the defect by ~2^5
        tf = t3_field(amp=0.03)
        cfg = fe.FlowConfig(dt=1.0, cfl=None)
        state = fe.init_state(cfg, tf)

        def defect(dt):
            one = fe.step(state, dt, cfg)
            half = fe.step(fe.step(state, dt / 2, cfg), dt / 2, cfg)
            return np.abs(one.tf.c - half.tf.c).max()

        dt0 = 4e-5
        ratio = defect(dt0) / defect(dt0 / 2)
        assert 20 <= ratio <= 45

    def expression_form(self, method, n, workers, slabs, kept):
        # two steps of a run, each byte for byte the RK4 (or Euler) formula
        # evaluated on new arrays; k1 is the RHS a row kept, or, when none
        # did, that of a copy of the state, so that the step evaluates its own
        lat = gc.Lattice(n)
        cfg = fe.FlowConfig(dt=2e-5, cfl=None, method=method, fiber_samples=0)
        tf = initial_data.generate_initial(lat, "exact-perturbation", 0.05, 7)
        state = fe.init_state(cfg, tf)
        dt = 2e-5
        with gc.slab_threads(workers):
            assert gc._threads(lat.shape) == slabs
            for _ in range(2):
                c0 = state.tf.c
                k1 = fe.rhs(state if kept else fe.FlowState(0.0, gc.TripleField(lat, c0.copy())))
                if method == "euler":
                    expected = c0 + dt * k1
                else:
                    k2 = fe.evaluate_rhs(lat, c0 + 0.5 * dt * k1)
                    k3 = fe.evaluate_rhs(lat, c0 + 0.5 * dt * k2)
                    k4 = fe.evaluate_rhs(lat, c0 + dt * k3)
                    expected = c0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                assert (("rhs", 4) in state.kept) == kept
                before = state
                state = fe.step(state, dt, cfg)
                assert _bytes(state.tf.c) == _bytes(expected)
                # the step released what the stepped-from state had kept
                assert ("rhs", 4) not in before.kept and before.q is None and not state.kept

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("n,workers,slabs", [((8, 4, 4, 4), 1, 1), ((16, 16, 16, 16), 1, 1),
                                                 ((16, 16, 16, 16), 2, 2)])
    def test_bytes_of_the_expression_form(self, method, n, workers, slabs):
        self.expression_form(method, n, workers, slabs, kept=True)

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("n,workers,slabs", [((8, 4, 4, 4), 1, 1), ((16, 16, 16, 16), 1, 1),
                                                 ((16, 16, 16, 16), 2, 2)])
    def test_bytes_of_the_expression_form_with_k1_unkept(self, method, n, workers, slabs):
        self.expression_form(method, n, workers, slabs, kept=False)

    def states_own_their_memory(self, rows):
        # the right-hand-side memory a run's steps share holds nothing that
        # a state keeps, and a stepped-from state's normalization, kept RHS
        # and row recompute to the bytes they had before the step released them
        cfg = fe.FlowConfig(dt=2e-5, cfl=None, fiber_samples=2)
        state = fe.init_state(cfg, t3_field())
        made = []
        for _ in range(3):
            row = fe.diagnostics(state, cfg) if rows else None
            kept = [fe.rhs(state)] if rows else []
            made.append((state, row, [np.array(a) for a in (
                state.tf.c, state.q, state.g, state.mu, *state.q_top, *kept)]))
            state = fe.step(state, 2e-5, cfg)
            old = made[-1][0]
            assert old.q is old.g is old.mu is old.q_top is None and ("rhs", 4) not in old.kept
        arrays = (state.tf.c, state.q, state.g, state.mu, *state.q_top)
        assert not any(np.shares_memory(a, w) for a in arrays for w in state.work)
        for old, row, copies in made:
            if rows:
                assert fe.diagnostics(old, cfg) == row
            now = (old.tf.c, *old.ensure_fields(cfg.degeneration_threshold), *old.q_top,
                   *((fe.rhs(old),) if rows else ()))
            assert _bytes(*now) == _bytes(*copies)
            assert not any(np.shares_memory(a, w) for a in now for w in state.work)

    def test_states_own_their_memory(self):
        self.states_own_their_memory(rows=True)

    def test_states_own_their_memory_without_rows(self):
        # no row kept a RHS, so each step evaluated k1 into new memory
        self.states_own_their_memory(rows=False)

    def test_step_guards_at_the_configured_threshold(self):
        # a state whose smallest Gram eigenvalue lies under the configured
        # threshold is rejected before its stages, naming that eigenvalue
        # (LAPACK's), though the state it steps to would pass
        tf = t3_field()
        lowest = gc._normalize_fields(tf.c, 1e-6)[3][1]
        passed = fe.step(fe.FlowState(0.0, tf), 1e-5, fe.FlowConfig(dt=1e-5, cfl=None))
        assert passed.q_eig_min > lowest
        threshold = (lowest + passed.q_eig_min) / 2.0
        cfg = fe.FlowConfig(dt=1e-5, cfl=None, degeneration_threshold=threshold)
        with pytest.raises(StepRejected, match=re.escape(
                f"Gram matrix eigenvalue {lowest:.3e} <= {threshold:g}")):
            fe.step(fe.FlowState(0.0, tf), 1e-5, cfg)

    def test_kept_rhs_does_not_skip_the_configured_guard(self):
        # fe.rhs guards a fresh state at the default threshold; a step at a
        # higher configured one still rejects it, in a fresh state's words
        tf = t3_field()
        lowest = gc._normalize_fields(tf.c, 1e-6)[3][1]
        cfg = fe.FlowConfig(dt=1e-5, cfl=None, degeneration_threshold=1.0001 * lowest)
        messages = []
        for kept in (False, True):
            state = fe.FlowState(0.0, gc.TripleField(tf.lattice, tf.c))
            if kept:
                fe.rhs(state)
                assert state.threshold == 1e-6
            with pytest.raises(StepRejected) as rejected:
                fe.step(state, 1e-5, cfg)
            messages.append(str(rejected.value))
        assert messages[0] == messages[1]
        assert re.search(r"Gram matrix eigenvalue .* at lattice index \(10, 0, 0, 0\)",
                         messages[0])

    def test_guard_kept_at_the_configured_threshold(self, monkeypatch):
        # a run at a threshold of its own guards each state once: the rows'
        # RHS and torsion samples take a state's guard as it is
        tf = t3_field()
        guarded, fn = [], gc._normalize_fields
        monkeypatch.setattr(gc, "_normalize_fields", lambda c, threshold=None, out=None: (
            guarded.append(threshold) or fn(c, threshold, out)))
        cfg = fe.FlowConfig(dt=1e-5, cfl=None, max_steps=2, diag_cadence=1, fiber_samples=2,
                            degeneration_threshold=1e-3)
        assert fe.run(cfg, tf).final_state.threshold == 1e-3
        # the initial state's guard, then each step's three mid-stages and its guard
        assert guarded == [1e-3] + [None, None, None, 1e-3] * 2

    def test_retry_from_a_released_state(self):
        # a step retried from the state that a step released gives the bytes
        # of a step from a fresh copy of it
        cfg = fe.FlowConfig(dt=2e-5, cfl=None, fiber_samples=2)
        tf = t3_field()
        state = fe.init_state(cfg, tf)
        fe.diagnostics(state, cfg)
        fe.step(state, 2e-5, cfg)
        retry = fe.step(state, 1e-5, cfg)
        fresh = fe.step(fe.init_state(cfg, gc.TripleField(tf.lattice, tf.c.copy())), 1e-5, cfg)
        assert _bytes(retry.tf.c, retry.q, retry.g, retry.mu, *retry.q_top) == _bytes(
            fresh.tf.c, fresh.q, fresh.g, fresh.mu, *fresh.q_top)
        assert retry.q_eig_min == fresh.q_eig_min

    def test_step_rejected_on_blowup(self):
        tf = t3_field(amp=0.05)
        cfg = fe.FlowConfig(dt=5.0, cfl=None)
        state = fe.init_state(cfg, tf)
        with pytest.raises(StepRejected) as exc_info:
            fe.step(state, 5.0, cfg)
        assert exc_info.value.suggested_dt == pytest.approx(2.5)


class TestRhsConvergence:
    @pytest.mark.parametrize("order,n_pair", [(2, (32, 64)), (4, (32, 64))])
    def test_stencil_order(self, order, n_pair):
        def sample(n):
            lat = gc.Lattice((n, 4, 4, 4))
            x = lat.grids()
            c = np.broadcast_to(STD, lat.shape + (3, 6)).copy()
            c[..., 0, 0] += (0.05 * 2 * np.pi * np.cos(2 * np.pi * x[0])
                             * np.ones(lat.shape))
            return lat, c

        ref_n = 8 * n_pair[1]
        lat_ref, c_ref = sample(ref_n)
        r_ref = fe.evaluate_rhs(lat_ref, c_ref, order)
        errs = []
        for n in n_pair:
            lat, c = sample(n)
            r = fe.evaluate_rhs(lat, c, order)
            errs.append(np.abs(r - r_ref[::ref_n // n]).max())
        ratio = errs[0] / errs[1]
        assert abs(ratio - 2 ** order) <= 0.15 * 2 ** order


class TestStableDt:
    def test_scales_with_h_squared(self):
        cfg = fe.FlowConfig()
        for n, expect in ((8, (1 / 8) ** 2), (16, (1 / 16) ** 2)):
            lat = gc.Lattice((n, 4, 4, 4))
            state = fe.init_state(cfg, gc.constant_triple_field(lat, STD))
            dt = fe.stable_dt(state, 0.2)
            assert dt == pytest.approx(0.2 * expect)


class TestRun:
    def test_standard_triple_all_flat(self):
        lat = gc.Lattice((8, 4, 4, 4))
        cfg = fe.FlowConfig(max_steps=100, diag_cadence=20, fiber_samples=4)
        res = fe.run(cfg, gc.constant_triple_field(lat, STD))
        assert res.aborted is None
        for row in res.rows:
            for key in ("max_dw", "max_abs_detQ_minus_1", "period_drift",
                        "rhs_l2", "q_dev", "torsion_sample"):
                assert abs(row[key]) <= 1e-12, (key, row)
            assert row["min_eig_Q"] == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_run_conserves_structure(self):
        tf = t3_field(amp=0.05)
        cfg = fe.FlowConfig(max_steps=60, diag_cadence=10, fiber_samples=4)
        res = fe.run(cfg, tf)
        assert res.aborted is None
        assert res.column("max_dw").max() <= 1e-11
        assert res.column("period_drift").max() <= 1e-11
        assert res.column("max_abs_detQ_minus_1").max() <= 1e-9
        assert res.column("torsion_sample").max() <= 1e-9

    def test_q_dev_decays(self):
        tf = t3_field(amp=0.05)
        cfg = fe.FlowConfig(max_steps=200, diag_cadence=50, fiber_samples=2)
        res = fe.run(cfg, tf)
        qd = res.column("q_dev")
        assert qd[-1] < qd[0]

    def test_nonclosed_initial_rejected(self, rng):
        lat = gc.Lattice((8, 4, 4, 4))
        c = np.broadcast_to(STD, lat.shape + (3, 6)).copy()
        x = lat.grids()
        c[..., 0, 3] += 0.05 * np.sin(2 * np.pi * x[1]) * np.ones(lat.shape)
        with pytest.raises(ValidationError, match="not closed"):
            fe.run(fe.FlowConfig(max_steps=1), gc.TripleField(lat, c))

    def test_deterministic_rows(self):
        cfg = fe.FlowConfig(max_steps=20, diag_cadence=5, fiber_samples=3)
        rows1 = fe.run(cfg, t3_field()).rows
        rows2 = fe.run(cfg, t3_field()).rows
        assert rows1 == rows2

    def test_t_end_stops_early(self):
        tf = t3_field()
        cfg = fe.FlowConfig(dt=1e-5, cfl=None, t_end=3.5e-5, max_steps=100)
        res = fe.run(cfg, tf)
        assert res.final_state.time == pytest.approx(3.5e-5, abs=1e-12)

    def test_abort_is_reported(self):
        tf = t3_field(amp=0.05)
        cfg = fe.FlowConfig(dt=5.0, cfl=None, max_steps=3)
        res = fe.run(cfg, tf)
        assert res.aborted is not None
        assert "positive cone" in res.aborted


def count_calls(monkeypatch, name):
    calls = []
    fn = getattr(fe, name)
    monkeypatch.setattr(fe, name, lambda *args, **kw: calls.append(name) or fn(*args, **kw))
    return calls


class TestReuse:
    """Each committed state is normalized, bounded and evaluated once."""

    @pytest.mark.parametrize("method,stages", [("rk4", 4), ("euler", 1)])
    def test_call_counts(self, monkeypatch, method, stages):
        dts = count_calls(monkeypatch, "stable_dt")
        rhss = count_calls(monkeypatch, "evaluate_rhs")
        tf = t3_field()
        normalized = []
        fn = gc._normalize_fields
        monkeypatch.setattr(gc, "_normalize_fields",
                            lambda *args, **kw: normalized.append(1) or fn(*args, **kw))
        cfg = fe.FlowConfig(max_steps=5, diag_cadence=2, fiber_samples=0, method=method)
        res = fe.run(cfg, tf)
        assert res.aborted is None and res.rows[-1]["step"] == 5
        assert len(dts) == 5
        # rows at steps 0, 2 and 4 are the first stages of steps 1, 3 and 5
        assert len(rhss) == stages * 5 + 1
        # the initial state's, then per step its mid-stages' and the guard's
        assert len(normalized) == 1 + stages * 5

    @pytest.mark.parametrize("max_steps,expect", [(20, [10, 20]), (25, [10, 20, 25])])
    def test_checkpoint_once_per_step(self, max_steps, expect):
        written = []
        cfg = fe.FlowConfig(dt=1e-5, cfl=None, max_steps=max_steps, diag_cadence=5,
                            checkpoint_cadence=10, fiber_samples=0)
        fe.run(cfg, t3_field(),
               checkpoint_sink=lambda i, st: written.append((i, st.diagnostics["step"])))
        assert written == [(i, i) for i in expect]


class TestSampling:
    """Fiber samples are drawn, and the dual lift's torsion taken, in one place."""

    def test_none_requested(self):
        assert fe.draw_points(gc.Lattice((4, 4, 4, 4)), 0, 3) == ()

    def test_clamped_to_lattice(self):
        lat = gc.Lattice((4, 4, 4, 4))
        points = fe.draw_points(lat, lat.num_points + 5, 3)
        assert len(points) == lat.num_points
        assert set(points) == set(np.ndindex(*lat.shape))

    def test_distinct_points_from_seed(self):
        lat = gc.Lattice((8, 4, 4, 4))
        points = fe.draw_points(lat, 12, 5)
        assert len(set(points)) == 12 and points == fe.draw_points(lat, 12, 5)
        assert all(0 <= i < n for p in points for i, n in zip(p, lat.shape))

    def test_row_uses_dual_lift_torsion(self, monkeypatch):
        calls = []
        torsion = fe.dual_lift_torsion
        monkeypatch.setattr(fe, "dual_lift_torsion", lambda st, points, *a: calls.append(
            points) or torsion(st, points, *a))
        state = fe.init_state(fe.FlowConfig(fiber_samples=3, seed=2), t3_field())
        row = fe.diagnostics(state, fe.FlowConfig(fiber_samples=3, seed=2))
        assert calls == [state.sample_points] and len(state.sample_points) == 3
        assert row["torsion_sample"] == torsion(state, state.sample_points)


class TestInitialRow:
    def test_row_zero_reuses_init_state(self, monkeypatch):
        counts = {"max_dabs": 0, "periods": 0}
        for name in counts:
            fn = getattr(gc.TripleField, name)

            def counted(self, *args, _fn=fn, _name=name, **kw):
                counts[_name] += 1
                return _fn(self, *args, **kw)
            monkeypatch.setattr(gc.TripleField, name, counted)
        res = fe.run(fe.FlowConfig(max_steps=0, fiber_samples=0), t3_field())
        assert counts == {"max_dabs": 1, "periods": 1}
        assert res.rows[0]["period_drift"] == 0.0
        assert res.rows[0]["max_dw"] == res.final_state.kept[("max_dw", 4)]


# reference pipeline for the equivalence tests: the frozen six-product
# density, a generic determinant and inverse, and a gathered Lambda^2 Gram
_P, _Q = (np.array(ix) for ix in zip(*ta.LAMBDA2_TUPLES))


def reference_rhs(lat, c, order=4):
    K = oracles.metric_density_six_products(c)
    mu = np.linalg.det(K) ** (1.0 / 6.0)
    g = K / mu[..., None, None]
    h = np.linalg.inv(g)
    q = ta.gram(c, mu)
    G2 = (h[..., _P[:, None], _P[None, :]] * h[..., _Q[:, None], _Q[None, :]]
          - h[..., _P[:, None], _Q[None, :]] * h[..., _Q[:, None], _P[None, :]])
    sigma = np.matmul(ta.adj3(q), c)
    starred = np.matmul(np.matmul(sigma, G2), np.linalg.inv(ta.WEDGE2)) * mu[..., None, None]
    eta = -ta.star3(gc.d(lat, starred, 2, order), g, mu)
    return gc.d(lat, np.matmul(q, eta), 1, order)


class TestKernelEquivalence:
    """RHS and one RK4 step agree with the reference pipeline to roundoff."""

    @pytest.mark.parametrize("generator", ["exact-perturbation", "t3-invariant"])
    def test_rhs_and_rk4_step(self, generator):
        lat = gc.Lattice((8, 4, 4, 4))
        tf = initial_data.generate_initial(lat, generator, 0.05, 7)
        cfg = fe.FlowConfig()
        state = fe.init_state(cfg, tf)
        r_ref = reference_rhs(lat, tf.c)
        assert np.abs(fe.rhs(state) - r_ref).max() <= 1e-13 * np.abs(r_ref).max()

        dt = fe.stable_dt(state, cfg.cfl)
        k1 = r_ref
        k2 = reference_rhs(lat, tf.c + 0.5 * dt * k1)
        k3 = reference_rhs(lat, tf.c + 0.5 * dt * k2)
        k4 = reference_rhs(lat, tf.c + dt * k3)
        inc_ref = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        inc = fe.step(state, dt, cfg).tf.c - tf.c
        assert np.abs(inc - inc_ref).max() <= 1e-13 * np.abs(inc_ref).max()


class TestDescentConsistency:
    def test_lift_identities_along_the_flow(self, rng):
        # the evolved triple's 7-dimensional lift keeps *7 psi = phi and a
        # vanishing torsion trace at sampled points
        tf = t3_field(amp=0.05)
        cfg = fe.FlowConfig(max_steps=30, diag_cadence=10, fiber_samples=4)
        res = fe.run(cfg, tf)
        state = res.final_state
        q, g, mu = state.ensure_fields()
        c = state.tf.c
        sigma = np.einsum('...kl,...lm->...km', ta.inv3(q), c)
        dsig = gc.d(state.tf.lattice, sigma, 2)
        for _ in range(6):
            idx = tuple(int(rng.integers(0, n)) for n in state.tf.lattice.shape)
            phi = fg.build_phi(c[idx])
            psi = fg.build_psi(sigma[idx], mu[idx])
            g7 = fg.metric7_block(q[idx], g[idx])
            assert fg.check_star7(phi, psi, g7) <= 1e-9
            phi_s = fg.build_phi(sigma[idx])
            dphi_s = fg.assemble_dphi(dsig[idx])
            g7s = fg.metric7_block(ta.inv3(q[idx]), g[idx])
            assert abs(fg.torsion_trace(phi_s, dphi_s, g7s)) <= 1e-9


def _reported_admissible(lat, generator, seed):
    """The amplitude generate_initial reports as admissible: 0.95 times the
    largest that keeps the triple positive."""
    with pytest.raises(NotPositive) as exc:
        initial_data.generate_initial(lat, generator, 50.0, seed)
    return float(str(exc.value).rsplit("about", 1)[1])


class TestSpectralScreen:
    """The guard and stable_dt take LAPACK's values from the points the
    closed-form estimates cannot decide; every result must equal, bit for
    bit, the one from lattice-wide eigvalsh."""

    LAT = gc.Lattice((8, 4, 4, 4))

    def field(self, kind):
        lat = self.LAT
        if kind == "constant":
            return gc.constant_triple_field(lat, STD).c
        if kind == "near-isotropic":
            return initial_data.generate_initial(lat, "exact-perturbation", 1e-9, 3).c
        if kind == "t3-invariant":   # each value repeats 64 times
            return initial_data.generate_initial(lat, "t3-invariant", 0.05, 7).c
        if kind == "exact-0.05":
            return initial_data.generate_initial(lat, "exact-perturbation", 0.05, 7).c
        if kind == "exact-admissible":
            amp = _reported_admissible(lat, "exact-perturbation", 7)
            return initial_data.generate_initial(lat, "exact-perturbation", amp, 7).c
        return TestLayout().planted("collapse")[1]

    @staticmethod
    def lattice_wide(c, threshold):
        """(lowest, message or None, Lambda) from eigvalsh at every point."""
        q, g, _, _ = gc._normalize_fields(c)
        lam_q, lam_g = np.linalg.eigvalsh(q), np.linalg.eigvalsh(g)
        lowest = float(lam_q[..., 0].min())
        ok = lam_q[..., 0] > threshold
        message = None
        if not ok.all():
            message = (f"Gram matrix eigenvalue {lowest:.3e} <= {threshold:g} at lattice "
                       f"index {tuple(int(v) for v in np.argwhere(~ok)[0])}")
        return lowest, message, float((lam_q[..., -1] * (1.0 / lam_g[..., 0])).max())

    @pytest.mark.parametrize("kind", ["constant", "near-isotropic", "t3-invariant",
                                      "exact-0.05", "exact-admissible", "collapse"])
    def test_matches_lattice_wide_eigvalsh(self, kind):
        c = self.field(kind)
        lowest, message, lam = self.lattice_wide(c, 1e-6)
        state = fe.FlowState(0.0, gc.TripleField(self.LAT, c))
        if message is not None:
            with pytest.raises(NotPositive) as exc:
                state.ensure_fields(1e-6)
            assert str(exc.value) == message
            return
        state.ensure_fields(1e-6)
        assert state.q_eig_min == lowest
        hmin = min(self.LAT.h)
        assert fe.stable_dt(state, 0.2) == 0.2 * hmin * hmin / lam
        lo, hi = state.q_top   # the bracket holds LAPACK's largest eigenvalue
        top = np.linalg.eigvalsh(state.q)[..., -1]
        assert np.all(lo <= top) and np.all(top <= hi)

    @pytest.mark.parametrize("kind", ["t3-invariant", "exact-0.05", "exact-admissible"])
    def test_threshold_inside_the_spectrum(self, kind):
        # a threshold that half the lattice fails: decision, lowest value and
        # first failing index as from every point's eigenvalues
        c = self.field(kind)
        q = gc._normalize_fields(c)[0]
        threshold = float(np.median(np.linalg.eigvalsh(q)[..., 0]))
        _, message, _ = self.lattice_wide(c, threshold)
        with pytest.raises(NotPositive) as exc:
            gc._normalize_fields(c, threshold)
        assert str(exc.value) == message

    def test_eigvalsh_runs_on_few_points(self, monkeypatch):
        c = self.field("exact-0.05")
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(len(m)) or eigvalsh(m))
        state = fe.FlowState(0.0, gc.TripleField(self.LAT, c))
        state.ensure_fields(1e-6)
        fe.stable_dt(state, 0.2)
        assert len(calls) == 3 and max(calls) < self.LAT.num_points // 8

    def test_constant_field_decomposes_one_matrix(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(len(m)) or eigvalsh(m))
        state = fe.FlowState(0.0, gc.TripleField(self.LAT, self.field("constant")))
        state.ensure_fields(1e-6)
        fe.stable_dt(state, 0.2)
        assert calls == [1, 1, 1]

    def test_estimates_hold_lapack_values(self, rng):
        # rotated spectra with clusters of each size and position: every
        # LAPACK eigenvalue lies within the estimate's radius
        spectra = 1.0 + rng.uniform(0.0, 1.0, (4000, 4)) * rng.choice(
            [1e-12, 1e-6, 1e-2, 1.0], (4000, 1))
        spectra[:1000, 1] = spectra[:1000, 0]
        spectra[1000:2000, 1:3] = spectra[1000:2000, :1]
        spectra[2000:3000, 2:] = spectra[2000:3000, 1:2]
        for n in (3, 4):
            rot, _ = np.linalg.qr(rng.standard_normal((4000, n, n)))
            m = np.einsum("kij,kj,klj->kil", rot, spectra[:, :n], rot)
            m = 0.5 * (m + np.swapaxes(m, -1, -2))
            lam = np.linalg.eigvalsh(m)
            if n == 3:
                lo, hi, radius = ta._gram_extremes(m)
                assert np.all(np.abs(hi - lam[:, -1]) <= radius)
            else:
                lo, radius = ta._metric_floor(m)
            assert np.all(np.abs(lo - lam[:, 0]) <= radius)


def _bytes(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _star3_inputs(c):
    """star3's inputs in the right-hand side: d sigma, g and -mu of ``c``."""
    lat = gc.Lattice(c.shape[:4])
    q, g, mu, _ = gc._normalize_fields(c)
    return gc.d(lat, ta._product(ta.adj3(q), c), 2), g, -mu


def _flux_inputs(c):
    """The flux's inputs in the right-hand side: Q and eta = star3(d sigma, g, -mu)."""
    q = gc._normalize_fields(c)[0]
    return q, ta.star3(*_star3_inputs(c))


class TestSlabs:
    """In slab threads the pointwise stages run per axis-0 slab and the
    derivatives per output component; every result must equal the serial one
    byte for byte, at any worker count.  16x16x16x16 is two slabs of
    SLAB_POINTS."""

    LAT = gc.Lattice((16, 16, 16, 16))

    @pytest.fixture(scope="class")
    def field(self):
        return initial_data.generate_initial(self.LAT, "exact-perturbation", 0.05, 7).c

    @pytest.fixture(params=[1, 2, 4])
    def workers(self, request):
        return request.param

    def test_slab_count(self, workers):
        with gc.slab_threads(workers):
            assert gc._threads(self.LAT.shape) == min(workers, 2)
            assert gc._threads(gc.Lattice((64, 4, 4, 4)).shape) == 1
        assert gc._threads(self.LAT.shape) == 1

    def test_slabs_split_planes_evenly(self, monkeypatch):
        # a thread per SLAB_POINTS points, at most one per axis-0 plane
        monkeypatch.setattr(gc, "SLAB_POINTS", 256)
        with gc.slab_threads(4):
            assert gc._threads((32, 8, 4, 4)) == 4
            assert gc._threads((10, 5, 5, 5)) == 4
            assert gc._threads((3, 32, 4, 4)) == 3
            assert gc._threads((5, 5, 2, 4)) == 1   # 200 points

    @pytest.mark.parametrize("density,build", [
        (ta.metric_density, lambda c: c), (fg.metric_density7, fg.build_phi),
        pytest.param(ta.gram, lambda c: (c, gc._normalize_fields(c)[2]), id="gram"),
        pytest.param(ta._product, lambda c: (ta.adj3(gc._normalize_fields(c)[0]), c),
                     id="sigma"),
        pytest.param(ta.star3, lambda c: _star3_inputs(c), id="star3"),
        pytest.param(ta._product, lambda c: _flux_inputs(c), id="flux")])
    def test_density_bits_independent_of_partition(self, density, build):
        # a point's density, Gram matrix, sigma = adj(Q) w, star3 and Q eta are
        # the same bits in any piece, batch or layout
        lat = gc.Lattice((23, 4, 8, 6))
        inputs = build(initial_data.generate_initial(lat, "exact-perturbation", 0.05, 3).c)
        inputs = inputs if isinstance(inputs, tuple) else (inputs,)
        whole = density(*inputs)
        cut = [0, 1, 4, 5, 17, 23]
        parts = np.concatenate([density(*(x[a:b] for x in inputs))
                                for a, b in zip(cut, cut[1:])])
        grid_first = [np.ascontiguousarray(x) for x in inputs]
        rows = [ta._pointwise(ta._entries(x, x.ndim - 4), x.ndim - 4)   # component-major
                for x in grid_first]
        assert (_bytes(parts, density(*grid_first), density(*rows))
                == _bytes(whole, whole, whole))
        for at in [(0, 0, 0, 0), (22, 3, 7, 5), (5, 2, 0, 3)]:
            assert _bytes(density(*(x[at] for x in inputs))) == _bytes(whole[at])

    def test_rhs(self, field, workers):
        serial = _bytes(fe.evaluate_rhs(self.LAT, field))
        with gc.slab_threads(workers):
            assert _bytes(fe.evaluate_rhs(self.LAT, field)) == serial

    def test_guarded_normalization(self, field, workers):
        (*serial, (top, low)) = gc._normalize_fields(field, 1e-6)
        with gc.slab_threads(workers):
            (*slabbed, (top_s, low_s)) = gc._normalize_fields(field, 1e-6)
        assert _bytes(*serial, *top) == _bytes(*slabbed, *top_s) and low == low_s

    def test_max_dabs_and_d(self, field, workers):
        tf = gc.TripleField(self.LAT, field)

        def results():
            return [tf.max_dabs(4)] + [_bytes(gc.d(self.LAT, f, k, 2))
                                       for k, f in ((1, field[..., :4]), (2, field))]
        serial = results()
        with gc.slab_threads(workers):
            assert results() == serial

    @pytest.mark.parametrize("where", [[(12, 1, 2, 3)], [(12, 1, 2, 3), (3, 5, 6, 7)]])
    def test_degenerate_point_message(self, where):
        # a flipped point in the second slab, alone or after one in the first:
        # the message names the first failing lattice index, as serially
        c = np.broadcast_to(STD, self.LAT.shape + (3, 6)).copy()
        for at in where:
            c[at + (2,)] *= -1.0
        first = str(min(where))
        for kernel in (lambda: fe.evaluate_rhs(self.LAT, c),
                       lambda: gc._normalize_fields(c, 1e-6)):
            with pytest.raises(NotPositive) as serial:
                kernel()
            with gc.slab_threads(2), pytest.raises(NotPositive) as slabbed:
                kernel()
            assert str(slabbed.value) == str(serial.value)
            assert str(serial.value).endswith(f"at lattice index {first}")

    @pytest.mark.parametrize("plant,what", [("flip", "metric density"),
                                            ("collapse", "Gram matrix eigenvalue")])
    def test_step_rejection_message(self, plant, what):
        c = np.broadcast_to(STD, self.LAT.shape + (3, 6)).copy()
        if plant == "flip":
            c[12, 1, 2, 3, 2] *= -1.0
        else:
            c[12, 1, 2, 3, 0] *= 1e-9
        cfg = fe.FlowConfig(dt=1e-6, cfl=None)
        messages = []
        for threads in (contextlib.nullcontext(), gc.slab_threads(2)):
            state = fe.FlowState(0.0, gc.TripleField(self.LAT, c))
            with threads, pytest.raises(StepRejected) as exc:
                fe.step(state, 1e-6, cfg)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert re.search(what + r".* at lattice index \(12, 1, 2, 3\)", messages[0])

    def test_under_frequent_thread_switches(self, monkeypatch):
        # four slabs of a small lattice, with the interpreter switching
        # threads every microsecond: the right-hand side, the normalization
        # and an RK4 step, whose stage combinations and guard run by slab too
        monkeypatch.setattr(gc, "SLAB_POINTS", 1024)
        lat = gc.Lattice((32, 8, 4, 4))
        c = initial_data.generate_initial(lat, "exact-perturbation", 0.05, 3).c
        cfg = fe.FlowConfig(dt=1e-5, cfl=None)

        def results():
            stepped = fe.step(fe.FlowState(0.0, gc.TripleField(lat, c)), 1e-5, cfg)
            return _bytes(fe.evaluate_rhs(lat, c), *gc._normalize_fields(c)[:3],
                          stepped.tf.c, *stepped.q_top)
        serial = results()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with gc.slab_threads(4):
                assert gc._threads(lat.shape) == 4
                for _ in range(3):
                    assert results() == serial
        finally:
            sys.setswitchinterval(interval)

    def test_slab_threads_end_with_a_raise(self):
        c = np.broadcast_to(STD, self.LAT.shape + (3, 6)).copy()
        c[12, 1, 2, 3, 2] *= -1.0
        with pytest.raises(NotPositive):
            with gc.slab_threads(2):
                assert gc._threads(self.LAT.shape) == 2
                fe.evaluate_rhs(self.LAT, c)
        assert gc._threads(self.LAT.shape) == 1
        assert not any(t.name.startswith("hsflow-slab") and t.is_alive()
                       for t in threading.enumerate())

    def test_nested_slab_threads_restore_the_outer_ones(self, field):
        serial = _bytes(fe.evaluate_rhs(self.LAT, field))
        with gc.slab_threads(2):
            with gc.slab_threads(1):
                assert gc._threads(self.LAT.shape) == 1
            assert gc._threads(self.LAT.shape) == 2
            # the outer threads still run slabs
            assert _bytes(fe.evaluate_rhs(self.LAT, field)) == serial
        assert gc._threads(self.LAT.shape) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pieces_hold_at_most_slab_points(self, workers, monkeypatch):
        # every pointwise stage of a run, stable_dt and the guard included,
        # sees at most SLAB_POINTS points once the slabs hold more, and the
        # run is the one-piece run byte for byte
        lat = gc.Lattice((32, 8, 4, 4))
        tf = initial_data.generate_initial(lat, "exact-perturbation", 0.05, 3)
        cfg = fe.FlowConfig(max_steps=2, diag_cadence=1, fiber_samples=2)
        whole = fe.run(cfg, tf)
        by_slab, seen = gc._by_slab, []

        def spy(shape, stage, *arrays):
            def piece(*parts):
                seen.append(math.prod(parts[0].shape[:len(shape)]))
                return stage(*parts)
            by_slab(shape, piece, *arrays)
        monkeypatch.setattr(gc, "_by_slab", spy)
        monkeypatch.setattr(gc, "SLAB_POINTS", 1024)
        with gc.slab_threads(workers):
            assert gc._threads(lat.shape) == workers
            pieced = fe.run(cfg, tf)
        assert max(seen) == 1024 and pieced.rows == whole.rows
        assert _bytes(pieced.final_state.tf.c) == _bytes(whole.final_state.tf.c)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("plant,what", [("flip", "metric density"),
                                            ("collapse", "Gram matrix eigenvalue")])
    def test_pieces_name_the_first_failing_index(self, workers, plant, what, monkeypatch):
        # failing points in the third piece of four and in the last: every
        # message names the first of them, as a run in one piece does
        lat = gc.Lattice((32, 8, 4, 4))
        c = np.broadcast_to(STD, lat.shape + (3, 6)).copy()
        for at in [(21, 1, 2, 3), (30, 5, 0, 1)]:
            if plant == "flip":
                c[at + (2,)] *= -1.0
            else:
                c[at + (0,)] *= 1e-9
        kernels = [lambda: gc._normalize_fields(c, 1e-6),
                   lambda: fe.step(fe.FlowState(0.0, gc.TripleField(lat, c)), 1e-6,
                                   fe.FlowConfig(dt=1e-6, cfl=None))]
        if plant == "flip":
            kernels.append(lambda: fe.evaluate_rhs(lat, c))
        messages = []
        for kernel in kernels:
            with pytest.raises((NotPositive, StepRejected)) as whole:
                kernel()
            monkeypatch.setattr(gc, "SLAB_POINTS", 1024)
            with gc.slab_threads(workers), pytest.raises((NotPositive, StepRejected)) as pieced:
                kernel()
            monkeypatch.undo()
            assert str(pieced.value) == str(whole.value)
            messages.append(str(whole.value))
        assert all(re.search(what + r".* at lattice index \(21, 1, 2, 3\)", m) for m in messages)

    @pytest.mark.parametrize("kept", [True, False])
    def test_step_in_small_pieces(self, kept, monkeypatch):
        # a step whose stages and derivatives run in pieces of one to three
        # planes, halos wrapping, at 1 and 2 workers, gives the bytes of a
        # step in one piece, and so does the row after it
        lat = gc.Lattice((8, 4, 4, 4))
        cfg = fe.FlowConfig(dt=2e-5, cfl=None, fiber_samples=2)
        c = initial_data.generate_initial(lat, "exact-perturbation", 0.05, 7).c

        def stepped():
            state = fe.init_state(cfg, gc.TripleField(lat, c.copy()))
            if kept:
                fe.diagnostics(state, cfg)
            new = fe.step(state, 2e-5, cfg)
            return (_bytes(new.tf.c, new.q, new.g, new.mu, *new.q_top), new.q_eig_min,
                    fe.diagnostics(new, cfg))
        whole = stepped()
        for workers, points in [(1, 64), (2, 64), (2, 192)]:
            monkeypatch.setattr(gc, "SLAB_POINTS", points)
            with gc.slab_threads(workers):
                assert gc._threads(lat.shape) == workers
                assert stepped() == whole

    def test_one_slab_starts_no_thread(self):
        # the decay lattice is one slab: its derivatives' items and its
        # pieces all run on the calling thread, even in two slab threads
        cfg = fe.FlowConfig(max_steps=3, diag_cadence=1, fiber_samples=2)
        lat = gc.Lattice((64, 4, 4, 4))
        tf = initial_data.generate_initial(lat, "t3-invariant", 0.05, 7)
        before, seen = threading.active_count(), set()
        with gc.slab_threads(2):
            gc._d(lat, tf.c, 2)
            gc._by_slab(lat.shape, lambda c: seen.add(threading.get_ident()), tf.c)
            assert threading.active_count() == before
            res = fe.run(cfg, tf)
            assert threading.active_count() == before
        assert seen == {threading.get_ident()}
        assert res.aborted is None and res.rows[-1]["step"] == 3
