"""Time integration of the triple flow with structure-preserving diagnostics.

The evolution law is, per form,

    dw_i/dt = d( Q_ik d*( Q^kl w_l ) )

with Q the unit-determinant Gram field of the evolving triple and d* the
codifferential of the triple's own metric.  The w_i, and so sigma = Q^-1 w,
are self-dual for it: d* sigma = -*d sigma (Fine & Yao, Duke Math. J. 2018).
Every right-hand side is the discrete d of something, so closedness and the
cohomology periods of the state are conserved to roundoff by construction,
independent of step size.  The same triple can be read as the flow variable
of the dimensionally reduced 4-form evolution on the 3-torus product; the
engine stores one field and makes no distinction.

Positivity loss is a meaningful event (the state leaves the positive cone),
so steps that degenerate are rejected rather than projected back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import triple_algebra as ta
from . import grid_calculus as gc
from .errors import NotPositive, StepRejected, ValidationError

DIAG_COLUMNS = ("step", "time", "dt", "max_dw", "min_eig_Q",
                "max_abs_detQ_minus_1", "period_drift", "rhs_l2",
                "q_dev", "torsion_sample")

CLOSEDNESS_GATE = 1e-10
# the memory a run's right-hand sides share, by core: sigma, written over a step's stage
# input and overwritten by its result, and d sigma, by eta; a row's temporaries go there
_WORK = ((3, 6), (3, 4))


@dataclass
class FlowConfig:
    """Stepping policy and diagnostics knobs for a flow run."""

    dt: float | None = None        # fixed step; exclusive with cfl
    cfl: float | None = 0.2        # dt = cfl * min(h)^2 / Lambda
    t_end: float | None = None
    max_steps: int = 100
    stencil_order: int = 4
    diag_cadence: int = 10
    degeneration_threshold: float = 1e-6
    fiber_samples: int = 8
    seed: int = 0
    method: str = "rk4"            # "euler" available for integrator checks
    checkpoint_cadence: int = 0    # snapshots every N steps; 0 = final only

    def validate(self):
        if (self.dt is None) == (self.cfl is None):
            raise ValidationError("exactly one of dt / cfl must be set")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValidationError("dt must be positive and finite")
        if self.t_end is not None and not 0 < self.t_end < math.inf:
            raise ValidationError("t_end must be positive and finite")
        if self.cfl is not None and not (0.0 < self.cfl <= 1.0):
            raise ValidationError("cfl factor must lie in (0, 1]")
        if self.max_steps < 0:
            raise ValidationError("max_steps must be nonnegative")
        if self.stencil_order not in (2, 4):
            raise ValidationError("stencil order must be 2 or 4")
        if self.method not in ("rk4", "euler"):
            raise ValidationError(f"unknown method {self.method!r}")
        if self.diag_cadence < 1:
            raise ValidationError("diag_cadence must be >= 1")
        if not 0 < self.degeneration_threshold < math.inf:
            raise ValidationError("degeneration_threshold must be positive and finite")
        if self.fiber_samples < 0 or self.seed < 0:
            raise ValidationError("fiber_samples and seed must be nonnegative")
        if self.checkpoint_cadence < 0:
            raise ValidationError("checkpoint_cadence must be nonnegative")
        return self


@dataclass
class FlowState:
    """Evolving triple, run baselines, and what is computed once per state:
    normalization, the guard's Gram eigenvalue results, and in ``kept`` the
    periods and, per stencil order, the closedness defect, a row's RHS (not
    a step's k1: :func:`step`) and sigma and d sigma at the sample points.
    ``q`` and ``g`` are views of the component-major memory that the
    right-hand side reads, and so is ``tf.c`` after a step (:func:`step`).
    A stepped-from state has no ``q``, ``g``, ``mu``, ``q_top`` or kept RHS:
    :func:`step` releases them once k1 is made, and ``ensure_fields``
    recomputes them bit for bit, guarded at ``threshold``.  ``work``
    (:data:`_WORK`) is made by :func:`init_state`, or by :func:`step` for a
    state without it, and handed on by :func:`step`.
    ``q_eig_min`` is LAPACK's value; ``q_top`` is the closed-form estimate,
    a bracket ``(lo, hi)`` that holds each point's largest Gram eigenvalue
    (see ``grid_calculus._normalize_fields``)."""

    time: float
    tf: gc.TripleField
    q: np.ndarray | None = None
    g: np.ndarray | None = None
    mu: np.ndarray | None = None
    q_top: tuple | None = None            # bracket of each point's largest Gram eigenvalue
    q_eig_min: float | None = None        # smallest Gram eigenvalue anywhere
    base_periods: np.ndarray | None = None
    sample_points: tuple = ()
    diagnostics: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)
    work: tuple | None = field(default=None, repr=False, compare=False)
    threshold: float | None = None

    def ensure_fields(self, threshold: float | None = None):
        """``(q, g, mu)`` guarded at ``threshold``, or with None at the held
        ones' (else at 1e-6); made anew, in place of those held, when these
        were guarded at another."""
        if self.q is None or threshold not in (None, self.threshold):
            self.q = self.g = self.mu = self.q_top = None   # one normalization alive
            self.threshold = 1e-6 if threshold is None else threshold
            self.q, self.g, self.mu, (self.q_top, self.q_eig_min) = \
                self.tf.normalized(self.threshold)
        return self.q, self.g, self.mu

    def keep(self, key, compute):
        """``compute()`` on the first request for ``key``, the kept result after."""
        if key not in self.kept:
            self.kept[key] = compute()
        return self.kept[key]


def _dual(lat: gc.Lattice, c: np.ndarray, q: np.ndarray, order: int, sigma, dsigma):
    """sigma = Q^-1 w per piece (det q = 1, so adjugate = inverse) and its
    lattice-wide d, written into ``sigma`` and ``dsigma`` (:data:`_WORK`);
    ``c`` may be ``sigma``, which is then written over it."""
    gc._by_slab(lat.shape, lambda out, q, c: ta._product(ta.adj3(q), c, out), sigma, q, c)
    return sigma, gc.d(lat, sigma, 2, order, dsigma)


def evaluate_rhs(lat: gc.Lattice, c: np.ndarray, order: int = 4,
                 fields=None, seen=None, work=None, out=None) -> np.ndarray:
    """One right-hand side evaluation on raw coefficients; shape (grid, 3, 6).

    The update is assembled strictly as d(applied to 1-form fields), so it
    lies in the image of the discrete d.  Without ``fields`` (q, g, mu),
    ``c`` is normalized here, into new memory, with no eigenvalue guard,
    only the metric density's minors; the threshold guards committed states
    (:func:`step` normalizes its mid-stages itself).  ``sigma = Q^-1 w`` is
    self-dual, so d* sigma = -*d sigma takes one star.  Every stage from
    ``sigma`` on writes component-major memory, ``work`` (:data:`_WORK`) or
    new, ``(3, 6, n0, n1, n2, n3)`` for the triple; ``c`` is read in place
    when it is one too.
    ``c`` may be ``work``'s sigma, which sigma is written over (see
    :func:`step`).  The result is written into ``out``, which may be
    ``work``'s sigma, dead by then; else, without ``work``, into this call's
    own sigma, else into new memory.

    The pointwise stages hand their pieces, each writing its part of one
    lattice-wide array, and the derivatives their items to the threads of
    ``grid_calculus.slab_threads`` (see ``grid_calculus._each``).  Any
    worker count gives the same bits.
    ``seen(sigma, dsigma)``, when given, is shown the lattice-wide dual
    triple and its derivative (see :func:`_dual`) before they are dropped.
    """
    sigma, dsigma = work or gc._fields(lat.shape, *_WORK)
    q, g, mu = fields or gc._normalize_fields(c)[:3]

    def flux(out, q, g, mu):   # Q d* sigma = Q (-*3 d sigma); out, d sigma, is read first
        return ta._product(q, ta.star3(out, g, np.negative(mu)), out)

    _dual(lat, c, q, order, sigma, dsigma)
    if seen is not None:
        seen(sigma, dsigma)
    gc._by_slab(lat.shape, flux, dsigma, q, g, mu)   # eta, over d sigma
    return gc.d(lat, dsigma, 1, order, sigma if work is None and out is None else out)


def rhs(state: FlowState, order: int = 4) -> np.ndarray:
    """Right-hand side at a state's guarded fields (``state.ensure_fields()``);
    shape (grid, 3, 6), read-only, component-major.  Kept per stencil order,
    so a diagnostics row is also the next step's first stage; sigma and d
    sigma at the sample points are kept too, for :func:`dual_lift_torsion`."""
    points = state.sample_points

    def seen(sigma, dsigma):
        state.kept[("dual", order, points)] = _at(points, sigma, dsigma)

    def compute():
        out = evaluate_rhs(state.tf.lattice, state.tf.c, order, state.ensure_fields(),
                           seen if points else None, state.work)
        out.flags.writeable = False
        return out
    return state.keep(("rhs", order), compute)


def stable_dt(state: FlowState, cfl: float) -> float:
    """Heuristic parabolic bound cfl * min(h)^2 / Lambda for a guarded state.

    Lambda is the worst-point product of the largest Gram eigenvalue and the
    largest inverse-metric eigenvalue, a proxy for the diffusion coefficient.
    It is LAPACK's value, bit for bit a lattice-wide ``eigvalsh`` of q and g:
    the guard's bracket of each point's largest Gram eigenvalue and a
    closed-form estimate of its smallest metric eigenvalue bound the product
    everywhere, and LAPACK runs only at points whose bound reaches the
    largest lower bound; the bounds are made piece by piece.
    """
    def bounds(upper, lower, g, top_lo, top_hi):
        floor, radius = ta._metric_floor(g)
        np.divide(top_hi, floor - radius, out=upper, where=floor - radius > 0)
        np.divide(top_lo, floor + radius, out=lower)
    upper, lower = np.full_like(state.mu, np.inf), np.empty_like(state.mu)
    gc._by_slab(state.tf.lattice.shape, bounds, upper, lower, state.g, *state.q_top)
    suspect = upper >= np.max(lower)
    _, lam_q = ta._screened_eigvalsh(state.q, suspect)
    _, lam_g = ta._screened_eigvalsh(state.g, suspect)
    lam = float((lam_q[:, -1] * (1.0 / lam_g[:, 0])).max())
    hmin = min(state.tf.lattice.h)
    return cfl * hmin * hmin / lam


def step(state: FlowState, dt: float, config: FlowConfig) -> FlowState:
    """One explicit step (classical RK4, or forward Euler when configured).

    Every stage increment is a discrete-exact form, so the step conserves
    closedness and periods to roundoff.  RK4 runs in place, a component row
    of a piece at a time (``grid_calculus._by_slab``), with the operations,
    so the bits, of ``c0 + a*dt*k`` and ``c0 + (dt/6.0)*(k1 + 2.0*k2 +
    2.0*k3 + k4)``: each stage input is written into ``state.work``'s sigma,
    over k2 and k3, and k2 to k4 then over it; the sum is k1's memory, the
    new state's ``c``.  Once k1 is made, ``state``'s normalization and kept
    RHS are released (:class:`FlowState`), a row's k1 (:func:`rhs`) only then
    copied into new memory, and only then is the normalization of stages 2
    to 4 made; the post-step guard normalizes the new ``c`` into that
    memory, which the new state takes.  Both states are guarded at
    ``config.degeneration_threshold``.
    Raises StepRejected when a stage or the post-step state fails the guard.
    """
    lat, order, c0 = state.tf.lattice, config.stencil_order, state.tf.c
    threshold, work = config.degeneration_threshold, state.work or gc._fields(lat.shape, *_WORK)

    def scaled_sum(out, u, s, v):   # out = u * s + v, each u * s in a row of a piece
        def rows(out, u, v):
            t, = gc._fields(out.shape[:-2], ())
            for i in np.ndindex(3, 6):
                np.add(np.multiply(u[(...,) + i], s, out=t), v[(...,) + i], out=out[(...,) + i])
        gc._by_slab(lat.shape, rows, out, u, v)
    try:
        k1 = state.kept.pop(("rhs", order), None)   # a row's, read-only; else made in the sum
        fields = state.ensure_fields(threshold)
        acc = evaluate_rhs(lat, c0, order, fields, work=work) if k1 is None else k1
        k1 = fields = state.q = state.g = state.mu = state.q_top = None   # read no more
        acc = acc if acc.flags.writeable else np.copy(acc, order="K")   # a kept k1, copied
        if config.method == "rk4":
            x, k = work[0], acc
            for a, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
                scaled_sum(x, k, a * dt, c0)   # the stage input, over k after k1
                fields = gc._normalize_fields(x, None, fields)[:3]
                k = evaluate_rhs(lat, x, order, fields, work=work, out=x)   # k2, k3, k4
                scaled_sum(acc, k, w, acc)
        scaled_sum(acc, acc, dt / 6.0 if config.method == "rk4" else dt, c0)
        q, g, mu, (top, lowest) = gc._normalize_fields(acc, threshold, fields)   # the guard
    except NotPositive as exc:
        raise StepRejected(
            f"step from t={state.time:.6g} with dt={dt:.3e} left the positive "
            f"cone ({exc}); retry with dt <= {dt / 2:.3e}",
            suggested_dt=dt / 2.0) from exc
    return FlowState(state.time + dt, gc.TripleField(lat, acc), q, g, mu, top, lowest,
                     state.base_periods, state.sample_points, work=work, threshold=threshold)


def draw_points(lat: gc.Lattice, k: int, seed: int) -> tuple:
    """``min(k, lat.num_points)`` distinct lattice indices, drawn from ``seed``;
    the flow's fiber samples and ``hsflow lift`` both draw them here."""
    rng = np.random.default_rng(seed)
    k = min(k, lat.num_points)
    flat = rng.choice(lat.num_points, size=k, replace=False) if k else []
    return tuple(tuple(int(v) for v in np.unravel_index(i, lat.shape)) for i in flat)


def _at(points, *fields) -> tuple:
    """Each field's values at ``points`` (lattice indices), copied."""
    at = tuple(np.transpose(points))   # one index array per lattice axis
    return tuple(f[at] for f in fields)


def dual_lift_torsion(state: FlowState, points, order: int = 4) -> float:
    """Max |torsion trace| of the dual-triple lift at ``points`` of a state.

    The dual triple sigma_i = (Q^-1)_ik w_k is not closed away from fixed
    points, so this exercises the lift on genuinely non-closed data; the
    trace still vanishes because the product under the star pairs nothing.
    sigma and d sigma at the points are those :func:`rhs` kept, else
    computed here (:func:`_dual`).
    """
    if not points:
        return 0.0
    from . import fiber_g2 as fg
    q, g, _ = state.ensure_fields()
    sigma, dsig = state.keep(("dual", order, points), lambda: _at(
        points, *_dual(state.tf.lattice, state.tf.c, q, order,
                       *gc._fields(state.tf.lattice.shape, *_WORK))))
    q_at, g_at = _at(points, q, g)
    trace = fg.torsion_trace(fg.build_phi(sigma), fg.assemble_dphi(dsig),
                             fg.metric7_block(ta.adj3(q_at), g_at))
    return float(np.abs(trace).max())


def diagnostics(state: FlowState, config: FlowConfig, step_index: int = 0,
                dt: float = 0.0) -> dict:
    """Named diagnostic values of a state (see DIAG_COLUMNS)."""
    lat, order = state.tf.lattice, config.stencil_order
    sigma, dsigma = state.work or (None, None)   # the row's d w and r * r go there
    q = state.ensure_fields(config.degeneration_threshold)[0]
    max_dw = state.keep(("max_dw", order), lambda: state.tf.max_dabs(order, dsigma))
    det_dev = float(np.abs(ta.det3(q) - 1.0).max())
    if state.base_periods is not None:
        periods = state.keep("periods", state.tf.periods)
        drift = float(np.abs(periods - state.base_periods).max())
    else:
        drift = 0.0
    r = rhs(state, order)
    rhs_l2 = float(np.sqrt(np.multiply(r, r, out=sigma).sum() * lat.cell_volume))
    # numpy's sums of a grid-first q: each mean's sequential, a point's nine squares pairwise
    means, peaks = [np.cumsum(row)[-1] / row.size for row in ta._entries(q).reshape(9, -1)], []

    def deviation(q):   # piece by piece
        s = [(row - m) ** 2 for row, m in zip(ta._entries(q).reshape(9, -1), means)]
        s = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7])) + s[8]
        peaks.append(np.sqrt(s).max())
    gc._by_slab(lat.shape, deviation, q)
    row = {
        "step": step_index,
        "time": state.time,
        "dt": dt,
        "max_dw": max_dw,
        "min_eig_Q": state.q_eig_min,
        "max_abs_detQ_minus_1": det_dev,
        "period_drift": drift,
        "rhs_l2": rhs_l2,
        "q_dev": float(np.max(peaks)),
        "torsion_sample": dual_lift_torsion(state, state.sample_points, order),
    }
    state.diagnostics = row
    return row


@dataclass
class FlowResult:
    rows: list
    final_state: FlowState
    aborted: str | None = None

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows])


def init_state(config: FlowConfig, tf: gc.TripleField) -> FlowState:
    """Validate initial data and attach run baselines (periods, fiber samples).
    The closedness defect and periods computed here are kept for row 0."""
    config.validate()
    order = config.stencil_order
    state = FlowState(0.0, tf, work=gc._fields(tf.lattice.shape, *_WORK))
    max_dw = state.keep(("max_dw", order), lambda: tf.max_dabs(order, state.work[1]))
    if max_dw > CLOSEDNESS_GATE:
        raise ValidationError(
            f"initial triple field is not closed: max |dw| = {max_dw:.3e} "
            f"> {CLOSEDNESS_GATE:g}")
    state.ensure_fields(config.degeneration_threshold)
    state.base_periods = state.keep("periods", tf.periods)
    state.sample_points = draw_points(tf.lattice, config.fiber_samples, config.seed)
    return state


def run(config: FlowConfig, initial: gc.TripleField, row_sink=None,
        checkpoint_sink=None) -> FlowResult:
    """Integrate to t_end / max_steps, emitting diagnostics rows at the cadence.

    ``row_sink(row)`` and ``checkpoint_sink(step, state)`` are optional
    callbacks (the command-line layer streams them to disk).  On positivity
    loss the partial result is returned with ``aborted`` set to a message
    carrying full context.  In ``grid_calculus.slab_threads``, the
    right-hand side, the guard's normalization and the derivatives of large
    lattices run on its threads (see :func:`evaluate_rhs`).
    """
    state = init_state(config, initial)
    del initial   # the first state holds it, until the first step
    rows = []
    cad = config.checkpoint_cadence

    def emit(row):
        rows.append(row)
        if row_sink is not None:
            row_sink(row)

    def done():
        return step_index >= config.max_steps or (
            config.t_end is not None and state.time >= config.t_end)

    def on_cadence(i):   # snapshots in the loop; an off-cadence last state after it
        return cad > 0 and i > 0 and i % cad == 0

    step_index, aborted = 0, None
    dt = config.dt if config.cfl is None else stable_dt(state, config.cfl)
    emit(diagnostics(state, config, 0, dt))
    while not done():
        if config.cfl is not None and step_index > 0:   # step 1 takes row 0's dt
            dt = stable_dt(state, config.cfl)
        if config.t_end is not None:
            dt = min(dt, config.t_end - state.time)
        try:
            state = step(state, dt, config)
        except StepRejected as exc:
            aborted = f"aborted at step {step_index + 1}: {exc}"
            break
        step_index += 1
        if step_index % config.diag_cadence == 0 or done():
            emit(diagnostics(state, config, step_index, dt))
        if checkpoint_sink is not None and on_cadence(step_index):
            checkpoint_sink(step_index, state)
    if checkpoint_sink is not None and not on_cadence(step_index):
        checkpoint_sink(step_index, state)
    return FlowResult(rows, state, aborted)
