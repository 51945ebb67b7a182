"""Time integration of the triple flow with structure-preserving diagnostics.

The evolution law is, per form,

    dw_i/dt = d( Q_ik d*( Q^kl w_l ) )

with Q the unit-determinant Gram field of the evolving triple and d* the
codifferential of the triple's own metric.  Every right-hand side is the
discrete d of something, so closedness and the cohomology periods of the
state are conserved to roundoff by construction, independent of step size.
The same triple can be read as the flow variable of the dimensionally
reduced 4-form evolution on the 3-torus product; the engine stores one field
and makes no distinction.

Positivity loss is a meaningful event (the state leaves the positive cone),
so steps that degenerate are rejected rather than projected back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import triple_algebra as ta
from . import grid_calculus as gc
from .errors import NotPositive, StepRejected, ValidationError

DIAG_COLUMNS = ("step", "time", "dt", "max_dw", "min_eig_Q",
                "max_abs_detQ_minus_1", "period_drift", "rhs_l2",
                "q_dev", "torsion_sample")

CLOSEDNESS_GATE = 1e-10


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
    periods and, per stencil order, the closedness defect and the RHS.
    ``q``, ``g`` and ``h`` are views of the component-major memory that
    the right-hand side reads.  ``q_eig_min`` is LAPACK's value; ``q_top``
    is the closed-form estimate, a bracket ``(lo, hi)`` that holds each
    point's largest Gram eigenvalue (see ``grid_calculus._normalize_fields``)."""

    time: float
    tf: gc.TripleField
    q: np.ndarray | None = None
    g: np.ndarray | None = None
    mu: np.ndarray | None = None
    h: np.ndarray | None = None           # inverse metric
    q_top: tuple | None = None            # bracket of each point's largest Gram eigenvalue
    q_eig_min: float | None = None        # smallest Gram eigenvalue anywhere
    base_periods: np.ndarray | None = None
    sample_points: tuple = ()
    diagnostics: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)

    def ensure_fields(self, threshold: float = 1e-6):
        if self.q is None:
            self.q, self.g, self.mu, self.h, (self.q_top, self.q_eig_min) = \
                self.tf.normalized(threshold)
        return self.q, self.g, self.mu

    def keep(self, key, compute):
        """``compute()`` on the first request for ``key``, the kept result after."""
        if key not in self.kept:
            self.kept[key] = compute()
        return self.kept[key]


def evaluate_rhs(lat: gc.Lattice, c: np.ndarray, order: int = 4,
                 fields=None) -> np.ndarray:
    """One right-hand side evaluation on raw coefficients; shape (grid, 3, 6).

    The update is assembled strictly as d(applied to 1-form fields), so it
    lies in the image of the discrete d.  Without ``fields`` (q, g, mu, h),
    as at mid-stages, ``c`` is normalized here with no eigenvalue guard, only
    the metric density's minors; the threshold guards committed states.
    Every stage from ``Q^-1 w`` on, and the normalization, writes
    component-major memory, ``(3, 6, n0, n1, n2, n3)`` for the triple; the
    result is copied back to a C-ordered array once.

    The pointwise stages before and after the first d run once per slab of
    the lattice, on ``grid_calculus.slab_threads`` when there are several
    (see ``grid_calculus._slabs``), each slab writing its part of one
    lattice-wide array; the derivatives hand their output components to the
    same threads.  The result is the same at any worker count, bit for bit.
    """
    if fields is None:
        q, g, mu, h, _ = gc._normalize_fields(c)
    else:
        q, g, mu, h = fields

    def dual_star(at, out):   # *2 of sigma = Q^-1 w; det q = 1, so adjugate = inverse
        return ta.star2(ta._product(ta.adj3(q[at]), c[at]), h[at], mu[at], out)

    def flux(at, out):        # Q d* sigma, with d* = -*4 d *4 (see grid_calculus.codiff2)
        return ta._product(q[at], ta.star3(dbeta[at], g[at], np.negative(mu[at])), out)

    dbeta = gc._d(lat, gc._by_slab(lat.shape, dual_star, (3, 6)), 2, order)
    eta = gc._by_slab(lat.shape, flux, (3, 4))
    return np.ascontiguousarray(gc._d(lat, eta, 1, order))


def rhs(state: FlowState, order: int = 4) -> np.ndarray:
    """Right-hand side at a state's guarded fields (``state.ensure_fields()``);
    shape (grid, 3, 6), read-only.  Kept per stencil order, so a diagnostics
    row is also the next step's first stage."""
    def compute():
        fields = state.ensure_fields() + (state.h,)
        out = evaluate_rhs(state.tf.lattice, state.tf.c, order, fields)
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
    largest lower bound.
    """
    top_lo, top_hi = state.q_top
    floor, radius = ta._metric_floor(state.g)
    upper = np.divide(top_hi, floor - radius, out=np.full_like(top_hi, np.inf),
                      where=floor - radius > 0)
    suspect = upper >= np.max(top_lo / (floor + radius))
    _, lam_q = ta._screened_eigvalsh(state.q, suspect)
    _, lam_g = ta._screened_eigvalsh(state.g, suspect)
    lam = float((lam_q[:, -1] * (1.0 / lam_g[:, 0])).max())
    hmin = min(state.tf.lattice.h)
    return cfl * hmin * hmin / lam


def step(state: FlowState, dt: float, config: FlowConfig) -> FlowState:
    """One explicit step (classical RK4, or forward Euler when configured).

    Every stage increment is a discrete-exact form, so the step conserves
    closedness and periods to roundoff.  Raises StepRejected when any stage
    or the post-step state fails the positivity guard.
    """
    lat = state.tf.lattice
    order = config.stencil_order
    thr = config.degeneration_threshold
    c0 = state.tf.c
    try:
        k1 = rhs(state, order)
        if config.method == "euler":
            c_new = c0 + dt * k1
        else:
            k2 = evaluate_rhs(lat, c0 + 0.5 * dt * k1, order)
            k3 = evaluate_rhs(lat, c0 + 0.5 * dt * k2, order)
            k4 = evaluate_rhs(lat, c0 + dt * k3, order)
            c_new = c0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        new_state = FlowState(state.time + dt, gc.TripleField(lat, c_new),
                              base_periods=state.base_periods,
                              sample_points=state.sample_points)
        new_state.ensure_fields(thr)   # post-step positivity guard
    except NotPositive as exc:
        raise StepRejected(
            f"step from t={state.time:.6g} with dt={dt:.3e} left the positive "
            f"cone ({exc}); retry with dt <= {dt / 2:.3e}",
            suggested_dt=dt / 2.0) from exc
    return new_state


def draw_points(lat: gc.Lattice, k: int, seed: int) -> tuple:
    """``min(k, lat.num_points)`` distinct lattice indices, drawn from ``seed``;
    the flow's fiber samples and ``hsflow lift`` both draw them here."""
    rng = np.random.default_rng(seed)
    k = min(k, lat.num_points)
    flat = rng.choice(lat.num_points, size=k, replace=False) if k else []
    return tuple(tuple(int(v) for v in np.unravel_index(i, lat.shape)) for i in flat)


def dual_lift_torsion(state: FlowState, points, order: int = 4) -> float:
    """Max |torsion trace| of the dual-triple lift at ``points`` of a state.

    The dual triple sigma_i = (Q^-1)_ik w_k is not closed away from fixed
    points, so this exercises the lift on genuinely non-closed data; the
    trace still vanishes because the product under the star pairs nothing.
    """
    if not points:
        return 0.0
    from . import fiber_g2 as fg
    q, g, _ = state.ensure_fields()
    sigma = ta._product(ta.adj3(q), state.tf.c)
    dsig = gc.d(state.tf.lattice, sigma, 2, order)
    at = tuple(np.transpose(points))   # one index array per lattice axis
    trace = fg.torsion_trace(fg.build_phi(sigma[at]), fg.assemble_dphi(dsig[at]),
                             fg.metric7_block(ta.adj3(q[at]), g[at]))
    return float(np.abs(trace).max())


def diagnostics(state: FlowState, config: FlowConfig, step_index: int = 0,
                dt: float = 0.0) -> dict:
    """Named diagnostic values of a state (see DIAG_COLUMNS)."""
    lat = state.tf.lattice
    order = config.stencil_order
    q = state.ensure_fields(config.degeneration_threshold)[0]
    max_dw = state.keep(("max_dw", order), lambda: state.tf.max_dabs(order))
    det_dev = float(np.abs(ta.det3(q) - 1.0).max())
    if state.base_periods is not None:
        periods = state.keep("periods", state.tf.periods)
        drift = float(np.abs(periods - state.base_periods).max())
    else:
        drift = 0.0
    r = rhs(state, order)
    rhs_l2 = float(np.sqrt((r * r).sum() * lat.cell_volume))
    q = np.ascontiguousarray(q)   # grid-first in memory, so the means sum in the same order
    qbar = q.mean(axis=(0, 1, 2, 3))
    q_dev = float(np.sqrt(((q - qbar) ** 2).sum(axis=(-2, -1))).max())
    row = {
        "step": step_index,
        "time": state.time,
        "dt": dt,
        "max_dw": max_dw,
        "min_eig_Q": state.q_eig_min,
        "max_abs_detQ_minus_1": det_dev,
        "period_drift": drift,
        "rhs_l2": rhs_l2,
        "q_dev": q_dev,
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
    state = FlowState(0.0, tf)
    max_dw = state.keep(("max_dw", order), lambda: tf.max_dabs(order))
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
    lattices run in slabs on its threads (see :func:`evaluate_rhs`).
    """
    state = init_state(config, initial)
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
