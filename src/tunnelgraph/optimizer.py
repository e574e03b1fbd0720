"""Levenberg–Marquardt over pose-graph variables, solved by banded Cholesky.

Each iteration linearizes every edge in the tangent space at the current
states, assembles the damped normal equations over the free blocks (all
nodes except the gauge node, plus the landmark frame when observations
exist), solves them, and retracts with the exponential map.

Damping is multiplicative on the (clamped) diagonal.  The solve starts
as Gauss–Newton, at a damping of machine epsilon: below it ``mu * D``
cannot change the damped diagonal.  A trial that fails to lower the cost
raises the damping tenfold; an accepted one lowers it tenfold, down to
epsilon again (Madsen, Nielsen & Tingleff, *Methods for Non-Linear Least
Squares Problems*, 2004, §3.2).

Two tests stop the solve at the optimum.  Before a trial, a damped solve
whose model predicts a decrease at rounding level ends it, with no
retraction and no evaluation: at most ``ROUNDING_DECREASE`` times the
cost, plus what residuals one rounding unit in size would cost, which
also stops a start whose cost is itself rounding noise.  After an
accepted trial, a relative decrease of at most ``COST_TOLERANCE`` ends
it, and so does a step shorter than ``UPDATE_TOLERANCE``.

The node chain gives a block-tridiagonal Hessian with one extra
row/column coupling every observing node to the landmark frame.  The
landmark is eliminated by Schur complement, so the node Hessian alone is
factored, by banded Cholesky (LAPACK ``pbtrf`` through
``scipy.linalg.cholesky_banded``) in time linear in the node count.

Edges are evaluated by :func:`tunnelgraph.graph.evaluate`, once per trial;
its cost is ``graph.total_cost(graph, states, landmark, huber_delta)``.  The
accepted trial's evaluation is kept: the next linearization takes its
residuals, and the products its weights and IRLS factors.

Per iteration: observation targets and adjoints are computed once per
pole and gathered per sighting; the per-edge blocks J_a^T W J_b are batched
``matmul`` products of sqrt(W)-scaled Jacobians (exactly symmetric); and
the cell of every block entry in the band is computed once, so assembly
is one ``bincount`` of the values into the band.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

from . import graph as gmod
from .sync import NON_NEGATIVE, check_fields

COST_THRESHOLD = "cost-threshold"
UPDATE_THRESHOLD = "update-threshold"
MAX_ITERATIONS = "max-iterations"

EPS = float(np.finfo(float).eps)
COST_TOLERANCE = 1.0e-9  # relative cost decrease of an accepted trial
ROUNDING_DECREASE = 1.0e-12  # predicted decrease, relative to the cost
UPDATE_TOLERANCE = 1.0e-10  # step norm
DAMPING_INCREASE = 10.0  # after a rejected trial
DAMPING_DECREASE = 0.1  # after an accepted one, down to the floor
DAMPING_FLOOR = EPS  # also the start: Gauss–Newton first
DAMPING_CEILING = 1.0e8
FD_STEP = 1.0e-6


class ConditioningError(RuntimeError):
    """Normal equations unsolvable even at maximum damping."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass(frozen=True)
class SolverSettings:
    max_iterations: int = 100
    huber_delta: float = 0.0  # 0 keeps plain least squares

    def __post_init__(self):
        check_fields(
            self,
            max_iterations=(lambda v: v >= 1, "must be at least 1"),
            huber_delta=NON_NEGATIVE,
        )


@dataclass
class SolveStats:
    iterations: int
    initial_cost: float
    final_cost: float
    reason: str
    cost_trace: list = field(default_factory=list)
    # per iteration: accepted damping, rejected trials, step norm, gradient
    # inf-norm, gain ratio (None when the solve stopped before the trial), and
    # seconds in linearize, products, assemble, factor + solve and cost (all trials)
    per_iteration: list = field(default_factory=list)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# jacobian blocks over gathered edge arrays


def _between_blocks(group, r, a, b):
    """Jacobians in a and b of the residual ``r = group.between(meas, a, b)``."""
    jb = group.jr_inv(r)
    ja = -(jb @ group.adjoint(group.relative(b, a)))
    return ja, jb


def _numeric_blocks(group, residual, a, b, step):
    """Central-difference Jacobians of residual(a, b) in a and in b, under
    the right perturbations a * exp(delta) and b * exp(delta)."""
    steps = step * np.eye(group.tangent_dim)

    def jacobian(moved):  # moved(delta): the residual with one side perturbed
        return np.stack([(moved(e) - moved(-e)) / (2.0 * step) for e in steps], axis=-1)

    return (
        jacobian(lambda e: residual(group.retract(a, e), b)),
        jacobian(lambda e: residual(a, group.retract(b, e))),
    )


# ---------------------------------------------------------------------------
# banded assembly with cached index structure


class _Assembler:
    """Index bookkeeping built once per graph; only values change per iteration.

    The node-node Hessian ``A`` is held in LAPACK upper band storage,
    ``band[bw + r - c, c] = A[r, c]`` for ``r <= c`` with the diagonal in
    the last row.  ``bw`` is the largest column-minus-row offset among
    the kept upper-triangle entries; the odometry chain i -> i + 1 gives
    ``bw = 2d - 1``.  The landmark frame
    contributes one coupled block column ``B`` (stored dense, it has only
    ``d`` columns) and a ``d x d`` corner ``C``.  Keeping the landmark out
    of the band lets the solve eliminate it by Schur complement, so the
    band does not fill in when most nodes observe.
    """

    def __init__(self, graph):
        n = graph.node_count
        d = graph.group.tangent_dim
        self.d = d
        bid = np.arange(n, dtype=int)
        bid[graph.gauge_index] = -1
        bid[graph.gauge_index + 1 :] -= 1
        self.gauge_index = graph.gauge_index
        self.landmark_free = graph.obs_count > 0 and not graph.landmark_fixed
        self.node_dim = (n - 1) * d

        obs_bid = bid[graph.obs_node]
        oi, oj = bid[graph.odo_i], bid[graph.odo_j]
        offsets = np.arange(d)

        # row and column of every entry of the node-node products, in
        # assemble's order; the gauge node's are negative, and only the
        # upper triangle is kept, where the chain (oi < oj) puts every
        # odometry cross block J_i^T W J_j
        a = np.concatenate([oi, oi, oj, obs_bid])[:, None, None]
        b = np.concatenate([oi, oj, oj, obs_bid])[:, None, None]
        rows, cols = np.broadcast_arrays(a * d + offsets[:, None], b * d + offsets)
        rows, cols = rows.ravel(), cols.ravel()
        self.a_gather = np.flatnonzero((rows >= 0) & (rows <= cols))
        rows, cols = rows[self.a_gather], cols[self.a_gather]
        self.bw = int(np.max(cols - rows, initial=0))
        # column-major cells: LAPACK factors the band without a layout copy
        self.a_cells = cols * (self.bw + 1) + self.bw + rows - cols

        g_rows = (np.concatenate([oi, oj, obs_bid])[:, None] * d + offsets).ravel()
        self.g_gather = np.flatnonzero(g_rows >= 0)
        self.g_rows = g_rows[self.g_gather]
        # flat index into the (node_dim, d) block column B
        b_cells = (obs_bid[:, None] * d * d + np.arange(d * d)).ravel()
        self.b_gather = np.flatnonzero(b_cells >= 0)
        self.b_cells = b_cells[self.b_gather]

    def assemble(self, products, gvecs):
        """Returns (A band, B dense, C dense, g_nodes, g_landmark)."""
        blocks = ("oii", "oij", "ojj", "sii")
        vals = np.concatenate([products[k].ravel() for k in blocks])
        size = (self.bw + 1) * self.node_dim
        band = np.bincount(self.a_cells, vals[self.a_gather], minlength=size)
        band = band.reshape(self.node_dim, self.bw + 1).T
        gvals = np.concatenate([gvecs[k].ravel() for k in ("oi", "oj", "si")])
        g_nodes = np.bincount(self.g_rows, gvals[self.g_gather], minlength=self.node_dim)

        if self.landmark_free:
            b_vals = products["sil"].ravel()[self.b_gather]
            b_mat = np.bincount(self.b_cells, b_vals, minlength=self.node_dim * self.d)
            b_mat = b_mat.reshape(self.node_dim, self.d)
            c_mat = products["sll"].sum(axis=0)
            g_lm = gvecs["sl"].sum(axis=0)
        else:
            b_mat = np.zeros((self.node_dim, 0))
            c_mat = np.zeros((0, 0))
            g_lm = np.zeros(0)
        return band, b_mat, c_mat, g_nodes, g_lm

    def solve(self, band, b_mat, c_mat, g_nodes, g_lm, damping):
        """One damped solve: (step, predicted cost decrease), or None when the
        damped matrix is not positive definite or the step is not finite.
        ``step`` is the flat free-node step followed by the landmark step."""
        diag_c = np.diag(c_mat)
        floor = 1e-12 * max(float(band[-1].max()), float(diag_c.max(initial=0.0)), 1.0)
        scale = damping * np.maximum(np.concatenate([band[-1], diag_c]), floor)
        damped = band.copy(order="F")
        damped[-1] += scale[: self.node_dim]
        try:
            factor = linalg.cholesky_banded(damped, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        rhs = np.column_stack([g_nodes, b_mat])  # one pass, d + 1 columns
        x_y = linalg.cho_solve_banded((factor, False), rhs, check_finite=False)
        x0, y_mat = x_y[:, 0], x_y[:, 1:]
        schur = c_mat + np.diag(scale[self.node_dim :]) - b_mat.T @ y_mat
        try:
            delta_l = np.linalg.solve(schur, -g_lm + b_mat.T @ x0)
        except np.linalg.LinAlgError:
            return None
        step = np.concatenate([-x0 - y_mat @ delta_l, delta_l])
        if not np.all(np.isfinite(step)):
            return None
        # model decrease of sum r^T W r: h^T (mu D h - g) with g = J^T W r
        return step, float(step @ (scale * step - np.concatenate([g_nodes, g_lm])))

    def split(self, step):
        """Per-node steps (zero at the gauge) and the landmark step or None."""
        nodes = step[: self.node_dim].reshape(-1, self.d)
        nodes = np.insert(nodes, self.gauge_index, 0.0, axis=0)
        return nodes, step[self.node_dim :] if self.landmark_free else None


def _linearize(graph, states, landmark, ev):
    """Jacobian blocks of every edge at (states, landmark), from the
    residuals of ``ev``, the evaluation there."""
    group = graph.group
    ji_o, jj_o = _between_blocks(group, ev.r_odo, states[graph.odo_i], states[graph.odo_j])
    target = graph.pole_world_poses(landmark)[graph.obs_pole]
    ji_s, jt = _between_blocks(group, ev.r_obs, states[graph.obs_node], target)
    # landmark * exp(d) * pole = (landmark * pole) * exp(Ad(pole^-1) d)
    jl_s = jt @ group.adjoint(group.inverse(graph.template))[graph.obs_pole]
    return ji_o, jj_o, ji_s, jl_s


def _products(ev, jacobians):
    """Per-edge normal-equation blocks J_a^T W J_b and gradients J^T W r,
    with the residuals, weights and IRLS factors of evaluation ``ev``."""
    ji_o, jj_o, ji_s, jl_s = jacobians
    sw_odo = np.sqrt(ev.w_odo * ev.irls_odo[:, None])
    sw_obs = np.sqrt(ev.w_obs * ev.irls_obs[:, None])

    def scaled(jac, sw):
        # sqrt(W) J and its contiguous transpose: (sqrt(W) J)^T (sqrt(W) J)
        # sums the same products in the same order for (a, b) and (b, a),
        # so every block of A comes out exactly symmetric
        s = jac * sw[:, :, None]
        return s, np.ascontiguousarray(np.swapaxes(s, 1, 2))

    def times_r(s, sw, r):
        return np.einsum("eki,ek->ei", s, sw * r)

    si_o, ti_o = scaled(ji_o, sw_odo)
    sj_o, tj_o = scaled(jj_o, sw_odo)
    si_s, ti_s = scaled(ji_s, sw_obs)
    sl_s, tl_s = scaled(jl_s, sw_obs)
    products = {
        "oii": ti_o @ si_o,
        "oij": ti_o @ sj_o,
        "ojj": tj_o @ sj_o,
        "sii": ti_s @ si_s,
        "sil": ti_s @ sl_s,
        "sll": tl_s @ sl_s,
    }
    gvecs = {
        "oi": times_r(si_o, sw_odo, ev.r_odo),
        "oj": times_r(sj_o, sw_odo, ev.r_odo),
        "si": times_r(si_s, sw_obs, ev.r_obs),
        "sl": times_r(sl_s, sw_obs, ev.r_obs),
    }
    return products, gvecs


def optimize(graph, settings: SolverSettings = None, progress=None):
    """Run damped least squares; returns (solved graph copy, SolveStats).

    The gauge node's state is bit-identical in the result.  Raises
    ConditioningError when the normal equations stay unsolvable with
    damping escalated beyond the ceiling.  ``progress``, when given, is
    called with (iteration, record) as each iteration's record completes.
    """
    settings = settings or SolverSettings()
    states = graph.states.copy()
    landmark = graph.landmark.copy()
    gauge_state = states[graph.gauge_index].copy()
    assembler = _Assembler(graph)

    ev = gmod.evaluate(graph, states, landmark, settings.huber_delta)
    # what residuals one rounding unit in size would cost: a smaller
    # predicted decrease is rounding noise, even where the cost itself is
    noise_cost = EPS**2 * (ev.w_odo.sum() + ev.w_obs.sum())
    trace = [ev.cost]
    per_iteration = []
    damping = DAMPING_FLOOR
    reason = MAX_ITERATIONS
    iterations = 0

    for iteration in range(1, settings.max_iterations + 1):
        iterations = iteration
        record = {"rejected": 0, "solve_s": 0.0, "cost_s": 0.0}
        jacobians, record["linearize_s"] = _timed(_linearize, graph, states, landmark, ev)
        (products, gvecs), record["products_s"] = _timed(_products, ev, jacobians)
        system, record["assemble_s"] = _timed(assembler.assemble, products, gvecs)
        record["grad_inf"] = float(np.abs(np.concatenate(system[3:])).max(initial=0.0))

        while True:
            solution, seconds = _timed(assembler.solve, *system, damping)
            record["solve_s"] += seconds  # factor and solve, all trials
            if solution is not None:
                step, predicted = solution
                if predicted <= ROUNDING_DECREASE * ev.cost + noise_cost:
                    # no decrease a trial could show: stop where the solve stands,
                    # at a relative decrease of zero
                    step, cand_states, cand_lm, cand = None, states, landmark, ev
                    record["damping"] = damping
                    break
                cand_states, cand_lm = gmod.retract(
                    graph, states, landmark, *assembler.split(step)
                )
                cand_states[graph.gauge_index] = gauge_state
                cand, seconds = _timed(
                    gmod.evaluate, graph, cand_states, cand_lm, settings.huber_delta
                )
                record["cost_s"] += seconds
                if cand.cost <= ev.cost:
                    record["damping"] = damping
                    damping = max(damping * DAMPING_DECREASE, DAMPING_FLOOR)
                    break
            record["rejected"] += 1
            damping *= DAMPING_INCREASE
            if damping > DAMPING_CEILING:
                raise ConditioningError(
                    iteration, "normal equations unsolvable at maximum damping"
                )

        step_norm = 0.0 if step is None else float(np.linalg.norm(step))
        decrease = ev.cost - cand.cost
        record["step_norm"] = step_norm
        # None without a trial, not NaN: json.dump would write NaN, which is not JSON
        record["gain_ratio"] = None if step is None else decrease / predicted
        per_iteration.append(record)
        if progress is not None:
            progress(iteration, record)
        relative = decrease / ev.cost if ev.cost > 0.0 else 0.0
        states, landmark, ev = cand_states, cand_lm, cand
        trace.append(ev.cost)
        if relative <= COST_TOLERANCE:
            reason = COST_THRESHOLD
            break
        if step_norm < UPDATE_TOLERANCE:
            reason = UPDATE_THRESHOLD
            break

    stats = SolveStats(
        iterations=iterations,
        initial_cost=trace[0],
        final_cost=ev.cost,
        reason=reason,
        cost_trace=trace,
        per_iteration=per_iteration,
    )
    return graph.with_solution(states, landmark), stats


def check_jacobians(graph, probe_count: int = 100, seed: int = 0, step: float = FD_STEP):
    """Max |analytic - central difference| over randomly probed edges.

    States are randomized before probing so the comparison exercises
    generic operating points rather than the near-identity regime.
    """
    rng = np.random.default_rng(seed)
    group = graph.group
    d = group.tangent_dim
    n = graph.node_count

    # rotational spread stays well below pi so the log map is smooth at probes
    spread = np.array([0.5] * group.trans_dim + [0.25] * (d - group.trans_dim))
    node_delta = rng.uniform(-1.0, 1.0, (n, d)) * spread
    lm_delta = rng.uniform(-1.0, 1.0, d) * spread
    states, landmark = gmod.retract(
        graph, graph.states, graph.landmark, node_delta, lm_delta
    )

    total = graph.odo_count + graph.obs_count
    picks = rng.choice(total, size=min(probe_count, total), replace=False)
    odo_idx = picks[picks < graph.odo_count]
    obs_idx = picks[picks >= graph.odo_count] - graph.odo_count

    # the solver's own linearization against central differences of the
    # residuals, compared on the probes
    analytic = _linearize(graph, states, landmark, gmod.evaluate(graph, states, landmark))
    odometry, observation = gmod.residual_functions(graph)
    numeric = (
        *_numeric_blocks(group, odometry, states[graph.odo_i], states[graph.odo_j], step),
        *_numeric_blocks(group, observation, states[graph.obs_node], landmark, step),
    )
    rows = (odo_idx, odo_idx, obs_idx, obs_idx)
    return max(
        float(np.abs(a[k] - n[k]).max(initial=0.0)) for a, n, k in zip(analytic, numeric, rows)
    )

