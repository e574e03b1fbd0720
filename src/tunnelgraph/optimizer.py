"""Sparse Levenberg–Marquardt over pose-graph variables.

Each iteration linearizes every edge in the tangent space at the current
states, assembles the damped normal equations over the free blocks (all
nodes except the gauge node, plus the landmark frame when observations
exist), solves sparsely, and retracts with the exponential map.  Damping
is multiplicative on the (clamped) diagonal: steps that fail to lower
the cost raise it tenfold; accepted steps relax it.

The node chain gives a block-tridiagonal Hessian with one extra
row/column coupling every observing node to the landmark frame, so a
general sparse factorization stays near linear time in the node count.

Per iteration: observation targets and adjoints are computed once per
pole and gathered per sighting; the per-edge blocks J_a^T W J_b are batched
``matmul`` products of sqrt(W)-scaled Jacobians (exactly symmetric); and
the node Hessian's CSR pattern (sorted, duplicate-free) is built once, so
assembly only sums values into it by a precomputed gather order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import graph as gmod
from .sync import DataError

ANALYTIC = "analytic"
NUMERIC = "numeric"

COST_THRESHOLD = "cost-threshold"
UPDATE_THRESHOLD = "update-threshold"
MAX_ITERATIONS = "max-iterations"

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
    cost_tolerance: float = 1.0e-9  # relative cost decrease
    update_tolerance: float = 1.0e-10  # step norm
    initial_damping: float = 1.0e-6
    damping_increase: float = 10.0
    damping_decrease: float = 0.1
    jacobian_mode: str = ANALYTIC
    huber_delta: float = 0.0  # 0 keeps plain least squares

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DataError("max_iterations must be at least 1")
        if self.cost_tolerance <= 0.0 or self.update_tolerance <= 0.0:
            raise DataError("solver tolerances must be positive")
        if self.initial_damping <= 0.0:
            raise DataError("initial damping must be positive")
        if self.damping_increase <= 1.0 or not 0.0 < self.damping_decrease < 1.0:
            raise DataError("damping factors must move damping in both directions")
        if self.jacobian_mode not in (ANALYTIC, NUMERIC):
            raise DataError(f"unknown jacobian mode {self.jacobian_mode!r}")
        if self.huber_delta < 0.0:
            raise DataError("huber_delta must be non-negative")


@dataclass
class SolveStats:
    iterations: int
    initial_cost: float
    final_cost: float
    reason: str
    cost_trace: list = field(default_factory=list)
    # per iteration: accepted damping, rejected trials, step norm, and seconds
    # in linearize, products, assemble, factor + solve and cost (all trials)
    per_iteration: list = field(default_factory=list)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# residuals and jacobian blocks over gathered edge arrays


def _between_blocks(group, meas, a, b):
    """Residual ``group.between(meas, a, b)`` and its Jacobians in a and b."""
    r = group.between(meas, a, b)
    jb = group.jr_inv(r)
    ja = -(jb @ group.adjoint(group.relative(b, a)))
    return r, ja, jb


def _obs_blocks_analytic(group, meas, si, landmark, template, pole):
    """Observation blocks; targets and adjoints are computed once per pole."""
    target = group.compose(landmark, template)[pole]
    r, ji, jt = _between_blocks(group, meas, si, target)
    # landmark * exp(d) * pole = (landmark * pole) * exp(Ad(pole^-1) d)
    jl = jt @ group.adjoint(group.inverse(template))[pole]
    return r, ji, jl


def _central_difference(group, residual, x, step):
    """Jacobian of residual(x) under the right perturbation x * exp(delta)."""
    d = group.tangent_dim
    columns = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = step
        plus = residual(group.retract(x, e))
        minus = residual(group.retract(x, -e))
        columns.append((plus - minus) / (2.0 * step))
    return np.stack(columns, axis=-1)


def _odo_blocks_numeric(group, meas, si, sj, step=FD_STEP):
    r = group.between(meas, si, sj)
    ji = _central_difference(group, lambda x: group.between(meas, x, sj), si, step)
    jj = _central_difference(group, lambda x: group.between(meas, si, x), sj, step)
    return r, ji, jj


def _obs_blocks_numeric(group, meas, si, landmark, template, pole, step=FD_STEP):
    def residual(s, lm):
        return group.between(meas, s, group.compose(lm, template)[pole])

    r = residual(si, landmark)
    ji = _central_difference(group, lambda x: residual(x, landmark), si, step)
    jl = _central_difference(group, lambda x: residual(si, x), landmark, step)
    return r, ji, jl


def _weight_vectors(graph):
    """Per-component information weights, (E, d) and (M, d)."""
    k = graph.group.trans_dim
    n_rot = graph.group.tangent_dim - k
    obs_rot = np.zeros_like(graph.obs_w_rot) if graph.position_only else graph.obs_w_rot
    odo = np.stack([graph.odo_w_trans] * k + [graph.odo_w_rot] * n_rot, axis=-1)
    obs = np.stack([graph.obs_w_trans] * k + [obs_rot] * n_rot, axis=-1)
    return odo, obs


def _robust_costs(sq, delta):
    """Huber-composed edge costs and IRLS weight factors."""
    if delta <= 0.0:
        return sq, np.ones_like(sq)
    cut = delta * delta
    root = np.sqrt(np.maximum(sq, 1e-300))
    cost = np.where(sq <= cut, sq, 2.0 * delta * root - cut)
    factor = np.where(sq <= cut, 1.0, delta / root)
    return cost, factor


def _total_cost(graph, states, landmark, huber_delta):
    odo, obs = gmod.per_edge_costs(graph, states, landmark)
    c_odo, _ = _robust_costs(odo, huber_delta)
    c_obs, _ = _robust_costs(obs, huber_delta)
    return float(np.sum(c_odo)) + float(np.sum(c_obs))


# ---------------------------------------------------------------------------
# sparse assembly with cached index structure


class _Assembler:
    """Fixed sparsity bookkeeping; only the numeric values change per iteration.

    The node-node Hessian ``A`` is block-tridiagonal plus scattered
    observation diagonal blocks; the landmark frame contributes one
    coupled block column ``B`` (stored dense, it has only ``d`` columns)
    and a ``d x d`` corner ``C``.  Keeping the landmark out of the sparse
    matrix lets the solve eliminate it by Schur complement, which avoids
    the fill-in a blind factorization suffers when most nodes observe.
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
        self.shape = (self.node_dim, self.node_dim)

        obs_bid = bid[graph.obs_node]
        oi, oj = bid[graph.odo_i], bid[graph.odo_j]
        offsets = np.arange(d)

        # block row and column of every entry of the node-node products, in
        # assemble's order; the gauge node's blocks are negative and left out
        a = np.concatenate([oi, oi, oj, oj, obs_bid])[:, None, None]
        b = np.concatenate([oi, oj, oi, oj, obs_bid])[:, None, None]
        rows, cols = np.broadcast_arrays(a * d + offsets[:, None], b * d + offsets)
        free = np.broadcast_to((a >= 0) & (b >= 0), rows.shape).ravel()
        keys = rows.ravel()[free] * self.node_dim + cols.ravel()[free]
        order = np.argsort(keys, kind="stable")
        self.a_gather = np.flatnonzero(free)[order]
        keys = keys[order]
        self.a_starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        key_rows, key_cols = np.divmod(keys[self.a_starts], self.node_dim)
        indptr = np.searchsorted(key_rows, np.arange(self.node_dim + 1))
        # scipy picks the index dtype once; every iteration reuses these arrays
        pattern = sp.csr_matrix((np.zeros(key_cols.size), key_cols, indptr), shape=self.shape)
        self.indices, self.indptr = pattern.indices, pattern.indptr

        g_rows = (np.concatenate([oi, oj, obs_bid])[:, None] * d + offsets).ravel()
        self.g_gather = np.flatnonzero(g_rows >= 0)
        self.g_rows = g_rows[self.g_gather]
        # flat index into the (node_dim, d) block column B
        b_cells = (obs_bid[:, None] * d * d + np.arange(d * d)).ravel()
        self.b_gather = np.flatnonzero(b_cells >= 0)
        self.b_cells = b_cells[self.b_gather]

    def assemble(self, products, gvecs):
        """Returns (A sparse, B dense, C dense, g_nodes, g_landmark)."""
        blocks = ("oii", "oij", "oji", "ojj", "sii")
        vals = np.concatenate([products[k].ravel() for k in blocks])
        data = np.add.reduceat(vals[self.a_gather], self.a_starts)
        a_mat = sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
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
        return a_mat, b_mat, c_mat, g_nodes, g_lm

    def solve(self, a_mat, b_mat, c_mat, g_nodes, g_lm, damping):
        """One damped solve; returns (node delta flat, landmark delta) or None."""
        diag_a = a_mat.diagonal()
        diag_c = np.diag(c_mat) if self.landmark_free else np.zeros(0)
        floor = 1e-12 * max(float(diag_a.max()), float(diag_c.max(initial=0.0)), 1.0)
        a_damped = a_mat + sp.diags(damping * np.maximum(diag_a, floor))
        try:
            lu = spla.splu(a_damped.tocsc())
        except RuntimeError:
            return None
        if not self.landmark_free:
            delta_n = lu.solve(-g_nodes)
            if not np.all(np.isfinite(delta_n)):
                return None
            return delta_n, None
        c_damped = c_mat + np.diag(damping * np.maximum(diag_c, floor))
        x_y = lu.solve(np.column_stack([g_nodes, b_mat]))  # one pass, d + 1 columns
        x0, y_mat = x_y[:, 0], x_y[:, 1:]
        schur = c_damped - b_mat.T @ y_mat
        try:
            delta_l = np.linalg.solve(schur, -g_lm + b_mat.T @ x0)
        except np.linalg.LinAlgError:
            return None
        delta_n = -x0 - y_mat @ delta_l
        if not (np.all(np.isfinite(delta_n)) and np.all(np.isfinite(delta_l))):
            return None
        return delta_n, delta_l

    def node_delta(self, delta_n):
        """Per-node steps from the flat free-node solution; zero at the gauge."""
        return np.insert(delta_n.reshape(-1, self.d), self.gauge_index, 0.0, axis=0)


def _linearize(graph, states, landmark, numeric: bool):
    group = graph.group
    odo_blocks = _odo_blocks_numeric if numeric else _between_blocks
    obs_blocks = _obs_blocks_numeric if numeric else _obs_blocks_analytic
    r_odo, ji_o, jj_o = odo_blocks(
        group, graph.odo_meas, states[graph.odo_i], states[graph.odo_j]
    )
    r_obs, ji_s, jl_s = obs_blocks(
        group, graph.obs_meas, states[graph.obs_node], landmark,
        graph.template, graph.obs_pole,
    )
    return r_odo, ji_o, jj_o, r_obs, ji_s, jl_s


def _products(graph, lin, huber_delta):
    """Per-edge normal-equation blocks J_a^T W J_b and gradients J^T W r."""
    r_odo, ji_o, jj_o, r_obs, ji_s, jl_s = lin
    w_odo, w_obs = _weight_vectors(graph)
    if huber_delta > 0.0:
        sq_odo = np.einsum("ek,ek->e", w_odo, r_odo**2)
        sq_obs = np.einsum("ek,ek->e", w_obs, r_obs**2)
        _, f_odo = _robust_costs(sq_odo, huber_delta)
        _, f_obs = _robust_costs(sq_obs, huber_delta)
        w_odo = w_odo * f_odo[:, None]
        w_obs = w_obs * f_obs[:, None]
    sw_odo, sw_obs = np.sqrt(w_odo), np.sqrt(w_obs)

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
    oij = ti_o @ sj_o
    products = {
        "oii": ti_o @ si_o,
        "oij": oij,
        "oji": np.swapaxes(oij, 1, 2),
        "ojj": tj_o @ sj_o,
        "sii": ti_s @ si_s,
        "sil": ti_s @ sl_s,
        "sll": tl_s @ sl_s,
    }
    gvecs = {
        "oi": times_r(si_o, sw_odo, r_odo),
        "oj": times_r(sj_o, sw_odo, r_odo),
        "si": times_r(si_s, sw_obs, r_obs),
        "sl": times_r(sl_s, sw_obs, r_obs),
    }
    return products, gvecs


def optimize(graph, settings: SolverSettings = None):
    """Run damped least squares; returns (solved graph copy, SolveStats).

    The gauge node's state is bit-identical in the result.  Raises
    ConditioningError when the normal equations stay unsolvable with
    damping escalated beyond the ceiling.
    """
    settings = settings or SolverSettings()
    if not gmod.is_connected(graph):
        raise DataError("cannot optimize a disconnected graph")

    numeric = settings.jacobian_mode == NUMERIC
    states = graph.states.copy()
    landmark = graph.landmark.copy()
    gauge_state = states[graph.gauge_index].copy()
    assembler = _Assembler(graph)

    cost = _total_cost(graph, states, landmark, settings.huber_delta)
    trace = [cost]
    per_iteration = []
    damping = settings.initial_damping
    reason = MAX_ITERATIONS
    iterations = 0

    for iteration in range(1, settings.max_iterations + 1):
        iterations = iteration
        record = {"rejected": 0, "solve_s": 0.0, "cost_s": 0.0}
        lin, record["linearize_s"] = _timed(_linearize, graph, states, landmark, numeric)
        (products, gvecs), record["products_s"] = _timed(
            _products, graph, lin, settings.huber_delta
        )
        system, record["assemble_s"] = _timed(assembler.assemble, products, gvecs)

        while True:
            solution, seconds = _timed(assembler.solve, *system, damping)
            record["solve_s"] += seconds  # factor and solve, all trials
            if solution is not None:
                delta_n, delta_l = solution
                cand_states, cand_lm = gmod.retract(
                    graph, states, landmark, assembler.node_delta(delta_n), delta_l
                )
                cand_states[graph.gauge_index] = gauge_state
                cand_cost, seconds = _timed(
                    _total_cost, graph, cand_states, cand_lm, settings.huber_delta
                )
                record["cost_s"] += seconds
                if cand_cost <= cost:
                    record["damping"] = damping
                    damping = max(damping * settings.damping_decrease, 1e-12)
                    break
            record["rejected"] += 1
            damping *= settings.damping_increase
            if damping > DAMPING_CEILING:
                raise ConditioningError(
                    iteration, "normal equations unsolvable at maximum damping"
                )

        step_norm = float(np.linalg.norm(delta_n))
        if delta_l is not None:
            step_norm = float(np.hypot(step_norm, np.linalg.norm(delta_l)))
        record["step_norm"] = step_norm
        per_iteration.append(record)
        decrease = cost - cand_cost
        states, landmark = cand_states, cand_lm
        trace.append(cand_cost)
        relative = decrease / cost if cost > 0.0 else 0.0
        cost = cand_cost
        if relative <= settings.cost_tolerance:
            reason = COST_THRESHOLD
            break
        if step_norm < settings.update_tolerance:
            reason = UPDATE_THRESHOLD
            break

    stats = SolveStats(
        iterations=iterations,
        initial_cost=trace[0],
        final_cost=cost,
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

    worst = 0.0
    if odo_idx.size:
        args = (
            group, graph.odo_meas[odo_idx],
            states[graph.odo_i[odo_idx]], states[graph.odo_j[odo_idx]],
        )
        _, ji_a, jj_a = _between_blocks(*args)
        _, ji_n, jj_n = _odo_blocks_numeric(*args, step)
        worst = max(worst, float(np.abs(ji_a - ji_n).max()), float(np.abs(jj_a - jj_n).max()))
    if obs_idx.size:
        args = (
            group, graph.obs_meas[obs_idx], states[graph.obs_node[obs_idx]],
            landmark, graph.template, graph.obs_pole[obs_idx],
        )
        _, ji_a, jl_a = _obs_blocks_analytic(*args)
        _, ji_n, jl_n = _obs_blocks_numeric(*args, step)
        worst = max(worst, float(np.abs(ji_a - ji_n).max()), float(np.abs(jl_a - jl_n).max()))
    return worst
