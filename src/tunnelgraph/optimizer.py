"""Levenberg–Marquardt over pose-graph variables, solved by block cyclic reduction.

Each iteration linearizes every edge in the tangent space at the current
states, assembles the damped normal equations over the moving nodes,
solves them for a step, and tries it.  The cost does not change when
every pose, landmark frame included, moves by one rigid motion, so a
step holds one frame fixed: the landmark frame when it is free and
observed, and node 0 otherwise.  A trial (:func:`_trial`) retracts the
moving nodes with the exponential map; if node 0 moved, it moves all
poses and the landmark by the rigid motion that puts node 0 back, so
node 0, the gauge, keeps its state bit for bit (Triggs et al., "Bundle
Adjustment — A Modern Synthesis", 2000, §9).  It then evaluates the
edges, and it is accepted if the cost did not rise.  Damping is
multiplicative on the (clamped) diagonal, and :func:`_damping` alone
moves it: tenfold up after a rejected trial or a damped matrix that is
not positive definite, to a ceiling, and tenfold down after an accepted
one, to a floor of machine epsilon, below which ``mu * D`` cannot change
the damped diagonal.  The solve starts at the floor, as Gauss–Newton
(Madsen, Nielsen & Tingleff, *Methods for Non-Linear Least Squares
Problems*, 2004, §3.2).

Two tests stop the solve at the optimum.  Before a trial, a damped solve
whose model predicts a decrease at rounding level ends it, with no
retraction and no evaluation: at most ``ROUNDING_DECREASE`` times the
cost, plus what residuals one rounding unit in size would cost, which
also stops a start whose cost is itself rounding noise.  After an
accepted trial, a relative decrease of at most ``COST_TOLERANCE`` ends
it, and so does a step shorter than ``UPDATE_TOLERANCE``.

With the landmark frame held, the node chain gives a symmetric positive
definite block-tridiagonal Hessian with d x d blocks, d = 3 or 6.  Block
cyclic reduction solves it in numpy alone, in time linear in the node
count: each of about log2(N) + 1 levels eliminates the even nodes by
batched block Cholesky and Schur updates on whole component columns,
down to a level of one node, which leaves none (Buzbee, Golub & Nielson,
SIAM J. Numer. Anal. 7, 1970; Heller, SIAM J. Numer. Anal. 13, 1976).
A pivot that is not positive, at any level, marks a damped matrix that
is not positive definite, and the damping rises.

What a solve keeps fixed about its edges is built once, when it starts:
:class:`tunnelgraph.graph.Edges` holds the inverted measurements, the
observing nodes and the adjoint Ad(P^-1) of every template pole.  Edges
are evaluated on it once per trial; its cost is
``graph.total_cost(graph, states, landmark, huber_delta)``.  The accepted
trial's evaluation is kept: the next linearization takes its residuals
and odometry transforms, and the products its per-edge weights, which
carry the Huber kernel's factors.

Linearizing forms the Jacobian blocks as the group's factors, and the
products are formed from the factors by the group's ``edge_normals``
and ``run_normals`` (:class:`tunnelgraph.geometry.Group`).
A planar block is M(a, b, e, f) = [[a, -b, e], [b, a, f], [0, 0, 1]],
carried as its four columns, so SE2 forms every product in closed form
without a 3 x 3 matrix; SE3 forms them by batched 6 x 6 matrix products.
Nothing here branches on the group.  A sighting's node Jacobian is its
landmark Jacobian times one adjoint per observing node
(:func:`_sighting_jacobians`), so the observation products are summed
over each node's run of sightings before that adjoint is applied.  The
chain is formed per slab (``Edges.slabs``, at most ``graph.SLAB_NODES``
observing nodes, never splitting a node's run) and written straight into
the per-node blocks, so no (M, d, d) array over the M sightings exists.
An iteration's blocks are released once assembled, and its system once
the trial is decided, so the next iteration builds its own with none of
them alive.  The planar blocks are written component-major (each entry's
column over the edges or nodes contiguous), assembly sums each node's
diagonal block into a component-major array and its gradient from the
chain, and the reduction reads the blocks and each node's coupling to its
successor component-major; it adds the damping as its first level copies
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral

import numpy as np

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
            max_iterations=(
                lambda v: isinstance(v, Integral) and v >= 1, "must be an integer of at least 1"
            ),
            huber_delta=NON_NEGATIVE,
        )


@dataclass
class SolveStats:
    reason: str
    cost_trace: list  # the cost at the start and after each iteration
    # per iteration: accepted damping, rejected trials, step norm and gradient
    # inf-norm over the moving nodes, gain ratio (None when the solve stopped
    # before the trial), and seconds in linearize, products, assemble,
    # factor + solve and cost (all trials: retraction and evaluation)
    per_iteration: list

    @property
    def iterations(self) -> int:
        return len(self.per_iteration)

    @property
    def initial_cost(self) -> float:
        return self.cost_trace[0]

    @property
    def final_cost(self) -> float:
        return self.cost_trace[-1]


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# jacobian blocks


def _numeric_blocks(group, residual, a, b):
    """Central-difference Jacobians of residual(a, b) in a and in b, under
    the right perturbations a * exp(delta) and b * exp(delta)."""
    steps = FD_STEP * np.eye(group.tangent_dim)

    def jacobian(moved):  # moved(delta): the residual with one side perturbed
        return np.stack([(moved(e) - moved(-e)) / (2.0 * FD_STEP) for e in steps], axis=-1)

    return (
        jacobian(lambda e: residual(group.retract(a, e), b)[0]),
        jacobian(lambda e: residual(a, group.retract(b, e))[0]),
    )


def _linearize(edges, ev):
    """Factors of the Jacobian blocks of every odometry edge, from ``ev``,
    the evaluation at the current states: J_j = Jr^-1(r), and -J_i =
    J_j Ad(rel^-1), with rel = s_i^-1 s_j.  Returns (-J_i, J_j)."""
    group = edges.graph.group
    jj_o = group.jr_inv_factor(ev.r_odo)
    return group.factor_product(jj_o, group.adjoint_factor(group.inverse(ev.rel_odo))), jj_o


def _products(edges, ev, jacobians):
    """Normal-equation blocks J_a^T W J_b and gradients J^T W r of every
    odometry edge, with the residuals and weights of ``ev``."""
    blocks = edges.graph.group.edge_normals(*jacobians, *ev.w_odo, ev.r_odo)
    return dict(zip(("oii", "oij", "ojj", "oi", "oj"), blocks))


def _sighting_jacobians(edges, states, landmark, ev, slab):
    """Factors of the landmark blocks J_l of the sightings of ``slab``, and
    of the adjoint G of each of its observing nodes.

    A sighting of pole P from node s under the landmark frame L measures
    T = s^-1 L P, and Ad(T^-1) = Ad(P^-1) Ad(L^-1 s): its landmark block is
    J_l = Jr^-1(r) Ad(P^-1), and its node block -J_l G, where the adjoint
    G = Ad(L^-1 s) is one per observing node."""
    group = edges.graph.group
    nodes, sightings = slab
    # landmark * exp(d) * pole = (landmark * pole) * exp(Ad(pole^-1) d)
    poles = group.take(edges.pole_adjoint, edges.graph.obs_pole[sightings])
    jl_s = group.factor_product(group.jr_inv_factor(ev.r_obs[sightings]), poles)
    observing = np.take(states, edges.observed[nodes], axis=0)
    return jl_s, group.adjoint_factor(group.relative(landmark, observing))


def _sighting_products(edges, ev, slab, jacobians, sii, si):
    """Writes the node block G^T S G and the gradient -G^T h of each
    observing node of ``slab`` into its rows of ``sii`` and ``si``.  A
    sighting adds S = J_l^T W J_l and h = J_l^T W r, summed over its
    node's run of sightings before the node's adjoint is applied."""
    jl_s, adj = jacobians
    nodes, sightings = slab
    w_obs = [w[sightings] for w in ev.w_obs]
    runs = edges.first[nodes] - sightings.start
    sii[nodes], si[nodes] = edges.graph.group.run_normals(
        jl_s, *w_obs, ev.r_obs[sightings], runs, adj
    )


def _blocks(edges, states, landmark, ev):
    """Every normal-equation block at (states, landmark), where ``ev`` is
    the evaluation: per odometry edge, and ``sii``/``si`` per observing
    node, formed slab by slab (``edges.slabs``) so that no per-sighting
    array outlives its slab.  Returns (blocks, seconds forming the
    Jacobian factors, seconds forming the products), each summed over the
    slabs."""
    jacobians, linearize_s = _timed(_linearize, edges, ev)
    blocks, products_s = _timed(_products, edges, ev, jacobians)
    del jacobians
    k, d = edges.observed.size, edges.graph.group.tangent_dim
    sii = blocks["sii"] = np.moveaxis(np.empty((d, d, k)), -1, 0)  # stored as _assemble reads it
    si = blocks["si"] = np.empty((k, d))
    for slab in edges.slabs:
        jacobians, seconds = _timed(_sighting_jacobians, edges, states, landmark, ev, slab)
        linearize_s += seconds
        products_s += _timed(_sighting_products, edges, ev, slab, jacobians, sii, si)[1]
    return blocks, linearize_s, products_s


# ---------------------------------------------------------------------------
# block-tridiagonal assembly and solve


def _assemble(edges, start, blocks):
    """The damped normal equations' matrix and gradient over the moving
    nodes: ((diag, upper), gradient), the gradient flat and node-major.
    It empties ``blocks``, releasing each block once it is summed.

    A step holds one frame fixed: the landmark frame when it is free and
    observed, so that every node from ``start = 0`` moves, and node 0
    otherwise (``start = 1``).  The landmark is never a variable, and the
    system is the node-node Hessian ``A`` of the m moving nodes alone.  The
    chain couples each node to its successor only, so ``A`` is block
    tridiagonal with d x d blocks, held component-major: ``diag[:, :, k]``
    is the block A[k, k] and ``upper[:, :, k]`` the block A[k, k + 1].
    """
    n, d = edges.graph.node_count, edges.graph.group.tangent_dim

    def component_major(name):  # a (k, d, d) block array as (d, d, k)
        return np.moveaxis(blocks.pop(name), 0, -1)

    diag = np.zeros((d, d, n))
    diag[:, :, :-1] = component_major("oii")
    diag[:, :, 1:] += component_major("ojj")
    # entry by entry: a scatter along the last axis of a (d, d, n) array is slower
    for entry, summed in zip(diag.reshape(d * d, n), component_major("sii").reshape(d * d, -1)):
        entry[edges.observed] += summed
    grad = np.zeros((n, d))
    grad[:-1] = blocks.pop("oi")
    grad[1:] += blocks.pop("oj")
    grad[edges.observed] += blocks.pop("si")
    matrix = diag[:, :, start:], component_major("oij")[:, :, start:]
    return matrix, grad[start:].ravel()


def _solve(matrix, grad, damping):
    """One damped solve: (flat step of the moving nodes, predicted cost
    decrease), or None when the damped matrix is not positive definite or
    the step is not finite.  The damping is added to the diagonal as the
    reduction copies it, so ``matrix`` is only read."""
    diag, upper = matrix
    d = diag.shape[0]
    pivots = diag[np.arange(d), np.arange(d)]  # (d, m), the diagonal entries
    floor = 1e-12 * max(float(pivots.max()), 1.0)
    scale = np.maximum(pivots, floor, out=pivots)
    scale *= damping
    with np.errstate(invalid="ignore", divide="ignore"):  # a bad pivot returns None
        x = _block_cyclic_reduction(diag, upper, -grad.reshape(-1, d).T, scale)
    if x is None or not np.all(np.isfinite(x)):
        return None
    step = x.T.ravel()
    # model decrease of sum r^T W r: h^T (mu D h - g) with g = J^T W r
    return step, float(step @ (scale.T.ravel() * step - grad))


def _block_cyclic_reduction(diag, upper, rhs, shift):
    """x, (d, m), with A x = rhs for the block-tridiagonal A of ``diag``
    (d, d, m) and ``upper`` (d, d, m - 1), with ``shift`` (d, m) added to
    the diagonal of each block; ``rhs`` is (d, m).  Returns None when a
    pivot is not positive, so A is not positive definite.  The first level
    adds the shift as it copies the blocks, so ``diag`` is only read.

    Each level eliminates the even nodes, down to a level of one node,
    which leaves no node.  One sweep over the components factors each even
    node's block, D = R^T R, and solves R^T [X | Y | z] = [U_prev^T |
    U_next | b] with it, U_prev and U_next coupling the node to its odd
    neighbours (zero where node 0 has none before it, or the last node
    none after it).  Their Schur complement is block tridiagonal over the
    odd nodes: the previous neighbour takes D -= X^T X and b -= X^T z, the
    next one D -= Y^T Y and b -= Y^T z, and the two are coupled by -X^T Y.
    Back-substitution then starts from the empty solution and solves
    R x = z - X x_prev - Y x_next for each even node.  The d x d algebra
    runs on whole component columns, so a level costs a fixed number of
    numpy calls (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970;
    Heller, SIAM J. Numer. Anal. 13, 1976).  On a symmetric matrix this is
    Cholesky in the even-odd order of the nodes, so every pivot of a
    positive definite one is positive.
    """
    d = diag.shape[0]
    diagonal = np.arange(d)
    levels = []
    while diag.shape[-1]:
        m = diag.shape[-1]
        p, q = m - m // 2, m // 2  # even and odd nodes; q even nodes have a successor
        w = np.empty((d, 3 * d + 1, p))  # [D | U_prev^T | U_next | b], becomes [R | X | Y | z]
        w[:, :d] = diag[:, :, 0::2]
        w[:, d : 2 * d, 0] = 0.0  # node 0 has no predecessor
        w[:, d : 2 * d, 1:] = upper[:, :, 1::2].transpose(1, 0, 2)
        w[:, 2 * d : 3 * d, :q] = upper[:, :, 0::2]
        w[:, 2 * d : 3 * d, q:] = 0.0  # the last even node may have no successor
        w[:, 3 * d] = rhs[:, 0::2]
        # the odd nodes' rows, which become the reduced system; this level's
        # system is then released, and so is each Schur product once applied
        odd_diag, odd_rhs = diag[:, :, 1::2].copy(), rhs[:, 1::2].copy()
        if shift is not None:
            w[diagonal, diagonal] += shift[:, 0::2]
            odd_diag[diagonal, diagonal] += shift[:, 1::2]
            shift = None
        del diag, upper, rhs
        for j in range(d):
            if j:
                w[j, j:] -= np.einsum("lk,lik->ik", w[:j, j], w[:j, j:])
            w[j, j:] /= np.sqrt(w[j, j])
        if not np.all(w[diagonal, diagonal] > 0.0):
            return None
        # the products run over every even node, the zero couplings included:
        # whole columns are faster than ones sliced off by one node
        gx = np.einsum("lik,ljk->ijk", w[:, d : 2 * d], w[:, d:])  # X^T [X | Y | z]
        odd_diag[:, :, : p - 1] -= gx[:, :d, 1:]
        odd_rhs[:, : p - 1] -= gx[:, 2 * d, 1:]
        upper = np.negative(gx[:, d : 2 * d, 1:q])
        del gx
        gy = np.einsum("lik,ljk->ijk", w[:, 2 * d : 3 * d], w[:, 2 * d :])
        odd_diag -= gy[:, :d, :q]
        odd_rhs -= gy[:, d, :q]
        del gy
        levels.append(w)
        diag, rhs = odd_diag, odd_rhs
    x = np.empty((d, 0))
    for w in reversed(levels):
        p, q = w.shape[-1], x.shape[-1]
        full = np.empty((d, p + q))
        full[:, 1::2] = x
        even = full[:, 0::2]
        even[:] = w[:, 3 * d]
        even[:, 1:] -= np.einsum("ljk,jk->lk", w[:, d : 2 * d, 1:], x[:, : p - 1])
        even[:, :q] -= np.einsum("ljk,jk->lk", w[:, 2 * d : 3 * d, :q], x)
        for j in reversed(range(d)):
            if j < d - 1:
                even[j] -= np.einsum("lk,lk->k", w[j, j + 1 : d], even[j + 1 :])
            even[j] /= w[j, j]
        x = full
    return x


def _trial(edges, start, states, landmark, step, huber_delta):
    """(states, landmark, evaluation) after ``step``, the flat step of the
    nodes from ``start`` on.  With ``start = 0`` every pose and the
    landmark then move by the rigid motion that puts node 0 back, so node
    0 keeps its state bit for bit.  ``states`` is not changed."""
    group = edges.graph.group
    moved = states.copy()
    moved[start:] = group.retract(states[start:], step.reshape(-1, group.tangent_dim))
    if start == 0:
        shift = group.compose(states[0], group.inverse(moved[0]))
        moved = group.compose(shift, moved)
        moved[0] = states[0]  # the gauge, bit for bit
        landmark = group.compose(shift, landmark)
    return moved, landmark, edges.evaluate(moved, landmark, huber_delta)


def _damping(damping, accepted, iteration):
    """The damping after a trial: a tenth after an accepted one, down to
    the floor, and tenfold after a rejected one.  Raises ConditioningError
    at ``iteration`` past the ceiling."""
    if accepted:
        return max(damping * DAMPING_DECREASE, DAMPING_FLOOR)
    if damping * DAMPING_INCREASE > DAMPING_CEILING:
        raise ConditioningError(iteration, "normal equations unsolvable at maximum damping")
    return damping * DAMPING_INCREASE


def optimize(graph, settings: SolverSettings = None, progress=None):
    """Run damped least squares; returns (solved graph copy, SolveStats).

    Node 0, the gauge, keeps its state bit for bit.  Raises
    ConditioningError when the normal equations stay unsolvable with
    damping escalated beyond the ceiling.  ``progress``, when given, is
    called with (iteration, record) as each iteration's record completes.
    """
    settings = settings or SolverSettings()
    states = graph.states.copy()
    landmark = graph.landmark.copy()
    huber_delta = settings.huber_delta
    edges = gmod.Edges(graph)
    start = int(graph.landmark_fixed or graph.unconstrained)

    ev = edges.evaluate(states, landmark, huber_delta)
    # what residuals one rounding unit in size would cost: a smaller
    # predicted decrease is rounding noise, even where the cost itself is
    k, d = graph.group.trans_dim, graph.group.tangent_dim
    noise_cost = EPS**2 * (
        k * (graph.odo_w_trans.sum() + graph.obs_w_trans.sum())
        + (d - k) * (graph.odo_w_rot.sum() + graph.obs_w_rot.sum())
    )
    trace = [ev.cost]
    per_iteration = []
    damping = DAMPING_FLOOR
    reason = MAX_ITERATIONS

    for iteration in range(1, settings.max_iterations + 1):
        record = {"rejected": 0, "solve_s": 0.0, "cost_s": 0.0}
        blocks, record["linearize_s"], record["products_s"] = _blocks(edges, states, landmark, ev)
        system, record["assemble_s"] = _timed(_assemble, edges, start, blocks)
        del blocks  # released before the next iteration builds its own
        record["grad_inf"] = float(np.abs(system[1]).max(initial=0.0))

        while True:
            trial = states, landmark, ev  # where the iteration ends unless a trial is accepted
            solution, seconds = _timed(_solve, *system, damping)
            record["solve_s"] += seconds  # factor and solve, all trials
            if solution is not None:
                step, predicted = solution
                if predicted <= ROUNDING_DECREASE * ev.cost + noise_cost:
                    # no decrease a trial could show: stop where the solve stands,
                    # at a relative decrease of zero
                    step = None
                    break
                trial, seconds = _timed(_trial, edges, start, states, landmark, step, huber_delta)
                record["cost_s"] += seconds
                if trial[2].cost <= ev.cost:
                    break
            record["rejected"] += 1
            damping = _damping(damping, False, iteration)

        del system, solution  # the trial is decided
        record["damping"] = damping
        if step is not None:
            damping = _damping(damping, True, iteration)
        step_norm = 0.0 if step is None else float(np.linalg.norm(step))
        decrease = ev.cost - trial[2].cost
        record["step_norm"] = step_norm
        # None without a trial, not NaN: json.dump would write NaN, which is not JSON
        record["gain_ratio"] = None if step is None else decrease / predicted
        per_iteration.append(record)
        if progress is not None:
            progress(iteration, record)
        relative = decrease / ev.cost if ev.cost > 0.0 else 0.0
        states, landmark, ev = trial
        trace.append(ev.cost)
        if relative <= COST_TOLERANCE:
            reason = COST_THRESHOLD
            break
        if step_norm < UPDATE_TOLERANCE:
            reason = UPDATE_THRESHOLD
            break

    stats = SolveStats(reason, trace, per_iteration)
    return replace(graph, states=states, landmark=landmark), stats


def check_jacobians(graph, probe_count: int = 100):
    """Max |analytic - central difference| over randomly probed edges.

    States are randomized before probing so the comparison exercises
    generic operating points rather than the near-identity regime.
    """
    rng = np.random.default_rng(0)
    group = graph.group
    d = group.tangent_dim
    n = graph.node_count

    # rotational spread stays well below pi so the log map is smooth at probes
    spread = np.array([0.5] * group.trans_dim + [0.25] * (d - group.trans_dim))
    node_delta = rng.uniform(-1.0, 1.0, (n, d)) * spread
    lm_delta = rng.uniform(-1.0, 1.0, d) * spread
    states = group.retract(graph.states, node_delta)
    landmark = group.retract(graph.landmark, lm_delta)

    total = graph.odo_count + graph.obs_count
    picks = rng.choice(total, size=min(probe_count, total), replace=False)
    odo_idx = picks[picks < graph.odo_count]
    obs_idx = picks[picks >= graph.odo_count] - graph.odo_count

    # the solver's own linearization, with each sighting's node block -J_l G
    # rebuilt, against central differences of the residuals on the probes;
    # moving every node at once moves each sighting by its own node
    edges = gmod.Edges(graph)
    ev = edges.evaluate(states, landmark)
    whole = (slice(0, edges.observed.size), slice(0, graph.obs_count))  # one slab of all
    neg_ji_o, jj_o = map(group.expand, _linearize(edges, ev))
    jl_s, adj = map(group.expand, _sighting_jacobians(edges, states, landmark, ev, whole))
    analytic = (-neg_ji_o, jj_o, -(jl_s @ adj[edges.node_index(whole)]), jl_s)
    observation = partial(edges.observation, slab=whole)
    numeric = (
        *_numeric_blocks(group, edges.odometry, states[graph.odo_i], states[graph.odo_j]),
        *_numeric_blocks(group, observation, states, landmark),
    )
    rows = (odo_idx, odo_idx, obs_idx, obs_idx)
    return max(
        float(np.abs(a[k] - n[k]).max(initial=0.0)) for a, n, k in zip(analytic, numeric, rows)
    )
