"""Pose graph: robot nodes, odometry edges, pole observation edges.

The pole line enters the problem as a rigid template (fixed local pose
per pole) placed by a single free variable, the landmark frame.  Only
that placement is optimized; inter-pole spacing and collinearity are
exact by construction.  Node 0 is the gauge, so a problem with no
observations keeps the raw trajectory.

States are packed arrays of the graph's pose family, ``GROUPS[dof_mode]``:
``(N, 7)`` rigid transforms (:data:`~tunnelgraph.geometry.SE3`) in
full-3D mode, ``(N, 3)`` ``[x, y, yaw]`` (:data:`~tunnelgraph.geometry.SE2`)
in planar mode.  The same packing is used for the landmark frame, the
template, and every edge measurement, and every residual is the group's
``between``, so no code below branches on the mode.

Edge evaluation (:class:`Edges`) forms the sighting residuals in
node-aligned slabs of at most ``SLAB_NODES`` observing nodes, into one
(M, d) array, so its temporaries are the size of a slab, not of all M
sightings; the cost is then summed over whole arrays, once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geom
from .sync import (
    FULL3D, PLANAR, AlignedSequence, DataError, RowError, _check_times,
    _check_unit_quaternions, _check_weights,
)

GROUPS = {PLANAR: geom.SE2, FULL3D: geom.SE3}


@dataclass
class PoseGraph:
    """Sparse pose-graph problem over one odometry source.

    ``states`` and ``landmark`` are the free variables (modulo node 0,
    the gauge, and ``landmark_fixed``); everything else is fixed problem
    data.  The nodes, at least two, have finite, strictly increasing times
    and the odometry edges chain them: edge ``e`` joins node ``e`` to node
    ``e + 1``.  Observation edges are ordered by node, so each node's
    sightings are contiguous.  Every weight is finite and non-negative, so
    that the normal equations are positive semidefinite, and in full-3D
    mode every packed pose holds a unit quaternion; a violation raises a
    :class:`DataError`.
    """

    source: str
    rate: float
    dof_mode: str
    times: np.ndarray  # (N,)
    is_frame: np.ndarray  # (N,) bool, original sensor frames
    states: np.ndarray  # (N, D)
    landmark: np.ndarray  # (D,) template placement in the world
    template: np.ndarray  # (P, D) fixed pole poses in the landmark frame
    odo_i: np.ndarray  # (E,) int
    odo_j: np.ndarray  # (E,) int
    odo_meas: np.ndarray  # (E, D)
    odo_w_trans: np.ndarray  # (E,)
    odo_w_rot: np.ndarray  # (E,)
    obs_node: np.ndarray  # (M,) int
    obs_pole: np.ndarray  # (M,) int
    obs_meas: np.ndarray  # (M, D)
    obs_w_trans: np.ndarray  # (M,)
    obs_w_rot: np.ndarray  # (M,)
    landmark_fixed: bool = False

    def __post_init__(self):
        n = self.states.shape[0]
        if n < 2:
            raise DataError(f"a graph needs at least two nodes, got {n}")
        chain = np.arange(n - 1)
        if not (np.array_equal(self.odo_i, chain) and np.array_equal(self.odo_j, chain + 1)):
            raise DataError("odometry edge e must join node e to node e + 1")
        if self.obs_node.shape[0]:
            if self.obs_node.min() < 0 or self.obs_node.max() >= n:
                raise DataError("observation edge references a missing node")
            if self.obs_pole.min() < 0 or self.obs_pole.max() >= self.template.shape[0]:
                raise DataError("observation edge references a missing pole id")
            if np.any(np.diff(self.obs_node) < 0):
                raise DataError("observation edges must be ordered by node")
        # the rules the track and sighting types apply to their rows
        checks = {
            "node times": (_check_times, self.times),
            "odometry weights": (_check_weights, self.odo_w_trans, self.odo_w_rot),
            "observation weights": (_check_weights, self.obs_w_trans, self.obs_w_rot),
        }
        if self.dof_mode == FULL3D:
            for name in ("states", "landmark", "template", "odo_meas", "obs_meas"):
                checks[name] = (_check_unit_quaternions, np.atleast_2d(getattr(self, name)))
        for name, (check, *columns) in checks.items():
            try:
                check(*columns)
            except RowError as exc:
                raise DataError(f"{name} row {exc.row}: {exc.reason}") from None

    @property
    def node_count(self) -> int:
        return int(self.states.shape[0])

    @property
    def pole_count(self) -> int:
        return int(self.template.shape[0])

    @property
    def odo_count(self) -> int:
        return int(self.odo_meas.shape[0])

    @property
    def obs_count(self) -> int:
        return int(self.obs_meas.shape[0])

    @property
    def unconstrained(self) -> bool:
        """No observation pins the trajectory: only the gauge node holds it."""
        return self.obs_count == 0

    @property
    def group(self) -> geom.Group:
        return GROUPS[self.dof_mode]

    def pole_world_poses(self, landmark=None) -> np.ndarray:
        """World pose of every pole under the (given) template placement."""
        lf = self.landmark if landmark is None else landmark
        return self.group.compose(lf, self.template)


def build_graph(
    aligned: AlignedSequence,
    layout,
    mode: str,
    odom_weights=(1.0, 1.0),
    landmark_fixed: bool = False,
) -> PoseGraph:
    """Assemble the optimization problem from an aligned sequence.

    This is the one place the problem is set: its mode, the fixed pole
    template (``layout.template()`` packed (P, 7)), the odometry weights
    (translation, rotation) every step takes, and whether the landmark
    frame is free.  Every pose is converted to the mode's group first.
    The landmark frame starts where the first observation says it is:
    the predicted and measured relative pose of that pole coincide
    exactly at the initial estimate.
    """
    if mode not in GROUPS:
        raise DataError(f"unknown graph mode {mode!r}")
    group = GROUPS[mode]
    states = group.from_pose3(aligned.poses)
    template = group.from_pose3(layout.template())
    edges = np.arange(aligned.node_count - 1, dtype=int)
    obs = aligned.observations
    order = aligned.obs_order
    obs_node = aligned.obs_node
    obs_pole = obs.pole_ids[order]
    # converted, then ordered: a planar graph makes no ordered (M, 7) copy
    obs_meas = np.take(group.from_pose3(obs.rel), order, axis=0)

    graph = PoseGraph(
        source=aligned.track.source,
        rate=aligned.track.rate,
        dof_mode=mode,
        times=aligned.times.copy(),
        is_frame=aligned.is_frame.copy(),
        states=states,
        landmark=group.identity.copy(),
        template=template,
        odo_i=edges,
        odo_j=edges + 1,
        odo_meas=group.from_pose3(aligned.meas),
        odo_w_trans=np.full(edges.size, odom_weights[0], dtype=float),
        odo_w_rot=np.full(edges.size, odom_weights[1], dtype=float),
        obs_node=obs_node,
        obs_pole=obs_pole,
        obs_meas=obs_meas,
        obs_w_trans=obs.w_trans[order],
        obs_w_rot=obs.w_rot[order],
        landmark_fixed=landmark_fixed,
    )
    if graph.obs_count:  # the graph has checked that every pole id is in the template
        graph.landmark = group.compose(
            group.compose(states[obs_node[0]], obs_meas[0]),
            group.inverse(template[obs_pole[0]]),
        )
    return graph


# ---------------------------------------------------------------------------
# edge evaluation: the one place a residual, weight or cost is computed

SLAB_NODES = 1024  # observing nodes per slab of sightings


@dataclass(frozen=True)
class Evaluation:
    """Every edge at one state.  Per odometry (E) and observation (M) edge:
    the tangent residual ``r_*``, (E, d) and (M, d), and the weights
    ``w_*``, a pair (translation, rotation) of (E,) or (M,) arrays, which
    are the edge's weights times the IRLS factor the Huber kernel puts on
    it (the graph's own weight columns without Huber).  ``rel_odo`` is
    each odometry edge's transform s_i^-1 * s_j.  ``cost``, the sum of the
    Huber-composed edge costs, is the objective the solver minimizes."""

    rel_odo: np.ndarray
    r_odo: np.ndarray
    r_obs: np.ndarray
    w_odo: tuple
    w_obs: tuple
    cost: float


class Edges:
    """What a solve keeps fixed about the edges of one graph, built once.

    A solve moves the states and the landmark frame only, so this holds:
    the inverted measurements ``odo_meas_inv`` and ``obs_meas_inv``; the
    observing nodes ``observed``, with ``first``, where each one's run of
    sightings starts; and ``pole_adjoint``, the adjoint Ad(P^-1) of every
    template pole P, as the group's factor.  The sightings are ordered by
    node, so the runs are where the node changes.

    ``slabs`` cuts the sightings into node-aligned runs: each slab is a
    pair (nodes, sightings) of slices, up to ``SLAB_NODES`` consecutive
    observing nodes and the sightings they make, so no node's run of
    sightings is split.  Per-sighting work goes slab by slab, and its
    temporaries stay the size of one slab.

    Its residual functions, the group's ``between`` of each measurement,
    serve the cost, the analytic Jacobians and their finite-difference
    check.  An observation residual gathers the states of a slab's
    observing nodes, and inverts and prepares each once for its whole run
    of sightings.
    """

    def __init__(self, graph: PoseGraph):
        group = graph.group
        self.graph = graph
        self.odo_meas_inv = group.inverse(graph.odo_meas)
        self.obs_meas_inv = group.inverse(graph.obs_meas)
        node = graph.obs_node
        self.first = np.flatnonzero(np.diff(node, prepend=-1))
        self.observed = node[self.first]
        self.pole_adjoint = group.adjoint_factor(group.inverse(graph.template))
        runs = np.append(self.first, graph.obs_count)  # run starts, then the end
        cuts = [*range(0, self.observed.size, SLAB_NODES), self.observed.size]
        self.slabs = [
            (slice(a, b), slice(int(runs[a]), int(runs[b]))) for a, b in zip(cuts, cuts[1:])
        ]

    def node_index(self, slab):
        """Each sighting of ``slab``'s index among the slab's observing nodes."""
        nodes, sightings = slab
        lengths = np.diff(self.first[nodes], append=sightings.stop)
        return np.repeat(np.arange(lengths.size), lengths)

    def odometry(self, si, sj):
        """Residual r(s_i, s_j) of every odometry edge, with its transform."""
        group = self.graph.group
        return group.between(self.odo_meas_inv, group.inverse(si), sj)

    def observation(self, states, landmark, slab):
        """Residual r(s, landmark) of every sighting of ``slab``; its target
        is its pole placed by the landmark frame."""
        graph = self.graph
        group = graph.group
        nodes, sightings = slab
        # np.take gathers rows several times faster than fancy indexing
        target = np.take(graph.pole_world_poses(landmark), graph.obs_pole[sightings], axis=0)
        observing = np.take(states, self.observed[nodes], axis=0)
        return group.between(
            self.obs_meas_inv[sightings], group.inverse(observing), target, self.node_index(slab)
        )

    def evaluate(self, states, landmark, huber_delta=0.0) -> Evaluation:
        """Every edge at (states, landmark).  The sighting residuals are
        formed slab by slab into one array; the cost sums whole arrays."""
        graph = self.graph
        r_odo, rel_odo = self.odometry(states[:-1], states[1:])  # edge e joins e to e + 1
        r_obs = np.empty((graph.obs_count, graph.group.tangent_dim))
        for slab in self.slabs:
            r_obs[slab[1]] = self.observation(states, landmark, slab)[0]
        w_odo = graph.odo_w_trans, graph.odo_w_rot
        w_obs = graph.obs_w_trans, graph.obs_w_rot
        cost_odo, w_odo = _huber(_weighted_sq(graph, r_odo, *w_odo), w_odo, huber_delta)
        cost_obs, w_obs = _huber(_weighted_sq(graph, r_obs, *w_obs), w_obs, huber_delta)
        cost = float(np.sum(cost_odo)) + float(np.sum(cost_obs))
        return Evaluation(rel_odo, r_odo, r_obs, w_odo, w_obs, cost)


def _weighted_sq(graph: PoseGraph, r, w_trans, w_rot):
    """Weighted squared norm of every residual row: the first ``trans_dim``
    components take the translation weight and the rest the rotation weight.
    The sums accumulate in place, so few (M,) temporaries are alive at once."""

    def squares(first, stop):
        out = r[:, first] * r[:, first]
        for c in range(first + 1, stop):
            out += r[:, c] * r[:, c]
        return out

    k = graph.group.trans_dim
    out, rot = squares(0, k), squares(k, r.shape[1])
    out *= w_trans
    rot *= w_rot
    out += rot
    return out


def _huber(sq, weights, delta):
    """Huber-composed edge costs, and the (translation, rotation) weights
    times each edge's IRLS factor (plain, and the weights themselves, at
    delta 0)."""
    if delta <= 0.0:
        return sq, weights
    cut = delta * delta
    root = np.sqrt(np.maximum(sq, 1e-300))
    cost = np.where(sq <= cut, sq, 2.0 * delta * root - cut)
    factor = np.where(sq <= cut, 1.0, delta / root)
    return cost, tuple(w * factor for w in weights)


def evaluate(graph: PoseGraph, states=None, landmark=None, huber_delta=0.0) -> Evaluation:
    """Every edge at (states, landmark), by default the graph's own."""
    s = graph.states if states is None else states
    lf = graph.landmark if landmark is None else landmark
    return Edges(graph).evaluate(s, lf, huber_delta)


def total_cost(graph: PoseGraph, states=None, landmark=None, huber_delta=0.0) -> float:
    """The objective the solver minimizes: the sum over all edges of the
    weighted squared residual norm, Huber-composed when ``huber_delta > 0``."""
    return evaluate(graph, states, landmark, huber_delta).cost
