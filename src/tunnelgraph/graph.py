"""Pose graph: robot nodes, odometry edges, pole observation edges.

The pole line enters the problem as a rigid template (fixed local pose
per pole) placed by a single free variable, the landmark frame.  Only
that placement is optimized; inter-pole spacing and collinearity are
exact by construction.  Node 0 is gauge-fixed by default, so a problem
with no observations keeps the raw trajectory.

States are packed arrays of the graph's pose family, ``GROUPS[dof_mode]``:
``(N, 7)`` rigid transforms (:data:`~tunnelgraph.geometry.SE3`) in
full-3D mode, ``(N, 3)`` ``[x, y, yaw]`` (:data:`~tunnelgraph.geometry.SE2`)
in planar mode.  The same packing is used for the landmark frame, the
template, and every edge measurement, and every residual is the group's
``between``, so no code below branches on the mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from . import geometry as geom
from .sync import FULL3D, PLANAR, AlignedSequence, DataError

GROUPS = {PLANAR: geom.SE2, FULL3D: geom.SE3}


@dataclass
class PoseGraph:
    """Sparse pose-graph problem over one odometry source.

    ``states`` and ``landmark`` are the free variables (modulo the gauge
    node and ``landmark_fixed``); everything else is fixed problem data.
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
    gauge_index: int = 0
    unconstrained: bool = False
    landmark_fixed: bool = False
    position_only: bool = False
    raw_states: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        n = self.states.shape[0]
        if not 0 <= self.gauge_index < n:
            raise DataError("gauge index out of range")
        if self.odo_meas.shape[0] and (
            self.odo_i.min() < 0
            or self.odo_j.min() < 0
            or max(self.odo_i.max(), self.odo_j.max()) >= n
        ):
            raise DataError("odometry edge references a missing node")
        if self.obs_node.shape[0]:
            if self.obs_node.min() < 0 or self.obs_node.max() >= n:
                raise DataError("observation edge references a missing node")
            if self.obs_pole.min() < 0 or self.obs_pole.max() >= self.template.shape[0]:
                raise DataError("observation edge references a missing pole id")
        if self.raw_states is None:
            self.raw_states = self.states.copy()

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
    def group(self) -> geom.Group:
        return GROUPS[self.dof_mode]

    def with_solution(self, states: np.ndarray, landmark: np.ndarray) -> "PoseGraph":
        return replace(self, states=states, landmark=landmark, raw_states=self.raw_states)

    def pole_world_poses(self, landmark=None) -> np.ndarray:
        """World pose of every pole under the (given) template placement."""
        lf = self.landmark if landmark is None else landmark
        return self.group.compose(lf, self.template)


def is_connected(graph: PoseGraph) -> bool:
    """Every robot node reachable from the gauge node.

    Observation edges route through the shared landmark frame, so two
    nodes observing any pole are connected even without a chain between
    them.
    """
    n = graph.node_count
    rows = np.concatenate([graph.odo_i, graph.obs_node])
    cols = np.concatenate([graph.odo_j, np.full(graph.obs_node.size, n)])
    # index n is the landmark frame
    adjacency = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n + 1, n + 1))
    _, labels = csgraph.connected_components(adjacency, directed=False)
    return bool(np.all(labels[:n] == labels[graph.gauge_index]))


def build_graph(
    aligned: AlignedSequence,
    layout,
    mode: str,
    position_only: bool = False,
    landmark_fixed: bool = False,
) -> PoseGraph:
    """Assemble the optimization problem from an aligned sequence.

    ``layout`` provides the fixed pole template (``layout.template()``
    packed (P, 7)).  Every pose is converted to the mode's group first.
    The landmark frame starts where the first observation says it is:
    the predicted and measured relative pose of that pole coincide
    exactly at the initial estimate.
    """
    if mode not in GROUPS:
        raise DataError(f"unknown graph mode {mode!r}")
    if aligned.node_count < 2:
        raise DataError("aligned sequence too short to build a graph")

    group = GROUPS[mode]
    states = group.from_pose3(aligned.poses)
    template = group.from_pose3(layout.template())
    odo_meas = group.from_pose3(aligned.meas)

    n = aligned.node_count
    odo_i = np.arange(n - 1, dtype=int)
    odo_j = odo_i + 1

    obs = aligned.observations
    order = aligned.obs_order
    obs_node = aligned.obs_node
    obs_pole = obs.pole_ids[order]
    if np.any(obs_pole >= template.shape[0]):
        raise DataError("observed pole id missing from the template")
    obs_meas = group.from_pose3(obs.rel[order])
    if obs_node.size:
        landmark = group.compose(
            group.compose(states[obs_node[0]], obs_meas[0]),
            group.inverse(template[obs_pole[0]]),
        )
    else:
        landmark = group.identity.copy()

    graph = PoseGraph(
        source=aligned.source,
        rate=aligned.rate,
        dof_mode=mode,
        times=aligned.times.copy(),
        is_frame=aligned.is_frame.copy(),
        states=states,
        landmark=landmark,
        template=template,
        odo_i=odo_i,
        odo_j=odo_j,
        odo_meas=odo_meas,
        odo_w_trans=aligned.meas_weight_trans.copy(),
        odo_w_rot=aligned.meas_weight_rot.copy(),
        obs_node=obs_node,
        obs_pole=obs_pole,
        obs_meas=obs_meas,
        obs_w_trans=obs.w_trans[order],
        obs_w_rot=obs.w_rot[order],
        unconstrained=not obs_node.size,
        landmark_fixed=landmark_fixed,
        position_only=position_only,
    )
    if not is_connected(graph):
        raise DataError("graph is disconnected: some nodes unreachable from the gauge")
    return graph


# ---------------------------------------------------------------------------
# residuals


def odometry_residuals(graph: PoseGraph, states=None) -> np.ndarray:
    """Tangent residual per odometry edge: log(meas^-1 * (s_i^-1 * s_j))."""
    s = graph.states if states is None else states
    return graph.group.between(graph.odo_meas, s[graph.odo_i], s[graph.odo_j])


def observation_residuals(graph: PoseGraph, states=None, landmark=None) -> np.ndarray:
    """Tangent residual per observation edge against the placed template."""
    s = graph.states if states is None else states
    lf = graph.landmark if landmark is None else landmark
    target = graph.pole_world_poses(lf)[graph.obs_pole]
    return graph.group.between(graph.obs_meas, s[graph.obs_node], target)


def _split_weights(graph, residuals, w_trans, w_rot, rotation_counts: bool):
    """Per-edge weighted squared norm, translation and rotation parts."""
    k = graph.group.trans_dim
    sq_t = np.sum(residuals[:, :k] ** 2, axis=-1)
    sq_r = np.sum(residuals[:, k:] ** 2, axis=-1)
    if not rotation_counts:
        sq_r = np.zeros_like(sq_r)
    return w_trans * sq_t + w_rot * sq_r


def per_edge_costs(graph: PoseGraph, states=None, landmark=None):
    """Weighted squared residual per edge: (odometry array, observation array)."""
    odo = _split_weights(
        graph, odometry_residuals(graph, states),
        graph.odo_w_trans, graph.odo_w_rot, True,
    )
    if graph.obs_count:
        obs = _split_weights(
            graph, observation_residuals(graph, states, landmark),
            graph.obs_w_trans, graph.obs_w_rot, not graph.position_only,
        )
    else:
        obs = np.zeros(0)
    return odo, obs


def total_cost(graph: PoseGraph, states=None, landmark=None) -> float:
    """Weighted squared residual norm over all edges."""
    odo, obs = per_edge_costs(graph, states, landmark)
    return float(np.sum(odo)) + float(np.sum(obs))


def retract(graph: PoseGraph, states, landmark, node_delta, landmark_delta):
    """Right-multiplicative update of all free variables."""
    group = graph.group
    if landmark_delta is not None:
        landmark = group.retract(landmark, landmark_delta)
    return group.retract(states, node_delta), landmark
