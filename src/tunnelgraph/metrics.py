"""Drift quantification over optimized pose graphs.

The headline statistic is the mean per-frame correction: the tangent
discrepancy between each measured odometry increment and the optimized
increment, averaged over sensor frames.  Edges that alignment split at
observation timestamps are re-composed first, so the denominator is the
raw frame count and per-second rates follow from the frame rate by an
exact multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sync import DataError


@dataclass(frozen=True)
class ErrorReport:
    """Per-source drift summary in the layout of the headline table."""

    source: str
    rate: float
    frame_count: int
    trans_per_frame: float  # meters
    rot_deg_per_frame: float  # degrees
    closure_raw: float  # meters, xy distance start-to-end before optimization
    closure_optimized: float
    closure_raw_z: float = 0.0  # separate vertical component (full-3D mode)
    closure_optimized_z: float = 0.0
    unconstrained: bool = False

    @property
    def trans_per_second(self) -> float:
        return self.trans_per_frame * self.rate

    @property
    def rot_deg_per_second(self) -> float:
        return self.rot_deg_per_frame * self.rate


def merged_measurements(graph):
    """Measured per-frame increments with observation splits re-composed:
    the k-th split step of every frame that has one composes in one batch."""
    frames = np.flatnonzero(graph.is_frame)
    starts, steps = frames[:-1], np.diff(frames)
    merged = graph.odo_meas[starts]
    for k in range(1, steps.max(initial=1)):
        split = steps > k
        merged[split] = graph.group.compose(merged[split], graph.odo_meas[starts[split] + k])
    return merged


def correction_magnitudes(graph, states=None):
    """Per-frame (translation meters, rotation degrees) norms of the tangent
    correction log(measured^-1 * optimized) of each sensor frame."""
    s = (graph.states if states is None else states)[graph.is_frame]
    group = graph.group
    merged = merged_measurements(graph)
    corr = group.between(group.inverse(merged), group.inverse(s[:-1]), s[1:])[0]
    k = group.trans_dim
    return (
        np.linalg.norm(corr[:, :k], axis=1),
        np.degrees(np.linalg.norm(corr[:, k:], axis=1)),
    )


def closure_error(poses):
    """(xy distance, |z| gap) between the first and last of packed SE(3) poses."""
    poses = np.asarray(poses, dtype=float)
    if poses.shape[0] < 2:
        raise DataError("closure needs at least two poses")
    gap = poses[-1, :3] - poses[0, :3]
    return float(np.hypot(gap[0], gap[1])), float(abs(gap[2]))


def per_frame_corrections(graph, states=None) -> ErrorReport:
    """Summarize ``states``, a solution of ``graph``, as an ErrorReport:
    the raw closure is that of the graph's own states, the problem as
    built, and ``states`` defaults to them."""
    s = graph.states if states is None else states
    tmag, rmag = correction_magnitudes(graph, s)
    raw_xy, raw_z = closure_error(graph.group.to_pose3(graph.states[[0, -1]]))
    opt_xy, opt_z = closure_error(graph.group.to_pose3(s[[0, -1]]))
    return ErrorReport(
        source=graph.source,
        rate=graph.rate,
        frame_count=int(np.count_nonzero(graph.is_frame)),
        trans_per_frame=float(tmag.mean()),
        rot_deg_per_frame=float(rmag.mean()),
        closure_raw=raw_xy,
        closure_optimized=opt_xy,
        closure_raw_z=raw_z,
        closure_optimized_z=opt_z,
        unconstrained=graph.unconstrained,
    )


def phase_breakdown(graph, intervals):
    """Supplementary per-phase correction means.

    ``intervals`` is an iterable of (name, start, end); frames are binned
    by the start time of their increment.  Phases sharing a name are
    aggregated.  Returns {name: (frames, trans mean m, rot mean deg)}.
    """
    tmag, rmag = correction_magnitudes(graph)
    start_times = graph.times[graph.is_frame][:-1]
    masks = {}
    for name, t0, t1 in intervals:
        window = (start_times >= t0) & (start_times < t1)
        masks[name] = masks[name] | window if name in masks else window
    result = {}
    for name, mask in masks.items():
        count = int(mask.sum())
        result[name] = (
            count,
            float(tmag[mask].mean()) if count else 0.0,
            float(rmag[mask].mean()) if count else 0.0,
        )
    return result


def ate_rmse(times_est, positions_est, times_ref, positions_ref):
    """RMS positional error after closed-form rigid alignment."""
    times_est = np.asarray(times_est, dtype=float)
    times_ref = np.asarray(times_ref, dtype=float)
    if not np.array_equal(times_est, times_ref):
        raise DataError("trajectories must share identical timestamps")
    est = np.atleast_2d(np.asarray(positions_est, dtype=float))
    ref = np.atleast_2d(np.asarray(positions_ref, dtype=float))
    if est.shape != ref.shape:
        raise DataError("trajectories must have matching position shapes")

    mu_e = est.mean(axis=0)
    mu_r = ref.mean(axis=0)
    cross = (est - mu_e).T @ (ref - mu_r)
    u, _, vt = np.linalg.svd(cross)
    sign = np.sign(np.linalg.det(vt.T @ u.T))
    fix = np.eye(est.shape[1])
    fix[-1, -1] = sign
    rot = vt.T @ fix @ u.T
    est = (rot @ (est - mu_e).T).T + mu_r
    return float(np.sqrt(np.mean(np.sum((est - ref) ** 2, axis=1))))
