"""Multi-rate track alignment on a shared timeline.

Sensor tracks arrive at different frame rates and landmark sightings at
yet another rate.  ``align`` merges one track with the sighting
timestamps, inserting geodesically interpolated nodes where a sighting
falls between frames, so that a pose-graph node exists at every
constrained instant.  Inserted nodes split the raw frame-to-frame
measurement into two parts whose composition reproduces the original;
per-frame statistics later undo the split by re-merging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry as geom

PLANAR = "planar"
FULL3D = "full3d"
DOF_MODES = (PLANAR, FULL3D)

# largest accepted | |q| - 1 | of an input quaternion; inputs are not
# renormalized, so a 17-digit write/read cycle stays bit-faithful
QUAT_NORM_TOLERANCE = 1.0e-6


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class OdometryTrack:
    """Timestamped pose sequence from one odometry source.

    ``poses`` is packed ``(N, 7)`` as ``[tx, ty, tz, qw, qx, qy, qz]``;
    planar tracks keep z, roll and pitch at exactly zero but use the same
    packing.
    """

    source: str
    rate: float
    dof_mode: str
    times: np.ndarray
    poses: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        poses = np.array(self.poses, dtype=float)
        if self.rate <= 0.0:
            raise DataError(f"track {self.source!r}: rate must be positive")
        if self.dof_mode not in DOF_MODES:
            raise DataError(f"track {self.source!r}: unknown dof mode {self.dof_mode!r}")
        if times.ndim != 1 or poses.shape != (times.size, 7):
            raise DataError(f"track {self.source!r}: times/poses shape mismatch")
        if times.size < 2:
            raise DataError(f"track {self.source!r}: needs at least two frames")
        if np.any(np.diff(times) <= 0.0):
            raise DataError(f"track {self.source!r}: timestamps must strictly increase")
        # NaN norms pass: a poisoned pose is a numerical failure, reported downstream
        gap = np.abs(np.linalg.norm(poses[:, 3:], axis=1) - 1.0)
        if np.any(gap > QUAT_NORM_TOLERANCE):
            raise DataError(
                f"track {self.source!r}: quaternion norm off unit by {np.nanmax(gap):.3g}"
            )
        times.setflags(write=False)
        poses.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "poses", poses)

    @property
    def frame_count(self) -> int:
        return int(self.times.size)

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class LandmarkObservation:
    """One pole sighting: the pole's pose relative to the robot."""

    pole_id: int
    timestamp: float
    rel: np.ndarray  # packed (7,) robot -> pole
    weight_trans: float = 1.0
    weight_rot: float = 1.0

    def __post_init__(self):
        rel = np.array(self.rel, dtype=float)
        if rel.shape != (7,):
            raise DataError("observation pose must be packed (7,)")
        if self.weight_trans < 0.0 or self.weight_rot < 0.0:
            raise DataError("observation information weights must be non-negative")
        gap = abs(math.hypot(*rel[3:].tolist()) - 1.0)
        if gap > QUAT_NORM_TOLERANCE:
            raise DataError(f"observation quaternion norm off unit by {gap:.3g}")
        rel.setflags(write=False)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "pole_id", int(self.pole_id))
        object.__setattr__(self, "timestamp", float(self.timestamp))


@dataclass(frozen=True)
class AlignedSequence:
    """One track merged with observation timestamps.

    Nodes are the union of sensor frames and sighting instants;
    ``is_frame`` marks the original frames.  ``meas`` holds the measured
    relative transform between consecutive nodes (split parts of a frame
    step compose back to the raw step).  ``attachments`` pairs node
    indices with the observations anchored there.
    """

    source: str
    rate: float
    dof_mode: str
    times: np.ndarray
    poses: np.ndarray
    is_frame: np.ndarray
    meas: np.ndarray
    meas_weight_trans: np.ndarray
    meas_weight_rot: np.ndarray
    attachments: list = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return int(self.times.size)


def align(
    track: OdometryTrack,
    observations,
    odom_weights=(1.0, 1.0),
) -> AlignedSequence:
    """Merge a track with observation timestamps into one node sequence.

    Observation timestamps must fall inside the track's time span.  A
    timestamp that coincides with a frame reuses that node; otherwise a
    node is inserted on the geodesic between the bracketing frames and
    the frame's measured step is split at that point.
    """
    observations = sorted(observations, key=lambda o: (o.timestamp, o.pole_id))
    t0, t1 = float(track.times[0]), float(track.times[-1])
    for obs in observations:
        if obs.timestamp < t0 or obs.timestamp > t1:
            raise DataError(
                f"observation at t={obs.timestamp} outside track span [{t0}, {t1}]"
            )

    obs_times = np.array([o.timestamp for o in observations], dtype=float)
    extra = np.unique(obs_times[~np.isin(obs_times, track.times)])

    times = np.concatenate([track.times, extra])
    order = np.argsort(times, kind="stable")
    times = times[order]
    is_frame = np.concatenate(
        [np.ones(track.times.size, dtype=bool), np.zeros(extra.size, dtype=bool)]
    )[order]

    poses = np.empty((times.size, 7))
    poses[is_frame] = track.poses
    if extra.size:
        right = np.searchsorted(track.times, extra)
        left = right - 1
        alpha = (extra - track.times[left]) / (track.times[right] - track.times[left])
        poses[~is_frame] = geom.pose3_interpolate(
            track.poses[left], track.poses[right], alpha
        )

    meas = geom.pose3_relative(poses[:-1], poses[1:])
    w_trans = np.full(times.size - 1, float(odom_weights[0]))
    w_rot = np.full(times.size - 1, float(odom_weights[1]))

    node_of_time = {t: i for i, t in enumerate(times)}
    attachments = [(node_of_time[o.timestamp], o) for o in observations]

    return AlignedSequence(
        source=track.source,
        rate=track.rate,
        dof_mode=track.dof_mode,
        times=times,
        poses=poses,
        is_frame=is_frame,
        meas=meas,
        meas_weight_trans=w_trans,
        meas_weight_rot=w_rot,
        attachments=attachments,
    )


def with_weights(obs: LandmarkObservation, weight_trans: float, weight_rot: float):
    """Copy an observation with different information weights."""
    return replace(obs, weight_trans=weight_trans, weight_rot=weight_rot)
