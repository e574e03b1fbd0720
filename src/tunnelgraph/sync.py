"""Input types and multi-rate track alignment on a shared timeline.

An :class:`OdometryTrack` is one source's timestamped poses.  An
:class:`ObservationSet` holds every pole sighting as read-only columns
(timestamps, pole ids, packed relative poses, information weights), so
synthesis, alignment, graph building and file I/O pass whole arrays and
never one object per sighting.

Sensor tracks arrive at different frame rates and landmark sightings at
yet another rate.  ``align`` merges one track with the sighting
timestamps, inserting geodesically interpolated nodes where a sighting
falls between frames, so that a pose-graph node exists at every
constrained instant.  Inserted nodes split the raw frame-to-frame
measurement into two parts whose composition reproduces the original;
per-frame statistics later undo the split by re-merging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class Sighting(NamedTuple):
    """One row of an :class:`ObservationSet`: the pole's pose relative to
    the robot at one instant."""

    pole_id: int
    timestamp: float
    rel: np.ndarray  # packed (7,) robot -> pole
    weight_trans: float
    weight_rot: float


class SightingError(DataError):
    """A :class:`DataError` about one sighting; ``row`` is its index."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"sighting {row}: {reason}")
        self.row = row
        self.reason = reason


def _column(values, dtype, count: int) -> np.ndarray:
    """A read-only (count,) column from one value per row or one for all."""
    out = np.asarray(values, dtype=dtype)
    if out.ndim == 0:
        out = np.full(count, out)
    elif out.shape == (count,):
        out = out.copy()
    else:
        raise DataError("observation columns must hold one value per sighting")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Pole sightings as read-only columns, one row per sighting.

    ``rel`` is packed ``(M, 7)`` robot -> pole; the weights broadcast from
    scalars.  Validation matches the file boundary: packed shapes,
    non-negative weights, and quaternion norms within
    ``QUAT_NORM_TOLERANCE`` of one (a NaN pose passes, to be reported as a
    numerical failure downstream).  ``len``, iteration and integer
    indexing give :class:`Sighting` rows; any other index gives the
    selected rows as a new set.
    """

    times: np.ndarray
    pole_ids: np.ndarray
    rel: np.ndarray
    w_trans: np.ndarray = 1.0
    w_rot: np.ndarray = 1.0

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        rel = np.array(self.rel, dtype=float)
        if rel.size == 0:
            rel = rel.reshape(0, 7)
        if times.ndim != 1 or rel.shape != (times.size, 7):
            raise DataError("observation poses must be packed (M, 7), one per timestamp")
        count = times.size
        pole_ids = _column(self.pole_ids, int, count)
        w_trans = _column(self.w_trans, float, count)
        w_rot = _column(self.w_rot, float, count)
        negative = (w_trans < 0.0) | (w_rot < 0.0)
        if np.any(negative):
            raise SightingError(
                int(np.argmax(negative)), "information weights must be non-negative"
            )
        gap = np.abs(np.linalg.norm(rel[:, 3:], axis=1) - 1.0)
        off_unit = gap > QUAT_NORM_TOLERANCE
        if np.any(off_unit):
            row = int(np.argmax(off_unit))
            raise SightingError(row, f"quaternion norm off unit by {gap[row]:.3g}")
        times.setflags(write=False)
        rel.setflags(write=False)
        for name, value in (
            ("times", times), ("pole_ids", pole_ids), ("rel", rel),
            ("w_trans", w_trans), ("w_rot", w_rot),
        ):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return int(self.times.size)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Sighting(
                int(self.pole_ids[index]),
                float(self.times[index]),
                self.rel[index],
                float(self.w_trans[index]),
                float(self.w_rot[index]),
            )
        return ObservationSet(
            self.times[index], self.pole_ids[index], self.rel[index],
            self.w_trans[index], self.w_rot[index],
        )

    def __iter__(self):
        return (self[k] for k in range(len(self)))


@dataclass(frozen=True)
class AlignedSequence:
    """One track merged with observation timestamps.

    Nodes are the union of sensor frames and sighting instants;
    ``is_frame`` marks the original frames.  ``meas`` holds the measured
    relative transform between consecutive nodes (split parts of a frame
    step compose back to the raw step).  ``obs_order`` lists the rows of
    ``observations`` by (timestamp, pole id), and ``obs_node[k]`` is the
    node that sighting ``obs_order[k]`` is anchored at.
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
    observations: ObservationSet
    obs_order: np.ndarray
    obs_node: np.ndarray

    @property
    def node_count(self) -> int:
        return int(self.times.size)


def align(
    track: OdometryTrack,
    observations: ObservationSet,
    odom_weights=(1.0, 1.0),
) -> AlignedSequence:
    """Merge a track with observation timestamps into one node sequence.

    Observation timestamps must fall inside the track's time span.  A
    timestamp that coincides with a frame reuses that node; otherwise a
    node is inserted on the geodesic between the bracketing frames and
    the frame's measured step is split at that point.
    """
    order = np.lexsort((observations.pole_ids, observations.times))
    obs_times = observations.times[order]
    t0, t1 = float(track.times[0]), float(track.times[-1])
    outside = ~((obs_times >= t0) & (obs_times <= t1))
    if np.any(outside):
        raise DataError(
            f"observation at t={obs_times[np.argmax(outside)]} outside track span "
            f"[{t0}, {t1}]"
        )

    extra = np.unique(obs_times[~np.isin(obs_times, track.times)])

    times = np.concatenate([track.times, extra])
    node_order = np.argsort(times, kind="stable")
    times = times[node_order]
    is_frame = np.concatenate(
        [np.ones(track.times.size, dtype=bool), np.zeros(extra.size, dtype=bool)]
    )[node_order]

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
        observations=observations,
        obs_order=order,
        obs_node=np.searchsorted(times, obs_times),
    )


def with_weights(observations: ObservationSet, weight_trans: float, weight_rot: float):
    """The same sightings with every information weight replaced."""
    return ObservationSet(
        observations.times, observations.pole_ids, observations.rel,
        weight_trans, weight_rot,
    )
