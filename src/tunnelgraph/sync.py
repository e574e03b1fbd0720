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
per-frame statistics later undo the split by re-merging.  Alignment
builds the timeline only: the weights of the odometry edges belong to
the problem, which :func:`tunnelgraph.graph.build_graph` sets.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import re
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


class FieldError(DataError):
    """A :class:`DataError` about one settings field; ``field`` is its name."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class RowError(DataError):
    """A :class:`DataError` about one row of a track or sighting set;
    ``row`` is its index."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


def _check_unit_quaternions(packed) -> None:
    """Every quaternion of the packed (N, 7) poses within
    ``QUAT_NORM_TOLERANCE`` of unit norm; a NaN pose passes, to be reported
    as a numerical failure downstream."""
    gap = np.abs(geom.quat_norm(packed[:, 3:]) - 1.0)
    off_unit = gap > QUAT_NORM_TOLERANCE
    if np.any(off_unit):
        row = int(np.argmax(off_unit))
        raise RowError(row, f"quaternion norm off unit by {gap[row]:.3g}")


def _check_times(times) -> None:
    """Every timestamp finite and past the previous one."""
    # stated positively, so that a NaN timestamp fails too
    ordered = np.isfinite(times) & (np.diff(times, prepend=-np.inf) > 0.0)
    if not np.all(ordered):
        row = int(np.argmin(ordered))
        reason = f"does not increase past {times[row - 1]} from the previous frame"
        if not np.isfinite(times[row]):
            reason = "is not finite"
        raise RowError(row, f"timestamp {times[row]} {reason}")


def _check_weights(w_trans, w_rot, what="information weights") -> None:
    """Every row's pair of weights (or of other ``what``) finite and non-negative."""
    weights = np.stack([w_trans, w_rot])
    invalid = ~np.all(np.isfinite(weights) & (weights >= 0.0), axis=0)
    if np.any(invalid):
        raise RowError(int(np.argmax(invalid)), f"{what} must be finite and non-negative")


# range rules for check_fields: (accepts, reason), stated positively so NaN fails
POSITIVE = (lambda v: v > 0.0, "must be positive")
NON_NEGATIVE = (lambda v: v >= 0.0, "must be non-negative")


def one_of(choices):
    return (lambda v: v in choices, f"must be one of {choices}")


# a source name becomes part of file names, so it is one plain word
SOURCE_NAME = (
    lambda v: re.fullmatch(r"[A-Za-z0-9_-]+", v) is not None,
    "must be one word of letters, digits, '_' or '-'",
)


def check_fields(settings, **rules) -> None:
    """Validate a settings dataclass; the first bad field raises FieldError.

    Every float field, and every float in a tuple field, must be finite.
    ``rules`` maps a field name to ``(accepts, reason)``.
    """
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        items = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise FieldError(f.name, "must be finite")
        rule = rules.get(f.name)
        if rule is not None and not rule[0](value):
            raise FieldError(f.name, rule[1])


@dataclass(frozen=True)
class OdometryTrack:
    """Timestamped pose sequence from one odometry source.

    ``poses`` is packed ``(N, 7)`` as ``[tx, ty, tz, qw, qx, qy, qz]``;
    planar tracks keep z, roll and pitch at exactly zero but use the same
    packing.  Timestamps must be finite and strictly increase, and
    quaternions unit within ``QUAT_NORM_TOLERANCE``; a bad row raises a
    :class:`RowError`.  ``source`` must pass ``SOURCE_NAME``.
    """

    source: str
    rate: float
    dof_mode: str
    times: np.ndarray
    poses: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        poses = np.array(self.poses, dtype=float)
        if times.ndim != 1 or poses.shape != (times.size, 7):
            raise DataError(f"track {self.source!r}: times/poses shape mismatch")
        if times.size < 2:
            raise DataError(f"track {self.source!r}: needs at least two frames")
        _check_times(times)
        _check_unit_quaternions(poses)
        times.setflags(write=False)
        poses.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "poses", poses)
        check_fields(self, source=SOURCE_NAME, rate=POSITIVE, dof_mode=one_of(DOF_MODES))

    @property
    def frame_count(self) -> int:
        return int(self.times.size)

    def poses_at(self, times: np.ndarray) -> np.ndarray:
        """Packed poses at ``times`` inside the track span: a frame's own
        pose where a time falls on it, else the geodesic interpolation
        between the bracketing frames."""
        right = np.searchsorted(self.times, times)
        hit = np.minimum(right, self.frame_count - 1)
        exact = self.times[hit] == times
        poses = np.empty((times.size, 7))
        poses[exact] = self.poses[hit[exact]]
        if not np.all(exact):
            r = right[~exact]
            left = r - 1
            alpha = (times[~exact] - self.times[left]) / (self.times[r] - self.times[left])
            poses[~exact] = geom.pose3_interpolate(self.poses[left], self.poses[r], alpha)
        return poses


class Sighting(NamedTuple):
    """One row of an :class:`ObservationSet`: the pole's pose relative to
    the robot at one instant."""

    pole_id: int
    timestamp: float
    rel: np.ndarray  # packed (7,) robot -> pole
    weight_trans: float
    weight_rot: float


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
    non-negative pole ids, finite non-negative weights, and quaternion
    norms within ``QUAT_NORM_TOLERANCE`` of one (a NaN pose passes, to be
    reported as a numerical failure downstream); a bad row raises a
    :class:`RowError`.  ``len``, iteration and integer indexing give
    :class:`Sighting` rows.
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
        pole_ids = _column(self.pole_ids, int, times.size)
        times.setflags(write=False)
        rel.setflags(write=False)
        for name, value in (("times", times), ("pole_ids", pole_ids), ("rel", rel)):
            object.__setattr__(self, name, value)
        self._set_weights(self.w_trans, self.w_rot)
        if np.any(pole_ids < 0):
            raise RowError(int(np.argmax(pole_ids < 0)), "pole id must be non-negative")
        _check_unit_quaternions(rel)

    def _set_weights(self, weight_trans, weight_rot) -> None:
        """The weight columns, broadcast to one per sighting and checked."""
        w_trans = _column(weight_trans, float, len(self))
        w_rot = _column(weight_rot, float, len(self))
        _check_weights(w_trans, w_rot)
        object.__setattr__(self, "w_trans", w_trans)
        object.__setattr__(self, "w_rot", w_rot)

    def __len__(self) -> int:
        return int(self.times.size)

    def __getitem__(self, index: int) -> Sighting:
        return Sighting(
            int(self.pole_ids[index]),
            float(self.times[index]),
            self.rel[index],
            float(self.w_trans[index]),
            float(self.w_rot[index]),
        )

    def __iter__(self):
        return (self[k] for k in range(len(self)))


@dataclass(frozen=True)
class AlignedSequence:
    """One track merged with observation timestamps.

    Nodes are the union of the frames of ``track`` and the sighting
    instants; ``is_frame`` marks the original frames.  ``meas`` holds the
    measured relative transform between consecutive nodes (split parts of
    a frame step compose back to the raw step).  ``obs_order`` lists the
    rows of ``observations`` by (timestamp, pole id), and ``obs_node[k]``
    is the node that sighting ``obs_order[k]`` is anchored at.
    """

    track: OdometryTrack
    times: np.ndarray
    poses: np.ndarray
    is_frame: np.ndarray
    meas: np.ndarray
    observations: ObservationSet
    obs_order: np.ndarray
    obs_node: np.ndarray

    @property
    def node_count(self) -> int:
        return int(self.times.size)


def align(track: OdometryTrack, observations: ObservationSet) -> AlignedSequence:
    """Merge a track with observation timestamps into one node sequence.

    Observation timestamps must fall inside the track's time span.  A
    timestamp that coincides with a frame reuses that node; otherwise a
    node is inserted on the geodesic between the bracketing frames and
    the frame's measured step is split at that point.  The steps carry no
    weights: :func:`tunnelgraph.graph.build_graph` sets them.
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

    times = np.union1d(track.times, obs_times)
    poses = track.poses_at(times)

    return AlignedSequence(
        track=track,
        times=times,
        poses=poses,
        is_frame=np.isin(times, track.times),
        meas=geom.pose3_relative(poses[:-1], poses[1:]),
        observations=observations,
        obs_order=order,
        obs_node=np.searchsorted(times, obs_times),
    )


def with_weights(observations: ObservationSet, weight_trans: float, weight_rot: float):
    """The same sightings with every information weight replaced.  Only the
    new weights are checked (finite and non-negative): the rows they join
    passed their checks when the set was built, and their read-only
    columns are shared."""
    out = copy.copy(observations)
    out._set_weights(weight_trans, weight_rot)
    return out
