"""Tunnel scenario synthesis: ground truth, odometry corruption, sightings.

The scenario is a cart driving a straight tunnel section, turning in
place at the far end, and (optionally) driving back.  Cylindrical poles
stand in a rigid line beside the drive path; a camera facing along the
cart's forward axis detects them at close range and reports each pole's
full pose relative to the cart.

Corruption perturbs every frame-to-frame motion increment with an error
transform whose translation has an exactly fixed norm in a uniformly
random direction and whose rotation has an exactly fixed angle about a
uniformly random axis.  Fixed magnitudes make the injected per-frame
error equal to the configured calibration value by construction, so a
recovery pipeline can be checked against it tightly.

Synthesis is array code with no loop over frames or ticks: ``corrupt``
chains the perturbed increments with a parallel prefix scan over pose
composition, and the detector gates every tick against every pole at
once and returns its sightings as one
:class:`~tunnelgraph.sync.ObservationSet`.  Both draw their random
numbers in the same order a per-frame or per-tick loop would, so a seed
gives the same scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import geometry as geom
from .sync import (
    DOF_MODES, FULL3D, NON_NEGATIVE, PLANAR, POSITIVE, DataError, ObservationSet,
    OdometryTrack, _check_unit_quaternions, _check_weights, check_fields, one_of,
)

GROUND_TRUTH_SOURCE = "ground_truth"

# poles stand this far to the side of the drive line unless configured
DEFAULT_POLE_LATERAL_OFFSET = 1.2


@dataclass(frozen=True)
class TrajectoryProfile:
    """Drive plan: straight run, in-place turn, optional return leg."""

    straight_length: float = 100.0
    turn_angle_deg: float = 180.0
    speed: float = 0.5
    turn_rate_deg: float = 30.0
    return_leg: bool = True

    def __post_init__(self):
        check_fields(
            self, straight_length=POSITIVE, speed=POSITIVE, turn_rate_deg=POSITIVE
        )

    @property
    def leg_duration(self) -> float:
        return self.straight_length / self.speed

    @property
    def turn_duration(self) -> float:
        return abs(self.turn_angle_deg) / self.turn_rate_deg

    @property
    def total_duration(self) -> float:
        legs = 2.0 if self.return_leg else 1.0
        return legs * self.leg_duration + self.turn_duration

    def phase_intervals(self):
        """(name, start, end) triples covering the run."""
        t1 = self.leg_duration
        t2 = t1 + self.turn_duration
        phases = [("straight", 0.0, t1), ("turn", t1, t2)]
        if self.return_leg:
            phases.append(("straight", t2, self.total_duration))
        return phases


@dataclass(frozen=True)
class LandmarkLayout:
    """Rigid line of poles along the tunnel axis, fixed spacing."""

    count: int = 4
    spacing: float = 18.0

    def __post_init__(self):
        check_fields(
            self,
            count=(
                lambda v: isinstance(v, Integral) and v >= 1, "must be an integer of at least 1"
            ),
            spacing=POSITIVE,
        )

    def template(self) -> np.ndarray:
        """Packed (count, 7) pole poses in the landmark frame."""
        out = np.tile(geom.POSE3_IDENTITY, (self.count, 1))
        out[:, 0] = self.spacing * np.arange(self.count)
        return out


@dataclass(frozen=True)
class NoiseProfile:
    """Per-frame odometry error calibration for one source."""

    source: str
    frame_rate: float
    trans_per_frame: float  # meters: exact norm of each injected translation
    rot_deg_per_frame: float  # degrees: exact angle of each injected rotation
    dof_mode: str = FULL3D
    axis_scale: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        check_fields(
            self,
            frame_rate=POSITIVE,
            trans_per_frame=NON_NEGATIVE,
            rot_deg_per_frame=NON_NEGATIVE,
            dof_mode=one_of(DOF_MODES),
            axis_scale=(
                lambda v: len(v) == 3 and all(s > 0.0 for s in v),
                "must be three positive factors",
            ),
        )


def dvso_preset() -> NoiseProfile:
    """Stereo visual odometry: 5 Hz, full 3D drift."""
    return NoiseProfile("dvso", 5.0, 0.00148, 0.043, FULL3D)


def wheel_preset() -> NoiseProfile:
    """Wheel odometry: 50 Hz, planar drift."""
    return NoiseProfile("wheel", 50.0, 0.00018, 0.002, PLANAR)


def degenerate_lidar_preset() -> NoiseProfile:
    """Planar scan matching starved of along-tunnel features: the error
    component along the cart's forward axis is inflated 50x."""
    return NoiseProfile("lidar", 10.0, 0.0015, 0.01, PLANAR, (50.0, 1.0, 1.0))


PRESETS = {
    "dvso": dvso_preset,
    "wheel": wheel_preset,
    "lidar": degenerate_lidar_preset,
}


def information_weight(sigma: float) -> float:
    """Information weight of a channel with standard deviation ``sigma``:
    1/sigma^2, or 1 for a noiseless channel, whose residuals are zero."""
    return 1.0 / sigma**2 if sigma > 0.0 else 1.0


@dataclass(frozen=True)
class DetectionModel:
    """Range/bearing gates and cadence of the pole detector."""

    max_range: float = 6.0
    max_bearing_deg: float = 50.0
    rate: float = 2.0
    sigma_trans: float = 0.005  # meters, per axis
    sigma_rot_deg: float = 0.2  # degrees, per axis

    def __post_init__(self):
        check_fields(
            self,
            max_range=POSITIVE,
            max_bearing_deg=(lambda v: 0.0 < v <= 180.0, "must be in (0, 180]"),
            rate=POSITIVE,
            sigma_trans=NON_NEGATIVE,
            sigma_rot_deg=NON_NEGATIVE,
        )

    def weight_trans(self) -> float:
        return information_weight(self.sigma_trans)

    def weight_rot(self) -> float:
        return information_weight(np.radians(self.sigma_rot_deg))


@dataclass(frozen=True)
class NoiseInjection:
    """Bookkeeping of what corrupt() actually injected, frame by frame.

    ``error_poses`` composes on the right of each true increment:
    measured[k] = true_rel[k] * error_poses[k].  The columns hold one value
    per frame; a magnitude that is negative or not finite, or a quaternion
    off unit norm by more than ``QUAT_NORM_TOLERANCE``, raises a
    :class:`RowError`.
    """

    trans_magnitudes: np.ndarray  # (N-1,) meters, actual injected norms
    rot_magnitudes_deg: np.ndarray  # (N-1,) degrees
    error_poses: np.ndarray  # (N-1, 7)

    def __post_init__(self):
        count = len(self.trans_magnitudes)
        if len(self.rot_magnitudes_deg) != count or np.shape(self.error_poses) != (count, 7):
            raise DataError("injection columns must hold one value per frame")
        _check_weights(self.trans_magnitudes, self.rot_magnitudes_deg, "injected magnitudes")
        _check_unit_quaternions(self.error_poses)

    @property
    def mean_trans(self) -> float:
        return float(np.mean(self.trans_magnitudes))

    @property
    def mean_rot_deg(self) -> float:
        return float(np.mean(self.rot_magnitudes_deg))


def generate_ground_truth(profile: TrajectoryProfile, rate: float) -> OdometryTrack:
    """Sample the drive plan at a fixed rate; frame k sits at time k/rate."""
    if rate <= 0.0:
        raise DataError("sampling rate must be positive")
    total = profile.total_duration
    count = int(np.floor(total * rate + 1e-9)) + 1
    times = np.arange(count, dtype=float) / rate

    t1 = profile.leg_duration
    t2 = t1 + profile.turn_duration
    turn_rad = np.radians(profile.turn_angle_deg)
    turn_rate_rad = np.radians(profile.turn_rate_deg)

    x = np.empty(count)
    y = np.zeros(count)
    yaw = np.empty(count)

    out = times <= t1
    x[out] = profile.speed * times[out]
    yaw[out] = 0.0

    turning = (times > t1) & (times <= t2)
    x[turning] = profile.straight_length
    yaw[turning] = np.sign(turn_rad) * turn_rate_rad * (times[turning] - t1)

    back = times > t2
    if np.any(back):
        heading = turn_rad
        run = profile.speed * (times[back] - t2)
        x[back] = profile.straight_length + np.cos(heading) * run
        y[back] = np.sin(heading) * run
        yaw[back] = heading

    poses = geom.SE2.to_pose3(np.stack([x, y, geom.wrap_angle(yaw)], axis=-1))
    return OdometryTrack(GROUND_TRUTH_SOURCE, rate, PLANAR, times, poses)


def _unit_directions(rng, count: int, planar: bool) -> np.ndarray:
    out = np.zeros((count, 3))
    if planar:
        v = rng.standard_normal((count, 2))
        out[:, :2] = v / np.linalg.norm(v, axis=1, keepdims=True)
    else:
        v = rng.standard_normal((count, 3))
        out = v / np.linalg.norm(v, axis=1, keepdims=True)
    return out


def _prefix_compose(steps: np.ndarray) -> np.ndarray:
    """Inclusive prefix products ``steps[0] * ... * steps[k]`` of packed
    SE(3) poses, by a work-efficient scan: the scan of the adjacent pairs'
    products gives the odd-indexed prefixes, and each of those composed
    with the next step an even-indexed one, about 2N composes in all.
    Quaternions are renormalized after every batched compose."""

    def compose(a, b):
        c = geom.pose3_compose(a, b)
        c[:, 3:] = geom.quat_normalize(c[:, 3:])
        return c

    out = np.array(steps, dtype=float)
    if out.shape[0] > 1:
        out[1::2] = _prefix_compose(compose(out[0:-1:2], out[1::2]))
        out[2::2] = compose(out[1:-1:2], out[2::2])
    return out


def corrupt(track: OdometryTrack, noise: NoiseProfile, seed: int):
    """Perturb every frame-to-frame increment of a track.

    Returns the corrupted track plus the exact injection record.  The
    error transform's translation is ``trans_per_frame`` times a uniform
    random unit direction, scaled per axis afterwards (the configured
    norm applies before scaling); its rotation is ``rot_deg_per_frame``
    about a uniform random axis.  Planar profiles restrict the direction
    to the horizontal plane and the axis to vertical, keeping z, roll
    and pitch of every output pose at exactly zero.
    """
    nominal = 1.0 / noise.frame_rate
    median_gap = float(np.median(np.diff(track.times)))
    if abs(median_gap - nominal) > 0.01 * nominal:
        raise DataError(
            f"track rate {1.0 / median_gap:.3f} Hz does not match noise profile "
            f"rate {noise.frame_rate:g} Hz"
        )

    steps = track.frame_count - 1
    planar = noise.dof_mode == PLANAR
    rng = np.random.default_rng(seed)

    directions = _unit_directions(rng, steps, planar)
    scale = np.asarray(noise.axis_scale, dtype=float)
    err_t = noise.trans_per_frame * directions * scale

    if planar:
        axes = np.zeros((steps, 3))
        axes[:, 2] = np.where(rng.random(steps) < 0.5, 1.0, -1.0)
    else:
        axes = _unit_directions(rng, steps, planar=False)
    err_q = geom.quat_from_rotvec(np.radians(noise.rot_deg_per_frame) * axes)

    error_poses = np.concatenate([err_t, err_q], axis=-1)
    record = NoiseInjection(
        trans_magnitudes=np.linalg.norm(err_t, axis=1),
        rot_magnitudes_deg=np.full(steps, float(noise.rot_deg_per_frame)),
        error_poses=error_poses,
    )

    if noise.trans_per_frame == 0.0 and noise.rot_deg_per_frame == 0.0:
        # nothing injected: pass the input poses through untouched
        out = OdometryTrack(
            noise.source, noise.frame_rate, noise.dof_mode, track.times, track.poses
        )
        return out, record

    true_rel = geom.pose3_relative(track.poses[:-1], track.poses[1:])
    measured = geom.pose3_compose(true_rel, error_poses)

    poses = np.empty_like(track.poses)
    poses[0] = track.poses[0]
    poses[1:] = geom.pose3_compose(track.poses[0], _prefix_compose(measured))
    poses[1:, 3:] = geom.quat_normalize(poses[1:, 3:])
    if planar:
        poses[1:, [2, 4, 5]] = 0.0

    out = OdometryTrack(
        noise.source, noise.frame_rate, noise.dof_mode, track.times, poses
    )
    return out, record


def default_placement(lateral_offset: float = DEFAULT_POLE_LATERAL_OFFSET) -> geom.Pose3:
    """Pole line parallel to the drive path, offset to the side."""
    return geom.Pose3.identity() if lateral_offset == 0.0 else geom.Pose3(
        np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, lateral_offset, 0.0])
    )


def simulate_landmark_observations(
    track: OdometryTrack,
    layout: LandmarkLayout,
    placement: geom.Pose3,
    model: DetectionModel,
    seed: int,
) -> ObservationSet:
    """Sweep the detector over a trajectory at the detection cadence.

    At every tick, each pole inside the range and bearing gates yields
    one observation of its pose relative to the robot, perturbed by the
    detector's Gaussian noise.  The robot pose at a tick is its frame
    where one falls on the tick, else interpolated geodesically between
    the bracketing frames.  All ticks are gated against all poles in one
    array pass; sightings come out in (tick, pole) order, and the noise
    is one (sightings, 6) draw in that order, translation before
    rotation (3 columns when one of the two sigmas is zero).
    """
    rng = np.random.default_rng(seed)
    template = layout.template()
    pole_world = geom.pose3_compose(placement.packed, template)

    span = float(track.times[-1] - track.times[0])
    tick_count = int(np.floor(span * model.rate + 1e-9)) + 1
    ticks = track.times[0] + np.arange(tick_count, dtype=float) / model.rate

    robot = track.poses_at(ticks)
    # (ticks, poles, 7), formed pole-major so that every elementwise pass
    # runs along the ticks
    rel = np.swapaxes(geom.pose3_relative(robot[None], pole_world[:, None]), 0, 1)
    dist = geom.norm3(rel[..., :3])
    with np.errstate(invalid="ignore"):
        bearing = np.arccos(
            np.clip(rel[..., 0] / np.where(dist == 0.0, 1.0, dist), -1.0, 1.0)
        )
    visible = (dist <= model.max_range) & (bearing <= np.radians(model.max_bearing_deg))
    tick_index, pole_ids = np.nonzero(visible)
    measured = rel[tick_index, pole_ids]
    del rel, dist, bearing, visible  # the sweep's arrays go before the sightings are built

    sigma_rot = np.radians(model.sigma_rot_deg)
    sigmas = [sigma for sigma in (model.sigma_trans, sigma_rot) if sigma > 0.0]
    if sigmas:
        noise = rng.normal(0.0, np.repeat(sigmas, 3), (pole_ids.size, 3 * len(sigmas)))
        if model.sigma_trans > 0.0:
            measured[:, :3] += noise[:, :3]
        if sigma_rot > 0.0:
            wobble = geom.quat_from_rotvec(noise[:, -3:])
            measured[:, 3:] = geom.quat_mul(measured[:, 3:], wobble)
    return ObservationSet(
        ticks[tick_index], pole_ids, measured, model.weight_trans(), model.weight_rot()
    )
