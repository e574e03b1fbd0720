"""Track/observation alignment tests."""

import numpy as np
import pytest

from tunnelgraph import geometry as geom
from tunnelgraph import simulate as sim
from tunnelgraph.sync import (
    DataError,
    LandmarkObservation,
    OdometryTrack,
    align,
    with_weights,
)


def small_track(rate=5.0, frames=11):
    """Straight constant-speed track, handy for exact arithmetic."""
    times = np.arange(frames) / rate
    poses = np.tile(geom.POSE3_IDENTITY, (frames, 1))
    poses[:, 0] = 0.5 * times
    return OdometryTrack("toy", rate, "planar", times, poses)


def obs_at(t, pole=0, rel=None):
    if rel is None:
        rel = geom.POSE3_IDENTITY
    return LandmarkObservation(pole, t, rel)


class TestAlign:
    def test_inserted_node_interpolates_the_gap(self):
        track = small_track()
        out = align(track, [obs_at(0.3)])
        assert out.node_count == track.frame_count + 1
        k = int(np.flatnonzero(~out.is_frame)[0])
        assert out.times[k] == 0.3
        # halfway between the frames at 0.2 and 0.4, straight-line motion
        assert abs(out.poses[k, 0] - 0.15) < 1e-12
        assert out.attachments == [(k, out.attachments[0][1])]
        assert out.attachments[0][1].timestamp == 0.3

    def test_exact_timestamp_reuses_frame_node(self):
        track = small_track()
        out = align(track, [obs_at(0.4)])
        assert out.node_count == track.frame_count
        node, _ = out.attachments[0]
        assert out.times[node] == 0.4
        assert out.is_frame[node]
        assert np.array_equal(out.poses, track.poses)

    def test_shared_timestamp_inserts_one_node(self):
        track = small_track()
        out = align(track, [obs_at(0.3, pole=1), obs_at(0.3, pole=0)])
        assert out.node_count == track.frame_count + 1
        assert len(out.attachments) == 2
        assert out.attachments[0][0] == out.attachments[1][0]
        # sorted by (timestamp, pole)
        assert [a[1].pole_id for a in out.attachments] == [0, 1]

    def test_split_parts_compose_to_raw_step(self):
        prof = sim.TrajectoryProfile()
        track = sim.generate_ground_truth(prof, 5.0)
        track, _ = sim.corrupt(track, sim.dvso_preset(), seed=8)
        obs = sim.simulate_landmark_observations(
            track, sim.LandmarkLayout(), sim.default_placement(),
            sim.DetectionModel(), seed=9,
        )
        out = align(track, obs)
        frame_nodes = np.flatnonzero(out.is_frame)
        assert frame_nodes.size == track.frame_count
        raw = geom.pose3_relative(track.poses[:-1], track.poses[1:])
        for f in range(0, frame_nodes.size - 1, 97):
            lo, hi = frame_nodes[f], frame_nodes[f + 1]
            merged = out.meas[lo]
            for k in range(lo + 1, hi):
                merged = geom.pose3_compose(merged, out.meas[k])
            assert np.allclose(merged, raw[f], atol=1e-9)

    def test_interpolated_pose_sits_on_the_geodesic(self):
        # quarter-turn step: inserted pose must bulge off the chord
        times = np.array([0.0, 1.0])
        poses = np.stack([
            geom.POSE3_IDENTITY,
            geom.SE2.to_pose3([1.0, 1.0, np.pi / 2]),
        ])
        track = OdometryTrack("arc", 1.0, "full3d", times, poses)
        out = align(track, [obs_at(0.5)])
        mid = out.poses[~out.is_frame][0]
        expected = geom.interpolate(
            geom.Pose3.from_packed(poses[0]), geom.Pose3.from_packed(poses[1]), 0.5
        )
        assert np.allclose(mid, expected.packed, atol=1e-12)

    def test_observation_outside_span_raises(self):
        track = small_track()
        with pytest.raises(DataError):
            align(track, [obs_at(-0.1)])
        with pytest.raises(DataError):
            align(track, [obs_at(track.times[-1] + 0.01)])

    def test_odometry_weights_fill_all_edges(self):
        track = small_track()
        out = align(track, [obs_at(0.3)], odom_weights=(4.0, 9.0))
        assert out.meas.shape == (out.node_count - 1, 7)
        assert np.all(out.meas_weight_trans == 4.0)
        assert np.all(out.meas_weight_rot == 9.0)


class TestTypes:
    def test_track_validation(self):
        times = np.array([0.0, 0.1])
        poses = np.tile(geom.POSE3_IDENTITY, (2, 1))
        with pytest.raises(DataError):
            OdometryTrack("x", 0.0, "planar", times, poses)
        with pytest.raises(DataError):
            OdometryTrack("x", 5.0, "spherical", times, poses)
        with pytest.raises(DataError):
            OdometryTrack("x", 5.0, "planar", times[:1], poses[:1])
        with pytest.raises(DataError):
            OdometryTrack("x", 5.0, "planar", times[::-1], poses)
        with pytest.raises(DataError):
            OdometryTrack("x", 5.0, "planar", times, poses[:, :3])
        off_unit = poses.copy()
        off_unit[1, 3] = 1.0 + 2e-6
        with pytest.raises(DataError):
            OdometryTrack("x", 5.0, "planar", times, off_unit)
        # within tolerance: accepted and stored unchanged, not renormalized
        off_unit[1, 3] = 1.0 + 5e-7
        assert OdometryTrack("x", 5.0, "planar", times, off_unit).poses[1, 3] == 1.0 + 5e-7

    def test_track_is_write_protected(self):
        track = small_track()
        with pytest.raises(ValueError):
            track.poses[0, 0] = 1.0
        with pytest.raises(ValueError):
            track.times[0] = -1.0

    def test_track_helpers(self):
        track = small_track(rate=5.0, frames=11)
        assert track.frame_count == 11
        assert abs(track.duration - 2.0) < 1e-12

    def test_observation_validation(self):
        with pytest.raises(DataError):
            LandmarkObservation(0, 0.0, np.zeros(6))
        with pytest.raises(DataError):
            LandmarkObservation(0, 0.0, geom.POSE3_IDENTITY, weight_trans=-1.0)
        with pytest.raises(DataError):
            LandmarkObservation(0, 0.0, [0, 0, 0, 2.0, 0, 0, 0])
        # zero weight is a legal informationless probe
        probe = LandmarkObservation(0, 0.0, geom.POSE3_IDENTITY, weight_trans=0.0)
        assert probe.weight_trans == 0.0

    def test_with_weights(self):
        o = obs_at(0.2)
        o2 = with_weights(o, 25.0, 49.0)
        assert o2.weight_trans == 25.0 and o2.weight_rot == 49.0
        assert o2.timestamp == o.timestamp and o2.pole_id == o.pole_id
        assert o.weight_trans == 1.0
