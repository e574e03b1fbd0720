"""Track/observation alignment tests."""

import numpy as np
import pytest

from tunnelgraph import geometry as geom
from tunnelgraph import simulate as sim
from tunnelgraph.sync import (
    DataError,
    FieldError,
    ObservationSet,
    OdometryTrack,
    RowError,
    align,
    with_weights,
)


def small_track(rate=5.0, frames=11):
    """Straight constant-speed track, handy for exact arithmetic."""
    times = np.arange(frames) / rate
    poses = np.tile(geom.POSE3_IDENTITY, (frames, 1))
    poses[:, 0] = 0.5 * times
    return OdometryTrack("toy", rate, "planar", times, poses)


def obs_at(*times, poles=None):
    """Sightings at the given timestamps, identity relative poses."""
    count = len(times)
    poles = np.zeros(count, dtype=int) if poles is None else poles
    return ObservationSet(times, poles, np.tile(geom.POSE3_IDENTITY, (count, 1)))


class TestAlign:
    def test_inserted_node_interpolates_the_gap(self):
        track = small_track()
        out = align(track, obs_at(0.3))
        assert out.node_count == track.frame_count + 1
        k = int(np.flatnonzero(~out.is_frame)[0])
        assert out.times[k] == 0.3
        # halfway between the frames at 0.2 and 0.4, straight-line motion
        assert abs(out.poses[k, 0] - 0.15) < 1e-12
        assert out.obs_node.tolist() == [k]
        assert out.observations.times[out.obs_order[0]] == 0.3

    def test_exact_timestamp_reuses_frame_node(self):
        track = small_track()
        out = align(track, obs_at(0.4))
        assert out.node_count == track.frame_count
        (node,) = out.obs_node
        assert out.times[node] == 0.4
        assert out.is_frame[node]
        assert np.array_equal(out.poses, track.poses)

    def test_shared_timestamp_inserts_one_node(self):
        track = small_track()
        out = align(track, obs_at(0.3, 0.3, poles=[1, 0]))
        assert out.node_count == track.frame_count + 1
        assert out.obs_node.size == 2
        assert out.obs_node[0] == out.obs_node[1]
        # sorted by (timestamp, pole)
        assert out.observations.pole_ids[out.obs_order].tolist() == [0, 1]

    def test_sightings_sorted_by_time_then_pole(self):
        track = small_track()
        obs = obs_at(0.6, 0.3, 0.4, 0.3, 0.6, poles=[0, 2, 1, 1, 3])
        out = align(track, obs)
        order = out.obs_order
        assert obs.times[order].tolist() == [0.3, 0.3, 0.4, 0.6, 0.6]
        assert obs.pole_ids[order].tolist() == [1, 2, 1, 0, 3]
        # every sighting sits on the node at its own timestamp
        np.testing.assert_array_equal(out.times[out.obs_node], obs.times[order])

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
        out = align(track, obs_at(0.5))
        mid = out.poses[~out.is_frame][0]
        expected = geom.interpolate(
            geom.Pose3.from_packed(poses[0]), geom.Pose3.from_packed(poses[1]), 0.5
        )
        assert np.allclose(mid, expected.packed, atol=1e-12)

    def test_observation_outside_span_raises(self):
        track = small_track()
        with pytest.raises(DataError, match="t=-0.1 "):
            align(track, obs_at(0.2, -0.1))
        with pytest.raises(DataError, match="t=2.01 "):
            align(track, obs_at(0.2, track.times[-1] + 0.01))
        with pytest.raises(DataError, match="t=nan "):
            align(track, obs_at(0.2, np.nan))


class TestTypes:
    @pytest.mark.parametrize("name", ["../escaped", "a/b", "", "two words", "dvso.", "~x"])
    def test_source_name_is_one_plain_word(self, name):
        times = np.arange(3) / 5.0
        poses = np.tile(geom.POSE3_IDENTITY, (3, 1))
        with pytest.raises(FieldError, match="source: must be one word"):
            OdometryTrack(name, 5.0, "planar", times, poses)
        for good in ("dvso", "ground_truth", "Cam-2"):
            assert OdometryTrack(good, 5.0, "planar", times, poses).source == good

    def test_track_validation(self):
        times = np.array([0.0, 0.1])
        poses = np.tile(geom.POSE3_IDENTITY, (2, 1))
        for rate in (0.0, np.nan, np.inf):
            with pytest.raises(DataError):
                OdometryTrack("x", rate, "planar", times, poses)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.1])
    def test_track_times_finite_and_increasing(self, bad):
        # NaN fails every comparison, so "not above the previous" misses it
        times = np.array([0.0, 0.1, 0.2])
        times[2] = bad
        with pytest.raises(RowError) as err:
            OdometryTrack("x", 5.0, "planar", times, np.tile(geom.POSE3_IDENTITY, (3, 1)))
        assert err.value.row == 2 and "timestamp" in str(err.value)

    def test_track_is_write_protected(self):
        track = small_track()
        with pytest.raises(ValueError):
            track.poses[0, 0] = 1.0
        with pytest.raises(ValueError):
            track.times[0] = -1.0

    def test_track_helpers(self):
        track = small_track(rate=5.0, frames=11)
        assert track.frame_count == 11

    def test_observation_validation(self):
        ident = geom.POSE3_IDENTITY
        with pytest.raises(DataError):
            ObservationSet([0.0], [0], np.zeros((1, 6)))
        with pytest.raises(DataError):
            ObservationSet([0.0, 1.0], [0], [ident, ident])
        with pytest.raises(RowError) as err:
            ObservationSet([0.0, 1.0], [0, 0], [ident, ident], w_trans=[1.0, -1.0])
        assert err.value.row == 1
        for bad in (np.nan, np.inf):  # NaN fails every comparison, so both need a test
            with pytest.raises(RowError) as err:
                ObservationSet([0.0, 1.0], [0, 0], [ident, ident], w_rot=[1.0, bad])
            assert err.value.row == 1 and "finite" in str(err.value)
        with pytest.raises(RowError) as err:
            ObservationSet([0.0, 1.0], [0, 0], [ident, [0, 0, 0, 2.0, 0, 0, 0]])
        assert err.value.row == 1 and "norm off unit" in str(err.value)
        # zero weight is a legal informationless probe
        probe = ObservationSet([0.0], [0], [ident], w_trans=0.0)
        assert probe[0].weight_trans == 0.0
        # within tolerance: stored unchanged; NaN passes to fail numerically later
        near = ObservationSet([0.0], [0], [[0, 0, 0, 1.0 + 5e-7, 0, 0, 0]])
        assert near.rel[0, 3] == 1.0 + 5e-7
        assert np.isnan(ObservationSet([0.0], [0], [[np.nan] * 7]).rel).all()

    def test_observation_set_rows_and_columns(self):
        obs = ObservationSet(
            [0.5, 0.25], [3, 1], np.tile(geom.POSE3_IDENTITY, (2, 1)), [4.0, 5.0], 6.0
        )
        assert len(obs) == 2
        row = obs[1]
        assert (row.pole_id, row.timestamp, row.weight_trans, row.weight_rot) == (
            1, 0.25, 5.0, 6.0,
        )
        assert [r.pole_id for r in obs] == [3, 1]
        np.testing.assert_array_equal(obs.w_rot, [6.0, 6.0])
        with pytest.raises(ValueError):
            obs.rel[0, 0] = 1.0
        with pytest.raises(ValueError):
            obs.w_trans[0] = 1.0
        empty = ObservationSet([], [], [])
        assert len(empty) == 0 and empty.rel.shape == (0, 7)
        assert list(empty) == []

    def test_with_weights(self):
        o = obs_at(0.2, 0.4, poles=[0, 1])
        o2 = with_weights(o, 25.0, 49.0)
        np.testing.assert_array_equal(o2.w_trans, [25.0, 25.0])
        np.testing.assert_array_equal(o2.w_rot, [49.0, 49.0])
        np.testing.assert_array_equal(o2.times, o.times)
        np.testing.assert_array_equal(o2.pole_ids, o.pole_ids)
        np.testing.assert_array_equal(o2.rel, o.rel)
        np.testing.assert_array_equal(o.w_trans, [1.0, 1.0])

    @pytest.mark.parametrize("weights", [(-1.0, 1.0), (1.0, np.nan), (np.inf, 1.0)])
    def test_with_weights_checks_only_the_new_weights(self, weights):
        o = obs_at(0.2, 0.4, poles=[0, 1])
        with pytest.raises(DataError, match="information weights"):
            with_weights(o, *weights)
        # the sightings themselves were checked once, when the set was built:
        # their read-only columns come through as they are
        o2 = with_weights(o, 4.0, 9.0)
        assert o2.rel is o.rel and o2.times is o.times and o2.pole_ids is o.pole_ids
        assert not o2.w_trans.flags.writeable
