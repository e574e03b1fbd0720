"""Error reporting: rate identities, merging, closure, ATE."""

import numpy as np
import pytest

import tunnelgraph.geometry as geom
import tunnelgraph.graph as gmod
import tunnelgraph.metrics as metrics
import tunnelgraph.optimizer as opt
import tunnelgraph.simulate as sim
import tunnelgraph.sync as sync
from tunnelgraph.metrics import ErrorReport
from tunnelgraph.sync import DataError, FULL3D, PLANAR


def corrupted_scenario(seed=0, rate=5.0, with_obs=True, obs_weight=None):
    profile = sim.TrajectoryProfile(straight_length=20.0)
    truth = sim.generate_ground_truth(profile, rate)
    noise = sim.NoiseProfile("sim", rate, 0.002, 0.03)
    track, injection = sim.corrupt(truth, noise, seed)
    observations = sync.ObservationSet([], [], [])
    if with_obs:
        observations = sim.simulate_landmark_observations(
            truth, sim.LandmarkLayout(), sim.default_placement(),
            sim.DetectionModel(), seed + 1,
        )
        if obs_weight is not None:
            observations = sync.with_weights(observations, obs_weight, obs_weight)
    aligned = sync.align(track, observations)
    graph = gmod.build_graph(aligned, sim.LandmarkLayout(), FULL3D)
    return graph, track, truth, injection


class TestRateIdentity:
    def test_headline_values(self):
        visual = ErrorReport("a", 5.0, 2030, 0.00148, 0.043, 1.0, 0.1)
        assert abs(visual.trans_per_second - 0.0074) < 1e-12
        assert abs(visual.rot_deg_per_second - 0.215) < 1e-12
        wheel = ErrorReport("b", 50.0, 20300, 0.00018, 0.002, 1.0, 0.1)
        assert abs(wheel.trans_per_second - 0.009) < 1e-12
        assert abs(wheel.rot_deg_per_second - 0.1) < 1e-12

    def test_identity_is_exact_multiplication(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            per_frame = float(rng.uniform(1e-6, 1.0))
            rate = float(rng.uniform(0.5, 100.0))
            r = ErrorReport("x", rate, 10, per_frame, per_frame, 0.0, 0.0)
            assert r.trans_per_second == per_frame * rate
            assert r.rot_deg_per_second == per_frame * rate


class TestCorrections:
    def test_zero_when_states_match_measurements(self):
        graph, _, _, _ = corrupted_scenario()
        tmag, rmag = metrics.correction_magnitudes(graph)
        assert tmag.max() < 1e-12
        assert rmag.max() < 1e-12

    def test_report_matches_frame_level_recomputation(self):
        graph, track, _, _ = corrupted_scenario(seed=2)
        solved, _ = opt.optimize(graph)
        report = metrics.per_frame_corrections(solved)

        frames = metrics.frame_node_indices(solved)
        frame_states = solved.states[frames]
        raw_steps = geom.pose3_relative(track.poses[:-1], track.poses[1:])
        opt_steps = geom.pose3_relative(frame_states[:-1], frame_states[1:])
        corr = geom.se3_log(
            geom.pose3_compose(geom.pose3_inverse(raw_steps), opt_steps)
        )
        tmag = np.linalg.norm(corr[:, :3], axis=1)
        rmag = np.degrees(np.linalg.norm(corr[:, 3:], axis=1))
        assert report.frame_count == track.frame_count
        assert report.trans_per_frame == pytest.approx(tmag.mean(), abs=1e-12)
        assert report.rot_deg_per_frame == pytest.approx(rmag.mean(), abs=1e-12)

    def test_zero_weight_observations_change_nothing(self):
        with_obs, _, _, _ = corrupted_scenario(seed=3, obs_weight=0.0)
        without, _, _, _ = corrupted_scenario(seed=3, with_obs=False)
        assert with_obs.node_count > without.node_count  # nodes were inserted
        a, _ = opt.optimize(with_obs)
        b, _ = opt.optimize(without)
        ra = metrics.per_frame_corrections(a)
        rb = metrics.per_frame_corrections(b)
        assert abs(ra.trans_per_frame - rb.trans_per_frame) < 1e-9
        assert abs(ra.rot_deg_per_frame - rb.rot_deg_per_frame) < 1e-9
        assert abs(ra.closure_optimized - rb.closure_optimized) < 1e-9

    def test_unconstrained_flagged(self):
        graph, _, _, _ = corrupted_scenario(with_obs=False)
        solved, _ = opt.optimize(graph)
        report = metrics.per_frame_corrections(solved)
        assert report.unconstrained
        assert report.trans_per_frame < 1e-12

    def test_merged_measurements_without_insertion_are_raw(self):
        graph, _, _, _ = corrupted_scenario(with_obs=False)
        merged, frames = metrics.merged_measurements(graph)
        np.testing.assert_array_equal(merged, graph.odo_meas)
        np.testing.assert_array_equal(frames, np.arange(graph.node_count))


class TestClosure:
    def test_closed_loop_is_zero(self):
        poses = np.zeros((5, 7))
        poses[:, 3] = 1.0
        poses[1:4, 0] = [1.0, 1.0, 0.5]
        xy, z = metrics.closure_error(poses, FULL3D)
        assert xy == 0.0 and z == 0.0

    def test_one_way_straight_is_length(self):
        profile = sim.TrajectoryProfile(straight_length=100.0, return_leg=False)
        truth = sim.generate_ground_truth(profile, 5.0)
        xy, _ = metrics.closure_error(truth.poses, FULL3D)
        assert xy == pytest.approx(100.0, abs=1e-9)

    def test_matches_forward_integration_of_injection(self):
        # rebuild the corrupted endpoint independently: compose each true
        # increment with its recorded error transform, in order
        profile = sim.TrajectoryProfile()
        truth = sim.generate_ground_truth(profile, 5.0)
        track, injection = sim.corrupt(truth, sim.dvso_preset(), seed=11)
        true_steps = geom.pose3_relative(truth.poses[:-1], truth.poses[1:])
        pose = truth.poses[0]
        for k in range(true_steps.shape[0]):
            step = geom.pose3_compose(true_steps[k], injection.error_poses[k])
            pose = geom.pose3_compose(pose, step)
        expected = float(np.hypot(pose[0] - truth.poses[0, 0], pose[1] - truth.poses[0, 1]))
        xy, _ = metrics.closure_error(track.poses, FULL3D)
        assert xy == pytest.approx(expected, abs=1e-9)

    def test_planar_mode_has_no_vertical_component(self):
        poses = np.array([[0.0, 0.0, 0.0], [0.3, 0.4, 1.0]])
        xy, z = metrics.closure_error(poses, PLANAR)
        assert xy == pytest.approx(0.5, abs=1e-15)
        assert z == 0.0


class TestPhases:
    def test_phase_means_recombine_to_overall_mean(self):
        graph, track, _, _ = corrupted_scenario(seed=5)
        solved, _ = opt.optimize(graph)
        report = metrics.per_frame_corrections(solved)
        profile = sim.TrajectoryProfile(straight_length=20.0)
        phases = metrics.phase_breakdown(solved, profile.phase_intervals())
        total = sum(count for count, _, _ in phases.values())
        assert total == report.frame_count - 1
        weighted = sum(count * tmean for count, tmean, _ in phases.values())
        assert weighted / total == pytest.approx(report.trans_per_frame, rel=1e-9)


class TestAte:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(1)
        times = np.arange(20.0)
        pos = rng.standard_normal((20, 3))
        assert metrics.ate_rmse(times, pos, times, pos) == pytest.approx(0.0, abs=1e-12)

    def test_rigid_transform_removed(self):
        rng = np.random.default_rng(2)
        times = np.arange(50.0)
        ref = rng.standard_normal((50, 3))
        q = geom.quat_from_rotvec(np.array([0.3, -0.2, 0.9]))
        est = geom.quat_rotate(q, ref) + np.array([5.0, -2.0, 1.0])
        assert metrics.ate_rmse(times, est, times, ref) < 1e-9

    def test_offset_without_alignment(self):
        times = np.arange(10.0)
        ref = np.zeros((10, 3))
        ref[:, 0] = np.arange(10.0)
        est = ref + np.array([0.0, 0.1, 0.0])
        out = metrics.ate_rmse(times, est, times, ref, rigid_align=False)
        assert out == pytest.approx(0.1, abs=1e-12)

    def test_timestamp_mismatch_rejected(self):
        times = np.arange(10.0)
        pos = np.zeros((10, 3))
        with pytest.raises(DataError):
            metrics.ate_rmse(times + 0.5, pos, times, pos)
