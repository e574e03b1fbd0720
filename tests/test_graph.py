"""Graph assembly and residual evaluation."""

import numpy as np
import pytest

import tunnelgraph.geometry as geom
import tunnelgraph.graph as gmod
import tunnelgraph.simulate as sim
import tunnelgraph.sync as sync
from tunnelgraph.sync import DataError, FULL3D, PLANAR


def straight_track(frames=11, rate=2.0, speed=0.5):
    times = np.arange(frames) / rate
    poses = np.zeros((frames, 7))
    poses[:, 0] = speed * times
    poses[:, 3] = 1.0
    return sync.OdometryTrack("sim", rate, FULL3D, times, poses)


def sightings(*rows):
    """ObservationSet of (timestamp, pole_id, rel_xyz) rows, identity rotations."""
    times, poles, xyz = zip(*rows)
    rel = np.tile(geom.POSE3_IDENTITY, (len(rows), 1))
    rel[:, :3] = xyz
    return sync.ObservationSet(times, poles, rel)


NO_SIGHTINGS = sync.ObservationSet([], [], [])


def small_problem(mode=FULL3D, position_only=False, landmark_fixed=False):
    # poles on a rigid 2 m spaced line starting at world x = 2.125, y = 1;
    # robot drives x = 0.5 t, so every measurement below is exactly
    # consistent and the assembled problem has zero cost
    track = straight_track()
    observations = sightings(
        (0.25, 0, (2.0, 1.0, 0.0)),
        (2.0, 1, (3.125, 1.0, 0.0)),
        (3.75, 2, (4.25, 1.0, 0.0)),
    )
    aligned = sync.align(track, observations)
    layout = sim.LandmarkLayout(count=3, spacing=2.0)
    graph = gmod.build_graph(
        aligned, layout, mode,
        position_only=position_only, landmark_fixed=landmark_fixed,
    )
    return graph, track, observations, layout


class TestBuild:
    def test_counts_match_alignment(self):
        graph, track, observations, layout = small_problem()
        inserted = 2  # 0.25 and 3.75 fall between frames; 2.0 is a frame time
        assert graph.node_count == track.frame_count + inserted
        assert graph.odo_count == graph.node_count - 1
        assert graph.obs_count == len(observations)
        assert graph.pole_count == layout.count
        assert int(graph.is_frame.sum()) == track.frame_count

    def test_first_observation_pins_initial_landmark(self):
        graph, _, _, _ = small_problem()
        residuals = gmod.observation_residuals(graph)
        first = np.argmin(graph.obs_node)
        np.testing.assert_allclose(residuals[first], 0.0, atol=1e-12)

    def test_planar_projection_of_states(self):
        graph, track, _, _ = small_problem(mode=PLANAR)
        assert graph.states.shape[1] == 3
        frames = graph.is_frame
        expected = geom.pose3_to_pose2_packed(track.poses)
        np.testing.assert_allclose(graph.states[frames], expected, atol=1e-12)

    def test_no_observations_flags_unconstrained(self):
        track = straight_track()
        aligned = sync.align(track, NO_SIGHTINGS)
        graph = gmod.build_graph(aligned, sim.LandmarkLayout(), FULL3D)
        assert graph.unconstrained
        assert graph.obs_count == 0

    def test_raw_states_snapshot_is_independent(self):
        graph, _, _, _ = small_problem()
        before = graph.raw_states.copy()
        graph.states[:, 0] += 1.0
        np.testing.assert_array_equal(graph.raw_states, before)

    def test_rejects_unknown_mode(self):
        track = straight_track()
        aligned = sync.align(track, NO_SIGHTINGS)
        with pytest.raises(DataError):
            gmod.build_graph(aligned, sim.LandmarkLayout(), "spherical")

    def test_flags_recorded(self):
        graph, _, _, _ = small_problem(position_only=True, landmark_fixed=True)
        assert graph.position_only and graph.landmark_fixed


class TestConnectivity:
    def test_default_problem_is_connected(self):
        graph, _, _, _ = small_problem()
        assert gmod.is_connected(graph)

    def test_chain_gap_detected(self):
        # without observations nothing can bridge a cut odometry chain
        track = straight_track()
        graph = gmod.build_graph(sync.align(track, NO_SIGHTINGS), sim.LandmarkLayout(), FULL3D)
        keep = graph.odo_i != 4
        graph.odo_i = graph.odo_i[keep]
        graph.odo_j = graph.odo_j[keep]
        graph.odo_meas = graph.odo_meas[keep]
        graph.odo_w_trans = graph.odo_w_trans[keep]
        graph.odo_w_rot = graph.odo_w_rot[keep]
        assert not gmod.is_connected(graph)

    def test_landmark_bridges_a_gap(self):
        # observations from both sides of a broken chain reconnect it
        graph, _, _, _ = small_problem()
        keep = graph.odo_i != 6
        graph.odo_i = graph.odo_i[keep]
        graph.odo_j = graph.odo_j[keep]
        graph.odo_meas = graph.odo_meas[keep]
        graph.odo_w_trans = graph.odo_w_trans[keep]
        graph.odo_w_rot = graph.odo_w_rot[keep]
        # obs nodes 1, 5 (frame), 9 straddle the cut at edge 6->7
        assert (graph.obs_node.min() <= 6) and (graph.obs_node.max() >= 7)
        assert gmod.is_connected(graph)


class TestResiduals:
    def test_exact_chain_has_zero_cost(self):
        graph, _, _, _ = small_problem()
        # measurements were built from the states themselves
        assert gmod.total_cost(graph) < 1e-20

    def test_translation_offset_residual(self):
        # two identical poses, measurement claims 0.1 m forward
        states = np.array([[0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0]], float)
        meas = np.array([[0.1, 0, 0, 1, 0, 0, 0]])
        graph = gmod.PoseGraph(
            source="hand", rate=1.0, dof_mode=FULL3D,
            times=np.array([0.0, 1.0]),
            is_frame=np.array([True, True]),
            states=states,
            landmark=geom.POSE3_IDENTITY.copy(),
            template=np.array([[0, 0, 0, 1, 0, 0, 0]], float),
            odo_i=np.array([0]), odo_j=np.array([1]),
            odo_meas=meas,
            odo_w_trans=np.array([4.0]), odo_w_rot=np.array([1.0]),
            obs_node=np.array([], int), obs_pole=np.array([], int),
            obs_meas=np.zeros((0, 7)),
            obs_w_trans=np.array([]), obs_w_rot=np.array([]),
        )
        (r,) = gmod.odometry_residuals(graph)
        np.testing.assert_allclose(r, [-0.1, 0, 0, 0, 0, 0], atol=1e-15)
        odo, obs = gmod.per_edge_costs(graph)
        assert odo[0] == pytest.approx(4.0 * 0.1 * 0.1)
        assert obs.size == 0
        assert gmod.total_cost(graph) == pytest.approx(odo[0])

    def test_residual_matches_direct_log(self):
        rng = np.random.default_rng(5)
        graph, _, _, _ = small_problem()
        states = graph.states.copy()
        states = geom.pose3_compose(
            states, geom.se3_exp(0.1 * rng.standard_normal((graph.node_count, 6)))
        )
        res = gmod.odometry_residuals(graph, states)
        for e in range(graph.odo_count):
            rel = geom.pose3_relative(states[graph.odo_i[e]], states[graph.odo_j[e]])
            direct = geom.se3_log(
                geom.pose3_compose(geom.pose3_inverse(graph.odo_meas[e]), rel)
            )
            np.testing.assert_allclose(res[e], direct, atol=1e-12)

    def test_observation_residual_matches_direct_log(self):
        rng = np.random.default_rng(6)
        graph, _, _, _ = small_problem()
        landmark = geom.pose3_compose(
            graph.landmark, geom.se3_exp(0.05 * rng.standard_normal(6))
        )
        res = gmod.observation_residuals(graph, landmark=landmark)
        for e in range(graph.obs_count):
            target = geom.pose3_compose(landmark, graph.template[graph.obs_pole[e]])
            rel = geom.pose3_relative(graph.states[graph.obs_node[e]], target)
            direct = geom.se3_log(
                geom.pose3_compose(geom.pose3_inverse(graph.obs_meas[e]), rel)
            )
            np.testing.assert_allclose(res[e], direct, atol=1e-12)

    def test_position_only_ignores_observed_rotation(self):
        graph, _, _, _ = small_problem(position_only=True)
        # twist every observation's rotation; cost must not move
        base = gmod.total_cost(graph)
        spun = graph.obs_meas.copy()
        yaw = geom.quat_from_rotvec(np.array([0.0, 0.0, 0.7]))
        spun[:, 3:] = geom.quat_mul(spun[:, 3:], yaw)
        graph.obs_meas = spun
        assert gmod.total_cost(graph) == pytest.approx(base, abs=1e-12)

    def test_position_only_still_counts_translation(self):
        graph, _, _, _ = small_problem(position_only=True)
        graph.obs_meas[:, 0] += 0.25
        assert gmod.total_cost(graph) > 1e-3


class TestTemplate:
    def test_pole_world_poses_compose_template(self):
        graph, _, _, _ = small_problem()
        world = graph.pole_world_poses()
        expected = geom.pose3_compose(graph.landmark, graph.template)
        np.testing.assert_array_equal(world, expected)

    def test_template_spacing_is_rigid(self):
        layout = sim.LandmarkLayout(count=4, spacing=18.0)
        template = layout.template()
        gaps = np.diff(template[:, 0])
        np.testing.assert_allclose(gaps, 18.0, atol=1e-15)
        np.testing.assert_allclose(template[:, 1:3], 0.0, atol=1e-15)

    def test_with_solution_keeps_problem_data(self):
        graph, _, _, _ = small_problem()
        new_states = graph.states + 0.0
        new_states[:, 0] += 1.0
        solved = graph.with_solution(new_states, graph.landmark.copy())
        np.testing.assert_array_equal(solved.odo_meas, graph.odo_meas)
        np.testing.assert_array_equal(solved.template, graph.template)
        np.testing.assert_array_equal(solved.raw_states, graph.raw_states)
        assert solved.states[0, 0] == graph.states[0, 0] + 1.0


class TestRetract:
    def test_matches_manual_composition(self):
        rng = np.random.default_rng(7)
        graph, _, _, _ = small_problem()
        delta = 0.01 * rng.standard_normal((graph.node_count, 6))
        ldelta = 0.01 * rng.standard_normal(6)
        states, landmark = gmod.retract(
            graph, graph.states, graph.landmark, delta, ldelta
        )
        expected = geom.pose3_compose(graph.states, geom.se3_exp(delta))
        np.testing.assert_allclose(states, expected, atol=1e-15)
        expected_lm = geom.pose3_compose(graph.landmark, geom.se3_exp(ldelta))
        np.testing.assert_allclose(landmark, expected_lm, atol=1e-15)

    def test_zero_delta_is_identity(self):
        graph, _, _, _ = small_problem(mode=PLANAR)
        states, landmark = gmod.retract(
            graph, graph.states, graph.landmark,
            np.zeros((graph.node_count, 3)), np.zeros(3),
        )
        np.testing.assert_allclose(states, graph.states, atol=1e-15)
        np.testing.assert_allclose(landmark, graph.landmark, atol=1e-15)
