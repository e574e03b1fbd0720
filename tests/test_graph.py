"""Graph assembly and residual evaluation."""

import dataclasses

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
NOT_A_CHAIN = r"odometry edge e must join node e to node e \+ 1"


def small_problem(mode=FULL3D, landmark_fixed=False):
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
    graph = gmod.build_graph(aligned, layout, mode, landmark_fixed=landmark_fixed)
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
        residuals = gmod.evaluate(graph).r_obs
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

    def test_rejects_unknown_mode(self):
        track = straight_track()
        aligned = sync.align(track, NO_SIGHTINGS)
        with pytest.raises(DataError):
            gmod.build_graph(aligned, sim.LandmarkLayout(), "spherical")

    def test_odometry_weights_fill_all_edges(self):
        track = straight_track()
        aligned = sync.align(track, sightings((0.25, 0, (2.0, 1.0, 0.0))))
        layout = sim.LandmarkLayout(count=3, spacing=2.0)
        graph = gmod.build_graph(aligned, layout, FULL3D, odom_weights=(4.0, 9.0))
        assert graph.odo_w_trans.shape == graph.odo_w_rot.shape == (graph.odo_count,)
        assert np.all(graph.odo_w_trans == 4.0) and np.all(graph.odo_w_rot == 9.0)

    @pytest.mark.parametrize("pole", [0, 3])
    def test_pole_missing_from_template_rejected(self, pole):
        # also when the first sighting, which places the landmark, names it
        aligned = sync.align(
            straight_track(), sightings((0.25, pole, (2.0, 1.0, 0.0)), (1.0, 5, (1.0, 1.0, 0.0)))
        )
        layout = sim.LandmarkLayout(count=3, spacing=2.0)
        with pytest.raises(DataError, match="observation edge references a missing pole id"):
            gmod.build_graph(aligned, layout, FULL3D)

    def test_flags_recorded(self):
        graph, _, _, _ = small_problem(landmark_fixed=True)
        assert graph.landmark_fixed


class TestConnectivity:
    """The odometry chain connects every node: edge e joins node e to node e + 1."""

    def test_default_problem_is_connected(self):
        graph, _, _, _ = small_problem()
        np.testing.assert_array_equal(graph.odo_i, np.arange(graph.node_count - 1))
        np.testing.assert_array_equal(graph.odo_j, graph.odo_i + 1)

    @pytest.mark.parametrize("nodes", [0, 1])
    def test_needs_two_nodes(self, nodes):
        # one node has no odometry edge, and the gauge would leave no variable
        graph, _, _, _ = small_problem()
        with pytest.raises(DataError, match=f"at least two nodes, got {nodes}"):
            dataclasses.replace(
                graph, times=graph.times[:nodes], is_frame=graph.is_frame[:nodes],
                states=graph.states[:nodes], odo_i=graph.odo_i[:0], odo_j=graph.odo_j[:0],
                odo_meas=graph.odo_meas[:0], odo_w_trans=graph.odo_w_trans[:0],
                odo_w_rot=graph.odo_w_rot[:0], obs_node=graph.obs_node[:0],
                obs_pole=graph.obs_pole[:0], obs_meas=graph.obs_meas[:0],
                obs_w_trans=graph.obs_w_trans[:0], obs_w_rot=graph.obs_w_rot[:0],
            )

    def test_chain_gap_detected(self):
        # without observations nothing could hold the nodes past a cut
        track = straight_track()
        graph = gmod.build_graph(sync.align(track, NO_SIGHTINGS), sim.LandmarkLayout(), FULL3D)
        keep = graph.odo_i != 4
        with pytest.raises(DataError, match=NOT_A_CHAIN):
            dataclasses.replace(
                graph, odo_i=graph.odo_i[keep], odo_j=graph.odo_j[keep],
                odo_meas=graph.odo_meas[keep], odo_w_trans=graph.odo_w_trans[keep],
                odo_w_rot=graph.odo_w_rot[keep],
            )

    @pytest.mark.parametrize("case", ["cut", "skipped", "reversed", "swapped"])
    def test_odometry_must_chain_the_nodes(self, case):
        graph, _, _, _ = small_problem()
        i, j = graph.odo_i.copy(), graph.odo_j.copy()
        if case == "cut":  # observations on both sides of 6 -> 7 do not bridge it
            assert graph.obs_node.min() <= 6 and graph.obs_node.max() >= 7
            i, j = i[i != 6], j[i != 6]
        elif case == "skipped":  # 4 -> 6 in place of 4 -> 5
            j[4] = 6
        elif case == "reversed":
            i[4], j[4] = j[4], i[4]
        else:  # the edge set is the chain's, in another order
            i[[2, 7]], j[[2, 7]] = i[[7, 2]], j[[7, 2]]
        edges = {
            "odo_i": i, "odo_j": j, "odo_meas": graph.odo_meas[: i.size],
            "odo_w_trans": graph.odo_w_trans[: i.size], "odo_w_rot": graph.odo_w_rot[: i.size],
        }
        with pytest.raises(DataError, match=NOT_A_CHAIN):
            dataclasses.replace(graph, **edges)


    def test_sightings_must_be_ordered_by_node(self):
        graph, _, _, _ = small_problem()
        assert np.all(np.diff(graph.obs_node) > 0)
        swap = np.array([1, 0, 2])
        with pytest.raises(DataError, match="observation edges must be ordered by node"):
            dataclasses.replace(
                graph, obs_node=graph.obs_node[swap], obs_pole=graph.obs_pole[swap],
                obs_meas=graph.obs_meas[swap], obs_w_trans=graph.obs_w_trans[swap],
                obs_w_rot=graph.obs_w_rot[swap],
            )
        # several sightings of one node are one contiguous run
        repeat = np.array([0, 1, 1, 2])
        shared = dataclasses.replace(
            graph, obs_node=graph.obs_node[repeat], obs_pole=graph.obs_pole[repeat],
            obs_meas=graph.obs_meas[repeat], obs_w_trans=graph.obs_w_trans[repeat],
            obs_w_rot=graph.obs_w_rot[repeat],
        )
        assert shared.obs_count == 4

class TestRowRules:
    """A graph's rows obey the rules that tracks and sighting sets apply."""

    @pytest.mark.parametrize(
        "name, row, value, message",
        [
            ("obs_w_rot", 1, -5.0, "observation weights row 1: information weights must be"),
            ("odo_w_trans", 4, np.inf, "odometry weights row 4: information weights must be"),
            ("template", (2, 3), 3.0, "template row 2: quaternion norm off unit by 2"),
            ("times", 3, np.nan, "node times row 3: timestamp nan is not finite"),
            ("times", 3, 0.5, "node times row 3: timestamp 0.5 does not increase past 0.5"),
        ],
        ids=["negative-weight", "infinite-weight", "non-unit-quaternion", "nan-time",
             "repeated-time"],
    )
    def test_bad_row_rejected(self, name, row, value, message):
        graph, _, _, _ = small_problem()
        column = getattr(graph, name).copy()
        column[row] = value
        with pytest.raises(DataError, match=message):
            dataclasses.replace(graph, **{name: column})

    def test_planar_states_hold_no_quaternion(self):
        # [x, y, yaw] has no quaternion to check, so any finite yaw is accepted
        graph, _, _, _ = small_problem(mode=PLANAR)
        dataclasses.replace(graph, landmark=np.array([1.0, 2.0, 3.0]))


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
        ev = gmod.evaluate(graph)
        (r,) = ev.r_odo
        np.testing.assert_allclose(r, [-0.1, 0, 0, 0, 0, 0], atol=1e-15)
        assert ev.cost == pytest.approx(4.0 * 0.1 * 0.1)  # the translation weight is 4
        assert ev.r_obs.size == 0
        assert gmod.total_cost(graph) == ev.cost
        # Huber at delta 0.1: the edge's norm 0.2 is past the cut, so its cost
        # is 2 * 0.1 * 0.2 - 0.1^2 and its weight is scaled by 0.1 / 0.2
        robust = gmod.evaluate(graph, huber_delta=0.1)
        assert robust.cost == pytest.approx(0.03)
        np.testing.assert_allclose(robust.w_odo, 0.5 * np.array(ev.w_odo), rtol=1e-12)
        assert np.array(ev.w_odo).tolist() == [[4.0], [1.0]]  # (translation, rotation)
        assert gmod.total_cost(graph, huber_delta=0.1) == robust.cost

    def test_residual_matches_direct_log(self):
        rng = np.random.default_rng(5)
        graph, _, _, _ = small_problem()
        states = graph.states.copy()
        states = geom.pose3_compose(
            states, geom.se3_exp(0.1 * rng.standard_normal((graph.node_count, 6)))
        )
        res = gmod.evaluate(graph, states).r_odo
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
        res = gmod.evaluate(graph, landmark=landmark).r_obs
        for e in range(graph.obs_count):
            target = geom.pose3_compose(landmark, graph.template[graph.obs_pole[e]])
            rel = geom.pose3_relative(graph.states[graph.obs_node[e]], target)
            direct = geom.se3_log(
                geom.pose3_compose(geom.pose3_inverse(graph.obs_meas[e]), rel)
            )
            np.testing.assert_allclose(res[e], direct, atol=1e-12)


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


class TestRetract:
    def test_matches_manual_composition(self):
        rng = np.random.default_rng(7)
        graph, _, _, _ = small_problem()
        delta = 0.01 * rng.standard_normal((graph.node_count, 6))
        ldelta = 0.01 * rng.standard_normal(6)
        states = graph.group.retract(graph.states, delta)
        landmark = graph.group.retract(graph.landmark, ldelta)
        expected = geom.pose3_compose(graph.states, geom.se3_exp(delta))
        np.testing.assert_allclose(states, expected, atol=1e-15)
        expected_lm = geom.pose3_compose(graph.landmark, geom.se3_exp(ldelta))
        np.testing.assert_allclose(landmark, expected_lm, atol=1e-15)

    def test_zero_delta_is_identity(self):
        graph, _, _, _ = small_problem(mode=PLANAR)
        states = graph.group.retract(graph.states, np.zeros((graph.node_count, 3)))
        landmark = graph.group.retract(graph.landmark, np.zeros(3))
        np.testing.assert_allclose(states, graph.states, atol=1e-15)
        np.testing.assert_allclose(landmark, graph.landmark, atol=1e-15)
