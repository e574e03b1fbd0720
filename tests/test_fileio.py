"""Plain-text serialization round trips."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tunnelgraph.fileio as fileio
import tunnelgraph.graph as gmod
import tunnelgraph.metrics as metrics
import tunnelgraph.optimizer as opt
import tunnelgraph.simulate as sim
import tunnelgraph.sync as sync
from tunnelgraph.metrics import ErrorReport
from tunnelgraph.sync import DataError, FULL3D, PLANAR

# every strategy draws finite float64 values, subnormals and -0.0 included;
# the 17-digit text format must give each one back bit for bit
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROUND_TRIP = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def unit_quaternions(draw, count, planar=False):
    """(count, 4) unit quaternions; yaw-only when planar."""
    raw = draw(hnp.arrays(float, (count, 4), elements=st.floats(-1.0, 1.0)))
    if planar:
        raw[:, 1:3] = 0.0
    raw[np.linalg.norm(raw, axis=1) < 1e-3] = [1.0, 0.0, 0.0, 0.0]
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


@st.composite
def packed_poses(draw, count, planar=False):
    """(count, 7) packed SE(3) poses with finite translations."""
    t = draw(hnp.arrays(float, (count, 3), elements=FINITE))
    if planar:
        t[:, 2] = 0.0
    return np.concatenate([t, draw(unit_quaternions(count, planar))], axis=1)


def states_for(draw, mode, count):
    if mode == PLANAR:
        return draw(hnp.arrays(float, (count, 3), elements=FINITE))
    return draw(packed_poses(count))


@pytest.fixture
def scenario():
    profile = sim.TrajectoryProfile(straight_length=15.0)
    truth = sim.generate_ground_truth(profile, 5.0)
    track, injection = sim.corrupt(truth, sim.dvso_preset(), seed=0)
    observations = sim.simulate_landmark_observations(
        truth, sim.LandmarkLayout(count=2, spacing=6.0),
        sim.default_placement(), sim.DetectionModel(), seed=1,
    )
    return track, observations, injection


class TestTracks:
    def test_round_trip_is_bit_faithful(self, tmp_path, scenario):
        track, _, _ = scenario
        path = tmp_path / "track.txt"
        fileio.write_track(path, track)
        back = fileio.read_track(path)
        assert back.source == track.source
        assert back.rate == track.rate
        assert back.dof_mode == track.dof_mode
        np.testing.assert_array_equal(back.times, track.times)
        np.testing.assert_array_equal(back.poses, track.poses)

    def test_hand_written_file(self, tmp_path):
        path = tmp_path / "hand.txt"
        path.write_text(
            "# source: hand\n"
            "# rate_hz: 2\n"
            "# dof_mode: full3d\n"
            "0.0 1.0 2.0 3.0 0.0 0.0 0.0 1.0\n"
            "0.5 1.5 2.0 3.0 0.0 0.0 0.7071067811865476 0.7071067811865476\n"
            "1.0 2.0 2.5 3.0 0.0 0.0 1.0 0.0\n"
        )
        track = fileio.read_track(path)
        assert track.frame_count == 3
        np.testing.assert_array_equal(track.times, [0.0, 0.5, 1.0])
        # disk order is scalar-last; memory order is scalar-first
        np.testing.assert_array_equal(track.poses[0], [1, 2, 3, 1, 0, 0, 0])
        np.testing.assert_allclose(
            track.poses[1],
            [1.5, 2, 3, 0.7071067811865476, 0, 0, 0.7071067811865476],
        )
        np.testing.assert_array_equal(track.poses[2], [2, 2.5, 3, 0, 0, 0, 1])

    def test_non_increasing_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "# source: x\n# rate_hz: 5\n# dof_mode: full3d\n"
            "1.0 0 0 0 0 0 0 1\n"
            "0.5 0 0 0 0 0 0 1\n"
        )
        with pytest.raises(DataError) as err:
            fileio.read_track(path)
        msg = str(err.value)
        assert "1.0" in msg and "0.5" in msg

    def test_malformed_line_number_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "# source: x\n# rate_hz: 5\n# dof_mode: full3d\n"
            "0.0 0 0 0 0 0 0 1\n"
            "0.2 0 0 oops 0 0 0 1\n"
        )
        with pytest.raises(DataError) as err:
            fileio.read_track(path)
        assert ":5:" in str(err.value)

    def test_wrong_field_count_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "# source: x\n# rate_hz: 5\n# dof_mode: full3d\n0.0 1 2 3\n"
        )
        with pytest.raises(DataError) as err:
            fileio.read_track(path)
        assert "field" in str(err.value)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0 0 0 0 0 0 1\n")
        with pytest.raises(DataError) as err:
            fileio.read_track(path)
        assert "source" in str(err.value)

    def test_planar_track_serializes_flat(self, tmp_path):
        profile = sim.TrajectoryProfile(straight_length=5.0)
        truth = sim.generate_ground_truth(profile, 50.0)
        track, _ = sim.corrupt(truth, sim.wheel_preset(), seed=2)
        path = tmp_path / "planar.txt"
        fileio.write_track(path, track)
        back = fileio.read_track(path)
        assert back.dof_mode == PLANAR
        np.testing.assert_array_equal(back.poses[:, 2], 0.0)  # z
        np.testing.assert_array_equal(back.poses[:, 4:6], 0.0)  # qx, qy
        np.testing.assert_array_equal(back.poses, track.poses)


class TestObservations:
    def test_round_trip(self, tmp_path, scenario):
        _, observations, _ = scenario
        assert observations, "scenario must produce detections"
        path = tmp_path / "obs.txt"
        fileio.write_observations(path, observations)
        back = fileio.read_observations(path)
        assert len(back) == len(observations)
        for a, b in zip(observations, back):
            assert b.pole_id == a.pole_id
            assert b.timestamp == a.timestamp
            np.testing.assert_array_equal(b.rel, a.rel)
            assert b.weight_trans == a.weight_trans
            assert b.weight_rot == a.weight_rot

    def test_mixed_weights_round_trip(self, tmp_path):
        rel = np.array([1.0, -0.5, 0.0, 1.0, 0.0, 0.0, 0.0])
        observations = sync.ObservationSet(
            [0.5, 1.0], [0, 1], [rel, rel], [5.0, 7.0], [6.0, 8.0]
        )
        path = tmp_path / "obs.txt"
        fileio.write_observations(path, observations)
        back = fileio.read_observations(path)
        assert [(o.weight_trans, o.weight_rot) for o in back] == [(5.0, 6.0), (7.0, 8.0)]
        # uniform weights keep the header-only layout of nine fields per line
        fileio.write_observations(path, observations[:1])
        assert "# weight_trans: 5" in path.read_text()
        assert len(path.read_text().splitlines()[-1].split()) == 9

    def test_hand_written(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("3.5 2 1.0 -0.5 0.0 0.0 0.0 0.0 1.0\n")
        (back,) = fileio.read_observations(path)
        assert back.pole_id == 2 and back.timestamp == 3.5
        np.testing.assert_array_equal(back.rel, [1.0, -0.5, 0, 1, 0, 0, 0])

    def test_negative_pole_id_rejected(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("0.0 -1 0 0 0 0 0 0 1\n")
        with pytest.raises(DataError):
            fileio.read_observations(path)


class TestPropertyRoundTrips:
    """Every write -> read pair gives back what was written, bit for bit."""

    @pytest.mark.parametrize("mode", [FULL3D, PLANAR])
    @ROUND_TRIP
    @given(data=st.data())
    def test_track(self, tmp_path, mode, data):
        count = data.draw(st.integers(2, 12))
        start = data.draw(st.floats(-1e6, 1e6))
        steps = data.draw(hnp.arrays(float, count - 1, elements=st.floats(1e-3, 1e3)))
        times = start + np.concatenate([[0.0], np.cumsum(steps)])
        rate = data.draw(st.floats(1e-3, 1e3))
        poses = data.draw(packed_poses(count, planar=mode == PLANAR))
        track = sync.OdometryTrack("src", rate, mode, times, poses)
        path = tmp_path / "track.txt"
        fileio.write_track(path, track)
        back = fileio.read_track(path)
        assert (back.source, back.rate, back.dof_mode) == ("src", rate, mode)
        np.testing.assert_array_equal(back.times, track.times)
        np.testing.assert_array_equal(back.poses, track.poses)

    @pytest.mark.parametrize("weights", ["uniform", "mixed", "empty"])
    @ROUND_TRIP
    @given(data=st.data())
    def test_observations(self, tmp_path, weights, data):
        count = 0 if weights == "empty" else data.draw(st.integers(1, 12))
        times = data.draw(hnp.arrays(float, count, elements=FINITE))
        poles = data.draw(hnp.arrays(int, count, elements=st.integers(0, 1000)))
        weight = st.floats(0.0, 1e12)
        if weights == "mixed":
            w_trans = data.draw(hnp.arrays(float, count, elements=weight))
            w_rot = data.draw(hnp.arrays(float, count, elements=weight))
        else:
            w_trans, w_rot = data.draw(weight), data.draw(weight)
        obs = sync.ObservationSet(times, poles, data.draw(packed_poses(count)), w_trans, w_rot)
        path = tmp_path / "obs.txt"
        fileio.write_observations(path, obs)
        back = fileio.read_observations(path)
        for name in ("times", "pole_ids", "rel", "w_trans", "w_rot"):
            np.testing.assert_array_equal(getattr(back, name), getattr(obs, name), err_msg=name)
        # the layout is chosen by the weights: header-only unless they differ
        per_line = len(set(zip(obs.w_trans, obs.w_rot))) > 1
        assert ("weight_trans weight_rot" in path.read_text()) == per_line

    @ROUND_TRIP
    @given(data=st.data())
    def test_injection(self, tmp_path, data):
        count = data.draw(st.integers(0, 12))
        record = sim.NoiseInjection(
            data.draw(hnp.arrays(float, count, elements=FINITE)),
            data.draw(hnp.arrays(float, count, elements=FINITE)),
            data.draw(packed_poses(count)),
        )
        path = tmp_path / "inj.txt"
        fileio.write_injection(path, record)
        back = fileio.read_injection(path)
        np.testing.assert_array_equal(back.trans_magnitudes, record.trans_magnitudes)
        np.testing.assert_array_equal(back.rot_magnitudes_deg, record.rot_magnitudes_deg)
        np.testing.assert_array_equal(back.error_poses, record.error_poses)

    @pytest.mark.parametrize("mode", [FULL3D, PLANAR])
    @ROUND_TRIP
    @given(data=st.data())
    def test_graph(self, tmp_path, mode, data):
        n = data.draw(st.integers(1, 8))
        poles = data.draw(st.integers(1, 4))
        odo = data.draw(st.integers(0, 8))
        obs = data.draw(st.integers(0, 8))
        dim = gmod.GROUPS[mode].packed_dim
        node = st.integers(0, n - 1)
        weight = st.floats(0.0, 1e12)
        graph = gmod.PoseGraph(
            source="src",
            rate=data.draw(st.floats(1e-3, 1e3)),
            dof_mode=mode,
            times=data.draw(hnp.arrays(float, n, elements=FINITE)),
            is_frame=data.draw(hnp.arrays(bool, n)),
            states=states_for(data.draw, mode, n),
            landmark=states_for(data.draw, mode, 1)[0],
            template=states_for(data.draw, mode, poles),
            odo_i=data.draw(hnp.arrays(int, odo, elements=node)),
            odo_j=data.draw(hnp.arrays(int, odo, elements=node)),
            odo_meas=states_for(data.draw, mode, odo).reshape(odo, dim),
            odo_w_trans=data.draw(hnp.arrays(float, odo, elements=weight)),
            odo_w_rot=data.draw(hnp.arrays(float, odo, elements=weight)),
            obs_node=data.draw(hnp.arrays(int, obs, elements=node)),
            obs_pole=data.draw(hnp.arrays(int, obs, elements=st.integers(0, poles - 1))),
            obs_meas=states_for(data.draw, mode, obs).reshape(obs, dim),
            obs_w_trans=data.draw(hnp.arrays(float, obs, elements=weight)),
            obs_w_rot=data.draw(hnp.arrays(float, obs, elements=weight)),
            gauge_index=data.draw(node),
        )
        path = tmp_path / "graph.txt"
        fileio.write_graph(path, graph)
        back = fileio.read_graph(path)
        assert (back.source, back.rate, back.dof_mode) == ("src", graph.rate, mode)
        assert back.gauge_index == graph.gauge_index
        for name in (
            "times", "is_frame", "states", "landmark", "template",
            "odo_i", "odo_j", "odo_meas", "odo_w_trans", "odo_w_rot",
            "obs_node", "obs_pole", "obs_meas", "obs_w_trans", "obs_w_rot",
        ):
            np.testing.assert_array_equal(getattr(back, name), getattr(graph, name), err_msg=name)


class TestInjection:
    def test_round_trip(self, tmp_path, scenario):
        _, _, injection = scenario
        path = tmp_path / "inj.txt"
        fileio.write_injection(path, injection)
        back = fileio.read_injection(path)
        np.testing.assert_array_equal(back.trans_magnitudes, injection.trans_magnitudes)
        np.testing.assert_array_equal(
            back.rot_magnitudes_deg, injection.rot_magnitudes_deg
        )
        np.testing.assert_array_equal(back.error_poses, injection.error_poses)

    def test_malformed_number_names_the_line(self, tmp_path):
        path = tmp_path / "inj.txt"
        path.write_text(
            "# columns: frame trans_m rot_deg tx ty tz qx qy qz qw\n"
            "0 0.001 0.04 0.001 0 0 0 0 0 1\n"
            "1 0.001 fast 0.001 0 0 0 0 0 1\n"
        )
        with pytest.raises(DataError, match=r"inj\.txt:3: malformed number"):
            fileio.read_injection(path)


class TestGraphs:
    def graph_for(self, mode, scenario):
        track, observations, _ = scenario
        aligned = sync.align(track, observations)
        return gmod.build_graph(
            aligned, sim.LandmarkLayout(count=2, spacing=6.0), mode
        )

    @pytest.mark.parametrize("mode", [FULL3D, PLANAR])
    def test_round_trip(self, tmp_path, scenario, mode):
        graph = self.graph_for(mode, scenario)
        path = tmp_path / "graph.txt"
        fileio.write_graph(path, graph)
        back = fileio.read_graph(path)
        assert back.source == graph.source
        assert back.dof_mode == graph.dof_mode
        assert back.gauge_index == graph.gauge_index
        for name in (
            "times", "is_frame", "states", "landmark", "template",
            "odo_i", "odo_j", "odo_meas", "odo_w_trans", "odo_w_rot",
            "obs_node", "obs_pole", "obs_meas", "obs_w_trans", "obs_w_rot",
        ):
            np.testing.assert_array_equal(
                getattr(back, name), getattr(graph, name), err_msg=name
            )

    def test_round_trip_preserves_cost(self, tmp_path, scenario):
        graph = self.graph_for(FULL3D, scenario)
        path = tmp_path / "graph.txt"
        fileio.write_graph(path, graph)
        back = fileio.read_graph(path)
        assert gmod.total_cost(back) == gmod.total_cost(graph)

    @pytest.mark.parametrize(
        "record",
        [
            "GAUGE zero",
            "GAUGE",
            "NODE 0 0.0 1",
            "NODE x 0.0 1 0 0 0 0 0 0 1",
            "POLE 0 0 0 0 0 0 0 one",
            "EDGE_ODOM 0 1 0 0 0 0 0 0 1 1.0 heavy",
            "EDGE_OBS 0 0 0 0 0 0 0 0 1 1.0",
        ],
    )
    def test_malformed_record_names_the_line(self, tmp_path, record):
        path = tmp_path / "graph.txt"
        path.write_text(
            "# source: x\n# rate_hz: 5\n# dof_mode: full3d\n"
            "NODE 1 0.2 1 0 0 0 0 0 0 1\n"
            f"{record}\n"
        )
        with pytest.raises(DataError, match=r"graph\.txt:5: "):
            fileio.read_graph(path)

    def test_incomplete_file_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text(
            "# source: x\n# rate_hz: 5\n# dof_mode: full3d\nGAUGE 0\n"
        )
        with pytest.raises(DataError):
            fileio.read_graph(path)


class TestReports:
    def test_csv_round_trip_and_schema(self, tmp_path):
        reports = [
            ErrorReport("dvso", 5.0, 2031, 0.00148, 0.043, 0.73, 0.05),
            ErrorReport("wheel", 50.0, 20301, 0.00018, 0.002, 0.18, 0.05),
        ]
        path = tmp_path / "report.csv"
        fileio.write_report_csv(path, reports)
        header = path.read_text().splitlines()[0]
        assert header == (
            "source,rate_hz,frames,trans_m_per_frame,rot_deg_per_frame,"
            "trans_m_per_s,rot_deg_per_s,closure_raw_m,closure_opt_m"
        )
        back = fileio.read_report_csv(path)
        for a, b in zip(reports, back):
            assert b.source == a.source
            assert b.rate == a.rate
            assert b.frame_count == a.frame_count
            assert b.trans_per_frame == a.trans_per_frame
            assert b.rot_deg_per_frame == a.rot_deg_per_frame
            assert b.closure_raw == a.closure_raw
            assert b.closure_optimized == a.closure_optimized

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            fileio.read_report_csv(path)

    def test_truncated_stats_json_names_the_line(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text('{\n  "source": "dvso",\n  "frames": ')
        with pytest.raises(DataError, match=r"stats\.json:3: malformed JSON"):
            fileio.read_stats_json(path)

    def test_stats_json_round_trip(self, tmp_path):
        record = {"damping": 1e-6, "rejected": 0, "step_norm": 0.25, "solve_s": 0.01}
        stats = opt.SolveStats(3, 10.0, 0.5, "cost-threshold", [10.0, 1.0, 0.5], [record])
        report = ErrorReport("dvso", 5.0, 100, 0.001, 0.01, 0.5, 0.1)
        path = tmp_path / "stats.json"
        fileio.write_stats_json(path, stats, report)
        back = fileio.read_stats_json(path)
        assert back["source"] == "dvso"
        assert back["trans_m_per_s"] == pytest.approx(0.005)
        assert back["solver"]["iterations"] == 3
        assert back["solver"]["cost_trace"] == [10.0, 1.0, 0.5]
        assert back["solver"]["per_iteration"] == [record]
