"""Plain-text serialization round trips."""

import csv
import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tunnelgraph.fileio as fileio
import tunnelgraph.graph as gmod
import tunnelgraph.metrics as metrics
import tunnelgraph.optimizer as opt
import tunnelgraph.pipeline as pipeline
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


# a unit quaternion, scalar-first in memory, with four distinct components
# so that the scalar-last disk order is visible in the expected text
QUAT = [np.sqrt(0.79), 0.4, 0.2, 0.1]
Q_DISK = "0.40000000000000002 0.20000000000000001 0.10000000000000001 0.88881944173155891"


def golden_graph(mode):
    """Two nodes, two poles and one edge of each kind."""
    if mode == FULL3D:
        states = np.array([[0, 0, 0, 1, 0, 0, 0], [0.1, 0, 0, *QUAT]])
    else:
        states = np.array([[0, 0, 0], [0.1, 0, -0.5]])
    return gmod.PoseGraph(
        source="cam", rate=5.0, dof_mode=mode, times=np.array([0.0, 0.2]),
        is_frame=np.array([True, False]), states=states, landmark=states[1],
        template=states[::-1].copy(),
        odo_i=np.array([0]), odo_j=np.array([1]), odo_meas=states[1:],
        odo_w_trans=np.array([1.0]), odo_w_rot=np.array([2.5]),
        obs_node=np.array([1]), obs_pole=np.array([1]), obs_meas=states[:1],
        obs_w_trans=np.array([400.0]), obs_w_rot=np.array([0.0]),
    )


def assert_same_graph(back, graph):
    """Every field of ``back`` equals the one of ``graph`` bit for bit."""
    for f in dataclasses.fields(gmod.PoseGraph):
        a, b = getattr(back, f.name), getattr(graph, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert (type(a), a) == (type(b), b), f.name


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

    @pytest.mark.parametrize("rate", ["-5", "0", "nan", "inf"])
    def test_bad_rate_header_names_the_file(self, tmp_path, rate):
        path = tmp_path / "bad.txt"
        path.write_text(
            f"# source: x\n# rate_hz: {rate}\n# dof_mode: full3d\n0.0 0 0 0 0 0 0 1\n"
        )
        with pytest.raises(DataError, match=r"bad\.txt: rate_hz must be finite and positive"):
            fileio.read_track(path)

    @pytest.mark.parametrize("rate", ["2_0", "\u0662\u0660", "0x10", "20 30", ""])
    def test_malformed_rate_header_names_the_file(self, tmp_path, rate):
        # the header number follows the rule of a data field: 2_0 is not 20
        path = tmp_path / "bad.txt"
        path.write_text(
            f"# source: x\n# rate_hz: {rate}\n# dof_mode: full3d\n0.0 0 0 0 0 0 0 1\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=r"bad\.txt: malformed rate_hz header"):
            fileio.read_track(path)

    def test_source_that_leaves_the_directory_names_the_file(self, tmp_path):
        # the source name becomes part of the output file names
        path = tmp_path / "bad.txt"
        path.write_text(
            "# source: ../escaped\n# rate_hz: 5\n# dof_mode: full3d\n"
            "0.0 0 0 0 0 0 0 1\n0.2 0 0 0 0 0 0 1\n"
        )
        with pytest.raises(DataError, match=r"bad\.txt: source: must be one word"):
            fileio.read_track(path)

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
        uniform = sync.ObservationSet(
            observations.times[:1], observations.pole_ids[:1], observations.rel[:1], 5.0, 6.0
        )
        fileio.write_observations(path, uniform)
        assert "# weight_trans: 5" in path.read_text()
        assert len(path.read_text().splitlines()[-1].split()) == 9

    def test_hand_written(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("3.5 2 1.0 -0.5 0.0 0.0 0.0 0.0 1.0\n")
        (back,) = fileio.read_observations(path)
        assert back.pole_id == 2 and back.timestamp == 3.5
        np.testing.assert_array_equal(back.rel, [1.0, -0.5, 0, 1, 0, 0, 0])

    @pytest.mark.parametrize("key", ["weight_trans", "weight_rot"])
    @pytest.mark.parametrize("value", ["5_0", "0x10", "1 2", ""])
    def test_malformed_weight_header_names_the_file(self, tmp_path, key, value):
        path = tmp_path / "obs.txt"
        path.write_text(f"# {key}: {value}\n3.5 2 1.0 -0.5 0.0 0.0 0.0 0.0 1.0\n")
        with pytest.raises(DataError, match=rf"obs\.txt: malformed {key} header"):
            fileio.read_observations(path)

    def test_negative_pole_id_rejected(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("0.0 -1 0 0 0 0 0 0 1\n")
        with pytest.raises(DataError):
            fileio.read_observations(path)

    @pytest.mark.parametrize("headers, rows, message", [
        # per-line weights: a row cut to 9 fields does not read as weight 1
        ("", ["0.5 0 1 0 0 0 0 0 1 4 5", "1.0 1 1 0 0 0 0 0 1"],
         "obs.txt:2: expected 11 fields, got 9"),
        # header weights: an 11-field row does not override them
        ("# weight_trans: 4\n# weight_rot: 5\n", ["0.5 0 1 0 0 0 0 0 1", "1.0 1 1 0 0 0 0 0 1 6 7"],
         "obs.txt:4: expected 9 fields, got 11"),
        ("", ["0.5 0 1 0 0 0 0 0 1 4"], "obs.txt:1: expected 9 fields, got 10"),
    ], ids=["per-line-cut-row", "header-weights-long-row", "first-row-width"])
    def test_one_layout_per_file(self, tmp_path, headers, rows, message):
        path = tmp_path / "obs.txt"
        path.write_text(headers + "".join(row + "\n" for row in rows))
        with pytest.raises(DataError, match=message):
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
        # a record holds magnitudes, which are non-negative
        magnitude = st.floats(min_value=-0.0, allow_infinity=False)
        record = sim.NoiseInjection(
            data.draw(hnp.arrays(float, count, elements=magnitude)),
            data.draw(hnp.arrays(float, count, elements=magnitude)),
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
        n = data.draw(st.integers(2, 8))
        poles = data.draw(st.integers(1, 4))
        odo = n - 1  # the odometry chain
        obs = data.draw(st.integers(0, 8))
        dim = gmod.GROUPS[mode].packed_dim
        node = st.integers(0, n - 1)
        weight = st.floats(0.0, 1e12)
        # strictly increasing, as a graph's node times must be
        steps = data.draw(hnp.arrays(float, n - 1, elements=st.floats(1e-3, 1e3)))
        times = data.draw(st.floats(-1e6, 1e6)) + np.concatenate([[0.0], np.cumsum(steps)])
        graph = gmod.PoseGraph(
            source="src",
            rate=data.draw(st.floats(1e-3, 1e3)),
            dof_mode=mode,
            times=times,
            is_frame=data.draw(hnp.arrays(bool, n)),
            states=states_for(data.draw, mode, n),
            landmark=states_for(data.draw, mode, 1)[0],
            template=states_for(data.draw, mode, poles),
            odo_i=np.arange(odo),
            odo_j=np.arange(1, n),
            odo_meas=states_for(data.draw, mode, odo).reshape(odo, dim),
            odo_w_trans=data.draw(hnp.arrays(float, odo, elements=weight)),
            odo_w_rot=data.draw(hnp.arrays(float, odo, elements=weight)),
            obs_node=np.sort(data.draw(hnp.arrays(int, obs, elements=node))),
            obs_pole=data.draw(hnp.arrays(int, obs, elements=st.integers(0, poles - 1))),
            obs_meas=states_for(data.draw, mode, obs).reshape(obs, dim),
            obs_w_trans=data.draw(hnp.arrays(float, obs, elements=weight)),
            obs_w_rot=data.draw(hnp.arrays(float, obs, elements=weight)),
            landmark_fixed=data.draw(st.booleans()),
        )
        path = tmp_path / "graph.txt"
        fileio.write_graph(path, graph)
        assert_same_graph(fileio.read_graph(path), graph)


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

    @pytest.mark.parametrize("frames, message", [
        (["banana", "1"], r"inj\.txt:2: malformed number"),
        (["1", "0"], r"inj\.txt:2: frame id 1, expected 0"),
        (["0", "2"], r"inj\.txt:3: frame id 2, expected 1"),
        # an integer field takes what numpy's integer reader takes
        (["0", "1.5"], r"inj\.txt:3: malformed number"),
        (["0", "1.0"], r"inj\.txt:3: malformed number"),
        (["0", "1e0"], r"inj\.txt:3: malformed number"),
        (["0", "1_0"], r"inj\.txt:3: malformed number"),
    ], ids=["not-an-integer", "swapped", "skipped", "fraction", "float-form", "exponent",
            "underscore"])
    def test_frame_ids_checked(self, tmp_path, frames, message):
        path = tmp_path / "inj.txt"
        path.write_text("# columns: frame trans_m rot_deg tx ty tz qx qy qz qw\n" + "".join(
            f"{frame} 0.001 0.04 0.001 0 0 0 0 0 1\n" for frame in frames
        ))
        with pytest.raises(DataError, match=message):
            fileio.read_injection(path)

    @pytest.mark.parametrize("row, message", [
        ("1 -5 0.04 0.001 0 0 0 0 0 1", "injected magnitudes must be finite and non-negative"),
        ("1 0.001 nan 0.001 0 0 0 0 0 1", "injected magnitudes must be finite and non-negative"),
        ("1 0.001 0.04 0.001 0 0 0 0 0 2", "quaternion norm off unit by 1"),
    ], ids=["negative-magnitude", "nan-magnitude", "non-unit-quaternion"])
    def test_row_rules_checked(self, tmp_path, row, message):
        path = tmp_path / "inj.txt"
        path.write_text(
            "# columns: frame trans_m rot_deg tx ty tz qx qy qz qw\n"
            f"0 0.001 0.04 0.001 0 0 0 0 0 1\n{row}\n"
        )
        with pytest.raises(DataError, match=rf"inj\.txt:3: {message}"):
            fileio.read_injection(path)

    def test_columns_hold_one_value_per_frame(self):
        poses = np.tile([0.0, 0, 0, 1, 0, 0, 0], (2, 1))
        with pytest.raises(DataError, match="injection columns must hold one value per frame"):
            sim.NoiseInjection(np.zeros(2), np.zeros(3), poses)
        with pytest.raises(DataError, match="injection columns must hold one value per frame"):
            sim.NoiseInjection(np.zeros(2), np.zeros(2), poses[:, :4])

class TestReader:
    """numpy's reader parses each block in one pass; a line scan runs only
    when it refuses the block, to name the first bad line."""

    HEADERS = "# source: x\n# rate_hz: 5\n# dof_mode: full3d\n"
    ROWS = ["0.0 1 2 3 0 0 0 1", "0.2 1.5 2 3 0 0 0 1", "0.4 2 2 3 0 0 0 1"]

    def read(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode())
        return fileio.read_track(path)

    def test_doubles_round_trip_bit_exact(self, tmp_path):
        # 10^5 doubles drawn across the whole exponent range, and the edges
        bits = np.random.default_rng(0).integers(0, 2**64, 10**5, dtype=np.uint64)
        values = bits.view(float)[np.isfinite(bits.view(float))]
        edges = [5e-324, -5e-324, -0.0, 0.0, 2.2250738585072014e-308, 1.7976931348623157e308]
        values = np.concatenate([edges, values])
        values = values[: values.size // 3 * 3].reshape(-1, 3)
        count = len(values)
        poses = np.concatenate([values, np.tile([1.0, 0, 0, 0], (count, 1))], axis=1)
        track = sync.OdometryTrack("x", 5.0, FULL3D, np.arange(count) / 5.0, poses)
        path = tmp_path / "track.txt"
        fileio.write_track(path, track)
        back = fileio.read_track(path)
        assert back.poses.view(np.uint64).tobytes() == poses.view(np.uint64).tobytes()

    @pytest.mark.parametrize("variant", [
        "comments-between-rows", "crlf", "trailing-blank-lines", "indented-and-tabbed",
    ])
    def test_layouts_read_as_the_plain_file(self, tmp_path, variant):
        rows = [row + "\n" for row in self.ROWS]
        text = {
            "comments-between-rows": rows[0] + "# note: later\n\n  # more\n" + "".join(rows[1:]),
            "crlf": "".join(rows).replace("\n", "\r\n"),
            "trailing-blank-lines": "".join(rows) + "\n  \n\t\n",
            "indented-and-tabbed": "".join("  " + row.replace(" ", "\t ") for row in rows),
        }[variant]
        plain = self.read(tmp_path, self.HEADERS + "".join(rows))
        back = self.read(tmp_path, self.HEADERS + text)
        assert back.times.tobytes() == plain.times.tobytes()
        assert back.poses.tobytes() == plain.poses.tobytes()
        assert back.rate == 5.0  # a later "# note:" does not replace a header

    def test_line_numbers_count_comments_and_blank_lines(self, tmp_path):
        text = self.HEADERS + self.ROWS[0] + "\n# note\n\n" + self.ROWS[0] + "\n"
        with pytest.raises(DataError, match=r"bad\.txt:7: timestamp 0.0 does not increase"):
            self.read(tmp_path, text)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_no_rows_and_one_row(self, tmp_path, rows):
        path = tmp_path / "obs.txt"
        path.write_text("# weight_trans: 4\n" + "3.5 2 1.0 -0.5 0.0 0.0 0.0 0.0 1.0\n" * rows)
        back = fileio.read_observations(path)
        assert len(back) == rows and back.rel.shape == (rows, 7)
        np.testing.assert_array_equal(back.w_trans, [4.0] * rows)
        path = tmp_path / "inj.txt"
        path.write_text("# columns: frame\n" + "0 0.001 0.04 0.001 0 0 0 0 0 1\n" * rows)
        back = fileio.read_injection(path)
        assert back.error_poses.shape == (rows, 7)

    def test_a_hash_after_the_data_is_more_fields(self, tmp_path):
        text = self.HEADERS + self.ROWS[0] + "\n" + self.ROWS[1] + " # note\n"
        with pytest.raises(DataError, match=r"bad\.txt:5: expected 8 fields, got 10"):
            self.read(tmp_path, text)

    def test_the_first_wrong_width_comes_before_a_malformed_number(self, tmp_path):
        text = self.HEADERS + "0.0 1 2 oops 0 0 0 1\n" + self.ROWS[1] + " 9\n"
        with pytest.raises(DataError, match=r"bad\.txt:5: expected 8 fields, got 9"):
            self.read(tmp_path, text)

    def test_integer_fields_accept_a_sign(self, tmp_path):
        path = tmp_path / "inj.txt"
        path.write_text("+0 0.001 0.04 0.001 0 0 0 0 0 1\n+1 0.001 0.04 0.001 0 0 0 0 0 1\n")
        assert len(fileio.read_injection(path).trans_magnitudes) == 2

    @pytest.mark.parametrize("token", ["1_000", "\u0661", "0x10", "1.5.2"])
    def test_tokens_numpy_refuses_are_malformed(self, tmp_path, token):
        # Python's float reads the first two; numpy's reader reads none
        text = self.HEADERS + self.ROWS[0] + "\n" + f"0.2 {token} 2 3 0 0 0 1\n"
        with pytest.raises(DataError, match=r"bad\.txt:5: malformed number"):
            self.read(tmp_path, text)

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(self.HEADERS.encode() + b"0.0 1 2 3 0 0 0 \xff\n")
        message = r"bad\.txt: not UTF-8 text: invalid start byte at offset 60"
        with pytest.raises(DataError, match=message):
            fileio.read_track(path)

    def test_read_graph_memory_is_bounded_by_the_file(self, tmp_path):
        """The traced peak of reading a short-drive wheel graph stays under
        3.5 times the file's size: 2.7 times measured, where a reader that
        made a Python string per field took 8.6 times."""
        noise = sim.wheel_preset()
        profile = sim.TrajectoryProfile(straight_length=10.0)
        truth = sim.generate_ground_truth(profile, noise.frame_rate)
        track, _ = sim.corrupt(truth, noise, seed=1)
        observations = sim.simulate_landmark_observations(
            truth, sim.LandmarkLayout(), sim.default_placement(), sim.DetectionModel(), seed=2
        )
        graph, _ = pipeline.build_track_graph(track, observations)
        path = tmp_path / "graph.txt"
        fileio.write_graph(path, graph)
        del track, observations, graph
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            fileio.read_graph(path)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * path.stat().st_size


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
        assert_same_graph(fileio.read_graph(path), graph)

    @pytest.mark.parametrize(
        "preset, mode",
        [(sim.dvso_preset, None), (sim.wheel_preset, None), (sim.dvso_preset, PLANAR)],
        ids=["dvso", "wheel", "dvso-planar"],
    )
    def test_solved_graph_round_trip_is_lossless(self, tmp_path, preset, mode):
        # the default scenario's sparse solve, as `optimize` writes it; the raw
        # closure is measured on the problem as built, so nothing that the
        # report needs is lost on the way through the file
        noise = preset()
        truth = sim.generate_ground_truth(sim.TrajectoryProfile(), noise.frame_rate)
        track, _ = sim.corrupt(truth, noise, seed=1)
        observations = sim.simulate_landmark_observations(
            truth, sim.LandmarkLayout(), sim.default_placement(), sim.DetectionModel(), seed=2
        )
        result = pipeline.optimize_track(track, observations, mode=mode)
        path = tmp_path / "graph.txt"
        for graph in (result.raw_graph, result.graph):
            fileio.write_graph(path, graph)
            assert_same_graph(fileio.read_graph(path), graph)
        report = metrics.per_frame_corrections(result.raw_graph, result.graph.states)
        assert report == result.report
        assert report.closure_raw != report.closure_optimized

    def test_round_trip_preserves_cost(self, tmp_path, scenario):
        for landmark_fixed in (False, True):
            graph = dataclasses.replace(
                self.graph_for(FULL3D, scenario), landmark_fixed=landmark_fixed
            )
            path = tmp_path / "graph.txt"
            fileio.write_graph(path, graph)
            back = fileio.read_graph(path)
            assert back.landmark_fixed == landmark_fixed
            assert gmod.total_cost(back) == gmod.total_cost(graph)

    def test_swapped_odometry_records_rejected(self, tmp_path, scenario):
        # the same edge set in another order: edge e must join node e to e + 1
        path = tmp_path / "graph.txt"
        fileio.write_graph(path, self.graph_for(FULL3D, scenario))
        lines = path.read_text().splitlines()
        a, b = [k for k, line in enumerate(lines) if line.startswith("EDGE_ODOM ")][10:12]
        lines[a], lines[b] = lines[b], lines[a]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"graph\.txt: odometry edge e must join node e"):
            fileio.read_graph(path)

    def test_swapped_observation_records_rejected(self, tmp_path, scenario):
        # sightings of two different nodes in reverse node order
        path = tmp_path / "graph.txt"
        graph = self.graph_for(FULL3D, scenario)
        fileio.write_graph(path, graph)
        lines = path.read_text().splitlines()
        rows = [k for k, line in enumerate(lines) if line.startswith("EDGE_OBS ")]
        a, b = rows[0], rows[int(np.argmax(graph.obs_node > graph.obs_node[0]))]
        lines[a], lines[b] = lines[b], lines[a]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"graph\.txt: observation edges must be ordered by node"):
            fileio.read_graph(path)

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
            "NODE 0 0.0 7 0 0 0 0 0 0 1",
            "NODE 0 0.0 -1 0 0 0 0 0 0 1",
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

    @pytest.mark.parametrize(
        "case",
        ["repeated-node", "gapped-node", "renumbered-poles", "two-landmarks", "two-gauges",
         "landmark-fixed-yes", "gauge-one"],
    )
    def test_ids_and_singletons_checked(self, tmp_path, case):
        # a repeated id must not replace the earlier row, nor poles 1/2 become
        # rows 0/1: an EDGE_OBS naming pole 1 would then mean the one written as 2
        path = tmp_path / "graph.txt"
        fileio.write_graph(path, golden_graph(FULL3D))
        lines = path.read_text().splitlines()
        row = {
            "repeated-node": "NODE 1 ", "gapped-node": "NODE 1 ",
            "two-landmarks": "LANDMARK_FRAME ", "two-gauges": "GAUGE ",
        }.get(case)
        if case == "renumbered-poles":
            lines = [ln.replace("POLE 1 ", "POLE 2 ").replace("POLE 0 ", "POLE 1 ") for ln in lines]
        elif case == "gapped-node":
            lines = [ln.replace(row, "NODE 2 ") for ln in lines]
        elif case == "landmark-fixed-yes":
            lines.insert(3, "# landmark_fixed: yes")
        elif case == "gauge-one":
            lines = [ln.replace("GAUGE 0", "GAUGE 1") for ln in lines]
        else:
            lines += [next(ln for ln in lines if ln.startswith(row))]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"graph\.txt: ") as err:
            fileio.read_graph(path)
        assert {
            "repeated-node": "NODE ids must be 0..2, each once",
            "gapped-node": "NODE ids must be 0..1, each once",
            "renumbered-poles": "POLE ids must be 0..1, each once",
            "landmark-fixed-yes": "landmark_fixed must be true or false, got 'yes'",
            "gauge-one": "the gauge is node 0, got GAUGE 1",
        }.get(case, "needs one LANDMARK_FRAME and at most one GAUGE record") in str(err.value)

    @pytest.mark.parametrize(
        "record, field, value, message",
        [
            ("EDGE_ODOM ", -1, "-5", "odometry weights row 0: information weights must be"),
            ("NODE 1 ", -1, "3.0", "states row 1: quaternion norm off unit"),
            ("NODE 1 ", 2, "nan", "node times row 1: timestamp nan is not finite"),
            ("NODE 1 ", 2, "0", "node times row 1: timestamp 0.0 does not increase past 0.0"),
        ],
        ids=["negative-weight", "non-unit-quaternion", "nan-time", "repeated-time"],
    )
    def test_row_rules_checked(self, tmp_path, record, field, value, message):
        # the rules read_track and read_observations apply hold for a graph file
        path = tmp_path / "graph.txt"
        fileio.write_graph(path, golden_graph(FULL3D))
        lines = path.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.startswith(record))
        fields = lines[k].split()
        fields[field] = value
        lines[k] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"graph\.txt: " + message):
            fileio.read_graph(path)

    def test_one_node_rejected(self, tmp_path):
        path = tmp_path / "graph.txt"
        fileio.write_graph(path, golden_graph(PLANAR))
        lines = path.read_text().splitlines()
        keep = [ln for ln in lines if not ln.startswith(("NODE 1 ", "EDGE_"))]
        path.write_text("\n".join(keep) + "\n")
        with pytest.raises(DataError, match=r"graph\.txt: a graph needs at least two nodes, got 1"):
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

    def test_csv_bytes_match_the_csv_module(self, tmp_path, scenario):
        # the reference: the standard csv writer, CRLF rows and 17-digit floats
        track, observations, _ = scenario
        reports = [
            pipeline.optimize_track(track, observations, mode=mode).report
            for mode in (FULL3D, PLANAR)
        ]
        path = tmp_path / "report.csv"
        fileio.write_report_csv(path, reports)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(fileio.REPORT_COLUMNS)
        for r in reports:
            values = [getattr(r, name) for name in fileio.REPORT_FIELDS.values()]
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in values])
        assert path.read_bytes() == expected.getvalue().encode()

    def test_malformed_number_names_the_line(self, tmp_path):
        path = tmp_path / "report.csv"
        report = ErrorReport("dvso", 5.0, 2031, 0.00148, 0.043, 0.73, 0.05)
        fileio.write_report_csv(path, [report, report])
        lines = path.read_bytes().split(b"\r\n")
        lines[2] = lines[2].replace(b"dvso,5,", b"dvso,5x,")
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(DataError, match=r"report\.csv:3: malformed number"):
            fileio.read_report_csv(path)

    def test_truncated_stats_json_names_the_line(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text('{\n  "source": "dvso",\n  "frames": ')
        with pytest.raises(DataError, match=r"stats\.json:3: malformed JSON"):
            fileio.read_stats_json(path)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_stats_json_is_strict(self, tmp_path, constant):
        path = tmp_path / "stats.json"
        path.write_text(f'{{"source": "dvso", "trans_m_per_frame": {constant}}}\n')
        with pytest.raises(DataError, match=rf"stats\.json: malformed JSON: {constant} "):
            fileio.read_stats_json(path)
        stats = opt.SolveStats("cost-threshold", [1.0], [])
        report = ErrorReport("dvso", 5.0, 100, float(constant), 0.01, 0.5, 0.1)
        with pytest.raises(ValueError):
            fileio.write_stats_json(path, stats, report, {})

    def test_stats_json_round_trip(self, tmp_path):
        record = {"damping": 1e-6, "rejected": 0, "step_norm": 0.25, "solve_s": 0.01}
        undefined = {**record, "grad_inf": 2.5, "gain_ratio": None}
        stats = opt.SolveStats("cost-threshold", [10.0, 1.0, 0.5], [record, undefined])
        report = ErrorReport("dvso", 5.0, 100, 0.001, 0.01, 0.5, 0.1)
        path = tmp_path / "stats.json"
        stages = {"align_s": 0.01, "build_graph_s": 0.002, "solve_s": 0.5, "write_s": 0}
        fileio.write_stats_json(path, stats, report, stages)
        back = fileio.read_stats_json(path)
        assert back["source"] == "dvso"
        assert back["trans_m_per_s"] == pytest.approx(0.005)
        # the counts are derived from the trace and the records
        assert back["solver"]["iterations"] == 2
        assert (back["solver"]["initial_cost"], back["solver"]["final_cost"]) == (10.0, 0.5)
        assert back["solver"]["cost_trace"] == [10.0, 1.0, 0.5]
        assert back["solver"]["per_iteration"] == [record, undefined]
        assert '"gain_ratio": null' in path.read_text()  # not NaN, which is not JSON
        assert fileio.stats_report(back) == report
        assert back["stages"] == stages

    @pytest.mark.parametrize("stages", ['[1.0]', '{"solve_s": -1.0}', '{"solve_s": "fast"}'])
    def test_stats_json_stages_are_seconds(self, tmp_path, stages):
        path = tmp_path / "stats.json"
        report = ErrorReport("dvso", 5.0, 100, 0.001, 0.01, 0.5, 0.1)
        fileio.write_stats_json(path, opt.SolveStats("cost-threshold", [1.0], []), report, {})
        payload = json.loads(path.read_text())
        payload["stages"] = json.loads(stages)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="key 'stages' must map stage names"):
            fileio.read_stats_json(path)


class TestGoldenBytes:
    """The writers' exact output: integer columns as integers, 17 significant
    digits, scalar-last quaternions, both observation layouts, the graph's
    record tags, and CRLF line ends and empty columns in the CSVs."""

    def test_every_table_writer(self, tmp_path):
        rel = [[1, -0.5, 0, 1, 0, 0, 0], [0.25, 0, 1e-20, *QUAT]]
        est = np.array([[0.1, 1.25], [17.9, 1.15]])
        writes = {
            "track": lambda p: fileio.write_track(p, sync.OdometryTrack(
                "cam", 5.0, FULL3D, [0.0, 0.2], [[1, 2, 3, 1, 0, 0, 0], [1.5, -0.1, 0, *QUAT]]
            )),
            "uniform": lambda p: fileio.write_observations(
                p, sync.ObservationSet([0.1, 0.2], [3, 0], rel, 400.0, 2500.0)
            ),
            "mixed": lambda p: fileio.write_observations(
                p, sync.ObservationSet([0.1, 0.2], [3, 0], rel, [400.0, 0.0], 2500.0)
            ),
            "injection": lambda p: fileio.write_injection(p, sim.NoiseInjection(
                np.array([0.00148, 0.00148]), np.array([0.043, 0.043]),
                np.array([[0.001, 0, 0, 1, 0, 0, 0], [0, -0.001, 0, *QUAT]]),
            )),
            "full3d": lambda p: fileio.write_graph(p, golden_graph(FULL3D)),
            "planar": lambda p: fileio.write_graph(p, golden_graph(PLANAR)),
            "planar-fixed": lambda p: fileio.write_graph(
                p, dataclasses.replace(golden_graph(PLANAR), landmark_fixed=True)
            ),
            "xy": lambda p: fileio.write_xy_csv(
                p, np.array([0.0, 0.2]), np.array([[1.0, 2.0], [1.5, -0.1]]),
                np.array([[1.0, 2.0], [1.25, 0.1]]),
            ),
            "poles": lambda p: fileio.write_poles_csv(p, np.array([[0.0, 1.2], [18.0, 1.2]]), est),
            "poles-untrue": lambda p: fileio.write_poles_csv(p, None, est),
        }
        source = "# source: cam\n# rate_hz: 5\n"
        expected = {
            "track": (
                f"{source}# dof_mode: full3d\n"
                "# columns: timestamp tx ty tz qx qy qz qw\n"
                "0 1 2 3 0 0 0 1\n"
                f"0.20000000000000001 1.5 -0.10000000000000001 0 {Q_DISK}\n"
            ),
            "uniform": (
                "# columns: timestamp pole_id tx ty tz qx qy qz qw\n"
                "# weight_trans: 400\n# weight_rot: 2500\n"
                "0.10000000000000001 3 1 -0.5 0 0 0 0 1\n"
                f"0.20000000000000001 0 0.25 0 9.9999999999999995e-21 {Q_DISK}\n"
            ),
            "mixed": (
                "# columns: timestamp pole_id tx ty tz qx qy qz qw weight_trans weight_rot\n"
                "0.10000000000000001 3 1 -0.5 0 0 0 0 1 400 2500\n"
                f"0.20000000000000001 0 0.25 0 9.9999999999999995e-21 {Q_DISK} 0 2500\n"
            ),
            "injection": (
                "# columns: frame trans_m rot_deg tx ty tz qx qy qz qw\n"
                "0 0.00148 0.042999999999999997 0.001 0 0 0 0 0 1\n"
                f"1 0.00148 0.042999999999999997 0 -0.001 0 {Q_DISK}\n"
            ),
            "full3d": (
                f"{source}# dof_mode: full3d\n"
                "GAUGE 0\n"
                "NODE 0 0 1 0 0 0 0 0 0 1\n"
                f"NODE 1 0.20000000000000001 0 0.10000000000000001 0 0 {Q_DISK}\n"
                f"LANDMARK_FRAME 0.10000000000000001 0 0 {Q_DISK}\n"
                f"POLE 0 0.10000000000000001 0 0 {Q_DISK}\n"
                "POLE 1 0 0 0 0 0 0 1\n"
                f"EDGE_ODOM 0 1 0.10000000000000001 0 0 {Q_DISK} 1 2.5\n"
                "EDGE_OBS 1 1 0 0 0 0 0 0 1 400 0\n"
            ),
            "planar": (
                f"{source}# dof_mode: planar\n"
                "GAUGE 0\n"
                "NODE 0 0 1 0 0 0\n"
                "NODE 1 0.20000000000000001 0 0.10000000000000001 0 -0.5\n"
                "LANDMARK_FRAME 0.10000000000000001 0 -0.5\n"
                "POLE 0 0.10000000000000001 0 -0.5\n"
                "POLE 1 0 0 0\n"
                "EDGE_ODOM 0 1 0.10000000000000001 0 -0.5 1 2.5\n"
                "EDGE_OBS 1 1 0 0 0 400 0\n"
            ),
            "planar-fixed": (
                f"{source}# dof_mode: planar\n# landmark_fixed: true\n"
                "GAUGE 0\n"
                "NODE 0 0 1 0 0 0\n"
                "NODE 1 0.20000000000000001 0 0.10000000000000001 0 -0.5\n"
                "LANDMARK_FRAME 0.10000000000000001 0 -0.5\n"
                "POLE 0 0.10000000000000001 0 -0.5\n"
                "POLE 1 0 0 0\n"
                "EDGE_ODOM 0 1 0.10000000000000001 0 -0.5 1 2.5\n"
                "EDGE_OBS 1 1 0 0 0 400 0\n"
            ),
            "xy": (
                "t,raw_x,raw_y,opt_x,opt_y\r\n"
                "0,1,2,1,2\r\n"
                "0.20000000000000001,1.5,-0.10000000000000001,1.25,0.10000000000000001\r\n"
            ),
            "poles": (
                "pole_id,true_x,true_y,est_x,est_y\r\n"
                "0,0,1.2,0.10000000000000001,1.25\r\n"
                "1,18,1.2,17.899999999999999,1.1499999999999999\r\n"
            ),
            "poles-untrue": (
                "pole_id,true_x,true_y,est_x,est_y\r\n"
                "0,,,0.10000000000000001,1.25\r\n"
                "1,,,17.899999999999999,1.1499999999999999\r\n"
            ),
        }
        for name, write in writes.items():
            path = tmp_path / f"{name}.txt"
            write(path)
            assert path.read_bytes().decode("utf-8") == expected[name], name
